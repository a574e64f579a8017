//! # experiments — regenerating every table and figure of the paper
//!
//! One entry of [`figs::FIGURES`] per figure: a [`figs::common::Row`] for
//! each load sweep or FCT CDF, a function for the rest. `run_all` runs
//! the whole registry and writes `EXPERIMENTS.md`, or just the ids given
//! with `--only`. It accepts `--quick` (reduced scale), `--flows N`,
//! `--seed S` and `--loads a,b,c` ([`opts::USAGE`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod figs;
pub mod opts;
pub mod report;

pub use opts::ExpOpts;
pub use report::{FigResult, Series};
