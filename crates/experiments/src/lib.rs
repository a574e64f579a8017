//! # experiments — regenerating every table and figure of the paper
//!
//! One module per figure under [`figs`], registered in
//! [`figs::FIGURES`]; `run_all` runs the whole registry and writes
//! `EXPERIMENTS.md`, or just the ids given with `--only`. It accepts
//! `--quick` (reduced scale), `--flows N`, `--seed S` and `--loads a,b,c`
//! ([`opts::USAGE`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod figs;
pub mod opts;
pub mod report;

pub use opts::ExpOpts;
pub use report::{FigResult, Series};
