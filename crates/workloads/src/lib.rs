//! # workloads — the paper's evaluation scenarios, end to end
//!
//! Traffic workloads ([`flowgen`], [`scenarios`]), scheme wiring
//! ([`scheme`]) and metric collection ([`metrics`]) over the paper's
//! topology recipes ([`TopologySpec`], which `netsim` owns and this crate
//! re-exports): everything needed to run "(protocol, scenario, load,
//! seed) → AFCT / tail FCT / deadlines / loss / control overhead" in one
//! call ([`runner::RunSpec::run`]).
//! Sweeps over many such cases go through the deterministic parallel
//! execution engine in [`exec`]; every binary's flags go through the
//! argument cursor in [`cli`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod exec;
pub mod flowgen;
pub mod metrics;
pub mod runner;
pub mod scenarios;
pub mod scheme;

pub use exec::{default_jobs, read_peak_rss, run_cases};
pub use flowgen::{DeadlineDist, PoissonArrivals, SizeDist};
pub use metrics::{
    collect, collect_with, events_by_kind_line, percentile, MetricsMode, QuantileSketch,
    RunMetrics, SKETCH_EPSILON,
};
pub use netsim::topology::{fat_tree_ports_toward, TopologySpec};
pub use runner::RunSpec;
pub use scenarios::{Pattern, Scenario};
pub use scheme::Scheme;
