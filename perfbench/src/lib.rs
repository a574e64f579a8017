//! The repo benchmark defined by `BENCHMARK.json` (see `README.md`).
//!
//! Five workloads, host-time and simulated-result end-to-end metrics,
//! and per-layer accounting taken from outside the simulator: counters
//! read at layer boundaries, bench-side spans around every call into a
//! layer, and microbenchmarks of the layers' public functions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod measure;
pub mod micro;
pub mod spans;
pub mod spec;
pub mod workloads;
