//! The one name the frozen `perfbench/src/measure.rs` imports from here;
//! the crate goes when a `benchmark` PR points it at `workloads::` instead.
pub use workloads::read_peak_rss;
