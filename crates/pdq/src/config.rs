//! PDQ parameters.

use netsim::time::SimDuration;

/// Fraction of link capacity the arbiter hands out (PDQ under-allocates
/// slightly so queues stay empty).
pub const ETA: f64 = 0.95;
/// Switch flow-state expiry: entries not refreshed for this long are
/// garbage-collected (the sender crashed or the TERM was lost).
pub const FLOW_EXPIRY: SimDuration = SimDuration::from_millis(10);
/// Probing interval for paused flows, in RTTs.
pub const PROBE_INTERVAL_RTTS: f64 = 1.0;
/// Suppressed probing: multiply the interval by this factor for each
/// consecutive paused probe...
pub const PROBE_SUPPRESS_FACTOR: f64 = 2.0;
/// ...up to this many RTTs.
pub const PROBE_INTERVAL_MAX_RTTS: f64 = 8.0;

/// The PDQ knobs a scenario or test sets; the fixed parameters are the
/// constants above (segment size and RTO bounds are
/// [`transport::MSS`], [`transport::MIN_RTO`] and [`transport::MAX_RTO`];
/// a sender requests its NIC rate).
///
/// Defaults follow the PDQ paper (SIGCOMM'12): Early Start lookahead of
/// K = 2 RTTs, slight under-allocation for stability, and suppressed
/// probing for paused flows.
#[derive(Debug, Clone, Copy)]
pub struct PdqConfig {
    /// Early Start window: a more-critical flow expected to finish within
    /// this many of the requester's RTTs is treated as already finished.
    pub early_start_rtts: f64,
    /// RTT estimate used before the first sample.
    pub base_rtt: SimDuration,
    /// Early Termination: abort flows whose deadline has become
    /// unmeetable (sends TERM, frees the network). Off by default — none
    /// of the PASE paper's PDQ experiments use deadlines.
    pub early_termination: bool,
}

impl Default for PdqConfig {
    fn default() -> Self {
        PdqConfig {
            early_start_rtts: 2.0,
            base_rtt: SimDuration::from_micros(300),
            early_termination: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn defaults_match_paper_recommendations() {
        let c = PdqConfig::default();
        assert_eq!(c.early_start_rtts, 2.0);
        assert!(ETA > 0.9 && ETA < 1.0);
        assert!(!c.early_termination);
        assert!(PROBE_INTERVAL_MAX_RTTS >= PROBE_INTERVAL_RTTS);
    }
}
