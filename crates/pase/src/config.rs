//! PASE configuration.
//!
//! Defaults follow Table 3 of the paper: 8 priority queues, 10 ms minimum
//! RTO for top-queue flows and 200 ms for the rest, 500-packet switch
//! buffers (set where topologies are built).

use netsim::time::{Rate, SimDuration};

/// The scheduling criterion arbitrators sort flows by (paper §3.1.1: the
/// `FlowSize` input "can be replaced by deadline ... for task-aware
/// scheduling").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Shortest remaining processing time (default; minimizes FCT).
    SrptSize,
    /// Earliest deadline first; flows without deadlines sort after all
    /// deadline flows, by remaining size.
    Edf,
    /// Task-aware: flows of older tasks (smaller task id) first, remaining
    /// size as the tiebreak; task-less flows sort last. Serializing whole
    /// tasks minimizes *task* completion times (the paper cites Baraat's
    /// decentralized task-aware scheduling as the third criterion).
    TaskAware,
}

/// Minimum RTO for flows in the top queue (Table 3: 10 ms).
pub const MIN_RTO_TOP: SimDuration = SimDuration::from_millis(10);
/// Minimum RTO for flows in lower queues (Table 3: 200 ms).
pub const MIN_RTO_LOW: SimDuration = SimDuration::from_millis(200);
/// Maximum RTO.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(2);
/// DCTCP gain `g` for the marked-fraction EWMA (self-adjusting part).
pub const DCTCP_G: f64 = 1.0 / 16.0;
/// How often delegated virtual-link capacities are rebalanced.
pub const DELEG_PERIOD: SimDuration = SimDuration::from_millis(1);
/// Minimum share of a delegated link any child keeps (so a previously
/// idle child can ramp up without waiting a full period).
pub const DELEG_MIN_SHARE: f64 = 0.1;
/// The base rate granted to flows that cannot make the top queue: one
/// packet per RTT (paper §3.1.1).
pub const BASE_RATE_PKTS_PER_RTT: u32 = 1;
/// Control-plane watchdog: a sender that has gone this many refresh
/// periods without any arbitration response assumes the arbitrators are
/// unreachable and falls back to pure self-adjusting mode (lowest queue,
/// DCTCP control laws) until responses resume. At least 2, so one lost
/// refresh round is tolerated.
pub const WATCHDOG_K: u32 = 4;
/// Cap on the exponent of the refresh backoff: while responses are
/// missing, re-requests are spaced `arb_refresh × 2^min(misses, cap)`
/// apart so a dead control plane is not hammered every RTT.
pub const REFRESH_BACKOFF_CAP: u32 = 5;

/// Every knob of the PASE implementation that a figure, binary or test
/// varies; the fixed parameters are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaseConfig {
    /// Maximum segment payload, bytes.
    pub mss: u32,
    /// Number of switch priority queues (Table 3: 8; Fig. 12b sweeps this).
    pub n_queues: u8,
    /// Scheduling criterion.
    pub criterion: Criterion,
    /// Baseline RTT estimate used before samples exist and for the
    /// `Rref × RTT` window computation at flow start.
    pub base_rtt: SimDuration,
    /// How often sources re-contact arbitrators with updated remaining
    /// size (one base RTT by default).
    pub arb_refresh: SimDuration,
    /// Arbitrator flow entries not refreshed for this long are dropped
    /// (covers lost FlowDone messages).
    pub arb_expiry: SimDuration,
    /// End-to-end arbitration (false = local-only endpoint arbitration;
    /// Fig. 12a ablates this).
    pub end_to_end: bool,
    /// Early pruning: forward a request to the parent arbitrator only when
    /// the flow is mapped within the top `prune_depth` queues so far.
    pub early_pruning: bool,
    /// Number of top queues that survive pruning (paper §3.1.2: "sending
    /// flows belonging to the top two queues upwards ... provides the
    /// right balance").
    pub prune_depth: u8,
    /// Delegation: aggregation–core capacity is split into virtual links
    /// owned by the child ToR arbitrators.
    pub delegation: bool,
    /// Use the arbitrator's reference rate to set the window (false =
    /// PASE-DCTCP of Fig. 13a: queues only, DCTCP rate control).
    pub use_reference_rate: bool,
    /// Probe-based loss recovery for flows in lower-priority queues
    /// (§3.2): on timeout, send a probe to distinguish loss from delay.
    pub probe_on_timeout: bool,
    /// Bottom-queue probing (§4.3.2): flows in the lowest queue send a
    /// header-only probe per RTT instead of a full data packet.
    pub probe_bottom_queue: bool,
    /// Per-epoch control-message budget of every arbitrator (endpoint
    /// host-service legs and switch plugins alike). An epoch is one
    /// `arb_refresh` window; messages beyond the budget are shed with an
    /// explicit load-shed reply rather than silently queued. High enough
    /// by default that an unstormed arbitrator never sheds.
    pub ctrl_budget_per_epoch: u32,
    /// Overload protection master switch. On, overloaded arbitrators
    /// shed priority-aware (stale refreshes first, never responses or
    /// releases) with an explicit load-shed reply that makes senders
    /// back off. Off, the inbox is still bounded but naive: overflow is
    /// silently tail-dropped whatever the message — releases leak leases
    /// until expiry and senders hear nothing but their watchdogs (the
    /// `ext_overload` experiment ablates this to show the collapse).
    pub shed_enabled: bool,
}

impl Default for PaseConfig {
    fn default() -> Self {
        PaseConfig {
            mss: 1460,
            n_queues: 8,
            criterion: Criterion::SrptSize,
            base_rtt: SimDuration::from_micros(300),
            arb_refresh: SimDuration::from_micros(300),
            arb_expiry: SimDuration::from_micros(1200),
            end_to_end: true,
            early_pruning: true,
            prune_depth: 2,
            delegation: true,
            use_reference_rate: true,
            probe_on_timeout: true,
            probe_bottom_queue: true,
            ctrl_budget_per_epoch: 512,
            shed_enabled: true,
        }
    }
}

impl PaseConfig {
    /// The paper's "base rate" (one packet per RTT) as a [`Rate`].
    pub fn base_rate(&self) -> Rate {
        let bits = (self.mss as u64 + 40) * 8 * BASE_RATE_PKTS_PER_RTT as u64;
        let rtt_s = self.base_rtt.as_secs_f64();
        Rate::from_bps((bits as f64 / rtt_s) as u64)
    }

    /// The lowest queue index.
    pub fn lowest_queue(&self) -> u8 {
        self.n_queues - 1
    }

    /// Switch off every control-plane optimization (Fig. 11 baseline).
    pub fn without_optimizations(mut self) -> Self {
        self.early_pruning = false;
        self.delegation = false;
        self
    }

    /// Local-only arbitration (Fig. 12a baseline).
    pub fn local_only(mut self) -> Self {
        self.end_to_end = false;
        self
    }

    /// PASE-DCTCP (Fig. 13a baseline): no reference rate.
    pub fn without_reference_rate(mut self) -> Self {
        self.use_reference_rate = false;
        self
    }

    /// Disable overload protection (ext_overload ablation: arbitrators
    /// process everything, however hard the storm hits).
    pub fn without_shedding(mut self) -> Self {
        self.shed_enabled = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let c = PaseConfig::default();
        assert_eq!(c.n_queues, 8);
        assert_eq!(MIN_RTO_TOP, SimDuration::from_millis(10));
        assert_eq!(MIN_RTO_LOW, SimDuration::from_millis(200));
        assert!(c.end_to_end && c.early_pruning && c.delegation);
        assert_eq!(c.prune_depth, 2);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn watchdog_defaults_are_sane() {
        // The watchdog must tolerate at least one lost refresh round
        // before declaring the control plane dead, and the backoff cap
        // must keep re-request spacing well under the arbitrator expiry
        // horizon scaled by a few round trips.
        assert!(WATCHDOG_K >= 2);
        assert!((1..=16).contains(&REFRESH_BACKOFF_CAP));
    }

    #[test]
    fn shedding_defaults_protect_without_perturbing_normal_runs() {
        let c = PaseConfig::default();
        assert!(c.shed_enabled);
        // The budget must comfortably exceed what a healthy arbitrator
        // sees in one refresh window, so shedding only bites under storms.
        assert!(c.ctrl_budget_per_epoch >= 128);
        assert!(!PaseConfig::default().without_shedding().shed_enabled);
    }

    #[test]
    fn base_rate_is_one_packet_per_rtt() {
        let c = PaseConfig::default();
        // 1500 B / 300 us = 40 Mbps.
        let r = c.base_rate();
        assert!((r.as_bps() as f64 - 40e6).abs() < 1e5, "{r}");
    }

    #[test]
    fn ablation_helpers() {
        let c = PaseConfig::default().without_optimizations();
        assert!(!c.early_pruning && !c.delegation);
        assert!(!PaseConfig::default().local_only().end_to_end);
        assert!(
            !PaseConfig::default()
                .without_reference_rate()
                .use_reference_rate
        );
    }
}
