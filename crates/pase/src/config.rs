//! PASE configuration.
//!
//! Defaults follow Table 3 of the paper: 8 priority queues and 500-packet
//! switch buffers (set where topologies are built). One deviation: every
//! queue runs [`transport::MIN_RTO`] (10 ms), where Table 3 gives the
//! lower queues 200 ms; the recovery probe, not the floor, tells a parked
//! flow from a lost one (DESIGN §7b.11).

use netsim::time::{Rate, SimDuration};
use transport::MSS;

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

/// How often delegated virtual-link capacities are rebalanced.
pub const DELEG_PERIOD: SimDuration = SimDuration::from_millis(1);
/// Minimum share of a delegated link any child keeps (so a previously
/// idle child can ramp up without waiting a full period).
pub const DELEG_MIN_SHARE: f64 = 0.1;
/// The base rate granted to flows that cannot make the top queue: one
/// packet per RTT (paper §3.1.1).
pub const BASE_RATE_PKTS_PER_RTT: u32 = 1;
/// Channel health ([`crate::health`]): at this many net strikes (shed or
/// silent refresh rounds less answered ones) a sender falls back to pure
/// self-adjusting mode (lowest queue, DCTCP control laws) until answers
/// resume. At least 2, so one lost round is tolerated.
pub const WATCHDOG_K: u32 = 4;
/// Arbitrator leases last this many refresh periods
/// ([`PaseConfig::arb_expiry`]): a flow entry not refreshed for that long
/// is dead (covers lost FlowDone messages and crashed endpoints). The rule
/// is applied when the entry is read — before every decision, by the shed
/// path's staleness test and before a delegation report — so no timer
/// collects leases.
pub const LEASE_REFRESHES: u64 = 4;
/// Cap on the channel-health strike integrator and on the exponent of the
/// refresh backoff, which adds the strikes of a backed-off or fallen-back
/// flow to its RTOs since its last new ACK
/// ([`ChannelHealth::refresh_delay`](crate::health::ChannelHealth::refresh_delay)).
/// So neither a dead or overloaded control plane nor a dead data path is
/// hammered every RTT, while `arb_refresh × 2^cap` (9.6 ms at the default
/// 300 µs) stays under the 10 ms minimum RTO: a stalled flow still
/// refreshes at least once per RTO.
pub const REFRESH_BACKOFF_CAP: u32 = 5;
/// Per-epoch control-message budget of every arbitrator (host and switch
/// processes alike). An epoch is one `arb_refresh` window; messages beyond
/// the budget are shed with an explicit load-shed reply rather than
/// silently queued (see [`crate::shed`]). High enough that an unstormed
/// arbitrator never sheds: only an injected control storm's amplification
/// drives an inbox past it.
pub const CTRL_BUDGET_PER_EPOCH: u32 = 512;

/// Every knob of the PASE implementation that a figure, binary or test
/// varies; the fixed parameters are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaseConfig {
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
    /// End-to-end arbitration (false = local-only endpoint arbitration;
    /// Fig. 12a ablates this).
    pub end_to_end: bool,
    /// Early pruning: forward a request to the parent arbitrator only when
    /// the flow is mapped within the top `Some(depth)` queues so far;
    /// `None` forwards every request (paper §3.1.2: "sending flows
    /// belonging to the top two queues upwards ... provides the right
    /// balance").
    pub prune_depth: Option<u8>,
    /// Delegation: aggregation–core capacity is split into virtual links
    /// owned by the child ToR arbitrators.
    pub delegation: bool,
    /// Use the arbitrator's reference rate to set the window (false =
    /// PASE-DCTCP of Fig. 13a: queues only, DCTCP rate control).
    pub use_reference_rate: bool,
    /// Probing (§3.2, §4.3.2): flows in lower-priority queues answer a
    /// timeout with a probe that tells loss from delay, and flows in the
    /// lowest queue send a header-only probe per RTT instead of a full
    /// data packet.
    pub probing: bool,
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
            n_queues: 8,
            criterion: Criterion::SrptSize,
            base_rtt: SimDuration::from_micros(300),
            arb_refresh: SimDuration::from_micros(300),
            end_to_end: true,
            prune_depth: Some(2),
            delegation: true,
            use_reference_rate: true,
            probing: true,
            shed_enabled: true,
        }
    }
}

impl PaseConfig {
    /// The paper's "base rate" (one packet per RTT) as a [`Rate`].
    pub fn base_rate(&self) -> Rate {
        let bits = (MSS as u64 + 40) * 8 * BASE_RATE_PKTS_PER_RTT as u64;
        let rtt_s = self.base_rtt.as_secs_f64();
        Rate::from_bps((bits as f64 / rtt_s) as u64)
    }

    /// How long an arbitrator keeps a flow entry nobody refreshes:
    /// [`LEASE_REFRESHES`] refresh periods.
    pub fn arb_expiry(&self) -> SimDuration {
        self.arb_refresh.saturating_mul(LEASE_REFRESHES)
    }

    /// The lowest queue index.
    pub fn lowest_queue(&self) -> u8 {
        self.n_queues - 1
    }

    /// Switch off every control-plane optimization (Fig. 11 baseline).
    pub fn without_optimizations(mut self) -> Self {
        self.prune_depth = None;
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
        // One minimum RTO in every queue, not Table 3's 10 ms / 200 ms
        // split (DESIGN §7b.11).
        assert_eq!(transport::MIN_RTO, SimDuration::from_millis(10));
        assert!(c.end_to_end && c.delegation && c.probing);
        assert_eq!(c.prune_depth, Some(2));
        assert_eq!(c.arb_expiry(), SimDuration::from_micros(1200));
        // The most backed-off refresh period still fits inside the
        // shortest RTO, so a stalled flow takes at least one refresh round
        // per RTO (DESIGN §7b.12).
        assert!(c.arb_refresh.saturating_mul(1 << REFRESH_BACKOFF_CAP) < transport::MIN_RTO);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn watchdog_defaults_are_sane() {
        // The channel must tolerate at least one lost refresh round
        // before declaring the control plane dead, the capped integrator
        // must be able to reach that threshold, and the backoff cap must
        // keep re-request spacing well under the arbitrator expiry
        // horizon scaled by a few round trips.
        assert!(WATCHDOG_K >= 2);
        assert!(WATCHDOG_K <= REFRESH_BACKOFF_CAP);
        assert!((1..=16).contains(&REFRESH_BACKOFF_CAP));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn shedding_defaults_protect_without_perturbing_normal_runs() {
        let c = PaseConfig::default();
        assert!(c.shed_enabled);
        // The budget must comfortably exceed what a healthy arbitrator
        // sees in one refresh window, so shedding only bites under storms.
        assert!(CTRL_BUDGET_PER_EPOCH >= 128);
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
        assert!(c.prune_depth.is_none() && !c.delegation);
        assert!(!PaseConfig::default().local_only().end_to_end);
        assert!(
            !PaseConfig::default()
                .without_reference_rate()
                .use_reference_rate
        );
    }
}
