//! The arbitrator front-end: what every PASE arbitrator process does with
//! an arriving control packet *before* arbitrating, and its crash /
//! restart lifecycle — the same Algorithm 1 process whether it sits on a
//! host or a ToR (paper §3.1), so [`ArbFrontEnd`] is the front of the one
//! [`crate::ArbProcess`] every host and switch runs.
//!
//! # Per-arbitrator control-inbox budgeting (overload protection)
//!
//! Every PASE arbitrator process — on an endpoint or a switch alike —
//! meters its control inbox against a per-epoch budget (an epoch is one
//! `arb_refresh` window). Under an injected control storm
//! ([`netsim::fault::FaultEvent::CtrlStormStart`]) each arriving message
//! is charged `amplify`× its normal weight, modelling a flash
//! crowd of senders hammering the same arbitrator. When the weighted
//! depth crosses the budget the arbitrator *sheds* instead of queueing
//! without bound: stale refreshes first (a request for a flow it holds an
//! unexpired lease for), then — past twice the budget — fresh requests
//! too. A lease past `arb_expiry` makes a request fresh again whether or
//! not the arbitrator has collected it yet
//! ([`crate::LinkArbitrator::has_lease`]).
//! Responses, `FlowDone` releases and delegation traffic are never shed:
//! dropping a release leaks arbitrator state, and responses are the very
//! signal that lets senders back off.

use netsim::fault::NodeFault;
use netsim::ids::NodeId;
use netsim::packet::Packet;
use netsim::stats::{Fate, StatsCollector};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::TraceEvent;

use crate::config::PaseConfig;
use crate::messages::ArbMsg;

/// A weighted per-epoch control-inbox meter.
#[derive(Debug, Clone, Copy)]
pub struct InboxBudget {
    /// Messages (weight units) one epoch may absorb before shedding.
    budget: u64,
    /// Epoch length (one `arb_refresh` window).
    epoch: SimDuration,
    /// Master switch ([`PaseConfig::shed_enabled`]).
    enabled: bool,
    /// Per-message weight; 1 normally, the storm's factor while stormed.
    amplify: u32,
    /// When the current epoch started.
    epoch_start: SimTime,
    /// Weighted arrivals so far this epoch.
    depth: u64,
}

impl InboxBudget {
    /// A meter with the configured budget and epoch.
    pub fn new(cfg: &PaseConfig) -> InboxBudget {
        InboxBudget {
            budget: cfg.ctrl_budget_per_epoch as u64,
            epoch: cfg.arb_refresh,
            enabled: cfg.shed_enabled,
            amplify: 1,
            epoch_start: SimTime::ZERO,
            depth: 0,
        }
    }

    /// An injected control storm began: arrivals now cost `amplify`×.
    pub fn storm_start(&mut self, amplify: u32) {
        self.amplify = amplify.max(2);
    }

    /// The storm ended; arrivals cost their normal weight again.
    pub fn storm_end(&mut self) {
        self.amplify = 1;
    }

    /// Whether a storm is currently amplifying this inbox (tests).
    pub fn stormed(&self) -> bool {
        self.amplify > 1
    }

    /// Charge one arriving control message at `now`, rolling the epoch
    /// window when it has elapsed. Returns the weighted inbox depth after
    /// the arrival — feed it to
    /// [`netsim::stats::StatsCollector::note_ctrl_epoch_depth`] (which
    /// keeps the per-node peak) and to [`InboxBudget::should_shed`].
    pub fn charge(&mut self, now: SimTime) -> u64 {
        if now >= self.epoch_start + self.epoch {
            self.epoch_start = now;
            self.depth = 0;
        }
        self.depth += self.amplify as u64;
        self.depth
    }

    /// Whether the priority-aware shed policy is active. When it is not,
    /// the inbox is still bounded — [`InboxBudget::overflowed`] models a
    /// naive arbitrator that silently tail-drops *any* overflow message,
    /// responses and `FlowDone` releases included.
    pub fn protected(&self) -> bool {
        self.enabled
    }

    /// Hard inbox capacity: past twice the budget the inbox is full. A
    /// protected arbitrator sheds requests with a backpressure reply at
    /// this point; an unprotected one tail-drops whatever arrived.
    pub fn overflowed(&self, depth: u64) -> bool {
        depth > self.budget.saturating_mul(2)
    }

    /// Shed verdict for a *request* arriving at weighted depth `depth`.
    /// `stale` marks a refresh of a flow the arbitrator holds a lease for.
    /// Past the budget, stale refreshes are shed (the live entry keeps
    /// arbitrating until it expires); past twice the budget, fresh
    /// requests are shed too. Non-request messages are never shed — do
    /// not consult this for them.
    pub fn should_shed(&self, depth: u64, stale: bool) -> bool {
        if !self.enabled {
            return false;
        }
        if self.overflowed(depth) {
            return true;
        }
        depth > self.budget && stale
    }

    /// Forget in-epoch state (arbitrator crash wipes soft state).
    pub fn clear(&mut self, now: SimTime) {
        self.epoch_start = now;
        self.depth = 0;
    }
}

/// What an injected fault did to the arbitrator process, i.e. what its
/// owner has to do about the state only the owner knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// Nothing beyond the front-end's own bookkeeping.
    None,
    /// The process died: wipe every arbitrator and cache — all soft state
    /// dies with it and only the endpoints' periodic refreshes rebuild it.
    Wipe,
    /// A fresh, empty process came up: re-arm its delegation report loop,
    /// if it runs one. Arming stales a tick still pending from before the
    /// crash.
    Rearm,
}

/// The part of an arbitrator process that does not depend on which links
/// it arbitrates: crash state and the metered inbox with its shed policy
/// and ledger accounting.
#[derive(Debug, Clone)]
pub struct ArbFrontEnd {
    me: NodeId,
    /// Injected-fault state: a crashed arbitrator ignores all control
    /// traffic and timers until restarted (on a switch the data plane
    /// keeps forwarding — only the co-located control process dies).
    crashed: bool,
    /// Control-inbox meter shared by every arbitrator the process owns.
    budget: InboxBudget,
}

impl ArbFrontEnd {
    /// The front-end of the arbitrator process on node `me`.
    pub fn new(cfg: &PaseConfig, me: NodeId) -> ArbFrontEnd {
        ArbFrontEnd {
            me,
            crashed: false,
            budget: InboxBudget::new(cfg),
        }
    }

    /// Whether an injected crash currently has the process down.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Take one control packet off the wire. `None` when the message goes
    /// no further, with its fate already entered in the control ledger:
    /// lost to a crash (a crashed arbitrator is a black hole — the
    /// sending endpoints judge the silence, see [`crate::health`]),
    /// unattended (not a PASE message), or tail-dropped by an
    /// unprotected full inbox. Otherwise the message
    /// and the weighted inbox depth it arrived at, for
    /// [`ArbFrontEnd::shed_request`].
    pub fn admit(
        &mut self,
        pkt: &mut Packet,
        stats: &mut StatsCollector,
        now: SimTime,
    ) -> Option<(Box<ArbMsg>, u64)> {
        if self.crashed {
            stats.note_fate(pkt, Fate::LostToCrash, self.me, now);
            return None;
        }
        let Some(msg) = pkt.take_proto::<ArbMsg>() else {
            stats.note_fate(pkt, Fate::Unattended, self.me, now);
            return None;
        };
        let depth = self.budget.charge(now);
        stats.note_ctrl_epoch_depth(self.me, depth);
        if !self.budget.protected() && self.budget.overflowed(depth) {
            // Unprotected bounded inbox: silent tail drop of whatever
            // arrived — responses and FlowDone releases included, so
            // leases leak until expiry and senders hear nothing but
            // silence. This is the failure mode the priority-aware shed
            // policy exists to prevent.
            self.note_shed(pkt, false, stats, now);
            return None;
        }
        Some((msg, depth))
    }

    /// Overloaded: shed the request `pkt` carried instead of arbitrating?
    /// `stale` marks a refresh of a flow the arbitrator holds a lease for. On
    /// `true` the shed is already counted and traced and the owner
    /// answers with `req.response(true)`: the reply carries whatever the
    /// leg accumulated so far plus the load-shed signal, so the sender
    /// still gets an answer — just not a fresh decision — and backs off.
    /// Releases (`FlowDone`), responses and delegation traffic are never
    /// shed; do not consult this for them.
    pub fn shed_request(
        &self,
        pkt: &Packet,
        stale: bool,
        depth: u64,
        stats: &mut StatsCollector,
        now: SimTime,
    ) -> bool {
        let shed = self.budget.should_shed(depth, stale);
        if shed {
            self.note_shed(pkt, stale, stats, now);
        }
        shed
    }

    fn note_shed(&self, pkt: &Packet, stale: bool, stats: &mut StatsCollector, now: SimTime) {
        let node = self.me;
        stats.note_fate(pkt, Fate::Shed, node, now);
        if stats.tracing() {
            let flow = pkt.flow;
            stats.trace_event(now, &TraceEvent::Shed { node, flow, stale });
        }
    }

    /// Apply an injected fault to the process and tell the owner what is
    /// left for it to do.
    pub fn on_fault(&mut self, fault: NodeFault, now: SimTime) -> FaultEffect {
        match fault {
            NodeFault::Crash => {
                self.crashed = true;
                self.budget.clear(now);
                FaultEffect::Wipe
            }
            NodeFault::CtrlStormStart { amplify } => {
                self.budget.storm_start(amplify);
                FaultEffect::None
            }
            NodeFault::CtrlStormEnd => {
                self.budget.storm_end();
                FaultEffect::None
            }
            NodeFault::Restart if self.crashed => {
                self.crashed = false;
                FaultEffect::Rearm
            }
            NodeFault::Restart => FaultEffect::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> InboxBudget {
        let cfg = PaseConfig {
            ctrl_budget_per_epoch: 4,
            arb_refresh: SimDuration::from_micros(100),
            ..PaseConfig::default()
        };
        InboxBudget::new(&cfg)
    }

    #[test]
    fn budget_resets_each_epoch() {
        let mut b = tiny();
        let t0 = SimTime::from_micros(1);
        for _ in 0..4 {
            b.charge(t0);
        }
        assert!(!b.should_shed(4, true), "within budget: nothing sheds");
        let depth = b.charge(t0);
        assert!(b.should_shed(depth, true), "5th stale refresh sheds");
        // Next epoch: the meter starts over.
        let t1 = SimTime::from_micros(200);
        assert_eq!(b.charge(t1), 1);
        assert!(!b.should_shed(1, true));
    }

    #[test]
    fn fresh_requests_survive_until_twice_the_budget() {
        let mut b = tiny();
        let t = SimTime::from_micros(1);
        let mut depth = 0;
        for _ in 0..8 {
            depth = b.charge(t);
        }
        assert_eq!(depth, 8);
        assert!(b.should_shed(depth, true), "stale refresh past budget");
        assert!(!b.should_shed(depth, false), "fresh request under 2x");
        depth = b.charge(t);
        assert!(b.should_shed(depth, false), "fresh request past 2x budget");
    }

    #[test]
    fn storms_amplify_the_charge_and_end_cleanly() {
        let mut b = tiny();
        let t = SimTime::from_micros(1);
        b.storm_start(8);
        assert!(b.stormed());
        assert_eq!(b.charge(t), 8, "one stormed arrival costs amplify");
        assert!(b.should_shed(8, true), "a single stale refresh sheds");
        b.storm_end();
        assert!(!b.stormed());
        assert_eq!(b.charge(t), 9, "post-storm arrivals cost 1 again");
    }

    #[test]
    fn unprotected_inbox_still_overflows_at_hard_capacity() {
        let b = tiny();
        let naive = {
            let cfg = PaseConfig {
                ctrl_budget_per_epoch: 4,
                arb_refresh: SimDuration::from_micros(100),
                ..PaseConfig::default()
            }
            .without_shedding();
            InboxBudget::new(&cfg)
        };
        assert!(!naive.protected());
        assert!(b.protected());
        // Same hard capacity either way: the bound is physical, only the
        // policy (backpressure shed vs silent tail drop) differs.
        for depth in [1, 8, 9, 100] {
            assert_eq!(naive.overflowed(depth), depth > 8);
            assert_eq!(b.overflowed(depth), depth > 8);
        }
    }

    #[test]
    fn disabled_meter_never_sheds() {
        let cfg = PaseConfig {
            ctrl_budget_per_epoch: 1,
            ..PaseConfig::default()
        }
        .without_shedding();
        let mut b = InboxBudget::new(&cfg);
        let t = SimTime::from_micros(1);
        for _ in 0..100 {
            b.charge(t);
        }
        assert!(
            !b.should_shed(100, true),
            "shedding off: process everything"
        );
    }
}
