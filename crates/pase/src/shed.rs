//! The arbitrator's control inbox: a per-epoch budget and the one verdict
//! it gives on each arriving control message, the same whether the
//! [`crate::ArbProcess`] that meters it sits on a host or a ToR (paper
//! §3.1).
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

use netsim::time::{SimDuration, SimTime};

use crate::config::{PaseConfig, CTRL_BUDGET_PER_EPOCH};

/// A weighted per-epoch control-inbox meter.
#[derive(Debug, Clone, Copy)]
pub struct InboxBudget {
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

/// What the inbox does with one arriving control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Arbitrate it.
    Process,
    /// Shed the request and answer it with a backpressure reply; `stale`
    /// says whether it refreshed a flow the arbitrator holds a lease for.
    Shed {
        /// The request was a stale refresh rather than a fresh one.
        stale: bool,
    },
    /// Tail-drop it silently: an unprotected inbox is full.
    Dropped,
}

impl InboxBudget {
    /// A meter with budget [`CTRL_BUDGET_PER_EPOCH`] and the configured
    /// epoch.
    pub fn new(cfg: &PaseConfig) -> InboxBudget {
        InboxBudget {
            epoch: cfg.arb_refresh,
            enabled: cfg.shed_enabled,
            amplify: 1,
            epoch_start: SimTime::ZERO,
            depth: 0,
        }
    }

    /// An injected control storm began: arrivals now cost `amplify`×.
    pub(crate) fn storm_start(&mut self, amplify: u32) {
        self.amplify = amplify.max(2);
    }

    /// The storm ended; arrivals cost their normal weight again.
    pub(crate) fn storm_end(&mut self) {
        self.amplify = 1;
    }

    /// Charge one arriving control message at `now`, rolling the epoch
    /// window when it has elapsed. Returns the weighted inbox depth after
    /// the arrival — feed it to
    /// [`netsim::stats::StatsCollector::note_ctrl_epoch_depth`] (which
    /// keeps the per-node peak) and to [`InboxBudget::admit`].
    pub fn charge(&mut self, now: SimTime) -> u64 {
        if now >= self.epoch_start + self.epoch {
            self.epoch_start = now;
            self.depth = 0;
        }
        self.depth += self.amplify as u64;
        self.depth
    }

    /// The verdict on a message that arrived at weighted depth `depth`.
    /// `stale` is `Some` for a request only: it answers whether the
    /// request refreshes a flow the arbitrator holds a lease for, and is
    /// asked only past the budget, the one place the answer matters.
    ///
    /// Past twice the budget the inbox is full. With the priority-aware
    /// policy ([`PaseConfig::shed_enabled`]) stale refreshes are shed past
    /// the budget and fresh requests once the inbox is full; nothing else
    /// is ever shed. Without it a full inbox silently drops *whatever*
    /// arrived, responses and `FlowDone` releases included.
    pub fn admit(&self, depth: u64, stale: Option<impl FnOnce() -> bool>) -> Admission {
        let budget = CTRL_BUDGET_PER_EPOCH as u64;
        let full = depth > 2 * budget;
        if !self.enabled {
            return if full {
                Admission::Dropped
            } else {
                Admission::Process
            };
        }
        match stale.filter(|_| depth > budget).map(|stale| stale()) {
            Some(stale) if stale || full => Admission::Shed { stale },
            _ => Admission::Process,
        }
    }

    /// Forget in-epoch state (arbitrator crash wipes soft state).
    pub(crate) fn clear(&mut self, now: SimTime) {
        self.epoch_start = now;
        self.depth = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Admission::{Dropped, Process, Shed};

    const B: u64 = CTRL_BUDGET_PER_EPOCH as u64;

    fn meter() -> InboxBudget {
        let cfg = PaseConfig {
            arb_refresh: SimDuration::from_micros(100),
            ..PaseConfig::default()
        };
        InboxBudget::new(&cfg)
    }

    /// The verdict on a request, `stale` or fresh.
    fn request(b: &InboxBudget, depth: u64, stale: bool) -> Admission {
        b.admit(depth, Some(|| stale))
    }

    /// The verdict on anything but a request.
    fn other(b: &InboxBudget, depth: u64) -> Admission {
        b.admit(depth, None::<fn() -> bool>)
    }

    #[test]
    fn budget_resets_each_epoch() {
        let mut b = meter();
        let t0 = SimTime::from_micros(1);
        for _ in 0..B {
            b.charge(t0);
        }
        assert_eq!(request(&b, B, true), Process, "within budget");
        let depth = b.charge(t0);
        assert_eq!(request(&b, depth, true), Shed { stale: true });
        // Next epoch: the meter starts over.
        let t1 = SimTime::from_micros(200);
        assert_eq!(b.charge(t1), 1);
        assert_eq!(request(&b, 1, true), Process);
    }

    #[test]
    fn fresh_requests_survive_until_twice_the_budget() {
        let mut b = meter();
        let t = SimTime::from_micros(1);
        let mut depth = 0;
        for _ in 0..2 * B {
            depth = b.charge(t);
        }
        assert_eq!(depth, 2 * B);
        assert_eq!(request(&b, depth, true), Shed { stale: true });
        assert_eq!(request(&b, depth, false), Process, "fresh under 2x");
        depth = b.charge(t);
        assert_eq!(request(&b, depth, false), Shed { stale: false });
        assert_eq!(other(&b, depth), Process, "only requests are shed");
    }

    #[test]
    fn storms_amplify_the_charge_and_end_cleanly() {
        let mut b = meter();
        let t = SimTime::from_micros(1);
        b.storm_start(2 * CTRL_BUDGET_PER_EPOCH);
        assert_eq!(b.charge(t), 2 * B, "one stormed arrival costs amplify");
        assert_eq!(request(&b, 2 * B, true), Shed { stale: true });
        b.storm_end();
        assert_eq!(b.charge(t), 2 * B + 1, "post-storm arrivals cost 1 again");
    }

    #[test]
    fn unprotected_inbox_still_overflows_at_hard_capacity() {
        let b = meter();
        let naive = InboxBudget::new(&PaseConfig::default().without_shedding());
        // Same hard capacity either way: the bound is physical, only the
        // policy (backpressure shed vs silent tail drop) differs.
        for depth in [1, 2 * B, 2 * B + 1, 25 * B] {
            let full = depth > 2 * B;
            let dropped = if full { Dropped } else { Process };
            assert_eq!(request(&naive, depth, false), dropped);
            assert_eq!(other(&naive, depth), dropped);
            let shed = if full { Shed { stale: false } } else { Process };
            assert_eq!(request(&b, depth, false), shed);
            assert_eq!(other(&b, depth), Process);
        }
    }

    #[test]
    fn disabled_meter_never_sheds() {
        let mut b = InboxBudget::new(&PaseConfig::default().without_shedding());
        b.storm_start(CTRL_BUDGET_PER_EPOCH + CTRL_BUDGET_PER_EPOCH / 2);
        let t = SimTime::from_micros(1);
        let depth = b.charge(t);
        assert_eq!(request(&b, depth, true), Process, "past budget: no shed");
        let depth = b.charge(t);
        assert_eq!(request(&b, depth, true), Dropped, "full: tail drop");
    }
}
