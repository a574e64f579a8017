//! Algorithm 1: per-link arbitration.
//!
//! Every arbitrated link keeps a list of the flows traversing it, sorted
//! by the scheduling criterion. For one flow the arbitrator computes:
//!
//! * `ADH` — the aggregate demand of flows with higher priority;
//! * the priority queue: the top queue if `ADH < C`, otherwise
//!   `⌈ADH/C⌉` (1-based; clamped to the lowest queue) — each intermediate
//!   queue "accommodates flows with an aggregate demand of C";
//! * the reference rate: `min(demand, C − ADH)` when the flow makes the
//!   top queue, otherwise the base rate (one packet per RTT).

use std::collections::HashMap;

use netsim::ids::FlowId;
use netsim::time::{Rate, SimDuration, SimTime};

use crate::config::{Criterion, PaseConfig};

/// The lease rule (paper §3.1.3: arbitrator state is soft): an entry
/// refreshed no longer than `expiry` before `now` still arbitrates.
fn live(e: &FlowEntry, now: SimTime, expiry: SimDuration) -> bool {
    e.last_update + expiry >= now
}

/// One flow's entry in a link arbitrator.
#[derive(Debug, Clone, Copy)]
pub struct FlowEntry {
    /// Remaining size (`FlowSize` of Algorithm 1).
    pub remaining: u64,
    /// Deadline (EDF criterion), if any.
    pub deadline: Option<SimTime>,
    /// The source's demand.
    pub demand: Rate,
    /// Task id for task-aware scheduling, if any.
    pub task: Option<u64>,
    /// Last refresh time (entries expire).
    pub last_update: SimTime,
}

/// The decision returned by the arbitrator for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Priority queue, 0-based (0 = highest).
    pub queue: u8,
    /// Reference rate.
    pub rate: Rate,
}

impl Decision {
    /// The bottleneck rule (paper §3.1): a flow crossing several
    /// arbitrated links takes the worst queue and the smallest rate any
    /// of them assigned. Every arbitrator hop folds its decision into the
    /// leg with it, and the sender merges its local and leg decisions
    /// with it.
    pub fn merge(self, other: Decision) -> Decision {
        Decision {
            queue: self.queue.max(other.queue),
            rate: self.rate.min(other.rate),
        }
    }
}

/// A per-link arbitrator (Algorithm 1).
#[derive(Debug)]
pub struct LinkArbitrator {
    /// The link's (possibly virtual/delegated) capacity.
    capacity: Rate,
    flows: HashMap<FlowId, FlowEntry>,
    criterion: Criterion,
    n_queues: u8,
    base_rate: Rate,
}

impl LinkArbitrator {
    /// Create an arbitrator for a link of `capacity`.
    pub fn new(capacity: Rate, cfg: &PaseConfig) -> LinkArbitrator {
        LinkArbitrator {
            capacity,
            flows: HashMap::new(),
            criterion: cfg.criterion,
            n_queues: cfg.n_queues,
            base_rate: cfg.base_rate(),
        }
    }

    /// Current (virtual) link capacity.
    pub fn capacity(&self) -> Rate {
        self.capacity
    }

    /// Update the capacity (delegation rebalancing).
    pub fn set_capacity(&mut self, capacity: Rate) {
        self.capacity = capacity;
    }

    /// Number of flows currently tracked.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Whether the arbitrator holds an unexpired lease for `flow` at
    /// `now`. A request for such a flow is a *refresh* — the cheapest
    /// thing an overloaded arbitrator can shed, because the existing entry
    /// keeps arbitrating until it expires. A lease past `expiry` is absent
    /// here whether or not [`LinkArbitrator::gc`] has collected it yet.
    pub fn has_lease(&self, flow: FlowId, now: SimTime, expiry: SimDuration) -> bool {
        self.flows.get(&flow).is_some_and(|e| live(e, now, expiry))
    }

    /// Priority key: lower sorts first (more critical).
    fn key(&self, id: FlowId, e: &FlowEntry) -> (u64, u64, u64) {
        match self.criterion {
            Criterion::SrptSize => (0, e.remaining, id.0),
            Criterion::Edf => (
                e.deadline.map_or(u64::MAX, |d| d.as_nanos()),
                e.remaining,
                id.0,
            ),
            Criterion::TaskAware => (e.task.unwrap_or(u64::MAX), e.remaining, id.0),
        }
    }

    /// Step 1 of Algorithm 1: insert or refresh the flow's entry.
    pub fn update(&mut self, flow: FlowId, entry: FlowEntry) {
        self.flows.insert(flow, entry);
    }

    /// Remove a finished flow.
    pub fn remove(&mut self, flow: FlowId) {
        self.flows.remove(&flow);
    }

    /// Forget every flow (an arbitrator crash wipes all soft state; the
    /// next refresh round repopulates it, paper §3.1.3).
    pub fn clear(&mut self) {
        self.flows.clear();
    }

    /// Drop entries older than `expiry` before `now`.
    pub fn gc(&mut self, now: SimTime, expiry: SimDuration) {
        self.flows.retain(|_, e| live(e, now, expiry));
    }

    /// Step 2 of Algorithm 1: compute the flow's queue and reference rate.
    ///
    /// # Panics
    /// The flow must have been [`LinkArbitrator::update`]d first.
    pub fn decide(&self, flow: FlowId) -> Decision {
        let me = &self.flows[&flow];
        let my_key = self.key(flow, me);
        // ADH: aggregate demand of strictly higher-priority flows.
        let mut adh = Rate::ZERO;
        for (id, e) in &self.flows {
            if *id != flow && self.key(*id, e) < my_key {
                adh = adh.saturating_add(e.demand);
            }
        }
        let c = self.capacity.as_bps();
        if adh.as_bps() < c {
            // Top queue: spare capacity exists.
            let spare = Rate::from_bps(c - adh.as_bps());
            Decision {
                queue: 0,
                rate: me.demand.min(spare),
            }
        } else {
            // PrioQue = ceil(ADH/C) (1-based, clamped to the lowest
            // queue). At exact multiples of C the paper's ceiling would
            // put a flow with zero spare capacity in the top queue, which
            // contradicts the ADH < C branch; `floor + 1` is identical
            // everywhere else and consistent at the boundary.
            let q_1based = adh.as_bps() / c.max(1) + 1;
            let queue = q_1based.min(self.n_queues as u64) as u8 - 1;
            Decision {
                queue,
                rate: self.base_rate,
            }
        }
    }

    /// Convenience: update then decide.
    pub fn update_and_decide(&mut self, flow: FlowId, entry: FlowEntry) -> Decision {
        self.update(flow, entry);
        self.decide(flow)
    }

    /// Aggregate demand of flows currently mapped to the top queue — the
    /// quantity a child arbitrator reports to its parent for delegation
    /// rebalancing. Counts every entry held: the report
    /// [`LinkArbitrator::gc`]s expired leases first.
    pub fn top_queue_demand(&self) -> Rate {
        // Flows sorted by key take capacity in order; the top queue holds
        // those whose prefix demand is below capacity.
        let mut order: Vec<(&FlowId, &FlowEntry)> = self.flows.iter().collect();
        order.sort_by_key(|(id, e)| self.key(**id, e));
        let mut sum = Rate::ZERO;
        let mut top = Rate::ZERO;
        for (_, e) in order {
            if sum.as_bps() < self.capacity.as_bps() {
                top = top.saturating_add(e.demand.min(self.capacity.saturating_sub(sum)));
            } else {
                break;
            }
            sum = sum.saturating_add(e.demand);
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(remaining: u64, demand_mbps: u64) -> FlowEntry {
        FlowEntry {
            remaining,
            deadline: None,
            demand: Rate::from_mbps(demand_mbps),
            task: None,
            last_update: SimTime::ZERO,
        }
    }

    fn arb(capacity_mbps: u64) -> LinkArbitrator {
        LinkArbitrator::new(Rate::from_mbps(capacity_mbps), &PaseConfig::default())
    }

    #[test]
    fn merge_takes_worst_queue_and_min_rate() {
        let d = |queue, mbps| Decision {
            queue,
            rate: Rate::from_mbps(mbps),
        };
        let m = d(0, 1000).merge(d(2, 400));
        assert_eq!(m, d(2, 400));
        assert_eq!(
            m.merge(d(1, 700)),
            d(2, 400),
            "queue only worsens, rate only shrinks"
        );
        assert_eq!(d(1, 700).merge(m), m, "order does not matter");
    }

    #[test]
    fn clear_wipes_all_soft_state() {
        let mut a = arb(1000);
        a.update(FlowId(1), entry(10_000, 500));
        a.update(FlowId(2), entry(20_000, 500));
        assert_eq!(a.n_flows(), 2);
        a.clear();
        assert_eq!(a.n_flows(), 0);
        // A crashed-and-cleared arbitrator re-learns from scratch: the
        // first flow back gets the whole link again.
        let d = a.update_and_decide(FlowId(3), entry(5_000, 700));
        assert_eq!(d.queue, 0);
        assert_eq!(d.rate, Rate::from_mbps(700));
    }

    #[test]
    fn sole_flow_gets_top_queue_and_its_demand() {
        let mut a = arb(1000);
        let d = a.update_and_decide(FlowId(1), entry(100_000, 800));
        assert_eq!(d.queue, 0);
        assert_eq!(d.rate, Rate::from_mbps(800));
    }

    #[test]
    fn demand_capped_by_spare_capacity() {
        let mut a = arb(1000);
        a.update(FlowId(1), entry(10_000, 700)); // higher priority
        let d = a.update_and_decide(FlowId(2), entry(50_000, 700));
        assert_eq!(d.queue, 0, "spare capacity remains");
        assert_eq!(d.rate, Rate::from_mbps(300));
    }

    #[test]
    fn saturated_link_maps_to_intermediate_queues() {
        let mut a = arb(1000);
        // Three higher-priority flows of 500 Mbps each = 1.5 C.
        a.update(FlowId(1), entry(1_000, 500));
        a.update(FlowId(2), entry(2_000, 500));
        a.update(FlowId(3), entry(3_000, 500));
        let d = a.update_and_decide(FlowId(4), entry(50_000, 500));
        // ADH = 1.5 C -> ceil = 2 (1-based) -> 0-based queue 1.
        assert_eq!(d.queue, 1);
        assert_eq!(d.rate, PaseConfig::default().base_rate());
    }

    #[test]
    fn very_high_adh_clamps_to_lowest_queue() {
        let mut a = arb(100);
        for i in 0..30 {
            a.update(FlowId(i), entry(1_000 + i, 100));
        }
        let d = a.update_and_decide(FlowId(99), entry(1_000_000, 100));
        // ADH = 30 C -> would be queue 30; clamped to queue 7 (0-based).
        assert_eq!(d.queue, PaseConfig::default().lowest_queue());
    }

    #[test]
    fn srpt_orders_by_remaining_size() {
        let mut a = arb(1000);
        a.update(FlowId(1), entry(900_000, 1000)); // big flow
        let d_small = a.update_and_decide(FlowId(2), entry(1_000, 1000));
        assert_eq!(d_small.queue, 0, "small flow outranks big");
        let d_big = a.decide(FlowId(1));
        assert!(d_big.queue >= 1, "big flow pushed down");
    }

    #[test]
    fn edf_prioritizes_deadlines() {
        let cfg = PaseConfig {
            criterion: Criterion::Edf,
            ..PaseConfig::default()
        };
        let mut a = LinkArbitrator::new(Rate::from_mbps(1000), &cfg);
        let mut e1 = entry(900_000, 1000);
        e1.deadline = Some(SimTime::from_millis(5));
        a.update(FlowId(1), e1);
        // Smaller flow without a deadline loses to the deadline flow.
        let d = a.update_and_decide(FlowId(2), entry(1_000, 1000));
        assert!(d.queue >= 1);
        assert_eq!(a.decide(FlowId(1)).queue, 0);
    }

    #[test]
    fn task_aware_orders_by_task_then_size() {
        let cfg = PaseConfig {
            criterion: Criterion::TaskAware,
            ..PaseConfig::default()
        };
        let mut a = LinkArbitrator::new(Rate::from_mbps(1000), &cfg);
        let mut old_task_big = entry(900_000, 1000);
        old_task_big.task = Some(1);
        let mut new_task_small = entry(1_000, 1000);
        new_task_small.task = Some(2);
        a.update(FlowId(1), old_task_big);
        a.update(FlowId(2), new_task_small);
        // The older task wins even though its flow is larger.
        assert_eq!(a.decide(FlowId(1)).queue, 0);
        assert!(a.decide(FlowId(2)).queue >= 1);
        // Task-less flows sort after any task.
        let d = a.update_and_decide(FlowId(3), entry(10, 1000));
        assert!(d.queue >= 1);
    }

    #[test]
    fn removal_and_expiry_restore_priority() {
        let mut a = arb(1000);
        a.update(FlowId(1), entry(1_000, 1000));
        let d2 = a.update_and_decide(FlowId(2), entry(2_000, 1000));
        assert!(d2.queue >= 1);
        a.remove(FlowId(1));
        assert_eq!(a.decide(FlowId(2)).queue, 0);

        // Expiry path: flow 2 is stale (t = 0), flow 3 is fresh.
        let mut fresh = entry(500, 1000);
        fresh.last_update = SimTime::from_millis(10);
        a.update(FlowId(3), fresh);
        a.gc(SimTime::from_millis(10), SimDuration::from_millis(1));
        assert_eq!(a.n_flows(), 1, "stale entry dropped, fresh kept");
        assert_eq!(a.decide(FlowId(3)).queue, 0);
    }

    #[test]
    fn top_queue_demand_saturates_at_capacity() {
        let mut a = arb(1000);
        a.update(FlowId(1), entry(1_000, 600));
        a.update(FlowId(2), entry(2_000, 600));
        a.update(FlowId(3), entry(3_000, 600));
        // Flow1 600 + flow2 400 (clipped) = 1000; flow3 excluded.
        assert_eq!(a.top_queue_demand(), Rate::from_mbps(1000));
        let mut b = arb(1000);
        b.update(FlowId(1), entry(1_000, 300));
        assert_eq!(b.top_queue_demand(), Rate::from_mbps(300));
    }
}
