//! Randomized tests for Algorithm 1: the arbitration decisions must
//! satisfy the paper's invariants for arbitrary flow populations. Cases
//! are generated from netsim's seeded [`Rng`] so the suite is
//! deterministic and dependency-free.

use std::collections::BTreeMap;

use netsim::ids::FlowId;
use netsim::rng::Rng;
use netsim::time::{Rate, SimDuration, SimTime};
use pase::{Criterion, Decision, FlowEntry, LinkArbitrator, PaseConfig};

fn entry(remaining: u64, demand_mbps: u64) -> FlowEntry {
    FlowEntry {
        remaining,
        deadline: None,
        demand: Rate::from_mbps(demand_mbps),
        task: None,
        last_update: SimTime::ZERO,
    }
}

/// 1..40 flows of (remaining bytes, demand Mbps).
fn flows(rng: &mut Rng) -> Vec<(u64, u64)> {
    let n = rng.gen_range_inclusive(1, 39) as usize;
    (0..n)
        .map(|_| {
            (
                rng.gen_range_inclusive(1, 9_999_999),
                rng.gen_range_inclusive(1, 999),
            )
        })
        .collect()
}

fn cap_mbps(rng: &mut Rng) -> u64 {
    rng.gen_range_inclusive(100, 9_999)
}

const CASES: u64 = 128;

/// Invariants over every decision:
/// * queue indices are valid;
/// * top-queue flows get a positive rate at most their demand;
/// * non-top flows get exactly the base rate;
/// * the aggregate reference rate of top-queue flows never exceeds the
///   link capacity (admission control).
#[test]
fn algorithm1_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xa161 ^ seed);
        let flows = flows(&mut rng);
        let cfg = PaseConfig::default();
        let capacity = Rate::from_mbps(cap_mbps(&mut rng));
        let mut arb = LinkArbitrator::new(capacity, &cfg);
        for (i, &(remaining, demand)) in flows.iter().enumerate() {
            arb.update(FlowId(i as u64), entry(remaining, demand));
        }
        let mut top_rate_sum = 0u64;
        for (i, &(_, demand)) in flows.iter().enumerate() {
            let d = arb.decide(FlowId(i as u64));
            assert!(d.queue < cfg.n_queues);
            if d.queue == 0 {
                assert!(!d.rate.is_zero());
                assert!(d.rate.as_bps() <= Rate::from_mbps(demand).as_bps());
                top_rate_sum += d.rate.as_bps();
            } else {
                assert_eq!(d.rate, cfg.base_rate());
            }
        }
        assert!(
            top_rate_sum <= capacity.as_bps(),
            "top queue overcommitted: {} > {}",
            top_rate_sum,
            capacity.as_bps()
        );
    }
}

/// SRPT monotonicity: if flow A has strictly smaller remaining size than
/// flow B, A's queue is never worse than B's.
#[test]
fn srpt_is_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5291 ^ seed);
        let flows = flows(&mut rng);
        let cfg = PaseConfig::default();
        let mut arb = LinkArbitrator::new(Rate::from_mbps(cap_mbps(&mut rng)), &cfg);
        for (i, &(remaining, demand)) in flows.iter().enumerate() {
            arb.update(FlowId(i as u64), entry(remaining, demand));
        }
        let decisions: Vec<_> = (0..flows.len())
            .map(|i| arb.decide(FlowId(i as u64)))
            .collect();
        for i in 0..flows.len() {
            for j in 0..flows.len() {
                if flows[i].0 < flows[j].0 {
                    assert!(
                        decisions[i].queue <= decisions[j].queue,
                        "flow {} (rem {}) in q{} but flow {} (rem {}) in q{}",
                        i,
                        flows[i].0,
                        decisions[i].queue,
                        j,
                        flows[j].0,
                        decisions[j].queue
                    );
                }
            }
        }
    }
}

/// Exactly the most-critical flow always lands in the top queue (there is
/// always spare capacity for it).
#[test]
fn most_critical_flow_is_top() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xc217 ^ seed);
        let flows = flows(&mut rng);
        let cfg = PaseConfig::default();
        let mut arb = LinkArbitrator::new(Rate::from_mbps(cap_mbps(&mut rng)), &cfg);
        for (i, &(remaining, demand)) in flows.iter().enumerate() {
            arb.update(FlowId(i as u64), entry(remaining, demand));
        }
        // The flow with the smallest (remaining, id) key.
        let best = (0..flows.len()).min_by_key(|&i| (flows[i].0, i)).unwrap();
        assert_eq!(arb.decide(FlowId(best as u64)).queue, 0);
    }
}

/// Decisions are insensitive to update order (the sorted list is a
/// function of the set, not the insertion sequence).
#[test]
fn order_independent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x02de ^ seed);
        let flows = flows(&mut rng);
        let cap = cap_mbps(&mut rng);
        let cfg = PaseConfig::default();
        let mut a = LinkArbitrator::new(Rate::from_mbps(cap), &cfg);
        for (i, &(remaining, demand)) in flows.iter().enumerate() {
            a.update(FlowId(i as u64), entry(remaining, demand));
        }
        let forward: Vec<_> = (0..flows.len())
            .map(|i| a.decide(FlowId(i as u64)))
            .collect();

        let mut b = LinkArbitrator::new(Rate::from_mbps(cap), &cfg);
        for (i, &(remaining, demand)) in flows.iter().enumerate().rev() {
            b.update(FlowId(i as u64), entry(remaining, demand));
        }
        let backward: Vec<_> = (0..flows.len())
            .map(|i| b.decide(FlowId(i as u64)))
            .collect();
        assert_eq!(forward, backward);
    }
}

/// top_queue_demand is capped by capacity and covers the whole demand
/// when the link is underloaded.
#[test]
fn top_queue_demand_bounds() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x70b5 ^ seed);
        let flows = flows(&mut rng);
        let cfg = PaseConfig::default();
        let capacity = Rate::from_mbps(cap_mbps(&mut rng));
        let mut arb = LinkArbitrator::new(capacity, &cfg);
        let mut total = 0u64;
        for (i, &(remaining, demand)) in flows.iter().enumerate() {
            arb.update(FlowId(i as u64), entry(remaining, demand));
            total += Rate::from_mbps(demand).as_bps();
        }
        let top = arb.top_queue_demand().as_bps();
        assert!(top <= capacity.as_bps());
        if total <= capacity.as_bps() {
            assert_eq!(
                top, total,
                "underloaded link should carry all demand on top"
            );
        }
    }
}

/// Algorithm 1 written out the slow way, as the paper states it: the
/// live flows sorted by the criterion, ADH the demand ahead of the flow.
struct Reference {
    cfg: PaseConfig,
    capacity: Rate,
    flows: BTreeMap<FlowId, FlowEntry>,
}

impl Reference {
    fn key(&self, id: FlowId, e: &FlowEntry) -> (u64, u64, u64) {
        match self.cfg.criterion {
            Criterion::SrptSize => (0, e.remaining, id.0),
            Criterion::Edf => (
                e.deadline.map_or(u64::MAX, |d| d.as_nanos()),
                e.remaining,
                id.0,
            ),
            Criterion::TaskAware => (e.task.unwrap_or(u64::MAX), e.remaining, id.0),
        }
    }

    /// gc, then update, then decide.
    fn request(&mut self, flow: FlowId, entry: FlowEntry, expiry: SimDuration) -> Decision {
        let now = entry.last_update;
        self.flows.retain(|_, e| e.last_update + expiry >= now);
        self.flows.insert(flow, entry);
        let mut order: Vec<_> = self.flows.iter().collect();
        order.sort_by_key(|(id, e)| self.key(**id, e));
        let ahead = order.iter().take_while(|(id, _)| **id != flow);
        let adh: u64 = ahead.map(|(_, e)| e.demand.as_bps()).sum();
        let c = self.capacity.as_bps();
        if adh < c {
            Decision {
                queue: 0,
                rate: entry.demand.min(Rate::from_bps(c - adh)),
            }
        } else {
            let queue = (adh / c + 1).min(self.cfg.n_queues as u64) as u8 - 1;
            Decision {
                queue,
                rate: self.cfg.base_rate(),
            }
        }
    }
}

/// The request path's one pass (`LinkArbitrator::arbitrate`) decides
/// exactly what `gc → update → decide` on a second arbitrator and the
/// sorted-list reference decide, and leaves the same leases behind,
/// over random request / remove / expiry / `set_capacity` sequences,
/// under every criterion, with 1, 8 and 1 000 flows resident.
#[test]
fn one_pass_equals_gc_update_decide() {
    let expiry = SimDuration::from_millis(1);
    for criterion in [Criterion::SrptSize, Criterion::Edf, Criterion::TaskAware] {
        for resident in [1u64, 8, 1000] {
            let cfg = PaseConfig {
                criterion,
                ..PaseConfig::default()
            };
            let mut rng = Rng::seed_from_u64(0x1a55 ^ resident ^ (criterion as u64) << 32);
            let capacity = Rate::from_mbps(cap_mbps(&mut rng));
            let mut one_pass = LinkArbitrator::new(capacity, &cfg);
            let mut composed = LinkArbitrator::new(capacity, &cfg);
            let mut reference = Reference {
                cfg,
                capacity,
                flows: BTreeMap::new(),
            };
            let mut now = SimTime::ZERO;
            // Steps short enough that most of the `resident` flows keep
            // their leases; a rare long silence lets a share of them lapse.
            // Time moves in 100 ns units, so some leases are read exactly
            // at expiry.
            let steps = expiry.as_nanos() / (200 * resident);
            for op in 0..4 * resident + 400 {
                // Every flow requests once before anything else happens.
                let flow = FlowId(if op < resident {
                    op
                } else {
                    rng.gen_below(resident)
                });
                match rng.gen_below(100) {
                    0..=1 if op >= resident => {
                        one_pass.remove(flow);
                        composed.remove(flow);
                        reference.flows.remove(&flow);
                    }
                    2..=3 if op >= resident => {
                        let capacity = Rate::from_mbps(cap_mbps(&mut rng));
                        one_pass.set_capacity(capacity);
                        composed.set_capacity(capacity);
                        reference.capacity = capacity;
                    }
                    4 if op >= resident => {
                        now += SimDuration::from_micros(rng.gen_range_inclusive(500, 1_500));
                    }
                    _ => {
                        now += SimDuration::from_nanos(100 * rng.gen_below(steps));
                        let entry = FlowEntry {
                            remaining: rng.gen_range_inclusive(1, 99_999),
                            deadline: (rng.gen_below(2) == 0)
                                .then(|| SimTime::from_micros(rng.gen_below(5_000))),
                            demand: Rate::from_mbps(rng.gen_range_inclusive(1, 999)),
                            task: (rng.gen_below(2) == 0).then(|| rng.gen_below(4)),
                            last_update: now,
                        };
                        let leased = one_pass.has_lease(flow, now, expiry);
                        assert_eq!(leased, composed.has_lease(flow, now, expiry));
                        let d = one_pass.arbitrate(flow, entry, expiry);
                        composed.gc(now, expiry);
                        composed.update(flow, entry);
                        let what = format!("{criterion:?}, {resident} flows, op {op}");
                        assert_eq!(d, composed.decide(flow), "{what}");
                        assert_eq!(d, reference.request(flow, entry, expiry), "{what}");
                        assert_eq!(one_pass.n_flows(), reference.flows.len(), "{what}");
                        assert_eq!(composed.n_flows(), reference.flows.len(), "{what}");
                    }
                }
                if op + 1 == resident {
                    assert_eq!(one_pass.n_flows() as u64, resident);
                }
            }
            assert_eq!(one_pass.top_queue_demand(), composed.top_queue_demand());
        }
    }
}
