//! Leases expire when read: an arbitrator entry refreshed more than
//! `arb_expiry` ago counts for nothing even while the arbitrator still
//! holds it. No timer collects leases, so both reads that do not run
//! Algorithm 1 apply the rule themselves: the shed path's staleness test
//! and a ToR's delegation report.
//!
//! Expiry is the fallback, not the rule: on a fault-free run every flow's
//! `FlowDone` releases each lease it took, so no arbitrator holds an entry
//! once the flows have ended and their control traffic has drained.

use std::sync::Arc;

use netsim::packet::Packet;
use netsim::prelude::*;
use netsim::stats::{Fate, Plane};
use pase::{
    install, pase_qdisc, ArbMsg, ArbProcess, ArbRequest, Decision, Leg, PaseConfig, PaseFactory,
};

const BUDGET: u32 = pase::config::CTRL_BUDGET_PER_EPOCH;
const FLOW: FlowId = FlowId(7);

/// core — agg0 — {tor0 — {h0, h1}, tor1 — h2}, core — agg1 — tor2 — h3:
/// a leg from h0 to h3 climbs past tor0, so tor0's delegated slice of
/// `agg0 → core` arbitrates it.
struct Net {
    sim: Simulation,
    tor0: NodeId,
    h0: NodeId,
    h3: NodeId,
}

fn net() -> Net {
    let cfg = PaseConfig::default();
    let mut b = TopologyBuilder::new();
    let core = b.add_switch();
    let aggs = [b.add_switch(), b.add_switch()];
    let tors = [b.add_switch(), b.add_switch(), b.add_switch()];
    let hosts = b.add_hosts(4);
    let fabric = |b: &mut TopologyBuilder, x, y| {
        b.connect(x, y, Rate::from_gbps(10), SimDuration::from_micros(5));
    };
    for agg in aggs {
        fabric(&mut b, agg, core);
    }
    for (tor, agg) in tors.into_iter().zip([aggs[0], aggs[0], aggs[1]]) {
        fabric(&mut b, tor, agg);
    }
    for (h, tor) in hosts.iter().zip([tors[0], tors[0], tors[1], tors[2]]) {
        b.connect(*h, tor, Rate::from_gbps(1), SimDuration::from_micros(5));
    }
    let net = b.build(Arc::new(PaseFactory::new(cfg)), &|_| {
        Box::new(pase_qdisc(&cfg, 250, 20))
    });
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    Net {
        sim,
        tor0: tors[0],
        h0: hosts[0],
        h3: hosts[3],
    }
}

impl Net {
    /// A sender-leg request for `FLOW` (h0 → h3, 5 Gb/s of demand)
    /// landing on tor0 at `us`.
    fn request(&mut self, us: u64) {
        let demand = Rate::from_gbps(5);
        let req = ArbRequest {
            flow: FLOW,
            src: self.h0,
            dst: self.h3,
            remaining: 50_000,
            deadline: None,
            task: None,
            demand,
            leg: Leg::Sender,
            decision: Decision {
                queue: 0,
                rate: demand,
            },
        };
        let pkt = Packet::ctrl(FLOW, self.h0, self.tor0, Box::new(ArbMsg::Request(req)));
        let at = SimTime::from_micros(us);
        self.sim
            .scheduler_mut()
            .schedule_deliver(at, self.tor0, pkt);
    }

    /// Run every event up to `us`; the clock stays at the last one.
    fn run_until(&mut self, us: u64) {
        self.sim.run(RunLimit {
            max_time: Some(SimTime::from_micros(us)),
            stop_when_measured_done: false,
        });
    }

    /// tor0's delegated slice on the sender leg: `(flows held, whether
    /// `FLOW`'s lease is live at `us`, capacity)`. tor0's own uplink
    /// arbitrator holds the same lease.
    fn tor0_slice(&mut self, us: u64) -> (usize, bool, Rate) {
        let now = SimTime::from_micros(us);
        let expiry = PaseConfig::default().arb_expiry();
        let process = self.sim.node_mut(self.tor0).process_as::<ArbProcess>();
        let [own, slice] = process.unwrap().leg_arbitrators(Leg::Sender);
        let (own, slice) = (own.unwrap(), slice.expect("tor0 owns a slice"));
        let live = slice.has_lease(FLOW, now, expiry);
        assert_eq!(live, own.has_lease(FLOW, now, expiry));
        (slice.n_flows(), live, slice.capacity())
    }

    /// From `us` on, a storm puts tor0's next arrival past its inbox
    /// budget, but not past twice it, where fresh requests shed too.
    fn storm(&mut self, us: u64) {
        let at = SimTime::from_micros(us);
        let plan = FaultPlan::new().ctrl_storm_start(at, self.tor0, BUDGET + BUDGET / 2);
        self.sim.inject_faults(&plan);
    }

    /// Whether a second request for `FLOW` landing on tor0 at `us` is
    /// shed as a stale refresh.
    fn refresh_shed(&mut self, us: u64) -> bool {
        let shed = |n: &Net| n.sim.stats().charged(Plane::Ctrl, Fate::Shed);
        let before = shed(self);
        self.request(us);
        self.run_until(us);
        shed(self) > before
    }
}

/// The lease is installed at 10 µs and expires after `arb_expiry`
/// (1.2 ms): at 1.4 ms tor0 still holds it — no request has touched its
/// arbitrators since — yet a second request is fresh, not a stale refresh
/// to shed. Before expiry the same request is stale and sheds.
#[test]
fn an_expired_lease_is_no_stale_refresh() {
    let expiry = PaseConfig::default().arb_expiry();
    assert_eq!(expiry, SimDuration::from_micros(1200));
    for (probe_us, live) in [(1100, true), (1400, false)] {
        let mut n = net();
        n.request(10);
        n.storm(probe_us - 50);
        n.run_until(probe_us - 1);
        let (held, lease, _) = n.tor0_slice(probe_us);
        assert_eq!((held, lease), (1, live), "probe at {probe_us} µs");
        assert_eq!(n.refresh_shed(probe_us), live, "probe at {probe_us} µs");
    }
}

/// tor0 reports its slice's top-queue demand every `DELEG_PERIOD` (1 ms)
/// and agg0 grants it `10 Gb/s × max(d, 1) / (max(d, 1) + 1)` (tor1 idle,
/// every share floored at a tenth). The report at 1 ms counts the live
/// 5 Gb/s lease; the one at 2 ms, past its expiry, does not, although
/// tor0 still held the entry until that report.
#[test]
fn an_expired_lease_claims_no_delegated_share() {
    let mut n = net();
    n.request(10);
    n.run_until(900);
    assert_eq!(n.tor0_slice(900), (1, true, Rate::from_gbps(5)));
    n.run_until(1_900);
    let (held, live, capacity) = n.tor0_slice(1_900);
    assert_eq!((held, live), (1, false));
    assert!(
        capacity.as_bps() > 8_300_000_000,
        "live lease reported: {capacity}"
    );
    n.run_until(2_100);
    let (held, _, capacity) = n.tor0_slice(2_100);
    assert_eq!(held, 0, "the report collected the expired lease");
    assert_eq!(capacity, Rate::from_gbps(5), "expired lease reported");
}

/// Hosts, ToRs, aggs and cores of the released-lease runs: 1 Gb/s access,
/// 10 Gb/s fabric, 25 µs per link (base RTT 300 µs across the core).
const ACCESS: Rate = Rate::from_gbps(1);
const FABRIC: Rate = Rate::from_gbps(10);
const DELAY: SimDuration = SimDuration::from_micros(25);

/// The paper's three-tier tree, scaled down: a core, two aggs, four racks
/// of four hosts. Hosts rack-major.
fn three_tier() -> (TopologyBuilder, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let core = b.add_switch();
    let mut hosts = vec![];
    for _ in 0..2 {
        let agg = b.add_switch();
        b.connect(agg, core, FABRIC, DELAY);
        for _ in 0..2 {
            let tor = b.add_switch();
            b.connect(tor, agg, FABRIC, DELAY);
            for _ in 0..4 {
                let h = b.add_host();
                b.connect(h, tor, ACCESS, DELAY);
                hosts.push(h);
            }
        }
    }
    (b, hosts)
}

/// The k = 4 fat-tree: four cores, four pods of two aggs and two ToRs of
/// two hosts each. Hosts rack-major.
fn fat_tree_4() -> (TopologyBuilder, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let cores: Vec<NodeId> = (0..4).map(|_| b.add_switch()).collect();
    let mut hosts = vec![];
    for _ in 0..4 {
        let aggs = [b.add_switch(), b.add_switch()];
        for (j, agg) in aggs.into_iter().enumerate() {
            for &core in &cores[2 * j..2 * j + 2] {
                b.connect(agg, core, FABRIC, DELAY);
            }
        }
        for _ in 0..2 {
            let tor = b.add_switch();
            for agg in aggs {
                b.connect(tor, agg, FABRIC, DELAY);
            }
            for _ in 0..2 {
                let h = b.add_host();
                b.connect(h, tor, ACCESS, DELAY);
                hosts.push(h);
            }
        }
    }
    (b, hosts)
}

/// Run `n` measured flows, one every 20 µs from a random host of `srcs`
/// to a random other host of `dsts`, sized U[2 KB, 198 KB], under the
/// default PASE configuration, to completion; then run 50 ms more for
/// the control traffic in flight to drain. Returns the entries every
/// arbitrator on every node holds at the end, nonzero ones only, as
/// `(node, leg, entries)`.
fn leases_left(
    b: TopologyBuilder,
    srcs: &[NodeId],
    dsts: &[NodeId],
    n: u64,
) -> Vec<(NodeId, Leg, usize)> {
    let cfg = PaseConfig::default();
    let net = b.build(Arc::new(PaseFactory::new(cfg)), &|spec| {
        let k = if spec.rate >= FABRIC { 65 } else { 20 };
        Box::new(pase_qdisc(&cfg, 250, k))
    });
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    let mut rng = Rng::seed_from_u64(1);
    sim.add_flows((0..n).map(|i| {
        let src = srcs[rng.gen_index(srcs.len())];
        let dst = loop {
            let dst = dsts[rng.gen_index(dsts.len())];
            if dst != src {
                break dst;
            }
        };
        let size = rng.gen_range_inclusive(2_000, 198_000);
        FlowSpec::new(FlowId(i), src, dst, size, SimTime::from_micros(20 * i))
    }));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let processed = sim.stats().charged(Plane::Ctrl, Fate::Processed);
    assert!(processed > 10 * n, "the control plane ran: {processed}");
    sim.run(RunLimit {
        max_time: Some(sim.now() + SimDuration::from_millis(50)),
        stop_when_measured_done: false,
    });
    let mut held = vec![];
    for id in (0..sim.topo().n_nodes()).map(|i| NodeId(i as u32)) {
        let Some(process) = sim.node_mut(id).process_as::<ArbProcess>() else {
            continue;
        };
        for leg in [Leg::Sender, Leg::Receiver] {
            let arbs = process.leg_arbitrators(leg).into_iter().flatten();
            let entries: usize = arbs.map(|a| a.n_flows()).sum();
            if entries > 0 {
                held.push((id, leg, entries));
            }
        }
    }
    held
}

/// Left-right across the three-tier core: every flow's leases are
/// released, on its hosts, its ToRs' own links and delegated slices, and
/// its aggs.
#[test]
fn finished_flows_hold_no_lease_left_right() {
    let (b, hosts) = three_tier();
    let (left, right) = hosts.split_at(hosts.len() / 2);
    assert_eq!(leases_left(b, left, right, 120), vec![]);
}

/// All-to-all on the multi-rooted k = 4 fat-tree: likewise.
#[test]
fn finished_flows_hold_no_lease_fat_tree() {
    let (b, hosts) = fat_tree_4();
    assert_eq!(leases_left(b, &hosts, &hosts, 120), vec![]);
}
