//! Leases expire when read: an arbitrator entry refreshed more than
//! `arb_expiry` ago counts for nothing even while the arbitrator still
//! holds it. No timer collects leases, so both reads that do not run
//! Algorithm 1 apply the rule themselves: the shed path's staleness test
//! and a ToR's delegation report.

use std::sync::Arc;

use netsim::event::EventKind;
use netsim::fault::FaultDirective;
use netsim::packet::Packet;
use netsim::prelude::*;
use netsim::stats::{Fate, Plane};
use pase::{
    install, pase_qdisc, ArbMsg, ArbProcess, ArbRequest, Decision, Leg, PaseConfig, PaseFactory,
};

const BUDGET: u32 = 4;
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
    let cfg = PaseConfig {
        ctrl_budget_per_epoch: BUDGET,
        ..PaseConfig::default()
    };
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
            max_events: None,
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
        let amplify = BUDGET + 2;
        let fault = EventKind::fault(FaultDirective::CtrlStormStart { amplify });
        let at = SimTime::from_micros(us);
        self.sim.scheduler_mut().schedule_at(at, self.tor0, fault);
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
