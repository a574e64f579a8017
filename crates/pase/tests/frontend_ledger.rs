//! The arbitrator front-end's ledger, through the real `on_ctrl` of both
//! owners: every control message that reaches an arbitrator process meets
//! exactly one fate — lost to a crash, unattended, shed, or processed (the
//! arbitrator-side terms of the control conservation law) — and the fate
//! depends only on (crashed, protected, inbox depth, message kind, stale),
//! identically for the host service and the switch plugin.

use std::sync::Arc;

use netsim::event::EventKind;
use netsim::fault::FaultDirective;
use netsim::packet::Packet;
use netsim::prelude::*;
use netsim::stats::{Fate, Plane};
use pase::{install, pase_qdisc, ArbMsg, ArbRequest, Leg, PaseConfig, PaseFactory};

const BUDGET: u32 = 4;

fn cfg(protected: bool) -> PaseConfig {
    PaseConfig {
        ctrl_budget_per_epoch: BUDGET,
        shed_enabled: protected,
        ..PaseConfig::default()
    }
}

/// agg — tor — {h0, h1}: the ToR has an uplink, so its plugin owns real
/// arbitrators (a refresh can be stale); h1 is the host under test.
struct Net {
    sim: Simulation,
    tor: NodeId,
    agg: NodeId,
    hosts: Vec<NodeId>,
}

fn net(cfg: PaseConfig) -> Net {
    let mut b = TopologyBuilder::new();
    let agg = b.add_switch();
    let tor = b.add_switch();
    let hosts = b.add_hosts(2);
    b.connect(tor, agg, Rate::from_gbps(10), SimDuration::from_micros(5));
    for &h in &hosts {
        b.connect(h, tor, Rate::from_gbps(1), SimDuration::from_micros(5));
    }
    let net = b.build(Arc::new(PaseFactory::new(cfg)), &|_| {
        Box::new(pase_qdisc(&cfg, 250, 20))
    });
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    Net {
        sim,
        tor,
        agg,
        hosts,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Request,
    Response,
    FlowDone,
    DelegUpdate,
    DelegGrant,
    /// A control packet whose payload is not a PASE message.
    Foreign,
}

/// The arbitrator-side terms of the control law.
const ARB_FATES: [Fate; 4] = [
    Fate::LostToCrash,
    Fate::Unattended,
    Fate::Shed,
    Fate::Processed,
];

const FLOW: FlowId = FlowId(7);

fn message(kind: Kind, n: &Net, leg: Leg) -> Box<dyn std::any::Any + Send> {
    let (src, dst) = (n.hosts[0], n.hosts[1]);
    let req = ArbRequest {
        flow: FLOW,
        reply_to: src,
        src,
        dst,
        remaining: 50_000,
        deadline: None,
        task: None,
        demand: Rate::from_gbps(1),
        leg,
        acc_queue: 0,
        acc_rate: Rate::from_gbps(1),
    };
    Box::new(match kind {
        Kind::Request => ArbMsg::Request(req),
        Kind::Response => req.response(false),
        Kind::FlowDone => ArbMsg::FlowDone {
            flow: FLOW,
            src,
            dst,
            leg,
        },
        Kind::DelegUpdate => ArbMsg::DelegUpdate {
            child: n.agg,
            up_demand: Rate::ZERO,
            down_demand: Rate::ZERO,
        },
        Kind::DelegGrant => ArbMsg::DelegGrant {
            up_capacity: Rate::from_gbps(1),
            down_capacity: Rate::from_gbps(1),
        },
        Kind::Foreign => return Box::new(0u64),
    })
}

/// Deliver one `kind` message to `target` at inbox depth `depth` and
/// report which ledger term moved (asserting that exactly one did).
fn fate(
    on_switch: bool,
    crashed: bool,
    protected: bool,
    depth: u32,
    kind: Kind,
    stale: bool,
) -> Fate {
    let mut n = net(cfg(protected));
    let (target, leg) = if on_switch {
        (n.tor, Leg::Sender)
    } else {
        (n.hosts[1], Leg::Receiver)
    };
    let from = n.hosts[0];
    let at = |us| SimTime::from_micros(us);
    let deliver = |n: &mut Net, t: SimTime, kind: Kind| {
        let pkt = Packet::ctrl(FLOW, from, target, message(kind, n, leg));
        n.sim.scheduler_mut().schedule_deliver(t, target, pkt);
    };
    let until = |n: &mut Net, t: SimTime| {
        n.sim.run(RunLimit {
            max_time: Some(t),
            max_events: None,
            stop_when_measured_done: false,
        });
    };
    if stale {
        // A first, unstormed request installs the flow's entry.
        deliver(&mut n, at(10), Kind::Request);
    }
    // The probe lands in a later epoch, so its depth is exactly the
    // storm's amplification (1 when unstormed).
    let fault = |n: &mut Net, d: FaultDirective| {
        n.sim
            .scheduler_mut()
            .schedule_at(at(900), target, EventKind::Fault(d));
    };
    if depth > 1 {
        fault(&mut n, FaultDirective::CtrlStormStart { amplify: depth });
    }
    if crashed {
        fault(&mut n, FaultDirective::Crash);
    }
    until(&mut n, at(950));
    let ledger = |n: &Net| ARB_FATES.map(|f| n.sim.stats().charged(Plane::Ctrl, f));
    let before = ledger(&n);
    deliver(&mut n, at(1000), kind);
    // Only the arrival's own instant: whatever the target sends on is
    // still on the wire, so no other node's books move.
    until(&mut n, at(1000));
    let after = ledger(&n);
    let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        moved.iter().sum::<u64>(),
        1,
        "exactly one ledger term moves: {moved:?}"
    );
    ARB_FATES[moved.iter().position(|m| *m == 1).unwrap()]
}

/// What the front-end's contract says the fate is.
fn expected(crashed: bool, protected: bool, depth: u32, kind: Kind, stale: bool) -> Fate {
    let (over, full) = (depth > BUDGET, depth > 2 * BUDGET);
    if crashed {
        Fate::LostToCrash
    } else if kind == Kind::Foreign {
        Fate::Unattended
    } else if !protected && full {
        // Naive tail drop: whatever arrived, releases and responses too.
        Fate::Shed
    } else if protected && kind == Kind::Request && (full || (over && stale)) {
        // Priority-aware: stale refreshes first, then fresh requests;
        // never releases, responses or delegation traffic.
        Fate::Shed
    } else {
        Fate::Processed
    }
}

#[test]
fn every_message_meets_exactly_one_fate_on_host_and_switch_alike() {
    let host_kinds = [
        Kind::Request,
        Kind::Response,
        Kind::FlowDone,
        Kind::DelegUpdate,
        Kind::Foreign,
    ];
    // A response is never addressed to a switch (the plugin debug-asserts
    // on one), so the switch sees the delegation grant instead.
    let switch_kinds = [
        Kind::Request,
        Kind::FlowDone,
        Kind::DelegUpdate,
        Kind::DelegGrant,
        Kind::Foreign,
    ];
    // Within budget, past it, past the hard capacity (2× budget).
    let depths = [1, BUDGET + 2, 2 * BUDGET + 1];
    let mut cases = 0;
    for (on_switch, kinds) in [(false, host_kinds), (true, switch_kinds)] {
        for crashed in [false, true] {
            for protected in [true, false] {
                for depth in depths {
                    for kind in kinds {
                        for stale in [false, true] {
                            let got = fate(on_switch, crashed, protected, depth, kind, stale);
                            let want = expected(crashed, protected, depth, kind, stale);
                            assert_eq!(
                                got, want,
                                "on_switch={on_switch} crashed={crashed} protected={protected} \
                                 depth={depth} {kind:?} stale={stale}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 2 * 2 * 3 * 5 * 2);
}
