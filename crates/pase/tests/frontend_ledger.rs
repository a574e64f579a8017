//! The arbitrator's control-inbox ledger, through the real `on_ctrl` of
//! the arbitrator process: every control message that reaches one meets
//! exactly one fate — lost to a crash, unattended, shed, or processed (the
//! arbitrator-side terms of the control conservation law) — and the fate,
//! with the `stale` flag a shed traces, depends only on (crashed,
//! protected, inbox depth, message kind, stale), identically on a host and
//! on a switch.

use std::sync::{Arc, Mutex};

use netsim::packet::Packet;
use netsim::prelude::*;
use netsim::stats::{Fate, Plane};
use netsim::trace::{TraceEvent, TraceSink};
use pase::{install, pase_qdisc, ArbMsg, ArbRequest, Decision, Leg, PaseConfig};

const BUDGET: u32 = pase::config::CTRL_BUDGET_PER_EPOCH;

fn cfg(protected: bool) -> PaseConfig {
    PaseConfig {
        shed_enabled: protected,
        ..PaseConfig::default()
    }
}

/// agg — tor — {h0, h1}: the ToR has an uplink, so its process owns real
/// arbitrators (a refresh can be stale); h1 is the host under test.
struct Net {
    sim: Simulation,
    tor: NodeId,
    hosts: Vec<NodeId>,
    /// The `stale` flag of every `SHED` event traced so far.
    sheds: Arc<Mutex<Vec<bool>>>,
}

/// Trace sink collecting the `stale` flag of every `SHED` event.
struct ShedLog(Arc<Mutex<Vec<bool>>>);

impl TraceSink for ShedLog {
    fn on_event(&mut self, _: SimTime, event: &TraceEvent) {
        if let TraceEvent::Shed { stale, .. } = *event {
            self.0.lock().unwrap().push(stale);
        }
    }
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
    let net = b.build(pase::agents(cfg), &|_| Box::new(pase_qdisc(&cfg, 250, 20)));
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    let sheds = Arc::default();
    sim.set_tracer(Box::new(ShedLog(Arc::clone(&sheds))));
    Net {
        sim,
        tor,
        hosts,
        sheds,
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
        src,
        dst,
        remaining: 50_000,
        deadline: None,
        task: None,
        demand: Rate::from_gbps(1),
        leg,
        decision: Decision {
            queue: 0,
            rate: Rate::from_gbps(1),
        },
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
/// report which ledger term moved (asserting that exactly one did) and the
/// `stale` flag of the `SHED` event it traced, if any.
fn fate(
    on_switch: bool,
    crashed: bool,
    protected: bool,
    depth: u32,
    kind: Kind,
    stale: bool,
) -> (Fate, Option<bool>) {
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
            stop_when_measured_done: false,
        });
    };
    if stale {
        // A first, unstormed request installs the flow's entry.
        deliver(&mut n, at(10), Kind::Request);
    }
    // The probe lands in a later epoch, so its depth is exactly the
    // storm's amplification (1 when unstormed).
    let mut plan = FaultPlan::new();
    if depth > 1 {
        plan = plan.ctrl_storm_start(at(900), target, depth);
    }
    if crashed {
        plan = plan.arbitrator_crash(at(900), target);
    }
    n.sim.inject_faults(&plan);
    until(&mut n, at(950));
    let ledger = |n: &Net| ARB_FATES.map(|f| n.sim.stats().charged(Plane::Ctrl, f));
    let before = ledger(&n);
    let traced = n.sheds.lock().unwrap().len();
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
    let sheds = n.sheds.lock().unwrap()[traced..].to_vec();
    assert!(sheds.len() <= 1, "one arrival, one SHED at most: {sheds:?}");
    let fate = ARB_FATES[moved.iter().position(|m| *m == 1).unwrap()];
    (fate, sheds.first().copied())
}

/// What the inbox's contract says the fate and the traced `SHED` flag are.
fn expected(
    crashed: bool,
    protected: bool,
    depth: u32,
    kind: Kind,
    stale: bool,
) -> (Fate, Option<bool>) {
    let (over, full) = (depth > BUDGET, depth > 2 * BUDGET);
    if crashed {
        (Fate::LostToCrash, None)
    } else if kind == Kind::Foreign {
        (Fate::Unattended, None)
    } else if !protected && full {
        // Naive tail drop: whatever arrived, releases and responses too,
        // and a refresh is never told from a fresh request.
        (Fate::Shed, Some(false))
    } else if protected && kind == Kind::Request && (full || (over && stale)) {
        // Priority-aware: stale refreshes first, then fresh requests;
        // never releases, responses or delegation traffic.
        (Fate::Shed, Some(stale))
    } else {
        (Fate::Processed, None)
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
    // A response is never addressed to a switch (the process debug-asserts
    // on one there), so the switch sees the delegation grant instead.
    let switch_kinds = [
        Kind::Request,
        Kind::FlowDone,
        Kind::DelegUpdate,
        Kind::DelegGrant,
        Kind::Foreign,
    ];
    // Within budget, past it, past the hard capacity (2× budget).
    let depths = [1, BUDGET + BUDGET / 2, 2 * BUDGET + 1];
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
