//! Robustness and white-box tests for the PASE endpoint:
//! Algorithm 2's window state, the reorder guard observed on the wire,
//! tolerance to control-plane packet loss, and recovery from injected
//! arbitrator crashes (watchdog fallback + re-attach).

use std::sync::Arc;

use netsim::node::Node;
use netsim::packet::PacketKind;
use netsim::prelude::*;
use netsim::queue::LossyQdisc;
use netsim::trace::{TextTracer, TraceEvent, TraceSink};
use pase::{install, pase_qdisc, PaseConfig, PaseFactory, PaseSender, PaseSwitchPlugin};

fn cfg() -> PaseConfig {
    PaseConfig {
        base_rtt: SimDuration::from_micros(100),
        arb_refresh: SimDuration::from_micros(100),
        arb_expiry: SimDuration::from_micros(400),
        ..PaseConfig::default()
    }
}

fn star_sim_with(
    n: usize,
    cfg: PaseConfig,
    qdisc_for: &netsim::topology::QdiscChooser<'_>,
) -> (Simulation, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch();
    let hosts = b.add_hosts(n);
    for &h in &hosts {
        b.connect(h, sw, Rate::from_gbps(1), SimDuration::from_micros(25));
    }
    let net = b.build(Arc::new(PaseFactory::new(cfg)), qdisc_for);
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    (sim, hosts)
}

#[test]
fn algorithm2_window_states_white_box() {
    // Three flows to one receiver, distinct sizes: after the receiver-leg
    // responses arrive, the smallest flow must sit in the top queue with a
    // reference-rate window; the others in lower queues with cwnd ~1.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, &|_| Box::new(pase_qdisc(&cfg, 250, 20)));
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[3],
        2_000_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[3],
        1_200_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(2),
        hosts[2],
        hosts[3],
        100_000,
        SimTime::ZERO,
    ));
    // Run long enough for a couple of arbitration rounds but not to
    // completion (~1 ms).
    sim.run(RunLimit {
        max_time: Some(SimTime::from_millis(1)),
        max_events: None,
        stop_when_measured_done: false,
    });
    // Inspect the live senders.
    let q_of = |sim: &mut Simulation, host: NodeId, flow: u64| {
        let Node::Host(h) = sim.node_mut(host) else {
            panic!()
        };
        let s = h
            .agent_as::<PaseSender>(FlowId(flow))
            .expect("sender still live");
        (s.queue(), s.cwnd(), s.rref())
    };
    let (q2, cwnd2, rref2) = q_of(&mut sim, hosts[2], 2);
    let (q0, cwnd0, _) = q_of(&mut sim, hosts[0], 0);
    let (q1, _, _) = q_of(&mut sim, hosts[1], 1);
    assert_eq!(q2, 0, "smallest flow rides the top queue");
    assert!(q0 > 0, "largest flow is pushed down (q{q0})");
    assert!(q1 > 0, "middle flow is pushed down (q{q1})");
    // Top-queue window tracks Rref x RTT (~8+ packets at ~1 Gbps).
    assert!(
        cwnd2 > 4.0,
        "top-queue window should reflect the reference rate, got {cwnd2}"
    );
    assert!(!rref2.is_zero());
    // Lower-queue flows run the DCTCP laws from a small window.
    assert!(
        cwnd0 <= cwnd2,
        "demoted flow's window ({cwnd0}) should not exceed the top flow's ({cwnd2})"
    );
}

/// Trace sink asserting per-flow in-order data arrival at the receiver's
/// access link (the switch's port toward the receiver).
struct OrderChecker {
    watch_port_node: NodeId,
    highest_seq: std::collections::HashMap<u64, u64>,
    violations: Arc<std::sync::atomic::AtomicU64>,
}

impl TraceSink for OrderChecker {
    fn on_event(&mut self, _now: SimTime, event: &TraceEvent) {
        if let TraceEvent::Tx {
            node,
            flow,
            kind: PacketKind::Data,
            seq,
            ..
        } = *event
        {
            if node != self.watch_port_node {
                return;
            }
            let hi = self.highest_seq.entry(flow.0).or_insert(0);
            if seq < *hi {
                self.violations
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            *hi = (*hi).max(seq);
        }
    }
}

#[test]
fn queue_promotions_do_not_reorder_data_on_the_wire() {
    // Churny workload: many flows whose queues shift as they progress. On
    // a lossless run, the reorder guard must keep each flow's data in
    // order on the final hop (no retransmissions => any regression in seq
    // is a real reorder).
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(6, cfg, &|_| Box::new(pase_qdisc(&cfg, 500, 20)));
    let violations = Arc::new(std::sync::atomic::AtomicU64::new(0));
    sim.set_tracer(Box::new(OrderChecker {
        watch_port_node: NodeId(0), // the switch
        highest_seq: Default::default(),
        violations: Arc::clone(&violations),
    }));
    for i in 0..18u64 {
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[(i % 5) as usize],
            hosts[5],
            40_000 + 30_000 * (i % 6),
            SimTime::from_micros(i * 120),
        ));
    }
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    // Precondition for the invariant: nothing was lost or retransmitted.
    assert_eq!(
        sim.stats().data_pkts_dropped,
        0,
        "test needs a lossless run"
    );
    let rtx: u64 = sim.stats().flows().map(|r| r.retransmitted_bytes).sum();
    assert_eq!(rtx, 0, "test needs a retransmission-free run");
    assert_eq!(
        violations.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "data reordered on the wire despite the reorder guard"
    );
}

#[test]
fn control_plane_loss_does_not_stall_flows() {
    // Drop every 3rd control packet in the fabric: arbitration responses
    // and FlowDone messages get lost. Flows must still complete (local
    // decisions + periodic refresh are the fallback) and arbitrator state
    // must still converge via expiry.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(6, cfg, &|spec| {
        let inner = Box::new(pase_qdisc(&cfg, 250, 20));
        if spec.node_is_host {
            inner
        } else {
            Box::new(LossyQdisc::for_kind(inner, 3, PacketKind::Ctrl))
        }
    });
    for i in 0..15u64 {
        let src = (i % 5) as usize;
        let dst = {
            let d = ((i + 1) % 6) as usize;
            if d == src {
                5
            } else {
                d
            }
        };
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[src],
            hosts[dst],
            80_000,
            SimTime::from_micros(i * 150),
        ));
    }
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "flows must survive control-plane loss"
    );
}

/// Scaled-down 3-tier fabric (4 racks × `per_rack` hosts, 2 aggs, 1
/// core): the smallest topology where switch-resident arbitrators carry
/// real state, so crashing them means something.
fn three_tier_sim(per_rack: usize, cfg: PaseConfig) -> (Simulation, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let core = b.add_switch();
    let mut hosts = vec![];
    for _ in 0..2 {
        let agg = b.add_switch();
        b.connect(agg, core, Rate::from_gbps(10), SimDuration::from_micros(25));
        for _ in 0..2 {
            let tor = b.add_switch();
            b.connect(tor, agg, Rate::from_gbps(10), SimDuration::from_micros(25));
            for _ in 0..per_rack {
                let h = b.add_host();
                b.connect(h, tor, Rate::from_gbps(1), SimDuration::from_micros(25));
                hosts.push(h);
            }
        }
    }
    let net = b.build(Arc::new(PaseFactory::new(cfg)), &|spec| {
        let k = if spec.rate.as_bps() >= 10_000_000_000 {
            65
        } else {
            20
        };
        Box::new(pase_qdisc(&cfg, 500, k))
    });
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    (sim, hosts)
}

/// A plan that crashes (or restarts) every switch arbitrator at `at`.
fn all_switches(sim: &Simulation, at: SimTime, restart: bool) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for sw in sim.topo().switches() {
        plan = if restart {
            plan.arbitrator_restart(at, sw)
        } else {
            plan.arbitrator_crash(at, sw)
        };
    }
    plan
}

fn until(ms: u64) -> RunLimit {
    RunLimit {
        max_time: Some(SimTime::from_millis(ms)),
        max_events: None,
        stop_when_measured_done: false,
    }
}

fn sender_state(sim: &mut Simulation, host: NodeId, flow: u64) -> (bool, u8, Rate) {
    let Node::Host(h) = sim.node_mut(host) else {
        panic!()
    };
    let s = h
        .agent_as::<PaseSender>(FlowId(flow))
        .expect("sender still live");
    (s.in_fallback(), s.queue(), s.rref())
}

#[test]
fn arbitrator_crash_without_restart_completes_via_fallback() {
    // Every switch arbitrator dies at 1 ms and never comes back. Senders
    // stop hearing responses, trip the watchdog, degrade to
    // self-adjusting mode — and every flow still finishes.
    let cfg = cfg();
    let (mut sim, hosts) = three_tier_sim(2, cfg);
    // Cross-core flow (needs ToR + delegated arbitration) plus two
    // same-subtree flows.
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[7],
        2_000_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[3],
        150_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(2),
        hosts[2],
        hosts[6],
        150_000,
        SimTime::from_micros(500),
    ));
    let plan = all_switches(&sim, SimTime::from_millis(1), false);
    sim.inject_faults(&plan);

    // Mid-run: the long cross-core flow must have degraded.
    sim.run(until(4));
    let (fb, q, _) = sender_state(&mut sim, hosts[0], 0);
    assert!(fb, "watchdog must trip after k silent refresh rounds");
    assert_eq!(q, cfg.lowest_queue(), "fallback rides the lowest queue");
    let tor = sim.topo().host_tor(hosts[0]);
    let Node::Switch(sw) = sim.node_mut(tor) else {
        panic!()
    };
    assert!(sw.plugin_as::<PaseSwitchPlugin>().unwrap().is_crashed());

    // And still: everything completes with no control plane at all.
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "flows must complete on pure self-adjustment"
    );
}

#[test]
fn arbitrator_restart_re_attaches_endpoints() {
    // Crash at 1 ms, restart at 2 ms (past `arb_expiry`, so all soft
    // state is long gone). The solo sender must fall back during the
    // outage, then re-attach to a top-queue/reference-rate assignment
    // rebuilt purely from its own refresh requests.
    let cfg = cfg();
    let (mut sim, hosts) = three_tier_sim(2, cfg);
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[7],
        4_000_000,
        SimTime::ZERO,
    ));
    let crash = all_switches(&sim, SimTime::from_millis(1), false);
    let restart = all_switches(&sim, SimTime::from_millis(2), true);
    sim.inject_faults(&crash);
    sim.inject_faults(&restart);

    // During the outage: fallback.
    sim.run(until(2));
    let (fb, q, _) = sender_state(&mut sim, hosts[0], 0);
    assert!(fb, "sender must degrade during the outage");
    assert_eq!(q, cfg.lowest_queue());

    // Well after the restart: re-attached. The solo flow owns every link
    // on its path again, so arbitration puts it back in the top queue
    // with a reference rate far above the fallback base rate.
    sim.run(until(15));
    let (fb, q, rref) = sender_state(&mut sim, hosts[0], 0);
    assert!(!fb, "responses resumed: fallback must end");
    assert_eq!(q, 0, "solo flow re-attaches to the top queue");
    assert!(
        rref.as_bps() > 2 * cfg.base_rate().as_bps(),
        "reference rate must be re-established, got {rref}"
    );
    // The restarted ToR re-learned the flow from refreshes alone.
    let tor = sim.topo().host_tor(hosts[0]);
    let Node::Switch(sw) = sim.node_mut(tor) else {
        panic!()
    };
    let plugin = sw.plugin_as::<PaseSwitchPlugin>().unwrap();
    assert!(!plugin.is_crashed());
    assert!(
        plugin.up_flows() >= 1,
        "soft state must rebuild from refreshes"
    );

    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
}

#[test]
fn identical_fault_plans_give_byte_identical_traces() {
    // Determinism under faults: two runs with the same flows and the same
    // fault plan must produce byte-identical trace output.
    let run = || {
        let cfg = cfg();
        let (mut sim, hosts) = three_tier_sim(2, cfg);
        let tracer = TextTracer::new();
        let buf = tracer.buffer();
        sim.set_tracer(Box::new(tracer));
        for i in 0..6u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                hosts[(i % 4) as usize],
                hosts[4 + (i % 4) as usize],
                60_000 + i * 20_000,
                SimTime::from_micros(i * 130),
            ));
        }
        let tor0 = sim.topo().host_tor(hosts[0]);
        let agg = sim.topo().switches()[1];
        let plan = FaultPlan::new()
            .arbitrator_crash(SimTime::from_micros(800), tor0)
            .arbitrator_restart(SimTime::from_millis(3), tor0)
            .ctrl_loss_burst(SimTime::from_micros(900), tor0, agg, 3)
            .link_down(SimTime::from_millis(1), hosts[1], tor0)
            .link_up(SimTime::from_millis(2), hosts[1], tor0);
        sim.inject_faults(&plan);
        sim.run(until(40));
        let out = buf.lock().unwrap().clone();
        out
    };
    let a = run();
    let b = run();
    assert!(a.contains("FLT"), "fault events must appear in the trace");
    assert_eq!(a, b, "same seed + same fault plan must replay identically");
}

#[test]
fn host_arbitrator_crash_wipes_service_and_falls_back() {
    // Crash the control *process* on hosts[3] (not the machine): both of
    // its leaf arbitrators and the cached legs are wiped, and every flow
    // that depended on it — a remote sender waiting on its receiver leg
    // and a local sender using its uplink arbitrator — trips the watchdog
    // and still completes in self-adjusting fallback.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, &|_| Box::new(pase_qdisc(&cfg, 250, 20)));
    // Remote sender whose receiver leg terminates at hosts[3]...
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[3],
        2_000_000,
        SimTime::ZERO,
    ));
    // ...and a local sender arbitrating hosts[3]'s own uplink.
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[3],
        hosts[1],
        2_000_000,
        SimTime::ZERO,
    ));
    let plan = FaultPlan::new().arbitrator_crash(SimTime::from_millis(1), hosts[3]);
    sim.inject_faults(&plan);

    sim.run(until(4));
    {
        let Node::Host(h) = sim.node_mut(hosts[3]) else {
            panic!()
        };
        let svc = h.service_as::<pase::PaseHostService>().unwrap();
        assert!(svc.is_crashed(), "crash directive must reach the service");
        assert_eq!(svc.uplink_flows(), 0, "uplink arbitrator must be wiped");
        assert_eq!(svc.downlink_flows(), 0, "downlink arbitrator must be wiped");
    }
    let (fb0, q0, _) = sender_state(&mut sim, hosts[0], 0);
    assert!(
        fb0,
        "remote sender loses its receiver leg and must fall back"
    );
    assert_eq!(q0, cfg.lowest_queue());
    let (fb1, q1, _) = sender_state(&mut sim, hosts[3], 1);
    assert!(
        fb1,
        "local sender loses its uplink arbitrator and must fall back"
    );
    assert_eq!(q1, cfg.lowest_queue());

    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "watchdog fallback must still complete both flows"
    );
}

#[test]
fn crashed_host_lease_expiry_frees_the_top_queue() {
    // A machine crash kills a top-queue flow without any FlowDone: only
    // the lease GC can reclaim its PrioQue/Rref share. The demoted
    // competitor must be promoted back to the top queue once the dead
    // entry expires — a crashed host cannot wedge the priority ladder.
    let cfg = cfg();
    let (mut sim, hosts) = three_tier_sim(2, cfg);
    // Small cross-core flow: wins the top queue on every shared link.
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[7],
        400_000,
        SimTime::ZERO,
    ));
    // Big flow to the *same receiver*: contends for the 1 Gbps downlink
    // (and the whole shared path) and is demoted behind the small one.
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[7],
        8_000_000,
        SimTime::ZERO,
    ));
    let plan = FaultPlan::new()
        .host_crash(SimTime::from_micros(1100), hosts[0])
        .host_restart(SimTime::from_millis(20), hosts[0]);
    sim.inject_faults(&plan);

    // Just before the crash: the small flow holds the top queue.
    sim.run(until(1));
    let (_, q0, _) = sender_state(&mut sim, hosts[0], 0);
    assert_eq!(q0, 0, "small flow must own the top queue pre-crash");
    let (_, q1, _) = sender_state(&mut sim, hosts[1], 1);
    assert!(q1 > 0, "big flow must start demoted (q{q1})");

    // Well past `arb_expiry` after the crash: every arbitrator on the
    // shared path has expired the dead flow's lease and the survivor is
    // solo again.
    sim.run(until(6));
    assert_eq!(sim.stats().aborts_on(hosts[0]), 1, "crash aborts the flow");
    let tor = sim.topo().host_tor(hosts[1]);
    {
        let Node::Switch(sw) = sim.node_mut(tor) else {
            panic!()
        };
        let plugin = sw.plugin_as::<PaseSwitchPlugin>().unwrap();
        assert_eq!(
            plugin.up_flows(),
            1,
            "dead flow's ToR lease must expire without a FlowDone"
        );
    }
    let (fb1, q1, rref1) = sender_state(&mut sim, hosts[1], 1);
    assert!(!fb1, "survivor never lost its own control plane");
    assert_eq!(q1, 0, "survivor must be promoted once the lease expires");
    assert!(
        rref1.as_bps() > 2 * cfg.base_rate().as_bps(),
        "survivor must inherit the freed reference rate, got {rref1}"
    );

    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
}

#[test]
fn degraded_control_channel_trips_the_watchdog_and_flows_complete() {
    // Gray failures on both access links: the sender's drops most
    // packets in each direction, but arbitration responses still trickle
    // through — and each one resets `last_response`, defeating the
    // hard-silence watchdog, so only the decaying net-miss counter can
    // drive the flow into bounded self-adjusting fallback. The
    // receiver's link corrupts (but never drops) payloads, so the
    // receiver-side checksum discard and RTO/probe recovery get
    // exercised at full transmission rate once the lossy link heals.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, &|_| Box::new(pase_qdisc(&cfg, 250, 20)));
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[3],
        1_000_000,
        SimTime::ZERO,
    ));
    let sw = NodeId(0);
    let lossy = DegradeProfile {
        seed: 7,
        loss_ppm: 700_000,
        corrupt_ppm: 0,
        extra_delay_ns: 0,
        jitter_ns: 0,
    };
    let corrupting = DegradeProfile {
        seed: 11,
        loss_ppm: 0,
        corrupt_ppm: 200_000,
        extra_delay_ns: 0,
        jitter_ns: 0,
    };
    let plan = FaultPlan::new()
        .link_degrade(SimTime::from_micros(500), hosts[0], sw, lossy)
        .link_restore(SimTime::from_millis(50), hosts[0], sw)
        .link_degrade(SimTime::from_micros(500), hosts[3], sw, corrupting)
        .link_restore(SimTime::from_millis(400), hosts[3], sw);
    sim.inject_faults(&plan);

    sim.run(until(10));
    let (fb, q, _) = sender_state(&mut sim, hosts[0], 0);
    assert!(fb, "net-missed refresh rounds must trip the watchdog");
    assert_eq!(q, cfg.lowest_queue(), "fallback rides the lowest queue");

    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "transport recovery must finish the flow on a gray link"
    );
    assert!(
        sim.stats().data_pkts_corrupted > 0,
        "the degraded link must corrupt some payloads"
    );
}

#[test]
fn sustained_shedding_backs_off_then_trips_fallback_and_completes() {
    // A control storm amplifies the receiver-side arbitrator's inbox
    // charge far past its (deliberately tiny) budget, so every refresh of
    // the remote flow draws a `shedding: true` reply instead of an
    // arbitration answer. The sender must stretch its refresh cadence
    // multiplicatively, then — after `WATCHDOG_K` net shed rounds —
    // degrade to self-adjusting fallback exactly like a dead control
    // channel. When the storm ends, clean responses resume, fallback
    // ends, and the flow completes.
    let cfg = PaseConfig {
        ctrl_budget_per_epoch: 4,
        ..cfg()
    };
    let (mut sim, hosts) = star_sim_with(4, cfg, &|_| Box::new(pase_qdisc(&cfg, 250, 20)));
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[3],
        5_000_000,
        SimTime::ZERO,
    ));
    let plan = FaultPlan::new()
        .ctrl_storm_start(SimTime::from_micros(500), hosts[3], 64)
        .ctrl_storm_end(SimTime::from_millis(10), hosts[3]);
    sim.inject_faults(&plan);

    // Mid-storm: sustained shedding has tripped the fallback.
    sim.run(until(5));
    assert!(
        sim.stats().ctrl_msgs_shed > 0,
        "the storm must shed requests"
    );
    assert!(
        sim.stats().ctrl_shed_on(hosts[3]) > 0,
        "shedding happens at the stormed arbitrator"
    );
    {
        let Node::Host(h) = sim.node_mut(hosts[0]) else {
            panic!()
        };
        let s = h.agent_as::<PaseSender>(FlowId(0)).expect("sender live");
        assert!(
            s.in_fallback(),
            "sustained shedding must degrade the flow (shed rounds {})",
            s.shed_rounds()
        );
        assert!(
            s.shed_backoff() > 0,
            "shed replies must stretch the refresh cadence"
        );
        assert_eq!(
            s.queue(),
            cfg.lowest_queue(),
            "fallback rides the lowest queue"
        );
    }

    // Well after the storm: clean responses drain the shed integrator
    // (exit is hysteretic — one lucky reply mid-storm must not flap the
    // flow out of fallback and slam its cwnd), fallback ends, and the
    // flow finishes under restored arbitration. The drain is bounded by
    // ~2*WATCHDOG_K clean rounds at the backed-off cadence.
    sim.run(until(25));
    let (fb, _, _) = sender_state(&mut sim, hosts[0], 0);
    assert!(!fb, "clean responses after the storm must end fallback");
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "a shedding control plane must never strand a flow"
    );
}

#[test]
fn total_arbitration_blackout_still_completes() {
    // Drop EVERY control packet: PASE degrades to endpoint-local
    // arbitration plus self-adjustment, and still finishes.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, &|spec| {
        let inner = Box::new(pase_qdisc(&cfg, 250, 20));
        if spec.node_is_host {
            inner
        } else {
            Box::new(LossyQdisc::for_kind(inner, 1, PacketKind::Ctrl))
        }
    });
    for i in 0..6u64 {
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[(i % 3) as usize],
            hosts[3],
            100_000,
            SimTime::from_micros(i * 100),
        ));
    }
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(20)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
}
