//! Robustness and white-box tests for the PASE endpoint:
//! Algorithm 2's window state, the reorder guard observed on the wire,
//! tolerance to control-plane packet loss, recovery from injected
//! arbitrator crashes (silent-channel fallback + re-attach), and the
//! refresh cadence of a flow stalled on its RTO and of a parked one.

use std::sync::{Arc, Mutex};

use netsim::node::Node;
use netsim::packet::PacketKind;
use netsim::prelude::*;
use netsim::queue::dctcp_mark_thresh;
use netsim::trace::{AbortReason, TextTracer, TraceEvent, TraceSink};
use pase::config::{CTRL_BUDGET_PER_EPOCH, REFRESH_BACKOFF_CAP};
use pase::{install, pase_qdisc, ArbProcess, Leg, PaseConfig, PaseSender};

/// Flows held by the arbitrator of a process's own link on `leg`.
fn own_flows(process: &ArbProcess, leg: Leg) -> usize {
    process.leg_arbitrators(leg)[0].map_or(0, |a| a.n_flows())
}

fn cfg() -> PaseConfig {
    PaseConfig {
        base_rtt: SimDuration::from_micros(100),
        arb_refresh: SimDuration::from_micros(100),
        ..PaseConfig::default()
    }
}

/// `n` hosts on one switch, every port buffering `buf_pkts` packets.
fn star_sim_with(n: usize, cfg: PaseConfig, buf_pkts: usize) -> (Simulation, Vec<NodeId>) {
    let (net, hosts) = TopologySpec::intra_rack(n).build(pase::agents(cfg), &|_| {
        Box::new(pase_qdisc(&cfg, buf_pkts, 20))
    });
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    (sim, hosts)
}

/// A control-loss burst of `n` packets on every switch→host direction of
/// a star, at each of `times`.
fn ctrl_loss_on_downlinks(
    sim: &Simulation,
    hosts: &[NodeId],
    times: impl Iterator<Item = SimTime>,
    n: u64,
) -> FaultPlan {
    let sw = sim.topo().host_tor(hosts[0]);
    let mut plan = FaultPlan::new();
    for at in times {
        for &h in hosts {
            plan = plan.ctrl_loss_burst(at, sw, h, n);
        }
    }
    plan
}

#[test]
fn algorithm2_window_states_white_box() {
    // Three flows to one receiver, distinct sizes: after the receiver-leg
    // responses arrive, the smallest flow must sit in the top queue with a
    // reference-rate window; the others in lower queues with cwnd ~1.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, 250);
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
    let (mut sim, hosts) = star_sim_with(6, cfg, 500);
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
    // A train of one-packet control-loss bursts on every switch→host
    // direction: arbitration responses and FlowDone messages get lost.
    // Flows must still complete (local decisions + periodic refresh are
    // the fallback) and arbitrator state must still converge via expiry.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(6, cfg, 250);
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
    // One lost packet per direction every 175 µs until the last flow
    // ends (~5.5 ms) costs about a third of all control packets (34 %).
    let train = (0..34u64).map(|i| SimTime::from_micros(i * 175));
    let plan = ctrl_loss_on_downlinks(&sim, &hosts, train, 1);
    sim.inject_faults(&plan);
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "flows must survive control-plane loss"
    );
    let st = sim.stats();
    let lost = st.ctrl_pkts_dropped as f64 / st.ctrl_pkts as f64;
    println!(
        "control packets lost: {} of {} ({:.1} %)",
        st.ctrl_pkts_dropped,
        st.ctrl_pkts,
        100.0 * lost
    );
    assert!(st.ctrl_pkts_dropped > 0, "the loss train must fire");
}

/// Scaled-down 3-tier fabric (4 racks × `per_rack` hosts, 2 aggs, 1
/// core): the smallest topology where switch-resident arbitrators carry
/// real state, so crashing them means something.
fn three_tier_sim(per_rack: usize, cfg: PaseConfig) -> (Simulation, Vec<NodeId>) {
    let (net, hosts) = TopologySpec::small_three_tier(per_rack).build(pase::agents(cfg), &|spec| {
        Box::new(pase_qdisc(&cfg, 500, dctcp_mark_thresh(spec.rate)))
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
    until_time(SimTime::from_millis(ms))
}

fn until_time(t: SimTime) -> RunLimit {
    RunLimit {
        max_time: Some(t),
        stop_when_measured_done: false,
    }
}

/// The live sender of `flow` on `host`, if it has not ended.
fn sender(sim: &mut Simulation, host: NodeId, flow: u64) -> Option<&mut PaseSender> {
    let Node::Host(h) = sim.node_mut(host) else {
        panic!()
    };
    h.agent_as::<PaseSender>(FlowId(flow))
}

fn sender_state(sim: &mut Simulation, host: NodeId, flow: u64) -> (bool, u8, Rate) {
    let s = sender(sim, host, flow).expect("sender still live");
    (s.health().in_fallback(), s.queue(), s.rref())
}

#[test]
fn arbitrator_crash_without_restart_completes_via_fallback() {
    // Every switch arbitrator dies at 1 ms and never comes back. Senders
    // stop hearing responses, judge the rounds silent, degrade to
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
    assert!(fb, "fallback must follow k silent refresh rounds");
    assert_eq!(q, cfg.lowest_queue(), "fallback rides the lowest queue");
    let tor = sim.topo().host_tor(hosts[0]);
    let process = sim.node_mut(tor).process_as::<ArbProcess>();
    assert!(process.unwrap().is_crashed());

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
    let process = sim.node_mut(tor).process_as::<ArbProcess>().unwrap();
    assert!(!process.is_crashed());
    assert!(
        own_flows(process, Leg::Sender) >= 1,
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
    // its leaf arbitrators are wiped (the leg answers its local sender
    // already holds are not: they live in the agent), and every flow that
    // depended on it — a remote sender waiting on its receiver leg and a
    // local sender using its uplink arbitrator — goes unanswered and
    // still completes in self-adjusting fallback.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, 250);
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
        let process = sim.node_mut(hosts[3]).process_as::<ArbProcess>();
        let process = process.unwrap();
        assert!(process.is_crashed(), "the crash must reach the process");
        assert_eq!(
            own_flows(process, Leg::Sender),
            0,
            "uplink arbitrator must be wiped"
        );
        assert_eq!(
            own_flows(process, Leg::Receiver),
            0,
            "downlink arbitrator must be wiped"
        );
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
        "silent-channel fallback must still complete both flows"
    );
}

#[test]
fn crashed_host_lease_expiry_frees_the_top_queue() {
    // A machine crash kills a top-queue flow without any FlowDone: only
    // lease expiry can reclaim its PrioQue/Rref share, and the next
    // request the survivor's refresh brings to each arbitrator drops the
    // expired entry. The demoted competitor must be promoted back to the
    // top queue once the dead entry expires — a crashed host cannot
    // wedge the priority ladder.
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
    assert_eq!(
        sim.stats().node(hosts[0]).aborts,
        1,
        "crash aborts the flow"
    );
    let tor = sim.topo().host_tor(hosts[1]);
    {
        let process = sim.node_mut(tor).process_as::<ArbProcess>().unwrap();
        assert_eq!(
            own_flows(process, Leg::Sender),
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
    // through — each answered round takes a strike back, so only the
    // net excess of silent rounds can drive the flow into bounded
    // self-adjusting fallback, with its data path dark as well. The
    // receiver's link corrupts (but never drops) payloads, so the
    // receiver-side checksum discard and RTO/probe recovery get
    // exercised at full transmission rate once the lossy link heals.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, 250);
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
    // charge to 16× its budget per message, so every refresh of
    // the remote flow draws a `shedding: true` reply instead of an
    // arbitration answer. The sender must stretch its refresh cadence
    // multiplicatively, then — after `WATCHDOG_K` net shed rounds —
    // degrade to self-adjusting fallback exactly like a dead control
    // channel. When the storm ends, clean responses resume, fallback
    // ends, and the flow completes.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, 250);
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[3],
        5_000_000,
        SimTime::ZERO,
    ));
    let amplify = 16 * CTRL_BUDGET_PER_EPOCH;
    let plan = FaultPlan::new()
        .ctrl_storm_start(SimTime::from_micros(500), hosts[3], amplify)
        .ctrl_storm_end(SimTime::from_millis(10), hosts[3]);
    sim.inject_faults(&plan);

    // Mid-storm: sustained shedding has tripped the fallback.
    sim.run(until(5));
    assert!(
        sim.stats().ctrl_msgs_shed > 0,
        "the storm must shed requests"
    );
    assert!(
        sim.stats().node(hosts[3]).ctrl_shed > 0,
        "shedding happens at the stormed arbitrator"
    );
    {
        let Node::Host(h) = sim.node_mut(hosts[0]) else {
            panic!()
        };
        let s = h.agent_as::<PaseSender>(FlowId(0)).expect("sender live");
        assert!(
            s.health().in_fallback(),
            "sustained shedding must degrade the flow (state {:?})",
            s.health().state()
        );
        assert!(
            s.health().refresh_delay(0) > cfg.arb_refresh,
            "shed replies must stretch the refresh cadence"
        );
        assert_eq!(
            s.queue(),
            cfg.lowest_queue(),
            "fallback rides the lowest queue"
        );
    }

    // Well after the storm: clean responses drain the strike integrator
    // below `WATCHDOG_K` (exit is hysteretic — one lucky reply mid-storm
    // must not flap the flow out of fallback and slam its cwnd),
    // fallback ends, and the flow finishes under restored arbitration.
    // The drain takes at most `REFRESH_BACKOFF_CAP − WATCHDOG_K + 1`
    // clean rounds at the backed-off cadence.
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
    // Drop every control packet the switch sends to a host: PASE degrades
    // to endpoint-local arbitration plus self-adjustment, and still
    // finishes.
    let cfg = cfg();
    let (mut sim, hosts) = star_sim_with(4, cfg, 250);
    for i in 0..6u64 {
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[(i % 3) as usize],
            hosts[3],
            100_000,
            SimTime::from_micros(i * 100),
        ));
    }
    let plan = ctrl_loss_on_downlinks(&sim, &hosts, std::iter::once(SimTime::ZERO), 1 << 40);
    sim.inject_faults(&plan);
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(20)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    assert!(sim.stats().ctrl_pkts_dropped > 0, "the blackout must fire");
    for &h in &hosts {
        assert_eq!(
            sim.stats().node(h).ctrl_processed,
            0,
            "host {h} heard its arbitrators through the blackout"
        );
    }
}

/// One flow as its sender's host saw it: when it put a control packet of
/// the flow on the wire, and when and why the flow ended.
#[derive(Default)]
struct CtrlLog {
    ctrl_tx: Vec<SimTime>,
    done: Option<(SimTime, Option<AbortReason>)>,
}

/// Trace sink filling a [`CtrlLog`] for `flow`, sent from `host`.
struct CtrlLogger {
    host: NodeId,
    flow: FlowId,
    log: Arc<Mutex<CtrlLog>>,
}

impl TraceSink for CtrlLogger {
    fn on_event(&mut self, now: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::Tx {
                node,
                flow,
                kind: PacketKind::Ctrl,
                ..
            } if node == self.host && flow == self.flow => {
                self.log.lock().unwrap().ctrl_tx.push(now);
            }
            TraceEvent::FlowDone { flow, reason, .. } if flow == self.flow => {
                self.log.lock().unwrap().done = Some((now, reason));
            }
            _ => {}
        }
    }
}

/// Logs `flow`'s control packets sent from `host` and its end.
fn log_ctrl(sim: &mut Simulation, host: NodeId, flow: u64) -> Arc<Mutex<CtrlLog>> {
    let log = Arc::new(Mutex::new(CtrlLog::default()));
    sim.set_tracer(Box::new(CtrlLogger {
        host,
        flow: FlowId(flow),
        log: log.clone(),
    }));
    log
}

#[test]
fn a_dead_receiver_stops_holding_capacity() {
    // Host `a` sends a small flow X to `r` in the other rack and a big
    // flow Y to `l` beside `r`; `l`'s 10 Mbps access link keeps Y alive
    // on few packets. X wins the top queue on `a`'s uplink, then `r`
    // crashes for good. X's data path goes dark and it takes RTO after
    // RTO until its budget runs out. Its sender leg climbs to live
    // switches and keeps answering, so X stays attached: only its
    // stalled RTOs back its refresh off (DESIGN §7b.12). Once a refresh
    // period exceeds `arb_expiry`, X's lease lapses between its rounds
    // and Y holds the top queue.
    let cfg = cfg();
    let mut b = TopologyBuilder::new();
    let agg = b.add_switch();
    let (tor_a, tor_r) = (b.add_switch(), b.add_switch());
    let (a, r, l) = (b.add_host(), b.add_host(), b.add_host());
    let us25 = SimDuration::from_micros(25);
    for tor in [tor_a, tor_r] {
        b.connect(tor, agg, Rate::from_gbps(10), us25);
    }
    b.connect(a, tor_a, Rate::from_gbps(1), us25);
    b.connect(r, tor_r, Rate::from_gbps(1), us25);
    b.connect(l, tor_r, Rate::from_mbps(10), us25);
    let net = b.build(pase::agents(cfg), &|_| Box::new(pase_qdisc(&cfg, 500, 20)));
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    sim.add_flow(FlowSpec::new(FlowId(0), a, r, 400_000, SimTime::ZERO));
    sim.add_flow(FlowSpec::new(FlowId(1), a, l, 20_000_000, SimTime::ZERO));
    let crash = SimTime::from_micros(1100);
    sim.inject_faults(&FaultPlan::new().host_crash(crash, r));
    let log = log_ctrl(&mut sim, a, 0);

    sim.run(until(1));
    assert_eq!(
        sender(&mut sim, a, 0).unwrap().queue(),
        0,
        "X holds the top queue"
    );
    assert!(
        sender(&mut sim, a, 1).unwrap().queue() > 0,
        "Y starts demoted"
    );

    // Step on a grid that is no multiple of `arb_refresh`: note when X
    // takes each RTO (`rto_at[k]`, the first step that sees `k`), and
    // sample Y's queue from X's third RTO until X aborts.
    let step = SimDuration::from_micros(130);
    let mut now = SimTime::from_millis(1);
    let mut rto_at = vec![crash];
    let (mut samples, mut top) = (0u32, 0u32);
    loop {
        now += step;
        sim.run(until_time(now));
        let Some(x) = sender(&mut sim, a, 0) else {
            break;
        };
        let rtos = x.stalled_rtos() as usize;
        while rto_at.len() <= rtos {
            rto_at.push(now);
        }
        if rtos >= 3 {
            let y = sender(&mut sim, a, 1).expect("Y outlives X");
            samples += 1;
            top += (y.queue() == 0) as u32;
        }
    }
    let log = log.lock().unwrap();
    let (end, reason) = log.done.expect("X ended");
    assert_eq!(
        reason,
        Some(AbortReason::MaxRtosExceeded),
        "X still spends its RTO budget and aborts"
    );
    rto_at.push(end);

    // Between its `k`-th and `k+1`-th RTO, X's rounds are at least
    // `arb_refresh × 2^min(k, REFRESH_BACKOFF_CAP)` apart; the round armed
    // before an RTO fired may come sooner. Each round sends two requests:
    // the sender leg to `tor_a`, the receiver leg to `r`.
    let rounds_bound: u64 = rto_at
        .windows(2)
        .enumerate()
        .map(|(k, w)| {
            let gap = (w[1] - w[0] + step).as_nanos();
            let period = cfg
                .arb_refresh
                .saturating_mul(1 << (k as u32).min(REFRESH_BACKOFF_CAP));
            gap / period.as_nanos() + 2
        })
        .sum();
    let sent = log
        .ctrl_tx
        .iter()
        .filter(|t| **t > crash && **t < end)
        .count() as u64;
    assert!(
        sent <= 2 * rounds_bound,
        "X sent {sent} requests in the {} ms after the crash, bound {}",
        (end - crash).as_nanos() / 1_000_000,
        2 * rounds_bound
    );
    // X's lease (`arb_expiry`) lapses between its backed-off rounds, so
    // the capacity it cannot use goes to Y.
    assert!(
        2 * top > samples,
        "Y held the top queue in {top} of {samples} samples after X's third RTO"
    );
}

#[test]
fn a_parked_flow_keeps_refreshing_and_is_promoted_at_once() {
    // Two queues, so the flow behind the top one is parked in the bottom
    // queue: its data is suppressed and it sends only pacing probes. It
    // has nothing in flight, takes no RTO, and keeps refreshing every
    // `arb_refresh`, which is how it learns of its promotion.
    let cfg = PaseConfig {
        n_queues: 2,
        ..cfg()
    };
    let (mut sim, hosts) = star_sim_with(2, cfg, 250);
    let (s, d) = (hosts[0], hosts[1]);
    sim.add_flow(FlowSpec::new(FlowId(0), s, d, 1_000_000, SimTime::ZERO));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        s,
        d,
        4_000_000,
        SimTime::from_micros(10),
    ));
    let log = log_ctrl(&mut sim, s, 1);
    let step = SimDuration::from_micros(10);
    let mut now = SimTime::ZERO;
    let mut top_done = None;
    let promoted = loop {
        now += step;
        sim.run(until_time(now));
        top_done = top_done.or(sim.stats().flow(FlowId(0)).unwrap().completed);
        let p = sender(&mut sim, s, 1).expect("the parked flow is live");
        if p.queue() == 0 {
            break now;
        }
        assert_eq!(p.queue(), cfg.lowest_queue(), "at {now:?}");
        assert_eq!(p.stalled_rtos(), 0, "a parked flow takes no RTO");
        assert_eq!(
            p.health().refresh_delay(p.stalled_rtos()),
            cfg.arb_refresh,
            "at {now:?}"
        );
    };
    let top_done = top_done.expect("the top flow finished before the promotion");
    // One request (the receiver leg to `d`) per refresh since its start.
    let start = SimTime::from_micros(10);
    let rounds = (top_done - start).as_nanos() / cfg.arb_refresh.as_nanos() + 1;
    let sent = log
        .lock()
        .unwrap()
        .ctrl_tx
        .iter()
        .filter(|t| **t <= top_done)
        .count() as u64;
    assert!(
        (rounds - 1..=rounds + 1).contains(&sent),
        "{sent} requests while parked, {rounds} refreshes"
    );
    // The next refresh finds the top flow gone from the local arbitrator
    // and its receiver-leg reply comes back one round trip later.
    assert!(
        promoted <= top_done + cfg.arb_refresh + cfg.base_rtt,
        "the top flow finished at {top_done:?}, the parked one was promoted at {promoted:?}"
    );
}
