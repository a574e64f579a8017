//! End-to-end PDQ behaviour over the simulated network.

use std::sync::Arc;

use netsim::prelude::*;
use pdq::{install_switch_plugins, PdqConfig, PdqFactory};

fn star_sim(n: usize, cfg: PdqConfig) -> (Simulation, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch();
    let hosts = b.add_hosts(n);
    for &h in &hosts {
        b.connect(h, sw, Rate::from_gbps(1), SimDuration::from_micros(25));
    }
    // PDQ runs over plain drop-tail FIFO queues; rates are arbitrated so
    // queues stay short, but Early Start can briefly oversubscribe.
    let net = b.build(Arc::new(PdqFactory::new(cfg)), &|_| {
        Box::new(DropTailQdisc::new(200))
    });
    let mut sim = Simulation::new(net);
    install_switch_plugins(&mut sim, cfg);
    let _ = sw;
    (sim, hosts)
}

fn cfg() -> PdqConfig {
    PdqConfig {
        base_rtt: SimDuration::from_micros(100),
        ..PdqConfig::default()
    }
}

#[test]
fn single_flow_pays_one_rtt_setup_then_runs_at_line_rate() {
    let (mut sim, hosts) = star_sim(2, cfg());
    let size = 950_000u64; // ~8 ms at 0.95 Gbps
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        size,
        SimTime::ZERO,
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let fct = sim.stats().flow(FlowId(0)).unwrap().fct().unwrap();
    // Setup probe RTT (~0.1 ms) + 8 ms transfer, plus pacing slack.
    assert!(fct > SimDuration::from_millis(8), "{fct}");
    assert!(fct < SimDuration::from_millis(11), "{fct}");
    // The probe that set up the flow is recorded.
    assert!(sim.stats().flow(FlowId(0)).unwrap().probes_sent >= 1);
}

#[test]
fn sjf_preempts_the_long_flow() {
    let (mut sim, hosts) = star_sim(3, cfg());
    // Long flow to host2; short flow arrives later from another sender.
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        4_000_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        100_000,
        SimTime::from_millis(5),
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    let short = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
    let long = sim.stats().flow(FlowId(0)).unwrap().fct().unwrap();
    // The short flow gets the link (pausing the long one): near-ideal FCT
    // of ~1 ms transfer + ~2 control RTTs.
    assert!(
        short < SimDuration::from_millis(3),
        "short flow should preempt under PDQ, took {short}"
    );
    // The long flow still completes afterwards.
    assert!(long > SimDuration::from_millis(30));
}

#[test]
fn paused_flows_probe_with_suppression() {
    let (mut sim, hosts) = star_sim(3, cfg());
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        2_000_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        2_500_000,
        SimTime::ZERO,
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    // Flow 1 was paused for most of flow 0's lifetime (~17 ms): with 1-RTT
    // probing and exponential suppression up to 8 RTTs, it sends a bounded
    // number of probes — more than a couple, far fewer than unsuppressed
    // (~170 at RTT=0.1 ms).
    let probes = sim.stats().flow(FlowId(1)).unwrap().probes_sent;
    assert!(probes >= 3, "expected multiple probes, saw {probes}");
    assert!(
        probes < 80,
        "suppressed probing should bound probes, saw {probes}"
    );
}

#[test]
fn all_flows_complete_under_contention() {
    let (mut sim, hosts) = star_sim(6, cfg());
    for i in 0..10u64 {
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[(i % 5) as usize],
            hosts[5],
            150_000 + 20_000 * i,
            SimTime::from_micros(i * 137),
        ));
    }
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(20)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    // Rate arbitration should keep losses negligible.
    let loss = sim.stats().data_loss_rate();
    assert!(loss < 0.01, "PDQ should be nearly lossless, got {loss:.4}");
}

#[test]
fn early_termination_aborts_unmeetable_deadline() {
    let mut c = cfg();
    c.early_termination = true;
    let (mut sim, hosts) = star_sim(3, c);
    // Occupy the link with a more-critical deadline flow, and give flow 1
    // a deadline it cannot meet while paused.
    sim.add_flow(
        FlowSpec::new(FlowId(0), hosts[0], hosts[2], 2_000_000, SimTime::ZERO)
            .with_deadline(SimDuration::from_millis(18)),
    );
    sim.add_flow(
        FlowSpec::new(FlowId(1), hosts[1], hosts[2], 1_000_000, SimTime::ZERO)
            .with_deadline(SimDuration::from_millis(2)),
    );
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    let f1 = sim.stats().flow(FlowId(1)).unwrap();
    // Flow 1's 8 ms of data cannot fit in 2 ms... but it is *more*
    // critical (earlier deadline), so it runs first and still misses;
    // either way it must be aborted rather than finish.
    assert!(f1.aborted, "flow 1 should be early-terminated");
    assert_eq!(f1.met_deadline(), Some(false));
    // Flow 0 completes normally.
    assert!(!sim.stats().flow(FlowId(0)).unwrap().aborted);
}

#[test]
fn deterministic_runs() {
    let run = || {
        let (mut sim, hosts) = star_sim(4, cfg());
        for i in 0..5u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                hosts[(i % 3) as usize],
                hosts[3],
                90_000 + i * 11_000,
                SimTime::from_micros(i * 77),
            ));
        }
        sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
        sim.stats()
            .flows()
            .map(|r| r.fct().unwrap().as_nanos())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn term_releases_switch_state() {
    use pdq::PdqSwitchPlugin;
    let (mut sim, hosts) = star_sim(3, cfg());
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        300_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        200_000,
        SimTime::ZERO,
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    // The run stops the instant the last ack lands; drain the in-flight
    // TERM packets before inspecting switch state.
    assert_eq!(sim.run(RunLimit::default()), RunOutcome::Drained);
    // After both TERMs, the arbiter for the contested downlink holds no
    // flow state (GC would eventually clear it, but TERM is immediate).
    let down_port = sim.topo().port_between(NodeId(0), hosts[2]);
    let down_port = down_port.expect("port toward the receiver");
    let plugin = sim.node_mut(NodeId(0)).process_as::<PdqSwitchPlugin>();
    assert_eq!(
        plugin.unwrap().tracked_flows(down_port),
        0,
        "TERM must release per-flow switch state"
    );
}
