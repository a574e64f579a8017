//! End-to-end pFabric behaviour, including the paper's Figure 3 toy case.

use netsim::node::Node;
use netsim::prelude::*;
use pfabric::{PFabricConfig, PFabricQdisc};

/// Star topology with pFabric queues everywhere.
fn star_sim(n: usize, qcap: usize, cfg: PFabricConfig) -> (Simulation, Vec<NodeId>, NodeId) {
    let (net, hosts) = TopologySpec::intra_rack(n)
        .build(pfabric::agents(cfg), &|_| Box::new(PFabricQdisc::new(qcap)));
    let sw = net.topo.host_tor(hosts[0]);
    (Simulation::new(net), hosts, sw)
}

fn cfg_1g() -> PFabricConfig {
    // BDP at 1 Gbps / 100 us intra-rack RTT is small; the paper's
    // 38-packet window (`pfabric::CWND_PKTS`, per-flow line rate at the
    // baseline RTT) and 1 ms RTO are the defaults.
    PFabricConfig::default()
}

#[test]
fn single_flow_completes_at_line_rate() {
    let (mut sim, hosts, _) = star_sim(2, 76, cfg_1g());
    let size = 146_000; // 100 segments
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        size,
        SimTime::ZERO,
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(2)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let fct = sim.stats().flow(FlowId(0)).unwrap().fct().unwrap();
    // Line rate from the first RTT: ~1.2 ms serialization + ~0.1 ms RTT.
    assert!(fct < SimDuration::from_millis(2), "pFabric solo FCT {fct}");
    assert_eq!(sim.stats().data_pkts_dropped, 0);
}

#[test]
fn short_flow_preempts_long_flow() {
    let (mut sim, hosts, _) = star_sim(3, 76, cfg_1g());
    // Long flow occupies the downlink to host 2; a short flow arrives mid-way.
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        5_000_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        29_200, // 20 segments; tiny remaining size => top priority
        SimTime::from_millis(5),
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    let short = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
    // Near-ideal: ~0.23 ms serialization + RTT; allow generous headroom for
    // one in-flight long-flow burst, still far below fair-share time.
    assert!(
        short < SimDuration::from_millis(2),
        "short flow should preempt long under pFabric, took {short}"
    );
}

#[test]
fn figure3_toy_local_prioritization_wastes_capacity() {
    // Paper Figure 3: flow 1 (src1 -> dst1, highest priority), flow 2
    // (src2 -> dst1, medium), flow 3 (src2 -> dst2, lowest). Links: each
    // host's uplink/downlink through one switch. Flow 2's packets traverse
    // src2's uplink (link A) only to be dropped at dst1's downlink (link
    // B), stalling flow 3 which shares only link A with flow 2.
    let (mut sim, hosts, sw) = star_sim(4, 24, cfg_1g());
    let (src1, src2, dst1, dst2) = (hosts[0], hosts[1], hosts[2], hosts[3]);
    // Priorities via size: flow1 smallest, flow3 largest.
    let mb = 1_000_000u64;
    sim.add_flow(FlowSpec::new(FlowId(1), src1, dst1, mb, SimTime::ZERO));
    sim.add_flow(FlowSpec::new(FlowId(2), src2, dst1, 2 * mb, SimTime::ZERO));
    sim.add_flow(FlowSpec::new(FlowId(3), src2, dst2, 3 * mb, SimTime::ZERO));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));

    // Flow 2's transmissions died at dst1's downlink: drops must be heavy.
    assert!(
        sim.stats().data_pkts_dropped > 100,
        "expected heavy priority-dropping, saw {}",
        sim.stats().data_pkts_dropped
    );
    // Flow 3 could have run at full rate in parallel with flow 1 (disjoint
    // links), i.e. ~25 ms. Under pFabric it is stalled by flow 2's doomed
    // packets on the shared uplink and takes markedly longer.
    let f3 = sim.stats().flow(FlowId(3)).unwrap().fct().unwrap();
    let ideal = SimDuration::from_millis(25);
    assert!(
        f3 > ideal.mul_f64(1.5),
        "flow 3 should be stalled well past ideal {ideal}, took {f3}"
    );
    // The drops concentrate on dst1's downlink (port toward dst1).
    let Node::Switch(swn) = sim.node(sw) else {
        panic!()
    };
    let drops_to_dst1 = swn
        .ports()
        .iter()
        .find(|p| p.peer == dst1)
        .unwrap()
        .qdisc_stats()
        .dropped_pkts;
    assert!(
        drops_to_dst1 > 100,
        "drops should concentrate at the contested downlink, saw {drops_to_dst1}"
    );
}

#[test]
fn loss_rate_grows_with_offered_load() {
    // Miniature version of paper Figure 4: all-to-all, measure loss rate at
    // two load levels; the higher load must lose markedly more.
    let loss_at = |n_flows: u64, spacing_us: u64| {
        let (mut sim, hosts, _) = star_sim(8, 38, cfg_1g());
        for i in 0..n_flows {
            let src = hosts[(i % 7) as usize];
            let dst = hosts[7]; // common aggregator
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                src,
                dst,
                100_000,
                SimTime::from_micros(i * spacing_us),
            ));
        }
        sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
        sim.stats().data_loss_rate()
    };
    let light = loss_at(20, 900); // ~0.9 ms apart: mostly sequential
    let heavy = loss_at(60, 30); // near-simultaneous incast
    assert!(
        heavy > light + 0.05,
        "loss must grow with load: light={light:.3} heavy={heavy:.3}"
    );
    assert!(heavy > 0.10, "heavy load should lose >10%, got {heavy:.3}");
}

#[test]
fn probe_mode_recovers_a_starved_flow() {
    // A flow fully starved long enough to hit probe mode must still finish.
    let (mut sim, hosts, _) = star_sim(3, 12, cfg_1g());
    // Big high-priority (small-size-remaining wins; give the blocker many
    // small flows back to back) — simplest: one huge low-priority flow vs a
    // stream of small ones to the same destination.
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        400_000,
        SimTime::ZERO,
    ));
    for i in 0..40u64 {
        sim.add_flow(FlowSpec::new(
            FlowId(1 + i),
            hosts[1],
            hosts[2],
            30_000,
            SimTime::from_micros(i * 260),
        ));
    }
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let rec = sim.stats().flow(FlowId(0)).unwrap();
    assert!(rec.completed.is_some());
}

#[test]
fn deterministic_under_identical_config() {
    let run = || {
        let (mut sim, hosts, _) = star_sim(4, 38, cfg_1g());
        for i in 0..6u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                hosts[(i % 3) as usize],
                hosts[3],
                80_000 + i * 7_000,
                SimTime::from_micros(i * 50),
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
