//! End-to-end tests: DCTCP-family flows over a real simulated network.

use netsim::prelude::*;
use netsim::queue::{dctcp_mark_thresh, RedEcnQdisc};
use transport::Flavor;

/// Single-rack star: `n` hosts behind one switch, 1 Gbps, 25 us links.
fn star_sim(n: usize, flavor: Flavor, qcap: usize, k: usize) -> (Simulation, Vec<NodeId>) {
    let (net, hosts) = TopologySpec::intra_rack(n).build(transport::agents(flavor), &|_| {
        Box::new(RedEcnQdisc::new(qcap, k))
    });
    (Simulation::new(net), hosts)
}

#[test]
fn single_dctcp_flow_completes_with_sane_fct() {
    let (mut sim, hosts) = star_sim(2, Flavor::Dctcp, 225, 20);
    let size = 100_000;
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        size,
        SimTime::ZERO,
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let rec = sim.stats().flow(FlowId(0)).unwrap();
    let fct = rec.fct().unwrap();
    // Lower bound: pure serialization of ~100KB at 1 Gbps over two hops
    // plus propagation (~0.9 ms); upper bound: generous slow-start budget.
    assert!(
        fct > SimDuration::from_micros(800),
        "FCT implausibly low: {fct}"
    );
    assert!(
        fct < SimDuration::from_millis(10),
        "FCT implausibly high: {fct}"
    );
    assert_eq!(rec.timeouts, 0, "no timeouts expected on an idle network");
    assert_eq!(rec.drops, 0);
}

#[test]
fn dctcp_flow_is_deterministic() {
    let run = || {
        let (mut sim, hosts) = star_sim(4, Flavor::Dctcp, 225, 20);
        for i in 0..3u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                hosts[i as usize],
                hosts[3],
                50_000 + i * 10_000,
                SimTime::from_micros(i * 10),
            ));
        }
        sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
        sim.stats()
            .flows()
            .map(|r| r.fct().unwrap().as_nanos())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(),
        run(),
        "identical configs must give identical results"
    );
}

#[test]
fn competing_dctcp_flows_share_and_complete() {
    let (mut sim, hosts) = star_sim(3, Flavor::Dctcp, 225, 20);
    // Both senders target host 2: the receiver downlink is the bottleneck.
    let size = 500_000u64;
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        size,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        size,
        SimTime::ZERO,
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let f0 = sim.stats().flow(FlowId(0)).unwrap().fct().unwrap();
    let f1 = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
    // Fair sharing: both roughly double the solo time; neither starves.
    let ratio = f0.as_nanos() as f64 / f1.as_nanos() as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "DCTCP flows diverged: {f0} vs {f1}"
    );
    // Together they needed at least 2*size/rate = 8 ms.
    assert!(f0.max(f1) > SimDuration::from_millis(8));
}

#[test]
fn dctcp_keeps_queues_bounded_by_ecn() {
    let (mut sim, hosts) = star_sim(3, Flavor::Dctcp, 225, 20);
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
        2_000_000,
        SimTime::ZERO,
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    // With K=20 and a 225-packet buffer, ECN should prevent all drops.
    assert_eq!(
        sim.stats().data_pkts_dropped,
        0,
        "DCTCP should not overflow"
    );
    // And marks must actually have happened (the queue did congest).
    let netsim::node::Node::Switch(sw) = sim.node(NodeId(0)) else {
        panic!("node 0 is the switch");
    };
    let marked: u64 = sw.ports().iter().map(|p| p.qdisc_stats().marked_pkts).sum();
    assert!(marked > 0, "expected ECN marks under congestion");
}

#[test]
fn reno_survives_drop_tail_losses() {
    // Tiny queue to force real drops; Reno must still complete via fast
    // retransmit / RTO.
    let (net, hosts) = TopologySpec::intra_rack(3).build(transport::agents(Flavor::Reno), &|_| {
        Box::new(DropTailQdisc::new(8))
    });
    let mut sim = Simulation::new(net);
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        400_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        400_000,
        SimTime::ZERO,
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    assert!(
        sim.stats().data_pkts_dropped > 0,
        "test should actually exercise loss"
    );
}

#[test]
fn d2tcp_and_l2dct_complete() {
    for flavor in [Flavor::D2tcp, Flavor::L2dct] {
        let (mut sim, hosts) = star_sim(4, flavor, 225, 20);
        for i in 0..3u64 {
            sim.add_flow(
                FlowSpec::new(
                    FlowId(i),
                    hosts[i as usize],
                    hosts[3],
                    200_000,
                    SimTime::ZERO,
                )
                .with_deadline(SimDuration::from_millis(20)),
            );
        }
        let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
        assert_eq!(outcome, RunOutcome::MeasuredComplete);
    }
}

#[test]
fn l2dct_prefers_short_flows_over_long() {
    // One long flow started first, one short flow arriving later. Under
    // L2DCT the short flow should finish in a small multiple of its ideal
    // time despite the long flow, because the long flow's weight decays.
    let (mut sim, hosts) = star_sim(3, Flavor::L2dct, 225, 20);
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        10_000_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        50_000,
        SimTime::from_millis(20),
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    let short = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
    assert!(
        short < SimDuration::from_millis(15),
        "short flow under L2DCT took {short}"
    );
}

#[test]
fn background_flow_does_not_block_termination() {
    let (mut sim, hosts) = star_sim(3, Flavor::Dctcp, 225, 20);
    sim.add_flow(FlowSpec::background(
        FlowId(0),
        hosts[0],
        hosts[2],
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        100_000,
        SimTime::from_millis(1),
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    assert!(sim.stats().flow(FlowId(1)).unwrap().completed.is_some());
    assert!(sim.stats().flow(FlowId(0)).unwrap().completed.is_none());
}

#[test]
fn cross_rack_flow_traverses_tree() {
    // host - tor - agg - tor - host with 10G core links.
    let mut b = TopologyBuilder::new();
    let tor0 = b.add_switch();
    let tor1 = b.add_switch();
    let agg = b.add_switch();
    let h0 = b.add_host();
    let h1 = b.add_host();
    b.connect(h0, tor0, Rate::from_gbps(1), SimDuration::from_micros(25));
    b.connect(h1, tor1, Rate::from_gbps(1), SimDuration::from_micros(25));
    b.connect(tor0, agg, Rate::from_gbps(10), SimDuration::from_micros(25));
    b.connect(tor1, agg, Rate::from_gbps(10), SimDuration::from_micros(25));
    let net = b.build(transport::agents(Flavor::Dctcp), &|spec| {
        Box::new(RedEcnQdisc::new(225, dctcp_mark_thresh(spec.rate)))
    });
    let mut sim = Simulation::new(net);
    sim.add_flow(FlowSpec::new(FlowId(0), h0, h1, 300_000, SimTime::ZERO));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    // Sanity: the flow actually crossed the aggregation switch.
    let netsim::node::Node::Switch(aggsw) = sim.node(agg) else {
        panic!()
    };
    assert!(aggsw.ports().iter().map(|p| p.tx_pkts).sum::<u64>() > 200);
}
