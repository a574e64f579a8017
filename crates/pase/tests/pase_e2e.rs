//! End-to-end PASE behaviour: intra-rack, inter-rack, optimizations.

use netsim::prelude::*;
use netsim::queue::dctcp_mark_thresh;
use pase::{install, pase_qdisc, Leg, PaseConfig};

fn cfg_intra() -> PaseConfig {
    PaseConfig {
        base_rtt: SimDuration::from_micros(100),
        arb_refresh: SimDuration::from_micros(100),
        ..PaseConfig::default()
    }
}

/// Single rack of `n` hosts.
fn star_sim(n: usize, cfg: PaseConfig) -> (Simulation, Vec<NodeId>) {
    let (net, hosts) = TopologySpec::intra_rack(n)
        .build(pase::agents(cfg), &|_| Box::new(pase_qdisc(&cfg, 250, 20)));
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    (sim, hosts)
}

/// The paper's 3-tier baseline, scaled down: `per_rack` hosts × 4 racks,
/// 2 aggs, 1 core; 1 Gbps access, 10 Gbps up.
fn three_tier_sim(per_rack: usize, cfg: PaseConfig) -> (Simulation, Vec<NodeId>) {
    let (net, hosts) = TopologySpec::small_three_tier(per_rack).build(pase::agents(cfg), &|spec| {
        Box::new(pase_qdisc(&cfg, 500, dctcp_mark_thresh(spec.rate)))
    });
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    (sim, hosts)
}

#[test]
fn solo_intra_rack_flow_starts_at_reference_rate() {
    let (mut sim, hosts) = star_sim(2, cfg_intra());
    let size = 100_000u64;
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
    // No slow start: ~0.85 ms serialization + ~0.1 ms RTT. DCTCP takes
    // several RTTs more (see the transport crate's e2e tests).
    assert!(
        fct < SimDuration::from_micros(1600),
        "PASE solo FCT should be near-ideal, got {fct}"
    );
}

#[test]
fn short_flow_preempts_long_via_priority_queues() {
    let (mut sim, hosts) = star_sim(3, cfg_intra());
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
        50_000,
        SimTime::from_millis(10),
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    let short = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
    assert!(
        short < SimDuration::from_millis(2),
        "short flow should preempt: {short}"
    );
    // Work conservation: the long flow still finishes reasonably.
    let long = sim.stats().flow(FlowId(0)).unwrap().fct().unwrap();
    assert!(long < SimDuration::from_millis(60), "long flow FCT {long}");
}

#[test]
fn srpt_ordering_across_many_flows() {
    // Flows of distinct sizes to a common receiver, all starting together:
    // completion order must follow size order (SRPT).
    let (mut sim, hosts) = star_sim(6, cfg_intra());
    let sizes = [400_000u64, 100_000, 300_000, 50_000, 200_000];
    for (i, &s) in sizes.iter().enumerate() {
        sim.add_flow(FlowSpec::new(
            FlowId(i as u64),
            hosts[i],
            hosts[5],
            s,
            SimTime::ZERO,
        ));
    }
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    let mut completions: Vec<(u64, u64)> = sim
        .stats()
        .flows()
        .map(|r| (r.completed.unwrap().as_nanos(), r.spec.size))
        .collect();
    completions.sort();
    let order: Vec<u64> = completions.iter().map(|&(_, s)| s).collect();
    assert_eq!(
        order,
        vec![50_000, 100_000, 200_000, 300_000, 400_000],
        "completion order should follow SRPT"
    );
}

#[test]
fn inter_rack_flow_uses_network_arbitration() {
    let (mut sim, hosts) = three_tier_sim(3, PaseConfig::default());
    // hosts[0] is in rack 0; hosts[9] in rack 3 (across the core).
    let src = hosts[0];
    let dst = hosts[9];
    sim.add_flow(FlowSpec::new(FlowId(0), src, dst, 200_000, SimTime::ZERO));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(2)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    // Arbitration messages must have flowed.
    assert!(sim.stats().ctrl_pkts > 0, "control plane must be exercised");
    assert!(sim.stats().ctrl_msgs_processed > 0);
    let fct = sim.stats().flow(FlowId(0)).unwrap().fct().unwrap();
    assert!(fct < SimDuration::from_millis(4), "inter-rack FCT {fct}");
}

#[test]
fn intra_rack_flows_do_not_use_the_network_control_plane() {
    // Paper §3.1.2: intra-rack arbitration is endpoint-only.
    let (mut sim, hosts) = three_tier_sim(3, PaseConfig::default());
    // Both endpoints in rack 0.
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        200_000,
        SimTime::ZERO,
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(2)));
    // The only control packets are the receiver-leg request/response and
    // FlowDone between the two hosts (plus delegation heartbeats): no
    // requests should reach the ToR/agg arbitrators as *arbitration* load.
    // We check that the ToR tracked no flows.
    let tor = sim.topo().host_tor(hosts[0]);
    let process = sim.node_mut(tor).process_as::<pase::ArbProcess>();
    let process = process.expect("process installed");
    for leg in [Leg::Sender, Leg::Receiver] {
        let [own, _] = process.leg_arbitrators(leg);
        assert_eq!(own.expect("the ToR arbitrates its uplink").n_flows(), 0);
    }
}

#[test]
fn all_to_all_contention_completes_with_low_loss() {
    let (mut sim, hosts) = star_sim(8, cfg_intra());
    // 24 flows, random-ish pattern, overlapping in time.
    for i in 0..24u64 {
        let src = (i % 7) as usize;
        let dst = ((i + 3) % 8) as usize;
        let dst = if dst == src { 7 } else { dst };
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[src],
            hosts[dst],
            30_000 + 13_000 * (i % 9),
            SimTime::from_micros(i * 53),
        ));
    }
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let loss = sim.stats().data_loss_rate();
    assert!(loss < 0.02, "PASE should keep loss low, got {loss:.4}");
}

#[test]
fn optimizations_reduce_control_overhead() {
    // Left-right traffic across the core, with and without pruning +
    // delegation (paper Fig. 11b).
    let run = |cfg: PaseConfig| {
        let (mut sim, hosts) = three_tier_sim(4, cfg);
        // Left subtree: racks 0-1 (hosts 0..8); right: racks 2-3 (8..16).
        for i in 0..30u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                hosts[(i % 8) as usize],
                hosts[8 + (i % 8) as usize],
                40_000 + 9_000 * (i % 7),
                SimTime::from_micros(i * 80),
            ));
        }
        sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
        assert_eq!(
            sim.stats().completed_measured(),
            30,
            "all flows must finish"
        );
        sim.stats().ctrl_pkts
    };
    let with_opts = run(PaseConfig::default());
    let without = run(PaseConfig::default().without_optimizations());
    assert!(
        with_opts < without,
        "pruning+delegation must reduce control packets: {with_opts} vs {without}"
    );
}

#[test]
fn end_to_end_beats_local_only_off_the_access_links() {
    // Contention at the receiver downlink, senders on different hosts:
    // local-only arbitration cannot see it (paper Fig. 12a).
    let run = |cfg: PaseConfig| {
        let (mut sim, hosts) = star_sim(5, cfg);
        for i in 0..8u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                hosts[(i % 4) as usize],
                hosts[4],
                120_000,
                SimTime::from_micros(i * 10),
            ));
        }
        sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
        let total: u64 = sim
            .stats()
            .flows()
            .map(|r| r.fct().unwrap().as_nanos())
            .sum();
        total as f64 / 8.0 / 1e6 // AFCT ms
    };
    let e2e = run(cfg_intra());
    let local = run(cfg_intra().local_only());
    assert!(
        e2e < local,
        "end-to-end arbitration should win: {e2e:.3} ms vs {local:.3} ms"
    );
}

#[test]
fn deterministic_runs() {
    let run = || {
        let (mut sim, hosts) = three_tier_sim(3, PaseConfig::default());
        for i in 0..12u64 {
            sim.add_flow(FlowSpec::new(
                FlowId(i),
                hosts[(i % 6) as usize],
                hosts[6 + (i % 6) as usize],
                25_000 + i * 8_000,
                SimTime::from_micros(i * 91),
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
fn background_flows_ride_the_lowest_queue() {
    let (mut sim, hosts) = star_sim(3, cfg_intra());
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
        SimTime::from_millis(5),
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let fct = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
    // The background flow must not delay the foreground flow much.
    assert!(
        fct < SimDuration::from_millis(2),
        "foreground flow should cut through background traffic: {fct}"
    );
}

#[test]
fn delegation_rebalances_toward_the_busy_rack() {
    // All cross-core traffic originates in rack 0; after a few delegation
    // periods rack 0's ToR should own (almost) the whole agg-core uplink
    // slice while its idle sibling keeps only the minimum share.
    let cfg = PaseConfig::default();
    let (mut sim, hosts) = three_tier_sim(3, cfg);
    // Rack 0 = hosts 0..3, rack 1 = 3..6 (same agg); racks 2,3 across the
    // core. Send sustained traffic rack0 -> rack3.
    for i in 0..12u64 {
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[(i % 3) as usize],
            hosts[9 + (i % 3) as usize],
            400_000,
            SimTime::from_micros(i * 40),
        ));
    }
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
    let tor0 = sim.topo().host_tor(hosts[0]);
    let tor1 = sim.topo().host_tor(hosts[3]);
    let cap0 = {
        let [_, slice] = sim
            .node_mut(tor0)
            .process_as::<pase::ArbProcess>()
            .unwrap()
            .leg_arbitrators(Leg::Sender);
        slice.expect("tor0 has a delegated slice").capacity()
    };
    let cap1 = {
        let [_, slice] = sim
            .node_mut(tor1)
            .process_as::<pase::ArbProcess>()
            .unwrap()
            .leg_arbitrators(Leg::Sender);
        slice.expect("tor1 has a delegated slice").capacity()
    };
    assert!(
        cap0.as_bps() > 2 * cap1.as_bps(),
        "busy rack should own most of the delegated capacity: {cap0} vs {cap1}"
    );
}

#[test]
fn task_aware_scheduling_serializes_tasks() {
    // Two partition-aggregate tasks to the same aggregator, the older one
    // with *larger* flows. Under SRPT the younger task's small flows would
    // cut in; under task-aware arbitration the older task finishes first.
    let run = |criterion: pase::Criterion| {
        let mut cfg = cfg_intra();
        cfg.criterion = criterion;
        let (mut sim, hosts) = star_sim(5, cfg);
        let mut id = 0u64;
        // Task 0 (older): big flows from hosts 0-1.
        for w in 0..2 {
            sim.add_flow(
                FlowSpec::new(FlowId(id), hosts[w], hosts[4], 400_000, SimTime::ZERO).with_task(0),
            );
            id += 1;
        }
        // Task 1 (younger): small flows from hosts 2-3, arriving just after.
        for w in 2..4 {
            sim.add_flow(
                FlowSpec::new(
                    FlowId(id),
                    hosts[w],
                    hosts[4],
                    60_000,
                    SimTime::from_micros(200),
                )
                .with_task(1),
            );
            id += 1;
        }
        sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
        // Task completion time = last flow of the task.
        let task_done = |task: u64| {
            sim.stats()
                .flows()
                .filter(|r| r.spec.task == Some(task))
                .map(|r| r.completed.unwrap().as_nanos())
                .max()
                .unwrap()
        };
        (task_done(0), task_done(1))
    };
    let (srpt_t0, _) = run(pase::Criterion::SrptSize);
    let (task_t0, task_t1) = run(pase::Criterion::TaskAware);
    // Task-aware must finish the older task earlier than SRPT does
    // (SRPT lets the younger task's small flows preempt).
    assert!(
        task_t0 < srpt_t0,
        "task-aware should finish task 0 sooner: {task_t0} vs {srpt_t0}"
    );
    // And the older task completes before the younger one.
    assert!(task_t0 < task_t1);
}

#[test]
fn tree_extraction_handles_multi_rooted_fabrics() {
    // A 2-spine leaf-spine: TreeInfo should classify leaves as ToRs,
    // spines as aggs, arbitrate each leaf's two spine links as one
    // uplink, and spread the leaves' parents over the spines.
    use pase::{Level, TreeInfo};
    let fabric = TopologySpec::LeafSpine {
        leaves: 3,
        hosts_per_leaf: 1,
        spines: 2,
        access: Rate::from_gbps(1),
        fabric: Rate::from_gbps(10),
        link_delay: SimDuration::from_micros(25),
    };
    let cfg = PaseConfig::default();
    let (net, hosts) = fabric.build(pase::agents(cfg), &|_| Box::new(pase_qdisc(&cfg, 100, 20)));
    // The recipe adds the spines first.
    let spines = [NodeId(0), NodeId(1)];
    let tree = TreeInfo::from_topology(&net.topo);
    let leaves = hosts.iter().map(|&h| tree.tor_of(h));
    for (rank, l) in leaves.enumerate() {
        assert_eq!(tree.level(l), Level::Tor);
        assert_eq!(tree.uplink_rate(l), Some(Rate::from_gbps(20)));
        // The leaf's rank among leaves with the same spines, modulo 2.
        assert_eq!(tree.parent(l), Some(spines[rank % 2]));
    }
    assert_eq!(tree.level(spines[0]), Level::Agg);
    assert_eq!(tree.level(spines[1]), Level::Agg);
    assert!(!tree.same_rack(hosts[0], hosts[1]));
    assert!(
        tree.same_agg_subtree(hosts[0], hosts[1]),
        "one shared set of spines"
    );
}
