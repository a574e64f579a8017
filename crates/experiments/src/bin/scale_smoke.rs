//! CI smoke for the production-scale fat-tree path: build the k=8
//! fabric (128 hosts) under PASE, check the compact route tables, run a
//! 2k-flow incast slice with invariants enabled under the dual-run
//! byte-identical-trace discipline, and hold the process to a peak-RSS
//! budget; then build — only build — the k=32 fabric (8192 hosts) under
//! PASE and check its route tables and arbitration tree against the
//! fat-tree's coordinates, under a budget of its own.
//!
//! Everything here is an assertion, not a measurement: the binary exits
//! non-zero on any violation, so `scripts/ci.sh` can run it directly.

use netsim::engine::WheelStats;
use netsim::invariants::InvariantConfig;
use netsim::node::Node;
use netsim::prelude::*;
use netsim::trace::HashTracer;
use pase::tree::{Level, TreeInfo};
use workloads::{fat_tree_ports_toward, Pattern, Scenario, Scheme, SizeDist, TopologySpec};

/// Peak-RSS ceiling for the whole smoke (two k=8 builds + runs). The
/// smoke peaks at 6 MiB (compact FIBs, qdisc rings that start empty, one
/// queued RTO event per flow); the budget leaves ~3x headroom for
/// allocator and toolchain noise while still catching a return to dense
/// per-switch route tables, per-flow metric vectors, or any pre-touched
/// per-port allocation (pre-sized rings alone took this smoke to 30 MiB:
/// 768 ports x 8 bands).
const PEAK_RSS_BUDGET: u64 = 20 * 1024 * 1024;

/// Ceiling on the scheduler's peak pending-event count. The count is
/// deterministic and peaks at 2,306 here: packets on the wire plus one
/// queued RTO event per live flow. One per *data packet* in flight or
/// acknowledged within the last RTO (the eager idiom [`netsim::timer`]
/// replaced) peaked at 8,348.
const PEAK_PENDING_BUDGET: usize = 3_000;

/// One traced, invariant-checked incast run; returns the trace digest,
/// the delivered-packet count, the peak pending-event count, the event
/// count and the wheel's counters.
fn run_once(scenario: &Scenario, seed: u64) -> (u64, u64, usize, u64, WheelStats) {
    let (mut sim, hosts) = Scheme::Pase.build_sim(&scenario.topo);

    // Route-table audit: every switch carries a compact interval FIB
    // covering the whole fabric in far fewer intervals than nodes.
    let n_nodes = sim.topo().n_nodes();
    let mut fib_bytes = 0usize;
    let mut switches = 0usize;
    for node in sim.nodes() {
        if let Node::Switch(sw) = node {
            switches += 1;
            fib_bytes += sw.fib().heap_bytes();
            assert!(
                sw.fib().intervals() < n_nodes / 2,
                "switch {:?}: {} FIB intervals for {} nodes — interval encoding broken",
                sw.id(),
                sw.fib().intervals(),
                n_nodes
            );
        }
    }
    assert_eq!(switches, 80, "k=8 fat-tree must have 16+32+32 switches");
    eprintln!(
        "scale_smoke: {} switches, {} nodes, {:.1} KiB total FIB",
        switches,
        n_nodes,
        fib_bytes as f64 / 1024.0
    );

    sim.enable_invariants(InvariantConfig::default());
    let tracer = HashTracer::new();
    let digest = tracer.digest();
    sim.set_tracer(Box::new(tracer));
    sim.add_flows(scenario.generate_flows(0.6, seed, &hosts));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(60)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "smoke incast must complete"
    );

    // Invariant oracle (packet conservation included) must be clean.
    let report = sim.check_invariants();
    assert!(
        report.violations.is_empty(),
        "invariant violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let incomplete = sim
        .stats()
        .flows()
        .filter(|r| r.completed.is_none())
        .count();
    assert_eq!(incomplete, 0, "every smoke flow must complete");

    let delivered = sim.stats().data_pkts_delivered;
    let peak_pending = sim.scheduler().peak_pending();
    let wheel = sim.scheduler().wheel_stats();
    let events = sim.stats().events_executed;
    drop(sim); // flush the tracer
    let d = *digest.lock().unwrap();
    (d, delivered, peak_pending, events, wheel)
}

/// Peak-RSS ceiling once the k=32 fabric has been built: 1,280 switches,
/// 9,472 nodes, 49,152 ports with inline (empty) queues. The build peaks
/// at 40 MiB; a dense route table (10M entries) or a per-port allocation
/// touched at build time goes beyond the 1.5x headroom.
const K32_PEAK_RSS_BUDGET: u64 = 60 * 1024 * 1024;

/// Build-only k=32 stage: no flows, no events — the structures
/// themselves are the subject.
fn build_k32() {
    let k = 32;
    let (sim, hosts) = Scheme::Pase.build_sim(&TopologySpec::fat_tree(k));
    let switches = sim.topo().switches();
    assert_eq!(hosts.len(), k * k * k / 4);
    assert_eq!(switches.len(), k * k / 4 + k * k, "cores + aggs + ToRs");

    // Route tables against coordinates, on a sample of switches that
    // takes in all three tiers (every 17th of 256 + 32 x (16 + 16)).
    let tier = |level| match level {
        Level::Tor => 0,
        Level::Agg => 1,
        Level::Core => 2,
    };
    let mut sampled = [0usize; 3];
    let tree = TreeInfo::from_topology(sim.topo());
    for &id in switches.iter().step_by(17) {
        let Node::Switch(sw) = &sim.nodes()[id.index()] else {
            panic!("{id} is not a switch");
        };
        sampled[tier(tree.level(id))] += 1;
        assert!(sw.fib().intervals() < sim.topo().n_nodes() / 2);
        for &h in &hosts {
            assert_eq!(
                sw.fib().entry(h),
                fat_tree_ports_toward(k, id, h),
                "k=32 switch {id} toward host {h}"
            );
        }
    }
    assert!(
        sampled.iter().all(|&n| n >= 10),
        "tiers sampled: {sampled:?}"
    );

    // The arbitration tree PASE was wired with: every tier present in
    // full, every child under a parent one tier up.
    let mut census = [0usize; 3];
    for &id in &switches {
        let level = tree.level(id);
        census[tier(level)] += 1;
        let parent_level = tree.parent(id).map(|p| tree.level(p));
        let want = match level {
            Level::Tor => Some(Level::Agg),
            Level::Agg => Some(Level::Core),
            Level::Core => None,
        };
        assert_eq!(parent_level, want, "k=32 switch {id} ({level:?})");
    }
    assert_eq!(
        census,
        [k * k / 2, k * k / 2, k * k / 4],
        "ToRs, aggs, cores"
    );
    for (i, &h) in hosts.iter().enumerate() {
        assert_eq!(tree.tor_of(h), tree.tor_of(hosts[i - i % (k / 2)]));
    }

    let rss = workloads::read_peak_rss();
    assert!(
        rss == 0 || rss <= K32_PEAK_RSS_BUDGET,
        "k=32 build: peak RSS {} MiB exceeds the {} MiB budget",
        rss / (1024 * 1024),
        K32_PEAK_RSS_BUDGET / (1024 * 1024)
    );
    eprintln!(
        "scale_smoke: OK — k=32 built under PASE: {} switches, {} hosts, FIBs of {:?} \
         sampled (ToR, agg, core) switches match coordinates, peak RSS {:.1} MiB (budget {} MiB)",
        switches.len(),
        hosts.len(),
        sampled,
        rss as f64 / (1024.0 * 1024.0),
        K32_PEAK_RSS_BUDGET / (1024 * 1024)
    );
}

fn main() {
    // Two serial runs by construction — parallelism would only blur the
    // peak-RSS attribution — so there is nothing to configure.
    assert_eq!(std::env::args().len(), 1, "scale_smoke takes no arguments");
    let scenario = Scenario {
        name: "scale-smoke",
        topo: TopologySpec::fat_tree(8),
        pattern: Pattern::Incast { server: 0 },
        sizes: SizeDist::UniformBytes {
            lo: 2_000,
            hi: 198_000,
        },
        deadlines: None,
        n_background: 0,
        n_flows: 2_000,
    };

    let first = run_once(&scenario, 1);
    let (d1, delivered1, peak_pending, events, wheel) = first;
    assert_eq!(
        first,
        run_once(&scenario, 1),
        "dual-run trace digests diverged — determinism regression"
    );
    assert!(
        peak_pending <= PEAK_PENDING_BUDGET,
        "peak pending events {peak_pending} exceed the smoke bound {PEAK_PENDING_BUDGET}"
    );

    let rss = workloads::read_peak_rss();
    assert!(
        rss == 0 || rss <= PEAK_RSS_BUDGET,
        "peak RSS {} MiB exceeds the {} MiB smoke budget",
        rss / (1024 * 1024),
        PEAK_RSS_BUDGET / (1024 * 1024)
    );
    eprintln!(
        "scale_smoke: OK — 2000-flow incast on k=8 twice, digest {d1:#018x}, \
         {delivered1} pkts delivered, peak pending {peak_pending} events (bound \
         {PEAK_PENDING_BUDGET}), peak RSS {:.1} MiB (budget {} MiB)",
        rss as f64 / (1024.0 * 1024.0),
        PEAK_RSS_BUDGET / (1024 * 1024)
    );

    eprintln!(
        "scale_smoke: {events} events; wheel {} pours (largest {} events), {} refiled, \
         {} filed below the horizon, {} promoted from overflow",
        wheel.pours,
        wheel.max_pour,
        wheel.refiled,
        wheel.filed_below_horizon,
        wheel.overflow_promoted
    );

    // Last, so the k=8 budget above is not measured against its peak.
    build_k32();
}
