//! CI smoke for the production-scale fat-tree path: build the k=8
//! fabric (128 hosts) under PASE, check the compact route tables, run a
//! 2k-flow incast slice with invariants enabled under the dual-run
//! byte-identical-trace discipline, hold its fingerprint to pinned
//! constants and the process to a peak-RSS budget; then build — only
//! build — the k=32 fabric (8192 hosts) under PASE and check its route
//! tables and arbitration tree against the fat-tree's coordinates, under
//! a budget of its own.
//!
//! Everything here is an assertion, not a measurement: the binary exits
//! non-zero on any violation, so `scripts/ci.sh` can run it directly.

use netsim::engine::WheelStats;
use netsim::node::Node;
use netsim::prelude::*;
use netsim::topology::NodeKind;
use netsim::trace::HashTracer;
use pase::tree::{Level, TreeInfo};
use std::time::Instant;
use workloads::runner::backstop_warning;
use workloads::{
    fat_tree_ports_toward, Pattern, RunSpec, Scenario, Scheme, SizeDist, TopologySpec,
};

/// Peak-RSS ceiling for the whole smoke (two k=8 builds + runs). The
/// smoke peaks at 6 MiB (compact FIBs, qdisc rings that start empty, one
/// queued RTO event per flow); the budget leaves ~3x headroom for
/// allocator and toolchain noise while still catching a return to dense
/// per-switch route tables, per-flow metric vectors, or any pre-touched
/// per-port allocation (pre-sized rings alone took this smoke to 30 MiB:
/// 768 ports x 8 bands).
const PEAK_RSS_BUDGET: u64 = 20 * 1024 * 1024;

/// Ceiling on the scheduler's peak pending-event count. The count is
/// deterministic and peaks at 2,114 here: packets on the wire plus one
/// queued RTO event per live flow (2,306 while every host also queued a
/// lease-GC tick). One per *data packet* in flight or
/// acknowledged within the last RTO (the eager idiom [`netsim::timer`]
/// replaced) peaked at 8,348.
const PEAK_PENDING_BUDGET: usize = 3_000;

/// The k=8 incast's fingerprint: trace digest, data packets delivered
/// and events executed. The fabric is multi-rooted and runs PASE, so this
/// is CI's identity check for the model at scale: a change that means to
/// move it updates all three on purpose and says why. The incast's
/// bottleneck is the server's access link, so how the fabric's tiers are
/// arbitrated moves the digest but not the counts. A flow stalled on its
/// RTO backing off its refresh (DESIGN §7b.12) moved the digest and the
/// events (4 133 353 → 4 131 919), not the packets delivered. A hop
/// taking its places in the tie order when serialization begins, and
/// writing its `Tx` trace line then, moved the digest alone; a port
/// queueing its completion only when a packet waits behind it moved the
/// events alone (4 131 919 → 2 460 703).
const PINNED: (u64, u64, u64) = (0x6745_d0a5_af8d_a63b, 140_517, 2_460_703);

/// Route-table audit: every switch carries a compact interval FIB
/// covering the whole fabric in far fewer intervals than nodes.
fn audit_fibs(sim: &Simulation) {
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
}

/// One traced, invariant-checked incast run; returns the trace digest,
/// the delivered-packet count, the peak pending-event count, the event
/// count and the wheel's counters.
fn run_once(scenario: &Scenario, seed: u64) -> (u64, u64, usize, u64, WheelStats) {
    let spec = RunSpec {
        backstop_s: 60,
        ..RunSpec::new(Scheme::Pase, *scenario, 0.6, seed)
    };
    let tracer = HashTracer::new();
    let digest = tracer.digest();
    let (m, sim) = spec.run_with(|sim, _, _| {
        audit_fibs(sim);
        sim.set_tracer(Box::new(tracer));
    });
    let d = *digest.lock().unwrap();
    // The run must complete with the invariant oracle (packet
    // conservation included) clean.
    if let Some(w) = backstop_warning(&spec, &m) {
        panic!("smoke incast: {w}");
    }
    let incomplete = sim
        .stats()
        .flows()
        .filter(|r| r.completed.is_none())
        .count();
    assert_eq!(incomplete, 0, "every smoke flow must complete");

    let delivered = sim.stats().data_pkts_delivered;
    let peak_pending = sim.scheduler().peak_pending();
    (d, delivered, peak_pending, m.events, m.wheel)
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
    let started = Instant::now();
    let (sim, hosts) = Scheme::Pase.build_sim(&TopologySpec::fat_tree(k));
    let build_s = started.elapsed().as_secs_f64();
    let switches = sim.topo().switches();
    assert_eq!(hosts.len(), k * k * k / 4);
    assert_eq!(switches.len(), k * k / 4 + k * k, "cores + aggs + ToRs");

    // Every switch's route table toward every host against coordinates,
    // and the arbitration tree PASE was wired with: every tier present
    // in full, every child under a parent one tier up, and every virtual
    // uplink the sum of the switch's links one tier up.
    let tree = TreeInfo::from_topology(sim.topo());
    let mut census = [0usize; 3];
    for &id in &switches {
        let Node::Switch(sw) = &sim.nodes()[id.index()] else {
            panic!("{id} is not a switch");
        };
        assert!(sw.fib().intervals() < sim.topo().n_nodes() / 2);
        for &h in &hosts {
            assert_eq!(
                sw.fib().entry(h),
                fat_tree_ports_toward(k, id, h),
                "k=32 switch {id} toward host {h}"
            );
        }
        let level = tree.level(id);
        census[level as usize] += 1;
        let parent_level = tree.parent(id).map(|p| tree.level(p));
        let want = match level {
            Level::Tor => Some(Level::Agg),
            Level::Agg => Some(Level::Core),
            Level::Core => None,
        };
        assert_eq!(parent_level, want, "k=32 switch {id} ({level:?})");
        let upper_sum = sim
            .topo()
            .neighbors(id)
            .into_iter()
            .filter(|&(_, peer, _, _)| sim.topo().kind(peer) == NodeKind::Switch)
            .filter(|&(_, peer, _, _)| Some(tree.level(peer)) == want)
            .fold(Rate::ZERO, |sum, (.., rate, _)| sum + rate);
        let uplink = tree.uplink_rate(id).unwrap_or(Rate::ZERO);
        assert_eq!(uplink, upper_sum, "k=32 switch {id} ({level:?}) uplink");
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
        "scale_smoke: OK — k=32 built under PASE in {build_s:.2} s: {} switches, {} hosts, \
         every FIB matches coordinates and every uplink its upper links, peak RSS {:.1} MiB (budget {} MiB)",
        switches.len(),
        hosts.len(),
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
    assert_eq!(
        (d1, delivered1, events),
        PINNED,
        "k=8 fingerprint (digest, delivered, events) moved: the model changed"
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
