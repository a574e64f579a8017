//! CI smoke for the production-scale fat-tree path: build the k=8
//! fabric (128 hosts) under PASE, check the compact route tables, run a
//! 2k-flow incast slice with invariants enabled under the dual-run
//! byte-identical-trace discipline, and hold the process to a peak-RSS
//! budget.
//!
//! Everything here is an assertion, not a measurement: the binary exits
//! non-zero on any violation, so `scripts/ci.sh` can run it directly.

use netsim::invariants::InvariantConfig;
use netsim::node::Node;
use netsim::prelude::*;
use netsim::trace::HashTracer;
use workloads::{Pattern, Scenario, Scheme, SizeDist, TopologySpec};

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
/// the delivered-packet count and the peak pending-event count.
fn run_once(scenario: &Scenario, seed: u64) -> (u64, u64, usize) {
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
    drop(sim); // flush the tracer
    let d = *digest.lock().unwrap();
    (d, delivered, peak_pending)
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

    let (d1, delivered1, peak_pending) = run_once(&scenario, 1);
    assert_eq!(
        (d1, delivered1, peak_pending),
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
}
