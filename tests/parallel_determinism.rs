//! Tier-1 determinism contract for the parallel case-execution engine
//! (`workloads::exec`): running any sweep with more worker threads must
//! produce **bitwise-identical** output to the sequential run. Two
//! probes, both at quick scale:
//!
//! 1. a figure sweep (real schemes × loads through the `RunSpec` path),
//!    compared series-for-series with `f64::to_bits` — not approximate
//!    equality; and
//! 2. an 8-case chaos slice (2 schemes × 2 fault classes × 2 seeds),
//!    compared on the trace and stats FNV fingerprints each case
//!    produces.
//!
//! jobs=4 on this container oversubscribes the CPU, which is exactly the
//! stress we want: determinism must come from the ordered result slots,
//! not from scheduling luck.

use experiments::chaos::{self, ChaosOpts, FaultClass};
use experiments::figs;
use experiments::report::FigResult;
use experiments::ExpOpts;
use netsim::chaos::ChaosIntensity;
use workloads::Scheme;

fn tiny(jobs: usize) -> ExpOpts {
    ExpOpts {
        flows: 40,
        loads: vec![0.3, 0.7],
        hosts_per_rack: 4,
        quick: true,
        jobs,
        ..ExpOpts::quick()
    }
}

/// Assert two figure results are bitwise identical: same x grid, same
/// series in the same order, every y the same bit pattern, same notes
/// (backstop warnings must not reorder under parallelism either).
fn assert_bitwise_identical(a: &FigResult, b: &FigResult) {
    assert_eq!(a.id, b.id);
    assert_eq!(a.xs.len(), b.xs.len(), "{}: x grid differs", a.id);
    for (x1, x2) in a.xs.iter().zip(&b.xs) {
        assert_eq!(x1.to_bits(), x2.to_bits(), "{}: x grid differs", a.id);
    }
    assert_eq!(a.series.len(), b.series.len(), "{}: series count", a.id);
    for (s1, s2) in a.series.iter().zip(&b.series) {
        assert_eq!(s1.name, s2.name, "{}: series order differs", a.id);
        assert_eq!(s1.ys.len(), s2.ys.len(), "{}/{}", a.id, s1.name);
        for (i, (y1, y2)) in s1.ys.iter().zip(&s2.ys).enumerate() {
            assert_eq!(
                y1.to_bits(),
                y2.to_bits(),
                "{}/{} point {}: {} (jobs=1) != {} (jobs=4)",
                a.id,
                s1.name,
                i,
                y1,
                y2
            );
        }
    }
    assert_eq!(a.notes, b.notes, "{}: notes differ", a.id);
}

#[test]
fn figure_sweep_is_bitwise_identical_across_job_counts() {
    // fig02 runs the full scheme grid through the row driver; ext_incast
    // runs its own scheme × fan-in case list; fig03 runs the 2-case toy.
    let run = |jobs| {
        let only = ["fig02", "ext_incast", "fig03"].map(String::from).to_vec();
        figs::all(&ExpOpts { only, ..tiny(jobs) })
    };
    let (sequential, parallel) = (run(1), run(4));
    assert_eq!(sequential.len(), 3);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_bitwise_identical(s, p);
    }
}

fn chaos_slice(jobs: usize) -> ChaosOpts {
    ChaosOpts {
        seeds: vec![0, 1],
        schemes: vec![Scheme::Pase, Scheme::Dctcp],
        intensities: vec![ChaosIntensity::High],
        fault_classes: vec![FaultClass::Fabric, FaultClass::Host],
        quick: true,
        verbose: false,
        jobs,
    }
}

#[test]
fn chaos_sweep_fingerprints_are_identical_across_job_counts() {
    let sequential = chaos::sweep(&chaos_slice(1));
    let parallel = chaos::sweep(&chaos_slice(4));
    assert_eq!(
        sequential.len(),
        8,
        "slice is 2 schemes x 2 classes x 2 seeds"
    );
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        // Same case in the same position: the plan order is part of the
        // contract (scheme -> fault class -> intensity -> seed).
        assert_eq!(
            (s.scheme, s.fault_class, s.intensity, s.seed),
            (p.scheme, p.fault_class, p.intensity, p.seed),
            "case order changed under parallel execution"
        );
        assert_eq!(
            s.trace_hash,
            p.trace_hash,
            "{} {}/{:?} seed {}: event trace diverged across job counts",
            s.scheme,
            s.fault_class.name(),
            s.intensity,
            s.seed
        );
        assert_eq!(
            s.stats_hash,
            p.stats_hash,
            "{} {}/{:?} seed {}: stats fingerprint diverged across job counts",
            s.scheme,
            s.fault_class.name(),
            s.intensity,
            s.seed
        );
        assert!(s.passed(), "sequential case failed: {:?}", s.violations);
        assert!(p.passed(), "parallel case failed: {:?}", p.violations);
    }
}
