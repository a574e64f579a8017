//! One-call experiment execution.
//!
//! A [`RunSpec`] is one fully specified case; lists of them are executed
//! through the deterministic parallel engine in [`crate::exec`]
//! ([`run_specs`], [`run_seeds`], [`sweep`]), so multi-case work scales
//! with the machine while producing output byte-identical to a
//! sequential run.

use netsim::engine::WheelStats;
use netsim::sim::{RunLimit, RunOutcome};
use netsim::time::SimTime;

use crate::exec::{run_cases, CasePlan};
use crate::metrics::{collect, RunMetrics};
use crate::scenarios::Scenario;
use crate::scheme::Scheme;

/// A fully specified run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Transport under test.
    pub scheme: Scheme,
    /// Workload and topology.
    pub scenario: Scenario,
    /// Offered load as a fraction of the scenario's bottleneck capacity.
    pub load: f64,
    /// RNG seed for the workload.
    pub seed: u64,
    /// Wall-clock backstop in simulated seconds (runs also stop when all
    /// measured flows finish).
    pub backstop_s: u64,
}

impl RunSpec {
    /// A run with the default backstop.
    pub fn new(scheme: Scheme, scenario: Scenario, load: f64, seed: u64) -> RunSpec {
        RunSpec {
            scheme,
            scenario,
            load,
            seed,
            backstop_s: 120,
        }
    }

    /// Execute the run and collect metrics. The run's [`RunOutcome`] is
    /// recorded in [`RunMetrics::outcome`]; a `TimeLimit` there means
    /// the backstop truncated the FCT population (sweeps surface this —
    /// see [`backstop_warning`]).
    pub fn run(&self) -> RunMetrics {
        let (mut sim, hosts) = self.scheme.build_sim(&self.scenario.topo);
        for spec in self.scenario.generate_flows(self.load, self.seed, &hosts) {
            sim.add_flow(spec);
        }
        let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(
            self.backstop_s,
        )));
        collect(&sim, outcome)
    }

    /// One-line description of the case for diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "{} on {} at load {:.2} seed {}",
            self.scheme.name(),
            self.scenario.name,
            self.load,
            self.seed
        )
    }
}

/// The warning line for a truncated run, or `None` when the run ended
/// normally. Sweeps print/record this per affected case instead of
/// silently averaging a truncated FCT population.
pub fn backstop_warning(spec: &RunSpec, m: &RunMetrics) -> Option<String> {
    if m.outcome == RunOutcome::MeasuredComplete {
        return None;
    }
    Some(format!(
        "backstop hit ({:?} after {}s): {} finished only {}/{} measured flows",
        m.outcome,
        spec.backstop_s,
        spec.describe(),
        m.n_completed,
        m.n_flows
    ))
}

/// Execute an ordered list of specs on `jobs` worker threads; results
/// line up index-for-index with `specs` (byte-identical to `jobs = 1`).
/// Every backstop hit is reported on stderr, in case order.
pub fn run_specs(specs: &[RunSpec], jobs: usize) -> Vec<RunMetrics> {
    let results = run_cases(specs, jobs, RunSpec::run);
    for (spec, m) in specs.iter().zip(&results) {
        if let Some(w) = backstop_warning(spec, m) {
            eprintln!("warning: {w}");
        }
    }
    results
}

/// Run one spec under several seeds (in parallel on `jobs` threads) and
/// average the scalar metrics. Per-flow FCT vectors are concatenated
/// (and re-sorted) so percentiles reflect the pooled population. The
/// pooled outcome is `MeasuredComplete` only when every seed completed;
/// otherwise it is the first truncated seed's outcome.
pub fn run_seeds(base: RunSpec, seeds: &[u64], jobs: usize) -> RunMetrics {
    assert!(!seeds.is_empty(), "need at least one seed");
    let plan = CasePlan::new(
        seeds
            .iter()
            .map(|&seed| RunSpec { seed, ..base })
            .collect::<Vec<_>>(),
    );
    let mut runs = run_specs(plan.cases(), jobs);
    if runs.len() == 1 {
        return runs.pop().expect("one run");
    }
    let outcome = runs
        .iter()
        .map(|m| m.outcome)
        .find(|&o| o != RunOutcome::MeasuredComplete)
        .unwrap_or(RunOutcome::MeasuredComplete);
    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let mut fcts_ms: Vec<f64> = runs
        .iter()
        .flat_map(|m| m.fcts_ms.iter().copied())
        .collect();
    fcts_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN FCTs"));
    let app = if runs.iter().all(|m| m.app_throughput.is_some()) {
        Some(mean(&|m: &RunMetrics| m.app_throughput.unwrap_or(0.0)))
    } else {
        None
    };
    RunMetrics {
        outcome,
        n_completed: runs.iter().map(|m| m.n_completed).sum(),
        n_flows: runs.iter().map(|m| m.n_flows).sum(),
        afct_ms: mean(&|m: &RunMetrics| m.afct_ms),
        median_ms: crate::metrics::percentile(&fcts_ms, 50.0),
        p99_ms: crate::metrics::percentile(&fcts_ms, 99.0),
        app_throughput: app,
        loss_rate: mean(&|m: &RunMetrics| m.loss_rate),
        ctrl_pkts: runs.iter().map(|m| m.ctrl_pkts).sum::<u64>() / runs.len() as u64,
        ctrl_bytes: runs.iter().map(|m| m.ctrl_bytes).sum::<u64>() / runs.len() as u64,
        ctrl_per_sec: mean(&|m: &RunMetrics| m.ctrl_per_sec),
        ctrl_processed: runs.iter().map(|m| m.ctrl_processed).sum::<u64>() / runs.len() as u64,
        ctrl_shed: runs.iter().map(|m| m.ctrl_shed).sum::<u64>() / runs.len() as u64,
        timeouts: runs.iter().map(|m| m.timeouts).sum(),
        retransmitted_bytes: runs.iter().map(|m| m.retransmitted_bytes).sum(),
        probes: runs.iter().map(|m| m.probes).sum(),
        sim_seconds: mean(&|m: &RunMetrics| m.sim_seconds),
        events: runs.iter().map(|m| m.events).sum(),
        events_by_kind: std::array::from_fn(|k| runs.iter().map(|m| m.events_by_kind[k]).sum()),
        timer_arms_superseded: runs.iter().map(|m| m.timer_arms_superseded).sum(),
        wheel: runs
            .iter()
            .fold(WheelStats::default(), |sum, m| sum.plus(m.wheel)),
        max_link_utilization: mean(&|m: &RunMetrics| m.max_link_utilization),
        fcts_ms,
    }
}

/// Run a `(scheme, load)` grid over one scenario on `jobs` threads,
/// returning `results[scheme_idx][load_idx]`.
pub fn sweep(
    schemes: &[Scheme],
    scenario: Scenario,
    loads: &[f64],
    seed: u64,
    jobs: usize,
) -> Vec<Vec<RunMetrics>> {
    let plan = CasePlan::new(
        schemes
            .iter()
            .flat_map(|&scheme| {
                loads
                    .iter()
                    .map(move |&load| RunSpec::new(scheme, scenario, load, seed))
            })
            .collect::<Vec<_>>(),
    );
    let mut flat = run_specs(plan.cases(), jobs).into_iter();
    schemes
        .iter()
        .map(|_| {
            loads
                .iter()
                .map(|_| flat.next().expect("full grid"))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_metrics() {
        let scenario = Scenario::all_to_all_intra(6, 30);
        let spec = RunSpec::new(Scheme::Dctcp, scenario, 0.4, 1);
        let m = spec.run();
        assert_eq!(m.n_completed, 30);
        assert_eq!(m.outcome, RunOutcome::MeasuredComplete);
        assert!(m.afct_ms > 0.0 && m.afct_ms.is_finite());
        assert!(m.p99_ms >= m.median_ms);
        assert!(m.sim_seconds > 0.0);
    }

    #[test]
    fn backstop_hit_is_recorded_and_described() {
        // A 0-second backstop fires before any measured flow can finish.
        let scenario = Scenario::all_to_all_intra(5, 10);
        let spec = RunSpec {
            backstop_s: 0,
            ..RunSpec::new(Scheme::Dctcp, scenario, 0.4, 1)
        };
        let m = spec.run();
        assert_eq!(m.outcome, RunOutcome::TimeLimit);
        assert!(m.n_completed < m.n_flows);
        let w = backstop_warning(&spec, &m).expect("truncated run must warn");
        assert!(w.contains("TimeLimit"), "{w}");
        assert!(w.contains("DCTCP"), "{w}");
        // A clean run produces no warning.
        let ok = RunSpec::new(Scheme::Dctcp, scenario, 0.4, 1);
        assert!(backstop_warning(&ok, &ok.run()).is_none());
    }

    #[test]
    fn multi_seed_pools_flows_and_averages() {
        let scenario = Scenario::all_to_all_intra(5, 12);
        let base = RunSpec::new(Scheme::Dctcp, scenario, 0.4, 0);
        let pooled = run_seeds(base, &[1, 2, 3], 1);
        assert_eq!(pooled.n_flows, 36);
        assert_eq!(pooled.n_completed, 36);
        assert_eq!(pooled.fcts_ms.len(), 36);
        assert_eq!(pooled.outcome, RunOutcome::MeasuredComplete);
        // The pooled AFCT is the mean of the per-seed AFCTs.
        let singles: Vec<RunMetrics> = [1u64, 2, 3]
            .iter()
            .map(|&s| RunSpec { seed: s, ..base }.run())
            .collect();
        let mean = singles.iter().map(|m| m.afct_ms).sum::<f64>() / 3.0;
        assert!((pooled.afct_ms - mean).abs() < 1e-9);
        // Percentiles come from the pooled population.
        assert!(pooled.p99_ms >= pooled.median_ms);
    }

    #[test]
    fn run_seeds_parallel_matches_sequential() {
        let scenario = Scenario::all_to_all_intra(5, 12);
        let base = RunSpec::new(Scheme::Pase, scenario, 0.5, 0);
        let seq = run_seeds(base, &[1, 2, 3, 4], 1);
        let par = run_seeds(base, &[1, 2, 3, 4], 4);
        assert_eq!(seq.fcts_ms, par.fcts_ms);
        assert_eq!(seq.events, par.events);
        assert_eq!(seq.ctrl_pkts, par.ctrl_pkts);
        assert!((seq.afct_ms - par.afct_ms).abs() == 0.0);
    }

    #[test]
    fn run_seeds_surfaces_truncation() {
        let scenario = Scenario::all_to_all_intra(5, 10);
        let base = RunSpec {
            backstop_s: 0,
            ..RunSpec::new(Scheme::Dctcp, scenario, 0.4, 0)
        };
        let pooled = run_seeds(base, &[1, 2], 2);
        assert_eq!(pooled.outcome, RunOutcome::TimeLimit);
    }

    #[test]
    fn sweep_shapes_match_inputs() {
        let scenario = Scenario::all_to_all_intra(5, 15);
        let grid = sweep(&[Scheme::Dctcp, Scheme::Tcp], scenario, &[0.3, 0.6], 1, 2);
        assert_eq!(grid.len(), 2, "one row per scheme");
        assert!(grid.iter().all(|row| row.len() == 2), "one cell per load");
        for row in &grid {
            for m in row {
                assert_eq!(m.n_completed, 15);
            }
        }
        // The parallel grid is cell-for-cell identical to sequential.
        let seq = sweep(&[Scheme::Dctcp, Scheme::Tcp], scenario, &[0.3, 0.6], 1, 1);
        for (r1, r2) in grid.iter().zip(&seq) {
            for (a, b) in r1.iter().zip(r2) {
                assert_eq!(a.fcts_ms, b.fcts_ms);
                assert_eq!(a.events, b.events);
            }
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let scenario = Scenario::all_to_all_intra(5, 20);
        let a = RunSpec::new(Scheme::Pase, scenario, 0.5, 3).run();
        let b = RunSpec::new(Scheme::Pase, scenario, 0.5, 3).run();
        assert_eq!(a.fcts_ms, b.fcts_ms);
        assert_eq!(a.ctrl_pkts, b.ctrl_pkts);
        assert_eq!(a.events, b.events);
    }
}
