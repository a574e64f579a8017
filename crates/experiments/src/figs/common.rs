//! Shared helpers for figure modules.
//!
//! Every figure expresses its cases as a flat [`CasePlan`] and executes
//! it through `workloads::exec` ([`grid`] for (scheme, load) grids:
//! [`sweep_grid`] for plain runs, [`run_faulted`] cells for faulted
//! ones); no figure module hand-rolls case iteration. Results come
//! back ordered by case index, so figure output is byte-identical at
//! any `--jobs` value.

use netsim::prelude::*;
use workloads::runner::backstop_warning;
use workloads::{CasePlan, RunMetrics, RunSpec, Scenario, Scheme};

use crate::opts::ExpOpts;
use crate::report::FigResult;

/// Run a `(label, scheme, variant)` × `loads` grid on `scenario` through
/// the parallel engine: `cell` runs one case from its [`RunSpec`] and its
/// entry's variant. One row of results per entry (row order = entry
/// order, column order = load order).
pub fn grid<V: Copy + Sync, R: Send>(
    entries: &[(&str, Scheme, V)],
    scenario: Scenario,
    loads: &[f64],
    opts: &ExpOpts,
    cell: impl Fn(&RunSpec, V) -> R + Sync,
) -> Vec<Vec<R>> {
    let plan = CasePlan::new(
        entries
            .iter()
            .flat_map(|&(_, scheme, variant)| {
                loads
                    .iter()
                    .map(move |&load| (RunSpec::new(scheme, scenario, load, opts.seed), variant))
            })
            .collect::<Vec<_>>(),
    );
    let cells = plan.execute(opts.jobs, |(spec, variant)| cell(spec, *variant));
    let mut cells = cells.into_iter();
    entries
        .iter()
        .map(|_| cells.by_ref().take(loads.len()).collect())
        .collect()
}

/// The `(label, scheme)` × `loads` grid of plain runs, as [`RunMetrics`].
/// Every backstop hit is reported on stderr, in case order.
pub fn sweep_grid(
    entries: &[(&str, Scheme)],
    scenario: Scenario,
    loads: &[f64],
    opts: &ExpOpts,
) -> Vec<Vec<RunMetrics>> {
    let entries: Vec<_> = entries.iter().map(|&(l, scheme)| (l, scheme, ())).collect();
    let rows = grid(&entries, scenario, loads, opts, |spec, ()| {
        (*spec, spec.run())
    });
    let warn = |(spec, m): (RunSpec, RunMetrics)| {
        if let Some(w) = backstop_warning(&spec, &m) {
            eprintln!("warning: {w}");
        }
        m
    };
    rows.into_iter()
        .map(|row| row.into_iter().map(warn).collect())
        .collect()
}

/// One cell of a faulted figure: [`RunSpec::run_with`] under `prepare` —
/// inject a fault plan, switch on health-aware routing, add a flash crowd
/// — which every flow must survive.
pub fn run_faulted(
    spec: &RunSpec,
    prepare: impl FnOnce(&mut Simulation, &[NodeId], &mut Vec<FlowSpec>),
) -> (RunMetrics, Simulation) {
    let (m, sim) = spec.run_with(prepare);
    assert_eq!(
        m.outcome,
        RunOutcome::MeasuredComplete,
        "{} must complete despite its faults",
        spec.describe()
    );
    (m, sim)
}

/// How a [`note_backstops`] note starts.
const BACKSTOP_WARNING: &str = "WARNING: ";

/// Append a note for every truncated cell in a row, so a sweep never
/// silently averages a run the backstop cut short. `run_all` and the
/// experiment-harness test fail on such a note ([`hit_backstop`]).
pub fn note_backstops(fig: &mut FigResult, label: &str, loads: &[f64], row: &[RunMetrics]) {
    for (&load, m) in loads.iter().zip(row) {
        if m.outcome != RunOutcome::MeasuredComplete {
            fig.note(format!(
                "{BACKSTOP_WARNING}{label} at load {load:.2} hit the run backstop ({:?}): only {}/{} \
                 measured flows finished; its cells are computed from a truncated population",
                m.outcome, m.n_completed, m.n_flows
            ));
        }
    }
}

/// Whether any cell of `fig` was computed from a run its `TimeLimit` /
/// `EventLimit` backstop truncated.
pub fn hit_backstop(fig: &FigResult) -> bool {
    fig.notes.iter().any(|n| n.starts_with(BACKSTOP_WARNING))
}

/// Sweep several `(label, scheme)` pairs into a figure. The figure's x
/// axis is load-in-percent; `opts.loads` supplies the fractions.
pub fn sweep_into(
    fig: &mut FigResult,
    entries: &[(&str, Scheme)],
    scenario: Scenario,
    opts: &ExpOpts,
    metric: impl Fn(&RunMetrics) -> f64 + Copy,
) {
    debug_assert_eq!(fig.xs.len(), opts.loads.len());
    let rows = sweep_grid(entries, scenario, &opts.loads, opts);
    for (&(label, _), row) in entries.iter().zip(&rows) {
        fig.push_series(label, row.iter().map(metric).collect());
        note_backstops(fig, label, &opts.loads, row);
    }
}

/// Run each `(label, scheme)` once at `load` and tabulate its FCT CDF
/// (one series per entry, x = [`CDF_PERCENTILES`]).
pub fn cdf_sweep_into(
    fig: &mut FigResult,
    entries: &[(&str, Scheme)],
    scenario: Scenario,
    load: f64,
    opts: &ExpOpts,
) {
    let rows = sweep_grid(entries, scenario, &[load], opts);
    for (&(label, _), row) in entries.iter().zip(&rows) {
        fig.push_series(label, cdf_row(&row[0]));
        note_backstops(fig, label, &[load], row);
    }
}

/// AFCT in milliseconds.
pub fn afct(m: &RunMetrics) -> f64 {
    m.afct_ms
}

/// 99th-percentile FCT in milliseconds.
pub fn p99(m: &RunMetrics) -> f64 {
    m.p99_ms
}

/// Application throughput (fraction of deadlines met).
pub fn app_throughput(m: &RunMetrics) -> f64 {
    m.app_throughput.unwrap_or(f64::NAN)
}

/// Loss rate in percent.
pub fn loss_pct(m: &RunMetrics) -> f64 {
    m.loss_rate * 100.0
}

/// Loads as percentages for the x axis (the paper plots "Offered load (%)").
pub fn loads_pct(loads: &[f64]) -> Vec<f64> {
    loads.iter().map(|l| l * 100.0).collect()
}

/// Percentiles used for tabular CDF figures.
pub const CDF_PERCENTILES: [f64; 9] = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 100.0];

/// Extract the tabular CDF (FCT at each of [`CDF_PERCENTILES`]).
pub fn cdf_row(m: &RunMetrics) -> Vec<f64> {
    CDF_PERCENTILES
        .iter()
        .map(|&p| workloads::percentile(&m.fcts_ms, p))
        .collect()
}

/// Percent improvement of `better` over `base` (positive = better is
/// smaller).
pub fn improvement_pct(base: f64, better: f64) -> f64 {
    if base <= 0.0 || !base.is_finite() {
        return f64::NAN;
    }
    (base - better) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_pct_signs() {
        assert!((improvement_pct(4.0, 2.0) - 50.0).abs() < 1e-12);
        assert!((improvement_pct(2.0, 4.0) + 100.0).abs() < 1e-12);
        assert_eq!(improvement_pct(2.0, 2.0), 0.0);
        assert!(improvement_pct(0.0, 1.0).is_nan());
        assert!(improvement_pct(f64::NAN, 1.0).is_nan());
    }

    #[test]
    fn loads_pct_scales() {
        assert_eq!(loads_pct(&[0.1, 0.95]), vec![10.0, 95.0]);
    }

    #[test]
    fn cdf_percentiles_are_sorted_unique() {
        let mut sorted = CDF_PERCENTILES.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted, CDF_PERCENTILES.to_vec());
        assert_eq!(*CDF_PERCENTILES.last().unwrap(), 100.0);
    }

    #[test]
    fn sweep_grid_rows_line_up_with_entries() {
        let opts = ExpOpts {
            flows: 20,
            hosts_per_rack: 4,
            quick: true,
            jobs: 2,
            ..ExpOpts::quick()
        };
        let scenario = workloads::Scenario::all_to_all_intra(5, opts.flows);
        let rows = sweep_grid(
            &[("DCTCP", Scheme::Dctcp), ("TCP", Scheme::Tcp)],
            scenario,
            &[0.3, 0.6],
            &opts,
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 2));
        // Row 0 really is DCTCP at loads [0.3, 0.6]: spot-check against a
        // direct sequential run.
        let direct = RunSpec::new(Scheme::Dctcp, scenario, 0.6, opts.seed).run();
        assert_eq!(rows[0][1].fcts_ms, direct.fcts_ms);
    }

    #[test]
    fn truncated_cells_are_noted() {
        let mut fig = FigResult::new("t", "t", "x", "y", vec![30.0]);
        let opts = ExpOpts {
            flows: 10,
            jobs: 1,
            ..ExpOpts::quick()
        };
        let scenario = workloads::Scenario::all_to_all_intra(5, opts.flows);
        // Forge a truncated row by running with a zero backstop.
        let spec = RunSpec {
            backstop_s: 0,
            ..RunSpec::new(Scheme::Dctcp, scenario, 0.3, opts.seed)
        };
        let row = vec![spec.run()];
        note_backstops(&mut fig, "DCTCP", &[0.3], &row);
        assert_eq!(fig.notes.len(), 1);
        assert!(fig.notes[0].contains("backstop"), "{}", fig.notes[0]);
        assert!(hit_backstop(&fig));
        fig.notes.clear();
        fig.note("paper shape: a note that merely mentions a WARNING: is not one");
        assert!(!hit_backstop(&fig));
    }
}
