//! The row driver and the helpers every figure shares.
//!
//! A load-sweep or FCT-CDF figure is a [`Row`], which [`Row::run`]
//! sweeps through [`sweep_grid`]. Every figure expresses its cases as a
//! flat [`CasePlan`] and executes it through `workloads::exec`
//! ([`sweep_grid`] for plain runs, [`grid`] with [`run_faulted`] cells
//! for faulted ones); no figure hand-rolls case iteration. Results come
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

/// One series of a load sweep: its legend label, the scheme it runs and
/// the scenario it runs on.
#[derive(Debug, Clone)]
pub struct Line {
    /// Legend label.
    pub label: String,
    /// The transport under test.
    pub scheme: Scheme,
    /// Where it runs.
    pub scenario: Scenario,
}

/// `entries` as lines that all run on `scenario`.
pub fn lines_on(scenario: Scenario, entries: &[(&str, Scheme)]) -> Vec<Line> {
    entries
        .iter()
        .map(|&(label, scheme)| Line {
            label: label.to_string(),
            scheme,
            scenario,
        })
        .collect()
}

/// Every line at every load, as plain runs through the parallel engine:
/// one row of [`RunMetrics`] per line (row order = line order, column
/// order = load order). Every truncated cell is noted on each of `figs`,
/// so no table built from the rows can average a run the backstop cut
/// short without [`hit_backstop`] seeing it.
pub fn sweep_grid(
    figs: &mut [&mut FigResult],
    lines: &[Line],
    loads: &[f64],
    opts: &ExpOpts,
) -> Vec<Vec<RunMetrics>> {
    let specs = lines.iter().map(|line| {
        loads
            .iter()
            .map(|&load| RunSpec::new(line.scheme, line.scenario, load, opts.seed))
            .collect()
    });
    run_rows(figs, lines, specs.collect(), opts.jobs)
}

/// [`sweep_grid`] from its specs, one row per line.
fn run_rows(
    figs: &mut [&mut FigResult],
    lines: &[Line],
    specs: Vec<Vec<RunSpec>>,
    jobs: usize,
) -> Vec<Vec<RunMetrics>> {
    let mut cells = CasePlan::new(specs.concat())
        .execute(jobs, RunSpec::run)
        .into_iter();
    let mut noted = |label: &str, spec: &RunSpec| {
        let m = cells.next().expect("one result per spec");
        if let Some(w) = backstop_warning(spec, &m) {
            for fig in figs.iter_mut() {
                fig.note(format!("{BACKSTOP_WARNING}{label}: {w}"));
            }
        }
        m
    };
    let rows = lines.iter().zip(&specs);
    rows.map(|(line, row)| row.iter().map(|spec| noted(&line.label, spec)).collect())
        .collect()
}

/// One load-sweep or FCT-CDF figure, declared as data: a registry row
/// of [`super::FIGURES`], run by [`Row::run`].
pub struct Row {
    /// Result id and `run_all --only` id, e.g. "fig09a".
    pub id: &'static str,
    /// Human title (matches the paper's caption).
    pub title: &'static str,
    /// Meaning of the y axis.
    pub y_label: &'static str,
    /// What the x axis sweeps and what each cell reads.
    pub sweep: Sweep,
    /// The figure's series, in legend order.
    pub series: fn(&ExpOpts) -> Vec<Line>,
    /// Derived series and the paper-shape notes, from the measured series.
    pub shape: fn(&mut FigResult),
}

/// A [`Row`]'s x axis.
#[derive(Clone, Copy)]
pub enum Sweep {
    /// Offered load in percent, at the fractions the first function picks
    /// from the run's options; the second reads one number per run.
    Loads(fn(&ExpOpts) -> Vec<f64>, fn(&RunMetrics) -> f64),
    /// FCT at each of [`CDF_PERCENTILES`], from one run per series at
    /// this load.
    Cdf(f64),
}

impl Row {
    /// Run every series, tabulate it, then apply the row's shape step.
    pub fn run(&self, opts: &ExpOpts) -> FigResult {
        let lines = (self.series)(opts);
        let (x_label, xs, loads) = match self.sweep {
            Sweep::Loads(loads, _) => {
                let loads = loads(opts);
                ("load(%)", loads_pct(&loads), loads)
            }
            Sweep::Cdf(load) => ("percentile", CDF_PERCENTILES.to_vec(), vec![load]),
        };
        let mut fig = FigResult::new(self.id, self.title, x_label, self.y_label, xs);
        let rows = sweep_grid(&mut [&mut fig], &lines, &loads, opts);
        for (line, row) in lines.into_iter().zip(rows) {
            let ys = match self.sweep {
                Sweep::Loads(_, metric) => row.iter().map(metric).collect(),
                Sweep::Cdf(_) => cdf_row(&row[0]),
            };
            fig.push_series(line.label, ys);
        }
        (self.shape)(&mut fig);
        fig
    }
}

/// The loads the options name: a [`Sweep::Loads`] that adds none.
pub fn opts_loads(opts: &ExpOpts) -> Vec<f64> {
    opts.loads.clone()
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

/// How a truncated cell's note starts.
const BACKSTOP_WARNING: &str = "WARNING: ";

/// Whether any cell of `fig` was computed from a run its `TimeLimit` /
/// `EventLimit` backstop truncated.
pub fn hit_backstop(fig: &FigResult) -> bool {
    fig.notes.iter().any(|n| n.starts_with(BACKSTOP_WARNING))
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
        let mut fig = FigResult::new("t", "t", "x", "y", vec![30.0, 60.0]);
        let rows = sweep_grid(
            &mut [&mut fig],
            &lines_on(scenario, &[("DCTCP", Scheme::Dctcp), ("TCP", Scheme::Tcp)]),
            &[0.3, 0.6],
            &opts,
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 2));
        assert!(fig.notes.is_empty(), "{:?}", fig.notes);
        // Row 0 really is DCTCP at loads [0.3, 0.6]: spot-check against a
        // direct sequential run.
        let direct = RunSpec::new(Scheme::Dctcp, scenario, 0.6, opts.seed).run();
        assert_eq!(rows[0][1].fcts_ms, direct.fcts_ms);
    }

    #[test]
    fn truncated_cells_are_noted() {
        // fig11 shape: one sweep feeding two tables. A zero backstop
        // forges a truncated cell on the path sweep_grid runs.
        let mut fig_a = FigResult::new("a", "a", "x", "y", vec![30.0]);
        let mut fig_b = FigResult::new("b", "b", "x", "y", vec![30.0]);
        let opts = ExpOpts {
            flows: 10,
            jobs: 1,
            ..ExpOpts::quick()
        };
        let scenario = workloads::Scenario::all_to_all_intra(5, opts.flows);
        let spec = RunSpec {
            backstop_s: 0,
            ..RunSpec::new(Scheme::Dctcp, scenario, 0.3, opts.seed)
        };
        let lines = lines_on(scenario, &[("DCTCP", Scheme::Dctcp)]);
        let rows = run_rows(&mut [&mut fig_a, &mut fig_b], &lines, vec![vec![spec]], 1);
        assert_eq!(rows[0][0].outcome, RunOutcome::TimeLimit);
        for fig in [&fig_a, &fig_b] {
            assert_eq!(fig.notes.len(), 1);
            assert!(
                fig.notes[0].contains("DCTCP: backstop hit"),
                "{}",
                fig.notes[0]
            );
            assert!(hit_backstop(fig));
        }
        fig_a.notes.clear();
        fig_a.note("paper shape: a note that merely mentions a WARNING: is not one");
        assert!(!hit_backstop(&fig_a));
    }
}
