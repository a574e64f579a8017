//! The row driver and the helpers every figure shares.
//!
//! A load-sweep or FCT-CDF figure is a [`Row`], which [`Row::run`]
//! sweeps through [`sweep_grid`]. Most figures express their cases as
//! lines × loads and run them through [`sweep`] — plain runs through
//! [`sweep_grid`], faulted ones with a `prepare` step — on
//! `workloads::exec`, each case through `RunSpec::run_with` and its
//! invariant audit, and note a truncated or invariant-breaking case on
//! the figure as a warning. Only fig03 runs its own cases, on `run_cases`:
//! its pFabric toy needs a 24-packet queue no `Scheme` carries. Results
//! come back ordered by case index, so figure output is byte-identical
//! at any `--jobs` value.

use netsim::prelude::*;
use netsim::topology::NodeKind;
use workloads::runner::backstop_warning;
use workloads::{run_cases, RunMetrics, RunSpec, Scenario, Scheme};

use crate::opts::ExpOpts;
use crate::report::FigResult;

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

/// Every line at every load through the parallel engine: the case of
/// line `i` runs [`RunSpec::run_with`] under `prepare(i, …)` — inject a
/// fault plan, switch on health-aware routing, add a flash crowd — and
/// `read` turns the finished run into the cell. One row per line (row
/// order = line order, column order = load order). Every untrustworthy
/// cell — truncated by its backstop or in breach of an invariant — is
/// noted on each of `figs`, so no table built from the rows can use it
/// without [`hit_backstop`] seeing it.
pub fn sweep<R: Send>(
    figs: &mut [&mut FigResult],
    lines: &[Line],
    loads: &[f64],
    opts: &ExpOpts,
    prepare: impl Fn(usize, &mut Simulation, &[NodeId], &mut Vec<FlowSpec>) + Sync,
    read: impl Fn(RunMetrics, Simulation) -> R + Sync,
) -> Vec<Vec<R>> {
    let cases: Vec<_> = lines
        .iter()
        .enumerate()
        .flat_map(|(i, line)| {
            let spec = |&load| RunSpec::new(line.scheme, line.scenario, load, opts.seed);
            loads.iter().map(move |load| (i, spec(load)))
        })
        .collect();
    let cells = run_cases(&cases, opts.jobs, |&(i, spec)| {
        let (m, sim) = spec.run_with(|sim, hosts, flows| prepare(i, sim, hosts, flows));
        (backstop_warning(&spec, &m), read(m, sim))
    });
    let mut cells = cells.into_iter();
    let mut noted = |label: &str| {
        let (warning, cell) = cells.next().expect("one result per case");
        if let Some(w) = warning {
            for fig in figs.iter_mut() {
                fig.note(format!("{BACKSTOP_WARNING}{label}: {w}"));
            }
        }
        cell
    };
    lines
        .iter()
        .map(|line| loads.iter().map(|_| noted(&line.label)).collect())
        .collect()
}

/// [`sweep`] of plain runs: one row of [`RunMetrics`] per line.
pub fn sweep_grid(
    figs: &mut [&mut FigResult],
    lines: &[Line],
    loads: &[f64],
    opts: &ExpOpts,
) -> Vec<Vec<RunMetrics>> {
    sweep(figs, lines, loads, opts, |_, _, _, _| {}, |m, _| m)
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

/// The switches cabled to `node`, in port order: a ToR's or leaf's
/// uplinks, where the fault tables aim their link faults.
pub fn switch_peers(topo: &Topology, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    topo.neighbors(node)
        .into_iter()
        .map(|(_, peer, _, _)| peer)
        .filter(|&peer| topo.kind(peer) == NodeKind::Switch)
}

/// How an untrustworthy cell's note starts.
const BACKSTOP_WARNING: &str = "WARNING: ";

/// Whether any cell of `fig` was computed from a run its `TimeLimit`
/// backstop truncated or that broke an invariant: the gate `run_all`
/// exits 1 on.
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
        // One sweep may mix scenarios (`ext_scale` runs two trees).
        let other = workloads::Scenario::all_to_all_intra(7, opts.flows);
        let mut lines = lines_on(scenario, &[("DCTCP", Scheme::Dctcp), ("TCP", Scheme::Tcp)]);
        lines.extend(lines_on(other, &[("DCTCP 7", Scheme::Dctcp)]));
        let mut fig = FigResult::new("t", "t", "x", "y", vec![30.0, 60.0]);
        let rows = sweep_grid(&mut [&mut fig], &lines, &[0.3, 0.6], &opts);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 2));
        assert!(fig.notes.is_empty(), "{:?}", fig.notes);
        // Rows 0 and 2 really are DCTCP at loads [0.3, 0.6] on their own
        // racks: spot-check against direct sequential runs.
        let direct = RunSpec::new(Scheme::Dctcp, scenario, 0.6, opts.seed).run();
        assert_eq!(rows[0][1].fcts_ms, direct.fcts_ms);
        let direct = RunSpec::new(Scheme::Dctcp, other, 0.3, opts.seed).run();
        assert_eq!(rows[2][0].fcts_ms, direct.fcts_ms);
        assert_ne!(rows[2][0].fcts_ms, rows[0][0].fcts_ms);
    }

    #[test]
    fn truncated_cells_are_noted() {
        // fig11 shape: one sweep feeding two tables. A measured flow that
        // starts after the 120 s backstop forges a truncated cell on the
        // path every figure runs; with no background flows the clock
        // jumps straight to the backstop once the others finish.
        let mut fig_a = FigResult::new("a", "a", "x", "y", vec![30.0]);
        let mut fig_b = FigResult::new("b", "b", "x", "y", vec![30.0]);
        let opts = ExpOpts {
            flows: 10,
            jobs: 1,
            ..ExpOpts::quick()
        };
        let scenario = workloads::Scenario {
            n_background: 0,
            ..workloads::Scenario::all_to_all_intra(5, opts.flows)
        };
        let lines = lines_on(scenario, &[("DCTCP", Scheme::Dctcp)]);
        let late = |_: usize, _: &mut Simulation, hosts: &[NodeId], flows: &mut Vec<FlowSpec>| {
            let id = FlowId(flows.len() as u64);
            let at = SimTime::from_secs(200);
            flows.push(FlowSpec::new(id, hosts[0], hosts[1], 1000, at));
        };
        let figs = &mut [&mut fig_a, &mut fig_b];
        let rows = sweep(figs, &lines, &[0.3], &opts, late, |m, _| m);
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

    #[test]
    fn violating_cells_are_noted() {
        // A data packet the ledger never saw sent, delivered straight to
        // a host: delivered then exceeds injected, which breaks the data
        // conservation law in a run that otherwise completes cleanly.
        let opts = ExpOpts {
            flows: 10,
            jobs: 1,
            ..ExpOpts::quick()
        };
        let scenario = workloads::Scenario::all_to_all_intra(5, opts.flows);
        let lines = lines_on(scenario, &[("DCTCP", Scheme::Dctcp)]);
        let mut fig = FigResult::new("v", "v", "x", "y", vec![30.0]);
        let forge = |_: usize, sim: &mut Simulation, hosts: &[NodeId], _: &mut Vec<FlowSpec>| {
            let pkt = Packet::data(FlowId(1_000_000), hosts[0], hosts[1], 0, 1000);
            let at = SimTime::from_micros(1);
            sim.scheduler_mut().schedule_deliver(at, hosts[1], pkt);
        };
        let rows = sweep(&mut [&mut fig], &lines, &[0.3], &opts, forge, |m, _| m);
        assert_eq!(rows[0][0].outcome, RunOutcome::MeasuredComplete);
        assert_eq!(fig.notes.len(), 1, "{:?}", fig.notes);
        let note = &fig.notes[0];
        assert!(
            note.contains("DCTCP: invariants violated by DCTCP"),
            "{note}"
        );
        assert!(note.contains("conservation"), "{note}");
        assert!(hit_backstop(&fig));
    }
}
