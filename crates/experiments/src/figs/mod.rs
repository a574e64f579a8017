//! Every regenerated figure, one entry of [`FIGURES`] each.
//!
//! A paper figure that sweeps a few schemes over load on one scenario,
//! or tabulates their FCT CDF at one load, is a [`Row`]: data that
//! [`Row::run`] turns into a table. The figures no row expresses stay
//! functions in the same registry.
//!
//! | Id | Paper figure | Content | Entry |
//! |---|---|---|---|
//! | `fig01` | Fig. 1 | D2TCP/DCTCP vs pFabric, application throughput | row |
//! | `fig02` | Fig. 2 | PDQ vs DCTCP, AFCT (flow-switching overhead) | row |
//! | `fig03` | Fig. 3 | toy multi-link example, per-flow FCTs | [`fig03`] |
//! | `fig04` | Fig. 4 | pFabric loss rate vs load | row |
//! | `fig09a` | Fig. 9a | PASE vs L2DCT vs DCTCP, AFCT, left-right | row |
//! | `fig09b` | Fig. 9b | FCT distribution at 70% load, left-right | row |
//! | `fig09c` | Fig. 9c | PASE vs D2TCP vs DCTCP, application throughput | row |
//! | `fig10a` | Fig. 10a | PASE vs pFabric, 99th-percentile FCT | row |
//! | `fig10b` | Fig. 10b | PASE vs pFabric FCT distribution at 70% | row |
//! | `fig10c` | Fig. 10c | PASE vs pFabric, AFCT, all-to-all intra-rack | row |
//! | `fig11` | Fig. 11 | arbitration optimizations: AFCT + overhead | [`fig11`] |
//! | `fig12a` | Fig. 12a | end-to-end vs local-only arbitration | row |
//! | `fig12b` | Fig. 12b | AFCT vs number of priority queues | row |
//! | `fig13a` | Fig. 13a | PASE vs PASE-DCTCP (reference rate) | row |
//! | `fig13b` | Fig. 13b | testbed-like: PASE vs DCTCP | row |
//! | `micro_probing` | §4.3.2 | probing on/off at high load | row |
//! | `ablations` | — | PASE's own knobs, heavy-tailed sizes | [`ablations`] |
//! | `ext_*` | — | extensions: incast, faults, gray, overload, scale | `ext_*` |

pub mod ablations;
pub mod common;
pub mod ext_faults;
pub mod ext_gray;
pub mod ext_incast;
pub mod ext_overload;
pub mod ext_scale;
pub mod fig03;
pub mod fig11;

use pase::{Criterion, PaseConfig};
use workloads::{Scenario, Scheme};

use crate::opts::ExpOpts;
use crate::report::FigResult;
use common::{
    afct, app_throughput, improvement_pct, lines_on, loss_pct, opts_loads, p99, Line, Row, Sweep,
};

/// A registered figure runner: one id, one or more result tables.
pub type FigFn = fn(&ExpOpts) -> Vec<FigResult>;

/// One entry of [`FIGURES`].
pub enum Figure {
    /// A load sweep or FCT CDF, declared as data.
    Row(Row),
    /// A figure no row expresses, under its registry id.
    Fn(&'static str, FigFn),
}

impl Figure {
    /// The id `run_all --only` selects it with.
    pub fn id(&self) -> &'static str {
        match self {
            Figure::Row(row) => row.id,
            Figure::Fn(id, _) => id,
        }
    }

    /// Its result tables, in order.
    pub fn run(&self, opts: &ExpOpts) -> Vec<FigResult> {
        match self {
            Figure::Row(row) => vec![row.run(opts)],
            Figure::Fn(_, run) => run(opts),
        }
    }
}

/// The left-right inter-rack scenario at the run's scale.
fn left_right(o: &ExpOpts) -> Scenario {
    Scenario::left_right(o.hosts_per_rack, o.flows)
}

/// The all-to-all intra-rack scenario: 8 hosts quick, 20 at full scale.
fn all_to_all(o: &ExpOpts) -> Scenario {
    Scenario::all_to_all_intra(if o.quick { 8 } else { 20 }, o.flows)
}

/// The load at which the paper draws its FCT CDFs (Figs. 9b, 10b).
const CDF_LOAD: f64 = 0.7;

/// Every figure `run_all` knows, in paper order, by the id `--only`
/// selects it with.
pub const FIGURES: &[Figure] = &[
    // Limits of self-adjusting endpoints: the D2TCP paper's experiment
    // 4.1.3 replica (intra-rack, U(100..500) KB, deadlines U(5..25) ms).
    Figure::Row(Row {
        id: "fig01",
        title: "Self-adjusting endpoints vs pFabric (application throughput)",
        y_label: "fraction of deadlines met",
        sweep: Sweep::Loads(opts_loads, app_throughput),
        series: |o| {
            let entries = [
                ("pFabric", Scheme::PFabric),
                ("D2TCP", Scheme::D2tcp),
                ("DCTCP", Scheme::Dctcp),
            ];
            lines_on(Scenario::deadline_intra_rack(o.flows), &entries)
        },
        shape: |f| {
            let last = f.xs.len() - 1;
            let (pf, d2, dc) = (
                f.ys("pFabric")[last],
                f.ys("D2TCP")[last],
                f.ys("DCTCP")[last],
            );
            f.note(format!(
                "paper shape @highest load: pFabric >> D2TCP ~ DCTCP; measured {pf:.2} vs {d2:.2} vs {dc:.2}"
            ));
        },
    }),
    // Limits of arbitration: PDQ's flow-switching overhead shows at high
    // load.
    Figure::Row(Row {
        id: "fig02",
        title: "Arbitration alone: PDQ vs DCTCP (AFCT)",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(opts_loads, afct),
        series: |o| {
            let entries = [("PDQ", Scheme::Pdq), ("DCTCP", Scheme::Dctcp)];
            lines_on(Scenario::medium_intra_rack(o.flows), &entries)
        },
        shape: |f| {
            let (pdq, dctcp, last) = (f.ys("PDQ"), f.ys("DCTCP"), f.xs.len() - 1);
            f.note(format!(
                "paper shape: PDQ wins at low load (measured {:.2} vs {:.2} ms), degrades toward/past DCTCP at high load (measured {:.2} vs {:.2} ms)",
                pdq[0], dctcp[0], pdq[last], dctcp[last]
            ));
        },
    }),
    Figure::Fn("fig03", |o| vec![fig03::run(o)]),
    // pFabric's loss rate on the worker -> aggregator workload
    // (U(2..198) KB). The paper sweeps up to 95% here.
    Figure::Row(Row {
        id: "fig04",
        title: "pFabric loss rate under all-to-all load",
        y_label: "data packet loss rate (%)",
        sweep: Sweep::Loads(
            |o| {
                let mut loads = o.loads.clone();
                if !o.quick && loads.last().is_some_and(|&l| l <= 0.9) {
                    loads.push(0.95);
                }
                loads
            },
            loss_pct,
        ),
        series: |o| lines_on(all_to_all(o), &[("pFabric", Scheme::PFabric)]),
        shape: |f| {
            let ys = f.ys("pFabric");
            f.note(format!(
                "paper shape: loss rate shoots up with load (paper: >40% at 80%); measured {:.1}% at the lowest vs {:.1}% at the highest load",
                ys[0],
                ys[ys.len() - 1]
            ));
        },
    }),
    // PASE vs the deployment-friendly schemes.
    Figure::Row(Row {
        id: "fig09a",
        title: "PASE vs deployment-friendly transports (AFCT, left-right)",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(opts_loads, afct),
        series: |o| lines_on(left_right(o), &PASE_L2DCT_DCTCP),
        shape: |f| {
            let (pase, l2dct, dctcp) = (f.ys("PASE"), f.ys("L2DCT"), f.ys("DCTCP"));
            let mid = f.xs.len() / 2;
            f.note(format!(
                "paper shape: PASE better than L2DCT by >=50% and DCTCP by >=70% across loads; measured at mid-load: {:.0}% vs L2DCT, {:.0}% vs DCTCP",
                improvement_pct(l2dct[mid], pase[mid]),
                improvement_pct(dctcp[mid], pase[mid]),
            ));
        },
    }),
    // The paper plots a CDF; the table has FCT at fixed percentiles.
    Figure::Row(Row {
        id: "fig09b",
        title: "FCT distribution at 70% load (left-right)",
        y_label: "FCT (ms)",
        sweep: Sweep::Cdf(CDF_LOAD),
        series: |o| lines_on(left_right(o), &PASE_L2DCT_DCTCP),
        shape: |f| {
            f.note(
                "paper shape: PASE's distribution dominates (better FCT at almost every percentile)",
            )
        },
    }),
    // Deadline flows. PASE arbitrates with the EDF criterion here (paper
    // §3.1.1: FlowSize "can be replaced by deadline").
    Figure::Row(Row {
        id: "fig09c",
        title: "Deadline flows: application throughput (intra-rack)",
        y_label: "fraction of deadlines met",
        sweep: Sweep::Loads(opts_loads, app_throughput),
        series: |o| {
            let scenario = Scenario::deadline_intra_rack(o.flows);
            let edf = PaseConfig {
                criterion: Criterion::Edf,
                ..Scheme::pase_config_for(&scenario.topo)
            };
            let entries = [
                ("PASE", Scheme::PaseWith(edf)),
                ("D2TCP", Scheme::D2tcp),
                ("DCTCP", Scheme::Dctcp),
            ];
            lines_on(scenario, &entries)
        },
        shape: |f| {
            let last = f.xs.len() - 1;
            let (pase, d2) = (f.ys("PASE")[last], f.ys("D2TCP")[last]);
            f.note(format!(
                "paper shape: PASE >> D2TCP/DCTCP at high load; measured at the highest load: {pase:.2} vs {d2:.2}"
            ));
        },
    }),
    // Tail FCT: pFabric wins slightly at low load; PASE wins at >= 60%.
    Figure::Row(Row {
        id: "fig10a",
        title: "Tail FCT: PASE vs pFabric (p99, left-right)",
        y_label: "99th percentile FCT (ms)",
        sweep: Sweep::Loads(opts_loads, p99),
        series: |o| lines_on(left_right(o), &PASE_PFABRIC),
        shape: |f| {
            let (pase, pf, last) = (f.ys("PASE"), f.ys("pFabric"), f.xs.len() - 1);
            f.note(format!(
                "paper shape: comparable at low load, PASE better at high load (paper: >85% at 90% load); measured at highest load: {:.2} vs {:.2} ms",
                pase[last], pf[last]
            ));
        },
    }),
    Figure::Row(Row {
        id: "fig10b",
        title: "FCT distribution at 70% load: PASE vs pFabric (left-right)",
        y_label: "FCT (ms)",
        sweep: Sweep::Cdf(CDF_LOAD),
        series: |o| lines_on(left_right(o), &PASE_PFABRIC),
        shape: |f| {
            f.note("paper shape: similar bodies; pFabric's tail inflates from persistent loss")
        },
    }),
    // With the paper's per-load improvement percentages.
    Figure::Row(Row {
        id: "fig10c",
        title: "AFCT: PASE vs pFabric (all-to-all intra-rack)",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(opts_loads, afct),
        series: |o| lines_on(all_to_all(o), &PASE_PFABRIC),
        shape: |f| {
            let pairs = f.ys("PASE").iter().zip(f.ys("pFabric"));
            let imps: Vec<f64> = pairs.map(|(&p, &pf)| improvement_pct(pf, p)).collect();
            f.push_series("improvement(%)", imps);
            f.note("paper shape: PASE lower AFCT across all loads, up to ~85% improvement at high load");
        },
    }),
    Figure::Fn("fig11", fig11::run),
    // End-to-end arbitration vs arbitration only at the endpoints' own
    // access links. Besides the paper's left-right scenario the row runs
    // the all-to-all intra-rack variant: there the contention sits on
    // receiver downlinks that only the end-to-end (receiver-leg)
    // arbitration can see, which is the mechanism the figure is about.
    Figure::Row(Row {
        id: "fig12a",
        title: "End-to-end vs local-only arbitration (AFCT)",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(opts_loads, afct),
        series: |o| {
            let on_off = |prefix: &str, scenario: Scenario| {
                let cfg = Scheme::pase_config_for(&scenario.topo);
                let on = Line {
                    label: format!("{prefix} arb=ON"),
                    scheme: Scheme::PaseWith(cfg),
                    scenario,
                };
                let off = Line {
                    label: format!("{prefix} arb=OFF"),
                    scheme: Scheme::PaseWith(cfg.local_only()),
                    scenario,
                };
                [on, off]
            };
            [on_off("LR", left_right(o)), on_off("A2A", all_to_all(o))].concat()
        },
        shape: |f| {
            let (on, off, last) = (f.ys("A2A arb=ON"), f.ys("A2A arb=OFF"), f.xs.len() - 1);
            // ON's AFCT relative to OFF's: negative means end-to-end wins.
            let delta = -improvement_pct(off[last], on[last]);
            f.note(format!(
                "paper shape: end-to-end arbitration wins when contention is off the access links; measured on all-to-all at the highest load: ON vs OFF AFCT {delta:+.0}% ({})",
                if delta > 0.0 { "worse" } else { "better" }
            ));
            f.note(
                "deviation: on our left-right runs local-only is slightly ahead — the 10 Gbps \
                 bottleneck stays efficient under self-adjusting endpoints alone, and the control \
                 plane's conservatism costs more than SRPT gains there; the receiver-side benefit \
                 the paper describes shows on the all-to-all series",
            );
        },
    }),
    // How many hardware priority queues does PASE need? (paper: 3/4/6/8)
    Figure::Row(Row {
        id: "fig12b",
        title: "PASE with a varying number of priority queues (AFCT, left-right)",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(opts_loads, afct),
        series: |o| {
            let scenario = left_right(o);
            let base = Scheme::pase_config_for(&scenario.topo);
            let line = |n_queues: u8| Line {
                label: format!("{n_queues} Queues"),
                scheme: Scheme::PaseWith(PaseConfig { n_queues, ..base }),
                scenario,
            };
            [3, 4, 6, 8].map(line).to_vec()
        },
        shape: |f| {
            f.note("paper shape: 4 queues already capture most of the benefit at >=70% load; beyond that, marginal")
        },
    }),
    // The value of the reference rate: PASE-DCTCP keeps the arbitrated
    // queues but runs plain DCTCP rate control (intra-rack U(100..500) KB).
    Figure::Row(Row {
        id: "fig13a",
        title: "Guided rate control: PASE vs PASE-DCTCP (AFCT, intra-rack)",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(opts_loads, afct),
        series: |o| {
            let scenario = Scenario::medium_intra_rack(o.flows);
            let cfg = Scheme::pase_config_for(&scenario.topo);
            let entries = [
                ("PASE", Scheme::PaseWith(cfg)),
                ("PASE-DCTCP", Scheme::PaseWith(cfg.without_reference_rate())),
            ];
            lines_on(scenario, &entries)
        },
        shape: |f| {
            let (pase, nodctcp, mid) = (f.ys("PASE"), f.ys("PASE-DCTCP"), f.xs.len() / 2);
            f.note(format!(
                "paper shape: reference rate halves AFCT (paper ~50%); measured mid-load improvement {:.0}%",
                improvement_pct(nodctcp[mid], pase[mid])
            ));
        },
    }),
    // The testbed experiment (9 clients -> 1 server, 1 Gbps, 250 us RTT,
    // U(100..500) KB), run on the simulator: the paper reports that its
    // kernel testbed "matches the results we observed in ns2 simulations".
    Figure::Row(Row {
        id: "fig13b",
        title: "Testbed-like incast: PASE vs DCTCP (AFCT)",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(opts_loads, afct),
        series: |o| {
            let entries = [("PASE", Scheme::Pase), ("DCTCP", Scheme::Dctcp)];
            lines_on(Scenario::testbed(o.flows), &entries)
        },
        shape: |f| {
            let (pase, dctcp, mid) = (f.ys("PASE"), f.ys("DCTCP"), f.xs.len() / 2);
            f.note(format!(
                "paper shape: PASE ~50-60% lower AFCT than DCTCP; measured mid-load improvement {:.0}%",
                improvement_pct(dctcp[mid], pase[mid])
            ));
        },
    }),
    // §4.3.2 micro-benchmark: bottom-queue probing at high load.
    Figure::Row(Row {
        id: "micro_probing",
        title: "Probing for lowest-queue flows: AFCT with probing on/off",
        y_label: "AFCT (ms)",
        sweep: Sweep::Loads(|o| if o.quick { vec![0.8] } else { vec![0.8, 0.9] }, afct),
        series: |o| {
            let scenario = all_to_all(o);
            let on = Scheme::pase_config_for(&scenario.topo);
            let off = PaseConfig {
                probing: false,
                ..on
            };
            let entries = [
                ("probing ON", Scheme::PaseWith(on)),
                ("probing OFF", Scheme::PaseWith(off)),
            ];
            lines_on(scenario, &entries)
        },
        shape: |f| {
            let pairs = f.ys("probing OFF").iter().zip(f.ys("probing ON"));
            let imps: Vec<f64> = pairs.map(|(&off, &on)| improvement_pct(off, on)).collect();
            f.push_series("improvement(%)", imps);
            f.note("paper: probing improves AFCT ~2.4% at 80% load and ~11% at 90%");
        },
    }),
    Figure::Fn("ablations", ablations::run),
    Figure::Fn("ext_incast", |o| vec![ext_incast::run(o)]),
    Figure::Fn("ext_faults", |o| vec![ext_faults::run(o)]),
    Figure::Fn("ext_link_flap", |o| vec![ext_faults::run_link_flap(o)]),
    Figure::Fn("ext_gray", |o| vec![ext_gray::run(o)]),
    Figure::Fn("ext_overload", |o| vec![ext_overload::run(o)]),
    Figure::Fn("ext_scale", |o| vec![ext_scale::run(o)]),
];

/// Fig. 9a and 9b's series.
const PASE_L2DCT_DCTCP: [(&str, Scheme); 3] = [
    ("PASE", Scheme::Pase),
    ("L2DCT", Scheme::L2dct),
    ("DCTCP", Scheme::Dctcp),
];

/// Fig. 10a, 10b and 10c's series.
const PASE_PFABRIC: [(&str, Scheme); 2] = [("PASE", Scheme::Pase), ("pFabric", Scheme::PFabric)];

/// Run every registered figure — or just `opts.only`, when set — and
/// return the results in paper order.
pub fn all(opts: &ExpOpts) -> Vec<FigResult> {
    FIGURES
        .iter()
        .filter(|fig| opts.only.is_empty() || opts.only.iter().any(|only| only == fig.id()))
        .flat_map(|fig| fig.run(opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = FIGURES.iter().map(Figure::id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate figure id");
        assert_eq!(n, 23);
    }
}
