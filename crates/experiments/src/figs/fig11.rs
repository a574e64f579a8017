//! Figure 11: what the control-plane optimizations (early pruning +
//! delegation) buy — AFCT improvement (a) and overhead reduction (b) on
//! the left-right scenario.

use workloads::{Scenario, Scheme};

use super::common::{improvement_pct, loads_pct, sweep_grid};
use crate::opts::ExpOpts;
use crate::report::FigResult;

/// Regenerate Figures 11a and 11b (returned in that order).
pub fn run(opts: &ExpOpts) -> Vec<FigResult> {
    let scenario = Scenario::left_right(opts.hosts_per_rack, opts.flows);
    let base_cfg = Scheme::pase_config_for(&scenario.topo);
    let rows = sweep_grid(
        &[
            ("optimizations ON", Scheme::PaseWith(base_cfg)),
            (
                "optimizations OFF",
                Scheme::PaseWith(base_cfg.without_optimizations()),
            ),
        ],
        scenario,
        &opts.loads,
        opts,
    );
    let afct_on: Vec<f64> = rows[0].iter().map(|m| m.afct_ms).collect();
    let ctrl_on: Vec<f64> = rows[0].iter().map(|m| m.ctrl_pkts as f64).collect();
    let afct_off: Vec<f64> = rows[1].iter().map(|m| m.afct_ms).collect();
    let ctrl_off: Vec<f64> = rows[1].iter().map(|m| m.ctrl_pkts as f64).collect();
    let mut fig_a = FigResult::new(
        "fig11a",
        "AFCT improvement from early pruning + delegation",
        "load(%)",
        "AFCT improvement (%)",
        loads_pct(&opts.loads),
    );
    fig_a.push_series(
        "improvement",
        afct_off
            .iter()
            .zip(&afct_on)
            .map(|(&off, &on)| improvement_pct(off, on))
            .collect(),
    );
    fig_a.note(
        "paper: optimizations improve AFCT ~4-10% (their flows wait for arbitration, so \
         delegation removes setup latency). Our flows start on local information and \
         refine (DESIGN.md §7b, deviation 4), so the AFCT effect is near zero \
         and can dip slightly negative: the virtual-slice rigidity costs a little accuracy.",
    );

    let mut fig_b = FigResult::new(
        "fig11b",
        "Control-overhead reduction from early pruning + delegation",
        "load(%)",
        "control packets saved (%)",
        loads_pct(&opts.loads),
    );
    fig_b.push_series(
        "reduction",
        ctrl_off
            .iter()
            .zip(&ctrl_on)
            .map(|(&off, &on)| improvement_pct(off, on))
            .collect(),
    );
    fig_b.note("paper shape: up to ~50% fewer arbitration messages, growing with load");
    vec![fig_a, fig_b]
}
