//! Ablations beyond the paper's figures: sensitivity of PASE to its own
//! design knobs (DESIGN.md §7c). Three sweeps at a fixed high load on the
//! left-right scenario:
//!
//! * **pruning depth** — how many top queues climb the hierarchy
//!   (paper §3.1.2 argues top-2 is the sweet spot);
//! * **arbitration refresh period** — staleness vs control overhead;
//! * **heavy-tailed workload** — PASE vs DCTCP vs pFabric on a
//!   web-search-like size mix (intro motivation).

use workloads::{Scenario, Scheme};

use super::common::{afct, improvement_pct, lines_on, sweep_grid, Line, Row, Sweep};
use crate::opts::ExpOpts;
use crate::report::FigResult;

/// Load at which the knob sweeps run.
const ABLATION_LOAD: f64 = 0.7;

/// Pruning-depth sweep: AFCT and control packets for depth 1, 2, 3 and
/// pruning disabled. Delegation is switched off so requests actually
/// climb the hierarchy — with delegation on, nothing passes the ToR and
/// pruning has almost nothing to prune.
pub fn prune_depth(opts: &ExpOpts) -> FigResult {
    let scenario = Scenario::left_right(opts.hosts_per_rack, opts.flows);
    let mut base = Scheme::pase_config_for(&scenario.topo);
    base.delegation = false;
    let mut fig = FigResult::new(
        "ablation_prune",
        "Early-pruning depth at 70% load (left-right)",
        "prune depth",
        "AFCT (ms) / ctrl packets",
        vec![1.0, 2.0, 3.0, f64::INFINITY],
    );
    let entries: Vec<(&str, Scheme)> = [
        ("depth 1", Some(1u8)),
        ("depth 2", Some(2)),
        ("depth 3", Some(3)),
        ("no pruning", None),
    ]
    .map(|(label, depth)| {
        let mut cfg = base;
        match depth {
            Some(d) => {
                cfg.early_pruning = true;
                cfg.prune_depth = d;
            }
            None => cfg.early_pruning = false,
        }
        (label, Scheme::PaseWith(cfg))
    })
    .to_vec();
    let lines = lines_on(scenario, &entries);
    let rows = sweep_grid(&mut [&mut fig], &lines, &[ABLATION_LOAD], opts);
    let afcts: Vec<f64> = rows.iter().map(|r| r[0].afct_ms).collect();
    let ctrls: Vec<f64> = rows.iter().map(|r| r[0].ctrl_pkts as f64).collect();
    fig.push_series("AFCT(ms)", afcts.clone());
    fig.push_series("ctrl pkts", ctrls.clone());
    fig.note(format!(
        "depth-2 AFCT is within {:.1}% of unpruned; pruning saves little on this scenario \
         because the *lower*-level links (host and ToR uplinks) are far from saturated, so \
         flows are almost never mapped outside the top queues before the request climbs — \
         the Fig. 11b overhead reduction comes mostly from delegation",
        improvement_pct(afcts[3], afcts[1]).abs(),
    ));
    fig
}

/// Refresh-period sweep: multiples of the base RTT.
pub fn refresh_period(opts: &ExpOpts) -> FigResult {
    let scenario = Scenario::left_right(opts.hosts_per_rack, opts.flows);
    let base = Scheme::pase_config_for(&scenario.topo);
    let multiples = [0.5, 1.0, 2.0, 4.0, 8.0];
    let mut fig = FigResult::new(
        "ablation_refresh",
        "Arbitration refresh period at 70% load (left-right)",
        "refresh (x base RTT)",
        "AFCT (ms) / ctrl packets",
        multiples.to_vec(),
    );
    let lines: Vec<Line> = multiples
        .iter()
        .map(|&m| {
            let mut cfg = base;
            cfg.arb_refresh = base.base_rtt.mul_f64(m);
            Line {
                label: format!("{m}x RTT"),
                scheme: Scheme::PaseWith(cfg),
                scenario,
            }
        })
        .collect();
    let rows = sweep_grid(&mut [&mut fig], &lines, &[ABLATION_LOAD], opts);
    let afct: Vec<f64> = rows.iter().map(|r| r[0].afct_ms).collect();
    let ctrl: Vec<f64> = rows.iter().map(|r| r[0].ctrl_pkts as f64).collect();
    let lo = afct.iter().copied().fold(f64::NAN, f64::min);
    let hi = afct.iter().copied().fold(f64::NAN, f64::max);
    let (spread, fewer) = (100.0 * (hi - lo) / lo, ctrl[0] / ctrl[4]);
    fig.note(format!("AFCT stays within {spread:.1}% ({lo:.3}–{hi:.3} ms) from 0.5x to 8x RTT while control packets fall {fewer:.1}x; one RTT is the paper's operating point"));
    fig.push_series("AFCT(ms)", afct);
    fig.push_series("ctrl pkts", ctrl);
    fig
}

/// Heavy-tailed workload (extension): PASE vs DCTCP vs pFabric.
pub const WEBSEARCH: Row = Row {
    id: "ext_websearch",
    title: "Heavy-tailed (web-search-like) sizes: AFCT (left-right)",
    y_label: "AFCT (ms)",
    sweep: Sweep::Loads(
        |o| {
            if o.quick {
                vec![0.5]
            } else {
                vec![0.3, 0.5, 0.7]
            }
        },
        afct,
    ),
    series: |o| {
        let entries = [
            ("PASE", Scheme::Pase),
            ("DCTCP", Scheme::Dctcp),
            ("pFabric", Scheme::PFabric),
        ];
        lines_on(
            Scenario::websearch_left_right(o.hosts_per_rack, o.flows),
            &entries,
        )
    },
    shape: |f| {
        f.note("with a long tail, SRPT-style scheduling helps even more: most flows are short and jump the few elephants")
    },
};

/// All ablations, in order.
pub fn run(opts: &ExpOpts) -> Vec<FigResult> {
    vec![prune_depth(opts), refresh_period(opts), WEBSEARCH.run(opts)]
}
