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

use super::common::{improvement_pct, sweep_grid, sweep_into};
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
    let rows = sweep_grid(&entries, scenario, &[ABLATION_LOAD], opts);
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
    let labels: Vec<String> = multiples.iter().map(|m| format!("{m}x RTT")).collect();
    let entries: Vec<(&str, Scheme)> = multiples
        .iter()
        .zip(&labels)
        .map(|(&m, label)| {
            let mut cfg = base;
            cfg.arb_refresh = base.base_rtt.mul_f64(m);
            cfg.arb_expiry = cfg.arb_refresh.saturating_mul(4);
            (label.as_str(), Scheme::PaseWith(cfg))
        })
        .collect();
    let rows = sweep_grid(&entries, scenario, &[ABLATION_LOAD], opts);
    fig.push_series("AFCT(ms)", rows.iter().map(|r| r[0].afct_ms).collect());
    fig.push_series(
        "ctrl pkts",
        rows.iter().map(|r| r[0].ctrl_pkts as f64).collect(),
    );
    fig.note("staler arbitration trades AFCT for control overhead; one RTT is the paper's operating point");
    fig
}

/// Heavy-tailed workload (extension): PASE vs DCTCP vs pFabric.
pub fn websearch(opts: &ExpOpts) -> FigResult {
    let scenario = Scenario::websearch_left_right(opts.hosts_per_rack, opts.flows);
    let loads = if opts.quick {
        vec![0.5]
    } else {
        vec![0.3, 0.5, 0.7]
    };
    let mut fig = FigResult::new(
        "ext_websearch",
        "Heavy-tailed (web-search-like) sizes: AFCT (left-right)",
        "load(%)",
        "AFCT (ms)",
        loads.iter().map(|l| l * 100.0).collect(),
    );
    let opts_at = ExpOpts {
        loads: loads.clone(),
        ..opts.clone()
    };
    sweep_into(
        &mut fig,
        &[
            ("PASE", Scheme::Pase),
            ("DCTCP", Scheme::Dctcp),
            ("pFabric", Scheme::PFabric),
        ],
        scenario,
        &opts_at,
        super::common::afct,
    );
    fig.note("with a long tail, SRPT-style scheduling helps even more: most flows are short and jump the few elephants");
    fig
}

/// All ablations, in order.
pub fn run(opts: &ExpOpts) -> Vec<FigResult> {
    vec![prune_depth(opts), refresh_period(opts), websearch(opts)]
}
