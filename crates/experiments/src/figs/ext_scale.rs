//! Extension: the paper's scalability claim, exercised end to end.
//!
//! PASE's pitch is that explicit arbitration scales to production
//! fabrics because the control plane is hierarchical: ToR arbitrators
//! aggregate their rack's demands, early pruning keeps most requests
//! from ever climbing past the ToR, and delegation moves the
//! aggregation–core allocation down to the ToRs entirely. This
//! experiment runs the k-ary fat-tree at production scale (k = 16,
//! 1024 hosts, ≥100k flows in the full profile) and reports what the
//! three-tier hierarchy actually does:
//!
//! - headline: PASE vs DCTCP and pFabric (the in-repo near-ideal
//!   reference) AFCT on the same fabric and workload, with invariants
//!   enabled and the PASE run executed twice under the dual-run
//!   byte-identical-trace discipline (a [`HashTracer`] digest per run,
//!   asserted equal — the scale refactor must not cost determinism);
//! - link utilisation per fabric tier (ToR–agg, agg–core), max and mean
//!   over the tier's links: PASE arbitrates each tier as one virtual
//!   uplink of the summed capacity, which is only as honest as the
//!   per-flow ECMP spread beneath it;
//! - per-tier control-plane load: arbitration messages processed per
//!   second per arbitrator at the ToR, aggregation and core tiers;
//! - pruning effectiveness vs `prune_depth`: the fraction of
//!   cross-core requests a ToR arbitrator answers locally instead of
//!   forwarding, swept over the pruning depth with delegation disabled
//!   (delegation subsumes pruning for aggregation–core requests, so the
//!   sweep isolates the pruning knob the paper's §3.1.2 tunes).
//!
//! Every run — the four headline cases and one per prune depth — is one
//! line of a single [`super::common::sweep`] at load `LOAD`, so the
//! heavy headline runs share the `--jobs` pool, and a truncated or
//! invariant-breaking run is a `WARNING:` note `run_all` exits 1 on. The
//! big runs report their median and p99 from the GK quantile sketch
//! ([`MetricsMode::Sketch`]), the path the scale refactor added.

use std::sync::{Arc, Mutex, OnceLock};

use netsim::node::Node;
use netsim::prelude::*;
use netsim::topology::NodeKind;
use netsim::trace::HashTracer;
use pase::tree::{Level, TreeInfo};
use workloads::{
    collect_with, MetricsMode, Pattern, RunMetrics, Scenario, Scheme, SizeDist, TopologySpec,
};

use super::common::{lines_on, sweep, Line};
use crate::opts::ExpOpts;
use crate::report::FigResult;

/// Offered load on each host's access link.
const LOAD: f64 = 0.6;

/// Per-tier arbitration load: processed messages and arbitrator count.
#[derive(Debug, Clone, Copy, Default)]
struct TierLoad {
    msgs: [u64; 3],
    arbs: [u64; 3],
}

impl TierLoad {
    fn tier(level: Level) -> usize {
        match level {
            Level::Tor => 0,
            Level::Agg => 1,
            Level::Core => 2,
        }
    }

    /// Group the per-arbitrator processed tallies by tree tier. Host
    /// arbitrators are excluded: the tiers under test are the switch
    /// hierarchy (ToR → agg → core).
    fn measure(sim: &Simulation, tree: &TreeInfo) -> TierLoad {
        let mut out = TierLoad::default();
        for sw in sim.topo().switches() {
            out.arbs[Self::tier(tree.level(sw))] += 1;
        }
        for (node, n) in sim.stats().ctrl_processed_by_node() {
            if sim.topo().kind(node) == NodeKind::Switch {
                out.msgs[Self::tier(tree.level(node))] += n;
            }
        }
        out
    }

    /// Mean messages per second per arbitrator in one tier.
    fn per_arb_per_sec(&self, tier: usize, secs: f64) -> f64 {
        if self.arbs[tier] == 0 || secs <= 0.0 {
            return 0.0;
        }
        self.msgs[tier] as f64 / self.arbs[tier] as f64 / secs
    }
}

/// Link utilisation over a whole run in the two switch-to-switch tiers,
/// ToR–agg and agg–core (both directions of every link): `(max, mean)`
/// per tier, as fractions.
#[derive(Debug, Clone, Copy, Default)]
struct TierUtil([(f64, f64); 2]);

impl TierUtil {
    fn measure(sim: &Simulation, tree: &TreeInfo) -> TierUtil {
        let mut sums = [(0.0f64, 0.0f64, 0u32); 2];
        for node in sim.nodes() {
            let Node::Switch(sw) = node else { continue };
            for port in sw.ports() {
                if sim.topo().kind(port.peer) != NodeKind::Switch {
                    continue;
                }
                let levels = [tree.level(sw.id()), tree.level(port.peer)];
                let (max, sum, n) = &mut sums[levels.contains(&Level::Core) as usize];
                let u = port.utilization(sim.now());
                (*max, *sum, *n) = (max.max(u), *sum + u, *n + 1);
            }
        }
        TierUtil(sums.map(|(max, sum, n)| (max, sum / f64::from(n.max(1)))))
    }

    /// "ToR–agg max …% / mean …%, agg–core …".
    fn describe(&self) -> String {
        let [tor_agg, agg_core] = self.0.map(|(max, mean)| {
            format!(
                "max {:.1}% / mean {:.1}% ({:.2}x)",
                100.0 * max,
                100.0 * mean,
                max / mean.max(f64::MIN_POSITIVE)
            )
        });
        format!("ToR–agg {tor_agg}, agg–core {agg_core}")
    }
}

/// What one run produced, beyond its flow metrics.
struct RunOut {
    metrics: RunMetrics,
    tiers: TierLoad,
    util: TierUtil,
    /// Simulated seconds actually elapsed (denominator for msgs/sec).
    sim_secs: f64,
    /// Total requests answered locally by pruning / forwarded upward.
    pruned: u64,
    climbed: u64,
}

impl RunOut {
    /// Read a finished run: its per-tier load and utilisation, the
    /// pruning tallies and, from the quantile sketch, its flow metrics.
    fn read(m: RunMetrics, sim: Simulation) -> RunOut {
        let tree = TreeInfo::from_topology(sim.topo());
        RunOut {
            metrics: collect_with(&sim, m.outcome, MetricsMode::Sketch),
            tiers: TierLoad::measure(&sim, &tree),
            util: TierUtil::measure(&sim, &tree),
            sim_secs: sim.now().as_nanos() as f64 / 1e9,
            pruned: sim.stats().arb_pruned_by_node().map(|(_, n)| n).sum(),
            climbed: sim.stats().arb_climbed_by_node().map(|(_, n)| n).sum(),
        }
    }
}

/// The scale workload: all-to-all on the k-ary fat-tree, the paper's
/// uniform inter-rack mix at production scale.
fn scale_scenario(k: usize, n_flows: usize) -> Scenario {
    Scenario {
        name: "ext-scale",
        topo: TopologySpec::fat_tree(k),
        pattern: Pattern::AllToAll,
        sizes: SizeDist::UniformBytes {
            lo: 2_000,
            hi: 198_000,
        },
        deadlines: None,
        n_background: 0,
        n_flows,
    }
}

/// PASE with pruning at an explicit depth and delegation off, so every
/// cross-core request faces the prune decision at its ToR.
fn pruning_scheme(topo: &TopologySpec, depth: u8) -> Scheme {
    let mut cfg = Scheme::pase_config_for(topo);
    cfg.delegation = false;
    cfg.prune_depth = Some(depth);
    Scheme::PaseWith(cfg)
}

/// Regenerate the scale extension: pruning effectiveness and per-tier
/// arbitration load vs prune depth, with the PASE / DCTCP / pFabric
/// headline (dual-run determinism included) and each tier's link
/// utilisation in the notes.
pub fn run(opts: &ExpOpts) -> FigResult {
    let (k, headline_flows, depths): (usize, usize, Vec<u8>) = if opts.quick {
        (4, opts.flows.max(300), vec![1, 2, 8])
    } else {
        (16, opts.flows.max(100_000), vec![1, 2, 4, 8])
    };
    // The depth sweep isolates the control plane, not tail FCT: a
    // fraction of the headline's flow count per point keeps the full
    // profile tractable while still pushing >10⁴ requests per run.
    let sweep_flows = if opts.quick {
        headline_flows
    } else {
        headline_flows / 20
    };
    let headline = scale_scenario(k, headline_flows);
    let n_hosts = headline.topo.n_hosts();

    let mut fig = FigResult::new(
        "ext_scale",
        "Production-scale fat-tree: three-tier arbitration load and pruning vs depth",
        "prune depth (queues forwarded upward)",
        "prune fraction (%) / arbitration msgs per sec per arbitrator",
        depths.iter().map(|&d| d as f64).collect(),
    );

    // Headline: PASE twice (dual-run trace discipline, a tracer on each),
    // DCTCP and pFabric once; then the pruning-effectiveness sweep,
    // delegation off and the depth varied. One sweep runs them all.
    let mut lines = lines_on(
        headline,
        &[
            ("PASE", Scheme::Pase),
            ("PASE replay", Scheme::Pase),
            ("DCTCP", Scheme::Dctcp),
            ("pFabric", Scheme::PFabric),
        ],
    );
    let sweep_scenario = scale_scenario(k, sweep_flows);
    lines.extend(depths.iter().map(|&depth| Line {
        label: format!("depth {depth}"),
        scheme: pruning_scheme(&sweep_scenario.topo, depth),
        scenario: sweep_scenario,
    }));
    let digests: [OnceLock<Arc<Mutex<u64>>>; 2] = Default::default();
    let trace = |i: usize, sim: &mut Simulation, _: &[NodeId], _: &mut Vec<FlowSpec>| {
        if let Some(slot) = digests.get(i) {
            let tracer = HashTracer::new();
            slot.set(tracer.digest()).expect("one run per traced line");
            sim.set_tracer(Box::new(tracer));
        }
    };
    let rows = sweep(&mut [&mut fig], &lines, &[LOAD], opts, trace, RunOut::read);
    let [pase, replay] = digests.map(|d| {
        let digest = d.into_inner().expect("a traced PASE run");
        let value = *digest.lock().expect("no run panicked holding its tracer");
        value
    });
    assert_eq!(
        pase, replay,
        "PASE dual-run trace digests diverged at k={k}"
    );
    let runs: Vec<RunOut> = rows.into_iter().flatten().collect();
    let (headline_runs, runs) = runs.split_at(4);
    let [pase_run, _, dctcp, pfabric] = headline_runs else {
        unreachable!("four headline lines");
    };

    fig.note(format!(
        "headline fabric: k={k} fat-tree, {n_hosts} hosts, {headline_flows} flows at load \
         {LOAD}; invariants enabled; PASE executed twice with byte-identical trace digests \
         ({pase:#018x})"
    ));
    for (name, out) in [("PASE", pase_run), ("DCTCP", dctcp), ("pFabric", pfabric)] {
        fig.note(format!(
            "{name}: AFCT {:.3} ms, p99 {:.3} ms, {} flows completed (metrics via GK sketch); \
             link utilisation over the run: {}",
            out.metrics.afct_ms,
            out.metrics.p99_ms,
            out.metrics.n_completed,
            out.util.describe()
        ));
    }
    let tiers = &pase_run.tiers;
    fig.note(format!(
        "PASE per-tier arbitration load (default config, delegation on): ToR {:.0} \
         msgs/s per arbitrator ({} arbs), agg {:.0} ({}), core {:.0} ({})",
        tiers.per_arb_per_sec(0, pase_run.sim_secs),
        tiers.arbs[0],
        tiers.per_arb_per_sec(1, pase_run.sim_secs),
        tiers.arbs[1],
        tiers.per_arb_per_sec(2, pase_run.sim_secs),
        tiers.arbs[2],
    ));

    let frac = |out: &RunOut| {
        let (pruned, climbed) = (out.pruned, out.climbed);
        if pruned + climbed == 0 {
            0.0
        } else {
            100.0 * pruned as f64 / (pruned + climbed) as f64
        }
    };
    fig.push_series("prune fraction (%)", runs.iter().map(frac).collect());
    for (tier, name) in [
        (0, "ToR msgs/s per arb"),
        (1, "agg msgs/s per arb"),
        (2, "core msgs/s per arb"),
    ] {
        fig.push_series(
            name,
            runs.iter()
                .map(|out| out.tiers.per_arb_per_sec(tier, out.sim_secs))
                .collect(),
        );
    }
    for (depth, out) in depths.iter().zip(runs) {
        fig.note(format!(
            "depth {depth}: {} requests answered locally instead of climbing, \
             {} forwarded upward ({:.1}% pruned), AFCT {:.3} ms \
             ({sweep_flows} flows, delegation off)",
            out.pruned,
            out.climbed,
            frac(out),
            out.metrics.afct_ms
        ));
    }
    fig.note(
        "expected: pruning answers most requests at the host/ToR at shallow depths and \
         forwards more as the depth grows, so the prune fraction falls and the ToR/agg \
         per-arbitrator load rises with depth; core arbitrators process no requests at \
         any depth because the aggregation tier owns the agg-core links (with delegation \
         on, even that allocation moves down to the ToRs) — the hierarchy, not a central \
         arbitrator, is what absorbs production scale",
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::super::common::hit_backstop;
    use super::*;

    /// The acceptance bar at smoke scale: every run completes with its
    /// invariants intact, the dual-run digests match (asserted inside
    /// `run`), pruning actually fires and weakens as the depth grows, and
    /// every tier carries arbitration load.
    #[test]
    fn pruning_and_tier_load_behave_at_smoke_scale() {
        let opts = ExpOpts {
            jobs: 2,
            ..ExpOpts::quick()
        };
        let fig = run(&opts);
        assert!(!hit_backstop(&fig), "{:?}", fig.notes);
        let series = |name: &str| fig.ys(name);
        let prune = series("prune fraction (%)");
        assert!(
            prune[0] > 0.0,
            "depth 1 must prune some cross-core requests: {prune:?}"
        );
        assert!(
            prune.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "prune fraction must not rise with depth: {prune:?}"
        );
        let tor = series("ToR msgs/s per arb");
        assert!(
            tor.iter().all(|&v| v > 0.0),
            "ToR arbitrators must carry load at every depth: {tor:?}"
        );
        assert!(
            fig.notes.iter().any(|n| n.contains("byte-identical")),
            "the dual-run determinism note must be present"
        );
        for scheme in ["PASE", "DCTCP", "pFabric"] {
            let note = fig
                .notes
                .iter()
                .find(|n| n.starts_with(&format!("{scheme}: AFCT")));
            let note = note.unwrap_or_else(|| panic!("no {scheme} headline note"));
            assert!(note.contains("ToR–agg max") && note.contains("agg–core max"));
        }
    }
}
