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
//! The big runs report their median and p99 from the GK quantile sketch
//! ([`MetricsMode::Sketch`]), the path the scale refactor added.

use netsim::node::Node;
use netsim::prelude::*;
use netsim::topology::NodeKind;
use netsim::trace::HashTracer;
use pase::tree::{Level, TreeInfo};
use workloads::runner::backstop_warning;
use workloads::{
    collect_with, run_cases, MetricsMode, Pattern, RunMetrics, RunSpec, Scenario, Scheme, SizeDist,
    TopologySpec,
};

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
    /// Trace digest, when a tracer was installed.
    digest: Option<u64>,
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

/// Run one case on the fat-tree, (optionally) traced; it must complete
/// with its invariants intact.
fn run_scale(scheme: Scheme, scenario: &Scenario, seed: u64, traced: bool) -> RunOut {
    let spec = RunSpec::new(scheme, *scenario, LOAD, seed);
    let mut digest = None;
    let (m, sim) = spec.run_with(|sim, _, _| {
        if traced {
            let tracer = HashTracer::new();
            digest = Some(tracer.digest());
            sim.set_tracer(Box::new(tracer));
        }
    });
    let digest = digest.map(|h| *h.lock().unwrap());
    if let Some(w) = backstop_warning(&spec, &m) {
        panic!("{} scale run: {w}", scheme.name());
    }
    let tree = TreeInfo::from_topology(sim.topo());
    let tiers = TierLoad::measure(&sim, &tree);
    let util = TierUtil::measure(&sim, &tree);
    let sim_secs = sim.now().as_nanos() as f64 / 1e9;
    let pruned: u64 = sim.stats().arb_pruned_by_node().map(|(_, n)| n).sum();
    let climbed: u64 = sim.stats().arb_climbed_by_node().map(|(_, n)| n).sum();
    // The big runs report their percentiles from the quantile sketch.
    let metrics = collect_with(&sim, m.outcome, MetricsMode::Sketch);
    RunOut {
        metrics,
        tiers,
        util,
        sim_secs,
        pruned,
        climbed,
        digest,
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

    // Headline: PASE twice (dual-run trace discipline), DCTCP and
    // pFabric once.
    let pase = run_scale(Scheme::Pase, &headline, opts.seed, true);
    let replay = run_scale(Scheme::Pase, &headline, opts.seed, true);
    assert_eq!(
        pase.digest, replay.digest,
        "PASE dual-run trace digests diverged at k={k}"
    );
    let dctcp = run_scale(Scheme::Dctcp, &headline, opts.seed, false);
    let pfabric = run_scale(Scheme::PFabric, &headline, opts.seed, false);
    fig.note(format!(
        "headline fabric: k={k} fat-tree, {n_hosts} hosts, {headline_flows} flows at load \
         {LOAD}; invariants enabled; PASE executed twice with byte-identical trace digests \
         ({:#018x})",
        pase.digest.unwrap_or(0)
    ));
    for (name, out) in [("PASE", &pase), ("DCTCP", &dctcp), ("pFabric", &pfabric)] {
        fig.note(format!(
            "{name}: AFCT {:.3} ms, p99 {:.3} ms, {} flows completed (metrics via GK sketch); \
             link utilisation over the run: {}",
            out.metrics.afct_ms,
            out.metrics.p99_ms,
            out.metrics.n_completed,
            out.util.describe()
        ));
    }
    fig.note(format!(
        "PASE per-tier arbitration load (default config, delegation on): ToR {:.0} \
         msgs/s per arbitrator ({} arbs), agg {:.0} ({}), core {:.0} ({})",
        pase.tiers.per_arb_per_sec(0, pase.sim_secs),
        pase.tiers.arbs[0],
        pase.tiers.per_arb_per_sec(1, pase.sim_secs),
        pase.tiers.arbs[1],
        pase.tiers.per_arb_per_sec(2, pase.sim_secs),
        pase.tiers.arbs[2],
    ));

    // Pruning-effectiveness sweep: delegation off, depth varied.
    let sweep = scale_scenario(k, sweep_flows);
    let runs = run_cases(&depths, opts.jobs, |&depth| {
        let out = run_scale(pruning_scheme(&sweep.topo, depth), &sweep, opts.seed, false);
        (
            out.pruned,
            out.climbed,
            out.tiers,
            out.sim_secs,
            out.metrics.afct_ms,
        )
    });
    let frac = |pruned: u64, climbed: u64| {
        if pruned + climbed == 0 {
            0.0
        } else {
            100.0 * pruned as f64 / (pruned + climbed) as f64
        }
    };
    fig.push_series(
        "prune fraction (%)",
        runs.iter().map(|&(p, c, ..)| frac(p, c)).collect(),
    );
    for (tier, name) in [
        (0, "ToR msgs/s per arb"),
        (1, "agg msgs/s per arb"),
        (2, "core msgs/s per arb"),
    ] {
        fig.push_series(
            name,
            runs.iter()
                .map(|&(_, _, t, secs, _)| t.per_arb_per_sec(tier, secs))
                .collect(),
        );
    }
    for (&depth, &(pruned, climbed, _, _, afct)) in depths.iter().zip(&runs) {
        fig.note(format!(
            "depth {depth}: {pruned} requests answered locally instead of climbing, \
             {climbed} forwarded upward ({:.1}% pruned), AFCT {afct:.3} ms \
             ({sweep_flows} flows, delegation off)",
            frac(pruned, climbed)
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
    use super::*;

    /// The acceptance bar at smoke scale: the dual-run digests match
    /// (asserted inside `run`), pruning actually fires and weakens as
    /// the depth grows, and every tier carries arbitration load.
    #[test]
    fn pruning_and_tier_load_behave_at_smoke_scale() {
        let opts = ExpOpts {
            jobs: 2,
            ..ExpOpts::quick()
        };
        let fig = run(&opts);
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
