//! Extension: AFCT under a gray failure, health-aware routing on vs off.
//!
//! A gray failure is a link that stays "up" while silently misbehaving:
//! it loses a few percent of packets, corrupts payloads (discarded at
//! the receiver's checksum) and inflates latency. On an ECMP fabric the
//! hash keeps spraying flows onto it, so the victims pay repeated RTOs
//! while every sibling path sits healthy. This experiment degrades one
//! spine uplink of the first leaf on the small leaf–spine fabric and
//! compares PASE, pFabric and DCTCP AFCT with the switch's EWMA
//! port-health rerouting off (hash is blind) and on (degraded siblings
//! are shunned while a healthy equal-cost port exists).

use netsim::prelude::*;
use workloads::{Scenario, Scheme};

use crate::figs::common::{lines_on, sweep, switch_peers};
use crate::opts::ExpOpts;
use crate::report::FigResult;

/// One gray-failure case: when the degrade starts and heals, what it
/// does to the link, and whether switches may route around it.
#[derive(Debug, Clone, Copy)]
struct GrayCase {
    from: SimTime,
    until: SimTime,
    profile: DegradeProfile,
    health_aware: bool,
}

/// Degrade the highest-id spine uplink of the first leaf.
///
/// The *highest*-id spine is deliberate: the first leaf's arbitration
/// parent is the lowest-id spine (its rank among the leaves is 0), so
/// degrading the other one isolates the data-path effect for every scheme
/// (PASE on a gray control channel is exercised in `pase`'s robustness
/// tests).
fn inject_gray(gray: Option<GrayCase>, sim: &mut Simulation, hosts: &[NodeId]) {
    let Some(g) = gray else { return };
    if g.health_aware {
        sim.enable_health_aware_routing();
    }
    let leaf = sim.topo().host_tor(hosts[0]);
    let spine = switch_peers(sim.topo(), leaf)
        .max()
        .expect("leaf must have spine uplinks");
    sim.inject_faults(
        &FaultPlan::new()
            .link_degrade(g.from, leaf, spine, g.profile)
            .link_restore(g.until, leaf, spine),
    );
}

/// Regenerate the gray-failure extension table: AFCT per load for each
/// scheme healthy, degraded with hash-blind ECMP, and degraded with
/// health-aware rerouting.
pub fn run(opts: &ExpOpts) -> FigResult {
    let loads: Vec<f64> = if opts.quick {
        vec![0.3, 0.6]
    } else {
        opts.loads.clone()
    };
    let scenario = Scenario::gray_leaf_spine(opts.hosts_per_rack, opts.flows);
    // The degrade covers the whole flow-arrival window: it starts before
    // the first measured arrival and heals long after the last, so every
    // flow hashed onto the sick uplink lives with it (a realistic gray
    // failure persists far longer than any one flow).
    let profile = DegradeProfile {
        seed: opts.seed ^ 0x9e37_79b9_7f4a_7c15,
        loss_ppm: 50_000,
        corrupt_ppm: 20_000,
        extra_delay_ns: 20_000,
        jitter_ns: 10_000,
    };
    let gray = |health_aware: bool| GrayCase {
        from: SimTime::from_micros(100),
        until: SimTime::from_secs(60),
        profile,
        health_aware,
    };

    let mut fig = FigResult::new(
        "ext_gray",
        "Gray failure: AFCT with one degraded spine uplink (5% loss, 2% corruption)",
        "load",
        "AFCT (ms)",
        loads.clone(),
    );
    let cases: [(&str, Scheme, Option<GrayCase>); 9] = [
        ("PASE", Scheme::Pase, None),
        ("PASE gray", Scheme::Pase, Some(gray(false))),
        ("PASE gray+HA", Scheme::Pase, Some(gray(true))),
        ("pFabric", Scheme::PFabric, None),
        ("pFabric gray", Scheme::PFabric, Some(gray(false))),
        ("pFabric gray+HA", Scheme::PFabric, Some(gray(true))),
        ("DCTCP", Scheme::Dctcp, None),
        ("DCTCP gray", Scheme::Dctcp, Some(gray(false))),
        ("DCTCP gray+HA", Scheme::Dctcp, Some(gray(true))),
    ];
    let lines = lines_on(scenario, &cases.map(|(name, scheme, _)| (name, scheme)));
    let afcts = sweep(
        &mut [&mut fig],
        &lines,
        &loads,
        opts,
        |i, sim, hosts, _| inject_gray(cases[i].2, sim, hosts),
        |m, _| m.afct_ms,
    );
    for (line, row) in lines.into_iter().zip(afcts) {
        fig.push_series(line.label, row);
    }

    // The headline delta: how much of the gray-failure AFCT penalty does
    // health-aware rerouting claw back, averaged over the load sweep?
    for chunk in cases.chunks(3) {
        let scheme = chunk[0].0;
        let mean = |name: &str| {
            let ys = fig.ys(name);
            ys.iter().sum::<f64>() / ys.len() as f64
        };
        let h = mean(scheme);
        let b = mean(&format!("{scheme} gray"));
        let a = mean(&format!("{scheme} gray+HA"));
        fig.note(format!(
            "{scheme}: mean AFCT {h:.3} ms healthy, {b:.3} ms degraded hash-blind, \
             {a:.3} ms with health-aware rerouting — rerouting recovers {:.0}% of the \
             gray-failure penalty",
            if b > h {
                100.0 * (b - a) / (b - h)
            } else {
                0.0
            }
        ));
    }
    fig.note(
        "one of the first leaf's two spine uplinks is degraded (5% loss, 2% payload \
         corruption, +20 us latency, 10 us jitter) across the whole arrival window; \
         the degraded spine is the non-parent one for PASE's control plane, so only \
         the data path is sick",
    );
    fig.note(
        "expected: every cell completes; hash-blind ECMP keeps half of the first \
         leaf's flows on the sick path and their RTO recovery dominates AFCT; with \
         health-aware rerouting the leaf's EWMA port health collapses within a few \
         drops and re-hashes those flows onto the healthy spine, so 'gray+HA' sits \
         near the healthy line (the residual gap is the reverse direction: ACKs from \
         remote leaves still hash across both spines and the spine has no sibling \
         for its one downlink to the leaf — degraded beats blackhole)",
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figs::common::hit_backstop;

    /// The acceptance bar for the experiment itself: every cell
    /// completes with its invariants intact, the gray failure must hurt,
    /// and health-aware rerouting must claw back most of the penalty for
    /// every scheme.
    #[test]
    fn health_aware_rerouting_beats_hash_blind_ecmp() {
        let opts = ExpOpts {
            flows: 120,
            hosts_per_rack: 4,
            jobs: 2,
            ..ExpOpts::quick()
        };
        let fig = run(&opts);
        assert!(!hit_backstop(&fig), "{:?}", fig.notes);
        let mean = |name: &str| {
            let ys = fig.ys(name);
            ys.iter().sum::<f64>() / ys.len() as f64
        };
        for scheme in ["PASE", "pFabric", "DCTCP"] {
            let healthy = mean(scheme);
            let blind = mean(&format!("{scheme} gray"));
            let aware = mean(&format!("{scheme} gray+HA"));
            assert!(
                blind > healthy,
                "{scheme}: the gray failure must cost AFCT ({blind} vs {healthy})"
            );
            assert!(
                aware < healthy + (blind - healthy) / 2.0,
                "{scheme}: rerouting must recover most of the penalty \
                 (healthy {healthy}, blind {blind}, aware {aware})"
            );
        }
    }
}
