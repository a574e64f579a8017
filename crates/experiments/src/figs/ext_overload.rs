//! Extension: AFCT under a control-plane overload storm, load shedding
//! on vs off.
//!
//! An arbitration storm models a flash crowd hammering PASE's control
//! plane: every arbitrator's inbox charge is amplified while a burst of
//! short flows lands mid-window. With the shed policy on, overloaded
//! arbitrators drop stale refreshes first and answer everything else
//! with an explicit load-shed reply, so senders back off their refresh
//! cadence multiplicatively and the AFCT inflation stays bounded. With
//! it off (the pre-protection ablation) the bounded inbox tail-drops
//! silently — responses and `FlowDone` releases included — so leases
//! leak until expiry, watchdogs trip fleet-wide, and AFCT collapses to
//! the self-adjusting floor. DCTCP rides along as a control: it has no
//! control plane, so the storm only contributes its flash-crowd flows.

use netsim::prelude::*;
use workloads::{Scenario, Scheme};

use crate::chaos::flash_crowd_burst;
use crate::figs::common::{grid, run_faulted};
use crate::opts::ExpOpts;
use crate::report::FigResult;

/// Inbox-charge amplification during the storm (the modelled crowd is
/// ~50× the simulated sender population).
const AMPLIFY: u32 = 48;

/// One case's control-plane ledger, for the notes.
#[derive(Debug, Clone, Copy, Default)]
struct CtrlLoad {
    processed: u64,
    shed: u64,
    bytes: u64,
    peak_depth: u64,
}

/// Storm every arbitrator (hosts and switches alike) in an episode around
/// each of three flash-crowd bursts at 25/50/75% of the arrival window.
/// Episodic — not permanent — overload is the regime the shed policy is
/// built for: during a burst the protected arbitrators keep answering
/// fresh requests and tell everyone else to back off, then recover
/// between bursts; a permanent storm would just be a dead control plane,
/// which the crash watchdog already covers.
fn inject_storm(
    sim: &mut Simulation,
    hosts: &[NodeId],
    flows: &mut Vec<FlowSpec>,
    seed: u64,
    quick: bool,
) {
    let measured = flows.iter().filter(|f| f.measured);
    let window = measured.map(|f| f.start.as_nanos()).max().unwrap_or(0);
    // The crowd is drawn from a dedicated RNG stream. It pressures the
    // arbitrators and the fabric but is not measured: every case's AFCT
    // population is the same base workload, so series differ only by the
    // storm's control-plane effect (plus the crowd's data contention).
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x0ad1);
    let burst = if quick { 8 } else { 16 };
    let arbitrators = [sim.topo().switches(), hosts.to_vec()].concat();
    let mut plan = FaultPlan::new();
    for frac in [1u64, 2, 3] {
        // One episode per burst, centred slightly after it: the crowd's
        // arbitration spike leads the inbox-charge wave. Episodes span
        // ~w/6 each and never overlap (bursts sit w/4 apart).
        let mid = window * frac / 4;
        let from = SimTime::from_nanos(mid.saturating_sub(window / 24).max(1_000));
        let until = SimTime::from_nanos(mid + window / 8);
        for &node in &arbitrators {
            plan = plan
                .ctrl_storm_start(from, node, AMPLIFY)
                .ctrl_storm_end(until, node);
        }
        flash_crowd_burst(
            &mut rng,
            hosts,
            SimTime::from_nanos(mid),
            burst,
            false,
            flows,
        );
    }
    sim.inject_faults(&plan);
}

/// Regenerate the overload extension table: AFCT per load for PASE
/// healthy, stormed with shedding, stormed with the naive tail-drop
/// inbox, and DCTCP healthy/stormed as the no-control-plane control.
pub fn run(opts: &ExpOpts) -> FigResult {
    let loads: Vec<f64> = if opts.quick {
        vec![0.3, 0.6]
    } else {
        opts.loads.clone()
    };
    let scenario = Scenario::overload_leaf_spine(opts.hosts_per_rack, opts.flows);
    let pase = Scheme::PaseWith(Scheme::pase_config_for(&scenario.topo));
    let noshed = Scheme::PaseWith(Scheme::pase_config_for(&scenario.topo).without_shedding());

    let mut fig = FigResult::new(
        "ext_overload",
        "Control-plane overload: AFCT under an arbitration storm, shedding on vs off",
        "load",
        "AFCT (ms)",
        loads.clone(),
    );
    let cases: [(&str, Scheme, bool); 5] = [
        ("PASE", pase, false),
        ("PASE storm", pase, true),
        ("PASE storm noshed", noshed, true),
        ("DCTCP", Scheme::Dctcp, false),
        ("DCTCP storm", Scheme::Dctcp, true),
    ];
    let results = grid(&cases, scenario, &loads, opts, |spec, storm| {
        let (m, sim) = run_faulted(spec, |sim, hosts, flows| {
            if storm {
                inject_storm(sim, hosts, flows, opts.seed, opts.quick);
            }
        });
        let peak_depth = sim.stats().ctrl_peak_epoch_by_node().map(|(_, d)| d).max();
        let ctrl = CtrlLoad {
            processed: m.ctrl_processed,
            shed: m.ctrl_shed,
            bytes: m.ctrl_bytes,
            peak_depth: peak_depth.unwrap_or(0),
        };
        (m.afct_ms, ctrl)
    });
    for (&(name, _, _), row) in cases.iter().zip(&results) {
        fig.push_series(name, row.iter().map(|(afct, _)| *afct).collect());
        let n = row.len() as u64;
        let sum = row
            .iter()
            .fold(CtrlLoad::default(), |acc, (_, c)| CtrlLoad {
                processed: acc.processed + c.processed,
                shed: acc.shed + c.shed,
                bytes: acc.bytes + c.bytes,
                peak_depth: acc.peak_depth.max(c.peak_depth),
            });
        fig.note(format!(
            "{name}: mean ctrl processed {} / shed {} per run, mean ctrl bytes {}, \
             peak weighted inbox depth {}",
            sum.processed / n,
            sum.shed / n,
            sum.bytes / n,
            sum.peak_depth
        ));
    }

    let mean = |name: &str| {
        let ys = &fig.series_named(name).expect(name).ys;
        ys.iter().sum::<f64>() / ys.len() as f64
    };
    let (healthy, shed, noshed_afct) =
        (mean("PASE"), mean("PASE storm"), mean("PASE storm noshed"));
    fig.note(format!(
        "PASE: mean AFCT {healthy:.3} ms healthy, {shed:.3} ms stormed with load \
         shedding, {noshed_afct:.3} ms stormed with the naive tail-drop inbox — \
         shedding keeps the overload penalty at {:.0}% of the unprotected one",
        if noshed_afct > healthy {
            100.0 * (shed - healthy).max(0.0) / (noshed_afct - healthy)
        } else {
            0.0
        }
    ));
    fig.note(format!(
        "three flash-crowd bursts of short flows land at 25/50/75% of the arrival \
         window; around each burst every arbitrator (hosts and switches) is stormed \
         at {AMPLIFY}x inbox charge for ~1/6 of the window, then recovers"
    ));
    fig.note(
        "expected: with shedding on, stale refreshes are shed first and every shed \
         request still draws a backpressure reply, so in-flight flows keep their \
         last allocation, stretch their refresh cadence, and ride out each burst; \
         with shedding off the bounded inbox silently tail-drops everything — \
         responses and FlowDone releases included — so each episode leaks leases, \
         silences every sender, and slams the fleet into cwnd-1 fallback while new \
         flows start blind; DCTCP has no control plane, so its storm series moves \
         only by the flash-crowd flows",
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the experiment itself: the storm must
    /// actually shed, shedding must beat the naive tail-drop inbox, and
    /// everything still completes (asserted inside each run).
    #[test]
    fn shedding_bounds_the_overload_penalty() {
        let opts = ExpOpts {
            flows: 120,
            hosts_per_rack: 4,
            jobs: 2,
            ..ExpOpts::quick()
        };
        let fig = run(&opts);
        let mean = |name: &str| {
            let ys = &fig.series_named(name).expect(name).ys;
            ys.iter().sum::<f64>() / ys.len() as f64
        };
        let (healthy, shed, noshed) = (mean("PASE"), mean("PASE storm"), mean("PASE storm noshed"));
        assert!(
            noshed > healthy,
            "the unprotected storm must cost AFCT ({noshed} vs {healthy})"
        );
        assert!(
            shed < noshed,
            "load shedding must beat the naive tail-drop inbox \
             (shed {shed}, noshed {noshed})"
        );
        let shed_note = fig
            .notes
            .iter()
            .find(|n| n.starts_with("PASE storm:"))
            .expect("ctrl-load note for the shedding storm case");
        assert!(
            !shed_note.contains("shed 0 "),
            "the stormed shedding case must actually shed: {shed_note}"
        );
    }
}
