//! Extension: AFCT under an arbitrator outage.
//!
//! The paper's recovery story (§3.1.3) is qualitative: arbitrators keep
//! only soft state, and a flow that stops hearing back "falls back to
//! the self-adjusting behavior". This experiment quantifies it. We run
//! the left-right workload and, mid-run, crash **every** arbitrator; in
//! the `outage` variant they restart after a blackout window and rebuild
//! their state purely from endpoint refreshes, in the `blackout` variant
//! they never come back. DCTCP — which has no control plane to lose —
//! runs under the identical fault plan as the reference point: PASE's
//! degraded mode *is* a DCTCP-style self-adjusting transport, so during
//! the outage its AFCT must never drift past the DCTCP line. Flows whose
//! host arbitrators still answer keep arbitrating locally, which on
//! left-right sits at or below healthy PASE (DESIGN §7b.9).

use netsim::prelude::*;
use workloads::{Scenario, Scheme};

use crate::figs::common::{lines_on, sweep, switch_peers, Line};
use crate::opts::ExpOpts;
use crate::report::FigResult;

/// When the arbitrators die and (optionally) come back.
#[derive(Debug, Clone, Copy)]
struct Outage {
    crash: SimTime,
    restart: Option<SimTime>,
}

/// Crash (and, for an outage, restart) the arbitrator on every switch.
fn inject_outage(outage: Option<Outage>, sim: &mut Simulation) {
    let Some(o) = outage else { return };
    let mut plan = FaultPlan::new();
    for sw in sim.topo().switches() {
        plan = plan.arbitrator_crash(o.crash, sw);
        if let Some(r) = o.restart {
            plan = plan.arbitrator_restart(r, sw);
        }
    }
    sim.inject_faults(&plan);
}

/// Regenerate the fault-tolerance extension table.
pub fn run(opts: &ExpOpts) -> FigResult {
    let loads: Vec<f64> = if opts.quick {
        vec![0.3, 0.6]
    } else {
        opts.loads.clone()
    };
    let scenario = Scenario::left_right(opts.hosts_per_rack, opts.flows);
    // Place the blackout well inside the flow-arrival window so a
    // meaningful share of flows lives through it. Quick runs are an
    // order of magnitude shorter than full ones.
    let (crash, restart) = if opts.quick {
        (SimTime::from_millis(2), SimTime::from_millis(8))
    } else {
        (SimTime::from_millis(10), SimTime::from_millis(40))
    };
    let outage = Outage {
        crash,
        restart: Some(restart),
    };
    let blackout = Outage {
        crash,
        restart: None,
    };

    let mut fig = FigResult::new(
        "ext_faults",
        "Arbitrator outage: AFCT with a fleet-wide control-plane crash mid-run",
        "load",
        "AFCT (ms)",
        loads.clone(),
    );
    let cases: [(&str, Scheme, Option<Outage>); 5] = [
        ("PASE", Scheme::Pase, None),
        ("PASE outage", Scheme::Pase, Some(outage)),
        ("PASE blackout", Scheme::Pase, Some(blackout)),
        ("DCTCP", Scheme::Dctcp, None),
        ("DCTCP outage", Scheme::Dctcp, Some(outage)),
    ];
    let lines = lines_on(scenario, &cases.map(|(name, scheme, _)| (name, scheme)));
    let afcts = sweep(
        &mut [&mut fig],
        &lines,
        &loads,
        opts,
        |i, sim, _, _| inject_outage(cases[i].2, sim),
        |m, _| m.afct_ms,
    );
    for (line, row) in lines.into_iter().zip(afcts) {
        fig.push_series(line.label, row);
    }
    fig.note(format!(
        "arbitrators crash at {crash}; the outage variant restarts them at {restart} \
         (soft state rebuilt from endpoint refreshes alone), the blackout variant never does"
    ));
    fig.note(
        "expected: every cell completes (no hangs); PASE-blackout never degrades past DCTCP \
         (fallback *is* a DCTCP-style transport on the lowest queue, and flows whose host \
         arbitrators still answer keep local-only arbitration, at or below healthy PASE on \
         left-right); PASE-outage sits between PASE and PASE-blackout at loads where a \
         meaningful share of flows overlaps the blackout window (differences at light load \
         are within noise); DCTCP is unaffected by the fault plan (no control plane to lose)",
    );
    fig
}

/// Flap rack 0's uplink: from `first`, every `period` the ToR's single
/// uplink goes down for `period / 4`, over `window` (most of the
/// flow-arrival process).
fn inject_flaps(
    sim: &mut Simulation,
    hosts: &[NodeId],
    (first, period, window): (SimTime, SimDuration, SimDuration),
) {
    let tor = sim.topo().host_tor(hosts[0]);
    // The ToR's single uplink is its unique switch neighbor.
    let agg = switch_peers(sim.topo(), tor)
        .next()
        .expect("ToR must have an uplink");
    let mut plan = FaultPlan::new();
    let mut at = first;
    let end = first + window;
    while at < end {
        plan = plan
            .link_down(at, tor, agg)
            .link_up(at + period / 4, tor, agg);
        at += period;
    }
    sim.inject_faults(&plan);
}

/// Regenerate the link-flap extension table: AFCT vs. flap period for a
/// ToR uplink that is down 25% of the time while flows arrive.
pub fn run_link_flap(opts: &ExpOpts) -> FigResult {
    let periods_ms: Vec<u64> = if opts.quick {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16]
    };
    let scenario = Scenario::left_right(opts.hosts_per_rack, opts.flows);
    let load = 0.6;
    // Start flapping once the arrival process is under way and keep it up
    // across most of the arrival window (quick runs are much shorter).
    let (first, window) = if opts.quick {
        (SimTime::from_millis(1), SimDuration::from_millis(16))
    } else {
        (SimTime::from_millis(5), SimDuration::from_millis(60))
    };

    let mut fig = FigResult::new(
        "ext_link_flap",
        "Flapping ToR uplink: AFCT vs. flap period (25% downtime) at 60% load",
        "flap period (ms)",
        "AFCT (ms)",
        periods_ms.iter().map(|&p| p as f64).collect(),
    );
    let schemes = [Scheme::Pase, Scheme::Dctcp];
    // One line per (scheme, period) plus a healthy baseline per scheme.
    let cases: Vec<(Scheme, Option<u64>)> = schemes
        .iter()
        .flat_map(|&scheme| {
            let periods = periods_ms.iter().map(|&p| Some(p));
            periods.chain([None]).map(move |p| (scheme, p))
        })
        .collect();
    let lines: Vec<Line> = cases
        .iter()
        .map(|&(scheme, period_ms)| Line {
            label: match period_ms {
                Some(p) => format!("{} {p} ms flaps", scheme.name()),
                None => format!("{} no-fault", scheme.name()),
            },
            scheme,
            scenario,
        })
        .collect();
    let flap = |i: usize, sim: &mut Simulation, hosts: &[NodeId], _: &mut Vec<FlowSpec>| {
        if let Some(p) = cases[i].1 {
            inject_flaps(sim, hosts, (first, SimDuration::from_millis(p), window));
        }
    };
    let afcts = sweep(&mut [&mut fig], &lines, &[load], opts, flap, |m, _| {
        m.afct_ms
    })
    .concat();
    for (scheme, row) in schemes.iter().zip(afcts.chunks(periods_ms.len() + 1)) {
        fig.push_series(scheme.name(), row[..periods_ms.len()].to_vec());
        let healthy = row[periods_ms.len()];
        fig.push_series(
            format!("{} no-fault", scheme.name()),
            vec![healthy; periods_ms.len()],
        );
    }
    fig.note(format!(
        "rack 0's single uplink flaps from {first} over a {window} window: down period/4, \
         up 3*period/4; packets caught behind the dead link are counted blackholes and \
         recovered by retransmission"
    ));
    fig.note(
        "expected: every cell completes (flows ride out each outage via RTO + the healed \
         link) and both schemes sit well above their no-fault baselines; at full scale \
         shorter periods hurt more — each outage interrupts a fresh set of in-flight flows \
         and restarts their backoff — while quick runs can be non-monotonic when a single \
         outage happens to line up with the retransmission backoff schedule",
    );
    fig
}
