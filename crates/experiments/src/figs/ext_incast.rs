//! Extension: the classic incast microbenchmark.
//!
//! `N` synchronized senders each ship one 64 KB block to a single
//! receiver (a partition–aggregate response wave). We report the *incast
//! completion time* — when the last block lands — for each transport as
//! the fan-in grows. This is the stress case behind the paper's deadline
//! scenarios: shallow-queue designs (pFabric) shed bursts, loss-based
//! designs stall on timeouts, ECN/arbitration designs absorb the wave.

use netsim::prelude::*;
use workloads::runner::backstop_warning;
use workloads::{CasePlan, Pattern, RunSpec, Scenario, Scheme, SizeDist, TopologySpec};

use crate::opts::ExpOpts;
use crate::report::FigResult;

/// Block size each sender contributes.
const BLOCK: u64 = 64_000;

/// One incast wave of `fan_in` senders; returns (completion ms, loss).
fn run_wave(scheme: Scheme, fan_in: usize) -> (f64, f64) {
    // The scenario generates no flows of its own: the wave is added by
    // hand, every sender starting at t = 0.
    let scenario = Scenario {
        name: "incast-wave",
        topo: TopologySpec::intra_rack(fan_in + 1),
        pattern: Pattern::Incast { server: fan_in },
        sizes: SizeDist::Fixed(BLOCK),
        deadlines: None,
        n_background: 0,
        n_flows: 0,
    };
    let spec = RunSpec {
        backstop_s: 30,
        ..RunSpec::new(scheme, scenario, 1.0, 1)
    };
    let (m, sim) = spec.run_with(|_, hosts, flows| {
        let receiver = hosts[fan_in];
        for (i, &h) in hosts.iter().take(fan_in).enumerate() {
            let id = FlowId(i as u64);
            flows.push(FlowSpec::new(id, h, receiver, BLOCK, SimTime::ZERO));
        }
    });
    if let Some(w) = backstop_warning(&spec, &m) {
        panic!("{w}");
    }
    let last_done = sim
        .stats()
        .flows()
        .map(|r| r.completed.expect("completed"))
        .max()
        .expect("flows exist");
    (last_done.as_millis_f64(), m.loss_rate)
}

/// Regenerate the incast extension table.
pub fn run(opts: &ExpOpts) -> FigResult {
    let fan_ins: Vec<usize> = if opts.quick {
        vec![4, 16]
    } else {
        vec![4, 8, 16, 32, 48]
    };
    let mut fig = FigResult::new(
        "ext_incast",
        "Incast: completion time of an N-to-1 synchronized wave (64 KB each)",
        "fan-in",
        "wave completion (ms)",
        fan_ins.iter().map(|&n| n as f64).collect(),
    );
    let schemes = [Scheme::Pase, Scheme::Dctcp, Scheme::PFabric, Scheme::Tcp];
    let plan = CasePlan::new(
        schemes
            .iter()
            .flat_map(|&scheme| fan_ins.iter().map(move |&n| (scheme, n)))
            .collect::<Vec<_>>(),
    );
    let waves = plan.execute(opts.jobs, |&(scheme, n)| run_wave(scheme, n));
    for (scheme, row) in schemes.iter().zip(waves.chunks(fan_ins.len())) {
        fig.push_series(scheme.name(), row.iter().map(|&(t, _)| t).collect());
        if *scheme == Scheme::PFabric || *scheme == Scheme::Tcp {
            fig.push_series(
                format!("{} loss(%)", scheme.name()),
                row.iter().map(|&(_, l)| l * 100.0).collect(),
            );
        }
    }
    // The ideal completion: N x 64KB + headers at 1 Gbps.
    let ideal: Vec<f64> = fan_ins
        .iter()
        .map(|&n| (n as u64 * BLOCK) as f64 * 8.0 * 1.0274 / 1e9 * 1e3)
        .collect();
    fig.push_series("ideal", ideal);
    fig.note(
        "expected: PASE/DCTCP track the ideal serialization time (ECN absorbs the wave); \
         TCP overshoots via loss + RTO; pFabric sheds bursts but recovers on its 1 ms RTO",
    );
    fig
}
