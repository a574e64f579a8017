//! Extension: the classic incast microbenchmark.
//!
//! `N` synchronized senders each ship one 64 KB block to a single
//! receiver (a partition–aggregate response wave). We report the *incast
//! completion time* — when the last block lands — for each transport as
//! the fan-in grows. This is the stress case behind the paper's deadline
//! scenarios: shallow-queue designs (pFabric) shed bursts, loss-based
//! designs stall on timeouts, ECN/arbitration designs absorb the wave.

use netsim::prelude::*;
use workloads::{Pattern, Scenario, Scheme, SizeDist, TopologySpec};

use super::common::{sweep, Line};
use crate::opts::ExpOpts;
use crate::report::FigResult;

/// Block size each sender contributes.
const BLOCK: u64 = 64_000;

/// The rack one wave of `fan_in` senders runs on, its last host the
/// receiver. It generates no flows of its own: the sweep's `prepare` adds
/// the wave, every sender starting at t = 0.
fn wave_rack(fan_in: usize) -> Scenario {
    Scenario {
        name: "incast-wave",
        topo: TopologySpec::intra_rack(fan_in + 1),
        pattern: Pattern::Incast { server: fan_in },
        sizes: SizeDist::Fixed(BLOCK),
        deadlines: None,
        n_background: 0,
        n_flows: 0,
    }
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
    let lines: Vec<Line> = schemes
        .iter()
        .flat_map(|&scheme| {
            fan_ins.iter().map(move |&n| Line {
                label: format!("{} fan-in {n}", scheme.name()),
                scheme,
                scenario: wave_rack(n),
            })
        })
        .collect();
    // Each wave's completion (the last block's landing, or the clock
    // where a truncated run stopped) and its loss rate.
    let waves = sweep(
        &mut [&mut fig],
        &lines,
        &[1.0],
        opts,
        |_, _, hosts, flows| {
            let (&receiver, senders) = hosts.split_last().expect("a rack has hosts");
            for (f, &h) in senders.iter().enumerate() {
                let id = FlowId(f as u64);
                flows.push(FlowSpec::new(id, h, receiver, BLOCK, SimTime::ZERO));
            }
        },
        |m, sim| {
            let flows = sim.stats().flows();
            let last_done = flows.filter_map(|r| r.completed).max();
            let last_done = last_done.unwrap_or(sim.now());
            (last_done.as_millis_f64(), m.loss_rate)
        },
    );
    for (scheme, row) in schemes.iter().zip(waves.chunks(fan_ins.len())) {
        fig.push_series(scheme.name(), row.iter().map(|w| w[0].0).collect());
        if *scheme == Scheme::PFabric || *scheme == Scheme::Tcp {
            fig.push_series(
                format!("{} loss(%)", scheme.name()),
                row.iter().map(|w| w[0].1 * 100.0).collect(),
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
