//! Scheduler-engine differential: run a chaos slice (the `chaos`
//! binary's flags select it) once on the reference binary-heap engine
//! and once on the timing wheel, in this process, and demand identical
//! trace hashes, stats fingerprints and event counts per case — the wheel
//! is a drop-in replacement for the heap, not approximately one. Non-zero
//! exit on any divergence, each with the command that replays the case.

use experiments::chaos::{replay_command, run_once, ChaosOpts};
use netsim::engine::EngineKind;

fn main() {
    let opts = ChaosOpts::from_env();
    let pairs = opts.cases().execute(opts.jobs, |&case| {
        [EngineKind::Heap, EngineKind::Wheel].map(|engine| run_once(engine, case, opts.quick))
    });
    let mut diverged = 0;
    for [heap, wheel] in &pairs {
        let same = (heap.trace_hash, heap.stats_hash, heap.events)
            == (wheel.trace_hash, wheel.stats_hash, wheel.events);
        if opts.verbose || !same {
            eprintln!(
                "engine_diff {:>5} {:?}/{} seed {:>3}: {} (heap trace {:#018x} stats {:#018x} \
                 events {}, wheel trace {:#018x} stats {:#018x} events {})",
                heap.scheme,
                heap.intensity,
                heap.fault_class.name(),
                heap.seed,
                if same { "same" } else { "DIVERGED" },
                heap.trace_hash,
                heap.stats_hash,
                heap.events,
                wheel.trace_hash,
                wheel.stats_hash,
                wheel.events,
            );
        }
        if !same {
            diverged += 1;
            let replay = replay_command("engine_diff", wheel, opts.quick);
            eprintln!("  replay: {replay}");
        }
    }
    println!(
        "engine_diff: {}/{} cases byte-identical across engines",
        pairs.len() - diverged,
        pairs.len()
    );
    if diverged > 0 {
        std::process::exit(1);
    }
}
