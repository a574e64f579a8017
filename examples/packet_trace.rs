//! Packet-level tracing: watch one flow traverse the fabric.
//!
//! ```sh
//! cargo run --release --example packet_trace
//! ```
//!
//! Installs a [`netsim::trace::TextTracer`] filtered to a single flow and
//! prints every transmission, drop and completion event it generates
//! while competing with a background flow — including the priority band
//! each data packet rode in, which makes PASE's queue transitions
//! directly visible.

use pase::{install, pase_qdisc, PaseConfig};
use pase_repro::netsim::prelude::*;
use pase_repro::netsim::trace::TextTracer;

fn main() {
    let cfg = PaseConfig {
        base_rtt: SimDuration::from_micros(100),
        arb_refresh: SimDuration::from_micros(100),
        ..PaseConfig::default()
    };
    let (net, hosts) = TopologySpec::intra_rack(3)
        .build(pase::agents(cfg), &|_| Box::new(pase_qdisc(&cfg, 250, 20)));
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);

    // Trace flow 1 only.
    let tracer = TextTracer::for_flow(FlowId(1));
    let buffer = tracer.buffer();
    sim.set_tracer(Box::new(tracer));

    // Flow 0: a bigger flow that starts first and owns the top queue
    // until flow 1 (smaller) arrives and outranks it.
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[2],
        600_000,
        SimTime::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowId(1),
        hosts[1],
        hosts[2],
        30_000,
        SimTime::from_millis(1),
    ));
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(2)));

    let out = buffer.lock().unwrap().clone();
    println!("--- trace of flow f1 ({} events) ---", out.lines().count());
    print!("{out}");
    println!("--- end of trace ---");
    let fct = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
    println!("\nflow 1 FCT: {fct} (preempted the 20x larger flow 0)");
    assert!(out.lines().count() > 20, "expected a meaningful trace");
    assert!(out.contains("DONE f1"));
}
