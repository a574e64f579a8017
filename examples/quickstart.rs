//! Quickstart: run PASE on a small rack and print per-flow results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 6-host rack, installs the PASE control plane, starts five
//! flows of different sizes toward one receiver plus a long-lived
//! background flow, and shows that completion order follows the arbitrated
//! (shortest-remaining-first) priorities.

use pase::{install, pase_qdisc, PaseConfig};
use pase_repro::netsim::prelude::*;

fn main() {
    // 1. Configure PASE for this topology's RTT (~100 us intra-rack).
    let cfg = PaseConfig {
        base_rtt: SimDuration::from_micros(100),
        arb_refresh: SimDuration::from_micros(100),
        ..PaseConfig::default()
    };

    // 2. Build a single rack: 6 hosts behind one ToR, 1 Gbps links. Every
    // port gets PASE's switch configuration: 8 strict-priority bands with
    // per-band RED/ECN marking at K=20.
    let (net, hosts) = TopologySpec::intra_rack(6)
        .build(pase::agents(cfg), &|_| Box::new(pase_qdisc(&cfg, 500, 20)));

    // 3. Install the control plane: endpoint arbitrators on every host
    // (intra-rack flows need nothing else).
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);

    // 4. Five query flows of different sizes, all to host 5, all at t=0,
    // plus one background flow that must not get in their way.
    let sizes = [250_000u64, 50_000, 150_000, 10_000, 400_000];
    for (i, &size) in sizes.iter().enumerate() {
        sim.add_flow(FlowSpec::new(
            FlowId(i as u64),
            hosts[i],
            hosts[5],
            size,
            SimTime::ZERO,
        ));
    }
    sim.add_flow(FlowSpec::background(
        FlowId(99),
        hosts[0],
        hosts[4],
        SimTime::ZERO,
    ));

    // 5. Run to completion and report.
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(5)));
    println!("outcome: {outcome:?} at t={}", sim.now());
    println!("{:<8} {:>10} {:>12}", "flow", "size(B)", "FCT(ms)");
    let mut rows: Vec<(u64, u64, f64)> = sim
        .stats()
        .flows()
        .filter(|r| r.spec.measured)
        .map(|r| {
            (
                r.spec.id.0,
                r.spec.size,
                r.fct().map_or(f64::NAN, |d| d.as_millis_f64()),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    for (id, size, fct) in &rows {
        println!("{id:<8} {size:>10} {fct:>12.3}");
    }
    // SRPT: smaller flows must finish first.
    let finished_sizes: Vec<u64> = rows.iter().map(|r| r.1).collect();
    let mut sorted = finished_sizes.clone();
    sorted.sort();
    assert_eq!(
        finished_sizes, sorted,
        "completion order should follow flow size (SRPT)"
    );
    println!(
        "\ncontrol plane: {} arbitration packets, {} messages processed",
        sim.stats().ctrl_pkts,
        sim.stats().ctrl_msgs_processed
    );
    println!("completion order follows SRPT — the synthesis works.");
}
