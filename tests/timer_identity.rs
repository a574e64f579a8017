//! Superseding RTO timers must be invisible to the model: one small,
//! lossy end-to-end run per scheme, with the digest of every flow's
//! terminal record and of the non-event counters pinned to the value the
//! eager one-event-per-arm timers produced (recorded on the commit before
//! `netsim::timer` existed). Two access links drop 3 % of their packets
//! for the whole run, so every scheme takes RTOs: live timers fire
//! through re-materialised events and not only through carriers, and RTT
//! estimates (hence RTOs) both grow and shrink.

use pase_repro::netsim::fault::{DegradeProfile, FaultPlan};
use pase_repro::netsim::sim::{RunLimit, RunOutcome};
use pase_repro::netsim::time::SimTime;
use pase_repro::netsim::trace::{fnv1a, FNV1A_OFFSET};
use pase_repro::workloads::{Scenario, Scheme};

/// `(per-flow digest, total timeouts)` of the pinned run of `scheme`.
fn run(scheme: Scheme) -> (u64, u64) {
    let scenario = Scenario::all_to_all_intra(8, 120);
    let (mut sim, hosts) = scheme.build_sim(&scenario.topo);
    sim.add_flows(scenario.generate_flows(0.8, 7, &hosts));
    let mut plan = FaultPlan::new();
    for (i, &h) in hosts[..2].iter().enumerate() {
        let profile = DegradeProfile {
            seed: 11 + i as u64,
            loss_ppm: 30_000,
            ..DegradeProfile::default()
        };
        plan = plan.link_degrade(SimTime::ZERO, h, sim.topo().host_tor(h), profile);
    }
    sim.inject_faults(&plan);
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(120)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete, "{}", scheme.name());
    let st = sim.stats();
    let mut h = FNV1A_OFFSET;
    let mut timeouts = 0;
    let mut fold = |v: u64| h = fnv1a(h, &v.to_le_bytes());
    for v in [
        st.data_pkts_injected,
        st.data_pkts_delivered,
        st.data_pkts_dropped,
        st.ctrl_pkts,
        st.ctrl_msgs_processed,
    ] {
        fold(v);
    }
    for rec in st.flows() {
        timeouts += rec.timeouts;
        for v in [
            rec.spec.id.0,
            rec.completed.map_or(u64::MAX, |t| t.as_nanos()),
            rec.aborted as u64,
            rec.retransmitted_bytes,
            rec.timeouts,
            rec.probes_sent,
            rec.drops,
        ] {
            fold(v);
        }
    }
    (h, timeouts)
}

#[test]
fn per_flow_records_match_the_eager_timers() {
    let pinned: [(Scheme, u64); 7] = [
        (Scheme::Tcp, 0x257e_c04f_dec9_3b91),
        (Scheme::Dctcp, 0x5989_8706_aa1a_b6fe),
        (Scheme::D2tcp, 0x5989_8706_aa1a_b6fe),
        (Scheme::L2dct, 0x39b1_4f8a_201d_0c42),
        (Scheme::Pdq, 0x3f58_1035_b575_2c58),
        (Scheme::PFabric, 0x3faa_b172_f081_a940),
        (Scheme::Pase, 0x49d0_db52_86f1_f67a),
    ];
    let mut moved = Vec::new();
    for (scheme, want) in pinned {
        let (got, timeouts) = run(scheme);
        assert!(timeouts > 0, "{} took no RTO: run too easy", scheme.name());
        if got != want {
            moved.push(format!("{} {got:#018x} != {want:#018x}", scheme.name()));
        }
    }
    assert!(
        moved.is_empty(),
        "per-flow digests moved:\n{}",
        moved.join("\n")
    );
}
