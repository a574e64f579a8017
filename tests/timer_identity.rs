//! Superseding RTO timers must be invisible to the model: one small,
//! lossy end-to-end run per scheme, with the digest of every flow's
//! terminal record and of the non-event counters pinned to the value the
//! eager one-event-per-arm timers produced (recorded on the commit before
//! `netsim::timer` existed). Two access links drop 3 % of their packets
//! for the whole run, so every scheme takes RTOs: live timers fire
//! through re-materialised events and not only through carriers, and RTT
//! estimates (hence RTOs) both grow and shrink.
//!
//! The same runs' event counts are pinned too: which timers supersede
//! and which stay eager is part of the model's cost, and a timer that
//! silently switches between the two moves these and nothing else.

use pase_repro::netsim::fault::{DegradeProfile, FaultPlan};
use pase_repro::netsim::sim::{RunLimit, RunOutcome};
use pase_repro::netsim::time::SimTime;
use pase_repro::netsim::trace::{fnv1a, FNV1A_OFFSET};
use pase_repro::workloads::{Scenario, Scheme};

/// What one pinned run of a scheme leaves behind.
struct Run {
    /// Digest of the non-event counters and every flow's terminal record.
    digest: u64,
    /// RTOs taken over all flows.
    timeouts: u64,
    /// `events_executed`, then `events_by_kind` in `EventKind::KINDS`
    /// order, then `timer_arms_superseded`.
    events: [u64; 8],
}

/// The pinned run of `scheme`.
fn run(scheme: Scheme) -> Run {
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
    let k = st.events_by_kind;
    let events = [
        st.events_executed,
        k[0],
        k[1],
        k[2],
        k[3],
        k[4],
        k[5],
        st.timer_arms_superseded,
    ];
    Run {
        digest: h,
        timeouts,
        events,
    }
}

/// Per scheme: the digest, recorded on the commit before `netsim::timer`
/// existed, then `events_executed`, `events_by_kind` in
/// `EventKind::KINDS` order (`Deliver`, `TxComplete`, `AgentTimer`,
/// `PluginTimer`, `FlowStart`, `Fault`) and `timer_arms_superseded`,
/// recorded on the commit before every endpoint timer became a
/// `netsim::timer` value. PASE's row was re-recorded when one
/// channel-health estimator replaced three detectors: the old ones put
/// one flow of this lossy run in fallback, the estimator none.
#[test]
fn per_flow_records_match_the_eager_timers() {
    #[rustfmt::skip]
    let pinned: [(Scheme, u64, [u64; 8]); 7] = [
        (Scheme::Tcp, 0x257e_c04f_dec9_3b91, [116_688, 57_997, 58_298, 267, 0, 122, 4, 12_666]),
        (Scheme::Dctcp, 0x5989_8706_aa1a_b6fe, [115_322, 57_369, 57_624, 203, 0, 122, 4, 13_597]),
        (Scheme::D2tcp, 0x5989_8706_aa1a_b6fe, [115_322, 57_369, 57_624, 203, 0, 122, 4, 13_597]),
        (Scheme::L2dct, 0x39b1_4f8a_201d_0c42, [71_911, 35_701, 35_933, 151, 0, 122, 4, 8_119]),
        (Scheme::Pdq, 0x3f58_1035_b575_2c58, [162_312, 71_756, 72_185, 18_245, 0, 122, 4, 28_898]),
        (Scheme::PFabric, 0x3faa_b172_f081_a940, [75_860, 37_466, 37_775, 493, 0, 122, 4, 8_819]),
        (Scheme::Pase, 0xc14e_4e32_4590_bc8d, [228_898, 102_996, 104_192, 17_642, 3_942, 122, 4, 7_826]),
    ];
    let mut moved = Vec::new();
    for (scheme, digest, events) in pinned {
        let got = run(scheme);
        let name = scheme.name();
        assert!(got.timeouts > 0, "{name} took no RTO: run too easy");
        assert_eq!(
            got.events[0],
            got.events[1..7].iter().sum::<u64>(),
            "{name}"
        );
        if got.digest != digest {
            moved.push(format!(
                "{name} digest {:#018x} != {digest:#018x}",
                got.digest
            ));
        }
        if got.events != events {
            moved.push(format!("{name} events {:?} != {events:?}", got.events));
        }
    }
    assert!(moved.is_empty(), "pins moved:\n{}", moved.join("\n"));
}
