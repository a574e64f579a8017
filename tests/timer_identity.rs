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
//! silently switches between the two moves these and nothing else. Every
//! RTO supersedes, and so does PASE's bottom-queue pacer; PASE's refresh
//! and PDQ's pacer and probes stay eager, one event per arm. PASE queues
//! no `PluginTimer` here: its leases expire when read, and the one-rack
//! fabric has no delegating ToR.
//!
//! The same lossy run over seven flow seeds is also the check on PASE's
//! priority-aware loss recovery: a lower-queue timeout is answered by a
//! probe, so no flow waits out a long minimum RTO (DESIGN §7b.11).

use pase_repro::netsim::fault::{DegradeProfile, FaultPlan};
use pase_repro::netsim::sim::{RunLimit, RunOutcome, Simulation};
use pase_repro::netsim::time::SimTime;
use pase_repro::netsim::trace::{fnv1a, FNV1A_OFFSET};
use pase_repro::workloads::{collect, Scenario, Scheme};

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

/// `scheme` run to completion on the lossy all-to-all with the flows of
/// `seed`: two access links drop 3 % of their packets throughout.
fn lossy_run(scheme: Scheme, seed: u64) -> Simulation {
    let scenario = Scenario::all_to_all_intra(8, 120);
    let (mut sim, hosts) = scheme.build_sim(&scenario.topo);
    sim.add_flows(scenario.generate_flows(0.8, seed, &hosts));
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
    sim
}

/// The pinned run of `scheme`: flow seed 7.
fn run(scheme: Scheme) -> Run {
    let sim = lossy_run(scheme, 7);
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
/// one flow of this lossy run in fallback, the estimator none. Its events
/// were re-recorded, digest unchanged, when the lease-GC tick went
/// (`PluginTimer` 3 942 → 0) and its pacer began to supersede
/// (`AgentTimer` 17 642 → 17 561), re-recorded when lower queues
/// dropped their 200 ms minimum RTO for the top queue's 10 ms, and
/// re-recorded when a flow stalled on its RTO began backing off its
/// refresh too (DESIGN §7b.12: `AgentTimer` 4 326 → 3 533, events
/// 97 667 → 89 486). Every row's events were re-recorded, digests
/// unchanged, when a port began to queue its `TxComplete` only when a
/// packet waits behind the one it sends (`TxComplete` only; PASE
/// 43 082 → 34 736). The two degraded access links keep one per packet.
#[test]
fn per_flow_records_match_the_eager_timers() {
    #[rustfmt::skip]
    let pinned: [(Scheme, u64, [u64; 8]); 7] = [
        (Scheme::Tcp, 0x257e_c04f_dec9_3b91, [96_703, 57_997, 38_313, 267, 0, 122, 4, 12_666]),
        (Scheme::Dctcp, 0x5989_8706_aa1a_b6fe, [96_162, 57_369, 38_464, 203, 0, 122, 4, 13_597]),
        (Scheme::D2tcp, 0x5989_8706_aa1a_b6fe, [96_162, 57_369, 38_464, 203, 0, 122, 4, 13_597]),
        (Scheme::L2dct, 0x39b1_4f8a_201d_0c42, [62_833, 35_701, 26_855, 151, 0, 122, 4, 8_119]),
        (Scheme::Pdq, 0x3f58_1035_b575_2c58, [109_699, 71_756, 19_572, 18_245, 0, 122, 4, 28_898]),
        (Scheme::PFabric, 0x3faa_b172_f081_a940, [69_484, 37_466, 31_399, 493, 0, 122, 4, 8_819]),
        (Scheme::Pase, 0x39fa_17df_8e51_ae39, [81_140, 42_745, 34_736, 3_533, 0, 122, 4, 6_414]),
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

/// On every flow seed, PASE's lower-queue losses recover by probe within
/// the 10 ms minimum RTO rather than stalling a tail flow for 200 ms, and
/// PASE's AFCT stays below DCTCP's on the lossy links.
#[test]
fn lossy_links_cost_pase_no_long_rto_stall() {
    for seed in 1..=7 {
        let pase = collect(&lossy_run(Scheme::Pase, seed), RunOutcome::MeasuredComplete);
        let dctcp = collect(
            &lossy_run(Scheme::Dctcp, seed),
            RunOutcome::MeasuredComplete,
        );
        assert!(pase.timeouts > 0, "seed {seed}: PASE took no RTO");
        assert!(
            pase.p99_ms < 50.0,
            "seed {seed}: PASE p99 {:.1} ms",
            pase.p99_ms
        );
        assert!(
            pase.afct_ms < dctcp.afct_ms,
            "seed {seed}: PASE AFCT {:.2} ms, DCTCP {:.2} ms",
            pase.afct_ms,
            dctcp.afct_ms
        );
    }
}

/// PASE's leases expire when read, so the only timer its control plane
/// runs is the delegation report of a ToR that owns a delegated slice.
/// A leaf–spine fabric has none (a spine has no uplink to slice) and
/// neither has one rack, so a PASE run there never runs a node-process
/// timer and leaves none pending.
#[test]
fn pase_runs_no_process_timer_without_a_delegated_slice() {
    use pase_repro::netsim::event::EventKind;
    use pase_repro::workloads::TopologySpec;

    for topo in [
        TopologySpec::small_leaf_spine(2),
        TopologySpec::intra_rack(8),
    ] {
        let scenario = Scenario {
            topo,
            ..Scenario::all_to_all_intra(8, 40)
        };
        let (mut sim, hosts) = Scheme::Pase.build_sim(&scenario.topo);
        sim.add_flows(scenario.generate_flows(0.8, 1, &hosts));
        let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
        assert_eq!(outcome, RunOutcome::MeasuredComplete, "{topo:?}");
        let plugin = EventKind::KINDS.iter().position(|&k| k == "PluginTimer");
        let ran = sim.stats().events_by_kind[plugin.unwrap()];
        let pending = sim
            .scheduler()
            .pending_events()
            .filter(|(_, _, kind)| matches!(kind, EventKind::PluginTimer(_)))
            .count();
        assert_eq!((ran, pending), (0, 0), "{topo:?}");
    }
}
