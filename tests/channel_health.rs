//! PASE's channel-health estimator is inert when nothing is faulted: a
//! fault-free run never falls back to self-adjusting mode, whatever the
//! refresh cadence.

use pase_repro::workloads::{RunSpec, Scenario, Scheme};

#[test]
fn fault_free_runs_never_fall_back() {
    let scenario = Scenario::all_to_all_intra(8, 120);
    let base = Scheme::pase_config_for(&scenario.topo);
    for load in [0.5, 0.9] {
        for div in [1, 2, 4] {
            let mut cfg = base;
            cfg.arb_refresh = base.base_rtt / div;
            let m = RunSpec::new(Scheme::PaseWith(cfg), scenario, load, 1).run();
            assert_eq!(m.n_completed, m.n_flows, "load {load}, refresh RTT/{div}");
            assert_eq!(
                (m.fallback_entries_silent, m.fallback_entries_shed),
                (0, 0),
                "load {load}, refresh RTT/{div}: fault-free flows fell back"
            );
        }
    }
}
