//! Transport schemes: building a ready-to-run simulation for any of the
//! paper's protocols on any topology.
//!
//! Each scheme bundles its endpoints (its protocol crate's `agents`), its
//! switch queue discipline and (for PDQ/PASE) its switch-resident control
//! logic, with parameters from Table 3 adapted to the topology's base RTT.

use netsim::engine::EngineKind;
use netsim::ids::NodeId;
use netsim::queue::{dctcp_mark_thresh, DropTailQdisc, Qdisc, RedEcnQdisc};
use netsim::sim::Simulation;
use netsim::time::SimDuration;
use netsim::topology::{PortSpec, TopologySpec};

use pase::PaseConfig;
use pdq::PdqConfig;
use pfabric::{PFabricConfig, PFabricQdisc};
use transport::Flavor;

/// The transports evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// TCP Reno over drop-tail (sanity baseline).
    Tcp,
    /// DCTCP (Alizadeh et al., SIGCOMM'10).
    Dctcp,
    /// D2TCP (Vamanan et al., SIGCOMM'12).
    D2tcp,
    /// L2DCT (Munir et al., INFOCOM'13).
    L2dct,
    /// PDQ (Hong et al., SIGCOMM'12).
    Pdq,
    /// pFabric (Alizadeh et al., SIGCOMM'13).
    PFabric,
    /// PASE with default configuration.
    Pase,
    /// PASE with an explicit configuration (ablations).
    PaseWith(PaseConfig),
}

impl Scheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Tcp => "TCP",
            Scheme::Dctcp => "DCTCP",
            Scheme::D2tcp => "D2TCP",
            Scheme::L2dct => "L2DCT",
            Scheme::Pdq => "PDQ",
            Scheme::PFabric => "pFabric",
            Scheme::Pase => "PASE",
            Scheme::PaseWith(_) => "PASE*",
        }
    }

    /// All the paper's schemes with default settings.
    pub fn all() -> Vec<Scheme> {
        vec![
            Scheme::Tcp,
            Scheme::Dctcp,
            Scheme::D2tcp,
            Scheme::L2dct,
            Scheme::Pdq,
            Scheme::PFabric,
            Scheme::Pase,
        ]
    }

    /// The PASE configuration adapted to a topology (base RTT, refresh).
    pub fn pase_config_for(topo: &TopologySpec) -> PaseConfig {
        let rtt = topo.base_rtt();
        PaseConfig {
            base_rtt: rtt,
            arb_refresh: rtt,
            ..PaseConfig::default()
        }
    }

    /// Build a ready-to-run simulation on `topo`: every host's endpoints,
    /// queue disciplines, node processes and control-plane timers.
    pub fn build_sim(&self, topo: &TopologySpec) -> (Simulation, Vec<NodeId>) {
        self.build_sim_on(EngineKind::Wheel, topo)
    }

    /// [`Scheme::build_sim`] on an explicit scheduler engine: the one
    /// place [`crate::RunSpec::engine`] takes effect.
    pub(crate) fn build_sim_on(
        &self,
        engine: EngineKind,
        topo: &TopologySpec,
    ) -> (Simulation, Vec<NodeId>) {
        let base_rtt = topo.base_rtt();
        match self {
            Scheme::Tcp => {
                let q = |_: &PortSpec| -> Box<dyn Qdisc> { Box::new(DropTailQdisc::new(225)) };
                let (net, hosts) = topo.build(transport::agents(Flavor::Reno), &q);
                (Simulation::with_engine(net, engine), hosts)
            }
            Scheme::Dctcp | Scheme::D2tcp | Scheme::L2dct => {
                let flavor = match self {
                    Scheme::Dctcp => Flavor::Dctcp,
                    Scheme::D2tcp => Flavor::D2tcp,
                    _ => Flavor::L2dct,
                };
                let q = |spec: &PortSpec| -> Box<dyn Qdisc> {
                    Box::new(RedEcnQdisc::new(225, dctcp_mark_thresh(spec.rate)))
                };
                let (net, hosts) = topo.build(transport::agents(flavor), &q);
                (Simulation::with_engine(net, engine), hosts)
            }
            Scheme::Pdq => {
                let cfg = PdqConfig {
                    base_rtt,
                    ..PdqConfig::default()
                };
                let q = |_: &PortSpec| -> Box<dyn Qdisc> { Box::new(DropTailQdisc::new(225)) };
                let (net, hosts) = topo.build(pdq::agents(cfg), &q);
                let mut sim = Simulation::with_engine(net, engine);
                pdq::install_switch_plugins(&mut sim, cfg);
                (sim, hosts)
            }
            Scheme::PFabric => {
                // Table 3 verbatim: initCwnd = 38 packets (the baseline
                // BDP — pFabric flows start at line rate), minRTO = 1 ms
                // (~3.3 base RTTs), qSize = 76 packets (2 BDP). The paper
                // applies these settings to every scenario, including
                // intra-rack ones whose BDP is smaller; the resulting
                // overshoot is part of the behaviour Figure 4 measures.
                let cfg = PFabricConfig {
                    rto: base_rtt.mul_f64(3.3).max(SimDuration::from_millis(1)),
                };
                let q = move |_: &PortSpec| -> Box<dyn Qdisc> { Box::new(PFabricQdisc::new(76)) };
                let (net, hosts) = topo.build(pfabric::agents(cfg), &q);
                (Simulation::with_engine(net, engine), hosts)
            }
            Scheme::Pase => {
                Scheme::PaseWith(Self::pase_config_for(topo)).build_sim_on(engine, topo)
            }
            Scheme::PaseWith(cfg) => {
                let cfg = *cfg;
                // Table 3: qSize = 500 packets, shared across 8 bands; we
                // give each band the full budget (commodity shared
                // buffers) and mark per band.
                let q = move |spec: &PortSpec| -> Box<dyn Qdisc> {
                    Box::new(pase::pase_qdisc(&cfg, 500, dctcp_mark_thresh(spec.rate)))
                };
                let (net, hosts) = topo.build(pase::agents(cfg), &q);
                let mut sim = Simulation::with_engine(net, engine);
                pase::install(&mut sim, cfg);
                (sim, hosts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pattern, Scenario, SizeDist};
    use netsim::sim::{RunLimit, RunOutcome};
    use netsim::time::SimTime;

    #[test]
    fn every_scheme_builds_on_every_topology() {
        let topos = [
            TopologySpec::intra_rack(4),
            TopologySpec::small_three_tier(2),
            TopologySpec::small_leaf_spine(2),
            TopologySpec::testbed(),
            TopologySpec::fat_tree(4),
        ];
        for topo in topos {
            for scheme in Scheme::all() {
                let (sim, hosts) = scheme.build_sim(&topo);
                assert_eq!(hosts.len(), topo.n_hosts(), "{}", scheme.name());
                assert_eq!(sim.topo().hosts().len(), topo.n_hosts());
            }
        }
    }

    /// The one Tier-1 run at 1024 hosts: PASE on the k=16 fat-tree,
    /// all-to-all, completes with the invariants clean and the event and
    /// delivery counts pinned. (Events 468 707 → 282 502 when a port
    /// began to queue its completion only when a packet waits behind it.)
    #[test]
    fn pase_completes_an_all_to_all_batch_on_the_k16_fat_tree() {
        let scenario = Scenario {
            name: "k16-all-to-all",
            topo: TopologySpec::fat_tree(16),
            pattern: Pattern::AllToAll,
            sizes: SizeDist::UniformBytes {
                lo: 2_000,
                hi: 198_000,
            },
            deadlines: None,
            n_background: 0,
            n_flows: 256,
        };
        let (mut sim, hosts) = Scheme::Pase.build_sim(&scenario.topo);
        sim.add_flows(scenario.generate_flows(0.6, 1, &hosts));
        let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
        assert_eq!(outcome, RunOutcome::MeasuredComplete);
        sim.check_invariants().assert_clean();
        assert_eq!(sim.stats().events_executed, 282_502);
        assert_eq!(sim.stats().data_pkts_delivered, 17_979);
    }

    /// The wheel's level 0 is a sliding window: on the 160-host
    /// left-right fabric under DCTCP only timers armed more than 65 µs
    /// out are filed twice. With level 0 aligned to 256-tick blocks every
    /// 25 µs link delay that crossed a boundary was too: 21 % of pushes.
    #[test]
    fn few_events_are_filed_twice_on_the_dctcp_fabric() {
        let scenario = Scenario::left_right(40, 400);
        let (mut sim, hosts) = Scheme::Dctcp.build_sim(&scenario.topo);
        sim.add_flows(scenario.generate_flows(0.6, 1, &hosts));
        let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
        assert_eq!(outcome, RunOutcome::MeasuredComplete);
        let wheel = sim.scheduler().wheel_stats();
        let pushes = sim.stats().events_executed + sim.scheduler().pending() as u64;
        let refiled = wheel.refiled as f64 / pushes as f64;
        println!(
            "{pushes} pushes, {:.2} % refiled, {} pours, largest {} events",
            100.0 * refiled,
            wheel.pours,
            wheel.max_pour
        );
        assert!(pushes > 500_000, "{pushes} pushes is no fabric run");
        assert!(refiled < 0.05, "{:.1} % of pushes refiled", 100.0 * refiled);
        assert!(wheel.max_pour >= 2 && wheel.pours > 0, "{wheel:?}");
    }

    #[test]
    fn pase_config_tracks_topology_rtt() {
        let cfg = Scheme::pase_config_for(&TopologySpec::paper_baseline());
        let us = cfg.base_rtt.as_micros_f64();
        assert!((290.0..340.0).contains(&us), "{us}");
        assert_eq!(cfg.arb_refresh, cfg.base_rtt);
    }

    #[test]
    fn scheme_names_unique() {
        let names: std::collections::BTreeSet<&str> =
            Scheme::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Scheme::all().len());
    }
}
