//! Wiring PASE onto a built simulation.

use std::sync::Arc;

use netsim::event::EventKind;
use netsim::host::MAINTENANCE_TIMER_BASE;
use netsim::node::Node;
use netsim::sim::Simulation;

use crate::config::{PaseConfig, DELEG_PERIOD};
use crate::process::{ArbProcess, DELEG_TIMER_TOKEN};
use crate::tree::{Level, TreeInfo};

/// Install the PASE control plane on every host and switch of `sim`: an
/// [`ArbProcess`] as every host's service and every ToR's and aggregation
/// switch's plugin, each with its periodic lease GC, and the delegation
/// report loop on ToRs.
///
/// Call after [`netsim::topology::TopologyBuilder::build`] and before
/// scheduling flows.
pub fn install(sim: &mut Simulation, cfg: PaseConfig) -> Arc<TreeInfo> {
    let tree = Arc::new(TreeInfo::from_topology(sim.topo()));
    let hosts = sim.topo().hosts();
    let switches = sim.topo().switches();
    let maintenance = |sim: &mut Simulation, node| {
        sim.scheduler_mut().schedule_in(
            cfg.arb_expiry,
            node,
            EventKind::PluginTimer(MAINTENANCE_TIMER_BASE),
        );
    };
    // Hosts: endpoint arbitrators for their own access links.
    for h in hosts {
        let access = sim.topo().link_rate(h, sim.topo().host_tor(h));
        let access = access.expect("host access link");
        let process = ArbProcess::new(cfg, h, Some(access), Arc::clone(&tree));
        if let Node::Host(host) = sim.node_mut(h) {
            host.set_service(Box::new(process));
        }
        maintenance(sim, h);
    }
    // Switches: ToR and aggregation arbitrators for their links to their
    // parents (the core needs none: all of its links are arbitrated from
    // below).
    if cfg.end_to_end {
        for sw in switches {
            if tree.level(sw) == Level::Core {
                continue;
            }
            let process = ArbProcess::new(cfg, sw, tree.uplink_rate(sw), Arc::clone(&tree));
            let reports = process.reports_delegation();
            if let Node::Switch(s) = sim.node_mut(sw) {
                s.set_plugin(Box::new(process));
            }
            if reports {
                sim.scheduler_mut().schedule_in(
                    DELEG_PERIOD,
                    sw,
                    EventKind::PluginTimer(DELEG_TIMER_TOKEN),
                );
            }
            maintenance(sim, sw);
        }
    }
    tree
}
