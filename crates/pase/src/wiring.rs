//! Wiring PASE onto a built simulation.

use std::sync::Arc;

use netsim::event::EventKind;
use netsim::ids::NodeId;
use netsim::node::Node;
use netsim::sim::Simulation;

use crate::config::PaseConfig;
use crate::process::ArbProcess;
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
    // Each process's loops start with their timers' first tokens.
    let start = |sim: &mut Simulation, node: NodeId, process: &mut ArbProcess| {
        for (delay, token) in process.arm_loops() {
            let tick = EventKind::PluginTimer(token);
            sim.scheduler_mut().schedule_in(delay, node, tick);
        }
    };
    // Hosts: endpoint arbitrators for their own access links.
    for h in hosts {
        let access = sim.topo().link_rate(h, sim.topo().host_tor(h));
        let access = access.expect("host access link");
        let mut process = ArbProcess::new(cfg, h, Some(access), Arc::clone(&tree));
        start(sim, h, &mut process);
        if let Node::Host(host) = sim.node_mut(h) {
            host.set_service(Box::new(process));
        }
    }
    // Switches: ToR and aggregation arbitrators for their links to their
    // parents (the core needs none: all of its links are arbitrated from
    // below).
    if cfg.end_to_end {
        for sw in switches {
            if tree.level(sw) == Level::Core {
                continue;
            }
            let mut process = ArbProcess::new(cfg, sw, tree.uplink_rate(sw), Arc::clone(&tree));
            start(sim, sw, &mut process);
            if let Node::Switch(s) = sim.node_mut(sw) {
                s.set_plugin(Box::new(process));
            }
        }
    }
    tree
}
