//! Wiring PASE onto a built simulation.

use std::sync::Arc;

use netsim::event::EventKind;
use netsim::ids::NodeId;
use netsim::sim::Simulation;
use netsim::time::Rate;

use crate::config::PaseConfig;
use crate::process::ArbProcess;
use crate::tree::{Level, TreeInfo};

/// Install the PASE control plane on every host and switch of `sim`: an
/// [`ArbProcess`] on every host and every ToR and aggregation switch, and
/// the delegation report loop on each ToR that owns a delegated slice —
/// the only timer the control plane queues (leases expire when read).
///
/// Call after [`netsim::topology::TopologyBuilder::build`] and before
/// scheduling flows.
pub fn install(sim: &mut Simulation, cfg: PaseConfig) -> Arc<TreeInfo> {
    let tree = Arc::new(TreeInfo::from_topology(sim.topo()));
    // Hosts arbitrate their own access links; ToRs and aggs their
    // virtual uplinks, every link one tier up (the core needs none: all of
    // its links are arbitrated from below).
    let hosts = sim.topo().hosts().into_iter().map(|h| {
        let access = sim.topo().link_rate(h, sim.topo().host_tor(h));
        (h, Some(access.expect("host access link")))
    });
    let switches = sim.topo().switches().into_iter();
    let switches = switches
        .filter(|&sw| cfg.end_to_end && tree.level(sw) != Level::Core)
        .map(|sw| (sw, tree.uplink_rate(sw)));
    let nodes: Vec<(NodeId, Option<Rate>)> = hosts.chain(switches).collect();
    for (node, link) in nodes {
        let mut process = ArbProcess::new(cfg, node, link, Arc::clone(&tree));
        // A delegating ToR's report loop starts with its first token.
        if let Some((delay, token)) = process.arm_report() {
            let tick = EventKind::PluginTimer(token);
            sim.scheduler_mut().schedule_in(delay, node, tick);
        }
        sim.node_mut(node).set_process(Box::new(process));
    }
    tree
}
