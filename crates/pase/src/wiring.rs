//! Wiring PASE onto a built simulation.

use std::sync::Arc;

use netsim::event::EventKind;
use netsim::host::MAINTENANCE_TIMER_BASE;
use netsim::node::Node;
use netsim::sim::Simulation;

use crate::config::{PaseConfig, DELEG_PERIOD};
use crate::host_service::PaseHostService;
use crate::plugin::{PaseSwitchPlugin, DELEG_TIMER_TOKEN};
use crate::tree::{Level, TreeInfo};

/// Install the PASE control plane on every host and switch of `sim`:
/// endpoint arbitrators as host services, ToR/agg arbitrators as switch
/// plugins, and the periodic delegation timers.
///
/// Call after [`netsim::topology::TopologyBuilder::build`] and before
/// scheduling flows.
pub fn install(sim: &mut Simulation, cfg: PaseConfig) -> Arc<TreeInfo> {
    let tree = Arc::new(TreeInfo::from_topology(sim.topo()));
    let hosts = sim.topo().hosts();
    let switches = sim.topo().switches();
    // Hosts: endpoint arbitrators for their own access links.
    for h in hosts {
        let rate = sim
            .topo()
            .link_rate(h, sim.topo().host_tor(h))
            .expect("host access link");
        if let Node::Host(host) = sim.node_mut(h) {
            host.set_service(Box::new(PaseHostService::new(
                cfg,
                h,
                rate,
                Arc::clone(&tree),
            )));
        }
        // Kick off the periodic lease GC of the endpoint arbitrators.
        sim.scheduler_mut().schedule_in(
            cfg.arb_expiry,
            h,
            EventKind::PluginTimer(MAINTENANCE_TIMER_BASE),
        );
    }
    // Switches: ToR and aggregation arbitrators (the core needs none: all
    // of its links are arbitrated from below).
    if cfg.end_to_end {
        for sw in switches {
            let level = tree.level(sw);
            if level == Level::Core {
                continue;
            }
            if let Node::Switch(s) = sim.node_mut(sw) {
                s.set_plugin(Box::new(PaseSwitchPlugin::new(cfg, sw, Arc::clone(&tree))));
            }
            // Kick off the delegation report loop on ToRs.
            if cfg.delegation && level == Level::Tor && tree.parent(sw).is_some() {
                sim.scheduler_mut().schedule_in(
                    DELEG_PERIOD,
                    sw,
                    EventKind::PluginTimer(DELEG_TIMER_TOKEN),
                );
            }
            // And the periodic lease GC of the switch arbitrators.
            sim.scheduler_mut().schedule_in(
                cfg.arb_expiry,
                sw,
                EventKind::PluginTimer(MAINTENANCE_TIMER_BASE),
            );
        }
    }
    tree
}
