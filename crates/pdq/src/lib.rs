//! # pdq — the arbitration baseline
//!
//! A from-scratch implementation of PDQ (Hong et al., SIGCOMM'12), the
//! *arbitration* strategy exemplar of the PASE paper (§2):
//!
//! * [`PdqSwitchPlugin`] — per-link flow lists and explicit rate
//!   allocation with EDF/SJF criticality, Early Start and state expiry;
//! * [`PdqSender`]/[`PdqReceiver`] — rate-paced endpoints that obey the
//!   allocation, probe while paused (with suppressed probing), terminate
//!   explicitly, and optionally early-terminate unmeetable deadlines;
//! * [`PdqHeader`] — the in-band scheduling header.
//!
//! PDQ's weakness reproduced here (paper Fig. 2): every pause/unpause and
//! flow handoff needs at least an RTT of control lag, so at high load the
//! preemption churn erodes its fast-convergence advantage.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod endpoint;
mod header;
mod switch;

pub use config::PdqConfig;
pub use endpoint::{PdqReceiver, PdqSender};
pub use header::PdqHeader;
pub use switch::PdqSwitchPlugin;

use netsim::host::AgentFactory;
use netsim::sim::Simulation;

/// PDQ's endpoints: its senders and its own receivers.
pub fn agents(cfg: PdqConfig) -> AgentFactory {
    AgentFactory::new(move |spec| PdqSender::new(spec, cfg), PdqReceiver::new)
}

/// Install PDQ arbitration on every switch of a built simulation. Each
/// ToR additionally arbitrates the access uplinks of its attached hosts
/// (hosts have no switch of their own to do it).
pub fn install_switch_plugins(sim: &mut Simulation, cfg: PdqConfig) {
    let switches = sim.topo().switches();
    for sw in switches {
        let attached: std::collections::HashMap<_, _> = sim
            .topo()
            .neighbors(sw)
            .into_iter()
            .filter(|&(_, peer, _, _)| sim.topo().kind(peer) == netsim::topology::NodeKind::Host)
            .map(|(_, peer, rate, _)| (peer, rate))
            .collect();
        let process = PdqSwitchPlugin::with_attached_hosts(cfg, attached);
        sim.node_mut(sw).set_process(Box::new(process));
    }
}
