//! # pase — the paper's contribution
//!
//! PASE ("Friends, not Foes", SIGCOMM 2014) synthesizes the three
//! transport strategies of prior data-center designs, each doing only what
//! it is best at:
//!
//! | Strategy | Role in PASE | Module |
//! |---|---|---|
//! | Arbitration | coarse-grained inter-flow prioritization: per-link arbitrators assign each flow a priority queue and a reference rate (Algorithm 1); one arbitrator front-end ([`shed`]) whether the process sits on a host or a switch | [`algorithm`], [`host_service`], [`plugin`], [`shed`] |
//! | In-network prioritization | per-packet, sub-RTT scheduling using the few strict-priority queues commodity switches already have | [`netsim::queue::StrictPrioQdisc`] |
//! | Self-adjusting endpoints | discover spare capacity / back off via DCTCP control laws ([`transport::DctcpWindow`]), bootstrapped by the reference rate (Algorithm 2); fall back to them alone when [`health`] says arbitration is unreachable | [`endpoint`], [`health`] |
//!
//! The control plane is scalable by construction (paper §3.1.2):
//! **bottom-up arbitration** (intra-rack flows never leave the endpoints),
//! **early pruning** (only top-queue flows climb the hierarchy) and
//! **delegation** (agg–core capacity is sliced and handed to ToR
//! arbitrators). Everything is deployment friendly: switches need only
//! priority queues + ECN ([`netsim::queue::StrictPrioQdisc`] over RED).
//!
//! ## Usage
//!
//! ```ignore
//! let net = topology_builder.build(Arc::new(PaseFactory::new(cfg)), &qdisc_chooser);
//! let mut sim = Simulation::new(net);
//! pase::install(&mut sim, cfg);          // arbitrators + delegation timers
//! sim.add_flow(...);
//! sim.run(RunLimit::until_measured_done(backstop));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod config;
pub mod endpoint;
pub mod health;
pub mod host_service;
pub mod messages;
pub mod plugin;
pub mod shed;
pub mod tree;
mod wiring;

pub use algorithm::{Decision, FlowEntry, LinkArbitrator};
pub use config::{Criterion, PaseConfig};
pub use endpoint::PaseSender;
pub use health::{ChannelHealth, Transition};
pub use host_service::{ArbPlan, LegResults, PaseHostService};
pub use messages::{ArbMsg, ArbRequest, ArbResponse, Leg};
pub use plugin::PaseSwitchPlugin;
pub use shed::{ArbFrontEnd, FaultEffect, InboxBudget};
pub use tree::{Level, TreeInfo};
pub use wiring::install;

use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentFactory, FlowAgent};
use netsim::queue::StrictPrioQdisc;
use transport::{ReceiverConfig, SimpleReceiver};

/// Builds PASE senders and receivers.
#[derive(Debug, Clone, Default)]
pub struct PaseFactory {
    cfg: PaseConfig,
}

impl PaseFactory {
    /// A factory with the given parameters.
    pub fn new(cfg: PaseConfig) -> PaseFactory {
        PaseFactory { cfg }
    }
}

impl AgentFactory for PaseFactory {
    fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent> {
        Box::new(PaseSender::new(spec, self.cfg))
    }

    fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent> {
        // ACKs ride the top priority band (they are tiny and pace the
        // forward path; queueing them behind bulk data would distort
        // scheduling).
        Box::new(SimpleReceiver::new(
            hint,
            ReceiverConfig {
                ack_prio: 0,
                ack_rank: 0,
            },
        ))
    }
}

/// The switch queue discipline PASE assumes: `n` strict-priority bands
/// with per-band RED/ECN (paper §3.3: PRIO + RED, eight queues, marking
/// threshold `K`).
pub fn pase_qdisc(cfg: &PaseConfig, band_cap_pkts: usize, mark_thresh: usize) -> StrictPrioQdisc {
    StrictPrioQdisc::new(cfg.n_queues as usize, band_cap_pkts, mark_thresh)
}
