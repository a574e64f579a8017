//! # pase — the paper's contribution
//!
//! PASE ("Friends, not Foes", SIGCOMM 2014) synthesizes the three
//! transport strategies of prior data-center designs, each doing only what
//! it is best at:
//!
//! | Strategy | Role in PASE | Module |
//! |---|---|---|
//! | Arbitration | coarse-grained inter-flow prioritization: per-link arbitrators assign each flow a priority queue and a reference rate (Algorithm 1); one arbitrator process ([`process`]) with one metered control inbox ([`shed`]) whether it sits on a host or a switch, climbing the tree by one rule ([`TreeInfo::next_arbitrator`]) | [`algorithm`], [`process`], [`shed`], [`tree`] |
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
//! let net = topology_builder.build(pase::agents(cfg), &qdisc_chooser);
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
pub mod messages;
pub mod process;
pub mod shed;
pub mod tree;
mod wiring;

pub use algorithm::{Decision, FlowEntry, LinkArbitrator};
pub use config::{Criterion, PaseConfig};
pub use endpoint::PaseSender;
pub use health::{ChannelHealth, Transition};
pub use messages::{ArbMsg, ArbRequest, ArbResponse, Leg};
pub use process::{ArbPlan, ArbProcess};
pub use shed::InboxBudget;
pub use tree::{Level, TreeInfo};
pub use wiring::install;

use netsim::host::AgentFactory;
use netsim::queue::StrictPrioQdisc;
use transport::SimpleReceiver;

/// PASE's endpoints: its senders, the shared receiver.
pub fn agents(cfg: PaseConfig) -> AgentFactory {
    AgentFactory::new(move |spec| PaseSender::new(spec, cfg), SimpleReceiver::new)
}

/// The switch queue discipline PASE assumes: `n` strict-priority bands
/// with per-band RED/ECN (paper §3.3: PRIO + RED, eight queues, marking
/// threshold `K`).
pub fn pase_qdisc(cfg: &PaseConfig, band_cap_pkts: usize, mark_thresh: usize) -> StrictPrioQdisc {
    StrictPrioQdisc::new(cfg.n_queues as usize, band_cap_pkts, mark_thresh)
}
