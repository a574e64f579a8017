//! # netsim — deterministic discrete-event data-center network simulator
//!
//! This crate is the substrate on which the PASE reproduction is built: a
//! packet-level, store-and-forward network simulator in the spirit of the
//! ns2 setup used by the paper, written from scratch in safe Rust.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Events are totally ordered by `(time, seq)`; all
//!    randomness lives in the workload layer behind seeded generators. Two
//!    runs of the same configuration produce identical results.
//! 2. **Simplicity and robustness** over cleverness (after smoltcp): the
//!    event loop is a timing wheel and a `match`; components interact only
//!    through events.
//! 3. **Protocol pluggability.** Transports implement [`host::FlowAgent`];
//!    control logic on hosts and switches (PDQ rate arbitration, PASE's
//!    arbitrators) implements one [`node::Process`]; queue disciplines
//!    implement [`queue::Qdisc`].
//!
//! ## Model
//!
//! * Links are full-duplex point-to-point with fixed capacity and
//!   propagation delay; each direction has an output queue on the
//!   transmitting node.
//! * Switches are store-and-forward with static shortest-path forwarding
//!   (ECMP by deterministic flow hash).
//! * Hosts run one [`host::FlowAgent`] per flow endpoint; receiver agents
//!   are created on demand when the first packet of an unknown flow
//!   arrives.
//! * ECN is modeled end to end: queues set CE, receivers echo it, senders
//!   react.
//!
//! ## Quick start
//!
//! ```
//! use netsim::host::AgentFactory;
//! use netsim::prelude::*;
//!
//! // Two hosts behind one switch: 1 Gbps links, 25 us each.
//! let rack = TopologySpec::intra_rack(2);
//! # struct Sender;
//! # struct Receiver;
//! # use netsim::host::{AgentCtx, FlowAgent};
//! # impl FlowAgent for Sender {
//! #     fn on_packet(&mut self, _: netsim::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
//! # }
//! # impl FlowAgent for Receiver {
//! #     fn on_packet(&mut self, _: netsim::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
//! # }
//! // A scheme's endpoints: its sender and receiver constructors, paired
//! // (a protocol crate hands out its own, e.g. `pase::agents(cfg)`).
//! let agents = AgentFactory::new(|_: &FlowSpec| Sender, |_hint| Receiver);
//! let (net, hosts) = rack.build(agents, &|_port| Box::new(DropTailQdisc::new(100)));
//! let mut sim = Simulation::new(net);
//! sim.add_flow(FlowSpec::new(FlowId(0), hosts[0], hosts[1], 100_000, SimTime::ZERO));
//! sim.run(RunLimit::until_measured_done(SimTime::from_secs(10)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod engine;
pub mod event;
pub mod fault;
pub mod flow;
pub mod host;
pub mod ids;
pub mod invariants;
pub mod node;
pub mod packet;
pub mod port;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod switch;
pub mod time;
pub mod timer;
pub mod topology;
pub mod trace;
mod wheel;

/// The types most users need, in one import.
pub mod prelude {
    pub use crate::chaos::{ChaosConfig, ChaosIntensity, FaultClass};
    pub use crate::engine::{EngineKind, Scheduler};
    pub use crate::fault::{DegradeProfile, FaultEvent, FaultPlan};
    pub use crate::flow::FlowSpec;
    pub use crate::ids::{FlowId, NodeId, PortId};
    pub use crate::invariants::{InvariantConfig, InvariantReport};
    pub use crate::packet::{ArenaStats, Packet, PacketArena, PacketKind};
    pub use crate::queue::{DropTailQdisc, Qdisc, RedEcnQdisc, StrictPrioQdisc};
    pub use crate::rng::Rng;
    pub use crate::sim::{RunLimit, RunOutcome, Simulation};
    pub use crate::time::{Rate, SimDuration, SimTime};
    pub use crate::topology::{Network, Topology, TopologyBuilder, TopologySpec};
    pub use crate::trace::AbortReason;
}
