//! End hosts.
//!
//! A [`Host`] owns one access port and a set of per-flow endpoint agents.
//! Protocol crates implement [`FlowAgent`] (the sender/receiver state
//! machines) and pair their two constructors in one [`AgentFactory`]
//! value (`transport::agents`, `pase::agents`, ...); hosts instantiate a
//! sender agent when a [`crate::event::EventKind::FlowStart`] fires and a
//! receiver agent lazily when the first packet of an unknown flow arrives.
//!
//! Hosts may also run a [`Process`]: host-local control-plane state
//! shared by all agents on the machine. PASE uses this for the endpoint
//! arbitrators that manage the host's own access links (paper §3.1: "this
//! functionality can be implemented at the end-hosts themselves, e.g., for
//! their own links to the switch").

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::engine::Ctx;
use crate::event::EventKind;
use crate::fault::FaultEvent;
use crate::flow::{FlowSpec, ReceiverHint};
use crate::ids::{FlowId, IdHashBuilder, NodeId, PortId};
use crate::node::{ProcIo, Process};
use crate::packet::{Packet, PacketKind};
use crate::port::Port;
use crate::stats::Fate;
use crate::time::{SimDuration, SimTime};

/// A per-flow endpoint state machine (sender or receiver side).
///
/// The host drives its lifecycle: it builds the agent and calls
/// [`on_start`](FlowAgent::on_start), hands it its flow's packets, its
/// timers and its process's wake-ups, and drops it in the same dispatch
/// that recorded the flow's end ([`AgentCtx::flow_completed`] /
/// [`AgentCtx::flow_aborted`]). Receivers never record an end and stay
/// resident: late retransmissions must still be acknowledged.
pub trait FlowAgent: Send {
    /// The flow has arrived; begin transmitting (sender side). Receiver
    /// agents are started at creation too, before their first packet.
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let _ = ctx;
    }

    /// A packet belonging to this agent's flow arrived at the host.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>);

    /// A timer previously set through [`AgentCtx::set_timer`] or a
    /// [`crate::timer::SupersedingTimer`] fired. Agents must tolerate
    /// stale timers: [`crate::timer::Timer`] tells them apart.
    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        let _ = (token, ctx);
    }

    /// The host's process handed this flow `msg` ([`ProcIo::wake_flow`]),
    /// e.g. an arbitration answer the flow re-evaluates its rate by.
    fn on_wake(&mut self, msg: Box<dyn Any + Send>, ctx: &mut AgentCtx<'_, '_>) {
        let _ = (msg, ctx);
    }

    /// Downcast support for white-box tests and cross-layer inspection.
    /// The default implementation opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// Builds a flow's sender agent from its spec.
pub type SenderFn = Box<dyn Fn(&FlowSpec) -> Box<dyn FlowAgent> + Send + Sync>;

/// Builds a flow's receiver agent from the first packet's hint.
pub type ReceiverFn = Box<dyn Fn(ReceiverHint) -> Box<dyn FlowAgent> + Send + Sync>;

/// One transport scheme's endpoints: how every host builds a flow's
/// sender and its receiver.
pub struct AgentFactory {
    sender: SenderFn,
    receiver: ReceiverFn,
}

impl AgentFactory {
    /// The scheme whose senders `sender` builds from a flow's spec and
    /// whose receivers `receiver` builds from the first packet's hint.
    pub fn new<S: FlowAgent + 'static, R: FlowAgent + 'static>(
        sender: impl Fn(&FlowSpec) -> S + Send + Sync + 'static,
        receiver: impl Fn(ReceiverHint) -> R + Send + Sync + 'static,
    ) -> AgentFactory {
        AgentFactory {
            sender: Box::new(move |spec| Box::new(sender(spec))),
            receiver: Box::new(move |hint| Box::new(receiver(hint))),
        }
    }

    /// The sender-side agent for a flow originating at this host.
    pub fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent> {
        (self.sender)(spec)
    }

    /// The receiver-side agent for the first packet of an unknown flow.
    pub fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent> {
        (self.receiver)(hint)
    }
}

/// Everything on a host except the agents and the process — what an
/// agent is allowed to touch while it runs.
pub struct HostCore {
    /// This host's node id.
    pub id: NodeId,
    /// The single access port toward the ToR switch.
    pub port: Port,
    /// Crash/restart generation counter, stamped onto every packet this
    /// host sends ([`crate::packet::Packet::incarnation`]). Bumped by
    /// [`FaultEvent::HostRestart`].
    pub incarnation: u32,
}

impl HostCore {
    /// The host's one send path, for agents and the process alike: stamp
    /// the packet, enter it on the ledger's sent side and put it on the
    /// access port. Injection is where a packet is boxed, once; the arena
    /// recycles the allocation when the packet leaves the network, so
    /// steady-state sends do not touch the global allocator.
    pub(crate) fn emit(&mut self, mut pkt: Packet, sim: &mut Ctx<'_>) {
        pkt.ts = sim.now();
        pkt.incarnation = self.incarnation;
        sim.stats.note_sent(&pkt);
        let boxed = sim.alloc_packet(pkt);
        self.port.send(boxed, sim);
    }
}

/// An end host: one access port, per-flow agents, optional process.
pub struct Host {
    core: HostCore,
    factory: Arc<AgentFactory>,
    pub(crate) process: Option<Box<dyn Process>>,
    /// Live agents, keyed by flow. The deterministic [`IdHashBuilder`]
    /// keeps the per-packet lookup off SipHash; every iteration over this
    /// map sorts its keys first, so the hasher never leaks into event
    /// order.
    agents: HashMap<FlowId, Box<dyn FlowAgent>, IdHashBuilder>,
    /// Set by [`FaultEvent::HostCrash`]: the machine is down. Nothing is
    /// consumed or started until the matching restart.
    crashed: bool,
}

/// The interface a [`FlowAgent`] uses to act on the world.
pub struct AgentCtx<'a, 'b> {
    /// The flow this agent belongs to.
    pub flow: FlowId,
    /// The host the agent runs on (port access).
    pub host: &'a mut HostCore,
    /// The host's control process, if the scheme installs one.
    pub process: Option<&'a mut Box<dyn Process>>,
    /// Engine context (clock, scheduler, stats).
    pub sim: &'a mut Ctx<'b>,
    /// Set by the flow-end calls: the host drops the agent once the
    /// current handler returns.
    retired: bool,
}

impl<'a, 'b> AgentCtx<'a, 'b> {
    /// The context `flow`'s agent runs in on `host`.
    pub fn new(
        flow: FlowId,
        host: &'a mut HostCore,
        process: Option<&'a mut Box<dyn Process>>,
        sim: &'a mut Ctx<'b>,
    ) -> AgentCtx<'a, 'b> {
        AgentCtx {
            flow,
            host,
            process,
            sim,
            retired: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Transmit a packet out of the host's access port.
    pub fn send(&mut self, pkt: Packet) {
        self.host.emit(pkt, self.sim);
    }

    /// Arrange for [`FlowAgent::on_timer`] to fire after `delay` with
    /// `token` (a [`crate::timer::Timer`]'s). For one-shot and
    /// self-re-arming timers; a timer that is pushed back before it fires
    /// (an RTO) belongs in a [`crate::timer::SupersedingTimer`], which
    /// queues one event, not one per arm.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.sim.schedule_self(
            delay,
            EventKind::AgentTimer {
                flow: self.flow,
                token,
            },
        );
    }

    /// Record that this flow's sender observed the final acknowledgment.
    /// The flow is over: the host drops the agent when the current handler
    /// returns.
    pub fn flow_completed(&mut self) {
        let now = self.now();
        self.sim.stats.flow_completed(self.flow, now);
        self.retired = true;
    }

    /// Record that this flow's sender aborted the transfer, with the
    /// reason (PDQ early termination, bounded RTO give-up, ...). The host
    /// drops the agent when the current handler returns.
    pub fn flow_aborted(&mut self, reason: crate::trace::AbortReason) {
        let now = self.now();
        self.sim.stats.flow_aborted(self.flow, now, reason);
        self.retired = true;
    }

    /// Downcast the host's process to a concrete type.
    pub fn process<T: 'static>(&mut self) -> Option<&mut T> {
        self.process
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }
}

impl Host {
    /// Create a host with the given access port and agent factory (and
    /// no process: see [`crate::node::Node::set_process`]).
    pub fn new(id: NodeId, port: Port, factory: Arc<AgentFactory>) -> Host {
        Host {
            core: HostCore {
                id,
                port,
                incarnation: 0,
            },
            factory,
            process: None,
            agents: HashMap::default(),
            crashed: false,
        }
    }

    /// Whether the host is currently crashed (between a `HostCrash` and
    /// the matching `HostRestart`).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The host's current incarnation (bumped on every restart).
    pub fn incarnation(&self) -> u32 {
        self.core.incarnation
    }

    /// This host's node id.
    pub fn id(&self) -> NodeId {
        self.core.id
    }

    /// Access the host's port (for inspection in tests and tracing).
    pub fn port(&self) -> &Port {
        &self.core.port
    }

    /// The host's one port, as a slice, for the simulation to set its hop.
    pub(crate) fn ports_mut(&mut self) -> &mut [Port] {
        std::slice::from_mut(&mut self.core.port)
    }

    /// Number of live agents (senders not yet garbage-collected plus
    /// receivers).
    pub fn live_agents(&self) -> usize {
        self.agents.len()
    }

    /// Downcast a live flow agent (sender or receiver) to a concrete type.
    /// Requires the agent to override [`FlowAgent::as_any_mut`].
    pub fn agent_as<T: 'static>(&mut self, flow: FlowId) -> Option<&mut T> {
        self.agents
            .get_mut(&flow)?
            .as_any_mut()?
            .downcast_mut::<T>()
    }

    /// Dispatch an event to this host.
    pub fn handle(&mut self, kind: EventKind, ctx: &mut Ctx<'_>) {
        match kind {
            EventKind::FlowStart(spec) => {
                if self.crashed {
                    // A flow scheduled to start while its source host is
                    // down never runs: terminal abort, attributable to the
                    // crash.
                    let now = ctx.now();
                    ctx.stats
                        .flow_aborted(spec.id, now, crate::trace::AbortReason::HostCrash);
                    return;
                }
                let agent = self.factory.sender(&spec);
                self.install_and_run(spec.id, agent, ctx, |agent, actx| agent.on_start(actx));
            }
            EventKind::Deliver(pkt) => self.deliver(pkt, ctx),
            EventKind::TxComplete(port) => {
                debug_assert_eq!(port.index(), 0, "hosts have a single port");
                self.core.port.on_tx_complete(ctx);
            }
            EventKind::AgentTimer { flow, token } => {
                // A stale timer for a completed flow finds no agent and is
                // ignored.
                self.run_agent(flow, ctx, |agent, actx| agent.on_timer(token, actx));
            }
            EventKind::PluginTimer(token) => {
                self.run_process(ctx, |p, io| p.on_timer(token, io));
            }
            EventKind::Fault(fault) => self.apply_fault(*fault, ctx),
        }
    }

    /// Apply an injected fault to this host: the shared path
    /// ([`FaultEvent::apply`]), the whole-machine crash or restart, then
    /// the process. A crash of a crashed host and a restart of a live one
    /// are no-ops its process never hears of.
    fn apply_fault(&mut self, (fault, port): (FaultEvent, Option<PortId>), ctx: &mut Ctx<'_>) {
        let ports = std::slice::from_mut(&mut self.core.port);
        fault.apply(self.core.id, port, ports, ctx);
        match fault {
            FaultEvent::HostCrash { .. } => {
                if self.crashed {
                    return;
                }
                self.crashed = true;
                // Every live agent dies with the machine. Flows this host
                // *sources* move to the terminal Aborted state (the
                // record's completion keeps runs terminating); flows it
                // receives are left for the remote sender to give up on
                // via the bounded-RTO abort. Sorted order keeps the
                // emitted FlowDone trace deterministic.
                let mut flows: Vec<FlowId> = self.agents.keys().copied().collect();
                flows.sort_unstable();
                self.agents.clear();
                let now = ctx.now();
                for flow in flows {
                    if ctx.stats.flow(flow).map(|r| r.spec.src) == Some(self.core.id) {
                        ctx.stats
                            .flow_aborted(flow, now, crate::trace::AbortReason::HostCrash);
                    }
                }
            }
            FaultEvent::HostRestart { .. } => {
                if !self.crashed {
                    return;
                }
                self.crashed = false;
                // New incarnation: receivers can tell post-restart traffic
                // from pre-crash segments still in flight.
                self.core.incarnation += 1;
            }
            _ => {}
        }
        self.run_process(ctx, |p, io| p.on_fault(fault, io));
    }

    fn deliver(&mut self, pkt: Box<Packet>, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(pkt.dst, self.core.id, "misrouted packet");
        if self.crashed {
            // A crashed machine consumes nothing (acks and probes, on no
            // plane's books, just evaporate).
            ctx.retire(pkt, Fate::LostToCrash);
            return;
        }
        if pkt.corrupted {
            // Checksum failure: discard silently, like real NICs do. The
            // missing ACK (or missing arbitration response) is what the
            // transport's RTO/SACK machinery recovers from.
            ctx.retire(pkt, Fate::Corrupted);
            return;
        }
        if pkt.kind == PacketKind::Data {
            ctx.stats.note_data_delivered();
        }
        // Control-plane packets always go to the host's process, even when
        // a flow agent exists for the tagged flow: agents learn of control
        // state changes through process wake-ups, not raw packets.
        if pkt.kind == PacketKind::Ctrl {
            if self.process.is_none() {
                ctx.retire(pkt, Fate::Unattended);
                return;
            }
            self.run_process(ctx, move |p, io| {
                let pkt = io.sim.take_packet(pkt);
                p.on_ctrl(pkt, io);
            });
            return;
        }
        let flow = pkt.flow;
        // Hot path: hand the packet to the flow's live agent. It rides in
        // an Option so the closure can move it out while the host keeps
        // it when no agent exists (first packet of a new flow). The box
        // is recycled into the arena at the consumption site.
        let mut arriving = Some(pkt);
        if self.run_agent(flow, ctx, |agent, actx| {
            let pkt = actx
                .sim
                .take_packet(arriving.take().expect("packet present"));
            agent.on_packet(pkt, actx);
        }) {
            return;
        }
        let pkt = arriving.expect("no agent ran, packet kept");
        match pkt.kind {
            PacketKind::Data | PacketKind::Probe => {
                // First packet of an unknown flow: create the receiver.
                let hint = ReceiverHint {
                    flow,
                    src: pkt.src,
                    dst: self.core.id,
                };
                let agent = self.factory.receiver(hint);
                // Start, then deliver the packet.
                self.install_and_run(flow, agent, ctx, move |agent, actx| {
                    agent.on_start(actx);
                    let pkt = actx.sim.take_packet(pkt);
                    agent.on_packet(pkt, actx);
                });
            }
            PacketKind::Ctrl => unreachable!("handled above"),
            PacketKind::Ack | PacketKind::ProbeAck => {
                // ACK for a flow that already completed; ignore.
                ctx.release_packet(pkt);
            }
        }
    }

    /// Run a closure over the agent registered for `flow`, then drop the
    /// agent if the closure recorded the flow's end. Returns whether an
    /// agent existed. The agents map and the rest of the host are
    /// disjoint fields, so the agent stays in the map while it borrows
    /// the core through [`AgentCtx`] — no remove/re-insert pair per
    /// delivered packet.
    fn run_agent<F>(&mut self, flow: FlowId, ctx: &mut Ctx<'_>, f: F) -> bool
    where
        F: FnOnce(&mut dyn FlowAgent, &mut AgentCtx<'_, '_>),
    {
        let Some(agent) = self.agents.get_mut(&flow) else {
            return false;
        };
        let mut actx = AgentCtx::new(flow, &mut self.core, self.process.as_mut(), ctx);
        f(agent.as_mut(), &mut actx);
        if actx.retired {
            self.agents.remove(&flow);
        }
        true
    }

    /// Register a freshly built agent, then run it (sender on flow start,
    /// receiver on first packet). An agent that ends its flow at once is
    /// inserted and dropped in one motion.
    fn install_and_run<F>(
        &mut self,
        flow: FlowId,
        agent: Box<dyn FlowAgent>,
        ctx: &mut Ctx<'_>,
        f: F,
    ) where
        F: FnOnce(&mut dyn FlowAgent, &mut AgentCtx<'_, '_>),
    {
        let prev = self.agents.insert(flow, agent);
        debug_assert!(prev.is_none(), "{flow} already has a live agent");
        self.run_agent(flow, ctx, f);
    }

    /// Run a closure over the host's process (temporarily detached), then
    /// deliver any flow wake-ups it requested.
    fn run_process<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut dyn Process, &mut ProcIo<'_, '_>),
    {
        let Some(mut process) = self.process.take() else {
            return;
        };
        let mut wakeups = Vec::new();
        f(
            process.as_mut(),
            &mut ProcIo::host(&mut self.core, &mut wakeups, ctx),
        );
        self.process = Some(process);
        for (flow, msg) in wakeups {
            // A hand-off to a retired agent is dropped with its message.
            self.run_agent(flow, ctx, |agent, actx| agent.on_wake(msg, actx));
        }
    }
}

impl core::fmt::Debug for Host {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.core.id)
            .field("agents", &self.agents.len())
            .field("port", &self.core.port)
            .finish()
    }
}
