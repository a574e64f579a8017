//! End hosts.
//!
//! A [`Host`] owns one access port and a set of per-flow endpoint agents.
//! Protocol crates implement [`FlowAgent`] (the sender/receiver state
//! machines) and [`AgentFactory`] (how to build them); hosts instantiate a
//! sender agent when a [`crate::event::EventKind::FlowStart`] fires and a
//! receiver agent lazily when the first packet of an unknown flow arrives.
//!
//! Hosts may also carry a [`HostService`]: host-local control-plane state
//! shared by all agents on the machine. PASE uses this for the endpoint
//! arbitrators that manage the host's own access links (paper §3.1: "this
//! functionality can be implemented at the end-hosts themselves, e.g., for
//! their own links to the switch").

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::engine::Ctx;
use crate::event::EventKind;
use crate::fault::{FaultDirective, NodeFault};
use crate::flow::{FlowSpec, ReceiverHint};
use crate::ids::{FlowId, IdHashBuilder, NodeId};
use crate::packet::{Packet, PacketKind};
use crate::port::Port;
use crate::time::{SimDuration, SimTime};

/// A per-flow endpoint state machine (sender or receiver side).
pub trait FlowAgent: Send {
    /// The flow has arrived; begin transmitting (sender side). Receiver
    /// agents are started at creation too, before their first packet.
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>);

    /// A packet belonging to this agent's flow arrived at the host.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>);

    /// A timer previously set through [`AgentCtx::set_timer`] fired.
    /// Agents must tolerate stale timers (use epoch tokens).
    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>);

    /// Whether this agent can be garbage-collected.
    fn is_done(&self) -> bool;

    /// Downcast support for white-box tests and cross-layer inspection.
    /// The default implementation opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// Builds the endpoint agents for one transport scheme.
pub trait AgentFactory: Send + Sync {
    /// Create the sender-side agent for a flow originating at this host.
    fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent>;
    /// Create the receiver-side agent when the first packet of an unknown
    /// flow arrives.
    fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent>;
}

/// Host-local control-plane state shared by all agents on a host (e.g.
/// PASE's endpoint arbitrators). Downcast with [`AgentCtx::service`].
pub trait HostService: Send {
    /// Handle a control packet addressed to this host that does not belong
    /// to any flow agent.
    fn on_ctrl(&mut self, pkt: Packet, host: &mut HostIo<'_, '_, '_>);

    /// A timer previously set through [`HostIo::set_timer`] fired.
    fn on_timer(&mut self, token: u64, host: &mut HostIo<'_, '_, '_>);

    /// An injected control-plane fault hit this host (see
    /// [`crate::fault`]). The default service ignores faults.
    fn on_fault(&mut self, fault: NodeFault, host: &mut HostIo<'_, '_, '_>) {
        let _ = (fault, host);
    }

    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Everything on a host except the agents and the service — what an agent
/// is allowed to touch while it runs.
pub struct HostCore {
    /// This host's node id.
    pub id: NodeId,
    /// The single access port toward the ToR switch.
    pub port: Port,
    /// Crash/restart generation counter, stamped onto every packet this
    /// host sends ([`crate::packet::Packet::incarnation`]). Bumped by
    /// [`crate::fault::FaultDirective::HostRestart`].
    pub incarnation: u32,
}

/// An end host: one access port, per-flow agents, optional service.
pub struct Host {
    core: HostCore,
    factory: Arc<dyn AgentFactory>,
    service: Option<Box<dyn HostService>>,
    /// Live agents, keyed by flow. The deterministic [`IdHashBuilder`]
    /// keeps the per-packet lookup off SipHash; every iteration over this
    /// map sorts its keys first, so the hasher never leaks into event
    /// order.
    agents: HashMap<FlowId, Box<dyn FlowAgent>, IdHashBuilder>,
    /// Set by [`crate::fault::FaultDirective::HostCrash`]: the machine is
    /// down. Nothing is consumed or started until the matching restart.
    crashed: bool,
}

/// The interface a [`FlowAgent`] uses to act on the world.
pub struct AgentCtx<'a, 'b> {
    /// The flow this agent belongs to.
    pub flow: FlowId,
    /// The host the agent runs on (port access).
    pub host: &'a mut HostCore,
    /// Host-local control service, if the scheme installs one.
    pub service: Option<&'a mut Box<dyn HostService>>,
    /// Engine context (clock, scheduler, stats).
    pub sim: &'a mut Ctx<'b>,
}

impl<'a, 'b> AgentCtx<'a, 'b> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Transmit a packet out of the host's access port.
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.ts = self.now();
        pkt.incarnation = self.host.incarnation;
        match pkt.kind {
            PacketKind::Ctrl => self.sim.stats.note_ctrl_sent(pkt.wire_bytes),
            PacketKind::Data => self.sim.stats.note_data_injected(),
            _ => {}
        }
        // Injection is where a packet is boxed, once; the arena recycles
        // the allocation when the packet is consumed or dropped, so
        // steady-state sends do not touch the global allocator.
        let boxed = self.sim.alloc_packet(pkt);
        self.host.port.send(boxed, self.sim);
    }

    /// Arrange for [`FlowAgent::on_timer`] to fire after `delay` with
    /// `token`. Timers cannot be cancelled; agents should version tokens
    /// and ignore stale ones. For one-shot and self-re-arming timers; a
    /// timer that is pushed back before it fires (an RTO) belongs in a
    /// [`crate::timer::SupersedingTimer`], which queues one event, not
    /// one per arm.
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
    pub fn flow_completed(&mut self) {
        let now = self.now();
        self.sim.stats.flow_completed(self.flow, now);
    }

    /// Record that this flow's sender aborted the transfer, with the
    /// reason (PDQ early termination, bounded RTO give-up, ...).
    pub fn flow_aborted(&mut self, reason: crate::trace::AbortReason) {
        let now = self.now();
        self.sim.stats.flow_aborted(self.flow, now, reason);
    }

    /// Downcast the host service to a concrete type.
    pub fn service<T: 'static>(&mut self) -> Option<&mut T> {
        self.service
            .as_deref_mut()
            .and_then(|s| s.as_any_mut().downcast_mut::<T>())
    }
}

/// The interface a [`HostService`] uses to act on the world.
pub struct HostIo<'a, 'b, 'c> {
    /// The host the service runs on.
    pub host: &'a mut HostCore,
    /// Engine context (clock, scheduler, stats).
    pub sim: &'a mut Ctx<'c>,
    /// Deferred notifications back into flow agents; drained by the host
    /// after the service returns.
    pub(crate) wakeups: &'a mut Vec<FlowId>,
    _marker: core::marker::PhantomData<&'b ()>,
}

impl<'a, 'b, 'c> HostIo<'a, 'b, 'c> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Transmit a packet out of the host's access port.
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.ts = self.now();
        pkt.incarnation = self.host.incarnation;
        match pkt.kind {
            PacketKind::Ctrl => self.sim.stats.note_ctrl_sent(pkt.wire_bytes),
            PacketKind::Data => self.sim.stats.note_data_injected(),
            _ => {}
        }
        let boxed = self.sim.alloc_packet(pkt);
        self.host.port.send(boxed, self.sim);
    }

    /// Arrange for [`HostService::on_timer`] to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.sim.schedule_self(delay, EventKind::PluginTimer(token));
    }

    /// Ask the host to invoke `on_timer(WAKEUP_TOKEN)` on a flow's agent
    /// after the service returns (e.g. arbitration state changed and the
    /// flow should re-evaluate its rate).
    pub fn wake_flow(&mut self, flow: FlowId) {
        self.wakeups.push(flow);
    }
}

/// Token delivered to [`FlowAgent::on_timer`] when a host service wakes the
/// agent via [`HostIo::wake_flow`]. Chosen high to stay clear of the small
/// token spaces agents use for their own timers.
pub const WAKEUP_TOKEN: u64 = u64::MAX;

/// Plugin-timer tokens at or above this base mark *background maintenance*
/// work (periodic state GC, bookkeeping) rather than forward progress on
/// any flow. The stuck-flow oracle ([`crate::invariants`]) ignores pending
/// `PluginTimer` events in this range when deciding whether an incomplete
/// flow can still advance — a perpetual GC tick must not masquerade as
/// progress evidence. Services and plugins typically use
/// `MAINTENANCE_TIMER_BASE + epoch` so restarts invalidate stale ticks.
pub const MAINTENANCE_TIMER_BASE: u64 = 1 << 62;

impl Host {
    /// Create a host with the given access port, agent factory, and
    /// optional host-local service.
    pub fn new(
        id: NodeId,
        port: Port,
        factory: Arc<dyn AgentFactory>,
        service: Option<Box<dyn HostService>>,
    ) -> Host {
        Host {
            core: HostCore {
                id,
                port,
                incarnation: 0,
            },
            factory,
            service,
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

    /// Number of live agents (senders not yet garbage-collected plus
    /// receivers).
    pub fn live_agents(&self) -> usize {
        self.agents.len()
    }

    /// Install (or replace) the host-local control service.
    pub fn set_service(&mut self, service: Box<dyn HostService>) {
        self.service = Some(service);
    }

    /// Downcast a live flow agent (sender or receiver) to a concrete type.
    /// Requires the agent to override [`FlowAgent::as_any_mut`].
    pub fn agent_as<T: 'static>(&mut self, flow: FlowId) -> Option<&mut T> {
        self.agents
            .get_mut(&flow)?
            .as_any_mut()?
            .downcast_mut::<T>()
    }

    /// Downcast the host service.
    pub fn service_as<T: 'static>(&mut self) -> Option<&mut T> {
        self.service
            .as_deref_mut()
            .and_then(|s| s.as_any_mut().downcast_mut::<T>())
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
                self.run_service(ctx, |svc, io| svc.on_timer(token, io));
            }
            EventKind::Fault(directive) => self.apply_fault(directive, ctx),
        }
    }

    /// Apply an injected fault directive to this host.
    fn apply_fault(&mut self, directive: FaultDirective, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.stats.trace_event(
            now,
            &crate::trace::TraceEvent::Fault {
                node: self.core.id,
                fault: directive,
            },
        );
        match directive {
            FaultDirective::PortDown(port) => {
                debug_assert_eq!(port.index(), 0, "hosts have a single port");
                self.core.port.set_down(ctx);
            }
            FaultDirective::PortUp(port) => {
                debug_assert_eq!(port.index(), 0, "hosts have a single port");
                self.core.port.set_up();
            }
            FaultDirective::CtrlLossBurst { port, n } => {
                debug_assert_eq!(port.index(), 0, "hosts have a single port");
                self.core.port.inject_ctrl_loss_burst(n);
            }
            FaultDirective::Crash => {
                self.run_service(ctx, |svc, io| svc.on_fault(NodeFault::Crash, io));
            }
            FaultDirective::Restart => {
                self.run_service(ctx, |svc, io| svc.on_fault(NodeFault::Restart, io));
            }
            FaultDirective::HostCrash => {
                if !self.crashed {
                    self.crashed = true;
                    // Every live agent dies with the machine. Flows this
                    // host *sources* move to the terminal Aborted state
                    // (the record's completion keeps runs terminating);
                    // flows it receives are left for the remote sender to
                    // give up on via the bounded-RTO abort. Sorted order
                    // keeps the emitted FlowDone trace deterministic.
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
                    self.run_service(ctx, |svc, io| svc.on_fault(NodeFault::Crash, io));
                }
            }
            FaultDirective::HostRestart => {
                if self.crashed {
                    self.crashed = false;
                    // New incarnation: receivers can tell post-restart
                    // traffic from pre-crash segments still in flight.
                    self.core.incarnation += 1;
                    self.run_service(ctx, |svc, io| svc.on_fault(NodeFault::Restart, io));
                }
            }
            FaultDirective::PortDegrade { port, profile } => {
                debug_assert_eq!(port.index(), 0, "hosts have a single port");
                self.core.port.set_degraded(self.core.id, profile);
            }
            FaultDirective::PortRestore(port) => {
                debug_assert_eq!(port.index(), 0, "hosts have a single port");
                self.core.port.set_restored();
            }
            FaultDirective::CtrlStormStart { amplify } => {
                self.run_service(ctx, |svc, io| {
                    svc.on_fault(NodeFault::CtrlStormStart { amplify }, io)
                });
            }
            FaultDirective::CtrlStormEnd => {
                self.run_service(ctx, |svc, io| svc.on_fault(NodeFault::CtrlStormEnd, io));
            }
        }
    }

    fn deliver(&mut self, pkt: Box<Packet>, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(pkt.dst, self.core.id, "misrouted packet");
        if self.crashed {
            // A crashed machine consumes nothing. Data and control are
            // accounted as lost-to-crash so their conservation laws still
            // balance; everything else (acks, probes) just evaporates.
            match pkt.kind {
                PacketKind::Data => ctx.stats.note_data_lost_to_crash(),
                PacketKind::Ctrl => ctx.stats.note_ctrl_lost_to_crash(),
                _ => {}
            }
            ctx.release_packet(pkt);
            return;
        }
        if pkt.corrupted {
            // Checksum failure: discard silently, like real NICs do. The
            // missing ACK (or missing arbitration response) is what the
            // transport's RTO/SACK machinery recovers from. Data and
            // control packets are charged to their `corrupted` terms.
            match pkt.kind {
                PacketKind::Data => ctx.stats.note_data_corrupted(self.core.id, &pkt),
                PacketKind::Ctrl => ctx.stats.note_ctrl_corrupted(),
                _ => {}
            }
            if ctx.stats.tracing() {
                let now = ctx.now();
                ctx.stats.trace_event(
                    now,
                    &crate::trace::TraceEvent::Corrupt {
                        node: self.core.id,
                        flow: pkt.flow,
                        kind: pkt.kind,
                        seq: pkt.seq,
                    },
                );
            }
            ctx.release_packet(pkt);
            return;
        }
        if pkt.kind == PacketKind::Data {
            ctx.stats.note_data_delivered();
        }
        // Control-plane packets always go to the host service, even when a
        // flow agent exists for the tagged flow: agents learn of control
        // state changes through service wake-ups, not raw packets.
        if pkt.kind == PacketKind::Ctrl {
            if self.service.is_none() {
                // No host service to interpret it: account the message so
                // the control-plane conservation law still closes.
                ctx.stats.note_ctrl_unattended();
                ctx.release_packet(pkt);
                return;
            }
            self.run_service(ctx, move |svc, io| {
                let pkt = io.sim.take_packet(pkt);
                svc.on_ctrl(pkt, io);
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

    /// Run a closure over the agent registered for `flow`, then
    /// garbage-collect the agent once it reports done. Returns whether an
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
        {
            let mut actx = AgentCtx {
                flow,
                host: &mut self.core,
                service: self.service.as_mut(),
                sim: ctx,
            };
            f(agent.as_mut(), &mut actx);
        }
        if agent.is_done() {
            self.agents.remove(&flow);
        }
        true
    }

    /// Register a freshly built agent, then run it (sender on flow start,
    /// receiver on first packet). An immediately-done agent is inserted
    /// and garbage-collected in one motion.
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

    /// Run a closure over the host service (temporarily detached), then
    /// deliver any flow wake-ups it requested.
    fn run_service<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut dyn HostService, &mut HostIo<'_, '_, '_>),
    {
        let Some(mut svc) = self.service.take() else {
            return;
        };
        let mut wakeups = Vec::new();
        {
            let mut io = HostIo {
                host: &mut self.core,
                sim: ctx,
                wakeups: &mut wakeups,
                _marker: core::marker::PhantomData,
            };
            f(svc.as_mut(), &mut io);
        }
        self.service = Some(svc);
        for flow in wakeups {
            // A wake-up for an already-collected agent is a no-op.
            self.run_agent(flow, ctx, |agent, actx| agent.on_timer(WAKEUP_TOKEN, actx));
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
