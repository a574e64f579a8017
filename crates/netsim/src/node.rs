//! The node sum type dispatched by the engine, and the one control
//! process both node kinds run.
//!
//! A [`Process`] is the control logic a node runs beside its data plane:
//! PASE's arbitrators on hosts and switches alike (paper §3.1: arbitration
//! "can be implemented at the end-hosts themselves, e.g., for their own
//! links to the switch", and in the switches for the rest), PDQ's per-link
//! arbiters on switches. It acts on the world through a [`ProcIo`], which
//! hides the one thing that differs by node kind: how a packet it sends
//! leaves the node.

use std::any::Any;

use crate::engine::Ctx;
use crate::event::EventKind;
use crate::fault::FaultEvent;
use crate::host::{Host, HostCore};
use crate::ids::{FlowId, NodeId, PortId};
use crate::packet::Packet;
use crate::port::Port;
use crate::switch::{live_rate, Switch};
use crate::time::{Rate, SimDuration, SimTime};

/// A node in the simulated network.
///
/// `Host` is larger than `Switch`, but nodes are constructed once into
/// the topology vector and never moved afterwards, so the size skew
/// costs nothing; boxing the host would add a pointer chase to every
/// event dispatch instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Node {
    /// An end host running flow agents.
    Host(Host),
    /// A store-and-forward switch.
    Switch(Switch),
}

impl Node {
    /// The node's id.
    pub fn id(&self) -> NodeId {
        match self {
            Node::Host(h) => h.id(),
            Node::Switch(s) => s.id(),
        }
    }

    /// Whether this node is a host.
    pub fn is_host(&self) -> bool {
        matches!(self, Node::Host(_))
    }

    /// Dispatch an event.
    pub fn handle(&mut self, kind: EventKind, ctx: &mut Ctx<'_>) {
        match self {
            Node::Host(h) => h.handle(kind, ctx),
            Node::Switch(s) => s.handle(kind, ctx),
        }
    }

    /// The node's output ports.
    pub(crate) fn ports_mut(&mut self) -> &mut [Port] {
        match self {
            Node::Host(h) => h.ports_mut(),
            Node::Switch(s) => s.ports_mut(),
        }
    }

    fn process_slot(&mut self) -> &mut Option<Box<dyn Process>> {
        match self {
            Node::Host(h) => &mut h.process,
            Node::Switch(s) => &mut s.process,
        }
    }

    /// Install (or replace) the node's control process.
    pub fn set_process(&mut self, process: Box<dyn Process>) {
        *self.process_slot() = Some(process);
    }

    /// Downcast the node's control process to a concrete type.
    pub fn process_as<T: 'static>(&mut self) -> Option<&mut T> {
        self.process_slot()
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }
}

/// Control logic attached to a host or a switch (see the module docs).
/// Install with [`Node::set_process`]; a host's flow agents reach their
/// host's process through [`crate::host::AgentCtx::process`].
pub trait Process: Send {
    /// A control packet addressed to this node arrived. On a host, control
    /// packets always come here, never to a flow agent.
    fn on_ctrl(&mut self, pkt: Packet, io: &mut ProcIo<'_, '_>) {
        let _ = (pkt, io);
    }

    /// A timer set through [`ProcIo::set_timer`] fired.
    fn on_timer(&mut self, token: u64, io: &mut ProcIo<'_, '_>) {
        let _ = (token, io);
    }

    /// An injected fault hit this node (see [`crate::fault`]): the node
    /// has already acted on its port or, on a host, crashed or restarted
    /// the machine. A node tells its process every fault it receives, so
    /// a process ignores those it does not act on; the default process
    /// ignores them all.
    fn on_fault(&mut self, fault: FaultEvent, io: &mut ProcIo<'_, '_>) {
        let _ = (fault, io);
    }

    /// Switches only: a packet is transiting, its output port selected
    /// and not yet enqueued. May rewrite headers (PDQ); the packet is
    /// forwarded either way.
    fn on_transit(&mut self, pkt: &mut Packet, out_port: PortId, io: &mut ProcIo<'_, '_>) {
        let _ = (pkt, out_port, io);
    }

    /// Downcast support for tests and cross-layer inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// How a packet a process sends leaves its node.
enum Egress<'a> {
    /// Out of a host's access port; flow wake-ups, each with the message
    /// it hands over, wait for the process to return.
    Host {
        core: &'a mut HostCore,
        wakeups: &'a mut Vec<(FlowId, Box<dyn Any + Send>)>,
    },
    /// Through a switch's forwarding table (its process detached).
    Switch(&'a mut Switch),
}

/// The interface a [`Process`] uses to act on the world.
pub struct ProcIo<'a, 'b> {
    /// The node the process runs on.
    pub id: NodeId,
    /// Engine context (clock, scheduler, stats).
    pub sim: &'a mut Ctx<'b>,
    egress: Egress<'a>,
}

impl<'a, 'b> ProcIo<'a, 'b> {
    pub(crate) fn host(
        core: &'a mut HostCore,
        wakeups: &'a mut Vec<(FlowId, Box<dyn Any + Send>)>,
        sim: &'a mut Ctx<'b>,
    ) -> Self {
        let id = core.id;
        ProcIo {
            id,
            sim,
            egress: Egress::Host { core, wakeups },
        }
    }

    pub(crate) fn switch(switch: &'a mut Switch, sim: &'a mut Ctx<'b>) -> Self {
        let id = switch.id();
        ProcIo {
            id,
            sim,
            egress: Egress::Switch(switch),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Send a packet from this node: a host's out of its access port, a
    /// switch's through its forwarding table (blackholed when no next hop
    /// survives).
    pub fn send(&mut self, pkt: Packet) {
        match &mut self.egress {
            Egress::Host { core, .. } => core.emit(pkt, self.sim),
            Egress::Switch(switch) => switch.emit(pkt, self.sim),
        }
    }

    /// Arrange for [`Process::on_timer`] to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.sim.schedule_self(delay, EventKind::PluginTimer(token));
    }

    /// Hand `msg` to a flow's agent: the host invokes
    /// [`crate::host::FlowAgent::on_wake`] with it after the process
    /// returns (e.g. an arbitration answer the flow acts on), or drops it
    /// when the flow's agent has retired. Flows live on hosts: a switch
    /// has none to wake.
    pub fn wake_flow(&mut self, flow: FlowId, msg: Box<dyn Any + Send>) {
        match &mut self.egress {
            Egress::Host { wakeups, .. } => wakeups.push((flow, msg)),
            Egress::Switch(_) => debug_assert!(false, "{flow} woken on switch {}", self.id),
        }
    }

    /// The capacity of one of this node's links.
    pub fn port_rate(&self, port: PortId) -> Rate {
        let ports = match &self.egress {
            Egress::Host { core, .. } => std::slice::from_ref(&core.port),
            Egress::Switch(switch) => switch.ports(),
        };
        ports[port.index()].rate
    }

    /// The capacity this node can still route over when `ports` are the
    /// equal-cost set: the summed rate of those that forwarding would pick
    /// among — up, and healthy under health-aware routing — or zero when
    /// none is up.
    pub fn live_rate(&self, ports: &[PortId]) -> Rate {
        match &self.egress {
            Egress::Host { core, .. } => live_rate(ports, std::slice::from_ref(&core.port), false),
            Egress::Switch(switch) => live_rate(ports, switch.ports(), switch.health_aware()),
        }
    }
}
