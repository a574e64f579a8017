//! Simulation events.

use crate::fault::FaultDirective;
use crate::flow::FlowSpec;
use crate::ids::{FlowId, NodeId, PortId};
use crate::packet::Packet;
use crate::time::SimTime;

/// What happens when an event fires. Every event targets exactly one node.
///
/// The two large payloads ([`Packet`], [`FlowSpec`]) are boxed so the
/// enum — and with it every [`ScheduledEvent`] the heap sifts — stays
/// pointer-sized-plus-discriminant instead of inheriting the ~140-byte
/// packet inline. Packets already live on the heap for their whole
/// wire-to-delivery lifetime, so the box is one allocation per packet,
/// not one per hop.
#[derive(Debug)]
pub enum EventKind {
    /// A packet finishes propagating across a link and arrives at the node.
    Deliver(Box<Packet>),
    /// The node's output port finishes serializing its in-flight packet.
    TxComplete(PortId),
    /// A timer set by one of the node's flow agents fires.
    AgentTimer {
        /// The flow whose agent set the timer.
        flow: FlowId,
        /// Opaque token chosen by the agent; stale-timer filtering is the
        /// agent's responsibility (epoch tokens).
        token: u64,
    },
    /// A timer set by the node's control plugin (switch plugin or host
    /// service) fires.
    PluginTimer(u64),
    /// A new flow arrives at its source host.
    FlowStart(Box<FlowSpec>),
    /// An injected fault fires at the node (see [`crate::fault`]).
    Fault(FaultDirective),
}

impl EventKind {
    /// Build a [`EventKind::Deliver`] from a packet by value.
    ///
    /// Use this instead of the variant constructor so call sites stay
    /// agnostic to how the payload is stored inside the event.
    pub fn deliver(pkt: Packet) -> EventKind {
        EventKind::Deliver(Box::new(pkt))
    }

    /// Build a [`EventKind::FlowStart`] from a spec by value (see
    /// [`EventKind::deliver`] for why this indirection exists).
    pub fn flow_start(spec: FlowSpec) -> EventKind {
        EventKind::FlowStart(Box::new(spec))
    }

    /// The variant names, in [`EventKind::index`] order.
    pub const KINDS: [&'static str; 6] = [
        "Deliver",
        "TxComplete",
        "AgentTimer",
        "PluginTimer",
        "FlowStart",
        "Fault",
    ];

    /// The variant's position in [`EventKind::KINDS`]: the index of its
    /// row in per-kind tables such as
    /// [`crate::stats::StatsCollector::events_by_kind`].
    pub fn index(&self) -> usize {
        match self {
            EventKind::Deliver(_) => 0,
            EventKind::TxComplete(_) => 1,
            EventKind::AgentTimer { .. } => 2,
            EventKind::PluginTimer(_) => 3,
            EventKind::FlowStart(_) => 4,
            EventKind::Fault(_) => 5,
        }
    }

    /// The variant name, for diagnostics: the scheduler's causal-order
    /// panics quote it so a chaos-sweep failure is attributable to an
    /// event kind straight from the message.
    pub fn name(&self) -> &'static str {
        Self::KINDS[self.index()]
    }
}

/// An event scheduled for execution.
#[derive(Debug)]
pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    /// Monotone tiebreaker: events at the same instant fire in the order
    /// they were scheduled, making runs fully deterministic.
    pub seq: u64,
    pub target: NodeId,
    pub kind: EventKind,
}

impl ScheduledEvent {
    /// The total order events fire in.
    pub(crate) fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other.key().cmp(&self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time_us: u64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            time: SimTime::from_micros(time_us),
            seq,
            target: NodeId(0),
            kind: EventKind::PluginTimer(0),
        }
    }

    #[test]
    fn scheduled_event_stays_small() {
        // The event heap sifts events by move; boxing the packet and
        // flow-spec payloads is what keeps this at (time, seq, target,
        // kind) ≈ 48 bytes. A regression here silently taxes every
        // schedule/pop on the hot path.
        assert!(
            core::mem::size_of::<ScheduledEvent>() <= 64,
            "ScheduledEvent grew to {} bytes",
            core::mem::size_of::<ScheduledEvent>()
        );
    }

    #[test]
    fn heap_pops_earliest_first_then_fifo() {
        let mut h = BinaryHeap::new();
        h.push(ev(10, 2));
        h.push(ev(5, 3));
        h.push(ev(10, 1));
        h.push(ev(5, 0));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| h.pop())
            .map(|e| (e.time.as_nanos() / 1000, e.seq))
            .collect();
        assert_eq!(order, vec![(5, 0), (5, 3), (10, 1), (10, 2)]);
    }
}
