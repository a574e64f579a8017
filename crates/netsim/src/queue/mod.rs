//! Queue disciplines for switch output ports.
//!
//! The paper's evaluation exercises three families of queueing behaviour:
//!
//! * plain FIFO drop-tail ([`DropTailQdisc`]) — baseline TCP;
//! * RED/ECN marking on instantaneous queue length ([`RedEcnQdisc`]) — the
//!   DCTCP family and each band of PASE's priority queues;
//! * strict priority scheduling over a small number of bands
//!   ([`StrictPrioQdisc`]) — PASE's use of the 4–10 hardware priority
//!   queues that commodity switches expose (paper Table 2).
//!
//! pFabric's rank-based scheduling/dropping queue lives in the `pfabric`
//! crate and plugs in through the same [`Qdisc`] trait.

mod droptail;
mod lossy;
mod red;
mod strict_prio;

pub use droptail::DropTailQdisc;
pub use lossy::LossyQdisc;
pub use red::RedEcnQdisc;
pub use strict_prio::StrictPrioQdisc;

use std::any::Any;

use crate::packet::Packet;
use crate::time::SimTime;

/// Outcome of an enqueue attempt.
///
/// Disciplines that drop on overflow may drop either the arriving packet or
/// a previously queued one (pFabric evicts the lowest-priority resident);
/// the dropped packet is handed back so the port can account for it.
#[derive(Debug)]
pub enum Enqueued {
    /// The packet was accepted (it may have been ECN-marked in place).
    Ok,
    /// The arriving packet was rejected and dropped.
    RejectedArrival(Box<Packet>),
    /// The arriving packet was accepted; a lower-priority resident was
    /// evicted to make room (pFabric-style dropping).
    Evicted(Box<Packet>),
}

/// Counters every discipline keeps; read by the tracing layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QdiscStats {
    /// Packets accepted into the queue.
    pub enqueued_pkts: u64,
    /// Bytes accepted into the queue.
    pub enqueued_bytes: u64,
    /// Packets dropped (on arrival or by eviction).
    pub dropped_pkts: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Packets that received an ECN CE mark.
    pub marked_pkts: u64,
    /// Of `dropped_pkts`, the drops forced by a fault injector (e.g.
    /// [`LossyQdisc`]) rather than by queue overflow. Ports fold these
    /// together with degraded-link losses into one synthetic-drop family.
    pub forced_drops: u64,
}

/// A queue discipline on a switch/host output port.
///
/// Implementations must be deterministic: identical sequences of calls must
/// produce identical outcomes.
///
/// Packets move in and out as `Box<Packet>`: a packet is boxed once when
/// a host injects it and stays in the same allocation through every
/// queue, in-flight slot and `Deliver` event until it is consumed, so
/// queue churn shuffles pointers instead of ~140-byte payloads.
///
/// `Any` lets a [`crate::port::Port`] recognise the disciplines of this
/// module when it is handed one as a `Box<dyn Qdisc>`, and hold them
/// inline instead of behind the box.
pub trait Qdisc: Send + Any {
    /// Offer `pkt` to the queue at time `now`.
    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued;

    /// Remove the next packet to transmit, if any.
    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>>;

    /// Number of packets currently queued.
    fn len_pkts(&self) -> usize;

    /// Number of bytes currently queued.
    fn len_bytes(&self) -> u64;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len_pkts() == 0
    }

    /// Visit every queued packet, in an unspecified but deterministic
    /// order. Used by accounting walks that must count in-network packets
    /// independently of the queue's own counters (e.g. the
    /// [`crate::invariants`] conservation check).
    fn for_each_queued(&self, f: &mut dyn FnMut(&Packet));

    /// Cumulative counters.
    fn stats(&self) -> QdiscStats;
}

/// A port's own queue. The FIFO and band disciplines of this module sit
/// inside the port, so their ring headers are at a fixed offset from the
/// port instead of behind a `Box<dyn Qdisc>` (one dependent load less per
/// enqueue and per dequeue, and no virtual call); anything else — pFabric's
/// rank queue, a [`LossyQdisc`] wrapper — stays boxed. (Boxing the large
/// variants, as clippy suggests, would undo exactly that.)
#[allow(clippy::large_enum_variant)]
pub(crate) enum PortQueue {
    DropTail(DropTailQdisc),
    Red(RedEcnQdisc),
    StrictPrio(StrictPrioQdisc),
    Boxed(Box<dyn Qdisc>),
}

/// Run `$body` with `$q` bound to whichever discipline `$self` holds.
macro_rules! each_variant {
    ($self:expr, $q:ident => $body:expr) => {
        match $self {
            PortQueue::DropTail($q) => $body,
            PortQueue::Red($q) => $body,
            PortQueue::StrictPrio($q) => $body,
            PortQueue::Boxed($q) => $body,
        }
    };
}

impl PortQueue {
    /// Unbox `q` when it is one of this module's inline disciplines.
    pub(crate) fn new(q: Box<dyn Qdisc>) -> PortQueue {
        fn unbox<T: Qdisc>(q: Box<dyn Qdisc>) -> Result<T, Box<dyn Qdisc>> {
            if (&*q as &dyn Any).is::<T>() {
                let q: Box<dyn Any> = q;
                Ok(*q.downcast::<T>().expect("type checked above"))
            } else {
                Err(q)
            }
        }
        unbox(q)
            .map(PortQueue::StrictPrio)
            .or_else(|q| unbox(q).map(PortQueue::Red))
            .or_else(|q| unbox(q).map(PortQueue::DropTail))
            .unwrap_or_else(PortQueue::Boxed)
    }

    #[inline]
    pub(crate) fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued {
        each_variant!(self, q => q.enqueue(pkt, now))
    }

    #[inline]
    pub(crate) fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        each_variant!(self, q => q.dequeue(now))
    }

    pub(crate) fn len_pkts(&self) -> usize {
        each_variant!(self, q => q.len_pkts())
    }

    pub(crate) fn len_bytes(&self) -> u64 {
        each_variant!(self, q => q.len_bytes())
    }

    pub(crate) fn for_each_queued(&self, f: &mut dyn FnMut(&Packet)) {
        each_variant!(self, q => q.for_each_queued(f))
    }

    pub(crate) fn stats(&self) -> QdiscStats {
        each_variant!(self, q => q.stats())
    }
}

/// A boxed constructor for a queue discipline, used by topology builders so
/// one configuration can stamp out a fresh qdisc per port.
pub type QdiscFactory = Box<dyn Fn() -> Box<dyn Qdisc> + Send + Sync>;

/// Convenience: build a [`QdiscFactory`] from a closure.
pub fn factory<F, Q>(f: F) -> QdiscFactory
where
    F: Fn() -> Q + Send + Sync + 'static,
    Q: Qdisc + 'static,
{
    Box::new(move || Box::new(f()))
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::ids::{FlowId, NodeId};

    /// A data packet with a given flow id, priority band and rank.
    pub fn pkt(flow: u64, prio: u8, rank: u64) -> Box<Packet> {
        let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, 1460);
        p.prio = prio;
        p.rank = rank;
        Box::new(p)
    }

    /// A header-only, non-ECN-capable packet (like an ACK).
    pub fn ack_pkt(flow: u64) -> Box<Packet> {
        Box::new(Packet::ack(FlowId(flow), NodeId(1), NodeId(0), 0))
    }
}
