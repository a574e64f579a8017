//! Queue disciplines for switch output ports.
//!
//! One FIFO-band discipline, [`Bands`], serves the paper's three families
//! of queueing behaviour under three names, one shape each:
//!
//! * strict priority scheduling over a small number of bands, each with
//!   DCTCP-style RED/ECN marking ([`StrictPrioQdisc`]) — PASE's use of the
//!   4–10 hardware priority queues that commodity switches expose (paper
//!   Table 2);
//! * RED/ECN marking on instantaneous queue length ([`RedEcnQdisc`]) — the
//!   DCTCP family: the same discipline with one band;
//! * plain FIFO drop-tail ([`DropTailQdisc`]) — baseline TCP and PDQ: one
//!   band whose marking threshold is its capacity, so it never marks.
//!
//! pFabric's rank-based scheduling/dropping queue lives in the `pfabric`
//! crate and plugs in through the same [`Qdisc`] trait.
//!
//! No discipline here injects faults: every fault is a
//! [`crate::fault::FaultPlan`] event, acted on by the port in front of
//! its queue (see [`crate::port::Port`]).

mod droptail;
mod red;
mod strict_prio;

pub use droptail::{DropTail, DropTailQdisc};
pub use red::{Red, RedEcnQdisc};
pub use strict_prio::{dctcp_mark_thresh, Bands, StrictPrio, StrictPrioQdisc};

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
    /// Packets dropped (on arrival or by eviction).
    pub dropped_pkts: u64,
    /// Packets that received an ECN CE mark.
    pub marked_pkts: u64,
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
/// `Any` lets a [`crate::port::Port`] recognise the discipline of this
/// module when it is handed one as a `Box<dyn Qdisc>`, and hold it
/// inline instead of behind the box.
pub trait Qdisc: Send + Any {
    /// Offer `pkt` to the queue at time `now`.
    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued;

    /// Remove the next packet to transmit, if any.
    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>>;

    /// Number of packets currently queued.
    fn len_pkts(&self) -> usize;

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

/// A port's own queue. This module's band discipline, whatever shape it
/// was built as (held as `Bands<()>`: past its constructor a shape
/// changes nothing), sits inside the port, so its ring headers are at a fixed
/// offset from the port instead of behind a `Box<dyn Qdisc>` (one
/// dependent load less per enqueue and per dequeue, and no virtual call);
/// anything else — pFabric's rank queue — stays boxed. (Boxing the large
/// variant, as clippy suggests, would undo exactly that.)
#[allow(clippy::large_enum_variant)]
pub(crate) enum PortQueue {
    Bands(Bands<()>),
    Boxed(Box<dyn Qdisc>),
}

impl PortQueue {
    /// Unbox `q` when it is one of this module's shapes.
    pub(crate) fn new(q: Box<dyn Qdisc>) -> PortQueue {
        fn unbox<S: Send + 'static>(q: Box<dyn Qdisc>) -> Result<Bands<()>, Box<dyn Qdisc>> {
            if (&*q as &dyn Any).is::<Bands<S>>() {
                let q: Box<dyn Any> = q;
                Ok(q.downcast::<Bands<S>>()
                    .expect("type checked above")
                    .reshape())
            } else {
                Err(q)
            }
        }
        unbox::<StrictPrio>(q)
            .or_else(unbox::<Red>)
            .or_else(unbox::<DropTail>)
            .map_or_else(PortQueue::Boxed, PortQueue::Bands)
    }

    #[inline]
    pub(crate) fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued {
        match self {
            PortQueue::Bands(q) => q.enqueue(pkt, now),
            PortQueue::Boxed(q) => q.enqueue(pkt, now),
        }
    }

    #[inline]
    pub(crate) fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        match self {
            PortQueue::Bands(q) => q.dequeue(now),
            PortQueue::Boxed(q) => q.dequeue(now),
        }
    }

    /// The queue, for the calls off the per-packet path.
    pub(crate) fn get(&self) -> &dyn Qdisc {
        match self {
            PortQueue::Bands(q) => q,
            PortQueue::Boxed(q) => &**q,
        }
    }
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
