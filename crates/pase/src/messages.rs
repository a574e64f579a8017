//! PASE control-plane messages.
//!
//! These ride in real 40-byte control packets through the network (and
//! therefore consume link capacity and are counted as overhead — the
//! quantity Fig. 11b measures).

use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::time::{Rate, SimTime};

use crate::algorithm::{Decision, FlowEntry};

/// Which half of the path a request/response covers (paper Fig. 5: the
/// end-to-end path is split at the root; each leaf initiates its half).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Source half: source uplink, ToR uplink, (delegated) agg–core.
    Sender,
    /// Destination half: destination downlink, agg–ToR, core–agg.
    Receiver,
}

/// A request traveling up the arbitration hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct ArbRequest {
    /// The flow being arbitrated.
    pub flow: FlowId,
    /// The flow's source host, where the response goes.
    pub src: NodeId,
    /// The flow's destination host.
    pub dst: NodeId,
    /// Remaining flow size (the `FlowSize` input of Algorithm 1).
    pub remaining: u64,
    /// Deadline, when the EDF criterion is in use.
    pub deadline: Option<SimTime>,
    /// Task id, when task-aware scheduling is in use.
    pub task: Option<u64>,
    /// The source's demand (max rate it could use).
    pub demand: Rate,
    /// Which half of the path this request covers.
    pub leg: Leg,
    /// The leg's bottleneck so far: every decision along it folded by
    /// [`Decision::merge`].
    pub decision: Decision,
}

impl ArbRequest {
    /// The arbitrator table entry this request inserts or refreshes.
    pub fn entry(&self, now: SimTime) -> FlowEntry {
        FlowEntry {
            remaining: self.remaining,
            deadline: self.deadline,
            demand: self.demand,
            task: self.task,
            last_update: now,
        }
    }

    /// The answer to the source: the leg's decision so far, plus the
    /// load-shed signal when an overloaded arbitrator answers without
    /// arbitrating.
    pub fn response(&self, shedding: bool) -> ArbMsg {
        ArbMsg::Response(ArbResponse {
            flow: self.flow,
            leg: self.leg,
            decision: self.decision,
            shedding,
        })
    }
}

/// The response returned to the source.
#[derive(Debug, Clone, Copy)]
pub struct ArbResponse {
    /// The flow concerned.
    pub flow: FlowId,
    /// Which leg this response covers.
    pub leg: Leg,
    /// The leg's bottleneck decision (worst queue, smallest rate).
    pub decision: Decision,
    /// Load-shed signal, piggybacked free of charge (control packets are
    /// fixed 40-byte): an arbitrator along the leg was over its per-epoch
    /// budget and answered without arbitrating. Senders seeing this back
    /// off their refresh cadence multiplicatively.
    pub shedding: bool,
}

/// One PASE control message.
#[derive(Debug, Clone, Copy)]
pub enum ArbMsg {
    /// Request traveling toward the root.
    Request(ArbRequest),
    /// Response traveling back to the source.
    Response(ArbResponse),
    /// The flow finished: release arbitrator state along the path.
    FlowDone {
        /// The finished flow.
        flow: FlowId,
        /// Source host of the flow.
        src: NodeId,
        /// Destination host of the flow.
        dst: NodeId,
        /// Which leg of the path this notification cleans.
        leg: Leg,
    },
    /// Child → parent: aggregate top-queue demand on the delegated virtual
    /// link (paper §3.1.2: "only aggregate information about flows is sent
    /// by the child arbitrators"). The reporting child is the packet's
    /// source.
    DelegUpdate {
        /// Demand on the delegated uplink slice (toward the core).
        up_demand: Rate,
        /// Demand on the delegated downlink slice (from the core).
        down_demand: Rate,
    },
    /// Parent → child: the child's new virtual-link capacities.
    DelegGrant {
        /// Capacity of the uplink slice.
        up_capacity: Rate,
        /// Capacity of the downlink slice.
        down_capacity: Rate,
    },
}

impl ArbMsg {
    /// The control packet carrying this message from `src` to `dst`
    /// (unpacked by the receiving [`crate::ArbProcess`]).
    pub fn packet(self, flow: FlowId, src: NodeId, dst: NodeId) -> Packet {
        Packet::ctrl(flow, src, dst, Box::new(self))
    }

    /// [`ArbMsg::packet`], but written into `slot` — the box a message
    /// arrived in — instead of a fresh allocation: an arbitrator forwards
    /// or answers a request in the box the request came in.
    pub fn packet_in(
        self,
        mut slot: Box<ArbMsg>,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
    ) -> Packet {
        *slot = self;
        Packet::ctrl(flow, src, dst, slot)
    }
}
