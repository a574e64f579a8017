//! Flow descriptions and the endpoint agent abstraction.
//!
//! A [`FlowSpec`] describes one transfer (who, how much, when, with what
//! deadline). Protocol crates implement [`crate::host::FlowAgent`] for their
//! sender and receiver endpoint state machines and pair their two
//! constructors in one [`crate::host::AgentFactory`] value that the
//! topology hands every host; the host instantiates a sender agent when a
//! flow starts and a receiver agent when the first packet of an unknown
//! flow arrives.

use crate::ids::{FlowId, NodeId};
use crate::time::{SimDuration, SimTime};

/// Sentinel size for long-lived background flows: large enough never to
/// complete within any experiment.
pub const BACKGROUND_FLOW_BYTES: u64 = u64::MAX / 2;

/// A single transfer to simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Globally unique, dense id (assigned in arrival order).
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub size: u64,
    /// Arrival time of the flow at the sender.
    pub start: SimTime,
    /// Completion deadline relative to `start`, if the flow has one.
    pub deadline: Option<SimDuration>,
    /// Whether this flow counts toward completion-time statistics and the
    /// simulation's termination condition. Long-lived background flows set
    /// this to `false`.
    pub measured: bool,
    /// Task this flow belongs to, for task-aware scheduling (all flows of
    /// one partition-aggregate task share an id; lower ids are older
    /// tasks). `None` for independent flows.
    pub task: Option<u64>,
}

impl FlowSpec {
    /// A measured foreground flow.
    pub fn new(id: FlowId, src: NodeId, dst: NodeId, size: u64, start: SimTime) -> FlowSpec {
        FlowSpec {
            id,
            src,
            dst,
            size,
            start,
            deadline: None,
            measured: true,
            task: None,
        }
    }

    /// Attach a deadline.
    pub fn with_deadline(mut self, d: SimDuration) -> FlowSpec {
        self.deadline = Some(d);
        self
    }

    /// Attach a task id (task-aware scheduling).
    pub fn with_task(mut self, task: u64) -> FlowSpec {
        self.task = Some(task);
        self
    }

    /// A long-lived background flow (unmeasured, effectively infinite).
    pub fn background(id: FlowId, src: NodeId, dst: NodeId, start: SimTime) -> FlowSpec {
        FlowSpec {
            id,
            src,
            dst,
            size: BACKGROUND_FLOW_BYTES,
            start,
            deadline: None,
            measured: false,
            task: None,
        }
    }

    /// The absolute time by which this flow must finish, if it has a
    /// deadline.
    pub fn deadline_abs(&self) -> Option<SimTime> {
        self.deadline.map(|d| self.start + d)
    }

    /// Whether this is a background (unmeasured, effectively infinite) flow.
    pub fn is_background(&self) -> bool {
        !self.measured && self.size >= BACKGROUND_FLOW_BYTES
    }
}

/// Identifies why a receiver agent is being created.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverHint {
    /// The flow the arriving packet belongs to.
    pub flow: FlowId,
    /// The flow's sender.
    pub src: NodeId,
    /// The flow's receiver (the host creating the agent).
    pub dst: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_relative_to_start() {
        let f = FlowSpec::new(
            FlowId(0),
            NodeId(0),
            NodeId(1),
            1000,
            SimTime::from_millis(2),
        )
        .with_deadline(SimDuration::from_millis(5));
        assert_eq!(f.deadline_abs(), Some(SimTime::from_millis(7)));
        assert!(f.measured);
        assert!(!f.is_background());
    }

    #[test]
    fn background_flows_are_unmeasured() {
        let f = FlowSpec::background(FlowId(1), NodeId(0), NodeId(1), SimTime::ZERO);
        assert!(!f.measured);
        assert!(f.is_background());
        assert_eq!(f.deadline_abs(), None);
    }
}
