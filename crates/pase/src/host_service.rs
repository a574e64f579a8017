//! The PASE endpoint control plane.
//!
//! Each host runs two leaf arbitrators (paper §3.1: arbitration "can be
//! implemented at the end-hosts themselves, e.g., for their own links to
//! the switch"):
//!
//! * the **uplink** arbitrator for `host → ToR`, consulted synchronously
//!   by local sender agents (zero latency — this is why intra-rack flows
//!   "incur no additional network latency for arbitration");
//! * the **downlink** arbitrator for `ToR → host`, driven by receiver-leg
//!   requests arriving as control packets from remote sources.
//!
//! The service also caches arbitration responses per flow so sender agents
//! can read them when woken.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::fault::NodeFault;
use netsim::host::{HostIo, HostService};
use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::stats::Fate;
use netsim::time::{Rate, SimTime};

use crate::algorithm::{Decision, LinkArbitrator};
use crate::config::PaseConfig;
use crate::messages::{ArbMsg, ArbRequest, Leg};
use crate::shed::{ArbFrontEnd, FaultEffect};
use crate::tree::TreeInfo;

/// Cached per-flow results from the two legs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LegResults {
    /// Latest sender-leg (network) response.
    pub sender: Option<Decision>,
    /// Latest receiver-leg response.
    pub receiver: Option<Decision>,
    /// A leg response arrived carrying the load-shed signal since the
    /// sender last consumed it (see [`PaseHostService::take_shed`]).
    pub shed: bool,
}

/// Where a source must send its arbitration traffic for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbPlan {
    /// ToR to contact for the sender leg (`None`: intra-rack or
    /// local-only arbitration).
    pub sender_leg_to: Option<NodeId>,
    /// Destination host to contact for the receiver leg (`None`:
    /// local-only arbitration).
    pub receiver_leg_to: Option<NodeId>,
}

/// Host-local PASE control state.
pub struct PaseHostService {
    cfg: PaseConfig,
    me: NodeId,
    tree: Arc<TreeInfo>,
    uplink: LinkArbitrator,
    downlink: LinkArbitrator,
    legs: HashMap<FlowId, LegResults>,
    /// Crash state, lease-GC epoch and the metered inbox shared by the two
    /// leaf arbitrators (the same front-end the switch plugin runs).
    front: ArbFrontEnd,
}

impl PaseHostService {
    /// Create the service for host `me` with access link `access_rate`.
    pub fn new(cfg: PaseConfig, me: NodeId, access_rate: Rate, tree: Arc<TreeInfo>) -> Self {
        PaseHostService {
            cfg,
            me,
            tree,
            uplink: LinkArbitrator::new(access_rate, &cfg),
            downlink: LinkArbitrator::new(access_rate, &cfg),
            legs: HashMap::new(),
            front: ArbFrontEnd::new(&cfg, me),
        }
    }

    /// Whether an injected crash currently has the control process down
    /// (tests).
    pub fn is_crashed(&self) -> bool {
        self.front.is_crashed()
    }

    /// Compute the control-plane plan for a flow sourced at this host.
    pub fn plan(&self, dst: NodeId) -> ArbPlan {
        if !self.cfg.end_to_end {
            return ArbPlan {
                sender_leg_to: None,
                receiver_leg_to: None,
            };
        }
        let sender_leg_to = if self.tree.same_rack(self.me, dst) {
            None // intra-rack: endpoints only (paper §3.1.2)
        } else {
            Some(self.tree.tor_of(self.me))
        };
        ArbPlan {
            sender_leg_to,
            receiver_leg_to: Some(dst),
        }
    }

    /// Synchronous arbitration of the local uplink for the sender agent
    /// issuing `req`. Inserts/refreshes the entry and returns the decision.
    pub fn local_update(&mut self, req: &ArbRequest, now: SimTime) -> Decision {
        self.uplink.gc(now, self.cfg.arb_expiry);
        self.legs.entry(req.flow).or_default();
        self.uplink.update_and_decide(req.flow, req.entry(now))
    }

    /// Remove a finished flow from local state.
    pub fn local_remove(&mut self, flow: FlowId) {
        self.uplink.remove(flow);
        self.legs.remove(&flow);
    }

    /// Latest leg responses for a flow.
    pub fn leg_results(&self, flow: FlowId) -> LegResults {
        self.legs.get(&flow).copied().unwrap_or_default()
    }

    /// Read and clear the load-shed signal for `flow`. The local sender
    /// consumes it once per wake-up to drive its refresh backoff.
    pub fn take_shed(&mut self, flow: FlowId) -> bool {
        match self.legs.get_mut(&flow) {
            Some(slot) => core::mem::take(&mut slot.shed),
            None => false,
        }
    }

    /// Number of flows tracked by the uplink arbitrator (tests).
    pub fn uplink_flows(&self) -> usize {
        self.uplink.n_flows()
    }

    /// Number of flows tracked by the downlink arbitrator (tests).
    pub fn downlink_flows(&self) -> usize {
        self.downlink.n_flows()
    }

    /// Handle a receiver-leg request for a flow destined to this host.
    fn on_receiver_request(&mut self, mut req: ArbRequest, io: &mut HostIo<'_, '_, '_>) {
        let now = io.now();
        self.downlink.gc(now, self.cfg.arb_expiry);
        let d = self.downlink.update_and_decide(req.flow, req.entry(now));
        req.accumulate(d.queue, d.rate);
        // Forward up the destination half of the tree unless intra-rack or
        // pruned (paper §3.1.2).
        let cross_rack = !self.tree.same_rack(req.src, self.me);
        let pruned = self.cfg.early_pruning && req.acc_queue >= self.cfg.prune_depth;
        if cross_rack && pruned {
            io.sim.stats.note_arb_pruned(self.me);
        }
        let forward = cross_rack && !pruned;
        if forward {
            io.sim.stats.note_arb_climbed(self.me);
            let tor = self.tree.tor_of(self.me);
            io.send(ArbMsg::Request(req).packet(req.flow, self.me, tor));
        } else {
            self.reply(&req, false, io);
        }
    }

    fn reply(&self, req: &ArbRequest, shedding: bool, io: &mut HostIo<'_, '_, '_>) {
        io.send(
            req.response(shedding)
                .packet(req.flow, self.me, req.reply_to),
        );
    }
}

impl HostService for PaseHostService {
    fn on_ctrl(&mut self, mut pkt: Packet, io: &mut HostIo<'_, '_, '_>) {
        let now = io.now();
        let Some((msg, depth)) = self.front.admit(&mut pkt, io.sim.stats, now) else {
            return;
        };
        if let ArbMsg::Request(req) = &*msg {
            debug_assert_eq!(req.leg, Leg::Receiver, "hosts only serve receiver legs");
            let stale = self.downlink.contains(req.flow);
            if self
                .front
                .shed_request(&pkt, stale, depth, io.sim.stats, now)
            {
                self.reply(req, true, io);
                return;
            }
        }
        io.sim.stats.note_fate(&pkt, Fate::Processed, self.me, now);
        match *msg {
            ArbMsg::Request(req) => self.on_receiver_request(req, io),
            ArbMsg::Response(resp) => {
                let slot = self.legs.entry(resp.flow).or_default();
                // A shed reply is backpressure, not a decision — its
                // queue/rate merely echo what the sender already believed.
                // Age the leg out so the flow rides its always-fresh local
                // (uplink) arbitration until the overloaded arbitrator
                // answers for real: a stale crowd-era allocation held
                // across a backed-off refresh gap would keep throttling or
                // suppressing the flow long after the burst has drained.
                let decision = (!resp.shedding).then_some(Decision {
                    queue: resp.queue,
                    rate: resp.rate,
                });
                match resp.leg {
                    Leg::Sender => slot.sender = decision,
                    Leg::Receiver => slot.receiver = decision,
                }
                slot.shed |= resp.shedding;
                io.wake_flow(resp.flow);
            }
            ArbMsg::FlowDone { flow, src, leg, .. } => {
                debug_assert_eq!(leg, Leg::Receiver);
                self.downlink.remove(flow);
                // Propagate up the destination half if the flow left the
                // rack (the ToR and above also hold state).
                if self.cfg.end_to_end && !self.tree.same_rack(src, self.me) {
                    let tor = self.tree.tor_of(self.me);
                    let dst = self.me;
                    let done = ArbMsg::FlowDone {
                        flow,
                        src,
                        dst,
                        leg,
                    };
                    io.send(done.packet(flow, self.me, tor));
                }
            }
            // Delegation messages never target hosts.
            ArbMsg::DelegUpdate { .. } | ArbMsg::DelegGrant { .. } => {}
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut HostIo<'_, '_, '_>) {
        // Periodic lease GC: entries whose owner stopped refreshing
        // (crashed endpoint, lost FlowDone) expire after `arb_expiry` even
        // when no request traffic touches the arbitrator in the meantime,
        // so a dead flow cannot wedge the top priority queue.
        if !self.front.maintenance_due(token) {
            return;
        }
        let now = io.now();
        self.uplink.gc(now, self.cfg.arb_expiry);
        self.downlink.gc(now, self.cfg.arb_expiry);
        io.set_timer(self.cfg.arb_expiry, self.front.maintenance_token());
    }

    fn on_fault(&mut self, fault: NodeFault, io: &mut HostIo<'_, '_, '_>) {
        match self.front.on_fault(fault, io.now()) {
            FaultEffect::None => {}
            FaultEffect::Wipe => {
                // The endpoint control process loses everything: both leaf
                // arbitrators and the cached leg responses. Local senders
                // repopulate the uplink (and re-request the legs) on their
                // next refresh; remote senders repopulate the downlink the
                // same way once the process restarts.
                self.uplink.clear();
                self.downlink.clear();
                self.legs.clear();
            }
            FaultEffect::Rearm => {
                io.set_timer(self.cfg.arb_expiry, self.front.maintenance_token());
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
