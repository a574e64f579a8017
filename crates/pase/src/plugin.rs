//! PASE switch-resident arbitrators.
//!
//! One plugin instance runs co-located with each ToR and aggregation
//! switch. A ToR arbitrates its uplink (`ToR → agg`) for sender legs and
//! its downlink (`agg → ToR`) for receiver legs; with **delegation** it
//! additionally owns a virtual slice of the `agg → core` (sender) and
//! `core → agg` (receiver) links so inter-rack flows get a decision one
//! hop from the source (paper §3.1.2). An aggregation switch arbitrates
//! the real agg–core links when delegation is off, and rebalances the
//! delegated virtual capacities when it is on.
//!
//! **Early pruning** stops requests from climbing once a flow falls
//! outside the top `prune_depth` queues.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::fault::NodeFault;
use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::stats::Fate;
use netsim::switch::{SwitchIo, SwitchPlugin};
use netsim::time::Rate;

use crate::algorithm::LinkArbitrator;
use crate::config::{PaseConfig, DELEG_MIN_SHARE, DELEG_PERIOD};
use crate::messages::{ArbMsg, ArbRequest, Leg};
use crate::shed::{ArbFrontEnd, FaultEffect};
use crate::tree::{Level, TreeInfo};

/// Base timer token for the periodic delegation report (child side). The
/// live token is `DELEG_TIMER_TOKEN + epoch`, where the epoch bumps on
/// every arbitrator restart so stale pre-crash timers die silently.
pub const DELEG_TIMER_TOKEN: u64 = 1;

/// Flow id on delegation traffic, which concerns no flow.
const NO_FLOW: FlowId = FlowId(u64::MAX);

/// PASE arbitrator co-located with a switch.
pub struct PaseSwitchPlugin {
    cfg: PaseConfig,
    me: NodeId,
    level: Level,
    tree: Arc<TreeInfo>,
    /// Arbitrates `me → parent` for sender legs.
    up: Option<LinkArbitrator>,
    /// Arbitrates `parent → me` for receiver legs.
    down: Option<LinkArbitrator>,
    /// ToR only, delegation on: virtual slice of `agg → core`.
    deleg_up: Option<LinkArbitrator>,
    /// ToR only, delegation on: virtual slice of `core → agg`.
    deleg_down: Option<LinkArbitrator>,
    /// Agg only, delegation on: children's last reported demands.
    child_demands: HashMap<NodeId, (Rate, Rate)>,
    /// Generation counter for the delegation report loop. A restart
    /// starts a fresh chain under a new epoch so a timer still pending
    /// from before the crash cannot double the reporting rate.
    deleg_epoch: u64,
    /// Crash state, lease-GC epoch and the metered inbox shared by every
    /// arbitrator this plugin owns (the same front-end the host service
    /// runs).
    front: ArbFrontEnd,
}

impl PaseSwitchPlugin {
    /// Build the arbitrator for switch `me`.
    pub fn new(cfg: PaseConfig, me: NodeId, tree: Arc<TreeInfo>) -> Self {
        let level = tree.level(me);
        // A ToR under an agg that itself has a core uplink gets delegated
        // slices of the agg–core links: an equal share per child to start.
        let slice = (cfg.delegation && level == Level::Tor)
            .then(|| tree.parent(me))
            .flatten()
            .and_then(|agg| {
                let share = 1.0 / tree.children(agg).len().max(1) as f64;
                tree.uplink_rate(agg).map(|rate| rate.mul_f64(share))
            });
        let arbitrate = |rate: Option<Rate>| rate.map(|r| LinkArbitrator::new(r, &cfg));
        let uplink = tree.uplink_rate(me);
        let (up, down) = (arbitrate(uplink), arbitrate(uplink));
        let (deleg_up, deleg_down) = (arbitrate(slice), arbitrate(slice));
        PaseSwitchPlugin {
            cfg,
            me,
            level,
            tree,
            up,
            down,
            deleg_up,
            deleg_down,
            child_demands: HashMap::new(),
            deleg_epoch: 0,
            front: ArbFrontEnd::new(&cfg, me),
        }
    }

    /// Every arbitrator this plugin owns.
    fn arbitrators(&mut self) -> impl Iterator<Item = &mut LinkArbitrator> {
        [
            self.up.as_mut(),
            self.down.as_mut(),
            self.deleg_up.as_mut(),
            self.deleg_down.as_mut(),
        ]
        .into_iter()
        .flatten()
    }

    /// The arbitrators on one leg of a path: my own link, then the
    /// delegated agg–core slice.
    fn leg_arbitrators(&mut self, leg: Leg) -> [Option<&mut LinkArbitrator>; 2] {
        match leg {
            Leg::Sender => [self.up.as_mut(), self.deleg_up.as_mut()],
            Leg::Receiver => [self.down.as_mut(), self.deleg_down.as_mut()],
        }
    }

    /// Whether an injected crash currently has this arbitrator down
    /// (tests).
    pub fn is_crashed(&self) -> bool {
        self.front.is_crashed()
    }

    /// Current delegated uplink-slice capacity (tests).
    pub fn deleg_up_capacity(&self) -> Option<Rate> {
        self.deleg_up.as_ref().map(|a| a.capacity())
    }

    /// Flows tracked by the uplink arbitrator (tests).
    pub fn up_flows(&self) -> usize {
        self.up.as_ref().map_or(0, |a| a.n_flows())
    }

    /// Flows tracked by the downlink arbitrator (tests).
    pub fn down_flows(&self) -> usize {
        self.down.as_ref().map_or(0, |a| a.n_flows())
    }

    /// The agg this ToR reports delegated-slice demand to (`None` when
    /// this plugin runs no delegation report loop).
    fn deleg_parent(&self) -> Option<NodeId> {
        (self.cfg.delegation && self.level == Level::Tor)
            .then(|| self.tree.parent(self.me))
            .flatten()
    }

    /// Does this flow's path cross the core (i.e. leave the agg subtree)?
    fn crosses_core(&self, req: &ArbRequest) -> bool {
        !self.tree.same_agg_subtree(req.src, req.dst)
    }

    fn reply(&self, req: &ArbRequest, shedding: bool, io: &mut SwitchIo<'_, '_>) {
        io.send(
            req.response(shedding)
                .packet(req.flow, self.me, req.reply_to),
        );
    }

    fn handle_request(&mut self, mut req: ArbRequest, io: &mut SwitchIo<'_, '_>) {
        let now = io.now();
        let expiry = self.cfg.arb_expiry;
        let crosses_core = self.level == Level::Tor && self.crosses_core(&req);
        // Which of my links lie on this leg of the path?
        let [primary, deleg] = self.leg_arbitrators(req.leg);
        if let Some(arb) = primary {
            arb.gc(now, expiry);
            let d = arb.update_and_decide(req.flow, req.entry(now));
            req.accumulate(d.queue, d.rate);
        }
        if crosses_core {
            // The agg–core hop still needs arbitration.
            if let Some(arb) = deleg {
                // Delegation: decide locally on the virtual slice.
                arb.gc(now, expiry);
                let d = arb.update_and_decide(req.flow, req.entry(now));
                req.accumulate(d.queue, d.rate);
            } else if let Some(parent) = self.tree.parent(self.me) {
                // No delegation: climb, unless pruned.
                let pruned = self.cfg.early_pruning && req.acc_queue >= self.cfg.prune_depth;
                if !pruned {
                    io.sim.stats.note_arb_climbed(self.me);
                    io.send(ArbMsg::Request(req).packet(req.flow, self.me, parent));
                    return;
                }
                io.sim.stats.note_arb_pruned(self.me);
            }
        }
        self.reply(&req, false, io);
    }

    fn handle_flow_done(
        &mut self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        leg: Leg,
        io: &mut SwitchIo<'_, '_>,
    ) {
        for arb in self.leg_arbitrators(leg).into_iter().flatten() {
            arb.remove(flow);
        }
        // Without delegation the parent also holds state for core-crossing
        // flows.
        let crosses_core = !self.tree.same_agg_subtree(src, dst);
        if self.level == Level::Tor && crosses_core && !self.cfg.delegation {
            if let Some(parent) = self.tree.parent(self.me) {
                let done = ArbMsg::FlowDone {
                    flow,
                    src,
                    dst,
                    leg,
                };
                io.send(done.packet(flow, self.me, parent));
            }
        }
    }

    /// Agg side: rebalance the delegated virtual links across children in
    /// proportion to their reported demands (with a minimum share so idle
    /// children can ramp up).
    fn rebalance_and_grant(&mut self, reporter: NodeId, io: &mut SwitchIo<'_, '_>) {
        let Some(total) = self.tree.uplink_rate(self.me) else {
            return;
        };
        let floor_up =
            |d: Rate| -> f64 { (d.as_bps() as f64).max(total.as_bps() as f64 * DELEG_MIN_SHARE) };
        let children = self.tree.children(self.me).to_vec();
        let sum_up: f64 = children
            .iter()
            .map(|c| floor_up(self.child_demands.get(c).map_or(Rate::ZERO, |d| d.0)))
            .sum();
        let sum_down: f64 = children
            .iter()
            .map(|c| floor_up(self.child_demands.get(c).map_or(Rate::ZERO, |d| d.1)))
            .sum();
        let (rep_up, rep_down) = self
            .child_demands
            .get(&reporter)
            .copied()
            .unwrap_or((Rate::ZERO, Rate::ZERO));
        let up_capacity = total.mul_f64(floor_up(rep_up) / sum_up.max(1.0));
        let down_capacity = total.mul_f64(floor_up(rep_down) / sum_down.max(1.0));
        let grant = ArbMsg::DelegGrant {
            up_capacity,
            down_capacity,
        };
        io.send(grant.packet(NO_FLOW, self.me, reporter));
    }
}

impl SwitchPlugin for PaseSwitchPlugin {
    fn on_ctrl(&mut self, mut pkt: Packet, io: &mut SwitchIo<'_, '_>) {
        let now = io.now();
        let Some((msg, depth)) = self.front.admit(&mut pkt, io.sim.stats, now) else {
            return;
        };
        if let ArbMsg::Request(req) = &*msg {
            // A request is a *stale refresh* — the first thing an
            // overloaded arbitrator sheds — when an arbitrator on its leg
            // already holds a live entry for the flow.
            let flow = req.flow;
            let stale =
                (self.leg_arbitrators(req.leg).into_iter().flatten()).any(|a| a.contains(flow));
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
            ArbMsg::Request(req) => self.handle_request(req, io),
            ArbMsg::FlowDone {
                flow,
                src,
                dst,
                leg,
            } => self.handle_flow_done(flow, src, dst, leg, io),
            ArbMsg::DelegUpdate {
                child,
                up_demand,
                down_demand,
            } => {
                self.child_demands.insert(child, (up_demand, down_demand));
                self.rebalance_and_grant(child, io);
            }
            ArbMsg::DelegGrant {
                up_capacity,
                down_capacity,
            } => {
                if let Some(a) = self.deleg_up.as_mut() {
                    a.set_capacity(up_capacity);
                }
                if let Some(a) = self.deleg_down.as_mut() {
                    a.set_capacity(down_capacity);
                }
            }
            ArbMsg::Response(_) => {
                // Responses are addressed to hosts, never to switches.
                debug_assert!(false, "arbitration response delivered to a switch");
            }
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut SwitchIo<'_, '_>) {
        if self.front.maintenance_due(token) {
            // Expire leases on every arbitrator this plugin owns: entries
            // whose endpoint stopped refreshing (crashed host) are dropped
            // after `arb_expiry` even when no request traffic arrives to
            // trigger the request-path GC, so a dead flow cannot wedge the
            // top queue.
            let (now, expiry) = (io.now(), self.cfg.arb_expiry);
            self.arbitrators().for_each(|arb| arb.gc(now, expiry));
            io.set_timer(expiry, self.front.maintenance_token());
            return;
        }
        if self.front.is_crashed() || token != DELEG_TIMER_TOKEN + self.deleg_epoch {
            return;
        }
        let Some(parent) = self.deleg_parent() else {
            return;
        };
        // Report demand on the delegated slices so the parent can
        // rebalance; only aggregate information travels (paper §3.1.2).
        if self.deleg_up.is_some() || self.deleg_down.is_some() {
            let up_demand = self
                .deleg_up
                .as_ref()
                .map_or(Rate::ZERO, |a| a.top_queue_demand());
            let down_demand = self
                .deleg_down
                .as_ref()
                .map_or(Rate::ZERO, |a| a.top_queue_demand());
            let update = ArbMsg::DelegUpdate {
                child: self.me,
                up_demand,
                down_demand,
            };
            io.send(update.packet(NO_FLOW, self.me, parent));
        }
        io.set_timer(DELEG_PERIOD, DELEG_TIMER_TOKEN + self.deleg_epoch);
    }

    fn on_fault(&mut self, fault: NodeFault, io: &mut SwitchIo<'_, '_>) {
        match self.front.on_fault(fault, io.now()) {
            FaultEffect::None => {}
            FaultEffect::Wipe => {
                self.arbitrators().for_each(LinkArbitrator::clear);
                self.child_demands.clear();
            }
            FaultEffect::Rearm => {
                // The fresh process re-learns purely from the next refresh
                // round (within `arb_expiry`). The delegation report loop
                // restarts under a new epoch, like the lease-GC loop.
                self.deleg_epoch += 1;
                if self.deleg_parent().is_some() {
                    io.set_timer(DELEG_PERIOD, DELEG_TIMER_TOKEN + self.deleg_epoch);
                }
                io.set_timer(self.cfg.arb_expiry, self.front.maintenance_token());
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
