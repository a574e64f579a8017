//! The PASE arbitrator process: one per host and per ToR / aggregation
//! switch, running Algorithm 1 on the links it owns (paper §3.1:
//! arbitration "can be implemented at the end-hosts themselves, e.g., for
//! their own links to the switch", and in the switches for the rest).
//!
//! Every process arbitrates one link in both directions — a host its
//! access link, a switch its virtual uplink (all of its links one tier up,
//! see [`TreeInfo`]) — for sender legs on the way up and receiver legs on
//! the way down. A switch sizes that uplink when it uses it, from the
//! upper links routing can still take (`ArbProcess::live_uplink`). A ToR
//! with **delegation** also owns a virtual slice of its parent's `agg →
//! core` and `core → agg` uplink, so a flow that crosses the core gets its
//! whole leg decided one hop from its endpoint (§3.1.2); an aggregation
//! switch rebalances those slices among its ToRs.
//!
//! A leg starts at its end host — the source's sender leg synchronously,
//! inside the sender agent, so intra-rack flows pay no arbitration latency;
//! the receiver leg as a request to the destination — and climbs through
//! the arbitrators [`TreeInfo::next_arbitrator`] names, each folding its
//! decision into the request, until the leg ends or **early pruning**
//! stops it; the last arbitrator answers the source. Requests, the sender
//! leg and `FlowDone` releases all take one route (`ArbProcess::route`).
//! What differs by node kind stays in one place each: a host hands each
//! leg response to its flow's sender agent, which keeps the flow's leg
//! decisions ([`netsim::node::ProcIo::wake_flow`]); switches run the
//! delegation report loop and its grants.
//!
//! Leases expire when read: an entry its flow stopped refreshing (crashed
//! endpoint, lost `FlowDone`) is dropped before every decision, is no
//! refresh to the shed path and is left out of the delegation report once
//! it is `arb_expiry` old. No timer collects it, so the only timer a
//! process runs is a delegating ToR's report loop.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::fault::FaultEvent;
use netsim::ids::{FlowId, IdHashBuilder, NodeId};
use netsim::node::{ProcIo, Process};
use netsim::packet::Packet;
use netsim::stats::{Fate, StatsCollector};
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::timer::{slot, Timer};
use netsim::trace::TraceEvent;

use crate::algorithm::{Decision, LinkArbitrator};
use crate::config::{PaseConfig, DELEG_MIN_SHARE, DELEG_PERIOD};
use crate::messages::{ArbMsg, ArbRequest, Leg};
use crate::shed::{Admission, InboxBudget};
use crate::tree::TreeInfo;

/// Flow id on delegation traffic, which concerns no flow.
const NO_FLOW: FlowId = FlowId(u64::MAX);

/// Where a source must send its arbitration traffic for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbPlan {
    /// Where the sender leg climbs after the source (`None`: intra-rack or
    /// local-only arbitration).
    pub sender_leg_to: Option<NodeId>,
    /// Destination host to contact for the receiver leg (`None`:
    /// local-only arbitration).
    pub receiver_leg_to: Option<NodeId>,
}

/// A PASE arbitrator process (see the module docs). Installed by
/// [`crate::install`] on every host and every ToR and aggregation
/// switch.
pub struct ArbProcess {
    cfg: PaseConfig,
    me: NodeId,
    tree: Arc<TreeInfo>,
    /// Injected-fault state: a crashed process ignores all control traffic
    /// and timers until restarted (on a switch the data plane keeps
    /// forwarding — only the co-located control process dies).
    crashed: bool,
    /// The control inbox every arbitrator the process owns shares.
    inbox: InboxBudget,
    /// Arbitrates my link upward (`host → ToR`, a switch's virtual
    /// uplink) for sender legs.
    up: Option<LinkArbitrator>,
    /// Arbitrates the same link downward for receiver legs.
    down: Option<LinkArbitrator>,
    /// ToR with delegation: its slice of the parent's uplink.
    deleg: Option<Slice>,
    /// Agg with delegation: its children's last reported demands.
    child_demands: HashMap<NodeId, (Rate, Rate), IdHashBuilder>,
}

/// A delegating ToR's slice of its parent agg's virtual uplink, in both
/// directions, and the loop that reports the slice's demand upward.
struct Slice {
    /// The agg the slice's demand is reported to.
    parent: NodeId,
    /// Virtual slice of `agg → core`.
    up: LinkArbitrator,
    /// Virtual slice of `core → agg`.
    down: LinkArbitrator,
    /// The report loop's timer. A restart re-arms it, so a tick still
    /// pending from before the crash cannot double the reporting rate.
    report: Timer,
}

impl ArbProcess {
    /// The process on node `me`, arbitrating `link` in both directions: a
    /// host's access link, or a switch's virtual uplink at its full
    /// capacity (`None` for a switch without one).
    pub fn new(cfg: PaseConfig, me: NodeId, link: Option<Rate>, tree: Arc<TreeInfo>) -> Self {
        // A ToR under an agg that itself has core uplinks gets delegated
        // slices of the agg's virtual uplink: an equal share per child to
        // start.
        let deleg = (cfg.delegation && tree.is_tor(me))
            .then(|| tree.parent(me))
            .flatten()
            .and_then(|parent| {
                let share = 1.0 / tree.children(parent).len().max(1) as f64;
                let rate = tree.uplink_rate(parent)?.mul_f64(share);
                Some(Slice {
                    parent,
                    up: LinkArbitrator::new(rate, &cfg),
                    down: LinkArbitrator::new(rate, &cfg),
                    report: Timer::new(slot::DELEGATION),
                })
            });
        let arbitrate = |rate: Option<Rate>| rate.map(|r| LinkArbitrator::new(r, &cfg));
        ArbProcess {
            cfg,
            me,
            tree,
            crashed: false,
            inbox: InboxBudget::new(&cfg),
            up: arbitrate(link),
            down: arbitrate(link),
            deleg,
            child_demands: HashMap::default(),
        }
    }

    /// Whether an injected crash currently has the process down.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Arm the delegation report loop of a ToR that owns a delegated
    /// slice and return its first tick as `(delay, token)`; `None` for
    /// every other process, which runs no timer. At install and on every
    /// restart; arming stales any tick still pending.
    pub(crate) fn arm_report(&mut self) -> Option<(SimDuration, u64)> {
        let slice = self.deleg.as_mut()?;
        Some((DELEG_PERIOD, slice.report.arm()))
    }

    /// The arbitrators this process runs on `leg`: its own link's, then
    /// the delegated slice's (tests, inspection).
    pub fn leg_arbitrators(&self, leg: Leg) -> [Option<&LinkArbitrator>; 2] {
        match leg {
            Leg::Sender => [self.up.as_ref(), self.deleg.as_ref().map(|s| &s.up)],
            Leg::Receiver => [self.down.as_ref(), self.deleg.as_ref().map(|s| &s.down)],
        }
    }

    /// Every arbitrator this process owns.
    fn arbitrators_mut(&mut self) -> impl Iterator<Item = &mut LinkArbitrator> {
        let slice = self.deleg.iter_mut().flat_map(|s| [&mut s.up, &mut s.down]);
        [self.up.as_mut(), self.down.as_mut()]
            .into_iter()
            .flatten()
            .chain(slice)
    }

    /// The control-plane plan for a flow sourced at this host.
    pub fn plan(&self, dst: NodeId) -> ArbPlan {
        ArbPlan {
            sender_leg_to: self.next_hop(self.me, dst),
            receiver_leg_to: self.cfg.end_to_end.then_some(dst),
        }
    }

    /// The source's sender leg, run synchronously for a local sender agent
    /// issuing `req` (the flow's receiver-leg request). Arbitrates this
    /// host's uplink — inserting or refreshing the flow's entry — and
    /// returns that decision and, when the leg climbs on, the sender-leg
    /// request and the arbitrator it goes to.
    pub fn sender_leg(
        &mut self,
        req: &ArbRequest,
        now: SimTime,
        stats: &mut StatsCollector,
    ) -> (Decision, Option<(NodeId, ArbRequest)>) {
        // Nothing decided yet: the leg starts at this host's uplink.
        let mut leg = ArbRequest {
            leg: Leg::Sender,
            decision: Decision {
                queue: 0,
                rate: Rate::from_bps(u64::MAX),
            },
            ..*req
        };
        let next = self.arbitrate(&mut leg, now, stats);
        (leg.decision, next.map(|to| (to, leg)))
    }

    /// Remove a finished local flow's uplink entry.
    pub fn local_remove(&mut self, flow: FlowId) {
        if let Some(up) = self.up.as_mut() {
            up.remove(flow);
        }
    }

    /// Where a leg of `src → dst` climbs after this process by the tree's
    /// rule; `None` when it ends here, and always under local-only
    /// arbitration.
    fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if !self.cfg.end_to_end {
            return None;
        }
        self.tree.next_arbitrator(self.me, src, dst)
    }

    /// The one route every leg takes through a process: the arbitrators a
    /// leg of `src → dst` crosses here — my own link's, then the delegated
    /// slice's — and the arbitrator it visits next (`None`: it ends here).
    /// A delegated slice decides the hop above on this ToR instead of the
    /// parent, so the leg ends (paper §3.1.2).
    fn route(
        &mut self,
        leg: Leg,
        src: NodeId,
        dst: NodeId,
    ) -> ([Option<&mut LinkArbitrator>; 2], Option<NodeId>) {
        let next = self.next_hop(src, dst);
        let (own, slice) = match leg {
            Leg::Sender => (self.up.as_mut(), self.deleg.as_mut().map(|s| &mut s.up)),
            Leg::Receiver => (self.down.as_mut(), self.deleg.as_mut().map(|s| &mut s.down)),
        };
        match (next, slice) {
            (Some(_), Some(slice)) => ([own, Some(slice)], None),
            (next, _) => ([own, None], next),
        }
    }

    /// A switch's virtual uplink at the capacity routing can still use:
    /// its upper links that are up (and healthy, under health-aware
    /// routing), summed — or all of them when none is, so a switch with
    /// one upper link arbitrates that link's rate whatever its state.
    /// `None` for a node without upper links.
    fn live_uplink(&self, io: &ProcIo<'_, '_>) -> Option<Rate> {
        let all = self.tree.uplink_rate(self.me)?;
        let live = io.live_rate(self.tree.uplinks(self.me));
        Some(if live.is_zero() { all } else { live })
    }

    /// Decide `req` on every arbitrator its leg crosses here, folding each
    /// decision into it, and return where the leg goes next: `None` when
    /// it ends here or early pruning stops it — the flow already falls
    /// outside the top `prune_depth` queues, so the arbitrators above
    /// cannot promote it (paper §3.1.2).
    fn arbitrate(
        &mut self,
        req: &mut ArbRequest,
        now: SimTime,
        stats: &mut StatsCollector,
    ) -> Option<NodeId> {
        let expiry = self.cfg.arb_expiry();
        let (arbs, next) = self.route(req.leg, req.src, req.dst);
        for arb in arbs.into_iter().flatten() {
            let d = arb.arbitrate(req.flow, req.entry(now), expiry);
            req.decision = req.decision.merge(d);
        }
        let next = next?;
        if matches!(self.cfg.prune_depth, Some(depth) if req.decision.queue >= depth) {
            stats.note_arb_pruned(self.me);
            return None;
        }
        stats.note_arb_climbed(self.me);
        Some(next)
    }

    /// Answer `req` to its source in `slot`, the box it arrived in.
    fn reply(&self, req: &ArbRequest, shedding: bool, slot: Box<ArbMsg>, io: &mut ProcIo<'_, '_>) {
        io.send(
            req.response(shedding)
                .packet_in(slot, req.flow, self.me, req.src),
        );
    }

    /// Enter a message the inbox turned away in the control ledger and,
    /// when tracing, as a `SHED` event.
    fn note_shed(&self, pkt: &Packet, stale: bool, stats: &mut StatsCollector, now: SimTime) {
        let node = self.me;
        stats.note_fate(pkt, Fate::Shed, node, now);
        if stats.tracing() {
            let flow = pkt.flow;
            stats.trace_event(now, &TraceEvent::Shed { node, flow, stale });
        }
    }

    /// Agg side: rebalance the delegated virtual links across children in
    /// proportion to their reported demands (with a minimum share so idle
    /// children can ramp up), and grant the reporter its share in `slot`,
    /// the box its report arrived in.
    fn rebalance_and_grant(
        &mut self,
        reporter: NodeId,
        slot: Box<ArbMsg>,
        io: &mut ProcIo<'_, '_>,
    ) {
        let Some(total) = self.live_uplink(io) else {
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
        io.send(grant.packet_in(slot, NO_FLOW, self.me, reporter));
    }
}

impl Process for ArbProcess {
    fn on_ctrl(&mut self, mut pkt: Packet, io: &mut ProcIo<'_, '_>) {
        let now = io.now();
        if self.crashed {
            // A crashed arbitrator is a black hole: the sending endpoints
            // judge the silence (see `crate::health`).
            io.sim
                .stats
                .note_fate(&pkt, Fate::LostToCrash, self.me, now);
            return;
        }
        let Some(msg) = pkt.take_proto::<ArbMsg>() else {
            io.sim.stats.note_fate(&pkt, Fate::Unattended, self.me, now);
            return;
        };
        let depth = self.inbox.charge(now);
        io.sim.stats.note_ctrl_epoch_depth(self.me, depth);
        // A request is a *stale refresh* — the first thing an overloaded
        // arbitrator sheds — when an arbitrator on its leg already holds an
        // unexpired lease for the flow.
        let req = match *msg {
            ArbMsg::Request(req) => Some(req),
            _ => None,
        };
        let this = &*self;
        let stale = req.map(|req| {
            move || {
                let expiry = this.cfg.arb_expiry();
                let mut arbs = this.leg_arbitrators(req.leg).into_iter().flatten();
                arbs.any(|a| a.has_lease(req.flow, now, expiry))
            }
        });
        match self.inbox.admit(depth, stale) {
            Admission::Process => {}
            Admission::Shed { stale } => {
                self.note_shed(&pkt, stale, io.sim.stats, now);
                // The sender still gets an answer — whatever the leg
                // accumulated so far plus the load-shed signal, in `msg`'s
                // box — just not a fresh decision, and backs off.
                if let Some(req) = req {
                    self.reply(&req, true, msg, io);
                }
                return;
            }
            // Unprotected full inbox: silent tail drop of whatever
            // arrived — responses and FlowDone releases included, so
            // leases leak until expiry and senders hear nothing but
            // silence. This is the failure mode the priority-aware shed
            // policy exists to prevent.
            Admission::Dropped => return self.note_shed(&pkt, false, io.sim.stats, now),
        }
        io.sim.stats.note_fate(&pkt, Fate::Processed, self.me, now);
        // Every reply and forward below goes out in `msg`'s box: one
        // allocation per request, however many hops it climbs.
        match *msg {
            ArbMsg::Request(mut req) => {
                if let Some(capacity) = self.live_uplink(io) {
                    for arb in [self.up.as_mut(), self.down.as_mut()].into_iter().flatten() {
                        arb.set_capacity(capacity);
                    }
                }
                match self.arbitrate(&mut req, now, io.sim.stats) {
                    Some(next) => {
                        io.send(ArbMsg::Request(req).packet_in(msg, req.flow, self.me, next))
                    }
                    None => self.reply(&req, false, msg, io),
                }
            }
            // Host: the flow's sender acts on the answer, in its box.
            ArbMsg::Response(resp) => io.wake_flow(resp.flow, msg),
            ArbMsg::FlowDone {
                flow,
                src,
                dst,
                leg,
            } => {
                // Release the flow here and pass the release on to every
                // arbitrator its requests climbed to.
                let (arbs, next) = self.route(leg, src, dst);
                arbs.into_iter().flatten().for_each(|a| a.remove(flow));
                if let Some(next) = next {
                    io.send(Packet::ctrl(flow, self.me, next, msg));
                }
            }
            ArbMsg::DelegUpdate {
                up_demand,
                down_demand,
            } => {
                let child = pkt.src;
                self.child_demands.insert(child, (up_demand, down_demand));
                self.rebalance_and_grant(child, msg, io);
            }
            ArbMsg::DelegGrant {
                up_capacity,
                down_capacity,
            } => {
                if let Some(slice) = self.deleg.as_mut() {
                    slice.up.set_capacity(up_capacity);
                    slice.down.set_capacity(down_capacity);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut ProcIo<'_, '_>) {
        if self.crashed {
            return;
        }
        let Some(slice) = self.deleg.as_mut().filter(|s| s.report.is_current(token)) else {
            return;
        };
        // Report demand on the delegated slices so the parent can
        // rebalance; only aggregate information travels (paper §3.1.2).
        // Expired leases are collected first: a dead flow claims no share.
        let (now, expiry) = (io.now(), self.cfg.arb_expiry());
        let demand = |arb: &mut LinkArbitrator| {
            arb.gc(now, expiry);
            arb.top_queue_demand()
        };
        let update = ArbMsg::DelegUpdate {
            up_demand: demand(&mut slice.up),
            down_demand: demand(&mut slice.down),
        };
        io.send(update.packet(NO_FLOW, self.me, slice.parent));
        io.set_timer(DELEG_PERIOD, slice.report.arm());
    }

    fn on_fault(&mut self, fault: FaultEvent, io: &mut ProcIo<'_, '_>) {
        match fault {
            FaultEvent::ArbitratorCrash { .. } | FaultEvent::HostCrash { .. } => {
                // The process loses everything: its inbox, its arbitrators
                // and an agg's delegation demands. Endpoints repopulate the
                // arbitrators on their next refresh once the process
                // restarts. A host's senders keep the leg answers they
                // already heard: they live in the agents, which survive a
                // crash of the process alone.
                self.crashed = true;
                self.inbox.clear(io.now());
                self.arbitrators_mut().for_each(LinkArbitrator::clear);
                self.child_demands.clear();
            }
            FaultEvent::CtrlStormStart { amplify, .. } => self.inbox.storm_start(amplify),
            FaultEvent::CtrlStormEnd { .. } => self.inbox.storm_end(),
            FaultEvent::ArbitratorRestart { .. } | FaultEvent::HostRestart { .. }
                if self.crashed =>
            {
                // The fresh process re-learns purely from the next refresh
                // round (within `arb_expiry`); its report loop starts afresh.
                self.crashed = false;
                if let Some((delay, token)) = self.arm_report() {
                    io.set_timer(delay, token);
                }
            }
            // A restart of a live process, and the link faults the node
            // has already acted on.
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
