//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — link failures and
//! repairs, control-plane (arbitrator) crashes and restarts, and bursts of
//! control-packet loss. [`crate::sim::Simulation::inject_faults`] resolves
//! each event against the topology ([`FaultEvent::resolve`]) and enqueues
//! the same event at every node it fires at, with that node's port on a
//! faulted link, through the ordinary event queue, so a faulty run is
//! exactly as reproducible as a healthy one: same seed + same plan = same
//! trace. A node acts on its port, a host crashes or restarts itself, and
//! then the node tells its control process
//! ([`crate::node::Process::on_fault`]) every fault it received; the
//! process ignores those it does not act on.
//!
//! Semantics:
//!
//! * A **downed link** drops everything: queued packets are flushed (and
//!   counted) when the link goes down, packets offered while down are
//!   rejected, and a packet caught mid-serialization dies instead of being
//!   delivered. Both directions of the link fail together.
//! * An **arbitrator crash** is delivered to the node's control process
//!   ([`crate::node::Process::on_fault`]), on a host and a switch alike;
//!   the data plane keeps forwarding. What "crash" means is up to the
//!   protocol — PASE wipes its soft arbitration state.
//! * A **control-loss burst** kills the next `n` control packets on one
//!   *direction* of a link (a countdown on the port, ahead of its queue:
//!   [`crate::port::Port::inject_ctrl_loss_burst`]).
//! * A **degraded link** (gray failure) keeps forwarding but hurts: a
//!   seeded [`DegradeProfile`] imposes stochastic packet loss, payload
//!   corruption (detected and discarded by the destination's checksum,
//!   charged to the `corrupted` conservation term) and/or latency
//!   inflation with bounded jitter on both directions. Each direction
//!   draws from its own deterministic RNG (profile seed salted with the
//!   transmitting node and port), so degraded runs replay byte-identically
//!   and healthy runs never consume randomness.
//!
//! Every injection is recorded as a [`crate::trace::TraceEvent::Fault`]
//! and counted on the affected port
//! ([`crate::port::Port::faults_injected`]).

use std::collections::BTreeSet;

use crate::engine::Ctx;
use crate::ids::{NodeId, PortId};
use crate::port::Port;
use crate::time::SimTime;
use crate::topology::{NodeKind, Topology};
use crate::trace::TraceEvent;

/// How a degraded (gray-failing) link misbehaves. All fields are
/// per-packet odds or bounds; `seed` makes the misbehaviour reproducible.
///
/// `Copy`, so fault events are plain values. Carrying it makes
/// [`FaultEvent`] 40 bytes, and 48 with the port it is delivered with, the
/// largest event payload, which is why [`crate::event::EventKind::Fault`]
/// boxes the pair: the scheduler's events stay at 48 bytes whatever a
/// profile holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeProfile {
    /// Seed for the per-direction degradation RNG. Each port salts it
    /// with its own identity, so the two directions of a link (and any
    /// two degraded links sharing a seed) draw independent sequences.
    pub seed: u64,
    /// Probability (parts per million) that a transmitted packet is lost.
    pub loss_ppm: u32,
    /// Probability (parts per million) that a transmitted packet is
    /// corrupted in flight (delivered, then discarded by the receiver's
    /// checksum).
    pub corrupt_ppm: u32,
    /// Fixed extra propagation delay added to every packet, nanoseconds.
    pub extra_delay_ns: u32,
    /// Uniform jitter bound: each packet gets an extra delay drawn from
    /// `[0, jitter_ns]` nanoseconds.
    pub jitter_ns: u32,
}

/// One scheduled fault, in topology terms (nodes and links). The same
/// value travels from the plan to every node it fires at, to the trace and
/// to the node's process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Both directions of the link between `a` and `b` go down.
    LinkDown {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Both directions of the link between `a` and `b` come back up.
    LinkUp {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The control process on `node` crashes, losing its soft state. The
    /// data plane is unaffected.
    ArbitratorCrash {
        /// The node whose arbitrator dies.
        node: NodeId,
    },
    /// The control process on `node` restarts empty.
    ArbitratorRestart {
        /// The node whose arbitrator comes back.
        node: NodeId,
    },
    /// The next `n` control packets offered to the `from → to` direction
    /// of a link are dropped.
    CtrlLossBurst {
        /// Transmitting end of the faulty direction.
        from: NodeId,
        /// Receiving end of the faulty direction.
        to: NodeId,
        /// How many control packets die.
        n: u64,
    },
    /// The whole end-host `node` crashes: every live flow agent and the
    /// host's process die, in-flight data addressed to the host is lost
    /// (accounted as `lost_to_crash`), and flows sourced there are moved
    /// to the terminal `Aborted` state. Unlike [`FaultEvent::ArbitratorCrash`]
    /// this kills the data plane endpoint, not just the control process.
    HostCrash {
        /// The host that dies.
        node: NodeId,
    },
    /// The crashed host `node` comes back empty, with a new incarnation
    /// number so pre-crash segments can be told apart from fresh traffic.
    HostRestart {
        /// The host that comes back.
        node: NodeId,
    },
    /// Both directions of the `a`–`b` link degrade per `profile` (gray
    /// failure: the link stays up but loses, corrupts and/or delays
    /// packets).
    LinkDegrade {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// How the link misbehaves while degraded.
        profile: DegradeProfile,
    },
    /// Both directions of the `a`–`b` link return to nominal behaviour.
    LinkRestore {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A control-plane overload storm begins at `node`'s arbitrator: every
    /// control message it handles is charged `amplify`× against its
    /// per-epoch processing budget, modeling a flash crowd of arbitration
    /// traffic competing for the same control CPU. The data plane is
    /// unaffected; protocols without a budget ignore the event.
    CtrlStormStart {
        /// The overloaded arbitrator's node.
        node: NodeId,
        /// Budget-cost multiplier while the storm lasts (≥ 2).
        amplify: u32,
    },
    /// The overload storm at `node` subsides; budget accounting returns
    /// to a cost of 1 per message.
    CtrlStormEnd {
        /// The node whose arbitrator recovers.
        node: NodeId,
    },
}

/// A family of paired faults: every window an event of the family opens
/// on a [`Subject`] is closed by a later event of the same family on the
/// same subject. Ordered as [`FaultPlan::validate`] reports leftovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultFamily {
    /// `LinkDown` … `LinkUp`.
    Outage,
    /// `LinkDegrade` … `LinkRestore`.
    Degrade,
    /// `ArbitratorCrash` … `ArbitratorRestart`.
    ArbitratorCrash,
    /// `HostCrash` … `HostRestart`; the subject must be a host.
    HostCrash,
    /// `CtrlStormStart` … `CtrlStormEnd`.
    CtrlStorm,
}

/// An event's place in its family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// Opens a window of the family.
    Opens(FaultFamily),
    /// Closes the family's open window.
    Closes(FaultFamily),
    /// A one-off with nothing to heal.
    Point,
}

/// What a fault happens to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subject {
    /// Both directions of the link between two adjacent nodes, in the
    /// order the event names them (that order decides which end's
    /// event is scheduled first).
    Link(NodeId, NodeId),
    /// The `from → to` direction of a link.
    Direction(NodeId, NodeId),
    /// A node's control plane, or the whole node.
    Node(NodeId),
}

impl Subject {
    /// The subject with a link's endpoints in id order, so both spellings
    /// of one link compare equal.
    pub fn key(self) -> Subject {
        match self {
            Subject::Link(a, b) if b < a => Subject::Link(b, a),
            other => other,
        }
    }
}

impl core::fmt::Display for Subject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Subject::Link(a, b) => write!(f, "link {a}–{b}"),
            Subject::Direction(from, to) => write!(f, "link {from} -> {to}"),
            Subject::Node(node) => write!(f, "node {node}"),
        }
    }
}

/// Every field the `Debug` rendering shows, with node ids spelled as in
/// the rest of a trace line (`n2`, not `NodeId(2)`).
impl core::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            FaultEvent::LinkDown { a, b } => write!(f, "LinkDown {{ a: {a}, b: {b} }}"),
            FaultEvent::LinkUp { a, b } => write!(f, "LinkUp {{ a: {a}, b: {b} }}"),
            FaultEvent::ArbitratorCrash { node } => write!(f, "ArbitratorCrash {{ node: {node} }}"),
            FaultEvent::ArbitratorRestart { node } => {
                write!(f, "ArbitratorRestart {{ node: {node} }}")
            }
            FaultEvent::CtrlLossBurst { from, to, n } => {
                write!(f, "CtrlLossBurst {{ from: {from}, to: {to}, n: {n} }}")
            }
            FaultEvent::HostCrash { node } => write!(f, "HostCrash {{ node: {node} }}"),
            FaultEvent::HostRestart { node } => write!(f, "HostRestart {{ node: {node} }}"),
            FaultEvent::LinkDegrade { a, b, profile } => {
                write!(f, "LinkDegrade {{ a: {a}, b: {b}, profile: {profile:?} }}")
            }
            FaultEvent::LinkRestore { a, b } => write!(f, "LinkRestore {{ a: {a}, b: {b} }}"),
            FaultEvent::CtrlStormStart { node, amplify } => {
                write!(f, "CtrlStormStart {{ node: {node}, amplify: {amplify} }}")
            }
            FaultEvent::CtrlStormEnd { node } => write!(f, "CtrlStormEnd {{ node: {node} }}"),
        }
    }
}

impl FaultEvent {
    /// The fault vocabulary, declared once: how the event pairs up and
    /// what it happens to. [`FaultPlan::validate`], injection, the chaos
    /// generator and the chaos harness all read this.
    pub fn describe(self) -> (Pairing, Subject) {
        use FaultFamily::*;
        use Pairing::*;
        match self {
            FaultEvent::LinkDown { a, b } => (Opens(Outage), Subject::Link(a, b)),
            FaultEvent::LinkUp { a, b } => (Closes(Outage), Subject::Link(a, b)),
            FaultEvent::LinkDegrade { a, b, .. } => (Opens(Degrade), Subject::Link(a, b)),
            FaultEvent::LinkRestore { a, b } => (Closes(Degrade), Subject::Link(a, b)),
            FaultEvent::ArbitratorCrash { node } => (Opens(ArbitratorCrash), Subject::Node(node)),
            FaultEvent::ArbitratorRestart { node } => {
                (Closes(ArbitratorCrash), Subject::Node(node))
            }
            FaultEvent::HostCrash { node } => (Opens(HostCrash), Subject::Node(node)),
            FaultEvent::HostRestart { node } => (Closes(HostCrash), Subject::Node(node)),
            FaultEvent::CtrlStormStart { node, .. } => (Opens(CtrlStorm), Subject::Node(node)),
            FaultEvent::CtrlStormEnd { node } => (Closes(CtrlStorm), Subject::Node(node)),
            FaultEvent::CtrlLossBurst { from, to, .. } => (Point, Subject::Direction(from, to)),
        }
    }

    /// Resolve the event against `topo` into the nodes it fires at, in
    /// scheduling order, each with its port on the faulted link: both
    /// ends of a link (first-named end first), the transmitting end of a
    /// direction, or the one node, which has no port.
    ///
    /// Panics if the event names a link that does not exist.
    pub fn resolve(self, topo: &Topology) -> impl Iterator<Item = (NodeId, Option<PortId>)> {
        let port = |from: NodeId, to: NodeId| {
            let port = topo.port_between(from, to);
            Some(port.unwrap_or_else(|| panic!("no link {from} -> {to} in fault plan")))
        };
        let ends = match self.describe().1 {
            Subject::Link(a, b) => [Some((a, port(a, b))), Some((b, port(b, a)))],
            Subject::Direction(from, to) => [Some((from, port(from, to))), None],
            Subject::Node(node) => [Some((node, None)), None],
        };
        ends.into_iter().flatten()
    }

    /// The one fault path hosts and switches share: record the event at
    /// `node` on the trace and act on `port`, the node's end of a link
    /// fault (an index into `ports`). A node fault has no port; the node
    /// acts on it itself.
    pub(crate) fn apply(
        self,
        node: NodeId,
        port: Option<PortId>,
        ports: &mut [Port],
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        ctx.stats
            .trace_event(now, &TraceEvent::Fault { node, fault: self });
        let Some(port) = port else {
            return;
        };
        let port = &mut ports[port.index()];
        match self {
            FaultEvent::LinkDown { .. } => port.set_down(ctx),
            FaultEvent::LinkUp { .. } => port.set_up(),
            FaultEvent::CtrlLossBurst { n, .. } => port.inject_ctrl_loss_burst(n),
            FaultEvent::LinkDegrade { profile, .. } => port.set_degraded(node, profile),
            FaultEvent::LinkRestore { .. } => port.set_restored(),
            FaultEvent::ArbitratorCrash { .. }
            | FaultEvent::ArbitratorRestart { .. }
            | FaultEvent::HostCrash { .. }
            | FaultEvent::HostRestart { .. }
            | FaultEvent::CtrlStormStart { .. }
            | FaultEvent::CtrlStormEnd { .. } => {}
        }
    }
}

/// A reproducible schedule of faults, built up-front and injected with
/// [`crate::sim::Simulation::inject_faults`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: FaultEvent) {
        self.events.push((at, event));
    }

    fn with(mut self, at: SimTime, event: FaultEvent) -> Self {
        self.push(at, event);
        self
    }

    /// Schedule both directions of the `a`–`b` link to fail at `at`.
    pub fn link_down(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.with(at, FaultEvent::LinkDown { a, b })
    }

    /// Schedule both directions of the `a`–`b` link to recover at `at`.
    pub fn link_up(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.with(at, FaultEvent::LinkUp { a, b })
    }

    /// Schedule the arbitrator on `node` to crash at `at`.
    pub fn arbitrator_crash(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultEvent::ArbitratorCrash { node })
    }

    /// Schedule the arbitrator on `node` to restart (empty) at `at`.
    pub fn arbitrator_restart(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultEvent::ArbitratorRestart { node })
    }

    /// Schedule the next `n` control packets on the `from → to` direction
    /// to be dropped, starting at `at`.
    pub fn ctrl_loss_burst(self, at: SimTime, from: NodeId, to: NodeId, n: u64) -> Self {
        self.with(at, FaultEvent::CtrlLossBurst { from, to, n })
    }

    /// Schedule the end-host `node` to crash (agents, process and all) at
    /// `at`.
    pub fn host_crash(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultEvent::HostCrash { node })
    }

    /// Schedule the crashed end-host `node` to come back empty at `at`.
    pub fn host_restart(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultEvent::HostRestart { node })
    }

    /// Schedule both directions of the `a`–`b` link to degrade per
    /// `profile` at `at` (gray failure).
    pub fn link_degrade(self, at: SimTime, a: NodeId, b: NodeId, profile: DegradeProfile) -> Self {
        self.with(at, FaultEvent::LinkDegrade { a, b, profile })
    }

    /// Schedule both directions of the `a`–`b` link to return to nominal
    /// behaviour at `at`.
    pub fn link_restore(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.with(at, FaultEvent::LinkRestore { a, b })
    }

    /// Schedule a control-plane overload storm to hit `node`'s arbitrator
    /// at `at`, charging each handled message `amplify`× against its
    /// per-epoch budget until the matching [`FaultPlan::ctrl_storm_end`].
    pub fn ctrl_storm_start(self, at: SimTime, node: NodeId, amplify: u32) -> Self {
        self.with(at, FaultEvent::CtrlStormStart { node, amplify })
    }

    /// Schedule the overload storm at `node` to subside at `at`.
    pub fn ctrl_storm_end(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultEvent::CtrlStormEnd { node })
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the plan against a topology before injection: every named
    /// node must exist, every link event must name an adjacent pair, a
    /// host crash must target a host, a storm must amplify, and every
    /// window a family opens on a subject must be closed later (and
    /// nothing closed that is not open) so a "healing" plan cannot
    /// silently leave state wedged. Families are tracked separately: a
    /// link may be degraded and, while degraded, go down.
    ///
    /// Validation is opt-in: tests that deliberately model *permanent*
    /// failures (a crash with no restart) simply skip it. Generated chaos
    /// storms always pass it.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        let n = topo.n_nodes() as u32;
        // Process events in time order (stable, so same-time events keep
        // insertion order) and track which windows are open at each point.
        let mut ordered: Vec<&(SimTime, FaultEvent)> = self.events.iter().collect();
        ordered.sort_by_key(|(at, _)| *at);
        let mut open: BTreeSet<(FaultFamily, Subject)> = BTreeSet::new();
        for &&(at, ev) in &ordered {
            let (pairing, subject) = ev.describe();
            let (a, b) = match subject {
                Subject::Link(a, b) | Subject::Direction(a, b) => (a, Some(b)),
                Subject::Node(node) => (node, None),
            };
            if let Some(id) = [Some(a), b].into_iter().flatten().find(|id| id.0 >= n) {
                return Err(format!(
                    "{ev:?} names unknown node {id} (topology has {n} nodes)"
                ));
            }
            if let Some(b) = b {
                if topo.port_between(a, b).is_none() || topo.port_between(b, a).is_none() {
                    return Err(format!("{ev:?} names non-adjacent nodes {a} and {b}"));
                }
            }
            if let FaultEvent::CtrlStormStart { amplify, .. } = ev {
                if amplify < 2 {
                    return Err(format!("{ev:?} has amplify {amplify} < 2 (at {at})"));
                }
            }
            match pairing {
                Pairing::Opens(family) => {
                    if family == FaultFamily::HostCrash && topo.kind(a) != NodeKind::Host {
                        return Err(format!("{ev:?} targets non-host node {a}"));
                    }
                    if !open.insert((family, subject.key())) {
                        return Err(format!("{family:?} on {subject} opened twice (at {at})"));
                    }
                }
                Pairing::Closes(family) => {
                    if !open.remove(&(family, subject.key())) {
                        return Err(format!(
                            "{family:?} on {subject} closed while not open (at {at})"
                        ));
                    }
                }
                Pairing::Point => {}
            }
        }
        match open.first() {
            Some((family, subject)) => Err(format!("{family:?} on {subject} never closes")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DropTailQdisc;
    use crate::time::{Rate, SimDuration};
    use crate::topology::tests::null_agents;
    use crate::topology::TopologyBuilder;

    /// s0 — s1, with hosts h2 and h3 hanging off s1.
    fn tiny_topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        b.connect(s0, s1, Rate::from_gbps(40), SimDuration::from_micros(2));
        for h in b.add_hosts(2) {
            b.connect(h, s1, Rate::from_gbps(10), SimDuration::from_micros(1));
        }
        b.build(null_agents(), &|_| Box::new(DropTailQdisc::new(16)))
            .topo
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn display_is_the_debug_rendering_with_trace_node_ids() {
        let (a, b) = (NodeId(2), NodeId(40));
        let profile = DegradeProfile {
            seed: 7,
            jitter_ns: 9,
            ..DegradeProfile::default()
        };
        for fault in [
            FaultEvent::LinkDown { a, b },
            FaultEvent::LinkUp { a, b },
            FaultEvent::ArbitratorCrash { node: a },
            FaultEvent::ArbitratorRestart { node: b },
            FaultEvent::CtrlLossBurst {
                from: a,
                to: b,
                n: 3,
            },
            FaultEvent::HostCrash { node: a },
            FaultEvent::HostRestart { node: b },
            FaultEvent::LinkDegrade { a, b, profile },
            FaultEvent::LinkRestore { a, b },
            FaultEvent::CtrlStormStart {
                node: a,
                amplify: 8,
            },
            FaultEvent::CtrlStormEnd { node: b },
        ] {
            let debug = format!("{fault:?}")
                .replace("NodeId(2)", "n2")
                .replace("NodeId(40)", "n40");
            assert_eq!(fault.to_string(), debug);
        }
    }

    #[test]
    fn validate_accepts_a_balanced_plan() {
        let topo = tiny_topo();
        let plan = FaultPlan::new()
            .link_down(ms(1), NodeId(0), NodeId(1))
            .arbitrator_crash(ms(2), NodeId(1))
            .host_crash(ms(2), NodeId(2))
            .ctrl_loss_burst(ms(3), NodeId(1), NodeId(0), 4)
            .link_up(ms(4), NodeId(1), NodeId(0)) // endpoint order may differ
            .arbitrator_restart(ms(5), NodeId(1))
            .host_restart(ms(6), NodeId(2));
        assert_eq!(plan.validate(&topo), Ok(()));
    }

    #[test]
    fn validate_rejects_unknown_nodes() {
        let topo = tiny_topo();
        let err = FaultPlan::new()
            .arbitrator_crash(ms(1), NodeId(99))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("unknown node n99"), "{err}");
        let err = FaultPlan::new()
            .link_down(ms(1), NodeId(0), NodeId(42))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("unknown node"), "{err}");
    }

    #[test]
    fn validate_rejects_non_adjacent_links() {
        let topo = tiny_topo();
        // h2 and h3 both hang off s1 but have no direct link.
        let err = FaultPlan::new()
            .link_down(ms(1), NodeId(2), NodeId(3))
            .link_up(ms(2), NodeId(2), NodeId(3))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("non-adjacent"), "{err}");
        let err = FaultPlan::new()
            .ctrl_loss_burst(ms(1), NodeId(0), NodeId(2), 3)
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("non-adjacent"), "{err}");
    }

    #[test]
    fn validate_rejects_unbalanced_down_up_pairs() {
        let topo = tiny_topo();
        let err = FaultPlan::new()
            .link_down(ms(1), NodeId(0), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("Outage on link n0–n1 never closes"), "{err}");
        let err = FaultPlan::new()
            .link_up(ms(1), NodeId(0), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(
            err.contains("Outage on link n0–n1 closed while not open"),
            "{err}"
        );
        let err = FaultPlan::new()
            .arbitrator_crash(ms(1), NodeId(0))
            .arbitrator_crash(ms(2), NodeId(0))
            .arbitrator_restart(ms(3), NodeId(0))
            .validate(&topo)
            .unwrap_err();
        assert!(
            err.contains("ArbitratorCrash on node n0 opened twice"),
            "{err}"
        );
        let err = FaultPlan::new()
            .host_restart(ms(1), NodeId(2))
            .validate(&topo)
            .unwrap_err();
        assert!(
            err.contains("HostCrash on node n2 closed while not open"),
            "{err}"
        );
        let err = FaultPlan::new()
            .host_crash(ms(1), NodeId(2))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("HostCrash on node n2 never closes"), "{err}");
    }

    fn profile(seed: u64) -> DegradeProfile {
        DegradeProfile {
            seed,
            loss_ppm: 10_000,
            corrupt_ppm: 5_000,
            extra_delay_ns: 2_000,
            jitter_ns: 1_000,
        }
    }

    #[test]
    fn validate_accepts_balanced_degrade_restore() {
        let topo = tiny_topo();
        let plan = FaultPlan::new()
            .link_degrade(ms(1), NodeId(0), NodeId(1), profile(7))
            .link_restore(ms(3), NodeId(1), NodeId(0)); // endpoint order may differ
        assert_eq!(plan.validate(&topo), Ok(()));
    }

    #[test]
    fn validate_rejects_unbalanced_degrade_restore_pairs() {
        let topo = tiny_topo();
        let err = FaultPlan::new()
            .link_degrade(ms(1), NodeId(0), NodeId(1), profile(7))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("Degrade on link n0–n1 never closes"), "{err}");
        let err = FaultPlan::new()
            .link_restore(ms(1), NodeId(0), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(
            err.contains("Degrade on link n0–n1 closed while not open"),
            "{err}"
        );
        let err = FaultPlan::new()
            .link_degrade(ms(1), NodeId(0), NodeId(1), profile(7))
            .link_degrade(ms(2), NodeId(1), NodeId(0), profile(8))
            .link_restore(ms(3), NodeId(0), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("Degrade on link n1–n0 opened twice"), "{err}");
    }

    #[test]
    fn validate_rejects_degrade_on_unknown_or_non_adjacent_link() {
        let topo = tiny_topo();
        let err = FaultPlan::new()
            .link_degrade(ms(1), NodeId(0), NodeId(42), profile(7))
            .link_restore(ms(2), NodeId(0), NodeId(42))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("unknown node"), "{err}");
        // h2 and h3 both hang off s1 but have no direct link.
        let err = FaultPlan::new()
            .link_degrade(ms(1), NodeId(2), NodeId(3), profile(7))
            .link_restore(ms(2), NodeId(2), NodeId(3))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("non-adjacent"), "{err}");
    }

    #[test]
    fn degrade_and_down_are_independent_state_machines() {
        // A link may be degraded and then (while still degraded) go fully
        // down; validate tracks the two conditions separately.
        let topo = tiny_topo();
        let plan = FaultPlan::new()
            .link_degrade(ms(1), NodeId(0), NodeId(1), profile(7))
            .link_down(ms(2), NodeId(0), NodeId(1))
            .link_up(ms(3), NodeId(0), NodeId(1))
            .link_restore(ms(4), NodeId(0), NodeId(1));
        assert_eq!(plan.validate(&topo), Ok(()));
    }

    #[test]
    fn validate_orders_by_time_not_insertion() {
        let topo = tiny_topo();
        // Inserted up-before-down, but the *times* are ordered correctly.
        let plan = FaultPlan::new()
            .link_up(ms(4), NodeId(0), NodeId(1))
            .link_down(ms(1), NodeId(0), NodeId(1));
        assert_eq!(plan.validate(&topo), Ok(()));
    }

    #[test]
    fn validate_accepts_balanced_ctrl_storms() {
        let topo = tiny_topo();
        let plan = FaultPlan::new()
            .ctrl_storm_start(ms(1), NodeId(1), 8)
            .ctrl_storm_end(ms(3), NodeId(1));
        assert_eq!(plan.validate(&topo), Ok(()));
    }

    #[test]
    fn validate_rejects_unbalanced_or_degenerate_ctrl_storms() {
        let topo = tiny_topo();
        let err = FaultPlan::new()
            .ctrl_storm_start(ms(1), NodeId(1), 8)
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("CtrlStorm on node n1 never closes"), "{err}");
        let err = FaultPlan::new()
            .ctrl_storm_end(ms(1), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(
            err.contains("CtrlStorm on node n1 closed while not open"),
            "{err}"
        );
        let err = FaultPlan::new()
            .ctrl_storm_start(ms(1), NodeId(1), 8)
            .ctrl_storm_start(ms(2), NodeId(1), 4)
            .ctrl_storm_end(ms(3), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("CtrlStorm on node n1 opened twice"), "{err}");
        let err = FaultPlan::new()
            .ctrl_storm_start(ms(1), NodeId(1), 1)
            .ctrl_storm_end(ms(2), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("amplify 1 < 2"), "{err}");
        let err = FaultPlan::new()
            .ctrl_storm_start(ms(1), NodeId(77), 4)
            .ctrl_storm_end(ms(2), NodeId(77))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("unknown node"), "{err}");
    }

    #[test]
    fn validate_rejects_host_crash_on_a_switch() {
        let topo = tiny_topo();
        let err = FaultPlan::new()
            .host_crash(ms(1), NodeId(0))
            .host_restart(ms(2), NodeId(0))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("non-host"), "{err}");
    }

    #[test]
    fn builder_preserves_order_and_times() {
        let plan = FaultPlan::new()
            .link_down(SimTime::from_millis(1), NodeId(0), NodeId(1))
            .arbitrator_crash(SimTime::from_millis(2), NodeId(2))
            .ctrl_loss_burst(SimTime::from_millis(3), NodeId(1), NodeId(0), 5)
            .link_up(SimTime::from_millis(4), NodeId(0), NodeId(1))
            .arbitrator_restart(SimTime::from_millis(5), NodeId(2));
        assert_eq!(plan.len(), 5);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.events()[0],
            (
                SimTime::from_millis(1),
                FaultEvent::LinkDown {
                    a: NodeId(0),
                    b: NodeId(1)
                }
            )
        );
        assert_eq!(
            plan.events()[4],
            (
                SimTime::from_millis(5),
                FaultEvent::ArbitratorRestart { node: NodeId(2) }
            )
        );
    }

    #[test]
    fn plans_compare_equal_when_identical() {
        let mk = || {
            FaultPlan::new()
                .arbitrator_crash(SimTime::from_millis(2), NodeId(0))
                .arbitrator_restart(SimTime::from_millis(6), NodeId(0))
        };
        assert_eq!(mk(), mk());
        assert_ne!(mk(), FaultPlan::new());
    }
}
