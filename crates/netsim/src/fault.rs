//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — link failures and
//! repairs, control-plane (arbitrator) crashes and restarts, and bursts of
//! control-packet loss. [`crate::sim::Simulation::inject_faults`] resolves
//! each event against the topology and enqueues per-node
//! [`FaultDirective`]s through the ordinary event queue, so a faulty run
//! is exactly as reproducible as a healthy one: same seed + same plan =
//! same trace.
//!
//! Semantics:
//!
//! * A **downed link** drops everything: queued packets are flushed (and
//!   counted) when the link goes down, packets offered while down are
//!   rejected, and a packet caught mid-serialization dies instead of being
//!   delivered. Both directions of the link fail together.
//! * An **arbitrator crash** is delivered to the node's control plugin
//!   ([`crate::switch::SwitchPlugin::on_fault`]) or host service
//!   ([`crate::host::HostService::on_fault`]); the data plane keeps
//!   forwarding. What "crash" means is up to the protocol — PASE wipes
//!   its soft arbitration state.
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

use crate::ids::{NodeId, PortId};
use crate::time::SimTime;
use crate::topology::{NodeKind, Topology};

/// How a degraded (gray-failing) link misbehaves. All fields are
/// per-packet odds or bounds; `seed` makes the misbehaviour reproducible.
///
/// Kept small and `Copy` so a [`FaultDirective::PortDegrade`] carrying it
/// fits the scheduler's 64-byte event budget.
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

/// One scheduled fault, in topology terms (nodes and links).
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
    /// The control plugin / host service on `node` crashes, losing its
    /// soft state. The data plane is unaffected.
    ArbitratorCrash {
        /// The node whose arbitrator dies.
        node: NodeId,
    },
    /// The control plugin / host service on `node` restarts empty.
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
    /// host service die, in-flight data addressed to the host is lost
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
    /// unaffected; protocols without a budget ignore the directive.
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

    /// Schedule both directions of the `a`–`b` link to fail at `at`.
    pub fn link_down(mut self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.events.push((at, FaultEvent::LinkDown { a, b }));
        self
    }

    /// Schedule both directions of the `a`–`b` link to recover at `at`.
    pub fn link_up(mut self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.events.push((at, FaultEvent::LinkUp { a, b }));
        self
    }

    /// Schedule the arbitrator on `node` to crash at `at`.
    pub fn arbitrator_crash(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push((at, FaultEvent::ArbitratorCrash { node }));
        self
    }

    /// Schedule the arbitrator on `node` to restart (empty) at `at`.
    pub fn arbitrator_restart(mut self, at: SimTime, node: NodeId) -> Self {
        self.events
            .push((at, FaultEvent::ArbitratorRestart { node }));
        self
    }

    /// Schedule the next `n` control packets on the `from → to` direction
    /// to be dropped, starting at `at`.
    pub fn ctrl_loss_burst(mut self, at: SimTime, from: NodeId, to: NodeId, n: u64) -> Self {
        self.events
            .push((at, FaultEvent::CtrlLossBurst { from, to, n }));
        self
    }

    /// Schedule the end-host `node` to crash (agents, service and all) at
    /// `at`.
    pub fn host_crash(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push((at, FaultEvent::HostCrash { node }));
        self
    }

    /// Schedule the crashed end-host `node` to come back empty at `at`.
    pub fn host_restart(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push((at, FaultEvent::HostRestart { node }));
        self
    }

    /// Schedule both directions of the `a`–`b` link to degrade per
    /// `profile` at `at` (gray failure).
    pub fn link_degrade(
        mut self,
        at: SimTime,
        a: NodeId,
        b: NodeId,
        profile: DegradeProfile,
    ) -> Self {
        self.events
            .push((at, FaultEvent::LinkDegrade { a, b, profile }));
        self
    }

    /// Schedule both directions of the `a`–`b` link to return to nominal
    /// behaviour at `at`.
    pub fn link_restore(mut self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.events.push((at, FaultEvent::LinkRestore { a, b }));
        self
    }

    /// Schedule a control-plane overload storm to hit `node`'s arbitrator
    /// at `at`, charging each handled message `amplify`× against its
    /// per-epoch budget until the matching [`FaultPlan::ctrl_storm_end`].
    pub fn ctrl_storm_start(mut self, at: SimTime, node: NodeId, amplify: u32) -> Self {
        self.events
            .push((at, FaultEvent::CtrlStormStart { node, amplify }));
        self
    }

    /// Schedule the overload storm at `node` to subside at `at`.
    pub fn ctrl_storm_end(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push((at, FaultEvent::CtrlStormEnd { node }));
        self
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
    /// node must exist, every link event must name an adjacent pair, and
    /// every down/crash must pair with a later up/restart (and vice
    /// versa) so a "healing" plan cannot silently leave state wedged.
    ///
    /// Validation is opt-in: tests that deliberately model *permanent*
    /// failures (a crash with no restart) simply skip it. Generated chaos
    /// storms always pass it.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        let n = topo.n_nodes() as u32;
        let node_ok = |id: NodeId| id.0 < n;
        let check_link = |what: &str, a: NodeId, b: NodeId| -> Result<(), String> {
            if !node_ok(a) || !node_ok(b) {
                return Err(format!(
                    "{what} names unknown node ({a}, {b}; topology has {n} nodes)"
                ));
            }
            if topo.port_between(a, b).is_none() || topo.port_between(b, a).is_none() {
                return Err(format!("{what} names non-adjacent nodes {a} and {b}"));
            }
            Ok(())
        };

        // Process events in time order (stable, so same-time events keep
        // insertion order) and track what is down at each point.
        let mut ordered: Vec<&(SimTime, FaultEvent)> = self.events.iter().collect();
        ordered.sort_by_key(|(at, _)| *at);
        let mut links_down: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut links_degraded: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut arbs_down: BTreeSet<NodeId> = BTreeSet::new();
        let mut hosts_down: BTreeSet<NodeId> = BTreeSet::new();
        let mut storms: BTreeSet<NodeId> = BTreeSet::new();
        let key = |a: NodeId, b: NodeId| if a.0 <= b.0 { (a, b) } else { (b, a) };
        for &&(at, ev) in &ordered {
            match ev {
                FaultEvent::LinkDown { a, b } => {
                    check_link("LinkDown", a, b)?;
                    if !links_down.insert(key(a, b)) {
                        return Err(format!("link {a}–{b} taken down twice (at {at})"));
                    }
                }
                FaultEvent::LinkUp { a, b } => {
                    check_link("LinkUp", a, b)?;
                    if !links_down.remove(&key(a, b)) {
                        return Err(format!("link {a}–{b} brought up while not down (at {at})"));
                    }
                }
                FaultEvent::ArbitratorCrash { node } => {
                    if !node_ok(node) {
                        return Err(format!("ArbitratorCrash names unknown node {node}"));
                    }
                    if !arbs_down.insert(node) {
                        return Err(format!("arbitrator on {node} crashed twice (at {at})"));
                    }
                }
                FaultEvent::ArbitratorRestart { node } => {
                    if !node_ok(node) {
                        return Err(format!("ArbitratorRestart names unknown node {node}"));
                    }
                    if !arbs_down.remove(&node) {
                        return Err(format!(
                            "arbitrator on {node} restarted while not crashed (at {at})"
                        ));
                    }
                }
                FaultEvent::CtrlLossBurst { from, to, .. } => {
                    check_link("CtrlLossBurst", from, to)?;
                }
                FaultEvent::HostCrash { node } => {
                    if !node_ok(node) {
                        return Err(format!("HostCrash names unknown node {node}"));
                    }
                    if topo.kind(node) != NodeKind::Host {
                        return Err(format!("HostCrash targets non-host node {node}"));
                    }
                    if !hosts_down.insert(node) {
                        return Err(format!("host {node} crashed twice (at {at})"));
                    }
                }
                FaultEvent::HostRestart { node } => {
                    if !node_ok(node) {
                        return Err(format!("HostRestart names unknown node {node}"));
                    }
                    if !hosts_down.remove(&node) {
                        return Err(format!("host {node} restarted while not crashed (at {at})"));
                    }
                }
                FaultEvent::LinkDegrade { a, b, .. } => {
                    check_link("LinkDegrade", a, b)?;
                    if !links_degraded.insert(key(a, b)) {
                        return Err(format!("link {a}–{b} degraded twice (at {at})"));
                    }
                }
                FaultEvent::LinkRestore { a, b } => {
                    check_link("LinkRestore", a, b)?;
                    if !links_degraded.remove(&key(a, b)) {
                        return Err(format!(
                            "link {a}–{b} restored while not degraded (at {at})"
                        ));
                    }
                }
                FaultEvent::CtrlStormStart { node, amplify } => {
                    if !node_ok(node) {
                        return Err(format!("CtrlStormStart names unknown node {node}"));
                    }
                    if amplify < 2 {
                        return Err(format!(
                            "CtrlStormStart on {node} with amplify {amplify} < 2 (at {at})"
                        ));
                    }
                    if !storms.insert(node) {
                        return Err(format!("ctrl storm on {node} started twice (at {at})"));
                    }
                }
                FaultEvent::CtrlStormEnd { node } => {
                    if !node_ok(node) {
                        return Err(format!("CtrlStormEnd names unknown node {node}"));
                    }
                    if !storms.remove(&node) {
                        return Err(format!(
                            "ctrl storm on {node} ended while not active (at {at})"
                        ));
                    }
                }
            }
        }
        if let Some(&(a, b)) = links_down.iter().next() {
            return Err(format!("link {a}–{b} is never brought back up"));
        }
        if let Some(&(a, b)) = links_degraded.iter().next() {
            return Err(format!("link {a}–{b} is never restored from degradation"));
        }
        if let Some(&node) = arbs_down.iter().next() {
            return Err(format!("arbitrator on {node} is never restarted"));
        }
        if let Some(&node) = hosts_down.iter().next() {
            return Err(format!("host {node} is never restarted"));
        }
        if let Some(&node) = storms.iter().next() {
            return Err(format!("ctrl storm on {node} never ends"));
        }
        Ok(())
    }
}

/// A fault resolved to one node, carried by
/// [`crate::event::EventKind::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// Take the node's output port down.
    PortDown(PortId),
    /// Bring the node's output port back up.
    PortUp(PortId),
    /// Crash the node's control plugin / host service.
    Crash,
    /// Restart the node's control plugin / host service.
    Restart,
    /// Drop the next `n` control packets offered to `port`.
    CtrlLossBurst {
        /// The affected output port.
        port: PortId,
        /// How many control packets die.
        n: u64,
    },
    /// Crash the whole end host: agents, service, in-flight deliveries.
    HostCrash,
    /// Bring the crashed end host back empty with a new incarnation.
    HostRestart,
    /// Degrade the node's output port per the profile (gray failure).
    PortDegrade {
        /// The affected output port.
        port: PortId,
        /// How the port misbehaves while degraded.
        profile: DegradeProfile,
    },
    /// Restore the node's output port to nominal behaviour.
    PortRestore(PortId),
    /// Begin an overload storm at the node's control plugin / host
    /// service: each handled control message costs `amplify`× budget.
    CtrlStormStart {
        /// Budget-cost multiplier while the storm lasts.
        amplify: u32,
    },
    /// End the overload storm at the node's control plugin / host service.
    CtrlStormEnd,
}

/// What a control plugin or host service is told when its node's
/// control plane faults (see [`crate::switch::SwitchPlugin::on_fault`]
/// and [`crate::host::HostService::on_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The control process died: lose all soft state; stop responding.
    Crash,
    /// The control process came back, empty.
    Restart,
    /// A control-plane overload storm begins: each handled message costs
    /// `amplify`× against the per-epoch budget. Protocols without budget
    /// accounting may ignore this.
    CtrlStormStart {
        /// Budget-cost multiplier while the storm lasts.
        amplify: u32,
    },
    /// The overload storm subsides: message cost returns to 1.
    CtrlStormEnd,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowSpec, ReceiverHint};
    use crate::host::{AgentCtx, AgentFactory, FlowAgent};
    use crate::queue::DropTailQdisc;
    use crate::time::{Rate, SimDuration};
    use crate::topology::TopologyBuilder;
    use std::sync::Arc;

    struct NullFactory;
    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_start(&mut self, _: &mut AgentCtx<'_, '_>) {}
        fn on_packet(&mut self, _: crate::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
        fn on_timer(&mut self, _: u64, _: &mut AgentCtx<'_, '_>) {}
        fn is_done(&self) -> bool {
            false
        }
    }
    impl AgentFactory for NullFactory {
        fn sender(&self, _: &FlowSpec) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
        fn receiver(&self, _: ReceiverHint) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
    }

    /// s0 — s1, with hosts h2 and h3 hanging off s1.
    fn tiny_topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        b.connect(s0, s1, Rate::from_gbps(40), SimDuration::from_micros(2));
        for h in b.add_hosts(2) {
            b.connect(h, s1, Rate::from_gbps(10), SimDuration::from_micros(1));
        }
        b.build(Arc::new(NullFactory), &|_| Box::new(DropTailQdisc::new(16)))
            .topo
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
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
        assert!(err.contains("never brought back up"), "{err}");
        let err = FaultPlan::new()
            .link_up(ms(1), NodeId(0), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("while not down"), "{err}");
        let err = FaultPlan::new()
            .arbitrator_crash(ms(1), NodeId(0))
            .arbitrator_crash(ms(2), NodeId(0))
            .arbitrator_restart(ms(3), NodeId(0))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("crashed twice"), "{err}");
        let err = FaultPlan::new()
            .host_restart(ms(1), NodeId(2))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("while not crashed"), "{err}");
        let err = FaultPlan::new()
            .host_crash(ms(1), NodeId(2))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("never restarted"), "{err}");
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
        assert!(err.contains("never restored"), "{err}");
        let err = FaultPlan::new()
            .link_restore(ms(1), NodeId(0), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("while not degraded"), "{err}");
        let err = FaultPlan::new()
            .link_degrade(ms(1), NodeId(0), NodeId(1), profile(7))
            .link_degrade(ms(2), NodeId(1), NodeId(0), profile(8))
            .link_restore(ms(3), NodeId(0), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("degraded twice"), "{err}");
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
        assert!(err.contains("never ends"), "{err}");
        let err = FaultPlan::new()
            .ctrl_storm_end(ms(1), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("while not active"), "{err}");
        let err = FaultPlan::new()
            .ctrl_storm_start(ms(1), NodeId(1), 8)
            .ctrl_storm_start(ms(2), NodeId(1), 4)
            .ctrl_storm_end(ms(3), NodeId(1))
            .validate(&topo)
            .unwrap_err();
        assert!(err.contains("started twice"), "{err}");
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
