//! Measurement collection.
//!
//! The collector records per-flow lifecycle events (start, completion,
//! retransmissions, timeouts) plus global counters for dropped packets and
//! control-plane traffic. It is threaded through every event handler via
//! [`crate::engine::Ctx`], so protocol code can attribute costs without
//! carrying its own bookkeeping.
//!
//! It is also the packet ledger both conservation laws are checked
//! against ([`crate::invariants`]). A packet enters its [`Plane`] at one
//! of two send sites, [`StatsCollector::note_sent`], and leaves it with
//! exactly one [`Fate`], charged by [`StatsCollector::note_fate`] (or
//! [`crate::engine::Ctx::retire`], which also frees the packet). The
//! `fates!` table below is the one declaration of the fates: their law
//! terms, the planes they belong to and the counters they are charged to.
//! DESIGN.md §7e tabulates the sites that charge each and what they trace.

use std::collections::BTreeMap;

use crate::event::EventKind;
use crate::flow::FlowSpec;
use crate::ids::{FlowId, NodeId};
use crate::packet::{Packet, PacketKind};
use crate::time::{SimDuration, SimTime};
use crate::trace::{AbortReason, TraceEvent, TraceSink};

/// Lifecycle record for one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// The flow's specification.
    pub spec: FlowSpec,
    /// When the sender agent was instantiated.
    pub started: SimTime,
    /// When the sender observed the final acknowledgment, if completed.
    pub completed: Option<SimTime>,
    /// Whether the flow was aborted (e.g. PDQ early termination) rather
    /// than finishing its transfer. Aborted flows record a `completed`
    /// time (so runs terminate) but never count as meeting a deadline.
    pub aborted: bool,
    /// Why the flow was aborted; `None` unless `aborted` is set.
    pub abort_reason: Option<AbortReason>,
    /// Payload bytes retransmitted.
    pub retransmitted_bytes: u64,
    /// Retransmission timeouts experienced.
    pub timeouts: u64,
    /// Header-only probe packets sent.
    pub probes_sent: u64,
    /// Data packets of this flow dropped anywhere in the network.
    pub drops: u64,
}

impl FlowRecord {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.completed.map(|t| t - self.spec.start)
    }

    /// Whether the flow met its deadline. `None` when the flow has no
    /// deadline; incomplete or aborted flows with a deadline count as
    /// missed.
    pub fn met_deadline(&self) -> Option<bool> {
        let deadline = self.spec.deadline_abs()?;
        Some(match self.completed {
            Some(t) => !self.aborted && t <= deadline,
            None => false,
        })
    }
}

/// Per-node tallies: one row of [`StatsCollector`]'s dense table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Corrupted data packets discarded at this destination host.
    pub corrupted: u64,
    /// Packets of any kind this switch had no live next hop for.
    pub blackholed: u64,
    /// Aborted flows sourced at this host.
    pub aborts: u64,
    /// Control messages processed by this arbitrator.
    pub ctrl_processed: u64,
    /// Control messages shed by this arbitrator.
    pub ctrl_shed: u64,
    /// Peak weighted inbox depth (messages per budget epoch).
    pub ctrl_peak_epoch: u64,
    /// Arbitration requests this arbitrator pruned (answered locally
    /// instead of climbing to its parent, because the accumulated queue
    /// already exceeded the early-pruning depth; paper §3.1.2).
    pub arb_pruned: u64,
    /// Arbitration requests this arbitrator forwarded up the hierarchy
    /// (the complement of pruning at the same decision point).
    pub arb_climbed: u64,
}

/// The two packet populations with a conservation law each (see
/// [`crate::invariants`]). Acks and probes are in neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Data packets, injected by host endpoints.
    Data,
    /// Control messages, sent by endpoints and arbitrators.
    Ctrl,
}

impl Plane {
    /// Both planes, in the order audits check them.
    pub const ALL: [Plane; 2] = [Plane::Data, Plane::Ctrl];

    /// The plane a packet of `kind` is booked under, if any.
    #[inline]
    pub fn of(kind: PacketKind) -> Option<Plane> {
        match kind {
            PacketKind::Data => Some(Plane::Data),
            PacketKind::Ctrl => Some(Plane::Ctrl),
            _ => None,
        }
    }

    /// The left-hand side of the plane's law: what entered the plane.
    pub fn source(self) -> &'static str {
        match self {
            Plane::Data => "injected",
            Plane::Ctrl => "sent",
        }
    }

    /// The plane's conservation law as text, term by term from the
    /// declaration: `injected = delivered + … + in-network`.
    pub fn law(self) -> String {
        let terms: Vec<&str> = (Fate::ALL.iter().filter(|f| f.in_plane(self)))
            .map(|f| f.name())
            .chain(["in-network"])
            .collect();
        format!("{} = {}", self.source(), terms.join(" + "))
    }
}

/// Declares [`Fate`] from one table and derives the rest of the ledger
/// from it. A row is a fate (with its docs), the term the laws print it
/// under, and the [`StatsCollector`] counter it is charged to on each
/// plane whose law it is a term of. Adding a fate is one row here plus
/// the counter it names.
macro_rules! fates {
    ($($(#[$doc:meta])* $fate:ident $name:literal { $($plane:ident: $field:ident),+ })+) => {
        /// Every way a packet leaves its [`Plane`]: the terms of both
        /// conservation laws, charged by [`StatsCollector::note_fate`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Fate {
            $($(#[$doc])* $fate,)+
        }

        impl Fate {
            /// Every fate, in the order the laws print their terms.
            pub const ALL: &'static [Fate] = &[$(Fate::$fate),+];

            /// The fate's term in the conservation laws.
            pub fn name(self) -> &'static str {
                match self {
                    $(Fate::$fate => $name,)+
                }
            }

            /// Whether the fate is a term of `plane`'s law.
            pub fn in_plane(self, plane: Plane) -> bool {
                matches!((plane, self), $($((Plane::$plane, Fate::$fate))|+)|+)
            }
        }

        impl StatsCollector {
            /// Packets of `plane` charged with `fate` so far (0 when the
            /// fate is no term of that plane's law).
            pub fn charged(&self, plane: Plane, fate: Fate) -> u64 {
                match (plane, fate) {
                    $($((Plane::$plane, Fate::$fate) => self.$field,)+)+
                    _ => 0,
                }
            }

            fn counter(&mut self, plane: Plane, fate: Fate) -> Option<&mut u64> {
                match (plane, fate) {
                    $($((Plane::$plane, Fate::$fate) => Some(&mut self.$field),)+)+
                    _ => None,
                }
            }
        }
    };
}

fates! {
    /// Handed to the destination host (charged on the hot path by
    /// [`StatsCollector::note_data_delivered`]).
    Delivered "delivered" { Data: data_pkts_delivered }
    /// Processed by an arbitrator.
    Processed "processed" { Ctrl: ctrl_msgs_processed }
    /// Shed by an overloaded arbitrator's inbox, tail drops included.
    Shed "shed" { Ctrl: ctrl_msgs_shed }
    /// Dropped at a port: queue overflow or eviction, a downed link, a
    /// degraded link's loss, an injected control-loss burst.
    Dropped "dropped" { Data: data_pkts_dropped, Ctrl: ctrl_pkts_dropped }
    /// Corrupted in flight and discarded by the destination's checksum.
    Corrupted "corrupted" { Data: data_pkts_corrupted, Ctrl: ctrl_pkts_corrupted }
    /// No surviving next hop at a switch.
    Blackholed "blackholed" { Data: data_pkts_blackholed, Ctrl: ctrl_pkts_blackholed }
    /// Arrived at a crashed host or a crashed control process.
    LostToCrash "lost-to-crash" { Data: data_pkts_lost_to_crash, Ctrl: ctrl_lost_to_crash }
    /// Reached a node with no control process to take it, or
    /// carried a payload its arbitrator does not speak.
    Unattended "unattended" { Ctrl: ctrl_unattended }
}

impl Fate {
    /// Whether a data packet meeting this fate counts on its flow's
    /// `drops` tally: the sender experiences it as loss.
    pub fn is_flow_loss(self) -> bool {
        matches!(self, Fate::Dropped | Fate::Corrupted | Fate::Blackholed)
    }
}

/// Global and per-flow measurement state for one simulation run.
#[derive(Default)]
pub struct StatsCollector {
    flows: BTreeMap<FlowId, FlowRecord>,
    /// Flows with `measured = true` that have been scheduled.
    expected_measured: usize,
    /// Measured flows that have completed.
    completed_measured: usize,
    /// Per-node tallies indexed by [`NodeId::index`], grown on demand so
    /// the collector needs no node count up front.
    per_node: Vec<NodeCounters>,
    /// Data packets injected by host endpoints (senders and processes),
    /// counting each retransmitted copy separately: the data law's
    /// left-hand side.
    pub data_pkts_injected: u64,
    /// Data packets accepted into queues; drop-rate denominator.
    pub data_pkts_enqueued: u64,
    /// [`Fate::Delivered`] on the data plane.
    pub data_pkts_delivered: u64,
    /// [`Fate::Dropped`] on the data plane.
    pub data_pkts_dropped: u64,
    /// [`Fate::Corrupted`] on the data plane.
    pub data_pkts_corrupted: u64,
    /// [`Fate::Blackholed`] on the data plane.
    pub data_pkts_blackholed: u64,
    /// [`Fate::LostToCrash`] on the data plane.
    pub data_pkts_lost_to_crash: u64,
    /// Packets of any kind blackholed at switches.
    pub blackhole_pkts: u64,
    /// Control packets sent (PASE arbitration traffic): the control
    /// law's left-hand side.
    pub ctrl_pkts: u64,
    /// Control-plane bytes sent.
    pub ctrl_bytes: u64,
    /// [`Fate::Processed`].
    pub ctrl_msgs_processed: u64,
    /// [`Fate::Shed`].
    pub ctrl_msgs_shed: u64,
    /// [`Fate::Dropped`] on the control plane.
    pub ctrl_pkts_dropped: u64,
    /// [`Fate::Corrupted`] on the control plane.
    pub ctrl_pkts_corrupted: u64,
    /// [`Fate::Blackholed`] on the control plane.
    pub ctrl_pkts_blackholed: u64,
    /// [`Fate::LostToCrash`] on the control plane.
    pub ctrl_lost_to_crash: u64,
    /// [`Fate::Unattended`].
    pub ctrl_unattended: u64,
    /// Total events executed (engine counter, for benchmarking).
    pub events_executed: u64,
    /// [`StatsCollector::events_executed`] split by event kind, indexed by
    /// [`crate::event::EventKind::index`].
    pub events_by_kind: [u64; EventKind::KINDS.len()],
    /// [`crate::timer::SupersedingTimer`] arms that queued no event
    /// because an earlier one was already on its way.
    pub timer_arms_superseded: u64,
    /// Packet-arena counters, published by [`crate::sim::Simulation::run`]
    /// when it returns (zero until the first run completes).
    pub arena: crate::packet::ArenaStats,
    /// Optional trace sink; see [`crate::trace`].
    tracer: Option<Box<dyn TraceSink>>,
}

impl core::fmt::Debug for StatsCollector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StatsCollector")
            .field("flows", &self.flows.len())
            .field("completed_measured", &self.completed_measured)
            .field("events_executed", &self.events_executed)
            .field("tracing", &self.tracer.is_some())
            .finish()
    }
}

impl StatsCollector {
    /// Create an empty collector.
    pub fn new() -> Self {
        StatsCollector::default()
    }

    /// Install a trace sink (see [`crate::trace`]). Replaces any existing
    /// sink.
    pub fn set_tracer(&mut self, tracer: Box<dyn TraceSink>) {
        self.tracer = Some(tracer);
    }

    /// Emit a trace event if a sink is installed.
    pub fn trace_event(&mut self, now: SimTime, event: &TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.on_event(now, event);
        }
    }

    /// Whether a trace sink is installed. Hot paths gate trace-event
    /// construction on this so a disabled tracer costs one branch and
    /// nothing else (no formatting, no allocation).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Flush the installed sink's buffered output (no-op without a
    /// sink). [`crate::sim::Simulation::run`] calls this before
    /// returning; call it manually only when reading a sink's output
    /// mid-run.
    pub fn flush_tracer(&mut self) {
        if let Some(t) = self.tracer.as_mut() {
            t.flush();
        }
    }

    /// Register a flow that will be simulated. Called by the simulation
    /// when the flow is scheduled (before it starts).
    pub fn register_flow(&mut self, spec: &FlowSpec) {
        if spec.measured {
            self.expected_measured += 1;
        }
        self.flows.insert(
            spec.id,
            FlowRecord {
                spec: spec.clone(),
                started: spec.start,
                completed: None,
                aborted: false,
                abort_reason: None,
                retransmitted_bytes: 0,
                timeouts: 0,
                probes_sent: 0,
                drops: 0,
            },
        );
    }

    /// Record that a flow's sender observed the final acknowledgment.
    pub fn flow_completed(&mut self, flow: FlowId, now: SimTime) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            if rec.completed.is_none() {
                rec.completed = Some(now);
                if rec.spec.measured {
                    self.completed_measured += 1;
                }
                self.trace_event(
                    now,
                    &TraceEvent::FlowDone {
                        flow,
                        aborted: false,
                        reason: None,
                    },
                );
            }
        }
    }

    /// Record that a flow was aborted (counts as completed for run
    /// termination, but flagged so metrics can treat it separately). The
    /// reason is recorded on the flow and tallied against the flow's
    /// source host.
    pub fn flow_aborted(&mut self, flow: FlowId, now: SimTime, reason: AbortReason) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            if rec.completed.is_none() {
                rec.completed = Some(now);
                rec.aborted = true;
                rec.abort_reason = Some(reason);
                if rec.spec.measured {
                    self.completed_measured += 1;
                }
                let src = rec.spec.src;
                self.node_mut(src).aborts += 1;
                self.trace_event(
                    now,
                    &TraceEvent::FlowDone {
                        flow,
                        aborted: true,
                        reason: Some(reason),
                    },
                );
            }
        }
    }

    /// `node`'s row of the per-node table (all zero for a node no
    /// `note_*` call has named).
    pub fn node(&self, node: NodeId) -> NodeCounters {
        self.per_node.get(node.index()).copied().unwrap_or_default()
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeCounters {
        let i = node.index();
        if i >= self.per_node.len() {
            self.per_node.resize(i + 1, NodeCounters::default());
        }
        &mut self.per_node[i]
    }

    /// One column of the per-node table: the nodes whose tally is
    /// non-zero, in node-id order (deterministic).
    fn by_node(
        &self,
        column: fn(&NodeCounters) -> u64,
    ) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .map(move |(i, c)| (NodeId(i as u32), column(c)))
            .filter(|&(_, n)| n != 0)
    }

    /// Number of aborted flows whose source was `host`.
    pub fn aborts_on(&self, host: NodeId) -> u64 {
        self.node(host).aborts
    }

    /// Record a retransmission of `bytes` payload bytes.
    pub fn note_retransmit(&mut self, flow: FlowId, bytes: u64) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            rec.retransmitted_bytes += bytes;
        }
    }

    /// Record a retransmission timeout.
    pub fn note_timeout(&mut self, flow: FlowId) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            rec.timeouts += 1;
        }
    }

    /// Record a probe transmission.
    pub fn note_probe(&mut self, flow: FlowId) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            rec.probes_sent += 1;
        }
    }

    /// A packet enters the network: charge the sent side of its plane's
    /// law (nothing for acks and probes). Both send sites — a host's
    /// emit (its agents and [`crate::node::ProcIo::send`]) and a
    /// switch's (`ProcIo::send` only) — call this once per packet, before
    /// routing, so a packet blackholed on its first hop is still on the
    /// books.
    #[inline]
    pub fn note_sent(&mut self, pkt: &Packet) {
        match pkt.kind {
            PacketKind::Data => self.note_data_injected(),
            PacketKind::Ctrl => {
                self.ctrl_pkts += 1;
                self.ctrl_bytes += pkt.wire_bytes as u64;
            }
            _ => {}
        }
    }

    /// What entered `plane` so far: the left-hand side of its law.
    pub fn sent(&self, plane: Plane) -> u64 {
        match plane {
            Plane::Data => self.data_pkts_injected,
            Plane::Ctrl => self.ctrl_pkts,
        }
    }

    /// A packet leaves its plane at `node` with `fate`: charge the fate's
    /// counter on the packet's plane (acks and probes are on none), the
    /// node's row where it keeps one, and — for a data packet lost on the
    /// way — the flow's `drops`; then emit the fate's trace event, if it
    /// has one. [`crate::engine::Ctx::retire`] is this plus freeing the
    /// packet.
    pub fn note_fate(&mut self, pkt: &Packet, fate: Fate, node: NodeId, now: SimTime) {
        if let Some(plane) = Plane::of(pkt.kind) {
            if let Some(n) = self.counter(plane, fate) {
                *n += 1;
            }
            if plane == Plane::Data && fate.is_flow_loss() {
                if let Some(rec) = self.flows.get_mut(&pkt.flow) {
                    rec.drops += 1;
                }
            }
            match (plane, fate) {
                (Plane::Data, Fate::Corrupted) => self.node_mut(node).corrupted += 1,
                (Plane::Ctrl, Fate::Processed) => self.node_mut(node).ctrl_processed += 1,
                (Plane::Ctrl, Fate::Shed) => self.node_mut(node).ctrl_shed += 1,
                _ => {}
            }
        }
        if fate == Fate::Blackholed {
            self.blackhole_pkts += 1;
            self.node_mut(node).blackholed += 1;
        }
        if self.tracing() {
            let (flow, kind, seq) = (pkt.flow, pkt.kind, pkt.seq);
            let event = match fate {
                Fate::Dropped => TraceEvent::Drop { flow, kind, seq },
                Fate::Corrupted => TraceEvent::Corrupt {
                    node,
                    flow,
                    kind,
                    seq,
                },
                Fate::Blackholed => TraceEvent::Blackhole {
                    node,
                    flow,
                    kind,
                    seq,
                },
                _ => return,
            };
            self.trace_event(now, &event);
        }
    }

    /// Record a data packet accepted into a queue (drop-rate denominator).
    pub fn note_data_enqueued(&mut self) {
        self.data_pkts_enqueued += 1;
    }

    /// Record a data packet injected into the network by a host endpoint.
    pub fn note_data_injected(&mut self) {
        self.data_pkts_injected += 1;
    }

    /// [`Fate::Delivered`] without the packet: the host's delivery path
    /// charges it as a bare increment.
    pub fn note_data_delivered(&mut self) {
        self.data_pkts_delivered += 1;
    }

    /// Corrupted data packets discarded at `host`.
    pub fn corrupted_on(&self, host: NodeId) -> u64 {
        self.node(host).corrupted
    }

    /// [`Fate::Processed`] at the arbitrator on `node`, without the
    /// packet.
    pub fn note_ctrl_processed(&mut self, node: NodeId) {
        self.ctrl_msgs_processed += 1;
        self.node_mut(node).ctrl_processed += 1;
    }

    /// Record the weighted inbox depth the arbitrator on `node` reached
    /// within one budget epoch; keeps the per-node peak.
    pub fn note_ctrl_epoch_depth(&mut self, node: NodeId, depth: u64) {
        let c = self.node_mut(node);
        c.ctrl_peak_epoch = c.ctrl_peak_epoch.max(depth);
    }

    /// Record an arbitration request pruned (answered locally) by the
    /// arbitrator on `node` instead of climbing to its parent.
    pub fn note_arb_pruned(&mut self, node: NodeId) {
        self.node_mut(node).arb_pruned += 1;
    }

    /// Record an arbitration request the arbitrator on `node` forwarded
    /// up the hierarchy.
    pub fn note_arb_climbed(&mut self, node: NodeId) {
        self.node_mut(node).arb_climbed += 1;
    }

    /// Messages shed by the arbitrator on `node`.
    pub fn ctrl_shed_on(&self, node: NodeId) -> u64 {
        self.node(node).ctrl_shed
    }

    /// Per-arbitrator processed tallies: non-zero rows in node-id order.
    pub fn ctrl_processed_by_node(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.by_node(|c| c.ctrl_processed)
    }

    /// Per-arbitrator peak epoch depth: non-zero rows in node-id order.
    pub fn ctrl_peak_epoch_by_node(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.by_node(|c| c.ctrl_peak_epoch)
    }

    /// Per-arbitrator pruned tallies: non-zero rows in node-id order.
    pub fn arb_pruned_by_node(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.by_node(|c| c.arb_pruned)
    }

    /// Per-arbitrator climbed tallies: non-zero rows in node-id order.
    pub fn arb_climbed_by_node(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.by_node(|c| c.arb_climbed)
    }

    /// Have all measured flows completed?
    pub fn all_measured_complete(&self) -> bool {
        self.expected_measured > 0 && self.completed_measured >= self.expected_measured
    }

    /// Number of measured flows registered.
    pub fn expected_measured(&self) -> usize {
        self.expected_measured
    }

    /// Number of measured flows completed.
    pub fn completed_measured(&self) -> usize {
        self.completed_measured
    }

    /// Look up one flow's record.
    pub fn flow(&self, id: FlowId) -> Option<&FlowRecord> {
        self.flows.get(&id)
    }

    /// Iterate over all flow records in flow-id order (deterministic).
    pub fn flows(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.values()
    }

    /// Fraction of data packets dropped, `dropped / (enqueued + dropped)`.
    pub fn data_loss_rate(&self) -> f64 {
        let total = self.data_pkts_enqueued + self.data_pkts_dropped;
        if total == 0 {
            0.0
        } else {
            self.data_pkts_dropped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn spec(id: u64, measured: bool) -> FlowSpec {
        let mut s = FlowSpec::new(FlowId(id), NodeId(0), NodeId(1), 1000, SimTime::ZERO);
        s.measured = measured;
        s
    }

    fn ctrl() -> Packet {
        Packet::ctrl(FlowId(0), NodeId(0), NodeId(1), Box::new(0u8))
    }

    /// Charge `fate` at `node` at time zero.
    fn charge(st: &mut StatsCollector, pkt: &Packet, fate: Fate, node: NodeId) {
        st.note_fate(pkt, fate, node, SimTime::ZERO);
    }

    #[test]
    fn completion_tracking() {
        let mut st = StatsCollector::new();
        st.register_flow(&spec(0, true));
        st.register_flow(&spec(1, true));
        st.register_flow(&spec(2, false)); // background
        assert!(!st.all_measured_complete());
        st.flow_completed(FlowId(0), SimTime::from_millis(1));
        assert!(!st.all_measured_complete());
        st.flow_completed(FlowId(1), SimTime::from_millis(2));
        assert!(st.all_measured_complete());
        assert_eq!(
            st.flow(FlowId(0)).unwrap().fct(),
            Some(SimDuration::from_millis(1))
        );
    }

    #[test]
    fn double_completion_is_idempotent() {
        let mut st = StatsCollector::new();
        st.register_flow(&spec(0, true));
        st.flow_completed(FlowId(0), SimTime::from_millis(1));
        st.flow_completed(FlowId(0), SimTime::from_millis(9));
        assert_eq!(
            st.flow(FlowId(0)).unwrap().completed,
            Some(SimTime::from_millis(1))
        );
        assert_eq!(st.completed_measured(), 1);
    }

    #[test]
    fn deadline_accounting() {
        let mut st = StatsCollector::new();
        let s = spec(0, true).with_deadline(SimDuration::from_millis(5));
        st.register_flow(&s);
        // Not yet complete: counts as missed.
        assert_eq!(st.flow(FlowId(0)).unwrap().met_deadline(), Some(false));
        st.flow_completed(FlowId(0), SimTime::from_millis(4));
        assert_eq!(st.flow(FlowId(0)).unwrap().met_deadline(), Some(true));
    }

    #[test]
    fn loss_rate() {
        let mut st = StatsCollector::new();
        st.register_flow(&spec(0, true));
        for _ in 0..9 {
            st.note_data_enqueued();
        }
        let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, 1460);
        charge(&mut st, &pkt, Fate::Dropped, NodeId(2));
        assert!((st.data_loss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(st.flow(FlowId(0)).unwrap().drops, 1);
    }

    #[test]
    fn ack_drops_do_not_count_as_data_loss() {
        let mut st = StatsCollector::new();
        let ack = Packet::ack(FlowId(0), NodeId(1), NodeId(0), 0);
        charge(&mut st, &ack, Fate::Dropped, NodeId(2));
        assert_eq!(st.data_pkts_dropped, 0);
    }

    #[test]
    fn aborts_record_reason_and_per_host_tally() {
        let mut st = StatsCollector::new();
        st.register_flow(&spec(0, true));
        st.register_flow(&spec(1, true));
        st.flow_aborted(FlowId(0), SimTime::from_millis(1), AbortReason::HostCrash);
        st.flow_aborted(
            FlowId(1),
            SimTime::from_millis(2),
            AbortReason::MaxRtosExceeded,
        );
        // A second abort of the same flow must not double-count.
        st.flow_aborted(FlowId(0), SimTime::from_millis(3), AbortReason::HostCrash);
        let rec = st.flow(FlowId(0)).unwrap();
        assert!(rec.aborted);
        assert_eq!(rec.abort_reason, Some(AbortReason::HostCrash));
        assert_eq!(rec.completed, Some(SimTime::from_millis(1)));
        assert_eq!(st.aborts_on(NodeId(0)), 2, "both flows originate at n0");
        assert_eq!(st.aborts_on(NodeId(1)), 0);
        assert!(st.all_measured_complete(), "aborts terminate the run");
    }

    #[test]
    fn corruption_has_its_own_term_and_per_host_tally() {
        let mut st = StatsCollector::new();
        st.register_flow(&spec(0, true));
        let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, 1460);
        charge(&mut st, &pkt, Fate::Corrupted, NodeId(1));
        charge(&mut st, &pkt, Fate::Corrupted, NodeId(1));
        assert_eq!(st.data_pkts_corrupted, 2);
        assert_eq!(st.data_pkts_dropped, 0, "corruption is not a queue drop");
        assert_eq!(st.corrupted_on(NodeId(1)), 2);
        assert_eq!(st.corrupted_on(NodeId(0)), 0);
        assert_eq!(st.flow(FlowId(0)).unwrap().drops, 2, "sender sees loss");
    }

    #[test]
    fn ctrl_shedding_has_per_node_tallies_and_peaks() {
        let mut st = StatsCollector::new();
        st.note_ctrl_processed(NodeId(3));
        charge(&mut st, &ctrl(), Fate::Processed, NodeId(3));
        st.note_ctrl_processed(NodeId(5));
        charge(&mut st, &ctrl(), Fate::Shed, NodeId(3));
        st.note_ctrl_epoch_depth(NodeId(3), 7);
        st.note_ctrl_epoch_depth(NodeId(3), 4);
        assert_eq!(st.ctrl_msgs_processed, 3);
        assert_eq!(st.ctrl_msgs_shed, 1);
        assert_eq!(st.node(NodeId(3)).ctrl_processed, 2);
        assert_eq!(st.node(NodeId(5)).ctrl_processed, 1);
        assert_eq!(st.ctrl_shed_on(NodeId(3)), 1);
        assert_eq!(st.ctrl_shed_on(NodeId(5)), 0);
        assert_eq!(st.node(NodeId(3)).ctrl_peak_epoch, 7, "peak, not last");
        assert_eq!(
            st.ctrl_processed_by_node().collect::<Vec<_>>(),
            [(NodeId(3), 2), (NodeId(5), 1)]
        );
    }

    /// The dense per-node table against the keyed-map model it replaced:
    /// random `note_*` sequences (zero-depth epochs and ids far past the
    /// table's current length included) must read back identically per
    /// node, in the global totals, and through the iterators, which
    /// yield exactly the model's non-zero entries in node-id order.
    #[test]
    fn dense_node_table_matches_a_map_model() {
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from_u64(0x57a7_0000 + seed);
            let mut st = StatsCollector::new();
            let mut model = BTreeMap::<_, NodeCounters>::new();
            for f in 0..40 {
                let src = NodeId(rng.gen_below(12) as u32);
                let dst = NodeId(src.0 + 1);
                st.register_flow(&FlowSpec::new(FlowId(f), src, dst, 1000, SimTime::ZERO));
            }
            for _ in 0..2_000 {
                // Mostly a small id range (so tallies accumulate), with
                // occasional jumps far beyond anything seen so far.
                let far = rng.gen_below(50) == 0;
                let node = NodeId(if far {
                    1_000 + rng.gen_below(9_000)
                } else {
                    rng.gen_below(24)
                } as u32);
                let row = model.entry(node).or_default();
                match rng.gen_below(7) {
                    0 => {
                        let pkt = Packet::data(FlowId(0), NodeId(0), node, 0, 1460);
                        charge(&mut st, &pkt, Fate::Corrupted, node);
                        row.corrupted += 1;
                    }
                    1 => {
                        let flow = FlowId(rng.gen_below(40));
                        let rec = st.flow(flow).unwrap();
                        let (src, fresh) = (rec.spec.src, rec.completed.is_none());
                        st.flow_aborted(flow, SimTime::from_millis(1), AbortReason::HostCrash);
                        model.entry(src).or_default().aborts += fresh as u64;
                    }
                    2 => {
                        charge(&mut st, &ctrl(), Fate::Processed, node);
                        row.ctrl_processed += 1;
                    }
                    3 => {
                        charge(&mut st, &ctrl(), Fate::Shed, node);
                        row.ctrl_shed += 1;
                    }
                    4 => {
                        let depth = rng.gen_below(4) * rng.gen_below(100);
                        st.note_ctrl_epoch_depth(node, depth);
                        row.ctrl_peak_epoch = row.ctrl_peak_epoch.max(depth);
                    }
                    5 => {
                        st.note_arb_pruned(node);
                        row.arb_pruned += 1;
                    }
                    _ => {
                        st.note_arb_climbed(node);
                        row.arb_climbed += 1;
                    }
                }
            }
            let column = |f: fn(&NodeCounters) -> u64| -> Vec<(NodeId, u64)> {
                let all = model.iter().map(|(&n, c)| (n, f(c)));
                all.filter(|&(_, v)| v != 0).collect()
            };
            let total = |f: fn(&NodeCounters) -> u64| -> u64 { model.values().map(f).sum() };
            assert_eq!(st.data_pkts_corrupted, total(|c| c.corrupted));
            assert_eq!(st.ctrl_msgs_processed, total(|c| c.ctrl_processed));
            assert_eq!(st.ctrl_msgs_shed, total(|c| c.ctrl_shed));
            assert_eq!(
                st.ctrl_processed_by_node().collect::<Vec<_>>(),
                column(|c| c.ctrl_processed)
            );
            assert_eq!(
                st.ctrl_peak_epoch_by_node().collect::<Vec<_>>(),
                column(|c| c.ctrl_peak_epoch)
            );
            assert_eq!(
                st.arb_pruned_by_node().collect::<Vec<_>>(),
                column(|c| c.arb_pruned)
            );
            assert_eq!(
                st.arb_climbed_by_node().collect::<Vec<_>>(),
                column(|c| c.arb_climbed)
            );
            // Every touched node and its neighbour — untouched, or one
            // past the end of the table.
            for probe in model.keys().flat_map(|n| [*n, NodeId(n.0 + 1)]) {
                let want = model.get(&probe).copied().unwrap_or_default();
                assert_eq!(st.node(probe), want, "seed {seed} node {probe}");
                assert_eq!(st.corrupted_on(probe), want.corrupted);
                assert_eq!(st.aborts_on(probe), want.aborts);
                assert_eq!(st.ctrl_shed_on(probe), want.ctrl_shed);
            }
        }
    }

    #[test]
    fn ctrl_drops_and_blackholes_have_their_own_terms() {
        let mut st = StatsCollector::new();
        let ctrl = ctrl();
        charge(&mut st, &ctrl, Fate::Dropped, NodeId(2));
        charge(&mut st, &ctrl, Fate::Blackholed, NodeId(2));
        assert_eq!(st.ctrl_pkts_dropped, 1);
        assert_eq!(st.ctrl_pkts_blackholed, 1);
        assert_eq!(st.data_pkts_dropped, 0);
        assert_eq!(st.data_pkts_blackholed, 0);
        assert_eq!(st.blackhole_pkts, 1);
        assert_eq!(st.node(NodeId(2)).blackholed, 1);
        charge(&mut st, &ctrl, Fate::Corrupted, NodeId(1));
        charge(&mut st, &ctrl, Fate::LostToCrash, NodeId(1));
        charge(&mut st, &ctrl, Fate::Unattended, NodeId(1));
        assert_eq!(st.ctrl_pkts_corrupted, 1);
        assert_eq!(st.ctrl_lost_to_crash, 1);
        assert_eq!(st.ctrl_unattended, 1);
    }

    /// The laws as `run_all` prints them, and the ledger behind them:
    /// every counter a plane's law names reads back what `note_fate`
    /// charged to it, and nothing else moves.
    #[test]
    fn laws_render_from_the_declaration_and_read_back_their_counters() {
        assert_eq!(
            Plane::Data.law(),
            "injected = delivered + dropped + corrupted + blackholed + lost-to-crash + in-network"
        );
        assert_eq!(
            Plane::Ctrl.law(),
            "sent = processed + shed + dropped + corrupted + blackholed + lost-to-crash + \
             unattended + in-network"
        );
        let (data, ctrl) = (
            Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, 1460),
            ctrl(),
        );
        for plane in Plane::ALL {
            let pkt = if plane == Plane::Data { &data } else { &ctrl };
            for &fate in Fate::ALL {
                let mut st = StatsCollector::new();
                charge(&mut st, pkt, fate, NodeId(1));
                for &other in Fate::ALL {
                    let want = (other == fate && fate.in_plane(plane)) as u64;
                    assert_eq!(st.charged(plane, other), want, "{plane:?} {fate:?}");
                }
            }
        }
    }

    #[test]
    fn no_flows_means_not_complete() {
        let st = StatsCollector::new();
        assert!(!st.all_measured_complete());
        assert_eq!(st.data_loss_rate(), 0.0);
    }
}
