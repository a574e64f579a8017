//! The simulation façade: owns the network, the scheduler and the stats,
//! and drives the event loop.

use crate::engine::{Ctx, EngineKind, NoEvent, Scheduler};
use crate::event::EventKind;
use crate::fault::FaultPlan;
use crate::flow::FlowSpec;
use crate::ids::NodeId;
use crate::invariants::{
    is_ctrl_deliver, is_data_deliver, ConservationTerms, CtrlConservationTerms, InNetwork,
    Invariant, InvariantConfig, InvariantMonitor, InvariantReport, ProgressEvidence, Violation,
};
use crate::node::Node;
use crate::packet::PacketKind;
use crate::port::Port;
use crate::stats::StatsCollector;
use crate::time::SimTime;
use crate::topology::{Network, Topology};

/// Bounds on a simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimit {
    /// Stop once the clock passes this time.
    pub max_time: Option<SimTime>,
    /// Stop after this many events.
    pub max_events: Option<u64>,
    /// Stop as soon as every measured flow has completed (the usual
    /// experiment termination: background flows never finish).
    pub stop_when_measured_done: bool,
}

impl RunLimit {
    /// Run until all measured flows complete, with a time-limit backstop.
    pub fn until_measured_done(backstop: SimTime) -> RunLimit {
        RunLimit {
            max_time: Some(backstop),
            max_events: None,
            stop_when_measured_done: true,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// All measured flows completed.
    MeasuredComplete,
    /// The time limit was hit.
    TimeLimit,
    /// The event limit was hit.
    EventLimit,
}

/// A runnable simulation.
pub struct Simulation {
    sched: Scheduler,
    nodes: Vec<Node>,
    topo: Topology,
    stats: StatsCollector,
    invariants: Option<InvariantMonitor>,
}

impl Simulation {
    /// Wrap a constructed network.
    pub fn new(net: Network) -> Simulation {
        Simulation::with_engine(net, EngineKind::Wheel)
    }

    /// Wrap a constructed network on an explicit scheduler engine (the
    /// heap-vs-wheel differential; wiring schedules timers at build
    /// time, so the engine is fixed here and not swappable later).
    pub fn with_engine(net: Network, engine: EngineKind) -> Simulation {
        Simulation {
            sched: Scheduler::with_engine(engine),
            nodes: net.nodes,
            topo: net.topo,
            stats: StatsCollector::new(),
            invariants: None,
        }
    }

    /// Topology metadata.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Measurement results.
    pub fn stats(&self) -> &StatsCollector {
        &self.stats
    }

    /// Install a trace sink (see [`crate::trace`]); events start flowing
    /// from the next processed event.
    pub fn set_tracer(&mut self, tracer: Box<dyn crate::trace::TraceSink>) {
        self.stats.set_tracer(tracer);
    }

    /// Mutable access to a node, for post-build wiring (installing switch
    /// plugins, host services) and for test inspection.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterate all nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The scheduler, for wiring that needs to seed events (e.g. periodic
    /// control-plane timers) before the run starts.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.sched
    }

    /// Shared access to the scheduler (clock, pending-event counts).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Register a flow and schedule its start at `spec.start`.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert!(
            matches!(self.nodes[spec.src.index()], Node::Host(_)),
            "flow source {} is not a host",
            spec.src
        );
        assert!(
            matches!(self.nodes[spec.dst.index()], Node::Host(_)),
            "flow destination {} is not a host",
            spec.dst
        );
        assert_ne!(spec.src, spec.dst, "flow to self");
        self.stats.register_flow(&spec);
        let src = spec.src;
        let at = spec.start;
        self.sched.schedule_at(at, src, EventKind::flow_start(spec));
    }

    /// Register many flows at once: [`Simulation::add_flow`] per spec.
    pub fn add_flows<I>(&mut self, flows: I)
    where
        I: IntoIterator<Item = FlowSpec>,
    {
        for spec in flows {
            self.add_flow(spec);
        }
    }

    /// Schedule every event of a [`FaultPlan`], resolved against the
    /// topology by [`crate::fault::FaultEvent::resolve`] (both directions
    /// of a link fail and recover together; node events go to the named
    /// node's control plane). Called before (or between)
    /// [`Simulation::run`] calls; injection uses the ordinary event queue,
    /// so determinism is preserved.
    ///
    /// Panics if the plan names a link that does not exist.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        for &(at, event) in plan.events() {
            for (node, directive) in event.resolve(&self.topo) {
                self.sched
                    .schedule_at(at, node, EventKind::Fault(directive));
            }
        }
    }

    /// Turn on health-aware ECMP routing on every switch: flows are
    /// re-hashed off live-but-degraded siblings (per-port EWMA health
    /// below [`crate::port::HEALTHY_THRESHOLD`]) and return once the
    /// port's health recovers. Off by default — static `route_live`
    /// keeps traces of healthy runs byte-identical to earlier seeds.
    pub fn enable_health_aware_routing(&mut self) {
        for node in &mut self.nodes {
            if let Node::Switch(s) = node {
                s.set_health_aware(true);
            }
        }
    }

    /// Run the event loop until a limit is reached or the queue drains.
    ///
    /// Flushes the trace sink (if any) before returning, so buffered
    /// sinks like [`crate::trace::TextTracer`] are readable at every
    /// point a caller regains control.
    pub fn run(&mut self, limit: RunLimit) -> RunOutcome {
        let outcome = self.run_inner(limit);
        self.stats.flush_tracer();
        self.stats.arena = self.sched.arena().stats();
        if outcome == RunOutcome::Drained {
            // Nothing is queued, in flight, or on the wire anymore, so
            // every arena packet must have been released: a nonzero count
            // here is a leaked box (a drop/consume path that forgot to
            // return it), which would silently defeat the recycling.
            assert_eq!(
                self.sched.arena().outstanding(),
                0,
                "packet arena leak: {} packets still outstanding after a drained run \
                 ({:?})",
                self.sched.arena().outstanding(),
                self.sched.arena().stats(),
            );
        }
        outcome
    }

    fn run_inner(&mut self, limit: RunLimit) -> RunOutcome {
        let max_time = limit.max_time.unwrap_or(SimTime::MAX);
        loop {
            if limit.stop_when_measured_done && self.stats.all_measured_complete() {
                return RunOutcome::MeasuredComplete;
            }
            if let Some(max_ev) = limit.max_events {
                if self.stats.events_executed >= max_ev {
                    return RunOutcome::EventLimit;
                }
            }
            let (target, kind) = match self.sched.pop_until(max_time) {
                Ok(event) => event,
                Err(NoEvent::PastLimit) => return RunOutcome::TimeLimit,
                Err(NoEvent::Drained) => return RunOutcome::Drained,
            };
            self.stats.events_executed += 1;
            self.stats.events_by_kind[kind.index()] += 1;
            if let Some(mon) = &mut self.invariants {
                let now = self.sched.now();
                if mon.on_event(now) {
                    Self::scan_queues(&self.nodes, now, mon);
                }
            }
            let mut ctx = Ctx {
                node: target,
                sched: &mut self.sched,
                stats: &mut self.stats,
            };
            self.nodes[target.index()].handle(kind, &mut ctx);
        }
    }

    /// Turn on online invariant monitoring (clock monotonicity every
    /// event, queue bounds periodically). Violations accumulate and are
    /// returned by [`Simulation::check_invariants`].
    pub fn enable_invariants(&mut self, cfg: InvariantConfig) {
        self.invariants = Some(InvariantMonitor::new(cfg));
    }

    /// Audit the global invariants (see [`crate::invariants`]): packet
    /// conservation, no stuck flow, queue bounds — plus anything the
    /// online monitor accumulated during [`Simulation::run`]. Usually
    /// called after a run stops; safe to call at any point, with or
    /// without [`Simulation::enable_invariants`].
    pub fn check_invariants(&self) -> InvariantReport {
        let now = self.sched.now();
        let cfg = self.invariants.as_ref().map(|m| m.cfg).unwrap_or_default();
        let mut violations: Vec<Violation> = self
            .invariants
            .as_ref()
            .map(|m| m.violations.clone())
            .unwrap_or_default();

        // One walk over ports and pending events feeds both the
        // conservation count and the stuck-flow evidence.
        let mut evidence = ProgressEvidence::default();
        let mut in_net = InNetwork::default();
        let mut ctrl_in_net = InNetwork::default();
        // Arena balance: every outstanding arena box must be somewhere we
        // can see — held by a port (queued or serializing) or riding a
        // pending Deliver event. Packets of *all* kinds count here, unlike
        // the per-plane conservation terms below.
        let mut held_in_ports = 0u64;
        Self::for_each_port(&self.nodes, &mut |node, port| {
            port.for_each_held(&mut |pkt| {
                evidence.note_flow(pkt.flow);
                held_in_ports += 1;
                match pkt.kind {
                    PacketKind::Data => in_net.in_ports += 1,
                    PacketKind::Ctrl => ctrl_in_net.in_ports += 1,
                    _ => {}
                }
            });
            let len = port.queue_len_pkts();
            if len > cfg.max_queue_pkts {
                violations.push(Violation {
                    at: now,
                    invariant: Invariant::QueueBound,
                    detail: format!(
                        "queue on {node} holds {len} pkts (bound {})",
                        cfg.max_queue_pkts
                    ),
                });
            }
        });
        let mut on_wire_total = 0u64;
        for (_, target, kind) in self.sched.pending_events() {
            evidence.note_event(target, kind);
            if matches!(kind, EventKind::Deliver(_)) {
                on_wire_total += 1;
            }
            if is_data_deliver(kind) {
                in_net.on_wire += 1;
            }
            if is_ctrl_deliver(kind) {
                ctrl_in_net.on_wire += 1;
            }
        }

        let outstanding = self.sched.arena().outstanding();
        if outstanding != (held_in_ports + on_wire_total) as i64 {
            violations.push(Violation {
                at: now,
                invariant: Invariant::ArenaBalance,
                detail: format!(
                    "arena outstanding {outstanding} != {held_in_ports} packets held \
                     in ports + {on_wire_total} on the wire",
                ),
            });
        }

        ConservationTerms {
            injected: self.stats.data_pkts_injected,
            delivered: self.stats.data_pkts_delivered,
            dropped: self.stats.data_pkts_dropped,
            corrupted: self.stats.data_pkts_corrupted,
            blackholed: self.stats.data_pkts_blackholed,
            consumed: self.stats.data_pkts_consumed,
            lost_to_crash: self.stats.data_pkts_lost_to_crash,
            in_network: in_net,
        }
        .check(now, &mut violations);

        CtrlConservationTerms {
            sent: self.stats.ctrl_pkts,
            processed: self.stats.ctrl_msgs_processed,
            shed: self.stats.ctrl_msgs_shed,
            dropped: self.stats.ctrl_pkts_dropped,
            corrupted: self.stats.ctrl_pkts_corrupted,
            blackholed: self.stats.ctrl_pkts_blackholed,
            lost_to_crash: self.stats.ctrl_lost_to_crash,
            unattended: self.stats.ctrl_unattended,
            in_network: ctrl_in_net,
        }
        .check(now, &mut violations);

        for rec in self.stats.flows() {
            if rec.completed.is_none()
                && !evidence.can_progress(rec.spec.id, rec.spec.src, rec.spec.dst)
            {
                violations.push(Violation {
                    at: now,
                    invariant: Invariant::StuckFlow,
                    detail: format!(
                        "{} ({} -> {}) incomplete with no pending event, packet, \
                         or control timer that could advance it",
                        rec.spec.id, rec.spec.src, rec.spec.dst
                    ),
                });
            }
        }

        InvariantReport { violations }
    }

    /// Periodic online scan: flag any port whose queue exceeds the bound.
    fn scan_queues(nodes: &[Node], now: SimTime, mon: &mut InvariantMonitor) {
        let bound = mon.cfg.max_queue_pkts;
        Self::for_each_port(nodes, &mut |node, port| {
            let len = port.queue_len_pkts();
            if len > bound {
                mon.note_queue_violation(now, node, len);
            }
        });
    }

    /// Visit every output port in the network.
    fn for_each_port(nodes: &[Node], f: &mut dyn FnMut(NodeId, &Port)) {
        for node in nodes {
            match node {
                Node::Host(h) => f(h.id(), h.port()),
                Node::Switch(s) => {
                    for port in s.ports() {
                        f(s.id(), port);
                    }
                }
            }
        }
    }
}

impl core::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.sched.pending())
            .finish()
    }
}
