//! The simulation façade: owns the network, the scheduler and the stats,
//! and drives the event loop.

use crate::engine::{Ctx, EngineKind, Scheduler};
use crate::event::{EventKind, ScheduledEvent};
use crate::fault::{FaultEvent, FaultPlan};
use crate::flow::FlowSpec;
use crate::ids::NodeId;
use crate::invariants::{
    Books, InNetwork, Invariant, InvariantConfig, InvariantMonitor, InvariantReport,
    ProgressEvidence, Violation,
};
use crate::node::Node;
use crate::port::Port;
use crate::stats::{Plane, StatsCollector};
use crate::time::SimTime;
use crate::topology::{Network, Topology};

/// Bounds on a simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimit {
    /// Stop once the clock passes this time.
    pub max_time: Option<SimTime>,
    /// Stop as soon as every measured flow has completed (the usual
    /// experiment termination: background flows never finish).
    pub stop_when_measured_done: bool,
}

impl RunLimit {
    /// Run until all measured flows complete, with a time-limit backstop.
    pub fn until_measured_done(backstop: SimTime) -> RunLimit {
        RunLimit {
            max_time: Some(backstop),
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
    ///
    /// Every port runs the one-event hop until a plan names it in a fault
    /// that reads the completion (see [`Simulation::inject_faults`]).
    pub fn with_engine(net: Network, engine: EngineKind) -> Simulation {
        let mut nodes = net.nodes;
        for port in nodes.iter_mut().flat_map(Node::ports_mut) {
            port.set_one_event_hop(true);
        }
        Simulation {
            sched: Scheduler::with_engine(engine),
            nodes,
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

    /// Mutable access to a node, for post-build wiring (installing node
    /// processes) and for test inspection.
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
    /// A port the plan takes down or degrades goes back to the two-event
    /// hop here, for the whole run: those two faults act on a packet when
    /// its serialization completes.
    ///
    /// Panics if the plan names a link that does not exist, or if such a
    /// fault lands on a port before the one-event serialization it is in
    /// the middle of ends.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        for &(at, event) in plan.events() {
            let reads_completion = matches!(
                event,
                FaultEvent::LinkDown { .. } | FaultEvent::LinkDegrade { .. }
            );
            for (node, port) in event.resolve(&self.topo) {
                if let (true, Some(id)) = (reads_completion, port) {
                    let port = &mut self.nodes[node.index()].ports_mut()[id.index()];
                    // A one-event serialization under way has queued its
                    // `Deliver`: a fault landing before it ends misses it.
                    if let Some(done) = port.one_event_busy_until(&self.sched) {
                        assert!(
                            at >= done,
                            "port {node}:{id} is mid one-event serialization until {done}, \
                             past its planned fault at {at}"
                        );
                    }
                    port.set_one_event_hop(false);
                }
                self.sched
                    .schedule_at(at, node, EventKind::fault(event, port));
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
            let Some(ScheduledEvent { target, kind, .. }) = self.sched.pop_due(max_time) else {
                // Whatever is still pending lies past the limit.
                return if self.sched.pending() == 0 {
                    RunOutcome::Drained
                } else {
                    RunOutcome::TimeLimit
                };
            };
            self.stats.events_executed += 1;
            self.stats.events_by_kind[kind.index()] += 1;
            if let Some(mon) = &mut self.invariants {
                if mon.on_event() {
                    Self::scan_queues(&self.nodes, self.sched.now(), mon);
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

    /// Turn on online invariant monitoring (queue bounds, scanned every
    /// `cfg.check_interval_events` events). Violations accumulate and are
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
        let mut in_net = [InNetwork::default(); Plane::ALL.len()];
        // Arena balance: every outstanding arena box must be somewhere we
        // can see — held by a port (queued or serializing) or riding a
        // pending Deliver event. Packets of *all* kinds count here, unlike
        // the per-plane conservation terms below.
        let mut held_in_ports = 0u64;
        Self::for_each_port(&self.nodes, &mut |node, port| {
            port.for_each_held(&mut |pkt| {
                evidence.note_flow(pkt.flow);
                held_in_ports += 1;
                if let Some(plane) = Plane::of(pkt.kind) {
                    in_net[plane as usize].in_ports += 1;
                }
            });
            violations.extend(cfg.queue_violation(now, node, port.queue_len_pkts()));
        });
        let mut on_wire_total = 0u64;
        for (_, _, kind) in self.sched.pending_events() {
            evidence.note_event(kind);
            if let EventKind::Deliver(pkt) = kind {
                on_wire_total += 1;
                if let Some(plane) = Plane::of(pkt.kind) {
                    in_net[plane as usize].on_wire += 1;
                }
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

        for plane in Plane::ALL {
            Books::of(&self.stats, plane, in_net[plane as usize]).check(now, &mut violations);
        }

        for rec in self.stats.flows() {
            if rec.completed.is_none() && !evidence.can_progress(rec.spec.id) {
                violations.push(Violation {
                    at: now,
                    invariant: Invariant::StuckFlow,
                    detail: format!(
                        "{} ({} -> {}) incomplete with no pending event or packet \
                         that could advance it",
                        rec.spec.id, rec.spec.src, rec.spec.dst
                    ),
                });
            }
        }

        InvariantReport { violations }
    }

    /// Periodic online scan: flag any port whose queue exceeds the bound.
    fn scan_queues(nodes: &[Node], now: SimTime, mon: &mut InvariantMonitor) {
        Self::for_each_port(nodes, &mut |node, port| {
            let found = mon.cfg.queue_violation(now, node, port.queue_len_pkts());
            mon.violations.extend(found);
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
