//! Switches.
//!
//! A [`Switch`] forwards packets between its output ports using a static
//! forwarding table (computed by the topology builder). Protocol crates can
//! install a [`Process`] to participate in forwarding:
//!
//! * PDQ's per-link flow arbitration rewrites scheduling headers on
//!   transiting packets;
//! * PASE's control-plane arbitrators are co-located with switches and
//!   consume/emit control packets addressed to the switch itself.
//!
//! The data plane itself stays dumb, per the paper's design principle that
//! in-network prioritization should "keep the data plane simple and
//! efficient": all scheduling policy lives in the port queue disciplines.

use crate::engine::Ctx;
use crate::event::EventKind;
use crate::fault::FaultEvent;
use crate::ids::{FlowId, NodeId, PortId};
use crate::node::{ProcIo, Process};
use crate::packet::{Packet, PacketKind};
use crate::port::Port;
use crate::rng::mix64;
use crate::stats::Fate;
use crate::time::Rate;

/// A compact per-switch forwarding table.
///
/// Destinations are dense node ids, so the table is run-length (interval)
/// encoded over the id space: consecutive destinations that share the same
/// equal-cost port set collapse into one interval. On a k-ary fat-tree
/// with rack-major host ids this turns the naive ~10M switch×destination
/// entries at k=32 into a few hundred intervals per switch (every "all
/// other pods" region is one interval pointing at the full uplink set),
/// while lookup stays a single binary search over the interval starts
/// followed by one record read: a single next hop (every down-route) is
/// the record itself, an equal-cost set is a slice of a shared,
/// deduplicated pool.
///
/// Destinations below the first interval start, or covered by an interval
/// with no hops, have no route (the switch blackholes them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fib {
    /// Sorted interval start ids; interval `i` covers destinations
    /// `[starts[i], starts[i+1])` (the last interval runs to the end of
    /// the id space).
    starts: Vec<u32>,
    /// Each interval's next hops (parallel to `starts`).
    hops: Vec<Hops>,
    /// Deduplicated equal-cost port sets of two or more ports,
    /// concatenated.
    pool: Vec<PortId>,
}

/// The next hops of one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hops {
    /// The port itself when `len == 1`; otherwise the set's offset in
    /// [`Fib::pool`].
    first: PortId,
    /// Number of equal-cost ports (0 = no route).
    len: u32,
}

impl Fib {
    /// The equal-cost ports toward `dst` (empty when there is no route).
    #[inline]
    pub fn entry(&self, dst: NodeId) -> &[PortId] {
        let id = dst.0;
        // Index of the last interval starting at or before `id`.
        match self.starts.partition_point(|&s| s <= id) {
            0 => &[],
            i => self.interval_ports(i - 1),
        }
    }

    /// The port set of interval `i`.
    #[inline]
    fn interval_ports(&self, i: usize) -> &[PortId] {
        let hops = &self.hops[i];
        match hops.len {
            0 => &[],
            1 => std::slice::from_ref(&hops.first),
            len => &self.pool[hops.first.index()..][..len as usize],
        }
    }

    /// Number of run-length intervals (compactness diagnostic).
    pub fn intervals(&self) -> usize {
        self.starts.len()
    }

    /// Approximate heap footprint in bytes (compactness diagnostic).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.starts.len() * size_of::<u32>()
            + self.hops.len() * size_of::<Hops>()
            + self.pool.len() * size_of::<PortId>()
    }

    /// Build a table from one dense row per destination id (row `d` is
    /// the port set for destination `NodeId(d)`). Convenience for tests
    /// and small hand-built switches; the topology builder streams rows
    /// through [`FibBuilder`] instead.
    pub fn from_rows<R: AsRef<[PortId]>>(rows: &[R]) -> Fib {
        let mut b = FibBuilder::new();
        for row in rows {
            b.push(row.as_ref());
        }
        b.finish()
    }
}

/// Streaming builder for [`Fib`]: feed destination rows in ascending
/// dense-id order (one [`FibBuilder::push`] or
/// [`FibBuilder::continue_run`] per id, starting with a push at 0) and
/// the builder run-length-encodes them on the fly, so the dense table
/// never exists in memory.
#[derive(Debug, Default)]
pub struct FibBuilder {
    fib: Fib,
    /// The destination id the next `push` describes.
    next_dst: u32,
    /// Build-time interning of multi-port sets → pool offset.
    interned: std::collections::HashMap<Vec<PortId>, u32>,
}

impl FibBuilder {
    /// An empty builder (next row pushed is destination id 0).
    pub fn new() -> FibBuilder {
        FibBuilder::default()
    }

    /// Append the port set for the next destination id.
    pub fn push(&mut self, ports: &[PortId]) {
        let dst = self.next_dst;
        self.next_dst += 1;
        // Same set as the previous destination: the run continues.
        if dst > 0 && self.fib.interval_ports(self.fib.hops.len() - 1) == ports {
            return;
        }
        let first = match ports {
            [] => PortId(0),
            [only] => *only,
            set => PortId(match self.interned.get(set) {
                Some(&offset) => offset,
                None => {
                    let offset = u32::try_from(self.fib.pool.len()).expect("port pool overflow");
                    self.fib.pool.extend_from_slice(set);
                    self.interned.insert(set.to_vec(), offset);
                    offset
                }
            }),
        };
        let len = u32::try_from(ports.len()).expect("port set overflow");
        self.fib.starts.push(dst);
        self.fib.hops.push(Hops { first, len });
    }

    /// The next destination id shares the previous one's port set: its
    /// run continues, with no row to build or compare.
    pub fn continue_run(&mut self) {
        debug_assert!(self.next_dst > 0, "no run to continue");
        self.next_dst += 1;
    }

    /// Finish the table.
    pub fn finish(self) -> Fib {
        self.fib
    }
}

/// Failure-aware ECMP selection: hash `flow` (salted per switch) over the
/// *live* ports of a FIB entry, so flows re-hash onto surviving equal-cost
/// siblings while a link is down and fall back to the original spread once
/// it recovers. With every port up and a zero salt this reduces to
/// `entry[mix64(flow) % entry.len()]`, the historical healthy-path
/// behaviour. Returns `None` when no next hop survives (the caller records
/// a blackhole).
///
/// The salt decorrelates ECMP decisions across switch tiers: with a
/// shared hash, the ToR and the aggregation switch on a fat-tree path
/// would always agree on the same uplink index, collapsing the (k/2)²
/// core paths to k/2. Existing topologies keep salt 0, so their traces
/// stay byte-identical.
///
/// In health-aware mode the eligible set shrinks further to live ports
/// whose EWMA health is above [`crate::port::HEALTHY_THRESHOLD`], pushing
/// flows off gray-failing (degraded but up) siblings; they return once
/// clean traffic earns the port's health back. When *no* live port is
/// healthy, selection falls back to all live ports — a degraded path
/// beats a blackhole.
///
/// `all_up` is the switch's own record that none of its ports is down.
/// While it holds and health is not consulted, every port of the entry
/// is eligible and the choice needs no port state at all — the common
/// case by far, and the one that must not pay a load per ECMP sibling.
#[inline]
fn route_live(
    entry: &[PortId],
    ports: &[Port],
    flow: FlowId,
    salt: u64,
    health_aware: bool,
    all_up: bool,
) -> Option<PortId> {
    if all_up && !health_aware {
        return match entry {
            [] => None,
            [only] => Some(*only),
            _ => Some(entry[mix64(flow.0 ^ salt) as usize % entry.len()]),
        };
    }
    let (eligible, n) = eligibility(entry, ports, health_aware);
    if n == 0 {
        return None;
    }
    let k = mix64(flow.0 ^ salt) as usize % n;
    entry
        .iter()
        .filter(|p| eligible(&ports[p.index()]))
        .nth(k)
        .copied()
}

/// The one ECMP eligibility rule, which [`route_live`] hashes over and
/// [`live_rate`] sums: the ports of `entry` that are up, narrowed to the
/// healthy ones under health-aware routing while any is healthy. Returns
/// the rule and how many ports of `entry` pass it.
fn eligibility(
    entry: &[PortId],
    ports: &[Port],
    health_aware: bool,
) -> (impl Fn(&Port) -> bool, usize) {
    let rule = |healthy_only: bool| move |p: &Port| p.is_up() && (p.is_healthy() || !healthy_only);
    let count = |healthy_only| {
        let eligible = rule(healthy_only);
        entry.iter().filter(|p| eligible(&ports[p.index()])).count()
    };
    let healthy = if health_aware { count(true) } else { 0 };
    match healthy {
        0 => (rule(false), count(false)),
        n => (rule(true), n),
    }
}

/// The capacity [`route_live`] spreads flows over when `entry` is their
/// equal-cost set: the summed rate of the ports it picks among, or zero
/// when no port of `entry` is up.
pub(crate) fn live_rate(entry: &[PortId], ports: &[Port], health_aware: bool) -> Rate {
    let (eligible, _) = eligibility(entry, ports, health_aware);
    let eligible_ports = entry
        .iter()
        .map(|p| &ports[p.index()])
        .filter(|p| eligible(p));
    eligible_ports.fold(Rate::ZERO, |sum, p| sum + p.rate)
}

/// A store-and-forward switch.
pub struct Switch {
    id: NodeId,
    ports: Vec<Port>,
    /// Compact forwarding table over destination node ids.
    fib: Fib,
    pub(crate) process: Option<Box<dyn Process>>,
    /// Whether ECMP selection avoids live-but-degraded ports (per-port
    /// EWMA health). Off by default so healthy-run traces stay
    /// byte-identical to historical seeds; enabled fleet-wide by
    /// [`crate::sim::Simulation::enable_health_aware_routing`].
    health_aware: bool,
    /// XORed into the flow id before the ECMP hash. Zero (the default,
    /// and the value on all pre-fat-tree topologies) reproduces the
    /// historical unsalted selection bit-for-bit; fat-tree builders set a
    /// distinct deterministic salt per switch so successive tiers make
    /// independent equal-cost choices (all (k/2)² core paths get used).
    ecmp_salt: u64,
    /// Whether every port is up, re-derived whenever a fault event
    /// lands (the only way a switch port changes state), so
    /// healthy-fabric routing never reads a port.
    all_ports_up: bool,
}

impl Switch {
    /// Create a switch. The forwarding table must cover every destination
    /// that will ever appear in a packet.
    pub fn new(id: NodeId, ports: Vec<Port>, fib: Fib) -> Switch {
        let all_ports_up = ports.iter().all(Port::is_up);
        Switch {
            id,
            ports,
            fib,
            process: None,
            health_aware: false,
            ecmp_salt: 0,
            all_ports_up,
        }
    }

    /// Toggle health-aware ECMP: route around live-but-degraded ports.
    pub fn set_health_aware(&mut self, on: bool) {
        self.health_aware = on;
    }

    /// Set the per-switch ECMP salt (see the field docs; 0 = historical
    /// unsalted hashing).
    pub fn set_ecmp_salt(&mut self, salt: u64) {
        self.ecmp_salt = salt;
    }

    /// This switch's ECMP salt.
    pub fn ecmp_salt(&self) -> u64 {
        self.ecmp_salt
    }

    /// The switch's forwarding table (for diagnostics).
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// Whether health-aware ECMP is enabled.
    pub fn health_aware(&self) -> bool {
        self.health_aware
    }

    /// This switch's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The switch's output ports (for tracing).
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// The switch's output ports, for the simulation to set their hop.
    pub(crate) fn ports_mut(&mut self) -> &mut [Port] {
        &mut self.ports
    }

    /// Dispatch an event to this switch.
    pub fn handle(&mut self, kind: EventKind, ctx: &mut Ctx<'_>) {
        match kind {
            EventKind::Deliver(pkt) => self.deliver(pkt, ctx),
            EventKind::TxComplete(port) => {
                self.ports[port.index()].on_tx_complete(ctx);
            }
            EventKind::PluginTimer(token) => {
                self.run_process(ctx, |p, io| p.on_timer(token, io));
            }
            EventKind::Fault(fault) => self.apply_fault(*fault, ctx),
            EventKind::FlowStart(_) | EventKind::AgentTimer { .. } => {
                debug_assert!(false, "host event delivered to switch {}", self.id);
            }
        }
    }

    /// Apply an injected fault to this switch: the shared path
    /// ([`FaultEvent::apply`]), the `all_ports_up` upkeep, then the
    /// process.
    fn apply_fault(&mut self, (fault, port): (FaultEvent, Option<PortId>), ctx: &mut Ctx<'_>) {
        fault.apply(self.id, port, &mut self.ports, ctx);
        self.all_ports_up = self.ports.iter().all(Port::is_up);
        self.run_process(ctx, |p, io| p.on_fault(fault, io));
    }

    fn deliver(&mut self, mut pkt: Box<Packet>, ctx: &mut Ctx<'_>) {
        if pkt.dst == self.id {
            if pkt.corrupted {
                // A corrupted arbitration request dies at the switch's
                // checksum like anywhere else; the sender recovers by
                // re-requesting (or falling back) on the missing response.
                ctx.retire(pkt, Fate::Corrupted);
            } else if self.process.is_none() && pkt.kind == PacketKind::Ctrl {
                // Control traffic with no arbitrator to interpret it.
                ctx.retire(pkt, Fate::Unattended);
            } else {
                self.run_process(ctx, move |p, io| {
                    let pkt = io.sim.take_packet(pkt);
                    p.on_ctrl(pkt, io);
                });
            }
            return;
        }
        let Some(out) = self.route(pkt.dst, pkt.flow) else {
            return ctx.retire(pkt, Fate::Blackholed);
        };
        self.run_process(ctx, |p, io| p.on_transit(&mut pkt, out, io));
        self.ports[out.index()].send(pkt, ctx);
    }

    /// Pick the output port toward `dst` for `flow` (ECMP by flow hash
    /// over the live equal-cost ports). `None` when no next hop survives.
    pub fn route(&self, dst: NodeId, flow: FlowId) -> Option<PortId> {
        route_live(
            self.fib.entry(dst),
            &self.ports,
            flow,
            self.ecmp_salt,
            self.health_aware,
            self.all_ports_up,
        )
    }

    /// The switch's one send path, for its process: enter the packet on
    /// the ledger's sent side and route it through the forwarding table.
    /// A packet with no surviving next hop is blackholed on the spot,
    /// never boxed.
    pub(crate) fn emit(&mut self, mut pkt: Packet, sim: &mut Ctx<'_>) {
        let now = sim.now();
        pkt.ts = now;
        sim.stats.note_sent(&pkt);
        let Some(port) = self.route(pkt.dst, pkt.flow) else {
            return sim.stats.note_fate(&pkt, Fate::Blackholed, self.id, now);
        };
        let boxed = sim.alloc_packet(pkt);
        self.ports[port.index()].send(boxed, sim);
    }

    /// Run a closure with the process detached, so it can send through
    /// the rest of the switch via [`ProcIo`].
    fn run_process<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut dyn Process, &mut ProcIo<'_, '_>),
    {
        let Some(mut process) = self.process.take() else {
            return;
        };
        f(process.as_mut(), &mut ProcIo::switch(self, ctx));
        self.process = Some(process);
    }
}

impl core::fmt::Debug for Switch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Switch")
            .field("id", &self.id)
            .field("ports", &self.ports.len())
            .field("has_process", &self.process.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheduler;
    use crate::fault::FaultPlan;
    use crate::queue::DropTailQdisc;
    use crate::sim::{RunLimit, Simulation};
    use crate::stats::StatsCollector;
    use crate::time::{Rate, SimDuration};
    use crate::topology::tests::null_agents;
    use crate::topology::TopologyBuilder;

    /// A switch with two equal-cost ports (to n1 and n2) toward dst n5.
    fn two_way_switch() -> Switch {
        let mk = |i: u32, peer: u32| {
            Port::new(
                PortId(i),
                NodeId(peer),
                Rate::from_gbps(1),
                SimDuration::from_micros(10),
                Box::new(DropTailQdisc::new(16)),
            )
        };
        let mut rows: Vec<Vec<PortId>> = vec![Vec::new(); 6];
        rows[5] = vec![PortId(0), PortId(1)];
        Switch::new(NodeId(10), vec![mk(0, 1), mk(1, 2)], Fib::from_rows(&rows))
    }

    fn routes_used(sw: &Switch) -> std::collections::BTreeSet<PortId> {
        (0..64)
            .filter_map(|f| sw.route(NodeId(5), FlowId(f)))
            .collect()
    }

    /// A fabric in which switch n0 reaches switches n1–n4 on ports 0–3,
    /// and through them host n5 over ports 1 and 3, host n6 over all four
    /// ports and host n7 over port 2 alone. Its own id has no route.
    fn fabric() -> Simulation {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let mids: Vec<NodeId> = (0..4).map(|_| b.add_switch()).collect();
        let hosts = b.add_hosts(3);
        let (pair, far) = (b.add_switch(), b.add_switch());
        let mut link = |x, y| b.connect(x, y, Rate::from_gbps(1), SimDuration::from_micros(10));
        for &m in &mids {
            link(s0, m);
            link(m, far);
        }
        link(mids[1], pair);
        link(mids[3], pair);
        link(hosts[0], pair);
        link(hosts[1], far);
        link(hosts[2], mids[2]);
        let net = b.build(null_agents(), &|_| Box::new(DropTailQdisc::new(16)));
        Simulation::new(net)
    }

    const S0: NodeId = NodeId(0);

    fn switch(sim: &mut Simulation, id: NodeId) -> &mut Switch {
        let crate::node::Node::Switch(sw) = sim.node_mut(id) else {
            panic!("{id} is not a switch")
        };
        sw
    }

    /// Fire `fault` through a plan 1 µs from now and run until the queue
    /// drains.
    fn inject(sim: &mut Simulation, fault: FaultEvent) {
        let mut plan = FaultPlan::new();
        plan.push(sim.now() + SimDuration::from_micros(1), fault);
        sim.inject_faults(&plan);
        sim.run(RunLimit::default());
    }

    /// The s0 end of the link to n1–n4 on `port`.
    fn link_of(port: PortId) -> (NodeId, NodeId) {
        (S0, NodeId(port.0 + 1))
    }

    #[test]
    fn reroute_prunes_dead_ecmp_sibling_and_restores() {
        let mut sim = fabric();
        assert_eq!(
            routes_used(switch(&mut sim, S0)).len(),
            2,
            "healthy ECMP uses both ports"
        );
        let (a, b) = link_of(PortId(1));
        inject(&mut sim, FaultEvent::LinkDown { a, b });
        let live = routes_used(switch(&mut sim, S0));
        assert_eq!(
            live.into_iter().collect::<Vec<_>>(),
            vec![PortId(3)],
            "all flows re-hash onto the surviving sibling"
        );
        inject(&mut sim, FaultEvent::LinkUp { a, b });
        assert_eq!(
            routes_used(switch(&mut sim, S0)).len(),
            2,
            "recovery restores the spread"
        );
        assert_eq!(sim.stats().node(S0).blackholed, 0);
    }

    #[test]
    fn no_live_route_is_a_counted_blackhole() {
        let mut sim = fabric();
        let tracer = crate::trace::TextTracer::new();
        let buf = tracer.buffer();
        sim.set_tracer(Box::new(tracer));
        for port in [PortId(1), PortId(3)] {
            let (a, b) = link_of(port);
            inject(&mut sim, FaultEvent::LinkDown { a, b });
        }
        assert_eq!(switch(&mut sim, S0).route(NodeId(5), FlowId(7)), None);
        let pkt = Packet::data(FlowId(7), NodeId(6), NodeId(5), 0, 1460);
        let at = sim.now() + SimDuration::from_micros(1);
        sim.scheduler_mut().schedule_deliver(at, S0, pkt);
        sim.run(RunLimit::default());
        let stats = sim.stats();
        assert_eq!(stats.node(S0).blackholed, 1);
        assert_eq!(stats.blackhole_pkts, 1);
        assert_eq!(stats.data_pkts_blackholed, 1);
        assert_eq!(stats.data_pkts_dropped, 0, "blackholes are not queue drops");
        let out = buf.lock().unwrap().clone();
        assert!(out.contains("BHOL n0 f7 Data seq=0"), "{out}");
    }

    /// Push `n` data packets through one of the switch's ports, servicing
    /// the TxComplete events, so TX-path health sampling runs.
    fn drive_port(sw: &mut Switch, port: usize, n: u64) {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        for i in 0..n {
            let mut ctx = Ctx {
                node: NodeId(10),
                sched: &mut sched,
                stats: &mut stats,
            };
            let pkt = Packet::data(FlowId(i), NodeId(3), NodeId(5), 0, 1460);
            sw.ports[port].send(Box::new(pkt), &mut ctx);
            while let Some((_, kind)) = sched.pop() {
                if matches!(kind, EventKind::TxComplete(_)) {
                    let mut ctx = Ctx {
                        node: NodeId(10),
                        sched: &mut sched,
                        stats: &mut stats,
                    };
                    sw.ports[port].on_tx_complete(&mut ctx);
                }
            }
        }
    }

    fn all_loss() -> crate::fault::DegradeProfile {
        crate::fault::DegradeProfile {
            seed: 9,
            loss_ppm: 1_000_000,
            corrupt_ppm: 0,
            extra_delay_ns: 0,
            jitter_ns: 0,
        }
    }

    #[test]
    fn health_aware_routing_shuns_degraded_sibling_and_restores() {
        let mut sw = two_way_switch();
        sw.set_health_aware(true);
        assert_eq!(routes_used(&sw).len(), 2, "healthy ECMP uses both ports");
        // Degrade port 0 into total loss and let it observe a few TXes.
        sw.ports[0].set_degraded(NodeId(10), all_loss());
        drive_port(&mut sw, 0, 10);
        assert!(!sw.ports[0].is_healthy());
        assert_eq!(
            routes_used(&sw).into_iter().collect::<Vec<_>>(),
            vec![PortId(1)],
            "flows re-hash off the gray sibling"
        );
        // Port 1 degrades too: with no healthy sibling left, selection
        // falls back to all live ports rather than blackholing.
        sw.ports[1].set_degraded(NodeId(10), all_loss());
        drive_port(&mut sw, 1, 10);
        assert_eq!(
            routes_used(&sw).len(),
            2,
            "no healthy port: fall back to live spread"
        );
        // Port 0 recovers; clean traffic earns its health back.
        sw.ports[0].set_restored();
        drive_port(&mut sw, 0, 3000);
        assert!(sw.ports[0].is_healthy());
        assert_eq!(
            routes_used(&sw).into_iter().collect::<Vec<_>>(),
            vec![PortId(0)],
            "the recovered port is the only healthy sibling"
        );
    }

    /// The ports of `dst`'s entry that ECMP picks among, filtered afresh:
    /// the healthy ones under health-aware routing while any is, else the
    /// live ones.
    fn eligible_by_filter(sw: &Switch, dst: NodeId) -> Vec<PortId> {
        let entry = sw.fib.entry(dst);
        let pick = |eligible: &dyn Fn(&Port) -> bool| -> Vec<PortId> {
            let ports = entry.iter().filter(|p| eligible(&sw.ports[p.index()]));
            ports.copied().collect()
        };
        let healthy = pick(&|p: &Port| p.is_up() && p.is_healthy());
        match sw.health_aware && !healthy.is_empty() {
            true => healthy,
            false => pick(&Port::is_up),
        }
    }

    /// What `route_live` computed before the switch kept `all_ports_up`:
    /// hash over the eligible ports of the entry, take the `nth`.
    fn route_by_filter(sw: &Switch, dst: NodeId, flow: FlowId) -> Option<PortId> {
        let eligible = eligible_by_filter(sw, dst);
        let k = mix64(flow.0 ^ sw.ecmp_salt) as usize;
        (!eligible.is_empty()).then(|| eligible[k % eligible.len()])
    }

    #[test]
    fn route_matches_the_port_filter_through_any_fault_sequence() {
        // No route, 4-way ECMP, a single next hop, 2-way ECMP.
        let dsts = [S0, NodeId(6), NodeId(7), NodeId(5)];
        let mut sim = fabric();
        let sizes = dsts.map(|dst| switch(&mut sim, S0).fib.entry(dst).len());
        assert_eq!(sizes, [0, 4, 1, 2]);
        switch(&mut sim, S0).set_ecmp_salt(0x5a17);
        let mut rng = crate::rng::Rng::seed_from_u64(0xd0_0b);
        let mut seen = [[false; 2]; 2];
        // S0's ports are driven by hand below, each time on a scheduler
        // of its own, as a hand-built port is: on the two-event hop.
        for port in switch(&mut sim, S0).ports_mut() {
            port.set_one_event_hop(false);
        }
        for step in 0..80 {
            let port = PortId(rng.gen_below(4) as u32);
            let (a, b) = link_of(port);
            let fault = match rng.gen_below(6) {
                // Down twice and up without down both occur.
                0 | 1 => FaultEvent::LinkDown { a, b },
                2 | 3 => FaultEvent::LinkUp { a, b },
                4 => FaultEvent::LinkDegrade {
                    a,
                    b,
                    profile: all_loss(),
                },
                _ => FaultEvent::LinkRestore { a, b },
            };
            if rng.gen_below(4) == 0 {
                let sw = switch(&mut sim, S0);
                sw.set_health_aware(!sw.health_aware());
            }
            inject(&mut sim, fault);
            let sw = switch(&mut sim, S0);
            // Let the port's health follow its new state: ten lossy
            // packets sink it, ~1,100 clean ones earn it back.
            let degraded = sw.ports[port.index()].is_degraded();
            drive_port(sw, port.index(), if degraded { 10 } else { 1200 });
            let all_up = sw.ports.iter().all(Port::is_up);
            assert_eq!(sw.all_ports_up, all_up, "step {step}");
            let all_healthy = sw.ports.iter().all(Port::is_healthy);
            seen[all_up as usize][(sw.health_aware && !all_healthy) as usize] = true;
            for i in 0..1000u64 {
                let (dst, flow) = (dsts[(i % 4) as usize], FlowId(i * 7919));
                let want = route_by_filter(sw, dst, flow);
                assert_eq!(sw.route(dst, flow), want, "step {step} {dst} {flow:?}");
            }
            // The capacity PASE sizes a virtual uplink by is the capacity
            // ECMP spreads flows over.
            for dst in dsts {
                let eligible = eligible_by_filter(sw, dst).into_iter();
                let want = eligible.fold(Rate::ZERO, |sum, p| sum + sw.ports[p.index()].rate);
                let got = live_rate(sw.fib.entry(dst), &sw.ports, sw.health_aware);
                assert_eq!(got, want, "step {step} {dst}");
            }
        }
        assert_eq!(
            seen, [[true; 2]; 2],
            "[some port down?][health consulted and some port sick?]"
        );
    }

    #[test]
    fn static_routing_ignores_health() {
        let mut sw = two_way_switch();
        sw.ports[0].set_degraded(NodeId(10), all_loss());
        drive_port(&mut sw, 0, 10);
        assert!(!sw.ports[0].is_healthy());
        assert_eq!(
            routes_used(&sw).len(),
            2,
            "default ECMP keeps hashing onto the degraded port"
        );
    }

    #[test]
    fn corrupted_ctrl_addressed_to_switch_is_discarded() {
        struct CountingProcess(u64);
        impl Process for CountingProcess {
            fn on_ctrl(&mut self, _pkt: Packet, _io: &mut ProcIo<'_, '_>) {
                self.0 += 1;
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sw = two_way_switch();
        sw.process = Some(Box::new(CountingProcess(0)));
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut ctx = Ctx {
            node: NodeId(10),
            sched: &mut sched,
            stats: &mut stats,
        };
        let mut ctrl = Packet::ctrl(FlowId(1), NodeId(3), NodeId(10), Box::new(0u32));
        ctrl.corrupted = true;
        sw.handle(EventKind::deliver(ctrl), &mut ctx);
        let clean = Packet::ctrl(FlowId(1), NodeId(3), NodeId(10), Box::new(0u32));
        sw.handle(EventKind::deliver(clean), &mut ctx);
        let mut node = crate::node::Node::Switch(sw);
        assert_eq!(
            node.process_as::<CountingProcess>().unwrap().0,
            1,
            "only the clean control packet reaches the arbitrator"
        );
    }

    #[test]
    fn fib_round_trips_dense_rows_and_deduplicates() {
        // Rows chosen so runs, singletons, empties, and repeats all occur.
        let up = vec![PortId(2), PortId(3)];
        let rows: Vec<Vec<PortId>> = vec![
            Vec::new(),      // 0: no route
            vec![PortId(0)], // 1
            vec![PortId(0)], // 2: run continues
            vec![PortId(1)], // 3
            up.clone(),      // 4
            up.clone(),      // 5
            up.clone(),      // 6
            vec![PortId(0)], // 7: earlier set reused
            Vec::new(),      // 8
        ];
        let fib = Fib::from_rows(&rows);
        for (d, row) in rows.iter().enumerate() {
            assert_eq!(fib.entry(NodeId(d as u32)), row.as_slice(), "dst {d}");
        }
        // Beyond the encoded id space the last interval's set applies;
        // that is fine because the topology never addresses such ids.
        assert_eq!(fib.intervals(), 6, "runs collapse into intervals");
        // One start and one hop record per interval; only {2,3} needs the
        // pool ({0} and {1} ride in their records, {0} twice).
        assert_eq!(fib.pool, up);
        assert_eq!(fib.heap_bytes(), 6 * 4 + 6 * 8 + 2 * 4);
    }

    #[test]
    fn fib_interval_record_stays_small() {
        // A lookup ends with one read of this record; at 8 bytes eight of
        // them share a line with their neighbours' (DESIGN §8).
        let size = core::mem::size_of::<Hops>();
        assert!(
            size <= 8,
            "Fib interval record grew to {size} bytes (measured: 8)"
        );
    }

    #[test]
    fn fib_round_trips_random_rows() {
        // Few distinct sets and long runs, so empty sets, singletons and
        // repeated multi-port sets all recur, behind a leading no-route
        // run of random length.
        let mut rng = crate::rng::Rng::seed_from_u64(0xf1b);
        for case in 0..200 {
            let sets: Vec<Vec<PortId>> = (0..rng.gen_range_inclusive(1, 6))
                .map(|_| {
                    let n = rng.gen_below(5);
                    (0..n).map(|_| PortId(rng.gen_below(48) as u32)).collect()
                })
                .chain([Vec::new()])
                .collect();
            let mut rows: Vec<Vec<PortId>> = vec![Vec::new(); rng.gen_index(4)];
            while rows.len() < 300 {
                let set = &sets[rng.gen_index(sets.len())];
                rows.extend(vec![set.clone(); rng.gen_range_inclusive(1, 20) as usize]);
            }
            let fib = Fib::from_rows(&rows);
            for (d, row) in rows.iter().enumerate() {
                assert_eq!(
                    fib.entry(NodeId(d as u32)),
                    row.as_slice(),
                    "case {case} dst {d}"
                );
            }
            let runs = 1 + rows.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(fib.intervals(), runs, "case {case}: one interval per run");
            let pooled: usize = sets.iter().filter(|s| s.len() > 1).map(Vec::len).sum();
            assert!(
                fib.pool.len() <= pooled,
                "case {case}: sets are pooled once"
            );
        }
    }

    #[test]
    fn fib_empty_table_routes_nothing() {
        let fib = Fib::default();
        assert_eq!(fib.entry(NodeId(0)), &[] as &[PortId]);
        assert_eq!(fib.entry(NodeId(99)), &[] as &[PortId]);
    }

    #[test]
    fn ecmp_salt_changes_selection_but_zero_matches_unsalted() {
        let sw = two_way_switch();
        let mut salted = two_way_switch();
        salted.set_ecmp_salt(0xdead_beef_cafe_f00d);
        // Salt 0 is the historical hash by construction.
        let base: Vec<_> = (0..256)
            .map(|f| sw.route(NodeId(5), FlowId(f)).unwrap())
            .collect();
        for (f, &p) in base.iter().enumerate() {
            let k = mix64(f as u64) as usize % 2;
            assert_eq!(p, PortId(k as u32));
        }
        // A nonzero salt must disagree somewhere (decorrelated tiers)
        // while remaining deterministic.
        let with_salt: Vec<_> = (0..256)
            .map(|f| salted.route(NodeId(5), FlowId(f)).unwrap())
            .collect();
        assert_ne!(base, with_salt);
        let again: Vec<_> = (0..256)
            .map(|f| salted.route(NodeId(5), FlowId(f)).unwrap())
            .collect();
        assert_eq!(with_salt, again);
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // A handful of consecutive inputs should not all land on the same
        // parity (sanity check for 2-way ECMP).
        let evens = (0..16).filter(|&i| mix64(i).is_multiple_of(2)).count();
        assert!(evens > 2 && evens < 14, "mix64 badly skewed: {evens}/16");
    }
}
