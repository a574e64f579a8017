//! Topology description and construction.
//!
//! A [`TopologyBuilder`] accumulates hosts, switches and full-duplex links,
//! then [`TopologyBuilder::build`] computes shortest-path forwarding tables
//! and stamps out the node objects. The resulting [`Topology`] retains the
//! graph metadata (who connects to whom, at what rate) so that control
//! planes — PASE's arbitration hierarchy, PDQ's per-link arbitration — can
//! be wired up after construction.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::host::{AgentFactory, Host};
use crate::ids::{NodeId, PortId};
use crate::node::Node;
use crate::port::Port;
use crate::queue::Qdisc;
use crate::switch::{Fib, FibBuilder, Switch};
use crate::time::{Rate, SimDuration};

/// What kind of node occupies an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host.
    Host,
    /// A switch.
    Switch,
}

/// One direction of a link, as seen from the transmitting node.
#[derive(Debug, Clone, Copy)]
pub struct PortSpec {
    /// The transmitting node.
    pub node: NodeId,
    /// Whether the transmitting node is a host.
    pub node_is_host: bool,
    /// The output port index on the transmitting node.
    pub port: PortId,
    /// The receiving node.
    pub peer: NodeId,
    /// Link capacity.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

/// Chooses the queue discipline for each port at build time.
pub type QdiscChooser<'a> = dyn Fn(&PortSpec) -> Box<dyn Qdisc> + 'a;

/// Accumulates a topology description.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    /// Adjacency: per node, its ports in creation order.
    ports: Vec<Vec<(NodeId, Rate, SimDuration)>>,
}

impl TopologyBuilder {
    /// An empty topology.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Add a host, returning its id.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Add `n` hosts, returning their ids.
    pub fn add_hosts(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_host()).collect()
    }

    /// Add a switch, returning its id.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.ports.push(Vec::new());
        id
    }

    /// Connect `a` and `b` with a full-duplex link of the given capacity
    /// and one-way propagation delay. Creates one output port on each node.
    pub fn connect(&mut self, a: NodeId, b: NodeId, rate: Rate, delay: SimDuration) {
        assert_ne!(a, b, "self-links are not allowed");
        self.ports[a.index()].push((b, rate, delay));
        self.ports[b.index()].push((a, rate, delay));
    }

    /// Compute forwarding tables and construct the network.
    ///
    /// `factory` builds each host's flow agents; `qdisc_for` chooses a
    /// queue discipline per output port.
    pub fn build(&self, factory: Arc<dyn AgentFactory>, qdisc_for: &QdiscChooser<'_>) -> Network {
        let n = self.kinds.len();
        assert!(n > 0, "empty topology");
        for (i, kind) in self.kinds.iter().enumerate() {
            match kind {
                NodeKind::Host => assert_eq!(
                    self.ports[i].len(),
                    1,
                    "host n{i} must have exactly one access link"
                ),
                NodeKind::Switch => assert!(!self.ports[i].is_empty(), "switch n{i} has no links"),
            }
        }
        let mut fibs = self.compute_fibs();
        let mut nodes = Vec::with_capacity(n);
        for (i, kind) in self.kinds.iter().enumerate() {
            let id = NodeId(i as u32);
            let mk_port = |(pidx, &(peer, rate, delay)): (usize, &(NodeId, Rate, SimDuration))| {
                let spec = PortSpec {
                    node: id,
                    node_is_host: *kind == NodeKind::Host,
                    port: PortId(pidx as u32),
                    peer,
                    rate,
                    delay,
                };
                Port::new(spec.port, peer, rate, delay, qdisc_for(&spec))
            };
            match kind {
                NodeKind::Host => {
                    let port = self.ports[i]
                        .iter()
                        .enumerate()
                        .map(mk_port)
                        .next()
                        .unwrap();
                    nodes.push(Node::Host(Host::new(id, port, Arc::clone(&factory))));
                }
                NodeKind::Switch => {
                    let ports: Vec<Port> = self.ports[i].iter().enumerate().map(mk_port).collect();
                    let fib = fibs[i].take().expect("switch has a forwarding table");
                    nodes.push(Node::Switch(Switch::new(id, ports, fib)));
                }
            }
        }
        Network {
            nodes,
            topo: Topology {
                kinds: self.kinds.clone(),
                ports: self.ports.clone(),
            },
        }
    }

    /// Shortest-path forwarding tables with equal-cost multipath: for
    /// every switch and every destination, the output ports on shortest
    /// paths, run-length-encoded into one compact [`Fib`] per switch.
    /// Hosts get `None`: their single access link needs no table.
    ///
    /// Hosts are leaves (`build` asserts one link each), so no shortest
    /// path passes through one. Toward a host on ToR `t`, every switch but
    /// `t` therefore forwards exactly as toward `t`, and `t` forwards on
    /// its port to the host. One BFS over the switch graph from `t`
    /// serves `t` and all its hosts: destinations are visited in id
    /// order, and while consecutive ones end at the same switch only that
    /// switch's table changes; every other table's run continues
    /// ([`FibBuilder::continue_run`]). Cost O(switches × switch links +
    /// table size); the dense switch×destination table (~10M entries on
    /// a k=32 fat-tree) never materializes.
    fn compute_fibs(&self) -> Vec<Option<Fib>> {
        let n = self.kinds.len();
        // Dense switch indices, and each switch's links to switches in
        // port order.
        let mut dense = vec![None; n];
        let switches: Vec<usize> = (0..n)
            .filter(|&i| self.kinds[i] == NodeKind::Switch)
            .collect();
        for (s, &node) in switches.iter().enumerate() {
            dense[node] = Some(s);
        }
        let links: Vec<Vec<(PortId, usize)>> = switches
            .iter()
            .map(|&node| {
                (0..)
                    .zip(&self.ports[node])
                    .filter_map(|(p, &(peer, _, _))| Some((PortId(p), dense[peer.index()]?)))
                    .collect()
            })
            .collect();
        let mut builders: Vec<FibBuilder> = switches.iter().map(|_| FibBuilder::new()).collect();
        // Scratch buffers reused across BFS sources.
        let mut dist = vec![u32::MAX; switches.len()];
        let mut q = VecDeque::with_capacity(switches.len());
        let mut row: Vec<PortId> = Vec::new();
        // The switch `dist` was last computed from.
        let mut source = None;
        for dst in 0..n {
            // The switch every path toward `dst` ends at, and the port
            // there that reaches `dst` (none for the switch itself).
            let (last, last_hop) = match self.kinds[dst] {
                NodeKind::Switch => (dense[dst], None),
                NodeKind::Host => {
                    let tor = self.ports[dst][0].0;
                    let hop = self.ports[tor.index()]
                        .iter()
                        .position(|&(peer, _, _)| peer.index() == dst)
                        .map(|p| PortId(p as u32));
                    (dense[tor.index()], hop)
                }
            };
            let Some(last) = last else {
                // A host cabled to a host: no switch reaches it.
                builders.iter_mut().for_each(|b| b.push(&[]));
                source = None;
                continue;
            };
            if source == Some(last) {
                for (u, builder) in builders.iter_mut().enumerate() {
                    if u != last {
                        builder.continue_run();
                    }
                }
            } else {
                dist.fill(u32::MAX);
                dist[last] = 0;
                q.clear();
                q.push_back(last);
                while let Some(u) = q.pop_front() {
                    for &(_, v) in &links[u] {
                        if dist[v] == u32::MAX {
                            dist[v] = dist[u] + 1;
                            q.push_back(v);
                        }
                    }
                }
                source = Some(last);
                // Next hops: any neighbor strictly closer to `last`.
                for (u, builder) in builders.iter_mut().enumerate() {
                    if u == last {
                        continue;
                    }
                    row.clear();
                    if dist[u] != u32::MAX {
                        let closer = links[u].iter().filter(|&&(_, v)| dist[v] + 1 == dist[u]);
                        row.extend(closer.map(|&(p, _)| p));
                    }
                    builder.push(&row);
                }
            }
            builders[last].push(last_hop.as_slice());
        }
        let mut fibs = builders.into_iter().map(FibBuilder::finish);
        self.kinds
            .iter()
            .map(|k| (*k == NodeKind::Switch).then(|| fibs.next().unwrap()))
            .collect()
    }
}

/// Immutable topology metadata retained after construction.
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    ports: Vec<Vec<(NodeId, Rate, SimDuration)>>,
}

impl Topology {
    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// The kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// All host ids in id order.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.ids_of(NodeKind::Host)
    }

    /// All switch ids in id order.
    pub fn switches(&self) -> Vec<NodeId> {
        self.ids_of(NodeKind::Switch)
    }

    fn ids_of(&self, want: NodeKind) -> Vec<NodeId> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == want)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// The neighbors of a node in port order: `(port, peer, rate, delay)`.
    pub fn neighbors(&self, id: NodeId) -> Vec<(PortId, NodeId, Rate, SimDuration)> {
        self.ports[id.index()]
            .iter()
            .enumerate()
            .map(|(i, &(peer, rate, delay))| (PortId(i as u32), peer, rate, delay))
            .collect()
    }

    /// The output port on `from` that reaches directly-connected `to`.
    pub fn port_between(&self, from: NodeId, to: NodeId) -> Option<PortId> {
        self.ports[from.index()]
            .iter()
            .position(|&(peer, _, _)| peer == to)
            .map(|i| PortId(i as u32))
    }

    /// The rate of the directed link `from -> to`, if adjacent.
    pub fn link_rate(&self, from: NodeId, to: NodeId) -> Option<Rate> {
        self.ports[from.index()]
            .iter()
            .find(|&&(peer, _, _)| peer == to)
            .map(|&(_, rate, _)| rate)
    }

    /// The one-way propagation delay of the link `from -> to`, if adjacent.
    pub fn link_delay(&self, from: NodeId, to: NodeId) -> Option<SimDuration> {
        self.ports[from.index()]
            .iter()
            .find(|&&(peer, _, _)| peer == to)
            .map(|&(_, _, delay)| delay)
    }

    /// The ToR switch a host hangs off (its single neighbor).
    pub fn host_tor(&self, host: NodeId) -> NodeId {
        debug_assert_eq!(self.kind(host), NodeKind::Host);
        self.ports[host.index()][0].0
    }

    /// Hop count between two nodes (BFS), if connected.
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let n = self.kinds.len();
        let mut dist = vec![u32::MAX; n];
        dist[a.index()] = 0;
        let mut q = VecDeque::from([a.index()]);
        while let Some(u) = q.pop_front() {
            if u == b.index() {
                return Some(dist[u]);
            }
            for &(peer, _, _) in &self.ports[u] {
                let v = peer.index();
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        None
    }

    /// Base round-trip propagation + store-and-forward time between two
    /// hosts for a packet of `pkt_bytes` and an ACK of `ack_bytes`, in the
    /// absence of queueing. Useful for configuring transports' initial RTO
    /// and window computations.
    pub fn base_rtt(&self, a: NodeId, b: NodeId, pkt_bytes: u32, ack_bytes: u32) -> SimDuration {
        let path = self.path(a, b).expect("hosts must be connected");
        let mut total = SimDuration::ZERO;
        for w in path.windows(2) {
            let rate = self.link_rate(w[0], w[1]).unwrap();
            let delay = self.link_delay(w[0], w[1]).unwrap();
            total += delay + rate.tx_time(pkt_bytes as u64);
            total += delay + rate.tx_time(ack_bytes as u64);
        }
        total
    }

    /// One shortest path between two nodes (deterministic: lowest port
    /// indices win), as a node sequence including both endpoints.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let n = self.kinds.len();
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut dist = vec![u32::MAX; n];
        dist[a.index()] = 0;
        let mut q = VecDeque::from([a.index()]);
        while let Some(u) = q.pop_front() {
            for &(peer, _, _) in &self.ports[u] {
                let v = peer.index();
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    prev[v] = Some(u);
                    q.push_back(v);
                }
            }
        }
        if dist[b.index()] == u32::MAX {
            return None;
        }
        let mut path = vec![b];
        let mut cur = b.index();
        while let Some(p) = prev[cur] {
            path.push(NodeId(p as u32));
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// A constructed network: node objects plus retained topology metadata.
pub struct Network {
    /// The nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// Topology metadata.
    pub topo: Topology,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::flow::{FlowSpec, ReceiverHint};
    use crate::host::{AgentCtx, FlowAgent};
    use crate::queue::DropTailQdisc;

    /// A do-nothing agent factory for the crate's topology-building
    /// tests.
    pub(crate) struct NullFactory;
    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_packet(&mut self, _: crate::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
    }
    impl AgentFactory for NullFactory {
        fn sender(&self, _: &FlowSpec) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
        fn receiver(&self, _: ReceiverHint) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
    }

    fn star(n_hosts: usize) -> (TopologyBuilder, Vec<NodeId>, NodeId) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let hosts = b.add_hosts(n_hosts);
        for &h in &hosts {
            b.connect(h, sw, Rate::from_gbps(1), SimDuration::from_micros(25));
        }
        (b, hosts, sw)
    }

    fn build(b: &TopologyBuilder) -> Network {
        b.build(Arc::new(NullFactory), &|_| Box::new(DropTailQdisc::new(16)))
    }

    #[test]
    fn star_routing() {
        let (b, hosts, sw) = star(3);
        let net = build(&b);
        assert_eq!(net.topo.hosts(), hosts);
        assert_eq!(net.topo.switches(), vec![sw]);
        assert_eq!(net.topo.host_tor(hosts[0]), sw);
        assert_eq!(net.topo.hop_count(hosts[0], hosts[1]), Some(2));
        assert_eq!(
            net.topo.path(hosts[0], hosts[2]),
            Some(vec![hosts[0], sw, hosts[2]])
        );
    }

    #[test]
    fn tree_routing_goes_up_and_down() {
        // host0 - tor0 - agg - tor1 - host1
        let mut b = TopologyBuilder::new();
        let tor0 = b.add_switch();
        let tor1 = b.add_switch();
        let agg = b.add_switch();
        let h0 = b.add_host();
        let h1 = b.add_host();
        b.connect(h0, tor0, Rate::from_gbps(1), SimDuration::from_micros(25));
        b.connect(h1, tor1, Rate::from_gbps(1), SimDuration::from_micros(25));
        b.connect(tor0, agg, Rate::from_gbps(10), SimDuration::from_micros(25));
        b.connect(tor1, agg, Rate::from_gbps(10), SimDuration::from_micros(25));
        let net = build(&b);
        assert_eq!(net.topo.path(h0, h1), Some(vec![h0, tor0, agg, tor1, h1]));
        assert_eq!(net.topo.hop_count(h0, h1), Some(4));
        assert_eq!(net.topo.link_rate(tor0, agg), Some(Rate::from_gbps(10)));
        assert_eq!(net.topo.port_between(tor0, agg), Some(PortId(1)));
    }

    #[test]
    fn base_rtt_accounts_for_all_hops() {
        let (b, hosts, _) = star(2);
        let net = build(&b);
        // Two links each way; per link: 25us prop + tx.
        // Data 1500B @1G = 12us; ACK 40B @1G = 0.32us.
        let rtt = net.topo.base_rtt(hosts[0], hosts[1], 1500, 40);
        let expect = SimDuration::from_nanos(2 * (25_000 + 12_000) + 2 * (25_000 + 320));
        assert_eq!(rtt, expect);
    }

    #[test]
    fn ecmp_fib_has_multiple_next_hops() {
        // Diamond: h0 - s0 - {s1, s2} - s3 - h1.
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        let s3 = b.add_switch();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let r = Rate::from_gbps(10);
        let d = SimDuration::from_micros(10);
        b.connect(h0, s0, r, d);
        b.connect(s0, s1, r, d);
        b.connect(s0, s2, r, d);
        b.connect(s1, s3, r, d);
        b.connect(s2, s3, r, d);
        b.connect(s3, h1, r, d);
        let net = build(&b);
        // s0 should have two equal-cost ports toward h1.
        let Node::Switch(sw) = &net.nodes[s0.index()] else {
            panic!("expected switch");
        };
        // Route a few different flows; both paths must be reachable.
        use crate::ids::FlowId;
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..32 {
            seen.insert(sw.route(h1, FlowId(f)).unwrap());
        }
        assert_eq!(seen.len(), 2, "ECMP should use both uplinks");
    }

    /// The reference construction: one BFS per destination over the whole
    /// graph, then every switch's ports scanned for neighbors strictly
    /// closer to it.
    fn per_destination_fibs(b: &TopologyBuilder) -> Vec<Option<Fib>> {
        let n = b.kinds.len();
        let mut builders: Vec<Option<FibBuilder>> = b
            .kinds
            .iter()
            .map(|k| (*k == NodeKind::Switch).then(FibBuilder::new))
            .collect();
        let mut dist = vec![u32::MAX; n];
        let mut q = VecDeque::new();
        for dst in 0..n {
            dist.fill(u32::MAX);
            dist[dst] = 0;
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                for &(peer, _, _) in &b.ports[u] {
                    let v = peer.index();
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            for (u, builder) in builders.iter_mut().enumerate() {
                let Some(builder) = builder.as_mut() else {
                    continue;
                };
                let mut row = Vec::new();
                if u != dst && dist[u] != u32::MAX {
                    for (pidx, &(peer, _, _)) in b.ports[u].iter().enumerate() {
                        if dist[peer.index()] + 1 == dist[u] {
                            row.push(PortId(pidx as u32));
                        }
                    }
                }
                builder.push(&row);
            }
        }
        builders
            .into_iter()
            .map(|b| b.map(FibBuilder::finish))
            .collect()
    }

    /// Build `b` (which validates it) and hold every table to the
    /// reference construction's.
    fn assert_matches_reference(b: &TopologyBuilder) -> Network {
        let net = build(b);
        assert_eq!(b.compute_fibs(), per_destination_fibs(b));
        net
    }

    fn link(b: &mut TopologyBuilder, x: NodeId, y: NodeId) {
        b.connect(x, y, Rate::from_gbps(10), SimDuration::from_micros(1));
    }

    fn fib_of(net: &Network, sw: NodeId) -> &Fib {
        let Node::Switch(sw) = &net.nodes[sw.index()] else {
            panic!("{sw} is not a switch");
        };
        sw.fib()
    }

    #[test]
    fn fibs_match_reference_with_racks_interleaved() {
        // Host ids alternate between two ToRs, so no two consecutive
        // destinations end at the same switch; two hosts come before any
        // switch, so a ToR also follows one of its own hosts.
        let mut b = TopologyBuilder::new();
        let early = b.add_hosts(2);
        let tors = [b.add_switch(), b.add_switch()];
        let spine = b.add_switch();
        link(&mut b, early[0], tors[1]);
        link(&mut b, early[1], tors[0]);
        for &t in &tors {
            link(&mut b, t, spine);
        }
        for i in 0..6 {
            let h = b.add_host();
            link(&mut b, h, tors[i % 2]);
        }
        assert_matches_reference(&b);
    }

    #[test]
    fn fibs_match_reference_on_leaf_spine_and_transit_switches() {
        // Three spines: every cross-leaf route is a 3-way equal-cost set.
        // A dead-end switch on leaf 0 and a spine-only switch carry no
        // hosts.
        let mut b = TopologyBuilder::new();
        let spines: Vec<_> = (0..3).map(|_| b.add_switch()).collect();
        let mut leaves = Vec::new();
        for _ in 0..4 {
            let leaf = b.add_switch();
            for &s in &spines {
                link(&mut b, leaf, s);
            }
            for _ in 0..3 {
                let h = b.add_host();
                link(&mut b, h, leaf);
            }
            leaves.push(leaf);
        }
        let dead_end = b.add_switch();
        link(&mut b, dead_end, leaves[0]);
        let hostless = b.add_switch();
        link(&mut b, hostless, spines[2]);
        let net = assert_matches_reference(&b);
        let up: Vec<_> = (0..3).map(PortId).collect();
        let far_host = NodeId(leaves[3].0 + 1);
        assert_eq!(fib_of(&net, leaves[0]).entry(far_host), up.as_slice());
    }

    #[test]
    fn fibs_match_reference_across_components() {
        // A second island of two switches, and a host cabled to a host
        // between two of the island's hosts: rows toward anything
        // unreachable stay empty, and the island's rack resumes after the
        // pair.
        let mut b = TopologyBuilder::new();
        let (s0, s1) = (b.add_switch(), b.add_switch());
        link(&mut b, s0, s1);
        let hosts = b.add_hosts(2);
        link(&mut b, hosts[0], s0);
        link(&mut b, hosts[1], s1);
        let island = [b.add_switch(), b.add_switch()];
        link(&mut b, island[0], island[1]);
        let before = b.add_host();
        link(&mut b, before, island[0]);
        let pair = b.add_hosts(2);
        link(&mut b, pair[0], pair[1]);
        let after = b.add_host();
        link(&mut b, after, island[0]);
        let net = assert_matches_reference(&b);
        for far in [island[0], island[1], before, after, pair[0], pair[1]] {
            assert!(fib_of(&net, s0).entry(far).is_empty(), "s0 toward {far}");
        }
        for far in [s0, s1, hosts[0], hosts[1], pair[0], pair[1]] {
            let fib = fib_of(&net, island[1]);
            assert!(fib.entry(far).is_empty(), "island toward {far}");
        }
        assert_eq!(fib_of(&net, island[1]).entry(after), &[PortId(0)]);
    }

    #[test]
    fn fibs_match_reference_on_three_tier() {
        // The paper's tree: core, two aggs, two ToRs per agg, each ToR
        // followed by its hosts.
        let mut b = TopologyBuilder::new();
        let core = b.add_switch();
        for _ in 0..2 {
            let agg = b.add_switch();
            link(&mut b, agg, core);
            for _ in 0..2 {
                let tor = b.add_switch();
                link(&mut b, tor, agg);
                for _ in 0..5 {
                    let h = b.add_host();
                    link(&mut b, h, tor);
                }
            }
        }
        assert_matches_reference(&b);
    }

    #[test]
    fn fibs_match_reference_on_fat_tree_4() {
        // Cores, then per pod its aggs and each ToR followed by its hosts.
        let half = 2;
        let mut b = TopologyBuilder::new();
        let cores: Vec<_> = (0..half * half).map(|_| b.add_switch()).collect();
        for _pod in 0..2 * half {
            let aggs: Vec<_> = (0..half).map(|_| b.add_switch()).collect();
            for (j, &agg) in aggs.iter().enumerate() {
                for &core in &cores[j * half..(j + 1) * half] {
                    link(&mut b, agg, core);
                }
            }
            for _tor in 0..half {
                let tor = b.add_switch();
                for &agg in &aggs {
                    link(&mut b, tor, agg);
                }
                for _ in 0..half {
                    let h = b.add_host();
                    link(&mut b, h, tor);
                }
            }
        }
        assert_matches_reference(&b);
    }

    #[test]
    fn fibs_match_reference_on_random_graphs() {
        // Random switch graphs (parallel links, several components) with
        // hosts scattered over the id space and over the switches.
        let mut rng = crate::rng::Rng::seed_from_u64(0xf1b5);
        for _case in 0..100 {
            let mut b = TopologyBuilder::new();
            let n_switches = rng.gen_range_inclusive(1, 8) as usize;
            let n_hosts = rng.gen_index(16);
            let (mut switches, mut hosts) = (Vec::new(), Vec::new());
            while switches.len() + hosts.len() < n_switches + n_hosts {
                if hosts.len() == n_hosts || switches.len() < n_switches && rng.gen_below(2) == 0 {
                    switches.push(b.add_switch());
                } else {
                    hosts.push(b.add_host());
                }
            }
            for &h in &hosts {
                link(&mut b, h, switches[rng.gen_index(n_switches)]);
            }
            for _ in 0..rng.gen_index(2 * n_switches) {
                let (x, y) = (rng.gen_index(n_switches), rng.gen_index(n_switches));
                if x != y {
                    link(&mut b, switches[x], switches[y]);
                }
            }
            // Every switch needs a link.
            for &s in &switches {
                if b.ports[s.index()].is_empty() {
                    let h = b.add_host();
                    link(&mut b, h, s);
                }
            }
            assert_matches_reference(&b);
        }
    }

    #[test]
    #[should_panic(expected = "must have exactly one access link")]
    fn host_with_two_links_rejected() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let h = b.add_host();
        b.connect(h, s0, Rate::from_gbps(1), SimDuration::from_micros(1));
        b.connect(h, s1, Rate::from_gbps(1), SimDuration::from_micros(1));
        b.connect(s0, s1, Rate::from_gbps(1), SimDuration::from_micros(1));
        let _ = build(&b);
    }
}
