//! Topology description and construction.
//!
//! A [`TopologyBuilder`] accumulates hosts, switches and full-duplex links,
//! then [`TopologyBuilder::build`] computes shortest-path forwarding tables
//! and stamps out the node objects. The resulting [`Topology`] retains the
//! graph metadata (who connects to whom, at what rate) so that control
//! planes — PASE's arbitration hierarchy, PDQ's per-link arbitration — can
//! be wired up after construction.
//!
//! A [`TopologySpec`] is a recipe for one of the paper's trees (a rack,
//! the Fig. 8 three-tier tree, a leaf–spine, a k-ary fat-tree): it adds
//! nodes and links in one fixed order, so node ids, port numbers and
//! every trace built on them are the same wherever the recipe is used.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::host::{AgentFactory, Host};
use crate::ids::{NodeId, PortId};
use crate::node::Node;
use crate::packet::{CONTROL_PKT_BYTES, HEADER_BYTES, MSS};
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
    pub fn build(&self, factory: AgentFactory, qdisc_for: &QdiscChooser<'_>) -> Network {
        let factory = Arc::new(factory);
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

/// A topology recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// One ToR, `hosts` hosts, `access` links with `link_delay` one-way
    /// propagation (the intra-rack and testbed scenarios).
    SingleRack {
        /// Number of hosts.
        hosts: usize,
        /// Access link rate.
        access: Rate,
        /// One-way propagation per link.
        link_delay: SimDuration,
    },
    /// The paper's baseline (Fig. 8): `racks` ToRs of `hosts_per_rack`
    /// hosts, two aggregation switches (half the racks each), one core.
    /// 1 Gbps access, 10 Gbps fabric links → 4:1 oversubscription at 40
    /// hosts per rack.
    ThreeTier {
        /// Hosts on each ToR.
        hosts_per_rack: usize,
        /// Number of racks (must be even; half per aggregation switch).
        racks: usize,
        /// Access link rate.
        access: Rate,
        /// ToR–agg and agg–core link rate.
        fabric: Rate,
        /// One-way propagation per link.
        link_delay: SimDuration,
    },
    /// A two-tier leaf–spine fabric (extension beyond the paper's tree):
    /// every leaf connects to every spine, so inter-rack flows have
    /// `spines` equal-cost paths and the simulator's deterministic
    /// per-flow ECMP spreads them. PASE's control plane arbitrates each
    /// leaf's spine links as one virtual uplink of their summed capacity
    /// and spreads the leaves' parents over the spines (`pase::tree`).
    LeafSpine {
        /// Number of leaf (rack) switches.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Number of spine switches.
        spines: usize,
        /// Access link rate.
        access: Rate,
        /// Leaf–spine link rate.
        fabric: Rate,
        /// One-way propagation per link.
        link_delay: SimDuration,
    },
    /// A full k-ary fat-tree (Al-Fares et al.): k pods of k/2 ToR and k/2
    /// aggregation switches, (k/2)² cores, k²/4 racks of k/2 hosts each —
    /// k³/4 hosts total (k=16 → 1024, k=32 → 8192). Aggregation switch
    /// `j` of every pod connects to cores `[j·k/2, (j+1)·k/2)`, so an
    /// inter-pod flow has (k/2)² equal-cost core paths; the builder
    /// assigns every switch a distinct deterministic ECMP salt so
    /// successive tiers hash independently and all of them get used.
    /// Hosts are rack-major and contiguous in node-id space, which is
    /// what keeps the compact interval-encoded forwarding tables small.
    FatTree {
        /// Pod count / switch radix (even, ≥ 4).
        k: usize,
        /// Host access link rate.
        access: Rate,
        /// ToR–agg and agg–core link rate.
        fabric: Rate,
        /// One-way propagation per link.
        link_delay: SimDuration,
    },
}

impl TopologySpec {
    /// The paper's baseline: 4 racks × 40 hosts, 1 G access, 10 G fabric,
    /// 25 µs per hop (300 µs base RTT through the core).
    pub fn paper_baseline() -> TopologySpec {
        TopologySpec::ThreeTier {
            hosts_per_rack: 40,
            racks: 4,
            access: Rate::from_gbps(1),
            fabric: Rate::from_gbps(10),
            link_delay: SimDuration::from_micros(25),
        }
    }

    /// A scaled-down three-tier for fast tests/benches.
    pub fn small_three_tier(hosts_per_rack: usize) -> TopologySpec {
        TopologySpec::ThreeTier {
            hosts_per_rack,
            racks: 4,
            access: Rate::from_gbps(1),
            fabric: Rate::from_gbps(10),
            link_delay: SimDuration::from_micros(25),
        }
    }

    /// The paper's intra-rack scenario rack (20 machines, §2/§4.2.1).
    pub fn intra_rack(hosts: usize) -> TopologySpec {
        TopologySpec::SingleRack {
            hosts,
            access: Rate::from_gbps(1),
            link_delay: SimDuration::from_micros(25),
        }
    }

    /// The testbed (§4.4): 10 nodes, 1 Gbps, 250 µs RTT (62.5 µs per
    /// link traversal: 4 traversals per round trip).
    pub fn testbed() -> TopologySpec {
        TopologySpec::SingleRack {
            hosts: 10,
            access: Rate::from_gbps(1),
            link_delay: SimDuration::from_nanos(62_500),
        }
    }

    /// A small leaf–spine fabric for tests and the ECMP extension
    /// experiments: 4 leaves × `hosts_per_leaf`, 2 spines.
    pub fn small_leaf_spine(hosts_per_leaf: usize) -> TopologySpec {
        TopologySpec::LeafSpine {
            leaves: 4,
            hosts_per_leaf,
            spines: 2,
            access: Rate::from_gbps(1),
            fabric: Rate::from_gbps(10),
            link_delay: SimDuration::from_micros(25),
        }
    }

    /// A production-scale k-ary fat-tree with the repo's standard link
    /// parameters (1 G access, 10 G fabric, 25 µs per hop). k=16 is the
    /// 1024-host scale target; k=32 reaches 8192 hosts.
    pub fn fat_tree(k: usize) -> TopologySpec {
        TopologySpec::FatTree {
            k,
            access: Rate::from_gbps(1),
            fabric: Rate::from_gbps(10),
            link_delay: SimDuration::from_micros(25),
        }
    }

    /// Number of hosts this topology will have.
    pub fn n_hosts(&self) -> usize {
        match *self {
            TopologySpec::SingleRack { hosts, .. } => hosts,
            TopologySpec::ThreeTier {
                hosts_per_rack,
                racks,
                ..
            } => hosts_per_rack * racks,
            TopologySpec::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            TopologySpec::FatTree { k, .. } => k * k * k / 4,
        }
    }

    /// Access link rate.
    pub fn access_rate(&self) -> Rate {
        match *self {
            TopologySpec::SingleRack { access, .. } => access,
            TopologySpec::ThreeTier { access, .. } => access,
            TopologySpec::LeafSpine { access, .. } => access,
            TopologySpec::FatTree { access, .. } => access,
        }
    }

    /// Fabric (agg–core) rate — equals access rate on a single rack.
    pub fn fabric_rate(&self) -> Rate {
        match *self {
            TopologySpec::SingleRack { access, .. } => access,
            TopologySpec::ThreeTier { fabric, .. } => fabric,
            TopologySpec::LeafSpine { fabric, .. } => fabric,
            TopologySpec::FatTree { fabric, .. } => fabric,
        }
    }

    /// The zero-load RTT between the two most distant hosts, for a
    /// full-size data packet and a 40-byte ACK.
    pub fn base_rtt(&self) -> SimDuration {
        // Build a throwaway network? Cheaper: compute analytically.
        let (n_links, access, fabric, delay) = match *self {
            TopologySpec::SingleRack {
                access, link_delay, ..
            } => (2u32, access, access, link_delay),
            TopologySpec::ThreeTier {
                access,
                fabric,
                link_delay,
                ..
            } => (6u32, access, fabric, link_delay),
            TopologySpec::LeafSpine {
                access,
                fabric,
                link_delay,
                ..
            } => (4u32, access, fabric, link_delay),
            // Inter-pod: host-ToR-agg-core-agg-ToR-host, 6 links, same
            // shape as the three-tier tree's worst case.
            TopologySpec::FatTree {
                access,
                fabric,
                link_delay,
                ..
            } => (6u32, access, fabric, link_delay),
        };
        let mut rtt = SimDuration::ZERO;
        for hop in 0..n_links {
            let rate = if hop == 0 || hop == n_links - 1 {
                access
            } else {
                fabric
            };
            rtt += delay + rate.tx_time(u64::from(MSS + HEADER_BYTES));
            rtt += delay + rate.tx_time(u64::from(CONTROL_PKT_BYTES));
        }
        rtt
    }

    /// Construct the network. Hosts are returned rack-major (hosts
    /// `0..hosts_per_rack` in rack 0, and so on). Every switch gets its id
    /// before the switches and hosts below it, and each ToR is followed
    /// directly by its hosts, so the top tier (a rack's one switch, the
    /// three-tier core, the spines, the fat-tree cores) starts at node 0.
    pub fn build(
        &self,
        factory: AgentFactory,
        qdisc_for: &QdiscChooser<'_>,
    ) -> (Network, Vec<NodeId>) {
        let (b, host_ids) = self.builder();
        let mut net = b.build(factory, qdisc_for);
        if let TopologySpec::FatTree { .. } = self {
            // Give every switch a distinct deterministic ECMP salt:
            // with the unsalted shared hash, the ToR and the agg on a
            // path would pick the same equal-cost index, collapsing
            // the (k/2)² core paths to k/2. Derived from the node id
            // only, so builds are reproducible; other topologies keep
            // salt 0 and their historical traces.
            for node in &mut net.nodes {
                if let Node::Switch(sw) = node {
                    let salt = (sw.id().0 as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    sw.set_ecmp_salt(salt);
                }
            }
        }
        (net, host_ids)
    }

    /// The recipe's nodes and links, added in the order that fixes every
    /// node id and port number, and its hosts rack-major.
    fn builder(&self) -> (TopologyBuilder, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let host_ids = match *self {
            TopologySpec::SingleRack {
                hosts,
                access,
                link_delay,
            } => {
                assert!(hosts >= 2);
                let sw = b.add_switch();
                let host_ids = b.add_hosts(hosts);
                for &h in &host_ids {
                    b.connect(h, sw, access, link_delay);
                }
                host_ids
            }
            TopologySpec::LeafSpine {
                leaves,
                hosts_per_leaf,
                spines,
                access,
                fabric,
                link_delay,
            } => {
                assert!(leaves >= 2 && hosts_per_leaf >= 1 && spines >= 1);
                let spine_ids: Vec<_> = (0..spines).map(|_| b.add_switch()).collect();
                let mut host_ids = Vec::with_capacity(leaves * hosts_per_leaf);
                for _ in 0..leaves {
                    let leaf = b.add_switch();
                    for &s in &spine_ids {
                        b.connect(leaf, s, fabric, link_delay);
                    }
                    for _ in 0..hosts_per_leaf {
                        let h = b.add_host();
                        b.connect(h, leaf, access, link_delay);
                        host_ids.push(h);
                    }
                }
                host_ids
            }
            TopologySpec::ThreeTier {
                hosts_per_rack,
                racks,
                access,
                fabric,
                link_delay,
            } => {
                assert!(hosts_per_rack >= 1);
                assert!(racks >= 2 && racks % 2 == 0, "racks must be even");
                let core = b.add_switch();
                let mut host_ids = Vec::with_capacity(hosts_per_rack * racks);
                for _ in 0..2 {
                    let agg = b.add_switch();
                    b.connect(agg, core, fabric, link_delay);
                    for _ in 0..racks / 2 {
                        let tor = b.add_switch();
                        b.connect(tor, agg, fabric, link_delay);
                        for _ in 0..hosts_per_rack {
                            let h = b.add_host();
                            b.connect(h, tor, access, link_delay);
                            host_ids.push(h);
                        }
                    }
                }
                host_ids
            }
            TopologySpec::FatTree {
                k,
                access,
                fabric,
                link_delay,
            } => {
                assert!(k >= 4 && k % 2 == 0, "fat-tree k must be even and >= 4");
                let half = k / 2;
                // Cores first (ids 0..(k/2)²), grouped in rows: row `j`
                // (cores j·k/2 .. (j+1)·k/2) serves aggregation switch
                // `j` of every pod. Then per pod: its k/2 aggs, then each
                // ToR followed immediately by its k/2 hosts, so hosts are
                // rack-major and contiguous — the property the compact
                // FIB's interval encoding leans on.
                let cores: Vec<NodeId> = (0..half * half).map(|_| b.add_switch()).collect();
                let mut host_ids = Vec::with_capacity(k * k * k / 4);
                for _pod in 0..k {
                    let aggs: Vec<NodeId> = (0..half).map(|_| b.add_switch()).collect();
                    for (j, &agg) in aggs.iter().enumerate() {
                        for &core in &cores[j * half..(j + 1) * half] {
                            b.connect(agg, core, fabric, link_delay);
                        }
                    }
                    for _tor in 0..half {
                        let tor = b.add_switch();
                        for &agg in &aggs {
                            b.connect(tor, agg, fabric, link_delay);
                        }
                        for _h in 0..half {
                            let h = b.add_host();
                            b.connect(h, tor, access, link_delay);
                            host_ids.push(h);
                        }
                    }
                }
                host_ids
            }
        };
        (b, host_ids)
    }
}

/// Where a node id sits in a [`TopologySpec::FatTree`], from the builder's
/// id layout alone: cores `0..(k/2)²`, then one block per pod — its k/2
/// aggregation switches, then each ToR followed by its k/2 hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FatTreeNode {
    Core,
    Agg { pod: usize },
    Tor { pod: usize, tor: usize },
    Host { pod: usize, tor: usize, host: usize },
}

fn fat_tree_locate(k: usize, id: NodeId) -> FatTreeNode {
    let half = k / 2;
    let Some(in_pods) = id.index().checked_sub(half * half) else {
        return FatTreeNode::Core;
    };
    let pod_nodes = half + half * (1 + half);
    let (pod, at) = (in_pods / pod_nodes, in_pods % pod_nodes);
    assert!(pod < k, "{id} is beyond the k={k} fat-tree");
    let Some(in_racks) = at.checked_sub(half) else {
        return FatTreeNode::Agg { pod };
    };
    match (in_racks / (1 + half), in_racks % (1 + half)) {
        (tor, 0) => FatTreeNode::Tor { pod, tor },
        (tor, h) => FatTreeNode::Host {
            pod,
            tor,
            host: h - 1,
        },
    }
}

/// The ports a `fat_tree(k)` switch must forward on toward host `dst`,
/// from (pod, ToR, host) coordinates alone — Al-Fares two-level routing:
/// the one down-port when the host is in the switch's subtree, every
/// up-port otherwise. An oracle for the interval [`Fib`]s
/// that owes nothing to the BFS that builds them. Port numbers follow
/// the builder's `connect` order: a core's port `p` leads to pod `p`; an
/// agg's first k/2 ports lead up and port `k/2 + t` down to ToR `t`; a
/// ToR's first k/2 ports lead up and port `k/2 + h` down to host `h`.
pub fn fat_tree_ports_toward(k: usize, sw: NodeId, dst: NodeId) -> Vec<PortId> {
    let FatTreeNode::Host {
        pod: dst_pod,
        tor: dst_tor,
        host: dst_host,
    } = fat_tree_locate(k, dst)
    else {
        panic!("{dst} is not a host");
    };
    let half = k / 2;
    let down = match fat_tree_locate(k, sw) {
        FatTreeNode::Core => Some(dst_pod),
        FatTreeNode::Agg { pod } => (pod == dst_pod).then_some(half + dst_tor),
        FatTreeNode::Tor { pod, tor } => {
            ((pod, tor) == (dst_pod, dst_tor)).then_some(half + dst_host)
        }
        FatTreeNode::Host { .. } => panic!("{sw} is not a switch"),
    };
    match down {
        Some(port) => vec![PortId(port as u32)],
        None => (0..half as u32).map(PortId).collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::host::{AgentCtx, FlowAgent};
    use crate::queue::DropTailQdisc;

    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_packet(&mut self, _: crate::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
    }

    /// Do-nothing endpoints for the crate's topology-building tests.
    pub(crate) fn null_agents() -> AgentFactory {
        AgentFactory::new(|_: &FlowSpec| NullAgent, |_| NullAgent)
    }

    fn build(b: &TopologyBuilder) -> Network {
        b.build(null_agents(), &|_| Box::new(DropTailQdisc::new(16)))
    }

    fn build_spec(t: &TopologySpec) -> (Network, Vec<NodeId>) {
        t.build(null_agents(), &|_| Box::new(DropTailQdisc::new(16)))
    }

    #[test]
    fn star_routing() {
        let (net, hosts) = build_spec(&TopologySpec::intra_rack(3));
        let sw = NodeId(0);
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
        let (net, hosts) = build_spec(&TopologySpec::intra_rack(2));
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
        assert_matches_reference(&TopologySpec::small_three_tier(5).builder().0);
    }

    #[test]
    fn fibs_match_reference_on_fat_tree_4() {
        // Cores, then per pod its aggs and each ToR followed by its hosts.
        assert_matches_reference(&TopologySpec::fat_tree(4).builder().0);
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

    #[test]
    fn baseline_matches_paper() {
        let t = TopologySpec::paper_baseline();
        assert_eq!(t.n_hosts(), 160);
        let (net, hosts) = build_spec(&t);
        assert_eq!(hosts.len(), 160);
        // 160 hosts + 4 ToR + 2 agg + 1 core.
        assert_eq!(net.topo.n_nodes(), 167);
        // Base RTT through the core is ~300 us (paper §4.1).
        let rtt = t.base_rtt();
        let us = rtt.as_micros_f64();
        assert!((290.0..330.0).contains(&us), "base RTT {us} us");
        // Analytic base RTT matches the topology-walk computation.
        let walked = net.topo.base_rtt(hosts[0], hosts[159], 1500, 40);
        assert_eq!(rtt, walked);
    }

    #[test]
    fn testbed_rtt_is_250us() {
        let t = TopologySpec::testbed();
        let us = t.base_rtt().as_micros_f64();
        assert!((250.0..280.0).contains(&us), "testbed RTT {us} us");
    }

    #[test]
    fn leaf_spine_uses_ecmp_across_spines() {
        let t = TopologySpec::small_leaf_spine(3);
        assert_eq!(t.n_hosts(), 12);
        let (net, hosts) = build_spec(&t);
        // Inter-leaf distance is 4 hops (host-leaf-spine-leaf-host).
        assert_eq!(net.topo.hop_count(hosts[0], hosts[11]), Some(4));
        // A leaf must hold two equal-cost uplinks toward a remote host.
        let leaf = net.topo.host_tor(hosts[0]);
        let Node::Switch(sw) = &net.nodes[leaf.index()] else {
            panic!()
        };
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..64u64 {
            seen.insert(sw.route(hosts[11], crate::ids::FlowId(f)).unwrap());
        }
        assert_eq!(seen.len(), 2, "ECMP should use both spines");
    }

    /// Every spec the repo defines, including both fat-tree scale points
    /// the tests can afford.
    fn all_specs() -> Vec<TopologySpec> {
        vec![
            TopologySpec::paper_baseline(),
            TopologySpec::small_three_tier(2),
            TopologySpec::intra_rack(4),
            TopologySpec::testbed(),
            TopologySpec::small_leaf_spine(2),
            TopologySpec::fat_tree(4),
            TopologySpec::fat_tree(8),
        ]
    }

    #[test]
    fn analytic_base_rtt_matches_topology_walk_for_every_spec() {
        // The analytic formula hard-codes each variant's worst-case hop
        // count; this pins it to the graph itself. Hosts 0 and last are
        // maximally distant in every generator (rack-major order puts
        // them in different pods/subtrees whenever one exists).
        for spec in all_specs() {
            let (net, hosts) = build_spec(&spec);
            let walked = net
                .topo
                .base_rtt(hosts[0], *hosts.last().unwrap(), 1500, 40);
            assert_eq!(spec.base_rtt(), walked, "spec {spec:?}");
        }
    }

    /// Pod and rack of a fat-tree host by its rack-major index.
    fn ft_pod_rack(k: usize, host_idx: usize) -> (usize, usize) {
        let half = k / 2;
        (host_idx / (half * half), host_idx / half)
    }

    #[test]
    fn fat_tree_reachability_and_hop_counts() {
        for k in [4usize, 8] {
            let t = TopologySpec::fat_tree(k);
            let (net, hosts) = build_spec(&t);
            assert_eq!(hosts.len(), k * k * k / 4);
            // Switch census: (k/2)² cores + k·(k/2) aggs + k·(k/2) ToRs.
            let half = k / 2;
            assert_eq!(net.topo.switches().len(), half * half + k * half + k * half);
            // All pairs reachable with the analytic hop count. Quadratic
            // in hosts but k≤8 keeps it cheap (128² pairs).
            for (i, &a) in hosts.iter().enumerate() {
                for (j, &b) in hosts.iter().enumerate() {
                    let (pod_a, rack_a) = ft_pod_rack(k, i);
                    let (pod_b, rack_b) = ft_pod_rack(k, j);
                    let want = if i == j {
                        0
                    } else if rack_a == rack_b {
                        2
                    } else if pod_a == pod_b {
                        4
                    } else {
                        6
                    };
                    assert_eq!(net.topo.hop_count(a, b), Some(want), "k={k} hosts {i}->{j}");
                }
            }
        }
    }

    /// Follow the switches' actual ECMP decisions from `src` to `dst`,
    /// returning the core the packet crosses (inter-pod paths only).
    fn core_crossed(
        net: &Network,
        src: NodeId,
        dst: NodeId,
        flow: crate::ids::FlowId,
        n_cores: usize,
    ) -> NodeId {
        let mut cur = net.topo.host_tor(src);
        let mut core = None;
        for _ in 0..8 {
            let Node::Switch(sw) = &net.nodes[cur.index()] else {
                panic!("walked into a host mid-path");
            };
            let port = sw.route(dst, flow).expect("healthy fabric must route");
            let (_, peer, _, _) = net.topo.neighbors(cur)[port.index()];
            if peer == dst {
                return core.expect("inter-pod path must cross a core");
            }
            if peer.index() < n_cores {
                core = Some(peer);
            }
            cur = peer;
        }
        panic!("path did not terminate");
    }

    #[test]
    fn fat_tree_ecmp_uses_all_core_paths() {
        for k in [4usize, 8] {
            let t = TopologySpec::fat_tree(k);
            let (net, hosts) = build_spec(&t);
            let half = k / 2;
            let n_cores = half * half;
            // Inter-pod pair: host 0 and the last host.
            let (src, dst) = (hosts[0], *hosts.last().unwrap());
            let mut seen = std::collections::BTreeSet::new();
            for f in 0..2048u64 {
                seen.insert(core_crossed(&net, src, dst, crate::ids::FlowId(f), n_cores));
            }
            assert_eq!(
                seen.len(),
                n_cores,
                "k={k}: ECMP must spread one src/dst pair over all (k/2)² cores"
            );
        }
    }

    #[test]
    fn fat_tree_fibs_match_coordinate_routing() {
        // k/2 is odd at 6 and 12: racks and up-port sets of odd length.
        for k in [4usize, 6, 8, 12, 16] {
            let (net, hosts) = build_spec(&TopologySpec::fat_tree(k));
            // The coordinate decoder against the graph itself.
            for (i, &h) in hosts.iter().enumerate() {
                let (pod, rack) = ft_pod_rack(k, i);
                let want = FatTreeNode::Host {
                    pod,
                    tor: rack % (k / 2),
                    host: i % (k / 2),
                };
                assert_eq!(fat_tree_locate(k, h), want, "k={k} host {i}");
            }
            let switches = net.topo.switches();
            for &sw_id in &switches {
                let Node::Switch(sw) = &net.nodes[sw_id.index()] else {
                    panic!()
                };
                for &h in &hosts {
                    assert_eq!(
                        sw.fib().entry(h),
                        fat_tree_ports_toward(k, sw_id, h),
                        "k={k} switch {sw_id} toward host {h}"
                    );
                }
                for &other in &switches {
                    assert_eq!(
                        sw.fib().entry(other).is_empty(),
                        other == sw_id,
                        "k={k} switch {sw_id} toward switch {other}"
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_hosts_are_rack_major_contiguous() {
        let t = TopologySpec::fat_tree(4);
        let (net, hosts) = build_spec(&t);
        // Consecutive ids within each rack of k/2 hosts.
        for pair in hosts.chunks(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
            assert_eq!(net.topo.host_tor(pair[0]), net.topo.host_tor(pair[1]));
        }
        // The compact FIBs stay small: every switch's table is a handful
        // of intervals, not one per destination.
        let n_nodes = net.topo.n_nodes();
        for sw_id in net.topo.switches() {
            let Node::Switch(sw) = &net.nodes[sw_id.index()] else {
                panic!()
            };
            assert!(
                sw.fib().intervals() < n_nodes / 2,
                "switch {sw_id} FIB has {} intervals for {n_nodes} nodes",
                sw.fib().intervals()
            );
        }
    }

    #[test]
    fn rack_major_host_order() {
        let t = TopologySpec::small_three_tier(3);
        let (net, hosts) = build_spec(&t);
        // Hosts 0-2 share a ToR; 0 and 3 do not.
        assert_eq!(net.topo.host_tor(hosts[0]), net.topo.host_tor(hosts[2]));
        assert_ne!(net.topo.host_tor(hosts[0]), net.topo.host_tor(hosts[3]));
        // Hosts 0 and 11 are across the core.
        assert_eq!(net.topo.hop_count(hosts[0], hosts[11]), Some(6));
    }
}
