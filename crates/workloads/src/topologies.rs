//! Canonical topologies from the paper's evaluation (§4.1, Fig. 8).

use netsim::host::AgentFactory;
use netsim::ids::{NodeId, PortId};
use netsim::packet::{CONTROL_PKT_BYTES, HEADER_BYTES};
use netsim::time::{Rate, SimDuration};
use netsim::topology::{Network, QdiscChooser, TopologyBuilder};
use transport::MSS;

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
    /// `0..hosts_per_rack` in rack 0, and so on).
    pub fn build(
        &self,
        factory: AgentFactory,
        qdisc_for: &QdiscChooser<'_>,
    ) -> (Network, Vec<NodeId>) {
        match *self {
            TopologySpec::SingleRack {
                hosts,
                access,
                link_delay,
            } => {
                assert!(hosts >= 2);
                let mut b = TopologyBuilder::new();
                let sw = b.add_switch();
                let host_ids = b.add_hosts(hosts);
                for &h in &host_ids {
                    b.connect(h, sw, access, link_delay);
                }
                (b.build(factory, qdisc_for), host_ids)
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
                let mut b = TopologyBuilder::new();
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
                (b.build(factory, qdisc_for), host_ids)
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
                let mut b = TopologyBuilder::new();
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
                (b.build(factory, qdisc_for), host_ids)
            }
            TopologySpec::FatTree {
                k,
                access,
                fabric,
                link_delay,
            } => {
                assert!(k >= 4 && k % 2 == 0, "fat-tree k must be even and >= 4");
                let half = k / 2;
                let mut b = TopologyBuilder::new();
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
                let mut net = b.build(factory, qdisc_for);
                // Give every switch a distinct deterministic ECMP salt:
                // with the unsalted shared hash, the ToR and the agg on a
                // path would pick the same equal-cost index, collapsing
                // the (k/2)² core paths to k/2. Derived from the node id
                // only, so builds are reproducible; other topologies keep
                // salt 0 and their historical traces.
                for node in &mut net.nodes {
                    if let netsim::node::Node::Switch(sw) = node {
                        let salt = (sw.id().0 as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        sw.set_ecmp_salt(salt);
                    }
                }
                (net, host_ids)
            }
        }
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
/// up-port otherwise. An oracle for the interval [`netsim::switch::Fib`]s
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
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::host::{AgentCtx, FlowAgent};
    use netsim::queue::DropTailQdisc;

    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_packet(&mut self, _: netsim::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
    }

    fn null_agents() -> AgentFactory {
        AgentFactory::new(|_: &FlowSpec| NullAgent, |_| NullAgent)
    }

    #[test]
    fn baseline_matches_paper() {
        let t = TopologySpec::paper_baseline();
        assert_eq!(t.n_hosts(), 160);
        let (net, hosts) = t.build(null_agents(), &|_| Box::new(DropTailQdisc::new(8)));
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
        let (net, hosts) = t.build(null_agents(), &|_| Box::new(DropTailQdisc::new(8)));
        // Inter-leaf distance is 4 hops (host-leaf-spine-leaf-host).
        assert_eq!(net.topo.hop_count(hosts[0], hosts[11]), Some(4));
        // A leaf must hold two equal-cost uplinks toward a remote host.
        let leaf = net.topo.host_tor(hosts[0]);
        let netsim::node::Node::Switch(sw) = &net.nodes[leaf.index()] else {
            panic!()
        };
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..64u64 {
            seen.insert(sw.route(hosts[11], netsim::ids::FlowId(f)).unwrap());
        }
        assert_eq!(seen.len(), 2, "ECMP should use both spines");
    }

    fn build(t: &TopologySpec) -> (Network, Vec<NodeId>) {
        t.build(null_agents(), &|_| Box::new(DropTailQdisc::new(8)))
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
            let (net, hosts) = build(&spec);
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
            let (net, hosts) = build(&t);
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
        flow: netsim::ids::FlowId,
        n_cores: usize,
    ) -> NodeId {
        let mut cur = net.topo.host_tor(src);
        let mut core = None;
        for _ in 0..8 {
            let netsim::node::Node::Switch(sw) = &net.nodes[cur.index()] else {
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
            let (net, hosts) = build(&t);
            let half = k / 2;
            let n_cores = half * half;
            // Inter-pod pair: host 0 and the last host.
            let (src, dst) = (hosts[0], *hosts.last().unwrap());
            let mut seen = std::collections::BTreeSet::new();
            for f in 0..2048u64 {
                seen.insert(core_crossed(
                    &net,
                    src,
                    dst,
                    netsim::ids::FlowId(f),
                    n_cores,
                ));
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
            let (net, hosts) = build(&TopologySpec::fat_tree(k));
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
                let netsim::node::Node::Switch(sw) = &net.nodes[sw_id.index()] else {
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
        let (net, hosts) = build(&t);
        // Consecutive ids within each rack of k/2 hosts.
        for pair in hosts.chunks(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
            assert_eq!(net.topo.host_tor(pair[0]), net.topo.host_tor(pair[1]));
        }
        // The compact FIBs stay small: every switch's table is a handful
        // of intervals, not one per destination.
        let n_nodes = net.topo.n_nodes();
        for sw_id in net.topo.switches() {
            let netsim::node::Node::Switch(sw) = &net.nodes[sw_id.index()] else {
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
        let (net, hosts) = t.build(null_agents(), &|_| Box::new(DropTailQdisc::new(8)));
        // Hosts 0-2 share a ToR; 0 and 3 do not.
        assert_eq!(net.topo.host_tor(hosts[0]), net.topo.host_tor(hosts[2]));
        assert_ne!(net.topo.host_tor(hosts[0]), net.topo.host_tor(hosts[3]));
        // Hosts 0 and 11 are across the core.
        assert_eq!(net.topo.hop_count(hosts[0], hosts[11]), Some(6));
    }
}
