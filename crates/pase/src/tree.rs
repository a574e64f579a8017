//! Tree-topology metadata for the arbitration hierarchy.
//!
//! PASE's control plane "exploits the typical tree structure of data
//! center topologies" (paper §3.1.2). [`TreeInfo`] extracts that structure
//! from an arbitrary [`netsim::topology::Topology`]: which ToR a host
//! hangs off, which aggregation switches are above a ToR, and which core
//! switches are above an aggregation switch. One-, two- and three-tier
//! trees are all supported (missing levels simply have no uplinks).
//!
//! A switch arbitrates all of its upper links as one virtual uplink whose
//! capacity is their sum, so a multi-rooted tier (leaf–spine, fat-tree)
//! is arbitrated against the capacity it has. Its *parent* — the
//! arbitrator its legs climb to and its delegation reports go to — is one
//! of its upper neighbours, spread deterministically over them. On a
//! single-rooted tree every switch has one upper link, which is both its
//! uplink and its parent.
//!
//! Node ids are dense, so every per-node attribute lives in a flat vector
//! indexed by [`NodeId::index`] — on a k=32 fat-tree (9.5k nodes) the
//! whole structure is a few hundred KB of contiguous memory, and the
//! lookups on the arbitration hot path (`tor_of`, `level`, `same_rack`)
//! are plain indexed loads instead of hash probes.

use std::collections::BTreeMap;

use netsim::ids::{NodeId, PortId};
use netsim::time::Rate;
use netsim::topology::{NodeKind, Topology};

/// Hierarchy level of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Top-of-rack: has at least one host neighbor.
    Tor,
    /// Aggregation: neighbors are ToRs below and (optionally) cores above.
    Agg,
    /// Core: neighbors are aggregation switches only.
    Core,
}

/// Extracted tree structure. All vectors are indexed by dense node id;
/// entries for nodes a given attribute does not apply to (a switch in
/// `host_tor`, a host in `level`) are `None` or empty.
#[derive(Debug, Clone)]
pub struct TreeInfo {
    /// Each host's ToR.
    host_tor: Vec<Option<NodeId>>,
    /// Each switch's level.
    level: Vec<Option<Level>>,
    /// Each switch's parent: one of its upper neighbours (ToR → agg,
    /// agg → core).
    parent: Vec<Option<NodeId>>,
    /// The switch's ports toward its upper neighbours.
    uplinks: Vec<Vec<PortId>>,
    /// Summed capacity of those links: the switch's virtual uplink.
    uplink_rate: Vec<Option<Rate>>,
    /// Which upper-neighbour set the switch has, as a dense index:
    /// switches with the same set head the same subtree.
    upper_set: Vec<Option<u32>>,
    /// Children of each switch (aggs of a core, ToRs of an agg), sorted.
    children: Vec<Vec<NodeId>>,
}

impl TreeInfo {
    /// Classify a topology as a tree. Panics on non-tree structures (e.g.
    /// a switch with both host and core neighbors at distance 2 levels).
    pub fn from_topology(topo: &Topology) -> TreeInfo {
        let n = topo.n_nodes();
        let mut host_tor: Vec<Option<NodeId>> = vec![None; n];
        let mut level: Vec<Option<Level>> = vec![None; n];

        // Level 1: ToRs have host neighbors.
        for sw in topo.switches() {
            let has_host = topo
                .neighbors(sw)
                .iter()
                .any(|&(_, peer, _, _)| topo.kind(peer) == NodeKind::Host);
            if has_host {
                level[sw.index()] = Some(Level::Tor);
            }
        }
        for h in topo.hosts() {
            host_tor[h.index()] = Some(topo.host_tor(h));
        }
        // Level 2: aggs neighbor ToRs but no hosts.
        for sw in topo.switches() {
            if level[sw.index()].is_some() {
                continue;
            }
            let next_to_tor = topo
                .neighbors(sw)
                .iter()
                .any(|&(_, peer, _, _)| level[peer.index()] == Some(Level::Tor));
            if next_to_tor {
                level[sw.index()] = Some(Level::Agg);
            }
        }
        // Level 3: everything else is core.
        for sw in topo.switches() {
            level[sw.index()].get_or_insert(Level::Core);
        }

        // Upper links: a ToR's agg neighbours, an agg's core neighbours.
        // A child's parent is spread over them: its rank among the
        // switches with the same upper-neighbour set, modulo the set's
        // size (index 0 where there is one upper neighbour).
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut uplinks: Vec<Vec<PortId>> = vec![Vec::new(); n];
        let mut uplink_rate: Vec<Option<Rate>> = vec![None; n];
        let mut upper_set: Vec<Option<u32>> = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        // Upper-neighbour set → (its index, children ranked so far).
        let mut sets: BTreeMap<Vec<NodeId>, (u32, usize)> = BTreeMap::new();
        for sw in topo.switches() {
            let want = match level[sw.index()].expect("switch classified") {
                Level::Tor => Level::Agg,
                Level::Agg => Level::Core,
                Level::Core => continue,
            };
            let mut ups: Vec<(NodeId, PortId, Rate)> = topo
                .neighbors(sw)
                .into_iter()
                .filter(|&(_, peer, _, _)| level[peer.index()] == Some(want))
                .map(|(port, peer, rate, _)| (peer, port, rate))
                .collect();
            if ups.is_empty() {
                continue;
            }
            ups.sort_by_key(|&(peer, port, _)| (peer, port));
            let set = ups.iter().map(|&(peer, ..)| peer).collect();
            let next_index = sets.len() as u32;
            let (index, rank) = sets.entry(set).or_insert((next_index, 0));
            let up = ups[*rank % ups.len()].0;
            *rank += 1;
            parent[sw.index()] = Some(up);
            children[up.index()].push(sw);
            upper_set[sw.index()] = Some(*index);
            uplinks[sw.index()] = ups.iter().map(|&(_, port, _)| port).collect();
            uplink_rate[sw.index()] = Some(ups.iter().fold(Rate::ZERO, |sum, &(.., r)| sum + r));
        }
        for kids in &mut children {
            kids.sort();
        }
        TreeInfo {
            host_tor,
            level,
            parent,
            uplinks,
            uplink_rate,
            upper_set,
            children,
        }
    }

    /// The ToR switch of a host.
    pub fn tor_of(&self, host: NodeId) -> NodeId {
        self.host_tor[host.index()].expect("node is a host")
    }

    /// A switch's hierarchy level.
    pub fn level(&self, sw: NodeId) -> Level {
        self.level[sw.index()].expect("node is a switch")
    }

    /// Whether a node (host or switch) is a ToR.
    pub fn is_tor(&self, node: NodeId) -> bool {
        self.level[node.index()] == Some(Level::Tor)
    }

    /// A switch's parent in the tree, if any: the upper neighbour its legs
    /// climb to and its delegation reports go to.
    pub fn parent(&self, sw: NodeId) -> Option<NodeId> {
        self.parent[sw.index()]
    }

    /// Capacity of a switch's virtual uplink: the sum of its links one
    /// tier up (`None` without any).
    pub fn uplink_rate(&self, sw: NodeId) -> Option<Rate> {
        self.uplink_rate[sw.index()]
    }

    /// A switch's ports toward its upper neighbours: what its virtual
    /// uplink is made of.
    pub fn uplinks(&self, sw: NodeId) -> &[PortId] {
        &self.uplinks[sw.index()]
    }

    /// The children of a switch (ToRs of an agg; aggs of a core).
    pub fn children(&self, sw: NodeId) -> &[NodeId] {
        &self.children[sw.index()]
    }

    /// Are two hosts in the same rack?
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.tor_of(a) == self.tor_of(b)
    }

    /// Do two hosts share an aggregation subtree — do their ToRs have the
    /// same upper-neighbour set, so the path between them does not cross
    /// the tier above the aggregation switches?
    pub fn same_agg_subtree(&self, a: NodeId, b: NodeId) -> bool {
        if self.same_rack(a, b) {
            return true;
        }
        let (ta, tb) = (self.tor_of(a), self.tor_of(b));
        match (self.upper_set[ta.index()], self.upper_set[tb.index()]) {
            (Some(sa), Some(sb)) => sa == sb,
            _ => true, // no aggregation level: single subtree
        }
    }

    /// The hierarchy rule of bottom-up arbitration (paper §3.1.2). A leg of
    /// the path `src → dst` starts at its end host and climbs: after the
    /// arbitrator on `at`, this is the one it visits next, or `None` when
    /// the leg ends at `at`.
    ///
    /// * A host hands the leg to its ToR when the flow leaves the rack
    ///   (intra-rack flows are arbitrated by the two endpoints alone).
    /// * A ToR hands it to its parent when the path crosses the core.
    /// * An aggregation switch never does: the core's links are arbitrated
    ///   from below.
    ///
    /// Both legs follow the same rule; `at` says which end of the path a
    /// leg is on. A ToR that holds a delegated slice of the hop above
    /// decides that hop itself instead of climbing
    /// ([`crate::ArbProcess`]).
    pub fn next_arbitrator(&self, at: NodeId, src: NodeId, dst: NodeId) -> Option<NodeId> {
        match self.level[at.index()] {
            None => (!self.same_rack(src, dst)).then(|| self.tor_of(at)),
            Some(Level::Tor) if !self.same_agg_subtree(src, dst) => self.parent(at),
            Some(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::host::{AgentCtx, AgentFactory, FlowAgent};
    use netsim::queue::DropTailQdisc;
    use netsim::time::SimDuration;
    use netsim::topology::TopologyBuilder;

    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_packet(&mut self, _: netsim::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
    }

    fn null_agents() -> AgentFactory {
        AgentFactory::new(|_: &FlowSpec| NullAgent, |_| NullAgent)
    }

    /// The paper's baseline: 3-tier, `tors` racks of `n` hosts, 2 aggs.
    fn three_tier(n: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>, NodeId) {
        let mut b = TopologyBuilder::new();
        let core = b.add_switch();
        let aggs = vec![b.add_switch(), b.add_switch()];
        let mut tors = vec![];
        let mut hosts = vec![];
        for &agg in &aggs {
            for _ in 0..2 {
                let tor = b.add_switch();
                tors.push(tor);
                b.connect(tor, agg, Rate::from_gbps(10), SimDuration::from_micros(25));
                for _ in 0..n {
                    let h = b.add_host();
                    hosts.push(h);
                    b.connect(h, tor, Rate::from_gbps(1), SimDuration::from_micros(25));
                }
            }
            b.connect(agg, core, Rate::from_gbps(10), SimDuration::from_micros(25));
        }
        let net = b.build(null_agents(), &|_| Box::new(DropTailQdisc::new(16)));
        (net.topo, hosts, tors, aggs, core)
    }

    #[test]
    fn classifies_three_tier() {
        let (topo, hosts, tors, aggs, core) = three_tier(3);
        let tree = TreeInfo::from_topology(&topo);
        for &t in &tors {
            assert_eq!(tree.level(t), Level::Tor);
        }
        for &a in &aggs {
            assert_eq!(tree.level(a), Level::Agg);
        }
        assert_eq!(tree.level(core), Level::Core);
        assert_eq!(tree.tor_of(hosts[0]), tors[0]);
        assert_eq!(tree.parent(tors[0]), Some(aggs[0]));
        assert_eq!(tree.parent(tors[3]), Some(aggs[1]));
        assert_eq!(tree.parent(aggs[0]), Some(core));
        assert_eq!(tree.parent(core), None);
        assert_eq!(tree.children(aggs[0]), &[tors[0], tors[1]]);
        assert_eq!(tree.uplink_rate(tors[0]), Some(Rate::from_gbps(10)));
        assert_eq!(tree.uplinks(tors[0]).len(), 1);
        assert_eq!(tree.uplink_rate(core), None);
    }

    /// A `k`-ary fat-tree in the workloads builder's layout (cores, then
    /// per pod its aggs, then each ToR with its hosts): the topology, and
    /// each pod's aggs, ToRs and hosts.
    fn fat_tree(k: usize) -> (Topology, Vec<NodeId>, Vec<[Vec<NodeId>; 3]>) {
        let half = k / 2;
        let (fabric, access) = (Rate::from_gbps(10), Rate::from_gbps(1));
        let delay = SimDuration::from_micros(25);
        let mut b = TopologyBuilder::new();
        let cores: Vec<NodeId> = (0..half * half).map(|_| b.add_switch()).collect();
        let mut pods = vec![];
        for _ in 0..k {
            let aggs: Vec<NodeId> = (0..half).map(|_| b.add_switch()).collect();
            for (j, &agg) in aggs.iter().enumerate() {
                for &core in &cores[j * half..(j + 1) * half] {
                    b.connect(agg, core, fabric, delay);
                }
            }
            let (mut tors, mut hosts) = (vec![], vec![]);
            for _ in 0..half {
                let tor = b.add_switch();
                for &agg in &aggs {
                    b.connect(tor, agg, fabric, delay);
                }
                for _ in 0..half {
                    let h = b.add_host();
                    b.connect(h, tor, access, delay);
                    hosts.push(h);
                }
                tors.push(tor);
            }
            pods.push([aggs, tors, hosts]);
        }
        let net = b.build(null_agents(), &|_| Box::new(DropTailQdisc::new(16)));
        (net.topo, cores, pods)
    }

    #[test]
    fn fat_tree_uplinks_sum_and_parents_spread() {
        let (topo, cores, pods) = fat_tree(4);
        let tree = TreeInfo::from_topology(&topo);
        for (p, [aggs, tors, hosts]) in pods.iter().enumerate() {
            // Every ToR of a pod sees the pod's two aggs; ToR t reports to
            // agg t, so each agg parents one ToR.
            for (t, &tor) in tors.iter().enumerate() {
                assert_eq!(tree.uplink_rate(tor), Some(Rate::from_gbps(20)));
                assert_eq!(tree.uplinks(tor).len(), 2);
                assert_eq!(tree.parent(tor), Some(aggs[t]));
                assert_eq!(tree.children(aggs[t]), &[tor]);
            }
            // Agg j of every pod sees core row j; pod p's reports to the
            // row's core p mod 2, so each core parents two aggs.
            for (j, &agg) in aggs.iter().enumerate() {
                assert_eq!(tree.uplink_rate(agg), Some(Rate::from_gbps(20)));
                assert_eq!(tree.parent(agg), Some(cores[2 * j + p % 2]));
            }
            // Same pod ⇔ same subtree.
            for (q, [.., others]) in pods.iter().enumerate() {
                for &a in hosts {
                    for &b in others {
                        assert_eq!(tree.same_agg_subtree(a, b), p == q, "pods {p}, {q}");
                    }
                }
            }
        }
        for &core in &cores {
            assert_eq!(tree.children(core).len(), 2);
            assert_eq!(tree.parent(core), None);
        }
    }

    #[test]
    fn rack_and_subtree_relations() {
        let (topo, hosts, ..) = three_tier(3);
        let tree = TreeInfo::from_topology(&topo);
        // hosts 0..3 in rack 0; 3..6 rack 1 (same agg); 6..9 rack 2.
        assert!(tree.same_rack(hosts[0], hosts[2]));
        assert!(!tree.same_rack(hosts[0], hosts[3]));
        assert!(tree.same_agg_subtree(hosts[0], hosts[5]));
        assert!(!tree.same_agg_subtree(hosts[0], hosts[6]));
    }

    #[test]
    fn legs_climb_only_as_far_as_the_path() {
        let (topo, hosts, tors, aggs, _) = three_tier(3);
        let tree = TreeInfo::from_topology(&topo);
        let (h0, same_rack, same_pod, other_pod) = (hosts[0], hosts[1], hosts[3], hosts[6]);
        assert_eq!(tree.next_arbitrator(h0, h0, same_rack), None);
        for dst in [same_pod, other_pod] {
            assert_eq!(tree.next_arbitrator(h0, h0, dst), Some(tors[0]));
        }
        assert_eq!(tree.next_arbitrator(tors[0], h0, same_pod), None);
        assert_eq!(tree.next_arbitrator(tors[0], h0, other_pod), Some(aggs[0]));
        // The receiver leg climbs the same rule from the other end.
        assert_eq!(
            tree.next_arbitrator(other_pod, h0, other_pod),
            Some(tors[2])
        );
        assert_eq!(tree.next_arbitrator(tors[2], h0, other_pod), Some(aggs[1]));
        assert_eq!(tree.next_arbitrator(aggs[1], h0, other_pod), None);
    }

    #[test]
    fn single_rack_has_no_parents() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch();
        let hosts = b.add_hosts(4);
        for &h in &hosts {
            b.connect(h, sw, Rate::from_gbps(1), SimDuration::from_micros(25));
        }
        let net = b.build(null_agents(), &|_| Box::new(DropTailQdisc::new(16)));
        let tree = TreeInfo::from_topology(&net.topo);
        assert_eq!(tree.level(sw), Level::Tor);
        assert_eq!(tree.parent(sw), None);
        assert!(tree.same_rack(hosts[0], hosts[3]));
        assert!(tree.same_agg_subtree(hosts[0], hosts[3]));
    }
}
