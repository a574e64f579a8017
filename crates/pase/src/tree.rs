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
    use netsim::topology::{fat_tree_ports_toward, TopologySpec};

    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_packet(&mut self, _: netsim::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
    }

    /// A recipe's topology and hosts (rack-major).
    fn build(spec: TopologySpec) -> (Topology, Vec<NodeId>) {
        let agents = AgentFactory::new(|_: &FlowSpec| NullAgent, |_| NullAgent);
        let (net, hosts) = spec.build(agents, &|_| Box::new(DropTailQdisc::new(16)));
        (net.topo, hosts)
    }

    /// The paper's baseline, scaled down: four racks of `n` hosts, two
    /// aggs, one core. The topology, its hosts, its ToRs and aggs in rack
    /// order, and its core, all read off the graph.
    fn three_tier(n: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>, NodeId) {
        let (topo, hosts) = build(TopologySpec::small_three_tier(n));
        let tors: Vec<NodeId> = hosts.iter().step_by(n).map(|&h| topo.host_tor(h)).collect();
        // A ToR's one switch neighbour is its agg.
        let agg_of = |tor: NodeId| {
            let mut peers = topo.neighbors(tor).into_iter().map(|(_, peer, ..)| peer);
            peers.find(|&p| topo.kind(p) == NodeKind::Switch).unwrap()
        };
        let aggs = vec![agg_of(tors[0]), agg_of(tors[2])];
        let mut switches = topo.switches().into_iter();
        let core = switches.find(|sw| !tors.contains(sw) && !aggs.contains(sw));
        (topo, hosts, tors, aggs, core.unwrap())
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

    /// On `fat_tree(k)`, every ToR and agg arbitrates its k/2 upper links
    /// (the up-ports Al-Fares routing forwards a packet for another pod
    /// on) as one uplink of k/2 × 10 Gb/s, and parents spread evenly: a
    /// pod's k/2 ToRs over its k/2 aggs, one each, and the k aggs that
    /// share a row of k/2 cores over that row, two each.
    #[test]
    fn fat_tree_uplinks_sum_and_parents_spread() {
        for k in [4usize, 8] {
            let half = k / 2;
            let (topo, hosts) = build(TopologySpec::fat_tree(k));
            let tree = TreeInfo::from_topology(&topo);
            let pod_hosts = hosts.len() / k;
            // Each ToR's pod from its hosts, each agg's from the ToRs
            // below it.
            let mut pod = vec![None; topo.n_nodes()];
            for (i, &h) in hosts.iter().enumerate() {
                let tor = tree.tor_of(h);
                pod[tor.index()] = Some(i / pod_hosts);
                for (_, peer, ..) in topo.neighbors(tor) {
                    if topo.kind(peer) == NodeKind::Switch {
                        pod[peer.index()] = Some(i / pod_hosts);
                    }
                }
            }
            let mut census = [0; 3];
            for sw in topo.switches() {
                let level = tree.level(sw);
                census[level as usize] += 1;
                let kids = tree.children(sw).len();
                let Some(p) = pod[sw.index()] else {
                    assert_eq!(level, Level::Core, "k={k} {sw}");
                    assert_eq!((kids, tree.parent(sw)), (2, None), "k={k} core {sw}");
                    continue;
                };
                let elsewhere = hosts[(p + 1) % k * pod_hosts];
                let ups = fat_tree_ports_toward(k, sw, elsewhere);
                assert_eq!(tree.uplinks(sw), ups, "k={k} {level:?} {sw}");
                let uplink = Rate::from_gbps(10 * half as u64);
                assert_eq!(tree.uplink_rate(sw), Some(uplink), "k={k} {sw}");
                let parent = topo.port_between(sw, tree.parent(sw).unwrap());
                assert!(
                    ups.contains(&parent.unwrap()),
                    "k={k} {sw}: parent not above"
                );
                let want = if level == Level::Agg { 1 } else { 0 };
                assert_eq!(kids, want, "k={k} {level:?} {sw} parents {kids}");
            }
            assert_eq!(census, [k * half, k * half, half * half], "k={k}");
            // Same pod ⇔ same subtree.
            for (i, &a) in hosts.iter().enumerate() {
                for (j, &b) in hosts.iter().enumerate() {
                    let same_pod = i / pod_hosts == j / pod_hosts;
                    assert_eq!(tree.same_agg_subtree(a, b), same_pod, "k={k} {a} {b}");
                }
            }
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
        let (topo, hosts) = build(TopologySpec::intra_rack(4));
        let tree = TreeInfo::from_topology(&topo);
        let sw = topo.host_tor(hosts[0]);
        assert_eq!(tree.level(sw), Level::Tor);
        assert_eq!(tree.parent(sw), None);
        assert!(tree.same_rack(hosts[0], hosts[3]));
        assert!(tree.same_agg_subtree(hosts[0], hosts[3]));
    }
}
