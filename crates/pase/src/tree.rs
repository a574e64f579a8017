//! Tree-topology metadata for the arbitration hierarchy.
//!
//! PASE's control plane "exploits the typical tree structure of data
//! center topologies" (paper §3.1.2). [`TreeInfo`] extracts that structure
//! from an arbitrary [`netsim::topology::Topology`]: which ToR a host
//! hangs off, which aggregation switch parents a ToR, and which core
//! switch parents an aggregation switch. One-, two- and three-tier trees
//! are all supported (missing levels simply have no parent).
//!
//! Node ids are dense, so every per-node attribute lives in a flat vector
//! indexed by [`NodeId::index`] — on a k=32 fat-tree (9.5k nodes) the
//! whole structure is a few hundred KB of contiguous memory, and the
//! lookups on the arbitration hot path (`tor_of`, `level`, `same_rack`)
//! are plain indexed loads instead of hash probes.

use netsim::ids::NodeId;
use netsim::time::Rate;
use netsim::topology::{NodeKind, Topology};

/// Hierarchy level of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Top-of-rack: has at least one host neighbor.
    Tor,
    /// Aggregation: neighbors are ToRs below and (optionally) a core above.
    Agg,
    /// Core: neighbors are aggregation switches only.
    Core,
}

/// Extracted tree structure. All vectors are indexed by dense node id;
/// entries for nodes a given attribute does not apply to (a switch in
/// `host_tor`, a host in `level`) are `None`.
#[derive(Debug, Clone)]
pub struct TreeInfo {
    /// Each host's ToR.
    host_tor: Vec<Option<NodeId>>,
    /// Each switch's level.
    level: Vec<Option<Level>>,
    /// Each switch's parent (ToR → agg, agg → core).
    parent: Vec<Option<NodeId>>,
    /// Capacity of the link `switch -> parent`.
    uplink_rate: Vec<Option<Rate>>,
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

        // Parents: a ToR's agg neighbor; an agg's core neighbor. A node
        // with several upper neighbors keeps the lowest id (deterministic)
        // — multi-rooted trees are approximated by a single parent per
        // child for control-plane purposes.
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut uplink_rate: Vec<Option<Rate>> = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for sw in topo.switches() {
            let my_level = level[sw.index()].expect("switch classified");
            let want = match my_level {
                Level::Tor => Level::Agg,
                Level::Agg => Level::Core,
                Level::Core => continue,
            };
            let mut ups: Vec<(NodeId, Rate)> = topo
                .neighbors(sw)
                .iter()
                .filter(|&&(_, peer, _, _)| level[peer.index()] == Some(want))
                .map(|&(_, peer, rate, _)| (peer, rate))
                .collect();
            ups.sort_by_key(|(id, _)| *id);
            if let Some(&(up, rate)) = ups.first() {
                parent[sw.index()] = Some(up);
                uplink_rate[sw.index()] = Some(rate);
                children[up.index()].push(sw);
            }
        }
        for kids in &mut children {
            kids.sort();
        }
        TreeInfo {
            host_tor,
            level,
            parent,
            uplink_rate,
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

    /// A switch's parent in the tree, if any.
    pub fn parent(&self, sw: NodeId) -> Option<NodeId> {
        self.parent[sw.index()]
    }

    /// Capacity of the link from `sw` to its parent.
    pub fn uplink_rate(&self, sw: NodeId) -> Option<Rate> {
        self.uplink_rate[sw.index()]
    }

    /// The children of a switch (ToRs of an agg; aggs of a core).
    pub fn children(&self, sw: NodeId) -> &[NodeId] {
        &self.children[sw.index()]
    }

    /// Are two hosts in the same rack?
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.tor_of(a) == self.tor_of(b)
    }

    /// Do two hosts share an aggregation subtree (i.e. the path between
    /// them does not cross the core)?
    pub fn same_agg_subtree(&self, a: NodeId, b: NodeId) -> bool {
        if self.same_rack(a, b) {
            return true;
        }
        let (ta, tb) = (self.tor_of(a), self.tor_of(b));
        match (self.parent[ta.index()], self.parent[tb.index()]) {
            (Some(pa), Some(pb)) => pa == pb,
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
    use netsim::flow::{FlowSpec, ReceiverHint};
    use netsim::host::{AgentCtx, AgentFactory, FlowAgent};
    use netsim::queue::DropTailQdisc;
    use netsim::time::SimDuration;
    use netsim::topology::TopologyBuilder;
    use std::sync::Arc;

    struct NullFactory;
    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_packet(&mut self, _: netsim::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
    }
    impl AgentFactory for NullFactory {
        fn sender(&self, _: &FlowSpec) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
        fn receiver(&self, _: ReceiverHint) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
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
        let net = b.build(Arc::new(NullFactory), &|_| Box::new(DropTailQdisc::new(16)));
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
        let net = b.build(Arc::new(NullFactory), &|_| Box::new(DropTailQdisc::new(16)));
        let tree = TreeInfo::from_topology(&net.topo);
        assert_eq!(tree.level(sw), Level::Tor);
        assert_eq!(tree.parent(sw), None);
        assert!(tree.same_rack(hosts[0], hosts[3]));
        assert!(tree.same_agg_subtree(hosts[0], hosts[3]));
    }
}
