//! The arbitration hierarchy against the physical fabric. For every
//! topology shape the repo ships and every host pair (a sample at k=8),
//! with delegation on and off, the arbitrators a flow's two legs visit —
//! the end host, then whatever `TreeInfo::next_arbitrator` names, with a
//! ToR's delegated slice deciding the hop above it and ending the leg —
//! hold the links of the flow's path:
//!
//! * on single-rooted trees they cover `Topology::path(src, dst)` exactly,
//!   each link once;
//! * on multi-rooted fabrics (leaf-spine, fat-tree) they cross the same
//!   tiers as the path, but every switch arbitrates its link to one parent
//!   as if it were the switch's whole upward capacity. That single-parent
//!   approximation is asserted on purpose: ROADMAP item 1(b) (arbitrated
//!   upward capacity == Σ of the upper links) flips the marked assertion.

use pase_repro::netsim::ids::NodeId;
use pase_repro::netsim::node::Node;
use pase_repro::netsim::time::Rate;
use pase_repro::netsim::topology::{NodeKind, Topology};
use pase_repro::pase::{ArbProcess, Leg, PaseConfig, TreeInfo};
use pase_repro::workloads::{Scheme, TopologySpec};

/// A directed link.
type Link = (NodeId, NodeId);

/// The arbitration tree PASE installs on one fabric.
struct Installed {
    delegation: bool,
    tree: TreeInfo,
    hosts: Vec<bool>,
    /// Per node: does its process hold a delegated slice?
    sliced: Vec<bool>,
    /// Per node: capacity its process arbitrates on its own link upward.
    own: Vec<Option<Rate>>,
}

impl Installed {
    fn new(spec: &TopologySpec, delegation: bool) -> (Installed, Topology) {
        let cfg = PaseConfig {
            delegation,
            ..Scheme::pase_config_for(spec)
        };
        let (mut sim, _) = Scheme::PaseWith(cfg).build_sim(spec);
        let topo = sim.topo().clone();
        let n = topo.n_nodes();
        let (mut sliced, mut own) = (vec![false; n], vec![None; n]);
        for i in 0..n {
            let process = match sim.node_mut(NodeId(i as u32)) {
                Node::Host(h) => h.service_as::<ArbProcess>(),
                Node::Switch(s) => s.plugin_as::<ArbProcess>(),
            };
            if let Some(p) = process {
                let [link, slice] = p.leg_arbitrators(Leg::Sender);
                own[i] = link.map(|a| a.capacity());
                sliced[i] = slice.is_some();
            }
        }
        let hosts = (0..n)
            .map(|i| topo.kind(NodeId(i as u32)) == NodeKind::Host)
            .collect();
        let tree = TreeInfo::from_topology(&topo);
        let installed = Installed {
            delegation,
            tree,
            hosts,
            sliced,
            own,
        };
        (installed, topo)
    }

    /// The upper end of a node's own link: a host's ToR, a switch's parent.
    fn up(&self, n: NodeId) -> Option<NodeId> {
        match self.hosts[n.index()] {
            true => Some(self.tree.tor_of(n)),
            false => self.tree.parent(n),
        }
    }

    /// 0 for hosts, then ToR, agg, core.
    fn tier(&self, n: NodeId) -> u8 {
        match self.hosts[n.index()] {
            true => 0,
            false => 1 + self.tree.level(n) as u8,
        }
    }

    /// The links held by the arbitrators one leg visits from its end host
    /// `end`, oriented along the path `src → dst`.
    fn leg(&self, end: NodeId, src: NodeId, dst: NodeId, leg: Leg) -> Vec<Link> {
        let mut held = Vec::new();
        let mut at = end;
        loop {
            let up = self.up(at).expect("a visited arbitrator owns a link up");
            held.push((at, up));
            let Some(next) = self.tree.next_arbitrator(at, src, dst) else {
                break;
            };
            if self.sliced[at.index()] {
                let core = self.up(up).expect("a slice is of an agg's core link");
                held.push((up, core));
                break;
            }
            at = next;
        }
        if leg == Leg::Receiver {
            held.iter_mut().for_each(|(a, b)| std::mem::swap(a, b));
        }
        held
    }

    /// Both legs of the flow `src → dst`.
    fn legs(&self, src: NodeId, dst: NodeId) -> Vec<Link> {
        let mut held = self.leg(src, src, dst, Leg::Sender);
        held.extend(self.leg(dst, src, dst, Leg::Receiver));
        held
    }
}

/// The nodes one tier above `sw`, with the rate of the link to each.
fn upper_links(t: &Installed, topo: &Topology, sw: NodeId) -> Vec<(NodeId, Rate)> {
    topo.neighbors(sw)
        .into_iter()
        .filter(|&(_, peer, _, _)| t.tier(peer) == t.tier(sw) + 1)
        .map(|(_, peer, rate, _)| (peer, rate))
        .collect()
}

fn check(name: &str, spec: TopologySpec, multi_rooted: bool, src_step: usize) {
    let both = [false, true].map(|delegation| Installed::new(&spec, delegation));
    let topo = &both[0].1;
    let hosts = topo.hosts();
    for (t, _) in &both {
        for &h in &hosts {
            let access = topo.link_rate(h, t.tree.tor_of(h));
            assert_eq!(t.own[h.index()], access, "{name}: host {h:?}");
        }
        let mut any_multi = false;
        for sw in topo.switches() {
            let ups = upper_links(t, topo, sw);
            any_multi |= ups.len() > 1;
            // The process arbitrates exactly its link to its parent, and
            // holds a slice exactly when delegation gives it one: a ToR
            // whose parent has a core link.
            let parent = t.tree.parent(sw);
            let link = parent.and_then(|p| topo.link_rate(sw, p));
            let own = t.own[sw.index()];
            if t.tier(sw) < 3 {
                assert_eq!(own, link, "{name}: switch {sw:?}");
            }
            let sliceable = t.tree.is_tor(sw) && parent.and_then(|p| t.up(p)).is_some();
            assert_eq!(t.sliced[sw.index()], sliceable && t.delegation, "{name}");
            if ups.len() > 1 {
                // Today's single-parent approximation (ROADMAP item 1(b)
                // turns this into `own == Σ ups`): one upper link's rate,
                // below the sum of them.
                let sum: u64 = ups.iter().map(|(_, r)| r.as_bps()).sum();
                assert_eq!(
                    own,
                    Some(ups.iter().find(|u| Some(u.0) == parent).unwrap().1)
                );
                assert!(own.unwrap().as_bps() < sum, "{name}: switch {sw:?}");
            }
        }
        assert_eq!(any_multi, multi_rooted, "{name}: multi-rooted?");
    }
    let mut pairs = 0;
    for &src in hosts.iter().step_by(src_step) {
        for &dst in hosts.iter().filter(|&&d| d != src) {
            let nodes = topo.path(src, dst).expect("connected");
            let mut path: Vec<Link> = nodes.windows(2).map(|w| (w[0], w[1])).collect();
            path.sort();
            for (t, _) in &both {
                let mut held = t.legs(src, dst);
                held.sort();
                if multi_rooted {
                    // Same tiers, one arbitrated link per hop; the links
                    // themselves follow the single parent, not the path.
                    let tiers = |links: &[Link]| {
                        let mut v: Vec<_> =
                            links.iter().map(|&(a, b)| (t.tier(a), t.tier(b))).collect();
                        v.sort();
                        v
                    };
                    assert_eq!(tiers(&held), tiers(&path), "{name}: {src:?} → {dst:?}");
                    for &(a, b) in &held {
                        assert!(
                            topo.link_rate(a, b).is_some(),
                            "{name}: no link {a:?}-{b:?}"
                        );
                    }
                } else {
                    assert_eq!(held, path, "{name}: {src:?} → {dst:?}");
                }
            }
            pairs += 1;
        }
    }
    assert!(pairs > 0);
}

#[test]
fn single_rooted_legs_cover_the_path_exactly_once() {
    check("paper_baseline", TopologySpec::paper_baseline(), false, 1);
    check(
        "small_three_tier",
        TopologySpec::small_three_tier(4),
        false,
        1,
    );
    check("intra_rack", TopologySpec::intra_rack(8), false, 1);
    check("testbed", TopologySpec::testbed(), false, 1);
}

#[test]
fn multi_rooted_legs_arbitrate_one_parent_per_tier() {
    check(
        "small_leaf_spine",
        TopologySpec::small_leaf_spine(4),
        true,
        1,
    );
    check("fat_tree(4)", TopologySpec::fat_tree(4), true, 1);
    check("fat_tree(8)", TopologySpec::fat_tree(8), true, 9);
}
