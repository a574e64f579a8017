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
//!   tiers as the path, one arbitrated virtual uplink per hop.
//!
//! On every fabric each switch arbitrates the sum of its upper links'
//! capacity, its parent is one of its upper neighbours, and the children
//! sharing a set of upper neighbours are spread evenly over it. The
//! virtual uplink follows the links routing can still use (down links
//! drop out), and a fat-tree whose cross-pod load exceeds one agg–core
//! link finishes its cross-pod flows at least as fast under PASE as under
//! DCTCP.

use std::collections::BTreeMap;

use pase_repro::netsim::fault::FaultPlan;
use pase_repro::netsim::flow::FlowSpec;
use pase_repro::netsim::ids::{FlowId, NodeId};
use pase_repro::netsim::sim::{RunLimit, Simulation};
use pase_repro::netsim::time::{Rate, SimDuration, SimTime};
use pase_repro::netsim::topology::{NodeKind, Topology};
use pase_repro::pase::{ArbProcess, Leg, PaseConfig, TreeInfo};
use pase_repro::workloads::{Pattern, RunSpec, Scenario, Scheme, SizeDist, TopologySpec};

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
            if let Some(p) = sim.node_mut(NodeId(i as u32)).process_as::<ArbProcess>() {
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
        // Upper-neighbour set → its children, counted per parent.
        let mut spread: BTreeMap<Vec<NodeId>, BTreeMap<NodeId, usize>> = BTreeMap::new();
        for sw in topo.switches() {
            let ups = upper_links(t, topo, sw);
            any_multi |= ups.len() > 1;
            // The process arbitrates the sum of its upper links, and holds
            // a slice exactly when delegation gives it one: a ToR whose
            // parent has core links.
            let sum = ups.iter().map(|(_, r)| r.as_bps()).sum::<u64>();
            let own = t.own[sw.index()];
            if t.tier(sw) < 3 {
                assert_eq!(
                    own.map(Rate::as_bps),
                    (!ups.is_empty()).then_some(sum),
                    "{name}: switch {sw:?}"
                );
            }
            let parent = t.tree.parent(sw);
            let sliceable = t.tree.is_tor(sw) && parent.and_then(|p| t.up(p)).is_some();
            assert_eq!(t.sliced[sw.index()], sliceable && t.delegation, "{name}");
            if let Some(parent) = parent {
                let mut set: Vec<NodeId> = ups.iter().map(|&(peer, _)| peer).collect();
                set.sort();
                assert!(
                    set.contains(&parent),
                    "{name}: {sw:?}'s parent is not above it"
                );
                *spread.entry(set).or_default().entry(parent).or_default() += 1;
            }
        }
        // No upper switch parents more than ⌈children / uppers⌉ of the
        // children that share its set.
        for (set, parents) in &spread {
            let children: usize = parents.values().sum();
            let most = parents.values().max().copied().unwrap_or(0);
            assert!(
                most <= children.div_ceil(set.len()),
                "{name}: {children} children over {} uppers, one parents {most}",
                set.len()
            );
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
                    // Same tiers, one arbitrated virtual uplink per hop,
                    // named by the link to the switch's parent, which need
                    // not be the link the path takes.
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

/// Run `sim` on to `ms` milliseconds of simulated time.
fn run_to(sim: &mut Simulation, ms: u64) {
    sim.run(RunLimit {
        max_time: Some(SimTime::from_millis(ms)),
        stop_when_measured_done: false,
    });
}

/// Three long flows out of the first rack of `spec`, with one of its
/// ToR's upper links down from 2 to 4 ms. At 1, 3 and 5 ms: the capacity
/// the ToR arbitrates on its own uplink in each direction, and whether
/// its decision for every flow is the one its full, static capacity
/// gives.
fn uplink_across_outage(spec: &TopologySpec) -> (Rate, Vec<([Rate; 2], bool)>) {
    let (mut sim, hosts) = Scheme::Pase.build_sim(spec);
    let tree = TreeInfo::from_topology(sim.topo());
    let tor = tree.tor_of(hosts[0]);
    let static_rate = tree.uplink_rate(tor).expect("the ToR has upper links");
    let upper = sim.topo().neighbors(tor)[tree.uplinks(tor)[0].index()].1;
    let at = SimTime::from_millis;
    sim.inject_faults(
        &FaultPlan::new()
            .link_down(at(2), tor, upper)
            .link_up(at(4), tor, upper),
    );
    let rack = hosts.iter().filter(|&&h| tree.tor_of(h) == tor).count();
    let flows: Vec<FlowId> = (0..3).map(FlowId).collect();
    for &f in &flows {
        let (src, dst) = (
            hosts[f.0 as usize % rack],
            hosts[hosts.len() - 1 - f.0 as usize],
        );
        sim.add_flow(FlowSpec::new(f, src, dst, 10_000_000, SimTime::ZERO));
    }
    let samples = [1, 3, 5].map(|ms| {
        run_to(&mut sim, ms);
        let p = sim
            .node_mut(tor)
            .process_as::<ArbProcess>()
            .expect("ToR arbitrator");
        let own = [Leg::Sender, Leg::Receiver].map(|leg| p.leg_arbitrators(leg)[0].unwrap());
        // The rack's flows are all on the sender side of the uplink.
        let mut full = own[0].clone();
        full.set_capacity(static_rate);
        let as_static = flows.iter().all(|&f| full.decide(f) == own[0].decide(f));
        (own.map(|a| a.capacity()), as_static)
    });
    (static_rate, samples.to_vec())
}

#[test]
fn virtual_uplink_tracks_live_upper_links() {
    // fat_tree(4): a ToR uplink going down takes one 10 G link off the
    // ToR's arbitrated capacity both ways, and coming up restores it.
    let (full, samples) = uplink_across_outage(&TopologySpec::fat_tree(4));
    assert_eq!(full, Rate::from_gbps(20));
    let caps: Vec<[Rate; 2]> = samples.iter().map(|s| s.0).collect();
    let one_down = Rate::from_gbps(10);
    assert_eq!(caps, [[full; 2], [one_down; 2], [full; 2]]);

    // ThreeTier: the sole uplink going down leaves the ToR arbitrating
    // that link's rate, so every decision stays the static one.
    let (full, samples) = uplink_across_outage(&TopologySpec::small_three_tier(2));
    assert_eq!(full, Rate::from_gbps(10));
    for (caps, as_static) in samples {
        assert_eq!(caps, [full; 2]);
        assert!(as_static, "a decision moved with the sole uplink down");
    }
}

#[test]
fn pase_cross_pod_afct_is_no_worse_than_dctcp_on_a_fat_tree() {
    // fat_tree(4) with 1 G fabric links: a pod's four 1 G hosts send
    // ~1.9 G across the core at load 0.6, more than one agg–core link
    // carries. Arbitrated against the tier's summed capacity, PASE's
    // cross-pod flows finish no slower than DCTCP's.
    let scenario = Scenario {
        name: "fat-tree-cross-pod",
        topo: TopologySpec::FatTree {
            k: 4,
            access: Rate::from_gbps(1),
            fabric: Rate::from_gbps(1),
            link_delay: SimDuration::from_micros(25),
        },
        pattern: Pattern::AllToAll,
        sizes: SizeDist::UniformBytes {
            lo: 2_000,
            hi: 198_000,
        },
        deadlines: None,
        n_background: 0,
        n_flows: 600,
    };
    let cross_pod_afct_ms = |scheme: Scheme| {
        let mut pod = Vec::new();
        let (m, sim) = RunSpec::new(scheme, scenario, 0.6, 1).run_with(|sim, hosts, _| {
            pod = vec![usize::MAX; sim.topo().n_nodes()];
            for (i, h) in hosts.iter().enumerate() {
                pod[h.index()] = i / 4;
            }
        });
        assert_eq!(m.n_completed, m.n_flows, "{}", scheme.name());
        let fcts: Vec<f64> = sim
            .stats()
            .flows()
            .filter(|r| pod[r.spec.src.index()] != pod[r.spec.dst.index()])
            .map(|r| r.fct().expect("completed").as_secs_f64() * 1e3)
            .collect();
        assert!(fcts.len() > scenario.n_flows / 2);
        fcts.iter().sum::<f64>() / fcts.len() as f64
    };
    let (pase, dctcp) = (
        cross_pod_afct_ms(Scheme::Pase),
        cross_pod_afct_ms(Scheme::Dctcp),
    );
    assert!(
        pase <= dctcp,
        "cross-pod AFCT: PASE {pase:.3} ms, DCTCP {dctcp:.3} ms"
    );
}
