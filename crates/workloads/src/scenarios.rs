//! The paper's evaluation scenarios (§4.1–§4.4).
//!
//! A [`Scenario`] bundles a topology, a traffic pattern, a size/deadline
//! workload and the capacity that "offered load" normalizes against. Flow
//! lists are generated deterministically from `(scenario, load, seed)`.

use netsim::flow::FlowSpec;
use netsim::ids::{FlowId, NodeId};
use netsim::rng::Rng;
use netsim::time::{Rate, SimTime};
use netsim::topology::TopologySpec;
use transport::MSS;

use crate::flowgen::{arrival_rate, DeadlineDist, PoissonArrivals, SizeDist};

/// Who talks to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Every host in the left half sends to a uniform-random host in the
    /// right half (the paper's left-right inter-rack scenario, §4.2.1:
    /// front-end servers in one subtree, back-end storage in the other).
    LeftRight,
    /// Uniform-random (src, dst) pairs within the host set, src ≠ dst
    /// (the intra-rack all-to-all scenarios).
    AllToAll,
    /// All clients send to one server (the testbed scenario: 9 → 1).
    Incast {
        /// Index (into the host list) of the receiving server.
        server: usize,
    },
}

/// A complete experiment description.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Human-readable name (used in reports).
    pub name: &'static str,
    /// Topology recipe.
    pub topo: TopologySpec,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Flow size distribution.
    pub sizes: SizeDist,
    /// Deadline distribution, if this is a deadline workload.
    pub deadlines: Option<DeadlineDist>,
    /// Long-lived background flows (paper: 2, "the 75th percentile of
    /// multiplexing in data centers").
    pub n_background: usize,
    /// Number of measured (short) flows to generate.
    pub n_flows: usize,
}

impl Scenario {
    /// Left-right inter-rack on the baseline topology (Figs. 9a/9b/10a/
    /// 10b/11/12): flows U[2 KB, 198 KB], 2 background flows, load
    /// normalized against the aggregation–core capacity (the bottleneck).
    pub fn left_right(hosts_per_rack: usize, n_flows: usize) -> Scenario {
        Scenario {
            name: "left-right",
            topo: TopologySpec::ThreeTier {
                hosts_per_rack,
                racks: 4,
                access: Rate::from_gbps(1),
                fabric: Rate::from_gbps(10),
                link_delay: netsim::time::SimDuration::from_micros(25),
            },
            pattern: Pattern::LeftRight,
            sizes: SizeDist::UniformBytes {
                lo: 2_000,
                hi: 198_000,
            },
            deadlines: None,
            n_background: 2,
            n_flows,
        }
    }

    /// Intra-rack all-to-all with the baseline query sizes (Figs. 4/10c).
    pub fn all_to_all_intra(hosts: usize, n_flows: usize) -> Scenario {
        Scenario {
            name: "all-to-all-intra",
            topo: TopologySpec::intra_rack(hosts),
            pattern: Pattern::AllToAll,
            sizes: SizeDist::UniformBytes {
                lo: 2_000,
                hi: 198_000,
            },
            deadlines: None,
            n_background: 2,
            n_flows,
        }
    }

    /// The D2TCP-replica deadline scenario (Figs. 1/9c and the Fig. 2
    /// AFCT variant): 20 machines, U[100 KB, 500 KB], deadlines
    /// U[5, 25] ms, 2 background flows.
    pub fn deadline_intra_rack(n_flows: usize) -> Scenario {
        Scenario {
            name: "deadline-intra-rack",
            topo: TopologySpec::intra_rack(20),
            pattern: Pattern::AllToAll,
            sizes: SizeDist::UniformBytes {
                lo: 100_000,
                hi: 500_000,
            },
            deadlines: Some(DeadlineDist::paper_default()),
            n_background: 2,
            n_flows,
        }
    }

    /// Same as [`Scenario::deadline_intra_rack`] but without deadlines
    /// (Fig. 2 measures AFCT on this workload).
    pub fn medium_intra_rack(n_flows: usize) -> Scenario {
        Scenario {
            deadlines: None,
            name: "medium-intra-rack",
            ..Scenario::deadline_intra_rack(n_flows)
        }
    }

    /// Extension beyond the paper: a heavy-tailed, web-search-like size
    /// mix on the left-right topology. The paper's intro motivates search
    /// workloads; this scenario stresses SRPT with a long tail.
    pub fn websearch_left_right(hosts_per_rack: usize, n_flows: usize) -> Scenario {
        Scenario {
            name: "websearch-left-right",
            sizes: SizeDist::WebSearch,
            ..Scenario::left_right(hosts_per_rack, n_flows)
        }
    }

    /// Extension beyond the paper: left-right over the small leaf–spine
    /// fabric (gray-failure experiments). Inter-leaf flows have two
    /// equal-cost spine paths, so health-aware re-hashing has a healthy
    /// sibling to move to when one uplink degrades.
    pub fn gray_leaf_spine(hosts_per_leaf: usize, n_flows: usize) -> Scenario {
        Scenario {
            name: "gray-leaf-spine",
            topo: TopologySpec::small_leaf_spine(hosts_per_leaf),
            pattern: Pattern::LeftRight,
            sizes: SizeDist::UniformBytes {
                lo: 2_000,
                hi: 198_000,
            },
            deadlines: None,
            n_background: 2,
            n_flows,
        }
    }

    /// Extension beyond the paper: all-to-all short flows over the small
    /// leaf–spine fabric (control-plane overload experiments). Every host
    /// arbitrates traffic in both directions, so a control storm on any
    /// arbitrator — endpoint or switch — has senders to pressure.
    pub fn overload_leaf_spine(hosts_per_leaf: usize, n_flows: usize) -> Scenario {
        Scenario {
            name: "overload-leaf-spine",
            topo: TopologySpec::small_leaf_spine(hosts_per_leaf),
            pattern: Pattern::AllToAll,
            sizes: SizeDist::UniformBytes {
                lo: 2_000,
                hi: 100_000,
            },
            deadlines: None,
            n_background: 0,
            n_flows,
        }
    }

    /// The testbed scenario (Fig. 13b): 9 clients → 1 server, 1 Gbps,
    /// 250 µs RTT, U[100 KB, 500 KB], one background flow.
    pub fn testbed(n_flows: usize) -> Scenario {
        Scenario {
            name: "testbed",
            topo: TopologySpec::testbed(),
            pattern: Pattern::Incast { server: 9 },
            sizes: SizeDist::UniformBytes {
                lo: 100_000,
                hi: 500_000,
            },
            deadlines: None,
            n_background: 1,
            n_flows,
        }
    }

    /// The capacity that "offered load" is a fraction of.
    pub fn load_capacity(&self) -> Rate {
        match self.pattern {
            // The aggregation-core hop is the shared bottleneck.
            Pattern::LeftRight => self.topo.fabric_rate(),
            // Per-host access-link load; the arrival rate scales by the
            // source count in `arrivals_per_sec`.
            Pattern::AllToAll => self.topo.access_rate(),
            // The server downlink.
            Pattern::Incast { .. } => self.topo.access_rate(),
        }
    }

    /// Flow arrival rate for an offered load.
    pub fn arrivals_per_sec(&self, load: f64) -> f64 {
        let base = arrival_rate(load, self.load_capacity(), self.sizes.mean_bytes(), MSS);
        match self.pattern {
            // All-to-all load is per access link: with n uniform sources
            // each link sees 1/n of the total arrivals.
            Pattern::AllToAll => base * self.topo.n_hosts() as f64,
            Pattern::LeftRight | Pattern::Incast { .. } => base,
        }
    }

    /// Generate the flow list (background flows first, ids `0..`).
    pub fn generate_flows(&self, load: f64, seed: u64, hosts: &[NodeId]) -> Vec<FlowSpec> {
        assert_eq!(hosts.len(), self.topo.n_hosts());
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xda3e);
        let mut arrivals = PoissonArrivals::new(self.arrivals_per_sec(load), seed);
        let mut flows = Vec::with_capacity(self.n_flows + self.n_background);
        let n = hosts.len();

        // Background long flows: deterministic distinct pairs.
        for b in 0..self.n_background {
            let src = hosts[(2 * b) % n];
            let dst = hosts[(2 * b + 1) % n];
            flows.push(FlowSpec::background(
                FlowId(flows.len() as u64),
                src,
                dst,
                SimTime::ZERO,
            ));
        }

        for _ in 0..self.n_flows {
            let (src, dst) = self.sample_pair(&mut rng, hosts);
            let start = arrivals.next_arrival();
            let size = self.sizes.sample(&mut rng).max(1);
            let mut spec = FlowSpec::new(FlowId(flows.len() as u64), src, dst, size, start);
            if let Some(d) = self.deadlines {
                spec = spec.with_deadline(d.sample(&mut rng));
            }
            flows.push(spec);
        }
        flows
    }

    fn sample_pair(&self, rng: &mut Rng, hosts: &[NodeId]) -> (NodeId, NodeId) {
        let n = hosts.len();
        match self.pattern {
            Pattern::LeftRight => {
                let half = n / 2;
                let src = hosts[rng.gen_index(half)];
                let dst = hosts[half + rng.gen_index(n - half)];
                (src, dst)
            }
            Pattern::AllToAll => {
                let src = rng.gen_index(n);
                let mut dst = rng.gen_index(n - 1);
                if dst >= src {
                    dst += 1;
                }
                (hosts[src], hosts[dst])
            }
            Pattern::Incast { server } => {
                let mut src = rng.gen_index(n - 1);
                if src >= server {
                    src += 1;
                }
                (hosts[src], hosts[server])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).collect()
    }

    #[test]
    fn left_right_pairs_cross_the_middle() {
        let s = Scenario::left_right(5, 200);
        let hs = hosts(20);
        let flows = s.generate_flows(0.5, 1, &hs);
        assert_eq!(flows.len(), 202);
        for f in flows.iter().skip(2) {
            assert!(f.src.0 < 10, "source in left half");
            assert!(f.dst.0 >= 10, "destination in right half");
        }
    }

    #[test]
    fn gray_leaf_spine_pairs_cross_the_leaves() {
        let s = Scenario::gray_leaf_spine(3, 100);
        assert_eq!(s.topo.n_hosts(), 12);
        let hs = hosts(12);
        for f in s.generate_flows(0.5, 1, &hs).iter().skip(2) {
            assert!(f.src.0 < 6, "source in the left leaves");
            assert!(f.dst.0 >= 6, "destination in the right leaves");
        }
    }

    #[test]
    fn all_to_all_never_self_flows() {
        let s = Scenario::all_to_all_intra(8, 500);
        let hs = hosts(8);
        for f in s.generate_flows(0.7, 3, &hs) {
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn incast_targets_server() {
        let s = Scenario::testbed(100);
        let hs = hosts(10);
        for f in s.generate_flows(0.5, 9, &hs).iter().skip(1) {
            assert_eq!(f.dst, hs[9]);
            assert_ne!(f.src, hs[9]);
        }
    }

    #[test]
    fn deadline_scenario_attaches_deadlines() {
        let s = Scenario::deadline_intra_rack(50);
        let hs = hosts(20);
        let flows = s.generate_flows(0.5, 2, &hs);
        assert!(flows.iter().skip(2).all(|f| f.deadline.is_some()));
        // Background flows carry no deadline.
        assert!(flows[0].deadline.is_none() && flows[0].is_background());
    }

    #[test]
    fn generation_is_deterministic() {
        let s = Scenario::all_to_all_intra(10, 100);
        let hs = hosts(10);
        assert_eq!(s.generate_flows(0.6, 5, &hs), s.generate_flows(0.6, 5, &hs));
        assert_ne!(s.generate_flows(0.6, 5, &hs), s.generate_flows(0.6, 6, &hs));
    }

    #[test]
    fn arrival_rate_scales_with_pattern() {
        let lr = Scenario::left_right(40, 10);
        // 10 Gbps bottleneck, 100 KB mean: ~12k flows/s at load 1.
        let r = lr.arrivals_per_sec(1.0);
        assert!((11_000.0..13_000.0).contains(&r), "{r}");
        let a2a = Scenario::all_to_all_intra(20, 10);
        // Per-host 1 Gbps at 100 KB: ~1.2k/s per host, x20 hosts.
        let r2 = a2a.arrivals_per_sec(1.0);
        assert!((22_000.0..26_000.0).contains(&r2), "{r2}");
    }

    #[test]
    fn flow_ids_are_dense_and_ordered() {
        let s = Scenario::medium_intra_rack(20);
        let hs = hosts(20);
        let flows = s.generate_flows(0.4, 7, &hs);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.id, FlowId(i as u64));
        }
        // Arrivals are non-decreasing.
        for w in flows.windows(2).skip(2) {
            assert!(w[0].start <= w[1].start);
        }
    }
}
