//! The PASE control plane's per-node books, pinned: for every node, how
//! many control messages its arbitrator process handled, how many
//! requests it pruned and how many it forwarded up the tree, and its peak
//! inbox depth — plus every flow's terminal record. The aggregate digests
//! elsewhere (`stats_fingerprint`, `tests/timer_identity.rs`) fold totals
//! only, so a change that charged a climb or a prune to the wrong node
//! would pass them; this one would not.
//!
//! Two shapes (the single-rooted three-tier tree and the multi-rooted k=4
//! fat-tree, both 16 hosts) under the default configuration adapted to
//! the topology's RTT, with the optimizations off, and local-only.

use pase_repro::netsim::ids::NodeId;
use pase_repro::netsim::sim::{RunLimit, RunOutcome};
use pase_repro::netsim::time::SimTime;
use pase_repro::netsim::trace::{fnv1a, FNV1A_OFFSET};
use pase_repro::pase::PaseConfig;
use pase_repro::workloads::{Pattern, Scenario, Scheme, SizeDist, TopologySpec};

/// Per-node totals of one run, summed over all nodes, for the sanity
/// checks that keep the pin meaningful.
#[derive(Debug, Default)]
struct Totals {
    processed: u64,
    pruned: u64,
    climbed: u64,
    /// Nodes that processed at least one control message.
    active_nodes: usize,
}

/// `(digest, totals)` of one pinned run.
fn run(topo: TopologySpec, cfg: PaseConfig) -> (u64, Totals) {
    let scenario = Scenario {
        name: "control-books",
        topo,
        pattern: Pattern::AllToAll,
        sizes: SizeDist::UniformBytes {
            lo: 2_000,
            hi: 198_000,
        },
        deadlines: None,
        n_background: 0,
        n_flows: 200,
    };
    let (mut sim, hosts) = Scheme::PaseWith(cfg).build_sim(&scenario.topo);
    sim.add_flows(scenario.generate_flows(0.7, 3, &hosts));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let n_nodes = sim.topo().n_nodes();
    let st = sim.stats();
    let mut h = FNV1A_OFFSET;
    let mut fold = |v: u64| h = fnv1a(h, &v.to_le_bytes());
    let mut totals = Totals::default();
    for i in 0..n_nodes {
        let c = st.node(NodeId(i as u32));
        for v in [
            i as u64,
            c.ctrl_processed,
            c.arb_pruned,
            c.arb_climbed,
            c.ctrl_peak_epoch,
        ] {
            fold(v);
        }
        totals.processed += c.ctrl_processed;
        totals.pruned += c.arb_pruned;
        totals.climbed += c.arb_climbed;
        totals.active_nodes += (c.ctrl_processed > 0) as usize;
    }
    for rec in st.flows() {
        for v in [
            rec.spec.id.0,
            rec.completed.map_or(u64::MAX, |t| t.as_nanos()),
            rec.aborted as u64,
            rec.retransmitted_bytes,
            rec.timeouts,
            rec.probes_sent,
            rec.drops,
        ] {
            fold(v);
        }
    }
    (h, totals)
}

#[test]
fn per_node_control_books_are_pinned() {
    let shapes = [
        ("three-tier", TopologySpec::small_three_tier(4)),
        ("fat-tree-4", TopologySpec::fat_tree(4)),
    ];
    let pinned: [[u64; 3]; 2] = [
        [
            0x0732_6816_8ccf_989c,
            0x81d5_dbe1_68bf_2666,
            0xbbff_060d_ff7b_3b41,
        ],
        [
            0xcfe4_84a0_24f9_4e06,
            0xaf23_80d9_4918_82cd,
            0x2f3c_4b0a_696d_66df,
        ],
    ];
    let mut moved = Vec::new();
    for ((name, topo), want) in shapes.into_iter().zip(pinned) {
        let base = Scheme::pase_config_for(&topo);
        let configs = [
            ("default", base),
            ("without_optimizations", base.without_optimizations()),
            ("local_only", base.local_only()),
        ];
        for ((label, cfg), want) in configs.into_iter().zip(want) {
            let (got, t) = run(topo, cfg);
            println!("{name} {label}: {got:#018x} {t:?}");
            if cfg.end_to_end {
                // Requests both climb and get pruned, on hosts and
                // switches alike, so the pin sees every decision point.
                assert!(t.climbed > 0, "{name} {label}: nothing climbed");
                assert!(
                    t.active_nodes > topo.n_hosts(),
                    "{name} {label}: no switch arbitrated"
                );
                if cfg.prune_depth.is_some() {
                    assert!(t.pruned > 0, "{name} {label}: nothing pruned");
                }
            } else {
                // Local-only: no control message is ever sent.
                assert_eq!((t.processed, t.pruned, t.climbed), (0, 0, 0));
            }
            if got != want {
                moved.push(format!("{name} {label}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "per-node control books moved:\n{}",
        moved.join("\n")
    );
}
