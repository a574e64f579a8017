//! Figure 3: the toy multi-link example showing the cost of switch-local
//! prioritization.
//!
//! Flow 1 (src1 → dst1) has the highest priority, flow 2 (src2 → dst1)
//! medium, flow 3 (src2 → dst2) the lowest. Flows 1 and 2 share dst1's
//! downlink, so only flow 1 should progress there; but pFabric keeps
//! transmitting flow 2's packets on src2's uplink — where they beat
//! flow 3's — only to drop them downstream. Flow 3, which shares *no*
//! link with flow 1, gets stalled. PASE's arbitration assigns flow 2 a
//! low queue end-to-end, letting flow 3 run in parallel with flow 1.

use netsim::prelude::*;
use pfabric::{PFabricConfig, PFabricQdisc};
use workloads::{run_cases, Scheme, TopologySpec};

use crate::opts::ExpOpts;
use crate::report::FigResult;

const MB: u64 = 1_000_000;

/// Flow sizes: flow 1 smallest (highest priority) ... flow 3 largest.
const SIZES: [u64; 3] = [MB, 2 * MB, 3 * MB];

/// The three flows on the rack's hosts src1, src2, dst1, dst2.
fn add_toy_flows(sim: &mut Simulation, hosts: &[NodeId]) {
    let (src1, src2, dst1, dst2) = (hosts[0], hosts[1], hosts[2], hosts[3]);
    let pairs = [(src1, dst1), (src2, dst1), (src2, dst2)];
    for (i, (src, dst)) in pairs.into_iter().enumerate() {
        let id = FlowId(i as u64);
        sim.add_flow(FlowSpec::new(id, src, dst, SIZES[i], SimTime::ZERO));
    }
}

fn fcts_ms(sim: &Simulation) -> Vec<f64> {
    (0..3)
        .map(|i| {
            sim.stats()
                .flow(FlowId(i))
                .and_then(|r| r.fct())
                .map_or(f64::NAN, |d| d.as_millis_f64())
        })
        .collect()
}

/// Which of the two toy fabrics a case runs.
#[derive(Debug, Clone, Copy)]
enum ToyFabric {
    PFabric,
    Pase,
}

/// One toy case end to end on a four-host rack: (per-flow FCTs ms, data
/// packets dropped).
fn run_toy(fabric: ToyFabric) -> (Vec<f64>, u64) {
    let rack = TopologySpec::intra_rack(4);
    let (mut sim, hosts) = match fabric {
        ToyFabric::PFabric => {
            // Table 3's defaults (a 38-packet window, a 1 ms RTO) on a
            // 24-packet queue, which no `Scheme` carries.
            let (net, hosts) = rack.build(pfabric::agents(PFabricConfig::default()), &|_| {
                Box::new(PFabricQdisc::new(24))
            });
            (Simulation::new(net), hosts)
        }
        ToyFabric::Pase => Scheme::Pase.build_sim(&rack),
    };
    add_toy_flows(&mut sim, &hosts);
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(60)));
    (fcts_ms(&sim), sim.stats().data_pkts_dropped)
}

/// Regenerate Figure 3 (as per-flow FCTs under both fabrics).
pub fn run(opts: &ExpOpts) -> FigResult {
    let fabrics = [ToyFabric::PFabric, ToyFabric::Pase];
    let mut results = run_cases(&fabrics, opts.jobs, |&fabric| run_toy(fabric));
    let (pase, pase_drops) = results.pop().expect("PASE case");
    let (pf, pf_drops) = results.pop().expect("pFabric case");

    let mut fig = FigResult::new(
        "fig03",
        "Toy multi-link example: per-flow FCT",
        "flow#",
        "FCT (ms)",
        vec![1.0, 2.0, 3.0],
    );
    fig.push_series("pFabric", pf.clone());
    fig.push_series("PASE", pase.clone());
    // Ideal: flow 3 runs in parallel with flow 1 => ~size3/1Gbps = 24 ms
    // + (flow2 tail). pFabric stalls flow 3 behind flow 2's doomed
    // packets.
    fig.note(format!(
        "paper shape: pFabric stalls flow 3 (measured {:.1} ms) while PASE lets it run in parallel with flow 1 (measured {:.1} ms)",
        pf[2], pase[2]
    ));
    fig.note(format!(
        "pFabric drops {pf_drops} data packets on the toy; PASE drops {pase_drops}"
    ));
    fig
}
