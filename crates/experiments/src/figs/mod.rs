//! One module per regenerated figure.
//!
//! | Module | Paper figure | Content |
//! |---|---|---|
//! | [`fig01`] | Fig. 1 | D2TCP/DCTCP vs pFabric, application throughput |
//! | [`fig02`] | Fig. 2 | PDQ vs DCTCP, AFCT (flow-switching overhead) |
//! | [`fig03`] | Fig. 3 | toy multi-link example, per-flow FCTs |
//! | [`fig04`] | Fig. 4 | pFabric loss rate vs load |
//! | [`fig09a`] | Fig. 9a | PASE vs L2DCT vs DCTCP, AFCT, left-right |
//! | [`fig09b`] | Fig. 9b | FCT distribution at 70% load, left-right |
//! | [`fig09c`] | Fig. 9c | PASE vs D2TCP vs DCTCP, application throughput |
//! | [`fig10a`] | Fig. 10a | PASE vs pFabric, 99th-percentile FCT |
//! | [`fig10b`] | Fig. 10b | PASE vs pFabric FCT distribution at 70% |
//! | [`fig10c`] | Fig. 10c | PASE vs pFabric, AFCT, all-to-all intra-rack |
//! | [`fig11`] | Fig. 11 | arbitration optimizations: AFCT + overhead |
//! | [`fig12a`] | Fig. 12a | end-to-end vs local-only arbitration |
//! | [`fig12b`] | Fig. 12b | AFCT vs number of priority queues |
//! | [`fig13a`] | Fig. 13a | PASE vs PASE-DCTCP (reference rate) |
//! | [`fig13b`] | Fig. 13b | testbed-like: PASE vs DCTCP |
//! | [`micro_probing`] | §4.3.2 | probing on/off at high load |

pub mod ablations;
pub mod common;
pub mod ext_faults;
pub mod ext_gray;
pub mod ext_incast;
pub mod ext_overload;
pub mod ext_scale;

pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig09a;
pub mod fig09b;
pub mod fig09c;
pub mod fig10a;
pub mod fig10b;
pub mod fig10c;
pub mod fig11;
pub mod fig12a;
pub mod fig12b;
pub mod fig13a;
pub mod fig13b;
pub mod micro_probing;

use crate::opts::ExpOpts;
use crate::report::FigResult;

/// A registered figure runner: one id, one or more result tables.
pub type FigFn = fn(&ExpOpts) -> Vec<FigResult>;

/// Every figure `run_all` knows, in paper order, by the id `--only`
/// selects it with.
pub const FIGURES: &[(&str, FigFn)] = &[
    ("fig01", |o| vec![fig01::run(o)]),
    ("fig02", |o| vec![fig02::run(o)]),
    ("fig03", |o| vec![fig03::run(o)]),
    ("fig04", |o| vec![fig04::run(o)]),
    ("fig09a", |o| vec![fig09a::run(o)]),
    ("fig09b", |o| vec![fig09b::run(o)]),
    ("fig09c", |o| vec![fig09c::run(o)]),
    ("fig10a", |o| vec![fig10a::run(o)]),
    ("fig10b", |o| vec![fig10b::run(o)]),
    ("fig10c", |o| vec![fig10c::run(o)]),
    ("fig11", fig11::run),
    ("fig12a", |o| vec![fig12a::run(o)]),
    ("fig12b", |o| vec![fig12b::run(o)]),
    ("fig13a", |o| vec![fig13a::run(o)]),
    ("fig13b", |o| vec![fig13b::run(o)]),
    ("micro_probing", |o| vec![micro_probing::run(o)]),
    ("ablations", ablations::run),
    ("ext_incast", |o| vec![ext_incast::run(o)]),
    ("ext_faults", |o| vec![ext_faults::run(o)]),
    ("ext_link_flap", |o| vec![ext_faults::run_link_flap(o)]),
    ("ext_gray", |o| vec![ext_gray::run(o)]),
    ("ext_overload", |o| vec![ext_overload::run(o)]),
    ("ext_scale", |o| vec![ext_scale::run(o)]),
];

/// Run every registered figure — or just `opts.only`, when set — and
/// return the results in paper order.
pub fn all(opts: &ExpOpts) -> Vec<FigResult> {
    FIGURES
        .iter()
        .filter(|(id, _)| opts.only.is_empty() || opts.only.iter().any(|only| only == id))
        .flat_map(|(_, run)| run(opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate figure id");
        assert_eq!(n, 23);
    }
}
