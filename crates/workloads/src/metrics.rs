//! Experiment metrics: AFCT, tail FCT, CDFs, application throughput,
//! loss rate and control-plane overhead.
//!
//! Two collection modes (see [`MetricsMode`]): the exact path stores and
//! sorts every measured FCT — the historical default, kept byte-identical
//! so existing figures don't move — and the sketch path streams FCTs
//! through a Greenwald–Khanna quantile sketch, holding O(1/ε · log εn)
//! summary state instead of one `f64` per flow. At the production-scale
//! end (100k+ flows per run, many runs in flight across worker threads)
//! the sketch keeps percentile collection memory-flat.

use netsim::engine::WheelStats;
use netsim::event::EventKind;
use netsim::invariants::InvariantReport;
use netsim::sim::{RunOutcome, Simulation};

/// How [`collect_with`] aggregates per-flow completion times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// Store every measured FCT in a sorted `Vec<f64>` and compute exact
    /// interpolated percentiles. The default: all historical figures and
    /// their byte-identity checks ride this path.
    #[default]
    Exact,
    /// Stream FCTs into a [`QuantileSketch`] (ε = [`SKETCH_EPSILON`]).
    /// `fcts_ms` stays empty, AFCT is exact (running sum), and
    /// `median_ms`/`p99_ms` carry the sketch's rank-error guarantee
    /// instead of exact order statistics.
    Sketch,
}

/// Rank-error bound for [`MetricsMode::Sketch`]: a reported quantile `q`
/// is the value of a real observation whose rank is within ±ε·n of q·n.
/// At ε = 0.005 the reported p99 of 100k flows lies between the true
/// p98.5 and p99.5.
pub const SKETCH_EPSILON: f64 = 0.005;

/// One Greenwald–Khanna summary tuple: a stored observation `v`, the gap
/// `g` between its minimum possible rank and its predecessor's, and the
/// extra rank uncertainty `delta` (GK01, §2).
#[derive(Debug, Clone, Copy)]
struct GkTuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// A Greenwald–Khanna ε-approximate quantile sketch over a stream of
/// `f64` observations.
///
/// Space is O(1/ε · log(εn)) tuples; insert is a binary search plus an
/// amortized compress pass every ⌊1/(2ε)⌋ insertions. Every answer is an
/// actual inserted value whose rank is within ±ε·n of the requested one —
/// the bound the sketch-vs-exact tests assert at p50/p99.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    epsilon: f64,
    tuples: Vec<GkTuple>,
    n: u64,
    sum: f64,
    since_compress: u64,
}

impl QuantileSketch {
    /// An empty sketch with rank-error bound `epsilon` (0 < ε < 1).
    pub fn new(epsilon: f64) -> QuantileSketch {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon out of range");
        QuantileSketch {
            epsilon,
            tuples: Vec::new(),
            n: 0,
            sum: 0.0,
            since_compress: 0,
        }
    }

    /// The sketch's rank-error bound.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Observations inserted so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact running mean of all observations (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.sum / self.n as f64
        }
    }

    /// Summary tuples currently held (space diagnostic).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the sketch has seen no observations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Insert one observation (must not be NaN).
    pub fn insert(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN observation");
        self.n += 1;
        self.sum += v;
        let band = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        // First tuple at or beyond v; insert before it.
        let pos = self.tuples.partition_point(|t| t.v < v);
        let delta = if pos == 0 || pos == self.tuples.len() {
            0 // new extreme: its rank is known exactly
        } else {
            band.saturating_sub(1)
        };
        self.tuples.insert(pos, GkTuple { v, g: 1, delta });
        self.since_compress += 1;
        if self.since_compress >= (1.0 / (2.0 * self.epsilon)) as u64 {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Merge tuples whose combined rank uncertainty still fits the band,
    /// keeping the summary at its O(1/ε · log εn) size.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let band = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        // Sweep from the tail; merging tuple i into its successor keeps
        // the successor's value and widens its gap. The first and last
        // tuples (the observed extremes) are never removed.
        let mut i = self.tuples.len() - 2;
        while i >= 1 {
            let merged_g = self.tuples[i].g + self.tuples[i + 1].g;
            if merged_g + self.tuples[i + 1].delta < band {
                self.tuples[i + 1].g = merged_g;
                self.tuples.remove(i);
            }
            i -= 1;
        }
    }

    /// The value at quantile `q` ∈ [0, 1], within ±ε·n ranks (NaN when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.n == 0 {
            return f64::NAN;
        }
        let target = (q * self.n as f64).ceil().max(1.0) as u64;
        let slack = (self.epsilon * self.n as f64) as u64;
        let mut rmin = 0u64;
        let mut prev = self.tuples[0].v;
        for t in &self.tuples {
            rmin += t.g;
            if rmin + t.delta > target + slack {
                return prev;
            }
            prev = t.v;
        }
        prev
    }
}

/// Metrics from one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Why the run stopped. [`RunOutcome::TimeLimit`] means the wall
    /// backstop fired with measured flows still in flight: the FCT
    /// population is truncated and sweeps must say so instead of
    /// silently averaging it (see [`crate::runner`]).
    pub outcome: RunOutcome,
    /// Measured flows that completed (excluding aborted ones).
    pub n_completed: usize,
    /// Measured flows registered.
    pub n_flows: usize,
    /// Sorted flow completion times, milliseconds (completed, non-aborted
    /// measured flows). Empty under [`MetricsMode::Sketch`], which keeps
    /// only the summary statistics above.
    pub fcts_ms: Vec<f64>,
    /// Average FCT (ms).
    pub afct_ms: f64,
    /// Median FCT (ms).
    pub median_ms: f64,
    /// 99th-percentile FCT (ms).
    pub p99_ms: f64,
    /// Fraction of deadline flows that met their deadline (`None` when the
    /// workload has no deadlines). The paper calls this *application
    /// throughput*.
    pub app_throughput: Option<f64>,
    /// Data-packet loss rate.
    pub loss_rate: f64,
    /// Control-plane packets put on the wire.
    pub ctrl_pkts: u64,
    /// Control-plane bytes put on the wire (per-scheme bandwidth
    /// accounting: zero for schemes with no control plane).
    pub ctrl_bytes: u64,
    /// Control packets per second of simulated time.
    pub ctrl_per_sec: f64,
    /// Control messages processed by arbitrators.
    pub ctrl_processed: u64,
    /// Control messages shed by overloaded arbitrators.
    pub ctrl_shed: u64,
    /// PASE fallbacks on a silent control channel.
    pub fallback_entries_silent: u64,
    /// PASE fallbacks on a shedding control channel.
    pub fallback_entries_shed: u64,
    /// PASE flows that left fallback.
    pub fallback_exits: u64,
    /// Total retransmission timeouts across measured flows.
    pub timeouts: u64,
    /// Total retransmitted bytes across measured flows.
    pub retransmitted_bytes: u64,
    /// Total probes sent.
    pub probes: u64,
    /// Simulated duration (s).
    pub sim_seconds: f64,
    /// Events executed (engine cost metric).
    pub events: u64,
    /// `events` by kind, in [`EventKind::KINDS`] order.
    pub events_by_kind: [u64; EventKind::KINDS.len()],
    /// Timer arms that queued no event (see [`netsim::timer`]).
    pub timer_arms_superseded: u64,
    /// The event queue's internal traffic (see [`WheelStats`]).
    pub wheel: WheelStats,
    /// The busiest link's utilization over the run (switch ports only).
    pub max_link_utilization: f64,
    /// The invariant oracle's audit of the run, recorded by
    /// [`crate::RunSpec::run_with`] (which always audits); [`collect`]
    /// alone does not audit and leaves it empty.
    pub invariants: InvariantReport,
}

/// `Deliver 1234 (56.7 %), TxComplete ...`: one count and its share per
/// event kind, for the binaries that report where the events went.
pub fn events_by_kind_line(by_kind: &[u64; EventKind::KINDS.len()]) -> String {
    let total = by_kind.iter().sum::<u64>().max(1) as f64;
    let cells: Vec<String> = EventKind::KINDS
        .iter()
        .zip(by_kind)
        .map(|(name, &n)| format!("{name} {n} ({:.1} %)", 100.0 * n as f64 / total))
        .collect();
    cells.join(", ")
}

/// Interpolated percentile (p in [0, 100]) of a sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p));
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Collect metrics from a finished run on the exact (historical) path.
/// `outcome` is what [`Simulation::run`] returned for it; callers must
/// pass it through rather than assuming completion, so truncated runs
/// stay visible.
pub fn collect(sim: &Simulation, outcome: RunOutcome) -> RunMetrics {
    collect_with(sim, outcome, MetricsMode::Exact)
}

/// [`collect`] with an explicit [`MetricsMode`].
pub fn collect_with(sim: &Simulation, outcome: RunOutcome, mode: MetricsMode) -> RunMetrics {
    let stats = sim.stats();
    let mut fcts_ms: Vec<f64> = Vec::new();
    let mut sketch = match mode {
        MetricsMode::Exact => None,
        MetricsMode::Sketch => Some(QuantileSketch::new(SKETCH_EPSILON)),
    };
    let mut deadline_total = 0usize;
    let mut deadline_met = 0usize;
    let mut timeouts = 0u64;
    let mut retransmitted = 0u64;
    let mut probes = 0u64;
    let mut n_flows = 0usize;
    for rec in stats.flows() {
        if !rec.spec.measured {
            continue;
        }
        n_flows += 1;
        timeouts += rec.timeouts;
        retransmitted += rec.retransmitted_bytes;
        probes += rec.probes_sent;
        if let Some(met) = rec.met_deadline() {
            deadline_total += 1;
            if met {
                deadline_met += 1;
            }
        }
        if rec.aborted {
            continue;
        }
        if let Some(fct) = rec.fct() {
            let ms = fct.as_millis_f64();
            match sketch.as_mut() {
                Some(s) => s.insert(ms),
                None => fcts_ms.push(ms),
            }
        }
    }
    let (n_completed, afct_ms, median_ms, p99_ms) = match sketch.as_ref() {
        None => {
            fcts_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN FCTs"));
            let n_completed = fcts_ms.len();
            let afct_ms = if n_completed == 0 {
                f64::NAN
            } else {
                fcts_ms.iter().sum::<f64>() / n_completed as f64
            };
            (
                n_completed,
                afct_ms,
                percentile(&fcts_ms, 50.0),
                percentile(&fcts_ms, 99.0),
            )
        }
        Some(s) => (
            s.count() as usize,
            s.mean(),
            s.quantile(0.5),
            s.quantile(0.99),
        ),
    };
    let sim_seconds = sim.now().as_secs_f64();
    let max_link_utilization = sim
        .nodes()
        .iter()
        .filter_map(|n| match n {
            netsim::node::Node::Switch(s) => Some(s),
            _ => None,
        })
        .flat_map(|s| s.ports().iter())
        .map(|p| p.utilization(sim.now()))
        .fold(0.0, f64::max);
    RunMetrics {
        outcome,
        n_completed,
        n_flows,
        afct_ms,
        median_ms,
        p99_ms,
        app_throughput: if deadline_total > 0 {
            Some(deadline_met as f64 / deadline_total as f64)
        } else {
            None
        },
        loss_rate: stats.data_loss_rate(),
        ctrl_pkts: stats.ctrl_pkts,
        ctrl_bytes: stats.ctrl_bytes,
        ctrl_per_sec: if sim_seconds > 0.0 {
            stats.ctrl_pkts as f64 / sim_seconds
        } else {
            0.0
        },
        ctrl_processed: stats.ctrl_msgs_processed,
        ctrl_shed: stats.ctrl_msgs_shed,
        fallback_entries_silent: stats.fallback_entries_silent,
        fallback_entries_shed: stats.fallback_entries_shed,
        fallback_exits: stats.fallback_exits,
        timeouts,
        retransmitted_bytes: retransmitted,
        probes,
        sim_seconds,
        events: stats.events_executed,
        events_by_kind: stats.events_by_kind,
        timer_arms_superseded: stats.timer_arms_superseded,
        wheel: sim.scheduler().wheel_stats(),
        max_link_utilization,
        fcts_ms,
        invariants: InvariantReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert!((percentile(&xs, 75.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 99.0) - 4.96).abs() < 1e-9);
    }

    #[test]
    fn percentile_edge_cases() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    /// A seeded synthetic FCT population shaped like real runs: a
    /// short-flow mode around `base` ms with a heavy Pareto-ish tail.
    fn synthetic_fcts(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = netsim::rng::Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u = rng.gen_f64_open();
                let base = 0.5 + 4.0 * rng.gen_f64();
                // Inverse-CDF Pareto tail (alpha = 1.5) on top of the base.
                base * (1.0 - u).powf(-1.0 / 1.5)
            })
            .collect()
    }

    /// The rank of `v` within the sorted population, as the midpoint of
    /// its tied range (the sketch may return any tied duplicate).
    fn rank_of(sorted: &[f64], v: f64) -> f64 {
        let lo = sorted.partition_point(|&x| x < v);
        let hi = sorted.partition_point(|&x| x <= v);
        (lo + hi) as f64 / 2.0
    }

    #[test]
    fn sketch_meets_rank_error_bound_at_p50_and_p99() {
        // The GK guarantee: quantile(q) returns an observed value whose
        // rank is within ±ε·n of q·n. Asserted on several seeds and
        // sizes, at the two quantiles the experiments report.
        for seed in [1u64, 7, 42] {
            for n in [1_000usize, 20_000] {
                let xs = synthetic_fcts(seed, n);
                let mut sketch = QuantileSketch::new(SKETCH_EPSILON);
                for &x in &xs {
                    sketch.insert(x);
                }
                let mut sorted = xs.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for q in [0.5f64, 0.99] {
                    let got = sketch.quantile(q);
                    assert!(
                        sorted.contains(&got),
                        "sketch answers must be real observations"
                    );
                    let rank = rank_of(&sorted, got);
                    let target = q * n as f64;
                    // +1 covers the ceil/midpoint discretization at tiny ε·n.
                    let tol = SKETCH_EPSILON * n as f64 + 1.0;
                    assert!(
                        (rank - target).abs() <= tol,
                        "seed {seed} n {n} q {q}: rank {rank} vs target {target} (tol {tol})"
                    );
                }
                // Exact mean comes along for free.
                let mean = xs.iter().sum::<f64>() / n as f64;
                assert!((sketch.mean() - mean).abs() < 1e-9 * mean.abs());
                assert_eq!(sketch.count(), n as u64);
                // And the summary must actually be a summary: GK space is
                // O(1/ε · log εn), independent of n to first order — a
                // few hundred tuples at ε = 0.005 regardless of stream
                // length (at n = 20k that is already a 40× reduction).
                assert!(
                    sketch.len() <= 800,
                    "sketch kept {} tuples for {n} observations",
                    sketch.len()
                );
            }
        }
    }

    #[test]
    fn sketch_handles_extremes_and_small_streams() {
        let mut s = QuantileSketch::new(0.01);
        assert!(s.quantile(0.5).is_nan());
        assert!(s.is_empty());
        s.insert(3.0);
        assert_eq!(s.quantile(0.0), 3.0);
        assert_eq!(s.quantile(1.0), 3.0);
        for i in 0..10 {
            s.insert(i as f64);
        }
        // Min and max are tracked exactly (delta = 0 at the extremes).
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 9.0);
        // Quantiles are monotone in q.
        let qs: Vec<f64> = (0..=10).map(|i| s.quantile(i as f64 / 10.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "non-monotone quantiles: {qs:?}");
        }
    }
}
