//! One run of one workload: warm-up, timed repetitions for the
//! requested number of seconds, the identical-work gate, and the metric
//! values of the untraced (end-to-end) or traced (per-layer) mode.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::micro::{self, median};
use crate::spans::{self, Span, Spans};
use crate::workloads::{chaos_fabric, jobs, Bench, Rep};

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted per repetition (measured flows; chaos cases).
    pub attempted: u64,
    /// Digest over per-flow terminal records, equal in every repetition.
    pub digest: u64,
    /// Timed repetitions (untraced, traced).
    pub reps: (usize, usize),
    /// Metric name → value: the end-to-end set, or the per-layer set.
    pub metrics: BTreeMap<String, f64>,
}

/// The quartiles of a sample, as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method). Needs two points or more.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two points");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = s.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let frac = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    })
}

/// Interquartile range over the median (0 for fewer than two points).
pub fn iqr_frac(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2
}

/// Where the traced mode writes `<workload>.trace.json`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn check_same_work(first: &Rep, rep: &Rep, what: &str) -> Result<(), String> {
    if rep.work == first.work {
        Ok(())
    } else {
        Err(format!(
            "{what} executed different work than the first repetition: {:?} vs {:?}",
            rep.work, first.work
        ))
    }
}

/// Run `bench`: one warm-up repetition (the reference every later one
/// must reproduce), then the end-to-end mode or the traced per-layer mode
/// for about `seconds`.
pub fn run(bench: Bench, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let first = bench.rep(jobs(), None, None)?;
    let clock = Instant::now();
    let spent = move || clock.elapsed().as_secs_f64();
    let (reps, metrics) = if trace {
        per_layer(&bench, &first, seconds, &spent)?
    } else {
        end_to_end(&bench, &first, seconds, &spent)?
    };
    Ok(Outcome {
        attempted: first.attempted,
        digest: first.work.digest,
        reps,
        metrics,
    })
}

type Measured = ((usize, usize), BTreeMap<String, f64>);

/// Untraced repetitions until `seconds` have passed (three at least):
/// medians of set-up and run time, this process's own `VmHWM`, and the
/// simulated results.
fn end_to_end(
    bench: &Bench,
    first: &Rep,
    seconds: f64,
    spent: &dyn Fn() -> f64,
) -> Result<Measured, String> {
    let min_reps = if bench.smoke { 1 } else { 3 };
    let mut reps = Vec::new();
    while reps.len() < min_reps || spent() < seconds {
        let rep = bench.rep(jobs(), None, None)?;
        check_same_work(first, &rep, &format!("timed repetition {}", reps.len() + 1))?;
        reps.push(rep);
    }
    eprintln!(
        "perfbench: {} run_s per repetition: {:?}",
        bench.name,
        reps.iter().map(|r| r.run_s).collect::<Vec<_>>()
    );
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| m.insert(k.to_string(), v);
    put("setup_s", median(reps.iter().map(|r| r.setup_s).collect()));
    put("run_s", median(reps.iter().map(|r| r.run_s).collect()));
    put("peak_rss_bytes", bench::read_peak_rss() as f64);
    put("sim_afct_ms", first.afct_ms);
    put("sim_p99_fct_ms", first.p99_ms());
    Ok(((reps.len(), 0), m))
}

/// The traced mode: the microbenchmark block, on `figure-sweep` one
/// repetition at a single job, then untraced and traced repetitions in
/// alternation until `seconds` have passed (one pair at least). Spans of
/// the traced repetitions go to [`out_dir`].
fn per_layer(
    bench: &Bench,
    first: &Rep,
    seconds: f64,
    spent: &dyn Fn() -> f64,
) -> Result<Measured, String> {
    let jobs = jobs();
    let budget = if bench.smoke {
        micro::Budget::smoke()
    } else {
        micro::Budget::full()
    };
    let mut m = micro::run_all(&budget, &chaos_fabric(bench.smoke), bench.seed);
    let one_job_run_s = if bench.name == "figure-sweep" {
        let rep = bench.rep(1, None, None)?;
        check_same_work(first, &rep, "the 1-job repetition")?;
        Some(rep.run_s)
    } else {
        None
    };

    let recorder = Spans::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    while traced_s.is_empty() || spent() < seconds {
        let plain = bench.rep(jobs, None, None)?;
        check_same_work(first, &plain, "an untraced repetition")?;
        plain_s.push(plain.run_s);
        let root = recorder.open("rep", None, None);
        let traced = bench.rep(jobs, Some(&recorder), Some(root));
        recorder.close(root);
        let traced = traced?;
        check_same_work(first, &traced, "a traced repetition")?;
        traced_s.push(traced.run_s);
    }

    let spans = recorder.snapshot();
    let run_s = median(plain_s.clone());
    m.extend(layer_metrics(bench, first, &spans, traced_s.len(), run_s));
    let mut put = |k: &str, v: f64| m.insert(k.to_string(), v);
    put(
        "workloads.exec.jobs",
        if bench.is_sweep() { jobs } else { 1 } as f64,
    );
    let share = engine_est_share(&m);
    let mut put = |k: &str, v: f64| m.insert(k.to_string(), v);
    put("netsim.engine.est_share", share);
    put(
        "workloads.exec.speedup_j2",
        one_job_run_s.map_or(0.0, |j1| j1 / run_s),
    );
    put(
        "bench.trace_overhead_frac",
        median(traced_s.clone()) / run_s - 1.0,
    );
    // Traced repetitions cost what untraced ones do (that is the previous
    // metric), so the spread is taken over both.
    plain_s.extend(&traced_s);
    put("bench.run_s_iqr_frac", iqr_frac(&plain_s));
    put("bench.unaccounted_frac", spans::unaccounted_frac(&spans));
    write_trace(bench, first, &spans)?;
    Ok(((plain_s.len() - traced_s.len(), traced_s.len()), m))
}

/// The per-layer metrics that come from one repetition's counters and
/// from the traced repetitions' spans (`traced` of them, so span totals
/// are per repetition). `run_s` is the untraced median.
fn layer_metrics(
    bench: &Bench,
    rep: &Rep,
    spans: &[Span],
    traced: usize,
    run_s: f64,
) -> BTreeMap<String, f64> {
    let chaos = bench.name == "chaos-mix";
    let c = &rep.counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_rep = |name: &str| spans::total_s(spans, name) / traced as f64;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("netsim.engine.events", c.events as f64);
    put("netsim.engine.events_per_s", c.events as f64 / run_s);
    put(
        "netsim.engine.events_per_pkt",
        ratio(c.events, c.delivered_pkts),
    );
    put("netsim.engine.peak_pending", c.peak_pending as f64);
    put(
        "netsim.packet.recycle_ratio",
        ratio(c.arena_recycled, c.arena_allocated),
    );
    put(
        "netsim.packet.arena_peak_outstanding",
        c.arena_peak_outstanding as f64,
    );
    put("netsim.queue.enqueued_pkts", c.q_enqueued as f64);
    put("netsim.queue.dropped_pkts", c.q_dropped as f64);
    put("netsim.queue.marked_pkts", c.q_marked as f64);
    put("transport.timeouts", c.timeouts as f64);
    put(
        "transport.retransmitted_bytes",
        c.retransmitted_bytes as f64,
    );
    put(
        "transport.loss_rate",
        ratio(c.data_dropped, c.data_dropped + c.data_enqueued),
    );
    put("pase.ctrl_pkts", c.ctrl_pkts as f64);
    put("pase.ctrl_processed", c.ctrl_processed as f64);
    put("pase.ctrl_shed", c.ctrl_shed as f64);
    put(
        "pase.ctrl_per_data_pkt",
        ratio(c.ctrl_pkts, c.delivered_pkts),
    );
    put("pase.arb_pruned", c.arb_pruned as f64);
    put("pase.arb_climbed", c.arb_climbed as f64);
    put("pase.ctrl_peak_epoch_depth", c.ctrl_peak_epoch_depth as f64);
    put("experiments.chaos.aborted_flows", c.aborted_flows as f64);
    put(
        "experiments.chaos.ctrl_shed",
        if chaos { c.ctrl_shed as f64 } else { 0.0 },
    );
    put("workloads.scheme.build_sim_s", per_rep("build_sim"));
    put(
        "workloads.scenarios.generate_flows_s",
        per_rep("generate_flows"),
    );
    put("netsim.sim.add_flows_s", per_rep("add_flows"));
    put(
        "workloads.metrics.collect_exact_s",
        per_rep("collect_exact"),
    );
    put(
        "workloads.metrics.collect_sketch_s",
        per_rep("collect_sketch"),
    );
    for scheme in ["tcp", "dctcp", "d2tcp", "l2dct", "pdq", "pfabric", "pase"] {
        let span = format!("case.{scheme}");
        let afcts: Vec<f64> = rep
            .cases
            .iter()
            .filter(|(name, _)| *name == span)
            .map(|&(_, afct)| afct)
            .collect();
        let mean = afcts.iter().sum::<f64>() / afcts.len().max(1) as f64;
        put(&format!("workloads.runner.case_s.{scheme}"), per_rep(&span));
        put(&format!("workloads.runner.afct_ms.{scheme}"), mean);
    }
    for class in ["fabric", "host", "gray", "overload"] {
        put(
            &format!("experiments.chaos.case_s.{class}"),
            per_rep(&format!("case.{class}")),
        );
    }
    m
}

/// `events × push_pop_ns / (run_s × jobs)` with the microbenchmark whose pending
/// population is nearest (in ratio) to the workload's peak: an estimate
/// of the engine's share of the run, labelled as one.
fn engine_est_share(layer: &BTreeMap<String, f64>) -> f64 {
    let peak = layer["netsim.engine.peak_pending"].max(1.0);
    let (_, key) = [(1e3, "p1e3"), (1e5, "p1e5"), (1e6, "p1e6")]
        .into_iter()
        .min_by(|a, b| {
            let d = |p: f64| (peak / p).ln().abs();
            d(a.0).partial_cmp(&d(b.0)).expect("finite")
        })
        .expect("non-empty");
    let ns = layer[&format!("netsim.engine.push_pop_ns.{key}")];
    let events_per_s = layer["netsim.engine.events_per_s"];
    events_per_s * ns * 1e-9 / layer["workloads.exec.jobs"]
}

fn write_trace(bench: &Bench, first: &Rep, spans: &[Span]) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("{}.trace.json", bench.name));
    let mut extra = BTreeMap::new();
    extra.insert("workload", format!("\"{}\"", bench.name));
    extra.insert("seed", bench.seed.to_string());
    extra.insert("jobs", jobs().to_string());
    extra.insert("sim_digest", format!("\"{:#018x}\"", first.work.digest));
    extra.insert("events", first.work.events.to_string());
    extra.insert(
        "unaccounted_frac",
        spans::unaccounted_frac(spans).to_string(),
    );
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::render(spans, &extra)))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        let q = quartiles(&v);
        assert!((q[0] - 3.5).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 13.5).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 31.0).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
    }
}
