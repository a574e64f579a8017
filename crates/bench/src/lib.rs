//! Deterministic wall-clock benchmark harness for the simulator.
//!
//! No external benchmarking framework: every scenario is a fixed, seeded
//! workload timed with [`std::time::Instant`] around the hot loop, so the
//! executed event sequence is byte-for-byte identical run-to-run and the
//! only varying quantity is wall-clock time. Results are rendered as a
//! small hand-written JSON document (`BENCH_netsim.json`) so the repo's
//! perf trajectory is machine-readable without pulling a serializer into
//! the dependency graph.
//!
//! Scenarios (see `ALL_SCENARIOS`):
//!
//! - `sched-storm` — raw [`Scheduler`] push/pop microbenchmark using
//!   full-size `Deliver` payloads allocated from the packet arena:
//!   bursts of pseudo-randomly timed events are pushed and then drained
//!   in rounds, with every popped packet released back to the arena so
//!   the free-list recycling path is on the measured hot loop.
//! - `wheel-storm` — the timing wheel's own stress profile: deltas span
//!   every wheel level plus the far-future overflow heap, so slot
//!   redistribution, horizon cascades, and overflow promotion all sit on
//!   the measured path.
//! - `incast-pase` / `incast-dctcp` — many-to-one incast on the paper's
//!   32-host three-tier fat-tree at offered load 0.6, run end-to-end
//!   through `Simulation::run` (tracing disabled: measures the pure
//!   simulation hot path).
//! - `chaos-storm` — seeded chaos cases (high intensity, host faults)
//!   through the full harness: tracing enabled, online invariant
//!   monitoring, each case executed twice for the determinism check.
//!   This is the "experiment sweep" figure — the throughput that bounds
//!   how fast CI and seed sweeps can go.
//! - `gray-storm` — the same harness under the gray fault class: degrade
//!   trains (stochastic loss, corruption, latency inflation) with
//!   health-aware rerouting enabled, so the per-packet degrade RNG and
//!   EWMA health path are on the measured hot path.
//! - `overload-storm` — the same harness under the overload fault class:
//!   control-plane storms amplify arbitrator inbox charges and flash
//!   crowds of extra flows land mid-window, so the bounded-inbox shed
//!   path and backpressure replies are on the measured hot path.
//! - `scale-k4` / `scale-k8` / `scale-k16` — the production-scale sweep:
//!   an all-to-all PASE batch on the k-ary fat-tree (16 / 128 / 1024
//!   hosts), timed end-to-end through `Simulation::run`. Alongside
//!   events/sec each scenario records `peak_rss_bytes` (the `VmHWM`
//!   high-water mark from `/proc/self/status`), so the compact-FIB and
//!   flow-state memory budget is tracked next to throughput. The
//!   `--scenario scale` alias selects all three sweep points.
//!
//! The time spent *building* each simulation is excluded where the
//! scenario measures the engine (`sched-storm`, incast) and included
//! where it measures the end-to-end harness (`chaos-storm`), because a
//! chaos sweep rebuilds its world for every case by design.

use std::path::PathBuf;
use std::time::Instant;

use experiments::chaos::{run_case, FaultClass};
use netsim::chaos::ChaosIntensity;
use netsim::engine::Scheduler;
use netsim::event::EventKind;
use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::rng::Rng;
use netsim::sim::{RunLimit, RunOutcome};
use netsim::time::{Rate, SimDuration, SimTime};
use workloads::{cli, Pattern, Scenario, Scheme, SizeDist, TopologySpec};

/// Version tag of the emitted JSON document. Bumped whenever the
/// scenario set or field shapes change (v2 added `gray-storm`, v3 added
/// `overload-storm`, v4 added `wheel-storm` and the packet-arena
/// recycling/peak-outstanding fields, v5 added the `scale-k*` fat-tree
/// sweep and the per-scenario `peak_rss_bytes` field).
pub const SCHEMA: &str = "netsim-bench/5";

/// Every scenario the harness knows, in execution order.
pub const ALL_SCENARIOS: &[&str] = &[
    "sched-storm",
    "wheel-storm",
    "incast-pase",
    "incast-dctcp",
    "chaos-storm",
    "gray-storm",
    "overload-storm",
    "scale-k4",
    "scale-k8",
    "scale-k16",
];

/// Harness options (parsed by the `netsim-bench` binary).
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Reduced scale: the CI smoke profile.
    pub quick: bool,
    /// Measured iterations per scenario (a warmup iteration runs first
    /// unless `quick`).
    pub iters: u32,
    /// Scenario names to run (empty = all, in `ALL_SCENARIOS` order).
    pub scenarios: Vec<String>,
    /// Seeds for the chaos-storm scenario.
    pub chaos_seeds: u64,
    /// Worker threads for chaos-storm case execution
    /// (`workloads::exec`). The executed event sequence per case is
    /// identical at any value; only wall clock changes.
    pub jobs: usize,
    /// Where to write the JSON document (stdout always gets a copy).
    pub out: Option<PathBuf>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            quick: false,
            iters: 3,
            scenarios: Vec::new(),
            chaos_seeds: 8,
            jobs: workloads::default_jobs(),
            out: None,
        }
    }
}

/// What `netsim-bench` accepts (`scale` = scale-k4,scale-k8,scale-k16).
pub const USAGE: &str = "\
USAGE: netsim-bench [--quick] [--iters N>=1] [--scenario NAME[,NAME]]
       [--chaos-seeds N>=1] [--jobs N>=1] [--out PATH]";

impl BenchOpts {
    /// Parse binary arguments (see [`USAGE`]).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<BenchOpts, String> {
        let mut opts = BenchOpts::default();
        let mut args = cli::Args::new(args);
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--quick" => {
                    opts.quick = true;
                    opts.iters = 1;
                }
                "--iters" => opts.iters = args.in_range(&flag, 1..)?,
                "--chaos-seeds" => opts.chaos_seeds = args.in_range(&flag, 1..)?,
                "--jobs" => opts.jobs = args.in_range(&flag, 1..)?,
                "--scenario" => {
                    for name in args.value(&flag)?.split(',') {
                        let name = name.trim();
                        // `scale` is an alias for the whole fat-tree
                        // sweep (scale-k4, scale-k8, scale-k16).
                        if name == "scale" {
                            for n in ALL_SCENARIOS.iter().filter(|n| n.starts_with("scale-k")) {
                                opts.scenarios.push(n.to_string());
                            }
                            continue;
                        }
                        if !ALL_SCENARIOS.contains(&name) {
                            let known = ALL_SCENARIOS.join(" ");
                            return Err(format!(
                                "{flag}: unknown scenario '{name}'; known: {known}"
                            ));
                        }
                        opts.scenarios.push(name.to_string());
                    }
                }
                "--out" => opts.out = Some(PathBuf::from(args.value(&flag)?)),
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(opts)
    }

    fn selected(&self) -> Vec<&'static str> {
        ALL_SCENARIOS
            .iter()
            .copied()
            .filter(|n| self.scenarios.is_empty() || self.scenarios.iter().any(|s| s == n))
            .collect()
    }
}

/// One scenario's measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Scenario name.
    pub name: &'static str,
    /// Measured iterations (excluding warmup).
    pub iters: u32,
    /// Best iteration wall time, milliseconds.
    pub wall_ms: f64,
    /// Mean iteration wall time, milliseconds.
    pub wall_ms_mean: f64,
    /// Events executed per iteration (identical across iterations).
    pub events: u64,
    /// Data packets delivered per iteration.
    pub packets: u64,
    /// Events per wall-clock second (best iteration).
    pub events_per_sec: f64,
    /// Delivered data packets per wall-clock second (best iteration).
    pub packets_per_sec: f64,
    /// Peak pending-event count (heap high-water mark).
    pub peak_pending: usize,
    /// Packet-arena allocations served from the free list instead of the
    /// global heap (identical across iterations).
    pub arena_recycled: u64,
    /// Packet-arena high-water mark of simultaneously outstanding
    /// packets (identical across iterations).
    pub arena_peak_outstanding: u64,
    /// Process-wide peak resident set size in bytes (`VmHWM` from
    /// `/proc/self/status`) read after the scenario's last iteration.
    /// Monotone over the process lifetime: the value covers everything
    /// executed up to and including this scenario, so within one
    /// invocation the column is non-decreasing in execution order. 0 on
    /// platforms without `/proc`.
    pub peak_rss_bytes: u64,
}

pub use workloads::read_peak_rss;

/// What one timed iteration of a scenario produced.
struct IterOut {
    wall_s: f64,
    events: u64,
    packets: u64,
    peak: usize,
    arena_recycled: u64,
    arena_peak: u64,
}

/// Time `f` for `iters` iterations (plus an optional warmup) and check
/// that the simulated work is identical every time.
fn measure(
    name: &'static str,
    iters: u32,
    warmup: bool,
    mut f: impl FnMut() -> IterOut,
) -> BenchResult {
    if warmup {
        f();
    }
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut first: Option<(u64, u64, u64, u64)> = None;
    let mut events = 0;
    let mut packets = 0;
    let mut peak = 0;
    let mut arena_recycled = 0;
    let mut arena_peak = 0;
    for _ in 0..iters {
        let out = f();
        // Arena lifecycle counters are as deterministic as the event
        // counts, so they share the identical-work assertion.
        match first {
            None => first = Some((out.events, out.packets, out.arena_recycled, out.arena_peak)),
            Some(expect) => assert_eq!(
                (out.events, out.packets, out.arena_recycled, out.arena_peak),
                expect,
                "scenario {name} executed different work across iterations"
            ),
        }
        best = best.min(out.wall_s);
        total += out.wall_s;
        events = out.events;
        packets = out.packets;
        peak = peak.max(out.peak);
        arena_recycled = out.arena_recycled;
        arena_peak = out.arena_peak;
    }
    let best = best.max(1e-9);
    BenchResult {
        name,
        iters,
        wall_ms: best * 1e3,
        wall_ms_mean: total * 1e3 / iters as f64,
        events,
        packets,
        events_per_sec: events as f64 / best,
        packets_per_sec: packets as f64 / best,
        peak_pending: peak,
        arena_recycled,
        arena_peak_outstanding: arena_peak,
        peak_rss_bytes: read_peak_rss(),
    }
}

/// Raw scheduler push/pop storm: rounds of `per_round` events with
/// pseudo-random timestamps inside a 1 ms window, each fully drained
/// before the next round begins. Payloads are full-size data-packet
/// `Deliver`s so the heap moves its worst-case entry.
fn sched_storm(quick: bool) -> IterOut {
    let rounds = 10u64;
    let per_round: u64 = if quick { 10_000 } else { 100_000 };
    let mut sched = Scheduler::new();
    let mut rng = Rng::seed_from_u64(0x5eed_b0a7);
    let mut pops = 0u64;
    let t = Instant::now();
    for round in 0..rounds {
        let base = SimTime::from_millis(round);
        for i in 0..per_round {
            let at = base + SimDuration::from_nanos(rng.gen_below(1_000_000));
            let pkt = Packet::data(FlowId(i), NodeId(0), NodeId(1), i * 1460, 1460);
            sched.schedule_deliver(at, NodeId((i % 64) as u32), pkt);
        }
        while let Some((node, kind)) = sched.pop() {
            std::hint::black_box(node);
            if let EventKind::Deliver(pkt) = kind {
                sched.arena_mut().release(pkt);
            }
            pops += 1;
        }
    }
    let arena = sched.arena().stats();
    IterOut {
        wall_s: t.elapsed().as_secs_f64(),
        events: pops,
        packets: pops,
        peak: sched.peak_pending(),
        arena_recycled: arena.recycled,
        arena_peak: arena.peak_outstanding,
    }
}

/// Timing-wheel stress profile: event deltas span every wheel level
/// (1 ns up to ~2^39 ns ahead of the drain clock) and every 64th event
/// lands in the far-future overflow heap (2^41+ ns), so slot insertion
/// at each level, horizon cascades across level boundaries, and
/// overflow promotion are all exercised.
fn wheel_storm(quick: bool) -> IterOut {
    let rounds = 8u64;
    let per_round: u64 = if quick { 10_000 } else { 100_000 };
    let mut sched = Scheduler::new();
    let mut rng = Rng::seed_from_u64(0x77ee_1b0a);
    let mut pops = 0u64;
    let mut clock = SimTime::ZERO;
    let t = Instant::now();
    for _ in 0..rounds {
        let base = clock;
        for i in 0..per_round {
            let delta = if i % 64 == 63 {
                // Far-future: beyond the wheel's 2^40 ns span, into the
                // overflow heap, later pulled back by window promotion.
                1u64 << (41 + rng.gen_below(4))
            } else {
                1u64 << rng.gen_below(40)
            };
            let at = base + SimDuration::from_nanos(delta);
            let pkt = Packet::data(FlowId(i), NodeId(0), NodeId(1), i * 1460, 1460);
            sched.schedule_deliver(at, NodeId((i % 64) as u32), pkt);
        }
        while let Some((node, kind)) = sched.pop() {
            std::hint::black_box(node);
            if let EventKind::Deliver(pkt) = kind {
                sched.arena_mut().release(pkt);
            }
            pops += 1;
        }
        clock = sched.now();
    }
    let arena = sched.arena().stats();
    IterOut {
        wall_s: t.elapsed().as_secs_f64(),
        events: pops,
        packets: pops,
        peak: sched.peak_pending(),
        arena_recycled: arena.recycled,
        arena_peak: arena.peak_outstanding,
    }
}

/// The incast workload: every sender targets host 0 on the paper's
/// 32-host three-tier baseline fat-tree.
fn incast_scenario(quick: bool) -> Scenario {
    Scenario {
        name: "bench-incast",
        topo: TopologySpec::ThreeTier {
            hosts_per_rack: 8,
            racks: 4,
            access: Rate::from_gbps(1),
            fabric: Rate::from_gbps(10),
            link_delay: SimDuration::from_micros(25),
        },
        pattern: Pattern::Incast { server: 0 },
        sizes: SizeDist::UniformBytes {
            lo: 2_000,
            hi: 198_000,
        },
        deadlines: None,
        n_background: 0,
        n_flows: if quick { 60 } else { 300 },
    }
}

/// Build and run one incast simulation; only `Simulation::run` is timed.
fn incast(scheme: Scheme, quick: bool) -> IterOut {
    let scenario = incast_scenario(quick);
    let (mut sim, hosts) = scheme.build_sim(&scenario.topo);
    sim.add_flows(scenario.generate_flows(0.6, 1, &hosts));
    let t = Instant::now();
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    let wall_s = t.elapsed().as_secs_f64();
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "bench incast must run to completion"
    );
    IterOut {
        wall_s,
        events: sim.stats().events_executed,
        packets: sim.stats().data_pkts_delivered,
        peak: sim.scheduler().peak_pending(),
        arena_recycled: sim.stats().arena.recycled,
        arena_peak: sim.stats().arena.peak_outstanding,
    }
}

/// Production-scale fat-tree sweep point: an all-to-all PASE batch on
/// the k-ary fat-tree (k³/4 hosts), k³ flows at the full profile and k²
/// at the smoke profile. Only `Simulation::run` is timed — topology and
/// route-table construction are excluded, as for the incast scenarios —
/// but the compact-FIB and flow-state footprint still lands in the
/// scenario's `peak_rss_bytes` reading.
fn scale_storm(k: usize, quick: bool) -> IterOut {
    let scenario = Scenario {
        name: "bench-scale",
        topo: TopologySpec::fat_tree(k),
        pattern: Pattern::AllToAll,
        sizes: SizeDist::UniformBytes {
            lo: 2_000,
            hi: 198_000,
        },
        deadlines: None,
        n_background: 0,
        n_flows: if quick { k * k } else { k * k * k },
    };
    let (mut sim, hosts) = Scheme::Pase.build_sim(&scenario.topo);
    sim.add_flows(scenario.generate_flows(0.6, 1, &hosts));
    let t = Instant::now();
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    let wall_s = t.elapsed().as_secs_f64();
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "bench scale-k{k} must run to completion"
    );
    IterOut {
        wall_s,
        events: sim.stats().events_executed,
        packets: sim.stats().data_pkts_delivered,
        peak: sim.scheduler().peak_pending(),
        arena_recycled: sim.stats().arena.recycled,
        arena_peak: sim.stats().arena.peak_outstanding,
    }
}

/// End-to-end chaos throughput: `seeds` high-intensity cases of one
/// fault class under PASE, each built, traced, invariant-checked and
/// executed twice (the determinism replay) exactly as the chaos sweep
/// does. Cases run on the `workloads::exec` engine with `jobs` workers;
/// the per-case event counts are identical at any job count, so
/// throughput numbers stay comparable across machines.
fn chaos_storm(fault_class: FaultClass, quick: bool, seeds: u64, jobs: usize) -> IterOut {
    let case_seeds: Vec<u64> = (0..seeds).collect();
    let t = Instant::now();
    let results = workloads::run_cases(&case_seeds, jobs, |&seed| {
        run_case(Scheme::Pase, ChaosIntensity::High, fault_class, seed, quick)
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut events = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut arena_recycled = 0u64;
    let mut arena_peak = 0u64;
    for r in &results {
        assert!(
            r.passed(),
            "chaos case seed {} failed in bench:\n{}",
            r.seed,
            r.violations.join("\n")
        );
        // run_case executes every case twice (determinism replay), so
        // both executions count toward the throughput numerator.
        events += 2 * r.events;
        delivered += 2 * r.delivered;
        peak = peak.max(r.peak_pending);
        arena_recycled += 2 * r.arena_recycled;
        arena_peak = arena_peak.max(r.arena_peak_outstanding);
    }
    IterOut {
        wall_s,
        events,
        packets: delivered,
        peak,
        arena_recycled,
        arena_peak,
    }
}

/// Run every selected scenario, printing one summary line per scenario
/// to stderr as it completes.
pub fn run(opts: &BenchOpts) -> Vec<BenchResult> {
    let warmup = !opts.quick;
    let mut results = Vec::new();
    for name in opts.selected() {
        let r = match name {
            "sched-storm" => measure(name, opts.iters, warmup, || sched_storm(opts.quick)),
            "wheel-storm" => measure(name, opts.iters, warmup, || wheel_storm(opts.quick)),
            "incast-pase" => measure(name, opts.iters, warmup, || {
                incast(Scheme::Pase, opts.quick)
            }),
            "incast-dctcp" => measure(name, opts.iters, warmup, || {
                incast(Scheme::Dctcp, opts.quick)
            }),
            "chaos-storm" => measure(name, opts.iters, warmup, || {
                chaos_storm(FaultClass::Host, opts.quick, opts.chaos_seeds, opts.jobs)
            }),
            "gray-storm" => measure(name, opts.iters, warmup, || {
                chaos_storm(FaultClass::Gray, opts.quick, opts.chaos_seeds, opts.jobs)
            }),
            "overload-storm" => measure(name, opts.iters, warmup, || {
                chaos_storm(
                    FaultClass::Overload,
                    opts.quick,
                    opts.chaos_seeds,
                    opts.jobs,
                )
            }),
            "scale-k4" => measure(name, opts.iters, warmup, || scale_storm(4, opts.quick)),
            "scale-k8" => measure(name, opts.iters, warmup, || scale_storm(8, opts.quick)),
            "scale-k16" => measure(name, opts.iters, warmup, || scale_storm(16, opts.quick)),
            other => unreachable!("unknown scenario {other}"),
        };
        eprintln!(
            "bench {:>14}: {:>10.3} ms, {:>9} events, {:>11.0} events/s, {:>10.0} pkts/s, \
             peak {}, arena peak {} ({} recycled), rss {:.1} MiB",
            r.name,
            r.wall_ms,
            r.events,
            r.events_per_sec,
            r.packets_per_sec,
            r.peak_pending,
            r.arena_peak_outstanding,
            r.arena_recycled,
            r.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
        results.push(r);
    }
    results
}

/// Render results as the `BENCH_netsim.json` document.
pub fn render_json(results: &[BenchResult], opts: &BenchOpts) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!(
        "  \"profile\": \"{}\",\n",
        if opts.quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"jobs\": {},\n", opts.jobs));
    s.push_str(&format!(
        "  \"detected_cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"wall_ms\": {:.3}, \
             \"wall_ms_mean\": {:.3}, \"events\": {}, \"packets\": {}, \
             \"events_per_sec\": {:.1}, \"packets_per_sec\": {:.1}, \
             \"peak_pending_events\": {}, \"arena_recycled\": {}, \
             \"arena_peak_outstanding\": {}, \"peak_rss_bytes\": {}}}{}\n",
            r.name,
            r.iters,
            r.wall_ms,
            r.wall_ms_mean,
            r.events,
            r.packets,
            r.events_per_sec,
            r.packets_per_sec,
            r.peak_pending,
            r.arena_recycled,
            r.arena_peak_outstanding,
            r.peak_rss_bytes,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Minimal structural JSON check for the smoke test: balanced braces and
/// brackets outside strings, no unterminated string, non-empty, and no
/// bare NaN/inf tokens (which `format!` would emit for broken math).
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        if depth_obj < 0 || depth_arr < 0 {
            return Err("unbalanced close".into());
        }
    }
    if in_str {
        return Err("unterminated string".into());
    }
    if depth_obj != 0 || depth_arr != 0 {
        return Err("unbalanced open".into());
    }
    if depth_obj == 0 && !s.trim_start().starts_with('{') {
        return Err("not a JSON object".into());
    }
    for bad in ["NaN", "inf"] {
        if s.contains(bad) {
            return Err(format!("non-finite number rendered: {bad}"));
        }
    }
    Ok(())
}

/// Extract the numeric value of `"key": <number>` from one scenario
/// line. Returns `None` when the key is absent or the value is not a
/// bare number.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Full report check: structural JSON validity ([`validate_json`]) plus
/// per-scenario semantic consistency. A report is rejected when any
/// scenario claims a mean wall time below its best iteration
/// (`wall_ms_mean < wall_ms` — the mean of a set can't undercut its
/// minimum), a non-positive `events_per_sec`, or omits
/// `peak_pending_events` or `peak_rss_bytes`. These were exactly the
/// internally inconsistent shapes the old structural-only validator
/// waved through.
pub fn validate_report(s: &str) -> Result<(), String> {
    validate_json(s)?;
    for line in s.lines() {
        let line = line.trim_start();
        if !line.starts_with("{\"name\": ") {
            continue;
        }
        let name = line
            .strip_prefix("{\"name\": \"")
            .and_then(|r| r.split('"').next())
            .unwrap_or("<unnamed>");
        let wall_ms = field_num(line, "wall_ms")
            .ok_or_else(|| format!("{name}: missing or non-numeric wall_ms"))?;
        let wall_ms_mean = field_num(line, "wall_ms_mean")
            .ok_or_else(|| format!("{name}: missing or non-numeric wall_ms_mean"))?;
        // Rendered at three decimals, so allow half an ulp of slack.
        if wall_ms_mean < wall_ms - 5e-4 {
            return Err(format!(
                "{name}: wall_ms_mean {wall_ms_mean} below best-iteration wall_ms {wall_ms}"
            ));
        }
        let eps = field_num(line, "events_per_sec")
            .ok_or_else(|| format!("{name}: missing or non-numeric events_per_sec"))?;
        if eps <= 0.0 {
            return Err(format!("{name}: non-positive events_per_sec {eps}"));
        }
        if field_num(line, "peak_pending_events").is_none() {
            return Err(format!("{name}: missing peak_pending_events"));
        }
        // Schema v5: every scenario must carry its RSS high-water mark.
        // (0 is legal — non-Linux platforms have no /proc — but the
        // field itself must be present and numeric.)
        if field_num(line, "peak_rss_bytes").is_none() {
            return Err(format!("{name}: missing peak_rss_bytes"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<BenchOpts, String> {
        BenchOpts::from_args(s.split_whitespace().map(String::from))
    }

    /// Every scenario runs at the smoke profile and the rendered document
    /// is valid JSON naming each of them with a positive events/sec.
    #[test]
    fn smoke_all_scenarios_emit_valid_json() {
        let opts = BenchOpts {
            quick: true,
            iters: 1,
            chaos_seeds: 1,
            ..BenchOpts::default()
        };
        let results = run(&opts);
        assert_eq!(results.len(), ALL_SCENARIOS.len());
        for r in &results {
            assert!(r.events > 0, "{} executed no events", r.name);
            assert!(r.events_per_sec > 0.0, "{} has no throughput", r.name);
        }
        let json = render_json(&results, &opts);
        validate_report(&json).expect("rendered document must be a consistent report");
        assert!(
            json.contains("\"schema\": \"netsim-bench/5\""),
            "document must carry the current schema tag"
        );
        for name in ALL_SCENARIOS {
            assert!(json.contains(name), "{name} missing from JSON");
        }
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"arena_peak_outstanding\""));
        assert!(json.contains("\"peak_rss_bytes\""));
        #[cfg(target_os = "linux")]
        for r in &results {
            assert!(r.peak_rss_bytes > 0, "{}: no RSS reading", r.name);
        }
        assert!(json.contains(&format!("\"jobs\": {}", opts.jobs)));
        assert!(json.contains("\"detected_cores\": "));
    }

    #[test]
    fn json_validator_rejects_garbage() {
        assert!(validate_json("{\"a\": [1, 2]}").is_ok());
        assert!(validate_json("{\"a\": [1, 2}").is_err());
        assert!(validate_json("{\"a\": \"unterminated}").is_err());
        assert!(validate_json("{\"a\": NaN}").is_err());
        assert!(validate_json("[1, 2]").is_err());
    }

    /// A syntactically plausible result whose rendering passes
    /// [`validate_report`] untouched — each rejection test tampers with
    /// exactly one field.
    fn sample_report() -> String {
        let r = BenchResult {
            name: "sched-storm",
            iters: 3,
            wall_ms: 10.0,
            wall_ms_mean: 12.5,
            events: 1_000,
            packets: 1_000,
            events_per_sec: 100_000.0,
            packets_per_sec: 100_000.0,
            peak_pending: 64,
            arena_recycled: 900,
            arena_peak_outstanding: 64,
            peak_rss_bytes: 128 * 1024 * 1024,
        };
        render_json(&[r], &BenchOpts::default())
    }

    #[test]
    fn report_validator_accepts_consistent_report() {
        validate_report(&sample_report()).expect("sample report is consistent");
    }

    /// The mean of a set of iterations can never be below its minimum;
    /// a report claiming so is lying about one of the two.
    #[test]
    fn report_validator_rejects_mean_below_best() {
        let bad = sample_report().replace("\"wall_ms_mean\": 12.500", "\"wall_ms_mean\": 9.000");
        let err = validate_report(&bad).expect_err("mean below best must be rejected");
        assert!(err.contains("wall_ms_mean"), "wrong rejection: {err}");
        // Structural validation alone waves this through — the semantic
        // layer is what catches it.
        validate_json(&bad).expect("still structurally valid JSON");
    }

    #[test]
    fn report_validator_rejects_nonpositive_events_per_sec() {
        let bad =
            sample_report().replace("\"events_per_sec\": 100000.0", "\"events_per_sec\": 0.0");
        let err = validate_report(&bad).expect_err("zero throughput must be rejected");
        assert!(err.contains("events_per_sec"), "wrong rejection: {err}");
        validate_json(&bad).expect("still structurally valid JSON");
    }

    #[test]
    fn report_validator_rejects_missing_peak_pending() {
        let bad = sample_report().replace("\"peak_pending_events\"", "\"peak_pending_evts\"");
        let err = validate_report(&bad).expect_err("missing peak_pending_events must be rejected");
        assert!(
            err.contains("peak_pending_events"),
            "wrong rejection: {err}"
        );
        validate_json(&bad).expect("still structurally valid JSON");
    }

    /// Schema v5's memory column is mandatory per scenario.
    #[test]
    fn report_validator_rejects_missing_peak_rss() {
        let bad = sample_report().replace("\"peak_rss_bytes\"", "\"peak_rss\"");
        let err = validate_report(&bad).expect_err("missing peak_rss_bytes must be rejected");
        assert!(err.contains("peak_rss_bytes"), "wrong rejection: {err}");
        validate_json(&bad).expect("still structurally valid JSON");
    }

    /// The `scale` scenario alias expands to every fat-tree sweep point.
    #[test]
    fn scale_alias_expands_to_sweep_points() {
        let o = parse("--quick --scenario scale").unwrap();
        assert_eq!(o.scenarios, vec!["scale-k4", "scale-k8", "scale-k16"]);
        assert_eq!(o.selected(), vec!["scale-k4", "scale-k8", "scale-k16"]);
    }

    #[test]
    fn arg_parsing() {
        let o = parse(
            "--quick --scenario sched-storm,incast-pase --chaos-seeds 2 --jobs 2 --out /tmp/x.json",
        )
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.iters, 1);
        assert_eq!(o.scenarios, vec!["sched-storm", "incast-pase"]);
        assert_eq!(o.chaos_seeds, 2);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.selected(), vec!["sched-storm", "incast-pase"]);
        assert_eq!(o.out, Some(PathBuf::from("/tmp/x.json")));
    }

    /// Every flag x {missing value, non-number / unknown name, out of
    /// range} is an `Err` naming the flag.
    #[test]
    fn bad_input_is_an_error_naming_the_flag() {
        let table: [(&str, &[&str]); 5] = [
            ("--iters", &["", "abc", "0"]),
            ("--chaos-seeds", &["", "abc", "0"]),
            ("--jobs", &["", "abc", "0"]),
            ("--scenario", &["", "bogus", "sched-storm,bogus"]),
            ("--out", &[""]),
        ];
        for (flag, bad_values) in table {
            for bad in bad_values {
                let err = parse(&format!("{flag} {bad}")).unwrap_err();
                assert!(err.starts_with(flag), "`{flag} {bad}`: {err}");
            }
        }
        assert_eq!(parse("--bogus").unwrap_err(), "unknown argument: --bogus");
    }
}
