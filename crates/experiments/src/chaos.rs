//! The chaos harness: seeded fault storms + the global invariant oracle.
//!
//! Each case builds a leaf-spine all-to-all workload under PASE or DCTCP,
//! expands a [`netsim::chaos::ChaosConfig`] into a fault schedule of its
//! [`FaultClass`], validates and injects it, runs to completion and then
//! demands that
//!
//! 1. every flow finished — or ended in a terminal `Aborted { reason }`
//!    that is attributable to an injected host fault (a crashed endpoint,
//!    or a max-RTO give-up against a faulted peer),
//! 2. every global invariant holds ([`netsim::invariants`]: packet
//!    conservation including the lost-to-crash term, no stuck flow,
//!    bounded queues, arena balance) and the backstop did not cut the
//!    run short — the runner's one warning ([`backstop_warning`]), since
//!    every case runs through [`RunSpec::run_with`] — and
//! 3. the run is deterministic: the same seed executed twice produces a
//!    byte-identical event trace.
//!
//! What a class adds to the storm is `netsim::chaos`'s table; what it
//! adds to the *harness* is here: `Gray` runs with health-aware rerouting
//! on, `Overload` lands a deterministic flash crowd of short flows inside
//! each storm window.
//!
//! The `chaos` binary sweeps seeds × intensity × scheme × fault class;
//! `scripts/ci.sh` runs a fixed 8-seed smoke slice, then the same slice
//! once per scheduler engine (`engine_diff`), demanding identical hashes.
//! A failing case prints the exact command line that replays just that
//! seed.

use std::collections::BTreeSet;

pub use netsim::chaos::FaultClass;
use netsim::chaos::{self, ChaosConfig, ChaosIntensity};
use netsim::engine::EngineKind;
use netsim::event::EventKind;
use netsim::fault::{FaultFamily, FaultPlan, Pairing, Subject};
use netsim::flow::FlowSpec;
use netsim::prelude::*;
use netsim::topology::NodeKind;
use netsim::trace::{fnv1a, HashTracer, FNV1A_OFFSET};
use workloads::runner::backstop_warning;
use workloads::{cli, run_cases, Pattern, RunSpec, Scenario, Scheme, SizeDist, TopologySpec};

/// One cell of the sweep matrix; the seed drives both workload and fault
/// schedule.
pub type Case = (Scheme, FaultClass, ChaosIntensity, u64);

/// Options for a chaos sweep (parsed by the `chaos` binary).
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Schemes to exercise.
    pub schemes: Vec<Scheme>,
    /// Fault densities to exercise.
    pub intensities: Vec<ChaosIntensity>,
    /// Fault classes to exercise.
    pub fault_classes: Vec<FaultClass>,
    /// Reduced scale (fewer flows): the CI smoke profile.
    pub quick: bool,
    /// Per-case progress lines on stderr.
    pub verbose: bool,
    /// Worker threads for case execution (`workloads::exec`); results
    /// and reporting stay in case order at any value.
    pub jobs: usize,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            seeds: (0..32).collect(),
            schemes: vec![Scheme::Pase, Scheme::Dctcp],
            intensities: vec![ChaosIntensity::Low, ChaosIntensity::High],
            fault_classes: FaultClass::all().to_vec(),
            quick: false,
            verbose: false,
            jobs: workloads::default_jobs(),
        }
    }
}

/// What `chaos` and `engine_diff` accept.
pub const USAGE: &str = "\
USAGE: chaos|engine_diff [--seeds N>=1 | --seed-list a,b,c] [--scheme pase|dctcp|both]
       [--intensity low|high|both] [--faults fabric|host|gray|overload|both|all]
       [--jobs N>=1] [--quick] [--verbose]";

impl ChaosOpts {
    /// Parse the `chaos` binary's arguments (see [`USAGE`]).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<ChaosOpts, String> {
        let mut opts = ChaosOpts::default();
        let mut args = cli::Args::new(args);
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--verbose" => opts.verbose = true,
                "--seeds" => opts.seeds = (0..args.in_range(&flag, 1u64..)?).collect(),
                "--seed-list" => opts.seeds = args.list(&flag, 0u64..)?,
                "--scheme" => {
                    let (pase, dctcp) = (Scheme::Pase, Scheme::Dctcp);
                    let table = [
                        ("pase", vec![pase]),
                        ("dctcp", vec![dctcp]),
                        ("both", vec![pase, dctcp]),
                    ];
                    opts.schemes = args.lookup(&flag, &table)?;
                }
                "--intensity" => {
                    let (low, high) = (ChaosIntensity::Low, ChaosIntensity::High);
                    let table = [
                        ("low", vec![low]),
                        ("high", vec![high]),
                        ("both", vec![low, high]),
                    ];
                    opts.intensities = args.lookup(&flag, &table)?;
                }
                "--faults" => {
                    let mut table: Vec<_> = FaultClass::all()
                        .iter()
                        .map(|c| (c.name(), vec![*c]))
                        .collect();
                    table.push(("both", vec![FaultClass::Fabric, FaultClass::Host]));
                    table.push(("all", FaultClass::all().to_vec()));
                    opts.fault_classes = args.lookup(&flag, &table)?;
                }
                "--jobs" => opts.jobs = args.in_range(&flag, 1..)?,
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(opts)
    }

    /// Parse the process arguments; on a bad flag print the error and
    /// [`USAGE`], and exit with status 2.
    pub fn from_env() -> ChaosOpts {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e, USAGE))
    }

    /// The sweep matrix in canonical case order: scheme → fault class →
    /// intensity → seed.
    pub fn cases(&self) -> Vec<Case> {
        let mut cases = Vec::new();
        for &scheme in &self.schemes {
            for &fault_class in &self.fault_classes {
                for &intensity in &self.intensities {
                    for &seed in &self.seeds {
                        cases.push((scheme, fault_class, intensity, seed));
                    }
                }
            }
        }
        cases
    }
}

/// The chaos workload: all-to-all short flows on the small leaf-spine
/// fabric (2 spines x 4 leaves — every inter-leaf flow has two equal-cost
/// paths for the rerouter to fall back on). No background flows, so a
/// finished run has a quiescent data plane and conservation is exact.
fn chaos_scenario(quick: bool) -> Scenario {
    Scenario {
        name: "chaos-leaf-spine",
        topo: TopologySpec::small_leaf_spine(2),
        pattern: Pattern::AllToAll,
        sizes: SizeDist::UniformBytes {
            lo: 2_000,
            hi: 100_000,
        },
        deadlines: None,
        n_background: 0,
        n_flows: if quick { 80 } else { 250 },
    }
}

/// Chaos horizon: long enough to overlap most of the flow-arrival window,
/// short enough that the healed tail lets everything finish.
fn horizon(quick: bool) -> SimDuration {
    if quick {
        SimDuration::from_millis(10)
    } else {
        SimDuration::from_millis(30)
    }
}

/// What one chaos case did.
#[derive(Debug)]
pub struct CaseResult {
    /// The scheme under test.
    pub scheme: &'static str,
    /// Fault density.
    pub intensity: ChaosIntensity,
    /// Fault classes injected.
    pub fault_class: FaultClass,
    /// The seed (drives both workload and fault schedule).
    pub seed: u64,
    /// Violations (empty = clean): the runner's warning for a truncated
    /// or invariant-breaking run, flows left incomplete or aborted without
    /// an injected cause, and an invalid generated fault plan.
    pub violations: Vec<String>,
    /// Flows that never completed.
    pub incomplete_flows: usize,
    /// Flows that ended in a terminal `Aborted` state (all attributable
    /// to injected host faults, or the case fails).
    pub aborted_flows: usize,
    /// [`HashTracer`] digest of the full event trace (determinism
    /// fingerprint).
    pub trace_hash: u64,
    /// FNV-1a hash of the aggregate stats counters and every flow's
    /// terminal record. The trace hash proves the event *sequence* is
    /// unchanged; this proves the bookkeeping derived from it is too, so
    /// sweeps can be compared across engine-optimization changes.
    pub stats_hash: u64,
    /// Data packets blackholed during the run (visibility, not a failure).
    pub blackholed: u64,
    /// Events executed by one run of the case (throughput numerator).
    pub events: u64,
    /// `events` by kind, in [`EventKind::KINDS`] order.
    pub events_by_kind: [u64; EventKind::KINDS.len()],
    /// Timer arms that queued no event (see [`netsim::timer`]).
    pub timer_arms_superseded: u64,
    /// Data packets delivered by one run of the case.
    pub delivered: u64,
    /// Peak pending-event count in one run of the case.
    pub peak_pending: usize,
    /// Control messages processed across all arbitrators.
    pub ctrl_processed: u64,
    /// Control messages shed across all arbitrators.
    pub ctrl_shed: u64,
    /// Largest weighted per-epoch inbox depth any arbitrator saw.
    pub ctrl_peak_depth: u64,
    /// High-water mark of simultaneously outstanding arena packets in one
    /// run of the case.
    pub arena_peak_outstanding: u64,
    /// Arena allocations served from the free list instead of the global
    /// heap in one run of the case.
    pub arena_recycled: u64,
}

impl CaseResult {
    /// Did the case pass (all flows complete, all invariants hold)?
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.incomplete_flows == 0
    }
}

/// FNV-1a fingerprint of the run's [`netsim::stats::StatsCollector`]
/// totals plus every flow's terminal record, serialized in a fixed
/// little-endian order. A fingerprint of the *model*: event counts stay
/// out of it ([`CaseResult::events`] is compared on its own), so it
/// survives work that removes events without changing what they did.
fn stats_fingerprint(sim: &Simulation) -> u64 {
    fn push(bytes: &mut Vec<u8>, v: u64) {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let st = sim.stats();
    let mut bytes: Vec<u8> = Vec::with_capacity(4096);
    for v in [
        st.data_pkts_injected,
        st.data_pkts_delivered,
        st.data_pkts_dropped,
        st.data_pkts_enqueued,
        st.data_pkts_blackholed,
        0, // a retired fate's slot (plugin-consumed), kept so digests hold
        st.data_pkts_lost_to_crash,
        st.data_pkts_corrupted,
        st.blackhole_pkts,
        st.ctrl_pkts,
        st.ctrl_bytes,
        st.ctrl_msgs_processed,
        st.ctrl_msgs_shed,
        st.ctrl_pkts_dropped,
        st.ctrl_pkts_blackholed,
        st.ctrl_pkts_corrupted,
        st.ctrl_lost_to_crash,
        st.ctrl_unattended,
        // Arena lifecycle counters are a pure function of the event
        // sequence, so they must match across scheduler engines and job
        // counts just like every other stat.
        st.arena.allocated,
        st.arena.recycled,
        st.arena.released,
        st.arena.peak_outstanding,
    ] {
        push(&mut bytes, v);
    }
    for rec in st.flows() {
        push(&mut bytes, rec.spec.id.0);
        push(&mut bytes, rec.completed.map_or(u64::MAX, |t| t.as_nanos()));
        let reason = match (rec.aborted, rec.abort_reason) {
            (false, _) => 0,
            (true, None) => 1,
            (true, Some(AbortReason::EarlyTermination)) => 2,
            (true, Some(AbortReason::MaxRtosExceeded)) => 3,
            (true, Some(AbortReason::HostCrash)) => 4,
        };
        push(&mut bytes, reason);
        push(&mut bytes, rec.retransmitted_bytes);
        push(&mut bytes, rec.timeouts);
        push(&mut bytes, rec.probes_sent);
        push(&mut bytes, rec.drops);
    }
    fnv1a(FNV1A_OFFSET, &bytes)
}

/// One flash-crowd burst: `n` short flows between random distinct hosts,
/// appended to `flows` with arrivals a few microseconds apart from `at` —
/// a crowd, not a single synchronized spike.
pub fn flash_crowd_burst(
    rng: &mut Rng,
    hosts: &[NodeId],
    at: SimTime,
    n: u64,
    measured: bool,
    flows: &mut Vec<FlowSpec>,
) {
    for i in 0..n {
        let src = rng.gen_index(hosts.len());
        let mut dst = rng.gen_index(hosts.len() - 1);
        if dst >= src {
            dst += 1;
        }
        let size = rng.gen_range_inclusive(2_000, 20_000);
        let start = at + SimDuration::from_micros(3 * i);
        let id = FlowId(flows.len() as u64);
        let mut spec = FlowSpec::new(id, hosts[src], hosts[dst], size, start);
        spec.measured = measured;
        flows.push(spec);
    }
}

/// Flash-crowd companions to the control storms: a deterministic burst of
/// short flows lands right as each storm's amplification begins, so the
/// shed pressure on the arbitrators is real arbitration demand and not
/// just an idle multiplier. Drawn from a dedicated RNG stream seeded off
/// the case seed; purely a function of `(plan, hosts, seed, quick)`.
fn flash_crowd_flows(
    plan: &FaultPlan,
    hosts: &[NodeId],
    seed: u64,
    quick: bool,
    flows: &mut Vec<FlowSpec>,
) {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0ad1);
    let burst = if quick { 6 } else { 12 };
    for &(at, ev) in plan.events() {
        if ev.describe().0 == Pairing::Opens(FaultFamily::CtrlStorm) {
            flash_crowd_burst(&mut rng, hosts, at, burst, true, flows);
        }
    }
}

/// Execute one chaos case once on `engine` and audit it.
pub fn run_once(engine: EngineKind, case: Case, quick: bool) -> CaseResult {
    let (_, class, intensity, seed) = case;
    let cfg = ChaosConfig {
        seed,
        intensity,
        class,
        horizon: horizon(quick),
    };
    run_plan(engine, case, quick, |topo| chaos::generate(topo, &cfg))
}

/// Run one case through [`RunSpec::run_with`] under the fault plan
/// `plan_for` draws on its fabric, and audit it. An invalid plan is a
/// violation and is not injected (the case runs without its faults):
/// injecting one panics on the first link that does not exist, which
/// would take the worker thread down instead of printing the replay
/// command.
fn run_plan(
    engine: EngineKind,
    case: Case,
    quick: bool,
    plan_for: impl FnOnce(&Topology) -> FaultPlan,
) -> CaseResult {
    let (scheme, fault_class, intensity, seed) = case;
    let spec = RunSpec {
        engine,
        ..RunSpec::new(scheme, chaos_scenario(quick), 0.5, seed)
    };
    // The harness only ever compares traces, so it hashes the events
    // themselves (every field, exact nanoseconds) and renders no text.
    let tracer = HashTracer::new();
    let trace_digest = tracer.digest();
    let mut violations: Vec<String> = Vec::new();
    let mut plan = FaultPlan::new();
    let (m, sim) = spec.run_with(|sim, hosts, flows| {
        if fault_class == FaultClass::Gray {
            // The gray class is the detection/recovery story: switches
            // keep per-port health scores and re-hash flows off degraded
            // siblings.
            sim.enable_health_aware_routing();
        }
        plan = plan_for(sim.topo());
        if fault_class == FaultClass::Overload {
            flash_crowd_flows(&plan, hosts, seed, quick, flows);
        }
        sim.set_tracer(Box::new(tracer));
        match plan.validate(sim.topo()) {
            Ok(()) => sim.inject_faults(&plan),
            Err(e) => violations.push(format!("generated fault plan invalid: {e}")),
        }
    });
    violations.extend(backstop_warning(&spec, &m));
    let incomplete_flows = sim
        .stats()
        .flows()
        .filter(|r| r.completed.is_none())
        .count();
    if incomplete_flows > 0 {
        violations.push(format!("{incomplete_flows} flows never completed"));
    }

    // Every aborted flow must be attributable to an injected host fault:
    // its source crashed (HostCrash), or its sender exhausted the RTO
    // budget against an endpoint that crashed, lost its NIC link, or sat
    // behind a degraded (gray) NIC link.
    let mut crashed_hosts: BTreeSet<NodeId> = BTreeSet::new();
    let mut flapped_hosts: BTreeSet<NodeId> = BTreeSet::new();
    for &(_, ev) in plan.events() {
        match ev.describe() {
            (Pairing::Opens(FaultFamily::HostCrash), Subject::Node(node)) => {
                crashed_hosts.insert(node);
            }
            (Pairing::Opens(FaultFamily::Outage | FaultFamily::Degrade), Subject::Link(a, b)) => {
                let is_host = |n: &NodeId| sim.topo().kind(*n) == NodeKind::Host;
                flapped_hosts.extend([a, b].into_iter().filter(is_host));
            }
            _ => {}
        }
    }
    let mut aborted_flows = 0;
    for rec in sim.stats().flows() {
        let Some(reason) = rec.abort_reason else {
            continue;
        };
        aborted_flows += 1;
        let (src, dst) = (rec.spec.src, rec.spec.dst);
        let attributable = match reason {
            AbortReason::HostCrash => crashed_hosts.contains(&src),
            AbortReason::MaxRtosExceeded => [src, dst]
                .iter()
                .any(|n| crashed_hosts.contains(n) || flapped_hosts.contains(n)),
            AbortReason::EarlyTermination => false,
        };
        if !attributable {
            violations.push(format!(
                "{} ({src} -> {dst}) aborted with {reason:?} but neither endpoint \
                 was hit by an injected host fault",
                rec.spec.id
            ));
        }
    }

    let trace_hash = *trace_digest.lock().expect("trace digest poisoned");
    CaseResult {
        scheme: scheme.name(),
        intensity,
        fault_class,
        seed,
        violations,
        incomplete_flows,
        aborted_flows,
        trace_hash,
        stats_hash: stats_fingerprint(&sim),
        blackholed: sim.stats().data_pkts_blackholed,
        events: sim.stats().events_executed,
        events_by_kind: sim.stats().events_by_kind,
        timer_arms_superseded: sim.stats().timer_arms_superseded,
        delivered: sim.stats().data_pkts_delivered,
        peak_pending: sim.scheduler().peak_pending(),
        ctrl_processed: sim.stats().ctrl_msgs_processed,
        ctrl_shed: sim.stats().ctrl_msgs_shed,
        ctrl_peak_depth: sim
            .stats()
            .ctrl_peak_epoch_by_node()
            .map(|(_, d)| d)
            .max()
            .unwrap_or(0),
        arena_peak_outstanding: sim.stats().arena.peak_outstanding,
        arena_recycled: sim.stats().arena.recycled,
    }
}

/// Execute one chaos case **twice** and require byte-identical traces.
pub fn run_case(
    scheme: Scheme,
    intensity: ChaosIntensity,
    fault_class: FaultClass,
    seed: u64,
    quick: bool,
) -> CaseResult {
    let case = (scheme, fault_class, intensity, seed);
    let mut first = run_once(EngineKind::Wheel, case, quick);
    let second = run_once(EngineKind::Wheel, case, quick);
    if first.trace_hash != second.trace_hash {
        first.violations.push(format!(
            "non-deterministic: trace hash {:#018x} != {:#018x} on replay",
            first.trace_hash, second.trace_hash
        ));
    }
    if first.stats_hash != second.stats_hash {
        first.violations.push(format!(
            "non-deterministic: stats hash {:#018x} != {:#018x} on replay",
            first.stats_hash, second.stats_hash
        ));
    }
    if first.events != second.events {
        first.violations.push(format!(
            "non-deterministic: {} events executed != {} on replay",
            first.events, second.events
        ));
    }
    first
}

/// One fingerprint for a whole sweep: FNV-1a over every case's
/// `(trace_hash, stats_hash)` in case order, so "this sweep is identical
/// to that one" is a one-line comparison.
pub fn sweep_digest(results: &[CaseResult]) -> u64 {
    results.iter().fold(FNV1A_OFFSET, |h, r| {
        let h = fnv1a(h, &r.trace_hash.to_le_bytes());
        fnv1a(h, &r.stats_hash.to_le_bytes())
    })
}

/// The command replaying one case on `bin` (`chaos`, or `engine_diff`,
/// which takes the same flags).
pub fn replay_command(bin: &str, r: &CaseResult, quick: bool) -> String {
    let intensity = match r.intensity {
        ChaosIntensity::Low => "low",
        ChaosIntensity::High => "high",
    };
    let scheme = match r.scheme {
        "PASE" => "pase",
        _ => "dctcp",
    };
    // The full flag set, so the replay reproduces the failing case
    // exactly: `--jobs 1` pins single-threaded execution (results are
    // identical at any job count, but the failure is easier to follow).
    format!(
        "cargo run --release -p experiments --bin {bin} -- --verbose \
         --seed-list {} --scheme {} --intensity {} --faults {} --jobs 1{}",
        r.seed,
        scheme,
        intensity,
        r.fault_class.name(),
        if quick { " --quick" } else { "" }
    )
}

/// Run the full sweep. Returns every case result; the binary turns
/// failures into a non-zero exit.
///
/// Cases execute on the [`workloads::exec`] engine with `opts.jobs`
/// workers. The case order (scheme → fault class → intensity → seed) and
/// all stderr reporting are identical to the sequential sweep at any job
/// count: results come back ordered by case index and reporting happens
/// afterwards, in that order.
pub fn sweep(opts: &ChaosOpts) -> Vec<CaseResult> {
    let out = run_cases(
        &opts.cases(),
        opts.jobs,
        |&(scheme, fault_class, intensity, seed)| {
            run_case(scheme, intensity, fault_class, seed, opts.quick)
        },
    );
    for r in &out {
        if opts.verbose || !r.passed() {
            eprintln!(
                "chaos {:>5} {:?}/{} seed {:>3}: {} (blackholed {}, aborted {}, \
                 shed {}/{}, events {}, trace {:#018x}, stats {:#018x})",
                r.scheme,
                r.intensity,
                r.fault_class.name(),
                r.seed,
                if r.passed() { "ok" } else { "FAIL" },
                r.blackholed,
                r.aborted_flows,
                r.ctrl_shed,
                r.ctrl_processed + r.ctrl_shed,
                r.events,
                r.trace_hash,
                r.stats_hash,
            );
        }
        if !r.passed() {
            for v in &r.violations {
                eprintln!("  violation: {v}");
            }
            eprintln!("  replay: {}", replay_command("chaos", r, opts.quick));
        }
    }
    if opts.verbose {
        let by_kind = std::array::from_fn(|k| out.iter().map(|r| r.events_by_kind[k]).sum());
        let superseded: u64 = out.iter().map(|r| r.timer_arms_superseded).sum();
        eprintln!(
            "events by kind: {}; {superseded} timer arms superseded",
            workloads::events_by_kind_line(&by_kind)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(s: &str) -> Result<ChaosOpts, String> {
        ChaosOpts::from_args(s.split_whitespace().map(String::from))
    }

    fn parse(s: &str) -> ChaosOpts {
        try_parse(s).unwrap()
    }

    #[test]
    fn arg_parsing() {
        let o = parse("--seeds 4 --scheme pase --intensity high --faults host --quick");
        assert_eq!(o.seeds, vec![0, 1, 2, 3]);
        assert_eq!(o.schemes.len(), 1);
        assert_eq!(o.intensities, vec![ChaosIntensity::High]);
        assert_eq!(o.fault_classes, vec![FaultClass::Host]);
        assert!(o.quick);
        let o2 = parse("--seed-list 7,9");
        assert_eq!(o2.seeds, vec![7, 9]);
        assert_eq!(
            o2.fault_classes,
            FaultClass::all().to_vec(),
            "default sweeps every fault class"
        );
        let o3 = parse("--faults gray");
        assert_eq!(o3.fault_classes, vec![FaultClass::Gray]);
        let o4 = parse("--faults all");
        assert_eq!(o4.fault_classes, FaultClass::all().to_vec());
    }

    /// Every fault class's CLI name parses back to exactly that class —
    /// a rename that misses the parser (or vice versa) would make the
    /// replay command and the `--faults` help line lie.
    #[test]
    fn fault_class_names_round_trip_through_the_parser() {
        for class in FaultClass::all() {
            let o = parse(&format!("--faults {}", class.name()));
            assert_eq!(o.fault_classes, vec![class], "{}", class.name());
        }
    }

    /// The replay line a failing case prints must parse back into exactly
    /// that one case, verbose and single-threaded, from its flags alone
    /// (nothing for the shell to set) — a drifted flag set would replay
    /// the wrong configuration.
    #[test]
    fn replay_command_round_trips_through_the_parser() {
        for (fault_class, quick) in [
            (FaultClass::Fabric, false),
            (FaultClass::Host, true),
            (FaultClass::Gray, true),
            (FaultClass::Overload, true),
        ] {
            let r = CaseResult {
                scheme: "PASE",
                intensity: ChaosIntensity::High,
                fault_class,
                seed: 17,
                violations: vec![],
                incomplete_flows: 0,
                aborted_flows: 0,
                trace_hash: 0,
                stats_hash: 0,
                blackholed: 0,
                events: 0,
                events_by_kind: Default::default(),
                timer_arms_superseded: 0,
                delivered: 0,
                peak_pending: 0,
                ctrl_processed: 0,
                ctrl_shed: 0,
                ctrl_peak_depth: 0,
                arena_peak_outstanding: 0,
                arena_recycled: 0,
            };
            let cmd = replay_command("chaos", &r, quick);
            assert!(cmd.starts_with("cargo run "), "no env prefix: {cmd}");
            let args = cmd
                .split_once(" -- ")
                .expect("replay command has a `--` separator")
                .1;
            let o = parse(args);
            assert_eq!(o.seeds, vec![17]);
            assert_eq!(o.schemes, vec![Scheme::Pase]);
            assert_eq!(o.intensities, vec![ChaosIntensity::High]);
            assert_eq!(o.fault_classes, vec![fault_class]);
            assert_eq!(o.quick, quick);
            assert_eq!(o.jobs, 1, "replay pins single-threaded execution");
            assert!(o.verbose, "replay prints the per-case line");
            assert_eq!(
                o.cases(),
                [(Scheme::Pase, fault_class, ChaosIntensity::High, 17)]
            );
        }
    }

    /// Every flag x {missing value, non-number / unknown name, out of
    /// range} is an `Err` naming the flag.
    #[test]
    fn bad_input_is_an_error_naming_the_flag() {
        let table: [(&str, &[&str]); 6] = [
            ("--seeds", &["", "abc", "0", "-1"]),
            ("--seed-list", &["", "abc", "1,x", "1,,2"]),
            ("--scheme", &["", "tcp"]),
            ("--intensity", &["", "medium"]),
            ("--faults", &["", "everything"]),
            ("--jobs", &["", "abc", "0"]),
        ];
        for (flag, bad_values) in table {
            for bad in bad_values {
                let err = try_parse(&format!("{flag} {bad}")).unwrap_err();
                assert!(err.starts_with(flag), "`{flag} {bad}`: {err}");
            }
        }
        assert_eq!(
            try_parse("--bogus").unwrap_err(),
            "unknown argument: --bogus"
        );
    }

    #[test]
    fn jobs_flag_parses() {
        assert_eq!(parse("--jobs 3").jobs, 3);
        assert!(parse("--quick").jobs > 0, "default comes from the engine");
    }

    /// Every plan the generator can be asked for, on every fabric shape
    /// the repo ships (the harness itself only runs the first): it
    /// validates, every event lands in the first 95% of the horizon, no
    /// two windows on one subject overlap — whatever their families: a
    /// gray episode never covers an outage of its link, a control storm
    /// never hits a crashed arbitrator — and a non-fabric class always
    /// has an episode of its own.
    #[test]
    fn every_fault_heals_within_the_horizon() {
        use std::collections::BTreeMap;
        let own_family = |class| match class {
            FaultClass::Fabric => None,
            FaultClass::Host => Some(FaultFamily::HostCrash),
            FaultClass::Gray => Some(FaultFamily::Degrade),
            FaultClass::Overload => Some(FaultFamily::CtrlStorm),
        };
        for shape in [
            TopologySpec::small_leaf_spine(2),
            TopologySpec::small_three_tier(2),
            TopologySpec::fat_tree(4),
            TopologySpec::intra_rack(4),
        ] {
            let (sim, _) = Scheme::Dctcp.build_sim(&shape);
            let topo = sim.topo();
            for (class, intensity, horizon_ms, seed) in FaultClass::all()
                .into_iter()
                .flat_map(|c| [ChaosIntensity::Low, ChaosIntensity::High].map(|i| (c, i)))
                .flat_map(|(c, i)| [1, 10, 30, 100].map(|h| (c, i, h)))
                .flat_map(|(c, i, h)| (0..8).map(move |seed| (c, i, h, seed)))
            {
                let cfg = ChaosConfig {
                    seed,
                    intensity,
                    class,
                    horizon: SimDuration::from_millis(horizon_ms),
                };
                let what = format!("{shape:?} {cfg:?}");
                let plan = chaos::generate(topo, &cfg);
                plan.validate(topo)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let latest = SimTime::from_nanos(cfg.horizon.as_nanos() * 95 / 100);
                let mut open: BTreeMap<Subject, SimTime> = BTreeMap::new();
                let mut windows: BTreeMap<Subject, Vec<(SimTime, SimTime)>> = BTreeMap::new();
                let mut families = BTreeSet::new();
                for &(at, ev) in plan.events() {
                    assert!(at <= latest, "{what}: {ev:?} at {at}, past {latest}");
                    let (pairing, subject) = ev.describe();
                    match pairing {
                        Pairing::Opens(family) => {
                            families.insert(family);
                            let again = open.insert(subject.key(), at);
                            assert_eq!(again, None, "{what}: {subject} opened while open");
                        }
                        Pairing::Closes(_) => {
                            let from = open.remove(&subject.key()).expect("validated");
                            windows.entry(subject.key()).or_default().push((from, at));
                        }
                        Pairing::Point => {}
                    }
                }
                for (subject, mut spans) in windows {
                    spans.sort();
                    for pair in spans.windows(2) {
                        assert!(
                            pair[0].1 < pair[1].0,
                            "{what}: {subject} overlaps: {pair:?}"
                        );
                    }
                }
                if let Some(family) = own_family(class) {
                    assert!(families.contains(&family), "{what}: no {family:?} episode");
                }
            }
        }
    }

    /// A plan that names a link the fabric does not have is reported and
    /// replayable, not injected: `inject_faults` would panic on it and
    /// take the sweep's worker thread down. The case runs without it.
    #[test]
    fn an_invalid_plan_is_a_violation_not_a_panic() {
        let case = (Scheme::Dctcp, FaultClass::Fabric, ChaosIntensity::Low, 1);
        let r = run_plan(EngineKind::Wheel, case, true, |topo| {
            let hosts = topo.hosts();
            FaultPlan::new()
                .link_down(SimTime::from_millis(1), hosts[0], hosts[1])
                .link_up(SimTime::from_millis(2), hosts[0], hosts[1])
        });
        assert!(!r.passed());
        assert!(
            r.violations[0].starts_with("generated fault plan invalid:")
                && r.violations[0].contains("non-adjacent"),
            "{:?}",
            r.violations
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.events > 0 && r.incomplete_flows == 0, "runs fault-free");
        assert!(replay_command("chaos", &r, true).contains("--seed-list 1 "));
    }

    /// A miniature slice of the CI smoke sweep: one seed per scheme and
    /// fault class at high intensity must complete with every invariant
    /// intact and a reproducible trace.
    #[test]
    fn chaos_smoke_slice_is_clean() {
        for scheme in [Scheme::Dctcp, Scheme::Pase] {
            for fault_class in FaultClass::all() {
                let r = run_case(scheme, ChaosIntensity::High, fault_class, 3, true);
                assert!(
                    r.passed(),
                    "{} {} seed 3 failed:\n{}",
                    r.scheme,
                    fault_class.name(),
                    r.violations.join("\n")
                );
            }
        }
    }

    /// The reference heap engine and the wheel agree on a faulted PASE
    /// case hash for hash (`engine_diff` holds the whole CI slice to
    /// this in release mode).
    #[test]
    fn heap_and_wheel_engines_agree_on_a_chaos_case() {
        let [heap, wheel] = [EngineKind::Heap, EngineKind::Wheel].map(|engine| {
            let case = (Scheme::Pase, FaultClass::Overload, ChaosIntensity::High, 5);
            let r = run_once(engine, case, true);
            assert!(r.passed(), "{engine:?}: {}", r.violations.join("\n"));
            (r.trace_hash, r.stats_hash, r.events)
        });
        assert_eq!(heap, wheel);
    }

    /// `run_once`'s `trace_hash` is the digest of a [`HashTracer`] on
    /// the same world built, faulted and run by hand — without the
    /// invariant monitor, which must leave the trace untouched — for a
    /// faulted case whose trace has the `FLT`, drop and abort events a
    /// healthy run lacks.
    #[test]
    fn trace_hash_is_the_hash_tracers_digest() {
        let (seed, intensity, class) = (3, ChaosIntensity::High, FaultClass::Host);
        let scenario = chaos_scenario(true);
        let (mut sim, hosts) = Scheme::Pase.build_sim(&scenario.topo);
        let cfg = ChaosConfig {
            seed,
            intensity,
            class,
            horizon: horizon(true),
        };
        sim.inject_faults(&chaos::generate(sim.topo(), &cfg));
        let tracer = HashTracer::new();
        let digest = tracer.digest();
        sim.set_tracer(Box::new(tracer));
        sim.add_flows(scenario.generate_flows(0.5, seed, &hosts));
        sim.run(RunLimit::until_measured_done(SimTime::from_secs(120)));
        let r = run_once(
            EngineKind::Wheel,
            (Scheme::Pase, class, intensity, seed),
            true,
        );
        assert!(r.blackholed > 0 && r.aborted_flows > 0, "case too tame");
        assert_eq!(r.trace_hash, *digest.lock().unwrap());
    }

    /// The overload class must actually exercise the shed path on PASE
    /// (storms + flash crowds push arbitrators past their budget) while
    /// DCTCP — no control plane — sheds nothing and is untouched by it.
    #[test]
    fn overload_sheds_on_pase_and_is_inert_on_dctcp() {
        let p = run_case(
            Scheme::Pase,
            ChaosIntensity::High,
            FaultClass::Overload,
            3,
            true,
        );
        assert!(p.passed(), "{}", p.violations.join("\n"));
        assert!(
            p.ctrl_shed > 0,
            "storms at high intensity must shed (peak epoch depth {})",
            p.ctrl_peak_depth
        );
        assert!(p.ctrl_processed > 0, "shedding must not starve processing");
        let d = run_case(
            Scheme::Dctcp,
            ChaosIntensity::High,
            FaultClass::Overload,
            3,
            true,
        );
        assert!(d.passed(), "{}", d.violations.join("\n"));
        assert_eq!(d.ctrl_shed, 0, "DCTCP has no control plane to shed");
        assert_eq!(d.ctrl_processed, 0);
    }
}
