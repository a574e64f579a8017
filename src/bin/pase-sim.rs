//! `pase-sim` — run any (transport, scenario, load) combination from the
//! command line and print the metrics.
//!
//! ```sh
//! pase-sim --scheme pase --scenario left-right --load 0.7 --flows 2000
//! pase-sim --scheme pfabric --scenario all-to-all --load 0.9 --seed 3
//! pase-sim --list
//! ```

use pase_repro::workloads::cli::{self, Args};
use pase_repro::workloads::{events_by_kind_line, RunSpec, Scenario, Scheme};

const USAGE: &str = "\
pase-sim — data-center transport simulator (PASE reproduction)

USAGE:
    pase-sim [OPTIONS]

OPTIONS:
    --scheme <name>      tcp | dctcp | d2tcp | l2dct | pdq | pfabric | pase
                         [default: pase]
    --scenario <name>    left-right | all-to-all | deadline | medium |
                         websearch | testbed      [default: left-right]
    --load <frac>        offered load as a fraction, in (0, 1.2]
                         [default: 0.7]
    --flows <n>          measured flows to generate, >= 1 [default: 1000]
    --seed <n>           workload seed [default: 1]
    --hosts <n>          hosts per rack (left-right/websearch) or rack
                         size (all-to-all), >= 2 [default: 20]
    --list               list schemes and scenarios, then exit
    --help               show this help
";

const SCHEMES: [(&str, Scheme); 7] = [
    ("tcp", Scheme::Tcp),
    ("dctcp", Scheme::Dctcp),
    ("d2tcp", Scheme::D2tcp),
    ("l2dct", Scheme::L2dct),
    ("pdq", Scheme::Pdq),
    ("pfabric", Scheme::PFabric),
    ("pase", Scheme::Pase),
];

/// A scenario builder taking (hosts, flows).
type ScenarioFn = fn(usize, usize) -> Scenario;

const SCENARIOS: [(&str, ScenarioFn); 6] = [
    ("left-right", Scenario::left_right),
    ("all-to-all", Scenario::all_to_all_intra),
    ("deadline", |_, flows| Scenario::deadline_intra_rack(flows)),
    ("medium", |_, flows| Scenario::medium_intra_rack(flows)),
    ("websearch", Scenario::websearch_left_right),
    ("testbed", |_, flows| Scenario::testbed(flows)),
];

/// One simulation, as asked for on the command line.
struct Run {
    scheme: Scheme,
    scenario: ScenarioFn,
    load: f64,
    flows: usize,
    seed: u64,
    hosts: usize,
}

/// `Ok(None)`: `--list` / `--help` printed what was asked; nothing to run.
fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Run>, String> {
    let mut run = Run {
        scheme: Scheme::Pase,
        scenario: Scenario::left_right,
        load: 0.7,
        flows: 1000,
        seed: 1,
        hosts: 20,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scheme" => run.scheme = args.lookup(&flag, &SCHEMES)?,
            "--scenario" => run.scenario = args.lookup(&flag, &SCENARIOS)?,
            "--load" => run.load = args.in_range(&flag, cli::LOAD_RANGE)?,
            "--flows" => run.flows = args.in_range(&flag, 1..)?,
            "--seed" => run.seed = args.in_range(&flag, ..)?,
            "--hosts" => run.hosts = args.in_range(&flag, 2..)?,
            "--list" => {
                println!("schemes:   {}", SCHEMES.map(|s| s.0).join(" "));
                println!("scenarios: {}", SCENARIOS.map(|s| s.0).join(" "));
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(Some(run))
}

fn main() {
    let parsed = parse(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    let Some(Run {
        scheme,
        scenario,
        load,
        flows,
        seed,
        hosts,
    }) = parsed
    else {
        return;
    };
    let scenario = scenario(hosts, flows);
    eprintln!(
        "running {} on {} at load {:.0}% ({} flows, seed {}, {} hosts)...",
        scheme.name(),
        scenario.name,
        load * 100.0,
        flows,
        seed,
        scenario.topo.n_hosts()
    );
    let started = std::time::Instant::now();
    let m = RunSpec::new(scheme, scenario, load, seed).run();
    let wall = started.elapsed().as_secs_f64();

    println!("flows completed   {} / {}", m.n_completed, m.n_flows);
    println!("AFCT              {:.3} ms", m.afct_ms);
    println!("median FCT        {:.3} ms", m.median_ms);
    println!("p99 FCT           {:.3} ms", m.p99_ms);
    if let Some(at) = m.app_throughput {
        println!("deadlines met     {:.1} %", at * 100.0);
    }
    println!("loss rate         {:.3} %", m.loss_rate * 100.0);
    println!("timeouts          {}", m.timeouts);
    println!("retransmitted     {} B", m.retransmitted_bytes);
    println!("probes            {}", m.probes);
    println!(
        "control plane     {} pkts ({:.0}/s)",
        m.ctrl_pkts, m.ctrl_per_sec
    );
    println!("busiest link      {:.1} %", m.max_link_utilization * 100.0);
    println!(
        "simulated         {:.3} s  ({} events, {:.1} s wall, {:.1} Mev/s)",
        m.sim_seconds,
        m.events,
        wall,
        m.events as f64 / wall / 1e6
    );
    println!(
        "events by kind    {}",
        events_by_kind_line(&m.events_by_kind)
    );
    println!("timer arms        {} superseded", m.timer_arms_superseded);
    let w = m.wheel;
    println!(
        "event wheel       {} pours (largest {} events), {} refiled ({:.1} % of events), \
         {} filed below the horizon ({:.1} %), {} promoted from overflow",
        w.pours,
        w.max_pour,
        w.refiled,
        100.0 * w.refiled as f64 / m.events.max(1) as f64,
        w.filed_below_horizon,
        100.0 * w.filed_below_horizon as f64 / m.events.max(1) as f64,
        w.overflow_promoted
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(s: &str) -> Result<Option<Run>, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_and_overrides() {
        let run = parse_line("").unwrap().expect("no flags is a run");
        assert_eq!(
            (run.scheme.name(), run.load, run.flows),
            ("PASE", 0.7, 1000)
        );
        let line = "--scheme pfabric --scenario all-to-all --load 0.9 --flows 5 --seed 3 --hosts 4";
        let run = parse_line(line).unwrap().expect("a run");
        assert_eq!(run.scheme.name(), Scheme::PFabric.name());
        assert_eq!(
            (run.scenario)(run.hosts, run.flows).name,
            "all-to-all-intra"
        );
        assert_eq!((run.load, run.flows, run.seed, run.hosts), (0.9, 5, 3, 4));
        assert!(parse_line("--load 0.5 --list").unwrap().is_none());
        assert!(parse_line("-h").unwrap().is_none());
    }

    /// Every flag x {missing value, non-number / unknown name, out of
    /// range} is an `Err` naming the flag: `--flows 0` used to simulate
    /// 120 s of background traffic and print `AFCT NaN`, `--load 0` and
    /// `--load abc` used to panic.
    #[test]
    fn bad_input_is_an_error_naming_the_flag() {
        let table: [(&str, &[&str]); 6] = [
            ("--scheme", &["", "quic"]),
            ("--scenario", &["", "ring"]),
            ("--load", &["", "abc", "0", "-0.1", "1.3", "NaN"]),
            ("--flows", &["", "abc", "0"]),
            ("--seed", &["", "abc", "-1"]),
            ("--hosts", &["", "abc", "0", "1"]),
        ];
        for (flag, bad_values) in table {
            for bad in bad_values {
                let err = parse_line(&format!("{flag} {bad}"))
                    .err()
                    .expect("rejected");
                assert!(err.starts_with(flag), "`{flag} {bad}`: {err}");
            }
        }
        let err = parse_line("--bogus").err().expect("rejected");
        assert_eq!(err, "unknown argument: --bogus");
    }
}
