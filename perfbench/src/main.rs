//! `perfbench`: the command `BENCHMARK.json` names.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench --all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! perfbench --aa  [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON object as the last line of stdout (`--trace 0`: the end-to-end
//! metrics; `--trace 1`: the per-layer metrics, spans written to
//! `perfbench/out/<workload>.trace.json`). `--all` and `--aa` re-exec
//! this binary once per workload and mode, so every `peak_rss_bytes` is
//! the `VmHWM` of a process that ran that workload and nothing else.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use perfbench::json::{self, Value};
use perfbench::measure;
use perfbench::spec::{self, Spec};
use perfbench::workloads::{jobs, Bench, WORKLOADS};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    all: bool,
    aa: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        all: false,
        aa: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => a.out = Some(value()?),
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            "--aa" => a.aa = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(a)
}

/// Measure one workload in this process and print the result line.
fn run_one(name: &str, args: &Args, spec: &Spec) -> ExitCode {
    let Some(bench) = Bench::new(name, args.seed, args.smoke) else {
        eprintln!("perfbench: unknown workload `{name}`; known: {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { spec.run_seconds });
    match measure::run(bench, seconds, args.trace) {
        Ok(out) => {
            eprintln!(
                "perfbench: {name} seed={} jobs={} reps={}+{} sim_digest={:#018x}",
                args.seed,
                if bench.is_sweep() { jobs() } else { 1 },
                out.reps.0,
                out.reps.1,
                out.digest
            );
            let declared = if args.trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
                out.attempted,
                spec::render_metrics(declared, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(breach) => {
            // The simulated output is wrong (or not reproducible): name the
            // offending case and emit no metrics for this workload.
            eprintln!("perfbench: {name}: INCORRECT OUTPUT: {breach}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}

/// What a child process reported.
struct Child {
    attempted: f64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

/// Re-exec this binary for one workload and mode, and parse its result.
fn child(name: &str, trace: bool, args: &Args) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprint!("{stderr}");
    if !out.status.success() {
        return Err(format!("{name} (trace {trace}) exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(line)?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{name}: child reported incorrect output"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("child result without metrics")?
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Value::as_f64);
            value
                .map(|x| (k.clone(), x))
                .ok_or(format!("metric {k} without value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Child {
        attempted: doc.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
        digest: stderr
            .split("sim_digest=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or("child stderr without sim_digest")?
            .to_string(),
        metrics,
    })
}

/// `--all`: every workload, untraced then traced, one process each; the
/// combined document (what `bench-diff` compares) goes to stdout and
/// `--out`.
fn run_all(args: &Args, spec: &Spec) -> Result<(), String> {
    let mut body = Vec::new();
    for name in &spec.workloads {
        let e2e = child(name, false, args)?;
        let layer = child(name, true, args)?;
        if e2e.digest != layer.digest {
            return Err(format!(
                "{name}: traced and untraced runs disagree on sim_digest ({} vs {})",
                layer.digest, e2e.digest
            ));
        }
        body.push(format!(
            "    \"{name}\": {{\"sim_digest\": \"{}\", \"attempted\": {}, \"failed\": 0,\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}}}",
            e2e.digest,
            e2e.attempted,
            spec::render_metrics(&spec.end_to_end, &e2e.metrics),
            spec::render_metrics(&spec.per_layer, &layer.metrics)
        ));
    }
    let doc = format!(
        "{{\n  \"schema\": \"perfbench/1\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"nproc\": {},\n  \"jobs\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.seconds.unwrap_or(spec.run_seconds),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        jobs(),
        body.join(",\n")
    );
    json::parse(&doc).map_err(|e| format!("combined document is not valid JSON: {e}"))?;
    if let Some(path) = &args.out {
        std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
    }
    print!("{doc}");
    Ok(())
}

/// `--aa`: the end-to-end set twice on this one binary, the second pass
/// in reverse workload order; prints each metric's relative difference
/// beside its bound. Simulated metrics and digests must agree exactly.
fn run_aa(args: &Args, spec: &Spec) -> Result<bool, String> {
    let mut a = BTreeMap::new();
    let mut b = BTreeMap::new();
    for name in &spec.workloads {
        a.insert(name.clone(), child(name, false, args)?);
    }
    for name in spec.workloads.iter().rev() {
        b.insert(name.clone(), child(name, false, args)?);
    }
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B/A-1", "bound"
    );
    for name in &spec.workloads {
        let (ra, rb) = (&a[name], &b[name]);
        if ra.digest != rb.digest {
            println!(
                "{name:<14} sim_digest differs: {} vs {}",
                ra.digest, rb.digest
            );
            ok = false;
        }
        for m in &spec.end_to_end {
            let (va, vb) = (ra.metrics[&m.name], rb.metrics[&m.name]);
            let diff = vb / va - 1.0;
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let exact = m.name.starts_with("sim_");
            let fail = if exact { va != vb } else { diff.abs() > bound };
            println!(
                "{name:<14} {:<16} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}%{}",
                m.name,
                diff * 100.0,
                bound * 100.0,
                if fail { "  EXCEEDED" } else { "" }
            );
            ok &= !fail;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = spec::load();
    let result = if args.all {
        run_all(&args, &spec).map(|()| true)
    } else if args.aa {
        run_aa(&args, &spec)
    } else if let Some(name) = &args.workload {
        return run_one(name, &args, &spec);
    } else {
        Err("give --workload NAME, --all or --aa".to_string())
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
