//! `bench-diff A.json B.json`: compare two `perfbench --all` documents.
//!
//! Per workload it first says whether the *model* changed (a different
//! `sim_digest` or event count: a simulator-only change must leave both
//! bit-identical), then lists each end-to-end metric's change from A to B
//! against its bound in `BENCHMARK.json`. A host-time metric whose
//! within-run spread (`bench.run_s_iqr_frac`, either side) exceeds its
//! bound is reported as unresolved, not as unchanged. Exits non-zero when
//! a model changed or a metric regressed past its bound.

use std::process::ExitCode;

use perfbench::json::{self, Value};
use perfbench::spec;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("perfbench/1") => Ok(doc),
        other => Err(format!("{path}: not a perfbench/1 document ({other:?})")),
    }
}

fn metric(doc: &Value, workload: &str, set: &str, name: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(set)?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a_path, b_path] = args.as_slice() else {
        eprintln!("usage: bench-diff A.json B.json");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = spec::load();
    let mut bad = false;
    for w in &spec.workloads {
        let digest = |doc: &Value| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|x| x.get("sim_digest"))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let events = |doc: &Value| metric(doc, w, "per_layer", "netsim.engine.events");
        let (Some(da), Some(db)) = (digest(&a), digest(&b)) else {
            println!("{w}: missing from one document");
            bad = true;
            continue;
        };
        let model_changed = da != db || events(&a) != events(&b);
        println!(
            "{w}: {}",
            if model_changed {
                format!(
                    "MODEL CHANGED (sim_digest {da} -> {db}, events {:?} -> {:?})",
                    events(&a),
                    events(&b)
                )
            } else {
                format!("model identical (sim_digest {da})")
            }
        );
        bad |= model_changed;
        let spread = [&a, &b]
            .map(|d| metric(d, w, "per_layer", "bench.run_s_iqr_frac").unwrap_or(0.0))
            .into_iter()
            .fold(0.0, f64::max);
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                metric(&a, w, "end_to_end", &m.name),
                metric(&b, w, "end_to_end", &m.name),
            ) else {
                println!("  {:<16} missing", m.name);
                bad = true;
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let change = vb / va - 1.0;
            let worse = if m.lower_is_better { change } else { -change };
            let host_time = m.unit == "s";
            let verdict = if host_time && spread > bound {
                "unresolved (run-to-run spread exceeds the bound)"
            } else if worse > bound {
                bad = true;
                "REGRESSION"
            } else {
                "within bound"
            };
            println!(
                "  {:<16} {va:>16.6} -> {vb:>16.6} {:>+8.2}%  bound {:>3.0}%  {verdict}",
                m.name,
                change * 100.0,
                bound * 100.0
            );
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
