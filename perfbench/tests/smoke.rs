//! `cargo test`: the smoke profile (tiny sizes, one repetition) through
//! every workload in both modes, then a check of everything emitted
//! against `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use perfbench::json::{self, Value};
use perfbench::spec;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `BENCHMARK.json` itself stays inside the limits its readers enforce.
#[test]
fn benchmark_json_is_within_its_contract() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let doc = json::parse(BENCHMARK_JSON).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let mut seen = std::collections::BTreeSet::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let why = w.get("why").and_then(Value::as_str).expect("workload why");
        assert!(name_ok(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        assert!(seen.insert(name.to_string()), "{name} used twice");
    }
    let e2e = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    let spec = spec::load();
    assert!((1..=128).contains(&spec.per_layer.len()));
    for m in e2e {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is mandatory");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(name_ok(&m.name), "{}", m.name);
        assert!(unit_ok(&m.unit), "{}: unit `{}`", m.name, m.unit);
        assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
    }
}

/// All five workloads, untraced and traced, one process each (`--all`
/// fails if the two processes of a workload disagree on `sim_digest`);
/// the combined document names every workload and metric of
/// `BENCHMARK.json` exactly once with its unit and a finite value, and
/// `bench-diff` reads it.
#[test]
fn smoke_profile_emits_every_declared_metric() {
    let spec = spec::load();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--all", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("perfbench runs");
    assert!(
        run.status.success(),
        "perfbench --all --smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("combined document written");
    // The parser rejects duplicate keys and non-finite numbers, so
    // "exactly once" and "no NaN/inf" hold for whatever parses.
    let doc = json::parse(&text).expect("combined document is valid JSON");
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_obj)
        .expect("workloads");
    let mut declared = spec.workloads.clone();
    declared.sort();
    assert_eq!(workloads.keys().cloned().collect::<Vec<_>>(), declared);
    for (w, body) in workloads {
        let digest = body
            .get("sim_digest")
            .and_then(Value::as_str)
            .expect("sim_digest");
        assert!(
            digest.starts_with("0x") && digest.len() == 18,
            "{w}: {digest}"
        );
        for (set, want) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            let got = body.get(set).and_then(Value::as_obj).expect("metric set");
            assert_eq!(got.len(), want.len(), "{w}: {set} has undeclared metrics");
            for want in want {
                let name = &want.name;
                let m = got
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(want.unit.as_str())
                );
                let v = m.get("value").and_then(Value::as_f64).expect("value");
                assert!(v.is_finite(), "{w}: {name} = {v}");
                if set == "end_to_end" {
                    assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
                }
            }
        }
        // The exercise/bypass pair that holds at any size.
        let ctrl = body
            .get("per_layer")
            .and_then(|l| l.get("pase.ctrl_pkts"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("pase.ctrl_pkts");
        match w.as_str() {
            "fabric-dctcp" => assert_eq!(ctrl, 0.0, "DCTCP has no control plane"),
            "fabric-pase" | "scale-k16" | "figure-sweep" => assert!(ctrl > 0.0, "{w}"),
            _ => {}
        }
        let trace = perfbench::measure::out_dir().join(format!("{w}.trace.json"));
        let spans = json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
            .expect("trace is valid JSON");
        assert_eq!(
            spans.get("sim_digest").and_then(Value::as_str),
            Some(digest)
        );
    }

    let diff = |b: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_bench-diff"))
            .arg(&out)
            .arg(b)
            .output()
            .expect("bench-diff runs")
    };
    let same = diff(&out);
    assert!(
        same.status.success(),
        "a document must not differ from itself"
    );
    assert!(!String::from_utf8_lossy(&same.stdout).contains("MODEL CHANGED"));
    let tampered = out.with_file_name("tampered.json");
    std::fs::write(
        &tampered,
        text.replacen("\"sim_digest\": \"0x", "\"sim_digest\": \"0xf", 1),
    )
    .expect("write tampered copy");
    let changed = diff(&tampered);
    assert!(
        !changed.status.success(),
        "a changed digest must fail the diff"
    );
    assert!(String::from_utf8_lossy(&changed.stdout).contains("MODEL CHANGED"));
}

/// The driver's exact invocation shape, and the refusal of a bad one.
#[test]
fn driver_invocation_prints_one_result_object_last() {
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "fabric-pase", "--seed", "3", "--seconds", "0"])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("perfbench runs");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let doc = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--smoke"])
        .output()
        .expect("perfbench runs");
    assert!(!bad.status.success() && bad.stdout.is_empty());
}
