//! The benchmark's contract, read from the `BENCHMARK.json` this binary
//! was built beside. Metric names, units, directions and bounds live in
//! that one file; the code only supplies values, and [`render_metrics`]
//! refuses to print a result that does not cover exactly the listed
//! names.

use std::collections::BTreeMap;

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether a smaller value is the better one.
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself consumes.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Default measuring time per run, seconds.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    let field = |m: &Value, k: &str| -> String {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without `{k}`"))
            .to_string()
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
        .iter()
        .map(|m| Metric {
            name: field(m, "name"),
            unit: field(m, "unit"),
            lower_is_better: field(m, "better") == "lower",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// Parse the embedded `BENCHMARK.json`.
pub fn load() -> Spec {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("BENCHMARK.json: run_seconds"),
        workloads: doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("BENCHMARK.json: workload name")
                    .to_string()
            })
            .collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}

/// Render `values` as the `"metrics"` object for `declared`, in file
/// order with the declared units. Every declared metric must have a
/// finite value and no undeclared value may be present: a name that
/// drifts between code and `BENCHMARK.json` fails here, not in a reader.
pub fn render_metrics(declared: &[Metric], values: &BTreeMap<String, f64>) -> String {
    for name in values.keys() {
        assert!(
            declared.iter().any(|m| &m.name == name),
            "metric `{name}` is not declared in BENCHMARK.json"
        );
    }
    let body: Vec<String> = declared
        .iter()
        .map(|m| {
            let v = *values
                .get(&m.name)
                .unwrap_or_else(|| panic!("metric `{}` has no value", m.name));
            assert!(v.is_finite(), "metric `{}` is not finite: {v}", m.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                json::escape(&m.name),
                json::escape(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
