//! The experiment harness end to end: every registered figure must
//! produce a well-formed result at quick scale.

use experiments::{figs, ExpOpts};

fn tiny() -> ExpOpts {
    ExpOpts {
        flows: 40,
        loads: vec![0.3, 0.7],
        hosts_per_rack: 4,
        quick: true,
        ..ExpOpts::quick()
    }
}

/// The registry figures `ids` name, at [`tiny`] scale.
fn run_only(ids: &[&str]) -> Vec<experiments::FigResult> {
    let only = ids.iter().map(|id| id.to_string()).collect();
    figs::all(&ExpOpts { only, ..tiny() })
}

#[test]
fn all_figures_produce_well_formed_results() {
    let opts = tiny();
    let figs = figs::all(&opts);
    // Every figure, in paper order (the order EXPERIMENTS.md lists them).
    let ids: Vec<&str> = figs.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "fig01",
            "fig02",
            "fig03",
            "fig04",
            "fig09a",
            "fig09b",
            "fig09c",
            "fig10a",
            "fig10b",
            "fig10c",
            "fig11a",
            "fig11b",
            "fig12a",
            "fig12b",
            "fig13a",
            "fig13b",
            "micro_probing",
            "ablation_prune",
            "ablation_refresh",
            "ext_websearch",
            "ext_incast",
            "ext_faults",
            "ext_link_flap",
            "ext_gray",
            "ext_overload",
            "ext_scale",
        ]
    );
    // `results/` is the committed output of one full-scale
    // `run_all --out results`: one file per figure, none stale or missing.
    let dir = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
    let mut committed: Vec<_> = dir
        .expect("results/ is committed")
        .map(|entry| entry.expect("readable entry").file_name())
        .collect();
    committed.sort();
    let mut expected: Vec<std::ffi::OsString> =
        ids.iter().map(|id| format!("{id}.json").into()).collect();
    expected.sort();
    assert_eq!(committed, expected, "results/ vs the figure registry");
    for fig in &figs {
        assert!(!fig.series.is_empty(), "{}: no series", fig.id);
        assert!(!fig.xs.is_empty(), "{}: no x points", fig.id);
        for s in &fig.series {
            assert_eq!(
                s.ys.len(),
                fig.xs.len(),
                "{}/{}: ragged series",
                fig.id,
                s.name
            );
        }
        assert!(!fig.notes.is_empty(), "{}: no shape note", fig.id);
        // No cell may come from a run its backstop cut short (`run_all`
        // exits 1 on the same condition).
        assert!(
            !figs::common::hit_backstop(fig),
            "{}: truncated cells: {:?}",
            fig.id,
            fig.notes
        );
        // Rendering must not panic and must contain the series names.
        let table = fig.to_table();
        let md = fig.to_markdown();
        for s in &fig.series {
            assert!(
                table.contains(&s.name),
                "{}: table missing {}",
                fig.id,
                s.name
            );
            assert!(
                md.contains(&s.name),
                "{}: markdown missing {}",
                fig.id,
                s.name
            );
        }
    }
}

#[test]
fn figure_metrics_are_finite_where_expected() {
    // AFCT figures must have strictly positive, finite values.
    for fig in run_only(&["fig02", "fig09a", "fig13b"]) {
        for s in &fig.series {
            for (&x, &y) in fig.xs.iter().zip(&s.ys) {
                assert!(
                    y.is_finite() && y > 0.0,
                    "{}/{} at {}: bad AFCT {y}",
                    fig.id,
                    s.name,
                    x
                );
            }
        }
    }
    // Deadline figures are fractions in [0, 1].
    for fig in run_only(&["fig01", "fig09c"]) {
        for s in &fig.series {
            for &y in &s.ys {
                assert!((0.0..=1.0).contains(&y), "{}: fraction {y}", fig.id);
            }
        }
    }
}

#[test]
fn results_serialize_to_json() {
    let opts = tiny();
    let fig = figs::fig03::run(&opts);
    let dir = std::env::temp_dir().join("pase_repro_harness_test");
    fig.save_json(&dir).unwrap();
    let raw = std::fs::read_to_string(dir.join("fig03.json")).unwrap();
    assert!(raw.contains("\"id\": \"fig03\""), "{raw}");
    // At least two schemes are compared.
    let n_series = raw.matches("\"name\":").count();
    assert!(
        n_series >= 2,
        "expected >= 2 series, got {n_series}:\n{raw}"
    );
    // Balanced braces/brackets => structurally plausible JSON.
    assert_eq!(raw.matches('{').count(), raw.matches('}').count());
    assert_eq!(raw.matches('[').count(), raw.matches(']').count());
}
