//! `netsim-bench`: run the deterministic benchmark scenarios and emit
//! `BENCH_netsim.json` (see the crate docs and DESIGN.md §8).
//!
//! Usage: `netsim-bench [--quick] [--iters N] [--scenario NAME[,NAME]]
//! [--chaos-seeds N] [--jobs N] [--out PATH]`. The JSON document goes to
//! stdout, and additionally to `--out` when given; progress lines go to
//! stderr. `--jobs` (default: detected cores) parallelizes
//! chaos-storm/gray-storm case execution without changing the executed
//! event sequence.

fn main() {
    let opts = bench::BenchOpts::from_args(std::env::args().skip(1))
        .unwrap_or_else(|e| workloads::cli::exit_usage(&e, bench::USAGE));
    let results = bench::run(&opts);
    let json = bench::render_json(&results, &opts);
    bench::validate_report(&json).expect("rendered benchmark document must be a consistent report");
    if let Some(path) = &opts.out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("bench results written to {}", path.display());
    }
    print!("{json}");
}
