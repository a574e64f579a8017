//! Run every experiment and write `EXPERIMENTS.md` plus per-figure JSON.
//!
//! ```sh
//! cargo run --release -p experiments --bin run_all -- [--quick] [--out results] [--jobs N]
//! cargo run --release -p experiments --bin run_all -- --quick --only fig09a,ext_faults
//! ```
//!
//! `--jobs` (default: detected cores) parallelizes case execution
//! across every figure sweep; the emitted tables are byte-identical at
//! any job count. `--only id[,id...]` (ids of `experiments::figs::FIGURES`)
//! prints and saves just those figures and leaves `EXPERIMENTS.md` alone.
//! Exits 1 when any figure cell comes from a run its backstop truncated.

use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let opts = experiments::ExpOpts::from_env();
    let started = Instant::now();
    let figs = experiments::figs::all(&opts);

    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Reproduction of every figure in *Friends, not Foes* (SIGCOMM 2014).\n\
         Absolute numbers come from this repository's simulator, not the\n\
         authors' ns2 setup or testbed; the *shape* notes under each table\n\
         record the paper's qualitative claim next to what we measured.\n"
    );
    let _ = writeln!(
        md,
        "Configuration: {} flows/point, seed {}, loads {:?}, hosts/rack {}{}.\n",
        opts.flows,
        opts.seed,
        opts.loads,
        opts.hosts_per_rack,
        if opts.quick { " (QUICK mode)" } else { "" }
    );
    eprintln!("run_all: {} jobs", opts.jobs);
    for fig in &figs {
        fig.print();
        println!();
        md.push_str(&fig.to_markdown());
        if let Some(dir) = &opts.out_dir {
            fig.save_json(dir).expect("write JSON result");
        }
    }
    let truncated: Vec<&str> = figs
        .iter()
        .filter(|f| experiments::figs::common::hit_backstop(f))
        .map(|f| f.id.as_str())
        .collect();
    let fail_if_truncated = || {
        if !truncated.is_empty() {
            eprintln!(
                "run_all: cells from truncated runs (see the WARNING notes) in: {truncated:?}"
            );
            std::process::exit(1);
        }
    };
    if !opts.only.is_empty() {
        fail_if_truncated();
        return;
    }
    // Non-figure acceptance experiments (run separately; pass/fail, no
    // table): keep EXPERIMENTS.md the single index of what we measure.
    let _ = writeln!(
        md,
        "### chaos — seeded fault storms: fabric, host, gray *and* overload classes\n\n\
         `cargo run --release -p experiments --bin chaos` sweeps seeds \u{d7}\n\
         {{Low, High}} intensity \u{d7} {{PASE, DCTCP}} \u{d7} {{fabric, host, gray,\n\
         overload}} fault classes (`--faults fabric|host|gray|overload|both|all`).\n\
         The fabric class draws link-flap trains, rack outages, arbitrator crash\n\
         storms, and control-loss bursts; the host class adds NIC flap trains\n\
         and end-host crash/restart storms (at least one crash per storm); the\n\
         gray class adds degrade trains — links that stay up while losing,\n\
         corrupting and delaying packets (at least one degrade episode per\n\
         storm, health-aware rerouting enabled); the overload class adds\n\
         control-plane storms — amplified arbitrator inbox charges plus\n\
         deterministic flash-crowd flows — with no host crashes, so every flow\n\
         must complete. Every case must run twice with byte-identical traces,\n\
         keep all invariants clean under the extended conservation laws (data:\n\
         `injected = delivered + dropped + corrupted + blackholed + consumed +\n\
         in-network + lost-to-crash`; control: `sent = processed + shed +\n\
         dropped + corrupted + blackholed + lost-to-crash + unattended +\n\
         in-network`), and finish every flow either complete or `Aborted {{\n\
         reason }}` with the reason attributable to an injected fault (a\n\
         `HostCrash` abort needs its source crashed; a `MaxRtosExceeded` abort\n\
         needs a crashed, NIC-flapped or NIC-degraded endpoint). A failing case\n\
         prints its exact replay command (full flag set, pinned to `--jobs 1`).\n\
         `scripts/ci.sh` runs an 8-seed quick slice of all four fault classes\n\
         on every PR.\n"
    );
    let _ = writeln!(
        md,
        "\n*Generated in {:.1} s of wall-clock time with {} job(s) \
         ({} core(s) detected).*",
        started.elapsed().as_secs_f64(),
        opts.jobs,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    std::fs::write("EXPERIMENTS.md", md).expect("write EXPERIMENTS.md");
    eprintln!(
        "wrote EXPERIMENTS.md ({} figures) in {:.1}s",
        figs.len(),
        started.elapsed().as_secs_f64()
    );
    fail_if_truncated();
}
