//! Chaos sweep: seeded fault storms × {PASE, DCTCP} with the global
//! invariant oracle. Non-zero exit if any case fails; each failing case
//! prints the command that replays just that seed.

use experiments::chaos::{sweep, sweep_digest, ChaosOpts};

fn main() {
    let opts = ChaosOpts::from_env();
    eprintln!(
        "chaos sweep: {} seeds x {} intensities x {} schemes x {} fault classes ({}, {} jobs)",
        opts.seeds.len(),
        opts.intensities.len(),
        opts.schemes.len(),
        opts.fault_classes.len(),
        if opts.quick { "quick" } else { "full" },
        opts.jobs,
    );
    let results = sweep(&opts);
    let failed = results.iter().filter(|r| !r.passed()).count();
    let blackholed: u64 = results.iter().map(|r| r.blackholed).sum();
    let aborted: usize = results.iter().map(|r| r.aborted_flows).sum();
    println!(
        "chaos: {}/{} cases clean; {} data packets blackholed, {} flows aborted \
         (all attributable) across the sweep",
        results.len() - failed,
        results.len(),
        blackholed,
        aborted
    );
    println!("sweep_digest={:#018x}", sweep_digest(&results));
    if failed > 0 {
        eprintln!("chaos: {failed} case(s) FAILED");
        std::process::exit(1);
    }
}
