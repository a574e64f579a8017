//! Command-line options of `run_all`, and the scale knobs every figure
//! module takes.

use std::path::PathBuf;

use workloads::cli;

use crate::figs::FIGURES;

/// Scale and reproducibility knobs for an experiment run.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Measured flows per data point.
    pub flows: usize,
    /// Workload seed.
    pub seed: u64,
    /// Offered loads (fractions) to sweep.
    pub loads: Vec<f64>,
    /// Hosts per rack for left-right experiments (paper: 40 → 160 hosts).
    pub hosts_per_rack: usize,
    /// Where to write JSON results, if anywhere.
    pub out_dir: Option<PathBuf>,
    /// Quick mode (used by tests and smoke runs).
    pub quick: bool,
    /// Worker threads for case execution (`workloads::exec`). Defaults
    /// to the machine's available parallelism, overridable with `--jobs`.
    pub jobs: usize,
    /// `run_all --only`: the [`FIGURES`] ids to run (empty = all of them).
    pub only: Vec<String>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            flows: 2000,
            seed: 1,
            loads: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            hosts_per_rack: 40,
            out_dir: None,
            quick: false,
            jobs: workloads::default_jobs(),
            only: Vec::new(),
        }
    }
}

impl ExpOpts {
    /// A reduced-scale configuration for fast smoke runs and tests.
    pub fn quick() -> ExpOpts {
        ExpOpts {
            flows: 150,
            loads: vec![0.2, 0.5, 0.8],
            hosts_per_rack: 10,
            quick: true,
            ..ExpOpts::default()
        }
    }

    /// Parse from the process arguments; on a bad flag print the error
    /// and [`USAGE`], and exit with status 2.
    pub fn from_env() -> ExpOpts {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e, USAGE))
    }

    /// Parse from an explicit argument iterator (testable). `--quick`
    /// picks the defaults the other flags override, wherever it appears.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<ExpOpts, String> {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = if args.iter().any(|a| a == "--quick") {
            ExpOpts::quick()
        } else {
            ExpOpts::default()
        };
        let mut args = cli::Args::new(args);
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--quick" => {}
                "--flows" => opts.flows = args.in_range(&flag, 1..)?,
                "--seed" => opts.seed = args.in_range(&flag, ..)?,
                "--loads" => opts.loads = args.list(&flag, cli::LOAD_RANGE)?,
                "--hosts-per-rack" => opts.hosts_per_rack = args.in_range(&flag, 1..)?,
                "--out" => opts.out_dir = Some(PathBuf::from(args.value(&flag)?)),
                "--jobs" => opts.jobs = args.in_range(&flag, 1..)?,
                "--only" => {
                    let ids = args.value(&flag)?;
                    opts.only = ids.split(',').map(|id| id.trim().to_string()).collect();
                    let known = || FIGURES.iter().map(|(id, _)| *id);
                    if let Some(bad) = opts.only.iter().find(|id| !known().any(|k| k == *id)) {
                        let known = known().collect::<Vec<_>>().join(" ");
                        return Err(format!("--only: unknown figure '{bad}'; known: {known}"));
                    }
                }
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(opts)
    }
}

/// What `run_all` accepts (`--only` takes ids of [`FIGURES`] and skips
/// writing `EXPERIMENTS.md`).
pub const USAGE: &str = "\
USAGE: run_all [--quick] [--flows N>=1] [--seed S] [--loads a,b,c (each in (0, 1.2])]
       [--hosts-per-rack N>=1] [--out DIR] [--jobs N>=1] [--only id[,id...]]";

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(s: &str) -> Result<ExpOpts, String> {
        ExpOpts::from_args(s.split_whitespace().map(String::from))
    }

    fn parse(s: &str) -> ExpOpts {
        try_parse(s).unwrap()
    }

    #[test]
    fn defaults() {
        let o = parse("");
        assert_eq!(o.flows, 2000);
        assert_eq!(o.loads.len(), 9);
        assert!(!o.quick);
    }

    /// Every explicit flag beats `--quick`'s defaults on either side of
    /// it (`--quick` used to rebuild the struct and drop what came
    /// before, restoring only the seed and the job count).
    #[test]
    fn explicit_flags_override_quick_in_either_order() {
        type Check = fn(&ExpOpts) -> bool;
        let table: [(&str, Check); 6] = [
            ("--flows 42", |o| o.flows == 42),
            ("--seed 9", |o| o.seed == 9),
            ("--loads 0.5", |o| o.loads == [0.5]),
            ("--hosts-per-rack 4", |o| o.hosts_per_rack == 4),
            ("--out DIR", |o| o.out_dir == Some(PathBuf::from("DIR"))),
            ("--jobs 3", |o| o.jobs == 3),
        ];
        for (flag, holds) in table {
            for line in [format!("{flag} --quick"), format!("--quick {flag}")] {
                let o = parse(&line);
                assert!(o.quick, "{line}");
                assert!(holds(&o), "`{line}` lost its explicit flag: {o:?}");
            }
        }
        let q = parse("--quick");
        assert_eq!((q.flows, q.hosts_per_rack), (150, 10), "quick defaults");
    }

    #[test]
    fn loads_parse() {
        let o = parse("--loads 0.2,0.5,0.9");
        assert_eq!(o.loads, vec![0.2, 0.5, 0.9]);
    }

    #[test]
    fn jobs_parse() {
        assert!(parse("").jobs >= 1, "default jobs must be positive");
        assert_eq!(parse("--jobs 3").jobs, 3);
    }

    #[test]
    fn only_selects_registry_ids() {
        assert!(parse("").only.is_empty());
        assert_eq!(
            parse("--only fig09a,ext_faults").only,
            ["fig09a", "ext_faults"]
        );
        let err = try_parse("--only fig99").unwrap_err();
        assert!(err.starts_with("--only: unknown figure 'fig99'"), "{err}");
        assert!(err.contains("fig01") && err.contains("ext_scale"), "{err}");
    }

    /// Every flag x {missing value, non-number, out of range} is an `Err`
    /// naming the flag — never a panic, never a run on garbage.
    #[test]
    fn bad_input_is_an_error_naming_the_flag() {
        let table: [(&str, &[&str]); 7] = [
            ("--flows", &["", "abc", "0", "-3"]),
            ("--seed", &["", "abc", "-1"]),
            ("--loads", &["", "abc", "0", "1.3", "0.5,2", "0.5,"]),
            ("--hosts-per-rack", &["", "abc", "0"]),
            ("--out", &[""]),
            ("--jobs", &["", "abc", "0"]),
            ("--only", &["", "fig99", "fig01,"]),
        ];
        for (flag, bad_values) in table {
            for bad in bad_values {
                let err = try_parse(&format!("--quick {flag} {bad}")).unwrap_err();
                assert!(err.starts_with(flag), "`{flag} {bad}`: {err}");
            }
        }
        assert_eq!(
            try_parse("--bogus").unwrap_err(),
            "unknown argument: --bogus"
        );
    }
}
