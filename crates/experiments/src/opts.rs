//! Command-line options shared by all experiment binaries.

use std::path::PathBuf;

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

    /// Parse from the process arguments.
    ///
    /// Recognized flags: `--quick`, `--flows N`, `--seed S`,
    /// `--loads a,b,c`, `--hosts-per-rack N`, `--out DIR`, `--jobs N`.
    pub fn from_env() -> ExpOpts {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit argument iterator (testable). `--quick`
    /// picks the defaults the other flags override, wherever it appears.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> ExpOpts {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = if args.iter().any(|a| a == "--quick") {
            ExpOpts::quick()
        } else {
            ExpOpts::default()
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> String {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match arg.as_str() {
                "--quick" => {}
                "--flows" => opts.flows = take("--flows").parse().expect("--flows: integer"),
                "--seed" => opts.seed = take("--seed").parse().expect("--seed: integer"),
                "--loads" => {
                    opts.loads = take("--loads")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--loads: comma-separated floats"))
                        .collect();
                }
                "--hosts-per-rack" => {
                    opts.hosts_per_rack = take("--hosts-per-rack")
                        .parse()
                        .expect("--hosts-per-rack: integer");
                }
                "--out" => opts.out_dir = Some(PathBuf::from(take("--out"))),
                "--jobs" => opts.jobs = workloads::parse_jobs(&take("--jobs")),
                other => panic!("unknown argument: {other}"),
            }
        }
        assert!(!opts.loads.is_empty(), "need at least one load");
        assert!(
            opts.loads.iter().all(|l| (0.01..=1.2).contains(l)),
            "loads must be sane fractions"
        );
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> ExpOpts {
        ExpOpts::from_args(s.split_whitespace().map(String::from))
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
    #[should_panic(expected = "--jobs must be positive")]
    fn zero_jobs_rejected() {
        parse("--jobs 0");
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_rejected() {
        parse("--bogus");
    }
}
