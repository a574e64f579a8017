//! The one argument cursor behind every binary's flag parser (`pase-sim`,
//! `ExpOpts`, `ChaosOpts`): take a flag's value, parse it to a type, check
//! its range. Every failure is an `Err` naming the flag, so a binary
//! prints one line plus its usage and exits 2 instead of panicking on —
//! or worse, simulating — input it should have rejected.

use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

/// Offered load as a fraction of capacity: `(0, 1.2]`. Zero has no
/// arrival process; past 1.2 the queues only grow.
pub const LOAD_RANGE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Included(1.2));

/// A cursor over a binary's arguments.
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// Wrap the arguments (without the program name).
    pub fn new<I: IntoIterator<Item = String>>(args: I) -> Args {
        Args {
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// The next flag, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The value that must follow `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.rest
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))
    }

    /// `flag`'s value parsed as a `T` inside `range` (`..` for any `T`).
    pub fn in_range<T>(&mut self, flag: &str, range: impl RangeBounds<T>) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Debug,
    {
        check(flag, parse(flag, &self.value(flag)?)?, &range)
    }

    /// `flag`'s value as a non-empty comma-separated list of `T`s, each
    /// inside `range`.
    pub fn list<T>(&mut self, flag: &str, range: impl RangeBounds<T>) -> Result<Vec<T>, String>
    where
        T: FromStr + PartialOrd + Debug,
    {
        self.value(flag)?
            .split(',')
            .map(|item| check(flag, parse(flag, item.trim())?, &range))
            .collect()
    }

    /// What `flag`'s value names in `table`.
    pub fn lookup<T: Clone>(&mut self, flag: &str, table: &[(&str, T)]) -> Result<T, String> {
        let value = self.value(flag)?;
        let named = table.iter().find(|(name, _)| *name == value);
        named.map(|(_, t)| t.clone()).ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            format!("{flag}: expected {}, got '{value}'", names.join("|"))
        })
    }
}

/// The error for a flag no parser arm recognizes.
pub fn unknown(flag: &str) -> String {
    format!("unknown argument: {flag}")
}

fn parse<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| {
        let want = std::any::type_name::<T>();
        format!("{flag}: expected {want}, got '{value}'")
    })
}

fn check<T: PartialOrd + Debug>(
    flag: &str,
    v: T,
    range: &impl RangeBounds<T>,
) -> Result<T, String> {
    if range.contains(&v) {
        return Ok(v);
    }
    let (lo, hi) = (range.start_bound(), range.end_bound());
    Err(format!("{flag}: {v:?} is outside {lo:?}..{hi:?}"))
}

/// Print `error` and `usage` to stderr and exit with status 2 — what
/// every binary does with a parser's `Err`.
pub fn exit_usage(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::new(s.split_whitespace().map(String::from))
    }

    #[test]
    fn values_parse_and_ranges_hold() {
        let mut a = args("7 0.5 1,2,3 4");
        assert_eq!(a.in_range::<u64>("--seed", ..), Ok(7));
        assert_eq!(a.in_range("--load", LOAD_RANGE), Ok(0.5));
        assert_eq!(a.list("--seed-list", 0u64..), Ok(vec![1, 2, 3]));
        assert_eq!(a.in_range("--jobs", 1usize..), Ok(4));
        assert_eq!(a.next_flag(), None);
    }

    #[test]
    fn every_failure_names_the_flag() {
        assert_eq!(args("").value("--out").unwrap_err(), "--out: missing value");
        assert_eq!(
            args("abc").in_range::<u64>("--seed", ..).unwrap_err(),
            "--seed: expected u64, got 'abc'"
        );
        assert_eq!(
            args("0").in_range("--load", LOAD_RANGE).unwrap_err(),
            "--load: 0.0 is outside Excluded(0.0)..Included(1.2)"
        );
        assert_eq!(
            args("1.3").in_range("--load", LOAD_RANGE).unwrap_err(),
            "--load: 1.3 is outside Excluded(0.0)..Included(1.2)"
        );
        assert_eq!(
            args("NaN").in_range("--load", LOAD_RANGE).unwrap_err(),
            "--load: NaN is outside Excluded(0.0)..Included(1.2)"
        );
        assert_eq!(
            args("0").in_range("--jobs", 1usize..).unwrap_err(),
            "--jobs: 0 is outside Included(1)..Unbounded"
        );
        assert_eq!(
            args("0.5,,0.7").list("--loads", LOAD_RANGE).unwrap_err(),
            "--loads: expected f64, got ''"
        );
        let table = [("pase", 1), ("dctcp", 2)];
        assert_eq!(args("dctcp").lookup("--scheme", &table), Ok(2));
        assert_eq!(
            args("tcp").lookup("--scheme", &table).unwrap_err(),
            "--scheme: expected pase|dctcp, got 'tcp'"
        );
        assert_eq!(unknown("--bogus"), "unknown argument: --bogus");
    }
}
