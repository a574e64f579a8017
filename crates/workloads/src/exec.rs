//! Deterministic parallel case execution.
//!
//! Every sweep in this repository — the paper's figures, seed averaging,
//! the chaos matrix, `perfbench`'s sweep workloads — is a list of fully
//! specified, mutually independent cases: each case builds its own
//! [`netsim::sim::Simulation`] from a seed and runs it to completion, so
//! cases share no mutable state and each one is deterministic in
//! isolation. This module turns that observation into wall-clock speed:
//! [`run_cases`] runs an *ordered* slice of such cases on a
//! dependency-free [`std::thread`] work pool.
//!
//! **Determinism contract.** Workers pull case *indices* from a shared
//! atomic counter and write each result into the slot reserved for that
//! index, so the returned `Vec` is ordered by case index regardless of
//! which worker ran which case or in what order cases finished. Because
//! every case is itself deterministic and isolated, the output is
//! byte-identical to a sequential (`jobs = 1`) execution at any thread
//! count — `tests/parallel_determinism.rs` asserts exactly this on a
//! figure sweep and a chaos slice. Anything order-dependent (progress
//! printing, failure reporting) must happen *after* `run_cases` returns,
//! over the ordered results, never inside the case closure.
//!
//! The worker count is [`default_jobs`]
//! ([`std::thread::available_parallelism`]) unless a binary's `--jobs`
//! flag says otherwise.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default number of worker threads: the machine's available
/// parallelism (1 where that is unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process in bytes: the `VmHWM` line of
/// `/proc/self/status`, which the kernel reports in kB. Returns 0 when
/// the file or field is unavailable (non-Linux platforms).
pub fn read_peak_rss() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Run `f` over `cases` on `jobs` worker threads and return the results
/// **ordered by case index** (see the module docs for the determinism
/// contract). A sweep over a (scheme × load × seed …) grid enumerates
/// the grid in its canonical order, so callers re-chunk rows with
/// `results.chunks(row_len)`. `jobs` is clamped to `[1, len]`; a panic
/// inside any case propagates after all workers have stopped.
pub fn run_cases<C, R, F>(cases: &[C], jobs: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let jobs = jobs.max(1).min(cases.len().max(1));
    if jobs == 1 {
        return cases.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..cases.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(case) = cases.get(i) else { break };
                let r = f(case);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunSpec, Scenario, Scheme};

    #[test]
    fn results_are_ordered_by_case_index() {
        let cases: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 7] {
            let out = run_cases(&cases, jobs, |&c| c * 3);
            assert_eq!(out, (0..100).map(|c| c * 3).collect::<Vec<_>>(), "{jobs}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_simulations() {
        let scenario = Scenario::all_to_all_intra(5, 12);
        let cases = [
            (Scheme::Dctcp, 0.3),
            (Scheme::Dctcp, 0.6),
            (Scheme::Pase, 0.5),
        ]
        .map(|(scheme, load)| RunSpec::new(scheme, scenario, load, 7));
        let seq = run_cases(&cases, 1, RunSpec::run);
        let par = run_cases(&cases, 4, RunSpec::run);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.fcts_ms, b.fcts_ms);
            assert_eq!(a.events, b.events);
            assert_eq!(a.ctrl_pkts, b.ctrl_pkts);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn oversubscription_and_empty_plans_are_fine() {
        let out = run_cases(&[1, 2], 64, |&c| c);
        assert_eq!(out, vec![1, 2]);
        let empty: Vec<i32> = run_cases(&[], 8, |c: &i32| *c);
        assert!(empty.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_cases(&[0u32, 1, 2, 3], 2, |&c| {
                assert!(c != 2, "boom");
                c
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    /// The peak-RSS reader finds a positive high-water mark on Linux and
    /// never decreases across calls (VmHWM is monotone by definition).
    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reader_is_positive_and_monotone() {
        let a = read_peak_rss();
        assert!(a > 0, "VmHWM must be readable on Linux");
        let ballast = vec![1u8; 8 * 1024 * 1024];
        std::hint::black_box(&ballast);
        let b = read_peak_rss();
        assert!(b >= a, "VmHWM went backwards: {a} -> {b}");
    }
}
