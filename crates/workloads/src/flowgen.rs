//! Flow generation: Poisson arrivals, size and deadline distributions.
//!
//! All randomness is drawn from a caller-seeded [`Rng`], so every
//! experiment is reproducible from its `(scenario, load, seed)` triple.

use netsim::packet::HEADER_BYTES;
use netsim::rng::Rng;
use netsim::time::{Rate, SimDuration, SimTime};

/// Flow-size distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Uniform in `[lo, hi]` bytes (the paper's query workloads:
    /// U[2 KB, 198 KB] and U[100 KB, 500 KB]).
    UniformBytes {
        /// Smallest flow, bytes.
        lo: u64,
        /// Largest flow, bytes.
        hi: u64,
    },
    /// Every flow the same size.
    Fixed(u64),
    /// A heavy-tailed web-search-like mix (extension beyond the paper):
    /// 60% short (U[2, 100] KB), 30% medium (U[100 KB, 1 MB]),
    /// 10% long (U[1, 10] MB).
    WebSearch,
}

impl SizeDist {
    /// Draw one flow size.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match *self {
            SizeDist::UniformBytes { lo, hi } => rng.gen_range_inclusive(lo, hi),
            SizeDist::Fixed(s) => s,
            SizeDist::WebSearch => {
                let class: f64 = rng.gen_f64();
                if class < 0.6 {
                    rng.gen_range_inclusive(2_000, 100_000)
                } else if class < 0.9 {
                    rng.gen_range_inclusive(100_000, 1_000_000)
                } else {
                    rng.gen_range_inclusive(1_000_000, 10_000_000)
                }
            }
        }
    }

    /// The distribution mean, used to convert offered load into an
    /// arrival rate.
    pub fn mean_bytes(&self) -> f64 {
        match *self {
            SizeDist::UniformBytes { lo, hi } => (lo + hi) as f64 / 2.0,
            SizeDist::Fixed(s) => s as f64,
            SizeDist::WebSearch => {
                0.6 * (2_000.0 + 100_000.0) / 2.0
                    + 0.3 * (100_000.0 + 1_000_000.0) / 2.0
                    + 0.1 * (1_000_000.0 + 10_000_000.0) / 2.0
            }
        }
    }
}

/// Deadline distribution (uniform over a millisecond range; the paper's
/// deadline experiments use U[5 ms, 25 ms]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineDist {
    /// Shortest deadline, microseconds.
    pub lo_us: u64,
    /// Longest deadline, microseconds.
    pub hi_us: u64,
}

impl DeadlineDist {
    /// The paper's U[5, 25] ms.
    pub fn paper_default() -> DeadlineDist {
        DeadlineDist {
            lo_us: 5_000,
            hi_us: 25_000,
        }
    }

    /// Draw one deadline.
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        SimDuration::from_micros(rng.gen_range_inclusive(self.lo_us, self.hi_us))
    }
}

/// Poisson (exponential inter-arrival) process generator.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: Rng,
    /// Mean inter-arrival time in seconds.
    mean_gap_s: f64,
    now: SimTime,
}

impl PoissonArrivals {
    /// Arrivals at `rate_per_sec`, seeded deterministically.
    pub fn new(rate_per_sec: f64, seed: u64) -> PoissonArrivals {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        PoissonArrivals {
            rng: Rng::seed_from_u64(seed ^ 0x9e37_79b9),
            mean_gap_s: 1.0 / rate_per_sec,
            now: SimTime::ZERO,
        }
    }

    /// The next arrival instant.
    pub fn next_arrival(&mut self) -> SimTime {
        let u: f64 = self.rng.gen_f64_open();
        let gap = -u.ln() * self.mean_gap_s;
        self.now += SimDuration::from_secs_f64(gap);
        self.now
    }
}

/// Convert an offered load (fraction of `capacity`) into a flow arrival
/// rate for a workload with mean flow size `mean_bytes`, accounting for
/// per-packet header overhead.
pub fn arrival_rate(load: f64, capacity: Rate, mean_bytes: f64, mss: u32) -> f64 {
    assert!((0.0..=1.5).contains(&load), "unreasonable load {load}");
    let wire_factor = (mss + HEADER_BYTES) as f64 / mss as f64;
    let bytes_per_sec = capacity.as_bps() as f64 / 8.0 * load;
    bytes_per_sec / (mean_bytes * wire_factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sizes_in_range_and_mean() {
        let d = SizeDist::UniformBytes {
            lo: 2_000,
            hi: 198_000,
        };
        let mut rng = Rng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (2_000..=198_000).contains(&s)));
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        assert!(
            (mean - d.mean_bytes()).abs() < 2_000.0,
            "empirical mean {mean} vs {}",
            d.mean_bytes()
        );
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let rate = 10_000.0; // flows/sec
        let mut p = PoissonArrivals::new(rate, 42);
        let n = 50_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = p.next_arrival();
        }
        let mean_gap = last.as_secs_f64() / n as f64;
        assert!(
            (mean_gap - 1.0 / rate).abs() < 0.05 / rate * 10.0,
            "mean gap {mean_gap} vs {}",
            1.0 / rate
        );
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let mut a = PoissonArrivals::new(1000.0, 1);
        let mut b = PoissonArrivals::new(1000.0, 1);
        let mut c = PoissonArrivals::new(1000.0, 2);
        let xa: Vec<SimTime> = (0..100).map(|_| a.next_arrival()).collect();
        let xb: Vec<SimTime> = (0..100).map(|_| b.next_arrival()).collect();
        let xc: Vec<SimTime> = (0..100).map(|_| c.next_arrival()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn arrival_rate_accounts_for_headers() {
        // 1 Gbps at load 0.8 with 100 KB flows: 125 MB/s * 0.8 / ~102.7KB.
        let r = arrival_rate(0.8, Rate::from_gbps(1), 100_000.0, 1460);
        assert!((r - 973.0).abs() < 5.0, "rate {r}");
    }

    #[test]
    fn deadlines_in_range() {
        let d = DeadlineDist::paper_default();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let dl = d.sample(&mut rng);
            assert!(dl >= SimDuration::from_millis(5));
            assert!(dl <= SimDuration::from_millis(25));
        }
    }

    #[test]
    fn websearch_mean_is_heavy() {
        let d = SizeDist::WebSearch;
        assert!(d.mean_bytes() > 500_000.0);
    }
}
