//! A small, deterministic pseudo-random number generator.
//!
//! The simulator must be byte-for-byte reproducible from a seed and must
//! build offline, so workload generation uses this self-contained
//! xoshiro256** generator (Blackman & Vigna) instead of an external crate.
//! State is seeded through splitmix64 so that nearby seeds (0, 1, 2, ...)
//! produce unrelated streams.

/// splitmix64's state increment, 2^64 / φ.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output function (golden-ratio increment, then the
/// finalizer): the one 64-bit mixer in the simulator. ECMP selection, the
/// id hasher, the degrade-seed salt and the trace digest all call it.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 step: advances `state` and returns the next output. Used to
/// expand a 64-bit seed into full generator state.
fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GOLDEN);
    out
}

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Build a generator from a 64-bit seed (splitmix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the open interval `(0, 1)` — safe for `ln()`.
    pub fn gen_f64_open(&mut self) -> f64 {
        loop {
            let u = self.gen_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`. Uses Lemire's
    /// multiply-shift with a rejection pass to stay unbiased.
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below(0)");
        // Rejection zone: values below 2^64 mod n would bias the low range.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_inclusive({lo}, {hi})");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(span + 1)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_below(n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_diverge() {
        let mut a = Rng::seed_from_u64(0);
        let mut b = Rng::seed_from_u64(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = r.gen_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_below_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(11);
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[r.gen_below(10) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((4_200..=5_800).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut r = Rng::seed_from_u64(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..1_000 {
            match r.gen_range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                6 | 7 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }
}
