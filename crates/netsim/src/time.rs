//! Simulated time.
//!
//! All simulator time is kept in integer **nanoseconds** so that the event
//! queue never compares floating-point values and runs are exactly
//! reproducible across platforms. [`SimTime`] is an absolute instant
//! (nanoseconds since the start of the simulation) and [`SimDuration`] a
//! span between instants. [`Rate`] is a link or flow rate in bits per
//! second; it converts between byte counts and transmission times without
//! intermediate floats on the hot path.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time (nanoseconds since time zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for timers that are not armed.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since zero expressed in (floating point) seconds. For reporting
    /// only; never used in simulation logic.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time since zero expressed in (floating point) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration since `earlier`; `None` if `earlier > self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Sentinel for "no timeout".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from floating-point seconds, rounding to the nearest
    /// nanosecond. Intended for workload generators (e.g. exponential
    /// inter-arrival draws), not for protocol logic.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in floating-point seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in floating-point milliseconds (reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in floating-point microseconds (reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Multiply by an integer factor, saturating at the maximum.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a floating-point factor (used by RTO backoff and EWMA-style
    /// estimators where protocol specs are defined over real factors).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0 && k.is_finite(), "invalid scale: {k}");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// `max(self, other)`.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// `min(self, other)`.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, t: SimTime) -> SimDuration {
        debug_assert!(self >= t, "negative duration: {self:?} - {t:?}");
        SimDuration(self.0.saturating_sub(t.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, d: SimDuration) {
        *self = *self - d;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

/// A data rate in bits per second.
///
/// Used for link capacities, reference rates handed out by arbitrators, and
/// explicit rates in PDQ headers. Conversions to/from transmission times are
/// integer-exact where possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(u64);

impl Rate {
    /// A rate of zero (a paused flow).
    pub const ZERO: Rate = Rate(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Raw bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Is this rate zero (i.e. the flow is paused)?
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time it takes to serialize `bytes` at this rate.
    ///
    /// Rounds up to the next nanosecond so that back-to-back packets never
    /// overlap on a link. A zero rate yields [`SimDuration::MAX`].
    pub fn tx_time(self, bytes: u64) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        // bits × 10^9 / bps. It fits 64 bits up to ~2.3 GB — every packet
        // and nearly every flow — and then one hardware divide replaces a
        // 128-bit library call; the result is the same integer either way.
        match bytes.checked_mul(8_000_000_000) {
            Some(bit_ns) => SimDuration(bit_ns.div_ceil(self.0)),
            None => {
                let ns = (bytes as u128 * 8_000_000_000).div_ceil(self.0 as u128);
                SimDuration(ns.min(u64::MAX as u128) as u64)
            }
        }
    }

    /// The number of whole bytes this rate delivers in `d`.
    pub fn bytes_in(self, d: SimDuration) -> u64 {
        let bits = self.0 as u128 * d.0 as u128 / 1_000_000_000;
        (bits / 8).min(u64::MAX as u128) as u64
    }

    /// Scale by a floating-point factor, e.g. to split a delegated virtual
    /// link into fractional capacities.
    pub fn mul_f64(self, k: f64) -> Rate {
        debug_assert!(k >= 0.0 && k.is_finite(), "invalid scale: {k}");
        Rate((self.0 as f64 * k).round() as u64)
    }

    /// Saturating subtraction, used to compute residual link capacity.
    pub fn saturating_sub(self, other: Rate) -> Rate {
        Rate(self.0.saturating_sub(other.0))
    }

    /// Saturating addition, used to accumulate demands.
    pub fn saturating_add(self, other: Rate) -> Rate {
        Rate(self.0.saturating_add(other.0))
    }

    /// `min(self, other)`.
    pub fn min(self, other: Rate) -> Rate {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `max(self, other)`.
    pub fn max(self, other: Rate) -> Rate {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, r: Rate) -> Rate {
        Rate(self.0.saturating_add(r.0))
    }
}

impl AddAssign for Rate {
    fn add_assign(&mut self, r: Rate) {
        *self = *self + r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(5);
        let b = SimDuration::from_micros(3);
        assert_eq!(a + b, SimDuration::from_micros(8));
        assert_eq!(a - b, SimDuration::from_micros(2));
        // Saturating: never goes negative.
        assert_eq!(b - a, SimDuration::ZERO);
        assert_eq!(a * 2, SimDuration::from_micros(10));
        assert_eq!(a / 5, SimDuration::from_micros(1));
    }

    #[test]
    fn time_minus_time_is_duration() {
        let t0 = SimTime::from_micros(10);
        let t1 = SimTime::from_micros(25);
        assert_eq!(t1 - t0, SimDuration::from_micros(15));
        assert_eq!(t1.saturating_since(t0), SimDuration::from_micros(15));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t0.checked_since(t1), None);
    }

    #[test]
    fn rate_tx_time_exact() {
        // 1500 bytes at 1 Gbps = 12 microseconds exactly.
        let r = Rate::from_gbps(1);
        assert_eq!(r.tx_time(1500), SimDuration::from_micros(12));
        // 1500 bytes at 10 Gbps = 1.2 microseconds.
        let r10 = Rate::from_gbps(10);
        assert_eq!(r10.tx_time(1500), SimDuration::from_nanos(1_200));
    }

    #[test]
    fn rate_tx_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s -> rounds up.
        let r = Rate::from_bps(3);
        assert_eq!(r.tx_time(1).as_nanos(), 2_666_666_667);
    }

    /// `tx_time` as it was before its 64-bit path: the whole formula in
    /// 128 bits, the reference that path must equal.
    fn tx_time_u128(rate: Rate, bytes: u64) -> SimDuration {
        if rate.is_zero() {
            return SimDuration::MAX;
        }
        let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(rate.as_bps() as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    #[test]
    fn tx_time_equals_the_128_bit_formula() {
        // The last byte count whose bit-nanoseconds fit 64 bits.
        let edge = u64::MAX / 8_000_000_000;
        assert!(edge.checked_mul(8_000_000_000).is_some());
        assert!((edge + 1).checked_mul(8_000_000_000).is_none());
        let link_rates = [Rate::from_gbps(1), Rate::from_gbps(10), Rate::from_gbps(40)];
        let mut rng = crate::rng::Rng::seed_from_u64(0x7a_71e);
        let mut cases: Vec<(u64, Rate)> = Vec::new();
        for bytes in [0, 1, 1500, edge - 1, edge, edge + 1, u64::MAX] {
            for bps in [0, 1, 3, 1_000_000_000, u64::MAX - 1, u64::MAX] {
                cases.push((bytes, Rate::from_bps(bps)));
            }
        }
        for _ in 0..200_000 {
            let bytes = match rng.gen_below(3) {
                0 => rng.gen_range_inclusive(40, 1600), // one packet
                1 => rng.gen_below(1 << 33),            // one flow, up to 8 GB
                _ => rng.next_u64() >> rng.gen_below(64),
            };
            let rate = match rng.gen_below(2) {
                0 => link_rates[rng.gen_index(link_rates.len())],
                _ => Rate::from_bps(rng.next_u64() >> rng.gen_below(64)),
            };
            cases.push((bytes, rate));
        }
        for (bytes, rate) in cases {
            assert_eq!(
                rate.tx_time(bytes),
                tx_time_u128(rate, bytes),
                "{bytes} B at {} bps",
                rate.as_bps()
            );
        }
        assert_eq!(Rate::ZERO.tx_time(edge + 1), SimDuration::MAX);
        assert_eq!(Rate::from_bps(1).tx_time(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn zero_rate_is_paused() {
        assert!(Rate::ZERO.is_zero());
        assert_eq!(Rate::ZERO.tx_time(1), SimDuration::MAX);
        assert_eq!(Rate::ZERO.bytes_in(SimDuration::from_secs(10)), 0);
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let r = Rate::from_gbps(1);
        let d = r.tx_time(125_000); // 1 ms at 1 Gbps
        assert_eq!(d, SimDuration::from_millis(1));
        assert_eq!(r.bytes_in(d), 125_000);
    }

    #[test]
    fn rate_scaling() {
        let r = Rate::from_gbps(10);
        assert_eq!(r.mul_f64(0.25), Rate::from_mbps(2500));
        assert_eq!(r.saturating_sub(Rate::from_gbps(4)), Rate::from_gbps(6));
        assert_eq!(Rate::from_gbps(4).saturating_sub(r), Rate::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Rate::from_gbps(1)), "1.00Gbps");
        assert_eq!(format!("{}", Rate::from_mbps(250)), "250.00Mbps");
        assert_eq!(format!("{}", SimDuration::from_micros(300)), "300.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
    }
}
