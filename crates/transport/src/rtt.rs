//! RTT estimation and retransmission timeout management (RFC 6298 style).

use netsim::time::SimDuration;

/// Smoothed RTT estimator with exponential RTO backoff.
///
/// Follows the classic SRTT/RTTVAR update (RFC 6298) with configurable
/// minimum RTO — data-center transports use very small minimum RTOs
/// (10 ms for the DCTCP family, PDQ and every PASE queue; 1 ms for
/// pFabric).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    /// Current backoff multiplier (power of two).
    backoff: u32,
    /// Ceiling on the backoff exponent. Consecutive timeouts never push
    /// the RTO multiplier beyond `2^backoff_cap` (the `max_rto` clamp
    /// still applies on top).
    backoff_cap: u32,
}

/// Default ceiling on the RTO backoff exponent (a 65536× multiplier — in
/// practice `max_rto` clamps long before this is reached).
pub const DEFAULT_BACKOFF_CAP: u32 = 16;

impl RttEstimator {
    /// Create an estimator with the given RTO clamp.
    pub fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        assert!(min_rto <= max_rto, "min_rto must not exceed max_rto");
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rto,
            max_rto,
            backoff: 0,
            backoff_cap: DEFAULT_BACKOFF_CAP,
        }
    }

    /// Builder-style override of the backoff-exponent ceiling. Transports
    /// that must stay responsive across long outages (e.g. a link that
    /// comes back after seconds of blackout) cap the exponent low so the
    /// first retransmission after recovery is not minutes away.
    pub fn with_backoff_cap(mut self, cap: u32) -> Self {
        self.backoff_cap = cap.min(DEFAULT_BACKOFF_CAP);
        self.backoff = self.backoff.min(self.backoff_cap);
        self
    }

    /// The current backoff-exponent ceiling.
    pub fn backoff_cap(&self) -> u32 {
        self.backoff_cap
    }

    /// Incorporate a new RTT sample (resets any timeout backoff).
    pub fn on_sample(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - sample|
                let err = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                // SRTT = 7/8 SRTT + 1/8 sample
                self.srtt = Some(srtt.mul_f64(0.875) + sample.mul_f64(0.125));
            }
        }
        self.backoff = 0;
    }

    /// The smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// `srtt + 4·rttvar`, the RTO before backoff and clamps (once sampled).
    pub fn bound(&self) -> Option<SimDuration> {
        self.srtt.map(|srtt| srtt + self.rttvar.saturating_mul(4))
    }

    /// Current retransmission timeout, including backoff.
    pub fn rto(&self) -> SimDuration {
        let base = self.bound().unwrap_or(self.min_rto);
        let backed_off = base.saturating_mul(1u64 << self.backoff.min(self.backoff_cap));
        backed_off.max(self.min_rto).min(self.max_rto)
    }

    /// Double the RTO after a timeout (Karn's algorithm: samples from
    /// retransmitted segments are not taken, and backoff persists until a
    /// fresh sample arrives).
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(self.backoff_cap);
    }

    /// Current backoff exponent (0 when no outstanding timeouts).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    #[test]
    fn first_sample_initializes() {
        let mut r = RttEstimator::new(us(100), SimDuration::from_secs(1));
        assert_eq!(r.rto(), us(100)); // min_rto before any sample
        r.on_sample(us(300));
        assert_eq!(r.srtt(), Some(us(300)));
        // RTO = 300 + 4*150 = 900us.
        assert_eq!(r.rto(), us(900));
    }

    #[test]
    fn smoothing_converges() {
        let mut r = RttEstimator::new(us(1), SimDuration::from_secs(1));
        for _ in 0..100 {
            r.on_sample(us(500));
        }
        let srtt = r.srtt().unwrap();
        assert!(
            (srtt.as_micros_f64() - 500.0).abs() < 1.0,
            "srtt should converge to 500us, got {srtt}"
        );
        // Variance decays toward zero, so RTO approaches SRTT (clamped).
        assert!(r.rto() < us(600));
    }

    #[test]
    fn timeout_backoff_doubles_and_sample_resets() {
        let mut r = RttEstimator::new(us(100), SimDuration::from_secs(10));
        r.on_sample(us(200)); // RTO = 200 + 4*100 = 600
        let base = r.rto();
        r.on_timeout();
        assert_eq!(r.rto(), base.saturating_mul(2));
        r.on_timeout();
        assert_eq!(r.rto(), base.saturating_mul(4));
        r.on_sample(us(200));
        assert_eq!(r.backoff(), 0);
    }

    #[test]
    fn rto_clamped_to_bounds() {
        let mut r = RttEstimator::new(us(500), us(1000));
        r.on_sample(us(10)); // raw RTO would be 30us
        assert_eq!(r.rto(), us(500));
        for _ in 0..20 {
            r.on_timeout();
        }
        assert_eq!(r.rto(), us(1000));
    }

    #[test]
    fn backoff_cap_bounds_the_multiplier() {
        let mut r = RttEstimator::new(us(100), SimDuration::from_secs(100)).with_backoff_cap(3);
        assert_eq!(r.backoff_cap(), 3);
        r.on_sample(us(200)); // RTO = 200 + 4*100 = 600
        let base = r.rto();
        for _ in 0..10 {
            r.on_timeout();
        }
        // The exponent saturates at the cap: 600us * 2^3.
        assert_eq!(r.backoff(), 3);
        assert_eq!(r.rto(), base.saturating_mul(8));
        // A fresh sample still resets the backoff entirely (the smoothed
        // estimate shifts, so only the multiplier reset is asserted).
        r.on_sample(us(200));
        assert_eq!(r.backoff(), 0);
        assert!(r.rto() <= base);
    }

    #[test]
    fn backoff_cap_never_exceeds_the_default() {
        let r = RttEstimator::new(us(100), SimDuration::from_secs(1)).with_backoff_cap(99);
        assert_eq!(r.backoff_cap(), super::DEFAULT_BACKOFF_CAP);
    }
}
