//! The fixed parameters of the DCTCP-family transports, and the segment
//! size every transport in the workspace sends.
//!
//! Values follow Table 3 of the paper where given, and the respective
//! protocol papers otherwise. No figure, binary or test varies them, so
//! they are constants rather than a config struct.

use netsim::time::SimDuration;

/// Maximum segment payload, bytes (every scheme's senders).
pub const MSS: u32 = 1460;
/// Initial congestion window, packets.
pub const INIT_CWND: f64 = 2.0;
/// Window growth per acknowledged packet. Real DCTCP-family stacks run
/// with delayed ACKs: the window grows by ~0.5 packets per acked packet in
/// slow start (and congestion avoidance progresses at half the per-ACK
/// textbook rate). We model that sender-side instead of implementing
/// receiver-side ACK coalescing.
pub const ACK_GROWTH_FACTOR: f64 = 0.5;
/// Minimum retransmission timeout (Table 3: 10 ms for L2DCT; we apply the
/// same floor across the family, to PDQ and to every PASE queue — ns2's
/// default 200 ms floor would dominate FCTs at data-center RTTs).
pub const MIN_RTO: SimDuration = SimDuration::from_millis(10);
/// Maximum retransmission timeout of every RTT-estimating sender.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(2);
/// DCTCP estimation gain `g` for the marked-fraction EWMA (PASE's
/// self-adjusting part included).
pub const DCTCP_G: f64 = 1.0 / 16.0;
/// D2TCP deadline-imminence exponent bounds `(min, max)` — the paper uses
/// `d ∈ [0.5, 2]`.
pub const D2TCP_D_BOUNDS: (f64, f64) = (0.5, 2.0);
/// L2DCT weight bounds `(w_min, w_max)`.
pub const L2DCT_W_BOUNDS: (f64, f64) = (0.125, 2.5);
/// L2DCT: bytes sent below which a flow keeps `w_max`.
pub const L2DCT_LO_BYTES: u64 = 50 * 1024;
/// L2DCT: bytes sent above which a flow reaches `w_min` (log-linear
/// interpolation in between).
pub const L2DCT_HI_BYTES: u64 = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn defaults_are_sane() {
        assert!(INIT_CWND >= 1.0);
        assert!(ACK_GROWTH_FACTOR > 0.0 && ACK_GROWTH_FACTOR <= 1.0);
        assert!(DCTCP_G > 0.0 && DCTCP_G <= 1.0);
        assert!(D2TCP_D_BOUNDS.0 < D2TCP_D_BOUNDS.1);
        assert!(L2DCT_W_BOUNDS.0 < L2DCT_W_BOUNDS.1);
        assert!(L2DCT_LO_BYTES < L2DCT_HI_BYTES);
        assert!(MIN_RTO < MAX_RTO);
    }
}
