//! Strict-priority scheduling over a small number of bands.
//!
//! Models the PRIO + per-class RED/ECN configuration PASE uses on commodity
//! switches (paper §3.3): packets are classified into one of `n` bands by
//! their `prio` field (0 = highest); dequeue always serves the lowest
//! non-empty band index; each band is a FIFO with its own occupancy limit
//! and DCTCP-style marking on its own instantaneous occupancy (the
//! [`super::RedEcnQdisc`] law, with one capacity and one `K` shared by
//! every band).
//!
//! Preemption between bands is what gives PASE its seamless flow switching:
//! as soon as the top band drains, the next band's head packet is eligible
//! on the very next transmission opportunity — no control-plane round trip.

use std::collections::VecDeque;

use super::{Enqueued, Qdisc, QdiscStats};
use crate::packet::Packet;
use crate::time::SimTime;

/// How many bands live inside the qdisc itself. Commodity switches expose
/// 3–10 queues per port (paper Table 2) and every shipped configuration
/// uses at most 8, so the common case has no allocation of its own: a
/// band's ring header is at a fixed offset from the qdisc (and, inside a
/// [`crate::port::Port`], from the port).
const INLINE_BANDS: usize = 8;

type Band = VecDeque<Box<Packet>>;

/// Band storage: inline up to [`INLINE_BANDS`], spilled to the heap beyond.
/// The size skew between the variants is the point of the inline one.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Bands {
    Inline([Band; INLINE_BANDS]),
    Spilled(Vec<Band>),
}

/// Strict-priority qdisc with per-band RED/ECN.
#[derive(Debug)]
pub struct StrictPrioQdisc {
    /// Bit `b` is set iff band `b` holds a packet, so dequeue finds the
    /// band to serve with one `trailing_zeros` instead of a scan.
    nonempty: u64,
    n_bands: usize,
    /// Per-band capacity in packets.
    cap_pkts: usize,
    /// Per-band marking threshold `K` in packets.
    mark_thresh: usize,
    /// Bytes queued over all bands.
    bytes: u64,
    stats: QdiscStats,
    bands: Bands,
}

impl StrictPrioQdisc {
    /// Create `n_bands` bands, each holding up to `band_cap_pkts` packets
    /// and marking at `mark_thresh` packets.
    ///
    /// Commodity switches expose 3–10 such queues per port (paper Table 2);
    /// the paper's PASE configuration uses 8 bands and a 500-packet buffer.
    pub fn new(n_bands: usize, band_cap_pkts: usize, mark_thresh: usize) -> Self {
        assert!(n_bands > 0, "need at least one band");
        assert!(n_bands <= 64, "unreasonable number of priority bands");
        assert!(band_cap_pkts > 0, "queue capacity must be positive");
        assert!(
            mark_thresh <= band_cap_pkts,
            "marking threshold {mark_thresh} exceeds capacity {band_cap_pkts}"
        );
        StrictPrioQdisc {
            nonempty: 0,
            n_bands,
            cap_pkts: band_cap_pkts,
            mark_thresh,
            bytes: 0,
            stats: QdiscStats::default(),
            bands: if n_bands <= INLINE_BANDS {
                Bands::Inline(Default::default())
            } else {
                Bands::Spilled((0..n_bands).map(|_| Band::new()).collect())
            },
        }
    }

    /// Number of bands.
    pub fn n_bands(&self) -> usize {
        self.n_bands
    }

    /// Occupancy of an individual band in packets.
    pub fn band_len_pkts(&self, band: usize) -> usize {
        self.bands()[band].len()
    }

    fn bands(&self) -> &[Band] {
        match &self.bands {
            Bands::Inline(a) => &a[..self.n_bands],
            Bands::Spilled(v) => v,
        }
    }
}

impl Bands {
    fn get_mut(&mut self, band: usize) -> &mut Band {
        match self {
            Bands::Inline(a) => &mut a[band],
            Bands::Spilled(v) => &mut v[band],
        }
    }
}

impl Qdisc for StrictPrioQdisc {
    fn enqueue(&mut self, mut pkt: Box<Packet>, _now: SimTime) -> Enqueued {
        // Out-of-range priorities clamp to the lowest band.
        let band = (pkt.prio as usize).min(self.n_bands - 1);
        let q = self.bands.get_mut(band);
        let occupancy = q.len();
        if occupancy >= self.cap_pkts {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += pkt.wire_bytes as u64;
            return Enqueued::RejectedArrival(pkt);
        }
        // Mark on the band's instantaneous occupancy at arrival (DCTCP).
        if pkt.ecn_capable && occupancy >= self.mark_thresh {
            pkt.ecn_ce = true;
            self.stats.marked_pkts += 1;
        }
        self.bytes += pkt.wire_bytes as u64;
        self.stats.enqueued_pkts += 1;
        self.stats.enqueued_bytes += pkt.wire_bytes as u64;
        q.push_back(pkt);
        self.nonempty |= 1 << band;
        Enqueued::Ok
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Box<Packet>> {
        if self.nonempty == 0 {
            return None;
        }
        let band = self.nonempty.trailing_zeros() as usize;
        let q = self.bands.get_mut(band);
        let pkt = q.pop_front().expect("nonempty bit set on an empty band");
        if q.is_empty() {
            self.nonempty &= !(1 << band);
        }
        self.bytes -= pkt.wire_bytes as u64;
        Some(pkt)
    }

    fn len_pkts(&self) -> usize {
        self.bands().iter().map(Band::len).sum()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn for_each_queued(&self, f: &mut dyn FnMut(&Packet)) {
        for p in self.bands().iter().flatten() {
            f(p);
        }
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::pkt;
    use super::*;

    #[test]
    fn bands_stay_inline_and_small() {
        // Eight ring headers in four lines, inside the qdisc: a band that
        // grows (a byte count, its own counters) or moves behind a pointer
        // costs every enqueue and dequeue at k=16 a line (DESIGN §8).
        let band = core::mem::size_of::<Band>();
        assert!(
            band <= 32,
            "strict-priority band grew to {band} bytes (measured: 32)"
        );
        let qdisc = core::mem::size_of::<StrictPrioQdisc>();
        assert!(
            qdisc <= 352,
            "StrictPrioQdisc grew to {qdisc} bytes (measured: 344)"
        );
    }

    #[test]
    fn higher_band_preempts() {
        let mut q = StrictPrioQdisc::new(4, 100, 100);
        q.enqueue(pkt(0, 3, 0), SimTime::ZERO);
        q.enqueue(pkt(1, 1, 0), SimTime::ZERO);
        q.enqueue(pkt(2, 2, 0), SimTime::ZERO);
        q.enqueue(pkt(3, 1, 0), SimTime::ZERO);
        let order: Vec<u64> = (0..4)
            .map(|_| q.dequeue(SimTime::ZERO).unwrap().flow.0)
            .collect();
        // Band 1 FIFO first (flows 1 then 3), then band 2, then band 3.
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn out_of_range_priority_clamps_to_lowest_band() {
        let mut q = StrictPrioQdisc::new(2, 100, 100);
        q.enqueue(pkt(0, 200, 0), SimTime::ZERO);
        q.enqueue(pkt(1, 0, 0), SimTime::ZERO);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().flow.0, 1);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().flow.0, 0);
    }

    #[test]
    fn per_band_marking_is_independent() {
        // K = 1: second packet in the same band gets marked, but the first
        // packet of a different band does not.
        let mut q = StrictPrioQdisc::new(2, 100, 1);
        q.enqueue(pkt(0, 0, 0), SimTime::ZERO); // band 0, occ 0 -> unmarked
        q.enqueue(pkt(1, 0, 0), SimTime::ZERO); // band 0, occ 1 -> marked
        q.enqueue(pkt(2, 1, 0), SimTime::ZERO); // band 1, occ 0 -> unmarked
        assert!(!q.dequeue(SimTime::ZERO).unwrap().ecn_ce);
        assert!(q.dequeue(SimTime::ZERO).unwrap().ecn_ce);
        assert!(!q.dequeue(SimTime::ZERO).unwrap().ecn_ce);
        assert_eq!(q.stats().marked_pkts, 1);
    }

    #[test]
    fn band_overflow_drops_only_that_band() {
        let mut q = StrictPrioQdisc::new(2, 1, 1);
        assert!(matches!(
            q.enqueue(pkt(0, 0, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        assert!(matches!(
            q.enqueue(pkt(1, 0, 0), SimTime::ZERO),
            Enqueued::RejectedArrival(_)
        ));
        assert!(matches!(
            q.enqueue(pkt(2, 1, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.stats().dropped_pkts, 1);
    }

    #[test]
    fn aggregate_accounting() {
        let mut q = StrictPrioQdisc::new(3, 10, 10);
        q.enqueue(pkt(0, 0, 0), SimTime::ZERO);
        q.enqueue(pkt(1, 2, 0), SimTime::ZERO);
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 3000);
        assert_eq!(q.band_len_pkts(0), 1);
        assert_eq!(q.band_len_pkts(1), 0);
        assert_eq!(q.band_len_pkts(2), 1);
    }
}
