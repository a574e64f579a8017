//! The one FIFO-band discipline: strict priority over a few bands, each
//! with DCTCP's RED/ECN marking.
//!
//! Models the PRIO + per-class RED/ECN configuration PASE uses on commodity
//! switches (paper §3.3): packets are classified into one of `n` bands by
//! their `prio` field (0 = highest); dequeue always serves the lowest
//! non-empty band index; each band is a FIFO with its own occupancy limit
//! and DCTCP-style marking on its own instantaneous occupancy, with one
//! capacity and one `K` shared by every band.
//!
//! DCTCP's queue is this discipline with one band ([`super::RedEcnQdisc`]),
//! and drop-tail is one band that never marks ([`super::DropTailQdisc`]).
//!
//! Preemption between bands is what gives PASE its seamless flow switching:
//! as soon as the top band drains, the next band's head packet is eligible
//! on the very next transmission opportunity — no control-plane round trip.

use std::collections::VecDeque;
use std::marker::PhantomData;

use super::{Enqueued, Qdisc, QdiscStats};
use crate::packet::Packet;
use crate::time::{Rate, SimTime};

/// DCTCP's marking threshold `K` for a link of `rate`: 20 packets below
/// 10 Gbps, 65 at 10 Gbps and above (the DCTCP paper's guideline,
/// ~RTT × C). Every RED/ECN and strict-priority port in the workspace
/// takes its `K` from here.
pub fn dctcp_mark_thresh(rate: Rate) -> usize {
    if rate >= Rate::from_gbps(10) {
        65
    } else {
        20
    }
}

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
enum Rings {
    Inline([Band; INLINE_BANDS]),
    Spilled(Vec<Band>),
}

/// Shape of [`StrictPrioQdisc`]: `n` RED/ECN bands.
#[derive(Debug)]
pub enum StrictPrio {}

/// Strict-priority FIFO bands with per-band RED/ECN. `S` names the shape
/// it was built as ([`StrictPrio`], [`super::Red`], [`super::DropTail`]);
/// it selects the constructor and nothing else.
#[derive(Debug)]
pub struct Bands<S> {
    /// Bit `b` is set iff band `b` holds a packet, so dequeue finds the
    /// band to serve with one `trailing_zeros` instead of a scan.
    nonempty: u64,
    n_bands: usize,
    /// Per-band capacity in packets.
    cap_pkts: usize,
    /// Per-band marking threshold `K` in packets.
    mark_thresh: usize,
    stats: QdiscStats,
    rings: Rings,
    shape: PhantomData<S>,
}

/// Strict-priority qdisc with per-band RED/ECN.
pub type StrictPrioQdisc = Bands<StrictPrio>;

impl StrictPrioQdisc {
    /// Create `n_bands` bands, each holding up to `band_cap_pkts` packets
    /// and marking at `mark_thresh` packets.
    ///
    /// Commodity switches expose 3–10 such queues per port (paper Table 2);
    /// the paper's PASE configuration uses 8 bands and a 500-packet buffer.
    pub fn new(n_bands: usize, band_cap_pkts: usize, mark_thresh: usize) -> Self {
        Bands::build(n_bands, band_cap_pkts, mark_thresh)
    }
}

impl<S> Bands<S> {
    pub(super) fn build(n_bands: usize, band_cap_pkts: usize, mark_thresh: usize) -> Self {
        assert!(n_bands > 0, "need at least one band");
        assert!(n_bands <= 64, "unreasonable number of priority bands");
        assert!(band_cap_pkts > 0, "queue capacity must be positive");
        assert!(
            mark_thresh <= band_cap_pkts,
            "marking threshold {mark_thresh} exceeds capacity {band_cap_pkts}"
        );
        Bands {
            nonempty: 0,
            n_bands,
            cap_pkts: band_cap_pkts,
            mark_thresh,
            stats: QdiscStats::default(),
            rings: if n_bands <= INLINE_BANDS {
                Rings::Inline(Default::default())
            } else {
                Rings::Spilled((0..n_bands).map(|_| Band::new()).collect())
            },
            shape: PhantomData,
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
        match &self.rings {
            Rings::Inline(a) => &a[..self.n_bands],
            Rings::Spilled(v) => v,
        }
    }

    /// The same queue under another shape's name.
    pub(crate) fn reshape<T>(self) -> Bands<T> {
        Bands {
            nonempty: self.nonempty,
            n_bands: self.n_bands,
            cap_pkts: self.cap_pkts,
            mark_thresh: self.mark_thresh,
            stats: self.stats,
            rings: self.rings,
            shape: PhantomData,
        }
    }
}

impl Rings {
    fn get_mut(&mut self, band: usize) -> &mut Band {
        match self {
            Rings::Inline(a) => &mut a[band],
            Rings::Spilled(v) => &mut v[band],
        }
    }
}

impl<S: Send + 'static> Qdisc for Bands<S> {
    fn enqueue(&mut self, mut pkt: Box<Packet>, _now: SimTime) -> Enqueued {
        // Out-of-range priorities clamp to the lowest band. A one-band
        // queue does not read `prio`: the band's address then does not
        // wait on the packet's line.
        let band = match self.n_bands {
            1 => 0,
            n => (pkt.prio as usize).min(n - 1),
        };
        let q = self.rings.get_mut(band);
        let occupancy = q.len();
        if occupancy >= self.cap_pkts {
            self.stats.dropped_pkts += 1;
            return Enqueued::RejectedArrival(pkt);
        }
        // Mark on the band's instantaneous occupancy at arrival (DCTCP).
        // With `K` = capacity (drop-tail) the test above has already
        // refused every packet this would mark.
        if pkt.ecn_capable && occupancy >= self.mark_thresh {
            pkt.ecn_ce = true;
            self.stats.marked_pkts += 1;
        }
        self.stats.enqueued_pkts += 1;
        q.push_back(pkt);
        self.nonempty |= 1 << band;
        Enqueued::Ok
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Box<Packet>> {
        if self.nonempty == 0 {
            return None;
        }
        let band = self.nonempty.trailing_zeros() as usize;
        let q = self.rings.get_mut(band);
        let pkt = q.pop_front().expect("nonempty bit set on an empty band");
        if q.is_empty() {
            self.nonempty &= !(1 << band);
        }
        Some(pkt)
    }

    fn len_pkts(&self) -> usize {
        self.bands().iter().map(Band::len).sum()
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
            "StrictPrioQdisc grew to {qdisc} bytes (measured: 312)"
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
        assert_eq!(q.band_len_pkts(0), 1);
        assert_eq!(q.band_len_pkts(1), 0);
        assert_eq!(q.band_len_pkts(2), 1);
    }
}
