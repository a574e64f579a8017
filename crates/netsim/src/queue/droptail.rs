//! The drop-tail shape: one FIFO band that never marks.

use super::strict_prio::Bands;

/// Shape of [`DropTailQdisc`].
#[derive(Debug)]
pub enum DropTail {}

/// A plain FIFO queue that drops arriving packets when full: one band
/// whose marking threshold is its capacity, so the overflow drop comes
/// first and no packet is ever marked.
///
/// Capacity is expressed in packets, matching how the paper reports queue
/// sizes (Table 3: e.g. `qSize = 225 pkts` for DCTCP).
pub type DropTailQdisc = Bands<DropTail>;

impl DropTailQdisc {
    /// Create a drop-tail queue holding at most `cap_pkts` packets.
    pub fn new(cap_pkts: usize) -> Self {
        Bands::build(1, cap_pkts, cap_pkts)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::pkt;
    use super::super::{Enqueued, Qdisc};
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn fifo_order() {
        let mut q = DropTailQdisc::new(10);
        for i in 0..5 {
            assert!(matches!(
                q.enqueue(pkt(i, 0, 0), SimTime::ZERO),
                Enqueued::Ok
            ));
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().flow.0, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drops_when_full() {
        let mut q = DropTailQdisc::new(2);
        assert!(matches!(
            q.enqueue(pkt(0, 0, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        assert!(matches!(
            q.enqueue(pkt(1, 0, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        match q.enqueue(pkt(2, 0, 0), SimTime::ZERO) {
            Enqueued::RejectedArrival(p) => assert_eq!(p.flow.0, 2),
            other => panic!("expected drop, got {other:?}"),
        }
        assert_eq!(q.stats().dropped_pkts, 1);
        assert_eq!(q.stats().enqueued_pkts, 2);
        assert_eq!(q.len_pkts(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DropTailQdisc::new(0);
    }
}
