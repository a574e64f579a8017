//! The DCTCP shape: one RED/ECN band.
//!
//! DCTCP configures RED degenerately: low and high thresholds are both set
//! to `K` and marking is based on the *instantaneous* queue length rather
//! than a moving average (paper §3.3, following the DCTCP paper). An
//! arriving ECN-capable packet is marked CE when the instantaneous queue
//! occupancy is at least `K` packets; non-ECN-capable packets are only
//! dropped on overflow, never marked.

use super::strict_prio::Bands;

/// Shape of [`RedEcnQdisc`].
#[derive(Debug)]
pub enum Red {}

/// FIFO queue with threshold ECN marking on instantaneous occupancy.
pub type RedEcnQdisc = Bands<Red>;

impl RedEcnQdisc {
    /// Create a queue of `cap_pkts` capacity marking CE when occupancy
    /// reaches `mark_thresh` packets.
    pub fn new(cap_pkts: usize, mark_thresh: usize) -> Self {
        Bands::build(1, cap_pkts, mark_thresh)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{ack_pkt, pkt};
    use super::super::{Enqueued, Qdisc};
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn marks_above_threshold() {
        let mut q = RedEcnQdisc::new(10, 2);
        q.enqueue(pkt(0, 0, 0), SimTime::ZERO); // occupancy 0 -> no mark
        q.enqueue(pkt(1, 0, 0), SimTime::ZERO); // occupancy 1 -> no mark
        q.enqueue(pkt(2, 0, 0), SimTime::ZERO); // occupancy 2 >= K -> mark
        q.enqueue(pkt(3, 0, 0), SimTime::ZERO); // occupancy 3 >= K -> mark
        let marks: Vec<bool> = (0..4)
            .map(|_| q.dequeue(SimTime::ZERO).unwrap().ecn_ce)
            .collect();
        assert_eq!(marks, vec![false, false, true, true]);
        assert_eq!(q.stats().marked_pkts, 2);
    }

    #[test]
    fn non_ecn_packets_never_marked() {
        let mut q = RedEcnQdisc::new(10, 0);
        q.enqueue(ack_pkt(0), SimTime::ZERO);
        let p = q.dequeue(SimTime::ZERO).unwrap();
        assert!(!p.ecn_ce);
        assert_eq!(q.stats().marked_pkts, 0);
    }

    #[test]
    fn drops_on_overflow() {
        let mut q = RedEcnQdisc::new(1, 1);
        assert!(matches!(
            q.enqueue(pkt(0, 0, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        assert!(matches!(
            q.enqueue(pkt(1, 0, 0), SimTime::ZERO),
            Enqueued::RejectedArrival(_)
        ));
        assert_eq!(q.stats().dropped_pkts, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn threshold_above_capacity_rejected() {
        let _ = RedEcnQdisc::new(5, 6);
    }

    #[test]
    fn fifo_within_queue() {
        let mut q = RedEcnQdisc::new(8, 8);
        for i in 0..4 {
            q.enqueue(pkt(i, 0, 0), SimTime::ZERO);
        }
        for i in 0..4 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().flow.0, i);
        }
    }
}
