//! FIFO drop-tail queue.

use std::collections::VecDeque;

use super::{Enqueued, Qdisc, QdiscStats};
use crate::packet::Packet;
use crate::time::SimTime;

/// A plain FIFO queue that drops arriving packets when full.
///
/// Capacity is expressed in packets, matching how the paper reports queue
/// sizes (Table 3: e.g. `qSize = 225 pkts` for DCTCP).
#[derive(Debug)]
pub struct DropTailQdisc {
    queue: VecDeque<Box<Packet>>,
    cap_pkts: usize,
    bytes: u64,
    stats: QdiscStats,
}

impl DropTailQdisc {
    /// Create a drop-tail queue holding at most `cap_pkts` packets.
    pub fn new(cap_pkts: usize) -> Self {
        assert!(cap_pkts > 0, "queue capacity must be positive");
        DropTailQdisc {
            queue: VecDeque::new(),
            cap_pkts,
            bytes: 0,
            stats: QdiscStats::default(),
        }
    }

    /// The configured capacity in packets.
    pub fn capacity(&self) -> usize {
        self.cap_pkts
    }
}

impl Qdisc for DropTailQdisc {
    fn enqueue(&mut self, pkt: Box<Packet>, _now: SimTime) -> Enqueued {
        if self.queue.len() >= self.cap_pkts {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += pkt.wire_bytes as u64;
            return Enqueued::RejectedArrival(pkt);
        }
        self.bytes += pkt.wire_bytes as u64;
        self.stats.enqueued_pkts += 1;
        self.stats.enqueued_bytes += pkt.wire_bytes as u64;
        self.queue.push_back(pkt);
        Enqueued::Ok
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Box<Packet>> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.wire_bytes as u64;
        Some(pkt)
    }

    fn len_pkts(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn for_each_queued(&self, f: &mut dyn FnMut(&Packet)) {
        for p in &self.queue {
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
    fn byte_accounting() {
        let mut q = DropTailQdisc::new(4);
        q.enqueue(pkt(0, 0, 0), SimTime::ZERO);
        q.enqueue(pkt(1, 0, 0), SimTime::ZERO);
        assert_eq!(q.len_bytes(), 2 * 1500);
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.len_bytes(), 1500);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DropTailQdisc::new(0);
    }
}
