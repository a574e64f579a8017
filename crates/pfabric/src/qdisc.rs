//! The pFabric queue discipline: priority scheduling and priority dropping.
//!
//! Packets carry a fine-grained `rank` (the sending flow's remaining size;
//! lower = more important). Following the pFabric paper (SIGCOMM'13, §4.1):
//!
//! * **Dequeue**: find the packet with the minimum rank, then transmit the
//!   *earliest-arrived* packet of that packet's flow, which avoids
//!   intra-flow reordering when a flow's rank decays as it progresses.
//! * **Drop**: when the (small) buffer is full and a packet arrives, evict
//!   the packet with the maximum rank (latest arrival among ties) if the
//!   arrival has a strictly smaller rank; otherwise reject the arrival.
//!
//! Queues are deliberately shallow (paper Table 3: 76 packets ≈ 2 BDP) —
//! pFabric's endpoints blast at line rate and rely on these drops for
//! scheduling, which is exactly the behaviour Figure 4 of the PASE paper
//! measures.

use std::collections::VecDeque;

use netsim::packet::Packet;
use netsim::queue::{Enqueued, Qdisc, QdiscStats};
use netsim::time::SimTime;

/// pFabric priority scheduling/dropping queue.
#[derive(Debug)]
pub struct PFabricQdisc {
    /// Packets in arrival order (index 0 = oldest).
    queue: VecDeque<Box<Packet>>,
    cap_pkts: usize,
    stats: QdiscStats,
}

impl PFabricQdisc {
    /// Create a queue holding at most `cap_pkts` packets.
    pub fn new(cap_pkts: usize) -> Self {
        assert!(cap_pkts > 0, "queue capacity must be positive");
        PFabricQdisc {
            queue: VecDeque::with_capacity(cap_pkts),
            cap_pkts,
            stats: QdiscStats::default(),
        }
    }

    /// Index of the packet with the maximum rank (ties: latest arrival).
    fn worst_idx(&self) -> Option<usize> {
        let mut worst: Option<(usize, u64)> = None;
        for (i, p) in self.queue.iter().enumerate() {
            // `>=` prefers later arrivals among equal ranks.
            if worst.is_none_or(|(_, wr)| p.rank >= wr) {
                worst = Some((i, p.rank));
            }
        }
        worst.map(|(i, _)| i)
    }

    fn accept(&mut self, pkt: Box<Packet>) {
        self.stats.enqueued_pkts += 1;
        self.queue.push_back(pkt);
    }
}

impl Qdisc for PFabricQdisc {
    fn enqueue(&mut self, pkt: Box<Packet>, _now: SimTime) -> Enqueued {
        if self.queue.len() < self.cap_pkts {
            self.accept(pkt);
            return Enqueued::Ok;
        }
        // Full: evict the worst resident if the arrival beats it.
        let worst = self.worst_idx().expect("full queue has a worst packet");
        if pkt.rank < self.queue[worst].rank {
            let victim = self.queue.remove(worst).expect("index in range");
            self.stats.dropped_pkts += 1;
            self.accept(pkt);
            Enqueued::Evicted(victim)
        } else {
            self.stats.dropped_pkts += 1;
            Enqueued::RejectedArrival(pkt)
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Box<Packet>> {
        if self.queue.is_empty() {
            return None;
        }
        // Highest-priority packet (min rank, earliest arrival among ties).
        let best_flow = self
            .queue
            .iter()
            .min_by_key(|p| p.rank)
            .map(|p| p.flow)
            .expect("non-empty");
        // Earliest packet of that flow.
        let idx = self
            .queue
            .iter()
            .position(|p| p.flow == best_flow)
            .expect("flow present");
        self.queue.remove(idx)
    }

    fn len_pkts(&self) -> usize {
        self.queue.len()
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
    use super::*;
    use netsim::ids::{FlowId, NodeId};

    fn pkt(flow: u64, seq: u64, rank: u64) -> Box<Packet> {
        let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), seq, 1460);
        p.rank = rank;
        Box::new(p)
    }

    fn drain_flows(q: &mut PFabricQdisc) -> Vec<u64> {
        std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .map(|p| p.flow.0)
            .collect()
    }

    #[test]
    fn dequeues_lowest_rank_first() {
        let mut q = PFabricQdisc::new(10);
        q.enqueue(pkt(1, 0, 300), SimTime::ZERO);
        q.enqueue(pkt(2, 0, 100), SimTime::ZERO);
        q.enqueue(pkt(3, 0, 200), SimTime::ZERO);
        assert_eq!(drain_flows(&mut q), vec![2, 3, 1]);
    }

    #[test]
    fn dequeues_earliest_packet_of_best_flow() {
        // Flow 1's later packet has the best (smallest) rank because the
        // flow progressed; the earliest queued packet of flow 1 must still
        // come out first to avoid reordering.
        let mut q = PFabricQdisc::new(10);
        q.enqueue(pkt(1, 0, 500), SimTime::ZERO);
        q.enqueue(pkt(2, 0, 300), SimTime::ZERO);
        q.enqueue(pkt(1, 1460, 100), SimTime::ZERO);
        let first = q.dequeue(SimTime::ZERO).unwrap();
        assert_eq!(first.flow.0, 1);
        assert_eq!(first.seq, 0, "earliest packet of the best flow");
    }

    #[test]
    fn full_queue_evicts_worst_for_better_arrival() {
        let mut q = PFabricQdisc::new(2);
        q.enqueue(pkt(1, 0, 500), SimTime::ZERO);
        q.enqueue(pkt(2, 0, 300), SimTime::ZERO);
        match q.enqueue(pkt(3, 0, 100), SimTime::ZERO) {
            Enqueued::Evicted(victim) => assert_eq!(victim.flow.0, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(drain_flows(&mut q), vec![3, 2]);
    }

    #[test]
    fn full_queue_rejects_worse_arrival() {
        let mut q = PFabricQdisc::new(2);
        q.enqueue(pkt(1, 0, 100), SimTime::ZERO);
        q.enqueue(pkt(2, 0, 200), SimTime::ZERO);
        match q.enqueue(pkt(3, 0, 900), SimTime::ZERO) {
            Enqueued::RejectedArrival(p) => assert_eq!(p.flow.0, 3),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(q.stats().dropped_pkts, 1);
    }

    #[test]
    fn equal_rank_eviction_prefers_latest_arrival() {
        let mut q = PFabricQdisc::new(2);
        q.enqueue(pkt(1, 0, 500), SimTime::ZERO);
        q.enqueue(pkt(2, 0, 500), SimTime::ZERO);
        match q.enqueue(pkt(3, 0, 100), SimTime::ZERO) {
            Enqueued::Evicted(victim) => assert_eq!(victim.flow.0, 2),
            other => panic!("expected eviction, got {other:?}"),
        }
    }
}
