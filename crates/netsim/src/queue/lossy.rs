//! Deterministic fault injection.
//!
//! [`LossyQdisc`] wraps any inner discipline and forcibly drops every
//! `n`-th packet of a chosen kind. Deterministic (counter-based, not
//! random) so experiments with injected faults stay reproducible — in
//! the spirit of smoltcp's `--drop-chance` example option, but without
//! perturbing the workload RNG. (Control-loss *bursts*, the
//! [`crate::fault::FaultEvent::CtrlLossBurst`] fault, are a counter on
//! the port itself: see [`crate::port::Port::inject_ctrl_loss_burst`].)

use super::{Enqueued, Qdisc, QdiscStats};
use crate::packet::{Packet, PacketKind};
use crate::time::SimTime;

/// A qdisc wrapper that deterministically drops packets of a chosen kind.
pub struct LossyQdisc {
    inner: Box<dyn Qdisc>,
    /// Every `drop_every`-th matching packet dies (0 disables injection).
    drop_every: u64,
    /// Which packet kind the injector targets.
    target: PacketKind,
    seen: u64,
    forced_drops: u64,
}

impl LossyQdisc {
    /// Wrap `inner`, dropping every `drop_every`-th data packet.
    /// `drop_every = 0` disables injection entirely.
    pub fn new(inner: Box<dyn Qdisc>, drop_every: u64) -> LossyQdisc {
        Self::for_kind(inner, drop_every, PacketKind::Data)
    }

    /// Wrap `inner`, dropping every `drop_every`-th packet of `target`
    /// kind — e.g. `PacketKind::Ctrl` to test control-plane loss
    /// tolerance.
    pub fn for_kind(inner: Box<dyn Qdisc>, drop_every: u64, target: PacketKind) -> LossyQdisc {
        LossyQdisc {
            inner,
            drop_every,
            target,
            seen: 0,
            forced_drops: 0,
        }
    }

    /// Packets dropped by injection (excluding the inner qdisc's own
    /// overflow drops).
    pub fn forced_drops(&self) -> u64 {
        self.forced_drops
    }
}

impl Qdisc for LossyQdisc {
    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued {
        if pkt.kind == self.target {
            self.seen += 1;
            if self.drop_every > 0 && self.seen.is_multiple_of(self.drop_every) {
                self.forced_drops += 1;
                return Enqueued::RejectedArrival(pkt);
            }
        }
        self.inner.enqueue(pkt, now)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        self.inner.dequeue(now)
    }

    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn for_each_queued(&self, f: &mut dyn FnMut(&Packet)) {
        self.inner.for_each_queued(f);
    }

    fn stats(&self) -> QdiscStats {
        let mut s = self.inner.stats();
        s.dropped_pkts += self.forced_drops;
        s.forced_drops += self.forced_drops;
        s
    }
}

impl core::fmt::Debug for LossyQdisc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LossyQdisc")
            .field("drop_every", &self.drop_every)
            .field("forced_drops", &self.forced_drops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{ack_pkt, pkt};
    use super::super::DropTailQdisc;
    use super::*;
    use crate::ids::{FlowId, NodeId};

    fn lossy(drop_every: u64) -> LossyQdisc {
        LossyQdisc::new(Box::new(DropTailQdisc::new(100)), drop_every)
    }

    #[test]
    fn drops_every_nth_data_packet() {
        let mut q = lossy(3);
        let mut dropped = 0;
        for i in 0..9 {
            if matches!(
                q.enqueue(pkt(i, 0, 0), SimTime::ZERO),
                Enqueued::RejectedArrival(_)
            ) {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 3);
        assert_eq!(q.forced_drops(), 3);
        assert_eq!(q.len_pkts(), 6);
        assert_eq!(q.stats().dropped_pkts, 3);
        assert_eq!(q.stats().forced_drops, 3, "injection is tallied separately");
    }

    #[test]
    fn acks_are_never_injected() {
        let mut q = lossy(1); // would drop every data packet
        for i in 0..5 {
            assert!(matches!(q.enqueue(ack_pkt(i), SimTime::ZERO), Enqueued::Ok));
        }
        assert_eq!(q.forced_drops(), 0);
    }

    #[test]
    fn kind_targeting_hits_only_that_kind() {
        let mut q = LossyQdisc::for_kind(Box::new(DropTailQdisc::new(100)), 1, PacketKind::Ctrl);
        // Data passes untouched.
        assert!(matches!(
            q.enqueue(pkt(0, 0, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        // Every ctrl packet dies.
        let ctrl = Box::new(Packet::ctrl(FlowId(1), NodeId(0), NodeId(1), Box::new(1u8)));
        assert!(matches!(
            q.enqueue(ctrl, SimTime::ZERO),
            Enqueued::RejectedArrival(_)
        ));
        assert_eq!(q.forced_drops(), 1);
    }

    #[test]
    fn zero_period_disables_injection() {
        let mut q = lossy(0);
        for i in 0..10 {
            assert!(matches!(
                q.enqueue(pkt(i, 0, 0), SimTime::ZERO),
                Enqueued::Ok
            ));
        }
        assert_eq!(q.forced_drops(), 0);
    }
}
