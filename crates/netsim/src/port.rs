//! Output ports.
//!
//! A [`Port`] is the transmit side of one unidirectional link: a queue
//! discipline feeding a serializer of fixed rate, followed by fixed
//! propagation delay. The simulator is store-and-forward: a packet is
//! delivered to the peer `serialization + propagation` after it reaches the
//! head of the queue.

use crate::engine::Ctx;
use crate::event::EventKind;
use crate::fault::DegradeProfile;
use crate::ids::{NodeId, PortId};
use crate::packet::{Packet, PacketKind};
use crate::queue::{Enqueued, PortQueue, Qdisc, QdiscStats};
use crate::rng::{mix64, Rng};
use crate::stats::Fate;
use crate::time::{Rate, SimDuration};

/// Ports with an EWMA health score below this are considered degraded by
/// health-aware routing (see [`crate::switch`]). A healthy port's TX path
/// never observes loss or corruption (congestion drops happen in the
/// qdisc, before serialization), so its score is exactly 1.0; a single
/// observed gray event dips below this floor and sustained clean traffic
/// climbs back above it.
pub const HEALTHY_THRESHOLD: f64 = 0.9;

/// EWMA gain for a bad TX sample (loss or corruption): fast detection.
const HEALTH_GAIN_BAD: f64 = 1.0 / 8.0;
/// EWMA gain for a clean TX sample: slow forgiveness, so a port must
/// sustain clean traffic for ~100 packets before being trusted again.
const HEALTH_GAIN_GOOD: f64 = 1.0 / 512.0;

/// Live degradation state of a gray-failing port: the profile plus the
/// per-direction RNG its misbehaviour is drawn from. Created when the
/// degrade fault lands, dropped on restore — healthy ports carry no
/// RNG and consume no randomness.
#[derive(Debug)]
struct DegradeState {
    profile: DegradeProfile,
    rng: Rng,
}

/// The transmit side of a link.
pub struct Port {
    /// This port's index on its owning node.
    pub id: PortId,
    /// The node at the far end of the link.
    pub peer: NodeId,
    /// Link capacity.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// The queue discipline, held inline when it is one of
    /// [`crate::queue`]'s own.
    qdisc: PortQueue,
    /// Control packets still to be dropped on arrival by injected loss
    /// bursts (see [`Port::inject_ctrl_loss_burst`]).
    ctrl_loss_left: u64,
    /// Control packets dropped by injected loss bursts so far; part of
    /// [`Port::synthetic_drops`] and folded into the queue's
    /// `dropped_pkts` by [`Port::qdisc_stats`].
    ctrl_loss_drops: u64,
    /// The packet currently being serialized, if any.
    in_flight: Option<Box<Packet>>,
    /// Whether the link is up. Downed ports drop everything offered to
    /// them (see [`Port::set_down`]).
    up: bool,
    /// Packets transmitted onto the wire.
    pub tx_pkts: u64,
    /// Bytes transmitted onto the wire.
    pub tx_bytes: u64,
    /// Faults applied to this port (down, up, ctrl bursts).
    pub faults_injected: u64,
    /// Packets dropped because the link was down (flushed, rejected on
    /// arrival, or caught mid-serialization).
    pub drops_while_down: u64,
    /// Gray-failure state while the link is degraded (boxed: healthy
    /// ports, nearly all of them, carry a null pointer instead of 64 cold
    /// bytes between their hot fields).
    degrade: Option<Box<DegradeState>>,
    /// Packets lost to link degradation (drawn at TX; part of
    /// [`Port::synthetic_drops`]).
    pub degrade_drops: u64,
    /// EWMA health score over TX outcomes: 1.0 = pristine, dips on every
    /// observed loss/corruption. See [`HEALTHY_THRESHOLD`].
    health: f64,
}

impl Port {
    /// Create a port with the given link parameters and queue discipline.
    pub fn new(
        id: PortId,
        peer: NodeId,
        rate: Rate,
        delay: SimDuration,
        qdisc: Box<dyn Qdisc>,
    ) -> Port {
        assert!(!rate.is_zero(), "link rate must be positive");
        Port {
            id,
            peer,
            rate,
            delay,
            qdisc: PortQueue::new(qdisc),
            ctrl_loss_left: 0,
            ctrl_loss_drops: 0,
            in_flight: None,
            up: true,
            tx_pkts: 0,
            tx_bytes: 0,
            faults_injected: 0,
            drops_while_down: 0,
            degrade: None,
            degrade_drops: 0,
            health: 1.0,
        }
    }

    /// Offer a packet to this port: enqueue it and, if the serializer is
    /// idle, begin transmission. Every drop is retired as
    /// [`Fate::Dropped`]; everything offered to a downed port is dropped.
    pub fn send(&mut self, pkt: Box<Packet>, ctx: &mut Ctx<'_>) {
        if !self.up {
            self.drops_while_down += 1;
            ctx.retire(pkt, Fate::Dropped);
            return;
        }
        let is_data = pkt.kind == PacketKind::Data;
        let outcome = if self.ctrl_loss_left > 0 && pkt.kind == PacketKind::Ctrl {
            self.ctrl_loss_left -= 1;
            self.ctrl_loss_drops += 1;
            Enqueued::RejectedArrival(pkt)
        } else {
            self.qdisc.enqueue(pkt, ctx.now())
        };
        match outcome {
            Enqueued::Ok => {
                if is_data {
                    ctx.stats.note_data_enqueued();
                }
            }
            Enqueued::RejectedArrival(dropped) => ctx.retire(dropped, Fate::Dropped),
            Enqueued::Evicted(victim) => {
                // The arrival was accepted; a resident was pushed out.
                if is_data {
                    ctx.stats.note_data_enqueued();
                }
                ctx.retire(victim, Fate::Dropped);
            }
        }
        if self.in_flight.is_none() {
            self.start_tx(ctx);
        }
    }

    /// Take the link down: flush and drop everything queued; reject all
    /// future arrivals until [`Port::set_up`]. A packet currently being
    /// serialized is dropped when its `TxComplete` fires.
    pub fn set_down(&mut self, ctx: &mut Ctx<'_>) {
        self.faults_injected += 1;
        self.up = false;
        let now = ctx.now();
        while let Some(pkt) = self.qdisc.dequeue(now) {
            self.drops_while_down += 1;
            ctx.retire(pkt, Fate::Dropped);
        }
    }

    /// Bring the link back up. The queue is empty at this point (down
    /// ports reject arrivals), so transmission resumes with the next
    /// offered packet.
    pub fn set_up(&mut self) {
        self.faults_injected += 1;
        self.up = true;
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Drop the next `n` control packets offered to this port, before
    /// the queue sees them. Bursts add up: one injected while an earlier
    /// one still has packets to drop extends it by `n`.
    pub fn inject_ctrl_loss_burst(&mut self, n: u64) {
        self.faults_injected += 1;
        self.ctrl_loss_left += n;
    }

    /// Degrade this port per `profile` (gray failure). `node` is the
    /// owning node, used to salt the profile seed so the two directions
    /// of a link draw independent deterministic sequences.
    pub fn set_degraded(&mut self, node: NodeId, profile: DegradeProfile) {
        self.faults_injected += 1;
        let salt = mix64(((node.0 as u64) << 32) | self.id.0 as u64);
        self.degrade = Some(Box::new(DegradeState {
            profile,
            rng: Rng::seed_from_u64(profile.seed ^ salt),
        }));
    }

    /// Restore this port to nominal behaviour. The health score is left
    /// where the degradation pushed it and recovers through clean TX
    /// samples, so health-aware routing observes the recovery rather
    /// than being told about it.
    pub fn set_restored(&mut self) {
        self.faults_injected += 1;
        self.degrade = None;
    }

    /// Whether the port is currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.degrade.is_some()
    }

    /// Current EWMA health score (1.0 = pristine).
    pub fn health(&self) -> f64 {
        self.health
    }

    /// Whether the health score is above [`HEALTHY_THRESHOLD`].
    pub fn is_healthy(&self) -> bool {
        self.health >= HEALTHY_THRESHOLD
    }

    /// Total synthetic (fault-injected) losses on this port: degrade
    /// losses plus the control packets of injected loss bursts. One
    /// counter family for every loss that is *not* congestion.
    pub fn synthetic_drops(&self) -> u64 {
        self.degrade_drops + self.ctrl_loss_drops
    }

    /// Fold one TX outcome into the EWMA health score.
    fn note_health_sample(&mut self, clean: bool) {
        if clean {
            if self.health < 1.0 {
                self.health += (1.0 - self.health) * HEALTH_GAIN_GOOD;
            }
        } else {
            self.health *= 1.0 - HEALTH_GAIN_BAD;
        }
    }

    /// Begin serializing the next queued packet, if any.
    /// Schedules a [`EventKind::TxComplete`] for this port.
    fn start_tx(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.in_flight.is_none());
        if let Some(pkt) = self.qdisc.dequeue(ctx.now()) {
            let tx_time = self.rate.tx_time(pkt.wire_bytes as u64);
            self.in_flight = Some(pkt);
            ctx.schedule_self(tx_time, EventKind::TxComplete(self.id));
        }
    }

    /// Handle the completion of serialization: put the packet on the wire
    /// (schedule delivery at the peer after propagation) and start on the
    /// next queued packet. If the link went down mid-serialization, the
    /// packet dies here instead of being delivered. A degraded link may
    /// lose the packet, corrupt it, or inflate its propagation delay.
    pub fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>) {
        let mut pkt = self
            .in_flight
            .take()
            .expect("TxComplete with no in-flight packet");
        if !self.up {
            self.drops_while_down += 1;
            ctx.retire(pkt, Fate::Dropped);
            return;
        }
        // Gray-failure draws, in a fixed per-packet order (loss, then
        // corruption, then jitter) so replays are byte-identical.
        let mut extra_delay = SimDuration::ZERO;
        let mut corrupt = false;
        if let Some(deg) = &mut self.degrade {
            let p = deg.profile;
            if p.loss_ppm > 0 && deg.rng.gen_below(1_000_000) < p.loss_ppm as u64 {
                self.degrade_drops += 1;
                self.note_health_sample(false);
                ctx.retire(pkt, Fate::Dropped);
                self.start_tx(ctx);
                return;
            }
            corrupt = p.corrupt_ppm > 0 && deg.rng.gen_below(1_000_000) < p.corrupt_ppm as u64;
            let jitter = if p.jitter_ns > 0 {
                deg.rng.gen_below(p.jitter_ns as u64 + 1)
            } else {
                0
            };
            extra_delay = SimDuration::from_nanos(p.extra_delay_ns as u64 + jitter);
        }
        if corrupt {
            pkt.corrupted = true;
        }
        self.note_health_sample(!corrupt);
        self.tx_pkts += 1;
        self.tx_bytes += pkt.wire_bytes as u64;
        if ctx.stats.tracing() {
            let now = ctx.now();
            let ev = crate::trace::tx_event(ctx.node, self.id, &pkt);
            ctx.stats.trace_event(now, &ev);
        }
        ctx.schedule(self.delay + extra_delay, self.peer, EventKind::Deliver(pkt));
        self.start_tx(ctx);
    }

    /// Queue occupancy in packets (excluding the in-flight packet).
    pub fn queue_len_pkts(&self) -> usize {
        self.qdisc.get().len_pkts()
    }

    /// Visit every packet currently held by this port: queued in the
    /// qdisc plus the one being serialized, if any. Used by the
    /// [`crate::invariants`] conservation walk to count in-network
    /// packets.
    pub fn for_each_held(&self, f: &mut dyn FnMut(&Packet)) {
        self.qdisc.get().for_each_queued(f);
        if let Some(p) = &self.in_flight {
            f(p);
        }
    }

    /// Queue-discipline counters, with the control packets lost to
    /// injected bursts counted as drops at the queue.
    pub fn qdisc_stats(&self) -> QdiscStats {
        let mut s = self.qdisc.get().stats();
        s.dropped_pkts += self.ctrl_loss_drops;
        s
    }

    /// Fraction of the interval `[0, now]` this link spent transmitting
    /// (computed from bytes actually serialized; 0.0 when `now` is zero).
    pub fn utilization(&self, now: crate::time::SimTime) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let busy = self.rate.tx_time(self.tx_bytes).as_secs_f64();
        (busy / elapsed).min(1.0)
    }
}

impl core::fmt::Debug for Port {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Port")
            .field("id", &self.id)
            .field("peer", &self.peer)
            .field("rate", &self.rate)
            .field("delay", &self.delay)
            .field("queued_pkts", &self.qdisc.get().len_pkts())
            .field("busy", &self.in_flight.is_some())
            .field("up", &self.up)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheduler;
    use crate::ids::FlowId;
    use crate::queue::DropTailQdisc;
    use crate::stats::StatsCollector;
    use crate::time::SimTime;

    fn mk_port() -> Port {
        port_with_queue_cap(4)
    }

    fn port_with_queue_cap(cap_pkts: usize) -> Port {
        Port::new(
            PortId(0),
            NodeId(1),
            Rate::from_gbps(1),
            SimDuration::from_micros(10),
            Box::new(DropTailQdisc::new(cap_pkts)),
        )
    }

    fn data(flow: u64) -> Box<Packet> {
        Box::new(Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, 1460))
    }

    fn ctrl(flow: u64) -> Box<Packet> {
        let payload = Box::new(0u8);
        Box::new(Packet::ctrl(FlowId(flow), NodeId(0), NodeId(1), payload))
    }

    fn ack(flow: u64) -> Box<Packet> {
        Box::new(Packet::ack(FlowId(flow), NodeId(0), NodeId(1), 0))
    }

    #[test]
    fn port_layout_stays_flat() {
        // One hop reads the port, its queue header and one band ring at
        // addresses computed from the port's own; a `Box`/`Vec` creeping
        // back between them, or the port doubling in lines, puts a
        // dependent miss per hop back at k=16 (DESIGN §8).
        let size = core::mem::size_of::<Port>();
        assert!(size <= 512, "Port grew to {size} bytes (measured: 424)");
    }

    #[test]
    fn overlapping_ctrl_loss_bursts_add_up_and_spare_data_and_acks() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = port_with_queue_cap(64);
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        port.inject_ctrl_loss_burst(0); // inert
        port.send(ctrl(0), &mut ctx);
        assert_eq!(ctx.stats.ctrl_pkts_dropped, 0);
        port.inject_ctrl_loss_burst(3);
        port.send(ctrl(1), &mut ctx);
        port.send(data(2), &mut ctx);
        port.send(ack(3), &mut ctx);
        port.send(ctrl(4), &mut ctx);
        assert_eq!(ctx.stats.ctrl_pkts_dropped, 2);
        // One drop left of the first burst; the second adds four.
        port.inject_ctrl_loss_burst(4);
        for flow in 10..18 {
            port.send(ctrl(flow), &mut ctx);
            port.send(data(flow), &mut ctx);
            port.send(ack(flow), &mut ctx);
        }
        assert_eq!(ctx.stats.ctrl_pkts_dropped, 2 + 1 + 4);
        assert_eq!(ctx.stats.data_pkts_dropped, 0);
        assert_eq!(ctx.stats.data_pkts_enqueued, 9);
        let mut survivors = Vec::new();
        port.for_each_held(&mut |p| {
            if p.kind == PacketKind::Ctrl {
                survivors.push(p.flow.0);
            }
        });
        // Queued packets first, then the one being serialized.
        assert_eq!(survivors, [15, 16, 17, 0], "the burst is contiguous");
        // 1 ctrl in flight + 3 ctrl, 9 data and 9 ACKs queued.
        assert_eq!(port.queue_len_pkts(), 3 + 9 + 9);
        let qs = port.qdisc_stats();
        assert_eq!(qs.dropped_pkts, 7);
        assert_eq!(qs.enqueued_pkts, 1 + 3 + 9 + 9);
        assert_eq!(port.synthetic_drops(), 7);
        assert_eq!(port.faults_injected, 3);
    }

    #[test]
    fn spent_ctrl_loss_bursts_leave_the_port_as_built() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port();
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        for burst in 0..10 {
            port.inject_ctrl_loss_burst(2);
            port.send(ctrl(burst), &mut ctx);
            port.send(ctrl(burst), &mut ctx);
        }
        assert_eq!(ctx.stats.ctrl_pkts_dropped, 20);
        // Nothing accreted: the queue is still the inline band queue the
        // port was built with, and the next control packet goes straight
        // into it.
        assert!(matches!(port.qdisc, PortQueue::Bands(_)));
        assert_eq!(port.ctrl_loss_left, 0);
        port.send(ctrl(99), &mut ctx);
        assert!(port.in_flight.is_some());
        assert_eq!(port.qdisc_stats().enqueued_pkts, 1);
    }

    #[test]
    fn serialization_then_propagation() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port();
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.send(data(0), &mut ctx);
        }
        assert!(port.in_flight.is_some());
        // 1500 B at 1 Gbps = 12 us serialization.
        let (target, kind) = sched.pop().unwrap();
        assert_eq!(sched.now(), SimTime::from_micros(12));
        assert_eq!(target, NodeId(0));
        assert!(matches!(kind, EventKind::TxComplete(PortId(0))));
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.on_tx_complete(&mut ctx);
        }
        // Delivery at peer 10 us later.
        let (target, kind) = sched.pop().unwrap();
        assert_eq!(sched.now(), SimTime::from_micros(22));
        assert_eq!(target, NodeId(1));
        assert!(matches!(kind, EventKind::Deliver(_)));
        assert_eq!(port.tx_pkts, 1);
        assert_eq!(port.tx_bytes, 1500);
    }

    #[test]
    fn back_to_back_packets_pipeline() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port();
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.send(data(0), &mut ctx);
            port.send(data(1), &mut ctx);
        }
        // First TxComplete at 12 us; the second packet starts then.
        let (_, _) = sched.pop().unwrap();
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.on_tx_complete(&mut ctx);
        }
        assert!(port.in_flight.is_some());
        // Events now pending: Deliver(pkt0) at 22us, TxComplete(pkt1) at 24us.
        let mut times = vec![];
        while let Some((_, _)) = sched.pop() {
            times.push(sched.now());
        }
        assert_eq!(
            times,
            vec![SimTime::from_micros(22), SimTime::from_micros(24)]
        );
    }

    #[test]
    fn utilization_reflects_bytes_sent() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port();
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.send(data(0), &mut ctx);
        }
        // Complete the transmission (12 us of busy time at 1 Gbps).
        sched.pop().unwrap();
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.on_tx_complete(&mut ctx);
        }
        // Over a 24 us window the link was busy half the time.
        let u = port.utilization(SimTime::from_micros(24));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
        assert_eq!(port.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn overflow_is_counted() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port(); // queue cap 4 (+1 in flight)
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        for i in 0..6 {
            port.send(data(i), &mut ctx);
        }
        // 1 in flight + 4 queued; the 6th is dropped.
        assert_eq!(port.queue_len_pkts(), 4);
        assert_eq!(stats.data_pkts_dropped, 1);
        assert_eq!(stats.data_pkts_enqueued, 5);
    }

    #[test]
    fn down_port_flushes_and_rejects() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port();
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        port.send(data(0), &mut ctx); // in flight
        port.send(data(1), &mut ctx); // queued
        port.set_down(&mut ctx);
        assert!(!port.is_up());
        // The queued packet was flushed; the in-flight one still pending.
        assert_eq!(port.queue_len_pkts(), 0);
        assert_eq!(port.drops_while_down, 1);
        // New arrivals are rejected outright.
        port.send(data(2), &mut ctx);
        assert_eq!(port.drops_while_down, 2);
        assert_eq!(port.faults_injected, 1);
    }

    #[test]
    fn in_flight_packet_dies_if_link_drops_mid_serialization() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port();
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.send(data(0), &mut ctx);
            port.set_down(&mut ctx);
        }
        // The TxComplete fires, but the packet must not be delivered.
        let (_, kind) = sched.pop().unwrap();
        assert!(matches!(kind, EventKind::TxComplete(_)));
        {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.on_tx_complete(&mut ctx);
        }
        assert!(sched.pop().is_none(), "no delivery while down");
        assert_eq!(port.tx_pkts, 0);
        assert_eq!(port.drops_while_down, 1);
    }

    /// Drive `n` packets through the port, returning the deliveries it
    /// scheduled: when each lands and whether it arrives corrupted.
    fn drive(port: &mut Port, n: u64) -> Vec<(SimTime, bool)> {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut deliveries = vec![];
        for i in 0..n {
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            port.send(data(i), &mut ctx);
            while let Some((target, kind)) = sched.pop() {
                match kind {
                    EventKind::TxComplete(_) => {
                        let mut ctx = Ctx {
                            node: NodeId(0),
                            sched: &mut sched,
                            stats: &mut stats,
                        };
                        port.on_tx_complete(&mut ctx);
                    }
                    EventKind::Deliver(pkt) => {
                        assert_eq!(target, NodeId(1));
                        deliveries.push((sched.now(), pkt.corrupted));
                    }
                    _ => {}
                }
            }
        }
        deliveries
    }

    fn heavy_profile(seed: u64) -> crate::fault::DegradeProfile {
        crate::fault::DegradeProfile {
            seed,
            loss_ppm: 250_000,    // 25 %
            corrupt_ppm: 250_000, // 25 % of survivors
            extra_delay_ns: 0,
            jitter_ns: 0,
        }
    }

    #[test]
    fn degraded_port_loses_and_corrupts_deterministically() {
        let mut a = mk_port();
        let mut b = mk_port();
        a.set_degraded(NodeId(0), heavy_profile(42));
        b.set_degraded(NodeId(0), heavy_profile(42));
        let da = drive(&mut a, 400);
        let db = drive(&mut b, 400);
        assert_eq!(da, db, "same seed, same behaviour");
        assert_eq!(a.degrade_drops, b.degrade_drops);
        // At 25 % each over 400 packets, both odds certainly fire.
        assert!(a.degrade_drops > 0, "no losses in 400 packets");
        assert!(
            da.iter().any(|&(_, corrupted)| corrupted),
            "no corruptions in 400 packets"
        );
        assert_eq!(da.len() as u64 + a.degrade_drops, 400);
        assert_eq!(a.synthetic_drops(), a.degrade_drops);
        // A different seed draws a different sequence.
        let mut c = mk_port();
        c.set_degraded(NodeId(0), heavy_profile(43));
        let dc = drive(&mut c, 400);
        assert_ne!(dc, da, "different seeds should diverge");
    }

    #[test]
    fn degrade_inflates_latency_without_losing_packets() {
        let mut port = mk_port();
        port.set_degraded(
            NodeId(0),
            crate::fault::DegradeProfile {
                seed: 1,
                loss_ppm: 0,
                corrupt_ppm: 0,
                extra_delay_ns: 5_000, // +5 us on a 10 us link
                jitter_ns: 0,
            },
        );
        let deliveries = drive(&mut port, 1);
        // 12 us serialization + 10 us propagation + 5 us inflation.
        assert_eq!(deliveries, vec![(SimTime::from_micros(27), false)]);
        assert_eq!(port.degrade_drops, 0);
        assert_eq!(port.tx_pkts, 1);
    }

    #[test]
    fn health_dips_under_degradation_and_recovers_after_restore() {
        let mut port = mk_port();
        assert!(port.is_healthy());
        port.set_degraded(NodeId(0), heavy_profile(7));
        drive(&mut port, 200);
        assert!(
            !port.is_healthy(),
            "health {} after 200 packets at 25 % loss",
            port.health()
        );
        port.set_restored();
        assert!(!port.is_degraded());
        // Health is earned back through clean traffic, not reset.
        assert!(!port.is_healthy());
        drive(&mut port, 3000);
        assert!(
            port.is_healthy(),
            "health {} after 3000 clean packets",
            port.health()
        );
        assert_eq!(port.faults_injected, 2);
    }

    #[test]
    fn link_recovers_after_set_up() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = mk_port();
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        port.set_down(&mut ctx);
        port.send(data(0), &mut ctx);
        assert_eq!(port.drops_while_down, 1);
        port.set_up();
        assert!(port.is_up());
        port.send(data(1), &mut ctx);
        assert!(
            port.in_flight.is_some(),
            "transmission resumes after recovery"
        );
        assert_eq!(port.faults_injected, 2);
    }
}
