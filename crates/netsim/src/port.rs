//! Output ports.
//!
//! A [`Port`] is the transmit side of one unidirectional link: a queue
//! discipline feeding a serializer of fixed rate, followed by fixed
//! propagation delay. The simulator is store-and-forward: a packet is
//! delivered to the peer `serialization + propagation` after it reaches the
//! head of the queue.
//!
//! When a packet starts serializing, the port reserves two places in the
//! tie order, one for its completion and one for its `Deliver`, so both
//! pop where they would had they been queued right then. A hop then runs
//! one of two ways:
//!
//! - **Two events** (every port built with [`Port::new`], and a
//!   simulation's ports that a fault plan takes down or degrades): the
//!   port holds the packet and queues a [`EventKind::TxComplete`], which
//!   applies a down link's kill and a gray link's draws and health
//!   sample, queues the `Deliver` and starts the next packet.
//! - **One event** (every other port of a [`crate::sim::Simulation`]):
//!   the `Deliver` is queued at once, and the completion only while a
//!   packet waits behind the one being sent — by the arrival that finds
//!   the port busy, or by a start that leaves packets queued. Until the
//!   pop frontier passes the completion's key the port is busy. Every
//!   event that pops on the two-event hop pops on this one, at the same
//!   key and with the same queue behind it, but the completions that
//!   find the queue empty, which do nothing there.

use crate::engine::{Ctx, Scheduler};
use crate::event::EventKind;
use crate::fault::DegradeProfile;
use crate::ids::{NodeId, PortId};
use crate::packet::{Packet, PacketKind};
use crate::queue::{Enqueued, PortQueue, Qdisc, QdiscStats};
use crate::rng::{mix64, Rng};
use crate::stats::Fate;
use crate::time::{Rate, SimDuration, SimTime};

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
    /// Whether this port runs the one-event hop (see the module docs).
    one_event: bool,
    /// Completion key `(done, seq)` of the packet being serialized: the
    /// port is busy until the pop frontier passes it. `None` before the
    /// first packet and once a completion has been handled.
    serializing: Option<(SimTime, u64)>,
    /// Whether the completion keyed by `serializing` is queued as a
    /// [`EventKind::TxComplete`].
    completion_filed: bool,
    /// The packet being serialized on a two-event port, if any (on a
    /// one-event port it rides its `Deliver`).
    in_flight: Option<Box<Packet>>,
    /// The place in the tie order `start_tx` reserved for the in-flight
    /// packet's `Deliver`.
    deliver_seq: u64,
    /// Whether the link is up. Downed ports drop everything offered to
    /// them (see [`Port::set_down`]).
    up: bool,
    /// Packets transmitted onto the wire: counted when serialization
    /// completes on the two-event hop and when it begins on the one-event
    /// hop, which differ only for a packet a run's end cuts off.
    pub tx_pkts: u64,
    /// Bytes transmitted onto the wire, counted as [`Port::tx_pkts`].
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
            one_event: false,
            serializing: None,
            completion_filed: false,
            in_flight: None,
            deliver_seq: 0,
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
        if !self.is_serializing(ctx.sched) {
            self.start_tx(ctx);
        } else if !self.completion_filed && !self.qdisc.is_empty() {
            // The first packet to wait behind a one-event hop: the
            // completion that starts it must fire after all.
            self.file_completion(ctx);
        }
    }

    /// Whether a packet is still being serialized: its completion is
    /// queued, or its key lies ahead of the pop frontier.
    fn is_serializing(&self, sched: &Scheduler) -> bool {
        self.completion_filed
            || self
                .serializing
                .is_some_and(|(done, seq)| !sched.passed(done, seq))
    }

    /// Queue the completion of the packet being serialized under the key
    /// `start_tx` reserved for it.
    fn file_completion(&mut self, ctx: &mut Ctx<'_>) {
        let (done, seq) = self.serializing.expect("a packet is serializing");
        self.completion_filed = true;
        let kind = EventKind::TxComplete(self.id);
        ctx.sched.schedule_reserved(done, seq, ctx.node, kind);
    }

    /// Run the one-event hop (`true`; a [`crate::sim::Simulation`] does
    /// on every port it owns) or the two-event hop from the next packet
    /// on.
    pub(crate) fn set_one_event_hop(&mut self, on: bool) {
        self.one_event = on;
    }

    /// When the packet this port is serializing on the one-event hop
    /// finishes; `None` unless there is one.
    pub(crate) fn one_event_busy_until(&self, sched: &Scheduler) -> Option<SimTime> {
        let (done, seq) = self.serializing.filter(|_| self.one_event)?;
        (!sched.passed(done, seq)).then_some(done)
    }

    /// Panic unless this port runs the two-event hop: a fault that reads
    /// the completion reached a port no plan named.
    fn assert_two_event_hop(&self, node: NodeId, what: &str) {
        assert!(
            !self.one_event,
            "{what} on port {node}:{} running the one-event hop: only a fault declared \
             in an injected plan may reach a port's completion",
            self.id
        );
    }

    /// Take the link down: flush and drop everything queued; reject all
    /// future arrivals until [`Port::set_up`]. A packet currently being
    /// serialized is dropped when its `TxComplete` fires.
    ///
    /// # Panics
    /// Panics, in every build profile, on a port running the one-event
    /// hop, whose packets are past a fault's reach once they start.
    pub fn set_down(&mut self, ctx: &mut Ctx<'_>) {
        self.assert_two_event_hop(ctx.node, "set_down");
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
    ///
    /// # Panics
    /// Panics, in every build profile, on a port running the one-event
    /// hop, whose packets are past a fault's reach once they start.
    pub fn set_degraded(&mut self, node: NodeId, profile: DegradeProfile) {
        self.assert_two_event_hop(node, "set_degraded");
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

    /// Begin serializing the next queued packet, if any: reserve its two
    /// places in the tie order, the completion's and then the `Deliver`'s,
    /// and write its `Tx` trace line. A two-event port holds the packet
    /// and queues its [`EventKind::TxComplete`]; a one-event port queues
    /// its `Deliver` now, and the completion only if a packet waits
    /// behind it.
    fn start_tx(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.in_flight.is_none() && !self.completion_filed);
        let now = ctx.now();
        let Some(pkt) = self.qdisc.dequeue(now) else {
            return;
        };
        let done = now + self.rate.tx_time(pkt.wire_bytes as u64);
        let completion = ctx.sched.reserve_seq();
        let deliver = ctx.sched.reserve_seq();
        if ctx.stats.tracing() {
            let ev = crate::trace::tx_event(ctx.node, self.id, &pkt);
            ctx.stats.trace_event(now, &ev);
        }
        self.serializing = Some((done, completion));
        if self.one_event {
            self.tx_pkts += 1;
            self.tx_bytes += pkt.wire_bytes as u64;
            let kind = EventKind::Deliver(pkt);
            ctx.sched
                .schedule_reserved(done + self.delay, deliver, self.peer, kind);
            if self.qdisc.is_empty() {
                return;
            }
        } else {
            self.in_flight = Some(pkt);
            self.deliver_seq = deliver;
        }
        self.file_completion(ctx);
    }

    /// Handle the completion of serialization: put the packet on the wire
    /// (schedule delivery at the peer after propagation, in the place in
    /// the tie order `start_tx` reserved for it) and start on the next
    /// queued packet. If the link went down mid-serialization, the
    /// packet dies here instead of being delivered. A degraded link may
    /// lose the packet, corrupt it, or inflate its propagation delay. On
    /// a one-event hop the packet already rides its `Deliver`, and the
    /// completion only starts the next.
    pub fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>) {
        self.completion_filed = false;
        self.serializing = None;
        let Some(mut pkt) = self.in_flight.take() else {
            return self.start_tx(ctx);
        };
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
        let at = ctx.now() + self.delay + extra_delay;
        let kind = EventKind::Deliver(pkt);
        ctx.sched
            .schedule_reserved(at, self.deliver_seq, self.peer, kind);
        self.start_tx(ctx);
    }

    /// Queue occupancy in packets (excluding the packet being serialized).
    pub fn queue_len_pkts(&self) -> usize {
        self.qdisc.get().len_pkts()
    }

    /// Visit every packet currently held by this port: queued in the
    /// qdisc plus, on the two-event hop, the one being serialized, if any
    /// (on the one-event hop that packet rides its pending `Deliver`,
    /// where the walk counts it on the wire). Used by the
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
            .field("serializing", &self.serializing)
            .field("one_event", &self.one_event)
            .field("up", &self.up)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::queue::DropTailQdisc;
    use crate::stats::StatsCollector;

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

    fn one_event_port() -> Port {
        let mut port = mk_port();
        port.set_one_event_hop(true);
        port
    }

    /// The regression a one-event port is most prone to: a `start_tx`
    /// that leaves packets queued must queue its own completion, or the
    /// packets behind it wait for ever.
    #[test]
    fn a_start_that_leaves_packets_queued_files_its_completion() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut port = one_event_port();
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        // The first starts on an idle port and files no completion; the
        // second waits, so it does; the third waits behind the second.
        for flow in 0..3 {
            port.send(data(flow), &mut ctx);
        }
        assert!(port.in_flight.is_none(), "the packet rides its Deliver");
        let mut seen = vec![];
        while let Some((_, kind)) = sched.pop() {
            let at = sched.now().as_nanos() / 1000;
            match kind {
                EventKind::TxComplete(_) => {
                    seen.push((at, None));
                    let mut ctx = Ctx {
                        node: NodeId(0),
                        sched: &mut sched,
                        stats: &mut stats,
                    };
                    port.on_tx_complete(&mut ctx);
                }
                EventKind::Deliver(pkt) => seen.push((at, Some(pkt.flow.0))),
                other => panic!("unexpected {other:?}"),
            }
        }
        // 12 us serialization, 10 us propagation; the completion at 24 us
        // is the one the second packet's start filed for the third.
        let want = [
            (12, None),
            (22, Some(0)),
            (24, None),
            (34, Some(1)),
            (46, Some(2)),
        ];
        assert_eq!(seen, want);
        assert_eq!(port.queue_len_pkts(), 0);
        assert_eq!((port.tx_pkts, port.tx_bytes), (3, 4500));
    }

    #[test]
    #[should_panic(expected = "set_down on port n0:p0 running the one-event hop")]
    fn set_down_on_a_one_event_port_panics_naming_it() {
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        one_event_port().set_down(&mut ctx);
    }

    #[test]
    #[should_panic(expected = "set_degraded on port n3:p0 running the one-event hop")]
    fn set_degraded_on_a_one_event_port_panics_naming_it() {
        one_event_port().set_degraded(NodeId(3), heavy_profile(1));
    }

    /// What one event did to a port on a scheduler of its own.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Step {
        /// When the event popped, and its place in the tie order.
        at: SimTime,
        seq: u64,
        what: What,
        /// Queue length after the event.
        qlen: usize,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum What {
        /// The arrival of packet `token` (see `arrival`).
        Arrival(u64),
        /// A completion, and whether a packet was queued when it fired.
        Complete { found_queued: bool },
        /// The peer received a packet of `flow` with sequence number `seq`.
        Deliver { flow: u64, seq: u64 },
    }

    /// Packet `token` of the arrival stream: data of any size, ACKs and
    /// control packets over three bands and seven flows, every one
    /// ECN-capable, numbered by its token.
    fn arrival(token: u64) -> Box<Packet> {
        let h = mix64(token);
        let (flow, from, to) = (FlowId(h % 7), NodeId(0), NodeId(1));
        let mut pkt = match (h >> 8) % 4 {
            0 => Packet::ack(flow, from, to, token),
            1 => Packet::ctrl(flow, from, to, Box::new(0u8)),
            _ => Packet::data(flow, from, to, token, 64 + ((h >> 16) % 1400) as u32),
        };
        pkt.seq = token;
        pkt.prio = ((h >> 32) % 3) as u8;
        pkt.ecn_capable = true;
        Box::new(pkt)
    }

    /// Drive `arrivals` packets of a randomized stream through a port on
    /// the one-event hop or the two-event hop, and log every event. The
    /// stream is drawn at arrivals only, which both hops see alike if they
    /// are one model: bursts at one instant, control-loss bursts, gaps
    /// long enough to idle the port, and arrivals at the instant the
    /// packet being sent completes, filed both after the completion's
    /// tie-order number and, under a number reserved earlier, before it.
    fn run_hop(one_event: bool, seed: u64, arrivals: u64) -> (Vec<Step>, QdiscStats) {
        let mut port = Port::new(
            PortId(0),
            NodeId(1),
            Rate::from_gbps(1),
            SimDuration::from_micros(10),
            Box::new(crate::queue::StrictPrioQdisc::new(3, 6, 3)),
        );
        port.set_one_event_hop(one_event);
        let mut sched = Scheduler::new();
        let mut stats = StatsCollector::new();
        let mut rng = Rng::seed_from_u64(seed);
        let mut held: Vec<u64> = vec![];
        // One chain of arrivals: only the arrivals marked here draw the
        // next ones, so the stream neither dies nor multiplies.
        let mut chain = vec![true];
        let mut log = vec![];
        sched.schedule_at(SimTime::ZERO, NodeId(0), EventKind::PluginTimer(0));
        while let Some((_, kind)) = sched.pop() {
            let (at, seq) = (sched.now(), sched.popped_seq().expect("popped"));
            let mut ctx = Ctx {
                node: NodeId(0),
                sched: &mut sched,
                stats: &mut stats,
            };
            let what = match kind {
                EventKind::PluginTimer(token) => {
                    port.send(arrival(token), &mut ctx);
                    if !chain[token as usize] {
                        log.push(Step {
                            at,
                            seq,
                            what: What::Arrival(token),
                            qlen: port.queue_len_pkts(),
                        });
                        continue;
                    }
                    let busy = port.serializing.filter(|_| port.is_serializing(ctx.sched));
                    let done = busy.map(|(done, _)| done).filter(|&done| done > at);
                    let mut arrive = |sched: &mut Scheduler, when, held: Option<u64>, next| {
                        let token = chain.len() as u64;
                        if token < arrivals {
                            let kind = EventKind::PluginTimer(token);
                            match held {
                                Some(seq) => sched.schedule_reserved(when, seq, NodeId(0), kind),
                                None => sched.schedule_at(when, NodeId(0), kind),
                            }
                            chain.push(next);
                        }
                    };
                    let later = |rng: &mut Rng| at + SimDuration::from_nanos(rng.gen_below(20_000));
                    match (rng.gen_below(8), done) {
                        (0, _) => {
                            let when = at + SimDuration::from_nanos(rng.gen_below(2) * 500);
                            for i in 0..2 + rng.gen_below(5) {
                                arrive(ctx.sched, when, None, i == 0);
                            }
                        }
                        (1, Some(done)) => arrive(ctx.sched, done, None, true),
                        (2, Some(done)) if !held.is_empty() => {
                            let seq = held.swap_remove(rng.gen_index(held.len()));
                            arrive(ctx.sched, done, Some(seq), false);
                            arrive(ctx.sched, later(&mut rng), None, true);
                        }
                        (3, _) => {
                            held.push(ctx.sched.reserve_seq());
                            arrive(ctx.sched, later(&mut rng), None, true);
                        }
                        (4, _) => {
                            port.inject_ctrl_loss_burst(rng.gen_below(4));
                            arrive(ctx.sched, later(&mut rng), None, true);
                        }
                        _ => arrive(ctx.sched, later(&mut rng), None, true),
                    }
                    What::Arrival(token)
                }
                EventKind::TxComplete(_) => {
                    let found_queued = port.queue_len_pkts() > 0;
                    port.on_tx_complete(&mut ctx);
                    What::Complete { found_queued }
                }
                EventKind::Deliver(pkt) => What::Deliver {
                    flow: pkt.flow.0,
                    seq: pkt.seq,
                },
                other => panic!("unexpected {other:?}"),
            };
            let qlen = port.queue_len_pkts();
            log.push(Step {
                at,
                seq,
                what,
                qlen,
            });
        }
        assert_eq!(chain.len() as u64, arrivals, "the stream ran dry");
        (log, port.qdisc_stats())
    }

    /// The exactness argument for the one-event hop, event by event: on
    /// one arrival stream it pops every event the two-event hop pops, at
    /// the same `(time, seq)` and with the same queue behind it, except
    /// the completions that find the queue empty, and keeps the same
    /// queue counters.
    #[test]
    fn one_event_hop_matches_the_two_event_hop() {
        let mut skipped = 0;
        for seed in 0..16 {
            let (two, two_stats) = run_hop(false, seed, 3000);
            let (one, one_stats) = run_hop(true, seed, 3000);
            let idle = |s: &Step| {
                s.what
                    == What::Complete {
                        found_queued: false,
                    }
            };
            assert!(
                !one.iter().any(idle),
                "seed {seed}: a filed completion found no packet"
            );
            let busy: Vec<Step> = two.iter().copied().filter(|s| !idle(s)).collect();
            skipped += two.len() - busy.len();
            if let Some(i) = (0..busy.len().max(one.len())).find(|&i| busy.get(i) != one.get(i)) {
                panic!(
                    "seed {seed}: event {i} differs: two-event {:?}, one-event {:?}",
                    busy.get(i),
                    one.get(i)
                );
            }
            assert_eq!(one_stats, two_stats, "seed {seed}");
            assert!(
                one_stats.dropped_pkts > 0 && one_stats.marked_pkts > 0,
                "seed {seed}"
            );
        }
        assert!(
            skipped > 1000,
            "only {skipped} idle completions: the stream never idles"
        );
    }
}
