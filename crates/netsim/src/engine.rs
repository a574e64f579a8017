//! The discrete-event scheduler.
//!
//! Two interchangeable event-queue engines give a total, deterministic
//! order over events keyed on `(time, seq)` — ties in simulated time fire
//! in scheduling order:
//!
//! - [`EngineKind::Wheel`]: a hierarchical timing wheel
//!   ([`crate::wheel`]) with O(1) amortized schedule/pop. Every run uses
//!   it ([`Scheduler::new`]).
//! - [`EngineKind::Heap`]: the original binary heap, kept as the
//!   reference implementation differential tests compare the wheel
//!   against; reachable only through [`Scheduler::with_engine`].
//!
//! Both engines produce byte-identical traces; `scripts/ci.sh` holds them
//! to that with an in-process dual-engine chaos pass (`engine_diff`).
//!
//! Events go in through [`Scheduler::schedule_at`] (or, for a place in
//! the tie order taken earlier, [`Scheduler::reserve_seq`] +
//! [`Scheduler::schedule_reserved`]) and come out through
//! `Scheduler::pop_due`, the run loop's single call per event: the next
//! event unless it lies past the time limit (with none returned,
//! [`Scheduler::pending`] tells a time limit from a drained queue).
//! [`Scheduler::pop`] and [`Scheduler::next_event_time`] are the public
//! pair, for benchmarks and hand-written event loops.
//! [`Scheduler::wheel_stats`] counts what the wheel did on the way
//! ([`WheelStats`]).
//!
//! The scheduler also owns the [`PacketArena`] that recycles packet boxes
//! across the injection → wire → delivery lifecycle, so steady-state
//! simulation does not allocate per packet.
//!
//! Handlers receive a [`Ctx`] giving them the clock, the scheduler (to
//! post future events) and the stats collector — but never another node's
//! state, so all inter-node interaction flows through events, mirroring a
//! real network.

use std::collections::BinaryHeap;

use crate::event::{EventKind, ScheduledEvent};
use crate::ids::NodeId;
use crate::packet::{Packet, PacketArena};
use crate::stats::{Fate, StatsCollector};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{TimingWheel, DEFAULT_TICK_SHIFT};

/// Which event-queue implementation a [`Scheduler`] runs on: a
/// construction-time argument ([`Scheduler::with_engine`]), never
/// process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Reference binary heap: O(log n) per op, minimal constant factor.
    Heap,
    /// Hierarchical timing wheel: O(1) amortized schedule/pop.
    Wheel,
}

/// The wheel's internal traffic, counted always (plain increments) and
/// part of no digest. All zero on the heap engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Level-0 slots poured into the sorted run pops come from.
    pub pours: u64,
    /// Events in the largest single pour (the densest tick served).
    pub max_pour: u64,
    /// Events filed a second (third, …) time because the slot they
    /// waited in, at level 1 or above, was redistributed.
    pub refiled: u64,
    /// Events scheduled into a tick already being served.
    pub filed_below_horizon: u64,
    /// Events moved from the far-future overflow heap into the wheel.
    pub overflow_promoted: u64,
}

/// The two storage engines behind [`Scheduler`].
// There is one per simulation and it never moves, so the size the wheel's
// inline bitmaps add to the `Heap` variant is irrelevant; boxing the wheel
// would put a pointer chase on every push and pop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum EventQueue {
    Heap(BinaryHeap<ScheduledEvent>),
    Wheel(TimingWheel),
}

/// The event queue and clock.
#[derive(Debug)]
pub struct Scheduler {
    queue: EventQueue,
    next_seq: u64,
    now: SimTime,
    /// Sequence number of the event `now` was reached by; `None` until
    /// the first pop.
    popped_seq: Option<u64>,
    peak_pending: usize,
    arena: PacketArena,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl Scheduler {
    /// An empty scheduler at time zero on the timing wheel.
    pub fn new() -> Self {
        Scheduler::with_engine(EngineKind::Wheel)
    }

    /// An empty scheduler at time zero on an explicit engine: how the
    /// differential harnesses run heap and wheel side by side in one
    /// process.
    pub fn with_engine(engine: EngineKind) -> Self {
        let queue = match engine {
            EngineKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            EngineKind::Wheel => EventQueue::Wheel(TimingWheel::new(DEFAULT_TICK_SHIFT)),
        };
        Scheduler {
            queue,
            next_seq: 0,
            now: SimTime::ZERO,
            popped_seq: None,
            peak_pending: 0,
            arena: PacketArena::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        match &self.queue {
            EventQueue::Heap(h) => h.len(),
            EventQueue::Wheel(w) => w.len(),
        }
    }

    /// High-water mark of the pending-event count over the scheduler's
    /// lifetime (peak queue size; memory-pressure figure for benchmarks).
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// The wheel engine's internal counters (see [`WheelStats`]).
    pub fn wheel_stats(&self) -> WheelStats {
        match &self.queue {
            EventQueue::Heap(_) => WheelStats::default(),
            EventQueue::Wheel(w) => w.stats(),
        }
    }

    /// The packet arena recycling `Box<Packet>` storage for this run.
    pub fn arena(&self) -> &PacketArena {
        &self.arena
    }

    /// Mutable access to the packet arena (allocation and release sites).
    pub fn arena_mut(&mut self) -> &mut PacketArena {
        &mut self.arena
    }

    /// Schedule `kind` to fire on `target` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (in every build profile: a
    /// time-travelling event would silently corrupt the causal order of
    /// everything scheduled after it, so release builds must not limp
    /// past it either).
    pub fn schedule_at(&mut self, at: SimTime, target: NodeId, kind: EventKind) {
        let seq = self.reserve_seq();
        self.push(at, seq, target, kind);
    }

    /// Take the next sequence number without queueing an event: the
    /// caller holds a place in the tie order at `now` and may file an
    /// event there later with [`Scheduler::schedule_reserved`], or never
    /// (an unused number leaves a gap, which orders nothing).
    ///
    /// This is what lets a timer that is re-armed before it fires keep
    /// one queued event instead of one per arm (see [`crate::timer`])
    /// without renumbering any other event: every `schedule_*` call that
    /// follows gets the number it would have got had the event been
    /// queued here.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Queue `kind` for `target` at `at` under `seq`, a number obtained
    /// from [`Scheduler::reserve_seq`] and not yet used. The event pops
    /// exactly where it would have had it been queued when the number was
    /// taken.
    ///
    /// # Panics
    /// Panics, in every build profile, if `seq` was never reserved or if
    /// `(at, seq)` is not after the event being handled: the queue has
    /// already passed that position and the event would fire out of
    /// order.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, target: NodeId, kind: EventKind) {
        assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved (next is {})",
            self.next_seq
        );
        assert!(
            at > self.now || self.popped_seq.is_none_or(|popped| seq > popped),
            "reserved {} event for node {} at ({at}, seq {seq}) is behind the pop frontier \
             ({}, seq {:?})",
            kind.name(),
            target.0,
            self.now,
            self.popped_seq
        );
        self.push(at, seq, target, kind);
    }

    fn push(&mut self, at: SimTime, seq: u64, target: NodeId, kind: EventKind) {
        assert!(
            at >= self.now,
            "scheduling into the past: {} event for node {} at {at} < now {}",
            kind.name(),
            target.0,
            self.now
        );
        let ev = |kind| ScheduledEvent {
            time: at,
            seq,
            target,
            kind,
        };
        // Each arm builds its own event: one built before the match has to
        // live on the stack for the heap's out-of-line push, and the wheel
        // arm then copies it into its slot with wide loads over narrower
        // stores that cannot be forwarded.
        let pending = match &mut self.queue {
            EventQueue::Heap(h) => {
                h.push(ev(kind));
                h.len()
            }
            EventQueue::Wheel(w) => {
                w.push(ev(kind));
                w.len()
            }
        };
        if pending > self.peak_pending {
            self.peak_pending = pending;
        }
    }

    /// Schedule `kind` to fire on `target` after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, target: NodeId, kind: EventKind) {
        self.schedule_at(self.now + delay, target, kind);
    }

    /// Allocate `pkt` from the scheduler's arena and schedule its
    /// delivery at `target` at absolute time `at`.
    ///
    /// This is the allocation-free way to inject packets straight into
    /// the event queue (test harnesses, benchmarks); the host/switch
    /// deliver paths return the box to the same arena, so a drained run
    /// ends with zero outstanding packets.
    pub fn schedule_deliver(&mut self, at: SimTime, target: NodeId, pkt: Packet) {
        let boxed = self.arena.alloc(pkt);
        self.schedule_at(at, target, EventKind::Deliver(boxed));
    }

    /// Pop the next event, advancing the clock to its timestamp.
    ///
    /// Public for benchmarking and custom drivers; the normal entry point
    /// is [`crate::sim::Simulation::run`].
    /// # Panics
    /// Panics if the queue yields an event timestamped before `now`
    /// (in every build profile; see [`Scheduler::schedule_at`]).
    pub fn pop(&mut self) -> Option<(NodeId, EventKind)> {
        self.pop_due(SimTime::MAX).map(|e| (e.target, e.kind))
    }

    /// Pop the next event unless it is later than `limit`, advancing the
    /// clock to its timestamp: the run loop's one call per event. `None`
    /// leaves the queue, the clock and the pop frontier as they were;
    /// [`Scheduler::pending`] then says whether anything lies past the
    /// limit.
    ///
    /// The event comes back whole, not as a `Result` or a tuple: the
    /// caller reads it at the offsets it was written at (DESIGN §8, "the
    /// event's own move").
    ///
    /// # Panics
    /// As [`Scheduler::pop`].
    #[inline]
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
        let ev = match &mut self.queue {
            EventQueue::Heap(h) => {
                if h.peek()?.time > limit {
                    return None;
                }
                h.pop()?
            }
            EventQueue::Wheel(w) => w.pop_due(limit)?,
        };
        assert!(
            ev.time >= self.now,
            "event queue went backwards: {} event for node {} at {} behind now {}",
            ev.kind.name(),
            ev.target.0,
            ev.time,
            self.now
        );
        self.now = ev.time;
        self.popped_seq = Some(ev.seq);
        Some(ev)
    }

    /// Peek at the timestamp of the next event without firing it.
    ///
    /// Takes `&mut self` because the wheel engine may advance its horizon
    /// to locate the next slot; the observable state (pop order, clock)
    /// is untouched. Amortized O(1).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        match &mut self.queue {
            EventQueue::Heap(h) => h.peek().map(|e| e.time),
            EventQueue::Wheel(w) => w.peek_time(),
        }
    }

    /// Iterate over every pending event in unspecified order.
    ///
    /// Used by the [`crate::invariants`] checker to account for packets
    /// that are "on the wire" (scheduled [`EventKind::Deliver`]s) and
    /// timers that prove a flow can still make progress.
    pub fn pending_events(&self) -> impl Iterator<Item = (SimTime, NodeId, &EventKind)> {
        let it: Box<dyn Iterator<Item = &ScheduledEvent>> = match &self.queue {
            EventQueue::Heap(h) => Box::new(h.iter()),
            EventQueue::Wheel(w) => Box::new(w.iter()),
        };
        it.map(|e| (e.time, e.target, &e.kind))
    }
}

/// Per-event context handed to node handlers.
///
/// Holds mutable access to the scheduler and statistics but *not* to other
/// nodes: the only way to affect a remote node is to schedule a future
/// event for it (normally a packet delivery).
pub struct Ctx<'a> {
    /// The node currently handling an event.
    pub node: NodeId,
    /// The scheduler (clock + event queue).
    pub sched: &'a mut Scheduler,
    /// Measurement sink.
    pub stats: &'a mut StatsCollector,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Schedule an event on the handling node itself.
    pub fn schedule_self(&mut self, delay: SimDuration, kind: EventKind) {
        self.sched.schedule_in(delay, self.node, kind);
    }

    /// Schedule an event on an arbitrary node.
    pub fn schedule(&mut self, delay: SimDuration, target: NodeId, kind: EventKind) {
        self.sched.schedule_in(delay, target, kind);
    }

    /// Box `pkt` in recycled arena storage (the injection half of the
    /// packet lifecycle; see [`crate::packet::PacketArena`]).
    pub fn alloc_packet(&mut self, pkt: Packet) -> Box<Packet> {
        self.sched.arena_mut().alloc(pkt)
    }

    /// Return a packet box to the arena without charging it to the
    /// ledger (acks and probes that arrive with nothing left to do).
    pub fn release_packet(&mut self, pkt: Box<Packet>) {
        self.sched.arena_mut().release(pkt);
    }

    /// The packet leaves the network here with `fate`: charge it to the
    /// ledger at the handling node ([`StatsCollector::note_fate`]) and
    /// return its box to the arena.
    pub fn retire(&mut self, pkt: Box<Packet>, fate: Fate) {
        let now = self.now();
        self.stats.note_fate(&pkt, fate, self.node, now);
        self.release_packet(pkt);
    }

    /// Move the packet out of its box and recycle the storage (terminal
    /// delivery-to-consumer sites).
    pub fn take_packet(&mut self, pkt: Box<Packet>) -> Packet {
        self.sched.arena_mut().take(pkt)
    }
}

#[cfg(test)]
impl Scheduler {
    /// Run the wheel's structural audit (no-op on the heap engine).
    fn audit(&self) {
        if let EventQueue::Wheel(w) = &self.queue {
            w.audit();
        }
    }

    /// Sequence number of the event the last `pop` returned.
    pub(crate) fn popped_seq(&self) -> Option<u64> {
        self.popped_seq
    }

    /// Events waiting in the wheel's `late` heap (none on the heap engine).
    fn late_len(&self) -> usize {
        match &self.queue {
            EventQueue::Heap(_) => 0,
            EventQueue::Wheel(w) => w.late_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::rng::Rng;

    #[test]
    fn clock_advances_monotonically() {
        let mut s = Scheduler::new();
        s.schedule_at(
            SimTime::from_micros(10),
            NodeId(0),
            EventKind::PluginTimer(0),
        );
        s.schedule_at(
            SimTime::from_micros(5),
            NodeId(1),
            EventKind::PluginTimer(1),
        );
        let (n1, k1) = s.pop().unwrap();
        assert_eq!(n1, NodeId(1));
        assert!(matches!(k1, EventKind::PluginTimer(1)));
        assert_eq!(s.now(), SimTime::from_micros(5));
        let (n2, _) = s.pop().unwrap();
        assert_eq!(n2, NodeId(0));
        assert_eq!(s.now(), SimTime::from_micros(10));
        assert!(s.pop().is_none());
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        for engine in [EngineKind::Heap, EngineKind::Wheel] {
            let mut s = Scheduler::with_engine(engine);
            for i in 0..10u64 {
                s.schedule_at(
                    SimTime::from_micros(1),
                    NodeId(i as u32),
                    EventKind::PluginTimer(i),
                );
            }
            for i in 0..10u64 {
                let (n, _) = s.pop().unwrap();
                assert_eq!(n, NodeId(i as u32));
            }
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(
            SimTime::from_micros(100),
            NodeId(0),
            EventKind::PluginTimer(0),
        );
        s.pop().unwrap();
        s.schedule_in(
            SimDuration::from_micros(50),
            NodeId(0),
            EventKind::PluginTimer(1),
        );
        s.pop().unwrap();
        assert_eq!(s.now(), SimTime::from_micros(150));
    }

    // Deliberately NOT gated on debug_assertions: the causal-order check
    // must hold in release builds too (it guards every benchmark and
    // long chaos sweep, which run with --release).
    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics_in_every_profile() {
        let mut s = Scheduler::new();
        s.schedule_at(
            SimTime::from_micros(100),
            NodeId(0),
            EventKind::PluginTimer(0),
        );
        s.pop().unwrap();
        s.schedule_at(
            SimTime::from_micros(50),
            NodeId(0),
            EventKind::PluginTimer(1),
        );
    }

    #[test]
    fn past_scheduling_panic_names_the_event_and_clock() {
        let err = std::panic::catch_unwind(|| {
            let mut s = Scheduler::with_engine(EngineKind::Heap);
            s.schedule_at(
                SimTime::from_micros(100),
                NodeId(3),
                EventKind::PluginTimer(0),
            );
            s.pop().unwrap();
            s.schedule_at(
                SimTime::from_micros(50),
                NodeId(3),
                EventKind::PluginTimer(1),
            );
        })
        .expect_err("past scheduling must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted string");
        for needle in ["scheduling into the past", "PluginTimer", "node 3", "now"] {
            assert!(
                msg.contains(needle),
                "panic message {msg:?} lacks {needle:?}"
            );
        }
    }

    fn timer(token: u64) -> EventKind {
        EventKind::AgentTimer {
            flow: FlowId(0),
            token,
        }
    }

    fn token_of(kind: &EventKind) -> u64 {
        match kind {
            EventKind::AgentTimer { token, .. } => *token,
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// Pop both engines once and hold them to the same event, clock and
    /// sequence number; `None` when both are drained.
    fn pop_both(heap: &mut Scheduler, wheel: &mut Scheduler) -> Option<NodeId> {
        assert_eq!(heap.next_event_time(), wheel.next_event_time());
        match (heap.pop(), wheel.pop()) {
            (None, None) => None,
            (Some((hn, hk)), Some((wn, wk))) => {
                assert_eq!(heap.now(), wheel.now(), "clocks diverged");
                assert_eq!(hn, wn, "targets diverged at {}", heap.now());
                assert_eq!(token_of(&hk), token_of(&wk), "tokens diverged");
                assert_eq!(heap.popped_seq, wheel.popped_seq, "seqs diverged");
                Some(hn)
            }
            (x, y) => panic!("engines diverged: {x:?} vs {y:?}"),
        }
    }

    /// Drive the heap and wheel engines through one identical randomized op
    /// stream, asserting identical pop sequences and clocks after every op.
    ///
    /// The op mix covers everything the wheel handles specially: same-instant
    /// ties, near-future events spread across every wheel level, far-future
    /// timers that land in the overflow heap (hours to years out), bursts
    /// with consecutive sequence numbers, and schedule-during-pop (new events
    /// posted at the instant the clock just reached, below the wheel's served
    /// horizon), and sequence numbers reserved early and filed late —
    /// at the instant being handled, inside its tick, in the horizon's
    /// tick, at every level and in overflow, after however many cascades
    /// and window promotions the intervening pops caused. Dense ticks get
    /// ops of their own: 32 to 2000 events in one 256 ns tick with
    /// repeated nanoseconds, reserved numbers filed into that tick, and,
    /// mid-pop, one event at every remaining nanosecond of the tick being
    /// served. The wheel's structural audit runs after every op.
    fn differential_run(seed: u64, ops: usize) {
        let mut heap = Scheduler::with_engine(EngineKind::Heap);
        let mut wheel = Scheduler::with_engine(EngineKind::Wheel);
        let mut rng = Rng::seed_from_u64(seed);
        let mut next_token = 0u64;
        let mut pending = 0usize;
        let mut tie_time = SimTime::ZERO;
        let mut dense_tick = SimTime::ZERO;
        let mut reserved: Vec<u64> = Vec::new();
        let mut both = |heap: &mut Scheduler,
                        wheel: &mut Scheduler,
                        at: SimTime,
                        node: u32,
                        seq: Option<u64>| {
            let tok = next_token;
            next_token += 1;
            for s in [heap, wheel] {
                match seq {
                    None => s.schedule_at(at, NodeId(node), timer(tok)),
                    Some(seq) => s.schedule_reserved(at, seq, NodeId(node), timer(tok)),
                }
            }
            tok
        };
        for _ in 0..ops {
            match rng.gen_below(120) {
                // Near-future: deltas spanning ns to ~18 min so inserts hit
                // every wheel level (tick 256 ns, four 256-slot levels) AND
                // straddle the 2^40 ns top-level window boundary — deltas at
                // 2^38..2^40 routinely land in the next window while the
                // wheel levels are busy, so horizon carries cross windows
                // with events parked in overflow.
                0..=35 => {
                    let delta = SimDuration::from_nanos(1u64 << rng.gen_below(41));
                    let at = heap.now() + delta;
                    let tok = both(&mut heap, &mut wheel, at, 97, None);
                    if tok.is_multiple_of(3) {
                        tie_time = at; // revisit this instant for a tie later
                    }
                    pending += 1;
                }
                // Same-instant tie on a previously used future timestamp.
                36..=44 => {
                    if tie_time >= heap.now() {
                        both(&mut heap, &mut wheel, tie_time, 7, None);
                        pending += 1;
                    }
                }
                // Far future: force the wheel's overflow heap (> ~18 min).
                45..=53 => {
                    let delta = SimDuration::from_nanos(1u64 << (41 + rng.gen_below(8)));
                    let at = heap.now() + delta;
                    both(&mut heap, &mut wheel, at, 0, None);
                    pending += 1;
                }
                // Burst with consecutive seqs and internal ties.
                54..=62 => {
                    let n = rng.gen_below(8) + 2;
                    let base = heap.now() + SimDuration::from_nanos(rng.gen_below(1 << 20));
                    for i in 0..n {
                        let at = base + SimDuration::from_nanos(i / 2);
                        both(&mut heap, &mut wheel, at, 1, None);
                    }
                    pending += n as usize;
                }
                // Take a number now, to be filed by a later op.
                63..=71 => {
                    let seq = heap.reserve_seq();
                    assert_eq!(seq, wheel.reserve_seq());
                    reserved.push(seq);
                }
                // File a held number: a (time, seq) key older than
                // anything a plain schedule could produce now. Every
                // other time into the dense tick, while it is ahead.
                72..=80 => {
                    if !reserved.is_empty() {
                        let seq = reserved.swap_remove(rng.gen_index(reserved.len()));
                        let mut delta = match rng.gen_below(5) {
                            0 => 0,
                            1 => rng.gen_below(256),
                            2 => 256 + rng.gen_below(256),
                            3 => 1 << rng.gen_below(41),
                            _ => 1 << (41 + rng.gen_below(8)),
                        };
                        if delta == 0 && heap.popped_seq.is_some_and(|popped| popped > seq) {
                            delta = 1; // (now, seq) is already behind the frontier
                        }
                        let mut at = heap.now() + SimDuration::from_nanos(delta);
                        if dense_tick > heap.now() && rng.gen_below(2) == 0 {
                            at = dense_tick + SimDuration::from_nanos(rng.gen_below(256));
                        }
                        both(&mut heap, &mut wheel, at, 11, Some(seq));
                        pending += 1;
                    }
                }
                // A dense tick: 32 to 2000 events inside one 256 ns tick,
                // on a 16 ns grid so nanoseconds repeat.
                81 => {
                    let n = 32 + rng.gen_below(1969);
                    let ahead = heap.now() + SimDuration::from_nanos(1 << rng.gen_below(30));
                    dense_tick = SimTime::from_nanos((ahead.as_nanos() | 255) + 1);
                    for _ in 0..n {
                        let at = dense_tick + SimDuration::from_nanos(16 * rng.gen_below(16));
                        both(&mut heap, &mut wheel, at, 2, None);
                    }
                    pending += n as usize;
                }
                // Pop — more at a time the larger the backlog, so dense
                // ticks get served — then sometimes schedule at the
                // just-reached instant (schedule-during-pop: lands below
                // the wheel's horizon), and now and then at every
                // nanosecond left in the tick being served.
                _ => {
                    for _ in 0..1 + pending / 64 {
                        let Some(node) = pop_both(&mut heap, &mut wheel) else {
                            assert_eq!(pending, 0);
                            break;
                        };
                        pending -= 1;
                        let now = heap.now();
                        match rng.gen_below(256) {
                            0..=63 => {
                                both(&mut heap, &mut wheel, now, node.0, None);
                                pending += 1;
                            }
                            64 => {
                                for ns in now.as_nanos()..=now.as_nanos() | 255 {
                                    both(&mut heap, &mut wheel, SimTime::from_nanos(ns), 3, None);
                                    pending += 1;
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            wheel.audit();
        }
        // Drain both to the end: every remaining event must match too.
        while pop_both(&mut heap, &mut wheel).is_some() {
            wheel.audit();
        }
    }

    #[test]
    fn reserved_numbers_keep_their_place_in_the_tie_order() {
        for engine in [EngineKind::Heap, EngineKind::Wheel] {
            let mut s = Scheduler::with_engine(engine);
            let t = SimTime::from_micros(5);
            s.schedule_at(t, NodeId(0), timer(0));
            let held = s.reserve_seq();
            s.schedule_at(t, NodeId(0), timer(2));
            s.schedule_at(SimTime::from_micros(1), NodeId(0), timer(9));
            assert_eq!(token_of(&s.pop().unwrap().1), 9);
            // Filed last, from a later instant, yet it pops second.
            s.schedule_reserved(t, held, NodeId(0), timer(1));
            assert_eq!(s.pending(), 3);
            let order: Vec<u64> = std::iter::from_fn(|| s.pop())
                .map(|(_, k)| token_of(&k))
                .collect();
            assert_eq!(order, [0, 1, 2], "{engine:?}");
            assert_eq!(s.peak_pending(), 3);
        }
    }

    /// The pop-limit contract, on both engines and on the wheel through
    /// its `late` heap as well as its sorted run: a pop whose next event
    /// lies past the limit returns nothing and leaves the clock, the
    /// pending count and the pop frontier as they were; the limit is
    /// inclusive, so a later pop at the event's own instant returns it.
    #[test]
    fn an_event_past_the_limit_stays_queued() {
        let ns = SimTime::from_nanos;
        for engine in [EngineKind::Heap, EngineKind::Wheel] {
            let mut s = Scheduler::with_engine(engine);
            let frozen = |s: &Scheduler| (s.now(), s.pending(), s.popped_seq);
            // One 256 ns tick of 40 events, poured whole into the sorted
            // run by the wheel's first pop.
            for i in 0..40 {
                s.schedule_at(ns(1024 + i), NodeId(0), timer(i));
            }
            assert!(s.pop_due(ns(1023)).is_none(), "{engine:?}");
            assert_eq!(frozen(&s), (SimTime::ZERO, 40, None), "{engine:?}");
            let first = s.pop_due(ns(1024)).expect("due at the limit");
            assert_eq!(token_of(&first.kind), 0);
            // Filed at the far end of the tick being served, more than
            // `NEAR_INSERT` places from the run's back: the wheel's `late`
            // heap, so every pop below goes through `pop_merged`.
            s.schedule_at(ns(1024 + 39), NodeId(0), timer(40));
            assert_eq!(s.late_len(), usize::from(engine == EngineKind::Wheel));
            for token in 1..=40 {
                let at = 1024 + token.min(39);
                let before = frozen(&s);
                assert!(s.pop_due(ns(at - 1)).is_none(), "{engine:?} {token}");
                assert_eq!(frozen(&s), before, "{engine:?} {token}");
                let e = s.pop_due(ns(at)).expect("due at the limit");
                assert_eq!(token_of(&e.kind), token, "{engine:?}");
                assert_eq!(s.now(), ns(at));
            }
            assert!(s.pop_due(SimTime::MAX).is_none());
            assert_eq!(s.pending(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "behind the pop frontier")]
    fn filing_a_reserved_number_behind_the_frontier_panics() {
        let mut s = Scheduler::new();
        let t = SimTime::from_micros(5);
        let held = s.reserve_seq();
        s.schedule_at(t, NodeId(0), timer(1));
        s.pop().unwrap();
        s.schedule_reserved(t, held, NodeId(0), timer(0));
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn filing_an_unreserved_number_panics() {
        let mut s = Scheduler::new();
        s.schedule_reserved(SimTime::from_micros(5), 0, NodeId(0), timer(0));
    }

    /// The differential property test the wheel engine's correctness rests
    /// on: 12k randomized ops per seed, eight seeds.
    #[test]
    fn wheel_and_heap_engines_pop_identically() {
        for seed in 0..8u64 {
            differential_run(0x5eed_0000 + seed, 12_000);
        }
    }
}
