//! Hierarchical timing wheel: the O(1)-amortized event queue behind
//! [`crate::engine::Scheduler`]'s wheel engine.
//!
//! # Layout
//!
//! Timestamps are bucketed into *ticks* of `1 << tick_shift` nanoseconds
//! (256 ns by default). Four wheel levels of 256 slots each cover the next
//! `2^32` ticks (~18 minutes at the default tick) above the wheel's
//! *horizon* `H`; level `l` buckets events by digit `l` of their tick in
//! base 256. Everything beyond the top level's span sits in an `overflow`
//! min-heap, and everything already earlier than the horizon sits in a
//! small `ready` min-heap that pops in exact `(time, seq)` order.
//!
//! # Invariants
//!
//! - Every stored event has `tick >= H` except those in `ready`
//!   (`tick < H`), so `ready`'s min is always the global min.
//! - An event at level `l`, slot `d` shares all base-256 digits above `l`
//!   with `H` and has digit `l` equal to `d` (different from `H`'s, for
//!   `l > 0`). Overflow events differ from `H` above the top level.
//! - For every level `l >= 1`, slot `(l, digit_l(H))` is empty: whenever
//!   the horizon's carry rolls a high digit, [`TimingWheel::cascade`]
//!   immediately redistributes the slots the new horizon points at. This
//!   is what makes "lowest occupied level holds the earliest event" true
//!   even right after a carry.
//! - Whenever the horizon's top-level window prefix changes — by a carry
//!   rolling past the top level or by an explicit overflow-window jump —
//!   [`TimingWheel::promote_overflow_window`] immediately files every
//!   overflow event inside the new window into the wheel, keeping the
//!   "overflow differs from `H` above the top level" invariant true so a
//!   later insert into a wheel level can never leapfrog a stranded
//!   overflow event.
//!
//! A slot holds every event of one tick, possibly many distinct
//! nanosecond timestamps; that is fine because a drained slot is poured
//! into `ready`, which re-establishes the exact `(time, seq)` order. The
//! pop sequence is therefore *identical* to the binary heap's — the
//! differential test in `engine::tests` (which also runs this module's
//! structural `audit` after every operation) and the dual-engine
//! chaos pass in `scripts/ci.sh` hold the two engines to byte-equality.
//!
//! # Memory
//!
//! Each level keeps a 256-bit map of its non-empty slots, so finding the
//! next occupied slot is a few `trailing_zeros` instead of a scan over
//! `Vec` headers.
//!
//! Level 0 recycles its buffers. `ready` is empty whenever a level-0
//! slot is served, so the two trade buffers: the slot's `Vec` becomes the
//! heap in place (no copy) and the slot receives the heap's previous,
//! now empty, buffer for its next tick. In the steady state of a run
//! (a handful of events per tick, the same 256 slots revisited every
//! 65 µs) a push therefore never reaches the allocator. A buffer larger
//! than `LEVEL0_RETAIN` events is not handed on but freed: for dense
//! ticks the allocator's most recently freed block is the warmest memory
//! there is, and retention would hold 256 buffers the size of the densest
//! tick ever seen.
//!
//! Slots at levels >= 1 always give their buffer back when they are
//! redistributed: one of them can hold a whole RTO horizon's worth of
//! timers, is visited once per 17 ms or more, and retaining (or
//! recycling) buffers of that size costs far more resident memory than
//! the malloc it saves.

use std::collections::BinaryHeap;

use crate::event::ScheduledEvent;
use crate::time::SimTime;

/// Default tick granularity: `1 << 8` = 256 ns per tick.
pub(crate) const DEFAULT_TICK_SHIFT: u32 = 8;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; ticks beyond `2^(SLOT_BITS*LEVELS)` from the horizon's
/// window go to the overflow heap.
const LEVELS: u32 = 4;
/// Mask extracting one base-`SLOTS` digit.
const DIGIT_MASK: u64 = (SLOTS as u64) - 1;
/// Largest buffer, in events, a level-0 slot keeps between ticks (module
/// docs, "Memory"): 256 slots of 64 events are ~0.9 MB, about what stays
/// cache-resident.
const LEVEL0_RETAIN: usize = 64;

/// The wheel proper. See the module docs for the structure and the
/// invariants; [`crate::engine::Scheduler`] owns exactly one of these (or
/// a `BinaryHeap`, for the reference engine) and is the only user.
#[derive(Debug)]
pub(crate) struct TimingWheel {
    tick_shift: u32,
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Vec<ScheduledEvent>>,
    /// Events per level.
    occupancy: [usize; LEVELS as usize],
    /// Per level, bit `d` is set iff slot `d` is non-empty.
    occupied: [[u64; SLOTS / 64]; LEVELS as usize],
    /// Events with `tick < horizon`, in exact pop order (min-heap via
    /// `ScheduledEvent`'s reversed `Ord`).
    ready: BinaryHeap<ScheduledEvent>,
    /// Events too far in the future for any wheel level.
    overflow: BinaryHeap<ScheduledEvent>,
    /// Wheel origin, in ticks. Only ever advances.
    horizon: u64,
    len: usize,
}

impl TimingWheel {
    pub(crate) fn new(tick_shift: u32) -> TimingWheel {
        assert!(
            tick_shift <= 20,
            "wheel tick must be at most 2^20 ns (~1 ms), got shift {tick_shift}"
        );
        TimingWheel {
            tick_shift,
            slots: (0..LEVELS as usize * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS as usize],
            occupied: [[0; SLOTS / 64]; LEVELS as usize],
            ready: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            horizon: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn tick_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.tick_shift
    }

    fn digit(tick: u64, level: u32) -> usize {
        ((tick >> (SLOT_BITS * level)) & DIGIT_MASK) as usize
    }

    pub(crate) fn push(&mut self, ev: ScheduledEvent) {
        self.len += 1;
        self.insert(ev);
    }

    /// File `ev` under the level/slot (or heap) its tick calls for,
    /// without touching `len` — also used to re-file events when a slot
    /// is redistributed.
    fn insert(&mut self, ev: ScheduledEvent) {
        let tick = self.tick_of(ev.time);
        if tick < self.horizon {
            // Already inside the served window (e.g. scheduled for "now"
            // mid-pop): ready orders it exactly.
            self.ready.push(ev);
            return;
        }
        let differing = tick ^ self.horizon;
        let level = if differing == 0 {
            0
        } else {
            (63 - differing.leading_zeros()) / SLOT_BITS
        };
        if level >= LEVELS {
            self.overflow.push(ev);
            return;
        }
        let d = Self::digit(tick, level);
        self.slots[level as usize * SLOTS + d].push(ev);
        self.occupancy[level as usize] += 1;
        self.occupied[level as usize][d / 64] |= 1 << (d % 64);
    }

    /// The first non-empty slot of `level` at digit `start` or later.
    fn first_occupied(&self, level: u32, start: usize) -> Option<usize> {
        let words = &self.occupied[level as usize];
        let first = start / 64;
        let masked = words[first] & (!0u64 << (start % 64));
        if masked != 0 {
            return Some(first * 64 + masked.trailing_zeros() as usize);
        }
        (first + 1..words.len())
            .find(|&w| words[w] != 0)
            .map(|w| w * 64 + words[w].trailing_zeros() as usize)
    }

    /// Bookkeeping for slot `(level, d)` having been emptied of `n` events.
    fn mark_emptied(&mut self, level: u32, d: usize, n: usize) {
        self.occupancy[level as usize] -= n;
        self.occupied[level as usize][d / 64] &= !(1 << (d % 64));
    }

    /// Empty slot `(level, d)` for redistribution, giving up its buffer.
    fn take_slot(&mut self, level: u32, d: usize) -> Vec<ScheduledEvent> {
        let drained = std::mem::take(&mut self.slots[level as usize * SLOTS + d]);
        self.mark_emptied(level, d, drained.len());
        drained
    }

    /// Pop the earliest event (by `(time, seq)`), or `None` when empty.
    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        // A hard expect in every profile: a silently desynced `len` would
        // corrupt conservation accounting far from the cause.
        let ev = self
            .ready
            .pop()
            .expect("refill reported events but ready is empty");
        self.len -= 1;
        Some(ev)
    }

    /// Timestamp of the earliest event without removing it. `&mut`
    /// because it may advance the horizon to pull the next slot into
    /// `ready`; amortized O(1) like [`TimingWheel::pop`].
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.ready.peek().map(|e| e.time)
    }

    /// Every pending event, in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ScheduledEvent> {
        self.ready
            .iter()
            .chain(self.slots.iter().flatten())
            .chain(self.overflow.iter())
    }

    /// Advance the horizon to the earliest pending tick and pour that
    /// tick's slot into `ready`. Returns `false` iff the wheel (slots and
    /// overflow both) is empty.
    fn refill(&mut self) -> bool {
        loop {
            if self.occupancy[0] > 0 {
                // Level-0 events all live at digits >= digit_0(H): they
                // share the digits above with H and their tick is >= H.
                let d = self
                    .first_occupied(0, Self::digit(self.horizon, 0))
                    .expect("level-0 occupancy is nonzero but no slot bit is set");
                // `ready` is empty here (that is why we are refilling),
                // so the slot and `ready` trade buffers: the slot's events
                // become the heap where they lie, and the slot gets the
                // heap's old buffer, empty, for its next tick. Nothing is
                // copied and, while ticks stay sparse, nothing reaches
                // the allocator.
                assert!(self.ready.is_empty(), "refilling a non-empty ready heap");
                let mut buf = std::mem::take(&mut self.ready).into_vec();
                if buf.capacity() > LEVEL0_RETAIN {
                    buf = Vec::new();
                }
                std::mem::swap(&mut buf, &mut self.slots[d]);
                self.mark_emptied(0, d, buf.len());
                self.ready = BinaryHeap::from(buf);
                // The skipped slots were empty, so nothing pending
                // lives below the new horizon.
                self.horizon = (self.horizon & !DIGIT_MASK) + d as u64 + 1;
                if d + 1 == SLOTS {
                    // The +1 carried into digit 1 (possibly further):
                    // redistribute the slots the new horizon points
                    // at before anything else is served, or a later
                    // insert into a low level could leapfrog them.
                    self.cascade();
                    // If the carry rolled past the top level into a
                    // new window, overflow events already inside it
                    // must be filed into the wheel now for the same
                    // reason (no-op when the prefix didn't change).
                    self.promote_overflow_window();
                }
                return true;
            }
            // Level 0 is dry. The earliest pending event is at the lowest
            // occupied level (higher levels differ from H in a higher
            // digit, putting them strictly later): enter its first
            // occupied slot and redistribute it downward.
            if let Some(level) = (1..LEVELS).find(|&l| self.occupancy[l as usize] > 0) {
                let start = Self::digit(self.horizon, level);
                let d = self
                    .first_occupied(level, start)
                    .expect("level occupancy is nonzero but no slot bit is set");
                let drained = self.take_slot(level, d);
                if d > start {
                    // Jump the horizon to the start of the slot's window:
                    // digit `level` becomes `d`, lower digits zero. The
                    // levels below are empty and slots between `start`
                    // and `d` are empty, so nothing is skipped.
                    let span = SLOT_BITS * level;
                    let kept = self.horizon >> (span + SLOT_BITS) << (span + SLOT_BITS);
                    self.horizon = kept | ((d as u64) << span);
                }
                for ev in drained {
                    self.insert(ev);
                }
                continue;
            }
            // Wheels are empty: promote the overflow window containing
            // the earliest far-future event. Everything in overflow is
            // at `tick >= H`, so the max() keeps the horizon monotone.
            let Some(first) = self.overflow.peek() else {
                return false;
            };
            let window = SLOT_BITS * LEVELS;
            let aligned = (self.tick_of(first.time) >> window) << window;
            self.horizon = self.horizon.max(aligned);
            self.promote_overflow_window();
        }
    }

    /// File every overflow event living in the horizon's top-level window
    /// into the wheel (or `ready`). No-op while the earliest overflow
    /// event sits in a later window. Must run every time the horizon's
    /// window prefix changes, or events stranded in overflow would be
    /// leapfrogged by later wheel-filed inserts.
    fn promote_overflow_window(&mut self) {
        let window = SLOT_BITS * LEVELS;
        let prefix = self.horizon >> window;
        while let Some(ev) = self.overflow.peek() {
            if self.tick_of(ev.time) >> window != prefix {
                break;
            }
            let ev = self.overflow.pop().expect("peeked event vanished");
            self.insert(ev);
        }
    }

    /// After a carry rolled digit 1 (and possibly higher digits) of the
    /// horizon, re-file every slot the new horizon points at, top level
    /// first so events step down one level at a time. Restores the
    /// "slot `(l, digit_l(H))` is empty" invariant.
    fn cascade(&mut self) {
        for level in (1..LEVELS).rev() {
            let d = Self::digit(self.horizon, level);
            if self.occupied[level as usize][d / 64] & (1 << (d % 64)) == 0 {
                continue;
            }
            for ev in self.take_slot(level, d) {
                self.insert(ev);
            }
        }
    }
}

#[cfg(test)]
impl TimingWheel {
    /// Structural audit of the bookkeeping the fast paths trust: a
    /// level's bit `d` is set iff its slot `d` is non-empty,
    /// `occupancy[l]` is the number of events stored at level `l`, and
    /// `len` counts every stored event exactly once.
    pub(crate) fn audit(&self) {
        let mut stored = 0;
        for level in 0..LEVELS as usize {
            let mut at_level = 0;
            for d in 0..SLOTS {
                let n = self.slots[level * SLOTS + d].len();
                let bit = self.occupied[level][d / 64] >> (d % 64) & 1 == 1;
                assert_eq!(bit, n > 0, "level {level} slot {d}: bit {bit}, {n} events");
                at_level += n;
            }
            assert_eq!(self.occupancy[level], at_level, "level {level} occupancy");
            stored += at_level;
        }
        assert_eq!(
            self.len,
            self.ready.len() + stored + self.overflow.len(),
            "len desynced from ready + slots + overflow"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::ids::NodeId;

    fn ev(t_ns: u64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            time: SimTime::from_nanos(t_ns),
            seq,
            target: NodeId(0),
            kind: EventKind::PluginTimer(seq),
        }
    }

    fn drain(w: &mut TimingWheel) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| {
            let e = w.pop();
            w.audit();
            e
        })
        .map(|e| (e.time.as_nanos(), e.seq))
        .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order_across_levels() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        // Same tick, distinct nanoseconds; distant ticks; overflow range.
        let times = [
            3u64,
            1,
            2,
            300,           // level 0, later slot
            70_000,        // level 1
            20_000_000,    // level 2
            6_000_000_000, // level 3 (6 s)
            u64::MAX / 2,  // overflow
            1,             // tie with seq 1 -> fires after it
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.push(ev(t, seq as u64));
            w.audit();
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn carry_across_level_boundary_keeps_order() {
        let tick = 1u64 << DEFAULT_TICK_SHIFT;
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        // Park the horizon just before a digit-1 rollover, with an event
        // waiting in the slot the carry will expose.
        let boundary = 256 * tick; // digit 1 becomes 1
        w.push(ev(boundary - tick, 0)); // last slot of the first window
        w.push(ev(boundary + 5, 1)); // just past the carry
        assert_eq!(w.pop().unwrap().seq, 0);
        // Insert after the carry, earlier than the parked event.
        w.push(ev(boundary + 1, 2));
        assert_eq!(
            drain(&mut w),
            vec![(boundary + 1, 2), (boundary + 5, 1)],
            "stale slot exposed by the carry must not be leapfrogged"
        );
    }

    #[test]
    fn carry_into_new_window_promotes_overflow() {
        let tick = 1u64 << DEFAULT_TICK_SHIFT;
        let window_ns = 1u64 << (DEFAULT_TICK_SHIFT + SLOT_BITS * LEVELS);
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        // Last tick of window 0: popping it carries the horizon's
        // top-level prefix into window 1.
        w.push(ev(window_ns - tick, 0));
        // Early in window 1: overflow at insert time.
        w.push(ev(window_ns + 10 * tick, 1));
        assert_eq!(w.pop().unwrap().seq, 0);
        // Post-carry insert, later than the parked overflow event but
        // filed straight into a wheel level.
        w.push(ev(window_ns + 20 * tick, 2));
        assert_eq!(
            drain(&mut w),
            vec![(window_ns + 10 * tick, 1), (window_ns + 20 * tick, 2)],
            "overflow events in the window the carry exposed must pop first"
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn overflow_window_promotion_is_ordered() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        let window_ns = 1u64 << (DEFAULT_TICK_SHIFT + SLOT_BITS * LEVELS);
        w.push(ev(3 * window_ns + 7, 0));
        w.push(ev(window_ns + 1, 1));
        w.push(ev(5, 2));
        assert_eq!(
            drain(&mut w),
            vec![(5, 2), (window_ns + 1, 1), (3 * window_ns + 7, 0)]
        );
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        for seq in 0..100u64 {
            w.push(ev(seq * 9973 % 50_000, seq));
        }
        while let Some(t) = w.peek_time() {
            assert_eq!(w.peek_time(), Some(t));
            assert_eq!(w.pop().unwrap().time, t);
        }
        assert_eq!(w.len(), 0);
    }

    /// What an empty wheel retains is bounded by construction, not by
    /// the workload: after each round of 125k events whose deltas span
    /// every level plus overflow (the deltas under one tick alone put
    /// ~25k events of a round into one slot), only level-0 slots hold
    /// capacity and none more than `LEVEL0_RETAIN` events. Retaining in
    /// place, or recycling the upper levels' buffers into level 0, leaves
    /// buffers the size of the densest tick behind and fails this by
    /// orders of magnitude.
    #[test]
    fn retained_slot_capacity_is_bounded() {
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        let mut rng = crate::rng::Rng::seed_from_u64(0x77ee_1b0a);
        let (mut clock, mut seq) = (0u64, 0u64);
        for _round in 0..8 {
            for i in 0..125_000u64 {
                let delta = if i % 64 == 63 {
                    1u64 << (41 + rng.gen_below(4))
                } else {
                    1u64 << rng.gen_below(40)
                };
                w.push(ev(clock + delta, seq));
                seq += 1;
            }
            while let Some(e) = w.pop() {
                clock = e.time.as_nanos();
            }
            w.audit();
            for (i, slot) in w.slots.iter().enumerate() {
                let bound = if i < SLOTS { LEVEL0_RETAIN } else { 0 };
                assert!(
                    slot.capacity() <= bound,
                    "empty slot {i} retains room for {} events",
                    slot.capacity()
                );
            }
        }
        assert_eq!(seq, 1_000_000);
    }
}
