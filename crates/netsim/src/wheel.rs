//! Hierarchical timing wheel: the O(1)-amortized event queue behind
//! [`crate::engine::Scheduler`]'s wheel engine.
//!
//! # Layout
//!
//! Timestamps are bucketed into *ticks* of `1 << tick_shift` nanoseconds
//! (256 ns by default). The wheel has a *horizon* `H`, a tick that only
//! advances, and files an event by where its tick lies relative to it:
//!
//! - `tick < H` — the tick has already been served: `ready`, one run
//!   sorted descending by `(time, seq)` and popped from the back. An
//!   event that would have to be inserted more than `NEAR_INSERT` places
//!   from the back goes to the `late` min-heap instead; a pop takes the
//!   earlier of the two heads.
//! - `tick - H < 256` — level 0, slot `tick & 255`. Level 0 is a *sliding*
//!   window: it takes the next 256 ticks whichever side of the aligned
//!   256-tick boundary they fall on, so slots at or after `digit_0(H)`
//!   belong to `H`'s aligned block and slots before it to the next one.
//! - further out — level `l` in `1..4`, the highest base-256 digit in
//!   which the tick differs from `H`, slot = that digit of the tick. The
//!   four levels cover `2^32` ticks (~18 minutes at the default tick).
//! - differing from `H` above the top level — the `overflow` min-heap.
//!
//! # Invariants
//!
//! - Every event in `ready` or `late` has `tick < H` and every other
//!   stored event has `tick >= H`, so while either of the two holds
//!   anything, the earlier of their heads is the global minimum.
//! - A level-0 slot holds the events of exactly one tick: the only tick
//!   of `[H, H + 256)` congruent to its index. The horizon passes a slot
//!   only when it is empty or by pouring it into `ready`.
//! - An event at level `l >= 1`, slot `d`, shares all digits above `l`
//!   with `H` and has digit `l` equal to `d`, different from `H`'s: it
//!   lies in a later aligned block than `H` does. Slot `(l, digit_l(H))`
//!   is empty for every `l >= 1`, because whenever the horizon enters a
//!   new aligned block — a pour of slot 255, or a step to the boundary —
//!   [`TimingWheel::enter_block`] re-files the slots the new horizon
//!   points at before anything else is served. Overflow events differ
//!   from `H` above the top level; the same call promotes those the new
//!   horizon's top-level window now contains.
//! - Serving order. Level-0 slots from `digit_0(H)` to 255 hold what is
//!   left of `H`'s block and come first. When that scan finds nothing,
//!   the next block's events may sit both in level-0 slots *before*
//!   `digit_0(H)` (filed through the sliding window) and in the level-1
//!   slot after `digit_1(H)` (filed while still more than 256 ticks out):
//!   the horizon steps to the boundary, which merges the two at level 0,
//!   and the scan starts over from slot 0. Only with level 0 empty does
//!   the horizon jump, to the first occupied slot of the lowest occupied
//!   level (higher levels differ from `H` in a higher digit, which puts
//!   them strictly later), and only with all levels empty to the window
//!   of the earliest overflow event.
//!
//! A slot holds every event of one tick, possibly many distinct
//! nanosecond timestamps, in the order they were filed; pouring sorts
//! them where they lie, which establishes the exact `(time, seq)` order.
//! The pop sequence is therefore *identical* to the binary heap's — the
//! differential test in `engine::tests` (which also runs this module's
//! structural `audit` after every operation) and the dual-engine
//! chaos pass in `scripts/ci.sh` hold the two engines to byte-equality.
//!
//! # Cost
//!
//! An event is filed twice only if it was more than 256 ticks (65 µs)
//! out when scheduled: with an aligned level 0, a 25 µs link delay that
//! crossed the block boundary went to level 1 and was re-filed at the
//! carry, 21 % of all pushes on the 160-host fabric
//! ([`WheelStats::refiled`] counts them).
//!
//! A poured tick holds 3 to 4 events on the 160-host fabric and 127 on
//! the 1024-host fat-tree. Sorting the slot's buffer in place and popping
//! from its back costs a short insertion sort for the first, one
//! `sort_unstable` for the second, and nothing per pop; a binary heap
//! paid a heapify per pour and a sift per pop. A counting pass over the
//! nanosecond-within-tick bits ahead of the comparison sort was tried
//! for dense ticks (32 events and up) and not kept: replaying the
//! fat-tree's op stream it took the queue from 72 to 64 ns per event,
//! 2 % of that workload's 375 ns, for 40 lines and a scratch buffer.
//!
//! Each level keeps a 256-bit map of its non-empty slots, so finding the
//! next occupied slot is a few `trailing_zeros` instead of a scan over
//! `Vec` headers.
//!
//! # Memory
//!
//! Level 0 recycles its buffers. `ready` is empty whenever a level-0
//! slot is poured, so the two trade buffers: the slot's `Vec` becomes the
//! sorted run in place (no copy) and the slot receives the run's
//! previous, now empty, buffer for its next tick. In the steady state of
//! a run (a handful of events per tick, the same 256 slots revisited
//! every 65 µs) a push therefore never reaches the allocator. A buffer
//! larger than `LEVEL0_RETAIN` events is not handed on but freed: for
//! dense ticks the allocator's most recently freed block is the warmest
//! memory there is, and retention would hold 256 buffers the size of the
//! densest tick ever seen.
//!
//! Slots at levels >= 1 always give their buffer back when they are
//! redistributed: one of them can hold a whole RTO horizon's worth of
//! timers, is visited once per 17 ms or more, and retaining (or
//! recycling) buffers of that size costs far more resident memory than
//! the malloc it saves.

use std::collections::BinaryHeap;

use crate::engine::WheelStats;
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
/// Most events an insert into `ready` may shift; one that belongs further
/// from the back goes to `late`. A handler scheduling into the tick being
/// served nearly always lands within a few places of the back (the
/// instant being handled, or one 32 ns ACK serialisation later), and
/// without the bound a dense tick whose handlers all schedule to its far
/// end would shift the whole run once per event.
const NEAR_INSERT: usize = 32;

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
    /// Events with `tick < horizon`, sorted descending by `(time, seq)`:
    /// the back is the next to pop.
    ready: Vec<ScheduledEvent>,
    /// Events with `tick < horizon` filed too far from `ready`'s back to
    /// insert there (min-heap via `ScheduledEvent`'s reversed `Ord`).
    late: BinaryHeap<ScheduledEvent>,
    /// Events too far in the future for any wheel level.
    overflow: BinaryHeap<ScheduledEvent>,
    /// Wheel origin, in ticks. Only ever advances.
    horizon: u64,
    len: usize,
    stats: WheelStats,
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
            ready: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            horizon: 0,
            len: 0,
            stats: WheelStats::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn stats(&self) -> WheelStats {
        self.stats
    }

    fn tick_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.tick_shift
    }

    fn digit(tick: u64, level: u32) -> usize {
        ((tick >> (SLOT_BITS * level)) & DIGIT_MASK) as usize
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: ScheduledEvent) {
        self.len += 1;
        self.insert(ev);
    }

    /// File `ev` where its tick calls for (module docs, "Layout"),
    /// without touching `len` — also used to re-file events when a slot
    /// is redistributed.
    #[inline]
    fn insert(&mut self, ev: ScheduledEvent) {
        let tick = self.tick_of(ev.time);
        // Wraps to a huge distance when the tick is below the horizon.
        if tick.wrapping_sub(self.horizon) < SLOTS as u64 {
            self.file(0, Self::digit(tick, 0), ev);
        } else {
            self.insert_outside_level0(tick, ev);
        }
    }

    /// Inlined so a push writes the event once, straight into the slot's
    /// buffer, instead of spilling it to the stack for an out-of-line call
    /// to reload (DESIGN §8, "the event's own move").
    #[inline(always)]
    fn file(&mut self, level: u32, d: usize, ev: ScheduledEvent) {
        self.slots[level as usize * SLOTS + d].push(ev);
        self.occupancy[level as usize] += 1;
        self.occupied[level as usize][d / 64] |= 1 << (d % 64);
    }

    /// [`TimingWheel::insert`] for a tick outside level 0's window:
    /// already served, at a higher level, or beyond the wheel.
    #[inline(never)]
    fn insert_outside_level0(&mut self, tick: u64, ev: ScheduledEvent) {
        if tick < self.horizon {
            // E.g. scheduled for "now" mid-pop.
            self.stats.filed_below_horizon += 1;
            return self.insert_served(ev);
        }
        let level = (63 - (tick ^ self.horizon).leading_zeros()) / SLOT_BITS;
        if level < LEVELS {
            self.file(level, Self::digit(tick, level), ev);
        } else {
            self.overflow.push(ev);
        }
    }

    /// File an event whose tick is below the horizon: into its place in
    /// `ready` if that is within `NEAR_INSERT` of the back, else `late`.
    fn insert_served(&mut self, ev: ScheduledEvent) {
        let near = self.ready.len().saturating_sub(NEAR_INSERT);
        let at = match self.ready[near..].iter().rposition(|e| e.key() > ev.key()) {
            Some(i) => near + i + 1,
            None if near == 0 => 0,
            None => return self.late.push(ev),
        };
        self.ready.insert(at, ev);
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

    /// Empty slot `(level, d)`, `level >= 1`, and file its events again
    /// against the current horizon, giving up the slot's buffer.
    fn refile_slot(&mut self, level: u32, d: usize) {
        let drained = std::mem::take(&mut self.slots[level as usize * SLOTS + d]);
        self.mark_emptied(level, d, drained.len());
        self.stats.refiled += drained.len() as u64;
        for ev in drained {
            self.insert(ev);
        }
    }

    /// Pop the earliest event (by `(time, seq)`) unless it is later than
    /// `limit`, in which case it stays queued. `None` either way when
    /// nothing is due; [`TimingWheel::len`] tells the two apart.
    #[inline]
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
        loop {
            if !self.late.is_empty() {
                return self.pop_merged(limit);
            }
            if let Some(next) = self.ready.last() {
                if next.time > limit {
                    return None;
                }
                self.len -= 1;
                return self.ready.pop();
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// [`TimingWheel::pop_due`] while `late` holds events: the earlier
    /// of its head and `ready`'s back.
    #[cold]
    fn pop_merged(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
        let head = self.late.peek().expect("called with late events");
        let (next, from_ready) = match self.ready.last() {
            Some(back) if back.key() < head.key() => (back, true),
            _ => (head, false),
        };
        if next.time > limit {
            return None;
        }
        self.len -= 1;
        if from_ready {
            self.ready.pop()
        } else {
            self.late.pop()
        }
    }

    /// Timestamp of the earliest event without removing it. `&mut`
    /// because it may advance the horizon to pour the next slot into
    /// `ready`; amortized O(1) like [`TimingWheel::pop_due`].
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && self.late.is_empty() && !self.refill() {
            return None;
        }
        let ready = self.ready.last().map(|e| e.time);
        let late = self.late.peek().map(|e| e.time);
        ready.into_iter().chain(late).min()
    }

    /// Every pending event, in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ScheduledEvent> {
        self.ready
            .iter()
            .chain(self.late.iter())
            .chain(self.slots.iter().flatten())
            .chain(self.overflow.iter())
    }

    /// Advance the horizon past the earliest pending tick and pour that
    /// tick's slot into `ready`, which is empty (as is `late`). Returns
    /// `false` iff the wheel (slots and overflow both) is empty.
    fn refill(&mut self) -> bool {
        loop {
            if self.occupancy[0] > 0 {
                let block = self.horizon & !DIGIT_MASK;
                let Some(d) = self.first_occupied(0, Self::digit(self.horizon, 0)) else {
                    // What level 0 holds lies past the aligned boundary;
                    // so may a level-1 slot. Merge them, then scan on.
                    self.horizon = block + SLOTS as u64;
                    self.enter_block();
                    continue;
                };
                self.pour(d);
                // The skipped slots were empty, so nothing pending
                // lives below the new horizon.
                self.horizon = block + d as u64 + 1;
                if d + 1 == SLOTS {
                    self.enter_block();
                }
                return true;
            }
            // Level 0 is dry: enter the first occupied slot of the lowest
            // occupied level and redistribute it downward.
            if let Some(level) = (1..LEVELS).find(|&l| self.occupancy[l as usize] > 0) {
                let start = Self::digit(self.horizon, level);
                let d = self
                    .first_occupied(level, start)
                    .expect("level occupancy is nonzero but no slot bit is set");
                if d > start {
                    // Jump the horizon to the start of the slot's window:
                    // digit `level` becomes `d`, lower digits zero. The
                    // levels below are empty and slots between `start`
                    // and `d` are empty, so nothing is skipped.
                    let span = SLOT_BITS * level;
                    let kept = self.horizon >> (span + SLOT_BITS) << (span + SLOT_BITS);
                    self.horizon = kept | ((d as u64) << span);
                }
                self.refile_slot(level, d);
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

    /// Turn level-0 slot `d` into `ready`, sorted. `ready` is empty, so
    /// the two trade buffers: the slot's events are sorted where they
    /// lie, and the slot gets `ready`'s old buffer, empty, for its next
    /// tick. Nothing is copied and, while ticks stay sparse, nothing
    /// reaches the allocator.
    fn pour(&mut self, d: usize) {
        assert!(self.ready.is_empty(), "pouring into a non-empty ready run");
        let slot = &mut self.slots[d];
        std::mem::swap(&mut self.ready, slot);
        if slot.capacity() > LEVEL0_RETAIN {
            *slot = Vec::new();
        }
        let n = self.ready.len();
        self.mark_emptied(0, d, n);
        self.stats.pours += 1;
        self.stats.max_pour = self.stats.max_pour.max(n as u64);
        // `ScheduledEvent`'s `Ord` is reversed: ascending by it is
        // descending by `(time, seq)`.
        self.ready.sort_unstable();
    }

    /// The horizon has entered a new aligned 256-tick block: re-file
    /// every slot it now points at, top level first so events step down
    /// one level at a time, then every overflow event inside its
    /// top-level window. Restores the "slot `(l, digit_l(H))` is empty"
    /// and "overflow differs from `H` above the top level" invariants
    /// before anything else is served, or a later insert into a low level
    /// could leapfrog the events parked there.
    fn enter_block(&mut self) {
        for level in (1..LEVELS).rev() {
            let d = Self::digit(self.horizon, level);
            if self.occupied[level as usize][d / 64] & (1 << (d % 64)) != 0 {
                self.refile_slot(level, d);
            }
        }
        self.promote_overflow_window();
    }

    /// File every overflow event living in the horizon's top-level window
    /// into the wheel. No-op while the earliest overflow event sits in a
    /// later window, which is always the case unless the horizon's window
    /// prefix just changed.
    fn promote_overflow_window(&mut self) {
        let window = SLOT_BITS * LEVELS;
        let prefix = self.horizon >> window;
        while let Some(ev) = self.overflow.peek() {
            if self.tick_of(ev.time) >> window != prefix {
                break;
            }
            let ev = self.overflow.pop().expect("peeked event vanished");
            self.stats.overflow_promoted += 1;
            self.insert(ev);
        }
    }
}

#[cfg(test)]
impl TimingWheel {
    fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_due(SimTime::MAX)
    }

    pub(crate) fn late_len(&self) -> usize {
        self.late.len()
    }

    /// Structural audit of the bookkeeping the fast paths trust and of
    /// the module's invariants: a level's bit `d` is set iff its slot `d`
    /// is non-empty, `occupancy[l]` is the number of events stored at
    /// level `l`, `len` counts every stored event exactly once, `ready`
    /// is sorted, and every event sits where the horizon says it may.
    pub(crate) fn audit(&self) {
        let h = self.horizon;
        let mut stored = 0;
        for level in 0..LEVELS {
            let mut at_level = 0;
            for d in 0..SLOTS {
                let slot = &self.slots[level as usize * SLOTS + d];
                let bit = self.occupied[level as usize][d / 64] >> (d % 64) & 1 == 1;
                assert_eq!(
                    bit,
                    !slot.is_empty(),
                    "level {level} slot {d}: bit {bit}, {} events",
                    slot.len()
                );
                for e in slot {
                    let tick = self.tick_of(e.time);
                    assert_eq!(Self::digit(tick, level), d, "level {level} slot {d}");
                    if level == 0 {
                        assert!(
                            tick >= h && tick - h < SLOTS as u64,
                            "level-0 tick {tick}, H {h}"
                        );
                    } else {
                        let above = SLOT_BITS * (level + 1);
                        assert_eq!(tick >> above, h >> above, "level {level} slot {d}");
                        assert!(
                            tick > h && d != Self::digit(h, level),
                            "level {level} slot {d}"
                        );
                    }
                }
                at_level += slot.len();
            }
            assert_eq!(
                self.occupancy[level as usize], at_level,
                "level {level} occupancy"
            );
            stored += at_level;
        }
        assert!(
            self.ready.windows(2).all(|w| w[0].key() > w[1].key()),
            "ready is not sorted descending"
        );
        for e in self.ready.iter().chain(self.late.iter()) {
            assert!(self.tick_of(e.time) < h, "served event at or past H {h}");
        }
        let window = SLOT_BITS * LEVELS;
        for e in self.overflow.iter() {
            assert!(self.tick_of(e.time) >> window > h >> window, "overflow");
        }
        assert_eq!(
            self.len,
            self.ready.len() + self.late.len() + stored + self.overflow.len(),
            "len desynced from ready + late + slots + overflow"
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

    /// Level 0 slides: ten ticks ahead is level 0 even across the aligned
    /// boundary, and still pops *after* an older event parked in the
    /// level-1 slot that boundary exposes.
    #[test]
    fn level0_window_slides_across_the_aligned_boundary() {
        let tick = 1u64 << DEFAULT_TICK_SHIFT;
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        w.push(ev(257 * tick + 9, 0)); // 257 ticks out: level 1, slot 1
        w.push(ev(249 * tick, 1));
        assert_eq!(w.pop().unwrap().seq, 1);
        assert_eq!(w.horizon, 250);
        w.push(ev(260 * tick, 2)); // 10 ticks out, past the boundary
        w.audit();
        assert_eq!(w.slots[260 & 255].len(), 1, "filed at level 0");
        assert_eq!(w.slots[SLOTS + 1].len(), 1, "parked at level 1");
        assert_eq!(
            drain(&mut w),
            vec![(257 * tick + 9, 0), (260 * tick, 2)],
            "the boundary's level-1 slot must merge before level 0 is served"
        );
        // Only the event scheduled more than 256 ticks out was filed twice.
        assert_eq!(w.stats().refiled, 1);
    }

    /// A dense tick whose slot was filed out of sequence order — events
    /// pushed straight to level 0, then older ones cascading in from
    /// level 1, then a reserved (older still) number — pops in exact
    /// `(time, seq)` order.
    #[test]
    fn dense_pour_out_of_push_order_pops_in_exact_order() {
        let tick = 1u64 << DEFAULT_TICK_SHIFT;
        let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
        let mut rng = crate::rng::Rng::seed_from_u64(0xd15_0bde);
        let mut want = Vec::new();
        let mut fill = |w: &mut TimingWheel, seqs: std::ops::Range<u64>| {
            for seq in seqs {
                // An 8 ns grid: plenty of equal timestamps.
                let t = 300 * tick + 8 * rng.gen_below(32);
                w.push(ev(t, seq));
                want.push((t, seq));
            }
        };
        fill(&mut w, 100..160); // 300 ticks out: level 1
        w.push(ev(99 * tick, 0));
        assert_eq!(w.pop().unwrap().seq, 0);
        fill(&mut w, 160..220); // 200 ticks out: level 0, same tick
        fill(&mut w, 40..45); // reserved early, filed last
        assert_eq!(w.slots[300 & 255].len(), 65);
        want.sort();
        assert_eq!(drain(&mut w), want);
        assert_eq!(w.stats().max_pour, 125);
    }

    /// Scheduling into the tick being served never shifts more than
    /// `NEAR_INSERT` events, wherever in the tick it lands: 10^4 events
    /// in one tick, each of whose handlers schedules one more at the far
    /// end of it, would otherwise move the whole run once per event
    /// (5 * 10^7 moves). Counted in element moves, not by the clock.
    #[test]
    fn scheduling_into_a_dense_tick_is_not_quadratic() {
        let n = 10_000u64;
        let tick = 1u64 << DEFAULT_TICK_SHIFT;
        for far_end in [true, false] {
            let mut w = TimingWheel::new(DEFAULT_TICK_SHIFT);
            for seq in 0..n {
                w.push(ev(5 * tick + seq % 250, seq));
            }
            let (mut popped, mut last) = (0, (0, 0));
            while let Some(e) = w.pop() {
                assert!(last < (e.time.as_nanos(), e.seq), "out of order");
                last = (e.time.as_nanos(), e.seq);
                popped += 1;
                if e.seq >= n {
                    continue;
                }
                let at = if far_end {
                    5 * tick + 255
                } else {
                    e.time.as_nanos()
                };
                let late_before = w.late.len();
                w.push(ev(at, n + e.seq));
                if w.late.len() == late_before {
                    let i = w.ready.iter().rposition(|r| r.seq == n + e.seq);
                    let moved = w.ready.len() - 1 - i.expect("filed into ready");
                    assert!(moved <= NEAR_INSERT, "one insert shifted {moved} events");
                }
            }
            w.audit();
            assert_eq!(popped, 2 * n);
            assert_eq!(w.stats().filed_below_horizon, n);
        }
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
