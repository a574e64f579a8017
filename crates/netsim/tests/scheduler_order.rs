//! Property test: the scheduler's `(time, seq)` ordering is total and
//! deterministic. Events scheduled at the same instant must pop in the
//! exact order they were scheduled, regardless of how many pile up —
//! this is the tie-break every deterministic-replay guarantee rests on.

use netsim::engine::{EngineKind, Scheduler};
use netsim::event::EventKind;
use netsim::ids::{FlowId, NodeId};
use netsim::rng::Rng;
use netsim::time::{SimDuration, SimTime};

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

/// 10k events at one instant pop in scheduling order (FIFO among ties).
#[test]
fn ten_thousand_ties_pop_in_scheduling_order() {
    let mut sched = Scheduler::new();
    let t = SimTime::from_micros(5);
    const N: u64 = 10_000;
    for i in 0..N {
        // Encode the scheduling order in both the target and the token so
        // the pop side recovers it from the event alone.
        sched.schedule_at(t, NodeId(i as u32), timer(i));
    }
    let mut popped = 0u64;
    while let Some((target, kind)) = sched.pop() {
        assert_eq!(sched.now(), t);
        assert_eq!(target, NodeId(popped as u32), "tie broke out of order");
        assert_eq!(token_of(&kind), popped);
        popped += 1;
    }
    assert_eq!(popped, N);
}

/// Mixed times + ties: pops are sorted by time, and within a time the
/// relative scheduling order is preserved. The interleaving pattern is a
/// fixed stride so the test is deterministic without any RNG dependency.
#[test]
fn ordering_is_total_across_times_and_ties() {
    let mut sched = Scheduler::new();
    // 1000 events over 10 distinct instants, scheduled in a scrambled
    // but deterministic order (stride 7 visits every residue mod 1000).
    let mut schedule_order = Vec::new();
    let mut k = 0u64;
    for _ in 0..1000 {
        k = (k + 7) % 1000;
        let time = SimTime::from_micros(k % 10);
        sched.schedule_at(time, NodeId(0), timer(k));
        schedule_order.push((time, k));
    }
    // Expected pop order: stable sort by time (stable = preserves
    // scheduling order among equal times).
    let mut expected = schedule_order.clone();
    expected.sort_by_key(|&(time, _)| time);

    let mut got = Vec::new();
    while let Some((_, kind)) = sched.pop() {
        got.push((sched.now(), token_of(&kind)));
    }
    assert_eq!(got, expected, "pop order is not the stable time-sort");
}

/// Drive the heap and wheel engines through one identical randomized op
/// stream, asserting identical pop sequences and clocks after every op.
///
/// The op mix covers everything the wheel handles specially: same-instant
/// ties, near-future events spread across every wheel level, far-future
/// timers that land in the overflow heap (hours to years out), bursts
/// with consecutive sequence numbers, and schedule-during-pop (new events
/// posted at the instant the clock just reached, below the wheel's served
/// horizon).
fn differential_run(seed: u64, ops: usize) {
    let mut heap = Scheduler::with_engine(EngineKind::Heap);
    let mut wheel = Scheduler::with_engine(EngineKind::Wheel);
    let mut rng = Rng::seed_from_u64(seed);
    let mut next_token = 0u64;
    let mut pending = 0usize;
    let mut tie_time = SimTime::ZERO;
    for _ in 0..ops {
        match rng.gen_below(10) {
            // Near-future: deltas spanning ns to ~18 min so inserts hit
            // every wheel level (tick 256 ns, four 256-slot levels) AND
            // straddle the 2^40 ns top-level window boundary — deltas at
            // 2^38..2^40 routinely land in the next window while the
            // wheel levels are busy, so horizon carries cross windows
            // with events parked in overflow.
            0..=3 => {
                let delta = SimDuration::from_nanos(1u64 << rng.gen_below(41));
                let at = heap.now() + delta;
                let tok = next_token;
                next_token += 1;
                heap.schedule_at(at, NodeId((tok % 97) as u32), timer(tok));
                wheel.schedule_at(at, NodeId((tok % 97) as u32), timer(tok));
                if tok.is_multiple_of(3) {
                    tie_time = at; // revisit this instant for a tie later
                }
                pending += 1;
            }
            // Same-instant tie on a previously used future timestamp.
            4 => {
                if tie_time >= heap.now() {
                    let tok = next_token;
                    next_token += 1;
                    heap.schedule_at(tie_time, NodeId(7), timer(tok));
                    wheel.schedule_at(tie_time, NodeId(7), timer(tok));
                    pending += 1;
                }
            }
            // Far future: force the wheel's overflow heap (> ~18 min).
            5 => {
                let delta = SimDuration::from_nanos(1u64 << (41 + rng.gen_below(8)));
                let at = heap.now() + delta;
                let tok = next_token;
                next_token += 1;
                heap.schedule_at(at, NodeId(0), timer(tok));
                wheel.schedule_at(at, NodeId(0), timer(tok));
                pending += 1;
            }
            // Burst with consecutive seqs and internal ties.
            6 => {
                let n = rng.gen_below(8) + 2;
                let base = heap.now() + SimDuration::from_nanos(rng.gen_below(1 << 20));
                for i in 0..n {
                    let at = base + SimDuration::from_nanos(i / 2);
                    heap.schedule_at(at, NodeId(1), timer(next_token + i));
                    wheel.schedule_at(at, NodeId(1), timer(next_token + i));
                }
                next_token += n;
                pending += n as usize;
            }
            // Pop, then sometimes schedule at the just-reached instant
            // (schedule-during-pop: lands below the wheel's horizon).
            _ => {
                assert_eq!(heap.next_event_time(), wheel.next_event_time());
                let (h, w) = (heap.pop(), wheel.pop());
                match (h, w) {
                    (None, None) => assert_eq!(pending, 0),
                    (Some((hn, hk)), Some((wn, wk))) => {
                        pending -= 1;
                        assert_eq!(heap.now(), wheel.now(), "clocks diverged");
                        assert_eq!(hn, wn, "targets diverged at {}", heap.now());
                        assert_eq!(token_of(&hk), token_of(&wk), "tokens diverged");
                        if rng.gen_below(4) == 0 {
                            let tok = next_token;
                            next_token += 1;
                            heap.schedule_at(heap.now(), hn, timer(tok));
                            wheel.schedule_at(wheel.now(), wn, timer(tok));
                            pending += 1;
                        }
                    }
                    (x, y) => panic!("engines diverged: {x:?} vs {y:?}"),
                }
            }
        }
    }
    // Drain both to the end: every remaining event must match too.
    loop {
        assert_eq!(heap.next_event_time(), wheel.next_event_time());
        match (heap.pop(), wheel.pop()) {
            (None, None) => break,
            (Some((hn, hk)), Some((wn, wk))) => {
                assert_eq!(heap.now(), wheel.now());
                assert_eq!((hn, token_of(&hk)), (wn, token_of(&wk)));
            }
            (x, y) => panic!("engines diverged in drain: {x:?} vs {y:?}"),
        }
    }
}

/// The differential property test the wheel engine's correctness rests
/// on: 12k randomized ops per seed, eight seeds.
#[test]
fn wheel_and_heap_engines_pop_identically() {
    for seed in 0..8u64 {
        differential_run(0x5eed_0000 + seed, 12_000);
    }
}

/// A level-0 carry that rolls the wheel's horizon into a new top-level
/// window (~18 min out at the default 256 ns tick) must promote overflow
/// events already inside that window before anything else is served.
/// Regression test: the stranded overflow event used to be leapfrogged by
/// post-carry inserts and then trip the backwards-clock assert on its
/// eventual promotion.
#[test]
fn window_crossing_carry_promotes_overflow_events() {
    let mut heap = Scheduler::with_engine(EngineKind::Heap);
    let mut wheel = Scheduler::with_engine(EngineKind::Wheel);
    // Top-level window span at the default 256 ns tick: 2^40 ns.
    let window_ns = 1u64 << 40;
    let schedule_both = |heap: &mut Scheduler, wheel: &mut Scheduler, at_ns: u64, tok: u64| {
        let at = SimTime::from_nanos(at_ns);
        heap.schedule_at(at, NodeId(0), timer(tok));
        wheel.schedule_at(at, NodeId(0), timer(tok));
    };
    let pop_both = |heap: &mut Scheduler, wheel: &mut Scheduler| {
        let pair = (heap.pop(), wheel.pop());
        assert_eq!(heap.now(), wheel.now(), "clocks diverged");
        match pair {
            (Some((hn, hk)), Some((wn, wk))) => {
                assert_eq!((hn, token_of(&hk)), (wn, token_of(&wk)));
                Some(token_of(&hk))
            }
            (None, None) => None,
            (x, y) => panic!("engines diverged: {x:?} vs {y:?}"),
        }
    };
    // Last tick of window 0: popping it carries the wheel's horizon
    // prefix into window 1.
    schedule_both(&mut heap, &mut wheel, window_ns - 1, 0);
    // Early in window 1: lands in the wheel's overflow heap.
    schedule_both(&mut heap, &mut wheel, window_ns + 1_000, 1);
    assert_eq!(pop_both(&mut heap, &mut wheel), Some(0));
    // Post-carry inserts: one later than the parked overflow event, one
    // tying its instant (the tie must still break on scheduling order).
    schedule_both(&mut heap, &mut wheel, window_ns + 5_000, 2);
    schedule_both(&mut heap, &mut wheel, window_ns + 1_000, 3);
    let mut order = Vec::new();
    while let Some(tok) = pop_both(&mut heap, &mut wheel) {
        order.push(tok);
    }
    assert_eq!(order, vec![1, 3, 2], "carry stranded an overflow event");
}

/// Dense ties at one far-future instant cross the overflow promotion and
/// every cascade level in one hop, and must still pop FIFO.
#[test]
fn far_future_ties_survive_overflow_promotion() {
    let mut wheel = Scheduler::with_engine(EngineKind::Wheel);
    let far = SimTime::from_secs(86_400); // a day out: overflow range
    for tok in 0..1000u64 {
        wheel.schedule_at(far, NodeId(0), timer(tok));
    }
    // One even-farther event to keep the overflow heap non-empty across
    // the promotion.
    wheel.schedule_at(SimTime::from_secs(365 * 86_400), NodeId(1), timer(1000));
    for tok in 0..1000u64 {
        let (_, kind) = wheel.pop().expect("event present");
        assert_eq!(wheel.now(), far);
        assert_eq!(token_of(&kind), tok, "far-future ties broke FIFO");
    }
    let (n, kind) = wheel.pop().expect("year-out timer survives");
    assert_eq!((n, token_of(&kind)), (NodeId(1), 1000));
    assert!(wheel.pop().is_none());
}
