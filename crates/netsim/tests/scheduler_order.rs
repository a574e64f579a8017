//! Property test: the scheduler's `(time, seq)` ordering is total and
//! deterministic. Events scheduled at the same instant must pop in the
//! exact order they were scheduled, regardless of how many pile up —
//! this is the tie-break every deterministic-replay guarantee rests on.

use netsim::engine::{EngineKind, Scheduler};
use netsim::event::EventKind;
use netsim::ids::{FlowId, NodeId};
use netsim::time::SimTime;

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
