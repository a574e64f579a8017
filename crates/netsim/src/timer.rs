//! A re-armable one-shot timer that keeps one event in the queue.
//!
//! The scheduler has no cancel, so the agents' idiom for a timer that is
//! pushed back before it fires — an RTO re-armed by every ACK — is an
//! epoch token: each arm queues a fresh [`EventKind::AgentTimer`] and the
//! handler ignores every token but the newest. The ignored events still
//! travel the wheel and pop: one per data packet, parked a whole RTO out.
//!
//! [`SupersedingTimer`] keeps the idiom and drops the events. Each
//! [`arm`](SupersedingTimer::arm) takes its sequence number immediately
//! ([`Scheduler::reserve_seq`](crate::engine::Scheduler::reserve_seq)),
//! exactly where `set_timer` would, but queues an event only if none is
//! queued that fires at or before the new deadline; otherwise it just
//! remembers `(deadline, seq, token)`. When the queued event (the
//! *carrier*) pops, [`fired`](SupersedingTimer::fired) files the newest
//! remembered arm at its own deadline under its own reserved number.
//!
//! # Why no trace byte moves
//!
//! Every arm supersedes all earlier ones, so of the events the eager
//! idiom queues only the newest can find its token current; the rest run
//! a handler that returns at the token check, schedules nothing and
//! touches no state. Dropping those is unobservable. The newest arm is
//! always materialised before the queue reaches its position — the
//! carrier's `(deadline, seq)` is never after it — and fires at the
//! `(time, seq)` it was given when armed. No other event's number changes
//! either, because an arm consumes one number whether or not it queues.
//! The pop order of every event that does anything is therefore the eager
//! order; only `events_executed` and `peak_pending` fall.
//!
//! The owner's contract: tokens of successive arms are distinct; a new arm
//! makes every earlier token stale to the handler; and every popped timer
//! event whose token may belong to this timer is reported to
//! [`fired`](SupersedingTimer::fired) *before* the handler's own token
//! check (a stale carrier is still the one that has to hand over).

use crate::engine::Ctx;
use crate::event::EventKind;
use crate::ids::FlowId;
use crate::time::{SimDuration, SimTime};

/// One `arm` call: where its event belongs in the queue, and its token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arm {
    at: SimTime,
    seq: u64,
    token: u64,
}

/// See the module docs. Owned by a flow agent, one per superseding timer.
#[derive(Debug)]
pub struct SupersedingTimer {
    flow: FlowId,
    /// The arm whose event is queued and will report back through
    /// [`SupersedingTimer::fired`]. Never later than `latest`.
    carrier: Option<Arm>,
    /// The newest arm, while it is still armed and has no event of its
    /// own.
    latest: Option<Arm>,
}

impl SupersedingTimer {
    /// A disarmed timer delivering to `flow`'s agent on the arming node.
    pub fn new(flow: FlowId) -> SupersedingTimer {
        SupersedingTimer {
            flow,
            carrier: None,
            latest: None,
        }
    }

    /// Arrange for the agent's `on_timer(token)` after `delay`,
    /// superseding every earlier arm.
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration, token: u64) {
        let arm = Arm {
            at: ctx.now() + delay,
            seq: ctx.sched.reserve_seq(),
            token,
        };
        match self.carrier {
            Some(carrier) if carrier.at <= arm.at => {
                self.latest = Some(arm);
                ctx.stats.timer_arms_superseded += 1;
            }
            // Nothing queued, or a deadline ahead of the carrier's (a
            // shrinking RTO): queue it. A displaced carrier stays queued
            // and pops stale, as it would have anyway.
            _ => {
                self.queue(ctx, arm);
                self.latest = None;
            }
        }
    }

    /// Forget the armed deadline: the handler will treat the newest token
    /// as stale from now on, so there is no point materialising it.
    pub fn disarm(&mut self) {
        self.latest = None;
    }

    /// A timer event carrying `token` popped. If it was the carrier, the
    /// newest arm (if any is waiting) takes its place in the queue.
    pub fn fired(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.carrier.map(|c| c.token) != Some(token) {
            return;
        }
        self.carrier = None;
        if let Some(next) = self.latest.take() {
            self.queue(ctx, next);
        }
    }

    fn queue(&mut self, ctx: &mut Ctx<'_>, arm: Arm) {
        let kind = EventKind::AgentTimer {
            flow: self.flow,
            token: arm.token,
        };
        ctx.sched.schedule_reserved(arm.at, arm.seq, ctx.node, kind);
        self.carrier = Some(arm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheduler;
    use crate::ids::NodeId;
    use crate::rng::Rng;
    use crate::stats::StatsCollector;

    const NODE: NodeId = NodeId(3);
    const FLOW: FlowId = FlowId(9);

    /// What the agent does when scripted event `n` (a `PluginTimer(n)`,
    /// standing in for an ACK or any other event) is handled.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Arm(u64),
        Disarm,
        Nothing,
    }

    /// The agent side of the idiom — epoch token, armed flag — over
    /// either timer implementation, with its own scheduler. Everything it
    /// does happens inside an event handler, as in a simulation, and what
    /// it does on a live fire is a function of the token alone: an eager
    /// and a lazy world that handle the same effective events in the same
    /// order stay in lock step.
    struct World {
        sched: Scheduler,
        stats: StatsCollector,
        /// `None`: the eager reference, one queued event per arm.
        lazy: Option<SupersedingTimer>,
        script: Vec<Op>,
        epoch: u64,
        armed: bool,
        /// Effective pops, `(time ns, seq, what)`: live fires carry their
        /// token, scripted events `u64::MAX - n`.
        log: Vec<(u64, u64, u64)>,
        /// Every timer pop, live or stale, as `(time ns, token)`.
        timer_pops: Vec<(u64, u64)>,
        /// Lazy only: displaced carriers still queued.
        orphans: usize,
    }

    impl World {
        fn new(lazy: bool, script: &[(u64, Op)]) -> World {
            let mut sched = Scheduler::new();
            for (n, &(at_ns, _)) in script.iter().enumerate() {
                let at = SimTime::from_nanos(at_ns);
                sched.schedule_at(at, NODE, EventKind::PluginTimer(n as u64));
            }
            World {
                sched,
                stats: StatsCollector::new(),
                lazy: lazy.then(|| SupersedingTimer::new(FLOW)),
                script: script.iter().map(|&(_, op)| op).collect(),
                epoch: 0,
                armed: false,
                log: Vec::new(),
                timer_pops: Vec::new(),
                orphans: 0,
            }
        }

        fn arm(&mut self, delay_ns: u64) {
            self.epoch += 1;
            self.armed = true;
            let delay = SimDuration::from_nanos(delay_ns);
            let mut ctx = Ctx {
                node: NODE,
                sched: &mut self.sched,
                stats: &mut self.stats,
            };
            match &mut self.lazy {
                Some(timer) => {
                    let displaced = timer.carrier;
                    timer.arm(&mut ctx, delay, self.epoch);
                    if displaced.is_some() && timer.carrier != displaced {
                        self.orphans += 1;
                    }
                }
                None => ctx.schedule_self(
                    delay,
                    EventKind::AgentTimer {
                        flow: FLOW,
                        token: self.epoch,
                    },
                ),
            }
        }

        fn disarm(&mut self) {
            self.armed = false;
            if let Some(timer) = &mut self.lazy {
                timer.disarm();
            }
        }

        /// Pop and handle one event; `false` once the queue is empty.
        fn step(&mut self) -> bool {
            let Some((node, kind)) = self.sched.pop() else {
                return false;
            };
            assert_eq!(node, NODE);
            let now = self.sched.now().as_nanos();
            let seq = self.sched.popped_seq().expect("just popped");
            match kind {
                EventKind::PluginTimer(n) => {
                    self.log.push((now, seq, u64::MAX - n));
                    match self.script[n as usize] {
                        Op::Arm(delay_ns) => self.arm(delay_ns),
                        Op::Disarm => self.disarm(),
                        Op::Nothing => {}
                    }
                }
                EventKind::AgentTimer { flow, token } => {
                    assert_eq!(flow, FLOW);
                    self.timer_pops.push((now, token));
                    if let Some(timer) = &mut self.lazy {
                        if timer.carrier.map(|c| c.token) != Some(token) {
                            self.orphans -= 1;
                        }
                        let mut ctx = Ctx {
                            node: NODE,
                            sched: &mut self.sched,
                            stats: &mut self.stats,
                        };
                        timer.fired(&mut ctx, token);
                    }
                    if token == self.epoch && self.armed {
                        self.armed = false;
                        self.log.push((now, seq, token));
                        // An RTO handler's choices: give up, back off
                        // and re-arm, or re-arm short.
                        match token % 4 {
                            0 => {}
                            1 => self.arm(100 * (token * 7919 % 900 + 100)),
                            _ => self.arm(100 * (token * 104_729 % 30)),
                        }
                    }
                }
                other => panic!("unexpected event {other:?}"),
            }
            self.check_queue();
            true
        }

        /// Lazy only: what is queued is exactly one carrier (if any arm
        /// is outstanding) plus the displaced carriers.
        fn check_queue(&self) {
            let Some(timer) = &self.lazy else { return };
            assert_eq!(
                self.queued_timers(),
                timer.carrier.is_some() as usize + self.orphans,
                "carrier {:?}, {} orphans",
                timer.carrier,
                self.orphans
            );
            if let (Some(c), Some(l)) = (timer.carrier, timer.latest) {
                assert!((c.at, c.seq) < (l.at, l.seq), "carrier after latest");
            }
            assert!(timer.latest.is_none() || timer.carrier.is_some());
        }

        fn queued_timers(&self) -> usize {
            self.sched
                .pending_events()
                .filter(|(_, _, k)| matches!(k, EventKind::AgentTimer { .. }))
                .count()
        }

        fn run(mut self) -> World {
            while self.step() {}
            self
        }
    }

    /// Is `sub` a subsequence of `full`?
    fn is_subsequence(sub: &[(u64, u64)], full: &[(u64, u64)]) -> bool {
        let mut it = full.iter();
        sub.iter().all(|x| it.any(|y| y == x))
    }

    /// Seeded scripts of arm / disarm / bystander events. Instants and
    /// delays are multiples of 100 ns, so timers tie with scripted events
    /// and with each other all the time; delays run from zero (the instant
    /// being handled) to 100 µs in phases, so deadlines mostly grow and
    /// regularly shrink under a queued carrier.
    #[test]
    fn lazy_timer_fires_exactly_like_the_eager_idiom() {
        for seed in 0..64u64 {
            let mut rng = Rng::seed_from_u64(0x71e5_0000 + seed);
            let mut clock = 0;
            let script: Vec<(u64, Op)> = (0..1_500)
                .map(|i| {
                    clock += 100 * rng.gen_below(40);
                    let base = [0, 10, 400, 1_000][(i / 50 + rng.gen_index(2)) % 4];
                    let op = match rng.gen_below(8) {
                        0..=4 => Op::Arm(100 * (base + rng.gen_below(20))),
                        5 => Op::Disarm,
                        _ => Op::Nothing,
                    };
                    (clock, op)
                })
                .collect();
            let eager = World::new(false, &script).run();
            let lazy = World::new(true, &script).run();
            assert_eq!(eager.log, lazy.log, "seed {seed}");
            let live = eager.log.iter().filter(|e| e.2 < u64::MAX / 2).count();
            assert!(live > 50, "seed {seed}: {live} live fires mean little");
            assert!(
                is_subsequence(&lazy.timer_pops, &eager.timer_pops),
                "seed {seed}: lazy popped a timer the eager idiom never queued"
            );
            // The eager idiom pops one event per arm; the lazy timer pops
            // every arm it did not supersede (and some it did: the
            // re-materialised ones).
            let arms = eager.epoch as usize;
            assert_eq!(eager.timer_pops.len(), arms);
            let superseded = lazy.stats.timer_arms_superseded as usize;
            assert!(lazy.timer_pops.len() >= arms - superseded);
            assert!(superseded > arms / 8, "seed {seed}: {superseded}/{arms}");
            assert!(lazy.orphans == 0 && lazy.sched.pending() == 0);
        }
    }

    #[test]
    fn a_shrinking_deadline_queues_and_the_old_carrier_pops_stale() {
        let script = [
            (0, Op::Arm(100_000)),
            (0, Op::Arm(200_000)), // rides the first
            (0, Op::Arm(50_000)),  // ahead of the carrier: queued, carrier orphaned
            (0, Op::Arm(60_000)),  // rides the new carrier
        ];
        let mut w = World::new(true, &script);
        for queued in [1, 1, 2, 2] {
            w.step();
            assert_eq!(w.queued_timers(), queued);
        }
        assert_eq!(w.orphans, 1);
        let w = w.run();
        // The carrier at 50 µs (stale) hands over to 60 µs (live; token 4
        // gives up); the orphan at 100 µs pops stale.
        assert_eq!(w.timer_pops, [(50_000, 3), (60_000, 4), (100_000, 1)]);
        assert_eq!(w.log.len(), 5);
        assert_eq!((w.log[4].0, w.log[4].2), (60_000, 4));
        assert_eq!(w.stats.timer_arms_superseded, 2);
    }

    #[test]
    fn a_disarmed_timer_is_not_rematerialised() {
        let script = [(0, Op::Arm(10_000)), (0, Op::Arm(20_000)), (5, Op::Disarm)];
        let w = World::new(true, &script).run();
        assert_eq!(w.timer_pops, [(10_000, 1)]);
        assert_eq!(w.log.len(), 3, "no live fire");
    }
}
