//! Control-channel health of one PASE flow (graceful degradation).
//!
//! Paper §3.1.3: "in case a flow does not hear back from an arbitrator, it
//! falls back to the self-adjusting behavior". [`ChannelHealth`] is that
//! rule as a pure value, testable on bare observation sequences. The
//! sender reports each ACK as it lands ([`on_ack`](ChannelHealth::on_ack));
//! at each refresh it passes what responses landed since the last one to
//! [`on_refresh_round`](ChannelHealth::on_refresh_round) and applies the
//! [`Transition`] returned for the round behind it. A round is
//! *answered*, *shed* (an overloaded arbitrator replied without
//! arbitrating) or *silent*: nothing came back and the oldest unanswered
//! request is past its reply deadline. If data sent after that request
//! has been acknowledged, the silence is the control plane's and every
//! further refresh is one more silent round. If the data path is dark
//! too, the silence may be a stalled path's (a receiver NIC busy with its
//! own burst holds replies and ACKs alike), so each further silent round
//! waits twice as long, like an RTO. One capped strike integrator turns
//! verdicts into [`State`]s (DESIGN.md §5a). The refresh period
//! ([`refresh_delay`](ChannelHealth::refresh_delay)) backs off with the
//! strikes and with the sender's RTOs since its last new ACK, so a flow
//! whose data path is dead stops refreshing at full cadence (DESIGN.md
//! §7b.12).

use netsim::time::{SimDuration, SimTime};

use crate::config::{PaseConfig, REFRESH_BACKOFF_CAP, WATCHDOG_K};

/// Why a flow fell back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Requests went unanswered (a dead or gray channel): the flow may
    /// have blasted a stale reference rate unchecked, so its window
    /// restarts.
    Silent,
    /// Replies carried the load-shed signal: the channel is alive and the
    /// window congestion-valid, so only priority and rate are demoted.
    Shed,
}

/// Where a flow's control channel stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Arbitrated at the exact `arb_refresh` cadence while the data path
    /// makes progress; silent strikes below [`WATCHDOG_K`] do not leave
    /// it (a late reply is not a dead channel).
    Attached,
    /// Arbitrated, with shed replies stretching the cadence by
    /// `2^strikes` so a storm's victims drain it.
    BackingOff,
    /// Pure self-adjusting mode, re-requesting with the cadence stretched
    /// by `2^strikes`.
    Fallback(Cause),
}

/// What the sender must do after a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Nothing changed.
    None,
    /// Degrade to pure self-adjusting mode (lowest queue, base rate, DCTCP
    /// laws, data never suppressed).
    EnterFallback(Cause),
    /// Re-attach to the arbitrated queue and reference rate.
    ExitFallback,
}

/// The strike integrator and refresh cadence of one flow's control
/// channel.
#[derive(Debug, Clone)]
pub struct ChannelHealth {
    arb_refresh: SimDuration,
    /// When the oldest request nothing has answered yet went out.
    asked: SimTime,
    /// The newest send time the data path has acknowledged (zero before
    /// the first ACK, when there is no deadline to judge by yet).
    acked: SimTime,
    /// +1 per shed or silent round, −1 per answered one; at most
    /// [`REFRESH_BACKOFF_CAP`].
    strikes: u32,
    state: State,
}

impl ChannelHealth {
    /// A healthy channel whose first request goes out at `now`.
    pub fn new(cfg: &PaseConfig, now: SimTime) -> ChannelHealth {
        ChannelHealth {
            arb_refresh: cfg.arb_refresh,
            asked: now,
            acked: SimTime::ZERO,
            strikes: 0,
            state: State::Attached,
        }
    }

    /// The channel's state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Whether the flow is in self-adjusting fallback.
    pub fn in_fallback(&self) -> bool {
        matches!(self.state, State::Fallback(_))
    }

    /// An ACK arrived for data sent at `sent` (its timestamp echo).
    pub fn on_ack(&mut self, sent: SimTime) {
        self.acked = self.acked.max(sent);
    }

    /// A refresh came due at `now`: judge the round behind it. `heard` is
    /// `Some(shed)` once a response landed since the last refresh, `shed`
    /// if one carried the load-shed signal. `deadline` is how long a
    /// request may go unanswered, `None` when there is nothing to judge
    /// silence by (no RTT sample, no remote leg).
    pub fn on_refresh_round(
        &mut self,
        now: SimTime,
        heard: Option<bool>,
        deadline: Option<SimDuration>,
    ) -> Transition {
        let cause = match (heard, deadline) {
            (Some(shed), _) => {
                // This refresh's request is now the oldest unanswered one.
                self.asked = now;
                if !shed {
                    return self.answered();
                }
                Cause::Shed
            }
            (None, Some(d)) if now >= self.asked + d && self.acked >= self.asked => Cause::Silent,
            (None, Some(d)) if now >= self.asked + d.saturating_mul(1 << self.strikes) => {
                // The data path is dark too: the next strike waits for a
                // request of its own.
                self.asked = now;
                Cause::Silent
            }
            _ => return Transition::None,
        };
        self.strikes = (self.strikes + 1).min(REFRESH_BACKOFF_CAP);
        match self.state {
            State::Fallback(_) => Transition::None,
            _ if self.strikes >= WATCHDOG_K => {
                self.state = State::Fallback(cause);
                Transition::EnterFallback(cause)
            }
            _ => {
                if cause == Cause::Shed {
                    self.state = State::BackingOff;
                }
                Transition::None
            }
        }
    }

    fn answered(&mut self) -> Transition {
        self.strikes = self.strikes.saturating_sub(1);
        match self.state {
            State::Fallback(_) if self.strikes < WATCHDOG_K => {
                // Restart the integrator: the clean run that follows cannot
                // re-enter on strikes from before.
                self.strikes = 0;
                self.state = State::Attached;
                Transition::ExitFallback
            }
            State::BackingOff if self.strikes == 0 => {
                self.state = State::Attached;
                Transition::None
            }
            _ => Transition::None,
        }
    }

    /// The delay to arm the next refresh with, given the sender's
    /// `stalled_rtos` (RTOs fired since its last new ACK):
    /// `arb_refresh × 2^min(e, REFRESH_BACKOFF_CAP)`, where `e` is the
    /// strikes (none while attached) plus `stalled_rtos`. So the refresh
    /// backs off with the RTO of a flow whose data path is dead, and a
    /// healthy attached flow keeps the exact `arb_refresh` cadence. A
    /// parked flow has nothing in flight, takes no RTO, and keeps its
    /// cadence too.
    pub fn refresh_delay(&self, stalled_rtos: u32) -> SimDuration {
        let strikes = match self.state {
            State::Attached => 0,
            _ => self.strikes,
        };
        let e = strikes
            .saturating_add(stalled_rtos)
            .min(REFRESH_BACKOFF_CAP);
        self.arb_refresh.saturating_mul(1 << e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::Rng;

    /// What the channel did with one round's request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Obs {
        /// A clean response arrived one reply latency after the request.
        Answered,
        /// A load-shed response arrived one reply latency after the
        /// request.
        Shed,
        /// Nothing came back.
        Silent,
    }

    /// Drives a [`ChannelHealth`] the way `PaseSender` does: each refresh
    /// sends a request, responses land `reply` later (possibly several
    /// refreshes later), ACKs keep landing, and each refresh is judged
    /// with `deadline`.
    struct Flow {
        health: ChannelHealth,
        now: SimTime,
        reply: SimDuration,
        deadline: SimDuration,
        /// Responses in flight: (arrival, shed).
        in_flight: Vec<(SimTime, bool)>,
    }

    impl Flow {
        fn new(cfg: &PaseConfig) -> Flow {
            Flow::with_latency(cfg, cfg.base_rtt, cfg.base_rtt)
        }

        fn with_latency(cfg: &PaseConfig, reply: SimDuration, deadline: SimDuration) -> Flow {
            Flow {
                health: ChannelHealth::new(cfg, SimTime::ZERO),
                now: SimTime::ZERO,
                reply,
                deadline,
                in_flight: Vec::new(),
            }
        }

        /// One round: the request sent at the current refresh meets
        /// `obs`, then the next refresh fires. Returns the delay that
        /// refresh was armed with and its transition, if any.
        fn round(&mut self, obs: Obs) -> (SimDuration, Option<Transition>) {
            if obs != Obs::Silent {
                self.in_flight
                    .push((self.now + self.reply, obs == Obs::Shed));
            }
            let armed = self.health.refresh_delay(0);
            self.now += armed;
            let now = self.now;
            let landed = self.in_flight.iter().filter(|(at, _)| *at <= now);
            let heard = landed.fold(None, |h, &(_, shed)| Some(shed || h == Some(true)));
            self.in_flight.retain(|(at, _)| *at > now);
            // The data path has the same latency as the control path.
            if now >= SimTime::ZERO + self.reply {
                self.health.on_ack(now - self.reply);
            }
            let tr = self
                .health
                .on_refresh_round(now, heard, Some(self.deadline));
            (armed, (tr != Transition::None).then_some(tr))
        }
    }

    /// Up to 40 rounds drawn from `alphabet`.
    fn history(rng: &mut Rng, alphabet: &[Obs]) -> Vec<Obs> {
        (0..rng.gen_index(40))
            .map(|_| alphabet[rng.gen_index(alphabet.len())])
            .collect()
    }

    /// Every request answered, whether within one refresh period or
    /// several (inside the deadline): never a strike, exactly
    /// `arb_refresh` between refreshes.
    #[test]
    fn inert_on_a_healthy_channel() {
        let cfg = PaseConfig::default();
        let period = cfg.arb_refresh;
        for (reply, deadline) in [
            (period / 3, period),
            (period, period),
            (
                period.saturating_mul(3) + period / 2,
                period.saturating_mul(4),
            ),
            (period.saturating_mul(7), period.saturating_mul(7)),
        ] {
            let mut f = Flow::with_latency(&cfg, reply, deadline);
            for round in 0..10_000 {
                let (armed, seen) = f.round(Obs::Answered);
                assert_eq!(
                    armed, period,
                    "reply {reply}: round {round}: cadence stretched"
                );
                assert_eq!(seen, None, "reply {reply}: round {round}");
                assert_eq!(f.health.state(), State::Attached);
                assert_eq!(f.health.strikes, 0, "reply {reply}: round {round}");
            }
        }
    }

    /// A path that holds replies and ACKs alike — a receiver NIC busy
    /// with its own burst, say — is judged like an RTO: the first strike
    /// one deadline in, each further one after twice the wait before. A
    /// stall shorter than `2^WATCHDOG_K − 1` deadlines leaves the flow
    /// attached at the exact cadence, however often it refreshes.
    #[test]
    fn a_stalled_path_backs_off_its_strikes() {
        let cfg = PaseConfig::default();
        let deadline = cfg.arb_refresh.saturating_mul(3);
        let mut now = SimTime::from_millis(1);
        let mut h = ChannelHealth::new(&cfg, now);
        h.on_ack(now - cfg.base_rtt);
        let stall = 3 * ((1 << WATCHDOG_K) - 1) - 1;
        for round in 1..=stall {
            now += h.refresh_delay(0);
            assert_eq!(
                h.on_refresh_round(now, None, Some(deadline)),
                Transition::None
            );
            // Strikes land 3, 9, 21, … refreshes in.
            let strikes = (0..WATCHDOG_K)
                .filter(|s| 3 * ((2 << s) - 1) <= round)
                .count();
            assert_eq!(h.strikes as usize, strikes, "round {round}");
        }
        h.on_ack(now);
        now += h.refresh_delay(0);
        assert_eq!(
            h.on_refresh_round(now, Some(false), Some(deadline)),
            Transition::None
        );
        assert_eq!(h.state(), State::Attached);
        assert_eq!(h.refresh_delay(0), cfg.arb_refresh);
    }

    #[test]
    fn a_flow_with_no_remote_leg_is_never_degraded() {
        let cfg = PaseConfig::default();
        let mut h = ChannelHealth::new(&cfg, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += h.refresh_delay(0);
            assert_eq!(h.on_refresh_round(now, None, None), Transition::None);
            assert_eq!(h.refresh_delay(0), cfg.arb_refresh);
        }
    }

    /// Clean rounds after any history: a flow in fallback exits once its
    /// strikes fall below `WATCHDOG_K` (at most `REFRESH_BACKOFF_CAP −
    /// WATCHDOG_K + 1` answered rounds from the cap) and a backed-off one
    /// drains its at most `WATCHDOG_K − 1` strikes, one per answered
    /// round. After that bound the flow is attached for good: no further
    /// transition, exact base cadence.
    #[test]
    fn any_history_settles_within_a_bound_of_clean_rounds() {
        let cfg = PaseConfig::default();
        let bound = (WATCHDOG_K - 1).max(REFRESH_BACKOFF_CAP - WATCHDOG_K + 1) as usize;
        let mut rng = Rng::seed_from_u64(0xfa11);
        for case in 0..2_000 {
            let mut f = Flow::new(&cfg);
            for obs in history(&mut rng, &[Obs::Answered, Obs::Shed, Obs::Silent]) {
                f.round(obs);
            }
            for clean in 0..bound + 20 {
                let (armed, seen) = f.round(Obs::Answered);
                assert!(
                    !matches!(seen, Some(Transition::EnterFallback(_))),
                    "case {case}: a clean round entered fallback"
                );
                if clean >= bound {
                    assert_eq!(seen, None, "case {case}: round {clean}");
                    assert_eq!(f.health.state(), State::Attached, "case {case}");
                    assert_eq!(armed, cfg.arb_refresh, "case {case}: still backed off");
                }
            }
        }
    }

    /// The recovery contract: after any history of answered, shed and
    /// silent rounds, a clean run never re-enters fallback once it has
    /// left it — no exit/re-entry flap, whatever the integrator held.
    #[test]
    fn no_exit_is_followed_by_a_reentry_within_a_clean_run() {
        let cfg = PaseConfig::default();
        let mut rng = Rng::seed_from_u64(0xf1a9);
        for case in 0..5_000 {
            let mut f = Flow::new(&cfg);
            let past = history(&mut rng, &[Obs::Answered, Obs::Shed, Obs::Silent]);
            for &obs in &past {
                f.round(obs);
            }
            let seen: Vec<_> = (0..30).filter_map(|_| f.round(Obs::Answered).1).collect();
            if let Some(exit) = seen.iter().position(|t| *t == Transition::ExitFallback) {
                assert_eq!(exit + 1, seen.len(), "case {case}: {past:?} then {seen:?}");
            }
            assert!(!f.health.in_fallback(), "case {case}: {past:?}");
        }
    }

    /// A dead channel: the first round past the deadline is one strike
    /// and every refresh after it another, so the flow enters
    /// `Fallback(Silent)` `WATCHDOG_K` refreshes in, at the exact cadence
    /// until then; re-requests then back off by `2^strikes` up to the cap.
    #[test]
    fn silence_enters_fallback_after_k_periods_then_backs_off() {
        let cfg = PaseConfig::default();
        let mut f = Flow::new(&cfg);
        let mut entered_at = None;
        let mut delays = Vec::new();
        for round in 0..12u32 {
            let (armed, seen) = f.round(Obs::Silent);
            delays.push(armed);
            if seen == Some(Transition::EnterFallback(Cause::Silent)) {
                assert_eq!(entered_at.replace(round + 1), None);
            }
        }
        assert_eq!(entered_at, Some(WATCHDOG_K));
        let k = WATCHDOG_K as usize;
        assert!(delays[..k].iter().all(|d| *d == cfg.arb_refresh));
        assert_eq!(delays[k], cfg.arb_refresh.saturating_mul(1 << k));
        let cap = cfg.arb_refresh.saturating_mul(1 << REFRESH_BACKOFF_CAP);
        assert_eq!(*delays.last().unwrap(), cap);
    }

    /// The refresh period is `arb_refresh × 2^min(e, REFRESH_BACKOFF_CAP)`,
    /// `e` the strikes (none while attached) plus the sender's stalled
    /// RTOs.
    #[test]
    fn refresh_delay_backs_off_with_strikes_and_stalled_rtos() {
        let cfg = PaseConfig::default();
        let (k, cap) = (WATCHDOG_K, REFRESH_BACKOFF_CAP);
        let fallback = State::Fallback(Cause::Silent);
        // (state, strikes, stalled RTOs, exponent)
        let table = [
            (State::Attached, 0, 0, 0),
            // Strikes below `WATCHDOG_K` leave an attached flow's cadence.
            (State::Attached, k - 1, 0, 0),
            (State::Attached, 0, 1, 1),
            (State::Attached, k - 1, 3, 3),
            (State::Attached, 0, cap, cap),
            (State::Attached, 0, 8, cap),
            (State::Attached, 0, u32::MAX, cap),
            (State::BackingOff, 1, 0, 1),
            (State::BackingOff, 2, 2, 4),
            (State::BackingOff, 3, 3, cap),
            (fallback, k, 0, k),
            (fallback, k, 1, k + 1),
            (fallback, cap, 0, cap),
            (fallback, cap, u32::MAX, cap),
        ];
        for (state, strikes, rtos, e) in table {
            let h = ChannelHealth {
                state,
                strikes,
                ..ChannelHealth::new(&cfg, SimTime::ZERO)
            };
            assert_eq!(
                h.refresh_delay(rtos),
                cfg.arb_refresh.saturating_mul(1 << e),
                "{state:?}, {strikes} strikes, {rtos} RTOs"
            );
        }
        // The fault-free cadence is exactly `arb_refresh`.
        let h = ChannelHealth::new(&cfg, SimTime::ZERO);
        assert_eq!(h.refresh_delay(0), cfg.arb_refresh);
    }

    /// Sustained shedding backs the cadence off from the first shed
    /// reply, enters `Fallback(Shed)` at `WATCHDOG_K`, and leaves it once
    /// answers resume.
    #[test]
    fn shedding_backs_off_first_then_falls_back_without_a_reset() {
        let cfg = PaseConfig::default();
        let mut f = Flow::new(&cfg);
        let seen: Vec<_> = (0..WATCHDOG_K).map(|_| f.round(Obs::Shed)).collect();
        for (i, (armed, tr)) in seen.iter().enumerate() {
            assert_eq!(*armed, cfg.arb_refresh.saturating_mul(1 << i), "round {i}");
            let last = i + 1 == WATCHDOG_K as usize;
            assert_eq!(*tr, last.then_some(Transition::EnterFallback(Cause::Shed)));
        }
        assert_eq!(f.health.state(), State::Fallback(Cause::Shed));
        let exit: Vec<_> = (0..4).filter_map(|_| f.round(Obs::Answered).1).collect();
        assert_eq!(exit, [Transition::ExitFallback]);
    }
}
