//! Control-channel health of one PASE flow (graceful degradation).
//!
//! Paper §3.1.3: "in case a flow does not hear back from an arbitrator, it
//! falls back to the self-adjusting behavior". [`ChannelHealth`] is that
//! decision as a pure value: the sender feeds it the two things it can
//! observe — an arbitration response arrived (clean or carrying the
//! load-shed signal), a refresh round came due — and applies the
//! [`Transition`] it gets back. Nothing here touches the simulator, so the
//! state machine is testable on bare observation sequences.
//!
//! Three detectors feed the one `in_fallback` bit — hard silence and a
//! gray channel in [`on_refresh_round`](ChannelHealth::on_refresh_round),
//! load shedding in [`on_response`](ChannelHealth::on_response) — and the
//! only exit is a clean response with the shed integrator fully drained
//! (transition table: DESIGN.md §5a).

use netsim::time::{SimDuration, SimTime};

use crate::config::{PaseConfig, REFRESH_BACKOFF_CAP, WATCHDOG_K};

/// What the sender must do after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Nothing changed.
    None,
    /// Degrade to pure self-adjusting mode (lowest queue, base rate, DCTCP
    /// laws, data never suppressed). `reset_window` distinguishes why: a
    /// dead or gray channel (`true`) may have left the flow blasting a
    /// stale reference rate with no recent feedback, so the window
    /// restarts from scratch; a load-shedding channel (`false`) is
    /// demonstrably alive — ACKs and backpressure replies are flowing, the
    /// current window is congestion-valid — so only the priority/rate
    /// state is demoted.
    EnterFallback {
        /// Restart the congestion window as after a timeout.
        reset_window: bool,
    },
    /// The control plane is back: re-attach to the arbitrated queue and
    /// reference rate, and re-arm the refresh promptly — the pending one
    /// may still be backed off far into the future.
    ExitFallback,
}

/// The watchdog / integrator / backoff state of one flow's control
/// channel.
#[derive(Debug, Clone)]
pub struct ChannelHealth {
    arb_refresh: SimDuration,
    base_rtt: SimDuration,
    /// When the last arbitration response (either leg) arrived.
    last_response: SimTime,
    /// Consecutive refresh rounds without any arbitration response;
    /// drives the bounded exponential re-request backoff.
    refresh_misses: u32,
    /// Decaying tally of missed refresh rounds: +1 per round with no
    /// response, −1 (floor 0) per round with one. Catches a *degraded*
    /// control channel — one that still answers occasionally, so every
    /// response resets `last_response` and defeats the hard-silence
    /// watchdog — by integrating misses faster than sporadic responses
    /// drain them.
    degraded_rounds: u32,
    /// The delay the last-armed refresh timer was set with (cadence ×
    /// backoff). A round counts as missed only if no response landed
    /// within this interval plus one base RTT of in-flight grace —
    /// measuring against the bare cadence would brand every backed-off
    /// round, and every topology whose reply latency straddles
    /// `arb_refresh`, as degraded.
    refresh_interval: SimDuration,
    /// Arbitration declared unreachable: the flow runs in pure
    /// self-adjusting mode until a response resumes.
    in_fallback: bool,
    /// Capped backoff exponent driven by load-shed replies: each shed
    /// response doubles the refresh spacing (up to the cap), each clean
    /// response halves it back, so a storm of senders drains its own
    /// pressure multiplicatively.
    shed_backoff: u32,
    /// Decaying tally of shed responses. Sustained shedding degrades the
    /// flow exactly like a dead or gray channel: an arbitrator that only
    /// ever sheds us is not arbitrating for us.
    shed_rounds: u32,
}

impl ChannelHealth {
    /// A healthy channel; the watchdog measures silence from `now` (flow
    /// start).
    pub fn new(cfg: &PaseConfig, now: SimTime) -> ChannelHealth {
        ChannelHealth {
            arb_refresh: cfg.arb_refresh,
            base_rtt: cfg.base_rtt,
            last_response: now,
            refresh_misses: 0,
            degraded_rounds: 0,
            refresh_interval: cfg.arb_refresh,
            in_fallback: false,
            shed_backoff: 0,
            shed_rounds: 0,
        }
    }

    /// Whether the flow is in self-adjusting fallback.
    pub fn in_fallback(&self) -> bool {
        self.in_fallback
    }

    /// Current shed-driven refresh-backoff exponent.
    pub fn shed_backoff(&self) -> u32 {
        self.shed_backoff
    }

    /// Net shed responses on the channel.
    pub fn shed_rounds(&self) -> u32 {
        self.shed_rounds
    }

    /// An arbitration response arrived at `now`; `shed` is its piggybacked
    /// load-shed signal. A shed reply is a real response — the silence
    /// watchdog stays quiet — but not an answer: the refresh cadence backs
    /// off multiplicatively (every shedding sender does, so the storm
    /// drains itself).
    pub fn on_response(&mut self, now: SimTime, shed: bool) -> Transition {
        self.last_response = now;
        self.refresh_misses = 0;
        if shed {
            self.shed_backoff = (self.shed_backoff + 1).min(REFRESH_BACKOFF_CAP);
            // Capped so a long storm drains in a bounded number of clean
            // rounds once it ends.
            self.shed_rounds = (self.shed_rounds + 1).min(WATCHDOG_K * 2);
            if !self.in_fallback && self.shed_rounds >= WATCHDOG_K {
                self.in_fallback = true;
                return Transition::EnterFallback {
                    reset_window: false,
                };
            }
        } else {
            self.shed_backoff = self.shed_backoff.saturating_sub(1);
            // Asymmetric decay: shed rounds accumulate one at a time
            // (cautious entry) but drain two per clean reply, so a flow
            // parked in the lowest queue re-attaches soon after the storm
            // breaks instead of serving out the full integrator.
            self.shed_rounds = self.shed_rounds.saturating_sub(2);
            if self.in_fallback && self.shed_rounds == 0 {
                // Back *for good* — the shed integrator has fully drained,
                // not just one lucky reply slipping through mid-storm
                // (exit/re-enter flapping is far worse than staying
                // self-adjusting).
                self.in_fallback = false;
                return Transition::ExitFallback;
            }
        }
        Transition::None
    }

    /// A refresh round came due at `now`. `expects_responses` is whether
    /// the flow has any remote leg at all (a local-only flow never hears
    /// back and must not be degraded for it). "Missed" is judged against
    /// the interval this round was actually armed with (backoff included)
    /// plus one base RTT, so a reply still in flight does not count
    /// against the channel.
    pub fn on_refresh_round(&mut self, now: SimTime, expects_responses: bool) -> Transition {
        if now >= self.last_response + self.refresh_interval + self.base_rtt {
            self.refresh_misses = self.refresh_misses.saturating_add(1);
            self.degraded_rounds = self.degraded_rounds.saturating_add(1);
        } else {
            self.refresh_misses = 0;
            self.degraded_rounds = self.degraded_rounds.saturating_sub(1);
        }
        let silent = now >= self.last_response + self.arb_refresh.saturating_mul(WATCHDOG_K as u64);
        let degraded = self.degraded_rounds >= WATCHDOG_K;
        if !self.in_fallback && expects_responses && (silent || degraded) {
            self.in_fallback = true;
            return Transition::EnterFallback { reset_window: true };
        }
        Transition::None
    }

    /// The delay to arm the next refresh with (recorded as the interval
    /// the next round is judged against). Bounded exponential backoff on
    /// re-requests, but only once the watchdog has declared the control
    /// plane dead — or once the arbitrators start load-shedding us: each
    /// further silent or shed round doubles the spacing (capped) so a
    /// crashed or overloaded arbitrator is not hammered every RTT.
    /// Healthy flows keep the exact `arb_refresh` cadence — response
    /// latency routinely spans a whole refresh period, and stretching the
    /// cadence on such ordinary lag skews arbitration for every flow.
    pub fn next_refresh_delay(&mut self) -> SimDuration {
        let silent = if self.in_fallback {
            self.refresh_misses
        } else {
            0
        };
        let exp = silent.max(self.shed_backoff).min(REFRESH_BACKOFF_CAP);
        self.refresh_interval = self.arb_refresh.saturating_mul(1u64 << exp);
        self.refresh_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::Rng;

    /// What the channel did during one refresh round.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Obs {
        /// A clean response arrived one base RTT after the request.
        Answered,
        /// A load-shed response arrived one base RTT after the request.
        Shed,
        /// Nothing came back.
        Silent,
    }

    /// Drives a [`ChannelHealth`] the way `PaseSender` does: arm the
    /// refresh, let the response (if any) land, re-arm on `ExitFallback`,
    /// fire the round.
    struct Flow {
        health: ChannelHealth,
        now: SimTime,
        rtt: SimDuration,
    }

    impl Flow {
        fn new(cfg: &PaseConfig) -> Flow {
            Flow {
                health: ChannelHealth::new(cfg, SimTime::ZERO),
                now: SimTime::ZERO,
                rtt: cfg.base_rtt,
            }
        }

        /// One round; returns the delay it was armed with and every
        /// non-`None` transition it produced, in order.
        fn round(&mut self, obs: Obs) -> (SimDuration, Vec<Transition>) {
            let mut seen = Vec::new();
            let armed = self.health.next_refresh_delay();
            let mut fires_at = self.now + armed;
            if obs != Obs::Silent {
                let t = self.now + self.rtt;
                let tr = self.health.on_response(t, obs == Obs::Shed);
                if tr == Transition::ExitFallback {
                    fires_at = t + self.health.next_refresh_delay();
                }
                seen.push(tr);
            }
            self.now = fires_at;
            seen.push(self.health.on_refresh_round(self.now, true));
            seen.retain(|t| *t != Transition::None);
            (armed, seen)
        }
    }

    /// Up to 40 rounds drawn from `alphabet`.
    fn history(rng: &mut Rng, alphabet: &[Obs]) -> Vec<Obs> {
        (0..rng.gen_index(40))
            .map(|_| alphabet[rng.gen_index(alphabet.len())])
            .collect()
    }

    #[test]
    fn inert_on_a_healthy_channel() {
        let cfg = PaseConfig::default();
        let mut f = Flow::new(&cfg);
        for round in 0..10_000 {
            let (armed, seen) = f.round(Obs::Answered);
            assert_eq!(armed, cfg.arb_refresh, "round {round}: cadence stretched");
            assert!(seen.is_empty(), "round {round}: {seen:?}");
            assert!(!f.health.in_fallback());
        }
    }

    #[test]
    fn a_flow_with_no_remote_leg_is_never_degraded() {
        let cfg = PaseConfig::default();
        let mut h = ChannelHealth::new(&cfg, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += h.next_refresh_delay();
            assert_eq!(h.on_refresh_round(now, false), Transition::None);
            assert_eq!(h.next_refresh_delay(), cfg.arb_refresh);
        }
    }

    /// After any history, a bounded number of clean rounds leaves the flow
    /// attached for good: no further transition, exact base cadence. The
    /// bound is `WATCHDOG_K + REFRESH_BACKOFF_CAP` (the shed integrator is
    /// capped at `2·WATCHDOG_K` and drains two per clean reply; the shed
    /// backoff is capped and drains one) plus the silent rounds in the
    /// history (the miss integrator has no cap and drains one per clean
    /// round). A clean reply never causes the soft (shed) entry.
    #[test]
    fn any_history_settles_within_a_bound_of_clean_rounds() {
        let cfg = PaseConfig::default();
        let mut rng = Rng::seed_from_u64(0xfa11);
        for case in 0..2_000 {
            let mut f = Flow::new(&cfg);
            let past = history(&mut rng, &[Obs::Answered, Obs::Shed, Obs::Silent]);
            let silent = past.iter().filter(|o| **o == Obs::Silent).count();
            for obs in past {
                f.round(obs);
            }
            let bound = (WATCHDOG_K + REFRESH_BACKOFF_CAP) as usize + silent;
            for clean in 0..bound + 20 {
                let (armed, seen) = f.round(Obs::Answered);
                let soft = Transition::EnterFallback {
                    reset_window: false,
                };
                assert!(!seen.contains(&soft), "case {case}: {seen:?}");
                if clean >= bound {
                    assert!(seen.is_empty(), "case {case}: round {clean}: {seen:?}");
                    assert!(!f.health.in_fallback(), "case {case}: still detached");
                    assert_eq!(armed, cfg.arb_refresh, "case {case}: still backed off");
                }
            }
        }
    }

    /// Two ways today's three detectors flap on recovery, pinned so the
    /// detector merge ROADMAP keeps open has to remove them on purpose
    /// (that change moves faulted chaos hashes; this value's extraction
    /// did not):
    ///
    /// * `degraded_rounds` survives `ExitFallback`, so after a long
    ///   silence every clean round exits and re-enters (window reset
    ///   included) until the miss integrator has drained below
    ///   `WATCHDOG_K`;
    /// * the hard-silence watchdog counts bare `arb_refresh` periods, so a
    ///   shed backoff of `2^2` or more can make an *answered* backed-off
    ///   round look silent: a short storm trips the window-resetting
    ///   entry without ever reaching the soft one, or re-trips it right
    ///   after `ExitFallback` while the backoff is still draining.
    #[test]
    fn known_recovery_flaps_are_pinned() {
        let cfg = PaseConfig::default();
        let hard = Transition::EnterFallback { reset_window: true };
        let exit = Transition::ExitFallback;
        let recovery = |past: Obs, n: usize| {
            let mut f = Flow::new(&cfg);
            for _ in 0..n {
                f.round(past);
            }
            let seen: Vec<_> = (0..12).flat_map(|_| f.round(Obs::Answered).1).collect();
            assert!(!f.health.in_fallback());
            seen
        };
        // 10 silent rounds leave `degraded_rounds` at 9 (the first round is
        // inside the one-RTT grace): re-entered while it is >= WATCHDOG_K.
        let after_silence = recovery(Obs::Silent, 10);
        let mut flap = [exit, hard].repeat(5);
        flap.push(exit);
        assert_eq!(after_silence, flap);
        // 3 shed replies stay under the soft threshold (WATCHDOG_K = 4) but
        // leave a 2^3 backoff: the next round, though answered, ends 7
        // periods after its reply and trips the hard entry.
        assert_eq!(recovery(Obs::Shed, 3), [hard, exit]);
        // 4 shed replies enter softly; the shed integrator drains in 2
        // clean replies, when the backoff is still 2^2: the prompt re-arm
        // fires exactly WATCHDOG_K periods after the reply that exited.
        assert_eq!(recovery(Obs::Shed, 4), [exit, hard, exit]);
        // A longer storm takes longer to exit, by which time the backoff
        // has drained too: one clean exit.
        assert_eq!(recovery(Obs::Shed, 8), [exit]);
    }

    /// A dead channel is detected by the hard-silence watchdog after
    /// `WATCHDOG_K` refresh periods, and the re-request spacing then
    /// doubles per silent round up to the cap.
    #[test]
    fn silence_enters_fallback_after_k_periods_then_backs_off() {
        let cfg = PaseConfig::default();
        let mut f = Flow::new(&cfg);
        let mut entered_at = None;
        let mut delays = Vec::new();
        for round in 0..12u32 {
            let (armed, seen) = f.round(Obs::Silent);
            delays.push(armed);
            if seen == [Transition::EnterFallback { reset_window: true }] {
                entered_at.get_or_insert(round + 1);
            }
        }
        assert_eq!(entered_at, Some(WATCHDOG_K));
        let k = WATCHDOG_K as usize;
        assert!(delays[..k].iter().all(|d| *d == cfg.arb_refresh));
        // The first round ends inside the one-RTT grace, so k periods of
        // silence are k − 1 missed rounds.
        assert_eq!(delays[k], cfg.arb_refresh.saturating_mul(1 << (k - 1)));
        let cap = cfg.arb_refresh.saturating_mul(1 << REFRESH_BACKOFF_CAP);
        assert_eq!(*delays.last().unwrap(), cap);
    }
}
