//! The DCTCP congestion-window law, once.
//!
//! [`DctcpWindow`] owns everything the law remembers between ACKs — the
//! marked-fraction estimate `α` with its observation window, the
//! once-per-window decrease gate and `ssthresh` — and edits a window the
//! caller owns (`TxEngine::cwnd`). What differs between its users is
//! passed in per call: the decrease penalty `p` (`α/2` for DCTCP and
//! PASE, `α^d/2` for D2TCP, weight-scaled for L2DCT), the per-ACK growth
//! factor (delayed-ACK scaling) and the additive-increase weight (L2DCT).
//! Both [`crate::FamilySender`] and PASE's sender hold one, so PASE's
//! self-adjusting part *is* DCTCP (paper §3.2) rather than a copy of it.
//!
//! Callers test the ECE decrease before `in_recovery`, and skip growth on
//! the ACK that decreased.

use crate::tx::LossEvent;

/// DCTCP window state: `α` estimator, decrease gate, `ssthresh`.
#[derive(Debug, Clone)]
pub struct DctcpWindow {
    /// EWMA gain `g` of the marked-fraction estimator.
    g: f64,
    alpha: f64,
    ssthresh: f64,
    /// Sequence marking the end of the current observation window.
    obs_end: u64,
    obs_acked: u64,
    obs_marked: u64,
    /// ECE-triggered decrease is applied at most once per window: the next
    /// one is allowed when the cumulative ACK passes this sequence.
    next_decrease_at: u64,
}

impl DctcpWindow {
    /// A fresh law with estimator gain `g` and initial `ssthresh`.
    pub fn new(g: f64, ssthresh: f64) -> DctcpWindow {
        DctcpWindow {
            g,
            alpha: 0.0,
            ssthresh,
            obs_end: 0,
            obs_acked: 0,
            obs_marked: 0,
            next_decrease_at: 0,
        }
    }

    /// The current marked-fraction estimate `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Fold `newly` acknowledged bytes (marked when `ece`) into the
    /// estimator; `α` updates once per window of data, when the cumulative
    /// ACK `acked` passes the window's end.
    pub fn observe(&mut self, newly: u64, ece: bool, acked: u64, snd_nxt: u64) {
        self.obs_acked += newly;
        if ece {
            self.obs_marked += newly;
        }
        if acked >= self.obs_end {
            if self.obs_acked > 0 {
                let f = self.obs_marked as f64 / self.obs_acked as f64;
                self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
            }
            self.obs_acked = 0;
            self.obs_marked = 0;
            self.obs_end = snd_nxt;
        }
    }

    /// Whether a marked ACK at cumulative ACK `acked` may decrease the
    /// window (at most once per window of data).
    pub fn decrease_due(&self, acked: u64) -> bool {
        acked >= self.next_decrease_at
    }

    /// The ECE decrease `cwnd ← cwnd·(1 − p)`, floored at one packet; the
    /// next one waits until `snd_nxt` is acknowledged.
    pub fn decrease(&mut self, cwnd: &mut f64, p: f64, snd_nxt: u64) {
        *cwnd = (*cwnd * (1.0 - p)).max(1.0);
        self.ssthresh = *cwnd;
        self.next_decrease_at = snd_nxt;
    }

    /// Is a window of `cwnd` packets still below `ssthresh`? There
    /// [`DctcpWindow::grow`] ignores its `ai_weight`, so callers with a
    /// costly weight need not compute it.
    pub fn in_slow_start(&self, cwnd: f64) -> bool {
        cwnd < self.ssthresh
    }

    /// Window growth on `newly` acknowledged bytes: slow start below
    /// `ssthresh`, else additive increase of `ai_weight` packets per RTT.
    /// `factor` scales the per-ACK credit (delayed-ACK pacing, see
    /// [`crate::params::ACK_GROWTH_FACTOR`]).
    pub fn grow(&self, cwnd: &mut f64, newly: u64, mss: u32, factor: f64, ai_weight: f64) {
        let pkts = newly as f64 / mss as f64 * factor;
        if self.in_slow_start(*cwnd) {
            *cwnd += pkts;
        } else {
            *cwnd += ai_weight * pkts / *cwnd;
        }
    }

    /// Reno reaction to a loss signal: halve on fast retransmit, collapse
    /// to one packet on timeout.
    pub fn on_loss(&mut self, cwnd: &mut f64, loss: LossEvent) {
        match loss {
            LossEvent::FastRetransmit => {
                *cwnd = (*cwnd / 2.0).max(1.0);
                self.ssthresh = *cwnd;
            }
            LossEvent::Timeout => {
                self.ssthresh = (*cwnd / 2.0).max(2.0);
                *cwnd = 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dctcp_family::Flavor;
    use crate::params::MSS;
    use netsim::rng::Rng;

    const G: f64 = 1.0 / 16.0;
    const STEPS: usize = 100_000;

    /// What one ACK shows the law.
    struct Ack {
        newly: u64,
        ece: bool,
        acked: u64,
        snd_nxt: u64,
        in_recovery: bool,
    }

    /// A seeded ACK stream: ~30 % marked, ~10 % inside fast recovery, up
    /// to 64 packets in flight.
    fn acks(seed: u64) -> impl Iterator<Item = Ack> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut acked = 0u64;
        std::iter::repeat_with(move || {
            let newly = rng.gen_range_inclusive(1, 4 * MSS as u64);
            acked += newly;
            Ack {
                newly,
                ece: rng.gen_below(10) < 3,
                acked,
                snd_nxt: acked + rng.gen_below(64 * MSS as u64),
                in_recovery: rng.gen_below(10) == 0,
            }
        })
    }

    /// The fields `FamilySender` and `PaseSender` each carried inline
    /// before the law was extracted.
    struct Legacy {
        cwnd: f64,
        alpha: f64,
        ssthresh: f64,
        obs_end: u64,
        obs_acked: u64,
        obs_marked: u64,
        next_decrease_at: u64,
    }

    impl Legacy {
        fn new(cwnd: f64) -> Legacy {
            Legacy {
                cwnd,
                alpha: 0.0,
                ssthresh: f64::INFINITY,
                obs_end: 0,
                obs_acked: 0,
                obs_marked: 0,
                next_decrease_at: 0,
            }
        }

        /// `FamilySender::on_new_ack` as it stood, with the flavor's
        /// deadline factor `d` and L2DCT weight `w` supplied.
        fn family_ack(&mut self, a: &Ack, flavor: Flavor, d: f64, w: f64, wb: (f64, f64)) {
            self.obs_acked += a.newly;
            if a.ece {
                self.obs_marked += a.newly;
            }
            if a.acked >= self.obs_end {
                if self.obs_acked > 0 {
                    let f = self.obs_marked as f64 / self.obs_acked as f64;
                    self.alpha = (1.0 - G) * self.alpha + G * f;
                }
                self.obs_acked = 0;
                self.obs_marked = 0;
                self.obs_end = a.snd_nxt;
            }
            if a.ece && flavor != Flavor::Reno && a.acked >= self.next_decrease_at {
                let p = match flavor {
                    Flavor::Reno => unreachable!(),
                    Flavor::Dctcp => self.alpha / 2.0,
                    Flavor::D2tcp => self.alpha.powf(d) / 2.0,
                    Flavor::L2dct => {
                        (self.alpha / 2.0) * ((wb.1 - w + wb.0) / wb.1).clamp(0.0, 1.0)
                    }
                };
                self.cwnd = (self.cwnd * (1.0 - p)).max(1.0);
                self.ssthresh = self.cwnd;
                self.next_decrease_at = a.snd_nxt;
                return;
            }
            let pkts = a.newly as f64 / MSS as f64 * 0.5;
            if a.in_recovery {
                return;
            }
            if self.cwnd < self.ssthresh {
                self.cwnd += pkts;
            } else {
                let w = match flavor {
                    Flavor::L2dct => w,
                    _ => 1.0,
                };
                self.cwnd += w * pkts / self.cwnd;
            }
        }

        /// `PaseSender::on_new_ack` as it stood, reduced to the branches
        /// that touch the law: `halved` is fallback / PASE-DCTCP growth,
        /// otherwise intermediate-queue growth.
        fn pase_ack(&mut self, a: &Ack, halved: bool) {
            self.obs_acked += a.newly;
            if a.ece {
                self.obs_marked += a.newly;
            }
            if a.acked >= self.obs_end {
                if self.obs_acked > 0 {
                    let f = self.obs_marked as f64 / self.obs_acked as f64;
                    self.alpha = (1.0 - G) * self.alpha + G * f;
                }
                self.obs_acked = 0;
                self.obs_marked = 0;
                self.obs_end = a.snd_nxt;
            }
            let pkts = a.newly as f64 / MSS as f64;
            if a.ece && a.acked >= self.next_decrease_at {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(1.0);
                self.ssthresh = self.cwnd;
                self.next_decrease_at = a.snd_nxt;
                return;
            }
            if a.in_recovery {
                return;
            }
            if halved {
                let pkts = pkts * 0.5;
                if self.cwnd < self.ssthresh {
                    self.cwnd += pkts;
                } else {
                    self.cwnd += pkts / self.cwnd;
                }
                return;
            }
            if self.cwnd < self.ssthresh {
                self.cwnd += pkts;
            } else {
                self.cwnd += pkts / self.cwnd;
            }
        }

        /// Both senders' `on_loss` (they were textually identical).
        fn on_loss(&mut self, loss: LossEvent) {
            match loss {
                LossEvent::FastRetransmit => {
                    self.cwnd = (self.cwnd / 2.0).max(1.0);
                    self.ssthresh = self.cwnd;
                }
                LossEvent::Timeout => {
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = 1.0;
                }
            }
        }

        fn assert_matches(&self, win: &DctcpWindow, cwnd: f64, step: usize) {
            let bits = |x: f64| x.to_bits();
            assert_eq!(
                (bits(self.cwnd), bits(self.alpha), bits(self.ssthresh)),
                (bits(cwnd), bits(win.alpha), bits(win.ssthresh)),
                "step {step}: legacy ({}, {}, {}) vs window ({cwnd}, {}, {})",
                self.cwnd,
                self.alpha,
                self.ssthresh,
                win.alpha,
                win.ssthresh
            );
        }
    }

    /// A loss signal on ~1 % of steps.
    fn maybe_loss(rng: &mut Rng) -> Option<LossEvent> {
        match rng.gen_below(200) {
            0 => Some(LossEvent::FastRetransmit),
            1 => Some(LossEvent::Timeout),
            _ => None,
        }
    }

    #[test]
    fn matches_the_family_law_bit_for_bit() {
        let wb = (0.125, 2.5);
        let mut rng = Rng::seed_from_u64(7);
        let mut old = Legacy::new(2.0);
        let (mut win, mut cwnd) = (DctcpWindow::new(G, f64::INFINITY), 2.0);
        for (step, a) in acks(11).take(STEPS).enumerate() {
            let flavor =
                [Flavor::Reno, Flavor::Dctcp, Flavor::D2tcp, Flavor::L2dct][rng.gen_index(4)];
            let d = 0.5 + 1.5 * rng.gen_f64();
            let w = wb.0 + (wb.1 - wb.0) * rng.gen_f64();
            old.family_ack(&a, flavor, d, w, wb);
            // `FamilySender::on_new_ack`'s use of the window.
            win.observe(a.newly, a.ece, a.acked, a.snd_nxt);
            if a.ece && flavor != Flavor::Reno && win.decrease_due(a.acked) {
                let p = match flavor {
                    Flavor::Reno => unreachable!(),
                    Flavor::Dctcp => win.alpha() / 2.0,
                    Flavor::D2tcp => win.alpha().powf(d) / 2.0,
                    Flavor::L2dct => {
                        (win.alpha() / 2.0) * ((wb.1 - w + wb.0) / wb.1).clamp(0.0, 1.0)
                    }
                };
                win.decrease(&mut cwnd, p, a.snd_nxt);
            } else if !a.in_recovery {
                let w = if flavor == Flavor::L2dct { w } else { 1.0 };
                win.grow(&mut cwnd, a.newly, MSS, 0.5, w);
            }
            if let Some(loss) = maybe_loss(&mut rng) {
                old.on_loss(loss);
                win.on_loss(&mut cwnd, loss);
            }
            old.assert_matches(&win, cwnd, step);
        }
    }

    #[test]
    fn matches_the_pase_law_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(8);
        let mut old = Legacy::new(1.0);
        let (mut win, mut cwnd) = (DctcpWindow::new(G, f64::INFINITY), 1.0);
        for (step, a) in acks(12).take(STEPS).enumerate() {
            // Fallback / PASE-DCTCP (half credit) or intermediate queue
            // (full credit); now and then Algorithm 2 pins the window
            // from outside (top queue: Rref × RTT, bottom queue: 1).
            let halved = rng.gen_below(2) == 0;
            old.pase_ack(&a, halved);
            win.observe(a.newly, a.ece, a.acked, a.snd_nxt);
            if a.ece && win.decrease_due(a.acked) {
                let p = win.alpha() / 2.0;
                win.decrease(&mut cwnd, p, a.snd_nxt);
            } else if !a.in_recovery {
                let factor = if halved { 0.5 } else { 1.0 };
                win.grow(&mut cwnd, a.newly, MSS, factor, 1.0);
            }
            if rng.gen_below(50) == 0 {
                let pinned = 1.0 + 40.0 * rng.gen_f64();
                old.cwnd = pinned;
                cwnd = pinned;
            }
            if let Some(loss) = maybe_loss(&mut rng) {
                old.on_loss(loss);
                win.on_loss(&mut cwnd, loss);
            }
            old.assert_matches(&win, cwnd, step);
        }
    }
}
