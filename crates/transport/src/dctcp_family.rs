//! The self-adjusting-endpoint transports: TCP (Reno), DCTCP, D2TCP, L2DCT.
//!
//! These four protocols share everything except their congestion window
//! policy (paper §2, "Self-Adjusting Endpoints"):
//!
//! * **TCP/Reno** — loss-based AIMD, no ECN. Baseline.
//! * **DCTCP** — ECN-fraction EWMA `α`, backoff `cwnd ← cwnd·(1 − α/2)`.
//! * **D2TCP** — deadline-aware DCTCP: penalty `p = α^d` with the
//!   deadline-imminence factor `d = Tc/D` clamped to `[0.5, 2]`.
//! * **L2DCT** — size-aware DCTCP: additive-increase weight and backoff
//!   scale shift with the bytes a flow has sent, approximating
//!   least-attained-service.
//!
//! One parameterized agent ([`FamilySender`]) implements all four through
//! the [`Flavor`] enum, which keeps their common machinery honest: the
//! window law itself is [`DctcpWindow`] (shared with PASE's sender) and
//! every difference between the protocols is visible in
//! `FamilySender::on_new_ack`.

use netsim::flow::FlowSpec;
use netsim::host::{AgentCtx, FlowAgent};
use netsim::packet::{Packet, PacketKind};
use netsim::time::{SimDuration, SimTime};

use crate::params::{
    ACK_GROWTH_FACTOR, D2TCP_D_BOUNDS, DCTCP_G, INIT_CWND, L2DCT_HI_BYTES, L2DCT_LO_BYTES,
    L2DCT_W_BOUNDS, MAX_RTO, MIN_RTO, MSS,
};
use crate::rtt::RttEstimator;
use crate::tx::{AckKind, TxEngine};
use crate::window::DctcpWindow;

/// Which member of the family a sender speaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flavor {
    /// Plain TCP Reno (loss-based, ECN-incapable).
    Reno,
    /// DCTCP.
    Dctcp,
    /// D2TCP; the deadline is carried by the flow spec.
    D2tcp,
    /// L2DCT.
    L2dct,
}

/// Sender agent for the DCTCP family.
#[derive(Debug)]
pub struct FamilySender {
    engine: TxEngine,
    flavor: Flavor,
    /// The shared DCTCP window law (`α`, decrease gate, `ssthresh`).
    win: DctcpWindow,
    /// Absolute deadline (D2TCP), if the flow has one.
    deadline_abs: Option<SimTime>,
}

impl FamilySender {
    /// Create a sender for `spec`.
    pub fn new(spec: &FlowSpec, flavor: Flavor) -> FamilySender {
        let rtt = RttEstimator::new(MIN_RTO, MAX_RTO);
        let (id, src, dst, size) = (spec.id, spec.src, spec.dst, spec.size);
        FamilySender {
            engine: TxEngine::new(id, src, dst, size, MSS, INIT_CWND, rtt),
            flavor,
            // No initial slow-start threshold: the first loss or mark sets it.
            win: DctcpWindow::new(DCTCP_G, f64::INFINITY),
            deadline_abs: spec.deadline_abs(),
        }
    }

    /// The current congestion window, in packets (for tests/inspection).
    pub fn cwnd(&self) -> f64 {
        self.engine.cwnd
    }

    /// The current marked-fraction estimate `α` (for tests/inspection).
    pub fn alpha(&self) -> f64 {
        self.win.alpha()
    }

    /// L2DCT additive-increase weight for a flow that has sent `sent`
    /// bytes: `w_max` below `lo_bytes`, `w_min` above `hi_bytes`,
    /// log-linear in between. Approximates the bucketed weight table of the
    /// L2DCT paper.
    fn l2dct_weight(sent: u64) -> f64 {
        let (wmin, wmax) = L2DCT_W_BOUNDS;
        let (lo, hi) = (L2DCT_LO_BYTES as f64, L2DCT_HI_BYTES as f64);
        let s = sent.max(1) as f64;
        if s <= lo {
            wmax
        } else if s >= hi {
            wmin
        } else {
            let frac = (s.ln() - lo.ln()) / (hi.ln() - lo.ln());
            wmax - frac * (wmax - wmin)
        }
    }

    /// D2TCP deadline-imminence factor `d = Tc / D`, clamped.
    fn d2tcp_d(&self, now: SimTime) -> f64 {
        let (dmin, dmax) = D2TCP_D_BOUNDS;
        let Some(deadline) = self.deadline_abs else {
            return 1.0; // no deadline: behave like DCTCP
        };
        if now >= deadline {
            // Past the deadline the flow can no longer win; D2TCP's
            // gamma-correction reverts to neutral (DCTCP) behaviour
            // rather than stealing from still-meetable flows.
            return 1.0;
        }
        let d_remaining = (deadline - now).as_secs_f64();
        // Time needed to finish at ~3/4 of the current rate (D2TCP's Tc).
        let srtt = self
            .engine
            .rtt
            .srtt()
            .unwrap_or(SimDuration::from_micros(300))
            .as_secs_f64();
        let rate = 0.75 * self.engine.cwnd * self.engine.mss as f64 / srtt.max(1e-9);
        let tc = self.engine.remaining() as f64 / rate.max(1.0);
        (tc / d_remaining.max(1e-9)).clamp(dmin, dmax)
    }

    /// The window law on newly acknowledged bytes; every difference
    /// between the four protocols is the penalty `p` and the weight `w`.
    fn on_new_ack(&mut self, newly: u64, ece: bool, now: SimTime) {
        let (acked, snd_nxt) = (self.engine.acked(), self.engine.snd_nxt());
        self.win.observe(newly, ece, acked, snd_nxt);

        // ECE-driven multiplicative decrease, at most once per window.
        if ece && self.flavor != Flavor::Reno && self.win.decrease_due(acked) {
            let alpha = self.win.alpha();
            let p = match self.flavor {
                Flavor::Reno => unreachable!(),
                Flavor::Dctcp => alpha / 2.0,
                Flavor::D2tcp => alpha.powf(self.d2tcp_d(now)) / 2.0,
                Flavor::L2dct => {
                    // Long flows back off harder: scale by how far the
                    // flow's weight has decayed from w_max.
                    let (wmin, wmax) = L2DCT_W_BOUNDS;
                    let w = Self::l2dct_weight(acked);
                    (alpha / 2.0) * ((wmax - w + wmin) / wmax).clamp(0.0, 1.0)
                }
            };
            self.win.decrease(&mut self.engine.cwnd, p, snd_nxt);
            return; // no increase on the ACK that triggered a decrease
        }
        if self.engine.in_recovery() {
            return;
        }
        // The AI weight (two logarithms) matters only past slow start.
        let w = match self.flavor {
            Flavor::L2dct if !self.win.in_slow_start(self.engine.cwnd) => Self::l2dct_weight(acked),
            _ => 1.0,
        };
        let mss = self.engine.mss;
        self.win
            .grow(&mut self.engine.cwnd, newly, mss, ACK_GROWTH_FACTOR, w);
    }

    fn customize(flavor: Flavor) -> impl FnMut(&mut Packet) {
        move |pkt: &mut Packet| {
            pkt.ecn_capable = flavor != Flavor::Reno;
        }
    }
}

impl FlowAgent for FamilySender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.engine.pump(ctx, Self::customize(self.flavor));
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if !matches!(pkt.kind, PacketKind::Ack | PacketKind::ProbeAck) {
            return;
        }
        let now = ctx.now();
        match self.engine.on_ack(pkt.seq, pkt.ts_echo, now) {
            AckKind::New { newly_acked, .. } => {
                self.on_new_ack(newly_acked, pkt.ece, now);
            }
            AckKind::Dup { .. } | AckKind::Stale => {}
        }
        if let Some(loss) = self.engine.take_loss_event() {
            self.win.on_loss(&mut self.engine.cwnd, loss);
        }
        if self.engine.complete() {
            ctx.flow_completed();
            return;
        }
        self.engine.pump(ctx, Self::customize(self.flavor));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        if !self.engine.rto_fired(token, ctx) {
            return;
        }
        if self.engine.on_timeout(ctx) {
            if let Some(loss) = self.engine.take_loss_event() {
                self.win.on_loss(&mut self.engine.cwnd, loss);
            }
            self.engine.pump(ctx, Self::customize(self.flavor));
        } else {
            // The peer stopped responding for the engine's whole RTO
            // budget — almost certainly a crashed host. Stop retrying and
            // end the flow in a terminal, attributable state.
            ctx.flow_aborted(netsim::trace::AbortReason::MaxRtosExceeded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::ids::{FlowId, NodeId};

    fn spec(size: u64) -> FlowSpec {
        FlowSpec::new(FlowId(0), NodeId(0), NodeId(1), size, SimTime::ZERO)
    }

    #[test]
    fn l2dct_weight_monotone_decreasing() {
        let w0 = FamilySender::l2dct_weight(0);
        let w1 = FamilySender::l2dct_weight(100 * 1024);
        let w2 = FamilySender::l2dct_weight(500 * 1024);
        let w3 = FamilySender::l2dct_weight(10 * 1024 * 1024);
        assert_eq!(w0, 2.5);
        assert!(w1 < w0, "{w1} < {w0}");
        assert!(w2 < w1, "{w2} < {w1}");
        assert_eq!(w3, 0.125);
    }

    #[test]
    fn d2tcp_d_no_deadline_is_neutral() {
        let s = FamilySender::new(&spec(100_000), Flavor::D2tcp);
        assert_eq!(s.d2tcp_d(SimTime::from_millis(1)), 1.0);
    }

    #[test]
    fn d2tcp_d_clamps_and_grows_with_urgency() {
        let sp = spec(1_000_000).with_deadline(SimDuration::from_millis(10));
        let s = FamilySender::new(&sp, Flavor::D2tcp);
        // Far from the deadline with a big window: low urgency.
        let d_early = s.d2tcp_d(SimTime::from_micros(1));
        // Very close to the deadline: max urgency.
        let d_near = s.d2tcp_d(SimTime::from_nanos(9_999_999));
        // Past the deadline: back to neutral (no stealing from meetable
        // flows).
        let d_past = s.d2tcp_d(SimTime::from_millis(10));
        assert!((0.5..=2.0).contains(&d_early));
        assert_eq!(d_near, 2.0);
        assert_eq!(d_past, 1.0);
    }

    #[test]
    fn reno_packets_are_not_ecn_capable() {
        let mut c = FamilySender::customize(Flavor::Reno);
        let mut p = Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, 1460);
        c(&mut p);
        assert!(!p.ecn_capable);
        let mut c = FamilySender::customize(Flavor::Dctcp);
        c(&mut p);
        assert!(p.ecn_capable);
    }
}
