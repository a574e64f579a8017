//! PDQ endpoints: rate-paced sender and header-echoing receiver.
//!
//! The sender is *dumb by design* (the PASE paper's critique, §2.2): it
//! transmits at exactly the rate the switches allocate. When paused it
//! sends only periodic probes (with suppressed probing backoff); when
//! granted it paces data at the granted rate. Losing or gaining the
//! allocation takes at least one RTT to reach the sender — the
//! flow-switching overhead that degrades PDQ at high load (paper Fig. 2).

use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentCtx, FlowAgent};
use netsim::packet::{Packet, PacketKind};
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::timer::{slot, SupersedingTimer, Timer};
use transport::{segment_len, RttEstimator, SimpleReceiver, MAX_RTO, MIN_RTO, MSS};

use crate::config::{
    PdqConfig, PROBE_INTERVAL_MAX_RTTS, PROBE_INTERVAL_RTTS, PROBE_SUPPRESS_FACTOR,
};
use crate::header::PdqHeader;

/// The PDQ sender agent.
#[derive(Debug)]
pub struct PdqSender {
    spec: FlowSpec,
    cfg: PdqConfig,
    snd_nxt: u64,
    cum_ack: u64,
    /// Rate granted end-to-end (zero = paused or not yet granted).
    rate: Rate,
    paused: bool,
    rtt: RttEstimator,
    /// Consecutive paused probes, for suppressed probing.
    paused_probes: u32,
    /// The next data packet's send time; eager, one event per packet.
    pace: Timer,
    /// The next paused-flow probe; eager.
    probe: Timer,
    /// The retransmission timeout, superseded by every data packet and
    /// grant.
    rto: SupersedingTimer,
}

impl PdqSender {
    /// Create a sender for `spec`.
    pub fn new(spec: &FlowSpec, cfg: PdqConfig) -> PdqSender {
        PdqSender {
            spec: spec.clone(),
            cfg,
            snd_nxt: 0,
            cum_ack: 0,
            rate: Rate::ZERO,
            paused: true,
            rtt: RttEstimator::new(MIN_RTO, MAX_RTO),
            paused_probes: 0,
            pace: Timer::new(slot::PACE),
            probe: Timer::new(slot::PROBE),
            rto: SupersedingTimer::new(spec.id, slot::RTO),
        }
    }

    /// Granted rate (for tests).
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Paused state (for tests).
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    fn remaining(&self) -> u64 {
        self.spec.size - self.cum_ack
    }

    fn srtt(&self) -> SimDuration {
        self.rtt.srtt().unwrap_or(self.cfg.base_rtt)
    }

    /// The request header; a sender asks for its NIC rate.
    fn header(&self, ctx: &AgentCtx<'_, '_>) -> PdqHeader {
        PdqHeader::request(
            ctx.host.port.rate,
            self.remaining(),
            self.spec.deadline_abs(),
            self.srtt(),
        )
    }

    /// Send a probe carrying the current request.
    fn send_probe(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let hdr = self.header(ctx);
        let mut probe = Packet::probe(self.spec.id, self.spec.src, self.spec.dst, self.cum_ack);
        probe.proto = Some(Box::new(hdr));
        probe.ecn_capable = false;
        ctx.sim.stats.note_probe(self.spec.id);
        ctx.send(probe);
        // Schedule the next probe with suppression.
        let factor =
            PROBE_SUPPRESS_FACTOR.powi(self.paused_probes.min(16) as i32) * PROBE_INTERVAL_RTTS;
        let interval = self.srtt().mul_f64(factor.min(PROBE_INTERVAL_MAX_RTTS));
        self.paused_probes = self.paused_probes.saturating_add(1);
        ctx.set_timer(interval, self.probe.arm());
    }

    /// Send one data segment and schedule the next pacing tick.
    fn pace_one(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.paused || self.rate.is_zero() || self.snd_nxt >= self.spec.size {
            return;
        }
        let len = segment_len(MSS, self.spec.size, self.snd_nxt);
        let mut pkt = Packet::data(
            self.spec.id,
            self.spec.src,
            self.spec.dst,
            self.snd_nxt,
            len,
        );
        pkt.proto = Some(Box::new(self.header(ctx)));
        pkt.ecn_capable = false;
        let wire = pkt.wire_bytes as u64;
        ctx.send(pkt);
        self.snd_nxt += len as u64;
        self.arm_rto(ctx);
        if self.snd_nxt < self.spec.size {
            let gap = self.rate.tx_time(wire);
            ctx.set_timer(gap, self.pace.arm());
        }
    }

    fn arm_rto(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.rto.arm(ctx.sim, self.rtt.rto());
    }

    /// Send the termination packet so switches release our state.
    fn send_term(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let mut term = Packet::probe(self.spec.id, self.spec.src, self.spec.dst, self.snd_nxt);
        term.proto = Some(Box::new(PdqHeader::terminate(self.remaining())));
        term.ecn_capable = false;
        ctx.send(term);
    }

    /// Early Termination: abort if the deadline has become unmeetable.
    fn deadline_unmeetable(&self, now: SimTime) -> bool {
        if !self.cfg.early_termination {
            return false;
        }
        let Some(deadline) = self.spec.deadline_abs() else {
            return false;
        };
        if now >= deadline {
            return true;
        }
        // Even at full demand the transfer cannot finish in time.
        let best_finish = now + Rate::from_gbps(1).tx_time(self.remaining());
        let granted_finish = if self.rate.is_zero() {
            SimTime::MAX
        } else {
            now + self.rate.tx_time(self.remaining())
        };
        best_finish > deadline && granted_finish > deadline
    }
}

impl FlowAgent for PdqSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        // PDQ pays one RTT of setup: probe first, data only after a grant.
        self.send_probe(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if !matches!(pkt.kind, PacketKind::Ack | PacketKind::ProbeAck) {
            return;
        }
        let now = ctx.now();
        // Cumulative ack processing.
        if pkt.seq > self.cum_ack {
            self.cum_ack = pkt.seq;
            if let Some(ts) = pkt.ts_echo {
                if let Some(sample) = now.checked_since(ts) {
                    self.rtt.on_sample(sample);
                }
            }
        }
        if self.cum_ack >= self.spec.size {
            self.send_term(ctx);
            ctx.flow_completed();
            return;
        }
        // Adopt the echoed allocation.
        let was_paused = self.paused;
        if let Some(hdr) = pkt.proto_ref::<PdqHeader>() {
            self.rate = hdr.rate;
            self.paused = hdr.paused || hdr.rate.is_zero();
        }
        if self.deadline_unmeetable(now) {
            self.send_term(ctx);
            ctx.flow_aborted(netsim::trace::AbortReason::EarlyTermination);
            return;
        }
        if self.paused {
            self.rate = Rate::ZERO;
            if !was_paused {
                // Freshly paused: start probing (the probe timer may not be
                // running while data flows).
                self.paused_probes = 0;
                self.send_probe(ctx);
            }
        } else {
            self.paused_probes = 0;
            if was_paused {
                // Freshly granted: start pacing immediately.
                self.pace_one(ctx);
            } else {
                self.arm_rto(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        if self.pace.is_current(token) {
            self.pace_one(ctx);
        } else if self.probe.is_current(token) {
            if self.paused {
                self.send_probe(ctx);
            }
        } else if self.rto.fire(ctx.sim, token) && self.snd_nxt > self.cum_ack {
            // Go-back-N: rewind to the cumulative ack.
            ctx.sim.stats.note_timeout(self.spec.id);
            self.rtt.on_timeout();
            let lost = self.snd_nxt - self.cum_ack;
            ctx.sim.stats.note_retransmit(self.spec.id, lost);
            self.snd_nxt = self.cum_ack;
            if self.paused {
                self.send_probe(ctx);
            } else {
                self.pace_one(ctx);
            }
        }
    }
}

/// PDQ receiver: the shared receiver's cumulative ACKs
/// ([`SimpleReceiver::acknowledge`]), each echoing the (switch-clamped)
/// scheduling header back to the sender, and none for a terminating
/// packet.
#[derive(Debug)]
pub struct PdqReceiver {
    rx: SimpleReceiver,
}

impl PdqReceiver {
    /// Create a receiver for the flow identified by `hint`.
    pub fn new(hint: ReceiverHint) -> PdqReceiver {
        PdqReceiver {
            rx: SimpleReceiver::new(hint),
        }
    }
}

impl FlowAgent for PdqReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        let Some(mut ack) = self.rx.acknowledge(&pkt) else {
            return;
        };
        let hdr = pkt.proto_ref::<PdqHeader>().copied();
        if hdr.is_some_and(|h| h.term) {
            return; // nothing to acknowledge on termination
        }
        if let Some(h) = hdr {
            ack.proto = Some(Box::new(h));
        }
        ctx.send(ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ids::{FlowId, NodeId};

    #[test]
    fn token_layout_separates_kinds() {
        let spec = FlowSpec::new(FlowId(0), NodeId(0), NodeId(1), 10_000, SimTime::ZERO);
        let mut s = PdqSender::new(&spec, PdqConfig::default());
        // The three timers' first arms share an epoch, not a token.
        let (pace, probe) = (s.pace.arm(), s.probe.arm());
        assert_ne!(pace, probe);
        assert!(s.pace.is_current(pace) && !s.pace.is_current(probe));
        assert!(s.probe.is_current(probe) && !s.probe.is_current(pace));
        let mut rto = Timer::new(slot::RTO);
        let rto = rto.arm();
        assert!(!s.pace.is_current(rto) && !s.probe.is_current(rto));
    }

    #[test]
    fn sender_starts_paused_with_no_rate() {
        let spec = FlowSpec::new(FlowId(0), NodeId(0), NodeId(1), 10_000, SimTime::ZERO);
        let s = PdqSender::new(&spec, PdqConfig::default());
        assert!(s.is_paused());
        assert!(s.rate().is_zero());
        assert_eq!(s.remaining(), 10_000);
    }
}
