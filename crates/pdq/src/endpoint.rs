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
use netsim::timer::SupersedingTimer;
use transport::{ByteTracker, RttEstimator};

use crate::config::PdqConfig;
use crate::header::PdqHeader;

/// Timer token layout: low 2 bits select the timer, the rest is an epoch.
const KIND_PACE: u64 = 0;
const KIND_PROBE: u64 = 1;
const KIND_RTO: u64 = 2;

fn token(kind: u64, epoch: u64) -> u64 {
    (epoch << 2) | kind
}

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
    epoch: u64,
    pace_token: u64,
    probe_token: u64,
    rto_token: u64,
    rto_timer: SupersedingTimer,
    done: bool,
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
            rtt: RttEstimator::new(cfg.min_rto, cfg.max_rto),
            paused_probes: 0,
            epoch: 0,
            pace_token: u64::MAX,
            probe_token: u64::MAX,
            rto_token: u64::MAX,
            rto_timer: SupersedingTimer::new(spec.id),
            done: false,
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

    fn demand(&self, ctx: &AgentCtx<'_, '_>) -> Rate {
        let nic = ctx.host.port.rate;
        match self.cfg.demand_cap {
            Some(cap) => nic.min(cap),
            None => nic,
        }
    }

    fn header(&self, ctx: &AgentCtx<'_, '_>) -> PdqHeader {
        PdqHeader::request(
            self.demand(ctx),
            self.remaining(),
            self.spec.deadline_abs(),
            self.srtt(),
        )
    }

    fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
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
        let factor = self
            .cfg
            .probe_suppress_factor
            .powi(self.paused_probes.min(16) as i32)
            * self.cfg.probe_interval_rtts;
        let interval = self
            .srtt()
            .mul_f64(factor.min(self.cfg.probe_interval_max_rtts));
        self.paused_probes = self.paused_probes.saturating_add(1);
        let ep = self.next_epoch();
        self.probe_token = token(KIND_PROBE, ep);
        ctx.set_timer(interval, self.probe_token);
    }

    /// Send one data segment and schedule the next pacing tick.
    fn pace_one(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.done || self.paused || self.rate.is_zero() || self.snd_nxt >= self.spec.size {
            return;
        }
        let len = self
            .cfg
            .mss
            .min((self.spec.size - self.snd_nxt).min(u32::MAX as u64) as u32);
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
            let ep = self.next_epoch();
            self.pace_token = token(KIND_PACE, ep);
            ctx.set_timer(gap, self.pace_token);
        }
    }

    fn arm_rto(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let ep = self.next_epoch();
        self.rto_token = token(KIND_RTO, ep);
        self.rto_timer.arm(ctx.sim, self.rtt.rto(), self.rto_token);
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
            self.done = true;
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
            self.done = true;
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

    fn on_timer(&mut self, tok: u64, ctx: &mut AgentCtx<'_, '_>) {
        if self.done {
            return;
        }
        if tok & 0b11 == KIND_RTO {
            self.rto_timer.fired(ctx.sim, tok);
        }
        match tok & 0b11 {
            KIND_PACE if tok == self.pace_token => self.pace_one(ctx),
            KIND_PROBE if tok == self.probe_token && self.paused => {
                self.send_probe(ctx);
            }
            KIND_RTO if tok == self.rto_token && self.snd_nxt > self.cum_ack => {
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
            _ => {} // stale timer
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// PDQ receiver: cumulative ACKs that echo the (switch-clamped) scheduling
/// header back to the sender.
#[derive(Debug)]
pub struct PdqReceiver {
    hint: ReceiverHint,
    tracker: ByteTracker,
}

impl PdqReceiver {
    /// Create a receiver for the flow identified by `hint`.
    pub fn new(hint: ReceiverHint) -> PdqReceiver {
        PdqReceiver {
            hint,
            tracker: ByteTracker::new(),
        }
    }
}

impl FlowAgent for PdqReceiver {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_, '_>) {}

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        let (is_data, is_probe) = match pkt.kind {
            PacketKind::Data => (true, false),
            PacketKind::Probe => (false, true),
            _ => return,
        };
        if is_data {
            self.tracker.on_range(pkt.seq, pkt.seq_end());
        }
        let hdr = pkt.proto_ref::<PdqHeader>().copied();
        if hdr.is_some_and(|h| h.term) {
            return; // nothing to acknowledge on termination
        }
        let mut ack = if is_probe {
            Packet::probe_ack(
                self.hint.flow,
                self.hint.dst,
                self.hint.src,
                self.tracker.cum_ack(),
            )
        } else {
            Packet::ack(
                self.hint.flow,
                self.hint.dst,
                self.hint.src,
                self.tracker.cum_ack(),
            )
        };
        ack.ts_echo = Some(pkt.ts);
        ack.sack = Some(pkt.seq);
        if let Some(h) = hdr {
            ack.proto = Some(Box::new(h));
        }
        ctx.send(ack);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut AgentCtx<'_, '_>) {}

    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ids::{FlowId, NodeId};

    #[test]
    fn token_layout_separates_kinds() {
        assert_ne!(token(KIND_PACE, 1), token(KIND_PROBE, 1));
        assert_ne!(token(KIND_PROBE, 1), token(KIND_RTO, 1));
        assert_eq!(token(KIND_RTO, 7) & 0b11, KIND_RTO);
        assert_eq!(token(KIND_RTO, 7) >> 2, 7);
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
