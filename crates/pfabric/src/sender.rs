//! The pFabric sender: minimal rate control at line rate.
//!
//! Per the pFabric paper (SIGCOMM'13 §4.2), endpoints do almost nothing:
//!
//! * flows start at line rate (window = BDP) and never grow or shrink the
//!   window — scheduling is entirely the fabric's job;
//! * every packet carries the flow's **remaining size** as its priority
//!   rank (SRPT-approximating);
//! * loss recovery is SACK-style per-segment with a small fixed RTO
//!   (Table 3: 1 ms ≈ 3.3 RTT) and no RTT estimation;
//! * after several consecutive timeouts the sender enters *probe mode*,
//!   sending header-only probes until one is answered, then resumes at
//!   line rate.
//!
//! The PASE paper's Figure 4 shows the consequence this crate must
//! reproduce: under all-to-all load, senders keep blasting and the fabric
//! sheds a large fraction of packets.
//!
//! Segment state is kept as acknowledged byte *ranges* plus the in-flight
//! set, so effectively infinite background flows cost O(window) memory.

use std::collections::BTreeSet;

use netsim::flow::FlowSpec;
use netsim::host::{AgentCtx, FlowAgent};
use netsim::packet::{Packet, PacketKind};
use netsim::time::SimDuration;
use netsim::timer::SupersedingTimer;
use transport::ByteTracker;

/// pFabric endpoint parameters (paper Table 3).
#[derive(Debug, Clone, Copy)]
pub struct PFabricConfig {
    /// Maximum segment payload, bytes.
    pub mss: u32,
    /// Fixed window, packets (= BDP; Table 3: 38 packets).
    pub cwnd_pkts: usize,
    /// Fixed retransmission timeout (Table 3: 1 ms ≈ 3.3 RTT).
    pub rto: SimDuration,
    /// Consecutive timeouts before entering probe mode.
    pub timeouts_before_probe: u32,
}

impl Default for PFabricConfig {
    fn default() -> Self {
        PFabricConfig {
            mss: 1460,
            cwnd_pkts: 38,
            rto: SimDuration::from_millis(1),
            timeouts_before_probe: 5,
        }
    }
}

/// pFabric sender agent.
#[derive(Debug)]
pub struct PFabricSender {
    spec: FlowSpec,
    cfg: PFabricConfig,
    /// Acknowledged byte ranges (selective).
    acked: ByteTracker,
    /// Sequences (segment starts) currently considered in flight; none of
    /// them acknowledged.
    inflight: BTreeSet<u64>,
    /// Every segment below this offset is acknowledged or in flight, so
    /// the search for the next one to send resumes here. An RTO, which
    /// empties `inflight`, resets it.
    unsent_from: u64,
    /// Highest sequence ever transmitted (for retransmission accounting).
    high_water: u64,
    consecutive_timeouts: u32,
    probe_mode: bool,
    timer_epoch: u64,
    rto_timer: SupersedingTimer,
    done: bool,
}

impl PFabricSender {
    /// Create a sender for `spec`.
    pub fn new(spec: &FlowSpec, cfg: PFabricConfig) -> PFabricSender {
        assert!(spec.size > 0);
        PFabricSender {
            spec: spec.clone(),
            cfg,
            acked: ByteTracker::new(),
            inflight: BTreeSet::new(),
            unsent_from: 0,
            high_water: 0,
            consecutive_timeouts: 0,
            probe_mode: false,
            timer_epoch: 0,
            rto_timer: SupersedingTimer::new(spec.id),
            done: false,
        }
    }

    /// The flow's remaining (unacknowledged) bytes — its pFabric priority.
    pub fn remaining(&self) -> u64 {
        self.spec.size - self.acked.bytes_received().min(self.spec.size)
    }

    fn seg_len(&self, seq: u64) -> u32 {
        debug_assert!(seq < self.spec.size);
        self.cfg
            .mss
            .min((self.spec.size - seq).min(u32::MAX as u64) as u32)
    }

    fn all_acked(&self) -> bool {
        self.acked.bytes_received() >= self.spec.size
    }

    /// Apply the cumulative and selective parts of an (probe-)ack.
    fn absorb_ack(&mut self, pkt: &Packet) {
        if pkt.seq > 0 {
            self.acked.on_range(0, pkt.seq);
            self.land(0, pkt.seq);
        }
        if let Some(sacked) = pkt.sack {
            if sacked < self.spec.size {
                let end = sacked + self.seg_len(sacked) as u64;
                self.acked.on_range(sacked, end);
                self.land(sacked, end);
            }
        }
        self.consecutive_timeouts = 0;
        self.probe_mode = false;
    }

    /// Segments starting in `[start, end)`, just acknowledged, are no
    /// longer in flight.
    fn land(&mut self, start: u64, end: u64) {
        while let Some(&seq) = self.inflight.range(start..end).next() {
            self.inflight.remove(&seq);
        }
    }

    /// The lowest unacknowledged, not-in-flight segment at or after
    /// `from`, if any.
    fn next_unsent(&self, mut from: u64) -> Option<u64> {
        let mss = self.cfg.mss as u64;
        // Align to segment grid.
        from -= from % mss;
        while from < self.spec.size {
            if !self.inflight.contains(&from) && !self.acked.contains(from, from + 1) {
                return Some(from);
            }
            from += mss;
        }
        None
    }

    /// Mark the next segment the fixed window allows in flight and return
    /// its start and length.
    fn claim_segment(&mut self) -> Option<(u64, u32)> {
        if self.inflight.len() >= self.cfg.cwnd_pkts {
            return None;
        }
        let Some(seq) = self.next_unsent(self.unsent_from.max(self.acked.cum_ack())) else {
            self.unsent_from = self.spec.size;
            return None;
        };
        let len = self.seg_len(seq);
        self.inflight.insert(seq);
        self.unsent_from = seq + len as u64;
        Some((seq, len))
    }

    /// Transmit segments up to the fixed window.
    fn pump(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.probe_mode {
            return;
        }
        while let Some((seq, len)) = self.claim_segment() {
            let mut pkt = Packet::data(self.spec.id, self.spec.src, self.spec.dst, seq, len);
            // pFabric switches do the scheduling; no ECN.
            pkt.ecn_capable = false;
            pkt.rank = self.remaining();
            if seq < self.high_water {
                ctx.sim.stats.note_retransmit(self.spec.id, len as u64);
            }
            self.high_water = self.high_water.max(seq + len as u64);
            ctx.send(pkt);
        }
        self.arm_timer(ctx);
    }

    fn send_probe(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let mut probe = Packet::probe(self.spec.id, self.spec.src, self.spec.dst, 0);
        probe.ecn_capable = false;
        probe.rank = self.remaining();
        ctx.sim.stats.note_probe(self.spec.id);
        ctx.send(probe);
        self.arm_timer(ctx);
    }

    fn arm_timer(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.all_acked() {
            return;
        }
        self.timer_epoch += 1;
        self.rto_timer.arm(ctx.sim, self.cfg.rto, self.timer_epoch);
    }
}

impl FlowAgent for PFabricSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.pump(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        match pkt.kind {
            PacketKind::Ack | PacketKind::ProbeAck => self.absorb_ack(&pkt),
            _ => return,
        }
        if self.all_acked() {
            ctx.flow_completed();
            self.done = true;
            return;
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        self.rto_timer.fired(ctx.sim, token);
        if self.done || token != self.timer_epoch {
            return;
        }
        ctx.sim.stats.note_timeout(self.spec.id);
        self.consecutive_timeouts += 1;
        // Everything outstanding is presumed lost.
        self.inflight.clear();
        self.unsent_from = 0;
        if self.consecutive_timeouts >= self.cfg.timeouts_before_probe {
            self.probe_mode = true;
            self.send_probe(ctx);
        } else {
            self.pump(ctx);
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ids::{FlowId, NodeId};
    use netsim::time::SimTime;

    fn sender(size: u64) -> PFabricSender {
        let spec = FlowSpec::new(FlowId(0), NodeId(0), NodeId(1), size, SimTime::ZERO);
        PFabricSender::new(&spec, PFabricConfig::default())
    }

    fn ack(seq: u64, sack: Option<u64>) -> Packet {
        let mut p = Packet::ack(FlowId(0), NodeId(1), NodeId(0), seq);
        p.sack = sack;
        p
    }

    #[test]
    fn remaining_tracks_selective_acks() {
        let mut s = sender(3000);
        assert_eq!(s.remaining(), 3000);
        // SACK of the last (partial, 80-byte) segment.
        s.absorb_ack(&ack(0, Some(2920)));
        assert_eq!(s.remaining(), 2920);
        // Cumulative ack through the first segment.
        s.absorb_ack(&ack(1460, None));
        assert_eq!(s.remaining(), 1460);
        s.absorb_ack(&ack(0, Some(1460)));
        assert_eq!(s.remaining(), 0);
        assert!(s.all_acked());
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let mut s = sender(3000);
        s.absorb_ack(&ack(1460, None));
        s.absorb_ack(&ack(1460, Some(0)));
        assert_eq!(s.remaining(), 1540);
    }

    #[test]
    fn next_unsent_skips_acked_and_inflight() {
        let mut s = sender(5 * 1460);
        s.acked.on_range(1460, 2920); // segment 1 acked
        s.inflight.insert(0);
        assert_eq!(s.next_unsent(0), Some(2920));
        s.inflight.insert(2920);
        assert_eq!(s.next_unsent(0), Some(4380));
    }

    /// The per-ACK bookkeeping this module shipped with, kept as the
    /// reference: sweep the whole in-flight set against the tracker on
    /// every ack, and search for the next segment from the cumulative
    /// ack point on every pump.
    struct Reference {
        s: PFabricSender,
    }

    impl Reference {
        fn absorb_ack(&mut self, pkt: &Packet) {
            let s = &mut self.s;
            if pkt.seq > 0 {
                s.acked.on_range(0, pkt.seq);
            }
            if let Some(sacked) = pkt.sack {
                if sacked < s.spec.size {
                    s.acked.on_range(sacked, sacked + s.seg_len(sacked) as u64);
                }
            }
            let acked = &s.acked;
            s.inflight.retain(|&seq| !acked.contains(seq, seq + 1));
        }

        fn pump(&mut self) -> Vec<(u64, u32)> {
            let s = &mut self.s;
            let mut sent = Vec::new();
            let mut cursor = s.acked.cum_ack();
            while s.inflight.len() < s.cfg.cwnd_pkts {
                let Some(seq) = s.next_unsent(cursor) else {
                    break;
                };
                let len = s.seg_len(seq);
                s.inflight.insert(seq);
                sent.push((seq, len));
                cursor = seq + len as u64;
            }
            sent
        }
    }

    /// Random scripts of cumulative acks, SACKs (aligned or not, known
    /// segments or not), timeouts and pumps, on flows that end inside the
    /// script and on one that never ends: the incremental bookkeeping
    /// sends the same segments in the same order with the same ranks and
    /// keeps the same in-flight set as the reference.
    #[test]
    fn incremental_ack_bookkeeping_matches_the_reference() {
        let mut rng = netsim::rng::Rng::seed_from_u64(0xfab_5eed);
        for round in 0..60u64 {
            let size = match round % 3 {
                0 => 1 + rng.gen_below(40 * 1460),
                1 => 200 * 1460 + rng.gen_below(1460),
                _ => u64::MAX / 2,
            };
            let (mut new, mut old) = (sender(size), Reference { s: sender(size) });
            let mut sent_upto = 0u64;
            for step in 0..400 {
                match rng.gen_below(8) {
                    0 => {
                        new.inflight.clear();
                        new.unsent_from = 0;
                        old.s.inflight.clear();
                    }
                    1..=4 => {
                        // Mostly plausible acks: somewhere in what was sent.
                        let span = sent_upto.min(size) + 1;
                        let cum = match rng.gen_below(4) {
                            0 => 0,
                            1 => rng.gen_below(span),
                            _ => rng.gen_below(span) / 1460 * 1460,
                        };
                        let sack = match rng.gen_below(4) {
                            0 => None,
                            1 => Some(rng.gen_below(span + 3000)),
                            _ => Some(rng.gen_below(span) / 1460 * 1460),
                        };
                        let pkt = ack(cum.min(size), sack);
                        new.absorb_ack(&pkt);
                        old.absorb_ack(&pkt);
                    }
                    _ => {
                        let claimed: Vec<(u64, u32)> =
                            std::iter::from_fn(|| new.claim_segment()).collect();
                        assert_eq!(claimed, old.pump(), "round {round} step {step}");
                        if let Some(&(seq, len)) = claimed.last() {
                            sent_upto = sent_upto.max(seq + len as u64);
                        }
                    }
                }
                assert_eq!(new.inflight, old.s.inflight, "round {round} step {step}");
                assert_eq!(new.remaining(), old.s.remaining(), "round {round}");
            }
        }
    }

    #[test]
    fn background_size_flows_use_constant_memory() {
        // This used to allocate one flag per segment — petabytes for a
        // background flow.
        let spec = FlowSpec::background(FlowId(0), NodeId(0), NodeId(1), SimTime::ZERO);
        let s = PFabricSender::new(&spec, PFabricConfig::default());
        assert!(s.remaining() > 1 << 60);
        assert_eq!(s.next_unsent(0), Some(0));
    }
}
