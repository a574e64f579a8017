//! The shared receiver endpoint.
//!
//! All transports in this workspace use the same receiver behaviour: every
//! data packet is acknowledged immediately with a cumulative ACK that
//! echoes the packet's ECN CE mark (like DCTCP with delayed ACKs disabled),
//! its origin timestamp (for RTT sampling) and its sequence (as a selective
//! acknowledgment for transports that keep per-segment state, e.g.
//! pFabric). Probes are answered with probe-ACKs carrying the same
//! information.

use netsim::flow::ReceiverHint;
use netsim::host::{AgentCtx, FlowAgent};
use netsim::packet::{Packet, PacketKind};

use crate::tracker::ByteTracker;

/// Receiver agent: tracks received ranges, emits cumulative ACKs.
///
/// ACKs ride the top priority band and rank 0 for every scheme — the
/// values [`Packet::ack`] and [`Packet::probe_ack`] already carry. They are
/// tiny and pace the forward path, so queueing them behind bulk data would
/// distort its scheduling: PASE's strict-priority bands and pFabric's rank
/// order both serve them first.
#[derive(Debug)]
pub struct SimpleReceiver {
    hint: ReceiverHint,
    tracker: ByteTracker,
    /// Sender-host incarnation this flow's state belongs to, pinned from
    /// the first packet seen. A crashed-and-restarted sender comes back
    /// with a higher incarnation: its (restarted) flows must not be
    /// corrupted by state accumulated from the pre-crash instance, so a
    /// higher incarnation resets the tracker and lower ones are discarded.
    incarnation: Option<u32>,
}

impl SimpleReceiver {
    /// Create a receiver for the flow identified by `hint`.
    pub fn new(hint: ReceiverHint) -> SimpleReceiver {
        SimpleReceiver {
            hint,
            tracker: ByteTracker::new(),
            incarnation: None,
        }
    }

    /// Admission check against the sender-incarnation pin. Returns `false`
    /// for packets from an older incarnation (drop silently: any ACK would
    /// confuse the restarted flow); resets received-range state when a
    /// newer incarnation appears.
    fn admit(&mut self, pkt: &Packet) -> bool {
        match self.incarnation {
            None => {
                self.incarnation = Some(pkt.incarnation);
                true
            }
            Some(cur) if pkt.incarnation < cur => false,
            Some(cur) => {
                if pkt.incarnation > cur {
                    self.incarnation = Some(pkt.incarnation);
                    self.tracker = ByteTracker::new();
                }
                true
            }
        }
    }

    /// Bytes received so far (including out-of-order data).
    pub fn bytes_received(&self) -> u64 {
        self.tracker.bytes_received()
    }

    /// Take in a data packet or a probe and return its acknowledgment: a
    /// cumulative ACK (a probe-ACK for a probe) echoing the packet's CE
    /// mark, timestamp and sequence. `None` for a packet of an older
    /// sender incarnation, which any ACK would confuse, and for the kinds
    /// a receiver does not answer. A scheme's own receiver builds on this
    /// and sends the ACK itself.
    pub fn acknowledge(&mut self, pkt: &Packet) -> Option<Packet> {
        if !matches!(pkt.kind, PacketKind::Data | PacketKind::Probe) || !self.admit(pkt) {
            return None;
        }
        if pkt.kind == PacketKind::Data {
            self.tracker.on_range(pkt.seq, pkt.seq_end());
        }
        let (hint, cum_ack) = (&self.hint, self.tracker.cum_ack());
        let mut ack = match pkt.kind {
            PacketKind::Probe => Packet::probe_ack(hint.flow, hint.dst, hint.src, cum_ack),
            _ => Packet::ack(hint.flow, hint.dst, hint.src, cum_ack),
        };
        ack.ece = pkt.ecn_ce;
        ack.ts_echo = Some(pkt.ts);
        ack.sack = Some(pkt.seq);
        Some(ack)
    }
}

/// Receivers never record a flow end, so they stay resident: late
/// retransmissions must still be acknowledged, and the receiver does not
/// know the flow size.
impl FlowAgent for SimpleReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if let Some(ack) = self.acknowledge(&pkt) {
            ctx.send(ack);
        }
    }
}
