//! Regression test: out-of-order arrivals at the receiver.
//!
//! Failure-aware rerouting (netsim `route_live`) can re-hash a flow onto a
//! different ECMP path mid-stream, so segments may arrive out of order
//! even without loss. The shared receiver must buffer reordered segments
//! and acknowledge cumulatively — never treat a gap as permanent loss.

use netsim::engine::{Ctx, Scheduler};
use netsim::event::EventKind;
use netsim::flow::ReceiverHint;
use netsim::host::{AgentCtx, FlowAgent, HostCore};
use netsim::ids::{FlowId, NodeId, PortId};
use netsim::packet::{Packet, PacketKind};
use netsim::port::Port;
use netsim::queue::DropTailQdisc;
use netsim::stats::StatsCollector;
use netsim::time::{Rate, SimDuration};
use transport::{SimpleReceiver, MSS};

/// A receiver host whose access port we can drain for emitted ACKs.
struct Rig {
    host: HostCore,
    sched: Scheduler,
    stats: StatsCollector,
    rx: SimpleReceiver,
}

impl Rig {
    fn new() -> Rig {
        let host = HostCore {
            id: NodeId(1),
            port: Port::new(
                PortId(0),
                NodeId(2), // ToR
                Rate::from_gbps(1),
                SimDuration::from_micros(25),
                Box::new(DropTailQdisc::new(64)),
            ),
            incarnation: 0,
        };
        let hint = ReceiverHint {
            flow: FlowId(7),
            src: NodeId(0),
            dst: NodeId(1),
        };
        Rig {
            host,
            sched: Scheduler::new(),
            stats: StatsCollector::new(),
            rx: SimpleReceiver::new(hint),
        }
    }

    /// Feed one data segment (seq in segment units) into the receiver and
    /// return the ACK it emitted.
    fn deliver_segment(&mut self, segment: u64) -> Packet {
        self.deliver_segment_from_incarnation(segment, 0)
            .expect("receiver must emit an ACK for every data segment")
    }

    /// Feed a segment stamped with a sender-host incarnation; returns the
    /// ACK, or `None` when the receiver discarded the segment.
    fn deliver_segment_from_incarnation(
        &mut self,
        segment: u64,
        incarnation: u32,
    ) -> Option<Packet> {
        let mut pkt = Packet::data(FlowId(7), NodeId(0), NodeId(1), segment * MSS as u64, MSS);
        pkt.incarnation = incarnation;
        {
            let mut ctx = Ctx {
                node: NodeId(1),
                sched: &mut self.sched,
                stats: &mut self.stats,
            };
            let mut actx = AgentCtx::new(FlowId(7), &mut self.host, None, &mut ctx);
            self.rx.on_packet(pkt, &mut actx);
        }
        self.drain_one_ack()
    }

    /// Run the port's serializer until the ACK (if any) lands on the wire.
    fn drain_one_ack(&mut self) -> Option<Packet> {
        loop {
            let (target, kind) = self.sched.pop()?;
            match kind {
                EventKind::TxComplete(_) => {
                    let mut c = Ctx {
                        node: target,
                        sched: &mut self.sched,
                        stats: &mut self.stats,
                    };
                    self.host.port.on_tx_complete(&mut c);
                }
                EventKind::Deliver(pkt) => {
                    assert_eq!(pkt.kind, PacketKind::Ack);
                    return Some(*pkt);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}

#[test]
fn reordered_segments_are_buffered_and_cumulatively_acked() {
    let mut rig = Rig::new();

    // Segment 0 arrives in order: cum-ack advances to 1 MSS.
    let ack0 = rig.deliver_segment(0);
    assert_eq!(ack0.seq, MSS as u64);
    assert_eq!(ack0.sack, Some(0));

    // Segment 2 arrives early (segment 1 took the slow path). The
    // cumulative ack must NOT advance past the gap, but the data must be
    // buffered and reported via the selective field.
    let ack2 = rig.deliver_segment(2);
    assert_eq!(ack2.seq, MSS as u64, "cum-ack must hold at the gap");
    assert_eq!(ack2.sack, Some(2 * MSS as u64));
    assert_eq!(
        rig.rx.bytes_received(),
        2 * MSS as u64,
        "out-of-order segment must be buffered, not discarded"
    );

    // Segment 1 fills the gap: the frontier jumps over the buffered
    // segment 2 in one step — no retransmission of segment 2 needed.
    let ack1 = rig.deliver_segment(1);
    assert_eq!(
        ack1.seq,
        3 * MSS as u64,
        "filling the gap must ack all buffered contiguous data"
    );
    assert_eq!(rig.rx.bytes_received(), 3 * MSS as u64);
}

#[test]
fn duplicate_segment_reacks_without_double_counting() {
    let mut rig = Rig::new();
    rig.deliver_segment(0);
    let dup = rig.deliver_segment(0);
    // A duplicate still produces an ACK (the original may have been lost)
    // but received-byte accounting must not inflate.
    assert_eq!(dup.seq, MSS as u64);
    assert_eq!(rig.rx.bytes_received(), MSS as u64);
}

#[test]
fn segments_from_an_older_incarnation_are_discarded() {
    let mut rig = Rig::new();
    // The flow's first packet pins incarnation 3 (the sender host had
    // crashed and restarted before this flow started).
    let ack = rig
        .deliver_segment_from_incarnation(0, 3)
        .expect("first-seen incarnation is admitted");
    assert_eq!(ack.seq, MSS as u64);
    // A stray pre-crash packet (older incarnation) must be dropped
    // silently: no ACK — acknowledging it would confuse the restarted
    // sender — and no byte accounting.
    assert!(rig.deliver_segment_from_incarnation(1, 1).is_none());
    assert_eq!(rig.rx.bytes_received(), MSS as u64);
    // Current-incarnation traffic keeps flowing.
    let ack = rig
        .deliver_segment_from_incarnation(1, 3)
        .expect("pinned incarnation still admitted");
    assert_eq!(ack.seq, 2 * MSS as u64);
}

#[test]
fn a_newer_incarnation_resets_received_state() {
    let mut rig = Rig::new();
    rig.deliver_segment_from_incarnation(0, 0).unwrap();
    rig.deliver_segment_from_incarnation(1, 0).unwrap();
    assert_eq!(rig.rx.bytes_received(), 2 * MSS as u64);
    // The sender crashed and restarted; its new instance resends from
    // zero. Ranges received from the pre-crash instance must not make the
    // restarted flow appear further along than it is.
    let ack = rig
        .deliver_segment_from_incarnation(0, 1)
        .expect("newer incarnation admitted");
    assert_eq!(ack.seq, MSS as u64, "tracker must restart from scratch");
    assert_eq!(rig.rx.bytes_received(), MSS as u64);
}

#[test]
fn heavily_shuffled_arrival_order_converges() {
    let mut rig = Rig::new();
    // 8 segments delivered in a fixed shuffled order; the final ack must
    // cover all of them regardless of arrival order.
    let order = [3u64, 0, 7, 1, 2, 6, 4, 5];
    let mut last = 0;
    for &s in &order {
        last = rig.deliver_segment(s).seq;
    }
    assert_eq!(last, 8 * MSS as u64);
    assert_eq!(rig.rx.bytes_received(), 8 * MSS as u64);
}
