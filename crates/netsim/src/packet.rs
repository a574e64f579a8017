//! Packets.
//!
//! A [`Packet`] is the unit of transfer across links. It carries the fields
//! every protocol in this workspace needs (sequence/ack numbers, ECN bits,
//! a strict-priority band, a fine-grained rank) plus an opaque
//! protocol-specific extension (`proto`) for schemes that piggyback richer
//! headers on packets — e.g. PDQ's scheduling header or PASE's arbitration
//! messages. Keeping the extension as `dyn Any` keeps this substrate crate
//! independent of the protocol crates built on top of it.

use std::any::Any;

use crate::ids::{FlowId, NodeId};
use crate::time::SimTime;

/// Maximum segment payload, bytes: what every scheme's senders put in a
/// full-size data packet (`MSS + HEADER_BYTES` = 1500 B on the wire).
pub const MSS: u32 = 1460;
/// Ethernet + IP + TCP-ish header overhead modeled on every packet, bytes.
pub const HEADER_BYTES: u32 = 40;
/// Wire size of a header-only packet (ACK, probe, control), bytes.
pub const CONTROL_PKT_BYTES: u32 = 40;

/// What role a packet plays. The simulator core only distinguishes these for
/// accounting; forwarding treats all kinds identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Application payload from sender to receiver.
    Data,
    /// Acknowledgment from receiver to sender.
    Ack,
    /// Header-only probe used by PASE/pFabric loss recovery and by PDQ's
    /// paused flows.
    Probe,
    /// Acknowledgment of a probe.
    ProbeAck,
    /// Control-plane message (PASE arbitration traffic).
    Ctrl,
}

impl PacketKind {
    /// True for packets flowing receiver → sender.
    pub fn is_reverse(self) -> bool {
        matches!(self, PacketKind::Ack | PacketKind::ProbeAck)
    }
}

/// A packet in flight or queued.
#[derive(Debug)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host (or switch, for control messages addressed to an
    /// arbitrator co-located with a switch).
    pub dst: NodeId,
    /// Role of the packet.
    pub kind: PacketKind,
    /// For `Data`/`Probe`: byte offset of the first payload byte.
    /// For `Ack`/`ProbeAck`: cumulative acknowledgment (next expected byte).
    pub seq: u64,
    /// For `Ack`: the specific segment sequence being acknowledged
    /// (selective ack), if any. Lets senders with out-of-order delivery
    /// (pFabric) mark individual segments received.
    pub sack: Option<u64>,
    /// Application payload bytes carried (0 for header-only packets).
    pub payload_len: u32,
    /// Total size on the wire, including headers.
    pub wire_bytes: u32,
    /// Strict-priority band used by [`crate::queue::StrictPrioQdisc`];
    /// 0 is the highest priority.
    pub prio: u8,
    /// Fine-grained rank used by rank-scheduling queues (pFabric). Lower is
    /// more important. Unused by band-based queues.
    pub rank: u64,
    /// ECN-capable transport bit (ECT). Non-capable packets are dropped
    /// instead of marked by RED/ECN queues.
    pub ecn_capable: bool,
    /// Congestion-experienced mark (CE), set by queues.
    pub ecn_ce: bool,
    /// Echo of CE back to the sender (carried on ACKs, like TCP's ECE).
    pub ece: bool,
    /// Incarnation of the sending host when the packet entered its access
    /// port (stamped alongside `ts`). A host's incarnation bumps on every
    /// crash/restart cycle, so receivers can tell segments of a pre-crash
    /// flow incarnation from post-restart traffic and discard the former
    /// instead of corrupting the restarted flow's byte stream.
    pub incarnation: u32,
    /// Origin timestamp, stamped by the sending host when the packet first
    /// enters its access port. Switches never modify it.
    pub ts: SimTime,
    /// Echo of the `ts` of the packet being acknowledged (carried on ACKs,
    /// like TCP timestamps), so the sender can measure RTT without
    /// per-segment state.
    pub ts_echo: Option<SimTime>,
    /// Protocol-specific header extension (PDQ scheduling header, PASE
    /// arbitration payload, ...). `None` for plain transports.
    pub proto: Option<Box<dyn Any + Send>>,
    /// Payload corrupted in flight by a degraded link (gray failure). The
    /// destination's checksum detects it and discards the packet; the
    /// simulator charges it to the `corrupted` conservation term there.
    pub corrupted: bool,
}

impl Packet {
    /// Build a data packet of `payload_len` payload bytes.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, payload_len: u32) -> Packet {
        Packet {
            flow,
            src,
            dst,
            kind: PacketKind::Data,
            seq,
            sack: None,
            payload_len,
            wire_bytes: payload_len + HEADER_BYTES,
            prio: 0,
            rank: 0,
            ecn_capable: true,
            ecn_ce: false,
            ece: false,
            incarnation: 0,
            ts: SimTime::ZERO,
            ts_echo: None,
            proto: None,
            corrupted: false,
        }
    }

    /// Build a (cumulative) ACK for `flow`, acknowledging everything below
    /// `cum_ack`.
    pub fn ack(flow: FlowId, src: NodeId, dst: NodeId, cum_ack: u64) -> Packet {
        Packet {
            kind: PacketKind::Ack,
            seq: cum_ack,
            wire_bytes: CONTROL_PKT_BYTES,
            ecn_capable: false,
            proto: None,
            ..Packet::data(flow, src, dst, 0, 0)
        }
    }

    /// Build a header-only probe for byte offset `seq`.
    pub fn probe(flow: FlowId, src: NodeId, dst: NodeId, seq: u64) -> Packet {
        Packet {
            kind: PacketKind::Probe,
            ..Packet::data(flow, src, dst, seq, 0)
        }
    }

    /// Build the acknowledgment of a probe, echoing the receiver's
    /// cumulative-ack frontier.
    pub fn probe_ack(flow: FlowId, src: NodeId, dst: NodeId, cum_ack: u64) -> Packet {
        Packet {
            kind: PacketKind::ProbeAck,
            ..Packet::ack(flow, src, dst, cum_ack)
        }
    }

    /// Build a control packet carrying a protocol-specific payload.
    pub fn ctrl(flow: FlowId, src: NodeId, dst: NodeId, proto: Box<dyn Any + Send>) -> Packet {
        Packet {
            kind: PacketKind::Ctrl,
            seq: 0,
            wire_bytes: CONTROL_PKT_BYTES,
            ecn_capable: false,
            proto: Some(proto),
            ..Packet::data(flow, src, dst, 0, 0)
        }
    }

    /// Downcast the protocol extension to a concrete type, if present.
    pub fn proto_ref<T: 'static>(&self) -> Option<&T> {
        self.proto.as_deref().and_then(|p| p.downcast_ref::<T>())
    }

    /// Mutably downcast the protocol extension, if present.
    pub fn proto_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.proto
            .as_deref_mut()
            .and_then(|p| p.downcast_mut::<T>())
    }

    /// Take the protocol extension out of the packet, downcast.
    pub fn take_proto<T: 'static>(&mut self) -> Option<Box<T>> {
        match self.proto.take() {
            None => None,
            Some(p) => match p.downcast::<T>() {
                Ok(t) => Some(t),
                Err(p) => {
                    self.proto = Some(p);
                    None
                }
            },
        }
    }

    /// The exclusive end of the byte range this data packet covers.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload_len as u64
    }
}

/// A filler packet written into a recycled box when its real contents are
/// moved out — never scheduled, never observed.
fn scratch_packet() -> Packet {
    Packet::data(FlowId(0), NodeId(0), NodeId(0), 0, 0)
}

/// Snapshot of a [`PacketArena`]'s counters, published into
/// [`crate::stats::StatsCollector`] when a simulation run returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Packets handed out over the arena's lifetime.
    pub allocated: u64,
    /// Allocations served from the free list instead of the global heap.
    pub recycled: u64,
    /// Boxes returned (released or taken) over the arena's lifetime.
    pub released: u64,
    /// High-water mark of simultaneously outstanding packets.
    pub peak_outstanding: u64,
}

/// Free-list recycler for `Box<Packet>` storage.
///
/// Injection sites allocate through the arena ([`PacketArena::alloc`]);
/// every terminal site — a drop, a blackhole, a delivery into an agent or
/// process — gives the box back ([`PacketArena::release`] /
/// [`PacketArena::take`]), so steady-state simulation recycles a small
/// working set of boxes instead of hitting the allocator once per packet.
///
/// The conservation oracle cross-checks `outstanding` against the packets
/// actually held in ports and on the wire, and
/// [`crate::sim::Simulation::run`] asserts it is zero when a run drains:
/// a leak (a path that forgets to release) is a test failure, not a slow
/// memory creep.
///
/// `outstanding` is signed: unit tests that hand-build `Box<Packet>`s and
/// feed them into arena-released paths drive it negative, which is
/// harmless — the zero-at-drain assertion only applies to full
/// simulations where every packet came from the arena.
#[derive(Debug, Default)]
pub struct PacketArena {
    // The boxes themselves are the recycled resource: allocations are
    // handed out as `Box<Packet>` (the event queue requires stable,
    // movable heap slots), so the free list must store them boxed.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Packet>>,
    allocated: u64,
    recycled: u64,
    released: u64,
    outstanding: i64,
    peak_outstanding: i64,
}

/// Boxes kept for reuse; beyond this the storage goes back to the global
/// allocator. 2^16 boxes ≈ 9 MiB, far above any storm's in-network peak.
const FREE_LIST_CAP: usize = 1 << 16;

impl PacketArena {
    /// An empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Box `pkt`, reusing a recycled allocation when one is available.
    pub fn alloc(&mut self, pkt: Packet) -> Box<Packet> {
        self.allocated += 1;
        self.outstanding += 1;
        if self.outstanding > self.peak_outstanding {
            self.peak_outstanding = self.outstanding;
        }
        match self.free.pop() {
            Some(mut b) => {
                self.recycled += 1;
                *b = pkt;
                b
            }
            None => Box::new(pkt),
        }
    }

    /// Return a box whose packet is no longer needed (drop sites).
    pub fn release(&mut self, mut b: Box<Packet>) {
        self.released += 1;
        self.outstanding -= 1;
        if self.free.len() < FREE_LIST_CAP {
            // Drop the packet's owned data (`proto` box, ...) now rather
            // than pinning it until the box is reused or the arena drops.
            *b = scratch_packet();
            self.free.push(b);
        }
    }

    /// Move the packet out of its box and recycle the storage (delivery
    /// sites that hand the packet to an agent or process by value).
    pub fn take(&mut self, mut b: Box<Packet>) -> Packet {
        let pkt = core::mem::replace(&mut *b, scratch_packet());
        self.released += 1;
        self.outstanding -= 1;
        if self.free.len() < FREE_LIST_CAP {
            self.free.push(b);
        }
        pkt
    }

    /// Allocations minus releases: packets currently alive somewhere in
    /// the simulation (negative only under foreign-box unit tests; see
    /// the type docs).
    pub fn outstanding(&self) -> i64 {
        self.outstanding
    }

    /// Counter snapshot (peak clamped at zero for the foreign-box case).
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            allocated: self.allocated,
            recycled: self.recycled,
            released: self.released,
            peak_outstanding: self.peak_outstanding.max(0) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (FlowId, NodeId, NodeId) {
        (FlowId(1), NodeId(0), NodeId(1))
    }

    #[test]
    fn arena_recycles_boxes_and_balances_counters() {
        let (f, a, b) = ids();
        let mut arena = PacketArena::new();
        let p1 = arena.alloc(Packet::data(f, a, b, 0, 1000));
        let p2 = arena.alloc(Packet::ack(f, b, a, 1000));
        assert_eq!(arena.outstanding(), 2);
        arena.release(p1);
        let taken = arena.take(p2);
        assert_eq!((taken.kind, taken.seq), (PacketKind::Ack, 1000));
        assert_eq!(arena.outstanding(), 0);
        // Both boxes are on the free list now: the next two allocs reuse
        // them and the contents are fully overwritten.
        let p3 = arena.alloc(Packet::data(f, a, b, 500, 777));
        assert_eq!((p3.seq, p3.payload_len), (500, 777));
        let _p4 = arena.alloc(Packet::probe(f, a, b, 9));
        let st = arena.stats();
        assert_eq!(st.allocated, 4);
        assert_eq!(st.recycled, 2);
        assert_eq!(st.released, 2);
        assert_eq!(st.peak_outstanding, 2);
        assert_eq!(arena.outstanding(), 2);
    }

    #[test]
    fn release_drops_owned_payload_immediately() {
        use std::sync::Arc;
        let (f, a, b) = ids();
        let mut arena = PacketArena::new();
        let marker = Arc::new(());
        let pkt = arena.alloc(Packet::ctrl(f, a, b, Box::new(Arc::clone(&marker))));
        assert_eq!(Arc::strong_count(&marker), 2);
        arena.release(pkt);
        assert_eq!(
            Arc::strong_count(&marker),
            1,
            "released packet's proto payload must drop at release, not at box reuse"
        );
    }

    #[test]
    fn arena_tolerates_foreign_boxes() {
        let (f, a, b) = ids();
        let mut arena = PacketArena::new();
        arena.release(Box::new(Packet::data(f, a, b, 0, 1)));
        assert_eq!(arena.outstanding(), -1);
        assert_eq!(arena.stats().peak_outstanding, 0);
    }

    #[test]
    fn data_packet_sizes() {
        let (f, a, b) = ids();
        let p = Packet::data(f, a, b, 0, 1460);
        assert_eq!(p.wire_bytes, 1500);
        assert_eq!(p.payload_len, 1460);
        assert_eq!(p.seq_end(), 1460);
        assert!(p.ecn_capable);
        assert_eq!(p.kind, PacketKind::Data);
    }

    #[test]
    fn ack_packet_is_header_only() {
        let (f, a, b) = ids();
        let p = Packet::ack(f, b, a, 2920);
        assert_eq!(p.wire_bytes, CONTROL_PKT_BYTES);
        assert_eq!(p.seq, 2920);
        assert!(p.kind.is_reverse());
    }

    #[test]
    fn probe_packet_is_header_only_data_direction() {
        let (f, a, b) = ids();
        let p = Packet::probe(f, a, b, 100);
        assert_eq!(p.payload_len, 0);
        assert_eq!(p.wire_bytes, HEADER_BYTES);
        assert!(!p.kind.is_reverse());
    }

    #[test]
    fn proto_extension_downcast() {
        #[derive(Debug, PartialEq)]
        struct Hdr {
            x: u32,
        }
        let (f, a, b) = ids();
        let mut p = Packet::ctrl(f, a, b, Box::new(Hdr { x: 7 }));
        assert_eq!(p.proto_ref::<Hdr>().unwrap().x, 7);
        p.proto_mut::<Hdr>().unwrap().x = 9;
        // Wrong type: downcast fails but payload is preserved.
        assert!(p.take_proto::<u64>().is_none());
        assert!(p.proto.is_some());
        let h = p.take_proto::<Hdr>().unwrap();
        assert_eq!(*h, Hdr { x: 9 });
        assert!(p.proto.is_none());
    }
}
