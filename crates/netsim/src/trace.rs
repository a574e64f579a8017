//! Packet- and flow-level tracing.
//!
//! A [`TraceSink`] installed on the [`crate::stats::StatsCollector`]
//! receives structured events as the simulation executes: packets put on
//! the wire, packets dropped, flows starting and completing. The built-in
//! [`TextTracer`] renders them as tcpdump-style text lines; custom sinks
//! can compute whatever online statistics they need.
//!
//! Tracing is strictly opt-in: with no sink installed the hot path pays
//! one branch per event, and call sites are expected to gate event
//! construction on [`crate::stats::StatsCollector::tracing`] so no
//! formatting or allocation happens either.
//!
//! # Cost of a line
//!
//! A traced run renders one line per transmitted packet through
//! `core::fmt`: one private function, `render`, holds the `writeln!`
//! format string of every line type, and is the definition of the text
//! format. That costs more per event than a digest, and no harness that
//! only compares runs pays it (see below). [`TextTracer`] stages rendered
//! lines in a private buffer and appends them to a shared `String` in
//! `FLUSH_THRESHOLD`-byte batches (one mutex round trip per batch). It is
//! for people who want to *read* a trace.
//!
//! # One digest tracer
//!
//! Harnesses that only *compare* traces — the chaos sweep's dual-run and
//! heap-vs-wheel checks, `scale_smoke`, `ext_scale` — install
//! [`HashTracer`], which folds the events' fields into a 64-bit digest and
//! renders nothing. It is strictly finer than a hash of the text: every
//! field the text prints is mixed in, and the timestamp goes in as exact
//! nanoseconds where the text rounds to microseconds.
//!
//! Either sink's output reaches its shared handle on [`TraceSink::flush`]
//! (called by [`crate::sim::Simulation::run`] before it returns) or when
//! the sink is dropped; read the handle only after one of those points.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::fault::FaultEvent;
use crate::ids::{FlowId, NodeId, PortId};
use crate::packet::{Packet, PacketKind};
use crate::rng::mix64;
use crate::time::SimTime;

/// Bytes of rendered text [`TextTracer`] stages before handing a batch on.
/// Large enough that the mutex and the shared `String` growth are
/// amortized over hundreds of lines; small enough that memory overhead
/// per tracer is negligible.
const FLUSH_THRESHOLD: usize = 32 * 1024;

/// FNV-1a 64 offset basis: the `h` to start [`fnv1a`] from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a 64 state `h`. Hashing a byte string in
/// pieces gives the same result as hashing it whole.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a flow ended in the terminal `Aborted` state instead of
/// completing. Attached to the flow record and the `FlowDone` trace event
/// so post-run audits can attribute every abort to a concrete cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The scheme decided the flow was not worth finishing (e.g. PDQ's
    /// early termination of a flow whose deadline is unmeetable).
    EarlyTermination,
    /// The sender gave up after the bounded number of consecutive
    /// retransmission timeouts with zero forward progress (dead peer).
    MaxRtosExceeded,
    /// The flow's endpoint host crashed while the flow was live (or the
    /// flow started while its source host was down).
    HostCrash,
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A packet finished serializing onto a link.
    Tx {
        /// Transmitting node.
        node: NodeId,
        /// Output port.
        port: PortId,
        /// The packet's flow.
        flow: FlowId,
        /// Packet kind.
        kind: PacketKind,
        /// Sequence / ack number.
        seq: u64,
        /// Bytes on the wire.
        wire_bytes: u32,
        /// Priority band.
        prio: u8,
    },
    /// A packet was dropped by a queue.
    Drop {
        /// The packet's flow.
        flow: FlowId,
        /// Packet kind.
        kind: PacketKind,
        /// Sequence number.
        seq: u64,
    },
    /// A packet was blackholed at a switch: no surviving next hop toward
    /// its destination (every equal-cost port is down, or the FIB has no
    /// entry). Distinct from [`TraceEvent::Drop`] so failure-induced
    /// routing losses are separable from queue overflow.
    Blackhole {
        /// The switch that had no live route.
        node: NodeId,
        /// The packet's flow.
        flow: FlowId,
        /// Packet kind.
        kind: PacketKind,
        /// Sequence number.
        seq: u64,
    },
    /// A flow completed (or was aborted).
    FlowDone {
        /// The flow.
        flow: FlowId,
        /// Whether it was aborted rather than finished.
        aborted: bool,
        /// Why it was aborted (`None` for a normal completion).
        reason: Option<AbortReason>,
    },
    /// An injected fault was applied at a node.
    Fault {
        /// The node the fault fired at.
        node: NodeId,
        /// The fault, as the plan scheduled it.
        fault: FaultEvent,
    },
    /// A corrupted packet was detected and discarded by the checksum at
    /// its destination node (gray failure; see [`crate::fault`]).
    Corrupt {
        /// The node that discarded the packet.
        node: NodeId,
        /// The packet's flow.
        flow: FlowId,
        /// Packet kind.
        kind: PacketKind,
        /// Sequence number.
        seq: u64,
    },
    /// An overloaded arbitrator shed a control message instead of
    /// processing it (its per-epoch budget was exhausted; see
    /// [`crate::fault::FaultEvent::CtrlStormStart`]).
    Shed {
        /// The arbitrator node that shed the message.
        node: NodeId,
        /// The flow the shed message concerned.
        flow: FlowId,
        /// Whether the shed request was a stale refresh (an arbitration
        /// for this flow/leg was already live) rather than a fresh one.
        stale: bool,
    },
}

/// Receives trace events.
pub trait TraceSink: Send {
    /// Handle one event at simulated time `now`.
    fn on_event(&mut self, now: SimTime, event: &TraceEvent);

    /// Push any internally buffered output to where readers can see it.
    ///
    /// Called by [`crate::sim::Simulation::run`] before it returns, so
    /// sinks may batch freely between flushes. Sinks that publish every
    /// event eagerly can ignore this (the default is a no-op).
    fn flush(&mut self) {}
}

impl TraceEvent {
    /// The flow the event concerns; `None` for injected faults, which
    /// are part of the run's identity regardless of which flow is being
    /// watched and so are never flow-filtered.
    fn flow(&self) -> Option<FlowId> {
        match *self {
            TraceEvent::Tx { flow, .. }
            | TraceEvent::Drop { flow, .. }
            | TraceEvent::Blackhole { flow, .. }
            | TraceEvent::FlowDone { flow, .. }
            | TraceEvent::Corrupt { flow, .. }
            | TraceEvent::Shed { flow, .. } => Some(flow),
            TraceEvent::Fault { .. } => None,
        }
    }
}

/// Append the text line for `event` at `now` to `out`: the definition of
/// the trace text format.
fn render(out: &mut String, now: SimTime, event: &TraceEvent) {
    let _ = match *event {
        TraceEvent::Tx {
            node,
            port,
            flow,
            kind,
            seq,
            wire_bytes,
            prio,
        } => writeln!(
            out,
            "{now} TX   {node}:{port} {flow} {kind:?} seq={seq} len={wire_bytes} prio={prio}"
        ),
        TraceEvent::Drop { flow, kind, seq } => {
            writeln!(out, "{now} DROP {flow} {kind:?} seq={seq}")
        }
        TraceEvent::Blackhole {
            node,
            flow,
            kind,
            seq,
        } => writeln!(out, "{now} BHOL {node} {flow} {kind:?} seq={seq}"),
        TraceEvent::FlowDone {
            flow,
            aborted,
            reason,
        } => match (aborted, reason) {
            (true, Some(r)) => writeln!(out, "{now} ABRT {flow} reason={r:?}"),
            (true, None) => writeln!(out, "{now} ABRT {flow}"),
            (false, _) => writeln!(out, "{now} DONE {flow}"),
        },
        TraceEvent::Fault { node, fault } => writeln!(out, "{now} FLT  {node} {fault}"),
        TraceEvent::Corrupt {
            node,
            flow,
            kind,
            seq,
        } => writeln!(out, "{now} CRPT {node} {flow} {kind:?} seq={seq}"),
        TraceEvent::Shed { node, flow, stale } => {
            writeln!(out, "{now} SHED {node} {flow} stale={stale}")
        }
    };
}

/// A sink that renders events as text lines into a shared buffer.
///
/// The buffer is shared (`Arc<Mutex<String>>`) so the caller can keep a
/// handle while the simulation owns the sink. Lines are staged privately
/// and pushed to the shared buffer in `FLUSH_THRESHOLD`-byte batches;
/// the staged remainder reaches the shared handle on
/// [`TraceSink::flush`] or drop (cloned handles carry the shared buffer
/// but never the staged lines).
#[derive(Debug, Default)]
pub struct TextTracer {
    shared: Arc<Mutex<String>>,
    /// Staged lines not yet pushed to `shared`.
    local: String,
    /// Only record events for this flow, when set.
    filter_flow: Option<FlowId>,
}

impl TextTracer {
    /// Trace everything.
    pub fn new() -> TextTracer {
        TextTracer::default()
    }

    /// Trace only one flow.
    pub fn for_flow(flow: FlowId) -> TextTracer {
        TextTracer {
            shared: Arc::default(),
            local: String::new(),
            filter_flow: Some(flow),
        }
    }

    /// A handle to the output buffer (clone before installing the sink).
    pub fn buffer(&self) -> Arc<Mutex<String>> {
        Arc::clone(&self.shared)
    }

    fn flush_local(&mut self) {
        if self.local.is_empty() {
            return;
        }
        self.shared
            .lock()
            .expect("tracer buffer poisoned")
            .push_str(&self.local);
        self.local.clear();
    }
}

impl Clone for TextTracer {
    /// Clones share the output buffer but start with an empty staging
    /// area: staged lines belong to exactly one writer, so a handle
    /// cloned off an installed sink never duplicates its output.
    fn clone(&self) -> TextTracer {
        TextTracer {
            shared: Arc::clone(&self.shared),
            local: String::new(),
            filter_flow: self.filter_flow,
        }
    }
}

impl Drop for TextTracer {
    fn drop(&mut self) {
        self.flush_local();
    }
}

impl TraceSink for TextTracer {
    fn on_event(&mut self, now: SimTime, event: &TraceEvent) {
        if let (Some(watched), Some(flow)) = (self.filter_flow, event.flow()) {
            if flow != watched {
                return;
            }
        }
        render(&mut self.local, now, event);
        if self.local.len() >= FLUSH_THRESHOLD {
            self.flush_local();
        }
    }

    fn flush(&mut self) {
        self.flush_local();
    }
}

/// A sink that folds every event into a running 64-bit hash instead of
/// buffering rendered text.
///
/// This is the dual-run byte-identical-trace discipline at production
/// scale: a k=16 fat-tree run with 100k+ flows executes tens of millions
/// of traced events, and storing the [`TextTracer`] rendering (gigabytes
/// of lines) would dwarf the simulation itself. The hash covers the same
/// fields the text rendering would, in the same order, so two runs with
/// identical event streams — the property the differential harnesses
/// compare — have identical hashes, and any divergence in any field of
/// any event changes the digest.
///
/// The digest reaches the shared handle on [`TraceSink::flush`] (or
/// drop), like the text tracer's buffer.
#[derive(Debug, Default)]
pub struct HashTracer {
    shared: Arc<Mutex<u64>>,
    /// Running digest (splitmix64 chaining) plus event count, folded
    /// together at flush so an empty run hashes differently from none.
    hash: u64,
    events: u64,
}

impl HashTracer {
    /// A fresh tracer with a zero digest.
    pub fn new() -> HashTracer {
        HashTracer::default()
    }

    /// A handle to the digest (clone before installing the sink); valid
    /// after [`TraceSink::flush`] or drop.
    pub fn digest(&self) -> Arc<Mutex<u64>> {
        Arc::clone(&self.shared)
    }

    /// `rng::mix64` chaining, as in `ids::IdHasher`.
    #[inline]
    fn mix(&mut self, x: u64) {
        self.hash = mix64(self.hash ^ x);
    }

    /// Publish the digest without disturbing the running state, so
    /// repeated flushes (run-end plus drop) are idempotent.
    fn publish(&mut self) {
        let digest = mix64(self.hash ^ self.events);
        *self.shared.lock().expect("hash tracer poisoned") = digest;
    }
}

impl Drop for HashTracer {
    fn drop(&mut self) {
        self.publish();
    }
}

impl TraceSink for HashTracer {
    fn on_event(&mut self, now: SimTime, event: &TraceEvent) {
        self.events += 1;
        self.mix(now.as_nanos());
        match *event {
            TraceEvent::Tx {
                node,
                port,
                flow,
                kind,
                seq,
                wire_bytes,
                prio,
            } => {
                self.mix(1);
                self.mix(node.0 as u64);
                self.mix(port.0 as u64);
                self.mix(flow.0);
                self.mix(kind as u64);
                self.mix(seq);
                self.mix(wire_bytes as u64);
                self.mix(prio as u64);
            }
            TraceEvent::Drop { flow, kind, seq } => {
                self.mix(2);
                self.mix(flow.0);
                self.mix(kind as u64);
                self.mix(seq);
            }
            TraceEvent::Blackhole {
                node,
                flow,
                kind,
                seq,
            } => {
                self.mix(3);
                self.mix(node.0 as u64);
                self.mix(flow.0);
                self.mix(kind as u64);
                self.mix(seq);
            }
            TraceEvent::FlowDone {
                flow,
                aborted,
                reason,
            } => {
                self.mix(4);
                self.mix(flow.0);
                self.mix(aborted as u64);
                self.mix(match reason {
                    None => 0,
                    Some(AbortReason::EarlyTermination) => 1,
                    Some(AbortReason::MaxRtosExceeded) => 2,
                    Some(AbortReason::HostCrash) => 3,
                });
            }
            TraceEvent::Fault { node, fault } => {
                self.mix(5);
                self.mix(node.0 as u64);
                // Faults are rare (injected, not per-packet), so hashing
                // the Debug rendering keeps this exhaustive over the
                // event's payload without a Hash impl.
                for b in format!("{fault:?}").bytes() {
                    self.mix(b as u64);
                }
            }
            TraceEvent::Corrupt {
                node,
                flow,
                kind,
                seq,
            } => {
                self.mix(6);
                self.mix(node.0 as u64);
                self.mix(flow.0);
                self.mix(kind as u64);
                self.mix(seq);
            }
            TraceEvent::Shed { node, flow, stale } => {
                self.mix(7);
                self.mix(node.0 as u64);
                self.mix(flow.0);
                self.mix(stale as u64);
            }
        }
    }

    fn flush(&mut self) {
        self.publish();
    }
}

/// Helper to build the Tx event from a packet (keeps call sites short).
pub(crate) fn tx_event(node: NodeId, port: PortId, pkt: &Packet) -> TraceEvent {
    TraceEvent::Tx {
        node,
        port,
        flow: pkt.flow,
        kind: pkt.kind,
        seq: pkt.seq,
        wire_bytes: pkt.wire_bytes,
        prio: pkt.prio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(flow: u64) -> TraceEvent {
        TraceEvent::Tx {
            node: NodeId(0),
            port: PortId(0),
            flow: FlowId(flow),
            kind: PacketKind::Data,
            seq: 0,
            wire_bytes: 1500,
            prio: 3,
        }
    }

    /// Every event variant, with every `PacketKind`, `AbortReason` and
    /// bool it can carry, at the smallest, a typical and the largest
    /// value of each numeric field.
    fn every_event_shape() -> Vec<TraceEvent> {
        use crate::fault::DegradeProfile;
        let kinds = [
            PacketKind::Data,
            PacketKind::Ack,
            PacketKind::Probe,
            PacketKind::ProbeAck,
            PacketKind::Ctrl,
        ];
        let reasons = [
            None,
            Some(AbortReason::EarlyTermination),
            Some(AbortReason::MaxRtosExceeded),
            Some(AbortReason::HostCrash),
        ];
        let profile = DegradeProfile {
            seed: u64::MAX,
            loss_ppm: 20_000,
            corrupt_ppm: 0,
            extra_delay_ns: 1_500,
            jitter_ns: u32::MAX,
        };
        let (a, b) = (NodeId(1), NodeId(u32::MAX));
        let faults = [
            FaultEvent::LinkDown { a, b },
            FaultEvent::LinkUp { a: b, b: a },
            FaultEvent::ArbitratorCrash { node: a },
            FaultEvent::ArbitratorRestart { node: b },
            FaultEvent::CtrlLossBurst {
                from: a,
                to: b,
                n: u64::MAX,
            },
            FaultEvent::HostCrash { node: NodeId(0) },
            FaultEvent::HostRestart { node: a },
            FaultEvent::LinkDegrade { a, b, profile },
            FaultEvent::LinkRestore { a: b, b: a },
            FaultEvent::CtrlStormStart {
                node: b,
                amplify: 8,
            },
            FaultEvent::CtrlStormEnd { node: NodeId(0) },
        ];
        let mut out = Vec::new();
        for (small, mid, big) in [(0u64, 0u64, 0u64), (7, 1460, 123_456_789), (!0, !0, !0)] {
            let node = NodeId(small as u32);
            let port = PortId(mid as u32);
            let flow = FlowId(big);
            let seq = big.wrapping_mul(3) | mid;
            for kind in kinds {
                out.push(TraceEvent::Tx {
                    node,
                    port,
                    flow,
                    kind,
                    seq,
                    wire_bytes: mid as u32,
                    prio: small as u8,
                });
                out.push(TraceEvent::Drop { flow, kind, seq });
                out.push(TraceEvent::Blackhole {
                    node,
                    flow,
                    kind,
                    seq,
                });
                out.push(TraceEvent::Corrupt {
                    node,
                    flow,
                    kind,
                    seq,
                });
            }
            for aborted in [false, true] {
                for reason in reasons {
                    out.push(TraceEvent::FlowDone {
                        flow,
                        aborted,
                        reason,
                    });
                }
                out.push(TraceEvent::Shed {
                    node,
                    flow,
                    stale: aborted,
                });
            }
            for fault in faults {
                out.push(TraceEvent::Fault { node, fault });
            }
        }
        out
    }

    /// `(rendered line, HashTracer digest)` of a one-event trace.
    fn line_and_digest(ns: u64, event: &TraceEvent) -> (String, u64) {
        let now = SimTime::from_nanos(ns);
        let mut line = String::new();
        render(&mut line, now, event);
        let mut t = HashTracer::new();
        let d = t.digest();
        t.on_event(now, event);
        t.flush();
        let digest = *d.lock().unwrap();
        (line, digest)
    }

    /// The digest is at least as fine as the text it replaced in the
    /// chaos harness: any two events whose rendered lines differ hash
    /// differently, and so do two that differ only below the text's
    /// microsecond resolution.
    #[test]
    fn hash_tracer_separates_everything_the_text_separates_and_more() {
        let times = [0, 1, 999, 1_000, 25_250, 1_000_000_500, 1 << 53, u64::MAX];
        let mut by_digest: std::collections::HashMap<u64, String> = Default::default();
        let mut lines = std::collections::HashSet::new();
        for event in every_event_shape() {
            for ns in times {
                let (line, digest) = line_and_digest(ns, &event);
                lines.insert(line.clone());
                if let Some(other) = by_digest.insert(digest, line.clone()) {
                    assert_eq!(
                        other, line,
                        "two different lines share digest {digest:#018x}"
                    );
                }
            }
        }
        assert!(lines.len() > 500, "only {} distinct lines", lines.len());
        for event in every_event_shape() {
            let (a, b) = (
                line_and_digest(25_250, &event),
                line_and_digest(25_251, &event),
            );
            assert_eq!(a.0, b.0, "1 ns apart inside one microsecond: same text");
            assert_ne!(a.1, b.1, "but different digests, for {event:?}");
        }
    }

    #[test]
    fn text_tracer_records_lines() {
        let mut t = TextTracer::new();
        let buf = t.buffer();
        t.on_event(SimTime::from_micros(5), &tx(1));
        t.on_event(
            SimTime::from_micros(9),
            &TraceEvent::Drop {
                flow: FlowId(1),
                kind: PacketKind::Data,
                seq: 1460,
            },
        );
        t.on_event(
            SimTime::from_micros(12),
            &TraceEvent::FlowDone {
                flow: FlowId(1),
                aborted: false,
                reason: None,
            },
        );
        t.flush();
        let out = buf.lock().unwrap().clone();
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("TX   n0:p0 f1 Data seq=0 len=1500 prio=3"));
        assert!(out.contains("DROP f1"));
        assert!(out.contains("DONE f1"));
    }

    #[test]
    fn flow_filter_suppresses_other_flows() {
        let mut t = TextTracer::for_flow(FlowId(7));
        let buf = t.buffer();
        t.on_event(SimTime::ZERO, &tx(1));
        t.on_event(SimTime::ZERO, &tx(7));
        t.flush();
        let out = buf.lock().unwrap().clone();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("f7"));
    }

    #[test]
    fn aborted_flows_render_their_reason() {
        let mut t = TextTracer::new();
        let buf = t.buffer();
        t.on_event(
            SimTime::from_micros(8),
            &TraceEvent::FlowDone {
                flow: FlowId(3),
                aborted: true,
                reason: Some(AbortReason::MaxRtosExceeded),
            },
        );
        t.flush();
        let out = buf.lock().unwrap().clone();
        assert!(out.contains("ABRT f3 reason=MaxRtosExceeded"), "{out}");
    }

    #[test]
    fn fault_events_bypass_the_flow_filter() {
        let mut t = TextTracer::for_flow(FlowId(7));
        let buf = t.buffer();
        t.on_event(
            SimTime::from_micros(3),
            &TraceEvent::Fault {
                node: NodeId(2),
                fault: FaultEvent::LinkDown {
                    a: NodeId(2),
                    b: NodeId(4),
                },
            },
        );
        t.flush();
        let out = buf.lock().unwrap().clone();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("FLT  n2 LinkDown { a: n2, b: n4 }"), "{out}");
    }

    #[test]
    fn corrupt_events_render_and_respect_the_flow_filter() {
        let mut t = TextTracer::for_flow(FlowId(7));
        let buf = t.buffer();
        let crpt = |flow: u64| TraceEvent::Corrupt {
            node: NodeId(3),
            flow: FlowId(flow),
            kind: PacketKind::Data,
            seq: 1460,
        };
        t.on_event(SimTime::from_micros(2), &crpt(1));
        t.on_event(SimTime::from_micros(4), &crpt(7));
        t.flush();
        let out = buf.lock().unwrap().clone();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("CRPT n3 f7 Data seq=1460"), "{out}");
    }

    #[test]
    fn shed_events_render_and_respect_the_flow_filter() {
        let mut t = TextTracer::for_flow(FlowId(7));
        let buf = t.buffer();
        let shed = |flow: u64| TraceEvent::Shed {
            node: NodeId(4),
            flow: FlowId(flow),
            stale: true,
        };
        t.on_event(SimTime::from_micros(2), &shed(1));
        t.on_event(SimTime::from_micros(4), &shed(7));
        t.flush();
        let out = buf.lock().unwrap().clone();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("SHED n4 f7 stale=true"), "{out}");
    }

    #[test]
    fn drop_flushes_staged_lines() {
        let buf;
        {
            let mut t = TextTracer::new();
            buf = t.buffer();
            t.on_event(SimTime::from_micros(1), &tx(1));
            // No explicit flush: going out of scope must publish the line.
        }
        assert_eq!(buf.lock().unwrap().lines().count(), 1);
    }

    fn hash_of(events: &[(u64, TraceEvent)]) -> u64 {
        let mut t = HashTracer::new();
        let d = t.digest();
        for &(us, ref e) in events {
            t.on_event(SimTime::from_micros(us), e);
        }
        t.flush();
        let out = *d.lock().unwrap();
        out
    }

    #[test]
    fn hash_tracer_is_deterministic_and_field_sensitive() {
        let base = vec![
            (1, tx(1)),
            (
                2,
                TraceEvent::Drop {
                    flow: FlowId(1),
                    kind: PacketKind::Data,
                    seq: 1460,
                },
            ),
            (
                3,
                TraceEvent::FlowDone {
                    flow: FlowId(1),
                    aborted: false,
                    reason: None,
                },
            ),
        ];
        assert_eq!(hash_of(&base), hash_of(&base), "same stream, same digest");
        // Perturb one field.
        let mut other = base.clone();
        other[1].1 = TraceEvent::Drop {
            flow: FlowId(1),
            kind: PacketKind::Data,
            seq: 2920,
        };
        assert_ne!(hash_of(&base), hash_of(&other), "seq change must show");
        // Perturb only a timestamp.
        let mut shifted = base.clone();
        shifted[2].0 = 4;
        assert_ne!(hash_of(&base), hash_of(&shifted), "time change must show");
        // Dropping an event must show even though the prefix matches.
        assert_ne!(hash_of(&base), hash_of(&base[..2]), "truncation must show");
    }

    #[test]
    fn hash_tracer_flush_is_idempotent() {
        let mut t = HashTracer::new();
        let d = t.digest();
        t.on_event(SimTime::from_micros(1), &tx(1));
        t.flush();
        let first = *d.lock().unwrap();
        t.flush();
        assert_eq!(*d.lock().unwrap(), first);
        drop(t); // drop publishes too, and must agree
        assert_eq!(*d.lock().unwrap(), first);
    }

    #[test]
    fn clones_share_the_buffer_but_not_staged_lines() {
        let mut t = TextTracer::new();
        t.on_event(SimTime::from_micros(1), &tx(1));
        let handle = t.clone();
        let buf = handle.buffer();
        assert!(buf.lock().unwrap().is_empty(), "staged line leaked early");
        drop(handle); // must not duplicate the staged line
        t.flush();
        assert_eq!(buf.lock().unwrap().lines().count(), 1);
    }
}
