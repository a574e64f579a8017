//! Global simulation invariants.
//!
//! The chaos harness ([`crate::chaos`]) throws randomized fault schedules
//! at the simulator; this module is the oracle that says whether the run
//! stayed sane. Four invariants are checked:
//!
//! 1. **Conservation, once per [`Plane`].** Every data packet injected
//!    and every control message sent is accounted for exactly once: by
//!    the one [`Fate`] it left the network with, or as *in-network* —
//!    queued, mid-serialization, or propagating (a pending `Deliver`
//!    event) at the moment of the check. The laws' terms are the fates
//!    the ledger ([`crate::stats`]) declares for each plane, and
//!    [`Plane::law`] renders them; DESIGN.md §7e tabulates where each
//!    fate is charged.
//! 2. **No stuck flow.** An incomplete flow must have *some* way to make
//!    progress: a pending event referencing it (timer, delivery, start)
//!    or one of its packets still in the network. A process timer names
//!    no flow and is no evidence. A flow with none of these will never
//!    finish — a lost-wakeup bug, not congestion. Flows that ended in
//!    the terminal `Aborted` state count as complete — an endpoint
//!    crash with a recorded abort reason is a legitimate terminal
//!    outcome, not a stuck flow.
//! 3. **Bounded queues.** No port's queue occupancy ever exceeds a
//!    configured packet bound (checked online, periodically, and once at
//!    the end).
//! 4. **Arena balance.** Every outstanding packet box is held by a port
//!    or rides a pending `Deliver` event.
//!
//! Online checks run inside [`crate::sim::Simulation::run`] once
//! [`crate::sim::Simulation::enable_invariants`] has been called; the
//! full (conservation + stuck-flow) audit is performed by
//! [`crate::sim::Simulation::check_invariants`], typically after the run
//! stops. Violations are collected, not panicked on, so a chaos sweep can
//! report every failing seed; [`InvariantReport::assert_clean`] converts
//! them into a panic for tests.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::event::EventKind;
use crate::ids::{FlowId, NodeId};
use crate::stats::{Fate, Plane, StatsCollector};
use crate::time::SimTime;

/// Tuning knobs for the invariant checker.
#[derive(Debug, Clone, Copy)]
pub struct InvariantConfig {
    /// Maximum tolerated queue occupancy, in packets, on any single port.
    /// The default is far above any configured qdisc capacity in this
    /// repo, so tripping it means a queue is growing without bound.
    pub max_queue_pkts: usize,
    /// How often (in executed events) the online queue-bound scan runs.
    pub check_interval_events: u64,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            max_queue_pkts: 4096,
            check_interval_events: 8192,
        }
    }
}

impl InvariantConfig {
    /// The violation a queue of `len` packets on `node` is at `now`, if
    /// it is over the bound — for the online scan and the final audit
    /// alike.
    pub(crate) fn queue_violation(
        &self,
        now: SimTime,
        node: NodeId,
        len: usize,
    ) -> Option<Violation> {
        (len > self.max_queue_pkts).then(|| Violation {
            at: now,
            invariant: Invariant::QueueBound,
            detail: format!(
                "queue on {node} holds {len} pkts (bound {})",
                self.max_queue_pkts
            ),
        })
    }
}

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// A plane's conservation law (what entered vs. what is accounted).
    Conservation(Plane),
    /// An incomplete flow with no pending means of progress.
    StuckFlow,
    /// A port queue exceeded the configured occupancy bound.
    QueueBound,
    /// Arena-outstanding packet count disagrees with the packets actually
    /// held in ports and on the wire (a leaked or double-released box).
    ArenaBalance,
}

impl core::fmt::Display for Invariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Invariant::Conservation(Plane::Data) => "conservation",
            Invariant::Conservation(Plane::Ctrl) => "ctrl-conservation",
            Invariant::StuckFlow => "stuck-flow",
            Invariant::QueueBound => "queue-bound",
            Invariant::ArenaBalance => "arena-balance",
        };
        f.write_str(name)
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated time at which the violation was detected.
    pub at: SimTime,
    /// The invariant that was broken.
    pub invariant: Invariant,
    /// Human-readable specifics (counters, node/flow ids).
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.invariant, self.detail)
    }
}

/// The outcome of an invariant audit.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable listing if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "invariant violations:\n{self}");
    }
}

impl core::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.violations.is_empty() {
            return writeln!(f, "all invariants hold");
        }
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Online invariant state threaded through the run loop.
///
/// Owned by [`crate::sim::Simulation`] once
/// [`crate::sim::Simulation::enable_invariants`] is called.
#[derive(Debug)]
pub(crate) struct InvariantMonitor {
    pub(crate) cfg: InvariantConfig,
    events_seen: u64,
    pub(crate) violations: Vec<Violation>,
}

impl InvariantMonitor {
    pub(crate) fn new(cfg: InvariantConfig) -> InvariantMonitor {
        InvariantMonitor {
            cfg,
            events_seen: 0,
            violations: Vec::new(),
        }
    }

    /// Record one executed event; reports whether the periodic queue scan
    /// is due. (The clock cannot run backwards: the scheduler panics on
    /// any event timestamped before `now`, in every build profile.)
    pub(crate) fn on_event(&mut self) -> bool {
        self.events_seen += 1;
        self.events_seen
            .is_multiple_of(self.cfg.check_interval_events)
    }
}

/// Snapshot of one plane's in-network packets, taken by the conservation
/// walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InNetwork {
    /// Packets queued on ports, or mid-serialization on a two-event hop.
    pub in_ports: u64,
    /// Packets propagating, or mid-serialization on a one-event hop
    /// (pending `Deliver` events).
    pub on_wire: u64,
}

impl InNetwork {
    /// Total in-network packets.
    pub fn total(&self) -> u64 {
        self.in_ports + self.on_wire
    }
}

/// Evidence that an incomplete flow can still make progress: the flows
/// referenced by a pending event or an in-network packet.
///
/// Built once per audit by scanning the pending event queue and the
/// in-network packet population; the stuck-flow check then queries it per
/// flow.
#[derive(Debug, Default)]
pub(crate) struct ProgressEvidence {
    flows: BTreeSet<FlowId>,
}

impl ProgressEvidence {
    pub(crate) fn note_flow(&mut self, flow: FlowId) {
        self.flows.insert(flow);
    }

    pub(crate) fn note_event(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Deliver(pkt) => self.note_flow(pkt.flow),
            EventKind::AgentTimer { flow, .. } => self.note_flow(*flow),
            EventKind::FlowStart(spec) => self.note_flow(spec.id),
            // A pending TxComplete proves a port will drain; the packet
            // being sent is counted by the port walk (two-event hop) or
            // rides its own pending Deliver (one-event hop), and a port
            // with packets queued always has its TxComplete pending. A
            // process timer (an arbitrator's report loop) and a fault
            // reference no flow.
            EventKind::TxComplete(_) | EventKind::PluginTimer(_) | EventKind::Fault(_) => {}
        }
    }

    /// Can `flow` still make progress?
    pub(crate) fn can_progress(&self, flow: FlowId) -> bool {
        self.flows.contains(&flow)
    }
}

/// One plane's books at the moment of an audit, term by term from the
/// ledger's declaration: what entered the plane, what each of its fates
/// took out, and what is still in the network.
#[derive(Debug)]
pub(crate) struct Books {
    plane: Plane,
    sent: u64,
    fates: Vec<(Fate, u64)>,
    in_network: InNetwork,
}

impl Books {
    /// `plane`'s books as `stats` keeps them, plus what the audit's walk
    /// found in the network.
    pub(crate) fn of(stats: &StatsCollector, plane: Plane, in_network: InNetwork) -> Books {
        let fates = (Fate::ALL.iter().filter(|f| f.in_plane(plane)))
            .map(|&f| (f, stats.charged(plane, f)))
            .collect();
        Books {
            plane,
            sent: stats.sent(plane),
            fates,
            in_network,
        }
    }

    /// Check the books; push a violation of the plane's law on mismatch.
    pub(crate) fn check(&self, now: SimTime, out: &mut Vec<Violation>) {
        let fated: u64 = self.fates.iter().map(|&(_, n)| n).sum();
        let accounted = fated + self.in_network.total();
        if self.sent == accounted {
            return;
        }
        let prefix = if self.plane == Plane::Ctrl {
            "ctrl "
        } else {
            ""
        };
        let (source, sent) = (self.plane.source(), self.sent);
        let mut detail = format!("{prefix}{source} {sent} != accounted {accounted} (");
        for &(fate, n) in &self.fates {
            let _ = write!(detail, "{} {n} + ", fate.name());
        }
        let InNetwork { in_ports, on_wire } = self.in_network;
        let _ = write!(detail, "in-ports {in_ports} + on-wire {on_wire})");
        out.push(Violation {
            at: now,
            invariant: Invariant::Conservation(self.plane),
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both laws from one table: balanced books are clean, and moving any
    /// single term of either plane by one — each fate, either in-network
    /// count, or the sent side — is exactly one violation of that plane's
    /// law, whose detail names the term with its new value (and reads,
    /// in full, as the detail text always has).
    #[test]
    fn conservation_mismatch_is_reported() {
        let planes = [
            (
                Plane::Data,
                "conservation",
                "injected",
                "injected 68 != accounted 67 (delivered 10 + dropped 11 + corrupted 12 + \
                 blackholed 13 + lost-to-crash 14 + in-ports 3 + on-wire 4)",
            ),
            (
                Plane::Ctrl,
                "ctrl-conservation",
                "ctrl sent",
                "ctrl sent 99 != accounted 98 (processed 10 + shed 11 + dropped 12 + \
                 corrupted 13 + blackholed 14 + lost-to-crash 15 + unattended 16 + \
                 in-ports 3 + on-wire 4)",
            ),
        ];
        for (plane, shown, source, sent_moved) in planes {
            let balanced = || {
                let fates: Vec<(Fate, u64)> = (Fate::ALL.iter().filter(|f| f.in_plane(plane)))
                    .zip(10..)
                    .map(|(&f, n)| (f, n))
                    .collect();
                let in_network = InNetwork {
                    in_ports: 3,
                    on_wire: 4,
                };
                let fated: u64 = fates.iter().map(|&(_, n)| n).sum();
                Books {
                    plane,
                    sent: fated + in_network.total(),
                    fates,
                    in_network,
                }
            };
            let check = |books: &Books| {
                let mut out = Vec::new();
                books.check(SimTime::from_micros(3), &mut out);
                out
            };
            assert!(check(&balanced()).is_empty(), "{plane:?}");
            let n_fates = balanced().fates.len();
            for term in 0..n_fates + 3 {
                let mut books = balanced();
                let (name, slot) = match term.checked_sub(n_fates) {
                    None => {
                        let (fate, n) = &mut books.fates[term];
                        (fate.name(), n)
                    }
                    Some(0) => ("in-ports", &mut books.in_network.in_ports),
                    Some(1) => ("on-wire", &mut books.in_network.on_wire),
                    Some(_) => (source, &mut books.sent),
                };
                *slot += 1;
                let want = format!("{name} {slot}");
                let out = check(&books);
                assert_eq!(out.len(), 1, "{plane:?} {name}");
                assert_eq!(out[0].invariant, Invariant::Conservation(plane));
                assert_eq!(out[0].invariant.to_string(), shown);
                assert!(out[0].detail.contains(&want), "{want}: {}", out[0].detail);
                if name == source {
                    assert_eq!(out[0].detail, sent_moved);
                }
            }
        }
    }

    #[test]
    fn monitor_scan_cadence() {
        let mut m = InvariantMonitor::new(InvariantConfig {
            max_queue_pkts: 10,
            check_interval_events: 4,
        });
        let due: Vec<bool> = (0..8).map(|_| m.on_event()).collect();
        assert_eq!(
            due,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn progress_evidence_covers_timers_and_packets() {
        let mut ev = ProgressEvidence::default();
        ev.note_flow(FlowId(1));
        ev.note_event(&EventKind::AgentTimer {
            flow: FlowId(2),
            token: 0,
        });
        assert!(ev.can_progress(FlowId(1)));
        assert!(ev.can_progress(FlowId(2)));
        // A process timer pending at a flow's endpoint is not evidence:
        // it references no flow, so it cannot advance one.
        ev.note_event(&EventKind::PluginTimer(0));
        assert!(!ev.can_progress(FlowId(3)));
    }

    #[test]
    fn report_formatting_and_assert() {
        let mut rep = InvariantReport::default();
        assert!(rep.is_clean());
        rep.assert_clean();
        rep.violations.push(Violation {
            at: SimTime::from_micros(1),
            invariant: Invariant::QueueBound,
            detail: "queue on n3 holds 9000 pkts (bound 4096)".into(),
        });
        assert!(!rep.is_clean());
        let text = format!("{rep}");
        assert!(text.contains("queue-bound"), "{text}");
    }
}
