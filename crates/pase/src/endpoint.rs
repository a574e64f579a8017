//! The PASE end-host transport (paper §3.2).
//!
//! The sender combines the three strategies:
//!
//! * **Arbitration** tells it a priority queue and a reference rate: the
//!   local uplink decision is synchronous (same host); the sender- and
//!   receiver-leg decisions arrive as control responses and are merged
//!   by the bottleneck rule, [`Decision::merge`].
//! * **Guided rate control** (Algorithm 2): top-queue flows set
//!   `cwnd = Rref × RTT` instead of slow-starting; intermediate-queue
//!   flows run DCTCP control laws; bottom-queue flows hold `cwnd = 1`.
//!   A marked ACK always triggers the DCTCP decrease. The whole law is
//!   two functions of the queue: one for a queue change, one per ACK.
//! * **Priority-aware loss recovery**: lower-queue flows answer timeouts
//!   with header-only probes that distinguish "lost" from "parked behind
//!   higher-priority traffic"; every queue's minimum RTO is 10 ms
//!   (DESIGN §7b.11: Table 3 gives the lower queues 200 ms). Optionally,
//!   bottom-queue flows replace their 1-packet-per-RTT trickle with
//!   probes entirely (§4.3.2).
//! * **Reordering guard**: on a queue promotion the sender drains
//!   in-flight lower-priority packets before sending at the new priority.
//! * **Graceful degradation**: [`ChannelHealth`] judges each refresh
//!   round answered, shed or silent; when it declares arbitration
//!   unreachable the flow falls back to pure self-adjusting mode (lowest
//!   queue, DCTCP laws, data never suppressed) with bounded exponential
//!   backoff on re-requests, and re-attaches to its arbitrated
//!   `PrioQue`/`Rref` assignment when clean answers resume. A flow
//!   stalled on its RTO backs its refresh off with its RTOs too, so a
//!   dead receiver's flow stops renewing leases it cannot use.
//!
//! The self-adjusting part is not a copy of DCTCP: the window law is
//! [`transport::DctcpWindow`], the value `transport::FamilySender` runs.

use std::any::Any;

use netsim::flow::FlowSpec;
use netsim::host::{AgentCtx, FlowAgent};
use netsim::ids::NodeId;
use netsim::packet::{Packet, PacketKind};
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::timer::{slot, SupersedingTimer, Timer};
use transport::{
    AckKind, DctcpWindow, LossEvent, RttEstimator, TxEngine, DCTCP_G, MAX_RTO, MIN_RTO, MSS,
};

use crate::algorithm::Decision;
use crate::config::PaseConfig;
use crate::health::{Cause, ChannelHealth, Transition};
use crate::messages::{ArbMsg, ArbRequest, Leg};
use crate::process::{ArbPlan, ArbProcess};

/// The PASE sender agent.
pub struct PaseSender {
    spec: FlowSpec,
    cfg: PaseConfig,
    engine: TxEngine,
    plan: ArbPlan,

    // Arbitration state.
    local: Decision,
    /// The latest sender-leg answer (`None` before one arrives and after
    /// a shed reply).
    sender_leg: Option<Decision>,
    /// The latest receiver-leg answer, likewise.
    receiver_leg: Option<Decision>,
    /// What landed since the last refresh round was judged: `Some(shed)`
    /// once a leg response arrived, `shed` if one of them carried the
    /// load-shed signal.
    heard: Option<bool>,
    queue: u8,
    rref: Rate,
    /// Band actually written on outgoing data (lags `queue` during the
    /// reordering-guard hold).
    tx_prio: u8,

    /// DCTCP window law for the self-adjusting part. Its `ssthresh`
    /// matters only where the law grows the window: PASE-DCTCP mode
    /// (Fig. 13a), intermediate queues and fallback.
    win: DctcpWindow,

    // Reordering guard: while `Some(barrier)`, new data keeps the old
    // (lower) priority until everything sent before the promotion is
    // acknowledged, then switches to the new priority.
    reorder_barrier: Option<u64>,
    // Probe-based loss recovery: `Some(acked_at_send)` while a recovery
    // probe is outstanding.
    recovery_probe: Option<u64>,
    /// Bottom-queue pacing probes. Re-armed by every queue recompute
    /// while data is suppressed, so only the newest arm keeps an event.
    pace: SupersedingTimer,
    /// The periodic arbitration refresh; eager.
    refresh: Timer,
    /// Control-channel health (graceful degradation, paper §3.1.3).
    health: ChannelHealth,
}

impl PaseSender {
    /// Create a sender for `spec`.
    pub fn new(spec: &FlowSpec, cfg: PaseConfig) -> PaseSender {
        let rtt = RttEstimator::new(MIN_RTO, MAX_RTO);
        // Algorithm 2 sets the window on every queue change from the
        // lowest queue on; PASE-DCTCP starts at DCTCP's initial window.
        let init_cwnd = if cfg.use_reference_rate { 1.0 } else { 2.0 };
        PaseSender {
            spec: spec.clone(),
            cfg,
            engine: TxEngine::new(spec.id, spec.src, spec.dst, spec.size, MSS, init_cwnd, rtt),
            plan: ArbPlan {
                sender_leg_to: None,
                receiver_leg_to: None,
            },
            local: Decision {
                queue: cfg.lowest_queue(),
                rate: cfg.base_rate(),
            },
            sender_leg: None,
            receiver_leg: None,
            heard: None,
            queue: cfg.lowest_queue(),
            rref: cfg.base_rate(),
            tx_prio: cfg.lowest_queue(),
            win: DctcpWindow::new(DCTCP_G, f64::INFINITY),
            reorder_barrier: None,
            recovery_probe: None,
            pace: SupersedingTimer::new(spec.id, slot::PACE),
            refresh: Timer::new(slot::REFRESH),
            health: ChannelHealth::new(&cfg, SimTime::ZERO),
        }
    }

    /// Effective queue (tests/inspection).
    pub fn queue(&self) -> u8 {
        self.queue
    }

    /// Effective reference rate (tests/inspection).
    pub fn rref(&self) -> Rate {
        self.rref
    }

    /// Current congestion window in packets (tests/inspection).
    pub fn cwnd(&self) -> f64 {
        self.engine.cwnd
    }

    /// The control channel's health (tests/inspection).
    pub fn health(&self) -> &ChannelHealth {
        &self.health
    }

    /// RTOs fired since the last ACK for new data; the refresh backs off
    /// with them.
    pub fn stalled_rtos(&self) -> u32 {
        self.engine.consecutive_rtos()
    }

    fn srtt(&self) -> SimDuration {
        self.engine.rtt.srtt().unwrap_or(self.cfg.base_rtt)
    }

    /// How long an arbitration request may go unanswered: the data path's
    /// own `srtt + 4·rttvar` (no minimum-RTO floor), at least one base
    /// RTT. Control packets ride band 0, so a reply takes no longer than
    /// what the data path measures. `None` before the first RTT sample
    /// and for a flow with no remote leg, which never hears back.
    fn reply_deadline(&self) -> Option<SimDuration> {
        let remote = self.plan.sender_leg_to.is_some() || self.plan.receiver_leg_to.is_some();
        let bound = self.engine.rtt.bound().filter(|_| remote);
        bound.map(|b| b.max(self.cfg.base_rtt))
    }

    /// The flow's demand: what it could use if unconstrained — the NIC
    /// rate, capped by what the remaining bytes can fill in one RTT
    /// (paper §3.1.1: "for short flows ... this is set to a lower value").
    fn demand(&self, ctx: &AgentCtx<'_, '_>) -> Rate {
        let nic = ctx.host.port.rate;
        let remaining_wire =
            self.engine.remaining() + (self.engine.remaining() / MSS as u64 + 1) * 40;
        let per_rtt =
            Rate::from_bps((remaining_wire as f64 * 8.0 / self.cfg.base_rtt.as_secs_f64()) as u64);
        nic.min(per_rtt)
    }

    fn reference_cwnd_pkts(&self) -> f64 {
        let bytes_per_rtt = self.rref.bytes_in(self.srtt());
        (bytes_per_rtt as f64 / (MSS as f64 + 40.0)).max(1.0)
    }

    /// Should data transmission be suppressed in favor of pacing probes?
    /// Never in fallback: with no arbitrator to promote us out of the
    /// bottom queue, probing instead of sending would stall forever.
    fn data_suppressed(&self) -> bool {
        !self.health.in_fallback()
            && self.cfg.probing
            && band(&self.cfg, self.queue) == Band::Bottom
            && !self.spec.is_background()
            && self.cfg.end_to_end
    }

    /// Send one control message about this flow to the arbitrator on `to`.
    fn send_ctrl(&self, ctx: &mut AgentCtx<'_, '_>, to: NodeId, msg: ArbMsg) {
        ctx.send(msg.packet(self.spec.id, self.spec.src, to));
    }

    /// Run local arbitration and fire off the leg requests.
    fn arbitrate(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.spec.is_background() {
            // Background traffic rides the dedicated lowest queue and is
            // not arbitrated (paper §3.3).
            self.queue = self.cfg.lowest_queue();
            self.tx_prio = self.queue;
            return;
        }
        let now = ctx.now();
        let demand = self.demand(ctx);
        // The receiver-leg request: the destination arbitrates its
        // downlink starting from the bare demand. The local uplink and the
        // sender leg are asked about the same flow state.
        let req = ArbRequest {
            flow: self.spec.id,
            src: self.spec.src,
            dst: self.spec.dst,
            remaining: self.engine.remaining(),
            // A deadline that has already passed no longer confers
            // urgency: under EDF an expired flow would otherwise hold the
            // top queue forever and starve still-meetable flows (EDF's
            // overload pathology). It falls back to size-based priority.
            deadline: self.spec.deadline_abs().filter(|d| *d > now),
            task: self.spec.task,
            demand,
            leg: Leg::Receiver,
            decision: Decision {
                queue: 0,
                rate: demand,
            },
        };
        // The process and the stats it charges are borrowed side by side.
        let process = ctx.process.as_deref_mut();
        let Some(arb) = process.and_then(|p| p.as_any_mut().downcast_mut::<ArbProcess>()) else {
            // No control plane installed: degrade to a single queue.
            return;
        };
        if arb.is_crashed() {
            // The local control process is down: the synchronous uplink
            // decision fails exactly like the remote legs do: the rounds go
            // unanswered and drop the flow to self-adjusting fallback.
            return;
        }
        self.plan = arb.plan(self.spec.dst);
        // The sender leg: the local uplink decides at once, and the request
        // climbs on from that decision unless it ends here or is pruned.
        let (local, sender_leg) = arb.sender_leg(&req, now, ctx.sim.stats);
        self.local = local;
        if let Some((to, sender_leg)) = sender_leg {
            self.send_ctrl(ctx, to, ArbMsg::Request(sender_leg));
        }
        if let Some(dst) = self.plan.receiver_leg_to {
            self.send_ctrl(ctx, dst, ArbMsg::Request(req));
        }
        self.recompute_effective(ctx);
    }

    /// Merge the local and leg decisions into the effective queue/rate and
    /// apply Algorithm 2's transition for the queue change.
    fn recompute_effective(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.health.in_fallback() {
            // Fallback pins the flow to the lowest queue at base rate; the
            // merge below would resurrect the (possibly stale, possibly
            // uncoordinated) local decision. Exit happens on a wake-up,
            // before this is called again.
            self.queue = self.cfg.lowest_queue();
            self.rref = self.cfg.base_rate();
            self.sync_tx_prio();
            return;
        }
        let merged = [self.sender_leg, self.receiver_leg]
            .into_iter()
            .flatten()
            .fold(self.local, Decision::merge);
        let old_queue = self.queue;
        self.queue = merged.queue.min(self.cfg.lowest_queue());
        self.rref = merged.rate;

        if self.queue < old_queue && self.engine.flight_bytes() > 0 {
            // Promotion: keep sending at the old (lower) priority until
            // everything already in flight is acknowledged, so packets of
            // the two priorities cannot reorder (paper §3.2). Demotions
            // apply immediately (low-priority packets sent later cannot
            // overtake earlier high-priority ones).
            self.reorder_barrier = Some(self.engine.snd_nxt());
        }
        self.sync_tx_prio();
        // A queue change never grows the window: no bytes to credit.
        self.set_window(window_on_move(&self.cfg, old_queue, self.queue), 0);
        // Entering the bottom queue with pacing probes: start the pacer.
        if self.data_suppressed() {
            self.start_pace_probes(ctx);
        }
    }

    fn start_pace_probes(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.pace.arm(ctx.sim, self.srtt());
    }

    /// Send a header-only probe at the current wire priority (a
    /// bottom-queue pacing probe or a loss-recovery probe: same packet).
    fn send_probe(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let mut probe = Packet::probe(
            self.spec.id,
            self.spec.src,
            self.spec.dst,
            self.engine.acked(),
        );
        probe.prio = self.tx_prio;
        ctx.sim.stats.note_probe(self.spec.id);
        ctx.send(probe);
    }

    /// Algorithm 2's per-ACK window law.
    fn on_new_ack(&mut self, newly: u64, ece: bool) {
        let (acked, snd_nxt) = (self.engine.acked(), self.engine.snd_nxt());
        // DCTCP marked-fraction estimator (shared by all modes).
        self.win.observe(newly, ece, acked, snd_nxt);
        if ece && self.win.decrease_due(acked) {
            // Marked ACK: DCTCP decrease law (all queues).
            let p = self.win.alpha() / 2.0;
            self.win.decrease(&mut self.engine.cwnd, p, snd_nxt);
            return;
        }
        if self.engine.in_recovery() {
            return;
        }
        let law = window_on_ack(&self.cfg, self.queue, self.health.in_fallback());
        self.set_window(law, newly);
    }

    /// Apply one of Algorithm 2's window laws; `newly` acknowledged bytes
    /// are what [`WindowLaw::Grow`] credits.
    fn set_window(&mut self, law: WindowLaw, newly: u64) {
        match law {
            WindowLaw::Keep => {}
            WindowLaw::One => self.engine.cwnd = 1.0,
            WindowLaw::Reference => self.engine.cwnd = self.reference_cwnd_pkts(),
            WindowLaw::Grow(factor) => {
                self.win
                    .grow(&mut self.engine.cwnd, newly, MSS, factor, 1.0)
            }
        }
    }

    fn on_loss(&mut self, loss: LossEvent) {
        self.win.on_loss(&mut self.engine.cwnd, loss);
    }

    /// Resolve the wire priority: the effective queue, unless a reorder
    /// barrier still pins us to the previous (lower) priority. While the
    /// barrier is active the flow keeps sending at the old priority; every
    /// such transmission extends the barrier, so the switch happens at the
    /// first moment nothing sent at the old priority is still in flight.
    fn sync_tx_prio(&mut self) {
        if let Some(b) = self.reorder_barrier {
            if self.engine.acked() >= b.min(self.engine.snd_nxt())
                && self.engine.flight_bytes() == 0
            {
                self.reorder_barrier = None;
            } else if self.engine.acked() >= b {
                // Original barrier cleared but packets sent during the
                // drain window are still out: extend to the send frontier.
                self.reorder_barrier = Some(self.engine.snd_nxt());
            }
        }
        match self.reorder_barrier {
            Some(_) => self.tx_prio = self.tx_prio.max(self.queue),
            None => self.tx_prio = self.queue,
        }
    }

    fn pump(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.data_suppressed() {
            return;
        }
        self.sync_tx_prio();
        let prio = self.tx_prio;
        self.engine.pump(ctx, |pkt| {
            pkt.prio = prio;
            pkt.ecn_capable = true;
        });
    }

    fn finish(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        ctx.flow_completed();
        self.release_arbitration(ctx);
    }

    /// Terminal give-up: the peer stopped responding for the engine's
    /// whole RTO budget (crashed host). The flow ends in an attributable
    /// `Aborted` state and releases its arbitrator claims so PrioQue/Rref
    /// capacity returns to live flows immediately rather than waiting for
    /// lease expiry.
    fn abort(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        ctx.flow_aborted(netsim::trace::AbortReason::MaxRtosExceeded);
        self.release_arbitration(ctx);
    }

    /// Tell the arbitrators to release our state (both legs).
    fn release_arbitration(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.spec.is_background() {
            return;
        }
        let flow = self.spec.id;
        if let Some(arb) = ctx.process::<ArbProcess>() {
            arb.local_remove(flow);
        }
        let (src, dst) = (self.spec.src, self.spec.dst);
        for (to, leg) in [
            (self.plan.sender_leg_to, Leg::Sender),
            (self.plan.receiver_leg_to, Leg::Receiver),
        ] {
            if let Some(to) = to {
                let done = ArbMsg::FlowDone {
                    flow,
                    src,
                    dst,
                    leg,
                };
                self.send_ctrl(ctx, to, done);
            }
        }
    }

    /// Apply and count a channel-health verdict; the refresh re-arbitrates
    /// next, which re-attaches a flow leaving fallback.
    fn apply(&mut self, transition: Transition, ctx: &mut AgentCtx<'_, '_>) {
        let stats = &mut ctx.sim.stats;
        match transition {
            Transition::None => {}
            Transition::EnterFallback(cause) => {
                if cause == Cause::Silent {
                    stats.fallback_entries_silent += 1;
                    // Conservative DCTCP restart, as after a timeout.
                    self.on_loss(LossEvent::Timeout);
                } else {
                    stats.fallback_entries_shed += 1;
                }
                // Pins the lowest queue at base rate. A demotion applies
                // immediately (no reordering risk). The flow keeps making
                // progress with no control plane at all.
                self.recompute_effective(ctx);
            }
            Transition::ExitFallback => stats.fallback_exits += 1,
        }
    }
}

impl FlowAgent for PaseSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        // The first round's requests go out now.
        self.health = ChannelHealth::new(&self.cfg, ctx.now());
        // Every flow starts at once on the endpoint arbitrators' decision
        // and refines when the leg responses arrive (DESIGN.md, PASE
        // deviations: the paper's flows wait for the child arbitrator).
        self.arbitrate(ctx);
        self.pump(ctx);
        if !self.spec.is_background() {
            ctx.set_timer(
                self.health.refresh_delay(self.stalled_rtos()),
                self.refresh.arm(),
            );
        }
        if self.data_suppressed() {
            self.start_pace_probes(ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if let Some(sent) = pkt.ts_echo {
            self.health.on_ack(sent);
        }
        match pkt.kind {
            PacketKind::Ack => {
                let now = ctx.now();
                match self.engine.on_ack(pkt.seq, pkt.ts_echo, now) {
                    AckKind::New { newly_acked, .. } => {
                        self.recovery_probe = None;
                        self.on_new_ack(newly_acked, pkt.ece);
                    }
                    AckKind::Dup { .. } | AckKind::Stale => {}
                }
                if let Some(loss) = self.engine.take_loss_event() {
                    self.on_loss(loss);
                }
                if self.engine.complete() {
                    self.finish(ctx);
                    return;
                }
                self.pump(ctx);
            }
            PacketKind::ProbeAck => {
                let now = ctx.now();
                // The probe-ack still carries a cumulative ack.
                if let AckKind::New { newly_acked, .. } =
                    self.engine.on_ack(pkt.seq, pkt.ts_echo, now)
                {
                    self.on_new_ack(newly_acked, pkt.ece);
                }
                if self.engine.complete() {
                    self.finish(ctx);
                    return;
                }
                if let Some(at_send) = self.recovery_probe.take() {
                    if self.engine.acked() <= at_send && self.engine.flight_bytes() > 0 {
                        // No progress since the probe: the data really was
                        // lost — retransmit (paper §3.2).
                        self.engine.force_loss_rewind(ctx);
                        if let Some(loss) = self.engine.take_loss_event() {
                            self.on_loss(loss);
                        }
                    }
                }
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        if self.pace.fire(ctx.sim, token) {
            if self.data_suppressed() {
                self.send_probe(ctx);
                self.start_pace_probes(ctx);
            }
        } else if self.refresh.is_current(token) {
            let verdict =
                self.health
                    .on_refresh_round(ctx.now(), self.heard.take(), self.reply_deadline());
            self.apply(verdict, ctx);
            self.arbitrate(ctx);
            self.pump(ctx);
            ctx.set_timer(
                self.health.refresh_delay(self.stalled_rtos()),
                self.refresh.arm(),
            );
        } else if self.engine.rto_fired(token, ctx) {
            if self.cfg.probing && self.queue > 0 && self.recovery_probe.is_none() {
                // Probe instead of retransmitting: the data may simply be
                // parked behind higher-priority traffic.
                ctx.sim.stats.note_timeout(self.spec.id);
                self.engine.defer_timeout(ctx);
                if self.engine.gave_up() {
                    // Deferrals spend the same RTO budget as real fires; a
                    // dead receiver cannot be probed forever.
                    self.abort(ctx);
                    return;
                }
                self.recovery_probe = Some(self.engine.acked());
                self.send_probe(ctx);
            } else if self.engine.on_timeout(ctx) {
                if let Some(loss) = self.engine.take_loss_event() {
                    self.on_loss(loss);
                }
                self.pump(ctx);
            } else {
                self.abort(ctx);
            }
        }
    }

    /// An arbitration response arrived: keep its leg's decision and
    /// re-merge (the next refresh judges the round by it).
    fn on_wake(&mut self, msg: Box<dyn Any + Send>, ctx: &mut AgentCtx<'_, '_>) {
        let Some(&ArbMsg::Response(resp)) = msg.downcast_ref::<ArbMsg>() else {
            return;
        };
        // A shed reply is backpressure, not a decision — its queue/rate
        // merely echo what the sender already believed. Age the leg out so
        // the flow rides its always-fresh local (uplink) arbitration until
        // the overloaded arbitrator answers for real: a stale crowd-era
        // allocation held across a backed-off refresh gap would keep
        // throttling or suppressing the flow long after the burst has
        // drained.
        let decision = (!resp.shedding).then_some(resp.decision);
        match resp.leg {
            Leg::Sender => self.sender_leg = decision,
            Leg::Receiver => self.receiver_leg = decision,
        }
        self.heard = Some(resp.shedding || self.heard == Some(true));
        self.recompute_effective(ctx);
        self.pump(ctx);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// Algorithm 2's three kinds of queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Band {
    Top,
    Intermediate,
    Bottom,
}

fn band(cfg: &PaseConfig, queue: u8) -> Band {
    if queue == 0 {
        Band::Top
    } else if queue >= cfg.lowest_queue() {
        Band::Bottom
    } else {
        Band::Intermediate
    }
}

/// What Algorithm 2 does to the congestion window.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WindowLaw {
    /// Leave the window as it is.
    Keep,
    /// `cwnd = 1` packet.
    One,
    /// `cwnd = Rref × RTT`.
    Reference,
    /// DCTCP growth at this per-ACK credit factor.
    Grow(f64),
}

/// Algorithm 2's transition as the flow moves from queue `from` to `to`:
/// the top queue starts at `Rref × RTT` instead of slow-starting, the
/// bottom queue holds one packet, and entering the intermediate queues
/// from either end restarts at one packet while moving among them keeps
/// the window. PASE-DCTCP (Fig. 13a) never pins the window.
fn window_on_move(cfg: &PaseConfig, from: u8, to: u8) -> WindowLaw {
    if !cfg.use_reference_rate || from == to {
        return WindowLaw::Keep;
    }
    match (band(cfg, from), band(cfg, to)) {
        (_, Band::Top) => WindowLaw::Reference,
        (_, Band::Bottom) => WindowLaw::One,
        (Band::Intermediate, Band::Intermediate) => WindowLaw::Keep,
        (_, Band::Intermediate) => WindowLaw::One,
    }
}

/// Algorithm 2's per-ACK law in `queue` (a marked ACK's DCTCP decrease
/// comes first, in every queue). The top queue tracks the reference
/// rate and the bottom queue holds one packet. Intermediate queues run
/// DCTCP's laws: Algorithm 2 prints only the congestion-avoidance step,
/// but DCTCP's laws include slow start below `ssthresh`; without it,
/// flows parked at `cwnd = 1` cannot keep the fabric busy when the top
/// queue drains, defeating the work-conservation role of the lower
/// queues (paper §2.2). Self-adjusting fallback (exactly as if no
/// arbitrator had ever answered) and PASE-DCTCP run plain DCTCP growth
/// with the delayed-ACK pacing real DCTCP stacks exhibit (half a packet
/// of growth per acked packet).
fn window_on_ack(cfg: &PaseConfig, queue: u8, fallback: bool) -> WindowLaw {
    if fallback || !cfg.use_reference_rate {
        return WindowLaw::Grow(0.5);
    }
    match band(cfg, queue) {
        Band::Top => WindowLaw::Reference,
        Band::Intermediate => WindowLaw::Grow(1.0),
        Band::Bottom => WindowLaw::One,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use WindowLaw::{Grow, Keep, One, Reference};

    /// Algorithm 2's transition table on the default eight queues (top 0,
    /// intermediate 1..=6, bottom 7); PASE-DCTCP never pins the window.
    #[test]
    fn queue_changes_follow_algorithm_2() {
        let pase = PaseConfig::default();
        assert_eq!(pase.lowest_queue(), 7);
        let table = [
            // Entering an intermediate queue from either end restarts.
            (0, 3, One),
            (7, 3, One),
            (0, 1, One),
            (7, 6, One),
            // Moving among intermediate queues keeps the window.
            (2, 3, Keep),
            (3, 2, Keep),
            (1, 6, Keep),
            // Top pins `Rref × RTT`, bottom pins one packet, from anywhere.
            (3, 0, Reference),
            (7, 0, Reference),
            (3, 7, One),
            (0, 7, One),
            // No change, no transition.
            (0, 0, Keep),
            (3, 3, Keep),
            (7, 7, Keep),
        ];
        for (from, to, law) in table {
            assert_eq!(window_on_move(&pase, from, to), law, "{from} -> {to}");
        }
        let pase_dctcp = PaseConfig {
            use_reference_rate: false,
            ..pase
        };
        for (from, to, _) in table {
            assert_eq!(
                window_on_move(&pase_dctcp, from, to),
                Keep,
                "{from} -> {to}"
            );
        }
    }

    /// Per ACK: the queue decides, except in fallback and PASE-DCTCP,
    /// which grow like DCTCP at the delayed-ACK factor in every queue.
    #[test]
    fn acks_follow_the_queue() {
        let pase = PaseConfig::default();
        let pase_dctcp = PaseConfig {
            use_reference_rate: false,
            ..pase
        };
        for q in 0..=7 {
            let law = match q {
                0 => Reference,
                7 => One,
                _ => Grow(1.0),
            };
            assert_eq!(window_on_ack(&pase, q, false), law, "queue {q}");
            assert_eq!(
                window_on_ack(&pase, q, true),
                Grow(0.5),
                "fallback, queue {q}"
            );
            assert_eq!(window_on_ack(&pase_dctcp, q, false), Grow(0.5), "queue {q}");
        }
    }
}
