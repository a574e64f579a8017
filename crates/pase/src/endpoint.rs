//! The PASE end-host transport (paper §3.2).
//!
//! The sender combines the three strategies:
//!
//! * **Arbitration** tells it a priority queue and a reference rate: the
//!   local uplink decision is synchronous (same host); the sender- and
//!   receiver-leg decisions arrive as control responses and are merged as
//!   `queue = max`, `rate = min` (the bottleneck rules).
//! * **Guided rate control** (Algorithm 2): top-queue flows set
//!   `cwnd = Rref × RTT` instead of slow-starting; intermediate-queue
//!   flows run DCTCP control laws; bottom-queue flows hold `cwnd = 1`.
//!   A marked ACK always triggers the DCTCP decrease.
//! * **Priority-aware loss recovery**: lower-queue flows answer timeouts
//!   with header-only probes that distinguish "lost" from "parked behind
//!   higher-priority traffic"; minimum RTOs are 10 ms (top queue) vs
//!   200 ms (rest). Optionally, bottom-queue flows replace their
//!   1-packet-per-RTT trickle with probes entirely (§4.3.2).
//! * **Reordering guard**: on a queue promotion the sender drains
//!   in-flight lower-priority packets before sending at the new priority.
//! * **Graceful degradation**: [`ChannelHealth`] watches the control
//!   channel; when it declares arbitration unreachable the flow falls
//!   back to pure self-adjusting mode (lowest queue, DCTCP laws, data
//!   never suppressed) with bounded exponential backoff on re-requests,
//!   and re-attaches to its arbitrated `PrioQue`/`Rref` assignment when
//!   clean responses resume.
//!
//! The self-adjusting part is not a copy of DCTCP: the window law is
//! [`transport::DctcpWindow`], the value `transport::FamilySender` runs.

use netsim::flow::FlowSpec;
use netsim::host::{AgentCtx, FlowAgent, WAKEUP_TOKEN};
use netsim::ids::NodeId;
use netsim::packet::{Packet, PacketKind};
use netsim::time::{Rate, SimDuration, SimTime};
use transport::{AckKind, DctcpWindow, LossEvent, RttEstimator, TxEngine};

use crate::algorithm::Decision;
use crate::config::{PaseConfig, DCTCP_G, MAX_RTO, MIN_RTO_LOW, MIN_RTO_TOP};
use crate::health::{ChannelHealth, Transition};
use crate::host_service::{ArbPlan, PaseHostService};
use crate::messages::{ArbMsg, ArbRequest, Leg};

/// Token bases for the sender's own timers; [`TxEngine`] epochs stay far
/// below these.
const REFRESH_TOKEN_BASE: u64 = 1 << 40;
const PACE_TOKEN_BASE: u64 = 1 << 41;

/// The PASE sender agent.
pub struct PaseSender {
    spec: FlowSpec,
    cfg: PaseConfig,
    engine: TxEngine,
    plan: ArbPlan,

    // Arbitration state.
    local: Decision,
    queue: u8,
    rref: Rate,
    /// Band actually written on outgoing data (lags `queue` during the
    /// reordering-guard hold).
    tx_prio: u8,

    /// DCTCP window law for the self-adjusting part. Its `ssthresh`
    /// matters only where the law grows the window: PASE-DCTCP mode
    /// (Fig. 13a), intermediate queues and fallback.
    win: DctcpWindow,
    /// Algorithm 2's `isInterQueue` flag.
    is_inter_queue: bool,

    // Reordering guard: while `Some(barrier)`, new data keeps the old
    // (lower) priority until everything sent before the promotion is
    // acknowledged, then switches to the new priority.
    reorder_barrier: Option<u64>,
    // Probe-based loss recovery: `Some(acked_at_send)` while a recovery
    // probe is outstanding.
    recovery_probe: Option<u64>,
    // Bottom-queue pacing probes.
    pace_epoch: u64,
    refresh_epoch: u64,
    started: bool,
    /// Control-plane watchdog (graceful degradation, paper §3.1.3).
    health: ChannelHealth,
    done: bool,
}

impl PaseSender {
    /// Create a sender for `spec`.
    pub fn new(spec: &FlowSpec, cfg: PaseConfig) -> PaseSender {
        let rtt = RttEstimator::new(MIN_RTO_TOP, MAX_RTO);
        PaseSender {
            spec: spec.clone(),
            cfg,
            engine: TxEngine::new(spec.id, spec.src, spec.dst, spec.size, cfg.mss, 1.0, rtt),
            plan: ArbPlan {
                sender_leg_to: None,
                receiver_leg_to: None,
            },
            local: Decision {
                queue: cfg.lowest_queue(),
                rate: cfg.base_rate(),
            },
            queue: cfg.lowest_queue(),
            rref: cfg.base_rate(),
            tx_prio: cfg.lowest_queue(),
            win: DctcpWindow::new(DCTCP_G, f64::INFINITY),
            is_inter_queue: false,
            reorder_barrier: None,
            recovery_probe: None,
            pace_epoch: 0,
            refresh_epoch: 0,
            started: false,
            health: ChannelHealth::new(&cfg, SimTime::ZERO),
            done: false,
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

    /// Whether the watchdog has the flow in self-adjusting fallback
    /// (tests/inspection).
    pub fn in_fallback(&self) -> bool {
        self.health.in_fallback()
    }

    /// Current shed-driven refresh-backoff exponent (tests/inspection).
    pub fn shed_backoff(&self) -> u32 {
        self.health.shed_backoff()
    }

    /// Net shed responses on the control channel (tests/inspection).
    pub fn shed_rounds(&self) -> u32 {
        self.health.shed_rounds()
    }

    fn srtt(&self) -> SimDuration {
        self.engine.rtt.srtt().unwrap_or(self.cfg.base_rtt)
    }

    /// The flow's demand: what it could use if unconstrained — the NIC
    /// rate, capped by what the remaining bytes can fill in one RTT
    /// (paper §3.1.1: "for short flows ... this is set to a lower value").
    fn demand(&self, ctx: &AgentCtx<'_, '_>) -> Rate {
        let nic = ctx.host.port.rate;
        let remaining_wire =
            self.engine.remaining() + (self.engine.remaining() / self.cfg.mss as u64 + 1) * 40;
        let per_rtt =
            Rate::from_bps((remaining_wire as f64 * 8.0 / self.cfg.base_rtt.as_secs_f64()) as u64);
        nic.min(per_rtt)
    }

    fn reference_cwnd_pkts(&self) -> f64 {
        let bytes_per_rtt = self.rref.bytes_in(self.srtt());
        (bytes_per_rtt as f64 / (self.cfg.mss as f64 + 40.0)).max(1.0)
    }

    fn in_bottom_queue(&self) -> bool {
        self.queue >= self.cfg.lowest_queue()
    }

    /// Should data transmission be suppressed in favor of pacing probes?
    /// Never in fallback: with no arbitrator to promote us out of the
    /// bottom queue, probing instead of sending would stall forever.
    fn data_suppressed(&self) -> bool {
        !self.health.in_fallback()
            && self.cfg.probe_bottom_queue
            && self.in_bottom_queue()
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
            reply_to: self.spec.src,
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
            acc_queue: 0,
            acc_rate: demand,
        };
        let Some(svc) = ctx.service::<PaseHostService>() else {
            // No control plane installed: degrade to a single queue.
            return;
        };
        if svc.is_crashed() {
            // The local control process is down: the synchronous uplink
            // decision fails exactly like the remote legs do, and the
            // watchdog drops the flow to self-adjusting fallback.
            return;
        }
        self.plan = svc.plan(self.spec.dst);
        self.local = svc.local_update(&req, now);

        // Sender-leg request, continuing from the local decision (pruned
        // if that is already out of the top queues).
        if let Some(tor) = self.plan.sender_leg_to {
            if self.cfg.early_pruning && self.local.queue >= self.cfg.prune_depth {
                ctx.sim.stats.note_arb_pruned(self.spec.src);
            } else {
                ctx.sim.stats.note_arb_climbed(self.spec.src);
                let sender_leg = ArbRequest {
                    leg: Leg::Sender,
                    acc_queue: self.local.queue,
                    acc_rate: self.local.rate,
                    ..req
                };
                self.send_ctrl(ctx, tor, ArbMsg::Request(sender_leg));
            }
        }
        if let Some(dst) = self.plan.receiver_leg_to {
            self.send_ctrl(ctx, dst, ArbMsg::Request(req));
        }
        self.recompute_effective(ctx);
    }

    /// Merge the local and leg decisions into the effective queue/rate and
    /// apply Algorithm 2's state transitions.
    fn recompute_effective(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.health.in_fallback() {
            // Fallback pins the flow to the lowest queue at base rate; the
            // merge below would resurrect the (possibly stale, possibly
            // uncoordinated) local decision. Exit happens in the WAKEUP
            // path, before this is called again.
            self.queue = self.cfg.lowest_queue();
            self.rref = self.cfg.base_rate();
            self.sync_tx_prio();
            self.engine.rtt.set_min_rto(MIN_RTO_LOW);
            return;
        }
        let legs = match ctx.service::<PaseHostService>() {
            Some(svc) => svc.leg_results(self.spec.id),
            None => Default::default(),
        };
        let mut queue = self.local.queue;
        let mut rref = self.local.rate;
        for d in [legs.sender, legs.receiver].into_iter().flatten() {
            queue = queue.max(d.queue);
            rref = rref.min(d.rate);
        }
        let old_queue = self.queue;
        self.queue = queue.min(self.cfg.lowest_queue());
        self.rref = rref;

        if self.queue < old_queue && self.engine.flight_bytes() > 0 {
            // Promotion: keep sending at the old (lower) priority until
            // everything already in flight is acknowledged, so packets of
            // the two priorities cannot reorder (paper §3.2). Demotions
            // apply immediately (low-priority packets sent later cannot
            // overtake earlier high-priority ones).
            self.reorder_barrier = Some(self.engine.snd_nxt());
        }
        self.sync_tx_prio();
        // Per-queue minimum RTO (Table 3).
        let min_rto = if self.queue == 0 {
            MIN_RTO_TOP
        } else {
            MIN_RTO_LOW
        };
        self.engine.rtt.set_min_rto(min_rto);

        // Algorithm 2 state transitions on queue change.
        if self.cfg.use_reference_rate && old_queue != self.queue {
            if self.queue == 0 {
                self.engine.cwnd = self.reference_cwnd_pkts();
                self.is_inter_queue = false;
            } else if self.in_bottom_queue() {
                self.engine.cwnd = 1.0;
                self.is_inter_queue = false;
            } else if !self.is_inter_queue {
                self.is_inter_queue = true;
                self.engine.cwnd = 1.0;
            }
        }
        // Entering the bottom queue with pacing probes: start the pacer.
        if self.data_suppressed() && self.started {
            self.start_pace_probes(ctx);
        }
    }

    fn start_pace_probes(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.pace_epoch += 1;
        ctx.set_timer(self.srtt(), PACE_TOKEN_BASE + self.pace_epoch);
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
        if self.health.in_fallback() || !self.cfg.use_reference_rate {
            // Self-adjusting fallback (exactly as if no arbitrator had
            // ever answered) and PASE-DCTCP (Fig. 13a): plain DCTCP
            // growth, with the same delayed-ACK pacing real DCTCP stacks
            // exhibit (half a packet of growth per acked packet).
            self.grow(newly, 0.5);
            return;
        }
        if self.queue == 0 {
            // Top queue: the window tracks the reference rate.
            self.engine.cwnd = self.reference_cwnd_pkts();
            self.is_inter_queue = false;
        } else if self.in_bottom_queue() {
            self.engine.cwnd = 1.0;
            self.is_inter_queue = false;
        } else if self.is_inter_queue {
            // Intermediate queues: DCTCP control laws. Algorithm 2 prints
            // only the congestion-avoidance step, but DCTCP's laws include
            // slow start below ssthresh; without it, flows parked at
            // cwnd=1 cannot keep the fabric busy when the top queue
            // drains, defeating the work-conservation role of the lower
            // queues (paper §2.2).
            self.grow(newly, 1.0);
        } else {
            self.is_inter_queue = true;
            self.engine.cwnd = 1.0;
        }
    }

    fn grow(&mut self, newly: u64, factor: f64) {
        let mss = self.cfg.mss;
        self.win
            .grow(&mut self.engine.cwnd, newly, mss, factor, 1.0);
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
        self.done = true;
        self.release_arbitration(ctx);
    }

    /// Terminal give-up: the peer stopped responding for the engine's
    /// whole RTO budget (crashed host). The flow ends in an attributable
    /// `Aborted` state and releases its arbitrator claims so PrioQue/Rref
    /// capacity returns to live flows immediately rather than waiting for
    /// lease expiry.
    fn abort(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        ctx.flow_aborted(netsim::trace::AbortReason::MaxRtosExceeded);
        self.done = true;
        self.release_arbitration(ctx);
    }

    /// Tell the arbitrators to release our state (both legs).
    fn release_arbitration(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.spec.is_background() {
            return;
        }
        let flow = self.spec.id;
        if let Some(svc) = ctx.service::<PaseHostService>() {
            svc.local_remove(flow);
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

    fn arm_refresh(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.refresh_epoch += 1;
        let delay = self.health.next_refresh_delay();
        ctx.set_timer(delay, REFRESH_TOKEN_BASE + self.refresh_epoch);
    }

    /// Apply a channel-health verdict (see [`Transition`]).
    fn apply(&mut self, transition: Transition, ctx: &mut AgentCtx<'_, '_>) {
        match transition {
            Transition::None => {}
            Transition::EnterFallback { reset_window } => {
                if reset_window {
                    // Conservative DCTCP restart, as after a timeout.
                    self.on_loss(LossEvent::Timeout);
                }
                self.is_inter_queue = false;
                // Pins the lowest queue at base rate. A demotion applies
                // immediately (no reordering risk). The flow keeps making
                // progress with no control plane at all.
                self.recompute_effective(ctx);
            }
            Transition::ExitFallback => self.arm_refresh(ctx),
        }
    }
}

impl FlowAgent for PaseSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.started = true;
        // The watchdog measures silence from flow start.
        self.health = ChannelHealth::new(&self.cfg, ctx.now());
        // Every flow starts at once on the endpoint arbitrators' decision
        // and refines when the leg responses arrive (DESIGN.md, PASE
        // deviations: the paper's flows wait for the child arbitrator).
        self.arbitrate(ctx);
        if self.cfg.use_reference_rate && self.queue == 0 {
            self.engine.cwnd = self.reference_cwnd_pkts();
        } else if !self.cfg.use_reference_rate {
            self.engine.cwnd = 2.0; // DCTCP-style initial window
        } else {
            self.engine.cwnd = 1.0;
        }
        self.pump(ctx);
        if !self.spec.is_background() {
            self.arm_refresh(ctx);
        }
        if self.data_suppressed() {
            self.start_pace_probes(ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if self.done {
            return;
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
        if self.done {
            return;
        }
        if token == WAKEUP_TOKEN {
            // An arbitration response arrived; consume its piggybacked
            // load-shed signal.
            let shed = ctx
                .service::<PaseHostService>()
                .map(|svc| svc.take_shed(self.spec.id))
                .unwrap_or(false);
            let verdict = self.health.on_response(ctx.now(), shed);
            self.apply(verdict, ctx);
            // On leaving fallback this re-attaches the flow to its
            // arbitrated queue and reference rate (Algorithm 2 transitions
            // fire on the queue change).
            self.recompute_effective(ctx);
            self.pump(ctx);
            return;
        }
        if token >= PACE_TOKEN_BASE {
            if token == PACE_TOKEN_BASE + self.pace_epoch && self.data_suppressed() {
                self.send_probe(ctx);
                self.pace_epoch += 1;
                ctx.set_timer(self.srtt(), PACE_TOKEN_BASE + self.pace_epoch);
            }
            return;
        }
        if token >= REFRESH_TOKEN_BASE {
            if token == REFRESH_TOKEN_BASE + self.refresh_epoch {
                let expects_responses =
                    self.plan.sender_leg_to.is_some() || self.plan.receiver_leg_to.is_some();
                let verdict = self.health.on_refresh_round(ctx.now(), expects_responses);
                self.apply(verdict, ctx);
                self.arbitrate(ctx);
                self.pump(ctx);
                self.arm_refresh(ctx);
            }
            return;
        }
        // Engine RTO.
        self.engine.timer_popped(token, ctx);
        if self.engine.timer_is_live(token) {
            if self.cfg.probe_on_timeout && self.queue > 0 && self.recovery_probe.is_none() {
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
            } else if self.engine.on_timer(token, ctx) {
                if let Some(loss) = self.engine.take_loss_event() {
                    self.on_loss(loss);
                }
                self.pump(ctx);
            } else if self.engine.gave_up() {
                self.abort(ctx);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}
