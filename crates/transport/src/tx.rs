//! Reliable, window-based transmit engine.
//!
//! [`TxEngine`] implements the sender-side machinery shared by every
//! self-adjusting-endpoint transport in this workspace (TCP, DCTCP, D2TCP,
//! L2DCT, and PASE's end-host transport): sequencing, cumulative-ack
//! processing, duplicate-ack detection with NewReno-style recovery,
//! go-back-N retransmission timeouts with Karn's rule, and window-limited
//! transmission. Congestion-control policy (how `cwnd` reacts to ACKs,
//! marks and losses) stays in the protocol agents; the engine only supplies
//! mechanism.

use netsim::host::AgentCtx;
use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::time::{SimDuration, SimTime};
use netsim::timer::{slot, SupersedingTimer};

use crate::rtt::RttEstimator;

/// What an arriving cumulative ACK meant to the sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AckKind {
    /// Advanced the cumulative-ack frontier by `newly_acked` bytes.
    New {
        /// Bytes newly acknowledged.
        newly_acked: u64,
        /// RTT sample, if admissible under Karn's rule.
        rtt_sample: Option<SimDuration>,
    },
    /// A duplicate ACK; `count` duplicates seen so far at this frontier.
    Dup {
        /// Consecutive duplicates at the current frontier.
        count: u32,
    },
    /// The ACK was below the current frontier (stale); ignore.
    Stale,
}

/// Why the engine wants the agent to react to loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossEvent {
    /// Third duplicate ACK: fast retransmit fired; halve-or-mark per
    /// protocol policy.
    FastRetransmit,
    /// Retransmission timer expired: go-back-N was performed; collapse the
    /// window per protocol policy.
    Timeout,
}

/// Sender-side reliable transmission state.
#[derive(Debug)]
pub struct TxEngine {
    /// The flow being carried.
    pub flow: FlowId,
    /// Sender host.
    pub src: NodeId,
    /// Receiver host.
    pub dst: NodeId,
    /// Total application bytes to deliver.
    pub size: u64,
    /// Maximum payload per segment.
    pub mss: u32,
    /// Congestion window in packets (fractional; the transmit gate uses
    /// `floor(cwnd).max(1)`).
    pub cwnd: f64,
    /// RTT estimator / RTO source.
    pub rtt: RttEstimator,

    snd_nxt: u64,
    cum_ack: u64,
    /// Head segment scheduled for (fast) retransmission, if any.
    rtx_head: Option<u64>,
    dupacks: u32,
    /// NewReno recovery: highest sequence outstanding when loss was
    /// detected; recovery ends when `cum_ack` passes it.
    recover: Option<u64>,
    /// Karn's rule: suppress RTT samples for ACKs at or below this point
    /// (set whenever anything is retransmitted).
    karn_until: u64,
    /// An ACK for new data arrived since the RTO was last armed.
    timer_restart: bool,
    /// The retransmission timer: one queued event however often an ACK
    /// pushes the deadline back.
    rto: SupersedingTimer,
    /// Loss event raised by ack/timer processing, consumed by the agent via
    /// [`TxEngine::take_loss_event`].
    pending_loss: Option<LossEvent>,
    /// RTOs fired (or deferred) since the last ACK for new data. When this
    /// reaches [`DEFAULT_MAX_CONSECUTIVE_RTOS`] the engine gives up: the
    /// peer is unreachable (crashed host, partitioned rack) and retrying
    /// forever would just keep a dead flow alive.
    consecutive_rtos: u32,
    /// Set once the give-up threshold is crossed; the engine stops sending
    /// and arming timers. The agent should abort the flow.
    gave_up: bool,
}

/// Bound on consecutive RTOs before a sender gives up on its peer. Where
/// that puts the give-up point depends on the path: the backoff doubles
/// the unfloored `srtt + 4·rttvar` before the `min_rto` clamp (see
/// [`RttEstimator::rto`]), so on a sub-millisecond fabric the first
/// five timeouts all sit at the 10 ms floor and a sender gives up about
/// 130 ms after its peer goes dark, not the ~2.5 s that doubling from the
/// floor would take.
pub const DEFAULT_MAX_CONSECUTIVE_RTOS: u32 = 8;

impl TxEngine {
    /// Create an engine for one flow.
    pub fn new(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size: u64,
        mss: u32,
        init_cwnd: f64,
        rtt: RttEstimator,
    ) -> TxEngine {
        assert!(size > 0, "zero-length flow");
        assert!(mss > 0, "zero MSS");
        TxEngine {
            flow,
            src,
            dst,
            size,
            mss,
            cwnd: init_cwnd.max(1.0),
            rtt,
            snd_nxt: 0,
            cum_ack: 0,
            rtx_head: None,
            dupacks: 0,
            recover: None,
            karn_until: 0,
            timer_restart: false,
            rto: SupersedingTimer::new(flow, slot::RTO),
            pending_loss: None,
            consecutive_rtos: 0,
            gave_up: false,
        }
    }

    /// RTOs fired (or deferred) since the last ACK for new data.
    pub fn consecutive_rtos(&self) -> u32 {
        self.consecutive_rtos
    }

    /// Has the engine exhausted its RTO budget and given up on the peer?
    /// Once set, [`TxEngine::pump`] sends nothing and the RTO timer stays
    /// disarmed; the agent should move the flow to a terminal state.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Bytes acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.cum_ack
    }

    /// Bytes not yet acknowledged (the flow's *remaining size*, used as the
    /// scheduling criterion by PASE, pFabric and PDQ).
    pub fn remaining(&self) -> u64 {
        self.size - self.cum_ack
    }

    /// Bytes sent but not yet acknowledged.
    pub fn flight_bytes(&self) -> u64 {
        self.snd_nxt - self.cum_ack
    }

    /// Packets in flight (rounded up).
    pub fn flight_pkts(&self) -> u64 {
        (self.flight_bytes()).div_ceil(self.mss as u64)
    }

    /// Has every byte been acknowledged?
    pub fn complete(&self) -> bool {
        self.cum_ack >= self.size
    }

    /// Is the sender in NewReno recovery?
    pub fn in_recovery(&self) -> bool {
        self.recover.is_some()
    }

    /// The next unsent byte.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Process a cumulative acknowledgment `ack_seq` (the receiver's next
    /// expected byte). Returns what the ACK meant; on the third duplicate
    /// the engine schedules a fast retransmit internally and reports it via
    /// [`TxEngine::take_loss_event`].
    pub fn on_ack(&mut self, ack_seq: u64, ts_echo: Option<SimTime>, now: SimTime) -> AckKind {
        if ack_seq > self.cum_ack {
            let newly = ack_seq - self.cum_ack;
            self.cum_ack = ack_seq;
            self.dupacks = 0;
            self.consecutive_rtos = 0;
            if self.snd_nxt < ack_seq {
                // Receiver knows more than we sent? Impossible unless the
                // counterpart acknowledged a retransmitted tail; clamp.
                self.snd_nxt = ack_seq;
            }
            // Exit recovery when the loss window is fully acknowledged;
            // NewReno partial ack: retransmit the next hole.
            if let Some(rec) = self.recover {
                if ack_seq >= rec {
                    self.recover = None;
                } else {
                    self.rtx_head = Some(self.cum_ack);
                }
            }
            let rtt_sample = match ts_echo {
                Some(ts) if ack_seq > self.karn_until => now.checked_since(ts),
                _ => None,
            };
            if let Some(s) = rtt_sample {
                self.rtt.on_sample(s);
            }
            // RFC 6298: an ACK for new data restarts the RTO. The next
            // `arm_timer` (callers pump right after) re-arms from now.
            self.timer_restart = true;
            AckKind::New {
                newly_acked: newly,
                rtt_sample,
            }
        } else if ack_seq == self.cum_ack && !self.complete() && self.flight_bytes() > 0 {
            self.dupacks += 1;
            if self.dupacks == 3 && self.recover.is_none() {
                self.recover = Some(self.snd_nxt);
                self.rtx_head = Some(self.cum_ack);
                self.pending_loss = Some(LossEvent::FastRetransmit);
            }
            AckKind::Dup {
                count: self.dupacks,
            }
        } else {
            AckKind::Stale
        }
    }

    /// Retrieve (and clear) a pending loss event raised by the engine.
    pub fn take_loss_event(&mut self) -> Option<LossEvent> {
        self.pending_loss.take()
    }

    /// A timer event in the agent's token space popped, live or stale:
    /// hands the RTO's queue slot over and answers whether this is the
    /// RTO expiring with data outstanding. On `true` the agent either
    /// calls [`TxEngine::on_timeout`] or intercepts the timeout (PASE
    /// probes instead: [`TxEngine::defer_timeout`]). A live fire disarms
    /// the timer even with nothing in flight: what empties the flight
    /// without disarming is an ACK for new data, which makes the next
    /// [`TxEngine::arm_timer`] re-arm anyway.
    pub fn rto_fired(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) -> bool {
        self.rto.fire(ctx.sim, token) && !self.complete() && self.flight_bytes() > 0
    }

    /// The RTO expired ([`TxEngine::rto_fired`]): back off and go back N,
    /// raising [`LossEvent::Timeout`] for the agent to collapse its window
    /// on before it calls [`TxEngine::pump`]. Returns `false` instead when
    /// the give-up budget is spent: the engine has given up (no rewind, no
    /// re-arm) and the agent should abort the flow.
    pub fn on_timeout(&mut self, ctx: &mut AgentCtx<'_, '_>) -> bool {
        if !self.back_off() {
            return false;
        }
        self.force_loss_rewind(ctx);
        true
    }

    /// Acknowledge a timeout without retransmitting: back off the RTO and
    /// re-arm. Used by PASE's probe-based loss recovery, which first asks
    /// the receiver whether data was lost or merely delayed in a low
    /// priority queue.
    /// Deferrals count against the same give-up budget as real RTO fires,
    /// so a prober cannot keep a flow to a dead receiver alive forever.
    pub fn defer_timeout(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.rto.disarm();
        if self.back_off() {
            self.arm_timer(ctx);
        }
    }

    /// Back the RTO off and spend one timeout of the give-up budget.
    /// `false` once the budget is spent: the engine has given up.
    fn back_off(&mut self) -> bool {
        self.rtt.on_timeout();
        self.consecutive_rtos += 1;
        if self.consecutive_rtos >= DEFAULT_MAX_CONSECUTIVE_RTOS {
            self.gave_up = true;
        }
        !self.gave_up
    }

    /// Perform the go-back-N loss rewind immediately (PASE calls this when
    /// a probe confirms actual loss). Raises [`LossEvent::Timeout`].
    pub fn force_loss_rewind(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        ctx.sim.stats.note_timeout(self.flow);
        ctx.sim
            .stats
            .note_retransmit(self.flow, self.snd_nxt - self.cum_ack);
        // Karn's rule: suppress samples for everything about to be resent.
        self.karn_until = self.karn_until.max(self.snd_nxt);
        self.snd_nxt = self.cum_ack;
        self.rtx_head = None;
        self.recover = None;
        self.dupacks = 0;
        self.rto.disarm();
        self.pending_loss = Some(LossEvent::Timeout);
    }

    /// Arm the RTO timer if data is outstanding. An already-armed timer
    /// keeps its deadline unless an ACK for new data arrived since
    /// (RFC 6298 restarts it then): resetting the deadline on *every*
    /// pump would let frequent no-op pumps — e.g. PASE's per-refresh
    /// control-plane wakeups, which arrive well inside one RTO — push
    /// the expiry out forever and starve the only recovery path once
    /// the ACK clock is lost.
    pub fn arm_timer(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.gave_up || self.complete() || (self.flight_bytes() == 0 && self.rtx_head.is_none())
        {
            return;
        }
        if self.rto.is_armed() && !self.timer_restart {
            return;
        }
        self.timer_restart = false;
        self.rto.arm(ctx.sim, self.rtt.rto());
    }

    /// Is there anything the window would let us send right now?
    pub fn can_send(&self) -> bool {
        if self.gave_up || self.complete() {
            return false;
        }
        let window_pkts = self.cwnd.floor().max(1.0) as u64;
        if self.rtx_head.is_some() {
            return true;
        }
        if self.snd_nxt >= self.size {
            return false;
        }
        self.flight_pkts() < window_pkts
    }

    /// Transmit as much as the window allows. `customize` is applied to
    /// every outgoing packet (to set priorities, ranks, protocol headers).
    /// Re-arms the RTO timer. Returns the number of packets sent.
    pub fn pump<F>(&mut self, ctx: &mut AgentCtx<'_, '_>, mut customize: F) -> usize
    where
        F: FnMut(&mut Packet),
    {
        let mut sent = 0;
        while self.can_send() {
            let (seq, is_rtx) = match self.rtx_head.take() {
                Some(seq) => (seq, true),
                None => (self.snd_nxt, false),
            };
            let len = segment_len(self.mss, self.size, seq);
            let mut pkt = Packet::data(self.flow, self.src, self.dst, seq, len);
            customize(&mut pkt);
            ctx.send(pkt);
            sent += 1;
            if is_rtx {
                ctx.sim.stats.note_retransmit(self.flow, len as u64);
                self.karn_until = self.karn_until.max(self.snd_nxt);
            } else {
                self.snd_nxt = seq + len as u64;
            }
        }
        if sent > 0 || self.flight_bytes() > 0 {
            self.arm_timer(ctx);
        }
        sent
    }
}

/// The length of the segment starting at `seq` of a `size`-byte flow: a
/// full `mss`, or the tail. `seq` must lie inside the flow.
pub fn segment_len(mss: u32, size: u64, seq: u64) -> u32 {
    debug_assert!(seq < size, "segment at {seq} past a {size}-byte flow");
    mss.min((size - seq).min(u32::MAX as u64) as u32)
}
