//! Component-level tests of host and switch event dispatch: agent
//! lifecycle, process wake-ups, transit hooks, timers and faults.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::event::EventKind;
use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentCtx, AgentFactory, FlowAgent};
use netsim::node::{Node, ProcIo, Process};
use netsim::packet::{Packet, PacketKind};
use netsim::prelude::*;

/// A sender that transmits one data packet per `on_start`, counts its
/// acks, sums the `u32` messages its wake-ups hand it, and completes on
/// the first ack.
struct OneShotSender {
    spec: FlowSpec,
    acks: Arc<AtomicU64>,
    wakeups: Arc<AtomicU64>,
}

impl FlowAgent for OneShotSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let pkt = Packet::data(self.spec.id, self.spec.src, self.spec.dst, 0, 1000);
        ctx.send(pkt);
        ctx.set_timer(SimDuration::from_millis(500), 42); // will be stale
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if pkt.kind == PacketKind::Ack {
            self.acks.fetch_add(1, Ordering::Relaxed);
            ctx.flow_completed();
        }
    }

    fn on_wake(&mut self, msg: Box<dyn Any + Send>, _ctx: &mut AgentCtx<'_, '_>) {
        let value = msg.downcast::<u32>().expect("a u32 message");
        self.wakeups.fetch_add(u64::from(*value), Ordering::Relaxed);
    }
}

struct Echoer {
    hint: ReceiverHint,
}

impl FlowAgent for Echoer {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if pkt.kind == PacketKind::Data {
            ctx.send(Packet::ack(
                self.hint.flow,
                self.hint.dst,
                self.hint.src,
                pkt.seq_end(),
            ));
        }
    }
}

/// One-shot senders counting into `acks` and `wakeups`, echoing receivers.
fn one_shot_agents(acks: Arc<AtomicU64>, wakeups: Arc<AtomicU64>) -> AgentFactory {
    AgentFactory::new(
        move |spec: &FlowSpec| OneShotSender {
            spec: spec.clone(),
            acks: Arc::clone(&acks),
            wakeups: Arc::clone(&wakeups),
        },
        |hint| Echoer { hint },
    )
}

fn two_hosts(factory: AgentFactory) -> (Simulation, Vec<NodeId>, NodeId) {
    let rack = TopologySpec::SingleRack {
        hosts: 2,
        access: Rate::from_gbps(1),
        link_delay: SimDuration::from_micros(10),
    };
    let (net, hosts) = rack.build(factory, &|_| Box::new(DropTailQdisc::new(64)));
    let sw = net.topo.host_tor(hosts[0]);
    (Simulation::new(net), hosts, sw)
}

/// `run` stops at `max_time` with `TimeLimit` while later events are
/// queued, firing an event exactly at the limit and leaving the clock at
/// the last event it fired; with nothing left it reports `Drained`.
#[test]
fn run_tells_a_time_limit_from_a_drained_queue() {
    let (mut sim, hosts, _) = two_hosts(one_shot_agents(Arc::default(), Arc::default()));
    // Timers of a flow the host never started: handled as stale.
    for (us, token) in [(10, 0), (20, 1)] {
        let kind = EventKind::AgentTimer {
            flow: FlowId(9),
            token,
        };
        let at = SimTime::from_micros(us);
        sim.scheduler_mut().schedule_at(at, hosts[0], kind);
    }
    let until = |us| RunLimit {
        max_time: Some(SimTime::from_micros(us)),
        ..RunLimit::default()
    };
    assert_eq!(sim.run(until(10)), RunOutcome::TimeLimit);
    assert_eq!(sim.stats().events_executed, 1);
    assert_eq!(sim.scheduler().pending(), 1);
    assert_eq!(sim.run(until(19)), RunOutcome::TimeLimit);
    assert_eq!(sim.now(), SimTime::from_micros(10), "the clock moved");
    assert_eq!(sim.scheduler().pending(), 1);
    assert_eq!(sim.run(until(20)), RunOutcome::Drained);
    assert_eq!(sim.now(), SimTime::from_micros(20));
    assert_eq!(sim.stats().events_executed, 2);
    assert_eq!(sim.run(RunLimit::default()), RunOutcome::Drained);
}

#[test]
fn sender_completes_and_is_garbage_collected_stale_timer_ignored() {
    let acks = Arc::new(AtomicU64::new(0));
    let wakeups = Arc::new(AtomicU64::new(0));
    let (mut sim, hosts, _) = two_hosts(one_shot_agents(Arc::clone(&acks), Arc::clone(&wakeups)));
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    // Run past the stale 500 ms timer: the agent is gone by then, so the
    // timer must be swallowed without panicking.
    let outcome = sim.run(RunLimit::default());
    assert_eq!(outcome, RunOutcome::Drained);
    assert_eq!(acks.load(Ordering::Relaxed), 1);
    assert!(
        sim.now() >= SimTime::from_millis(500),
        "stale timer still fired as an event"
    );
    let Node::Host(h) = sim.node(hosts[0]) else {
        panic!()
    };
    assert_eq!(h.live_agents(), 0, "completed sender must be GC'd");
    let Node::Host(h1) = sim.node(hosts[1]) else {
        panic!()
    };
    assert_eq!(h1.live_agents(), 1, "receiver stays resident");
}

/// One call into a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Ctrl(FlowId),
    Timer(u64),
    Fault(FaultEvent),
    Transit(PacketKind),
}

/// A process that records every call it gets, in order.
#[derive(Default)]
struct Recorder {
    seen: Vec<Seen>,
    /// Hand each control packet's payload to the flow it is tagged with
    /// (hosts only).
    wake: bool,
    /// Re-arm each timer until this many have fired.
    ticks: usize,
}

impl Recorder {
    fn count(&self, what: impl Fn(&Seen) -> bool) -> usize {
        self.seen.iter().filter(|s| what(s)).count()
    }
}

impl Process for Recorder {
    fn on_ctrl(&mut self, mut pkt: Packet, io: &mut ProcIo<'_, '_>) {
        self.seen.push(Seen::Ctrl(pkt.flow));
        if self.wake {
            io.wake_flow(pkt.flow, pkt.proto.take().expect("a payload"));
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut ProcIo<'_, '_>) {
        self.seen.push(Seen::Timer(token));
        if self.count(|s| matches!(s, Seen::Timer(_))) < self.ticks {
            io.set_timer(SimDuration::from_micros(50), token);
        }
    }

    fn on_fault(&mut self, fault: FaultEvent, _io: &mut ProcIo<'_, '_>) {
        self.seen.push(Seen::Fault(fault));
    }

    fn on_transit(&mut self, pkt: &mut Packet, _out: PortId, _io: &mut ProcIo<'_, '_>) {
        self.seen.push(Seen::Transit(pkt.kind));
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn recorder(sim: &mut Simulation, node: NodeId) -> &mut Recorder {
    sim.node_mut(node)
        .process_as::<Recorder>()
        .expect("recorder")
}

#[test]
fn ctrl_packets_route_to_service_and_wake_agents() {
    let acks = Arc::new(AtomicU64::new(0));
    let wakeups = Arc::new(AtomicU64::new(0));
    let (mut sim, hosts, _) = two_hosts(one_shot_agents(Arc::clone(&acks), Arc::clone(&wakeups)));
    sim.node_mut(hosts[0]).set_process(Box::new(Recorder {
        wake: true,
        ..Recorder::default()
    }));
    // A big flow so the sender is still alive when the ctrl packet lands.
    sim.add_flow(FlowSpec::new(
        FlowId(3),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    // Two ctrl packets addressed to host 0, tagged with flow 3 (delivered
    // directly, as if they had just crossed host 0's access link).
    let ctrl = |payload: Box<dyn Any + Send>| Packet::ctrl(FlowId(3), hosts[1], hosts[0], payload);
    for (t, payload) in [(1u64, 7u32), (2, 8)] {
        sim.scheduler_mut().schedule_deliver(
            SimTime::from_micros(t),
            hosts[0],
            ctrl(Box::new(payload)),
        );
    }
    // A third lands after the flow completed: its hand-off finds no agent.
    let marker = Arc::new(());
    sim.scheduler_mut().schedule_deliver(
        SimTime::from_millis(1),
        hosts[0],
        ctrl(Box::new(Arc::clone(&marker))),
    );
    sim.run(RunLimit::default());
    assert_eq!(acks.load(Ordering::Relaxed), 1, "the flow completed");
    assert_eq!(
        recorder(&mut sim, hosts[0]).count(|s| matches!(s, Seen::Ctrl(_))),
        3
    );
    assert_eq!(
        wakeups.load(Ordering::Relaxed),
        7 + 8,
        "the process's wake_flow must hand each message to the agent"
    );
    // The hand-off to the retired agent was dropped: the host keeps
    // neither the agent nor the message.
    assert_eq!(Arc::strong_count(&marker), 1, "the message was dropped");
    let Node::Host(h) = sim.node(hosts[0]) else {
        panic!()
    };
    assert_eq!(h.live_agents(), 0);
}

/// A sender that retransmits its single packet every millisecond until
/// acknowledged — enough reliability to ride out an injected link outage.
struct RetrySender {
    spec: FlowSpec,
}

impl FlowAgent for RetrySender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        ctx.send(Packet::data(
            self.spec.id,
            self.spec.src,
            self.spec.dst,
            0,
            1000,
        ));
        ctx.set_timer(SimDuration::from_millis(1), 1);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if pkt.kind == PacketKind::Ack {
            ctx.flow_completed();
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        if token == 1 {
            ctx.send(Packet::data(
                self.spec.id,
                self.spec.src,
                self.spec.dst,
                0,
                1000,
            ));
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }
    }
}

/// Retrying senders, echoing receivers.
fn retry_agents() -> AgentFactory {
    AgentFactory::new(
        |spec: &FlowSpec| RetrySender { spec: spec.clone() },
        |hint| Echoer { hint },
    )
}

#[test]
fn link_outage_drops_offered_packets_and_recovery_completes_the_flow() {
    let (mut sim, hosts, sw) = two_hosts(retry_agents());
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    // The sender's access link dies before the first packet can cross and
    // recovers after three retry rounds.
    sim.inject_faults(
        &FaultPlan::new()
            .link_down(SimTime::from_nanos(1), hosts[0], sw)
            .link_up(SimTime::from_micros(3500), hosts[0], sw),
    );
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let rec = sim.stats().flow(FlowId(0)).unwrap();
    assert!(rec.completed.is_some(), "flow must complete after recovery");
    // Retries offered while the link was down were counted as such.
    let Node::Host(h) = sim.node(hosts[0]) else {
        panic!()
    };
    assert!(
        h.port().drops_while_down > 0,
        "outage drops must be counted"
    );
    assert_eq!(h.port().faults_injected, 2, "one down + one up");
    assert!(h.port().is_up());
}

#[test]
fn ctrl_loss_burst_kills_exactly_the_burst_window() {
    let (mut sim, hosts, sw) = two_hosts(retry_agents());
    sim.node_mut(hosts[1])
        .set_process(Box::new(Recorder::default()));
    // Arm a 2-packet ctrl burst on the switch's port toward host 1, then
    // push four ctrl packets through the switch.
    sim.inject_faults(&FaultPlan::new().ctrl_loss_burst(SimTime::from_nanos(1), sw, hosts[1], 2));
    for t in 2u64..6 {
        sim.scheduler_mut().schedule_deliver(
            SimTime::from_micros(t),
            sw,
            Packet::ctrl(FlowId(7), hosts[0], hosts[1], Box::new(t)),
        );
    }
    sim.run(RunLimit::default());
    assert_eq!(
        recorder(&mut sim, hosts[1]).count(|s| matches!(s, Seen::Ctrl(_))),
        2,
        "first two ctrl packets die in the burst, the rest pass"
    );
    // Data was never part of the burst: a data flow crosses untouched.
    let port = sim.topo().port_between(sw, hosts[1]).unwrap();
    let Node::Switch(s) = sim.node(sw) else {
        panic!()
    };
    assert_eq!(s.ports()[port.index()].faults_injected, 1);
}

#[test]
fn plugin_sees_transit_packets_and_runs_timers() {
    let acks = Arc::new(AtomicU64::new(0));
    let wakeups = Arc::new(AtomicU64::new(0));
    let (mut sim, hosts, sw) = two_hosts(one_shot_agents(acks, wakeups));
    sim.node_mut(sw).set_process(Box::new(Recorder {
        ticks: 3,
        ..Recorder::default()
    }));
    // Kick the process's timer chain.
    sim.scheduler_mut()
        .schedule_at(SimTime::from_micros(1), sw, EventKind::PluginTimer(9));
    sim.scheduler_mut().schedule_deliver(
        SimTime::ZERO,
        hosts[0],
        Packet::ack(FlowId(9), hosts[1], hosts[0], 0), // stale ack: ignored
    );
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    // Inject a probe through the switch.
    sim.scheduler_mut().schedule_deliver(
        SimTime::from_micros(3),
        sw,
        Packet::probe(FlowId(5), hosts[0], hosts[1], 0),
    );
    sim.run(RunLimit::default());
    let process = recorder(&mut sim, sw);
    let probes = process.count(|s| *s == Seen::Transit(PacketKind::Probe));
    assert_eq!(probes, 1, "the probe must transit the process");
    let ticks = process.count(|s| matches!(s, Seen::Timer(_)));
    assert_eq!(ticks, 3, "timer chain must run to completion");
    // Both the data flow and the probe were forwarded past the process.
    assert!(sim.stats().flow(FlowId(0)).unwrap().completed.is_some());
    let Node::Host(h1) = sim.node(hosts[1]) else {
        panic!()
    };
    assert_eq!(h1.live_agents(), 2, "receivers for the flow and the probe");
}

/// One process type runs on both node kinds: the same control packet,
/// timer and faults reach it the same way on a host and on a switch, and
/// only the switch hands it transiting packets. A node tells its process
/// every fault it receives: a link fault at both ends, a control-loss
/// burst at its sending end only, and a host's whole-machine crash and
/// restart once each, however often they are injected.
#[test]
fn one_process_type_runs_on_hosts_and_switches() {
    let (mut sim, hosts, sw) = two_hosts(retry_agents());
    let (h0, h1) = (hosts[0], hosts[1]);
    let us = SimTime::from_micros;
    let node_faults = |node| {
        [
            FaultEvent::ArbitratorCrash { node },
            FaultEvent::ArbitratorRestart { node },
            FaultEvent::CtrlStormStart { node, amplify: 3 },
            FaultEvent::CtrlStormEnd { node },
        ]
    };
    let mut plan = FaultPlan::new();
    for node in [h0, sw] {
        sim.node_mut(node)
            .set_process(Box::new(Recorder::default()));
        let ctrl = Packet::ctrl(FlowId(4), h1, node, Box::new(0u32));
        let sched = sim.scheduler_mut();
        sched.schedule_deliver(us(1), node, ctrl);
        sched.schedule_at(us(2), node, EventKind::PluginTimer(7));
        for (i, fault) in node_faults(node).into_iter().enumerate() {
            plan.push(us(3 + i as u64), fault);
        }
    }
    // A data packet crosses the switch and its ack crosses back.
    let data = Packet::data(FlowId(5), h1, h0, 0, 1000);
    sim.scheduler_mut().schedule_deliver(us(10), sw, data);
    // Once both have passed, the h0–sw link fails and recovers, a burst
    // hits each end's outgoing direction, and the whole host goes down,
    // again while down, and comes back.
    let link = [
        FaultEvent::LinkDown { a: h0, b: sw },
        FaultEvent::LinkUp { a: sw, b: h0 },
    ];
    let burst = |from, to| FaultEvent::CtrlLossBurst { from, to, n: 2 };
    let machine = [
        FaultEvent::HostCrash { node: h0 },
        FaultEvent::HostCrash { node: h0 },
        FaultEvent::HostRestart { node: h0 },
    ];
    let later = link
        .into_iter()
        .chain([burst(h0, sw), burst(sw, h1)])
        .chain(machine);
    for (i, fault) in later.enumerate() {
        plan.push(us(100 + i as u64), fault);
    }
    sim.inject_faults(&plan);
    sim.run(RunLimit::default());
    let heard = |faults: &[FaultEvent]| {
        let mut seen = vec![Seen::Ctrl(FlowId(4)), Seen::Timer(7)];
        seen.extend(faults.iter().map(|&f| Seen::Fault(f)));
        seen
    };
    let at_switch = recorder(&mut sim, sw).seen.clone();
    let (transits, rest): (Vec<Seen>, Vec<Seen>) = at_switch
        .into_iter()
        .partition(|s| matches!(s, Seen::Transit(_)));
    let want = [&node_faults(sw)[..], &link, &[burst(sw, h1)]].concat();
    assert_eq!(rest, heard(&want), "the switch's process");
    let kinds = [
        Seen::Transit(PacketKind::Data),
        Seen::Transit(PacketKind::Ack),
    ];
    assert_eq!(transits, kinds, "only the switch sees transits");
    let want = [
        &node_faults(h0)[..],
        &link,
        &[burst(h0, sw), machine[0], machine[2]],
    ]
    .concat();
    assert_eq!(
        recorder(&mut sim, h0).seen,
        heard(&want),
        "the host's process: one HostCrash for two, then the HostRestart"
    );
}
