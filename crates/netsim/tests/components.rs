//! Component-level tests of host and switch event dispatch: agent
//! lifecycle, service wake-ups, plugin transit hooks and timers.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::event::EventKind;
use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentCtx, AgentFactory, FlowAgent, HostIo, HostService, WAKEUP_TOKEN};
use netsim::node::Node;
use netsim::packet::{Packet, PacketKind};
use netsim::prelude::*;
use netsim::switch::{SwitchIo, SwitchPlugin};

/// A sender that transmits one data packet per `on_start`, records every
/// ack/timer in shared counters, and completes on the first ack.
struct OneShotSender {
    spec: FlowSpec,
    acks: Arc<AtomicU64>,
    wakeups: Arc<AtomicU64>,
    done: bool,
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
            self.done = true;
        }
    }

    fn on_timer(&mut self, token: u64, _ctx: &mut AgentCtx<'_, '_>) {
        if token == WAKEUP_TOKEN {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

struct Echoer {
    hint: ReceiverHint,
}

impl FlowAgent for Echoer {
    fn on_start(&mut self, _: &mut AgentCtx<'_, '_>) {}
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
    fn on_timer(&mut self, _: u64, _: &mut AgentCtx<'_, '_>) {}
    fn is_done(&self) -> bool {
        false
    }
}

struct TestFactory {
    acks: Arc<AtomicU64>,
    wakeups: Arc<AtomicU64>,
}

impl AgentFactory for TestFactory {
    fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent> {
        Box::new(OneShotSender {
            spec: spec.clone(),
            acks: Arc::clone(&self.acks),
            wakeups: Arc::clone(&self.wakeups),
            done: false,
        })
    }
    fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent> {
        Box::new(Echoer { hint })
    }
}

fn two_hosts(factory: Arc<dyn AgentFactory>) -> (Simulation, Vec<NodeId>, NodeId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch();
    let hosts = b.add_hosts(2);
    for &h in &hosts {
        b.connect(h, sw, Rate::from_gbps(1), SimDuration::from_micros(10));
    }
    (
        Simulation::new(b.build(factory, &|_| Box::new(DropTailQdisc::new(64)))),
        hosts,
        sw,
    )
}

#[test]
fn sender_completes_and_is_garbage_collected_stale_timer_ignored() {
    let acks = Arc::new(AtomicU64::new(0));
    let wakeups = Arc::new(AtomicU64::new(0));
    let (mut sim, hosts, _) = two_hosts(Arc::new(TestFactory {
        acks: Arc::clone(&acks),
        wakeups: Arc::clone(&wakeups),
    }));
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

/// A service that counts ctrl packets and wakes the tagged flow.
struct CountingService {
    ctrl_seen: Arc<AtomicU64>,
}

impl HostService for CountingService {
    fn on_ctrl(&mut self, pkt: Packet, io: &mut HostIo<'_, '_, '_>) {
        self.ctrl_seen.fetch_add(1, Ordering::Relaxed);
        io.wake_flow(pkt.flow);
    }
    fn on_timer(&mut self, _token: u64, _io: &mut HostIo<'_, '_, '_>) {}
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn ctrl_packets_route_to_service_and_wake_agents() {
    let acks = Arc::new(AtomicU64::new(0));
    let wakeups = Arc::new(AtomicU64::new(0));
    let ctrl_seen = Arc::new(AtomicU64::new(0));
    let (mut sim, hosts, _) = two_hosts(Arc::new(TestFactory {
        acks: Arc::clone(&acks),
        wakeups: Arc::clone(&wakeups),
    }));
    if let Node::Host(h) = sim.node_mut(hosts[0]) {
        h.set_service(Box::new(CountingService {
            ctrl_seen: Arc::clone(&ctrl_seen),
        }));
    }
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
    for (t, payload) in [(1u64, 7u32), (2, 8)] {
        sim.scheduler_mut().schedule_deliver(
            SimTime::from_micros(t),
            hosts[0],
            Packet::ctrl(FlowId(3), hosts[1], hosts[0], Box::new(payload)),
        );
    }
    sim.run(RunLimit::default());
    assert!(ctrl_seen.load(Ordering::Relaxed) >= 1);
    assert!(
        wakeups.load(Ordering::Relaxed) >= 1,
        "service wake_flow must reach the agent"
    );
}

/// A sender that retransmits its single packet every millisecond until
/// acknowledged — enough reliability to ride out an injected link outage.
struct RetrySender {
    spec: FlowSpec,
    done: bool,
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
            self.done = true;
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        if token == 1 && !self.done {
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

    fn is_done(&self) -> bool {
        self.done
    }
}

struct RetryFactory;

impl AgentFactory for RetryFactory {
    fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent> {
        Box::new(RetrySender {
            spec: spec.clone(),
            done: false,
        })
    }
    fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent> {
        Box::new(Echoer { hint })
    }
}

#[test]
fn link_outage_drops_offered_packets_and_recovery_completes_the_flow() {
    let (mut sim, hosts, sw) = two_hosts(Arc::new(RetryFactory));
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
    let ctrl_seen = Arc::new(AtomicU64::new(0));
    let (mut sim, hosts, sw) = two_hosts(Arc::new(RetryFactory));
    if let Node::Host(h) = sim.node_mut(hosts[1]) {
        h.set_service(Box::new(CountingService {
            ctrl_seen: Arc::clone(&ctrl_seen),
        }));
    }
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
        ctrl_seen.load(Ordering::Relaxed),
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

/// A plugin that counts the probes it sees in transit and its timer ticks.
struct ProbeCounter {
    probes: u64,
    ticks: u64,
}

impl SwitchPlugin for ProbeCounter {
    fn process_transit(
        &mut self,
        pkt: &mut Packet,
        _out: netsim::ids::PortId,
        _io: &mut SwitchIo<'_, '_>,
    ) {
        if pkt.kind == PacketKind::Probe {
            self.probes += 1;
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut SwitchIo<'_, '_>) {
        self.ticks += 1;
        if self.ticks < 3 {
            io.set_timer(SimDuration::from_micros(50), token);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn plugin_sees_transit_packets_and_runs_timers() {
    let acks = Arc::new(AtomicU64::new(0));
    let wakeups = Arc::new(AtomicU64::new(0));
    let (mut sim, hosts, sw) = two_hosts(Arc::new(TestFactory { acks, wakeups }));
    if let Node::Switch(s) = sim.node_mut(sw) {
        s.set_plugin(Box::new(ProbeCounter {
            probes: 0,
            ticks: 0,
        }));
    }
    // Kick the plugin timer chain.
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
    let Node::Switch(s) = sim.node_mut(sw) else {
        panic!()
    };
    let plugin = s.plugin_as::<ProbeCounter>().unwrap();
    assert_eq!(plugin.probes, 1, "the probe must transit the plugin");
    assert_eq!(plugin.ticks, 3, "timer chain must run to completion");
    // Both the data flow and the probe were forwarded past the plugin.
    assert!(sim.stats().flow(FlowId(0)).unwrap().completed.is_some());
    let Node::Host(h1) = sim.node(hosts[1]) else {
        panic!()
    };
    assert_eq!(h1.live_agents(), 2, "receivers for the flow and the probe");
}
