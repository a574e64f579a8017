//! End-host crash/restart as a first-class fault: agents die with the
//! machine, in-flight data to a crashed host is accounted as
//! `lost_to_crash` (conservation still balances), flows sourced at a
//! crashed host move to the terminal Aborted state, and a restart brings
//! the host back empty under a new incarnation.

use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentCtx, AgentFactory, FlowAgent};
use netsim::node::Node;
use netsim::packet::{Packet, PacketKind};
use netsim::prelude::*;
use netsim::trace::AbortReason;

/// Retransmits its single packet every millisecond until acknowledged —
/// enough reliability to ride out a crash/restart of the receiver.
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

fn two_hosts() -> (Simulation, Vec<NodeId>, NodeId) {
    let rack = TopologySpec::SingleRack {
        hosts: 2,
        access: Rate::from_gbps(1),
        link_delay: SimDuration::from_micros(10),
    };
    let (net, hosts) = rack.build(
        AgentFactory::new(
            |spec: &FlowSpec| RetrySender { spec: spec.clone() },
            |hint| Echoer { hint },
        ),
        &|_| Box::new(DropTailQdisc::new(64)),
    );
    let sw = net.topo.host_tor(hosts[0]);
    (Simulation::new(net), hosts, sw)
}

#[test]
fn data_reaching_a_crashed_host_is_accounted_and_retry_survives_restart() {
    let (mut sim, hosts, _) = two_hosts();
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    // The receiver dies while the first packet is still on the wire
    // (propagation alone is 20 us) and comes back at 5 ms. Every data
    // packet landing in the outage window is lost to the crash; the
    // retry at 6 ms respawns the receiver and completes the flow.
    sim.inject_faults(
        &FaultPlan::new()
            .host_crash(SimTime::from_micros(5), hosts[1])
            .host_restart(SimTime::from_millis(5), hosts[1]),
    );
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let stats = sim.stats();
    assert!(
        stats.data_pkts_lost_to_crash > 0,
        "in-flight data must be charged to the crash"
    );
    let rec = stats.flow(FlowId(0)).unwrap();
    assert!(rec.completed.is_some());
    assert_eq!(rec.abort_reason, None, "the flow recovered, not aborted");
    // The restarted host runs under a new incarnation.
    let Node::Host(h) = sim.node(hosts[1]) else {
        panic!()
    };
    assert_eq!(h.incarnation(), 1, "restart must bump the incarnation");
    // Conservation must balance with the lost-to-crash term included.
    sim.check_invariants().assert_clean();
}

#[test]
fn crashing_the_source_aborts_its_flows_terminally() {
    let (mut sim, hosts, _) = two_hosts();
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    // The source dies at 20 us: its data packet is already past the switch
    // but the ACK has not made it back, so only the crash ends the flow.
    sim.inject_faults(&FaultPlan::new().host_crash(SimTime::from_micros(20), hosts[0]));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "an aborted flow is terminal, not stuck"
    );
    let rec = sim.stats().flow(FlowId(0)).unwrap();
    assert!(rec.completed.is_some());
    assert_eq!(rec.abort_reason, Some(AbortReason::HostCrash));
    assert_eq!(sim.stats().node(hosts[0]).aborts, 1);
    let Node::Host(h) = sim.node(hosts[0]) else {
        panic!()
    };
    assert_eq!(h.live_agents(), 0, "the crash must wipe every agent");
    sim.check_invariants().assert_clean();
}

#[test]
fn flows_starting_on_a_crashed_host_abort_immediately() {
    let (mut sim, hosts, _) = two_hosts();
    sim.inject_faults(&FaultPlan::new().host_crash(SimTime::from_micros(1), hosts[0]));
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::from_micros(10),
    ));
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let rec = sim.stats().flow(FlowId(0)).unwrap();
    assert_eq!(rec.abort_reason, Some(AbortReason::HostCrash));
    assert_eq!(
        sim.stats().data_pkts_injected,
        0,
        "a dead machine sends nothing"
    );
    sim.check_invariants().assert_clean();
}

#[test]
fn degraded_access_link_corrupts_data_and_retry_recovers() {
    // Gray failure on the access link: every data packet is corrupted in
    // flight until the link is restored. The receiver's checksum discards
    // them (charged to the `corrupted` conservation term), the sender's
    // retries go unanswered, and the first post-restore retry completes.
    let (mut sim, hosts, sw) = two_hosts();
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    let profile = DegradeProfile {
        seed: 3,
        loss_ppm: 0,
        corrupt_ppm: 1_000_000,
        extra_delay_ns: 0,
        jitter_ns: 0,
    };
    sim.inject_faults(
        &FaultPlan::new()
            .link_degrade(SimTime::from_nanos(1), hosts[0], sw, profile)
            .link_restore(SimTime::from_micros(3500), hosts[0], sw),
    );
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let stats = sim.stats();
    assert!(
        stats.data_pkts_corrupted > 0,
        "corrupted deliveries must be counted, got {}",
        stats.data_pkts_corrupted
    );
    assert_eq!(
        stats.node(hosts[1]).corrupted,
        stats.data_pkts_corrupted,
        "all corruption lands on the receiver"
    );
    let rec = stats.flow(FlowId(0)).unwrap();
    assert!(rec.completed.is_some());
    assert_eq!(rec.abort_reason, None, "the flow recovered, not aborted");
    sim.check_invariants().assert_clean();
}

#[test]
fn degraded_link_loss_is_charged_to_synthetic_drops() {
    // Total loss on the access link behaves like an outage the transport
    // can ride out, but the packets are charged to the degrade-loss
    // counter, not `drops_while_down`.
    let (mut sim, hosts, sw) = two_hosts();
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    let profile = DegradeProfile {
        seed: 5,
        loss_ppm: 1_000_000,
        corrupt_ppm: 0,
        extra_delay_ns: 0,
        jitter_ns: 0,
    };
    sim.inject_faults(
        &FaultPlan::new()
            .link_degrade(SimTime::from_nanos(1), hosts[0], sw, profile)
            .link_restore(SimTime::from_micros(3500), hosts[0], sw),
    );
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let Node::Host(h) = sim.node(hosts[0]) else {
        panic!()
    };
    assert!(h.port().degrade_drops > 0, "losses charged to the degrade");
    assert_eq!(h.port().drops_while_down, 0, "the link was never down");
    assert!(h.port().synthetic_drops() >= h.port().degrade_drops);
    sim.check_invariants().assert_clean();
}

#[test]
fn nic_flap_on_the_access_link_drops_and_recovers() {
    // The host<->ToR link is flappable like any fabric link: offered
    // packets die while it is down, and the retrying sender completes
    // once it heals.
    let (mut sim, hosts, sw) = two_hosts();
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    sim.inject_faults(
        &FaultPlan::new()
            .link_down(SimTime::from_nanos(1), hosts[0], sw)
            .link_up(SimTime::from_micros(3500), hosts[0], sw),
    );
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let Node::Host(h) = sim.node(hosts[0]) else {
        panic!()
    };
    assert!(h.port().drops_while_down > 0);
    sim.check_invariants().assert_clean();
}

/// The host's first packet, 1000 B of payload at 1 Gbps, serializes over
/// the first 8.x µs of the run.
fn one_flow_at_zero() -> (Simulation, Vec<NodeId>, NodeId) {
    let (mut sim, hosts, sw) = two_hosts();
    sim.add_flow(FlowSpec::new(
        FlowId(0),
        hosts[0],
        hosts[1],
        1000,
        SimTime::ZERO,
    ));
    (sim, hosts, sw)
}

#[test]
fn a_planned_link_down_mid_serialization_still_kills_the_packet() {
    // The plan puts the access port back on the two-event hop, so the
    // link that fails 2 µs into the first packet's serialization kills
    // it at completion; only the retry at 1 ms gets through.
    let (mut sim, hosts, sw) = one_flow_at_zero();
    sim.inject_faults(
        &FaultPlan::new()
            .link_down(SimTime::from_micros(2), hosts[0], sw)
            .link_up(SimTime::from_micros(500), hosts[0], sw),
    );
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    let Node::Host(h) = sim.node(hosts[0]) else {
        panic!()
    };
    assert_eq!(h.port().drops_while_down, 1, "the packet being sent died");
    assert_eq!(sim.stats().data_pkts_dropped, 1);
    let done = sim.stats().flow(FlowId(0)).unwrap().completed.unwrap();
    assert!(done > SimTime::from_millis(1), "completed at {done}");
    sim.check_invariants().assert_clean();
}

#[test]
fn a_fault_planned_after_the_serialization_in_progress_is_accepted() {
    let (mut sim, hosts, sw) = one_flow_at_zero();
    let limit = RunLimit {
        max_time: Some(SimTime::ZERO),
        stop_when_measured_done: false,
    };
    assert_eq!(sim.run(limit), RunOutcome::TimeLimit);
    sim.inject_faults(
        &FaultPlan::new()
            .link_down(SimTime::from_micros(100), hosts[0], sw)
            .link_up(SimTime::from_micros(200), hosts[0], sw),
    );
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(1)));
    assert_eq!(outcome, RunOutcome::MeasuredComplete);
    assert_eq!(sim.stats().data_pkts_dropped, 0);
    sim.check_invariants().assert_clean();
}

#[test]
#[should_panic(expected = "is mid one-event serialization until")]
fn a_fault_planned_inside_a_one_event_serialization_panics() {
    // Stopped at 0 with the first packet on its one-event hop: its
    // `Deliver` is queued, so a link failure planned 2 µs in could not
    // reach it.
    let (mut sim, hosts, sw) = one_flow_at_zero();
    let limit = RunLimit {
        max_time: Some(SimTime::ZERO),
        stop_when_measured_done: false,
    };
    assert_eq!(sim.run(limit), RunOutcome::TimeLimit);
    sim.inject_faults(&FaultPlan::new().link_down(SimTime::from_micros(2), hosts[0], sw));
}
