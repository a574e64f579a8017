//! PDQ switch arbitration.
//!
//! Each switch maintains, per output link, the set of flows currently
//! traversing it, sorted by criticality — earliest deadline first, then
//! shortest remaining size (SJF). On every forward packet of a flow the
//! switch recomputes that flow's allocation by water-filling capacity over
//! the more-critical flows, applies the Early Start optimization (a
//! more-critical flow about to finish is treated as finished so the next
//! flow's data arrives just as the link frees), and clamps the packet's
//! scheduling header. Paused flows receive rate zero and probe
//! periodically.

use std::any::Any;
use std::collections::HashMap;

use netsim::ids::{FlowId, IdHashBuilder, NodeId, PortId};
use netsim::packet::Packet;
use netsim::switch::{SwitchIo, SwitchPlugin};
use netsim::time::{Rate, SimDuration, SimTime};

use crate::config::{PdqConfig, ETA, FLOW_EXPIRY};
use crate::header::PdqHeader;

/// Per-flow state kept by a PDQ link arbiter.
#[derive(Debug, Clone, Copy)]
struct FlowInfo {
    /// Demand after upstream clamping (what the flow asks of this link).
    demand: Rate,
    /// The rate this link last granted the flow.
    granted: Rate,
    /// Bytes remaining (SJF criterion).
    remaining: u64,
    /// Deadline (EDF criterion), if any.
    deadline: Option<SimTime>,
    /// The sender's RTT estimate (Early Start window).
    rtt: SimDuration,
    /// Last time a packet of this flow refreshed the entry.
    last_seen: SimTime,
}

impl FlowInfo {
    /// Criticality key: deadline flows first (earliest deadline), then
    /// shortest remaining, flow id as the deterministic tiebreak.
    fn crit(&self, id: FlowId) -> (SimTime, u64, u64) {
        (self.deadline.unwrap_or(SimTime::MAX), self.remaining, id.0)
    }

    /// Expected time for this flow to finish at its granted rate.
    fn time_to_finish(&self) -> SimDuration {
        if self.granted.is_zero() {
            SimDuration::MAX
        } else {
            self.granted.tx_time(self.remaining)
        }
    }
}

/// Per-link arbitration state.
#[derive(Debug, Default)]
struct LinkState {
    flows: HashMap<FlowId, FlowInfo, IdHashBuilder>,
}

impl LinkState {
    /// Water-fill `budget` over the flows more critical than `me`, whose
    /// refreshed entry is `asks`, honoring Early Start, and return the
    /// rate left for it. The same pass drops every other entry that has
    /// not been refreshed for [`FLOW_EXPIRY`], so an expired flow is never
    /// read.
    ///
    /// Visits the flows in table order, not criticality order: each step
    /// is `used = min(used + demand, budget)` in integer bits per second,
    /// which comes to `min(sum of demands, budget)` in any order.
    fn allocate(
        &mut self,
        me: FlowId,
        asks: &FlowInfo,
        budget: Rate,
        cfg: &PdqConfig,
        now: SimTime,
    ) -> Rate {
        let my_crit = asks.crit(me);
        let early_window = asks.rtt.mul_f64(cfg.early_start_rtts);
        let mut used = Rate::ZERO;
        self.flows.retain(|&id, info| {
            if id == me {
                return true;
            }
            if info.last_seen + FLOW_EXPIRY < now {
                return false;
            }
            // Early Start: a flow about to drain is treated as finished.
            if used < budget && info.crit(id) < my_crit && info.time_to_finish() > early_window {
                used += info.demand.min(budget.saturating_sub(used));
            }
            true
        });
        asks.demand.min(budget.saturating_sub(used))
    }
}

/// A link arbitrated by this switch: one of its own output ports, or the
/// access uplink of a directly attached host. Hosts have no switch of
/// their own, so the ingress ToR arbitrates their uplinks (in real PDQ
/// every link on the path has an arbitrating switch at its head).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LinkKey {
    /// One of this switch's output ports.
    Port(PortId),
    /// The access uplink of an attached host.
    HostUplink(NodeId),
}

/// The PDQ switch plugin: one arbiter per link.
pub struct PdqSwitchPlugin {
    cfg: PdqConfig,
    links: HashMap<LinkKey, LinkState, IdHashBuilder>,
    /// Directly attached hosts and their access-link rates; forward
    /// packets from these hosts are additionally arbitrated on the
    /// virtual uplink.
    attached_hosts: HashMap<NodeId, Rate, IdHashBuilder>,
}

impl PdqSwitchPlugin {
    /// Create a plugin arbitrating every output port it sees traffic on.
    pub fn new(cfg: PdqConfig) -> Self {
        PdqSwitchPlugin::with_attached_hosts(cfg, HashMap::new())
    }

    /// Create a plugin that also arbitrates the uplinks of the given
    /// directly attached hosts.
    pub fn with_attached_hosts(cfg: PdqConfig, hosts: HashMap<NodeId, Rate>) -> Self {
        PdqSwitchPlugin {
            cfg,
            links: HashMap::default(),
            attached_hosts: hosts.into_iter().collect(),
        }
    }

    /// Number of flows currently tracked on a port (for tests).
    pub fn tracked_flows(&self, port: PortId) -> usize {
        self.links
            .get(&LinkKey::Port(port))
            .map_or(0, |l| l.flows.len())
    }

    /// Arbitrate one link for a forward packet: water-fill over the
    /// link's other flows (expiring stale ones), clamp the header, and
    /// store the flow's entry refreshed from the header with its grant.
    fn arbitrate_link(
        &mut self,
        key: LinkKey,
        budget: Rate,
        pkt: &mut Packet,
        switch_id: NodeId,
        now: SimTime,
    ) {
        let flow = pkt.flow;
        let Some(hdr) = pkt.proto_mut::<PdqHeader>() else {
            return;
        };
        if hdr.term {
            if let Some(link) = self.links.get_mut(&key) {
                link.flows.remove(&flow);
            }
            return;
        }
        let mut entry = FlowInfo {
            demand: hdr.rate,
            granted: Rate::ZERO,
            remaining: hdr.remaining,
            deadline: hdr.deadline,
            rtt: hdr.rtt,
            last_seen: now,
        };
        let link = self.links.entry(key).or_default();
        entry.granted = link.allocate(flow, &entry, budget, &self.cfg, now);
        link.flows.insert(flow, entry);
        hdr.grant(entry.granted, switch_id);
    }
}

impl SwitchPlugin for PdqSwitchPlugin {
    fn process_transit(&mut self, pkt: &mut Packet, out_port: PortId, io: &mut SwitchIo<'_, '_>) {
        // Only forward-direction packets carry live scheduling headers;
        // ACKs just echo them back to the sender untouched.
        if pkt.kind.is_reverse() {
            return;
        }
        let now = io.now();
        let switch_id = io.id;
        if pkt.proto_ref::<PdqHeader>().is_none() {
            return;
        }
        // The ingress ToR stands in as arbiter for the sender's access
        // uplink (hosts have no switch of their own).
        if let Some(&uplink_rate) = self.attached_hosts.get(&pkt.src) {
            let budget = uplink_rate.mul_f64(ETA);
            self.arbitrate_link(LinkKey::HostUplink(pkt.src), budget, pkt, switch_id, now);
        }
        // The output link itself.
        let budget = io.port_rate(out_port).mul_f64(ETA);
        self.arbitrate_link(LinkKey::Port(out_port), budget, pkt, switch_id, now);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(demand_mbps: u64, remaining: u64, granted_mbps: u64) -> FlowInfo {
        FlowInfo {
            demand: Rate::from_mbps(demand_mbps),
            granted: Rate::from_mbps(granted_mbps),
            remaining,
            deadline: None,
            rtt: SimDuration::from_micros(300),
            last_seen: SimTime::ZERO,
        }
    }

    fn plugin_with_flows(flows: Vec<(u64, FlowInfo)>) -> PdqSwitchPlugin {
        let mut p = PdqSwitchPlugin::new(PdqConfig::default());
        let link = p.links.entry(LinkKey::Port(PortId(0))).or_default();
        for (id, i) in flows {
            link.flows.insert(FlowId(id), i);
        }
        p
    }

    impl PdqSwitchPlugin {
        /// What the link would grant `flow`, already in its table.
        fn allocate(&mut self, key: LinkKey, flow: FlowId, budget: Rate) -> Rate {
            let link = self.links.get_mut(&key).expect("link with flows");
            let me = link.flows[&flow];
            link.allocate(flow, &me, budget, &self.cfg, SimTime::ZERO)
        }
    }

    /// The arbitration this module shipped with, kept as the reference:
    /// expire by `retain`, collect the more-critical flows, sort them by
    /// criticality, water-fill in that order.
    fn reference_allocate(
        link: &mut LinkState,
        flow: FlowId,
        budget: Rate,
        cfg: &PdqConfig,
        now: SimTime,
    ) -> Rate {
        link.flows
            .retain(|_, info| info.last_seen + FLOW_EXPIRY >= now);
        let me = &link.flows[&flow];
        let my_crit = me.crit(flow);
        let early_window = me.rtt.mul_f64(cfg.early_start_rtts);
        let mut above: Vec<(&FlowId, &FlowInfo)> = link
            .flows
            .iter()
            .filter(|(id, info)| info.crit(**id) < my_crit)
            .collect();
        above.sort_by_key(|(id, info)| info.crit(**id));
        let mut used = Rate::ZERO;
        for (_, info) in above {
            if info.time_to_finish() <= early_window {
                continue;
            }
            let avail = budget.saturating_sub(used);
            used += info.demand.min(avail);
            if used >= budget {
                return Rate::ZERO;
            }
        }
        me.demand.min(budget.saturating_sub(used))
    }

    /// Random flow tables — deadlines or none, criticality ties left to
    /// the flow id, stale entries, flows inside and outside the Early
    /// Start window, Early Start on and off — arbitrated for every flow
    /// in turn by the reference and by the one-pass version: same grant,
    /// same surviving entries.
    #[test]
    fn one_pass_allocation_matches_the_reference() {
        let mut rng = netsim::rng::Rng::seed_from_u64(0x9d9_5eed);
        for round in 0..400 {
            let cfg = PdqConfig {
                early_start_rtts: if round % 2 == 0 { 2.0 } else { 0.0 },
                ..PdqConfig::default()
            };
            let now = SimTime::from_millis(50);
            let budget = Rate::from_mbps(950);
            let n = 1 + rng.gen_below(24);
            let table: Vec<(FlowId, FlowInfo)> = (0..n)
                .map(|id| {
                    // Every fifth entry is one nanosecond past expiry, the
                    // rest exactly at it (still live).
                    let stale = SimDuration::from_nanos((rng.gen_below(5) == 0) as u64);
                    let info = FlowInfo {
                        demand: Rate::from_mbps(50 * rng.gen_below(21)),
                        granted: Rate::from_mbps(50 * rng.gen_below(21)),
                        remaining: 10_000 * (1 + rng.gen_below(4)),
                        deadline: (rng.gen_below(3) == 0)
                            .then(|| SimTime::from_millis(51 + rng.gen_below(3))),
                        rtt: SimDuration::from_micros(100 + 100 * rng.gen_below(4)),
                        last_seen: now - (FLOW_EXPIRY + stale),
                    };
                    (FlowId(id), info)
                })
                .collect();
            for &(me, mut asks) in &table {
                asks.last_seen = now;
                let mut old = LinkState::default();
                old.flows.extend(table.iter().copied());
                old.flows.insert(me, asks);
                let mut new = LinkState::default();
                new.flows.extend(table.iter().copied());
                let want = reference_allocate(&mut old, me, budget, &cfg, now);
                let got = new.allocate(me, &asks, budget, &cfg, now);
                new.flows.insert(me, asks);
                assert_eq!(got, want, "round {round}, {me}");
                let keys = |l: &LinkState| {
                    let mut k: Vec<FlowId> = l.flows.keys().copied().collect();
                    k.sort();
                    k
                };
                assert_eq!(keys(&new), keys(&old), "round {round}, {me}: survivors");
            }
        }
    }

    #[test]
    fn most_critical_flow_gets_full_budget() {
        let mut p = plugin_with_flows(vec![(1, info(1000, 10_000, 0)), (2, info(1000, 50_000, 0))]);
        let budget = Rate::from_mbps(950);
        // Flow 1 (smaller remaining) gets everything it asks for (capped).
        assert_eq!(
            p.allocate(LinkKey::Port(PortId(0)), FlowId(1), budget),
            budget
        );
        // Flow 2 is paused: flow 1's demand covers the budget.
        assert_eq!(
            p.allocate(LinkKey::Port(PortId(0)), FlowId(2), budget),
            Rate::ZERO
        );
    }

    #[test]
    fn leftover_capacity_goes_to_less_critical_flows() {
        // Flow 1 is long-lived (far outside the Early Start window) but
        // only demands 300 Mbps; flow 2 gets the residue.
        let mut p = plugin_with_flows(vec![
            (1, info(300, 4_000_000, 300)),
            (2, info(1000, 50_000_000, 0)),
        ]);
        let budget = Rate::from_mbps(950);
        let r2 = p.allocate(LinkKey::Port(PortId(0)), FlowId(2), budget);
        assert_eq!(r2, Rate::from_mbps(650));
    }

    #[test]
    fn deadline_flows_preempt_shorter_non_deadline_flows() {
        let mut near = info(1000, 500_000, 0);
        near.deadline = Some(SimTime::from_millis(5));
        let mut p = plugin_with_flows(vec![(1, info(1000, 1_000, 0)), (2, near)]);
        let budget = Rate::from_mbps(950);
        // Flow 2 has a deadline: it is more critical than the tiny
        // non-deadline flow 1.
        assert_eq!(
            p.allocate(LinkKey::Port(PortId(0)), FlowId(2), budget),
            budget
        );
        assert_eq!(
            p.allocate(LinkKey::Port(PortId(0)), FlowId(1), budget),
            Rate::ZERO
        );
    }

    #[test]
    fn early_start_admits_next_flow_when_current_nearly_done() {
        // Flow 1 has ~0.1 ms left at its granted rate; requester's RTT is
        // 300 us, so the 2-RTT early-start window (600 us) covers it.
        let mut p = plugin_with_flows(vec![
            (1, info(950, 11_875, 950)), // 11875 B at 950 Mbps = 100 us
            (2, info(950, 500_000, 0)),
        ]);
        let budget = Rate::from_mbps(950);
        assert_eq!(
            p.allocate(LinkKey::Port(PortId(0)), FlowId(2), budget),
            budget
        );
    }

    #[test]
    fn without_early_start_window_flow_stays_paused() {
        // Flow 1 has ~4 ms left: outside the 600 us window.
        let mut p = plugin_with_flows(vec![
            (1, info(950, 475_000, 950)),
            (2, info(950, 500_000, 0)),
        ]);
        let budget = Rate::from_mbps(950);
        assert_eq!(
            p.allocate(LinkKey::Port(PortId(0)), FlowId(2), budget),
            Rate::ZERO
        );
    }
}
