//! Seeded random fault-schedule generation (the "chaos monkey").
//!
//! [`generate`] expands a [`ChaosConfig`] — a single `u64` seed, an
//! intensity, a [`FaultClass`] and a time horizon — into a concrete
//! [`FaultPlan`] against a given topology. The expansion is a pure
//! function of `(topology, config)` using the deterministic
//! [`crate::rng::Rng`], so a failing run is replayed exactly by
//! re-running the same seed.
//!
//! Most of a storm is *trains*: per target, a few windows of one
//! [`FaultFamily`] at sorted random starts. The five trains are the rows
//! of [`TRAINS`], all driven by one loop. Every class draws the
//! fabric-flap train and then the three sections that are not trains —
//! correlated rack outages (a ToR loses all its uplinks in one window),
//! arbitrator crash storms (a random half of the switches crashes around
//! one instant) and control-loss bursts (point events). A non-fabric
//! class then draws its own rows: NIC flaps and host crashes for `Host`,
//! degrade trains for `Gray`, control storms for `Overload`.
//!
//! Structural guarantees, relied on by the chaos harness:
//!
//! * every window is opened and closed inside the first 95% of the
//!   horizon, leaving a healed tail for flows to finish (or for deserted
//!   senders to give up) in; generated plans pass
//!   [`FaultPlan::validate`];
//! * one busy cursor per subject (link or node) is shared by every
//!   section, so no two windows on one subject overlap whatever their
//!   families: a link is never downed twice, a gray episode never covers
//!   an outage of its link, a control storm never hits a crashed
//!   arbitrator;
//! * the class rows draw from the RNG strictly after everything the
//!   `Fabric` class draws, so the `Fabric` plan of a seed is a prefix of
//!   its `Host`, `Gray` and `Overload` plans;
//! * under `Fabric`, `Gray` and `Overload` no host crashes, and under
//!   `Fabric` and `Overload` no host-facing link is touched, so endpoints
//!   are never unreachable; the three non-fabric classes always contain
//!   at least one episode of their own (forced when the draws come up
//!   empty).

use std::collections::BTreeMap;

use crate::fault::{DegradeProfile, FaultEvent, FaultFamily, FaultPlan, Pairing, Subject};
use crate::ids::NodeId;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeKind, Topology};

/// How hard the chaos monkey shakes the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosIntensity {
    /// Sparse faults: at most one flap per fabric link, no rack outages,
    /// one crash storm, a couple of control-loss bursts.
    Low,
    /// Dense faults: several flaps per link with longer outages, one or
    /// two correlated rack outages, two crash storms, many bursts.
    High,
}

/// What a storm contains. Every class contains the fabric faults: link
/// flaps, rack outages, arbitrator crash storms, control-loss bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Fabric faults only. Every flow must complete.
    Fabric,
    /// Plus end-host faults: NIC flap trains and whole-host crash/restart
    /// storms. Flows touching a faulted host may end `Aborted`; anything
    /// else must still complete.
    Host,
    /// Plus gray failures: degrade trains on fabric and NIC links
    /// (stochastic loss, payload corruption, latency inflation). Hosts
    /// never crash; the harness runs switches with health-aware rerouting
    /// so flows hash off degraded ECMP siblings. Every flow must complete
    /// unless its endpoint sat behind a degraded NIC link.
    Gray,
    /// Plus control-plane overload: storms amplify a switch arbitrator's
    /// inbox charge, and the harness lands a flash crowd of short flows
    /// inside each storm window. Hosts never crash, so shedding must be
    /// graceful: every flow must still complete.
    Overload,
}

impl FaultClass {
    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Fabric => "fabric",
            FaultClass::Host => "host",
            FaultClass::Gray => "gray",
            FaultClass::Overload => "overload",
        }
    }

    /// Every class, in sweep order (`--faults all`).
    pub fn all() -> [FaultClass; 4] {
        [
            FaultClass::Fabric,
            FaultClass::Host,
            FaultClass::Gray,
            FaultClass::Overload,
        ]
    }
}

/// A replayable chaos-schedule specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// The single seed the whole schedule derives from.
    pub seed: u64,
    /// Fault density.
    pub intensity: ChaosIntensity,
    /// Which fault families the storm draws.
    pub class: FaultClass,
    /// Faults are scheduled within the first 95% of this window.
    pub horizon: SimDuration,
}

/// What a train does when its draws produced no window at all.
#[derive(Debug, Clone, Copy)]
enum Forced {
    /// Nothing: an empty train is fine.
    Never,
    /// One window at a quarter of the horizon on a randomly drawn target.
    RandomTarget,
    /// One window at a quarter of the horizon (or when the target frees
    /// up) on the first target with room before the healed tail.
    FirstWithRoom,
}

/// One train of fault windows. Pairs are `[Low, High]` intensity.
struct Train(
    /// The class that draws this row (`Fabric`: every class).
    FaultClass,
    FaultFamily,
    /// The subjects the train visits, in visiting order.
    fn(&Topology) -> Vec<Subject>,
    /// Windows drawn per target: inclusive range.
    [(u64, u64); 2],
    /// Window length: drawn in `[horizon / .0, horizon / .1]`.
    [(u64, u64); 2],
    /// Starts are drawn in the first this-many tenths of the horizon.
    u64,
    Forced,
);

/// The trains, in drawing order. NIC bounces are shorter than fabric
/// flaps (maintenance windows); gray failures and overload persist longer
/// than either — a flaky transceiver is degraded for a stretch, not
/// bounced.
#[rustfmt::skip]
const TRAINS: [Train; 5] = {
    use {FaultClass::*, FaultFamily::*, Forced::*};
    [
        Train(Fabric,   Outage,    fabric,    [(0, 1), (1, 3)], [(100, 10), (50, 4)],   9, Never),
        Train(Host,     Outage,    nics,      [(0, 1), (0, 2)], [(200, 50), (100, 20)], 9, Never),
        Train(Host,     HostCrash, hosts,     [(0, 1), (0, 2)], [(100, 10), (100, 10)], 8, RandomTarget),
        Train(Gray,     Degrade,   all_links, [(0, 1), (1, 2)], [(50, 10), (20, 4)],    9, FirstWithRoom),
        Train(Overload, CtrlStorm, switches,  [(0, 1), (1, 2)], [(50, 10), (20, 4)],    9, FirstWithRoom),
    ]
};

/// The fabric links of a topology: deduplicated switch–switch pairs, in
/// deterministic (id-sorted) order, lower id first.
fn fabric_links(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let mut links = Vec::new();
    for s in topo.switches() {
        for (_, peer, _, _) in topo.neighbors(s) {
            if topo.kind(peer) == NodeKind::Switch && s.0 < peer.0 {
                links.push((s, peer));
            }
        }
    }
    links
}

/// Switches that look like ToRs: at least one host neighbor and at least
/// one switch neighbor (so an "outage" severs uplinks, not hosts).
fn tor_switches(topo: &Topology) -> Vec<NodeId> {
    topo.switches()
        .into_iter()
        .filter(|&s| {
            let n = topo.neighbors(s);
            n.iter().any(|&(_, p, _, _)| topo.kind(p) == NodeKind::Host)
                && n.iter()
                    .any(|&(_, p, _, _)| topo.kind(p) == NodeKind::Switch)
        })
        .collect()
}

fn fabric(topo: &Topology) -> Vec<Subject> {
    let links = fabric_links(topo).into_iter();
    links.map(|(a, b)| Subject::Link(a, b)).collect()
}

/// Host–ToR links, host first.
fn nics(topo: &Topology) -> Vec<Subject> {
    let hosts = topo.hosts().into_iter();
    hosts.map(|h| Subject::Link(h, topo.host_tor(h))).collect()
}

fn all_links(topo: &Topology) -> Vec<Subject> {
    [fabric(topo), nics(topo)].concat()
}

fn hosts(topo: &Topology) -> Vec<Subject> {
    topo.hosts().into_iter().map(Subject::Node).collect()
}

fn switches(topo: &Topology) -> Vec<Subject> {
    topo.switches().into_iter().map(Subject::Node).collect()
}

/// The open and close events of one `family` window on `subject`. What
/// the open event carries beyond its subject is drawn here.
fn pair(family: FaultFamily, subject: Subject, rng: &mut Rng) -> (FaultEvent, FaultEvent) {
    use FaultEvent::*;
    match (family, subject) {
        (FaultFamily::Outage, Subject::Link(a, b)) => (LinkDown { a, b }, LinkUp { a, b }),
        (FaultFamily::Degrade, Subject::Link(a, b)) => {
            // A plausible gray failure: up to ~3% loss, up to ~1%
            // corruption, a few microseconds of added latency and jitter
            // — bad enough to hurt tail latency, mild enough that traffic
            // still flows.
            let profile = DegradeProfile {
                seed: rng.next_u64(),
                loss_ppm: rng.gen_range_inclusive(500, 30_000) as u32,
                corrupt_ppm: rng.gen_range_inclusive(0, 10_000) as u32,
                extra_delay_ns: rng.gen_range_inclusive(0, 20_000) as u32,
                jitter_ns: rng.gen_range_inclusive(0, 10_000) as u32,
            };
            (LinkDegrade { a, b, profile }, LinkRestore { a, b })
        }
        (FaultFamily::ArbitratorCrash, Subject::Node(node)) => {
            (ArbitratorCrash { node }, ArbitratorRestart { node })
        }
        (FaultFamily::HostCrash, Subject::Node(node)) => (HostCrash { node }, HostRestart { node }),
        (FaultFamily::CtrlStorm, Subject::Node(node)) => {
            let amplify = rng.gen_range_inclusive(16, 64) as u32;
            (CtrlStormStart { node, amplify }, CtrlStormEnd { node })
        }
        _ => unreachable!("no {family:?} window on {subject}"),
    }
}

/// A plan under construction.
struct Storm {
    rng: Rng,
    plan: FaultPlan,
    /// Earliest instant each subject is free again (end of its last
    /// window + 1), keyed by [`Subject::key`] and shared by every section.
    busy: BTreeMap<Subject, u64>,
    /// The horizon, nanoseconds.
    h: u64,
    /// Everything (recoveries included) lands by this instant.
    latest: u64,
    /// `[Low, High]` index of the intensity.
    level: usize,
}

impl Storm {
    fn free_at(&self, subject: Subject) -> u64 {
        self.busy.get(&subject.key()).copied().unwrap_or(0)
    }

    /// Emit the `family` window `[start, start + len]` on `subject`, cut
    /// off at `latest`; `false` (and nothing drawn) if that leaves none.
    fn window(&mut self, family: FaultFamily, subject: Subject, start: u64, len: u64) -> bool {
        let end = (start + len).min(self.latest);
        if end <= start {
            return false;
        }
        let (open, close) = pair(family, subject, &mut self.rng);
        debug_assert_eq!(open.describe(), (Pairing::Opens(family), subject));
        debug_assert_eq!(close.describe(), (Pairing::Closes(family), subject));
        self.plan.push(SimTime::from_nanos(start), open);
        self.plan.push(SimTime::from_nanos(end), close);
        self.busy.insert(subject.key(), end + 1);
        true
    }

    /// Draw one row: per target a count, that many starts (sorted; one
    /// that falls inside the target's previous window is skipped) and a
    /// length per surviving start; then the forced episode if none
    /// survived anywhere.
    fn train(&mut self, topo: &Topology, row: &Train) {
        let &Train(_, family, targets, count, len_div, start_tenths, forced) = row;
        let targets = targets(topo);
        let ((count_lo, count_hi), (div_lo, div_hi)) = (count[self.level], len_div[self.level]);
        let (len_lo, len_hi) = (self.h / div_lo, self.h / div_hi);
        let last_start = self.h * start_tenths / 10;
        let mut any = false;
        for &target in &targets {
            let count = self.rng.gen_range_inclusive(count_lo, count_hi);
            let mut starts: Vec<u64> = (0..count)
                .map(|_| self.rng.gen_range_inclusive(0, last_start))
                .collect();
            starts.sort_unstable();
            for start in starts {
                if start >= self.free_at(target) {
                    let len = self.rng.gen_range_inclusive(len_lo, len_hi);
                    any |= self.window(family, target, start, len);
                }
            }
        }
        if any {
            return;
        }
        let candidates = match forced {
            Forced::RandomTarget if !targets.is_empty() => {
                let i = self.rng.gen_index(targets.len());
                &targets[i..=i]
            }
            Forced::FirstWithRoom => &targets[..],
            Forced::RandomTarget | Forced::Never => &[],
        };
        for &target in candidates {
            let start = (self.h / 4).max(self.free_at(target));
            let len = self.rng.gen_range_inclusive(len_lo, len_hi);
            if self.window(family, target, start, len) {
                break;
            }
        }
    }
}

/// Expand `cfg` into a concrete fault schedule for `topo`.
///
/// Pure and deterministic: the same `(topo, cfg)` always yields the same
/// plan. Panics if the horizon is shorter than 1 ms (too little room to
/// schedule a flap and its recovery).
pub fn generate(topo: &Topology, cfg: &ChaosConfig) -> FaultPlan {
    let h = cfg.horizon.as_nanos();
    assert!(h >= 1_000_000, "chaos horizon must be at least 1 ms");
    let hi = cfg.intensity == ChaosIntensity::High;
    let mut storm = Storm {
        rng: Rng::seed_from_u64(cfg.seed),
        plan: FaultPlan::new(),
        busy: BTreeMap::new(),
        h,
        latest: h * 95 / 100,
        level: hi as usize,
    };
    let links = fabric_links(topo);
    let switches = topo.switches();
    let (flaps, class_trains) = TRAINS.split_first().expect("the fabric-flap row");
    storm.train(topo, flaps);

    // Correlated rack outages: one ToR loses all its uplinks at once.
    // Each ToR is hit at most once; start and length are drawn before the
    // uplinks are read, then the window is pushed past any earlier window
    // on an involved uplink so no link is downed twice.
    let tors = tor_switches(topo);
    let outages = if hi && !links.is_empty() && !tors.is_empty() {
        (storm.rng.gen_range_inclusive(1, 2) as usize).min(tors.len())
    } else {
        0
    };
    let mut hit = Vec::new();
    for _ in 0..outages {
        let tor = loop {
            let t = tors[storm.rng.gen_index(tors.len())];
            if !hit.contains(&t) {
                break t;
            }
        };
        hit.push(tor);
        let mut start = storm.rng.gen_range_inclusive(0, h * 8 / 10);
        let len = storm.rng.gen_range_inclusive(h / 50, h / 8);
        let uplinks: Vec<Subject> = topo
            .neighbors(tor)
            .into_iter()
            .filter(|&(_, peer, _, _)| topo.kind(peer) == NodeKind::Switch)
            .map(|(_, peer, _, _)| Subject::Link(tor, peer))
            .collect();
        for &uplink in &uplinks {
            start = start.max(storm.free_at(uplink));
        }
        for &uplink in &uplinks {
            storm.window(FaultFamily::Outage, uplink, start, len);
        }
    }

    // Arbitrator crash/restart storms over a random subset of switches,
    // each crashing shortly after the storm's instant. The length is
    // drawn before the instant, and a switch that is still busy has its
    // crash pushed past that window rather than skipped.
    for _ in 0..if hi { 2 } else { 1 } {
        let start = storm.rng.gen_range_inclusive(0, h * 8 / 10);
        let mut victims: Vec<NodeId> = switches
            .iter()
            .copied()
            .filter(|_| storm.rng.gen_f64() < 0.5)
            .collect();
        if victims.is_empty() && !switches.is_empty() {
            victims.push(switches[storm.rng.gen_index(switches.len())]);
        }
        for node in victims {
            let len = storm.rng.gen_range_inclusive(h / 100, h / 10);
            let last = (start + len / 4).min(storm.latest - 1);
            let at = storm.rng.gen_range_inclusive(start, last);
            let at = at.max(storm.free_at(Subject::Node(node)));
            storm.window(FaultFamily::ArbitratorCrash, Subject::Node(node), at, len);
        }
    }

    // Control-loss bursts on random fabric-link directions.
    if !links.is_empty() {
        for _ in 0..if hi { 6 } else { 2 } {
            let (a, b) = links[storm.rng.gen_index(links.len())];
            let (from, to) = if storm.rng.gen_f64() < 0.5 {
                (a, b)
            } else {
                (b, a)
            };
            let at = storm
                .rng
                .gen_range_inclusive(0, h * 9 / 10)
                .min(storm.latest);
            let n = storm.rng.gen_range_inclusive(1, 8);
            storm.plan.push(
                SimTime::from_nanos(at),
                FaultEvent::CtrlLossBurst { from, to, n },
            );
        }
    }

    for row in class_trains.iter().filter(|row| row.0 == cfg.class) {
        storm.train(topo, row);
    }
    storm.plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowSpec, ReceiverHint};
    use crate::host::{AgentCtx, AgentFactory, FlowAgent};
    use crate::queue::DropTailQdisc;
    use crate::time::Rate;
    use crate::topology::TopologyBuilder;
    use std::sync::Arc;

    struct NullFactory;
    struct NullAgent;
    impl FlowAgent for NullAgent {
        fn on_start(&mut self, _: &mut AgentCtx<'_, '_>) {}
        fn on_packet(&mut self, _: crate::packet::Packet, _: &mut AgentCtx<'_, '_>) {}
        fn on_timer(&mut self, _: u64, _: &mut AgentCtx<'_, '_>) {}
        fn is_done(&self) -> bool {
            false
        }
    }
    impl AgentFactory for NullFactory {
        fn sender(&self, _: &FlowSpec) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
        fn receiver(&self, _: ReceiverHint) -> Box<dyn FlowAgent> {
            Box::new(NullAgent)
        }
    }

    /// 2 spines, 2 leaves, 2 hosts per leaf — smallest multi-path fabric.
    fn leaf_spine() -> Topology {
        let mut b = TopologyBuilder::new();
        let spines = [b.add_switch(), b.add_switch()];
        for _ in 0..2 {
            let leaf = b.add_switch();
            for s in spines {
                b.connect(leaf, s, Rate::from_gbps(40), SimDuration::from_micros(2));
            }
            for h in b.add_hosts(2) {
                b.connect(h, leaf, Rate::from_gbps(10), SimDuration::from_micros(1));
            }
        }
        b.build(Arc::new(NullFactory), &|_| Box::new(DropTailQdisc::new(16)))
            .topo
    }

    fn cfg(seed: u64, intensity: ChaosIntensity, class: FaultClass) -> ChaosConfig {
        ChaosConfig {
            seed,
            intensity,
            class,
            horizon: SimDuration::from_millis(100),
        }
    }

    fn fabric(seed: u64, intensity: ChaosIntensity) -> FaultPlan {
        generate(&leaf_spine(), &cfg(seed, intensity, FaultClass::Fabric))
    }

    #[test]
    fn same_seed_same_plan() {
        let a = fabric(42, ChaosIntensity::High);
        assert_eq!(a, fabric(42, ChaosIntensity::High));
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            fabric(1, ChaosIntensity::High),
            fabric(2, ChaosIntensity::High)
        );
    }

    /// Every plan the harness can ask for, byte for byte: FNV-1a over the
    /// `Debug` rendering of 80 000 plans (2 205 456 events). The value
    /// was recorded from the eight-section generator this table-driven
    /// one replaced; a change that means to move the schedules updates it
    /// (and `scripts/chaos_ci.digest`, which moves with it).
    #[test]
    fn generated_plans_are_pinned() {
        use crate::trace::{fnv1a, FNV1A_OFFSET};
        let topo = leaf_spine();
        let mut digest = FNV1A_OFFSET;
        for seed in 0..10_000 {
            for intensity in [ChaosIntensity::Low, ChaosIntensity::High] {
                for class in FaultClass::all() {
                    let plan = generate(&topo, &cfg(seed, intensity, class));
                    digest = fnv1a(digest, format!("{:?}", plan.events()).as_bytes());
                }
            }
        }
        assert_eq!(digest, 0x94dd_6f5f_b0df_a708, "{digest:#018x}");
    }

    #[test]
    fn high_intensity_generates_more_faults() {
        let total = |i: ChaosIntensity| -> usize { (0..8).map(|s| fabric(s, i).len()).sum() };
        assert!(
            total(ChaosIntensity::High) > total(ChaosIntensity::Low),
            "high intensity should produce more fault events on average"
        );
    }

    #[test]
    fn without_host_faults_only_fabric_links_are_flapped() {
        let hosts = leaf_spine().hosts();
        for seed in 0..8 {
            for &(_, ev) in fabric(seed, ChaosIntensity::High).events() {
                let touches_a_host = match ev.describe().1 {
                    Subject::Link(a, b) | Subject::Direction(a, b) => {
                        hosts.contains(&a) || hosts.contains(&b)
                    }
                    Subject::Node(node) => hosts.contains(&node),
                };
                assert!(!touches_a_host, "seed {seed}: {ev:?} in a fabric storm");
            }
        }
    }

    /// The class rows draw after everything the fabric class draws, so a
    /// seed's fabric schedule is the same whatever else rides on it; what
    /// follows the prefix belongs to the class's own families and is
    /// never empty.
    #[test]
    fn the_fabric_plan_is_a_prefix_of_every_other_class_plan() {
        use FaultFamily::*;
        let topo = leaf_spine();
        let hosts = topo.hosts();
        for seed in 0..8 {
            for intensity in [ChaosIntensity::Low, ChaosIntensity::High] {
                let base = fabric(seed, intensity);
                for (class, families) in [
                    (FaultClass::Host, &[Outage, HostCrash][..]),
                    (FaultClass::Gray, &[Degrade][..]),
                    (FaultClass::Overload, &[CtrlStorm][..]),
                ] {
                    let plan = generate(&topo, &cfg(seed, intensity, class));
                    let (prefix, tail) = plan.events().split_at(base.len());
                    assert_eq!(prefix, base.events(), "seed {seed} {class:?}");
                    assert!(
                        tail.iter()
                            .any(|&(_, ev)| ev.describe().0
                                == Pairing::Opens(*families.last().unwrap())),
                        "seed {seed}: no {class:?} episode"
                    );
                    for &(_, ev) in tail {
                        let (Pairing::Opens(f) | Pairing::Closes(f), subject) = ev.describe()
                        else {
                            panic!("seed {seed} {class:?}: point event {ev:?} in the tail");
                        };
                        assert!(families.contains(&f), "seed {seed} {class:?}: {ev:?}");
                        if let (FaultClass::Host, Subject::Link(a, _)) = (class, subject) {
                            assert!(hosts.contains(&a), "seed {seed}: fabric flap {ev:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 ms")]
    fn tiny_horizon_is_rejected() {
        let c = ChaosConfig {
            horizon: SimDuration::from_micros(10),
            ..cfg(0, ChaosIntensity::Low, FaultClass::Fabric)
        };
        generate(&leaf_spine(), &c);
    }
}
