//! Microbenchmarks of the layers' public functions (the `_ns` per-layer
//! metrics): fixed seeds, asserted work, median ns/op over a few timed
//! batches. They run in the traced mode only and do not depend on the
//! workload; their job is to say *which layer* moved when an end-to-end
//! number does.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use netsim::engine::{Ctx, EngineKind, Scheduler};
use netsim::event::EventKind;
use netsim::fault::DegradeProfile;
use netsim::ids::{FlowId, NodeId, PortId};
use netsim::invariants::InvariantConfig;
use netsim::node::Node;
use netsim::packet::{Packet, PacketArena};
use netsim::port::Port;
use netsim::queue::{DropTailQdisc, Enqueued, Qdisc, RedEcnQdisc, StrictPrioQdisc};
use netsim::rng::Rng;
use netsim::sim::{RunLimit, Simulation};
use netsim::stats::StatsCollector;
use netsim::switch::{Fib, Switch};
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::trace::{HashTracer, TextTracer};
use pase::{FlowEntry, InboxBudget, LinkArbitrator, PaseConfig, TreeInfo};
use pfabric::PFabricQdisc;
use transport::{ByteTracker, RttEstimator, TxEngine};
use workloads::{percentile, QuantileSketch, Scenario, Scheme, TopologySpec, SKETCH_EPSILON};

/// Median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    percentile(&v, 50.0)
}

/// How long and how often each microbenchmark samples.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Timed batches per microbenchmark (the median is reported).
    pub samples: usize,
    /// Minimum duration of one batch.
    pub batch: Duration,
    /// Divisor applied to the large fixture sizes (`cargo test` profile).
    pub shrink: usize,
}

impl Budget {
    /// The measured profile: 5 × 20 ms per microbenchmark.
    pub fn full() -> Budget {
        Budget {
            samples: 5,
            batch: Duration::from_millis(20),
            shrink: 1,
        }
    }

    /// The `cargo test` profile.
    pub fn smoke() -> Budget {
        Budget {
            samples: 1,
            batch: Duration::from_millis(1),
            shrink: 100,
        }
    }

    /// Median ns/op: each call of `chunk` performs and returns a fixed
    /// number of operations (asserted), and a batch repeats it until the
    /// batch duration has passed.
    fn ns_per_op(&self, mut chunk: impl FnMut() -> u64) -> f64 {
        let expect = chunk();
        assert!(expect > 0, "microbenchmark chunk did no work");
        let samples = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                let mut ops = 0u64;
                while t.elapsed() < self.batch {
                    let done = black_box(chunk());
                    assert_eq!(done, expect, "microbenchmark work changed between chunks");
                    ops += done;
                }
                t.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        median(samples)
    }
}

const CHUNK: u64 = 1024;

fn data_pkt(i: u64) -> Packet {
    Packet::data(FlowId(i), NodeId(0), NodeId(1), i * 1460, 1460)
}

/// One engine push + pop with `pending` events in the queue: each op pops
/// the earliest delivery and schedules it again `delta(rng)` ahead of the
/// clock, so the population stays constant. The packet box rides along
/// untouched (the arena has its own microbenchmark), which leaves the
/// event queue as the only thing measured.
fn push_pop(
    b: &Budget,
    engine: Option<EngineKind>,
    pending: usize,
    delta: impl Fn(&mut Rng) -> u64,
) -> f64 {
    let mut sched = engine.map_or_else(Scheduler::new, Scheduler::with_engine);
    let mut rng = Rng::seed_from_u64(0x5eed_b0a7);
    for i in 0..pending as u64 {
        let at = SimTime::ZERO + SimDuration::from_nanos(delta(&mut rng));
        sched.schedule_deliver(at, NodeId((i % 64) as u32), data_pkt(i));
    }
    let ns = b.ns_per_op(|| {
        for _ in 0..CHUNK {
            let (node, kind) = sched.pop().expect("population is constant");
            let at = sched.now() + SimDuration::from_nanos(delta(&mut rng));
            sched.schedule_at(at, node, kind);
        }
        CHUNK
    });
    assert_eq!(
        sched.pending(),
        pending,
        "push/pop must keep the population"
    );
    ns
}

/// `Qdisc::enqueue` + `dequeue` around a standing queue of `depth`
/// packets. Priorities and ranks cycle so banded and ranked disciplines
/// exercise their selection logic.
fn enq_deq(b: &Budget, mut q: Box<dyn Qdisc>, depth: u64) -> f64 {
    let mk = |i: u64| {
        let mut p = data_pkt(i);
        p.prio = (i % 8) as u8;
        p.rank = (i * 7919) % 200_000;
        Box::new(p)
    };
    let now = SimTime::from_micros(1);
    for i in 0..depth {
        assert!(matches!(q.enqueue(mk(i), now), Enqueued::Ok));
    }
    let mut i = depth;
    let mut spare = Some(mk(i));
    let ns = b.ns_per_op(|| {
        for _ in 0..CHUNK {
            i += 1;
            let mut pkt = spare.take().expect("one box circulates");
            pkt.prio = (i % 8) as u8;
            pkt.rank = (i * 7919) % 200_000;
            pkt.ecn_ce = false;
            assert!(matches!(q.enqueue(pkt, now), Enqueued::Ok));
            spare = q.dequeue(now);
        }
        CHUNK
    });
    assert_eq!(q.len_pkts() as u64, depth, "standing queue must hold");
    ns
}

/// A scheduler, a collector and a 2-port switch (port 0 → node 0, port 1
/// → node 1) under test as node 2.
struct Rig {
    sched: Scheduler,
    stats: StatsCollector,
    sw: Switch,
}

impl Rig {
    fn new() -> Rig {
        let port = |id: u32| {
            Port::new(
                PortId(id),
                NodeId(id),
                Rate::from_gbps(10),
                SimDuration::from_micros(1),
                Box::new(DropTailQdisc::new(225)),
            )
        };
        let fib = Fib::from_rows(&[vec![PortId(0)], vec![PortId(1)], vec![]]);
        Rig {
            sched: Scheduler::new(),
            stats: StatsCollector::new(),
            sw: Switch::new(NodeId(2), vec![port(0), port(1)], fib),
        }
    }

    /// Drive one packet through `enter` and then through the events it
    /// causes (the port's `TxComplete`, then the delivery at the peer,
    /// whose box goes back to the arena). Returns events handled.
    fn cycle(&mut self, enter: impl FnOnce(&mut Switch, &mut Ctx<'_>)) -> u64 {
        let mut ctx = Ctx {
            node: NodeId(2),
            sched: &mut self.sched,
            stats: &mut self.stats,
        };
        enter(&mut self.sw, &mut ctx);
        let mut handled = 0;
        while let Some((node, kind)) = ctx.sched.pop() {
            handled += 1;
            match kind {
                EventKind::Deliver(pkt) if node != NodeId(2) => ctx.sched.arena_mut().release(pkt),
                kind => self.sw.handle(kind, &mut ctx),
            }
        }
        handled
    }
}

/// `Switch::handle(Deliver)` for a transit packet, plus the `TxComplete`
/// it causes and the two pops that drain them.
fn forward(b: &Budget, mk: impl Fn(u64) -> Packet) -> f64 {
    let mut rig = Rig::new();
    let mut i = 0;
    b.ns_per_op(|| {
        for _ in 0..CHUNK {
            i += 1;
            let pkt = rig.sched.arena_mut().alloc(mk(i));
            let handled = rig.cycle(|sw, ctx| sw.handle(EventKind::Deliver(pkt), ctx));
            assert_eq!(handled, 2, "TxComplete, then delivery at the peer");
        }
        CHUNK
    })
}

/// `Port::send` + `on_tx_complete` (plus the pop between them), healthy
/// or degraded.
fn port_tx(b: &Budget, degrade: Option<DegradeProfile>) -> f64 {
    let mut sched = Scheduler::new();
    let mut stats = StatsCollector::new();
    let mut port = Port::new(
        PortId(0),
        NodeId(1),
        Rate::from_gbps(10),
        SimDuration::from_micros(1),
        Box::new(DropTailQdisc::new(225)),
    );
    if let Some(profile) = degrade {
        port.set_degraded(NodeId(0), profile);
    }
    let mut i = 0;
    b.ns_per_op(|| {
        let mut ctx = Ctx {
            node: NodeId(0),
            sched: &mut sched,
            stats: &mut stats,
        };
        for _ in 0..CHUNK {
            i += 1;
            let pkt = ctx.alloc_packet(data_pkt(i));
            port.send(pkt, &mut ctx);
            let tx = ctx.sched.pop();
            assert!(matches!(tx, Some((_, EventKind::TxComplete(_)))));
            port.on_tx_complete(&mut ctx);
            // Degraded ports lose some packets at TX; the rest arrive.
            if let Some((_, EventKind::Deliver(pkt))) = ctx.sched.pop() {
                ctx.release_packet(pkt);
            }
        }
        CHUNK
    })
}

/// `Switch::route` over every edge/aggregation/core switch of a built
/// k-ary fat-tree, destinations drawn uniformly from its hosts.
fn fib_lookup(b: &Budget, sim: &Simulation, hosts: &[NodeId]) -> f64 {
    let switches: Vec<&Switch> = sim
        .nodes()
        .iter()
        .filter_map(|n| match n {
            Node::Switch(s) => Some(s),
            Node::Host(_) => None,
        })
        .collect();
    let mut rng = Rng::seed_from_u64(0xf1b);
    b.ns_per_op(|| {
        let mut routed = 0;
        for i in 0..CHUNK {
            let sw = switches[rng.gen_index(switches.len())];
            let dst = hosts[rng.gen_index(hosts.len())];
            routed += sw.route(dst, FlowId(i)).is_some() as u64;
        }
        routed
    })
}

/// `LinkArbitrator::update_and_decide` with `flows` resident flows.
fn arbitrate(b: &Budget, flows: u64) -> (LinkArbitrator, f64) {
    let cfg = PaseConfig::default();
    let mut arb = LinkArbitrator::new(Rate::from_gbps(10), &cfg);
    let entry = |i: u64| FlowEntry {
        remaining: 2_000 + (i * 7919) % 196_000,
        deadline: None,
        demand: Rate::from_gbps(1),
        task: None,
        last_update: SimTime::from_micros(i),
    };
    for i in 0..flows {
        arb.update(FlowId(i), entry(i));
    }
    let mut i = 0;
    let ns = b.ns_per_op(|| {
        for _ in 0..64 {
            i += 1;
            black_box(arb.update_and_decide(FlowId(i % flows), entry(i)));
        }
        64
    });
    assert_eq!(arb.n_flows() as u64, flows);
    (arb, ns)
}

/// Host seconds of `Simulation::run` on a fault-free chaos-fabric
/// simulation after `prepare` installed (or not) an observer.
fn observed_run_s(scenario: &Scenario, seed: u64, prepare: impl Fn(&mut Simulation)) -> f64 {
    let (mut sim, hosts) = Scheme::Pase.build_sim(&scenario.topo);
    prepare(&mut sim);
    sim.add_flows(scenario.generate_flows(0.5, seed, &hosts));
    let t = Instant::now();
    sim.run(RunLimit::until_measured_done(SimTime::from_secs(120)));
    t.elapsed().as_secs_f64()
}

/// Overhead of the text sink, the hash sink and the invariant monitor on
/// a fault-free run of the chaos fabric: median run time with the
/// observer on over median run time with it off, minus one. The four
/// configurations are interleaved so slow drift in host speed cancels.
fn observer_overheads(b: &Budget, scenario: &Scenario, seed: u64) -> [f64; 3] {
    let mut t: [Vec<f64>; 4] = Default::default();
    for _ in 0..b.samples {
        t[0].push(observed_run_s(scenario, seed, |_| {}));
        t[1].push(observed_run_s(scenario, seed, |sim| {
            sim.set_tracer(Box::new(TextTracer::new()))
        }));
        t[2].push(observed_run_s(scenario, seed, |sim| {
            sim.set_tracer(Box::new(HashTracer::new()))
        }));
        t[3].push(observed_run_s(scenario, seed, |sim| {
            sim.enable_invariants(InvariantConfig::default())
        }));
    }
    let [off, text, hash, inv] = t.map(median);
    [text / off - 1.0, hash / off - 1.0, inv / off - 1.0]
}

/// Run every microbenchmark; returns `metric name → value`.
/// `chaos_fabric` is the fault-free scenario the observer overheads are
/// taken on.
pub fn run_all(b: &Budget, chaos_fabric: &Scenario, seed: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    // Engine: the delta mix of a running fabric — half the events a
    // serialization time ahead (TxComplete, 1.2-12 us), four in ten a
    // propagation delay ahead (Deliver, 25 us), one in ten a timer
    // (0.3-10 ms).
    let near = |rng: &mut Rng| match rng.gen_below(10) {
        0..=4 => 1_200 + rng.gen_below(10_800),
        5..=8 => 25_000,
        _ => 300_000 + rng.gen_below(9_700_000),
    };
    for (name, pending) in [("p1e3", 1_000), ("p1e5", 100_000), ("p1e6", 1_000_000)] {
        let pending = (pending / b.shrink).max(10);
        put(
            &format!("netsim.engine.push_pop_ns.{name}"),
            push_pop(b, None, pending, near),
        );
    }
    put(
        "netsim.engine.heap_push_pop_ns.p1e5",
        push_pop(
            b,
            Some(EngineKind::Heap),
            (100_000 / b.shrink).max(10),
            near,
        ),
    );
    // The wheel-storm delta profile: every wheel level, and every 64th
    // event beyond the wheel's span into the overflow heap.
    put(
        "netsim.engine.far_push_pop_ns",
        push_pop(
            b,
            Some(EngineKind::Wheel),
            (100_000 / b.shrink).max(10),
            |rng| {
                if rng.gen_below(64) == 63 {
                    1u64 << (41 + rng.gen_below(4))
                } else {
                    1u64 << rng.gen_below(40)
                }
            },
        ),
    );

    let mut arena = PacketArena::new();
    put(
        "netsim.packet.alloc_release_ns",
        b.ns_per_op(|| {
            for i in 0..CHUNK {
                let pkt = arena.alloc(data_pkt(i));
                arena.release(black_box(pkt));
            }
            CHUNK
        }),
    );
    assert_eq!(arena.outstanding(), 0);

    put(
        "netsim.queue.droptail_ns",
        enq_deq(b, Box::new(DropTailQdisc::new(225)), 16),
    );
    put(
        "netsim.queue.red_ns",
        enq_deq(b, Box::new(RedEcnQdisc::new(225, 20)), 16),
    );
    put(
        "netsim.queue.strict_prio_ns",
        enq_deq(b, Box::new(StrictPrioQdisc::new(8, 500, 20)), 16),
    );
    put(
        "pfabric.qdisc.enq_deq_ns.d16",
        enq_deq(b, Box::new(PFabricQdisc::new(76)), 16),
    );
    put(
        "pfabric.qdisc.enq_deq_ns.d76",
        enq_deq(b, Box::new(PFabricQdisc::new(76)), 75),
    );

    {
        let (sim, hosts) = Scheme::Dctcp.build_sim(&TopologySpec::fat_tree(4));
        put(
            "netsim.switch.fib_lookup_ns.k4",
            fib_lookup(b, &sim, &hosts),
        );
        let k = if b.shrink > 1 { 4 } else { 16 };
        let (sim, hosts) = Scheme::Dctcp.build_sim(&TopologySpec::fat_tree(k));
        put(
            "netsim.switch.fib_lookup_ns.k16",
            fib_lookup(b, &sim, &hosts),
        );
        let fib_bytes: usize = sim
            .nodes()
            .iter()
            .filter_map(|n| match n {
                Node::Switch(s) => Some(s.fib().heap_bytes()),
                Node::Host(_) => None,
            })
            .sum();
        put("netsim.switch.fib_bytes.k16", fib_bytes as f64);
        let times: Vec<f64> = (0..b.samples)
            .map(|_| {
                let t = Instant::now();
                black_box(TreeInfo::from_topology(sim.topo()));
                t.elapsed().as_secs_f64()
            })
            .collect();
        put("pase.tree.from_topology_s.k16", median(times));
    }

    put(
        "netsim.switch.forward_ns.ack",
        forward(b, |i| Packet::ack(FlowId(i), NodeId(0), NodeId(1), i)),
    );
    put("netsim.switch.forward_ns.data", forward(b, data_pkt));
    put("netsim.port.tx_ns", port_tx(b, None));
    put(
        "netsim.port.tx_degraded_ns",
        port_tx(
            b,
            Some(DegradeProfile {
                seed: 7,
                loss_ppm: 10_000,
                corrupt_ppm: 10_000,
                extra_delay_ns: 500,
                jitter_ns: 500,
            }),
        ),
    );

    let mut stats = StatsCollector::new();
    put(
        "netsim.stats.note_ctrl_ns.n1024",
        b.ns_per_op(|| {
            for i in 0..CHUNK {
                stats.note_ctrl_processed(NodeId((i % 1024) as u32));
                stats.note_arb_pruned(NodeId((i % 1024) as u32));
            }
            CHUNK
        }),
    );
    put(
        "netsim.stats.note_data_ns",
        b.ns_per_op(|| {
            for _ in 0..CHUNK {
                let stats = black_box(&mut stats);
                stats.note_data_injected();
                stats.note_data_enqueued();
                stats.note_data_delivered();
            }
            CHUNK
        }),
    );
    assert_eq!(stats.data_pkts_injected, stats.data_pkts_delivered);
    black_box(&stats);

    let [text, hash, inv] = observer_overheads(b, chaos_fabric, seed);
    put("netsim.trace.text_overhead_frac", text);
    put("netsim.trace.hash_overhead_frac", hash);
    put("netsim.invariants.overhead_frac", inv);

    let rtt = || RttEstimator::new(SimDuration::from_millis(10), SimDuration::from_secs(1));
    let mut tx = TxEngine::new(
        FlowId(1),
        NodeId(0),
        NodeId(1),
        u64::MAX / 4,
        1460,
        10.0,
        rtt(),
    );
    let (mut now, mut acked) = (SimTime::from_millis(1), 0u64);
    put(
        "transport.tx.on_ack_ns",
        b.ns_per_op(|| {
            for _ in 0..CHUNK {
                now += SimDuration::from_micros(1);
                acked += 1460;
                let sent = now - SimDuration::from_micros(300);
                black_box(tx.on_ack(acked, Some(sent), now));
            }
            CHUNK
        }),
    );
    assert_eq!(tx.acked(), acked);

    let mut tracker = ByteTracker::new();
    let mut seq = 0u64;
    put(
        "transport.tracker.on_range_ns",
        b.ns_per_op(|| {
            for _ in 0..CHUNK {
                black_box(tracker.on_range(seq, seq + 1460));
                seq += 1460;
            }
            CHUNK
        }),
    );
    assert_eq!(tracker.cum_ack(), seq);
    // Reordered: each pair of segments arrives swapped, so every other
    // arrival opens a gap and the next one closes it.
    put(
        "transport.tracker.on_range_reorder_ns",
        b.ns_per_op(|| {
            for _ in 0..CHUNK / 2 {
                black_box(tracker.on_range(seq + 1460, seq + 2920));
                black_box(tracker.on_range(seq, seq + 1460));
                seq += 2920;
            }
            CHUNK
        }),
    );
    assert_eq!((tracker.cum_ack(), tracker.gaps()), (seq, 0));

    let mut est = rtt();
    let mut rng = Rng::seed_from_u64(0x277);
    put(
        "transport.rtt.on_sample_ns",
        b.ns_per_op(|| {
            for _ in 0..CHUNK {
                est.on_sample(SimDuration::from_nanos(250_000 + rng.gen_below(100_000)));
            }
            CHUNK
        }),
    );
    black_box(est.rto());

    for flows in [10u64, 100, 1000] {
        let (mut arb, ns) = arbitrate(b, flows);
        put(&format!("pase.algorithm.update_decide_ns.f{flows}"), ns);
        if flows == 1000 {
            // Nothing expires: the cost is the scan, as between refreshes.
            let expiry = SimDuration::from_secs(1);
            put(
                "pase.algorithm.gc_ns.f1000",
                b.ns_per_op(|| {
                    arb.gc(SimTime::from_millis(2), expiry);
                    (arb.n_flows() == 1000) as u64
                }),
            );
        }
    }

    let mut inbox = InboxBudget::new(&PaseConfig::default());
    let mut now = SimTime::ZERO;
    put(
        "pase.shed.charge_ns",
        b.ns_per_op(|| {
            let mut depth = 0;
            for _ in 0..CHUNK {
                now += SimDuration::from_nanos(100);
                depth = inbox.charge(now);
            }
            (depth > 0) as u64 * CHUNK
        }),
    );

    let mut sketch = QuantileSketch::new(SKETCH_EPSILON);
    let mut rng = Rng::seed_from_u64(0x5ce7c4);
    put(
        "workloads.metrics.sketch_insert_ns",
        b.ns_per_op(|| {
            for _ in 0..CHUNK {
                sketch.insert(rng.gen_below(1_000_000) as f64 * 1e-3);
            }
            CHUNK
        }),
    );
    assert!(sketch.quantile(0.99) > sketch.quantile(0.5));

    out
}
