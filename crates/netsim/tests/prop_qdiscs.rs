//! Randomized tests for the queue disciplines: conservation, bounds and
//! ordering invariants under arbitrary operation sequences. Sequences are
//! generated from the crate's own seeded [`Rng`] so the suite is
//! deterministic and dependency-free.

use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::queue::{DropTailQdisc, Enqueued, Qdisc, QdiscStats, RedEcnQdisc, StrictPrioQdisc};
use netsim::rng::Rng;
use netsim::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Enqueue { flow: u64, prio: u8, len: u16 },
    Dequeue,
}

/// Random op sequence: ~2/3 enqueues, ~1/3 dequeues, up to 200 ops.
fn ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.gen_index(200);
    (0..n)
        .map(|_| {
            if rng.gen_below(3) < 2 {
                Op::Enqueue {
                    flow: rng.gen_below(20),
                    prio: rng.gen_below(10) as u8,
                    len: rng.gen_range_inclusive(1, 1459) as u16,
                }
            } else {
                Op::Dequeue
            }
        })
        .collect()
}

fn mk_pkt(flow: u64, prio: u8, len: u16) -> Box<Packet> {
    let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, len as u32);
    p.prio = prio;
    p.rank = flow * 1000;
    Box::new(p)
}

/// Run an op sequence, checking the universal qdisc invariants:
/// * packet and byte occupancy never go negative or exceed what entered;
/// * `len_pkts == 0` iff `len_bytes == 0`;
/// * conservation: enqueued = dequeued + dropped + still-queued.
fn check_invariants(mut q: Box<dyn Qdisc>, ops: Vec<Op>, cap: usize) {
    let now = SimTime::ZERO;
    let mut in_count = 0u64;
    let mut out_count = 0u64;
    let mut drop_count = 0u64;
    for op in ops {
        match op {
            Op::Enqueue { flow, prio, len } => match q.enqueue(mk_pkt(flow, prio, len), now) {
                Enqueued::Ok => in_count += 1,
                Enqueued::RejectedArrival(_) => drop_count += 1,
                Enqueued::Evicted(_) => {
                    in_count += 1;
                    drop_count += 1;
                }
            },
            Op::Dequeue => {
                if q.dequeue(now).is_some() {
                    out_count += 1;
                }
            }
        }
        assert!(q.len_pkts() <= cap * 16, "occupancy explosion");
        assert_eq!(q.len_pkts() == 0, q.len_bytes() == 0, "byte/pkt mismatch");
    }
    // Conservation.
    assert_eq!(
        in_count,
        out_count + q.len_pkts() as u64,
        "packets lost or duplicated inside the qdisc"
    );
    // Drain fully.
    let mut drained = 0u64;
    while q.dequeue(now).is_some() {
        drained += 1;
    }
    assert_eq!(drained, in_count - out_count);
    assert_eq!(q.len_bytes(), 0);
    let stats = q.stats();
    assert_eq!(stats.dropped_pkts, drop_count);
}

const CASES: u64 = 64;

#[test]
fn droptail_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x0d70 ^ seed);
        let cap = rng.gen_range_inclusive(1, 63) as usize;
        let ops = ops(&mut rng);
        check_invariants(Box::new(DropTailQdisc::new(cap)), ops, cap);
    }
}

#[test]
fn red_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4ed0 ^ seed);
        let cap = rng.gen_range_inclusive(1, 63) as usize;
        let ops = ops(&mut rng);
        check_invariants(Box::new(RedEcnQdisc::new(cap, cap / 2)), ops, cap);
    }
}

#[test]
fn strict_prio_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5710 ^ seed);
        let cap = rng.gen_range_inclusive(1, 31) as usize;
        let bands = rng.gen_range_inclusive(1, 9) as usize;
        let ops = ops(&mut rng);
        check_invariants(
            Box::new(StrictPrioQdisc::new(bands, cap, cap)),
            ops,
            cap * bands,
        );
    }
}

/// Strict priority: a dequeued packet never has a (strictly) higher band
/// available in the queue at dequeue time.
#[test]
fn strict_prio_always_serves_highest_band() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xba2d ^ seed);
        let mut q = StrictPrioQdisc::new(8, 64, 64);
        let now = SimTime::ZERO;
        for op in ops(&mut rng) {
            match op {
                Op::Enqueue { flow, prio, len } => {
                    let _ = q.enqueue(mk_pkt(flow, prio % 8, len), now);
                }
                Op::Dequeue => {
                    let before: Vec<usize> = (0..8).map(|b| q.band_len_pkts(b)).collect();
                    if let Some(pkt) = q.dequeue(now) {
                        let band = pkt.prio as usize;
                        for (b, &occ) in before.iter().enumerate().take(band) {
                            assert_eq!(
                                occ, 0,
                                "dequeued band {band} while band {b} had {occ} packets"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The strict-priority discipline as it was before it kept its bands
/// inline: one independent [`RedEcnQdisc`] per band, dequeue scanning for
/// the first non-empty one, every aggregate a sum over bands.
struct BandPerQdisc(Vec<RedEcnQdisc>);

impl BandPerQdisc {
    fn new(n_bands: usize, cap: usize, k: usize) -> Self {
        BandPerQdisc((0..n_bands).map(|_| RedEcnQdisc::new(cap, k)).collect())
    }

    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued {
        let band = (pkt.prio as usize).min(self.0.len() - 1);
        self.0[band].enqueue(pkt, now)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        self.0.iter_mut().find(|b| !b.is_empty())?.dequeue(now)
    }

    fn stats(&self) -> QdiscStats {
        let mut total = QdiscStats::default();
        for s in self.0.iter().map(Qdisc::stats) {
            total.enqueued_pkts += s.enqueued_pkts;
            total.enqueued_bytes += s.enqueued_bytes;
            total.dropped_pkts += s.dropped_pkts;
            total.dropped_bytes += s.dropped_bytes;
            total.marked_pkts += s.marked_pkts;
        }
        total
    }
}

/// `(flow, seq, ecn_ce)` of every queued packet, in visiting order.
fn queued(visit: impl Fn(&mut dyn FnMut(&Packet))) -> Vec<(u64, u64, bool)> {
    let mut v = Vec::new();
    visit(&mut |p| v.push((p.flow.0, p.seq, p.ecn_ce)));
    v
}

/// [`StrictPrioQdisc`] against [`BandPerQdisc`], op by op: 126 seeded
/// scripts of 1,000 ops (fill-biased and drain-biased phases, so bands
/// overflow and run dry) over inline and spilled band counts, marking
/// thresholds at both ends, and ECN-capable and plain packets mixed.
#[test]
fn strict_prio_matches_one_red_queue_per_band() {
    let now = SimTime::ZERO;
    let mut script = 0u64;
    for n_bands in [1usize, 2, 4, 8, 9, 32, 64] {
        for cap in [1usize, 3, 12] {
            for k in [0, 1, cap] {
                for ecn_share in [0, 3] {
                    script += 1;
                    let mut rng = Rng::seed_from_u64(0x5d1f ^ script);
                    let mut new = StrictPrioQdisc::new(n_bands, cap, k);
                    let mut old = BandPerQdisc::new(n_bands, cap, k);
                    let what = format!("bands {n_bands} cap {cap} K {k} script {script}");
                    for op in 0..1000u64 {
                        // Alternate phases that fill and phases that drain.
                        let enqueue_bias = if (op / 100) % 2 == 0 { 3 } else { 1 };
                        if rng.gen_below(4) < enqueue_bias {
                            // Priorities beyond the last band clamp to it.
                            let prio = rng.gen_below(n_bands as u64 + 2) as u8;
                            let len = rng.gen_range_inclusive(1, 1459) as u16;
                            let mk = |ecn: bool| {
                                let mut p = mk_pkt(script, prio, len);
                                p.seq = op;
                                p.ecn_capable = ecn;
                                p
                            };
                            let ecn = rng.gen_below(4) < ecn_share;
                            let kind = |e: Enqueued| match e {
                                Enqueued::Ok => (0, None),
                                Enqueued::RejectedArrival(p) => (1, Some(p.seq)),
                                Enqueued::Evicted(p) => (2, Some(p.seq)),
                            };
                            assert_eq!(
                                kind(new.enqueue(mk(ecn), now)),
                                kind(old.enqueue(mk(ecn), now)),
                                "{what} op {op}: enqueue outcome"
                            );
                        } else {
                            let id = |p: Option<Box<Packet>>| p.map(|p| (p.seq, p.prio, p.ecn_ce));
                            assert_eq!(
                                id(new.dequeue(now)),
                                id(old.dequeue(now)),
                                "{what} op {op}: dequeued packet"
                            );
                        }
                        let old_lens: Vec<usize> = old.0.iter().map(Qdisc::len_pkts).collect();
                        let new_lens: Vec<usize> =
                            (0..n_bands).map(|b| new.band_len_pkts(b)).collect();
                        assert_eq!(new_lens, old_lens, "{what} op {op}: band occupancy");
                        assert_eq!(new.len_pkts(), old_lens.iter().sum::<usize>());
                        assert_eq!(
                            new.len_bytes(),
                            old.0.iter().map(Qdisc::len_bytes).sum::<u64>(),
                            "{what} op {op}: bytes queued"
                        );
                        assert_eq!(
                            queued(|f| new.for_each_queued(f)),
                            queued(|f| old.0.iter().for_each(|b| b.for_each_queued(f))),
                            "{what} op {op}: visiting order"
                        );
                        assert_eq!(new.stats(), old.stats(), "{what} op {op}: counters");
                    }
                }
            }
        }
    }
    assert!(script * 1000 >= 100_000);
}

/// RED marking threshold: CE only ever set when occupancy at arrival was
/// at least K, and never on non-ECN packets.
#[test]
fn red_marks_only_above_threshold() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4edc ^ seed);
        let k = rng.gen_index(16);
        let n_flows = rng.gen_range_inclusive(1, 79) as usize;
        let mut q = RedEcnQdisc::new(64, k);
        let now = SimTime::ZERO;
        let mut occupancy_at_arrival = std::collections::VecDeque::new();
        for _ in 0..n_flows {
            let f = rng.gen_below(9);
            occupancy_at_arrival.push_back(q.len_pkts());
            let _ = q.enqueue(mk_pkt(f, 0, 1000), now);
        }
        while let Some(p) = q.dequeue(now) {
            let occ = occupancy_at_arrival.pop_front().unwrap();
            assert_eq!(p.ecn_ce, occ >= k, "occupancy {occ} vs K {k}");
        }
    }
}

/// The three FIFO-ring disciplines at a given capacity; the strict-prio
/// one is exercised through a single band (every packet below is
/// `prio` 1), which follows the `RedEcnQdisc` law behind the classifier.
fn ring_qdiscs(cap: usize) -> [(&'static str, Box<dyn Qdisc>); 3] {
    [
        ("droptail", Box::new(DropTailQdisc::new(cap))),
        ("red", Box::new(RedEcnQdisc::new(cap, cap / 2))),
        (
            "strict-prio band",
            Box::new(StrictPrioQdisc::new(3, cap, cap / 2)),
        ),
    ]
}

/// `cap_pkts` is the only bound on occupancy, whatever the ring's own
/// capacity happens to be: exactly `cap_pkts` packets are accepted, the
/// next is handed back, and one dequeue makes room for exactly one more.
/// Capacities straddle the ring's growth steps and the 4096 the rings
/// used to be pre-sized to at most.
#[test]
fn capacity_boundary_is_cap_pkts_exactly() {
    let now = SimTime::ZERO;
    for cap in [1usize, 2, 7, 8, 9, 225, 500, 4096, 5000] {
        for (name, mut q) in ring_qdiscs(cap) {
            for i in 0..cap {
                assert!(
                    matches!(q.enqueue(mk_pkt(i as u64, 1, 100), now), Enqueued::Ok),
                    "{name} cap {cap}: packet {i} refused below capacity"
                );
            }
            assert_eq!(q.len_pkts(), cap);
            match q.enqueue(mk_pkt(9999, 1, 100), now) {
                Enqueued::RejectedArrival(p) => assert_eq!(p.flow, FlowId(9999)),
                other => panic!("{name} cap {cap}: full queue answered {other:?}"),
            }
            assert_eq!(q.dequeue(now).expect("full queue").flow, FlowId(0));
            assert!(matches!(q.enqueue(mk_pkt(7, 1, 100), now), Enqueued::Ok));
            assert!(matches!(
                q.enqueue(mk_pkt(8, 1, 100), now),
                Enqueued::RejectedArrival(_)
            ));
            assert_eq!(q.len_pkts(), cap);
            assert_eq!(q.len_bytes(), cap as u64 * 140);
            let st = q.stats();
            assert_eq!((st.enqueued_pkts, st.dropped_pkts), (cap as u64 + 1, 2));
        }
    }
}

/// A fixed 20k-op sequence (seeded; bursts long enough to fill a
/// 64-packet queue and drains long enough to empty it) must leave every
/// observable — the `len_pkts`/`len_bytes` trajectory, the dequeue
/// order, the final counters — exactly where the pre-sized rings left
/// it. The constants were recorded on the parent commit.
#[test]
fn fixed_sequence_accounting_is_pinned() {
    let now = SimTime::ZERO;
    let mut observed = Vec::new();
    for (name, mut q) in ring_qdiscs(64) {
        let mut rng = Rng::seed_from_u64(0x91c_0de);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut enqueue_bias = 3;
        for op in 0..20_000u64 {
            if op % 500 == 0 {
                // Alternate filling and draining phases.
                enqueue_bias = 4 - enqueue_bias;
            }
            if rng.gen_below(4) < enqueue_bias {
                let len = rng.gen_range_inclusive(1, 1459) as u16;
                fold(match q.enqueue(mk_pkt(op, 1, len), now) {
                    Enqueued::Ok => 1,
                    Enqueued::RejectedArrival(_) => 2,
                    Enqueued::Evicted(_) => 3,
                });
            } else {
                fold(
                    q.dequeue(now)
                        .map_or(u64::MAX, |p| p.flow.0 << 1 | p.ecn_ce as u64),
                );
            }
            fold(q.len_pkts() as u64);
            fold(q.len_bytes());
        }
        let st = q.stats();
        observed.push((
            name,
            h,
            q.len_bytes(),
            [
                st.enqueued_pkts,
                st.enqueued_bytes,
                st.dropped_pkts,
                st.dropped_bytes,
                st.marked_pkts,
            ],
        ));
    }
    let red = [6252, 4_843_286, 3678, 2_872_922, 3109];
    let pinned = [
        (
            "droptail",
            9_424_791_011_941_112_161,
            45_875,
            [6252, 4_843_286, 3678, 2_872_922, 0],
        ),
        ("red", 13_835_062_245_854_645_474, 45_875, red),
        ("strict-prio band", 13_835_062_245_854_645_474, 45_875, red),
    ];
    assert_eq!(observed, pinned);
}
