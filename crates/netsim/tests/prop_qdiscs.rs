//! Randomized tests for the queue disciplines: conservation, bounds and
//! ordering invariants under arbitrary operation sequences. Sequences are
//! generated from the crate's own seeded [`Rng`] so the suite is
//! deterministic and dependency-free.

use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use std::collections::VecDeque;

use netsim::queue::{
    Bands, DropTailQdisc, Enqueued, Qdisc, QdiscStats, RedEcnQdisc, StrictPrioQdisc,
};
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
/// * occupancy never exceeds what entered;
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

/// Strict priority over RED/ECN bands, written from the law rather than
/// from the library: one FIFO per band holding at most `cap` packets; an
/// arrival at a full band is refused, and an ECN-capable arrival that
/// finds `k` or more packets in its band is marked CE; dequeue serves the
/// first non-empty band.
struct BandPerQdisc {
    bands: Vec<VecDeque<Box<Packet>>>,
    cap: usize,
    k: usize,
    stats: QdiscStats,
}

impl BandPerQdisc {
    fn new(n_bands: usize, cap: usize, k: usize) -> Self {
        BandPerQdisc {
            bands: (0..n_bands).map(|_| VecDeque::new()).collect(),
            cap,
            k,
            stats: QdiscStats::default(),
        }
    }

    fn enqueue(&mut self, mut pkt: Box<Packet>) -> Enqueued {
        let last = self.bands.len() - 1;
        let band = &mut self.bands[(pkt.prio as usize).min(last)];
        if band.len() == self.cap {
            self.stats.dropped_pkts += 1;
            return Enqueued::RejectedArrival(pkt);
        }
        if pkt.ecn_capable && band.len() >= self.k {
            pkt.ecn_ce = true;
            self.stats.marked_pkts += 1;
        }
        self.stats.enqueued_pkts += 1;
        band.push_back(pkt);
        Enqueued::Ok
    }

    fn dequeue(&mut self) -> Option<Box<Packet>> {
        self.bands.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// Replay one seeded script of 1,000 ops (fill-biased and drain-biased
/// phases, so bands overflow and run dry) on `new` and on a
/// [`BandPerQdisc`] of the same shape, comparing every outcome, band
/// occupancy, visiting order and counter after every op.
fn replay<S: Send + 'static>(mut new: Bands<S>, cap: usize, k: usize, ecn_share: u64, seed: u64) {
    let now = SimTime::ZERO;
    let n_bands = new.n_bands();
    let mut old = BandPerQdisc::new(n_bands, cap, k);
    let mut rng = Rng::seed_from_u64(0x5d1f ^ seed);
    let what = format!(
        "{} bands {n_bands} cap {cap} K {k} script {seed}",
        core::any::type_name::<S>()
    );
    for op in 0..1000u64 {
        // Alternate phases that fill and phases that drain.
        let enqueue_bias = if (op / 100) % 2 == 0 { 3 } else { 1 };
        if rng.gen_below(4) < enqueue_bias {
            // Priorities beyond the last band clamp to it.
            let prio = rng.gen_below(n_bands as u64 + 2) as u8;
            let len = rng.gen_range_inclusive(1, 1459) as u16;
            let mk = |ecn: bool| {
                let mut p = mk_pkt(seed, prio, len);
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
                kind(old.enqueue(mk(ecn))),
                "{what} op {op}: enqueue outcome"
            );
        } else {
            let id = |p: Option<Box<Packet>>| p.map(|p| (p.seq, p.prio, p.ecn_ce));
            assert_eq!(
                id(new.dequeue(now)),
                id(old.dequeue()),
                "{what} op {op}: dequeued packet"
            );
        }
        let old_lens: Vec<usize> = old.bands.iter().map(VecDeque::len).collect();
        let new_lens: Vec<usize> = (0..n_bands).map(|b| new.band_len_pkts(b)).collect();
        assert_eq!(new_lens, old_lens, "{what} op {op}: band occupancy");
        assert_eq!(new.len_pkts(), old_lens.iter().sum::<usize>());
        // `(flow, seq, ecn_ce)` of every queued packet, in visiting order.
        let mut visited = Vec::new();
        new.for_each_queued(&mut |p| visited.push((p.flow.0, p.seq, p.ecn_ce)));
        let expected: Vec<_> = (old.bands.iter().flatten())
            .map(|p| (p.flow.0, p.seq, p.ecn_ce))
            .collect();
        assert_eq!(visited, expected, "{what} op {op}: visiting order");
        assert_eq!(new.stats(), old.stats, "{what} op {op}: counters");
    }
    if k == cap {
        // A full band refuses the arrival before the mark test could fire.
        assert_eq!(new.stats().marked_pkts, 0, "{what}: K = cap marked");
    }
}

/// The one band discipline against [`BandPerQdisc`], op by op, in all
/// three shapes: 126 strict-priority scripts over inline and spilled band
/// counts, marking thresholds at both ends, and ECN-capable and plain
/// packets mixed; the one-band scripts again as [`RedEcnQdisc`], and
/// those with `K` = cap again as [`DropTailQdisc`].
#[test]
fn strict_prio_matches_one_red_queue_per_band() {
    let mut script = 0u64;
    let mut shapes = [0u64; 3];
    for n_bands in [1usize, 2, 4, 8, 9, 32, 64] {
        for cap in [1usize, 3, 12] {
            for k in [0, 1, cap] {
                for ecn_share in [0, 3] {
                    script += 1;
                    replay(
                        StrictPrioQdisc::new(n_bands, cap, k),
                        cap,
                        k,
                        ecn_share,
                        script,
                    );
                    shapes[0] += 1;
                    if n_bands == 1 {
                        replay(RedEcnQdisc::new(cap, k), cap, k, ecn_share, script);
                        shapes[1] += 1;
                    }
                    if n_bands == 1 && k == cap {
                        replay(DropTailQdisc::new(cap), cap, k, ecn_share, script);
                        shapes[2] += 1;
                    }
                }
            }
        }
    }
    assert_eq!(shapes, [126, 18, 8]);
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

/// The band discipline in its three shapes at a given capacity; the
/// strict-priority one is exercised through a single band (every packet
/// below is `prio` 1), which follows the RED/ECN law behind the
/// classifier.
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
            let st = q.stats();
            assert_eq!((st.enqueued_pkts, st.dropped_pkts), (cap as u64 + 1, 2));
        }
    }
}

/// A fixed 20k-op sequence (seeded; bursts long enough to fill a
/// 64-packet queue and drains long enough to empty it) must leave every
/// observable — the `len_pkts` trajectory, the dequeue order, the final
/// counters — exactly where the pre-sized rings left it. The constants
/// were recorded on the three separate implementations, with the byte
/// terms (queued bytes, byte counters) left out of the fold and the
/// tuple once queues stopped counting bytes; the packet counters are the
/// ones recorded with them.
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
        }
        let st = q.stats();
        observed.push((name, h, [st.enqueued_pkts, st.dropped_pkts, st.marked_pkts]));
    }
    let red = [6252, 3678, 3109];
    let pinned = [
        ("droptail", 10_817_788_291_250_163_901, [6252, 3678, 0]),
        ("red", 7_637_861_828_058_622_480, red),
        ("strict-prio band", 7_637_861_828_058_622_480, red),
    ];
    assert_eq!(observed, pinned);
}
