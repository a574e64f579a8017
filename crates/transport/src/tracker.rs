//! Receiver-side byte-range tracking.
//!
//! Receivers record which byte ranges have arrived (possibly out of order)
//! and derive the cumulative acknowledgment from them. pFabric receivers
//! additionally report per-segment (selective) information, which falls out
//! of the same structure.

use std::collections::BTreeMap;

/// Tracks received byte ranges and the cumulative-ack frontier.
#[derive(Debug, Clone, Default)]
pub struct ByteTracker {
    /// Received, not-yet-contiguous ranges above the frontier:
    /// `start -> end` (exclusive), non-overlapping, non-adjacent.
    ooo: BTreeMap<u64, u64>,
    /// All bytes below this offset have been received.
    frontier: u64,
}

impl ByteTracker {
    /// A tracker with nothing received.
    pub fn new() -> Self {
        ByteTracker::default()
    }

    /// The cumulative-ack point: all bytes in `[0, frontier)` received.
    pub fn cum_ack(&self) -> u64 {
        self.frontier
    }

    /// Record receipt of `[start, end)`. Returns `true` if any byte of the
    /// range was new.
    pub fn on_range(&mut self, start: u64, end: u64) -> bool {
        assert!(start <= end, "invalid range {start}..{end}");
        if start == end {
            return false;
        }
        if end <= self.frontier {
            return false; // fully duplicate
        }
        if start <= self.frontier && self.ooo.is_empty() {
            // In order with nothing held above: extending the frontier
            // is all the general path (`insert`) would do.
            self.frontier = end;
            return true;
        }
        self.insert(start, end)
    }

    /// The general path of [`ByteTracker::on_range`] for a range that
    /// ends past the frontier: merge it into the held ranges, then
    /// advance the frontier through any that became contiguous.
    fn insert(&mut self, start: u64, end: u64) -> bool {
        let start = start.max(self.frontier);
        // Check whether [start, end) is fully covered by existing ranges.
        let mut new_bytes = false;
        let mut cursor = start;
        while cursor < end {
            // Find a stored range containing `cursor`.
            let covering = self
                .ooo
                .range(..=cursor)
                .next_back()
                .filter(|(_, &e)| e > cursor)
                .map(|(&s, &e)| (s, e));
            match covering {
                Some((_, e)) => cursor = e,
                None => {
                    new_bytes = true;
                    break;
                }
            }
        }
        if new_bytes {
            // Insert and coalesce.
            let mut s = start;
            let mut e = end;
            // Merge with any overlapping or adjacent ranges.
            let overlapping: Vec<u64> = self
                .ooo
                .range(..=e)
                .filter(|(_, &re)| re >= s)
                .map(|(&rs, _)| rs)
                .collect();
            for rs in overlapping {
                let re = self.ooo.remove(&rs).unwrap();
                s = s.min(rs);
                e = e.max(re);
            }
            self.ooo.insert(s, e);
        }
        // Advance the frontier through any now-contiguous ranges.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.frontier {
                self.frontier = self.frontier.max(e);
                self.ooo.remove(&s);
            } else {
                break;
            }
        }
        new_bytes
    }

    /// Has the specific range `[start, end)` been fully received?
    pub fn contains(&self, start: u64, end: u64) -> bool {
        if end <= self.frontier {
            return true;
        }
        let start = start.max(self.frontier);
        let mut cursor = start;
        while cursor < end {
            match self
                .ooo
                .range(..=cursor)
                .next_back()
                .filter(|(_, &e)| e > cursor)
            {
                Some((_, &e)) => cursor = e,
                None => return false,
            }
        }
        true
    }

    /// Total bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.frontier + self.ooo.iter().map(|(s, e)| e - s).sum::<u64>()
    }

    /// Number of discontiguous ranges held above the frontier.
    pub fn gaps(&self) -> usize {
        self.ooo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut t = ByteTracker::new();
        assert!(t.on_range(0, 1460));
        assert_eq!(t.cum_ack(), 1460);
        assert!(t.on_range(1460, 2920));
        assert_eq!(t.cum_ack(), 2920);
        assert_eq!(t.gaps(), 0);
        assert_eq!(t.bytes_received(), 2920);
    }

    #[test]
    fn out_of_order_holds_frontier() {
        let mut t = ByteTracker::new();
        assert!(t.on_range(1460, 2920));
        assert_eq!(t.cum_ack(), 0);
        assert_eq!(t.gaps(), 1);
        assert!(t.on_range(0, 1460));
        assert_eq!(t.cum_ack(), 2920);
        assert_eq!(t.gaps(), 0);
    }

    #[test]
    fn duplicates_report_false() {
        let mut t = ByteTracker::new();
        assert!(t.on_range(0, 1460));
        assert!(!t.on_range(0, 1460));
        assert!(t.on_range(2920, 4380));
        assert!(!t.on_range(2920, 4380));
        assert_eq!(t.cum_ack(), 1460);
    }

    #[test]
    fn partial_overlap_counts_as_new() {
        let mut t = ByteTracker::new();
        t.on_range(0, 1000);
        assert!(t.on_range(500, 1500)); // 500 new bytes
        assert_eq!(t.cum_ack(), 1500);
    }

    #[test]
    fn merge_across_multiple_ranges() {
        let mut t = ByteTracker::new();
        t.on_range(1000, 2000);
        t.on_range(3000, 4000);
        t.on_range(5000, 6000);
        assert_eq!(t.gaps(), 3);
        // One big range bridging all three.
        assert!(t.on_range(1500, 5500));
        assert_eq!(t.gaps(), 1);
        assert!(t.contains(1000, 6000));
        assert!(!t.contains(0, 6000));
        t.on_range(0, 1000);
        assert_eq!(t.cum_ack(), 6000);
        assert_eq!(t.bytes_received(), 6000);
    }

    #[test]
    fn contains_checks_coverage() {
        let mut t = ByteTracker::new();
        t.on_range(0, 100);
        t.on_range(200, 300);
        assert!(t.contains(0, 100));
        assert!(t.contains(250, 300));
        assert!(!t.contains(100, 200));
        assert!(!t.contains(0, 300));
    }

    #[test]
    fn empty_range_is_noop() {
        let mut t = ByteTracker::new();
        assert!(!t.on_range(100, 100));
        assert_eq!(t.cum_ack(), 0);
        assert_eq!(t.bytes_received(), 0);
    }

    /// [`ByteTracker::on_range`] without its in-order fast path.
    fn on_range_general(t: &mut ByteTracker, start: u64, end: u64) -> bool {
        if start == end || end <= t.frontier {
            return false;
        }
        t.insert(start, end)
    }

    #[test]
    fn fast_path_matches_the_general_path() {
        use netsim::rng::Rng;
        const SEG: u64 = 1460;
        // 0: in order; 1: adjacent segments swapped; 2: in order with
        // duplicates and overlapping retransmissions mixed in.
        for (seed, mode) in (0..96u64).map(|s| (s, s % 3)) {
            let mut rng = Rng::seed_from_u64(0x7ac4 ^ seed);
            let n = rng.gen_range_inclusive(1, 200);
            let mut ranges: Vec<(u64, u64)> = (0..n).map(|i| (i * SEG, (i + 1) * SEG)).collect();
            match mode {
                1 => {
                    for i in 1..ranges.len() {
                        if rng.gen_below(3) == 0 {
                            ranges.swap(i - 1, i);
                        }
                    }
                }
                2 => {
                    for i in (0..ranges.len()).rev() {
                        if rng.gen_below(3) == 0 {
                            let (s, e) = ranges[rng.gen_index(i + 1)];
                            let cut = rng.gen_below(e - s + 1);
                            ranges.insert(i + 1, (s + cut, e + rng.gen_below(2 * SEG)));
                        }
                    }
                }
                _ => {}
            }
            let (mut fast, mut general) = (ByteTracker::new(), ByteTracker::new());
            for (s, e) in ranges {
                let new = fast.on_range(s, e);
                assert_eq!(new, on_range_general(&mut general, s, e), "seed {seed}");
                let state = |t: &ByteTracker| (t.cum_ack(), t.gaps(), t.bytes_received());
                assert_eq!(state(&fast), state(&general), "seed {seed}, {s}..{e}");
            }
        }
    }

    #[test]
    fn adjacent_ranges_coalesce() {
        let mut t = ByteTracker::new();
        t.on_range(1000, 2000);
        t.on_range(2000, 3000);
        assert_eq!(t.gaps(), 1);
        assert!(t.contains(1000, 3000));
    }
}
