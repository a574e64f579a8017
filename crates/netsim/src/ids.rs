//! Strongly-typed identifiers for simulation entities.
//!
//! All identifiers are dense indices into the simulator's internal vectors,
//! wrapped in newtypes so a node index can never be confused with a flow
//! index at a call site.

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};

use crate::rng::mix64;

/// Identifies a node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies one of a node's output ports (dense per-node index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

/// Identifies a flow. Flow ids are globally unique and dense, assigned by
/// the workload generator in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl NodeId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PortId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FlowId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Deterministic, allocation-free hasher for the dense numeric ids above
/// (splitmix64 finalizer per integer write). `std`'s default SipHash buys
/// HashDoS resistance the simulator doesn't need and seeds itself
/// randomly per process; this keeps id-keyed map lookups on the hot path
/// cheap and their behaviour identical across runs and platforms. Only
/// for id keys — not a general-purpose string hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// `BuildHasher` for [`IdHasher`], for use as a `HashMap` type parameter.
pub type IdHashBuilder = BuildHasherDefault<IdHasher>;

impl IdHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer fragments (derived Hash on structs may
        // route discriminants here): fold 8-byte chunks through the mixer.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(NodeId(1) < NodeId(2));
        assert!(FlowId(10) > FlowId(9));
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{}", PortId(1)), "p1");
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(PortId(2).index(), 2);
        assert_eq!(FlowId(42).index(), 42);
    }

    #[test]
    fn id_hasher_is_deterministic_and_spreads() {
        use core::hash::BuildHasher;
        let build = IdHashBuilder::default();
        let hash_of = |id: FlowId| build.hash_one(id);
        assert_eq!(hash_of(FlowId(7)), hash_of(FlowId(7)));
        assert_ne!(hash_of(FlowId(7)), hash_of(FlowId(8)));
        // Dense consecutive ids must not collide in the low bits the
        // table actually indexes with.
        let low: std::collections::BTreeSet<u64> =
            (0..64).map(|i| hash_of(FlowId(i)) % 64).collect();
        assert!(
            low.len() > 32,
            "only {} distinct low-bit buckets",
            low.len()
        );
    }
}
