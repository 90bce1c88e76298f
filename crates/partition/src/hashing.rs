//! Stateless streaming hash partitioners: 1DD, 1DS, 2D, CRVC, DBH.
//!
//! These assign each edge independently with one hash evaluation, which
//! makes them the fastest partitioners (a single pass, no state) at the cost
//! of high replication factors. 2D bounds the replication factor by
//! `2·√k − 1`; DBH cuts high-degree vertices preferentially, exploiting the
//! power-law structure of real graphs (Xie et al., NIPS 2014).

use crate::assignment::EdgePartition;
use crate::{Partitioner, PartitionerId};
use ease_graph::hash::{bucket, hash_pair, hash_vertex};
use ease_graph::PreparedGraph;

/// Which endpoint a 1-dimensional hash partitioner keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndPoint {
    Source,
    Destination,
}

/// 1DS / 1DD: hash one endpoint of the edge (GraphX `EdgePartition1D`).
/// All edges of a source (resp. destination) vertex land together, so the
/// hashed side is never replicated; the other side replicates freely.
#[derive(Debug, Clone)]
pub struct OneD {
    endpoint: EndPoint,
    seed: u64,
}

impl OneD {
    pub fn source(seed: u64) -> Self {
        OneD { endpoint: EndPoint::Source, seed }
    }

    pub fn destination(seed: u64) -> Self {
        OneD { endpoint: EndPoint::Destination, seed }
    }
}

impl Partitioner for OneD {
    fn id(&self) -> PartitionerId {
        match self.endpoint {
            EndPoint::Source => PartitionerId::OneDS,
            EndPoint::Destination => PartitionerId::OneDD,
        }
    }

    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition {
        let mut assignment = Vec::with_capacity(prepared.num_edges());
        prepared.for_each_edge(|e| {
            let key = match self.endpoint {
                EndPoint::Source => e.src,
                EndPoint::Destination => e.dst,
            };
            assignment.push(bucket(hash_vertex(key, self.seed), k) as u16);
        });
        EdgePartition::new(k, assignment)
    }
}

/// 2D grid partitioning (GraphX `EdgePartition2D`): source hashes pick the
/// grid column, destination hashes the row, bounding each vertex's replicas
/// by one row plus one column (`2√k − 1`).
#[derive(Debug, Clone)]
pub struct TwoD {
    seed: u64,
}

impl TwoD {
    pub fn new(seed: u64) -> Self {
        TwoD { seed }
    }
}

impl Partitioner for TwoD {
    fn id(&self) -> PartitionerId {
        PartitionerId::TwoD
    }

    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition {
        let side = (k as f64).sqrt().ceil() as usize;
        let mut assignment = Vec::with_capacity(prepared.num_edges());
        prepared.for_each_edge(|e| {
            let col = bucket(hash_vertex(e.src, self.seed), side);
            let row = bucket(hash_vertex(e.dst, self.seed ^ 0xABCD_EF01), side);
            assignment.push(((col * side + row) % k) as u16);
        });
        EdgePartition::new(k, assignment)
    }
}

/// CRVC — canonical random vertex cut (GraphX `CanonicalRandomVertexCut`):
/// hash the *unordered* endpoint pair, so reciprocal edges `(u,v)` and
/// `(v,u)` colocate.
#[derive(Debug, Clone)]
pub struct Crvc {
    seed: u64,
}

impl Crvc {
    pub fn new(seed: u64) -> Self {
        Crvc { seed }
    }
}

impl Partitioner for Crvc {
    fn id(&self) -> PartitionerId {
        PartitionerId::Crvc
    }

    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition {
        let mut assignment = Vec::with_capacity(prepared.num_edges());
        prepared.for_each_edge(|e| {
            let (a, b) = e.canonical();
            assignment.push(bucket(hash_pair(a, b, self.seed), k) as u16);
        });
        EdgePartition::new(k, assignment)
    }
}

/// DBH — degree-based hashing (Xie et al., NIPS 2014): hash the endpoint
/// with the *lower* degree, cutting hubs instead of the long tail. The
/// degree pre-pass of the reference implementation comes from the shared
/// [`PreparedGraph`] degree table, so repeated DBH runs on one graph (the
/// profiling cross-product) derive degrees only once.
#[derive(Debug, Clone)]
pub struct Dbh {
    seed: u64,
}

impl Dbh {
    pub fn new(seed: u64) -> Self {
        Dbh { seed }
    }
}

impl Partitioner for Dbh {
    fn id(&self) -> PartitionerId {
        PartitionerId::Dbh
    }

    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition {
        let degrees = &prepared.degrees().total;
        let mut assignment = Vec::with_capacity(prepared.num_edges());
        prepared.for_each_edge(|e| {
            let (ds, dd) = (degrees[e.src as usize], degrees[e.dst as usize]);
            let key = if ds <= dd { e.src } else { e.dst };
            assignment.push(bucket(hash_vertex(key, self.seed), k) as u16);
        });
        EdgePartition::new(k, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QualityMetrics;
    use ease_graph::Graph;

    fn star_plus_ring(n: u32) -> Graph {
        // hub 0 connected to all, plus a ring over 1..n
        let mut pairs: Vec<(u32, u32)> = (1..n).map(|i| (0, i)).collect();
        for i in 1..n {
            pairs.push((i, if i + 1 < n { i + 1 } else { 1 }));
        }
        Graph::from_pairs(pairs)
    }

    #[test]
    fn one_dd_never_replicates_destinations() {
        let g = star_plus_ring(64);
        let p = OneD::destination(7).partition_prepared(&PreparedGraph::of(&g), 8);
        // every destination vertex appears in exactly one partition
        let mut seen: std::collections::HashMap<u32, usize> = Default::default();
        for (i, e) in g.edges().iter().enumerate() {
            let part = p.partition_of(i);
            let prev = seen.insert(e.dst, part);
            if let Some(prev) = prev {
                assert_eq!(prev, part, "dst {} split", e.dst);
            }
        }
    }

    #[test]
    fn one_ds_never_replicates_sources() {
        let g = star_plus_ring(64);
        let p = OneD::source(7).partition_prepared(&PreparedGraph::of(&g), 8);
        let mut seen: std::collections::HashMap<u32, usize> = Default::default();
        for (i, e) in g.edges().iter().enumerate() {
            let part = p.partition_of(i);
            if let Some(prev) = seen.insert(e.src, part) {
                assert_eq!(prev, part);
            }
        }
    }

    #[test]
    fn two_d_bounds_replication_by_grid() {
        let g = star_plus_ring(256);
        let k = 16;
        let p = TwoD::new(3).partition_prepared(&PreparedGraph::of(&g), k);
        // every vertex appears in at most 2*sqrt(k)-1 partitions
        let bound = 2 * (k as f64).sqrt().ceil() as usize - 1;
        let mut parts: std::collections::HashMap<u32, std::collections::HashSet<usize>> =
            Default::default();
        for (i, e) in g.edges().iter().enumerate() {
            parts.entry(e.src).or_default().insert(p.partition_of(i));
            parts.entry(e.dst).or_default().insert(p.partition_of(i));
        }
        for (v, set) in parts {
            assert!(set.len() <= bound, "vertex {v} in {} parts (bound {bound})", set.len());
        }
    }

    #[test]
    fn crvc_colocates_reciprocal_edges() {
        let g = PreparedGraph::new(Graph::from_pairs([(3, 9), (9, 3), (4, 5), (5, 4)]));
        let p = Crvc::new(11).partition_prepared(&g, 8);
        assert_eq!(p.partition_of(0), p.partition_of(1));
        assert_eq!(p.partition_of(2), p.partition_of(3));
    }

    #[test]
    fn dbh_cuts_the_hub_not_the_leaves() {
        let g = PreparedGraph::new(star_plus_ring(128));
        let p = Dbh::new(5).partition_prepared(&g, 8);
        // leaves (low degree) should not be replicated: each leaf's star edge
        // is hashed by the leaf itself.
        let m = QualityMetrics::compute_prepared(&g, &p);
        let m_1dd =
            QualityMetrics::compute_prepared(&g, &OneD::destination(5).partition_prepared(&g, 8));
        // DBH must beat destination hashing on a hub-dominated graph.
        assert!(
            m.replication_factor <= m_1dd.replication_factor + 1e-9,
            "dbh {} vs 1dd {}",
            m.replication_factor,
            m_1dd.replication_factor
        );
    }

    #[test]
    fn all_stateless_partitioners_assign_in_range() {
        let g = PreparedGraph::new(star_plus_ring(50));
        for id in [
            PartitionerId::OneDD,
            PartitionerId::OneDS,
            PartitionerId::TwoD,
            PartitionerId::Crvc,
            PartitionerId::Dbh,
        ] {
            for k in [1, 2, 3, 7, 64, 128] {
                let p = id.build(9).partition_prepared(&g, k);
                assert_eq!(p.num_edges(), g.num_edges());
                assert!(p.assignment().iter().all(|&x| (x as usize) < k), "{id:?} k={k}");
            }
        }
    }

    #[test]
    fn stateless_partitioners_are_deterministic() {
        let g = PreparedGraph::new(star_plus_ring(40));
        for id in [PartitionerId::TwoD, PartitionerId::Crvc, PartitionerId::Dbh] {
            let a = id.build(42).partition_prepared(&g, 8);
            let b = id.build(42).partition_prepared(&g, 8);
            assert_eq!(a, b, "{id:?}");
            let c = id.build(43).partition_prepared(&g, 8);
            // different seed should (almost surely) differ
            assert_ne!(a, c, "{id:?}");
        }
    }
}
