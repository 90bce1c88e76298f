//! Partitioning quality metrics (paper Sec. II-A).
//!
//! * replication factor `RF(P) = (1/|V|) Σ_i |V(p_i)|`
//! * edge balance `max|p_i| / avg|p_i|`
//! * vertex balance `max|V(p_i)| / avg|V(p_i)|`
//! * source balance `max|V_src(p_i)| / avg|V_src(p_i)|`
//! * destination balance `max|V_dst(p_i)| / avg|V_dst(p_i)|`
//!
//! `|V|` counts vertices covered by at least one edge — generated graphs can
//! contain isolated ids (R-MAT with |V| ≫ |E|) which no partitioner ever
//! sees; counting them would push RF below 1 and distort every comparison.
//!
//! Vertex cover sets are two per-partition bitset families, one for the
//! sources and one for the destinations: `2 × k ≤ 256` bitsets of |V| bits
//! is at most a few MB, filled in one pass over the edges that does three
//! read-modify-writes per edge (edge count, source bit, destination bit).
//! A partition's covered set is the word-wise union of its two bitsets, and
//! the used vertices are the union of those over all partitions — both are
//! popcounts after the pass, not bits set per edge.

use crate::assignment::EdgePartition;
use ease_graph::PreparedGraph;

/// The five quality metrics predicted by EASE's
/// PartitioningQualityPredictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityMetrics {
    pub replication_factor: f64,
    pub edge_balance: f64,
    pub vertex_balance: f64,
    pub source_balance: f64,
    pub dest_balance: f64,
}

/// Identifies one of the five prediction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QualityTarget {
    ReplicationFactor,
    EdgeBalance,
    VertexBalance,
    SourceBalance,
    DestBalance,
}

impl QualityTarget {
    pub const ALL: [QualityTarget; 5] = [
        QualityTarget::ReplicationFactor,
        QualityTarget::EdgeBalance,
        QualityTarget::VertexBalance,
        QualityTarget::SourceBalance,
        QualityTarget::DestBalance,
    ];

    pub fn name(self) -> &'static str {
        match self {
            QualityTarget::ReplicationFactor => "replication_factor",
            QualityTarget::EdgeBalance => "edge_balance",
            QualityTarget::VertexBalance => "vertex_balance",
            QualityTarget::SourceBalance => "source_balance",
            QualityTarget::DestBalance => "dest_balance",
        }
    }
}

impl QualityMetrics {
    /// Compute all five metrics in a single edge pass plus bitset popcounts,
    /// over a shared analysis context — works for any ingestion backend
    /// (in-memory, mmap `.bel`, streamed text): the pass replays the
    /// context's edge stream, never a slice.
    pub fn compute_prepared(prepared: &PreparedGraph<'_>, partition: &EdgePartition) -> Self {
        assert_eq!(prepared.num_edges(), partition.num_edges());
        let k = partition.num_partitions();
        let n = prepared.num_vertices();
        // at least one word, so an empty vertex set still chunks
        let words = n.div_ceil(64).max(1);
        // two bitset families: covered-as-source, covered-as-dest; one
        // partition's covered set is their union, word by word
        let mut cover_src = vec![0u64; k * words];
        let mut cover_dst = vec![0u64; k * words];
        let mut edge_counts = vec![0usize; k];
        prepared.for_each_edge_indexed(|i, e| {
            let p = partition.partition_of(i);
            edge_counts[p] += 1;
            let (s, d) = (e.src as usize, e.dst as usize);
            let base = p * words;
            cover_src[base + s / 64] |= 1 << (s % 64);
            cover_dst[base + d / 64] |= 1 << (d % 64);
        });
        // the used vertices are the union of every partition's covered set
        let mut used = vec![0u64; words];
        let mut v_counts = vec![0usize; k];
        let mut s_counts = vec![0usize; k];
        let mut d_counts = vec![0usize; k];
        let families = cover_src.chunks_exact(words).zip(cover_dst.chunks_exact(words));
        for (p, (src, dst)) in families.enumerate() {
            for ((u, &s), &d) in used.iter_mut().zip(src).zip(dst) {
                let covered = s | d;
                *u |= covered;
                v_counts[p] += covered.count_ones() as usize;
                s_counts[p] += s.count_ones() as usize;
                d_counts[p] += d.count_ones() as usize;
            }
        }
        let used_vertices: usize = used.iter().map(|w| w.count_ones() as usize).sum();
        let total_cover: usize = v_counts.iter().sum();
        let replication_factor =
            if used_vertices > 0 { total_cover as f64 / used_vertices as f64 } else { 1.0 };
        QualityMetrics {
            replication_factor,
            edge_balance: balance(&edge_counts),
            vertex_balance: balance(&v_counts),
            source_balance: balance(&s_counts),
            dest_balance: balance(&d_counts),
        }
    }

    /// Extract one metric by target id.
    pub fn get(&self, target: QualityTarget) -> f64 {
        match target {
            QualityTarget::ReplicationFactor => self.replication_factor,
            QualityTarget::EdgeBalance => self.edge_balance,
            QualityTarget::VertexBalance => self.vertex_balance,
            QualityTarget::SourceBalance => self.source_balance,
            QualityTarget::DestBalance => self.dest_balance,
        }
    }

    /// Metric values in [`QualityTarget::ALL`] order (ML feature rows).
    pub fn as_vector(&self) -> [f64; 5] {
        [
            self.replication_factor,
            self.edge_balance,
            self.vertex_balance,
            self.source_balance,
            self.dest_balance,
        ]
    }
}

/// `max / avg` of a count vector; 1.0 when everything is zero.
fn balance(counts: &[usize]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let sum: usize = counts.iter().sum();
    if sum == 0 {
        return 1.0;
    }
    let avg = sum as f64 / counts.len() as f64;
    max / avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::Graph;

    /// Triangle split across 2 partitions: edges (0,1)|(1,2) in p0, (2,0) p1.
    /// V(p0)={0,1,2}, V(p1)={0,2} -> RF = 5/3.
    #[test]
    fn replication_factor_hand_computed() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let p = EdgePartition::new(2, vec![0, 0, 1]);
        let m = QualityMetrics::compute_prepared(&PreparedGraph::of(&g), &p);
        assert!((m.replication_factor - 5.0 / 3.0).abs() < 1e-12);
        // edges: [2,1] -> max 2 / avg 1.5
        assert!((m.edge_balance - 2.0 / 1.5).abs() < 1e-12);
        // V counts [3,2] -> 3/2.5
        assert!((m.vertex_balance - 3.0 / 2.5).abs() < 1e-12);
        // src sets: p0 {0,1}, p1 {2} -> [2,1] -> 2/1.5
        assert!((m.source_balance - 2.0 / 1.5).abs() < 1e-12);
        // dst sets: p0 {1,2}, p1 {0} -> 2/1.5
        assert!((m.dest_balance - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_partition_is_ideal() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 3)]);
        let p = EdgePartition::new(1, vec![0, 0, 0]);
        let m = QualityMetrics::compute_prepared(&PreparedGraph::of(&g), &p);
        assert_eq!(m.replication_factor, 1.0);
        assert_eq!(m.edge_balance, 1.0);
        assert_eq!(m.vertex_balance, 1.0);
    }

    #[test]
    fn isolated_vertices_do_not_deflate_rf() {
        // 10 vertices but only an edge between 0 and 1.
        let g = Graph::new(10, vec![ease_graph::Edge::new(0, 1)]);
        let p = EdgePartition::new(2, vec![0]);
        let m = QualityMetrics::compute_prepared(&PreparedGraph::of(&g), &p);
        assert_eq!(m.replication_factor, 1.0);
    }

    #[test]
    fn worst_case_replication() {
        // Star around 0 with k=4, one edge per partition: hub replicated 4x.
        let g = Graph::from_pairs([(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = EdgePartition::new(4, vec![0, 1, 2, 3]);
        let m = QualityMetrics::compute_prepared(&PreparedGraph::of(&g), &p);
        // covers: each partition {0, leaf} -> total 8 over 5 used vertices
        assert!((m.replication_factor - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(m.edge_balance, 1.0);
    }

    #[test]
    fn get_matches_fields() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let p = EdgePartition::new(2, vec![0, 1, 0]);
        let m = QualityMetrics::compute_prepared(&PreparedGraph::of(&g), &p);
        for t in QualityTarget::ALL {
            assert!(m.get(t) >= 1.0 - 1e-12, "{t:?}");
        }
        assert_eq!(m.get(QualityTarget::ReplicationFactor), m.replication_factor);
        assert_eq!(m.as_vector()[0], m.replication_factor);
    }

    #[test]
    fn metric_names_unique() {
        let names: std::collections::HashSet<_> =
            QualityTarget::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
