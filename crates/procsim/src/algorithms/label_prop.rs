//! Label Propagation — the computation-bound showcase workload (Sec. III-B).
//!
//! Synchronous LP: each iteration every vertex adopts the most frequent
//! label among its (undirected) neighbors. The per-vertex label-histogram
//! computation is expensive relative to the tiny messages, so the workload
//! is *computation-bound* and its straggler time tracks **vertex balance**
//! rather than replication factor — the key observation of the paper's
//! Fig. 2.

use crate::engine::VertexProgram;
use crate::placement::DistributedGraph;

#[derive(Debug, Clone)]
pub struct LabelPropagation {
    pub iterations: usize,
}

impl LabelPropagation {
    pub fn new(iterations: usize) -> Self {
        LabelPropagation { iterations }
    }
}

/// Small sorted histogram of neighbor labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram(pub Vec<(u32, u32)>);

impl Histogram {
    fn add(&mut self, label: u32, count: u32) {
        match self.0.binary_search_by_key(&label, |&(l, _)| l) {
            Ok(i) => self.0[i].1 += count,
            Err(i) => self.0.insert(i, (label, count)),
        }
    }

    /// Most frequent label; ties break to the smallest label.
    fn argmax(&self) -> Option<u32> {
        self.0.iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0))).map(|&(l, _)| l)
    }
}

impl VertexProgram for LabelPropagation {
    type State = u32;
    type Acc = Histogram;

    fn init_state(&self, v: u32, _dg: &DistributedGraph) -> u32 {
        v
    }

    fn initially_active(&self, _v: u32, _dg: &DistributedGraph) -> bool {
        true
    }

    fn acc_identity(&self) -> Histogram {
        Histogram(Vec::new())
    }

    fn gather(
        &self,
        _src: u32,
        src_state: &u32,
        _dst: u32,
        acc: &mut Histogram,
        _dg: &DistributedGraph,
    ) {
        acc.add(*src_state, 1);
    }

    fn combine(&self, into: &mut Histogram, other: &Histogram) {
        for &(l, c) in &other.0 {
            into.add(l, c);
        }
    }

    fn apply(
        &self,
        _v: u32,
        old: &u32,
        acc: Option<&Histogram>,
        _dg: &DistributedGraph,
        _step: usize,
    ) -> (u32, bool) {
        let new = acc.and_then(Histogram::argmax).unwrap_or(*old);
        (new, true)
    }

    fn apply_to_all(&self) -> bool {
        true
    }

    /// `initially_active` and `apply` answer `true` unconditionally.
    fn stationary(&self) -> bool {
        true
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn state_bytes(&self) -> f64 {
        4.0
    }

    /// Histogram maintenance dominates: high per-replica cost makes the
    /// workload computation-bound (vertex-balance-sensitive).
    fn apply_cost(&self) -> f64 {
        12.0
    }

    fn edge_cost(&self) -> f64 {
        1.5
    }

    fn max_supersteps(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::engine::run;
    use ease_graph::{Graph, PreparedGraph};
    use ease_partition::EdgePartition;

    #[test]
    fn histogram_argmax_with_tie_break() {
        let mut h = Histogram(Vec::new());
        h.add(5, 2);
        h.add(3, 2);
        h.add(9, 1);
        assert_eq!(h.argmax(), Some(3)); // tie 5 vs 3 -> smaller label
        h.add(5, 1);
        assert_eq!(h.argmax(), Some(5));
    }

    #[test]
    fn clique_converges_to_one_label() {
        // two 4-cliques joined by a single bridge edge
        let mut pairs = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                pairs.push((a, b));
                pairs.push((a + 4, b + 4));
            }
        }
        pairs.push((0, 4));
        let g = Graph::from_pairs(pairs);
        let part = EdgePartition::new(2, vec![0; 13]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        let (_, labels) = run(&LabelPropagation::new(10), &dg, &ClusterSpec::new(2));
        // within each clique, labels agree
        assert!(labels[1] == labels[2] && labels[2] == labels[3], "{labels:?}");
        assert!(labels[5] == labels[6] && labels[6] == labels[7], "{labels:?}");
    }

    #[test]
    fn worse_vertex_balance_costs_more_compute_time() {
        // Disjoint-edge matching: every edge brings two unique vertices, so
        // the machine hosting more edges also hosts proportionally more
        // vertex replicas. A vertex-skewed placement must straggle.
        let n = 2_000u32;
        let g = Graph::from_pairs((0..n / 2).map(|i| (2 * i, 2 * i + 1)));
        let pg = PreparedGraph::of(&g);
        let m = g.num_edges();
        let balanced: Vec<u16> = (0..m).map(|i| (i % 4) as u16).collect();
        // skewed: 3/4 of the matching (and its vertices) on machine 0
        let skewed: Vec<u16> =
            (0..m).map(|i| if i % 4 != 0 { 0 } else { (i % 3 + 1) as u16 }).collect();
        let cluster = ClusterSpec::new(4);
        let dgb = DistributedGraph::build_prepared(&pg, &EdgePartition::new(4, balanced));
        let dgs = DistributedGraph::build_prepared(&pg, &EdgePartition::new(4, skewed));
        let (rb, _) = run(&LabelPropagation::new(5), &dgb, &cluster);
        let (rs, _) = run(&LabelPropagation::new(5), &dgs, &cluster);
        let cb: f64 = rb.per_superstep.iter().map(|s| s.compute_secs).sum();
        let cs: f64 = rs.per_superstep.iter().map(|s| s.compute_secs).sum();
        assert!(cs > 2.0 * cb, "skewed {cs} vs balanced {cb}");
    }

    #[test]
    fn lp_is_computation_bound() {
        // The paper picks LP as the computation-bound workload: per-replica
        // histogram work dominates its tiny 4-byte messages.
        let g = ease_graphgen::rmat::Rmat::new(ease_graphgen::rmat::RMAT_COMBOS[2], 512, 4_000, 3)
            .generate();
        let pg = PreparedGraph::of(&g);
        let part = ease_partition::PartitionerId::Hdrf.build(1).partition_prepared(&pg, 4);
        let dg = DistributedGraph::build_prepared(&pg, &part);
        let (r, _) = run(&LabelPropagation::new(5), &dg, &ClusterSpec::new(4));
        let compute: f64 = r.per_superstep.iter().map(|s| s.compute_secs).sum();
        let network: f64 = r.per_superstep.iter().map(|s| s.network_secs).sum();
        assert!(compute > network, "compute {compute} vs network {network}");
    }
}
