//! PageRank — the canonical communication-bound workload.
//!
//! Every vertex is active in every iteration (paper Sec. V-C: "In PageRank,
//! all vertices are active in each iteration"), so the broadcast volume is
//! proportional to the replication factor — which is why RF predicts
//! PageRank run-time so well (Sec. III-A).

use crate::engine::VertexProgram;
use crate::placement::DistributedGraph;

#[derive(Debug, Clone)]
pub struct PageRank {
    pub iterations: usize,
    pub damping: f64,
}

impl PageRank {
    pub fn new(iterations: usize) -> Self {
        PageRank { iterations, damping: 0.85 }
    }
}

impl VertexProgram for PageRank {
    type State = f64;
    type Acc = f64;

    fn init_state(&self, _v: u32, dg: &DistributedGraph) -> f64 {
        1.0 / dg.num_vertices().max(1) as f64
    }

    fn initially_active(&self, _v: u32, _dg: &DistributedGraph) -> bool {
        true
    }

    fn acc_identity(&self) -> f64 {
        0.0
    }

    fn gather(&self, src: u32, src_state: &f64, _dst: u32, acc: &mut f64, dg: &DistributedGraph) {
        let out = dg.out_degree(src);
        if out > 0 {
            *acc += *src_state / f64::from(out);
        }
    }

    fn combine(&self, into: &mut f64, other: &f64) {
        *into += *other;
    }

    fn apply(
        &self,
        _v: u32,
        _old: &f64,
        acc: Option<&f64>,
        dg: &DistributedGraph,
        _step: usize,
    ) -> (f64, bool) {
        let n = dg.num_vertices().max(1) as f64;
        let sum = acc.copied().unwrap_or(0.0);
        ((1.0 - self.damping) / n + self.damping * sum, true)
    }

    fn apply_to_all(&self) -> bool {
        true
    }

    /// `initially_active` and `apply` answer `true` unconditionally.
    fn stationary(&self) -> bool {
        true
    }

    fn state_bytes(&self) -> f64 {
        8.0
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
    use ease_partition::{EdgePartition, PartitionerId};

    fn reference_pagerank(g: &Graph, iters: usize, d: f64) -> Vec<f64> {
        let n = g.num_vertices();
        let out = g.out_degrees();
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..iters {
            let mut next = vec![(1.0 - d) / n as f64; n];
            for e in g.edges() {
                if out[e.src as usize] > 0 {
                    next[e.dst as usize] +=
                        d * rank[e.src as usize] / f64::from(out[e.src as usize]);
                }
            }
            rank = next;
        }
        rank
    }

    #[test]
    fn matches_single_machine_reference() {
        let g = ease_graphgen::rmat::Rmat::new(ease_graphgen::rmat::RMAT_COMBOS[0], 256, 2_000, 1)
            .generate();
        let pg = PreparedGraph::of(&g);
        let part = PartitionerId::Hdrf.build(3).partition_prepared(&pg, 4);
        let dg = DistributedGraph::build_prepared(&pg, &part);
        let (_, ranks) = run(&PageRank::new(10), &dg, &ClusterSpec::new(4));
        let expect = reference_pagerank(&g, 10, 0.85);
        let degrees = g.total_degrees();
        for v in 0..g.num_vertices() {
            // isolated vertices never enter the engine; they keep init state
            if degrees[v] == 0 {
                continue;
            }
            assert!((ranks[v] - expect[v]).abs() < 1e-9, "v={v}: {} vs {}", ranks[v], expect[v]);
        }
    }

    #[test]
    fn rank_mass_is_bounded() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (0, 2)]);
        let part = EdgePartition::new(2, vec![0, 0, 1, 1]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        let (_, ranks) = run(&PageRank::new(20), &dg, &ClusterSpec::new(2));
        let total: f64 = ranks.iter().sum();
        assert!(total > 0.5 && total <= 1.0 + 1e-9, "total={total}");
        assert!(ranks.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn runs_exactly_requested_iterations() {
        let g = Graph::from_pairs([(0, 1), (1, 0)]);
        let part = EdgePartition::new(1, vec![0, 0]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        let (report, _) = run(&PageRank::new(7), &dg, &ClusterSpec::new(1));
        assert_eq!(report.supersteps, 7);
    }

    #[test]
    fn lower_replication_means_less_traffic() {
        let g = ease_graphgen::community::CommunityGraph::new(1_000, 8_000, 0.05, 3).generate();
        let pg = PreparedGraph::of(&g);
        let k = 8;
        let good = PartitionerId::Ne.build(1).partition_prepared(&pg, k);
        let bad = PartitionerId::Crvc.build(1).partition_prepared(&pg, k);
        let dg_good = DistributedGraph::build_prepared(&pg, &good);
        let dg_bad = DistributedGraph::build_prepared(&pg, &bad);
        let cluster = ClusterSpec::new(k);
        let (rep_good, _) = run(&PageRank::new(5), &dg_good, &cluster);
        let (rep_bad, _) = run(&PageRank::new(5), &dg_bad, &cluster);
        assert!(
            rep_good.total_comm_bytes < rep_bad.total_comm_bytes,
            "good {} vs bad {}",
            rep_good.total_comm_bytes,
            rep_bad.total_comm_bytes
        );
        assert!(rep_good.total_secs < rep_bad.total_secs);
    }
}
