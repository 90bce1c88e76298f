//! Single-Source Shortest Paths (unit edge weights, directed).
//!
//! Activity profile per the paper: "in the first iteration only one vertex
//! is active; the number of active vertices first increases and then
//! decreases until no vertex is active anymore".

use crate::engine::VertexProgram;
use crate::placement::DistributedGraph;

pub const UNREACHED: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Sssp {
    pub source: u32,
}

impl Sssp {
    pub fn new(source: u32) -> Self {
        Sssp { source }
    }

    /// Pick a deterministic pseudo-random source with at least one edge.
    /// Falls back to vertex 0 when no draw finds one (a graph with no
    /// vertices has none to draw).
    pub fn with_random_source(dg: &DistributedGraph, seed: u64) -> Self {
        let n = dg.num_vertices();
        let mut rng = ease_graph::hash::SplitMix64::new(seed);
        let draws = if n == 0 { 0 } else { 4 * n.max(16) };
        for _ in 0..draws {
            let v = rng.next_below(n) as u32;
            if dg.total_degree(v) > 0 {
                return Sssp { source: v };
            }
        }
        Sssp { source: 0 }
    }
}

impl VertexProgram for Sssp {
    type State = u32;
    type Acc = u32;

    fn init_state(&self, v: u32, _dg: &DistributedGraph) -> u32 {
        if v == self.source {
            0
        } else {
            UNREACHED
        }
    }

    fn initially_active(&self, v: u32, _dg: &DistributedGraph) -> bool {
        v == self.source
    }

    fn acc_identity(&self) -> u32 {
        UNREACHED
    }

    fn gather(&self, _src: u32, src_state: &u32, _dst: u32, acc: &mut u32, _dg: &DistributedGraph) {
        if *src_state != UNREACHED {
            *acc = (*acc).min(src_state + 1);
        }
    }

    fn combine(&self, into: &mut u32, other: &u32) {
        *into = (*into).min(*other);
    }

    fn apply(
        &self,
        _v: u32,
        old: &u32,
        acc: Option<&u32>,
        _dg: &DistributedGraph,
        _step: usize,
    ) -> (u32, bool) {
        match acc {
            Some(&d) if d < *old => (d, true),
            _ => (*old, false),
        }
    }

    fn state_bytes(&self) -> f64 {
        4.0
    }

    fn max_supersteps(&self) -> usize {
        100_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::engine::run;
    use ease_graph::{Graph, PreparedGraph};
    use ease_partition::{EdgePartition, PartitionerId};
    use std::collections::VecDeque;

    fn reference_bfs(g: &Graph, source: u32) -> Vec<u32> {
        let csr = ease_graph::Csr::build(g, ease_graph::csr::Direction::Out);
        let mut dist = vec![UNREACHED; g.num_vertices()];
        dist[source as usize] = 0;
        let mut q = VecDeque::from([source]);
        while let Some(v) = q.pop_front() {
            for &u in csr.neighbors(v) {
                if dist[u as usize] == UNREACHED {
                    dist[u as usize] = dist[v as usize] + 1;
                    q.push_back(u);
                }
            }
        }
        dist
    }

    #[test]
    fn distances_match_bfs() {
        let g = ease_graphgen::rmat::Rmat::new(ease_graphgen::rmat::RMAT_COMBOS[5], 512, 4_000, 7)
            .generate();
        let pg = PreparedGraph::of(&g);
        let part = PartitionerId::Hdrf.build(1).partition_prepared(&pg, 4);
        let dg = DistributedGraph::build_prepared(&pg, &part);
        let prog = Sssp::with_random_source(&dg, 9);
        let (_, dist) = run(&prog, &dg, &ClusterSpec::new(4));
        let expect = reference_bfs(&g, prog.source);
        assert_eq!(dist, expect);
    }

    #[test]
    fn path_graph_distances() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 3)]);
        let part = EdgePartition::new(2, vec![0, 1, 0]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        let (report, dist) = run(&Sssp::new(0), &dg, &ClusterSpec::new(2));
        assert_eq!(dist, vec![0, 1, 2, 3]);
        // frontier expands one hop per superstep
        assert_eq!(report.supersteps, 4);
        assert_eq!(report.per_superstep[0].active_senders, 1);
    }

    #[test]
    fn random_source_has_edges() {
        let g = Graph::new(100, vec![ease_graph::Edge::new(41, 42), ease_graph::Edge::new(42, 43)]);
        let part = EdgePartition::new(1, vec![0, 0]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        for seed in 0..5 {
            let prog = Sssp::with_random_source(&dg, seed);
            assert!(dg.total_degree(prog.source) > 0, "seed {seed}");
        }
    }
}
