//! K-Cores by iterative peeling.
//!
//! A vertex is outside the k-core if its (undirected) degree among surviving
//! vertices drops below `k`; removals cascade. The paper runs K-Cores with
//! `k = deg(G)` (the mean degree) and characterizes the workload as "many
//! vertices active in the first iteration, becoming inactive over time".
//!
//! Final state: `removed == false` ⟺ the vertex belongs to the k-core.

use crate::engine::VertexProgram;
use crate::placement::DistributedGraph;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreState {
    pub degree: u32,
    pub removed: bool,
}

#[derive(Debug, Clone)]
pub struct KCores {
    pub k: u32,
}

impl KCores {
    pub fn new(k: u32) -> Self {
        KCores { k }
    }

    /// Paper configuration: `k = ⌈mean degree⌉` (0 on a graph with no
    /// vertices, which has no mean).
    pub fn with_mean_degree(dg: &DistributedGraph) -> Self {
        let n = dg.num_vertices();
        let total: u64 = (0..n as u32).map(|v| u64::from(dg.total_degree(v))).sum();
        KCores { k: (total as f64 / n.max(1) as f64).ceil() as u32 }
    }
}

impl VertexProgram for KCores {
    type State = CoreState;
    type Acc = u32;

    fn init_state(&self, v: u32, dg: &DistributedGraph) -> CoreState {
        CoreState { degree: dg.total_degree(v), removed: false }
    }

    fn initially_active(&self, _v: u32, _dg: &DistributedGraph) -> bool {
        // bootstrap round: every vertex checks its own degree
        true
    }

    fn acc_identity(&self) -> u32 {
        0
    }

    fn gather(
        &self,
        _src: u32,
        src_state: &CoreState,
        _dst: u32,
        acc: &mut u32,
        _dg: &DistributedGraph,
    ) {
        // active senders that have been removed notify their neighbors
        if src_state.removed {
            *acc += 1;
        }
    }

    fn combine(&self, into: &mut u32, other: &u32) {
        *into += *other;
    }

    fn apply(
        &self,
        _v: u32,
        old: &CoreState,
        acc: Option<&u32>,
        _dg: &DistributedGraph,
        _step: usize,
    ) -> (CoreState, bool) {
        if old.removed {
            return (*old, false);
        }
        let degree = old.degree.saturating_sub(acc.copied().unwrap_or(0));
        if degree < self.k {
            // removed this round: stay active one round to notify neighbors
            (CoreState { degree, removed: true }, true)
        } else {
            (CoreState { degree, removed: false }, false)
        }
    }

    fn apply_to_all(&self) -> bool {
        true
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn state_bytes(&self) -> f64 {
        5.0
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

    /// Single-machine reference peeling on the undirected multigraph.
    fn reference_core(g: &Graph, k: u32) -> Vec<bool> {
        let mut degree = g.total_degrees();
        let n = g.num_vertices();
        let mut removed = vec![false; n];
        loop {
            let mut change = false;
            for v in 0..n {
                if !removed[v] && degree[v] < k {
                    removed[v] = true;
                    change = true;
                    for e in g.edges() {
                        if e.src as usize == v && !removed[e.dst as usize] {
                            degree[e.dst as usize] -= 1;
                        }
                        if e.dst as usize == v && !removed[e.src as usize] {
                            degree[e.src as usize] -= 1;
                        }
                    }
                }
            }
            if !change {
                return removed.iter().map(|&r| !r).collect();
            }
        }
    }

    #[test]
    fn triangle_with_tail() {
        // triangle {0,1,2} is a 2-core; the tail 2-3 is not
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let part = EdgePartition::new(2, vec![0, 1, 0, 1]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        let (_, states) = run(&KCores::new(2), &dg, &ClusterSpec::new(2));
        assert!(!states[0].removed && !states[1].removed && !states[2].removed);
        assert!(states[3].removed);
    }

    #[test]
    fn cascade_matches_reference() {
        let g = ease_graphgen::rmat::Rmat::new(ease_graphgen::rmat::RMAT_COMBOS[3], 256, 1_500, 3)
            .generate();
        let pg = PreparedGraph::of(&g);
        let part = PartitionerId::Dbh.partition(&pg, 4, 1);
        let dg = DistributedGraph::build_prepared(&pg, &part);
        let prog = KCores::with_mean_degree(&dg);
        let (_, states) = run(&prog, &dg, &ClusterSpec::new(4));
        let expect = reference_core(&g, prog.k);
        for v in 0..g.num_vertices() {
            if g.total_degrees()[v] == 0 {
                continue;
            }
            assert_eq!(!states[v].removed, expect[v], "vertex {v} (k={})", prog.k);
        }
    }

    #[test]
    fn mean_degree_k_is_positive() {
        let g = Graph::from_pairs([(0, 1), (1, 2)]);
        let part = EdgePartition::new(1, vec![0, 0]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        assert!(KCores::with_mean_degree(&dg).k >= 1);
    }
}
