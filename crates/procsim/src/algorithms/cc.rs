//! Connected Components via HashMin label propagation.
//!
//! Undirected semantics: labels flow both ways along every edge. All
//! vertices start active and the active set shrinks over time (the paper
//! uses exactly this activity profile to characterize the workload).

use crate::engine::VertexProgram;
use crate::placement::DistributedGraph;

#[derive(Debug, Clone, Default)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type State = u32;
    type Acc = u32;

    fn init_state(&self, v: u32, _dg: &DistributedGraph) -> u32 {
        v
    }

    fn initially_active(&self, _v: u32, _dg: &DistributedGraph) -> bool {
        true
    }

    fn acc_identity(&self) -> u32 {
        u32::MAX
    }

    fn gather(&self, _src: u32, src_state: &u32, _dst: u32, acc: &mut u32, _dg: &DistributedGraph) {
        *acc = (*acc).min(*src_state);
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
            Some(&m) if m < *old => (m, true),
            _ => (*old, false),
        }
    }

    fn symmetric(&self) -> bool {
        true
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

    fn reference_components(g: &Graph) -> Vec<u32> {
        // simple union-find
        let mut parent: Vec<u32> = (0..g.num_vertices() as u32).collect();
        fn find(parent: &mut [u32], v: u32) -> u32 {
            let mut r = v;
            while parent[r as usize] != r {
                r = parent[r as usize];
            }
            let mut c = v;
            while parent[c as usize] != r {
                let n = parent[c as usize];
                parent[c as usize] = r;
                c = n;
            }
            r
        }
        for e in g.edges() {
            let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
            if a != b {
                parent[a.max(b) as usize] = a.min(b);
            }
        }
        // component id = min vertex in component
        (0..g.num_vertices() as u32).map(|v| find(&mut parent, v)).collect()
    }

    #[test]
    fn labels_match_union_find() {
        let g = ease_graphgen::erdos_renyi::ErdosRenyi::new(300, 400, 5).generate();
        let pg = PreparedGraph::of(&g);
        let part = PartitionerId::TwoD.build(1).partition_prepared(&pg, 4);
        let dg = DistributedGraph::build_prepared(&pg, &part);
        let (_, labels) = run(&ConnectedComponents, &dg, &ClusterSpec::new(4));
        let expect = reference_components(&g);
        for v in 0..g.num_vertices() {
            // isolated vertices are not touched by the engine; skip them
            if g.total_degrees()[v] == 0 {
                continue;
            }
            assert_eq!(labels[v], expect[v], "vertex {v}");
        }
    }

    #[test]
    fn two_disjoint_triangles() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let part = EdgePartition::new(2, vec![0, 1, 0, 1, 0, 1]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &part);
        let (_, labels) = run(&ConnectedComponents, &dg, &ClusterSpec::new(2));
        assert_eq!(&labels[..3], &[0, 0, 0]);
        assert_eq!(&labels[3..], &[3, 3, 3]);
    }

    #[test]
    fn active_set_shrinks_over_time() {
        let g = ease_graphgen::watts_strogatz::WattsStrogatz::new(400, 4, 0.05, 2).generate();
        let pg = PreparedGraph::of(&g);
        let part = PartitionerId::Dbh.build(1).partition_prepared(&pg, 4);
        let dg = DistributedGraph::build_prepared(&pg, &part);
        let (report, _) = run(&ConnectedComponents, &dg, &ClusterSpec::new(4));
        assert!(report.supersteps > 2);
        let first = report.per_superstep.first().unwrap().active_senders;
        let last = report.per_superstep.last().unwrap().active_senders;
        assert!(first > last, "first {first} last {last}");
    }
}
