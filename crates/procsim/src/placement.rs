//! Placement of an edge-partitioned graph onto simulated machines.

use ease_graph::{Edge, PreparedGraph};
use ease_partition::EdgePartition;

/// One machine's slice of the graph.
#[derive(Debug, Clone)]
pub struct PartitionData {
    /// Local edges (global vertex ids).
    pub edges: Vec<Edge>,
    /// Sorted global ids of vertices covered by this partition.
    pub vertices: Vec<u32>,
    /// For each local edge: local index (into `vertices`) of its source.
    pub edge_src_local: Vec<u32>,
    /// For each local edge: local index of its destination.
    pub edge_dst_local: Vec<u32>,
    /// For each local vertex: how many local edges leave it.
    pub out_degree: Vec<u32>,
    /// For each local vertex: how many local edges enter it.
    pub in_degree: Vec<u32>,
}

/// A graph distributed over `k` machines by a vertex-cut edge partitioning,
/// mirroring the PowerGraph/GraphX placement model: each covered vertex has
/// one *master* replica (lowest covering partition) and mirrors elsewhere.
#[derive(Debug, Clone)]
pub struct DistributedGraph {
    parts: Vec<PartitionData>,
    /// Master partition per vertex (`u16::MAX` for vertices with no edges).
    master: Vec<u16>,
    /// Covering-partition bitmask per vertex.
    replicas: Vec<u128>,
    /// Global out-degree per vertex (for PageRank-style normalization).
    out_degree: Vec<u32>,
    /// Global undirected degree per vertex (for K-Cores / LP semantics).
    total_degree: Vec<u32>,
    num_vertices: usize,
}

pub const NO_MASTER: u16 = u16::MAX;

impl DistributedGraph {
    /// Placement from a shared analysis context: the global degree vectors
    /// come from the context's memoized [`ease_graph::DegreeTable`] instead
    /// of being re-derived per placement — profiling places the same graph
    /// once per partitioner. Works over any ingestion backend; placement
    /// replays the context's edge stream, so only the per-partition slices
    /// are materialized.
    pub fn build_prepared(prepared: &PreparedGraph<'_>, partition: &EdgePartition) -> Self {
        assert_eq!(prepared.num_edges(), partition.num_edges());
        let k = partition.num_partitions();
        assert!(k <= 128, "replica masks are u128");
        let n = prepared.num_vertices();
        let mut replicas = vec![0u128; n];
        let empty = PartitionData {
            edges: Vec::new(),
            vertices: Vec::new(),
            edge_src_local: Vec::new(),
            edge_dst_local: Vec::new(),
            out_degree: Vec::new(),
            in_degree: Vec::new(),
        };
        let mut parts = vec![empty; k];
        for (part, edges) in parts.iter_mut().zip(partition.edge_counts()) {
            part.edges.reserve_exact(edges);
        }
        prepared.for_each_edge_indexed(|i, e| {
            let p = partition.partition_of(i);
            parts[p].edges.push(e);
            replicas[e.src as usize] |= 1 << p;
            replicas[e.dst as usize] |= 1 << p;
        });
        // One pass over the masks in vertex order hands every vertex to each
        // partition covering it — so each `vertices` comes out ascending —
        // and picks its master replica: a deterministic hash-spread pick
        // among the covering partitions (GraphX hash-partitions vertex state
        // independently of edges; picking the lowest partition would pile
        // all master-side apply work onto machine 0).
        let mut master = vec![NO_MASTER; n];
        for (v, &mask) in replicas.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            let r = u64::from(mask.count_ones());
            let pick = ease_graph::hash::hash_vertex(v as u32, 0x5A57E12) % r;
            let mut m = mask;
            for nth in 0..r {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                parts[p].vertices.push(v as u32);
                if nth == pick {
                    master[v] = p as u16;
                }
            }
        }
        // Global id → local index, one scratch for all partitions: a
        // partition reads only the entries its own `vertices` just wrote.
        // The same pass over the local edges counts the local degrees.
        let mut local_of = vec![0u32; n];
        for part in &mut parts {
            for (local, &v) in part.vertices.iter().enumerate() {
                local_of[v as usize] = local as u32;
            }
            part.edge_src_local = vec![0; part.edges.len()];
            part.edge_dst_local = vec![0; part.edges.len()];
            part.out_degree = vec![0; part.vertices.len()];
            part.in_degree = vec![0; part.vertices.len()];
            let locals = part.edge_src_local.iter_mut().zip(&mut part.edge_dst_local);
            for (e, (src, dst)) in part.edges.iter().zip(locals) {
                (*src, *dst) = (local_of[e.src as usize], local_of[e.dst as usize]);
                part.out_degree[*src as usize] += 1;
                part.in_degree[*dst as usize] += 1;
            }
        }
        let deg = prepared.degrees();
        DistributedGraph {
            parts,
            master,
            replicas,
            out_degree: deg.out.clone(),
            total_degree: deg.total.clone(),
            num_vertices: n,
        }
    }

    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges placed (Σ_p |E(p)|).
    pub(crate) fn num_edges(&self) -> usize {
        self.parts.iter().map(|p| p.edges.len()).sum()
    }

    #[inline]
    pub fn partition(&self, p: usize) -> &PartitionData {
        &self.parts[p]
    }

    #[inline]
    pub fn master_of(&self, v: u32) -> u16 {
        self.master[v as usize]
    }

    /// Number of partitions covering `v`.
    #[inline]
    pub fn replica_count(&self, v: u32) -> u32 {
        self.replicas[v as usize].count_ones()
    }

    #[inline]
    pub fn replica_mask(&self, v: u32) -> u128 {
        self.replicas[v as usize]
    }

    #[inline]
    pub fn out_degree(&self, v: u32) -> u32 {
        self.out_degree[v as usize]
    }

    #[inline]
    pub fn total_degree(&self, v: u32) -> u32 {
        self.total_degree[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::Graph;
    use ease_partition::EdgePartition;

    fn toy() -> (Graph, EdgePartition) {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let p = EdgePartition::new(2, vec![0, 0, 1, 1]);
        (g, p)
    }

    #[test]
    fn local_structures_consistent() {
        let (g, p) = toy();
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &p);
        assert_eq!(dg.num_partitions(), 2);
        // partition 0 covers {0,1,2}, partition 1 covers {0,2,3}
        assert_eq!(dg.partition(1).vertices, vec![0, 2, 3]);
        let p0 = dg.partition(0);
        assert_eq!(p0.vertices, vec![0, 1, 2]);
        assert_eq!(p0.edges.len(), 2);
        // local index arrays point at the right globals
        for (i, e) in p0.edges.iter().enumerate() {
            assert_eq!(p0.vertices[p0.edge_src_local[i] as usize], e.src);
            assert_eq!(p0.vertices[p0.edge_dst_local[i] as usize], e.dst);
        }
    }

    #[test]
    fn masters_are_covering_and_deterministic() {
        let (g, p) = toy();
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &p);
        // master must be one of the covering partitions
        for v in 0..4u32 {
            let m = dg.master_of(v);
            assert!(dg.replica_mask(v) & (1 << m) != 0, "vertex {v}");
        }
        assert_eq!(dg.master_of(3), 1); // only covered by partition 1
        assert_eq!(dg.replica_count(0), 2);
        assert_eq!(dg.replica_count(3), 1);
        // determinism
        let dg2 = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &p);
        for v in 0..4u32 {
            assert_eq!(dg.master_of(v), dg2.master_of(v));
        }
    }

    #[test]
    fn isolated_vertices_have_no_master() {
        let g = Graph::new(5, vec![Edge::new(0, 1)]);
        let p = EdgePartition::new(2, vec![0]);
        let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &p);
        assert_eq!(dg.master_of(4), NO_MASTER);
        assert_eq!(dg.replica_count(4), 0);
    }

    /// A context that already placed another partitioning (its degree
    /// table memoized) places the next one exactly as a fresh context does.
    #[test]
    fn warm_and_fresh_contexts_place_identically() {
        let (g, p) = toy();
        let warm = PreparedGraph::of(&g);
        let _ = DistributedGraph::build_prepared(&warm, &EdgePartition::new(3, vec![2, 1, 0, 1]));
        let shared = DistributedGraph::build_prepared(&warm, &p);
        let fresh = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &p);
        assert_eq!(shared.num_partitions(), fresh.num_partitions());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(shared.master_of(v), fresh.master_of(v));
            assert_eq!(shared.replica_mask(v), fresh.replica_mask(v));
            assert_eq!(shared.out_degree(v), fresh.out_degree(v));
            assert_eq!(shared.total_degree(v), fresh.total_degree(v));
        }
        for part in 0..fresh.num_partitions() {
            assert_eq!(shared.partition(part).edges, fresh.partition(part).edges);
            assert_eq!(shared.partition(part).vertices, fresh.partition(part).vertices);
        }
    }

    /// The placement as it was derived before the one-pass build: route the
    /// edges, then per partition collect both endpoints, sort, dedup, and
    /// `binary_search` every endpoint; masters by stripping `pick` low bits;
    /// local degrees by a count over `edges` per local vertex.
    fn reference_parts(g: &Graph, p: &EdgePartition) -> (Vec<PartitionData>, Vec<u16>, Vec<u128>) {
        let mut replicas = vec![0u128; g.num_vertices()];
        let mut part_edges: Vec<Vec<Edge>> = vec![Vec::new(); p.num_partitions()];
        for (i, e) in g.edges().iter().enumerate() {
            let part = p.partition_of(i);
            part_edges[part].push(*e);
            replicas[e.src as usize] |= 1 << part;
            replicas[e.dst as usize] |= 1 << part;
        }
        let master = replicas
            .iter()
            .enumerate()
            .map(|(v, &mask)| {
                if mask == 0 {
                    return NO_MASTER;
                }
                let r = u64::from(mask.count_ones());
                let mut m = mask;
                for _ in 0..ease_graph::hash::hash_vertex(v as u32, 0x5A57E12) % r {
                    m &= m - 1;
                }
                m.trailing_zeros() as u16
            })
            .collect();
        let parts = part_edges
            .into_iter()
            .map(|edges| {
                let mut vertices: Vec<u32> = edges.iter().flat_map(|e| [e.src, e.dst]).collect();
                vertices.sort_unstable();
                vertices.dedup();
                let local = |v: u32| vertices.binary_search(&v).expect("covered vertex") as u32;
                let edge_src_local = edges.iter().map(|e| local(e.src)).collect();
                let edge_dst_local = edges.iter().map(|e| local(e.dst)).collect();
                let count = |end: fn(&Edge) -> u32| {
                    let degree = |&v: &u32| edges.iter().filter(|e| end(e) == v).count() as u32;
                    vertices.iter().map(degree).collect()
                };
                let (out_degree, in_degree) = (count(|e| e.src), count(|e| e.dst));
                PartitionData {
                    edges,
                    vertices,
                    edge_src_local,
                    edge_dst_local,
                    out_degree,
                    in_degree,
                }
            })
            .collect();
        (parts, master, replicas)
    }

    #[test]
    fn one_pass_build_matches_sort_dedup_search_reference() {
        // multigraphs with self-loops, parallel edges and isolated ids
        // (universe 300, endpoints below 200); k = 128 sets the top mask bit
        let mut rng = ease_graph::hash::SplitMix64::new(0xB01D);
        for k in [1usize, 2, 7, 128] {
            for m in [0usize, 1, 40, 900] {
                let mut edges: Vec<Edge> = (0..m)
                    .map(|_| Edge::new(rng.next_below(200) as u32, rng.next_below(200) as u32))
                    .collect();
                edges.extend_from_slice(&[Edge::new(7, 7), Edge::new(3, 9), Edge::new(3, 9)]);
                let g = Graph::new(300, edges);
                let mut assignment: Vec<u16> =
                    (0..g.num_edges()).map(|_| rng.next_below(k) as u16).collect();
                assignment[0] = (k - 1) as u16;
                let p = EdgePartition::new(k, assignment);
                let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &p);
                let (parts, master, replicas) = reference_parts(&g, &p);
                assert_eq!(dg.master, master, "k={k} m={m}");
                assert_eq!(dg.replicas, replicas, "k={k} m={m}");
                assert_eq!(dg.parts.len(), k);
                for (got, want) in dg.parts.iter().zip(&parts) {
                    assert_eq!(got.edges, want.edges, "k={k} m={m}");
                    assert_eq!(got.vertices, want.vertices, "k={k} m={m}");
                    assert_eq!(got.edge_src_local, want.edge_src_local, "k={k} m={m}");
                    assert_eq!(got.edge_dst_local, want.edge_dst_local, "k={k} m={m}");
                    assert_eq!(got.out_degree, want.out_degree, "k={k} m={m}");
                    assert_eq!(got.in_degree, want.in_degree, "k={k} m={m}");
                }
            }
        }
    }
}
