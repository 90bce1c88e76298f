//! The owned directed graph representation used throughout the workspace.

use crate::types::{Edge, VertexId};

/// A directed graph stored as an edge list with a known vertex universe
/// `0..num_vertices`.
///
/// The edge list is the natural input format for *streaming* partitioners
/// (the stream order is simply the vector order) and the source from which
/// [`crate::Csr`] adjacency is built for in-memory algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl Graph {
    /// Build a graph from raw edges. Panics if an endpoint is out of range.
    pub fn new(num_vertices: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(
            edges
                .iter()
                .all(|e| (e.src as usize) < num_vertices && (e.dst as usize) < num_vertices),
            "edge endpoint out of range"
        );
        Graph { num_vertices, edges }
    }

    /// Build from `(src, dst)` tuples, inferring the vertex count as
    /// `max endpoint + 1`.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let num_vertices = edges.iter().map(|e| e.src.max(e.dst) as usize + 1).max().unwrap_or(0);
        Graph { num_vertices, edges }
    }

    /// An empty graph over `n` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Graph { num_vertices, edges: Vec::new() }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Mutable access used by generators that post-process their output.
    pub fn edges_mut(&mut self) -> &mut Vec<Edge> {
        &mut self.edges
    }

    /// Push one edge (grows the vertex universe if needed).
    pub fn push_edge(&mut self, src: VertexId, dst: VertexId) {
        self.num_vertices = self.num_vertices.max(src.max(dst) as usize + 1);
        self.edges.push(Edge::new(src, dst));
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.src as usize] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.dst as usize] += 1;
        }
        deg
    }

    /// Total (in+out) degree of every vertex; self-loops count twice,
    /// matching the paper's `deg(G) = 2|E| / |V|` convention.
    pub fn total_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.src as usize] += 1;
            deg[e.dst as usize] += 1;
        }
        deg
    }

    /// Relabel vertices with a permutation; used by generators to destroy
    /// artificial id locality. `perm[v]` is the new id of old vertex `v`.
    pub fn relabel(&mut self, perm: &[VertexId]) {
        assert_eq!(perm.len(), self.num_vertices);
        for e in &mut self.edges {
            e.src = perm[e.src as usize];
            e.dst = perm[e.dst as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 2), (0, 1)])
    }

    #[test]
    fn from_pairs_infers_vertex_count() {
        let g = toy();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn degree_computation() {
        let g = toy();
        assert_eq!(g.out_degrees(), vec![2, 1, 2]);
        assert_eq!(g.in_degrees(), vec![1, 2, 2]);
        assert_eq!(g.total_degrees(), vec![3, 3, 4]);
    }

    #[test]
    fn relabel_applies_permutation() {
        let mut g = Graph::from_pairs([(0, 1), (1, 2)]);
        g.relabel(&[2, 0, 1]);
        assert_eq!(g.edges()[0], Edge::new(2, 0));
        assert_eq!(g.edges()[1], Edge::new(0, 1));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert!(g.is_empty());
        assert_eq!(g.out_degrees(), vec![0; 5]);
    }

    #[test]
    fn push_edge_grows_universe() {
        let mut g = Graph::empty(1);
        g.push_edge(0, 9);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }
}
