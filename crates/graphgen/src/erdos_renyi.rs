//! Erdős–Rényi G(n, m) random graphs.
//!
//! Used as a structureless baseline in tests and as an ingredient of the
//! interaction-graph recipes in the real-world library (uniform random
//! contact patterns have neither hubs nor clustering).

use ease_graph::hash::mix64;
use ease_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// G(n, m): `m` directed edges chosen uniformly without self-loops.
/// Duplicates are avoided only when `simple` is set: a drawn pair already
/// in the graph is dropped and redrawn, two `gen_range` draws per attempt.
#[derive(Debug, Clone)]
pub struct ErdosRenyi {
    pub num_vertices: usize,
    pub num_edges: usize,
    pub simple: bool,
    pub seed: u64,
}

impl ErdosRenyi {
    pub fn new(num_vertices: usize, num_edges: usize, seed: u64) -> Self {
        ErdosRenyi { num_vertices, num_edges, simple: true, seed }
    }

    pub fn generate(&self) -> Graph {
        let n = self.num_vertices as u32;
        assert!(n >= 2, "G(n,m) needs at least 2 vertices");
        let max_edges = self.num_vertices * (self.num_vertices - 1);
        assert!(
            !self.simple || self.num_edges <= max_edges,
            "too many edges for a simple directed graph"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut edges = Vec::with_capacity(self.num_edges);
        if self.simple {
            let mut seen: HashSet<u64, BuildHasherDefault<PairHasher>> =
                HashSet::with_capacity_and_hasher(self.num_edges * 2, Default::default());
            while edges.len() < self.num_edges {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                if src != dst && seen.insert(u64::from(src) << 32 | u64::from(dst)) {
                    edges.push(Edge::new(src, dst));
                }
            }
        } else {
            while edges.len() < self.num_edges {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                if src != dst {
                    edges.push(Edge::new(src, dst));
                }
            }
        }
        Graph::new(self.num_vertices, edges)
    }
}

/// The membership set's hasher: one [`mix64`] per `(src, dst)` key in
/// place of SipHash. Only membership is read, so the hash moves no edge;
/// the keys are the generator's own draws, so no outside input can pick
/// colliding ones.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = mix64(self.0 ^ key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::PreparedGraph;

    #[test]
    fn exact_edge_count_and_simplicity() {
        let g = ErdosRenyi::new(50, 200, 3).generate();
        assert_eq!(g.num_edges(), 200);
        let mut set = std::collections::HashSet::new();
        for e in g.edges() {
            assert!(!e.is_loop());
            assert!(set.insert((e.src, e.dst)));
        }
    }

    #[test]
    fn deterministic() {
        let a = ErdosRenyi::new(64, 300, 5).generate();
        let b = ErdosRenyi::new(64, 300, 5).generate();
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn sparse_er_has_low_clustering() {
        let g = ErdosRenyi::new(2_000, 8_000, 1).generate();
        // expected LCC ≈ p ≈ m / (n(n-1)) ≈ 0.002
        assert!(PreparedGraph::of(&g).triangle_stats().avg_lcc < 0.05);
    }

    #[test]
    #[should_panic(expected = "too many edges")]
    fn rejects_overfull_simple_graph() {
        let _ = ErdosRenyi::new(3, 100, 1).generate();
    }
}
