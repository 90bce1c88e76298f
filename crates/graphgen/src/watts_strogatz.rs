//! Watts–Strogatz small-world model (Nature 1998).
//!
//! Ring lattice of `n` vertices each linked to its `k` nearest neighbors,
//! with every edge rewired to a uniform random endpoint with probability
//! `p_rewire`. Produces high clustering with narrow, nearly regular degree
//! distributions — the recipe for the *product network* (co-purchase)
//! analogues in the real-world library.

use ease_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct WattsStrogatz {
    pub num_vertices: usize,
    /// Each vertex connects to `k` nearest ring neighbors (k even).
    pub k: usize,
    pub p_rewire: f64,
    pub seed: u64,
}

impl WattsStrogatz {
    pub fn new(num_vertices: usize, k: usize, p_rewire: f64, seed: u64) -> Self {
        assert!(k.is_multiple_of(2) && k >= 2, "k must be even and >= 2");
        assert!(num_vertices > k, "need n > k");
        assert!((0.0..=1.0).contains(&p_rewire));
        WattsStrogatz { num_vertices, k, p_rewire, seed }
    }

    pub fn generate(&self) -> Graph {
        let n = self.num_vertices;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut edges = Vec::with_capacity(n * self.k / 2);
        for v in 0..n {
            for j in 1..=self.k / 2 {
                let mut u = (v + j) % n;
                if rng.gen::<f64>() < self.p_rewire {
                    // rewire the far endpoint, avoiding self-loops
                    loop {
                        let cand = rng.gen_range(0..n);
                        if cand != v {
                            u = cand;
                            break;
                        }
                    }
                }
                edges.push(Edge::new(v as u32, u as u32));
            }
        }
        Graph::new(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::{DegreeTable, PreparedGraph};

    #[test]
    fn lattice_edge_count() {
        let g = WattsStrogatz::new(100, 4, 0.0, 1).generate();
        assert_eq!(g.num_edges(), 100 * 2);
    }

    #[test]
    fn zero_rewire_is_clustered_lattice() {
        let g = WattsStrogatz::new(500, 6, 0.0, 1).generate();
        // k=6 ring lattice has LCC = 0.6 exactly
        let c = PreparedGraph::of(&g).triangle_stats().avg_lcc;
        assert!((c - 0.6).abs() < 0.01, "c={c}");
    }

    #[test]
    fn heavy_rewire_destroys_clustering() {
        let lat = WattsStrogatz::new(800, 6, 0.0, 2).generate();
        let rnd = WattsStrogatz::new(800, 6, 1.0, 2).generate();
        assert!(
            PreparedGraph::of(&rnd).triangle_stats().avg_lcc
                < 0.2 * PreparedGraph::of(&lat).triangle_stats().avg_lcc
        );
    }

    #[test]
    fn degree_distribution_is_narrow() {
        let g = WattsStrogatz::new(1_000, 8, 0.1, 3).generate();
        let t = DegreeTable::compute(&g);
        assert!(f64::from(t.total_moments.max) < 3.0 * t.mean_degree());
    }

    #[test]
    fn deterministic() {
        let a = WattsStrogatz::new(128, 4, 0.3, 9).generate();
        let b = WattsStrogatz::new(128, 4, 0.3, 9).generate();
        assert_eq!(a.edges(), b.edges());
    }
}
