//! Chung–Lu random graphs with a prescribed expected degree sequence.
//!
//! Endpoints are sampled proportionally to per-vertex weights; with
//! power-law weights this yields heavy-tailed degree distributions *without*
//! clustering — matching the structure of internet topologies and
//! interaction (message/email) graphs in the real-world library.

use ease_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct ChungLu {
    pub num_vertices: usize,
    pub num_edges: usize,
    /// Power-law exponent of the weight sequence (typical real-world ~2–3;
    /// smaller = heavier tail).
    pub exponent: f64,
    pub seed: u64,
}

impl ChungLu {
    pub fn new(num_vertices: usize, num_edges: usize, exponent: f64, seed: u64) -> Self {
        assert!(exponent > 1.0, "power-law exponent must exceed 1");
        assert!(num_vertices >= 2);
        ChungLu { num_vertices, num_edges, exponent, seed }
    }

    /// Power-law weights `w_i = (i+1)^(-1/(exponent-1))`, the standard
    /// Chung–Lu parametrization producing P(deg = d) ~ d^(-exponent).
    fn weights(&self) -> Vec<f64> {
        let gamma = 1.0 / (self.exponent - 1.0);
        (0..self.num_vertices).map(|i| ((i + 1) as f64).powf(-gamma)).collect()
    }

    pub fn generate(&self) -> Graph {
        let w = self.weights();
        // Cumulative distribution for inverse-transform sampling.
        let mut cdf = Vec::with_capacity(w.len());
        let mut acc = 0.0;
        for &x in &w {
            acc += x;
            cdf.push(acc);
        }
        let total = acc;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut edges = Vec::with_capacity(self.num_edges);
        let sample = |rng: &mut StdRng, cdf: &[f64]| -> u32 {
            let r = rng.gen::<f64>() * total;
            cdf.partition_point(|&c| c < r) as u32
        };
        let mut guard = 0usize;
        while edges.len() < self.num_edges {
            let src = sample(&mut rng, &cdf).min(self.num_vertices as u32 - 1);
            let dst = sample(&mut rng, &cdf).min(self.num_vertices as u32 - 1);
            guard += 1;
            if guard > 100 * self.num_edges {
                panic!("Chung-Lu failed to place edges (degenerate weights)");
            }
            if src != dst {
                edges.push(Edge::new(src, dst));
            }
        }
        // Shuffle vertex ids so low ids are not systematically high-degree.
        let mut graph = Graph::new(self.num_vertices, edges);
        let mut perm: Vec<u32> = (0..self.num_vertices as u32).collect();
        use rand::seq::SliceRandom;
        perm.shuffle(&mut rng);
        graph.relabel(&perm);
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::{DegreeTable, PreparedGraph};

    #[test]
    fn edge_count_exact() {
        let g = ChungLu::new(500, 2_000, 2.5, 1).generate();
        assert_eq!(g.num_edges(), 2_000);
        assert!(g.edges().iter().all(|e| !e.is_loop()));
    }

    #[test]
    fn heavier_tail_for_smaller_exponent() {
        let heavy = ChungLu::new(3_000, 15_000, 2.0, 4).generate();
        let light = ChungLu::new(3_000, 15_000, 3.5, 4).generate();
        let dh = DegreeTable::compute(&heavy).total_moments;
        let dl = DegreeTable::compute(&light).total_moments;
        assert!(dh.max > dl.max, "heavy max={} light max={}", dh.max, dl.max);
    }

    #[test]
    fn low_clustering() {
        let g = ChungLu::new(3_000, 12_000, 2.3, 2).generate();
        assert!(PreparedGraph::of(&g).triangle_stats().avg_lcc < 0.1);
    }

    #[test]
    fn deterministic() {
        let a = ChungLu::new(100, 500, 2.2, 8).generate();
        let b = ChungLu::new(100, 500, 2.2, 8).generate();
        assert_eq!(a.edges(), b.edges());
    }
}
