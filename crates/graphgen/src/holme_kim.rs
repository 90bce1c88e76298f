//! Holme–Kim model: preferential attachment with tunable clustering
//! (Phys. Rev. E 65, 026107).
//!
//! BA cannot produce the high clustering of real social/collaboration
//! networks. Holme–Kim interleaves *triad-formation* steps: after a
//! preferential-attachment step to target `t`, with probability `p_triad`
//! the next edge goes to a random neighbor of `t`, closing a triangle.
//! Social-network analogues in the real-world library use this model.

use ease_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct HolmeKim {
    pub num_vertices: usize,
    pub edges_per_vertex: usize,
    /// Probability of a triad-formation step after each PA step.
    pub p_triad: f64,
    pub seed: u64,
}

impl HolmeKim {
    pub fn new(num_vertices: usize, edges_per_vertex: usize, p_triad: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_triad));
        assert!(num_vertices > edges_per_vertex && edges_per_vertex >= 1);
        HolmeKim { num_vertices, edges_per_vertex, p_triad, seed }
    }

    pub fn generate(&self) -> Graph {
        let (n, m) = (self.num_vertices, self.edges_per_vertex);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut edges: Vec<Edge> = Vec::with_capacity(n * m);
        let mut pool: Vec<u32> = Vec::with_capacity(2 * n * m);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let link = |edges: &mut Vec<Edge>,
                    pool: &mut Vec<u32>,
                    adj: &mut Vec<Vec<u32>>,
                    u: u32,
                    v: u32| {
            edges.push(Edge::new(u, v));
            pool.push(u);
            pool.push(v);
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        };
        for v in 0..m as u32 {
            link(&mut edges, &mut pool, &mut adj, m as u32, v);
        }
        for v in (m + 1) as u32..n as u32 {
            let mut connected: Vec<u32> = Vec::with_capacity(m);
            let mut last_target: Option<u32> = None;
            while connected.len() < m {
                let use_triad = last_target.is_some() && rng.gen::<f64>() < self.p_triad;
                let candidate = if use_triad {
                    let t = last_target.unwrap();
                    let nbrs = &adj[t as usize];
                    nbrs[rng.gen_range(0..nbrs.len())]
                } else {
                    pool[rng.gen_range(0..pool.len())]
                };
                if candidate != v && !connected.contains(&candidate) {
                    link(&mut edges, &mut pool, &mut adj, v, candidate);
                    connected.push(candidate);
                    last_target = Some(candidate);
                } else if use_triad {
                    // triad failed (duplicate); fall back to PA next round
                    last_target = None;
                }
            }
        }
        Graph::new(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::PreparedGraph;

    #[test]
    fn produces_expected_edge_count() {
        let g = HolmeKim::new(200, 3, 0.8, 2).generate();
        assert_eq!(g.num_edges(), 3 + (200 - 4) * 3);
    }

    #[test]
    fn triad_probability_raises_clustering() {
        let low = HolmeKim::new(1_500, 3, 0.0, 7).generate();
        let high = HolmeKim::new(1_500, 3, 0.95, 7).generate();
        let c_low = PreparedGraph::of(&low).triangle_stats().avg_lcc;
        let c_high = PreparedGraph::of(&high).triangle_stats().avg_lcc;
        assert!(c_high > 2.0 * c_low, "clustering low={c_low:.4} high={c_high:.4}");
    }

    #[test]
    fn deterministic() {
        let a = HolmeKim::new(300, 2, 0.5, 13).generate();
        let b = HolmeKim::new(300, 2, 0.5, 13).generate();
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn simple_graph_per_new_vertex() {
        let g = HolmeKim::new(400, 4, 0.6, 5).generate();
        assert!(g.edges().iter().all(|e| !e.is_loop()));
    }
}
