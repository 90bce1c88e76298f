//! Planted-community graphs with power-law community sizes (LFR-flavoured).
//!
//! Vertices are assigned to communities whose sizes follow a truncated
//! power law; a fraction `mixing` of each edge's endpoints crosses
//! community boundaries, the rest stay internal. Internal edges make the
//! graph highly clustered and easily partitionable — the structure of
//! collaboration networks (co-authorship cliques) in the real-world library.

use ease_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct CommunityGraph {
    pub num_vertices: usize,
    pub num_edges: usize,
    /// Fraction of inter-community edges (LFR mixing parameter μ).
    pub mixing: f64,
    /// Power-law exponent of community sizes.
    pub size_exponent: f64,
    /// Minimum community size.
    pub min_community: usize,
    /// Maximum community size (None = |V|/4). Web crawls have host-sized
    /// communities much smaller than |V|; see `realworld::sk2005_analogue`.
    pub max_community: Option<usize>,
    pub seed: u64,
}

impl CommunityGraph {
    pub fn new(num_vertices: usize, num_edges: usize, mixing: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&mixing));
        CommunityGraph {
            num_vertices,
            num_edges,
            mixing,
            size_exponent: 2.0,
            min_community: 8,
            max_community: None,
            seed,
        }
    }

    /// Cap community sizes (builder style).
    pub fn with_max_community(mut self, max: usize) -> Self {
        self.max_community = Some(max);
        self
    }

    /// Draw community sizes until the vertex budget is exhausted.
    fn community_sizes(&self, rng: &mut StdRng) -> Vec<usize> {
        let max_community =
            self.max_community.unwrap_or(self.num_vertices / 4).max(self.min_community + 1);
        let mut sizes = Vec::new();
        let mut used = 0usize;
        while used < self.num_vertices {
            // inverse-transform sample of a truncated power law
            let u = rng.gen::<f64>();
            let a = 1.0 - self.size_exponent;
            let lo = (self.min_community as f64).powf(a);
            let hi = (max_community as f64).powf(a);
            let s = ((lo + u * (hi - lo)).powf(1.0 / a)).round() as usize;
            let s = s.clamp(self.min_community, max_community).min(self.num_vertices - used);
            sizes.push(s);
            used += s;
        }
        sizes
    }

    pub fn generate(&self) -> Graph {
        assert!(self.num_vertices >= 2 * self.min_community);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sizes = self.community_sizes(&mut rng);
        // community membership: vertex id ranges [start, start+size)
        let mut starts = Vec::with_capacity(sizes.len());
        let mut acc = 0usize;
        for &s in &sizes {
            starts.push(acc);
            acc += s;
        }
        let mut edges = Vec::with_capacity(self.num_edges);
        let n = self.num_vertices;
        // Edge mass per community proportional to size (so degree is roughly
        // uniform across communities).
        while edges.len() < self.num_edges {
            // pick a community weighted by size via uniform vertex pick
            let v = rng.gen_range(0..n);
            let ci = starts.partition_point(|&s| s <= v) - 1;
            let (cs, cl) = (starts[ci], sizes[ci]);
            let src = v as u32;
            let dst = if rng.gen::<f64>() < self.mixing || cl < 2 {
                rng.gen_range(0..n) as u32
            } else {
                (cs + rng.gen_range(0..cl)) as u32
            };
            if src != dst {
                edges.push(Edge::new(src, dst));
            }
        }
        let mut g = Graph::new(n, edges);
        // shuffle ids so communities are not contiguous ranges
        use rand::seq::SliceRandom;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        g.relabel(&perm);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::PreparedGraph;

    #[test]
    fn exact_edge_count() {
        let g = CommunityGraph::new(1_000, 5_000, 0.1, 1).generate();
        assert_eq!(g.num_edges(), 5_000);
        assert!(g.edges().iter().all(|e| !e.is_loop()));
    }

    #[test]
    fn low_mixing_is_more_clustered() {
        let tight = CommunityGraph::new(2_000, 16_000, 0.05, 3).generate();
        let loose = CommunityGraph::new(2_000, 16_000, 0.9, 3).generate();
        let ct = PreparedGraph::of(&tight).triangle_stats().avg_lcc;
        let cl = PreparedGraph::of(&loose).triangle_stats().avg_lcc;
        assert!(ct > 2.0 * cl, "tight={ct:.4} loose={cl:.4}");
    }

    #[test]
    fn deterministic() {
        let a = CommunityGraph::new(300, 1_200, 0.2, 5).generate();
        let b = CommunityGraph::new(300, 1_200, 0.2, 5).generate();
        assert_eq!(a.edges(), b.edges());
    }
}
