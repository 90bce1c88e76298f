//! Bipartite affiliation graphs (actor–movie / member–group style).
//!
//! The paper's *affiliation* test graphs (KONECT) are bipartite membership
//! networks. We generate them directly: `num_actors` left vertices join
//! groups whose popularity follows a power law; each actor joins a
//! Poisson-ish number of groups. Vertex universe = actors ++ groups,
//! edges actor → group.

use ease_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct Affiliation {
    pub num_actors: usize,
    pub num_groups: usize,
    /// Mean memberships per actor.
    pub mean_memberships: f64,
    /// Power-law exponent of group popularity.
    pub popularity_exponent: f64,
    pub seed: u64,
}

impl Affiliation {
    pub fn new(num_actors: usize, num_groups: usize, mean_memberships: f64, seed: u64) -> Self {
        assert!(num_actors >= 1 && num_groups >= 1);
        assert!(mean_memberships >= 1.0);
        Affiliation { num_actors, num_groups, mean_memberships, popularity_exponent: 2.0, seed }
    }

    pub fn generate(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // group popularity weights (Zipf-ish) and cdf
        let gamma = 1.0 / (self.popularity_exponent - 1.0);
        let mut cdf = Vec::with_capacity(self.num_groups);
        let mut acc = 0.0;
        for i in 0..self.num_groups {
            acc += ((i + 1) as f64).powf(-gamma);
            cdf.push(acc);
        }
        let total = acc;
        let n = self.num_actors + self.num_groups;
        let mut edges =
            Vec::with_capacity((self.num_actors as f64 * self.mean_memberships) as usize);
        for actor in 0..self.num_actors {
            // geometric-ish membership count with the requested mean ≥ 1
            let mut memberships = 1usize;
            while rng.gen::<f64>() < 1.0 - 1.0 / self.mean_memberships {
                memberships += 1;
                if memberships > 50 {
                    break;
                }
            }
            for _ in 0..memberships {
                let r = rng.gen::<f64>() * total;
                let group = cdf.partition_point(|&c| c < r).min(self.num_groups - 1);
                edges.push(Edge::new(actor as u32, (self.num_actors + group) as u32));
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
    fn edges_are_strictly_bipartite() {
        let a = Affiliation::new(500, 50, 3.0, 1);
        let g = a.generate();
        assert!(g.edges().iter().all(|e| (e.src as usize) < 500 && (e.dst as usize) >= 500));
    }

    #[test]
    fn bipartite_graphs_have_no_triangles() {
        let g = Affiliation::new(400, 40, 2.5, 2).generate();
        assert_eq!(PreparedGraph::of(&g).triangle_stats().avg_triangles, 0.0);
    }

    #[test]
    fn popular_groups_become_hubs() {
        let g = Affiliation::new(2_000, 100, 3.0, 3).generate();
        let t = DegreeTable::compute(&g);
        assert!(f64::from(t.in_moments.max) > 10.0 * t.mean_degree());
    }

    #[test]
    fn mean_memberships_close_to_requested() {
        let g = Affiliation::new(5_000, 200, 4.0, 4).generate();
        let per_actor = g.num_edges() as f64 / 5_000.0;
        assert!((per_actor - 4.0).abs() < 0.5, "per_actor={per_actor}");
    }

    #[test]
    fn deterministic() {
        let a = Affiliation::new(100, 10, 2.0, 7).generate();
        let b = Affiliation::new(100, 10, 2.0, 7).generate();
        assert_eq!(a.edges(), b.edges());
    }
}
