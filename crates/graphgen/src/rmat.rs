//! R-MAT recursive matrix graph generator (Chakrabarti et al., SDM 2004).
//!
//! The paper uses R-MAT (implementation of Khorasani et al.) as its training
//! graph generator because it is lightweight, scales well, and covers the
//! property space of real graphs. Partition probabilities `(a, b, c, d)`
//! recursively pick the adjacency-matrix quadrant of each edge; `a`/`d` act
//! as communities, `b`/`c` as inter-community edges. Table II of the paper
//! defines nine combinations C1..C9 (d fixed at 0.05) reproduced here in
//! [`RMAT_COMBOS`].

use ease_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT quadrant probabilities. Must sum to 1 (checked on construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl RmatParams {
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        let sum = a + b + c + d;
        assert!((sum - 1.0).abs() < 1e-9, "R-MAT probabilities must sum to 1 (got {sum})");
        assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0);
        RmatParams { a, b, c, d }
    }
}

/// The nine R-MAT parameter combinations C1..C9 of Table II
/// (`d` fixed at 0.05; `c` ∈ {0.34, 0.19}; `a`/`b` sweep skewness).
pub const RMAT_COMBOS: [RmatParams; 9] = [
    RmatParams { a: 0.35, b: 0.26, c: 0.34, d: 0.05 },
    RmatParams { a: 0.45, b: 0.16, c: 0.34, d: 0.05 },
    RmatParams { a: 0.55, b: 0.06, c: 0.34, d: 0.05 },
    RmatParams { a: 0.60, b: 0.01, c: 0.34, d: 0.05 },
    RmatParams { a: 0.40, b: 0.36, c: 0.19, d: 0.05 },
    RmatParams { a: 0.50, b: 0.26, c: 0.19, d: 0.05 },
    RmatParams { a: 0.60, b: 0.16, c: 0.19, d: 0.05 },
    RmatParams { a: 0.65, b: 0.11, c: 0.19, d: 0.05 },
    RmatParams { a: 0.70, b: 0.06, c: 0.19, d: 0.05 },
];

/// R-MAT generator configuration.
#[derive(Debug, Clone)]
pub struct Rmat {
    pub params: RmatParams,
    /// Number of vertices. Internally rounded up to the next power of two
    /// for the quadrant recursion; sampled ids are folded back modulo `n`.
    pub num_vertices: usize,
    pub num_edges: usize,
    /// Multiplicative noise on the quadrant probabilities per recursion
    /// level (smoothing parameter of Chakrabarti et al.; 0.1 ≈ realistic).
    pub noise: f64,
    pub seed: u64,
}

impl Rmat {
    pub fn new(params: RmatParams, num_vertices: usize, num_edges: usize, seed: u64) -> Self {
        Rmat { params, num_vertices, num_edges, noise: 0.1, seed }
    }

    /// Generate the directed multigraph (self-loops removed, parallel edges
    /// kept — streaming partitioners consume raw edge streams).
    pub fn generate(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.num_edges);
        self.generate_into(&mut |e| edges.push(e));
        Graph::new(self.num_vertices, edges)
    }

    /// Stream the generated edges into `sink` without materializing the
    /// edge list — `ease gen` pipes this straight into a file writer, so
    /// arbitrarily large R-MAT graphs generate in constant memory. Emits
    /// exactly the edges (and order) of [`Rmat::generate`].
    ///
    /// Each attempt descends `levels = ⌈log2 n⌉` quadrant levels and draws
    /// 5 × `levels` uniforms: four weight perturbations, then the pick.
    /// The pick is read as bits, with no branch the CPU would have to
    /// guess. With `qa = r < na`, `qab = r < na + nb` and
    /// `qabc = r < na + nb + nc`, the row bit is `!qa & !qab` and the
    /// column bit is `!qa & (qab | !qabc)`: the `a` / `b` / `c` / `d` `if`
    /// chain for any weights, noise-perturbed or negative ones included.
    /// The sampled ids are below `2^levels < 2n`, so folding them into
    /// `0..n` is one conditional subtract. Attempts that land on the
    /// diagonal are dropped and redrawn.
    pub fn generate_into(&self, sink: &mut dyn FnMut(Edge)) {
        assert!(self.num_vertices >= 2, "R-MAT needs at least 2 vertices");
        let levels = (usize::BITS - (self.num_vertices - 1).leading_zeros()) as usize;
        let levels = levels.max(1);
        let n = self.num_vertices as u64;
        let fold = |id: u64| (if id >= n { id - n } else { id }) as u32;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut emitted = 0usize;
        let RmatParams { a, b, c, d } = self.params;
        // `1 - noise + 2 noise u` evaluates as `(1 - noise) + (2 noise) u`
        let (base, spread) = (1.0 - self.noise, 2.0 * self.noise);
        while emitted < self.num_edges {
            let (mut row, mut col) = (0u64, 0u64);
            for _ in 0..levels {
                // Perturb probabilities per level to avoid lattice artefacts.
                let na = a * (base + spread * rng.gen::<f64>());
                let nb = b * (base + spread * rng.gen::<f64>());
                let nc = c * (base + spread * rng.gen::<f64>());
                let nd = d * (base + spread * rng.gen::<f64>());
                let total = na + nb + nc + nd;
                let r = rng.gen::<f64>() * total;
                let (qa, qab, qabc) = (r < na, r < na + nb, r < na + nb + nc);
                row = row << 1 | u64::from(!qa & !qab);
                col = col << 1 | u64::from(!qa & (qab | !qabc));
            }
            let (src, dst) = (fold(row), fold(col));
            if src != dst {
                sink(Edge::new(src, dst));
                emitted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::hash::SplitMix64;
    use ease_graph::DegreeTable;

    /// The descent as it was before it went branch-free: the quadrant `if`
    /// chain and the `%` fold, same draws in the same order.
    fn branchy_oracle(rmat: &Rmat) -> Vec<Edge> {
        let levels = (usize::BITS - (rmat.num_vertices - 1).leading_zeros()) as usize;
        let levels = levels.max(1);
        let n = rmat.num_vertices as u64;
        let mut rng = StdRng::seed_from_u64(rmat.seed);
        let mut edges = Vec::new();
        let RmatParams { a, b, c, d } = rmat.params;
        while edges.len() < rmat.num_edges {
            let (mut row, mut col) = (0u64, 0u64);
            for _ in 0..levels {
                let na = a * (1.0 - rmat.noise + 2.0 * rmat.noise * rng.gen::<f64>());
                let nb = b * (1.0 - rmat.noise + 2.0 * rmat.noise * rng.gen::<f64>());
                let nc = c * (1.0 - rmat.noise + 2.0 * rmat.noise * rng.gen::<f64>());
                let nd = d * (1.0 - rmat.noise + 2.0 * rmat.noise * rng.gen::<f64>());
                let total = na + nb + nc + nd;
                let r = rng.gen::<f64>() * total;
                row <<= 1;
                col <<= 1;
                if r < na {
                    // quadrant a: (0,0)
                } else if r < na + nb {
                    col |= 1; // b: (0,1)
                } else if r < na + nb + nc {
                    row |= 1; // c: (1,0)
                } else {
                    row |= 1;
                    col |= 1; // d: (1,1)
                }
            }
            let src = (row % n) as u32;
            let dst = (col % n) as u32;
            if src != dst {
                edges.push(Edge::new(src, dst));
            }
        }
        edges
    }

    /// Random weights (every third case with one quadrant at zero), noise
    /// off, realistic and above 1 (perturbed weights go negative), and
    /// vertex counts on both sides of a power of two up to 2^32.
    #[test]
    fn branch_free_descent_matches_the_if_chain() {
        let mut draw = SplitMix64::new(0xD1CE);
        for case in 0..24usize {
            let mut w = [(); 4].map(|()| 0.05 + draw.next_f64());
            if case % 3 == 0 {
                w[case / 3 % 4] = 0.0;
            }
            let sum: f64 = w.iter().sum();
            let params = RmatParams { a: w[0] / sum, b: w[1] / sum, c: w[2] / sum, d: w[3] / sum };
            let k = 2 + case % 14;
            for noise in [0.0, 0.1, 1.5] {
                for n in [2, 3, (1 << k) - 1, 1 << k, (1 << k) + 1, 1 << 32] {
                    let rmat =
                        Rmat { params, num_vertices: n, num_edges: 300, noise, seed: case as u64 };
                    let mut streamed = Vec::new();
                    rmat.generate_into(&mut |e| streamed.push(e));
                    assert_eq!(streamed, branchy_oracle(&rmat), "{rmat:?}");
                }
            }
        }
    }

    #[test]
    fn combos_match_table_ii() {
        assert_eq!(RMAT_COMBOS.len(), 9);
        for p in RMAT_COMBOS {
            let sum = p.a + p.b + p.c + p.d;
            assert!((sum - 1.0).abs() < 1e-9, "{p:?}");
            assert!((p.d - 0.05).abs() < 1e-12);
        }
        // first four use c = 0.34, last five c = 0.19
        assert!(RMAT_COMBOS[..4].iter().all(|p| (p.c - 0.34).abs() < 1e-12));
        assert!(RMAT_COMBOS[4..].iter().all(|p| (p.c - 0.19).abs() < 1e-12));
    }

    #[test]
    fn generates_requested_edge_count() {
        let g = Rmat::new(RMAT_COMBOS[0], 1 << 10, 5_000, 7).generate();
        assert_eq!(g.num_edges(), 5_000);
        assert_eq!(g.num_vertices(), 1 << 10);
        assert!(g.edges().iter().all(|e| !e.is_loop()));
    }

    #[test]
    fn streamed_generation_is_bit_identical_to_materialized() {
        let r = Rmat::new(RMAT_COMBOS[4], 1 << 9, 3_000, 11);
        let materialized = r.generate();
        let mut streamed = Vec::new();
        r.generate_into(&mut |e| streamed.push(e));
        assert_eq!(streamed, materialized.edges());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Rmat::new(RMAT_COMBOS[3], 512, 2_000, 42).generate();
        let b = Rmat::new(RMAT_COMBOS[3], 512, 2_000, 42).generate();
        assert_eq!(a.edges(), b.edges());
        let c = Rmat::new(RMAT_COMBOS[3], 512, 2_000, 43).generate();
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn skewed_params_make_skewed_degrees() {
        // C9 (a=0.70) should be much more skewed than C1 (a=0.35).
        let flat = Rmat::new(RMAT_COMBOS[0], 1 << 11, 20_000, 1).generate();
        let skew = Rmat::new(RMAT_COMBOS[8], 1 << 11, 20_000, 1).generate();
        let d_flat = DegreeTable::compute(&flat).out_moments;
        let d_skew = DegreeTable::compute(&skew).out_moments;
        assert!(d_skew.max > d_flat.max, "skewed max {} vs flat max {}", d_skew.max, d_flat.max);
    }

    #[test]
    fn non_power_of_two_vertex_counts_fold_in_range() {
        let g = Rmat::new(RMAT_COMBOS[5], 1_000, 3_000, 5).generate();
        assert_eq!(g.num_vertices(), 1_000);
        assert!(g.edges().iter().all(|e| (e.src as usize) < 1_000 && (e.dst as usize) < 1_000));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_params_rejected() {
        let _ = RmatParams::new(0.5, 0.5, 0.5, 0.5);
    }
}
