//! Training corpora: the (V, E) grids of Table Ia (R-MAT-SMALL, 297 graphs,
//! quality-predictor training) and Table Ib (R-MAT-LARGE, 180 graphs,
//! time-predictor training), plus the Barabási–Albert sweep of Sec. IV-A.
//!
//! The paper's edge counts (1 M – 200 M / 100 M – 500 M) are scaled down by a
//! power-of-two factor while *preserving every (|V|, |E|) ratio*, so mean
//! degrees and densities — the features the models learn from — span the
//! same ranges as in the paper. The grid structure (33 + 20 combos × 9
//! R-MAT parameter combinations) is preserved exactly.

use crate::rmat::{Rmat, RmatParams, RMAT_COMBOS};
use ease_graph::Graph;

/// Experiment scale. `log2_factor` is how many powers of two the paper's
/// sizes are divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ÷16384 — unit/integration tests (largest graphs ≈ 12 k edges).
    Tiny,
    /// ÷4096 — default for experiment binaries (largest ≈ 49 k edges).
    Small,
    /// ÷1024 — overnight-quality runs (largest ≈ 195 k edges).
    Medium,
}

impl Scale {
    pub fn log2_factor(self) -> u32 {
        match self {
            Scale::Tiny => 14,
            Scale::Small => 12,
            Scale::Medium => 10,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
        }
    }

    /// Parse from a CLI/env string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            _ => None,
        }
    }
}

/// A lazily generated R-MAT corpus entry. Corpora hold specs rather than
/// materialized graphs so profiling loops can generate → measure → drop one
/// graph at a time (the Small corpus would otherwise hold ~10 M edges live).
#[derive(Debug, Clone)]
pub struct RmatSpec {
    pub name: String,
    /// Index into [`RMAT_COMBOS`] (0-based; paper's C1..C9).
    pub combo_index: usize,
    pub params: RmatParams,
    pub num_vertices: usize,
    pub num_edges: usize,
    pub seed: u64,
}

impl RmatSpec {
    pub fn generate(&self) -> Graph {
        Rmat::new(self.params, self.num_vertices, self.num_edges, self.seed).generate()
    }
}

const MIN_VERTICES_LOG2: u32 = 6;

/// Table Ia — R-MAT-SMALL: paper rows `(|E| in M, |V| exponents)`.
const SMALL_GRID: [(usize, &[u32]); 6] = [
    (1_000_000, &[15, 16, 17, 18, 19]),
    (40_000_000, &[21, 22, 23, 24, 25]),
    (80_000_000, &[21, 22, 23, 24, 25, 26]),
    (120_000_000, &[22, 23, 24, 25, 26]),
    (160_000_000, &[22, 23, 24, 25, 26, 27]),
    (200_000_000, &[22, 23, 24, 25, 26, 27]),
];

/// Table Ib — R-MAT-LARGE: paper rows `(|E| in M, |V| in M)`.
const LARGE_GRID: [(usize, [f64; 4]); 5] = [
    (100_000_000, [1.8, 2.5, 4.0, 10.0]),
    (200_000_000, [3.6, 5.0, 8.0, 20.0]),
    (300_000_000, [5.4, 7.5, 12.0, 30.0]),
    (400_000_000, [7.3, 10.0, 16.0, 40.0]),
    (500_000_000, [9.1, 12.5, 20.0, 50.0]),
];

/// The 297 R-MAT-SMALL specs (Table Ia × Table II) at the given scale.
pub fn rmat_small_corpus(scale: Scale) -> Vec<RmatSpec> {
    let f = scale.log2_factor();
    let mut specs = Vec::with_capacity(297);
    let mut seed = 0x5EA5_0001u64;
    for (paper_edges, v_exponents) in SMALL_GRID {
        let num_edges = (paper_edges >> f).max(64);
        for &ve in v_exponents {
            let num_vertices = 1usize << ve.saturating_sub(f).max(MIN_VERTICES_LOG2);
            for (ci, params) in RMAT_COMBOS.iter().enumerate() {
                specs.push(RmatSpec {
                    // paper exponent kept in the name: vertex clamping at
                    // small scales would otherwise collide names
                    name: format!("rmat-small-e{num_edges}-x{ve}-v{num_vertices}-c{}", ci + 1),
                    combo_index: ci,
                    params: *params,
                    num_vertices,
                    num_edges,
                    seed,
                });
                seed = seed.wrapping_add(0x9E37_79B9);
            }
        }
    }
    specs
}

/// The 180 R-MAT-LARGE specs (Table Ib × Table II) at the given scale.
pub fn rmat_large_corpus(scale: Scale) -> Vec<RmatSpec> {
    let f = scale.log2_factor();
    let mut specs = Vec::with_capacity(180);
    let mut seed = 0x5EA5_1001u64;
    for (paper_edges, v_millions) in LARGE_GRID {
        let num_edges = (paper_edges >> f).max(256);
        for vm in v_millions {
            let paper_vertices = (vm * 1e6) as usize;
            let num_vertices = (paper_vertices >> f).max(1 << MIN_VERTICES_LOG2);
            for (ci, params) in RMAT_COMBOS.iter().enumerate() {
                specs.push(RmatSpec {
                    name: format!("rmat-large-e{num_edges}-pv{}-v{num_vertices}-c{}", vm, ci + 1),
                    combo_index: ci,
                    params: *params,
                    num_vertices,
                    num_edges,
                    seed,
                });
                seed = seed.wrapping_add(0x9E37_79B9);
            }
        }
    }
    specs
}

/// The Fig. 6(f) subset: |E| = 160 M row of Table Ia (all |V|, all combos).
pub fn fig6f_corpus(scale: Scale) -> Vec<RmatSpec> {
    let e = (160_000_000usize >> scale.log2_factor()).max(64);
    rmat_small_corpus(scale)
        .into_iter()
        .filter(|s| s.name.starts_with("rmat-small-") && s.num_edges == e)
        .collect()
}

/// The 70-graph Barabási–Albert sweep of Sec. IV-A: paper uses |V| = 1 M and
/// m ∈ {1..70}; we scale |V| and keep the m sweep so average degree still
/// spans 2..140.
pub fn ba_sweep(scale: Scale) -> Vec<(String, crate::ba::BarabasiAlbert)> {
    let num_vertices = (1_000_000usize >> scale.log2_factor()).max(256);
    (1..=70)
        .map(|m| {
            (
                format!("ba-v{num_vertices}-m{m}"),
                crate::ba::BarabasiAlbert::new(num_vertices, m, 0xBA5E + m as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_has_297_specs() {
        for scale in [Scale::Tiny, Scale::Small] {
            let c = rmat_small_corpus(scale);
            assert_eq!(c.len(), 297, "scale {scale:?}");
        }
    }

    #[test]
    fn large_corpus_has_180_specs() {
        assert_eq!(rmat_large_corpus(Scale::Tiny).len(), 180);
    }

    #[test]
    fn specs_have_unique_names_and_seeds() {
        let c = rmat_small_corpus(Scale::Tiny);
        let names: std::collections::HashSet<_> = c.iter().map(|s| &s.name).collect();
        assert_eq!(names.len(), c.len());
        let seeds: std::collections::HashSet<_> = c.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), c.len());
    }

    #[test]
    fn mean_degree_ratios_preserved_on_unclamped_rows() {
        // Paper: E=160M, V=2^22 -> mean degree 2*160M/2^22 ≈ 76.3. Rows whose
        // vertex exponent stays above the clamp must preserve that ratio
        // exactly; the tiniest rows are allowed to deviate (documented clamp).
        let c = rmat_small_corpus(Scale::Small);
        let e = 160_000_000usize >> Scale::Small.log2_factor();
        let spec = c
            .iter()
            .find(|s| s.num_edges == e && s.num_vertices == 1 << (22 - 12))
            .expect("160M/2^22 row present");
        let paper_ratio = 2.0 * 160e6 / (1u64 << 22) as f64;
        let ours = 2.0 * spec.num_edges as f64 / spec.num_vertices as f64;
        assert!((ours / paper_ratio - 1.0).abs() < 0.05, "ratio ours={ours} paper={paper_ratio}");
    }

    #[test]
    fn tiny_spec_generates_quickly() {
        let c = rmat_small_corpus(Scale::Tiny);
        let g = c[0].generate();
        assert_eq!(g.num_edges(), c[0].num_edges);
    }

    #[test]
    fn fig6f_selects_the_160m_row() {
        let c = fig6f_corpus(Scale::Tiny);
        assert_eq!(c.len(), 6 * 9);
        let e = 160_000_000usize >> Scale::Tiny.log2_factor();
        assert!(c.iter().all(|s| s.num_edges == e));
    }

    #[test]
    fn ba_sweep_has_70_generators() {
        let s = ba_sweep(Scale::Tiny);
        assert_eq!(s.len(), 70);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("TINY"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), None);
    }
}
