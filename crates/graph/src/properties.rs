//! Graph property extraction — the feature tiers of Table III.
//!
//! The paper distinguishes three feature sets:
//!
//! * **Simple**: `|E|`, `|V|` — cheap, used by the processing-time predictor.
//! * **Basic**: simple + mean degree, density, in-degree skewness,
//!   out-degree skewness — used by quality & time predictors.
//! * **Advanced**: basic + average triangles + average local clustering
//!   coefficient — compute-intensive, optionally improves RF prediction.
//!   Both come from one run of the source-fed kernel in [`crate::triangles`],
//!   which ranks by the basic tier's degree table and builds no undirected
//!   CSR.
//!
//! Extraction is [`crate::PreparedGraph::properties`]: every tier reads the
//! context's memoized structures.

/// Which tier of features to compute / use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyTier {
    Simple,
    Basic,
    Advanced,
}

impl PropertyTier {
    pub const ALL: [PropertyTier; 3] =
        [PropertyTier::Simple, PropertyTier::Basic, PropertyTier::Advanced];

    pub fn name(self) -> &'static str {
        match self {
            PropertyTier::Simple => "simple",
            PropertyTier::Basic => "basic",
            PropertyTier::Advanced => "advanced",
        }
    }

    /// The byte every binary format (saved services, the serve wire)
    /// stores a tier as: its position in [`Self::ALL`].
    pub fn tag(self) -> u8 {
        self as u8
    }

    pub fn from_tag(tag: u8) -> Option<PropertyTier> {
        Self::ALL.get(usize::from(tag)).copied()
    }
}

/// Extracted graph properties (paper Sec. II-B).
///
/// `avg_triangles`/`avg_lcc` are `None` unless the advanced tier was
/// requested — they are the only super-linear-cost features.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProperties {
    pub num_vertices: usize,
    pub num_edges: usize,
    /// `|E| / (|V|·(|V|−1))`
    pub density: f64,
    /// `2|E| / |V|`
    pub mean_degree: f64,
    /// Pearson's first skewness of the in-degree distribution.
    pub in_degree_skew: f64,
    /// Pearson's first skewness of the out-degree distribution.
    pub out_degree_skew: f64,
    /// Average number of triangles per vertex (advanced tier only).
    pub avg_triangles: Option<f64>,
    /// Average local clustering coefficient (advanced tier only).
    pub avg_lcc: Option<f64>,
}

impl GraphProperties {
    /// Feature vector for a given tier; panics if the tier requires advanced
    /// values that were not computed. Order is stable and documented:
    /// simple  = [|E|, |V|]
    /// basic   = simple + [mean_degree, density, in_skew, out_skew]
    /// advanced= basic + [avg_triangles, avg_lcc]
    pub fn feature_vector(&self, tier: PropertyTier) -> Vec<f64> {
        let mut v = vec![self.num_edges as f64, self.num_vertices as f64];
        if matches!(tier, PropertyTier::Basic | PropertyTier::Advanced) {
            v.extend([self.mean_degree, self.density, self.in_degree_skew, self.out_degree_skew]);
        }
        if matches!(tier, PropertyTier::Advanced) {
            v.push(self.avg_triangles.expect("advanced properties not computed"));
            v.push(self.avg_lcc.expect("advanced properties not computed"));
        }
        v
    }

    /// Column names matching [`Self::feature_vector`].
    pub fn feature_names(tier: PropertyTier) -> Vec<&'static str> {
        let mut v = vec!["num_edges", "num_vertices"];
        if matches!(tier, PropertyTier::Basic | PropertyTier::Advanced) {
            v.extend(["mean_degree", "density", "in_degree_skew", "out_degree_skew"]);
        }
        if matches!(tier, PropertyTier::Advanced) {
            v.extend(["avg_triangles", "avg_lcc"]);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::Graph;
    use crate::prepared::PreparedGraph;

    fn triangle_graph() -> Graph {
        Graph::from_pairs([(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn density_and_mean_degree() {
        let p = PreparedGraph::of(&triangle_graph()).properties(PropertyTier::Basic);
        assert!((p.density - 3.0 / 6.0).abs() < 1e-12);
        assert!((p.mean_degree - 2.0).abs() < 1e-12);
    }

    #[test]
    fn advanced_tier_fills_triangles() {
        let p = PreparedGraph::of(&triangle_graph()).properties(PropertyTier::Advanced);
        assert_eq!(p.avg_triangles, Some(1.0));
        assert_eq!(p.avg_lcc, Some(1.0));
    }

    #[test]
    fn basic_tier_leaves_advanced_none() {
        let p = PreparedGraph::of(&triangle_graph()).properties(PropertyTier::Basic);
        assert!(p.avg_triangles.is_none());
        assert!(p.avg_lcc.is_none());
    }

    #[test]
    fn feature_vector_lengths_match_names() {
        let p = PreparedGraph::of(&triangle_graph()).properties(PropertyTier::Advanced);
        for tier in PropertyTier::ALL {
            assert_eq!(p.feature_vector(tier).len(), GraphProperties::feature_names(tier).len());
        }
        assert_eq!(p.feature_vector(PropertyTier::Simple).len(), 2);
        assert_eq!(p.feature_vector(PropertyTier::Basic).len(), 6);
        assert_eq!(p.feature_vector(PropertyTier::Advanced).len(), 8);
    }

    #[test]
    #[should_panic(expected = "advanced properties not computed")]
    fn advanced_vector_requires_advanced_compute() {
        let p = PreparedGraph::of(&triangle_graph()).properties(PropertyTier::Basic);
        let _ = p.feature_vector(PropertyTier::Advanced);
    }

    #[test]
    fn skew_positive_for_star() {
        // Star: hub has out-degree n-1, leaves 0 -> out-degree distribution
        // is right-skewed (mean > mode = 0).
        let g = Graph::from_pairs((1..40u32).map(|i| (0u32, i)));
        let p = PreparedGraph::of(&g).properties(PropertyTier::Basic);
        assert!(p.out_degree_skew > 0.0);
    }

    #[test]
    fn singleton_graph_is_degenerate_but_finite() {
        let p = PreparedGraph::of(&Graph::empty(1)).properties(PropertyTier::Advanced);
        assert_eq!(p.density, 0.0);
        assert_eq!(p.mean_degree, 0.0);
        assert!(p.feature_vector(PropertyTier::Advanced).iter().all(|x| x.is_finite()));
    }
}
