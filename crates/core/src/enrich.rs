//! Training-data enrichment (paper Sec. V-D): when the synthetically
//! trained quality predictor shows weak spots for a graph type, profile a
//! few real graphs of that type and add them to the training set.
//!
//! The paper enriches with 96 wiki graphs at levels {19, 38, 57, 76, 96},
//! repeats each random selection three times, pins the model family to RFR
//! (XGB is marginally better but ~140× slower to retrain), and reports the
//! per-type MAPE curves (Fig. 8) and the enriched heatmap (Fig. 7b).

use crate::evaluation::{mape_by_type_of, quality_pairs};
use crate::predictors::QualityPredictor;
use crate::profiling::ProfileRun;
use ease_graph::hash::SplitMix64;
use ease_graph::PropertyTier;
use ease_graphgen::realworld::GraphType;
use ease_ml::ModelConfig;
use ease_partition::QualityTarget;

/// One measured point of the enrichment sweep.
#[derive(Debug, Clone)]
pub struct EnrichmentPoint {
    /// Number of enrichment graphs added.
    pub n_graphs: usize,
    /// Repetition index (random subset draw).
    pub rep: usize,
    /// MAPE per graph type on the test set.
    pub mape_by_type: Vec<(GraphType, f64)>,
    /// MAPE across all test runs.
    pub mape_all: f64,
}

impl EnrichmentPoint {
    pub fn mape_of(&self, t: GraphType) -> Option<f64> {
        self.mape_by_type.iter().find(|(g, _)| *g == t).map(|(_, m)| *m)
    }
}

/// Select a random subset of `n` distinct pool graphs (graph rows) and
/// return their runs, in pool order.
pub fn draw_enrichment_subset(pool: &[ProfileRun], n_graphs: usize, seed: u64) -> Vec<ProfileRun> {
    let graphs: Vec<&[ProfileRun]> = pool.chunk_by(ProfileRun::same_graph).collect();
    let mut picks: Vec<usize> = (0..graphs.len()).collect();
    let mut rng = SplitMix64::new(seed ^ 0xE021);
    // partial Fisher–Yates for the first n picks
    let n = n_graphs.min(picks.len());
    for i in 0..n {
        let j = i + rng.next_below(picks.len() - i);
        picks.swap(i, j);
    }
    picks.truncate(n);
    picks.sort_unstable();
    picks.into_iter().flat_map(|i| graphs[i]).cloned().collect()
}

/// Train a fixed-model quality predictor for `targets` on base ∪ enrichment
/// runs.
pub fn train_enriched(
    base: &[ProfileRun],
    enrichment: &[ProfileRun],
    tier: PropertyTier,
    config: &ModelConfig,
    targets: &[QualityTarget],
) -> QualityPredictor {
    let mut combined: Vec<ProfileRun> = Vec::with_capacity(base.len() + enrichment.len());
    combined.extend_from_slice(base);
    combined.extend_from_slice(enrichment);
    QualityPredictor::train_fixed(&combined, tier, config, targets)
}

/// The full Fig. 8 sweep: for each enrichment size and repetition, retrain
/// `target`'s model — the only one the sweep scores — and measure its
/// per-type MAPE on the test runs.
#[allow(clippy::too_many_arguments)]
pub fn enrichment_sweep(
    base: &[ProfileRun],
    pool: &[ProfileRun],
    test: &[ProfileRun],
    sizes: &[usize],
    repetitions: usize,
    tier: PropertyTier,
    config: &ModelConfig,
    target: QualityTarget,
    seed: u64,
) -> Vec<EnrichmentPoint> {
    let mut points = Vec::new();
    for &size in sizes {
        let reps = if size == 0 { 1 } else { repetitions };
        for rep in 0..reps {
            let subset = if size == 0 {
                Vec::new()
            } else {
                draw_enrichment_subset(pool, size, seed ^ (size as u64) << 8 ^ rep as u64)
            };
            let qp = train_enriched(base, &subset, tier, config, &[target]);
            let pairs = quality_pairs(&qp, test, target);
            points.push(EnrichmentPoint {
                n_graphs: size,
                rep,
                mape_by_type: mape_by_type_of(test, &pairs),
                mape_all: ease_ml::metrics::mape(&pairs.0, &pairs.1),
            });
        }
    }
    points
}

/// Mean and standard deviation of MAPE across repetitions for a given size
/// and graph type (`None` type = the "all" curve).
pub fn aggregate_point(
    points: &[EnrichmentPoint],
    size: usize,
    graph_type: Option<GraphType>,
) -> Option<(f64, f64)> {
    let values: Vec<f64> = points
        .iter()
        .filter(|p| p.n_graphs == size)
        .filter_map(|p| match graph_type {
            Some(t) => p.mape_of(t),
            None => Some(p.mape_all),
        })
        .collect();
    if values.is_empty() {
        return None;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    Some((mean, var.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::{profile_quality_with, GraphInput, TimingMode};
    use ease_graphgen::realworld::{generate_typed, GraphType};
    use ease_graphgen::Scale;
    use ease_partition::PartitionerId;

    fn runs_for(graph_type: GraphType, count: usize, seed: u64) -> Vec<ProfileRun> {
        let inputs: Vec<GraphInput> = (0..count)
            .map(|i| GraphInput::Materialized(generate_typed(graph_type, i, Scale::Tiny, seed)))
            .collect();
        profile_quality_with(
            &inputs,
            &[PartitionerId::Dbh, PartitionerId::TwoPs],
            &[4],
            seed,
            TimingMode::Measured,
        )
    }

    #[test]
    fn subset_draw_selects_distinct_graphs() {
        let pool = runs_for(GraphType::Wiki, 6, 1);
        let subset = draw_enrichment_subset(&pool, 3, 42);
        assert_eq!(subset.chunk_by(ProfileRun::same_graph).count(), 3);
        // all runs of a chosen graph come along
        assert_eq!(subset.len(), 3 * 2);
        // deterministic
        let again = draw_enrichment_subset(&pool, 3, 42);
        assert_eq!(subset.len(), again.len());
    }

    #[test]
    fn enrichment_reduces_error_on_target_type() {
        // Base training on SOCIAL graphs only; test on WIKI graphs. Adding
        // wiki graphs to training must cut the wiki MAPE.
        let base = runs_for(GraphType::Social, 8, 2);
        let pool = runs_for(GraphType::Wiki, 8, 3);
        let test = runs_for(GraphType::Wiki, 5, 4);
        let cfg = ModelConfig::Forest { n_trees: 30, max_depth: 12, feature_fraction: 0.8 };
        let points = enrichment_sweep(
            &base,
            &pool,
            &test,
            &[0, 8],
            1,
            PropertyTier::Basic,
            &cfg,
            QualityTarget::ReplicationFactor,
            7,
        );
        let before = points.iter().find(|p| p.n_graphs == 0).unwrap().mape_all;
        let after = points.iter().find(|p| p.n_graphs == 8).unwrap().mape_all;
        assert!(
            after < before,
            "enrichment should reduce wiki MAPE: before {before:.3} after {after:.3}"
        );
    }

    #[test]
    fn aggregate_computes_mean_and_std() {
        let points = vec![
            EnrichmentPoint { n_graphs: 5, rep: 0, mape_by_type: vec![], mape_all: 0.2 },
            EnrichmentPoint { n_graphs: 5, rep: 1, mape_by_type: vec![], mape_all: 0.4 },
        ];
        let (mean, std) = aggregate_point(&points, 5, None).unwrap();
        assert!((mean - 0.3).abs() < 1e-12);
        assert!((std - 0.1).abs() < 1e-12);
        assert!(aggregate_point(&points, 9, None).is_none());
    }
}
