//! End-to-end training pipeline: corpora → profiling → model selection →
//! a trained [`Ease`] system (paper Fig. 5).

use crate::predictors::{PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor};
use crate::profiling::{
    profile_processing_pooled, profile_quality_pooled, GraphInput, PreparedPool, ProcessingRecord,
    QualityRecord, TimingMode,
};
use crate::selector::Ease;
use ease_graph::PropertyTier;
use ease_graphgen::grids::{rmat_large_corpus, rmat_small_corpus, Scale};
use ease_ml::{zoo, ModelConfig};
use ease_partition::PartitionerId;
use ease_procsim::Workload;

/// Pipeline configuration. [`EaseConfig::at_scale`] provides calibrated
/// defaults; every field can be overridden.
#[derive(Debug, Clone)]
pub struct EaseConfig {
    pub scale: Scale,
    /// Partition counts profiled for the quality predictor (paper:
    /// K = {4, 8, 16, 32, 64, 128}).
    pub ks: Vec<usize>,
    /// Partition count for the processing runs (paper: 4).
    pub processing_k: usize,
    /// Cross-validation folds (paper: 5).
    pub folds: usize,
    pub grid: Vec<ModelConfig>,
    pub tier: PropertyTier,
    pub partitioners: Vec<PartitionerId>,
    pub workloads: Vec<Workload>,
    /// Cap the R-MAT-SMALL corpus (None = all 297 graphs).
    pub max_small_graphs: Option<usize>,
    /// Cap the R-MAT-LARGE corpus (None = all 180 graphs).
    pub max_large_graphs: Option<usize>,
    pub seed: u64,
    /// Wall-clock measurement (paper-faithful, default) or a reproducible
    /// analytical proxy for partitioning times — see [`TimingMode`].
    pub timing: TimingMode,
}

impl EaseConfig {
    /// Calibrated defaults per scale. `Tiny` trains a small but complete
    /// pipeline in seconds (tests); `Small` is the experiment default;
    /// `Medium` approaches the paper's grid dimensions.
    pub fn at_scale(scale: Scale) -> Self {
        let (ks, folds, grid, max_small, max_large) = match scale {
            Scale::Tiny => (vec![2, 4, 8], 3, zoo::quick_grid(), Some(24), Some(10)),
            Scale::Small => (vec![4, 16, 64], 5, zoo::default_grid(), None, None),
            Scale::Medium => (vec![4, 8, 16, 32, 64, 128], 5, zoo::default_grid(), None, None),
        };
        EaseConfig {
            scale,
            ks,
            processing_k: 4,
            folds,
            grid,
            tier: PropertyTier::Basic,
            partitioners: PartitionerId::ALL.to_vec(),
            workloads: Workload::all_training().to_vec(),
            max_small_graphs: max_small,
            max_large_graphs: max_large,
            seed: 0xEA5E,
            timing: TimingMode::Measured,
        }
    }

    /// The R-MAT-SMALL inputs (quality-predictor training).
    pub fn small_inputs(&self) -> Vec<GraphInput> {
        let mut specs = rmat_small_corpus(self.scale);
        if let Some(cap) = self.max_small_graphs {
            // stride-subsample to keep grid diversity
            specs = stride_cap(specs, cap);
        }
        GraphInput::from_specs(specs)
    }

    /// The R-MAT-LARGE inputs (time-predictor training).
    pub fn large_inputs(&self) -> Vec<GraphInput> {
        let mut specs = rmat_large_corpus(self.scale);
        if let Some(cap) = self.max_large_graphs {
            specs = stride_cap(specs, cap);
        }
        GraphInput::from_specs(specs)
    }
}

fn stride_cap<T>(items: Vec<T>, cap: usize) -> Vec<T> {
    if items.len() <= cap {
        return items;
    }
    let stride = items.len() as f64 / cap as f64;
    let mut picks: Vec<usize> = (0..cap).map(|i| (i as f64 * stride) as usize).collect();
    picks.dedup();
    let mut out = Vec::with_capacity(picks.len());
    let mut iter = items.into_iter().enumerate();
    let mut want = picks.into_iter().peekable();
    while let (Some(&next), Some((idx, item))) = (want.peek(), iter.next()) {
        if idx == next {
            out.push(item);
            want.next();
        }
    }
    out
}

/// Everything the training produced besides the models — kept for
/// evaluation and enrichment studies.
pub struct TrainingArtifacts {
    pub quality_records: Vec<QualityRecord>,
    pub processing_records: Vec<ProcessingRecord>,
}

/// Run the full pipeline: profile both corpora, select + train the three
/// predictors, assemble the system.
pub fn train_ease(cfg: &EaseConfig) -> (Ease, TrainingArtifacts) {
    let small = cfg.small_inputs();
    let large = cfg.large_inputs();
    // Specs present in both corpora are generated + prepared once total
    // and shared between the quality and processing passes; the pool is
    // dropped (with its contexts) as soon as profiling ends.
    let pool = PreparedPool::for_overlap(&small, &large);
    let quality_records =
        profile_quality_pooled(&small, &cfg.partitioners, &cfg.ks, cfg.seed, cfg.timing, &pool);
    let processing_records = profile_processing_pooled(
        &large,
        &cfg.partitioners,
        cfg.processing_k,
        &cfg.workloads,
        cfg.seed ^ 0x9A,
        cfg.timing,
        &pool,
    );
    drop(pool);
    let quality =
        QualityPredictor::train(&quality_records, cfg.tier, &cfg.grid, cfg.folds, cfg.seed);
    // Partitioning time is trained on the larger graphs (paper Sec. IV-A);
    // the processing records carry the same measurements.
    let ptime_records: Vec<QualityRecord> = dedup_partition_runs(&processing_records);
    let partitioning_time =
        PartitioningTimePredictor::train(&ptime_records, &cfg.grid, cfg.folds, cfg.seed);
    let processing_time =
        ProcessingTimePredictor::train(&processing_records, &cfg.grid, cfg.folds, cfg.seed);
    let mut ease = Ease::new(quality, partitioning_time, processing_time);
    ease.catalog = cfg.partitioners.clone();
    (ease, TrainingArtifacts { quality_records, processing_records })
}

/// Collapse processing records (one per workload) into one partitioning-run
/// record per (graph, partitioner).
pub fn dedup_partition_runs(records: &[ProcessingRecord]) -> Vec<QualityRecord> {
    let mut seen: std::collections::HashSet<(String, PartitionerId)> = Default::default();
    let mut out = Vec::new();
    for r in records {
        if seen.insert((r.graph_name.clone(), r.partitioner)) {
            out.push(QualityRecord {
                graph_name: r.graph_name.clone(),
                graph_type: r.graph_type,
                props: r.props.clone(),
                partitioner: r.partitioner,
                k: r.k,
                metrics: r.metrics,
                partitioning_secs: r.partitioning_secs,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::OptGoal;
    use ease_graph::PreparedGraph;

    #[test]
    fn tiny_pipeline_trains_and_selects() {
        let mut cfg = EaseConfig::at_scale(Scale::Tiny);
        // shrink further for test speed
        cfg.max_small_graphs = Some(8);
        cfg.max_large_graphs = Some(4);
        cfg.ks = vec![2, 4];
        cfg.partitioners = vec![PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne];
        cfg.workloads = vec![Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents];
        let (ease, artifacts) = train_ease(&cfg);
        assert_eq!(artifacts.quality_records.len(), 8 * 3 * 2);
        assert_eq!(artifacts.processing_records.len(), 4 * 3 * 2);
        let g = ease_graphgen::realworld::socfb_analogue(Scale::Tiny, 5).graph;
        let props = PreparedGraph::of(&g).properties(PropertyTier::Advanced);
        for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
            let sel =
                ease.try_select(&props, Workload::PageRank { iterations: 3 }, 4, goal).unwrap();
            assert!(cfg.partitioners.contains(&sel.best));
            assert_eq!(sel.candidates.len(), 3);
            for c in &sel.candidates {
                assert!(c.end_to_end_secs >= c.processing_secs);
                assert!(c.quality.replication_factor >= 1.0);
            }
        }
    }

    #[test]
    fn stride_cap_preserves_spread() {
        let items: Vec<usize> = (0..100).collect();
        let capped = stride_cap(items, 10);
        assert_eq!(capped.len(), 10);
        assert_eq!(capped[0], 0);
        assert!(capped[9] >= 80);
    }

    #[test]
    fn dedup_partition_runs_one_per_pair() {
        let cfg = EaseConfig {
            max_large_graphs: Some(2),
            workloads: vec![Workload::PageRank { iterations: 2 }, Workload::ConnectedComponents],
            partitioners: vec![PartitionerId::OneDD],
            ..EaseConfig::at_scale(Scale::Tiny)
        };
        let records = crate::profiling::profile_processing_with(
            &cfg.large_inputs(),
            &cfg.partitioners,
            2,
            &cfg.workloads,
            1,
            TimingMode::Measured,
        );
        let deduped = dedup_partition_runs(&records);
        assert_eq!(deduped.len(), 2); // 2 graphs × 1 partitioner
    }
}
