//! End-to-end training pipeline: corpora → profiling → model selection →
//! a trained [`Ease`] system (paper Fig. 5).

use crate::error::EaseError;
use crate::predictors::{PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor};
use crate::profiling::{
    profile_processing_with, profile_quality_with, GraphInput, ProfileRun, TimingMode,
};
use crate::selector::Ease;
use ease_graph::PropertyTier;
use ease_graphgen::grids::{rmat_large_corpus, rmat_small_corpus, Scale};
use ease_ml::{zoo, ModelConfig};
use ease_partition::{PartitionerId, MAX_PARTITIONS};
use ease_procsim::Workload;
use std::borrow::Cow;

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

    /// Reject a configuration training cannot use: fewer than two folds,
    /// an empty grid, catalog or workload list, a partition count outside
    /// `2..=MAX_PARTITIONS`, a corpus cap of zero, or two workloads sharing
    /// a name (processing profiles and models are keyed by the name).
    pub(crate) fn validate(&self) -> Result<(), EaseError> {
        let bad = |msg: String| Err(EaseError::InvalidConfig(msg));
        if self.folds < 2 {
            return bad(format!("cross-validation needs >= 2 folds, got {}", self.folds));
        }
        if self.grid.is_empty() {
            return bad("model grid is empty".into());
        }
        if self.ks.is_empty() {
            return bad("no partition counts (ks) to profile".into());
        }
        let mut ks = self.ks.iter().chain([&self.processing_k]);
        if let Some(k) = ks.find(|k| !(2..=MAX_PARTITIONS).contains(k)) {
            let what = "partition counts and processing_k";
            return bad(format!("{what} must be in 2..={MAX_PARTITIONS}, got {k}"));
        }
        if self.partitioners.is_empty() {
            return bad("no candidate partitioners".into());
        }
        if self.workloads.is_empty() {
            return bad("no training workloads".into());
        }
        let mut names = std::collections::HashSet::new();
        if let Some(w) = self.workloads.iter().find(|w| !names.insert(w.name())) {
            return bad(format!("workload name {:?} appears more than once", w.name()));
        }
        if self.max_small_graphs == Some(0) || self.max_large_graphs == Some(0) {
            return bad("graph-corpus caps must be >= 1".into());
        }
        Ok(())
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
    pub quality_runs: Vec<ProfileRun>,
    pub processing_runs: Vec<ProfileRun>,
}

/// Run the full pipeline: validate the configuration, profile both
/// corpora, select + train the three predictors, assemble the system. A
/// configuration training cannot use is an [`EaseError::InvalidConfig`]
/// before anything is profiled.
pub fn train_ease(cfg: &EaseConfig) -> Result<(Ease, TrainingArtifacts), EaseError> {
    cfg.validate()?;
    let quality_runs =
        profile_quality_with(&cfg.small_inputs(), &cfg.partitioners, &cfg.ks, cfg.seed, cfg.timing);
    let processing_runs = profile_processing_with(
        &cfg.large_inputs(),
        &cfg.partitioners,
        cfg.processing_k,
        &cfg.workloads,
        cfg.seed ^ 0x9A,
        cfg.timing,
    );
    let quality = QualityPredictor::train(&quality_runs, cfg.tier, &cfg.grid, cfg.folds, cfg.seed);
    // Partitioning time is trained on the larger graphs (paper Sec. IV-A):
    // each processing run is one partitioning, measured once.
    let partitioning_time =
        PartitioningTimePredictor::train(&processing_runs, &cfg.grid, cfg.folds, cfg.seed);
    let processing_time =
        ProcessingTimePredictor::train(&processing_runs, &cfg.grid, cfg.folds, cfg.seed);
    let mut ease = Ease::new(quality, partitioning_time, processing_time);
    ease.catalog = cfg.partitioners.clone();
    Ok((ease, TrainingArtifacts { quality_runs, processing_runs }))
}

/// `runs` itself, borrowed: a processing run is already one partitioning
/// run. Only `ease-bench`'s `train-tiny` workload names this, and ROADMAP
/// item 1a deletes it with the `_pooled` forwards. It is a `Cow`, not the
/// slice, because `train-tiny` borrows what it returns, which
/// `clippy::needless_borrow` rejects on a reference.
pub fn dedup_partition_runs(runs: &[ProfileRun]) -> Cow<'_, [ProfileRun]> {
    Cow::Borrowed(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::OptGoal;
    use ease_graph::PreparedGraph;

    #[test]
    fn train_ease_rejects_invalid_configs_before_profiling() {
        // `Medium` profiles for minutes: an answer in well under a second
        // is one given before any graph was profiled
        let repeated_name = EaseConfig {
            workloads: vec![
                Workload::PageRank { iterations: 3 },
                Workload::PageRank { iterations: 10 },
            ],
            ..EaseConfig::at_scale(Scale::Medium)
        };
        let one_fold = EaseConfig { folds: 1, ..EaseConfig::at_scale(Scale::Medium) };
        for cfg in [repeated_name, one_fold] {
            let start = std::time::Instant::now();
            let err = train_ease(&cfg).err().expect("an invalid config does not train");
            assert!(matches!(err, EaseError::InvalidConfig(_)), "{err:?}");
            assert!(start.elapsed() < std::time::Duration::from_secs(1), "{:?}", start.elapsed());
        }
    }

    #[test]
    fn tiny_pipeline_trains_and_selects() {
        let mut cfg = EaseConfig::at_scale(Scale::Tiny);
        // shrink further for test speed
        cfg.max_small_graphs = Some(8);
        cfg.max_large_graphs = Some(4);
        cfg.ks = vec![2, 4];
        cfg.partitioners = vec![PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne];
        cfg.workloads = vec![Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents];
        let (ease, artifacts) = train_ease(&cfg).expect("valid config");
        assert_eq!(artifacts.quality_runs.len(), 8 * 3 * 2);
        assert_eq!(artifacts.processing_runs.len(), 4 * 3);
        assert!(artifacts.processing_runs.iter().all(|r| r.workloads.len() == 2));
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
        let runs = profile_processing_with(
            &cfg.large_inputs(),
            &cfg.partitioners,
            2,
            &cfg.workloads,
            1,
            TimingMode::Measured,
        );
        let deduped = dedup_partition_runs(&runs);
        assert_eq!(deduped.len(), 2); // 2 graphs × 1 partitioner
    }
}
