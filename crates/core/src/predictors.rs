//! The three prediction components of EASE (paper Fig. 4) and their
//! training (step 4 of Fig. 5): per-component model selection across the
//! six ML families with K-fold cross-validation, then retraining the winner
//! on the full training set.
//!
//! A predictor holds one [`Fitted`] per target — the configuration that
//! won, its CV MAPE and the model, in one row keyed by the quality target
//! or the workload name (the partitioning-time predictor has one target
//! and holds one `Fitted`).
//!
//! Each predictor also owns its bytes in a saved service: `encode` /
//! `decode` sit next to the fields they spell, and `decode` checks what
//! the predictor's own lookups rely on (every quality target exactly once,
//! one to 64 known workloads, each once) on top of what each model's
//! `decode` checks for itself.

use crate::features;
use crate::profiling::{ProfileRun, WorkloadCost};
use ease_graph::{GraphProperties, PropertyTier};
use ease_ml::cv::{select_models, LabelGroup, Selection};
use ease_ml::persist::{
    decode_config, decode_regressor, encode_config, PersistError, Reader, Writer,
};
use ease_ml::{Dataset, Matrix, ModelConfig, Regressor};
use ease_partition::{PartitionerId, QualityMetrics, QualityTarget};
use ease_procsim::Workload;

/// Run-times span orders of magnitude, so the time predictors fit
/// `log1p(secs)` and invert at prediction — a standard MAPE-friendly
/// transform (implementation choice documented in DESIGN.md).
fn to_log(secs: f64) -> f64 {
    secs.max(0.0).ln_1p()
}

fn from_log(value: f64) -> f64 {
    // Models extrapolating far outside the training range can emit negative
    // log-space values; a run-time prediction of exactly zero is physically
    // meaningless (and breaks ratio-based selection), so floor at 1 µs.
    value.exp_m1().max(1e-6)
}

/// One target's model: the configuration that won its grid search, that
/// configuration's CV MAPE (NaN where the configuration was pinned, not
/// searched), and the model fitted on the whole training set.
pub struct Fitted {
    pub config: ModelConfig,
    pub cv_mape: f64,
    pub model: Box<dyn Regressor>,
}

impl Fitted {
    fn selected(selection: Selection) -> Self {
        let Selection { search, model } = selection;
        Fitted { config: search.best, cv_mape: search.best_score, model }
    }

    fn encode(&self, w: &mut Writer) {
        encode_config(w, &self.config);
        w.put_f64(self.cv_mape);
        self.model.encode(w);
    }

    /// Inverse of `encode`, for a model fed rows of `width` features.
    fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        Ok(Fitted {
            config: decode_config(r)?,
            cv_mape: r.take_f64()?,
            model: decode_regressor(r, width)?,
        })
    }
}

// ---------------------------------------------------------------------
// PartitioningQualityPredictor
// ---------------------------------------------------------------------

/// Predicts the five partitioning quality metrics for (graph, partitioner,
/// k) triples. One model per target metric, independently selected.
pub struct QualityPredictor {
    pub tier: PropertyTier,
    fitted: Vec<(QualityTarget, Fitted)>,
}

impl QualityPredictor {
    /// The feature rows of `runs` — one matrix, whichever the target.
    fn feature_matrix(runs: &[ProfileRun], tier: PropertyTier) -> Matrix {
        features::quality_matrix(tier, runs.iter().map(|r| (&r.graph.props, r.k, r.partitioner)))
    }

    /// Assemble the training dataset for one quality target.
    pub fn dataset(runs: &[ProfileRun], tier: PropertyTier, target: QualityTarget) -> Dataset {
        Dataset {
            feature_names: features::quality_feature_names(tier),
            x: Self::feature_matrix(runs, tier),
            y: runs.iter().map(|r| r.metrics.get(target)).collect(),
        }
    }

    /// Grid-search each target's model on the training runs (paper: 5-fold
    /// CV), then retrain winners on the full set.
    pub fn train(
        runs: &[ProfileRun],
        tier: PropertyTier,
        grid: &[ModelConfig],
        folds: usize,
        seed: u64,
    ) -> Self {
        Self::train_targets(runs, tier, grid, folds, seed, &QualityTarget::ALL)
    }

    /// [`QualityPredictor::train`] for `targets` only. Each target's
    /// selection does not depend on which others are trained beside it, so
    /// its model is the one `train` fits for it; predicting a target that
    /// was not trained panics, and only a predictor of all five is a
    /// service's.
    pub fn train_targets(
        runs: &[ProfileRun],
        tier: PropertyTier,
        grid: &[ModelConfig],
        folds: usize,
        seed: u64,
        targets: &[QualityTarget],
    ) -> Self {
        assert!(!runs.is_empty(), "no quality training runs");
        // the targets are label vectors over one feature matrix
        let x = Self::feature_matrix(runs, tier);
        let labels: Vec<Vec<f64>> = targets
            .iter()
            .map(|&target| runs.iter().map(|r| r.metrics.get(target)).collect())
            .collect();
        let group = LabelGroup { x: &x, labels: labels.iter().map(Vec::as_slice).collect() };
        let selections = select_models(grid, &[group], folds, seed);
        let fitted = targets.iter().copied().zip(selections.into_iter().map(Fitted::selected));
        QualityPredictor { tier, fitted: fitted.collect() }
    }

    /// Fit a *fixed* model configuration for each of `targets` (used by the
    /// enrichment study, which pins RFR per the paper). A study that scores
    /// one metric fits one model; predicting a target that was not fitted
    /// panics.
    pub fn train_fixed(
        runs: &[ProfileRun],
        tier: PropertyTier,
        config: &ModelConfig,
        targets: &[QualityTarget],
    ) -> Self {
        assert!(!runs.is_empty());
        let x = Self::feature_matrix(runs, tier);
        let fitted = targets
            .iter()
            .map(|&target| {
                let y: Vec<f64> = runs.iter().map(|r| r.metrics.get(target)).collect();
                let mut model = config.build();
                model.fit(&x, &y);
                (target, Fitted { config: config.clone(), cv_mape: f64::NAN, model })
            })
            .collect();
        QualityPredictor { tier, fitted }
    }

    /// The fitted row of each trained target, in training order.
    pub fn fitted(&self) -> &[(QualityTarget, Fitted)] {
        &self.fitted
    }

    fn model(&self, target: QualityTarget) -> &dyn Regressor {
        self.fitted
            .iter()
            .find(|(t, _)| *t == target)
            .map(|(_, f)| f.model.as_ref())
            .expect("a model was fitted for this target")
    }

    /// One metric of each of `runs`, in order: one feature matrix, one
    /// `predict`.
    pub fn predict_target(&self, target: QualityTarget, runs: &[ProfileRun]) -> Vec<f64> {
        let x = Self::feature_matrix(runs, self.tier);
        // quality metrics are ≥ 1 by definition; clamp regressor output
        self.model(target).predict(&x).into_iter().map(|v| v.max(1.0)).collect()
    }

    /// The five metrics of each of `partitioners` on one graph at `k`, in
    /// order: one feature matrix, one `predict` per target's model.
    pub fn predict(
        &self,
        props: &GraphProperties,
        partitioners: &[PartitionerId],
        k: usize,
    ) -> Vec<QualityMetrics> {
        let x = features::quality_matrix(self.tier, partitioners.iter().map(|&p| (props, k, p)));
        let [rf, eb, vb, sb, db] = QualityTarget::ALL.map(|target| self.model(target).predict(&x));
        // quality metrics are ≥ 1 by definition; clamp regressor output
        (0..partitioners.len())
            .map(|i| QualityMetrics {
                replication_factor: rf[i].max(1.0),
                edge_balance: eb[i].max(1.0),
                vertex_balance: vb[i].max(1.0),
                source_balance: sb[i].max(1.0),
                dest_balance: db[i].max(1.0),
            })
            .collect()
    }

    /// Feature importances of `target`'s model, if its family has them.
    pub fn importances(&self, target: QualityTarget) -> Option<Vec<f64>> {
        self.model(target).feature_importances()
    }

    /// Write the trained state: the tier, then per target its tag (its
    /// position in [`QualityTarget::ALL`]), the grid-search provenance and
    /// the fitted model.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tier.tag());
        w.put_usize(self.fitted.len());
        for (target, fitted) in &self.fitted {
            let tag = QualityTarget::ALL.iter().position(|t| t == target);
            w.put_u8(tag.expect("every target is in ALL") as u8);
            fitted.encode(w);
        }
    }

    /// Inverse of [`QualityPredictor::encode`]. `model(target)` expects a
    /// model per target, so the file must carry each of
    /// [`QualityTarget::ALL`] exactly once.
    pub fn decode(r: &mut Reader) -> Result<Self, PersistError> {
        let tier_tag = r.take_u8()?;
        let tier = PropertyTier::from_tag(tier_tag).ok_or_else(|| {
            PersistError::Corrupt(format!("unknown property tier tag {tier_tag}"))
        })?;
        let n_targets = r.take_usize()?;
        if n_targets != QualityTarget::ALL.len() {
            return Err(PersistError::Corrupt(format!(
                "quality predictor carries {n_targets} targets, expected {}",
                QualityTarget::ALL.len()
            )));
        }
        let width = features::quality_feature_names(tier).len();
        let mut fitted: Vec<(QualityTarget, Fitted)> = Vec::with_capacity(n_targets);
        for _ in 0..n_targets {
            let tag = r.take_u8()?;
            let target = *QualityTarget::ALL.get(usize::from(tag)).ok_or_else(|| {
                PersistError::Corrupt(format!("unknown quality target tag {tag}"))
            })?;
            if fitted.iter().any(|(t, _)| *t == target) {
                return Err(PersistError::Corrupt(format!(
                    "quality predictor carries target {} twice",
                    target.name()
                )));
            }
            fitted.push((target, Fitted::decode(r, width)?));
        }
        Ok(QualityPredictor { tier, fitted })
    }
}

// ---------------------------------------------------------------------
// PartitioningTimePredictor
// ---------------------------------------------------------------------

/// Predicts partitioning wall-clock time for (graph, partitioner) pairs.
pub struct PartitioningTimePredictor {
    fitted: Fitted,
}

impl PartitioningTimePredictor {
    pub fn dataset(runs: &[ProfileRun]) -> Dataset {
        Dataset {
            feature_names: features::partitioning_time_feature_names(),
            x: features::partitioning_time_matrix(
                runs.iter().map(|r| (&r.graph.props, r.partitioner)),
            ),
            y: runs.iter().map(|r| to_log(r.partitioning_secs)).collect(),
        }
    }

    pub fn train(runs: &[ProfileRun], grid: &[ModelConfig], folds: usize, seed: u64) -> Self {
        assert!(!runs.is_empty(), "no partitioning runs");
        let ds = Self::dataset(runs);
        let selection = select_models(grid, &[(&ds).into()], folds, seed)
            .pop()
            .expect("one selection per label");
        PartitioningTimePredictor { fitted: Fitted::selected(selection) }
    }

    /// The one fitted model.
    pub fn fitted(&self) -> &Fitted {
        &self.fitted
    }

    /// The partitioning time of each `(props, partitioner)`, in order,
    /// through one `predict`.
    pub fn predict<'a>(
        &self,
        rows: impl IntoIterator<Item = (&'a GraphProperties, PartitionerId)>,
    ) -> Vec<f64> {
        let x = features::partitioning_time_matrix(rows);
        self.fitted.model.predict(&x).into_iter().map(from_log).collect()
    }

    /// Write the trained state: grid-search provenance, then the model.
    pub fn encode(&self, w: &mut Writer) {
        self.fitted.encode(w);
    }

    /// Inverse of [`PartitioningTimePredictor::encode`].
    pub fn decode(r: &mut Reader) -> Result<Self, PersistError> {
        let width = features::partitioning_time_feature_names().len();
        Ok(PartitioningTimePredictor { fitted: Fitted::decode(r, width)? })
    }
}

// ---------------------------------------------------------------------
// ProcessingTimePredictor
// ---------------------------------------------------------------------

/// Predicts processing run-time per workload. One independent model per
/// graph processing algorithm — the paper's design choice that lets new
/// algorithms join without retraining anything else (Sec. IV-E).
pub struct ProcessingTimePredictor {
    fitted: Vec<(&'static str, Fitted)>,
}

impl ProcessingTimePredictor {
    /// The runs that executed the workload named `name`, each with its cost
    /// of it: one row each, in run order.
    fn rows<'a>(
        runs: &'a [ProfileRun],
        name: &'a str,
    ) -> impl Iterator<Item = (&'a ProfileRun, &'a WorkloadCost)> {
        runs.iter().filter_map(move |r| Some((r, r.cost(name)?)))
    }

    /// The feature rows of the workload named `name`, in run order.
    fn feature_matrix(runs: &[ProfileRun], name: &str) -> Matrix {
        features::processing_time_matrix(
            Self::rows(runs, name).map(|(r, c)| {
                (&r.graph.props, &r.metrics, c.workload.fixed_iterations().unwrap_or(0))
            }),
        )
    }

    /// Dataset for one workload.
    pub fn dataset(runs: &[ProfileRun], workload_name: &str) -> Dataset {
        Dataset {
            feature_names: features::processing_time_feature_names(),
            x: Self::feature_matrix(runs, workload_name),
            y: Self::rows(runs, workload_name).map(|(_, c)| to_log(c.target_secs)).collect(),
        }
    }

    pub fn train(runs: &[ProfileRun], grid: &[ModelConfig], folds: usize, seed: u64) -> Self {
        let names = workload_names(runs);
        assert!(!names.is_empty(), "no workload costs");
        let datasets: Vec<Dataset> = names.iter().map(|name| Self::dataset(runs, name)).collect();
        // one group per workload: the `iterations` column differs
        let groups: Vec<LabelGroup> = datasets.iter().map(LabelGroup::from).collect();
        let selections = select_models(grid, &groups, folds, seed);
        let fitted = names.into_iter().zip(selections.into_iter().map(Fitted::selected));
        ProcessingTimePredictor { fitted: fitted.collect() }
    }

    /// The fitted row of each trained workload, in order of appearance in
    /// the training runs.
    pub fn fitted(&self) -> &[(&'static str, Fitted)] {
        &self.fitted
    }

    /// The model trained for `workload`; panics when there is none (the
    /// selector checks [`ProcessingTimePredictor::supports`] first and
    /// reports `EaseError::UnsupportedWorkload`).
    fn model(&self, workload_name: &str) -> &dyn Regressor {
        self.fitted
            .iter()
            .find(|(n, _)| *n == workload_name)
            .map(|(_, f)| f.model.as_ref())
            .unwrap_or_else(|| panic!("no model trained for workload {workload_name}"))
    }

    /// The target metric (avg-iteration or total seconds) of the workload
    /// named `name` on each run that executed it, in run order, given the
    /// run's measured quality metrics: one feature matrix, one `predict`.
    pub fn predict_target(&self, runs: &[ProfileRun], name: &str) -> Vec<f64> {
        let x = Self::feature_matrix(runs, name);
        self.model(name).predict(&x).into_iter().map(from_log).collect()
    }

    /// The *total* processing time of `workload` on one graph under each of
    /// `metrics` — one per candidate partitioning — in order, through one
    /// `predict`.
    pub fn predict_totals(
        &self,
        workload: Workload,
        props: &GraphProperties,
        metrics: &[QualityMetrics],
    ) -> Vec<f64> {
        let model = self.model(workload.name());
        let iterations = workload.fixed_iterations().unwrap_or(0);
        let x = features::processing_time_matrix(metrics.iter().map(|m| (props, m, iterations)));
        model.predict(&x).into_iter().map(|v| workload.total_from_target(from_log(v))).collect()
    }

    pub fn supported_workloads(&self) -> Vec<&'static str> {
        self.fitted.iter().map(|(n, _)| *n).collect()
    }

    /// Allocation-free membership check (per-query hot path).
    pub fn supports(&self, workload: Workload) -> bool {
        self.fitted.iter().any(|(n, _)| *n == workload.name())
    }

    /// Write the trained state: per workload its name, the grid-search
    /// provenance and the fitted model.
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.fitted.len());
        for (name, fitted) in &self.fitted {
            w.put_str(name);
            fitted.encode(w);
        }
    }

    /// Inverse of [`ProcessingTimePredictor::encode`]: between one and 64
    /// distinct workloads, each name interned back to the `'static` catalog through
    /// [`Workload::from_name`] — so a workload added to `ease-procsim` is
    /// loadable without touching this crate, and an unknown name means the
    /// artifact was written by an incompatible build.
    pub fn decode(r: &mut Reader) -> Result<Self, PersistError> {
        let n_workloads = r.take_usize()?;
        if !(1..=64).contains(&n_workloads) {
            return Err(PersistError::Corrupt(format!(
                "processing predictor declares {n_workloads} workloads, expected 1..=64"
            )));
        }
        let width = features::processing_time_feature_names().len();
        let mut fitted = Vec::with_capacity(n_workloads);
        for _ in 0..n_workloads {
            let name = r.take_str()?;
            let interned = Workload::from_name(&name).map(Workload::name).ok_or_else(|| {
                PersistError::Corrupt(format!("unknown persisted workload `{name}`"))
            })?;
            if fitted.iter().any(|(n, _)| *n == interned) {
                return Err(PersistError::Corrupt(format!(
                    "processing predictor carries workload `{name}` twice"
                )));
            }
            fitted.push((interned, Fitted::decode(r, width)?));
        }
        Ok(ProcessingTimePredictor { fitted })
    }
}

/// The workloads `runs` executed, each once, in order of appearance.
pub(crate) fn workload_names(runs: &[ProfileRun]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for c in runs.iter().flat_map(|r| &r.workloads) {
        if !names.contains(&c.workload.name()) {
            names.push(c.workload.name());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::{profile_processing_with, profile_quality_with, GraphInput, TimingMode};
    use ease_graphgen::grids::RmatSpec;
    use ease_graphgen::rmat::RMAT_COMBOS;
    use ease_ml::zoo;

    fn inputs(n: usize, edges: usize) -> Vec<GraphInput> {
        (0..n)
            .map(|i| {
                GraphInput::Rmat(RmatSpec {
                    name: format!("train-{i}"),
                    combo_index: i % 9,
                    params: RMAT_COMBOS[i % 9],
                    num_vertices: 64 << (i % 3),
                    num_edges: edges,
                    seed: 1000 + i as u64,
                })
            })
            .collect()
    }

    #[test]
    fn quality_predictor_end_to_end() {
        let runs = profile_quality_with(
            &inputs(6, 900),
            &[PartitionerId::OneDD, PartitionerId::Ne, PartitionerId::Hdrf],
            &[2, 4, 8],
            7,
            TimingMode::Measured,
        );
        let qp = QualityPredictor::train(&runs, PropertyTier::Basic, &zoo::quick_grid(), 3, 1);
        // predictions are clamped to the metric domain
        let props = inputs(1, 900)[0].prepare().properties(PropertyTier::Advanced);
        let [m] = qp.predict(&props, &[PartitionerId::Ne], 4)[..] else { panic!("one candidate") };
        assert!(m.replication_factor >= 1.0);
        assert!(m.edge_balance >= 1.0);
        // higher k should predict higher RF for a hash partitioner
        let rf = |k| qp.predict(&props, &[PartitionerId::OneDD], k)[0].replication_factor;
        let (rf2, rf8) = (rf(2), rf(8));
        assert!(rf8 > rf2 * 0.9, "rf2={rf2} rf8={rf8}");
        assert_eq!(qp.fitted.len(), 5);
        // a batch of runs predicts what each run's candidate query does
        for target in QualityTarget::ALL {
            let batched = qp.predict_target(target, &runs);
            for (r, v) in runs.iter().zip(batched) {
                let [m] = qp.predict(&r.graph.props, &[r.partitioner], r.k)[..] else {
                    unreachable!()
                };
                assert_eq!(v.to_bits(), m.get(target).to_bits(), "{target:?}");
            }
        }
        // a target trained alone is selected and fitted as among all five
        let rf = QualityTarget::ReplicationFactor;
        let alone = QualityPredictor::train_targets(
            &runs,
            PropertyTier::Basic,
            &zoo::quick_grid(),
            3,
            1,
            &[rf],
        );
        let [(target, one)] = &alone.fitted[..] else { panic!("one target trained") };
        let all = &qp.fitted.iter().find(|(t, _)| t == target).expect("rf is trained").1;
        assert_eq!(*target, rf);
        assert_eq!(one.config, all.config);
        assert_eq!(one.cv_mape.to_bits(), all.cv_mape.to_bits());
        let bits = |p: &QualityPredictor| {
            p.predict_target(rf, &runs).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&alone), bits(&qp));
    }

    #[test]
    fn quality_predictor_learns_partitioner_differences() {
        let runs = profile_quality_with(
            &inputs(8, 1_200),
            &[PartitionerId::Crvc, PartitionerId::Ne],
            &[8],
            3,
            TimingMode::Measured,
        );
        let qp = QualityPredictor::train(&runs, PropertyTier::Basic, &zoo::quick_grid(), 3, 2);
        let props = inputs(1, 1_200)[0].prepare().properties(PropertyTier::Advanced);
        let [hash, ne] = qp.predict(&props, &[PartitionerId::Crvc, PartitionerId::Ne], 8)[..]
        else {
            panic!("two candidates")
        };
        let (rf_hash, rf_ne) = (hash.replication_factor, ne.replication_factor);
        assert!(rf_ne < rf_hash, "ne {rf_ne} vs crvc {rf_hash}");
    }

    #[test]
    fn partitioning_time_predictor_orders_families() {
        let runs = profile_quality_with(
            &inputs(8, 4_000),
            &[PartitionerId::OneDD, PartitionerId::Ne],
            &[4],
            5,
            TimingMode::Measured,
        );
        let tp = PartitioningTimePredictor::train(&runs, &zoo::quick_grid(), 3, 1);
        let props = inputs(1, 4_000)[0].prepare().properties(PropertyTier::Advanced);
        let [fast, slow] =
            tp.predict([(&props, PartitionerId::OneDD), (&props, PartitionerId::Ne)])[..]
        else {
            panic!("two candidates")
        };
        assert!(fast >= 0.0 && slow >= 0.0);
        assert!(slow > fast, "ne {slow} should cost more than 1dd {fast}");
    }

    #[test]
    fn processing_time_predictor_per_workload() {
        let runs = profile_processing_with(
            &inputs(5, 1_000),
            &[PartitionerId::Dbh, PartitionerId::Ne],
            4,
            &[Workload::PageRank { iterations: 5 }, Workload::ConnectedComponents],
            3,
            TimingMode::Measured,
        );
        let pp = ProcessingTimePredictor::train(&runs, &zoo::quick_grid(), 3, 1);
        assert_eq!(pp.supported_workloads().len(), 2);
        // each workload's rows are predicted by its own model, as a
        // candidate query would be
        for w in [Workload::PageRank { iterations: 5 }, Workload::ConnectedComponents] {
            let targets = pp.predict_target(&runs, w.name());
            assert_eq!(targets.len(), runs.len());
            for (r, t) in runs.iter().zip(targets) {
                assert!(t > 0.0);
                let total = w.total_from_target(t);
                assert_eq!(pp.predict_totals(w, &r.graph.props, &[r.metrics]), [total]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no model trained for workload")]
    fn unknown_workload_panics() {
        let runs = profile_processing_with(
            &inputs(2, 600),
            &[PartitionerId::Dbh],
            2,
            &[Workload::ConnectedComponents],
            3,
            TimingMode::Measured,
        );
        let pp = ProcessingTimePredictor::train(&runs, &zoo::quick_grid(), 2, 1);
        let props = inputs(1, 600)[0].prepare().properties(PropertyTier::Advanced);
        let _ = pp.predict_totals(Workload::KCores, &props, &[runs[0].metrics]);
    }

    /// One fitted entry of a predictor section as `encode` spells it: the
    /// winning configuration, its CV MAPE, then a model fitted at `width`.
    fn put_fitted(w: &mut Writer, width: usize) {
        let config = ModelConfig::Knn { k: 1, distance_weighted: false };
        let mut model = config.build();
        model.fit(&Matrix::from_rows(&[vec![0.0; width], vec![1.0; width]]), &[1.0, 2.0]);
        encode_config(w, &config);
        w.put_f64(0.5);
        model.encode(w);
    }

    /// A quality section at `tier_tag` whose entries carry `target_tags`.
    fn quality_section(tier_tag: u8, target_tags: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(tier_tag);
        w.put_usize(target_tags.len());
        let width = features::quality_feature_names(PropertyTier::Basic).len();
        for &tag in target_tags {
            w.put_u8(tag);
            put_fitted(&mut w, width);
        }
        w.into_bytes()
    }

    /// A processing section with one entry per name of `workloads`.
    fn processing_section(workloads: &[&str]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_usize(workloads.len());
        let width = features::processing_time_feature_names().len();
        for name in workloads {
            w.put_str(name);
            put_fitted(&mut w, width);
        }
        w.into_bytes()
    }

    /// The message of a `Corrupt` rejection; anything else fails the test.
    fn corrupt<T>(decoded: Result<T, PersistError>) -> String {
        match decoded {
            Err(PersistError::Corrupt(msg)) => msg,
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("a corrupt section decoded"),
        }
    }

    /// Every structural corruption of a predictor section is a typed
    /// `Corrupt`, each named for what is wrong, while the same entries
    /// spelled correctly decode.
    #[test]
    fn decode_rejects_structural_corruption() {
        let quality = |tier, tags: &[u8]| {
            QualityPredictor::decode(&mut Reader::new(&quality_section(tier, tags)))
        };
        let basic = PropertyTier::Basic.tag();
        let qp = quality(basic, &[4, 3, 2, 1, 0]).expect("a well-formed quality section");
        assert_eq!(qp.tier, PropertyTier::Basic);
        for tags in [&[0, 1, 2, 3][..], &[0, 1, 2, 3, 4, 0]] {
            assert!(corrupt(quality(basic, tags)).contains("targets, expected 5"), "{tags:?}");
        }
        assert!(corrupt(quality(basic, &[0, 1, 2, 1, 4])).contains("twice"));
        assert!(corrupt(quality(basic, &[0, 1, 2, 3, 5])).contains("unknown quality target tag 5"));
        assert!(corrupt(quality(200, &[0, 1, 2, 3, 4])).contains("unknown property tier tag 200"));

        let processing = |names: &[&str]| {
            ProcessingTimePredictor::decode(&mut Reader::new(&processing_section(names)))
        };
        let pp = processing(&["pr", "cc"]).expect("a well-formed processing section");
        assert_eq!(pp.supported_workloads(), ["pr", "cc"]);
        for names in [Vec::new(), vec!["pr"; 65]] {
            assert!(corrupt(processing(&names)).contains("expected 1..=64"), "{}", names.len());
        }
        assert!(
            corrupt(processing(&["pr", "bogus"])).contains("unknown persisted workload `bogus`")
        );
        assert!(corrupt(processing(&["pr", "cc", "pr"])).contains("workload `pr` twice"));
    }

    #[test]
    fn log_transform_round_trips() {
        for v in [0.001, 1.0, 1234.5] {
            assert!((from_log(to_log(v)) - v).abs() < 1e-9);
        }
        // negative log-space predictions clamp to the 1 µs floor
        assert_eq!(from_log(-5.0), 1e-6);
        assert_eq!(from_log(to_log(0.0)), 1e-6);
    }
}
