//! The three prediction components of EASE (paper Fig. 4) and their
//! training (step 4 of Fig. 5): per-component model selection across the
//! six ML families with K-fold cross-validation, then retraining the winner
//! on the full training set.
//!
//! Each predictor also owns its bytes in a saved service: `encode` /
//! `decode` sit next to the fields they spell, and `decode` checks what
//! the predictor's own lookups rely on (every quality target exactly once,
//! at least one known workload) on top of what each model's `decode`
//! checks for itself.

use crate::features;
use crate::profiling::{ProcessingRecord, QualityRecord};
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

/// Which model won a component's grid search, with its CV score.
#[derive(Debug, Clone)]
pub struct ChosenModel {
    pub config: ModelConfig,
    pub cv_mape: f64,
}

impl ChosenModel {
    /// Split a selection into its provenance and its fitted model.
    fn of(selection: Selection) -> (ChosenModel, Box<dyn Regressor>) {
        let chosen =
            ChosenModel { config: selection.search.best, cv_mape: selection.search.best_score };
        (chosen, selection.model)
    }

    fn encode(&self, w: &mut Writer) {
        encode_config(w, &self.config);
        w.put_f64(self.cv_mape);
    }

    fn decode(r: &mut Reader) -> Result<Self, PersistError> {
        Ok(ChosenModel { config: decode_config(r)?, cv_mape: r.take_f64()? })
    }
}

// ---------------------------------------------------------------------
// PartitioningQualityPredictor
// ---------------------------------------------------------------------

/// Predicts the five partitioning quality metrics for (graph, partitioner,
/// k) triples. One model per target metric, independently selected.
pub struct QualityPredictor {
    pub tier: PropertyTier,
    models: Vec<(QualityTarget, Box<dyn Regressor>)>,
    pub chosen: Vec<(QualityTarget, ChosenModel)>,
}

impl QualityPredictor {
    /// The feature rows of `records` — one matrix, whichever the target.
    fn feature_matrix(records: &[QualityRecord], tier: PropertyTier) -> Matrix {
        features::quality_matrix(tier, records.iter().map(|r| (&r.props, r.k, r.partitioner)))
    }

    /// Assemble the training dataset for one quality target.
    pub fn dataset(
        records: &[QualityRecord],
        tier: PropertyTier,
        target: QualityTarget,
    ) -> Dataset {
        Dataset {
            feature_names: features::quality_feature_names(tier),
            x: Self::feature_matrix(records, tier),
            y: records.iter().map(|r| r.metrics.get(target)).collect(),
        }
    }

    /// Grid-search each target's model on the training records (paper:
    /// 5-fold CV), then retrain winners on the full set.
    pub fn train(
        records: &[QualityRecord],
        tier: PropertyTier,
        grid: &[ModelConfig],
        folds: usize,
        seed: u64,
    ) -> Self {
        assert!(!records.is_empty(), "no quality training records");
        // the five targets are five label vectors over one feature matrix
        let x = Self::feature_matrix(records, tier);
        let labels: Vec<Vec<f64>> = QualityTarget::ALL
            .iter()
            .map(|&target| records.iter().map(|r| r.metrics.get(target)).collect())
            .collect();
        let group = LabelGroup { x: &x, labels: labels.iter().map(Vec::as_slice).collect() };
        let selections = select_models(grid, &[group], folds, seed);
        let (chosen, models) = QualityTarget::ALL
            .into_iter()
            .zip(selections)
            .map(|(target, selection)| {
                let (chosen, model) = ChosenModel::of(selection);
                ((target, chosen), (target, model))
            })
            .unzip();
        QualityPredictor { tier, models, chosen }
    }

    /// Fit a *fixed* model configuration for each of `targets` (used by the
    /// enrichment study, which pins RFR per the paper). A study that scores
    /// one metric fits one model; predicting a target that was not fitted
    /// panics.
    pub fn train_fixed(
        records: &[QualityRecord],
        tier: PropertyTier,
        config: &ModelConfig,
        targets: &[QualityTarget],
    ) -> Self {
        assert!(!records.is_empty());
        let x = Self::feature_matrix(records, tier);
        let (models, chosen) = targets
            .iter()
            .map(|&target| {
                let y: Vec<f64> = records.iter().map(|r| r.metrics.get(target)).collect();
                let mut model = config.build();
                model.fit(&x, &y);
                let chosen = ChosenModel { config: config.clone(), cv_mape: f64::NAN };
                ((target, model), (target, chosen))
            })
            .unzip();
        QualityPredictor { tier, models, chosen }
    }

    fn model(&self, target: QualityTarget) -> &dyn Regressor {
        self.models
            .iter()
            .find(|(t, _)| *t == target)
            .map(|(_, m)| m.as_ref())
            .expect("a model was fitted for this target")
    }

    /// One metric of each of `records`, in order: one feature matrix, one
    /// `predict`.
    pub fn predict_target(&self, target: QualityTarget, records: &[QualityRecord]) -> Vec<f64> {
        let x = Self::feature_matrix(records, self.tier);
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

    /// Feature importances of the replication-factor model, if available.
    pub fn importances(&self, target: QualityTarget) -> Option<Vec<f64>> {
        self.model(target).feature_importances()
    }

    /// Write the trained state: the tier, then per target its tag (its
    /// position in [`QualityTarget::ALL`]), the grid-search provenance and
    /// the fitted model.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tier.tag());
        w.put_usize(self.models.len());
        for ((target, model), (_, chosen)) in self.models.iter().zip(&self.chosen) {
            let tag = QualityTarget::ALL.iter().position(|t| t == target);
            w.put_u8(tag.expect("every target is in ALL") as u8);
            chosen.encode(w);
            model.encode(w);
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
        let mut models: Vec<(QualityTarget, Box<dyn Regressor>)> = Vec::new();
        let mut chosen = Vec::new();
        for _ in 0..n_targets {
            let tag = r.take_u8()?;
            let target = *QualityTarget::ALL.get(usize::from(tag)).ok_or_else(|| {
                PersistError::Corrupt(format!("unknown quality target tag {tag}"))
            })?;
            if models.iter().any(|(t, _)| *t == target) {
                return Err(PersistError::Corrupt(format!(
                    "quality predictor carries target {} twice",
                    target.name()
                )));
            }
            chosen.push((target, ChosenModel::decode(r)?));
            models.push((target, decode_regressor(r, width)?));
        }
        Ok(QualityPredictor { tier, models, chosen })
    }
}

// ---------------------------------------------------------------------
// PartitioningTimePredictor
// ---------------------------------------------------------------------

/// Predicts partitioning wall-clock time for (graph, partitioner) pairs.
pub struct PartitioningTimePredictor {
    model: Box<dyn Regressor>,
    pub chosen: ChosenModel,
}

impl PartitioningTimePredictor {
    pub fn dataset(records: &[QualityRecord]) -> Dataset {
        Dataset {
            feature_names: features::partitioning_time_feature_names(),
            x: features::partitioning_time_matrix(
                records.iter().map(|r| (&r.props, r.partitioner)),
            ),
            y: records.iter().map(|r| to_log(r.partitioning_secs)).collect(),
        }
    }

    pub fn train(records: &[QualityRecord], grid: &[ModelConfig], folds: usize, seed: u64) -> Self {
        assert!(!records.is_empty(), "no partitioning-time records");
        let ds = Self::dataset(records);
        let selection = select_models(grid, &[(&ds).into()], folds, seed)
            .pop()
            .expect("one selection per label");
        let (chosen, model) = ChosenModel::of(selection);
        PartitioningTimePredictor { model, chosen }
    }

    /// The partitioning time of each `(props, partitioner)`, in order,
    /// through one `predict`.
    pub fn predict<'a>(
        &self,
        rows: impl IntoIterator<Item = (&'a GraphProperties, PartitionerId)>,
    ) -> Vec<f64> {
        let x = features::partitioning_time_matrix(rows);
        self.model.predict(&x).into_iter().map(from_log).collect()
    }

    /// Write the trained state: grid-search provenance, then the model.
    pub fn encode(&self, w: &mut Writer) {
        self.chosen.encode(w);
        self.model.encode(w);
    }

    /// Inverse of [`PartitioningTimePredictor::encode`].
    pub fn decode(r: &mut Reader) -> Result<Self, PersistError> {
        let chosen = ChosenModel::decode(r)?;
        let width = features::partitioning_time_feature_names().len();
        Ok(PartitioningTimePredictor { model: decode_regressor(r, width)?, chosen })
    }
}

// ---------------------------------------------------------------------
// ProcessingTimePredictor
// ---------------------------------------------------------------------

/// Predicts processing run-time per workload. One independent model per
/// graph processing algorithm — the paper's design choice that lets new
/// algorithms join without retraining anything else (Sec. IV-E).
pub struct ProcessingTimePredictor {
    models: Vec<(&'static str, Box<dyn Regressor>)>,
    pub chosen: Vec<(&'static str, ChosenModel)>,
}

impl ProcessingTimePredictor {
    /// The feature rows of `records`, in order.
    fn feature_matrix<'a>(records: impl Iterator<Item = &'a ProcessingRecord>) -> Matrix {
        features::processing_time_matrix(
            records.map(|r| (&r.props, &r.metrics, r.workload.fixed_iterations().unwrap_or(0))),
        )
    }

    /// Dataset for one workload.
    pub fn dataset(records: &[ProcessingRecord], workload_name: &str) -> Dataset {
        let of_workload = || records.iter().filter(|r| r.workload.name() == workload_name);
        Dataset {
            feature_names: features::processing_time_feature_names(),
            x: Self::feature_matrix(of_workload()),
            y: of_workload().map(|r| to_log(r.target_secs)).collect(),
        }
    }

    pub fn train(
        records: &[ProcessingRecord],
        grid: &[ModelConfig],
        folds: usize,
        seed: u64,
    ) -> Self {
        assert!(!records.is_empty(), "no processing records");
        let names = workload_names(records);
        let datasets: Vec<Dataset> =
            names.iter().map(|name| Self::dataset(records, name)).collect();
        // one group per workload: the `iterations` column differs
        let groups: Vec<LabelGroup> = datasets.iter().map(LabelGroup::from).collect();
        let selections = select_models(grid, &groups, folds, seed);
        let (chosen, models) = names
            .into_iter()
            .zip(selections)
            .map(|(name, selection)| {
                let (chosen, model) = ChosenModel::of(selection);
                ((name, chosen), (name, model))
            })
            .unzip();
        ProcessingTimePredictor { models, chosen }
    }

    /// The model trained for `workload`; panics when there is none (the
    /// selector checks [`ProcessingTimePredictor::supports`] first and
    /// reports `EaseError::UnsupportedWorkload`).
    fn model(&self, workload_name: &str) -> &dyn Regressor {
        self.models
            .iter()
            .find(|(n, _)| *n == workload_name)
            .map(|(_, m)| m.as_ref())
            .unwrap_or_else(|| panic!("no model trained for workload {workload_name}"))
    }

    /// The target metric (avg-iteration or total seconds) of each of
    /// `records`, in order, given its measured quality metrics: one feature
    /// matrix and one `predict` per workload among them.
    pub fn predict_target(&self, records: &[ProcessingRecord]) -> Vec<f64> {
        let mut targets = vec![0.0; records.len()];
        for name in workload_names(records) {
            let of_workload = |r: &&ProcessingRecord| r.workload.name() == name;
            let x = Self::feature_matrix(records.iter().filter(of_workload));
            let slots = targets.iter_mut().zip(records).filter(|(_, r)| of_workload(r));
            for ((slot, _), v) in slots.zip(self.model(name).predict(&x)) {
                *slot = from_log(v);
            }
        }
        targets
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
        self.models.iter().map(|(n, _)| *n).collect()
    }

    /// Allocation-free membership check (per-query hot path).
    pub fn supports(&self, workload: Workload) -> bool {
        self.models.iter().any(|(n, _)| *n == workload.name())
    }

    /// Write the trained state: per workload its name, the grid-search
    /// provenance and the fitted model.
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.models.len());
        for ((name, model), (_, chosen)) in self.models.iter().zip(&self.chosen) {
            w.put_str(name);
            chosen.encode(w);
            model.encode(w);
        }
    }

    /// Inverse of [`ProcessingTimePredictor::encode`]: between one and 64
    /// workloads, each name interned back to the `'static` catalog through
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
        let mut models: Vec<(&'static str, Box<dyn Regressor>)> = Vec::new();
        let mut chosen = Vec::new();
        for _ in 0..n_workloads {
            let name = r.take_str()?;
            let interned = Workload::from_name(&name).map(Workload::name).ok_or_else(|| {
                PersistError::Corrupt(format!("unknown persisted workload `{name}`"))
            })?;
            chosen.push((interned, ChosenModel::decode(r)?));
            models.push((interned, decode_regressor(r, width)?));
        }
        Ok(ProcessingTimePredictor { models, chosen })
    }
}

/// The workloads among `records`, each once, in order of appearance.
pub(crate) fn workload_names(records: &[ProcessingRecord]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for r in records {
        if !names.contains(&r.workload.name()) {
            names.push(r.workload.name());
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
        let records = profile_quality_with(
            &inputs(6, 900),
            &[PartitionerId::OneDD, PartitionerId::Ne, PartitionerId::Hdrf],
            &[2, 4, 8],
            7,
            TimingMode::Measured,
        );
        let qp = QualityPredictor::train(&records, PropertyTier::Basic, &zoo::quick_grid(), 3, 1);
        // predictions are clamped to the metric domain
        let props = inputs(1, 900)[0].prepare().properties(PropertyTier::Advanced);
        let [m] = qp.predict(&props, &[PartitionerId::Ne], 4)[..] else { panic!("one candidate") };
        assert!(m.replication_factor >= 1.0);
        assert!(m.edge_balance >= 1.0);
        // higher k should predict higher RF for a hash partitioner
        let rf = |k| qp.predict(&props, &[PartitionerId::OneDD], k)[0].replication_factor;
        let (rf2, rf8) = (rf(2), rf(8));
        assert!(rf8 > rf2 * 0.9, "rf2={rf2} rf8={rf8}");
        assert_eq!(qp.chosen.len(), 5);
        // a batch of records predicts what each record's candidate query does
        for target in QualityTarget::ALL {
            let batched = qp.predict_target(target, &records);
            for (r, v) in records.iter().zip(batched) {
                let [m] = qp.predict(&r.props, &[r.partitioner], r.k)[..] else { unreachable!() };
                assert_eq!(v.to_bits(), m.get(target).to_bits(), "{target:?}");
            }
        }
    }

    #[test]
    fn quality_predictor_learns_partitioner_differences() {
        let records = profile_quality_with(
            &inputs(8, 1_200),
            &[PartitionerId::Crvc, PartitionerId::Ne],
            &[8],
            3,
            TimingMode::Measured,
        );
        let qp = QualityPredictor::train(&records, PropertyTier::Basic, &zoo::quick_grid(), 3, 2);
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
        let records = profile_quality_with(
            &inputs(8, 4_000),
            &[PartitionerId::OneDD, PartitionerId::Ne],
            &[4],
            5,
            TimingMode::Measured,
        );
        let tp = PartitioningTimePredictor::train(&records, &zoo::quick_grid(), 3, 1);
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
        let records = profile_processing_with(
            &inputs(5, 1_000),
            &[PartitionerId::Dbh, PartitionerId::Ne],
            4,
            &[Workload::PageRank { iterations: 5 }, Workload::ConnectedComponents],
            3,
            TimingMode::Measured,
        );
        let pp = ProcessingTimePredictor::train(&records, &zoo::quick_grid(), 3, 1);
        assert_eq!(pp.supported_workloads().len(), 2);
        // records of both workloads, interleaved: each is predicted by its
        // own workload's model, as a candidate query would be
        let targets = pp.predict_target(&records);
        assert_eq!(targets.len(), records.len());
        for (r, t) in records.iter().zip(targets) {
            assert!(t > 0.0);
            let total = r.workload.total_from_target(t);
            assert_eq!(pp.predict_totals(r.workload, &r.props, &[r.metrics]), [total]);
        }
    }

    #[test]
    #[should_panic(expected = "no model trained for workload")]
    fn unknown_workload_panics() {
        let records = profile_processing_with(
            &inputs(2, 600),
            &[PartitionerId::Dbh],
            2,
            &[Workload::ConnectedComponents],
            3,
            TimingMode::Measured,
        );
        let pp = ProcessingTimePredictor::train(&records, &zoo::quick_grid(), 2, 1);
        let props = inputs(1, 600)[0].prepare().properties(PropertyTier::Advanced);
        let _ = pp.predict_totals(Workload::KCores, &props, &[records[0].metrics]);
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
