//! `EaseService` — the *train once, query cheaply* entry point.
//!
//! The paper's economic argument (Sec. I) is that EASE's profiling cost
//! amortizes over many future queries: a trained selector is an asset that
//! answers `(graph, algorithm, goal)` questions for the rest of its life.
//! This module makes that the first-class API shape:
//!
//! * [`EaseServiceBuilder`] — validated, fluent configuration of the
//!   training pipeline (scale, model grid, CV folds, seed, timing mode),
//!   producing a trained [`EaseService`].
//! * [`EaseService::cached_properties_prepared`] — a graph's advanced-tier
//!   properties through a fingerprint-keyed LRU cache, so repeated queries
//!   on the same graph skip the extraction entirely.
//! * [`EaseService::recommend`] — selection at the trained default `k`, with
//!   typed [`EaseError`]s; the service is `Sync`, so concurrent callers
//!   share one trained model behind `&self`. A caller with its own `k` asks
//!   the predictor stack directly: [`Ease::try_select`] on
//!   [`EaseService::ease`].
//! * [`EaseService::save`] / [`EaseService::load`] — versioned binary
//!   persistence of the whole trained system (all fitted models plus
//!   provenance), so a selector trained in one process answers queries in
//!   another, bit-identically. This module owns the header, provenance,
//!   catalog and property-cache trailer; each predictor, and each model
//!   inside it, writes and reads its own bytes
//!   ([`crate::predictors`], `ease_ml::Regressor::encode`).
//!
//! ```no_run
//! use ease::service::EaseServiceBuilder;
//! use ease::selector::OptGoal;
//! use ease_graphgen::Scale;
//! use ease_procsim::Workload;
//!
//! let service = EaseServiceBuilder::at_scale(Scale::Tiny).train()?;
//! service.save(std::path::Path::new("ease.model"))?;
//!
//! let graph = ease_graphgen::realworld::socfb_analogue(Scale::Tiny, 42).graph;
//! let props = service.cached_properties_prepared(&ease_graph::PreparedGraph::of(&graph));
//! let pick = service.recommend(&props, Workload::PageRank { iterations: 10 }, OptGoal::EndToEnd)?;
//! println!("EASE picks {}", pick.best.name());
//! # Ok::<(), ease::EaseError>(())
//! ```

use crate::error::EaseError;
use crate::pipeline::{train_ease, EaseConfig, TrainingArtifacts};
use crate::predictors::{PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor};
use crate::profiling::TimingMode;
use crate::selector::{Ease, OptGoal, Selection};
use ease_graph::{GraphProperties, PreparedGraph, PropertyTier};
use ease_graphgen::Scale;
use ease_ml::persist::{read_header, write_header, PersistError, Reader, Writer};
use ease_ml::ModelConfig;
use ease_partition::PartitionerId;
use ease_procsim::Workload;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Builder for a trained [`EaseService`].
///
/// Starts from the calibrated defaults of [`EaseConfig::at_scale`]; every
/// knob can be overridden fluently. [`EaseServiceBuilder::train`] validates
/// the configuration (typed [`EaseError::InvalidConfig`] instead of a panic
/// deep inside the pipeline) and runs the full profile → select → fit
/// pipeline.
#[derive(Debug, Clone)]
pub struct EaseServiceBuilder {
    cfg: EaseConfig,
    default_k: usize,
}

impl EaseServiceBuilder {
    /// Calibrated defaults for a scale (see [`EaseConfig::at_scale`]).
    pub fn at_scale(scale: Scale) -> Self {
        let cfg = EaseConfig::at_scale(scale);
        EaseServiceBuilder { default_k: cfg.processing_k, cfg }
    }

    /// Wrap an explicit pipeline configuration (escape hatch for the
    /// experiment binaries).
    pub fn from_config(cfg: EaseConfig) -> Self {
        EaseServiceBuilder { default_k: cfg.processing_k, cfg }
    }

    /// The hyper-parameter grid searched per predictor component.
    pub fn model_grid(mut self, grid: Vec<ModelConfig>) -> Self {
        self.cfg.grid = grid;
        self
    }

    /// Use the reduced quick grid (fast training, slightly weaker models).
    pub fn quick_grid(self) -> Self {
        self.model_grid(ease_ml::zoo::quick_grid())
    }

    /// Cross-validation folds for model selection (paper: 5).
    pub fn folds(mut self, folds: usize) -> Self {
        self.cfg.folds = folds;
        self
    }

    /// Master seed for corpora generation, CV shuffling and model fitting.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Wall-clock measurement vs. reproducible analytical timing proxy.
    pub fn timing(mut self, timing: TimingMode) -> Self {
        self.cfg.timing = timing;
        self
    }

    /// Graph-property tier used by the quality predictor.
    pub fn tier(mut self, tier: PropertyTier) -> Self {
        self.cfg.tier = tier;
        self
    }

    /// Partition counts profiled for the quality predictor.
    pub fn partition_counts(mut self, ks: Vec<usize>) -> Self {
        self.cfg.ks = ks;
        self
    }

    /// Partition count for the processing profiling runs and the default
    /// `k` of [`EaseService::recommend`].
    pub fn processing_k(mut self, k: usize) -> Self {
        self.cfg.processing_k = k;
        self.default_k = k;
        self
    }

    /// Candidate partitioners (training + the recommendation catalog).
    pub fn partitioners(mut self, partitioners: Vec<PartitionerId>) -> Self {
        self.cfg.partitioners = partitioners;
        self
    }

    /// Training workloads — the algorithms the service can answer for.
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.cfg.workloads = workloads;
        self
    }

    /// Cap the R-MAT-SMALL corpus (quality-predictor training set).
    pub fn max_small_graphs(mut self, cap: Option<usize>) -> Self {
        self.cfg.max_small_graphs = cap;
        self
    }

    /// Cap the R-MAT-LARGE corpus (time-predictor training set).
    pub fn max_large_graphs(mut self, cap: Option<usize>) -> Self {
        self.cfg.max_large_graphs = cap;
        self
    }

    /// The underlying pipeline configuration (read access for reporting).
    pub fn config(&self) -> &EaseConfig {
        &self.cfg
    }

    fn validate(&self) -> Result<(), EaseError> {
        let bad = |msg: String| Err(EaseError::InvalidConfig(msg));
        if self.cfg.folds < 2 {
            return bad(format!("cross-validation needs >= 2 folds, got {}", self.cfg.folds));
        }
        if self.cfg.grid.is_empty() {
            return bad("model grid is empty".into());
        }
        if self.cfg.ks.is_empty() {
            return bad("no partition counts (ks) to profile".into());
        }
        if self.cfg.ks.iter().any(|&k| k < 2) {
            return bad("partition counts must be >= 2".into());
        }
        if self.cfg.processing_k < 2 {
            return bad(format!("processing_k must be >= 2, got {}", self.cfg.processing_k));
        }
        if self.cfg.partitioners.is_empty() {
            return bad("no candidate partitioners".into());
        }
        if self.cfg.workloads.is_empty() {
            return bad("no training workloads".into());
        }
        if self.cfg.max_small_graphs == Some(0) || self.cfg.max_large_graphs == Some(0) {
            return bad("graph-corpus caps must be >= 1".into());
        }
        if self.default_k < 2 {
            return bad(format!("default k must be >= 2, got {}", self.default_k));
        }
        Ok(())
    }

    /// Validate, then run the full training pipeline.
    pub fn train(self) -> Result<EaseService, EaseError> {
        Ok(self.train_with_artifacts()?.0)
    }

    /// [`EaseServiceBuilder::train`], also returning the profiling records
    /// (for evaluation/enrichment studies).
    pub fn train_with_artifacts(self) -> Result<(EaseService, TrainingArtifacts), EaseError> {
        self.validate()?;
        let meta = ServiceMeta {
            scale: self.cfg.scale,
            seed: self.cfg.seed,
            folds: self.cfg.folds,
            timing: self.cfg.timing,
            default_k: self.default_k,
            default_goal: OptGoal::EndToEnd,
        };
        let (ease, artifacts) = train_ease(&self.cfg);
        Ok((EaseService::from_parts(ease, meta), artifacts))
    }
}

/// Provenance carried alongside the trained models (persisted with them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceMeta {
    pub scale: Scale,
    pub seed: u64,
    pub folds: usize,
    pub timing: TimingMode,
    /// The `k` [`EaseService::recommend`] answers for.
    pub default_k: usize,
    /// Carried by the model format and shown by `ease inspect`; the builder
    /// records [`OptGoal::EndToEnd`]. No query reads it: every query names
    /// its own goal.
    pub default_goal: OptGoal,
}

/// Human-readable summary of a trained service (the `ease inspect` view).
#[derive(Debug, Clone)]
pub struct ServiceInfo {
    pub meta: ServiceMeta,
    pub tier: PropertyTier,
    pub catalog: Vec<PartitionerId>,
    pub workloads: Vec<&'static str>,
    /// `(component, winning config description, CV MAPE)` per model.
    pub chosen: Vec<(String, String, f64)>,
}

/// Default capacity of the query-side property cache: graph properties are
/// a few hundred bytes, so even a generous window of recently seen graphs
/// costs nothing against the model weights it sits next to.
pub const PROPERTY_CACHE_CAPACITY: usize = 64;

/// Fingerprint-keyed LRU of advanced-tier graph properties. Guarded by one
/// mutex — a hit is a linear scan over ≤ capacity u64 keys plus a small
/// clone, orders of magnitude below one triangle counting pass.
struct PropertyCache {
    capacity: usize,
    /// Most recently used at the back.
    entries: Vec<(u64, GraphProperties)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PropertyCache {
    fn new(capacity: usize) -> Self {
        PropertyCache { capacity, entries: Vec::new(), hits: 0, misses: 0, evictions: 0 }
    }

    fn get(&mut self, key: u64) -> Option<GraphProperties> {
        match self.entries.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                let entry = self.entries.remove(pos);
                let props = entry.1.clone();
                self.entries.push(entry);
                self.hits += 1;
                Some(props)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// [`PropertyCache::get`] minus the miss accounting: a hit counts, a
    /// miss records nothing. This backs the daemon's stat-memo fast path,
    /// which falls back to the full open-and-extract lookup on a probe
    /// miss — *that* lookup records the miss, keeping `hits + misses` at
    /// exactly one per query either way.
    fn probe(&mut self, key: u64) -> Option<GraphProperties> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        let props = entry.1.clone();
        self.entries.push(entry);
        self.hits += 1;
        Some(props)
    }

    fn insert(&mut self, key: u64, props: GraphProperties) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.entries.push((key, props));
    }
}

/// Observability snapshot of the query-side property cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropertyCacheStats {
    pub hits: u64,
    pub misses: u64,
    /// LRU entries displaced by capacity pressure since the service was
    /// constructed (re-inserting an existing key never evicts).
    pub evictions: u64,
    pub len: usize,
    pub capacity: usize,
}

/// A trained, persistable, query-oriented partitioner-selection service.
pub struct EaseService {
    ease: Ease,
    meta: ServiceMeta,
    /// Query-side LRU keyed by [`PreparedGraph::fingerprint`]. Persisted
    /// alongside the models (format v2), so a restarted service answers
    /// warm for every graph it had already extracted.
    props_cache: Mutex<PropertyCache>,
}

impl std::fmt::Debug for EaseService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EaseService")
            .field("meta", &self.meta)
            .field("catalog", &self.ease.catalog)
            .field("workloads", &self.supported_workloads())
            .field("property_cache", &self.property_cache_stats())
            .finish_non_exhaustive()
    }
}

impl EaseService {
    /// Wrap an already-trained [`Ease`] system.
    pub fn from_parts(ease: Ease, meta: ServiceMeta) -> Self {
        EaseService {
            ease,
            meta,
            props_cache: Mutex::new(PropertyCache::new(PROPERTY_CACHE_CAPACITY)),
        }
    }

    /// The underlying predictor stack (evaluation studies, reports).
    pub fn ease(&self) -> &Ease {
        &self.ease
    }

    /// Take ownership of the underlying predictor stack (enrichment
    /// studies that swap components).
    pub fn into_ease(self) -> Ease {
        self.ease
    }

    pub fn meta(&self) -> &ServiceMeta {
        &self.meta
    }

    pub fn catalog(&self) -> &[PartitionerId] {
        &self.ease.catalog
    }

    /// Workload names this service can answer for.
    pub fn supported_workloads(&self) -> Vec<&'static str> {
        self.ease.processing_time.supported_workloads()
    }

    /// Recommend a partitioner at the service's trained default partition
    /// count ([`ServiceMeta::default_k`]).
    ///
    /// Returns the full predicted ranking; [`EaseError::UnsupportedWorkload`]
    /// if the service was never trained on `workload`.
    pub fn recommend(
        &self,
        props: &GraphProperties,
        workload: Workload,
        goal: OptGoal,
    ) -> Result<Selection, EaseError> {
        self.ease.try_select(props, workload, self.meta.default_k, goal)
    }

    /// Advanced-tier properties of the context's graph, served from the
    /// query-side LRU when its content fingerprint was seen before.
    /// Extraction (the miss path) runs outside the cache lock; concurrent
    /// first queries on the same graph may both extract, which is wasteful
    /// but correct — the results are identical.
    pub fn cached_properties_prepared(&self, prepared: &PreparedGraph<'_>) -> GraphProperties {
        let key = prepared.fingerprint();
        if let Some(props) =
            self.props_cache.lock().unwrap_or_else(PoisonError::into_inner).get(key)
        {
            return props;
        }
        let props = prepared.properties(PropertyTier::Advanced);
        self.props_cache.lock().unwrap_or_else(PoisonError::into_inner).insert(key, props.clone());
        props
    }

    /// Probe the property cache by an already-known content fingerprint,
    /// without touching the graph itself. This is the serve daemon's fast
    /// path: its stat-keyed memo maps an unchanged graph *file* to the
    /// fingerprint it hashed last time, and this probe turns that into
    /// cached properties with zero `O(|E|)` work. Returns `None` (recorded
    /// as neither hit nor miss) when the entry was evicted — the caller
    /// re-extracts through [`EaseService::cached_properties_prepared`],
    /// which records the miss.
    pub fn try_cached_properties(&self, fingerprint: u64) -> Option<GraphProperties> {
        self.props_cache.lock().unwrap_or_else(PoisonError::into_inner).probe(fingerprint)
    }

    /// Hit/miss/occupancy counters of the property cache.
    pub fn property_cache_stats(&self) -> PropertyCacheStats {
        let cache = self.props_cache.lock().unwrap_or_else(PoisonError::into_inner);
        PropertyCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            len: cache.entries.len(),
            capacity: cache.capacity,
        }
    }

    /// Summarize the trained service for reporting (`ease inspect`).
    pub fn info(&self) -> ServiceInfo {
        let mut chosen = Vec::new();
        for (target, c) in &self.ease.quality.chosen {
            chosen.push((format!("quality/{}", target.name()), c.config.describe(), c.cv_mape));
        }
        let pt = &self.ease.partitioning_time.chosen;
        chosen.push(("partitioning-time".to_string(), pt.config.describe(), pt.cv_mape));
        for (name, c) in &self.ease.processing_time.chosen {
            chosen.push((format!("processing/{name}"), c.config.describe(), c.cv_mape));
        }
        ServiceInfo {
            meta: self.meta,
            tier: self.ease.quality.tier,
            catalog: self.ease.catalog.clone(),
            workloads: self.supported_workloads(),
            chosen,
        }
    }

    // -----------------------------------------------------------------
    // Persistence
    // -----------------------------------------------------------------

    /// Serialize the whole trained service (models + provenance) into the
    /// versioned binary format, straight from the trained components — no
    /// copy of any fitted state is made on the way.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        write_header(&mut w);
        // provenance
        w.put_str(self.meta.scale.name());
        w.put_u64(self.meta.seed);
        w.put_usize(self.meta.folds);
        w.put_u8(match self.meta.timing {
            TimingMode::Measured => 0,
            TimingMode::Deterministic => 1,
        });
        w.put_usize(self.meta.default_k);
        w.put_u8(self.meta.default_goal.tag());
        // catalog
        w.put_usize(self.ease.catalog.len());
        for p in &self.ease.catalog {
            w.put_u8(p.index() as u8);
        }
        // the three predictors, each writing its own bytes
        self.ease.quality.encode(&mut w);
        self.ease.partitioning_time.encode(&mut w);
        self.ease.processing_time.encode(&mut w);
        // property-cache trailer (format v2): fingerprint-keyed extracted
        // properties in LRU order, so a reloaded service answers warm
        let cache = self.props_cache.lock().unwrap_or_else(PoisonError::into_inner);
        w.put_usize(cache.entries.len());
        for (key, props) in &cache.entries {
            w.put_u64(*key);
            put_props(&mut w, props);
        }
        w.into_bytes()
    }

    /// Deserialize a service persisted by [`EaseService::to_bytes`]. Total
    /// on hostile bytes: a typed [`PersistError`], or a service whose
    /// predictions terminate in bounds.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EaseError> {
        let mut r = Reader::new(bytes);
        let version = read_header(&mut r)?;
        // provenance
        let scale_name = r.take_str()?;
        let scale = Scale::parse(&scale_name).ok_or_else(|| {
            PersistError::Corrupt(format!("unknown persisted scale `{scale_name}`"))
        })?;
        let seed = r.take_u64()?;
        let folds = r.take_usize()?;
        let timing = match r.take_u8()? {
            0 => TimingMode::Measured,
            1 => TimingMode::Deterministic,
            other => {
                return Err(PersistError::Corrupt(format!("unknown timing tag {other}")).into())
            }
        };
        let default_k = r.take_usize()?;
        let goal_tag = r.take_u8()?;
        let default_goal = OptGoal::from_tag(goal_tag)
            .ok_or_else(|| PersistError::Corrupt(format!("unknown goal tag {goal_tag}")))?;
        // catalog
        let n_catalog = r.take_usize()?;
        if n_catalog > PartitionerId::ALL.len() {
            return Err(PersistError::Corrupt(format!(
                "catalog of {n_catalog} exceeds the {} known partitioners",
                PartitionerId::ALL.len()
            ))
            .into());
        }
        let mut catalog = Vec::with_capacity(n_catalog);
        for _ in 0..n_catalog {
            catalog.push(partitioner_from_tag(r.take_u8()?)?);
        }
        // the three predictors, each reading (and checking) its own bytes
        let quality = QualityPredictor::decode(&mut r)?;
        let partitioning_time = PartitioningTimePredictor::decode(&mut r)?;
        let processing_time = ProcessingTimePredictor::decode(&mut r)?;
        // property-cache trailer (absent in v1 files: those start cold)
        let mut warm: Vec<(u64, GraphProperties)> = Vec::new();
        if version >= 2 {
            let n_cached = r.take_usize()?;
            if n_cached > PROPERTY_CACHE_CAPACITY {
                return Err(PersistError::Corrupt(format!(
                    "{n_cached} cached property entries exceed the cache capacity \
                     ({PROPERTY_CACHE_CAPACITY})"
                ))
                .into());
            }
            for _ in 0..n_cached {
                let key = r.take_u64()?;
                warm.push((key, take_props(&mut r)?));
            }
        }
        if r.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the service payload",
                r.remaining()
            ))
            .into());
        }
        let mut ease = Ease::new(quality, partitioning_time, processing_time);
        ease.catalog = catalog;
        let meta = ServiceMeta { scale, seed, folds, timing, default_k, default_goal };
        let service = EaseService::from_parts(ease, meta);
        {
            let mut cache = service.props_cache.lock().unwrap_or_else(PoisonError::into_inner);
            for (key, props) in warm {
                cache.insert(key, props);
            }
        }
        Ok(service)
    }

    /// Persist the trained service to disk (atomic: write to a sibling
    /// temp file, then rename). The temp name appends to the full file
    /// name — never replaces the extension — and carries the pid, so
    /// concurrent saves of sibling artifacts cannot clobber each other.
    pub fn save(&self, path: &Path) -> Result<(), EaseError> {
        let bytes = self.to_bytes();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(format!(".{}.tmp", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp_name);
        std::fs::write(&tmp, &bytes)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        Ok(())
    }

    /// Load a service persisted by [`EaseService::save`].
    pub fn load(path: &Path) -> Result<Self, EaseError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------
// Small enum codecs
// ---------------------------------------------------------------------

fn partitioner_from_tag(tag: u8) -> Result<PartitionerId, PersistError> {
    PartitionerId::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| PersistError::Corrupt(format!("unknown partitioner tag {tag}")))
}

/// Encode extracted graph properties for the cache trailer. `f64`s go as
/// raw bits, so a warm-restarted cache serves byte-identical answers.
fn put_props(w: &mut Writer, p: &GraphProperties) {
    w.put_usize(p.num_vertices);
    w.put_usize(p.num_edges);
    w.put_f64(p.density);
    w.put_f64(p.mean_degree);
    w.put_f64(p.in_degree_skew);
    w.put_f64(p.out_degree_skew);
    w.put_opt(p.avg_triangles, Writer::put_f64);
    w.put_opt(p.avg_lcc, Writer::put_f64);
}

fn take_props(r: &mut Reader) -> Result<GraphProperties, PersistError> {
    // fields are read in wire order: a struct literal evaluates top to bottom
    Ok(GraphProperties {
        num_vertices: r.take_usize()?,
        num_edges: r.take_usize()?,
        density: r.take_f64()?,
        mean_degree: r.take_f64()?,
        in_degree_skew: r.take_f64()?,
        out_degree_skew: r.take_f64()?,
        avg_triangles: r.take_opt(Reader::take_f64)?,
        avg_lcc: r.take_opt(Reader::take_f64)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graphgen::realworld::socfb_analogue;

    fn tiny_builder() -> EaseServiceBuilder {
        EaseServiceBuilder::at_scale(Scale::Tiny)
            .quick_grid()
            .max_small_graphs(Some(6))
            .max_large_graphs(Some(4))
            .partition_counts(vec![2, 4])
            .partitioners(vec![PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne])
            .workloads(vec![Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents])
            .folds(2)
            .timing(TimingMode::Deterministic)
    }

    #[test]
    fn builder_validation_catches_bad_configs() {
        let invalid = |b: EaseServiceBuilder| {
            assert!(matches!(b.train().unwrap_err(), EaseError::InvalidConfig(_)));
        };
        invalid(tiny_builder().folds(1));
        invalid(tiny_builder().model_grid(vec![]));
        invalid(tiny_builder().partition_counts(vec![]));
        invalid(tiny_builder().partition_counts(vec![1]));
        invalid(tiny_builder().partitioners(vec![]));
        invalid(tiny_builder().workloads(vec![]));
        invalid(tiny_builder().max_small_graphs(Some(0)));
        invalid(tiny_builder().processing_k(1));
    }

    #[test]
    fn trained_service_answers_and_rejects_unknown_workloads() {
        let service = tiny_builder().train().unwrap();
        let graph = socfb_analogue(Scale::Tiny, 3).graph;
        let props = PreparedGraph::of(&graph).properties(PropertyTier::Advanced);
        let sel = service
            .recommend(&props, Workload::PageRank { iterations: 3 }, OptGoal::EndToEnd)
            .unwrap();
        assert_eq!(sel.candidates.len(), 3);
        assert!(service.catalog().contains(&sel.best));
        // never trained on k-cores -> typed error, not a panic
        let err = service.recommend(&props, Workload::KCores, OptGoal::EndToEnd).unwrap_err();
        match err {
            EaseError::UnsupportedWorkload { requested, supported } => {
                assert_eq!(requested, "kcores");
                assert!(supported.contains(&"pr".to_string()));
            }
            other => panic!("expected UnsupportedWorkload, got {other:?}"),
        }
    }

    fn same_bits(a: &Selection, b: &Selection) {
        assert_eq!(a.best, b.best);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (a, b) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(a.end_to_end_secs.to_bits(), b.end_to_end_secs.to_bits());
        }
    }

    #[test]
    fn recommend_answers_at_the_trained_default_k() {
        let service = tiny_builder().train().unwrap();
        let graph = socfb_analogue(Scale::Tiny, 3).graph;
        let props = PreparedGraph::of(&graph).properties(PropertyTier::Advanced);
        let workload = Workload::PageRank { iterations: 3 };
        let meta = *service.meta();
        assert_eq!(meta.default_k, tiny_builder().config().processing_k);
        assert_eq!(meta.default_goal, OptGoal::EndToEnd);
        for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
            same_bits(
                &service.recommend(&props, workload, goal).unwrap(),
                &service.ease().try_select(&props, workload, meta.default_k, goal).unwrap(),
            );
        }
    }

    #[test]
    fn service_round_trips_through_bytes_bit_exactly() {
        let service = tiny_builder().train().unwrap();
        let bytes = service.to_bytes();
        let restored = EaseService::from_bytes(&bytes).unwrap();
        assert_eq!(restored.meta(), service.meta());
        assert_eq!(restored.catalog(), service.catalog());
        assert_eq!(restored.supported_workloads(), service.supported_workloads());
        for seed in [5, 6, 7] {
            let graph = socfb_analogue(Scale::Tiny, seed).graph;
            let props = PreparedGraph::of(&graph).properties(PropertyTier::Advanced);
            for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
                let a =
                    service.recommend(&props, Workload::PageRank { iterations: 3 }, goal).unwrap();
                let b =
                    restored.recommend(&props, Workload::PageRank { iterations: 3 }, goal).unwrap();
                assert_eq!(a.best, b.best);
                for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
                    assert_eq!(ca.partitioning_secs.to_bits(), cb.partitioning_secs.to_bits());
                    assert_eq!(ca.processing_secs.to_bits(), cb.processing_secs.to_bits());
                }
            }
        }
    }

    #[test]
    fn corrupted_and_truncated_payloads_are_typed_errors() {
        let service = tiny_builder().train().unwrap();
        let bytes = service.to_bytes();
        // flipped magic
        let mut bad = bytes.clone();
        bad[2] ^= 0xFF;
        assert!(matches!(
            EaseService::from_bytes(&bad).unwrap_err(),
            EaseError::Persist(PersistError::BadMagic)
        ));
        // truncation
        assert!(matches!(
            EaseService::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err(),
            EaseError::Persist(_)
        ));
        // trailing garbage
        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            EaseService::from_bytes(&long).unwrap_err(),
            EaseError::Persist(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn graph_queries_cache_by_content_fingerprint() {
        let service = tiny_builder().train().unwrap();
        let g = socfb_analogue(Scale::Tiny, 21).graph;
        let first = service.cached_properties_prepared(&PreparedGraph::of(&g));
        let stats = service.property_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 1, 1));
        // same content (an independent clone!) -> cache hit, same properties
        let again = service.cached_properties_prepared(&PreparedGraph::of(&g.clone()));
        assert_eq!(first, again);
        let stats = service.property_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // a different graph misses
        let other = socfb_analogue(Scale::Tiny, 22).graph;
        service.cached_properties_prepared(&PreparedGraph::of(&other));
        let stats = service.property_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 2));
        // cached answers are bit-identical to the uncached path, at the
        // default k and at an explicit one
        let direct = PreparedGraph::of(&g).properties(PropertyTier::Advanced);
        let wl = Workload::PageRank { iterations: 3 };
        for k in [service.meta().default_k, 2] {
            for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
                same_bits(
                    &service.ease().try_select(&again, wl, k, goal).unwrap(),
                    &service.ease().try_select(&direct, wl, k, goal).unwrap(),
                );
            }
        }
    }

    #[test]
    fn property_cache_evicts_least_recently_used() {
        let mut cache = PropertyCache::new(2);
        let graph = socfb_analogue(Scale::Tiny, 1).graph;
        let props = PreparedGraph::of(&graph).properties(PropertyTier::Advanced);
        cache.insert(1, props.clone());
        cache.insert(2, props.clone());
        assert_eq!(cache.evictions, 0, "filling to capacity evicts nothing");
        assert!(cache.get(1).is_some()); // 1 becomes most recent
        cache.insert(3, props.clone()); // evicts 2
        assert_eq!(cache.evictions, 1);
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        // re-inserting an existing key must not evict anyone
        cache.insert(1, props.clone());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.evictions, 1, "refresh of a resident key is not an eviction");
        // every further displacement is counted
        cache.insert(4, props.clone());
        cache.insert(5, props);
        assert_eq!(cache.evictions, 3);
    }

    #[test]
    fn concurrent_prepared_queries_keep_cache_stats_coherent() {
        let service = tiny_builder().train().unwrap();
        let graphs: Vec<_> = (0..3).map(|i| socfb_analogue(Scale::Tiny, 60 + i).graph).collect();
        let wl = Workload::PageRank { iterations: 3 };
        const CLIENTS: usize = 8;
        const REQS_PER_CLIENT: usize = 6;
        let baseline: Vec<Selection> = graphs
            .iter()
            .map(|g| {
                let props = PreparedGraph::of(g).properties(PropertyTier::Advanced);
                service.recommend(&props, wl, OptGoal::EndToEnd).unwrap()
            })
            .collect();
        // reset point: stats after the baseline queries (which bypassed the cache)
        let before = service.property_cache_stats();
        assert_eq!((before.hits, before.misses), (0, 0));
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let service = &service;
                let graphs = &graphs;
                let baseline = &baseline;
                scope.spawn(move || {
                    for r in 0..REQS_PER_CLIENT {
                        let which = (c + r) % graphs.len();
                        let prepared = PreparedGraph::of(&graphs[which]);
                        let props = service.cached_properties_prepared(&prepared);
                        let sel = service.recommend(&props, wl, OptGoal::EndToEnd).unwrap();
                        assert_eq!(sel.best, baseline[which].best, "client {c} req {r}");
                        same_bits(&sel, &baseline[which]);
                    }
                });
            }
        });
        let stats = service.property_cache_stats();
        let total = (CLIENTS * REQS_PER_CLIENT) as u64;
        // exactly one cache lookup per query; a first query per graph misses,
        // and concurrent first queries may race to a redundant (but
        // identical) extraction — misses is bounded by the client count
        assert_eq!(stats.hits + stats.misses, total);
        assert!(stats.misses >= graphs.len() as u64, "each distinct graph misses at least once");
        assert!(stats.misses <= CLIENTS as u64 * graphs.len() as u64);
        assert_eq!(stats.len, graphs.len(), "one resident entry per distinct fingerprint");
        assert_eq!(stats.evictions, 0, "far below capacity: nothing displaced");
    }

    #[test]
    fn persisted_property_cache_makes_restarts_warm() {
        let service = tiny_builder().train().unwrap();
        let g = socfb_analogue(Scale::Tiny, 33).graph;
        let wl = Workload::PageRank { iterations: 3 };
        let goal = OptGoal::EndToEnd;
        let props = service.cached_properties_prepared(&PreparedGraph::of(&g));
        let first = service.recommend(&props, wl, goal).unwrap();
        assert_eq!(service.property_cache_stats().misses, 1);
        // save with the warm entry, reload in a "new process"
        let restored = EaseService::from_bytes(&service.to_bytes()).unwrap();
        let stats = restored.property_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 1), "restored warm");
        // the restarted service answers from the persisted cache: a hit, no
        // extraction, and a byte-identical ranking
        let warm = restored.cached_properties_prepared(&PreparedGraph::of(&g));
        let again = restored.recommend(&warm, wl, goal).unwrap();
        let stats = restored.property_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        same_bits(&first, &again);
        // cached properties survive the round trip bit-exactly
        let direct = PreparedGraph::of(&g).properties(PropertyTier::Advanced);
        let cached = restored.cached_properties_prepared(&PreparedGraph::of(&g));
        assert_eq!(cached, direct);
        // an empty cache round-trips too
        let cold = tiny_builder().train().unwrap();
        let reloaded = EaseService::from_bytes(&cold.to_bytes()).unwrap();
        assert_eq!(reloaded.property_cache_stats().len, 0);
    }

    #[test]
    fn info_reports_every_trained_component() {
        let service = tiny_builder().train().unwrap();
        let info = service.info();
        // 5 quality targets + 1 partitioning time + 2 workloads
        assert_eq!(info.chosen.len(), 8);
        assert_eq!(info.catalog.len(), 3);
        assert_eq!(info.meta.timing, TimingMode::Deterministic);
        assert!(info.workloads.contains(&"pr") && info.workloads.contains(&"cc"));
    }
}
