//! Persistence guarantees for the `EASEMODL` codec:
//!
//! 1. Every `ModelConfig` in the default grid survives `encode → decode`
//!    with **bit-identical** predictions on random feature vectors
//!    (property-tested).
//! 2. A trained `EaseService` saved to disk and reloaded produces identical
//!    `Selection`s for the same queries.
//! 3. The bytes themselves are pinned: a committed fixture loads and
//!    re-saves byte for byte (`golden_service_bytes_are_stable`).
//! 4. Hostile bytes are typed errors — corrupted headers, version skew,
//!    the four shapes that used to abort, hang or panic, and every
//!    single-byte mutation, truncation and extension of the fixture: never
//!    a panic, an abort, a hang or a silently wrong model.

use ease_repro::core::profiling::TimingMode;
use ease_repro::core::{PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor};
use ease_repro::graph::{GraphProperties, PropertyTier};
use ease_repro::graphgen::realworld::socfb_analogue;
use ease_repro::graphgen::Scale;
use ease_repro::ml::persist::{
    decode_regressor, encode_config, read_header, write_header, Reader, Writer,
};
use ease_repro::ml::zoo::default_grid;
use ease_repro::ml::{Matrix, ModelConfig, PersistError};
use ease_repro::partition::{PartitionerId, QualityTarget};
use ease_repro::procsim::Workload;
use ease_repro::{EaseError, EaseService, EaseServiceBuilder, OptGoal, PreparedGraph, ServiceMeta};
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Shrink the expensive grid members so the property test stays fast
/// without losing family coverage.
fn test_sized(cfg: ModelConfig) -> ModelConfig {
    match cfg {
        ModelConfig::Mlp { hidden, .. } => {
            ModelConfig::Mlp { hidden, epochs: 8, learning_rate: 1e-3 }
        }
        ModelConfig::Forest { max_depth, feature_fraction, .. } => {
            ModelConfig::Forest { n_trees: 12, max_depth, feature_fraction }
        }
        ModelConfig::Xgb { learning_rate, max_depth, lambda, .. } => {
            ModelConfig::Xgb { n_estimators: 25, learning_rate, max_depth, lambda }
        }
        other => other,
    }
}

fn round_trip(
    model: &dyn ease_repro::ml::Regressor,
    width: usize,
) -> Box<dyn ease_repro::ml::Regressor> {
    let mut w = Writer::new();
    write_header(&mut w);
    model.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    read_header(&mut r).expect("valid header");
    let restored = decode_regressor(&mut r, width).expect("decodable");
    assert_eq!(r.remaining(), 0, "payload fully consumed");
    restored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// save → load → identical predictions on random feature vectors, for
    /// every model family + hyper-parameter point of the default grid.
    #[test]
    fn every_grid_config_round_trips_on_random_vectors(
        rows in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 4usize..=4), 25usize..40),
        probes in prop::collection::vec(prop::collection::vec(-75.0f64..75.0, 4usize..=4), 8usize..=8),
    ) {
        let y: Vec<f64> = rows.iter().map(|r| r[0] - 0.5 * r[1] + (r[2] * 0.1).sin() * r[3]).collect();
        let x = Matrix::from_rows(&rows);
        for cfg in default_grid() {
            let cfg = test_sized(cfg);
            let mut model = cfg.build();
            model.fit(&x, &y);
            let restored = round_trip(model.as_ref(), x.cols);
            for probe in &probes {
                let a = model.predict_row(probe);
                let b = restored.predict_row(probe);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} diverged on {:?}", cfg.describe(), probe);
            }
        }
    }
}

fn tiny_service() -> EaseService {
    EaseServiceBuilder::at_scale(Scale::Tiny)
        .quick_grid()
        .max_small_graphs(Some(6))
        .max_large_graphs(Some(4))
        .partition_counts(vec![2, 4])
        .partitioners(vec![PartitionerId::OneDD, PartitionerId::Hdrf, PartitionerId::Ne])
        .workloads(vec![Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents])
        .folds(2)
        .timing(TimingMode::Deterministic)
        .seed(77)
        .train()
        .expect("valid config")
}

#[test]
fn service_survives_a_disk_round_trip_with_identical_selections() {
    let service = tiny_service();
    let path = std::env::temp_dir().join(format!("ease_rt_{}.model", std::process::id()));
    service.save(&path).expect("saveable");
    let restored = EaseService::load(&path).expect("loadable");
    std::fs::remove_file(&path).ok();

    assert_eq!(restored.meta(), service.meta());
    assert_eq!(restored.catalog(), service.catalog());
    for seed in 0..6 {
        let props = PreparedGraph::new(socfb_analogue(Scale::Tiny, seed).graph)
            .properties(PropertyTier::Advanced);
        for workload in [Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents] {
            for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
                let a = service.recommend(&props, workload, goal).expect("trained");
                let b = restored.recommend(&props, workload, goal).expect("trained");
                assert_eq!(a.best, b.best, "seed {seed}");
                for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
                    assert_eq!(ca.partitioner, cb.partitioner);
                    assert_eq!(ca.end_to_end_secs.to_bits(), cb.end_to_end_secs.to_bits());
                    assert_eq!(
                        ca.quality.replication_factor.to_bits(),
                        cb.quality.replication_factor.to_bits()
                    );
                }
            }
        }
    }
}

#[test]
fn corrupted_header_is_rejected() {
    let service = tiny_service();
    let good = service.to_bytes();

    // flipped magic byte
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0x01;
    assert!(matches!(
        EaseService::from_bytes(&bad_magic).unwrap_err(),
        EaseError::Persist(PersistError::BadMagic)
    ));

    // future format version
    let mut future = good.clone();
    future[8] = 0xFF;
    assert!(matches!(
        EaseService::from_bytes(&future).unwrap_err(),
        EaseError::Persist(PersistError::UnsupportedVersion(_))
    ));

    // header alone (truncated payload)
    assert!(matches!(EaseService::from_bytes(&good[..12]).unwrap_err(), EaseError::Persist(_)));

    // empty file
    assert!(matches!(
        EaseService::from_bytes(&[]).unwrap_err(),
        EaseError::Persist(PersistError::BadMagic)
    ));
}

/// Format v1 had no property-cache trailer: such a file still loads, cold,
/// and re-saves as v2 with an empty trailer and every other byte in place.
#[test]
fn a_v1_file_still_loads_cold() {
    // the fixture's trailer: count, key, six 8-byte fields, `None`, `Some(f64)`
    let models_end = GOLDEN.len() - (8 + 8 + 6 * 8 + 1 + 9);
    let mut v1 = GOLDEN[..models_end].to_vec();
    v1[8] = 1;
    let service = EaseService::from_bytes(&v1).expect("v1 loads");
    assert_eq!(service.property_cache_stats().len, 0);
    let mut v2_cold = GOLDEN[..models_end].to_vec();
    v2_cold.extend_from_slice(&0u64.to_le_bytes());
    assert!(service.to_bytes() == v2_cold);
}

/// Run `work` on its own thread and give it 10 s: a decoder that hangs (a
/// self-linking tree node used to) fails the test instead of wedging the
/// suite, and a panic on the worker is re-raised here.
fn within_watchdog<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(work());
    });
    match result.recv_timeout(Duration::from_secs(10)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("no answer within 10 s: hung"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the worker dropped its sender"))
        }
    }
}

/// All a hostile model file may cause: a typed persistence error, or a
/// service that answers a query for its one workload.
fn loads_or_fails_typed(bytes: &[u8], props: &GraphProperties) {
    match EaseService::from_bytes(bytes) {
        Ok(service) => {
            for workload in service.supported_workloads() {
                let workload = Workload::from_name(workload).expect("interned on load");
                let _ = service.recommend(props, workload, OptGoal::EndToEnd);
            }
        }
        Err(EaseError::Persist(_)) => {}
        Err(other) => panic!("unexpected error class: {other:?}"),
    }
}

const GOLDEN: &[u8] = include_bytes!("fixtures/golden_v2.model");

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Totality over the golden fixture, which reaches every model tag,
    /// every config tag and both option arms: with one byte changed (every
    /// position, under one random mask per case) or a tail appended it
    /// never panics, aborts or hangs — not on load, and not on the first
    /// query of whatever loaded.
    #[test]
    fn mid_payload_corruption_never_panics(
        mask in 1u8..=255,
        tail in prop::collection::vec(0u8..=255, 1..48),
    ) {
        within_watchdog(move || {
            let props = PreparedGraph::new(socfb_analogue(Scale::Tiny, 1).graph).properties(PropertyTier::Advanced);
            let mut bytes = GOLDEN.to_vec();
            for at in 0..GOLDEN.len() {
                bytes[at] ^= mask;
                loads_or_fails_typed(&bytes, &props);
                bytes[at] ^= mask;
            }
            bytes.extend_from_slice(&tail);
            loads_or_fails_typed(&bytes, &props);
        });
    }
}

/// Cut short anywhere, the fixture is a typed error — never a panic, and
/// never a service: the trailer count and the trailing-bytes check leave
/// no proper prefix that is itself a complete file.
#[test]
fn every_truncation_is_a_typed_error() {
    within_watchdog(|| {
        for cut in 0..GOLDEN.len() {
            match EaseService::from_bytes(&GOLDEN[..cut]) {
                Err(EaseError::Persist(_)) => {}
                other => panic!("{cut} of {} bytes: {other:?}", GOLDEN.len()),
            }
        }
    });
}

// ---------------------------------------------------------------------
// The four hostile files that got past the decoder before ISSUE 18, byte
// for byte as they were probed against it: each is `Corrupt` now.
// ---------------------------------------------------------------------

/// `width` is the one the file's own models declare, so that it is the
/// defect under test that refuses it.
fn decodes_as_corrupt(width: usize, bytes: Vec<u8>) {
    let outcome =
        within_watchdog(move || decode_regressor(&mut Reader::new(&bytes), width).map(|_| ()));
    assert!(matches!(outcome, Err(PersistError::Corrupt(_))), "{outcome:?}");
}

/// A lone tree (model tag 3) with default parameters, the given nodes and
/// one feature's worth of importances.
fn lone_tree(put_nodes: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(3);
    for size in [12, 4, 2] {
        w.put_usize(size); // max_depth, min_samples_split, min_samples_leaf
    }
    w.put_u8(0); // max_features: None
    w.put_f64(0.0); // leaf_l2
    w.put_f64(1e-12); // min_gain
    w.put_u64(0); // seed
    put_nodes(&mut w);
    w.put_f64s(&[0.0]);
    w.into_bytes()
}

fn put_split(w: &mut Writer, feature: u32, left: u32, right: u32) {
    w.put_u8(1);
    w.put_u32(feature);
    w.put_f64(0.0);
    w.put_u32(left);
    w.put_u32(right);
}

/// 20 000 nested `09 00` pairs — scaled model, no scaler — recursed through
/// the old decoder until a release build overflowed its stack and aborted
/// (1 000 pairs did in a debug build). A pipeline now holds any model but
/// another pipeline, so no file chooses the decode depth.
#[test]
fn deeply_nested_scaled_models_are_corrupt_not_a_stack_overflow() {
    decodes_as_corrupt(0, [9u8, 0].repeat(20_000));
    // the same nesting under fitted (empty) scalers, so that it is the
    // nesting rule that refuses it
    let fitted: Vec<u8> = [9u8, 1].into_iter().chain([0; 16]).collect();
    decodes_as_corrupt(0, fitted.repeat(20_000));
}

/// A split whose children are itself decoded `Ok`, and `predict_row` never
/// returned. Links must point strictly forward.
#[test]
fn a_self_linking_tree_node_is_corrupt_not_a_hang() {
    let self_linking = lone_tree(|w| {
        w.put_usize(1);
        put_split(w, 0, 0, 0);
    });
    decodes_as_corrupt(1, self_linking);
}

/// A split on feature 1000 of a one-feature tree decoded `Ok` and indexed
/// past the row (`tree.rs:324`) on the first prediction.
#[test]
fn an_out_of_range_split_feature_is_corrupt_not_a_panic() {
    let out_of_range = lone_tree(|w| {
        w.put_usize(3);
        put_split(w, 1000, 1, 2);
        for _ in 0..2 {
            w.put_u8(0);
            w.put_f64(1.0);
        }
    });
    decodes_as_corrupt(1, out_of_range);
}

/// A KNN training matrix of `2^63 × 2` with no data: the unchecked product
/// panicked on overflow under `cargo test` and wrapped to `0 == 0` in a
/// release build.
#[test]
fn overflowing_matrix_dimensions_are_corrupt_not_an_overflow() {
    let mut w = Writer::new();
    w.put_u8(6);
    w.put_usize(1); // k
    w.put_bool(false); // uniform weights
    w.put_usize(1 << 63);
    w.put_usize(2);
    w.put_f64s(&[]);
    w.put_f64s(&[]);
    decodes_as_corrupt(2, w.into_bytes());
}

/// A well-formed forest fitted on 40 (or 10) columns loaded into every
/// predictor, and the first prediction indexed `row[39]` of a 19-wide
/// feature row (`tree.rs`, index out of bounds) — in the daemon, an executor
/// panic on every request. A component model is as wide as the row its
/// predictor builds, or the file is `Corrupt`.
#[test]
fn a_model_wider_or_narrower_than_its_predictors_row_is_corrupt_not_a_panic() {
    for cols in [40usize, 10] {
        let rows: Vec<Vec<f64>> =
            (0..30).map(|i| (0..cols).map(|j| ((i * 7 + j * 3) % 11) as f64).collect()).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] + r[cols - 1]).collect();
        let cfg = ModelConfig::Forest { n_trees: 4, max_depth: 6, feature_fraction: 1.0 };
        let mut forest = cfg.build();
        forest.fit(&Matrix::from_rows(&rows), &y);
        // what every predictor stores per component: provenance, then model
        let put_component = |w: &mut Writer| {
            encode_config(w, &cfg);
            w.put_f64(0.1); // cv_mape
            forest.encode(w);
        };

        let mut ptime = Writer::new();
        put_component(&mut ptime);
        let mut quality = Writer::new();
        quality.put_u8(PropertyTier::Advanced.tag());
        quality.put_usize(QualityTarget::ALL.len());
        for tag in 0..QualityTarget::ALL.len() {
            quality.put_u8(tag as u8);
            put_component(&mut quality);
        }
        let mut processing = Writer::new();
        processing.put_usize(1);
        processing.put_str(Workload::ConnectedComponents.name());
        put_component(&mut processing);

        let (ptime, quality, processing) =
            (ptime.into_bytes(), quality.into_bytes(), processing.into_bytes());
        let outcomes = [
            PartitioningTimePredictor::decode(&mut Reader::new(&ptime)).map(|_| ()),
            QualityPredictor::decode(&mut Reader::new(&quality)).map(|_| ()),
            ProcessingTimePredictor::decode(&mut Reader::new(&processing)).map(|_| ()),
        ];
        for outcome in outcomes {
            assert!(matches!(outcome, Err(PersistError::Corrupt(_))), "{cols} wide: {outcome:?}");
        }
    }
}

#[test]
fn load_of_missing_file_is_an_io_error() {
    let err = EaseService::load(std::path::Path::new("/nonexistent/ease.model")).unwrap_err();
    assert!(matches!(err, EaseError::Io(_)), "{err:?}");
}

/// The only test that holds literal model bytes. `fixtures/golden_v2.model`
/// is `to_bytes()` of a hand-built (never trained, so libm-independent)
/// service written by the tree *before* ISSUE 18 rewrote the codec: tier
/// `simple`, catalog `[hdrf, ne]`, one workload, and seven component models
/// that between them use all nine model tags and all six config tags —
/// `Scaled(Poly(Ridge))`, a `Forest` of two 3-node trees, a one-tree `Gbt`,
/// `Scaled(Knn)`, `Scaled(Mlp)` with two layers, `Scaled(Svr)` and a bare
/// `Tree`, each as wide as its predictor's feature row — plus one
/// property-cache trailer entry with a `None` and a `Some` advanced field.
/// Any change to a field's order, width or tag fails here first.
#[test]
fn golden_service_bytes_are_stable() {
    let service = EaseService::from_bytes(GOLDEN).expect("the golden fixture loads");
    assert!(service.to_bytes() == GOLDEN, "load → save moved a byte of the v2 format");

    assert_eq!(
        *service.meta(),
        ServiceMeta {
            scale: Scale::Tiny,
            seed: 18,
            folds: 2,
            timing: TimingMode::Deterministic,
            default_k: 4,
            default_goal: OptGoal::EndToEnd,
        }
    );
    assert_eq!(service.catalog(), [PartitionerId::Hdrf, PartitionerId::Ne]);
    assert_eq!(service.supported_workloads(), ["pr"]);
    assert_eq!(service.property_cache_stats().len, 1);

    let info = service.info();
    assert_eq!(info.tier, PropertyTier::Simple);
    let chosen: Vec<(&str, &str, u64)> =
        info.chosen.iter().map(|(c, m, s)| (c.as_str(), m.as_str(), s.to_bits())).collect();
    assert_eq!(
        chosen,
        [
            ("quality/replication_factor", "poly(d=1,a=0.125)", 0.25f64.to_bits()),
            ("quality/edge_balance", "rfr(t=2,d=3,f=0.75)", 0.5f64.to_bits()),
            ("quality/vertex_balance", "xgb(n=1,lr=0.5,d=3,l=1)", 0.75f64.to_bits()),
            ("quality/source_balance", "knn(k=2,dw=true)", f64::NAN.to_bits()),
            ("quality/dest_balance", "mlp(h=[2],e=8,lr=0.001953125)", 1.5f64.to_bits()),
            ("partitioning-time", "svr(C=10,e=0.0625,g=0.5)", 2.0f64.to_bits()),
            ("processing/pr", "rfr(t=1,d=3,f=1)", 0.0625f64.to_bits()),
        ]
    );

    // every model is as wide as the row its predictor feeds it, so the
    // loaded service answers a query
    let props =
        PreparedGraph::new(socfb_analogue(Scale::Tiny, 1).graph).properties(PropertyTier::Advanced);
    let pick = service
        .recommend(&props, Workload::PageRank { iterations: 3 }, OptGoal::EndToEnd)
        .expect("pr is a trained workload");
    assert!(service.catalog().contains(&pick.best));
}
