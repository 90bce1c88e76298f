//! Criterion benchmarks for the six regression families: fit + predict
//! cost on an EASE-shaped dataset (8 numeric features + 11-way one-hot,
//! like the quality-predictor rows) — and, at the two shapes the product
//! actually trains on, the two tree ensembles' fits and the whole of model
//! selection: over the five quality targets (`quality_shape`) and over one
//! workload's processing times (`time_shape`); and at the shape it serves
//! (`serve_shape`), one catalog of eleven candidate rows through the models
//! a tiny service selects, batched and row by row, and a whole
//! `Ease::try_select`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ease::profiling::{profile_processing_with, TimingMode};
use ease::selector::OptGoal;
use ease::{EaseServiceBuilder, ProcessingTimePredictor};
use ease_graph::{PreparedGraph, PropertyTier};
use ease_graphgen::Scale;
use ease_ml::cv::{select_models, LabelGroup};
use ease_ml::{zoo, Matrix, ModelConfig};
use ease_procsim::Workload;
use std::hint::black_box;

fn synthetic_dataset(rows: usize) -> (Matrix, Vec<f64>) {
    let mut state = 0x9E37u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) as f64 / u64::MAX as f64
    };
    let mut data = Vec::with_capacity(rows);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row: Vec<f64> = (0..8).map(|_| next()).collect();
        let hot = (next() * 11.0) as usize % 11;
        for i in 0..11 {
            row.push(if i == hot { 1.0 } else { 0.0 });
        }
        y.push(row[0] * 3.0 + (row[1] * 6.0).sin() + hot as f64 * 0.2);
        data.push(row);
    }
    (Matrix::from_rows(&data), y)
}

/// The quality predictor's training set at tiny scale, in shape: 24 graphs
/// × 11 partitioners × 3 values of `k` = 792 rows of 18 columns — six graph
/// properties with 6, 8, 18, 21, 24 and 24 distinct values, `k`, an 11-way
/// one-hot — and five label vectors over them. Low-cardinality columns are
/// what the tree builder's occupied-bin masks and the shared bins see in
/// the product; 2 000 continuous rows show neither.
fn quality_shape() -> (Matrix, Vec<Vec<f64>>) {
    const CARDINALITIES: [usize; 6] = [6, 8, 18, 21, 24, 24];
    let mut x = Matrix::with_cols(CARDINALITIES.len() + 1 + 11);
    let mut labels = vec![Vec::new(); 5];
    for graph in 0..24usize {
        let props = CARDINALITIES.map(|c| ((graph * 7 + 3) % c) as f64 / c as f64);
        for partitioner in 0..11usize {
            for k in [2.0, 4.0, 8.0] {
                let mut row = props.to_vec();
                row.push(k);
                row.extend((0..11).map(|i| f64::from(i == partitioner)));
                x.push_row(&row);
                for (l, y) in labels.iter_mut().enumerate() {
                    let skew = props[(l + 2) % 6] + 0.3 * props[l];
                    y.push(1.0 + (k.log2() * skew + partitioner as f64 * 0.1 * props[5]).abs());
                }
            }
        }
    }
    (x, labels)
}

fn bench_quality_shape(c: &mut Criterion) {
    let (x, labels) = quality_shape();
    let grid = zoo::quick_grid();
    let mut group = c.benchmark_group("quality_shape_792x18");
    group.sample_size(10);
    for cfg in
        grid.iter().filter(|c| matches!(c, ModelConfig::Forest { .. } | ModelConfig::Xgb { .. }))
    {
        group.bench_with_input(BenchmarkId::new("fit", cfg.name()), cfg, |b, cfg| {
            b.iter(|| {
                let mut m = cfg.build();
                m.fit(&x, &labels[0]);
                black_box(m.predict_row(x.row(0)))
            });
        });
    }
    group.bench_function("select_models/quick_grid_5_labels_3_folds", |b| {
        b.iter(|| {
            let group = LabelGroup { x: &x, labels: labels.iter().map(Vec::as_slice).collect() };
            black_box(select_models(&grid, &[group], 3, 42).len())
        });
    });
    group.finish();
}

/// The processing-time predictor's training set at tiny scale, as training
/// builds it: one workload's 110 rows (10 graphs × 11 partitioners at the
/// default `k`) of 8 columns — two graph properties, the five quality
/// metrics, near-continuous, and the iteration count — and its one label
/// vector. Few samples: only a root split that leaves 96 of them on one
/// side derives a child's histograms from its parent's, so nearly every
/// node fills its own, and the tree builder must not get slower for
/// checking.
fn time_shape() -> (Matrix, Vec<f64>) {
    let builder = EaseServiceBuilder::at_scale(Scale::Tiny)
        .quick_grid()
        .timing(TimingMode::Deterministic)
        .seed(42);
    let cfg = builder.config();
    let runs = profile_processing_with(
        &cfg.large_inputs(),
        &cfg.partitioners,
        cfg.processing_k,
        &cfg.workloads,
        cfg.seed ^ 0x9A,
        cfg.timing,
    );
    let ds = ProcessingTimePredictor::dataset(&runs, cfg.workloads[0].name());
    assert_eq!((ds.x.rows, ds.x.cols), (110, 8), "the tiny processing-time shape");
    (ds.x, ds.y)
}

fn bench_time_shape(c: &mut Criterion) {
    let (x, y) = time_shape();
    let grid = zoo::quick_grid();
    let mut group = c.benchmark_group("time_shape_110x8");
    group.sample_size(20);
    for cfg in
        grid.iter().filter(|c| matches!(c, ModelConfig::Forest { .. } | ModelConfig::Xgb { .. }))
    {
        group.bench_with_input(BenchmarkId::new("fit", cfg.name()), cfg, |b, cfg| {
            b.iter(|| {
                let mut m = cfg.build();
                m.fit(&x, &y);
                black_box(m.predict_row(x.row(0)))
            });
        });
    }
    group.bench_function("select_models/quick_grid_1_label_3_folds", |b| {
        b.iter(|| {
            let group = LabelGroup { x: &x, labels: vec![&y] };
            black_box(select_models(&grid, &[group], 3, 42).len())
        });
    });
    group.finish();
}

/// What one recommendation asks of each model: the eleven partitioners'
/// rows of one graph at one `k`, through the three families the tiny
/// service selects at their chosen sizes — one `predict` over the matrix
/// against eleven `predict_row`s — and the whole catalog through all seven
/// models of a trained tiny service (`Ease::try_select`).
fn bench_serve_shape(c: &mut Criterion) {
    let (x, labels) = quality_shape();
    // graph 0 at k = 4: rows `partitioner * 3 + 1`
    let candidates = x.select(&(0..11).map(|p| p * 3 + 1).collect::<Vec<_>>());
    let mut group = c.benchmark_group("serve_shape");
    group.sample_size(20);
    for cfg in [
        ModelConfig::Xgb { n_estimators: 80, learning_rate: 0.1, max_depth: 5, lambda: 1.0 },
        ModelConfig::Forest { n_trees: 30, max_depth: 12, feature_fraction: 0.7 },
        ModelConfig::Poly { degree: 2, alpha: 1e-3 },
    ] {
        let mut m = cfg.build();
        m.fit(&x, &labels[0]);
        let name = cfg.name();
        group.bench_with_input(BenchmarkId::new("predict_11", name), &m, |b, m| {
            b.iter(|| black_box(m.predict(&candidates)));
        });
        group.bench_with_input(BenchmarkId::new("predict_row_x11", name), &m, |b, m| {
            b.iter(|| {
                black_box(
                    (0..candidates.rows).map(|i| m.predict_row(candidates.row(i))).sum::<f64>(),
                )
            });
        });
    }
    let service = EaseServiceBuilder::at_scale(Scale::Tiny)
        .quick_grid()
        .timing(TimingMode::Deterministic)
        .seed(42)
        .train()
        .expect("the tiny service trains");
    let graph = ease_graphgen::realworld::socfb_analogue(Scale::Tiny, 7).graph;
    let props = PreparedGraph::of(&graph).properties(PropertyTier::Advanced);
    let workload = Workload::PageRank { iterations: 10 };
    group.bench_function("try_select/tiny_seed42", |b| {
        b.iter(|| black_box(service.ease().try_select(&props, workload, 4, OptGoal::EndToEnd)))
    });
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let (x, y) = synthetic_dataset(2_000);
    let configs = [
        ModelConfig::Poly { degree: 2, alpha: 1e-3 },
        ModelConfig::Svr { c: 10.0, epsilon: 0.01, gamma: 0.5 },
        ModelConfig::Forest { n_trees: 60, max_depth: 14, feature_fraction: 0.6 },
        ModelConfig::Xgb { n_estimators: 100, learning_rate: 0.1, max_depth: 5, lambda: 1.0 },
        ModelConfig::Knn { k: 5, distance_weighted: true },
        ModelConfig::Mlp { hidden: vec![32, 16], epochs: 20, learning_rate: 1e-3 },
    ];
    let mut group = c.benchmark_group("model_fit_2000rows");
    group.sample_size(10);
    for cfg in &configs {
        group.bench_with_input(BenchmarkId::from_parameter(cfg.name()), cfg, |b, cfg| {
            b.iter(|| {
                let mut m = cfg.build();
                m.fit(&x, &y);
                black_box(m.predict_row(x.row(0)))
            });
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (x, y) = synthetic_dataset(2_000);
    let mut group = c.benchmark_group("model_predict_row");
    group.sample_size(20);
    for cfg in [
        ModelConfig::Forest { n_trees: 60, max_depth: 14, feature_fraction: 0.6 },
        ModelConfig::Xgb { n_estimators: 100, learning_rate: 0.1, max_depth: 5, lambda: 1.0 },
        ModelConfig::Knn { k: 5, distance_weighted: true },
    ] {
        let mut m = cfg.build();
        m.fit(&x, &y);
        group.bench_with_input(BenchmarkId::from_parameter(cfg.name()), &m, |b, m| {
            b.iter(|| black_box(m.predict_row(x.row(7))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_fit, bench_predict, bench_quality_shape, bench_time_shape, bench_serve_shape
}
criterion_main!(benches);
