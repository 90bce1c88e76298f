//! Criterion micro-benchmarks: partitioning throughput of all 11
//! partitioners, the stateful partitioners and the metrics pass at the shape
//! training profiles, plus two ablations called out in DESIGN.md — HDRF's λ
//! balance weight and NE's seed-driven vertex-balance instability (the
//! latter measured as quality spread, reported via bench output).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ease_graph::PreparedGraph;
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_partition::{hdrf, PartitionerId, QualityMetrics};
use std::hint::black_box;

fn bench_partitioners(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[6], 1 << 12, 20_000, 7).generate();
    let k = 32;
    let mut group = c.benchmark_group("partition_20k_edges_k32");
    group.sample_size(10);
    // a fresh context per iteration: the one-shot cost, degree derivation
    // included
    for id in PartitionerId::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(id.name()), &id, |b, &id| {
            b.iter(|| black_box(id.partition(&PreparedGraph::of(&graph), k, 1)));
        });
    }
    group.finish();
}

/// The shape step 2 of training runs at tiny scale: a dense R-MAT like the
/// R-MAT-SMALL corpus (512 vertices, 12 207 edges), the partitioners whose
/// per-edge kernels dominate profiling at the profiled `k ∈ {2, 4, 8}`, and
/// the metrics pass every run is followed by. One shared context, as in
/// profiling.
fn bench_profiling_shape(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[4], 512, 12_207, 11).generate();
    let prepared = PreparedGraph::of(&graph);
    let mut group = c.benchmark_group("profiling_shape");
    group.sample_size(10);
    let stateful = [
        PartitionerId::Hdrf,
        PartitionerId::Ne,
        PartitionerId::Hep1,
        PartitionerId::Hep10,
        PartitionerId::Hep100,
    ];
    for id in stateful {
        for k in [2, 4, 8] {
            group.bench_with_input(BenchmarkId::new(id.name(), k), &k, |b, &k| {
                b.iter(|| black_box(id.partition(&prepared, k, 1)));
            });
        }
    }
    for k in [2, 4, 8] {
        let part = PartitionerId::Hdrf.partition(&prepared, k, 1);
        group.bench_with_input(BenchmarkId::new("metrics", k), &part, |b, part| {
            b.iter(|| black_box(QualityMetrics::compute_prepared(&prepared, part)));
        });
    }
    group.finish();
}

fn bench_hdrf_lambda_ablation(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[4], 1 << 12, 20_000, 9).generate();
    let mut group = c.benchmark_group("hdrf_lambda_ablation");
    group.sample_size(10);
    for lambda in [0.1, 1.1, 5.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("lambda_{lambda}")),
            &lambda,
            |b, &lambda| {
                b.iter(|| black_box(hdrf::partition(&PreparedGraph::of(&graph), 16, 3, lambda)));
            },
        );
    }
    group.finish();
    // quality side of the ablation (printed once, not timed)
    let prepared = PreparedGraph::of(&graph);
    for lambda in [0.1, 1.1, 5.0] {
        let p = hdrf::partition(&prepared, 16, 3, lambda);
        let m = QualityMetrics::compute_prepared(&prepared, &p);
        eprintln!(
            "hdrf lambda={lambda}: rf={:.3} edge_balance={:.3}",
            m.replication_factor, m.edge_balance
        );
    }
}

fn bench_ne_seed_instability(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[6], 1 << 12, 16_000, 5).generate();
    c.bench_function("ne_partition_16k_edges_k8", |b| {
        b.iter(|| black_box(PartitionerId::Ne.partition(&PreparedGraph::of(&graph), 8, 1)));
    });
    // report the paper's instability observation alongside the timing
    let prepared = PreparedGraph::of(&graph);
    let balances: Vec<f64> = (0..5)
        .map(|s| {
            let p = PartitionerId::Ne.partition(&prepared, 8, s);
            QualityMetrics::compute_prepared(&prepared, &p).vertex_balance
        })
        .collect();
    let min = balances.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = balances.iter().cloned().fold(0.0, f64::max);
    eprintln!("ne vertex-balance across 5 seeds: min={min:.3} max={max:.3} ratio={:.2}", max / min);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_partitioners, bench_profiling_shape, bench_hdrf_lambda_ablation,
        bench_ne_seed_instability
}
criterion_main!(benches);
