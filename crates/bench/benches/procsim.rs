//! Criterion benchmarks for the distributed processing engine: the cost of
//! a one-shot `Workload::execute` — an activity trace (declared by the
//! stationary programs, one stateful run for the others) plus its pricing;
//! profiling shares the trace across partitioners — over an HDRF-partitioned
//! R-MAT graph, and the placement build itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ease_graph::PreparedGraph;
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_partition::PartitionerId;
use ease_procsim::{ClusterSpec, DistributedGraph, Workload};
use std::hint::black_box;

fn setup() -> DistributedGraph {
    let graph = PreparedGraph::new(Rmat::new(RMAT_COMBOS[5], 1 << 12, 24_000, 13).generate());
    let partition = PartitionerId::Hdrf.build(1).partition_prepared(&graph, 4);
    DistributedGraph::build_prepared(&graph, &partition)
}

fn bench_workloads(c: &mut Criterion) {
    let dg = setup();
    let cluster = ClusterSpec::new(4);
    let mut group = c.benchmark_group("procsim_24k_edges_k4");
    group.sample_size(10);
    for w in Workload::all_training() {
        group.bench_with_input(BenchmarkId::from_parameter(w.name()), &w, |b, w| {
            b.iter(|| black_box(w.execute(&dg, &cluster)));
        });
    }
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[5], 1 << 12, 24_000, 13).generate();
    let partition = PartitionerId::Hdrf.build(1).partition_prepared(&PreparedGraph::of(&graph), 4);
    // a fresh context per iteration: the one-shot build, degree table included
    c.bench_function("distributed_graph_build_24k", |b| {
        b.iter(|| {
            black_box(DistributedGraph::build_prepared(&PreparedGraph::of(&graph), &partition))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_workloads, bench_placement
}
criterion_main!(benches);
