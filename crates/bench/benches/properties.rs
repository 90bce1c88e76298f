//! Criterion benchmarks for graph property extraction — the inference-time
//! cost EASE pays before selection (the paper argues this must stay far
//! below partitioning cost, unlike GNN embeddings; Sec. IV-E).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ease_graph::{Csr, DegreeTable, GraphProperties, PreparedGraph, PropertyTier};
use ease_graphgen::erdos_renyi::ErdosRenyi;
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};
use std::hint::black_box;

fn bench_property_tiers(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[5], 1 << 13, 40_000, 11).generate();
    let mut group = c.benchmark_group("properties_40k_edges");
    group.sample_size(10);
    for tier in PropertyTier::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(tier.name()), &tier, |b, &tier| {
            b.iter(|| black_box(GraphProperties::compute(&graph, tier)));
        });
    }
    group.finish();
}

fn bench_prepared_extraction(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[5], 1 << 13, 40_000, 11).generate();
    let prepared = PreparedGraph::of(&graph);
    prepared.properties(PropertyTier::Advanced); // warm the context
    c.bench_function("properties_40k_edges/advanced_prepared_warm", |b| {
        b.iter(|| black_box(prepared.properties(PropertyTier::Advanced)));
    });
}

fn bench_degree_table(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[2], 1 << 13, 40_000, 3).generate();
    c.bench_function("degree_table_40k_edges", |b| {
        b.iter(|| black_box(DegreeTable::compute(&graph)));
    });
}

fn bench_triangles(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[0], 1 << 12, 24_000, 5).generate();
    c.bench_function("triangle_stats_24k_edges", |b| {
        b.iter(|| black_box(ease_graph::triangles::triangle_stats(&graph)));
    });
}

/// The triangle kernel alone, on a prebuilt adjacency: the two shapes the
/// `ease-bench` cold workloads use (skewed R-MAT: the mark-and-scan
/// dominates; sparse G(n, m): ranking and relabelling do), at a quarter of
/// their size.
fn bench_triangle_kernel(c: &mut Criterion) {
    let graphs = [
        ("rmat_skewed_100k_edges", Rmat::new(RMAT_COMBOS[6], 1 << 14, 100_000, 7).generate()),
        ("gnm_sparse_150k_edges", ErdosRenyi::new(1 << 16, 150_000, 7).generate()),
    ];
    let mut group = c.benchmark_group("triangle_counts_from_simple");
    for (name, graph) in &graphs {
        let adj = Csr::build_undirected_simple(graph);
        group.bench_with_input(BenchmarkId::from_parameter(name), &adj, |b, adj| {
            b.iter(|| black_box(ease_graph::triangles::triangle_counts_from_simple(adj)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_property_tiers, bench_prepared_extraction, bench_degree_table, bench_triangles,
        bench_triangle_kernel
}
criterion_main!(benches);
