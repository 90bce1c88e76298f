//! Criterion benchmarks for graph property extraction — the inference-time
//! cost EASE pays before selection (the paper argues this must stay far
//! below partitioning cost, unlike GNN embeddings; Sec. IV-E).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ease_graph::{DegreeTable, PreparedGraph, PropertyTier};
use ease_graphgen::erdos_renyi::ErdosRenyi;
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};
use std::hint::black_box;

fn bench_property_tiers(c: &mut Criterion) {
    let graph = Rmat::new(RMAT_COMBOS[5], 1 << 13, 40_000, 11).generate();
    let mut group = c.benchmark_group("properties_40k_edges");
    group.sample_size(10);
    for tier in PropertyTier::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(tier.name()), &tier, |b, &tier| {
            b.iter(|| black_box(PreparedGraph::of(&graph).properties(tier)));
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
        b.iter(|| black_box(PreparedGraph::of(&graph).triangle_stats()));
    });
}

/// The triangle kernel alone, fed by the edge stream and a precomputed
/// degree table: the two shapes the `ease-bench` cold workloads use (skewed
/// R-MAT: the mark-and-scan dominates; sparse G(n, m): ranking and routing
/// the forward lists do), at a quarter of their size.
fn bench_triangle_kernel(c: &mut Criterion) {
    let graphs = [
        ("rmat_skewed_100k_edges", Rmat::new(RMAT_COMBOS[6], 1 << 14, 100_000, 7).generate()),
        ("gnm_sparse_150k_edges", ErdosRenyi::new(1 << 16, 150_000, 7).generate()),
    ];
    let mut group = c.benchmark_group("triangles_count_source");
    for (name, graph) in &graphs {
        let total = graph.total_degrees();
        group.bench_with_input(BenchmarkId::from_parameter(name), graph, |b, graph| {
            b.iter(|| black_box(ease_graph::triangles::count_source(graph, &total)));
        });
    }
    group.finish();
}

/// Text ingest, file to `Graph`: the `ease-bench` `cold-text-sparse` input
/// as `write_edge_list` spells it (every line on the byte-scan fast path),
/// and the same edges as a KONECT dump — `%` header, tabs, weight and
/// timestamp columns, CRLF — so the cost of real-world dumps' extra
/// columns is a visible number next to it.
fn bench_read_edge_list(c: &mut Criterion) {
    let graph = ErdosRenyi::new(1 << 18, 600_000, 7).generate();
    let dir = std::env::temp_dir();
    let plain = dir.join(format!("ease_bench_read_plain_{}.txt", std::process::id()));
    let konect = dir.join(format!("ease_bench_read_konect_{}.txt", std::process::id()));
    ease_graph::io::write_edge_list(&graph, &plain).expect("write plain edge list");
    let mut dump = String::from("% sym weighted\r\n");
    for (i, e) in graph.edges().iter().enumerate() {
        dump.push_str(&format!("{}\t{}\t{}\t{}\r\n", e.src, e.dst, i % 5 + 1, 1_200_000_000 + i));
    }
    std::fs::write(&konect, dump).expect("write KONECT dump");
    let mut group = c.benchmark_group("read_edge_list");
    for (name, path) in
        [("gnm_sparse_600k_edges", &plain), ("konect_4col_crlf_600k_edges", &konect)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(name), path, |b, path| {
            b.iter(|| black_box(ease_graph::io::read_edge_list(path).expect("readable")));
        });
    }
    group.finish();
    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&konect).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_property_tiers, bench_prepared_extraction, bench_degree_table, bench_triangles,
        bench_triangle_kernel, bench_read_edge_list
}
criterion_main!(benches);
