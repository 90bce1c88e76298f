//! Criterion benchmarks for the generators at the shapes that run: the
//! `ease-bench` inputs (`serve-churn` writes 256 R-MAT files of 2^11 ×
//! 10 000 edges; `cold-bel-skewed` one of 2^16 × 400 000; `cold-text-sparse`
//! a G(n, m) of 2^18 × 600 000) and the `.bel` writer they stream into.
//! Generation is set-up cost, not op cost: it shows in `setup_s`, and in
//! every process that trains (the R-MAT corpora are regenerated per
//! process).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ease_graph::bel::BelWriter;
use ease_graph::Edge;
use ease_graphgen::erdos_renyi::ErdosRenyi;
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};
use std::hint::black_box;

/// R-MAT streamed into a sink that only folds the ids, so the number is
/// the generator's alone.
fn bench_rmat(c: &mut Criterion) {
    let shapes = [
        ("churn_2p11_x_10k", Rmat::new(RMAT_COMBOS[1], 1 << 11, 10_000, 701)),
        ("skewed_2p16_x_400k", Rmat::new(RMAT_COMBOS[6], 1 << 16, 400_000, 701)),
    ];
    let mut group = c.benchmark_group("generators/rmat");
    for (name, rmat) in &shapes {
        group.bench_with_input(BenchmarkId::from_parameter(name), rmat, |b, rmat| {
            b.iter(|| {
                let mut fold = 0u32;
                rmat.generate_into(&mut |e| fold ^= e.src ^ e.dst.rotate_left(16));
                black_box(fold)
            });
        });
    }
    group.finish();
}

fn bench_gnm(c: &mut Criterion) {
    let gnm = ErdosRenyi::new(1 << 18, 600_000, 701);
    c.bench_function("generators/gnm/sparse_2p18_x_600k", |b| {
        b.iter(|| black_box(gnm.generate()));
    });
}

/// 400 000 edges of the skewed shape written to a temp `.bel` file:
/// create, push each edge, patch the header.
fn bench_bel_writer(c: &mut Criterion) {
    let mut edges: Vec<Edge> = Vec::with_capacity(400_000);
    Rmat::new(RMAT_COMBOS[6], 1 << 16, 400_000, 701).generate_into(&mut |e| edges.push(e));
    let path = std::env::temp_dir().join(format!("ease_bench_bel_{}.bel", std::process::id()));
    c.bench_function("generators/bel_writer/400k", |b| {
        b.iter(|| {
            let mut w = BelWriter::create(&path).expect("create .bel");
            for &e in &edges {
                w.push(e).expect("write .bel");
            }
            w.finish_with_vertices(1 << 16).expect("finish .bel");
        });
    });
    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_rmat, bench_gnm, bench_bel_writer
}
criterion_main!(benches);
