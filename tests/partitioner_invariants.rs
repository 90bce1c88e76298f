//! Property-based invariants that every partitioner must satisfy,
//! exercised across crates on generated graphs.

use ease_repro::graph::bel::{write_bel, BelSource};
use ease_repro::graph::{Edge, Graph, PreparedGraph};
use ease_repro::graphgen::rmat::{Rmat, RmatParams};
use ease_repro::partition::{metrics::QualityMetrics, EdgePartition, PartitionerId};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (6u32..10, 200usize..1_500, 0u64..50, 0usize..9).prop_map(|(vexp, edges, seed, combo)| {
        let params = ease_repro::graphgen::rmat::RMAT_COMBOS[combo];
        Rmat::new(params, 1usize << vexp, edges, seed).generate()
    })
}

fn arb_partitioner() -> impl Strategy<Value = PartitionerId> {
    prop::sample::select(PartitionerId::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every edge is assigned exactly once to a valid partition.
    #[test]
    fn assignment_is_total_and_in_range(
        g in arb_graph(),
        p in arb_partitioner(),
        k in 1usize..33,
        seed in 0u64..10,
    ) {
        let part = p.build(seed).partition_prepared(&PreparedGraph::of(&g), k);
        prop_assert_eq!(part.num_edges(), g.num_edges());
        prop_assert!(part.assignment().iter().all(|&x| (x as usize) < k));
    }

    /// Quality metrics live in their mathematical domains:
    /// RF ∈ [1, k], balances ≥ 1 and ≤ k.
    #[test]
    fn metric_domains(
        g in arb_graph(),
        p in arb_partitioner(),
        k in 2usize..17,
        seed in 0u64..5,
    ) {
        let prepared = PreparedGraph::of(&g);
        let part = p.build(seed).partition_prepared(&prepared, k);
        let m = QualityMetrics::compute_prepared(&prepared, &part);
        prop_assert!(m.replication_factor >= 1.0 - 1e-9);
        prop_assert!(m.replication_factor <= k as f64 + 1e-9);
        for b in [m.edge_balance, m.vertex_balance, m.source_balance, m.dest_balance] {
            prop_assert!(b >= 1.0 - 1e-9, "balance {b}");
            prop_assert!(b <= k as f64 + 1e-9, "balance {b}");
        }
    }

    /// k = 1 is always the perfect partitioning.
    #[test]
    fn single_partition_is_ideal(g in arb_graph(), p in arb_partitioner()) {
        let prepared = PreparedGraph::of(&g);
        let part = p.build(1).partition_prepared(&prepared, 1);
        let m = QualityMetrics::compute_prepared(&prepared, &part);
        prop_assert!((m.replication_factor - 1.0).abs() < 1e-12);
        prop_assert!((m.edge_balance - 1.0).abs() < 1e-12);
    }

    /// Determinism: same seed -> identical partitioning.
    #[test]
    fn determinism(g in arb_graph(), p in arb_partitioner(), k in 2usize..9) {
        let prepared = PreparedGraph::of(&g);
        let a = p.build(77).partition_prepared(&prepared, k);
        let b = p.build(77).partition_prepared(&prepared, k);
        prop_assert_eq!(a.assignment(), b.assignment());
    }

    /// CRVC keeps reciprocal edge pairs together.
    #[test]
    fn crvc_reciprocal_colocation(edges in prop::collection::vec((0u32..64, 0u32..64), 10..100)) {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (a, b) in edges {
            if a != b {
                pairs.push((a, b));
                pairs.push((b, a));
            }
        }
        prop_assume!(!pairs.is_empty());
        let g = PreparedGraph::new(Graph::from_pairs(pairs.clone()));
        let part = PartitionerId::Crvc.build(5).partition_prepared(&g, 8);
        for i in (0..pairs.len()).step_by(2) {
            prop_assert_eq!(part.partition_of(i), part.partition_of(i + 1));
        }
    }

    /// 2D never exceeds the grid replication bound 2·⌈√k⌉ − 1.
    #[test]
    fn two_d_replication_bound(g in arb_graph(), k in 2usize..65) {
        let part = PartitionerId::TwoD.build(3).partition_prepared(&PreparedGraph::of(&g), k);
        let bound = 2 * (k as f64).sqrt().ceil() as usize - 1;
        let n = g.num_vertices();
        let mut masks = vec![0u128; n];
        for (i, e) in g.edges().iter().enumerate() {
            let p = part.partition_of(i);
            masks[e.src as usize] |= 1 << p;
            masks[e.dst as usize] |= 1 << p;
        }
        for m in masks {
            prop_assert!(m.count_ones() as usize <= bound);
        }
    }

    /// Stream-quality sanity: stateful HDRF never does (meaningfully) worse
    /// than the worst stateless hash on replication factor.
    #[test]
    fn hdrf_not_worse_than_crvc(g in arb_graph(), k in 4usize..17) {
        prop_assume!(g.num_edges() >= 500);
        let prepared = PreparedGraph::of(&g);
        let rf = |p: PartitionerId| {
            QualityMetrics::compute_prepared(&prepared, &p.build(1).partition_prepared(&prepared, k))
                .replication_factor
        };
        let (hdrf, crvc) = (rf(PartitionerId::Hdrf), rf(PartitionerId::Crvc));
        prop_assert!(hdrf <= crvc * 1.05, "hdrf {} vs crvc {}", hdrf, crvc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exhaustive sweep the sampled properties above can miss: for EVERY
    /// partitioner and EVERY k ∈ {2, 4, 8}, all edges are assigned, every
    /// partition id is < k, and the replication factor is ≥ 1.
    #[test]
    fn every_partitioner_every_small_k_total_in_range_rf(
        g in arb_graph(),
        seed in 0u64..8,
    ) {
        let prepared = PreparedGraph::of(&g);
        for p in PartitionerId::ALL {
            for k in [2usize, 4, 8] {
                let part = p.build(seed).partition_prepared(&prepared, k);
                prop_assert_eq!(
                    part.num_edges(), g.num_edges(),
                    "{:?} k={} dropped edges", p, k
                );
                prop_assert_eq!(
                    part.assignment().len(), g.num_edges(),
                    "{:?} k={} assignment length", p, k
                );
                prop_assert!(
                    part.assignment().iter().all(|&x| (x as usize) < k),
                    "{:?} k={} produced an out-of-range partition id", p, k
                );
                let m = QualityMetrics::compute_prepared(&prepared, &part);
                prop_assert!(
                    m.replication_factor >= 1.0 - 1e-12,
                    "{:?} k={} rf={}", p, k, m.replication_factor
                );
            }
        }
    }
}

/// The partition counts the metric oracle and the corner-graph sweep run:
/// the profiled `{2, 4, 8}`, one partition, widths that are not a power of
/// two, and `k = 128`, whose last partition is the `u128` masks' top bit.
const ORACLE_KS: [usize; 8] = [1, 2, 3, 4, 5, 8, 64, 128];

/// Label oracle: the five quality metrics recomputed the obvious way — one
/// `HashSet` per partition for the covered, source and destination
/// vertices, balance as `max / mean`, replication factor over the vertices
/// some edge covers (isolated ids never count). Shares nothing with the
/// bitset pass in `partition::metrics` the models train on.
fn naive_metrics(g: &Graph, part: &EdgePartition) -> QualityMetrics {
    let k = part.num_partitions();
    let mut edges = vec![0usize; k];
    let mut cover: Vec<HashSet<u32>> = vec![HashSet::new(); k];
    let mut sources = cover.clone();
    let mut dests = cover.clone();
    for (i, e) in g.edges().iter().enumerate() {
        let p = part.partition_of(i);
        edges[p] += 1;
        cover[p].extend([e.src, e.dst]);
        sources[p].insert(e.src);
        dests[p].insert(e.dst);
    }
    let balance = |counts: Vec<usize>| {
        let sum: usize = counts.iter().sum();
        let max = counts.iter().copied().max().unwrap_or(0);
        if sum == 0 {
            1.0
        } else {
            max as f64 / (sum as f64 / counts.len() as f64)
        }
    };
    let sizes = |sets: &[HashSet<u32>]| sets.iter().map(HashSet::len).collect::<Vec<_>>();
    let covered: HashSet<u32> = cover.iter().flatten().copied().collect();
    let replicas: usize = cover.iter().map(HashSet::len).sum();
    QualityMetrics {
        replication_factor: if covered.is_empty() {
            1.0
        } else {
            replicas as f64 / covered.len() as f64
        },
        edge_balance: balance(edges),
        vertex_balance: balance(sizes(&cover)),
        source_balance: balance(sizes(&sources)),
        dest_balance: balance(sizes(&dests)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `QualityMetrics::compute_prepared` equals the naive recomputation
    /// bit for bit, for every partitioner × `k` in [`ORACLE_KS`], on the
    /// heap graph and on the same graph reopened as a memory-mapped `.bel` —
    /// with self-loops, parallel edges and isolated ids appended so the
    /// "covered vertices only" denominator is exercised. One more placement
    /// at `k = 128` leaves its last partition empty: a covered count that
    /// unions the source and destination bitsets must still count it as 0.
    #[test]
    fn quality_metrics_match_the_naive_oracle(g in arb_graph(), seed in 0u64..8) {
        let mut edges = g.edges().to_vec();
        edges.extend_from_slice(&[Edge::new(5, 5), Edge::new(1, 2), Edge::new(1, 2)]);
        let g = Graph::new(g.num_vertices() + 3, edges);
        let bel = std::env::temp_dir()
            .join(format!("ease_pi_oracle_{}_{seed}_{}.bel", std::process::id(), g.num_edges()));
        write_bel(&g, &bel).expect("write .bel");
        let mapped = BelSource::open(&bel).expect("open .bel");
        std::fs::remove_file(&bel).ok();
        let backends = [("heap", PreparedGraph::of(&g)), (".bel", PreparedGraph::of_source(&mapped))];
        let runs = PartitionerId::ALL.into_iter().flat_map(|p| {
            ORACLE_KS.map(|k| (p.name(), p.build(seed).partition_prepared(&backends[0].1, k)))
        });
        let one_empty = EdgePartition::new(128, (0..g.num_edges()).map(|i| (i % 127) as u16).collect());
        for (name, part) in runs.chain([("127-of-128", one_empty)]) {
            let k = part.num_partitions();
            let want = naive_metrics(&g, &part).as_vector().map(f64::to_bits);
            for (backend, prepared) in &backends {
                let got = QualityMetrics::compute_prepared(prepared, &part);
                prop_assert_eq!(
                    got.as_vector().map(f64::to_bits), want,
                    "{} k={} on {}: {:?}", name, k, backend, got
                );
            }
        }
    }
}

/// The same sweep on fixed corner-case graphs (self-loops, duplicate edges,
/// isolated vertices, stars) that random R-MAT sampling rarely hits, at
/// every `k` in [`ORACLE_KS`].
#[test]
fn every_partitioner_handles_corner_graphs() {
    let corner_graphs: Vec<(&str, Graph)> = vec![
        ("single_edge", Graph::from_pairs([(0, 1)])),
        ("self_loop", Graph::from_pairs([(0, 0), (0, 1), (1, 1)])),
        ("duplicates", Graph::from_pairs([(0, 1), (0, 1), (0, 1), (1, 0)])),
        ("star", Graph::from_pairs((1u32..40).map(|v| (0, v)).collect::<Vec<_>>())),
        ("two_components", Graph::from_pairs([(0, 1), (1, 2), (2, 0), (10, 11), (11, 12)])),
    ];
    for (name, g) in &corner_graphs {
        let prepared = PreparedGraph::of(g);
        for p in PartitionerId::ALL {
            for k in ORACLE_KS {
                let part = p.build(3).partition_prepared(&prepared, k);
                assert_eq!(part.num_edges(), g.num_edges(), "{name} {p:?} k={k}");
                assert!(part.assignment().iter().all(|&x| (x as usize) < k), "{name} {p:?} k={k}");
                let m = QualityMetrics::compute_prepared(&prepared, &part);
                assert!(m.replication_factor >= 1.0 - 1e-12, "{name} {p:?} k={k}");
            }
        }
    }
}

/// R-MAT parameter validation is outside proptest (constructor contract).
#[test]
fn rmat_params_must_sum_to_one() {
    let ok = RmatParams::new(0.25, 0.25, 0.25, 0.25);
    assert_eq!(ok.a, 0.25);
    assert!(std::panic::catch_unwind(|| RmatParams::new(0.9, 0.2, 0.2, 0.2)).is_err());
}
