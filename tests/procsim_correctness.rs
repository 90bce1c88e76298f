//! Cross-crate correctness of the distributed engine: algorithm outputs
//! must be independent of the partitioning (placement changes cost, never
//! results), and the report `Workload::execute` prices must be the one
//! `engine::run` accumulates by executing every superstep.

use ease_repro::graph::Graph;
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::partition::{EdgePartition, PartitionerId};
use ease_repro::procsim::algorithms::{
    ConnectedComponents, KCores, LabelPropagation, PageRank, Sssp, Synthetic,
};
use ease_repro::procsim::engine::run;
use ease_repro::procsim::{ClusterSpec, DistributedGraph, SimReport, Workload};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..9, 150usize..900, 0u64..30)
        .prop_map(|(combo, edges, seed)| Rmat::new(RMAT_COMBOS[combo], 256, edges, seed).generate())
}

fn arb_partitioner() -> impl Strategy<Value = PartitionerId> {
    prop::sample::select(PartitionerId::ALL.to_vec())
}

/// The reference report: the workload's program executed to completion —
/// every superstep, full vertex state — by `engine::run`.
fn run_to_completion(w: Workload, dg: &DistributedGraph, cluster: &ClusterSpec) -> SimReport {
    match w {
        Workload::PageRank { iterations } => run(&PageRank::new(iterations), dg, cluster).0,
        Workload::ConnectedComponents => run(&ConnectedComponents, dg, cluster).0,
        Workload::Sssp { source_seed } => {
            run(&Sssp::with_random_source(dg, source_seed), dg, cluster).0
        }
        Workload::KCores => run(&KCores::with_mean_degree(dg), dg, cluster).0,
        Workload::LabelPropagation { iterations } => {
            run(&LabelPropagation::new(iterations), dg, cluster).0
        }
        Workload::Synthetic { s, iterations } => run(&Synthetic { s, iterations }, dg, cluster).0,
    }
}

/// Every catalogued workload, plus the shapes the catalog does not reach:
/// `s = 3` (where `edge_cost = 0.2 · 3` is inexact, so a replayed ledger
/// must add the very same rounded terms) and 0- and 1-iteration runs of the
/// three stationary programs.
fn differential_workloads() -> Vec<Workload> {
    let mut all: Vec<Workload> =
        ["pr", "cc", "sssp", "kcores", "lp", "synthetic-low", "synthetic-high"]
            .iter()
            .map(|name| Workload::from_name(name).expect("catalogued"))
            .collect();
    all.push(Workload::Synthetic { s: 3, iterations: 5 });
    for iterations in [0, 1] {
        all.push(Workload::PageRank { iterations });
        all.push(Workload::LabelPropagation { iterations });
        all.push(Workload::Synthetic { s: 3, iterations });
    }
    all
}

/// `execute`'s report against `run`'s, field by field and bit by bit;
/// returns the (identical) report.
fn assert_reports_identical(w: Workload, dg: &DistributedGraph, context: &str) -> SimReport {
    let cluster = ClusterSpec::new(dg.num_partitions());
    let priced = w.execute(dg, &cluster);
    let executed = run_to_completion(w, dg, &cluster);
    let what = format!("{w:?} on {context}");
    assert_eq!(priced.supersteps, executed.supersteps, "{what}");
    assert_eq!(priced.total_secs.to_bits(), executed.total_secs.to_bits(), "{what}");
    assert_eq!(priced.total_comm_bytes.to_bits(), executed.total_comm_bytes.to_bits(), "{what}");
    assert_eq!(
        priced.total_compute_units.to_bits(),
        executed.total_compute_units.to_bits(),
        "{what}"
    );
    assert_eq!(priced.per_superstep.len(), executed.per_superstep.len(), "{what}");
    for (step, (a, b)) in priced.per_superstep.iter().zip(&executed.per_superstep).enumerate() {
        assert_eq!(a.compute_secs.to_bits(), b.compute_secs.to_bits(), "{what} step {step}");
        assert_eq!(a.network_secs.to_bits(), b.network_secs.to_bits(), "{what} step {step}");
        assert_eq!(a.active_senders, b.active_senders, "{what} step {step}");
    }
    priced
}

/// A stationary program on a graph with no edges covers no vertex: `run`
/// executes one empty superstep and stops because nothing is active. The
/// priced report must stop there too — that early exit is not replayed.
#[test]
fn priced_report_matches_full_execution_without_edges() {
    let g = Graph::new(5, Vec::new());
    for k in [1usize, 4] {
        let dg = DistributedGraph::build(&g, &EdgePartition::new(k, Vec::new()));
        for w in differential_workloads() {
            let report = assert_reports_identical(w, &dg, &format!("5 isolated vertices, k={k}"));
            if let Some(iterations) = w.fixed_iterations() {
                assert_eq!(report.supersteps, iterations.min(1), "{w:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The differential test for pricing stationary programs from their
    /// first superstep: on every partitioner × `k = 1..=9` × workload,
    /// `Workload::execute` reports exactly what `engine::run` accumulates.
    #[test]
    fn priced_report_matches_full_execution(g in arb_graph(), seed in 0u64..4) {
        for p in PartitionerId::ALL {
            for k in 1usize..=9 {
                let dg = DistributedGraph::build(&g, &p.build(seed).partition(&g, k));
                for w in differential_workloads() {
                    assert_reports_identical(w, &dg, &format!("{} k={k}", p.name()));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PageRank results are identical regardless of the partitioner.
    #[test]
    fn pagerank_is_placement_independent(
        g in arb_graph(),
        p1 in arb_partitioner(),
        p2 in arb_partitioner(),
        k in 2usize..9,
    ) {
        let prog = PageRank::new(5);
        let dg1 = DistributedGraph::build(&g, &p1.build(1).partition(&g, k));
        let dg2 = DistributedGraph::build(&g, &p2.build(2).partition(&g, k));
        let (_, r1) = run(&prog, &dg1, &ClusterSpec::new(k));
        let (_, r2) = run(&prog, &dg2, &ClusterSpec::new(k));
        for v in 0..g.num_vertices() {
            prop_assert!((r1[v] - r2[v]).abs() < 1e-9, "vertex {v}: {} vs {}", r1[v], r2[v]);
        }
    }

    /// Connected-component labels form a valid partition: endpoints of
    /// every edge share a label, and the label is the component minimum.
    #[test]
    fn cc_labels_consistent(g in arb_graph(), p in arb_partitioner(), k in 2usize..9) {
        let dg = DistributedGraph::build(&g, &p.build(3).partition(&g, k));
        let (_, labels) = run(&ConnectedComponents, &dg, &ClusterSpec::new(k));
        for e in g.edges() {
            prop_assert_eq!(labels[e.src as usize], labels[e.dst as usize]);
        }
        // a label must point at a vertex inside the component
        for v in 0..g.num_vertices() {
            if g.total_degrees()[v] > 0 {
                prop_assert!(labels[v] as usize <= v);
            }
        }
    }

    /// SSSP distances satisfy the triangle inequality along edges:
    /// dist(dst) ≤ dist(src) + 1 for every reached source.
    #[test]
    fn sssp_relaxation_holds(g in arb_graph(), p in arb_partitioner(), k in 2usize..9) {
        let dg = DistributedGraph::build(&g, &p.build(4).partition(&g, k));
        let prog = Sssp::with_random_source(&dg, 7);
        let (_, dist) = run(&prog, &dg, &ClusterSpec::new(k));
        prop_assert_eq!(dist[prog.source as usize], 0);
        for e in g.edges() {
            let ds = dist[e.src as usize];
            let dd = dist[e.dst as usize];
            if ds != u32::MAX {
                prop_assert!(dd <= ds + 1, "edge {}->{}: {} vs {}", e.src, e.dst, ds, dd);
            }
        }
    }

    /// The simulated time is always positive and grows with more machines'
    /// traffic under heavier replication.
    #[test]
    fn sim_time_positive(g in arb_graph(), p in arb_partitioner(), k in 2usize..9) {
        let dg = DistributedGraph::build(&g, &p.build(5).partition(&g, k));
        let report = ease_repro::procsim::Workload::PageRank { iterations: 3 }
            .execute(&dg, &ClusterSpec::new(k));
        prop_assert!(report.total_secs > 0.0);
        prop_assert_eq!(report.supersteps, 3);
    }
}
