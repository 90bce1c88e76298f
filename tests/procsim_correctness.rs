//! Cross-crate correctness of the distributed engine: algorithm outputs
//! and vertex activity must be independent of the partitioning (placement
//! changes cost, never results), and the report priced from an activity
//! trace — taken on *any* placement of the graph — must be the one
//! `engine::run` accumulates by executing every superstep on the placement
//! priced.

use ease_repro::core::profiling::{profile_processing_with, GraphInput, TimingMode};
use ease_repro::graph::{Graph, PreparedGraph};
use ease_repro::graphgen::grids::RmatSpec;
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::partition::{run_partitioner_prepared, EdgePartition, PartitionerId};
use ease_repro::procsim::algorithms::{
    ConnectedComponents, KCores, LabelPropagation, PageRank, Sssp, Synthetic,
};
use ease_repro::procsim::engine::{price, run, trace, ActivityTrace};
use ease_repro::procsim::{ClusterSpec, DistributedGraph, SimReport, VertexProgram, Workload};
use proptest::prelude::*;
use std::fmt::Display;

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

/// A priced report against `run`'s, field by field and bit by bit.
fn assert_reports_identical(priced: &SimReport, executed: &SimReport, what: impl Display) {
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
}

/// A stationary program on a graph with no edges covers no vertex: `run`
/// executes one empty superstep and stops because nothing is active. The
/// priced report must stop there too — that early exit is not charged
/// `max_supersteps()` times. Nor may a graph with no vertices at all trip a
/// program's constructor (`kcores` and `sssp` used to index vertex 0).
#[test]
fn priced_report_matches_full_execution_without_edges() {
    for n in [5usize, 0] {
        let g = Graph::new(n, Vec::new());
        for k in [1usize, 4] {
            let empty = EdgePartition::new(k, Vec::new());
            let dg = DistributedGraph::build_prepared(&PreparedGraph::of(&g), &empty);
            let cluster = ClusterSpec::new(k);
            for w in differential_workloads() {
                let report = w.execute(&dg, &cluster);
                let what = format!("{w:?} on {n} isolated vertices, k={k}");
                assert_reports_identical(&report, &run_to_completion(w, &dg, &cluster), &what);
                if let Some(iterations) = w.fixed_iterations() {
                    assert_eq!(report.supersteps, iterations.min(1), "{what}");
                }
            }
        }
    }
}

/// More supersteps than one activity word has bits: on a 200-vertex path CC
/// (the minimum label walks the path) and SSSP from its first vertex both
/// run some 200 supersteps, so pricing crosses the 64-superstep window
/// boundary three times — while the SSSP trace stays one id per vertex.
#[test]
fn priced_report_matches_full_execution_beyond_one_window() {
    fn check<P: VertexProgram>(prog: &P, dg: &DistributedGraph, name: &str) -> usize {
        let cluster = ClusterSpec::new(dg.num_partitions());
        let activity = trace(prog, dg);
        assert!(activity.supersteps() > 128, "{name}: {} supersteps", activity.supersteps());
        assert_reports_identical(
            &price(prog, &activity, dg, &cluster),
            &run(prog, dg, &cluster).0,
            name,
        );
        (0..activity.supersteps()).map(|s| activity.active(s).len()).sum()
    }
    let dg = placed_round_robin(&Graph::from_pairs((0..199u32).map(|v| (v, v + 1))), 3);
    check(&ConnectedComponents, &dg, "cc on a path");
    assert_eq!(check(&Sssp::new(0), &dg, "sssp on a path"), 200, "each vertex active once");
}

/// `g` placed on `k` machines, edge `i` on machine `i mod k`.
fn placed_round_robin(g: &Graph, k: usize) -> DistributedGraph {
    let assignment = (0..g.num_edges()).map(|i| (i % k) as u16).collect();
    DistributedGraph::build_prepared(&PreparedGraph::of(g), &EdgePartition::new(k, assignment))
}

/// The prepared graph on `k` machines, placed by `p` seeded with `seed`.
fn placed(g: &PreparedGraph<'_>, p: PartitionerId, seed: u64, k: usize) -> DistributedGraph {
    DistributedGraph::build_prepared(g, &p.partition(g, k, seed))
}

#[test]
#[should_panic(
    expected = "trace of a graph with 4 vertices and 3 edges priced on a placement of 5 and 3"
)]
fn a_trace_of_another_vertex_count_is_refused() {
    let path = Graph::from_pairs([(0, 1), (1, 2), (2, 3)]);
    let with_an_isolated_vertex = Graph::new(5, path.edges().to_vec());
    let w = Workload::ConnectedComponents;
    let taken_elsewhere = w.trace(&placed_round_robin(&path, 2));
    w.price(
        &taken_elsewhere,
        &placed_round_robin(&with_an_isolated_vertex, 3),
        &ClusterSpec::new(3),
    );
}

#[test]
#[should_panic(
    expected = "trace of a graph with 4 vertices and 3 edges priced on a placement of 4 and 4"
)]
fn a_trace_of_another_edge_count_is_refused() {
    let path = Graph::from_pairs([(0, 1), (1, 2), (2, 3)]);
    let cycle = Graph::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
    let w = Workload::PageRank { iterations: 2 };
    let taken_elsewhere = w.trace(&placed_round_robin(&path, 2));
    w.price(&taken_elsewhere, &placed_round_robin(&cycle, 3), &ClusterSpec::new(3));
}

/// Profiling takes each workload's trace on the first partitioner's
/// placement of a graph and prices every placement from it. Its labels must
/// be what the control flow it replaced yields — every workload executed to
/// completion by `engine::run` on every placement.
#[test]
fn profiling_labels_match_per_placement_execution() {
    let inputs: Vec<GraphInput> = (0..3usize)
        .map(|i| {
            GraphInput::Rmat(RmatSpec {
                name: format!("shared-trace-{i}"),
                combo_index: 2 * i,
                params: RMAT_COMBOS[2 * i],
                num_vertices: 200,
                num_edges: 900 + 300 * i,
                seed: 40 + i as u64,
            })
        })
        .collect();
    let (k, seed, timing) = (4, 0xACE, TimingMode::Deterministic);
    let workloads = Workload::all_training();
    let runs = profile_processing_with(&inputs, &PartitionerId::ALL, k, &workloads, seed, timing);
    assert_eq!(runs.len(), 3 * PartitionerId::ALL.len());
    let mut runs = runs.iter();
    for input in &inputs {
        let prepared = input.prepare();
        for p in PartitionerId::ALL {
            let partition = run_partitioner_prepared(p, &prepared, k, seed, timing).partition;
            let dg = DistributedGraph::build_prepared(&prepared, &partition);
            let run = runs.next().expect("one run per graph × partitioner");
            assert_eq!(run.partitioner, p);
            assert_eq!(run.workloads.len(), workloads.len());
            for (w, cost) in workloads.into_iter().zip(&run.workloads) {
                let executed = run_to_completion(w, &dg, &ClusterSpec::new(k));
                let what = format!("{} {} {}", input.name(), p.name(), w.name());
                assert_eq!(cost.workload, w, "{what}");
                assert_eq!(cost.total_secs.to_bits(), executed.total_secs.to_bits(), "{what}");
                assert_eq!(
                    cost.target_secs.to_bits(),
                    w.prediction_target(&executed).to_bits(),
                    "{what}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The differential test for pricing a shared trace: per graph and
    /// `k = 1..=9`, every workload's trace taken on partitioner A's
    /// placement and priced on partitioner B's — all ordered pairs, A = B
    /// (`Workload::execute`) among them — is bit for bit what `engine::run`
    /// accumulates on B.
    #[test]
    fn priced_report_matches_full_execution(g in arb_graph(), seed in 0u64..4) {
        let workloads = differential_workloads();
        let prepared = PreparedGraph::of(&g);
        for k in 1usize..=9 {
            let cluster = ClusterSpec::new(k);
            let placements = PartitionerId::ALL.map(|p| (p, placed(&prepared, p, seed, k)));
            let traces: Vec<Vec<ActivityTrace>> = placements
                .iter()
                .map(|(_, taken_on)| workloads.iter().map(|w| w.trace(taken_on)).collect())
                .collect();
            for (b, priced_on) in &placements {
                for (i, &w) in workloads.iter().enumerate() {
                    let executed = run_to_completion(w, priced_on, &cluster);
                    for ((a, _), taken_on_a) in placements.iter().zip(&traces) {
                        assert_reports_identical(
                            &w.price(&taken_on_a[i], priced_on, &cluster),
                            &executed,
                            format_args!("{w:?} traced on {}, priced on {} k={k}", a.name(), b.name()),
                        );
                    }
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
        let prepared = PreparedGraph::of(&g);
        let (dg1, dg2) = (placed(&prepared, p1, 1, k), placed(&prepared, p2, 2, k));
        let (_, r1) = run(&prog, &dg1, &ClusterSpec::new(k));
        let (_, r2) = run(&prog, &dg2, &ClusterSpec::new(k));
        for v in 0..g.num_vertices() {
            prop_assert!((r1[v] - r2[v]).abs() < 1e-9, "vertex {v}: {} vs {}", r1[v], r2[v]);
        }
    }

    /// Which vertices are active in which superstep is the graph's and the
    /// program's business, not the placement's — the sibling of
    /// `pagerank_is_placement_independent` for the data-dependent programs,
    /// and what lets one trace be priced on every placement. Holds because
    /// their gather + combine folds (integer min, integer sum) are exactly
    /// commutative and associative.
    #[test]
    fn activity_is_placement_independent(
        g in arb_graph(),
        p1 in arb_partitioner(),
        p2 in arb_partitioner(),
        k1 in 1usize..9,
        k2 in 1usize..9,
    ) {
        let prepared = PreparedGraph::of(&g);
        let (dg1, dg2) = (placed(&prepared, p1, 1, k1), placed(&prepared, p2, 2, k2));
        for name in ["cc", "sssp", "kcores"] {
            let w = Workload::from_name(name).expect("catalogued");
            let (t1, t2) = (w.trace(&dg1), w.trace(&dg2));
            prop_assert!(t1.supersteps() > 0, "{name}");
            prop_assert!(t1 == t2, "{name}: {} k={k1} vs {} k={k2}", p1.name(), p2.name());
        }
    }

    /// Connected-component labels form a valid partition: endpoints of
    /// every edge share a label, and the label is the component minimum.
    #[test]
    fn cc_labels_consistent(g in arb_graph(), p in arb_partitioner(), k in 2usize..9) {
        let dg = placed(&PreparedGraph::of(&g), p, 3, k);
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
        let dg = placed(&PreparedGraph::of(&g), p, 4, k);
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
        let dg = placed(&PreparedGraph::of(&g), p, 5, k);
        let report = ease_repro::procsim::Workload::PageRank { iterations: 3 }
            .execute(&dg, &ClusterSpec::new(k));
        prop_assert!(report.total_secs > 0.0);
        prop_assert_eq!(report.supersteps, 3);
    }
}
