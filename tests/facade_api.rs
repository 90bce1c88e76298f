//! Guards the `ease_repro::` re-export surface: every namespace the facade
//! promises must stay reachable, and the doctest contract in `src/lib.rs`
//! (`Graph::from_pairs`, `PartitionerId::ALL.len() == 11`) must hold. A
//! rename or dropped re-export in any member crate fails here first.

use ease_repro::graph::csr::Direction;
use ease_repro::graph::{Csr, DegreeTable, Graph, GraphProperties, PreparedGraph, PropertyTier};
use ease_repro::partition::{Partitioner, PartitionerId, QualityMetrics};

#[test]
fn doctest_contract_from_pairs_and_eleven_partitioners() {
    let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
    assert_eq!(g.num_edges(), 3);
    assert_eq!(g.num_vertices(), 3);
    assert_eq!(PartitionerId::ALL.len(), 11);
}

#[test]
fn graph_namespace_is_reachable() {
    let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (0, 2)]);
    let csr = Csr::build(&g, Direction::Out);
    assert_eq!(csr.neighbors(0).len(), 2);
    let degrees = DegreeTable::compute(&g);
    assert!(degrees.total.iter().copied().max().unwrap_or(0) >= 2);
    let prepared = PreparedGraph::of(&g);
    let props: GraphProperties = prepared.properties(PropertyTier::Simple);
    assert_eq!(props.num_edges, 4);
    // advanced tier exists through the facade too
    let adv = prepared.properties(PropertyTier::Advanced);
    assert!(adv.avg_lcc.is_some());
}

#[test]
fn partition_namespace_is_reachable() {
    let g = Graph::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
    let prepared = PreparedGraph::of(&g);
    for id in PartitionerId::ALL {
        let partitioner: Box<dyn Partitioner> = id.build(7);
        let part = partitioner.partition_prepared(&prepared, 2);
        assert_eq!(part.num_edges(), g.num_edges(), "{id:?}");
        let metrics = QualityMetrics::compute_prepared(&prepared, &part);
        assert!(metrics.replication_factor >= 1.0, "{id:?}");
    }
}

#[test]
fn graphgen_namespace_is_reachable() {
    use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
    use ease_repro::graphgen::Scale;
    assert_eq!(RMAT_COMBOS.len(), 9);
    let g = Rmat::new(RMAT_COMBOS[0], 64, 300, 1).generate();
    assert_eq!(g.num_edges(), 300);
    assert!(Scale::parse("tiny").is_some());
    let tg = ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, 3);
    assert!(tg.graph.num_edges() > 0);
}

#[test]
fn ml_namespace_is_reachable() {
    use ease_repro::ml::{rmse, Matrix, ModelConfig, StandardScaler};
    let rows = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![2.0, 2.0], vec![3.0, 1.0]];
    let y = vec![1.0, 2.0, 3.0, 4.0];
    let x = Matrix::from_rows(&rows);
    let mut model = ModelConfig::Knn { k: 2, distance_weighted: false }.build();
    model.fit(&x, &y);
    let preds = model.predict(&x);
    assert_eq!(preds.len(), 4);
    assert!(rmse(&y, &preds) >= 0.0);
    let scaler = StandardScaler::fit(&x);
    assert_eq!(scaler.transform(&x).rows, 4);
}

#[test]
fn procsim_namespace_is_reachable() {
    use ease_repro::procsim::{ClusterSpec, DistributedGraph, Workload};
    let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)]);
    let prepared = PreparedGraph::of(&g);
    let part = PartitionerId::Dbh.build(1).partition_prepared(&prepared, 2);
    let dg = DistributedGraph::build_prepared(&prepared, &part);
    let report = Workload::PageRank { iterations: 2 }.execute(&dg, &ClusterSpec::new(2));
    assert!(report.total_secs > 0.0);
    assert_eq!(report.supersteps, 2);
}

#[test]
fn core_namespace_is_reachable() {
    use ease_repro::core::pipeline::EaseConfig;
    use ease_repro::core::profiling::TimingMode;
    use ease_repro::core::selector::OptGoal;
    use ease_repro::graphgen::Scale;
    let cfg = EaseConfig::at_scale(Scale::Tiny);
    assert_eq!(cfg.timing, TimingMode::Measured);
    assert!(!cfg.ks.is_empty());
    assert!(matches!(OptGoal::EndToEnd, OptGoal::EndToEnd));
}

#[test]
fn service_api_is_the_primary_entry_point() {
    // the service surface: builder, service, typed errors — re-exported at
    // the facade root
    use ease_repro::graphgen::Scale;
    use ease_repro::{EaseError, EaseServiceBuilder};
    let builder = EaseServiceBuilder::at_scale(Scale::Tiny).seed(1);
    assert_eq!(builder.config().seed, 1);
    // validation is typed, not a panic
    let err = EaseServiceBuilder::at_scale(Scale::Tiny).folds(0).train().unwrap_err();
    assert!(matches!(err, EaseError::InvalidConfig(_)));
}

#[test]
fn timing_mode_lives_in_the_partition_runner() {
    // PR 2 moved TimingMode next to the runner so deterministic mode can
    // skip the wall clock entirely; the core re-export must stay intact
    use ease_repro::partition::{run_partitioner_prepared, TimingMode};
    let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (0, 2)]);
    let prepared = PreparedGraph::of(&g);
    let run =
        run_partitioner_prepared(PartitionerId::Dbh, &prepared, 2, 1, TimingMode::Deterministic);
    assert_eq!(
        run.partitioning_secs,
        ease_repro::partition::deterministic_partitioning_secs(PartitionerId::Dbh, 4, 2)
    );
    // same type through the core path
    let _: ease_repro::core::profiling::TimingMode = TimingMode::Measured;
}

#[test]
fn ml_persistence_is_reachable_through_the_facade() {
    use ease_repro::ml::persist::{decode_regressor, Reader, Writer};
    use ease_repro::ml::{Matrix, ModelConfig};
    let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
    let y = vec![0.0, 2.0, 4.0, 6.0];
    let mut m = ModelConfig::Knn { k: 1, distance_weighted: false }.build();
    m.fit(&x, &y);
    let mut w = Writer::new();
    m.encode(&mut w);
    let bytes = w.into_bytes();
    let restored = decode_regressor(&mut Reader::new(&bytes), x.cols).unwrap();
    assert_eq!(m.predict_row(&[1.2]), restored.predict_row(&[1.2]));
}
