//! Full-system integration: train EASE end-to-end at tiny scale and verify
//! the selector's statistical behaviour on unseen graphs — the miniature
//! version of the paper's Table VIII experiment.

use ease_repro::core::evaluation::{evaluate_selection, group_truth};
use ease_repro::core::pipeline::{train_ease, EaseConfig};
use ease_repro::core::profiling::{
    profile_processing_with, profile_quality_with, GraphInput, PreparedPool, TimingMode,
};
use ease_repro::core::selector::OptGoal;
use ease_repro::graph::{PreparedGraph, PropertyTier};
use ease_repro::graphgen::Scale;
use ease_repro::partition::PartitionerId;
use ease_repro::procsim::Workload;

fn tiny_config() -> EaseConfig {
    let mut cfg = EaseConfig::at_scale(Scale::Tiny);
    cfg.max_small_graphs = Some(20);
    cfg.max_large_graphs = Some(10);
    cfg.ks = vec![2, 4, 8];
    cfg.partitioners = vec![
        PartitionerId::OneDD,
        PartitionerId::TwoD,
        PartitionerId::Dbh,
        PartitionerId::Hdrf,
        PartitionerId::TwoPs,
        PartitionerId::Ne,
    ];
    cfg.workloads = vec![
        Workload::PageRank { iterations: 5 },
        Workload::ConnectedComponents,
        Workload::Synthetic { s: 10, iterations: 3 },
    ];
    cfg
}

#[test]
fn selector_beats_worst_and_tracks_random() {
    // A *statistical* assertion needs reproducible inputs: at tiny scale
    // partitioning times are microsecond measurements, so under the default
    // `Measured` mode scheduler noise leaks into the training data and this
    // test would be flaky. The deterministic proxy keeps the property
    // strict AND reproducible; `Measured` stays the default everywhere else.
    let mut cfg = tiny_config();
    cfg.timing = TimingMode::Deterministic;
    let (ease, artifacts) = train_ease(&cfg).expect("valid config");
    assert!(!artifacts.quality_runs.is_empty());
    assert!(!artifacts.processing_runs.is_empty());

    // unseen test graphs from the real-world library (distribution shift)
    let test_inputs = GraphInput::from_tests(
        ease_repro::graphgen::realworld::standard_test_set(Scale::Tiny, 1234)
            .into_iter()
            .step_by(8)
            .take(8)
            .collect(),
    );
    let runs = profile_processing_with(
        &test_inputs,
        &cfg.partitioners,
        cfg.processing_k,
        &cfg.workloads,
        99,
        cfg.timing,
    );
    let groups = group_truth(&runs);
    assert_eq!(groups.len(), 8 * cfg.workloads.len());

    for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
        let (rows, stats) = evaluate_selection(&ease, &groups, cfg.processing_k, goal);
        assert_eq!(rows.len(), cfg.workloads.len());
        // bracketing: S_O ≤ S_PS ≤ S_W on every averaged row
        for row in &rows {
            assert!(row.vs_optimal >= 1.0 - 1e-9, "{goal:?} {row:?}");
            assert!(row.vs_worst <= 1.0 + 1e-9, "{goal:?} {row:?}");
        }
        // the headline property of the paper: on average the learned
        // selector is no worse than uniform random selection
        assert!(
            stats.avg_vs_random <= 1.05,
            "{goal:?}: S_PS averaged {} of random",
            stats.avg_vs_random
        );
        assert!(stats.optimal_pick_rate >= 0.0 && stats.optimal_pick_rate <= 1.0);
    }
}

/// The paper's qualitative claims as assertions, at the scale and seed the
/// checked-in `PAPER_RESULTS.tiny.md` is printed at and with the truth
/// profiled as the `paper` driver and `ease-bench`'s `train-tiny` profile it
/// (tiny scale — whose grid is the quick grid —, deterministic timing, seed
/// 42, `table4_test_set(.., seed)`, `seed ^ 2`). No bound is loosened to make
/// a claim pass: what does not hold at tiny is said so, not asserted.
#[test]
fn the_papers_selection_claims_hold_at_the_tiny_documents_scale_and_seed() {
    let seed = 42;
    let cfg =
        EaseConfig { seed, timing: TimingMode::Deterministic, ..EaseConfig::at_scale(Scale::Tiny) };
    let (ease, _) = train_ease(&cfg).expect("valid config");
    let tests =
        GraphInput::from_tests(ease_repro::graphgen::realworld::table4_test_set(cfg.scale, seed));
    let (k, workloads) = (cfg.processing_k, &cfg.workloads);
    let groups = group_truth(&profile_processing_with(
        &tests,
        &cfg.partitioners,
        k,
        workloads,
        seed ^ 2,
        cfg.timing,
    ));

    // End to end EASE beats a random pick, the smallest replication factor
    // and the worst partitioner (Sec. I: 11.1 % / 17.4 % / 29.1 % cheaper).
    let (rows, e2e) = evaluate_selection(&ease, &groups, k, OptGoal::EndToEnd);
    assert!(e2e.avg_vs_random < 1.0, "S_PS at {} of random", e2e.avg_vs_random);
    assert!(e2e.avg_vs_srf < 1.0, "S_PS at {} of smallest-RF", e2e.avg_vs_srf);
    assert!(e2e.avg_vs_worst < 1.0, "S_PS at {} of worst", e2e.avg_vs_worst);

    // Fig. 9, tailoring matters more than chasing the replication factor:
    // S_SRF loses far more against the optimum on Connected Components, where
    // fast partitioning wins, than on the communication-bound Synthetic-High,
    // where the expensive partitioner amortises (1.43 vs 1.06 here).
    let srf_vs_optimal = |workload: &str| {
        rows.iter().find(|r| r.workload == workload).expect("a trained workload").srf_vs_optimal
    };
    assert!(srf_vs_optimal("cc") > srf_vs_optimal("synthetic-high"));

    // On processing time alone it beats the worst partitioner. At tiny scale
    // that is all: it only ties random (0.998) and loses to smallest-RF
    // (1.06) — not reproduced here, as the tiny document's note says; the
    // `small` document (PAPER_RESULTS.md) shows both recovering.
    let (_, processing) = evaluate_selection(&ease, &groups, k, OptGoal::ProcessingOnly);
    assert!(processing.avg_vs_worst < 1.0, "S_PS at {} of worst", processing.avg_vs_worst);
}

#[test]
fn predictions_are_physically_consistent() {
    let cfg = tiny_config();
    let (ease, _) = train_ease(&cfg).expect("valid config");
    let tg = ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, 5);
    let props = PreparedGraph::of(&tg.graph).properties(PropertyTier::Advanced);
    let selection = ease
        .try_select(&props, Workload::PageRank { iterations: 5 }, 4, OptGoal::EndToEnd)
        .expect("a trained workload");
    assert_eq!(selection.candidates.len(), cfg.partitioners.len());
    for costs in &selection.candidates {
        assert!(costs.quality.replication_factor >= 1.0);
        assert!(costs.partitioning_secs >= 0.0);
        assert!(costs.processing_secs > 0.0);
        assert!(
            (costs.end_to_end_secs - costs.partitioning_secs - costs.processing_secs).abs() < 1e-9
        );
    }
}

/// With `TimingMode::Deterministic`, the FULL pipeline is a pure function
/// of its config: two `train_ease` runs with the same `EaseConfig` and RNG
/// seed must produce bit-identical predicted costs and identical
/// selections. This is the regression guard for future parallelism PRs —
/// any scheduling-order dependence in profiling or training breaks it.
#[test]
fn same_config_same_seed_same_selection() {
    let mut cfg = tiny_config();
    cfg.max_small_graphs = Some(8);
    cfg.max_large_graphs = Some(6);
    cfg.timing = TimingMode::Deterministic;
    cfg.seed = 0xD5EED;

    let (sys_a, art_a) = train_ease(&cfg).expect("valid config");
    let (sys_b, art_b) = train_ease(&cfg).expect("valid config");

    // the profiled training runs themselves are bit-identical
    assert_eq!(art_a.quality_runs.len(), art_b.quality_runs.len());
    for (ra, rb) in art_a.quality_runs.iter().zip(&art_b.quality_runs) {
        assert_eq!(ra.graph.name, rb.graph.name);
        assert_eq!(ra.partitioner, rb.partitioner);
        assert_eq!(ra.k, rb.k);
        assert_eq!(ra.metrics.replication_factor, rb.metrics.replication_factor);
        assert_eq!(ra.partitioning_secs, rb.partitioning_secs);
    }
    assert_eq!(art_a.processing_runs.len(), art_b.processing_runs.len());
    for (ra, rb) in art_a.processing_runs.iter().zip(&art_b.processing_runs) {
        assert_eq!(ra.graph.name, rb.graph.name);
        assert_eq!(ra.partitioning_secs, rb.partitioning_secs);
        assert_eq!(ra.workloads.len(), rb.workloads.len());
        for (ca, cb) in ra.workloads.iter().zip(&rb.workloads) {
            assert_eq!(ca.target_secs, cb.target_secs);
        }
    }

    // ... and so are the trained systems' predictions and selections
    for graph_seed in [5u64, 9, 21] {
        let tg = ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, graph_seed);
        let props = PreparedGraph::of(&tg.graph).properties(PropertyTier::Advanced);
        for &w in &cfg.workloads {
            for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
                let sa = sys_a.try_select(&props, w, cfg.processing_k, goal).expect("trained");
                let sb = sys_b.try_select(&props, w, cfg.processing_k, goal).expect("trained");
                assert_eq!(sa.best, sb.best, "{w:?} {goal:?} graph_seed={graph_seed}");
                assert_eq!(sa.candidates.len(), sb.candidates.len());
                for (ca, cb) in sa.candidates.iter().zip(&sb.candidates) {
                    assert_eq!(ca.end_to_end_secs, cb.end_to_end_secs);
                    assert_eq!(ca.partitioning_secs, cb.partitioning_secs);
                    assert_eq!(ca.processing_secs, cb.processing_secs);
                    assert_eq!(ca.quality.replication_factor, cb.quality.replication_factor);
                }
            }
        }
    }
}

/// Full-pipeline retraining under the default `TimingMode::Measured` is NOT
/// bit-identical because partitioning run-times are *measured wall-clock
/// values* (by design — the paper's step 2 measures real partitioners).
/// Determinism is promised one level down: identical training records yield
/// identical models, and a trained system is a pure function of its inputs.
#[test]
fn trained_system_is_deterministic_given_records() {
    let cfg = {
        let mut c = tiny_config();
        c.max_small_graphs = Some(6);
        c.max_large_graphs = Some(4);
        c.partitioners = vec![PartitionerId::Dbh, PartitionerId::Ne];
        c.workloads = vec![Workload::PageRank { iterations: 3 }];
        c
    };
    let (ease_sys, artifacts) = train_ease(&cfg).expect("valid config");
    // retrain the quality predictor from the SAME runs: predictions match
    let qp2 = ease_repro::core::predictors::QualityPredictor::train(
        &artifacts.quality_runs,
        cfg.tier,
        &cfg.grid,
        cfg.folds,
        cfg.seed,
    );
    let tg = ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, 9);
    let props = PreparedGraph::of(&tg.graph).properties(PropertyTier::Advanced);
    let a = ease_sys.quality.predict(&props, &cfg.partitioners, 4);
    let b = qp2.predict(&props, &cfg.partitioners, 4);
    assert_eq!(a.len(), cfg.partitioners.len());
    for (a, b) in a.iter().zip(&b) {
        assert!((a.replication_factor - b.replication_factor).abs() < 1e-12);
        assert!((a.vertex_balance - b.vertex_balance).abs() < 1e-12);
    }
    // selection on a fixed trained system is a pure function
    let select = || {
        let workload = Workload::PageRank { iterations: 3 };
        ease_sys.try_select(&props, workload, 4, OptGoal::EndToEnd).expect("a trained workload")
    };
    let (s1, s2) = (select(), select());
    assert_eq!(s1.best, s2.best);
    for (ca, cb) in s1.candidates.iter().zip(&s2.candidates) {
        assert!((ca.end_to_end_secs - cb.end_to_end_secs).abs() < 1e-12);
    }
}

/// One step of the label pins' running hash.
fn fold(h: u64, x: u64) -> u64 {
    ease_repro::graph::hash::mix64(h ^ x)
}

fn fold_str(h: u64, s: &str) -> u64 {
    s.bytes().fold(fold(h, s.len() as u64), |h, b| fold(h, b.into()))
}

/// The processing-time labels themselves, pinned: every workload cost the
/// time-predictor corpus produces at tiny scale — all 11 partitioners ×
/// the six training workloads at `k = 4`, run by run and then workload by
/// workload — folded through `mix64` into one literal. The literal was written by the tree *before* `ease-procsim`
/// learned to price stationary workloads from their first superstep and to
/// build placements in one pass; a simulator change that moves a single
/// bit of a single label (or of the quality metrics it rides with) fails
/// here, before any model is trained on it.
#[test]
fn processing_labels_are_pinned() {
    let cfg = EaseConfig::at_scale(Scale::Tiny);
    let runs = profile_processing_with(
        &cfg.large_inputs(),
        &PartitionerId::ALL,
        4,
        &Workload::all_training(),
        cfg.seed ^ 0x9A,
        TimingMode::Deterministic,
    );
    let mut h = 0u64;
    for r in &runs {
        assert_eq!(r.workloads.len(), 6);
        for c in &r.workloads {
            h = fold_str(h, r.partitioner.name());
            h = fold_str(h, c.workload.name());
            h = fold(h, c.target_secs.to_bits());
            h = fold(h, c.total_secs.to_bits());
            h = r.metrics.as_vector().iter().fold(h, |h, m| fold(h, m.to_bits()));
        }
    }
    assert_eq!(runs.len(), 10 * 11);
    assert_eq!(h, 0xd409_3c24_9f94_5ddd, "a processing label moved: {h:#018x}");
}

/// The quality labels, pinned the same way: every run the quality
/// predictor is trained on at tiny scale — the R-MAT-SMALL corpus, all 11
/// partitioners × `k ∈ {2, 4, 8}` — its five metrics and its deterministic
/// partitioning time folded through `mix64`. `processing_labels_are_pinned`
/// sees `k = 4` on R-MAT-LARGE only; this is where the stateful
/// partitioners run three times as often. The literal was written by the
/// tree *before* `HdrfState::place` selected instead of branching and
/// `neighborhood_expansion` kept its external degrees instead of recounting
/// them; a partitioner change that moves one edge of one placement fails
/// here.
#[test]
fn quality_labels_are_pinned() {
    let cfg = EaseConfig::at_scale(Scale::Tiny);
    let runs = profile_quality_with(
        &cfg.small_inputs(),
        &PartitionerId::ALL,
        &cfg.ks,
        cfg.seed,
        TimingMode::Deterministic,
    );
    let mut h = 0u64;
    for r in &runs {
        h = fold_str(h, r.partitioner.name());
        h = fold(h, r.k as u64);
        h = r.metrics.as_vector().iter().fold(h, |h, m| fold(h, m.to_bits()));
        h = fold(h, r.partitioning_secs.to_bits());
    }
    assert_eq!(runs.len(), 24 * 11 * 3);
    assert_eq!(h, 0x7d17_aa3c_7339_403b, "a quality label moved: {h:#018x}");
}

/// The placements themselves, pinned: every edge's partition from all 11
/// partitioners × `k ∈ {2, 3, 4, 8, 32}` on the tiny R-MAT-SMALL, R-MAT-LARGE
/// and Table IV graphs, folded through `mix64`. The metric pins above cannot
/// see two edges swap partitions at equal counts and run `k ∈ {2, 4, 8}`
/// only; `k = 3` gives HDRF a width that is not a power of two. The literal
/// was written by the tree *before* NE's boundary join stopped branching on
/// membership, HDRF scored a fixed number of lanes and HEP seeded its
/// replicas during expansion.
#[test]
fn partitioner_assignments_are_pinned() {
    let cfg = EaseConfig::at_scale(Scale::Tiny);
    let tests = GraphInput::from_tests(ease_repro::graphgen::realworld::table4_test_set(
        cfg.scale, cfg.seed,
    ));
    let inputs: Vec<GraphInput> =
        cfg.small_inputs().into_iter().chain(cfg.large_inputs()).chain(tests).collect();
    assert_eq!(inputs.len(), 24 + 10 + 7);
    let mut h = 0u64;
    for input in &inputs {
        let prepared = input.prepare();
        h = fold_str(h, input.name());
        for p in PartitionerId::ALL {
            for k in [2usize, 3, 4, 8, 32] {
                let part = p.partition(&prepared, k, cfg.seed ^ k as u64);
                h = fold_str(h, p.name());
                h = fold(h, k as u64);
                h = part.assignment().iter().fold(h, |h, &a| fold(h, a.into()));
            }
        }
    }
    assert_eq!(h, 0xc77e_c41e_987f_4e12, "a placement moved: {h:#018x}");
}

/// The predictions themselves, pinned: every candidate's five predicted
/// quality metrics, both predicted times and the end-to-end sum, and the
/// pick, for the seven tiny Table IV graphs × the six training workloads ×
/// `k ∈ {2, 4, 8, 32}` × both goals, folded through `mix64`. Two services
/// answer: `fixtures/golden_v2.model`, whose seven models reach every model
/// tag (it trains `pr` only, so the other workloads fold their typed
/// error), and the service `ease train --scale tiny --quick --deterministic
/// --seed 42` writes. The label and placement pins above cover what the
/// models learn from; this one covers what they answer. The literal was
/// written by the tree *before* `Ease::try_select` batched the catalog into
/// one matrix per model and the trees walked a flat node array, and
/// re-pinned once when the tree builder began deriving a split's larger
/// child's histograms by subtraction (sums round differently).
#[test]
fn selection_predictions_are_pinned() {
    use ease_repro::{EaseService, EaseServiceBuilder};
    let golden = EaseService::from_bytes(include_bytes!("fixtures/golden_v2.model"))
        .expect("the golden fixture loads");
    let trained = EaseServiceBuilder::at_scale(Scale::Tiny)
        .quick_grid()
        .timing(TimingMode::Deterministic)
        .seed(42)
        .train()
        .expect("the tiny service trains");
    let graphs = ease_repro::graphgen::realworld::table4_test_set(Scale::Tiny, 42);
    assert_eq!(graphs.len(), 7);
    let mut h = 0u64;
    let mut answered = 0;
    for service in [&golden, &trained] {
        for tg in &graphs {
            let props = PreparedGraph::of(&tg.graph).properties(PropertyTier::Advanced);
            for workload in Workload::all_training() {
                for k in [2usize, 4, 8, 32] {
                    for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
                        let selection = match service.ease().try_select(&props, workload, k, goal) {
                            Ok(selection) => selection,
                            Err(e) => {
                                h = fold_str(h, &e.to_string());
                                continue;
                            }
                        };
                        h = fold_str(h, selection.best.name());
                        for c in &selection.candidates {
                            h = fold_str(h, c.partitioner.name());
                            h = c.quality.as_vector().iter().fold(h, |h, m| fold(h, m.to_bits()));
                            h = fold(h, c.partitioning_secs.to_bits());
                            h = fold(h, c.processing_secs.to_bits());
                            h = fold(h, c.end_to_end_secs.to_bits());
                        }
                        answered += 1;
                    }
                }
            }
        }
    }
    // golden: `pr` only; trained: every workload
    assert_eq!(answered, 7 * 4 * 2 + 7 * 6 * 4 * 2);
    assert_eq!(h, 0x5545_b82c_9221_7b77, "a prediction moved: {h:#018x}");
}

/// The evaluation numbers themselves, pinned: every `f64` the accuracy
/// scorers (Tables V–VI, Fig. 7), the partitioning-time score, the strategy
/// comparison (Table VIII, both goals) and one enrichment point (Fig. 8)
/// return for the seed-42 tiny service, folded through `mix64` with the
/// labels they are keyed by. The results documents print three decimals
/// and cannot see a one-ulp move; this can. The test runs are profiled
/// deterministically: typed graphs of `standard_test_set(Tiny, 77)` for
/// the quality scorers, three Table IV graphs for the time scorers and the
/// selection, three wiki-pool graphs to enrich with. The literal was
/// written by the tree *before* evaluation predicted a test set through
/// one feature matrix per model instead of one row per record, and
/// re-pinned once with the histogram-subtracting tree builder.
#[test]
fn evaluation_scores_are_pinned() {
    use ease_repro::core::enrich::enrichment_sweep;
    use ease_repro::core::evaluation::{
        mape_by_type, mape_heatmap, partitioning_time_score, processing_test_scores,
        quality_test_scores,
    };
    use ease_repro::graphgen::realworld::{
        standard_test_set, table4_test_set, wiki_enrichment_pool,
    };
    use ease_repro::ml::ModelConfig;
    use ease_repro::partition::QualityTarget;
    use ease_repro::EaseServiceBuilder;

    let service = EaseServiceBuilder::at_scale(Scale::Tiny)
        .quick_grid()
        .timing(TimingMode::Deterministic)
        .seed(42)
        .train()
        .expect("the tiny service trains");
    let ease = service.ease();
    let timing = TimingMode::Deterministic;
    let typed = GraphInput::from_tests(
        standard_test_set(Scale::Tiny, 77).into_iter().step_by(9).take(6).collect(),
    );
    let table4 =
        GraphInput::from_tests(table4_test_set(Scale::Tiny, 42).into_iter().take(3).collect());
    let wiki =
        GraphInput::from_tests(wiki_enrichment_pool(Scale::Tiny, 77).into_iter().take(3).collect());
    let quality = profile_quality_with(&typed, &PartitionerId::ALL, &[2, 8], 77, timing);
    let processing = profile_processing_with(
        &table4,
        &PartitionerId::ALL,
        4,
        &Workload::all_training(),
        44,
        timing,
    );
    let pool = profile_quality_with(&wiki, &PartitionerId::ALL, &[2, 8], 78, timing);
    let rf = QualityTarget::ReplicationFactor;

    let mut h = 0u64;
    let mut scores = 0;
    let mut score = |h: &mut u64, key: &str, v: f64| {
        *h = fold(fold_str(*h, key), v.to_bits());
        scores += 1;
    };
    for (target, mape, rmse) in quality_test_scores(&ease.quality, &quality) {
        score(&mut h, target.name(), mape);
        score(&mut h, target.name(), rmse);
    }
    for (graph_type, row) in mape_heatmap(&ease.quality, &quality, rf) {
        for (p, mape) in row {
            score(&mut h, graph_type.name(), mape);
            h = fold_str(h, p.name());
        }
    }
    for (graph_type, mape) in mape_by_type(&ease.quality, &quality, rf) {
        score(&mut h, graph_type.name(), mape);
    }
    for (workload, mape) in processing_test_scores(&ease.processing_time, &processing) {
        score(&mut h, workload, mape);
    }
    let ptime = partitioning_time_score(&ease.partitioning_time, &processing);
    score(&mut h, "partitioning time", ptime);
    let groups = group_truth(&processing);
    for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
        let (rows, s) = evaluate_selection(ease, &groups, 4, goal);
        for r in rows {
            let (o, srf, random, worst) = (r.vs_optimal, r.vs_srf, r.vs_random, r.vs_worst);
            for v in [o, srf, random, worst, r.srf_vs_optimal, r.optimal_pick_rate] {
                score(&mut h, r.workload, v);
            }
            h = fold(h, r.graphs as u64);
        }
        for v in
            [s.optimal_pick_rate, s.avg_vs_random, s.avg_vs_srf, s.avg_vs_worst, s.avg_vs_optimal]
        {
            score(&mut h, goal.name(), v);
        }
    }
    let rfr = ModelConfig::Forest { n_trees: 10, max_depth: 8, feature_fraction: 0.8 };
    let points =
        enrichment_sweep(&processing, &pool, &quality, &[2], 1, PropertyTier::Basic, &rfr, rf, 42);
    assert_eq!(points.len(), 1);
    for p in &points {
        h = fold(fold(h, p.n_graphs as u64), p.rep as u64);
        for &(graph_type, mape) in &p.mape_by_type {
            score(&mut h, graph_type.name(), mape);
        }
        score(&mut h, "all", p.mape_all);
    }
    assert_eq!(scores, 152, "scores folded");
    assert_eq!(h, 0xd11d_2250_ef60_d847, "an evaluation score moved: {h:#018x}");
}

/// A graph is its row, not its name: two different test graphs under one
/// name (test-graph names encode neither scale nor seed) stay two graphs in
/// the ground truth — each group ranks one graph's costs — and in the
/// enrichment draw.
#[test]
fn a_graph_is_identified_by_its_row_not_its_name() {
    use ease_repro::core::enrich::draw_enrichment_subset;
    use ease_repro::graphgen::realworld::{generate_typed, GraphType};

    let twins: Vec<GraphInput> = [3, 4]
        .into_iter()
        .map(|seed| {
            let mut graph = generate_typed(GraphType::Web, 0, Scale::Tiny, seed);
            graph.name = "twin".into();
            GraphInput::Materialized(graph)
        })
        .collect();
    let parts = [PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne];
    let workloads = [Workload::PageRank { iterations: 2 }, Workload::ConnectedComponents];
    let runs = profile_processing_with(&twins, &parts, 4, &workloads, 5, TimingMode::Deterministic);
    assert_eq!(runs.len(), 2 * parts.len());
    assert_ne!(runs[0].graph.props, runs[parts.len()].graph.props, "two different graphs");

    let groups = group_truth(&runs);
    assert_eq!(groups.len(), 2 * workloads.len());
    for g in &groups {
        assert_eq!(g.graph.name, "twin");
        let ranked: Vec<PartitionerId> = g.truth.iter().map(|t| t.partitioner).collect();
        assert_eq!(ranked, parts, "one graph's |P| costs");
    }

    // one graph drawn is one graph's runs; two is both
    for seed in 0..4 {
        let one = draw_enrichment_subset(&runs, 1, seed);
        assert_eq!(one.len(), parts.len(), "seed {seed}");
        assert!(one.iter().all(|r| std::sync::Arc::ptr_eq(&r.graph, &one[0].graph)));
    }
    assert_eq!(draw_enrichment_subset(&runs, 2, 0).len(), 2 * parts.len());
}

/// The traffic `PreparedPool` was built for does not occur: at every scale
/// the full R-MAT-SMALL and R-MAT-LARGE corpora share no spec (the spec key
/// contains the `rmat-small-…` / `rmat-large-…` name), so `train_ease`'s
/// pool never shares a context between the quality and processing passes.
/// String keys only — no graph is generated.
#[test]
fn training_corpora_share_no_spec() {
    for scale in [Scale::Tiny, Scale::Small, Scale::Medium] {
        let cfg = EaseConfig {
            max_small_graphs: None,
            max_large_graphs: None,
            ..EaseConfig::at_scale(scale)
        };
        let (small, large) = (cfg.small_inputs(), cfg.large_inputs());
        assert_eq!((small.len(), large.len()), (297, 180), "{scale:?}");
        assert_eq!(PreparedPool::for_overlap(&small, &large).overlap(), 0, "{scale:?}");
    }
}

/// The three `*Predictor::train` calls run their model selection as one
/// queued job each; what they return must be, byte for byte through
/// `encode`, what the serial control flow assembles from the same runs:
/// per dataset `cross_val_mape` over the grid, the first minimum, the
/// winner fitted on the full dataset.
#[test]
fn predictors_train_what_serial_selection_assembles() {
    use ease_repro::core::predictors::{
        PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor,
    };
    use ease_repro::ml::cv::cross_val_mape;
    use ease_repro::ml::persist::{encode_config, Writer};
    use ease_repro::ml::Dataset;
    use ease_repro::partition::QualityTarget;

    let cfg = {
        let mut c = tiny_config();
        c.max_small_graphs = Some(6);
        c.max_large_graphs = Some(4);
        c.partitioners = vec![PartitionerId::Dbh, PartitionerId::Ne];
        c.workloads = vec![Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents];
        c.timing = TimingMode::Deterministic;
        c
    };
    let (trained, artifacts) = train_ease(&cfg).expect("valid config");
    // provenance + fitted model of one dataset, as a predictor spells them
    let serial = |w: &mut Writer, ds: &Dataset| {
        let scores: Vec<f64> =
            cfg.grid.iter().map(|c| cross_val_mape(c, ds, cfg.folds, cfg.seed)).collect();
        let best = (0..scores.len())
            .min_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"))
            .expect("non-empty grid");
        encode_config(w, &cfg.grid[best]);
        w.put_f64(scores[best]);
        let mut model = cfg.grid[best].build();
        model.fit(&ds.x, &ds.y);
        model.encode(w);
    };
    let bytes = |encode: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        encode(&mut w);
        w.into_bytes()
    };

    let quality = bytes(&|w| {
        w.put_u8(cfg.tier.tag());
        w.put_usize(QualityTarget::ALL.len());
        for (tag, target) in QualityTarget::ALL.into_iter().enumerate() {
            w.put_u8(tag as u8);
            serial(w, &QualityPredictor::dataset(&artifacts.quality_runs, cfg.tier, target));
        }
    });
    assert!(bytes(&|w| trained.quality.encode(w)) == quality, "quality predictor bytes");

    let ptime = PartitioningTimePredictor::dataset(&artifacts.processing_runs);
    let partitioning = bytes(&|w| serial(w, &ptime));
    assert!(bytes(&|w| trained.partitioning_time.encode(w)) == partitioning, "ptime bytes");

    let processing = bytes(&|w| {
        w.put_usize(cfg.workloads.len());
        for workload in &cfg.workloads {
            let name = workload.name();
            w.put_str(name);
            serial(w, &ProcessingTimePredictor::dataset(&artifacts.processing_runs, name));
        }
    });
    assert!(bytes(&|w| trained.processing_time.encode(w)) == processing, "proctime bytes");
}
