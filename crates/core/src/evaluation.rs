//! Evaluation harness: regenerates the paper's accuracy matrices
//! (Tables V/VI, Fig. 7) and the selection-strategy comparison
//! (Table VIII, Fig. 9, and the headline numbers of Sec. I).

use crate::predictors::{
    workload_names, PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor,
};
use crate::profiling::{ProfileRun, ProfiledGraph};
use crate::selector::{strategy_cost, Ease, OptGoal, Strategy, TrueCosts};
use ease_graphgen::realworld::GraphType;
use ease_ml::metrics::{mape, rmse};
use ease_partition::{PartitionerId, QualityTarget};
use ease_procsim::Workload;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Prediction accuracy (Tables V & VI, Fig. 7)
// ---------------------------------------------------------------------

/// Overall MAPE + RMSE of the quality predictor per target on a test set
/// (Table VI rows).
pub fn quality_test_scores(
    qp: &QualityPredictor,
    test: &[ProfileRun],
) -> Vec<(QualityTarget, f64, f64)> {
    QualityTarget::ALL
        .iter()
        .map(|&target| {
            let (y_true, y_pred) = quality_pairs(qp, test, target);
            (target, mape(&y_true, &y_pred), rmse(&y_true, &y_pred))
        })
        .collect()
}

/// Per-(graph type × partitioner) MAPE matrix for one quality target —
/// the Fig. 7 heatmaps.
pub fn mape_heatmap(
    qp: &QualityPredictor,
    test: &[ProfileRun],
    target: QualityTarget,
) -> Vec<(GraphType, Vec<(PartitionerId, f64)>)> {
    let pairs = quality_pairs(qp, test, target);
    GraphType::ALL
        .iter()
        .filter_map(|&gt| {
            let row: Vec<(PartitionerId, f64)> = PartitionerId::ALL
                .iter()
                .filter_map(|&p| {
                    mape_where(test, &pairs, |r| {
                        r.graph.graph_type == Some(gt) && r.partitioner == p
                    })
                    .map(|mape| (p, mape))
                })
                .collect();
            (!row.is_empty()).then_some((gt, row))
        })
        .collect()
}

/// MAPE per graph type (averaging all partitioners), used by the
/// enrichment study (Fig. 8).
pub fn mape_by_type(
    qp: &QualityPredictor,
    test: &[ProfileRun],
    target: QualityTarget,
) -> Vec<(GraphType, f64)> {
    mape_by_type_of(test, &quality_pairs(qp, test, target))
}

/// [`mape_by_type`] over already-predicted `(truth, prediction)` pairs.
pub(crate) fn mape_by_type_of(
    test: &[ProfileRun],
    pairs: &(Vec<f64>, Vec<f64>),
) -> Vec<(GraphType, f64)> {
    GraphType::ALL
        .iter()
        .filter_map(|&gt| {
            mape_where(test, pairs, |r| r.graph.graph_type == Some(gt)).map(|m| (gt, m))
        })
        .collect()
}

/// `target`'s truth and prediction for each of `test`, in run order:
/// the test set goes through the model once.
pub(crate) fn quality_pairs(
    qp: &QualityPredictor,
    test: &[ProfileRun],
    target: QualityTarget,
) -> (Vec<f64>, Vec<f64>) {
    (test.iter().map(|r| r.metrics.get(target)).collect(), qp.predict_target(target, test))
}

/// The MAPE of the `(truth, prediction)` pairs whose runs `keep` selects,
/// in run order; `None` when it selects none.
fn mape_where(
    runs: &[ProfileRun],
    (truth, pred): &(Vec<f64>, Vec<f64>),
    keep: impl Fn(&ProfileRun) -> bool,
) -> Option<f64> {
    let (y_true, y_pred): (Vec<f64>, Vec<f64>) =
        runs.iter().zip(truth.iter().zip(pred)).filter(|(r, _)| keep(r)).map(|(_, p)| p).unzip();
    (!y_true.is_empty()).then(|| mape(&y_true, &y_pred))
}

/// Table V: per-workload MAPE of the processing-time predictor on a test
/// set of processing runs.
pub fn processing_test_scores(
    pp: &ProcessingTimePredictor,
    test: &[ProfileRun],
) -> Vec<(&'static str, f64)> {
    workload_names(test)
        .into_iter()
        .map(|name| {
            let truth: Vec<f64> =
                test.iter().filter_map(|r| Some(r.cost(name)?.target_secs)).collect();
            (name, mape(&truth, &pp.predict_target(test, name)))
        })
        .collect()
}

/// Test MAPE of the partitioning-time predictor.
pub fn partitioning_time_score(tp: &PartitioningTimePredictor, test: &[ProfileRun]) -> f64 {
    let y_true: Vec<f64> = test.iter().map(|r| r.partitioning_secs).collect();
    let y_pred = tp.predict(test.iter().map(|r| (&r.graph.props, r.partitioner)));
    mape(&y_true, &y_pred)
}

// ---------------------------------------------------------------------
// Table VII: grouped feature importances
// ---------------------------------------------------------------------

/// Sum the quality predictor's per-column importances for `target` into the
/// paper's Table VII feature groups: Partitioner (the one-hot columns),
/// Mean Degree, #Partitions, Degree Distr. (in- plus out-degree skew) and
/// Density. Those five always appear, in that order. Our feature rows also
/// carry raw `|E|` / `|V|` columns and, on the advanced tier, the triangle
/// and clustering columns; they are summed under "Graph Size" and
/// "Triangles/LCC", listed only when non-zero. `None` when the target's
/// model has no importances (it is not a tree ensemble).
pub fn grouped_importances(
    qp: &QualityPredictor,
    target: QualityTarget,
) -> Option<Vec<(&'static str, f64)>> {
    let imp = qp.importances(target)?;
    let names = crate::features::quality_feature_names(qp.tier);
    let mut groups: Vec<(&'static str, f64)> = vec![
        ("Partitioner", 0.0),
        ("Mean Degree", 0.0),
        ("#Partitions", 0.0),
        ("Degree Distr.", 0.0),
        ("Density", 0.0),
        ("Graph Size", 0.0),
        ("Triangles/LCC", 0.0),
    ];
    let mut add = |label: &str, v: f64| {
        for (g, acc) in groups.iter_mut() {
            if *g == label {
                *acc += v;
            }
        }
    };
    for (name, v) in names.iter().zip(&imp) {
        let label = if name.starts_with("partitioner_") {
            "Partitioner"
        } else if name == "mean_degree" {
            "Mean Degree"
        } else if name == "num_partitions" {
            "#Partitions"
        } else if name.ends_with("degree_skew") {
            "Degree Distr."
        } else if name == "density" {
            "Density"
        } else if name == "num_edges" || name == "num_vertices" {
            "Graph Size"
        } else {
            "Triangles/LCC"
        };
        add(label, *v);
    }
    // the five canonical Table VII groups always appear; extras only when
    // the tier actually contributed them
    const CANONICAL: [&str; 5] =
        ["Partitioner", "Mean Degree", "#Partitions", "Degree Distr.", "Density"];
    groups.retain(|(label, v)| CANONICAL.contains(label) || *v > 0.0);
    Some(groups)
}

// ---------------------------------------------------------------------
// Table VIII: strategy comparison
// ---------------------------------------------------------------------

/// Measured truth for one (graph, workload) pair across all partitioners.
#[derive(Debug, Clone)]
pub struct GroupTruth {
    pub graph: Arc<ProfiledGraph>,
    pub workload: Workload,
    pub truth: Vec<TrueCosts>,
}

/// Group processing runs into per-(graph, workload) truth tables: per graph
/// row, per workload its first run executed, every run's cost of it.
pub fn group_truth(runs: &[ProfileRun]) -> Vec<GroupTruth> {
    let mut groups = Vec::new();
    for of_graph in runs.chunk_by(ProfileRun::same_graph) {
        let first = &of_graph[0];
        for cost in &first.workloads {
            let name = cost.workload.name();
            let truth = of_graph.iter().filter_map(|r| {
                Some(TrueCosts {
                    partitioner: r.partitioner,
                    replication_factor: r.metrics.replication_factor,
                    partitioning_secs: r.partitioning_secs,
                    processing_secs: r.cost(name)?.total_secs,
                })
            });
            let graph = Arc::clone(&first.graph);
            groups.push(GroupTruth { graph, workload: cost.workload, truth: truth.collect() });
        }
    }
    groups
}

/// One Table VIII row: the average cost of S_PS's choice as a fraction of
/// each baseline, for one workload and goal.
#[derive(Debug, Clone)]
pub struct SelectionRow {
    pub workload: &'static str,
    pub goal: OptGoal,
    /// S_PS cost / baseline cost, averaged over test graphs — the paper's
    /// "SPS in % of baselines" columns (× 100).
    pub vs_optimal: f64,
    pub vs_srf: f64,
    pub vs_random: f64,
    pub vs_worst: f64,
    /// S_SRF cost / S_O cost (the paper's last column).
    pub srf_vs_optimal: f64,
    /// Fraction of graphs where S_PS picked the true optimum.
    pub optimal_pick_rate: f64,
    pub graphs: usize,
}

/// Aggregate selection metrics (the Sec. I headline numbers).
#[derive(Debug, Clone, Default)]
pub struct HeadlineStats {
    pub optimal_pick_rate: f64,
    pub avg_vs_random: f64,
    pub avg_vs_srf: f64,
    pub avg_vs_worst: f64,
    pub avg_vs_optimal: f64,
}

/// Evaluate EASE's selector against the baselines on measured ground truth.
pub fn evaluate_selection(
    ease: &Ease,
    groups: &[GroupTruth],
    k: usize,
    goal: OptGoal,
) -> (Vec<SelectionRow>, HeadlineStats) {
    let mut workloads: Vec<Workload> = Vec::new();
    for g in groups {
        if !workloads.iter().any(|w| w.name() == g.workload.name()) {
            workloads.push(g.workload);
        }
    }
    let mut rows = Vec::new();
    let mut all_ratios = HeadlineStats::default();
    let mut all_hits = 0usize;
    let mut all_count = 0usize;
    for w in workloads {
        let mut vs = [0.0f64; 4]; // optimal, srf, random, worst
        let mut srf_vs_o = 0.0;
        let mut hits = 0usize;
        let mut count = 0usize;
        for g in groups.iter().filter(|g| g.workload.name() == w.name()) {
            let selection = ease
                .try_select(&g.graph.props, g.workload, k, goal)
                .expect("every truth group's workload is trained and the catalog is not empty");
            let pick_cost = g
                .truth
                .iter()
                .find(|t| t.partitioner == selection.best)
                .map(|t| t.cost(goal))
                .expect("selected partitioner measured");
            let o = strategy_cost(Strategy::Optimal, &g.truth, goal);
            let srf = strategy_cost(Strategy::SmallestRf, &g.truth, goal);
            let r = strategy_cost(Strategy::Random, &g.truth, goal);
            let worst = strategy_cost(Strategy::Worst, &g.truth, goal);
            vs[0] += pick_cost / o.max(1e-12);
            vs[1] += pick_cost / srf.max(1e-12);
            vs[2] += pick_cost / r.max(1e-12);
            vs[3] += pick_cost / worst.max(1e-12);
            srf_vs_o += srf / o.max(1e-12);
            // a hit is a pick that costs what the optimum costs: partitioners
            // that produce the same partition tie, and any of them is optimal
            if pick_cost <= o {
                hits += 1;
            }
            count += 1;
        }
        if count == 0 {
            continue;
        }
        let n = count as f64;
        rows.push(SelectionRow {
            workload: w.name(),
            goal,
            vs_optimal: vs[0] / n,
            vs_srf: vs[1] / n,
            vs_random: vs[2] / n,
            vs_worst: vs[3] / n,
            srf_vs_optimal: srf_vs_o / n,
            optimal_pick_rate: hits as f64 / n,
            graphs: count,
        });
        all_ratios.avg_vs_optimal += vs[0];
        all_ratios.avg_vs_srf += vs[1];
        all_ratios.avg_vs_random += vs[2];
        all_ratios.avg_vs_worst += vs[3];
        all_hits += hits;
        all_count += count;
    }
    if all_count > 0 {
        let n = all_count as f64;
        all_ratios.avg_vs_optimal /= n;
        all_ratios.avg_vs_srf /= n;
        all_ratios.avg_vs_random /= n;
        all_ratios.avg_vs_worst /= n;
        all_ratios.optimal_pick_rate = all_hits as f64 / n;
    }
    (rows, all_ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{train_ease, EaseConfig};
    use crate::profiling::{profile_processing_with, profile_quality_with, GraphInput, TimingMode};
    use ease_graph::{PreparedGraph, PropertyTier};
    use ease_graphgen::Scale;

    fn tiny_system() -> (Ease, Vec<GraphInput>) {
        let mut cfg = EaseConfig::at_scale(Scale::Tiny);
        cfg.max_small_graphs = Some(8);
        cfg.max_large_graphs = Some(5);
        cfg.ks = vec![2, 4];
        cfg.partitioners = vec![PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne];
        cfg.workloads = vec![Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents];
        let (ease, _) = train_ease(&cfg).expect("valid config");
        let test = GraphInput::from_tests(
            ease_graphgen::realworld::standard_test_set(Scale::Tiny, 77)
                .into_iter()
                .take(6)
                .collect(),
        );
        (ease, test)
    }

    #[test]
    fn selection_rows_are_sane() {
        let (ease, test_inputs) = tiny_system();
        let parts = [PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne];
        let runs = profile_processing_with(
            &test_inputs,
            &parts,
            4,
            &[Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents],
            3,
            TimingMode::Measured,
        );
        let groups = group_truth(&runs);
        assert_eq!(groups.len(), 6 * 2);
        for g in &groups {
            assert_eq!(g.truth.len(), 3);
        }
        let (rows, headline) = evaluate_selection(&ease, &groups, 4, OptGoal::EndToEnd);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // S_PS can never beat the oracle or lose to the worst
            assert!(row.vs_optimal >= 1.0 - 1e-9, "{row:?}");
            assert!(row.vs_worst <= 1.0 + 1e-9, "{row:?}");
            assert!(row.srf_vs_optimal >= 1.0 - 1e-9);
            assert!((0.0..=1.0).contains(&row.optimal_pick_rate));
        }
        assert!(headline.avg_vs_optimal >= 1.0 - 1e-9);
        assert!(headline.avg_vs_worst <= 1.0 + 1e-9);
    }

    #[test]
    fn a_pick_tied_with_the_optimum_counts_as_a_hit() {
        let (ease, _) = tiny_system();
        let graph = ease_graphgen::realworld::socfb_analogue(Scale::Tiny, 5).graph;
        let props = PreparedGraph::of(&graph).properties(PropertyTier::Advanced);
        let workload = Workload::ConnectedComponents;
        let goal = OptGoal::ProcessingOnly;
        let pick = ease.try_select(&props, workload, 4, goal).expect("a trained workload").best;
        // the pick comes *second* of two equal optima, the third costs more
        let twin = ease.catalog.iter().copied().find(|p| *p != pick).expect("three candidates");
        let costs = |partitioner, processing_secs| TrueCosts {
            partitioner,
            replication_factor: 1.5,
            partitioning_secs: 0.0,
            processing_secs,
        };
        let mut truth = vec![costs(twin, 2.0), costs(pick, 2.0)];
        truth.extend(
            ease.catalog.iter().filter(|p| **p != pick && **p != twin).map(|&p| costs(p, 3.0)),
        );
        let graph = Arc::new(ProfiledGraph { name: "tie".into(), graph_type: None, props });
        let tied = GroupTruth { graph, workload, truth };
        let (rows, headline) = evaluate_selection(&ease, std::slice::from_ref(&tied), 4, goal);
        assert_eq!(rows[0].vs_optimal, 1.0);
        assert_eq!(rows[0].optimal_pick_rate, 1.0, "a tied optimum is still the optimum");
        assert_eq!(headline.optimal_pick_rate, 1.0);
        // and a pick that costs more than the optimum is still a miss
        let mut worse = tied;
        worse.truth[1].processing_secs = 2.5;
        let (rows, headline) = evaluate_selection(&ease, &[worse], 4, goal);
        assert_eq!(rows[0].optimal_pick_rate, 0.0);
        assert_eq!(headline.optimal_pick_rate, 0.0);
    }

    #[test]
    fn quality_scores_and_heatmap_shapes() {
        let (ease, test_inputs) = tiny_system();
        let parts = [PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne];
        let test_runs = profile_quality_with(&test_inputs, &parts, &[4], 9, TimingMode::Measured);
        let scores = quality_test_scores(&ease.quality, &test_runs);
        assert_eq!(scores.len(), 5);
        for (t, m, r) in &scores {
            assert!(m.is_finite() && *m >= 0.0, "{t:?}");
            assert!(r.is_finite() && *r >= 0.0);
        }
        let heat = mape_heatmap(&ease.quality, &test_runs, QualityTarget::ReplicationFactor);
        assert!(!heat.is_empty());
        for (_, row) in &heat {
            assert_eq!(row.len(), 3); // three partitioners profiled
        }
        let by_type = mape_by_type(&ease.quality, &test_runs, QualityTarget::ReplicationFactor);
        assert_eq!(by_type.len(), heat.len());
    }
}
