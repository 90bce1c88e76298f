//! The eleven items: each turns the [`Lab`]'s artefacts into the tables of
//! one paper table or figure, with the paper's value beside ours where the
//! paper states one and a note where the two disagree.

use crate::md::{f3, ms, pct, verdict, Doc};
use crate::{Lab, RFR};
use ease::enrich::{aggregate_point, enrichment_sweep};
use ease::evaluation::{
    evaluate_selection, group_truth, grouped_importances, mape_heatmap, partitioning_time_score,
    processing_test_scores, quality_test_scores, GroupTruth,
};
use ease::pipeline::dedup_partition_runs;
use ease::predictors::{ChosenModel, QualityPredictor};
use ease::profiling::TimingMode;
use ease::selector::{strategy_pick, OptGoal, Strategy};
use ease_graph::{GraphProperties, PreparedGraph, PropertyTier};
use ease_graphgen::grids::{ba_sweep, fig6f_corpus, rmat_large_corpus, rmat_small_corpus};
use ease_graphgen::realworld::{self, GraphType, TestGraph};
use ease_graphgen::rmat::RMAT_COMBOS;
use ease_partition::{run_partitioner_prepared, PartitionerId, QualityTarget};
use ease_procsim::{ClusterSpec, DistributedGraph, Workload};
use std::collections::{BTreeMap, BTreeSet};

pub struct Item {
    /// The positional argument that selects it (the old binary's name).
    pub name: &'static str,
    /// Its section heading.
    pub title: &'static str,
    pub render: fn(&Lab, &mut Doc),
}

/// In document order.
pub const ITEMS: [Item; 11] = [
    Item { name: "corpus", title: "Tables I & II: the R-MAT training corpora", render: corpus },
    Item { name: "fig1", title: "Fig. 1: PageRank under four partitioners", render: fig1 },
    Item { name: "fig2", title: "Fig. 2: Label Propagation and vertex balance", render: fig2 },
    Item { name: "fig6", title: "Fig. 6: property coverage of the corpora", render: fig6 },
    Item { name: "table5", title: "Table V: the two run-time predictors", render: table5 },
    Item { name: "table6", title: "Table VI: the partitioning-quality predictor", render: table6 },
    Item { name: "table7", title: "Table VII: feature importances", render: table7 },
    Item { name: "fig7", title: "Fig. 7: MAPE per graph type and partitioner", render: fig7 },
    Item { name: "fig8", title: "Fig. 8: MAPE against the enrichment level", render: fig8 },
    Item { name: "table8", title: "Table VIII: EASE against the baselines", render: table8 },
    Item { name: "fig9", title: "Fig. 9: end-to-end time on the enwiki analogue", render: fig9 },
];

/// One table row from anything printable.
macro_rules! row {
    ($($cell:expr),+ $(,)?) => { vec![$($cell.to_string()),+] };
}

fn corpus(lab: &Lab, doc: &mut Doc) {
    let f2 = |v: f64| format!("{v:.2}");
    let mut rows = vec![row!["combo", "a", "b", "c", "d"]];
    rows.extend(
        (1..)
            .zip(&RMAT_COMBOS)
            .map(|(i, p)| row![format!("C{i}"), f2(p.a), f2(p.b), f2(p.c), f2(p.d)]),
    );
    doc.table("Table II: R-MAT parameter combinations", &rows);
    let (scale, cfg) = (lab.cfg.scale, &lab.cfg);
    let profiled = (cfg.small_inputs().len(), cfg.large_inputs().len());
    for (label, corpus, paper) in [
        ("Ia (R-MAT-SMALL)", rmat_small_corpus(scale), 297),
        ("Ib (R-MAT-LARGE)", rmat_large_corpus(scale), 180),
    ] {
        let mut grid: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for spec in &corpus {
            grid.entry(spec.num_edges).or_default().insert(spec.num_vertices);
        }
        let mut rows = vec![row!["|E|", "|V| values (nine combos each)"]];
        rows.extend(grid.iter().map(|(e, vs)| row![e, format!("{vs:?}")]));
        doc.table(&format!("Table {label}: {} graphs (paper: {paper})", corpus.len()), &rows);
    }
    doc.para(&format!(
        "The grids keep the paper's shape at edge counts scaled down by a power of two; {} \
         R-MAT-SMALL and {} R-MAT-LARGE graphs are profiled at this scale.",
        profiled.0, profiled.1,
    ));
}

/// Partition `tg` with each of `partitioners` (proxy partitioning time) and
/// run `workload` on every placement: one table row per partitioner, and
/// (replication factor, vertex balance, processing seconds) back.
fn placements<const N: usize>(
    doc: &mut Doc,
    tg: &TestGraph,
    partitioners: [PartitionerId; N],
    k: usize,
    seed: u64,
    workload: Workload,
) -> [(f64, f64, f64); N] {
    let prepared = PreparedGraph::of(&tg.graph);
    let header =
        row!["partitioner", "replication factor", "vertex balance", "partitioning ms", "run ms"];
    let mut rows = vec![header];
    let measured = partitioners.map(|p| {
        let run = run_partitioner_prepared(p, &prepared, k, seed, TimingMode::Deterministic);
        let dg = DistributedGraph::build_prepared(&prepared, &run.partition);
        let secs = workload.execute(&dg, &ClusterSpec::new(k)).total_secs;
        let (rf, vb) = (run.metrics.replication_factor, run.metrics.vertex_balance);
        rows.push(row![p.name(), f3(rf), f3(vb), ms(run.partitioning_secs), ms(secs)]);
        (rf, vb, secs)
    });
    let (v, e) = (tg.graph.num_vertices(), tg.graph.num_edges());
    let caption = format!("{} on {} (|V| = {v}, |E| = {e}), k = {k}", workload.label(), tg.name);
    doc.table(&caption, &rows);
    measured
}

fn fig1(lab: &Lab, doc: &mut Doc) {
    let (scale, seed) = (lab.cfg.scale, lab.cfg.seed);
    let partitioners =
        [PartitionerId::Crvc, PartitionerId::TwoD, PartitionerId::TwoPs, PartitionerId::Ne];
    let graphs =
        [realworld::friendster_analogue(scale, seed), realworld::sk2005_analogue(scale, seed ^ 1)];
    // where 2PS's replication factor sits between NE's (0 %) and CRVC's (100 %)
    let (mut quality_pays, mut two_ps_at) = (true, Vec::new());
    for tg in &graphs {
        let pagerank = Workload::PageRank { iterations: 50 };
        let [crvc, two_d, two_ps, ne] = placements(doc, tg, partitioners, 64, seed, pagerank);
        quality_pays &= ne.0 < two_d.0 && ne.2 < crvc.2;
        two_ps_at.push(100.0 * (two_ps.0 - ne.0) / (crvc.0 - ne.0));
    }
    let (social, crawl) = (two_ps_at[0], two_ps_at[1]);
    let (pays, graph_dependent) = (verdict(quality_pays), verdict(crawl < social));
    doc.para(&format!(
        "Paper: fewer replicas buy processing time and cost partitioning time; 2PS is near NE on \
         the clustered web crawl and near hashing on the social network. Ours: NE has fewer \
         replicas than 2D and a faster PageRank than CRVC on both graphs: {pays}; 2PS sits \
         {social:.0} % of the way from NE to CRVC on the social graph, {crawl:.0} % on the crawl: \
         {graph_dependent}. Partitioning time is the deterministic proxy throughout: a constant \
         per partitioner category times |E|."
    ));
}

fn fig2(lab: &Lab, doc: &mut Doc) {
    let tg = realworld::socfb_analogue(lab.cfg.scale, lab.cfg.seed);
    let partitioners = [PartitionerId::Dbh, PartitionerId::TwoD, PartitionerId::Ne];
    let label_propagation = Workload::LabelPropagation { iterations: 10 };
    let runs = placements(doc, &tg, partitioners, 4, lab.cfg.seed, label_propagation);
    let fastest = (0..3).min_by(|&a, &b| runs[a].2.total_cmp(&runs[b].2)).expect("three runs");
    let balanced = (0..3).min_by(|&a, &b| runs[a].1.total_cmp(&runs[b].1)).expect("three runs");
    doc.para(&format!(
        "Paper: on this computation-bound workload the best vertex balance, not the fewest \
         replicas, is fastest. Ours: {} is fastest, {} is best balanced: {}.",
        partitioners[fastest].name(),
        partitioners[balanced].name(),
        verdict(fastest == balanced),
    ));
}

fn pearson(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sum = |f: &dyn Fn(&(f64, f64)) -> f64| points.iter().map(f).sum::<f64>();
    let (mx, my) = (sum(&|p| p.0) / n, sum(&|p| p.1) / n);
    let cov = sum(&|p| (p.0 - mx) * (p.1 - my));
    cov / (sum(&|p| (p.0 - mx).powi(2)) * sum(&|p| (p.1 - my).powi(2))).sqrt().max(1e-12)
}

fn fig6(lab: &Lab, doc: &mut Doc) {
    let (scale, seed) = (lab.cfg.scale, lab.cfg.seed);
    let advanced = |g: &ease_graph::Graph| PreparedGraph::of(g).properties(PropertyTier::Advanced);
    let real: Vec<_> =
        realworld::full_library(scale, seed).iter().map(|t| advanced(&t.graph)).collect();
    let families = [
        ("R-MAT", rmat_small_corpus(scale).iter().map(|s| advanced(&s.generate())).collect()),
        ("BA", ba_sweep(scale).iter().map(|(_, gen)| advanced(&gen.generate())).collect()),
        ("RW", real.clone()),
    ];
    let properties: [(&str, fn(&GraphProperties) -> f64); 5] = [
        ("mean degree", |p| p.mean_degree),
        ("clustering coefficient", |p| p.avg_lcc.unwrap_or(0.0)),
        ("mean triangles", |p| p.avg_triangles.unwrap_or(0.0)),
        ("in-degree skew", |p| p.in_degree_skew),
        ("out-degree skew", |p| p.out_degree_skew),
    ];
    // how many real-world values fall inside [R-MAT, BA, RW]'s own range
    let mut rows = vec![row!["property", "family", "min", "median", "max"]];
    let mut inside = [0usize; 3];
    for (name, property) in properties {
        for ((family, props), inside) in families.iter().zip(&mut inside) {
            let mut values: Vec<f64> = props.iter().map(property).collect();
            values.sort_unstable_by(f64::total_cmp);
            let (min, max) = (values[0], values[values.len() - 1]);
            rows.push(row![name, family, f3(min), f3(values[values.len() / 2]), f3(max)]);
            *inside += real.iter().filter(|p| (min..=max).contains(&property(p))).count();
        }
    }
    doc.table("Fig. 6(a-e): R-MAT-SMALL, a Barabasi-Albert sweep, the real-world analogues", &rows);
    let [rmat, ba, _] = inside.map(|hits| 100 * hits / (properties.len() * real.len()));
    doc.para(&format!(
        "Paper: R-MAT covers the property ranges of real graphs, Barabasi-Albert cannot. Ours: \
         {rmat} % of the real-world values lie inside the R-MAT range, {ba} % inside BA's: {}. \
         Ranges taken one property at a time are a weak test: our BA sweep spans the whole \
         mean-degree axis and more of the triangle axis than R-MAT does.",
        verdict(inside[0] > inside[1]),
    ));

    // (f): the claim holds within a fixed-|V| line across the nine combos;
    // pooled across densities the mean degree drives both quantities
    let mut lines: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for spec in fig6f_corpus(scale) {
        let g = PreparedGraph::new(spec.generate());
        let lcc = g.properties(PropertyTier::Advanced).avg_lcc.unwrap_or(0.0);
        let run =
            run_partitioner_prepared(PartitionerId::Hdrf, &g, 64, seed, TimingMode::Deterministic);
        lines.entry(spec.num_vertices).or_default().push((lcc, run.metrics.replication_factor));
    }
    lines.retain(|_, points| points.len() >= 3);
    let mean = lines.values().map(|points| pearson(points)).sum::<f64>() / lines.len() as f64;
    let mut rows = vec![row!["|V|", "graphs", "Pearson r"]];
    rows.extend(lines.iter().map(|(v, pts)| row![v, pts.len(), format!("{:+.3}", pearson(pts))]));
    doc.table("Fig. 6(f): clustering coefficient against HDRF's replicas (k = 64), per |V|", &rows);
    doc.para(&format!(
        "Paper: negative (among same-size graphs, high clustering partitions easily). Ours: mean \
         within-|V| correlation {mean:+.3}: {}.",
        verdict(mean < 0.0),
    ));
}

fn model_of<K: PartialEq>(chosen: &[(K, ChosenModel)], key: &K) -> &'static str {
    chosen.iter().find(|(k, _)| k == key).map_or("?", |(_, c)| c.config.kind().name())
}

fn table5(lab: &Lab, doc: &mut Doc) {
    let paper = |workload| match workload {
        "cc" => "0.272",
        "kcores" => "0.401",
        "pr" => "0.295",
        "sssp" => "0.300",
        "synthetic-high" => "0.259",
        "synthetic-low" => "0.271",
        _ => "-",
    };
    let (ease, truth) = (lab.ease(), lab.truth());
    let mut rows = vec![row!["predicted run-time", "model", "MAPE ours", "MAPE paper"]];
    for (name, mape) in processing_test_scores(&ease.processing_time, truth) {
        let model = model_of(&ease.processing_time.chosen, &name);
        rows.push(row![name, model, f3(mape), paper(name)]);
    }
    let ptime = partitioning_time_score(&ease.partitioning_time, &dedup_partition_runs(truth));
    let model = ease.partitioning_time.chosen.config.kind().name();
    rows.push(row!["partitioning time", model, f3(ptime), "0.335"]);
    doc.table("Test MAPE on the Table IV graphs (trained on R-MAT-LARGE)", &rows);
    let fitted = lab.cfg.large_inputs().len();
    doc.para(&format!(
        "Where ours is above the paper's the cause is extrapolation: the models are fitted on \
         {fitted} R-MAT-LARGE graphs (paper: 180) and tested on graphs of other sizes. With \
         `tiny`'s ten even the partitioning time, under the proxy a closed form of |E| and k, is \
         missed several times over. MAPE divides by the true time: where the SSSP source reaches \
         few vertices the run is a few supersteps long, and a prediction sized for the whole \
         graph is off by several hundred percent."
    ));
}

fn table6(lab: &Lab, doc: &mut Doc) {
    let (cfg, test, rf) = (&lab.cfg, lab.test_quality(), QualityTarget::ReplicationFactor);
    // the service's quality predictor *is* the basic-feature grid search
    let basic = &lab.ease().quality;
    let mut rows =
        vec![row!["target", "model", "features", "MAPE ours", "MAPE paper", "RMSE ours"]];
    for (target, mape, rmse) in quality_test_scores(basic, test) {
        let paper = if target == rf { "0.296" } else { "0.079-0.154" };
        let model = model_of(&basic.chosen, &target);
        rows.push(row![target.name(), model, "basic", f3(mape), paper, f3(rmse)]);
    }
    let advanced = PropertyTier::Advanced;
    let qp = QualityPredictor::train(lab.train_quality(), advanced, &cfg.grid, cfg.folds, cfg.seed);
    let scores = quality_test_scores(&qp, test);
    let (_, mape, rmse) = scores.iter().find(|s| s.0 == rf).expect("every target is scored");
    let model = model_of(&qp.chosen, &rf);
    rows.push(row![rf.name(), model, "advanced", f3(*mape), "0.288", f3(*rmse)]);
    doc.table("Test scores on the real-world test set (trained on R-MAT-SMALL)", &rows);
    doc.para(
        "The paper gives one range for the four balances. Ours is below the paper's on the \
         replication factor (the test graphs are generated analogues, closer to R-MAT than real \
         graphs are) and above it on the balances (on graphs this small they hang on a few hubs). \
         As in the paper, advanced features barely move the replication-factor error.",
    );
}

fn table7(lab: &Lab, doc: &mut Doc) {
    let paper = |group| match group {
        "Partitioner" => "0.244-0.542",
        "Mean Degree" => "0.274 (replication factor)",
        "#Partitions" => "0.177-0.472",
        "Degree Distr." => "0.165-0.372",
        "Density" => "<= 0.034",
        _ => "-",
    };
    let importances = QualityTarget::ALL
        .map(|t| grouped_importances(lab.fixed_rfr(), t).expect("forests have importances"));
    let targets = QualityTarget::ALL.map(|t| t.name().to_string()).to_vec();
    let mut rows = vec![[row!["feature group"], targets, row!["paper"]].concat()];
    for (label, _) in &importances[0] {
        let of =
            |groups: &Vec<(&str, f64)>| groups.iter().find(|g| g.0 == *label).map_or(0.0, |g| g.1);
        let mut row = row![label];
        row.extend(importances.iter().map(|groups| f3(of(groups))));
        row.push(paper(*label).to_string());
        rows.push(row);
    }
    doc.table("Grouped RFR feature importances (basic features)", &rows);
    doc.para(
        "Our rows also carry raw |E| and |V| (\"Graph Size\"), which the paper's basic set does \
         not; they and the density share what the paper attributes to the mean degree.",
    );
}

fn fig7(lab: &Lab, doc: &mut Doc) {
    let (qp, test) = (lab.fixed_rfr(), lab.test_quality());
    let (rf, vb) = (QualityTarget::ReplicationFactor, QualityTarget::VertexBalance);
    let partitioners = PartitionerId::ALL.map(|p| p.name().to_string()).to_vec();
    // prints one heatmap, returns the mean of its wiki row
    let mut heatmap = |caption: &str, qp: &QualityPredictor, target: QualityTarget| -> f64 {
        let heat = mape_heatmap(qp, test, target);
        let mut rows = vec![[row!["type"], partitioners.clone()].concat()];
        for (graph_type, cells) in &heat {
            let cell =
                |p| cells.iter().find(|c| c.0 == p).map_or("-".into(), |c| format!("{:.2}", c.1));
            rows.push([row![graph_type.name()], PartitionerId::ALL.map(cell).to_vec()].concat());
        }
        doc.table(caption, &rows);
        let wiki = heat.iter().find(|(t, _)| *t == GraphType::Wiki).map_or(&[][..], |(_, c)| c);
        wiki.iter().map(|c| c.1).sum::<f64>() / wiki.len() as f64
    };
    let before = heatmap("Fig. 7(a): replication-factor MAPE, no enrichment", qp, rf);
    let enriched = lab.enriched_rfr(&[rf]);
    let after =
        heatmap("Fig. 7(b): replication-factor MAPE, enriched with 96 wiki graphs", &enriched, rf);
    heatmap("Fig. 7(c): vertex-balance MAPE, no enrichment", qp, vb);
    doc.para(&format!(
        "Paper: enrichment cuts the wiki row from about 1.0 to about 0.3. Ours: wiki row mean \
         {before:.2} -> {after:.2}: {}. Ours starts far lower because the wiki analogues come from \
         a generator whose like the R-MAT corpus has seen, not from a crawl.",
        verdict(after < before),
    ));
}

fn fig8(lab: &Lab, doc: &mut Doc) {
    const SIZES: [usize; 6] = [0, 19, 38, 57, 76, 96];
    let (train, pool, test) = (lab.train_quality(), lab.wiki_pool(), lab.test_quality());
    let (basic, rf, seed) = (PropertyTier::Basic, QualityTarget::ReplicationFactor, lab.cfg.seed);
    let points = enrichment_sweep(train, pool, test, &SIZES, 3, basic, &RFR, rf, seed);
    let mut curves = vec![("all", None)];
    curves.extend(GraphType::ALL.map(|t| (t.name(), Some(t))));
    let mut rows = vec![[row!["curve"], SIZES.map(|s| format!("n = {s}")).to_vec()].concat()];
    for (label, graph_type) in curves {
        let cell = |size| match aggregate_point(&points, size, graph_type) {
            Some((mean, std)) => format!("{mean:.3}±{std:.3}"),
            None => "-".into(),
        };
        rows.push([row![label], SIZES.map(cell).to_vec()].concat());
    }
    doc.table(
        "Replication-factor MAPE by number of wiki graphs added (mean±std of 3 draws)",
        &rows,
    );
    let wiki = |n| aggregate_point(&points, n, Some(GraphType::Wiki)).map_or(f64::NAN, |p| p.0);
    let (w0, w19, w96) = (wiki(0), wiki(19), wiki(96));
    doc.para(&format!(
        "Paper: the wiki curve drops 0.555 -> 0.244 and 19 graphs already give most of it. Ours: \
         {w0:.3} -> {w96:.3}, {w19:.3} after 19 graphs: {}. The level differs as under Fig. 7.",
        verdict(w96 < w0 && w0 - w19 > (w0 - w96) / 2.0),
    ));
}

fn table8(lab: &Lab, doc: &mut Doc) {
    let (k, groups) = (lab.cfg.processing_k, group_truth(lab.truth()));
    let goals = [OptGoal::EndToEnd, OptGoal::ProcessingOnly];
    let [e2e, processing] = goals.map(|goal| evaluate_selection(lab.ease(), &groups, k, goal));
    let header =
        row!["goal", "algorithm", "S_O", "S_SRF", "S_R", "S_W", "optimum %", "S_SRF % of S_O"];
    let mut rows = vec![header];
    for r in e2e.0.iter().chain(&processing.0) {
        let picked = format!("{:.1}", r.optimal_pick_rate * 100.0);
        let [o, srf, random, worst, srf_o] =
            [r.vs_optimal, r.vs_srf, r.vs_random, r.vs_worst, r.srf_vs_optimal].map(pct);
        rows.push(row![r.goal.name(), r.workload, o, srf, random, worst, picked, srf_o]);
    }
    rows.push(row!["paper, E2E", "(range)", "102-117", "58-99", "76-96", "57-79", "-", "-"]);
    doc.table(
        "Table VIII(a): cost of EASE's pick (S_PS) in % of each baseline's (lower: better)",
        &rows,
    );
    // the paper's headline: end-to-end time cut by 11.1 % against random,
    // 17.4 % against smallest-RF, 29.1 % against worst
    let names =
        ["optimal_pick_rate", "avg_vs_random", "avg_vs_srf", "avg_vs_worst", "avg_vs_optimal"];
    let mut rows = vec![row!["goal", "statistic", "ours", "paper"]];
    for (goal, (_, s), paper) in [
        (goals[0].name(), &e2e, ["0.357", "0.889", "0.826", "0.709", "-"]),
        (goals[1].name(), &processing, ["0.262", "-", "-", "-", "-"]),
    ] {
        let ours =
            [s.optimal_pick_rate, s.avg_vs_random, s.avg_vs_srf, s.avg_vs_worst, s.avg_vs_optimal];
        rows.extend((0..5).map(|i| row![goal, names[i], f3(ours[i]), paper[i]]));
    }
    let n = groups.len();
    doc.table(&format!("Headline over all {n} (graph, algorithm) groups, as ratios"), &rows);
    let hits = (e2e.1.optimal_pick_rate * n as f64).round();
    let [e2e, pro] =
        [&e2e.1, &processing.1].map(|s| [s.avg_vs_random, s.avg_vs_srf, s.avg_vs_worst]);
    let [beats_e2e, beats_pro] = [e2e, pro].map(|s| verdict(s.iter().all(|v| *v < 1.0)));
    doc.para(&format!(
        "End-to-end EASE picks an optimal partitioner in {hits} of {n} groups (a pick that costs \
         what the optimum costs counts). The paper's claim, ours: EASE beats random, smallest-RF \
         and worst end-to-end ({e2e:.3?} of their cost): {beats_e2e}; on processing time alone \
         ({pro:.3?}): {beats_pro}. At `tiny` the processing-time claim fails: fitted on ten small \
         R-MAT-LARGE graphs the processing-time predictor cannot separate partitioners with close \
         replication factors, and only the partitioning-time term of the end-to-end goal carries \
         the choice. Why the optimum is picked less often than in the paper is not attributed \
         yet: which link of the prediction chain loses is ROADMAP item 4's substitution ladder."
    ));

    // (b): the selector with its quality predictor retrained on the
    // wiki-enriched profile (all five targets: selection reads them all)
    let mut enriched = lab.ease_copy();
    enriched.quality = lab.enriched_rfr(&QualityTarget::ALL);
    let enwiki: Vec<GroupTruth> =
        groups.iter().filter(|g| g.graph_name.contains("enwiki")).cloned().collect();
    let mut rows = vec![row!["goal", "evaluated on", "S_O before", "S_O", "S_R", "S_W"]];
    for goal in goals {
        for (label, subset) in [("enwiki analogue", &enwiki), ("all graphs", &groups)] {
            let before = evaluate_selection(lab.ease(), subset, k, goal).1.avg_vs_optimal;
            let s = evaluate_selection(&enriched, subset, k, goal).1;
            let [after, random, worst] =
                [s.avg_vs_optimal, s.avg_vs_random, s.avg_vs_worst].map(pct);
            rows.push(row![goal.name(), label, pct(before), after, random, worst]);
        }
    }
    doc.table(
        "Table VIII(b): S_PS with the wiki-enriched quality predictor, in % of baselines",
        &rows,
    );
    doc.para(
        "Paper: enrichment helps the enriched type by about 4-5 % and costs about 2-3 % elsewhere. \
         Ours also swaps the grid-searched models for a fixed RFR, so the two columns differ by \
         model family as well as by training data.",
    );
}

fn fig9(lab: &Lab, doc: &mut Doc) {
    let (k, goal, groups) = (lab.cfg.processing_k, OptGoal::EndToEnd, group_truth(lab.truth()));
    let mut picks = Vec::new();
    for name in ["synthetic-high", "cc"] {
        let g = groups
            .iter()
            .find(|g| g.graph_name.contains("enwiki") && g.workload.name() == name)
            .expect("the Table IV set has an enwiki analogue and both workloads are trained");
        let chosen = [
            ("S_PS", lab.ease().try_select(&g.props, g.workload, k, goal).expect("trained").best),
            ("S_SRF", strategy_pick(Strategy::SmallestRf, &g.truth, goal)),
            ("optimal", strategy_pick(Strategy::Optimal, &g.truth, goal)),
        ];
        let mut ranked = g.truth.clone();
        ranked.sort_by(|a, b| a.cost(goal).total_cmp(&b.cost(goal)));
        let header =
            row!["partitioner", "partitioning ms", "processing ms", "total ms", "picked by"];
        let mut rows = vec![header];
        for t in &ranked {
            let by: Vec<_> = chosen.iter().filter(|c| c.1 == t.partitioner).map(|c| c.0).collect();
            let [partitioning, processing, total] =
                [t.partitioning_secs, t.processing_secs, t.cost(goal)].map(ms);
            rows.push(row![t.partitioner.name(), partitioning, processing, total, by.join(" ")]);
        }
        let (label, e) = (g.workload.label(), g.props.num_edges);
        doc.table(&format!("{label} on {} (|E| = {e}), by end-to-end time", g.graph_name), &rows);
        let [sps, srf, optimal] = chosen.map(|c| c.1.name());
        picks.push(format!("{label}: S_PS {sps}, S_SRF {srf}, optimal {optimal}"));
    }
    doc.para(&format!(
        "Paper: on the communication-bound Synthetic-High the expensive partitioner amortises \
         (S_PS and S_SRF both pick HEP-100); on Connected Components S_PS picks DBH and S_SRF \
         wastes its time on HEP-100. Ours: {}. Over all Table IV graphs the claim is the last \
         column of Table VIII(a): chasing replicas costs more on CC than on Synthetic-High.",
        picks.join("; "),
    ));
}
