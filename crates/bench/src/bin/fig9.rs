//! Fig. 9 — end-to-end run-time of every partitioner on the enwiki-2021
//! analogue for (a) Synthetic-High and (b) Connected Components, annotated
//! with the choices of S_PS (EASE) and S_SRF.
//!
//! Paper's point: for the communication-bound Synthetic-High, the expensive
//! high-quality partitioner (HEP-100) amortizes and both strategies agree;
//! for CC, fast partitioning (DBH) wins end-to-end and chasing the smallest
//! replication factor backfires.

use ease::evaluation::group_truth;
use ease::profiling::{profile_processing, GraphInput};
use ease::report::{f3, render_table, write_csv};
use ease::selector::{strategy_pick, OptGoal, Strategy};
use ease::{EaseServiceBuilder, Query};
use ease_bench::{banner, config_from_env, results_dir, seed_from_env};
use ease_procsim::Workload;

fn main() {
    banner("Fig. 9", "per-partitioner E2E time; S_PS vs S_SRF choices");
    let cfg = config_from_env();
    let seed = seed_from_env();
    println!("training EASE...");
    let service = EaseServiceBuilder::from_config(cfg.clone()).train().expect("valid config");

    let enwiki = ease_graphgen::realworld::table4_test_set(cfg.scale, seed ^ 0x7AB4)
        .into_iter()
        .find(|t| t.name.contains("enwiki"))
        .expect("enwiki analogue in Table IV set");
    println!("graph {} — |E|={}", enwiki.name, enwiki.graph.num_edges());
    let workloads = [Workload::Synthetic { s: 10, iterations: 5 }, Workload::ConnectedComponents];
    let records = profile_processing(
        &[GraphInput::Materialized(enwiki)],
        &cfg.partitioners,
        cfg.processing_k,
        &workloads,
        cfg.seed ^ 4,
    );
    let groups = group_truth(&records);
    let mut csv = Vec::new();
    for g in &groups {
        let goal = OptGoal::EndToEnd;
        let sps = service
            .recommend_query(&g.props, Query::new(g.workload).k(cfg.processing_k).goal(goal))
            .expect("trained workload")
            .best;
        let srf = strategy_pick(Strategy::SmallestRf, &g.truth, goal);
        let optimal = strategy_pick(Strategy::Optimal, &g.truth, goal);
        let mut ranked = g.truth.clone();
        ranked.sort_by(|a, b| a.cost(goal).partial_cmp(&b.cost(goal)).expect("finite"));
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .map(|t| {
                let mut marks = Vec::new();
                if t.partitioner == sps {
                    marks.push("S_PS");
                }
                if t.partitioner == srf {
                    marks.push("S_SRF");
                }
                if t.partitioner == optimal {
                    marks.push("optimal");
                }
                csv.push(vec![
                    g.workload.name().to_string(),
                    t.partitioner.name().to_string(),
                    format!("{}", t.partitioning_secs),
                    format!("{}", t.processing_secs),
                    format!("{}", t.cost(goal)),
                    marks.join("+"),
                ]);
                vec![
                    t.partitioner.name().to_string(),
                    f3(t.partitioning_secs),
                    f3(t.processing_secs),
                    f3(t.cost(goal)),
                    marks.join(" "),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!("Fig. 9 — {} on enwiki analogue (sorted by E2E)", g.workload.label()),
                &["partitioner", "partitioning s", "processing s", "end-to-end s", "selected by"],
                &rows
            )
        );
    }
    println!("(paper: Synthetic-High -> HEP-100 for both S_PS and S_SRF;");
    println!("        CC -> S_PS picks DBH, S_SRF wastes time on HEP-100)");
    write_csv(
        &results_dir().join("fig9.csv"),
        &[
            "workload",
            "partitioner",
            "partitioning_secs",
            "processing_secs",
            "end_to_end_secs",
            "selected_by",
        ],
        &csv,
    )
    .expect("write fig9.csv");
    println!("wrote results/fig9.csv");
}
