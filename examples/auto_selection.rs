//! Automatic partitioner selection — the paper's end-to-end scenario.
//!
//! Trains EASE at tiny scale (seconds), then asks it to pick partitioners
//! for an unseen social-network graph under both optimization goals, and
//! verifies the choice against measured ground truth.
//!
//! ```sh
//! cargo run --release --example auto_selection
//! ```

use ease_repro::graphgen::Scale;
use ease_repro::partition::{run_partitioner_prepared, TimingMode};
use ease_repro::procsim::{ClusterSpec, DistributedGraph, Workload};
use ease_repro::{EaseServiceBuilder, OptGoal, PreparedGraph};

fn main() {
    println!("training EASE at tiny scale (this profiles two corpora)...");
    // the default tiny caps (24 + 10 graphs) are sized for unit tests;
    // give the example enough training data for a credible ranking
    let service = EaseServiceBuilder::at_scale(Scale::Tiny)
        .max_small_graphs(Some(80))
        .max_large_graphs(Some(36))
        .train()
        .expect("valid config");

    // an unseen graph: the Socfb-A-anon analogue of the paper's Fig. 2
    let tg = ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, 777);
    // one context for the properties and every ground-truth run below
    let graph = PreparedGraph::of(&tg.graph);
    let props = service.cached_properties_prepared(&graph);
    println!("\nunseen graph {}: |V|={} |E|={}", tg.name, props.num_vertices, props.num_edges);

    let k = service.meta().default_k;
    let workload = Workload::PageRank { iterations: 10 };
    for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
        let selection = service.recommend(&props, workload, goal).expect("trained workload");
        println!("\ngoal {:?}: EASE picks {}", goal, selection.best.name());
        println!("  {:<8} {:>10} {:>10} {:>10}", "algo", "pred-part", "pred-proc", "pred-e2e");
        let mut ranked = selection.candidates.clone();
        ranked.sort_by(|a, b| a.end_to_end_secs.partial_cmp(&b.end_to_end_secs).unwrap());
        for c in ranked.iter().take(5) {
            println!(
                "  {:<8} {:>9.3}s {:>9.3}s {:>9.3}s",
                c.partitioner.name(),
                c.partitioning_secs,
                c.processing_secs,
                c.end_to_end_secs
            );
        }
    }

    // ground truth for the EndToEnd goal
    println!("\nmeasured ground truth (all 11 partitioners):");
    let cluster = ClusterSpec::new(k);
    let mut truth: Vec<(String, f64)> = service
        .catalog()
        .iter()
        .map(|&p| {
            let run = run_partitioner_prepared(p, &graph, k, 5, TimingMode::Measured);
            let dg = DistributedGraph::build_prepared(&graph, &run.partition);
            let rep = workload.execute(&dg, &cluster);
            (p.name().to_string(), run.partitioning_secs + rep.total_secs)
        })
        .collect();
    truth.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    for (name, secs) in &truth {
        println!("  {name:<8} {secs:>9.3}s");
    }
    let pick = service
        .recommend(&props, workload, OptGoal::EndToEnd)
        .expect("trained workload")
        .best
        .name()
        .to_string();
    let rank = truth.iter().position(|(n, _)| *n == pick).unwrap_or(99);
    println!(
        "\nEASE's pick `{pick}` ranks #{} of {} by true end-to-end time.",
        rank + 1,
        truth.len()
    );
}
