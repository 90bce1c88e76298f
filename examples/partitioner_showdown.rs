//! Domain scenario: the partitioning trade-off across graph *types*.
//!
//! Runs all 11 partitioners on a social-network analogue and a web-crawl
//! analogue, reproducing the paper's core motivation (Sec. III): no single
//! partitioner wins everywhere — 2PS is near-NE quality on clustered web
//! graphs but near-hash on social graphs; in-memory quality costs
//! partitioning time that only pays off for communication-bound workloads.
//!
//! ```sh
//! cargo run --release --example partitioner_showdown
//! ```

use ease_repro::graph::PreparedGraph;
use ease_repro::graphgen::Scale;
use ease_repro::partition::{run_partitioner_prepared, PartitionerId, TimingMode};
use ease_repro::procsim::{ClusterSpec, DistributedGraph, Workload};

fn main() {
    let scale = Scale::Tiny;
    let graphs = [
        ease_repro::graphgen::realworld::friendster_analogue(scale, 11),
        ease_repro::graphgen::realworld::sk2005_analogue(scale, 22),
    ];
    let k = 16;
    let cluster = ClusterSpec::new(k);
    let workload = Workload::PageRank { iterations: 10 };
    for tg in &graphs {
        println!(
            "\n=== {} (|V|={}, |E|={}) ===",
            tg.name,
            tg.graph.num_vertices(),
            tg.graph.num_edges()
        );
        println!(
            "{:<8} {:>6} {:>12} {:>12} {:>12}",
            "algo", "rf", "partition-s", "pagerank-s", "end-to-end-s"
        );
        // one context for all eleven runs; warm its degree table first so
        // no degree-hungry partitioner is charged for deriving it
        let graph = PreparedGraph::of(&tg.graph);
        graph.degrees();
        let mut rows: Vec<(PartitionerId, f64, f64, f64)> = PartitionerId::ALL
            .iter()
            .map(|&p| {
                let run = run_partitioner_prepared(p, &graph, k, 3, TimingMode::Measured);
                let dg = DistributedGraph::build_prepared(&graph, &run.partition);
                let rep = workload.execute(&dg, &cluster);
                (p, run.metrics.replication_factor, run.partitioning_secs, rep.total_secs)
            })
            .collect();
        rows.sort_by(|a, b| (a.2 + a.3).partial_cmp(&(b.2 + b.3)).unwrap());
        for (p, rf, ps, pr) in &rows {
            println!("{:<8} {:>6.2} {:>12.3} {:>12.3} {:>12.3}", p.name(), rf, ps, pr, ps + pr);
        }
        let best = rows.first().unwrap();
        println!("--> best end-to-end here: {}", best.0.name());
    }
    println!("\nNote how the winner differs between the two graph types — that is");
    println!("exactly the selection problem EASE automates.");
}
