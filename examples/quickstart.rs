//! Quickstart: generate a graph, partition it three ways, inspect quality
//! metrics, and run PageRank on the simulated cluster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ease_repro::graph::{PreparedGraph, PropertyTier};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::partition::{run_partitioner_prepared, PartitionerId, TimingMode};
use ease_repro::procsim::{ClusterSpec, DistributedGraph, Workload};

fn main() {
    // 1. a power-law R-MAT graph (paper combo C7), 2^12 vertices, 30k edges,
    //    prepared once: every step below shares its memoized degree table
    let graph = PreparedGraph::new(Rmat::new(RMAT_COMBOS[6], 1 << 12, 30_000, 42).generate());
    let props = graph.properties(PropertyTier::Advanced);
    println!(
        "graph: |V|={} |E|={} mean degree {:.1} clustering {:.3}",
        props.num_vertices,
        props.num_edges,
        props.mean_degree,
        props.avg_lcc.unwrap_or(0.0)
    );

    // 2. partition into 8 parts with three very different algorithms
    let k = 8;
    println!(
        "\n{:<8} {:>6} {:>8} {:>8} {:>12}",
        "algo", "rf", "edge-bal", "vtx-bal", "partition-ms"
    );
    for id in [PartitionerId::OneDD, PartitionerId::Hdrf, PartitionerId::Ne] {
        let run = run_partitioner_prepared(id, &graph, k, 1, TimingMode::Measured);
        println!(
            "{:<8} {:>6.2} {:>8.3} {:>8.3} {:>12.2}",
            id.name(),
            run.metrics.replication_factor,
            run.metrics.edge_balance,
            run.metrics.vertex_balance,
            run.partitioning_secs * 1e3,
        );
    }

    // 3. run PageRank on the simulated 8-machine cluster for each placement
    println!("\nPageRank (10 iterations) on the simulated cluster:");
    let cluster = ClusterSpec::new(k);
    for id in [PartitionerId::OneDD, PartitionerId::Hdrf, PartitionerId::Ne] {
        let run = run_partitioner_prepared(id, &graph, k, 1, TimingMode::Measured);
        let dg = DistributedGraph::build_prepared(&graph, &run.partition);
        let report = Workload::PageRank { iterations: 10 }.execute(&dg, &cluster);
        println!(
            "  {:<8} processing {:>7.3}s  (comm {:.1} MB)",
            id.name(),
            report.total_secs,
            report.total_comm_bytes / 1e6
        );
    }
    println!("\nlower replication factor -> less communication -> faster PageRank.");
}
