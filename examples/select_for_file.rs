//! Select a partitioner for *your own* graph.
//!
//! Reads a whitespace-separated edge list (SNAP/KONECT style, `#`/`%`
//! comments allowed), trains EASE, and prints the recommended partitioner
//! for a chosen workload and partition count — the deployment workflow of
//! the paper's Fig. 3 pipeline.
//!
//! ```sh
//! cargo run --release --example select_for_file -- my_graph.txt pr 16
//! # args: <edge-list path> [workload: pr|cc|sssp|kcores|lp|synthetic-low|synthetic-high] [k]
//! ```
//!
//! Without arguments it demos on a generated graph.

use ease_repro::graph::{Graph, GraphProperties};
use ease_repro::graphgen::Scale;
use ease_repro::procsim::Workload;
use ease_repro::{EaseService, EaseServiceBuilder, OptGoal, Query};

fn workload_from_name(name: &str) -> Workload {
    match name {
        "pr" => Workload::PageRank { iterations: 10 },
        "cc" => Workload::ConnectedComponents,
        "sssp" => Workload::Sssp { source_seed: 1 },
        "kcores" => Workload::KCores,
        "lp" => Workload::LabelPropagation { iterations: 10 },
        "synthetic-low" => Workload::Synthetic { s: 1, iterations: 5 },
        "synthetic-high" => Workload::Synthetic { s: 10, iterations: 5 },
        other => {
            eprintln!("unknown workload `{other}`, using pr");
            Workload::PageRank { iterations: 10 }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let graph: Graph = match args.get(1) {
        Some(path) => {
            println!("reading edge list from {path} ...");
            ease_repro::graph::io::read_edge_list(path.as_ref()).expect("readable edge list")
        }
        None => {
            println!("no file given — demoing on a generated social graph");
            ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, 7).graph
        }
    };
    let workload = workload_from_name(args.get(2).map(String::as_str).unwrap_or("pr"));
    let k: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(8);

    println!(
        "graph: |V|={} |E|={}; workload {}; k={k}",
        graph.num_vertices(),
        graph.num_edges(),
        workload.label()
    );
    // Train once, then persist — reruns of this example reuse the saved
    // service instead of re-profiling (the paper's amortization argument).
    let model_path = std::env::temp_dir().join("ease_select_for_file.model");
    let system = match EaseService::load(&model_path) {
        Ok(service) => {
            println!("loaded trained service from {} ...", model_path.display());
            service
        }
        Err(_) => {
            println!("training EASE (tiny scale) ...");
            let service = EaseServiceBuilder::at_scale(Scale::Tiny).train().expect("valid config");
            if service.save(&model_path).is_ok() {
                println!("saved trained service to {} for future runs", model_path.display());
            }
            service
        }
    };

    let props = GraphProperties::compute_advanced(&graph);
    println!(
        "properties: mean degree {:.2}, density {:.6}, clustering {:.4}",
        props.mean_degree,
        props.density,
        props.avg_lcc.unwrap_or(0.0)
    );
    for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
        let sel = match system.recommend_query(&props, Query::new(workload).k(k).goal(goal)) {
            Ok(sel) => sel,
            Err(e) => {
                eprintln!("cannot recommend: {e}");
                std::process::exit(1);
            }
        };
        let best = sel
            .candidates
            .iter()
            .find(|c| c.partitioner == sel.best)
            .expect("winner in candidates");
        println!(
            "\n[{}] recommended partitioner: {}  (predicted partitioning {:.4}s + processing {:.4}s)",
            goal.name(),
            sel.best.name(),
            best.partitioning_secs,
            best.processing_secs,
        );
    }
}
