//! Select a partitioner for *your own* graph.
//!
//! Reads an edge list — whitespace-separated text (SNAP/KONECT style,
//! `#`/`%` comments allowed) or a `.bel` binary file, told apart by the
//! extension exactly as the `ease` CLI does — trains EASE, and prints the
//! recommended partitioner for a chosen workload and partition count — the
//! deployment workflow of the paper's Fig. 3 pipeline.
//!
//! ```sh
//! cargo run --release --example select_for_file -- my_graph.txt pr 16
//! # args: <edge-list path> [workload: pr|cc|sssp|kcores|lp|synthetic-low|synthetic-high] [k]
//! ```
//!
//! Without arguments it demos on a generated graph. An unknown workload or
//! a `k` that is not a number is a usage error (exit 2), an unreadable
//! graph file an error (exit 1).

use ease_repro::graph::{open_path, GraphSource};
use ease_repro::graphgen::Scale;
use ease_repro::procsim::Workload;
use ease_repro::{EaseService, EaseServiceBuilder, OptGoal, PreparedGraph};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // the workload catalogue the CLI and the daemon answer for
    let name = args.get(2).map_or("pr", String::as_str);
    let Some(workload) = Workload::from_name(name) else {
        eprintln!(
            "unknown workload `{name}` (pr | cc | sssp | kcores | lp | synthetic-low | \
             synthetic-high)"
        );
        return ExitCode::from(2);
    };
    let k: usize = match args.get(3).map(|s| s.parse()) {
        None => 8,
        Some(Ok(k)) => k,
        Some(Err(_)) => {
            eprintln!("k `{}` is not a number", args[3]);
            return ExitCode::from(2);
        }
    };
    let source: Box<dyn GraphSource> = match args.get(1) {
        Some(path) => {
            println!("reading edge list from {path} ...");
            match open_path(Path::new(path)) {
                Ok(source) => source,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            println!("no file given — demoing on a generated social graph");
            Box::new(ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, 7).graph)
        }
    };
    let graph = PreparedGraph::of_source(source.as_ref());

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

    let props = system.cached_properties_prepared(&graph);
    println!(
        "properties: mean degree {:.2}, density {:.6}, clustering {:.4}",
        props.mean_degree,
        props.density,
        props.avg_lcc.unwrap_or(0.0)
    );
    for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
        let sel = match system.ease().try_select(&props, workload, k, goal) {
            Ok(sel) => sel,
            Err(e) => {
                eprintln!("cannot recommend: {e}");
                return ExitCode::FAILURE;
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
    ExitCode::SUCCESS
}
