//! Inputs every serving and cold workload shares: generated graph files,
//! the trained model, and the one query they all ask.

use ease::profiling::TimingMode;
use ease::selector::OptGoal;
use ease::serve::{self, Request};
use ease::{EaseService, EaseServiceBuilder};
use ease_graph::bel::BelWriter;
use ease_graph::open_path;
use ease_graphgen::erdos_renyi::ErdosRenyi;
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_graphgen::Scale;
use ease_procsim::Workload;
use std::path::Path;

/// Failures of set-up and of single operations, as the text a reader sees.
pub type Res<T> = Result<T, String>;

/// `map_err` adapter that prefixes what was being attempted.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The workload name every query asks about (`pr` = PageRank, 10 rounds).
pub const QUERY_WORKLOAD: &str = "pr";
pub const QUERY_GOAL: OptGoal = OptGoal::EndToEnd;

pub fn query_workload() -> Workload {
    Workload::from_name(QUERY_WORKLOAD).expect("`pr` is a catalogued workload")
}

/// The model is part of the program under test, not of the workload: its
/// training seed is fixed, so `--seed` changes graphs and request order
/// only.
const MODEL_SEED: u64 = 42;

/// The training configuration every workload uses: tiny scale, quick grid,
/// analytical partitioning times (a pure function of the config).
pub fn tiny_builder(seed: u64) -> EaseServiceBuilder {
    EaseServiceBuilder::at_scale(Scale::Tiny)
        .quick_grid()
        .timing(TimingMode::Deterministic)
        .seed(seed)
}

/// Train the model and persist it at `path`. Saved before any query, so
/// the file carries an empty property cache.
pub fn train_and_save_model(path: &Path) -> Res<()> {
    let service = tiny_builder(MODEL_SEED).train().map_err(ctx("train model"))?;
    service.save(path).map_err(ctx("save model"))
}

/// Stream an R-MAT graph (`RMAT_COMBOS[combo]`) into a `.bel` file.
pub fn write_rmat_bel(path: &Path, combo: usize, n: usize, m: usize, seed: u64) -> Res<()> {
    let mut bel = BelWriter::create(path).map_err(ctx("create .bel"))?;
    let mut failure = None;
    Rmat::new(RMAT_COMBOS[combo % RMAT_COMBOS.len()], n, m, seed).generate_into(&mut |e| {
        if failure.is_none() {
            failure = bel.push(e).err();
        }
    });
    match failure {
        Some(e) => Err(format!("write .bel: {e}")),
        None => bel.finish_with_vertices(n).map_err(ctx("finish .bel")),
    }
}

/// Write a sparse G(n, m) graph as a text edge list.
pub fn write_gnm_text(path: &Path, n: usize, m: usize, seed: u64) -> Res<()> {
    let graph = ErdosRenyi::new(n, m, seed).generate();
    ease_graph::io::write_edge_list(&graph, path).map_err(ctx("write edge list"))
}

/// The recommend request for the graph file at `graph`, spelled as the CLI
/// spells it (service-default `k`, default `top`).
pub fn recommend_request(graph: &str) -> Request {
    Request::Recommend {
        graph: graph.to_string(),
        workload: QUERY_WORKLOAD.to_string(),
        k: None,
        goal: QUERY_GOAL,
        top: serve::DEFAULT_TOP,
        cwd: None,
    }
}

/// The answer every transport must reproduce bit for bit: what a fresh
/// one-shot `ease recommend <graph>` renders, computed in-process.
pub fn reference_answer(service: &EaseService, graph: &str) -> Res<String> {
    let source = open_path(Path::new(graph)).map_err(ctx("open graph"))?;
    serve::render_recommendation(
        service,
        graph,
        source.as_ref(),
        query_workload(),
        service.meta().default_k,
        QUERY_GOAL,
        serve::DEFAULT_TOP,
        None,
    )
    .map_err(ctx("render reference answer"))
}

/// A path as the requests spell it. Run directories are ASCII by
/// construction; anything else is a set-up failure, not a panic.
pub fn path_str(path: &Path) -> Res<&str> {
    path.to_str().ok_or_else(|| format!("non-UTF-8 path {}", path.display()))
}
