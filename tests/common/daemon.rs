//! The serving fixture: one trained tiny service and its graphs, built once
//! per test binary (`OnceLock`), plus the one-shot reference every served
//! answer is diffed against and the CLI runner.

use ease_repro::core::profiling::TimingMode;
use ease_repro::graph::io::TextEdgeListWriter;
use ease_repro::graph::{bel, open_path, Graph};
use ease_repro::graphgen::realworld::socfb_analogue;
use ease_repro::graphgen::Scale;
use ease_repro::partition::PartitionerId;
use ease_repro::procsim::Workload;
use ease_repro::serve::{self, Request, Response, ServeConfig, ServeStats, ServerHandle};
use ease_repro::{EaseService, EaseServiceBuilder, OptGoal};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

pub struct Fixtures {
    /// `ease_<suite>_suite` under the temp dir: one per test binary.
    pub dir: PathBuf,
    pub model: PathBuf,
    /// The same graph content in both ingestion formats.
    pub txt: PathBuf,
    pub bel: PathBuf,
    /// A second, different graph (distinct fingerprint).
    pub other_txt: PathBuf,
}

pub fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        // fixed name, wiped on entry: each run cleans up the previous
        // run's fixtures (tests have no teardown hook for the OnceLock)
        let dir = std::env::temp_dir().join(format!("ease_{}_suite", env!("CARGO_CRATE_NAME")));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let write_txt = |path: &Path, g: &Graph| {
            let mut w = TextEdgeListWriter::create(path).expect("create txt");
            for &e in g.edges() {
                w.push(e).expect("write edge");
            }
            w.finish_with_vertices(g.num_vertices()).expect("finish txt");
        };
        let g = socfb_analogue(Scale::Tiny, 7).graph;
        let txt = dir.join("graph.txt");
        let bel_path = dir.join("graph.bel");
        write_txt(&txt, &g);
        bel::write_bel(&g, &bel_path).expect("write bel");
        let other_txt = dir.join("other.txt");
        write_txt(&other_txt, &socfb_analogue(Scale::Tiny, 8).graph);
        let model = dir.join("ease.model");
        let service = EaseServiceBuilder::at_scale(Scale::Tiny)
            .quick_grid()
            .max_small_graphs(Some(6))
            .max_large_graphs(Some(4))
            .partition_counts(vec![2, 4])
            .partitioners(vec![PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne])
            .workloads(vec![Workload::PageRank { iterations: 10 }, Workload::ConnectedComponents])
            .folds(2)
            .timing(TimingMode::Deterministic)
            .train()
            .expect("train fixture service");
        service.save(&model).expect("save fixture model");
        Fixtures { dir, model, txt, bel: bel_path, other_txt }
    })
}

/// The fixture model, loaded fresh as `ease serve` loads it.
pub fn load_service() -> Arc<EaseService> {
    Arc::new(EaseService::load(&fixtures().model).expect("load fixture model"))
}

/// An in-process daemon serving the fixture model, exactly as `ease serve`
/// does with the flags `config` spells.
pub fn spawn_daemon(config: ServeConfig) -> ServerHandle {
    serve::serve(load_service(), config).expect("bind daemon")
}

/// What a one-shot `ease recommend` process answers: fresh service load,
/// fresh graph open, shared renderer. The CLI binary itself is pinned to
/// this exact text by `tests/serve.rs`'s
/// `render_matches_the_real_one_shot_cli_binary`.
pub fn cli_answer(graph: &Path, workload: &str, k: Option<usize>) -> String {
    let service = load_service();
    let source = open_path(graph).expect("open graph");
    let wl = Workload::from_name(workload).expect("known workload");
    serve::render_recommendation(
        &service,
        graph.to_str().expect("utf8 path"),
        source.as_ref(),
        wl,
        k.unwrap_or(service.meta().default_k),
        OptGoal::EndToEnd,
        serve::DEFAULT_TOP,
        None,
    )
    .expect("render one-shot answer")
}

pub fn recommend_request(graph: &Path, workload: &str, k: Option<usize>) -> Request {
    Request::Recommend {
        graph: graph.to_str().expect("utf8 path").to_string(),
        workload: workload.to_string(),
        k,
        goal: OptGoal::EndToEnd,
        top: serve::DEFAULT_TOP,
        cwd: None,
    }
}

pub fn stats_of(response: Response) -> ServeStats {
    match response {
        Response::CacheStats(stats) => stats,
        other => panic!("expected CacheStats, got {other:?}"),
    }
}

/// A features answer without its trailing wall-clock timing line; every
/// line above it is deterministic (the CI diff idiom).
pub fn strip_timing(answer: &str) -> String {
    let mut lines: Vec<&str> = answer.lines().collect();
    assert!(lines.last().is_some_and(|l| l.starts_with("extraction:")), "timing line last");
    lines.pop();
    lines.join("\n")
}

/// A forked child holds a copy of every descriptor this process has open
/// until it execs — including a live daemon's flock'd `<socket>.lock`. A
/// test that releases a lock and re-binds the same path must not overlap
/// a sibling test's fork (measured: 1 run in 60 lost the re-bind to
/// "another daemon is already serving this socket"), so every spawn holds
/// the read side and such a test the write side.
pub static SPAWN_GATE: RwLock<()> = RwLock::new(());

pub fn ease_output(cli: &mut Command) -> Output {
    let _no_rebind_in_flight = SPAWN_GATE.read().unwrap_or_else(PoisonError::into_inner);
    cli.output().expect("run ease CLI")
}

/// Run the `ease` binary: (stdout, stderr, exit success).
pub fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = ease_output(Command::new(env!("CARGO_BIN_EXE_ease")).args(args));
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}
