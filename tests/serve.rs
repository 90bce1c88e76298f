//! Integration suite for `ease serve` — the multi-client recommendation
//! daemon (PR 5 tentpole).
//!
//! The acceptance bar: ≥ 8 concurrent clients hammering an in-process
//! server get answers *bit-identical* to the one-shot CLI, for both text
//! and mmap'd `.bel` inputs; the warm property cache stays coherent under
//! that concurrency; errors (missing files, malformed graphs, unknown
//! workloads, protocol garbage) are routed back to the offending client
//! without ever killing the daemon; and shutdown drains gracefully.
//!
//! The trained service + graph fixtures are built once per test binary
//! (`OnceLock`) — every test then serves on its own socket.
#![cfg(unix)]

use ease_repro::core::profiling::TimingMode;
use ease_repro::graph::bel;
use ease_repro::graph::io::TextEdgeListWriter;
use ease_repro::graph::open_path;
use ease_repro::graphgen::realworld::socfb_analogue;
use ease_repro::graphgen::Scale;
use ease_repro::procsim::Workload;
use ease_repro::serve::{self, Request, Response, ServeConfig};
use ease_repro::{EaseError, EaseService, EaseServiceBuilder, OptGoal, ServeError};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use ease_repro::partition::PartitionerId;

struct Fixtures {
    dir: PathBuf,
    model: PathBuf,
    /// The same graph content in both ingestion formats.
    txt: PathBuf,
    bel: PathBuf,
    /// A second, different graph (distinct fingerprint).
    other_txt: PathBuf,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        // fixed name, wiped on entry: each run cleans up the previous
        // run's fixtures (tests have no teardown hook for the OnceLock)
        let dir = std::env::temp_dir().join("ease_serve_suite");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let write_txt = |path: &Path, g: &ease_repro::graph::Graph| {
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
        let other = socfb_analogue(Scale::Tiny, 8).graph;
        let other_txt = dir.join("other.txt");
        write_txt(&other_txt, &other);
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

/// Start an in-process daemon on a fresh socket, exactly as `ease serve`
/// does: load the persisted model, share it behind an `Arc`.
fn start_server(tag: &str, workers: usize) -> (serve::ServerHandle, PathBuf) {
    let fx = fixtures();
    let socket = fx.dir.join(format!("{tag}.sock"));
    let service = Arc::new(EaseService::load(&fx.model).expect("load fixture model"));
    let handle =
        serve::serve(service, ServeConfig::at(&socket).workers(workers)).expect("bind daemon");
    (handle, socket)
}

/// What a one-shot `ease recommend` process answers: fresh service load,
/// fresh graph open, shared renderer. The CLI binary itself is pinned to
/// this exact text by `render_matches_the_real_one_shot_cli_binary`.
fn cli_answer(graph: &Path, workload: &str, k: Option<usize>) -> String {
    let fx = fixtures();
    let service = EaseService::load(&fx.model).expect("load model");
    let source = open_path(graph).expect("open graph");
    let display = graph.to_str().expect("utf8 path");
    let wl = Workload::from_name(workload).expect("known workload");
    let k = k.unwrap_or(service.meta().default_k);
    serve::render_recommendation(
        &service,
        display,
        source.as_ref(),
        wl,
        k,
        OptGoal::EndToEnd,
        serve::DEFAULT_TOP,
        None,
    )
    .expect("render one-shot answer")
}

fn recommend_request(graph: &Path, workload: &str, k: Option<usize>) -> Request {
    Request::Recommend {
        graph: graph.to_str().expect("utf8 path").to_string(),
        workload: workload.to_string(),
        k,
        goal: OptGoal::EndToEnd,
        top: serve::DEFAULT_TOP,
        cwd: None,
    }
}

/// A forked child holds a copy of every descriptor this process has open
/// until it execs — including a live daemon's flock'd `<socket>.lock`. A
/// test that releases a lock and re-binds the same path must not overlap
/// a sibling test's fork (measured: 1 run in 60 lost the re-bind to
/// "another daemon is already serving this socket"), so every spawn holds
/// the read side and `shutdown_is_graceful_and_sockets_are_exclusive`
/// the write side.
static SPAWN_GATE: RwLock<()> = RwLock::new(());

fn ease_output(cli: &mut Command) -> std::process::Output {
    let _no_rebind_in_flight = SPAWN_GATE.read().unwrap_or_else(PoisonError::into_inner);
    cli.output().expect("run ease CLI")
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = ease_output(Command::new(env!("CARGO_BIN_EXE_ease")).args(args));
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}

#[test]
fn render_matches_the_real_one_shot_cli_binary() {
    let fx = fixtures();
    for graph in [&fx.txt, &fx.bel] {
        let expected = cli_answer(graph, "pr", None);
        let (stdout, stderr, ok) = run_cli(&[
            "recommend",
            "--model",
            fx.model.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--workload",
            "pr",
            "--goal",
            "e2e",
        ]);
        assert!(ok, "one-shot CLI failed: {stderr}");
        assert_eq!(stdout, expected, "render_recommendation must be the CLI's exact output");
    }
}

#[test]
fn concurrent_clients_get_bit_identical_answers_for_text_and_bel() {
    let fx = fixtures();
    let (handle, socket) = start_server("concurrent", 4);
    // the acceptance bar is >= 8 concurrent clients; run 12 mixing formats,
    // workloads and explicit k against the same warm daemon
    let expected_txt = cli_answer(&fx.txt, "pr", None);
    let expected_bel = cli_answer(&fx.bel, "pr", None);
    let expected_txt_cc_k2 = cli_answer(&fx.txt, "cc", Some(2));
    const CLIENTS: usize = 12;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let socket = &socket;
            let (request, expected) = match c % 3 {
                0 => (recommend_request(&fx.txt, "pr", None), &expected_txt),
                1 => (recommend_request(&fx.bel, "pr", None), &expected_bel),
                _ => (recommend_request(&fx.txt, "cc", Some(2)), &expected_txt_cc_k2),
            };
            scope.spawn(move || {
                let response = serve::call(socket, &request).expect("daemon call");
                let answer = serve::expect_answer(response).expect("answer");
                assert_eq!(&answer, expected, "client {c}: daemon answer must be bit-identical");
            });
        }
    });
    // same content, two backends -> one fingerprint: the .bel queries hit
    // the entry the .txt queries populated (or vice versa)
    let stats = match serve::call(&socket, &Request::CacheStats).expect("stats call") {
        Response::CacheStats(stats) => stats,
        other => panic!("expected CacheStats, got {other:?}"),
    };
    assert_eq!(stats.hits + stats.misses, CLIENTS as u64);
    assert_eq!(stats.len, 1, "txt and bel of the same graph share one fingerprint");
    assert!(stats.misses >= 1);
    handle.trigger_shutdown();
    let summary = handle.join().expect("clean join");
    assert_eq!(summary.requests_served, CLIENTS as u64 + 1);
}

#[test]
fn daemon_proxy_cli_is_bit_identical_to_one_shot_cli() {
    let fx = fixtures();
    let (handle, socket) = start_server("proxy", 2);
    let endpoint = format!("unix:{}", socket.display());
    for graph in [&fx.txt, &fx.bel] {
        let graph_str = graph.to_str().unwrap();
        let one_shot_args =
            ["recommend", "--model", fx.model.to_str().unwrap(), "--graph", graph_str];
        let (direct, stderr, ok) = run_cli(&one_shot_args);
        assert!(ok, "one-shot failed: {stderr}");
        // `ease recommend --endpoint unix:<socket>`: no --model needed, and
        // a repeat answers from the warm cache with the same bytes
        for pass in ["cold", "warm"] {
            let (proxied, stderr, ok) =
                run_cli(&["recommend", "--endpoint", &endpoint, "--graph", graph_str]);
            assert!(ok, "{pass} proxy failed: {stderr}");
            assert_eq!(proxied, direct, "{pass} --endpoint answer must match the one-shot CLI");
        }
    }
    // features: every line except the trailing wall-clock timing line is
    // deterministic, so strip it on both sides (as CI does)
    let strip_timing = |s: &str| {
        let mut lines: Vec<&str> = s.lines().collect();
        assert!(lines.last().is_some_and(|l| l.starts_with("extraction:")), "timing line last");
        lines.pop();
        lines.join("\n")
    };
    let graph_str = fx.bel.to_str().unwrap();
    let (direct, _, ok) = run_cli(&["features", graph_str, "--tier", "advanced"]);
    assert!(ok);
    let (proxied, stderr, ok) =
        run_cli(&["features", graph_str, "--tier", "advanced", "--endpoint", &endpoint]);
    assert!(ok, "features proxy failed: {stderr}");
    assert_eq!(strip_timing(&proxied), strip_timing(&direct));
    // ping through the CLI client
    let (pong, _, ok) = run_cli(&["client", "ping", "--endpoint", &endpoint]);
    assert!(ok);
    assert!(pong.contains("pong"), "{pong}");
    // graceful shutdown through the CLI client: zero exit, socket gone
    let (_, _, ok) = run_cli(&["client", "shutdown", "--endpoint", &endpoint]);
    assert!(ok);
    let summary = handle.join().expect("clean join");
    assert!(summary.requests_served >= 7);
    assert!(!socket.exists(), "shutdown must remove the socket file");
}

#[test]
fn retired_endpoint_flags_are_usage_errors_naming_endpoint() {
    // no daemon needed: every spelling must fail before any socket is
    // touched, with exit 2 and a usage line steering to the one spelling
    let graph = fixtures().txt.to_str().unwrap();
    for (args, needle) in [
        (&["recommend", "--daemon", "x", "--graph", graph][..], "--endpoint"),
        (&["recommend", "--daemon-tcp", "x", "--graph", graph], "--endpoint"),
        (&["client", "ping", "--socket", "x"], "--endpoint"),
        (&["client", "ping", "--tcp", "x"], "--endpoint"),
        // a query has one CLI form; `client` sends only what has no local answer
        (
            &["client", "recommend", "--endpoint", "unix:/x", "--graph", graph],
            "`ease recommend --endpoint <ep>`",
        ),
        (
            &["client", "features", graph, "--endpoint", "unix:/x"],
            "`ease features --endpoint <ep>`",
        ),
        // endpoints need their scheme: a bare host:port is not TCP
        (&["recommend", "--endpoint", "127.0.0.1:1", "--graph", graph], "--endpoint `127.0.0.1:1`"),
        (&["route", "--backend", "127.0.0.1:1", "--socket", "x"], "--backend `127.0.0.1:1`"),
    ] {
        let out = ease_output(Command::new(env!("CARGO_BIN_EXE_ease")).args(args));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage error") && stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not answer");
    }
}

#[test]
fn unknown_flags_are_usage_errors_and_help_exits_zero() {
    // a typo'd flag used to be dropped on the floor: `--modle m` reported
    // "--model is required", `train --sede 7` trained with the default
    // seed. Every subcommand now names the flag and what it accepts.
    let fx = fixtures();
    let graph = fx.txt.to_str().unwrap();
    let untouched = fx.dir.join("never_trained.model");
    for (args, sub, typo, accepted) in [
        (&["recommend", "--modle", "m", "--graph", graph][..], "recommend", "--modle", "--model"),
        (
            &["train", "--out", untouched.to_str().unwrap(), "--sede", "7"],
            "train",
            "--sede",
            "--seed",
        ),
        (&["features", graph, "--teir", "basic"], "features", "--teir", "--tier"),
        (&["client", "ping", "--endpiont", "unix:/x"], "client", "--endpiont", "--endpoint"),
        // `route` listens on --tcp, as `serve` does; its tuning flags are gone
        (&["route", "--listen", "127.0.0.1:0"], "route", "--listen", "--tcp"),
        (&["route", "--forward-shutdown"], "route", "--forward-shutdown", "--tcp"),
        (&["route", "--no-forward-shutdown"], "route", "--no-forward-shutdown", "--tcp"),
        (&["route", "--health-interval-ms", "5"], "route", "--health-interval-ms", "--tcp"),
        (&["convert", "--in", graph, "--output", "x"], "convert", "--output", "--out"),
    ] {
        let out = ease_output(Command::new(env!("CARGO_BIN_EXE_ease")).args(args));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("usage error: unknown flag {typo}"))
                && stderr.contains(&format!("for ease {sub} (accepted: "))
                && stderr.contains(accepted),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not answer");
    }
    assert!(!untouched.exists(), "a rejected train must not write a model");
    // `--help` after a subcommand is the usage text, not "--help needs a value"
    for args in [&["train", "--help"][..], &["client", "ping", "--help"], &["features", "--help"]] {
        let out = ease_output(Command::new(env!("CARGO_BIN_EXE_ease")).args(args));
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("TRAIN OPTIONS:"), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn help_lists_exactly_the_flags_each_subcommand_accepts() {
    // for every subcommand `ease --help` lists, the `--flags` of its
    // OPTIONS section are the `accepted:` list of its unknown-flag error
    let (help, _, ok) = run_cli(&["--help"]);
    assert!(ok);
    let section = |header: &str| -> Vec<String> {
        let (_, rest) = help.split_once(header).unwrap_or_else(|| panic!("no `{header}`: {help}"));
        rest.lines().take_while(|line| !line.is_empty()).map(String::from).collect()
    };
    let subcommands: Vec<String> = section("\nSUBCOMMANDS:\n")
        .iter()
        .filter_map(|line| line.split_whitespace().next().map(String::from))
        .collect();
    assert_eq!(subcommands.len(), 9, "{help}");
    for sub in &subcommands {
        // option rows start in column 4; help continuations sit deeper
        let listed: Vec<String> = section(&format!("\n{} OPTIONS:\n", sub.to_uppercase()))
            .iter()
            .filter_map(|line| line.strip_prefix("    --"))
            .filter_map(|row| row.split_whitespace().next().map(|name| format!("--{name}")))
            .collect();
        let out = ease_output(Command::new(env!("CARGO_BIN_EXE_ease")).args([sub, "--no-such"]));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub}: {stderr}");
        let accepted = stderr
            .split_once("(accepted: ")
            .and_then(|(_, rest)| rest.split_once(')'))
            .map_or_else(|| panic!("{sub}: no accepted list in {stderr}"), |(list, _)| list);
        assert_eq!(accepted.split(", ").collect::<Vec<_>>(), listed, "ease {sub}");
    }
}

#[test]
fn cache_stats_over_the_socket_stay_coherent_under_concurrency() {
    let fx = fixtures();
    let (handle, socket) = start_server("stats", 4);
    const CLIENTS: usize = 8;
    const REQS_PER_CLIENT: usize = 4;
    let expected: Vec<String> =
        [&fx.txt, &fx.other_txt].iter().map(|g| cli_answer(g, "pr", None)).collect();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let socket = &socket;
            let expected = &expected;
            scope.spawn(move || {
                for r in 0..REQS_PER_CLIENT {
                    let which = (c + r) % 2;
                    let graph = if which == 0 { &fixtures().txt } else { &fixtures().other_txt };
                    let response =
                        serve::call(socket, &recommend_request(graph, "pr", None)).expect("call");
                    let answer = serve::expect_answer(response).expect("answer");
                    assert_eq!(&answer, &expected[which]);
                }
            });
        }
    });
    let total = (CLIENTS * REQS_PER_CLIENT) as u64;
    let stats = match serve::call(&socket, &Request::CacheStats).expect("stats") {
        Response::CacheStats(stats) => stats,
        other => panic!("expected CacheStats, got {other:?}"),
    };
    // exactly one lookup per recommend; concurrent first queries may race
    // to a redundant extraction, so misses is bounded, not exact
    assert_eq!(stats.hits + stats.misses, total, "one cache lookup per recommend");
    assert!(stats.misses >= 2, "two distinct graphs must each miss at least once");
    assert!(stats.misses <= 2 * CLIENTS as u64);
    assert_eq!(stats.len, 2, "one resident entry per distinct fingerprint");
    assert_eq!(stats.evictions, 0, "far below capacity");
    assert_eq!(stats.requests_served, total + 1, "the stats request counts itself");
    handle.trigger_shutdown();
    handle.join().expect("clean join");
}

#[test]
fn request_failures_never_kill_the_daemon() {
    let fx = fixtures();
    let (handle, socket) = start_server("errors", 2);
    let expect_error = |request: &Request, needle: &str| match serve::call(&socket, request)
        .expect("transport must survive")
    {
        Response::Error(msg) => {
            assert!(msg.contains(needle), "error `{msg}` should mention `{needle}`")
        }
        other => panic!("expected an error for {request:?}, got {other:?}"),
    };
    // missing file
    let missing = fx.dir.join("no_such.txt");
    expect_error(&recommend_request(&missing, "pr", None), "I/O error");
    // unknown workload (defensive server-side validation; the CLI rejects
    // it client-side before connecting)
    expect_error(&recommend_request(&fx.txt, "nope", None), "unknown workload");
    // workload the model was never trained for -> typed, not fatal
    expect_error(&recommend_request(&fx.txt, "kcores", None), "no model trained");
    // malformed text graph reaches the daemon as a parse error with a line
    let bad_txt = fx.dir.join("bad.txt");
    std::fs::write(&bad_txt, "0 1\nbroken token\n").unwrap();
    expect_error(&recommend_request(&bad_txt, "pr", None), "malformed edge-list line 2");
    // corrupt .bel: the mmap validation rejects it at open
    let bad_bel = fx.dir.join("bad.bel");
    std::fs::write(&bad_bel, b"NOTABEL!").unwrap();
    expect_error(
        &Request::Features {
            graph: bad_bel.to_str().unwrap().into(),
            tier: ease_repro::graph::PropertyTier::Advanced,
            cwd: None,
        },
        "malformed binary edge list",
    );
    // raw protocol garbage: a framed junk payload gets an Error response
    // under its own id...
    {
        use std::io::{Read as _, Write as _};
        use std::os::unix::net::UnixStream;
        let expect_protocol_error = |stream: &mut UnixStream, want_id: u64, needle: &str| {
            let (id, payload) = serve::read_frame_v2(stream).expect("framed error reply");
            assert_eq!(id, want_id);
            match Response::decode_binary(&payload).unwrap() {
                Response::Error(msg) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected protocol error, got {other:?}"),
            }
        };
        let mut stream = UnixStream::connect(&socket).unwrap();
        serve::write_frame_v2(&mut stream, 9, &[0xFF, 0xFF, 0xFF]).unwrap();
        expect_protocol_error(&mut stream, 9, "protocol");
        // ...a peer opening with the retired one-request magic gets one
        // error frame naming what the listener accepts, then EOF...
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(&[0xEA, 0x5E]).unwrap();
        expect_protocol_error(&mut stream, 0, "bad frame magic ea5e (expected ea5f or an HTTP");
        assert_eq!(stream.read(&mut [0u8; 1]).expect("server closes"), 0, "expected EOF");
        // ...and a non-protocol byte blast is answered or dropped, but
        // never crashes the pool
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).ok();
    }
    // after all that abuse, a well-formed query still answers correctly
    let expected = cli_answer(&fx.txt, "pr", None);
    let response = serve::call(&socket, &recommend_request(&fx.txt, "pr", None)).expect("call");
    assert_eq!(serve::expect_answer(response).expect("answer"), expected);
    handle.trigger_shutdown();
    let summary = handle.join().expect("no worker may have panicked");
    assert!(summary.requests_served >= 6);
}

#[test]
fn relative_graph_paths_resolve_against_the_client_cwd() {
    let fx = fixtures();
    let (handle, socket) = start_server("relpath", 2);
    // client runs in the fixture dir and names the graph relatively; the
    // daemon (whose cwd is the cargo test cwd, where `graph.txt` does not
    // exist) must still answer for the client's file — and display the
    // path exactly as the client wrote it
    let mut cli = Command::new(env!("CARGO_BIN_EXE_ease"));
    cli.current_dir(&fx.dir).args([
        "recommend",
        "--endpoint",
        &format!("unix:{}", socket.display()),
        "--graph",
        "graph.txt",
    ]);
    let out = ease_output(&mut cli);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let answer = String::from_utf8(out.stdout).unwrap();
    assert!(answer.starts_with("graph graph.txt:"), "displays the client's spelling: {answer}");
    // identical ranking to the absolute-path answer (only line 1 differs)
    let absolute = cli_answer(&fx.txt, "pr", None);
    assert_eq!(
        answer.lines().skip(1).collect::<Vec<_>>(),
        absolute.lines().skip(1).collect::<Vec<_>>(),
    );
    handle.trigger_shutdown();
    handle.join().expect("clean join");
}

#[test]
fn stalled_clients_cannot_block_graceful_shutdown() {
    use std::os::unix::net::UnixStream;
    let fx = fixtures();
    let socket = fx.dir.join("stalled.sock");
    let service = Arc::new(EaseService::load(&fx.model).expect("load fixture model"));
    let config =
        ServeConfig::at(&socket).workers(2).io_timeout(Some(std::time::Duration::from_millis(200)));
    let handle = serve::serve(service, config).expect("bind daemon");
    // a client that connects and never sends a complete frame (crashed
    // peer, port probe) occupies a worker until the I/O timeout frees it
    let stalled = UnixStream::connect(&socket).expect("connect stalled client");
    // the daemon still answers on the remaining worker, and shutdown drains
    match serve::call(&socket, &Request::Ping).expect("ping around the stalled peer") {
        Response::Pong { .. } => {}
        other => panic!("expected Pong, got {other:?}"),
    }
    handle.trigger_shutdown();
    let start = std::time::Instant::now();
    handle.join().expect("join must not hang on the stalled connection");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?} despite the 200ms io timeout",
        start.elapsed()
    );
    drop(stalled);
}

#[test]
fn shutdown_is_graceful_and_sockets_are_exclusive() {
    let fx = fixtures();
    let (handle, socket) = start_server("lifecycle", 2);
    // a second daemon on a *live* socket is a typed bind error
    let service = Arc::new(EaseService::load(&fx.model).unwrap());
    match serve::serve(Arc::clone(&service), ServeConfig::at(&socket).workers(2)) {
        Err(EaseError::Serve(ServeError::Bind { socket: s, .. })) => {
            assert_eq!(s, socket.display().to_string())
        }
        Err(other) => panic!("expected a Bind error, got {other:?}"),
        Ok(_) => panic!("expected a Bind error, got a second daemon"),
    }
    // client-initiated shutdown acknowledges, drains and removes the socket
    let no_forks = SPAWN_GATE.write().unwrap_or_else(PoisonError::into_inner);
    match serve::call(&socket, &Request::Shutdown).expect("shutdown call") {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    let summary = handle.join().expect("clean join");
    assert_eq!(summary.requests_served, 1);
    assert!(!socket.exists(), "socket file removed on shutdown");
    // further calls fail with a typed I/O error (nothing is listening)
    assert!(matches!(
        serve::call(&socket, &Request::Ping).unwrap_err(),
        EaseError::Io(_) | EaseError::Serve(_)
    ));
    // a *stale* socket file (dead daemon / leftover path) is replaced
    std::fs::write(&socket, b"stale").unwrap();
    let (handle2, _) = {
        let handle = serve::serve(service, ServeConfig::at(&socket).workers(2))
            .expect("stale socket file must be reclaimed");
        (handle, ())
    };
    drop(no_forks);
    match serve::call(&socket, &Request::Ping).expect("ping after reclaim") {
        Response::Pong { version } => assert_eq!(version, serve::PROTOCOL_VERSION),
        other => panic!("expected Pong, got {other:?}"),
    }
    handle2.trigger_shutdown();
    handle2.join().expect("clean join");
}
