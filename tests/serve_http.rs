//! Integration suite for the HTTP/JSON facade (PR 10 tentpole).
//!
//! The acceptance bar: raw-socket HTTP requests against the daemon's
//! sniffing listener get answers whose JSON-envelope payload is
//! *bit-identical* to the one-shot CLI, for text and `.bel` inputs,
//! through a single daemon and through a 2-backend router fleet; the
//! JSON codec round-trips arbitrary values and protocol envelopes
//! (property tests); and malformed or oversized HTTP never kills a
//! worker — the same daemon keeps answering binary v2 afterwards.

mod common;

use common::daemon::{cli_answer, fixtures, run_cli, spawn_daemon, strip_timing};
use ease_repro::graph::{open_path, PropertyTier};
use ease_repro::serve::json::Value;
use ease_repro::serve::{
    self, Endpoint, PipelinedClient, Request, Response, RouterConfig, ServeConfig, ServeStats,
};
use ease_repro::OptGoal;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;

// ---------------------------------------------------------------------
// Daemons and raw-socket helpers
// ---------------------------------------------------------------------

/// An in-process daemon on an ephemeral TCP port — the listener every
/// HTTP test speaks to (the same one binary v2 clients use).
fn start_daemon(workers: usize) -> (serve::ServerHandle, String) {
    let handle = spawn_daemon(ServeConfig::tcp_at("127.0.0.1:0").workers(workers));
    let addr = handle.tcp_addr().expect("tcp listener bound").to_string();
    (handle, addr)
}

/// A 2-backend fleet behind a router, all on ephemeral TCP ports.
fn start_fleet(tag: &str) -> (Vec<serve::ServerHandle>, serve::ServerHandle, String) {
    let (backend_a, addr_a) = start_daemon(2);
    let (backend_b, addr_b) = start_daemon(2);
    let config = RouterConfig::new(
        ServeConfig::tcp_at("127.0.0.1:0").workers(2),
        vec![Endpoint::tcp(addr_a), Endpoint::tcp(addr_b)],
    )
    .health_interval(std::time::Duration::from_secs(60))
    .forward_shutdown(false);
    let router = serve::route(config).expect("bind router");
    let front = router.tcp_addr().unwrap_or_else(|| panic!("{tag}: router tcp bound")).to_string();
    (vec![backend_a, backend_b], router, front)
}

/// One raw-socket HTTP exchange with `Connection: close`: exactly what
/// `curl` puts on the wire, minus nothing. Returns (status line, body).
fn http_get(addr: &str, target: &str) -> (String, String) {
    http_raw(addr, &format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"))
}

fn http_post(addr: &str, target: &str, body: &str) -> (String, String) {
    http_raw(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn http_raw(addr: &str, raw: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire).expect("read response");
    let text = String::from_utf8(wire).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

/// Read one keep-alive response off `stream`, leaving the next one
/// unread. Returns (status line, body).
fn read_response(stream: &mut TcpStream) -> (String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("head byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("content-length")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("body");
    (head.lines().next().expect("status").to_string(), String::from_utf8(body).expect("utf8"))
}

/// Pull a field out of a JSON envelope, panicking with the whole body on
/// any shape surprise — test failures should show what came back.
fn envelope_field<'a>(body: &'a Value, key: &str) -> &'a Value {
    match body {
        Value::Obj(_) => body.get(key).unwrap_or_else(|| panic!("no `{key}` in {body:?}")),
        other => panic!("expected a JSON object envelope, got {other:?}"),
    }
}

fn parse_envelope(body: &str, expected_type: &str) -> Value {
    let value = serve::json::parse(body).expect("valid JSON body");
    assert_eq!(
        envelope_field(&value, "type").as_str(),
        Some(expected_type),
        "envelope type in {body}"
    );
    value
}

// ---------------------------------------------------------------------
// Bit-identity through the daemon
// ---------------------------------------------------------------------

#[test]
fn http_answers_are_bit_identical_to_one_shot_for_text_and_bel() {
    let fx = fixtures();
    let (daemon, addr) = start_daemon(2);
    for graph in [&fx.txt, &fx.bel] {
        let expected = cli_answer(graph, "pr", None);
        let target = format!("/recommend?graph={}&workload=pr", graph.display());
        let (status, body) = http_get(&addr, &target);
        assert_eq!(status, "HTTP/1.1 200 OK");
        let envelope = parse_envelope(&body, "answer");
        assert_eq!(
            envelope_field(&envelope, "answer").as_str(),
            Some(expected.as_str()),
            "the JSON envelope carries the one-shot bytes verbatim"
        );
    }
    // GET /healthz answers the protocol ping
    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let pong = parse_envelope(&body, "pong");
    assert_eq!(envelope_field(&pong, "version").as_u64(), Some(2));
    daemon.trigger_shutdown();
    daemon.join().expect("daemon join");
}

#[test]
fn http_features_match_the_renderer_modulo_the_timing_line() {
    let fx = fixtures();
    let (daemon, addr) = start_daemon(2);
    let source = open_path(&fx.bel).expect("open graph");
    let reference = serve::render_features(
        fx.bel.to_str().expect("utf8 path"),
        source.as_ref(),
        PropertyTier::Basic,
        None,
    )
    .expect("render features");
    let (status, body) =
        http_get(&addr, &format!("/features?graph={}&tier=basic", fx.bel.display()));
    assert_eq!(status, "HTTP/1.1 200 OK");
    let envelope = parse_envelope(&body, "answer");
    let got = envelope_field(&envelope, "answer").as_str().expect("answer text");
    // the trailing line carries wall-clock extraction timings; everything
    // above it is deterministic and must match bit-for-bit
    assert_eq!(strip_timing(got), strip_timing(&reference));
    daemon.trigger_shutdown();
    daemon.join().expect("daemon join");
}

#[test]
fn the_cli_http_endpoint_matches_the_one_shot_cli_bit_for_bit() {
    let fx = fixtures();
    let (daemon, addr) = start_daemon(2);
    let model = fx.model.to_str().expect("utf8 model");
    for graph in [&fx.txt, &fx.bel] {
        let graph = graph.to_str().expect("utf8 graph");
        let (expected, _, ok) =
            run_cli(&["recommend", "--model", model, "--graph", graph, "--workload", "pr"]);
        assert!(ok, "one-shot CLI succeeds");
        let (got, _, ok) = run_cli(&[
            "recommend",
            "--endpoint",
            &format!("http:{addr}"),
            "--graph",
            graph,
            "--workload",
            "pr",
        ]);
        assert!(ok, "HTTP-proxied CLI succeeds");
        assert_eq!(got, expected, "`--endpoint http:` output is bit-identical to one-shot");
    }
    daemon.trigger_shutdown();
    daemon.join().expect("daemon join");
}

// ---------------------------------------------------------------------
// Bit-identity and stats through the router fleet
// ---------------------------------------------------------------------

#[test]
fn http_through_a_router_fleet_is_bit_identical_and_folds_stats() {
    let fx = fixtures();
    let (backends, router, front) = start_fleet("http-fleet");
    for graph in [&fx.txt, &fx.bel] {
        let expected = cli_answer(graph, "pr", None);
        let (status, body) =
            http_get(&front, &format!("/recommend?graph={}&workload=pr", graph.display()));
        assert_eq!(status, "HTTP/1.1 200 OK");
        let envelope = parse_envelope(&body, "answer");
        assert_eq!(envelope_field(&envelope, "answer").as_str(), Some(expected.as_str()));
    }
    // GET /stats through the router folds every healthy backend
    let (status, body) = http_get(&front, "/stats");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let stats = parse_envelope(&body, "stats");
    // the .txt and .bel twins share a content fingerprint: one analysis
    // per backend they hash to, so 1 miss (same backend, second query
    // hits the cache) or 2 (split across the fleet)
    let misses = envelope_field(&stats, "misses").as_u64().expect("misses");
    assert!((1..=2).contains(&misses), "fleet analyzed the graph: {stats:?}");
    assert_eq!(envelope_field(&stats, "memory_budget_remaining"), &Value::Null, "unbudgeted fleet");
    assert_eq!(envelope_field(&stats, "spilled_csr_builds").as_u64(), Some(0));
    router.trigger_shutdown();
    router.join().expect("router join");
    for handle in backends {
        handle.trigger_shutdown();
        handle.join().expect("backend join");
    }
}

// ---------------------------------------------------------------------
// Error statuses, keep-alive, and robustness
// ---------------------------------------------------------------------

#[test]
fn http_errors_carry_typed_statuses_and_json_bodies() {
    let fx = fixtures();
    let (daemon, addr) = start_daemon(2);
    // a graph path that does not open → 404 with the typed error body
    let (status, body) =
        http_get(&addr, &format!("/recommend?graph={}/nope.bel&workload=pr", fx.dir.display()));
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let error = parse_envelope(&body, "error");
    let message = envelope_field(&error, "error").as_str().expect("error text");
    assert!(message.contains("I/O error:"), "got: {message}");
    // an unknown workload → 400, same body shape
    let (status, body) =
        http_get(&addr, &format!("/recommend?graph={}&workload=nope", fx.txt.display()));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    parse_envelope(&body, "error");
    // a partition count no partitioner runs → 400
    let (status, body) =
        http_get(&addr, &format!("/recommend?graph={}&workload=pr&k=0", fx.txt.display()));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let error = parse_envelope(&body, "error");
    let message = envelope_field(&error, "error").as_str().expect("error text");
    assert!(message.contains("k must be in 2..=128, got 0"), "got: {message}");
    // an unknown endpoint → 404 without ever reaching the executor
    let (status, _) = http_get(&addr, "/api/v1/recommend");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    daemon.trigger_shutdown();
    daemon.join().expect("daemon join");
}

#[test]
fn http_keep_alive_pipelines_requests_on_one_connection() {
    let (daemon, addr) = start_daemon(2);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    for _ in 0..3 {
        stream
            .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
            .expect("send");
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, "HTTP/1.1 200 OK");
        parse_envelope(&body, "pong");
    }
    // the daemon counted every request on the shared connection
    let (_, body) = http_get(&addr, "/stats");
    let stats = parse_envelope(&body, "stats");
    assert_eq!(envelope_field(&stats, "requests_served").as_u64(), Some(4));
    daemon.trigger_shutdown();
    daemon.join().expect("daemon join");
}

#[test]
fn http_requests_coalesced_or_trickled_on_the_wire_are_answered_in_order() {
    let (daemon, addr) = start_daemon(2);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // two keep-alive GETs in one write: two responses, in request order
    let two = format!(
        "GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\nGET /stats HTTP/1.1\r\nHost: {addr}\r\n\r\n"
    );
    stream.write_all(two.as_bytes()).expect("send both");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, "HTTP/1.1 200 OK");
    parse_envelope(&body, "pong");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, "HTTP/1.1 200 OK");
    parse_envelope(&body, "stats");
    // a head sent a byte per write, on the same connection
    for byte in format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).expect("send one byte");
    }
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, "HTTP/1.1 200 OK");
    parse_envelope(&body, "pong");
    daemon.trigger_shutdown();
    daemon.join().expect("daemon join");
}

#[test]
fn malformed_and_oversized_http_never_kill_the_daemon() {
    let (daemon, addr) = start_daemon(2);
    // a malformed request line: answered 400, connection closed
    let (status, _) = http_raw(&addr, "GET gibberish\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    // an oversized head: rejected before buffering it all
    let (status, body) =
        http_raw(&addr, &format!("GET /x?pad={} HTTP/1.1\r\n\r\n", "a".repeat(10 << 10)));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("head exceeds"), "got: {body}");
    // a peer that vanishes mid-head: nothing to answer, nothing to kill
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"GET /healthz HTT").expect("partial head");
    }
    // the same daemon still answers HTTP...
    let (status, _) = http_get(&addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // ...and still answers binary v2 on the very same listener
    let mut v2 = PipelinedClient::connect(&Endpoint::tcp(addr)).expect("v2 connect");
    match v2.call(&Request::Ping).expect("v2 ping") {
        Response::Pong { version } => assert_eq!(version, 2),
        other => panic!("expected Pong, got {other:?}"),
    }
    daemon.trigger_shutdown();
    daemon.join().expect("daemon join");
}

#[test]
fn http_shutdown_drains_the_daemon() {
    let (daemon, addr) = start_daemon(2);
    let (status, body) = http_post(&addr, "/shutdown", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    parse_envelope(&body, "shutting-down");
    let summary = daemon.join().expect("daemon drains after HTTP shutdown");
    assert_eq!(summary.requests_served, 1);
}

// ---------------------------------------------------------------------
// JSON codec property tests
// ---------------------------------------------------------------------

/// Characters chosen to stress every escaping path: quotes, backslashes,
/// control bytes, multi-byte UTF-8, and astral-plane (surrogate pair)
/// code points.
const TRICKY_CHARS: &[char] =
    &['a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', 'é', '語', '\u{1F600}', ' '];

fn string_from(seed: u64) -> String {
    let len = (seed % 9) as usize;
    (0..len)
        .map(|i| {
            TRICKY_CHARS[(seed.rotate_left(7 * i as u32) % TRICKY_CHARS.len() as u64) as usize]
        })
        .collect()
}

/// Deterministically fold a seed stream into a JSON value tree, depth-
/// bounded so nesting never approaches the parser's cap.
fn value_from(seeds: &mut std::vec::IntoIter<u64>, depth: usize) -> Value {
    let Some(seed) = seeds.next() else { return Value::Null };
    match seed % if depth >= 3 { 5 } else { 7 } {
        0 => Value::Null,
        1 => Value::Bool(seed % 2 == 0),
        2 => Value::UInt(seed),
        // always fractional, so rendering never collapses it to an integer
        3 => Value::Num((seed % 100_000) as f64 + 0.5),
        4 => Value::str(string_from(seed)),
        5 => {
            let len = (seed % 4) as usize;
            Value::Arr((0..len).map(|_| value_from(seeds, depth + 1)).collect())
        }
        _ => {
            let len = (seed % 4) as usize;
            Value::Obj(
                (0..len)
                    .map(|i| {
                        (
                            format!("k{i}-{}", string_from(seed ^ i as u64)),
                            value_from(seeds, depth + 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// render → parse is the identity on every value tree the codec can
    /// produce, including tricky strings and nested containers.
    #[test]
    fn json_values_round_trip_through_render_and_parse(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..48),
    ) {
        let value = value_from(&mut seeds.into_iter(), 0);
        let rendered = value.render();
        let parsed = serve::json::parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered JSON must parse: {e} in {rendered}"));
        prop_assert_eq!(&parsed, &value);
        // and rendering is deterministic: a second trip is bit-identical
        prop_assert_eq!(parsed.render(), rendered);
    }

    /// The protocol's request envelope round-trips arbitrary path and
    /// workload spellings — what `POST /rpc` (the `--endpoint http:`
    /// client) depends on.
    #[test]
    fn request_envelopes_round_trip(
        graph_seed in 0u64..u64::MAX,
        workload_seed in 0u64..u64::MAX,
        k in 0usize..64,
        with_k in 0u8..2,
        goal_is_e2e in 0u8..2,
        top in 1usize..12,
    ) {
        let request = Request::Recommend {
            graph: format!("graphs/{}.bel", string_from(graph_seed)),
            workload: string_from(workload_seed),
            k: (with_k == 1).then_some(k),
            goal: if goal_is_e2e == 1 { OptGoal::EndToEnd } else { OptGoal::ProcessingOnly },
            top,
            cwd: Some(string_from(graph_seed ^ workload_seed)),
        };
        let round_tripped = Request::from_json(&request.to_json())
            .unwrap_or_else(|e| panic!("request envelope must parse: {e}"));
        prop_assert_eq!(round_tripped, request);
        // ...and so does an arbitrary value of every variant, through the
        // JSON and the binary codec alike
        for variant in 0..REQUEST_VARIANTS {
            let request = request_from(variant, graph_seed, workload_seed);
            let from_json = Request::from_json(&request.to_json())
                .unwrap_or_else(|e| panic!("{request:?} must parse from JSON: {e}"));
            prop_assert_eq!(&from_json, &request);
            let from_binary = Request::decode_binary(&request.encode_binary())
                .unwrap_or_else(|e| panic!("{request:?} must decode from binary: {e}"));
            prop_assert_eq!(&from_binary, &request);
        }
    }

    /// The response envelope round-trips arbitrary answer payloads —
    /// the exact bytes HTTP clients diff against the one-shot CLI.
    #[test]
    fn response_envelopes_round_trip(
        answer_seed in 0u64..u64::MAX,
        needed in 0u64..u64::MAX,
        headroom in 0u64..u64::MAX,
    ) {
        for response in [
            Response::Answer(format!("{}\n", string_from(answer_seed))),
            Response::Error(string_from(answer_seed.rotate_left(13))),
            Response::Overloaded { needed, headroom },
        ] {
            let round_tripped = Response::from_json(&response.to_json())
                .unwrap_or_else(|e| panic!("response envelope must parse: {e}"));
            prop_assert_eq!(round_tripped, response);
        }
        for variant in 0..RESPONSE_VARIANTS {
            let response = response_from(variant, answer_seed, needed ^ headroom);
            let from_json = Response::from_json(&response.to_json())
                .unwrap_or_else(|e| panic!("{response:?} must parse from JSON: {e}"));
            prop_assert_eq!(&from_json, &response);
            let from_binary = Response::decode_binary(&response.encode_binary())
                .unwrap_or_else(|e| panic!("{response:?} must decode from binary: {e}"));
            prop_assert_eq!(&from_binary, &response);
        }
    }

    /// Totality: no bytes and no text make a decoder panic — not garbage,
    /// and not a valid encoding with one byte changed, cut short or
    /// extended, which reaches every branch garbage rarely finds. Each
    /// call returns; `Ok` or a typed error is all a peer can cause.
    #[test]
    fn decoders_are_total_on_hostile_input(
        garbage in prop::collection::vec(0u8..=255, 0..96),
        seed in 0u64..u64::MAX,
        salt in 0u64..u64::MAX,
    ) {
        let decode_all = |bytes: &[u8]| {
            let _ = Request::decode_binary(bytes);
            let _ = Response::decode_binary(bytes);
            let text = String::from_utf8_lossy(bytes);
            let _ = Request::from_json(&text);
            let _ = Response::from_json(&text);
        };
        decode_all(&garbage);
        let mut valid: Vec<Vec<u8>> = Vec::new();
        for variant in 0..REQUEST_VARIANTS {
            let request = request_from(variant, seed, salt);
            valid.push(request.encode_binary());
            valid.push(request.to_json().into_bytes());
        }
        for variant in 0..RESPONSE_VARIANTS {
            let response = response_from(variant, seed, salt);
            valid.push(response.encode_binary());
            valid.push(response.to_json().into_bytes());
        }
        for encoding in &valid {
            let at = (salt % encoding.len() as u64) as usize;
            let mut mutated = encoding.clone();
            mutated[at] ^= (seed % 255) as u8 + 1;
            decode_all(&mutated);
            decode_all(&encoding[..at]);
            let mut extended = encoding.clone();
            extended.extend_from_slice(&garbage);
            decode_all(&extended);
        }
    }
}

const REQUEST_VARIANTS: u64 = 5;
const RESPONSE_VARIANTS: u64 = 6;

/// An arbitrary value of the `variant`-th `Request` variant; the seeds
/// pick both arms of every optional field.
fn request_from(variant: u64, seed: u64, salt: u64) -> Request {
    let graph = format!("graphs/{}.bel", string_from(seed));
    let cwd = salt.is_multiple_of(2).then(|| string_from(seed ^ salt));
    match variant {
        0 => Request::Ping,
        1 => Request::Recommend {
            graph,
            workload: string_from(salt),
            k: seed.is_multiple_of(2).then_some((seed >> 8) as usize),
            goal: if salt.is_multiple_of(3) { OptGoal::EndToEnd } else { OptGoal::ProcessingOnly },
            top: (salt >> 4) as usize,
            cwd,
        },
        2 => Request::Features {
            graph,
            tier: PropertyTier::ALL[(seed % PropertyTier::ALL.len() as u64) as usize],
            cwd,
        },
        3 => Request::CacheStats,
        _ => Request::Shutdown,
    }
}

/// An arbitrary value of the `variant`-th `Response` variant.
fn response_from(variant: u64, seed: u64, salt: u64) -> Response {
    match variant {
        0 => Response::Pong { version: (seed % 256) as u8 },
        1 => Response::Answer(format!("{}\n", string_from(seed))),
        2 => Response::CacheStats(ServeStats {
            hits: seed,
            misses: salt,
            evictions: seed ^ salt,
            len: (seed >> 3) as usize,
            capacity: (salt >> 5) as usize,
            requests_served: seed.rotate_left(9),
            memory_budget_remaining: salt.is_multiple_of(2).then_some(seed.rotate_left(21)),
            spilled_csr_builds: salt.rotate_left(33),
        }),
        3 => Response::Error(string_from(salt)),
        4 => Response::ShuttingDown,
        _ => Response::Overloaded { needed: seed, headroom: salt },
    }
}

/// Text sources parse decimal where JSON demands a number: the same
/// field list reads `k=8` from a query or a flag, and rejects `"k":"8"`.
#[test]
fn text_sources_parse_decimal_fields_while_json_rejects_string_typed_numbers() {
    let expected = Request::Recommend {
        graph: "g.bel".into(),
        workload: "pr".into(),
        k: Some(8),
        goal: OptGoal::ProcessingOnly,
        top: 3,
        cwd: None,
    };
    let pairs =
        [("graph", "g.bel"), ("workload", "pr"), ("k", "8"), ("goal", "proc"), ("top", "3")];
    let get = |key: &str| pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    assert_eq!(Request::from_text("recommend", "flag", get).unwrap(), expected);
    assert_eq!(
        Request::from_json(
            r#"{"type":"recommend","graph":"g.bel","workload":"pr","k":8,"goal":"proc","top":3}"#
        )
        .unwrap(),
        expected
    );
    let typed = Request::from_json(
        r#"{"type":"recommend","graph":"g.bel","workload":"pr","k":"8","goal":"proc","top":3}"#,
    );
    let message = typed.unwrap_err().to_string();
    assert!(message.contains("member `k` must be an unsigned integer"), "{message}");
    // text that is not decimal is an error naming the pair, not a default
    for bad in ["eight", "-8", "8.0", ""] {
        let get = |key: &str| if key == "k" { Some(bad) } else { get(key) };
        let message = Request::from_text("recommend", "flag", get).unwrap_err().to_string();
        assert!(message.contains("flag `k` must be an unsigned integer"), "{bad}: {message}");
    }
    // a kind the protocol does not have, and a required pair left out
    assert!(Request::from_text("warp", "flag", get).is_err());
    let message =
        Request::from_text("features", "query parameter", |_| None).unwrap_err().to_string();
    assert!(message.contains("missing query parameter `graph`"), "{message}");
}
