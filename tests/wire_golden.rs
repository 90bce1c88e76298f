//! Golden pins for the serve wire: the exact binary payload and JSON text
//! of every `Request`/`Response` variant (both arms of every optional
//! field), the leniency and strictness of the JSON decoder, and the
//! `GET` query and CLI flag spellings that decode to the same `Request`
//! values. Written against `db02c42`, before the codecs became walkers
//! over one field list; a codec change that alters a byte fails here.
#![cfg(unix)]

use ease_repro::graph::PropertyTier;
use ease_repro::serve::{
    self, read_frame_v2, write_frame_v2, Endpoint, Request, Response, RouterConfig, ServeConfig,
    ServeStats, DEFAULT_TOP,
};
use ease_repro::OptGoal;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::{Arc, Mutex};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap()).collect()
}

fn recommend(k: Option<usize>, goal: OptGoal, top: usize, cwd: Option<&str>) -> Request {
    Request::Recommend {
        graph: "data/g.bel".into(),
        workload: "pr".into(),
        k,
        goal,
        top,
        cwd: cwd.map(String::from),
    }
}

fn features(tier: PropertyTier, cwd: Option<&str>) -> Request {
    Request::Features { graph: "g.txt".into(), tier, cwd: cwd.map(String::from) }
}

fn stats(memory_budget_remaining: Option<u64>) -> ServeStats {
    ServeStats {
        hits: 10,
        misses: 3,
        evictions: 1,
        len: 2,
        capacity: 64,
        requests_served: 14,
        memory_budget_remaining,
        spilled_csr_builds: 7,
    }
}

#[test]
fn every_request_variant_has_its_golden_bytes_and_json() {
    let cases = [
        (Request::Ping, "0200", r#"{"type":"ping"}"#),
        (
            recommend(Some(8), OptGoal::ProcessingOnly, 3, Some("/srv")),
            "02010a00000000000000646174612f672e62656c02000000000000007072010800000000000000\
             0103000000000000000104000000000000002f737276",
            r#"{"type":"recommend","graph":"data/g.bel","workload":"pr","k":8,"goal":"processing","top":3,"cwd":"/srv"}"#,
        ),
        (
            recommend(None, OptGoal::EndToEnd, DEFAULT_TOP, None),
            "02010a00000000000000646174612f672e62656c0200000000000000707200\
             00050000000000000000",
            r#"{"type":"recommend","graph":"data/g.bel","workload":"pr","k":null,"goal":"e2e","top":5,"cwd":null}"#,
        ),
        (
            features(PropertyTier::Basic, Some("/srv")),
            "02020500000000000000672e747874010104000000000000002f737276",
            r#"{"type":"features","graph":"g.txt","tier":"basic","cwd":"/srv"}"#,
        ),
        (
            features(PropertyTier::Advanced, None),
            "02020500000000000000672e7478740200",
            r#"{"type":"features","graph":"g.txt","tier":"advanced","cwd":null}"#,
        ),
        (
            features(PropertyTier::Simple, None),
            "02020500000000000000672e7478740000",
            r#"{"type":"features","graph":"g.txt","tier":"simple","cwd":null}"#,
        ),
        (Request::CacheStats, "0203", r#"{"type":"cache-stats"}"#),
        (Request::Shutdown, "0204", r#"{"type":"shutdown"}"#),
    ];
    for (request, golden_hex, golden_json) in cases {
        let golden_hex: String = golden_hex.split_whitespace().collect();
        assert_eq!(hex(&request.encode_binary()), golden_hex, "{request:?}");
        assert_eq!(Request::decode_binary(&unhex(&golden_hex)).unwrap(), request);
        assert_eq!(request.to_json(), golden_json);
        assert_eq!(Request::from_json(golden_json).unwrap(), request);
    }
}

#[test]
fn every_response_variant_has_its_golden_bytes_and_json() {
    let cases = [
        (Response::Pong { version: 2 }, "020002", r#"{"type":"pong","version":2}"#),
        (
            Response::Answer("two\nlines \"q\"\n".into()),
            "02010e0000000000000074776f0a6c696e6573202271220a",
            r#"{"type":"answer","answer":"two\nlines \"q\"\n"}"#,
        ),
        (
            Response::CacheStats(stats(None)),
            "02020a000000000000000300000000000000010000000000000002000000000000004000000000000000\
             0e00000000000000000700000000000000",
            r#"{"type":"stats","hits":10,"misses":3,"evictions":1,"len":2,"capacity":64,"requests_served":14,"memory_budget_remaining":null,"spilled_csr_builds":7}"#,
        ),
        (
            Response::CacheStats(stats(Some(64 << 20))),
            "02020a000000000000000300000000000000010000000000000002000000000000004000000000000000\
             0e000000000000000100000004000000000700000000000000",
            r#"{"type":"stats","hits":10,"misses":3,"evictions":1,"len":2,"capacity":64,"requests_served":14,"memory_budget_remaining":67108864,"spilled_csr_builds":7}"#,
        ),
        (
            Response::CacheStats(stats(Some(u64::MAX))),
            "02020a000000000000000300000000000000010000000000000002000000000000004000000000000000\
             0e0000000000000001ffffffffffffffff0700000000000000",
            r#"{"type":"stats","hits":10,"misses":3,"evictions":1,"len":2,"capacity":64,"requests_served":14,"memory_budget_remaining":18446744073709551615,"spilled_csr_builds":7}"#,
        ),
        (
            Response::Error("unknown workload `x`".into()),
            "02031400000000000000756e6b6e6f776e20776f726b6c6f616420607860",
            r#"{"type":"error","error":"unknown workload `x`"}"#,
        ),
        (Response::ShuttingDown, "0204", r#"{"type":"shutting-down"}"#),
        (
            Response::Overloaded { needed: 1 << 30, headroom: 4 << 20 },
            "020500000040000000000000400000000000",
            r#"{"type":"overloaded","needed":1073741824,"headroom":4194304}"#,
        ),
    ];
    for (response, golden_hex, golden_json) in cases {
        let golden_hex: String = golden_hex.split_whitespace().collect();
        assert_eq!(hex(&response.encode_binary()), golden_hex, "{response:?}");
        assert_eq!(Response::decode_binary(&unhex(&golden_hex)).unwrap(), response);
        assert_eq!(response.to_json(), golden_json);
        assert_eq!(Response::from_json(golden_json).unwrap(), response);
    }
}

#[test]
fn json_decoding_is_lenient_about_absence_and_strict_about_types() {
    // omitted and null optional members read alike, and take the defaults
    // the CLI flags take; unknown members are ignored; `proc` is an alias
    let defaults = recommend(None, OptGoal::EndToEnd, DEFAULT_TOP, None);
    for text in [
        r#"{"type":"recommend","graph":"data/g.bel","workload":"pr"}"#,
        r#"{"type":"recommend","graph":"data/g.bel","workload":"pr","k":null,"goal":null,"top":null,"cwd":null}"#,
        r#"{"workload":"pr","graph":"data/g.bel","extra":[1,2],"type":"recommend"}"#,
    ] {
        assert_eq!(Request::from_json(text).unwrap(), defaults, "{text}");
    }
    assert_eq!(
        Request::from_json(
            r#"{"type":"recommend","graph":"data/g.bel","workload":"pr","goal":"proc"}"#
        )
        .unwrap(),
        recommend(None, OptGoal::ProcessingOnly, DEFAULT_TOP, None)
    );
    assert_eq!(
        Request::from_json(r#"{"type":"features","graph":"g.txt"}"#).unwrap(),
        features(PropertyTier::Advanced, None)
    );
    assert_eq!(
        Response::from_json(
            r#"{"type":"stats","hits":10,"misses":3,"evictions":1,"len":2,"capacity":64,"requests_served":14,"spilled_csr_builds":7}"#
        )
        .unwrap(),
        Response::CacheStats(stats(None))
    );
    // a number spelled as a string, a string spelled as a number, a
    // missing required member, a version past u8: all protocol errors
    for text in [
        r#"{"type":"recommend","graph":"g","workload":"pr","k":"8"}"#,
        r#"{"type":"recommend","graph":"g","workload":"pr","top":"3"}"#,
        r#"{"type":"recommend","graph":"g","workload":"pr","top":2.5}"#,
        r#"{"type":"recommend","graph":"g","workload":"pr","cwd":7}"#,
        r#"{"type":"recommend","graph":"g","workload":"pr","goal":1}"#,
        r#"{"type":"recommend","graph":7,"workload":"pr"}"#,
        r#"{"type":"recommend","graph":null,"workload":"pr"}"#,
        r#"{"type":"recommend","graph":"g"}"#,
        r#"{"type":"features","graph":"g","tier":"ultra"}"#,
        r#"{"type":7}"#,
        r#"{"graph":"g"}"#,
    ] {
        let err = Request::from_json(text).unwrap_err().to_string();
        assert!(err.contains("protocol violation"), "{text}: {err}");
    }
    for text in [
        r#"{"type":"pong","version":256}"#,
        r#"{"type":"pong","version":"2"}"#,
        r#"{"type":"pong","version":null}"#,
        r#"{"type":"answer"}"#,
        r#"{"type":"overloaded","needed":1}"#,
        r#"{"type":"stats","hits":10,"misses":3,"evictions":1,"len":2,"capacity":64,"requests_served":14,"memory_budget_remaining":"none","spilled_csr_builds":7}"#,
    ] {
        let err = Response::from_json(text).unwrap_err().to_string();
        assert!(err.contains("protocol violation"), "{text}: {err}");
    }
}

// ---------------------------------------------------------------------
// Text spellings: GET queries and CLI flags, observed as the binary
// `Request` a router (or the CLI) forwards to a recording backend
// ---------------------------------------------------------------------

/// A v2 backend that records every query it is sent and answers `ok`.
fn recording_backend() -> (String, Arc<Mutex<Vec<Request>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind recording backend");
    let addr = listener.local_addr().expect("backend addr").to_string();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&seen);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let record = Arc::clone(&record);
            std::thread::spawn(move || answer_frames(stream, &record));
        }
    });
    (addr, seen)
}

fn answer_frames(mut stream: TcpStream, record: &Mutex<Vec<Request>>) {
    while let Ok((id, payload)) = read_frame_v2(&mut stream) {
        let response = match Request::decode_binary(&payload).expect("backend decodes") {
            Request::Ping => Response::Pong { version: serve::PROTOCOL_VERSION },
            Request::CacheStats => Response::CacheStats(stats(None)),
            Request::Shutdown => Response::ShuttingDown,
            query => {
                record.lock().unwrap().push(query);
                Response::Answer("ok\n".into())
            }
        };
        if write_frame_v2(&mut stream, id, &response.encode_binary()).is_err() {
            return;
        }
    }
}

fn http_get(addr: &str, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect router");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read HTTP response");
    raw
}

#[test]
fn get_query_spellings_decode_to_the_same_requests() {
    let (backend, seen) = recording_backend();
    let config = RouterConfig::new(
        ServeConfig::tcp_at("127.0.0.1:0").workers(2),
        vec![Endpoint::Tcp(backend)],
    )
    .forward_shutdown(false);
    let router = serve::route(config).expect("start router");
    let addr = router.tcp_addr().expect("router addr").to_string();
    let cases = [
        (
            "/recommend?graph=data%2Fg.bel&workload=pr",
            recommend(None, OptGoal::EndToEnd, DEFAULT_TOP, None),
        ),
        (
            "/recommend?graph=data/g.bel&workload=pr&k=8&goal=processing&top=3&cwd=%2Fsrv",
            recommend(Some(8), OptGoal::ProcessingOnly, 3, Some("/srv")),
        ),
        (
            "/recommend?cwd=/srv&top=3&goal=proc&k=8&workload=pr&graph=data/g.bel&ignored=1",
            recommend(Some(8), OptGoal::ProcessingOnly, 3, Some("/srv")),
        ),
        ("/features?graph=g.txt", features(PropertyTier::Advanced, None)),
        ("/features?graph=g.txt&tier=basic&cwd=/srv", features(PropertyTier::Basic, Some("/srv"))),
        ("/features?graph=g.txt&tier=simple", features(PropertyTier::Simple, None)),
    ];
    for (target, expected) in &cases {
        let raw = http_get(&addr, target);
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{target}: {raw}");
        assert!(raw.ends_with(r#"{"type":"answer","answer":"ok\n"}"#), "{target}: {raw}");
        assert_eq!(seen.lock().unwrap().last(), Some(expected), "{target}");
    }
    assert_eq!(seen.lock().unwrap().len(), cases.len());
    // bad queries answer 400 and never reach a backend
    for target in [
        "/recommend?workload=pr",
        "/recommend?graph=g",
        "/recommend?graph=g&workload=pr&k=many",
        "/recommend?graph=g&workload=pr&top=",
        "/recommend?graph=g&workload=pr&goal=fastest",
        "/features?tier=basic",
        "/features?graph=g&tier=ultra",
        "/features?graph=%zz",
    ] {
        let raw = http_get(&addr, target);
        assert!(raw.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{target}: {raw}");
        assert!(raw.contains(r#"{"type":"error","error":""#), "{target}: {raw}");
    }
    assert_eq!(seen.lock().unwrap().len(), cases.len());
    router.trigger_shutdown();
    router.join().expect("router drains");
}

#[test]
fn cli_flag_spellings_decode_to_the_same_requests() {
    let (backend, seen) = recording_backend();
    let endpoint = format!("tcp:{backend}");
    let cwd = std::env::temp_dir().canonicalize().expect("temp dir");
    let cwd_text = cwd.to_str().expect("utf-8 temp dir");
    let cases: [(&[&str], Request); 6] = [
        (
            &["recommend", "--graph", "data/g.bel"],
            recommend(None, OptGoal::EndToEnd, DEFAULT_TOP, Some(cwd_text)),
        ),
        (
            &["recommend", "--graph", "data/g.bel", "--workload", "pr"],
            recommend(None, OptGoal::EndToEnd, DEFAULT_TOP, Some(cwd_text)),
        ),
        (
            &[
                "recommend",
                "--graph",
                "data/g.bel",
                "--workload",
                "pr",
                "--k",
                "8",
                "--goal",
                "processing",
                "--top",
                "3",
            ],
            recommend(Some(8), OptGoal::ProcessingOnly, 3, Some(cwd_text)),
        ),
        (&["features", "g.txt"], features(PropertyTier::Advanced, Some(cwd_text))),
        (
            &["features", "--graph", "g.txt", "--tier", "basic"],
            features(PropertyTier::Basic, Some(cwd_text)),
        ),
        (
            &["features", "--graph", "g.txt", "--tier", "simple"],
            features(PropertyTier::Simple, Some(cwd_text)),
        ),
    ];
    for (args, expected) in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ease"))
            .args(*args)
            .args(["--endpoint", &endpoint])
            .current_dir(&cwd)
            .output()
            .expect("run ease");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "ok\n", "{args:?}");
        assert_eq!(seen.lock().unwrap().last(), Some(expected), "{args:?}");
    }
    // typos in the query vocabulary are usage errors before any socket
    for args in [
        &["recommend", "--graph", "g", "--workload", "nope"][..],
        &["recommend", "--graph", "g", "--goal", "fastest"],
        &["recommend", "--graph", "g", "--k", "many"],
        &["recommend", "--graph", "g", "--top", "-1"],
        &["recommend", "--workload", "pr"],
        &["features", "g", "--tier", "ultra"],
        &["features", "--tier", "basic"],
        // the positional graph and --graph together: neither silently wins
        &["features", "g", "--graph", "h"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ease"))
            .args(args)
            .args(["--endpoint", &endpoint])
            .output()
            .expect("run ease");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not answer");
    }
    assert_eq!(seen.lock().unwrap().len(), cases.len());
}
