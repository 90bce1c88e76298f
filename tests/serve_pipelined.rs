//! Integration suite for the pipelined TCP front (PR 6 tentpole) and the
//! serve-layer concurrency bugfixes that rode along.
//!
//! The acceptance bar: many clients each driving many requests through
//! one v2 connection get answers *bit-identical* to the one-shot CLI over
//! both unix and TCP; responses genuinely complete out of order; protocol
//! garbage on the TCP path never kills the daemon; shutdown drains
//! promptly even with every worker pinned and the accept hand-off full
//! (the PR 6 lost-wake-up regression); and two daemons racing one socket
//! path resolve to exactly one winner whose socket survives (the PR 6
//! bind-TOCTOU regression).

mod common;

use common::daemon::{
    cli_answer, fixtures, load_service, recommend_request, run_cli, spawn_daemon, stats_of,
};
use ease_repro::graph::io::write_edge_list;
use ease_repro::graph::{bel, Graph, PropertyTier};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::serve::{self, Endpoint, PipelinedClient, Request, Response, ServeConfig};
use ease_repro::{EaseError, ServeError};
use proptest::prelude::*;
use std::fs::FileTimes;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::UnixStream;
use std::sync::Barrier;
use std::time::{Duration, Instant, SystemTime};

/// Start an in-process daemon on a fresh unix socket *and* an ephemeral
/// TCP port, exactly as `ease serve --socket … --tcp 127.0.0.1:0` does.
fn start_server(tag: &str, workers: usize) -> (serve::ServerHandle, Endpoint, Endpoint) {
    let socket = fixtures().dir.join(format!("{tag}.sock"));
    let handle = spawn_daemon(ServeConfig::at(&socket).tcp("127.0.0.1:0").workers(workers));
    let tcp = handle.tcp_addr().expect("tcp listener bound").to_string();
    (handle, Endpoint::unix(socket), Endpoint::tcp(tcp))
}

// ---------------------------------------------------------------------
// v2 frame property tests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of (id, payload) frames round-trips through v2
    /// framing byte-exactly and in order — including ids at the u64
    /// extremes and empty payloads.
    #[test]
    fn v2_frame_streams_round_trip(
        seed in 0u64..u64::MAX,
        lens in prop::collection::vec(0usize..4096, 1..12),
    ) {
        let frames: Vec<(u64, Vec<u8>)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                // ids anywhere in the u64 space, not just small counters
                let id = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32);
                let payload = (0..len).map(|b| (b as u8) ^ (id as u8)).collect();
                (id, payload)
            })
            .collect();
        let mut wire = Vec::new();
        for (id, payload) in &frames {
            serve::write_frame_v2(&mut wire, *id, payload).expect("write frame");
        }
        let mut r = &wire[..];
        for (id, payload) in &frames {
            let (got_id, got_payload) = serve::read_frame_v2(&mut r).expect("read frame");
            prop_assert_eq!(got_id, *id);
            prop_assert_eq!(&got_payload, payload);
        }
        prop_assert!(r.is_empty(), "no trailing bytes after the last frame");
    }

    /// Responses arriving in any order are matched back to their requests
    /// by id: encode a batch of distinct responses, deliver them in a
    /// seed-shuffled order, and every id must still map to its own bytes.
    #[test]
    fn out_of_order_responses_match_by_id(
        seed in 0u64..u64::MAX,
        count in 2usize..16,
    ) {
        let responses: Vec<(u64, Vec<u8>)> = (0..count as u64)
            .map(|id| (id, Response::Error(format!("r{id}")).encode_binary()))
            .collect();
        // deterministic shuffle: deliver in a seed-dependent order
        let mut order: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            let j = (seed.rotate_left(i as u32) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut wire = Vec::new();
        for &at in &order {
            let (id, payload) = &responses[at];
            serve::write_frame_v2(&mut wire, *id, payload).expect("write frame");
        }
        let mut r = &wire[..];
        let mut seen = vec![false; count];
        for _ in 0..count {
            let (id, payload) = serve::read_frame_v2(&mut r).expect("read frame");
            prop_assert_eq!(&payload, &responses[id as usize].1, "payload follows its id");
            prop_assert!(!seen[id as usize], "no duplicate deliveries");
            seen[id as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "every response delivered exactly once");
    }
}

// ---------------------------------------------------------------------
// Pipelined bit-identity over both transports
// ---------------------------------------------------------------------

#[test]
fn pipelined_answers_are_bit_identical_over_unix_and_tcp() {
    let fx = fixtures();
    let (handle, unix, tcp) = start_server("identity", 4);
    let expected_txt = cli_answer(&fx.txt, "pr", None);
    let expected_bel = cli_answer(&fx.bel, "pr", None);
    let expected_cc = cli_answer(&fx.txt, "cc", Some(2));
    // 6 clients × 9 requests, each client multiplexing one connection,
    // half over unix and half over TCP — v2 framing speaks both
    const CLIENTS: usize = 6;
    const REQS: usize = 9;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let endpoint = if c % 2 == 0 { &tcp } else { &unix };
            let (expected_txt, expected_bel, expected_cc) =
                (&expected_txt, &expected_bel, &expected_cc);
            scope.spawn(move || {
                let requests: Vec<Request> = (0..REQS)
                    .map(|r| match (c + r) % 3 {
                        0 => recommend_request(&fixtures().txt, "pr", None),
                        1 => recommend_request(&fixtures().bel, "pr", None),
                        _ => recommend_request(&fixtures().txt, "cc", Some(2)),
                    })
                    .collect();
                let responses =
                    serve::call_pipelined(endpoint, &requests, 4).expect("pipelined batch");
                assert_eq!(responses.len(), REQS);
                for (r, response) in responses.into_iter().enumerate() {
                    let expected = match (c + r) % 3 {
                        0 => expected_txt,
                        1 => expected_bel,
                        _ => expected_cc,
                    };
                    let answer = serve::expect_answer(response).expect("answer");
                    assert_eq!(&answer, expected, "client {c} request {r}: must be bit-identical");
                }
            });
        }
    });
    // the real CLI binary over TCP prints the same bytes as the one-shot
    let (stdout, stderr, ok) = run_cli(&[
        "recommend",
        "--endpoint",
        &tcp.to_string(),
        "--graph",
        fx.txt.to_str().unwrap(),
        "--workload",
        "pr",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, expected_txt);
    handle.trigger_shutdown();
    let summary = handle.join().expect("clean join");
    // all pipelined requests plus at least the CLI's one
    assert!(summary.requests_served > (CLIENTS * REQS) as u64);
}

// ---------------------------------------------------------------------
// Out-of-order completion on a live connection
// ---------------------------------------------------------------------

#[test]
fn slow_requests_do_not_block_later_answers_on_the_same_connection() {
    let fx = fixtures();
    let (handle, _unix, tcp) = start_server("ooo", 4);
    let mut client = PipelinedClient::connect(&tcp).expect("connect");
    // one heavy request followed by a burst of pings: with concurrent
    // executors the pings must overtake it. Heavy in any build profile —
    // parsing and counting triangles on 120 k skewed edges takes
    // milliseconds optimised, where the tiny fixtures take well under one
    // and can win the race against the hand-off of a ping
    let heavy_txt = fx.dir.join("heavy.txt");
    let heavy_graph = Rmat::new(RMAT_COMBOS[6], 1 << 12, 120_000, 3).generate();
    write_edge_list(&heavy_graph, &heavy_txt).expect("write heavy graph");
    let heavy = client
        .send(&Request::Features {
            graph: heavy_txt.to_str().unwrap().into(),
            tier: PropertyTier::Advanced,
            cwd: None,
        })
        .expect("send heavy");
    let pings: Vec<u64> = (0..4).map(|_| client.send(&Request::Ping).expect("send ping")).collect();
    let mut arrivals = Vec::new();
    for _ in 0..5 {
        let (id, response) = client.recv_any().expect("recv");
        match &response {
            Response::Pong { .. } => assert!(pings.contains(&id)),
            Response::Answer(text) => {
                assert_eq!(id, heavy);
                assert!(text.contains("feature"), "features answer: {text}");
            }
            other => panic!("unexpected response {other:?}"),
        }
        arrivals.push(id);
    }
    let heavy_at = arrivals.iter().position(|&id| id == heavy).expect("heavy answered");
    assert!(
        heavy_at > 0,
        "a ping sent after the heavy request must complete before it (arrivals: {arrivals:?})"
    );
    // the same connection still works after out-of-order traffic
    match client.call(&Request::Ping).expect("ping after reorder") {
        Response::Pong { version } => assert_eq!(version, serve::PROTOCOL_VERSION),
        other => panic!("expected Pong, got {other:?}"),
    }
    handle.trigger_shutdown();
    handle.join().expect("clean join");
}

// ---------------------------------------------------------------------
// Frames however the wire segments them
// ---------------------------------------------------------------------

#[test]
fn coalesced_and_trickled_frames_are_answered_by_id() {
    let fx = fixtures();
    let (handle, _unix, tcp) = start_server("segments", 2);
    let Endpoint::Tcp(addr) = &tcp else { unreachable!() };
    let connect = || {
        let stream = TcpStream::connect(addr).expect("tcp connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        stream
    };
    let expected = cli_answer(&fx.txt, "pr", None);
    let recommend = recommend_request(&fx.txt, "pr", None).encode_binary();
    // three frames in one write_all
    let mut stream = connect();
    let mut wire = Vec::new();
    serve::write_frame_v2(&mut wire, 11, &Request::Ping.encode_binary()).expect("frame");
    serve::write_frame_v2(&mut wire, 12, &recommend).expect("frame");
    serve::write_frame_v2(&mut wire, 13, &Request::CacheStats.encode_binary()).expect("frame");
    stream.write_all(&wire).expect("send three frames");
    let mut answered = std::collections::HashMap::new();
    for _ in 0..3 {
        let (id, payload) = serve::read_frame_v2(&mut stream).expect("response frame");
        answered.insert(id, Response::decode_binary(&payload).expect("response"));
    }
    assert!(matches!(answered.get(&11), Some(Response::Pong { .. })), "{answered:?}");
    assert_eq!(answered.get(&12), Some(&Response::Answer(expected.clone())));
    assert!(matches!(answered.get(&13), Some(Response::CacheStats(_))), "{answered:?}");
    // one frame, a byte per write
    let mut stream = connect();
    let mut wire = Vec::new();
    serve::write_frame_v2(&mut wire, 21, &recommend).expect("frame");
    for byte in &wire {
        stream.write_all(std::slice::from_ref(byte)).expect("send one byte");
    }
    let (id, payload) = serve::read_frame_v2(&mut stream).expect("response frame");
    assert_eq!(id, 21);
    assert_eq!(Response::decode_binary(&payload).expect("response"), Response::Answer(expected));
    handle.trigger_shutdown();
    handle.join().expect("clean join");
}

// ---------------------------------------------------------------------
// Protocol robustness on the TCP path
// ---------------------------------------------------------------------

#[test]
fn tcp_garbage_never_kills_the_daemon() {
    let (handle, unix, tcp) = start_server("garbage", 2);
    let addr = match &tcp {
        Endpoint::Tcp(addr) => addr.clone(),
        _ => unreachable!(),
    };
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("tcp connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
    };
    // 1. a peer opening with the retired one-request magic, or with plain
    //    garbage, gets exactly one v2 error frame (id 0: it never chose
    //    one) naming what the listener accepts, then EOF — on either
    //    transport. Two bytes only, so nothing unread can turn the close
    //    into a TCP reset that eats the reply.
    fn expect_bad_magic_reply(mut stream: impl Read + Write, prefix: [u8; 2]) {
        stream.write_all(&prefix).unwrap();
        let (id, payload) = serve::read_frame_v2(&mut stream).expect("framed error reply");
        assert_eq!(id, 0);
        let [a, b] = prefix;
        match Response::decode_binary(&payload).unwrap() {
            Response::Error(msg) => assert!(
                msg.contains(&format!("bad frame magic {a:02x}{b:02x} (expected ea5f or an HTTP")),
                "{msg}"
            ),
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert_eq!(stream.read(&mut [0u8; 1]).expect("server closes"), 0, "expected EOF");
    }
    let Endpoint::Unix(socket) = &unix else { unreachable!() };
    for prefix in [[0xEA, 0x5E], *b"zz"] {
        expect_bad_magic_reply(connect(), prefix);
        expect_bad_magic_reply(UnixStream::connect(socket).expect("unix connect"), prefix);
    }
    // 2. a v2 frame declaring an oversized payload: connection closed
    //    without reading the flood
    {
        let mut stream = connect();
        let mut head = Vec::new();
        head.extend_from_slice(&serve::FRAME_MAGIC_V2);
        head.extend_from_slice(&7u64.to_le_bytes());
        head.extend_from_slice(&(u32::MAX).to_le_bytes());
        stream.write_all(&head).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).expect("server closes"), 0, "expected EOF");
    }
    // 3. a well-framed v2 request with garbage payload: an Error response
    //    under the offending id, connection stays usable
    {
        let mut stream = connect();
        serve::write_frame_v2(&mut stream, 99, &[0xFF, 0xFF, 0xFF]).unwrap();
        let (id, payload) = serve::read_frame_v2(&mut stream).expect("framed error reply");
        assert_eq!(id, 99);
        match Response::decode_binary(&payload).unwrap() {
            Response::Error(msg) => assert!(msg.contains("protocol"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // same connection, valid request after the bad one
        serve::write_frame_v2(&mut stream, 100, &Request::Ping.encode_binary()).unwrap();
        let (id, payload) = serve::read_frame_v2(&mut stream).expect("pong after garbage");
        assert_eq!(id, 100);
        assert!(matches!(Response::decode_binary(&payload).unwrap(), Response::Pong { .. }));
    }
    // after all that abuse the daemon still answers one-request sessions
    // on both transports...
    for endpoint in [&unix, &tcp] {
        let pong = serve::call_endpoint(endpoint, &Request::Ping).expect("daemon alive");
        assert!(matches!(pong, Response::Pong { .. }), "{endpoint}: {pong:?}");
    }
    // ...and pipelined queries
    let responses = serve::call_pipelined(&tcp, &[Request::Ping, Request::CacheStats], 2)
        .expect("daemon alive");
    assert!(matches!(responses[0], Response::Pong { .. }));
    assert!(matches!(responses[1], Response::CacheStats(_)));
    handle.trigger_shutdown();
    handle.join().expect("no worker may have panicked");
}

// ---------------------------------------------------------------------
// File stamps: rewritten files must be re-read, unchanged ones need not be
// ---------------------------------------------------------------------

/// The daemon memoizes `path → fingerprint` keyed by a stat stamp so warm
/// repeat queries skip the graph open and the `O(|E|)` content hash. The
/// stamp must make that safe: overwriting the file with different content
/// has to invalidate the memo, and the post-rewrite answer must be what a
/// fresh one-shot run would print — never the remembered graph's answer.
#[test]
fn rewritten_graph_files_are_answered_fresh_not_from_the_memo() {
    let fx = fixtures();
    let (handle, unix, _tcp) = start_server("rewrite", 2);
    let path = fx.dir.join("rewrite.txt");
    std::fs::copy(&fx.txt, &path).expect("seed graph file");
    let expected_first = cli_answer(&path, "pr", None);

    let ask = || {
        let responses = serve::call_pipelined(&unix, &[recommend_request(&path, "pr", None)], 1)
            .expect("recommend");
        serve::expect_answer(responses.into_iter().next().unwrap()).expect("answer")
    };
    // first query takes the full open+hash path and seeds the memo; the
    // second is a warm memo hit — both must render identical bytes
    assert_eq!(ask(), expected_first, "cold answer matches the one-shot CLI");
    assert_eq!(ask(), expected_first, "memo-warm answer is bit-identical to the cold one");

    // rewrite the path with a different graph (different edge count, so
    // the file size — and therefore the stat stamp — must change even on
    // filesystems with coarse mtime granularity)
    std::fs::copy(&fx.other_txt, &path).expect("rewrite graph file");
    let expected_second = cli_answer(&path, "pr", None);
    assert_ne!(expected_first, expected_second, "fixture graphs must rank differently");
    assert_eq!(ask(), expected_second, "rewritten file must be answered fresh, not from memo");
    // and the new content is itself memoized correctly
    assert_eq!(ask(), expected_second, "warm answer after the rewrite stays fresh");

    handle.trigger_shutdown();
    handle.join().expect("clean join");
}

/// A `.bel` file and its text twin hold the same graph, so the daemon's
/// property cache keeps one entry for both, each file known by its own
/// stat stamp: queried alternately, every answer is the one-shot CLI's,
/// and the one entry was read once.
#[test]
fn a_bel_file_and_its_text_twin_share_one_cache_entry() {
    let fx = fixtures();
    let (handle, unix, _tcp) = start_server("twins", 2);
    let twins = [&fx.bel, &fx.txt].map(|file| (file, cli_answer(file, "pr", None)));
    let mut client = PipelinedClient::connect(&unix).expect("connect");
    const RECOMMENDS: usize = 8;
    for i in 0..RECOMMENDS {
        let (file, expected) = &twins[i % 2];
        let response = client.call(&recommend_request(file, "pr", None)).expect("recommend");
        assert_eq!(&serve::expect_answer(response).expect("answer"), expected, "request {i}");
    }
    let stats = stats_of(client.call(&Request::CacheStats).expect("cache stats"));
    assert_eq!((stats.len, stats.misses), (1, 1), "one entry for both files, extracted once");
    assert_eq!(stats.hits + stats.misses, RECOMMENDS as u64, "one lookup per recommend");
    drop(client);
    handle.trigger_shutdown();
    handle.join().expect("clean join");
}

/// The stat stamp is all a warm answer trusts. Content rewritten in place
/// at the same size, with the mtime put back, keeps the stamp, so the
/// daemon answers from its cache without reading the file; a changed
/// mtime makes it read the file again. (Writers that leave the stamp
/// alone are out of contract — this pins that the fast path is taken.)
#[test]
fn an_unchanged_stat_stamp_is_answered_without_reading_the_file() {
    let fx = fixtures();
    let (handle, unix, _tcp) = start_server("stamp", 2);
    let path = fx.dir.join("stamped.bel");
    // same |E|, so the same `.bel` size, but a different graph
    let [first, second] =
        [RMAT_COMBOS[0], RMAT_COMBOS[6]].map(|combo| Rmat::new(combo, 1 << 9, 4_000, 5).generate());
    let write = |graph: &Graph| bel::write_bel(graph, &path).expect("write .bel in place");
    write(&first);
    let expected_first = cli_answer(&path, "pr", None);
    let ask = || {
        let responses = serve::call_pipelined(&unix, &[recommend_request(&path, "pr", None)], 1)
            .expect("recommend");
        serve::expect_answer(responses.into_iter().next().unwrap()).expect("answer")
    };
    assert_eq!(ask(), expected_first, "cold answer matches the one-shot CLI");
    assert_eq!(ask(), expected_first, "warm answer too");

    let before = std::fs::metadata(&path).expect("stat");
    write(&second);
    let set_mtime = |mtime: SystemTime| {
        let file = std::fs::File::options().write(true).open(&path).expect("open for set_times");
        file.set_times(FileTimes::new().set_modified(mtime)).expect("set mtime");
    };
    set_mtime(before.modified().expect("mtime"));
    let after = std::fs::metadata(&path).expect("stat");
    assert_eq!((after.ino(), after.len()), (before.ino(), before.len()), "rewritten in place");
    let expected_second = cli_answer(&path, "pr", None);
    assert_ne!(expected_first, expected_second, "the two graphs must answer differently");
    assert_eq!(ask(), expected_first, "an unchanged stamp is answered from the cache");

    set_mtime(before.modified().expect("mtime") + Duration::from_secs(1));
    assert_eq!(ask(), expected_second, "a changed stamp is answered fresh");
    handle.trigger_shutdown();
    handle.join().expect("clean join");
}

// ---------------------------------------------------------------------
// Regression: shutdown wake-up under load (PR 6 satellite bugfix)
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_promptly_with_all_workers_pinned_and_handoff_full() {
    let fx = fixtures();
    let socket = fx.dir.join("pinned.sock");
    // io_timeout(None): the old code's only escape hatch (worker eviction
    // at the I/O deadline) is off, so this reproduces the genuinely
    // unbounded case — workers blocked in reads forever, hand-off full,
    // accept thread stuck mid-send where the shutdown poke can't reach it
    let handle = spawn_daemon(ServeConfig::at(&socket).workers(2).io_timeout(None));
    // 2 stalled connections pin both workers; 4 fill the bounded hand-off
    // (workers * 2); 1 more parks the accept thread in the hand-off
    let _stalled: Vec<UnixStream> =
        (0..7).map(|_| UnixStream::connect(&socket).expect("connect stalled client")).collect();
    // let the accept thread actually reach the blocked hand-off state
    std::thread::sleep(Duration::from_millis(300));
    handle.trigger_shutdown();
    let start = Instant::now();
    let summary = handle.join().expect("join must not hang");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with pinned workers and a full hand-off queue",
        start.elapsed()
    );
    assert_eq!(summary.requests_served, 0, "no stalled client ever sent a request");
    assert!(!socket.exists(), "socket file removed on shutdown");
}

// ---------------------------------------------------------------------
// Regression: two daemons racing one socket path (PR 6 satellite bugfix)
// ---------------------------------------------------------------------

#[test]
fn two_daemons_racing_one_socket_path_resolve_to_one_winner() {
    let fx = fixtures();
    let socket = fx.dir.join("race.sock");
    // several rounds: the old TOCTOU (probe, remove_file, bind) let the
    // loser unlink the winner's freshly bound socket, so the winner would
    // "win" and then silently serve an unlinked inode no client can reach
    for round in 0..4 {
        // a stale socket file makes both daemons take the reclaim path —
        // exactly the racy window the flock now serializes
        std::fs::write(&socket, b"stale").unwrap();
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let spawn_daemon = || {
                let socket = &socket;
                let barrier = &barrier;
                scope.spawn(move || {
                    let service = load_service();
                    barrier.wait();
                    serve::serve(service, ServeConfig::at(socket).workers(2))
                })
            };
            let a = spawn_daemon();
            let b = spawn_daemon();
            (a.join().expect("no panic"), b.join().expect("no panic"))
        });
        let (winner, loser) = match (a, b) {
            (Ok(h), Err(e)) | (Err(e), Ok(h)) => (h, e),
            (Ok(_), Ok(_)) => panic!("round {round}: both daemons claimed the same socket"),
            (Err(ea), Err(eb)) => panic!("round {round}: both daemons failed: {ea:?} / {eb:?}"),
        };
        match loser {
            EaseError::Serve(ServeError::Bind { socket: s, .. }) => {
                assert_eq!(s, socket.display().to_string(), "round {round}")
            }
            other => panic!("round {round}: expected a typed Bind error, got {other:?}"),
        }
        // the decisive assertion: the loser must NOT have unlinked the
        // winner's socket — a client can still reach it
        match serve::call(&socket, &Request::Ping).expect("winner's socket must be live") {
            Response::Pong { .. } => {}
            other => panic!("round {round}: expected Pong, got {other:?}"),
        }
        winner.trigger_shutdown();
        winner.join().expect("clean join");
        assert!(!socket.exists(), "round {round}: socket removed after shutdown");
    }
}
