//! Hostile and stalled peers against the daemon's session loops.
//!
//! Two things must hold whatever a peer does. A pipelined client that
//! stops reading fills only its own in-flight window: other connections
//! are still answered, and a shutdown still drains the daemon within the
//! I/O timeout. And the frame and HTTP-head decoders are total: every
//! truncation and single-byte mutation of a golden message is a frame or a
//! typed error in process, with allocation bounded by the bytes supplied,
//! and on a live daemon an error answer or a close — never a success, a
//! hang or a dead worker.

mod common;

use common::daemon::{fixtures, recommend_request, spawn_daemon};
use ease_repro::serve::server::SHUTDOWN_POLL;
use ease_repro::serve::{self, Request, Response, ServeConfig};
use ease_repro::{EaseError, ServeError};
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: common::alloc::CountingAlloc = common::alloc::CountingAlloc;

// ---------------------------------------------------------------------
// The pipelining window
// ---------------------------------------------------------------------

/// One client pipelines `Ping`s and never reads. Its answers fill its
/// socket buffer, the daemon's writer for it blocks, and the reader then
/// stalls in the full window. That must cost the other connections
/// nothing, and a shutdown must not wait on the stalled peer for longer
/// than the I/O timeout that bounds the blocked write.
#[test]
fn a_full_window_stalls_only_its_own_connection_and_shutdown_still_drains() {
    let socket = fixtures().dir.join("window.sock");
    let io_timeout = Duration::from_millis(300);
    let handle = spawn_daemon(ServeConfig::at(&socket).workers(2).io_timeout(Some(io_timeout)));
    let mut flood = UnixStream::connect(&socket).expect("connect the flooding client");
    flood.set_write_timeout(Some(Duration::from_millis(50))).expect("write timeout");
    let ping = Request::Ping.encode_binary();
    let mut batch = Vec::new();
    for id in 0..256u64 {
        serve::write_frame_v2(&mut batch, id, &ping).expect("frame a ping");
    }
    // write until the daemon stops reading: a write that times out means
    // the connection's reader has not taken bytes for 50 ms
    let mut written = 0usize;
    loop {
        assert!(written < 64 << 20, "the daemon read {written} bytes and never stalled");
        match flood.write(&batch) {
            Ok(n) => written += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => panic!("flooding write failed: {e}"),
        }
    }
    let frames_written = (written / (batch.len() / 256)) as u64;
    let stalled_at = handle.requests_served();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(handle.requests_served(), stalled_at, "the reader admits nothing more");
    assert!(stalled_at < frames_written, "admitted {stalled_at} of {frames_written} pings");

    // another connection is answered at once, window or no window
    let start = Instant::now();
    let pong = serve::call(&socket, &Request::Ping).expect("ping beside the full window");
    assert!(matches!(pong, Response::Pong { .. }), "{pong:?}");
    assert!(start.elapsed() < Duration::from_secs(1), "ping took {:?}", start.elapsed());

    // a shutdown requested with the window full drains within a few
    // polls plus the write timeout that frees the blocked writer
    handle.trigger_shutdown();
    let start = Instant::now();
    handle.join().expect("no server thread may panic");
    let bound = io_timeout + 5 * SHUTDOWN_POLL;
    assert!(start.elapsed() < bound, "join took {:?}, bound {bound:?}", start.elapsed());
    assert!(!socket.exists(), "the daemon removes its socket");
    drop(flood);
}

// ---------------------------------------------------------------------
// Decoder totality
// ---------------------------------------------------------------------

/// Most a payload read allocates before its bytes arrive
/// (`protocol::PAYLOAD_PREALLOC`).
const PAYLOAD_PREALLOC: u64 = 8 << 10;

/// Single-byte mutations tried per golden message.
const MUTATIONS: usize = 64;

/// The two golden messages: a v2 frame carrying a `Recommend` and a
/// `GET /recommend` head. Both name a graph that does not exist, so no
/// spelling of either that the daemon accepts can be answered with
/// anything but an error.
fn golden_messages(missing: &Path) -> [Vec<u8>; 2] {
    let request = recommend_request(missing, "pr", Some(4));
    let mut frame = Vec::new();
    serve::write_frame_v2(&mut frame, 7, &request.encode_binary()).expect("frame the request");
    let graph = missing.to_str().expect("utf8 path");
    let head = format!(
        "GET /recommend?graph={graph}&workload=pr&k=4 HTTP/1.1\r\nHost: ease\r\n\
         Connection: close\r\n\r\n"
    );
    [frame, head.into_bytes()]
}

/// Every proper prefix of each golden message, then `MUTATIONS` copies of
/// each with one byte changed, at positions and values from a fixed-seed
/// SplitMix64.
fn hostile_variants(golden: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut state = 0x5EED_F00Du64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut variants = Vec::new();
    for message in golden {
        variants.extend((0..message.len()).map(|len| message[..len].to_vec()));
        for _ in 0..MUTATIONS {
            let mut mutated = message.clone();
            let at = (next() % message.len() as u64) as usize;
            // a non-zero xor: the byte always changes
            mutated[at] ^= (next() % 255 + 1) as u8;
            variants.push(mutated);
        }
    }
    variants
}

#[test]
fn frame_and_head_decoding_is_total_in_process() {
    let missing = fixtures().dir.join("no-such-graph.txt");
    let golden = golden_messages(&missing);
    for bytes in hostile_variants(&golden) {
        let (result, allocated) = common::alloc::tracked(|| serve::read_frame_v2(&mut &bytes[..]));
        match result {
            Ok(_) | Err(EaseError::Serve(ServeError::Disconnected | ServeError::Protocol(_))) => {}
            Err(other) => panic!("{bytes:02x?}: untyped error {other:?}"),
        }
        // the payload prealloc, the bytes supplied with `Vec` doubling
        // slack, and an error message
        let bound = PAYLOAD_PREALLOC + 2 * bytes.len() as u64 + 256;
        assert!(allocated <= bound, "{bytes:02x?}: allocated {allocated} bytes, bound {bound}");
    }
}

/// Everything a peer got back before the daemon closed: the bytes read
/// until EOF or a reset.
fn exchange(socket: &Path, bytes: &[u8]) -> Vec<u8> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(bytes).expect("send the message");
    // the peer has nothing more to say: a message the daemon is still
    // waiting on ends at this EOF
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("{bytes:02x?}: the daemon neither answered nor closed: {e}"),
    }
    reply
}

#[test]
fn a_live_daemon_answers_hostile_messages_with_errors_or_a_close() {
    let fx = fixtures();
    let socket = fx.dir.join("hostile.sock");
    let handle = spawn_daemon(ServeConfig::at(&socket).workers(1));
    let golden = golden_messages(&fx.dir.join("no-such-graph.txt"));
    for bytes in hostile_variants(&golden) {
        let reply = exchange(&socket, &bytes);
        if let Some(status) = reply.strip_prefix(b"HTTP/1.1 ") {
            // `400` for a bad head or query, `404` for a path that names
            // no endpoint or a graph that does not open
            assert!(status.starts_with(b"4"), "{bytes:02x?}: {}", String::from_utf8_lossy(&reply));
            continue;
        }
        let mut rest = &reply[..];
        while !rest.is_empty() {
            let (_, payload) = serve::read_frame_v2(&mut rest).expect("whole reply frames");
            match Response::decode_binary(&payload).expect("a response payload") {
                Response::Error(_) => {}
                other => panic!("{bytes:02x?}: answered {other:?}"),
            }
        }
    }
    let pong = serve::call(&socket, &Request::Ping).expect("the daemon still answers");
    assert!(matches!(pong, Response::Pong { .. }), "{pong:?}");
    handle.trigger_shutdown();
    let start = Instant::now();
    handle.join().expect("no server thread may panic");
    assert!(start.elapsed() < Duration::from_secs(5), "join took {:?}", start.elapsed());
    assert!(!socket.exists(), "the daemon removes its socket");
}
