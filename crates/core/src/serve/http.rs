//! The HTTP/1.1 + JSON facade on the serve stack — no new listener, no
//! new dependencies: the per-connection magic sniffer in `server.rs`
//! recognises the first two bytes of `GET ` / `POST` ([`SNIFF_GET`],
//! [`SNIFF_POST`]) and hands the connection to this module's loop, which
//! runs on the same connection workers and submits decoded [`Request`]s
//! to the same executor pool and `Handler` as the binary protocols. The
//! facade therefore works identically against a single daemon and the
//! consistent-hash router fleet, and `curl` answers stay bit-identical to
//! the one-shot CLI (modulo the JSON envelope).
//!
//! Endpoints (the `ROUTES` table below is the one place that lists them):
//!
//! | method + path     | request                         |
//! |-------------------|---------------------------------|
//! | `GET /recommend`  | [`Request::Recommend`] from `?graph=…&workload=…` plus optional `k`, `goal`, `top`, `cwd` |
//! | `GET /features`   | [`Request::Features`] from `?graph=…` plus optional `tier`, `cwd` |
//! | `GET /stats`      | [`Request::CacheStats`] (fleet-folded through the router) |
//! | `GET /healthz`    | [`Request::Ping`]               |
//! | `POST /shutdown`  | [`Request::Shutdown`]           |
//! | `POST /rpc`       | any [`Request`] as a JSON body (the `--endpoint http:` client path) |
//!
//! The two query endpoints name no field themselves: the path is the
//! request's kind and [`Request::from_text`] reads the percent-decoded
//! pairs through the field list that also drives the JSON and binary
//! codecs, so parameter names, defaults and vocabularies are the JSON
//! envelope's by construction.
//!
//! Every response body is the [`Response`]'s JSON envelope
//! ([`Response::to_json`]); the status code classifies it — `503` for
//! [`Response::Overloaded`], `404` for I/O failures (the graph path did
//! not open), `400` for every other error. Alongside `http.rs`, only
//! `json.rs` formats JSON text.

use super::protocol::{proto_err, read_capped_payload, Request, Response, MAX_FRAME_BYTES};
use crate::error::EaseError;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};

/// First two bytes of `GET ` — the connection sniffer in `server.rs`
/// dispatches on these exactly as it does on the binary frame magics.
pub const SNIFF_GET: [u8; 2] = [b'G', b'E'];

/// First two bytes of `POST`.
pub const SNIFF_POST: [u8; 2] = [b'P', b'O'];

/// Cap on one request head (request line + headers). 8 KiB holds any
/// reasonable query string; past it the peer is rejected before the
/// worker buffers more, mirroring [`MAX_FRAME_BYTES`] for frames.
pub const MAX_HEAD_BYTES: usize = 8 << 10;

/// What the connection loop in `server.rs` should do after one request.
pub(crate) enum SessionState {
    /// The peer may send another request on this connection.
    KeepAlive,
    /// Close: the peer asked for it, the request was malformed beyond
    /// resynchronisation, or the daemon is shutting down.
    Close,
}

/// Serve exactly one HTTP request on `stream`, the connection's read
/// buffer. The two sniffed bytes arrive via `prefix` (they are part of
/// the request line); bytes past this request's body stay buffered for
/// the next one. `submit` runs the decoded request through the server's
/// executor pool and returns its typed response — or `None` when the
/// daemon is draining, which closes the connection without an answer.
///
/// Malformed or oversized heads get a best-effort `400` and close the
/// connection; nothing in here can panic the worker on peer input.
pub(crate) fn serve_one(
    stream: &mut BufReader<impl Read + Write>,
    prefix: [u8; 2],
    submit: &mut dyn FnMut(Request) -> Option<Response>,
) -> SessionState {
    // a peer that broke the protocol gets a best-effort `400` and the close
    let violation = |stream: &mut BufReader<_>, reason: &str| {
        let body = Response::Error(format!("serve error: protocol violation: {reason}"));
        respond(stream.get_mut(), 400, "Bad Request", &body.to_json(), true).ok();
        SessionState::Close
    };
    let head_bytes = match read_head(stream, prefix) {
        Ok(bytes) => bytes,
        Err(ReadHeadError::TooLarge) => {
            return violation(
                stream,
                &format!("HTTP request head exceeds the {MAX_HEAD_BYTES}-byte cap"),
            );
        }
        // peer vanished mid-head: nothing to answer
        Err(ReadHeadError::Io) => return SessionState::Close,
    };
    let Ok(head) = std::str::from_utf8(&head_bytes) else {
        return violation(stream, "HTTP request head is not UTF-8");
    };
    let parsed = match parse_head(head) {
        Ok(parsed) => parsed,
        Err(message) => return violation(stream, &message),
    };
    let body = match parsed.content_length {
        0 => None,
        len if len > MAX_FRAME_BYTES => {
            return violation(
                stream,
                &format!("declared body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
            );
        }
        len => {
            let Ok(buf) = read_capped_payload(stream, len) else { return SessionState::Close };
            match String::from_utf8(buf) {
                Ok(text) => Some(text),
                Err(_) => return violation(stream, "HTTP body is not UTF-8"),
            }
        }
    };
    let close = !parsed.keep_alive;
    let next = |ok: bool| if ok && !close { SessionState::KeepAlive } else { SessionState::Close };
    match request_for(&parsed.method, &parsed.target, body.as_deref()) {
        Ok(request) => {
            // the executor pool is gone only while draining for shutdown
            let Some(response) = submit(request) else { return SessionState::Close };
            let (status, reason) = status_for(&response);
            let done = close || matches!(response, Response::ShuttingDown);
            let ok = respond(stream.get_mut(), status, reason, &response.to_json(), done).is_ok();
            next(ok && !done)
        }
        Err((status, reason, message)) => {
            // a routing error on a well-formed request is answerable and
            // the connection stays usable
            let body = Response::Error(message).to_json();
            let ok = respond(stream.get_mut(), status, reason, &body, close).is_ok();
            next(ok)
        }
    }
}

/// The HTTP status a [`Response`] travels under: `503` when a fleet shed
/// the query, `404` when the graph path failed to open, `400` for every
/// other error, `200` otherwise.
pub fn status_for(response: &Response) -> (u16, &'static str) {
    match response {
        Response::Overloaded { .. } => (503, "Service Unavailable"),
        Response::Error(msg) if msg.contains("I/O error:") => (404, "Not Found"),
        Response::Error(_) => (400, "Bad Request"),
        _ => (200, "OK"),
    }
}

enum ReadHeadError {
    TooLarge,
    Io,
}

/// Read up to the `\r\n\r\n` head terminator, scanning whole buffered
/// chunks. Only the head is consumed: bytes past the terminator — the
/// body, or a pipelined follow-up request — stay in `stream`'s buffer.
/// Heads are ≤ [`MAX_HEAD_BYTES`].
fn read_head(stream: &mut impl BufRead, prefix: [u8; 2]) -> Result<Vec<u8>, ReadHeadError> {
    let mut head = prefix.to_vec();
    loop {
        let chunk = match stream.fill_buf() {
            Ok([]) => return Err(ReadHeadError::Io),
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(ReadHeadError::Io),
        };
        // the terminator may straddle the previous chunk
        let scan_from = head.len().saturating_sub(3);
        let taken = chunk.len().min(MAX_HEAD_BYTES.saturating_sub(head.len()));
        head.extend_from_slice(chunk.get(..taken).unwrap_or_default());
        let terminator =
            head.get(scan_from..).and_then(|tail| tail.windows(4).position(|w| w == b"\r\n\r\n"));
        if let Some(at) = terminator {
            // the terminator ends past the previous chunk, so what is
            // handed back is fewer than `taken` bytes
            let end = scan_from + at + 4;
            stream.consume(taken - (head.len() - end));
            head.truncate(end);
            return Ok(head);
        }
        stream.consume(taken);
        if head.len() >= MAX_HEAD_BYTES {
            drain_oversized_head(stream);
            return Err(ReadHeadError::TooLarge);
        }
    }
}

/// Discard the tail of a head we refused to buffer. Closing a socket
/// with unread input makes the kernel answer with RST, which can destroy
/// the 400 response before the peer reads it — so consume up to a hard
/// cap looking for the terminator, then give up on pathological peers.
fn drain_oversized_head(stream: &mut impl Read) {
    let mut tail = [0u8; 4];
    let mut chunk = [0u8; 256];
    let mut budget = MAX_HEAD_BYTES * 4;
    while budget > 0 {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        budget = budget.saturating_sub(n);
        // lint: panic-ok(read returns n <= chunk.len())
        for &b in &chunk[..n] {
            tail.rotate_left(1);
            tail[3] = b; // lint: panic-ok(fixed 4-byte window)
        }
        if tail == *b"\r\n\r\n" {
            return;
        }
    }
}

struct ParsedHead {
    method: String,
    target: String,
    content_length: usize,
    keep_alive: bool,
}

fn parse_head(head: &str) -> Result<ParsedHead, String> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().ok_or_else(|| format!("bad HTTP request line `{request_line}`"))?;
    let version = parts.next().ok_or_else(|| format!("bad HTTP request line `{request_line}`"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(format!("bad HTTP request line `{request_line}`"));
    }
    // HTTP/1.0 defaults to close, HTTP/1.1 to keep-alive
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((key, value)) = line.split_once(':') else {
            return Err(format!("bad HTTP header line `{line}`"));
        };
        let value = value.trim();
        if key.eq_ignore_ascii_case("content-length") {
            let len =
                value.parse::<usize>().map_err(|_| format!("bad Content-Length `{value}`"))?;
            // RFC 9112 §6.3: differing lengths leave the body's end unknown
            if content_length.is_some_and(|seen| seen != len) {
                return Err("conflicting Content-Length headers".to_string());
            }
            content_length = Some(len);
        } else if key.eq_ignore_ascii_case("transfer-encoding") {
            // RFC 9112 §6.1: a coding this server cannot decode frames the
            // body some other way, so any bytes read as the next request
            // would be the peer's body
            return Err(format!("Transfer-Encoding `{value}` is not supported"));
        } else if key.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    Ok(ParsedHead {
        method: method.to_string(),
        target: target.to_string(),
        content_length: content_length.unwrap_or(0),
        keep_alive,
    })
}

type RouteError = (u16, &'static str, String);

/// How an endpoint builds its [`Request`].
enum Route {
    /// The endpoint *is* this request.
    Is(Request),
    /// From the query pairs; the request kind is the path without its `/`.
    Query,
    /// From a JSON body.
    Body,
}

/// Every endpoint: the method it answers to, its path, its request.
static ROUTES: [(&str, &str, Route); 6] = [
    ("GET", "/healthz", Route::Is(Request::Ping)),
    ("GET", "/stats", Route::Is(Request::CacheStats)),
    ("GET", "/recommend", Route::Query),
    ("GET", "/features", Route::Query),
    ("POST", "/shutdown", Route::Is(Request::Shutdown)),
    ("POST", "/rpc", Route::Body),
];

/// Map a parsed request line onto a typed [`Request`]. Routing failures
/// carry the status they should travel under: `404` for unknown paths,
/// `405` for a known path with the wrong method, `400` for bad queries.
fn request_for(method: &str, target: &str, body: Option<&str>) -> Result<Request, RouteError> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let Some((allowed, _, route)) = ROUTES.iter().find(|(_, known, _)| *known == path) else {
        return Err((404, "Not Found", format!("no such endpoint `{path}`")));
    };
    if *allowed != method {
        let message = format!("method {method} is not allowed on {path}");
        return Err((405, "Method Not Allowed", message));
    }
    let request = match route {
        Route::Is(request) => Ok(request.clone()),
        Route::Query => parse_query(query).and_then(|pairs| {
            Request::from_text(path.trim_start_matches('/'), "query parameter", |key| {
                pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
            })
        }),
        Route::Body => Request::from_json(body.unwrap_or_default()),
    };
    request.map_err(|e| (400, "Bad Request", e.to_string()))
}

/// Split and percent-decode a query string into key/value pairs. `+` is
/// *not* decoded to a space — graph paths legitimately contain `+`, and
/// curl does not form-encode query strings.
fn parse_query(query: &str) -> Result<Vec<(String, String)>, EaseError> {
    let mut pairs = Vec::new();
    for part in query.split('&') {
        if part.is_empty() {
            continue;
        }
        let (key, value) = part.split_once('=').unwrap_or((part, ""));
        pairs.push((percent_decode(key)?, percent_decode(value)?));
    }
    Ok(pairs)
}

fn percent_decode(s: &str) -> Result<String, EaseError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b == b'%' {
            match (
                bytes.get(i + 1).copied().and_then(hex_val),
                bytes.get(i + 2).copied().and_then(hex_val),
            ) {
                (Some(hi), Some(lo)) => {
                    out.push((hi << 4) | lo);
                    i += 3;
                }
                _ => return Err(proto_err(format!("bad percent-escape in `{s}`"))),
            }
        } else {
            out.push(b);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| proto_err(format!("percent-escapes in `{s}` are not UTF-8")))
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Write one HTTP/1.1 response carrying a JSON body — head and body in one
/// write, for the reason [`write_frame_v2`](super::protocol::write_frame_v2)
/// gives.
fn respond(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let message = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: {connection}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// One request/response exchange with an HTTP endpoint — the transport
/// behind `--endpoint http:<addr>`: POST the request's JSON envelope to
/// `/rpc`, decode the JSON envelope that comes back. Every [`Request`]
/// kind works, so `ease client` keeps its full vocabulary over HTTP.
pub fn call_http(addr: &str, request: &Request) -> Result<Response, EaseError> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(super::DEFAULT_IO_TIMEOUT)).ok();
    stream.set_write_timeout(Some(super::DEFAULT_IO_TIMEOUT)).ok();
    call_http_on(stream, addr, request)
}

/// [`call_http`] over an already-connected stream (tests drive it with
/// an in-memory pair).
fn call_http_on(
    mut stream: impl Read + Write,
    host: &str,
    request: &Request,
) -> Result<Response, EaseError> {
    let body = request.to_json();
    let message = format!(
        "POST /rpc HTTP/1.1\r\n\
         Host: {host}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()?;
    // `Connection: close` means the whole response is ours to drain, up to
    // the caps the daemon puts on a head and on a body
    let cap = MAX_HEAD_BYTES + MAX_FRAME_BYTES;
    let mut raw = Vec::new();
    Read::by_ref(&mut stream).take(cap as u64 + 1).read_to_end(&mut raw)?;
    if raw.len() > cap {
        return Err(proto_err(format!("HTTP response exceeds the {cap}-byte cap")));
    }
    let terminator = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| proto_err("HTTP response without a blank line after the headers"))?;
    let body = raw.get(terminator + 4..).unwrap_or_default();
    let text =
        std::str::from_utf8(body).map_err(|_| proto_err("HTTP response body is not UTF-8"))?;
    Response::from_json(text)
}

#[cfg(test)]
mod tests {
    use super::super::protocol::DEFAULT_TOP;
    use super::*;
    use crate::error::ServeError;
    use crate::selector::OptGoal;
    use ease_graph::PropertyTier;

    /// An in-memory duplex stream: reads drain `input` at most `chunk`
    /// bytes at a time, writes land in `output` and are counted.
    struct FakeStream {
        input: std::io::Cursor<Vec<u8>>,
        chunk: usize,
        output: Vec<u8>,
        writes: usize,
    }

    impl FakeStream {
        fn new(input: &[u8]) -> FakeStream {
            FakeStream {
                input: std::io::Cursor::new(input.to_vec()),
                chunk: usize::MAX,
                output: Vec::new(),
                writes: 0,
            }
        }

        fn wrote(&self) -> &str {
            std::str::from_utf8(&self.output).unwrap()
        }
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.input.read(&mut buf[..n])
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The connection's read buffer over `input`, the first two bytes
    /// pre-sniffed off the wire the way `server.rs` does.
    fn sniffed(raw: &[u8]) -> ([u8; 2], BufReader<FakeStream>) {
        ([raw[0], raw[1]], BufReader::new(FakeStream::new(&raw[2..])))
    }

    /// Drive [`serve_one`] over one request.
    fn drive(raw: &str, answer: Response) -> (String, Vec<Request>) {
        let (prefix, mut stream) = sniffed(raw.as_bytes());
        let mut seen = Vec::new();
        serve_one(&mut stream, prefix, &mut |request| {
            seen.push(request);
            Some(answer.clone())
        });
        (stream.get_ref().wrote().to_string(), seen)
    }

    #[test]
    fn healthz_maps_to_ping() {
        let (wire, seen) =
            drive("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", Response::Pong { version: 2 });
        assert_eq!(seen, vec![Request::Ping]);
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"), "got: {wire}");
        assert!(wire.contains("Content-Type: application/json"));
        assert!(wire.ends_with(r#"{"type":"pong","version":2}"#), "got: {wire}");
    }

    #[test]
    fn recommend_query_parses_every_parameter() {
        let (_, seen) = drive(
            "GET /recommend?graph=%2Fdata%2Fa%2Bb.bel&workload=pr&k=8&goal=processing\
             &top=3&cwd=%2Fsrv HTTP/1.1\r\n\r\n",
            Response::Answer("ok".into()),
        );
        assert_eq!(
            seen,
            vec![Request::Recommend {
                graph: "/data/a+b.bel".into(),
                workload: "pr".into(),
                k: Some(8),
                goal: OptGoal::ProcessingOnly,
                top: 3,
                cwd: Some("/srv".into()),
            }]
        );
    }

    #[test]
    fn recommend_defaults_match_the_cli() {
        let (_, seen) = drive(
            "GET /recommend?graph=g.txt&workload=cc HTTP/1.1\r\n\r\n",
            Response::Answer("ok".into()),
        );
        assert_eq!(
            seen,
            vec![Request::Recommend {
                graph: "g.txt".into(),
                workload: "cc".into(),
                k: None,
                goal: OptGoal::EndToEnd,
                top: DEFAULT_TOP,
                cwd: None,
            }]
        );
    }

    #[test]
    fn features_and_stats_and_shutdown_route() {
        let (_, seen) = drive(
            "GET /features?graph=g.bel&tier=basic HTTP/1.1\r\n\r\n",
            Response::Answer("ok".into()),
        );
        assert_eq!(
            seen,
            vec![Request::Features { graph: "g.bel".into(), tier: PropertyTier::Basic, cwd: None }]
        );
        let (_, seen) = drive("GET /stats HTTP/1.1\r\n\r\n", Response::Answer("ok".into()));
        assert_eq!(seen, vec![Request::CacheStats]);
        let (wire, seen) = drive("POST /shutdown HTTP/1.1\r\n\r\n", Response::ShuttingDown);
        assert_eq!(seen, vec![Request::Shutdown]);
        assert!(wire.contains("Connection: close"), "shutdown must close: {wire}");
    }

    #[test]
    fn rpc_post_carries_any_request_as_json() {
        let body = Request::CacheStats.to_json();
        let raw = format!("POST /rpc HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let (_, seen) = drive(&raw, Response::Answer("ok".into()));
        assert_eq!(seen, vec![Request::CacheStats]);
    }

    #[test]
    fn routing_failures_carry_typed_statuses() {
        // unknown path → 404, bad method → 405, bad query → 400; all keep
        // the worker alive and never reach the handler
        let (wire, seen) = drive("GET /nope HTTP/1.1\r\n\r\n", Response::Answer("x".into()));
        assert!(seen.is_empty());
        assert!(wire.starts_with("HTTP/1.1 404 Not Found\r\n"), "got: {wire}");
        let (wire, seen) = drive("GET /shutdown HTTP/1.1\r\n\r\n", Response::Answer("x".into()));
        assert!(seen.is_empty());
        assert!(wire.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"), "got: {wire}");
        let (wire, seen) =
            drive("GET /recommend?workload=pr HTTP/1.1\r\n\r\n", Response::Answer("x".into()));
        assert!(seen.is_empty());
        assert!(wire.starts_with("HTTP/1.1 400 Bad Request\r\n"), "got: {wire}");
        assert!(wire.contains("missing query parameter"), "got: {wire}");
        let (wire, _) = drive(
            "GET /recommend?graph=g&workload=pr&k=many HTTP/1.1\r\n\r\n",
            Response::Answer("x".into()),
        );
        assert!(wire.starts_with("HTTP/1.1 400 Bad Request\r\n"), "got: {wire}");
    }

    #[test]
    fn statuses_classify_responses() {
        assert_eq!(status_for(&Response::Answer("x".into())).0, 200);
        assert_eq!(status_for(&Response::Pong { version: 2 }).0, 200);
        assert_eq!(status_for(&Response::ShuttingDown).0, 200);
        assert_eq!(status_for(&Response::Overloaded { needed: 9, headroom: 1 }).0, 503);
        assert_eq!(status_for(&Response::Error("I/O error: no such file".into())).0, 404);
        assert_eq!(status_for(&Response::Error("unknown workload `x`".into())).0, 400);
    }

    #[test]
    fn malformed_heads_are_rejected_not_panicked() {
        for raw in [
            "GEX\r\n\r\n",
            "GET /healthz\r\n\r\n",
            "GET /healthz HTTP/2 extra\r\n\r\n",
            "GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n",
            "POST /rpc HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            // chunked framing is not decoded: the chunks must not be read
            // as the next request
            "POST /rpc HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            // the last of two lengths must not win and leave a smuggled
            // request in the buffer
            "POST /rpc HTTP/1.1\r\nContent-Length: 23\r\nContent-Length: 0\r\n\r\nPOST /shutdown HTTP/1.1",
        ] {
            let (prefix, mut stream) = sniffed(raw.as_bytes());
            let state = serve_one(&mut stream, prefix, &mut |_| {
                panic!("malformed request must not reach the executor")
            });
            assert!(matches!(state, SessionState::Close));
            let wrote = stream.get_ref().wrote();
            assert!(wrote.starts_with("HTTP/1.1 400"), "got: {wrote}");
        }
    }

    #[test]
    fn oversized_heads_are_rejected_before_buffering() {
        let raw = format!("GET /x?pad={} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        let (prefix, mut stream) = sniffed(raw.as_bytes());
        let state = serve_one(&mut stream, prefix, &mut |_| unreachable!());
        assert!(matches!(state, SessionState::Close));
        assert!(stream.get_ref().wrote().starts_with("HTTP/1.1 400"));
        assert!(stream.get_ref().wrote().contains("head exceeds"));
    }

    #[test]
    fn keep_alive_follows_the_version_and_header() {
        let (wire, _) = drive("GET /healthz HTTP/1.1\r\n\r\n", Response::Pong { version: 2 });
        assert!(wire.contains("Connection: keep-alive"), "got: {wire}");
        let (wire, _) = drive("GET /healthz HTTP/1.0\r\n\r\n", Response::Pong { version: 2 });
        assert!(wire.contains("Connection: close"), "got: {wire}");
        let (wire, _) = drive(
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            Response::Pong { version: 2 },
        );
        assert!(wire.contains("Connection: close"), "got: {wire}");
    }

    #[test]
    fn percent_decoding_round_trips_paths() {
        assert_eq!(percent_decode("a%20b").unwrap(), "a b");
        assert_eq!(percent_decode("%2Fdata%2Fg.bel").unwrap(), "/data/g.bel");
        assert_eq!(percent_decode("plus+stays").unwrap(), "plus+stays");
        assert_eq!(percent_decode("caf%C3%A9").unwrap(), "café");
        assert!(percent_decode("bad%2").is_err());
        assert!(percent_decode("bad%zz").is_err());
        assert!(percent_decode("%ff").is_err()); // lone continuation byte
    }

    #[test]
    fn http_client_round_trips_against_serve_one() {
        // drive the client's request bytes through the server loop and
        // its response bytes back through the client parser
        let request = Request::Recommend {
            graph: "g.txt".into(),
            workload: "pr".into(),
            k: Some(4),
            goal: OptGoal::EndToEnd,
            top: 2,
            cwd: Some("/srv".into()),
        };
        let mut client_out = FakeStream::new(&[]);
        // capture what the client would send (read_to_end sees EOF at once,
        // so the parse below fails; we only want the bytes)
        call_http_on(&mut client_out, "test", &request).unwrap_err();
        let (prefix, mut server) = sniffed(&client_out.output);
        let answer = Response::Answer("the answer\n".into());
        let reply = answer.clone();
        serve_one(&mut server, prefix, &mut |req| {
            assert_eq!(req, request);
            Some(reply.clone())
        });
        // now feed the server's bytes back through the client parser
        let mut client_in = FakeStream::new(&server.get_ref().output);
        let got = call_http_on(&mut client_in, "test", &Request::Ping);
        // the client wrote a fresh request into the void and parsed the
        // canned response; only the parse matters here
        assert_eq!(got.unwrap(), answer);
    }

    /// A peer that never stops sending: its read half is `io::repeat`.
    struct Flood(std::io::Repeat);

    impl Read for Flood {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for Flood {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn an_endless_reply_is_a_protocol_error_not_a_hang() {
        let got = call_http_on(Flood(std::io::repeat(b'x')), "test", &Request::Ping);
        assert!(matches!(got, Err(EaseError::Serve(ServeError::Protocol(_)))), "{got:?}");
    }

    #[test]
    fn every_message_leaves_in_one_write() {
        // answered, routing error, malformed head: one response, one write
        for raw in
            ["GET /healthz HTTP/1.1\r\n\r\n", "GET /nope HTTP/1.1\r\n\r\n", "GET /healthz\r\n\r\n"]
        {
            let (prefix, mut stream) = sniffed(raw.as_bytes());
            serve_one(&mut stream, prefix, &mut |_| Some(Response::Pong { version: 2 }));
            assert_eq!(stream.get_ref().writes, 1, "{raw:?} got: {}", stream.get_ref().wrote());
        }
        let mut client = FakeStream::new(&[]);
        call_http_on(&mut client, "test", &Request::CacheStats).unwrap_err();
        assert_eq!(client.writes, 1, "client request: {}", client.wrote());
        assert!(client.wrote().ends_with(&Request::CacheStats.to_json()));
    }

    #[test]
    fn a_head_arriving_a_byte_per_read_is_parsed() {
        let body = Request::Ping.to_json();
        let raw = format!("POST /rpc HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let (prefix, mut stream) = sniffed(raw.as_bytes());
        stream.get_mut().chunk = 1;
        let mut seen = Vec::new();
        let state = serve_one(&mut stream, prefix, &mut |request| {
            seen.push(request);
            Some(Response::Pong { version: 2 })
        });
        assert!(matches!(state, SessionState::KeepAlive));
        assert_eq!(seen, vec![Request::Ping]);
        assert!(stream.get_ref().wrote().starts_with("HTTP/1.1 200 OK\r\n"));
    }

    #[test]
    fn bytes_past_one_request_stay_buffered_for_the_next() {
        // three requests, one with a body, arrive in one read
        let body = Request::CacheStats.to_json();
        let raw = format!(
            "GET /healthz HTTP/1.1\r\n\r\n\
             POST /rpc HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}\
             GET /stats HTTP/1.1\r\n\r\n",
            body.len()
        );
        let (mut prefix, mut stream) = sniffed(raw.as_bytes());
        let mut seen = Vec::new();
        for _ in 0..3 {
            let state = serve_one(&mut stream, prefix, &mut |request| {
                seen.push(request);
                Some(Response::Pong { version: 2 })
            });
            assert!(matches!(state, SessionState::KeepAlive));
            // the next prefix comes out of the buffer, as `poll_prefix`
            // takes it
            prefix = [0; 2];
            if stream.read_exact(&mut prefix).is_err() {
                break;
            }
        }
        assert_eq!(seen, vec![Request::Ping, Request::CacheStats, Request::CacheStats]);
        assert_eq!(stream.get_ref().wrote().matches("HTTP/1.1 200 OK").count(), 3);
    }
}
