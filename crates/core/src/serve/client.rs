//! Client side of the serve protocol: pipelined v2 sessions over a unix
//! socket or TCP, and one-request calls over any [`Endpoint`].
//!
//! A [`PipelinedClient`] keeps one connection open across many requests:
//! [`PipelinedClient::send`] tags each request with a fresh `u64` id and
//! returns immediately, responses come back whenever the daemon finishes
//! them — possibly out of order — and [`PipelinedClient::recv`] matches
//! them back up, parking any responses that arrive for other ids.
//! [`call_pipelined`] drives a whole batch through a bounded window,
//! which matters: a client that wrote an unbounded burst without reading
//! would deadlock against the daemon's per-connection in-flight cap
//! (both sides blocked on full buffers). Keeping the window at or below
//! the server's [`super::DEFAULT_PIPELINE_IN_FLIGHT`] keeps the pipe
//! moving by construction.

use super::protocol::{proto_err, read_frame_v2, write_frame_v2, Request, Response};
use super::Conn;
use crate::error::EaseError;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// Where a daemon lives: a unix socket path, a TCP address (binary v2),
/// or an HTTP address (the JSON facade on the same listener).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP `host:port` address, spoken to with the binary v2 protocol.
    Tcp(String),
    /// TCP `host:port` address, spoken to over HTTP + JSON. Same
    /// listener as [`Endpoint::Tcp`] — the daemon sniffs the format per
    /// connection.
    Http(String),
}

impl Endpoint {
    pub fn unix(socket: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Unix(socket.into())
    }

    pub fn tcp(addr: impl Into<String>) -> Endpoint {
        Endpoint::Tcp(addr.into())
    }

    pub fn http(addr: impl Into<String>) -> Endpoint {
        Endpoint::Http(addr.into())
    }

    /// Parse the scheme-prefixed endpoint spelling every CLI surface
    /// shares: `unix:<path>`, `tcp:<host:port>`, or `http:<host:port>`
    /// (a tolerated `http://<host:port>` means the same). Anything else,
    /// a bare `host:port` or path included, is a typed error naming the
    /// accepted forms.
    pub fn parse(spec: &str) -> Result<Endpoint, EaseError> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(proto_err("empty unix socket path in endpoint"));
            }
            return Ok(Endpoint::unix(path));
        }
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(proto_err("empty TCP address in endpoint"));
            }
            return Ok(Endpoint::tcp(addr));
        }
        if let Some(rest) = spec.strip_prefix("http:") {
            let addr = rest.strip_prefix("//").unwrap_or(rest);
            if addr.is_empty() {
                return Err(proto_err("empty HTTP address in endpoint"));
            }
            return Ok(Endpoint::http(addr));
        }
        Err(proto_err(format!(
            "bad endpoint `{spec}` (expected unix:<path>, tcp:<host:port>, or http:<host:port>)"
        )))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Http(addr) => write!(f, "http:{addr}"),
        }
    }
}

fn connect(endpoint: &Endpoint) -> Result<Box<dyn Conn>, EaseError> {
    match endpoint {
        Endpoint::Unix(socket) => Ok(Box::new(UnixStream::connect(socket)?)),
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr)?;
            // frames are small and latency-sensitive; Nagle would delay
            // every request behind the previous ACK
            stream.set_nodelay(true).ok();
            Ok(Box::new(stream))
        }
        // the JSON facade is request/response over `call_endpoint`; a v2
        // session against it would misframe on the first byte
        Endpoint::Http(_) => Err(proto_err(
            "pipelined sessions need a binary endpoint (unix:<path> or tcp:<host:port>); \
             http: endpoints answer one request per call",
        )),
    }
}

/// One request/response exchange with a daemon on the unix socket at
/// `socket` — [`call_endpoint`] for callers that hold a bare path.
pub fn call(socket: &Path, request: &Request) -> Result<Response, EaseError> {
    call_endpoint(&Endpoint::unix(socket), request)
}

/// One request/response exchange with a daemon at `endpoint`. Unix and
/// TCP endpoints open a one-request v2 session; HTTP endpoints POST the
/// JSON envelope to `/rpc` — same answers every way, the daemon renders
/// all of them through the same code.
pub fn call_endpoint(endpoint: &Endpoint, request: &Request) -> Result<Response, EaseError> {
    match endpoint {
        Endpoint::Http(addr) => super::http::call_http(addr, request),
        binary => PipelinedClient::connect(binary)?.call(request),
    }
}

/// A v2 session: one connection, many requests in flight, responses
/// matched back to their ids. Not `Sync` — one session belongs to one
/// thread; open more sessions for more concurrency. It is the two halves
/// [`Self::split`] hands out plus the parked responses: requests go
/// straight to the socket through a duplicate of its handle, frames are
/// read through one buffer, so a response costs one `read` and responses
/// that arrive together are decoded without going back to the socket.
pub struct PipelinedClient {
    sender: PipelinedSender,
    receiver: PipelinedReceiver,
    /// Responses that arrived while [`Self::recv`] was waiting for a
    /// different id, kept in arrival order.
    parked: Vec<(u64, Response)>,
}

impl PipelinedClient {
    pub fn connect(endpoint: &Endpoint) -> Result<PipelinedClient, EaseError> {
        PipelinedClient::over(connect(endpoint)?)
    }

    /// A fresh session over `conn`: the receiver keeps `conn` behind the
    /// read buffer, the sender writes to a duplicate of its handle.
    fn over(conn: Box<dyn Conn>) -> Result<PipelinedClient, EaseError> {
        let sender = PipelinedSender { stream: conn.try_clone_conn()?, next_id: 0 };
        let receiver = PipelinedReceiver { stream: BufReader::new(conn) };
        Ok(PipelinedClient { sender, receiver, parked: Vec::new() })
    }

    /// Write one request frame and return the id its response will carry.
    /// Does not wait for the answer — that is the point.
    pub fn send(&mut self, request: &Request) -> Result<u64, EaseError> {
        self.sender.send(request)
    }

    /// Next response in arrival order (parked responses first), whatever
    /// request it answers.
    pub fn recv_any(&mut self) -> Result<(u64, Response), EaseError> {
        if !self.parked.is_empty() {
            return Ok(self.parked.remove(0));
        }
        self.receiver.recv_any()
    }

    /// The response to request `want`, parking any responses that arrive
    /// for other in-flight requests along the way.
    pub fn recv(&mut self, want: u64) -> Result<Response, EaseError> {
        if let Some(at) = self.parked.iter().position(|(id, _)| *id == want) {
            return Ok(self.parked.remove(at).1);
        }
        loop {
            let (id, response) = self.receiver.recv_any()?;
            if id == want {
                return Ok(response);
            }
            self.parked.push((id, response));
        }
    }

    /// Synchronous convenience: send one request, wait for its answer.
    pub fn call(&mut self, request: &Request) -> Result<Response, EaseError> {
        let id = self.send(request)?;
        self.recv(id)
    }

    /// Split a fresh session into independently usable halves over the
    /// same connection: one thread can keep sending while another blocks
    /// in [`PipelinedReceiver::recv_any`] — the shape a multiplexing proxy
    /// needs. The receiver keeps the read buffer, so a response already
    /// read off the socket is still delivered. Refuses to split a session
    /// with parked responses: those belong to the unified [`Self::recv`]
    /// bookkeeping.
    pub fn split(self) -> Result<(PipelinedSender, PipelinedReceiver), EaseError> {
        if !self.parked.is_empty() {
            return Err(proto_err("split a fresh session, not one with parked responses"));
        }
        Ok((self.sender, self.receiver))
    }
}

/// The write half of a split [`PipelinedClient`]: tags and sends request
/// frames, never reads.
pub struct PipelinedSender {
    stream: Box<dyn Conn>,
    next_id: u64,
}

impl PipelinedSender {
    /// Write one request frame and return the id its response will carry
    /// (on the paired [`PipelinedReceiver`]).
    pub fn send(&mut self, request: &Request) -> Result<u64, EaseError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame_v2(&mut self.stream, id, &request.encode_binary())?;
        Ok(id)
    }
}

/// The read half of a split [`PipelinedClient`]: yields responses in
/// arrival order, never writes.
pub struct PipelinedReceiver {
    stream: BufReader<Box<dyn Conn>>,
}

impl PipelinedReceiver {
    /// Next response off the wire, whatever request it answers.
    pub fn recv_any(&mut self) -> Result<(u64, Response), EaseError> {
        let (id, payload) = read_frame_v2(&mut self.stream)?;
        Ok((id, Response::decode_binary(&payload)?))
    }
}

/// Drive a batch of requests through one pipelined connection, keeping up
/// to `window` of them in flight, and return the responses in request
/// order. `window` should not exceed the daemon's per-connection
/// in-flight cap ([`super::DEFAULT_PIPELINE_IN_FLIGHT`]) — the bounded
/// window is what prevents a write-everything-then-read deadlock against
/// the daemon's own backpressure.
pub fn call_pipelined(
    endpoint: &Endpoint,
    requests: &[Request],
    window: usize,
) -> Result<Vec<Response>, EaseError> {
    let window = window.max(1);
    let mut client = PipelinedClient::connect(endpoint)?;
    let mut responses: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
    let mut index_of: HashMap<u64, usize> = HashMap::with_capacity(window);
    let mut sent = 0;
    let mut done = 0;
    while done < requests.len() {
        while sent - done < window {
            let Some(request) = requests.get(sent) else { break };
            let id = client.send(request)?;
            index_of.insert(id, sent);
            sent += 1;
        }
        let (id, response) = client.recv_any()?;
        let slot = index_of
            .remove(&id)
            .and_then(|at| responses.get_mut(at))
            .ok_or_else(|| proto_err(format!("unexpected response for request id {id}")))?;
        *slot = Some(response);
        done += 1;
    }
    let out: Vec<Response> = responses.into_iter().flatten().collect();
    if out.len() != requests.len() {
        return Err(proto_err("pipelined bookkeeping hole: a request went unanswered"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn endpoint_parse_accepts_all_three_schemes() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/ease.sock").unwrap(),
            Endpoint::unix("/tmp/ease.sock")
        );
        assert_eq!(Endpoint::parse("tcp:127.0.0.1:7070").unwrap(), Endpoint::tcp("127.0.0.1:7070"));
        assert_eq!(
            Endpoint::parse("http:127.0.0.1:7070").unwrap(),
            Endpoint::http("127.0.0.1:7070")
        );
    }

    #[test]
    fn endpoint_parse_tolerates_url_style_http() {
        assert_eq!(
            Endpoint::parse("http://127.0.0.1:7070").unwrap(),
            Endpoint::http("127.0.0.1:7070")
        );
    }

    #[test]
    fn endpoint_parse_rejects_bare_paths_and_empty_values() {
        // a bare host:port is no TCP endpoint: every form carries its scheme
        let bare = ["localhost:7070", "127.0.0.1:7070", "/tmp/ease.sock", "just-a-name"];
        for bad in bare.into_iter().chain(["unix:", "tcp:", "http:", "http://"]) {
            let err = Endpoint::parse(bad).unwrap_err().to_string();
            assert!(err.contains("protocol violation"), "{bad}: {err}");
        }
    }

    #[test]
    fn endpoint_display_round_trips_through_parse() {
        for spec in ["unix:/tmp/e.sock", "tcp:10.0.0.1:99", "http:10.0.0.1:99"] {
            let endpoint = Endpoint::parse(spec).unwrap();
            assert_eq!(endpoint.to_string(), spec);
            assert_eq!(Endpoint::parse(&endpoint.to_string()).unwrap(), endpoint);
        }
    }

    #[test]
    fn pipelined_sessions_refuse_http_endpoints() {
        let err = match PipelinedClient::connect(&Endpoint::http("127.0.0.1:1")) {
            Ok(_) => panic!("http endpoint must not open a pipelined session"),
            Err(err) => err.to_string(),
        };
        assert!(err.contains("binary endpoint"), "{err}");
    }

    #[test]
    fn split_hands_the_receiver_what_the_buffer_already_holds() {
        use super::super::protocol::read_frame_v2;
        let (near, mut far) = UnixStream::pair().unwrap();
        near.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut client = PipelinedClient::over(Box::new(near)).unwrap();
        let id = client.send(&Request::Ping).unwrap();
        assert_eq!(read_frame_v2(&mut far).unwrap().0, id);
        // two answers in one write: the read that takes the first buffers
        // the second
        let mut wire = Vec::new();
        write_frame_v2(&mut wire, id, &Response::Pong { version: 2 }.encode_binary()).unwrap();
        write_frame_v2(&mut wire, 77, &Response::ShuttingDown.encode_binary()).unwrap();
        far.write_all(&wire).unwrap();
        assert_eq!(client.recv(id).unwrap(), Response::Pong { version: 2 });
        assert!(!client.receiver.stream.buffer().is_empty(), "the second frame is buffered");
        let (mut tx, mut rx) = client.split().unwrap();
        assert_eq!(rx.recv_any().unwrap(), (77, Response::ShuttingDown));
        // and the write half still reaches the peer
        let next = tx.send(&Request::CacheStats).unwrap();
        assert_eq!(read_frame_v2(&mut far).unwrap(), (next, Request::CacheStats.encode_binary()));
    }
}
