//! The daemon side of `ease serve`: endpoint binding, the accept loops,
//! and one generic connection loop shared by the unix and TCP listeners.
//!
//! Threading model (all bounds from [`ServeConfig`]):
//!
//! ```text
//! unix accept ─┐                         ┌─ connection worker ─┐
//!              ├─▶ bounded conn hand-off ┤  (sniffs v2/HTTP)   │
//!  tcp accept ─┘                         └─ connection worker ─┘
//!                                                 │ v2 + HTTP jobs
//!                                                 ▼
//!                                    bounded request queue
//!                                                 │
//!                                        request executors ──▶ the session's
//!                                                              reply channel
//! ```
//!
//! * **One reply shape.** Every job carries its session's reply channel,
//!   and an executor sends the typed `(id, Response)` down it: the HTTP
//!   session renders the JSON envelope and status, the v2 writer encodes
//!   the frame. Shutdown interception, the served counter and `Handler`
//!   dispatch are the executor's, so they are format-independent.
//! * **HTTP connections** (`GET `/`POST` sniffed exactly like a frame
//!   magic) run `serve/http.rs`'s keep-alive loop on the connection
//!   worker, waiting for each answer in turn.
//! * **v2 connections** (pipelined) turn their connection worker into a
//!   frame *reader*: each decoded request becomes a job on the shared
//!   executor queue, and a dedicated writer thread streams the replies
//!   back tagged with their request ids — out of order when a later
//!   request finishes first. The in-flight window is a channel of
//!   permits: the reader takes one per request, the writer returns it
//!   once the answer has left, so a client that stops reading blocks only
//!   its own reader, never the executors or the accept loops.
//! * **One write and one read buffer per message.** Every frame and every
//!   HTTP response leaves in a single write: the sockets run with
//!   `TCP_NODELAY`, so each write is a segment of its own, and a head
//!   written apart from its body wakes the peer twice. Every connection
//!   is read through one buffer, created where it is sniffed: a frame or
//!   an HTTP head costs one `read` however the peer segmented it, and
//!   bytes of the next message stay buffered for the next pass.
//! * **Shutdown** is a `SeqCst` flag re-checked at every blocking point
//!   (accept hand-off, idle frame reads, the in-flight window) within
//!   [`SHUTDOWN_POLL`], so a shutdown request drains the daemon promptly
//!   even when every worker is pinned and the hand-off queue is full.

use super::http;
use super::protocol::{
    read_frame_v2_after_magic, resolve_graph_path, write_frame_v2, Request, Response, ServeStats,
    FRAME_MAGIC_V2, PROTOCOL_VERSION,
};
use super::{Conn, ServeConfig, ServeSummary};
use crate::error::{EaseError, ServeError};
use crate::service::EaseService;
use ease_graph::{open_path, PropertyTier};
use ease_procsim::Workload;
use std::io::{BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked server internals re-check the shutdown flag. This
/// bounds the extra shutdown latency added by an idle or stalled peer —
/// the old code could park the accept thread (and any worker without an
/// I/O timeout) indefinitely.
pub const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// How long the accept thread sleeps between `try_send` retries while
/// the connection hand-off is full.
const HANDOFF_POLL: Duration = Duration::from_millis(1);

/// What a server *does* with a decoded request, separated from how
/// connections are accepted, sniffed, framed, pipelined and shut
/// down. The daemon answers locally ([`LocalHandler`] via [`serve`]);
/// the fleet router forwards to backends
/// ([`route`](crate::serve::router::route)). [`Request::Shutdown`]
/// never reaches a handler — the connection machinery intercepts it
/// (the flag and the accept-loop pokes are its business) and calls
/// [`Handler::on_shutdown`] so the handler can propagate it.
pub(crate) trait Handler: Send + Sync {
    /// Answer one request. `served_so_far` is the server's request
    /// counter at dispatch time (the `cache-stats` answer reports it).
    fn handle(&self, request: Request, served_so_far: u64) -> Response;

    /// Shutdown was requested — by a client frame or by the owning
    /// process. May be called more than once; implementations must be
    /// idempotent.
    fn on_shutdown(&self) {}
}

/// A connection behind its one read buffer (see the module docs);
/// writes go straight to the socket through `get_mut`.
type BufConn = BufReader<Box<dyn Conn>>;

/// One unit of executor work: a decoded request, the id to tag its
/// answer with (an HTTP session's is 0) and the owning session's reply
/// channel.
struct Job {
    id: u64,
    request: Request,
    reply: mpsc::SyncSender<(u64, Response)>,
}

struct Shared {
    /// What to do with decoded requests — the daemon's local answerer
    /// or the fleet router's forwarder. Everything else in here is
    /// connection machinery, identical for both.
    handler: Arc<dyn Handler>,
    socket: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
    /// Shutdown flag. Every access uses `SeqCst` (PR 6 bugfix: the
    /// store and the accept-loop load were `SeqCst` while
    /// `is_shutting_down` read `Relaxed`). The flag is a cold-path
    /// control signal read a few times per second per thread, so the
    /// strongest ordering costs nothing and buys the simplest
    /// contract: all threads observe the store in a single total
    /// order, and no flag load can be reordered ahead of the poke
    /// that published it.
    shutdown: AtomicBool,
    served: AtomicU64,
    io_timeout: Option<Duration>,
    /// flock guard on `<socket>.lock`, held for the daemon's lifetime
    /// (see [`bind_unix`]); the kernel releases it on drop or crash.
    _socket_lock: Option<std::fs::File>,
}

/// The daemon's request handler: answers queries against a local
/// [`EaseService`] (whose property cache also knows graph files by their
/// stat stamps) within the shared memory budget.
struct LocalHandler {
    service: Arc<EaseService>,
    /// Shared memory budget for per-request derived state (see
    /// [`ServeConfig::memory_budget`]): all concurrently-executing
    /// requests charge the same pool, so total daemon CSR heap stays
    /// bounded no matter how many workers analyze large graphs at once.
    memory_budget: Option<Arc<ease_graph::MemoryBudget>>,
}

impl Shared {
    fn is_shutting_down_now(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running daemon: the accept loop(s), the connection-worker pool
/// and the request-executor pool. Keep the handle and
/// [`ServerHandle::join`] it; dropping the handle leaves the threads
/// serving detached.
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// Every server thread, adopted ones included. Each ends on its own
    /// once shutdown is requested — the accept loops at the poke, the
    /// connection workers when the accept loops drop the hand-off, the
    /// executors when the last connection worker drops the request
    /// queue, adopted threads by contract — so the join order does not
    /// matter.
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The unix socket path, when one is bound.
    pub fn socket_path(&self) -> Option<&Path> {
        self.shared.socket.as_deref()
    }

    /// The actual TCP listen address, when one is bound (resolves
    /// port 0 to the ephemeral port the kernel picked).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.shared.tcp_addr
    }

    /// Requests answered so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed) // lint: relaxed-ok(monotonic stats counter)
    }

    /// Whether a shutdown has been requested (by a client or locally).
    pub fn is_shutting_down(&self) -> bool {
        // SeqCst like every other access to the flag — see `Shared`
        self.shared.is_shutting_down_now()
    }

    /// Request shutdown from the owning process (equivalent to a client
    /// sending [`Request::Shutdown`]).
    pub fn trigger_shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Hand the server an auxiliary thread to join during
    /// [`ServerHandle::join`] — the router parks its health checker
    /// here. The thread must exit once shutdown is requested.
    pub(crate) fn adopt_thread(&mut self, handle: JoinHandle<()>) {
        self.threads.push(handle);
    }

    /// Wait for the daemon to drain (a shutdown must have been
    /// requested, or this blocks until one is), then remove the socket
    /// file and return the final counters.
    pub fn join(self) -> Result<ServeSummary, EaseError> {
        let mut panicked = false;
        for thread in self.threads {
            panicked |= thread.join().is_err();
        }
        if let Some(socket) = &self.shared.socket {
            std::fs::remove_file(socket).ok();
        }
        // the `.lock` file stays on disk on purpose: unlinking a
        // lockfile reopens the classic relock race (another daemon
        // opens the old inode while a third creates a fresh file).
        // Its flock releases when `shared` drops.
        if panicked {
            return Err(ServeError::Protocol("a server thread panicked".into()).into());
        }
        // lint: relaxed-ok(all workers joined above; their counts are visible via the joins)
        Ok(ServeSummary { requests_served: self.shared.served.load(Ordering::Relaxed) })
    }
}

/// Flag the shutdown and poke every accept loop awake with a
/// throwaway connection (idempotent; errors ignored — the listeners
/// may already be gone).
fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // let the handler propagate (the router forwards Shutdown
    // fleet-wide); idempotent by the trait contract
    shared.handler.on_shutdown();
    if let Some(socket) = &shared.socket {
        UnixStream::connect(socket).ok();
    }
    if let Some(addr) = shared.tcp_addr {
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok();
    }
}

/// The lockfile guarding a socket path: `<socket>.lock` next to it.
fn lock_path_for(socket: &Path) -> PathBuf {
    let mut name =
        socket.file_name().map(|n| n.to_os_string()).unwrap_or_else(|| "ease.sock".into());
    name.push(".lock");
    socket.with_file_name(name)
}

/// Bind the unix socket behind a lifetime-held flock on
/// `<socket>.lock`. The flock closes the PR 5 TOCTOU: the old code
/// probed the socket, removed it when the probe failed, and bound —
/// two daemons racing the same path could both see a stale probe, and
/// the loser's `remove_file` would unlink the winner's freshly bound
/// live socket. Now probe+remove+bind happen only while holding the
/// exclusive lock, a second daemon fails `try_lock` with a typed
/// [`ServeError::Bind`] instead of unlinking anything, and a crashed
/// daemon's lock is released by the kernel automatically (no stale
/// lockfile problem — the file itself is never unlinked, only its
/// flock matters).
fn bind_unix(socket: &Path) -> Result<(std::fs::File, UnixListener), EaseError> {
    let bind_err = |message: String| {
        EaseError::from(ServeError::Bind { socket: socket.display().to_string(), message })
    };
    let lock_path = lock_path_for(socket);
    let lock =
        std::fs::File::options()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&lock_path)
            .map_err(|e| bind_err(format!("cannot open lockfile {}: {e}", lock_path.display())))?;
    match lock.try_lock() {
        Ok(()) => {}
        Err(std::fs::TryLockError::WouldBlock) => {
            return Err(bind_err("another daemon is already serving this socket".into()));
        }
        Err(std::fs::TryLockError::Error(e)) => {
            return Err(bind_err(format!("cannot lock {}: {e}", lock_path.display())));
        }
    }
    // Holding the flock, no *ease* daemon can race this section; the
    // probe still catches a foreign process squatting the path.
    if socket.exists() {
        if UnixStream::connect(socket).is_ok() {
            return Err(bind_err("another daemon is already serving this socket".into()));
        }
        std::fs::remove_file(socket)
            .map_err(|e| bind_err(format!("cannot replace stale socket file: {e}")))?;
    }
    let listener = UnixListener::bind(socket).map_err(|e| bind_err(e.to_string()))?;
    Ok((lock, listener))
}

/// Bind the configured endpoints and start serving `service`. Returns
/// once the daemon is accepting (a client connecting after this call
/// will be served). A stale socket file from a dead daemon is
/// replaced; a *live* daemon on the same path is a typed
/// [`ServeError::Bind`].
pub fn serve(service: Arc<EaseService>, config: ServeConfig) -> Result<ServerHandle, EaseError> {
    let handler = Arc::new(LocalHandler { service, memory_budget: config.memory_budget.clone() });
    serve_with_handler(handler, config)
}

/// [`serve`] with the request handler abstracted: the whole listening
/// stack — endpoint binding, accept loops, magic sniffing, the v2 and
/// HTTP session loops, pipelining, backpressure and shutdown — runs
/// unchanged whether requests are answered locally (the daemon) or
/// forwarded to a backend fleet (the router).
pub(crate) fn serve_with_handler(
    handler: Arc<dyn Handler>,
    config: ServeConfig,
) -> Result<ServerHandle, EaseError> {
    if config.socket.is_none() && config.tcp.is_none() {
        return Err(EaseError::InvalidConfig(
            "serve needs a unix socket path or a TCP listen address".into(),
        ));
    }
    let (socket_lock, unix_listener) = match &config.socket {
        Some(socket) => {
            let (lock, listener) = bind_unix(socket)?;
            (Some(lock), Some(listener))
        }
        None => (None, None),
    };
    let tcp_listener = match &config.tcp {
        Some(addr) => Some(
            TcpListener::bind(addr)
                .map_err(|e| ServeError::Bind { socket: addr.clone(), message: e.to_string() })?,
        ),
        None => None,
    };
    let tcp_addr = tcp_listener.as_ref().and_then(|l| l.local_addr().ok());
    let workers = config.workers.max(2);
    let shared = Arc::new(Shared {
        handler,
        socket: config.socket.clone(),
        tcp_addr,
        shutdown: AtomicBool::new(false),
        served: AtomicU64::new(0),
        io_timeout: config.io_timeout,
        _socket_lock: socket_lock,
    });

    // Request executors: every pipelined request, from every
    // connection, is executed here — so one connection's requests run
    // concurrently (out-of-order completion) and the compute
    // concurrency bound is global, not per transport.
    let (req_tx, req_rx) = mpsc::sync_channel::<Job>(workers * 2);
    let req_rx = Arc::new(Mutex::new(req_rx));
    let mut threads = Vec::with_capacity(2 * workers + 2);
    for _ in 0..workers {
        let req_rx = Arc::clone(&req_rx);
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || loop {
            let next = req_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
            // all connection workers gone: drained
            let Ok(job) = next else { break };
            // a send error just means the session already wound down;
            // a pipelined one's permit guarantees the send fits, an HTTP
            // one is waiting on this answer
            job.reply.send((job.id, answer(job.request, &shared))).ok();
        }));
    }

    // Bounded hand-off: accepts queue here once every connection
    // worker is busy, so a flood of clients waits in the listen
    // backlog instead of ballooning daemon memory.
    let (conn_tx, conn_rx) = mpsc::sync_channel::<Box<dyn Conn>>(workers * 2);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    for _ in 0..workers {
        let conn_rx = Arc::clone(&conn_rx);
        let shared = Arc::clone(&shared);
        let req_tx = req_tx.clone();
        threads.push(std::thread::spawn(move || loop {
            let next = conn_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
            match next {
                Ok(stream) => handle_connection(stream, &shared, &req_tx),
                Err(_) => break, // accept loops gone: drained, exit
            }
        }));
    }
    // executors exit (after draining) once every connection worker
    // has dropped its queue sender
    drop(req_tx);

    if let Some(listener) = unix_listener {
        let tx = conn_tx.clone();
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(
                || listener.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
                &tx,
                &shared,
            )
        }));
    }
    if let Some(listener) = tcp_listener {
        let tx = conn_tx.clone();
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(
                || {
                    listener.accept().map(|(s, _)| {
                        // request/response frames are small; Nagle
                        // would add artificial latency to every answer
                        s.set_nodelay(true).ok();
                        Box::new(s) as Box<dyn Conn>
                    })
                },
                &tx,
                &shared,
            )
        }));
    }
    drop(conn_tx);
    Ok(ServerHandle { shared, threads })
}

fn accept_loop(
    mut accept: impl FnMut() -> std::io::Result<Box<dyn Conn>>,
    tx: &mpsc::SyncSender<Box<dyn Conn>>,
    shared: &Shared,
) {
    loop {
        if shared.is_shutting_down_now() {
            break;
        }
        match accept() {
            Ok(conn) => {
                if !hand_off(tx, conn, shared) {
                    break;
                }
            }
            Err(_) => {
                // accept can fail persistently (fd exhaustion:
                // EMFILE/ENFILE); back off briefly instead of
                // spinning a core until descriptors free up
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // dropping `tx` (and the listener) lets workers drain and exit
}

/// Shutdown-aware bounded hand-off (PR 6 bugfix). The old code parked
/// the accept thread in a blocking `send` once every worker was busy
/// and the buffer full; the shutdown poke then landed in the listen
/// backlog and shutdown latency was unbounded. `try_send` plus a
/// short sleep re-checks the flag, so shutdown interrupts a full
/// queue within ~1 ms. Returns `false` when accepting should stop.
fn hand_off(
    tx: &mpsc::SyncSender<Box<dyn Conn>>,
    mut conn: Box<dyn Conn>,
    shared: &Shared,
) -> bool {
    loop {
        if shared.is_shutting_down_now() {
            return false;
        }
        conn = match tx.try_send(conn) {
            Ok(()) => return true,
            Err(mpsc::TrySendError::Full(conn)) => conn,
            Err(mpsc::TrySendError::Disconnected(_)) => return false,
        };
        std::thread::sleep(HANDOFF_POLL);
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read the two bytes that open the next frame or HTTP request,
/// polling in [`SHUTDOWN_POLL`] slices so a peer that is merely *idle*
/// cannot pin the thread across a shutdown (PR 6 bugfix: workers used
/// to block in `read_exact` until the full I/O timeout — forever, with
/// the timeout disabled). `evict_after` bounds how long an idle peer
/// may hold the connection: a fresh or HTTP keep-alive connection
/// passes the I/O timeout (a peer that never sends a byte is evicted),
/// pipelined sessions pass `None` (idling between requests is
/// legitimate). `None` means the connection is done: EOF, a dead
/// socket, an evicted peer, or shutdown. Bytes already in the buffer
/// are taken without touching the socket; only an empty buffer
/// switches the read timeout to the poll slice, and on `Some` it is
/// back at the configured I/O timeout for the rest of the message.
fn poll_prefix(
    stream: &mut BufConn,
    shared: &Shared,
    evict_after: Option<Duration>,
) -> Option<[u8; 2]> {
    let start = std::time::Instant::now();
    let mut polling = false;
    let mut prefix = [0u8; 2];
    let mut filled = 0;
    while let Some(rest) = prefix.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        if shared.is_shutting_down_now() {
            return None;
        }
        if !polling && stream.buffer().is_empty() {
            stream.get_ref().set_read_timeout_conn(Some(SHUTDOWN_POLL));
            polling = true;
        }
        match stream.read(rest) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => {
                if evict_after.is_some_and(|limit| start.elapsed() >= limit) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    if polling {
        stream.get_ref().set_read_timeout_conn(shared.io_timeout);
    }
    Some(prefix)
}

/// One connection: sniff the first message's two-byte prefix and
/// dispatch to the pipelined (v2) or HTTP session loop. Any other
/// peer gets a best-effort [`Response::Error`] and a closed
/// connection; nothing in here can panic the worker on user input.
fn handle_connection(stream: Box<dyn Conn>, shared: &Arc<Shared>, req_tx: &mpsc::SyncSender<Job>) {
    stream.set_write_timeout_conn(shared.io_timeout);
    let mut stream = BufReader::new(stream);
    // a bare connect/close (e.g. the shutdown poke, or a port probe)
    // is not worth an error frame
    let Some(prefix) = poll_prefix(&mut stream, shared, shared.io_timeout) else { return };
    match prefix {
        FRAME_MAGIC_V2 => pipelined_session(stream, shared, req_tx),
        http::SNIFF_GET | http::SNIFF_POST => http_session(stream, prefix, shared, req_tx),
        [a, b] => {
            // non-protocol peer: answer with an error frame (id 0 — it
            // never got to choose one) if it is still listening
            let [m0, m1] = FRAME_MAGIC_V2;
            let msg = format!(
                "serve error: protocol violation: bad frame magic {a:02x}{b:02x} \
                 (expected {m0:02x}{m1:02x} or an HTTP GET/POST)"
            );
            write_frame_v2(stream.get_mut(), 0, &Response::Error(msg).encode_binary()).ok();
        }
    }
}

/// HTTP: serve requests sequentially on this connection (keep-alive),
/// each executed on the shared executor pool through the same
/// [`answer`] path as the binary protocol — so `Shutdown`
/// interception, the served counter and the `Handler` dispatch are
/// identical across both wire formats.
fn http_session(
    mut stream: BufConn,
    mut prefix: [u8; 2],
    shared: &Arc<Shared>,
    req_tx: &mpsc::SyncSender<Job>,
) {
    // rendezvous of one: the session waits for each answer in turn
    let (reply, replies) = mpsc::sync_channel(1);
    loop {
        let mut submit = |request: Request| -> Option<Response> {
            shared.served.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(monotonic stats counter)
            req_tx.send(Job { id: 0, request, reply: reply.clone() }).ok()?;
            replies.recv().ok().map(|(_, response)| response)
        };
        if matches!(http::serve_one(&mut stream, prefix, &mut submit), http::SessionState::Close) {
            break;
        }
        // keep-alive: a peer that switches wire formats mid-connection
        // is desynced; close rather than guess
        match poll_prefix(&mut stream, shared, shared.io_timeout) {
            Some(next @ (http::SNIFF_GET | http::SNIFF_POST)) => prefix = next,
            _ => break,
        }
    }
}

/// v2: this connection worker becomes the session's frame reader.
/// Every decoded request takes a permit of the per-connection window and
/// executes on the shared executor pool; a dedicated writer thread
/// streams the replies back as they complete, tagged with their request
/// ids, and returns each permit once its answer has left.
fn pipelined_session(mut reader: BufConn, shared: &Arc<Shared>, req_tx: &mpsc::SyncSender<Job>) {
    let Ok(writer_stream) = reader.get_ref().try_clone_conn() else { return };
    // the writer must stay joinable for graceful drain, so pipelined
    // sessions keep a write timeout even when io_timeout is disabled
    writer_stream.set_write_timeout_conn(shared.io_timeout.or(Some(super::DEFAULT_IO_TIMEOUT)));
    let window = super::DEFAULT_PIPELINE_IN_FLIGHT;
    // a reply is only ever sent under a permit, so the reply channel,
    // as long as the window, never blocks an executor
    let (reply, replies) = mpsc::sync_channel(window);
    let (permit_back, permits) = mpsc::sync_channel(window);
    for _ in 0..window {
        permit_back.try_send(()).ok();
    }
    let writer = std::thread::spawn(move || writer_loop(writer_stream, replies, permit_back));
    // every pass starts after a frame's magic: the sniffer consumed
    // the first one, the bottom of the loop the later ones; a
    // truncated or oversized frame means a desynced peer
    while let Ok((id, payload)) = read_frame_v2_after_magic(&mut reader) {
        // admission: blocks while the window is empty of permits, so a
        // client that stopped reading throttles only itself
        if !take_permit(&permits, shared) {
            break;
        }
        let sent = match Request::decode_binary(&payload) {
            Ok(request) => {
                shared.served.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(monotonic stats counter)
                req_tx.send(Job { id, request, reply: reply.clone() }).is_ok()
            }
            // a malformed payload in a well-framed request is
            // answerable: the error goes back under its id
            Err(e) => reply.send((id, Response::Error(e.to_string()))).is_ok(),
        };
        // executors gone (shutdown drained past us) or the writer gone
        if !sent {
            break;
        }
        // a desynced peer, EOF, a dead socket, or shutdown all end
        // the session
        if poll_prefix(&mut reader, shared, None) != Some(FRAME_MAGIC_V2) {
            break;
        }
    }
    // executors processing this connection's jobs hold `reply` clones;
    // the writer drains every outstanding answer and exits when the
    // last clone drops
    drop(reply);
    writer.join().ok();
}

/// Take one permit of the window, re-checking the shutdown flag every
/// [`SHUTDOWN_POLL`] while none is free. `false` means stop reading: a
/// full window during shutdown means the client stopped reading, and it
/// must not pin the reader.
fn take_permit(permits: &mpsc::Receiver<()>, shared: &Shared) -> bool {
    loop {
        match permits.recv_timeout(SHUTDOWN_POLL) {
            Ok(()) => return true,
            Err(mpsc::RecvTimeoutError::Timeout) if !shared.is_shutting_down_now() => {}
            Err(_) => return false,
        }
    }
}

fn writer_loop(
    mut stream: Box<dyn Conn>,
    replies: mpsc::Receiver<(u64, Response)>,
    permit_back: mpsc::SyncSender<()>,
) {
    let mut dead = false;
    while let Ok((id, response)) = replies.recv() {
        // client gone or stalled past the write timeout: keep draining
        // so permits return and the reader winds down
        dead = dead || write_frame_v2(&mut stream, id, &response.encode_binary()).is_err();
        permit_back.try_send(()).ok();
    }
}

fn answer(request: Request, shared: &Shared) -> Response {
    match request {
        // Shutdown is the connection machinery's business — the flag,
        // the accept-loop pokes, the handler notification — so it
        // never reaches `Handler::handle`
        Request::Shutdown => {
            request_shutdown(shared);
            Response::ShuttingDown
        }
        // lint: relaxed-ok(monotonic stats counter)
        other => shared.handler.handle(other, shared.served.load(Ordering::Relaxed)),
    }
}

impl Handler for LocalHandler {
    fn handle(&self, request: Request, served_so_far: u64) -> Response {
        match request {
            Request::Ping => Response::Pong { version: PROTOCOL_VERSION },
            Request::Recommend { graph, workload, k, goal, top, cwd } => {
                match self.recommend_answer(&graph, &workload, k, goal, top, &cwd) {
                    Ok(text) => Response::Answer(text),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Features { graph, tier, cwd } => {
                match self.features_answer(&graph, tier, &cwd) {
                    Ok(text) => Response::Answer(text),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::CacheStats => {
                let cache = self.service.property_cache_stats();
                Response::CacheStats(ServeStats {
                    hits: cache.hits,
                    misses: cache.misses,
                    evictions: cache.evictions,
                    len: cache.len,
                    capacity: cache.capacity,
                    requests_served: served_so_far,
                    memory_budget_remaining: self
                        .memory_budget
                        .as_ref()
                        .map(|b| b.remaining() as u64),
                    spilled_csr_builds: self.memory_budget.as_ref().map_or(0, |b| b.spill_events()),
                })
            }
            // intercepted by `answer` before dispatch; acknowledging
            // is still the honest reply if one ever slips through
            Request::Shutdown => Response::ShuttingDown,
        }
    }
}

impl LocalHandler {
    /// Answer a recommend query. A repeat query on an unchanged file
    /// skips the graph open and the `O(|E|)` content hash: the service's
    /// property cache knows the file by its stat stamp (see
    /// [`EaseService::file_properties`]). Warm queries are the daemon's
    /// whole reason to exist, and the open+hash — not the model — would
    /// dominate them.
    fn recommend_answer(
        &self,
        graph: &str,
        workload: &str,
        k: Option<usize>,
        goal: crate::selector::OptGoal,
        top: usize,
        cwd: &Option<String>,
    ) -> Result<String, EaseError> {
        let service = &self.service;
        let workload = Workload::from_name(workload)
            .ok_or_else(|| EaseError::InvalidConfig(format!("unknown workload `{workload}`")))?;
        let k = k.unwrap_or(service.meta().default_k);
        // resolve against the client's cwd, but display the path as the
        // client wrote it (one-shot answer parity)
        let path = resolve_graph_path(graph, cwd.as_deref());
        let props = service.file_properties(&path, self.memory_budget.as_ref())?;
        let selection = service.ease().try_select(&props, workload, k, goal)?;
        Ok(super::render_selection(graph, &props, workload, k, top, selection))
    }

    fn features_answer(
        &self,
        graph: &str,
        tier: PropertyTier,
        cwd: &Option<String>,
    ) -> Result<String, EaseError> {
        let source = open_path(&resolve_graph_path(graph, cwd.as_deref()))?;
        super::render_features(graph, source.as_ref(), tier, self.memory_budget.as_ref())
    }
}
