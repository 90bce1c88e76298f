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
//!                                        request executors ──▶ per-connection
//!                                                              writer thread
//! ```
//!
//! * **HTTP connections** (`GET `/`POST` sniffed exactly like a frame
//!   magic) run `serve/http.rs`'s keep-alive loop on the connection
//!   worker; each parsed request executes on the shared executor pool
//!   through the same `answer` path, so shutdown interception, the served
//!   counter and `Handler` dispatch are format-independent.
//! * **v2 connections** (pipelined) turn their connection worker into a
//!   frame *reader*: each decoded request becomes a job on the shared
//!   executor queue, and a dedicated writer thread streams completed
//!   responses back tagged with their request ids — out of order when a
//!   later request finishes first. A bounded in-flight window per
//!   connection provides backpressure: a client that stops reading blocks
//!   only its own reader, never the executors or the accept loops.
//! * **Shutdown** is a `SeqCst` flag re-checked at every blocking point
//!   (accept hand-off, idle frame reads, the in-flight window) within
//!   [`SHUTDOWN_POLL`], so a shutdown request drains the daemon promptly
//!   even when every worker is pinned and the hand-off queue is full.

use super::http;
use super::protocol::{
    read_frame_v2_after_magic, resolve_graph_path, write_frame_v2, Request, Response, ServeStats,
    FRAME_MAGIC_V2, PROTOCOL_VERSION,
};
use super::{ServeConfig, ServeSummary};
use crate::error::EaseError;
use crate::service::EaseService;
use std::path::Path;
use std::sync::Arc;

/// How often blocked server internals re-check the shutdown flag. This
/// bounds the extra shutdown latency added by an idle or stalled peer —
/// the old code could park the accept thread (and any worker without an
/// I/O timeout) indefinitely.
pub const SHUTDOWN_POLL: std::time::Duration = std::time::Duration::from_millis(100);

#[cfg(unix)]
pub use unix_server::{serve, ServerHandle};
#[cfg(unix)]
pub(crate) use unix_server::{serve_with_handler, Handler};

#[cfg(unix)]
mod unix_server {
    use super::*;
    use crate::error::ServeError;
    use ease_graph::{open_path, PreparedGraph, PropertyTier};
    use ease_procsim::Workload;
    use std::collections::HashMap;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Condvar, Mutex, PoisonError};
    use std::thread::JoinHandle;
    use std::time::Duration;

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

    /// One accepted connection, transport-erased. The generic connection
    /// loop only needs framed reads/writes, per-direction timeouts, and a
    /// second handle for the pipelined writer thread.
    trait Conn: Read + Write + Send {
        fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>>;
        fn set_read_timeout_conn(&self, t: Option<Duration>);
        fn set_write_timeout_conn(&self, t: Option<Duration>);
    }

    impl Conn for UnixStream {
        fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>> {
            Ok(Box::new(self.try_clone()?))
        }
        fn set_read_timeout_conn(&self, t: Option<Duration>) {
            self.set_read_timeout(t).ok();
        }
        fn set_write_timeout_conn(&self, t: Option<Duration>) {
            self.set_write_timeout(t).ok();
        }
    }

    impl Conn for TcpStream {
        fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>> {
            Ok(Box::new(self.try_clone()?))
        }
        fn set_read_timeout_conn(&self, t: Option<Duration>) {
            self.set_read_timeout(t).ok();
        }
        fn set_write_timeout_conn(&self, t: Option<Duration>) {
            self.set_write_timeout(t).ok();
        }
    }

    /// Where a finished response goes. The executor pool is shared by
    /// every request source; only the last hop differs per protocol.
    enum RespSink {
        /// v2 pipelined: binary-encode and tag with the request id for
        /// the session's writer thread.
        Framed(mpsc::SyncSender<(u64, Vec<u8>)>),
        /// HTTP: hand the typed [`Response`] back to the session loop,
        /// which owns the JSON envelope and status mapping.
        Value(mpsc::SyncSender<Response>),
    }

    /// One unit of executor work: a decoded request plus the id to tag
    /// the answer with and the owning connection's response sink.
    struct Job {
        id: u64,
        request: Request,
        sink: RespSink,
    }

    /// Counting semaphore bounding one connection's in-flight requests
    /// (executing or queued for write). Acquired by the reader before
    /// admitting a request, released by the writer after the response
    /// leaves (or is discarded on a dead connection) — so "in flight"
    /// covers the whole request lifetime and executor sends into the
    /// equally-sized response channel can never block.
    struct InFlight {
        cap: usize,
        count: Mutex<usize>,
        cv: Condvar,
    }

    impl InFlight {
        fn new(cap: usize) -> InFlight {
            InFlight { cap: cap.max(1), count: Mutex::new(0), cv: Condvar::new() }
        }

        /// Take a slot; returns `false` if shutdown was requested while
        /// waiting (a full window during shutdown means the client stopped
        /// reading — don't let it pin the reader).
        fn acquire(&self, shared: &Shared) -> bool {
            // the in-flight count is a plain integer: a panicking holder
            // cannot leave it logically broken, so recover from poison
            // instead of cascading the panic through every worker
            let mut n = self.count.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if *n < self.cap {
                    *n += 1;
                    return true;
                }
                if shared.is_shutting_down_now() {
                    return false;
                }
                let (guard, _) =
                    self.cv.wait_timeout(n, SHUTDOWN_POLL).unwrap_or_else(PoisonError::into_inner);
                n = guard;
            }
        }

        fn release(&self) {
            let mut n = self.count.lock().unwrap_or_else(PoisonError::into_inner);
            *n = n.saturating_sub(1);
            drop(n);
            self.cv.notify_one();
        }
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
    /// [`EaseService`], accelerated by the stat-keyed fingerprint memo
    /// and bounded by the shared memory budget.
    struct LocalHandler {
        service: Arc<EaseService>,
        /// Stat-keyed fingerprint memo (see
        /// [`LocalHandler::recommend_answer`]).
        graph_memo: Mutex<HashMap<PathBuf, MemoEntry>>,
        /// Shared memory budget for per-request derived state (see
        /// [`ServeConfig::memory_budget`]): all concurrently-executing
        /// requests charge the same pool, so total daemon CSR heap stays
        /// bounded no matter how many workers analyze large graphs at once.
        memory_budget: Option<Arc<ease_graph::MemoryBudget>>,
    }

    /// Bound on resident [`MemoEntry`]s. Each is a path plus a few words;
    /// overflow evicts an arbitrary entry (the memo is a pure accelerator,
    /// eviction only costs one re-hash).
    const GRAPH_MEMO_CAPACITY: usize = 256;

    /// Identity stamp of a graph file at one point in time. Two stats
    /// agreeing on all four fields mean the same bytes for any writer
    /// that replaces or appends to files the normal way: a rewrite
    /// changes `mtime` (and usually `size`), a rename-over changes `ino`.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct FileStamp {
        dev: u64,
        ino: u64,
        size: u64,
        mtime_s: i64,
        mtime_ns: i64,
    }

    fn file_stamp(path: &Path) -> Option<FileStamp> {
        use std::os::unix::fs::MetadataExt;
        let md = std::fs::metadata(path).ok()?;
        md.is_file().then(|| FileStamp {
            dev: md.dev(),
            ino: md.ino(),
            size: md.size(),
            mtime_s: md.mtime(),
            mtime_ns: md.mtime_nsec(),
        })
    }

    /// What the daemon remembers about a graph file it has already hashed:
    /// enough to answer a repeat recommend query without reopening it —
    /// the fingerprint keys the service's property cache, `|V|`/`|E|`
    /// reproduce the answer header bit-for-bit.
    struct MemoEntry {
        stamp: FileStamp,
        fingerprint: u64,
        num_vertices: usize,
        edge_count: usize,
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
        accepts: Vec<JoinHandle<()>>,
        conn_workers: Vec<JoinHandle<()>>,
        executors: Vec<JoinHandle<()>>,
        /// Auxiliary threads adopted via [`ServerHandle::adopt_thread`]
        /// (the router's health checker), joined last.
        extra: Vec<JoinHandle<()>>,
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
            self.extra.push(handle);
        }

        /// Wait for the daemon to drain (a shutdown must have been
        /// requested, or this blocks until one is), then remove the socket
        /// file and return the final counters.
        pub fn join(self) -> Result<ServeSummary, EaseError> {
            let mut panicked = false;
            for accept in self.accepts {
                panicked |= accept.join().is_err();
            }
            for worker in self.conn_workers {
                panicked |= worker.join().is_err();
            }
            for executor in self.executors {
                panicked |= executor.join().is_err();
            }
            for aux in self.extra {
                panicked |= aux.join().is_err();
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
        let lock = std::fs::File::options()
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
    pub fn serve(
        service: Arc<EaseService>,
        config: ServeConfig,
    ) -> Result<ServerHandle, EaseError> {
        let handler = Arc::new(LocalHandler {
            service,
            graph_memo: Mutex::new(HashMap::new()),
            memory_budget: config.memory_budget.clone(),
        });
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
        let tcp_listener =
            match &config.tcp {
                Some(addr) => Some(TcpListener::bind(addr).map_err(|e| ServeError::Bind {
                    socket: addr.clone(),
                    message: e.to_string(),
                })?),
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
        let mut executors = Vec::with_capacity(workers);
        for _ in 0..workers {
            let req_rx = Arc::clone(&req_rx);
            let shared = Arc::clone(&shared);
            executors.push(std::thread::spawn(move || loop {
                let next = req_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                match next {
                    Ok(job) => execute(job, &shared),
                    Err(_) => break, // all connection workers gone: drained
                }
            }));
        }

        // Bounded hand-off: accepts queue here once every connection
        // worker is busy, so a flood of clients waits in the listen
        // backlog instead of ballooning daemon memory.
        let (conn_tx, conn_rx) = mpsc::sync_channel::<Box<dyn Conn>>(workers * 2);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut conn_workers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let conn_rx = Arc::clone(&conn_rx);
            let shared = Arc::clone(&shared);
            let req_tx = req_tx.clone();
            conn_workers.push(std::thread::spawn(move || loop {
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

        let mut accepts = Vec::new();
        if let Some(listener) = unix_listener {
            let tx = conn_tx.clone();
            let shared = Arc::clone(&shared);
            accepts.push(std::thread::spawn(move || {
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
            accepts.push(std::thread::spawn(move || {
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
        Ok(ServerHandle { shared, accepts, conn_workers, executors, extra: Vec::new() })
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
    /// socket, an evicted peer, or shutdown. On `Some` the read timeout is
    /// back at the configured I/O timeout for the rest of the message.
    fn poll_prefix(
        stream: &mut Box<dyn Conn>,
        shared: &Shared,
        evict_after: Option<Duration>,
    ) -> Option<[u8; 2]> {
        stream.set_read_timeout_conn(Some(SHUTDOWN_POLL));
        let start = std::time::Instant::now();
        let mut prefix = [0u8; 2];
        let mut filled = 0;
        while let Some(rest) = prefix.get_mut(filled..).filter(|rest| !rest.is_empty()) {
            if shared.is_shutting_down_now() {
                return None;
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
        stream.set_read_timeout_conn(shared.io_timeout);
        Some(prefix)
    }

    /// One connection: sniff the first message's two-byte prefix and
    /// dispatch to the pipelined (v2) or HTTP session loop. Any other
    /// peer gets a best-effort [`Response::Error`] and a closed
    /// connection; nothing in here can panic the worker on user input.
    fn handle_connection(
        mut stream: Box<dyn Conn>,
        shared: &Arc<Shared>,
        req_tx: &mpsc::SyncSender<Job>,
    ) {
        stream.set_write_timeout_conn(shared.io_timeout);
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
                write_frame_v2(&mut stream, 0, &Response::Error(msg).encode_binary()).ok();
            }
        }
    }

    /// HTTP: serve requests sequentially on this connection (keep-alive),
    /// each executed on the shared executor pool through the same
    /// [`answer`] path as the binary protocol — so `Shutdown`
    /// interception, the served counter and the `Handler` dispatch are
    /// identical across both wire formats.
    fn http_session(
        mut stream: Box<dyn Conn>,
        mut prefix: [u8; 2],
        shared: &Arc<Shared>,
        req_tx: &mpsc::SyncSender<Job>,
    ) {
        // rendezvous of one: the session waits for each answer in turn
        let (resp_tx, resp_rx) = mpsc::sync_channel::<Response>(1);
        loop {
            let mut submit = |request: Request| -> Option<Response> {
                shared.served.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(monotonic stats counter)
                let job = Job { id: 0, request, sink: RespSink::Value(resp_tx.clone()) };
                req_tx.send(job).ok()?;
                resp_rx.recv().ok()
            };
            if matches!(
                http::serve_one(&mut stream, prefix, &mut submit),
                http::SessionState::Close
            ) {
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
    /// Every decoded request is admitted through the per-connection
    /// in-flight window and executed on the shared executor pool; a
    /// dedicated writer thread streams responses back as they complete,
    /// tagged with their request ids.
    fn pipelined_session(
        mut reader: Box<dyn Conn>,
        shared: &Arc<Shared>,
        req_tx: &mpsc::SyncSender<Job>,
    ) {
        let Ok(writer_stream) = reader.try_clone_conn() else { return };
        // the writer must stay joinable for graceful drain, so pipelined
        // sessions keep a write timeout even when io_timeout is disabled
        writer_stream
            .set_write_timeout_conn(shared.io_timeout.or(Some(super::super::DEFAULT_IO_TIMEOUT)));
        let window = super::super::DEFAULT_PIPELINE_IN_FLIGHT;
        let (resp_tx, resp_rx) = mpsc::sync_channel::<(u64, Vec<u8>)>(window);
        let in_flight = Arc::new(InFlight::new(window));
        let writer = {
            let in_flight = Arc::clone(&in_flight);
            std::thread::spawn(move || writer_loop(writer_stream, resp_rx, &in_flight))
        };
        // every pass starts after a frame's magic: the sniffer consumed
        // the first one, the bottom of the loop the later ones; a
        // truncated or oversized frame means a desynced peer
        while let Ok((id, payload)) = read_frame_v2_after_magic(&mut reader) {
            // admission: blocks when `window` answers are outstanding, so
            // a client that stopped reading throttles only itself
            if !in_flight.acquire(shared) {
                break;
            }
            match Request::decode_binary(&payload) {
                Ok(request) => {
                    shared.served.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(monotonic stats counter)
                    let job = Job { id, request, sink: RespSink::Framed(resp_tx.clone()) };
                    if req_tx.send(job).is_err() {
                        in_flight.release();
                        break; // executors gone: shutdown drained past us
                    }
                }
                Err(e) => {
                    // a malformed payload in a well-framed request is
                    // answerable: the error goes back under its id (the
                    // permit guarantees this send cannot block)
                    let resp = Response::Error(e.to_string()).encode_binary();
                    if resp_tx.send((id, resp)).is_err() {
                        in_flight.release();
                        break;
                    }
                }
            }
            // a desynced peer, EOF, a dead socket, or shutdown all end
            // the session
            if poll_prefix(&mut reader, shared, None) != Some(FRAME_MAGIC_V2) {
                break;
            }
        }
        // executors processing this connection's jobs hold `resp_tx`
        // clones; the writer drains every outstanding answer and exits
        // when the last clone drops
        drop(resp_tx);
        writer.join().ok();
    }

    fn writer_loop(
        mut stream: Box<dyn Conn>,
        resp_rx: mpsc::Receiver<(u64, Vec<u8>)>,
        in_flight: &InFlight,
    ) {
        let mut dead = false;
        while let Ok((id, payload)) = resp_rx.recv() {
            if !dead && write_frame_v2(&mut stream, id, &payload).is_err() {
                // client gone or stalled past the write timeout: keep
                // draining so permits release and the reader winds down
                dead = true;
            }
            in_flight.release();
        }
    }

    fn execute(job: Job, shared: &Shared) {
        let response = answer(job.request, shared);
        // a send error just means the session already wound down
        match job.sink {
            // the permit held for this job guarantees the bounded send fits
            RespSink::Framed(tx) => {
                tx.send((job.id, response.encode_binary())).ok();
            }
            // rendezvous of one: the HTTP session is blocked on this recv
            RespSink::Value(tx) => {
                tx.send(response).ok();
            }
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
                        spilled_csr_builds: self
                            .memory_budget
                            .as_ref()
                            .map_or(0, |b| b.spill_events()),
                    })
                }
                // intercepted by `answer` before dispatch; acknowledging
                // is still the honest reply if one ever slips through
                Request::Shutdown => Response::ShuttingDown,
            }
        }
    }

    impl LocalHandler {
        /// Answer a recommend query, skipping the graph open and the
        /// `O(|E|)` content hash when the daemon has served this exact file
        /// before. Warm queries are the daemon's whole reason to exist, and
        /// profiling shows the open+hash — not the model — dominates them.
        ///
        /// Correctness: the memo is keyed by the resolved path and guarded
        /// by a [`FileStamp`]; a rewritten file changes its stamp, so the
        /// daemon never renders a stale answer for new bytes. The remembered
        /// fingerprint is only a *cache key* — if the property cache has
        /// since evicted it, we fall back to the full open+hash path, which
        /// produces identical bytes (both paths render via
        /// [`render_selection`](super::render_selection)).
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
            let workload = Workload::from_name(workload).ok_or_else(|| {
                EaseError::InvalidConfig(format!("unknown workload `{workload}`"))
            })?;
            let k = k.unwrap_or(service.meta().default_k);
            // resolve against the client's cwd, but display the path as the
            // client wrote it (one-shot answer parity)
            let path = resolve_graph_path(graph, cwd.as_deref());

            let stamp = file_stamp(&path);
            if let Some(stamp) = stamp {
                let remembered = {
                    let memo = self.graph_memo.lock().unwrap_or_else(PoisonError::into_inner);
                    memo.get(&path)
                        .filter(|e| e.stamp == stamp)
                        .map(|e| (e.fingerprint, e.num_vertices, e.edge_count))
                };
                if let Some((fingerprint, n, m)) = remembered {
                    if let Some(props) = service.try_cached_properties(fingerprint) {
                        let selection = service.ease().try_select(&props, workload, k, goal)?;
                        return Ok(super::super::render_selection(
                            graph, n, m, workload, k, goal, top, selection,
                        ));
                    }
                }
            }

            let source = open_path(&path)?;
            let mut prepared = PreparedGraph::of_source(source.as_ref());
            if let Some(budget) = &self.memory_budget {
                prepared = prepared.with_memory_budget(Arc::clone(budget));
            }
            let props = service.cached_properties_prepared(&prepared);
            let selection = service.ease().try_select(&props, workload, k, goal)?;
            let n = source.num_vertices();
            let m = source.edge_count();
            let out =
                super::super::render_selection(graph, n, m, workload, k, goal, top, selection);
            // memoize only if the file did not change while we read it: the
            // pre-open stamp still matching means the fingerprint we just
            // computed really describes the bytes that stamp names
            if let Some(before) = stamp {
                if file_stamp(&path) == Some(before) {
                    let fingerprint = prepared.fingerprint();
                    let mut memo = self.graph_memo.lock().unwrap_or_else(PoisonError::into_inner);
                    if memo.len() >= GRAPH_MEMO_CAPACITY && !memo.contains_key(&path) {
                        if let Some(evict) = memo.keys().next().cloned() {
                            memo.remove(&evict);
                        }
                    }
                    memo.insert(
                        path,
                        MemoEntry { stamp: before, fingerprint, num_vertices: n, edge_count: m },
                    );
                }
            }
            Ok(out)
        }

        fn features_answer(
            &self,
            graph: &str,
            tier: PropertyTier,
            cwd: &Option<String>,
        ) -> Result<String, EaseError> {
            let source = open_path(&resolve_graph_path(graph, cwd.as_deref()))?;
            super::super::render_features(graph, source.as_ref(), tier, self.memory_budget.as_ref())
        }
    }
}

#[cfg(not(unix))]
mod portable_stubs {
    use super::*;

    /// Handle stub on platforms without unix sockets. [`serve`] always
    /// fails there, so no value of this type can ever exist — the
    /// `Infallible` field makes that a type-level fact, and every method
    /// body is the empty match. Callers (`ease serve`, the bench bins,
    /// the serve test suites) compile unchanged on every platform.
    pub struct ServerHandle {
        never: std::convert::Infallible,
    }

    impl ServerHandle {
        pub fn socket_path(&self) -> Option<&Path> {
            match self.never {}
        }

        pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
            match self.never {}
        }

        pub fn requests_served(&self) -> u64 {
            match self.never {}
        }

        pub fn is_shutting_down(&self) -> bool {
            match self.never {}
        }

        pub fn trigger_shutdown(&self) {
            match self.never {}
        }

        pub fn join(self) -> Result<ServeSummary, EaseError> {
            match self.never {}
        }
    }

    /// The daemon needs unix-domain sockets for its control surface; the
    /// protocol codec and the TCP client still compile and round-trip for
    /// tests on every platform.
    pub fn serve(
        _service: Arc<EaseService>,
        _config: ServeConfig,
    ) -> Result<ServerHandle, EaseError> {
        Err(crate::error::ServeError::Unsupported.into())
    }
}

#[cfg(not(unix))]
pub use portable_stubs::{serve, ServerHandle};
