//! `ease route` — a consistent-hash router fronting a fleet of `ease
//! serve` backends.
//!
//! One daemon process tops out around the single-host warm-QPS ceiling
//! (PR 6); the router is the horizontal rung above it. It reuses the
//! *entire* daemon connection stack — endpoint binding, magic sniffing,
//! the v2 and HTTP session loops, pipelining, backpressure, graceful
//! shutdown — via the server's `Handler` trait; only the answer changes:
//! instead of analyzing graphs locally, the router forwards each request over
//! one multiplexed pipelined v2 connection per backend — concurrent
//! forwarders interleave their requests on it and responses demux back
//! by id, so one router connection occupies exactly one connection
//! worker on each backend no matter how many clients the router fans in.
//!
//! * **Placement** — requests are keyed by the graph *file identity*
//!   (`dev`/`ino` from a stat, falling back to the resolved path bytes)
//!   on a consistent-hash ring ([`HashRing`](super::ring::HashRing)). Repeat queries for a graph
//!   land on the same backend, so that backend's property cache and
//!   fingerprint memo stay warm for its shard — sharding for cache
//!   affinity, not just for load.
//! * **Health** — a background thread probes every backend each
//!   [`RouterConfig::health_interval`] with a `cache-stats` call (one
//!   probe doubles as liveness *and* a budget-headroom refresh). A failed
//!   probe marks the backend down and backs off exponentially with
//!   deterministic jitter; a successful probe marks it back up. Transport
//!   failures during forwarding mark down immediately — the next ring
//!   node takes over without waiting for a probe.
//! * **Failover** — every request the router forwards is idempotent
//!   (`Shutdown` never reaches the forwarding path; the connection
//!   machinery intercepts it), so a dead backend's requests simply retry
//!   on the next ring successor. Answers are rendered by the backends
//!   themselves, so a routed answer is bit-identical to a direct one.
//! * **Admission** — backends expose `memory_budget_remaining` in their
//!   `cache-stats` (PR 8's budget, PR 9's payload bump). A query whose
//!   estimated analysis footprint exceeds its primary's headroom routes
//!   to the next ring backend *with* headroom; when no healthy backend
//!   has room, the router answers a typed [`Response::Overloaded`](super::protocol::Response::Overloaded)
//!   instead of forcing a backend to spill or OOM — shedding is a
//!   first-class answer, not a timeout.
//! * **Fleet stats** — `cache-stats` through the router folds every
//!   healthy backend's snapshot into one fleet-wide view
//!   ([`ServeStats::absorb`](super::protocol::ServeStats::absorb)).

use super::client::Endpoint;
use super::ServeConfig;
use std::time::Duration;

/// Default backend probe cadence (see [`RouterConfig::health_interval`]).
pub const DEFAULT_HEALTH_INTERVAL: Duration = Duration::from_millis(500);

/// Ceiling on the mark-down probe backoff: a downed backend is re-probed
/// at least this often no matter how long it has been failing.
pub const MAX_PROBE_BACKOFF: Duration = Duration::from_secs(10);

/// Fleet router configuration: where to listen, which backends to front,
/// and the health-check cadence.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The router's own listening endpoints and connection-pool bounds —
    /// the same shape the daemon uses, because the router *is* the daemon
    /// stack with a forwarding handler. `memory_budget` is ignored (the
    /// backends own it).
    pub listen: ServeConfig,
    /// The backend fleet, each an `ease serve` daemon speaking v2.
    pub backends: Vec<Endpoint>,
    /// How often the health thread probes each healthy backend. Downed
    /// backends back off exponentially (jittered, capped at
    /// [`MAX_PROBE_BACKOFF`]) so a dead host is not hammered twice a
    /// second forever.
    pub health_interval: Duration,
    /// Forward a client `shutdown` to every backend (fleet-wide stop).
    /// Defaults on: the router fronting the fleet is the natural single
    /// control point. Off, a shutdown stops only the router.
    pub forward_shutdown: bool,
}

impl RouterConfig {
    pub fn new(listen: ServeConfig, backends: Vec<Endpoint>) -> RouterConfig {
        RouterConfig {
            listen,
            backends,
            health_interval: DEFAULT_HEALTH_INTERVAL,
            forward_shutdown: true,
        }
    }

    pub fn health_interval(mut self, interval: Duration) -> RouterConfig {
        self.health_interval = interval;
        self
    }

    pub fn forward_shutdown(mut self, forward: bool) -> RouterConfig {
        self.forward_shutdown = forward;
        self
    }
}

#[cfg(unix)]
pub use unix_router::route;

#[cfg(unix)]
mod unix_router {
    use super::super::client::{
        call_endpoint, Endpoint, PipelinedClient, PipelinedReceiver, PipelinedSender,
    };
    use super::super::protocol::{
        proto_err, resolve_graph_path, Request, Response, ServeStats, PROTOCOL_VERSION,
    };
    use super::super::ring::{hash64, HashRing};
    use super::super::server::{serve_with_handler, Handler, ServerHandle, SHUTDOWN_POLL};
    use super::{RouterConfig, MAX_PROBE_BACKOFF};
    use crate::error::EaseError;
    use ease_graph::hash::mix64;
    use std::collections::HashMap;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    /// Consecutive transport failures before the probe backoff stops
    /// doubling (2^5 · interval, further capped by [`MAX_PROBE_BACKOFF`]).
    const MAX_BACKOFF_DOUBLINGS: u32 = 5;

    /// The one multiplexed connection a [`Backend`] keeps: split v2
    /// halves plus demux bookkeeping. Exactly one persistent connection
    /// per backend is load-bearing, not a simplification — the daemon
    /// dedicates a connection worker to every accepted connection for its
    /// lifetime, so a *pool* of parked-but-open connections would pin the
    /// whole backend worker set and starve every other connection
    /// (including health probes) out of the accept hand-off.
    struct MuxState {
        connected: bool,
        /// Bumped on every teardown. A forwarder that captured an older
        /// epoch knows its in-flight request died with the old socket.
        epoch: u64,
        /// Write half; taken (`None`) while a forwarder is mid-send.
        tx: Option<PipelinedSender>,
        /// Read half; taken (`None`) while a forwarder drains the socket
        /// on everyone's behalf.
        rx: Option<PipelinedReceiver>,
        /// Responses read off the socket for other forwarders' ids.
        arrived: HashMap<u64, Response>,
    }

    impl MuxState {
        /// Tear the connection down: both halves drop (borrowed halves
        /// are dropped by their borrowers on the epoch mismatch), parked
        /// responses die with the socket, waiters see the epoch bump.
        fn reset(&mut self) {
            self.connected = false;
            self.tx = None;
            self.rx = None;
            self.arrived.clear();
            self.epoch = self.epoch.wrapping_add(1);
        }
    }

    /// One backend of the fleet, as the router sees it.
    struct Backend {
        endpoint: Endpoint,
        /// `healthy` matches the ease-lint atomic control-flag policy:
        /// mark-down/mark-up crosses the forwarding/health-thread
        /// boundary, so every access is SeqCst — same contract as the
        /// server's shutdown flag.
        healthy: AtomicBool,
        /// The multiplexed connection (see [`MuxState`]). The guard is
        /// never held across socket I/O: both halves are moved out under
        /// the lock, used unlocked, and returned — a full send buffer
        /// must never wedge the receive side out of this mutex (that
        /// exact cycle deadlocks against the daemon's in-flight cap).
        conn: Mutex<MuxState>,
        /// Wakes forwarders waiting for a borrowed half or a demuxed
        /// response.
        wake: Condvar,
        /// Last `cache-stats` snapshot the health thread saw; admission
        /// reads budget headroom from here (at most one probe interval
        /// stale, which is fine — admission is a shed/steer heuristic,
        /// the backend's own budget is the hard enforcement).
        last_stats: Mutex<Option<ServeStats>>,
    }

    impl Backend {
        fn new(endpoint: Endpoint) -> Backend {
            Backend {
                endpoint,
                healthy: AtomicBool::new(true),
                conn: Mutex::new(MuxState {
                    connected: false,
                    epoch: 0,
                    tx: None,
                    rx: None,
                    arrived: HashMap::new(),
                }),
                wake: Condvar::new(),
                last_stats: Mutex::new(None),
            }
        }

        fn is_healthy(&self) -> bool {
            self.healthy.load(Ordering::SeqCst)
        }

        fn mark_down(&self) {
            self.healthy.store(false, Ordering::SeqCst);
            // the connection to a downed backend is poison — tear it
            // down so mark-up starts from a fresh socket, and so every
            // forwarder blocked on it errors out instead of hanging
            self.conn.lock().unwrap_or_else(PoisonError::into_inner).reset();
            self.wake.notify_all();
        }

        fn mark_up(&self, stats: ServeStats) {
            *self.last_stats.lock().unwrap_or_else(PoisonError::into_inner) = Some(stats);
            self.healthy.store(true, Ordering::SeqCst);
        }

        /// Budget headroom this backend last reported. `u64::MAX` when it
        /// runs without a budget (it cannot *refuse* work into a spill
        /// path) or before the first probe lands (admit optimistically —
        /// the backend enforces for real).
        fn headroom(&self) -> u64 {
            let stats = self.last_stats.lock().unwrap_or_else(PoisonError::into_inner);
            match *stats {
                Some(s) => s.memory_budget_remaining.unwrap_or(u64::MAX),
                None => u64::MAX,
            }
        }

        /// One request/response exchange over the multiplexed connection.
        /// Any number of forwarders call this concurrently; their
        /// requests interleave on one pipelined v2 session and each gets
        /// its own response back by id. `Err` is a transport or protocol
        /// failure (the backend is unreachable or desynced) — remote
        /// *answers*, including `Response::Error`, are `Ok`.
        fn call(&self, request: &Request) -> Result<Response, EaseError> {
            let (id, epoch) = self.send(request)?;
            self.receive(id, epoch)
        }

        fn reset_err(&self) -> EaseError {
            proto_err(format!("connection to backend {} reset mid-request", self.endpoint))
        }

        /// Send `request` on the shared connection, dialing it first if
        /// needed, and return `(id, epoch)` for [`Self::receive`].
        fn send(&self, request: &Request) -> Result<(u64, u64), EaseError> {
            let mut st = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if !st.connected {
                    // dialing under the lock is deliberate: every caller
                    // needs this same connection, so none of them has
                    // anything useful to do until the dial resolves
                    let (tx, rx) = PipelinedClient::connect(&self.endpoint)?.split()?;
                    st.connected = true;
                    st.tx = Some(tx);
                    st.rx = Some(rx);
                }
                let Some(mut tx) = st.tx.take() else {
                    // another forwarder is mid-send; wait for the half
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                    continue;
                };
                let epoch = st.epoch;
                drop(st);
                let result = tx.send(request);
                st = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
                let stale = st.epoch != epoch;
                match result {
                    Ok(id) if !stale => {
                        st.tx = Some(tx);
                        self.wake.notify_all();
                        return Ok((id, epoch));
                    }
                    // torn down while sending: the response can never
                    // arrive (the read half died with the old epoch)
                    Ok(_) => {
                        self.wake.notify_all();
                        return Err(self.reset_err());
                    }
                    Err(e) => {
                        if !stale {
                            st.reset();
                        }
                        self.wake.notify_all();
                        return Err(e);
                    }
                }
            }
        }

        /// Wait for the response to `id` sent at `epoch`: take a demuxed
        /// response if one already arrived, otherwise either become the
        /// receiver (drain the socket for everyone) or wait on whoever
        /// currently is.
        fn receive(&self, id: u64, epoch: u64) -> Result<Response, EaseError> {
            let mut st = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.epoch != epoch {
                    return Err(self.reset_err());
                }
                if let Some(response) = st.arrived.remove(&id) {
                    return Ok(response);
                }
                let Some(mut rx) = st.rx.take() else {
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                    continue;
                };
                drop(st);
                let result = rx.recv_any();
                st = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
                let stale = st.epoch != epoch;
                match result {
                    Ok((rid, response)) if !stale => {
                        st.rx = Some(rx);
                        st.arrived.insert(rid, response);
                        self.wake.notify_all();
                        // loop: if rid == id the next arrival check wins
                    }
                    Ok(_) => {
                        self.wake.notify_all();
                        return Err(self.reset_err());
                    }
                    Err(e) => {
                        if !stale {
                            st.reset();
                        }
                        self.wake.notify_all();
                        return Err(e);
                    }
                }
            }
        }
    }

    struct RouterState {
        backends: Vec<Backend>,
        ring: HashRing,
        /// Set once by [`Handler::on_shutdown`]; the health thread polls
        /// it and exits. Matches the lint control-flag policy (`stop`).
        stop: AtomicBool,
        forward_shutdown: bool,
    }

    /// The router's request handler: everything the connection machinery
    /// decodes lands here and is answered by the fleet.
    struct RouterHandler {
        state: Arc<RouterState>,
    }

    impl Handler for RouterHandler {
        fn handle(&self, request: Request, _served_so_far: u64) -> Response {
            match request {
                // the router answers for its own liveness; backend
                // liveness is the health thread's business
                Request::Ping => Response::Pong { version: PROTOCOL_VERSION },
                Request::CacheStats => self.state.fleet_stats(),
                Request::Recommend { ref graph, ref cwd, .. } => {
                    let path = resolve_graph_path(graph, cwd.as_deref());
                    self.state.forward(&path, &request)
                }
                Request::Features { ref graph, ref cwd, .. } => {
                    let path = resolve_graph_path(graph, cwd.as_deref());
                    self.state.forward(&path, &request)
                }
                // intercepted by the connection machinery before dispatch
                // (which then calls `on_shutdown` below); acknowledging is
                // still the honest reply if one ever slips through
                Request::Shutdown => Response::ShuttingDown,
            }
        }

        fn on_shutdown(&self) {
            // idempotent: only the first caller forwards fleet-wide
            if self.state.stop.swap(true, Ordering::SeqCst) {
                return;
            }
            if self.state.forward_shutdown {
                for backend in &self.state.backends {
                    // best effort — a backend that is already down has
                    // nothing left to stop
                    call_endpoint(&backend.endpoint, &Request::Shutdown).ok();
                }
            }
        }
    }

    impl RouterState {
        /// Route `request` (an idempotent query about the graph file at
        /// `path`) to the fleet: ring-placed for cache affinity, skipping
        /// unhealthy backends, skipping backends without budget headroom
        /// for the query's estimated footprint, failing over to ring
        /// successors on transport errors.
        fn forward(&self, path: &Path, request: &Request) -> Response {
            let key = route_key(path);
            let needed = estimated_bytes(path);
            let mut best_headroom = 0u64;
            let mut any_healthy = false;
            let mut transport_errors: Vec<String> = Vec::new();
            for idx in self.ring.successors(key) {
                let Some(backend) = self.backends.get(idx) else { continue };
                if !backend.is_healthy() {
                    continue;
                }
                any_healthy = true;
                let headroom = backend.headroom();
                best_headroom = best_headroom.max(headroom);
                if let Some(needed) = needed {
                    if headroom < needed {
                        continue; // admission: steer past a saturated backend
                    }
                }
                match backend.call(request) {
                    Ok(response) => return response,
                    Err(e) => {
                        // transport failure: this backend is gone right
                        // now — mark it down (the health thread will mark
                        // it back up) and fail over to the next ring node
                        transport_errors.push(format!("{}: {e}", backend.endpoint));
                        backend.mark_down();
                    }
                }
            }
            match (any_healthy, needed) {
                // healthy backends exist but none has the headroom: shed
                // with the typed answer instead of forcing a spill/OOM
                (true, Some(needed)) if transport_errors.is_empty() => {
                    Response::Overloaded { needed, headroom: best_headroom }
                }
                _ => Response::Error(format!(
                    "fleet error: no healthy backend reachable for this query \
                     ({} of {} marked down{})",
                    self.backends.iter().filter(|b| !b.is_healthy()).count(),
                    self.backends.len(),
                    if transport_errors.is_empty() {
                        String::new()
                    } else {
                        format!("; transport errors: {}", transport_errors.join(", "))
                    }
                )),
            }
        }

        /// The fleet-wide `cache-stats` view: every healthy backend's
        /// snapshot folded into one (see [`ServeStats::absorb`]).
        fn fleet_stats(&self) -> Response {
            let mut fleet = ServeStats::default();
            let mut reached = 0usize;
            for backend in &self.backends {
                if !backend.is_healthy() {
                    continue;
                }
                match backend.call(&Request::CacheStats) {
                    Ok(Response::CacheStats(stats)) => {
                        backend.mark_up(stats);
                        fleet.absorb(&stats);
                        reached += 1;
                    }
                    Ok(_) => {} // a non-stats answer is a backend bug; skip it
                    Err(_) => backend.mark_down(),
                }
            }
            if reached == 0 {
                return Response::Error(
                    "fleet error: no healthy backend reachable for cache-stats".into(),
                );
            }
            Response::CacheStats(fleet)
        }

        fn stopped(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }
    }

    /// Placement key for the graph file at `path`: its filesystem
    /// identity (`dev`/`ino`) when it exists — stable across renames and
    /// identical for every client spelling of the same file — falling
    /// back to the resolved path bytes so nonexistent files still route
    /// deterministically (the backend renders the proper error).
    fn route_key(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        match std::fs::metadata(path) {
            Ok(md) => mix64(mix64(md.dev()) ^ md.ino()),
            Err(_) => hash64(path.as_os_str().as_encoded_bytes()),
        }
    }

    /// Estimated derived-state footprint of analyzing the graph at
    /// `path`.
    ///
    /// `.bel` files declare `|V|` and `|E|` in their header, so the
    /// estimate can be the thing admission actually guards: the heap
    /// charge of the triangle kernel's forward lists, the one CSR the
    /// advanced property tier builds (`Csr::heap_bytes(|V|, |E|)` — usize
    /// offsets plus one u32 target per edge). That is roughly a *quarter*
    /// of the `.bel` file's own size for edge-heavy graphs (the file stores
    /// two u64s per edge), so sniffing admits real queries a file-size
    /// estimate sheds.
    /// Anything without a well-formed `.bel` header (text edge lists,
    /// truncated files) falls back to the file size, a coarse
    /// over-approximation. `None` (unreadable/absent file) admits to the
    /// primary, which renders the real error.
    fn estimated_bytes(path: &Path) -> Option<u64> {
        let md = std::fs::metadata(path).ok()?;
        if !md.is_file() {
            return None;
        }
        Some(bel_csr_estimate(path).unwrap_or(md.len()))
    }

    /// The admission estimate declared by a well-formed `.bel` header:
    /// CSR offsets + forward-list targets, saturating so a hostile header
    /// cannot overflow the arithmetic. `None` when the file does not start
    /// with a `.bel` header.
    fn bel_csr_estimate(path: &Path) -> Option<u64> {
        use ease_graph::bel::{BEL_HEADER_LEN, BEL_MAGIC};
        use std::io::Read;
        let mut header = [0u8; BEL_HEADER_LEN];
        std::fs::File::open(path).ok()?.read_exact(&mut header).ok()?;
        // lint: panic-ok(fixed 24-byte header array)
        if header[..8] != BEL_MAGIC {
            return None;
        }
        let num_vertices = u64::from_le_bytes(header[8..16].try_into().ok()?); // lint: panic-ok(fixed 24-byte header array)
        let num_edges = u64::from_le_bytes(header[16..24].try_into().ok()?); // lint: panic-ok(fixed 24-byte header array)

        // Csr::heap_bytes(|V|, |E|): 8-byte offsets, and a 4-byte target
        // for every edge in the forward list of its lower-ranked endpoint
        let offsets = num_vertices.saturating_add(1).saturating_mul(8);
        let targets = num_edges.saturating_mul(4);
        Some(offsets.saturating_add(targets))
    }

    /// Start the fleet router: bind the configured listen endpoints, probe
    /// every backend once (so placement and admission start from real
    /// liveness/headroom, not assumptions), and spawn the health thread.
    /// The returned handle is the same type the daemon returns — join it,
    /// trigger shutdown on it, read its TCP address for port-0 binds.
    pub fn route(config: RouterConfig) -> Result<ServerHandle, EaseError> {
        if config.backends.is_empty() {
            return Err(EaseError::InvalidConfig(
                "route needs at least one --backend to front".into(),
            ));
        }
        let labels: Vec<String> = config.backends.iter().map(|e| e.to_string()).collect();
        let ring = HashRing::new(&labels);
        let backends: Vec<Backend> = config.backends.into_iter().map(Backend::new).collect();
        let state = Arc::new(RouterState {
            backends,
            ring,
            stop: AtomicBool::new(false),
            forward_shutdown: config.forward_shutdown,
        });
        // synchronous first probe round: a backend that is down at router
        // start is down from request one, and budget headroom is real
        // before the first client connects
        for backend in &state.backends {
            probe(backend);
        }
        let handler = Arc::new(RouterHandler { state: Arc::clone(&state) });
        let mut handle = serve_with_handler(handler, config.listen)?;
        let interval = config.health_interval.max(Duration::from_millis(10));
        handle.adopt_thread(std::thread::spawn(move || health_loop(&state, interval)));
        Ok(handle)
    }

    /// One health probe: a `cache-stats` exchange on a fresh connection
    /// (the multiplexed connection could be healthy while new connects fail —
    /// probing the connect path is the point). Refreshes headroom on
    /// success; marks down on failure.
    fn probe(backend: &Backend) -> bool {
        match call_endpoint(&backend.endpoint, &Request::CacheStats) {
            Ok(Response::CacheStats(stats)) => {
                backend.mark_up(stats);
                true
            }
            _ => {
                backend.mark_down();
                false
            }
        }
    }

    /// Background health checker: probes each backend on its own
    /// schedule — every `interval` while healthy, exponential backoff
    /// with deterministic jitter while down (capped at
    /// [`MAX_PROBE_BACKOFF`]) — and exits when shutdown is requested.
    fn health_loop(state: &RouterState, interval: Duration) {
        let n = state.backends.len();
        let mut consecutive_failures: Vec<u32> = vec![0; n];
        let mut next_probe: Vec<Instant> = vec![Instant::now() + interval; n];
        while !state.stopped() {
            std::thread::sleep(SHUTDOWN_POLL.min(interval));
            if state.stopped() {
                break;
            }
            let now = Instant::now();
            for (idx, backend) in state.backends.iter().enumerate() {
                let Some(due) = next_probe.get_mut(idx) else { continue };
                if now < *due {
                    continue;
                }
                let fails = consecutive_failures.get_mut(idx);
                if probe(backend) {
                    if let Some(fails) = fails {
                        *fails = 0;
                    }
                    *due = now + interval;
                } else {
                    let count = fails.map_or(1, |f| {
                        *f = f.saturating_add(1);
                        *f
                    });
                    *due = now + backoff(interval, count, idx);
                }
            }
        }
    }

    /// Jittered exponential backoff for a backend that has failed `count`
    /// consecutive probes: `interval · 2^min(count,5)`, capped at
    /// [`MAX_PROBE_BACKOFF`], plus a deterministic 0–25% jitter keyed on
    /// `(backend, count)` so a fleet of routers does not re-probe a
    /// recovering backend in lockstep.
    fn backoff(interval: Duration, count: u32, backend_idx: usize) -> Duration {
        let doubled = interval.saturating_mul(1 << count.min(MAX_BACKOFF_DOUBLINGS));
        let base = doubled.min(MAX_PROBE_BACKOFF);
        let jitter_num = mix64((backend_idx as u64) << 32 | count as u64) % 256;
        base + base.mul_f64(jitter_num as f64 / 1024.0)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn route_key_is_spelling_independent_and_stat_keyed() {
            let dir = std::env::temp_dir().join(format!("ease-route-key-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let file = dir.join("g.txt");
            std::fs::write(&file, "0 1\n").expect("write");
            let direct = route_key(&file);
            // a dotted respelling of the same file stats to the same inode
            let dotted = dir.join(".").join("g.txt");
            assert_eq!(direct, route_key(&dotted));
            // a different file routes (astronomically likely) elsewhere
            let other = dir.join("h.txt");
            std::fs::write(&other, "0 1\n").expect("write");
            assert_ne!(direct, route_key(&other));
            // nonexistent files still key deterministically, by path
            let missing = dir.join("missing.txt");
            assert_eq!(route_key(&missing), route_key(&missing));
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn estimated_bytes_falls_back_to_file_size_or_none() {
            let dir = std::env::temp_dir().join(format!("ease-route-est-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            // headerless bytes (no .bel magic): coarse file-size estimate
            let file = dir.join("g.bel");
            std::fs::write(&file, vec![0u8; 4096]).expect("write");
            assert_eq!(estimated_bytes(&file), Some(4096));
            let text = dir.join("g.txt");
            std::fs::write(&text, "0 1\n1 2\n").expect("write");
            assert_eq!(estimated_bytes(&text), Some(8));
            assert_eq!(estimated_bytes(&dir.join("missing")), None);
            assert_eq!(estimated_bytes(&dir), None, "directories are not graphs");
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn bel_headers_estimate_the_csr_charge_not_the_file_size() {
            use ease_graph::bel::{BelWriter, BEL_EDGE_LEN, BEL_HEADER_LEN};
            let dir = std::env::temp_dir().join(format!("ease-route-bel-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let file = dir.join("g.bel");
            let mut w = BelWriter::create(&file).expect("create .bel");
            let num_edges = 64u64;
            for i in 0..num_edges {
                w.push(ease_graph::Edge { src: (i % 8) as u32, dst: ((i + 1) % 8) as u32 })
                    .expect("push edge");
            }
            w.finish().expect("finish .bel");

            let file_size = std::fs::metadata(&file).expect("stat").len();
            assert_eq!(file_size, BEL_HEADER_LEN as u64 + num_edges * BEL_EDGE_LEN as u64);
            // offsets (8·(|V|+1)) + forward-list u32 targets (4·|E|) — the
            // advanced tier's actual heap charge, about a quarter of the file
            let estimate = estimated_bytes(&file).expect("estimate");
            assert_eq!(estimate, (8 + 1) * 8 + num_edges * 4);
            assert!(estimate < file_size);

            // regression: a headroom between the CSR charge and the file
            // size used to shed this query (file-size estimate) and now
            // admits it (header-sniffed estimate)
            let headroom_between = (estimate + file_size) / 2;
            assert!(estimate <= headroom_between && headroom_between < file_size);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn backoff_doubles_caps_and_jitters_deterministically() {
            let i = Duration::from_millis(100);
            assert!(backoff(i, 1, 0) >= Duration::from_millis(200));
            assert!(backoff(i, 1, 0) < Duration::from_millis(250));
            // capped: huge failure counts stop growing
            assert!(backoff(i, 30, 0) <= MAX_PROBE_BACKOFF + MAX_PROBE_BACKOFF.mul_f64(0.25));
            // deterministic: same inputs, same delay
            assert_eq!(backoff(i, 3, 2), backoff(i, 3, 2));
        }
    }
}

/// The router needs the unix daemon stack; see
/// [`ServeError::Unsupported`](crate::error::ServeError::Unsupported).
#[cfg(not(unix))]
pub fn route(_config: RouterConfig) -> Result<super::ServerHandle, crate::error::EaseError> {
    Err(crate::error::ServeError::Unsupported.into())
}
