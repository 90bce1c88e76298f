//! `ease serve` — a long-running recommendation daemon behind a unix
//! socket and/or a pipelined TCP listener.
//!
//! The paper's economics (Sec. I) are *profile once, recommend cheaply
//! forever* — but a one-shot `ease recommend` process pays startup, model
//! deserialization and a cold property cache on every invocation, throwing
//! away exactly the amortization the trained service exists to provide.
//! This module keeps one [`EaseService`] warm in a resident process and
//! serves concurrent clients over two transports sharing one generic
//! connection loop:
//!
//! * **Protocol** ([`protocol`]) — length-prefixed *pipelined* frames
//!   (`[0xEA 0x5F][u64 id][len][payload]`): many requests per connection,
//!   responses tagged with the request id and completed out of order.
//!   Payloads are versioned binary [`Request`]/[`Response`] values encoded
//!   with the same `Writer`/`Reader` codec the model persistence uses.
//! * **Server** ([`server`]) — [`serve`] binds the configured endpoints
//!   (unix socket, TCP, or both) and fans accepted connections out over a
//!   bounded pool of connection workers; request execution runs on a
//!   second bounded executor pool shared by every pipelined session, so
//!   one connection's requests complete concurrently and out of order.
//!   Per-connection backpressure is a bounded in-flight window
//!   ([`DEFAULT_PIPELINE_IN_FLIGHT`]): a slow-reading client stalls only
//!   its own connection, never the executors or the accept loop.
//! * **Router** ([`router`] + [`ring`]) — [`route`] runs the same
//!   connection stack with a forwarding handler instead of a local one:
//!   a consistent-hash ring shards graphs across a fleet of daemons for
//!   cache affinity, health checks mark backends down/up, idempotent
//!   requests fail over to ring successors, `cache-stats` aggregates
//!   fleet-wide, and budget-aware admission sheds oversized queries with
//!   a typed [`Response::Overloaded`] when no backend has headroom.
//! * **HTTP facade** ([`http`] + [`json`]) — the same sniffer recognises
//!   `GET `/`POST` prefixes and serves an HTTP/1.1 + JSON surface
//!   (`/recommend`, `/features`, `/stats`, `/healthz`, `/shutdown`,
//!   `/rpc`) on the same connection workers, executor pool and `Handler`
//!   — so `curl` reaches both a daemon and a router fleet with no new
//!   listener and zero dependencies. [`Request`]/[`Response`] are pure
//!   data; one field list per variant drives every spelling of them —
//!   `encode_binary`/`decode_binary`, `to_json`/`from_json`, the `GET`
//!   query strings and the CLI flags ([`Request::from_text`]).
//! * **Clients** ([`client`]) — [`PipelinedClient`] keeps one v2
//!   connection open across many requests, [`call_pipelined`] drives a
//!   whole batch through a bounded window, and [`call_endpoint`] performs
//!   one exchange over any [`Endpoint`] (a one-request v2 session, or an
//!   HTTP POST). The CLI's `--endpoint unix:|tcp:|http:` flag (on
//!   `recommend`, `features` and `client`) is a thin wrapper over these.
//! * **Rendering** — [`render_recommendation`] / [`render_features`] build
//!   the exact text the one-shot CLI prints. The daemon answers with the
//!   same renderer over the same extraction path, so a proxied answer is
//!   *bit-identical* to the one-shot answer by construction (and diffed in
//!   CI and `tests/serve.rs` / `tests/serve_pipelined.rs` to keep it that
//!   way).
//!
//! Failures never kill the daemon: graph files that do not exist, malformed
//! edge lists, unknown workloads, protocol garbage (on either transport)
//! and mmap'd `.bel` inputs reaching graph-only accessors are all typed
//! [`EaseError`]s routed back to the offending client as
//! [`Response::Error`].

// Daemon code: a panic here kills a worker that serves clients, so every
// module below is held panic-free (`#[cfg(test)]` code is exempt, see
// `clippy.toml`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::error::EaseError;
use crate::selector::OptGoal;
use crate::service::EaseService;
use ease_graph::{GraphProperties, GraphSource, MemoryBudget, PreparedGraph, PropertyTier};
use ease_procsim::Workload;
use std::fmt::Write as _;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub mod client;
pub mod http;
pub mod json;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;

pub use client::{call, call_endpoint, call_pipelined, Endpoint, PipelinedClient};
pub use protocol::{
    expect_answer, read_frame_v2, read_frame_v2_after_magic, resolve_graph_path, write_frame_v2,
    Request, Response, ServeStats, DEFAULT_TOP, FRAME_MAGIC_V2, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use ring::HashRing;
pub use router::{route, RouterConfig};
pub use server::{serve, ServerHandle};

/// One connected socket, transport-erased — a connection the daemon
/// accepted or a session a client opened. A connection loop needs framed
/// reads and writes, per-direction timeouts, and a second handle on the
/// same socket for the pipelined writer thread or a split session.
pub(crate) trait Conn: std::io::Read + std::io::Write + Send {
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

// ---------------------------------------------------------------------
// Rendering — the single source of truth for CLI-visible answer text
// ---------------------------------------------------------------------

/// Render a recommendation answer exactly as the one-shot
/// `ease recommend` prints it. Both the one-shot CLI and the daemon call
/// this function, which is what makes `--endpoint` answers bit-identical to
/// per-process answers: same extraction path (the service's
/// fingerprint-keyed property cache over a [`PreparedGraph`]), same
/// formatting, same bytes.
pub fn render_recommendation(
    service: &EaseService,
    display_path: &str,
    source: &dyn GraphSource,
    workload: Workload,
    k: usize,
    goal: OptGoal,
    top: usize,
    budget: Option<&Arc<MemoryBudget>>,
) -> Result<String, EaseError> {
    let prepared = budgeted(PreparedGraph::of_source(source), budget);
    let props = service.cached_properties_prepared(&prepared);
    let selection = service.ease().try_select(&props, workload, k, goal)?;
    Ok(render_selection(display_path, &props, workload, k, top, selection))
}

/// Attach a memory budget (when one is configured) to a freshly built
/// analysis context. Budgeted and unbudgeted contexts produce bit-identical
/// results — the budget only changes *where* derived CSRs live (heap vs.
/// spill file), never what they contain.
fn budgeted<'g>(
    prepared: PreparedGraph<'g>,
    budget: Option<&Arc<MemoryBudget>>,
) -> PreparedGraph<'g> {
    match budget {
        Some(b) => prepared.with_memory_budget(Arc::clone(b)),
        None => prepared,
    }
}

/// Format a computed [`Selection`](crate::selector::Selection) exactly as
/// the one-shot CLI prints it, reading `|V|` and `|E|` from the graph's
/// properties. Split out of [`render_recommendation`] so the daemon, which
/// may answer from its property cache without opening the graph, renders
/// through the same bytes-producing code. Candidates are ranked by
/// [`PredictedCosts::cost`](crate::selector::PredictedCosts::cost) under
/// the selection's own goal, so the first row is the selector's pick.
pub(crate) fn render_selection(
    display_path: &str,
    props: &GraphProperties,
    workload: Workload,
    k: usize,
    top: usize,
    selection: crate::selector::Selection,
) -> String {
    let (n, m) = (props.num_vertices, props.num_edges);
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "graph {display_path}: |V|={n} |E|={m} mean-degree {:.2}",
        if n > 0 { 2.0 * m as f64 / n as f64 } else { 0.0 }
    );
    let _ = writeln!(
        w,
        "recommended partitioner for {} (k={k}, goal {}): {}",
        workload.label(),
        selection.goal.name(),
        selection.best.name()
    );
    let goal = selection.goal;
    let mut ranked = selection.candidates;
    // total_cmp: non-finite predictions must not panic a daemon worker; a
    // stable sort keeps the first of equal minima, the selector's pick, first
    ranked.sort_by(|a, b| a.cost(goal).total_cmp(&b.cost(goal)));
    let _ = writeln!(
        w,
        "{:<10} {:>12} {:>12} {:>12} {:>8}",
        "candidate", "pred-part", "pred-proc", "pred-e2e", "rf"
    );
    for c in ranked.iter().take(top) {
        let _ = writeln!(
            w,
            "{:<10} {:>11.4}s {:>11.4}s {:>11.4}s {:>8.2}",
            c.partitioner.name(),
            c.partitioning_secs,
            c.processing_secs,
            c.end_to_end_secs,
            c.quality.replication_factor
        );
    }
    out
}

/// Render a feature-extraction answer exactly as the one-shot
/// `ease features` prints it. The final line carries the wall-clock
/// extraction time and is the only run-dependent line — CI and tests strip
/// it (by its `extraction:` prefix) before diffing daemon output against
/// one-shot output.
pub fn render_features(
    display_path: &str,
    source: &dyn GraphSource,
    tier: PropertyTier,
    budget: Option<&Arc<MemoryBudget>>,
) -> Result<String, EaseError> {
    let prepared = budgeted(PreparedGraph::of_source(source), budget);
    let t = std::time::Instant::now();
    let props = prepared.properties(tier);
    let secs = t.elapsed().as_secs_f64();

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "graph {display_path} (|V|={} |E|={}): {} tier",
        source.num_vertices(),
        source.edge_count(),
        tier.name()
    );
    let _ = writeln!(w, "{:<20} {:>18}", "feature", "value");
    for (name, value) in GraphProperties::feature_names(tier).iter().zip(props.feature_vector(tier))
    {
        let _ = writeln!(w, "{name:<20} {value:>18.6}");
    }
    let _ = writeln!(w, "fingerprint          0x{:016x}", prepared.fingerprint());
    let _ = writeln!(w, "extraction: {:.3} ms", secs * 1e3);
    Ok(out)
}

// ---------------------------------------------------------------------
// Server configuration
// ---------------------------------------------------------------------

/// Per-connection socket read/write timeout default (see
/// [`ServeConfig::io_timeout`]).
pub const DEFAULT_IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Per-connection pipelining window: how many requests of one v2
/// connection may be executing or queued for write at once. The daemon
/// holds it as a channel of this many permits: the connection's reader
/// takes one per request, its writer returns it once the answer has left.
/// With none free the *reader* blocks — backpressure is per connection,
/// so a slow-reading client cannot occupy executors or stall the accept
/// loop. Clients that pipeline ([`call_pipelined`]) keep their window at
/// or below it.
pub const DEFAULT_PIPELINE_IN_FLIGHT: usize = 32;

/// Server configuration: the endpoints to bind and the worker-pool bounds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to bind, if any. At least one of `socket`
    /// and `tcp` must be set.
    pub socket: Option<PathBuf>,
    /// TCP listen address (`host:port`; port 0 picks an ephemeral port —
    /// read the actual one from [`ServerHandle::tcp_addr`]).
    pub tcp: Option<String>,
    /// Concurrent request handlers (≥ 1; clamped to ≥ 2 internally so a
    /// shutdown request can always be processed while a long extraction is
    /// in flight). Sizes both the connection pool and the request-executor
    /// pool.
    pub workers: usize,
    /// Read/write timeout applied to every accepted connection. A peer
    /// that connects and then stalls mid-frame would otherwise pin a
    /// worker thread forever — enough such peers would exhaust the pool
    /// and make even graceful shutdown hang. `None` disables (tests only);
    /// pipelined sessions keep a write timeout regardless, because their
    /// writer thread must stay joinable for graceful drain.
    pub io_timeout: Option<std::time::Duration>,
    /// Memory budget for per-request derived state (PR 8). When set, every
    /// analysis context the daemon builds charges its CSRs against this
    /// shared budget; builds that would exceed it spill to disk instead of
    /// growing the daemon's heap. Answers are bit-identical either way.
    pub memory_budget: Option<Arc<MemoryBudget>>,
}

impl ServeConfig {
    /// Default worker count: one per available core, at least 2 (see
    /// [`ServeConfig::workers`]), at most 8 — selection is CPU-bound, so
    /// more workers than cores only adds contention.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2).clamp(2, 8)
    }

    fn listening(socket: Option<PathBuf>, tcp: Option<String>) -> Self {
        ServeConfig {
            socket,
            tcp,
            workers: Self::default_workers(),
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
            memory_budget: None,
        }
    }

    /// Serve on a unix-domain socket (the PR 5 shape; add [`Self::tcp`]
    /// for a TCP listener alongside).
    pub fn at(socket: impl Into<PathBuf>) -> Self {
        Self::listening(Some(socket.into()), None)
    }

    /// Serve on a TCP address only (no unix socket).
    pub fn tcp_at(addr: impl Into<String>) -> Self {
        Self::listening(None, Some(addr.into()))
    }

    /// Add a TCP listener (kept alongside any configured unix socket).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp = Some(addr.into());
        self
    }

    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    pub fn io_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Budget per-request derived state (see [`ServeConfig::memory_budget`]).
    pub fn memory_budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        self.memory_budget = Some(budget);
        self
    }
}

/// Final serving counters returned by [`ServerHandle::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered over the daemon's lifetime (all request kinds).
    pub requests_served: u64,
}
