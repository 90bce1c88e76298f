//! `serve-warm` and `serve-churn`: in-process daemons (and, for
//! `serve-warm`, a router over two more) driven over real sockets by at most
//! two generator threads or connections.
//!
//! Daemons and generator share ONE core (`host::pin_to_one_cpu`, called
//! before the run starts its first thread). On the two-vCPU sandbox this is
//! sized on, a request that crosses cores wakes an idle vCPU through the
//! hypervisor, which costs 0.1–0.3 ms of a 0.5 ms operation and depends on
//! where the scheduler happened to put each of the daemon's threads when it
//! started: daemon instances of one process then differ by 3x in
//! closed-loop throughput (2.6–10.9 k req/s) and some sit at a 30 ms
//! median. On one core every hand-off is a context switch, whose cost is
//! the program's, and instances agree to within 10 %.
//!
//! The timed part is a sequence of short slices with a pass of the probes
//! between them (`probe.rs`), and every slice is bound by the work the stack
//! does: sequential round trips (one request in flight: the latency a
//! client sees from an idle daemon) and closed-loop batches (32 in flight:
//! the throughput). Latencies are divided by, rates multiplied by, the
//! host's slowdown over their slice — the hand-off probe's for warm
//! requests, the merge probe's where a cache miss re-runs the extraction.
//!
//! Open-loop latency at a tenth of saturation is mostly timers and
//! wake-ups: over 300 slices its correlation with the merge probe was −0.1 and
//! its median spread by 20 % over ten runs (p90: 95 %), inside one process
//! and with nothing else running. It cannot gate a change on this host, so
//! the open-loop phases run in the traced run only, as layer metrics.

use crate::inputs::{self, ctx, Res};
use crate::loadgen::{open_loop_pipelined, open_loop_sync, OpenLoop, SplitMix64, Zipf};
use crate::probe::{Bound, Slowdown};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{prepare_in_child, repeated_setup, report_ops, Meter, OpSamples, Run};
use ease::serve::{
    self, Endpoint, PipelinedClient, Request, Response, RouterConfig, ServeConfig, ServerHandle,
};
use ease::{EaseService, PropertyCacheStats};
use ease_graph::{open_path, PreparedGraph};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every served graph: small enough that a cache miss re-extracts in two to
/// three milliseconds — misses queue ahead of hits without saturating the
/// daemon — and that generating and warming 256 of them three times over
/// stays inside the benchmark's time budget.
const GRAPH_VERTICES: usize = 1 << 11;
const GRAPH_EDGES: usize = 10_000;

/// `serve-warm`: all graphs fit the 64-entry property cache.
pub const WARM_GRAPHS: usize = 16;
/// `serve-churn`: four times the property cache, exactly the daemon's
/// 256-entry stat memo.
pub const CHURN_GRAPHS: usize = 256;
const CHURN_ZIPF_EXPONENT: f64 = 1.0;

/// Open-loop rates. One warm daemon sustains about 6 k req/s on its core
/// (`README.md`), so 500 req/s is a tenth of saturation: the latency read is
/// the stack's, not the queue's. `serve-churn` misses cost ≈ 2.5 ms of the
/// core each, hence the lower rate there.
const WARM_RATE: f64 = 500.0;
const CHURN_RATE: f64 = 100.0;
const LOW_RATE: f64 = 125.0;
const HIGH_RATE: f64 = 4_000.0;

/// Requests per slice. The neighbour that slows the host switches on and
/// off every second or so; a slice has to be shorter than that for the
/// passes around it to say what it ran under. 400 sequential round trips
/// and 500 closed-loop requests are each well under a tenth of a second.
const WARM_DIRECT_SLICE: usize = 400;
const WARM_HTTP_SLICE: usize = 200;
const WARM_ROUTED_SLICE: usize = 200;
const WARM_CLOSED_SLICE: usize = 500;
/// 250 Zipf draws hold about 55 misses of ≈ 2.5 ms: 0.2 s either way.
const CHURN_SLICE: usize = 250;

/// Closed-loop window, the daemon's default per-connection in-flight cap.
const WINDOW: usize = serve::DEFAULT_PIPELINE_IN_FLIGHT;
const HTTP_CONNECTIONS: usize = 2;
const ROUTER_BACKENDS: usize = 2;

const DIRECT_PHASE: &str = "v2 sequential";
const HTTP_PHASE: &str = "http sequential";
const ROUTED_PHASE: &str = "routed sequential";
const CLOSED_PHASE: &str = "v2 closed loop w32";
const CHURN_OPEN_PHASE: &str = "v2 open loop 100/s";

/// The router's health probe is a `cache-stats` request on a fresh
/// connection to every backend. Held out of the measured window: it would
/// add two requests per second to each backend's served counter, which the
/// run checks against the requests it sent.
const HEALTH_INTERVAL: Duration = Duration::from_secs(60);

fn graph_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("g{i}.bel"))
}

fn model_path(dir: &Path) -> PathBuf {
    dir.join("ease.model")
}

/// The files a serve workload reads: `n_graphs` R-MAT `.bel` graphs (the
/// nine parameter combinations cycling) and the trained model.
pub fn prepare_files(dir: &Path, n_graphs: usize, seed: u64) -> Res<()> {
    let mut rng = SplitMix64::new(seed);
    for i in 0..n_graphs {
        let graph_seed = rng.next_u64();
        inputs::write_rmat_bel(&graph_path(dir, i), i, GRAPH_VERTICES, GRAPH_EDGES, graph_seed)?;
    }
    inputs::train_and_save_model(&model_path(dir))
}

/// What every daemon of a run answers about: the generated files, the
/// request for each graph and the answer it must get.
struct Queries {
    model: PathBuf,
    socket: PathBuf,
    graphs: Vec<String>,
    requests: Vec<Request>,
    references: Vec<String>,
}

impl Queries {
    /// Read the generated files and compute the reference answers.
    fn load(run: &Run, n_graphs: usize) -> Res<Queries> {
        let model = model_path(run.dir);
        let graphs = (0..n_graphs)
            .map(|i| Ok(inputs::path_str(&graph_path(run.dir, i))?.to_string()))
            .collect::<Res<Vec<String>>>()?;
        let oracle = EaseService::load(&model).map_err(ctx("load model"))?;
        let references =
            graphs.iter().map(|g| inputs::reference_answer(&oracle, g)).collect::<Res<Vec<_>>>()?;
        let requests = graphs.iter().map(|g| inputs::recommend_request(g)).collect();
        Ok(Queries { model, socket: run.dir.join("daemon.sock"), graphs, requests, references })
    }

    fn is_reference(&self, graph: usize, response: &Response) -> bool {
        matches!(response, Response::Answer(text) if Some(text) == self.references.get(graph))
    }
}

struct Daemon {
    handle: Option<ServerHandle>,
    service: Arc<EaseService>,
    tcp: Endpoint,
    http_addr: String,
}

impl Daemon {
    fn start(model: &Path, socket: Option<&Path>) -> Res<Daemon> {
        let service = Arc::new(EaseService::load(model).map_err(ctx("load model"))?);
        let config = match socket {
            Some(socket) => ServeConfig::at(socket).tcp("127.0.0.1:0"),
            None => ServeConfig::tcp_at("127.0.0.1:0"),
        };
        let handle =
            serve::serve(Arc::clone(&service), config.workers(2)).map_err(ctx("start daemon"))?;
        let addr = handle.tcp_addr().ok_or("daemon bound no TCP address")?.to_string();
        Ok(Daemon {
            handle: Some(handle),
            service,
            tcp: Endpoint::tcp(addr.clone()),
            http_addr: addr,
        })
    }

    fn served(&self) -> u64 {
        self.handle.as_ref().map_or(0, ServerHandle::requests_served)
    }
}

/// Everything a serve workload runs against. Dropping it stops the router
/// first (it talks to its backends) and then the daemons, and waits for
/// every server thread.
struct Fleet {
    queries: Arc<Queries>,
    /// `serve-warm`'s router and its front address.
    router: Option<(ServerHandle, Endpoint)>,
    /// `daemons[0]` answers the direct phases. The router gets two backends
    /// of its own (`daemons[1..]`): it holds one connection to each backend
    /// open for good, which pins one of that daemon's two connection
    /// workers, and a direct phase with two connections would then wait for
    /// the other.
    daemons: Vec<Daemon>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let handles = self
            .router
            .take()
            .map(|(handle, _)| handle)
            .into_iter()
            .chain(self.daemons.iter_mut().filter_map(|d| d.handle.take()));
        for handle in handles {
            handle.trigger_shutdown();
            // a server thread that panicked already failed its requests
            handle.join().ok();
        }
    }
}

impl Fleet {
    /// Start the daemon(s) and pull every graph through each serving path
    /// once, so caches and the stat memo are filled.
    fn start(queries: Arc<Queries>, with_router: bool) -> Res<Fleet> {
        let direct = Daemon::start(&queries.model, Some(&queries.socket))?;
        let mut fleet = Fleet { queries, router: None, daemons: vec![direct] };
        let everything: Vec<usize> = (0..fleet.queries.graphs.len()).collect();
        let mut wrong = closed_loop_batch(&fleet, &fleet.direct().tcp, &everything)?.0;
        if with_router {
            for _ in 0..ROUTER_BACKENDS {
                fleet.daemons.push(Daemon::start(&fleet.queries.model, None)?);
            }
            let backends = fleet.daemons[1..].iter().map(|d| d.tcp.clone()).collect();
            let config = RouterConfig::new(ServeConfig::tcp_at("127.0.0.1:0").workers(2), backends)
                .forward_shutdown(false)
                .health_interval(HEALTH_INTERVAL);
            let handle = serve::route(config).map_err(ctx("start router"))?;
            let front =
                Endpoint::tcp(handle.tcp_addr().ok_or("router bound no address")?.to_string());
            wrong += closed_loop_batch(&fleet, &front, &everything)?.0;
            fleet.router = Some((handle, front));
        }
        if wrong > 0 {
            return Err(format!("{wrong} warm-up answers differ from the reference"));
        }
        Ok(fleet)
    }

    fn direct(&self) -> &Daemon {
        &self.daemons[0]
    }

    fn front(&self) -> Res<&Endpoint> {
        self.router.as_ref().map(|(_, front)| front).ok_or_else(|| "no router started".to_string())
    }
}

/// Generate the files (in a child process), compute the reference answers
/// and start a warmed fleet.
fn setup(run: &Run, n_graphs: usize, with_router: bool) -> Res<Fleet> {
    prepare_in_child(run)?;
    Fleet::start(Arc::new(Queries::load(run, n_graphs)?), with_router)
}

/// One closed-loop batch: `picks` through one pipelined connection with
/// [`WINDOW`] in flight. Returns `(wrong answers, seconds)`.
fn closed_loop_batch(fleet: &Fleet, endpoint: &Endpoint, picks: &[usize]) -> Res<(usize, f64)> {
    let queries = &fleet.queries;
    let batch: Vec<Request> = picks.iter().map(|&g| queries.requests[g].clone()).collect();
    let t = Instant::now();
    let responses =
        serve::call_pipelined(endpoint, &batch, WINDOW).map_err(ctx("closed-loop batch"))?;
    let seconds = t.elapsed().as_secs_f64();
    let wrong = picks.iter().zip(&responses).filter(|(&g, r)| !queries.is_reference(g, r)).count();
    Ok((wrong, seconds))
}

/// What every slice of a serve run works with: where results go, the host
/// probe, the span recorder.
struct Slices<'a> {
    out: &'a mut Outcome,
    meter: &'a mut Meter,
    tracer: &'a mut Tracer,
}

impl Slices<'_> {
    /// One closed-loop slice against the direct daemon: `picks` through one
    /// connection, the rate of correct answers multiplied by the host's
    /// slowdown, for work bound as `bound` says, while they were computed.
    fn closed(
        &mut self,
        fleet: &Fleet,
        bound: Bound,
        ops: &mut OpSamples,
        picks: &[usize],
    ) -> Res<()> {
        let Slices { out, meter, tracer } = self;
        let slice = meter.slice(|| {
            tracer.time(CLOSED_PHASE, 0, None, || {
                closed_loop_batch(fleet, &fleet.direct().tcp, picks)
            })
        });
        let (wrong, seconds) = slice.value?;
        out.phase(CLOSED_PHASE, picks.len(), wrong);
        let raw = (picks.len() - wrong) as f64 / seconds;
        ops.raw_rates.push(raw);
        ops.rates.push(raw * slice.slowdown.of(bound));
        Ok(())
    }

    /// One slice of `n` back-to-back exchanges, one in flight, over the
    /// connection `connect` opens: the latency of every correct exchange as
    /// measured, and the host's slowdown over the slice.
    fn sequential<C>(
        &mut self,
        name: &'static str,
        n: usize,
        connect: impl FnOnce() -> Res<C>,
        mut exchange: impl FnMut(&mut C, usize) -> bool,
    ) -> Res<Latencies> {
        let Slices { out, meter, tracer } = self;
        let slice = meter.slice(|| {
            tracer.time(name, 0, None, || {
                let mut connection = connect()?;
                Ok::<_, String>(sequential_ms(n, |i| exchange(&mut connection, i)))
            })
        });
        let (raw_ms, failed) = slice.value?;
        out.phase(name, n, failed);
        Ok(Latencies { raw_ms, slowdown: slice.slowdown })
    }
}

/// The latencies of one sequential slice.
struct Latencies {
    raw_ms: Vec<f64>,
    slowdown: Slowdown,
}

impl Latencies {
    /// Divided by the slice's slowdown for work bound as `bound` says.
    fn over(&self, bound: Bound) -> impl Iterator<Item = f64> + '_ {
        let slowdown = self.slowdown.of(bound);
        self.raw_ms.iter().map(move |ms| ms / slowdown)
    }
}

/// A v2 connection for sequential round trips.
fn connect_v2(endpoint: &Endpoint) -> Res<PipelinedClient> {
    PipelinedClient::connect(endpoint).map_err(ctx("open v2 connection"))
}

/// Open loop over one split pipelined connection to `endpoint`: request `i`
/// asks about graph `picks[i]`.
fn v2_open_loop(fleet: &Fleet, endpoint: &Endpoint, rate: f64, picks: &[usize]) -> Res<OpenLoop> {
    let (mut tx, mut rx) = PipelinedClient::connect(endpoint)
        .and_then(PipelinedClient::split)
        .map_err(ctx("open pipelined connection"))?;
    let (requests, references) = (&fleet.queries.requests, &fleet.queries.references);
    Ok(open_loop_pipelined(
        rate,
        picks.len(),
        move |i| tx.send(&requests[picks[i]]).is_ok(),
        move || {
            // the sender numbers its frames 0, 1, 2, …: the id is the index
            let (id, response) = rx.recv_any().ok()?;
            let i = usize::try_from(id).ok()?;
            let graph = *picks.get(i)?;
            Some((i, matches!(response, Response::Answer(t) if t == references[graph])))
        },
    ))
}

/// One HTTP/1.1 keep-alive connection to the daemon's JSON facade.
struct HttpConnection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpConnection {
    fn connect(addr: &str) -> Res<HttpConnection> {
        let writer = TcpStream::connect(addr).map_err(ctx("connect HTTP"))?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone().map_err(ctx("clone HTTP stream"))?);
        Ok(HttpConnection { reader, writer })
    }

    /// `GET /recommend` for `graph`; the decoded response envelope.
    fn recommend(&mut self, graph: &str) -> Res<Response> {
        // run-directory paths are [A-Za-z0-9._/-]: nothing to percent-encode
        write!(
            self.writer,
            "GET /recommend?graph={graph}&workload={}&goal={}&top={} HTTP/1.1\r\n\
             Host: ease-bench\r\n\r\n",
            inputs::QUERY_WORKLOAD,
            serve::protocol::goal_name(inputs::QUERY_GOAL),
            serve::DEFAULT_TOP,
        )
        .map_err(ctx("write HTTP request"))?;
        let mut length = None;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line).map_err(ctx("read HTTP head"))? == 0 {
                return Err("HTTP connection closed mid-response".into());
            }
            if line == "\r\n" {
                break;
            }
            if let Some((key, value)) = line.split_once(':') {
                if key.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0u8; length.ok_or("HTTP response without Content-Length")?];
        self.reader.read_exact(&mut body).map_err(ctx("read HTTP body"))?;
        let body = std::str::from_utf8(&body).map_err(ctx("HTTP body"))?;
        Response::from_json(body).map_err(ctx("decode HTTP body"))
    }
}

fn http_open_loop(fleet: &Fleet, rate: f64, picks: &[usize]) -> Res<OpenLoop> {
    let queries = &fleet.queries;
    let mut connections = Vec::with_capacity(HTTP_CONNECTIONS);
    for _ in 0..HTTP_CONNECTIONS {
        let mut conn = HttpConnection::connect(&fleet.direct().http_addr)?;
        connections.push(move |i: usize| {
            let graph = picks[i];
            conn.recommend(&queries.graphs[graph]).is_ok_and(|r| queries.is_reference(graph, &r))
        });
    }
    Ok(open_loop_sync(rate, picks.len(), connections))
}

/// `n` back-to-back exchanges, one in flight: per-exchange latency in
/// milliseconds and how many answers were wrong.
fn sequential_ms(n: usize, mut exchange: impl FnMut(usize) -> bool) -> (Vec<f64>, usize) {
    let mut latency_ms = Vec::with_capacity(n);
    let mut failed = 0;
    for i in 0..n {
        let t = Instant::now();
        if exchange(i) {
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        } else {
            failed += 1;
        }
    }
    (latency_ms, failed)
}

fn uniform_picks(rng: &mut SplitMix64, graphs: usize, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.below(graphs)).collect()
}

fn requests_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) as usize).max(20)
}

/// Lateness of the generator over the open-loop phases seen so far.
#[derive(Default)]
struct Lateness {
    late_ms: Vec<f64>,
    /// Per phase name, the worst `(lateness, the phase's own p90)` among
    /// the instances of the phase whose lateness exceeded their p90.
    flagged: Vec<(&'static str, f64, f64)>,
}

impl Lateness {
    /// Fold one phase in: record it, check its lateness against its own
    /// p90, and return its correct-answer latencies.
    fn phase(&mut self, out: &mut Outcome, name: &'static str, phase: OpenLoop) -> Vec<f64> {
        out.phase(name, phase.sent, phase.failed);
        let late_max = phase.late_ms.iter().copied().fold(0.0, f64::max);
        let p90 = percentile(&phase.latency_ms, 90.0).unwrap_or(0.0);
        if late_max > p90 {
            match self.flagged.iter_mut().find(|(flagged, ..)| *flagged == name) {
                Some(worst) if worst.1 >= late_max => {}
                Some(worst) => *worst = (name, late_max, p90),
                None => self.flagged.push((name, late_max, p90)),
            }
        }
        self.late_ms.extend(phase.late_ms);
        phase.latency_ms
    }

    fn report(&self, out: &mut Outcome) {
        out.set("loadgen.late_p99_ms", percentile(&self.late_ms, 99.0).unwrap_or(0.0));
        out.set("loadgen.late_max_ms", self.late_ms.iter().copied().fold(0.0, f64::max));
        for (name, late_max, p90) in &self.flagged {
            out.notes.push(format!(
                "{name}: generator ran up to {late_max:.2} ms late, above the phase's own p90 \
                 ({p90:.2} ms) — read its tail as the sandbox's"
            ));
        }
    }
}

/// Hits, misses and evictions of a daemon's property cache since `before`.
fn cache_delta(before: PropertyCacheStats, after: PropertyCacheStats) -> [u64; 3] {
    [after.hits - before.hits, after.misses - before.misses, after.evictions - before.evictions]
}

fn report_cache(out: &mut Outcome, [hits, misses, evictions]: [u64; 3]) {
    out.set("service.cache_hits", hits as f64);
    out.set("service.cache_misses", misses as f64);
    out.set("service.cache_evictions", evictions as f64);
    out.set("service.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
}

/// The daemon's served counter must have moved by what was sent to it.
fn check_served(out: &mut Outcome, served: u64, sent: usize) {
    if served != sent as u64 {
        out.violated("served", format!("daemon counted {served} requests, {sent} were sent"));
    }
}

// ---------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------

/// What the rounds of a `serve-warm` run add up to.
#[derive(Default)]
struct WarmSamples {
    /// The direct v2 round trips' latencies and the closed loop's rates.
    ops: OpSamples,
    http_ms: Vec<f64>,
    routed_ms: Vec<f64>,
}

/// One slice of each of the four timed phases: sequential round trips over
/// v2 TCP, over HTTP keep-alive and through the router, then the closed loop.
fn warm_round(
    fleet: &Fleet,
    rng: &mut SplitMix64,
    slices: &mut Slices,
    samples: &mut WarmSamples,
) -> Res<()> {
    let (direct, queries) = (fleet.direct(), &fleet.queries);
    let mut picks = |n: usize| uniform_picks(rng, WARM_GRAPHS, n);
    let ask = |client: &mut PipelinedClient, graph: usize| {
        client.call(&queries.requests[graph]).is_ok_and(|r| queries.is_reference(graph, &r))
    };

    // a warm request is system calls and thread hand-offs
    let bound = Bound::Handoffs;
    let to_direct = picks(WARM_DIRECT_SLICE);
    let direct_trips = slices.sequential(
        DIRECT_PHASE,
        to_direct.len(),
        || connect_v2(&direct.tcp),
        |client, i| ask(client, to_direct[i]),
    )?;
    samples.ops.latency_ms.extend(direct_trips.over(bound));
    samples.ops.raw_latency_ms.extend(direct_trips.raw_ms);
    let to_http = picks(WARM_HTTP_SLICE);
    let over_http = slices.sequential(
        HTTP_PHASE,
        to_http.len(),
        || HttpConnection::connect(&direct.http_addr),
        |http, i| {
            let graph = to_http[i];
            http.recommend(&queries.graphs[graph]).is_ok_and(|r| queries.is_reference(graph, &r))
        },
    )?;
    samples.http_ms.extend(over_http.over(bound));
    let to_router = picks(WARM_ROUTED_SLICE);
    let front = fleet.front()?;
    let routed = slices.sequential(
        ROUTED_PHASE,
        to_router.len(),
        || connect_v2(front),
        |client, i| ask(client, to_router[i]),
    )?;
    samples.routed_ms.extend(routed.over(bound));
    slices.closed(fleet, bound, &mut samples.ops, &picks(WARM_CLOSED_SLICE))
}

pub fn run_warm(run: &Run, out: &mut Outcome, meter: &mut Meter, tracer: &mut Tracer) -> Res<()> {
    let fleet = repeated_setup(out, meter, || setup(run, WARM_GRAPHS, true))?;
    let mut rng = SplitMix64::new(run.seed ^ 0x5EED);
    let mut samples = WarmSamples::default();
    let direct = fleet.direct();
    let cache_before = direct.service.property_cache_stats();
    let served_before = direct.served();
    let backends = &fleet.daemons[1..];
    let backends_before: Vec<u64> = backends.iter().map(Daemon::served).collect();

    // the traced run spends the other half of its time on the layers below
    let budget_s = if run.trace { 0.5 * run.seconds } else { run.seconds };
    let started = Instant::now();
    meter.stale();
    let mut slices = Slices { out, meter, tracer };
    while started.elapsed().as_secs_f64() < budget_s {
        warm_round(&fleet, &mut rng, &mut slices, &mut samples)?;
    }

    report_ops(run, out, &samples.ops)?;
    out.set("http_p50_ms", median(&samples.http_ms).unwrap_or(0.0));
    out.set("routed_p50_ms", median(&samples.routed_ms).unwrap_or(0.0));

    let served = direct.served() - served_before;
    let sent_direct: usize =
        [DIRECT_PHASE, HTTP_PHASE, CLOSED_PHASE].iter().map(|phase| out.sent(phase)).sum();
    check_served(out, served, sent_direct);
    out.set("server.requests_served", served as f64);
    let per_backend: Vec<u64> =
        backends.iter().zip(backends_before).map(|(b, before)| b.served() - before).collect();
    let routed_total: u64 = per_backend.iter().sum();
    check_served(out, routed_total, out.sent(ROUTED_PHASE));
    let busiest = per_backend.iter().copied().max().unwrap_or(0);
    out.set("router.backend_share_max", busiest as f64 / routed_total.max(1) as f64);
    let cache = cache_delta(cache_before, direct.service.property_cache_stats());
    report_cache(out, cache);
    // every graph is resident: a miss in a timed phase means the warm-up or
    // the memo is broken
    if cache[1] > 0 {
        out.violated("cache", format!("{} property-cache misses in the timed phases", cache[1]));
    }
    if run.trace {
        warm_layers(run, &fleet, &mut rng, out, tracer)?;
    }
    Ok(())
}

/// The traced run's extra phases: the in-process costs under the serving
/// stack, sequential round trips over every transport side by side, and the
/// open-loop latencies — at [`WARM_RATE`] over every path, and on the direct
/// path below and above it.
fn warm_layers(
    run: &Run,
    fleet: &Fleet,
    rng: &mut SplitMix64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Res<()> {
    let root = tracer.begin("serve-warm layers", 0, None);
    let parent = Some(root);
    let (direct, queries) = (fleet.direct(), &fleet.queries);

    tracer.time("in-process layers", 0, parent, || in_process_layers(fleet, out))?;

    // sequential round trips on an otherwise idle fleet, as measured
    let span = tracer.begin("sequential round trips", 0, parent);
    let mut sequential_us =
        |name: &'static str, n: usize, exchange: &mut dyn FnMut(usize) -> bool| {
            let (latency_ms, failed) = sequential_ms(n, exchange);
            out.phase(name, n, failed);
            median(&latency_ms).unwrap_or(0.0) * 1e3
        };
    let ask = |client: &mut PipelinedClient, i: usize| {
        let graph = i % WARM_GRAPHS;
        client.call(&queries.requests[graph]).is_ok_and(|r| queries.is_reference(graph, &r))
    };
    let mut tcp = connect_v2(&direct.tcp)?;
    let v2_tcp_us = sequential_us("layers: v2 tcp", 1_000, &mut |i| ask(&mut tcp, i));
    drop(tcp);
    let mut unix = connect_v2(&Endpoint::unix(&queries.socket))?;
    let v2_unix_us = sequential_us("layers: v2 unix", 1_000, &mut |i| ask(&mut unix, i));
    drop(unix);
    let v1_us = sequential_us("layers: v1 one-shot", 300, &mut |i| {
        let graph = i % WARM_GRAPHS;
        serve::call(&queries.socket, &queries.requests[graph])
            .is_ok_and(|r| queries.is_reference(graph, &r))
    });
    let mut http = HttpConnection::connect(&direct.http_addr)?;
    let http_us = sequential_us("layers: http", 500, &mut |i| {
        let graph = i % WARM_GRAPHS;
        http.recommend(&queries.graphs[graph]).is_ok_and(|r| queries.is_reference(graph, &r))
    });
    drop(http);
    let mut routed = connect_v2(fleet.front()?)?;
    let routed_us = sequential_us("layers: routed", 1_000, &mut |i| ask(&mut routed, i));
    drop(routed);
    tracer.end(span);
    out.set("server.v2_tcp_p50_us", v2_tcp_us);
    out.set("server.v2_unix_p50_us", v2_unix_us);
    out.set("server.v1_oneshot_p50_us", v1_us);
    out.set("server.overhead_us", v2_tcp_us - out.get("service.warm_us").unwrap_or(0.0));
    out.set("http.p50_us", http_us);
    out.set("http.overhead_us", http_us - v2_tcp_us);
    out.set("router.hop_p50_us", routed_us - v2_tcp_us);

    // open loop: every request timed from the instant it was due
    let mut lateness = Lateness::default();
    let mut open = |name: &'static str, rate: f64, via: Via| -> Res<Vec<f64>> {
        let picks = uniform_picks(rng, WARM_GRAPHS, requests_for(rate, 0.08 * run.seconds));
        let phase = tracer.time(name, 0, parent, || match via {
            Via::Direct => v2_open_loop(fleet, &direct.tcp, rate, &picks),
            Via::Http => http_open_loop(fleet, rate, &picks),
            Via::Routed => v2_open_loop(fleet, fleet.front()?, rate, &picks),
        })?;
        Ok(lateness.phase(out, name, phase))
    };
    let at_rate = open("v2 open loop 500/s", WARM_RATE, Via::Direct)?;
    let over_http = open("http open loop 500/s", WARM_RATE, Via::Http)?;
    let through_router = open("routed open loop 500/s", WARM_RATE, Via::Routed)?;
    let at_low = open("v2 open loop 125/s", LOW_RATE, Via::Direct)?;
    let at_high = open("v2 open loop 4000/s", HIGH_RATE, Via::Direct)?;
    tracer.end(root);
    let p = |latency_ms: &[f64], pct: f64| percentile(latency_ms, pct).unwrap_or(0.0);
    out.set("server.open_p50_ms", p(&at_rate, 50.0));
    out.set("server.open_p90_ms", p(&at_rate, 90.0));
    out.set("server.p99_ms", p(&at_rate, 99.0));
    out.set("server.p999_ms", p(&at_rate, 99.9));
    out.set("http.open_p50_ms", p(&over_http, 50.0));
    out.set("router.open_p50_ms", p(&through_router, 50.0));
    out.set("server.p50_ms_at_125", p(&at_low, 50.0));
    out.set("server.p50_ms_at_4000", p(&at_high, 50.0));
    out.set("server.p90_ms_at_4000", p(&at_high, 90.0));
    lateness.report(out);
    Ok(())
}

/// Which way an open-loop phase of [`warm_layers`] reaches a daemon.
#[derive(Clone, Copy)]
enum Via {
    Direct,
    Http,
    Routed,
}

/// What the serving stack sits on, timed in-process on the workload's own
/// messages: the codecs, and a warm answer without any socket.
fn in_process_layers(fleet: &Fleet, out: &mut Outcome) -> Res<()> {
    const CODEC_ROUNDS: usize = 20_000;
    const ANSWER_ROUNDS: usize = 5_000;
    let request = &fleet.queries.requests[0];
    let response = Response::Answer(fleet.queries.references[0].clone());
    let per_round_ns = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..CODEC_ROUNDS {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / CODEC_ROUNDS as f64
    };
    let (request_bin, response_bin) = (request.encode_binary(), response.encode_binary());
    let (request_json, response_json) = (request.to_json(), response.to_json());
    let mut decoded_ok = true;
    out.set(
        "protocol.bin_encode_ns",
        per_round_ns(&mut || {
            std::hint::black_box((request.encode_binary(), response.encode_binary()));
        }),
    );
    out.set(
        "protocol.bin_decode_ns",
        per_round_ns(&mut || {
            decoded_ok &= Request::decode_binary(&request_bin).is_ok()
                && Response::decode_binary(&response_bin).is_ok();
        }),
    );
    out.set(
        "protocol.json_encode_ns",
        per_round_ns(&mut || {
            std::hint::black_box((request.to_json(), response.to_json()));
        }),
    );
    out.set(
        "protocol.json_decode_ns",
        per_round_ns(&mut || {
            decoded_ok &= Request::from_json(&request_json).is_ok()
                && Response::from_json(&response_json).is_ok();
        }),
    );
    out.set("protocol.bin_bytes", (request_bin.len() + response_bin.len()) as f64);
    out.set("protocol.json_bytes", (request_json.len() + response_json.len()) as f64);
    out.phase("codec round trips", 2 * CODEC_ROUNDS, usize::from(!decoded_ok));

    // a warm answer as the daemon's memo path computes it, minus rendering
    let service = &fleet.direct().service;
    let source = open_path(Path::new(&fleet.queries.graphs[0])).map_err(ctx("open graph"))?;
    let fingerprint = PreparedGraph::of_source(source.as_ref()).fingerprint();
    let props = service
        .try_cached_properties(fingerprint)
        .ok_or("graph 0 is not resident in the daemon's property cache")?;
    let (workload, goal) = (inputs::query_workload(), inputs::QUERY_GOAL);
    let per_answer_us = |f: &mut dyn FnMut() -> bool| {
        let t = Instant::now();
        let ok = (0..ANSWER_ROUNDS).all(|_| f());
        (t.elapsed().as_secs_f64() * 1e6 / ANSWER_ROUNDS as f64, ok)
    };
    let (predict_us, predicted) =
        per_answer_us(&mut || service.recommend(&props, workload, goal).is_ok());
    let (warm_us, warmed) = per_answer_us(&mut || {
        service
            .try_cached_properties(fingerprint)
            .is_some_and(|props| service.recommend(&props, workload, goal).is_ok())
    });
    out.set("service.predict_us", predict_us);
    out.set("service.warm_us", warm_us);
    out.phase("in-process answers", 2 * ANSWER_ROUNDS, usize::from(!(predicted && warmed)));
    Ok(())
}

// ---------------------------------------------------------------------
// serve-churn
// ---------------------------------------------------------------------

pub fn run_churn(run: &Run, out: &mut Outcome, meter: &mut Meter, tracer: &mut Tracer) -> Res<()> {
    let fleet = repeated_setup(out, meter, || setup(run, CHURN_GRAPHS, false))?;
    let mut rng = SplitMix64::new(run.seed ^ 0x5EED);
    let zipf = Zipf::new(CHURN_GRAPHS, CHURN_ZIPF_EXPONENT, &mut rng);
    let mut draws = |n: usize| (0..n).map(|_| zipf.draw(&mut rng)).collect::<Vec<usize>>();
    let (direct, queries) = (fleet.direct(), &fleet.queries);

    // untimed: take the daemon's cache from the order of the warm-up to the
    // steady state of the Zipf draws
    let (wrong, _) = closed_loop_batch(&fleet, &direct.tcp, &draws(2 * CHURN_SLICE))?;
    if wrong > 0 {
        return Err(format!("{wrong} steady-state warm-up answers differ from the reference"));
    }
    let cache_before = direct.service.property_cache_stats();
    let served_before = direct.served();

    // the traced run spends a third of its time on the open loop below
    let budget_s = if run.trace { 0.7 * run.seconds } else { run.seconds };
    let mut ops = OpSamples::default();
    let started = Instant::now();
    meter.stale();
    let mut slices = Slices { out, meter, tracer };
    while started.elapsed().as_secs_f64() < budget_s {
        // one in flight: the median is a hit — hand-offs, as on `serve-warm`
        // — and the p90 a miss, which is the extraction it re-runs
        let picks = draws(CHURN_SLICE);
        let trips = slices.sequential(
            DIRECT_PHASE,
            picks.len(),
            || connect_v2(&direct.tcp),
            |client, i| {
                let graph = picks[i];
                client.call(&queries.requests[graph]).is_ok_and(|r| queries.is_reference(graph, &r))
            },
        )?;
        ops.latency_ms.extend(trips.over(Bound::Handoffs));
        ops.tail_latency_ms.extend(trips.over(Bound::Compute));
        ops.raw_latency_ms.extend(trips.raw_ms);
        // 32 in flight: hits queue behind misses on the daemon's two
        // workers, and extraction is nine tenths of a batch's time
        slices.closed(&fleet, Bound::Compute, &mut ops, &draws(CHURN_SLICE))?;
    }
    report_ops(run, out, &ops)?;

    if run.trace {
        // open loop, every request timed from the instant it was due
        let picks = draws(requests_for(CHURN_RATE, 0.3 * run.seconds));
        let phase = tracer.time(CHURN_OPEN_PHASE, 0, None, || {
            v2_open_loop(&fleet, &direct.tcp, CHURN_RATE, &picks)
        })?;
        let mut lateness = Lateness::default();
        let latency_ms = lateness.phase(out, CHURN_OPEN_PHASE, phase);
        out.set("server.open_p50_ms", percentile(&latency_ms, 50.0).unwrap_or(0.0));
        out.set("server.open_p90_ms", percentile(&latency_ms, 90.0).unwrap_or(0.0));
        lateness.report(out);
    }

    let served = direct.served() - served_before;
    let sent: usize =
        [DIRECT_PHASE, CLOSED_PHASE, CHURN_OPEN_PHASE].iter().map(|phase| out.sent(phase)).sum();
    check_served(out, served, sent);
    out.set("server.requests_served", served as f64);
    let cache = cache_delta(cache_before, direct.service.property_cache_stats());
    if cache[2] == 0 {
        out.violated("cache", "a working set of 4x the cache evicted nothing".into());
    }
    report_cache(out, cache);
    Ok(())
}
