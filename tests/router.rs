//! Integration suite for the fleet router (PR 9 tentpole: `ease route`).
//!
//! The acceptance bar: answers through the router are *bit-identical* to
//! a direct backend (and therefore to the one-shot CLI); the hash ring
//! balances (no backend over 2x fair share) and remaps minimally on
//! fleet resize; killing a backend mid-stream fails its keys over to the
//! next ring node with bit-identical retried answers; a budget-saturated
//! fleet sheds load with the typed `Overloaded` answer instead of
//! spilling; and one `shutdown` through the router stops the whole fleet.

mod common;

use common::daemon::{cli_answer, fixtures, recommend_request, spawn_daemon, stats_of};
use ease_repro::graph::{bel, Csr, GraphSource, MemoryBudget};
use ease_repro::graphgen::realworld::socfb_analogue;
use ease_repro::graphgen::Scale;
use ease_repro::serve::ring::hash64;
use ease_repro::serve::{
    self, Endpoint, HashRing, PipelinedClient, Request, Response, RouterConfig, ServeConfig,
};
use ease_repro::{EaseError, ServeError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------
// Hash-ring property tests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Balance: with the default vnode count, no backend of a 2–8 node
    /// ring owns more than twice its fair share of a large key sample.
    /// This is the bound the router's cache-affinity argument rests on —
    /// a 2x-hot shard still beats a cold cache everywhere.
    #[test]
    fn no_backend_owns_more_than_twice_its_fair_share(
        n in 2usize..9,
        salt in 0u64..u64::MAX,
    ) {
        let labels: Vec<String> =
            (0..n).map(|i| format!("10.{}.0.{i}:7000", salt % 200)).collect();
        let ring = HashRing::new(&labels);
        const KEYS: usize = 8192;
        let mut owned = vec![0usize; n];
        for k in 0..KEYS as u64 {
            let key = hash64(&(salt ^ k).to_le_bytes());
            let owner = ring.node_for(key).expect("non-empty ring owns every key");
            owned[owner] += 1;
        }
        let fair = KEYS / n;
        for (backend, &count) in owned.iter().enumerate() {
            prop_assert!(
                count < fair * 2,
                "backend {backend}/{n} owns {count} of {KEYS} keys (fair share {fair})"
            );
        }
    }

    /// Consistency: adding one backend steals keys *only for itself*, and
    /// roughly a fair share of them — never a reshuffle among survivors.
    /// Read backwards this is also the removal guarantee: dropping the
    /// backend returns exactly its keys to the survivors, whose other
    /// keys never move.
    #[test]
    fn a_fleet_resize_remaps_only_the_new_backends_fair_share(
        n in 1usize..8,
        salt in 0u64..u64::MAX,
    ) {
        let labels: Vec<String> = (0..=n).map(|i| format!("backend-{i}:70{i:02}")).collect();
        let before = HashRing::new(&labels[..n]);
        let after = HashRing::new(&labels);
        const KEYS: usize = 4096;
        let mut moved = 0usize;
        for k in 0..KEYS as u64 {
            let key = hash64(&(salt ^ k.rotate_left(17)).to_le_bytes());
            let old = before.node_for(key).expect("owner before");
            let new = after.node_for(key).expect("owner after");
            if old != new {
                prop_assert_eq!(
                    new, n,
                    "a key may only move TO the added backend (moved {} -> {})", old, new
                );
                moved += 1;
            }
        }
        // volume: ~1/(n+1) of the keyspace, generously bounded at 2x
        let expected = KEYS / (n + 1);
        prop_assert!(
            moved < expected * 2,
            "resize moved {moved} of {KEYS} keys; fair share is {expected}"
        );
    }
}

// ---------------------------------------------------------------------
// Fleet fixtures
// ---------------------------------------------------------------------

/// Distinct graphs to spread over the ring — enough that a 2-backend
/// fleet essentially always has traffic on both sides.
const GRAPHS: usize = 6;

/// `GRAPHS` distinct `.bel` graphs (distinct fingerprints) in the
/// fixture dir.
fn graphs() -> &'static [PathBuf] {
    static PATHS: OnceLock<Vec<PathBuf>> = OnceLock::new();
    PATHS.get_or_init(|| {
        (0..GRAPHS)
            .map(|i| {
                let g = socfb_analogue(Scale::Tiny, 20 + i as u64).graph;
                let path = fixtures().dir.join(format!("g{i}.bel"));
                bel::write_bel(&g, &path).expect("write bel");
                path
            })
            .collect()
    })
}

/// An `ease serve` backend on an ephemeral TCP port, optionally budgeted.
fn start_backend(tag: &str, budget: Option<Arc<MemoryBudget>>) -> (serve::ServerHandle, Endpoint) {
    let mut config = ServeConfig::tcp_at("127.0.0.1:0").workers(2);
    if let Some(budget) = budget {
        config = config.memory_budget(budget);
    }
    let handle = spawn_daemon(config);
    let tcp = handle.tcp_addr().unwrap_or_else(|| panic!("{tag}: tcp listener bound")).to_string();
    (handle, Endpoint::tcp(tcp))
}

/// An `ease route` front on a fresh unix socket.
fn start_router(
    tag: &str,
    backends: Vec<Endpoint>,
    forward_shutdown: bool,
) -> (serve::ServerHandle, Endpoint) {
    let socket = fixtures().dir.join(format!("{tag}.router.sock"));
    let config = RouterConfig::new(ServeConfig::at(&socket).workers(2), backends)
        // long interval: tests drive mark-down via transport errors, not
        // the probe cadence, so probes only need to not interfere
        .health_interval(Duration::from_secs(60))
        .forward_shutdown(forward_shutdown);
    let handle = serve::route(config).expect("bind router");
    (handle, Endpoint::unix(socket))
}

// ---------------------------------------------------------------------
// Bit-identity, affinity, and fleet-wide stats
// ---------------------------------------------------------------------

#[test]
fn routed_answers_are_bit_identical_and_cache_affine() {
    let (backend_a, ep_a) = start_backend("identity-a", None);
    let (backend_b, ep_b) = start_backend("identity-b", None);
    let (router, front) = start_router("identity", vec![ep_a.clone(), ep_b.clone()], false);
    let mut client = PipelinedClient::connect(&front).expect("connect router");

    // every graph, both workloads: the routed answer is byte-for-byte the
    // one-shot answer — the backend renders, the router only forwards
    for graph in graphs() {
        for workload in ["pr", "cc"] {
            let expected = cli_answer(graph, workload, None);
            let got = serve::expect_answer(
                client.call(&recommend_request(graph, workload, None)).expect("routed call"),
            )
            .expect("routed answer");
            assert_eq!(got, expected, "routed answer must be bit-identical ({workload})");
        }
    }

    // cache affinity: a repeat query lands on the same backend, whose
    // property cache is warm — fleet-wide hits must rise, not misses
    let before = stats_of(client.call(&Request::CacheStats).expect("fleet stats"));
    for graph in graphs() {
        let response = client.call(&recommend_request(graph, "pr", None)).expect("repeat call");
        serve::expect_answer(response).expect("repeat answer");
    }
    let after = stats_of(client.call(&Request::CacheStats).expect("fleet stats"));
    assert!(
        after.hits >= before.hits + graphs().len() as u64,
        "repeat queries must be property-cache hits on their home backend \
         (hits {} -> {})",
        before.hits,
        after.hits
    );
    assert_eq!(after.misses, before.misses, "no repeat query may land on a cold backend");

    // the fleet view is the fold of the two direct views: capacity sums,
    // and every forwarded request is accounted on some backend
    let direct_a = stats_of(serve::call_endpoint(&ep_a, &Request::CacheStats).expect("a stats"));
    let direct_b = stats_of(serve::call_endpoint(&ep_b, &Request::CacheStats).expect("b stats"));
    assert_eq!(after.capacity, direct_a.capacity + direct_b.capacity);
    assert_eq!(after.len as u64, after.misses, "every miss populated one cache slot");
    let forwarded = (graphs().len() * 3) as u64; // 2 cold workloads + 1 warm repeat each
    assert!(
        direct_a.requests_served + direct_b.requests_served >= forwarded,
        "backends served {} + {}, expected at least {forwarded}",
        direct_a.requests_served,
        direct_b.requests_served
    );

    router.trigger_shutdown();
    router.join().expect("router join");
    // forward_shutdown(false): the backends must still be running
    for ep in [&ep_a, &ep_b] {
        match serve::call_endpoint(ep, &Request::Ping).expect("backend outlives router") {
            Response::Pong { .. } => {}
            other => panic!("expected Pong, got {other:?}"),
        }
    }
    backend_a.trigger_shutdown();
    backend_b.trigger_shutdown();
    backend_a.join().expect("backend a join");
    backend_b.join().expect("backend b join");
}

// ---------------------------------------------------------------------
// Failover: a backend dies mid-stream
// ---------------------------------------------------------------------

#[test]
fn killing_a_backend_mid_stream_retries_with_bit_identical_answers() {
    let (backend_a, ep_a) = start_backend("failover-a", None);
    let (backend_b, ep_b) = start_backend("failover-b", None);
    let (router, front) = start_router("failover", vec![ep_a, ep_b.clone()], false);
    let mut client = PipelinedClient::connect(&front).expect("connect router");

    // first pass: all graphs answered through the full fleet — this also
    // parks pooled router->backend connections that the kill will poison
    let expected: Vec<String> =
        graphs().iter().map(|graph| cli_answer(graph, "pr", None)).collect();
    for (graph, expected) in graphs().iter().zip(&expected) {
        let got = serve::expect_answer(client.call(&recommend_request(graph, "pr", None)).unwrap())
            .expect("pre-kill answer");
        assert_eq!(&got, expected);
    }

    // kill one backend under the router, mid-client-stream
    backend_a.trigger_shutdown();
    backend_a.join().expect("backend a drained");

    // same client, same queries: keys homed on the dead backend hit a
    // transport error, mark it down, and fail over to the ring successor
    // — and the retried answer is still bit-identical
    for (graph, expected) in graphs().iter().zip(&expected) {
        let got = serve::expect_answer(client.call(&recommend_request(graph, "pr", None)).unwrap())
            .expect("post-kill answer must fail over, not error");
        assert_eq!(&got, expected, "retried answer must be bit-identical");
    }

    // the fleet view now folds only the survivor
    let fleet = stats_of(client.call(&Request::CacheStats).expect("fleet stats"));
    let direct_b = stats_of(serve::call_endpoint(&ep_b, &Request::CacheStats).expect("b stats"));
    assert_eq!(fleet.capacity, direct_b.capacity, "only the survivor is folded");

    router.trigger_shutdown();
    router.join().expect("router join");
    backend_b.trigger_shutdown();
    backend_b.join().expect("backend b join");
}

// ---------------------------------------------------------------------
// Budget-aware admission: a saturated fleet sheds, a mixed fleet steers
// ---------------------------------------------------------------------

#[test]
fn a_saturated_fleet_sheds_with_a_typed_overloaded_answer() {
    let fx = fixtures();
    // every backend budgeted to 1 byte of headroom: no graph fits anywhere
    let tiny = || Some(Arc::new(MemoryBudget::bytes(1).with_spill_dir(&fx.dir)));
    let (backend_a, ep_a) = start_backend("shed-a", tiny());
    let (backend_b, ep_b) = start_backend("shed-b", tiny());
    let (router, front) = start_router("shed", vec![ep_a, ep_b], false);
    let mut client = PipelinedClient::connect(&front).expect("connect router");

    let graph = &graphs()[0];
    // admission sniffs the .bel header and estimates the advanced tier's
    // CSR charge (offsets + the forward lists' u32 targets), not the file size
    let src = ease_repro::graph::BelSource::open(graph).expect("open bel");
    let needed = Csr::heap_bytes(src.num_vertices(), src.edge_count()) as u64;
    assert!(
        needed < std::fs::metadata(graph).expect("stat graph").len(),
        "the sniffed estimate undercuts the old file-size one"
    );
    drop(src);
    match client.call(&recommend_request(graph, "pr", None)).expect("transport ok") {
        Response::Overloaded { needed: got_needed, headroom } => {
            assert_eq!(got_needed, needed, "needed = the query's estimated footprint");
            assert_eq!(headroom, 1, "headroom = the best backend's remaining budget");
        }
        other => panic!("expected a typed Overloaded shed, got {other:?}"),
    }
    // clients surface it as the typed error, not a stringly one
    let err = serve::expect_answer(client.call(&recommend_request(graph, "pr", None)).unwrap())
        .expect_err("overloaded is an error to clients");
    match err {
        EaseError::Serve(ServeError::Overloaded { needed: n, headroom }) => {
            assert_eq!((n, headroom), (needed, 1));
        }
        other => panic!("expected ServeError::Overloaded, got {other:?}"),
    }
    // shedding is not a mark-down: the fleet still answers cache-stats
    let fleet = stats_of(client.call(&Request::CacheStats).expect("fleet stats"));
    assert_eq!(fleet.memory_budget_remaining, Some(2), "1 byte headroom per backend, summed");
    assert_eq!(fleet.spilled_csr_builds, 0, "the whole point: nothing was forced to spill");

    router.trigger_shutdown();
    router.join().expect("router join");
    for handle in [backend_a, backend_b] {
        handle.trigger_shutdown();
        handle.join().expect("backend join");
    }
}

#[test]
fn oversized_queries_steer_to_the_backend_with_headroom() {
    let fx = fixtures();
    // one saturated backend, one with room: admission must steer every
    // graph to the one with headroom, never shed, never touch the full one
    let (backend_full, ep_full) =
        start_backend("steer-full", Some(Arc::new(MemoryBudget::bytes(1).with_spill_dir(&fx.dir))));
    let (backend_open, ep_open) = start_backend("steer-open", None);
    let (router, front) = start_router("steer", vec![ep_full.clone(), ep_open.clone()], false);
    let mut client = PipelinedClient::connect(&front).expect("connect router");

    for graph in graphs() {
        let expected = cli_answer(graph, "pr", None);
        let got = serve::expect_answer(client.call(&recommend_request(graph, "pr", None)).unwrap())
            .expect("steered answer");
        assert_eq!(got, expected, "steered answers stay bit-identical");
    }
    let full = stats_of(serve::call_endpoint(&ep_full, &Request::CacheStats).expect("full stats"));
    let open = stats_of(serve::call_endpoint(&ep_open, &Request::CacheStats).expect("open stats"));
    assert_eq!(full.hits + full.misses, 0, "no analysis ever reached the saturated backend");
    assert_eq!(open.misses, graphs().len() as u64, "every graph was analyzed on the open one");

    router.trigger_shutdown();
    router.join().expect("router join");
    for handle in [backend_full, backend_open] {
        handle.trigger_shutdown();
        handle.join().expect("backend join");
    }
}

/// Regression for the admission estimate: a `.bel` query whose file — or
/// whose undirected CSR, which no request builds since the triangle kernel
/// is fed by the source — is bigger than the fleet's headroom used to be
/// shed outright, even though the forward lists it actually charges fit
/// fine. With the header-sniffed estimate of that charge the same budget
/// admits it — answered bit-identically, nothing spilled.
#[test]
fn header_sniffed_admission_admits_what_file_size_used_to_shed() {
    let fx = fixtures();
    let graph = &graphs()[1];
    let src = ease_repro::graph::BelSource::open(graph).expect("open bel");
    let estimate = Csr::heap_bytes(src.num_vertices(), src.edge_count()) as u64;
    let undirected = Csr::heap_bytes(src.num_vertices(), 2 * src.edge_count()) as u64;
    drop(src);
    let file_size = std::fs::metadata(graph).expect("stat graph").len();
    let budget_bytes = (estimate + undirected) / 2;
    assert!(
        estimate <= budget_bytes && budget_bytes < undirected && undirected < file_size,
        "a budget the file-size ({file_size}) and undirected-CSR ({undirected}) estimates \
         shed against ({budget_bytes}) but the forward lists' charge ({estimate}) fits"
    );

    let budget = Arc::new(MemoryBudget::bytes(budget_bytes as usize).with_spill_dir(&fx.dir));
    let (backend, ep) = start_backend("sniff-admit", Some(budget));
    let (router, front) = start_router("sniff-admit", vec![ep.clone()], false);

    let expected = cli_answer(graph, "pr", None);
    let got = serve::expect_answer(
        serve::call_endpoint(&front, &recommend_request(graph, "pr", None)).expect("transport ok"),
    )
    .expect("admitted, not shed");
    assert_eq!(got, expected, "admitted answers stay bit-identical");

    let stats = stats_of(serve::call_endpoint(&ep, &Request::CacheStats).expect("stats"));
    assert_eq!(stats.spilled_csr_builds, 0, "the charge really did fit the budget");

    router.trigger_shutdown();
    router.join().expect("router join");
    backend.trigger_shutdown();
    backend.join().expect("backend join");
}

// ---------------------------------------------------------------------
// Fleet-wide shutdown through the router
// ---------------------------------------------------------------------

#[test]
fn one_shutdown_through_the_router_stops_the_whole_fleet() {
    let (backend_a, ep_a) = start_backend("fleetstop-a", None);
    let (backend_b, ep_b) = start_backend("fleetstop-b", None);
    let (router, front) = start_router("fleetstop", vec![ep_a, ep_b], true);

    match serve::call_endpoint(&front, &Request::Shutdown).expect("shutdown call") {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    // the router forwarded the stop: every backend drains and joins —
    // no per-backend shutdown was ever sent by this test
    router.join().expect("router join");
    backend_a.join().expect("backend a stopped by the router");
    backend_b.join().expect("backend b stopped by the router");
}
