//! Out-of-core derived state acceptance locks (PR 8 tentpole).
//!
//! The memory budget promises that *where* a derived CSR lives — heap or a
//! memory-mapped temp spill — never changes *what* any consumer computes:
//! neighbors, degrees, triangle stats, properties, fingerprints and every
//! partitioner's assignment must be bit-identical between the in-heap and
//! spilled builds, and both must match a plain sequential sort/dedup
//! reference. The spill files themselves must never outlive their CSR
//! (unlink-after-mmap), and the in-place simplify must not regress to the
//! pre-refactor second full-size targets buffer — locked with a
//! thread-local allocation counter.

mod common;

use common::alloc::{tracked, CountingAlloc};
use common::arb_graph;
use common::daemon::{spawn_daemon, strip_timing};
use ease_repro::graph::csr::Route;
use ease_repro::graph::{Csr, Graph, MemoryBudget, VertexId};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::partition::PartitionerId;
use ease_repro::serve::{self, Request, ServeConfig};
use ease_repro::PreparedGraph;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

static DIR_TAG: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty spill directory unique to this test + process.
fn spill_dir(tag: &str) -> PathBuf {
    let n = DIR_TAG.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
    let dir = std::env::temp_dir().join(format!("ease_ooc_{tag}_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create spill dir");
    dir
}

fn dir_entries(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// A zero-budget [`MemoryBudget`] spilling into `dir` — every memoized CSR
/// build is forced out of core.
fn zero_budget(dir: &std::path::Path) -> Arc<MemoryBudget> {
    Arc::new(MemoryBudget::bytes(0).with_spill_dir(dir))
}

/// Storage-independent dump of a CSR: `(per-vertex degree, all targets in
/// vertex order)`. Equal dumps mean bit-identical adjacency regardless of
/// whether the CSR lives on the heap or in a mapped spill.
fn dump(csr: &Csr) -> (Vec<usize>, Vec<VertexId>) {
    let n = csr.num_vertices();
    let mut degrees = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(csr.num_entries());
    for v in 0..n as VertexId {
        degrees.push(csr.degree(v));
        targets.extend_from_slice(csr.neighbors(v));
    }
    (degrees, targets)
}

/// The sequential simplify as an obviously correct reference: per-vertex
/// `Vec`s filled edge by edge as `route` says, then each one sorted,
/// stripped of self-loops and deduplicated into fresh buffers.
fn reference_simplified(g: &Graph, route: Route<'_>) -> (Vec<usize>, Vec<VertexId>) {
    let mut lists = vec![Vec::new(); g.num_vertices()];
    for e in g.edges() {
        let (s, d) = (e.src as usize, e.dst as usize);
        match route {
            Route::Undirected => {
                lists[s].push(e.dst);
                lists[d].push(e.src);
            }
            Route::Forward(rank) => {
                lists[rank[s].min(rank[d]) as usize].push(rank[s].max(rank[d]));
            }
        }
    }
    let mut degrees = Vec::with_capacity(lists.len());
    let mut targets = Vec::new();
    for (v, mut list) in lists.into_iter().enumerate() {
        list.sort_unstable();
        list.dedup();
        list.retain(|&t| t as usize != v);
        degrees.push(list.len());
        targets.extend_from_slice(&list);
    }
    (degrees, targets)
}

/// Ranks in descending-id order: a total order other than the identity,
/// so forward lists are indexed by rank, not by vertex id.
fn reversed_rank(g: &Graph) -> Vec<VertexId> {
    let n = g.num_vertices() as VertexId;
    (0..n).map(|v| n - 1 - v).collect()
}

// ---------------------------------------------------------------------
// Proptests: heap, spilled and reference builds are indistinguishable
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The in-place heap simplify and the spilled build both match the
    /// sequential sort/dedup reference bit-for-bit, on both routes.
    #[test]
    fn heap_and_spilled_simplify_match_the_sequential_reference(g in arb_graph()) {
        let rank = reversed_rank(&g);
        let dir = spill_dir("prop");
        for route in [Route::Undirected, Route::Forward(&rank)] {
            let reference = reference_simplified(&g, route);
            let heap = Csr::build(&g, route);
            prop_assert!(!heap.is_spilled());
            prop_assert_eq!(&dump(&heap), &reference, "heap {:?}", route);
            let chunk = 1 << 12; // tiny chunks: many spill passes per graph
            let spilled = Csr::build_spilled(&g, route, chunk, &dir).expect("spilled build");
            prop_assert!(spilled.is_spilled());
            prop_assert_eq!(&dump(&spilled), &reference, "spilled {:?}", route);
            // unlink-after-mmap: nothing on disk even while the CSR lives
            prop_assert_eq!(dir_entries(&dir), Vec::<String>::new());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A zero budget (everything spills) and an unlimited budget (nothing
    /// spills) agree bit-for-bit on every analysis output and on every
    /// partitioner's assignment.
    #[test]
    fn spilled_analysis_is_bit_identical_for_every_partitioner(g in arb_graph()) {
        let dir = spill_dir("analysis");
        let spilled_ctx = PreparedGraph::of(&g).with_memory_budget(zero_budget(&dir));
        let heap_ctx = PreparedGraph::of(&g);
        // adjacency served through the budgeted context is spilled
        spilled_ctx.undirected_simple();
        prop_assert!(spilled_ctx.spilled_csr_builds() >= 1);
        prop_assert_eq!(dump(spilled_ctx.undirected_simple()), dump(heap_ctx.undirected_simple()));
        // ... and so are the forward lists, the adjacency the product spills
        let rank = reversed_rank(&g);
        let spilled = Csr::build_spilled(&g, Route::Forward(&rank), 1 << 12, &dir)
            .expect("spilled build");
        prop_assert!(spilled.is_spilled());
        prop_assert_eq!(dump(&spilled), dump(&Csr::build(&g, Route::Forward(&rank))));
        drop(spilled);
        // every derived analysis quantity is bit-identical
        prop_assert_eq!(spilled_ctx.fingerprint(), heap_ctx.fingerprint());
        prop_assert_eq!(spilled_ctx.triangle_counts(), heap_ctx.triangle_counts());
        // ... and right, not merely equal: the kernel reading the mapped
        // CSR agrees with the naive oracle reading the same mapping
        let oracle = common::naive_triangle_counts(spilled_ctx.undirected_simple());
        prop_assert_eq!(spilled_ctx.triangle_counts(), oracle.as_slice());
        let (s, h) = (spilled_ctx.triangle_stats(), heap_ctx.triangle_stats());
        prop_assert_eq!(s.avg_triangles.to_bits(), h.avg_triangles.to_bits());
        prop_assert_eq!(s.avg_lcc.to_bits(), h.avg_lcc.to_bits());
        let tier = ease_repro::graph::PropertyTier::Advanced;
        prop_assert_eq!(spilled_ctx.properties(tier), heap_ctx.properties(tier));
        // every partitioner in the registry assigns identically
        for id in PartitionerId::ALL {
            let a = id.partition(&spilled_ctx, 4, 17);
            let b = id.partition(&heap_ctx, 4, 17);
            prop_assert_eq!(a, b, "partitioner {} diverged on spilled adjacency", id.name());
        }
        drop(spilled_ctx);
        prop_assert_eq!(dir_entries(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Budget regression locks
// ---------------------------------------------------------------------

#[test]
fn zero_budget_forces_spill_and_unlimited_never_spills() {
    let g = Rmat::new(RMAT_COMBOS[5], 256, 4_000, 11).generate();
    let dir = spill_dir("force");
    let zero = zero_budget(&dir);
    let spilled_ctx = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&zero));
    assert!(spilled_ctx.undirected_simple().is_spilled());
    assert_eq!(spilled_ctx.spilled_csr_builds(), 1);
    assert_eq!(zero.charged(), 0, "a zero budget never grants heap charges");

    let unlimited = Arc::new(MemoryBudget::unlimited());
    let heap_ctx = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&unlimited));
    assert!(!heap_ctx.undirected_simple().is_spilled());
    assert_eq!(heap_ctx.spilled_csr_builds(), 0);
    assert_eq!(dump(spilled_ctx.undirected_simple()), dump(heap_ctx.undirected_simple()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_files_never_outlive_the_prepared_graph() {
    let g = Rmat::new(RMAT_COMBOS[2], 200, 3_000, 3).generate();
    let dir = spill_dir("hygiene");
    {
        let ctx = PreparedGraph::of(&g).with_memory_budget(zero_budget(&dir));
        let csr = ctx.undirected_simple();
        assert!(csr.is_spilled());
        assert!(csr.num_entries() > 0);
        // unlink-after-mmap: the directory is already empty while the
        // mapped CSR is still alive and serving neighbor queries
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "spill visible during life");
        let _ = ctx.triangle_counts();
        assert_eq!(ctx.spilled_csr_builds(), 2, "the forward lists spilled too");
        assert_eq!(dir_entries(&dir), Vec::<String>::new());
    }
    assert_eq!(dir_entries(&dir), Vec::<String>::new(), "spill left behind after drop");
    std::fs::remove_dir_all(&dir).ok();
}

/// A spill that cannot be made falls back to the in-heap build, uncharged:
/// here the spill dir lies under a regular file, so creating it fails with
/// `ENOTDIR` whoever runs the test. A host that cannot serve a spill
/// mapping zero-copy takes the same arm.
#[test]
fn a_spill_that_cannot_be_made_builds_in_heap_uncharged() {
    let g = Rmat::new(RMAT_COMBOS[5], 256, 4_000, 11).generate();
    let dir = spill_dir("blocked");
    let blocker = dir.join("a-file");
    std::fs::write(&blocker, b"").expect("write the blocking file");
    let budget = zero_budget(&blocker.join("spill"));
    let bits = |p: &ease_repro::graph::GraphProperties| {
        let floats = [p.density, p.mean_degree, p.in_degree_skew, p.out_degree_skew];
        let optional = [p.avg_triangles, p.avg_lcc].map(|x| x.map(f64::to_bits));
        (p.num_vertices, p.num_edges, floats.map(f64::to_bits), optional)
    };
    let tier = ease_repro::graph::PropertyTier::Advanced;
    let want = bits(&PreparedGraph::of(&g).properties(tier));
    {
        let ctx = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&budget));
        assert_eq!(bits(&ctx.properties(tier)), want);
        assert_eq!(ctx.spilled_csr_builds(), 0);
        assert_eq!(budget.spill_events(), 0);
    }
    assert_eq!(budget.charged(), 0, "nothing stays charged after drop");
    assert_eq!(dir_entries(&dir), ["a-file"]);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// In-place simplify allocation lock
// ---------------------------------------------------------------------

/// The simplify pass compacts in place: it must NOT allocate a second
/// full-size targets buffer (the pre-refactor implementation built the
/// deduplicated adjacency into a fresh `Vec` nearly as large as the raw
/// one). Dense graph, so the `2|E|` targets dominate every `O(|V|)` table.
#[test]
fn undirected_simplify_compacts_in_place_without_a_second_targets_buffer() {
    let g = Rmat::new(RMAT_COMBOS[5], 256, 20_000, 13).generate();
    let n = g.num_vertices();
    let entries = g.num_edges() * 2;
    let raw_bytes = Csr::heap_bytes(n, entries) as u64;
    let (csr, allocated) = tracked(|| Csr::build(&g, Route::Undirected));
    assert!(csr.num_entries() < entries, "simplify removed duplicates/self-loops");
    // raw build (offsets + targets + count table) plus slack; a second
    // full-size targets vector (+8 bytes x |E|) would blow this bound
    let bound = raw_bytes + raw_bytes / 2;
    assert!(
        allocated < bound,
        "simplify allocated {allocated} bytes (raw CSR is {raw_bytes}; bound {bound}) — \
         did the in-place compaction regress to a copy?"
    );
}

/// The whole advanced-tier extraction — degree table, ranks, forward lists,
/// scan — allocates less than the raw undirected CSR alone did, the stage
/// the source-fed kernel deleted: `4·|E|` bytes of forward entries stand in
/// for `8·|E|`. Heap and spilled; the spilled build holds one chunk of the
/// forward lists and reads the mapping in place. Dense graph, so the
/// targets dominate every `O(|V|)` table.
#[test]
fn advanced_extraction_allocates_less_than_the_undirected_csr_did() {
    let g = Rmat::new(RMAT_COMBOS[5], 1 << 10, 40_000, 13).generate();
    let bound = Csr::heap_bytes(g.num_vertices(), 2 * g.num_edges()) as u64;
    let tier = ease_repro::graph::PropertyTier::Advanced;
    let dir = spill_dir("advanced_alloc");
    let budgets = [("heap", Arc::new(MemoryBudget::unlimited())), ("spilled", zero_budget(&dir))];
    for (what, budget) in budgets {
        let ctx = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&budget));
        let (props, allocated) = tracked(|| ctx.properties(tier));
        assert!(props.avg_triangles.is_some_and(|t| t > 0.0), "the graph has triangles to count");
        assert_eq!(ctx.undirected_csr_builds(), 0);
        assert_eq!(budget.spill_events(), u64::from(what == "spilled"));
        assert!(
            allocated < bound,
            "{what} advanced extraction allocated {allocated} bytes; \
             the raw undirected CSR alone was {bound}"
        );
    }
    assert_eq!(dir_entries(&dir), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Daemon spill hygiene: budgeted answers are bit-identical (modulo the
// timing line) and shutdown leaves the spill directory empty
// ---------------------------------------------------------------------

#[test]
fn budgeted_daemon_spills_serves_identical_answers_and_cleans_up_on_shutdown() {
    let dir = spill_dir("daemon");
    let fixture_dir = spill_dir("daemon_fixtures");
    let graph = fixture_dir.join("graph.txt");
    let g = Rmat::new(RMAT_COMBOS[5], 512, 6_000, 21).generate();
    ease_repro::graph::io::write_edge_list(&g, &graph).expect("write graph");

    // reference: the unbudgeted one-shot features answer
    let source = ease_repro::graph::open_path(&graph).expect("open graph");
    let graph_str = graph.to_str().expect("utf8").to_string();
    let tier = ease_repro::graph::PropertyTier::Advanced;
    let expected =
        serve::render_features(&graph_str, source.as_ref(), tier, None).expect("one-shot features");

    let socket = fixture_dir.join("daemon.sock");
    let budget = zero_budget(&dir);
    let config = ServeConfig::at(&socket).workers(2).memory_budget(Arc::clone(&budget));
    // the daemon serves the suites' shared model, though features answers
    // never read it
    let handle = spawn_daemon(config);
    let request = Request::Features { graph: graph_str, tier, cwd: None };
    let answer = serve::expect_answer(serve::call(&socket, &request).expect("daemon call"))
        .expect("features answer");
    assert_eq!(
        strip_timing(&answer),
        strip_timing(&expected),
        "budgeted daemon answer must match the unbudgeted one-shot answer"
    );
    // the request's analysis really went out of core...
    assert_eq!(budget.charged(), 0, "zero budget: nothing on the heap ledger");
    // ...and the daemon never leaves a spill behind, even mid-flight
    assert_eq!(dir_entries(&dir), Vec::<String>::new(), "spills visible while serving");
    handle.trigger_shutdown();
    handle.join().expect("clean join");
    assert_eq!(dir_entries(&dir), Vec::<String>::new(), "spills left behind after shutdown");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fixture_dir).ok();
}
