//! `PreparedGraph` — a build-once, share-everywhere graph analysis context.
//!
//! Every layer of the workspace consumes *derived* graph structure: property
//! extraction needs the degree table and the triangle counts, triangle
//! counting needs the total degrees for its ranking, DBH and HEP need total
//! degrees, the placement simulator needs out- and total-degree vectors, and
//! profiling runs 11 partitioners × K on the *same* graph. Rebuilding each of
//! those from the raw edge list at every call site is the dominant shared
//! cost of the training pipeline (the HEP paper makes the same observation
//! about degree/adjacency precomputation across partitioners).
//!
//! [`PreparedGraph`] holds one [`GraphSource`], borrowed or owned — an
//! in-memory [`Graph`] (a text edge list is read into one) or a
//! memory-mapped `.bel` file ([`crate::bel::BelSource`]) — and lazily
//! memoizes, behind [`OnceLock`]s, the three results the rest of the
//! workspace asks it for:
//!
//! * the [`DegreeTable`] (degrees + moments + skewness), whose counting
//!   pass also folds the content fingerprint incrementally,
//! * per-vertex triangle counts and degrees of the undirected simple graph,
//!   from a kernel that routes the edge stream into rank-space forward lists
//!   ([`crate::triangles`]) — a transient half-size CSR, charged to the memory
//!   budget or spilled while it lives, plus, on a graph with a hub core, a
//!   transient bitmap of its hubs' lists (at most 128 KiB), charged to the
//!   budget too and skipped when the charge is refused,
//! * a stable content [fingerprint](PreparedGraph::fingerprint) for
//!   query-side property caches.
//!
//! One adjacency is memoized besides them, and only for callers of
//! [`PreparedGraph::undirected_simple`]: no property tier and no partitioner
//! reads it (neighborhood expansion builds its own incidence lists); it
//! survives for the benchmark harness's traced cold operation.
//!
//! Nothing is computed until first use, every structure is computed at most
//! once — each by sequential passes on the calling thread; parallelism is the
//! caller's, one graph per worker — and `&PreparedGraph` is `Send + Sync`, so
//! one context can serve a whole profiling fan-out. No context ever
//! materializes an owned `Vec<Edge>`: derived structure is built straight off
//! the source's replayable stream, and edge access goes through
//! [`PreparedGraph::for_each_edge`] (monomorphized slice loop when the source
//! has its edges in memory, streaming replay otherwise).
//!
//! ```
//! use ease_graph::{Graph, PreparedGraph, PropertyTier};
//!
//! let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
//! let prepared = PreparedGraph::of(&g);
//! let props = prepared.properties(PropertyTier::Advanced);
//! assert_eq!(props.avg_triangles, Some(1.0));
//! // the second extraction reuses every memoized structure
//! let again = prepared.properties(PropertyTier::Advanced);
//! assert_eq!(props, again);
//! // ... none of which is the undirected simple CSR
//! assert_eq!(prepared.undirected_csr_builds(), 0);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::budget::MemoryBudget;
use crate::csr::{Csr, Route};
use crate::degree::DegreeTable;
use crate::edge_list::Graph;
use crate::properties::{GraphProperties, PropertyTier};
use crate::source::{each_edge, fingerprint_source, GraphSource};
use crate::triangles::{self, TriangleStats, TriangleTable};
use crate::types::Edge;

/// How the context holds its source: any backend borrowed (a `&Graph`
/// included), or an owned `Graph`.
enum GraphHandle<'g> {
    Borrowed(&'g dyn GraphSource),
    Owned(Graph),
}

/// A graph source plus lazily built, memoized derived structure. See the
/// module docs for the motivation; the short version is *build once, share
/// everywhere*, over any ingestion backend.
pub struct PreparedGraph<'g> {
    handle: GraphHandle<'g>,
    undirected_simple: OnceLock<Csr>,
    degrees: OnceLock<DegreeTable>,
    triangles: OnceLock<TriangleTable>,
    fingerprint: OnceLock<u64>,
    /// Observability hook: how many times the undirected simple CSR was
    /// actually constructed (must stay ≤ 1, and 0 unless a caller asks for
    /// it by name; locked by tests).
    undirected_builds: AtomicU32,
    /// Heap budget for every CSR this context builds (PR 8): charge on
    /// in-heap build, spill to a mapped temp file when the charge is
    /// refused. `None` = in-heap always, exactly the pre-budget behaviour.
    budget: Option<Arc<MemoryBudget>>,
    /// Bytes this context has charged to `budget` for its memoized CSR
    /// (released on drop).
    charged: AtomicUsize,
    /// Observability hook: how many CSR builds went out of core.
    spilled_builds: AtomicU32,
}

impl std::fmt::Debug for PreparedGraph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("in_memory", &self.source().edge_slice().is_some())
            .field("undirected_simple", &self.undirected_simple.get().is_some())
            .field("degrees", &self.degrees.get().is_some())
            .field("triangle_counts", &self.triangles.get().is_some())
            .field("fingerprint", &self.fingerprint.get())
            .finish()
    }
}

impl<'g> PreparedGraph<'g> {
    /// Borrow `graph` without copying it. The context lives at most as long
    /// as the graph.
    pub fn of(graph: &'g Graph) -> PreparedGraph<'g> {
        Self::of_source(graph)
    }

    /// Take ownership of `graph`.
    pub fn new(graph: Graph) -> PreparedGraph<'static> {
        PreparedGraph::from_handle(GraphHandle::Owned(graph))
    }

    /// Borrow any [`GraphSource`] — the zero-copy ingestion path: a
    /// memory-mapped `.bel` file feeds the context directly, and no owned
    /// `Vec<Edge>` is ever materialized.
    pub fn of_source(source: &'g dyn GraphSource) -> PreparedGraph<'g> {
        Self::from_handle(GraphHandle::Borrowed(source))
    }

    fn from_handle(handle: GraphHandle<'g>) -> Self {
        PreparedGraph {
            handle,
            undirected_simple: OnceLock::new(),
            degrees: OnceLock::new(),
            triangles: OnceLock::new(),
            fingerprint: OnceLock::new(),
            undirected_builds: AtomicU32::new(0),
            budget: None,
            charged: AtomicUsize::new(0),
            spilled_builds: AtomicU32::new(0),
        }
    }

    /// Attach a (shareable) memory budget: each CSR about to be built —
    /// the memoized undirected adjacency and the triangle kernel's transient
    /// forward lists — charges its heap bytes first, and a refused charge
    /// reroutes the build out of core — spilled to an unlinked `EASECSR1`
    /// temp file and mmapped read-only (see [`crate::spill`]). The kernel's
    /// hub bitmap charges its bytes as well; a refused charge runs the plain
    /// scan without it. Every derived result is bit-identical either way;
    /// the forward lists' and the bitmap's charges are released when the
    /// kernel is done with them, the adjacency's when the context drops.
    pub fn with_memory_budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// How many CSRs were built out of core so far (0 without a budget or
    /// when everything fit).
    pub fn spilled_csr_builds(&self) -> u32 {
        self.spilled_builds.load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter)
    }

    /// Heap-or-spill decision for every CSR this context builds;
    /// returns the CSR and the bytes charged for it, which the caller owes back to
    /// the budget. No budget — or a granted charge — builds in heap exactly
    /// as before; a refused charge streams the build through a bounded
    /// chunk into a spill file. A failed spill (full temp disk, unwritable
    /// dir, a big-endian host that cannot map it zero-copy) falls back to
    /// the in-heap build, uncharged: correctness over the budget, and a
    /// daemon that degrades instead of dying.
    fn build_csr(&self, route: Route<'_>) -> (Csr, usize) {
        let in_heap = || Csr::build(self.source(), route);
        let Some(budget) = &self.budget else { return (in_heap(), 0) };
        // what the placement pass allocates, before any simplify: |E| bounds
        // the forward lists' one entry per non-loop edge
        let entries = match route {
            Route::Undirected => self.num_edges().saturating_mul(2),
            Route::Forward(_) => self.num_edges(),
        };
        let bytes = Csr::heap_bytes(self.num_vertices(), entries);
        if budget.try_charge(bytes) {
            return (in_heap(), bytes);
        }
        match Csr::build_spilled(
            self.source(),
            route,
            budget.spill_chunk_bytes(),
            budget.spill_dir(),
        ) {
            Ok(csr) => {
                // lint: relaxed-ok(diagnostic counter; OnceLock publishes what the CSR yields)
                self.spilled_builds.fetch_add(1, Ordering::Relaxed);
                budget.note_spill();
                (csr, 0)
            }
            Err(_) => (in_heap(), 0),
        }
    }

    /// The ingestion source backing this context.
    #[inline]
    pub fn source(&self) -> &dyn GraphSource {
        match &self.handle {
            GraphHandle::Borrowed(s) => *s,
            GraphHandle::Owned(g) => g,
        }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.source().num_vertices()
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.source().edge_count()
    }

    /// Replay the edge stream in order. In-memory graphs iterate their
    /// slice (fully monomorphized); other sources replay their stream.
    #[inline]
    pub fn for_each_edge<F: FnMut(Edge)>(&self, f: F) {
        each_edge(self.source(), f);
    }

    /// [`PreparedGraph::for_each_edge`] with the 0-based stream index —
    /// the index every [`crate::Edge`]-indexed structure (partition
    /// assignments, eligibility masks) is keyed by.
    #[inline]
    pub fn for_each_edge_indexed<F: FnMut(usize, Edge)>(&self, mut f: F) {
        let mut i = 0usize;
        each_edge(self.source(), |e| {
            f(i, e);
            i += 1;
        });
    }

    /// Undirected *simple* adjacency (sorted lists, no loops/duplicates).
    /// Built at most once per context, and only for callers of this
    /// accessor: no property tier and no partitioner reads it — it is kept
    /// for the benchmark harness's traced cold operation. Its budget charge
    /// lives as long as the context and is returned on drop.
    pub fn undirected_simple(&self) -> &Csr {
        self.undirected_simple.get_or_init(|| {
            // lint: relaxed-ok(diagnostic build counter; OnceLock publishes the CSR itself)
            self.undirected_builds.fetch_add(1, Ordering::Relaxed);
            let (csr, bytes) = self.build_csr(Route::Undirected);
            // lint: relaxed-ok(accounting counter read only by our own Drop)
            self.charged.fetch_add(bytes, Ordering::Relaxed);
            csr
        })
    }

    /// How many times the undirected simple CSR was constructed so far
    /// (0 before the first [`Self::undirected_simple`] call, 1 ever after —
    /// memoization makes more impossible).
    pub fn undirected_csr_builds(&self) -> u32 {
        self.undirected_builds.load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter)
    }

    /// Degree tables + moments/skewness, built on first use. Unless the
    /// fingerprint is memoized already, the counting pass folds it as it
    /// goes, so a context that derives degrees gets
    /// [`PreparedGraph::fingerprint`] for free — one traversal, two memoized
    /// results — and one that looked its fingerprint up first (a property
    /// cache miss) hashes its edge stream once, not twice.
    pub fn degrees(&self) -> &DegreeTable {
        self.degrees.get_or_init(|| {
            if self.fingerprint.get().is_some() {
                return DegreeTable::count_source(self.source());
            }
            let (table, fingerprint) = DegreeTable::compute_source(self.source());
            // Opportunistic: a concurrent standalone fingerprint pass may
            // have won the race — the values are identical either way.
            let _ = self.fingerprint.set(fingerprint);
            table
        })
    }

    /// The triangle kernel's output, computed on first use: ranks from the
    /// degree table, forward lists routed straight off the source — in heap
    /// while the budget admits them, spilled otherwise — and the hub core's
    /// bitmap (at most 128 KiB), charged to the budget too: a refused charge
    /// runs the plain scan, with no bitmap. Both are dropped, and their
    /// charges released, as soon as the scan is over.
    fn triangle_table(&self) -> &TriangleTable {
        self.triangles.get_or_init(|| {
            let charged = Cell::new(0);
            let table = triangles::count_with(
                &self.degrees().total,
                |rank| {
                    let (forward, bytes) = self.build_csr(Route::Forward(rank));
                    charged.set(bytes);
                    forward
                },
                |bitmap| {
                    let Some(budget) = &self.budget else { return true };
                    let granted = budget.try_charge(bitmap);
                    if granted {
                        charged.set(charged.get() + bitmap);
                    }
                    granted
                },
            );
            if let Some(budget) = &self.budget {
                budget.release(charged.get());
            }
            table
        })
    }

    /// Per-vertex triangle counts of the undirected simple graph, computed
    /// on first use by the source-fed kernel of [`crate::triangles`].
    pub fn triangle_counts(&self) -> &[u64] {
        &self.triangle_table().counts
    }

    /// Averaged triangle statistics (`t(G)`, `C(G)`) from the memoized
    /// counts and simple-graph degrees — bit-identical to
    /// [`triangles::stats_from_parts`] over the materialized adjacency.
    pub fn triangle_stats(&self) -> TriangleStats {
        self.triangle_table().stats()
    }

    /// Graph properties up to `tier`, computed from the memoized structures.
    /// Only the structures the tier needs are built: `Simple` touches
    /// nothing, `Basic` the degree table, `Advanced` additionally the
    /// triangle table — one kernel run, whose table the triangle average and
    /// the clustering coefficient share.
    pub fn properties(&self, tier: PropertyTier) -> GraphProperties {
        let n = self.num_vertices();
        let m = self.num_edges();
        let density = if n > 1 { m as f64 / (n as f64 * (n as f64 - 1.0)) } else { 0.0 };
        let mean_degree = if n > 0 { 2.0 * m as f64 / n as f64 } else { 0.0 };
        let (in_skew, out_skew) = if matches!(tier, PropertyTier::Simple) {
            (0.0, 0.0)
        } else {
            let deg = self.degrees();
            (deg.in_moments.pearson_skew, deg.out_moments.pearson_skew)
        };
        let (avg_triangles, avg_lcc) = if matches!(tier, PropertyTier::Advanced) {
            let s = self.triangle_stats();
            (Some(s.avg_triangles), Some(s.avg_lcc))
        } else {
            (None, None)
        };
        GraphProperties {
            num_vertices: n,
            num_edges: m,
            density,
            mean_degree,
            in_degree_skew: in_skew,
            out_degree_skew: out_skew,
            avg_triangles,
            avg_lcc,
        }
    }

    /// A stable content fingerprint: equal for identical `(num_vertices,
    /// edge stream)` inputs — across every ingestion backend — and
    /// different (with overwhelming probability) when any edge,
    /// the edge order, or the vertex universe changes. Keys the query-side
    /// property caches; see [`crate::source`] for the block construction.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| fingerprint_source(self.source()))
    }
}

impl Drop for PreparedGraph<'_> {
    fn drop(&mut self) {
        if let Some(budget) = &self.budget {
            // lint: relaxed-ok(accounting counter; no memory is published through it)
            budget.release(self.charged.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_source;
    use crate::types::Edge;

    fn toy() -> Graph {
        Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)])
    }

    /// A source that hides its slice — simulates the mmap/stream backends
    /// inside this crate's unit tests.
    struct NoSlice(Graph);

    impl GraphSource for NoSlice {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn edge_count(&self) -> usize {
            self.0.num_edges()
        }
        fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) {
            GraphSource::for_each_edge(&self.0, f)
        }
    }

    #[test]
    fn advanced_properties_build_no_undirected_csr() {
        let g = toy();
        let prepared = PreparedGraph::of(&g);
        let a = prepared.properties(PropertyTier::Advanced);
        let b = prepared.properties(PropertyTier::Advanced);
        let _ = prepared.triangle_counts();
        let _ = prepared.triangle_stats();
        assert_eq!(prepared.undirected_csr_builds(), 0, "the kernel is fed by the source");
        assert_eq!(a, b);
    }

    #[test]
    fn undirected_simple_is_built_exactly_once_and_only_on_request() {
        let g = toy();
        let prepared = PreparedGraph::of(&g);
        assert_eq!(prepared.undirected_csr_builds(), 0, "lazy until first use");
        let _ = prepared.undirected_simple();
        assert_eq!(prepared.undirected_csr_builds(), 1);
        let _ = prepared.undirected_simple();
        let _ = prepared.properties(PropertyTier::Advanced);
        assert_eq!(prepared.undirected_csr_builds(), 1);
    }

    #[test]
    fn simple_tier_builds_nothing() {
        let g = toy();
        let prepared = PreparedGraph::of(&g);
        let p = prepared.properties(PropertyTier::Simple);
        assert_eq!(p.num_edges, 6);
        assert_eq!(prepared.undirected_csr_builds(), 0);
        assert!(!format!("{prepared:?}").contains("degrees: true"));
    }

    #[test]
    fn memoized_views_match_direct_builds() {
        let g = toy();
        let prepared = PreparedGraph::of(&g);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(
                prepared.undirected_simple().neighbors(v),
                Csr::build(&g, Route::Undirected).neighbors(v)
            );
        }
        assert_eq!(prepared.degrees().total, g.total_degrees());
        assert_eq!(
            prepared.triangle_counts(),
            triangles::count_source(&g, &g.total_degrees()).counts
        );
    }

    #[test]
    fn ownership_modes_agree() {
        let g = toy();
        let borrowed = PreparedGraph::of(&g);
        let owned = PreparedGraph::new(g.clone());
        assert_eq!(borrowed.fingerprint(), owned.fingerprint());
    }

    #[test]
    fn source_backed_context_matches_graph_backed_bit_for_bit() {
        let g = toy();
        let via_graph = PreparedGraph::of(&g);
        let hidden = NoSlice(g.clone());
        let via_source = PreparedGraph::of_source(&hidden);
        assert!(via_source.source().edge_slice().is_none());
        assert_eq!(via_source.num_vertices(), via_graph.num_vertices());
        assert_eq!(via_source.num_edges(), via_graph.num_edges());
        assert_eq!(via_source.fingerprint(), via_graph.fingerprint());
        assert_eq!(
            via_source.properties(PropertyTier::Advanced),
            via_graph.properties(PropertyTier::Advanced)
        );
        assert_eq!(via_source.degrees().total, via_graph.degrees().total);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(
                via_source.undirected_simple().neighbors(v),
                via_graph.undirected_simple().neighbors(v)
            );
        }
        // indexed replay sees the same stream
        let mut seen = Vec::new();
        via_source.for_each_edge_indexed(|i, e| seen.push((i, e)));
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[4], (4, g.edges()[4]));
        assert_eq!(collect_source(via_source.source()), g);
    }

    #[test]
    fn degrees_fold_the_fingerprint_in_the_same_pass() {
        let g = toy();
        let reference = PreparedGraph::of(&g).fingerprint();
        let prepared = PreparedGraph::of(&g);
        let _ = prepared.degrees();
        // the fused pass already populated the fingerprint cache
        assert_eq!(prepared.fingerprint.get().copied(), Some(reference));
        assert_eq!(prepared.fingerprint(), reference);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let g = toy();
        let a = PreparedGraph::of(&g).fingerprint();
        let b = PreparedGraph::of(&g.clone()).fingerprint();
        assert_eq!(a, b, "same content -> same fingerprint");
        // flip one edge endpoint
        let mut changed = g.clone();
        changed.edges_mut()[0] = Edge::new(0, 2);
        assert_ne!(a, PreparedGraph::of(&changed).fingerprint());
        // add an edge
        let mut grown = g.clone();
        grown.push_edge(0, 3);
        assert_ne!(a, PreparedGraph::of(&grown).fingerprint());
        // grow the vertex universe without touching edges
        let padded = Graph::new(g.num_vertices() + 1, g.edges().to_vec());
        assert_ne!(a, PreparedGraph::of(&padded).fingerprint());
    }

    #[test]
    fn prepared_is_shareable_across_threads() {
        let g = toy();
        let prepared = PreparedGraph::of(&g);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let p = prepared.properties(PropertyTier::Advanced);
                    assert_eq!(p.num_edges, 6);
                    assert_eq!(prepared.undirected_simple().num_entries(), 12);
                });
            }
        });
        assert_eq!(prepared.undirected_csr_builds(), 1, "OnceLock serializes the build");
    }

    #[test]
    fn budget_zero_spills_and_unlimited_never_does() {
        let g = toy();
        let dir = std::env::temp_dir().join(format!("ease_prep_budget_{}", std::process::id()));
        let zero = Arc::new(MemoryBudget::bytes(0).with_spill_dir(&dir));
        let spilled = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&zero));
        assert!(spilled.undirected_simple().is_spilled());
        assert_eq!(spilled.spilled_csr_builds(), 1);
        assert_eq!(zero.charged(), 0, "spilled builds charge nothing");

        let unlimited = Arc::new(MemoryBudget::unlimited());
        let in_heap = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&unlimited));
        assert!(!in_heap.undirected_simple().is_spilled());
        assert_eq!(in_heap.spilled_csr_builds(), 0);

        // bit-identical derived state either way, the kernel's forward
        // lists being one more spilled build
        assert_eq!(
            spilled.properties(PropertyTier::Advanced),
            PreparedGraph::of(&g).properties(PropertyTier::Advanced)
        );
        assert_eq!(spilled.spilled_csr_builds(), 2);
        assert_eq!(zero.spill_events(), 2);
        assert_eq!(zero.charged(), 0);
        assert_eq!(in_heap.properties(PropertyTier::Advanced).avg_triangles, Some(3.0));
        assert_eq!(in_heap.spilled_csr_builds(), 0);
        assert_eq!(spilled.fingerprint(), in_heap.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn granted_charges_are_released_on_drop() {
        let g = toy();
        let budget = Arc::new(MemoryBudget::bytes(1 << 20));
        {
            let prepared = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&budget));
            let _ = prepared.undirected_simple();
            let expected = Csr::heap_bytes(g.num_vertices(), 2 * g.num_edges());
            assert_eq!(budget.charged(), expected);
            // the kernel's forward lists are charged only while they live
            let _ = prepared.triangle_stats();
            assert_eq!(budget.charged(), expected, "the transient charge is back after the scan");
            assert_eq!(prepared.spilled_csr_builds(), 0, "and it was granted, not spilled");
        }
        assert_eq!(budget.charged(), 0, "drop returns every charge");
    }

    /// The forward lists are the budgeted object: a budget too small for
    /// them spills them, and nothing stays charged either way.
    #[test]
    fn forward_lists_are_charged_while_they_live_or_spilled() {
        let g = toy();
        let bytes = Csr::heap_bytes(g.num_vertices(), g.num_edges());
        let dir = std::env::temp_dir().join(format!("ease_prep_forward_{}", std::process::id()));
        for (limit, spills) in [(bytes, 0), (bytes - 1, 1)] {
            let budget = Arc::new(MemoryBudget::bytes(limit).with_spill_dir(&dir));
            let prepared = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&budget));
            assert_eq!(prepared.triangle_counts(), [3, 3, 3, 3]);
            assert_eq!(prepared.spilled_csr_builds(), spills);
            assert_eq!(budget.spill_events(), u64::from(spills));
            assert_eq!(budget.charged(), 0);
            assert_eq!(prepared.undirected_csr_builds(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `K_64` on the top ids of 512 vertices: the hub rule picks 64 hubs,
    /// a 512-byte bitmap.
    fn hub_core() -> Graph {
        Graph::from_pairs((448..512).flat_map(|a| (a + 1..512).map(move |b| (a, b))))
    }

    fn bitmaps_built() -> usize {
        triangles::BITMAPS_BUILT.with(std::cell::Cell::get)
    }

    /// The hub bitmap is charged like the forward lists: a zero budget
    /// refuses it and the plain scan runs with no bitmap, a budget that
    /// spills the lists can still admit it, and every answer is the same.
    #[test]
    fn the_hub_bitmap_is_charged_and_a_refusal_allocates_none() {
        let g = hub_core();
        let want = PreparedGraph::of(&g).properties(PropertyTier::Advanced);
        assert_eq!(want.avg_triangles, Some(64.0 * 63.0 * 62.0 / 6.0 * 3.0 / 512.0));
        let lists = Csr::heap_bytes(g.num_vertices(), g.num_edges());
        let bitmap = 64 * 8;
        let dir = std::env::temp_dir().join(format!("ease_prep_bitmap_{}", std::process::id()));
        // (limit, forward lists spilled, bitmap built)
        for (limit, spills, bitmaps) in
            [(0, 1, 0), (bitmap, 1, 1), (lists, 0, 0), (lists + bitmap, 0, 1)]
        {
            let budget = Arc::new(MemoryBudget::bytes(limit).with_spill_dir(&dir));
            let prepared = PreparedGraph::of(&g).with_memory_budget(Arc::clone(&budget));
            let before = bitmaps_built();
            assert_eq!(prepared.properties(PropertyTier::Advanced), want, "limit {limit}");
            assert_eq!(bitmaps_built() - before, bitmaps, "limit {limit}");
            assert_eq!(prepared.spilled_csr_builds(), spills, "limit {limit}");
            assert_eq!(budget.charged(), 0, "both charges are back after the scan");
        }
        let before = bitmaps_built();
        let unbudgeted = PreparedGraph::of(&g);
        let _ = unbudgeted.triangle_counts();
        assert_eq!(bitmaps_built() - before, 1, "no budget, no refusal");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A context whose fingerprint is memoized derives the same degree
    /// table without folding it again, and keeps the fingerprint it had.
    #[test]
    fn degrees_after_the_fingerprint_match_degrees_before_it() {
        let g = toy();
        let fused = PreparedGraph::of(&g);
        let fused_table = fused.degrees().clone();
        let looked_up = PreparedGraph::of(&g);
        let fingerprint = looked_up.fingerprint();
        let table = looked_up.degrees();
        assert_eq!(
            (&table.out, &table.into, &table.total),
            (&fused_table.out, &fused_table.into, &fused_table.total)
        );
        assert_eq!(table.in_moments, fused_table.in_moments);
        assert_eq!(table.out_moments, fused_table.out_moments);
        assert_eq!(fused.fingerprint(), fingerprint);
        assert_eq!(looked_up.fingerprint(), fingerprint);
    }

    #[test]
    fn empty_graph_is_degenerate_but_safe() {
        let g = Graph::empty(0);
        let prepared = PreparedGraph::of(&g);
        let p = prepared.properties(PropertyTier::Advanced);
        assert_eq!(p.avg_triangles, Some(0.0));
        assert_eq!(prepared.triangle_counts().len(), 0);
        let _ = prepared.fingerprint();
    }
}
