//! Property tests for the prepared-graph analysis context: extraction
//! through [`PreparedGraph`] must be *bit-identical* to the pre-refactor
//! direct path, and the content fingerprint must be stable under
//! recomputation yet sensitive to any edge change. The source-fed triangle
//! kernel behind the advanced tier is differential-tested against a naive
//! oracle over the undirected simple CSR the kernel no longer builds.

mod common;

use common::naive_triangle_counts;
use ease_repro::graph::bel::{write_bel, BelSource};
use ease_repro::graph::degree::DegreeTable;
use ease_repro::graph::{
    triangles, Csr, Edge, Graph, GraphProperties, GraphSource, MemoryBudget, PropertyTier,
};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::PreparedGraph;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An in-memory graph that hides its slice, so builders take the replay
/// path every non-resident source takes.
struct NoSlice<'g>(&'g Graph);

impl GraphSource for NoSlice<'_> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn edge_count(&self) -> usize {
        self.0.num_edges()
    }
    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) {
        GraphSource::for_each_edge(self.0, f)
    }
}

/// A fresh path under the temp dir, unique to this call and process: the
/// suite's tests run on parallel threads and must not share a file.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
    std::env::temp_dir().join(format!("ease_pg_{tag}_{}_{n}", std::process::id()))
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..9, 40usize..600, 0u64..50)
        .prop_map(|(combo, edges, seed)| Rmat::new(RMAT_COMBOS[combo], 128, edges, seed).generate())
}

/// Small, dense multigraphs the R-MAT strategy does not reach: endpoints
/// drawn from a handful of ids so triangles, self-loops and parallel edges
/// are common, some edges repeated and some reversed on purpose, and up to
/// five isolated vertices beyond the largest endpoint. May have no edge.
fn arb_multigraph() -> impl Strategy<Value = Graph> {
    (1u32..28, 0usize..6).prop_flat_map(|(ids, isolated)| {
        prop::collection::vec((0..ids, 0..ids), 0..220).prop_map(move |pairs| {
            let mut edges: Vec<Edge> = pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect();
            edges.extend(pairs.iter().step_by(3).map(|&(s, d)| Edge::new(d, s)));
            edges.extend(pairs.iter().step_by(5).map(|&(s, d)| Edge::new(s, d)));
            Graph::new(ids as usize + isolated, edges)
        })
    })
}

/// The pre-refactor direct extraction path, reimplemented verbatim: degree
/// table and triangle statistics derived straight from the edge list with
/// no shared context. Any numerical drift in the prepared path fails the
/// bit-identity test below.
fn direct_properties(graph: &Graph, tier: PropertyTier) -> GraphProperties {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let density = if n > 1 { m as f64 / (n as f64 * (n as f64 - 1.0)) } else { 0.0 };
    let mean_degree = if n > 0 { 2.0 * m as f64 / n as f64 } else { 0.0 };
    let (in_skew, out_skew) = if matches!(tier, PropertyTier::Simple) {
        (0.0, 0.0)
    } else {
        let deg = DegreeTable::compute(graph);
        (deg.in_moments.pearson_skew, deg.out_moments.pearson_skew)
    };
    let (avg_triangles, avg_lcc) = if matches!(tier, PropertyTier::Advanced) {
        let s = triangles::count_source(graph, &graph.total_degrees()).stats();
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

fn assert_bit_identical(a: &GraphProperties, b: &GraphProperties) {
    assert_eq!(a.num_vertices, b.num_vertices);
    assert_eq!(a.num_edges, b.num_edges);
    assert_eq!(a.density.to_bits(), b.density.to_bits());
    assert_eq!(a.mean_degree.to_bits(), b.mean_degree.to_bits());
    assert_eq!(a.in_degree_skew.to_bits(), b.in_degree_skew.to_bits());
    assert_eq!(a.out_degree_skew.to_bits(), b.out_degree_skew.to_bits());
    assert_eq!(a.avg_triangles.map(f64::to_bits), b.avg_triangles.map(f64::to_bits));
    assert_eq!(a.avg_lcc.map(f64::to_bits), b.avg_lcc.map(f64::to_bits));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every tier, through one shared context and through a fresh context
    /// per tier, produces bit-identical feature values.
    #[test]
    fn prepared_extraction_is_bit_identical_to_direct(g in arb_graph()) {
        let prepared = PreparedGraph::of(&g);
        for tier in PropertyTier::ALL {
            let via_prepared = prepared.properties(tier);
            let via_fresh = PreparedGraph::of(&g).properties(tier);
            let direct = direct_properties(&g, tier);
            assert_bit_identical(&via_prepared, &direct);
            assert_bit_identical(&via_fresh, &direct);
        }
        // one graph, three tiers: no tier builds the undirected CSR
        prop_assert_eq!(prepared.undirected_csr_builds(), 0);
    }

    /// The source-fed kernel agrees with the naive oracle over the simple
    /// CSR — which shares no code with it — on multigraphs with self-loops,
    /// parallel and reciprocal edges: per-vertex counts, and both averages
    /// bit for bit, from every kind of source and budget.
    #[test]
    fn triangle_kernel_matches_the_naive_oracle(g in arb_multigraph(), rmat in arb_graph()) {
        for g in [&g, &rmat] {
            let adj = Csr::build_undirected_simple(g);
            let want = naive_triangle_counts(&adj);
            prop_assert_eq!(want.len(), g.num_vertices());
            let want_stats = triangles::stats_from_parts(&adj, &want);
            prop_assert_eq!(&triangles::count_source(g, &g.total_degrees()).counts, &want);

            let bel = temp_path("oracle").with_extension("bel");
            write_bel(g, &bel).expect("write .bel");
            let mapped = BelSource::open(&bel).expect("open .bel");
            let hidden = NoSlice(g);
            let sources: [(&str, &dyn GraphSource); 3] =
                [("memory", g), ("hidden slice", &hidden), (".bel", &mapped)];
            let spill_dir = temp_path("oracle_spill");
            for (source_name, source) in sources {
                for limit in [usize::MAX, 0] {
                    let budget = Arc::new(MemoryBudget::bytes(limit).with_spill_dir(&spill_dir));
                    let prepared =
                        PreparedGraph::of_source(source).with_memory_budget(Arc::clone(&budget));
                    let what = format!("{source_name} budget {limit}");
                    prop_assert_eq!(prepared.triangle_counts(), want.as_slice(), "{}", &what);
                    let got = prepared.triangle_stats();
                    prop_assert_eq!(
                        got.avg_triangles.to_bits(), want_stats.avg_triangles.to_bits(), "{}", &what
                    );
                    prop_assert_eq!(got.avg_lcc.to_bits(), want_stats.avg_lcc.to_bits(), "{}", &what);
                    prop_assert_eq!(prepared.undirected_csr_builds(), 0, "{}", &what);
                    prop_assert_eq!(budget.spill_events(), u64::from(limit == 0), "{}", &what);
                    prop_assert_eq!(budget.charged(), 0, "{}", &what);
                }
            }
            std::fs::remove_file(&bel).ok();
            std::fs::remove_dir_all(&spill_dir).ok();
        }
    }

    /// Recomputing the fingerprint — same context or a fresh one over the
    /// same content — yields the same value.
    #[test]
    fn fingerprint_stable_under_recomputation(g in arb_graph()) {
        let a = PreparedGraph::of(&g);
        let first = a.fingerprint();
        prop_assert_eq!(first, a.fingerprint());
        prop_assert_eq!(first, PreparedGraph::of(&g).fingerprint());
        prop_assert_eq!(first, PreparedGraph::new(g.clone()).fingerprint());
    }

    /// Changing any single edge changes the fingerprint.
    #[test]
    fn fingerprint_changes_when_any_edge_changes(g in arb_graph(), pick in 0u64..1_000_000) {
        let baseline = PreparedGraph::of(&g).fingerprint();
        let m = g.num_edges();
        let n = g.num_vertices() as u32;
        prop_assume!(m > 0 && n > 1);
        let idx = (pick % m as u64) as usize;
        // rewire the picked edge's destination to a different vertex
        let mut changed = g.clone();
        let e = changed.edges()[idx];
        changed.edges_mut()[idx] = Edge::new(e.src, (e.dst + 1) % n);
        prop_assert_ne!(baseline, PreparedGraph::of(&changed).fingerprint());
        // dropping the picked edge changes it too
        let mut dropped = g.clone();
        dropped.edges_mut().remove(idx);
        let dropped = Graph::new(g.num_vertices(), dropped.edges().to_vec());
        prop_assert_ne!(baseline, PreparedGraph::of(&dropped).fingerprint());
        // and so does appending one
        let mut grown = g.clone();
        grown.push_edge(e.src, e.dst);
        prop_assert_ne!(baseline, PreparedGraph::of(&grown).fingerprint());
    }
}
