//! Property tests for the prepared-graph analysis context: extraction
//! through [`PreparedGraph`] must be *bit-identical* to the pre-refactor
//! direct path, and the content fingerprint must be stable under
//! recomputation yet sensitive to any edge change. The triangle kernel
//! behind the advanced tier is differential-tested against a naive oracle.

mod common;

use common::naive_triangle_counts;
use ease_repro::graph::degree::DegreeTable;
use ease_repro::graph::{triangles, Csr, Edge, Graph, GraphProperties, PropertyTier};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::PreparedGraph;
use proptest::prelude::*;

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
        let s = triangles::triangle_stats(graph);
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

    /// Every tier, through a shared context and through the legacy
    /// per-call path, produces bit-identical feature values.
    #[test]
    fn prepared_extraction_is_bit_identical_to_direct(g in arb_graph()) {
        let prepared = PreparedGraph::of(&g);
        for tier in PropertyTier::ALL {
            let via_prepared = prepared.properties(tier);
            let via_compute = GraphProperties::compute(&g, tier);
            let direct = direct_properties(&g, tier);
            assert_bit_identical(&via_prepared, &direct);
            assert_bit_identical(&via_compute, &direct);
        }
        // one graph, three tiers: the undirected CSR was still built once
        prop_assert_eq!(prepared.undirected_csr_builds(), 1);
    }

    /// The triangle kernel agrees with the naive oracle, called directly
    /// and through the memoizing context.
    #[test]
    fn triangle_kernel_matches_the_naive_oracle(g in arb_multigraph(), rmat in arb_graph()) {
        for g in [&g, &rmat] {
            let adj = Csr::build_undirected_simple(g);
            let want = naive_triangle_counts(&adj);
            prop_assert_eq!(want.len(), g.num_vertices());
            prop_assert_eq!(&triangles::triangle_counts_from_simple(&adj), &want);
            let prepared = PreparedGraph::of(g);
            prop_assert_eq!(prepared.triangle_counts(), want.as_slice());
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
