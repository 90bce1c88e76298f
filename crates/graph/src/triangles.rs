//! Triangle counting and local clustering coefficients.
//!
//! Both are "advanced" features in the paper (Table III): the average number
//! of triangles `t(G)` and the average local clustering coefficient `C(G)`
//! (Sec. II-B.3/4). Triangles are counted on the undirected simple graph by
//! the *forward* algorithm with mark-and-scan intersection — without ever
//! materialising that graph's adjacency — in three steps:
//!
//! 1. **Rank** vertices by `(total degree, id)` with a counting sort, `O(|V|)`.
//!    The degree is the raw one of [`DegreeTable::total`](crate::DegreeTable)
//!    — parallel edges and loops counted — which the degree stage has already
//!    computed. Any total order gives exact counts; this one keeps every
//!    forward list short: a list of `D` distinct higher-ranked neighbours
//!    accounts for at least `D²` of the `2|E|` degree sum.
//! 2. **Route** the edge stream into the forward adjacency in rank space —
//!    list `r` holds the *ranks* of the higher-ranked neighbours of the vertex
//!    ranked `r`. It is a [`Csr`] built with [`Route::Forward`]: one entry per
//!    non-loop edge at its lower-ranked endpoint, counted and placed in two
//!    sequential replays of the [`GraphSource`], then each list sorted and
//!    deduplicated by the CSR's own simplify pass — in heap, or through the
//!    spill chunk loop when a memory budget refuses it. Half the entries of
//!    the undirected simple CSR, and the only adjacency this module reads.
//! 3. **Mark and scan**: for each `v`, mark `fwd(v)` in a `|V|`-entry flag
//!    array, then for each `u ∈ fwd(v)` stream `fwd(u)` and add up the marks.
//!    Every hit `w` closes the triangle `{v, u, w}`, found exactly once with
//!    `v < u < w` in rank order. The scan has no data-dependent branch and
//!    no rank indirection, and keeps the `O(E^{3/2})` bound. The same pass
//!    recovers the simple-graph degree `c(v)` needs: `|fwd(r)|` plus the
//!    occurrences of `r` in the other lists. Counts and degrees are kept in
//!    rank space — where the hot, high-degree vertices sit together — and
//!    permuted back to vertex-id order once at the end.

use crate::csr::{Csr, Route};
use crate::source::GraphSource;
use crate::types::VertexId;

/// What the kernel computes, indexed by vertex id: the triangle count `t(v)`
/// and the degree of `v` in the undirected simple graph.
#[derive(Debug)]
pub struct TriangleTable {
    pub counts: Vec<u64>,
    pub degrees: Vec<u32>,
}

impl TriangleTable {
    /// Averaged triangle statistics `t(G)` and `C(G)`.
    pub fn stats(&self) -> TriangleStats {
        averaged(&self.counts, |v| self.degrees[v] as usize)
    }
}

/// The kernel over any edge stream: `total_degrees[v]` is the number of edge
/// endpoints at `v` (what [`DegreeTable::total`](crate::DegreeTable) holds).
/// Self-loops, parallel and reciprocal edges are ignored.
pub fn count_source(source: &dyn GraphSource, total_degrees: &[u32]) -> TriangleTable {
    count_with(total_degrees, |rank| Csr::build_simple_source(source, Route::Forward(rank)))
}

/// [`count_source`] with the forward build left to the caller, who is handed
/// the ranks and returns the simplified [`Route::Forward`] CSR over them —
/// [`crate::PreparedGraph`] puts its heap-or-spill decision there. The CSR is
/// dropped before the id-order result is allocated.
pub(crate) fn count_with(
    total_degrees: &[u32],
    build_forward: impl FnOnce(&[VertexId]) -> Csr,
) -> TriangleTable {
    let rank = rank_by_degree(total_degrees);
    let (counts, degrees) = scan_forward_lists(&build_forward(&rank));
    TriangleTable {
        counts: rank.iter().map(|&r| counts[r as usize]).collect(),
        degrees: rank.iter().map(|&r| degrees[r as usize]).collect(),
    }
}

/// Rank of every vertex in `(degree, id)` order, by counting sort. Ranks are
/// the vertex ids of the relabelled graph, so they fit [`VertexId`]. Degrees
/// are capped at `|V|` — above it they cannot shorten a list of distinct
/// neighbours further — which keeps the sort's table `O(|V|)` on multigraphs.
fn rank_by_degree(degrees: &[u32]) -> Vec<VertexId> {
    let n = degrees.len();
    let key = |d: u32| (d as usize).min(n);
    // next[k] = the rank the next vertex of key k receives
    let mut next = vec![0 as VertexId; n + 2];
    for &d in degrees {
        next[key(d) + 1] += 1;
    }
    for k in 0..=n {
        next[k + 1] += next[k];
    }
    degrees
        .iter()
        .map(|&d| {
            let slot = &mut next[key(d)];
            let r = *slot;
            *slot += 1;
            r
        })
        .collect()
}

/// Mark-and-scan over the forward lists; returns triangle counts and simple
/// degrees, both indexed by rank.
fn scan_forward_lists(fwd: &Csr) -> (Vec<u64>, Vec<u32>) {
    debug_assert!(
        fwd.iter().all(|(v, list)| list.first().is_none_or(|&w| w > v)
            && list.windows(2).all(|w| w[0] < w[1])),
        "triangle counting needs simplified forward lists: strictly increasing, above their own rank"
    );
    let n = fwd.num_vertices();
    let mut counts = vec![0u64; n];
    let mut degrees = vec![0u32; n];
    let mut marked = vec![false; n];
    for v in 0..n {
        let fwd_v = fwd.neighbors(v as VertexId);
        // each undirected simple edge is in exactly one list: one degree for
        // the list's owner, one for the entry
        degrees[v] += fwd_v.len() as u32;
        for &w in fwd_v {
            degrees[w as usize] += 1;
        }
        // the lowest-ranked corner of a triangle has two forward neighbours
        if fwd_v.len() < 2 {
            continue;
        }
        for &w in fwd_v {
            marked[w as usize] = true;
        }
        let mut at_v = 0u64;
        for &u in fwd_v {
            let mut at_u = 0u64;
            for &w in fwd.neighbors(u) {
                let hit = u64::from(marked[w as usize]);
                counts[w as usize] += hit;
                at_u += hit;
            }
            counts[u as usize] += at_u;
            at_v += at_u;
        }
        counts[v] += at_v;
        for &w in fwd_v {
            marked[w as usize] = false;
        }
    }
    (counts, degrees)
}

/// Local clustering coefficient of one vertex from its triangle count and
/// its degree in the undirected simple graph:
/// `c(v) = t(v) / (0.5 · deg(v) · (deg(v)−1))`, 0 for deg < 2 — the one
/// spelling every clustering figure in this module goes through.
fn clustering(triangles: u64, degree: usize) -> f64 {
    let d = degree as f64;
    if d < 2.0 {
        0.0
    } else {
        triangles as f64 / (0.5 * d * (d - 1.0))
    }
}

/// The averaged triangle metrics: `t(G) = (1/|V|) Σ t(v)` and the average
/// local clustering coefficient `C(G)`.
pub struct TriangleStats {
    pub avg_triangles: f64,
    pub avg_lcc: f64,
}

/// Averaged triangle statistics from an undirected simple adjacency and its
/// per-vertex triangle counts — what [`TriangleTable::stats`] must equal bit
/// for bit, with the degrees read off a materialised CSR.
pub fn stats_from_parts(adj: &Csr, t: &[u64]) -> TriangleStats {
    averaged(t, |v| adj.degree(v as VertexId))
}

/// Both averages in vertex-id order — the summation order is part of the
/// bit-exact answer.
fn averaged(t: &[u64], degree: impl Fn(usize) -> usize) -> TriangleStats {
    let n = t.len();
    if n == 0 {
        return TriangleStats { avg_triangles: 0.0, avg_lcc: 0.0 };
    }
    let mut sum_t = 0.0;
    let mut sum_c = 0.0;
    for (v, &t_v) in t.iter().enumerate() {
        sum_t += t_v as f64;
        sum_c += clustering(t_v, degree(v));
    }
    TriangleStats { avg_triangles: sum_t / n as f64, avg_lcc: sum_c / n as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, PreparedGraph};

    #[test]
    fn triangle_in_k3() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let prepared = PreparedGraph::of(&g);
        assert_eq!(prepared.triangle_counts(), [1, 1, 1]);
        assert!((prepared.triangle_stats().avg_triangles - 1.0).abs() < 1e-12);
        assert!((prepared.triangle_stats().avg_lcc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_triangle_in_path() {
        let g = Graph::from_pairs([(0, 1), (1, 2)]);
        let prepared = PreparedGraph::of(&g);
        assert_eq!(prepared.triangle_counts(), [0, 0, 0]);
        assert_eq!(prepared.triangle_stats().avg_lcc, 0.0);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = Graph::from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        // Each vertex of K4 participates in C(3,2) = 3 triangles.
        let prepared = PreparedGraph::of(&g);
        assert_eq!(prepared.triangle_counts(), [3, 3, 3, 3]);
        assert!((prepared.triangle_stats().avg_lcc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn direction_and_duplicates_ignored() {
        // Same triangle expressed with reversed/duplicated edges.
        let g = Graph::from_pairs([(1, 0), (0, 1), (1, 2), (0, 2), (2, 0)]);
        assert_eq!(PreparedGraph::of(&g).triangle_counts(), [1, 1, 1]);
    }

    #[test]
    fn lcc_of_star_is_zero() {
        let g = Graph::from_pairs([(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(PreparedGraph::of(&g).triangle_stats().avg_lcc, 0.0);
    }

    #[test]
    fn lcc_hand_computed_square_with_diagonal() {
        // Square 0-1-2-3 plus diagonal 0-2: triangles {0,1,2} and {0,2,3}.
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let table = count_source(&g, &g.total_degrees());
        assert_eq!(table.counts, vec![2, 1, 2, 1]);
        let c = |v: usize| clustering(table.counts[v], table.degrees[v] as usize);
        // deg(0)=3 -> c= 2/3; deg(1)=2 -> 1/1 = 1
        assert!((c(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((c(1) - 1.0).abs() < 1e-12);
    }

    /// Closed-form counts on shapes that stress one part of the kernel
    /// each: one long list and many empty ones, every list hit, long lists
    /// with no hit at all, and one edge shared by every triangle.
    #[test]
    fn worst_case_shapes_have_their_closed_form_counts() {
        let star = Graph::from_pairs((1..=50).map(|leaf| (0, leaf)));
        assert_eq!(PreparedGraph::of(&star).triangle_counts(), [0; 51]);

        // a multigraph star: 50 parallel spokes to leaf 1 make it outrank
        // leaves 2 and 3 by raw degree (51 against 2) although all three have
        // simple degree 2; hub 0 closes one triangle with 2 and 3
        let spokes = (0..50).map(|_| (0, 1)).chain([(0, 2), (0, 3), (2, 3), (1, 4)]);
        let multi = Graph::from_pairs(spokes);
        let table = count_source(&multi, &multi.total_degrees());
        assert_eq!(table.counts, vec![1, 0, 1, 1, 0]);
        assert_eq!(table.degrees, vec![3, 2, 2, 2, 1]);

        let clique = Graph::from_pairs((0..20).flat_map(|a| (a + 1..20).map(move |b| (a, b))));
        // every pair of the other 19 vertices closes a triangle
        assert_eq!(PreparedGraph::of(&clique).triangle_counts(), [19 * 18 / 2; 20]);

        let bipartite = Graph::from_pairs((0..8).flat_map(|a| (8..16).map(move |b| (a, b))));
        assert_eq!(PreparedGraph::of(&bipartite).triangle_counts(), [0; 16]);

        // hubs 0 and 1 share leaves 2..=31: without the hub-hub edge there
        // is no triangle, with it every leaf closes one
        let leaves = || (2..32).flat_map(|leaf| [(0, leaf), (1, leaf)]);
        assert_eq!(PreparedGraph::new(Graph::from_pairs(leaves())).triangle_counts(), [0; 32]);
        let mut want = vec![1u64; 32];
        want[0] = 30;
        want[1] = 30;
        let closed = Graph::from_pairs(leaves().chain([(0, 1)]));
        assert_eq!(PreparedGraph::of(&closed).triangle_counts(), want);
    }

    #[test]
    fn empty_and_edgeless_graphs_count_nothing() {
        assert_eq!(PreparedGraph::new(Graph::empty(0)).triangle_counts(), [0u64; 0]);
        assert_eq!(PreparedGraph::new(Graph::empty(5)).triangle_counts(), [0; 5]);
        let s = PreparedGraph::new(Graph::empty(0)).triangle_stats();
        assert_eq!((s.avg_triangles, s.avg_lcc), (0.0, 0.0));
    }

    /// Counts come back in vertex-id order, not in the kernel's rank order:
    /// the triangle sits on the highest ids, which rank lowest by degree.
    #[test]
    fn counts_are_indexed_by_vertex_id() {
        let g = Graph::from_pairs([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7), (5, 7)]);
        assert_eq!(PreparedGraph::of(&g).triangle_counts(), [0, 0, 0, 0, 0, 1, 1, 1]);
    }

    /// Raw forward lists (parallel edges kept, unsorted) are not a valid
    /// input; debug builds refuse them instead of over-counting.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "simplified forward lists")]
    fn non_simple_adjacency_is_refused_in_debug_builds() {
        let g = Graph::from_pairs([(0, 1), (1, 0), (1, 2), (2, 0), (2, 2)]);
        count_with(&g.total_degrees(), |rank| Csr::build_source(&g, Route::Forward(rank)));
    }
}
