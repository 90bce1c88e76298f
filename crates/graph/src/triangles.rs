//! Triangle counting and local clustering coefficients.
//!
//! Both are "advanced" features in the paper (Table III): the average number
//! of triangles `t(G)` and the average local clustering coefficient `C(G)`
//! (Sec. II-B.3/4). Triangles are counted on the undirected simple graph by
//! the *forward* algorithm with mark-and-scan intersection, in three steps:
//!
//! 1. **Rank** vertices by `(degree, id)` with a counting sort, `O(|V| +
//!    max degree)`. Orienting every edge from its lower- to its higher-ranked
//!    endpoint bounds each forward list by `O(√E)`.
//! 2. **Relabel**: build the forward adjacency in rank space — list `r` holds
//!    the *ranks* of the higher-ranked neighbours of the vertex ranked `r` —
//!    in a counting and a placement pass that both walk the CSR in vertex-id
//!    order (sequential over a spilled CSR's mapping; the only random
//!    accesses go to heap-resident arrays). The lists are not sorted.
//! 3. **Mark and scan**: for each `v`, mark `fwd(v)` in a `|V|`-entry flag
//!    array, then for each `u ∈ fwd(v)` stream `fwd(u)` and add up the marks.
//!    Every hit `w` closes the triangle `{v, u, w}`, found exactly once with
//!    `v < u < w` in rank order. The scan has no data-dependent branch and
//!    no rank indirection, and keeps the `O(E^{3/2})` bound. Counts are kept
//!    in rank space — where the hot, high-degree vertices sit together — and
//!    permuted back to vertex-id order once at the end.

use crate::csr::Csr;
use crate::edge_list::Graph;
use crate::types::VertexId;

/// Per-vertex triangle counts `t(v)` of the undirected simple graph.
pub fn triangle_counts(graph: &Graph) -> Vec<u64> {
    let adj = Csr::build_undirected_simple(graph);
    triangle_counts_from_simple(&adj)
}

/// Triangle counts from a prebuilt undirected simple adjacency, indexed by
/// vertex id.
///
/// `adj` must be what [`Csr::build_undirected_simple`] and its source /
/// spilled twins produce: every neighbour list strictly increasing (sorted,
/// no duplicates) and free of self-loops. A raw `Csr::build(..,
/// Direction::Undirected)` over-counts; debug builds assert the
/// precondition, release builds do not pay the extra pass.
pub fn triangle_counts_from_simple(adj: &Csr) -> Vec<u64> {
    debug_assert!(
        adj.iter().all(|(v, list)| list.windows(2).all(|w| w[0] < w[1]) && !list.contains(&v)),
        "triangle counting needs a simple adjacency: strictly increasing, loop-free lists"
    );
    let rank = rank_by_degree(adj);
    // the forward lists are freed before the id-order result is allocated
    let by_rank = {
        let (fwd_offsets, fwd) = forward_lists(adj, &rank);
        scan_forward_lists(&fwd_offsets, &fwd)
    };
    rank.iter().map(|&r| by_rank[r as usize]).collect()
}

/// Rank of every vertex in `(degree, id)` order, by counting sort. Ranks are
/// the vertex ids of the relabelled graph, so they fit [`VertexId`].
fn rank_by_degree(adj: &Csr) -> Vec<VertexId> {
    let n = adj.num_vertices();
    let max_degree = (0..n).map(|v| adj.degree(v as VertexId)).max().unwrap_or(0);
    // next[d] = the rank the next vertex of degree d receives
    let mut next = vec![0 as VertexId; max_degree + 2];
    for v in 0..n {
        next[adj.degree(v as VertexId) + 1] += 1;
    }
    for d in 0..=max_degree {
        next[d + 1] += next[d];
    }
    (0..n)
        .map(|v| {
            let slot = &mut next[adj.degree(v as VertexId)];
            let r = *slot;
            *slot += 1;
            r
        })
        .collect()
}

/// Forward adjacency in rank space as `(offsets, lists)`: the list of rank
/// `r` is `lists[offsets[r]..offsets[r + 1]]` and holds the ranks of the
/// higher-ranked neighbours of the vertex ranked `r`, in neighbour-id order.
/// Each list is filled while its own vertex is visited, so placement needs
/// no cursor array.
fn forward_lists(adj: &Csr, rank: &[VertexId]) -> (Vec<usize>, Vec<VertexId>) {
    let n = rank.len();
    let mut offsets = vec![0usize; n + 1];
    for (v, &rv) in rank.iter().enumerate() {
        offsets[rv as usize + 1] =
            adj.neighbors(v as VertexId).iter().filter(|&&u| rank[u as usize] > rv).count();
    }
    for r in 0..n {
        offsets[r + 1] += offsets[r];
    }
    let mut lists = vec![0 as VertexId; offsets[n]];
    for (v, &rv) in rank.iter().enumerate() {
        let mut at = offsets[rv as usize];
        for &u in adj.neighbors(v as VertexId) {
            let ru = rank[u as usize];
            if ru > rv {
                lists[at] = ru;
                at += 1;
            }
        }
    }
    (offsets, lists)
}

/// Mark-and-scan over the forward lists; returns triangle counts indexed by
/// rank.
fn scan_forward_lists(offsets: &[usize], lists: &[VertexId]) -> Vec<u64> {
    let n = offsets.len() - 1;
    let mut counts = vec![0u64; n];
    let mut marked = vec![false; n];
    for v in 0..n {
        let fwd_v = &lists[offsets[v]..offsets[v + 1]];
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
            for &w in &lists[offsets[u as usize]..offsets[u as usize + 1]] {
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
    counts
}

/// Average number of triangles per vertex, `t(G) = (1/|V|) Σ t(v)`.
pub fn avg_triangles(graph: &Graph) -> f64 {
    triangle_stats(graph).avg_triangles
}

/// `c(v)` of one vertex from its triangle count and its degree — the one
/// spelling every clustering figure in this module goes through.
fn clustering(triangles: u64, degree: usize) -> f64 {
    let d = degree as f64;
    if d < 2.0 {
        0.0
    } else {
        triangles as f64 / (0.5 * d * (d - 1.0))
    }
}

/// Local clustering coefficient per vertex:
/// `c(v) = t(v) / (0.5 · deg(v) · (deg(v)−1))`, 0 for deg < 2.
/// Degrees are taken in the undirected simple graph.
pub fn local_clustering(graph: &Graph) -> Vec<f64> {
    let adj = Csr::build_undirected_simple(graph);
    let t = triangle_counts_from_simple(&adj);
    (0..adj.num_vertices()).map(|v| clustering(t[v], adj.degree(v as VertexId))).collect()
}

/// Average local clustering coefficient `C(G)`.
pub fn avg_local_clustering(graph: &Graph) -> f64 {
    triangle_stats(graph).avg_lcc
}

/// Triangle metrics computed in one pass (shared adjacency build).
pub struct TriangleStats {
    pub avg_triangles: f64,
    pub avg_lcc: f64,
}

/// Compute both averaged triangle statistics with a single adjacency build.
pub fn triangle_stats(graph: &Graph) -> TriangleStats {
    let adj = Csr::build_undirected_simple(graph);
    let t = triangle_counts_from_simple(&adj);
    stats_from_parts(&adj, &t)
}

/// Averaged triangle statistics from a prebuilt undirected simple adjacency
/// and its per-vertex triangle counts — the path
/// [`crate::PreparedGraph::triangle_stats`] takes so the adjacency is built
/// only once per graph.
pub fn stats_from_parts(adj: &Csr, t: &[u64]) -> TriangleStats {
    let n = adj.num_vertices();
    if n == 0 {
        return TriangleStats { avg_triangles: 0.0, avg_lcc: 0.0 };
    }
    let mut sum_t = 0.0;
    let mut sum_c = 0.0;
    for v in 0..n {
        sum_t += t[v] as f64;
        sum_c += clustering(t[v], adj.degree(v as VertexId));
    }
    TriangleStats { avg_triangles: sum_t / n as f64, avg_lcc: sum_c / n as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_in_k3() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangle_counts(&g), vec![1, 1, 1]);
        assert!((avg_triangles(&g) - 1.0).abs() < 1e-12);
        assert!((avg_local_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_triangle_in_path() {
        let g = Graph::from_pairs([(0, 1), (1, 2)]);
        assert_eq!(triangle_counts(&g), vec![0, 0, 0]);
        assert_eq!(avg_local_clustering(&g), 0.0);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = Graph::from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        // Each vertex of K4 participates in C(3,2) = 3 triangles.
        assert_eq!(triangle_counts(&g), vec![3, 3, 3, 3]);
        assert!((avg_local_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn direction_and_duplicates_ignored() {
        // Same triangle expressed with reversed/duplicated edges.
        let g = Graph::from_pairs([(1, 0), (0, 1), (1, 2), (0, 2), (2, 0)]);
        assert_eq!(triangle_counts(&g), vec![1, 1, 1]);
    }

    #[test]
    fn lcc_of_star_is_zero() {
        let g = Graph::from_pairs([(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(avg_local_clustering(&g), 0.0);
    }

    #[test]
    fn lcc_hand_computed_square_with_diagonal() {
        // Square 0-1-2-3 plus diagonal 0-2: triangles {0,1,2} and {0,2,3}.
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let t = triangle_counts(&g);
        assert_eq!(t, vec![2, 1, 2, 1]);
        let c = local_clustering(&g);
        // deg(0)=3 -> c= 2/3; deg(1)=2 -> 1/1 = 1
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[1] - 1.0).abs() < 1e-12);
    }

    /// Closed-form counts on shapes that stress one part of the kernel
    /// each: one long list and many empty ones, every list hit, long lists
    /// with no hit at all, and one edge shared by every triangle.
    #[test]
    fn worst_case_shapes_have_their_closed_form_counts() {
        let star = Graph::from_pairs((1..=50).map(|leaf| (0, leaf)));
        assert_eq!(triangle_counts(&star), vec![0; 51]);

        let clique = Graph::from_pairs((0..20).flat_map(|a| (a + 1..20).map(move |b| (a, b))));
        // every pair of the other 19 vertices closes a triangle
        assert_eq!(triangle_counts(&clique), vec![19 * 18 / 2; 20]);

        let bipartite = Graph::from_pairs((0..8).flat_map(|a| (8..16).map(move |b| (a, b))));
        assert_eq!(triangle_counts(&bipartite), vec![0; 16]);

        // hubs 0 and 1 share leaves 2..=31: without the hub-hub edge there
        // is no triangle, with it every leaf closes one
        let leaves = || (2..32).flat_map(|leaf| [(0, leaf), (1, leaf)]);
        assert_eq!(triangle_counts(&Graph::from_pairs(leaves())), vec![0; 32]);
        let mut want = vec![1u64; 32];
        want[0] = 30;
        want[1] = 30;
        assert_eq!(triangle_counts(&Graph::from_pairs(leaves().chain([(0, 1)]))), want);
    }

    #[test]
    fn empty_and_edgeless_graphs_count_nothing() {
        assert_eq!(triangle_counts(&Graph::empty(0)), Vec::<u64>::new());
        assert_eq!(triangle_counts(&Graph::empty(5)), vec![0; 5]);
        let s = triangle_stats(&Graph::empty(0));
        assert_eq!((s.avg_triangles, s.avg_lcc), (0.0, 0.0));
    }

    /// Counts come back in vertex-id order, not in the kernel's rank order:
    /// the triangle sits on the highest ids, which rank lowest by degree.
    #[test]
    fn counts_are_indexed_by_vertex_id() {
        let g = Graph::from_pairs([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7), (5, 7)]);
        assert_eq!(triangle_counts(&g), vec![0, 0, 0, 0, 0, 1, 1, 1]);
    }

    /// A raw undirected CSR (duplicates, loops, unsorted lists) is not a
    /// valid input; debug builds refuse it instead of over-counting.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "simple adjacency")]
    fn non_simple_adjacency_is_refused_in_debug_builds() {
        let g = Graph::from_pairs([(0, 1), (1, 0), (1, 2), (2, 0), (2, 2)]);
        triangle_counts_from_simple(&Csr::build(&g, crate::csr::Direction::Undirected));
    }

    #[test]
    fn stats_consistent_with_individual_functions() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let s = triangle_stats(&g);
        assert!((s.avg_triangles - avg_triangles(&g)).abs() < 1e-12);
        assert!((s.avg_lcc - avg_local_clustering(&g)).abs() < 1e-12);
    }
}
