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
//!    deduplicated by the CSR's own simplify pass — in heap
//!    ([`Csr::build`]), or through the spill chunk loop
//!    ([`Csr::build_spilled`]) when a memory budget refuses it. Half the
//!    entries of the undirected simple CSR, and the only adjacency this
//!    module reads.
//! 3. **Mark and scan**: for each `v`, mark `fwd(v)` in a `|V|`-entry flag
//!    array, then for each `u ∈ fwd(v)` stream `fwd(u)` and add up the marks.
//!    Every hit `w` closes the triangle `{v, u, w}`, found exactly once with
//!    `v < u < w` in rank order. The scan has no data-dependent branch and
//!    no rank indirection, and keeps the `O(E^{3/2})` bound. The same pass
//!    recovers the simple-graph degree `c(v)` needs: `|fwd(r)|` plus the
//!    occurrences of `r` in the other lists. Counts and degrees are kept in
//!    rank space — where the hot, high-degree vertices sit together — and
//!    permuted back to vertex-id order once at the end.
//!
//!    On a skewed graph most of the scan streams the lists of the few
//!    highest-ranked vertices, so the scan is split. The top `H` ranks are
//!    the *hubs*, `H = min(1024, |V|/8)` rounded down to a multiple of 64,
//!    kept only when their forward lists average at least four entries:
//!    shorter lists leave little scan for a bitmap to save. Their lists
//!    are an `H × H` bitmap — at most 128 KiB. For `u ∈ fwd(v)` below the
//!    hubs, `fwd(u)` is streamed against the marks as above; for a hub `u`,
//!    each later entry `w` of `fwd(v)` is tested against `u`'s bitmap row
//!    instead. That is exact: every entry of `fwd(u)` ranks above `u`, so
//!    it is a hub too and has a bit, and a `w > u` closing `{v, u, w}` is
//!    in `fwd(v)` after `u`, so it is tested once. The split is chosen once
//!    per graph; a graph without a hub core runs the plain scan.

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
    count_with(total_degrees, |rank| Csr::build(source, Route::Forward(rank)), |_| true)
}

/// [`count_source`] with the forward build left to the caller, who is handed
/// the ranks and returns the simplified [`Route::Forward`] CSR over them —
/// [`crate::PreparedGraph`] puts its heap-or-spill decision there — and
/// asked by `admit_hubs` whether the hub bitmap's bytes may be allocated;
/// a refusal runs the plain scan. The CSR is dropped before the id-order
/// result is allocated.
pub(crate) fn count_with(
    total_degrees: &[u32],
    build_forward: impl FnOnce(&[VertexId]) -> Csr,
    admit_hubs: impl FnOnce(usize) -> bool,
) -> TriangleTable {
    count_with_hubs(total_degrees, build_forward, |fwd| match hub_count(fwd) {
        0 => 0,
        hubs if admit_hubs(HubRows::bytes(hubs)) => hubs,
        _ => 0,
    })
}

/// [`count_with`] with the hub count for the built lists picked by `hubs`:
/// the admitted [`hub_count`] in the product, any count a test forces.
fn count_with_hubs(
    total_degrees: &[u32],
    build_forward: impl FnOnce(&[VertexId]) -> Csr,
    hubs: impl FnOnce(&Csr) -> usize,
) -> TriangleTable {
    let rank = rank_by_degree(total_degrees);
    let fwd = build_forward(&rank);
    let (counts, degrees) = scan_forward_lists(&fwd, hubs(&fwd));
    drop(fwd);
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

/// Most hubs a bitmap holds: `1024²` bits, 128 KiB.
const MAX_HUBS: usize = 1024;

/// How many entries the hubs' forward lists must average for the hub path
/// to be taken.
const MIN_HUB_LIST: usize = 4;

/// The hub rule: how many of the top ranks of `fwd` form its hub core —
/// `min(1024, |V|/8)` rounded down to a multiple of 64, or 0 when that is 0
/// or their forward lists average fewer than [`MIN_HUB_LIST`] entries.
fn hub_count(fwd: &Csr) -> usize {
    let n = fwd.num_vertices();
    let hubs = (n / 8).min(MAX_HUBS) / 64 * 64;
    let entries: usize = (n - hubs..n).map(|u| fwd.degree(u as VertexId)).sum();
    if hubs > 0 && entries >= MIN_HUB_LIST * hubs {
        hubs
    } else {
        0
    }
}

/// The forward lists of the top `hubs` ranks as a bitmap: row `u − first`
/// has bit `w − first` set for every `w ∈ fwd(u)`, where `first` is the
/// lowest hub rank.
struct HubRows {
    first: usize,
    words: usize,
    bits: Vec<u64>,
}

#[cfg(test)]
thread_local! {
    /// How many hub bitmaps this thread has allocated — the budget tests'
    /// proof that a refused charge allocates none.
    pub(crate) static BITMAPS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl HubRows {
    /// Heap bytes of the bitmap over `hubs` hubs — its budget charge.
    fn bytes(hubs: usize) -> usize {
        hubs * hubs.div_ceil(64) * std::mem::size_of::<u64>()
    }

    fn build(fwd: &Csr, hubs: usize) -> Self {
        #[cfg(test)]
        BITMAPS_BUILT.with(|built| built.set(built.get() + 1));
        let first = fwd.num_vertices() - hubs;
        let words = hubs.div_ceil(64);
        let mut bits = vec![0u64; hubs * words];
        for (row, u) in bits.chunks_exact_mut(words).zip(first..) {
            // every entry ranks above u, so it is a hub
            for &w in fwd.neighbors(u as VertexId) {
                let b = w as usize - first;
                row[b / 64] |= 1 << (b % 64);
            }
        }
        HubRows { first, words, bits }
    }

    /// No hubs: the plain scan's core, which allocates nothing.
    fn none(fwd: &Csr) -> Self {
        HubRows { first: fwd.num_vertices(), words: 0, bits: Vec::new() }
    }

    #[inline]
    fn row(&self, u: VertexId) -> &[u64] {
        &self.bits[(u as usize - self.first) * self.words..][..self.words]
    }
}

/// Mark-and-scan over the forward lists, the top `hubs` ranks closed by
/// bit test ([`hub_count`] picks how many; 0 runs the plain scan). Returns
/// triangle counts and simple degrees, both indexed by rank.
fn scan_forward_lists(fwd: &Csr, hubs: usize) -> (Vec<u64>, Vec<u32>) {
    debug_assert!(
        fwd.iter().all(|(v, list)| list.first().is_none_or(|&w| w > v)
            && list.windows(2).all(|w| w[0] < w[1])),
        "triangle counting needs simplified forward lists: strictly increasing, above their own rank"
    );
    match hubs.min(fwd.num_vertices()) {
        0 => scan::<false>(fwd, &HubRows::none(fwd)),
        hubs => scan::<true>(fwd, &HubRows::build(fwd, hubs)),
    }
}

/// The scan of [`scan_forward_lists`], monomorphized on whether there is a
/// hub core, so the plain scan carries no per-vertex split.
#[inline(always)]
fn scan<const HUBS: bool>(fwd: &Csr, core: &HubRows) -> (Vec<u64>, Vec<u32>) {
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
        // entries below the hubs are closed by the marks, hubs by bit test
        let split =
            if HUBS { fwd_v.partition_point(|&w| (w as usize) < core.first) } else { fwd_v.len() };
        let (streamed, hub_suffix) = fwd_v.split_at(split);
        let mut at_v = 0u64;
        if !HUBS || !streamed.is_empty() {
            for &w in fwd_v {
                marked[w as usize] = true;
            }
            for &u in streamed {
                let mut at_u = 0u64;
                for &w in fwd.neighbors(u) {
                    let hit = u64::from(marked[w as usize]);
                    counts[w as usize] += hit;
                    at_u += hit;
                }
                counts[u as usize] += at_u;
                at_v += at_u;
            }
            for &w in fwd_v {
                marked[w as usize] = false;
            }
        }
        if HUBS {
            for (i, &u) in hub_suffix.iter().enumerate() {
                let row = core.row(u);
                let mut at_u = 0u64;
                for &w in &hub_suffix[i + 1..] {
                    let b = w as usize - core.first;
                    let hit = (row[b / 64] >> (b % 64)) & 1;
                    counts[w as usize] += hit;
                    at_u += hit;
                }
                counts[u as usize] += at_u;
                at_v += at_u;
            }
        }
        counts[v] += at_v;
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

    /// A splitmix64 step: the test graphs' deterministic random stream.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// R-MAT with quadrant weights 0.57 / 0.19 / 0.19 / 0.05 — a skewed
    /// degree distribution — folded onto `n` vertices.
    fn rmat(n: usize, m: usize, seed: u64) -> Graph {
        let levels = n.next_power_of_two().trailing_zeros();
        let mut x = seed;
        let pairs = (0..m).map(|_| {
            let (mut s, mut d) = (0usize, 0usize);
            for _ in 0..levels {
                let p = next(&mut x) % 100;
                s = 2 * s + usize::from(p >= 76);
                d = 2 * d + usize::from((57..76).contains(&p) || p >= 95);
            }
            ((s % n) as VertexId, (d % n) as VertexId)
        });
        Graph::new(n, pairs.map(|(s, d)| crate::types::Edge::new(s, d)).collect())
    }

    fn gnm(n: usize, m: usize, seed: u64) -> Graph {
        let mut x = seed;
        let mut pick = || (next(&mut x) % n as u64) as VertexId;
        Graph::new(n, (0..m).map(|_| crate::types::Edge::new(pick(), pick())).collect())
    }

    /// `K_k` on the top `k` ids of `n` vertices, the rest isolated.
    fn clique(n: usize, k: usize) -> Graph {
        let ids = (n - k) as VertexId..n as VertexId;
        let pairs = ids.clone().flat_map(|a| (a + 1..n as VertexId).map(move |b| (a, b)));
        Graph::new(n, pairs.map(|(a, b)| crate::types::Edge::new(a, b)).collect())
    }

    fn star(n: usize) -> Graph {
        let spokes = (1..n as VertexId).map(|leaf| crate::types::Edge::new(0, leaf));
        Graph::new(n, spokes.collect())
    }

    /// A G(n, m) core with every edge also reversed, every fifth doubled and
    /// a loop at every seventh vertex.
    fn multigraph(n: usize, seed: u64) -> Graph {
        let mut edges = gnm(n, 6 * n, seed).edges().to_vec();
        let extra: Vec<_> = edges
            .iter()
            .enumerate()
            .flat_map(|(i, e)| {
                let doubled = (i % 5 == 0).then_some(*e);
                [Some(crate::types::Edge::new(e.dst, e.src)), doubled]
            })
            .flatten()
            .collect();
        edges.extend(extra);
        edges.extend((0..n as VertexId).step_by(7).map(|v| crate::types::Edge::new(v, v)));
        Graph::new(n, edges)
    }

    /// Triangle counts and simple degrees by set intersection over the
    /// undirected simple neighbourhoods — no ranks, no forward lists.
    fn naive(g: &Graph) -> (Vec<u64>, Vec<u32>) {
        let mut sets = vec![std::collections::BTreeSet::new(); g.num_vertices()];
        for e in g.edges().iter().filter(|e| e.src != e.dst) {
            sets[e.src as usize].insert(e.dst);
            sets[e.dst as usize].insert(e.src);
        }
        let counts = sets
            .iter()
            .map(|of_v| {
                let twice: usize =
                    of_v.iter().map(|&u| of_v.intersection(&sets[u as usize]).count()).sum();
                (twice / 2) as u64
            })
            .collect();
        (counts, sets.iter().map(|s| s.len() as u32).collect())
    }

    /// The hub split against the plain scan and the naive oracle, bit for
    /// bit, with the hub count forced to none, 64, every rank and the rule's
    /// own choice, on every shape the split could get wrong: all ranks hubs
    /// (cliques), no closing edge at all (stars), a skewed hub core (R-MAT),
    /// no hub core (G(n, m)) and lists that simplify away (loops, parallel
    /// and reciprocal edges). A clique on every vertex of the largest size
    /// would take 8 M edges, so there it spans the top 128 ids.
    #[test]
    fn the_hub_split_matches_the_plain_scan_and_the_naive_oracle() {
        let mut hub_paths = 0;
        for n in [1, 63, 64, 65, 4_097] {
            let graphs = [
                ("clique", clique(n, n.min(128))),
                ("star", star(n)),
                ("rmat", rmat(n, 8 * n, n as u64)),
                ("gnm", gnm(n, 3 * n, n as u64 + 1)),
                ("multigraph", multigraph(n, n as u64 + 2)),
            ];
            for (name, g) in graphs {
                let want = naive(&g);
                let build = |rank: &[VertexId]| Csr::build(&g, Route::Forward(rank));
                let total = g.total_degrees();
                let plain = count_with_hubs(&total, build, |_| 0);
                assert_eq!((&plain.counts, &plain.degrees), (&want.0, &want.1), "{name} n={n}");
                let forced: [fn(&Csr) -> usize; 3] = [|_| 64, Csr::num_vertices, hub_count];
                for (which, hubs) in ["64", "every rank", "the rule's"].iter().zip(forced) {
                    let split = count_with_hubs(&total, build, hubs);
                    assert_eq!(split.counts, plain.counts, "{name} n={n}, {which} hubs");
                    assert_eq!(split.degrees, plain.degrees, "{name} n={n}, {which} hubs");
                }
                hub_paths += usize::from(hub_count(&build(&rank_by_degree(&total))) > 0);
            }
        }
        // the rule's own choice ran the hub path too: on the clique and the
        // R-MAT of 4 097 vertices (below 512 vertices |V|/8 < 64)
        assert_eq!(hub_paths, 2, "the rule chose hubs for {hub_paths} graphs");
        // ... and never where the hubs' lists are short
        let sparse = gnm(4_097, 3 * 4_097, 9);
        let rank = rank_by_degree(&sparse.total_degrees());
        assert_eq!(hub_count(&Csr::build(&sparse, Route::Forward(&rank))), 0);
    }

    #[test]
    fn the_hub_rule_caps_the_core_and_rounds_it_to_words() {
        // a 200-clique on the top ids: the top ranks' lists are long
        let hubs_of = |n: usize| {
            let g = clique(n, 200);
            let rank = rank_by_degree(&g.total_degrees());
            hub_count(&Csr::build(&g, Route::Forward(&rank)))
        };
        assert_eq!(hubs_of(511), 0, "|V|/8 = 63 rounds down to no hubs");
        assert_eq!(hubs_of(512), 64);
        assert_eq!(hubs_of(1_100), 128, "|V|/8 = 137 rounds down to 128");
        assert_eq!(hubs_of(9_000), 1_024, "capped at 1024");
        assert_eq!(HubRows::bytes(1_024), 128 << 10);
        assert_eq!(HubRows::bytes(0), 0);
    }

    /// Forward lists that are not simple (here a parallel edge kept twice)
    /// are not a valid input; debug builds refuse them instead of
    /// over-counting. Neither builder makes such lists, so the test
    /// assembles them by hand.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "simplified forward lists")]
    fn non_simple_adjacency_is_refused_in_debug_builds() {
        count_with(&[2, 2, 0], |_| Csr::heap(vec![0, 2, 2, 2], vec![1, 1]), |_| true);
    }
}
