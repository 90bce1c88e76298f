//! Compressed sparse row adjacency, built only as *simple* lists — sorted,
//! duplicates and a list's own index dropped — along one of two [`Route`]s.
//!
//! Two builders over a [`GraphSource`], both sequential on the calling
//! thread: [`Csr::build`] in heap (a counting replay, a prefix sum, a
//! placement replay, then the in-place simplify pass) and
//! [`Csr::build_spilled`] into an `EASECSR1` spill file (the same counting
//! replay, then one replay per bounded vertex chunk, each list simplified
//! before it is written). Both give the same lists for every chunk size.

use crate::source::{each_edge, GraphSource};
use crate::spill::{MappedCsr, SpillWriter};
use crate::types::{Edge, VertexId};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Which per-vertex list(s) an edge of the stream lands in — what the
/// counting, placement and spill passes route by.
#[derive(Debug, Clone, Copy)]
pub enum Route<'r> {
    /// Vertex-id space, both directions: each edge puts each endpoint into
    /// the other's list, so the simple CSR is the undirected simple graph.
    Undirected,
    /// Rank space — the triangle kernel's forward adjacency. The slice gives
    /// every vertex its rank in some total order; each non-loop edge puts
    /// the higher of its endpoints' ranks into the list of the lower one, so
    /// lists are indexed by rank and hold ranks.
    Forward(&'r [VertexId]),
}

impl Route<'_> {
    /// Call `put(list, entry)` for every adjacency entry `e` contributes.
    #[inline]
    fn each_entry(self, e: Edge, mut put: impl FnMut(usize, VertexId)) {
        match self {
            Route::Undirected => {
                put(e.src as usize, e.dst);
                put(e.dst as usize, e.src);
            }
            Route::Forward(rank) => {
                let (s, d) = (rank[e.src as usize], rank[e.dst as usize]);
                if s != d {
                    put(s.min(d) as usize, s.max(d));
                }
            }
        }
    }
}

/// Where a [`Csr`]'s offsets/targets actually live: the classic heap
/// vectors, or a read-only mapping of an unlinked `EASECSR1` spill file
/// (see [`crate::spill`]). Every accessor routes through this enum, so the
/// two shapes are indistinguishable — and bit-identical — to callers.
#[derive(Debug, Clone)]
enum Store {
    Heap { offsets: Vec<usize>, targets: Vec<VertexId> },
    Mapped(Arc<MappedCsr>),
}

/// Compressed sparse row adjacency built from any [`GraphSource`].
///
/// The neighbors of `v` are `targets[offsets[v]..offsets[v+1]]` with `n+1`
/// offsets. Built with a counting pass followed by a placement pass — no
/// per-vertex `Vec` allocations (perf-book: preallocate, avoid allocation
/// in hot loops). Storage is either in-heap or a mapped spill file; see
/// [`Csr::build_spilled`].
#[derive(Debug, Clone)]
pub struct Csr {
    store: Store,
}

impl Csr {
    pub(crate) fn heap(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        Csr { store: Store::Heap { offsets, targets } }
    }

    /// Exact heap cost of an in-heap CSR over `n` vertices and `entries`
    /// adjacency entries — what a [`MemoryBudget`](crate::MemoryBudget)
    /// charge for this structure should be. Saturating, so a size read
    /// from an untrusted header cannot wrap it.
    pub fn heap_bytes(n: usize, entries: usize) -> usize {
        let offsets = n.saturating_add(1).saturating_mul(std::mem::size_of::<usize>());
        offsets.saturating_add(entries.saturating_mul(std::mem::size_of::<VertexId>()))
    }

    /// Build the simple adjacency of `route` in heap: count every list's
    /// entries in one replay of the stream, prefix-sum the counts into
    /// offsets, place each entry at its list's cursor in a second replay,
    /// then simplify **in place** — sort each list, drop duplicates and the
    /// list's own index, and compact the survivors to the front of the same
    /// targets buffer with one forward write cursor (no second full-size
    /// targets vector at the largest transient of the pipeline).
    pub fn build(source: &dyn GraphSource, route: Route<'_>) -> Self {
        let n = source.num_vertices();
        let counts = count_source(source, route);
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + counts[v] as usize;
        }
        drop(counts);
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; offsets[n]];
        each_edge(source, |e| {
            route.each_entry(e, |v, t| {
                let c = &mut cursor[v];
                targets[*c] = t;
                *c += 1;
            });
        });
        // `w <= offsets[v]` always: the write cursor never overtakes a list
        let mut w = 0usize;
        for v in 0..n {
            let kept = dedup_list(&mut targets, offsets[v]..offsets[v + 1], w, v);
            offsets[v] = w;
            w += kept;
        }
        offsets[n] = w;
        targets.truncate(w);
        Csr::heap(offsets, targets)
    }

    /// Build the simple adjacency of `route` **out of core**: stream vertex
    /// chunks of at most `chunk_bytes` of adjacency through a bounded
    /// scratch buffer into an `EASECSR1` spill file in `dir`, then map the
    /// file read-only (see [`crate::spill`]). Each list is sorted and
    /// deduplicated before it is written, so the heap never holds more than
    /// one chunk plus the `O(|V|)` count table.
    ///
    /// After the counting pass of [`Csr::build`], each chunk replays the
    /// edge stream once, placing its own entries in stream order, so the
    /// result is bit-identical to the in-heap build for every chunk size.
    pub fn build_spilled(
        source: &dyn GraphSource,
        route: Route<'_>,
        chunk_bytes: usize,
        dir: &Path,
    ) -> std::io::Result<Self> {
        let n = source.num_vertices();
        let counts = count_source(source, route);
        let mut writer = SpillWriter::create(dir, n)?;
        let cap_entries = (chunk_bytes / std::mem::size_of::<VertexId>()).max(1024);
        let mut buf: Vec<VertexId> = Vec::new();
        let mut local_off: Vec<usize> = Vec::new();
        let mut v0 = 0usize;
        while v0 < n {
            // grow the chunk until the raw entry count hits the cap; a
            // single vertex larger than the cap gets a chunk of its own
            // (one adjacency list must fit in memory to be sorted)
            let mut v1 = v0;
            let mut entries = 0usize;
            while v1 < n && entries < cap_entries {
                let c = counts[v1] as usize;
                if entries > 0 && entries + c > cap_entries {
                    break;
                }
                entries += c;
                v1 += 1;
            }
            local_off.clear();
            local_off.push(0);
            for v in v0..v1 {
                local_off.push(local_off[v - v0] + counts[v] as usize);
            }
            buf.clear();
            buf.resize(entries, 0);
            // one stream replay placing this chunk's entries in edge order
            // — the same order the in-heap placement pass produces
            let mut cursor = local_off[..v1 - v0].to_vec();
            each_edge(source, |e| {
                route.each_entry(e, |v, t| {
                    if (v0..v1).contains(&v) {
                        let c = &mut cursor[v - v0];
                        buf[*c] = t;
                        *c += 1;
                    }
                });
            });
            for v in v0..v1 {
                let (lo, hi) = (local_off[v - v0], local_off[v - v0 + 1]);
                let kept = dedup_list(&mut buf, lo..hi, lo, v);
                writer.push_list(&buf[lo..lo + kept])?;
            }
            v0 = v1;
        }
        Ok(Csr { store: Store::Mapped(Arc::new(writer.finish()?)) })
    }

    /// Whether this CSR is served from a mapped spill file rather than heap.
    pub fn is_spilled(&self) -> bool {
        matches!(self.store, Store::Mapped(_))
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        match &self.store {
            Store::Heap { offsets, .. } => offsets.len() - 1,
            Store::Mapped(m) => m.num_vertices(),
        }
    }

    /// Neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match &self.store {
            Store::Heap { offsets, targets } => {
                &targets[offsets[v as usize]..offsets[v as usize + 1]]
            }
            Store::Mapped(m) => m.neighbors(v),
        }
    }

    /// Degree of `v` in this adjacency.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        match &self.store {
            Store::Heap { offsets, .. } => offsets[v as usize + 1] - offsets[v as usize],
            Store::Mapped(m) => m.degree(v),
        }
    }

    /// Total number of stored adjacency entries.
    #[inline]
    pub fn num_entries(&self) -> usize {
        match &self.store {
            Store::Heap { targets, .. } => targets.len(),
            Store::Mapped(m) => m.num_entries(),
        }
    }

    /// Iterate `(vertex, neighbors)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> {
        (0..self.num_vertices() as VertexId).map(move |v| (v, self.neighbors(v)))
    }
}

/// Sort `buf[list]` and write its distinct entries other than `v` itself (a
/// self-loop) to `buf[to..]`, where `to <= list.start` so the write cursor
/// never overtakes the unread entries; returns how many survive. The one
/// sort + dedup loop behind every simplify pass, heap or spilled.
#[inline]
fn dedup_list(buf: &mut [VertexId], list: Range<usize>, to: usize, v: usize) -> usize {
    buf[list.clone()].sort_unstable();
    let mut w = to;
    let mut prev = None;
    for i in list {
        let t = buf[i];
        if t as usize == v || prev == Some(t) {
            continue;
        }
        buf[w] = t;
        prev = Some(t);
        w += 1;
    }
    w - to
}

/// The counting pass shared by the heap and spilled builders: per-list entry
/// counts for `route` over the whole stream.
fn count_source(source: &dyn GraphSource, route: Route<'_>) -> Vec<u32> {
    let mut counts = vec![0u32; source.num_vertices()];
    each_edge(source, |e| route.each_entry(e, |v, _| counts[v] += 1));
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::Graph;

    fn toy() -> Graph {
        Graph::from_pairs([(0, 1), (0, 2), (1, 2), (2, 0), (1, 1)])
    }

    /// Storage-independent structural dump for exact comparisons.
    fn dump(csr: &Csr) -> (Vec<usize>, Vec<VertexId>) {
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        for (_, list) in csr.iter() {
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    /// The oracle both builders are held to, sharing no code with them:
    /// per-list `Vec`s filled edge by edge as `route` says, then each one
    /// sorted, deduplicated and stripped of its own index.
    fn oracle(g: &Graph, route: Route<'_>) -> (Vec<usize>, Vec<VertexId>) {
        let mut lists = vec![Vec::new(); g.num_vertices()];
        for e in g.edges() {
            let (s, d) = (e.src as usize, e.dst as usize);
            match route {
                Route::Undirected => {
                    lists[s].push(e.dst);
                    lists[d].push(e.src);
                }
                Route::Forward(rank) => {
                    let (low, high) = (rank[s].min(rank[d]), rank[s].max(rank[d]));
                    lists[low as usize].push(high);
                }
            }
        }
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        for (v, mut list) in lists.into_iter().enumerate() {
            list.sort_unstable();
            list.dedup();
            list.retain(|&t| t as usize != v);
            targets.extend_from_slice(&list);
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    /// A deterministic pseudo-random multigraph (parallel edges, reciprocal
    /// edges and self-loops all likely) spanning several fingerprint blocks
    /// when `m` is large.
    fn scrambled(n: u32, m: usize) -> Graph {
        let mut edges = Vec::with_capacity(m);
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..m {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let src = ((x >> 33) % u64::from(n)) as u32;
            let dst = ((x >> 11) % u64::from(n)) as u32;
            edges.push(crate::types::Edge::new(src, dst));
        }
        Graph::new(n as usize, edges)
    }

    /// A total order that is neither the identity nor its reverse.
    fn shuffled_rank(n: usize) -> Vec<VertexId> {
        (0..n as VertexId).map(|v| (v * 7 + 3) % n as VertexId).collect()
    }

    fn spill_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ease_csr_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mk spill dir");
        d
    }

    #[test]
    fn undirected_lists_drop_loops_and_dupes() {
        let csr = Csr::build(&toy(), Route::Undirected);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(csr.neighbors(2), &[0, 1]);
        assert_eq!(csr.num_entries(), 6);
        assert_eq!(csr.degree(1), 2);
    }

    #[test]
    fn forward_lists_hold_the_higher_rank_at_the_lower() {
        let g = toy();
        // identity ranks: each pair once, at its lower id
        let csr = Csr::build(&g, Route::Forward(&[0, 1, 2]));
        assert_eq!(dump(&csr), (vec![0, 2, 3, 3], vec![1, 2, 2]));
        // reversed ranks: vertex 2 ranks 0 and owns both its pairs
        let csr = Csr::build(&g, Route::Forward(&[2, 1, 0]));
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn degrees_sum_to_entries() {
        let g = scrambled(64, 900);
        let rank = shuffled_rank(64);
        for route in [Route::Undirected, Route::Forward(&rank)] {
            let csr = Csr::build(&g, route);
            let total: usize = (0..64).map(|v| csr.degree(v)).sum();
            assert_eq!(total, csr.num_entries(), "{route:?}");
        }
    }

    #[test]
    fn empty_graph_csr() {
        for route in [Route::Undirected, Route::Forward(&[0, 1, 2])] {
            let csr = Csr::build(&Graph::empty(3), route);
            assert_eq!(csr.num_vertices(), 3);
            assert_eq!(csr.num_entries(), 0);
            assert_eq!(csr.neighbors(1), &[] as &[u32]);
        }
        assert_eq!(Csr::build(&Graph::empty(0), Route::Undirected).num_vertices(), 0);
    }

    /// The heap build — counting, placement and in-place simplify — equals
    /// the oracle on both routes, on streams long enough to span several
    /// fingerprint blocks and on degenerate ones.
    #[test]
    fn heap_build_matches_the_per_route_oracle() {
        let long = crate::source::FINGERPRINT_BLOCK * 3 + 101;
        for (n, m) in [(257u32, long), (257, 4_000), (64, 900), (5, 3), (1, 4)] {
            let g = scrambled(n, m);
            let rank = shuffled_rank(n as usize);
            for route in [Route::Undirected, Route::Forward(&rank)] {
                let built = Csr::build(&g, route);
                assert!(!built.is_spilled());
                assert_eq!(dump(&built), oracle(&g, route), "n={n} m={m} {route:?}");
            }
        }
    }

    /// Spilled builds across chunk sizes small enough to force many chunks
    /// serve the exact structure of the heap build (and so of the oracle)
    /// through `neighbors()`/`degree()`, and leave no file behind.
    #[test]
    fn spilled_build_is_bit_identical_to_heap() {
        let dir = spill_dir("bitid");
        let g = scrambled(101, 2_500);
        let rank = shuffled_rank(101);
        for route in [Route::Undirected, Route::Forward(&rank)] {
            let heap = Csr::build(&g, route);
            assert_eq!(dump(&heap), oracle(&g, route), "{route:?}");
            // a 0-byte cap still takes 1024 entries; 1 MiB fits everything
            for chunk_bytes in [0usize, 4096, 1 << 20] {
                let spilled =
                    Csr::build_spilled(&g, route, chunk_bytes, &dir).expect("spilled build");
                assert!(spilled.is_spilled());
                assert_eq!(dump(&spilled), dump(&heap), "{route:?} chunk={chunk_bytes}");
                assert_eq!(spilled.num_vertices(), heap.num_vertices());
            }
        }
        assert_eq!(
            std::fs::read_dir(&dir).expect("read spill dir").count(),
            0,
            "spill files must be unlinked after mapping"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spilled_empty_graph_is_degenerate_but_safe() {
        let dir = spill_dir("empty");
        let csr =
            Csr::build_spilled(&Graph::empty(3), Route::Undirected, 0, &dir).expect("spill empty");
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_entries(), 0);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
