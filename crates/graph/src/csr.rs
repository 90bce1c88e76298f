//! Compressed sparse row adjacency.
//!
//! One builder over a [`GraphSource`] for the heap ([`Csr::build_source`]:
//! a counting replay, a prefix sum, a placement replay, optionally the
//! in-place simplify pass) and one for the spill file
//! ([`Csr::build_spilled`]: the same counting replay, then one replay per
//! bounded vertex chunk). Every pass is sequential and runs on the calling
//! thread. [`Csr::build`] over an in-memory [`Graph`] shares no code with
//! them and is the reference the tests compare both with.

use crate::edge_list::Graph;
use crate::source::{each_edge, GraphSource};
use crate::spill::{LoadedCsr, MappedCsr, SpillWriter};
use crate::types::{Edge, VertexId};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Which adjacency direction a [`Csr`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `neighbors(v)` = out-neighbors (edge targets).
    Out,
    /// `neighbors(v)` = in-neighbors (edge sources).
    In,
    /// `neighbors(v)` = union of both directions (each directed edge
    /// contributes to both endpoints' lists).
    Undirected,
}

/// Which per-vertex list(s) an edge of the stream lands in — what the
/// counting, placement and spill passes route by. A [`Direction`] converts
/// into the plain routing of its name.
#[derive(Debug, Clone, Copy)]
pub enum Route<'r> {
    /// Vertex-id space, as the [`Direction`] says.
    Plain(Direction),
    /// Rank space — the triangle kernel's forward adjacency. The slice gives
    /// every vertex its rank in some total order; each non-loop edge puts
    /// the higher of its endpoints' ranks into the list of the lower one, so
    /// lists are indexed by rank and hold ranks. The CSR reports
    /// [`Direction::Out`]: the out-neighbours of the rank-oriented graph.
    Forward(&'r [VertexId]),
}

impl From<Direction> for Route<'_> {
    fn from(direction: Direction) -> Self {
        Route::Plain(direction)
    }
}

impl Route<'_> {
    fn direction(self) -> Direction {
        match self {
            Route::Plain(direction) => direction,
            Route::Forward(_) => Direction::Out,
        }
    }

    /// Call `put(list, entry)` for every adjacency entry `e` contributes.
    #[inline]
    fn each_entry(self, e: Edge, mut put: impl FnMut(usize, VertexId)) {
        match self {
            Route::Plain(Direction::Out) => put(e.src as usize, e.dst),
            Route::Plain(Direction::In) => put(e.dst as usize, e.src),
            Route::Plain(Direction::Undirected) => {
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

/// Where a [`Csr`]'s offsets/targets actually live (PR 8): the classic heap
/// vectors, or a read-only mapping of an unlinked `EASECSR1` spill file
/// (see [`crate::spill`]). Every accessor routes through this enum, so the
/// two shapes are indistinguishable — and bit-identical — to callers.
#[derive(Debug, Clone)]
enum Store {
    Heap { offsets: Vec<usize>, targets: Vec<VertexId> },
    Mapped(Arc<MappedCsr>),
}

/// Compressed sparse row adjacency built from a [`Graph`] or any
/// [`GraphSource`].
///
/// The neighbors of `v` are `targets[offsets[v]..offsets[v+1]]` with `n+1`
/// offsets. Built with a counting pass followed by a placement pass — no
/// per-vertex `Vec` allocations (perf-book: preallocate, avoid allocation
/// in hot loops). Storage is either in-heap or a mapped spill file; see
/// [`Csr::build_spilled`].
#[derive(Debug, Clone)]
pub struct Csr {
    store: Store,
    direction: Direction,
}

impl Csr {
    fn heap(offsets: Vec<usize>, targets: Vec<VertexId>, direction: Direction) -> Self {
        Csr { store: Store::Heap { offsets, targets }, direction }
    }

    /// Exact heap cost of an in-heap CSR over `n` vertices and `entries`
    /// adjacency entries — what a [`MemoryBudget`](crate::MemoryBudget)
    /// charge for this structure should be.
    pub fn heap_bytes(n: usize, entries: usize) -> usize {
        (n + 1) * std::mem::size_of::<usize>() + entries * std::mem::size_of::<VertexId>()
    }

    /// Build adjacency in the requested direction.
    pub fn build(graph: &Graph, direction: Direction) -> Self {
        let n = graph.num_vertices();
        let mut counts = vec![0usize; n + 1];
        match direction {
            Direction::Out => {
                for e in graph.edges() {
                    counts[e.src as usize + 1] += 1;
                }
            }
            Direction::In => {
                for e in graph.edges() {
                    counts[e.dst as usize + 1] += 1;
                }
            }
            Direction::Undirected => {
                for e in graph.edges() {
                    counts[e.src as usize + 1] += 1;
                    counts[e.dst as usize + 1] += 1;
                }
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; offsets[n]];
        match direction {
            Direction::Out => {
                for e in graph.edges() {
                    let c = &mut cursor[e.src as usize];
                    targets[*c] = e.dst;
                    *c += 1;
                }
            }
            Direction::In => {
                for e in graph.edges() {
                    let c = &mut cursor[e.dst as usize];
                    targets[*c] = e.src;
                    *c += 1;
                }
            }
            Direction::Undirected => {
                for e in graph.edges() {
                    let c = &mut cursor[e.src as usize];
                    targets[*c] = e.dst;
                    *c += 1;
                    let c = &mut cursor[e.dst as usize];
                    targets[*c] = e.src;
                    *c += 1;
                }
            }
        }
        Csr::heap(offsets, targets, direction)
    }

    /// Build adjacency from any [`GraphSource`] in two sequential replays of
    /// the stream: count every list's entries, prefix-sum the counts into
    /// offsets, then place each entry at its list's cursor — so every
    /// per-vertex neighbor list ends up in stream order, bit-identical to
    /// [`Csr::build`] on the same stream.
    pub fn build_source<'r>(source: &dyn GraphSource, route: impl Into<Route<'r>>) -> Self {
        let route = route.into();
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
        Csr::heap(offsets, targets, route.direction())
    }

    /// [`Csr::build_source`] followed by the simplify pass — every list
    /// sorted, duplicates and the list's own index dropped.
    pub fn build_simple_source<'r>(source: &dyn GraphSource, route: impl Into<Route<'r>>) -> Self {
        Self::build_source(source, route).into_simple()
    }

    /// Build undirected *simple* adjacency: reciprocal duplicates, parallel
    /// edges and self-loops removed, each list sorted. The reference the
    /// tests hold the memoized and spilled builds and the triangle kernel
    /// against; no product path calls it (neighborhood expansion builds its
    /// own incidence lists).
    pub fn build_undirected_simple(graph: &Graph) -> Self {
        Csr::build(graph, Direction::Undirected).into_simple()
    }

    /// Simplify an adjacency **in place**: sort each list, drop self-loops
    /// and duplicates, and compact the surviving entries to the front of the
    /// existing targets buffer — no second full-size targets vector (PR 8:
    /// the old scratch copy doubled peak memory right at the largest
    /// transient of the whole pipeline).
    fn into_simple(self) -> Self {
        let (mut offsets, mut targets) = match self.store {
            Store::Heap { offsets, targets } => (offsets, targets),
            // defensive: a mapped CSR is immutable, decode before editing
            Store::Mapped(m) => m.decode(),
        };
        // one forward write cursor, `w <= offsets[v]` always
        let n = offsets.len() - 1;
        let mut w = 0usize;
        for v in 0..n {
            let kept = dedup_list(&mut targets, offsets[v]..offsets[v + 1], w, v);
            offsets[v] = w;
            w += kept;
        }
        offsets[n] = w;
        targets.truncate(w);
        Csr::heap(offsets, targets, self.direction)
    }

    /// Build adjacency **out of core**: stream vertex chunks of at most
    /// `chunk_bytes` of adjacency through a bounded scratch buffer into an
    /// `EASECSR1` spill file in `dir`, then map the file read-only (see
    /// [`crate::spill`]). With `simplify`, each per-vertex list is sorted
    /// and deduplicated (self-loops dropped) before it is written — the
    /// out-of-core twin of [`Csr::build_simple_source`], never
    /// holding more than one chunk plus the `O(|V|)` count table in heap.
    ///
    /// After the counting pass of [`Csr::build_source`], each chunk replays
    /// the edge stream once, placing its own incidences in stream order, so
    /// the result is bit-identical to the in-heap build for every chunk
    /// size.
    pub fn build_spilled<'r>(
        source: &dyn GraphSource,
        route: impl Into<Route<'r>>,
        simplify: bool,
        chunk_bytes: usize,
        dir: &Path,
    ) -> std::io::Result<Self> {
        let route = route.into();
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
            // one stream replay placing this chunk's incidences in edge
            // order — the same order the in-heap placement pass produces
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
                let kept = if simplify { dedup_list(&mut buf, lo..hi, lo, v) } else { hi - lo };
                writer.push_list(&buf[lo..lo + kept])?;
            }
            v0 = v1;
        }
        let direction = route.direction();
        Ok(match writer.finish()? {
            LoadedCsr::Mapped(m) => Csr { store: Store::Mapped(Arc::new(m)), direction },
            LoadedCsr::Heap { offsets, targets } => Csr::heap(offsets, targets, direction),
        })
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

    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
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

    fn spill_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ease_csr_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mk spill dir");
        d
    }

    #[test]
    fn out_adjacency() {
        let csr = Csr::build(&toy(), Direction::Out);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[2, 1]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.num_entries(), 5);
    }

    #[test]
    fn in_adjacency() {
        let csr = Csr::build(&toy(), Direction::In);
        assert_eq!(csr.neighbors(0), &[2]);
        assert_eq!(csr.degree(2), 2);
    }

    #[test]
    fn undirected_counts_both_sides() {
        let csr = Csr::build(&toy(), Direction::Undirected);
        assert_eq!(csr.num_entries(), 10);
        assert_eq!(csr.degree(1), 4); // (0,1), (1,2), (1,1) twice
    }

    #[test]
    fn undirected_simple_drops_loops_and_dupes() {
        let g = Graph::from_pairs([(0, 1), (1, 0), (0, 1), (1, 1), (1, 2)]);
        let csr = Csr::build_undirected_simple(&g);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(csr.neighbors(2), &[1]);
    }

    #[test]
    fn degrees_sum_to_entries() {
        let g = toy();
        let csr = Csr::build(&g, Direction::Out);
        let total: usize = (0..g.num_vertices() as u32).map(|v| csr.degree(v)).sum();
        assert_eq!(total, csr.num_entries());
    }

    #[test]
    fn empty_graph_csr() {
        let csr = Csr::build(&Graph::empty(3), Direction::Out);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_entries(), 0);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
    }

    /// A deterministic pseudo-random multigraph big enough to span several
    /// fingerprint blocks when `m` is large.
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

    /// The source-fed builder against the independent `Graph` one, on a
    /// stream long enough to span several fingerprint blocks.
    #[test]
    fn source_build_is_bit_identical_to_the_graph_build() {
        let g = scrambled(257, crate::source::FINGERPRINT_BLOCK * 3 + 101);
        for direction in [Direction::Out, Direction::In, Direction::Undirected] {
            let built = Csr::build_source(&g, direction);
            assert_eq!(dump(&built), dump(&Csr::build(&g, direction)), "{direction:?}");
        }
    }

    /// The PR 8 simplify rework: the in-place pass produces the same
    /// structure the old scratch-copy implementation did, reconstructed
    /// here from the raw undirected adjacency via public accessors.
    #[test]
    fn in_place_simplify_matches_the_sort_dedup_reference() {
        for (n, m) in [(257u32, 4_000usize), (64, 900), (5, 3), (1, 4)] {
            let g = scrambled(n, m);
            let raw = Csr::build(&g, Direction::Undirected);
            let mut want_offsets = vec![0usize];
            let mut want_targets: Vec<VertexId> = Vec::new();
            for v in 0..n {
                let mut list = raw.neighbors(v).to_vec();
                list.sort_unstable();
                list.dedup();
                list.retain(|&t| t != v);
                want_targets.extend_from_slice(&list);
                want_offsets.push(want_targets.len());
            }
            let simple = Csr::build_source(&g, Direction::Undirected).into_simple();
            assert_eq!(dump(&simple), (want_offsets, want_targets), "n={n} m={m}");
            assert_eq!(simple.direction(), Direction::Undirected);
        }
    }

    #[test]
    fn source_build_handles_degenerate_inputs() {
        let empty = Graph::empty(4);
        let csr = Csr::build_source(&empty, Direction::Out);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_entries(), 0);
        let tiny = toy();
        let csr = Csr::build_source(&tiny, Direction::Undirected);
        assert_eq!(dump(&csr), dump(&Csr::build(&tiny, Direction::Undirected)));
        // simplifying an empty adjacency is a no-op
        let simple = Csr::build_source(&empty, Direction::Out).into_simple();
        assert_eq!(simple.num_entries(), 0);
    }

    /// Spilled builds — raw and simplified, across chunk sizes small enough
    /// to force many chunks — serve the exact same structure through
    /// `neighbors()`/`degree()` as the in-heap build.
    #[test]
    fn spilled_build_is_bit_identical_to_heap() {
        let dir = spill_dir("bitid");
        let g = scrambled(101, 2_500);
        for direction in [Direction::Out, Direction::In, Direction::Undirected] {
            let heap = Csr::build(&g, direction);
            // 64-byte chunks force one-vertex chunks; 1 MiB fits everything
            for chunk_bytes in [0usize, 4096, 1 << 20] {
                let spilled = Csr::build_spilled(&g, direction, false, chunk_bytes, &dir)
                    .expect("spilled build");
                assert_eq!(dump(&spilled), dump(&heap), "{direction:?} chunk={chunk_bytes}");
                assert_eq!(spilled.direction(), direction);
                assert_eq!(spilled.num_vertices(), heap.num_vertices());
            }
        }
        let simple = Csr::build_undirected_simple(&g);
        for chunk_bytes in [0usize, 4096, 1 << 20] {
            let spilled = Csr::build_spilled(&g, Direction::Undirected, true, chunk_bytes, &dir)
                .expect("spilled simplify");
            assert!(spilled.is_spilled());
            assert_eq!(dump(&spilled), dump(&simple), "simplify chunk={chunk_bytes}");
            assert_eq!(spilled.direction(), Direction::Undirected);
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
        let csr = Csr::build_spilled(&Graph::empty(3), Direction::Out, false, 0, &dir)
            .expect("spill empty");
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_entries(), 0);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
