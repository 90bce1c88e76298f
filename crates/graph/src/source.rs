//! `GraphSource` — the ingestion seam every graph enters the system through.
//!
//! Before this abstraction, every path into [`crate::PreparedGraph`]
//! required an owned `Vec<Edge>` materialized up front, so the largest graph
//! the system could analyze was bounded by `8 bytes × |E|` of heap *before*
//! any analysis started — exactly the memory-constraint regime that
//! motivates HEP-style partitioners. A [`GraphSource`] is anything that can
//! replay its edge stream on demand:
//!
//! * [`crate::Graph`] — the in-memory edge list (exposes a zero-cost slice),
//! * [`crate::bel::BelSource`] — a zero-copy view over a memory-mapped
//!   binary edge-list (`.bel`) file,
//! * [`TextStreamSource`] — a streaming reader over a text edge list that
//!   holds one block of the file at a time.
//!
//! Consumers drive the source with whole-stream passes
//! ([`GraphSource::for_each_edge`]) or shard a pass over contiguous edge
//! ranges ([`GraphSource::par_chunks`] + [`GraphSource::for_each_edge_in`])
//! for parallel CSR/degree construction. Sources that cannot seek (the
//! streaming text reader) advertise a single chunk, and sharded builders
//! degrade to their sequential path.
//!
//! The module also defines the *block fingerprint*: a content hash chunked
//! into fixed [`FINGERPRINT_BLOCK`]-edge blocks so it can be computed
//! incrementally during any sharded pass (block hashes are independent;
//! the final combination is order-sensitive). The block decomposition is
//! fixed — never derived from the worker count — so the fingerprint is
//! bit-identical across backends, shard counts and machines.

use std::ops::{ControlFlow, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::edge_list::Graph;
use crate::hash::mix64;
use crate::io::{scan_edge_list, scan_whole_edge_list, GraphIoError, TextItem};
use crate::types::Edge;

/// Fixed block length (in edges) of the content fingerprint. Part of the
/// fingerprint definition: changing it changes every fingerprint.
pub const FINGERPRINT_BLOCK: usize = 1 << 16;

/// A replayable, shard-able stream of edges with a known vertex universe.
///
/// Implementations must replay the *same* edges in the *same* order on
/// every pass — all derived structure (CSRs, degrees, fingerprints,
/// partition assignments) is defined over the stream order.
pub trait GraphSource: Send + Sync {
    /// Size of the dense vertex universe `0..num_vertices`.
    fn num_vertices(&self) -> usize;

    /// Total number of edges in the stream.
    fn edge_count(&self) -> usize;

    /// Replay the whole edge stream in order.
    fn for_each_edge(&self, f: &mut dyn FnMut(Edge));

    /// Replay the edges with stream indices in `range` (in order).
    /// `range` must lie within `0..edge_count()`.
    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(Edge));

    /// Split `0..edge_count()` into at most `n` contiguous in-order ranges
    /// suitable for concurrent [`GraphSource::for_each_edge_in`] passes.
    /// Boundaries are aligned to [`FINGERPRINT_BLOCK`] so shard workers can
    /// fold whole fingerprint blocks. Sources without random access return
    /// a single range; callers must then use their sequential path.
    fn par_chunks(&self, n: usize) -> Vec<Range<usize>> {
        aligned_chunks(self.edge_count(), n)
    }

    /// The edges as a contiguous in-memory slice, when the backing store
    /// has them in `Edge` layout (the in-memory backend). Lets hot builders
    /// skip per-edge dynamic dispatch without copying.
    fn edge_slice(&self) -> Option<&[Edge]> {
        None
    }
}

/// Shared handles are sources too: the profiling spill cache hands the
/// same mapped `.bel` to many workers as `Arc<BelSource>`. Every method —
/// including the `par_chunks`/`edge_slice` defaults — forwards to the
/// inner source so sharding and fast paths survive the indirection.
impl<T: GraphSource + ?Sized> GraphSource for Arc<T> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) {
        (**self).for_each_edge(f);
    }

    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(Edge)) {
        (**self).for_each_edge_in(range, f);
    }

    fn par_chunks(&self, n: usize) -> Vec<Range<usize>> {
        (**self).par_chunks(n)
    }

    fn edge_slice(&self) -> Option<&[Edge]> {
        (**self).edge_slice()
    }
}

/// Drive `f` over the whole stream with the in-memory fast path: when the
/// source exposes a slice the loop is fully monomorphized (no per-edge
/// dynamic dispatch); otherwise it falls back to the trait's replay.
#[inline]
pub fn each_edge<F: FnMut(Edge)>(source: &dyn GraphSource, mut f: F) {
    if let Some(edges) = source.edge_slice() {
        for &e in edges {
            f(e);
        }
    } else {
        source.for_each_edge(&mut f);
    }
}

/// Ranged [`each_edge`].
#[inline]
pub fn each_edge_in<F: FnMut(Edge)>(source: &dyn GraphSource, range: Range<usize>, mut f: F) {
    if let Some(edges) = source.edge_slice() {
        for &e in &edges[range] {
            f(e);
        }
    } else {
        source.for_each_edge_in(range, &mut f);
    }
}

/// True when `path` names a binary edge list by extension
/// (`.bel`, case-insensitive).
pub fn is_bel_path(path: &Path) -> bool {
    path.extension().is_some_and(|e| e.eq_ignore_ascii_case("bel"))
}

/// Open a graph file for analysis, format-dispatched by extension: `.bel`
/// files are memory-mapped zero-copy (no owned edge list, validation at
/// open); everything else is parsed as a whitespace-separated text edge
/// list into an owned [`Graph`] by the block kernel of [`crate::io`] (byte
/// scan for plain `src dst` lines, [`crate::io::parse_edge_line`] for the
/// rest) — analysis makes several passes, and re-parsing text per pass
/// would dominate every downstream timing.
///
/// The handle is `Send + Sync` ([`GraphSource`] supertraits), so one
/// opened graph can be analyzed from any thread — the `ease serve` daemon
/// opens request paths on its worker threads through exactly this seam.
pub fn open_path(path: &Path) -> Result<Box<dyn GraphSource>, GraphIoError> {
    if is_bel_path(path) {
        Ok(Box::new(crate::bel::BelSource::open(path)?))
    } else {
        Ok(Box::new(crate::io::read_edge_list(path)?))
    }
}

/// Split `0..m` into at most `n` contiguous ranges whose boundaries are
/// multiples of [`FINGERPRINT_BLOCK`] (except the final end).
pub fn aligned_chunks(m: usize, n: usize) -> Vec<Range<usize>> {
    if m == 0 {
        return Vec::new();
    }
    let n = n.max(1);
    let blocks = m.div_ceil(FINGERPRINT_BLOCK);
    let shards = n.min(blocks);
    let per_shard = blocks.div_ceil(shards);
    let mut out = Vec::with_capacity(shards);
    let mut start_block = 0usize;
    while start_block < blocks {
        let end_block = (start_block + per_shard).min(blocks);
        let lo = start_block * FINGERPRINT_BLOCK;
        let hi = (end_block * FINGERPRINT_BLOCK).min(m);
        out.push(lo..hi);
        start_block = end_block;
    }
    out
}

/// Per-block hash state for the block fingerprint. Feed edges in stream
/// order starting at a block boundary; collect one `u64` per finished block.
#[derive(Debug, Clone)]
pub struct BlockHasher {
    block_index: usize,
    in_block: usize,
    acc: u64,
    /// `(block index, hash)` of every finished block, in order.
    pub blocks: Vec<(usize, u64)>,
}

impl BlockHasher {
    /// Start hashing at edge stream index `start` (must be a multiple of
    /// [`FINGERPRINT_BLOCK`]).
    pub fn starting_at(start: usize) -> Self {
        debug_assert_eq!(start % FINGERPRINT_BLOCK, 0, "blocks start on block boundaries");
        let block_index = start / FINGERPRINT_BLOCK;
        BlockHasher { block_index, in_block: 0, acc: block_seed(block_index), blocks: Vec::new() }
    }

    #[inline]
    pub fn feed(&mut self, e: Edge) {
        self.acc = mix64(self.acc ^ ((u64::from(e.src) << 32) | u64::from(e.dst)));
        self.in_block += 1;
        if self.in_block == FINGERPRINT_BLOCK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.blocks.push((self.block_index, self.acc));
        self.block_index += 1;
        self.in_block = 0;
        self.acc = block_seed(self.block_index);
    }

    /// Finish: flush the trailing partial block (if any) and return the
    /// collected `(block index, hash)` pairs.
    pub fn finish(mut self) -> Vec<(usize, u64)> {
        if self.in_block > 0 {
            self.flush();
        }
        self.blocks
    }
}

#[inline]
fn block_seed(block_index: usize) -> u64 {
    mix64(0xB10C_EA5E ^ block_index as u64)
}

/// Combine per-block hashes (sorted by block index) with the stream shape
/// into the final content fingerprint. Equal for identical
/// `(num_vertices, edge stream)` inputs regardless of backend or shard
/// layout; different (with overwhelming probability) when any edge, the
/// edge order, or the vertex universe changes.
pub fn combine_fingerprint(num_vertices: usize, edge_count: usize, blocks: &[(usize, u64)]) -> u64 {
    debug_assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0), "blocks sorted by index");
    let mut h = mix64(0xEA5E_F16E ^ (num_vertices as u64));
    h = mix64(h ^ (edge_count as u64).rotate_left(32));
    for &(_, bh) in blocks {
        h = mix64(h ^ bh);
    }
    h
}

/// One sequential pass computing the fingerprint of a source. The fused
/// sharded equivalent lives in
/// [`crate::degree::DegreeTable::compute_source`], which folds the same
/// blocks during its counting pass; [`fingerprint_source_sharded`] shards a
/// standalone fingerprint pass. All three produce the same value.
pub fn fingerprint_source(source: &dyn GraphSource) -> u64 {
    let mut hasher = BlockHasher::starting_at(0);
    each_edge(source, |e| hasher.feed(e));
    combine_fingerprint(source.num_vertices(), source.edge_count(), &hasher.finish())
}

/// [`fingerprint_source`] with the pass sharded over `shards` edge ranges.
/// Block hashes are independent, so shards fold their own blocks and the
/// combination is assembled in block order — bit-identical to the
/// sequential pass for every shard count.
pub fn fingerprint_source_sharded(source: &dyn GraphSource, shards: usize) -> u64 {
    let chunks = source.par_chunks(shards.max(1));
    if chunks.len() <= 1 {
        return fingerprint_source(source);
    }
    let mut blocks: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|range| {
                scope.spawn(move || {
                    let mut hasher = BlockHasher::starting_at(range.start);
                    each_edge_in(source, range, |e| hasher.feed(e));
                    hasher.finish()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("fingerprint shard")).collect()
    });
    blocks.sort_unstable_by_key(|&(i, _)| i);
    combine_fingerprint(source.num_vertices(), source.edge_count(), &blocks)
}

// ---------------------------------------------------------------------
// Backend 1: the in-memory edge list
// ---------------------------------------------------------------------

impl GraphSource for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.num_edges()
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) {
        for &e in self.edges() {
            f(e);
        }
    }

    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(Edge)) {
        for &e in &self.edges()[range] {
            f(e);
        }
    }

    fn edge_slice(&self) -> Option<&[Edge]> {
        Some(self.edges())
    }
}

// ---------------------------------------------------------------------
// Backend 3: block-streaming text reader
// ---------------------------------------------------------------------

/// A text edge list consumed as a stream: one pass of the block kernel
/// ([`crate::io`]) per replay, one reusable block, never the whole file in
/// memory.
///
/// [`TextStreamSource::open`] runs a single validation pass (counting edges
/// and the max endpoint, type-checking every line) so later replays are
/// infallible; if the file changes between passes the replay panics rather
/// than returning silently wrong analysis.
#[derive(Debug, Clone)]
pub struct TextStreamSource {
    path: PathBuf,
    num_vertices: usize,
    edge_count: usize,
}

impl TextStreamSource {
    /// Open and validate `path` (one full pass, constant memory).
    /// A `# vertices N` summary comment declares an explicit universe (see
    /// [`crate::io::parse_universe_comment`]); the source covers
    /// `max(declared, max endpoint + 1)`.
    pub fn open(path: &Path) -> Result<Self, GraphIoError> {
        let mut edge_count = 0usize;
        let num_vertices = scan_whole_edge_list(std::fs::File::open(path)?, |_| edge_count += 1)?;
        Ok(TextStreamSource { path: path.to_path_buf(), num_vertices, edge_count })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stream the file, calling `f` for edges with stream index in
    /// `range`. Edges before the range are parsed and skipped (text has no
    /// random access); iteration stops at the range end.
    fn stream(&self, range: Range<usize>, f: &mut dyn FnMut(Edge)) {
        if range.is_empty() {
            return;
        }
        let file = std::fs::File::open(&self.path).unwrap_or_else(|e| {
            panic!("edge list {} vanished mid-analysis: {e}", self.path.display())
        });
        let mut idx = 0usize;
        let scanned = scan_edge_list(file, |item| {
            if let TextItem::Edge(e) = item {
                if idx >= range.end {
                    return Ok(ControlFlow::Break(()));
                }
                if idx >= range.start {
                    f(e);
                }
                idx += 1;
            }
            Ok(ControlFlow::Continue(()))
        });
        match scanned {
            Ok(()) => {}
            Err(GraphIoError::Io(e)) => {
                panic!("edge list {} unreadable mid-analysis: {e}", self.path.display())
            }
            Err(e) => panic!("edge list {} changed mid-analysis: {e}", self.path.display()),
        }
        assert!(
            idx >= range.end,
            "edge list {} shrank mid-analysis: expected {} edges, saw {idx}",
            self.path.display(),
            self.edge_count,
        );
    }
}

impl GraphSource for TextStreamSource {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) {
        self.stream(0..self.edge_count, f);
    }

    fn for_each_edge_in(&self, range: Range<usize>, f: &mut dyn FnMut(Edge)) {
        self.stream(range, f);
    }

    /// No random access: a sharded pass over a text stream would re-parse
    /// the file once per shard, so advertise a single chunk and let
    /// builders take their sequential path.
    // the single range IS the contract here: one chunk = "no random access"
    #[allow(clippy::single_range_in_vec_init)]
    fn par_chunks(&self, _n: usize) -> Vec<Range<usize>> {
        if self.edge_count == 0 {
            Vec::new()
        } else {
            vec![0..self.edge_count]
        }
    }
}

/// Materialize any source into an owned [`Graph`] (test/diagnostic helper —
/// production paths exist precisely to avoid this).
pub fn collect_source(source: &dyn GraphSource) -> Graph {
    let mut edges = Vec::with_capacity(source.edge_count());
    source.for_each_edge(&mut |e| edges.push(e));
    Graph::new(source.num_vertices(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)])
    }

    #[test]
    fn graph_source_replays_the_slice() {
        let g = toy();
        let mut seen = Vec::new();
        GraphSource::for_each_edge(&g, &mut |e| seen.push(e));
        assert_eq!(seen, g.edges());
        assert_eq!(g.edge_count(), 6);
        assert_eq!(GraphSource::num_vertices(&g), 4);
        assert_eq!(g.edge_slice().unwrap(), g.edges());
        let mut ranged = Vec::new();
        g.for_each_edge_in(2..5, &mut |e| ranged.push(e));
        assert_eq!(ranged, &g.edges()[2..5]);
    }

    #[test]
    fn aligned_chunks_cover_and_align() {
        let m = 5 * FINGERPRINT_BLOCK + 123;
        for n in [1, 2, 3, 4, 7, 100] {
            let chunks = aligned_chunks(m, n);
            assert!(chunks.len() <= n.max(1));
            assert_eq!(chunks.first().unwrap().start, 0);
            assert_eq!(chunks.last().unwrap().end, m);
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert_eq!(w[0].end % FINGERPRINT_BLOCK, 0, "aligned");
            }
        }
        assert!(aligned_chunks(0, 4).is_empty());
        // tiny stream: one chunk regardless of n
        assert_eq!(aligned_chunks(10, 8), vec![0..10]);
    }

    #[test]
    fn fingerprint_is_independent_of_block_partitioning() {
        // two blocks worth of edges, hashed whole vs. per aligned shard
        let m = FINGERPRINT_BLOCK + 17;
        let edges: Vec<Edge> = (0..m as u32).map(|i| Edge::new(i % 97, (i * 7) % 89)).collect();
        let g = Graph::new(97, edges);
        let whole = fingerprint_source(&g);
        // shard-by-shard with independent hashers
        let mut blocks = Vec::new();
        for r in aligned_chunks(m, 2) {
            let mut h = BlockHasher::starting_at(r.start);
            g.for_each_edge_in(r, &mut |e| h.feed(e));
            blocks.extend(h.finish());
        }
        blocks.sort_by_key(|&(i, _)| i);
        assert_eq!(whole, combine_fingerprint(97, m, &blocks));
    }

    #[test]
    fn fingerprint_is_content_and_order_sensitive() {
        let g = toy();
        let base = fingerprint_source(&g);
        let mut swapped = g.clone();
        swapped.edges_mut().swap(0, 1);
        assert_ne!(base, fingerprint_source(&swapped));
        let mut changed = g.clone();
        changed.edges_mut()[0] = Edge::new(0, 2);
        assert_ne!(base, fingerprint_source(&changed));
        let padded = Graph::new(5, g.edges().to_vec());
        assert_ne!(base, fingerprint_source(&padded));
        assert_eq!(base, fingerprint_source(&g.clone()));
    }

    #[test]
    fn text_stream_source_round_trips_without_materializing() {
        let g = toy();
        let path =
            std::env::temp_dir().join(format!("ease_text_stream_{}.txt", std::process::id()));
        crate::io::write_edge_list(&g, &path).unwrap();
        let src = TextStreamSource::open(&path).unwrap();
        assert_eq!(src.edge_count(), g.num_edges());
        assert_eq!(src.num_vertices(), g.num_vertices());
        assert_eq!(collect_source(&src), g);
        // ranged replay skips the prefix
        let mut mid = Vec::new();
        src.for_each_edge_in(2..4, &mut |e| mid.push(e));
        assert_eq!(mid, &g.edges()[2..4]);
        // a text stream advertises exactly one chunk
        assert_eq!(src.par_chunks(8), vec![0..6]);
        assert_eq!(fingerprint_source(&src), fingerprint_source(&g));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_stream_open_reports_parse_errors() {
        let path =
            std::env::temp_dir().join(format!("ease_text_stream_bad_{}.txt", std::process::id()));
        std::fs::write(&path, "0 1\nnot an edge\n").unwrap();
        let err = TextStreamSource::open(&path).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 2, .. }), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arc_sources_forward_every_method() {
        let g = toy();
        let arc: Arc<Graph> = Arc::new(g.clone());
        assert_eq!(GraphSource::num_vertices(&arc), GraphSource::num_vertices(&g));
        assert_eq!(arc.edge_count(), g.edge_count());
        assert_eq!(arc.edge_slice(), g.edge_slice(), "fast path survives the Arc");
        assert_eq!(arc.par_chunks(4), g.par_chunks(4));
        assert_eq!(collect_source(&arc), g);
        let mut mid = Vec::new();
        arc.for_each_edge_in(1..3, &mut |e| mid.push(e));
        assert_eq!(mid, &g.edges()[1..3]);
        // the unsized form (Arc<dyn GraphSource>) forwards too
        let dynamic: Arc<dyn GraphSource> = Arc::new(g.clone());
        assert_eq!(fingerprint_source(&dynamic), fingerprint_source(&g));
    }

    #[test]
    fn empty_text_stream_is_an_empty_source() {
        let path =
            std::env::temp_dir().join(format!("ease_text_stream_empty_{}.txt", std::process::id()));
        std::fs::write(&path, "# just a comment\n").unwrap();
        let src = TextStreamSource::open(&path).unwrap();
        assert_eq!((src.edge_count(), src.num_vertices()), (0, 0));
        assert!(src.par_chunks(4).is_empty());
        std::fs::remove_file(&path).ok();
    }
}
