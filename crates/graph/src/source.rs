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
//! ([`GraphSource::for_each_edge`]), one sequential replay per stage: the
//! degree table, each CSR's counting and placement passes, every spill chunk.
//! Throughput comes from one level up — a graph per core in the profiling
//! fan-out, a request per executor in the daemon — never from threads inside
//! a pass.
//!
//! The module also defines the *block fingerprint*: a content hash chunked
//! into fixed [`FINGERPRINT_BLOCK`]-edge blocks, each hashed from its own
//! seed and folded into the running combination as it completes — one
//! streaming pass, no per-block state kept. The block length is fixed by
//! compatibility: persisted property-cache trailers, the daemon memo and
//! `ease features` output carry fingerprints, so the construction may not
//! change, and the value is bit-identical across backends and machines.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::edge_list::Graph;
use crate::hash::mix64;
use crate::io::{scan_edge_list, scan_whole_edge_list, GraphIoError, TextItem};
use crate::types::Edge;

/// Fixed block length (in edges) of the content fingerprint. Part of the
/// fingerprint definition: changing it changes every fingerprint, including
/// the ones already persisted in model files.
pub const FINGERPRINT_BLOCK: usize = 1 << 16;

/// A replayable stream of edges with a known vertex universe.
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

    /// The edges as a contiguous in-memory slice, when the backing store
    /// has them in `Edge` layout (the in-memory backend). Lets hot builders
    /// skip per-edge dynamic dispatch without copying.
    fn edge_slice(&self) -> Option<&[Edge]> {
        None
    }
}

/// Shared handles are sources too: the profiling spill cache hands the
/// same mapped `.bel` to many workers as `Arc<BelSource>`. Every method —
/// including the `edge_slice` default — forwards to the inner source so
/// the slice fast path survives the indirection.
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

/// Streaming state of the block fingerprint: the stream shape and every
/// finished block are already folded into `combined`; `acc` hashes the block
/// in progress from its own seed. Feed the whole stream in order.
#[derive(Debug)]
pub(crate) struct BlockHasher {
    combined: u64,
    block_index: usize,
    in_block: usize,
    acc: u64,
}

impl BlockHasher {
    /// A hasher for a stream of `edge_count` edges over `num_vertices`
    /// vertices — the shape goes into the fingerprint ahead of the blocks.
    pub(crate) fn new(num_vertices: usize, edge_count: usize) -> Self {
        let shape = mix64(0xEA5E_F16E ^ (num_vertices as u64));
        let combined = mix64(shape ^ (edge_count as u64).rotate_left(32));
        BlockHasher { combined, block_index: 0, in_block: 0, acc: block_seed(0) }
    }

    #[inline]
    pub(crate) fn feed(&mut self, e: Edge) {
        self.acc = mix64(self.acc ^ ((u64::from(e.src) << 32) | u64::from(e.dst)));
        self.in_block += 1;
        if self.in_block == FINGERPRINT_BLOCK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.combined = mix64(self.combined ^ self.acc);
        self.block_index += 1;
        self.in_block = 0;
        self.acc = block_seed(self.block_index);
    }

    /// Fold the trailing partial block (if any) and return the fingerprint.
    pub(crate) fn finish(mut self) -> u64 {
        if self.in_block > 0 {
            self.flush();
        }
        self.combined
    }
}

#[inline]
fn block_seed(block_index: usize) -> u64 {
    mix64(0xB10C_EA5E ^ block_index as u64)
}

/// One sequential pass computing the content fingerprint of a source: equal
/// for identical `(num_vertices, edge stream)` inputs regardless of backend;
/// different (with overwhelming probability) when any edge, the edge order,
/// or the vertex universe changes.
/// [`crate::degree::DegreeTable::compute_source`] folds the same hasher into
/// its counting pass and returns the same value.
pub fn fingerprint_source(source: &dyn GraphSource) -> u64 {
    let mut hasher = BlockHasher::new(source.num_vertices(), source.edge_count());
    each_edge(source, |e| hasher.feed(e));
    hasher.finish()
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

    /// One pass of the block kernel over the file, stopping after the
    /// `edge_count` edges `open` validated.
    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) {
        let file = std::fs::File::open(&self.path).unwrap_or_else(|e| {
            panic!("edge list {} vanished mid-analysis: {e}", self.path.display())
        });
        let mut seen = 0usize;
        let scanned = scan_edge_list(file, |item| {
            if let TextItem::Edge(e) = item {
                if seen == self.edge_count {
                    return Ok(ControlFlow::Break(()));
                }
                f(e);
                seen += 1;
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
            seen == self.edge_count,
            "edge list {} shrank mid-analysis: expected {} edges, saw {seen}",
            self.path.display(),
            self.edge_count,
        );
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
        assert_eq!(fingerprint_source(&src), fingerprint_source(&g));
        std::fs::remove_file(&path).ok();
    }

    /// A replay of a file that changed since `open` must not hand out a
    /// different stream: fewer edges or no file panic, extra ones are not
    /// replayed.
    #[test]
    fn text_stream_replay_notices_a_file_that_changed_underneath() {
        let path =
            std::env::temp_dir().join(format!("ease_text_stream_chg_{}.txt", std::process::id()));
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let src = TextStreamSource::open(&path).unwrap();
        let replay_panics = || std::panic::catch_unwind(|| collect_source(&src)).is_err();
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        assert_eq!(collect_source(&src).edges(), &[Edge::new(0, 1), Edge::new(1, 2)]);
        std::fs::write(&path, "0 1\n").unwrap();
        assert!(replay_panics(), "shrank");
        std::fs::write(&path, "0 1\nnot an edge\n").unwrap();
        assert!(replay_panics(), "changed");
        std::fs::remove_file(&path).unwrap();
        assert!(replay_panics(), "vanished");
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
        assert_eq!(collect_source(&arc), g);
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
        assert_eq!(collect_source(&src), Graph::empty(0));
        std::fs::remove_file(&path).ok();
    }
}
