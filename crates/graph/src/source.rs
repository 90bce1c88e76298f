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
//!   which is also what a text edge list is read into
//!   ([`crate::io::read_edge_list`]),
//! * [`crate::bel::BelSource`] — a zero-copy view over a memory-mapped
//!   binary edge-list (`.bel`) file.
//!
//! Both replay from memory, so a replay cannot fail: every check a file
//! needs happens once, when it is read or mapped.
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
//! seed and folded into the running combination in block order — one
//! streaming pass, no per-block state kept. The block length is fixed by
//! compatibility: persisted property-cache trailers and `ease features`
//! output carry fingerprints, so the construction may not change, and the
//! value is bit-identical across backends and machines.
//!
//! Because a block's chain starts from its own seed, blocks are independent
//! until they are folded. [`fingerprint_source`] over an in-memory slice uses
//! that: it hashes four consecutive full blocks in lockstep, one `mix64`
//! chain per block, and folds the four results in block order, so the value
//! is the sequential one by construction. A `.bel` mapping and the fused
//! degree pass ([`crate::degree::DegreeTable::compute_source`]) feed the
//! sequential hasher edge by edge: [`GraphSource`] replays only the whole
//! stream, from the start, so there is no second position to hash from.

use std::path::Path;

use crate::edge_list::Graph;
use crate::hash::mix64;
use crate::io::GraphIoError;
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
        self.acc = mix64(self.acc ^ edge_word(e));
        self.in_block += 1;
        if self.in_block == FINGERPRINT_BLOCK {
            self.flush();
        }
    }

    /// Feed the whole stream at once. Every group of four full blocks is
    /// hashed in lockstep, one `acc` lane per block seeded as [`feed`] would
    /// seed it, and the lanes are folded in block order: four independent
    /// `mix64` chains instead of one. The remainder goes through [`feed`].
    ///
    /// [`feed`]: BlockHasher::feed
    fn feed_all(&mut self, edges: &[Edge]) {
        debug_assert_eq!((self.block_index, self.in_block), (0, 0));
        let mut groups = edges.chunks_exact(4 * FINGERPRINT_BLOCK);
        for group in &mut groups {
            let (b0, rest) = group.split_at(FINGERPRINT_BLOCK);
            let (b1, rest) = rest.split_at(FINGERPRINT_BLOCK);
            let (b2, b3) = rest.split_at(FINGERPRINT_BLOCK);
            let mut acc: [u64; 4] = std::array::from_fn(|i| block_seed(self.block_index + i));
            for (((&e0, &e1), &e2), &e3) in b0.iter().zip(b1).zip(b2).zip(b3) {
                acc[0] = mix64(acc[0] ^ edge_word(e0));
                acc[1] = mix64(acc[1] ^ edge_word(e1));
                acc[2] = mix64(acc[2] ^ edge_word(e2));
                acc[3] = mix64(acc[3] ^ edge_word(e3));
            }
            for lane in acc {
                self.combined = mix64(self.combined ^ lane);
            }
            self.block_index += 4;
        }
        self.acc = block_seed(self.block_index);
        for &e in groups.remainder() {
            self.feed(e);
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

/// What one edge contributes to its block's chain.
#[inline]
fn edge_word(e: Edge) -> u64 {
    (u64::from(e.src) << 32) | u64::from(e.dst)
}

/// One pass computing the content fingerprint of a source: equal for
/// identical `(num_vertices, edge stream)` inputs regardless of backend;
/// different (with overwhelming probability) when any edge, the edge order,
/// or the vertex universe changes. An in-memory slice is hashed four blocks
/// at a time, any other source edge by edge.
/// [`crate::degree::DegreeTable::compute_source`] folds the same hasher into
/// its counting pass and returns the same value.
pub fn fingerprint_source(source: &dyn GraphSource) -> u64 {
    let mut hasher = BlockHasher::new(source.num_vertices(), source.edge_count());
    match source.edge_slice() {
        Some(edges) => hasher.feed_all(edges),
        None => source.for_each_edge(&mut |e| hasher.feed(e)),
    }
    hasher.finish()
}

// ---------------------------------------------------------------------
// The in-memory backend (the mapped one is `crate::bel::BelSource`)
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

    /// The four-block fold against the sequential hasher (the fused degree
    /// pass's) on both sides of every group and block boundary it has.
    #[test]
    fn four_block_fold_is_the_sequential_hash() {
        let mut x = 3u64;
        let edges: Vec<Edge> = (0..9 * FINGERPRINT_BLOCK + 5)
            .map(|_| {
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0x9E37);
                Edge::new((x >> 48) as u32, x as u32 & 0xFFFF)
            })
            .collect();
        for blocks in [0, 1, 3, 4, 5, 8, 9] {
            for extra in [-1, 0, 1, 5] {
                let Some(m) = (blocks * FINGERPRINT_BLOCK).checked_add_signed(extra) else {
                    continue;
                };
                let g = Graph::new(1 << 16, edges[..m].to_vec());
                let (_, sequential) = crate::degree::DegreeTable::compute_source(&g);
                assert_eq!(fingerprint_source(&g), sequential, "{m} edges");
            }
        }
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
}
