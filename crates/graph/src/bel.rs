//! `.bel` — the binary edge-list format and its zero-copy mmap source.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  0: magic  "EASEBEL1"           (8 bytes)
//! offset  8: num_vertices                (u64)
//! offset 16: num_edges                   (u64)
//! offset 24: num_edges × (src u64, dst u64)
//! ```
//!
//! 16 bytes per edge, no parsing: ingesting a `.bel` file is a header check
//! plus `u64::from_le_bytes` per endpoint straight out of the page cache.
//! [`BelSource`] memory-maps the file ([`crate::mmap::Mmap`]) and implements
//! [`GraphSource`], so CSR/degree construction replays the mapping directly
//! without ever materializing an owned `Vec<Edge>`.
//!
//! [`BelWriter`] streams edges to disk with a placeholder header that is
//! patched by [`BelWriter::finish_with_vertices`] — writers (the `ease
//! gen`/`ease convert` subcommands) need the edge count and vertex universe
//! only at the end, not up front, which is what makes generator-to-file
//! streaming possible.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::edge_list::Graph;
use crate::io::GraphIoError;
use crate::mmap::Mmap;
use crate::source::GraphSource;
use crate::types::Edge;

/// File magic of the binary edge-list format (versioned in the last byte).
pub const BEL_MAGIC: [u8; 8] = *b"EASEBEL1";

/// Header length in bytes: magic + num_vertices + num_edges.
pub const BEL_HEADER_LEN: usize = 24;

/// Bytes per edge record: two little-endian `u64` endpoints.
pub const BEL_EDGE_LEN: usize = 16;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Bytes a [`BelWriter`] stages before it writes them to the file.
const WRITE_CHUNK: usize = 64 * 1024;

/// Streaming `.bel` writer: edges are staged and go to the file in 64 KiB
/// writes as they are pushed; the header is patched with the final counts
/// by [`BelWriter::finish_with_vertices`].
#[derive(Debug)]
pub struct BelWriter {
    file: File,
    /// Bytes not yet written to `file`: at first the placeholder header.
    staged: Vec<u8>,
    edge_count: u64,
    max_endpoint: u64,
}

impl BelWriter {
    /// Create `path`, staging a placeholder header.
    pub fn create(path: &Path) -> io::Result<BelWriter> {
        let file = File::create(path)?;
        let mut staged = Vec::with_capacity(WRITE_CHUNK);
        staged.extend_from_slice(&BEL_MAGIC);
        staged.resize(BEL_HEADER_LEN, 0);
        Ok(BelWriter { file, staged, edge_count: 0, max_endpoint: 0 })
    }

    /// Append one edge as one 16-byte record: a `u128` whose low half is
    /// `src` is, little-endian, the `(src u64, dst u64)` pair of the
    /// layout. The record is copied into the writer's own staging buffer,
    /// not passed to a `BufWriter`: `write_all`'s out-of-line flush path
    /// would take the record's address, and a record built in memory by
    /// two 8-byte stores and copied by one 16-byte load stalls the load.
    pub fn push(&mut self, e: Edge) -> io::Result<()> {
        if self.staged.len() + BEL_EDGE_LEN > WRITE_CHUNK {
            self.file.write_all(&self.staged)?;
            self.staged.clear();
        }
        let record: [u8; BEL_EDGE_LEN] =
            (u128::from(e.dst) << 64 | u128::from(e.src)).to_le_bytes();
        self.staged.extend_from_slice(&record);
        self.edge_count += 1;
        self.max_endpoint = self.max_endpoint.max(u64::from(e.src)).max(u64::from(e.dst));
        Ok(())
    }

    /// Patch the header with the vertex universe and the edge count, and
    /// flush. The universe must cover every pushed endpoint; ids above
    /// the largest are isolated trailing vertices, and survive.
    pub fn finish_with_vertices(mut self, num_vertices: usize) -> io::Result<()> {
        assert!(
            self.edge_count == 0 || (num_vertices as u64) > self.max_endpoint,
            "vertex universe {num_vertices} does not cover max endpoint {}",
            self.max_endpoint
        );
        self.file.write_all(&self.staged)?;
        self.file.seek(SeekFrom::Start(8))?;
        self.file.write_all(&(num_vertices as u64).to_le_bytes())?;
        self.file.write_all(&self.edge_count.to_le_bytes())?;
        self.file.flush()
    }
}

/// Write a whole in-memory graph as `.bel`.
pub fn write_bel(graph: &Graph, path: &Path) -> io::Result<()> {
    let mut w = BelWriter::create(path)?;
    for &e in graph.edges() {
        w.push(e)?;
    }
    w.finish_with_vertices(graph.num_vertices())
}

// ---------------------------------------------------------------------
// Source
// ---------------------------------------------------------------------

/// A zero-copy [`GraphSource`] over a memory-mapped `.bel` file.
///
/// `open` validates the header, the length arithmetic, and (one mmap-speed
/// pass) that every endpoint fits the declared vertex universe — replays
/// are then infallible. Edge decoding is two unaligned `u64` loads per
/// edge; nothing proportional to `|E|` is ever allocated.
#[derive(Debug)]
pub struct BelSource {
    map: Mmap,
    path: PathBuf,
    num_vertices: usize,
    edge_count: usize,
}

impl BelSource {
    /// Map and validate `path`.
    pub fn open(path: &Path) -> Result<BelSource, GraphIoError> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        let bytes = map.as_slice();
        let (num_vertices, edge_count) = decode_header(bytes)?;
        let expected = BEL_HEADER_LEN as u64 + edge_count.saturating_mul(BEL_EDGE_LEN as u64);
        if bytes.len() as u64 != expected {
            return Err(GraphIoError::Format(format!(
                "file is {} bytes but the header declares {edge_count} edges ({expected} bytes)",
                bytes.len()
            )));
        }
        let src = BelSource {
            map,
            path: path.to_path_buf(),
            num_vertices: num_vertices as usize,
            edge_count: edge_count as usize,
        };
        // One sequential validation pass so replay-time decoding can trust
        // the data (mmap-speed; still an order of magnitude under parsing).
        for i in 0..src.edge_count {
            let (s, d) = src.raw_edge(i);
            if s >= num_vertices || d >= num_vertices {
                return Err(GraphIoError::Format(format!(
                    "edge {i} endpoint ({s}, {d}) outside vertex universe {num_vertices}"
                )));
            }
        }
        Ok(src)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    #[inline]
    fn raw_edge(&self, i: usize) -> (u64, u64) {
        let bytes = self.map.as_slice();
        let off = BEL_HEADER_LEN + i * BEL_EDGE_LEN;
        (read_u64(bytes, off), read_u64(bytes, off + 8))
    }

    #[inline]
    fn edge(&self, i: usize) -> Edge {
        let (s, d) = self.raw_edge(i);
        Edge::new(s as u32, d as u32)
    }
}

/// Decode the header at the start of `bytes`, the one reader of the
/// layout in the module docs: checks the magic and that the vertex
/// universe fits the u32 id space, and returns `(num_vertices,
/// num_edges)` as declared. Says nothing about the edges that follow.
pub fn decode_header(bytes: &[u8]) -> Result<(u64, u64), GraphIoError> {
    let header = bytes.first_chunk::<BEL_HEADER_LEN>().ok_or_else(|| {
        GraphIoError::Format(format!(
            "{} bytes is too short for a .bel header ({BEL_HEADER_LEN} bytes)",
            bytes.len()
        ))
    })?;
    if !header.starts_with(&BEL_MAGIC) {
        return Err(GraphIoError::Format("bad magic (not an EASEBEL1 binary edge list)".into()));
    }
    let num_vertices = read_u64(header, 8);
    if num_vertices > u64::from(u32::MAX) + 1 {
        return Err(GraphIoError::Format(format!(
            "vertex universe {num_vertices} exceeds the u32 id space"
        )));
    }
    Ok((num_vertices, read_u64(header, 16)))
}

#[inline]
fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

impl GraphSource for BelSource {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) {
        for i in 0..self.edge_count {
            f(self.edge(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{collect_source, fingerprint_source};

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ease_bel_test_{tag}_{}.bel", std::process::id()))
    }

    fn toy() -> Graph {
        Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)])
    }

    #[test]
    fn round_trip_preserves_graph_and_fingerprint() {
        let g = toy();
        let path = temp("roundtrip");
        write_bel(&g, &path).unwrap();
        let src = BelSource::open(&path).unwrap();
        assert_eq!(src.edge_count(), g.num_edges());
        assert_eq!(GraphSource::num_vertices(&src), g.num_vertices());
        assert_eq!(collect_source(&src), g);
        assert_eq!(fingerprint_source(&src), fingerprint_source(&g));
        assert!(src.edge_slice().is_none(), "bel bytes are not Edge layout");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn isolated_trailing_vertices_survive() {
        let g = Graph::new(10, vec![Edge::new(0, 1)]);
        let path = temp("isolated");
        write_bel(&g, &path).unwrap();
        let src = BelSource::open(&path).unwrap();
        assert_eq!(GraphSource::num_vertices(&src), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_round_trips() {
        let path = temp("writer");
        let mut w = BelWriter::create(&path).unwrap();
        for e in [Edge::new(4, 2), Edge::new(0, 7)] {
            w.push(e).unwrap();
        }
        w.finish_with_vertices(8).unwrap();
        let src = BelSource::open(&path).unwrap();
        assert_eq!((GraphSource::num_vertices(&src), src.edge_count()), (8, 2));
        assert_eq!(collect_source(&src).edges(), &[Edge::new(4, 2), Edge::new(0, 7)]);
        std::fs::remove_file(&path).ok();
    }

    /// The bytes a streaming write produces, header included. The literal
    /// was written by the tree whose `push` wrote each endpoint with its
    /// own `write_all`; an endpoint above `u16::MAX` pins the byte order.
    #[test]
    fn writer_bytes_are_pinned() {
        let path = temp("pinned");
        let mut w = BelWriter::create(&path).unwrap();
        for e in [Edge::new(4, 2), Edge::new(0x0102_0304, 7), Edge::new(0, 0x0001_0000)] {
            w.push(e).unwrap();
        }
        w.finish_with_vertices(0x0102_0305).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            "4541534542454c31", // magic
            "0503020100000000", // num_vertices
            "0300000000000000", // num_edges
            "04000000000000000200000000000000",
            "04030201000000000700000000000000",
            "00000000000000000000010000000000",
        );
        assert_eq!(hex, expected);
    }

    /// A stream of several staging chunks: the file is the header and then
    /// every record, in order, none lost or repeated at a chunk boundary.
    #[test]
    fn writer_streams_across_staging_chunks() {
        let path = temp("chunks");
        let edges: Vec<Edge> = (0..3 * WRITE_CHUNK as u32 / 16 + 5)
            .map(|i| Edge::new(i, i.wrapping_mul(0x9E37_79B9) >> 8))
            .collect();
        let mut w = BelWriter::create(&path).unwrap();
        edges.iter().for_each(|&e| w.push(e).unwrap());
        w.finish_with_vertices(1 << 24).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut expected = BEL_MAGIC.to_vec();
        expected.extend_from_slice(&(1u64 << 24).to_le_bytes());
        expected.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for e in &edges {
            expected.extend_from_slice(&u64::from(e.src).to_le_bytes());
            expected.extend_from_slice(&u64::from(e.dst).to_le_bytes());
        }
        assert!(bytes == expected, "{} bytes written, {} expected", bytes.len(), expected.len());
    }

    #[test]
    fn empty_graph_round_trips() {
        let path = temp("empty");
        BelWriter::create(&path).unwrap().finish_with_vertices(0).unwrap();
        let src = BelSource::open(&path).unwrap();
        assert_eq!((src.edge_count(), GraphSource::num_vertices(&src)), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_are_typed_errors() {
        let path = temp("corrupt");
        // bad magic
        std::fs::write(&path, b"NOTABEL!aaaaaaaabbbbbbbb").unwrap();
        assert!(matches!(BelSource::open(&path), Err(GraphIoError::Format(_))));
        // short header
        std::fs::write(&path, b"EASEBEL1").unwrap();
        assert!(matches!(BelSource::open(&path), Err(GraphIoError::Format(_))));
        // declared edges exceed the payload
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BEL_MAGIC);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes()); // 3 edges declared, 0 present
        std::fs::write(&path, &bytes).unwrap();
        let err = BelSource::open(&path).unwrap_err();
        assert!(err.to_string().contains("declares 3 edges"), "{err}");
        // endpoint outside the declared universe
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BEL_MAGIC);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes()); // dst 9 >= nv 2
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(BelSource::open(&path), Err(GraphIoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = BelSource::open(Path::new("/definitely/not/here.bel")).unwrap_err();
        assert!(matches!(err, GraphIoError::Io(_)));
    }
}
