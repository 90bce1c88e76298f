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
//! patched on [`BelWriter::finish`] — writers (the `ease gen`/`ease convert`
//! subcommands) do not need to know the edge count or vertex universe up
//! front, which is what makes generator-to-file streaming possible.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
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

/// Streaming `.bel` writer: edges go to the (buffered) file as they are
/// pushed; the header is patched with the final counts on `finish`.
#[derive(Debug)]
pub struct BelWriter {
    w: BufWriter<File>,
    edge_count: u64,
    max_endpoint: u64,
    any_edge: bool,
}

impl BelWriter {
    /// Create `path`, writing a placeholder header.
    pub fn create(path: &Path) -> io::Result<BelWriter> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        w.write_all(&BEL_MAGIC)?;
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        Ok(BelWriter { w, edge_count: 0, max_endpoint: 0, any_edge: false })
    }

    /// Append one edge.
    pub fn push(&mut self, e: Edge) -> io::Result<()> {
        self.w.write_all(&u64::from(e.src).to_le_bytes())?;
        self.w.write_all(&u64::from(e.dst).to_le_bytes())?;
        self.edge_count += 1;
        self.max_endpoint = self.max_endpoint.max(u64::from(e.src)).max(u64::from(e.dst));
        self.any_edge = true;
        Ok(())
    }

    /// Patch the header with the final counts and flush. The vertex
    /// universe is inferred as `max endpoint + 1` (0 for an empty stream).
    pub fn finish(self) -> io::Result<()> {
        let nv = if self.any_edge { self.max_endpoint + 1 } else { 0 };
        self.finish_with_vertices_u64(nv)
    }

    /// [`BelWriter::finish`] with an explicit vertex universe (must cover
    /// every pushed endpoint) — preserves isolated trailing vertices.
    pub fn finish_with_vertices(self, num_vertices: usize) -> io::Result<()> {
        assert!(
            !self.any_edge || (num_vertices as u64) > self.max_endpoint,
            "vertex universe {num_vertices} does not cover max endpoint {}",
            self.max_endpoint
        );
        self.finish_with_vertices_u64(num_vertices as u64)
    }

    fn finish_with_vertices_u64(mut self, num_vertices: u64) -> io::Result<()> {
        self.w.flush()?;
        let file = self.w.get_mut();
        file.seek(SeekFrom::Start(8))?;
        file.write_all(&num_vertices.to_le_bytes())?;
        file.write_all(&self.edge_count.to_le_bytes())?;
        file.flush()
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
    fn streaming_writer_infers_universe() {
        let path = temp("writer");
        let mut w = BelWriter::create(&path).unwrap();
        for e in [Edge::new(4, 2), Edge::new(0, 7)] {
            w.push(e).unwrap();
        }
        w.finish().unwrap();
        let src = BelSource::open(&path).unwrap();
        assert_eq!((GraphSource::num_vertices(&src), src.edge_count()), (8, 2));
        assert_eq!(collect_source(&src).edges(), &[Edge::new(4, 2), Edge::new(0, 7)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trips() {
        let path = temp("empty");
        BelWriter::create(&path).unwrap().finish().unwrap();
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
