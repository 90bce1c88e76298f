//! Edge-list text I/O.
//!
//! Format: one `src dst` pair per line, `#`/`%`-prefixed comment lines
//! ignored — the same whitespace-separated format used by SNAP/KONECT dumps,
//! so users can feed their own graphs to the examples.
//!
//! Every text reader ([`read_edge_list`], [`read_edge_list_from`] and the
//! streaming [`stream_edge_list`] they wrap) is a callback into one block
//! kernel, `scan_edge_list`: it reads any [`Read`] in one reusable 256 KiB
//! block (no per-line buffering, no `BufRead` needed) and splits the work in
//! three:
//!
//! * **lane probe** — a line of the exact shape `id SP id LF`, ids of 1..=8
//!   digits (what `write_edge_list` writes for any graph below 10^8
//!   vertices), is decoded from two 8-byte little-endian lanes: a mask finds
//!   each id's first non-digit, three multiply-shift steps convert the
//!   digits before it, and two byte checks confirm the space and the
//!   newline;
//! * **fast path** — a line of the shape `[ \t]*digits[ \t]+digits`, then
//!   nothing or a pure-ASCII tail that starts with a blank or `\r` (trailing
//!   blanks, the CR of a CRLF, KONECT weight/timestamp columns), then `\n`,
//!   with at most 10 digits per id that fit a `u32`, is decoded in one scan,
//!   an id's first 8 digits by lane and any 9th and 10th byte by byte. A line
//!   the probe misses carries on here from what the probe read, so no byte
//!   of it is scanned twice;
//! * **slow path** — *every other line* (blank, comment, `# vertices N`,
//!   `+5`, 11+ digits, Unicode whitespace, a non-ASCII byte anywhere, an
//!   unterminated last line, anything malformed) is UTF-8-validated and handed
//!   to [`parse_edge_line`] / [`parse_universe_comment`] with its 1-based
//!   line number.
//!
//! The probe and the fast path accept a strict subset of what
//! [`parse_edge_line`] accepts and decode it to the same edge, so
//! [`parse_edge_line`] stays the one definition of the accepted language and
//! of every error.
//!
//! A line may be at most 1 MiB long, counting its `\n` (an unterminated
//! last line counts one too): the buffer grows for a line longer than a
//! block, once, to that size, and a line that does not fit is a
//! [`GraphIoError::Parse`]. Input with no newline (a device, a
//! binary file read as text) costs one such buffer, not memory without
//! bound.
//!
//! Parsing failures are typed: [`GraphIoError::Parse`] carries the 1-based
//! line number and a description of the offending token (at most its first
//! 64 bytes), so callers (the `ease` CLI, `EaseError::Parse`) can point users
//! at the broken line instead of panicking.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::edge_list::Graph;
use crate::types::Edge;

/// Typed edge-list I/O failure.
#[derive(Debug)]
pub enum GraphIoError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line could not be parsed; `line` is 1-based.
    Parse { line: usize, message: String },
    /// The file is structurally invalid: bad magic / truncated payload /
    /// out-of-range endpoint in a `.bel`, or an out-of-bounds declared
    /// universe in a text summary comment.
    Format(String),
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "edge-list I/O error: {e}"),
            GraphIoError::Parse { line, message } => {
                write!(f, "malformed edge-list line {line}: {message}")
            }
            GraphIoError::Format(message) => write!(f, "malformed graph file: {message}"),
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphIoError::Io(e) => Some(e),
            GraphIoError::Parse { .. } | GraphIoError::Format(_) => None,
        }
    }
}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

/// Read a graph from a whitespace-separated edge-list file.
pub fn read_edge_list(path: &Path) -> Result<Graph, GraphIoError> {
    read_edge_list_from(File::open(path)?)
}

/// Parse a `# vertices N ...` summary comment (written by
/// [`write_edge_list`] and [`TextEdgeListWriter`]). Text has no binary
/// header, so this comment is how a text edge list carries an explicit
/// vertex universe — readers take `max(declared, max endpoint + 1)`,
/// preserving isolated trailing vertices across text round trips.
pub fn parse_universe_comment(line: &str) -> Option<usize> {
    let mut it = line.split_whitespace();
    if it.next() != Some("#") || it.next() != Some("vertices") {
        return None;
    }
    it.next()?.parse().ok()
}

/// Bound a declared universe to the `u32` id space — untrusted input must
/// not be able to drive `vec![0; n]` allocations into an OOM abort with a
/// one-line comment (the binary reader enforces the same bound).
pub(crate) fn check_declared_universe(declared: usize) -> Result<(), GraphIoError> {
    if declared as u64 > u32::MAX as u64 + 1 {
        return Err(GraphIoError::Format(format!(
            "declared vertex universe {declared} exceeds the u32 id space"
        )));
    }
    Ok(())
}

/// Parse one edge-list line. Returns `Ok(None)` for blank/comment lines;
/// `lineno` is 1-based and only used for error reporting. The block
/// kernel's slow path, and the authority on what a line means.
pub fn parse_edge_line(line: &str, lineno: usize) -> Result<Option<Edge>, GraphIoError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let mut parse = |what: &str| -> Result<u32, GraphIoError> {
        let tok = it.next().ok_or_else(|| GraphIoError::Parse {
            line: lineno,
            message: format!("missing {what} vertex id"),
        })?;
        tok.parse::<u32>().map_err(|_| GraphIoError::Parse {
            line: lineno,
            message: format!("{what} vertex id {} is not a u32", echo_token(tok)),
        })
    };
    let src = parse("source")?;
    let dst = parse("destination")?;
    Ok(Some(Edge::new(src, dst)))
}

/// The longest token an error message quotes, in bytes.
const ECHO_BYTES: usize = 64;

/// `tok` in backticks for an error message: whole when it is at most
/// [`ECHO_BYTES`] long, else its longest prefix that fits and ends on a char
/// boundary, followed by its length.
fn echo_token(tok: &str) -> String {
    if tok.len() <= ECHO_BYTES {
        return format!("`{tok}`");
    }
    let cut = (0..=ECHO_BYTES).rev().find(|&at| tok.is_char_boundary(at)).unwrap_or(0);
    format!("`{}...` ({} bytes)", &tok[..cut], tok.len())
}

/// Bytes the kernel asks the reader for at a time. One buffer of this size
/// is the kernel's whole heap footprint unless a single line is longer.
/// Measured on `ease-bench cold-text-sparse`: 256 KiB reads as fast as
/// 1 MiB and, unlike it, leaves the process's peak RSS where it was.
const BLOCK_BYTES: usize = 1 << 18;

/// The longest line the kernel reads, `\n` included: four blocks. A longer
/// one is a [`GraphIoError::Parse`] as soon as the buffer is full of it, so
/// input without newlines (`/dev/zero`, a binary file read as text) costs
/// one buffer of this size, not memory without bound.
const MAX_LINE_BYTES: usize = 4 * BLOCK_BYTES;

/// What the kernel found on a line (lines that carry neither are skipped).
enum TextItem {
    Edge(Edge),
    /// A `# vertices N` summary comment, `N` not yet bounds-checked.
    DeclaredUniverse(usize),
}

/// The one text-parsing loop of the crate: read `reader` to its end in
/// [`BLOCK_BYTES`] blocks and hand every edge and universe declaration to
/// `on_item` in file order, until it fails. The partial last line of a
/// block is carried over to the next; the buffer only grows for a line
/// longer than a block, once, to [`MAX_LINE_BYTES`]. See the module docs
/// for the fast-path / slow-path contract.
fn scan_edge_list<R: Read>(
    mut reader: R,
    mut on_item: impl FnMut(TextItem) -> Result<(), GraphIoError>,
) -> Result<(), GraphIoError> {
    let mut buf = vec![0u8; BLOCK_BYTES];
    let mut len = 0usize; // buf[..len]: the carried partial line, then fresh bytes
    let mut lineno = 0usize;
    loop {
        if len == buf.len() {
            // the buffer holds one partial line and nothing else
            if len == MAX_LINE_BYTES {
                return Err(GraphIoError::Parse {
                    line: lineno + 1,
                    message: "line is longer than 1 MiB".into(),
                });
            }
            buf.resize(MAX_LINE_BYTES, 0);
        }
        let n = match reader.read(&mut buf[len..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        len += n;
        let eof = n == 0;
        // the carry holds no newline, so whole lines end at the last fresh
        // one; at end of input an unterminated tail is a line too
        let whole = if eof {
            len
        } else {
            match buf[len - n..len].iter().rposition(|&b| b == b'\n') {
                Some(at) => len - n + at + 1,
                None => continue,
            }
        };
        let mut rest = &buf[..whole];
        while !rest.is_empty() {
            lineno += 1;
            let (item, used) = match match_plain_edge(rest) {
                Some((e, used)) => (Some(TextItem::Edge(e)), used),
                None => {
                    let used =
                        rest.iter().position(|&b| b == b'\n').map_or(rest.len(), |at| at + 1);
                    (parse_irregular_line(&rest[..used], lineno)?, used)
                }
            };
            if let Some(item) = item {
                on_item(item)?;
            }
            rest = &rest[used..];
        }
        if eof {
            return Ok(());
        }
        buf.copy_within(whole..len, 0);
        len -= whole;
    }
}

/// The longest line of the lane probe's shape: two 8-digit ids, a space
/// and a newline.
const PROBE_BYTES: usize = 18;

/// The fast path: if `bytes` starts with a `\n`-terminated line of the
/// module docs' plain shape, its edge and its length including the `\n`.
/// `None` sends the line to [`parse_irregular_line`], which is always right.
///
/// The lane probe goes first: `id SP id LF` with ids of at most 8 digits
/// is two lane reads and two byte checks. A line it misses carries on from
/// what the probe read, so no byte is scanned twice.
#[inline]
fn match_plain_edge(bytes: &[u8]) -> Option<(Edge, usize)> {
    let (src, end) = match bytes.first_chunk::<PROBE_BYTES>() {
        Some(head) if head[0].is_ascii_digit() => {
            let (src, digits) = lane_decimal(lane(head, 0));
            if head[digits] == b' ' {
                let (dst, dst_digits) = lane_decimal(lane(head, digits + 1));
                let end = digits + 1 + dst_digits;
                if dst_digits > 0 {
                    if head[end] == b'\n' {
                        return Some((Edge::new(src as u32, dst as u32), end + 1));
                    }
                    let (dst, end) = finish_decimal_u32(bytes, digits + 1, dst, end)?;
                    return match_edge_tail(bytes, Edge::new(src as u32, dst), end);
                }
            }
            finish_decimal_u32(bytes, 0, src, digits)?
        }
        _ => match_decimal_u32(bytes, skip_blanks(bytes, 0))?,
    };
    // a digit run is maximal, so a second one implies a blank in between
    let (dst, end) = match_decimal_u32(bytes, skip_blanks(bytes, end))?;
    match_edge_tail(bytes, Edge::new(src, dst), end)
}

/// The index of the first byte at or after `at` that is not a blank.
#[inline]
fn skip_blanks(bytes: &[u8], mut at: usize) -> usize {
    while matches!(bytes.get(at), Some(b' ' | b'\t')) {
        at += 1;
    }
    at
}

/// The end of a fast-path line whose second id ends at `bytes[end]`.
/// What follows that id is ignored once it is known to start with
/// whitespace and to be ASCII up to the newline: `str::split_whitespace`
/// would cut the token there too, and ASCII cannot fail UTF-8 validation.
#[inline]
fn match_edge_tail(bytes: &[u8], edge: Edge, end: usize) -> Option<(Edge, usize)> {
    if !matches!(bytes.get(end), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        return None;
    }
    let mut at = end;
    loop {
        match *bytes.get(at)? {
            b'\n' => return Some((edge, at + 1)),
            0x80.. => return None,
            _ => at += 1,
        }
    }
}

/// The 8 bytes at `head[at..]` as a little-endian lane (`at` is at most 9,
/// which the probe's digit counts guarantee).
#[inline]
fn lane(head: &[u8; PROBE_BYTES], at: usize) -> u64 {
    let mut lane = [0u8; 8];
    lane.copy_from_slice(&head[at..at + 8]);
    u64::from_le_bytes(lane)
}

/// The digits a lane starts with: their value and how many there are
/// (0..=8). A byte is a digit when it is `0x30..=0x39`, i.e. when `t`, the
/// lane XOR `'0'`, holds a value below 10 there; `t + 0x76` sets a byte's
/// top bit exactly when that value is 10..=0x89, `t` itself when it is
/// 0x80 or more. A carry out of a non-digit byte only reaches bytes after
/// it, so the lowest flagged byte is the first non-digit.
#[inline]
fn lane_decimal(lane: u64) -> (u64, usize) {
    const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);
    let t = lane ^ ZEROS;
    let non_digit = (t.wrapping_add(0x7676_7676_7676_7676) | t) & 0x8080_8080_8080_8080;
    let digits = non_digit.trailing_zeros() / 8;
    // the digits move to the lane's top bytes; the zero bytes shifted in
    // below them read as leading zeros
    let t = t.checked_shl(64 - 8 * digits).unwrap_or(0);
    // pairs, then quadruples, then the eight: three multiply-shift steps
    let t = (t * 10 + (t >> 8)) & 0x00FF_00FF_00FF_00FF;
    let t = (t * 100 + (t >> 16)) & 0x0000_FFFF_0000_FFFF;
    let value = (t * 10_000 + (t >> 32)) & 0xFFFF_FFFF;
    (value, digits as usize)
}

/// A run of 1..=10 ASCII digits at `bytes[at..]` that fits a `u32`: its
/// value and the index just past it. Longer runs (leading zeros, overflow)
/// are the slow path's business.
#[inline]
fn match_decimal_u32(bytes: &[u8], at: usize) -> Option<(u32, usize)> {
    let (value, digits) = match bytes.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        Some(lane) => lane_decimal(u64::from_le_bytes(*lane)),
        None => (0, 0),
    };
    finish_decimal_u32(bytes, at, value, at + digits)
}

/// [`match_decimal_u32`] for a run that starts at `at` and is known up to
/// `end`, where it is worth `value`: the rest of it one byte at a time.
#[inline]
fn finish_decimal_u32(
    bytes: &[u8],
    at: usize,
    mut value: u64,
    mut end: usize,
) -> Option<(u32, usize)> {
    while let Some(digit) = bytes.get(end).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        if end - at == 10 {
            return None;
        }
        value = value * 10 + u64::from(digit);
        end += 1;
    }
    if end == at {
        return None;
    }
    Some((u32::try_from(value).ok()?, end))
}

/// The slow path: exactly what the line-at-a-time reader did with a line —
/// UTF-8 validation (a failure is the same `InvalidData` I/O error
/// `BufRead` lines gave), then [`parse_edge_line`], then
/// [`parse_universe_comment`] on whatever was not an edge.
fn parse_irregular_line(line: &[u8], lineno: usize) -> Result<Option<TextItem>, GraphIoError> {
    let line = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    Ok(match parse_edge_line(line, lineno)? {
        Some(e) => Some(TextItem::Edge(e)),
        None => parse_universe_comment(line).map(TextItem::DeclaredUniverse),
    })
}

/// Stream a whole text edge list through `on_edge`, in file order, in
/// constant memory (one block, see the module docs), and return its vertex
/// universe — `max(declared, max endpoint + 1)` over every `# vertices N`
/// summary comment (anywhere in the file). On an error, `on_edge` has seen
/// the edges before the offending line.
pub fn stream_edge_list<R: Read>(
    reader: R,
    mut on_edge: impl FnMut(Edge),
) -> Result<usize, GraphIoError> {
    let mut inferred = 0usize;
    let mut declared = 0usize;
    scan_edge_list(reader, |item| {
        match item {
            TextItem::Edge(e) => {
                inferred = inferred.max(e.src.max(e.dst) as usize + 1);
                on_edge(e);
            }
            TextItem::DeclaredUniverse(n) => {
                check_declared_universe(n)?;
                declared = declared.max(n);
            }
        }
        Ok(())
    })?;
    Ok(inferred.max(declared))
}

/// Read a graph from any reader (useful for tests / stdin); the kernel
/// does its own block buffering, so a bare `File` is the right argument.
/// A `# vertices N` summary comment (anywhere in the file) declares an
/// explicit universe; the result covers `max(declared, max endpoint + 1)`.
pub fn read_edge_list_from<R: Read>(reader: R) -> Result<Graph, GraphIoError> {
    let mut edges: Vec<Edge> = Vec::new();
    let num_vertices = stream_edge_list(reader, |e| edges.push(e))?;
    Ok(Graph::new(num_vertices, edges))
}

/// Write a graph as a whitespace-separated edge list.
pub fn write_edge_list(graph: &Graph, path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# vertices {} edges {}", graph.num_vertices(), graph.num_edges())?;
    for &e in graph.edges() {
        write_edge_line(&mut w, e)?;
    }
    w.flush()
}

/// `"{src} {dst}\n"` through a stack buffer — `core::fmt` costs more per
/// edge than the buffered write it feeds.
fn write_edge_line(w: &mut impl Write, e: Edge) -> io::Result<()> {
    // two ids of at most 10 digits, a space and a newline
    let mut line = [0u8; 22];
    let mut at = line.len() - 1;
    line[at] = b'\n';
    at = put_decimal(&mut line, at, e.dst);
    at -= 1;
    line[at] = b' ';
    at = put_decimal(&mut line, at, e.src);
    w.write_all(&line[at..])
}

/// Lay `value`'s decimal digits down so they end just before `buf[end]`;
/// the index of the first one.
fn put_decimal(buf: &mut [u8], end: usize, mut value: u32) -> usize {
    let mut at = end;
    loop {
        at -= 1;
        buf[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            return at;
        }
    }
}

/// Streaming text edge-list writer: edges go to the (buffered) file as
/// they are pushed, so generators can pipe straight to disk without
/// materializing an edge list. The summary comment goes at the *end* of
/// the file — text cannot seek-patch a variable-length header — and
/// readers skip comments wherever they appear.
#[derive(Debug)]
pub struct TextEdgeListWriter {
    w: BufWriter<File>,
    edge_count: usize,
    max_endpoint: u32,
}

impl TextEdgeListWriter {
    pub fn create(path: &Path) -> io::Result<TextEdgeListWriter> {
        let file = File::create(path)?;
        Ok(TextEdgeListWriter { w: BufWriter::new(file), edge_count: 0, max_endpoint: 0 })
    }

    /// Append one edge.
    pub fn push(&mut self, e: Edge) -> io::Result<()> {
        write_edge_line(&mut self.w, e)?;
        self.edge_count += 1;
        self.max_endpoint = self.max_endpoint.max(e.src).max(e.dst);
        Ok(())
    }

    /// Write the trailing summary comment with the vertex universe, which
    /// must cover every pushed endpoint, and flush. Readers honour the
    /// comment, so isolated trailing vertices survive text round trips.
    pub fn finish_with_vertices(mut self, num_vertices: usize) -> io::Result<()> {
        assert!(
            self.edge_count == 0 || num_vertices > self.max_endpoint as usize,
            "vertex universe {num_vertices} does not cover max endpoint {}",
            self.max_endpoint
        );
        writeln!(self.w, "# vertices {num_vertices} edges {}", self.edge_count)?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_with_comments_and_blanks() {
        let input = "# header\n0 1\n\n% konect style\n1 2\n 2 0 \n";
        let g = read_edge_list_from(Cursor::new(input)).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let input = "0 1\nnot numbers\n";
        let err = read_edge_list_from(Cursor::new(input)).unwrap_err();
        match err {
            GraphIoError::Parse { line, ref message } => {
                assert_eq!(line, 2);
                assert!(message.contains("`not`"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn missing_second_column_is_an_error() {
        let err = read_edge_list_from(Cursor::new("42\n")).unwrap_err();
        match err {
            GraphIoError::Parse { line, ref message } => {
                assert_eq!(line, 1);
                assert!(message.contains("destination"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn negative_ids_are_rejected_with_the_token() {
        let err = read_edge_list_from(Cursor::new("0 1\n2 -3\n")).unwrap_err();
        match err {
            GraphIoError::Parse { line, ref message } => {
                assert_eq!(line, 2);
                assert!(message.contains("`-3`"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn ids_beyond_u32_are_rejected() {
        let input = format!("0 {}\n", u64::from(u32::MAX) + 1);
        let err = read_edge_list_from(Cursor::new(input)).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn float_ids_are_rejected() {
        let err = read_edge_list_from(Cursor::new("1.5 2\n")).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn parse_error_on_a_late_line_after_valid_prefix() {
        let input = "0 1\n1 2\n2 3\n3 4\nbroken line here\n";
        let err = read_edge_list_from(Cursor::new(input)).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 5, .. }), "{err:?}");
    }

    #[test]
    fn round_trip_through_tempfile() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ease_graph_io_test_{}.txt", std::process::id()));
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g.edges(), g2.edges());
        assert_eq!(g.num_vertices(), g2.num_vertices());
    }

    #[test]
    fn declared_universe_survives_text_round_trips() {
        // write_edge_list declares the universe in its header comment;
        // readers must honour it even when trailing vertices are isolated
        let g = Graph::new(10, vec![Edge::new(0, 1)]);
        let path =
            std::env::temp_dir().join(format!("ease_universe_rt_{}.txt", std::process::id()));
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path).unwrap();
        assert_eq!(back.num_vertices(), 10);
        assert_eq!(back.num_edges(), 1);
        std::fs::remove_file(&path).ok();
        // the streaming writer's explicit-universe finish does the same
        let mut w = TextEdgeListWriter::create(&path).unwrap();
        w.push(Edge::new(0, 1)).unwrap();
        w.finish_with_vertices(10).unwrap();
        assert_eq!(read_edge_list(&path).unwrap().num_vertices(), 10);
        std::fs::remove_file(&path).ok();
        // a stale/smaller declaration never shrinks the inferred universe
        assert_eq!(
            read_edge_list_from(Cursor::new("# vertices 2 edges 1\n0 7\n")).unwrap().num_vertices(),
            8
        );
        // unrelated comments are not declarations
        assert!(parse_universe_comment("# vertices").is_none());
        assert!(parse_universe_comment("# verticesish 9").is_none());
        assert_eq!(parse_universe_comment("  # vertices 42 edges 7"), Some(42));
        // a declaration outside the u32 id space is a typed error, not an
        // invitation to allocate petabyte-scale degree tables
        let err = read_edge_list_from(Cursor::new("# vertices 99999999999999\n0 1\n")).unwrap_err();
        assert!(matches!(err, GraphIoError::Format(_)), "{err:?}");
    }

    #[test]
    fn streaming_text_writer_round_trips() {
        let path =
            std::env::temp_dir().join(format!("ease_text_writer_{}.txt", std::process::id()));
        let mut w = TextEdgeListWriter::create(&path).unwrap();
        for e in [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)] {
            w.push(e).unwrap();
        }
        w.finish_with_vertices(3).unwrap();
        let g = read_edge_list(&path).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 3);
        // the summary comment is present (and trailing)
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_end().ends_with("# vertices 3 edges 3"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    /// A reader that hands out at most `chunk` bytes per call, answers
    /// every third call with `Interrupted`, and (when `fail_after` is set)
    /// dies for good once that many bytes are out.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
        calls: usize,
        fail_after: Option<usize>,
    }

    impl<'a> Trickle<'a> {
        fn new(data: &'a [u8], chunk: usize) -> Self {
            Trickle { data, chunk, calls: 0, fail_after: None }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut n = self.chunk.min(buf.len()).min(self.data.len());
            if let Some(left) = &mut self.fail_after {
                if *left == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "disk on fire"));
                }
                n = n.min(*left);
                *left -= n;
            }
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// `lines` edges in every spelling the kernel distinguishes (plain,
    /// padded, CRLF, KONECT columns, `+`/leading-zero ids that only the slow
    /// path takes) between comments and blanks, a universe declaration at
    /// the end and no final newline — with the graph it must read as.
    fn mixed_edge_list(lines: u32) -> (Vec<u8>, Graph) {
        let mut text = String::from("% KONECT-style header\n# a comment\n\n");
        let mut edges = Vec::new();
        for i in 0..lines {
            let (src, dst) = (i % 1000, i.wrapping_mul(7) % 1013);
            edges.push(Edge::new(src, dst));
            text.push_str(&match i % 7 {
                0 => format!("{src} {dst}\n"),
                1 => format!("  {src}\t\t{dst} \t\n"),
                2 => format!("{src} {dst}\r\n"),
                3 => format!("{src}\t{dst}\t0.5\t1200000000\r\n"),
                4 => format!("+{src} 000000000{dst}\n"),
                5 => format!("{src}\u{a0}{dst}\n# between edges\n"),
                _ => format!("{src} {dst} caf\u{e9}\n\n"),
            });
        }
        text.push_str("# vertices 2000 edges whatever");
        (text.into_bytes(), Graph::new(2000, edges))
    }

    #[test]
    fn every_read_granularity_gives_the_same_graph() {
        let (text, want) = mixed_edge_list(500);
        assert_eq!(read_edge_list_from(Cursor::new(&text)).unwrap(), want);
        for chunk in [1, 2, 3, 7] {
            assert_eq!(read_edge_list_from(Trickle::new(&text, chunk)).unwrap(), want, "{chunk}");
        }
        // several blocks' worth, every block boundary inside a line
        let (text, want) = mixed_edge_list(100_000);
        assert!(text.len() > 3 * BLOCK_BYTES);
        assert_eq!(read_edge_list_from(Cursor::new(&text)).unwrap(), want);
        let short = Trickle::new(&text, BLOCK_BYTES - 1);
        assert_eq!(read_edge_list_from(short).unwrap(), want);
    }

    #[test]
    fn a_line_longer_than_a_block_grows_the_buffer() {
        let mut text = b"0 1\n#".to_vec();
        text.resize(text.len() + 2 * BLOCK_BYTES + 17, b'x');
        text.extend_from_slice(b"\n");
        text.resize(text.len() + BLOCK_BYTES + 5, b' ');
        text.extend_from_slice(b"1 2\n2 0\nbroken\n");
        // the line numbers after the long lines are still right
        for reader in [Trickle::new(&text, usize::MAX), Trickle::new(&text, BLOCK_BYTES - 1)] {
            let err = read_edge_list_from(reader).unwrap_err();
            assert!(matches!(err, GraphIoError::Parse { line: 5, .. }), "{err:?}");
        }
        text.truncate(text.len() - "broken\n".len());
        let g = read_edge_list_from(Trickle::new(&text, 7 * BLOCK_BYTES / 8)).unwrap();
        assert_eq!(g, Graph::from_pairs([(0, 1), (1, 2), (2, 0)]));
    }

    /// Lines the lane probe decodes (8 digits fill a lane, 7 leave the
    /// separator in it) and lines it hands on (9 and 10 digits), each read
    /// with every first-read length, so every line is cut at every offset
    /// by some read.
    #[test]
    fn probe_lines_cut_at_every_offset_read_alike() {
        for (line, src, dst) in [
            ("12345678 87654321\n", 12_345_678, 87_654_321),
            ("1234567 7654321\n", 1_234_567, 7_654_321),
            ("00000000 0000000\n", 0, 0),
            ("7 12345678\n", 7, 12_345_678),
            ("12345678 7\n", 12_345_678, 7),
            ("123456789 5\n", 123_456_789, 5),
            ("5 4294967295\n", 5, u32::MAX),
        ] {
            let text = line.repeat(3);
            let want = Graph::from_pairs([(src, dst); 3]);
            for chunk in 1..=text.len() {
                let got = read_edge_list_from(Trickle::new(text.as_bytes(), chunk));
                assert_eq!(got.unwrap(), want, "{line:?} in reads of {chunk}");
            }
        }
    }

    /// Every byte value at every lane position, after digits and before
    /// more bytes of every kind: the lane's digit count and value are the
    /// byte loop's.
    #[test]
    fn lane_decimal_is_the_byte_loop() {
        let naive = |lane: &[u8; 8]| {
            let digits = lane.iter().take_while(|b| b.is_ascii_digit()).count();
            let value = lane[..digits].iter().fold(0u64, |v, b| v * 10 + u64::from(b - b'0'));
            (value, digits)
        };
        for at in 0..8 {
            for byte in 0..=u8::MAX {
                for after in [b'9', b'0', b' ', 0xff, 0x80, b':', b'/'] {
                    let mut lane = [after; 8];
                    lane[..at].copy_from_slice(&b"98765432"[..at]);
                    lane[at] = byte;
                    assert_eq!(lane_decimal(u64::from_le_bytes(lane)), naive(&lane), "{lane:?}");
                }
            }
        }
    }

    /// The same lines as the last line of the input, without a newline:
    /// the slow path's business, with the same edge.
    #[test]
    fn an_unterminated_probe_line_is_still_an_edge() {
        for (line, src, dst) in [("12345678 87654321", 12_345_678, 87_654_321), ("7 3", 7, 3)] {
            for text in [line.to_string(), format!("0 1\n{line}"), format!("{line}\n{line}")] {
                let g = read_edge_list_from(Cursor::new(&text)).unwrap();
                assert_eq!(g.edges().last(), Some(&Edge::new(src, dst)), "{text:?}");
            }
        }
    }

    #[test]
    fn a_line_of_the_longest_length_is_read_and_one_byte_more_is_an_error() {
        let line = |len: usize| {
            let mut text = b"0 1\n#".to_vec();
            text.resize(text.len() + len - 2, b'x');
            text.extend_from_slice(b"\n1 2\n");
            text
        };
        let g = read_edge_list_from(Cursor::new(line(MAX_LINE_BYTES))).unwrap();
        assert_eq!(g, Graph::from_pairs([(0, 1), (1, 2)]));
        for text in
            [line(MAX_LINE_BYTES + 1), line(MAX_LINE_BYTES + 1)[..MAX_LINE_BYTES + 4].to_vec()]
        {
            match read_edge_list_from(Trickle::new(&text, BLOCK_BYTES - 1)).unwrap_err() {
                GraphIoError::Parse { line: 2, message } => {
                    assert_eq!(message, "line is longer than 1 MiB")
                }
                other => panic!("expected a Parse error on line 2, got {other:?}"),
            }
        }
    }

    /// Input with no newline at all stops at the cap, whatever its length.
    #[test]
    fn endless_input_without_a_newline_is_an_error() {
        let err = read_edge_list_from(io::repeat(0).take(64 << 20)).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 1, .. }), "{err:?}");
        assert!(err.to_string().contains("longer than 1 MiB"), "{err}");
    }

    #[test]
    fn error_messages_quote_at_most_64_bytes_of_a_token() {
        let quoted = |text: &str| match read_edge_list_from(Cursor::new(text)).unwrap_err() {
            GraphIoError::Parse { message, .. } => message,
            other => panic!("expected a Parse error, got {other:?}"),
        };
        let short = "x".repeat(ECHO_BYTES);
        assert_eq!(
            quoted(&format!("{short} 1\n")),
            format!("source vertex id `{short}` is not a u32")
        );
        let long = "y".repeat(100);
        assert_eq!(
            quoted(&format!("0 {long}\n")),
            format!("destination vertex id `{}...` (100 bytes) is not a u32", &long[..ECHO_BYTES])
        );
        // byte 64 falls inside a two-byte char, so the quote stops before it
        let accented = format!("a{}", "\u{e9}".repeat(40));
        assert_eq!(
            quoted(&format!("{accented} 1\n")),
            format!("source vertex id `{}...` (81 bytes) is not a u32", &accented[..63])
        );
    }

    #[test]
    fn a_reader_failing_mid_file_is_an_io_error_not_a_partial_graph() {
        let (text, _) = mixed_edge_list(100_000);
        for fail_after in [0, 5, BLOCK_BYTES + 3, text.len() - 1] {
            let mut reader = Trickle::new(&text, BLOCK_BYTES / 2);
            reader.fail_after = Some(fail_after);
            match read_edge_list_from(reader) {
                Err(GraphIoError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
                other => panic!("expected the reader's error, got {other:?}"),
            }
        }
    }

    /// On the slow path, in a fast-path line's ignored tail, and glued to
    /// an id: the `InvalidData` I/O error `BufRead` lines gave.
    #[test]
    fn bytes_that_are_not_utf8_are_still_an_invalid_data_error() {
        for text in [&b"0 1\n\xff 2\n"[..], b"0 1\n1 2 \xff\n", b"0 1\n1 2\xa0\n"] {
            match read_edge_list_from(Cursor::new(text)) {
                Err(GraphIoError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                other => panic!("expected InvalidData, got {other:?}"),
            }
        }
    }

    #[test]
    fn written_lines_are_what_core_fmt_wrote() {
        let ids = [0, 1, 9, 10, 99, 100, 4_294_967_294, u32::MAX];
        for src in ids {
            for dst in ids {
                let mut line = Vec::new();
                write_edge_line(&mut line, Edge::new(src, dst)).unwrap();
                assert_eq!(String::from_utf8(line).unwrap(), format!("{src} {dst}\n"));
            }
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_edge_list(Path::new("/definitely/not/a/file.txt")).unwrap_err();
        assert!(matches!(err, GraphIoError::Io(_)), "{err:?}");
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list_from(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
