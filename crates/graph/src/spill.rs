//! Out-of-core CSR storage: the `EASECSR1` spill file format.
//!
//! When a [`MemoryBudget`](crate::MemoryBudget) refuses to admit a CSR into
//! the heap — in the product, the triangle kernel's forward lists —
//! [`Csr::build_spilled`](crate::Csr::build_spilled) streams its simplified
//! lists into a temp file in this format, maps the file read-only, and
//! serves `neighbors()`/`degree()` straight out of the mapping.
//!
//! Layout (all integers little-endian, mirroring `.bel`):
//!
//! ```text
//! offset  0   "EASECSR1"                      8 bytes magic
//! offset  8   num_vertices                    u64
//! offset 16   num_entries                     u64 (patched on finish)
//! offset 24   offsets[0..=num_vertices]       (n+1) × u64
//! then        targets[0..num_entries]         num_entries × u32 (VertexId)
//! ```
//!
//! Offsets are u64 so a spilled CSR can exceed 4 G entries; targets are
//! stored at `VertexId` width (u32) so that on a little-endian host the
//! mapped region doubles as a `&[VertexId]` with **zero** decoding — the
//! header is 24 bytes and the offsets region is a multiple of 8, so the
//! targets region is always 4-aligned within a page-aligned mapping. A
//! big-endian host cannot serve the file that way, so its load is an
//! `InvalidData` error and the caller builds the lists in heap instead
//! (see `PreparedGraph::build_csr`).
//!
//! Hygiene: the writer unlinks the file immediately after mapping it
//! (`O_TMPFILE`-style), so even a SIGKILLed daemon cannot leak spill files
//! — the kernel reclaims the blocks when the mapping drops. Every error
//! path between create and finish is covered by a `SpillGuard` that
//! unlinks on drop.

// Daemon-reachable: a budgeted daemon builds CSRs through this module on the
// request path, so it is held panic-free (`#[cfg(test)]` code is exempt,
// see `clippy.toml`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::mmap::Mmap;
use crate::types::VertexId;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes identifying a CSR spill file.
pub const SPILL_MAGIC: [u8; 8] = *b"EASECSR1";

/// Header length: magic + num_vertices + num_entries.
pub const SPILL_HEADER_LEN: usize = 24;

/// Distinguishes spill files from concurrent processes and builds.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Read a little-endian u64 at `off`. Callers stay inside bounds that
/// [`MappedCsr::load`] validated once at open time.
#[inline]
fn read_u64_at(bytes: &[u8], off: usize) -> u64 {
    let mut raw = [0u8; 8];
    #[expect(clippy::indexing_slicing, reason = "bounds validated at open")]
    raw.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(raw)
}

fn targets_start(num_vertices: usize) -> u64 {
    SPILL_HEADER_LEN as u64 + (num_vertices as u64 + 1) * 8
}

/// Deletes the spill file on drop — arms at create, covers every early
/// return, and doubles as the deliberate unlink-after-mmap in `finish`.
struct SpillGuard {
    path: Option<PathBuf>,
}

impl SpillGuard {
    fn unlink(&mut self) {
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        self.unlink();
    }
}

/// Streaming writer for a CSR spill file: push one finished adjacency list
/// per vertex, in vertex order, then [`finish`](Self::finish) to map the
/// result back.
///
/// Two independent file handles write the offsets region and the targets
/// region concurrently, so neither the offsets (`(n+1) × 8` bytes) nor the
/// targets ever exist in heap as a whole.
pub struct SpillWriter {
    offsets: BufWriter<File>,
    targets: BufWriter<File>,
    guard: SpillGuard,
    num_vertices: usize,
    vertices_done: usize,
    entries: u64,
}

impl SpillWriter {
    /// Create a spill file in `dir` (created if missing) for a CSR over
    /// `num_vertices` vertices.
    pub fn create(dir: &Path, num_vertices: usize) -> io::Result<SpillWriter> {
        std::fs::create_dir_all(dir)?;
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
        let path = dir.join(format!("ease-spill-{}-{seq}.csr", std::process::id()));
        let mut head = File::options().read(true).write(true).create_new(true).open(&path)?;
        let guard = SpillGuard { path: Some(path.clone()) };
        head.write_all(&SPILL_MAGIC)?;
        head.write_all(&(num_vertices as u64).to_le_bytes())?;
        head.write_all(&0u64.to_le_bytes())?; // num_entries, patched in finish
        let mut offsets = BufWriter::new(head);
        offsets.write_all(&0u64.to_le_bytes())?; // offsets[0] is always 0
        let mut tail = File::options().write(true).open(&path)?;
        tail.seek(SeekFrom::Start(targets_start(num_vertices)))?;
        Ok(SpillWriter {
            offsets,
            targets: BufWriter::new(tail),
            guard,
            num_vertices,
            vertices_done: 0,
            entries: 0,
        })
    }

    /// Append the adjacency list of the next vertex (vertex
    /// `vertices_done`, in order).
    pub fn push_list(&mut self, list: &[VertexId]) -> io::Result<()> {
        if self.vertices_done >= self.num_vertices {
            return Err(invalid(format!(
                "spill writer: more vertex lists than the declared {} vertices",
                self.num_vertices
            )));
        }
        for &t in list {
            self.targets.write_all(&t.to_le_bytes())?;
        }
        self.entries += list.len() as u64;
        self.offsets.write_all(&self.entries.to_le_bytes())?;
        self.vertices_done += 1;
        Ok(())
    }

    /// Flush, patch the header, map the file read-only, and unlink it.
    pub fn finish(mut self) -> io::Result<MappedCsr> {
        if self.vertices_done != self.num_vertices {
            return Err(invalid(format!(
                "spill writer: {} of {} vertex lists written",
                self.vertices_done, self.num_vertices
            )));
        }
        self.targets.flush()?;
        self.offsets.flush()?;
        let mut head = self.offsets.into_inner().map_err(|e| e.into_error())?;
        head.seek(SeekFrom::Start(16))?;
        head.write_all(&self.entries.to_le_bytes())?;
        drop(head);
        drop(self.targets);
        let file = match &self.guard.path {
            Some(path) => File::open(path)?,
            None => return Err(invalid("spill writer: file already unlinked".into())),
        };
        let map = Mmap::map(&file)?;
        // unlink-after-mmap: the mapping stays valid and the kernel reclaims
        // the blocks when it drops, so a crashed process cannot leak spill
        // files that reached this point.
        self.guard.unlink();
        MappedCsr::load(map)
    }
}

/// A CSR served from a validated spill-file mapping.
///
/// All structural invariants — magic, exact file length, monotonic offsets
/// bounded by `num_entries`, a targets region this host can read as
/// `&[VertexId]` — are checked once in [`load`](Self::load); the accessors
/// then index without rechecking.
#[derive(Debug)]
pub struct MappedCsr {
    map: Mmap,
    num_vertices: usize,
    num_entries: usize,
    targets_off: usize,
}

impl MappedCsr {
    /// Validate a mapping as a spill file this host can serve zero-copy —
    /// a little-endian host and a 4-aligned targets region — else
    /// `InvalidData`.
    pub fn load(map: Mmap) -> io::Result<MappedCsr> {
        let bytes = map.as_slice();
        if bytes.len() < SPILL_HEADER_LEN || !bytes.starts_with(&SPILL_MAGIC) {
            return Err(invalid("not a CSR spill file (bad magic or truncated header)".into()));
        }
        let num_vertices = read_u64_at(bytes, 8);
        let num_entries = read_u64_at(bytes, 16);
        let expected =
            SPILL_HEADER_LEN as u128 + (num_vertices as u128 + 1) * 8 + num_entries as u128 * 4;
        if bytes.len() as u128 != expected {
            return Err(invalid(format!(
                "CSR spill file length {} does not match header (expected {expected})",
                bytes.len()
            )));
        }
        let num_vertices = usize::try_from(num_vertices)
            .map_err(|_| invalid("CSR spill vertex count overflows usize".into()))?;
        let num_entries = usize::try_from(num_entries)
            .map_err(|_| invalid("CSR spill entry count overflows usize".into()))?;
        let targets_off = SPILL_HEADER_LEN + (num_vertices + 1) * 8;
        if read_u64_at(bytes, SPILL_HEADER_LEN) != 0 {
            return Err(invalid("CSR spill offsets must start at 0".into()));
        }
        let mut prev = 0u64;
        for v in 0..=num_vertices {
            let off = read_u64_at(bytes, SPILL_HEADER_LEN + v * 8);
            if off < prev {
                return Err(invalid(format!("CSR spill offsets not monotonic at vertex {v}")));
            }
            prev = off;
        }
        if prev != num_entries as u64 {
            return Err(invalid(format!(
                "CSR spill final offset {prev} does not equal entry count {num_entries}"
            )));
        }
        let aligned = (bytes.as_ptr().wrapping_add(targets_off) as usize)
            .is_multiple_of(std::mem::align_of::<VertexId>());
        if !(cfg!(target_endian = "little") && aligned) {
            return Err(invalid(
                "CSR spill targets cannot be served zero-copy on this host".into(),
            ));
        }
        Ok(MappedCsr { map, num_vertices, num_entries, targets_off })
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    #[inline]
    fn offset(&self, v: usize) -> usize {
        read_u64_at(self.map.as_slice(), SPILL_HEADER_LEN + v * 8) as usize
    }

    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offset(v as usize + 1) - self.offset(v as usize)
    }

    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offset(v as usize);
        let hi = self.offset(v as usize + 1);
        let bytes = self.map.as_slice();
        // SAFETY: `load` validated the exact file length, that every offset
        // is monotonic and bounded by `num_entries`, and that the targets
        // region is 4-aligned on this (little-endian) host — so
        // `targets_off + 4*lo .. targets_off + 4*hi` is an in-bounds,
        // aligned span of plain `u32` data, valid for the lifetime of the
        // mapping that `&self` borrows.
        unsafe {
            let base = bytes.as_ptr().add(self.targets_off) as *const VertexId;
            std::slice::from_raw_parts(base.add(lo), hi - lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory per call: tests run on parallel threads and each
    /// removes its directory when done.
    fn dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let tag = NEXT.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
        let d = std::env::temp_dir().join(format!("ease_spill_unit_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mk spill dir");
        d
    }

    fn spill_files(d: &Path) -> usize {
        std::fs::read_dir(d).map(|rd| rd.count()).unwrap_or(0)
    }

    #[test]
    fn round_trips_lists_and_leaves_no_file_behind() {
        let d = dir();
        let lists: Vec<Vec<VertexId>> = vec![vec![1, 3, 7], vec![], vec![0, 2], vec![5]];
        let mut w = SpillWriter::create(&d, lists.len()).expect("create");
        assert_eq!(spill_files(&d), 1, "file exists while writing");
        for list in &lists {
            w.push_list(list).expect("push");
        }
        let m = w.finish().expect("finish");
        assert_eq!(spill_files(&d), 0, "unlinked after mmap");
        assert_eq!(m.num_vertices(), 4);
        assert_eq!(m.num_entries(), 6);
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(m.neighbors(v as VertexId), &list[..]);
            assert_eq!(m.degree(v as VertexId), list.len());
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_csr_spills_cleanly() {
        let d = dir();
        let w = SpillWriter::create(&d, 0).expect("create");
        let m = w.finish().expect("finish");
        assert_eq!((m.num_vertices(), m.num_entries()), (0, 0));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn wrong_list_count_is_a_typed_error_and_the_guard_unlinks() {
        let d = std::env::temp_dir().join(format!("ease_spill_guard_{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mk");
        {
            let mut w = SpillWriter::create(&d, 2).expect("create");
            w.push_list(&[1]).expect("push");
            let err = w.finish().expect_err("short list count must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        assert_eq!(spill_files(&d), 0, "guard removed the partial file");
        {
            let mut w = SpillWriter::create(&d, 1).expect("create");
            w.push_list(&[1]).expect("push");
            assert!(w.push_list(&[2]).is_err(), "extra list is refused");
        }
        assert_eq!(spill_files(&d), 0, "guard removed the abandoned file");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_files_are_rejected_with_typed_errors() {
        let d = dir();
        let path = d.join("corrupt.csr");
        // bad magic
        std::fs::write(&path, b"NOTACSR!........").expect("write");
        let map = Mmap::map(&File::open(&path).expect("open")).expect("map");
        assert!(MappedCsr::load(map).is_err());
        // good magic, impossible length
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SPILL_MAGIC);
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let map = Mmap::map(&File::open(&path).expect("open")).expect("map");
        assert!(MappedCsr::load(map).is_err());
        // non-monotonic offsets: [0, 5, 1] on 2 vertices, 1 entry
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SPILL_MAGIC);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let map = Mmap::map(&File::open(&path).expect("open")).expect("map");
        assert!(MappedCsr::load(map).is_err());
        std::fs::remove_dir_all(&d).ok();
    }

    /// Totality of the loader: every single-bit flip, every truncation and
    /// a one-byte extension of a small valid spill file either fails with
    /// `InvalidData` or loads a CSR whose every list lies inside its
    /// targets and whose degrees sum to its entry count — never a panic.
    #[test]
    fn every_corruption_is_rejected_or_loads_in_bounds() {
        let lists: [&[VertexId]; 5] = [&[1, 3], &[], &[0, 2, 4], &[4], &[0, 1]];
        let mut valid = Vec::new();
        valid.extend_from_slice(&SPILL_MAGIC);
        valid.extend_from_slice(&(lists.len() as u64).to_le_bytes());
        valid.extend_from_slice(&8u64.to_le_bytes());
        let mut end = 0u64;
        valid.extend_from_slice(&end.to_le_bytes());
        for list in lists {
            end += list.len() as u64;
            valid.extend_from_slice(&end.to_le_bytes());
        }
        for t in lists.concat() {
            valid.extend_from_slice(&t.to_le_bytes());
        }
        let d = dir();
        let path = d.join("totality.csr");
        // (lists, entries) a load of `bytes` serves, or the error's kind
        let load = |bytes: &[u8]| -> Result<(Vec<Vec<VertexId>>, usize), io::ErrorKind> {
            std::fs::write(&path, bytes).expect("write");
            let map = Mmap::map(&File::open(&path).expect("open")).expect("map");
            let m = MappedCsr::load(map).map_err(|e| e.kind())?;
            let served = (0..m.num_vertices() as VertexId).map(|v| {
                assert_eq!(m.neighbors(v).len(), m.degree(v));
                m.neighbors(v).to_vec()
            });
            Ok((served.collect(), m.num_entries()))
        };
        let check = |bytes: &[u8], what: &str| match load(bytes) {
            Ok((served, entries)) => {
                assert_eq!(served.iter().map(Vec::len).sum::<usize>(), entries, "{what}");
            }
            Err(kind) => assert_eq!(kind, io::ErrorKind::InvalidData, "{what}"),
        };
        assert_eq!(load(&valid), Ok((lists.map(<[VertexId]>::to_vec).to_vec(), 8)));
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("bit {bit} flipped"));
        }
        for len in 0..valid.len() {
            assert_eq!(load(&valid[..len]), Err(io::ErrorKind::InvalidData), "cut to {len} bytes");
        }
        let mut extended = valid.clone();
        extended.push(0);
        assert_eq!(load(&extended), Err(io::ErrorKind::InvalidData));
        std::fs::remove_dir_all(&d).ok();
    }
}
