//! Out-of-core CSR storage: the `EASECSR1` spill file format.
//!
//! When a [`MemoryBudget`](crate::MemoryBudget) refuses to admit a CSR into
//! the heap, [`Csr::build_spilled`](crate::Csr::build_spilled) streams it
//! into a temp file in this format, maps the file read-only, and serves
//! `neighbors()`/`degree()` straight out of the mapping.
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
//! targets region is always 4-aligned within a page-aligned mapping. On a
//! big-endian host (or the non-unix `Mmap` fallback, which cannot promise
//! alignment) the loader decodes into heap vectors instead; both shapes are
//! bit-identical to every reader.
//!
//! Hygiene: the writer unlinks the file immediately after mapping it
//! (`O_TMPFILE`-style), so even a SIGKILLed daemon cannot leak spill files
//! — the kernel reclaims the blocks when the mapping drops. Every error
//! path between create and finish is covered by a `SpillGuard` that
//! unlinks on drop.

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
    raw.copy_from_slice(&bytes[off..off + 8]); // lint: panic-ok(bounds validated at open)
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

/// Streaming writer for a CSR spill file: push one finished (already
/// sorted/deduplicated, if desired) adjacency list per vertex, in vertex
/// order, then [`finish`](Self::finish) to map the result back.
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
    pub fn finish(mut self) -> io::Result<LoadedCsr> {
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
        // unlink-after-mmap: on unix the mapping stays valid and the kernel
        // reclaims the blocks when it drops; the non-unix Mmap fallback
        // copied the bytes, so removal is equally safe there. Either way a
        // crashed process cannot leak spill files that reached this point.
        self.guard.unlink();
        MappedCsr::load(map)
    }
}

/// A CSR served from a validated spill-file mapping.
///
/// All structural invariants — magic, exact file length, monotonic offsets
/// bounded by `num_entries` — are checked once in [`load`](Self::load);
/// the accessors then index without rechecking.
#[derive(Debug)]
pub struct MappedCsr {
    map: Mmap,
    num_vertices: usize,
    num_entries: usize,
    targets_off: usize,
    /// Whether `neighbors()` may hand out `&[VertexId]` straight into the
    /// mapping: little-endian host *and* 4-aligned targets region.
    zero_copy: bool,
}

/// What a finished spill loads as: the mmap-backed form, or — when the
/// platform cannot serve the mapping zero-copy (big-endian, or the
/// non-unix read-into-heap `Mmap` fallback landing misaligned) — plain
/// heap vectors decoded from the same bytes. Both are bit-identical to
/// every reader; `Csr` wraps whichever comes back.
#[derive(Debug)]
pub enum LoadedCsr {
    Mapped(MappedCsr),
    Heap { offsets: Vec<usize>, targets: Vec<VertexId> },
}

impl MappedCsr {
    /// Validate a mapping as a spill file; decode to heap when zero-copy
    /// access is impossible on this platform.
    pub fn load(map: Mmap) -> io::Result<LoadedCsr> {
        let bytes = map.as_slice();
        // lint: panic-ok(len >= SPILL_HEADER_LEN >= 8 short-circuits before the index)
        if bytes.len() < SPILL_HEADER_LEN || bytes[..8] != SPILL_MAGIC {
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
        let zero_copy = cfg!(target_endian = "little") && aligned;
        let mapped = MappedCsr { map, num_vertices, num_entries, targets_off, zero_copy };
        if mapped.zero_copy {
            Ok(LoadedCsr::Mapped(mapped))
        } else {
            let (offsets, targets) = mapped.decode();
            Ok(LoadedCsr::Heap { offsets, targets })
        }
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

    /// Decode the whole structure into heap vectors (endian/alignment
    /// fallback, and the escape hatch back to an owned CSR).
    pub fn decode(&self) -> (Vec<usize>, Vec<VertexId>) {
        let bytes = self.map.as_slice();
        let mut offsets = Vec::with_capacity(self.num_vertices + 1);
        for v in 0..=self.num_vertices {
            offsets.push(read_u64_at(bytes, SPILL_HEADER_LEN + v * 8) as usize);
        }
        let mut targets = Vec::with_capacity(self.num_entries);
        for i in 0..self.num_entries {
            let at = self.targets_off + i * 4;
            let mut raw = [0u8; 4];
            raw.copy_from_slice(&bytes[at..at + 4]); // lint: panic-ok(bounds validated at open)
            targets.push(VertexId::from_le_bytes(raw));
        }
        (offsets, targets)
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
        let loaded = w.finish().expect("finish");
        assert_eq!(spill_files(&d), 0, "unlinked after mmap");
        match loaded {
            LoadedCsr::Mapped(m) => {
                assert_eq!(m.num_vertices(), 4);
                assert_eq!(m.num_entries(), 6);
                for (v, list) in lists.iter().enumerate() {
                    assert_eq!(m.neighbors(v as VertexId), &list[..]);
                    assert_eq!(m.degree(v as VertexId), list.len());
                }
                let (offsets, targets) = m.decode();
                assert_eq!(offsets, [0, 3, 3, 5, 6]);
                assert_eq!(targets, [1, 3, 7, 0, 2, 5]);
            }
            LoadedCsr::Heap { offsets, targets } => {
                assert_eq!(offsets, [0, 3, 3, 5, 6]);
                assert_eq!(targets, [1, 3, 7, 0, 2, 5]);
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_csr_spills_cleanly() {
        let d = dir();
        let w = SpillWriter::create(&d, 0).expect("create");
        match w.finish().expect("finish") {
            LoadedCsr::Mapped(m) => {
                assert_eq!(m.num_vertices(), 0);
                assert_eq!(m.num_entries(), 0);
            }
            LoadedCsr::Heap { offsets, targets } => {
                assert_eq!(offsets, [0]);
                assert!(targets.is_empty());
            }
        }
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
}
