//! Minimal read-only memory mapping, dependency-free.
//!
//! The offline build environment has no `memmap2`/`libc` crates, so the two
//! syscalls this module needs (`mmap`/`munmap`) are declared directly
//! against the C runtime.
//!
//! [`Mmap`] is an immutable byte view: `PROT_READ` + `MAP_PRIVATE`, unmapped
//! on drop. The mapping is `Send + Sync` (read-only shared memory), which
//! is what lets one mapped `.bel` file feed several profiling workers at
//! once.

// Daemon-reachable: every `.bel` and spill file the daemon reads is mapped
// here, so this module is held panic-free (`#[cfg(test)]` code is exempt,
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

use std::fs::File;
use std::io;

mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only memory-mapped file.
#[derive(Debug)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ, private) for its whole
// lifetime, so shared references to its bytes are valid from any thread.
unsafe impl Send for Mmap {}
// SAFETY: same argument as `Send` — the bytes behind `ptr` never change
// after `map` returns, so concurrent shared reads are race-free.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `file` read-only. Empty files produce an empty (unmapped) view —
    /// `mmap(2)` rejects zero-length mappings.
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Mmap { ptr: std::ptr::null(), len: 0 });
        }
        // SAFETY: fd is a valid open file descriptor for the length we just
        // read; we request a fresh private read-only mapping (addr = null).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr: ptr as *const u8, len })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; it is unmapped only in Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: ptr/len came from a successful mmap call; after this
            // the struct is dropped so no view can outlive the unmap.
            unsafe {
                sys::munmap(self.ptr as *mut _, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ease_mmap_test_{tag}_{}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let mut f = File::create(&path).unwrap();
        f.write_all(b"hello mapped world").unwrap();
        f.sync_all().unwrap();
        let m = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(m.as_slice(), b"hello mapped world");
        assert_eq!(m.len(), 18);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let m = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.as_slice(), &[] as &[u8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = temp_path("threads");
        let mut f = File::create(&path).unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(1 << 16).collect();
        f.write_all(&payload).unwrap();
        f.sync_all().unwrap();
        let m = Mmap::map(&File::open(&path).unwrap()).unwrap();
        std::thread::scope(|s| {
            for chunk in 0..4usize {
                let m = &m;
                s.spawn(move || {
                    let part = &m.as_slice()[chunk * (1 << 14)..(chunk + 1) * (1 << 14)];
                    assert_eq!(part.len(), 1 << 14);
                    assert_eq!(part[0], ((chunk * (1 << 14)) % 256) as u8);
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }
}
