//! What the harness needs from the machine it runs on: the facts every
//! result records (cores, compiler, commit), the process's peak memory,
//! and a per-run scratch directory.

use crate::report::Outcome;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Everything the run writes lives under this directory of the current
/// working directory (git-ignored), one sub-directory per run.
pub const SCRATCH_ROOT: &str = ".ease-bench-tmp";

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// Words of a `cpu_set_t` (1024 CPUs).
    pub const CPU_SET_WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
}

/// Restrict the calling thread — and every thread and child process it
/// starts from here on, which inherit the mask — to the first CPU it may run
/// on. What the serve workloads do before they start a daemon
/// (`serving.rs` has the why). Where the mask cannot be set the run goes on
/// unpinned and says so.
pub fn pin_to_one_cpu(out: &mut Outcome) {
    #[cfg(target_os = "linux")]
    let pinned = {
        let mut mask = [0u64; sys::CPU_SET_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes;
        // pid 0 names the calling thread.
        let got = unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } == 0;
        let first = mask.iter().position(|&word| word != 0);
        match (got, first) {
            (true, Some(word)) => {
                let lowest_bit = mask[word] & mask[word].wrapping_neg();
                mask = [0; sys::CPU_SET_WORDS];
                mask[word] = lowest_bit;
                // SAFETY: as above, and the call only reads the buffer.
                (unsafe { sys::sched_setaffinity(0, bytes, mask.as_ptr()) }) == 0
            }
            _ => false,
        }
    };
    #[cfg(not(target_os = "linux"))]
    let pinned = false;
    if !pinned {
        out.notes.push("could not pin the process to one CPU: daemons and generator float".into());
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// `VmHWM` of this process in MiB: the most physical memory it has held.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// The run's scratch directory, removed when the run ends — also when a
/// check failed or set-up returned early.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create `.ease-bench-tmp/run-<pid>` relative to the working
    /// directory. The path stays relative on purpose: unix socket paths
    /// are capped near 100 bytes and the checkout may sit anywhere.
    pub fn create() -> std::io::Result<RunDir> {
        let path = Path::new(SCRATCH_ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dir_is_removed_on_drop() {
        let dir = RunDir::create().expect("create run dir");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("leftover"), b"x").expect("write into run dir");
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn host_facts_are_present() {
        assert!(nproc() >= 1);
        assert!(!rustc_version().is_empty());
        assert!(!git_commit().is_empty());
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        }
    }
}
