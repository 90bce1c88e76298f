//! A shared, observable memory budget for derived graph state.
//!
//! [`MemoryBudget`] is the PR 8 tentpole's accounting ledger: every
//! [`PreparedGraph`](crate::PreparedGraph) that carries one *charges* the
//! heap bytes of each CSR it is about to build. A charge that fits is
//! recorded (and released when the context drops or, for the triangle
//! kernel's forward lists, when the scan that reads them ends); a charge
//! that would exceed the limit is refused, and the caller builds the CSR out
//! of core instead — spilled to a temp file and mmapped back (see
//! [`crate::spill`]).
//!
//! Semantics, deliberately simple:
//!
//! * the budget covers **derived adjacency state** (CSR offsets + targets)
//!   — not mapped file pages, which the OS can reclaim under pressure, and
//!   not the O(|V|) degree/triangle tables, which are small by design;
//! * `limit == usize::MAX` means *unlimited*: charges always succeed and
//!   nothing is ever spilled;
//! * `limit == 0` refuses every non-zero charge, forcing the spill path —
//!   the regression tests pin both extremes.
//!
//! One budget may be shared (via `Arc`) by many contexts — the daemon hands
//! the same ledger to every request so concurrent analyses compete for the
//! same headroom.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Spill chunk sizing floor: even with zero headroom the out-of-core
/// builder keeps this much scratch, so progress is guaranteed and the
/// number of edge-stream replays stays bounded.
pub const SPILL_MIN_CHUNK_BYTES: usize = 4 << 20;

/// Spill chunk sizing ceiling — beyond this, larger chunks stop paying.
pub const SPILL_MAX_CHUNK_BYTES: usize = 256 << 20;

/// A byte budget for in-heap derived state, shared across analysis
/// contexts. See the module docs for exact semantics.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: usize,
    used: AtomicUsize,
    /// Lifetime count of CSR builds this budget refused into the spill
    /// path. Monotonic observability only — never read back into any
    /// admission or sizing decision.
    spills: AtomicU64,
    spill_dir: PathBuf,
}

impl MemoryBudget {
    /// A budget that never refuses a charge and never spills.
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget::bytes(usize::MAX)
    }

    /// A budget of exactly `limit` bytes, spilling to the system temp dir.
    pub fn bytes(limit: usize) -> MemoryBudget {
        MemoryBudget {
            limit,
            used: AtomicUsize::new(0),
            spills: AtomicU64::new(0),
            spill_dir: std::env::temp_dir(),
        }
    }

    /// Redirect spill files to `dir` (created on first spill).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> MemoryBudget {
        self.spill_dir = dir.into();
        self
    }

    pub fn is_unlimited(&self) -> bool {
        self.limit == usize::MAX
    }

    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently charged. Always 0 for an unlimited budget.
    pub fn charged(&self) -> usize {
        self.used.load(Ordering::SeqCst)
    }

    /// Headroom left before the next charge is refused.
    pub fn remaining(&self) -> usize {
        self.limit.saturating_sub(self.charged())
    }

    /// Directory spill files are created in.
    pub fn spill_dir(&self) -> &Path {
        &self.spill_dir
    }

    /// Record one CSR build that this budget refused into the spill path.
    /// Called by the out-of-core builder; a daemon sharing one budget
    /// across all requests reads the accumulated count for its
    /// `cache-stats` answer (and a fleet router reads *that* to steer
    /// big-graph queries toward backends that are not spilling).
    pub fn note_spill(&self) {
        // lint: relaxed-ok(monotonic stats counter, never ordered against other state)
        self.spills.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime count of spilled CSR builds recorded via
    /// [`note_spill`](Self::note_spill).
    pub fn spill_events(&self) -> u64 {
        self.spills.load(Ordering::Relaxed) // lint: relaxed-ok(monotonic stats counter)
    }

    /// Scratch-buffer size the out-of-core CSR builder should use right
    /// now: the remaining headroom, clamped to a floor that guarantees
    /// progress and a ceiling past which bigger chunks stop helping.
    pub fn spill_chunk_bytes(&self) -> usize {
        self.remaining().clamp(SPILL_MIN_CHUNK_BYTES, SPILL_MAX_CHUNK_BYTES)
    }

    /// Try to reserve `bytes` of headroom. On success the caller owns the
    /// reservation and must [`release`](Self::release) it when the backing
    /// allocation is freed; on refusal nothing is recorded.
    pub fn try_charge(&self, bytes: usize) -> bool {
        if self.is_unlimited() {
            return true;
        }
        let mut current = self.used.load(Ordering::SeqCst);
        loop {
            let next = match current.checked_add(bytes) {
                Some(next) if next <= self.limit => next,
                _ => return false,
            };
            match self.used.compare_exchange(current, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Return `bytes` of previously charged headroom to the pool.
    pub fn release(&self, bytes: usize) {
        if self.is_unlimited() {
            return;
        }
        // saturating: a stray double-release must not wrap the ledger into
        // "everything is charged forever"
        let _ = self.used.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
            Some(used.saturating_sub(bytes))
        });
    }

    /// Parse a human byte-size spec: a plain byte count (`"1048576"`), a
    /// `k`/`m`/`g` suffix with optional `b` (`"64k"`, `"512MiB"`, `"2g"`),
    /// or `"unlimited"`/`"none"` for no limit. `"0"` means *always spill*.
    pub fn parse_limit(spec: &str) -> Result<usize, String> {
        let s = spec.trim().to_ascii_lowercase();
        if s == "unlimited" || s == "none" || s == "max" {
            return Ok(usize::MAX);
        }
        let digits_end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        let (digits, suffix) = s.split_at(digits_end);
        let value: usize = digits
            .parse()
            .map_err(|_| format!("invalid memory budget `{spec}` (expected e.g. 64m, 2g, 0)"))?;
        let shift = match suffix.trim_end_matches("ib").trim_end_matches('b') {
            "" => 0u32,
            "k" => 10,
            "m" => 20,
            "g" => 30,
            _ => return Err(format!("unknown memory budget suffix `{suffix}` in `{spec}`")),
        };
        value
            .checked_shl(shift)
            .filter(|v| v >> shift == value)
            .ok_or_else(|| format!("memory budget `{spec}` overflows"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_accepts_and_never_accounts() {
        let b = MemoryBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.try_charge(usize::MAX));
        assert_eq!(b.charged(), 0);
        b.release(123); // no-op, no underflow
        assert_eq!(b.remaining(), usize::MAX);
    }

    #[test]
    fn zero_budget_refuses_any_nonzero_charge() {
        let b = MemoryBudget::bytes(0);
        assert!(!b.try_charge(1));
        assert!(b.try_charge(0));
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn charges_accumulate_and_release_restores_headroom() {
        let b = MemoryBudget::bytes(100);
        assert!(b.try_charge(60));
        assert!(!b.try_charge(50));
        assert!(b.try_charge(40));
        assert_eq!(b.remaining(), 0);
        b.release(60);
        assert_eq!(b.remaining(), 60);
        b.release(usize::MAX); // saturates instead of wrapping
        assert_eq!(b.charged(), 0);
    }

    #[test]
    fn concurrent_charges_never_oversubscribe() {
        let b = std::sync::Arc::new(MemoryBudget::bytes(1000));
        let admitted: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let b = std::sync::Arc::clone(&b);
                    s.spawn(move || (0..100).filter(|_| b.try_charge(10)).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("charger")).sum()
        });
        assert_eq!(admitted, 100, "exactly limit/charge admissions");
        assert_eq!(b.charged(), 1000);
    }

    #[test]
    fn spill_events_accumulate_monotonically() {
        let b = MemoryBudget::bytes(0);
        assert_eq!(b.spill_events(), 0);
        b.note_spill();
        b.note_spill();
        assert_eq!(b.spill_events(), 2);
        b.release(100); // releases never touch the spill count
        assert_eq!(b.spill_events(), 2);
    }

    #[test]
    fn parse_limit_accepts_the_documented_spellings() {
        assert_eq!(MemoryBudget::parse_limit("0"), Ok(0));
        assert_eq!(MemoryBudget::parse_limit("1048576"), Ok(1 << 20));
        assert_eq!(MemoryBudget::parse_limit("64k"), Ok(64 << 10));
        assert_eq!(MemoryBudget::parse_limit("8M"), Ok(8 << 20));
        assert_eq!(MemoryBudget::parse_limit("2gb"), Ok(2 << 30));
        assert_eq!(MemoryBudget::parse_limit("512MiB"), Ok(512 << 20));
        assert_eq!(MemoryBudget::parse_limit("unlimited"), Ok(usize::MAX));
        assert!(MemoryBudget::parse_limit("eight").is_err());
        assert!(MemoryBudget::parse_limit("8q").is_err());
        assert!(MemoryBudget::parse_limit("99999999999g").is_err());
    }

    #[test]
    fn chunk_sizing_tracks_headroom_within_the_clamp() {
        let b = MemoryBudget::bytes(0);
        assert_eq!(b.spill_chunk_bytes(), SPILL_MIN_CHUNK_BYTES);
        let big = MemoryBudget::bytes(SPILL_MAX_CHUNK_BYTES * 4);
        assert_eq!(big.spill_chunk_bytes(), SPILL_MAX_CHUNK_BYTES);
        let mid = MemoryBudget::bytes(16 << 20);
        assert_eq!(mid.spill_chunk_bytes(), 16 << 20);
    }
}
