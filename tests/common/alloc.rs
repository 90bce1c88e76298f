//! Thread-local allocation counter for the allocation locks: only the
//! calling thread is charged, so a lock is immune to the test harness's
//! other threads. A suite that counts installs it itself:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: common::alloc::CountingAlloc = common::alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the thread-local counter taps use
// `Cell`s, never allocate, and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.with(|t| t.get()) {
            ALLOCATED.with(|a| a.set(a.get() + layout.size() as u64));
        }
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from the paired `alloc` call above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f`, returning its result and the bytes allocated *by this thread*.
pub fn tracked<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATED.with(|a| a.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, ALLOCATED.with(|a| a.get()))
}
