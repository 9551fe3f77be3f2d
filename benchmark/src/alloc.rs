//! A counting global allocator for `mem.allocs_per_pkt`.
//!
//! Counting is off except during the traced run's dedicated stretch, so
//! the untraced run pays one relaxed load per allocation and nothing
//! else. Counts are exact and cover every thread of the process (the
//! sharded workload's worker included).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls while switched on.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data, so
// `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on; returns the counters' current reading.
pub fn start_counting() -> (u64, u64) {
    let at = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::SeqCst);
    at
}

/// Switches counting off; returns `(allocations, bytes)` since `start`.
pub fn stop_counting(start: (u64, u64)) -> (u64, u64) {
    COUNTING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::Relaxed) - start.0,
        BYTES.load(Ordering::Relaxed) - start.1,
    )
}
