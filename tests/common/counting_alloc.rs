//! A process-wide counting allocator for the seven allocation pins
//! (`inline_path_allocs.rs`, `width2_path_allocs.rs`, `csv_path_allocs.rs`,
//! `churn_path_allocs.rs`, `mixed_path_allocs.rs`, `slack_path_allocs.rs`,
//! `server_path_allocs.rs`) and the decoders' size bound
//! (`decoder_never_panic.rs`). Each is a test
//! binary of its own and installs it with
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`,
//! so allocations on every thread of the binary are seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed throughout: statistics that publish no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

/// Count allocation calls from now on (`true`) or stop counting.
pub fn counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) counted so far.
#[allow(dead_code)] // the decoder arms bound sizes, not calls
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Blocks freed (`dealloc`) while counting was on.
#[allow(dead_code)] // only the churn pin watches a teardown
pub fn frees() -> u64 {
    FREES.load(Ordering::Relaxed)
}

/// The largest single request (in bytes) counted since the last call.
#[allow(dead_code)] // only the decoder arms bound sizes
pub fn take_largest() -> u64 {
    LARGEST.swap(0, Ordering::Relaxed)
}

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
