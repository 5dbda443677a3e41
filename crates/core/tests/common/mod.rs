//! The counting global allocator of the allocation files
//! (`decode_alloc.rs`, `retained_heap.rs`, `work_census.rs`): `mod
//! common;` installs it for that test binary. The first two hold one
//! `#[test]` each, so no concurrent test thread moves the process-wide
//! counters mid-measurement; the census reads the per-thread ones
//! ([`thread_allocations`]), which no other thread moves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Bytes requested from the allocator (allocations plus the new size of
/// every reallocation).
pub static REQUESTED: AtomicU64 = AtomicU64::new(0);
/// Requests of at least [`LARGE`] bytes.
pub static LARGE_REQUESTS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated (allocations and growth minus frees).
pub static LIVE: AtomicI64 = AtomicI64::new(0);
/// Larger than any title or id `decode_alloc` decodes, smaller than room
/// for 256 `ContentMeta`.
pub const LARGE: usize = 16 * 1024;

thread_local! {
    /// This thread's allocation requests and the bytes they asked for
    /// (allocations plus the new size of every reallocation).
    static THREAD: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The calling thread's allocation requests and requested bytes so far.
#[allow(dead_code)]
pub fn thread_allocations() -> (u64, u64) {
    THREAD.with(Cell::get)
}

struct CountingAlloc;

fn requested(size: usize) {
    THREAD.with(|t| {
        let (count, bytes) = t.get();
        t.set((count + 1, bytes + size as u64));
    });
    REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates directly to the `System` allocator,
// which upholds the `GlobalAlloc` contract; the only extra work is
// relaxed counter updates and a const-initialised thread-local `Cell`
// of integers (no destructor, no lazy allocation), which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is forwarded verbatim to `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior `alloc` through this
        // same wrapper, so they satisfy `System.dealloc`'s requirements.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        requested(new_size);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior `alloc` through this
        // same wrapper; `new_size` is forwarded unchanged to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;
