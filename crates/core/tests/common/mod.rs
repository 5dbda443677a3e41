//! The counting global allocator of the single-test allocation files
//! (`decode_alloc.rs`, `retained_heap.rs`): `mod common;` installs it
//! for that test binary. Each such file holds one `#[test]`, so no
//! concurrent test thread moves the process-wide counters
//! mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
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

struct CountingAlloc;

fn requested(size: usize) {
    REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates directly to the `System` allocator,
// which upholds the `GlobalAlloc` contract; the only extra work is
// relaxed counter updates, which neither allocate nor unwind.
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
