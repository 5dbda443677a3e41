//! Counting-allocator regression test: SHA-256 and HMAC-SHA-256 perform
//! **zero heap allocations**. Both compression kernels work on the
//! caller's state and input in place, and the hasher's buffer is a fixed
//! array inside it, so hashing stays on the stack at every length: the
//! empty message, one block with padding (55 bytes), one block that pads
//! into a second (64), and a 16 KiB content item (256 blocks in one
//! kernel call).
//!
//! The counter is the calling thread's own, so allocations on other
//! threads (libtest's main thread, a concurrent test) never land in a
//! measurement.

use p2drm_crypto::hmac::{hmac_sha256, HmacSha256};
use p2drm_crypto::sha256::{sha256, Sha256};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` because the
/// allocator also serves a thread's teardown.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method delegates directly to the `System` allocator,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is forwarded verbatim to `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a prior `alloc` through this
        // same wrapper, so they satisfy `System.dealloc`'s requirements.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from a prior `alloc` through this
        // same wrapper; `new_size` is forwarded unchanged to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations this thread made while it ran.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let v = f();
    (v, ALLOCS.with(Cell::get) - before)
}

#[test]
fn hashing_is_allocation_free() {
    let data = vec![0xa5u8; 16_384];
    // Warm-up: std's CPU-feature detection and any lazy statics.
    let _ = sha256(&data);
    let _ = hmac_sha256(b"key", &data);

    for len in [0usize, 55, 64, 16_384] {
        let msg = &data[..len];
        let (digest, allocs) = allocs_during(|| sha256(msg));
        assert_eq!(allocs, 0, "sha256 of {len} bytes allocates");
        let (streamed, allocs) = allocs_during(|| {
            let mut h = Sha256::new();
            for part in msg.chunks(1000) {
                h.update(part);
            }
            h.finalize()
        });
        assert_eq!(allocs, 0, "Sha256::update over {len} bytes allocates");
        assert_eq!(streamed, digest);

        let (tag, allocs) = allocs_during(|| hmac_sha256(b"key", msg));
        assert_eq!(allocs, 0, "hmac_sha256 over {len} bytes allocates");
        // A key longer than a block is hashed first, on the stack too.
        let long_key = [0x0bu8; 131];
        let (_, allocs) = allocs_during(|| {
            let mut h = HmacSha256::new(&long_key);
            h.update(msg);
            h.verify(&tag)
        });
        assert_eq!(
            allocs, 0,
            "HMAC with a hashed key over {len} bytes allocates"
        );
    }
}
