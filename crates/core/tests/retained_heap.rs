//! Live-heap regression test: what a purchase leaves behind on the
//! provider and its mint once it has been answered.
//!
//! The provider keeps no per-sale history — no purchase or transfer log,
//! no withdrawal transcript — so a sale retains only the two index rows
//! the protocol reads back: the mint's `spent/<serial>` (memo = license
//! id) and the provider's `lic/<id>` (the holder's key id), ~254 B
//! between them in the in-memory store. The bound leaves room for the
//! stores' node slack and nothing for a log row: re-adding any one of the
//! old pushes (purchase log, withdrawal transcript) takes it over.
//!
//! This file intentionally holds a single `#[test]` so no concurrent test
//! thread can move the process-wide counter mid-measurement.

use p2drm_core::protocol::messages::PurchaseRequest;
use p2drm_core::system::{System, SystemConfig};
use p2drm_crypto::rng::test_rng;
use p2drm_payment::Wallet;
use rand::rngs::StdRng;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicI64, Ordering};

/// Bytes currently allocated (allocations and growth minus frees).
static LIVE: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates directly to the `System` allocator,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// relaxed counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same `layout` is forwarded verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        SystemAlloc.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior `alloc` through this same
    // wrapper, so they satisfy `System.dealloc`'s requirements.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        SystemAlloc.dealloc(ptr, layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior `alloc` through this same
    // wrapper; `new_size` is forwarded unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARM_UP: usize = 200;
const PURCHASES: usize = 2_000;
/// The two index rows (~254 B) plus slack; one log row more exceeds it.
const MAX_RETAINED_PER_PURCHASE: i64 = 320;

#[test]
fn a_purchase_retains_only_its_index_rows() {
    let mut rng = test_rng(0x4EA9);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 100 * (WARM_UP + PURCHASES) as u64);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let pseudonym_cert = alice.current_pseudonym().unwrap().clone();
    let epoch = sys.epoch();
    let mut wallet = Wallet::new();

    // One pseudonym, a fresh coin per call: every call is a new sale.
    let mut buy = |rng: &mut StdRng| {
        let coin = wallet
            .withdraw(&sys.mint, &alice.account, 100, rng)
            .unwrap();
        wallet.take(100);
        let req = PurchaseRequest {
            content_id: cid,
            pseudonym_cert: pseudonym_cert.clone(),
            coin,
            attribute_cert: None,
        };
        sys.provider.handle_purchase(&req, epoch, rng).unwrap();
    };
    for _ in 0..WARM_UP {
        buy(&mut rng);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..PURCHASES {
        buy(&mut rng);
    }
    let per_purchase = (LIVE.load(Ordering::Relaxed) - before) / PURCHASES as i64;

    assert_eq!(sys.provider.license_count(), WARM_UP + PURCHASES);
    assert!(
        per_purchase <= MAX_RETAINED_PER_PURCHASE,
        "a purchase retained {per_purchase} B on the heap (bound {MAX_RETAINED_PER_PURCHASE} B)"
    );
}
