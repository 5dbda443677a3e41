//! Live-heap regression test: what a purchase leaves behind on the
//! provider and its mint once it has been answered, and what a published
//! item leaves on the provider.
//!
//! The provider keeps no per-sale history — no purchase or transfer log,
//! no withdrawal transcript — so a sale retains only the two rows the
//! protocol reads back: the mint's `spent/<serial>` (memo = license id)
//! and the provider's `lic/<id>` (the holder's key id). Each is one heap
//! allocation, `[key length][key][value]`, plus a 16-byte slot in its
//! shard's key-ordered set: ~170 B between them. The bound leaves room
//! for the sets' node slack and nothing more: a row stored as a separate
//! key and value allocation (a `BTreeMap<Vec<u8>, Vec<u8>>` entry, ~250 B
//! a sale) or one log row takes it over.
//!
//! A published item keeps one copy of its ciphertext: the store's
//! `content/<id>` row. The catalog holds an entry without it (metadata,
//! content key, nonce, rights template). Over the in-memory store the
//! row holds the ciphertext, so one more 16 KiB item retains it plus
//! under 1 KiB; a second copy in the catalog (~33 KiB an item) takes it
//! over. Over the durable store (`WalShardedKv`) a value of a page or
//! more stays in the shard log and the row holds its position, so the
//! item retains under 1 KiB in all (284 B): a ciphertext copied back
//! onto the heap, by the index or the catalog, takes it over.
//!
//! The same measurements run twice, over the in-memory provider store and over
//! the durable one, so both backends' index is bounded.

mod common;

use common::LIVE;
use p2drm_core::protocol::messages::PurchaseRequest;
use p2drm_core::system::{System, SystemConfig};
use p2drm_crypto::rng::test_rng;
use p2drm_payment::Wallet;
use p2drm_store::{ConcurrentKv, SyncPolicy, WalShardedConfig};
use rand::rngs::StdRng;
use std::sync::atomic::Ordering;

const WARM_UP: usize = 200;
const PURCHASES: usize = 2_000;
/// Two one-allocation rows (~170 B) plus slack; a second allocation per
/// row, or one log row more, exceeds it.
const MAX_RETAINED_PER_PURCHASE: i64 = 200;

const ITEM_BYTES: usize = 16 * 1024;
/// The catalog entry, the rows' headers and index slots, and the
/// `content/` row's position in the log; any copy of the ciphertext on
/// the heap exceeds it.
const MAX_RETAINED_PER_ITEM_IN_LOG: i64 = 1024;
/// The same plus the one ciphertext the in-memory store's row holds; a
/// second copy exceeds it.
const MAX_RETAINED_PER_ITEM: i64 = ITEM_BYTES as i64 + MAX_RETAINED_PER_ITEM_IN_LOG;

/// Heap bytes one more published 16 KiB item leaves on `sys`'s provider,
/// measured after one warm-up publish.
fn retained_per_item<B: ConcurrentKv + Send + Sync + 'static>(
    sys: &System<B>,
    rng: &mut StdRng,
) -> i64 {
    let payload = vec![0x5A; ITEM_BYTES];
    sys.publish_content("Warm-up", 100, &payload, rng);
    let before = LIVE.load(Ordering::Relaxed);
    sys.publish_content("Measured", 100, &payload, rng);
    LIVE.load(Ordering::Relaxed) - before
}

/// Heap bytes one more sale leaves on `sys`'s provider and mint.
fn retained_per_purchase<B: ConcurrentKv + Send + Sync + 'static>(
    sys: &System<B>,
    rng: &mut StdRng,
) -> i64 {
    let cid = sys.publish_content("Track", 100, b"payload", rng);
    let mut alice = sys.register_user("alice", rng).unwrap();
    sys.fund(&alice, 100 * (WARM_UP + PURCHASES) as u64);
    sys.ensure_pseudonym(&mut alice, rng).unwrap();
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
        buy(rng);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..PURCHASES {
        buy(rng);
    }
    let per_purchase = (LIVE.load(Ordering::Relaxed) - before) / PURCHASES as i64;
    assert_eq!(sys.provider.license_count(), WARM_UP + PURCHASES);
    per_purchase
}

#[test]
fn a_purchase_retains_only_its_index_rows() {
    let mut rng = test_rng(0x4EA9);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let in_memory = (
        retained_per_item(&sys, &mut rng),
        retained_per_purchase(&sys, &mut rng),
    );
    drop(sys);

    let dir = std::env::temp_dir().join(format!("p2drm-retained-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = WalShardedConfig::with_policy(SyncPolicy::Buffered);
    let (sys, _) =
        System::bootstrap_durable(SystemConfig::fast_test(), &dir, durable, &mut rng).unwrap();
    let on_wal = (
        retained_per_item(&sys, &mut rng),
        retained_per_purchase(&sys, &mut rng),
    );
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);

    for (backend, (per_item, per_purchase), max_per_item) in [
        ("MemKv", in_memory, MAX_RETAINED_PER_ITEM),
        ("WalShardedKv", on_wal, MAX_RETAINED_PER_ITEM_IN_LOG),
    ] {
        println!(
            "{backend}: {per_purchase} B retained per purchase, \
             {per_item} B per published {ITEM_BYTES} B item"
        );
        assert!(
            per_item <= max_per_item,
            "a published item retained {per_item} B on the heap over {backend} \
             (bound {max_per_item} B)"
        );
        assert!(
            per_purchase <= MAX_RETAINED_PER_PURCHASE,
            "a purchase retained {per_purchase} B on the heap over {backend} \
             (bound {MAX_RETAINED_PER_PURCHASE} B)"
        );
    }
}
