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
//!
//! A device keeps the ciphertexts it fetched for offline play, as
//! `content/` rows bounded by one byte budget. Playing more distinct
//! 16 KiB items than fit on one in-memory device retains at most the
//! budget plus 1 KiB (the rows' keys and index slots, the eviction
//! queue, a rights-state row per license): a row kept past the budget
//! takes it over. An item larger than the whole budget plays and leaves
//! no row.
//!
//! The RA keeps no record of a blind issuance either: what it learns is
//! the request it receives, and it retains nothing of it (0 B). A log
//! entry per issuance (the card id and the blinded value: 48 B for the
//! one-limb value signed here) takes the bound over.
//!
//! A license the provider issues — by purchase or by transfer — holds
//! no more heap than a copy of it decoded from its bytes: its holder key
//! was cloned before the KEM that sealed to it built the key's
//! Montgomery (or radix-2^52) constants, so a caller that keeps many
//! licenses keeps no kernel constants with them.
//!
//! A card keeps at most one pseudonym key pair in preparation, beside the
//! keys it holds. Obtaining and forgetting pseudonyms leaves it holding
//! what it held, so 32 of them retain at most that one key pair (896 B on
//! the heap at 512 bits) plus 1 KiB, measured between two points
//! where no key is being prepared (0 B): a card that kept every prepared
//! key pair takes it over.

mod common;

use common::LIVE;
use p2drm_bignum::UBig;
use p2drm_core::entities::device::CONTENT_BUDGET;
use p2drm_core::entities::smartcard::{CardBudget, SmartCard};
use p2drm_core::entities::user::PseudonymPolicy;
use p2drm_core::license::License;
use p2drm_core::protocol::messages::{self, PurchaseRequest, TransferRequest};
use p2drm_core::system::{System, SystemConfig};
use p2drm_crypto::rng::test_rng;
use p2drm_crypto::rsa::RsaKeyPair;
use p2drm_payment::Wallet;
use p2drm_pki::cert::KeyId;
use p2drm_store::{ConcurrentKv, SyncPolicy, WalShardedConfig, WalShardedKv};
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

/// The card budget of every user outside the card section: a card that
/// can issue no further pseudonym prepares no key, so no key-generation
/// thread allocates while another section measures.
const ONE_PSEUDONYM: CardBudget = CardBudget { max_pseudonyms: 1 };

const ISSUANCES: usize = 1_000;
/// Nothing, plus rounding room; a log entry per issuance exceeds it.
const MAX_RETAINED_PER_ISSUANCE: i64 = 8;

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

/// Distinct 16 KiB items played on one device: more than its budget holds.
const PLAYED_ITEMS: usize = 24;
/// What a device keeps beyond its `content/` rows' bytes.
const MAX_RETAINED_BEYOND_BUDGET: i64 = 1024;

/// Heap bytes a device on `sys` retains after its first play of
/// [`PLAYED_ITEMS`] distinct 16 KiB items, then what one more play of an
/// item over its whole budget adds.
fn retained_by_device(sys: &mut System, rng: &mut StdRng) -> (i64, i64) {
    let mut dave = sys
        .register_user_with_budget("dave", ONE_PSEUDONYM, rng)
        .unwrap();
    dave.set_policy(PseudonymPolicy::Static);
    sys.fund(&dave, 100 * (PLAYED_ITEMS + 1) as u64);
    let items: Vec<_> = (0..=PLAYED_ITEMS)
        .map(|i| {
            let len = if i < PLAYED_ITEMS {
                ITEM_BYTES
            } else {
                CONTENT_BUDGET + 1
            };
            let payload = vec![i as u8; len];
            let cid = sys.publish_content("Played", 100, &payload, rng);
            (payload, sys.purchase(&mut dave, cid, rng).unwrap())
        })
        .collect();
    let mut device = sys.register_device(rng).unwrap();
    let mut play = |(payload, license): &(Vec<u8>, _), rng: &mut StdRng| {
        assert_eq!(
            &sys.play(&dave, &mut device, license, rng).unwrap(),
            payload
        );
    };
    let (over_budget, fitting) = items.split_last().unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    for item in fitting {
        play(item, rng);
    }
    let kept = LIVE.load(Ordering::Relaxed) - before;
    play(over_budget, rng);
    (kept, LIVE.load(Ordering::Relaxed) - before - kept)
}

/// Pseudonyms a card obtains and forgets while it is measured.
const CARD_ISSUANCES: usize = 32;
/// What a card may keep beyond one prepared key pair.
const MAX_RETAINED_BEYOND_PREPARED: i64 = 1024;

/// One pseudonym key pair begun and stored on `card`.
fn issue(card: &mut SmartCard, sys: &System, rng: &mut StdRng) -> KeyId {
    let body = card
        .begin_pseudonym(sys.ttp.escrow_key(), sys.epoch(), rng)
        .unwrap();
    let id = KeyId::of_rsa(&body.pseudonym_key);
    card.store_pseudonym(&id).unwrap();
    id
}

/// Heap bytes a card on `sys` retains after obtaining and forgetting
/// [`CARD_ISSUANCES`] pseudonyms, and the heap bytes of one key pair of
/// the card's size.
fn retained_by_card(sys: &System, rng: &mut StdRng) -> (i64, i64) {
    // Budget 3 with one standing pseudonym: every issuance prepares the
    // next key, except one that fills the last slot, which takes the
    // prepared key and starts none. Two issuances and two forgets end
    // with no key in preparation.
    let mut erin = sys
        .register_user_with_budget("erin", CardBudget { max_pseudonyms: 3 }, rng)
        .unwrap();
    let card = &mut erin.card;
    let settle = |card: &mut SmartCard, rng: &mut StdRng| {
        let (a, b) = (issue(card, sys, rng), issue(card, sys, rng));
        assert!(card.forget_pseudonym(&a) && card.forget_pseudonym(&b));
    };
    issue(card, sys, rng);
    settle(card, rng);

    let before = LIVE.load(Ordering::Relaxed);
    let key_pair = RsaKeyPair::generate(card.key_bits(), rng);
    let key_pair_bytes = LIVE.load(Ordering::Relaxed) - before;
    drop(key_pair);
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..CARD_ISSUANCES {
        let id = issue(card, sys, rng);
        assert!(card.forget_pseudonym(&id));
    }
    settle(card, rng);
    assert_eq!(card.pseudonym_count(), 1);
    (LIVE.load(Ordering::Relaxed) - before, key_pair_bytes)
}

/// Heap bytes one more sale leaves on `sys`'s provider and mint.
fn retained_per_purchase<B: ConcurrentKv + Send + Sync + 'static>(
    sys: &System<B>,
    rng: &mut StdRng,
) -> i64 {
    let cid = sys.publish_content("Track", 100, b"payload", rng);
    let mut alice = sys
        .register_user_with_budget("alice", ONE_PSEUDONYM, rng)
        .unwrap();
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

/// Heap bytes `license` holds, and heap bytes a copy of it decoded from
/// its bytes holds: `(kept, decoded)`.
fn license_heap(license: License) -> (i64, i64) {
    let bytes = p2drm_codec::to_bytes(&license);
    let before = LIVE.load(Ordering::Relaxed);
    let decoded: License = p2drm_codec::from_bytes(&bytes).unwrap();
    let decoded_bytes = LIVE.load(Ordering::Relaxed) - before;
    drop(decoded);
    let before = LIVE.load(Ordering::Relaxed);
    drop(license);
    (before - LIVE.load(Ordering::Relaxed), decoded_bytes)
}

/// [`license_heap`] of a license `sys`'s provider issues by purchase,
/// then of the license it issues by transferring that one.
fn issued_license_heap(sys: &System, rng: &mut StdRng) -> [(i64, i64); 2] {
    let cid = sys.publish_content("Kept", 100, b"payload", rng);
    let mut frank = sys
        .register_user_with_budget("frank", ONE_PSEUDONYM, rng)
        .unwrap();
    let mut grace = sys
        .register_user_with_budget("grace", ONE_PSEUDONYM, rng)
        .unwrap();
    sys.fund(&frank, 100);
    sys.ensure_pseudonym(&mut frank, rng).unwrap();
    sys.ensure_pseudonym(&mut grace, rng).unwrap();
    let seller = frank.current_pseudonym().unwrap().clone();
    let coin = frank
        .wallet
        .withdraw(&sys.mint, &frank.account, 100, rng)
        .unwrap();
    let purchase = PurchaseRequest {
        content_id: cid,
        pseudonym_cert: seller.clone(),
        coin,
        attribute_cert: None,
    };
    let epoch = sys.epoch();
    let bought = sys.provider.handle_purchase(&purchase, epoch, rng).unwrap();
    let recipient_cert = grace.current_pseudonym().unwrap().clone();
    let proof = frank
        .card
        .sign_with_pseudonym(
            &seller.pseudonym_id(),
            &messages::transfer_proof_bytes(&bought.id(), &recipient_cert.pseudonym_id()),
        )
        .unwrap();
    let transfer = TransferRequest {
        license: bought.clone(),
        recipient_cert,
        proof,
    };
    let moved = sys.provider.handle_transfer(&transfer, epoch, rng).unwrap();
    [license_heap(bought), license_heap(moved)]
}

/// Heap bytes one more blind pseudonym issuance leaves on `sys`'s RA:
/// the same authenticated request, signed `ISSUANCES` times after one
/// warm-up.
fn retained_per_issuance<B: ConcurrentKv + Send + Sync + 'static>(
    sys: &System<B>,
    rng: &mut StdRng,
) -> i64 {
    let carol = sys
        .register_user_with_budget("carol", ONE_PSEUDONYM, rng)
        .unwrap();
    let card_id = carol.card.card_id();
    let blinded = UBig::from_u64(0xB11D);
    let auth_sig = carol
        .card
        .sign_with_master(&messages::pseudonym_auth_bytes(&card_id, &blinded))
        .unwrap();
    let now = sys.now();
    let issue = || {
        sys.ra
            .issue_pseudonym(card_id, carol.card.master_cert(), &blinded, &auth_sig, now)
            .unwrap()
    };
    drop(issue());
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..ISSUANCES {
        drop(issue());
    }
    (LIVE.load(Ordering::Relaxed) - before) / ISSUANCES as i64
}

#[test]
fn a_purchase_retains_only_its_index_rows() {
    let mut rng = test_rng(0x4EA9);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let in_memory = (
        retained_per_item(&sys, &mut rng),
        retained_per_purchase(&sys, &mut rng),
    );
    let per_issuance = retained_per_issuance(&sys, &mut rng);
    let license_heaps = issued_license_heap(&sys, &mut rng);
    let (kept_by_device, over_budget_play) = retained_by_device(&mut sys, &mut rng);
    let (kept_by_card, key_pair_bytes) = retained_by_card(&sys, &mut rng);
    drop(sys);

    let dir = std::env::temp_dir().join(format!("p2drm-retained-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = WalShardedConfig::with_policy(SyncPolicy::Buffered);
    let store = WalShardedKv::open(&dir, durable).unwrap().0;
    let sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
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
    println!(
        "device: {kept_by_device} B retained after {PLAYED_ITEMS} items \
         (budget {CONTENT_BUDGET} B), +{over_budget_play} B for an item over it"
    );
    assert!(
        kept_by_device <= CONTENT_BUDGET as i64 + MAX_RETAINED_BEYOND_BUDGET,
        "a device kept {kept_by_device} B after {PLAYED_ITEMS} distinct items \
         (budget {CONTENT_BUDGET} B + {MAX_RETAINED_BEYOND_BUDGET} B)"
    );
    assert!(
        over_budget_play <= MAX_RETAINED_BEYOND_BUDGET,
        "an item over the budget left {over_budget_play} B on the device"
    );
    println!(
        "card: {kept_by_card} B retained after {CARD_ISSUANCES} pseudonyms \
         (one key pair: {key_pair_bytes} B)"
    );
    assert!(
        kept_by_card <= key_pair_bytes + MAX_RETAINED_BEYOND_PREPARED,
        "a card retained {kept_by_card} B after obtaining and forgetting \
         {CARD_ISSUANCES} pseudonyms (bound: one {key_pair_bytes} B key pair \
         + {MAX_RETAINED_BEYOND_PREPARED} B)"
    );
    for ((kept, decoded), by) in license_heaps.into_iter().zip(["purchase", "transfer"]) {
        println!("license by {by}: {kept} B on the heap ({decoded} B decoded)");
        assert!(
            kept <= decoded,
            "a license issued by {by} holds {kept} B on the heap, a decoded copy \
             {decoded} B: its holder key keeps kernel constants"
        );
    }
    println!("RA: {per_issuance} B retained per pseudonym issuance");
    assert!(
        per_issuance <= MAX_RETAINED_PER_ISSUANCE,
        "a pseudonym issuance retained {per_issuance} B on the RA's heap \
         (bound {MAX_RETAINED_PER_ISSUANCE} B)"
    );
}
