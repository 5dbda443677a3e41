//! The paper's protocol figures (T1, T2) and tables (E1, E2) as
//! assertions. The paper states message flows and properties, not
//! timings, so each is one seeded `fast_test` system whose transcript is
//! compared with values committed here (canonical-encoding bytes at the
//! fast-test key size). A change to a message layout or to who talks to
//! whom turns one red; the new value is a reviewed edit to this file.
//!
//! Provider traffic is what the recording transport saw: the payload of
//! every envelope a `WireClient` sent and received, catalogue quote and
//! CRL sync included. What stays inside the client — the coin withdrawal
//! at the mint, the device↔card challenge, proof and key release — is in
//! no transcript.

use p2drm::core::audit::{Party, Recording};
use p2drm::core::baseline::play_identified;
use p2drm::core::entities::smartcard::CardBudget;
use p2drm::core::protocol;
use p2drm::core::service::{Loopback, WireClient};
use p2drm::prelude::*;
use rand::rngs::StdRng;

/// `(from, to, label, bytes)` for every transcript entry, in order.
fn shape(t: &Transcript) -> Vec<(Party, Party, &'static str, usize)> {
    t.entries()
        .iter()
        .map(|e| (e.from, e.to, e.label, e.bytes.len()))
        .collect()
}

/// `(messages, total bytes, bytes the provider received)` — one E1 row.
fn cost(t: &Transcript) -> (usize, usize, usize) {
    (
        t.message_count(),
        t.total_bytes(),
        t.bytes_received_by(Party::Provider),
    )
}

/// Transfers `id` to `to`, who already holds a pseudonym.
fn transfer(
    sys: &System,
    from: &mut UserAgent,
    to: &mut UserAgent,
    id: LicenseId,
    rng: &mut StdRng,
) -> Transcript {
    let mut t = Transcript::new();
    let service = sys.wire_service(0);
    let replies = Loopback::with_rng(&service, test_rng(0x7E2));
    WireClient::new(Recording::new(replies, &mut t))
        .transfer(from, to, id, rng)
        .unwrap();
    t
}

/// T1: the anonymous purchase figure — a catalogue quote, then the
/// purchase, and nothing the provider receives names the buyer or the
/// buyer's card.
#[test]
fn t1_purchase_transcript() {
    let mut rng = test_rng(0xE1);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track #1", 100, &vec![7u8; 4096], &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1000);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();

    let mut t = Transcript::new();
    sys.purchase_with_transcript(&mut alice, cid, &mut rng, &mut t)
        .unwrap();

    assert_eq!(
        shape(&t),
        [
            (Party::User, Party::Provider, "catalog", 17),
            (Party::Provider, Party::User, "catalog", 43),
            (Party::User, Party::Provider, "purchase", 405),
            (Party::Provider, Party::User, "purchase", 316),
        ]
    );
    assert!(!t.scan_for(Party::Provider, alice.user_id().as_bytes()));
    assert!(!t.scan_for(Party::Provider, alice.card.card_id().as_bytes()));
}

/// T2: the transfer figure — two messages, and the old license id is
/// dead afterwards: a saved copy cannot be transferred a second time.
#[test]
fn t2_transfer_transcript_and_double_redeem() {
    let mut rng = test_rng(0xE2);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track #2", 100, &vec![7u8; 1024], &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 1000);
    sys.fund(&bob, 1000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();

    let saved = license.clone();
    let alice_pseudonym = alice.licenses()[0].pseudonym;
    let t = transfer(&sys, &mut alice, &mut bob, license.id(), &mut rng);
    assert_eq!(
        shape(&t),
        [
            (Party::User, Party::Provider, "transfer", 664),
            (Party::Provider, Party::User, "transfer", 316),
        ]
    );

    // Alice restores a backup of the old license and tries a third user.
    alice.add_license(saved, alice_pseudonym);
    let mut carol = sys.register_user("carol", &mut rng).unwrap();
    let replay = sys.transfer(&mut alice, &mut carol, license.id(), &mut rng);
    assert!(
        matches!(&replay, Err(WireError::Api(e)) if e.code == ApiErrorCode::AlreadyRedeemed),
        "replayed old license must be rejected as redeemed, got {replay:?}"
    );
}

/// E1 (Table 1): messages / total bytes / provider-received bytes per
/// protocol, P2DRM beside the identified baseline — and the claim the
/// table exists for: the baseline provider is told who is buying, the
/// P2DRM provider is not.
#[test]
fn e1_message_costs() {
    let mut rng = test_rng(0xE3);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("item", 100, &vec![1u8; 2048], &mut rng);
    let bid = sys.publish_baseline_content("item-b", 100, &vec![1u8; 2048], &mut rng);
    let epoch = sys.epoch();
    let now = sys.now();

    let mut t = Transcript::new();
    let mut alice = protocol::register(
        &sys.ra,
        UserId::from_label("e1-user"),
        "acct-e1-user",
        PseudonymPolicy::FreshPerPurchase,
        Default::default(),
        &mut rng,
        &mut t,
    )
    .unwrap();
    sys.fund(&alice, 10_000);
    assert_eq!(cost(&t), (2, 209, 0), "registration");

    let mut t = Transcript::new();
    protocol::obtain_pseudonym(
        &mut alice,
        &sys.ra,
        sys.ttp.escrow_key(),
        epoch,
        now,
        &mut rng,
        &mut t,
    )
    .unwrap();
    assert_eq!(cost(&t), (2, 404, 0), "pseudonym issuance");

    let mut purchase = Transcript::new();
    let license = sys
        .purchase_with_transcript(&mut alice, cid, &mut rng, &mut purchase)
        .unwrap();
    assert_eq!(cost(&purchase), (4, 777, 422), "purchase");

    let mut device = sys.register_device(&mut rng).unwrap();
    let mut t = Transcript::new();
    let service = sys.wire_service(0);
    let replies = Loopback::with_rng(&service, test_rng(0xE30));
    WireClient::new(Recording::new(replies, &mut t))
        .play(&alice, &mut device, &license, &mut rng)
        .unwrap();
    assert_eq!(
        shape(&t),
        [
            (Party::Device, Party::Provider, "crl-sync", 16),
            (Party::Provider, Party::Device, "crl-sync", 228),
            (Party::Device, Party::Provider, "download", 16),
            (Party::Provider, Party::Device, "download", 2062),
        ],
        "play"
    );

    let mut bob = sys.register_user("e1-bob", &mut rng).unwrap();
    sys.fund(&bob, 1000);
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    let t = transfer(&sys, &mut alice, &mut bob, license.id(), &mut rng);
    assert_eq!(cost(&t), (2, 980, 664), "transfer");

    let mut baseline_purchase = Transcript::new();
    let ra_key = sys.ra.identity_public().clone();
    let blicense = sys
        .baseline
        .purchase_identified(
            &mut alice,
            &ra_key,
            bid,
            now,
            epoch,
            &mut rng,
            &mut baseline_purchase,
        )
        .unwrap();
    assert_eq!(cost(&baseline_purchase), (3, 550, 205), "baseline purchase");

    let mut bdevice = sys.register_baseline_device(&mut rng).unwrap();
    let mut t = Transcript::new();
    play_identified(
        &alice,
        &mut bdevice,
        &sys.baseline,
        &blicense,
        now,
        &mut rng,
        &mut t,
    )
    .unwrap();
    assert_eq!(cost(&t), (3, 2243, 0), "baseline play");

    // Who is buying: the payment account and the RA-certified master key.
    let master_key = alice.card.master_public().modulus().to_bytes_be();
    for identity in [alice.account.as_bytes(), &master_key[..]] {
        assert!(baseline_purchase.scan_for(Party::Provider, identity));
        assert!(!purchase.scan_for(Party::Provider, identity));
    }
}

/// E2 (Table 2): storage under the fresh-pseudonym policy grows exactly
/// linearly in purchases — one license row and one card key per sale, no
/// spent ids (nothing was transferred).
#[test]
fn e2_storage_growth() {
    const LICENSE_BYTES: usize = 316;
    const CARD_KEY_BYTES: usize = 128;
    for n in [10usize, 50] {
        let mut rng = test_rng(0xE6 + n as u64);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("item", 100, &vec![0u8; 512], &mut rng);
        let budget = CardBudget {
            max_pseudonyms: n + 8,
        };
        let mut user = sys
            .register_user_with_budget("hoarder", budget, &mut rng)
            .unwrap();
        sys.fund(&user, 100 * n as u64);
        let license_bytes: usize = (0..n)
            .map(|_| {
                sys.purchase(&mut user, cid, &mut rng)
                    .unwrap()
                    .encoded_len()
            })
            .sum();

        assert_eq!(sys.provider.license_count(), n);
        assert_eq!(sys.provider.spent_count(), 0);
        assert_eq!(user.card.pseudonym_count(), n);
        assert_eq!(license_bytes, LICENSE_BYTES * n);
        // The card's master key plus one key per pseudonym.
        assert_eq!(user.card.memory_bytes(), CARD_KEY_BYTES * (n + 1));
    }
}
