//! Cross-crate privacy property tests — the paper's claims as assertions.
//!
//! Each test corresponds to a row of the claims table in DESIGN.md §4.3.

use p2drm::core::audit::{Party, Recording};
use p2drm::core::protocol::messages::PseudonymIssueRequest;
use p2drm::core::service::{Loopback, WireClient};
use p2drm::core::LicenseRecord;
use p2drm::prelude::*;
use p2drm::store::ConcurrentKv;

/// Claim: the provider learns nothing identifying — over one whole
/// journey (catalogue, purchase, CRL sync, download, license status,
/// transfer), no payload it receives contains either party's user id,
/// card id, account or master key.
#[test]
fn provider_view_is_identity_free() {
    let mut rng = test_rng(7001);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 10_000);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    let mut device = sys.register_device(&mut rng).unwrap();

    let mut t = Transcript::new();
    let service = sys.wire_service(7001);
    let mut client = WireClient::new(Recording::new(Loopback::new(&service), &mut t));
    client.catalog().unwrap();
    let license = client
        .purchase(&mut alice, &sys.mint, cid, &mut rng)
        .unwrap();
    client.sync_crls(&mut device).unwrap();
    client
        .play(&alice, &mut device, &license, &mut rng)
        .unwrap();
    client.license_status(license.id()).unwrap();
    client
        .transfer(&mut alice, &mut bob, license.id(), &mut rng)
        .unwrap();
    drop(client);

    let received: std::collections::BTreeSet<&str> = t
        .entries()
        .iter()
        .filter(|e| e.to == Party::Provider)
        .map(|e| e.label)
        .collect();
    assert_eq!(
        received.into_iter().collect::<Vec<_>>(),
        [
            "catalog",
            "crl-sync",
            "download",
            "license-status",
            "purchase",
            "transfer"
        ]
    );
    for user in [&alice, &bob] {
        let needles: [Vec<u8>; 4] = [
            user.user_id().as_bytes().to_vec(),
            user.account.as_bytes().to_vec(),
            user.card.master_public().modulus().to_bytes_be(),
            user.card.card_id().as_bytes().to_vec(),
        ];
        for needle in &needles {
            assert!(
                !t.scan_for(Party::Provider, needle),
                "identity-adjacent bytes reached the provider"
            );
        }
    }
}

/// Claim: distinct purchases under the fresh policy are pairwise
/// unlinkable — each uses a distinct pseudonym, and the RA (who knows the
/// identity) never sees any pseudonym it could hand to the provider.
#[test]
fn fresh_purchases_use_distinct_pseudonyms_unknown_to_ra() {
    let mut rng = test_rng(7002);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"p", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 10_000);

    // Each purchase's pseudonym is issued first, recording what the RA
    // receives.
    let mut t = Transcript::new();
    for _ in 0..4 {
        p2drm::core::protocol::obtain_pseudonym(
            &mut alice,
            &sys.ra,
            sys.ttp.escrow_key(),
            sys.epoch(),
            sys.now(),
            &mut rng,
            &mut t,
        )
        .unwrap();
        sys.purchase(&mut alice, cid, &mut rng).unwrap();
    }
    // All pseudonyms distinct: the holder key ids of the provider's
    // `lic/` rows, one row per sale.
    let rows = sys.provider.store().scan_prefix(b"lic/");
    assert_eq!(rows.len(), 4);
    let mut seen = std::collections::BTreeSet::new();
    for (_, row) in &rows {
        let holder = p2drm::codec::from_bytes::<LicenseRecord>(row)
            .unwrap()
            .holder;
        assert!(seen.insert(holder), "pseudonym reused under fresh policy");
    }
    // The RA's complete issuance view (the four requests it received)
    // contains none of the pseudonym moduli the provider saw.
    let received: Vec<PseudonymIssueRequest> = t
        .entries()
        .iter()
        .filter(|e| e.to == Party::Ra && e.label == "pseudonym-issue-request")
        .map(|e| p2drm::codec::from_bytes(&e.bytes).unwrap())
        .collect();
    assert_eq!(received.len(), 4);
    assert_eq!(alice.pseudonym_certs().len(), 4);
    for cert in alice.pseudonym_certs() {
        let modulus = cert.body.pseudonym_key.modulus().to_bytes_be();
        assert!(
            !t.scan_for(Party::Ra, &modulus),
            "a request the RA received contains a pseudonym modulus"
        );
    }
}

/// Claim: licenses are anonymous — the canonical license bytes carry no
/// identity even though the provider signed them.
#[test]
fn license_bytes_are_identity_free() {
    let mut rng = test_rng(7003);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"p", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let bytes = p2drm::codec::to_bytes(&license);
    let uid = alice.user_id();
    assert!(!bytes.windows(16).any(|w| w == uid.as_bytes()));
}

/// Contrast claim: the baseline leaks exactly the things P2DRM protects.
#[test]
fn baseline_contrast() {
    let mut rng = test_rng(7004);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let bid = sys.publish_baseline_content("x", 100, b"p", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);

    let mut t = Transcript::new();
    let ra_key = sys.ra.identity_public().clone();
    let now = sys.now();
    let epoch = sys.epoch();
    sys.baseline
        .purchase_identified(&mut alice, &ra_key, bid, now, epoch, &mut rng, &mut t)
        .unwrap();

    // The account name reaches the provider in the baseline...
    assert!(t.scan_for(Party::Provider, alice.account.as_bytes()));
    // ...and the provider log links account -> content.
    assert_eq!(sys.baseline.purchase_log()[0].0, alice.account);
}

/// Claim: the TTP alone can open escrows; the provider cannot decrypt the
/// escrow blob it sees inside pseudonym certificates.
#[test]
fn escrow_opaque_to_non_ttp() {
    let mut rng = test_rng(7005);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let cert = alice.pseudonym_certs().last().unwrap();

    // The escrow bytes never contain the user id in the clear.
    let escrow_bytes = p2drm::codec::to_bytes(&cert.body.escrow);
    assert!(!escrow_bytes
        .windows(16)
        .any(|w| w == alice.user_id().as_bytes()));

    // A different ElGamal key (same group) cannot decrypt it.
    let imposter = p2drm::crypto::elgamal::ElGamalKeyPair::generate(
        p2drm::crypto::elgamal::ElGamalGroup::test_512(),
        &mut rng,
    );
    assert!(imposter.decrypt(&cert.body.escrow).is_err());
}

/// Claim: device compliance — wrong-device bindings and expired windows
/// are enforced regardless of who asks.
#[test]
fn device_binding_enforced() {
    let mut rng = test_rng(7006);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let mut device_a = sys.register_device(&mut rng).unwrap();
    let mut device_b = sys.register_device(&mut rng).unwrap();

    // Publish content whose rights bind to device A only.
    let rights = Rights::builder()
        .play(Limit::Unlimited)
        .device(device_a.binding_id())
        .build();
    let cid = sys
        .provider
        .publish("bound", 100, b"payload", rights, &mut rng);

    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();

    assert!(sys.play(&alice, &mut device_a, &license, &mut rng).is_ok());
    assert!(matches!(
        sys.play(&alice, &mut device_b, &license, &mut rng),
        Err(WireError::Client(CoreError::Denied(
            p2drm::rel::DenyReason::WrongDevice
        )))
    ));
}
