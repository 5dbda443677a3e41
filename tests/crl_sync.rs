//! CRL synchronization integration: a device refuses a rolled-back or
//! badly signed pair of lists and keeps enforcing what it holds. Which
//! device enforces which revocation is the model's (`tests/model.rs`).

use p2drm::bignum::UBig;
use p2drm::crypto::rsa::{RsaKeyPair, RsaSignature};
use p2drm::pki::{PkiError, SignedCrl};
use p2drm::prelude::*;

#[test]
fn stale_full_sync_rejected_after_newer_sync() {
    let mut rng = test_rng(5004);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let lic = sys.purchase(&mut alice, cid, &mut rng).unwrap();

    let mut device = sys.register_device(&mut rng).unwrap();
    // Capture a CRL snapshot at seq 0, then move the provider forward.
    let old_lic_crl = sys.provider.signed_license_crl(1);
    let old_pseud_crl = sys.provider.signed_pseudonym_crl(1);
    sys.provider.revoke_license(&lic.id()).unwrap();
    device
        .sync_crls(
            &sys.provider.signed_license_crl(2),
            &sys.provider.signed_pseudonym_crl(2),
        )
        .unwrap();

    // An attacker replays the old (pre-revocation) pair: refused, and the
    // revocation still holds.
    assert!(matches!(
        device.sync_crls(&old_lic_crl, &old_pseud_crl),
        Err(CoreError::BadLicense("stale CRL rejected"))
    ));
    assert!(matches!(
        sys.play(&alice, &mut device, &lic, &mut rng),
        Err(WireError::Client(CoreError::Revoked("license")))
    ));
}

#[test]
fn refused_pair_leaves_lists_and_sequences_untouched() {
    let mut rng = test_rng(5005);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let l1 = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let l2 = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let l3 = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let pseudonym_of = |lic: &License| alice.license(&lic.id()).unwrap().pseudonym;
    let mut device = sys.register_device(&mut rng).unwrap();

    // Pair A (both sequences 1) is what the device holds.
    sys.provider.revoke_license(&l1.id()).unwrap();
    sys.provider.revoke_pseudonym(pseudonym_of(&l1)).unwrap();
    let held = (
        sys.provider.signed_license_crl(10),
        sys.provider.signed_pseudonym_crl(10),
    );
    device.sync_crls(&held.0, &held.1).unwrap();

    // Pair B (both sequences 2) also revokes l2 and l3's pseudonym.
    sys.provider.revoke_license(&l2.id()).unwrap();
    sys.provider.revoke_pseudonym(pseudonym_of(&l3)).unwrap();
    let newer = (
        sys.provider.signed_license_crl(20),
        sys.provider.signed_pseudonym_crl(20),
    );
    assert_eq!((newer.0.sequence, newer.1.sequence), (2, 2));

    // B with one signature byte of its *second* list flipped.
    let mut flipped = newer.1.clone();
    let mut sig = flipped.signature.to_bytes();
    sig[7] ^= 0x10;
    flipped.signature = RsaSignature::from_ubig(UBig::from_bytes_be(&sig));
    // B's contents and sequences, signed by a key that is not the provider's.
    let stranger = RsaKeyPair::generate(512, &mut rng);
    let forged = (
        SignedCrl::create(&stranger, 2, 20, newer.0.list.clone()),
        SignedCrl::create(&stranger, 2, 20, newer.1.list.clone()),
    );

    let refusals = [
        (&newer.0, &flipped, PkiError::BadSignature),
        (&forged.0, &forged.1, PkiError::UnknownIssuer),
        (&newer.0, &forged.1, PkiError::UnknownIssuer),
    ];
    for (license_crl, pseudonym_crl, expect) in refusals {
        match device.sync_crls(license_crl, pseudonym_crl) {
            Err(CoreError::Pki(e)) => assert_eq!(e, expect),
            other => panic!("expected {expect:?}, got {other:?}"),
        }
        // Neither list moved: what only B revokes still plays, what A
        // revokes is still refused.
        assert!(sys.play(&alice, &mut device, &l2, &mut rng).is_ok());
        assert!(sys.play(&alice, &mut device, &l3, &mut rng).is_ok());
        assert!(matches!(
            sys.play(&alice, &mut device, &l1, &mut rng),
            Err(WireError::Client(CoreError::Revoked("license")))
        ));
        // Neither sequence moved: pair A is not stale, which it would be
        // had either sequence advanced to B's.
        assert_eq!(device.crl_sequence(), 1);
        device.sync_crls(&held.0, &held.1).unwrap();
    }

    // The genuine pair B is accepted and enforced.
    device.sync_crls(&newer.0, &newer.1).unwrap();
    assert_eq!(device.crl_sequence(), 2);
    assert!(matches!(
        sys.play(&alice, &mut device, &l2, &mut rng),
        Err(WireError::Client(CoreError::Revoked("license")))
    ));
    assert!(matches!(
        sys.play(&alice, &mut device, &l3, &mut rng),
        Err(WireError::Client(CoreError::Revoked("pseudonym")))
    ));
}
