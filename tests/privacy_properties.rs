//! Privacy claims the model's views do not state: the identified
//! baseline's leak, the escrow's opacity to all but the TTP, and device
//! binding. What the provider and the RA receive on every op — no
//! identity bytes, the labels each op delivers, no recurrence its view
//! does not explain — is checked by `tests/model.rs` against
//! `tests/model/spec.rs`'s per-op `View`.

use p2drm::core::audit::Party;
use p2drm::prelude::*;

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
        .publish("bound", 100, b"payload", rights, &mut rng)
        .unwrap();

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
