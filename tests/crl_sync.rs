//! CRL synchronization integration: full syncs, incremental deltas,
//! rollback protection, and enforcement parity between the two paths.

use p2drm::core::CoreError;
use p2drm::prelude::*;

#[test]
fn delta_sync_enforces_like_full_sync() {
    let mut rng = test_rng(5001);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let l1 = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let l2 = sys.purchase(&mut alice, cid, &mut rng).unwrap();

    // Two devices: one full-syncs, one delta-syncs.
    let mut full_dev = sys.register_device(&mut rng).unwrap();
    let mut delta_dev = sys.register_device(&mut rng).unwrap();

    sys.provider.revoke_license(&l1.id()).unwrap();
    let now = sys.now();
    full_dev
        .sync_crls(
            &sys.provider.signed_license_crl(now),
            &sys.provider.signed_pseudonym_crl(now),
        )
        .unwrap();
    let delta = sys.provider.license_crl_delta(0, now);
    delta_dev.apply_license_crl_delta(&delta).unwrap();

    // Both reject the revoked license, both accept the live one.
    for dev in [&mut full_dev, &mut delta_dev] {
        assert!(matches!(
            sys.play(&alice, dev, &l1, &mut rng),
            Err(WireError::Client(CoreError::Revoked("license")))
        ));
        assert!(sys.play(&alice, dev, &l2, &mut rng).is_ok());
    }
    assert_eq!(full_dev.crl_sequence(), delta_dev.crl_sequence());
}

#[test]
fn chained_deltas_track_running_provider() {
    let mut rng = test_rng(5002);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 10_000);
    let mut device = sys.register_device(&mut rng).unwrap();

    let mut synced_seq = 0;
    let mut revoked = Vec::new();
    for round in 0..3 {
        // Revoke a couple more licenses each round.
        for _ in 0..2 {
            let lic = sys.purchase(&mut alice, cid, &mut rng).unwrap();
            sys.provider.revoke_license(&lic.id()).unwrap();
            revoked.push(lic);
        }
        let delta = sys.provider.license_crl_delta(synced_seq, sys.now());
        assert_eq!(delta.added.len(), 2, "round {round} delta is incremental");
        device.apply_license_crl_delta(&delta).unwrap();
        synced_seq = delta.to_sequence;
    }
    // Every revoked license is rejected on the delta-synced device.
    for lic in &revoked {
        assert!(matches!(
            sys.play(&alice, &mut device, lic, &mut rng),
            Err(WireError::Client(CoreError::Revoked("license")))
        ));
    }
}

#[test]
fn gap_and_replay_deltas_rejected() {
    let mut rng = test_rng(5003);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let l1 = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let l2 = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    sys.provider.revoke_license(&l1.id()).unwrap();
    sys.provider.revoke_license(&l2.id()).unwrap();

    let mut device = sys.register_device(&mut rng).unwrap();
    // Delta starting past the device's sequence (gap) is refused.
    let gap_delta = sys.provider.license_crl_delta(1, sys.now());
    assert!(device.apply_license_crl_delta(&gap_delta).is_err());
    // Correct delta applies...
    let good = sys.provider.license_crl_delta(0, sys.now());
    device.apply_license_crl_delta(&good).unwrap();
    // ...and replaying it is refused.
    assert!(device.apply_license_crl_delta(&good).is_err());
}

#[test]
fn stale_full_sync_rejected_after_delta() {
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
    let delta = sys.provider.license_crl_delta(0, 2);
    device.apply_license_crl_delta(&delta).unwrap();

    // An attacker replays the old (pre-revocation) full CRL: refused.
    assert!(matches!(
        device.sync_crls(&old_lic_crl, &old_pseud_crl),
        Err(CoreError::BadLicense("stale CRL rejected"))
    ));
}
