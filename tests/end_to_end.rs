//! One journey at realistic key sizes, beside the model
//! (`tests/model.rs`), which runs every other flow at test key sizes.

use p2drm::prelude::*;

/// One consumer's journey at `SystemConfig::realistic()` key sizes, where
/// every RSA key (1024 bits) has three primes: a fresh pseudonym, a
/// purchase, three plays and a transfer over `Loopback`, then the
/// provider's keys through its vault encoding and back. The only test
/// that builds a system at these sizes; the 1024-bit key generation makes
/// it ~1.5 s unoptimised (2 vCPUs), and both escrow groups are constants.
#[test]
fn realistic_key_sizes_journey() {
    let mut rng = test_rng(9005);
    let mut sys = System::bootstrap(SystemConfig::realistic(), &mut rng);
    assert_eq!(sys.provider.public_key().modulus().bit_len(), 1024);
    let cid = sys.publish_content("Realistic Track", 100, b"realistic payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 1_000);

    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    assert_eq!(alice.pseudonym_certs().len(), 1, "a fresh pseudonym");
    assert_eq!(license.body.holder.modulus().bit_len(), 1024);
    assert!(license.verify(sys.provider.public_key()).is_ok());
    let mut device = sys.register_device(&mut rng).unwrap();
    for _ in 0..3 {
        let audio = sys.play(&alice, &mut device, &license, &mut rng).unwrap();
        assert_eq!(audio, b"realistic payload");
    }
    let resold = sys
        .transfer(&mut alice, &mut bob, license.id(), &mut rng)
        .unwrap();
    assert!(resold.verify(sys.provider.public_key()).is_ok());
    let mut bobs_device = sys.register_device(&mut rng).unwrap();
    assert!(sys.play(&bob, &mut bobs_device, &resold, &mut rng).is_ok());

    // The vault round trip: the reloaded key is the provider's key, and a
    // license it signs verifies under the provider's certificate — the
    // same signature the running provider gave (PKCS#1 v1.5 is
    // deterministic).
    let keys: p2drm::crypto::rsa::RsaKeyPair =
        p2drm::codec::from_bytes(&sys.provider.export_keys()).unwrap();
    assert_eq!(keys.public(), sys.provider.public_key());
    let certified = sys
        .provider
        .certificate()
        .body
        .subject_key
        .as_rsa()
        .unwrap();
    assert_eq!(certified, keys.public());
    let reissued = License::issue(resold.body.clone(), &keys);
    assert!(reissued.verify(certified).is_ok());
    assert_eq!(reissued, resold);
}
