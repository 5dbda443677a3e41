//! Direct license revocation (refund / abuse takedown): the provider
//! revokes a sold license by its unique id. The id is claimed in the
//! spent-ID store *and* listed on the license CRL, so the license can
//! never be transferred again — even by a request racing the revocation —
//! and compliant devices refuse playback after their next CRL sync.
//!
//! ```sh
//! cargo run --example license_revocation
//! ```

use p2drm::prelude::*;

fn main() {
    let mut rng = test_rng(2004);
    let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let film = system.publish_content("Recalled Film", 500, b"mp4 bits", &mut rng);

    let mut alice = system.register_user("alice", &mut rng).unwrap();
    let mut bob = system.register_user("bob", &mut rng).unwrap();
    system.fund(&alice, 1_000);
    system.ensure_pseudonym(&mut bob, &mut rng).unwrap();

    let license = system.purchase(&mut alice, film, &mut rng).unwrap();
    println!("alice bought a license");

    let mut device = system.register_device(&mut rng).unwrap();
    let payload = system
        .play(&alice, &mut device, &license, &mut rng)
        .unwrap();
    println!("before revocation alice plays {} bytes fine", payload.len());

    // Refund granted: the provider revokes the license id outright.
    system.provider.revoke_license(&license.id()).unwrap();
    let crl = system.provider.signed_license_crl(system.now()).body;
    println!(
        "provider revoked the license; spent ids: {}, license CRL entries: {}",
        system.provider.spent_count(),
        crl.list.len()
    );

    // Any later transfer attempt dies on the spent-ID store.
    match system.transfer(&mut alice, &mut bob, license.id(), &mut rng) {
        Err(WireError::Api(e)) if e.code == ApiErrorCode::AlreadyRedeemed => {
            println!("alice resells after her refund: REJECTED — {e}")
        }
        other => panic!("revoked license must not transfer: {other:?}"),
    }

    // After a CRL sync, devices refuse it too.
    let now = system.now();
    let lic_crl = system.provider.signed_license_crl(now);
    let pseud_crl = system.provider.signed_pseudonym_crl(now);
    device.sync_crls(&lic_crl, &pseud_crl).unwrap();
    match system.play(&alice, &mut device, &license, &mut rng) {
        Err(WireError::Client(CoreError::Revoked(what))) => {
            println!("playback after CRL sync: REJECTED — revoked {what}")
        }
        other => panic!("revoked license must not play: {other:?}"),
    }
}
