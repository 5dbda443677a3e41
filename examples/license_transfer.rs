//! Second-hand license market: Alice sells her license to Bob through the
//! provider; the old anonymous license is revoked by its unique id, so
//! Alice's "backup copy" is dead — on the provider *and*, after a CRL
//! sync, on every compliant device.
//!
//! ```sh
//! cargo run --example license_transfer
//! ```

use p2drm::core::audit::{Party, Recording};
use p2drm::core::service::{Loopback, WireClient};
use p2drm::prelude::*;

fn main() {
    let mut rng = test_rng(1984);
    let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let album = system.publish_content("Collector's Album", 500, b"FLAC bits", &mut rng);

    let mut alice = system.register_user("alice", &mut rng).unwrap();
    let mut bob = system.register_user("bob", &mut rng).unwrap();
    system.fund(&alice, 1_000);
    system.fund(&bob, 1_000);

    let original = system.purchase(&mut alice, album, &mut rng).unwrap();
    println!("alice bought a license");
    let backup = original.clone();
    let alice_pseudonym = alice.licenses()[0].pseudonym;

    // The sale: provider reissues anonymously for Bob's pseudonym.
    let mut transcript = Transcript::new();
    system.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    let service = system.wire_service(2004);
    let resold = WireClient::new(Recording::new(Loopback::new(&service), &mut transcript))
        .transfer(&mut alice, &mut bob, original.id(), &mut rng)
        .unwrap();
    println!("\ntransfer transcript:");
    print!("{}", transcript.render());
    println!(
        "provider saw alice's identity: {}; bob's identity: {}",
        transcript.scan_for(Party::Provider, alice.user_id().as_bytes()),
        transcript.scan_for(Party::Provider, bob.user_id().as_bytes()),
    );
    println!("bob now holds a fresh license under a new id");

    // Bob can play.
    let mut bobs_tv = system.register_device(&mut rng).unwrap();
    assert!(system.play(&bob, &mut bobs_tv, &resold, &mut rng).is_ok());
    println!("bob plays fine on his device");

    // Alice restores her "backup" and tries to sell it again.
    alice.add_license(backup.clone(), alice_pseudonym);
    let mut carol = system.register_user("carol", &mut rng).unwrap();
    system.fund(&carol, 1_000);
    let double_sale = system.transfer(&mut alice, &mut carol, backup.id(), &mut rng);
    println!(
        "\nalice re-sells her backup to carol: {}",
        match double_sale {
            Err(e) => format!("REJECTED — {e}"),
            Ok(_) => "accepted (bug!)".into(),
        }
    );

    // And tries to keep playing it on a device that synced the CRL.
    let mut alices_player = system.register_device(&mut rng).unwrap();
    let now = system.now();
    let lic_crl = system.provider.signed_license_crl(now);
    let pseud_crl = system.provider.signed_pseudonym_crl(now);
    alices_player.sync_crls(&lic_crl, &pseud_crl).unwrap();
    let replay = system.play(&alice, &mut alices_player, &backup, &mut rng);
    println!(
        "alice plays her transferred-away license after CRL sync: {}",
        match replay {
            Err(e) => format!("REJECTED — {e}"),
            Ok(_) => "accepted (bug!)".into(),
        }
    );
}
