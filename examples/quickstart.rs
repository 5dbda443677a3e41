//! Quickstart: one user anonymously buys a track and plays it on a
//! compliant device, with the purchase transcript printed so you can see
//! exactly what the provider learns (and what it does not).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use p2drm::core::audit::Party;
use p2drm::prelude::*;

fn main() {
    let mut rng = test_rng(2004);
    println!("bootstrapping P2DRM system (root CA, RA, TTP, mint, provider)...");
    let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);

    let song = system.publish_content(
        "Demo Track",
        100,
        b"\x52\x49\x46\x46 demo audio payload",
        &mut rng,
    );
    println!("published content {song} at price 100\n");

    let mut alice = system.register_user("alice", &mut rng).unwrap();
    system.fund(&alice, 1_000);
    println!(
        "registered alice (user id {} — known only to RA/TTP)",
        alice.user_id()
    );

    let mut transcript = Transcript::new();
    let license = system
        .purchase_with_transcript(&mut alice, song, &mut rng, &mut transcript)
        .unwrap();
    println!("\nanonymous purchase transcript:");
    print!("{}", transcript.render());

    let leaked = transcript.scan_for(Party::Provider, alice.user_id().as_bytes());
    println!("\nprovider received alice's identity bytes: {leaked}");
    assert!(!leaked);

    println!(
        "license bound to alice's pseudonym with rights: {}",
        p2drm::rel::printer::print(&license.body.rights),
    );

    let mut player = system.register_device(&mut rng).unwrap();
    let audio = system
        .play(&alice, &mut player, &license, &mut rng)
        .unwrap();
    println!(
        "\ndevice {} played {} bytes; plays used: {}",
        player.device_id(),
        audio.len(),
        player.rights_state(&license).unwrap().plays_used
    );
}
