//! Wire service: the whole anonymous-purchase-and-play flow driven
//! through **serialized bytes** — a `ProviderService` fronting the
//! provider + RA, and a `WireClient` speaking the versioned envelope
//! format over an in-process loopback transport. This is exactly what a
//! networked deployment would exchange; only the socket is missing.
//!
//! ```sh
//! cargo run --example wire_service
//! ```

use p2drm::core::protocol::messages::CatalogRequest;
use p2drm::core::service::{
    ApiErrorCode, Loopback, RequestEnvelope, WireClient, WireError, WireRequest, WIRE_VERSION,
};
use p2drm::prelude::*;

fn main() {
    let mut rng = test_rng(2024);
    println!("bootstrapping P2DRM system (root CA, RA, TTP, mint, provider)...");
    let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);

    let song = system.publish_content("Wire Track", 100, b"serialized audio", &mut rng);
    let mut alice = system.register_user("alice", &mut rng).unwrap();
    system.fund(&alice, 1_000);
    let mut player = system.register_device(&mut rng).unwrap();

    // Stand up the byte-level service and a typed client over loopback.
    let service = system.wire_service(0x2004);
    let mut client = WireClient::new(Loopback::new(&service));
    client.set_epoch(system.epoch());
    println!(
        "wire service up (version {WIRE_VERSION}); every call below is encode -> dispatch -> decode\n"
    );

    // Show the raw envelope once: a catalog listing request.
    let probe = RequestEnvelope {
        correlation_id: 42,
        body: WireRequest::Catalog(CatalogRequest { content_id: None }),
    };
    let probe_bytes = probe.to_bytes();
    println!(
        "catalog request on the wire: {} bytes, header = version {:#04x} | op {:#04x} | correlation {:?}",
        probe_bytes.len(),
        probe_bytes[0],
        probe_bytes[1],
        u64::from_le_bytes(probe_bytes[2..10].try_into().unwrap()),
    );

    let listing = client.catalog().unwrap();
    println!(
        "catalog answered: {} item(s), first = {:?} at price {}\n",
        listing.len(),
        listing[0].title,
        listing[0].price
    );

    // Blind pseudonym issuance: card blinds locally, RA signs blind, the
    // certificate never appears on the wire.
    client
        .obtain_pseudonym(
            &mut alice,
            system.ra.blind_public(),
            system.ttp.escrow_key(),
            &mut rng,
        )
        .unwrap();
    println!("blind pseudonym issued over the wire");

    // Anonymous purchase: quote, coin, one request/response pair.
    let license = client
        .purchase(&mut alice, &system.mint, song, &mut rng)
        .unwrap();
    println!("anonymous purchase over the wire (provider saw a pseudonym and a coin)");

    // Play: challenge/proof/key-release stay between card and device;
    // only the anonymous download crosses the wire.
    let audio = client
        .play(&alice, &mut player, &license, &mut rng)
        .unwrap();
    assert_eq!(audio, b"serialized audio");
    println!(
        "playback through the wire download path: {} bytes decrypted",
        audio.len()
    );

    // Malformed bytes get error responses with stable codes, not panics.
    let mut mangled = probe_bytes.clone();
    mangled[0] = 9; // unknown version
    let reply = service.handle(&mangled);
    let envelope = p2drm::core::service::ResponseEnvelope::from_bytes(&reply).unwrap();
    println!(
        "\nhostile input handling: version-9 request answered with a well-formed error ({:?})",
        match envelope.body {
            p2drm::core::service::WireResponse::Error(e) => e.code,
            _ => unreachable!("version 9 must be rejected"),
        }
    );

    // Double-redeem over the wire is refused with the stable code 51.
    let mut bob = system.register_user("bob", &mut rng).unwrap();
    let mut carol = system.register_user("carol", &mut rng).unwrap();
    system.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    system.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let saved = license.clone();
    let alice_pseudonym = alice.licenses()[0].pseudonym;
    client
        .transfer(&mut alice, &mut bob, license.id(), &mut rng)
        .unwrap();
    alice.add_license(saved, alice_pseudonym);
    match client.transfer(&mut alice, &mut carol, license.id(), &mut rng) {
        Err(WireError::Api(e)) if e.code == ApiErrorCode::AlreadyRedeemed => println!(
            "double-redeem over the wire rejected: code {} ({})",
            e.code.code(),
            e.code
        ),
        other => panic!("double redeem must fail with AlreadyRedeemed, got {other:?}"),
    }

    println!("\nwire service example complete.");
}
