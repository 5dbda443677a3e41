//! TCP service: the anonymous-purchase-and-play flow over **real
//! sockets** — a `DrmServer` bound to a loopback port serving the wire
//! envelopes through its worker pool, and a `WireClient` whose
//! transport is a keep-alive `TcpTransport` connection. This is the
//! deployment shape the paper assumes: client and provider are separate
//! parties that only ever exchange network messages.
//!
//! ```sh
//! cargo run --example tcp_service
//! ```

use p2drm::core::service::{snapshot_from_dump, WireClient};
use p2drm::net::{DrmServer, NetConfig, TcpTransport};
use p2drm::obs::Registry;
use p2drm::prelude::*;
use std::sync::Arc;

fn main() {
    let mut rng = test_rng(6109);
    println!("bootstrapping P2DRM system (root CA, RA, TTP, mint, provider)...");
    let mut system = System::bootstrap(
        SystemConfig {
            // Expose the wire MetricsDump op (off by default).
            metrics_dump: true,
            ..SystemConfig::fast_test()
        },
        &mut rng,
    );

    let song = system.publish_content("Socket Track", 100, b"networked audio", &mut rng);
    let mut alice = system.register_user("alice", &mut rng).unwrap();
    system.fund(&alice, 1_000);
    let mut player = system.register_device(&mut rng).unwrap();

    // Boot the real server: port 0 lets the OS pick, the service owns
    // shared handles to the same provider/RA the system keeps using. A
    // private metrics registry collects the service's per-op latency
    // histograms together with the server's own counters.
    let registry = Arc::new(Registry::new());
    let service = system.wire_service_with_registry(0x6109, registry.clone());
    service.set_tracing(true);
    let server = DrmServer::bind(
        "127.0.0.1:0",
        service,
        NetConfig {
            registry: Some(registry),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.local_addr();
    println!("DrmServer listening on {addr} (length-prefixed frames, worker pool)\n");

    // Dial it and run the whole flow through the socket.
    let transport = TcpTransport::connect(addr).expect("connect to server");
    let mut client = WireClient::new(transport);
    client.set_epoch(system.epoch());

    let listing = client.catalog().unwrap();
    println!(
        "catalog over TCP: {} item(s), first = {:?} at price {}",
        listing.len(),
        listing[0].title,
        listing[0].price
    );

    client
        .obtain_pseudonym(
            &mut alice,
            system.ra.blind_public(),
            system.ttp.escrow_key(),
            &mut rng,
        )
        .unwrap();
    println!("blind pseudonym issued over TCP");

    let license = client
        .purchase(&mut alice, &system.mint, song, &mut rng)
        .unwrap();
    println!("anonymous purchase over TCP (the server saw a pseudonym and a coin)");

    // Play: card↔device rounds stay on this side of the socket; only
    // the anonymous download crosses it.
    let audio = client
        .play(&alice, &mut player, &license, &mut rng)
        .unwrap();
    assert_eq!(audio, b"networked audio");
    println!(
        "playback through the TCP download path: {} bytes decrypted",
        audio.len()
    );

    // Pull the unified snapshot over the wire: one MetricsDump op
    // returns every subsystem's counters and latency histograms (static
    // names, durations and counts — nothing a client could link to a
    // pseudonym), plus recent correlation-id spans.
    let dump = client.metrics_dump().unwrap();
    let snapshot = snapshot_from_dump(&dump);
    println!(
        "\nunified snapshot over the wire ({} spans kept):",
        dump.spans.len()
    );
    for line in snapshot.to_text().lines() {
        if !line.contains("count=0") {
            println!("  {line}");
        }
    }
    assert!(snapshot.counter("service_requests").unwrap_or(0) >= 4);
    assert!(snapshot.histogram("service_purchase_ns").is_some());

    // Graceful shutdown drains in-flight work, joins every thread and
    // hands back the final counters (same exposition format).
    let metrics = server.shutdown();
    println!("\nserver metrics after shutdown:\n{metrics}");
    assert!(
        metrics.requests_served >= 4,
        "catalog ×2, issue, purchase, download"
    );
    assert_eq!(metrics.busy_rejections, 0);
    assert_eq!(metrics.decode_errors, 0);

    println!("tcp service example complete.");
}
