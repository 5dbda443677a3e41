//! Conditional anonymity end to end: Mallory double-sells a license, the
//! provider assembles cryptographic evidence, the TTP opens the identity
//! escrow, and Mallory's card is revoked — while forged accusations
//! against innocent users bounce off.
//!
//! ```sh
//! cargo run --example abuse_revocation
//! ```

use p2drm::core::protocol::messages::{transfer_proof_bytes, TransferRequest};
use p2drm::core::protocol::{deanonymize_and_punish, AbuseEvidence};
use p2drm::prelude::*;

fn main() {
    let mut rng = test_rng(1999);
    let mut system = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let movie = system.publish_content("Blockbuster", 500, b"mp4 bits", &mut rng);

    let mut mallory = system.register_user("mallory", &mut rng).unwrap();
    system.fund(&mallory, 1_000);
    let license = system.purchase(&mut mallory, movie, &mut rng).unwrap();
    let mallory_pseudonym = mallory.licenses()[0].pseudonym;
    let mallory_cert = mallory
        .pseudonym_certs()
        .iter()
        .find(|c| c.pseudonym_id() == mallory_pseudonym)
        .unwrap()
        .clone();
    println!("mallory bought a license under her pseudonym");

    // Mallory signs transfer authorizations toward TWO different buyers.
    let mut buyer1 = system.register_user("buyer1", &mut rng).unwrap();
    let mut buyer2 = system.register_user("buyer2", &mut rng).unwrap();
    system.ensure_pseudonym(&mut buyer1, &mut rng).unwrap();
    system.ensure_pseudonym(&mut buyer2, &mut rng).unwrap();
    let make_req = |recipient_cert: &p2drm::pki::cert::PseudonymCertificate| TransferRequest {
        license: license.clone(),
        recipient_cert: recipient_cert.clone(),
        proof: mallory
            .card
            .sign_with_pseudonym(
                &mallory_pseudonym,
                &transfer_proof_bytes(&license.id(), &recipient_cert.pseudonym_id()),
            )
            .unwrap(),
    };
    let req1 = make_req(buyer1.pseudonym_certs().last().unwrap());
    let req2 = make_req(buyer2.pseudonym_certs().last().unwrap());

    // First sale succeeds; the second hits the spent-ID store.
    let epoch = system.epoch();
    system
        .provider
        .handle_transfer(&req1, epoch, &mut rng)
        .unwrap();
    let second = system.provider.handle_transfer(&req2, epoch, &mut rng);
    println!(
        "second sale of the same license id: {}",
        second.unwrap_err()
    );

    // The two signed requests ARE the fraud proof.
    let evidence = AbuseEvidence::DoubleTransfer {
        first: req1,
        second: req2,
    };
    let mut transcript = Transcript::new();
    let unmasked = deanonymize_and_punish(
        &mut system.ttp,
        &system.ra,
        &system.provider,
        &evidence,
        &mallory_cert,
        &mut transcript,
    )
    .unwrap();
    println!("\nTTP opened the escrow: mallory's pseudonym belongs to user {unmasked}");
    assert_eq!(unmasked, mallory.user_id());
    println!(
        "RA card-CRL now has {} entry(ies)",
        system.ra.signed_card_crl(0).body.list.len()
    );

    // Mallory can no longer obtain pseudonyms (card revoked at the RA).
    let blocked = system.ensure_pseudonym(
        &mut {
            let mut m = mallory;
            m.set_policy(PseudonymPolicy::FreshPerPurchase);
            // Force a fresh pseudonym to be requested.
            for _ in 0..1 {
                m.note_pseudonym_use();
            }
            m
        },
        &mut rng,
    );
    println!(
        "mallory requests a new pseudonym: {}",
        match blocked {
            Err(e) => format!("REFUSED — {e}"),
            Ok(()) => "granted (bug!)".into(),
        }
    );

    // A forged accusation against an innocent user goes nowhere.
    let mut innocent = system.register_user("innocent", &mut rng).unwrap();
    system.ensure_pseudonym(&mut innocent, &mut rng).unwrap();
    let innocent_cert = innocent.pseudonym_certs().last().unwrap().clone();
    let mut t2 = Transcript::new();
    let framed = deanonymize_and_punish(
        &mut system.ttp,
        &system.ra,
        &system.provider,
        &evidence,
        &innocent_cert,
        &mut t2,
    );
    println!(
        "\nframing an innocent pseudonym with mismatched evidence: {}",
        match framed {
            Err(e) => format!("REFUSED — {e}"),
            Ok(_) => "accepted (bug!)".into(),
        }
    );
    println!("TTP audit log entries: {}", system.ttp.audit_log().len());
}
