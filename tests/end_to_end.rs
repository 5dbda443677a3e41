//! Workspace-level integration: the full license lifecycle across every
//! crate — registration, blind issuance, anonymous purchase, repeated
//! playback to exhaustion, transfer, double-redeem rejection, abuse
//! de-anonymization, and post-revocation lockout.

use p2drm::core::protocol::messages::{transfer_proof_bytes, TransferRequest};
use p2drm::core::protocol::{deanonymize_and_punish, AbuseEvidence};
use p2drm::core::CoreError;
use p2drm::prelude::*;

#[test]
fn full_license_lifecycle() {
    let mut rng = test_rng(9001);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Lifecycle Track", 100, b"lifecycle payload", &mut rng);

    // 1. Register + fund.
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 10_000);
    sys.fund(&bob, 10_000);

    // 2. Anonymous purchase.
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    assert!(license.verify(sys.provider.public_key()).is_ok());
    assert_eq!(sys.mint.deposited_total(), 100);

    // 3. Play to exhaustion (fast_test grants 3 plays).
    let mut device = sys.register_device(&mut rng).unwrap();
    for _ in 0..3 {
        let audio = sys.play(&alice, &mut device, &license, &mut rng).unwrap();
        assert_eq!(audio, b"lifecycle payload");
    }
    assert!(matches!(
        sys.play(&alice, &mut device, &license, &mut rng),
        Err(WireError::Client(CoreError::Denied(_)))
    ));

    // 4. Transfer to Bob; Bob plays on his own device.
    let resold = sys
        .transfer(&mut alice, &mut bob, license.id(), &mut rng)
        .unwrap();
    let mut bobs_device = sys.register_device(&mut rng).unwrap();
    assert!(sys.play(&bob, &mut bobs_device, &resold, &mut rng).is_ok());

    // 5. Alice's stale copy is rejected on transfer AND (post CRL sync)
    //    on playback.
    let mut carol = sys.register_user("carol", &mut rng).unwrap();
    sys.fund(&carol, 1_000);
    alice.add_license(license.clone(), alice_pseudonym_of(&alice, &license));
    assert!(matches!(
        sys.transfer(&mut alice, &mut carol, license.id(), &mut rng),
        Err(WireError::Api(e)) if e.code == ApiErrorCode::AlreadyRedeemed
    ));
    let now = sys.now();
    let lic_crl = sys.provider.signed_license_crl(now);
    let pseud_crl = sys.provider.signed_pseudonym_crl(now);
    let mut fresh_device = sys.register_device(&mut rng).unwrap();
    fresh_device.sync_crls(&lic_crl, &pseud_crl).unwrap();
    assert!(matches!(
        sys.play(&alice, &mut fresh_device, &license, &mut rng),
        Err(WireError::Client(CoreError::Revoked("license")))
    ));
}

/// Finds the pseudonym a (possibly removed) license was bound to by
/// matching holder keys against the user's certificates.
fn alice_pseudonym_of(user: &UserAgent, license: &License) -> p2drm::pki::cert::KeyId {
    let holder = p2drm::pki::cert::KeyId::of_rsa(&license.body.holder);
    user.pseudonym_certs()
        .iter()
        .map(|c| c.pseudonym_id())
        .find(|id| *id == holder)
        .expect("license was bound to one of the user's pseudonyms")
}

#[test]
fn abuse_pipeline_end_to_end() {
    let mut rng = test_rng(9002);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Fraud Bait", 100, b"bits", &mut rng);

    let mut mallory = sys.register_user("mallory", &mut rng).unwrap();
    sys.fund(&mallory, 1_000);
    let license = sys.purchase(&mut mallory, cid, &mut rng).unwrap();
    let mallory_pseudonym = mallory.licenses()[0].pseudonym;
    let mallory_cert = mallory
        .pseudonym_certs()
        .iter()
        .find(|c| c.pseudonym_id() == mallory_pseudonym)
        .unwrap()
        .clone();

    // Double-sale requests as fraud evidence.
    let mut b1 = sys.register_user("b1", &mut rng).unwrap();
    let mut b2 = sys.register_user("b2", &mut rng).unwrap();
    sys.ensure_pseudonym(&mut b1, &mut rng).unwrap();
    sys.ensure_pseudonym(&mut b2, &mut rng).unwrap();
    let mk = |cert: &p2drm::pki::cert::PseudonymCertificate| TransferRequest {
        license: license.clone(),
        recipient_cert: cert.clone(),
        proof: mallory
            .card
            .sign_with_pseudonym(
                &mallory_pseudonym,
                &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
            )
            .unwrap(),
    };
    let req1 = mk(b1.pseudonym_certs().last().unwrap());
    let req2 = mk(b2.pseudonym_certs().last().unwrap());
    let epoch = sys.epoch();
    sys.provider
        .handle_transfer(&req1, epoch, &mut rng)
        .unwrap();
    assert!(sys
        .provider
        .handle_transfer(&req2, epoch, &mut rng)
        .is_err());

    let mut t = Transcript::new();
    let unmasked = deanonymize_and_punish(
        &mut sys.ttp,
        &sys.ra,
        &sys.provider,
        &AbuseEvidence::DoubleTransfer {
            first: req1,
            second: req2,
        },
        &mallory_cert,
        &mut t,
    )
    .unwrap();
    assert_eq!(unmasked, mallory.user_id());

    // Revoked card: no new pseudonyms, hence no new purchases.
    mallory.note_pseudonym_use(); // exhaust current fresh-policy pseudonym
    assert!(matches!(
        sys.ensure_pseudonym(&mut mallory, &mut rng),
        Err(CoreError::Revoked(_))
    ));
}

#[test]
fn coins_are_single_use_across_the_whole_system() {
    // Craft a purchase that tries to reuse a deposited coin.
    let mut rng = test_rng(9003);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Coin Test", 100, b"x", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);

    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let cert = alice.current_pseudonym().unwrap().clone();
    let account = alice.account.clone();
    let coin = alice
        .wallet
        .withdraw(&sys.mint, &account, 100, &mut rng)
        .unwrap();
    let req = p2drm::core::protocol::messages::PurchaseRequest {
        content_id: cid,
        pseudonym_cert: cert,
        coin,
        attribute_cert: None,
    };
    let epoch = sys.epoch();
    assert!(sys.provider.handle_purchase(&req, epoch, &mut rng).is_ok());
    // Same coin again — the mint's spent store refuses.
    let res = sys.provider.handle_purchase(&req, epoch, &mut rng);
    assert!(matches!(
        res,
        Err(CoreError::Payment(
            p2drm::payment::PaymentError::DoubleSpend
        ))
    ));
}

#[test]
fn multi_user_multi_content_session() {
    // A small population exercising every flow in one session.
    let mut rng = test_rng(9004);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let catalog: Vec<ContentId> = (0..4)
        .map(|i| {
            sys.publish_content(
                &format!("c{i}"),
                100,
                format!("payload-{i}").as_bytes(),
                &mut rng,
            )
        })
        .collect();

    let mut users: Vec<UserAgent> = (0..4)
        .map(|i| {
            let mut u = sys.register_user(&format!("u{i}"), &mut rng).unwrap();
            u.set_policy(PseudonymPolicy::ReuseK(2));
            sys.fund(&u, 10_000);
            u
        })
        .collect();

    let mut device = sys.register_device(&mut rng).unwrap();
    let mut licenses = Vec::new();
    for (i, user) in users.iter_mut().enumerate() {
        for &cid in catalog.iter().skip(i % 2) {
            licenses.push((i, sys.purchase(user, cid, &mut rng).unwrap()));
        }
    }
    // Everyone plays their own first license.
    for (i, lic) in &licenses {
        if licenses.iter().find(|(j, _)| j == i).map(|(_, l)| l.id()) == Some(lic.id()) {
            let audio = sys.play(&users[*i], &mut device, lic, &mut rng).unwrap();
            assert!(audio.starts_with(b"payload-"));
        }
    }
    assert_eq!(sys.provider.license_count(), licenses.len());
    // Provider's log knows pseudonyms only.
    for user in &users {
        for rec in sys.provider.purchase_log() {
            assert_ne!(rec.pseudonym.0[..16], user.user_id().0);
        }
    }
}
