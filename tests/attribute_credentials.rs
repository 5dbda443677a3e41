//! Integration tests for blind attribute credentials ("private
//! credentials"): age-rated content purchasable only with an "adult"
//! credential bound to the purchasing pseudonym — and still no identity
//! reaches the provider.

use p2drm::core::audit::Party;
use p2drm::core::CoreError;
use p2drm::prelude::*;

#[test]
fn rated_content_requires_credential() {
    let mut rng = test_rng(6001);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let rated = sys.publish_rated_content("R-rated", 100, b"mature payload", "adult", &mut rng);

    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    sys.grant_attribute(&alice, "adult", &mut rng).unwrap();

    // Without the credential (pseudonym exists, credential absent): refused.
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let res = sys.purchase(&mut alice, rated, &mut rng);
    assert!(matches!(
        res,
        Err(WireError::Client(CoreError::BadPseudonym(_)))
    ));

    // With the credential bound to the current pseudonym: allowed, and
    // playback works end to end.
    sys.ensure_attribute(&mut alice, "adult", &mut rng).unwrap();
    let license = sys.purchase(&mut alice, rated, &mut rng).unwrap();
    let mut device = sys.register_device(&mut rng).unwrap();
    assert_eq!(
        sys.play(&alice, &mut device, &license, &mut rng).unwrap(),
        b"mature payload"
    );
}

#[test]
fn minor_cannot_obtain_or_use_credential() {
    let mut rng = test_rng(6002);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let rated = sys.publish_rated_content("R-rated", 100, b"mature", "adult", &mut rng);

    // Register an adult so the attribute key exists and is trusted.
    let adult = sys.register_user("adult-user", &mut rng).unwrap();
    sys.grant_attribute(&adult, "adult", &mut rng).unwrap();

    let mut minor = sys.register_user("minor", &mut rng).unwrap();
    sys.fund(&minor, 1_000);
    // The RA refuses to issue the credential...
    assert!(matches!(
        sys.ensure_attribute(&mut minor, "adult", &mut rng),
        Err(CoreError::Card(_))
    ));
    // ...and no purchase request can be built without it (a forged
    // request is the next test's subject).
    assert!(matches!(
        sys.purchase(&mut minor, rated, &mut rng),
        Err(WireError::Client(CoreError::BadPseudonym(_)))
    ));
}

#[test]
fn credential_cannot_be_lent_to_another_pseudonym() {
    let mut rng = test_rng(6003);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let rated = sys.publish_rated_content("R-rated", 100, b"mature", "adult", &mut rng);

    let mut adult = sys.register_user("adult2", &mut rng).unwrap();
    sys.fund(&adult, 1_000);
    sys.grant_attribute(&adult, "adult", &mut rng).unwrap();
    sys.ensure_attribute(&mut adult, "adult", &mut rng).unwrap();
    let adult_pseudonym = adult.current_pseudonym().unwrap().pseudonym_id();
    let adult_credential = adult
        .attribute_cert_for(&adult_pseudonym, "adult")
        .unwrap()
        .clone();

    // A minor splices the adult's credential into their own purchase.
    let mut minor = sys.register_user("minor2", &mut rng).unwrap();
    sys.fund(&minor, 1_000);
    sys.ensure_pseudonym(&mut minor, &mut rng).unwrap();
    let minor_cert = minor.current_pseudonym().unwrap().clone();
    let account = minor.account.clone();
    let coin = minor
        .wallet
        .withdraw(&sys.mint, &account, 100, &mut rng)
        .unwrap();
    let req = p2drm::core::protocol::messages::PurchaseRequest {
        content_id: rated,
        pseudonym_cert: minor_cert,
        coin,
        attribute_cert: Some(adult_credential),
    };
    let epoch = sys.epoch();
    let res = sys.provider.handle_purchase(&req, epoch, &mut rng);
    assert!(matches!(
        res,
        Err(CoreError::BadPseudonym(
            "attribute bound to a different pseudonym"
        ))
    ));
}

#[test]
fn rated_purchase_still_identity_free() {
    let mut rng = test_rng(6004);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let rated = sys.publish_rated_content("R-rated", 100, b"mature", "adult", &mut rng);

    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    sys.grant_attribute(&alice, "adult", &mut rng).unwrap();
    sys.ensure_attribute(&mut alice, "adult", &mut rng).unwrap();

    let mut t = Transcript::new();
    sys.purchase_with_transcript(&mut alice, rated, &mut rng, &mut t)
        .unwrap();
    // The provider verified adulthood — yet received no identity bytes.
    assert!(!t.scan_for(Party::Provider, alice.user_id().as_bytes()));
    assert!(!t.scan_for(Party::Provider, alice.account.as_bytes()));
    let master = alice.card.master_public().modulus().to_bytes_be();
    assert!(!t.scan_for(Party::Provider, &master));
}

#[test]
fn unrestricted_content_ignores_credentials() {
    let mut rng = test_rng(6005);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let plain = sys.publish_content("G-rated", 100, b"family fun", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    // No attribute machinery involved at all.
    let license = sys.purchase(&mut alice, plain, &mut rng).unwrap();
    assert!(license.verify(sys.provider.public_key()).is_ok());
}

#[test]
fn stale_credential_epoch_rejected() {
    let mut rng = test_rng(6006);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let rated = sys.publish_rated_content("R-rated", 100, b"mature", "adult", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    sys.grant_attribute(&alice, "adult", &mut rng).unwrap();
    alice.set_policy(PseudonymPolicy::Static); // keep pseudonym stable
    sys.ensure_attribute(&mut alice, "adult", &mut rng).unwrap();

    // Advance beyond the epoch window: the old credential goes stale.
    for _ in 0..10 {
        sys.advance_epoch();
    }
    let res = sys.purchase(&mut alice, rated, &mut rng);
    assert!(
        matches!(&res, Err(WireError::Api(e)) if e.code == ApiErrorCode::BadPseudonym),
        "{res:?}"
    );
}
