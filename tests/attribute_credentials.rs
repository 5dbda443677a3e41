//! Integration tests for blind attribute credentials ("private
//! credentials"): age-rated content purchasable only with an "adult"
//! credential bound to the purchasing pseudonym — and still no identity
//! reaches the provider.

use p2drm::core::audit::Party;
use p2drm::core::CoreError;
use p2drm::prelude::*;

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
