//! Blind attribute credentials ("private credentials"): a rated purchase
//! proves the "adult" credential bound to its pseudonym, and still no
//! identity reaches the provider. Who gets a credential and which
//! purchases need one is the model's (`tests/model.rs`).

use p2drm::core::audit::Party;
use p2drm::prelude::*;

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
