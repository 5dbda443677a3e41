//! Replay-safe purchase and transfer under store faults: a request cut
//! short after its claim — the deposit made, or the old license's
//! `spent/` row written — completes when it is sent again. What a re-sent
//! request answers without faults is the model's (`tests/model.rs`).

use p2drm::core::entities::provider::license_crl_id;
use p2drm::core::service::{Loopback, WireClient};
use p2drm::faults::{kv_sites, FaultKv, FaultPlan, Schedule};
use p2drm::prelude::*;
use p2drm::store::{ConcurrentKv, MemKv};
use std::sync::Arc;

/// `lic/` rows in the provider's store.
fn lic_rows(sys: &System<impl ConcurrentKv + Send + Sync + 'static>) -> usize {
    sys.provider.store().scan_prefix(b"lic/").len()
}

/// The bug this replaces: a purchase that fails *after* the deposit used
/// to hand the buyer the spent coin back, and the next purchase with it
/// was a double spend — paid, empty-handed. Now the request parks, and
/// once the store recovers, settling it issues the license.
#[test]
fn a_purchase_that_fails_after_the_deposit_parks_and_settles_to_the_license() {
    let mut rng = test_rng(0x5E2);
    let plan = Arc::new(FaultPlan::new(0x5E2));
    let store = FaultKv::new(MemKv::with_shards(4), plan.clone());
    let sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
    let cid = sys.publish_content("Track", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 100);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();

    // The purchase's one store write — its `lic/` row — fails.
    let next_put = plan.calls(kv_sites::FAIL_PUT) + 1;
    plan.set(kv_sites::FAIL_PUT, Schedule::OneShot(next_put));
    let res = sys.purchase(&mut alice, cid, &mut rng);
    assert!(
        matches!(&res, Err(WireError::Api(e)) if e.code == ApiErrorCode::Storage),
        "{res:?}"
    );
    assert_eq!(sys.mint.deposited_total(), 100, "the coin was deposited");
    assert_eq!(alice.wallet.balance(), 0, "so it is not spendable again");
    assert_eq!(alice.parked.len(), 1, "its request is parked");
    assert_eq!(lic_rows(&sys), 0);

    plan.set(kv_sites::FAIL_PUT, Schedule::Never);
    let service = sys.wire_service(0x5E2);
    let settled = WireClient::new(Loopback::new(&service)).settle_parked(&mut alice);
    let license = settled
        .into_iter()
        .next()
        .unwrap()
        .expect("the license arrives");
    assert!(alice.parked.is_empty());
    assert_eq!(alice.licenses().len(), 1);
    assert_eq!(alice.licenses()[0].license.id(), license.id());
    assert_eq!(sys.mint.deposited_total(), 100, "paid once");
    assert_eq!(lic_rows(&sys), 1, "the missing row was written");
}

/// A transfer writes two rows after its `spent/` claim: the successor's
/// `lic/` row, then the CRL entry. Whichever fails, calling `transfer`
/// again completes it — one successor, one CRL entry, sequence 1.
#[test]
fn a_transfer_cut_short_after_its_claim_completes_on_retry() {
    for failing_put in 1..=2 {
        let mut rng = test_rng(0x5E8 + failing_put);
        let plan = Arc::new(FaultPlan::new(0x5E8 + failing_put));
        let store = FaultKv::new(MemKv::with_shards(4), plan.clone());
        let sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
        let cid = sys.publish_content("Track", 100, b"payload", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        let mut bob = sys.register_user("bob", &mut rng).unwrap();
        sys.fund(&alice, 100);
        let lid = sys.purchase(&mut alice, cid, &mut rng).unwrap().id();
        sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();

        let next_put = plan.calls(kv_sites::FAIL_PUT) + failing_put;
        plan.set(kv_sites::FAIL_PUT, Schedule::OneShot(next_put));
        let res = sys.transfer(&mut alice, &mut bob, lid, &mut rng);
        assert!(
            matches!(&res, Err(WireError::Api(e)) if e.code == ApiErrorCode::Storage),
            "put {failing_put}: {res:?}"
        );
        assert_eq!(alice.licenses().len(), 1, "put {failing_put}");

        let moved = sys
            .transfer(&mut alice, &mut bob, lid, &mut rng)
            .expect("the retry completes the transfer");
        assert!(alice.licenses().is_empty());
        assert_eq!(bob.licenses()[0].license.id(), moved.id());
        assert_eq!(sys.provider.license_count(), 2, "put {failing_put}");
        let crl = sys.provider.signed_license_crl(0);
        assert_eq!(crl.body.sequence, 1, "put {failing_put}");
        assert!(crl.body.list.contains(&license_crl_id(&lid)));
    }
}
