//! Replay-safe purchase and transfer: a license id is derived from the
//! request, and the one row that decides each operation records it, so
//! re-sending a request answers the license it already issued (or issues
//! it now, if a crash cut the first attempt short) while anything else
//! that touches the same coin or license id is still refused.

use p2drm::core::entities::provider::{purchase_license_id, transfer_license_id};
use p2drm::core::protocol::messages::{
    transfer_proof_bytes, LicenseStatus, PurchaseRequest, TransferRequest,
};
use p2drm::core::service::{Loopback, WireClient};
use p2drm::faults::{kv_sites, FaultKv, FaultPlan, Schedule};
use p2drm::payment::{Coin, PaymentError};
use p2drm::prelude::*;
use p2drm::store::{ConcurrentKv, MemKv};
use std::sync::Arc;

/// `lic/` rows in the provider's store.
fn lic_rows(sys: &System<impl ConcurrentKv + Send + Sync + 'static>) -> usize {
    sys.provider.store().scan_prefix(b"lic/").len()
}

/// A purchase request for `cid` with a fresh coin under `user`'s current
/// pseudonym.
fn purchase_request(
    sys: &System,
    user: &mut UserAgent,
    cid: ContentId,
    rng: &mut impl p2drm::crypto::rng::CryptoRng,
) -> PurchaseRequest {
    sys.ensure_pseudonym(user, rng).unwrap();
    let account = user.account.clone();
    let coin = user.wallet.withdraw(&sys.mint, &account, 100, rng).unwrap();
    PurchaseRequest {
        content_id: cid,
        pseudonym_cert: user.current_pseudonym().unwrap().clone(),
        coin,
        attribute_cert: None,
    }
}

fn double_spend(res: Result<License, CoreError>) -> bool {
    matches!(res, Err(CoreError::Payment(PaymentError::DoubleSpend)))
}

#[test]
fn a_replayed_purchase_answers_the_same_license_and_records_nothing_more() {
    let mut rng = test_rng(0x5E1);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"payload", &mut rng);
    let other = sys.publish_content("Other", 100, b"other", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 100);
    let req = purchase_request(&sys, &mut alice, cid, &mut rng);
    let epoch = sys.epoch();

    let first = sys.provider.handle_purchase(&req, epoch, &mut rng).unwrap();
    let again = sys.provider.handle_purchase(&req, epoch, &mut rng).unwrap();
    assert_eq!(first.id(), again.id());
    assert_eq!(
        first.id(),
        purchase_license_id(&req.coin.serial, &req.pseudonym_cert.pseudonym_id(), &cid)
    );
    assert!(again.verify(sys.provider.public_key()).is_ok());
    assert_eq!(sys.mint.deposited_total(), 100, "one deposit");
    assert_eq!(lic_rows(&sys), 1, "one lic/ row");

    // The same coin and pseudonym for other content: a double spend.
    let for_other = PurchaseRequest {
        content_id: other,
        ..req.clone()
    };
    assert!(double_spend(
        sys.provider.handle_purchase(&for_other, epoch, &mut rng)
    ));
    // The same coin and content under another pseudonym: a double spend.
    alice.note_pseudonym_use();
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let other_pseudonym = PurchaseRequest {
        pseudonym_cert: alice.current_pseudonym().unwrap().clone(),
        ..req
    };
    assert!(double_spend(sys.provider.handle_purchase(
        &other_pseudonym,
        epoch,
        &mut rng
    )));
    assert_eq!(sys.mint.deposited_total(), 100);
    assert_eq!(lic_rows(&sys), 1);
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

/// A parked purchase may settle long after it was sent, its pseudonym
/// past the epoch window and revoked by then. The provider answers a
/// replay before those checks, so the buyer who paid still gets the
/// license — and is not handed back a coin that is already spent.
#[test]
fn a_parked_purchase_settles_after_its_pseudonym_ages_out_and_is_revoked() {
    let mut rng = test_rng(0x5EA);
    let plan = Arc::new(FaultPlan::new(0x5EA));
    let store = FaultKv::new(MemKv::with_shards(4), plan.clone());
    let mut sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
    let cid = sys.publish_content("Track", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 100);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    let pseudonym = alice.current_pseudonym().unwrap().pseudonym_id();

    let next_put = plan.calls(kv_sites::FAIL_PUT) + 1;
    plan.set(kv_sites::FAIL_PUT, Schedule::OneShot(next_put));
    assert!(sys.purchase(&mut alice, cid, &mut rng).is_err());
    assert_eq!(alice.parked.len(), 1);
    plan.set(kv_sites::FAIL_PUT, Schedule::Never);

    let window = sys.provider.config().epoch_window;
    for _ in 0..=window {
        sys.advance_epoch();
    }
    sys.provider.revoke_pseudonym(pseudonym).unwrap();
    let parked = alice.parked[0].clone();
    // A fresh request under that pseudonym is refused now...
    assert!(matches!(
        sys.provider.handle_purchase(
            &PurchaseRequest {
                coin: Coin {
                    serial: [9; 32],
                    ..parked.coin.clone()
                },
                ..parked
            },
            sys.epoch(),
            &mut rng
        ),
        Err(CoreError::BadPseudonym(_))
    ));
    // ...but the parked one was paid for, so it settles.
    let service = sys.wire_service(0x5EA);
    let settled = WireClient::new(Loopback::new(&service)).settle_parked(&mut alice);
    let license = settled
        .into_iter()
        .next()
        .unwrap()
        .expect("the license arrives");
    assert!(alice.parked.is_empty());
    assert_eq!(alice.wallet.balance(), 0, "the spent coin stays spent");
    assert_eq!(alice.licenses()[0].license.id(), license.id());
    assert_eq!(sys.mint.deposited_total(), 100, "paid once");
    assert_eq!(lic_rows(&sys), 1);
}

/// Fixture for the transfer replays: alice holds a license, bob a fresh
/// pseudonym.
struct Handover {
    sys: System<FaultKv<MemKv>>,
    plan: Arc<FaultPlan>,
    alice: UserAgent,
    bob: UserAgent,
    license: License,
}

fn handover(seed: u64) -> Handover {
    let mut rng = test_rng(seed);
    let plan = Arc::new(FaultPlan::new(seed));
    let store = FaultKv::new(MemKv::with_shards(4), plan.clone());
    let sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
    let cid = sys.publish_content("Track", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 100);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    Handover {
        sys,
        plan,
        alice,
        bob,
        license,
    }
}

impl Handover {
    /// Alice's signed hand-over of her license to `recipient`'s current
    /// pseudonym.
    fn request_to(&self, recipient: &UserAgent) -> TransferRequest {
        let cert = recipient.current_pseudonym().unwrap().clone();
        let proof = self
            .alice
            .card
            .sign_with_pseudonym(
                &self.alice.licenses()[0].pseudonym,
                &transfer_proof_bytes(&self.license.id(), &cert.pseudonym_id()),
            )
            .unwrap();
        TransferRequest {
            license: self.license.clone(),
            recipient_cert: cert,
            proof,
        }
    }

    fn crl_sequence(&self) -> u64 {
        self.sys.provider.signed_license_crl(0).sequence
    }
}

#[test]
fn a_replayed_transfer_answers_the_same_successor_and_bumps_the_crl_once() {
    let mut f = handover(0x5E3);
    let mut rng = test_rng(0x5E4);
    let epoch = f.sys.epoch();
    let req = f.request_to(&f.bob);

    let first = f
        .sys
        .provider
        .handle_transfer(&req, epoch, &mut rng)
        .unwrap();
    let again = f
        .sys
        .provider
        .handle_transfer(&req, epoch, &mut rng)
        .unwrap();
    assert_eq!(first.id(), again.id());
    assert_eq!(
        first.id(),
        transfer_license_id(&f.license.id(), &req.recipient_cert.pseudonym_id())
    );
    assert_eq!(f.crl_sequence(), 1, "bumped once");
    assert_eq!(f.sys.provider.license_count(), 2);
    assert_eq!(
        f.sys.provider.license_status(&f.license.id()).unwrap(),
        LicenseStatus::Transferred
    );

    // Toward anyone else the old id is spent.
    let mut carol = f.sys.register_user("carol", &mut rng).unwrap();
    f.sys.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let to_carol = f.request_to(&carol);
    assert!(matches!(
        f.sys.provider.handle_transfer(&to_carol, epoch, &mut rng),
        Err(CoreError::AlreadyRedeemed(_))
    ));

    // Over the wire, the agents' own retry settles both of them.
    let service = f.sys.wire_service(0x5E5);
    let moved = WireClient::new(Loopback::new(&service))
        .transfer(&mut f.alice, &mut f.bob, f.license.id(), &mut rng)
        .unwrap();
    assert_eq!(moved.id(), first.id());
    assert!(f.alice.licenses().is_empty());
    assert_eq!(f.bob.licenses().len(), 1);
    assert_eq!(f.crl_sequence(), 1);
}

/// The transfer's reply is lost and the recipient's certificate ages out
/// before the sender retries: the retry is still that transfer.
#[test]
fn a_transfer_retried_after_the_recipient_certificate_ages_out_settles() {
    let mut f = handover(0x5EB);
    let mut rng = test_rng(0x5EC);
    let req = f.request_to(&f.bob);
    let first = f
        .sys
        .provider
        .handle_transfer(&req, f.sys.epoch(), &mut rng)
        .unwrap();
    for _ in 0..=f.sys.provider.config().epoch_window {
        f.sys.advance_epoch();
    }
    assert!(f
        .sys
        .provider
        .verify_pseudonym(&req.recipient_cert, f.sys.epoch())
        .is_err());
    let moved = f
        .sys
        .transfer(&mut f.alice, &mut f.bob, f.license.id(), &mut rng)
        .expect("the retry answers the successor");
    assert_eq!(moved.id(), first.id());
    assert!(f.alice.licenses().is_empty());
    assert_eq!(f.bob.licenses()[0].license.id(), first.id());
    assert_eq!(f.crl_sequence(), 1);
}

#[test]
fn a_revoked_license_does_not_transfer_even_to_a_first_recipient() {
    let f = handover(0x5E6);
    let mut rng = test_rng(0x5E7);
    f.sys.provider.revoke_license(&f.license.id()).unwrap();
    let req = f.request_to(&f.bob);
    assert!(matches!(
        f.sys
            .provider
            .handle_transfer(&req, f.sys.epoch(), &mut rng),
        Err(CoreError::AlreadyRedeemed(_))
    ));
    assert_eq!(
        f.sys.provider.license_status(&f.license.id()).unwrap(),
        LicenseStatus::Revoked
    );
}

/// A transfer writes two rows after its `spent/` claim: the successor's
/// `lic/` row, then the CRL entry. Whichever fails, calling `transfer`
/// again completes it — one successor, one CRL entry, sequence 1.
#[test]
fn a_transfer_cut_short_after_its_claim_completes_on_retry() {
    for failing_put in 1..=2 {
        let mut f = handover(0x5E8 + failing_put);
        let mut rng = test_rng(0x5E9);
        let next_put = f.plan.calls(kv_sites::FAIL_PUT) + failing_put;
        f.plan.set(kv_sites::FAIL_PUT, Schedule::OneShot(next_put));
        let lid = f.license.id();
        let res = f.sys.transfer(&mut f.alice, &mut f.bob, lid, &mut rng);
        assert!(
            matches!(&res, Err(WireError::Api(e)) if e.code == ApiErrorCode::Storage),
            "put {failing_put}: {res:?}"
        );
        assert_eq!(f.alice.licenses().len(), 1, "put {failing_put}");

        let moved = f
            .sys
            .transfer(&mut f.alice, &mut f.bob, lid, &mut rng)
            .expect("the retry completes the transfer");
        assert!(f.alice.licenses().is_empty());
        assert_eq!(f.bob.licenses()[0].license.id(), moved.id());
        assert_eq!(f.sys.provider.license_count(), 2, "put {failing_put}");
        assert_eq!(f.crl_sequence(), 1, "put {failing_put}");
        assert!(f
            .sys
            .provider
            .signed_license_crl(0)
            .list
            .contains(&p2drm::core::entities::provider::license_crl_id(&lid)));
    }
}
