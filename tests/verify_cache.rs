//! Provider verification-cache behavior: repeat certificate presentations
//! skip the RSA verify, while revocation and epoch aging are enforced on
//! every request — a stale cached success can never resurrect a revoked or
//! expired credential. The purchase path around it is pinned too: the
//! pseudonym verdict precedes the coin's, and both precede the deposit.

use p2drm::bignum::UBig;
use p2drm::core::protocol::messages::PurchaseRequest;
use p2drm::crypto::rsa::RsaSignature;
use p2drm::prelude::*;

fn setup() -> (System, p2drm::pki::cert::PseudonymCertificate, u32) {
    let mut rng = test_rng(0xCAC4E);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let mut user = sys.register_user("cache-user", &mut rng).unwrap();
    sys.ensure_pseudonym(&mut user, &mut rng).unwrap();
    let cert = user.current_pseudonym().unwrap().clone();
    let epoch = sys.epoch();
    (sys, cert, epoch)
}

#[test]
fn repeat_presentations_hit_the_cache() {
    let (sys, cert, epoch) = setup();
    let before = sys.provider.verify_cache_counters();
    for _ in 0..5 {
        sys.provider.verify_pseudonym(&cert, epoch).unwrap();
    }
    let after = sys.provider.verify_cache_counters();
    assert_eq!(after.insertions - before.insertions, 1, "one RSA verify");
    assert_eq!(after.hits - before.hits, 4, "four cache hits");
}

#[test]
fn revoked_pseudonym_refused_despite_cached_success() {
    let (sys, cert, epoch) = setup();
    sys.provider.verify_pseudonym(&cert, epoch).unwrap();
    sys.provider.revoke_pseudonym(cert.pseudonym_id()).unwrap();
    assert!(
        sys.provider.verify_pseudonym(&cert, epoch).is_err(),
        "cached signature success must not mask revocation"
    );
}

#[test]
fn expired_epoch_refused_despite_cached_success() {
    let (sys, cert, epoch) = setup();
    sys.provider.verify_pseudonym(&cert, epoch).unwrap();
    // Aging the clock past the freshness window must refuse the very same
    // certificate whose signature success is still cached.
    let window = 4; // SystemConfig::fast_test epoch_window
    assert!(
        sys.provider
            .verify_pseudonym(&cert, epoch + window + 1)
            .is_err(),
        "cached signature success must not mask epoch staleness"
    );
}

#[test]
fn epoch_bucket_invalidates_cache_entries() {
    let (sys, cert, epoch) = setup();
    sys.provider.verify_pseudonym(&cert, epoch).unwrap();
    let before = sys.provider.verify_cache_counters();
    // Same certificate, one epoch later (still within the window): the
    // bucket is part of the cache key, so this is a fresh verification,
    // not a hit against the previous epoch's entry.
    sys.provider.verify_pseudonym(&cert, epoch + 1).unwrap();
    let after = sys.provider.verify_cache_counters();
    assert_eq!(after.hits, before.hits, "no cross-epoch cache hit");
    assert_eq!(after.insertions - before.insertions, 1);
}

/// A genuine purchase request for the pseudonym of [`setup`], paid with a
/// coin another user withdrew (coins are bearer instruments).
fn genuine_purchase(sys: &System, cert: p2drm::pki::cert::PseudonymCertificate) -> PurchaseRequest {
    let mut rng = test_rng(0xF0_46ED);
    let content_id = sys.publish_content("track", 100, b"payload", &mut rng);
    let mut payer = sys.register_user("payer", &mut rng).unwrap();
    sys.fund(&payer, 100);
    let account = payer.account.clone();
    let coin = payer
        .wallet
        .withdraw(&sys.mint, &account, 100, &mut rng)
        .unwrap();
    PurchaseRequest {
        content_id,
        pseudonym_cert: cert,
        coin,
        attribute_cert: None,
    }
}

fn forged(sig: &RsaSignature) -> RsaSignature {
    RsaSignature::from_ubig(sig.as_ubig() + &UBig::one())
}

/// What a purchase changes: spent serials, deposited value, licenses.
fn ledger(sys: &System) -> (usize, u64, usize) {
    (
        sys.mint.spent_count(),
        sys.mint.deposited_total(),
        sys.provider.license_count(),
    )
}

#[test]
fn forged_pseudonym_takes_precedence_over_forged_coin() {
    let (sys, cert, epoch) = setup();
    let mut req = genuine_purchase(&sys, cert);
    req.pseudonym_cert.signature = forged(&req.pseudonym_cert.signature);
    req.coin.signature = forged(&req.coin.signature);
    let before = ledger(&sys);
    let refused = sys.provider.handle_purchase(&req, epoch, &mut test_rng(1));
    assert!(
        matches!(refused, Err(CoreError::BadPseudonym(_))),
        "{refused:?}"
    );
    assert_eq!(ledger(&sys), before, "a refusal has no side effect");
}

#[test]
fn forged_coin_is_refused_before_any_deposit() {
    let (sys, cert, epoch) = setup();
    let genuine = genuine_purchase(&sys, cert);
    let mut req = genuine.clone();
    req.coin.signature = forged(&req.coin.signature);
    let before = ledger(&sys);
    let refused = sys.provider.handle_purchase(&req, epoch, &mut test_rng(2));
    assert!(matches!(refused, Err(CoreError::Payment(_))), "{refused:?}");
    assert_eq!(ledger(&sys), before, "a refusal has no side effect");
    // The serial was never marked spent: the real coin still buys.
    sys.provider
        .handle_purchase(&genuine, epoch, &mut test_rng(3))
        .unwrap();
    assert_eq!(ledger(&sys), (before.0 + 1, before.1 + 100, before.2 + 1));
}
