//! Smart card behavioral tests: budget enforcement, revocation semantics,
//! and the key-release seal chain. Kept beside the entity (included from
//! `entities/mod.rs`) because they exercise card-private behavior.

use crate::entities::ra::RegistrationAuthority;
use crate::entities::smartcard::{CardBudget, SmartCard};
use crate::ids::UserId;
use crate::CoreError;
use p2drm_crypto::elgamal::{ElGamalGroup, ElGamalKeyPair};
use p2drm_crypto::rng::{test_rng, CryptoRng};
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::{KeyId, PseudonymCertBody, Validity};

fn card(seed: u64, budget: CardBudget) -> SmartCard {
    let mut rng = test_rng(seed);
    let v = Validity::new(0, u64::MAX / 2);
    let mut root = CertificateAuthority::new_root(512, v, &mut rng);
    let ra = RegistrationAuthority::new(&mut root, 512, v, &mut rng);
    ra.register_user(UserId::from_label("card-tester"), budget, &mut rng)
        .unwrap()
}

fn ttp_key(seed: u64) -> ElGamalKeyPair {
    ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut test_rng(seed))
}

/// One pseudonym key begun and stored, as a certified issuance leaves it.
fn issue(c: &mut SmartCard, ttp: &ElGamalKeyPair, rng: &mut impl CryptoRng) -> PseudonymCertBody {
    let body = c.begin_pseudonym(ttp.public(), 0, rng).unwrap();
    c.store_pseudonym(&KeyId::of_rsa(&body.pseudonym_key))
        .unwrap();
    body
}

#[test]
fn pseudonym_budget_enforced_and_freed() {
    let mut c = card(400, CardBudget { max_pseudonyms: 2 });
    let ttp = ttp_key(401);
    let mut rng = test_rng(402);
    let b1 = issue(&mut c, &ttp, &mut rng);
    issue(&mut c, &ttp, &mut rng);
    assert_eq!(c.pseudonym_count(), 2);
    assert!(matches!(
        c.begin_pseudonym(ttp.public(), 0, &mut rng),
        Err(CoreError::Card("pseudonym budget exhausted"))
    ));
    // Forgetting one frees a slot.
    assert!(c.forget_pseudonym(&KeyId::of_rsa(&b1.pseudonym_key)));
    assert!(!c.forget_pseudonym(&KeyId::of_rsa(&b1.pseudonym_key)));
    assert!(c.begin_pseudonym(ttp.public(), 0, &mut rng).is_ok());
}

#[test]
fn revoked_card_refuses_every_operation() {
    let mut c = card(403, CardBudget::default());
    let ttp = ttp_key(404);
    let mut rng = test_rng(405);
    let body = issue(&mut c, &ttp, &mut rng);
    let pid = KeyId::of_rsa(&body.pseudonym_key);

    c.mark_revoked();
    assert!(c.is_revoked());
    assert!(c.begin_pseudonym(ttp.public(), 0, &mut rng).is_err());
    assert!(c.sign_with_master(b"x").is_err());
    assert!(c.sign_with_pseudonym(&pid, b"x").is_err());
}

#[test]
fn unknown_pseudonym_operations_fail() {
    let c = card(406, CardBudget::default());
    let ghost = p2drm_pki::cert::digest_id(b"ghost");
    assert!(matches!(
        c.sign_with_pseudonym(&ghost, b"x"),
        Err(CoreError::Card("unknown pseudonym"))
    ));
}

#[test]
fn memory_grows_with_pseudonyms() {
    let mut c = card(407, CardBudget::default());
    let ttp = ttp_key(408);
    let mut rng = test_rng(409);
    let m0 = c.memory_bytes();
    issue(&mut c, &ttp, &mut rng);
    let m1 = c.memory_bytes();
    assert!(m1 > m0);
    assert_eq!(m1 - m0, 2 * (c.key_bits() / 8));
}

#[test]
fn same_seed_cards_issue_the_same_pseudonym_keys() {
    // Keys prepared in the background are drawn from a seed the caller's
    // generator supplies, so a card's keys stay a function of its inputs.
    let ttp = ttp_key(420);
    let keys = |card_seed: u64| {
        let mut c = card(card_seed, CardBudget::default());
        let mut rng = test_rng(421);
        (0..4)
            .map(|_| {
                let body = c.begin_pseudonym(ttp.public(), 0, &mut rng).unwrap();
                assert!(c.has_prepared_key());
                body.pseudonym_key
            })
            .collect::<Vec<_>>()
    };
    let a = keys(422);
    assert_eq!(a, keys(422));
    for (i, k) in a.iter().enumerate() {
        assert!(a[i + 1..].iter().all(|later| later != k), "fresh keys");
    }
}

#[test]
fn revocation_discards_the_prepared_key() {
    let mut c = card(423, CardBudget::default());
    let ttp = ttp_key(424);
    let mut rng = test_rng(425);
    issue(&mut c, &ttp, &mut rng);
    assert!(c.has_prepared_key());
    c.mark_revoked();
    assert!(!c.has_prepared_key(), "never used");
    assert!(matches!(
        c.begin_pseudonym(ttp.public(), 0, &mut rng),
        Err(CoreError::Card("card revoked"))
    ));
    assert_eq!(c.pseudonym_count(), 1);
}

#[test]
fn a_card_with_no_slot_after_this_one_prepares_nothing() {
    let ttp = ttp_key(426);
    let mut rng = test_rng(427);
    let mut single = card(428, CardBudget { max_pseudonyms: 1 });
    issue(&mut single, &ttp, &mut rng);
    assert!(!single.has_prepared_key());

    let mut c = card(429, CardBudget { max_pseudonyms: 2 });
    issue(&mut c, &ttp, &mut rng);
    assert!(c.has_prepared_key(), "room for one more");
    issue(&mut c, &ttp, &mut rng);
    assert!(!c.has_prepared_key(), "at max_pseudonyms - 1 before it");
}

#[test]
fn the_prepared_key_is_not_card_storage() {
    let mut c = card(430, CardBudget::default());
    let ttp = ttp_key(431);
    let mut rng = test_rng(432);
    issue(&mut c, &ttp, &mut rng);
    assert!(c.has_prepared_key());
    assert_eq!(c.pseudonym_count(), 1);
    assert_eq!(c.memory_bytes(), 2 * 2 * (c.key_bits() / 8));
}

#[test]
fn escrow_plaintexts_are_salted() {
    // Two escrows of the same user must differ (nonce) so equal users are
    // not linkable across certificates even at the ciphertext layer.
    let mut rng = test_rng(410);
    let uid = UserId::from_label("same-user");
    let a = crate::entities::ttp::Ttp::escrow_plaintext(&uid, &mut rng);
    let b = crate::entities::ttp::Ttp::escrow_plaintext(&uid, &mut rng);
    assert_ne!(a, b);
    assert!(a.starts_with(crate::entities::ttp::ESCROW_TAG));
}
