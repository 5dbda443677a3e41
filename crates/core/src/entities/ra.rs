//! The registration authority: the only entity that knows which human owns
//! which card. It certifies cards at registration, blind-signs pseudonym
//! certificates (learning nothing about them), and maintains the card CRL.
//!
//! Like the provider, the RA is a server-side entity shared by many
//! concurrent clients, so its mutable registry lives behind an interior
//! lock and every endpoint takes `&self` — `System::purchase`-family
//! methods can run from N threads against one RA.

use crate::entities::smartcard::{CardBudget, SmartCard};
use crate::ids::{CardId, UserId};
use crate::protocol::messages;
use crate::CoreError;
use p2drm_bignum::UBig;
use p2drm_crypto::blind;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use p2drm_pki::authority::{CertificateAuthority, RegistrationAuthorityKeys};
use p2drm_pki::cert::{Certificate, EntityKind, KeyId, SubjectKey, Validity};
use p2drm_pki::crl::{RevocationList, SignedCrl};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// What the RA records at each blind issuance — the adversarial-RA view
/// used by the unlinkability audit (the blinded value is all it ever sees).
#[derive(Clone, Debug)]
pub struct IssuanceRecord {
    /// Which card authenticated.
    pub card: CardId,
    /// The blinded value that was signed.
    pub blinded: UBig,
}

/// The RA's mutable registry (identity links, attribute grants, card CRL).
struct RaState {
    users: HashMap<UserId, CardId>,
    /// card id -> master key id (CRL handle).
    cards: HashMap<CardId, KeyId>,
    /// card id -> owning user (attribute entitlement lookups).
    card_owners: HashMap<CardId, UserId>,
    /// Verified real-world attributes per user (KYC output).
    attributes: HashMap<UserId, HashSet<String>>,
    /// One dedicated blind key per attribute — a signature under the
    /// "adult" key asserts exactly that attribute, which is what makes
    /// blind signing safe here.
    attribute_keys: HashMap<String, RsaKeyPair>,
    card_crl: RevocationList,
    crl_seq: u64,
    issuance_log: Vec<IssuanceRecord>,
}

impl RaState {
    /// The issuance gate every blind endpoint runs under the registry
    /// lock: the *claimed* `card_id` must be the card the presented
    /// certificate was issued to (`card_id` travels attacker-controlled
    /// on the wire — without this check any registered card could claim
    /// another card's id, spoofing issuance-log attribution and, for
    /// attributes, the entitlement lookup), and the card must not be
    /// revoked.
    fn check_card(&self, card_id: &CardId, master_key_id: &KeyId) -> Result<(), CoreError> {
        match self.cards.get(card_id) {
            Some(registered) if registered == master_key_id => {}
            _ => return Err(CoreError::Card("card id not bound to authenticated card")),
        }
        if self.card_crl.contains(master_key_id) {
            return Err(CoreError::Revoked("card"));
        }
        Ok(())
    }
}

/// The registration authority.
pub struct RegistrationAuthority {
    keys: RegistrationAuthorityKeys,
    key_bits: usize,
    validity: Validity,
    state: Mutex<RaState>,
}

impl RegistrationAuthority {
    /// Creates an RA whose keys chain to `root`.
    pub fn new<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        key_bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Self {
        RegistrationAuthority {
            keys: RegistrationAuthorityKeys::create(root, key_bits, validity, rng),
            key_bits,
            validity,
            state: Mutex::new(RaState {
                users: HashMap::new(),
                cards: HashMap::new(),
                card_owners: HashMap::new(),
                attributes: HashMap::new(),
                attribute_keys: HashMap::new(),
                card_crl: RevocationList::new(),
                crl_seq: 0,
                issuance_log: Vec::new(),
            }),
        }
    }

    /// Verification key for pseudonym certificates.
    pub fn blind_public(&self) -> &RsaPublicKey {
        self.keys.blind_public()
    }

    /// Verification key for card/user certificates.
    pub fn identity_public(&self) -> &RsaPublicKey {
        self.keys.identity.public_key()
    }

    /// Registers `user` (simulated KYC) and issues a smart card.
    pub fn register_user<R: CryptoRng + ?Sized>(
        &self,
        user: UserId,
        budget: CardBudget,
        rng: &mut R,
    ) -> Result<SmartCard, CoreError> {
        // Key generation happens outside the registry lock; the claim of
        // the user id is re-checked inside it.
        if self.state.lock().users.contains_key(&user) {
            return Err(CoreError::Card("user already registered"));
        }
        let card_id = CardId::random(rng);
        let master = RsaKeyPair::generate(self.key_bits, rng);
        let master_cert = self.keys.identity.issue(
            EntityKind::SmartCard,
            SubjectKey::Rsa(master.public().clone()),
            self.validity,
            vec![],
        );
        {
            let mut state = self.state.lock();
            if state.users.contains_key(&user) {
                return Err(CoreError::Card("user already registered"));
            }
            state.users.insert(user, card_id);
            state.cards.insert(card_id, KeyId::of_rsa(master.public()));
            state.card_owners.insert(card_id, user);
        }
        Ok(SmartCard::new(
            card_id,
            user,
            self.key_bits,
            master,
            master_cert,
            budget,
        ))
    }

    /// Blind pseudonym issuance endpoint.
    ///
    /// The card authenticates (master certificate + master-key signature
    /// over [`messages::pseudonym_auth_bytes`], which binds the claimed
    /// `card_id` to the blinded value) — this moment is linkable, which
    /// is fine: the RA learns "card X obtained *a* pseudonym", never
    /// *which*. The claimed `card_id` must be the card the certificate
    /// was issued to; otherwise the issuance log could be mis-attributed.
    pub fn issue_pseudonym(
        &self,
        card_id: CardId,
        card_cert: &Certificate,
        blinded: &UBig,
        auth_sig: &RsaSignature,
        now: u64,
    ) -> Result<UBig, CoreError> {
        card_cert.verify(self.identity_public(), now)?;
        self.state
            .lock()
            .check_card(&card_id, &card_cert.subject_id())?;
        let master_key = card_cert.body.subject_key.as_rsa()?;
        master_key
            .verify(&messages::pseudonym_auth_bytes(&card_id, blinded), auth_sig)
            .map_err(|_| CoreError::BadProof)?;
        self.state.lock().issuance_log.push(IssuanceRecord {
            card: card_id,
            blinded: blinded.clone(),
        });
        Ok(blind::blind_sign(&self.keys.blind, blinded)?)
    }

    /// Cut-and-choose pseudonym issuance: the card submits `k` blinded
    /// candidates, the RA opens all but one and audits them (structural
    /// well-formedness + epoch), then blind-signs the survivor. A card
    /// submitting a malformed candidate (e.g. a bogus escrow) is caught
    /// with probability `(k-1)/k` — and the attempt is evidence.
    ///
    /// Returns `(kept_index, blind_signature)`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue_pseudonym_cut_and_choose<R: CryptoRng + ?Sized>(
        &self,
        card_id: CardId,
        card_cert: &Certificate,
        blinded_values: &[UBig],
        auth_sig: &RsaSignature,
        open: impl FnOnce(usize) -> Vec<(usize, p2drm_crypto::blind::Opening)>,
        expected_epoch: u32,
        now: u64,
        rng: &mut R,
    ) -> Result<(usize, UBig), CoreError> {
        card_cert.verify(self.identity_public(), now)?;
        self.state
            .lock()
            .check_card(&card_id, &card_cert.subject_id())?;
        // Authenticate the whole candidate set at once, bound to the
        // claimed card id.
        let master_key = card_cert.body.subject_key.as_rsa()?;
        master_key
            .verify(
                &messages::cut_choose_auth_bytes(&card_id, blinded_values),
                auth_sig,
            )
            .map_err(|_| CoreError::BadProof)?;

        let keep = p2drm_crypto::blind::CutChooseIssuer::choose(blinded_values.len(), rng);
        let openings = open(keep);
        let key_bits = self.key_bits;
        let blind_sig = p2drm_crypto::blind::CutChooseIssuer::audit_and_sign(
            &self.keys.blind,
            blinded_values,
            keep,
            &openings,
            |message| {
                // Structural audit: decodes as a pseudonym body, epoch
                // matches, key has the mandated size. (Escrow *content*
                // is only checkable by the TTP — the paper's residual
                // trust assumption; the gamble is what deters cheating.)
                match p2drm_codec::from_bytes::<p2drm_pki::cert::PseudonymCertBody>(message) {
                    Ok(body) => {
                        body.epoch == expected_epoch
                            && body.pseudonym_key.modulus().bit_len() == key_bits
                    }
                    Err(_) => false,
                }
            },
        )
        .map_err(|_| CoreError::BadEvidence("cut-and-choose audit failed"))?;
        self.state.lock().issuance_log.push(IssuanceRecord {
            card: card_id,
            blinded: blinded_values[keep].clone(),
        });
        Ok((keep, blind_sig))
    }

    /// Revokes the card belonging to `user` (post-de-anonymization).
    pub fn revoke_user(&self, user: &UserId) -> Result<(), CoreError> {
        let mut state = self.state.lock();
        let card = *state
            .users
            .get(user)
            .ok_or(CoreError::Card("unknown user"))?;
        let key_id = state.cards[&card];
        state.card_crl.insert(key_id);
        state.crl_seq += 1;
        Ok(())
    }

    /// Signed card CRL for distribution.
    pub fn signed_card_crl(&self, issued_at: u64) -> SignedCrl {
        let state = self.state.lock();
        SignedCrl::create(
            self.keys.identity.keypair(),
            state.crl_seq,
            issued_at,
            state.card_crl.clone(),
        )
    }

    /// Records a verified real-world attribute for `user` (KYC outcome),
    /// creating the attribute's dedicated blind key on first use.
    pub fn grant_attribute<R: CryptoRng + ?Sized>(
        &self,
        user: &UserId,
        attribute: &str,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        // Keygen outside the lock when a new attribute key is needed.
        let needs_key = {
            let state = self.state.lock();
            if !state.users.contains_key(user) {
                return Err(CoreError::Card("unknown user"));
            }
            !state.attribute_keys.contains_key(attribute)
        };
        let new_key = needs_key.then(|| RsaKeyPair::generate(self.key_bits, rng));
        let mut state = self.state.lock();
        if !state.users.contains_key(user) {
            return Err(CoreError::Card("unknown user"));
        }
        if let Some(kp) = new_key {
            state
                .attribute_keys
                .entry(attribute.to_string())
                .or_insert(kp);
        }
        state
            .attributes
            .entry(*user)
            .or_default()
            .insert(attribute.to_string());
        Ok(())
    }

    /// Verification key relying parties use for `attribute` (None until
    /// the first grant creates the key).
    pub fn attribute_public(&self, attribute: &str) -> Option<RsaPublicKey> {
        self.state
            .lock()
            .attribute_keys
            .get(attribute)
            .map(|kp| kp.public().clone())
    }

    /// Blind attribute certification: like pseudonym issuance, but the RA
    /// signs with the per-attribute key — and only after checking that
    /// the claimed `card_id` is the card the presented certificate was
    /// issued to (entitlement is looked up by card id, so an unchecked id
    /// would let any registered card borrow an entitled user's
    /// attributes) and that the card's owner actually holds the attribute.
    pub fn issue_attribute(
        &self,
        card_id: CardId,
        card_cert: &Certificate,
        attribute: &str,
        blinded: &UBig,
        auth_sig: &RsaSignature,
        now: u64,
    ) -> Result<UBig, CoreError> {
        card_cert.verify(self.identity_public(), now)?;
        let master_key = card_cert.body.subject_key.as_rsa()?;
        master_key
            .verify(
                &messages::attribute_auth_bytes(&card_id, attribute, blinded),
                auth_sig,
            )
            .map_err(|_| CoreError::BadProof)?;
        let mut state = self.state.lock();
        state.check_card(&card_id, &card_cert.subject_id())?;
        let owner = *state
            .card_owners
            .get(&card_id)
            .ok_or(CoreError::Card("unknown card"))?;
        let entitled = state
            .attributes
            .get(&owner)
            .is_some_and(|set| set.contains(attribute));
        if !entitled {
            return Err(CoreError::Card("attribute not held by user"));
        }
        let kp = state
            .attribute_keys
            .get(attribute)
            .ok_or(CoreError::Card("attribute key missing"))?;
        let sig = blind::blind_sign(kp, blinded)?;
        state.issuance_log.push(IssuanceRecord {
            card: card_id,
            blinded: blinded.clone(),
        });
        Ok(sig)
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.state.lock().users.len()
    }

    /// Snapshot of the adversarial-RA issuance transcript.
    pub fn issuance_log(&self) -> Vec<IssuanceRecord> {
        self.state.lock().issuance_log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    /// A card claiming *another* card's id — its own certificate and a
    /// valid signature over the spoofed request — must be refused: the
    /// attribute entitlement lookup keys on card id, and the issuance
    /// log must attribute requests to the card that authenticated.
    #[test]
    fn spoofed_card_id_is_refused() {
        let mut rng = test_rng(0x5F00F);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let alice = sys.register_user("alice", &mut rng).unwrap();
        let mallory = sys.register_user("mallory", &mut rng).unwrap();
        sys.grant_attribute(&alice, "adult", &mut rng).unwrap();
        let victim_id = alice.card.card_id();
        let now = sys.now();

        // Attribute issuance: mallory is not entitled but claims alice's
        // card id, signing the spoofed request with her own master key.
        let blinded = UBig::from_u64(0xB11D);
        let sig = mallory
            .card
            .sign_with_master(&messages::attribute_auth_bytes(
                &victim_id, "adult", &blinded,
            ))
            .unwrap();
        let res = sys.ra.issue_attribute(
            victim_id,
            mallory.card.master_cert(),
            "adult",
            &blinded,
            &sig,
            now,
        );
        assert!(
            matches!(res, Err(CoreError::Card(_))),
            "spoofed attribute issuance must be refused, got {res:?}"
        );

        // Pseudonym issuance: same spoof, refused before the log entry.
        let sig = mallory
            .card
            .sign_with_master(&messages::pseudonym_auth_bytes(&victim_id, &blinded))
            .unwrap();
        let res =
            sys.ra
                .issue_pseudonym(victim_id, mallory.card.master_cert(), &blinded, &sig, now);
        assert!(
            matches!(res, Err(CoreError::Card(_))),
            "spoofed pseudonym issuance must be refused, got {res:?}"
        );
        assert!(
            sys.ra.issuance_log().iter().all(|r| r.card != victim_id),
            "no issuance may be attributed to the spoofed card"
        );
    }

    /// The auth signature covers the claimed card id: a signature minted
    /// for one id does not verify for a request claiming another.
    #[test]
    fn auth_signature_binds_card_id() {
        let mut rng = test_rng(0x5F10F);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let alice = sys.register_user("alice", &mut rng).unwrap();
        let mallory = sys.register_user("mallory", &mut rng).unwrap();
        let now = sys.now();
        let blinded = UBig::from_u64(0xB11D);
        // Mallory signs honestly for her own card id...
        let sig = mallory
            .card
            .sign_with_master(&messages::pseudonym_auth_bytes(
                &mallory.card.card_id(),
                &blinded,
            ))
            .unwrap();
        // ...but replays the signature on a request claiming alice's id:
        // even if the binding check were bypassed, the signature check
        // fails because the signed bytes name the card id.
        let res = sys.ra.issue_pseudonym(
            alice.card.card_id(),
            mallory.card.master_cert(),
            &blinded,
            &sig,
            now,
        );
        assert!(res.is_err(), "cross-card signature replay must fail");
    }
}
