//! The tamper-resistant smart card.
//!
//! Substitution note (DESIGN.md §2): tamper resistance is modelled by
//! encapsulation — private keys are fields no method ever returns. The
//! card exposes exactly the oracle interface the paper assumes: generate a
//! pseudonym (with escrow), sign challenges, and unwrap content keys
//! *re-sealed to a device key* so raw keys never cross the card boundary.
//!
//! Every pseudonym is a fresh RSA key pair, and its key generation is
//! most of an issuance's cost. So the card keeps at most one key pair in
//! preparation, on a thread of its own, while the rest of the journey
//! runs:
//! - [`SmartCard::begin_pseudonym`] takes the prepared key, joining its
//!   thread, or generates one inline when none is prepared (the card's
//!   first issuance, or a thread that could not be spawned or panicked).
//! - If the budget has room for one more pseudonym after this one, it
//!   then draws a 32-byte seed from the caller's generator and starts the
//!   next key's thread, which runs the same [`RsaKeyPair::generate`] over
//!   a ChaCha20 stream of that seed. Keys stay a function of the caller's
//!   generator, and a card that can issue no further pseudonym (a budget
//!   of one, or one slot left) prepares nothing.
//! - The escrow, epoch and body are built at `begin_pseudonym` time, as
//!   for an inline key. A prepared key is never shown before it is
//!   certified, so nothing new crosses the wire.
//! - [`SmartCard::mark_revoked`] discards the prepared key, and dropping
//!   the card detaches its thread. The prepared key is not pseudonym
//!   storage: [`SmartCard::pseudonym_count`] and
//!   [`SmartCard::memory_bytes`] do not count it.
//!
//! A begun key is pending until [`SmartCard::store_pseudonym`] stores it,
//! once its certificate is issued. Only stored keys count against the
//! [`CardBudget`]: the next `begin_pseudonym` drops a pending key whose
//! issuance the RA refused or the caller abandoned.

use crate::entities::ttp::Ttp;
use crate::ids::{CardId, UserId};
use crate::CoreError;
use p2drm_crypto::envelope::{self, Envelope};
use p2drm_crypto::rng::{random_array, ChaChaRng, CryptoRng};
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use p2drm_crypto::CryptoError;
use p2drm_pki::cert::{Certificate, KeyId, PseudonymCertBody};
use std::collections::HashMap;
use std::thread::JoinHandle;

/// Card resource limits (the paper discusses card memory pressure; E6
/// measures bytes-per-pseudonym against this budget).
#[derive(Clone, Copy, Debug)]
pub struct CardBudget {
    /// Maximum pseudonym key pairs held at once.
    pub max_pseudonyms: usize,
}

impl Default for CardBudget {
    fn default() -> Self {
        CardBudget { max_pseudonyms: 64 }
    }
}

/// A user's smart card.
pub struct SmartCard {
    card_id: CardId,
    user_id: UserId,
    key_bits: usize,
    master: RsaKeyPair,
    master_cert: Certificate,
    pseudonyms: HashMap<KeyId, RsaKeyPair>,
    /// The next pseudonym key pair, generated on its own thread. Revoking
    /// or dropping the card drops the handle unjoined: the thread owns
    /// only its seed and shares no state, so detaching it loses nothing
    /// but a key no one will use.
    prepared: Option<JoinHandle<RsaKeyPair>>,
    /// The key of the issuance in progress, stored once certified.
    pending: Option<RsaKeyPair>,
    budget: CardBudget,
    revoked: bool,
}

impl SmartCard {
    /// Constructed by the RA at registration.
    pub(crate) fn new(
        card_id: CardId,
        user_id: UserId,
        key_bits: usize,
        master: RsaKeyPair,
        master_cert: Certificate,
        budget: CardBudget,
    ) -> Self {
        SmartCard {
            card_id,
            user_id,
            key_bits,
            master,
            master_cert,
            pseudonyms: HashMap::new(),
            prepared: None,
            pending: None,
            budget,
            revoked: false,
        }
    }

    /// Card identifier.
    pub fn card_id(&self) -> CardId {
        self.card_id
    }

    /// The identity this card was issued to (card-internal; protocols must
    /// never put this on the wire to a provider).
    pub fn user_id(&self) -> UserId {
        self.user_id
    }

    /// Master public key.
    pub fn master_public(&self) -> &RsaPublicKey {
        self.master.public()
    }

    /// RA-issued master certificate.
    pub fn master_cert(&self) -> &Certificate {
        &self.master_cert
    }

    /// RSA modulus size this card generates pseudonyms at.
    pub fn key_bits(&self) -> usize {
        self.key_bits
    }

    /// Number of pseudonym keys currently stored.
    pub fn pseudonym_count(&self) -> usize {
        self.pseudonyms.len()
    }

    /// Approximate nonvolatile memory used by key material, in bytes
    /// (modulus + private exponent per key; the E6 metric).
    pub fn memory_bytes(&self) -> usize {
        let per_key = 2 * (self.key_bits / 8);
        per_key * (self.pseudonyms.len() + 1)
    }

    /// Marks the card revoked (RA tamper response); all operations fail
    /// afterwards, and the key in preparation is discarded unused.
    pub fn mark_revoked(&mut self) {
        self.revoked = true;
        self.prepared = None;
        self.pending = None;
    }

    /// Whether this card has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.revoked
    }

    fn ensure_active(&self) -> Result<(), CoreError> {
        if self.revoked {
            Err(CoreError::Card("card revoked"))
        } else {
            Ok(())
        }
    }

    /// Whether a pseudonym key pair is in preparation.
    #[cfg(test)]
    pub(crate) fn has_prepared_key(&self) -> bool {
        self.prepared.is_some()
    }

    /// Generates a fresh pseudonym key pair plus its escrowed certificate
    /// body. The private key never leaves the card; it is pending until
    /// [`SmartCard::store_pseudonym`], and a pending key left by an
    /// earlier call is dropped. The key is the one in preparation if
    /// there is one, and the next is prepared while the budget has room
    /// for it (module doc).
    pub fn begin_pseudonym<R: CryptoRng + ?Sized>(
        &mut self,
        ttp_key: &p2drm_crypto::elgamal::ElGamalPublicKey,
        epoch: u32,
        rng: &mut R,
    ) -> Result<PseudonymCertBody, CoreError> {
        self.ensure_active()?;
        self.pending = None;
        if self.pseudonyms.len() >= self.budget.max_pseudonyms {
            return Err(CoreError::Card("pseudonym budget exhausted"));
        }
        let keypair = match self.prepared.take().map(JoinHandle::join) {
            Some(Ok(keypair)) => keypair,
            _ => RsaKeyPair::generate(self.key_bits, rng),
        };
        if self.pseudonyms.len() + 1 < self.budget.max_pseudonyms {
            self.prepare_next(rng);
        }
        let escrow_plain = Ttp::escrow_plaintext(&self.user_id, rng);
        let escrow = ttp_key.encrypt(&escrow_plain, rng);
        let body = PseudonymCertBody {
            pseudonym_key: keypair.public().clone(),
            escrow,
            epoch,
        };
        self.pending = Some(keypair);
        Ok(body)
    }

    /// Stores the pending key `id` once its certificate is issued; from
    /// then on it counts against the budget.
    pub fn store_pseudonym(&mut self, id: &KeyId) -> Result<(), CoreError> {
        let pending = self.pending.take_if(|k| KeyId::of_rsa(k.public()) == *id);
        let keypair = pending.ok_or(CoreError::Card("no such pending pseudonym"))?;
        self.pseudonyms.insert(*id, keypair);
        Ok(())
    }

    /// Starts generating the next pseudonym key pair from a seed drawn
    /// from `rng`. A failed spawn leaves nothing prepared, so the next
    /// issuance generates inline.
    fn prepare_next<R: CryptoRng + ?Sized>(&mut self, rng: &mut R) {
        let seed: [u8; 32] = random_array(rng);
        let bits = self.key_bits;
        self.prepared = std::thread::Builder::new()
            .name("card-keygen".into())
            .spawn(move || RsaKeyPair::generate(bits, &mut ChaChaRng::new(seed, [0; 12])))
            .ok();
    }

    /// Discards a pseudonym key (frees card memory).
    pub fn forget_pseudonym(&mut self, id: &KeyId) -> bool {
        self.pseudonyms.remove(id).is_some()
    }

    /// Signs with the master identity key (registration / RA
    /// authentication only — never toward a provider).
    pub fn sign_with_master(&self, data: &[u8]) -> Result<RsaSignature, CoreError> {
        self.ensure_active()?;
        Ok(self.master.sign(data))
    }

    /// Signs a challenge with a pseudonym key (holder proof).
    pub fn sign_with_pseudonym(
        &self,
        pseudonym: &KeyId,
        data: &[u8],
    ) -> Result<RsaSignature, CoreError> {
        self.ensure_active()?;
        let kp = self
            .pseudonyms
            .get(pseudonym)
            .ok_or(CoreError::Card("unknown pseudonym"))?;
        Ok(kp.sign(data))
    }

    /// Signs a holder challenge with a pseudonym key and opens a license
    /// key envelope with the same key: both private-key operations run
    /// in one batch ([`envelope::sign_and_open`]). The signature is the
    /// one [`SmartCard::sign_with_pseudonym`] gives; the content key
    /// stays in the [`OpenedKey`] until [`SmartCard::reseal`] releases
    /// it, and an envelope the key cannot open is refused only there.
    pub fn prove_and_open(
        &self,
        pseudonym: &KeyId,
        challenge: &[u8],
        env: &Envelope,
    ) -> Result<(RsaSignature, OpenedKey), CoreError> {
        self.ensure_active()?;
        let kp = self
            .pseudonyms
            .get(pseudonym)
            .ok_or(CoreError::Card("unknown pseudonym"))?;
        let (signature, content_key) = envelope::sign_and_open(kp, challenge, env);
        Ok((signature, OpenedKey(content_key)))
    }

    /// Re-seals an opened content key to `device_key` — the card-to-device
    /// key release — or refuses with the error opening its envelope gave.
    pub fn reseal<R: CryptoRng + ?Sized>(
        &self,
        opened: OpenedKey,
        device_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<Envelope, CoreError> {
        self.ensure_active()?;
        let content_key = opened.0.as_ref().map_err(|e| e.clone())?;
        Ok(envelope::seal(device_key, content_key, rng))
    }

    /// Baseline flow variant: unwrap an envelope sealed to the *master*
    /// key (identity-bound licenses) and re-seal to the device.
    pub fn unwrap_master_and_reseal<R: CryptoRng + ?Sized>(
        &self,
        env: &Envelope,
        device_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<Envelope, CoreError> {
        self.ensure_active()?;
        let content_key = envelope::open(&self.master, env)?;
        Ok(envelope::seal(device_key, &content_key, rng))
    }
}

/// A content key a card opened and has not yet released
/// ([`SmartCard::prove_and_open`]): only the card's
/// [`SmartCard::reseal`] reads it, and it is zeroized on drop.
pub struct OpenedKey(Result<Vec<u8>, CryptoError>);

impl Drop for OpenedKey {
    fn drop(&mut self) {
        if let Ok(key) = &mut self.0 {
            key.fill(0);
            std::hint::black_box(key);
        }
    }
}
