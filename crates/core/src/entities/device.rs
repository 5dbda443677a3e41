//! The compliant device: the enforcement point.
//!
//! A device renders content only after (1) the license verifies against the
//! provider key, (2) the holder pseudonym certificate verifies against the
//! RA blind key, (3) neither license nor pseudonym is revoked in the
//! device's synced CRLs, (4) the holder proves possession of the pseudonym
//! key (challenge–response via the smart card), and (5) the rights
//! expression permits the action given persisted per-license state.
//!
//! The device's store holds two tables and one row. `state/<license id>`
//! is the [`RightsState`] each license has used up. `crl` is the signed
//! CRL pair the device enforces, written before the pair takes effect
//! and verified again when the device opens its store, so a reboot
//! forgets no revocation and accepts no pair a sync would refuse.
//! `content/<content id>` is the item's [`DownloadResponse`] encoding
//! (nonce ‖ ciphertext), kept after the first play that fetched it, so
//! later plays of the item — under any license — send nothing to the
//! provider. The `content/` rows
//! never sum above [`CONTENT_BUDGET`] bytes: the oldest-fetched row is
//! evicted first, and an item larger than the whole budget is never
//! kept. A durable device rebuilds the eviction order on open from the
//! rows it finds, in key order. A kept ciphertext is only bytes: every
//! play still passes every check above and the card's key release
//! before anything is decrypted.

use crate::ids::{ContentId, DeviceId};
use crate::license::License;
use crate::protocol::messages::{CrlSync, DownloadResponse};
use crate::CoreError;
use p2drm_crypto::envelope::{self, Envelope};
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::{Certificate, EntityKind, KeyId, PseudonymCertificate, SubjectKey, Validity};
use p2drm_pki::crl::{CrlScope, SignedCrl};
use p2drm_rel::{AccessRequest, Decision, RightsState};
use p2drm_store::typed::Table;
use p2drm_store::{ConcurrentKv, MemKv, StoreError};
use std::collections::VecDeque;

/// Bytes of `content/` rows a device keeps for offline play: sixteen
/// 16 KiB ciphertexts' worth. A 16 KiB item's row also holds its nonce
/// and length prefix (16,399 B), so fifteen such rows fit.
pub const CONTENT_BUDGET: usize = 256 * 1024;

const CONTENT_PREFIX: &[u8] = b"content/";
const CRL_ROW: &[u8] = b"crl";

fn content_key(id: &ContentId) -> Vec<u8> {
    [CONTENT_PREFIX, id.as_bytes()].concat()
}

/// A compliant rendering device, generic over its state store.
pub struct CompliantDevice<S: ConcurrentKv = MemKv> {
    device_id: DeviceId,
    keys: RsaKeyPair,
    cert: Certificate,
    provider_key: RsaPublicKey,
    ra_blind_key: RsaPublicKey,
    store: S,
    states: Table<RightsState>,
    /// The CRL pair last accepted, as its `crl` row holds it.
    crls: Option<CrlSync>,
    /// The `content/` rows, oldest-fetched first, with their sizes.
    held: VecDeque<(ContentId, usize)>,
    held_bytes: usize,
}

impl CompliantDevice<MemKv> {
    /// Device with volatile rights-state storage.
    pub fn new<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        provider_cert: &Certificate,
        ra_blind_key: RsaPublicKey,
        key_bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        Self::with_store(
            root,
            provider_cert,
            ra_blind_key,
            MemKv::new(),
            key_bits,
            validity,
            rng,
        )
    }
}

impl<S: ConcurrentKv> CompliantDevice<S> {
    /// Device over a caller-supplied store (a one-shard
    /// [`p2drm_store::WalShardedKv`] directory makes play counts, kept
    /// items and CRLs durable). A store that holds a `crl` row must hold
    /// a pair signed by the provider, each list in its own scope.
    pub fn with_store<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        provider_cert: &Certificate,
        ra_blind_key: RsaPublicKey,
        store: S,
        key_bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        // The device trusts the root it was manufactured with; it accepts
        // the provider key only through a root-signed certificate.
        provider_cert.verify(root.public_key(), validity.from)?;
        let provider_key = provider_cert.body.subject_key.as_rsa()?.clone();
        let keys = RsaKeyPair::generate(key_bits, rng);
        let cert = root.issue(
            EntityKind::Device,
            SubjectKey::Rsa(keys.public().clone()),
            validity,
            vec![p2drm_pki::cert::Extension {
                key: "compliance".into(),
                value: vec![1],
            }],
        );
        let mut device = CompliantDevice {
            device_id: DeviceId::random(rng),
            keys,
            cert,
            provider_key,
            ra_blind_key,
            store,
            states: Table::new("state/"),
            crls: None,
            held: VecDeque::new(),
            held_bytes: 0,
        };
        if let Some(row) = device.store.get(CRL_ROW) {
            let crls: CrlSync = p2drm_codec::from_bytes(&row).map_err(StoreError::from)?;
            device.verify_crls(&crls.license_crl, &crls.pseudonym_crl)?;
            device.crls = Some(crls);
        }
        for (key, row) in device.store.scan_prefix(CONTENT_PREFIX) {
            if let Some(id) = key
                .get(CONTENT_PREFIX.len()..)
                .and_then(|id| <[u8; 16]>::try_from(id).ok())
            {
                device.held.push_back((ContentId(id), row.len()));
                device.held_bytes += row.len();
            }
        }
        device.evict_until(0);
        Ok(device)
    }

    /// Device identifier.
    pub fn device_id(&self) -> DeviceId {
        self.device_id
    }

    /// Device id as the 32-byte form REL device bindings use.
    pub fn binding_id(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(self.device_id.as_bytes());
        out
    }

    /// Device public key (smart cards seal content keys to this).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keys.public()
    }

    /// Compliance certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Ingests the provider's two full CRLs — the device's one CRL entry
    /// point. Both signatures are verified before any state is touched,
    /// each as the list its slot expects (a license CRL first, then a
    /// pseudonym CRL, so one list shown in both slots is refused), and
    /// sequence numbers must be non-decreasing (rollback protection).
    /// The accepted pair is written to the `crl` row before it takes
    /// effect: a refused pair, or one whose row write fails, leaves both
    /// lists and both sequences as they were. A pair at the sequences
    /// held changes nothing and writes nothing: the provider signs one
    /// list per sequence.
    pub fn sync_crls(
        &mut self,
        license_crl: &SignedCrl,
        pseudonym_crl: &SignedCrl,
    ) -> Result<(), CoreError> {
        self.verify_crls(license_crl, pseudonym_crl)?;
        let (licenses, pseudonyms) = self.crl_sequences();
        if license_crl.body.sequence < licenses || pseudonym_crl.body.sequence < pseudonyms {
            return Err(CoreError::BadLicense("stale CRL rejected"));
        }
        let shown = (license_crl.body.sequence, pseudonym_crl.body.sequence);
        if self.crls.is_some() && shown == (licenses, pseudonyms) {
            return Ok(());
        }
        let crls = CrlSync {
            license_crl: license_crl.clone(),
            pseudonym_crl: pseudonym_crl.clone(),
        };
        self.store.put(CRL_ROW, &p2drm_codec::to_bytes(&crls))?;
        self.crls = Some(crls);
        Ok(())
    }

    /// Both lists signed by the provider, each in the scope of its slot.
    fn verify_crls(
        &self,
        license_crl: &SignedCrl,
        pseudonym_crl: &SignedCrl,
    ) -> Result<(), CoreError> {
        license_crl.verify(&self.provider_key, CrlScope::License)?;
        pseudonym_crl.verify(&self.provider_key, CrlScope::Pseudonym)?;
        Ok(())
    }

    /// The license and pseudonym CRL sequences held (0 before any sync).
    fn crl_sequences(&self) -> (u64, u64) {
        self.crls.as_ref().map_or((0, 0), |c| {
            (c.license_crl.body.sequence, c.pseudonym_crl.body.sequence)
        })
    }

    /// Generates a holder challenge (fresh nonce).
    pub fn make_challenge<R: CryptoRng + ?Sized>(&self, rng: &mut R) -> [u8; 32] {
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        nonce
    }

    /// Full compliance check for an access request, *without* consuming
    /// rights state. Returns the current state for inspection.
    pub fn check_access(
        &self,
        license: &License,
        pseudonym_cert: Option<&PseudonymCertificate>,
        challenge: &[u8; 32],
        challenge_sig: &RsaSignature,
        req: &AccessRequest,
    ) -> Result<RightsState, CoreError> {
        license.verify(&self.provider_key)?;
        let crls = self.crls.as_ref();
        let crl_id = crate::entities::provider::license_crl_id(&license.id());
        if crls.is_some_and(|c| c.license_crl.body.list.contains(&crl_id)) {
            return Err(CoreError::Revoked("license"));
        }
        if let Some(cert) = pseudonym_cert {
            cert.verify(&self.ra_blind_key)
                .map_err(|_| CoreError::BadPseudonym("RA signature invalid"))?;
            let id = cert.pseudonym_id();
            if crls.is_some_and(|c| c.pseudonym_crl.body.list.contains(&id)) {
                return Err(CoreError::Revoked("pseudonym"));
            }
            // License must be bound to this very pseudonym key.
            if KeyId::of_rsa(&license.body.holder) != cert.pseudonym_id() {
                return Err(CoreError::BadLicense("holder key mismatch"));
            }
        }
        // Holder proof: signature over (challenge ‖ license id).
        let proof_msg = challenge_message(challenge, &license.id());
        license
            .body
            .holder
            .verify(&proof_msg, challenge_sig)
            .map_err(|_| CoreError::BadProof)?;

        let state = self
            .states
            .get(&self.store, license.id().as_bytes())?
            .unwrap_or_default();
        match license.body.rights.evaluate(&state, req) {
            Decision::Permit => Ok(state),
            Decision::Deny(reason) => Err(CoreError::Denied(reason)),
        }
    }

    /// Consumes one use of `req.action` for the license, persisting state.
    pub fn consume(&mut self, license: &License, req: &AccessRequest) -> Result<(), CoreError> {
        let mut state = self
            .states
            .get(&self.store, license.id().as_bytes())?
            .unwrap_or_default();
        state.consume(req.action);
        self.states
            .put(&self.store, license.id().as_bytes(), &state)?;
        Ok(())
    }

    /// Unwraps a card-sealed content key with the device private key.
    pub fn open_sealed_key(&self, sealed: &Envelope) -> Result<[u8; 32], CoreError> {
        let key = envelope::open(&self.keys, sealed)?;
        key.as_slice()
            .try_into()
            .map_err(|_| CoreError::BadLicense("content key wrong length"))
    }

    /// The item as an earlier play kept it; `None` when this device holds
    /// no readable row for it.
    pub(crate) fn held_content(&self, id: &ContentId) -> Option<DownloadResponse> {
        let row = self.store.get(&content_key(id))?;
        p2drm_codec::from_bytes(&row).ok()
    }

    /// Keeps a fetched item for later plays, evicting the oldest-fetched
    /// rows until it fits [`CONTENT_BUDGET`]; an item over the whole
    /// budget is not kept. A row the store fails to write is not kept
    /// either: the next play fetches the item again.
    pub(crate) fn hold_content(&mut self, id: ContentId, item: &DownloadResponse) {
        let row = p2drm_codec::to_bytes(item);
        if row.len() > CONTENT_BUDGET {
            return;
        }
        // A row the store could not read back is replaced, not counted
        // twice.
        if let Some(at) = self.held.iter().position(|(held, _)| *held == id) {
            if let Some((_, len)) = self.held.remove(at) {
                self.held_bytes -= len;
            }
        }
        if self.evict_until(row.len()) && self.store.put(&content_key(&id), &row).is_ok() {
            self.held.push_back((id, row.len()));
            self.held_bytes += row.len();
        }
    }

    /// Evicts oldest-fetched rows until `room` more bytes fit the budget;
    /// false if a row could not be deleted.
    fn evict_until(&mut self, room: usize) -> bool {
        while self.held_bytes + room > CONTENT_BUDGET {
            let Some((id, len)) = self.held.pop_front() else {
                break;
            };
            if self.store.delete(&content_key(&id)).is_err() {
                self.held.push_front((id, len));
                return false;
            }
            self.held_bytes -= len;
        }
        true
    }

    /// Current persisted state for a license (testing/diagnostics).
    pub fn rights_state(&self, license: &License) -> Result<RightsState, CoreError> {
        Ok(self
            .states
            .get(&self.store, license.id().as_bytes())?
            .unwrap_or_default())
    }

    /// Highest license-CRL sequence synced.
    pub fn crl_sequence(&self) -> u64 {
        self.crl_sequences().0
    }
}

/// The message a holder signs to prove presence: `challenge ‖ license id`.
pub fn challenge_message(challenge: &[u8; 32], lid: &crate::ids::LicenseId) -> Vec<u8> {
    let mut m = Vec::with_capacity(48 + 16);
    m.extend_from_slice(b"p2drm-holder-proof");
    m.extend_from_slice(challenge);
    m.extend_from_slice(lid.as_bytes());
    m
}
