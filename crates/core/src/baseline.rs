//! The baseline: conventional identity-bound DRM.
//!
//! This is the comparator for every benchmark — exactly what the paper's
//! scheme replaces. Purchases are identified charges, licenses bind to the
//! user's master key, and the provider's purchase log links every sale to
//! an account name.

use crate::content::ContentCatalog;
use crate::entities::device::{challenge_message, CompliantDevice};
use crate::entities::user::UserAgent;
use crate::ids::{ContentId, LicenseId};
use crate::license::{License, LicenseBody};
use crate::{CoreError, Party, Transcript};
use p2drm_crypto::envelope;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use p2drm_payment::identified::PaymentProcessor;
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::{Certificate, EntityKind, SubjectKey, Validity};
use p2drm_rel::{AccessRequest, Rights};
use p2drm_store::ConcurrentKv;
use std::collections::HashMap;

/// A conventional (non-private) DRM provider.
pub struct BaselineProvider {
    keys: RsaKeyPair,
    cert: Certificate,
    catalog: ContentCatalog,
    rights_templates: HashMap<ContentId, Rights>,
    processor: PaymentProcessor,
    /// account -> purchases: the linkable record the paper eliminates.
    purchase_log: Vec<(String, ContentId)>,
}

impl BaselineProvider {
    /// Creates a baseline provider chaining to `root`.
    pub fn new<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        processor: PaymentProcessor,
        key_bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Self {
        let keys = RsaKeyPair::generate(key_bits, rng);
        let cert = root.issue(
            EntityKind::ContentProvider,
            SubjectKey::Rsa(keys.public().clone()),
            validity,
            vec![],
        );
        BaselineProvider {
            keys,
            cert,
            catalog: ContentCatalog::new(),
            rights_templates: HashMap::new(),
            processor,
            purchase_log: Vec::new(),
        }
    }

    /// License verification key.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keys.public()
    }

    /// Provider certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Publishes content (same shape as the private provider).
    pub fn publish<R: CryptoRng + ?Sized>(
        &mut self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        rng: &mut R,
    ) -> ContentId {
        let id = self.catalog.publish(title, price, payload, rng);
        self.rights_templates.insert(id, rights);
        id
    }

    /// Identified purchase: charge the account, bind the license to the
    /// user's master (identity) key.
    #[allow(clippy::too_many_arguments)]
    pub fn purchase_identified<R: CryptoRng + ?Sized>(
        &mut self,
        user: &mut UserAgent,
        ra_identity_key: &RsaPublicKey,
        content_id: ContentId,
        now: u64,
        now_epoch: u32,
        rng: &mut R,
        transcript: &mut Transcript,
    ) -> Result<License, CoreError> {
        // User sends identity certificate + account — fully identifying.
        user.card.master_cert().verify(ra_identity_key, now)?;
        let mut id_msg = user.account.clone().into_bytes();
        id_msg.extend_from_slice(&p2drm_codec::to_bytes(user.card.master_cert()));
        transcript.record(Party::User, Party::Provider, "identified-request", id_msg);

        let item = self
            .catalog
            .get(&content_id)
            .ok_or(CoreError::UnknownContent(content_id))?;
        let receipt = self.processor.charge(&user.account, item.meta.price)?;
        transcript.record(
            Party::Provider,
            Party::Mint,
            "card-charge",
            p2drm_codec::to_bytes(&receipt),
        );

        let rights = self
            .rights_templates
            .get(&content_id)
            .cloned()
            .unwrap_or_else(Rights::standard_purchase);
        let body = LicenseBody {
            license_id: LicenseId::random(rng),
            content_id,
            holder: user.card.master_public().clone(),
            rights,
            key_envelope: envelope::seal(user.card.master_public(), &item.key, rng),
            issued_epoch: now_epoch,
        };
        let license = License::issue(body, &self.keys);
        transcript.record(
            Party::Provider,
            Party::User,
            "license",
            p2drm_codec::to_bytes(&license),
        );
        self.purchase_log.push((user.account.clone(), content_id));
        user.add_license(
            license.clone(),
            p2drm_pki::cert::KeyId::of_rsa(user.card.master_public()),
        );
        Ok(license)
    }

    /// Anonymous-equivalent of download (the payload itself is identical).
    pub fn download(&self, content_id: &ContentId) -> Result<([u8; 12], Vec<u8>), CoreError> {
        let item = self
            .catalog
            .get(content_id)
            .ok_or(CoreError::UnknownContent(*content_id))?;
        Ok((item.nonce, item.ciphertext.clone()))
    }

    /// The provider's linkable sales record.
    pub fn purchase_log(&self) -> &[(String, ContentId)] {
        &self.purchase_log
    }

    /// The payment processor (shared with the system).
    pub fn processor(&self) -> &PaymentProcessor {
        &self.processor
    }
}

/// Identity-bound playback: same device enforcement loop, but the holder
/// key is the master key and no pseudonym certificate is involved.
pub fn play_identified<SD: ConcurrentKv, R: CryptoRng + ?Sized>(
    user: &UserAgent,
    device: &mut CompliantDevice<SD>,
    provider: &BaselineProvider,
    license: &License,
    now: u64,
    rng: &mut R,
    transcript: &mut Transcript,
) -> Result<Vec<u8>, CoreError> {
    let nonce = device.make_challenge(rng);
    let proof = user
        .card
        .sign_with_master(&challenge_message(&nonce, &license.id()))?;
    transcript.record(
        Party::Card,
        Party::Device,
        "holder-proof",
        p2drm_codec::to_bytes(&proof),
    );
    let req = AccessRequest::play(now, device.binding_id());
    device.check_access(license, None, &nonce, &proof, &req)?;

    let sealed =
        user.card
            .unwrap_master_and_reseal(&license.body.key_envelope, device.public_key(), rng)?;
    transcript.record(
        Party::Card,
        Party::Device,
        "key-release",
        p2drm_codec::to_bytes(&sealed),
    );
    let content_key = device.open_sealed_key(&sealed)?;
    let (content_nonce, ciphertext) = provider.download(&license.body.content_id)?;
    transcript.record(
        Party::Provider,
        Party::Device,
        "download-response",
        ciphertext.clone(),
    );
    let payload = crate::content::decrypt_payload(&content_key, &content_nonce, &ciphertext);
    device.consume(license, &req)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn identified_purchase_and_play() {
        let mut rng = test_rng(210);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_baseline_content("B", 100, b"BASELINE DATA", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 1000);

        let mut t = Transcript::new();
        let ra_key = sys.ra.identity_public().clone();
        let license = sys
            .baseline
            .purchase_identified(
                &mut alice,
                &ra_key,
                cid,
                sys.now(),
                sys.epoch(),
                &mut rng,
                &mut t,
            )
            .unwrap();
        assert!(license.verify(sys.baseline.public_key()).is_ok());

        let mut device = sys.register_baseline_device(&mut rng).unwrap();
        let mut t2 = Transcript::new();
        let payload = play_identified(
            &alice,
            &mut device,
            &sys.baseline,
            &license,
            sys.now(),
            &mut rng,
            &mut t2,
        )
        .unwrap();
        assert_eq!(payload, b"BASELINE DATA");
    }

    #[test]
    fn baseline_leaks_identity_by_design() {
        // The contrast test: the baseline purchase transcript DOES carry
        // the account name to the provider — the leak P2DRM removes.
        let mut rng = test_rng(211);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_baseline_content("B", 100, b"D", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 1000);
        let mut t = Transcript::new();
        let ra_key = sys.ra.identity_public().clone();
        sys.baseline
            .purchase_identified(
                &mut alice,
                &ra_key,
                cid,
                sys.now(),
                sys.epoch(),
                &mut rng,
                &mut t,
            )
            .unwrap();
        assert!(t.scan_for(Party::Provider, alice.account.as_bytes()));
        assert_eq!(sys.baseline.purchase_log().len(), 1);
        assert_eq!(sys.baseline.purchase_log()[0].0, alice.account);
    }

    #[test]
    fn unfunded_account_rejected() {
        let mut rng = test_rng(212);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_baseline_content("B", 100, b"D", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        let mut t = Transcript::new();
        let ra_key = sys.ra.identity_public().clone();
        let res = sys.baseline.purchase_identified(
            &mut alice,
            &ra_key,
            cid,
            sys.now(),
            sys.epoch(),
            &mut rng,
            &mut t,
        );
        assert!(matches!(res, Err(CoreError::Payment(_))));
    }
}
