//! Certificate authorities: self-signed roots, subordinate issuance, and
//! the registration authority's dedicated blind-signing key.

use crate::cert::{
    Certificate, CertificateBody, EntityKind, Extension, KeyId, SubjectKey, Validity,
};
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use std::sync::atomic::{AtomicU64, Ordering};

/// A certificate authority: an RSA signing key plus its own certificate.
///
/// Issuance takes `&self` (the serial counter is atomic), so shared
/// server-side entities — the RA, a provider bootstrapping under one root
/// — can certify subjects concurrently.
pub struct CertificateAuthority {
    keypair: RsaKeyPair,
    cert: Certificate,
    next_serial: AtomicU64,
}

impl CertificateAuthority {
    /// Creates a self-signed root.
    pub fn new_root<R: CryptoRng + ?Sized>(bits: usize, validity: Validity, rng: &mut R) -> Self {
        let keypair = RsaKeyPair::generate(bits, rng);
        let body = CertificateBody {
            serial: 0,
            kind: EntityKind::Root,
            subject_key: SubjectKey::Rsa(keypair.public().clone()),
            issuer: KeyId::of_rsa(keypair.public()),
            validity,
            extensions: vec![],
        };
        let signature = keypair.sign(&body.signing_bytes());
        CertificateAuthority {
            cert: Certificate { body, signature },
            keypair,
            next_serial: AtomicU64::new(1),
        }
    }

    /// Creates a subordinate authority certified by `parent`.
    pub fn new_subordinate<R: CryptoRng + ?Sized>(
        parent: &mut CertificateAuthority,
        kind: EntityKind,
        bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Self {
        let keypair = RsaKeyPair::generate(bits, rng);
        let cert = parent.issue(
            kind,
            SubjectKey::Rsa(keypair.public().clone()),
            validity,
            vec![],
        );
        CertificateAuthority {
            keypair,
            cert,
            next_serial: AtomicU64::new(1),
        }
    }

    /// Issues a certificate for `subject_key`.
    pub fn issue(
        &self,
        kind: EntityKind,
        subject_key: SubjectKey,
        validity: Validity,
        extensions: Vec<Extension>,
    ) -> Certificate {
        let body = CertificateBody {
            serial: self.next_serial.fetch_add(1, Ordering::Relaxed),
            kind,
            subject_key,
            issuer: KeyId::of_rsa(self.keypair.public()),
            validity,
            extensions,
        };
        let signature = self.keypair.sign(&body.signing_bytes());
        Certificate { body, signature }
    }

    /// This authority's verification key.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// This authority's own certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// This authority's key id.
    pub fn key_id(&self) -> KeyId {
        KeyId::of_rsa(self.keypair.public())
    }

    /// Access to the underlying keypair for protocol engines that need raw
    /// operations (e.g. license issuance receipts).
    pub fn keypair(&self) -> &RsaKeyPair {
        &self.keypair
    }
}

/// The registration authority's key material.
///
/// Two separated keys: `identity` certifies users/cards with standard
/// signatures; `blind` ONLY produces blind FDH signatures over pseudonym
/// certificate bodies. Anything signed by `blind` means exactly
/// "a registered card asked me to certify one pseudonym" — nothing more,
/// which is why signing unseen bytes is acceptable.
pub struct RegistrationAuthorityKeys {
    /// Standard certification authority for cards and users.
    pub identity: CertificateAuthority,
    /// Dedicated blind-signing key for pseudonym certificates.
    pub blind: RsaKeyPair,
    /// Certificate binding the blind key into the hierarchy.
    pub blind_cert: Certificate,
}

impl RegistrationAuthorityKeys {
    /// Creates RA keys under `root`.
    pub fn create<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        bits: usize,
        validity: Validity,
        rng: &mut R,
    ) -> Self {
        let identity = CertificateAuthority::new_subordinate(
            root,
            EntityKind::RegistrationAuthority,
            bits,
            validity,
            rng,
        );
        let blind = RsaKeyPair::generate(bits, rng);
        let blind_cert = root.issue(
            EntityKind::RegistrationAuthority,
            SubjectKey::Rsa(blind.public().clone()),
            validity,
            vec![Extension {
                key: "usage".into(),
                value: b"blind-pseudonym-issuance".to_vec(),
            }],
        );
        RegistrationAuthorityKeys {
            identity,
            blind,
            blind_cert,
        }
    }

    /// The blind verification key pseudonym certificates verify against.
    pub fn blind_public(&self) -> &RsaPublicKey {
        self.blind.public()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;

    fn validity() -> Validity {
        Validity::new(0, 1_000_000)
    }

    #[test]
    fn root_is_self_verifying() {
        let mut rng = test_rng(60);
        let root = CertificateAuthority::new_root(512, validity(), &mut rng);
        assert!(root.certificate().verify(root.public_key(), 500).is_ok());
        assert_eq!(root.certificate().body.kind, EntityKind::Root);
    }

    #[test]
    fn issued_cert_verifies_against_issuer_only() {
        let mut rng = test_rng(61);
        let root = CertificateAuthority::new_root(512, validity(), &mut rng);
        let other = CertificateAuthority::new_root(512, validity(), &mut rng);
        let subject = RsaKeyPair::generate(512, &mut rng);
        let cert = root.issue(
            EntityKind::Device,
            SubjectKey::Rsa(subject.public().clone()),
            validity(),
            vec![],
        );
        assert!(cert.verify(root.public_key(), 10).is_ok());
        assert!(cert.verify(other.public_key(), 10).is_err());
    }

    #[test]
    fn serials_increment() {
        let mut rng = test_rng(62);
        let root = CertificateAuthority::new_root(512, validity(), &mut rng);
        let k = RsaKeyPair::generate(512, &mut rng);
        let c1 = root.issue(
            EntityKind::Device,
            SubjectKey::Rsa(k.public().clone()),
            validity(),
            vec![],
        );
        let c2 = root.issue(
            EntityKind::Device,
            SubjectKey::Rsa(k.public().clone()),
            validity(),
            vec![],
        );
        assert_eq!(c1.body.serial + 1, c2.body.serial);
    }

    #[test]
    fn expired_cert_rejected() {
        let mut rng = test_rng(63);
        let root = CertificateAuthority::new_root(512, validity(), &mut rng);
        let k = RsaKeyPair::generate(512, &mut rng);
        let cert = root.issue(
            EntityKind::Device,
            SubjectKey::Rsa(k.public().clone()),
            Validity::new(100, 200),
            vec![],
        );
        assert!(matches!(
            cert.verify(root.public_key(), 99),
            Err(crate::PkiError::Expired { .. })
        ));
        assert!(cert.verify(root.public_key(), 150).is_ok());
        assert!(cert.verify(root.public_key(), 201).is_err());
    }

    #[test]
    fn tampered_body_rejected() {
        let mut rng = test_rng(64);
        let root = CertificateAuthority::new_root(512, validity(), &mut rng);
        let k = RsaKeyPair::generate(512, &mut rng);
        let mut cert = root.issue(
            EntityKind::Device,
            SubjectKey::Rsa(k.public().clone()),
            validity(),
            vec![],
        );
        cert.body.serial += 1;
        assert_eq!(
            cert.verify(root.public_key(), 10),
            Err(crate::PkiError::BadSignature)
        );
    }

    #[test]
    fn ra_keys_are_separated() {
        let mut rng = test_rng(65);
        let mut root = CertificateAuthority::new_root(512, validity(), &mut rng);
        let ra = RegistrationAuthorityKeys::create(&mut root, 512, validity(), &mut rng);
        // The two RA keys differ and both chain to the root.
        assert_ne!(
            ra.identity.public_key().fingerprint(),
            ra.blind_public().fingerprint()
        );
        assert!(ra
            .identity
            .certificate()
            .verify(root.public_key(), 10)
            .is_ok());
        assert!(ra.blind_cert.verify(root.public_key(), 10).is_ok());
        assert_eq!(
            ra.blind_cert.body.extension("usage"),
            Some(&b"blind-pseudonym-issuance"[..])
        );
    }

    #[test]
    fn subordinate_chain() {
        let mut rng = test_rng(66);
        let mut root = CertificateAuthority::new_root(512, validity(), &mut rng);
        let sub = CertificateAuthority::new_subordinate(
            &mut root,
            EntityKind::ContentProvider,
            512,
            validity(),
            &mut rng,
        );
        assert!(sub.certificate().verify(root.public_key(), 10).is_ok());
        // Sub can issue leaf certs verifiable against the sub key.
        let leaf_key = RsaKeyPair::generate(512, &mut rng);
        let leaf = sub.issue(
            EntityKind::Device,
            SubjectKey::Rsa(leaf_key.public().clone()),
            validity(),
            vec![],
        );
        assert!(leaf.verify(sub.public_key(), 10).is_ok());
        assert!(leaf.verify(root.public_key(), 10).is_err());
    }
}
