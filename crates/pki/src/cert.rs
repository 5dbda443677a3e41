//! Certificate structures: bodies, signatures, extensions, and the
//! blind-issued pseudonym certificate.

use crate::PkiError;
use p2drm_codec::{Decode, Encode, Reader, Writer};
use p2drm_crypto::blind;
use p2drm_crypto::elgamal::{ElGamalCiphertext, ElGamalPublicKey};
use p2drm_crypto::rsa::{RsaPublicKey, RsaSignature, SignatureCheck};
use p2drm_crypto::sha256::sha256;
use p2drm_crypto::CryptoError;

p2drm_codec::record! {
    /// 32-byte key identifier: SHA-256 fingerprint of a canonical public key.
    /// A pseudonym's key id is linkable, so it has no hex rendering and its
    /// `Debug` prints `KeyId(..)`.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct KeyId(pub [u8; 32]);
}

impl KeyId {
    /// Fingerprint of an RSA key.
    pub fn of_rsa(pk: &RsaPublicKey) -> Self {
        KeyId(pk.fingerprint())
    }

    /// Fingerprint of an ElGamal key.
    pub fn of_elgamal(pk: &ElGamalPublicKey) -> Self {
        KeyId(pk.fingerprint())
    }
}

impl std::fmt::Debug for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyId(..)")
    }
}

/// What kind of entity a certificate vouches for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// Self-signed trust anchor.
    Root,
    /// Registration authority (issues cards and blind pseudonym certs).
    RegistrationAuthority,
    /// Content provider / license server.
    ContentProvider,
    /// Compliant rendering device.
    Device,
    /// Tamper-resistant user smart card.
    SmartCard,
    /// Anonymity-revocation trusted third party.
    Ttp,
    /// E-cash mint.
    Mint,
    /// Identified user master key (baseline DRM only).
    User,
}

impl EntityKind {
    fn discriminant(self) -> u8 {
        match self {
            EntityKind::Root => 0,
            EntityKind::RegistrationAuthority => 1,
            EntityKind::ContentProvider => 2,
            EntityKind::Device => 3,
            EntityKind::SmartCard => 4,
            EntityKind::Ttp => 5,
            EntityKind::Mint => 6,
            EntityKind::User => 7,
        }
    }

    fn from_discriminant(d: u8) -> Option<Self> {
        Some(match d {
            0 => EntityKind::Root,
            1 => EntityKind::RegistrationAuthority,
            2 => EntityKind::ContentProvider,
            3 => EntityKind::Device,
            4 => EntityKind::SmartCard,
            5 => EntityKind::Ttp,
            6 => EntityKind::Mint,
            7 => EntityKind::User,
            _ => return None,
        })
    }
}

impl Encode for EntityKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.discriminant());
    }
}

impl Decode for EntityKind {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let d = r.get_u8()?;
        Self::from_discriminant(d).ok_or(p2drm_codec::CodecError::BadDiscriminant(d))
    }
}

/// Public key carried by a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubjectKey {
    /// RSA key (signing / KEM).
    Rsa(RsaPublicKey),
    /// ElGamal key (escrow encryption; used by the TTP certificate).
    ElGamal(ElGamalPublicKey),
}

impl SubjectKey {
    /// Key identifier regardless of type.
    pub fn key_id(&self) -> KeyId {
        match self {
            SubjectKey::Rsa(k) => KeyId::of_rsa(k),
            SubjectKey::ElGamal(k) => KeyId::of_elgamal(k),
        }
    }

    /// The RSA key, if that is what this is.
    pub fn as_rsa(&self) -> Result<&RsaPublicKey, PkiError> {
        match self {
            SubjectKey::Rsa(k) => Ok(k),
            _ => Err(PkiError::WrongKeyType),
        }
    }

    /// The ElGamal key, if that is what this is.
    pub fn as_elgamal(&self) -> Result<&ElGamalPublicKey, PkiError> {
        match self {
            SubjectKey::ElGamal(k) => Ok(k),
            _ => Err(PkiError::WrongKeyType),
        }
    }
}

impl Encode for SubjectKey {
    fn encode(&self, w: &mut Writer) {
        match self {
            SubjectKey::Rsa(k) => {
                w.put_u8(0);
                k.encode(w);
            }
            SubjectKey::ElGamal(k) => {
                w.put_u8(1);
                k.encode(w);
            }
        }
    }
}

impl Decode for SubjectKey {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        match r.get_u8()? {
            0 => Ok(SubjectKey::Rsa(RsaPublicKey::decode(r)?)),
            1 => Ok(SubjectKey::ElGamal(ElGamalPublicKey::decode(r)?)),
            d => Err(p2drm_codec::CodecError::BadDiscriminant(d)),
        }
    }
}

p2drm_codec::record! {
    /// Inclusive validity window in unix seconds.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Validity {
        /// First valid second.
        pub from: u64,
        /// Last valid second.
        pub until: u64,
    }
}

impl Validity {
    /// Window covering `[from, until]`.
    pub fn new(from: u64, until: u64) -> Self {
        Validity { from, until }
    }

    /// True when `now` falls inside the window.
    pub fn contains(&self, now: u64) -> bool {
        self.from <= now && now <= self.until
    }
}

p2drm_codec::record! {
    /// Free-form keyed extension (compliance flags, device class, ...).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Extension {
        /// Extension name (short, lowercase by convention).
        pub key: String,
        /// Opaque value bytes.
        pub value: Vec<u8>,
    }
}

p2drm_codec::record! {
    /// The signed portion of a standard certificate.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CertificateBody {
        /// Issuer-unique serial number.
        pub serial: u64,
        /// What the subject is.
        pub kind: EntityKind,
        /// Subject public key.
        pub subject_key: SubjectKey,
        /// Key id of the issuing authority's signing key.
        pub issuer: KeyId,
        /// Validity window.
        pub validity: Validity,
        /// Extensions, sorted by key for canonical encoding.
        pub extensions: Vec<Extension> as seq,
    }
}

impl CertificateBody {
    /// Canonical bytes that get signed.
    pub fn signing_bytes(&self) -> Vec<u8> {
        p2drm_codec::to_bytes(self)
    }

    /// Looks up an extension value.
    pub fn extension(&self, key: &str) -> Option<&[u8]> {
        self.extensions
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.value.as_slice())
    }
}

p2drm_codec::record! {
    /// A standard (identified) certificate: body + issuer PKCS#1 signature.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Certificate {
        /// Signed body.
        pub body: CertificateBody,
        /// Issuer signature over [`CertificateBody::signing_bytes`].
        pub signature: RsaSignature,
    }
}

impl Certificate {
    /// Verifies the issuer signature and validity window.
    pub fn verify(&self, issuer_key: &RsaPublicKey, now: u64) -> Result<(), PkiError> {
        self.check_constraints(issuer_key, now)?;
        self.verify_signature(issuer_key)
    }

    /// The cheap structural half of [`Certificate::verify`]: validity
    /// window and issuer binding, **no** signature check. Callers holding
    /// a cached signature success (see [`crate::vcache::VerifyCache`])
    /// must still run this on every presentation.
    pub fn check_constraints(&self, issuer_key: &RsaPublicKey, now: u64) -> Result<(), PkiError> {
        if !self.body.validity.contains(now) {
            return Err(PkiError::Expired {
                now,
                from: self.body.validity.from,
                until: self.body.validity.until,
            });
        }
        if KeyId::of_rsa(issuer_key) != self.body.issuer {
            return Err(PkiError::UnknownIssuer);
        }
        Ok(())
    }

    /// The expensive half of [`Certificate::verify`]: the issuer's RSA
    /// signature over the body bytes — the operation the verification
    /// cache elides on repeat presentations.
    pub fn verify_signature(&self, issuer_key: &RsaPublicKey) -> Result<(), PkiError> {
        issuer_key
            .verify(&self.body.signing_bytes(), &self.signature)
            .map_err(|_| PkiError::BadSignature)
    }

    /// Subject key id (the certificate's identity for CRL purposes).
    pub fn subject_id(&self) -> KeyId {
        self.body.subject_key.key_id()
    }
}

// ---------------------------------------------------------------------------
// Pseudonym certificates (blind-issued)
// ---------------------------------------------------------------------------

p2drm_codec::record! {
    /// The signed portion of a pseudonym certificate.
    ///
    /// Contains **no identity**: the pseudonym public key, the TTP identity
    /// escrow (decryptable only by the TTP upon abuse evidence) and an epoch
    /// used to age out pseudonyms. The RA signs its FDH *blindly*, so it never
    /// sees these bytes at issuance time.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PseudonymCertBody {
        /// Fresh pseudonym RSA key (license binding / KEM target).
        pub pseudonym_key: RsaPublicKey,
        /// `ElGamal_TTP(user id ‖ nonce)`, opened only on abuse.
        pub escrow: ElGamalCiphertext,
        /// Issuance epoch (coarse time bucket; not a timestamp, to avoid
        /// narrowing the anonymity set).
        pub epoch: u32,
    }
}

impl PseudonymCertBody {
    /// Canonical bytes whose FDH the RA blind-signs.
    pub fn signing_bytes(&self) -> Vec<u8> {
        p2drm_codec::to_bytes(self)
    }
}

p2drm_codec::record! {
    /// A blind-issued pseudonym certificate.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PseudonymCertificate {
        /// Anonymous body.
        pub body: PseudonymCertBody,
        /// RA blind signature (FDH-RSA) over the body bytes.
        pub signature: RsaSignature,
    }
}

impl PseudonymCertificate {
    /// Verifies the RA's blind-key signature.
    pub fn verify(&self, ra_blind_key: &RsaPublicKey) -> Result<(), PkiError> {
        self.signature_check(ra_blind_key)
            .and_then(|check| check.run())
            .map_err(|_| PkiError::BadSignature)
    }

    /// [`PseudonymCertificate::verify`] split around its public-key
    /// operation, for a caller that runs it in a batch of its own.
    pub fn signature_check<'a>(
        &'a self,
        ra_blind_key: &'a RsaPublicKey,
    ) -> Result<SignatureCheck<'a>, CryptoError> {
        SignatureCheck::fdh(ra_blind_key, &self.body.signing_bytes(), &self.signature)
    }

    /// The pseudonym's key id (its only "name").
    pub fn pseudonym_id(&self) -> KeyId {
        KeyId::of_rsa(&self.body.pseudonym_key)
    }
}

// ---------------------------------------------------------------------------
// Attribute certificates (blind-issued, attribute implied by the key)
// ---------------------------------------------------------------------------

p2drm_codec::record! {
    /// The signed portion of an attribute certificate: binds a **pseudonym
    /// key** to an attribute without naming anyone.
    ///
    /// The attribute itself is *not* in the body: the issuer keeps one blind
    /// signing key **per attribute**, so a signature under the "adult" key
    /// asserts exactly "the holder of this pseudonym key is an adult". This is
    /// what lets the issuer sign blindly and still vouch for the attribute —
    /// it checks the requester's entitlement before touching that key.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct AttributeCertBody {
        /// The pseudonym key the attribute is bound to (credential cannot be
        /// lent: using it requires the card holding this key).
        pub pseudonym_key: RsaPublicKey,
        /// Issuance epoch (coarse freshness bucket).
        pub epoch: u32,
    }
}

impl AttributeCertBody {
    /// Canonical bytes whose FDH the issuer blind-signs.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(b"p2drm-attr-v1");
        self.encode(&mut w);
        w.into_bytes()
    }
}

p2drm_codec::record! {
    /// A blind-issued attribute certificate. Carries the attribute name in the
    /// clear so verifiers know which issuer key to check — the name is public
    /// information ("adult"), the *holder* stays pseudonymous.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct AttributeCertificate {
        /// Which attribute this asserts (selects the issuer key).
        pub attribute: String,
        /// Anonymous body.
        pub body: AttributeCertBody,
        /// Issuer blind signature (FDH-RSA) under the per-attribute key.
        pub signature: RsaSignature,
    }
}

impl AttributeCertificate {
    /// Verifies against the issuer's per-attribute key.
    pub fn verify(&self, attribute_key: &RsaPublicKey) -> Result<(), PkiError> {
        blind::verify_fdh(attribute_key, &self.body.signing_bytes(), &self.signature)
            .map_err(|_| PkiError::BadSignature)
    }

    /// The pseudonym this credential is bound to.
    pub fn pseudonym_id(&self) -> KeyId {
        KeyId::of_rsa(&self.body.pseudonym_key)
    }
}

/// Convenience: hash arbitrary bytes into a [`KeyId`]-shaped identifier.
pub fn digest_id(data: &[u8]) -> KeyId {
    KeyId(sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;
    use p2drm_crypto::rsa::RsaKeyPair;

    fn rsa_pk(seed: u64) -> RsaPublicKey {
        RsaKeyPair::generate(512, &mut test_rng(seed))
            .public()
            .clone()
    }

    #[test]
    fn entity_kind_roundtrip_all() {
        for kind in [
            EntityKind::Root,
            EntityKind::RegistrationAuthority,
            EntityKind::ContentProvider,
            EntityKind::Device,
            EntityKind::SmartCard,
            EntityKind::Ttp,
            EntityKind::Mint,
            EntityKind::User,
        ] {
            let bytes = p2drm_codec::to_bytes(&kind);
            assert_eq!(p2drm_codec::from_bytes::<EntityKind>(&bytes).unwrap(), kind);
        }
        assert!(p2drm_codec::from_bytes::<EntityKind>(&[99]).is_err());
    }

    #[test]
    fn validity_window() {
        let v = Validity::new(10, 20);
        assert!(!v.contains(9));
        assert!(v.contains(10));
        assert!(v.contains(20));
        assert!(!v.contains(21));
    }

    #[test]
    fn body_codec_roundtrip() {
        let body = CertificateBody {
            serial: 7,
            kind: EntityKind::Device,
            subject_key: SubjectKey::Rsa(rsa_pk(50)),
            issuer: digest_id(b"issuer"),
            validity: Validity::new(0, 100),
            extensions: vec![Extension {
                key: "compliance".into(),
                value: vec![1],
            }],
        };
        let bytes = p2drm_codec::to_bytes(&body);
        let back: CertificateBody = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, body);
        assert_eq!(back.extension("compliance"), Some(&[1u8][..]));
        assert_eq!(back.extension("missing"), None);
    }

    /// A certificate whose subject key has a public exponent other than
    /// 65537 (1, 3 or a 1024-bit value) does not decode; the same bytes
    /// with 65537 put back do.
    #[test]
    fn certificate_with_another_public_exponent_does_not_decode() {
        let key = rsa_pk(53);
        let body = CertificateBody {
            serial: 9,
            kind: EntityKind::ContentProvider,
            subject_key: SubjectKey::Rsa(key.clone()),
            issuer: digest_id(b"issuer"),
            validity: Validity::new(0, 100),
            extensions: vec![],
        };
        let bytes = p2drm_codec::to_bytes(&body);
        let key_bytes = p2drm_codec::to_bytes(&key);
        let at = bytes
            .windows(key_bytes.len())
            .position(|w| w == key_bytes)
            .unwrap();
        // The body with the key's exponent replaced by big-endian `e`.
        let with_exponent = |e: &[u8]| {
            let mut w = Writer::new();
            w.put_bytes(&key.modulus().to_bytes_be());
            w.put_bytes(e);
            [
                &bytes[..at],
                &w.into_bytes(),
                &bytes[at + key_bytes.len()..],
            ]
            .concat()
        };
        let f4 = with_exponent(&[1, 0, 1]);
        assert_eq!(f4, bytes);
        assert!(p2drm_codec::from_bytes::<CertificateBody>(&f4).is_ok());
        let mut wide = [0u8; 128];
        wide[0] = 0x80;
        wide[125..].copy_from_slice(&[1, 0, 1]);
        for e in [&[1u8][..], &[3], &wide] {
            let res = p2drm_codec::from_bytes::<CertificateBody>(&with_exponent(e));
            assert!(res.is_err(), "e = {e:02x?}");
        }
    }

    #[test]
    fn signing_bytes_deterministic_and_sensitive() {
        let mk = |serial| CertificateBody {
            serial,
            kind: EntityKind::SmartCard,
            subject_key: SubjectKey::Rsa(rsa_pk(51)),
            issuer: digest_id(b"i"),
            validity: Validity::new(0, 1),
            extensions: vec![],
        };
        assert_eq!(mk(1).signing_bytes(), mk(1).signing_bytes());
        assert_ne!(mk(1).signing_bytes(), mk(2).signing_bytes());
    }

    #[test]
    fn subject_key_type_accessors() {
        let k = SubjectKey::Rsa(rsa_pk(52));
        assert!(k.as_rsa().is_ok());
        assert_eq!(k.as_elgamal(), Err(PkiError::WrongKeyType));
    }

    #[test]
    fn key_id_debug_is_short() {
        let id = digest_id(b"x");
        let s = format!("{id:?}");
        assert!(s.len() < 32);
    }
}
