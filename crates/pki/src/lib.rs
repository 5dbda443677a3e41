//! Minimal certificate infrastructure for the P2DRM protocols.
//!
//! This replaces the X.509 machinery a production deployment would use with
//! a small, canonical-encoded format carrying exactly what the paper's
//! protocols need:
//!
//! * [`cert`] — certificate bodies/signatures, entity kinds, extensions
//!   (compliance flags, identity escrow), and the *blind-issued* pseudonym
//!   certificate variant.
//! * [`authority`] — certificate authorities: self-signed roots,
//!   subordinate issuance, and the RA's dedicated blind-signing key.
//! * [`crl`] — revocation lists: sorted-vector with binary search, and
//!   signed CRL envelopes.
//! * [`vcache`] — a bounded, sharded [`VerifyCache`] remembering successful
//!   signature verifications (keyed by cert bytes ‖ key fingerprint ‖
//!   epoch bucket) so repeat presentations of the same certificate skip
//!   the RSA exponentiation; structural checks (revocation, validity,
//!   epoch freshness) always re-run.
//!
//! Key separation note: an authority holds **two** RSA keys — a certificate
//! signing key (PKCS#1 v1.5 over structured bodies) and, for the RA, a
//! blind signing key that only ever signs full-domain hashes of pseudonym
//! bodies. A signature from one key means nothing under the other, which is
//! what makes blind issuance safe to offer.

#![forbid(unsafe_code)]

pub mod authority;
pub mod cert;
pub mod crl;
pub mod vcache;

pub use authority::{CertificateAuthority, RegistrationAuthorityKeys};
pub use cert::{
    AttributeCertBody, AttributeCertificate, Certificate, CertificateBody, EntityKind, Extension,
    KeyId, PseudonymCertBody, PseudonymCertificate, SubjectKey, Validity,
};
pub use crl::{CrlScope, RevocationList, SignedCrl};
pub use vcache::{CacheCounters, VerifyCache};

/// Errors raised by certificate verification and issuance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkiError {
    /// Signature over the body failed to verify.
    BadSignature,
    /// Certificate not valid at the evaluation time.
    Expired { now: u64, from: u64, until: u64 },
    /// The subject key type does not match what the operation needs.
    WrongKeyType,
    /// Issuer mismatch or unknown issuer.
    UnknownIssuer,
    /// A revocation list signed as another list than the one expected.
    WrongScope,
    /// Serialized form malformed.
    Encoding(p2drm_codec::CodecError),
    /// Underlying crypto failure.
    Crypto(p2drm_crypto::CryptoError),
}

impl std::fmt::Display for PkiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PkiError::BadSignature => write!(f, "certificate signature invalid"),
            PkiError::Expired { now, from, until } => {
                write!(f, "certificate not valid at {now} (window {from}..{until})")
            }
            PkiError::WrongKeyType => write!(f, "subject key type mismatch"),
            PkiError::UnknownIssuer => write!(f, "issuer unknown or mismatched"),
            PkiError::WrongScope => write!(f, "revocation list of another scope"),
            PkiError::Encoding(e) => write!(f, "encoding: {e}"),
            PkiError::Crypto(e) => write!(f, "crypto: {e}"),
        }
    }
}

impl std::error::Error for PkiError {}

impl From<p2drm_codec::CodecError> for PkiError {
    fn from(e: p2drm_codec::CodecError) -> Self {
        PkiError::Encoding(e)
    }
}

impl From<p2drm_crypto::CryptoError> for PkiError {
    fn from(e: p2drm_crypto::CryptoError) -> Self {
        PkiError::Crypto(e)
    }
}
