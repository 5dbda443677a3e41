//! Cryptographic primitives for the P2DRM protocols, implemented from
//! scratch on top of [`p2drm_bignum`].
//!
//! | Module | Primitive | Used by |
//! |---|---|---|
//! | [`sha256`] | FIPS 180-4 SHA-256, on the x86-64 SHA extensions when the CPU has them | everything (digests, FDH, KDF) |
//! | [`hmac`] | HMAC-SHA-256 (RFC 2104) | session MACs, KDF |
//! | [`kdf`] | HKDF-style expand | content/session key derivation |
//! | [`chacha20`] | RFC 7539 ChaCha20 | content encryption, escrow payloads |
//! | [`rsa`] | RSA keygen / PKCS#1-v1.5 sign / RSA-KEM | certificates, licenses, key wrapping |
//! | [`blind`] | Chaum full-domain-hash blind signatures | pseudonym certification, e-cash |
//! | [`elgamal`] | ElGamal over RFC 3526 MODP groups | TTP identity escrow |
//! | [`rng`] | RNG plumbing & deterministic test RNG | all key generation |
//! | [`counts`] | per-thread counts of RSA operations by path, SHA-256 and ChaCha20 blocks | tests that pin work |
//!
//! # Security caveat
//!
//! These are **reference implementations for protocol research**. They are
//! test-vector-checked for correctness but are *not* constant-time and have
//! no side-channel hardening. Do not reuse for production secrets.
//!
//! # `unsafe`
//!
//! The crate denies `unsafe_code`. One function is exempt:
//! `sha256::compress_sha_ni`, the guarded call into the SHA-NI
//! compression kernel. That kernel is a safe `#[target_feature]`
//! function, and calling it is sound only on a CPU with those features,
//! so the call sits right after the `is_x86_feature_detected!` checks
//! that prove it ([`sha256`] module doc). CI fails if a second exemption
//! appears anywhere in the crate.
//!
//! # Example: sign and verify
//!
//! ```
//! use p2drm_crypto::rng::test_rng;
//! use p2drm_crypto::rsa::RsaKeyPair;
//!
//! let mut rng = test_rng(1);
//! let kp = RsaKeyPair::generate(512, &mut rng);
//! let sig = kp.sign(b"license bytes");
//! assert!(kp.public().verify(b"license bytes", &sig).is_ok());
//! assert!(kp.public().verify(b"other bytes", &sig).is_err());
//! ```

#![deny(unsafe_code)]

pub mod blind;
pub mod chacha20;
pub mod counts;
pub mod elgamal;
pub mod envelope;
pub mod hmac;
pub mod kdf;
pub mod rng;
pub mod rsa;
pub mod sha256;

/// Errors shared by the crypto primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Signature did not verify.
    BadSignature,
    /// Ciphertext or padding malformed.
    BadCiphertext,
    /// Message too long for the key/padding combination.
    MessageTooLong,
    /// Key parameters invalid (size, parity, range).
    BadKey(&'static str),
    /// A decode of serialized key material failed.
    Encoding(p2drm_codec::CodecError),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::BadCiphertext => write!(f, "malformed ciphertext or padding"),
            CryptoError::MessageTooLong => write!(f, "message too long for this key"),
            CryptoError::BadKey(m) => write!(f, "invalid key: {m}"),
            CryptoError::Encoding(e) => write!(f, "encoding error: {e}"),
        }
    }
}

impl std::error::Error for CryptoError {}

impl From<p2drm_codec::CodecError> for CryptoError {
    fn from(e: p2drm_codec::CodecError) -> Self {
        CryptoError::Encoding(e)
    }
}

/// Constant-time byte-slice equality (length leaks; contents do not).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_behaves() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
    }

    #[test]
    fn errors_display() {
        let msgs = [
            CryptoError::BadSignature.to_string(),
            CryptoError::MessageTooLong.to_string(),
            CryptoError::BadKey("too short").to_string(),
        ];
        assert!(msgs.iter().all(|m| !m.is_empty()));
    }
}
