//! Authenticated hybrid envelopes: RSA-KEM + ChaCha20 + HMAC
//! (encrypt-then-MAC), the construction licenses use to wrap content keys
//! for a holder pseudonym key, and smart cards use to seal content keys to
//! a device key.
//!
//! Works with any RSA modulus size and any payload length.

use crate::rng::CryptoRng;
use crate::rsa::{kem_decapsulate, kem_encapsulate, RsaKeyPair, RsaPublicKey};
use crate::sha256::DIGEST_LEN;
use crate::{chacha20, hmac, kdf, CryptoError};

p2drm_codec::record! {
    /// A sealed envelope: KEM ciphertext + encrypted body + MAC tag.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Envelope {
        /// RSA-KEM ciphertext (modulus-length bytes).
        pub kem_ct: Vec<u8>,
        /// ChaCha20 body.
        pub body: Vec<u8>,
        /// HMAC-SHA-256 over `kem_ct || body`.
        pub tag: [u8; DIGEST_LEN],
    }
}

/// Seals `plaintext` to the holder of `pk`.
pub fn seal<R: CryptoRng + ?Sized>(pk: &RsaPublicKey, plaintext: &[u8], rng: &mut R) -> Envelope {
    let (kem_ct, shared) = kem_encapsulate(pk, rng);
    seal_encapsulated(kem_ct, &shared, plaintext)
}

/// The rest of a seal once its KEM has run: `plaintext` under the keys
/// derived from `shared`, with `kem_ct` the ciphertext that carries it
/// ([`crate::rsa::KemSecret`] gives both).
pub fn seal_encapsulated(kem_ct: Vec<u8>, shared: &[u8; 32], plaintext: &[u8]) -> Envelope {
    let okm = kdf::derive(b"p2drm-envelope", shared, b"keys", 64);
    let enc_key: [u8; 32] = okm[..32].try_into().unwrap();
    let body = chacha20::encrypt(&enc_key, &[0u8; 12], plaintext);
    let mut mac = hmac::HmacSha256::new(&okm[32..]);
    mac.update(&kem_ct);
    mac.update(&body);
    Envelope {
        kem_ct,
        body,
        tag: mac.finalize(),
    }
}

/// Opens an envelope with the matching private key, authenticating first.
pub fn open(kp: &RsaKeyPair, env: &Envelope) -> Result<Vec<u8>, CryptoError> {
    let shared = kem_decapsulate(kp, &env.kem_ct)?;
    let okm = kdf::derive(b"p2drm-envelope", &shared, b"keys", 64);
    let enc_key: [u8; 32] = okm[..32].try_into().unwrap();
    let mut mac = hmac::HmacSha256::new(&okm[32..]);
    mac.update(&env.kem_ct);
    mac.update(&env.body);
    if !mac.verify(&env.tag) {
        return Err(CryptoError::BadCiphertext);
    }
    Ok(chacha20::decrypt(&enc_key, &[0u8; 12], &env.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::test_rng;

    fn keypair() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut test_rng(40))
    }

    #[test]
    fn seal_open_roundtrip() {
        let kp = keypair();
        let mut rng = test_rng(41);
        for msg in [&b""[..], b"k", &[7u8; 32], &[9u8; 1000]] {
            let env = seal(kp.public(), msg, &mut rng);
            assert_eq!(open(&kp, &env).unwrap(), msg);
        }
    }

    /// Seal/open and the bare KEM at 1024 bits, where the recipient's key
    /// has three primes.
    #[test]
    fn seal_open_roundtrip_1024() {
        let kp = RsaKeyPair::generate(1024, &mut test_rng(47));
        let mut rng = test_rng(48);
        for msg in [&b""[..], b"content key", &[9u8; 1000]] {
            let env = seal(kp.public(), msg, &mut rng);
            assert_eq!(open(&kp, &env).unwrap(), msg);
        }
        for _ in 0..4 {
            let (ct, shared) = kem_encapsulate(kp.public(), &mut rng);
            assert_eq!(ct.len(), 128);
            assert_eq!(kem_decapsulate(&kp, &ct).unwrap(), shared);
        }
    }

    #[test]
    fn wrong_key_fails() {
        let kp = keypair();
        let other = RsaKeyPair::generate(512, &mut test_rng(42));
        let mut rng = test_rng(43);
        let env = seal(kp.public(), b"content key", &mut rng);
        assert!(open(&other, &env).is_err());
    }

    #[test]
    fn tamper_detected() {
        let kp = keypair();
        let mut rng = test_rng(44);
        let env = seal(kp.public(), b"content key", &mut rng);
        for field in 0..3 {
            let mut bad = env.clone();
            match field {
                0 => bad.kem_ct[0] ^= 1,
                1 => bad.body[0] ^= 1,
                _ => bad.tag[0] ^= 1,
            }
            assert!(open(&kp, &bad).is_err(), "field {field}");
        }
    }

    #[test]
    fn sealing_is_randomized() {
        let kp = keypair();
        let mut rng = test_rng(45);
        let a = seal(kp.public(), b"same", &mut rng);
        let b = seal(kp.public(), b"same", &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn codec_roundtrip() {
        let kp = keypair();
        let mut rng = test_rng(46);
        let env = seal(kp.public(), b"payload", &mut rng);
        let bytes = p2drm_codec::to_bytes(&env);
        let back: Envelope = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, env);
        assert_eq!(open(&kp, &back).unwrap(), b"payload");
    }
}
