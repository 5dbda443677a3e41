//! Chaum RSA blind signatures with full-domain hashing.
//!
//! This is the paper's key enabling primitive: the registration authority
//! signs a *blinded* pseudonym-certificate digest, so the certificate it
//! later sees in the wild cannot be linked back to the issuance session.
//! The same primitive backs the anonymous e-cash in `p2drm-payment`.
//!
//! Protocol (signer key `(n, e, d)`, message `m`):
//!
//! 1. requester: `h = FDH(m)`, random unit `r`, sends `b = h * r^e mod n`;
//! 2. signer: returns `s_b = b^d mod n` (sees only a uniformly random ring
//!    element);
//! 3. requester: `s = s_b * r^{-1} mod n`; now `s^e = h`, a plain FDH-RSA
//!    signature on `m`.
//!
//! Because a blind signer cannot see what it signs, every issuer uses a
//! **dedicated key** whose signatures mean exactly one thing (the approach
//! the paper takes, mirrored by [`crate::rsa::RsaKeyPair`] key separation in
//! `p2drm-pki`), and authenticates the requester before signing: the RA
//! blind-signs only for a card that proves its master key, and the card
//! itself builds the pseudonym and its escrow.

use crate::rng::CryptoRng;
use crate::rsa::{fdh, RsaKeyPair, RsaPublicKey, RsaSignature};
use crate::CryptoError;
use p2drm_bignum::ct::Secret;
use p2drm_bignum::{modring, rng as brng, UBig};

/// A message blinded for signing, plus the requester's secret unblinding
/// state.
#[derive(Debug)]
pub struct Blinded {
    /// Value to send to the signer.
    pub blinded: UBig,
    /// Unblinding secret `r^{-1} mod n` (kept by the requester).
    r_inv: Secret<UBig>,
    /// The FDH image of the message (for the final self-check).
    h: UBig,
}

impl Blinded {
    /// Blinds `message` under `pk`.
    pub fn new<R: CryptoRng + ?Sized>(
        pk: &RsaPublicKey,
        message: &[u8],
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        let n = pk.modulus();
        let h = fdh(message, pk.modulus_len());
        let (r, r_inv) = blinding_factor(n, rng);
        let re = blind_factor_power(pk, r.as_ref());
        let blinded = pk_mul(pk, &h, &re);
        Ok(Blinded { blinded, r_inv, h })
    }

    /// Unblinds the signer's response into a verifiable signature.
    pub fn unblind(
        &self,
        pk: &RsaPublicKey,
        blind_sig: &UBig,
    ) -> Result<RsaSignature, CryptoError> {
        // s is the final signature, published on success, so the check
        // below branches on public values once issued. r⁻¹ itself enters
        // the division-based `mul_mod` here, a variable-time gap ROADMAP
        // item 19 names.
        let s = pk_mul(pk, blind_sig, self.r_inv.as_ref().declassify());
        // Self-check: s^e must equal the FDH image.
        if pk.raw_public(&s) != self.h {
            return Err(CryptoError::BadSignature);
        }
        Ok(RsaSignature::from_ubig(s))
    }
}

/// A uniform unit `r` of `Z/nZ` with its inverse. Units are found by
/// trying to invert: the inversion runs the GCD a separate coprimality
/// test would, so a draw that shares a factor with `n` costs one failed
/// inversion and a redraw.
fn blinding_factor<R: CryptoRng + ?Sized>(n: &UBig, rng: &mut R) -> (Secret<UBig>, Secret<UBig>) {
    loop {
        let r = Secret::new(brng::random_range(rng, &UBig::one(), n));
        // `modring::inv_mod` runs a fixed number of divsteps for the width
        // of n and branches on r nowhere; a refusal says only that the
        // discarded draw shared a factor with the public modulus.
        if let Ok(r_inv) = modring::inv_mod(r.as_ref(), n) {
            return (r, Secret::new(r_inv));
        }
    }
}

/// `r^e mod n`, the factor that blinds a message.
fn blind_factor_power(pk: &RsaPublicKey, r: Secret<&UBig>) -> UBig {
    // `Mont::pow_u64` branches on the bits of the public e only; entering
    // Montgomery form compares r with n limb by limb, a variable-time gap
    // ROADMAP item 19 names.
    pk.raw_public(r.declassify())
}

fn pk_mul(pk: &RsaPublicKey, a: &UBig, b: &UBig) -> UBig {
    modring::mul_mod(a, b, pk.modulus())
}

/// Signer side: raw private operation on a blinded value.
pub fn blind_sign(kp: &RsaKeyPair, blinded: &UBig) -> Result<UBig, CryptoError> {
    if blinded >= kp.public().modulus() {
        return Err(CryptoError::BadCiphertext);
    }
    Ok(kp.raw_private(blinded))
}

/// Verifies an unblinded FDH signature on `message`.
pub fn verify_fdh(
    pk: &RsaPublicKey,
    message: &[u8],
    sig: &RsaSignature,
) -> Result<(), CryptoError> {
    let check = FdhCheck::new(pk, message, sig)?;
    check.finish(&pk.raw_public(sig.as_ubig()))
}

/// An FDH signature check split around its public-key operation, so a
/// caller can run that operation together with others of any kind in
/// one [`public_batch`](crate::rsa::public_batch).
pub struct FdhCheck<'a> {
    pk: &'a RsaPublicKey,
    sig: &'a UBig,
    /// The full-domain hash the signature must raise to.
    expected: UBig,
}

impl<'a> FdhCheck<'a> {
    /// The check of `sig` on `message` under `pk`, or `BadSignature` at
    /// once for a signature not below the modulus.
    pub fn new(
        pk: &'a RsaPublicKey,
        message: &[u8],
        sig: &'a RsaSignature,
    ) -> Result<Self, CryptoError> {
        if sig.as_ubig() >= pk.modulus() {
            return Err(CryptoError::BadSignature);
        }
        Ok(FdhCheck {
            pk,
            sig: sig.as_ubig(),
            expected: fdh(message, pk.modulus_len()),
        })
    }

    /// The public-key operation to run: the signature under the key.
    pub fn lane(&self) -> (&'a RsaPublicKey, &'a UBig) {
        (self.pk, self.sig)
    }

    /// The verdict, given `power = sig^e mod n`.
    pub fn finish(&self, power: &UBig) -> Result<(), CryptoError> {
        if *power == self.expected {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::test_rng;

    fn keypair() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut test_rng(21))
    }

    #[test]
    fn blinding_factor_redraws_until_it_finds_a_unit() {
        let mut rng = test_rng(22);
        let n = UBig::from_u64(3 * 5 * 7 * 11 * 13); // over half the draws share a factor
        for _ in 0..50 {
            let (r, r_inv) = blinding_factor(&n, &mut rng);
            let (r, r_inv) = (r.declassify(), r_inv.declassify());
            assert!(!r.is_zero() && r < n);
            assert!(modring::mul_mod(&r, &r_inv, &n).is_one());
        }
    }

    #[test]
    fn blind_sign_roundtrip() {
        let kp = keypair();
        let mut rng = test_rng(22);
        let blinded = Blinded::new(kp.public(), b"pseudonym cert", &mut rng).unwrap();
        let s_b = blind_sign(&kp, &blinded.blinded).unwrap();
        let sig = blinded.unblind(kp.public(), &s_b).unwrap();
        assert!(verify_fdh(kp.public(), b"pseudonym cert", &sig).is_ok());
        assert!(verify_fdh(kp.public(), b"other message", &sig).is_err());
    }

    /// The same round trip at 1024 bits, where the signer's key has three
    /// primes: the unblinded signature is the plain FDH signature.
    #[test]
    fn blind_sign_roundtrip_1024() {
        let kp = RsaKeyPair::generate(1024, &mut test_rng(27));
        let mut rng = test_rng(28);
        for msg in [&b"pseudonym cert"[..], b"coin serial"] {
            let blinded = Blinded::new(kp.public(), msg, &mut rng).unwrap();
            let s_b = blind_sign(&kp, &blinded.blinded).unwrap();
            let sig = blinded.unblind(kp.public(), &s_b).unwrap();
            assert!(verify_fdh(kp.public(), msg, &sig).is_ok());
            assert!(verify_fdh(kp.public(), b"other message", &sig).is_err());
            let h = fdh(msg, kp.public().modulus_len());
            assert_eq!(
                sig.as_ubig(),
                &h.pow_mod(kp.private_exponent(), kp.public().modulus())
                    .unwrap()
            );
        }
    }

    #[test]
    fn signer_never_sees_message_image() {
        // The blinded value must differ from the FDH image (with overwhelming
        // probability) and differ across two blindings of the same message.
        let kp = keypair();
        let mut rng = test_rng(23);
        let h = fdh(b"m", kp.public().modulus_len());
        let b1 = Blinded::new(kp.public(), b"m", &mut rng).unwrap();
        let b2 = Blinded::new(kp.public(), b"m", &mut rng).unwrap();
        assert_ne!(b1.blinded, h);
        assert_ne!(b1.blinded, b2.blinded, "blinding must be randomized");
    }

    #[test]
    fn unblinded_signature_equals_direct_fdh_signature() {
        // Unlinkability core: the final signature is exactly the signature
        // the signer would have produced on the plain FDH image -- it
        // carries no trace of the blinding session.
        let kp = keypair();
        let mut rng = test_rng(24);
        let blinded = Blinded::new(kp.public(), b"msg", &mut rng).unwrap();
        let s_b = blind_sign(&kp, &blinded.blinded).unwrap();
        let sig = blinded.unblind(kp.public(), &s_b).unwrap();
        let direct = kp.raw_private(&fdh(b"msg", kp.public().modulus_len()));
        assert_eq!(sig.as_ubig(), &direct);
    }

    #[test]
    fn wrong_blind_sig_detected_at_unblind() {
        let kp = keypair();
        let mut rng = test_rng(25);
        let blinded = Blinded::new(kp.public(), b"msg", &mut rng).unwrap();
        let bogus = UBig::from_u64(12345);
        assert!(blinded.unblind(kp.public(), &bogus).is_err());
    }

    #[test]
    fn blind_sign_rejects_out_of_range() {
        let kp = keypair();
        assert!(blind_sign(&kp, kp.public().modulus()).is_err());
    }
}
