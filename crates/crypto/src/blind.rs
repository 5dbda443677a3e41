//! Chaum RSA blind signatures with full-domain hashing, plus a
//! cut-and-choose issuance protocol.
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
//! Because a blind signer cannot see what it signs, issuers must either use
//! a **dedicated key** whose signatures mean exactly one thing (the approach
//! the paper takes, mirrored by [`crate::rsa::RsaKeyPair`] key separation in
//! `p2drm-pki`), or force honesty probabilistically with the
//! [cut-and-choose](CutChooseRequest) flow below.

use crate::rng::CryptoRng;
use crate::rsa::{fdh, RsaKeyPair, RsaPublicKey, RsaSignature};
use crate::CryptoError;
use p2drm_bignum::{modring, rng as brng, UBig};

/// A message blinded for signing, plus the requester's secret unblinding
/// state.
#[derive(Debug)]
pub struct Blinded {
    /// Value to send to the signer.
    pub blinded: UBig,
    /// Unblinding secret `r^{-1} mod n` (kept by the requester).
    r_inv: UBig,
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
        // lint: secret(r, r_inv)
        let (r, r_inv) = blinding_factor(n, rng);
        let re = pk.raw_public(&r);
        let blinded = pk_mul(pk, &h, &re);
        Ok(Blinded { blinded, r_inv, h })
    }

    /// Unblinds the signer's response into a verifiable signature.
    pub fn unblind(
        &self,
        pk: &RsaPublicKey,
        blind_sig: &UBig,
    ) -> Result<RsaSignature, CryptoError> {
        // lint: secret(r_inv)
        let s = pk_mul(pk, blind_sig, &self.r_inv);
        // Self-check: s^e must equal the FDH image.
        // lint: public(s is the final signature, published on success; both compared values are public once issued)
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
fn blinding_factor<R: CryptoRng + ?Sized>(n: &UBig, rng: &mut R) -> (UBig, UBig) {
    loop {
        // lint: secret(r)
        let r = brng::random_range(rng, &UBig::one(), n);
        // lint: public(a refusal says only that the discarded draw shared a factor with the public modulus; the r that is kept never reaches a branch)
        if let Ok(r_inv) = modring::inv_mod(&r, n) {
            return (r, r_inv);
        }
    }
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
    if sig.as_ubig() >= pk.modulus() {
        return Err(CryptoError::BadSignature);
    }
    if pk.raw_public(sig.as_ubig()) == fdh(message, pk.modulus_len()) {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

// ---------------------------------------------------------------------------
// Cut-and-choose issuance
// ---------------------------------------------------------------------------

/// Requester state for a `k`-candidate cut-and-choose blind issuance.
///
/// The requester prepares `k` candidate messages (all supposed to satisfy
/// the issuer's well-formedness rule); the issuer opens `k-1` of them,
/// checks the rule, and blind-signs the remaining one. A cheating requester
/// slips a malformed message through with probability `1/k`.
pub struct CutChooseRequest {
    candidates: Vec<Candidate>,
}

struct Candidate {
    message: Vec<u8>,
    r: UBig,
    blinded: Blinded,
}

/// An opened candidate revealed to the issuer for auditing.
#[derive(Debug, Clone)]
pub struct Opening {
    /// The candidate's plaintext message.
    pub message: Vec<u8>,
    /// The blinding factor used for it.
    pub r: UBig,
}

impl CutChooseRequest {
    /// Prepares `k` candidates; `make_message(i)` must generate independent
    /// well-formed candidate messages.
    pub fn prepare<R, F>(
        pk: &RsaPublicKey,
        k: usize,
        mut make_message: F,
        rng: &mut R,
    ) -> Result<Self, CryptoError>
    where
        R: CryptoRng + ?Sized,
        F: FnMut(usize) -> Vec<u8>,
    {
        assert!(k >= 1, "cut-and-choose needs at least one candidate");
        let n = pk.modulus();
        let mut candidates = Vec::with_capacity(k);
        for i in 0..k {
            let message = make_message(i);
            let h = fdh(&message, pk.modulus_len());
            let (r, r_inv) = blinding_factor(n, rng);
            let blinded_val = pk_mul(pk, &h, &pk.raw_public(&r));
            candidates.push(Candidate {
                message,
                r,
                blinded: Blinded {
                    blinded: blinded_val,
                    r_inv,
                    h,
                },
            });
        }
        Ok(CutChooseRequest { candidates })
    }

    /// The blinded values, in candidate order, to send to the issuer.
    pub fn blinded_values(&self) -> Vec<UBig> {
        self.candidates
            .iter()
            .map(|c| c.blinded.blinded.clone())
            .collect()
    }

    /// Opens every candidate except `keep`, for issuer auditing.
    pub fn open_all_but(&self, keep: usize) -> Vec<(usize, Opening)> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != keep)
            .map(|(i, c)| {
                (
                    i,
                    Opening {
                        message: c.message.clone(),
                        r: c.r.clone(),
                    },
                )
            })
            .collect()
    }

    /// Unblinds the issuer's signature on candidate `keep`.
    pub fn finish(
        &self,
        pk: &RsaPublicKey,
        keep: usize,
        blind_sig: &UBig,
    ) -> Result<(Vec<u8>, RsaSignature), CryptoError> {
        let cand = &self.candidates[keep];
        let sig = cand.blinded.unblind(pk, blind_sig)?;
        Ok((cand.message.clone(), sig))
    }
}

/// Issuer side of cut-and-choose.
pub struct CutChooseIssuer;

impl CutChooseIssuer {
    /// Picks which candidate to keep (sign) uniformly at random.
    pub fn choose<R: CryptoRng + ?Sized>(k: usize, rng: &mut R) -> usize {
        assert!(k >= 1);
        brng::random_below(rng, &UBig::from_u64(k as u64))
            .to_u64()
            .unwrap() as usize
    }

    /// Audits the openings: each must re-blind to the submitted value and
    /// satisfy `validate`. Returns the blind signature on the kept value on
    /// success.
    pub fn audit_and_sign<F>(
        kp: &RsaKeyPair,
        blinded_values: &[UBig],
        keep: usize,
        openings: &[(usize, Opening)],
        mut validate: F,
    ) -> Result<UBig, CryptoError>
    where
        F: FnMut(&[u8]) -> bool,
    {
        if keep >= blinded_values.len() || openings.len() != blinded_values.len() - 1 {
            return Err(CryptoError::BadCiphertext);
        }
        let pk = kp.public();
        let mut seen = vec![false; blinded_values.len()];
        seen[keep] = true;
        for (i, opening) in openings {
            if *i >= blinded_values.len() || seen[*i] {
                return Err(CryptoError::BadCiphertext);
            }
            seen[*i] = true;
            if !validate(&opening.message) {
                return Err(CryptoError::BadSignature);
            }
            let h = fdh(&opening.message, pk.modulus_len());
            let reconstructed = pk_mul(pk, &h, &pk.raw_public(&opening.r));
            if reconstructed != blinded_values[*i] {
                return Err(CryptoError::BadSignature);
            }
        }
        blind_sign(kp, &blinded_values[keep])
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

    #[test]
    fn cut_and_choose_happy_path() {
        let kp = keypair();
        let mut rng = test_rng(26);
        let k = 4;
        let req = CutChooseRequest::prepare(
            kp.public(),
            k,
            |i| format!("wellformed-candidate-{i}").into_bytes(),
            &mut rng,
        )
        .unwrap();
        let blinded = req.blinded_values();
        let keep = CutChooseIssuer::choose(k, &mut rng);
        let openings = req.open_all_but(keep);
        let s_b = CutChooseIssuer::audit_and_sign(&kp, &blinded, keep, &openings, |m| {
            m.starts_with(b"wellformed-")
        })
        .unwrap();
        let (msg, sig) = req.finish(kp.public(), keep, &s_b).unwrap();
        assert!(verify_fdh(kp.public(), &msg, &sig).is_ok());
    }

    #[test]
    fn cut_and_choose_catches_malformed_opened_candidate() {
        let kp = keypair();
        let mut rng = test_rng(27);
        let k = 3;
        // Candidate 1 is malformed; if it is opened, the audit must fail.
        let req = CutChooseRequest::prepare(
            kp.public(),
            k,
            |i| {
                if i == 1 {
                    b"EVIL".to_vec()
                } else {
                    format!("wellformed-{i}").into_bytes()
                }
            },
            &mut rng,
        )
        .unwrap();
        let blinded = req.blinded_values();
        for keep in [0usize, 2] {
            let openings = req.open_all_but(keep);
            let res = CutChooseIssuer::audit_and_sign(&kp, &blinded, keep, &openings, |m| {
                m.starts_with(b"wellformed-")
            });
            assert!(res.is_err(), "keep={keep} must catch the malformed opening");
        }
    }

    #[test]
    fn cut_and_choose_catches_inconsistent_opening() {
        let kp = keypair();
        let mut rng = test_rng(28);
        let req = CutChooseRequest::prepare(
            kp.public(),
            2,
            |i| format!("wellformed-{i}").into_bytes(),
            &mut rng,
        )
        .unwrap();
        let blinded = req.blinded_values();
        let mut openings = req.open_all_but(0);
        // Tamper with the revealed blinding factor.
        openings[0].1.r = &openings[0].1.r + &UBig::one();
        let res = CutChooseIssuer::audit_and_sign(&kp, &blinded, 0, &openings, |_| true);
        assert!(res.is_err());
    }

    #[test]
    fn cut_and_choose_rejects_bad_shapes() {
        let kp = keypair();
        let mut rng = test_rng(29);
        let req = CutChooseRequest::prepare(kp.public(), 3, |i| vec![i as u8], &mut rng).unwrap();
        let blinded = req.blinded_values();
        // keep out of range
        assert!(
            CutChooseIssuer::audit_and_sign(&kp, &blinded, 9, &req.open_all_but(0), |_| true)
                .is_err()
        );
        // wrong number of openings
        let mut openings = req.open_all_but(0);
        openings.pop();
        assert!(CutChooseIssuer::audit_and_sign(&kp, &blinded, 0, &openings, |_| true).is_err());
        // duplicate opening indices
        let mut openings = req.open_all_but(0);
        let dup = openings[0].clone();
        openings[1] = dup;
        assert!(CutChooseIssuer::audit_and_sign(&kp, &blinded, 0, &openings, |_| true).is_err());
    }

    #[test]
    fn issuer_choice_is_in_range() {
        let mut rng = test_rng(30);
        for _ in 0..50 {
            let c = CutChooseIssuer::choose(5, &mut rng);
            assert!(c < 5);
        }
        assert_eq!(CutChooseIssuer::choose(1, &mut rng), 0);
    }
}
