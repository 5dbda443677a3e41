//! RSA from scratch: key generation, PKCS#1 v1.5 signatures (SHA-256),
//! RSA-KEM key encapsulation, and the raw trapdoor permutation used by the
//! blind-signature module.
//!
//! Private-key operations use the CRT with per-prime Montgomery contexts.

use crate::rng::CryptoRng;
use crate::sha256::{sha256, DIGEST_LEN};
use crate::CryptoError;
use p2drm_bignum::{modring, prime, Mont, UBig};
use p2drm_codec::{Decode, Encode, Reader, Writer};

/// The fixed public exponent (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// Primality-test strength during key generation, in `prime::is_prime`'s
/// `rounds` scale: 12 stands for the Baillie–PSW test every candidate gets
/// (a base-2 Miller–Rabin round and a strong Lucas test), the 4 above it
/// are Miller–Rabin rounds on random bases. Five Miller–Rabin rounds is
/// what FIPS 186-4 Table C.3 asks of 512- and 1024-bit primes.
const MR_ROUNDS: usize = 16;

/// DER prefix of the SHA-256 `DigestInfo` used by PKCS#1 v1.5 signatures.
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)` with a cached Montgomery context.
#[derive(Clone, Debug)]
pub struct RsaPublicKey {
    n: UBig,
    e: UBig,
    /// Built on first use ([`RsaPublicKey::mont`]): most decoded keys —
    /// a stored license's holder, a certificate's subject — are only
    /// compared or fingerprinted, never exponentiated with, and the
    /// context is most of what decoding one cost. A clone carries the
    /// context if it exists and builds its own otherwise.
    mont: std::sync::OnceLock<Mont>,
    /// Memoized fingerprint, computed on first use and shared across
    /// clones — key ids are taken of the same key all over the hot path
    /// (CRL checks, license records, verification-cache keys).
    fp: std::sync::Arc<std::sync::OnceLock<[u8; DIGEST_LEN]>>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl RsaPublicKey {
    /// Builds from raw parameters (modulus must be odd).
    pub fn new(n: UBig, e: UBig) -> Result<Self, CryptoError> {
        if n.is_even() || n.bit_len() < 64 {
            return Err(CryptoError::BadKey("modulus must be odd and >= 64 bits"));
        }
        Ok(RsaPublicKey {
            n,
            e,
            mont: std::sync::OnceLock::new(),
            fp: std::sync::Arc::new(std::sync::OnceLock::new()),
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &UBig {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &UBig {
        &self.e
    }

    /// Modulus size in whole bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw RSA public operation `x^e mod n`.
    ///
    /// Small public exponents (everything that fits a machine word, i.e.
    /// every real-world `e` including F4) take the dedicated
    /// [`Mont::pow_u64`] path: plain square-and-multiply with no window
    /// table, which for the sparse `e = 65537` is 16 squarings and one
    /// multiplication — the fast verify path.
    pub fn raw_public(&self, x: &UBig) -> UBig {
        match self.e.to_u64() {
            Some(e) => self.mont().pow_u64(x, e),
            None => self.mont().pow(x, &self.e),
        }
    }

    /// The key's Montgomery context, built on first use.
    fn mont(&self) -> &Mont {
        // lint: allow(panic, `new` admitted only odd moduli of >= 64 bits, the whole of what `Mont::new` requires)
        self.mont
            .get_or_init(|| Mont::new(&self.n).expect("modulus validated in RsaPublicKey::new"))
    }

    /// SHA-256 fingerprint of the canonical encoding (used as a key id).
    /// Computed once per key and memoized (shared across clones).
    pub fn fingerprint(&self) -> [u8; DIGEST_LEN] {
        *self.fp.get_or_init(|| sha256(&p2drm_codec::to_bytes(self)))
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &RsaSignature) -> Result<(), CryptoError> {
        if sig.s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em = self.raw_public(&sig.s);
        let expect = emsa_pkcs1_v15(message, self.modulus_len())?;
        let got = em.to_bytes_be_padded(self.modulus_len());
        if crate::ct_eq(&got, &expect) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

impl Encode for RsaPublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.n.to_bytes_be());
        w.put_bytes(&self.e.to_bytes_be());
    }
}

impl Decode for RsaPublicKey {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let n = UBig::from_bytes_be(r.get_int_bytes()?);
        let e = UBig::from_bytes_be(r.get_int_bytes()?);
        RsaPublicKey::new(n, e).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(0))
    }
}

/// An RSA signature (big-endian integer, held as [`UBig`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature {
    pub(crate) s: UBig,
}

impl RsaSignature {
    /// Raw signature integer.
    pub fn as_ubig(&self) -> &UBig {
        &self.s
    }

    /// Builds from a raw integer (used by the blind-signature module).
    pub fn from_ubig(s: UBig) -> Self {
        RsaSignature { s }
    }

    /// Big-endian byte rendering.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.s.to_bytes_be()
    }
}

impl Encode for RsaSignature {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.s.to_bytes_be());
    }
}

impl Decode for RsaSignature {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(RsaSignature {
            s: UBig::from_bytes_be(r.get_int_bytes()?),
        })
    }
}

/// An RSA key pair with CRT acceleration.
#[derive(Clone, Debug)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: UBig,
    p: UBig,
    q: UBig,
    dp: UBig,
    dq: UBig,
    qinv: UBig,
    /// `qinv` held in Montgomery form mod `p`: the CRT recombination
    /// multiply `q⁻¹·(m₁ − m₂) mod p` is then a single Montgomery product
    /// instead of an enter/multiply/exit sequence.
    qinv_form: p2drm_bignum::MontForm,
    mont_p: Mont,
    mont_q: Mont,
}

impl RsaKeyPair {
    /// Generates a fresh key with modulus of `bits` bits (>= 128).
    ///
    /// Unit tests use 512; benches sweep 512/1024/2048. The key is a
    /// function of the bytes `rng` yields (pinned by a golden-value test).
    pub fn generate<R: CryptoRng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 128, "modulus below 128 bits is unusable");
        let e = UBig::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = prime::gen_prime_coprime(bits / 2, MR_ROUNDS, &e, rng);
            let q = prime::gen_prime_coprime(bits - bits / 2, MR_ROUNDS, &e, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let p1 = p.sub(&UBig::one());
            let q1 = q.sub(&UBig::one());
            let lambda = (&p1 * &q1).div_rem(&p1.gcd(&q1)).0;
            let d = match modring::inv_mod(&e, &lambda) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = modring::inv_mod(&q, &p).expect("p, q distinct primes");
            let mont_p = Mont::new(&p).expect("odd prime");
            let mont_q = Mont::new(&q).expect("odd prime");
            let qinv_form = mont_p.to_form(&qinv);
            let public = RsaPublicKey::new(n, e.clone()).expect("fresh modulus is valid");
            return RsaKeyPair {
                public,
                d,
                p,
                q,
                dp,
                dq,
                qinv,
                qinv_form,
                mont_p,
                mont_q,
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent `d` (exposed for key-escrow tests and the
    /// benchmark's full-exponent modexp probe; handle with care).
    pub fn private_exponent(&self) -> &UBig {
        &self.d
    }

    /// Raw RSA private operation `x^d mod n` via the CRT.
    pub fn raw_private(&self, x: &UBig) -> UBig {
        // lint: secret(dp, dq, p, q, qinv_form)
        let m1 = self.mont_p.pow(x, &self.dp);
        let m2 = self.mont_q.pow(x, &self.dq);
        // h = qinv * (m1 - m2) mod p: one Montgomery product, because
        // qinv is kept permanently in Montgomery form.
        let diff = modring::sub_mod(&m1, &m2, &self.p);
        let h = self.mont_p.form_mul_plain(&self.qinv_form, &diff);
        &m2 + &(&self.q * &h)
    }

    /// Signs `message` with PKCS#1 v1.5 / SHA-256.
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let em = emsa_pkcs1_v15(message, self.public.modulus_len())
            .expect("modulus always large enough for SHA-256 EM");
        let m = UBig::from_bytes_be(&em);
        let s = self.raw_private(&m);
        debug_assert_eq!(self.public.raw_public(&s), m, "CRT self-check");
        RsaSignature { s }
    }
}

/// RSA-KEM encapsulation: returns `(ciphertext, shared_secret)`.
///
/// Works with any modulus size, and is what the protocols use to wrap
/// content keys: pick uniform `z < n`, send `z^e mod n`, derive the key
/// from `z`.
pub fn kem_encapsulate<R: CryptoRng + ?Sized>(
    pk: &RsaPublicKey,
    rng: &mut R,
) -> (Vec<u8>, [u8; 32]) {
    let z = p2drm_bignum::rng::random_below(rng, pk.modulus());
    let c = pk.raw_public(&z).to_bytes_be_padded(pk.modulus_len());
    let shared = crate::kdf::derive_key32(
        b"p2drm-rsa-kem",
        &z.to_bytes_be_padded(pk.modulus_len()),
        b"kem",
    );
    (c, shared)
}

/// RSA-KEM decapsulation: recovers the shared secret from `ciphertext`.
pub fn kem_decapsulate(kp: &RsaKeyPair, ciphertext: &[u8]) -> Result<[u8; 32], CryptoError> {
    if ciphertext.len() != kp.public().modulus_len() {
        return Err(CryptoError::BadCiphertext);
    }
    let c = UBig::from_bytes_be(ciphertext);
    if c >= *kp.public().modulus() {
        return Err(CryptoError::BadCiphertext);
    }
    let z = kp.raw_private(&c);
    Ok(crate::kdf::derive_key32(
        b"p2drm-rsa-kem",
        &z.to_bytes_be_padded(kp.public().modulus_len()),
        b"kem",
    ))
}

impl Encode for RsaKeyPair {
    /// Serializes the full private key (all CRT components, avoiding
    /// recompute on load). **Handle the bytes as secrets.**
    fn encode(&self, w: &mut Writer) {
        self.public.encode(w);
        for part in [&self.d, &self.p, &self.q, &self.dp, &self.dq, &self.qinv] {
            w.put_bytes(&part.to_bytes_be());
        }
    }
}

impl Decode for RsaKeyPair {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let public = RsaPublicKey::decode(r)?;
        let mut parts = Vec::with_capacity(6);
        for _ in 0..6 {
            parts.push(UBig::from_bytes_be(r.get_int_bytes()?));
        }
        let [d, p, q, dp, dq, qinv]: [UBig; 6] = parts.try_into().expect("exactly six parts read");
        // Consistency checks: p*q must be the modulus, both factors odd.
        if &(&p * &q) != public.modulus() || p.is_even() || q.is_even() {
            return Err(p2drm_codec::CodecError::BadDiscriminant(2));
        }
        let mont_p = Mont::new(&p).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(2))?;
        let mont_q = Mont::new(&q).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(2))?;
        let qinv_form = mont_p.to_form(&qinv);
        Ok(RsaKeyPair {
            public,
            d,
            p,
            q,
            dp,
            dq,
            qinv,
            qinv_form,
            mont_p,
            mont_q,
        })
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `k` bytes.
fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let t_len = SHA256_DIGEST_INFO.len() + DIGEST_LEN;
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&sha256(message));
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

/// MGF1 with SHA-256 (PKCS#1 appendix B.2.1).
pub fn mgf1(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u32;
    while out.len() < len {
        let mut h = crate::sha256::Sha256::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        let d = h.finalize();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&d[..take]);
        counter += 1;
    }
    out
}

/// Full-domain hash of `message` into `[0, 2^(8(k-1)))` where `k` is the
/// modulus byte length — always a valid ring element. Used by blind
/// signatures, which sign hash *values* rather than padded digests.
pub fn fdh(message: &[u8], modulus_len: usize) -> UBig {
    debug_assert!(modulus_len > DIGEST_LEN);
    let bytes = mgf1(message, modulus_len - 1);
    UBig::from_bytes_be(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::test_rng;

    fn keypair() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut test_rng(11))
    }

    /// One cached 1024-bit key beside the 512-bit ones.
    fn keypair1024() -> &'static RsaKeyPair {
        use std::sync::OnceLock;
        static KP: OnceLock<RsaKeyPair> = OnceLock::new();
        KP.get_or_init(|| RsaKeyPair::generate(1024, &mut test_rng(1101)))
    }

    #[test]
    fn generate_shapes() {
        let kp = keypair();
        assert_eq!(kp.public().modulus().bit_len(), 512);
        assert_eq!(kp.public().exponent().to_u64(), Some(PUBLIC_EXPONENT));
        assert_eq!(kp.public().modulus_len(), 64);
    }

    /// Digests of the public key and of the whole key-pair encoding for
    /// two seeds, captured when the prime search became incremental with
    /// a Baillie–PSW test (which changed the key a seed yields): later
    /// work on the search or the inverse must leave them alone.
    #[test]
    fn golden_keys_1024() {
        let golden = [
            (
                1u64,
                "f696b6f09f24fdacfddcb073311e22dc484792eaa0386927dcc26dbbda04170b",
                "d840e7c8d7a9f5ab84fd3648986c8f63f640ee7bd78a436a2b5110c6ae6cc600",
            ),
            (
                2,
                "005454c761c8da3bb1a4d87a4f674343815ee42e2a269700f166eae924601e63",
                "edc873ec49bc98f345254e18aef0354764198f0ec60053ac3a492558f715fc52",
            ),
        ];
        for (seed, public, whole) in golden {
            let kp = RsaKeyPair::generate(1024, &mut test_rng(seed));
            let sha = |bytes: Vec<u8>| crate::sha256::sha256_hex(&bytes);
            assert_eq!(
                sha(p2drm_codec::to_bytes(kp.public())),
                public,
                "seed={seed}"
            );
            assert_eq!(sha(p2drm_codec::to_bytes(&kp)), whole, "seed={seed}");
        }
    }

    #[test]
    fn raw_roundtrip() {
        let kp = keypair();
        let x = UBig::from_u64(0xdead_beef_1234_5678);
        let c = kp.public().raw_public(&x);
        assert_eq!(kp.raw_private(&c), x);
        // and the other direction (sign-like)
        let s = kp.raw_private(&x);
        assert_eq!(kp.public().raw_public(&s), x);
    }

    #[test]
    fn sign_verify_and_reject() {
        let kp = keypair();
        let sig = kp.sign(b"the message");
        assert!(kp.public().verify(b"the message", &sig).is_ok());
        assert!(kp.public().verify(b"the messag3", &sig).is_err());
        // Tampered signature rejected.
        let bad = RsaSignature::from_ubig(sig.as_ubig() + &UBig::one());
        assert!(kp.public().verify(b"the message", &bad).is_err());
        // Signature >= n rejected outright.
        let huge = RsaSignature::from_ubig(kp.public().modulus().clone());
        assert!(kp.public().verify(b"the message", &huge).is_err());
    }

    #[test]
    fn signature_not_valid_under_other_key() {
        let kp1 = keypair();
        let kp2 = RsaKeyPair::generate(512, &mut test_rng(12));
        let sig = kp1.sign(b"msg");
        assert!(kp2.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn kem_roundtrip_with_small_key() {
        let kp = keypair();
        let mut rng = test_rng(18);
        let (ct, shared) = kem_encapsulate(kp.public(), &mut rng);
        assert_eq!(ct.len(), kp.public().modulus_len());
        assert_eq!(kem_decapsulate(&kp, &ct).unwrap(), shared);
    }

    #[test]
    fn kem_is_randomized_and_binding() {
        let kp = keypair();
        let mut rng = test_rng(19);
        let (ct1, s1) = kem_encapsulate(kp.public(), &mut rng);
        let (ct2, s2) = kem_encapsulate(kp.public(), &mut rng);
        assert_ne!(ct1, ct2);
        assert_ne!(s1, s2);
        // Tampered ciphertext yields a different (useless) shared secret or
        // an error; it must never return the original secret.
        let mut bad = ct1.clone();
        bad[5] ^= 1;
        if let Ok(s) = kem_decapsulate(&kp, &bad) {
            assert_ne!(s, s1)
        }
        assert!(kem_decapsulate(&kp, &[1, 2, 3]).is_err());
    }

    #[test]
    fn crt_matches_plain_pow_mod() {
        let kp = keypair();
        let x = UBig::from_u64(9_876_543_210);
        let plain = x.pow_mod(kp.private_exponent(), kp.public().modulus());
        assert_eq!(kp.raw_private(&x), plain.unwrap());
    }

    #[test]
    fn keypair_codec_roundtrip_preserves_function() {
        let kp = keypair();
        let bytes = p2drm_codec::to_bytes(&kp);
        let back: RsaKeyPair = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.public(), kp.public());
        // The reloaded key signs identically and decrypts what the
        // original key's public half sealed.
        let sig = back.sign(b"reload me");
        assert!(kp.public().verify(b"reload me", &sig).is_ok());
        let (ct, shared) = kem_encapsulate(kp.public(), &mut test_rng(99));
        assert_eq!(kem_decapsulate(&back, &ct).unwrap(), shared);
    }

    #[test]
    fn keypair_decode_rejects_inconsistent_factors() {
        let kp = keypair();
        let other = RsaKeyPair::generate(512, &mut test_rng(98));
        // Splice the other key's factors under this public key.
        let mut w = p2drm_codec::Writer::new();
        kp.public().encode(&mut w);
        for part in [
            other.private_exponent(),
            &other.p,
            &other.q,
            &other.dp,
            &other.dq,
            &other.qinv,
        ] {
            w.put_bytes(&part.to_bytes_be());
        }
        let res: p2drm_codec::Result<RsaKeyPair> = p2drm_codec::from_bytes(&w.into_bytes());
        assert!(res.is_err(), "p*q != n must be rejected");
    }

    #[test]
    fn public_key_codec_roundtrip() {
        let kp = keypair();
        let bytes = p2drm_codec::to_bytes(kp.public());
        let back: RsaPublicKey = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(&back, kp.public());
        assert_eq!(back.fingerprint(), kp.public().fingerprint());
    }

    /// The Montgomery context is built on first use. A decoded key that
    /// has never exponentiated, and a clone taken of it while still
    /// cold, answer exactly like a context built eagerly from the same
    /// modulus — and `new` still refuses up front every modulus the
    /// deferred `Mont::new` could fail on.
    #[test]
    fn lazily_built_context_answers_like_an_eager_one() {
        let keys = [
            keypair(),
            keypair1024().clone(),
            RsaKeyPair::generate(1024, &mut test_rng(1)),
        ];
        for kp in keys {
            let n = kp.public().modulus();
            let decoded: RsaPublicKey =
                p2drm_codec::from_bytes(&p2drm_codec::to_bytes(kp.public())).unwrap();
            assert!(decoded.mont.get().is_none(), "decoding builds no context");
            let cold_clone = decoded.clone();
            assert_eq!(decoded, cold_clone);
            assert_eq!(decoded.fingerprint(), kp.public().fingerprint());
            assert!(decoded.mont.get().is_none(), "nor does fingerprinting");

            let eager = Mont::new(n).unwrap();
            let top = n.sub(&UBig::one());
            for x in [
                UBig::from_u64(0),
                UBig::from_u64(1),
                UBig::from_u64(0xDEAD_BEEF),
                top,
            ] {
                let expect = eager.pow_u64(&x, PUBLIC_EXPONENT);
                assert_eq!(
                    expect,
                    x.pow_mod(kp.public().exponent(), n).unwrap(),
                    "oracle"
                );
                assert_eq!(decoded.raw_public(&x), expect);
            }
            assert!(decoded.mont.get().is_some(), "first use built it");
            assert!(
                decoded.clone().mont.get().is_some(),
                "a warm clone carries it"
            );

            let sig = kp.sign(b"signed before the clone ever exponentiated");
            assert!(cold_clone.mont.get().is_none());
            assert!(cold_clone
                .verify(b"signed before the clone ever exponentiated", &sig)
                .is_ok());
            assert!(cold_clone.verify(b"another message", &sig).is_err());
        }

        let e = UBig::from_u64(PUBLIC_EXPONENT);
        let even = UBig::one().shl(127);
        assert!(RsaPublicKey::new(even, e.clone()).is_err());
        assert!(RsaPublicKey::new(UBig::from_u64(0xFFFF_FFFF), e.clone()).is_err());
        assert!(RsaPublicKey::new(UBig::one().shl(64).add(&UBig::one()), e).is_ok());
    }

    #[test]
    fn fingerprints_differ_between_keys() {
        let kp1 = keypair();
        let kp2 = RsaKeyPair::generate(512, &mut test_rng(17));
        assert_ne!(kp1.public().fingerprint(), kp2.public().fingerprint());
    }

    #[test]
    fn mgf1_prefix_property() {
        let a = mgf1(b"seed", 10);
        let b = mgf1(b"seed", 100);
        assert_eq!(&b[..10], &a[..]);
        assert_eq!(mgf1(b"seed", 0).len(), 0);
    }

    #[test]
    fn fdh_in_range_and_deterministic() {
        let kp = keypair();
        let k = kp.public().modulus_len();
        let h1 = fdh(b"message", k);
        let h2 = fdh(b"message", k);
        assert_eq!(h1, h2);
        assert!(&h1 < kp.public().modulus());
        assert_ne!(fdh(b"other", k), h1);
    }

    #[test]
    fn emsa_layout() {
        let em = emsa_pkcs1_v15(b"x", 64).unwrap();
        assert_eq!(em.len(), 64);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert!(em[2..].iter().take_while(|&&b| b == 0xff).count() >= 8);
    }
}
