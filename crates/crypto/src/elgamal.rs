//! ElGamal encryption over multiplicative groups modulo a safe prime,
//! used for the TTP **identity escrow** inside pseudonym certificates.
//!
//! Encryption is hybrid and authenticated: the ElGamal shared secret keys a
//! ChaCha20 + HMAC envelope (encrypt-then-MAC), so escrow blobs of any
//! length can be carried and tampering is detected before decryption.
//!
//! Groups: the standard 1024-bit Oakley/MODP group (well-known safe prime,
//! generator 2) for realistic benchmarks, and a pinned 512-bit safe-prime
//! test group so the unit-test suite stays fast. Both are constants,
//! validated by tests (`p` and `(p-1)/2` prime, generator of order
//! `(p-1)/2`).
//!
//! Every exponent here is secret (the ephemeral `y` of an encryption,
//! the TTP's `x` on decryption), and every exponentiation keeps the one
//! algorithm of `p2drm_bignum::mont`: encryption's `g^y` and `h^y` run
//! a fixed-base comb that takes a product at every 4-bit digit, zero
//! digits included, with the digit's entry picked by [`ct_lookup`]'s
//! scan of all 16 under the digit as a [`Secret`]; decryption's `c1^x`
//! is [`Mont::pow`]. The scan and the products on zero digits cost
//! ×1.12 per MODP-1024 comb against an indexed, skipping comb (`mont`
//! module doc).
//!
//! # The comb on the IFMA lanes
//!
//! On a CPU with AVX-512 IFMA, a group of 833 to 1038 bits — the rule
//! `rsa::public_batch` follows for the same 20-limb kernel, and the
//! range MODP-1024 is in — runs its combs on [`ifma::comb_lanes`]: the
//! same algorithm, a product per digit and a masked scan per entry,
//! with the tables in radix 2^52 for `R = 2^1040`. An encryption's
//! `g^y` and `h^y` are the two lanes of one kernel call on 256-bit
//! registers; [`ElGamalGroup::pow_g`] and [`ElGamalPublicKey::pow_h`] on
//! their own are one-lane calls. Smaller groups (the 512-bit test
//! group) and other CPUs keep the scalar comb. Each base builds only
//! the table its path reads, on first use: 640 KiB per MODP-1024 base on
//! the lanes, 512 KiB for the scalar comb. Timed in one process
//! (MODP-1024, 30 rounds of 100 encryptions alternated; 2-vCPU Xeon
//! model 207), an encryption costs ×0.49–0.51 on the lanes of what it
//! costs on the scalar combs, and the ciphertexts are byte for byte the
//! same.

use crate::kdf;
use crate::rng::CryptoRng;
use crate::sha256::DIGEST_LEN;
use crate::{chacha20, hmac, CryptoError};
use p2drm_bignum::ct::{ct_lookup, Secret};
use p2drm_bignum::ifma::{self, comb_lanes, CombTable};
use p2drm_bignum::mont::WINDOW;
use p2drm_bignum::{rng as brng, Mont, UBig};
use p2drm_codec::{Decode, Encode, Reader, Writer};
use std::sync::{Arc, OnceLock};

/// The 1024-bit MODP prime from RFC 2409 (Second Oakley Group).
const MODP_1024_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74",
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437",
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
);

/// The 512-bit test-group prime: the safe prime a search seeded with
/// `test_rng(0xE16A_7A11)` finds, pinned because that search takes
/// hundreds of milliseconds optimised and seconds unoptimised.
/// `tests::test_prime_is_the_seeded_search_result` re-derives it.
const TEST_512_HEX: &str = concat!(
    "CACF18B6FE0DB79747B1088A3B70CDA6D8A5C126E158FCC44E11C2094AE3C3CE",
    "082CE5D77B429376EEC1D14888047BB6941D7668E57DF586811F44F497EBC8CF",
);

/// Groups whose fixed-base exponentiations run on the IFMA lanes: 833 to
/// 1038 bits, the rule `rsa::public_batch` follows for the same
/// 20-limb kernel (module doc).
const LANE_BITS: std::ops::RangeInclusive<usize> = 833..=ifma::MAX_PUBLIC_MODULUS_BITS;

/// Fixed-base exponentiation table (radix 2^[`WINDOW`], 4-bit digits):
/// for digit `i`, the 16 powers of `base^(2^(i·4))`, so `base^x` is the
/// product of one entry per 4-bit digit of `x` — no squarings. Built
/// lazily (behind a `OnceLock`) the first time a base is exponentiated,
/// then shared by every clone of the owner, in the one layout the
/// group's path reads.
#[derive(Debug)]
enum FixedBase {
    /// The scalar comb's: `tables[i]` is [`Mont::window_table`] of
    /// `base^(2^(i·4))`, `(bits/4) · 16` Montgomery-form entries (~128
    /// KiB for a 512-bit group).
    Scalar {
        /// Exponent bits covered (the full Montgomery width, ≥ any
        /// exponent reduced mod `p-1`).
        bits: usize,
        tables: Vec<Vec<u64>>,
    },
    /// The lanes' ([`ifma::CombTable`], 640 KiB for MODP-1024).
    Lanes(Box<CombTable>),
}

impl FixedBase {
    /// The table of the group's path, and only that one.
    fn build(group: &ElGamalGroup, base: &UBig) -> Self {
        if group.on_lanes() {
            let table = CombTable::new(&group.mont, base);
            FixedBase::Lanes(Box::new(table.expect("a group of at most 1038 bits")))
        } else {
            FixedBase::scalar(&group.mont, base)
        }
    }

    /// The scalar comb's table.
    fn scalar(mont: &Mont, base: &UBig) -> Self {
        let s = mont.limb_len();
        let bits = 64 * s;
        let mut scratch = mont.alloc_scratch();
        let mut tmp = vec![0u64; s];
        // b = base^(2^(i·4)) for the current digit i.
        let mut b = mont.to_mont(base);
        let tables = (0..bits.div_ceil(WINDOW))
            .map(|_| {
                let table = mont.window_table(&b);
                for _ in 0..WINDOW {
                    mont.mont_sqr_into(&b, &mut tmp, &mut scratch);
                    std::mem::swap(&mut b, &mut tmp);
                }
                table
            })
            .collect();
        FixedBase::Scalar { bits, tables }
    }

    /// Exponent bits the table covers.
    fn bits(&self) -> usize {
        match self {
            FixedBase::Scalar { bits, .. } => *bits,
            FixedBase::Lanes(table) => table.bits(),
        }
    }

    /// `base^exp mod n`, or `None` when the exponent is wider than the
    /// table covers (callers then fall back to the generic kernel). Every
    /// digit takes a product, zero digits included, with the entry
    /// [`ct_lookup`] picks by scanning all 16: on the lanes, a one-lane
    /// [`ifma::comb_lanes`] call.
    fn pow(&self, mont: &Mont, exp: &UBig) -> Option<UBig> {
        let exp = Secret::new(exp);
        // The exponent bit length is a key-size parameter.
        if exp.declassify().bit_len() > self.bits() {
            return None;
        }
        let tables = match self {
            FixedBase::Scalar { tables, .. } => tables,
            FixedBase::Lanes(table) => return comb_lanes(&[(table, exp)]).map(|mut p| p.remove(0)),
        };
        let s = mont.limb_len();
        let mut acc = mont.to_mont(&UBig::one());
        let mut entry = vec![0u64; s];
        let mut tmp = vec![0u64; s];
        let mut scratch = mont.alloc_scratch();
        for (i, table) in tables.iter().enumerate() {
            ct_lookup(table, exp.window(i * WINDOW, WINDOW), &mut entry);
            mont.mont_mul_into(&acc, &entry, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
        }
        Some(mont.from_mont(&acc))
    }
}

/// Dispatches an exponentiation through a lazily built fixed-base table,
/// or the generic Montgomery kernel for an exponent wider than it covers.
fn fixed_base_pow(
    table: &OnceLock<FixedBase>,
    group: &ElGamalGroup,
    base: &UBig,
    exp: &UBig,
) -> UBig {
    table
        .get_or_init(|| FixedBase::build(group, base))
        .pow(&group.mont, exp)
        .unwrap_or_else(|| group.mont.pow(base, exp))
}

/// A multiplicative group mod a safe prime `p = 2q + 1` with generator `g`.
#[derive(Clone, Debug)]
pub struct ElGamalGroup {
    p: UBig,
    g: UBig,
    mont: Mont,
    /// Lazily built fixed-base table for `g`, shared across clones.
    g_table: Arc<OnceLock<FixedBase>>,
}

impl PartialEq for ElGamalGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.g == other.g
    }
}

impl Eq for ElGamalGroup {}

impl ElGamalGroup {
    /// Builds a group from explicit parameters (`p` odd, `1 < g < p`).
    pub fn new(p: UBig, g: UBig) -> Result<Self, CryptoError> {
        if p.is_even() || p.bit_len() < 64 {
            return Err(CryptoError::BadKey("p must be an odd prime >= 64 bits"));
        }
        if g <= UBig::one() || g >= p {
            return Err(CryptoError::BadKey("generator out of range"));
        }
        let mont = Mont::new(&p).map_err(|_| CryptoError::BadKey("bad modulus"))?;
        Ok(ElGamalGroup {
            p,
            g,
            mont,
            g_table: Arc::new(OnceLock::new()),
        })
    }

    /// The standard 1024-bit MODP group (generator 2).
    pub fn modp_1024() -> &'static ElGamalGroup {
        static GROUP: OnceLock<ElGamalGroup> = OnceLock::new();
        GROUP.get_or_init(|| {
            let p = UBig::from_hex(MODP_1024_HEX).expect("constant parses");
            ElGamalGroup::new(p, UBig::from_u64(2)).expect("constant group valid")
        })
    }

    /// The 512-bit safe-prime test group (generator 4, a quadratic
    /// residue, so it generates the prime-order subgroup).
    ///
    /// A constant like [`modp_1024`](Self::modp_1024): the first call
    /// parses the pinned prime, later calls share it.
    pub fn test_512() -> &'static ElGamalGroup {
        static GROUP: OnceLock<ElGamalGroup> = OnceLock::new();
        GROUP.get_or_init(|| {
            let p = UBig::from_hex(TEST_512_HEX).expect("constant parses");
            ElGamalGroup::new(p, UBig::from_u64(4)).expect("constant group valid")
        })
    }

    /// The prime modulus.
    pub fn modulus(&self) -> &UBig {
        &self.p
    }

    /// The generator.
    pub fn generator(&self) -> &UBig {
        &self.g
    }

    /// `g^x mod p` through the lazily built fixed-base table for `g`:
    /// one scanned table entry and product per 4 exponent bits, no
    /// squarings; on the lanes, a one-lane kernel call.
    pub fn pow_g(&self, x: &UBig) -> UBig {
        fixed_base_pow(&self.g_table, self, &self.g, x)
    }

    /// Whether this group's combs run on the IFMA lanes: a modulus of
    /// 833 to 1038 bits on a CPU with AVX-512 IFMA.
    fn on_lanes(&self) -> bool {
        LANE_BITS.contains(&self.p.bit_len()) && ifma::available()
    }

    /// `b^x mod p` (generic kernel — `b` varies per call).
    pub fn pow(&self, b: &UBig, x: &UBig) -> UBig {
        self.mont.pow(b, x)
    }

    /// Uniform exponent in `[1, p-2]`.
    pub fn random_exponent<R: CryptoRng + ?Sized>(&self, rng: &mut R) -> UBig {
        brng::random_range(rng, &UBig::one(), &self.p.sub(&UBig::one()))
    }
}

/// ElGamal public key `h = g^x`.
#[derive(Clone, Debug)]
pub struct ElGamalPublicKey {
    group: ElGamalGroup,
    h: UBig,
    /// Lazily built fixed-base table for `h`, shared across clones.
    h_table: Arc<OnceLock<FixedBase>>,
}

impl PartialEq for ElGamalPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.group == other.group && self.h == other.h
    }
}

impl Eq for ElGamalPublicKey {}

/// ElGamal key pair.
#[derive(Clone, Debug)]
pub struct ElGamalKeyPair {
    public: ElGamalPublicKey,
    x: UBig,
}

p2drm_codec::record! {
    /// Authenticated hybrid ciphertext.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ElGamalCiphertext {
        /// Ephemeral `g^y`.
        c1: UBig,
        /// ChaCha20 body.
        body: Vec<u8>,
        /// HMAC over `c1 || body`.
        tag: [u8; DIGEST_LEN],
    }
}

impl ElGamalKeyPair {
    /// Generates a key in `group`.
    pub fn generate<R: CryptoRng + ?Sized>(group: &ElGamalGroup, rng: &mut R) -> Self {
        let x = group.random_exponent(rng);
        let h = group.pow_g(&x);
        ElGamalKeyPair {
            public: ElGamalPublicKey {
                group: group.clone(),
                h,
                h_table: Arc::new(OnceLock::new()),
            },
            x,
        }
    }

    /// The public half.
    pub fn public(&self) -> &ElGamalPublicKey {
        &self.public
    }

    /// Decrypts and authenticates.
    pub fn decrypt(&self, ct: &ElGamalCiphertext) -> Result<Vec<u8>, CryptoError> {
        let group = &self.public.group;
        if ct.c1.is_zero() || &ct.c1 >= group.modulus() {
            return Err(CryptoError::BadCiphertext);
        }
        let shared = group.pow(&ct.c1, &self.x);
        let (enc_key, mac_key) = derive_keys(&shared);
        let mut mac = hmac::HmacSha256::new(&mac_key);
        mac.update(&ct.c1.to_bytes_be());
        mac.update(&ct.body);
        // MAC validity is the output of authenticated decryption; the tag
        // comparison itself is constant-time.
        if !mac.verify(&ct.tag) {
            return Err(CryptoError::BadCiphertext);
        }
        Ok(chacha20::decrypt(&enc_key, &[0u8; 12], &ct.body))
    }
}

impl ElGamalPublicKey {
    /// The group this key lives in.
    pub fn group(&self) -> &ElGamalGroup {
        &self.group
    }

    /// `h` component.
    pub fn h(&self) -> &UBig {
        &self.h
    }

    /// `h^x mod p` through the lazily built fixed-base table for `h`.
    pub fn pow_h(&self, x: &UBig) -> UBig {
        fixed_base_pow(&self.h_table, &self.group, &self.h, x)
    }

    /// `(g^y, h^y)`: on the lanes, the two lanes of one kernel call;
    /// otherwise the two combs in turn.
    fn pow_g_and_h(&self, y: &UBig) -> (UBig, UBig) {
        let group = &self.group;
        let g = group
            .g_table
            .get_or_init(|| FixedBase::build(group, &group.g));
        let h = self
            .h_table
            .get_or_init(|| FixedBase::build(group, &self.h));
        if let (FixedBase::Lanes(gt), FixedBase::Lanes(ht)) = (g, h) {
            let y = Secret::new(y);
            // The exponent bit length is a key-size parameter.
            if y.declassify().bit_len() <= gt.bits() {
                let mut pair = comb_lanes(&[(gt, y), (ht, y)]).expect("the CPU has AVX-512 IFMA");
                let shared = pair.pop().expect("two lanes");
                return (pair.pop().expect("two lanes"), shared);
            }
        }
        (group.pow_g(y), self.pow_h(y))
    }

    /// Encrypts `plaintext` (any length) with a fresh ephemeral exponent.
    /// Both exponentiations (`g^y` and `h^y`) go through fixed-base
    /// tables, so steady-state encryption is table scans and products:
    /// on the lanes, one two-lane kernel call.
    pub fn encrypt<R: CryptoRng + ?Sized>(
        &self,
        plaintext: &[u8],
        rng: &mut R,
    ) -> ElGamalCiphertext {
        let y = self.group.random_exponent(rng);
        let (c1, shared) = self.pow_g_and_h(&y);
        let (enc_key, mac_key) = derive_keys(&shared);
        let body = chacha20::encrypt(&enc_key, &[0u8; 12], plaintext);
        let mut mac = hmac::HmacSha256::new(&mac_key);
        mac.update(&c1.to_bytes_be());
        mac.update(&body);
        ElGamalCiphertext {
            c1,
            body,
            tag: mac.finalize(),
        }
    }

    /// SHA-256 fingerprint of the canonical encoding.
    pub fn fingerprint(&self) -> [u8; DIGEST_LEN] {
        crate::sha256::sha256(&p2drm_codec::to_bytes(self))
    }
}

/// Derives (encryption key, MAC key) from the ElGamal shared secret.
///
/// Fresh ephemeral exponent per message means a fixed ChaCha20 nonce is safe.
fn derive_keys(shared: &UBig) -> ([u8; 32], Vec<u8>) {
    let ikm = shared.to_bytes_be();
    let okm = kdf::derive(b"p2drm-elgamal-hybrid", &ikm, b"env", 64);
    let enc_key: [u8; 32] = okm[..32].try_into().unwrap();
    (enc_key, okm[32..].to_vec())
}

impl Encode for ElGamalPublicKey {
    fn encode(&self, w: &mut Writer) {
        self.group.p.encode(w);
        self.group.g.encode(w);
        self.h.encode(w);
    }
}

impl Decode for ElGamalPublicKey {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let p = UBig::decode(r)?;
        let g = UBig::decode(r)?;
        let h = UBig::decode(r)?;
        let group =
            ElGamalGroup::new(p, g).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(1))?;
        Ok(ElGamalPublicKey {
            group,
            h,
            h_table: Arc::new(OnceLock::new()),
        })
    }
}

impl Encode for ElGamalKeyPair {
    /// Serializes the full private key. **Handle the bytes as secrets.**
    fn encode(&self, w: &mut Writer) {
        self.public.encode(w);
        self.x.encode(w);
    }
}

impl Decode for ElGamalKeyPair {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let public = ElGamalPublicKey::decode(r)?;
        let x = UBig::decode(r)?;
        // Consistency: h must equal g^x. One-shot check on a freshly
        // decoded group — the generic kernel, not pow_g, so no fixed-base
        // table is built for a single exponentiation.
        if public.group.pow(public.group.generator(), &x) != public.h {
            return Err(p2drm_codec::CodecError::BadDiscriminant(2));
        }
        Ok(ElGamalKeyPair { public, x })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::test_rng;
    use p2drm_bignum::prime;

    /// Generates a safe prime `p = 2q + 1` of exactly `bits` bits.
    fn gen_safe_prime<R: CryptoRng + ?Sized>(bits: usize, rng: &mut R) -> UBig {
        loop {
            let q = prime::gen_prime(bits - 1, 8, rng);
            let p = &q.shl(1) + &UBig::one();
            if p.bit_len() == bits && prime::is_prime(&p, 16, rng) {
                return p;
            }
        }
    }

    #[test]
    fn modp_1024_is_a_safe_prime_group() {
        let g = ElGamalGroup::modp_1024();
        let mut rng = test_rng(31);
        assert_eq!(g.modulus().bit_len(), 1024);
        assert!(prime::is_prime(g.modulus(), 16, &mut rng), "p prime");
        let q = g.modulus().sub(&UBig::one()).shr(1);
        assert!(prime::is_prime(&q, 16, &mut rng), "(p-1)/2 prime");
    }

    #[test]
    fn test_group_is_a_safe_prime_group() {
        let g = ElGamalGroup::test_512();
        let mut rng = test_rng(32);
        assert_eq!(g.modulus().bit_len(), 512);
        assert!(prime::is_prime(g.modulus(), 16, &mut rng));
        let q = g.modulus().sub(&UBig::one()).shr(1);
        assert!(prime::is_prime(&q, 16, &mut rng));
    }

    /// Provenance of the pinned test prime: the seeded safe-prime search
    /// finds exactly it. The search takes seconds unoptimised, so it
    /// runs in release builds only.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "seconds-long prime search; run with cargo test --release"
    )]
    fn test_prime_is_the_seeded_search_result() {
        let mut rng = test_rng(0xE16A_7A11);
        assert_eq!(
            &gen_safe_prime(512, &mut rng),
            ElGamalGroup::test_512().modulus()
        );
    }

    /// Both generators have order `q = (p-1)/2`: `g != 1` and
    /// `g^q = 1 (mod p)`. With `q` prime the order divides `q` and is
    /// not 1, so it is `q` — the prime-order subgroup escrows live in.
    #[test]
    fn generators_have_order_q() {
        for group in [ElGamalGroup::modp_1024(), ElGamalGroup::test_512()] {
            let q = group.modulus().sub(&UBig::one()).shr(1);
            assert_ne!(group.generator(), &UBig::one());
            assert_eq!(group.pow(group.generator(), &q), UBig::one());
        }
    }

    /// The comb against the generic kernel on exponents whose digits are
    /// mostly zero, or all 15s: every digit's entry, 1 for a zero digit
    /// included, is scanned for and multiplied in.
    #[test]
    fn comb_matches_generic_pow_on_zero_digit_exponents() {
        let one = UBig::one();
        let group = ElGamalGroup::test_512();
        let kp = ElGamalKeyPair::generate(group, &mut test_rng(35));
        let bits = group.modulus().bit_len();
        let mut exps: Vec<UBig> = [0, 1, 3, 4, 5, 64, bits / 2, bits - 2]
            .iter()
            .map(|&k| one.shl(k))
            .collect();
        for d in [1, 8, 15] {
            exps.push(UBig::from_u64(d).shl(bits - 8));
        }
        exps.push(one.shl(bits - 1).sub(&one));
        exps.push(UBig::from_hex(&"0f".repeat(bits / 8 - 1)).unwrap());
        exps.push(UBig::from_hex(&"f0".repeat(bits / 8 - 1)).unwrap());
        for x in &exps {
            assert_eq!(group.pow_g(x), group.pow(group.generator(), x), "g^{x}");
            assert_eq!(kp.public().pow_h(x), group.pow(kp.public().h(), x), "h^{x}");
        }
    }

    /// The MODP-1024 key pair the lane tests share (its tables built on
    /// first use).
    fn modp_key() -> &'static ElGamalKeyPair {
        static KP: OnceLock<ElGamalKeyPair> = OnceLock::new();
        KP.get_or_init(|| ElGamalKeyPair::generate(ElGamalGroup::modp_1024(), &mut test_rng(51)))
    }

    /// The comb's lanes against `Mont::pow` on MODP-1024: exponents 0, 1,
    /// 2^k across digit and limb boundaries, p − 2, short and
    /// full-width random ones, in one-lane calls (`pow_g`, `pow_h`), in
    /// two-lane calls (the encryption's pair, with one exponent and with
    /// two) and in calls of 3, 8 and 11 lanes (256-bit, 512-bit and two
    /// calls), each taking ⌈lanes / 8⌉ kernel calls. Without AVX-512
    /// IFMA the group keeps the scalar comb, checked the same way.
    #[test]
    fn comb_lanes_match_mont_pow_on_modp_1024() {
        let kp = modp_key();
        let (group, h) = (kp.public().group(), kp.public().h());
        let p = group.modulus();
        let mut rng = test_rng(52);
        let mut exps: Vec<UBig> = [0, 1, 3, 4, 63, 64, 65, 511, 1000, 1023]
            .iter()
            .map(|&k| UBig::one().shl(k))
            .collect();
        exps.extend([
            UBig::zero(),
            p.sub(&UBig::from_u64(2)),
            UBig::from_u64(0xf0f0),
        ]);
        for bits in [8, 100, 700, 1023, 1024] {
            exps.push(brng::random_bits(&mut rng, bits));
        }
        exps.extend((0..4).map(|_| group.random_exponent(&mut rng)));
        let generic = |b: &UBig, x: &UBig| group.pow(b, x);
        for x in &exps {
            assert_eq!(group.pow_g(x), generic(group.generator(), x), "g^{x}");
            assert_eq!(kp.public().pow_h(x), generic(h, x), "h^{x}");
            assert_eq!(
                kp.public().pow_g_and_h(x),
                (generic(group.generator(), x), generic(h, x)),
                "(g, h)^{x}"
            );
        }
        let (Some(FixedBase::Lanes(gt)), Some(FixedBase::Lanes(ht))) =
            (group.g_table.get(), kp.public().h_table.get())
        else {
            assert!(!ifma::available(), "a 1024-bit group takes the lanes");
            eprintln!("this CPU has no AVX-512 IFMA: the comb's lanes are skipped");
            return;
        };
        for lanes in [2, 3, 8, 11] {
            for first in 0..exps.len() {
                let picks: Vec<(usize, &UBig)> = (0..lanes)
                    .map(|k| (k % 2, &exps[(first + 3 * k) % exps.len()]))
                    .collect();
                let args: Vec<ifma::CombLane> = picks
                    .iter()
                    .map(|&(b, x)| (&**[gt, ht][b], Secret::new(x)))
                    .collect();
                let before = p2drm_bignum::counts::counts().kernel_calls;
                let got = comb_lanes(&args).expect("IFMA was detected");
                assert_eq!(
                    p2drm_bignum::counts::counts().kernel_calls - before,
                    lanes.div_ceil(8) as u64
                );
                for (k, &(b, x)) in picks.iter().enumerate() {
                    let base = [group.generator(), h][b];
                    assert_eq!(got[k], generic(base, x), "lane {k} of {lanes}: {x}");
                }
            }
        }
    }

    /// An encryption is one kernel call on the lanes (MODP-1024 on a CPU
    /// with AVX-512 IFMA) and none otherwise, and its ciphertext is the
    /// one the scalar comb makes from the same draws, byte for byte.
    #[test]
    fn encryption_is_one_kernel_call_and_equals_the_scalar_combs() {
        let kp = modp_key();
        let lanes = ifma::available();
        // The same key with its tables in the scalar comb's layout.
        let (group, h) = (kp.public().group(), kp.public().h());
        let scalar_group =
            ElGamalGroup::new(group.modulus().clone(), group.generator().clone()).unwrap();
        let scalar_g = FixedBase::scalar(&scalar_group.mont, group.generator());
        scalar_group.g_table.set(scalar_g).unwrap();
        let scalar_h = FixedBase::scalar(&scalar_group.mont, h);
        let scalar_key = ElGamalPublicKey {
            group: scalar_group,
            h: h.clone(),
            h_table: Arc::new(OnceLock::from(scalar_h)),
        };
        for seed in 0..4 {
            let msg = b"escrowed identity";
            let before = p2drm_bignum::counts::counts().kernel_calls;
            let ct = kp.public().encrypt(msg, &mut test_rng(60 + seed));
            assert_eq!(
                p2drm_bignum::counts::counts().kernel_calls - before,
                lanes as u64
            );
            let before = p2drm_bignum::counts::counts().kernel_calls;
            let want = scalar_key.encrypt(msg, &mut test_rng(60 + seed));
            assert_eq!(
                p2drm_bignum::counts::counts().kernel_calls,
                before,
                "the scalar combs run no kernel"
            );
            assert_eq!(p2drm_codec::to_bytes(&ct), p2drm_codec::to_bytes(&want));
            let y = group.random_exponent(&mut test_rng(60 + seed));
            assert_eq!(ct.c1, group.pow(group.generator(), &y));
            assert_eq!(kp.decrypt(&ct).unwrap(), msg);
        }
        let small = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut test_rng(54));
        let before = p2drm_bignum::counts::counts().kernel_calls;
        let _ = small.public().encrypt(b"m", &mut test_rng(55));
        assert_eq!(
            p2drm_bignum::counts::counts().kernel_calls,
            before,
            "a 512-bit group keeps the scalar comb"
        );
    }

    /// A base's table is built on first use, in the layout of its
    /// group's path only: the lanes' for MODP-1024 on a CPU with AVX-512
    /// IFMA, the scalar comb's for the 512-bit group and on other CPUs.
    /// Clones share it.
    #[test]
    fn each_base_builds_only_the_table_its_path_reads() {
        let modp = ElGamalGroup::modp_1024();
        let fresh = ElGamalGroup::new(modp.modulus().clone(), modp.generator().clone()).unwrap();
        let lanes = |t: &OnceLock<FixedBase>| matches!(t.get(), Some(FixedBase::Lanes(_)));
        let scalar = |t: &OnceLock<FixedBase>| matches!(t.get(), Some(FixedBase::Scalar { .. }));
        let small = ElGamalGroup::test_512();
        for (group, on_lanes) in [(&fresh, ifma::available()), (small, false)] {
            let kp = ElGamalKeyPair::generate(group, &mut test_rng(56));
            assert!(
                kp.public().h_table.get().is_none(),
                "h's table waits for its use"
            );
            let _ = kp.public().encrypt(b"m", &mut test_rng(57));
            for table in [
                &group.g_table,
                &kp.public().group().g_table,
                &kp.public().h_table,
            ] {
                assert_eq!(lanes(table), on_lanes, "{} bits", group.modulus().bit_len());
                assert_eq!(
                    scalar(table),
                    !on_lanes,
                    "{} bits",
                    group.modulus().bit_len()
                );
                assert_eq!(table.get().unwrap().bits(), 64 * group.mont.limb_len());
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = test_rng(33);
        let kp = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        for msg in [&b""[..], b"x", b"identity escrow: user-42 nonce 0xabcdef"] {
            let ct = kp.public().encrypt(msg, &mut rng);
            assert_eq!(kp.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn decryption_with_wrong_key_fails() {
        let mut rng = test_rng(34);
        let group = ElGamalGroup::test_512();
        let kp1 = ElGamalKeyPair::generate(group, &mut rng);
        let kp2 = ElGamalKeyPair::generate(group, &mut rng);
        let ct = kp1.public().encrypt(b"secret", &mut rng);
        assert!(kp2.decrypt(&ct).is_err());
    }

    #[test]
    fn tampering_detected() {
        let mut rng = test_rng(35);
        let kp = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        let ct = kp.public().encrypt(b"secret payload", &mut rng);

        let mut t1 = ct.clone();
        t1.body[0] ^= 1;
        assert!(kp.decrypt(&t1).is_err());

        let mut t2 = ct.clone();
        t2.tag[0] ^= 1;
        assert!(kp.decrypt(&t2).is_err());

        let mut t3 = ct.clone();
        t3.c1 = &t3.c1 + &UBig::one();
        assert!(kp.decrypt(&t3).is_err());
    }

    #[test]
    fn encryption_is_randomized() {
        let mut rng = test_rng(36);
        let kp = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        let a = kp.public().encrypt(b"m", &mut rng);
        let b = kp.public().encrypt(b"m", &mut rng);
        assert_ne!(a, b);
        assert_eq!(kp.decrypt(&a).unwrap(), kp.decrypt(&b).unwrap());
    }

    #[test]
    fn ciphertext_codec_roundtrip() {
        let mut rng = test_rng(37);
        let kp = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        let ct = kp.public().encrypt(b"round trip me", &mut rng);
        let bytes = p2drm_codec::to_bytes(&ct);
        let back: ElGamalCiphertext = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, ct);
        assert_eq!(kp.decrypt(&back).unwrap(), b"round trip me");
    }

    #[test]
    fn public_key_codec_roundtrip() {
        let mut rng = test_rng(38);
        let kp = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        let bytes = p2drm_codec::to_bytes(kp.public());
        let back: ElGamalPublicKey = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(&back, kp.public());
    }

    #[test]
    fn keypair_codec_roundtrip_preserves_function() {
        let mut rng = test_rng(39);
        let kp = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        let bytes = p2drm_codec::to_bytes(&kp);
        let back: ElGamalKeyPair = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.public(), kp.public());
        let ct = kp.public().encrypt(b"escrowed identity", &mut rng);
        assert_eq!(back.decrypt(&ct).unwrap(), b"escrowed identity");
    }

    #[test]
    fn keypair_decode_rejects_mismatched_secret() {
        let mut rng = test_rng(48);
        let kp1 = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        let kp2 = ElGamalKeyPair::generate(ElGamalGroup::test_512(), &mut rng);
        // kp1's public half with kp2's secret exponent.
        let mut w = p2drm_codec::Writer::new();
        kp1.public().encode(&mut w);
        w.put_bytes(&kp2.x.to_bytes_be());
        let res: p2drm_codec::Result<ElGamalKeyPair> = p2drm_codec::from_bytes(&w.into_bytes());
        assert!(res.is_err(), "h != g^x must be rejected");
    }

    #[test]
    fn group_validation() {
        assert!(ElGamalGroup::new(UBig::from_u64(100), UBig::from_u64(2)).is_err());
        let p = ElGamalGroup::test_512().modulus().clone();
        assert!(ElGamalGroup::new(p.clone(), UBig::one()).is_err());
        assert!(ElGamalGroup::new(p.clone(), p.clone()).is_err());
    }
}
