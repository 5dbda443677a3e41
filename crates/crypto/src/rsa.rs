//! RSA from scratch: key generation, PKCS#1 v1.5 signatures (SHA-256),
//! RSA-KEM key encapsulation, and the raw trapdoor permutation used by the
//! blind-signature module.
//!
//! # Multi-prime CRT
//!
//! A private key is the modulus `n = r₁⋯r_k` held as its k prime factors
//! in the form of RFC 8017 §3.2: for each prime rᵢ its exponent
//! `dᵢ = d mod (rᵢ − 1)`, its CRT coefficient `tᵢ = (r₁⋯rᵢ₋₁)⁻¹ mod rᵢ`
//! (kept in Montgomery form), and its Montgomery context. A private-key
//! operation does one exponentiation `mᵢ = x^dᵢ mod rᵢ` per prime and
//! recombines them with Garner's rule (RFC 8017 §5.1.2, step 2.b) in
//! mixed radix: `m = v₁ + r₁·(v₂ + r₂·(v₃ + …))` with `v₁ = m₁` and
//! `vᵢ = tᵢ·(mᵢ − m mod rᵢ) mod rᵢ`, where `m` is the value
//! `v₁ + r₁·v₂ + …` of the digits before `vᵢ`.
//!
//! The recombination runs on fixed-width limb buffers, without a branch,
//! a comparison or a division on a residue. `m mod rᵢ` is one Montgomery
//! product per earlier digit `v_j`, against the constant
//! `r₁⋯r_{j−1} mod rᵢ` each factor keeps in Montgomery form. The digit
//! needs no reduction first: it is below `R = 2^(64·wᵢ)` (`wᵢ` being
//! `rᵢ`'s width in limbs) when `r_j` is no wider than `rᵢ`, and
//! `v_j·c < R·rᵢ` is all a Montgomery product asks; a digit of a wider
//! prime is cut into `wᵢ`-limb chunks, each with its own constant.
//! `mᵢ − m mod rᵢ` is a subtraction and an add-back of `rᵢ` under the
//! borrow's mask (`ct::sub_borrow`, `ct::add_masked`), and the digits are
//! put together by schoolbook products on limb arrays. Every length is
//! the primes' widths, which are public.
//!
//! The prime count follows from the modulus size (`prime_count`): two
//! below 1024 bits, three from 1024 bits on. Exponentiation cost grows
//! with the cube of the operand size, so three ~341-bit exponentiations
//! (6 limbs, 341-bit exponents) do about 0.56× the limb products of two
//! ~512-bit ones (8 limbs, 512-bit exponents). Public keys, signatures and
//! ciphertexts are unchanged: only the holder of the factors can tell. Three
//! primes is what OpenSSL accepts from 1024 bits up (its
//! `rsa_keygen_primes` cap is 3 below 4096 bits); at that size the
//! best-known factoring attack is still the number field sieve on `n`
//! itself, as ~341-bit factors stay far beyond the elliptic-curve method.

use crate::rng::CryptoRng;
use crate::sha256::{sha256, DIGEST_LEN};
use crate::CryptoError;
use p2drm_bignum::ct::{self, Secret};
use p2drm_bignum::ifma::{self, Modulus52, PublicModulus52};
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

/// Moduli whose public operations [`public_batch`] runs on the vertical
/// kernel: of 14 or more 64-bit limbs, where a lone 20-limb lane stops
/// losing to the scalar path ([`ifma`] module doc), and of at most
/// [`ifma::MAX_PUBLIC_MODULUS_BITS`] (1038) bits.
const VERTICAL_PUBLIC_BITS: std::ops::RangeInclusive<usize> = 833..=ifma::MAX_PUBLIC_MODULUS_BITS;

/// An RSA public key `(n, e)` with `e` = [`PUBLIC_EXPONENT`] and cached
/// Montgomery constants.
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
    /// The vertical kernel's constants, built on the key's first
    /// operation there ([`public_batch`]) and shared by the clones taken
    /// after; `None` for a modulus too wide for it.
    r52: std::sync::OnceLock<Option<std::sync::Arc<PublicModulus52>>>,
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
    /// Builds from raw parameters: an odd modulus of at least 64 bits
    /// and `e` = [`PUBLIC_EXPONENT`]. Every key of the system is
    /// generated with F4, and a key is often made by its holder alone (a
    /// blindly issued pseudonym key, which the RA never sees), so any
    /// other `e` is refused: `e = 1` would make a KEM ciphertext the
    /// secret itself, and a 1024-bit `e` would make every seal under the
    /// key a full exponentiation.
    pub fn new(n: UBig, e: UBig) -> Result<Self, CryptoError> {
        if n.is_even() || n.bit_len() < 64 {
            return Err(CryptoError::BadKey("modulus must be odd and >= 64 bits"));
        }
        if e.to_u64() != Some(PUBLIC_EXPONENT) {
            return Err(CryptoError::BadKey("public exponent must be 65537"));
        }
        Ok(RsaPublicKey {
            n,
            e,
            mont: std::sync::OnceLock::new(),
            r52: std::sync::OnceLock::new(),
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

    /// Raw RSA public operation `x^e mod n`: the one-input case of
    /// [`public_batch`]. Either path is plain square-and-multiply, 16
    /// squarings and one multiplication for `e = 65537`.
    pub fn raw_public(&self, x: &UBig) -> UBig {
        public_batch(&[(self, x)])
            .pop()
            .expect("one result per input")
    }

    /// The vertical kernel's constants for this modulus, built on first
    /// use; `None` if it has more than [`ifma::MAX_PUBLIC_MODULUS_BITS`]
    /// bits.
    fn radix52(&self) -> Option<&PublicModulus52> {
        self.r52
            .get_or_init(|| PublicModulus52::new(&self.n).map(std::sync::Arc::new))
            .as_deref()
    }

    /// The key's Montgomery context, built on first use.
    fn mont(&self) -> &Mont {
        // `new` admitted only odd moduli of >= 64 bits, the whole of what
        // `Mont::new` requires.
        self.mont
            .get_or_init(|| Mont::new(&self.n).expect("modulus validated in RsaPublicKey::new"))
    }

    /// SHA-256 fingerprint of the canonical encoding (used as a key id).
    /// Computed once per key and memoized (shared across clones).
    pub fn fingerprint(&self) -> [u8; DIGEST_LEN] {
        *self.fp.get_or_init(|| sha256(&p2drm_codec::to_bytes(self)))
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`: the
    /// one-input case of [`SignatureCheck::pkcs1_v15`].
    pub fn verify(&self, message: &[u8], sig: &RsaSignature) -> Result<(), CryptoError> {
        SignatureCheck::pkcs1_v15(self, message, sig)?.run()
    }
}

impl Encode for RsaPublicKey {
    fn encode(&self, w: &mut Writer) {
        self.n.encode(w);
        self.e.encode(w);
    }
}

impl Decode for RsaPublicKey {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let n = UBig::decode(r)?;
        let e = UBig::decode(r)?;
        RsaPublicKey::new(n, e).map_err(|_| p2drm_codec::CodecError::BadDiscriminant(0))
    }
}

/// `x^e mod n` for every `(key, x)`, in order, each key with its own
/// modulus and all with `e` = [`PUBLIC_EXPONENT`]: signature checks and
/// KEM encapsulations of many requests at once.
///
/// On a CPU with AVX-512 IFMA, every input whose modulus has 833 to 1038
/// bits is a lane of one [`ifma::pow_public_lanes`] call sequence (eight
/// lanes to a kernel call, a lone one included); every other input, and
/// every input on other CPUs, takes [`Mont::pow_u64`]. The rule reads
/// the [`ifma`] module's tables: a lane costs twenty limbs whatever the
/// modulus, so from 833 bits one lane alone costs no more than the
/// scalar path and eight cost about a sixth of it per operation, while
/// at 512 bits a lane is under half full and loses below four lanes.
/// Both paths give the same value, bit for bit; nothing but the CPU and
/// the moduli's sizes picks one.
pub fn public_batch(inputs: &[(&RsaPublicKey, &UBig)]) -> Vec<UBig> {
    let vertical =
        |pk: &RsaPublicKey| VERTICAL_PUBLIC_BITS.contains(&pk.n.bit_len()) && ifma::available();
    let lanes: Vec<_> = inputs
        .iter()
        .filter(|(pk, _)| vertical(pk))
        .map(|&(pk, x)| (pk.radix52().expect("a modulus of at most 1038 bits"), x))
        .collect();
    crate::counts::count(|c| {
        c.public_lanes += lanes.len() as u64;
        c.public_scalar += (inputs.len() - lanes.len()) as u64;
    });
    let mut powers = ifma::pow_public_lanes(&lanes, PUBLIC_EXPONENT)
        .expect("the CPU has AVX-512 IFMA")
        .into_iter();
    inputs
        .iter()
        .map(|&(pk, x)| {
            if vertical(pk) {
                powers.next().expect("one power per lane")
            } else {
                pk.mont().pow_u64(x, PUBLIC_EXPONENT)
            }
        })
        .collect()
}

/// A signature check split around its public-key operation, so a caller
/// can run that operation together with others of any kind in one
/// [`public_batch`]: a PKCS#1 v1.5 SHA-256 signature
/// ([`SignatureCheck::pkcs1_v15`]) or a full-domain-hash one
/// ([`SignatureCheck::fdh`], the blind signatures' kind).
pub struct SignatureCheck<'a> {
    pk: &'a RsaPublicKey,
    sig: &'a UBig,
    /// What the signature must raise to: the encoded message.
    expected: UBig,
}

impl<'a> SignatureCheck<'a> {
    /// The check of a PKCS#1 v1.5 SHA-256 signature on `message`, or an
    /// error at once: `BadSignature` for a signature not below the
    /// modulus, `MessageTooLong` for a modulus too short for the
    /// encoding.
    pub fn pkcs1_v15(
        pk: &'a RsaPublicKey,
        message: &[u8],
        sig: &'a RsaSignature,
    ) -> Result<Self, CryptoError> {
        let sig = Self::below_modulus(pk, sig)?;
        let em = emsa_pkcs1_v15(message, pk.modulus_len())?;
        Ok(SignatureCheck {
            pk,
            sig,
            expected: UBig::from_bytes_be(&em),
        })
    }

    /// The check of a full-domain-hash signature on `message`, or
    /// `BadSignature` at once for a signature not below the modulus.
    pub fn fdh(
        pk: &'a RsaPublicKey,
        message: &[u8],
        sig: &'a RsaSignature,
    ) -> Result<Self, CryptoError> {
        let sig = Self::below_modulus(pk, sig)?;
        Ok(SignatureCheck {
            pk,
            sig,
            expected: fdh(message, pk.modulus_len()),
        })
    }

    fn below_modulus(pk: &RsaPublicKey, sig: &'a RsaSignature) -> Result<&'a UBig, CryptoError> {
        if sig.s >= pk.n {
            return Err(CryptoError::BadSignature);
        }
        Ok(&sig.s)
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

    /// The verdict, the operation run on its own.
    pub fn run(&self) -> Result<(), CryptoError> {
        self.finish(&self.pk.raw_public(self.sig))
    }
}

/// Whether each check passes, a missing one (`None`) failing: the
/// public-key operations of all the others are the lanes of one
/// [`public_batch`].
pub fn verify_batch<const N: usize>(checks: [Option<SignatureCheck<'_>>; N]) -> [bool; N] {
    let lanes: Vec<_> = checks.iter().flatten().map(SignatureCheck::lane).collect();
    let mut powers = public_batch(&lanes).into_iter();
    checks.map(|check| {
        check.is_some_and(|c| {
            c.finish(&powers.next().expect("one power per lane"))
                .is_ok()
        })
    })
}

p2drm_codec::record! {
    /// An RSA signature (big-endian integer, held as [`UBig`]).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RsaSignature {
        pub(crate) s: UBig,
    }
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

/// Number of prime factors of a generated `bits`-bit modulus: 2 below 1024
/// bits, 3 from there on (see the module docs). Also the most a decoded
/// key may have.
fn prime_count(bits: usize) -> usize {
    if bits < 1024 {
        2
    } else {
        3
    }
}

/// One prime factor of a private key, in RFC 8017's CRT form.
#[derive(Clone, Debug)]
struct Factor {
    /// The prime rᵢ.
    r: UBig,
    /// Its exponent dᵢ = d mod (rᵢ − 1).
    d: UBig,
    /// Its coefficient tᵢ = (r₁⋯rᵢ₋₁)⁻¹ mod rᵢ in Montgomery form, rᵢ's
    /// width: the Garner step multiply is then a single Montgomery
    /// product. The first factor's is the empty product's inverse, 1, and
    /// never read.
    t: Vec<u64>,
    /// `m mod rᵢ`'s constants: for each earlier factor j, in order, and
    /// each rᵢ-wide chunk k of a digit padded to the widest prime,
    /// `(r₁⋯r_{j−1})·2^(64·wᵢ·k) mod rᵢ` in Montgomery form, wᵢ limbs
    /// each (wᵢ being rᵢ's width). Primes of one width (every generated
    /// key's digits but a wider last prime's) have one chunk a digit.
    radix: Vec<u64>,
    /// Montgomery context mod rᵢ.
    mont: Mont,
    /// Its radix-2^52 constants for the vertical exponentiation
    /// (`R² mod rᵢ` and `−rᵢ⁻¹ mod 2^52`), or `None` for a prime of more
    /// than [`ifma::MAX_MODULUS_BITS`] bits.
    r52: Option<Modulus52>,
}

/// An RSA key pair with multi-prime CRT acceleration.
#[derive(Clone, Debug)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: UBig,
    /// The prime factors in the order they were drawn, at least two.
    factors: Vec<Factor>,
}

impl RsaKeyPair {
    /// Generates a fresh key with modulus of `bits` bits (>= 128), made of
    /// two primes below 1024 bits and three from there on.
    ///
    /// Unit tests use 512; benches sweep 512/1024/2048. The key is a
    /// function of the bytes `rng` yields (pinned by golden-value tests).
    pub fn generate<R: CryptoRng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 128, "modulus below 128 bits is unusable");
        let (primes, n, d) = draw_primes(bits, prime_count(bits), rng);
        let public =
            RsaPublicKey::new(n, UBig::from_u64(PUBLIC_EXPONENT)).expect("fresh modulus is valid");
        RsaKeyPair::from_primes(public, d, primes).expect("fresh factors are consistent")
    }

    /// Builds the CRT form from the public key, `d` and the primes,
    /// checking that they belong together: 2 to [`prime_count`] distinct
    /// odd primes above 1 whose product is the modulus, and
    /// `e·d ≡ 1 (mod rᵢ − 1)` for each. A key that fails any of these
    /// would sign wrong values, and a signature wrong modulo one prime
    /// gives that prime away (gcd(sᵉ − m, n)).
    fn from_primes(public: RsaPublicKey, d: UBig, primes: Vec<UBig>) -> Result<Self, CryptoError> {
        let k = primes.len();
        if !(2..=prime_count(public.modulus().bit_len())).contains(&k) {
            return Err(CryptoError::BadKey("prime count out of range"));
        }
        if primes.iter().any(|r| r.is_even() || r.bit_len() < 2) {
            return Err(CryptoError::BadKey("prime factor even or <= 1"));
        }
        if (1..k).any(|i| primes[..i].contains(&primes[i])) {
            return Err(CryptoError::BadKey("repeated prime factor"));
        }
        if &primes.iter().fold(UBig::one(), |acc, r| &acc * r) != public.modulus() {
            return Err(CryptoError::BadKey("prime factors do not multiply to n"));
        }
        let ed = &d * public.exponent();
        let digit_width = primes.iter().map(UBig::limb_len).max().unwrap_or(0);
        let mut factors: Vec<Factor> = Vec::with_capacity(k);
        for r in primes {
            let r1 = r.sub(&UBig::one());
            if !ed.rem(&r1).is_one() {
                return Err(CryptoError::BadKey("e·d is not 1 mod (r − 1)"));
            }
            let bad = |_| CryptoError::BadKey("prime factor not invertible");
            let mont = Mont::new(&r).map_err(bad)?;
            // r₁⋯r_{j−1} for each earlier factor j, ending at r₁⋯rᵢ₋₁,
            // whose inverse is tᵢ.
            let mut prefix = UBig::one();
            let mut radix = Vec::new();
            let w = r.limb_len();
            for earlier in &factors {
                for chunk in 0..digit_width.div_ceil(w) {
                    radix.extend(mont.to_mont(&prefix.shl(64 * w * chunk)));
                }
                prefix = &prefix * &earlier.r;
            }
            let t = mont.to_mont(&modring::inv_mod(Secret::new(&prefix), &r).map_err(bad)?);
            factors.push(Factor {
                d: d.rem(&r1),
                t,
                radix,
                mont,
                r52: Modulus52::new(&r),
                r,
            });
        }
        Ok(RsaKeyPair { public, d, factors })
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

    /// Raw RSA private operation `x^d mod n` via the CRT: one
    /// exponentiation `x^dᵢ mod rᵢ` per prime, recombined with Garner's
    /// rule. Sign, blind sign and KEM decapsulation all end here; it is
    /// the one-input case of the batch behind
    /// [`RsaKeyPair::sign_batch`], so both take one code path.
    ///
    /// The exponentiations run as lanes of the AVX-512 IFMA vertical
    /// kernel ([`ifma::pow_lanes`]) when the CPU has `avx512f`,
    /// `avx512vl` and `avx512ifma` and every prime has at most
    /// [`ifma::MAX_MODULUS_BITS`] (362) bits: generated keys of up to 724
    /// bits (two primes) and of 1024 to 1086 bits (three), so 512- and
    /// 1024-bit keys. Otherwise, a 2048-bit key for one, each prime runs
    /// its own [`Mont::pow`]. Both paths give the same value, bit for
    /// bit; nothing but the CPU and the primes' sizes picks one.
    pub fn raw_private(&self, x: &UBig) -> UBig {
        self.raw_private_batch(&[x])
            .pop()
            .expect("one result per input")
    }

    /// `x^d mod n` for every `x` of `xs`, in order: every CRT
    /// exponentiation of every input is one lane of the same
    /// [`ifma::pow_lanes`] call (`⌈k·inputs / 8⌉` kernel calls for a
    /// `k`-prime key), or one [`Mont::pow`] each on the per-prime path.
    fn raw_private_batch(&self, xs: &[&UBig]) -> Vec<UBig> {
        let ops = xs.len() as u64;
        let powers = match self.vertical_powers(xs) {
            Some(powers) => {
                crate::counts::count(|c| c.private_lanes += ops);
                powers
            }
            None => {
                crate::counts::count(|c| c.private_scalar += ops);
                xs.iter()
                    .flat_map(|x| self.factors.iter().map(move |f| f.mont.pow(x, &f.d)))
                    .collect()
            }
        };
        powers
            .chunks(self.factors.len())
            .map(|p| self.garner(p))
            .collect()
    }

    /// `x^dᵢ mod rᵢ` for every input and prime, input by input, on the
    /// vertical kernel; or `None` when a prime is too wide for it or the
    /// CPU lacks AVX-512 IFMA.
    fn vertical_powers(&self, xs: &[&UBig]) -> Option<Vec<UBig>> {
        let mut lanes = Vec::with_capacity(xs.len() * self.factors.len());
        for &x in xs {
            for f in &self.factors {
                lanes.push((f.r52.as_ref()?, x, Secret::new(&f.d)));
            }
        }
        ifma::pow_lanes(&lanes)
    }

    /// Garner's recombination of one input's per-prime powers, in factor
    /// order, on fixed-width limbs (module doc).
    fn garner(&self, powers: &[UBig]) -> UBig {
        let width = self.factors.iter().map(|f| f.r.limb_len()).max();
        let width = width.expect("a key has >= 2 factors");
        let n_width = self.public.modulus().limb_len();
        // The digits v₁…v_k, `width` limbs each, three registers of that
        // width and three of n's.
        let k = self.factors.len();
        let mut buf = vec![0u64; (k + 3) * width + 3 * n_width];
        let (digits, rest) = buf.split_at_mut(k * width);
        let (sum, rest) = rest.split_at_mut(width);
        let (chunk, rest) = rest.split_at_mut(width);
        let (product, rest) = rest.split_at_mut(width);
        let (mut m, rest) = rest.split_at_mut(n_width);
        let (mut next, padded) = rest.split_at_mut(n_width);
        for (i, (f, mi)) in self.factors.iter().zip(powers).enumerate() {
            let (r, w) = (f.r.limbs(), f.r.limb_len());
            let (earlier, digit) = digits.split_at_mut(i * width);
            let v = &mut digit[..w];
            // mᵢ < rᵢ, so it has at most w limbs.
            v[..mi.limb_len()].copy_from_slice(mi.limbs());
            if i == 0 {
                continue;
            }
            let (sum, chunk, product) = (&mut sum[..w], &mut chunk[..w], &mut product[..w]);
            let mut scratch = f.mont.alloc_scratch();
            // m mod rᵢ, one product per earlier digit and chunk.
            sum.fill(0);
            let chunks = earlier.chunks(width).flat_map(|digit| digit.chunks(w));
            for (c, part) in f.radix.chunks_exact(w).zip(chunks) {
                chunk.fill(0);
                chunk[..part.len()].copy_from_slice(part);
                f.mont.mont_mul_into(c, chunk, product, &mut scratch);
                add_mod(sum, product, r);
            }
            // vᵢ = tᵢ·(mᵢ − m mod rᵢ) mod rᵢ.
            let borrow = ct::sub_borrow(v, sum);
            ct::add_masked(v, r, borrow.wrapping_neg());
            f.mont.mont_mul_into(&f.t, v, product, &mut scratch);
            v.copy_from_slice(product);
        }
        // m = v₁ + r₁·(v₂ + r₂·(v₃ + …)), from the last digit down, in
        // n's width: each partial sum is below the product of its primes.
        for (f, v) in self.factors.iter().zip(digits.chunks(width)).rev() {
            mul_limbs_into(next, m, f.r.limbs());
            padded[..width].copy_from_slice(v);
            ct::add_masked(next, padded, Secret::new(u64::MAX));
            std::mem::swap(&mut m, &mut next);
        }
        // The result is allocated after the registers, so a signature
        // that is kept does not sit between freed blocks.
        UBig::from_limbs(m.to_vec())
    }

    /// Signs `message` with PKCS#1 v1.5 / SHA-256: the one-message case
    /// of [`RsaKeyPair::sign_batch`].
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        self.sign_batch(&[message])
            .pop()
            .expect("one signature per message")
    }

    /// Signs every message with PKCS#1 v1.5 / SHA-256, in order: the
    /// signatures [`RsaKeyPair::sign`] gives, bit for bit, with every CRT
    /// exponentiation of every message packed into the lanes of the
    /// vertical kernel. A 1024-bit key's eight signatures are 24 lanes,
    /// three full kernel calls, where one signature alone takes a call
    /// of its own ([`ifma`] module doc). Keys the kernel does not take
    /// sign message by message at the cost of [`RsaKeyPair::sign`].
    pub fn sign_batch(&self, messages: &[&[u8]]) -> Vec<RsaSignature> {
        let encoded: Vec<UBig> = messages.iter().map(|m| self.encode(m)).collect();
        let inputs: Vec<&UBig> = encoded.iter().collect();
        self.raw_private_batch(&inputs)
            .into_iter()
            .zip(&encoded)
            .map(|(s, m)| self.signature(s, m))
            .collect()
    }

    /// Signs `message` ([`RsaKeyPair::sign`]) and decapsulates
    /// `ciphertext` ([`kem_decapsulate`]) in one batch: both private
    /// operations are lanes of the same kernel call, and each result is
    /// the one its own call gives, bit for bit. A ciphertext that
    /// decapsulation refuses leaves the signature alone in the batch,
    /// and the refusal is returned beside it.
    pub fn sign_and_decapsulate(
        &self,
        message: &[u8],
        ciphertext: &[u8],
    ) -> (RsaSignature, Result<[u8; 32], CryptoError>) {
        let em = self.encode(message);
        let c = kem_ciphertext(&self.public, ciphertext);
        let mut inputs = vec![&em];
        inputs.extend(c.as_ref().ok());
        let mut powers = self.raw_private_batch(&inputs).into_iter();
        let mut next = || powers.next().expect("one result per input");
        let signature = self.signature(next(), &em);
        let shared = c.map(|_| kem_shared(&self.public, &next()));
        (signature, shared)
    }

    /// The EMSA-PKCS1-v1_5 encoding of `message` as the integer to sign.
    fn encode(&self, message: &[u8]) -> UBig {
        let em = emsa_pkcs1_v15(message, self.public.modulus_len())
            .expect("modulus always large enough for SHA-256 EM");
        UBig::from_bytes_be(&em)
    }

    /// The signature `s = m^d mod n` on the encoded message `m`.
    fn signature(&self, s: UBig, m: &UBig) -> RsaSignature {
        // On the scalar path, apart from the kernels and their call
        // counts.
        let check = || self.public.mont().pow_u64(&s, PUBLIC_EXPONENT);
        debug_assert_eq!(&check(), m, "CRT self-check");
        RsaSignature { s }
    }
}

/// `a = a + b mod r` for `a, b < r` of `r`'s width: add, subtract `r`,
/// and add `r` back under the mask of a borrow the add's carry does not
/// cover. No branch on a limb.
fn add_mod(a: &mut [u64], b: &[u64], r: &[u64]) {
    let carry = ct::add_masked(a, b, Secret::new(u64::MAX));
    let borrow = ct::sub_borrow(a, r);
    ct::add_masked(a, r, (borrow & !carry).wrapping_neg());
}

/// `out = a·b`, the schoolbook product of two little-endian limb arrays,
/// for a product that fits `out`: every limb product below `out`'s width
/// is formed, whatever the values.
fn mul_limbs_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (o, &bj) in out[i..].iter_mut().zip(b) {
            let cur = *o as u128 + ai as u128 * bj as u128 + carry;
            *o = cur as u64;
            carry = cur >> 64;
        }
        if let Some(o) = out.get_mut(i + b.len()) {
            *o = carry as u64;
        }
    }
}

/// Draws `k` distinct primes coprime to [`PUBLIC_EXPONENT`] whose product
/// has exactly `bits` bits: `bits / k` bits each but the last, which takes
/// the rest. A product of the wrong size redraws them all. Returns the
/// primes in draw order, their product `n` and `d = e⁻¹ mod λ(n)`. With
/// `k = 2` these are the draws of the two-prime generator before
/// multi-prime keys, so keys below 1024 bits did not change.
fn draw_primes<R: CryptoRng + ?Sized>(
    bits: usize,
    k: usize,
    rng: &mut R,
) -> (Vec<UBig>, UBig, UBig) {
    let e = UBig::from_u64(PUBLIC_EXPONENT);
    let size = bits / k;
    loop {
        let primes: Vec<UBig> = (0..k)
            .map(|i| {
                let b = if i + 1 < k {
                    size
                } else {
                    bits - size * (k - 1)
                };
                prime::gen_prime_coprime(b, MR_ROUNDS, &e, rng)
            })
            .collect();
        if (1..k).any(|i| primes[..i].contains(&primes[i])) {
            continue;
        }
        let n = primes.iter().fold(UBig::one(), |acc, r| &acc * r);
        if n.bit_len() != bits {
            continue;
        }
        // λ(n) = lcm(r₁ − 1, …, r_k − 1).
        let lambda = primes.iter().fold(UBig::one(), |l, r| {
            let r1 = r.sub(&UBig::one());
            (&l * &r1).div_rem(&l.gcd(&r1)).0
        });
        if let Some(d) = inverse_of_e(&lambda) {
            return (primes, n, d);
        }
    }
}

/// `d = e⁻¹ mod λ` for the prime `e` = [`PUBLIC_EXPONENT`], or `None`
/// when `e` divides `λ`: `d = (1 + λ·k)/e` with `k = −λ⁻¹ mod e`, so
/// `1 + λ·k` is a multiple of `e`, `d·e ≡ 1 (mod λ)`, and `k < e` puts `d`
/// below `λ` — the one inverse there is. One inverse modulo a word, one
/// limb product and one exact division by a word.
fn inverse_of_e(lambda: &UBig) -> Option<UBig> {
    let e = PUBLIC_EXPONENT;
    let l = lambda.rem_u64(e);
    if l == 0 {
        return None;
    }
    // λ⁻¹ mod e is λ^(e−2), e being prime; products stay below e² < 2^34.
    let (mut inv, mut base, mut k) = (1, l, e - 2);
    while k > 0 {
        if k & 1 == 1 {
            inv = inv * base % e;
        }
        base = base * base % e;
        k >>= 1;
    }
    let (d, rest) = lambda.mul_u64(e - inv).add(&UBig::one()).div_rem_u64(e);
    debug_assert_eq!(rest, 0, "1 + λ·k is a multiple of e");
    Some(d)
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
    let secret = KemSecret::draw(pk, rng);
    secret.finish(&pk.raw_public(&secret.z))
}

/// An RSA-KEM secret `z` drawn for a key, waiting for its public-key
/// operation: [`kem_encapsulate`] split around [`public_batch`], so a
/// caller can run that operation together with others of any kind.
pub struct KemSecret<'a> {
    pk: &'a RsaPublicKey,
    z: UBig,
}

impl<'a> KemSecret<'a> {
    /// Draws a uniform `z < n` from `rng`: the generator's only draw of
    /// an encapsulation.
    pub fn draw<R: CryptoRng + ?Sized>(pk: &'a RsaPublicKey, rng: &mut R) -> Self {
        KemSecret {
            pk,
            z: p2drm_bignum::rng::random_below(rng, pk.modulus()),
        }
    }

    /// The public-key operation still to run: `z` under the key.
    pub fn lane(&self) -> (&'a RsaPublicKey, &UBig) {
        (self.pk, &self.z)
    }

    /// The ciphertext and shared secret, given `c = z^e mod n`.
    pub fn finish(&self, c: &UBig) -> (Vec<u8>, [u8; 32]) {
        let shared = kem_shared(self.pk, &self.z);
        (c.to_bytes_be_padded(self.pk.modulus_len()), shared)
    }
}

/// RSA-KEM decapsulation: recovers the shared secret from `ciphertext`.
pub fn kem_decapsulate(kp: &RsaKeyPair, ciphertext: &[u8]) -> Result<[u8; 32], CryptoError> {
    let c = kem_ciphertext(kp.public(), ciphertext)?;
    Ok(kem_shared(kp.public(), &kp.raw_private(&c)))
}

/// A KEM ciphertext as the integer `c` to decapsulate: exactly
/// modulus-length bytes, below the modulus.
fn kem_ciphertext(pk: &RsaPublicKey, ciphertext: &[u8]) -> Result<UBig, CryptoError> {
    if ciphertext.len() != pk.modulus_len() {
        return Err(CryptoError::BadCiphertext);
    }
    let c = UBig::from_bytes_be(ciphertext);
    if c >= pk.n {
        return Err(CryptoError::BadCiphertext);
    }
    Ok(c)
}

/// The shared secret a KEM secret `z` under `pk` carries.
fn kem_shared(pk: &RsaPublicKey, z: &UBig) -> [u8; 32] {
    let z = z.to_bytes_be_padded(pk.modulus_len());
    crate::kdf::derive_key32(b"p2drm-rsa-kem", &z, b"kem")
}

impl Encode for RsaKeyPair {
    /// Serializes the private key as `public, d, k, r₁…r_k`; decoding
    /// derives each dᵢ and tᵢ from these and checks them (see
    /// `RsaKeyPair::from_primes`). **Handle the bytes as secrets.**
    fn encode(&self, w: &mut Writer) {
        self.public.encode(w);
        self.d.encode(w);
        w.put_u8(self.factors.len() as u8);
        for f in &self.factors {
            f.r.encode(w);
        }
    }
}

impl Decode for RsaKeyPair {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        let public = RsaPublicKey::decode(r)?;
        let d = UBig::decode(r)?;
        let k = r.get_u8()?;
        let mut primes = Vec::with_capacity(k.into());
        for _ in 0..k {
            primes.push(UBig::decode(r)?);
        }
        RsaKeyPair::from_primes(public, d, primes)
            .map_err(|_| p2drm_codec::CodecError::BadDiscriminant(2))
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

    /// `inverse_of_e` against its definition: for the even λ from 4 to
    /// 3,998, random even λ of 64 to 2,048 bits and their multiples of e,
    /// `d` is below λ with `d·e ≡ 1 (mod λ)`, or there is none exactly
    /// when e divides λ.
    #[test]
    fn inverse_of_e_is_the_inverse_below_lambda() {
        let e = UBig::from_u64(PUBLIC_EXPONENT);
        let mut rng = test_rng(0x1e);
        let mut lambdas: Vec<UBig> = (2..2000).map(|k| UBig::from_u64(2 * k)).collect();
        for bits in [64, 65, 341, 512, 1023, 1024, 2048] {
            for _ in 0..8 {
                let mut lambda = p2drm_bignum::rng::random_bits(&mut rng, bits - 1).shl(1);
                lambda.set_bit(bits - 1);
                lambdas.push(lambda.mul_u64(PUBLIC_EXPONENT));
                lambdas.push(lambda);
            }
        }
        let mut refused = 0;
        for lambda in &lambdas {
            match inverse_of_e(lambda) {
                Some(d) => {
                    assert!(&d < lambda, "λ = {lambda}");
                    assert!((&d * &e).rem(lambda).is_one(), "λ = {lambda}");
                }
                None => {
                    assert_eq!(lambda.rem_u64(PUBLIC_EXPONENT), 0, "λ = {lambda}");
                    refused += 1;
                }
            }
        }
        assert_eq!(refused, 56);
    }

    /// And one cached 2048-bit key.
    fn keypair2048() -> &'static RsaKeyPair {
        use std::sync::OnceLock;
        static KP: OnceLock<RsaKeyPair> = OnceLock::new();
        KP.get_or_init(|| RsaKeyPair::generate(2048, &mut test_rng(2201)))
    }

    #[test]
    fn generate_shapes() {
        let kp = keypair();
        assert_eq!(kp.public().modulus().bit_len(), 512);
        assert_eq!(kp.public().exponent().to_u64(), Some(PUBLIC_EXPONENT));
        assert_eq!(kp.public().modulus_len(), 64);
    }

    /// Digests of the public key and of the whole key-pair encoding for
    /// two seeds. Re-pinned on purpose when keys from 1024 bits on became
    /// three-prime, which changed both the key a seed yields and the
    /// encoding (`public, d, k, r₁…r_k`). The prime search itself did not
    /// change: `golden_keys_512` and `prime::tests::golden_primes_512`
    /// (in `p2drm-bignum`) still pin it.
    #[test]
    fn golden_keys_1024() {
        let golden = [
            (
                1u64,
                "01c77b87fbd97d4cfc113c90ec64133fc8f2bf77fd088bd13c5a7e9eba825a54",
                "3e7601b7a9da557f9f9bd6fee4250d1912010233a2e772968437b4260e2173d9",
            ),
            (
                2,
                "7207b5b4e9ec9474483cc9d7bef79a1c82d37e77fdb97dd3cb2ef2bd55c3eb54",
                "d8913bfab9f319a74912c04960d365b8fe65f240feb2ff2adaf243398e283734",
            ),
        ];
        for (seed, public, whole) in golden {
            let kp = RsaKeyPair::generate(1024, &mut test_rng(seed));
            assert_eq!(kp.factors.len(), 3);
            let sha = |bytes: Vec<u8>| crate::sha256::sha256_hex(&bytes);
            assert_eq!(
                sha(p2drm_codec::to_bytes(kp.public())),
                public,
                "seed={seed}"
            );
            assert_eq!(sha(p2drm_codec::to_bytes(&kp)), whole, "seed={seed}");
        }
    }

    /// The prime work of one seeded RSA-1024 key, three searches at 341
    /// and 342 bits that meet 30 sieve survivors. On a CPU with AVX-512
    /// IFMA the survivors take the base-2 Fermat check eight to a kernel
    /// call (six calls, 48 lanes: each search's last call runs past its
    /// prime), five pass (two primes sat behind the one returned in
    /// their call), and the scalar test runs only on the three primes
    /// returned, each of which takes one more call for its four
    /// random-base rounds. Without IFMA every survivor runs the scalar
    /// test, as it did before the lanes. The sieve steps over 294
    /// candidates to reach the three primes, and over 499 when the last
    /// batch of each search is filled; the three Lucas tests, which run
    /// on the primes alone either way, make 3,038 products.
    #[test]
    fn keygen_checks_its_survivors_in_lanes() {
        let before = p2drm_bignum::counts::counts();
        let kp = RsaKeyPair::generate(1024, &mut test_rng(1));
        let done = p2drm_bignum::counts::counts() - before;
        assert_eq!(kp.factors.len(), 3);
        // (fermat_lanes, fermat_passed, kernel_calls, scalar_tests,
        // sieve_steps, lucas_products)
        let want = if ifma::available() {
            (48, 5, 6 + 3, 3, 499, 3038)
        } else {
            eprintln!("this CPU has no AVX-512 IFMA: the scalar search's counts are checked");
            (0, 0, 0, 30, 294, 3038)
        };
        let got = (
            done.fermat_lanes,
            done.fermat_passed,
            done.kernel_calls,
            done.scalar_tests,
            done.sieve_steps,
            done.lucas_products,
        );
        assert_eq!(got, want);
    }

    /// Digests of the public key, the private exponent and one signature
    /// for two 512-bit seeds, and the generator's next bytes after each,
    /// captured before keys from 1024 bits on became three-prime. Below
    /// 1024 bits a key is still two primes drawn exactly as before. Only
    /// the public API is read, so the test holds whatever the private
    /// key's shape or encoding.
    #[test]
    fn golden_keys_512() {
        use rand::RngCore;
        let golden = [
            (
                1u64,
                "bbd1ab0d25eedbb6c3d3494e1b5ffee97aacd8d47f293675a4856dfe24cc3c98",
                "2ac142f633fb5d1da8d751ed41a1643df65487025480b910b741278138b3b595",
                "f8014a1a59b967c2ddb0e8563cf180023b7c4f3c18c10ae05912407297bd947e",
                [250u8, 251, 50, 178, 146, 203, 217, 243],
            ),
            (
                2,
                "5d7d22363d55cdb4dbd605416743347ca6054b47d74d1b0a0186c01db8e0253c",
                "810870b3948ee24d70e75b52812b117bde0cbc51942746b31565fc27aeb4a3ce",
                "0dd03152a370d0183cf469bd455906344cbaca6477256d781d3870ce867d2273",
                [139, 154, 238, 19, 72, 180, 222, 61],
            ),
        ];
        for (seed, public, d, sig, next) in golden {
            let mut rng = test_rng(seed);
            let kp = RsaKeyPair::generate(512, &mut rng);
            let sha = |bytes: Vec<u8>| crate::sha256::sha256_hex(&bytes);
            assert_eq!(
                sha(p2drm_codec::to_bytes(kp.public())),
                public,
                "seed={seed}"
            );
            assert_eq!(sha(kp.private_exponent().to_bytes_be()), d, "seed={seed}");
            assert_eq!(sha(kp.sign(b"golden").to_bytes()), sig, "seed={seed}");
            let mut after = [0u8; 8];
            RngCore::fill_bytes(&mut rng, &mut after);
            assert_eq!(after, next, "RNG state after seed={seed}");
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

    /// The CRT path against the division-based `UBig::pow_mod` with the
    /// full exponent, at two primes (512 bits) and three (1024, 2048).
    #[test]
    fn crt_matches_plain_pow_mod() {
        for (kp, k) in [(&keypair(), 2), (keypair1024(), 3), (keypair2048(), 3)] {
            let n = kp.public().modulus();
            assert_eq!(kp.factors.len(), k, "{} bits", n.bit_len());
            let top = n.sub(&UBig::one());
            let wide = fdh(b"full width", kp.public().modulus_len());
            for x in [UBig::from_u64(9_876_543_210), UBig::one(), top, wide] {
                let plain = x.pow_mod(kp.private_exponent(), n).unwrap();
                assert_eq!(kp.raw_private(&x), plain, "{} bits", n.bit_len());
            }
        }
    }

    /// Garner's recombination in `UBig` arithmetic, the reference for
    /// the limb one: from `m = m₁`, each further prime adds
    /// `(r₁⋯rᵢ₋₁)·(tᵢ·(mᵢ − m) mod rᵢ)`.
    fn garner_oracle(kp: &RsaKeyPair, powers: &[UBig]) -> UBig {
        let mut m = powers[0].clone();
        let mut radix = kp.factors[0].r.clone();
        for (f, mi) in kp.factors[1..].iter().zip(&powers[1..]) {
            let t = modring::inv_mod(Secret::new(&radix), &f.r).unwrap();
            let h = (&t * &modring::sub_mod(mi, &m, &f.r)).rem(&f.r);
            m = &m + &(&radix * &h);
            radix = &radix * &f.r;
        }
        m
    }

    /// The limb recombination against the `UBig` one, on random residues
    /// and on 0, 1 and rᵢ − 1: two-prime keys (512 bits; 257 bits, whose
    /// primes are 2 and 3 limbs wide, in both orders) and three-prime keys
    /// (1024; 2048, off the fixed-width kernels; 1153, whose last prime
    /// is a limb wider, with that prime first and in the middle too).
    #[test]
    fn garner_on_limbs_matches_the_ubig_recombination() {
        let reordered = |kp: &RsaKeyPair, order: &[usize]| {
            let primes = order.iter().map(|&i| kp.factors[i].r.clone()).collect();
            RsaKeyPair::from_primes(kp.public().clone(), kp.d.clone(), primes).unwrap()
        };
        let kp257 = RsaKeyPair::generate(257, &mut test_rng(257));
        let kp1153 = RsaKeyPair::generate(1153, &mut test_rng(1153));
        let widths = |kp: &RsaKeyPair| {
            kp.factors
                .iter()
                .map(|f| f.r.limb_len())
                .collect::<Vec<_>>()
        };
        assert_eq!(widths(&kp257), [2, 3]);
        assert_eq!(widths(&kp1153), [6, 6, 7]);
        let keys = [
            keypair(),
            reordered(&kp257, &[1, 0]),
            kp257,
            keypair1024().clone(),
            keypair2048().clone(),
            reordered(&kp1153, &[2, 0, 1]),
            reordered(&kp1153, &[0, 2, 1]),
            kp1153,
        ];
        let mut rng = test_rng(421);
        for kp in &keys {
            let bits = kp.public().modulus().bit_len();
            for round in 0..40 {
                let powers: Vec<UBig> = kp
                    .factors
                    .iter()
                    .map(|f| match round {
                        0 => UBig::zero(),
                        1 => UBig::one(),
                        2 => f.r.sub(&UBig::one()),
                        _ => p2drm_bignum::rng::random_below(&mut rng, &f.r),
                    })
                    .collect();
                let m = kp.garner(&powers);
                assert_eq!(m, garner_oracle(kp, &powers), "{bits} bits, round {round}");
                assert!(&m < kp.public().modulus());
                for (f, mi) in kp.factors.iter().zip(&powers) {
                    assert_eq!(&m.rem(&f.r), mi, "{bits} bits, round {round}");
                }
            }
        }
    }

    /// `raw_private` takes the vertical path exactly when the CPU has
    /// AVX-512 IFMA and every prime has at most 362 bits, with the
    /// per-prime `Mont::pow` values either way: 512- and 1024-bit keys
    /// take it; a 725-bit key (a 362-bit and a 363-bit prime) and a
    /// 2048-bit key take the fallback and still sign correctly.
    #[test]
    fn primes_above_362_bits_take_the_per_prime_path() {
        #[cfg(target_arch = "x86_64")]
        let ifma = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma");
        #[cfg(not(target_arch = "x86_64"))]
        let ifma = false;
        if !ifma {
            eprintln!("this CPU has no AVX-512 IFMA: the vertical half is skipped");
        }
        let mixed = RsaKeyPair::generate(725, &mut test_rng(725));
        let widths = |kp: &RsaKeyPair| kp.factors.iter().map(|f| f.r.bit_len()).collect::<Vec<_>>();
        assert_eq!(widths(&mixed), [362, 363]);
        for (kp, narrow) in [
            (&keypair(), true),
            (keypair1024(), true),
            (&mixed, false),
            (keypair2048(), false),
        ] {
            let bits = kp.public().modulus().bit_len();
            let x = fdh(b"dispatch", kp.public().modulus_len());
            let per_prime: Vec<UBig> = kp.factors.iter().map(|f| f.mont.pow(&x, &f.d)).collect();
            match kp.vertical_powers(&[&x]) {
                Some(powers) => {
                    assert!(narrow && ifma, "{bits} bits took the vertical path");
                    assert_eq!(powers, per_prime, "{bits} bits");
                }
                None => assert!(!(narrow && ifma), "{bits} bits missed the vertical path"),
            }
            let plain = x
                .pow_mod(kp.private_exponent(), kp.public().modulus())
                .unwrap();
            assert_eq!(kp.raw_private(&x), plain, "{bits} bits");
            let sig = kp.sign(b"dispatch");
            kp.public().verify(b"dispatch", &sig).unwrap();
        }
    }

    /// `sign_batch` of 1 to 9 messages gives `sign` of each, in order:
    /// at 512 bits (two lanes a message), at 1024 (three, so 9 messages
    /// are 27 lanes in four kernel calls) and at 2048 on the per-prime
    /// path. Every signature verifies.
    #[test]
    fn sign_batch_equals_sign_of_each_message() {
        let kp512 = keypair();
        let messages: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 1 + 13 * i as usize]).collect();
        for (kp, counts) in [
            (&kp512, 1..=9),
            (keypair1024(), 1..=9),
            (keypair2048(), 1..=3),
        ] {
            let bits = kp.public().modulus().bit_len();
            for count in counts {
                let batch: Vec<&[u8]> = messages[..count].iter().map(Vec::as_slice).collect();
                let before = p2drm_bignum::counts::counts().kernel_calls;
                let sigs = kp.sign_batch(&batch);
                let calls = p2drm_bignum::counts::counts().kernel_calls - before;
                let lanes = (count * kp.factors.len()) as u64;
                assert!(
                    calls == 0 || (bits <= 1024 && calls == lanes.div_ceil(ifma::LANES as u64)),
                    "{bits} bits, {count} messages: {calls} kernel calls"
                );
                assert_eq!(sigs.len(), count);
                for (message, sig) in batch.iter().zip(&sigs) {
                    assert_eq!(sig, &kp.sign(message), "{bits} bits, {count} messages");
                    kp.public().verify(message, sig).unwrap();
                }
            }
        }
        assert!(kp512.sign_batch(&[]).is_empty());
    }

    /// `public_batch` gives the scalar `Mont::pow_u64` of each input, in
    /// order, at 512 bits (the scalar path: too narrow for a 20-limb
    /// lane), at 1024 (lanes of the vertical kernel, eight to a call)
    /// and at 2048 (too wide: the scalar fallback), and for the three
    /// sizes mixed in one batch, where only the 1024-bit inputs take
    /// lanes. Inputs include 0, 1, n − 1 and values above n.
    #[test]
    fn public_batch_equals_scalar_pow_of_each_input() {
        if !ifma::available() {
            eprintln!("this CPU has no AVX-512 IFMA: every input takes the scalar path");
        }
        let kp512 = keypair();
        let keys = [
            kp512.public(),
            keypair1024().public(),
            keypair2048().public(),
        ];
        let input = |pk: &RsaPublicKey, i: usize| {
            let n = pk.modulus();
            match i % 5 {
                0 => UBig::zero(),
                1 => UBig::one(),
                2 => n.sub(&UBig::one()),
                3 => n.add(&UBig::from_u64(i as u64)),
                _ => fdh(&[i as u8; 3], pk.modulus_len()),
            }
        };
        let mut mixed: Vec<(&RsaPublicKey, UBig)> = Vec::new();
        for (k, &pk) in keys.iter().enumerate() {
            let bits = pk.modulus().bit_len();
            for count in 1..=17 {
                let xs: Vec<UBig> = (0..count).map(|i| input(pk, i)).collect();
                let batch: Vec<(&RsaPublicKey, &UBig)> = xs.iter().map(|x| (pk, x)).collect();
                let before = p2drm_bignum::counts::counts().kernel_calls;
                let got = public_batch(&batch);
                let calls = p2drm_bignum::counts::counts().kernel_calls - before;
                let vertical = bits == 1024 && ifma::available();
                let want = if vertical {
                    count.div_ceil(ifma::LANES)
                } else {
                    0
                };
                assert_eq!(calls, want as u64, "{bits} bits, {count} inputs");
                for (x, y) in xs.iter().zip(&got) {
                    let scalar = pk.mont().pow_u64(x, PUBLIC_EXPONENT);
                    assert_eq!(y, &scalar, "{bits} bits, {count} inputs");
                }
            }
            for i in 0..4 {
                mixed.push((pk, input(pk, 3 * i + k)));
            }
        }
        for x in [UBig::from_u64(2), fdh(b"oracle", 128)] {
            let pk = keys[1];
            let plain = x.pow_mod(pk.exponent(), pk.modulus()).unwrap();
            assert_eq!(public_batch(&[(pk, &x), (pk, &x)]), [plain.clone(), plain]);
        }
        mixed.rotate_left(5);
        let batch: Vec<(&RsaPublicKey, &UBig)> = mixed.iter().map(|(pk, x)| (*pk, x)).collect();
        let before = p2drm_bignum::counts::counts().kernel_calls;
        let got = public_batch(&batch);
        let calls = p2drm_bignum::counts::counts().kernel_calls - before;
        assert_eq!(
            calls,
            u64::from(ifma::available()),
            "four 1024-bit lanes, one call"
        );
        for ((pk, x), y) in mixed.iter().zip(&got) {
            assert_eq!(y, &pk.mont().pow_u64(x, PUBLIC_EXPONENT));
            assert_eq!(y, &pk.raw_public(x));
        }
        assert!(public_batch(&[]).is_empty());
    }

    /// A public key is F4's or nothing: `new` and decoding refuse every
    /// other exponent (1, 3, 65539 and a 1024-bit value), for a public
    /// key alone and inside a key pair's encoding.
    #[test]
    fn public_exponents_other_than_f4_are_refused() {
        let kp = keypair();
        let n = kp.public().modulus();
        let encoded = |e: &UBig| {
            let mut w = Writer::new();
            w.put_bytes(&n.to_bytes_be());
            w.put_bytes(&e.to_bytes_be());
            w.into_bytes()
        };
        let f4 = UBig::from_u64(PUBLIC_EXPONENT);
        assert_eq!(encoded(&f4), p2drm_codec::to_bytes(kp.public()));
        let wide = UBig::one().shl(1023).add(&f4);
        for e in [UBig::one(), UBig::from_u64(3), UBig::from_u64(65539), wide] {
            assert!(
                matches!(
                    RsaPublicKey::new(n.clone(), e.clone()),
                    Err(CryptoError::BadKey(_))
                ),
                "e = {e}"
            );
            let bytes = encoded(&e);
            assert!(
                p2drm_codec::from_bytes::<RsaPublicKey>(&bytes).is_err(),
                "e = {e}"
            );
            let pair = p2drm_codec::to_bytes(&kp);
            let pair = [&bytes[..], &pair[bytes.len()..]].concat();
            assert!(
                p2drm_codec::from_bytes::<RsaKeyPair>(&pair).is_err(),
                "e = {e}"
            );
        }
    }

    #[test]
    fn keypair_codec_roundtrip_preserves_function() {
        for kp in [&keypair(), keypair1024()] {
            let bytes = p2drm_codec::to_bytes(kp);
            let back: RsaKeyPair = p2drm_codec::from_bytes(&bytes).unwrap();
            assert_eq!(back.public(), kp.public());
            assert_eq!(back.factors.len(), kp.factors.len());
            assert_eq!(p2drm_codec::to_bytes(&back), bytes);
            // The reloaded key signs identically and decrypts what the
            // original key's public half sealed.
            let sig = back.sign(b"reload me");
            assert_eq!(sig, kp.sign(b"reload me"));
            assert!(kp.public().verify(b"reload me", &sig).is_ok());
            let (ct, shared) = kem_encapsulate(kp.public(), &mut test_rng(99));
            assert_eq!(kem_decapsulate(&back, &ct).unwrap(), shared);
        }
    }

    /// The encoding of a private key from its parts, `k` as given.
    fn key_bytes(public: &RsaPublicKey, d: &UBig, primes: &[UBig]) -> Vec<u8> {
        let mut w = p2drm_codec::Writer::new();
        public.encode(&mut w);
        w.put_bytes(&d.to_bytes_be());
        w.put_u8(primes.len() as u8);
        for r in primes {
            w.put_bytes(&r.to_bytes_be());
        }
        w.into_bytes()
    }

    /// Asserts that decoding the parts fails, and that the check that
    /// refuses them is the one named by `why`.
    fn assert_refused(public: &RsaPublicKey, d: &UBig, primes: &[UBig], why: &str) {
        let res: p2drm_codec::Result<RsaKeyPair> =
            p2drm_codec::from_bytes(&key_bytes(public, d, primes));
        assert!(res.is_err(), "{why}: decoded");
        match RsaKeyPair::from_primes(public.clone(), d.clone(), primes.to_vec()) {
            Err(CryptoError::BadKey(msg)) => assert_eq!(msg, why),
            other => panic!("{why}: {other:?}"),
        }
    }

    /// A decoded key's CRT parts are derived, never read, and every way
    /// the stored parts can disagree with each other or with the public
    /// key is refused — at two primes (512 bits) and at three (1024).
    #[test]
    fn keypair_decode_rejects_inconsistent_factors() {
        let one = UBig::one();
        let two = UBig::from_u64(2);
        for (kp, other) in [
            (keypair(), RsaKeyPair::generate(512, &mut test_rng(98))),
            (
                keypair1024().clone(),
                RsaKeyPair::generate(1024, &mut test_rng(1102)),
            ),
        ] {
            let (public, d) = (kp.public(), kp.private_exponent());
            let primes: Vec<UBig> = kp.factors.iter().map(|f| f.r.clone()).collect();
            let k = primes.len();
            let bits = public.modulus().bit_len();
            assert!(p2drm_codec::from_bytes::<RsaKeyPair>(&key_bytes(public, d, &primes)).is_ok());

            // k outside 2..=prime_count(bits): one factor, none, and a
            // genuine key of one prime more than the cap.
            let count = "prime count out of range";
            assert_refused(public, d, &[public.modulus().clone()], count);
            assert_refused(public, d, &[], count);
            let (more, n, d_more) = draw_primes(bits, k + 1, &mut test_rng(97));
            let wide = RsaPublicKey::new(n, public.exponent().clone()).unwrap();
            assert_refused(&wide, &d_more, &more, count);

            // An even factor, and a factor of 1 (the product still n).
            let mut even = primes.clone();
            even[0] = &even[0] * &two;
            assert_refused(public, d, &even, "prime factor even or <= 1");
            let mut unit = primes.clone();
            let last = unit.pop().unwrap();
            unit[0] = &unit[0] * &last;
            unit.insert(0, one.clone());
            assert_refused(public, d, &unit, "prime factor even or <= 1");

            // A repeated factor.
            let mut repeated = primes.clone();
            repeated[k - 1] = repeated[0].clone();
            assert_refused(public, d, &repeated, "repeated prime factor");

            // The other key's factors under this public key.
            let others: Vec<UBig> = other.factors.iter().map(|f| f.r.clone()).collect();
            assert_refused(public, d, &others, "prime factors do not multiply to n");

            // d off by one, and d right mod r₁ − 1 but not mod the others.
            let ed = "e·d is not 1 mod (r − 1)";
            assert_refused(public, &d.add(&one), &primes, ed);
            let shifted = d.add(&primes[0].sub(&one));
            assert_refused(public, &shifted, &primes, ed);
            // d + λ is the same key, and decodes.
            let lambda = primes.iter().fold(one.clone(), |l, r| {
                let r1 = r.sub(&one);
                (&l * &r1).div_rem(&l.gcd(&r1)).0
            });
            let same = d.add(&lambda);
            let back: RsaKeyPair =
                p2drm_codec::from_bytes(&key_bytes(public, &same, &primes)).unwrap();
            assert_eq!(back.sign(b"m"), kp.sign(b"m"));
        }
    }

    #[test]
    fn public_key_codec_roundtrip() {
        let kp = keypair();
        let bytes = p2drm_codec::to_bytes(kp.public());
        let back: RsaPublicKey = p2drm_codec::from_bytes(&bytes).unwrap();
        assert_eq!(&back, kp.public());
        assert_eq!(back.fingerprint(), kp.public().fingerprint());
    }

    /// A key's constants — the Montgomery context, or the vertical
    /// kernel's where `public_batch` runs the key there — are built on
    /// first use. A decoded key that has never exponentiated, and a
    /// clone taken of it while still cold, answer exactly like a context
    /// built eagerly from the same modulus — and `new` still refuses up
    /// front every modulus the deferred `Mont::new` could fail on.
    #[test]
    fn lazily_built_context_answers_like_an_eager_one() {
        let keys = [
            keypair(),
            keypair1024().clone(),
            RsaKeyPair::generate(1024, &mut test_rng(1)),
        ];
        for kp in keys {
            let n = kp.public().modulus();
            // The constants of the path `public_batch` takes with the
            // key: the vertical kernel's, or the Montgomery context.
            let vertical = VERTICAL_PUBLIC_BITS.contains(&n.bit_len()) && ifma::available();
            let built = |k: &RsaPublicKey| {
                if vertical {
                    k.r52.get().is_some() && k.mont.get().is_none()
                } else {
                    k.mont.get().is_some() && k.r52.get().is_none()
                }
            };
            let cold = |k: &RsaPublicKey| k.mont.get().is_none() && k.r52.get().is_none();
            let decoded: RsaPublicKey =
                p2drm_codec::from_bytes(&p2drm_codec::to_bytes(kp.public())).unwrap();
            assert!(cold(&decoded), "decoding builds no context");
            let cold_clone = decoded.clone();
            assert_eq!(decoded, cold_clone);
            assert_eq!(decoded.fingerprint(), kp.public().fingerprint());
            assert!(cold(&decoded), "nor does fingerprinting");

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
            assert!(built(&decoded), "first use built it");
            assert!(built(&decoded.clone()), "a warm clone carries it");

            let sig = kp.sign(b"signed before the clone ever exponentiated");
            assert!(cold(&cold_clone));
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
