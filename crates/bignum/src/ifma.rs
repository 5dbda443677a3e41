//! Vertical modular exponentiation on AVX-512 IFMA: up to eight
//! independent exponentiations per kernel call, one per 64-bit lane.
//!
//! Three entries, each an instance of one kernel written once:
//!
//! * [`pow_lanes`] computes `xₖ^eₖ mod nₖ` for any number of lanes, each
//!   an odd modulus of at most [`MAX_MODULUS_BITS`] (362) bits with its
//!   own base and secret exponent: the CRT exponentiations of one or many
//!   RSA private-key operations, whose moduli are the key's primes. Seven
//!   limbs, `R = 2^364`, fixed 4-bit windows.
//! * [`pow_public_lanes`] computes `xₖ^e mod nₖ` for any number of lanes
//!   under one public exponent `e`, each an odd modulus of at most
//!   [`MAX_PUBLIC_MODULUS_BITS`] (1038) bits: the public-key operations
//!   (signature checks, KEM encapsulations) of many RSA-1024 requests.
//!   Twenty limbs, `R = 2^1040`, plain square-and-multiply. Twenty limbs
//!   are also the width of an RSA-2048 key's 1024-bit CRT primes.
//! * [`comb_lanes`] computes `bₖ^eₖ mod nₖ` for fixed bases `bₖ` through
//!   their [`CombTable`]s, each exponent secret: one product per 4-bit
//!   digit, the entry picked by [`ct_lookup`](crate::ct::ct_lookup)'s
//!   masked scan, no squarings. Twenty limbs, as the public entry.
//!
//! Four callers: `RsaKeyPair::raw_private` and `sign_batch` in
//! `p2drm-crypto` (the CRT exponentiations, secret entry),
//! `rsa::public_batch` there (public entry), the prime search
//! ([`prime::gen_prime`](crate::prime::gen_prime), secret entry), which
//! puts eight sieve survivors at a time through the base-2 Fermat check
//! `2^(n−1) mod n`, one per lane, and a found prime's random-base
//! Miller–Rabin rounds through one call, and the ElGamal escrow
//! (`p2drm-crypto`'s `elgamal` module, comb entry), whose encryption's
//! `g^y` and `h^y` are the two lanes of one call.
//!
//! # Representation
//!
//! A residue is held in radix 2^52, seven or twenty limbs. The layout is
//! *vertical* (Drucker–Gueron, "Fast modular squaring with AVX512IFMA",
//! ITNG 2019; Intel's multi-buffer `mbx_rsa_private_crt_mb8`): register
//! `j` holds limb `j` of every lane, so `vpmadd52luq` / `vpmadd52huq`
//! form the low and high 52 bits of one limb product for eight lanes per
//! instruction and add them to 64-bit lanes with twelve bits of
//! headroom. Every lane has its own modulus, base and exponent; no
//! instruction moves data between lanes.
//!
//! The product is Montgomery's with `R = 2^(52·limbs)` in its *almost*
//! form (Gueron–Krasnov): no subtraction at its end, so it returns a
//! value below `2n` rather than below `n`. Operands below `2n` give a
//! result below `(4n²/R + n)`, which is below `2n` when `4n < R`: hence
//! at most 362 bits at seven limbs and 1038 at twenty. Between products
//! a value stays below `2n`; leaving Montgomery form gives a value of at
//! most `n`, and one subtraction without a branch makes it canonical.
//!
//! The secret-exponent entry is [`Mont::pow`](crate::Mont::pow)'s
//! algorithm (`mont` module doc) eight lanes wide: fixed 4-bit windows
//! over the longest exponent of the call, every lane squaring and
//! multiplying at every step, a lane with a shorter exponent starting
//! on leading zero digits, and each lane picking its window entry by a
//! masked scan over all 16 table entries, with no exponent-derived
//! index and no skipped multiply on a zero digit. So a secret exponent
//! leaks the same (its bit length, and the call's) on every CPU. A
//! lane's exponent is a [`Secret`]; its window digits enter a vector
//! register through `declassify`, and that register and the compare
//! masks made from it only pick table entries by masked moves, never a
//! branch ([`crate::ct`] module doc). The public-exponent entry needs
//! none of this: every lane shares the one public `e`, so it squares
//! once per bit of `e` and multiplies by the base on its set bits, with
//! no window table — 19 products for `e = 65537` (16 squarings, one
//! multiply and the two conversions), where the windowed entry would
//! take 37.
//!
//! # Lane packing
//!
//! Every entry packs its lanes eight to a call in 512-bit registers;
//! a call of at most four lanes (a lone RSA-1024 signature has three)
//! runs the same code on 256-bit registers, where a product issues
//! half the multiply-adds and the CPU can run two of them per cycle.
//! Unused lanes of a call take a zero base under the call's first
//! modulus (and the exponent 0 in the secret entry) and are dropped.
//! For the secret entry, on a 2-vCPU Sapphire Rapids VM (Xeon model
//! 207), a scratch kernel of this layout (341-bit primes,
//! full-length exponents, 40 rounds × 50 calls interleaved with the
//! kernel it replaced, every lane checked against `Mont::pow`) sized
//! the layout:
//!
//! | kernel | µs per call | µs per exponentiation |
//! |---|---|---|
//! | one residue per register, 3 moduli interleaved (one RSA-1024 signature) | 49.9–51.0 | 16.6–17.0 |
//! | vertical, 8 lanes in zmm | 48.7–48.8 | 6.1 |
//! | vertical, 4 lanes in ymm | 42.0–42.2 | 10.5 |
//! | [`Mont::pow`](crate::Mont::pow) on the ADX product | 33.7–33.8 | 33.7 |
//!
//! and this kernel, timed in one process against the replaced one (the
//! same RSA-1024 key, signatures asserted equal, three runs), signs a
//! lone message in 39.7–45.0 µs against 48.9–49.8, and costs 26.9–27.7,
//! 22.9–23.2 and 22.2–22.4 µs per signature in batches of 2, 5 and 8
//! (`RsaKeyPair::sign_batch` in `p2drm-crypto`).
//!
//! The replaced kernel held one residue in the low seven lanes of a
//! register and interleaved two or three moduli to hide the latency of
//! each product's dependent rounds. It needed a lane permute per round
//! for the multiplier digit, a two-round carry normalisation across
//! lanes and a permute-based window select, and it could never hold
//! more than one private-key operation: more moduli in that layout
//! gained at most 6% past three. The vertical layout needs none of
//! these: its carries move within a lane, independent lanes hide the
//! latency by themselves, and its 4-lane call covers the lone
//! signature at the old kernel's cost or less.
//!
//! # The public entry
//!
//! Timed in one process on the same 2-vCPU Sapphire Rapids VM, against
//! [`Mont::pow_u64`](crate::Mont::pow_u64) (the scalar public path, on
//! the 16-limb CIOS product at 1024 bits): odd random moduli, bases
//! below them, `e = 65537`, 30 rounds each of 200 scalar operations and
//! 100 kernel calls per lane count, interleaved, every lane checked
//! against the scalar result; medians of the rounds, the range over
//! three runs:
//!
//! | modulus | scalar, µs per op | 1 lane, µs per call | 2 lanes | 4 lanes | 8 lanes |
//! |---|---|---|---|---|---|
//! | 512 bits | 3.1–4.3 | 9.6–11.6 | 10.3–11.9 (5.2–6.0 per op) | 10.9–12.7 (2.7–3.2 per op) | 16.5–19.9 (2.1–2.5 per op) |
//! | 1024 bits | 12.9–14.7 | 9.8–11.4 | 10.2–11.7 (5.1–5.9 per op) | 10.6–12.5 (2.7–3.1 per op) | 18.2–19.6 (2.3–2.5 per op) |
//!
//! A lane costs twenty limbs whatever its modulus, where the scalar
//! path pays for the limbs the modulus has. The same runs between the
//! two sizes, one lane and two against the scalar path (three runs):
//!
//! | modulus | scalar, µs per op | 1 lane, µs per call | 2 lanes, µs per op |
//! |---|---|---|---|
//! | 640 bits (10 limbs) | 4.0–4.4 | 7.5–8.0 | 3.9–4.0 |
//! | 768 bits (12 limbs) | 5.3–6.7 | 7.5–8.2 | 3.9–4.3 |
//! | 832 bits (13 limbs) | 6.1–11.8 | 7.5–9.6 | 3.8–5.1 |
//! | 896 bits (14 limbs) | 8.5–13.0 | 8.3–9.9 | 4.4–5.1 |
//! | 960 bits (15 limbs) | 8.6–13.8 | 8.2–9.2 | 4.3–4.9 |
//!
//! The constants of a fresh 1024-bit modulus cost 2.5–2.6 µs
//! ([`PublicModulus52::new`]) against 3.0 µs for a
//! [`Mont`](crate::Mont) context when this table was made; both now take
//! `R² mod n` from one-word quotient estimates (`mont::pow2_mod`) instead
//! of a long division: ×0.61–0.69 at 1024 bits and ×0.25–0.28 at 341
//! and 362 for these constants, ×0.55–0.68 and ×0.21–0.24 for a
//! context, in one process. So from 14 limbs of 64 bits one lane
//! alone costs no more than the scalar path (at 1024 bits 0–25% less),
//! and eight cost 2.3–2.5 µs per operation at 1024 bits, about a sixth
//! of it; at 512 bits a lane is under half full and the kernel loses
//! below four lanes. Hence the caller's rule (`rsa::public_batch` in
//! `p2drm-crypto`): moduli of 833 to 1038 bits take this entry at any
//! lane count, smaller ones keep the scalar path. Two lanes would win
//! from 640 bits, but no key of the system has between 513 and 1023
//! bits, so the rule does not count lanes.
//! The secret-exponent entry was timed beside its previous, 7-limb-only
//! form in the same process: unchanged (35.2–36.3 against 35.3–35.9 µs
//! for a 3-lane call, 47.7–49.9 against 47.5–49.2 for 8 lanes).
//!
//! # Dispatch
//!
//! The kernel runs when `is_x86_feature_detected!` reports `avx512f`,
//! `avx512vl` and `avx512ifma` ([`available`]; std caches the answer,
//! so it is asked on every call); otherwise every entry returns `None`
//! and the caller uses [`Mont::pow`](crate::Mont::pow) (the same
//! algorithm, one residue at a time),
//! [`Mont::pow_u64`](crate::Mont::pow_u64) per modulus or the scalar
//! comb, the references they are tested against. Only the CPU, the lane
//! count and the modulus size decide; there is no switch, cargo feature
//! or setting. The kernel is written as safe `#[target_feature]`
//! functions over register values (no pointer intrinsics); calling it
//! after detection is this module's one `unsafe` operation
//! (`pow_vertical`), which every entry goes through.
//!
//! # The comb entry
//!
//! A [`CombTable`] holds, for each 4-bit digit position of the
//! exponent, the 16 powers of the base at that position in Montgomery
//! form for `R = 2^1040`: 20 limbs an entry, 640 KiB for a MODP-1024
//! base (the scalar comb's 16-limb entries take 512 KiB). A call starts
//! every lane at 1 and takes one product per digit position, zero
//! digits included; before each, every used lane copies its digit's
//! entry out of its table by [`ct_lookup`](crate::ct::ct_lookup), which
//! reads all 16, and the entries are transposed into the registers. The
//! table is built on the scalar product ([`CombTable::new`]). Timed in
//! one process against the scalar comb (MODP-1024, 30 rounds of 100
//! encryptions alternated, ciphertexts asserted equal; three runs on a
//! 2-vCPU Xeon model 207, whose speed varied between runs), a whole
//! ElGamal encryption, the pair as one two-lane call on 256-bit
//! registers, costs 126–196 µs against 248–384 (×0.49–0.51). Holding
//! the tables in 64-bit limbs (512 KiB) and changing radix after each
//! scan was sized too: ×1.10–1.16 per encryption against these tables.

use crate::ct::Secret;
use crate::mont::{inv64, pow2_mod, reduce_once, WINDOW};
use crate::ubig::UBig;

/// Limbs of a residue of [`pow_lanes`]: 7 × 52 = 364 bits.
const PRIME_LIMBS: usize = 7;

/// Limbs of a residue of [`pow_public_lanes`]: 20 × 52 = 1040 bits.
pub const PUBLIC_LIMBS: usize = 20;

/// Largest modulus [`pow_lanes`] takes, in bits: `4n < R = 2^364`.
pub const MAX_MODULUS_BITS: usize = Modulus52::MAX_BITS;

/// Largest modulus [`pow_public_lanes`] takes, in bits:
/// `4n < R = 2^1040`.
pub const MAX_PUBLIC_MODULUS_BITS: usize = PublicModulus52::MAX_BITS;

/// Lanes one kernel call holds: one per 64-bit lane of a 512-bit
/// register.
pub const LANES: usize = 8;

/// Lanes of the narrow call, one per 64-bit lane of a 256-bit register.
const NARROW_LANES: usize = 4;

/// Bits per limb.
const LIMB_BITS: usize = 52;

/// The low 52 bits.
const MASK: u64 = (1 << LIMB_BITS) - 1;

/// A value in radix 2^52, limb 0 first.
type Limbs52<const L: usize> = [u64; L];

/// One lane of [`pow_lanes`]: its modulus, base and secret exponent.
pub type Lane<'a> = (&'a Modulus52, &'a UBig, Secret<&'a UBig>);

/// One lane of [`pow_public_lanes`]: its modulus and base.
pub type PublicLane<'a> = (&'a PublicModulus52, &'a UBig);

/// One lane of [`comb_lanes`]: a fixed base's table and a secret
/// exponent.
pub type CombLane<'a> = (&'a CombTable, Secret<&'a UBig>);

/// The constants of a modulus for [`pow_lanes`].
pub type Modulus52 = Radix52<PRIME_LIMBS>;

/// The constants of a modulus for [`pow_public_lanes`].
pub type PublicModulus52 = Radix52<PUBLIC_LIMBS>;

/// Whether this CPU runs the kernel: it has AVX-512F, AVX-512VL and
/// AVX-512 IFMA (std caches the answer, so asking is cheap). Without
/// them every entry returns `None`.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Radix-2^52 constants of one odd modulus `n` for the instance of `L`
/// limbs, `R = 2^(52·L)`: `n` itself, `R² mod n` for entering
/// Montgomery form (`mont::pow2_mod`, no long division), and
/// `−n⁻¹ mod 2^52` for the reduction digits:
/// [`Modulus52`] (7 limbs, moduli of at most [`MAX_MODULUS_BITS`] bits)
/// for [`pow_lanes`], [`PublicModulus52`] (20 limbs, at most
/// [`MAX_PUBLIC_MODULUS_BITS`]) for [`pow_public_lanes`].
#[derive(Clone, Debug)]
pub struct Radix52<const L: usize> {
    modulus: UBig,
    n: Limbs52<L>,
    rr: Limbs52<L>,
    k0: u64,
}

impl<const L: usize> Radix52<L> {
    /// Largest modulus of the instance, in bits: `4n < R`.
    pub const MAX_BITS: usize = LIMB_BITS * L - 2;

    /// Builds the constants, or returns `None` if `modulus` is even,
    /// below 3 or longer than [`Self::MAX_BITS`].
    pub fn new(modulus: &UBig) -> Option<Self> {
        let bits = modulus.bit_len();
        if modulus.is_even() || !(2..=Self::MAX_BITS).contains(&bits) {
            return None;
        }
        let rr = pow2_mod(modulus.limbs(), 2 * LIMB_BITS * L);
        Some(Radix52 {
            n: to_radix52(modulus.limbs()),
            rr: to_radix52(&rr),
            k0: inv64(modulus.limbs()[0]).wrapping_neg() & MASK,
            modulus: modulus.clone(),
        })
    }
}

/// `baseₖ^expₖ mod nₖ` for every lane `(nₖ, baseₖ, expₖ)`, in lane
/// order; bases need not be reduced. The lanes are packed
/// [`LANES`] to a kernel call, so `⌈lanes / 8⌉` calls in all (module
/// doc). Returns `None` unless the CPU has AVX-512F, AVX-512VL and
/// AVX-512 IFMA. The results are those of
/// [`Mont::pow`](crate::Mont::pow), bit for bit.
pub fn pow_lanes(lanes: &[Lane]) -> Option<Vec<UBig>> {
    let zero = UBig::zero();
    pow_packed(
        lanes,
        |lane| (lane.0, Some(lane.1)),
        |width, chunk, moduli, bases, out| {
            let mut exps = [Secret::new(&zero); LANES];
            for (exp, lane) in exps.iter_mut().zip(chunk) {
                *exp = lane.2;
            }
            pow_vertical(width, Job::Secret(moduli, bases, &exps, out))
        },
    )
}

/// `baseₖ^e mod nₖ` for every lane `(nₖ, baseₖ)` under one public
/// exponent `e`, in lane order; bases need not be reduced. Plain
/// square-and-multiply over the bits of `e`, with no window table:
/// `e = 65537` is 19 products (16 squarings, one multiply, and the two
/// conversions). Packed and dispatched as [`pow_lanes`] is; the results
/// are those of [`Mont::pow_u64`](crate::Mont::pow_u64), bit for bit.
pub fn pow_public_lanes(lanes: &[PublicLane], e: u64) -> Option<Vec<UBig>> {
    pow_packed(
        lanes,
        |&(modulus, base)| (modulus, Some(base)),
        |width, _, moduli, bases, out| pow_vertical(width, Job::Public(moduli, bases, e, out)),
    )
}

/// A fixed base's table for [`comb_lanes`], on the 20-limb instance: for
/// each 4-bit digit position `i` of an exponent, the 16 powers
/// `(base^(2^(4i)))^d`, `d = 0..15`, in Montgomery form for
/// `R = 2^1040`, 20 radix-2^52 limbs each. It covers exponents as wide
/// as the modulus's 64-bit limbs, as the scalar comb's table does: 256
/// digits and 640 KiB at 1024 bits (the scalar table's 16-limb entries
/// take 512 KiB).
#[derive(Debug)]
pub struct CombTable {
    modulus: PublicModulus52,
    digits: usize,
    entries: Vec<u64>,
}

impl CombTable {
    /// The table of `base` modulo `mont`'s modulus, or `None` for a
    /// modulus of more than [`MAX_PUBLIC_MODULUS_BITS`] bits. Built on
    /// the scalar product: each digit's powers are
    /// [`Mont::window_table`](crate::Mont::window_table)'s, and one
    /// product with `2^1040 mod n` takes each from `R = 2^(64·limbs)` to
    /// `R = 2^1040`.
    pub fn new(mont: &crate::Mont, base: &UBig) -> Option<Self> {
        let n = mont.modulus();
        let modulus = PublicModulus52::new(&n)?;
        let s = mont.limb_len();
        let digits = (64 * s).div_ceil(WINDOW);
        let r52 = pow2_mod(n.limbs(), LIMB_BITS * PUBLIC_LIMBS);
        let mut scratch = mont.alloc_scratch();
        let mut tmp = vec![0u64; s];
        // b = base^(2^(4i)) in scalar Montgomery form for digit i.
        let mut b = mont.to_mont(base);
        let mut entries = Vec::with_capacity(digits * (PUBLIC_LIMBS << WINDOW));
        for _ in 0..digits {
            for power in mont.window_table(&b).chunks_exact(s) {
                mont.mont_mul_into(power, &r52, &mut tmp, &mut scratch);
                entries.extend(to_radix52::<PUBLIC_LIMBS>(&tmp));
            }
            for _ in 0..WINDOW {
                mont.mont_sqr_into(&b, &mut tmp, &mut scratch);
                std::mem::swap(&mut b, &mut tmp);
            }
        }
        Some(CombTable {
            modulus,
            digits,
            entries,
        })
    }

    /// The widest exponent the table covers, in bits.
    pub fn bits(&self) -> usize {
        self.digits * WINDOW
    }

    /// Digit position `i`'s entry for the digit `d`:
    /// [`ct_lookup`](crate::ct::ct_lookup)'s masked scan of the
    /// position's 16 entries.
    #[inline]
    fn entry(&self, i: usize, d: Secret<u64>) -> Limbs52<PUBLIC_LIMBS> {
        let mut entry = [0u64; PUBLIC_LIMBS];
        let span = PUBLIC_LIMBS << WINDOW;
        crate::ct::ct_lookup(&self.entries[i * span..(i + 1) * span], d, &mut entry);
        entry
    }
}

/// `baseₖ^expₖ mod nₖ` for every lane `(tableₖ, expₖ)`, in lane order,
/// through each base's fixed table: one product per 4-bit digit of the
/// tables' width, zero digits included, each lane's entry picked by
/// [`ct_lookup`](crate::ct::ct_lookup)'s masked scan of its 16 — the
/// scalar comb's algorithm (`p2drm-crypto`'s `elgamal` module), with no
/// squarings. Packed and dispatched as [`pow_lanes`] is (two lanes, an
/// ElGamal encryption's `g^y` and `h^y`, are one call on 256-bit
/// registers); the results are the scalar comb's, bit for bit.
///
/// # Panics
///
/// If the tables cover different widths, or an exponent is wider than
/// its table ([`CombTable::bits`]).
pub fn comb_lanes(lanes: &[CombLane]) -> Option<Vec<UBig>> {
    for (table, exp) in lanes {
        assert_eq!(table.digits, lanes[0].0.digits, "comb tables of one width");
        // The bit length is a key-size parameter.
        assert!(
            exp.declassify().bit_len() <= table.bits(),
            "exponent within the table"
        );
    }
    let zero = UBig::zero();
    pow_packed(
        lanes,
        |lane| (&lane.0.modulus, None),
        |width, chunk, moduli, _, out| {
            let mut tables = [None; LANES];
            let mut exps = [Secret::new(&zero); LANES];
            for (k, &(table, exp)) in chunk.iter().enumerate() {
                tables[k] = Some(table);
                exps[k] = exp;
            }
            pow_vertical(width, Job::Comb(moduli, &tables, &exps, out))
        },
    )
}

/// The packing every entry shares: `lanes` go eight to a call (a call
/// of at most four on 256-bit registers), each base (if the entry has
/// one) reduced by its modulus and brought to radix 2^52; `call(width,
/// chunk, moduli, bases, out)` runs one kernel call over a chunk. Unused
/// lanes of a call take the chunk's first modulus and a zero base, and
/// are dropped.
fn pow_packed<'a, T, const L: usize>(
    lanes: &[T],
    modulus_and_base: impl Fn(&T) -> (&'a Radix52<L>, Option<&'a UBig>),
    mut call: impl FnMut(
        usize,
        &[T],
        &[&Radix52<L>; LANES],
        &[Limbs52<L>; LANES],
        &mut [Limbs52<L>; LANES],
    ) -> bool,
) -> Option<Vec<UBig>> {
    let mut results = Vec::with_capacity(lanes.len());
    for chunk in lanes.chunks(LANES) {
        let first = modulus_and_base(chunk.first()?).0;
        let mut moduli = [first; LANES];
        let mut bases = [[0u64; L]; LANES];
        for (k, lane) in chunk.iter().enumerate() {
            let (modulus, base) = modulus_and_base(lane);
            moduli[k] = modulus;
            if let Some(base) = base {
                bases[k] = to_radix52(base.rem(&modulus.modulus).limbs());
            }
        }
        let mut out = [[0u64; L]; LANES];
        // The lane count says how many operations share the call,
        // nothing of them.
        let width = if chunk.len() <= NARROW_LANES {
            NARROW_LANES
        } else {
            LANES
        };
        // Whether the kernel ran depends on the CPU alone.
        if !call(width, chunk, &moduli, &bases, &mut out) {
            return None;
        }
        crate::counts::count(|c| {
            c.kernel_calls += 1;
            c.kernel_lanes += chunk.len() as u64;
        });
        for (x, m) in out.iter_mut().zip(moduli).take(chunk.len()) {
            sub_if_not_below(x, &m.n);
            results.push(from_radix52(x));
        }
    }
    Some(results)
}

/// One kernel call's operands: moduli, radix-2^52 bases, the exponents
/// and where the results go.
enum Job<'a, 'm> {
    /// Per-lane exponents on the 7-limb instance ([`pow_lanes`]).
    Secret(
        &'a [&'m Modulus52; LANES],
        &'a [Limbs52<PRIME_LIMBS>; LANES],
        &'a [Secret<&'m UBig>; LANES],
        &'a mut [Limbs52<PRIME_LIMBS>; LANES],
    ),
    /// One public exponent on the 20-limb instance
    /// ([`pow_public_lanes`]).
    Public(
        &'a [&'m PublicModulus52; LANES],
        &'a [Limbs52<PUBLIC_LIMBS>; LANES],
        u64,
        &'a mut [Limbs52<PUBLIC_LIMBS>; LANES],
    ),
    /// Fixed-base tables and per-lane exponents on the 20-limb instance
    /// ([`comb_lanes`]); an unused lane has no table.
    Comb(
        &'a [&'m PublicModulus52; LANES],
        &'a [Option<&'m CombTable>; LANES],
        &'a [Secret<&'m UBig>; LANES],
        &'a mut [Limbs52<PUBLIC_LIMBS>; LANES],
    ),
}

/// Runs one kernel call of `width` lanes (8 on 512-bit registers, 4 on
/// 256-bit ones; lanes past `width` are left alone) and returns `true`
/// if this CPU has AVX-512F, AVX-512VL and AVX-512 IFMA; returns
/// `false`, leaving the job's output alone, if it has not. Output lane
/// `k` is its base to its exponent in `[0, n]` (still to be brought
/// below `n`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn pow_vertical(width: usize, job: Job) -> bool {
    if !available() {
        return false;
    }
    let narrow = width == NARROW_LANES;
    // SAFETY: every kernel function is safe apart from its
    // `#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]`; the
    // running CPU was just reported (`available`) to have all three.
    unsafe {
        match job {
            Job::Secret(moduli, bases, exps, out) if narrow => ymm::pow(moduli, bases, exps, out),
            Job::Secret(moduli, bases, exps, out) => zmm::pow(moduli, bases, exps, out),
            Job::Public(moduli, bases, e, out) if narrow => ymm20::pow(moduli, bases, e, out),
            Job::Public(moduli, bases, e, out) => zmm20::pow(moduli, bases, e, out),
            Job::Comb(moduli, tables, exps, out) if narrow => {
                ymm20::comb(moduli, tables, exps, out)
            }
            Job::Comb(moduli, tables, exps, out) => zmm20::comb(moduli, tables, exps, out),
        }
    }
    true
}

/// Without x86-64 there is no kernel.
#[cfg(not(target_arch = "x86_64"))]
fn pow_vertical(_: usize, _: Job) -> bool {
    false
}

/// The low `52·L` bits of the 64-bit limbs `x` in radix 2^52.
fn to_radix52<const L: usize>(x: &[u64]) -> Limbs52<L> {
    let word = |w: usize| x.get(w).copied().unwrap_or(0);
    std::array::from_fn(|j| {
        let (w, off) = (LIMB_BITS * j / 64, LIMB_BITS * j % 64);
        let high = if off > 64 - LIMB_BITS {
            word(w + 1) << (64 - off)
        } else {
            0
        };
        (word(w) >> off | high) & MASK
    })
}

/// The value of normalised radix-2^52 limbs.
fn from_radix52<const L: usize>(x: &Limbs52<L>) -> UBig {
    let mut limbs = vec![0u64; (LIMB_BITS * L).div_ceil(64)];
    for (j, &d) in x.iter().enumerate() {
        let (w, off) = (LIMB_BITS * j / 64, LIMB_BITS * j % 64);
        limbs[w] |= d << off;
        if off + LIMB_BITS > 64 {
            limbs[w + 1] |= d >> (64 - off);
        }
    }
    UBig::from_limbs(limbs)
}

/// `x = x − n` if `x ≥ n`, for normalised limbs, without a branch:
/// [`Mont`](crate::Mont)'s final subtraction, whose borrow, mask and
/// carry are [`Secret`]s. Limbs below 2^52 borrow in a 64-bit chain
/// exactly where they would in radix 2^52, and adding `n` back restores
/// them; a limb the kept difference wrapped is brought back to 52 bits.
fn sub_if_not_below<const L: usize>(x: &mut Limbs52<L>, n: &Limbs52<L>) {
    reduce_once(x, n, Secret::new(0));
    for limb in x {
        *limb &= MASK;
    }
}

/// One vertical kernel over a register type and a limb count, written
/// once and instantiated for 512-bit registers (8 lanes) and 256-bit
/// ones (4), at 7 limbs with the secret-exponent entry and at 20 with
/// the public one: safe functions over register values, callable only
/// on a CPU with AVX-512F, AVX-512VL and AVX-512 IFMA (`pow_vertical`
/// checks).
#[cfg(target_arch = "x86_64")]
macro_rules! vertical_kernel {
    (
        $(#[$doc:meta])*
        mod $name:ident: $V:ident, $lanes:expr, $limbs:expr, $($entry:ident),+;
        load($l:ident) $load:block
        store($v:ident) $store:block
        madd52lo = $lo:ident, madd52hi = $hi:ident, add = $add:ident, and = $and:ident,
        srli = $srli:ident, set1 = $set1:ident, setzero = $setzero:ident,
        cmpeq = $cmpeq:ident, mask_mov = $mov:ident $(,)?
    ) => {
        $(#[$doc])*
        mod $name {
            use super::{Limbs52, Radix52, LANES, MASK};
            use std::arch::x86_64::{$V, $add, $and, $hi, $lo, $set1, $setzero, $srli};

            /// Lanes of one call.
            const WIDTH: usize = $lanes;

            /// Limbs of a residue.
            const LIMBS: usize = $limbs;

            /// A residue of every lane: register `j` holds limb `j`.
            type Residue = [$V; LIMBS];

            /// Lane `k` of the register is `lanes[k]`.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn load($l: [u64; WIDTH]) -> $V $load

            /// The lanes of a register, lane 0 first.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn store($v: $V) -> [u64; WIDTH] $store

            /// Almost-Montgomery products `a·b·R⁻¹ mod n` in every lane,
            /// `R = 2^(52·LIMBS)`: below `2n` for operands below `2n`,
            /// every limb below 2^52. `k0` holds each lane's
            /// `−n⁻¹ mod 2^52`.
            ///
            /// Each round adds `a·b[i]` and `m·n` (low halves to their
            /// limb, high halves one limb up), where the digit `m` makes
            /// limb 0 a multiple of 2^52, then divides by 2^52: limb 0's
            /// top bits carry into limb 1 and the limbs move down one. A
            /// limb gains at most four 52-bit terms a round and lives
            /// for at most `LIMBS` rounds, so it stays below 2^59
            /// without a carry until the end, where one pass brings
            /// every limb below 2^52.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn amm(a: &Residue, b: &Residue, n: &Residue, k0: $V) -> Residue {
                let zero = $setzero();
                let mut t = [zero; LIMBS + 1];
                for &bi in b {
                    for j in 0..LIMBS {
                        t[j] = $lo(t[j], a[j], bi);
                    }
                    // Only the low 52 bits of t[0] decide m.
                    let m = $lo(zero, t[0], k0);
                    for j in 0..LIMBS {
                        t[j] = $lo(t[j], n[j], m);
                        t[j + 1] = $hi($hi(t[j + 1], a[j], bi), n[j], m);
                    }
                    let carry = $srli::<52>(t[0]);
                    let mut next = [zero; LIMBS + 1];
                    next[0] = $add(t[1], carry);
                    next[1..LIMBS].copy_from_slice(&t[2..]);
                    t = next;
                }
                let mask = $set1(MASK as i64);
                let mut r = [zero; LIMBS];
                for j in 0..LIMBS - 1 {
                    t[j + 1] = $add(t[j + 1], $srli::<52>(t[j]));
                    r[j] = $and(t[j], mask);
                }
                // The value is below 2n < 2^(52·LIMBS − 1), so the top
                // limb is below 2^52 once the carries are in.
                r[LIMBS - 1] = t[LIMBS - 1];
                r
            }

            /// Limb `j` of every lane's `rows[k]`, for each `j`.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn transpose(rows: [&Limbs52<LIMBS>; WIDTH]) -> Residue {
                std::array::from_fn(|j| load(rows.map(|r| r[j])))
            }

            /// The constants of the first `WIDTH` lanes and their
            /// bases, transposed: `(n, R² mod n, base, k0, 1)`.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn operands(
                moduli: &[&Radix52<LIMBS>; LANES],
                bases: &[Limbs52<LIMBS>; LANES],
            ) -> (Residue, Residue, Residue, $V, Residue) {
                let n = transpose(std::array::from_fn(|k| &moduli[k].n));
                let rr = transpose(std::array::from_fn(|k| &moduli[k].rr));
                let x = transpose(std::array::from_fn(|k| &bases[k]));
                let k0 = load(std::array::from_fn(|k| moduli[k].k0));
                let mut one = [$setzero(); LIMBS];
                one[0] = $set1(1);
                (n, rr, x, k0, one)
            }

            /// Every lane of `acc` into `out[k]`.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn unload(acc: &Residue, out: &mut [Limbs52<LIMBS>; LANES]) {
                for (j, limb) in acc.iter().enumerate() {
                    for (k, v) in store(*limb).into_iter().enumerate() {
                        out[k][j] = v;
                    }
                }
            }

            $(vertical_kernel!(@$entry $V, $setzero, $set1, $cmpeq, $mov);)+
        }
    };

    // The secret-exponent entry: fixed 4-bit windows with a masked
    // table scan.
    (@secret $V:ident, $setzero:ident, $set1:ident, $cmpeq:ident, $mov:ident) => {
        use crate::ct::Secret;
        use crate::mont::WINDOW;
        use crate::ubig::UBig;
        use std::arch::x86_64::{$cmpeq, $mov};

        /// Entries of the window table.
        const TABLE: usize = 1 << WINDOW;

        /// For every lane, the table entry its window digit at bit
        /// `pos` names, picked by a masked move from each of the
        /// entries in turn.
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
        fn select(table: &[Residue; TABLE], exps: &[Secret<&UBig>; LANES], pos: usize) -> Residue {
            // The digits enter a vector register, and it and the compare
            // masks made from it only pick entries by masked moves: no
            // lane's digit is branched on or used as an address.
            let digits = load(std::array::from_fn(|k| exps[k].window(pos, WINDOW).declassify()));
            let mut out = [$setzero(); LIMBS];
            for (i, entry) in table.iter().enumerate() {
                let hit = $cmpeq(digits, $set1(i as i64));
                for j in 0..LIMBS {
                    out[j] = $mov(out[j], hit, entry[j]);
                }
            }
            out
        }

        /// `bases[k]^exps[k]` modulo `moduli[k]` into `out[k]` for
        /// the first `WIDTH` lanes, in `[0, n]` and normalised:
        /// fixed 4-bit windows over the longest exponent, every lane
        /// squaring and multiplying at every step.
        ///
        /// # Safety
        ///
        /// Calling it from code without these target features is
        /// `unsafe`: the running CPU must have AVX-512F, AVX-512VL
        /// and AVX-512 IFMA (`pow_vertical` checks).
        #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
        pub(super) fn pow(
            moduli: &[&Radix52<LIMBS>; LANES],
            bases: &[Limbs52<LIMBS>; LANES],
            exps: &[Secret<&UBig>; LANES],
            out: &mut [Limbs52<LIMBS>; LANES],
        ) {
            let (n, rr, x, k0, one) = operands(moduli, bases);
            // table[d] = x^d in Montgomery form, in every lane.
            let mut table = [[$setzero(); LIMBS]; TABLE];
            table[0] = amm(&rr, &one, &n, k0);
            table[1] = amm(&x, &rr, &n, k0);
            for d in 2..TABLE {
                table[d] = amm(&table[d - 1], &table[1], &n, k0);
            }
            let mut bits = 0;
            for exp in &exps[..WIDTH] {
                // The bit length is public: the call's window count, and
                // so its products, is the one thing the exponents show.
                bits = bits.max(exp.declassify().bit_len());
            }
            let windows = bits.div_ceil(WINDOW).max(1);
            let mut acc = select(&table, exps, (windows - 1) * WINDOW);
            for w in (0..windows - 1).rev() {
                for _ in 0..WINDOW {
                    acc = amm(&acc, &acc, &n, k0);
                }
                let next = select(&table, exps, w * WINDOW);
                acc = amm(&acc, &next, &n, k0);
            }
            // Leaving Montgomery form: a product with 1 is at most n.
            acc = amm(&acc, &one, &n, k0);
            unload(&acc, out);
        }
    };

    // The public-exponent entry: plain square-and-multiply over the
    // bits of one exponent every lane shares.
    (@public $V:ident, $setzero:ident, $set1:ident, $cmpeq:ident, $mov:ident) => {
        /// `bases[k]^e` modulo `moduli[k]` into `out[k]` for the first
        /// `WIDTH` lanes, in `[0, n]` and normalised: left-to-right
        /// square-and-multiply over the bits of the public `e`.
        ///
        /// # Safety
        ///
        /// Calling it from code without these target features is
        /// `unsafe`: the running CPU must have AVX-512F, AVX-512VL
        /// and AVX-512 IFMA (`pow_vertical` checks).
        #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
        pub(super) fn pow(
            moduli: &[&Radix52<LIMBS>; LANES],
            bases: &[Limbs52<LIMBS>; LANES],
            e: u64,
            out: &mut [Limbs52<LIMBS>; LANES],
        ) {
            let (n, rr, x, k0, one) = operands(moduli, bases);
            let bits = 64 - e.leading_zeros();
            // x in Montgomery form, which is also the accumulator after
            // the top bit of e; x^0 is 1, in Montgomery form.
            let xm = amm(&x, &rr, &n, k0);
            let mut acc = if e == 0 { amm(&rr, &one, &n, k0) } else { xm };
            for i in (0..bits.saturating_sub(1)).rev() {
                acc = amm(&acc, &acc, &n, k0);
                if (e >> i) & 1 == 1 {
                    acc = amm(&acc, &xm, &n, k0);
                }
            }
            // Leaving Montgomery form: a product with 1 is at most n.
            acc = amm(&acc, &one, &n, k0);
            unload(&acc, out);
        }
    };

    // The comb entry: one product per digit with an entry of each lane's
    // fixed-base table, picked by a masked scan.
    (@comb $V:ident, $setzero:ident, $set1:ident, $cmpeq:ident, $mov:ident) => {
        use super::CombTable;
        use crate::ct::Secret;
        use crate::mont::WINDOW;
        use crate::ubig::UBig;

        /// `tables[k]`'s base to `exps[k]` modulo `moduli[k]` into
        /// `out[k]` for the first `WIDTH` lanes, in `[0, n]` and
        /// normalised: from 1, one product per digit of the tables'
        /// width, zero digits included, with the entry the lane's table
        /// picks for its digit by a masked scan of all 16. A lane with
        /// no table is unused and multiplies by zero.
        ///
        /// # Safety
        ///
        /// Calling it from code without these target features is
        /// `unsafe`: the running CPU must have AVX-512F, AVX-512VL
        /// and AVX-512 IFMA (`pow_vertical` checks).
        #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
        pub(super) fn comb(
            moduli: &[&Radix52<LIMBS>; LANES],
            tables: &[Option<&CombTable>; LANES],
            exps: &[Secret<&UBig>; LANES],
            out: &mut [Limbs52<LIMBS>; LANES],
        ) {
            let (n, rr, _, k0, one) = operands(moduli, &[[0; LIMBS]; LANES]);
            let digits = tables[0].map_or(0, |table| table.digits);
            let mut entries = [[0u64; LIMBS]; WIDTH];
            // 1 in Montgomery form.
            let mut acc = amm(&rr, &one, &n, k0);
            for i in 0..digits {
                for (entry, (table, exp)) in entries.iter_mut().zip(tables.iter().zip(exps)) {
                    // Which lanes are used is public.
                    if let Some(table) = table {
                        *entry = table.entry(i, exp.window(i * WINDOW, WINDOW));
                    }
                }
                let entry = transpose(std::array::from_fn(|k| &entries[k]));
                acc = amm(&acc, &entry, &n, k0);
            }
            // Leaving Montgomery form: a product with 1 is at most n.
            acc = amm(&acc, &one, &n, k0);
            unload(&acc, out);
        }
    };
}

/// Four instances: 8 or 4 lanes, at 7 limbs (the secret-exponent entry,
/// [`pow_lanes`]) or 20 (the public entry, [`pow_public_lanes`], and the
/// comb, [`comb_lanes`]).
#[cfg(target_arch = "x86_64")]
macro_rules! zmm_kernel {
    ($(#[$doc:meta])* mod $name:ident: $limbs:expr, $($entry:ident),+;) => {
        vertical_kernel! {
            $(#[$doc])*
            mod $name: __m512i, LANES, $limbs, $($entry),+;
            load(l) {
                let l = l.map(|v| v as i64);
                std::arch::x86_64::_mm512_set_epi64(l[7], l[6], l[5], l[4], l[3], l[2], l[1], l[0])
            }
            store(v) {
                use std::arch::x86_64::{_mm256_extract_epi64, _mm512_extracti64x4_epi64};
                let lo = _mm512_extracti64x4_epi64::<0>(v);
                let hi = _mm512_extracti64x4_epi64::<1>(v);
                [
                    _mm256_extract_epi64::<0>(lo),
                    _mm256_extract_epi64::<1>(lo),
                    _mm256_extract_epi64::<2>(lo),
                    _mm256_extract_epi64::<3>(lo),
                    _mm256_extract_epi64::<0>(hi),
                    _mm256_extract_epi64::<1>(hi),
                    _mm256_extract_epi64::<2>(hi),
                    _mm256_extract_epi64::<3>(hi),
                ]
                .map(|v| v as u64)
            }
            madd52lo = _mm512_madd52lo_epu64, madd52hi = _mm512_madd52hi_epu64,
            add = _mm512_add_epi64, and = _mm512_and_si512, srli = _mm512_srli_epi64,
            set1 = _mm512_set1_epi64, setzero = _mm512_setzero_si512,
            cmpeq = _mm512_cmpeq_epi64_mask, mask_mov = _mm512_mask_mov_epi64,
        }
    };
}

/// The 256-bit-register form of [`zmm_kernel`].
#[cfg(target_arch = "x86_64")]
macro_rules! ymm_kernel {
    ($(#[$doc:meta])* mod $name:ident: $limbs:expr, $($entry:ident),+;) => {
        vertical_kernel! {
            $(#[$doc])*
            mod $name: __m256i, super::NARROW_LANES, $limbs, $($entry),+;
            load(l) {
                let l = l.map(|v| v as i64);
                std::arch::x86_64::_mm256_set_epi64x(l[3], l[2], l[1], l[0])
            }
            store(v) {
                use std::arch::x86_64::_mm256_extract_epi64;
                [
                    _mm256_extract_epi64::<0>(v),
                    _mm256_extract_epi64::<1>(v),
                    _mm256_extract_epi64::<2>(v),
                    _mm256_extract_epi64::<3>(v),
                ]
                .map(|v| v as u64)
            }
            madd52lo = _mm256_madd52lo_epu64, madd52hi = _mm256_madd52hi_epu64,
            add = _mm256_add_epi64, and = _mm256_and_si256, srli = _mm256_srli_epi64,
            set1 = _mm256_set1_epi64x, setzero = _mm256_setzero_si256,
            cmpeq = _mm256_cmpeq_epi64_mask, mask_mov = _mm256_mask_mov_epi64,
        }
    };
}

#[cfg(target_arch = "x86_64")]
zmm_kernel! {
    /// Eight lanes of 7 limbs in 512-bit registers, per-lane exponents.
    mod zmm: super::PRIME_LIMBS, secret;
}

#[cfg(target_arch = "x86_64")]
ymm_kernel! {
    /// Four lanes of 7 limbs in 256-bit registers, per-lane exponents.
    mod ymm: super::PRIME_LIMBS, secret;
}

#[cfg(target_arch = "x86_64")]
zmm_kernel! {
    /// Eight lanes of 20 limbs in 512-bit registers: one public exponent,
    /// or fixed-base tables.
    mod zmm20: super::PUBLIC_LIMBS, public, comb;
}

#[cfg(target_arch = "x86_64")]
ymm_kernel! {
    /// Four lanes of 20 limbs in 256-bit registers: one public exponent,
    /// or fixed-base tables.
    mod ymm20: super::PUBLIC_LIMBS, public, comb;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prime, Mont};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn radix52_roundtrip() {
        let x = UBig::one().shl(364).sub(&UBig::from_u64(12345));
        let limbs: Limbs52<PRIME_LIMBS> = to_radix52(x.limbs());
        assert_eq!(from_radix52(&limbs), x);
        assert!(limbs.iter().all(|&l| l <= MASK));
        let y = UBig::one().shl(1040).sub(&UBig::from_u64(12345));
        let limbs: Limbs52<PUBLIC_LIMBS> = to_radix52(y.limbs());
        assert_eq!(from_radix52(&limbs), y);
        assert!(limbs.iter().all(|&l| l <= MASK));
    }

    #[test]
    fn moduli_out_of_range_have_no_constants() {
        let two_362 = UBig::one().shl(362);
        assert!(Modulus52::new(&two_362.sub(&UBig::one())).is_some());
        assert!(Modulus52::new(&two_362.add(&UBig::one())).is_none());
        assert!(Modulus52::new(&UBig::from_u64(3)).is_some());
        assert!(Modulus52::new(&UBig::from_u64(1)).is_none());
        assert!(Modulus52::new(&UBig::from_u64(1 << 40)).is_none());
        // The public instance: up to 1038 bits, 4n < R = 2^1040.
        assert_eq!(MAX_PUBLIC_MODULUS_BITS, 1038);
        let two_1038 = UBig::one().shl(1038);
        assert!(PublicModulus52::new(&two_1038.sub(&UBig::one())).is_some());
        assert!(PublicModulus52::new(&two_1038.add(&UBig::one())).is_none());
        assert!(PublicModulus52::new(&UBig::from_u64(3)).is_some());
        assert!(PublicModulus52::new(&two_1038).is_none());
    }

    /// The radix-2^52 constants against the long division they replaced:
    /// `R² mod n` for random odd moduli at 7 limbs (64 to 362 bits) and
    /// at 20 (64 to 1038), 3, 2^362 − 1 and 2^1038 − 1.
    #[test]
    fn radix52_constants_match_the_division() {
        let mut rng = StdRng::seed_from_u64(0x52);
        let one = UBig::one();
        let mut moduli = vec![UBig::from_u64(3)];
        for bits in [64, 65, 127, 200, 255, 256, 300, 341, 342, 361, 362] {
            for _ in 0..4 {
                let mut n = crate::rng::random_bits(&mut rng, bits - 1).add(&one.shl(bits - 1));
                n.set_bit(0);
                moduli.push(n);
            }
        }
        moduli.push(one.shl(362).sub(&one));
        for n in &moduli {
            let rr: Limbs52<PRIME_LIMBS> = to_radix52(one.shl(2 * 364).rem(n).limbs());
            assert_eq!(Modulus52::new(n).unwrap().rr, rr, "n = {n}");
        }
        for bits in [400, 512, 640, 833, 1000, 1023, 1024, 1025, 1037, 1038] {
            for _ in 0..4 {
                let mut n = crate::rng::random_bits(&mut rng, bits - 1).add(&one.shl(bits - 1));
                n.set_bit(0);
                moduli.push(n);
            }
        }
        moduli.push(one.shl(1038).sub(&one));
        for n in &moduli {
            let rr: Limbs52<PUBLIC_LIMBS> = to_radix52(one.shl(2 * 1040).rem(n).limbs());
            assert_eq!(PublicModulus52::new(n).unwrap().rr, rr, "n = {n}");
        }
    }

    /// The public entry against `Mont::pow_u64` lane by lane, at every
    /// lane count from 1 to 24 (one call, on 256- or 512-bit registers,
    /// then two or three), with moduli of different sizes mixed in one
    /// call: 2^1038 − 1, random odd 1038-bit moduli, RSA-1024-shaped
    /// moduli (products of three 341-bit primes) and random odd moduli
    /// of 513 to 1024 bits; bases 0, 1, n − 1, random ones below n and
    /// unreduced ones of 2,048 bits; exponents 0, 1, 3, 65537 and
    /// 2^32 + 1. Each call takes `⌈lanes / 8⌉` kernel calls.
    #[test]
    fn vertical_public_pow_matches_mont_pow_u64() {
        let mut rng = StdRng::seed_from_u64(0x2042);
        let one = UBig::one();
        let probe = PublicModulus52::new(&UBig::from_u64(3)).unwrap();
        if pow_public_lanes(&[(&probe, &one)], 3).is_none() {
            eprintln!(
                "this CPU has no AVX-512 IFMA: the vertical public exponentiation is skipped"
            );
            return;
        }
        let mut moduli = vec![UBig::one().shl(1038).sub(&one)];
        for _ in 0..2 {
            let mut n = crate::rng::random_bits(&mut rng, 1037).add(&UBig::one().shl(1037));
            n.set_bit(0);
            moduli.push(n);
        }
        for _ in 0..2 {
            let primes = [341, 341, 342].map(|bits| prime::gen_prime(bits, 16, &mut rng));
            moduli.push(primes.iter().fold(one.clone(), |acc, r| &acc * r));
        }
        for bits in [513, 640, 777, 900, 1000, 1023, 1024] {
            let mut n = crate::rng::random_bits(&mut rng, bits - 1).add(&UBig::one().shl(bits - 1));
            n.set_bit(0);
            moduli.push(n);
        }
        assert_eq!(moduli[0].bit_len(), MAX_PUBLIC_MODULUS_BITS);
        assert!(moduli[3..5].iter().all(|n| n.bit_len() >= 1023));
        let consts: Vec<PublicModulus52> = moduli
            .iter()
            .map(|n| PublicModulus52::new(n).unwrap())
            .collect();
        let monts: Vec<Mont> = moduli.iter().map(|n| Mont::new(n).unwrap()).collect();
        let mut checked = 0;
        let mut first = 0;
        for lanes in 1..=3 * LANES {
            for e in [0, 1, 3, 65537, (1 << 32) + 1] {
                first += 1;
                let picks: Vec<usize> =
                    (0..lanes).map(|j| (first + 3 * j) % moduli.len()).collect();
                let bases: Vec<UBig> = picks
                    .iter()
                    .enumerate()
                    .map(|(j, &p)| match (first + j) % 5 {
                        0 => UBig::zero(),
                        1 => one.clone(),
                        2 => moduli[p].sub(&one),
                        3 => crate::rng::random_below(&mut rng, &moduli[p]),
                        _ => crate::rng::random_bits(&mut rng, 2048),
                    })
                    .collect();
                let args: Vec<PublicLane> = picks
                    .iter()
                    .zip(&bases)
                    .map(|(&p, b)| (&consts[p], b))
                    .collect();
                let before = crate::counts::counts().kernel_calls;
                let got = pow_public_lanes(&args, e).expect("IFMA was detected");
                assert_eq!(
                    crate::counts::counts().kernel_calls - before,
                    lanes.div_ceil(LANES) as u64
                );
                assert_eq!(got.len(), lanes);
                for (j, &p) in picks.iter().enumerate() {
                    let want = monts[p].pow_u64(&bases[j], e);
                    assert_eq!(
                        got[j], want,
                        "lane {j} of {lanes}: n = {}, base = {}, e = {e}",
                        moduli[p], bases[j]
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 5 * (1..=3 * LANES).sum::<usize>());
        assert_eq!(pow_public_lanes(&[], 65537), Some(Vec::new()));
    }

    /// The vertical exponentiation against `Mont::pow` lane by lane, at
    /// every lane count from 1 to 8 (one call, on 256- or 512-bit
    /// registers) and from 9 to 24 (two or three calls through the
    /// packing), with moduli of different sizes mixed in one call:
    /// 2^362 − 1 (whose Montgomery form of 1 is 4), a 362-bit prime,
    /// 256-, 341- and 342-bit primes and random odd 362-bit moduli;
    /// bases 0, 1, r − 1, random ones below r and ones of 1,024 bits,
    /// reduced first; exponents 0, 1, 2, r − 2, random full-length ones,
    /// and one lane at 1 bit beside full-length others; and the prime
    /// search's Fermat check, base 2 to the exponent r − 1, in every lane.
    #[test]
    fn vertical_pow_matches_mont_pow() {
        let mut rng = StdRng::seed_from_u64(0x1f_4b);
        let probe = Modulus52::new(&UBig::from_u64(3)).unwrap();
        let one = UBig::one();
        if pow_lanes(&[(&probe, &one, Secret::new(&one))]).is_none() {
            eprintln!("this CPU has no AVX-512 IFMA: the vertical exponentiation is skipped");
            return;
        }
        let two_362 = UBig::one().shl(362);
        let mut moduli = vec![two_362.sub(&one), prime::gen_prime(362, 16, &mut rng)];
        for bits in [256, 341, 342] {
            moduli.push(prime::gen_prime(bits, 16, &mut rng));
            moduli.push(prime::gen_prime(bits, 16, &mut rng));
        }
        for _ in 0..4 {
            let mut n = crate::rng::random_bits(&mut rng, 361).add(&UBig::one().shl(361));
            n.set_bit(0);
            moduli.push(n);
        }
        let widest = moduli.iter().filter(|n| n.bit_len() == MAX_MODULUS_BITS);
        assert_eq!(widest.count(), 6);
        let consts: Vec<Modulus52> = moduli.iter().map(|n| Modulus52::new(n).unwrap()).collect();
        let monts: Vec<Mont> = moduli.iter().map(|n| Mont::new(n).unwrap()).collect();
        let mut checked = 0;
        let mut first = 0;
        for lanes in 1..=3 * LANES {
            for case in 0..9 {
                // Consecutive calls start at different moduli, and
                // each call mixes sizes.
                first += 1;
                let picks: Vec<usize> =
                    (0..lanes).map(|j| (first + 5 * j) % moduli.len()).collect();
                let mut bases = Vec::new();
                let mut exps = Vec::new();
                for (j, &p) in picks.iter().enumerate() {
                    let n = &moduli[p];
                    let r_minus = |k: u64| n.sub(&UBig::from_u64(k));
                    bases.push(match (case + j) % 5 {
                        _ if case == 8 => UBig::from_u64(2),
                        0 => UBig::zero(),
                        1 => one.clone(),
                        2 => r_minus(1),
                        3 => crate::rng::random_below(&mut rng, n),
                        _ => crate::rng::random_bits(&mut rng, 1024),
                    });
                    let full = crate::rng::random_below(&mut rng, n);
                    exps.push(match (case, j % 4) {
                        (0, _) => UBig::zero(),
                        (1, _) => one.clone(),
                        (2, _) => UBig::from_u64(2),
                        (3, _) => r_minus(2),
                        (8, _) => r_minus(1),
                        // One lane at 1 bit, the others full length.
                        (4, _) if j == lanes / 2 => one.clone(),
                        // Edge exponents beside full-length ones.
                        (5, 0) => r_minus(2),
                        (5, 2) => UBig::zero(),
                        _ => full,
                    });
                }
                let args: Vec<Lane> = picks
                    .iter()
                    .zip(bases.iter().zip(&exps))
                    .map(|(&p, (b, e))| (&consts[p], b, Secret::new(e)))
                    .collect();
                let before = crate::counts::counts().kernel_calls;
                let got = pow_lanes(&args).expect("IFMA was detected");
                assert_eq!(
                    crate::counts::counts().kernel_calls - before,
                    lanes.div_ceil(LANES) as u64
                );
                assert_eq!(got.len(), lanes);
                for (j, &p) in picks.iter().enumerate() {
                    let want = monts[p].pow(&bases[j], &exps[j]);
                    assert_eq!(
                        got[j], want,
                        "lane {j} of {lanes}: n = {}, base = {}, exp = {}",
                        moduli[p], bases[j], exps[j]
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 2000);
        assert_eq!(pow_lanes(&[]), Some(Vec::new()));
    }
}
