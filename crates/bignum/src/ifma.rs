//! Vertical modular exponentiation on AVX-512 IFMA: up to eight
//! independent exponentiations per kernel call, one per 64-bit lane.
//!
//! [`pow_lanes`] computes `xₖ^eₖ mod nₖ` for any number of lanes, each an
//! odd modulus of at most [`MAX_MODULUS_BITS`] bits with its own base and
//! exponent: the CRT exponentiations of one or many RSA private-key
//! operations, whose moduli are the key's primes.
//!
//! # Representation
//!
//! A residue is held in radix 2^52, seven limbs. The layout is
//! *vertical* (Drucker–Gueron, "Fast modular squaring with AVX512IFMA",
//! ITNG 2019; Intel's multi-buffer `mbx_rsa_private_crt_mb8`): register
//! `j` holds limb `j` of every lane, so `vpmadd52luq` / `vpmadd52huq`
//! form the low and high 52 bits of one limb product for eight lanes per
//! instruction and add them to 64-bit lanes with twelve bits of
//! headroom. Every lane has its own modulus, base and exponent; no
//! instruction moves data between lanes.
//!
//! The product is Montgomery's with `R = 2^364` in its *almost* form
//! (Gueron–Krasnov): no subtraction at its end, so it returns a value
//! below `2n` rather than below `n`. Operands below `2n` give a result
//! below `(4n²/R + n)`, which is below `2n` when `4n < R`: hence at most
//! 362 bits. Between products a value stays below `2n`; leaving
//! Montgomery form gives a value of at most `n`, and one subtraction
//! without a branch makes it canonical.
//!
//! The exponentiation uses fixed 4-bit windows over the longest
//! exponent of the call: every lane squares and multiplies at every
//! step, a lane with a shorter exponent starts on leading zero digits,
//! and each lane picks its window entry by a masked scan over all 16
//! table entries, with no exponent-derived index and no skipped multiply
//! on a zero digit.
//!
//! # Lane packing
//!
//! [`pow_lanes`] packs its lanes eight to a call in 512-bit registers;
//! a call of at most four lanes (a lone RSA-1024 signature has three)
//! runs the same code on 256-bit registers, where a product issues
//! half the multiply-adds and the CPU can run two of them per cycle.
//! Unused lanes of a call exponentiate 0 to the power 0 under the
//! call's first modulus and are dropped. On a 2-vCPU Sapphire Rapids VM
//! (Xeon model 207), a scratch kernel of this layout (341-bit primes,
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
//! # Dispatch
//!
//! The kernel runs when `is_x86_feature_detected!` reports `avx512f`,
//! `avx512vl` and `avx512ifma` (std caches the answer, so it is asked on
//! every call); otherwise [`pow_lanes`] returns `None` and the caller
//! uses [`Mont::pow`](crate::Mont::pow) per modulus, the reference it is
//! tested against. Only the CPU, the lane count and the modulus size
//! decide; there is no switch, cargo feature or setting. The kernel is
//! written as safe `#[target_feature]` functions over register values
//! (no pointer intrinsics); calling it after detection is this module's
//! one `unsafe` operation (`pow_vertical`).

use crate::mont::inv64;
use crate::ubig::UBig;
use std::cell::Cell;

/// Largest modulus the kernel takes, in bits: `4n < R = 2^364`.
pub const MAX_MODULUS_BITS: usize = 362;

/// Lanes one kernel call holds: one per 64-bit lane of a 512-bit
/// register.
pub const LANES: usize = 8;

/// Lanes of the narrow call, one per 64-bit lane of a 256-bit register.
const NARROW_LANES: usize = 4;

/// Bits per limb.
const LIMB_BITS: usize = 52;

/// The low 52 bits.
const MASK: u64 = (1 << LIMB_BITS) - 1;

/// Limbs per residue: 7 × 52 = 364 bits.
const LIMBS: usize = 7;

/// Window width of the exponentiation: 4 bits, 16 table entries.
const WINDOW: usize = 4;

/// A value in radix 2^52, limb 0 first.
type Limbs52 = [u64; LIMBS];

/// One lane of [`pow_lanes`]: its modulus, base and exponent.
pub type Lane<'a> = (&'a Modulus52, &'a UBig, &'a UBig);

thread_local! {
    /// Kernel calls this thread has made; see [`kernel_calls`].
    static KERNEL_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Kernel calls the calling thread has made so far. A caller that
/// reads it before and after a [`pow_lanes`] call learns how many calls
/// its lanes took: `⌈lanes / 8⌉` on a CPU with AVX-512 IFMA, 0 without.
pub fn kernel_calls() -> u64 {
    KERNEL_CALLS.with(Cell::get)
}

/// Radix-2^52 constants of one odd modulus `n` of at most
/// [`MAX_MODULUS_BITS`] bits: `n` itself, `R² mod n` for entering
/// Montgomery form, and `−n⁻¹ mod 2^52` for the reduction digits.
#[derive(Clone, Debug)]
pub struct Modulus52 {
    modulus: UBig,
    n: Limbs52,
    rr: Limbs52,
    k0: u64,
}

impl Modulus52 {
    /// Builds the constants, or returns `None` if `modulus` is even,
    /// below 3 or longer than [`MAX_MODULUS_BITS`] bits.
    pub fn new(modulus: &UBig) -> Option<Self> {
        let bits = modulus.bit_len();
        if modulus.is_even() || !(2..=MAX_MODULUS_BITS).contains(&bits) {
            return None;
        }
        let rr = UBig::one().shl(2 * LIMB_BITS * LIMBS).rem(modulus);
        Some(Modulus52 {
            n: to_radix52(modulus),
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
    // lint: secret(lanes, chunk, bases, exps, out)
    let zero = UBig::zero();
    let mut results = Vec::with_capacity(lanes.len());
    for chunk in lanes.chunks(LANES) {
        // Unused lanes raise 0 to the power 0 under the first modulus.
        let first = chunk.first()?.0;
        let mut moduli = [first; LANES];
        let mut bases = [[0u64; LIMBS]; LANES];
        let mut exps = [&zero; LANES];
        for (k, lane) in chunk.iter().enumerate() {
            moduli[k] = lane.0;
            bases[k] = to_radix52(&lane.1.rem(&lane.0.modulus));
            exps[k] = lane.2;
        }
        let mut out = [[0u64; LIMBS]; LANES];
        // lint: public(the lane count says how many operations share the call, nothing of them)
        let width = if chunk.len() <= NARROW_LANES {
            NARROW_LANES
        } else {
            LANES
        };
        // lint: public(whether the kernel ran depends on the CPU alone)
        if !pow_vertical(width, &moduli, &bases, &exps, &mut out) {
            return None;
        }
        KERNEL_CALLS.with(|calls| calls.set(calls.get() + 1));
        for (x, m) in out.iter_mut().zip(moduli).take(chunk.len()) {
            sub_if_not_below(x, &m.n);
            results.push(from_radix52(x));
        }
    }
    Some(results)
}

/// Runs one kernel call of `width` lanes (8 on 512-bit registers, 4 on
/// 256-bit ones; lanes past `width` are left alone) and returns `true`
/// if this CPU has AVX-512F, AVX-512VL and AVX-512 IFMA; returns
/// `false`, leaving `out` alone, if it has not. `out[k]` is
/// `bases[k]^exps[k]` in `[0, n]` (still to be brought below `n`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn pow_vertical(
    width: usize,
    moduli: &[&Modulus52; LANES],
    bases: &[Limbs52; LANES],
    exps: &[&UBig; LANES],
    out: &mut [Limbs52; LANES],
) -> bool {
    if !(std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512ifma"))
    {
        return false;
    }
    // SAFETY: `zmm::pow` and `ymm::pow` are safe apart from their
    // `#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]`; the
    // running CPU was just reported to have all three.
    unsafe {
        if width == NARROW_LANES {
            ymm::pow(moduli, bases, exps, out);
        } else {
            zmm::pow(moduli, bases, exps, out);
        }
    }
    true
}

/// Without x86-64 there is no kernel.
#[cfg(not(target_arch = "x86_64"))]
fn pow_vertical(
    _: usize,
    _: &[&Modulus52; LANES],
    _: &[Limbs52; LANES],
    _: &[&UBig; LANES],
    _: &mut [Limbs52; LANES],
) -> bool {
    false
}

/// The low 364 bits of `x` in radix 2^52.
fn to_radix52(x: &UBig) -> Limbs52 {
    let mut out = [0u64; LIMBS];
    for (j, limb) in out.iter_mut().enumerate() {
        let pos = LIMB_BITS * j;
        *limb = x.bits_at(pos, 32) | x.bits_at(pos + 32, LIMB_BITS - 32) << 32;
    }
    out
}

/// The value of normalised radix-2^52 limbs.
fn from_radix52(x: &Limbs52) -> UBig {
    let mut limbs = vec![0u64; (LIMB_BITS * LIMBS).div_ceil(64)];
    for (j, &d) in x.iter().enumerate() {
        let (w, off) = (LIMB_BITS * j / 64, LIMB_BITS * j % 64);
        limbs[w] |= d << off;
        if off + LIMB_BITS > 64 {
            limbs[w + 1] |= d >> (64 - off);
        }
    }
    UBig::from_limbs(limbs)
}

/// `x = x − n` if `x ≥ n`, for normalised limbs, without a branch: the
/// difference is always formed and kept under a mask from its borrow.
fn sub_if_not_below(x: &mut Limbs52, n: &Limbs52) {
    // lint: secret(x, d, borrow, keep)
    let mut d = [0u64; LIMBS];
    let mut borrow = 0u64;
    for j in 0..LIMBS {
        let v = x[j].wrapping_sub(n[j]).wrapping_sub(borrow);
        d[j] = v & MASK;
        borrow = v >> 63;
    }
    // All ones when x < n (the subtraction borrowed out).
    let keep = borrow.wrapping_neg();
    for j in 0..LIMBS {
        x[j] = (x[j] & keep) | (d[j] & !keep);
    }
}

/// One vertical kernel over a register type, written once and
/// instantiated for 512-bit registers (8 lanes) and 256-bit ones (4):
/// safe functions over register values, callable only on a CPU with
/// AVX-512F, AVX-512VL and AVX-512 IFMA (`pow_vertical` checks).
#[cfg(target_arch = "x86_64")]
macro_rules! vertical_kernel {
    (
        $(#[$doc:meta])*
        mod $name:ident: $V:ident, $lanes:expr;
        load($l:ident) $load:block
        store($v:ident) $store:block
        madd52lo = $lo:ident, madd52hi = $hi:ident, add = $add:ident, and = $and:ident,
        srli = $srli:ident, set1 = $set1:ident, setzero = $setzero:ident,
        cmpeq = $cmpeq:ident, mask_mov = $mov:ident $(,)?
    ) => {
        $(#[$doc])*
        mod $name {
            use super::{Limbs52, Modulus52, LANES, LIMBS, MASK, WINDOW};
            use crate::ubig::UBig;
            use std::arch::x86_64::{
                $V, $add, $and, $cmpeq, $hi, $lo, $mov, $set1, $setzero, $srli,
            };

            /// Lanes of one call.
            const WIDTH: usize = $lanes;

            /// Entries of the window table.
            const TABLE: usize = 1 << WINDOW;

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

            /// Almost-Montgomery products `a·b·2^−364 mod n` in every
            /// lane: below `2n` for operands below `2n`, every limb below
            /// 2^52. `k0` holds each lane's `−n⁻¹ mod 2^52`.
            ///
            /// Each of the seven rounds adds `a·b[i]` and `m·n` (low
            /// halves to their limb, high halves one limb up), where
            /// the digit `m` makes limb 0 a multiple of 2^52, then
            /// divides by 2^52: limb 0's top bits carry into limb 1 and
            /// the limbs move down one. A limb gains at most four
            /// 52-bit terms a round, so it stays below 2^57 without a
            /// carry until the end, where one pass brings every limb
            /// below 2^52.
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
                    t = [$add(t[1], carry), t[2], t[3], t[4], t[5], t[6], t[7], zero];
                }
                let mask = $set1(MASK as i64);
                let mut r = [zero; LIMBS];
                for j in 0..LIMBS - 1 {
                    t[j + 1] = $add(t[j + 1], $srli::<52>(t[j]));
                    r[j] = $and(t[j], mask);
                }
                // The value is below 2n < 2^363, so the top limb is
                // below 2^52 once the carries are in.
                r[LIMBS - 1] = t[LIMBS - 1];
                r
            }

            /// For every lane, the table entry its window digit at bit
            /// `pos` names, picked by a masked move from each of the
            /// entries in turn.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn select(table: &[Residue; TABLE], exps: &[&UBig; LANES], pos: usize) -> Residue {
                // lint: secret(exps, digits, hit, out)
                let digits = load(std::array::from_fn(|k| exps[k].bits_at(pos, WINDOW)));
                let mut out = [$setzero(); LIMBS];
                for (i, entry) in table.iter().enumerate() {
                    let hit = $cmpeq(digits, $set1(i as i64));
                    for j in 0..LIMBS {
                        out[j] = $mov(out[j], hit, entry[j]);
                    }
                }
                out
            }

            /// Limb `j` of every lane's `rows[k]`, for each `j`.
            #[inline]
            #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
            fn transpose(rows: [&Limbs52; WIDTH]) -> Residue {
                std::array::from_fn(|j| load(rows.map(|r| r[j])))
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
                moduli: &[&Modulus52; LANES],
                bases: &[Limbs52; LANES],
                exps: &[&UBig; LANES],
                out: &mut [Limbs52; LANES],
            ) {
                // lint: secret(bases, exps, x, table, acc, next)
                let n = transpose(std::array::from_fn(|k| &moduli[k].n));
                let rr = transpose(std::array::from_fn(|k| &moduli[k].rr));
                let x = transpose(std::array::from_fn(|k| &bases[k]));
                let k0 = load(std::array::from_fn(|k| moduli[k].k0));
                let zero = $setzero();
                let mut one = [zero; LIMBS];
                one[0] = $set1(1);
                // table[d] = x^d in Montgomery form, in every lane.
                let mut table = [[zero; LIMBS]; TABLE];
                table[0] = amm(&rr, &one, &n, k0);
                table[1] = amm(&x, &rr, &n, k0);
                for d in 2..TABLE {
                    table[d] = amm(&table[d - 1], &table[1], &n, k0);
                }
                let mut bits = 0;
                for exp in &exps[..WIDTH] {
                    bits = bits.max(exp.bit_len());
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
                for (j, limb) in acc.iter().enumerate() {
                    for (k, v) in store(*limb).into_iter().enumerate() {
                        out[k][j] = v;
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
vertical_kernel! {
    /// Eight lanes in 512-bit registers.
    mod zmm: __m512i, LANES;
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

#[cfg(target_arch = "x86_64")]
vertical_kernel! {
    /// Four lanes in 256-bit registers.
    mod ymm: __m256i, super::NARROW_LANES;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prime, Mont};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn radix52_roundtrip() {
        let x = UBig::one().shl(364).sub(&UBig::from_u64(12345));
        assert_eq!(from_radix52(&to_radix52(&x)), x);
        let limbs = to_radix52(&x);
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
    }

    /// The vertical exponentiation against `Mont::pow` lane by lane, at
    /// every lane count from 1 to 8 (one call, on 256- or 512-bit
    /// registers) and from 9 to 24 (two or three calls through the
    /// packing), with moduli of different sizes mixed in one call:
    /// 2^362 − 1 (whose Montgomery form of 1 is 4), a 362-bit prime,
    /// 256-, 341- and 342-bit primes and random odd 362-bit moduli;
    /// bases 0, 1, r − 1, random ones below r and ones of 1,024 bits,
    /// reduced first; exponents 0, 1, 2, r − 2, random full-length ones,
    /// and one lane at 1 bit beside full-length others.
    #[test]
    fn vertical_pow_matches_mont_pow() {
        let mut rng = StdRng::seed_from_u64(0x1f_4b);
        let probe = Modulus52::new(&UBig::from_u64(3)).unwrap();
        let one = UBig::one();
        if pow_lanes(&[(&probe, &one, &one)]).is_none() {
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
            for case in 0..8 {
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
                    .map(|(&p, (b, e))| (&consts[p], b, e))
                    .collect();
                let before = kernel_calls();
                let got = pow_lanes(&args).expect("IFMA was detected");
                assert_eq!(kernel_calls() - before, lanes.div_ceil(LANES) as u64);
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
