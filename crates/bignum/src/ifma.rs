//! Lockstep modular exponentiation on AVX-512 IFMA for the primes of a
//! multi-prime RSA key.
//!
//! [`pow_lockstep`] computes `xₖ^eₖ mod nₖ` for two or three odd moduli
//! of at most [`MAX_MODULUS_BITS`] bits at once: the CRT exponentiations
//! of a private-key operation, whose moduli are the key's primes.
//!
//! # Representation
//!
//! A residue is held in radix 2^52, seven limbs in the low seven 64-bit
//! lanes of one 512-bit register (the top lane stays zero), so
//! `vpmadd52luq` / `vpmadd52huq` form the low and high 52 bits of eight
//! limb products per instruction and add them to 64-bit lanes with
//! twelve bits of headroom. The product is Montgomery's with `R = 2^364`
//! in its *almost* form (Gueron–Krasnov): no subtraction at its end, so
//! it returns a value below `2n` rather than below `n`. Operands below
//! `2n` give a result below `(4n²/R + n)`, which is below `2n` when
//! `4n < R`: hence at most 362 bits. Between products a value stays
//! below `2n`; leaving Montgomery form gives a value of at most `n`, and
//! one subtraction without a branch makes it canonical.
//!
//! # Lanes
//!
//! One product is a chain of seven dependent rounds of multiply-adds (the
//! reduction digit of a round needs the sum of the round before), so a
//! single modulus leaves the multiplier idle most of the time. On a
//! 2-vCPU Sapphire Rapids VM, three 341-bit exponentiations took
//! 93–97 µs one lane at a time, no better than
//! [`Mont::pow`](crate::Mont::pow) on the ADX product (89–107 µs), and
//! 42–45 µs as three interleaved lanes; a product costs about the same
//! with two lanes as with three. The kernel therefore interleaves two or
//! three independent moduli in every round, and [`pow_lockstep`] runs
//! their exponentiations side by side: every lane squares and multiplies
//! at the same step, a lane with a shorter exponent starts on leading
//! zero digits, and each lane picks its window entry by a masked scan
//! over the whole table, with no exponent-derived index and no skipped
//! multiply on a zero digit.
//!
//! # Dispatch
//!
//! The kernel runs when `is_x86_feature_detected!` reports `avx512f` and
//! `avx512ifma` (std caches the answer, so it is asked on every call);
//! otherwise [`pow_lockstep`] returns `None` and the caller uses
//! [`Mont::pow`](crate::Mont::pow) per modulus, the reference it is
//! tested against. Only the CPU, the lane count and the modulus size
//! decide; there is no switch, cargo feature or setting. The kernel is
//! written as safe `#[target_feature]` functions over register values
//! (no pointer intrinsics); calling it after detection is this module's
//! one `unsafe` operation (`pow_ifma`).

use crate::mont::inv64;
use crate::ubig::UBig;

/// Largest modulus the kernel takes, in bits: `4n < R = 2^364`.
pub const MAX_MODULUS_BITS: usize = 362;

/// Bits per limb.
const LIMB_BITS: usize = 52;

/// The low 52 bits.
const MASK: u64 = (1 << LIMB_BITS) - 1;

/// Limbs per residue: 7 × 52 = 364 bits.
const LIMBS: usize = 7;

/// Window width of the exponentiation: 4 bits, 16 table entries.
const WINDOW: usize = 4;

/// A value in radix 2^52, limb 0 first; lane 7 is always zero.
type Limbs52 = [u64; 8];

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

/// `baseₖ^expₖ mod nₖ` for every lane `(nₖ, baseₖ, expₖ)` at once; bases
/// need not be reduced. Returns `None` unless there are two or three
/// lanes and the CPU has AVX-512F and AVX-512 IFMA (module doc). The
/// results are those of [`Mont::pow`](crate::Mont::pow), bit for bit.
pub fn pow_lockstep(lanes: &[(&Modulus52, &UBig, &UBig)]) -> Option<Vec<UBig>> {
    match lanes {
        [a, b] => lockstep([a, b]),
        [a, b, c] => lockstep([a, b, c]),
        _ => None,
    }
}

/// [`pow_lockstep`] at a lane count known at compile time.
#[allow(clippy::needless_range_loop)] // the lanes' arrays are indexed in lockstep
fn lockstep<const K: usize>(lanes: [&(&Modulus52, &UBig, &UBig); K]) -> Option<Vec<UBig>> {
    // lint: secret(lanes, bases, exps, out)
    let moduli = lanes.map(|l| l.0);
    let bases = lanes.map(|l| to_radix52(&l.1.rem(&l.0.modulus)));
    let exps = lanes.map(|l| l.2);
    let mut out = [[0u64; 8]; K];
    #[cfg(target_arch = "x86_64")]
    // lint: public(whether the kernel ran depends on the CPU alone)
    if pow_ifma(moduli, &bases, &exps, &mut out) {
        for k in 0..K {
            sub_if_not_below(&mut out[k], &moduli[k].n);
        }
        return Some(out.iter().map(from_radix52).collect());
    }
    None
}

/// Runs the lockstep exponentiation and returns `true` if this CPU has
/// AVX-512F and AVX-512 IFMA; returns `false`, leaving `out` alone, if it
/// has not. `out[k]` is `bases[k]^exps[k]` in `[0, n]` (still to be
/// brought below `n`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn pow_ifma<const K: usize>(
    moduli: [&Modulus52; K],
    bases: &[Limbs52; K],
    exps: &[&UBig; K],
    out: &mut [Limbs52; K],
) -> bool {
    if !(std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512ifma"))
    {
        return false;
    }
    // SAFETY: `kernel::pow` is safe apart from its
    // `#[target_feature(enable = "avx512f,avx512ifma")]`; the running CPU
    // was just reported to have both.
    unsafe { kernel::pow(moduli, bases, exps, out) };
    true
}

/// The low 364 bits of `x` in radix 2^52.
fn to_radix52(x: &UBig) -> Limbs52 {
    let mut out = [0u64; 8];
    for (j, limb) in out.iter_mut().take(LIMBS).enumerate() {
        let pos = LIMB_BITS * j;
        *limb = x.bits_at(pos, 32) | x.bits_at(pos + 32, LIMB_BITS - 32) << 32;
    }
    out
}

/// The value of normalised radix-2^52 limbs.
fn from_radix52(x: &Limbs52) -> UBig {
    let mut limbs = vec![0u64; (LIMB_BITS * LIMBS).div_ceil(64)];
    for (j, &d) in x.iter().take(LIMBS).enumerate() {
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
    let mut d = [0u64; 8];
    let mut borrow = 0u64;
    for j in 0..8 {
        let v = x[j].wrapping_sub(n[j]).wrapping_sub(borrow);
        d[j] = v & MASK;
        borrow = v >> 63;
    }
    // All ones when x < n (the subtraction borrowed out).
    let keep = borrow.wrapping_neg();
    for j in 0..8 {
        x[j] = (x[j] & keep) | (d[j] & !keep);
    }
}

/// The IFMA kernel: safe functions over `__m512i` values, callable only
/// on a CPU with AVX-512F and AVX-512 IFMA (`pow_ifma` checks).
#[cfg(target_arch = "x86_64")]
mod kernel {
    use super::{Limbs52, Modulus52, LIMBS, LIMB_BITS, MASK, WINDOW};
    use crate::ubig::UBig;
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512,
        _mm512_cmpeq_epi64_mask, _mm512_cmpeq_epu64_mask, _mm512_cmpgt_epu64_mask,
        _mm512_extracti64x4_epi64, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
        _mm512_mask_mov_epi64, _mm512_mask_sub_epi64, _mm512_maskz_srli_epi64,
        _mm512_permutexvar_epi64, _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512,
        _mm512_srli_epi64,
    };

    /// Entries of the window table.
    const TABLE: usize = 1 << WINDOW;

    /// Loads normalised limbs into a register, limb `j` in lane `j`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load(x: &Limbs52) -> __m512i {
        let l = x.map(|v| v as i64);
        _mm512_set_epi64(l[7], l[6], l[5], l[4], l[3], l[2], l[1], l[0])
    }

    /// The lanes of `v`, lane 0 first.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store(v: __m512i) -> Limbs52 {
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

    /// `t` with every lane below 2^52 and the same value. A product's
    /// lanes stay below 2^57 (seven rounds of four 52-bit halves), so
    /// their carries move up one lane in one round; the carries of 0 or
    /// 1 this can leave then ripple through lanes of 52 ones as an 8-bit
    /// addition over the lane masks (generate, propagate).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn normalize(t: __m512i) -> __m512i {
        let mask = _mm512_set1_epi64(MASK as i64);
        let carries = _mm512_srli_epi64::<{ LIMB_BITS as u32 }>(t);
        let t = _mm512_and_si512(t, mask);
        let t = _mm512_add_epi64(t, _mm512_alignr_epi64::<7>(carries, _mm512_setzero_si512()));
        // Second round: a lane above 2^52 − 1 carries 1; one equal to it
        // passes an incoming carry on.
        let generate = _mm512_cmpgt_epu64_mask(t, mask);
        let propagate = _mm512_cmpeq_epu64_mask(t, mask);
        let carry_in = (generate << 1).wrapping_add(propagate) ^ propagate;
        // t − (2^52 − 1) = t + 1 − 2^52: the carry in, and the carry out
        // the mask drops.
        let t = _mm512_mask_sub_epi64(t, carry_in, t, mask);
        _mm512_and_si512(t, mask)
    }

    /// Almost-Montgomery products `a[k]·b[k]·2^−364 mod n[k]` for every
    /// lane, interleaved round by round: below `2n[k]` for operands below
    /// `2n[k]`, normalised. `k0[k]` holds `−n[k]⁻¹ mod 2^52` in every lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[allow(clippy::needless_range_loop)] // the lanes' arrays are indexed in lockstep
    fn amm<const K: usize>(
        a: &[__m512i; K],
        b: &[__m512i; K],
        n: &[__m512i; K],
        k0: &[__m512i; K],
    ) -> [__m512i; K] {
        let zero = _mm512_setzero_si512();
        let mut t = [zero; K];
        let mut ak = [zero; K];
        for k in 0..K {
            ak[k] = _mm512_madd52lo_epu64(zero, _mm512_permutexvar_epi64(zero, a[k]), k0[k]);
        }
        for i in 0..LIMBS {
            let index = _mm512_set1_epi64(i as i64);
            for k in 0..K {
                // t += a·b[i] (low halves), and the digit m making limb
                // 0 of that plus m·n a multiple of 2^52: formed from t
                // and b[i]·(a[0]·k0) so that it need not wait for the sum.
                let bi = _mm512_permutexvar_epi64(index, b[k]);
                let s = _mm512_madd52lo_epu64(t[k], a[k], bi);
                let m = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, bi, ak[k]), t[k], k0[k]);
                let m = _mm512_permutexvar_epi64(zero, m);
                let s = _mm512_madd52lo_epu64(s, n[k], m);
                // Divide by 2^52: shift the lanes down one, carrying
                // limb 0's top bits into the new limb 0, and add the
                // high halves, which belong one limb up.
                let high = _mm512_add_epi64(
                    _mm512_madd52hi_epu64(zero, a[k], bi),
                    _mm512_madd52hi_epu64(zero, n[k], m),
                );
                let carry = _mm512_maskz_srli_epi64::<{ LIMB_BITS as u32 }>(1, s);
                let high = _mm512_add_epi64(high, carry);
                t[k] = _mm512_add_epi64(_mm512_alignr_epi64::<1>(zero, s), high);
            }
        }
        for k in 0..K {
            t[k] = normalize(t[k]);
        }
        t
    }

    /// For every lane, the table entry its window digit at bit `pos`
    /// names, picked by a masked move from each of the entries in turn.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[allow(clippy::needless_range_loop)] // the lanes' arrays are indexed in lockstep
    fn select<const K: usize>(
        table: &[[__m512i; K]; TABLE],
        exps: &[&UBig; K],
        pos: usize,
    ) -> [__m512i; K] {
        // lint: secret(exps, digit, hit, out)
        let mut out = [_mm512_setzero_si512(); K];
        for k in 0..K {
            let digit = _mm512_set1_epi64(exps[k].bits_at(pos, WINDOW) as i64);
            for (i, entry) in table.iter().enumerate() {
                let hit = _mm512_cmpeq_epi64_mask(digit, _mm512_set1_epi64(i as i64));
                out[k] = _mm512_mask_mov_epi64(out[k], hit, entry[k]);
            }
        }
        out
    }

    /// `bases[k]^exps[k]` modulo `moduli[k]` into `out[k]`, in `[0, n]`
    /// and normalised: fixed 4-bit windows over the longest exponent,
    /// every lane squaring and multiplying at every step.
    ///
    /// # Safety
    ///
    /// Calling it from code without these target features is `unsafe`:
    /// the running CPU must have AVX-512F and AVX-512 IFMA (`pow_ifma`
    /// checks).
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[allow(clippy::needless_range_loop)] // the lanes' arrays are indexed in lockstep
    pub(super) fn pow<const K: usize>(
        moduli: [&Modulus52; K],
        bases: &[Limbs52; K],
        exps: &[&UBig; K],
        out: &mut [Limbs52; K],
    ) {
        // lint: secret(bases, exps, x, table, acc, next)
        let zero = _mm512_setzero_si512();
        let (mut n, mut k0, mut rr, mut x) = ([zero; K], [zero; K], [zero; K], [zero; K]);
        for k in 0..K {
            n[k] = load(&moduli[k].n);
            k0[k] = _mm512_set1_epi64(moduli[k].k0 as i64);
            rr[k] = load(&moduli[k].rr);
            x[k] = load(&bases[k]);
        }
        let one = [load(&[1, 0, 0, 0, 0, 0, 0, 0]); K];
        // table[d] = x^d in Montgomery form, for every lane.
        let mut table = [[zero; K]; TABLE];
        table[0] = amm(&rr, &one, &n, &k0);
        table[1] = amm(&x, &rr, &n, &k0);
        for d in 2..TABLE {
            table[d] = amm(&table[d - 1], &table[1], &n, &k0);
        }
        let mut bits = 0;
        for exp in exps {
            bits = bits.max(exp.bit_len());
        }
        let windows = bits.div_ceil(WINDOW).max(1);
        let mut acc = select(&table, exps, (windows - 1) * WINDOW);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                acc = amm(&acc, &acc, &n, &k0);
            }
            let next = select(&table, exps, w * WINDOW);
            acc = amm(&acc, &next, &n, &k0);
        }
        // Leaving Montgomery form: a product with 1 is at most n.
        acc = amm(&acc, &one, &n, &k0);
        for k in 0..K {
            out[k] = store(acc[k]);
        }
    }
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
        assert_eq!(limbs[7], 0);
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

    /// The lockstep exponentiation against `Mont::pow` modulus by
    /// modulus, two and three lanes at a time: random 256-, 341- and
    /// 342-bit primes and 362-bit moduli (random odd ones, a prime and
    /// 2^362 − 1, whose Montgomery form of 1 is 4 and whose products
    /// leave lanes of 52 ones for the second normalisation round); bases
    /// 0, 1, r − 1, random ones below r and ones of 1,024 bits, reduced
    /// first; exponents 0, 1, 2, r − 2, random full-length ones, and one
    /// lane at 1 bit beside full-length others.
    #[test]
    fn lockstep_pow_matches_mont_pow() {
        let mut rng = StdRng::seed_from_u64(0x1f_4a);
        let probe = Modulus52::new(&UBig::from_u64(3)).unwrap();
        let one = UBig::one();
        if pow_lockstep(&[(&probe, &one, &one), (&probe, &one, &one)]).is_none() {
            eprintln!("this CPU has no AVX-512 IFMA: the lockstep exponentiation is skipped");
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
        for lanes in [2, 3] {
            for first in 0..moduli.len() {
                // Each modulus leads once, beside the ones after it.
                let picks: Vec<usize> =
                    (0..lanes).map(|j| (first + 5 * j) % moduli.len()).collect();
                for case in 0..12 {
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
                        exps.push(match case {
                            0 => UBig::zero(),
                            1 => one.clone(),
                            2 => UBig::from_u64(2),
                            3 => r_minus(2),
                            // One lane at 1 bit, the others full length.
                            4..=6 if j == case - 4 => one.clone(),
                            _ => full,
                        });
                    }
                    let args: Vec<(&Modulus52, &UBig, &UBig)> = picks
                        .iter()
                        .zip(bases.iter().zip(&exps))
                        .map(|(&p, (b, e))| (&consts[p], b, e))
                        .collect();
                    let got = pow_lockstep(&args).expect("IFMA was detected");
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
        }
        assert!(checked > 500);
        // No other lane count has a kernel.
        assert!(pow_lockstep(&[(&probe, &one, &one)]).is_none());
        assert!(pow_lockstep(&[(&probe, &one, &one); 4]).is_none());
    }
}
