//! Plain modular arithmetic helpers: addition, subtraction and
//! multiplication modulo `n`, the modular inverse, and the Jacobi symbol.
//!
//! These are ring-entry/ring-exit utilities; the hot exponentiation path
//! lives in [`crate::Mont`].
//!
//! # The inverse
//!
//! [`inv_mod`] is Bernstein and Yang's constant-time inversion ("Fast
//! constant-time gcd computation and modular inversion", CHES 2019), in
//! the signed 62-bit-limb form of libsecp256k1's `modinv64`. From
//! `(δ, f, g) = (1, n, a)` a *divstep* makes
//!
//! * `(1 − δ, g, (g − f)/2)` when `δ > 0` and `g` is odd,
//! * `(1 + δ, f, (g + f)/2)` when `g` is odd otherwise,
//! * `(1 + δ, f, g/2)` when `g` is even,
//!
//! and keeps `d·a ≡ f` and `e·a ≡ g (mod n)` from `(d, e) = (0, 1)`. By
//! their Theorem 11.2, `g` is 0 after `⌊(49b + 80)/17⌋` divsteps
//! (`divsteps`) when `n` is odd and `n, a < 2^b`; then `f = ±gcd(a, n)`,
//! and when that is ±1 the inverse is `±d`. Extra divsteps on `g = 0`
//! change nothing.
//!
//! The divsteps run 62 at a time on the low words of `f` and `g` alone,
//! building the 2×2 matrix that the batch applies (its entries scaled by
//! 2^62); the matrix then updates the full-width `f`, `g`, `d` and `e`,
//! and `d`, `e` are divided by 2^62 modulo `n` by adding the multiple of
//! `n` that clears their low 62 bits. `b` is the modulus's width, 64 bits
//! a limb, so any operand as wide needs no reduction and the number of
//! batches depends on the limb count alone: 48 batches (2,976 divsteps)
//! at 16 limbs, 18 at 6.
//!
//! Nothing branches on the operand or indexes by it. In a batch, `δ`,
//! the words of `f` and `g`, the matrix and the two masks each divstep
//! makes (`δ > 0`, `g` odd) are [`Secret`]s, so the divstep picks its
//! case by masked moves; the matrix leaves the batch for the limb
//! updates, which only multiply, add and shift (the residue-buffer
//! boundary of the [`crate::ct`] module doc). The one branch is on the
//! verdict: whether `f` came out as ±1, which says only whether `a` was
//! invertible. An operand with more limbs than the modulus is reduced
//! first, by a division; its limb count is public, like the modulus's.
//!
//! Timed in one process against the binary extended GCD this replaced,
//! which branched on the operand at every step (200 random operands
//! below a random odd modulus, 30 rounds alternated, medians; three
//! runs on a 2-vCPU Xeon model 207, whose speed varied between runs):
//!
//! | modulus | binary GCD, µs | divsteps, µs | ratio |
//! |---|---|---|---|
//! | 1024 bits | 61–98 | 18–29 | ×0.26–0.30 |
//! | 512 bits | 17–28 | 7.9–12.5 | ×0.45 |
//! | 341 bits | 9.1–13.9 | 5.3–7.6 | ×0.55–0.59 |

use crate::ct::Secret;
use crate::mont::inv64;
use crate::ubig::UBig;
use crate::BigError;
/// `(a + b) mod n`.
pub fn add_mod(a: &UBig, b: &UBig, n: &UBig) -> UBig {
    (&a.rem(n) + &b.rem(n)).rem(n)
}

/// `(a - b) mod n` (wrapping into `[0, n)`).
pub fn sub_mod(a: &UBig, b: &UBig, n: &UBig) -> UBig {
    let a = a.rem(n);
    let b = b.rem(n);
    if a >= b {
        a.sub(&b)
    } else {
        (&a + n).sub(&b)
    }
}

/// `(a * b) mod n`.
pub fn mul_mod(a: &UBig, b: &UBig, n: &UBig) -> UBig {
    (&a.rem(n) * &b.rem(n)).rem(n)
}

/// Divsteps per batch: after 62 the matrix entries reach ±2^62, the
/// most the signed 62-bit limb updates take.
const BATCH: usize = 62;

/// The low 62 bits.
const M62: u64 = (1 << 62) - 1;

/// A batch's transition matrix `[u, v, q, r]`, scaled by 2^62: the batch
/// turns `(f, g)` into `((u·f + v·g)/2^62, (q·f + r·g)/2^62)`, and
/// `|u| + |v|`, `|q| + |r|` are at most 2^62.
type Matrix = [i64; 4];

/// Divsteps that bring `g` to zero from `δ = 1` for every odd `f` and
/// every `g` with `f, g < 2^bits`: `⌊(49·bits + 80)/17⌋` (Bernstein–Yang,
/// Theorem 11.2, whose condition `f² + 4g² ≤ 5·2^(2·bits)` these meet).
fn divsteps(bits: usize) -> usize {
    (49 * bits + 80) / 17
}

/// Modular inverse: `a⁻¹ mod n` for an odd `n`, or `NotInvertible` when
/// `gcd(a, n) ≠ 1` (`a⁻¹ mod 1` is 0). Bernstein–Yang divsteps (module
/// doc): nothing branches on `a` or indexes by it but the verdict, and
/// the work depends on the limb counts of `n` and `a` alone. One working
/// buffer and the result are allocated, plus the reduction of an `a`
/// with more limbs than `n`.
pub fn inv_mod(a: Secret<&UBig>, n: &UBig) -> Result<UBig, BigError> {
    if n.is_zero() {
        return Err(BigError::DivideByZero);
    }
    if n.is_even() {
        return Err(BigError::OutOfRange("inv_mod requires an odd modulus"));
    }
    if n.is_one() {
        return Ok(UBig::zero());
    }
    let nl = n.limbs();
    let s = nl.len();
    // The operand's limb count is public, like the modulus's.
    let a = a.declassify();
    let reduced;
    let al = if a.limb_len() <= s {
        a.limbs()
    } else {
        reduced = a.rem(n);
        reduced.limbs()
    };
    // Limbs of 62 bits that hold ±2n with its sign.
    let len = (64 * s + 2).div_ceil(62);
    let mut buf = vec![0i64; 5 * len];
    let (f, rest) = buf.split_at_mut(len);
    let (g, rest) = rest.split_at_mut(len);
    let (d, rest) = rest.split_at_mut(len);
    let (e, m) = rest.split_at_mut(len);
    to_s62(nl, f);
    to_s62(nl, m);
    to_s62(al, g);
    e[0] = 1;
    let n_inv = inv64(nl[0]) & M62;
    let mut delta = Secret::new(1u64);
    for _ in 0..divsteps(64 * s).div_ceil(BATCH) {
        let t;
        (delta, t) = batch(delta, f[0] as u64, g[0] as u64);
        update_fg(f, g, t);
        update_de(d, e, t, m, n_inv);
    }
    debug_assert!(g.iter().all(|&l| l == 0), "the divsteps brought g to 0");
    // f = ±gcd(a, n), its low limbs in [0, 2^62) and its sign in the
    // top limb: |f| is made under the sign's mask, and whether it is 1 is
    // the verdict, public.
    let negative = f[len - 1] >> 63;
    for x in f.iter_mut() {
        *x = (*x ^ negative) - negative;
    }
    carry62(f);
    if f[1..].iter().fold(f[0] ^ 1, |acc, &l| acc | l) != 0 {
        return Err(BigError::NotInvertible);
    }
    normalize(d, negative, m);
    let mut out = vec![0u64; s];
    from_s62(d, &mut out);
    Ok(UBig::from_limbs(out))
}

/// `x` in limbs of 62 bits, as many as `out` holds.
fn to_s62(x: &[u64], out: &mut [i64]) {
    let mut words = x.iter();
    let (mut acc, mut have) = (0u128, 0);
    for limb in out {
        if have < 62 {
            acc |= (*words.next().unwrap_or(&0) as u128) << have;
            have += 64;
        }
        *limb = (acc as u64 & M62) as i64;
        acc >>= 62;
        have -= 62;
    }
}

/// The 64-bit limbs of `x`, given in limbs of 62 bits that are all in
/// `[0, 2^62)`, into `out`.
fn from_s62(x: &[i64], out: &mut [u64]) {
    let mut limbs = x.iter();
    let (mut acc, mut have) = (0u128, 0);
    for word in out {
        while have < 64 {
            acc |= (*limbs.next().unwrap_or(&0) as u64 as u128) << have;
            have += 62;
        }
        *word = acc as u64;
        acc >>= 64;
        have -= 64;
    }
}

/// 62 divsteps from `δ` on the low words of `f` (odd) and `g`: the new
/// `δ` and the batch's matrix. Each divstep's case is two masks, and the
/// swap, the negation and the addition it makes are masked moves.
fn batch(delta: Secret<u64>, f: u64, g: u64) -> (Secret<u64>, Matrix) {
    let (mut delta, mut f, mut g) = (delta, Secret::new(f), Secret::new(g));
    let one = Secret::new(1u64);
    let zero = Secret::new(0u64);
    // 2^i·f = u·f₀ + v·g₀ and 2^i·g = q·f₀ + r·g₀ after i divsteps.
    let (mut u, mut v, mut q, mut r) = (one, zero, zero, one);
    for _ in 0..BATCH {
        let odd = (g & 1).wrapping_neg();
        // −δ is negative exactly when δ > 0 (|δ| stays below 2^12).
        let swap = (delta.wrapping_neg() >> 63).wrapping_neg() & odd;
        // (δ, f, g) becomes (−δ, g, −f) under the mask, and the rows of
        // the matrix with them.
        let x = (f ^ g) & swap;
        (f, g) = (f ^ x, g ^ x);
        let x = (u ^ q) & swap;
        (u, q) = (u ^ x, q ^ x);
        let x = (v ^ r) & swap;
        (v, r) = (v ^ x, r ^ x);
        let negate = |x: Secret<u64>| (x ^ swap).wrapping_sub(swap);
        (delta, g, q, r) = (negate(delta), negate(g), negate(q), negate(r));
        // An odd g takes f in, and the halving of g doubles the f row.
        g = g.wrapping_add(f & odd) >> 1;
        q = q.wrapping_add(u & odd);
        r = r.wrapping_add(v & odd);
        (u, v) = (u << 1, v << 1);
        delta = delta.wrapping_add(1);
    }
    // The matrix leaves for the limb updates, which multiply and add it
    // without a branch or an index.
    (delta, [u, v, q, r].map(|x| x.declassify() as i64))
}

/// `(f, g) = ((u·f + v·g)/2^62, (q·f + r·g)/2^62)`, both divisions
/// exact; every limb but the top one comes out in `[0, 2^62)`.
fn update_fg(f: &mut [i64], g: &mut [i64], [u, v, q, r]: Matrix) {
    let (u, v, q, r) = (u as i128, v as i128, q as i128, r as i128);
    let mut cf = u * f[0] as i128 + v * g[0] as i128;
    let mut cg = q * f[0] as i128 + r * g[0] as i128;
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    (cf, cg) = (cf >> 62, cg >> 62);
    for i in 1..f.len() {
        cf += u * f[i] as i128 + v * g[i] as i128;
        cg += q * f[i] as i128 + r * g[i] as i128;
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        (cf, cg) = (cf >> 62, cg >> 62);
    }
    f[f.len() - 1] = cf as i64;
    g[g.len() - 1] = cg as i64;
}

/// `(d, e) = ((u·d + v·e)/2^62, (q·d + r·e)/2^62) mod n` for `d, e` in
/// `(−2n, n)`, which they stay in (libsecp256k1's `update_de`): adds `n`
/// times the row of the matrix for each negative one, then the multiple
/// of `n` below 2^62 that makes each sum a multiple of 2^62. `n_inv` is
/// `n⁻¹ mod 2^62`; the sign masks are arithmetic shifts, not branches.
fn update_de(d: &mut [i64], e: &mut [i64], [u, v, q, r]: Matrix, m: &[i64], n_inv: u64) {
    let top = d.len() - 1;
    let (sd, se) = (d[top] >> 63, e[top] >> 63);
    let mut md = (u & sd) + (v & se);
    let mut me = (q & sd) + (r & se);
    let (u, v, q, r) = (u as i128, v as i128, q as i128, r as i128);
    let mut cd = u * d[0] as i128 + v * e[0] as i128;
    let mut ce = q * d[0] as i128 + r * e[0] as i128;
    md -= (n_inv.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (n_inv.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    let (md, me) = (md as i128, me as i128);
    cd += m[0] as i128 * md;
    ce += m[0] as i128 * me;
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    (cd, ce) = (cd >> 62, ce >> 62);
    for i in 1..d.len() {
        cd += u * d[i] as i128 + v * e[i] as i128 + m[i] as i128 * md;
        ce += q * d[i] as i128 + r * e[i] as i128 + m[i] as i128 * me;
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        (cd, ce) = (cd >> 62, ce >> 62);
    }
    d[top] = cd as i64;
    e[top] = ce as i64;
}

/// `d = ±d mod n` into `[0, n)` for `d` in `(−2n, n)`, negated when
/// `negate` is all ones: adds `n` if `d` is negative, negates under the
/// mask, adds `n` again if still negative, and brings every limb back to
/// `[0, 2^62)`, all under masks.
fn normalize(d: &mut [i64], negate: i64, m: &[i64]) {
    let add_if_negative = |d: &mut [i64]| {
        let mask = d[d.len() - 1] >> 63;
        for (x, &y) in d.iter_mut().zip(m) {
            *x += y & mask;
        }
    };
    add_if_negative(d);
    for x in d.iter_mut() {
        *x = (*x ^ negate) - negate;
    }
    carry62(d);
    add_if_negative(d);
    carry62(d);
}

/// Moves each limb's bits above 62 into the next, arithmetically: the
/// value is unchanged, and every limb but the top one comes out in
/// `[0, 2^62)`.
fn carry62(x: &mut [i64]) {
    for i in 0..x.len() - 1 {
        x[i + 1] += x[i] >> 62;
        x[i] &= M62 as i64;
    }
}

/// Jacobi symbol `(a / n)` for odd positive `n`; returns -1, 0 or 1.
pub fn jacobi(a: &UBig, n: &UBig) -> Result<i32, BigError> {
    if n.is_even() || n.is_zero() {
        return Err(BigError::OutOfRange("jacobi requires odd positive n"));
    }
    let mut a = a.rem(n);
    let mut n = n.clone();
    let mut sign = 1i32;
    while !a.is_zero() {
        while a.is_even() {
            a = a.shr(1);
            // (2/n) = -1 iff n ≡ 3,5 (mod 8)
            let n_mod8 = n.limbs().first().copied().unwrap_or(0) & 7;
            if n_mod8 == 3 || n_mod8 == 5 {
                sign = -sign;
            }
        }
        std::mem::swap(&mut a, &mut n);
        // Quadratic reciprocity: flip if both ≡ 3 (mod 4).
        let a4 = a.limbs().first().copied().unwrap_or(0) & 3;
        let n4 = n.limbs().first().copied().unwrap_or(0) & 3;
        if a4 == 3 && n4 == 3 {
            sign = -sign;
        }
        a = a.rem(&n);
    }
    if n.is_one() {
        Ok(sign)
    } else {
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> UBig {
        UBig::from_u64(v)
    }

    #[test]
    fn add_sub_mod_wrap() {
        let n = u(97);
        assert_eq!(add_mod(&u(96), &u(5), &n), u(4));
        assert_eq!(sub_mod(&u(3), &u(5), &n), u(95));
        assert_eq!(sub_mod(&u(5), &u(5), &n), u(0));
        assert_eq!(mul_mod(&u(96), &u(96), &n), u(1));
    }

    fn inv(a: &UBig, n: &UBig) -> Result<UBig, BigError> {
        inv_mod(Secret::new(a), n)
    }

    #[test]
    fn inv_mod_small_field() {
        let p = u(101);
        for a in 1..101u64 {
            let inv = inv(&u(a), &p).unwrap();
            assert_eq!(mul_mod(&u(a), &inv, &p), u(1), "a={a}");
        }
    }

    #[test]
    fn inv_mod_rejects_noncoprime_and_even_moduli() {
        assert_eq!(inv(&u(6), &u(9)), Err(BigError::NotInvertible));
        assert_eq!(inv(&u(0), &u(7)), Err(BigError::NotInvertible));
        assert_eq!(inv(&u(3), &u(0)), Err(BigError::DivideByZero));
        assert!(matches!(inv(&u(3), &u(8)), Err(BigError::OutOfRange(_))));
    }

    #[test]
    fn inv_mod_large() {
        let n = UBig::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = UBig::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let inv = inv(&a, &n).unwrap();
        assert_eq!(mul_mod(&a, &inv, &n), UBig::one());
    }

    /// The divstep count of the module doc: 48 batches of 62 at 1024 bits.
    #[test]
    fn divstep_count_follows_the_bound() {
        assert_eq!(divsteps(1024), 2956);
        assert_eq!(divsteps(1024).div_ceil(BATCH), 48);
        assert_eq!(divsteps(384).div_ceil(BATCH), 18);
        assert_eq!(divsteps(64), 189);
    }

    /// The binary extended GCD `inv_mod` ran before the divsteps, kept
    /// as their oracle: four `n`-width registers, `xu·a ≡ u` and
    /// `xv·a ≡ v (mod n)`, `v` odd; each pass strips `u`'s trailing zero
    /// bits (halving `xu` modulo `n` as often), then subtracts the
    /// smaller of `u, v` from the larger, until `u = 0` leaves
    /// `v = gcd(a, n)` and, when that is 1, `xv = a⁻¹`.
    fn binary_gcd_oracle(a: &UBig, n: &UBig) -> Result<UBig, BigError> {
        use crate::mont::{add_limbs, sub_limbs};
        let nl = n.limbs();
        let s = nl.len();
        let a = a.rem(n);
        let (mut u, mut v) = (vec![0u64; s], nl.to_vec());
        u[..a.limb_len()].copy_from_slice(a.limbs());
        let (mut xu, mut xv) = (vec![0u64; s], vec![0u64; s]);
        xu[0] = 1;
        while u.iter().any(|&l| l != 0) {
            while u[0] & 1 == 0 {
                crate::ubig::shr_in_place(&mut u, 1);
                // xu / 2 mod n: an odd xu becomes the even xu + n first.
                let top = (xu[0] & 1 == 1 && add_limbs(&mut xu, nl)) as u64;
                crate::ubig::shr_in_place(&mut xu, 1);
                xu[s - 1] |= top << 63;
            }
            if u.iter().rev().lt(v.iter().rev()) {
                std::mem::swap(&mut u, &mut v);
                std::mem::swap(&mut xu, &mut xv);
            }
            sub_limbs(&mut u, &v);
            if sub_limbs(&mut xu, &xv) {
                add_limbs(&mut xu, nl);
            }
        }
        if v[0] == 1 && v[1..].iter().all(|&l| l == 0) {
            Ok(UBig::from_limbs(xv).rem(n))
        } else {
            Err(BigError::NotInvertible)
        }
    }

    /// Deterministic filler limbs (top limb nonzero).
    fn limbs(len: usize, mut seed: u64) -> Vec<u64> {
        (0..len)
            .map(|_| {
                seed = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(0xbf58476d1ce4e5b9);
                (seed ^ (seed >> 31)) | 1 << 63
            })
            .collect()
    }

    /// Divsteps against the binary-GCD oracle, value and refusal, over
    /// moduli of 64 to 1038 bits (composites with the small factors 3 and
    /// 1009, and moduli of every limb count at full and short top limbs)
    /// and the operands 0, 1, 2, 3, n − 1, n, n + 1, a wide multiple of n
    /// plus 5, ones of the modulus's width above and below it, shifted
    /// and multiplied ones, and multiples of the small factors.
    #[test]
    fn divsteps_match_the_binary_gcd() {
        let mut checked = 0;
        for bits in (64..=1038)
            .step_by(37)
            .chain([128, 341, 362, 512, 1024, 1038])
        {
            for seed in 0..3u64 {
                // An odd value of exactly `b` bits.
                let odd = |b: usize, seed: u64| {
                    let len = b.div_ceil(64);
                    let mut x = UBig::from_limbs(limbs(len, seed)).shr(64 * len - b);
                    x.set_bit(0);
                    x
                };
                let cofactor = odd(bits - 12, 7 * bits as u64 + seed);
                let n = &cofactor * &u(3 * 1009);
                for n in [n, odd(bits, 99 + seed)] {
                    let x = UBig::from_limbs(limbs(n.limb_len(), 1000 + seed));
                    let operands = [
                        u(0),
                        u(1),
                        u(2),
                        u(3),
                        n.sub(&u(1)),
                        n.clone(),
                        &n + &u(1),
                        &(&n * &x) + &u(5),
                        x.clone(),
                        x.shr(1),
                        x.shl(200),
                        &x * &u(1009),
                        cofactor.clone(),
                    ];
                    for a in &operands {
                        let got = inv(a, &n);
                        assert_eq!(got, binary_gcd_oracle(a, &n), "a={a} n={n}");
                        if let Ok(r) = got {
                            assert_eq!(mul_mod(a, &r, &n), UBig::one().rem(&n));
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 300, "{checked} inverses");
        // The smallest odd moduli, exhaustively, n = 3 among them.
        for n in [1u64, 3, 5, 7, 9, 15, 255, u64::MAX] {
            for a in (0..20).chain([n / 2, n - 1, n, n.saturating_add(1), u64::MAX]) {
                assert_eq!(
                    inv(&u(a), &u(n)),
                    binary_gcd_oracle(&u(a), &u(n)),
                    "{a} mod {n}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random odd moduli of 1 to 17 limbs times a small odd factor,
        /// and operands up to twice as wide, alone and times that
        /// factor (which no inverse exists for), against the oracle.
        #[test]
        fn divsteps_match_the_binary_gcd_on_random_operands(
            n in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..18),
            a in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..35),
            factor in 1u64..1 << 16,
        ) {
            let factor = u(factor | 1);
            let mut n = UBig::from_limbs(n);
            n.set_bit(0);
            let n = &n * &factor;
            let a = UBig::from_limbs(a);
            for a in [&a, &(&a * &factor)] {
                proptest::prop_assert_eq!(inv(a, &n), binary_gcd_oracle(a, &n));
            }
        }
    }

    #[test]
    fn jacobi_prime_is_legendre() {
        // For p = 11: squares are 1,3,4,5,9.
        let p = u(11);
        let squares = [1u64, 3, 4, 5, 9];
        for a in 1..11u64 {
            let expect = if squares.contains(&a) { 1 } else { -1 };
            assert_eq!(jacobi(&u(a), &p).unwrap(), expect, "a={a}");
        }
        assert_eq!(jacobi(&u(0), &p).unwrap(), 0);
        assert_eq!(jacobi(&u(22), &p).unwrap(), 0);
    }

    #[test]
    fn jacobi_rejects_even_n() {
        assert!(jacobi(&u(3), &u(8)).is_err());
    }

    #[test]
    fn jacobi_composite() {
        // (2/15) = (2/3)(2/5) = (-1)(-1) = 1
        assert_eq!(jacobi(&u(2), &u(15)).unwrap(), 1);
        // (7/15): (7/3)=(1/3)=1, (7/5)=(2/5)=-1 -> -1
        assert_eq!(jacobi(&u(7), &u(15)).unwrap(), -1);
    }
}
