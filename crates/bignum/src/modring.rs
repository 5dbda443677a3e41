//! Plain modular arithmetic helpers: addition/subtraction/multiplication
//! modulo `n`, the extended Euclidean algorithm, modular inverses, and the
//! Jacobi symbol.
//!
//! These are ring-entry/ring-exit utilities; the hot exponentiation path
//! lives in [`crate::Mont`].

use crate::mont::{add_limbs, inv64, sub_limbs};
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

/// A signed magnitude wrapper used inside the extended Euclid loop.
#[derive(Clone, Debug)]
struct Signed {
    mag: UBig,
    neg: bool,
}

impl Signed {
    fn pos(mag: UBig) -> Self {
        Signed { mag, neg: false }
    }

    /// self - other
    fn sub(&self, other: &Signed) -> Signed {
        match (self.neg, other.neg) {
            (false, true) => Signed::pos(&self.mag + &other.mag),
            (true, false) => Signed {
                mag: &self.mag + &other.mag,
                neg: true,
            },
            (sn, _) => {
                // same sign: magnitude subtraction, sign flips if |other|>|self|
                if self.mag >= other.mag {
                    let mag = self.mag.sub(&other.mag);
                    let neg = sn && !mag.is_zero();
                    Signed { mag, neg }
                } else {
                    Signed {
                        mag: other.mag.sub(&self.mag),
                        neg: !sn,
                    }
                }
            }
        }
    }

    fn mul(&self, q: &UBig) -> Signed {
        Signed {
            mag: &self.mag * q,
            neg: self.neg && !q.is_zero(),
        }
    }
}

/// Extended GCD: returns `(g, x)` with `a*x ≡ g (mod n)` and `g = gcd(a, n)`.
///
/// `x` is returned already reduced into `[0, n)`.
pub fn ext_gcd_mod(a: &UBig, n: &UBig) -> Result<(UBig, UBig), BigError> {
    if n.is_zero() {
        return Err(BigError::DivideByZero);
    }
    let mut old_r = a.rem(n);
    let mut r = n.clone();
    let mut old_s = Signed::pos(UBig::one());
    let mut s = Signed::pos(UBig::zero());
    while !r.is_zero() {
        let (q, rem) = old_r.div_rem(&r);
        old_r = std::mem::replace(&mut r, rem);
        let new_s = old_s.sub(&s.mul(&q));
        old_s = std::mem::replace(&mut s, new_s);
    }
    // old_r = gcd, old_s = Bezout coefficient for a.
    let x = if old_s.neg {
        sub_mod(n, &old_s.mag.rem(n), n)
    } else {
        old_s.mag.rem(n)
    };
    Ok((old_r, x))
}

/// Modular inverse: `a^{-1} mod n`, failing when `gcd(a, n) != 1`.
///
/// An odd `n` — every RSA blinding modulus and the CRT's `q⁻¹ mod p` —
/// takes an in-place binary extended GCD over one limb buffer: no
/// division and no allocation inside the loop. An even `n` (in this
/// workspace only `e⁻¹ mod λ` during key generation, where the first
/// division already leaves word-sized operands) goes through
/// [`ext_gcd_mod`]. Both compute the same value.
pub fn inv_mod(a: &UBig, n: &UBig) -> Result<UBig, BigError> {
    if n.is_odd() {
        return inv_mod_odd(a, n);
    }
    let (g, x) = ext_gcd_mod(a, n)?;
    if g.is_one() {
        Ok(x)
    } else {
        Err(BigError::NotInvertible)
    }
}

/// Binary extended GCD for odd `n`, on four `n`-width registers carved
/// from one buffer.
///
/// Invariants: `xu·a ≡ u` and `xv·a ≡ v (mod n)`, `v` odd, `xu, xv < n`.
/// Each pass strips `u`'s trailing zero bits — dividing `xu` by the same
/// power of two modulo `n` — then subtracts the smaller of `u, v` from
/// the larger, until `u = 0` leaves `v = gcd(a, n)` and, when that is 1,
/// `xv = a⁻¹`.
fn inv_mod_odd(a: &UBig, n: &UBig) -> Result<UBig, BigError> {
    let nl = n.limbs();
    let s = nl.len();
    let neg_n0_inv = inv64(nl[0]).wrapping_neg();
    let reduced;
    let al = if a < n {
        a.limbs()
    } else {
        reduced = a.rem(n);
        reduced.limbs()
    };
    let mut buf = vec![0u64; 4 * s];
    let (mut u, rest) = buf.split_at_mut(s);
    let (mut v, rest) = rest.split_at_mut(s);
    let (mut xu, mut xv) = rest.split_at_mut(s);
    u[..al.len()].copy_from_slice(al);
    v.copy_from_slice(nl);
    xu[0] = 1;
    while u.iter().any(|&l| l != 0) {
        loop {
            // A zero low limb means at least 64 trailing zeros; take 63
            // of them now so every shift count stays in 1..=63.
            let k = if u[0] == 0 { 63 } else { u[0].trailing_zeros() };
            if k == 0 {
                break;
            }
            shr_in_place(u, k);
            div_pow2_mod(xu, nl, neg_n0_inv, k);
        }
        // Equal widths, so most-significant-first lexicographic order is
        // numeric order.
        if u.iter().rev().lt(v.iter().rev()) {
            std::mem::swap(&mut u, &mut v);
            std::mem::swap(&mut xu, &mut xv);
        }
        sub_limbs(u, v);
        if sub_limbs(xu, xv) {
            add_limbs(xu, nl); // the carry out cancels the borrow
        }
    }
    if v[0] == 1 && v[1..].iter().all(|&l| l == 0) {
        Ok(UBig::from_limbs(xv.to_vec()))
    } else {
        Err(BigError::NotInvertible)
    }
}

/// `a >>= k` for `1 <= k <= 63`.
fn shr_in_place(a: &mut [u64], k: u32) {
    for j in 0..a.len() - 1 {
        a[j] = (a[j] >> k) | (a[j + 1] << (64 - k));
    }
    *a.last_mut().expect("modulus width is at least one limb") >>= k;
}

/// `x = x / 2^k mod n` for odd `n`, `x < n`, `1 <= k <= 63`: adds the
/// multiple `m·n` (`m < 2^k`) that clears `x`'s low `k` bits, then shifts
/// them out — one fused pass. `x + m·n < 2^k·n`, so the result is `< n`.
fn div_pow2_mod(x: &mut [u64], n: &[u64], neg_n0_inv: u64, k: u32) {
    let m = x[0].wrapping_mul(neg_n0_inv) & ((1u64 << k) - 1);
    let cur = x[0] as u128 + m as u128 * n[0] as u128;
    let mut prev = cur as u64;
    let mut carry = cur >> 64;
    for j in 1..x.len() {
        let cur = x[j] as u128 + m as u128 * n[j] as u128 + carry;
        x[j - 1] = (prev >> k) | ((cur as u64) << (64 - k));
        prev = cur as u64;
        carry = cur >> 64;
    }
    *x.last_mut().expect("modulus width is at least one limb") =
        (prev >> k) | ((carry as u64) << (64 - k));
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

    #[test]
    fn inv_mod_small_field() {
        let p = u(101);
        for a in 1..101u64 {
            let inv = inv_mod(&u(a), &p).unwrap();
            assert_eq!(mul_mod(&u(a), &inv, &p), u(1), "a={a}");
        }
    }

    #[test]
    fn inv_mod_rejects_noncoprime() {
        assert_eq!(inv_mod(&u(6), &u(9)), Err(BigError::NotInvertible));
        assert_eq!(inv_mod(&u(0), &u(7)), Err(BigError::NotInvertible));
    }

    #[test]
    fn inv_mod_large() {
        let n = UBig::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = UBig::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let inv = inv_mod(&a, &n).unwrap();
        assert_eq!(mul_mod(&a, &inv, &n), UBig::one());
    }

    /// What Euclid says: the inverse when the gcd is 1, else `NotInvertible`.
    fn euclid_inv(a: &UBig, n: &UBig) -> Result<UBig, BigError> {
        let (g, x) = ext_gcd_mod(a, n)?;
        if g.is_one() {
            Ok(x)
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

    #[test]
    fn odd_modulus_inverse_matches_euclid() {
        for len in 1..=20usize {
            for seed in 0..4u64 {
                // n = 3 * 1009 * (odd cofactor) in exactly `len` limbs, so
                // shared factors exist.
                let mut cofactor = limbs(len, 7 * len as u64 + seed);
                cofactor[0] |= 1;
                cofactor[len - 1] >>= 12;
                let cofactor = UBig::from_limbs(cofactor);
                let n = &cofactor * &u(3 * 1009);
                assert_eq!(n.limb_len(), len);
                let x = UBig::from_limbs(limbs(len, 1000 + seed));
                let operands = [
                    u(0),
                    u(1),
                    u(2),
                    n.sub(&u(1)),
                    n.clone(),
                    &n + &u(1),
                    &(&n * &x) + &u(5),
                    x.clone(),
                    x.shl(200),
                    u(3),
                    &x * &u(1009),
                    cofactor.clone(),
                ];
                for a in &operands {
                    let got = inv_mod(a, &n);
                    assert_eq!(got, euclid_inv(a, &n), "len={len} a={a} n={n}");
                    if let Ok(inv) = got {
                        assert_eq!(mul_mod(a, &inv, &n), u(1));
                    }
                }
            }
        }
        // The smallest odd moduli, exhaustively.
        for n in [1u64, 3, 5, 7, 9, 15, 255, u64::MAX] {
            for a in (0..20).chain([n / 2, n - 1, n]) {
                assert_eq!(
                    inv_mod(&u(a), &u(n)),
                    euclid_inv(&u(a), &u(n)),
                    "{a} mod {n}"
                );
            }
        }
    }

    #[test]
    fn even_modulus_still_inverts() {
        // The key-generation shape: e^-1 mod lambda with lambda even.
        let lambda = &UBig::from_limbs(limbs(8, 99)) * &u(4);
        let e = u(65537);
        let d = inv_mod(&e, &lambda).unwrap();
        assert_eq!(mul_mod(&e, &d, &lambda), u(1));
        assert_eq!(inv_mod(&u(6), &lambda), Err(BigError::NotInvertible));
        assert_eq!(inv_mod(&u(3), &u(0)), Err(BigError::DivideByZero));
    }

    #[test]
    fn signed_sub_covers_every_sign_case() {
        let s = |v: i64| Signed {
            mag: u(v.unsigned_abs()),
            neg: v < 0,
        };
        for a in [-7i64, -3, 0, 3, 7] {
            for b in [-7i64, -3, 0, 3, 7] {
                let d = s(a).sub(&s(b));
                assert_eq!(d.mag, u((a - b).unsigned_abs()), "{a} - {b}");
                assert_eq!(d.neg, a - b < 0, "{a} - {b}");
            }
        }
    }

    #[test]
    fn ext_gcd_reports_gcd() {
        let (g, _) = ext_gcd_mod(&u(12), &u(18)).unwrap();
        assert_eq!(g, u(6));
        let (g, x) = ext_gcd_mod(&u(7), &u(13)).unwrap();
        assert_eq!(g, u(1));
        assert_eq!(mul_mod(&u(7), &x, &u(13)), u(1));
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
