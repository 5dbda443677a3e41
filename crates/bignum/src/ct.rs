//! Constant-time discipline, carried by a type: [`Secret`].
//!
//! A `Secret<T>` holds a value that no branch, no index and no
//! short-circuit may be taken on. It has no `PartialEq`, `Eq`, `Ord`,
//! `Hash`, `Display`, `Index`, `Deref` or conversion to `bool`, and its
//! `Debug` prints `Secret(..)`, so `if`, `match`, `while`, `&&`, `||`,
//! `table[i]` and `as usize` do not compile on one. What it has:
//!
//! * bit operations (`&`, `|`, `^`, `!`, `>>` by a public amount) and
//!   wrapping subtraction and negation on `Secret<u64>`, whose results
//!   stay secret;
//! * [`Secret::ct_eq`], an all-ones / all-zeros mask built without a
//!   comparison, and [`Secret::ct_select`], which picks under a mask;
//! * [`Secret::window`], a `Secret<u64>` digit of a `Secret<&UBig>`;
//! * [`ct_lookup`], the one table lookup under a secret index: it reads
//!   every entry and keeps one under a mask;
//! * one exit, [`Secret::declassify`]. Each call says in a comment why
//!   the value may be branched on from there: the exponent's bit length
//!   (a key-size parameter), the digits entering a vector register that
//!   is only ever a move mask, and the places where a secret still meets
//!   variable-time code (the blinding factor's inversion,
//!   `p2drm-crypto`'s `blind` module).
//!
//! # Where the boundary is
//!
//! `Secret` wraps the values a branch, an index or a short-circuit could
//! be taken on: exponents and their window digits, lookup indices, masks,
//! borrows and carries. Residue buffers stay `[u64]`: they flow only
//! through the branch-free product kernels (`Mont::mont_mul_into`,
//! `Mont::mont_sqr_into`, the `ifma` kernels) and are never branched on
//! or indexed by. A secret reaches a residue buffer only through this
//! module: [`ct_lookup`] writes the entry a secret index names, and the
//! final subtraction's carry chains ([`sub_borrow`], [`add_masked`]) take
//! and return their borrow, mask and carry as `Secret<u64>`. The RSA
//! CRT recombination in `p2drm-crypto` subtracts and adds its residues
//! modulo each prime through the same two. In the
//! `ifma` kernels the window digits enter a vector register through
//! `declassify`; that register and the compare masks made from it are
//! used only to pick table entries by masked moves, never branched on.
//!
//! `Secret<T>` is `#[repr(transparent)]` and every method is
//! `#[inline(always)]`, so the wrapped code compiles to what the bare
//! integer code did.
//!
//! # What does not compile
//!
//! A branch on a secret:
//!
//! ```compile_fail,E0369
//! use p2drm_bignum::ct::Secret;
//!
//! fn branch_on_secret(secret: Secret<u64>) -> u32 {
//!     if secret == 0 {
//!         return 1;
//!     }
//!     0
//! }
//! ```
//!
//! An index taken from a secret:
//!
//! ```compile_fail,E0277
//! use p2drm_bignum::ct::Secret;
//!
//! fn index_by_secret(table: &[u8], secret: Secret<u64>) -> u8 {
//!     table[secret & 0x0f]
//! }
//! ```
//!
//! A short-circuit on a secret:
//!
//! ```compile_fail,E0308
//! use p2drm_bignum::ct::Secret;
//!
//! fn short_circuit_on_secret(secret_bit: Secret<u64>, public_ok: bool) -> bool {
//!     let ok = public_ok && secret_bit;
//!     ok
//! }
//! ```
//!
//! A secret carried through two `let`s is still one:
//!
//! ```compile_fail,E0369
//! use p2drm_bignum::ct::Secret;
//! use p2drm_bignum::UBig;
//!
//! fn taint_flows_through_let(key: Secret<&UBig>) -> bool {
//!     let first = key.window(0, 8);
//!     let derived = first ^ 0x36;
//!     while derived != 0 {
//!         return true;
//!     }
//!     false
//! }
//! ```
//!
//! A sliding-window exponentiation in its leaky form fails on each of
//! its three patterns. The top window's entry read at an
//! exponent-derived index:
//!
//! ```compile_fail,E0605
//! use p2drm_bignum::ct::Secret;
//! use p2drm_bignum::UBig;
//!
//! fn top_window(table: &[Vec<u64>], exp: Secret<&UBig>, w: usize) -> Vec<u64> {
//!     let nwin = exp.declassify().bit_len().div_ceil(w);
//!     table[exp.window((nwin - 1) * w, w) as usize].clone()
//! }
//! ```
//!
//! A zero digit skipping its product:
//!
//! ```compile_fail,E0369
//! use p2drm_bignum::ct::Secret;
//! use p2drm_bignum::{Mont, UBig};
//!
//! fn skip_zero_digit(mont: &Mont, acc: Vec<u64>, entry: &[u64], exp: Secret<&UBig>) -> Vec<u64> {
//!     let d = exp.window(0, 4);
//!     if d != 0 {
//!         return mont.mont_mul(&acc, entry);
//!     }
//!     acc
//! }
//! ```
//!
//! And `table[d]` with `d` from the exponent:
//!
//! ```compile_fail,E0277
//! use p2drm_bignum::ct::Secret;
//! use p2drm_bignum::{Mont, UBig};
//!
//! fn indexed_entry(mont: &Mont, acc: &[u64], table: &[Vec<u64>], exp: Secret<&UBig>) -> Vec<u64> {
//!     let d = exp.window(0, 4);
//!     mont.mont_mul(acc, &table[d])
//! }
//! ```
//!
//! # What does
//!
//! The same code written branch-free compiles and runs:
//!
//! ```
//! use p2drm_bignum::ct::{ct_lookup, Secret};
//! use p2drm_bignum::mont::WINDOW;
//! use p2drm_bignum::{Mont, UBig};
//!
//! // A mask instead of a branch.
//! let branch_free_select = |secret: Secret<u64>| secret.ct_eq(0).ct_select(1, 0);
//! assert_eq!(branch_free_select(Secret::new(0)).declassify(), 1);
//! assert_eq!(branch_free_select(Secret::new(7)).declassify(), 0);
//!
//! // A masked scan instead of an index.
//! let table = [10u64, 11, 12, 13];
//! let mut out = [0u64];
//! ct_lookup(&table, Secret::new(2), &mut out);
//! assert_eq!(out, [12]);
//!
//! // A bit operation instead of a short-circuit.
//! let bitwise_combine = |secret_bit: Secret<u64>, public_ok: bool| secret_bit & public_ok as u64;
//! assert_eq!(bitwise_combine(Secret::new(1), true).declassify(), 1);
//!
//! // A branch on what is public, declassified with the reason.
//! let public_length_branch = |key: Secret<&[u8]>| {
//!     // Only the key length is branched on, never its bytes.
//!     key.declassify().len().min(64)
//! };
//! assert_eq!(public_length_branch(Secret::new(&[0u8; 80])), 64);
//!
//! // Fixed windows over the exponent's bit length: every window's entry
//! // comes from the scan and is multiplied in, zero digits included.
//! let n = UBig::from_u64(1_000_000_007);
//! let mont = Mont::new(&n).unwrap();
//! let (base, e) = (UBig::from_u64(3), UBig::from_u64(0x1f00_0a0b));
//! let exp = Secret::new(&e);
//! let table = mont.window_table(&mont.to_mont(&base));
//! // The bit length is a key-size parameter.
//! let windows = exp.declassify().bit_len().div_ceil(WINDOW);
//! let mut acc = vec![0u64; mont.limb_len()];
//! let mut entry = acc.clone();
//! ct_lookup(&table, exp.window((windows - 1) * WINDOW, WINDOW), &mut acc);
//! for w in (0..windows - 1).rev() {
//!     for _ in 0..WINDOW {
//!         acc = mont.mont_sqr(&acc);
//!     }
//!     ct_lookup(&table, exp.window(w * WINDOW, WINDOW), &mut entry);
//!     acc = mont.mont_mul(&acc, &entry);
//! }
//! assert_eq!(mont.from_mont(&acc), base.pow_mod(&e, &n).unwrap());
//! ```

use crate::ubig::UBig;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not, Shr};

/// A value no branch, index or short-circuit may be taken on (module
/// doc). [`Secret::declassify`] is the one way out.
#[repr(transparent)]
#[derive(Clone, Copy)]
pub struct Secret<T>(T);

impl<T> Secret<T> {
    /// Wraps `value`.
    #[inline(always)]
    pub const fn new(value: T) -> Self {
        Secret(value)
    }

    /// The wrapped value by reference, still secret.
    #[inline(always)]
    pub fn as_ref(&self) -> Secret<&T> {
        Secret(&self.0)
    }

    /// The wrapped value, from here on free to be branched on. Every call
    /// says in a comment why that is allowed.
    #[inline(always)]
    pub fn declassify(self) -> T {
        self.0
    }
}

/// A public word mixed into secret arithmetic (`secret & 0x0f`,
/// `mask.ct_select(1, 0)`) is a secret operand.
impl From<u64> for Secret<u64> {
    #[inline(always)]
    fn from(value: u64) -> Self {
        Secret(value)
    }
}

impl<T> fmt::Debug for Secret<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Secret(..)")
    }
}

impl Secret<u64> {
    /// `self − rhs`, wrapping.
    #[inline(always)]
    pub fn wrapping_sub(self, rhs: impl Into<Secret<u64>>) -> Self {
        Secret(self.0.wrapping_sub(rhs.into().0))
    }

    /// `−self`, wrapping: all ones from 1, zero from 0.
    #[inline(always)]
    pub fn wrapping_neg(self) -> Self {
        Secret(self.0.wrapping_neg())
    }

    /// All ones when `self == other`, zero otherwise, without a
    /// comparison: `diff | −diff` has its top bit set exactly when `diff`
    /// is not zero.
    #[inline(always)]
    pub fn ct_eq(self, other: impl Into<Secret<u64>>) -> Self {
        let diff = self ^ other;
        ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1)
    }

    /// `a` where the mask `self` is all ones, `b` where it is zero.
    #[inline(always)]
    pub fn ct_select(self, a: impl Into<Secret<u64>>, b: impl Into<Secret<u64>>) -> Self {
        (self & a) | (!self & b)
    }
}

impl Secret<&UBig> {
    /// The `width` bits of the value from bit `at` on (`width` in
    /// `1..=32`): a window digit, still secret.
    #[inline(always)]
    pub fn window(self, at: usize, width: usize) -> Secret<u64> {
        Secret(self.0.bits_at(at, width))
    }
}

macro_rules! secret_bit_ops {
    ($($Op:ident $op:ident $sym:tt),*) => {$(
        impl<R: Into<Secret<u64>>> $Op<R> for Secret<u64> {
            type Output = Self;

            #[inline(always)]
            fn $op(self, rhs: R) -> Self {
                Secret(self.0 $sym rhs.into().0)
            }
        }
    )*};
}

secret_bit_ops!(BitAnd bitand &, BitOr bitor |, BitXor bitxor ^);

impl Not for Secret<u64> {
    type Output = Self;

    #[inline(always)]
    fn not(self) -> Self {
        Secret(!self.0)
    }
}

impl Shr<u32> for Secret<u64> {
    type Output = Self;

    #[inline(always)]
    fn shr(self, by: u32) -> Self {
        Secret(self.0 >> by)
    }
}

/// Copies entry `index` of `table` (entries of `out.len()` limbs, one
/// after another) into `out` by reading every entry and keeping the one
/// whose position equals `index` under a mask: which entry is taken
/// changes no address read and no branch taken.
pub fn ct_lookup(table: &[u64], index: Secret<u64>, out: &mut [u64]) {
    out.fill(0);
    for (i, entry) in (0u64..).zip(table.chunks_exact(out.len())) {
        let mask = index.ct_eq(i).0;
        for (o, &e) in out.iter_mut().zip(entry) {
            *o |= e & mask;
        }
    }
}

/// `t −= n` over equal-width limbs; returns the borrow out, 0 or 1.
#[inline(always)]
pub fn sub_borrow(t: &mut [u64], n: &[u64]) -> Secret<u64> {
    let mut borrow = Secret(0u64);
    for (tj, &nj) in t.iter_mut().zip(n) {
        let (d1, b1) = tj.overflowing_sub(nj);
        let (d2, b2) = d1.overflowing_sub(borrow.0);
        *tj = d2;
        borrow = Secret((b1 | b2) as u64);
    }
    borrow
}

/// `t += n & mask` over equal-width limbs; returns the carry out, 0 or 1.
#[inline(always)]
pub fn add_masked(t: &mut [u64], n: &[u64], mask: Secret<u64>) -> Secret<u64> {
    let mut carry = Secret(0u64);
    for (tj, &nj) in t.iter_mut().zip(n) {
        let (s1, c1) = tj.overflowing_add(nj & mask.0);
        let (s2, c2) = s1.overflowing_add(carry.0);
        *tj = s2;
        carry = Secret((c1 | c2) as u64);
    }
    carry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_and_ct_select_are_masks() {
        for (a, b) in [
            (0u64, 0u64),
            (0, 1),
            (1, 0),
            (u64::MAX, u64::MAX),
            (7, 1 << 63),
        ] {
            let eq = Secret::new(a).ct_eq(b).declassify();
            assert_eq!(eq, if a == b { u64::MAX } else { 0 }, "{a} {b}");
            let pick = Secret::new(eq).ct_select(a, b).declassify();
            assert_eq!(pick, if a == b { a } else { b });
        }
    }

    #[test]
    fn ct_lookup_reads_the_indexed_entry() {
        let table: Vec<u64> = (0..48).collect();
        for i in 0..16u64 {
            let mut out = [0u64; 3];
            ct_lookup(&table, Secret::new(i), &mut out);
            assert_eq!(out, [3 * i, 3 * i + 1, 3 * i + 2]);
        }
        let mut out = [9u64; 3];
        ct_lookup(&table, Secret::new(16), &mut out);
        assert_eq!(out, [0; 3], "an index past the table keeps nothing");
    }

    #[test]
    fn carry_chains_match_wide_arithmetic() {
        let n = [u64::MAX, 5];
        for t0 in [[0u64, 0], [1, 5], [u64::MAX, 5], [3, 9]] {
            let wide = |x: [u64; 2]| x[0] as u128 | (x[1] as u128) << 64;
            let mut t = t0;
            let borrow = sub_borrow(&mut t, &n).declassify();
            assert_eq!(wide(t), wide(t0).wrapping_sub(wide(n)));
            assert_eq!(borrow, (wide(t0) < wide(n)) as u64);
            let carry = add_masked(&mut t, &n, Secret::new(borrow).wrapping_neg());
            assert_eq!(carry.declassify(), borrow, "adding back cancels the borrow");
            let want = if borrow == 1 { t0 } else { t };
            assert_eq!(t, want);
        }
    }

    #[test]
    fn debug_hides_the_value() {
        assert_eq!(format!("{:?}", Secret::new(42u64)), "Secret(..)");
    }
}
