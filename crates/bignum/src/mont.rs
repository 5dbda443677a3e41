//! Montgomery reduction context (CIOS) for fast modular exponentiation.
//!
//! All RSA/ElGamal exponentiations in the workspace route through [`Mont`].
//! The context is built once per modulus and reused; conversion in and out of
//! Montgomery form happens at the boundary only — and callers that chain
//! several modular operations can stay in form across all of them with the
//! [`MontForm`] value type.
//!
//! # Kernel layers
//!
//! The hot path is built from two allocation-free primitives that write into
//! caller-provided buffers:
//!
//! * [`Mont::mont_mul_into`] — the CIOS product `a·b·R⁻¹ mod n`;
//! * [`Mont::mont_sqr_into`] — a dedicated squaring that halves the
//!   partial-product work by exploiting `a[i]·a[j] = a[j]·a[i]`, followed by
//!   a separate (SOS) Montgomery reduction.
//!
//! [`Mont::pow`] picks its window width from the exponent bit length, scans
//! exponent bits limb-wise, and performs **zero heap allocations in its
//! square-and-multiply main loop** (all buffers — the window table, the
//! accumulator, and the shared scratch — are allocated once up front; a
//! counting-allocator regression test in `tests/alloc_counter.rs` enforces
//! this). Tests check it against [`UBig::pow_mod`], the division-based
//! square-and-multiply that shares no code with this module.

use crate::ubig::UBig;
use crate::BigError;

/// A value held in Montgomery form (`x·R mod n`) for some [`Mont`] context.
///
/// Produced by [`Mont::to_form`] and consumed by the `form_*` family of
/// methods, it lets a caller pay the to/from-form conversions once per
/// *computation* instead of once per *operation* — e.g. the RSA-CRT
/// recombination keeps `q⁻¹ mod p` in form permanently, turning what used
/// to be four Montgomery products per signature into one.
///
/// A `MontForm` is only meaningful with the context that created it; mixing
/// contexts of the same limb width produces garbage values (debug builds
/// catch width mismatches).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontForm {
    limbs: Vec<u64>,
}

impl MontForm {
    /// The raw Montgomery-form limbs (little-endian, modulus width).
    #[inline]
    pub(crate) fn as_limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Consumes the value, returning the raw Montgomery-form limbs.
    #[inline]
    pub fn into_limbs(self) -> Vec<u64> {
        self.limbs
    }
}

/// Montgomery arithmetic context for an odd modulus `n >= 3`.
#[derive(Clone, Debug)]
pub struct Mont {
    /// Modulus limbs (little-endian), length `s`.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64 s)`, used to enter Montgomery form.
    rr: Vec<u64>,
    /// `1` in Montgomery form (`R mod n`).
    one: Vec<u64>,
}

impl Mont {
    /// Builds a context for `modulus` (must be odd and >= 3).
    pub fn new(modulus: &UBig) -> Result<Self, BigError> {
        if modulus.is_even() || modulus.bit_len() < 2 {
            return Err(BigError::BadModulus);
        }
        let n = modulus.limbs().to_vec();
        let s = n.len();
        let n0inv = inv64(n[0]).wrapping_neg();
        // R^2 mod n computed as 2^(128 s) mod n via shifting.
        let rr_big = UBig::one().shl(128 * s).rem(modulus);
        let one_big = UBig::one().shl(64 * s).rem(modulus);
        Ok(Mont {
            rr: pad(rr_big.limbs(), s),
            one: pad(one_big.limbs(), s),
            n,
            n0inv,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> UBig {
        UBig::from_limbs(self.n.clone())
    }

    /// Number of limbs in the modulus.
    #[inline]
    pub fn limb_len(&self) -> usize {
        self.n.len()
    }

    /// Length of the scratch slice the `*_into` kernels require.
    #[inline]
    pub fn scratch_len(&self) -> usize {
        // mont_mul_into needs s + 2; mont_sqr_into needs 2 s.
        (2 * self.n.len()).max(self.n.len() + 2)
    }

    /// Allocates a scratch buffer sized for this context's `*_into`
    /// kernels — **empty** when the width dispatches to a fixed-width
    /// kernel (4/8/16/32 limbs), which keeps its state on the stack and
    /// never reads the scratch slice.
    pub fn alloc_scratch(&self) -> Vec<u64> {
        if has_fixed_kernel(self.n.len()) {
            Vec::new()
        } else {
            vec![0u64; self.scratch_len()]
        }
    }

    /// Reduces `x` modulo `n` if needed and pads to modulus width.
    fn reduce_pad(&self, x: &UBig) -> Vec<u64> {
        if x.bit_len() > 64 * self.n.len() || Self::geq(x.limbs(), &self.n) {
            pad(x.rem(&self.modulus()).limbs(), self.n.len())
        } else {
            pad(x.limbs(), self.n.len())
        }
    }

    /// Converts `x` (reduced mod n if needed) into Montgomery form.
    pub fn to_mont(&self, x: &UBig) -> Vec<u64> {
        let xm = self.reduce_pad(x);
        self.mont_mul(&xm, &self.rr)
    }

    /// Converts a Montgomery-form value back to the plain representative.
    pub fn from_mont(&self, xm: &[u64]) -> UBig {
        let mut one = vec![0u64; self.n.len()];
        one[0] = 1;
        UBig::from_limbs(self.mont_mul(xm, &one))
    }

    /// Enters Montgomery form as a [`MontForm`] value.
    pub fn to_form(&self, x: &UBig) -> MontForm {
        MontForm {
            limbs: self.to_mont(x),
        }
    }

    /// Leaves Montgomery form.
    pub fn from_form(&self, f: &MontForm) -> UBig {
        self.from_mont(&f.limbs)
    }

    /// `1` in Montgomery form.
    pub fn one_form(&self) -> MontForm {
        MontForm {
            limbs: self.one.clone(),
        }
    }

    /// Product of two Montgomery-form values, staying in form.
    pub fn form_mul(&self, a: &MontForm, b: &MontForm) -> MontForm {
        MontForm {
            limbs: self.mont_mul(&a.limbs, &b.limbs),
        }
    }

    /// `a_plain · x mod n` where `a` is held in Montgomery form: a single
    /// Montgomery product (`mont_mul(a·R, x) = a·x`), with both the entry
    /// and exit conversions cancelled. This is the `MontForm` replacement
    /// for [`Mont::mul_mod`] when one factor is a long-lived constant
    /// (e.g. `q⁻¹ mod p` in the RSA CRT).
    pub fn form_mul_plain(&self, a: &MontForm, x: &UBig) -> UBig {
        debug_assert_eq!(a.limbs.len(), self.n.len());
        let xm = self.reduce_pad(x);
        UBig::from_limbs(self.mont_mul(&a.limbs, &xm))
    }

    fn geq(a: &[u64], n: &[u64]) -> bool {
        if a.len() != n.len() {
            return a.len() > n.len();
        }
        for i in (0..n.len()).rev() {
            if a[i] != n[i] {
                return a[i] > n[i];
            }
        }
        true // equal counts as >=
    }

    /// Montgomery product `a * b * R^{-1} mod n` (CIOS), allocating the
    /// result. Prefer [`Mont::mont_mul_into`] on hot paths.
    pub fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.n.len()];
        let mut scratch = self.alloc_scratch();
        self.mont_mul_into(a, b, &mut out, &mut scratch);
        out
    }

    /// Montgomery square `a * a * R^{-1} mod n`, allocating the result.
    /// Prefer [`Mont::mont_sqr_into`] on hot paths.
    pub fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.n.len()];
        let mut scratch = self.alloc_scratch();
        self.mont_sqr_into(a, &mut out, &mut scratch);
        out
    }

    /// Allocation-free CIOS Montgomery product: `out = a * b * R^{-1} mod n`.
    ///
    /// `a` and `b` must be modulus-width reduced limbs; `out` must be
    /// modulus-width and distinct from `a`/`b`; `scratch` must be at least
    /// [`Mont::scratch_len`] long.
    ///
    /// The common widths (4/8/16/32 limbs — every RSA/ElGamal size in the
    /// workspace, including the CRT primes) dispatch to monomorphized
    /// fixed-width kernels whose loops fully unroll and whose state lives
    /// in stack arrays (no bounds checks, no scratch traffic); other
    /// widths fall back to the dynamic-length loop.
    pub fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let s = self.n.len();
        debug_assert_eq!(a.len(), s);
        debug_assert_eq!(b.len(), s);
        debug_assert_eq!(out.len(), s);
        match s {
            4 => return fixed::mul4(arr(&self.n), self.n0inv, arr(a), arr(b), arr_mut(out)),
            8 => return fixed::mul8(arr(&self.n), self.n0inv, arr(a), arr(b), arr_mut(out)),
            16 => return fixed::mul16(arr(&self.n), self.n0inv, arr(a), arr(b), arr_mut(out)),
            32 => return fixed::mul32(arr(&self.n), self.n0inv, arr(a), arr(b), arr_mut(out)),
            _ => {}
        }
        self.mont_mul_dyn(a, b, out, scratch)
    }

    /// Dynamic-width CIOS product (uncommon widths).
    #[allow(clippy::needless_range_loop)] // t and n are indexed in lockstep
    fn mont_mul_dyn(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let s = self.n.len();
        let t = &mut scratch[..s + 2];
        t.fill(0);
        for &bi in b.iter() {
            // t += a * b[i]
            let mut carry: u128 = 0;
            for j in 0..s {
                let cur = t[j] as u128 + a[j] as u128 * bi as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[s] as u128 + carry;
            t[s] = cur as u64;
            t[s + 1] = (cur >> 64) as u64;

            // m = t[0] * n' mod 2^64; t = (t + m*n) / 2^64
            let m = t[0].wrapping_mul(self.n0inv);
            let mut carry: u128 = (t[0] as u128 + m as u128 * self.n[0] as u128) >> 64;
            for j in 1..s {
                let cur = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[s] as u128 + carry;
            t[s - 1] = cur as u64;
            let cur2 = t[s + 1] as u128 + (cur >> 64);
            t[s] = cur2 as u64;
            t[s + 1] = 0;
        }
        // Conditional final subtraction brings t into [0, n).
        let extra = t[s];
        out.copy_from_slice(&t[..s]);
        reduce_once(out, &self.n, extra);
    }

    /// Allocation-free dedicated Montgomery squaring:
    /// `out = a * a * R^{-1} mod n`.
    ///
    /// Computes the full square with the symmetric-product optimization
    /// (each cross product `a[i]·a[j]`, `i < j`, is formed once and
    /// doubled, roughly halving the multiplication count versus
    /// [`Mont::mont_mul_into`] on the same operands), then applies a
    /// separate (SOS) Montgomery reduction. Common widths dispatch to the
    /// monomorphized fixed-width kernels; requirements as for
    /// [`Mont::mont_mul_into`].
    pub fn mont_sqr_into(&self, a: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let s = self.n.len();
        debug_assert_eq!(a.len(), s);
        debug_assert_eq!(out.len(), s);
        match s {
            4 => return fixed::sqr4(arr(&self.n), self.n0inv, arr(a), arr_mut(out)),
            8 => return fixed::sqr8(arr(&self.n), self.n0inv, arr(a), arr_mut(out)),
            16 => return fixed::sqr16(arr(&self.n), self.n0inv, arr(a), arr_mut(out)),
            32 => return fixed::sqr32(arr(&self.n), self.n0inv, arr(a), arr_mut(out)),
            _ => {}
        }
        self.mont_sqr_dyn(a, out, scratch)
    }

    /// Dynamic-width SOS squaring (uncommon widths).
    #[allow(clippy::needless_range_loop)] // t, a and n are indexed in lockstep
    fn mont_sqr_dyn(&self, a: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let s = self.n.len();
        let t = &mut scratch[..2 * s];
        t.fill(0);

        // Cross products a[i]*a[j] for i < j.
        for i in 0..s {
            let ai = a[i];
            if ai == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in (i + 1)..s {
                let cur = t[i + j] as u128 + ai as u128 * a[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Position i + s is untouched by earlier iterations.
            t[i + s] = carry as u64;
        }

        // Double the cross products (they occur twice in the square).
        let mut dcarry = 0u64;
        for limb in t.iter_mut() {
            let v = *limb;
            *limb = (v << 1) | dcarry;
            dcarry = v >> 63;
        }
        debug_assert_eq!(dcarry, 0, "2 * cross products < a^2 < R^2");

        // Add the diagonal terms a[i]^2 at position 2i.
        let mut carry = 0u64;
        for i in 0..s {
            let sq = a[i] as u128 * a[i] as u128;
            let cur = t[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
            t[2 * i] = cur as u64;
            let cur2 = t[2 * i + 1] as u128 + (sq >> 64) + (cur >> 64);
            t[2 * i + 1] = cur2 as u64;
            carry = (cur2 >> 64) as u64;
        }
        debug_assert_eq!(carry, 0, "a^2 fits in 2s limbs");

        // Separate Montgomery reduction (SOS): fold in m_i * n limb by
        // limb. Row i's final carry lands in cell i+s; any ripple beyond
        // it targets cell i+s+1, which is exactly the next row's final
        // cell — one `pending` register replaces a propagation loop.
        let mut pending = 0u64;
        for i in 0..s {
            let m = t[i].wrapping_mul(self.n0inv);
            let mut carry: u128 = 0;
            for j in 0..s {
                let cur = t[i + j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[i + s] as u128 + carry + pending as u128;
            t[i + s] = cur as u64;
            pending = (cur >> 64) as u64;
        }
        // Result = t[s..2s] + pending * 2^(64 s), conditionally minus n.
        out.copy_from_slice(&t[s..2 * s]);
        reduce_once(out, &self.n, pending);
    }

    /// `base^exp mod n`: [`Mont::pow_u64`] for machine-word exponents,
    /// the windowed [`Mont::pow_form`] otherwise.
    pub fn pow(&self, base: &UBig, exp: &UBig) -> UBig {
        if exp.is_zero() {
            return UBig::one().rem(&self.modulus());
        }
        if let Some(e) = exp.to_u64() {
            return self.pow_u64(base, e);
        }
        self.from_form(&self.pow_form(&self.to_form(base), exp))
    }

    /// `base^exp mod n` for machine-word exponents: plain left-to-right
    /// square-and-multiply with no window table. For sparse exponents such
    /// as the RSA verification exponent `e = 65537` (two set bits) this is
    /// the fastest shape: 16 squarings and one multiplication, with zero
    /// allocations in the loop.
    pub fn pow_u64(&self, base: &UBig, exp: u64) -> UBig {
        if exp == 0 {
            return UBig::one().rem(&self.modulus());
        }
        let s = self.n.len();
        let bm = self.to_mont(base);
        let mut acc = bm.clone();
        let mut tmp = vec![0u64; s];
        let mut scratch = self.alloc_scratch();
        let bits = 64 - exp.leading_zeros() as usize;
        for i in (0..bits - 1).rev() {
            self.mont_sqr_into(&acc, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
            if (exp >> i) & 1 == 1 {
                self.mont_mul_into(&acc, &bm, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        self.from_mont(&acc)
    }

    /// `2^exp mod n` as a left-to-right square-and-**double** ladder: one
    /// dedicated squaring per exponent bit and, on a set bit, a limb shift
    /// with a conditional subtraction where a generic base pays a
    /// Montgomery product. No window table, nothing allocated in the loop.
    /// This is the base-2 Miller–Rabin witness, the round that rejects
    /// almost every composite that survives trial division.
    pub(crate) fn pow2(&self, exp: &UBig) -> UBig {
        if exp.is_zero() {
            return UBig::one().rem(&self.modulus());
        }
        // The exponent's top bit: 2^1 in Montgomery form.
        let mut acc = self.one.clone();
        self.double_mod(&mut acc);
        let mut tmp = vec![0u64; self.n.len()];
        let mut scratch = self.alloc_scratch();
        for i in (0..exp.bit_len() - 1).rev() {
            self.mont_sqr_into(&acc, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
            if exp.bit(i) {
                self.double_mod(&mut acc);
            }
        }
        self.from_mont(&acc)
    }

    /// `a = 2a mod n` in place for a reduced modulus-width `a` (plain or
    /// Montgomery form alike: doubling commutes with the factor `R`).
    fn double_mod(&self, a: &mut [u64]) {
        let mut carry = 0u64;
        for limb in a.iter_mut() {
            let v = *limb;
            *limb = (v << 1) | carry;
            carry = v >> 63;
        }
        reduce_once(a, &self.n, carry);
    }

    /// `a = a + b mod n` in place; like the two helpers below, for reduced
    /// modulus-width operands in either form (the ring operations of the
    /// Lucas sequence in `prime`, which multiplies in Montgomery form).
    pub(crate) fn add_mod(&self, a: &mut [u64], b: &[u64]) {
        let carry = add_limbs(a, b);
        reduce_once(a, &self.n, carry as u64);
    }

    /// `a = a - b mod n` in place.
    pub(crate) fn sub_mod(&self, a: &mut [u64], b: &[u64]) {
        if sub_limbs(a, b) {
            add_limbs(a, &self.n); // the carry out cancels the borrow
        }
    }

    /// `a = a / 2 mod n` in place: an odd `a` becomes the even `a + n`
    /// first.
    pub(crate) fn halve_mod(&self, a: &mut [u64]) {
        let mut top = (a[0] & 1 == 1 && add_limbs(a, &self.n)) as u64;
        for limb in a.iter_mut().rev() {
            let v = *limb;
            *limb = (v >> 1) | (top << 63);
            top = v & 1;
        }
    }

    /// `base^exp` entirely in Montgomery form: fixed-window
    /// square-and-multiply with the window width chosen from the exponent
    /// bit length, limb-wise window extraction (no per-bit [`UBig::bit`]
    /// calls), dedicated squarings, and zero heap allocations in the main
    /// loop (table, accumulator and scratch are allocated once up front).
    pub fn pow_form(&self, base: &MontForm, exp: &UBig) -> MontForm {
        // lint: secret(exp)
        let s = self.n.len();
        debug_assert_eq!(base.limbs.len(), s);
        // lint: public(zero-ness and bit length of the exponent are key-size parameters)
        if exp.is_zero() {
            return self.one_form();
        }
        let bits = exp.bit_len();
        let w = window_bits(bits);
        let tsize = 1usize << w;
        let mut scratch = self.alloc_scratch();
        // table[d] = base^d in Montgomery form.
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(tsize);
        table.push(self.one.clone());
        table.push(base.limbs.clone());
        for i in 2..tsize {
            let mut next = vec![0u64; s];
            self.mont_mul_into(&table[i - 1], &base.limbs, &mut next, &mut scratch);
            table.push(next);
        }
        let nwin = bits.div_ceil(w);
        // The top window contains the exponent's top set bit, so the
        // accumulator starts from a table entry (never from 1).
        let mut acc = table[exp.bits_at((nwin - 1) * w, w) as usize].clone();
        let mut tmp = vec![0u64; s];
        for win in (0..nwin - 1).rev() {
            for _ in 0..w {
                self.mont_sqr_into(&acc, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let d = exp.bits_at(win * w, w) as usize;
            if d != 0 {
                self.mont_mul_into(&acc, &table[d], &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        MontForm { limbs: acc }
    }

    /// Modular multiplication `a * b mod n` through Montgomery form.
    ///
    /// Uses the identity `mont_mul(a·R, b) = a·b mod n`: only one operand
    /// is converted into form and no exit conversion is needed — two
    /// Montgomery products total instead of the four a naive
    /// enter-multiply-exit sequence costs.
    pub fn mul_mod(&self, a: &UBig, b: &UBig) -> UBig {
        let am = self.to_mont(a);
        let bm = self.reduce_pad(b);
        UBig::from_limbs(self.mont_mul(&am, &bm))
    }
}

/// True when width `s` dispatches to a monomorphized fixed-width kernel
/// (which keeps all state on the stack and ignores the scratch slice).
#[inline(always)]
fn has_fixed_kernel(s: usize) -> bool {
    matches!(s, 4 | 8 | 16 | 32)
}

/// Reinterprets a slice of known length as a fixed-size array reference.
#[inline(always)]
fn arr<const S: usize>(s: &[u64]) -> &[u64; S] {
    s.try_into().expect("width checked by dispatch")
}

/// Mutable variant of [`arr`].
#[inline(always)]
fn arr_mut<const S: usize>(s: &mut [u64]) -> &mut [u64; S] {
    s.try_into().expect("width checked by dispatch")
}

/// Monomorphized fixed-width Montgomery kernels. Each width gets its own
/// copy of the CIOS product and SOS squaring with every buffer a stack
/// array of literal size: the compiler unrolls the loops, elides all
/// bounds checks and keeps carries in registers — which is worth 2-3× at
/// the small widths the RSA CRT runs at (4 limbs for 512-bit keys).
/// Widths are generated for 4/8/16/32 limbs (256/512/1024/2048 bits).
mod fixed {
    macro_rules! fixed_kernels {
        ($mul:ident, $sqr:ident, $s:literal) => {
            /// CIOS product at width `$s` (see `Mont::mont_mul_into`).
            #[inline]
            pub(super) fn $mul(
                n: &[u64; $s],
                n0inv: u64,
                a: &[u64; $s],
                b: &[u64; $s],
                out: &mut [u64; $s],
            ) {
                const S: usize = $s;
                let mut t = [0u64; S];
                let mut t_hi = 0u64; // limb S of the running sum
                for &bi in b.iter() {
                    // t += a * b[i]
                    let mut carry: u128 = 0;
                    for j in 0..S {
                        let cur = t[j] as u128 + a[j] as u128 * bi as u128 + carry;
                        t[j] = cur as u64;
                        carry = cur >> 64;
                    }
                    let cur = t_hi as u128 + carry;
                    t_hi = cur as u64;
                    let t_hi2 = (cur >> 64) as u64; // limb S+1

                    // m = t[0] * n' mod 2^64; t = (t + m*n) / 2^64
                    let m = t[0].wrapping_mul(n0inv);
                    let mut carry: u128 = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
                    for j in 1..S {
                        let cur = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                        t[j - 1] = cur as u64;
                        carry = cur >> 64;
                    }
                    let cur = t_hi as u128 + carry;
                    t[S - 1] = cur as u64;
                    t_hi = t_hi2.wrapping_add((cur >> 64) as u64);
                }
                super::reduce_once(&mut t, n, t_hi);
                *out = t;
            }

            /// SOS squaring at width `$s` (see `Mont::mont_sqr_into`).
            #[inline]
            pub(super) fn $sqr(n: &[u64; $s], n0inv: u64, a: &[u64; $s], out: &mut [u64; $s]) {
                const S: usize = $s;
                let mut t = [0u64; 2 * $s];
                // Cross products a[i]*a[j] for i < j.
                for i in 0..S {
                    let ai = a[i];
                    let mut carry: u128 = 0;
                    for j in (i + 1)..S {
                        let cur = t[i + j] as u128 + ai as u128 * a[j] as u128 + carry;
                        t[i + j] = cur as u64;
                        carry = cur >> 64;
                    }
                    t[i + S] = carry as u64;
                }
                // Double (cross products occur twice), then add diagonals.
                let mut dcarry = 0u64;
                for limb in t.iter_mut() {
                    let v = *limb;
                    *limb = (v << 1) | dcarry;
                    dcarry = v >> 63;
                }
                let mut carry = 0u64;
                for i in 0..S {
                    let sq = a[i] as u128 * a[i] as u128;
                    let cur = t[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
                    t[2 * i] = cur as u64;
                    let cur2 = t[2 * i + 1] as u128 + (sq >> 64) + (cur >> 64);
                    t[2 * i + 1] = cur2 as u64;
                    carry = (cur2 >> 64) as u64;
                }
                // Montgomery reduction (SOS). Row i's final carry lands in
                // cell i+S; any ripple beyond it targets cell i+S+1, which
                // is exactly the *next* row's final cell — so one `pending`
                // register replaces a propagation loop.
                let mut pending = 0u64;
                for i in 0..S {
                    let m = t[i].wrapping_mul(n0inv);
                    let mut carry: u128 = 0;
                    for j in 0..S {
                        let cur = t[i + j] as u128 + m as u128 * n[j] as u128 + carry;
                        t[i + j] = cur as u64;
                        carry = cur >> 64;
                    }
                    let cur = t[i + S] as u128 + carry + pending as u128;
                    t[i + S] = cur as u64;
                    pending = (cur >> 64) as u64;
                }
                out.copy_from_slice(&t[S..2 * S]);
                super::reduce_once(out, n, pending);
            }
        };
    }

    fixed_kernels!(mul4, sqr4, 4);
    fixed_kernels!(mul8, sqr8, 8);
    fixed_kernels!(mul16, sqr16, 16);
    fixed_kernels!(mul32, sqr32, 32);
}

/// `a += b` over equal-width limbs; returns whether it carried out.
#[inline]
pub(crate) fn add_limbs(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *x = s2;
        carry = c1 | c2;
    }
    carry
}

/// `a -= b` over equal-width limbs; returns whether it borrowed out.
#[inline]
pub(crate) fn sub_limbs(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = b1 | b2;
    }
    borrow
}

/// Brings `t + extra·2^(64·len)` into `[0, n)` given it is `< 2n`:
/// conditionally subtracts `n` once.
#[inline(always)]
fn reduce_once(t: &mut [u64], n: &[u64], extra: u64) {
    let needs = extra != 0 || {
        // t >= n?
        let mut ge = true;
        for i in (0..n.len()).rev() {
            if t[i] != n[i] {
                ge = t[i] > n[i];
                break;
            }
        }
        ge
    };
    if needs {
        let mut borrow = 0u64;
        for (tj, &nj) in t.iter_mut().zip(n.iter()) {
            let (d1, b1) = tj.overflowing_sub(nj);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *tj = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(extra.wrapping_sub(borrow), 0, "result must be < n");
    }
}

/// Window width for a fixed-window exponentiation of `bits`-bit exponents,
/// minimizing squarings + multiplications (table build included).
fn window_bits(bits: usize) -> usize {
    if bits <= 16 {
        1
    } else if bits <= 48 {
        2
    } else if bits <= 144 {
        3
    } else if bits <= 400 {
        4
    } else if bits <= 1024 {
        5
    } else {
        6
    }
}

/// Inverse of an odd `x` modulo 2^64 (Newton iteration, 6 steps).
pub(crate) fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

fn pad(limbs: &[u64], len: usize) -> Vec<u64> {
    let mut v = limbs.to_vec();
    v.resize(len, 0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_or_tiny_modulus() {
        assert!(Mont::new(&UBig::from_u64(10)).is_err());
        assert!(Mont::new(&UBig::from_u64(0)).is_err());
        assert!(Mont::new(&UBig::from_u64(1)).is_err());
        assert!(Mont::new(&UBig::from_u64(3)).is_ok());
    }

    #[test]
    fn inv64_is_inverse() {
        for x in [1u64, 3, 5, 0xdeadbeefdeadbeef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv64(x)), 1);
        }
    }

    #[test]
    fn roundtrip_mont_form() {
        let m = Mont::new(&UBig::from_u64(1_000_000_007)).unwrap();
        for v in [0u64, 1, 2, 999, 1_000_000_006] {
            let x = UBig::from_u64(v);
            assert_eq!(m.from_mont(&m.to_mont(&x)), x);
            assert_eq!(m.from_form(&m.to_form(&x)), x);
        }
    }

    #[test]
    fn to_mont_reduces_large_inputs() {
        let m = Mont::new(&UBig::from_u64(97)).unwrap();
        let x = UBig::from_u64(97 * 5 + 13);
        assert_eq!(m.from_mont(&m.to_mont(&x)).to_u64(), Some(13));
    }

    #[test]
    fn mul_mod_matches_plain() {
        let n = UBig::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let m = Mont::new(&n).unwrap();
        let a = UBig::from_hex("deadbeefcafebabe112233445566").unwrap();
        let b = UBig::from_hex("aabbccddeeff00112233445566778899a").unwrap();
        let expect = (&a * &b).rem(&n);
        assert_eq!(m.mul_mod(&a, &b), expect);
    }

    #[test]
    fn mont_sqr_matches_mont_mul_self() {
        let n = UBig::from_hex("c2446bf4ccd64d8b34a8a8f4e4ab7d1bb1e2f7c8d9a0b1c2d3e4f5a6b7c8d9e1")
            .unwrap();
        let m = Mont::new(&n).unwrap();
        for seed in 1u64..20 {
            let a = UBig::from_u64(seed)
                .mul_u64(0x9e3779b97f4a7c15)
                .pow_mod(&UBig::from_u64(3 + seed), &n)
                .unwrap();
            let am = m.to_mont(&a);
            assert_eq!(m.mont_sqr(&am), m.mont_mul(&am, &am), "seed={seed}");
        }
    }

    #[test]
    fn mont_sqr_single_limb_modulus() {
        let m = Mont::new(&UBig::from_u64(1_000_000_007)).unwrap();
        for v in [0u64, 1, 2, 999_999_999, 1_000_000_006] {
            let am = m.to_mont(&UBig::from_u64(v));
            assert_eq!(m.mont_sqr(&am), m.mont_mul(&am, &am), "v={v}");
        }
    }

    #[test]
    fn form_ops_match_plain_arithmetic() {
        let n = UBig::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let m = Mont::new(&n).unwrap();
        let a = UBig::from_hex("deadbeefcafebabe112233445566").unwrap();
        let b = UBig::from_hex("aabbccddeeff00112233445566778899a").unwrap();
        let (af, bf) = (m.to_form(&a), m.to_form(&b));
        assert_eq!(m.from_form(&m.form_mul(&af, &bf)), (&a * &b).rem(&n));
        assert_eq!(m.form_mul_plain(&af, &b), (&a * &b).rem(&n));
        assert_eq!(m.from_form(&m.one_form()), UBig::one());
    }

    #[test]
    fn pow_matches_naive_small() {
        let n = UBig::from_u64(1_000_000_007);
        let m = Mont::new(&n).unwrap();
        for (b, e) in [(2u64, 10u64), (3, 0), (7, 1), (31337, 65537), (5, 123456)] {
            let expect = UBig::from_u64(b).pow_mod(&UBig::from_u64(e), &n).unwrap();
            assert_eq!(
                m.pow(&UBig::from_u64(b), &UBig::from_u64(e)),
                expect,
                "b={b} e={e}"
            );
            assert_eq!(m.pow_u64(&UBig::from_u64(b), e), expect, "b={b} e={e}");
        }
    }

    #[test]
    fn pow_matches_naive_multi_limb() {
        let n = UBig::from_hex("c2446bf4ccd64d8b34a8a8f4e4ab7d1bb1e2f7c8d9a0b1c2d3e4f5a6b7c8d9e1")
            .unwrap(); // odd 256-bit
        let m = Mont::new(&n).unwrap();
        let b = UBig::from_hex("123456789abcdef0fedcba9876543210ffeeddccbbaa9988").unwrap();
        let e = UBig::from_u64(65537);
        assert_eq!(m.pow(&b, &e), b.pow_mod(&e, &n).unwrap());
    }

    #[test]
    fn pow_long_exponents_match_pow_mod() {
        let n = UBig::from_hex("c2446bf4ccd64d8b34a8a8f4e4ab7d1bb1e2f7c8d9a0b1c2d3e4f5a6b7c8d9e1")
            .unwrap();
        let m = Mont::new(&n).unwrap();
        let b = UBig::from_hex("123456789abcdef0fedcba9876543210ffeeddccbbaa9988").unwrap();
        // Exponents spanning several window widths, including runs of
        // zero windows and a full-width exponent.
        for e_hex in [
            "10001",
            "ffffffff",
            "8000000000000000000000000001",
            "c2446bf4ccd64d8b34a8a8f4e4ab7d1bb1e2f7c8d9a0b1c2d3e4f5a6b7c8d9e0",
        ] {
            let e = UBig::from_hex(e_hex).unwrap();
            assert_eq!(m.pow(&b, &e), b.pow_mod(&e, &n).unwrap(), "e={e_hex}");
        }
    }

    #[test]
    fn pow2_ladder_matches_generic_pow() {
        let two = UBig::from_u64(2);
        // One limb, a dynamic width (3 limbs), and the fixed 4-limb kernel;
        // the first leaves almost no headroom above 2·acc.
        for n_hex in [
            "3",
            "fffffffffffffff1",
            "f123456789abcdef0123456789abcdef1",
            "c2446bf4ccd64d8b34a8a8f4e4ab7d1bb1e2f7c8d9a0b1c2d3e4f5a6b7c8d9e1",
        ] {
            let n = UBig::from_hex(n_hex).unwrap();
            let m = Mont::new(&n).unwrap();
            for e_hex in [
                "0",
                "1",
                "2",
                "3",
                "ffffffffffffffff",
                "10000000000000000",
                "8000000000000000000000000001",
                "c2446bf4ccd64d8b34a8a8f4e4ab7d1bb1e2f7c8d9a0b1c2d3e4f5a6b7c8d9e0",
            ] {
                let e = UBig::from_hex(e_hex).unwrap();
                assert_eq!(m.pow2(&e), m.pow(&two, &e), "n={n_hex} e={e_hex}");
            }
        }
    }

    #[test]
    fn limb_ring_helpers_match_plain_arithmetic() {
        use crate::modring;
        // One limb with no headroom, a dynamic width, and a modulus whose
        // top limb is all ones (a + b and a + n carry out of the width).
        for n_hex in [
            "fffffffffffffff1",
            "f123456789abcdef0123456789abcdef1",
            "ffffffffffffffff0000000000000000000000000000000000000000000000c5",
        ] {
            let n = UBig::from_hex(n_hex).unwrap();
            let m = Mont::new(&n).unwrap();
            let s = m.limb_len();
            let two = UBig::from_u64(2);
            let half = modring::inv_mod(&two, &n).unwrap();
            let values = [
                UBig::zero(),
                UBig::one(),
                two.clone(),
                n.shr(1),
                &n.shr(1) + &UBig::one(),
                n.sub(&two),
                n.sub(&UBig::one()),
            ];
            for a in &values {
                let mut h = pad(a.limbs(), s);
                m.halve_mod(&mut h);
                assert_eq!(UBig::from_limbs(h), modring::mul_mod(a, &half, &n), "{a}/2");
                for b in &values {
                    let mut sum = pad(a.limbs(), s);
                    m.add_mod(&mut sum, &pad(b.limbs(), s));
                    assert_eq!(UBig::from_limbs(sum), modring::add_mod(a, b, &n));
                    let mut diff = pad(a.limbs(), s);
                    m.sub_mod(&mut diff, &pad(b.limbs(), s));
                    assert_eq!(UBig::from_limbs(diff), modring::sub_mod(a, b, &n));
                }
            }
        }
    }

    #[test]
    fn pow_edge_exponents() {
        let n = UBig::from_u64(101);
        let m = Mont::new(&n).unwrap();
        // x^0 = 1
        assert!(m.pow(&UBig::from_u64(7), &UBig::zero()).is_one());
        assert!(m.pow_u64(&UBig::from_u64(7), 0).is_one());
        // 0^e = 0 for e > 0
        assert!(m.pow(&UBig::zero(), &UBig::from_u64(9)).is_zero());
        // x^1 = x
        assert_eq!(m.pow(&UBig::from_u64(42), &UBig::one()).to_u64(), Some(42));
    }

    #[test]
    fn fermat_little_theorem_512bit() {
        // p = 2^512 - 569 skips: use a known 512-bit prime written in hex.
        // This one is 2^255 - 19 extended -- instead use a verified small one:
        // p = 2^127 - 1 is a Mersenne prime.
        let p = UBig::one().shl(127).sub(&UBig::one());
        let m = Mont::new(&p).unwrap();
        let a = UBig::from_u64(0x1234_5678_9abc_def1);
        let r = m.pow(&a, &p.sub(&UBig::one()));
        assert!(r.is_one());
    }
}
