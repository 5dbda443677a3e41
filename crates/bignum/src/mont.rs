//! Montgomery reduction context (CIOS) for fast modular exponentiation.
//!
//! All RSA/ElGamal exponentiations in the workspace route through [`Mont`].
//! The context is built once per modulus and reused; conversion in and out of
//! Montgomery form happens at the boundary only — and callers that chain
//! several modular operations stay in form across all of them on the
//! `*_into` kernels' limb buffers ([`Mont::to_mont`] enters form).
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
//! Both dispatch on the modulus width: 4/6/8/16/32 limbs go to portable
//! fixed-width kernels (the `fixed` module), other widths to a
//! dynamic-length loop. Width 6 — the three ~341-bit primes of a 1024-bit
//! key, so every RSA-1024 private-key operation and prime search — has one
//! more kernel: a CIOS product written with `core::arch::asm!` as `mulx`
//! plus two independent carry chains (`adcx` on the carry flag, `adox` on
//! the overflow flag). Products *and* squarings at 6 limbs go to it when
//! `is_x86_feature_detected!` reports both `adx` and `bmi2` (std caches
//! the answer, so it is asked on every call), and to `fixed::mul6` /
//! `fixed::sqr6` otherwise; there is no switch, cargo feature or setting.
//! Its running sum and two carry limbs take 8 of the 13 registers inline
//! asm may use (`rbx`, `rbp` and `rsp` are reserved), and `rdx`, the two
//! `mulx` halves and the operand pointers take the other 5. At 8 limbs
//! the sum and its carries would take 10, leaving 3 for those 5, so 8,
//! 16 and 32 limbs keep their portable kernels. The result is
//! bit-identical to the portable kernel's, which stays as the non-ADX
//! path and the reference a differential test checks the ADX product
//! against. Calling it is one of this crate's two `unsafe` operations
//! (`mul6_adx`).
//!
//! Beside these layers sits [`crate::ifma`]: on a CPU with AVX-512 IFMA
//! it runs up to eight exponentiations per call, one per 64-bit lane, in
//! radix 2^52 — the CRT exponentiations of RSA private-key operations
//! (primes of at most 362 bits, a lone signature's three included) and
//! the public-key operations of RSA-1024 keys (moduli of 833–1038 bits,
//! `e = 65537`, a lone one included). [`Mont::pow`] and
//! [`Mont::pow_u64`] are its fallbacks (other CPUs, other widths) and
//! its test references.
//!
//! # One algorithm for secret exponents
//!
//! Every exponent that may be secret — the CRT exponents of RSA keys off
//! the IFMA path, the TTP's ElGamal key, a prime search's random rounds
//! — goes through [`Mont::pow`], which has the IFMA kernel's shape
//! whatever the exponent's value or width:
//!
//! * fixed 4-bit windows ([`WINDOW`]) over the exponent's bit length,
//!   whatever the digits are;
//! * each window's entry of the 16-entry table `x^0..x^15` picked by
//!   [`ct_lookup`], which reads every entry and keeps one under a mask,
//!   so no address depends on a digit (the CacheBleed class of leak,
//!   Yarom–Genkin–Heninger, CHES 2016, read RSA exponents from an
//!   indexed window table);
//! * four squarings and one product at every window, a zero digit's
//!   included (its entry is 1), so the sequence of products depends on
//!   the bit length alone;
//! * a final subtraction in every product that runs without a branch
//!   (`reduce_once`: subtract `n`, add back `n` under the borrow's mask).
//!
//! The exponent, its window digits, the lookup index and the final
//! subtraction's borrow, mask and carry are [`Secret`]s, so a branch or
//! an index on any of them does not compile ([`crate::ct`] module doc);
//! the residues stay `[u64]`.
//!
//! Why four bits: a `w`-bit window costs `2^w − 2` table products and
//! one product per window after the first, and each window scans `2^w`
//! entries. Five bits saves one product at 341 bits (98 against 99) and
//! 35 of about 1,290 at 1024, where its scans read 6,560 entries instead
//! of 4,096; three bits costs 20 more products at 341. Four is also the
//! IFMA kernel's width. The ElGamal comb in `p2drm-crypto` takes its
//! entries through the same [`ct_lookup`]. [`Mont::pow_u64`] (public
//! word exponents, the verification exponent 65537) and the prime
//! test's base-2 ladder `pow2` branch on their exponent bits, which are
//! public or, in the prime search, a candidate's (`prime` module doc).
//!
//! The price, timed in one process against the previous algorithm
//! (variable 3–5-bit windows, an indexed table read, a skipped product
//! on a zero digit and a branching subtraction), random odd moduli and
//! full-length exponents, rounds of 40,000/bits operations alternated
//! over 30 rounds, the median of the per-round ratios over three runs,
//! on a 2-vCPU VM (Intel Xeon, family 6, model 207, with ADX):
//!
//! | operation | new / old |
//! |---|---|
//! | `Mont::pow`, 341 bits (6 limbs, ADX product) | ×1.13–1.20 |
//! | `Mont::pow`, 512 bits (8 limbs) | ×1.01–1.09 |
//! | `Mont::pow`, 1024 bits (16 limbs) | ×1.08–1.15 |
//! | MODP-1024 comb (`ElGamalGroup::pow_g`) | ×1.12–1.13 |
//! | RSA-1024 key generation (same seeds) | ×1.01–1.03 |
//!
//! On a CPU with AVX-512 IFMA the RSA-512 and RSA-1024 private-key
//! operations take [`crate::ifma`] and pay none of this.
//!
//! [`Mont::pow`] performs **zero heap allocations in its
//! square-and-multiply main loop**: the window table, the accumulator,
//! the entry and the shared scratch are allocated once up front, so a
//! long exponent allocates exactly what a short one does
//! (`tests/alloc_counter.rs`). Tests check it against [`UBig::pow_mod`],
//! the division-based square-and-multiply that shares no code with this
//! module.

use crate::counts::POW_WIDTHS;
use crate::ct::{self, ct_lookup, Secret};
use crate::ubig::UBig;
use crate::BigError;

/// Bits per window of every secret-exponent exponentiation: [`Mont::pow`],
/// the ElGamal comb in `p2drm-crypto` and the vertical kernel of
/// [`crate::ifma`]. Their tables have `2^WINDOW` = 16 entries.
pub const WINDOW: usize = 4;

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
    /// Builds a context for `modulus` (must be odd and >= 3). `R mod n`
    /// and `R² mod n` come from `pow2_mod`'s one-word quotient
    /// estimates, with no long division.
    pub fn new(modulus: &UBig) -> Result<Self, BigError> {
        if modulus.is_even() || modulus.bit_len() < 2 {
            return Err(BigError::BadModulus);
        }
        let n = modulus.limbs().to_vec();
        let s = n.len();
        Ok(Mont {
            rr: pow2_mod(&n, 128 * s),
            one: pow2_mod(&n, 64 * s),
            n0inv: inv64(n[0]).wrapping_neg(),
            n,
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
    /// kernel (4/6/8/16/32 limbs), which keeps its state on the stack and
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
    /// `a` and `b` must be modulus-width limbs with `a·b < R·n`: both
    /// reduced, or `a` reduced and `b` any value below `R` (the RSA CRT
    /// recombination in `p2drm-crypto` multiplies unreduced digits so);
    /// the running sum then stays below `2n` and the result is reduced.
    /// `out` must be modulus-width and distinct from `a`/`b`; `scratch`
    /// must be at least [`Mont::scratch_len`] long.
    ///
    /// The common widths (4/6/8/16/32 limbs — every RSA/ElGamal size in
    /// the workspace, including the CRT primes) dispatch to monomorphized
    /// fixed-width kernels whose loops fully unroll and whose state lives
    /// in stack arrays (no bounds checks, no scratch traffic); other
    /// widths fall back to the dynamic-length loop. Width 6 runs the ADX
    /// product on a CPU that has it (module doc).
    pub fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let s = self.n.len();
        debug_assert_eq!(a.len(), s);
        debug_assert_eq!(b.len(), s);
        debug_assert_eq!(out.len(), s);
        match s {
            4 => return fixed::mul4(arr(&self.n), self.n0inv, arr(a), arr(b), arr_mut(out)),
            6 => {
                #[cfg(target_arch = "x86_64")]
                if mul6_adx(arr(&self.n), self.n0inv, arr(a), arr(b), arr_mut(out)) {
                    return;
                }
                return fixed::mul6(arr(&self.n), self.n0inv, arr(a), arr(b), arr_mut(out));
            }
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
        reduce_once(out, &self.n, Secret::new(extra));
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
    /// [`Mont::mont_mul_into`]. Width 6 on a CPU with ADX and BMI2 is the
    /// exception: the ADX product with `b = a` beats the portable squaring
    /// there (module doc).
    pub fn mont_sqr_into(&self, a: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        let s = self.n.len();
        debug_assert_eq!(a.len(), s);
        debug_assert_eq!(out.len(), s);
        match s {
            4 => return fixed::sqr4(arr(&self.n), self.n0inv, arr(a), arr_mut(out)),
            6 => {
                #[cfg(target_arch = "x86_64")]
                if mul6_adx(arr(&self.n), self.n0inv, arr(a), arr(a), arr_mut(out)) {
                    return;
                }
                return fixed::sqr6(arr(&self.n), self.n0inv, arr(a), arr_mut(out));
            }
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
        reduce_once(out, &self.n, Secret::new(pending));
    }

    /// `base^exp mod n` for an exponent that may be secret: fixed 4-bit
    /// windows over the exponent's bit length, each window's table entry
    /// picked by [`ct_lookup`]'s scan of all 16, and a product at every
    /// window, the zero digits' included (module doc). Buffers are
    /// allocated once, before the loop. Counted by width in
    /// [`counts`](crate::counts).
    pub fn pow(&self, base: &UBig, exp: &UBig) -> UBig {
        let exp = Secret::new(exp);
        let s = self.n.len();
        crate::counts::count(|c| c.pows[s.clamp(1, POW_WIDTHS) - 1] += 1);
        let mut scratch = self.alloc_scratch();
        let table = self.window_table(&self.to_mont(base));
        // The bit length is public: the number of windows, and so of
        // products, is the one thing the exponent shows.
        let windows = exp.declassify().bit_len().div_ceil(WINDOW).max(1);
        let mut acc = vec![0u64; s];
        let mut entry = vec![0u64; s];
        let mut tmp = vec![0u64; s];
        ct_lookup(&table, exp.window((windows - 1) * WINDOW, WINDOW), &mut acc);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                self.mont_sqr_into(&acc, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
            ct_lookup(&table, exp.window(w * WINDOW, WINDOW), &mut entry);
            self.mont_mul_into(&acc, &entry, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.from_mont(&acc)
    }

    /// `x^0, x^1, …, x^15` for a Montgomery-form `x`, in form, one
    /// modulus-width entry after another: the table [`ct_lookup`] scans.
    pub fn window_table(&self, x: &[u64]) -> Vec<u64> {
        let s = self.n.len();
        let mut scratch = self.alloc_scratch();
        let mut table = vec![0u64; s << WINDOW];
        table[..s].copy_from_slice(&self.one);
        table[s..2 * s].copy_from_slice(x);
        for d in 2..1 << WINDOW {
            let (done, next) = table.split_at_mut(d * s);
            self.mont_mul_into(&done[(d - 1) * s..], x, &mut next[..s], &mut scratch);
        }
        table
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
        reduce_once(a, &self.n, Secret::new(carry));
    }

    /// `a = a + b mod n` in place; like the two helpers below, for reduced
    /// modulus-width operands in either form (the ring operations of the
    /// Lucas sequence in `prime`, which multiplies in Montgomery form).
    pub(crate) fn add_mod(&self, a: &mut [u64], b: &[u64]) {
        let carry = add_limbs(a, b);
        reduce_once(a, &self.n, Secret::new(carry as u64));
    }

    /// `a = a - b mod n` in place.
    pub(crate) fn sub_mod(&self, a: &mut [u64], b: &[u64]) {
        if sub_limbs(a, b) {
            add_limbs(a, &self.n); // the carry out cancels the borrow
        }
    }

    /// `a = a / 2 mod n` in place: an odd `a` becomes the even `a + n`
    /// first. Only the `prime` tests' U/V recurrence, the Lucas test's
    /// oracle, halves.
    #[cfg(test)]
    pub(crate) fn halve_mod(&self, a: &mut [u64]) {
        let mut top = (a[0] & 1 == 1 && add_limbs(a, &self.n)) as u64;
        for limb in a.iter_mut().rev() {
            let v = *limb;
            *limb = (v >> 1) | (top << 63);
            top = v & 1;
        }
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
    matches!(s, 4 | 6 | 8 | 16 | 32)
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
/// the small widths the RSA CRT runs at (4 limbs for 512-bit keys, 6 for
/// the ~341-bit primes of a three-prime 1024-bit key). Widths are
/// generated for 4/6/8/16/32 limbs (256/384/512/1024/2048 bits). On an
/// x86-64 CPU with ADX and BMI2, width 6 runs `mul6_adx` instead (for
/// squarings too) and `mul6` / `sqr6` are the fallback and its test
/// reference; the other widths have no ADX kernel, since a running sum of
/// more than 6 limbs plus its two carry limbs does not fit in the 13
/// registers inline asm may use.
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
                super::reduce_once(&mut t, n, super::Secret::new(t_hi));
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
                super::reduce_once(out, n, super::Secret::new(pending));
            }
        };
    }

    fixed_kernels!(mul4, sqr4, 4);
    fixed_kernels!(mul6, sqr6, 6);
    fixed_kernels!(mul8, sqr8, 8);
    fixed_kernels!(mul16, sqr16, 16);
    fixed_kernels!(mul32, sqr32, 32);
}

/// Runs the CIOS product at 6 limbs on `mulx` / `adcx` / `adox` and
/// returns `true` if this CPU has ADX and BMI2; returns `false`, leaving
/// `out` alone, if it has not. Same result as `fixed::mul6`, bit for bit.
///
/// Each of the six rounds is one `asm!` block: `t += a·b[i]` and then
/// `t = (t + m·n) / 2^64`, each a row of `mulx` whose low halves ride
/// the `adox` carry chain (overflow flag) and whose high halves ride the
/// `adcx` chain (carry flag), so the two additions never wait on one
/// flag. A round holds the sum's six limbs and its two carry limbs (8
/// registers), `rdx`, the two `mulx` halves and the pointers to `a` and
/// `n` (5 more): all 13 registers inline asm may use (`rbx`, `rbp` and
/// `rsp` are reserved). So `b[i]` and `n0inv` come in per round, the
/// first row's high-half register becomes the top carry limb, and
/// `n0inv`'s register, free once `m` is formed, takes the second row's
/// high halves. The round's outputs shift the sum down one limb.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn mul6_adx(n: &[u64; 6], n0inv: u64, a: &[u64; 6], b: &[u64; 6], out: &mut [u64; 6]) -> bool {
    if !(std::arch::is_x86_feature_detected!("adx") && std::arch::is_x86_feature_detected!("bmi2"))
    {
        return false;
    }
    // t0..t5 the running sum, t6 its carry limb (t < 2n between rounds).
    let [mut t0, mut t1, mut t2, mut t3, mut t4, mut t5, mut t6] = [0u64; 7];
    for &bi in b {
        // SAFETY: the block reads memory only at `[a + 8j]` and `[n + 8j]`
        // for j < 6, inside the two `&[u64; 6]` operands (`b` is read in
        // Rust); it writes no memory and no stack (`readonly`, `nostack`),
        // only its declared register outputs. `mulx` needs BMI2 and
        // `adcx` / `adox` need ADX, which `is_x86_feature_detected!`
        // reported above, before any block runs.
        unsafe {
            std::arch::asm!(
                // t += a·b[i]: lows on the OF chain, highs on the CF chain.
                "xor {lo:e}, {lo:e}",
                "mulx {hi}, {lo}, qword ptr [{a}]",
                "adox {t0}, {lo}",
                "adcx {t1}, {hi}",
                "mulx {hi}, {lo}, qword ptr [{a} + 8]",
                "adox {t1}, {lo}",
                "adcx {t2}, {hi}",
                "mulx {hi}, {lo}, qword ptr [{a} + 16]",
                "adox {t2}, {lo}",
                "adcx {t3}, {hi}",
                "mulx {hi}, {lo}, qword ptr [{a} + 24]",
                "adox {t3}, {lo}",
                "adcx {t4}, {hi}",
                "mulx {hi}, {lo}, qword ptr [{a} + 32]",
                "adox {t4}, {lo}",
                "adcx {t5}, {hi}",
                "mulx {hi}, {lo}, qword ptr [{a} + 40]",
                "adox {t5}, {lo}",
                "adcx {t6}, {hi}",
                // Both chains' carries into t6 / t7 (`mov` keeps flags).
                "mov {lo:e}, 0",
                "mov {hi:e}, 0",
                "adcx {hi}, {lo}",
                "adox {t6}, {lo}",
                "adox {hi}, {lo}",
                // m = t0·n0inv; t = (t + m·n) / 2^64. `hi` is t7 from
                // here on and `n0inv`'s register takes the high halves.
                "mov rdx, {t0}",
                "imul rdx, {k}",
                "xor {lo:e}, {lo:e}",
                "mulx {k}, {lo}, qword ptr [{n}]",
                "adox {t0}, {lo}",
                "adcx {t1}, {k}",
                "mulx {k}, {lo}, qword ptr [{n} + 8]",
                "adox {t1}, {lo}",
                "adcx {t2}, {k}",
                "mulx {k}, {lo}, qword ptr [{n} + 16]",
                "adox {t2}, {lo}",
                "adcx {t3}, {k}",
                "mulx {k}, {lo}, qword ptr [{n} + 24]",
                "adox {t3}, {lo}",
                "adcx {t4}, {k}",
                "mulx {k}, {lo}, qword ptr [{n} + 32]",
                "adox {t4}, {lo}",
                "adcx {t5}, {k}",
                "mulx {k}, {lo}, qword ptr [{n} + 40]",
                "adox {t5}, {lo}",
                "adcx {t6}, {k}",
                "mov {lo:e}, 0",
                "adcx {hi}, {lo}",
                "adox {t6}, {lo}",
                "adox {hi}, {lo}",
                a = in(reg) a.as_ptr(),
                n = in(reg) n.as_ptr(),
                k = inout(reg) n0inv => _,
                inout("rdx") bi => _,
                lo = out(reg) _,
                hi = out(reg) t6,
                // t0 ends at 0 and the sum shifts down one limb.
                t0 = inout(reg) t0 => _,
                t1 = inout(reg) t1 => t0,
                t2 = inout(reg) t2 => t1,
                t3 = inout(reg) t3 => t2,
                t4 = inout(reg) t4 => t3,
                t5 = inout(reg) t5 => t4,
                t6 = inout(reg) t6 => t5,
                options(pure, readonly, nostack),
            );
        }
    }
    *out = [t0, t1, t2, t3, t4, t5];
    reduce_once(out, n, Secret::new(t6));
    true
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

/// Brings `t + extra·2^(64·len)` into `[0, n)` given it is `< 2n`,
/// branching on neither: subtracts `n` in place, then adds back
/// `n & mask`, where the mask is all ones when the subtraction took the
/// value below zero (a borrow out that `extra` does not cover). The
/// carry out of the add-back cancels that borrow.
#[inline(always)]
pub(crate) fn reduce_once(t: &mut [u64], n: &[u64], extra: Secret<u64>) {
    let borrow = ct::sub_borrow(t, n);
    // A check of debug builds only, on the test inputs.
    debug_assert!(
        extra.declassify() <= borrow.declassify(),
        "t + extra·2^(64·len) < 2n"
    );
    let mask = (borrow & !extra).wrapping_neg();
    ct::add_masked(t, n, mask);
}

/// `2^e mod n` for an odd `n ≥ 3` of `s` limbs and `e ≥ 64·(s − 1)`, in
/// `s` limbs, without a long division: from `2^(64·(s−1))`, which is below
/// `n`, each step multiplies by `2^k` (`k ≤ 64`) and takes off `q̂·n` for
/// the one-word quotient estimate `q̂ = ⌊T / (N + 1)⌋`, where `T` and `N`
/// are the product's and `n`'s bits from `n`'s 64th-highest one up. `q̂`
/// is at most 3 below the quotient, so at most three subtractions of `n`
/// finish the step. The constants of a Montgomery context (`R mod n`,
/// `R² mod n`) and of the [`ifma`](crate::ifma) kernel's radix-2^52
/// moduli are such powers. This branches on `n`, which is public
/// wherever a context is built (a prime candidate's too: the `prime`
/// module doc).
pub(crate) fn pow2_mod(n: &[u64], e: usize) -> Vec<u64> {
    let s = n.len();
    debug_assert!(n[0] & 1 == 1 && e >= 64 * (s - 1));
    let mut left = e - 64 * (s - 1);
    if s == 1 {
        let mut t = 1u128;
        while left > 0 {
            let k = left.min(64);
            t = (t << k) % n[0] as u128;
            left -= k;
        }
        return vec![t as u64];
    }
    // Bits [p, p + 128) of x.
    let window = |x: &[u64], p: usize| {
        let word = |i: usize| x.get(i).copied().unwrap_or(0) as u128;
        let (w, off) = (p / 64, p % 64);
        let low = (word(w) | word(w + 1) << 64) >> off;
        low | if off == 0 {
            0
        } else {
            word(w + 2) << (128 - off)
        }
    };
    let from = 64 * s - n[s - 1].leading_zeros() as usize - 64;
    let top = window(n, from) as u64 as u128 + 1;
    let mut x = vec![0u64; s + 1];
    x[s - 1] = 1;
    while left > 0 {
        let k = left.min(64);
        left -= k;
        // x·2^k, below n·2^64: s + 1 limbs.
        for j in (0..=s).rev() {
            let below = if j == 0 { 0 } else { x[j - 1] };
            x[j] = if k == 64 {
                below
            } else {
                x[j] << k | below >> (64 - k)
            };
        }
        let q = window(&x, from) / top;
        let mut carry = 0u128;
        for (j, xj) in x.iter_mut().enumerate() {
            let product = q * n.get(j).copied().unwrap_or(0) as u128 + carry;
            let (v, borrow) = xj.overflowing_sub(product as u64);
            *xj = v;
            carry = (product >> 64) + borrow as u128;
        }
        debug_assert_eq!(carry, 0, "q̂ is at most the quotient");
        while x[s] != 0 || !x[..s].iter().rev().lt(n.iter().rev()) {
            let borrow = sub_limbs(&mut x[..s], n);
            x[s] -= borrow as u64;
        }
    }
    x.truncate(s);
    x
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

    /// `pow2_mod` against the long division it replaced, `2^e rem n`:
    /// odd moduli of 1 to 33 limbs whose top limb is 1, all ones or
    /// random (so the quotient estimate sees every normalisation shift),
    /// 3 and 2^64 − 1, at the smallest exponent it takes, one past it,
    /// the context's `R` and `R²`, the radix-2^52 kernel's `R²` at 7 and
    /// 20 limbs, and exponents a few bits past a limb boundary.
    #[test]
    fn pow2_mod_matches_the_division() {
        let mut seed = 0x5eed_u64;
        let mut word = || {
            seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0xbf58_476d_1ce4_e5b9);
            seed ^ seed >> 29
        };
        let mut moduli = vec![UBig::from_u64(3), UBig::from_u64(u64::MAX)];
        for s in (1..=33).step_by(2).chain([6, 16, 17, 20]) {
            for top in [1, u64::MAX, word() >> (word() % 64)] {
                let mut limbs: Vec<u64> = (0..s).map(|_| word()).collect();
                limbs[s - 1] = top.max(1);
                limbs[0] |= if s == 1 { 3 } else { 1 };
                moduli.push(UBig::from_limbs(limbs));
            }
        }
        for n in &moduli {
            let s = n.limb_len();
            let low = 64 * (s - 1);
            for e in [
                low,
                low + 1,
                low + 63,
                64 * s,
                64 * s + 5,
                128 * s,
                728,
                2080,
            ] {
                if e < low {
                    continue;
                }
                let want = pad(UBig::one().shl(e).rem(n).limbs(), s);
                assert_eq!(pow2_mod(n.limbs(), e), want, "2^{e} mod {n}");
            }
        }
    }

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

    /// Long exponents against the division-based `pow_mod`, at every
    /// fixed-kernel width up to 16 limbs and at 5 (the dynamic kernel):
    /// exponents whose windows are mostly zero digits, or all 15s — `2^k`,
    /// a lone top digit, alternating zero nibbles and all ones — beside
    /// sparse and dense ones. Each digit's entry comes from the scan and
    /// is multiplied in, the zero digit's (1) included.
    #[test]
    fn pow_long_exponents_match_pow_mod() {
        let one = UBig::one();
        for limbs in [4usize, 5, 6, 8, 16] {
            let bits = 64 * limbs;
            let bytes: Vec<u8> = (0..8 * limbs as u8)
                .map(|i| i.wrapping_mul(167) ^ 0x5d)
                .collect();
            let mut n = UBig::from_bytes_be(&bytes);
            n.set_bit(bits - 1);
            n.set_bit(0);
            let m = Mont::new(&n).unwrap();
            assert_eq!(m.limb_len(), limbs);
            let b = n.shr(5);
            let mut exps: Vec<UBig> = [0, 1, 3, 4, 5, 63, 64, bits / 2, bits - 1]
                .iter()
                .map(|&k| one.shl(k))
                .collect();
            for d in [1, 8, 15] {
                exps.push(UBig::from_u64(d).shl(bits - WINDOW));
            }
            for hex in ["10001", "ffffffff", "8000000000000000000000000001"] {
                exps.push(UBig::from_hex(hex).unwrap());
            }
            exps.push(n.sub(&one));
            exps.push(one.shl(bits).sub(&one));
            exps.push(UBig::from_hex(&"0f".repeat(bits / 8)).unwrap());
            exps.push(UBig::from_hex(&"f0".repeat(bits / 8)).unwrap());
            for e in &exps {
                let want = b.pow_mod(e, &n).unwrap();
                assert_eq!(m.pow(&b, e), want, "{limbs} limbs, e = {}", e.to_hex());
            }
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
            let half = modring::inv_mod(Secret::new(&two), &n).unwrap();
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
    fn fermat_little_theorem_on_every_dispatch_arm() {
        // One known prime per arm: the dynamic kernel at 2 limbs, the
        // fixed 4-limb kernel, the 6-limb ADX product at full width, and
        // the dynamic kernel at 9 limbs.
        let one = UBig::one();
        let primes = [
            ("2^127 - 1", one.shl(127).sub(&one)),
            ("2^255 - 19", one.shl(255).sub(&UBig::from_u64(19))),
            (
                "2^384 - 2^128 - 2^96 + 2^32 - 1",
                (&one.shl(384) + &one.shl(32))
                    .sub(&one.shl(128))
                    .sub(&one.shl(96))
                    .sub(&one),
            ),
            ("2^521 - 1", one.shl(521).sub(&one)),
        ];
        for (name, p) in primes {
            let m = Mont::new(&p).unwrap();
            let p1 = p.sub(&one);
            for a in [
                UBig::from_u64(2),
                UBig::from_u64(0x1234_5678_9abc_def1),
                p.sub(&UBig::from_u64(2)),
            ] {
                assert!(m.pow(&a, &p1).is_one(), "{name}: a = {a}");
            }
        }
    }

    /// The 6-limb ADX product against the portable `fixed::mul6` and, with
    /// `a = b`, `fixed::sqr6`: 100,000 pairs over 200 odd moduli of 321–384
    /// bits. Half the moduli are full 384-bit ones, which drive the sum
    /// into its top carry limb; half of those have their top 1–5 limbs all
    /// ones (2^384 − 1 and the P-384 prime among them), where a carry can
    /// ripple through a whole limb into the top one. Each modulus also
    /// takes 0, 1 and n − 1 against each other, and a chain of 400
    /// squarings from 2·R.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn adx_product_matches_portable_kernels() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        let three = [3, 0, 0, 0, 0, 0];
        if !mul6_adx(&three, inv64(3).wrapping_neg(), &three, &three, &mut [0; 6]) {
            eprintln!("this CPU has no ADX or BMI2: the 6-limb ADX product is skipped");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xad_c6);
        // A random value of at most `bits` bits.
        let draw = |rng: &mut StdRng, bits: usize| -> [u64; 6] {
            let mut x: [u64; 6] = std::array::from_fn(|_| rng.next_u64());
            for (i, limb) in x.iter_mut().enumerate() {
                let keep = bits.saturating_sub(64 * i).min(64);
                *limb &= u64::MAX.checked_shr(64 - keep as u32).unwrap_or(0);
            }
            x
        };
        let below = |rng: &mut StdRng, n: &[u64; 6], bits: usize| loop {
            let x = draw(rng, bits);
            if !Mont::geq(&x, n) {
                return x;
            }
        };
        let p384 = [0xffff_ffff, 0xffff_ffff_0000_0000, !1, !0, !0, !0];
        for k in 0..200usize {
            let bits = if k % 2 == 0 { 384 } else { 321 + k % 64 };
            let mut n = match k {
                0 => [u64::MAX; 6],
                2 => p384,
                _ => draw(&mut rng, bits),
            };
            if k % 4 == 2 {
                n[6 - (1 + k / 4 % 5)..].fill(u64::MAX);
            }
            n[(bits - 1) / 64] |= 1 << ((bits - 1) % 64);
            n[0] |= 1;
            let n0inv = inv64(n[0]).wrapping_neg();
            let mut n_minus_1 = n;
            n_minus_1[0] -= 1;
            let special = [[0; 6], [1, 0, 0, 0, 0, 0], n_minus_1];
            for i in 0..500 {
                let (a, b) = if i < 9 {
                    (special[i % 3], special[i / 3])
                } else {
                    (below(&mut rng, &n, bits), below(&mut rng, &n, bits))
                };
                let (mut fast, mut slow) = ([0; 6], [0; 6]);
                assert!(mul6_adx(&n, n0inv, &a, &b, &mut fast));
                fixed::mul6(&n, n0inv, &a, &b, &mut slow);
                assert_eq!(fast, slow, "a·b, n = {n:x?}, a = {a:x?}, b = {b:x?}");
                assert!(mul6_adx(&n, n0inv, &a, &a, &mut fast));
                fixed::sqr6(&n, n0inv, &a, &mut slow);
                assert_eq!(fast, slow, "a², n = {n:x?}, a = {a:x?}");
            }
            // 2^(2^i)·R for i < 400: near an all-ones modulus these
            // powers of two are sparse, and the squarings hit carry runs
            // that random operands miss (a dropped carry into the top
            // limb in the reduction row fails here and nowhere above).
            let mut x = Mont::new(&UBig::from_limbs(n.to_vec()))
                .unwrap()
                .to_mont(&UBig::from_u64(2));
            let x: &mut [u64; 6] = arr_mut(&mut x);
            for i in 0..400 {
                let (mut fast, mut slow) = ([0; 6], [0; 6]);
                assert!(mul6_adx(&n, n0inv, x, x, &mut fast));
                fixed::sqr6(&n, n0inv, x, &mut slow);
                assert_eq!(fast, slow, "squaring {i} of 2R, n = {n:x?}, x = {x:x?}");
                *x = slow;
            }
        }
    }
}
