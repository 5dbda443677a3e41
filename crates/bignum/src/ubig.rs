//! [`UBig`]: unsigned arbitrary-precision integers.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limbs
//! (zero is the empty limb vector). All public constructors normalize, and
//! every operation preserves the invariant.

use crate::mont::sub_limbs;
use crate::BigError;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Unsigned arbitrary-precision integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct UBig {
    /// Little-endian limbs; empty means zero; last limb (if any) is nonzero.
    limbs: Vec<u64>,
}

impl UBig {
    /// The value 0.
    #[inline]
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value 1.
    #[inline]
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// Builds from a single machine word.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }

    /// Builds from little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        UBig { limbs }
    }

    /// Read-only access to the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of limbs (zero has none).
    #[inline]
    pub fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    /// True iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (0 counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True iff the value is odd.
    #[inline]
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (LSB = bit 0); bits beyond the length read as 0.
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Reads `width` bits starting at bit `pos` (LSB = bit 0) as a word,
    /// limb-wise — the window-extraction primitive for exponent scanning
    /// (no per-bit [`UBig::bit`] calls). Bits beyond the length read as 0.
    ///
    /// # Panics
    /// Panics when `width` is 0 or exceeds 32.
    pub fn bits_at(&self, pos: usize, width: usize) -> u64 {
        assert!((1..=32).contains(&width), "window width must be in 1..=32");
        let (limb, off) = (pos / 64, pos % 64);
        let mut v = self.limbs.get(limb).copied().unwrap_or(0) >> off;
        if off + width > 64 {
            if let Some(&hi) = self.limbs.get(limb + 1) {
                v |= hi << (64 - off);
            }
        }
        v & ((1u64 << width) - 1)
    }

    /// Sets bit `i` to 1, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: usize) {
        let (limb, off) = (i / 64, i % 64);
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    // ---- byte / string conversions -------------------------------------

    /// Parses big-endian bytes (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to minimal big-endian bytes (zero -> empty vector).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let bits = self.bit_len();
        let len = bits.div_ceil(8);
        self.to_bytes_be_padded(len)
    }

    /// Serializes to exactly `len` big-endian bytes.
    ///
    /// # Panics
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        assert!(
            self.bit_len().div_ceil(8) <= len,
            "value needs {} bytes, asked for {len}",
            self.bit_len().div_ceil(8)
        );
        let mut out = vec![0u8; len];
        let mut pos = len;
        'outer: for limb in &self.limbs {
            let bytes = limb.to_le_bytes();
            for b in bytes {
                if pos == 0 {
                    break 'outer;
                }
                pos -= 1;
                out[pos] = b;
            }
        }
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Result<Self, BigError> {
        if s.is_empty() {
            return Err(BigError::Parse(s.into()));
        }
        let mut nibbles = Vec::with_capacity(s.len());
        for c in s.chars() {
            let v = c.to_digit(16).ok_or_else(|| BigError::Parse(s.into()))?;
            nibbles.push(v as u64);
        }
        let mut limbs = Vec::with_capacity(nibbles.len() / 16 + 1);
        // Consume nibbles from the end (least-significant) in groups of 16.
        let mut idx = nibbles.len();
        while idx > 0 {
            let start = idx.saturating_sub(16);
            let mut limb = 0u64;
            for &n in &nibbles[start..idx] {
                limb = (limb << 4) | n;
            }
            limbs.push(limb);
            idx = start;
        }
        Ok(Self::from_limbs(limbs))
    }

    /// Lowercase hexadecimal rendering without leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        let mut first = true;
        for limb in self.limbs.iter().rev() {
            if first {
                s.push_str(&format!("{limb:x}"));
                first = false;
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Parses a decimal string.
    pub fn from_decimal(s: &str) -> Result<Self, BigError> {
        if s.is_empty() {
            return Err(BigError::Parse(s.into()));
        }
        let mut acc = UBig::zero();
        for c in s.chars() {
            let d = c.to_digit(10).ok_or_else(|| BigError::Parse(s.into()))? as u64;
            acc = acc.mul_u64(10);
            acc = &acc + &UBig::from_u64(d);
        }
        Ok(acc)
    }

    /// Decimal rendering.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        // Peel 19 decimal digits at a time via division by 10^19.
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            digits.push(r);
            cur = q;
        }
        let mut s = format!("{}", digits.pop().unwrap());
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:019}"));
        }
        s
    }

    // ---- comparison -----------------------------------------------------

    fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    // ---- addition / subtraction ----------------------------------------

    /// `self + other`.
    #[allow(clippy::needless_range_loop)] // long[i] pairs with short.get(i)
    pub fn add(&self, other: &UBig) -> UBig {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        UBig::from_limbs(out)
    }

    /// `self - other`, or `None` when the result would be negative.
    pub fn checked_sub(&self, other: &UBig) -> Option<UBig> {
        if Self::cmp_limbs(&self.limbs, &other.limbs) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(UBig::from_limbs(out))
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics when `other > self`.
    pub fn sub(&self, other: &UBig) -> UBig {
        self.checked_sub(other)
            .expect("UBig::sub underflow: subtrahend exceeds minuend")
    }

    // ---- multiplication --------------------------------------------------

    /// `self * small`.
    pub fn mul_u64(&self, small: u64) -> UBig {
        if small == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let cur = l as u128 * small as u128 + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        UBig::from_limbs(out)
    }

    // Karatsuba pays off well above typical RSA sizes; threshold chosen
    // by the e9 ablation bench (32 limbs = 2048 bits).
    const KARATSUBA_THRESHOLD: usize = 32;

    /// Schoolbook product with a Karatsuba fast path for large operands.
    /// Self-multiplication (same allocation or equal value) routes through
    /// the cheaper [`UBig::square`] partial-product-symmetric path.
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        if std::ptr::eq(self, other) || self == other {
            return self.square();
        }
        if self.limbs.len() >= Self::KARATSUBA_THRESHOLD
            && other.limbs.len() >= Self::KARATSUBA_THRESHOLD
        {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &UBig) -> UBig {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        UBig::from_limbs(out)
    }

    fn mul_karatsuba(&self, other: &UBig) -> UBig {
        let half = self.limbs.len().min(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at(half);
        let (b0, b1) = other.split_at(half);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = (&a0 + &a1).mul(&(&b0 + &b1)).sub(&z0).sub(&z2);
        let mut acc = z2.shl_limbs(2 * half);
        acc = &acc + &z1.shl_limbs(half);
        &acc + &z0
    }

    /// Splits into (low `at` limbs, remaining high limbs).
    fn split_at(&self, at: usize) -> (UBig, UBig) {
        if at >= self.limbs.len() {
            return (self.clone(), UBig::zero());
        }
        (
            UBig::from_limbs(self.limbs[..at].to_vec()),
            UBig::from_limbs(self.limbs[at..].to_vec()),
        )
    }

    fn shl_limbs(&self, n: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let mut limbs = vec![0u64; n];
        limbs.extend_from_slice(&self.limbs);
        UBig::from_limbs(limbs)
    }

    /// `self * self` via dedicated squaring: each cross product
    /// `limb[i]·limb[j]` (`i < j`) is computed once and doubled, roughly
    /// halving the multiplication count of the schoolbook product; above
    /// the Karatsuba threshold the three recursive half-size products are
    /// squarings too.
    pub fn square(&self) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        if self.limbs.len() >= Self::KARATSUBA_THRESHOLD {
            return self.sqr_karatsuba();
        }
        self.sqr_schoolbook()
    }

    fn sqr_schoolbook(&self) -> UBig {
        let s = self.limbs.len();
        let mut out = vec![0u64; 2 * s];
        // Cross products a[i]*a[j] for i < j.
        for i in 0..s {
            let ai = self.limbs[i];
            if ai == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in (i + 1)..s {
                let cur = out[i + j] as u128 + ai as u128 * self.limbs[j] as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Position i + s is untouched by earlier iterations.
            out[i + s] = carry as u64;
        }
        // Double the cross products; the final carry is always zero
        // because 2 * cross < a^2 fits in 2s limbs.
        let mut dcarry = 0u64;
        for limb in out.iter_mut() {
            let v = *limb;
            *limb = (v << 1) | dcarry;
            dcarry = v >> 63;
        }
        debug_assert_eq!(dcarry, 0);
        // Add the diagonal terms a[i]^2 at position 2i.
        let mut carry = 0u64;
        for i in 0..s {
            let sq = self.limbs[i] as u128 * self.limbs[i] as u128;
            let cur = out[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
            out[2 * i] = cur as u64;
            let cur2 = out[2 * i + 1] as u128 + (sq >> 64) + (cur >> 64);
            out[2 * i + 1] = cur2 as u64;
            carry = (cur2 >> 64) as u64;
        }
        debug_assert_eq!(carry, 0);
        UBig::from_limbs(out)
    }

    fn sqr_karatsuba(&self) -> UBig {
        let half = self.limbs.len() / 2;
        let (a0, a1) = self.split_at(half);
        // (a1*B + a0)^2 = a1^2*B^2 + ((a0+a1)^2 - a0^2 - a1^2)*B + a0^2
        let z0 = a0.square();
        let z2 = a1.square();
        let z1 = (&a0 + &a1).square().sub(&z0).sub(&z2);
        let mut acc = z2.shl_limbs(2 * half);
        acc = &acc + &z1.shl_limbs(half);
        &acc + &z0
    }

    // ---- shifts -----------------------------------------------------------

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> UBig {
        if self.is_zero() || bits == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        UBig::from_limbs(out)
    }

    /// Right shift by `bits` (towards zero).
    #[allow(clippy::needless_range_loop)] // src[i] and src[i+1] pair per step
    pub fn shr(&self, bits: usize) -> UBig {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return UBig::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = src.get(i + 1).copied().unwrap_or(0) << (64 - bit_shift);
            out.push(lo | hi);
        }
        UBig::from_limbs(out)
    }

    /// Count of trailing zero bits (`None` for zero).
    pub fn trailing_zeros(&self) -> Option<usize> {
        limbs_trailing_zeros(&self.limbs)
    }

    // ---- division ----------------------------------------------------------

    /// Quotient and remainder by a single limb.
    ///
    /// # Panics
    /// Panics when `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (UBig, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (UBig::from_limbs(out), rem as u64)
    }

    /// Remainder by a single limb, without allocating.
    ///
    /// # Panics
    /// Panics when `d == 0`.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | limb as u128) % d as u128;
        }
        rem as u64
    }

    /// Quotient and remainder (Knuth Algorithm D).
    ///
    /// # Panics
    /// Panics when `divisor` is zero.
    pub fn div_rem(&self, divisor: &UBig) -> (UBig, UBig) {
        assert!(!divisor.is_zero(), "division by zero");
        match Self::cmp_limbs(&self.limbs, &divisor.limbs) {
            Ordering::Less => return (UBig::zero(), self.clone()),
            Ordering::Equal => return (UBig::one(), UBig::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, UBig::from_u64(r));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let mut u_limbs = u.limbs.clone();
        u_limbs.push(0); // u gets one extra high limb
        let m = u_limbs.len() - n - 1;
        let v_limbs = &v.limbs;
        let v_top = v_limbs[n - 1];
        let v_second = v_limbs[n - 2];

        let mut q_limbs = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate the quotient digit from the top two/three limbs.
            let numer = ((u_limbs[j + n] as u128) << 64) | u_limbs[j + n - 1] as u128;
            let mut qhat = numer / v_top as u128;
            let mut rhat = numer % v_top as u128;
            while qhat >> 64 != 0
                || qhat * v_second as u128 > ((rhat << 64) | u_limbs[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from u[j..j+n+1].
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v_limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u_limbs[j + i] as i128) - ((p as u64) as i128) + borrow;
                u_limbs[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift keeps the sign
            }
            let sub = (u_limbs[j + n] as i128) - (carry as i128) + borrow;
            u_limbs[j + n] = sub as u64;
            borrow = sub >> 64;

            if borrow < 0 {
                // qhat was one too large: add v back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let cur = u_limbs[j + i] as u128 + v_limbs[i] as u128 + carry;
                    u_limbs[j + i] = cur as u64;
                    carry = cur >> 64;
                }
                u_limbs[j + n] = u_limbs[j + n].wrapping_add(carry as u64);
            }
            q_limbs[j] = qhat as u64;
        }

        let rem = UBig::from_limbs(u_limbs[..n].to_vec()).shr(shift);
        (UBig::from_limbs(q_limbs), rem)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &UBig) -> UBig {
        self.div_rem(m).1
    }

    /// Greatest common divisor (binary GCD) on two limb buffers of the
    /// wider operand's width: the odd parts are subtracted and shifted in
    /// place, as `modring::inv_mod` does, with nothing allocated in the
    /// loop, and the width drops as the top limbs of both reach zero.
    pub fn gcd(&self, other: &UBig) -> UBig {
        let (Some(az), Some(bz)) = (self.trailing_zeros(), other.trailing_zeros()) else {
            // gcd(0, b) = b and gcd(a, 0) = a.
            return if self.is_zero() { other } else { self }.clone();
        };
        let width = self.limb_len().max(other.limb_len());
        let mut buf = vec![0u64; 2 * width];
        let (mut a, mut b) = buf.split_at_mut(width);
        a[..self.limb_len()].copy_from_slice(self.limbs());
        b[..other.limb_len()].copy_from_slice(other.limbs());
        shr_in_place(a, az);
        shr_in_place(b, bz);
        let mut len = width;
        loop {
            // Both odd, so a[0] and b[0] are not zero and len stays >= 1.
            while a[len - 1] == 0 && b[len - 1] == 0 {
                len -= 1;
            }
            if a[..len].iter().rev().gt(b[..len].iter().rev()) {
                std::mem::swap(&mut a, &mut b);
            }
            sub_limbs(&mut b[..len], &a[..len]);
            match limbs_trailing_zeros(&b[..len]) {
                None => return UBig::from_limbs(a[..len].to_vec()).shl(az.min(bz)),
                Some(tz) => shr_in_place(&mut b[..len], tz),
            }
        }
    }

    /// Integer square root: the largest `r` with `r² <= self` (Newton's
    /// iteration from a power of two at or above the root, so the iterates
    /// fall monotonically until they stop).
    pub fn isqrt(&self) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let mut x = UBig::one().shl(self.bit_len().div_ceil(2));
        loop {
            let y = (&x + &(self / &x)).shr(1);
            if y >= x {
                return x;
            }
            x = y;
        }
    }

    /// `self^exp mod m` using plain square-and-multiply (works for any
    /// modulus; the Montgomery path in [`crate::Mont`] is faster for odd m).
    pub fn pow_mod(&self, exp: &UBig, m: &UBig) -> Result<UBig, BigError> {
        if m.is_zero() {
            return Err(BigError::DivideByZero);
        }
        if m.is_one() {
            return Ok(UBig::zero());
        }
        let mut base = self.rem(m);
        let mut acc = UBig::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                acc = acc.mul(&base).rem(m);
            }
            if i + 1 < exp.bit_len() {
                base = base.square().rem(m);
            }
        }
        Ok(acc)
    }
}

// ---- operator impls ----------------------------------------------------

/// Trailing zero bits of little-endian limbs, `None` when all are zero.
fn limbs_trailing_zeros(x: &[u64]) -> Option<usize> {
    let i = x.iter().position(|&l| l != 0)?;
    Some(64 * i + x[i].trailing_zeros() as usize)
}

/// `x >>= k` in place over little-endian limbs, for `k` below their
/// width in bits.
#[inline]
pub(crate) fn shr_in_place(x: &mut [u64], k: usize) {
    let (limbs, bits) = (k / 64, (k % 64) as u32);
    let len = x.len();
    if limbs > 0 {
        x.copy_within(limbs.., 0);
        x[len - limbs..].fill(0);
    }
    if bits > 0 {
        for j in 0..len - 1 {
            x[j] = (x[j] >> bits) | (x[j + 1] << (64 - bits));
        }
        x[len - 1] >>= bits;
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        Self::cmp_limbs(&self.limbs, &other.limbs)
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::ops::Add for &UBig {
    type Output = UBig;
    fn add(self, rhs: &UBig) -> UBig {
        UBig::add(self, rhs)
    }
}

impl std::ops::Sub for &UBig {
    type Output = UBig;
    fn sub(self, rhs: &UBig) -> UBig {
        UBig::sub(self, rhs)
    }
}

impl std::ops::Mul for &UBig {
    type Output = UBig;
    fn mul(self, rhs: &UBig) -> UBig {
        UBig::mul(self, rhs)
    }
}

impl std::ops::Div for &UBig {
    type Output = UBig;
    fn div(self, rhs: &UBig) -> UBig {
        self.div_rem(rhs).0
    }
}

impl std::ops::Rem for &UBig {
    type Output = UBig;
    fn rem(self, rhs: &UBig) -> UBig {
        self.div_rem(rhs).1
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UBig(0x{})", self.to_hex())
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

impl FromStr for UBig {
    type Err = BigError;
    /// Accepts decimal, or hexadecimal with an `0x` prefix.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            UBig::from_hex(hex)
        } else {
            UBig::from_decimal(s)
        }
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        UBig::from_u64(v)
    }
}

impl From<u32> for UBig {
    fn from(v: u32) -> Self {
        UBig::from_u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> UBig {
        s.parse().unwrap()
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(UBig::zero().is_zero());
        assert!(UBig::one().is_one());
        assert!(UBig::zero().is_even());
        assert!(UBig::one().is_odd());
        assert_eq!(UBig::zero().bit_len(), 0);
        assert_eq!(UBig::one().bit_len(), 1);
        assert_eq!(UBig::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn from_limbs_normalizes() {
        let x = UBig::from_limbs(vec![5, 0, 0]);
        assert_eq!(x.limb_len(), 1);
        assert_eq!(x.to_u64(), Some(5));
    }

    #[test]
    fn add_with_carry_chain() {
        let a = UBig::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = UBig::one();
        let s = &a + &b;
        assert_eq!(s.limbs(), &[0, 0, 1]);
        assert_eq!(s.sub(&b), a);
    }

    #[test]
    fn sub_underflow_is_checked() {
        assert!(UBig::from_u64(3).checked_sub(&UBig::from_u64(4)).is_none());
        assert_eq!(
            UBig::from_u64(4).checked_sub(&UBig::from_u64(4)),
            Some(UBig::zero())
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = UBig::from_u64(1).sub(&UBig::from_u64(2));
    }

    #[test]
    fn mul_known_values() {
        let a = big("123456789012345678901234567890");
        let b = big("987654321098765432109876543210");
        let expect = big("121932631137021795226185032733622923332237463801111263526900");
        assert_eq!(&a * &b, expect);
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = big("340282366920938463463374607431768211456"); // 2^128
        assert_eq!(a.mul_u64(7), &a * &UBig::from_u64(7));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Construct operands above the Karatsuba threshold.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..40 {
            x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(1);
            limbs_a.push(x);
            x = x.wrapping_mul(0x94d049bb133111eb).wrapping_add(3);
            limbs_b.push(x);
        }
        let a = UBig::from_limbs(limbs_a);
        let b = UBig::from_limbs(limbs_b);
        assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
    }

    #[test]
    fn square_matches_schoolbook_mul() {
        // Compare against (a+1)(a-1) + 1 = a^2 computed through the
        // ordinary (unequal-operand) multiplication path, so the check
        // does not route through `square` itself.
        let mut x = 0x9e3779b97f4a7c15u64;
        for limbs in [1usize, 2, 5, 31, 32, 40, 65] {
            let mut v = Vec::with_capacity(limbs);
            for _ in 0..limbs {
                x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(7);
                v.push(x | 1);
            }
            let a = UBig::from_limbs(v);
            let via_mul = &(&(&a + &UBig::one()) * &a.sub(&UBig::one())) + &UBig::one();
            assert_eq!(a.square(), via_mul, "limbs={limbs}");
        }
        assert_eq!(UBig::zero().square(), UBig::zero());
        assert_eq!(UBig::one().square(), UBig::one());
    }

    #[test]
    fn mul_detects_self_multiplication() {
        let a = big("0xdeadbeefcafebabe0123456789abcdef00112233445566778899aabbccddeeff");
        let b = a.clone();
        // Same allocation and equal-value cases both agree with square().
        assert_eq!(&a * &a, a.square());
        assert_eq!(&a * &b, a.square());
    }

    #[test]
    fn div_rem_single_limb() {
        let a = big("123456789012345678901234567890");
        let (q, r) = a.div_rem_u64(97);
        assert_eq!(&(q.mul_u64(97)) + &UBig::from_u64(r), a);
        assert!(r < 97);
        assert_eq!(a.rem_u64(97), r);
        for d in [1u64, 2, 0xffff_ffff, u64::MAX - 58, u64::MAX] {
            assert_eq!(a.rem_u64(d), a.div_rem_u64(d).1, "d={d}");
            assert_eq!(UBig::zero().rem_u64(d), 0);
        }
    }

    #[test]
    fn div_rem_multi_limb_roundtrip() {
        let a = big("0xdeadbeefcafebabe0123456789abcdef00112233445566778899aabbccddeeff");
        let b = big("0xfedcba98765432100f0e0d0c0b0a0908");
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_needs_correction_step() {
        // Divisor with maximal top limb forces the qhat correction path.
        let b = UBig::from_limbs(vec![0, u64::MAX]);
        let a = UBig::from_limbs(vec![u64::MAX, u64::MAX, u64::MAX - 1, u64::MAX]);
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = big("0x123456789abcdef0fedcba9876543210");
        for bits in [1usize, 7, 63, 64, 65, 130] {
            assert_eq!(a.shl(bits).shr(bits), a, "bits={bits}");
        }
        assert_eq!(a.shr(1000), UBig::zero());
    }

    #[test]
    fn bytes_roundtrip_padded() {
        let a = big("0x0102030405");
        assert_eq!(a.to_bytes_be(), vec![1, 2, 3, 4, 5]);
        assert_eq!(a.to_bytes_be_padded(8), vec![0, 0, 0, 1, 2, 3, 4, 5]);
        assert_eq!(UBig::from_bytes_be(&[0, 0, 1, 2, 3, 4, 5]), a);
    }

    #[test]
    #[should_panic(expected = "bytes")]
    fn padded_bytes_too_small_panics() {
        big("0x010203").to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            assert_eq!(UBig::from_hex(s).unwrap().to_hex(), s, "hex {s}");
        }
        // Leading zeros and uppercase are accepted on input, canonicalized out.
        assert_eq!(UBig::from_hex("000A").unwrap().to_hex(), "a");
        assert!(UBig::from_hex("").is_err());
        assert!(UBig::from_hex("xyz").is_err());
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211455",
            "99999999999999999999999999999999999999999999999999",
        ] {
            assert_eq!(big(s).to_decimal(), s);
        }
    }

    #[test]
    fn display_and_fromstr_agree() {
        let v = big("123456789123456789123456789");
        assert_eq!(v.to_string().parse::<UBig>().unwrap(), v);
        assert_eq!(format!("0x{}", v.to_hex()).parse::<UBig>().unwrap(), v);
    }

    #[test]
    fn gcd_known() {
        assert_eq!(
            UBig::from_u64(48).gcd(&UBig::from_u64(36)),
            UBig::from_u64(12)
        );
        assert_eq!(UBig::zero().gcd(&UBig::from_u64(7)), UBig::from_u64(7));
        assert_eq!(UBig::from_u64(7).gcd(&UBig::zero()), UBig::from_u64(7));
        let a = big("123456789012345678901234567890");
        let g = a.gcd(&a);
        assert_eq!(g, a);
    }

    /// Euclid's algorithm by `rem`, sharing no code with the binary
    /// `gcd`.
    fn gcd_oracle(a: &UBig, b: &UBig) -> UBig {
        let (mut a, mut b) = (a.clone(), b.clone());
        while !b.is_zero() {
            let r = a.rem(&b);
            a = std::mem::replace(&mut b, r);
        }
        a
    }

    #[test]
    fn gcd_matches_euclid_on_edge_operands() {
        let p2 = |k: usize| UBig::one().shl(k);
        let m127 = p2(127).sub(&UBig::one());
        let wide = &big("123456789012345678901234567890123456789") * &m127;
        let values = [
            UBig::zero(),
            UBig::one(),
            UBig::from_u64(2),
            UBig::from_u64(6),
            p2(63),
            p2(64),
            p2(200),
            &p2(200) * &UBig::from_u64(3),
            m127.clone(),
            &m127 * &p2(70),
            wide.clone(),
            &wide * &p2(129),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(a.gcd(b), gcd_oracle(a, b), "gcd({a}, {b})");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn gcd_matches_euclid(
            a in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..12),
            b in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..7),
            common in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..4),
            shift in 0usize..130,
        ) {
            let (a, b) = (UBig::from_limbs(a), UBig::from_limbs(b));
            let common = UBig::from_limbs(common).shl(shift);
            for (x, y) in [(&a, &b), (&b, &a), (&(&a * &common), &(&b * &common)), (&a, &a)] {
                proptest::prop_assert_eq!(x.gcd(y), gcd_oracle(x, y));
            }
        }
    }

    #[test]
    fn isqrt_is_the_floor_root() {
        for v in 0u64..1100 {
            let r = UBig::from_u64(v).isqrt().to_u64().unwrap();
            assert!(r * r <= v && (r + 1) * (r + 1) > v, "isqrt({v}) = {r}");
        }
        assert_eq!(
            UBig::from_u64(u64::MAX).isqrt().to_u64(),
            Some(u32::MAX as u64)
        );
        // r², r² - 1 and r² + 2r (the last value below (r+1)²) around
        // limb boundaries and at a 512-bit root.
        for hex in [
            "ffffffff",
            "100000000",
            "ffffffffffffffff",
            "10000000000000001",
            "deadbeefcafebabe0123456789abcdef00112233445566778899aabbccddeeff",
            "c3193b619c172ad6e4714d356be20873c6207b39375229aa619f1d0a3702541e9199db982af89e1af52e2ad586338064a59077da73b48dc79f8c05ad55d26073",
        ] {
            let r = UBig::from_hex(hex).unwrap();
            let sq = r.square();
            assert_eq!(sq.isqrt(), r, "r = {hex}");
            assert_eq!(sq.sub(&UBig::one()).isqrt(), r.sub(&UBig::one()));
            assert_eq!((&sq + &r.shl(1)).isqrt(), r);
        }
    }

    #[test]
    fn pow_mod_small_cases() {
        let m = UBig::from_u64(1_000_000_007);
        let r = UBig::from_u64(2).pow_mod(&UBig::from_u64(10), &m).unwrap();
        assert_eq!(r.to_u64(), Some(1024));
        // Fermat: a^(p-1) = 1 mod p
        let r = UBig::from_u64(31337)
            .pow_mod(&UBig::from_u64(1_000_000_006), &m)
            .unwrap();
        assert!(r.is_one());
        // mod 1 is always 0
        let r = UBig::from_u64(5)
            .pow_mod(&UBig::from_u64(5), &UBig::one())
            .unwrap();
        assert!(r.is_zero());
    }

    #[test]
    fn bit_access() {
        let mut v = UBig::zero();
        v.set_bit(0);
        v.set_bit(100);
        assert!(v.bit(0) && v.bit(100) && !v.bit(50));
        assert_eq!(v.bit_len(), 101);
        assert!(!v.bit(5000));
    }

    #[test]
    fn trailing_zeros_cases() {
        assert_eq!(UBig::zero().trailing_zeros(), None);
        assert_eq!(UBig::from_u64(1).trailing_zeros(), Some(0));
        assert_eq!(UBig::from_u64(8).trailing_zeros(), Some(3));
        assert_eq!(UBig::one().shl(200).trailing_zeros(), Some(200));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big("0xffffffffffffffff") < big("0x10000000000000000"));
        assert!(big("5") > big("4"));
        assert_eq!(big("5").cmp(&big("5")), Ordering::Equal);
    }
}
