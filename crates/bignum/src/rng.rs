//! Randomness plumbing: a minimal byte-filling trait plus uniform sampling
//! of big integers.
//!
//! [`BigRng`] is blanket-implemented for every [`rand::RngCore`], so callers
//! can hand in `StdRng::seed_from_u64(..)` for deterministic tests or an OS
//! RNG in examples.

use crate::ubig::UBig;

/// Byte-level randomness source. Blanket-implemented for all `rand` RNGs.
pub trait BigRng {
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<T: rand::RngCore> BigRng for T {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        rand::RngCore::fill_bytes(self, dest)
    }
}

/// Uniform random integer with at most `bits` bits.
pub fn random_bits<R: BigRng + ?Sized>(rng: &mut R, bits: usize) -> UBig {
    if bits == 0 {
        return UBig::zero();
    }
    let nbytes = bits.div_ceil(8);
    let mut buf = vec![0u8; nbytes];
    rng.fill_bytes(&mut buf);
    let excess = nbytes * 8 - bits;
    buf[0] &= 0xffu8 >> excess;
    UBig::from_bytes_be(&buf)
}

/// Uniform random integer in `[0, bound)` via rejection sampling.
///
/// # Panics
/// Panics when `bound` is zero.
pub fn random_below<R: BigRng + ?Sized>(rng: &mut R, bound: &UBig) -> UBig {
    assert!(!bound.is_zero(), "random_below of zero bound");
    let bits = bound.bit_len();
    loop {
        let cand = random_bits(rng, bits);
        if &cand < bound {
            return cand;
        }
    }
}

/// Uniform random integer in `[lo, hi)`.
///
/// # Panics
/// Panics when `lo >= hi`.
pub fn random_range<R: BigRng + ?Sized>(rng: &mut R, lo: &UBig, hi: &UBig) -> UBig {
    assert!(lo < hi, "empty range");
    lo + &random_below(rng, &hi.sub(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn random_bits_respects_width() {
        let mut r = rng();
        for bits in [0usize, 1, 7, 8, 9, 63, 64, 65, 257] {
            for _ in 0..20 {
                let v = random_bits(&mut r, bits);
                assert!(v.bit_len() <= bits, "bits={bits} got {}", v.bit_len());
            }
        }
    }

    #[test]
    fn random_bits_hits_top_bit_sometimes() {
        let mut r = rng();
        let hit = (0..200).any(|_| random_bits(&mut r, 16).bit(15));
        assert!(hit, "top bit should be reachable");
    }

    #[test]
    fn random_below_in_range_and_covers() {
        let mut r = rng();
        let bound = UBig::from_u64(10);
        let mut seen = [false; 10];
        for _ in 0..500 {
            let v = random_below(&mut r, &bound);
            assert!(v < bound);
            seen[v.to_u64().unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn random_range_stays_inside() {
        let mut r = rng();
        let lo = UBig::from_u64(100);
        let hi = UBig::from_u64(110);
        for _ in 0..200 {
            let v = random_range(&mut r, &lo, &hi);
            assert!(v >= lo && v < hi);
        }
    }

    #[test]
    #[should_panic(expected = "zero bound")]
    fn random_below_zero_panics() {
        random_below(&mut rng(), &UBig::zero());
    }
}
