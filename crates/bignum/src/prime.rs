//! Miller–Rabin primality testing and random prime generation.
//!
//! Prime generation drives RSA key generation in `p2drm-crypto`: every
//! pseudonym a smartcard mints costs two ~512-bit prime searches, each of
//! which tests a couple of hundred candidates. The search is therefore
//! organised so that a composite candidate is dismissed cheaply:
//!
//! * **Grouped trial division.** The primes below 2048 are cut into runs
//!   whose product fits a `u64`. A candidate is reduced once per *run*
//!   with a single-limb, allocation-free remainder ([`UBig::rem_u64`]),
//!   and the run's primes are then tried against that one word.
//! * **Base-2 ladder.** The first Miller–Rabin witness is always 2, and it
//!   is the round that rejects nearly every composite that survives the
//!   sieve. `2^d mod n` is computed by a square-and-double ladder: where
//!   a generic base multiplies, base 2 shifts the accumulator left one bit
//!   and conditionally subtracts `n`. The other witnesses use
//!   [`Mont::pow`]; all of them share one strong-probable-prime check on
//!   `a^d`.
//!
//! Both are reorganisations of the same test: the primes tried, the
//! witnesses, the verdict on every input and the bytes drawn from the RNG
//! are those of a per-prime remainder loop followed by sixteen generic
//! Miller–Rabin rounds, so a seeded [`gen_prime`] returns the same prime
//! (golden-value and old-versus-new tests at the bottom of this file).

use crate::mont::Mont;
use crate::rng::BigRng;
use crate::ubig::UBig;
use std::sync::OnceLock;

/// Trial-division table bound. 2048 keeps the sieve tiny while rejecting
/// ~89% of random odd candidates before a Miller-Rabin round is spent.
const SMALL_PRIME_BOUND: usize = 2048;

fn small_primes() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut sieve = vec![true; SMALL_PRIME_BOUND];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..SMALL_PRIME_BOUND {
            if sieve[i] {
                let mut j = i * i;
                while j < SMALL_PRIME_BOUND {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        sieve
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| i as u64)
            .collect()
    })
}

/// The table primes in consecutive runs, each with the product of its
/// members; a run ends where one more prime would overflow a `u64`.
fn prime_groups() -> &'static [(u64, &'static [u64])] {
    static GROUPS: OnceLock<Vec<(u64, &'static [u64])>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        let primes = small_primes();
        let mut groups = Vec::new();
        let mut start = 0;
        let mut product = 1u64;
        for (i, &p) in primes.iter().enumerate() {
            match product.checked_mul(p) {
                Some(next) => product = next,
                None => {
                    groups.push((product, &primes[start..i]));
                    start = i;
                    product = p;
                }
            }
        }
        groups.push((product, &primes[start..]));
        groups
    })
}

/// The Miller–Rabin verdict for one witness `a`, given `x = a^d mod n`
/// for odd `n = d * 2^r + 1`.
fn strong_probable_prime(mont: &Mont, n_minus_1: &UBig, r: usize, mut x: UBig) -> bool {
    if x.is_one() || x == *n_minus_1 {
        return true;
    }
    for _ in 1..r {
        x = mont.mul_mod(&x, &x);
        if x == *n_minus_1 {
            return true;
        }
        if x.is_one() {
            return false; // nontrivial square root of 1
        }
    }
    false
}

/// Probabilistic primality test.
///
/// Values below 2048 are looked up in the sieve table. Anything larger is
/// trial-divided by every prime below 2048 — one single-limb remainder
/// per run of primes whose product fits a `u64`, no allocation — and then
/// put through `rounds` Miller–Rabin rounds: the 12 smallest prime bases
/// (which make the test deterministic for `n < 3.3 * 10^24`), base 2
/// first and by the square-and-double ladder, followed by random bases
/// drawn from `rng`. `rng` is read only for those random bases, i.e. only
/// when `rounds > 12` and the 12 fixed bases all passed.
pub fn is_prime<R: BigRng + ?Sized>(n: &UBig, rounds: usize, rng: &mut R) -> bool {
    if let Some(small) = n.to_u64().filter(|&v| v < SMALL_PRIME_BOUND as u64) {
        return small_primes().binary_search(&small).is_ok();
    }
    // n exceeds every table prime, so a table prime dividing it is proper.
    for &(product, group) in prime_groups() {
        let residue = n.rem_u64(product);
        if group.iter().any(|&p| residue.is_multiple_of(p)) {
            return false;
        }
    }
    debug_assert!(n.is_odd());
    let mont = Mont::new(n).expect("odd modulus");
    let n_minus_1 = n.sub(&UBig::one());
    let r = n_minus_1.trailing_zeros().expect("n-1 of odd n>2 is even");
    let d = n_minus_1.shr(r);

    const FIXED_BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    for &a in FIXED_BASES.iter().take(rounds.clamp(1, 12)) {
        let x = if a == 2 {
            mont.pow2(&d)
        } else {
            mont.pow(&UBig::from_u64(a), &d)
        };
        if !strong_probable_prime(&mont, &n_minus_1, r, x) {
            return false;
        }
    }
    let extra = rounds.saturating_sub(12);
    let two = UBig::from_u64(2);
    let span = n.sub(&UBig::from_u64(3)); // witnesses in [2, n-2]
    for _ in 0..extra {
        let a = &crate::rng::random_below(rng, &span) + &two;
        if !strong_probable_prime(&mont, &n_minus_1, r, mont.pow(&a, &d)) {
            return false;
        }
    }
    true
}

/// Generates a random prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (so a product of two such primes has the
/// full expected bit length) and the value is forced odd. Each candidate is
/// one fresh `bits`-bit draw from `rng` judged by [`is_prime`]; the only
/// other bytes taken from `rng` are the random witnesses of candidates that
/// passed all 12 fixed bases, so the prime returned and the state `rng` is
/// left in depend on the seed alone.
///
/// # Panics
/// Panics if `bits < 16`.
pub fn gen_prime<R: BigRng + ?Sized>(bits: usize, rounds: usize, rng: &mut R) -> UBig {
    assert!(bits >= 16, "prime sizes below 16 bits are not supported");
    loop {
        let mut cand = crate::rng::random_bits(rng, bits);
        cand.set_bit(bits - 1);
        cand.set_bit(bits - 2);
        cand.set_bit(0);
        if is_prime(&cand, rounds, rng) {
            return cand;
        }
    }
}

/// Generates a prime `p` of exactly `bits` bits with `gcd(p-1, e) == 1`,
/// as RSA key generation requires for public exponent `e`.
pub fn gen_prime_coprime<R: BigRng + ?Sized>(
    bits: usize,
    rounds: usize,
    e: &UBig,
    rng: &mut R,
) -> UBig {
    loop {
        let p = gen_prime(bits, rounds, rng);
        if p.sub(&UBig::one()).gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// One Miller–Rabin round through the generic windowed `Mont::pow`,
    /// as every round (base 2 included) ran before the ladder.
    fn oracle_round(mont: &Mont, n_minus_1: &UBig, d: &UBig, r: usize, a: &UBig) -> bool {
        let mut x = mont.pow(a, d);
        if x.is_one() || x == *n_minus_1 {
            return true;
        }
        for _ in 1..r {
            x = mont.mul_mod(&x, &x);
            if x == *n_minus_1 {
                return true;
            }
            if x.is_one() {
                return false;
            }
        }
        false
    }

    /// `is_prime` as it stood before the grouped sieve and the base-2
    /// ladder: one `UBig` remainder per table prime, every witness through
    /// `Mont::pow`. The reference the current code must match in verdict
    /// and in RNG consumption.
    fn is_prime_oracle<R: BigRng + ?Sized>(n: &UBig, rounds: usize, rng: &mut R) -> bool {
        if n.is_zero() || n.is_one() {
            return false;
        }
        for &p in small_primes() {
            let pb = UBig::from_u64(p);
            if *n == pb {
                return true;
            }
            if n.rem(&pb).is_zero() {
                return false;
            }
        }
        let mont = Mont::new(n).expect("odd modulus");
        let n_minus_1 = n.sub(&UBig::one());
        let r = n_minus_1.trailing_zeros().expect("n-1 of odd n>2 is even");
        let d = n_minus_1.shr(r);
        for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
            .into_iter()
            .take(rounds.clamp(1, 12))
        {
            if !oracle_round(&mont, &n_minus_1, &d, r, &UBig::from_u64(a)) {
                return false;
            }
        }
        let two = UBig::from_u64(2);
        let span = n.sub(&UBig::from_u64(3));
        for _ in 0..rounds.saturating_sub(12) {
            let a = &crate::rng::random_below(rng, &span) + &two;
            if !oracle_round(&mont, &n_minus_1, &d, r, &a) {
                return false;
            }
        }
        true
    }

    /// `gen_prime`'s candidate loop judged by the oracle.
    fn gen_prime_oracle(bits: usize, rounds: usize, rng: &mut StdRng) -> UBig {
        loop {
            let mut cand = crate::rng::random_bits(rng, bits);
            cand.set_bit(bits - 1);
            cand.set_bit(bits - 2);
            cand.set_bit(0);
            if is_prime_oracle(&cand, rounds, rng) {
                return cand;
            }
        }
    }

    /// Same verdict, and both generators left in the same state.
    fn assert_matches_oracle(n: &UBig, rounds: usize) {
        let (mut new_rng, mut old_rng) = (rng(), rng());
        assert_eq!(
            is_prime(n, rounds, &mut new_rng),
            is_prime_oracle(n, rounds, &mut old_rng),
            "verdict on {n}"
        );
        assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "RNG draws on {n}");
    }

    #[test]
    fn prime_groups_partition_the_table() {
        let groups = prime_groups();
        let flat: Vec<u64> = groups.iter().flat_map(|(_, g)| g.iter().copied()).collect();
        assert_eq!(flat, small_primes());
        for (i, &(product, group)) in groups.iter().enumerate() {
            assert_eq!(
                group.iter().map(|&p| p as u128).product::<u128>(),
                product as u128
            );
            if let Some((_, next)) = groups.get(i + 1) {
                assert!(product.checked_mul(next[0]).is_none(), "group {i} not full");
            }
        }
    }

    #[test]
    fn matches_oracle_on_crafted_values() {
        let u = UBig::from_u64;
        // Carmichael numbers, base-2 strong pseudoprimes, and the smallest
        // strong pseudoprime to bases 2, 3, 5 and 7 together.
        for c in [561u64, 1105, 1729, 294_409, 56_052_361] {
            assert_matches_oracle(&u(c), 16);
        }
        for c in [2047u64, 3277, 4033, 4681, 8321, 3_215_031_751] {
            assert_matches_oracle(&u(c), 16);
            assert!(!is_prime(&u(c), 16, &mut rng()), "{c} is composite");
        }
        // Every table prime, alone and times a prime the sieve cannot see:
        // 2053 (first above the bound, one limb) and 2^127 - 1 (two limbs).
        let m127 = UBig::one().shl(127).sub(&UBig::one());
        for &p in small_primes() {
            assert_matches_oracle(&u(p), 16);
            assert!(is_prime(&u(p), 16, &mut rng()));
            assert_matches_oracle(&u(p * 2053), 16);
            assert!(!is_prime(&(&u(p) * &m127), 16, &mut rng()), "{p} * M127");
        }
        assert_matches_oracle(&u(2053), 16);
        assert_matches_oracle(&u(2053 * 2053), 16);
        assert_matches_oracle(&(&u(2053) * &m127), 16);
        // Semiprimes straddling each group boundary.
        for pair in prime_groups().windows(2) {
            let (last, first) = (*pair[0].1.last().unwrap(), pair[1].1[0]);
            assert_matches_oracle(&u(last * first), 16);
            assert_matches_oracle(&(&u(last * first) * &m127), 16);
        }
        // Round counts on either side of the fixed/random split.
        for rounds in [0usize, 1, 2, 12, 13, 20] {
            assert_matches_oracle(&m127, rounds);
            assert_matches_oracle(&u(3_215_031_751), rounds);
        }
    }

    #[test]
    fn gen_prime_matches_oracle_search() {
        for (bits, seed) in [
            (16usize, 1u64),
            (64, 2),
            (65, 3),
            (128, 4),
            (256, 5),
            (512, 6),
        ] {
            let (mut new_rng, mut old_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(
                gen_prime(bits, 16, &mut new_rng),
                gen_prime_oracle(bits, 16, &mut old_rng),
                "bits={bits} seed={seed}"
            );
            assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "bits={bits}");
        }
    }

    /// Values recorded at the commit before the grouped sieve and the
    /// base-2 ladder (PR 13): a seed still yields the same prime and
    /// leaves the generator in the same state.
    #[test]
    fn golden_primes_512() {
        let golden = [
            (1u64, "ffdff2510af9bace07f561cd1463fa42105139b3e814242e60bc49e5cc13294c776f0589f6b42efa2d70eb1c2fbbe2e73dc30c42a5abc74888d1f26a39412b81", [0xe4u8, 0x4b, 0xf6, 0xd0, 0xf7, 0x00, 0x09, 0x43]),
            (2, "ea6844e92733f83a01d934b1523ff79e4ec2fbac4ca3dd89ba8607251f124a1db7de227bbdd0f4b14e9a106f70da54c7ae0be343a14831e12f6295069c470f61", [0x0b, 0xab, 0xe7, 0x12, 0xdb, 0x63, 0x47, 0xa1]),
            (3, "c3193b619c172ad6e4714d356be20873c6207b39375229aa619f1d0a3702541e9199db982af89e1af52e2ad586338064a59077da73b48dc79f8c05ad55d26073", [0xe8, 0xa8, 0x50, 0x9e, 0xe6, 0xb2, 0xcd, 0x11]),
        ];
        for (seed, hex, next) in golden {
            let mut r = StdRng::seed_from_u64(seed);
            assert_eq!(gen_prime(512, 16, &mut r).to_hex(), hex, "seed={seed}");
            let mut after = [0u8; 8];
            RngCore::fill_bytes(&mut r, &mut after);
            assert_eq!(after, next, "RNG state after seed={seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_oracle_on_random_odd_values(
            bits in 64usize..601,
            bytes in proptest::collection::vec(any::<u8>(), 75..76),
        ) {
            let mut n = UBig::from_bytes_be(&bytes).shr(600 - bits);
            n.set_bit(bits - 1);
            n.set_bit(0);
            let (mut new_rng, mut old_rng) = (rng(), rng());
            prop_assert_eq!(
                is_prime(&n, 16, &mut new_rng),
                is_prime_oracle(&n, 16, &mut old_rng)
            );
            prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
        }
    }

    #[test]
    fn small_prime_table_starts_correctly() {
        let t = small_primes();
        assert_eq!(&t[..10], &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert!(t.iter().all(|&p| p < 2048));
    }

    #[test]
    fn classifies_small_numbers() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 101, 1009, 2003, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 100, 1001, 2047, 7917, 104730];
        for p in primes {
            assert!(is_prime(&UBig::from_u64(p), 16, &mut r), "{p} is prime");
        }
        for c in composites {
            assert!(
                !is_prime(&UBig::from_u64(c), 16, &mut r),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn rejects_carmichael_numbers() {
        let mut r = rng();
        // Classic Carmichael numbers fool Fermat but not Miller-Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&UBig::from_u64(c), 16, &mut r), "{c}");
        }
    }

    #[test]
    fn recognizes_known_big_primes() {
        let mut r = rng();
        // 2^127 - 1 (Mersenne) and 2^255 - 19.
        let m127 = UBig::one().shl(127).sub(&UBig::one());
        assert!(is_prime(&m127, 16, &mut r));
        let p25519 = UBig::one().shl(255).sub(&UBig::from_u64(19));
        assert!(is_prime(&p25519, 16, &mut r));
        // 2^127 - 3 is composite.
        let c = UBig::one().shl(127).sub(&UBig::from_u64(3));
        assert!(!is_prime(&c, 16, &mut r));
    }

    #[test]
    fn generated_primes_have_exact_size_and_pass() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = gen_prime(bits, 12, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(p.bit(bits - 2), "second-top bit forced");
            assert!(p.is_odd());
            assert!(is_prime(&p, 20, &mut r));
        }
    }

    #[test]
    fn coprime_generation_respects_e() {
        let mut r = rng();
        let e = UBig::from_u64(65537);
        let p = gen_prime_coprime(96, 12, &e, &mut r);
        assert!(p.sub(&UBig::one()).gcd(&e).is_one());
    }

    #[test]
    fn deterministic_given_seed() {
        let p1 = gen_prime(128, 12, &mut rng());
        let p2 = gen_prime(128, 12, &mut rng());
        assert_eq!(p1, p2);
    }
}
