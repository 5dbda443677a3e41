//! Property-based tests for the arithmetic core.
//!
//! These are the backbone of trust in everything above: ring axioms,
//! division invariants, codec roundtrips, and agreement between the
//! Montgomery and plain exponentiation paths.

use p2drm_bignum::ct::Secret;
use p2drm_bignum::modring;
use p2drm_bignum::{Mont, UBig};
use proptest::prelude::*;

/// Strategy: arbitrary UBig up to ~256 bits from raw bytes.
fn ubig() -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..32).prop_map(|b| UBig::from_bytes_be(&b))
}

/// Strategy: nonzero UBig.
fn ubig_nonzero() -> impl Strategy<Value = UBig> {
    ubig().prop_map(|v| if v.is_zero() { UBig::one() } else { v })
}

/// Strategy: arbitrary UBig up to ~2560 bits, crossing the Karatsuba
/// threshold (32 limbs).
fn ubig_wide() -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..320).prop_map(|b| UBig::from_bytes_be(&b))
}

/// Strategy: odd modulus >= 3.
fn odd_modulus() -> impl Strategy<Value = UBig> {
    ubig().prop_map(|v| {
        let mut m = v;
        if m.bit_len() < 2 {
            m = UBig::from_u64(3);
        }
        if m.is_even() {
            m = &m + &UBig::one();
        }
        m
    })
}

/// Strategy: arbitrary UBig up to 384 bits (six limbs).
fn ubig384() -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..49).prop_map(|b| UBig::from_bytes_be(&b))
}

/// Strategy: odd modulus of 321–384 bits, i.e. exactly six limbs — the
/// width of a three-prime 1024-bit RSA key's primes, which dispatches to
/// the fixed 6-limb Montgomery kernels.
fn odd_modulus_6_limbs() -> impl Strategy<Value = UBig> {
    (
        proptest::collection::vec(any::<u8>(), 48..49),
        321usize..385,
    )
        .prop_map(|(b, bits)| {
            let mut m = UBig::from_bytes_be(&b).shr(384 - bits);
            m.set_bit(bits - 1);
            m.set_bit(0);
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn six_limb_kernels_match_division(a in ubig384(), b in ubig384(), n in odd_modulus_6_limbs()) {
        let mont = Mont::new(&n).unwrap();
        prop_assert_eq!(mont.limb_len(), 6);
        prop_assert!(mont.alloc_scratch().is_empty(), "6 limbs has a fixed kernel");
        // CIOS product: mont_mul(a·R, b) = a·b mod n.
        prop_assert_eq!(mont.mul_mod(&a, &b), modring::mul_mod(&a, &b, &n));
        // SOS squaring against the product of a value with itself, and
        // against the plain square once out of form.
        let am = mont.to_mont(&a);
        let sq = mont.mont_sqr(&am);
        prop_assert_eq!(&sq, &mont.mont_mul(&am, &am));
        prop_assert_eq!(mont.from_mont(&sq), modring::mul_mod(&a, &a, &n));
    }

    #[test]
    fn six_limb_pow_matches_pow_mod(
        a in ubig384(),
        e in ubig384(),
        n in odd_modulus_6_limbs(),
        k in 0usize..384,
        d in 1u64..16,
    ) {
        // A random exponent, then 2^k, the lone digit d in window k/4,
        // and d in every other window with zero digits between.
        let mont = Mont::new(&n).unwrap();
        for e in [
            e,
            UBig::one().shl(k),
            UBig::from_u64(d).shl(k / 4 * 4),
            UBig::from_hex(&format!("{d:x}0").repeat(k / 8 + 1)).unwrap(),
        ] {
            prop_assert_eq!(mont.pow(&a, &e), a.pow_mod(&e, &n).unwrap());
        }
    }

    #[test]
    fn add_commutative(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_roundtrip(a in ubig(), b in ubig()) {
        prop_assert_eq!((&a + &b).sub(&b), a);
    }

    #[test]
    fn mul_commutative(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn division_invariant(a in ubig(), b in ubig_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn bytes_roundtrip(a in ubig()) {
        prop_assert_eq!(UBig::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in ubig()) {
        prop_assert_eq!(UBig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in ubig()) {
        prop_assert_eq!(UBig::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in ubig(), s in 0usize..130) {
        prop_assert_eq!(a.shl(s), &a * &UBig::one().shl(s));
        prop_assert_eq!(a.shr(s), &a / &UBig::one().shl(s));
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(), b in ubig_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn mont_matches_plain_mul(a in ubig(), b in ubig(), n in odd_modulus()) {
        let mont = Mont::new(&n).unwrap();
        prop_assert_eq!(mont.mul_mod(&a, &b), modring::mul_mod(&a, &b, &n));
    }

    #[test]
    fn mont_pow_matches_naive(a in ubig(), e in 0u64..2000, n in odd_modulus()) {
        let mont = Mont::new(&n).unwrap();
        let e = UBig::from_u64(e);
        prop_assert_eq!(mont.pow(&a, &e), a.pow_mod(&e, &n).unwrap());
    }

    #[test]
    fn mont_sqr_matches_mont_mul(a in ubig(), n in odd_modulus()) {
        let mont = Mont::new(&n).unwrap();
        let am = mont.to_mont(&a);
        prop_assert_eq!(mont.mont_sqr(&am), mont.mont_mul(&am, &am));
    }

    #[test]
    fn square_matches_non_self_mul(a in ubig_wide()) {
        // (a+1)(a-1) + 1 = a^2 goes through the ordinary unequal-operand
        // multiplication path, so this does not route through square().
        let via_mul = &(&(&a + &UBig::one()) * &a.checked_sub(&UBig::one()).unwrap_or_default())
            + &if a.is_zero() { UBig::zero() } else { UBig::one() };
        prop_assert_eq!(a.square(), via_mul);
    }

    #[test]
    fn mont_pow_matches_pow_mod_long_exponents(a in ubig(), e in ubig(), n in odd_modulus()) {
        let mont = Mont::new(&n).unwrap();
        prop_assert_eq!(mont.pow(&a, &e), a.pow_mod(&e, &n).unwrap());
    }

    #[test]
    fn bits_at_matches_per_bit_reads(a in ubig(), pos in 0usize..300, w in 1usize..33) {
        let mut expect = 0u64;
        for k in (0..w).rev() {
            expect = (expect << 1) | a.bit(pos + k) as u64;
        }
        prop_assert_eq!(a.bits_at(pos, w), expect);
    }

    #[test]
    fn inverse_is_inverse(a in ubig_nonzero(), n in odd_modulus()) {
        if let Ok(inv) = modring::inv_mod(Secret::new(&a), &n) {
            prop_assert_eq!(modring::mul_mod(&a, &inv, &n), UBig::one().rem(&n));
        }
    }

    #[test]
    fn odd_modulus_inverse_exists_exactly_for_units(a in ubig_wide(), n in ubig_wide()) {
        // The inverse is below n with a·x ≡ 1 (mod n), and it is refused
        // exactly when gcd(a, n), from `UBig::gcd`, is not 1.
        let mut n = n;
        n.set_bit(0);
        let g = a.gcd(&n);
        match modring::inv_mod(Secret::new(&a), &n) {
            Ok(inv) => {
                prop_assert!(g.is_one());
                prop_assert!(inv < n);
                prop_assert_eq!(modring::mul_mod(&a, &inv, &n), UBig::one().rem(&n));
            }
            Err(e) => {
                prop_assert_eq!(e, p2drm_bignum::BigError::NotInvertible);
                prop_assert!(!g.is_one());
            }
        }
    }

    #[test]
    fn sub_mod_inverts_add_mod(a in ubig(), b in ubig(), n in odd_modulus()) {
        let s = modring::add_mod(&a, &b, &n);
        prop_assert_eq!(modring::sub_mod(&s, &b, &n), a.rem(&n));
    }
}
