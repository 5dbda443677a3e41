//! Arbitrary-precision unsigned integer arithmetic for the P2DRM workspace.
//!
//! The offline environment provides no big-integer or cryptography crates, so
//! every primitive the paper's protocols need (RSA, Chaum blind signatures,
//! ElGamal identity escrow) is built on this crate. It provides:
//!
//! * [`UBig`] — an unsigned arbitrary-precision integer (little-endian `u64`
//!   limbs) with full arithmetic, bit operations, and byte/hex/decimal
//!   conversions.
//! * [`ct`] — [`ct::Secret`], the type that keeps the constant-time
//!   rule: a secret exponent, window digit, index, mask, borrow or carry
//!   cannot be branched on, indexed by or short-circuited on, and leaves
//!   only through `declassify`.
//! * [`Mont`] — a Montgomery reduction context (CIOS) for fast modular
//!   exponentiation with odd moduli, the workhorse of all public-key
//!   operations; its `*_into` kernels keep values in Montgomery form
//!   across a whole computation so conversions are paid at the boundary
//!   only.
//! * [`ifma`] — any number of exponentiations, eight to a kernel call,
//!   one per 64-bit lane of AVX-512 IFMA registers: modulo odd numbers
//!   of at most 362 bits with secret exponents (the CRT halves of one or
//!   many RSA private-key operations), and modulo odd numbers of at most
//!   1038 bits under one public exponent (the public-key operations of
//!   many RSA-1024 requests).
//! * [`modring`] — plain modular arithmetic, extended GCD, modular inverse
//!   and the Jacobi symbol.
//! * [`prime`] — Baillie–PSW primality testing (plus optional random-base
//!   Miller–Rabin rounds) and sieved incremental prime search.
//! * [`BigRng`] — a minimal randomness trait (blanket-implemented for every
//!   [`rand::RngCore`]) so callers can inject deterministic generators in
//!   tests.
//!
//! # Example
//!
//! ```
//! use p2drm_bignum::UBig;
//!
//! let a = UBig::from_u64(1_000_000_007);
//! let b = UBig::from_u64(998_244_353);
//! let m = &a * &b;
//! assert_eq!(&m / &b, a);
//! assert_eq!(&m % &a, UBig::zero());
//! ```
//!
//! # `unsafe`
//!
//! The crate denies `unsafe_code`. Three functions are exempt, each a
//! guarded kernel call:
//!
//! * `mont::mul6_adx`, the 6-limb Montgomery product written in inline
//!   assembly with `mulx` (BMI2) and `adcx` / `adox` (ADX). It asks
//!   `is_x86_feature_detected!` for `adx` and `bmi2` on every call and
//!   runs the assembly only after both are reported; the assembly reads
//!   only the limbs of its `&[u64; 6]` operands and writes only its
//!   declared register outputs ([`mont`] module doc).
//! * `ifma::pow_vertical`, the call into the vertical exponentiation
//!   that both of its entries go through. It asks for `avx512f`,
//!   `avx512vl` and `avx512ifma` and only then calls the kernel, which
//!   is safe `#[target_feature]` functions over
//!   register values with no pointer intrinsics, so the call is the only
//!   `unsafe` operation ([`ifma`] module doc).
//! * `prime::advance`, the prime search's sieve step. It asks for
//!   `avx512f` and `avx512bw`, or for `avx2`, and only then calls that
//!   instance of the step, a safe `#[target_feature]` function whose body
//!   is the portable loop, inlined; without either it runs the portable
//!   loop ([`prime`] module doc).
//!
//! CI fails if a fourth exemption appears anywhere in the crate.
//!
//! # Security note
//!
//! This is a *reference implementation for protocol research*. Secret
//! exponents take one fixed-window algorithm whose exponent, digits,
//! lookup indices, masks and carries are [`ct::Secret`]s; the rest of the
//! arithmetic ([`UBig`] division, [`modring::inv_mod`]'s binary GCD, the
//! prime search) branches on its operands, and no blinding is applied at
//! this layer. Do not reuse for production secrets.

#![deny(unsafe_code)]

pub mod ct;
pub mod ifma;
pub mod modring;
pub mod mont;
pub mod prime;
pub mod rng;
pub mod ubig;

pub use mont::Mont;
pub use rng::BigRng;
pub use ubig::UBig;

/// Errors produced by parsing and arithmetic entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BigError {
    /// Input string was empty or contained an invalid digit.
    Parse(String),
    /// Division or reduction by zero.
    DivideByZero,
    /// An operand was outside the required range (message explains).
    OutOfRange(&'static str),
    /// No modular inverse exists (operand shares a factor with the modulus).
    NotInvertible,
    /// The modulus handed to a Montgomery context was even or < 3.
    BadModulus,
}

impl std::fmt::Display for BigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BigError::Parse(s) => write!(f, "invalid number literal: {s:?}"),
            BigError::DivideByZero => write!(f, "division by zero"),
            BigError::OutOfRange(m) => write!(f, "operand out of range: {m}"),
            BigError::NotInvertible => write!(f, "element is not invertible modulo n"),
            BigError::BadModulus => write!(f, "modulus must be odd and >= 3"),
        }
    }
}

impl std::error::Error for BigError {}
