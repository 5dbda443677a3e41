//! Arbitrary-precision unsigned integer arithmetic for the P2DRM workspace.
//!
//! The offline environment provides no big-integer or cryptography crates, so
//! every primitive the paper's protocols need (RSA, Chaum blind signatures,
//! ElGamal identity escrow) is built on this crate. It provides:
//!
//! * [`UBig`] — an unsigned arbitrary-precision integer (little-endian `u64`
//!   limbs) with full arithmetic, bit operations, and byte/hex/decimal
//!   conversions.
//! * [`Mont`] — a Montgomery reduction context (CIOS) for fast modular
//!   exponentiation with odd moduli, the workhorse of all public-key
//!   operations; [`MontForm`] keeps values in Montgomery form across a
//!   whole computation so conversions are paid at the boundary only.
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
//! # Security note
//!
//! This is a *reference implementation for protocol research*: operations are
//! not constant-time and no blinding is applied at this layer. Do not reuse
//! for production secrets.

pub mod modring;
pub mod mont;
pub mod prime;
pub mod rng;
pub mod ubig;

pub use mont::{Mont, MontForm};
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
