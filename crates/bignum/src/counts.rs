//! What the calling thread's arithmetic has done, as counts.
//!
//! One thread-local record for the whole crate: every counted entry adds
//! its call's kernel lanes, products or candidates to it once per call,
//! and [`counts`] reads it. A caller that reads it before and after a
//! computation learns that computation's work on its own thread (the
//! difference of two readings is a [`Counts`] too); work on another
//! thread is in that thread's record. No counter is shared between
//! threads, so counting is one thread-local add, and no cache line
//! moves between the cores of a multi-threaded server.

use std::cell::Cell;

/// Entries of [`Counts::pows`]: moduli of 1 to 31 limbs, then 32 limbs
/// (2,048 bits) and wider.
pub const POW_WIDTHS: usize = 32;

/// The work this crate has done on one thread; see [`counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls of the vertical kernel, through any [`ifma`](crate::ifma)
    /// entry: `⌈lanes / 8⌉` a call sequence on a CPU with AVX-512 IFMA,
    /// none without.
    pub kernel_calls: u64,
    /// Lanes those calls filled, at most eight a call.
    pub kernel_lanes: u64,
    /// [`Mont::pow`](crate::Mont::pow) calls by the modulus's limb
    /// count: entry `i` for `i + 1` limbs, the last for 32 limbs and
    /// more.
    pub pows: [u64; POW_WIDTHS],
    /// Prime-search sieve survivors put through the base-2 Fermat check,
    /// one kernel lane each.
    pub fermat_lanes: u64,
    /// Of those, the ones that passed it.
    pub fermat_passed: u64,
    /// Runs of the scalar primality test, steps 2–4 of
    /// [`is_prime`](crate::prime::is_prime): the base-2 strong test, the
    /// Lucas test and the random-base rounds.
    pub scalar_tests: u64,
    /// Candidates the prime search's sieve stepped to, one pass over the
    /// residue table each: every candidate of a window up to the prime
    /// returned, and on a CPU with AVX-512 IFMA on to the end of that
    /// prime's batch.
    pub sieve_steps: u64,
    /// Montgomery products and squarings the strong Lucas tests made:
    /// the ladder over the bits of `d` and the squarings after it.
    pub lucas_products: u64,
}

impl Counts {
    const ZERO: Counts = Counts {
        kernel_calls: 0,
        kernel_lanes: 0,
        pows: [0; POW_WIDTHS],
        fermat_lanes: 0,
        fermat_passed: 0,
        scalar_tests: 0,
        sieve_steps: 0,
        lucas_products: 0,
    };
}

/// The work done between two readings of [`counts`]: later minus
/// earlier.
impl std::ops::Sub for Counts {
    type Output = Counts;

    fn sub(self, earlier: Counts) -> Counts {
        let mut pows = self.pows;
        for (p, e) in pows.iter_mut().zip(earlier.pows) {
            *p -= e;
        }
        Counts {
            kernel_calls: self.kernel_calls - earlier.kernel_calls,
            kernel_lanes: self.kernel_lanes - earlier.kernel_lanes,
            pows,
            fermat_lanes: self.fermat_lanes - earlier.fermat_lanes,
            fermat_passed: self.fermat_passed - earlier.fermat_passed,
            scalar_tests: self.scalar_tests - earlier.scalar_tests,
            sieve_steps: self.sieve_steps - earlier.sieve_steps,
            lucas_products: self.lucas_products - earlier.lucas_products,
        }
    }
}

thread_local! {
    /// This thread's [`Counts`].
    static COUNTS: Cell<Counts> = const { Cell::new(Counts::ZERO) };
}

/// What this crate has done on the calling thread so far.
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Adds one call's work to this thread's counts.
pub(crate) fn count(update: impl FnOnce(&mut Counts)) {
    COUNTS.with(|counts| {
        let mut c = counts.get();
        update(&mut c);
        counts.set(c);
    });
}
