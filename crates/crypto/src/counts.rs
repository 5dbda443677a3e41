//! What the calling thread's primitives have done, as counts.
//!
//! One thread-local record for the crate, in the pattern of
//! [`p2drm_bignum::counts`]: each counted entry adds its call's
//! operations or blocks once per call, and [`counts`] reads the record.
//! The difference of two readings is the work done between them on the
//! calling thread, and nothing else; no counter is shared between
//! threads.

use std::cell::Cell;

/// The work this crate has done on one thread; see [`counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// RSA private-key operations (sign, blind sign, KEM decapsulation)
    /// whose CRT exponentiations ran in the vertical kernel's lanes.
    pub private_lanes: u64,
    /// RSA private-key operations that ran one `Mont::pow` per prime.
    pub private_scalar: u64,
    /// RSA public-key operations (verify, blinding, KEM encapsulation)
    /// that ran in the vertical kernel's lanes.
    pub public_lanes: u64,
    /// RSA public-key operations that ran `Mont::pow_u64`.
    pub public_scalar: u64,
    /// SHA-256 block compressions, on either kernel.
    pub sha256_blocks: u64,
    /// ChaCha20 keystream blocks: encryption and the generators.
    pub chacha20_blocks: u64,
}

impl Counts {
    const ZERO: Counts = Counts {
        private_lanes: 0,
        private_scalar: 0,
        public_lanes: 0,
        public_scalar: 0,
        sha256_blocks: 0,
        chacha20_blocks: 0,
    };
}

/// The work done between two readings of [`counts`]: later minus
/// earlier.
impl std::ops::Sub for Counts {
    type Output = Counts;

    fn sub(self, earlier: Counts) -> Counts {
        Counts {
            private_lanes: self.private_lanes - earlier.private_lanes,
            private_scalar: self.private_scalar - earlier.private_scalar,
            public_lanes: self.public_lanes - earlier.public_lanes,
            public_scalar: self.public_scalar - earlier.public_scalar,
            sha256_blocks: self.sha256_blocks - earlier.sha256_blocks,
            chacha20_blocks: self.chacha20_blocks - earlier.chacha20_blocks,
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
