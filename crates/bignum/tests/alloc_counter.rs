//! Counting-allocator regression test: `Mont::pow`'s square-and-multiply
//! main loop must perform **zero heap allocations** — every buffer (window
//! table, accumulator, scratch) is allocated once before the loop starts.
//!
//! The old kernel allocated a fresh `Vec` per Montgomery product (~5 per 4
//! exponent bits, i.e. ~1000 extra allocations when the exponent grows from
//! 256 to 1024 bits). With one 16-entry window table at every exponent
//! length, a long exponent allocates exactly what a short one does, and so
//! does the vertical exponentiation of `ifma` (on a CPU with AVX-512 IFMA)
//! for 341-bit exponents against 64-bit ones.
//!
//! Prime search and modular inversion are pinned the same way: trial
//! division of a candidate allocates nothing at all, a base-2
//! Miller–Rabin round allocates the same handful of buffers whatever the
//! exponent length, a candidate the search sieve skips costs nothing, a
//! whole search adds a constant to what its primality tests allocate, and
//! the binary-GCD inverse works inside one buffer.
//!
//! The counter is the calling thread's own, so allocations on other
//! threads (libtest's main thread, a concurrent test) never land in a
//! measurement.

use p2drm_bignum::ct::Secret;
use p2drm_bignum::ifma::{self, Modulus52};
use p2drm_bignum::{modring, prime, rng::random_bits, Mont, UBig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` because the
/// allocator also serves a thread's teardown.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method delegates directly to the `System` allocator,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is forwarded verbatim to `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a prior `alloc` through this
        // same wrapper, so they satisfy `System.dealloc`'s requirements.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from a prior `alloc` through this
        // same wrapper; `new_size` is forwarded unchanged to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations this thread made while it ran.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let v = f();
    (v, ALLOCS.with(Cell::get) - before)
}

/// Deterministic pseudo-random limbs (no RNG dependency in this binary).
fn limbs(n: usize, mut seed: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            seed = seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(0xbf58476d1ce4e5b9);
            seed ^ (seed >> 31)
        })
        .collect()
}

#[test]
fn pow_main_loop_is_allocation_free() {
    // 1024-bit odd modulus with the top bit set.
    let mut n_limbs = limbs(16, 41);
    n_limbs[0] |= 1;
    n_limbs[15] |= 1 << 63;
    let n = UBig::from_limbs(n_limbs);
    let mont = Mont::new(&n).unwrap();
    let base = UBig::from_limbs(limbs(15, 97));
    let mut exp_short = UBig::from_limbs(limbs(4, 7)); // 256-bit exponent
    let mut exp_long = UBig::from_limbs(limbs(16, 11)); // 1024-bit exponent
    exp_short.set_bit(255);
    exp_long.set_bit(1023);

    // Warm-up: fault in lazy statics and allocator pools.
    let _ = mont.pow(&base, &exp_short);
    let _ = mont.pow(&base, &exp_long);

    let (r_short, a_short) = allocs_during(|| mont.pow(&base, &exp_short));
    let (r_long, a_long) = allocs_during(|| mont.pow(&base, &exp_long));

    // Sanity: results agree with the division-based oracle.
    assert_eq!(r_short, base.pow_mod(&exp_short, &n).unwrap());
    assert_eq!(r_long, base.pow_mod(&exp_long, &n).unwrap());

    // Quadrupling the exponent length (and the loop trip count with it)
    // must not change the allocation count.
    assert_eq!(
        a_long, a_short,
        "main loop allocates: {a_short} allocs @256-bit exp vs {a_long} @1024-bit exp"
    );
    // Absolute bound: window table + accumulator, entry and product
    // buffers + boundary conversions. The old kernel needed ~1300 here.
    assert!(
        a_long < 100,
        "pow allocates too much overall: {a_long} allocations"
    );

    // ---- The same at 6 limbs (a three-prime 1024-bit key's primes) -----
    // The fixed 6-limb kernel keeps its state on the stack: no scratch
    // buffer, and a 341-bit exponent allocates what a 128-bit one does.
    let mut n6_limbs = limbs(6, 43);
    n6_limbs[0] |= 1;
    n6_limbs[5] = (n6_limbs[5] >> 43) | (1 << 20); // a 341-bit modulus
    let n6 = UBig::from_limbs(n6_limbs);
    assert_eq!(n6.bit_len(), 341);
    let mont6 = Mont::new(&n6).unwrap();
    assert!(
        mont6.alloc_scratch().is_empty(),
        "6 limbs has a fixed kernel"
    );
    let base6 = UBig::from_limbs(limbs(5, 99));
    let mut exp6_short = UBig::from_limbs(limbs(2, 13)); // 128-bit exponent
    let mut exp6_long = UBig::from_limbs(limbs(6, 17)).shr(43); // 341-bit exponent
    exp6_short.set_bit(127);
    exp6_long.set_bit(340);
    let _ = mont6.pow(&base6, &exp6_long);
    let (r6_short, a6_short) = allocs_during(|| mont6.pow(&base6, &exp6_short));
    let (r6_long, a6_long) = allocs_during(|| mont6.pow(&base6, &exp6_long));
    assert_eq!(r6_short, base6.pow_mod(&exp6_short, &n6).unwrap());
    assert_eq!(r6_long, base6.pow_mod(&exp6_long, &n6).unwrap());
    assert_eq!(
        a6_long, a6_short,
        "6-limb main loop allocates: {a6_short} allocs @128-bit exp vs {a6_long} @341-bit exp"
    );
    assert!(
        a6_long < 40,
        "6-limb pow allocates too much overall: {a6_long} allocations"
    );

    // ---- Lockstep exponentiation: the same count at any exponent ------
    // Three lanes of 341-bit primes (a 1024-bit key's): the window
    // table and every other buffer live in registers and on the stack,
    // so 341-bit exponents allocate exactly what 64-bit ones do (the
    // reduced bases and the results).
    let mut rng = StdRng::seed_from_u64(40);
    let primes: Vec<UBig> = (0..3)
        .map(|_| prime::gen_prime(341, 16, &mut rng))
        .collect();
    let consts: Vec<Modulus52> = primes.iter().map(|r| Modulus52::new(r).unwrap()).collect();
    let x = UBig::from_limbs(limbs(16, 3));
    let exps = |bits: usize| -> Vec<UBig> {
        (0..3)
            .map(|k| {
                let mut e = UBig::from_limbs(limbs(6, 19 + k)).shr(384 - bits);
                e.set_bit(bits - 1);
                e
            })
            .collect()
    };
    let (short, long) = (exps(64), exps(341));
    let lanes_short: Vec<_> = consts
        .iter()
        .zip(&short)
        .map(|(c, e)| (c, &x, Secret::new(e)))
        .collect();
    let lanes_long: Vec<_> = consts
        .iter()
        .zip(&long)
        .map(|(c, e)| (c, &x, Secret::new(e)))
        .collect();
    let _ = ifma::pow_lanes(&lanes_long);
    let (r_short, a_short) = allocs_during(|| ifma::pow_lanes(&lanes_short));
    let (r_long, a_long) = allocs_during(|| ifma::pow_lanes(&lanes_long));
    match (r_short, r_long) {
        (Some(r_short), Some(r_long)) => {
            for (k, r) in primes.iter().enumerate() {
                assert_eq!(r_short[k], x.pow_mod(&short[k], r).unwrap());
                assert_eq!(r_long[k], x.pow_mod(&long[k], r).unwrap());
            }
            assert_eq!(
                a_short, a_long,
                "vertical loop allocates: {a_short} allocs @64-bit exps vs {a_long} @341-bit exps"
            );
        }
        _ => eprintln!("this CPU has no AVX-512 IFMA: the vertical allocation count is skipped"),
    }

    // ---- Prime search: trial division never touches the heap ----------
    // 2039 is the last table prime, so this 512-bit multiple of it (with
    // a prime cofactor) is reduced by every prime group before the
    // verdict. Top two bits of a 501-bit q set => 2039·q has 512 bits.
    let mut rng = StdRng::seed_from_u64(14);
    let q501 = prime::gen_prime(501, 16, &mut rng); // also builds the tables
    let sieved = q501.mul_u64(2039);
    assert_eq!(sieved.bit_len(), 512);
    let (verdict, a_sieve) = allocs_during(|| prime::is_prime(&sieved, 16, &mut rng));
    assert!(!verdict);
    assert_eq!(a_sieve, 0, "trial division allocates");

    // ---- Base-2 round: allocations independent of the exponent --------
    // Semiprimes with no table factor fall to witness 2. From 512 to
    // 2048 bits the ladder runs four times as many steps on four times
    // as many limbs; the allocation count may not follow either.
    // (n ≡ 3 mod 4, so n − 1 = 2d and no squaring follows the ladder.)
    let base2_allocs = |half_bits: usize, rng: &mut StdRng| {
        let n = std::iter::repeat_with(|| {
            &prime::gen_prime(half_bits, 16, rng) * &prime::gen_prime(half_bits, 16, rng)
        })
        .find(|n| n.bits_at(0, 2) == 3)
        .unwrap();
        let (verdict, allocs) = allocs_during(|| prime::is_prime(&n, 16, rng));
        assert!(!verdict, "semiprime of two {half_bits}-bit primes");
        allocs
    };
    let b_512 = base2_allocs(256, &mut rng);
    let b_2048 = base2_allocs(1024, &mut rng);
    assert_eq!(
        b_512, b_2048,
        "base-2 round allocations depend on the exponent length"
    );
    assert!(b_512 <= 32, "base-2 round allocates too much: {b_512}");

    // ---- Search sieve: a skipped candidate costs nothing ---------------
    // Start the search 2 below a known prime p, then 2k below it where
    // every candidate in between has a factor under 2^15: the second
    // search steps its residues k − 1 more times and must allocate
    // exactly as much.
    let sieve_primes = sieve_primes();
    let skipped = |n: &UBig| sieve_primes.iter().any(|&q| n.rem_u64(q) == 0);
    let (p, k) = std::iter::repeat_with(|| prime::gen_prime(512, 16, &mut rng))
        .map(|p| {
            let k = (1..).find(|&j| !skipped(&step_down(&p, j))).unwrap() - 1;
            (p, k)
        })
        .find(|&(_, k)| k >= 4)
        .unwrap();
    let search_from = |start: &UBig| {
        let mut scripted = Scripted {
            first: Some(start.to_bytes_be()),
            rest: StdRng::seed_from_u64(1),
        };
        allocs_during(|| prime::gen_prime(512, 16, &mut scripted))
    };
    let (found_near, a_near) = search_from(&step_down(&p, 1));
    let (found_far, a_far) = search_from(&step_down(&p, k));
    assert_eq!((&found_near, &found_far), (&p, &p));
    assert_eq!(
        a_near, a_far,
        "{k} sieved-out candidates instead of 1 changed the allocation count"
    );

    // ---- Whole search: a constant on top of its primality tests -------
    // Replay a seeded search from outside: the same first draw, then
    // `is_prime` on every candidate up to the prime found that has no
    // factor under 2^15. Those calls (plus building each candidate, two
    // allocations) account for all but nine: the drawn start (2),
    // 2^bits − 1 (4), the candidate count (2) and the residue table (1).
    let mut replay = rng.clone();
    let (found, a_search) = allocs_during(|| prime::gen_prime(512, 16, &mut rng));
    let mut start = random_bits(&mut replay, 512);
    for bit in [511, 510, 0] {
        start.set_bit(bit);
    }
    let mut a_tests = 0;
    let mut candidate = start.clone();
    loop {
        if !skipped(&candidate) {
            let (verdict, a) = allocs_during(|| prime::is_prime(&candidate, 16, &mut replay));
            a_tests += a + 2;
            if verdict {
                break;
            }
        }
        candidate = &candidate + &UBig::from_u64(2);
    }
    assert_eq!(candidate, found);
    let distance = found.sub(&start).shr(1).to_u64().unwrap();
    assert!(
        a_search <= a_tests + 9,
        "a 512-bit search over {distance} candidates allocates {a_search}, its tests {a_tests}"
    );

    // ---- Divsteps inverse: one working buffer, whatever the operand ----
    // The working buffer and (when there is one) the result; an operand
    // >= n pays for its reduction first and for nothing else.
    let small = UBig::from_u64(65537);
    for a in [&UBig::one(), &small, &base, &n.sub(&UBig::one())] {
        let (inv, a_inv) = allocs_during(|| modring::inv_mod(Secret::new(a), &n));
        if let Ok(inv) = inv {
            assert!(modring::mul_mod(a, &inv, &n).is_one());
        }
        assert!(a_inv <= 2, "inv_mod allocates {a_inv} times for a={a}");
    }
    let wide = UBig::from_limbs(limbs(40, 5));
    let (_, a_reduce) = allocs_during(|| wide.rem(&n));
    let (_, a_wide) = allocs_during(|| modring::inv_mod(Secret::new(&wide), &n));
    assert!(
        a_wide <= a_reduce + 2,
        "inv_mod allocates {a_wide} times for a >= n, {a_reduce} of them reducing it"
    );
}

/// A generator whose first draw is scripted; later ones come from `rest`.
struct Scripted {
    first: Option<Vec<u8>>,
    rest: StdRng,
}

impl RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        self.rest.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rest.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        match self.first.take() {
            Some(bytes) => dest.copy_from_slice(&bytes),
            None => self.rest.fill_bytes(dest),
        }
    }
}

/// `p − 2j`.
fn step_down(p: &UBig, j: u64) -> UBig {
    p.sub(&UBig::from_u64(2 * j))
}

/// The odd primes below 2^15, the ones the search sieve steps.
fn sieve_primes() -> Vec<u64> {
    let odd = || (3..1u64 << 15).step_by(2);
    odd()
        .filter(|&d| odd().take_while(|q| q * q <= d).all(|q| d % q != 0))
        .collect()
}
