//! Counting-allocator regression test: `Mont::pow`'s square-and-multiply
//! main loop must perform **zero heap allocations** — every buffer (window
//! table, accumulator, scratch) is allocated once before the loop starts.
//!
//! The old kernel allocated a fresh `Vec` per Montgomery product (~5 per 4
//! exponent bits, i.e. ~1000 extra allocations when the exponent grows from
//! 256 to 1024 bits). With the allocation-free kernel the count difference
//! between a short and a long exponent is only the (slightly larger) window
//! table, independent of the loop trip count.
//!
//! The same discipline is pinned for the multi-exponentiation kernels:
//! Straus's shared squaring chain must not allocate per iteration, and
//! Pippenger's bucket storage is one flat allocation whose count is
//! independent of the batch size.
//!
//! Prime search and modular inversion are pinned the same way: trial
//! division of a candidate allocates nothing at all, a base-2
//! Miller–Rabin round allocates the same handful of buffers whatever the
//! exponent length, a candidate the search sieve skips costs nothing, a
//! whole search adds a constant to what its primality tests allocate, and
//! the binary-GCD inverse works inside one buffer.
//!
//! This file intentionally holds a single `#[test]` so no concurrent test
//! thread can inflate the process-wide allocation counter mid-measurement.

use p2drm_bignum::{modring, multiexp, prime, rng::random_bits, Mont, MontForm, UBig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates directly to the `System` allocator,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// relaxed counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same `layout` is forwarded verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior `alloc` through this same
    // wrapper, so they satisfy `System.dealloc`'s requirements.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior `alloc` through this same
    // wrapper; `new_size` is forwarded unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let v = f();
    (v, ALLOCS.load(Ordering::Relaxed) - before)
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

    // Sanity: results agree with the reference kernel.
    assert_eq!(r_short, mont.pow_reference(&base, &exp_short));
    assert_eq!(r_long, mont.pow_reference(&base, &exp_long));

    // Quadrupling the exponent length (and the loop trip count with it)
    // must not grow the allocation count beyond the window-table delta
    // (16 extra entries when the width steps from 4 to 5 bits).
    assert!(
        a_long <= a_short + 24,
        "main loop allocates: {a_short} allocs @256-bit exp vs {a_long} @1024-bit exp"
    );
    // Absolute bound: window table (<= 32 entries) + accumulator + scratch
    // + boundary conversions. The old kernel needed ~1300 here.
    assert!(
        a_long < 100,
        "pow allocates too much overall: {a_long} allocations"
    );

    // The reference kernel is the ablation baseline: it must still show
    // the per-iteration allocation behavior the fast kernel removed.
    let (_, ref_long) = allocs_during(|| mont.pow_reference(&base, &exp_long));
    assert!(
        ref_long > 4 * a_long,
        "reference kernel unexpectedly lean: {ref_long} vs fast {a_long}"
    );

    // ---- Straus: the shared squaring chain must be allocation-free ----
    // Same batch, short vs long exponents: quadrupling the loop trip
    // count may only add the window-table delta (wider windows), never
    // per-iteration allocations.
    let make_batch = |k: usize, exp_limbs: usize, top_bit: usize| {
        let bases: Vec<MontForm> = (0..k)
            .map(|i| mont.to_form(&UBig::from_limbs(limbs(15, 200 + i as u64))))
            .collect();
        let exps: Vec<UBig> = (0..k)
            .map(|i| {
                let mut e = UBig::from_limbs(limbs(exp_limbs, 300 + i as u64));
                e.set_bit(top_bit);
                e
            })
            .collect();
        (bases, exps)
    };
    let (bases4, exps4_short) = make_batch(4, 4, 255);
    let (_, exps4_long) = make_batch(4, 16, 1023);
    let _ = multiexp::straus(&mont, &bases4, &exps4_short); // warm-up
    let (rs, s_short) = allocs_during(|| multiexp::straus(&mont, &bases4, &exps4_short));
    let (rl, s_long) = allocs_during(|| multiexp::straus(&mont, &bases4, &exps4_long));
    assert_eq!(rs, iterated_pow(&mont, &bases4, &exps4_short));
    assert_eq!(rl, iterated_pow(&mont, &bases4, &exps4_long));
    assert!(
        s_long <= s_short + 24,
        "straus main loop allocates: {s_short} allocs @256-bit exps vs {s_long} @1024-bit exps"
    );

    // ---- Pippenger: bucket storage is one flat allocation per batch ----
    // Growing the batch 16 -> 64 must not grow the allocation count at
    // all: buckets, accumulator and scratch are sized by the window
    // width, not by the number of bases.
    let (bases16, exps16) = make_batch(16, 8, 511);
    let (bases64, exps64) = make_batch(64, 8, 511);
    let _ = multiexp::pippenger(&mont, &bases16, &exps16); // warm-up
    let (p16r, p16) = allocs_during(|| multiexp::pippenger(&mont, &bases16, &exps16));
    let (p64r, p64) = allocs_during(|| multiexp::pippenger(&mont, &bases64, &exps64));
    assert_eq!(p16r, iterated_pow(&mont, &bases16, &exps16));
    assert_eq!(p64r, iterated_pow(&mont, &bases64, &exps64));
    assert!(
        p64 <= p16 + 4,
        "pippenger allocations grow with the batch: {p16} allocs @16 bases vs {p64} @64 bases"
    );

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

    // ---- Binary-GCD inverse: one working buffer, whatever the operand -
    // The working buffer and (when there is one) the result; an operand
    // >= n pays for its reduction first and for nothing else.
    let small = UBig::from_u64(65537);
    for a in [&UBig::one(), &small, &base, &n.sub(&UBig::one())] {
        let (inv, a_inv) = allocs_during(|| modring::inv_mod(a, &n));
        if let Ok(inv) = inv {
            assert!(modring::mul_mod(a, &inv, &n).is_one());
        }
        assert!(a_inv <= 2, "inv_mod allocates {a_inv} times for a={a}");
    }
    let wide = UBig::from_limbs(limbs(40, 5));
    let (_, a_reduce) = allocs_during(|| wide.rem(&n));
    let (_, a_wide) = allocs_during(|| modring::inv_mod(&wide, &n));
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

/// `Π baseᵢ^expᵢ` via independent `pow_form` calls — correctness oracle
/// for the multiexp kernels above.
fn iterated_pow(mont: &Mont, bases: &[MontForm], exps: &[UBig]) -> MontForm {
    let mut acc = mont.one_form();
    for (b, e) in bases.iter().zip(exps.iter()) {
        acc = mont.form_mul(&acc, &mont.pow_form(b, e));
    }
    acc
}
