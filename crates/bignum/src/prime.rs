//! Baillie–PSW primality testing and sieved incremental prime search.
//!
//! Prime generation drives RSA key generation in `p2drm-crypto`: every
//! pseudonym a smartcard mints costs two prime searches of half the
//! modulus size (three of a third from 1024 bits on), and most of a search
//! is spent dismissing composites. Both halves are organised
//! around that.
//!
//! # The test ([`is_prime`])
//!
//! 1. **Grouped trial division** by the primes below 2048: they are cut
//!    into runs whose product fits a `u64`, the candidate is reduced once
//!    per run with an allocation-free [`UBig::rem_u64`], and the run's
//!    primes are tried against that one word.
//! 2. **Base-2 strong probable-prime test**, `2^d mod n` by the
//!    square-and-double ladder `Mont::pow2`. Nearly every composite that
//!    survives trial division dies here.
//! 3. **One strong Lucas test with Selfridge's parameters** (`P = 1`,
//!    `Q = (1 − D)/4` for the first `D` in 5, −7, 9, −11, … with Jacobi
//!    symbol `(D/n) = −1`; perfect squares, for which no such `D` exists,
//!    are rejected first). With `n + 1 = d·2^s`, a V-ladder climbs
//!    `(V_k, V_{k+1})` over the bits of `d` by `V_{2k} = V_k² − 2Qᵏ` and
//!    `V_{2k+1} = V_k·V_{k+1} − P·Qᵏ`, and `U_d ≡ 0` is tested as
//!    `2·V_{d+1} ≡ P·V_d`, which is exact: `D·U_d = 2V_{d+1} − P·V_d`,
//!    and `(D/n) = −1` makes `D` prime to `n`. When Selfridge gives
//!    `D = 5` (`Q = −1`, about half of all primes), `Qᵏ = (−1)ᵏ` is kept
//!    as a sign and a bit costs two Montgomery products; otherwise `Qᵏ`
//!    is a register, three products a bit and four on a set one. Steps 2
//!    and 3 together are the Baillie–PSW test: no composite that passes
//!    both is known, and none exists below 2^64.
//! 4. `rounds − 12` **random-base Miller–Rabin rounds** (none when
//!    `rounds <= 12`), the only step that reads the RNG. On a CPU with
//!    AVX-512 IFMA and for `n` of at most 362 bits, every base is drawn
//!    first, in the same order, and the rounds' exponentiations run as
//!    the lanes of one [`ifma::pow_lanes`] call; elsewhere they run one
//!    [`Mont::pow`] at a time, and a failing round ends the draws. The
//!    two read the RNG differently only for a composite that passes
//!    Baillie–PSW and then fails a random round, of which none is known.
//!
//! Key generation calls with `rounds = 16`: the base-2 round, the Lucas
//! test and four random-base rounds. FIPS 186-4 Table C.3 ("M-R tests
//! only") asks for 5 Miller–Rabin rounds on 512-bit and on 1024-bit `p`,
//! `q` (error 2^-80 and 2^-112) and 4 on 1536-bit ones (2^-128); counting
//! the base-2 round, those are the rows this meets, with the Lucas test,
//! which that table does not require, on top. (FIPS draws every base at
//! random; one of the five here is the fixed base 2.)
//!
//! # The search ([`gen_prime`])
//!
//! One `bits`-bit start is drawn (top two bits and bit 0 forced) and the
//! first probable prime among `start, start + 2, …` is returned. The
//! residues of `start` modulo every odd prime below 2^15 are computed once
//! (grouped `rem_u64` again) and then *stepped*: moving to the next
//! candidate adds 2 to each residue modulo its prime, in one branch-free
//! linear pass over the `u16` residue and prime tables that also reports
//! whether some residue became 0. Only candidates with no factor below
//! 2^15 — about one odd number in nine — reach steps 2–4 above.
//!
//! The pass reads and writes the whole residue table in the same order for
//! every candidate, and no index or branch inside it depends on a residue;
//! there is no marking array indexed by `−start mod p`. The only
//! data-dependent control flow is "test this candidate or skip it", which
//! any prime search has.
//!
//! **The step in wide lanes.** The pass is one `#[inline(always)]` loop
//! (an add, an unsigned `min` against the wrapped difference, a compare
//! with zero) compiled three times: portable, which the workspace's
//! target (no `target-cpu`) builds for SSE2 only, which has no unsigned
//! 16-bit `min`; under `#[target_feature(enable = "avx2")]`, sixteen
//! residues an instruction; and under `avx512f,avx512bw`, thirty-two. The
//! search runs the widest that `is_x86_feature_detected!` reports
//! (`advance`, one of the crate's three `unsafe` exemptions); each
//! instance makes the same pass in the same order and gives the same
//! residues. Over the 3,511 odd primes below 2^15, timed on the host
//! below (three runs, the instances alternated): SSE2 341–593 ns a step,
//! AVX2 218–330, AVX-512BW 123–163.
//!
//! **Survivors in lanes.** On a CPU with AVX-512 IFMA, for primes of at
//! most [`ifma::MAX_MODULUS_BITS`] (362) bits, the survivors are taken
//! eight at a time, in order, and put through one base-2 Fermat check,
//! `2^(n−1) mod n`, as the lanes of one [`ifma::pow_lanes`] call (one
//! [`Modulus52`] per candidate). Those that pass go on, in order, to
//! steps 2–4; the first that passes those is returned. Everything else
//! (other CPUs, larger primes such as RSA-2048's) tests each survivor
//! with steps 2–4 directly. The choice reads only the CPU and `bits`.
//!
//! This changes no verdict and no draw. A number that passes the base-2
//! strong test (`2^d ≡ 1`, or `2^(d·2^i) ≡ −1` for some `i < r`) has
//! `2^(n−1) ≡ 1`, so the check drops only candidates step 2 would have
//! rejected, and step 2 reads no randomness. The survivors after the
//! prime in its batch were checked for nothing, but they touch neither
//! the RNG nor the result: the prime returned and the state `rng` is
//! left in are those of the scalar search. [`counts`](crate::counts::counts)
//! counts the lanes, the kernel calls, the scalar tests, the sieve steps
//! and the Lucas tests' products per thread.
//!
//! Per RSA-1024 key (three searches of 341 and 342 bits through
//! [`gen_prime_coprime`]), on a 2-vCPU VM (Intel Xeon, family 6, model
//! 207): this search with per-step timers against the same search with
//! the portable (SSE2) step and the U/V Lucas recurrence, alternated
//! seed by seed in one process, 300 keys a run; the range over three
//! runs, µs per key:
//!
//! | step | SSE2 step, U/V Lucas | widest step, V-ladder |
//! |---|---|---|
//! | residues | 141–150 | 142–150 |
//! | sieve steps (and each survivor's `UBig`) | 252–286 | 89–98 |
//! | Fermat lanes | 280–309 | 276–309 |
//! | base-2 strong test | 88–96 | 88–96 |
//! | Lucas | 371–399 | 258–285 |
//! | random-base rounds | 98–103 | 97–103 |
//! | the rest (`gcd(p − 1, e)` among it) | 52–61 | 30–37 |
//! | **total** | **1,282–1,380** | **980–1,066** |
//!
//! Uninstrumented, the same alternation read ×0.75–0.78 per key. Both
//! make the same steps per key (300 keys): 445.6 sieve steps, 48.9
//! Fermat lanes in 6.1 kernel calls of which 3.95 pass, and 3.0 scalar
//! tests; the Lucas products fall from 4,070.7 to 2,787.3
//! ([`Counts`](crate::counts::Counts)). Against the scalar search, which runs the base-2
//! test on every survivor (37.2 a key, 31–46 µs each), the lanes read
//! 0.59–0.67 of its time per key when they came in. What is left is the
//! Fermat lanes (about 30% of a key; each search's last call runs on
//! past its prime), the Lucas test on each prime (about a quarter) and
//! the residues (about 15%). Since the table was made, each lane's
//! [`Modulus52`] and each context's [`Mont`] take their `R mod n` and
//! `R² mod n` from one-word quotient estimates instead of long divisions
//! (`mont::pow2_mod`: ×0.25–0.28 and ×0.21–0.24 a modulus at 341–362
//! bits); with `d = e⁻¹ mod λ` computed as `(1 + λ·k)/e`
//! (`p2drm-crypto`'s `rsa` module), a whole RSA-1024 key costs
//! ×0.92–0.95, the same keys byte for byte (300 seeds, three runs).
//!
//! The search looks at no more than `4·bits` candidates
//! (`WINDOW_PER_BIT`) and never past `2^bits − 1`; if none is prime it
//! draws a new start. A window of `4·bits` odd numbers near `2^bits`
//! holds `8/ln 2 ≈ 11.5` primes on average, so under the usual Poisson
//! heuristic a draw comes up empty with probability `e^-11.5 ≈ 10^-5`,
//! whatever `bits` is.
//!
//! **Distribution.** This is windowed PRIMEINC (Brandt and Damgård, *On
//! generation of probable primes by incremental search*, CRYPTO '92), not
//! the uniform choice among `bits`-bit primes that independent draws give:
//! a prime is returned with probability proportional to the gap below it
//! (capped by the window). Brandt and Damgård bound the entropy this costs
//! at less than one bit (asymptotically, under the prime r-tuples
//! conjecture). It also means a seed yields a different prime — and so a
//! different RSA key — than it did when every candidate was a fresh draw
//! judged by twelve fixed-base rounds.
//!
//! **Timing is out of scope here.** The constant-time discipline of
//! [`Mont::pow`] and the IFMA kernel (one algorithm for every secret
//! exponent, `mont` module doc) does not extend to this module, whose
//! candidates are plain [`UBig`]s, not [`Secret`]s. Its scalar tests
//! branch on the candidate: the sieve skips a candidate with a small
//! factor, the base-2 ladder `Mont::pow2` doubles on the set bits of
//! `d`, the Lucas chain steps on the bits of `n + 1`, a Jacobi symbol
//! picks `D`, and the search stops at the first prime. For a rejected
//! composite that reveals nothing kept; for the prime returned, it is
//! one run of the ladder and the Lucas chain over a key factor. Closing
//! that needs a primality test with a fixed operation sequence, which
//! is not done. The random-base rounds run through [`Mont::pow`] or the
//! lanes, so their exponent shows only its bit length.

use crate::counts::count;
use crate::ct::Secret;
use crate::ifma::{self, Modulus52};
use crate::modring::jacobi;
use crate::mont::Mont;
use crate::rng::BigRng;
use crate::ubig::UBig;
use std::ops::Range;
use std::sync::OnceLock;

/// Trial-division bound of [`is_prime`]: about 85% of random odd numbers
/// have a prime factor below it.
const TRIAL_BOUND: u16 = 2048;

/// Sieve bound of [`gen_prime`]. Residues stay below 2^15, so `r + 2`
/// cannot overflow a `u16` lane.
const SIEVE_BOUND: usize = 1 << 15;

/// Candidates one draw of [`gen_prime`] looks at, per bit of prime size.
const WINDOW_PER_BIT: u64 = 4;

/// Sieve survivors one base-2 Fermat check takes: the lanes of one
/// kernel call.
const BATCH: usize = ifma::LANES;

/// A run of consecutive table primes, as an index range, with the product
/// of its members.
type Group = (u64, Range<usize>);

/// Whether numbers of `bits` bits are tested on the vertical kernel:
/// the CPU has it and they fit its 7-limb instance.
fn on_kernel(bits: usize) -> bool {
    bits <= ifma::MAX_MODULUS_BITS && ifma::available()
}

struct Tables {
    /// Every prime below [`SIEVE_BOUND`].
    primes: Vec<u16>,
    /// How many of them are below [`TRIAL_BOUND`].
    trial_len: usize,
    /// Runs covering `primes[..trial_len]`.
    trial_groups: Vec<Group>,
    /// Runs covering `primes[1..]`, the odd ones.
    sieve_groups: Vec<Group>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut composite = vec![false; SIEVE_BOUND];
        let mut primes = Vec::new();
        for i in 2..SIEVE_BOUND {
            if !composite[i] {
                primes.push(i as u16);
                for j in (i * i..SIEVE_BOUND).step_by(i) {
                    composite[j] = true;
                }
            }
        }
        let trial_len = primes.partition_point(|&p| p < TRIAL_BOUND);
        Tables {
            trial_groups: group_runs(&primes, 0..trial_len),
            sieve_groups: group_runs(&primes, 1..primes.len()),
            trial_len,
            primes,
        }
    })
}

/// Cuts `primes[span]` into consecutive runs; a run ends where one more
/// prime would overflow the `u64` product.
fn group_runs(primes: &[u16], span: Range<usize>) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut start = span.start;
    let mut product = 1u64;
    for i in span.clone() {
        match product.checked_mul(primes[i] as u64) {
            Some(next) => product = next,
            None => {
                groups.push((product, start..i));
                start = i;
                product = primes[i] as u64;
            }
        }
    }
    groups.push((product, start..span.end));
    groups
}

/// Probabilistic primality test: trial division below 2048 (values below
/// 2048 are looked up), then Baillie–PSW, then `rounds − 12` Miller–Rabin
/// rounds on random bases — see the module documentation.
///
/// `rounds <= 12` all mean "Baillie–PSW alone". `rng` is read only for the
/// random bases, i.e. only when `rounds > 12` and `n` passed everything
/// before them.
pub fn is_prime<R: BigRng + ?Sized>(n: &UBig, rounds: usize, rng: &mut R) -> bool {
    let t = tables();
    if let Some(small) = n.to_u64().filter(|&v| v < TRIAL_BOUND as u64) {
        return t.primes[..t.trial_len]
            .binary_search(&(small as u16))
            .is_ok();
    }
    // n exceeds every trial prime, so one dividing it is a proper factor.
    for (product, run) in &t.trial_groups {
        let residue = n.rem_u64(*product);
        if t.primes[run.clone()]
            .iter()
            .any(|&p| residue.is_multiple_of(p as u64))
        {
            return false;
        }
    }
    is_probable_prime(n, rounds, rng, on_kernel(n.bit_len()))
}

/// Steps 2–4 of the test, for an odd `n > 3` that trial division or the
/// search sieve has already let through. With `lanes`, the random-base
/// rounds run as the lanes of one [`ifma::pow_lanes`] call.
fn is_probable_prime<R: BigRng + ?Sized>(
    n: &UBig,
    rounds: usize,
    rng: &mut R,
    lanes: bool,
) -> bool {
    debug_assert!(n.is_odd());
    count(|c| c.scalar_tests += 1);
    let mont = Mont::new(n).expect("odd modulus");
    let n_minus_1 = n.sub(&UBig::one());
    let r = n_minus_1.trailing_zeros().expect("n-1 of odd n>2 is even");
    let d = n_minus_1.shr(r);
    if !strong_probable_prime(&mont, &n_minus_1, r, mont.pow2(&d))
        || !strong_lucas_probable_prime(n, &mont)
    {
        return false;
    }
    let two = UBig::from_u64(2);
    let span = n.sub(&UBig::from_u64(3)); // witnesses in [2, n-2]
    let mut draw = || &crate::rng::random_below(rng, &span) + &two;
    let extra = rounds.saturating_sub(12);
    if lanes && extra > 0 {
        // Every base is drawn before any round runs; the draws differ
        // from the scalar loop's only for a composite that a round
        // rejects after passing Baillie–PSW, of which none is known.
        let bases: Vec<UBig> = (0..extra).map(|_| draw()).collect();
        let powers = random_round_powers(n, &bases, &d)
            .unwrap_or_else(|| bases.iter().map(|a| mont.pow(a, &d)).collect());
        return powers
            .into_iter()
            .all(|x| strong_probable_prime(&mont, &n_minus_1, r, x));
    }
    for _ in 0..extra {
        let a = draw();
        if !strong_probable_prime(&mont, &n_minus_1, r, mont.pow(&a, &d)) {
            return false;
        }
    }
    true
}

/// `a^d mod n` for every base `a`, as the lanes of one kernel call
/// (`⌈bases / 8⌉` of them); `None` without the kernel.
fn random_round_powers(n: &UBig, bases: &[UBig], d: &UBig) -> Option<Vec<UBig>> {
    let modulus = Modulus52::new(n).expect("odd, at most 362 bits");
    let lanes: Vec<ifma::Lane> = bases
        .iter()
        .map(|a| (&modulus, a, Secret::new(d)))
        .collect();
    ifma::pow_lanes(&lanes)
}

/// The members of `batch` that pass the base-2 Fermat check
/// `2^(n−1) ≡ 1 (mod n)`, in order, checked as the lanes of one kernel
/// call; each is odd, above 2 and of at most 362 bits. A number the
/// base-2 strong test accepts passes (`2^d ≡ 1` or `2^(d·2^i) ≡ −1`
/// squares on to `2^(n−1) ≡ 1`), so the check only drops composites
/// that test would reject. Without the kernel it drops nothing.
fn pass_base2_fermat(batch: Vec<UBig>) -> Vec<UBig> {
    let moduli: Vec<Modulus52> = batch
        .iter()
        .map(|n| Modulus52::new(n).expect("odd, at most 362 bits"))
        .collect();
    let exponents: Vec<UBig> = batch.iter().map(|n| n.sub(&UBig::one())).collect();
    let two = UBig::from_u64(2);
    let lanes: Vec<ifma::Lane> = moduli
        .iter()
        .zip(&exponents)
        .map(|(m, e)| (m, &two, Secret::new(e)))
        .collect();
    let Some(powers) = ifma::pow_lanes(&lanes) else {
        return batch;
    };
    let passed: Vec<UBig> = batch
        .into_iter()
        .zip(powers)
        .filter_map(|(n, x)| x.is_one().then_some(n))
        .collect();
    count(|c| {
        c.fermat_lanes += lanes.len() as u64;
        c.fermat_passed += passed.len() as u64;
    });
    passed
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

/// Selfridge's choice for the Lucas test of odd `n`: the first `D` in
/// 5, −7, 9, −11, … with Jacobi symbol `(D/n) = −1`, as `(|D|, D < 0)`.
/// `None` means `n` is composite: a perfect square (every symbol is 0 or
/// 1, the search would not end) or sharing a proper factor with some `D`.
fn selfridge_d(n: &UBig) -> Option<(u64, bool)> {
    if n.isqrt().square() == *n {
        return None;
    }
    let n_is_3_mod_4 = n.limbs()[0] & 3 == 3;
    let mut abs = 5u64;
    loop {
        let negative = abs & 2 != 0;
        let a = UBig::from_u64(abs);
        let symbol = jacobi(&a, n).expect("n is odd");
        // (−|D|/n) = (−1/n)·(|D|/n), and (−1/n) = −1 exactly when n ≡ 3 (mod 4).
        let symbol = if negative && n_is_3_mod_4 {
            -symbol
        } else {
            symbol
        };
        match symbol {
            -1 => return Some((abs, negative)),
            0 if !a.rem(n).is_zero() => return None,
            _ => abs += 2,
        }
    }
}

/// `±magnitude mod n` in Montgomery form.
fn signed_to_mont(mont: &Mont, n: &UBig, magnitude: u64, negative: bool) -> Vec<u64> {
    let m = UBig::from_u64(magnitude);
    if negative {
        mont.to_mont(&n.sub(&m.rem(n)))
    } else {
        mont.to_mont(&m)
    }
}

/// Strong Lucas probable-prime test with Selfridge's parameters, for odd
/// `n > 3`: with `n + 1 = d·2^s`, `d` odd, `n` passes when `U_d ≡ 0` or
/// `V_{d·2^r} ≡ 0 (mod n)` for some `r < s`.
///
/// A ladder climbs `(V_k, V_{k+1})` and `Q^k` over the bits of `d` in
/// Montgomery form, with `P = 1`: `V_{2k} = V_k² − 2Q^k` and
/// `V_{2k+1} = V_k·V_{k+1} − Q^k` on a clear bit, `V_{2k+1}` and
/// `V_{2k+2} = V_{k+1}² − 2Q^{k+1}` on a set one. `U_d` is never formed:
/// `D·U_d = 2V_{d+1} − V_d`, and `(D/n) = −1` makes `D` prime to `n`, so
/// `U_d ≡ 0` exactly when `2V_{d+1} ≡ V_d`. When `Q = −1` (`D = 5`),
/// `Q^k = (−1)^k` is kept as the parity of `k`: two products a bit.
/// Otherwise `Q^k` is a register: three products a bit, four on a set
/// one. Five registers carved from one buffer; nothing allocated in the
/// loop. The products made are added to [`Counts::lucas_products`](crate::counts::Counts::lucas_products)
/// once, at the end.
fn strong_lucas_probable_prime(n: &UBig, mont: &Mont) -> bool {
    let Some((d_abs, d_negative)) = selfridge_d(n) else {
        return false;
    };
    // Q = (1 − D)/4: D = 5, −7, 9, −11 give Q = −1, 2, −2, 3.
    let q_abs = if d_negative { d_abs + 1 } else { d_abs - 1 } / 4;
    let q_is_minus_one = q_abs == 1 && !d_negative;
    let q = signed_to_mont(mont, n, q_abs, !d_negative);
    let one = mont.to_mont(&UBig::one());
    let mut two = one.clone();
    mont.add_mod(&mut two, &one);

    let n_plus_1 = n + &UBig::one();
    let s = n_plus_1.trailing_zeros().expect("n + 1 > 0");
    let d = n_plus_1.shr(s);

    let w = mont.limb_len();
    let mut scratch = mont.alloc_scratch();
    let mut buf = vec![0u64; 5 * w];
    let (mut vk, rest) = buf.split_at_mut(w);
    let (mut vk1, rest) = rest.split_at_mut(w);
    let (mut qk, rest) = rest.split_at_mut(w);
    let (mut t, qk1) = rest.split_at_mut(w);
    // k = 1, the top bit of d: V_1 = P = 1, V_2 = P² − 2Q, Q^1 = Q.
    vk.copy_from_slice(&one);
    vk1.copy_from_slice(&one);
    mont.sub_mod(vk1, &q);
    mont.sub_mod(vk1, &q);
    qk.copy_from_slice(&q);
    let mut k_odd = true;
    // x −= c·Q^k for c = 1 or 2: a register, or ±c when Q = −1.
    let sub_q_power = |x: &mut [u64], qk: &[u64], k_odd: bool, twice: bool| {
        if q_is_minus_one {
            let c = if twice { &two } else { &one };
            if k_odd {
                mont.add_mod(x, c);
            } else {
                mont.sub_mod(x, c);
            }
        } else {
            mont.sub_mod(x, qk);
            if twice {
                mont.sub_mod(x, qk);
            }
        }
    };
    let mut products = 0u64;

    let passed = 'chain: {
        for i in (0..d.bit_len() - 1).rev() {
            // t = V_{2k+1}.
            mont.mont_mul_into(vk, vk1, t, &mut scratch);
            sub_q_power(t, qk, k_odd, false);
            if d.bit(i) {
                // Q^{k+1}, then V_{2k+2} over V_k, then Q^{2k+1}.
                if !q_is_minus_one {
                    mont.mont_mul_into(qk, &q, qk1, &mut scratch);
                }
                mont.mont_sqr_into(vk1, vk, &mut scratch);
                sub_q_power(vk, qk1, !k_odd, true);
                std::mem::swap(&mut vk, &mut vk1);
                std::mem::swap(&mut vk, &mut t);
                if !q_is_minus_one {
                    mont.mont_mul_into(qk, qk1, t, &mut scratch);
                    std::mem::swap(&mut qk, &mut t);
                    products += 2;
                }
                k_odd = true;
            } else {
                // V_{2k} over V_{k+1}, then Q^{2k}.
                mont.mont_sqr_into(vk, vk1, &mut scratch);
                sub_q_power(vk1, qk, k_odd, true);
                std::mem::swap(&mut vk, &mut vk1);
                std::mem::swap(&mut vk1, &mut t);
                if !q_is_minus_one {
                    mont.mont_sqr_into(qk, t, &mut scratch);
                    std::mem::swap(&mut qk, &mut t);
                    products += 1;
                }
                k_odd = false;
            }
            products += 2;
        }
        // k = d: U_d ≡ 0 exactly when 2V_{d+1} ≡ V_d.
        let is_zero = |x: &[u64]| x.iter().all(|&l| l == 0);
        t.copy_from_slice(vk1);
        mont.add_mod(t, vk1);
        if is_zero(vk) || t == vk {
            break 'chain true;
        }
        for r in 1..s {
            // V_{2k} = V_k² − 2Q^k, then Q^{2k}.
            mont.mont_sqr_into(vk, t, &mut scratch);
            std::mem::swap(&mut vk, &mut t);
            sub_q_power(vk, qk, k_odd, true);
            products += 1;
            if is_zero(vk) {
                break 'chain true;
            }
            if !q_is_minus_one && r + 1 < s {
                mont.mont_sqr_into(qk, t, &mut scratch);
                std::mem::swap(&mut qk, &mut t);
                products += 1;
            }
            k_odd = false;
        }
        false
    };
    count(|c| c.lucas_products += products);
    passed
}

/// For each odd table prime `p`, `(start − 2) mod p`: one step of
/// [`advance`] before the residues of `start` itself.
fn residues_before(start: &UBig) -> Vec<u16> {
    let t = tables();
    let mut residues = Vec::with_capacity(t.primes.len() - 1);
    for (product, run) in &t.sieve_groups {
        let residue = start.rem_u64(*product);
        residues.extend(t.primes[run.clone()].iter().map(|&p| {
            let p = p as u64;
            ((residue % p + p - 2) % p) as u16
        }));
    }
    residues
}

/// The instructions a sieve step runs on, narrowest first; see
/// [`advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Sieve {
    /// The portable loop as the workspace's target compiles it (SSE2 on
    /// x86-64).
    Portable,
    /// The same loop compiled for AVX2: sixteen `u16` lanes.
    Avx2,
    /// The same loop compiled for AVX-512BW: thirty-two `u16` lanes.
    Avx512bw,
}

impl Sieve {
    /// The widest instance this CPU has (`is_x86_feature_detected!`,
    /// which std caches).
    fn widest() -> Sieve {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512f") && has!("avx512bw") {
                return Sieve::Avx512bw;
            }
            if has!("avx2") {
                return Sieve::Avx2;
            }
        }
        Sieve::Portable
    }
}

/// Moves every residue from a candidate `c` to `c + 2` and reports whether
/// some table prime divides `c + 2`. One fixed pass over both tables:
/// `r + 2 < 2p`, so the new residue is the smaller of `r + 2` and the
/// wrapped `r + 2 − p`.
///
/// The body is compiled three times (portable, for AVX2 and for
/// AVX-512BW) and `sieve` names the one to run: the search passes
/// [`Sieve::widest`], the tests each instance in turn. An instance runs
/// only once the CPU is reported to have its features; otherwise the
/// portable loop runs. All three read and write the tables in the same
/// order and give the same residues and the same answer.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn advance(residues: &mut [u16], primes: &[u16], sieve: Sieve) -> bool {
    use std::arch::is_x86_feature_detected as has;
    match sieve {
        // SAFETY: `advance_avx512bw` is safe apart from its
        // `#[target_feature(enable = "avx512f,avx512bw")]`, and the
        // running CPU was just reported to have both.
        Sieve::Avx512bw if has!("avx512f") && has!("avx512bw") => unsafe {
            advance_avx512bw(residues, primes)
        },
        // SAFETY: as above, for `avx2`.
        Sieve::Avx2 if has!("avx2") => unsafe { advance_avx2(residues, primes) },
        _ => advance_portable(residues, primes),
    }
}

/// Without x86-64 every step is portable.
#[cfg(not(target_arch = "x86_64"))]
fn advance(residues: &mut [u16], primes: &[u16], _sieve: Sieve) -> bool {
    advance_portable(residues, primes)
}

/// The sieve step's one body ([`advance`]), inlined into each instance.
#[inline(always)]
fn advance_portable(residues: &mut [u16], primes: &[u16]) -> bool {
    let mut hit = false;
    for (r, &p) in residues.iter_mut().zip(primes) {
        let next = *r + 2;
        *r = next.min(next.wrapping_sub(p));
        hit |= *r == 0;
    }
    hit
}

/// [`advance_portable`] on 512-bit registers (`vpminuw` and a compare
/// into a mask register, 32 residues an instruction).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn advance_avx512bw(residues: &mut [u16], primes: &[u16]) -> bool {
    advance_portable(residues, primes)
}

/// [`advance_portable`] on 256-bit registers (16 residues an instruction).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn advance_avx2(residues: &mut [u16], primes: &[u16]) -> bool {
    advance_portable(residues, primes)
}

/// Generates a random prime of exactly `bits` bits with the top two bits
/// set (so a product of two such primes has the full expected bit length).
///
/// Draws one `bits`-bit start, forces its top two bits and bit 0, and
/// returns the first of `start, start + 2, …` that passes [`is_prime`] —
/// looking at no more than `4·bits` candidates and none beyond
/// `2^bits − 1`, then drawing again. Candidates with a factor below 2^15
/// are skipped by the stepped sieve described in the module documentation,
/// which changes no verdict: the prime returned and the state `rng` is
/// left in are those of calling [`is_prime`] on each candidate in turn.
/// On a CPU with AVX-512 IFMA and for `bits` of at most 362, the
/// survivors take a base-2 Fermat check eight to a kernel call first,
/// which changes none either (module documentation).
///
/// # Panics
/// Panics if `bits < 16`.
pub fn gen_prime<R: BigRng + ?Sized>(bits: usize, rounds: usize, rng: &mut R) -> UBig {
    assert!(bits >= 16, "prime sizes below 16 bits are not supported");
    search(bits, rounds, rng, on_kernel(bits))
}

/// The search of [`gen_prime`]. With `lanes`, the sieve's survivors are
/// taken [`BATCH`] at a time through [`pass_base2_fermat`] before the
/// scalar test, and the random-base rounds run in lanes too.
fn search<R: BigRng + ?Sized>(bits: usize, rounds: usize, rng: &mut R, lanes: bool) -> UBig {
    // Every candidate exceeds 2^15, so a sieve prime dividing one is proper.
    let odd_primes = &tables().primes[1..];
    let window = WINDOW_PER_BIT * bits as u64;
    let last = UBig::one().shl(bits).sub(&UBig::one());
    loop {
        let mut start = crate::rng::random_bits(rng, bits);
        start.set_bit(bits - 1);
        start.set_bit(bits - 2);
        start.set_bit(0);
        // start, start + 2, … up to `last`, if that is fewer than a window.
        let after_start = last.sub(&start).shr(1).to_u64();
        let candidates = after_start.map_or(window, |more| window.min(more.saturating_add(1)));
        let mut residues = residues_before(&start);
        let sieve = Sieve::widest();
        let mut steps = 0u64;
        let mut survivors = (0..candidates)
            .filter(|_| {
                steps += 1;
                !advance(&mut residues, odd_primes, sieve)
            })
            .map(|i| &start + &UBig::from_u64(2 * i));
        let found = if lanes {
            search_in_lanes(&mut survivors, rounds, rng)
        } else {
            survivors.find(|c| is_probable_prime(c, rounds, rng, false))
        };
        count(|c| c.sieve_steps += steps);
        if let Some(prime) = found {
            return prime;
        }
    }
}

/// The first of `survivors` to pass steps 2–4, those steps run only on
/// the ones that passed the base-2 Fermat check, [`BATCH`] to a kernel
/// call.
fn search_in_lanes<R: BigRng + ?Sized>(
    survivors: &mut impl Iterator<Item = UBig>,
    rounds: usize,
    rng: &mut R,
) -> Option<UBig> {
    loop {
        let batch: Vec<UBig> = survivors.by_ref().take(BATCH).collect();
        if batch.is_empty() {
            return None;
        }
        for candidate in pass_base2_fermat(batch) {
            if is_probable_prime(&candidate, rounds, rng, true) {
                return Some(candidate);
            }
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

    fn u(v: u64) -> UBig {
        UBig::from_u64(v)
    }

    fn dec(s: &str) -> UBig {
        UBig::from_decimal(s).unwrap()
    }

    /// `is_prime[n]` for `n < limit`, by the sieve of Eratosthenes.
    fn eratosthenes(limit: usize) -> Vec<bool> {
        let mut is_prime = vec![true; limit];
        is_prime[0] = false;
        is_prime[1] = false;
        for i in 2..limit {
            if is_prime[i] {
                for j in (i * i..limit).step_by(i) {
                    is_prime[j] = false;
                }
            }
        }
        is_prime
    }

    /// Step 2 alone, with no trial division before it.
    fn base2_alone(n: &UBig) -> bool {
        let mont = Mont::new(n).unwrap();
        let n_minus_1 = n.sub(&UBig::one());
        let r = n_minus_1.trailing_zeros().unwrap();
        strong_probable_prime(&mont, &n_minus_1, r, mont.pow2(&n_minus_1.shr(r)))
    }

    /// Step 3 alone, with no trial division before it.
    fn lucas_alone(n: &UBig) -> bool {
        strong_lucas_probable_prime(n, &Mont::new(n).unwrap())
    }

    /// The strong Lucas test by the U/V recurrence, the ladder's
    /// reference: `U_k`, `V_k` and `Q^k` climb the bits of `d` by
    /// `U_2k = U_k·V_k`, `V_2k = V_k² − 2Q^k` and, with `P = 1`,
    /// `U_{k+1} = (U_k + V_k)/2`, `V_{k+1} = (D·U_k + V_k)/2`; `n` passes
    /// when `U_d` or `V_d` is 0, or a later `V_{d·2^r}` is.
    fn lucas_uv_oracle(n: &UBig) -> bool {
        let mont = Mont::new(n).unwrap();
        let Some((d_abs, d_negative)) = selfridge_d(n) else {
            return false;
        };
        let q_abs = if d_negative { d_abs + 1 } else { d_abs - 1 } / 4;
        let big_d = signed_to_mont(&mont, n, d_abs, d_negative);
        let q = signed_to_mont(&mont, n, q_abs, !d_negative);
        let n_plus_1 = n + &UBig::one();
        let s = n_plus_1.trailing_zeros().unwrap();
        let d = n_plus_1.shr(s);
        let mut u = mont.to_mont(&UBig::one());
        let mut v = u.clone();
        let mut qk = q.clone();
        for i in (0..d.bit_len() - 1).rev() {
            u = mont.mont_mul(&u, &v);
            v = mont.mont_sqr(&v);
            mont.sub_mod(&mut v, &qk);
            mont.sub_mod(&mut v, &qk);
            qk = mont.mont_sqr(&qk);
            if d.bit(i) {
                let mut t = mont.mont_mul(&u, &big_d);
                mont.add_mod(&mut u, &v);
                mont.halve_mod(&mut u);
                mont.add_mod(&mut t, &v);
                mont.halve_mod(&mut t);
                v = t;
                qk = mont.mont_mul(&qk, &q);
            }
        }
        let is_zero = |x: &[u64]| x.iter().all(|&l| l == 0);
        if is_zero(&u) || is_zero(&v) {
            return true;
        }
        for _ in 1..s {
            v = mont.mont_sqr(&v);
            mont.sub_mod(&mut v, &qk);
            mont.sub_mod(&mut v, &qk);
            if is_zero(&v) {
                return true;
            }
            qk = mont.mont_sqr(&qk);
        }
        false
    }

    /// The smallest strong pseudoprimes to the first 1, 2, … 13 prime
    /// bases (ψ₇ = ψ₈ and ψ₉ = ψ₁₀ = ψ₁₁), each with a prime factor.
    const PSI: [(&str, u64); 10] = [
        ("2047", 23),
        ("1373653", 829),
        ("25326001", 2251),
        ("3215031751", 151),
        ("2152302898747", 6763),
        ("3474749660383", 1303),
        ("341550071728321", 10670053),
        ("3825123056546413051", 149491),
        ("318665857834031151167461", 399165290221),
        ("3317044064679887385961981", 1287836182261),
    ];

    /// One Miller–Rabin round through the generic windowed `Mont::pow`.
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

    /// `is_prime` as it stood before Baillie–PSW, the grouped sieve and
    /// the base-2 ladder: one `UBig` remainder per prime below 2048, then
    /// `min(rounds, 12)` rounds on the bases 2, 3, … 37 and `rounds − 12`
    /// on random ones, all through `Mont::pow`. Where it is right — every
    /// prime, every composite the fixed bases reject — the current test
    /// must give the same verdict and read the RNG the same way.
    fn is_prime_oracle<R: BigRng + ?Sized>(n: &UBig, rounds: usize, rng: &mut R) -> bool {
        if n.is_zero() || n.is_one() {
            return false;
        }
        let t = tables();
        for &p in &t.primes[..t.trial_len] {
            let pb = u(p as u64);
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
            if !oracle_round(&mont, &n_minus_1, &d, r, &u(a)) {
                return false;
            }
        }
        let two = u(2);
        let span = n.sub(&u(3));
        for _ in 0..rounds.saturating_sub(12) {
            let a = &crate::rng::random_below(rng, &span) + &two;
            if !oracle_round(&mont, &n_minus_1, &d, r, &a) {
                return false;
            }
        }
        true
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

    /// The search as specified: draw a start, return the first candidate
    /// of the right length in the window that `is_prime` accepts, else
    /// draw again. No sieve, no shared state between candidates.
    fn gen_prime_spec<R: BigRng + ?Sized>(bits: usize, rounds: usize, rng: &mut R) -> UBig {
        loop {
            let mut start = crate::rng::random_bits(rng, bits);
            start.set_bit(bits - 1);
            start.set_bit(bits - 2);
            start.set_bit(0);
            for i in 0..WINDOW_PER_BIT * bits as u64 {
                let candidate = &start + &u(2 * i);
                if candidate.bit_len() != bits {
                    break;
                }
                if is_prime(&candidate, rounds, rng) {
                    return candidate;
                }
            }
        }
    }

    /// A generator whose first draw is scripted and whose later ones come
    /// from a seeded `StdRng`.
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
                None => RngCore::fill_bytes(&mut self.rest, dest),
            }
        }
    }

    fn assert_shape(p: &UBig, bits: usize) {
        assert_eq!(p.bit_len(), bits, "{p}");
        assert!(p.bit(bits - 2) && p.bit(0), "{p}");
    }

    #[test]
    fn tables_cover_the_primes_below_the_sieve_bound() {
        let t = tables();
        let expect: Vec<u16> = eratosthenes(SIEVE_BOUND)
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.then_some(i as u16))
            .collect();
        assert_eq!(t.primes, expect);
        assert_eq!(t.primes.len(), 3512);
        assert_eq!(t.primes[t.trial_len - 1], 2039);
        assert_eq!(t.primes[t.trial_len], 2053);
        for (groups, span) in [
            (&t.trial_groups, 0..t.trial_len),
            (&t.sieve_groups, 1..t.primes.len()),
        ] {
            // Consecutive, covering the span, products right, and each
            // run as long as a u64 allows.
            let mut next = span.start;
            for (i, (product, run)) in groups.iter().enumerate() {
                assert_eq!(run.start, next);
                next = run.end;
                assert_eq!(
                    t.primes[run.clone()]
                        .iter()
                        .map(|&p| p as u128)
                        .product::<u128>(),
                    *product as u128
                );
                if i + 1 < groups.len() {
                    assert!(product.checked_mul(t.primes[run.end] as u64).is_none());
                }
            }
            assert_eq!(next, span.end);
        }
    }

    #[test]
    fn stepped_residues_track_the_candidate() {
        let odd_primes = &tables().primes[1..];
        let mut r = rng();
        for bits in [16usize, 64, 512] {
            let mut start = crate::rng::random_bits(&mut r, bits);
            start.set_bit(bits - 1);
            start.set_bit(0);
            let mut residues = residues_before(&start);
            for i in 0..40u64 {
                let candidate = &start + &u(2 * i);
                let hit = advance(&mut residues, odd_primes, Sieve::widest());
                for (&res, &p) in residues.iter().zip(odd_primes) {
                    assert_eq!(
                        res as u64,
                        candidate.rem_u64(p as u64),
                        "{candidate} mod {p}"
                    );
                }
                assert_eq!(hit, residues.contains(&0));
            }
        }
    }

    /// The sieve step instances this CPU has, narrowest first.
    fn sieve_instances() -> Vec<Sieve> {
        [Sieve::Portable, Sieve::Avx2, Sieve::Avx512bw]
            .into_iter()
            .filter(|&sieve| sieve <= Sieve::widest())
            .collect()
    }

    /// Every wide instance of the sieve step this CPU has against the
    /// portable loop, residues and answer, over 40 steps from random
    /// residue tables, with residues forced to `p − 2` (a zero next) and
    /// `p − 1` (a wrap to 1), over table lengths that are and are not a
    /// multiple of the lane count.
    #[test]
    fn every_sieve_instance_steps_like_the_portable_loop() {
        let instances = sieve_instances();
        eprintln!("sieve instances on this CPU: {instances:?}");
        let odd_primes = &tables().primes[1..];
        let mut r = rng();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, odd_primes.len()] {
            let primes = &odd_primes[..len];
            for forced in [None, Some(2u16), Some(1)] {
                let start: Vec<u16> = primes
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| match forced {
                        // One residue in seven forced, the rest random.
                        Some(k) if i % 7 == 3 => p - k,
                        _ => (r.next_u32() % p as u32) as u16,
                    })
                    .collect();
                let mut portable = start.clone();
                let mut wide: Vec<Vec<u16>> = instances.iter().map(|_| start.clone()).collect();
                for step in 0..40 {
                    let hit = advance_portable(&mut portable, primes);
                    assert_eq!(hit, portable.contains(&0), "len={len} step={step}");
                    for (&sieve, residues) in instances.iter().zip(&mut wide) {
                        let got = advance(residues, primes, sieve);
                        assert_eq!(got, hit, "{sieve:?} len={len} step={step}");
                        assert_eq!(residues, &portable, "{sieve:?} len={len} step={step}");
                    }
                }
                if forced == Some(2) && len > 3 {
                    let mut once = start.clone();
                    for &sieve in &instances {
                        once.clone_from(&start);
                        assert!(advance(&mut once, primes, sieve), "{sieve:?} len={len}");
                    }
                }
            }
        }
    }

    /// `gen_prime` against the specified search and against the scalar
    /// search, prime and generator state, on either side of the kernel's
    /// 362-bit limit: up to it (on a CPU with the kernel) the survivors
    /// take the Fermat lanes and only those that pass the scalar test,
    /// past it the scalar path runs alone.
    #[test]
    fn gen_prime_is_the_specified_search() {
        if !ifma::available() {
            eprintln!("this CPU has no AVX-512 IFMA: every search runs the scalar path");
        }
        let sizes = [
            16usize, 17, 31, 32, 33, 63, 64, 65, 128, 256, 341, 342, 361, 362, 363, 512,
        ];
        for bits in sizes {
            let lanes = bits <= ifma::MAX_MODULUS_BITS && ifma::available();
            for seed in 0..8u64 {
                let seed = 1000 * bits as u64 + seed;
                let rngs = || StdRng::seed_from_u64(seed);
                let (mut fast, mut spec, mut scalar) = (rngs(), rngs(), rngs());
                let before = crate::counts::counts();
                let p = gen_prime(bits, 16, &mut fast);
                let done = crate::counts::counts() - before;
                assert_eq!(
                    p,
                    gen_prime_spec(bits, 16, &mut spec),
                    "bits={bits} seed={seed}"
                );
                assert_eq!(
                    p,
                    search(bits, 16, &mut scalar, false),
                    "bits={bits} seed={seed}"
                );
                let next = fast.next_u64();
                assert_eq!(next, spec.next_u64(), "bits={bits} seed={seed}");
                assert_eq!(next, scalar.next_u64(), "bits={bits} seed={seed}");
                assert_shape(&p, bits);
                assert_eq!(done.fermat_lanes > 0, lanes, "bits={bits} seed={seed}");
                if lanes {
                    // The prime found passed, and no survivor after it ran
                    // the scalar test.
                    assert!(
                        (1..=done.fermat_passed).contains(&done.scalar_tests),
                        "bits={bits} seed={seed}"
                    );
                }
            }
        }
    }

    /// Exhaustive in a release build; a debug build checks the first 2^16.
    const FERMAT_LIMIT: u64 = if cfg!(debug_assertions) {
        1 << 16
    } else {
        1 << 20
    };

    /// The Fermat check over `ns`, eight lanes to a call: whether each
    /// passed.
    fn fermat_verdicts(ns: &[UBig]) -> Vec<bool> {
        let mut verdicts = Vec::new();
        for chunk in ns.chunks(BATCH) {
            let passed = pass_base2_fermat(chunk.to_vec());
            verdicts.extend(chunk.iter().map(|n| passed.contains(n)));
        }
        verdicts
    }

    #[test]
    fn fermat_check_keeps_every_base2_strong_probable_prime() {
        if !ifma::available() {
            eprintln!("this CPU has no AVX-512 IFMA: the Fermat lanes are skipped");
            return;
        }
        // Every odd n from 3 on: a strong probable prime passes, and a
        // number rejected is composite.
        let sieve = eratosthenes(FERMAT_LIMIT as usize);
        let odd: Vec<UBig> = (3..FERMAT_LIMIT).step_by(2).map(u).collect();
        let mut rejected = 0;
        for (n, passed) in odd.iter().zip(fermat_verdicts(&odd)) {
            if !passed {
                assert!(!base2_alone(n), "{n}");
                assert!(!sieve[n.to_u64().unwrap() as usize], "{n}");
                rejected += 1;
            }
        }
        assert!(rejected > odd.len() / 2, "{rejected} of {}", odd.len());
        // Strong pseudoprimes to base 2, the ψ's among them, pass the
        // check and fall to the Lucas test; Carmichael numbers and the
        // Fermat-only pseudoprime 341 pass it and fall to the strong
        // base-2 test.
        let strong: Vec<UBig> = [2047u64, 3277, 4033, 4681, 8321]
            .into_iter()
            .map(u)
            .chain(PSI.iter().map(|(psi, _)| dec(psi)))
            .collect();
        let fermat_only: Vec<UBig> = [
            341u64, 561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 294_409, 825_265, 56_052_361,
        ]
        .into_iter()
        .map(u)
        .collect();
        for (ns, strong) in [(&strong, true), (&fermat_only, false)] {
            assert!(fermat_verdicts(ns).into_iter().all(|passed| passed));
            for n in ns.iter() {
                assert_eq!(base2_alone(n), strong, "{n}");
                assert!(!is_probable_prime(n, 16, &mut rng(), true), "{n}");
            }
        }
    }

    #[test]
    fn search_never_leaves_the_bit_length() {
        // First draws so close to 2^bits that their window holds no prime:
        // all ones (2^bits − 1 is composite at these sizes) leaves one
        // candidate, and 14 below that leaves eight (the largest primes
        // below 2^64 and 2^512 are 2^64 − 59 and 2^512 − 569). The search
        // must go on to a second draw, never to 2^bits + 1.
        for (bits, last_byte) in [
            (16usize, 0xffu8),
            (32, 0xff),
            (64, 0xff),
            (64, 0xf1),
            (512, 0xff),
            (512, 0xf1),
        ] {
            let mut first = vec![0xffu8; bits / 8];
            *first.last_mut().unwrap() = last_byte;
            let scripted = || Scripted {
                first: Some(first.clone()),
                rest: StdRng::seed_from_u64(bits as u64),
            };
            let (mut fast, mut spec) = (scripted(), scripted());
            let p = gen_prime(bits, 16, &mut fast);
            assert_shape(&p, bits);
            assert_eq!(p, gen_prime_spec(bits, 16, &mut spec), "bits={bits}");
            assert_eq!(fast.next_u64(), spec.next_u64(), "bits={bits}");
            let first_start = UBig::one().shl(bits).sub(&u(0x100 - last_byte as u64));
            assert!(p < first_start, "bits={bits}: not from the second draw");
        }
    }

    /// Exhaustive in a release build (CI runs this crate's tests with
    /// `--release` for it); a debug build checks the first 2^16.
    const EXHAUSTIVE_LIMIT: usize = if cfg!(debug_assertions) {
        1 << 16
    } else {
        1 << 22
    };

    #[test]
    fn agrees_with_a_sieve_on_every_small_number() {
        let sieve = eratosthenes(EXHAUSTIVE_LIMIT);
        let mut r = rng();
        for (n, &prime) in sieve.iter().enumerate() {
            assert_eq!(is_prime(&u(n as u64), 16, &mut r), prime, "{n}");
        }
        // Every composite in that range has a factor below 2048 and never
        // reaches Baillie–PSW, so put the odd ones through it directly.
        for n in (5..EXHAUSTIVE_LIMIT).step_by(2) {
            let big = u(n as u64);
            assert_eq!(base2_alone(&big) && lucas_alone(&big), sieve[n], "{n}");
        }
    }

    #[test]
    fn lucas_and_base2_pseudoprimes_do_not_meet() {
        // The strong Lucas pseudoprimes (Selfridge parameters) below
        // 300,000, from the literature (OEIS A217255).
        const LUCAS_PSEUDOPRIMES: [usize; 32] = [
            5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
            100127, 113573, 115639, 130139, 155819, 158399, 161027, 162133, 176399, 176471, 189419,
            192509, 197801, 224369, 230691, 231703, 243629, 253259, 268349, 288919,
        ];
        let limit = 300_000;
        let sieve = eratosthenes(limit);
        let fooled: Vec<usize> = (5..limit)
            .step_by(2)
            .filter(|&n| lucas_alone(&u(n as u64)) != sieve[n])
            .collect();
        assert_eq!(fooled, LUCAS_PSEUDOPRIMES);
        for n in LUCAS_PSEUDOPRIMES {
            assert!(!base2_alone(&u(n as u64)), "{n}");
            assert!(!is_prime(&u(n as u64), 0, &mut rng()), "{n}");
        }
        // Base-2 strong pseudoprimes pass step 2 and fall to step 3.
        for n in [2047u64, 3277, 4033, 4681, 8321, 3_215_031_751] {
            assert!(base2_alone(&u(n)), "{n}");
            assert!(!lucas_alone(&u(n)), "{n}");
            assert!(!is_prime(&u(n), 0, &mut rng()), "{n}");
        }
        for (psi, factor) in PSI {
            let n = dec(psi);
            assert_eq!(n.rem_u64(factor), 0, "{psi}");
            assert!(base2_alone(&n), "{psi}");
            assert!(!lucas_alone(&n), "{psi}");
            assert!(!is_prime(&n, 0, &mut rng()), "{psi}");
        }
    }

    #[test]
    fn perfect_squares_end_the_parameter_search() {
        let p512 = gen_prime(512, 0, &mut rng());
        let m61 = UBig::one().shl(61).sub(&UBig::one());
        for root in [u(3), u(5), u(2053), u(65537), m61, p512] {
            let square = root.square();
            assert_eq!(selfridge_d(&square), None, "{root}²");
            assert!(!lucas_alone(&square), "{root}²");
            assert!(!is_prime(&square, 16, &mut rng()), "{root}²");
        }
        // The most common parameters, and a common factor with a D tried.
        assert_eq!(selfridge_d(&u(7)), Some((5, false)));
        assert_eq!(selfridge_d(&u(41)), Some((7, true)));
        assert_eq!(selfridge_d(&u(19)), Some((7, true))); // 19 ≡ 3 (mod 4)
        assert_eq!(selfridge_d(&u(5)), Some((7, true))); // (5/5) = 0 says nothing
        assert_eq!(selfridge_d(&u(5 * 2053)), None);
    }

    #[test]
    fn recognizes_known_big_primes() {
        let mut r = rng();
        let mersenne = |e: usize| UBig::one().shl(e).sub(&UBig::one());
        for e in [13usize, 17, 19, 31, 61, 89, 107, 127, 521, 607] {
            assert_matches_oracle(&mersenne(e), 16);
            assert!(is_prime(&mersenne(e), 16, &mut r), "2^{e} - 1");
        }
        for e in [67usize, 101, 128, 257, 512] {
            assert!(!is_prime(&mersenne(e), 16, &mut r), "2^{e} - 1");
        }
        // Fermat primes and the first Fermat composites.
        for (e, prime) in [(3usize, true), (4, true), (5, false), (6, false)] {
            let f = &UBig::one().shl(1 << e) + &UBig::one();
            assert_eq!(is_prime(&f, 16, &mut r), prime, "F{e}");
        }
        let p25519 = UBig::one().shl(255).sub(&u(19));
        assert!(is_prime(&p25519, 16, &mut r));
    }

    #[test]
    fn generated_primes_pass_old_and_new_tests() {
        let mut r = rng();
        for i in 0..64 {
            let p = gen_prime(512, 16, &mut r);
            assert_shape(&p, 512);
            assert!(is_prime(&p, 20, &mut r), "prime {i}");
            assert_matches_oracle(&p, 16);
        }
    }

    #[test]
    fn matches_oracle_on_crafted_values() {
        // Carmichael numbers, base-2 strong pseudoprimes, and the smallest
        // strong pseudoprime to bases 2, 3, 5 and 7 together.
        for c in [561u64, 1105, 1729, 294_409, 56_052_361] {
            assert_matches_oracle(&u(c), 16);
        }
        for c in [2047u64, 3277, 4033, 4681, 8321, 3_215_031_751] {
            assert_matches_oracle(&u(c), 16);
            assert!(!is_prime(&u(c), 16, &mut rng()), "{c} is composite");
        }
        // Every trial prime, alone and times a prime trial division cannot
        // see: 2053 (first above the bound, one limb) and 2^127 - 1.
        let m127 = UBig::one().shl(127).sub(&UBig::one());
        let t = tables();
        for &p in &t.primes[..t.trial_len] {
            let p = p as u64;
            assert_matches_oracle(&u(p), 16);
            assert!(is_prime(&u(p), 16, &mut rng()));
            assert_matches_oracle(&u(p * 2053), 16);
            assert!(!is_prime(&(&u(p) * &m127), 16, &mut rng()), "{p} * M127");
        }
        assert_matches_oracle(&u(2053), 16);
        assert_matches_oracle(&u(2053 * 2053), 16);
        assert_matches_oracle(&(&u(2053) * &m127), 16);
        // Semiprimes straddling each trial-group boundary.
        for pair in t.trial_groups.windows(2) {
            let (last, first) = (t.primes[pair[0].1.end - 1], t.primes[pair[1].1.start]);
            let semiprime = u(last as u64 * first as u64);
            assert_matches_oracle(&semiprime, 16);
            assert_matches_oracle(&(&semiprime * &m127), 16);
        }
        // Round counts on either side of the fixed/random split.
        for rounds in [0usize, 1, 2, 12, 13, 20] {
            assert_matches_oracle(&m127, rounds);
            assert_matches_oracle(&u(3_215_031_751), rounds);
        }
    }

    /// Where the verdict moved: composites the old fixed bases let
    /// through. Each is checked against a factor, not against the oracle.
    #[test]
    fn differs_from_oracle_only_where_the_oracle_was_wrong() {
        // Few rounds on strong pseudoprimes with no factor below 2048:
        // ψ₃ fools bases 2, 3, 5; ψ₇ fools the first eight.
        for (psi, factor, fooled_rounds) in [
            ("25326001", 2251u64, 3usize),
            ("341550071728321", 10670053, 8),
        ] {
            let n = dec(psi);
            assert_eq!(n.rem_u64(factor), 0);
            for rounds in 0..=fooled_rounds {
                assert!(
                    is_prime_oracle(&n, rounds, &mut rng()),
                    "{psi} rounds={rounds}"
                );
                assert!(!is_prime(&n, rounds, &mut rng()), "{psi} rounds={rounds}");
            }
            assert_matches_oracle(&n, fooled_rounds + 1);
        }
        // ψ₁₂ and ψ₁₃ pass all twelve fixed bases: at rounds = 12 the
        // oracle called them prime; above 12 it went on to random bases
        // (reading the RNG) where Lucas now answers first (reading none).
        for (psi, factor) in &PSI[8..] {
            let n = dec(psi);
            assert_eq!(n.rem_u64(*factor), 0);
            assert!(is_prime_oracle(&n, 12, &mut rng()), "{psi}");
            for rounds in [0usize, 12, 16] {
                let mut r = rng();
                assert!(!is_prime(&n, rounds, &mut r), "{psi} rounds={rounds}");
                assert_eq!(r.next_u64(), rng().next_u64(), "{psi} read the RNG");
            }
        }
    }

    /// Captured when the search became incremental and the fixed-base
    /// rounds a Lucas test — after `gen_prime_is_the_specified_search`
    /// passed. A seed pins the prime and the state the generator is left
    /// in; both differ from what the same seed gave before.
    #[test]
    fn golden_primes_512() {
        let golden = [
            (1u64, "c510c70f6daff2b3ea4c364796553b8514452a085697f892a7a366c27b1c2e647336239ae2487ab222a7fd6f1223c124e610f58def0430129de8b147cc4d97c5", [0xfau8, 0xfb, 0x32, 0xb2, 0x92, 0xcb, 0xd9, 0xf3]),
            (2, "d7d0a8a80d69281a8ad5edda4280bbb905f21e00af29182f3d6839d1633e73bf3420a8c64782a7afd0f05cd1b6a1693c00c44889d1fda9a5911e984a65d21499", [0xb2, 0x54, 0x79, 0xf3, 0x19, 0x96, 0xb9, 0x64]),
            (3, "c08c66e5daabcdb0ee64185eea1dfda351fd2932fb0ae037ea3b6f238bb5b1880a9824b28f4cb26c8380a9e27e2846665672fae1b58bcd35e6b46f6be1e630bf", [0x8b, 0xc6, 0xef, 0x73, 0xf7, 0xa4, 0x90, 0x68]),
        ];
        for (seed, hex, next) in golden {
            let mut r = StdRng::seed_from_u64(seed);
            assert_eq!(gen_prime(512, 16, &mut r).to_hex(), hex, "seed={seed}");
            let mut after = [0u8; 8];
            RngCore::fill_bytes(&mut r, &mut after);
            assert_eq!(after, next, "RNG state after seed={seed}");
        }
    }

    /// The ladder against the U/V recurrence on every odd number from 5
    /// to 2^15 (both `Q = −1` and other parameters), on perfect squares,
    /// on the strong Lucas pseudoprimes below 300,000 and on the strong
    /// base-2 pseudoprimes the module tests elsewhere.
    #[test]
    fn lucas_ladder_matches_the_uv_recurrence() {
        let mut checked = 0;
        for n in (5..1u64 << 15).step_by(2) {
            assert_eq!(lucas_alone(&u(n)), lucas_uv_oracle(&u(n)), "{n}");
            checked += 1;
        }
        let p512 = gen_prime(512, 0, &mut rng());
        let squares = [u(3), u(5), u(2053), u(65537), p512.clone()].map(|root| root.square());
        let lucas = [5459u64, 5777, 10877, 16109, 18971, 22499, 288919];
        let base2 = [2047u64, 3277, 4033, 4681, 8321, 3_215_031_751];
        let psi = PSI.iter().map(|(psi, _)| dec(psi));
        for n in squares
            .into_iter()
            .chain(lucas.into_iter().chain(base2).map(u))
            .chain(psi)
            .chain([p512, UBig::one().shl(127).sub(&UBig::one())])
        {
            assert_eq!(lucas_alone(&n), lucas_uv_oracle(&n), "{n}");
            checked += 1;
        }
        assert!(checked > 16_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lucas_ladder_matches_the_uv_recurrence_on_random_odd_values(
            bits in 64usize..401,
            bytes in proptest::collection::vec(any::<u8>(), 50..51),
        ) {
            let mut n = UBig::from_bytes_be(&bytes).shr(400 - bits);
            n.set_bit(bits - 1);
            n.set_bit(0);
            prop_assert_eq!(lucas_alone(&n), lucas_uv_oracle(&n));
            // And the first prime from n on, which both must pass.
            let mut p = n;
            while !is_prime(&p, 0, &mut rng()) {
                p = &p + &u(2);
            }
            prop_assert!(lucas_alone(&p) && lucas_uv_oracle(&p));
        }

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
    fn classifies_small_numbers() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 101, 1009, 2003, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 100, 1001, 2047, 7917, 104730];
        for p in primes {
            assert!(is_prime(&u(p), 16, &mut r), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(&u(c), 16, &mut r), "{c} is composite");
        }
    }

    #[test]
    fn rejects_carmichael_numbers() {
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&u(c), 16, &mut r), "{c}");
        }
    }

    #[test]
    fn coprime_generation_respects_e() {
        let mut r = rng();
        let e = u(65537);
        let p = gen_prime_coprime(96, 12, &e, &mut r);
        assert!(p.sub(&UBig::one()).gcd(&e).is_one());
    }
}
