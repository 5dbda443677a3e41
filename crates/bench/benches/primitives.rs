//! Kept: no ledger row (and CHANGES PR 14 and 16 sized `inv_mod` /
//! `confirm_prime` with it in one process). Substrate primitives the
//! benchmark's per-layer rows do not time — dedicated squaring, the
//! primality test on a known prime, modular inverse, fixed-base
//! exponentiation, plain multiplication and `MemKv::insert_if_absent`.
//! (Hash/cipher throughput, modexp, Montgomery product, prime search,
//! RSA keygen and blinding are `crypto.*` / `bignum.*` rows in
//! `BENCHMARK.json`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2drm_bignum::{rng as brng, Mont};
use p2drm_crypto::rng::test_rng;
use p2drm_store::{ConcurrentKv, MemKv};
use std::time::Duration;

fn bench_mont_sqr(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_modexp");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let mut rng = test_rng(0xF0);
    for &bits in &[512usize, 1024, 2048] {
        let mut modulus = brng::random_bits(&mut rng, bits);
        modulus.set_bit(bits - 1);
        modulus.set_bit(0);
        let mont = Mont::new(&modulus).unwrap();
        let base = brng::random_below(&mut rng, &modulus);
        // Dedicated squaring; the general product on the same operand
        // size is the ledger's `bignum.mont_mul_16limb_ns`.
        let bm = mont.to_mont(&base);
        group.bench_function(BenchmarkId::new("mont_sqr", bits), |b| {
            b.iter(|| mont.mont_sqr(&bm))
        });
    }
    group.finish();
}

fn bench_fixed_base(c: &mut Criterion) {
    use p2drm_crypto::elgamal::ElGamalGroup;
    let mut group = c.benchmark_group("prim_fixed_base");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let mut rng = test_rng(0xF2);
    let g = ElGamalGroup::modp_1024();
    let exps: Vec<_> = (0..8).map(|_| g.random_exponent(&mut rng)).collect();
    let _ = g.pow_g(&exps[0]); // build the table outside the measurement
    let gen = g.generator().clone();
    let mut i = 0usize;
    group.bench_function("elgamal_pow_g_generic", |b| {
        b.iter(|| {
            i += 1;
            g.pow(&gen, &exps[i % exps.len()])
        })
    });
    group.bench_function("elgamal_pow_g_fixed_base", |b| {
        b.iter(|| {
            i += 1;
            g.pow_g(&exps[i % exps.len()])
        })
    });
    group.finish();
}

/// The two keygen pieces the ledger's `bignum.prime_gen_512_ms` /
/// `crypto.rsa_keygen_ms` / `crypto.blind_us` rows do not isolate: the
/// full test on the prime a search ends at (base-2 round, Lucas test,
/// four random-base rounds) and the modular inverse behind every
/// blinding factor.
fn bench_keygen(c: &mut Criterion) {
    use p2drm_bignum::{modring, prime};
    use p2drm_crypto::rsa::RsaKeyPair;

    let mut group = c.benchmark_group("prim_keygen");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    let mut rng = test_rng(0xF5);
    let known_prime = prime::gen_prime(512, 16, &mut rng);
    group.bench_function(BenchmarkId::new("confirm_prime", 512), |b| {
        b.iter(|| prime::is_prime(&known_prime, 16, &mut rng))
    });
    let mut rng = test_rng(0xF3);
    let kp = RsaKeyPair::generate(1024, &mut rng);
    let n = kp.public().modulus();
    let a = brng::random_below(&mut rng, n);
    group.bench_function(BenchmarkId::new("inv_mod", 1024), |b| {
        b.iter(|| modring::inv_mod(&a, n))
    });
    group.finish();
}

fn bench_mul_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_mul");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let mut rng = test_rng(0xF1);
    for &bits in &[1024usize, 4096, 16384] {
        let a = brng::random_bits(&mut rng, bits);
        let b_val = brng::random_bits(&mut rng, bits);
        group.bench_function(BenchmarkId::new("mul", bits), |b| b.iter(|| &a * &b_val));
    }
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_store");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    // insert_if_absent over a grown MemKv — the double-redeem hot path.
    for &preload in &[1_000usize, 100_000] {
        let kv = MemKv::new();
        for i in 0..preload as u64 {
            kv.put(&i.to_le_bytes(), b"").unwrap();
        }
        let mut next = preload as u64;
        group.bench_function(BenchmarkId::new("insert_if_absent_fresh", preload), |b| {
            b.iter(|| {
                next += 1;
                kv.insert_if_absent(&next.to_le_bytes(), b"").unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("insert_if_absent_dup", preload), |b| {
            b.iter(|| kv.insert_if_absent(&1u64.to_le_bytes(), b"").unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mont_sqr,
    bench_fixed_base,
    bench_keygen,
    bench_mul_ablation,
    bench_store
);
criterion_main!(benches);
