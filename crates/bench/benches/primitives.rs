//! Crypto/substrate primitive microbenchmarks: the cost model everything
//! in E1–E10 decomposes into (hash/cipher throughput, modular
//! exponentiation scaling, multiplication ablation, store ops).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p2drm_bignum::{rng as brng, Mont, UBig};
use p2drm_crypto::rng::test_rng;
use p2drm_crypto::{chacha20, sha256};
use p2drm_store::{ConcurrentKv, MemKv};
use std::time::Duration;

fn bench_symmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("prim_symmetric");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for &size in &[1024usize, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::new("sha256", size), |b| {
            b.iter(|| sha256::sha256(&data))
        });
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        group.bench_function(BenchmarkId::new("chacha20", size), |b| {
            b.iter(|| chacha20::encrypt(&key, &nonce, &data))
        });
    }
    group.finish();
}

fn bench_modexp(c: &mut Criterion) {
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
        let exp = brng::random_bits(&mut rng, bits);
        group.bench_function(BenchmarkId::new("mont_pow_full_exp", bits), |b| {
            b.iter(|| mont.pow(&base, &exp))
        });
        let e65537 = UBig::from_u64(65537);
        group.bench_function(BenchmarkId::new("mont_pow_e65537", bits), |b| {
            b.iter(|| mont.pow(&base, &e65537))
        });
        // Dedicated squaring vs the general product on the same operand.
        let bm = mont.to_mont(&base);
        group.bench_function(BenchmarkId::new("mont_mul_self", bits), |b| {
            b.iter(|| mont.mont_mul(&bm, &bm))
        });
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

/// What a fresh pseudonym costs before anything reaches the provider:
/// one prime search, the full test on the prime it ends at (base-2
/// round, Lucas test, four random-base rounds), a whole RSA-1024 key, the
/// modular inverse behind every blinding factor, and a full blinding. A
/// single prime search varies severalfold with its seed, so the two
/// search rows cycle through a fixed set of seeds: every run, on any
/// commit, averages the same searches.
fn bench_keygen(c: &mut Criterion) {
    use p2drm_bignum::{modring, prime};
    use p2drm_crypto::blind::Blinded;
    use p2drm_crypto::rsa::RsaKeyPair;

    let mut group = c.benchmark_group("prim_keygen");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    let mut i = 0u64;
    group.bench_function(BenchmarkId::new("gen_prime", 512), |b| {
        b.iter(|| {
            i += 1;
            prime::gen_prime(512, 16, &mut test_rng(0xF300 + i % 16))
        })
    });
    let mut rng = test_rng(0xF5);
    let known_prime = prime::gen_prime(512, 16, &mut rng);
    group.bench_function(BenchmarkId::new("confirm_prime", 512), |b| {
        b.iter(|| prime::is_prime(&known_prime, 16, &mut rng))
    });
    group.bench_function(BenchmarkId::new("rsa_keygen", 1024), |b| {
        b.iter(|| {
            i += 1;
            RsaKeyPair::generate(1024, &mut test_rng(0xF400 + i % 16))
        })
    });
    let mut rng = test_rng(0xF3);
    let kp = RsaKeyPair::generate(1024, &mut rng);
    let n = kp.public().modulus();
    let a = brng::random_below(&mut rng, n);
    group.bench_function(BenchmarkId::new("inv_mod", 1024), |b| {
        b.iter(|| modring::inv_mod(&a, n))
    });
    group.bench_function(BenchmarkId::new("blind", 1024), |b| {
        b.iter(|| Blinded::new(kp.public(), b"pseudonym certificate digest", &mut rng))
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
    bench_symmetric,
    bench_modexp,
    bench_fixed_base,
    bench_keygen,
    bench_mul_ablation,
    bench_store
);
criterion_main!(benches);
