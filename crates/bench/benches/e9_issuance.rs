//! Kept: no ledger row (plain vs blind issuance).
//!
//! E9 (ablation): what blind issuance costs over plain issuance.
//!
//! Shape claim: blinding adds ~2 modular exponentiations + 1 inverse over
//! a plain FDH signature (small constant factor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2drm_crypto::blind::{self, Blinded};
use p2drm_crypto::rng::test_rng;
use p2drm_crypto::rsa::{fdh, RsaKeyPair};
use std::time::Duration;

fn bench_issuance(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_issuance");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &bits in &[512usize, 1024] {
        let kp = RsaKeyPair::generate(bits, &mut test_rng(0xB9_00 + bits as u64));
        let msg = b"pseudonym certificate body bytes";

        // Plain FDH signature (what a non-blind RA would do).
        group.bench_function(BenchmarkId::new("plain_fdh_sign", bits), |b| {
            b.iter(|| kp.raw_private(&fdh(msg, kp.public().modulus_len())))
        });

        // Full blind round trip: blind + sign + unblind + verify.
        group.bench_function(BenchmarkId::new("blind_roundtrip", bits), |b| {
            let mut rng = test_rng(0xB9_10 + bits as u64);
            b.iter(|| {
                let blinded = Blinded::new(kp.public(), msg, &mut rng).unwrap();
                let s = blind::blind_sign(&kp, &blinded.blinded).unwrap();
                blinded.unblind(kp.public(), &s).unwrap()
            })
        });

        let x = fdh(msg, kp.public().modulus_len());
        group.bench_function(BenchmarkId::new("raw_private_crt", bits), |b| {
            b.iter(|| kp.raw_private(&x))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_issuance);
criterion_main!(benches);
