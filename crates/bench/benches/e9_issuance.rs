//! Kept: no ledger row (plain vs blind vs cut-and-choose issuance).
//!
//! E9 (ablation): what blind issuance costs over plain issuance, and the
//! price of cut-and-choose honesty amplification.
//!
//! Shape claims: blinding adds ~2 modular exponentiations + 1 inverse over
//! a plain FDH signature (small constant factor); cut-and-choose scales
//! linearly in k (k blinded candidates prepared, k-1 audited).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2drm_crypto::blind::{self, Blinded, CutChooseIssuer, CutChooseRequest};
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

    // Cut-and-choose sweep at 512 bits.
    let kp = RsaKeyPair::generate(512, &mut test_rng(0xB9_20));
    for &k in &[1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("cut_and_choose", k), |b| {
            let mut rng = test_rng(0xB9_30 + k as u64);
            b.iter(|| {
                let req = CutChooseRequest::prepare(
                    kp.public(),
                    k,
                    |i| format!("candidate-{i}").into_bytes(),
                    &mut rng,
                )
                .unwrap();
                let blinded = req.blinded_values();
                let keep = CutChooseIssuer::choose(k, &mut rng);
                let openings = req.open_all_but(keep);
                let s = CutChooseIssuer::audit_and_sign(&kp, &blinded, keep, &openings, |m| {
                    m.starts_with(b"candidate-")
                })
                .unwrap();
                req.finish(kp.public(), keep, &s).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_issuance);
criterion_main!(benches);
