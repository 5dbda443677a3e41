//! Kept: no ledger row (CRL structure ablation).
//!
//! E5 (Fig 5): revocation-check cost vs CRL size — the structure ablation.
//!
//! Shape claim: linear scan grows linearly, binary search logarithmically,
//! and the Bloom-prefiltered list is ~flat for the common not-revoked case
//! while staying exact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p2drm_pki::cert::digest_id;
use p2drm_pki::crl::{BloomCrl, RevocationList};
use std::time::Duration;

fn ids(n: usize) -> Vec<p2drm_pki::cert::KeyId> {
    (0..n as u64).map(|i| digest_id(&i.to_le_bytes())).collect()
}

fn bench_crl(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_crl_check");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for &size in &[100usize, 1_000, 10_000, 100_000] {
        let revoked = ids(size);
        let list = RevocationList::from_ids(revoked.clone());
        let mut bloom = BloomCrl::new(size, 0.01);
        for id in &revoked {
            bloom.insert(*id);
        }
        // Probes that are NOT revoked (the hot path at a provider/device).
        let probes: Vec<_> = (0..256u64)
            .map(|i| digest_id(&(u64::MAX - i).to_le_bytes()))
            .collect();

        group.throughput(Throughput::Elements(probes.len() as u64));
        group.bench_function(BenchmarkId::new("linear_scan", size), |b| {
            b.iter(|| probes.iter().filter(|p| list.contains_linear(p)).count())
        });
        group.bench_function(BenchmarkId::new("binary_search", size), |b| {
            b.iter(|| probes.iter().filter(|p| list.contains(p)).count())
        });
        group.bench_function(BenchmarkId::new("bloom_prefilter", size), |b| {
            b.iter(|| probes.iter().filter(|p| bloom.contains(p)).count())
        });

        // Revoked-probe variant (worst case for bloom: always confirms).
        let hot: Vec<_> = revoked.iter().take(256).cloned().collect();
        group.bench_function(BenchmarkId::new("bloom_revoked_probes", size), |b| {
            b.iter(|| hot.iter().filter(|p| bloom.contains(p)).count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crl);
criterion_main!(benches);
