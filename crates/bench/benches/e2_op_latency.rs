//! Kept: one-process A/B sizing (`read_path`, CHANGES PR 19 and 21) and no
//! ledger row — the P2DRM-vs-baseline ratio below *is* the paper's E2 claim.
//!
//! E2 (Fig 2): per-operation latency vs RSA modulus size, P2DRM vs
//! baseline. The reproduction claim is about *ratios*: P2DRM purchase
//! costs a small constant factor over the baseline (blind issuance +
//! coin), and both scale ~cubically with modulus size.
//!
//! Setup work (fresh pseudonyms, coins, licenses) happens outside the
//! timed section via `iter_custom`.
//!
//! The `read_path` group times the anonymous read ops — the ones that
//! run no modexp — through the byte-level `ProviderService::handle` at
//! RSA-1024 against a 256-item catalog of 16 KiB items, the shape the
//! end-to-end benchmark's `lifecycle_mix` serves.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use p2drm_bench::{make_purchase_request, world};
use p2drm_core::protocol;
use p2drm_core::protocol::messages::{CatalogRequest, DownloadRequest, LicenseStatusRequest};
use p2drm_core::service::{RequestEnvelope, WireRequest};
use p2drm_core::Transcript;
use p2drm_crypto::rng::test_rng;
use std::time::{Duration, Instant};

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_op_latency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &bits in &[512usize, 1024] {
        // --- pseudonym issuance (card keygen + blind dance) --------------
        let mut w = world(bits, 0xB2_00 + bits as u64);
        group.bench_function(BenchmarkId::new("pseudonym_issuance", bits), |b| {
            b.iter(|| {
                let mut t = Transcript::new();
                let epoch = w.sys.epoch();
                let now = w.sys.now();
                let id = protocol::obtain_pseudonym(
                    &mut w.user,
                    &w.sys.ra,
                    w.sys.ttp.escrow_key(),
                    epoch,
                    now,
                    &mut w.rng,
                    &mut t,
                )
                .unwrap();
                // Keep the card inside its budget across iterations.
                w.user.card.forget_pseudonym(&id);
                id
            })
        });

        // --- provider-side purchase handling ------------------------------
        let mut w = world(bits, 0xB2_10 + bits as u64);
        group.bench_function(BenchmarkId::new("purchase_provider", bits), |b| {
            b.iter_custom(|iters| {
                let mut rng = test_rng(1);
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let req = make_purchase_request(&mut w);
                    let epoch = w.sys.epoch();
                    let t0 = Instant::now();
                    black_box(
                        w.sys
                            .provider
                            .handle_purchase(&req, epoch, &mut rng)
                            .unwrap(),
                    );
                    total += t0.elapsed();
                }
                total
            })
        });

        // --- play (device + card + CRL-sync clock probe + download), fresh
        // license per iter ----------------------------------------------------
        let mut w = world(bits, 0xB2_20 + bits as u64);
        let mut device = w.sys.register_device(&mut w.rng).unwrap();
        group.bench_function(BenchmarkId::new("play_full_path", bits), |b| {
            b.iter_custom(|iters| {
                let mut rng = test_rng(2);
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let lic = w.sys.purchase(&mut w.user, w.cid, &mut w.rng).unwrap();
                    let t0 = Instant::now();
                    black_box(w.sys.play(&w.user, &mut device, &lic, &mut rng).unwrap());
                    total += t0.elapsed();
                }
                total
            })
        });

        // --- baseline purchase ---------------------------------------------
        let mut w = world(bits, 0xB2_30 + bits as u64);
        let bid =
            w.sys
                .publish_baseline_content("bench-baseline", 100, &vec![0u8; 4096], &mut w.rng);
        group.bench_function(BenchmarkId::new("purchase_baseline", bits), |b| {
            b.iter(|| {
                let mut t = Transcript::new();
                let ra_key = w.sys.ra.identity_public().clone();
                let now = w.sys.now();
                let epoch = w.sys.epoch();
                w.sys
                    .baseline
                    .purchase_identified(&mut w.user, &ra_key, bid, now, epoch, &mut w.rng, &mut t)
                    .unwrap()
            })
        });

        // --- baseline play ---------------------------------------------------
        let mut w = world(bits, 0xB2_40 + bits as u64);
        let bid =
            w.sys
                .publish_baseline_content("bench-baseline", 100, &vec![0u8; 4096], &mut w.rng);
        let mut bdevice = w.sys.register_baseline_device(&mut w.rng).unwrap();
        group.bench_function(BenchmarkId::new("play_baseline", bits), |b| {
            b.iter_custom(|iters| {
                let mut rng = test_rng(3);
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let mut t = Transcript::new();
                    let ra_key = w.sys.ra.identity_public().clone();
                    let now = w.sys.now();
                    let epoch = w.sys.epoch();
                    let lic = w
                        .sys
                        .baseline
                        .purchase_identified(
                            &mut w.user,
                            &ra_key,
                            bid,
                            now,
                            epoch,
                            &mut w.rng,
                            &mut t,
                        )
                        .unwrap();
                    let mut t2 = Transcript::new();
                    let t0 = Instant::now();
                    black_box(
                        p2drm_core::baseline::play_identified(
                            &w.user,
                            &mut bdevice,
                            &w.sys.baseline,
                            &lic,
                            now,
                            &mut rng,
                            &mut t2,
                        )
                        .unwrap(),
                    );
                    total += t0.elapsed();
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_read_path(c: &mut Criterion) {
    const ITEMS: usize = 256;
    const LICENSES: usize = 32;
    let mut group = c.benchmark_group("read_path");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let mut w = world(1024, 0xB2_50);
    let payload = vec![0u8; 16 * 1024];
    let mut cid = w.cid;
    for i in 1..ITEMS {
        cid = w
            .sys
            .publish_content(&format!("Item {i:03}"), 100, &payload, &mut w.rng);
    }
    let request = |body| {
        RequestEnvelope {
            correlation_id: 1,
            body,
        }
        .to_bytes()
    };
    let status_requests: Vec<Vec<u8>> = (0..LICENSES)
        .map(|_| {
            let license = w.sys.purchase(&mut w.user, cid, &mut w.rng).unwrap();
            request(WireRequest::LicenseStatus(LicenseStatusRequest {
                license_id: license.id(),
            }))
        })
        .collect();
    let service = w.sys.wire_service(0xB2_50);

    let listing = request(WireRequest::Catalog(CatalogRequest { content_id: None }));
    group.bench_function(BenchmarkId::new("catalog_listing", ITEMS), |b| {
        b.iter(|| service.handle(black_box(&listing)))
    });
    let by_id = request(WireRequest::Catalog(CatalogRequest {
        content_id: Some(cid),
    }));
    group.bench_function("catalog_by_id", |b| {
        b.iter(|| service.handle(black_box(&by_id)))
    });
    let mut next = 0usize;
    group.bench_function("license_status/active", |b| {
        b.iter(|| {
            next = (next + 1) % LICENSES;
            service.handle(black_box(&status_requests[next]))
        })
    });
    let download = request(WireRequest::Download(DownloadRequest { content_id: cid }));
    group.bench_function("download/16k", |b| {
        b.iter(|| service.handle(black_box(&download)))
    });
    group.finish();
}

criterion_group!(benches, bench_ops, bench_read_path);
criterion_main!(benches);
