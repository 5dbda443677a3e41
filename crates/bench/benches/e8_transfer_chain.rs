//! Kept: no ledger row (transfer cost against a pre-grown spent set).
//!
//! E8 (Fig 7): transfer cost per hop and spent-set growth.
//!
//! Shape claim: each hop costs a constant amount (one proof verify, one
//! spent-set insert, one license issue); the spent set grows exactly
//! linearly in completed transfers; a double redeem is always rejected in
//! O(spent-set lookup).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use p2drm_bench::{authorize_transfer, make_transfer_request, world};
use p2drm_crypto::rng::test_rng;
use std::time::{Duration, Instant};

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_transfer");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // Provider-side transfer handling with a pre-grown spent set.
    for &preload in &[0usize, 64, 512] {
        let mut w = world(512, 0xB8_00 + preload as u64);
        let mut recipient = w.sys.register_user("recipient", &mut w.rng).unwrap();
        recipient.set_policy(p2drm_core::entities::user::PseudonymPolicy::Static);
        w.sys.fund(&recipient, u64::MAX / 8);
        for _ in 0..preload {
            let req = make_transfer_request(&mut w, &mut recipient);
            let epoch = w.sys.epoch();
            w.sys
                .provider
                .handle_transfer(&req, epoch, &mut w.rng)
                .unwrap();
        }
        group.bench_function(BenchmarkId::new("handle_transfer", preload), |b| {
            b.iter_custom(|iters| {
                let mut rng = test_rng(4);
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let req = make_transfer_request(&mut w, &mut recipient);
                    let epoch = w.sys.epoch();
                    let t0 = Instant::now();
                    black_box(
                        w.sys
                            .provider
                            .handle_transfer(&req, epoch, &mut rng)
                            .unwrap(),
                    );
                    total += t0.elapsed();
                }
                total
            })
        });
    }

    // Double-redeem rejection cost (the spent-set hit path).
    let mut w = world(512, 0xB8_99);
    let mut recipient = w.sys.register_user("recipient2", &mut w.rng).unwrap();
    recipient.set_policy(p2drm_core::entities::user::PseudonymPolicy::Static);
    w.sys.fund(&recipient, u64::MAX / 8);
    let req = make_transfer_request(&mut w, &mut recipient);
    let epoch = w.sys.epoch();
    w.sys
        .provider
        .handle_transfer(&req, epoch, &mut w.rng)
        .unwrap();
    // The same license toward anyone else (toward the same recipient it
    // is a replay, answered with the successor).
    let mut other = w.sys.register_user("recipient3", &mut w.rng).unwrap();
    let double = authorize_transfer(&mut w, req.license, &mut other);
    group.bench_function("double_redeem_rejection", |b| {
        let mut rng = test_rng(5);
        b.iter(|| {
            let res = w.sys.provider.handle_transfer(&double, epoch, &mut rng);
            assert!(res.is_err());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transfer);
criterion_main!(benches);
