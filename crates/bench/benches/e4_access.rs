//! Kept: no ledger row (device-side access check vs rights complexity).
//!
//! E4 (Fig 4): device-side access-check latency vs rights-expression
//! complexity and vs accumulated per-license state.
//!
//! Shape claim: the REL evaluation is cheap (µs) next to the signature
//! checks (ms); access cost is dominated by RSA verification and stays
//! flat as the device's state store grows (BTreeMap-backed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2drm_bench::world;
use p2drm_core::entities::device::challenge_message;
use p2drm_rel::{AccessRequest, Limit, Rights, RightsState};
use std::time::Duration;

fn bench_rel_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_rel_eval");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));

    let typical = Rights::builder()
        .play(Limit::Count(10))
        .transfer(Limit::Count(1))
        .window(Some(0), Some(99999));
    let cases = [
        ("minimal", Rights::builder().play(Limit::Unlimited).build()),
        ("typical", typical.clone().build()),
        (
            "full",
            typical
                .copy(Limit::Count(2))
                .domain("home")
                .region("EU")
                .region("US")
                .region("JP")
                .build(),
        ),
    ];
    for (name, rights) in cases {
        let state = RightsState::new();
        let req = AccessRequest::play(50, [0u8; 32])
            .in_domain("home")
            .in_region("EU");
        group.bench_function(BenchmarkId::new("evaluate", name), |b| {
            b.iter(|| rights.evaluate(&state, &req))
        });
    }
    group.finish();
}

fn bench_device_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_device_check");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // Access check (verification only) against a device with a growing
    // number of licenses in its state store.
    for &licenses in &[1usize, 32, 256] {
        let mut w = world(512, 0xB4_00 + licenses as u64);
        let mut device = w.sys.register_device(&mut w.rng).unwrap();
        let mut target = None;
        for i in 0..licenses {
            let lic = w.sys.purchase(&mut w.user, w.cid, &mut w.rng).unwrap();
            // Touch state for each license so the store actually grows.
            let req = AccessRequest::play(w.sys.now(), device.binding_id());
            device.consume(&lic, &req).unwrap();
            if i == licenses / 2 {
                target = Some(lic);
            }
        }
        let license = target.unwrap();
        let owned = w.user.license(&license.id()).unwrap();
        let cert = w
            .user
            .pseudonym_certs()
            .iter()
            .find(|c| c.pseudonym_id() == owned.pseudonym)
            .unwrap()
            .clone();
        let nonce = device.make_challenge(&mut w.rng);
        let sig = w
            .user
            .card
            .sign_with_pseudonym(&owned.pseudonym, &challenge_message(&nonce, &license.id()))
            .unwrap();
        let req = AccessRequest::play(w.sys.now(), device.binding_id());

        group.bench_function(BenchmarkId::new("check_access", licenses), |b| {
            b.iter(|| {
                device
                    .check_access(&license, Some(&cert), &nonce, &sig, &req)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rel_eval, bench_device_check);
criterion_main!(benches);
