//! Purchases that reach the provider together are signed together: the
//! wire service's batch entry point settles every purchase of a batch
//! with one `sign_batch`, whose RSA-1024 CRT exponentiations share the
//! lanes of the vertical IFMA kernel — eight licenses are 24 lanes,
//! three kernel calls, where one license alone takes one call — and the
//! licenses are exactly the ones one-at-a-time purchases give.

use p2drm::core::protocol::messages::PurchaseRequest;
use p2drm::core::service::{RequestEnvelope, ResponseEnvelope, WireRequest, WireResponse};
use p2drm::obs::Registry;
use p2drm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Whether this CPU runs the vertical kernel (the counts below are its).
fn has_ifma() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `(license_signatures, sign_kernel_calls, sign_batch_size samples)`
/// off the provider's metric source.
fn signing(registry: &Registry) -> (u64, u64, u64) {
    let snapshot = registry.snapshot();
    let counter = |name| snapshot.counter(name).expect("provider metric");
    let batches = snapshot
        .histogram("sign_batch_size")
        .map_or(0, |summary| summary.count);
    (
        counter("license_signatures"),
        counter("sign_kernel_calls"),
        batches,
    )
}

#[test]
fn eight_purchases_are_one_batch_of_three_kernel_calls_and_the_same_licenses() {
    const BUYS: usize = 9;
    let mut rng = test_rng(0xBA7C);
    let config = SystemConfig {
        key_bits: 1024,
        ..SystemConfig::fast_test()
    };
    let sys = System::bootstrap(config, &mut rng);
    let cid = sys.publish_content("Batched", 100, b"eight at once", &mut rng);
    let mut user = sys.register_user("buyer", &mut rng).unwrap();
    sys.fund(&user, 100 * BUYS as u64);
    let mut requests = Vec::new();
    for _ in 0..BUYS {
        sys.ensure_pseudonym(&mut user, &mut rng).unwrap();
        let account = user.account.clone();
        let coin = user
            .wallet
            .withdraw(&sys.mint, &account, 100, &mut rng)
            .unwrap();
        user.wallet.take(100);
        requests.push(PurchaseRequest {
            content_id: cid,
            pseudonym_cert: user.current_pseudonym().unwrap().clone(),
            coin,
            attribute_cert: None,
        });
        user.note_pseudonym_use();
    }
    let envelopes: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            RequestEnvelope {
                correlation_id: 0x5EED + i as u64,
                body: WireRequest::Purchase(req.clone()),
            }
            .to_bytes()
        })
        .collect();
    let request_rng = |i: usize| StdRng::seed_from_u64(0xF00D + i as u64);

    let registry = Arc::new(Registry::new());
    let service = sys.wire_service_with_registry(1, registry.clone());
    let mut replies = vec![None; BUYS];
    let frames: Vec<&[u8]> = envelopes[..8].iter().map(Vec::as_slice).collect();
    let mut rngs: Vec<StdRng> = (0..8).map(request_rng).collect();
    service.handle_batch_with_rngs(&frames, &mut rngs, &mut |i, bytes| {
        assert!(replies[i].replace(bytes).is_none(), "one reply per request");
    });
    let (signatures, calls, batches) = signing(&registry);
    assert_eq!((signatures, batches), (8, 1), "eight licenses, one batch");
    if has_ifma() {
        assert_eq!(calls, 3, "8 signatures × 3 primes = 24 lanes = 3 calls");
    } else {
        eprintln!("this CPU has no AVX-512 IFMA: the kernel-call counts are skipped");
        assert_eq!(calls, 0);
    }

    // One purchase alone: one more batch, one more kernel call.
    let mut last = [request_rng(8)];
    service.handle_batch_with_rngs(&[&envelopes[8]], &mut last, &mut |i, bytes| {
        replies[8 + i] = Some(bytes);
    });
    assert_eq!(signing(&registry), (9, if has_ifma() { 4 } else { 0 }, 2));

    // The same requests one at a time, each with its own request's
    // randomness: replays now, so the provider re-signs and re-seals
    // the very licenses it issued, bit for bit as the batch did.
    for (i, reply) in replies.iter().enumerate() {
        let envelope = ResponseEnvelope::from_bytes(reply.as_ref().unwrap()).unwrap();
        assert_eq!(envelope.correlation_id, 0x5EED + i as u64);
        let WireResponse::Purchase(batched) = envelope.body else {
            panic!("purchase {i} was refused: {:?}", envelope.body);
        };
        let single = sys
            .provider
            .handle_purchase(&requests[i], sys.epoch(), &mut request_rng(i))
            .unwrap();
        assert_eq!(
            p2drm::codec::to_bytes(&batched.license),
            p2drm::codec::to_bytes(&single),
            "purchase {i}"
        );
        single.verify(sys.provider.public_key()).unwrap();
    }
    assert_eq!(sys.provider.license_count(), BUYS);
    assert_eq!(sys.mint.deposited_total(), 100 * BUYS as u64);
}

/// A refused purchase in the middle of a batch answers its own error
/// and costs the others nothing: the rest are signed together.
#[test]
fn a_refused_purchase_does_not_touch_the_rest_of_its_batch() {
    let mut rng = test_rng(0xBA7D);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Batched", 100, b"three at once", &mut rng);
    let mut user = sys.register_user("buyer", &mut rng).unwrap();
    sys.fund(&user, 300);
    let mut frames = Vec::new();
    for i in 0..3u64 {
        sys.ensure_pseudonym(&mut user, &mut rng).unwrap();
        let account = user.account.clone();
        let coin = user
            .wallet
            .withdraw(&sys.mint, &account, 100, &mut rng)
            .unwrap();
        user.wallet.take(100);
        let mut req = PurchaseRequest {
            content_id: cid,
            pseudonym_cert: user.current_pseudonym().unwrap().clone(),
            coin,
            attribute_cert: None,
        };
        user.note_pseudonym_use();
        if i == 1 {
            req.content_id = ContentId::from_label("never published");
        }
        let envelope = RequestEnvelope {
            correlation_id: 1 + i,
            body: WireRequest::Purchase(req),
        };
        frames.push(envelope.to_bytes());
    }
    let registry = Arc::new(Registry::new());
    let service = sys.wire_service_with_registry(2, registry.clone());
    let requests: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let mut bodies = Vec::new();
    service.handle_batch(&requests, &mut |i, bytes| {
        bodies.push((i, ResponseEnvelope::from_bytes(&bytes).unwrap().body));
    });
    bodies.sort_by_key(|(i, _)| *i);
    assert!(matches!(bodies[0].1, WireResponse::Purchase(_)));
    match &bodies[1].1 {
        WireResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::UnknownContent),
        other => panic!("unknown content was sold: {other:?}"),
    }
    assert!(matches!(bodies[2].1, WireResponse::Purchase(_)));
    let (signatures, _, batches) = signing(&registry);
    assert_eq!((signatures, batches), (2, 1));
    assert_eq!(sys.mint.deposited_total(), 200, "the refusal paid nothing");
}
