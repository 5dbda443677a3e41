//! Purchases that reach the provider together are checked and signed
//! together: the wire service's batch entry point runs every coin check
//! and KEM encapsulation of a batch as one `public_batch` — eight
//! RSA-1024 purchases are 16 public lanes of the vertical IFMA kernel,
//! two calls — and signs every license with one `sign_batch`, whose
//! CRT exponentiations share the kernel's lanes — eight licenses are 24
//! lanes, three kernel calls, where one license alone takes one call.
//! The licenses are exactly the ones one-at-a-time purchases give; a
//! forged coin is refused alone, and a key whose public exponent is not
//! 65537 never reaches the provider. A transfer in the same batch is
//! sealed and signed with the purchases.

use p2drm::bignum::rng::random_bits;
use p2drm::bignum::UBig;
use p2drm::codec::Writer;
use p2drm::core::protocol::messages::{transfer_proof_bytes, PurchaseRequest, TransferRequest};
use p2drm::core::service::{RequestEnvelope, ResponseEnvelope, WireRequest, WireResponse};
use p2drm::crypto::rsa::RsaSignature;
use p2drm::obs::Registry;
use p2drm::payment::PaymentError;
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

/// `(public_key_ops, public_kernel_calls)` off the provider's metric
/// source.
fn public_ops(registry: &Registry) -> (u64, u64) {
    let snapshot = registry.snapshot();
    let counter = |name| snapshot.counter(name).expect("provider metric");
    (counter("public_key_ops"), counter("public_kernel_calls"))
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
    let requests = purchase_requests(&sys, &mut user, cid, BUYS, &mut rng);
    let envelopes: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| frame(req, 0x5EED + i as u64))
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
    let (ops, public_calls) = public_ops(&registry);
    assert_eq!(ops, 16, "8 coin checks + 8 KEM encapsulations");
    if has_ifma() {
        assert_eq!(calls, 3, "8 signatures × 3 primes = 24 lanes = 3 calls");
        assert_eq!(public_calls, 2, "16 public lanes = 2 calls");
    } else {
        eprintln!("this CPU has no AVX-512 IFMA: the kernel-call counts are skipped");
        assert_eq!((calls, public_calls), (0, 0));
    }

    // One purchase alone: one more batch, one more kernel call for its
    // signature, and one for its coin check and KEM (two 1024-bit
    // lanes).
    let mut last = [request_rng(8)];
    service.handle_batch_with_rngs(&[&envelopes[8]], &mut last, &mut |i, bytes| {
        replies[8 + i] = Some(bytes);
    });
    assert_eq!(signing(&registry), (9, if has_ifma() { 4 } else { 0 }, 2));
    assert_eq!(public_ops(&registry), (18, if has_ifma() { 3 } else { 0 }));

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
    // A replay seals again and checks no coin: one 1024-bit public
    // operation, a kernel call of one lane.
    let replays = BUYS as u64;
    let calls = if has_ifma() { 3 + replays } else { 0 };
    assert_eq!(public_ops(&registry), (18 + replays, calls));
}

/// `count` purchase requests of `cid` by `user`, each under a fresh
/// pseudonym and paid with a fresh coin.
fn purchase_requests(
    sys: &System,
    user: &mut UserAgent,
    cid: ContentId,
    count: usize,
    rng: &mut impl rand::RngCore,
) -> Vec<PurchaseRequest> {
    (0..count)
        .map(|_| {
            sys.ensure_pseudonym(user, rng).unwrap();
            let account = user.account.clone();
            let coin = user.wallet.withdraw(&sys.mint, &account, 100, rng).unwrap();
            user.wallet.take(100);
            let req = PurchaseRequest {
                content_id: cid,
                pseudonym_cert: user.current_pseudonym().unwrap().clone(),
                coin,
                attribute_cert: None,
            };
            user.note_pseudonym_use();
            req
        })
        .collect()
}

/// The wire frame of purchase request `req`.
fn frame(req: &PurchaseRequest, correlation_id: u64) -> Vec<u8> {
    RequestEnvelope {
        correlation_id,
        body: WireRequest::Purchase(req.clone()),
    }
    .to_bytes()
}

/// A coin whose signature is not the mint's, in the middle of eight
/// RSA-1024 purchases, is refused with `BadCoin` and nothing else: it
/// is not deposited, its lanes still share the batch's two public
/// kernel calls, and the other seven are deposited, signed in one
/// batch and given the licenses one-at-a-time purchases give.
#[test]
fn a_forged_coin_in_a_batch_of_eight_is_refused_alone() {
    const FORGED: usize = 3;
    let mut rng = test_rng(0xBA7E);
    let config = SystemConfig {
        key_bits: 1024,
        ..SystemConfig::fast_test()
    };
    let sys = System::bootstrap(config, &mut rng);
    let cid = sys.publish_content("Batched", 100, b"seven of eight", &mut rng);
    let mut user = sys.register_user("buyer", &mut rng).unwrap();
    sys.fund(&user, 800);
    let mut requests = purchase_requests(&sys, &mut user, cid, 8, &mut rng);
    let forged = &mut requests[FORGED].coin.signature;
    *forged = RsaSignature::from_ubig(forged.as_ubig() + &UBig::one());
    let frames: Vec<Vec<u8>> = (0..8).map(|i| frame(&requests[i], i as u64)).collect();
    let frames: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let request_rng = |i: usize| StdRng::seed_from_u64(0xC0DE + i as u64);

    let registry = Arc::new(Registry::new());
    let service = sys.wire_service_with_registry(1, registry.clone());
    let mut rngs: Vec<StdRng> = (0..8).map(request_rng).collect();
    let mut replies = vec![None; 8];
    service.handle_batch_with_rngs(&frames, &mut rngs, &mut |i, bytes| {
        replies[i] = Some(ResponseEnvelope::from_bytes(&bytes).unwrap().body);
    });
    assert_eq!(
        sys.mint.deposited_total(),
        700,
        "the forged coin paid nothing"
    );
    assert_eq!(sys.mint.spent_count(), 7);
    assert_eq!(sys.provider.license_count(), 7);
    let (signatures, _, batches) = signing(&registry);
    assert_eq!((signatures, batches), (7, 1));
    let calls = if has_ifma() { 2 } else { 0 };
    assert_eq!(public_ops(&registry), (16, calls));
    for (i, reply) in replies.into_iter().enumerate() {
        match reply.expect("one reply per request") {
            WireResponse::Error(e) => {
                assert_eq!(i, FORGED, "purchase {i} was refused: {e:?}");
                assert_eq!(e.code, ApiErrorCode::Payment);
            }
            WireResponse::Purchase(batched) => {
                assert_ne!(i, FORGED, "the forged coin bought a license");
                let single = sys
                    .provider
                    .handle_purchase(&requests[i], sys.epoch(), &mut request_rng(i))
                    .unwrap();
                assert_eq!(
                    p2drm::codec::to_bytes(&batched.license),
                    p2drm::codec::to_bytes(&single),
                    "purchase {i}"
                );
            }
            other => panic!("purchase {i}: {other:?}"),
        }
    }
    let alone =
        sys.provider
            .handle_purchase(&requests[FORGED], sys.epoch(), &mut request_rng(FORGED));
    assert!(matches!(
        alone,
        Err(CoreError::Payment(PaymentError::BadCoin))
    ));
    assert_eq!(sys.mint.deposited_total(), 700);
}

/// A pseudonym key whose public exponent is not 65537 — 1, 3 or a
/// 1024-bit value — does not decode, so a purchase carrying one is
/// refused as malformed before any check and costs its coin nothing:
/// the same request with the key as issued then buys the license.
#[test]
fn a_pseudonym_key_with_another_exponent_is_refused_without_a_deposit() {
    let mut rng = test_rng(0xBA7F);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Exponent", 100, b"e = 65537 only", &mut rng);
    let mut user = sys.register_user("buyer", &mut rng).unwrap();
    sys.fund(&user, 100);
    let req = purchase_requests(&sys, &mut user, cid, 1, &mut rng).remove(0);
    let key = &req.pseudonym_cert.body.pseudonym_key;
    let honest = frame(&req, 7);
    let key_bytes = p2drm::codec::to_bytes(key);
    let at = honest
        .windows(key_bytes.len())
        .position(|w| w == key_bytes)
        .expect("the key's encoding is in the frame");
    // The frame with the key's exponent replaced by `e`.
    let with_exponent = |e: &UBig| {
        let mut w = Writer::new();
        w.put_bytes(&key.modulus().to_bytes_be());
        w.put_bytes(&e.to_bytes_be());
        let mut bytes = honest[..at].to_vec();
        bytes.extend_from_slice(&w.into_bytes());
        bytes.extend_from_slice(&honest[at + key_bytes.len()..]);
        bytes
    };
    assert_eq!(with_exponent(&UBig::from_u64(65537)), honest);
    let wide = random_bits(&mut rng, 1023).add(&UBig::one().shl(1023));
    let service = sys.wire_service(1);
    for e in [UBig::one(), UBig::from_u64(3), wide] {
        let bytes = with_exponent(&e);
        assert!(RequestEnvelope::from_bytes(&bytes).is_err(), "e = {e}");
        let mut body = None;
        service.handle_batch(&[&bytes], &mut |_, reply| {
            body = Some(ResponseEnvelope::from_bytes(&reply).unwrap().body);
        });
        match body {
            Some(WireResponse::Error(err)) => {
                assert_eq!(err.code, ApiErrorCode::MalformedRequest, "e = {e}")
            }
            other => panic!("e = {e}: {other:?}"),
        }
    }
    assert_eq!(sys.mint.deposited_total(), 0);
    assert_eq!(sys.provider.license_count(), 0);
    let mut body = None;
    service.handle_batch(&[&honest], &mut |_, reply| {
        body = Some(ResponseEnvelope::from_bytes(&reply).unwrap().body);
    });
    assert!(matches!(body, Some(WireResponse::Purchase(_))), "{body:?}");
    assert_eq!(sys.mint.deposited_total(), 100);
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
    let mut requests = purchase_requests(&sys, &mut user, cid, 3, &mut rng);
    requests[1].content_id = ContentId::from_label("never published");
    let frames: Vec<Vec<u8>> = (0..3).map(|i| frame(&requests[i], 1 + i as u64)).collect();
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

/// A transfer that arrives with purchases joins their batch: its KEM is
/// a lane of the batch's `public_batch`, its license is signed by the
/// same `sign_batch` — one batch of N + 1 — and it is the license
/// `handle_transfer` gives alone with the same randomness.
#[test]
fn a_transfer_joins_the_purchases_batch() {
    const BUYS: usize = 4;
    const TRANSFER: usize = 2;
    let mut rng = test_rng(0xBA80);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Batched", 100, b"bought and passed on", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    let mut buyer = sys.register_user("buyer", &mut rng).unwrap();
    sys.fund(&alice, 100);
    sys.fund(&buyer, 100 * BUYS as u64);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    let recipient_cert = bob.current_pseudonym().unwrap().clone();
    let proof = alice
        .card
        .sign_with_pseudonym(
            &alice.licenses()[0].pseudonym,
            &transfer_proof_bytes(&license.id(), &recipient_cert.pseudonym_id()),
        )
        .unwrap();
    let transfer = TransferRequest {
        license,
        recipient_cert,
        proof,
    };
    let mut envelopes: Vec<Vec<u8>> = purchase_requests(&sys, &mut buyer, cid, BUYS, &mut rng)
        .iter()
        .enumerate()
        .map(|(i, req)| frame(req, i as u64))
        .collect();
    let transfer_frame = RequestEnvelope {
        correlation_id: 0x7F,
        body: WireRequest::Transfer(transfer.clone()),
    };
    envelopes.insert(TRANSFER, transfer_frame.to_bytes());
    let frames: Vec<&[u8]> = envelopes.iter().map(Vec::as_slice).collect();
    let request_rng = |i: usize| StdRng::seed_from_u64(0x7EA + i as u64);

    let registry = Arc::new(Registry::new());
    let service = sys.wire_service_with_registry(1, registry.clone());
    let (signatures, _, batches) = signing(&registry);
    let (ops, _) = public_ops(&registry);
    let mut rngs: Vec<StdRng> = (0..=BUYS).map(request_rng).collect();
    let mut replies = vec![None; BUYS + 1];
    service.handle_batch_with_rngs(&frames, &mut rngs, &mut |i, bytes| {
        replies[i] = Some(ResponseEnvelope::from_bytes(&bytes).unwrap().body);
    });
    let (signed, _, batched) = signing(&registry);
    assert_eq!(
        (signed - signatures, batched - batches),
        (BUYS as u64 + 1, 1),
        "one batch of every license"
    );
    let snapshot = registry.snapshot();
    let largest = snapshot.histogram("sign_batch_size").unwrap().max_ns;
    assert_eq!(largest, BUYS as u64 + 1);
    assert_eq!(
        public_ops(&registry).0 - ops,
        2 * BUYS as u64 + 1,
        "a coin check and a KEM per purchase, the transfer's KEM"
    );

    for (i, reply) in replies.into_iter().enumerate() {
        match reply.expect("one reply per request") {
            WireResponse::Transfer(moved) => {
                assert_eq!(i, TRANSFER);
                let alone = sys
                    .provider
                    .handle_transfer(&transfer, sys.epoch(), &mut request_rng(i))
                    .unwrap();
                assert_eq!(
                    p2drm::codec::to_bytes(&moved.license),
                    p2drm::codec::to_bytes(&alone)
                );
                alone.verify(sys.provider.public_key()).unwrap();
            }
            WireResponse::Purchase(_) => assert_ne!(i, TRANSFER),
            other => panic!("request {i}: {other:?}"),
        }
    }
    assert_eq!(sys.provider.license_count(), BUYS + 2);
    assert_eq!(
        sys.provider.license_status(&transfer.license.id()).unwrap(),
        p2drm::core::protocol::messages::LicenseStatus::Transferred
    );
}
