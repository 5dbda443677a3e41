//! Adversarial robustness of the byte-level service: truncated,
//! bit-flipped, wrong-version and unknown-op requests must all come back
//! as well-formed error responses — `ProviderService::handle` never
//! panics, and a fuzz barrage leaves the provider fully serviceable (no
//! poisoned shards).

use p2drm::core::protocol::messages::{
    AttributeIssueRequest, CatalogRequest, CrlSyncRequest, DownloadRequest, LicenseStatusRequest,
    PseudonymIssueRequest, PurchaseRequest, TransferRequest,
};
use p2drm::core::service::{
    correlation_hint, ApiErrorCode, ProviderService, RequestEnvelope, ResponseEnvelope,
    WireRequest, WireResponse, WIRE_VERSION,
};
use p2drm::core::system::{System, SystemConfig};
use p2drm::crypto::rng::test_rng;
use p2drm::sim::adversary::corruption;

/// A bootstrapped world plus one valid envelope per wire op.
struct Fuzzbed {
    sys: System,
    envelopes: Vec<(&'static str, Vec<u8>)>,
    /// A spare ready-to-submit purchase proving the service still works
    /// after the barrage.
    spare_purchase: PurchaseRequest,
}

fn fuzzbed(seed: u64) -> Fuzzbed {
    let mut rng = test_rng(seed);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("fuzz-item", 100, &vec![7u8; 512], &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    let mut bob = sys.register_user("bob", &mut rng).expect("fresh user");
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).expect("purchase");
    sys.ensure_pseudonym(&mut alice, &mut rng)
        .expect("pseudonym");
    sys.ensure_pseudonym(&mut bob, &mut rng).expect("pseudonym");

    let cert = alice.current_pseudonym().expect("ensured above").clone();
    let account = alice.account.clone();
    let mut coin = |rng: &mut _| {
        alice
            .wallet
            .withdraw(&sys.mint, &account, 100, rng)
            .expect("funded withdrawal")
    };
    let purchase = PurchaseRequest {
        content_id: cid,
        pseudonym_cert: cert.clone(),
        coin: coin(&mut rng),
        attribute_cert: None,
    };
    let spare_purchase = PurchaseRequest {
        coin: coin(&mut rng),
        ..purchase.clone()
    };
    let transfer = TransferRequest {
        license: license.clone(),
        recipient_cert: bob.current_pseudonym().expect("ensured").clone(),
        proof: license.signature.clone(), // structurally valid, semantically bogus
    };
    let pseudonym_issue = PseudonymIssueRequest {
        card_id: alice.card.card_id(),
        card_cert: alice.card.master_cert().clone(),
        blinded: p2drm::bignum::UBig::from_u64(0xB11D),
        auth_sig: license.signature.clone(),
    };
    let attribute_issue = AttributeIssueRequest {
        card_id: alice.card.card_id(),
        card_cert: alice.card.master_cert().clone(),
        attribute: "adult".into(),
        blinded: p2drm::bignum::UBig::from_u64(0xA77),
        auth_sig: license.signature.clone(),
    };

    let bodies = vec![
        ("purchase", WireRequest::Purchase(purchase)),
        (
            "download",
            WireRequest::Download(DownloadRequest { content_id: cid }),
        ),
        ("transfer", WireRequest::Transfer(transfer)),
        (
            "pseudonym-issue",
            WireRequest::PseudonymIssue(pseudonym_issue),
        ),
        (
            "attribute-issue",
            WireRequest::AttributeIssue(attribute_issue),
        ),
        (
            "crl-sync",
            WireRequest::CrlSync(CrlSyncRequest {
                license_seq: 0,
                pseudonym_seq: 0,
            }),
        ),
        (
            "catalog",
            WireRequest::Catalog(CatalogRequest {
                content_id: Some(cid),
            }),
        ),
        (
            "license-status",
            WireRequest::LicenseStatus(LicenseStatusRequest {
                license_id: license.id(),
            }),
        ),
    ];
    let envelopes = bodies
        .into_iter()
        .enumerate()
        .map(|(i, (label, body))| {
            (
                label,
                RequestEnvelope {
                    correlation_id: 0xF077 + i as u64,
                    body,
                }
                .to_bytes(),
            )
        })
        .collect();
    Fuzzbed {
        sys,
        envelopes,
        spare_purchase,
    }
}

/// The single robustness invariant: whatever bytes go in, a well-formed
/// response envelope comes out.
fn assert_well_formed(service: &ProviderService, input: &[u8], what: &str) -> WireResponse {
    let reply = service.handle(input);
    let envelope = ResponseEnvelope::from_bytes(&reply)
        .unwrap_or_else(|e| panic!("{what}: reply not a well-formed envelope: {e}"));
    envelope.body
}

#[test]
fn truncations_of_every_op_yield_error_responses() {
    let bed = fuzzbed(0xF0_01);
    let service = bed.sys.wire_service(0x71);
    for (label, bytes) in &bed.envelopes {
        for truncated in corruption::truncations(bytes) {
            match assert_well_formed(&service, &truncated, label) {
                WireResponse::Error(_) => {}
                other => panic!(
                    "{label}: truncation to {} bytes produced a non-error {} response",
                    truncated.len(),
                    other.label()
                ),
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_and_always_answer() {
    let bed = fuzzbed(0xF0_02);
    let service = bed.sys.wire_service(0x72);
    for (label, bytes) in &bed.envelopes {
        for flipped in corruption::bit_flips(bytes, 128) {
            // A flip may land anywhere — payload padding that still
            // parses (benign), a signature (semantic error), a length
            // prefix (decode error). All must produce *some* well-formed
            // response.
            assert_well_formed(&service, &flipped, label);
        }
    }
    // No poisoned shards: after the barrage the same service completes a
    // real purchase end-to-end.
    let envelope = RequestEnvelope {
        correlation_id: 0xAF7E,
        body: WireRequest::Purchase(bed.spare_purchase.clone()),
    };
    match assert_well_formed(&service, &envelope.to_bytes(), "post-fuzz purchase") {
        WireResponse::Purchase(_) => {}
        other => panic!(
            "service unhealthy after fuzzing: {}",
            match other {
                WireResponse::Error(e) => e.to_string(),
                other => other.label().to_string(),
            }
        ),
    }
}

#[test]
fn wrong_version_is_rejected_with_stable_code_and_echoed_correlation() {
    let bed = fuzzbed(0xF0_03);
    let service = bed.sys.wire_service(0x73);
    for (label, bytes) in &bed.envelopes {
        for version in [0u8, 2, 7, 0xFF] {
            let mutant = corruption::with_version(bytes, version);
            let reply = service.handle(&mutant);
            let envelope =
                ResponseEnvelope::from_bytes(&reply).expect("well-formed version rejection");
            assert_eq!(
                envelope.correlation_id,
                correlation_hint(bytes),
                "{label}: correlation id must be echoed even for rejected versions"
            );
            match envelope.body {
                WireResponse::Error(e) => {
                    assert_eq!(e.code, ApiErrorCode::UnsupportedVersion, "{label}");
                    assert_eq!(e.code.code(), 2);
                }
                other => panic!("{label}: version {version} accepted as {}", other.label()),
            }
        }
    }
}

#[test]
fn unknown_opcodes_are_rejected() {
    let bed = fuzzbed(0xF0_04);
    let service = bed.sys.wire_service(0x74);
    let (_, base) = &bed.envelopes[0];
    for opcode in [10u8, 42, 0xFF, 0 /* Error is not a request */] {
        let mut mutant = base.clone();
        mutant[1] = opcode;
        match assert_well_formed(&service, &mutant, "opcode-mutant") {
            WireResponse::Error(e) => {
                // A mutated opcode either fails the op table or (when the
                // payload happens to decode under another op — impossible
                // here, the payloads differ) a semantic check.
                assert_eq!(e.code, ApiErrorCode::UnknownOpcode, "opcode {opcode}");
            }
            other => panic!("opcode {opcode} accepted as {}", other.label()),
        }
    }
}

#[test]
fn empty_and_garbage_inputs_answer_cleanly() {
    let bed = fuzzbed(0xF0_05);
    let service = bed.sys.wire_service(0x75);
    let garbage: Vec<Vec<u8>> = vec![
        vec![],
        vec![WIRE_VERSION],
        vec![WIRE_VERSION, 1],
        vec![0xFF; 9],
        vec![0x00; 64],
        (0..=255u8).collect(),
    ];
    for (i, junk) in garbage.iter().enumerate() {
        match assert_well_formed(&service, junk, "garbage") {
            WireResponse::Error(_) => {}
            other => panic!("garbage #{i} accepted as {}", other.label()),
        }
    }
}

/// Coin conservation under transport chaos: whatever seeded fault
/// schedule the wire suffers — dropped requests, dropped/torn/duplicated
/// replies, resets, busy storms — the park/reconcile/deposit cycle never
/// loses a coin and never double-spends one. Every withdrawn coin ends
/// the run as exactly one of {spendable in the wallet, deposited at the
/// mint}, the parked pool drains once reconciled, and every held license
/// has a distinct id.
mod coin_conservation {
    use super::*;
    use p2drm::core::retry::{CircuitBreaker, RetryBudget, RetryPolicy};
    use p2drm::core::service::{Loopback, Recovery, WireClient};
    use p2drm::core::ContentId;
    use p2drm::faults::{transport_sites, FaultPlan, FaultTransport, Schedule};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::Duration;

    struct Bed {
        sys: System,
        cid: ContentId,
    }

    /// One bootstrapped world for every case; each case registers its
    /// own user, so mint deltas within a case are that user's alone.
    fn bed() -> &'static Bed {
        static BED: OnceLock<Bed> = OnceLock::new();
        BED.get_or_init(|| {
            let mut rng = test_rng(0xC0_115E);
            let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
            let cid = sys.publish_content("conserved-item", 100, &vec![3u8; 256], &mut rng);
            Bed { sys, cid }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn faulty_purchases_never_lose_or_double_spend_coins(
            seed in any::<u64>(),
            rate_pct in 0u32..26,
        ) {
            static CASE: AtomicU64 = AtomicU64::new(0);
            let bed = bed();
            let sys = &bed.sys;
            let mint = sys.mint.clone();
            let ops = 4usize;

            let mut rng = test_rng(seed);
            let name = format!("cc-{}", CASE.fetch_add(1, Ordering::Relaxed));
            let mut user = sys.register_user(&name, &mut rng).expect("fresh user");
            sys.fund(&user, 100 * ops as u64 + 100);
            let withdrawn_before = mint.withdrawal_count();
            let spent_before = mint.spent_count();

            let p = f64::from(rate_pct) / 100.0;
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .with(transport_sites::RESET_MID_WRITE, Schedule::Probability(p))
                    .with(transport_sites::DROP_REQUEST, Schedule::Probability(p))
                    .with(transport_sites::BUSY_STORM, Schedule::Probability(p))
                    .with(transport_sites::DELAY, Schedule::Probability(p))
                    .with(transport_sites::DROP_REPLY, Schedule::Probability(p))
                    .with(transport_sites::TORN_FRAME, Schedule::Probability(p))
                    .with(transport_sites::DUPLICATE_REPLY, Schedule::Probability(p)),
            );
            let service = sys.wire_service(seed);
            let transport = FaultTransport::new(Loopback::new(&service), plan);
            let mut client = WireClient::new(transport).with_recovery(Recovery {
                policy: RetryPolicy {
                    base_backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(1),
                    max_attempts: 3,
                    op_deadline: None,
                    jitter_seed: seed,
                },
                budget: RetryBudget::new(64, 1_000),
                breaker: CircuitBreaker::new(u32::MAX, Duration::from_millis(1)),
                metrics: None,
            });
            client.set_epoch(sys.epoch());

            let mut licenses = Vec::new();
            for op in 0..ops {
                sys.ensure_pseudonym(&mut user, &mut rng)
                    .expect("RA is not behind the faulty wire");
                if let Ok(license) = client.purchase(&mut user, &mint, bed.cid, &mut rng) {
                    licenses.push(license.id());
                }
                // Interleave a mid-run reconcile with the parked pool
                // possibly non-empty, as a recovering client would.
                if op == ops / 2 {
                    user.wallet.reconcile_pending(&mint);
                }
            }
            user.wallet.reconcile_pending(&mint);

            let withdrawn = mint.withdrawal_count() - withdrawn_before;
            let deposited = mint.spent_count() - spent_before;
            prop_assert!(
                user.wallet.pending().is_empty(),
                "parked pool must drain after reconciliation"
            );
            prop_assert_eq!(
                withdrawn,
                user.wallet.len() + deposited,
                "coin lost or double-counted: {} withdrawn, {} spendable, {} deposited",
                withdrawn, user.wallet.len(), deposited
            );
            let distinct: BTreeSet<_> = licenses.iter().copied().collect();
            prop_assert_eq!(distinct.len(), licenses.len(), "duplicate license ids");
            prop_assert_eq!(user.licenses().len(), licenses.len());
            prop_assert!(deposited >= licenses.len(), "every license was paid for");
        }
    }
}
