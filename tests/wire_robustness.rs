//! Adversarial robustness of the byte-level service: truncated,
//! bit-flipped, wrong-version and unknown-op requests must all come back
//! as well-formed error responses — `ProviderService::handle` never
//! panics, and a fuzz barrage leaves the provider fully serviceable (no
//! poisoned shards).

use p2drm::core::protocol::messages::{
    AttributeIssueRequest, CatalogRequest, CrlSyncRequest, DownloadRequest, LicenseStatusRequest,
    MetricsDumpRequest, PseudonymIssueRequest, PurchaseRequest, TransferRequest,
};
use p2drm::core::service::{
    correlation_hint, ApiErrorCode, ProviderService, RequestEnvelope, ResponseEnvelope,
    WireRequest, WireResponse, WIRE_VERSION,
};
use p2drm::core::system::{System, SystemConfig};
use p2drm::crypto::rng::test_rng;

/// Byte-level corruptions an adversarial (or faulty) peer might put on
/// the wire; `ProviderService::handle` must answer every one with a
/// well-formed error response — no panics, no wedged shards.
mod corruption {
    /// Every strict prefix of `bytes` (all truncation points, including
    /// the empty message).
    pub fn truncations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..bytes.len()).map(move |n| bytes[..n].to_vec())
    }

    /// Deterministic single-bit-flip sweep: every bit of every byte for
    /// short messages, a stride-sampled subset (still touching the
    /// header and the tail) for long ones. At most ~`cap` variants.
    pub fn bit_flips(bytes: &[u8], cap: usize) -> Vec<Vec<u8>> {
        let total_bits = bytes.len() * 8;
        let stride = (total_bits / cap.max(1)).max(1);
        let flip = |b: usize| {
            let mut out = bytes.to_vec();
            out[b / 8] ^= 1 << (b % 8);
            out
        };
        (0..total_bits).step_by(stride).map(flip).collect()
    }

    /// `bytes` with the envelope version byte replaced.
    pub fn with_version(bytes: &[u8], version: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if let Some(v) = out.first_mut() {
            *v = version;
        }
        out
    }
}

#[test]
fn corruption_helpers_cover_the_message() {
    let msg = [0xAAu8; 16];
    assert_eq!(corruption::truncations(&msg).count(), 16);
    let flips = corruption::bit_flips(&msg, 1000);
    assert_eq!(flips.len(), 128, "short messages get every bit");
    for f in &flips {
        assert_eq!(f.len(), msg.len());
        assert_ne!(f.as_slice(), msg.as_slice());
    }
    let capped = corruption::bit_flips(&msg, 32);
    assert!(capped.len() <= 43, "stride sampling bounds the sweep");
    assert_eq!(corruption::with_version(&msg, 9)[0], 9);
}

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
        WireRequest::Purchase(purchase),
        WireRequest::Download(DownloadRequest { content_id: cid }),
        WireRequest::Transfer(transfer),
        WireRequest::PseudonymIssue(pseudonym_issue),
        WireRequest::AttributeIssue(attribute_issue),
        WireRequest::CrlSync(CrlSyncRequest {
            license_seq: 0,
            pseudonym_seq: 0,
        }),
        WireRequest::Catalog(CatalogRequest {
            content_id: Some(cid),
        }),
        WireRequest::LicenseStatus(LicenseStatusRequest {
            license_id: license.id(),
        }),
        WireRequest::MetricsDump(MetricsDumpRequest {}),
    ];
    let envelopes = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            (
                body.opcode().label(),
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
