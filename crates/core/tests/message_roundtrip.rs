//! Round-trip property tests for every protocol message: the canonical
//! encoding decodes back to an equal value, and the strict
//! `p2drm_codec::from_bytes` rejects any input with trailing bytes —
//! which is what makes the wire envelopes in `p2drm_core::service`
//! dispatchable without ambiguity.
//!
//! Heavyweight components (certificates, licenses, signed CRLs) come
//! from one shared fixture; each property case varies the cheap fields
//! (ids, nonces, payload bytes, epochs) around them.

use p2drm_codec::{CodecError, Decode, Encode};
use p2drm_core::entities::smartcard::CardBudget;
use p2drm_core::ids::{CardId, ContentId, LicenseId};
use p2drm_core::license::License;
use p2drm_core::protocol::messages::*;
use p2drm_core::service::{
    ApiError, ApiErrorCode, RequestEnvelope, ResponseEnvelope, WireRequest, WireResponse,
};
use p2drm_core::system::{System, SystemConfig};
use p2drm_core::{Party, Transcript};
use p2drm_crypto::rng::test_rng;
use p2drm_crypto::rsa::RsaSignature;
use p2drm_pki::cert::{AttributeCertificate, Certificate, PseudonymCertificate};
use p2drm_pki::crl::SignedCrl;
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::OnceLock;

/// Everything heavyweight the messages embed, built once.
struct Fixture {
    card_cert: Certificate,
    pseudonym_cert: PseudonymCertificate,
    attribute_cert: AttributeCertificate,
    coin: p2drm_payment::Coin,
    license: License,
    signature: RsaSignature,
    license_crl: SignedCrl,
    pseudonym_crl: SignedCrl,
    meta: p2drm_core::content::ContentMeta,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let mut rng = test_rng(0x207E57);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("fixture-item", 100, b"fixture payload", &mut rng);
        let mut alice = sys
            .register_user_with_budget("alice", CardBudget { max_pseudonyms: 8 }, &mut rng)
            .expect("fresh system registers alice");
        sys.fund(&alice, 1_000);
        sys.grant_attribute(&alice, "adult", &mut rng)
            .expect("attribute grant on fresh RA");
        sys.ensure_attribute(&mut alice, "adult", &mut rng)
            .expect("attribute issuance for entitled user");
        let license = sys
            .purchase(&mut alice, cid, &mut rng)
            .expect("funded purchase");
        sys.provider
            .revoke_license(&license.id())
            .expect("revocation persists on mem backend");
        let pseudonym_cert = alice
            .pseudonym_certs()
            .last()
            .expect("issued above")
            .clone();
        // The purchase may have rotated the pseudonym; any held
        // credential works for encoding purposes.
        let attribute_cert = alice
            .pseudonym_certs()
            .iter()
            .find_map(|c| alice.attribute_cert_for(&c.pseudonym_id(), "adult"))
            .expect("attribute credential issued above")
            .clone();
        let account = alice.account.clone();
        let coin = alice
            .wallet
            .withdraw(&sys.mint, &account, 100, &mut rng)
            .expect("funded withdrawal");
        let signature = license.signature.clone();
        Fixture {
            card_cert: alice.card.master_cert().clone(),
            pseudonym_cert,
            attribute_cert,
            coin,
            license: license.clone(),
            signature,
            license_crl: sys.provider.signed_license_crl(77),
            pseudonym_crl: sys.provider.signed_pseudonym_crl(77),
            meta: sys
                .provider
                .content_meta(&cid)
                .expect("published item is listed"),
        }
    })
}

/// decode(encode(m)) == m, and any trailing byte is rejected.
fn check_roundtrip<T: Encode + Decode + PartialEq + Debug>(m: &T) -> Result<(), String> {
    let bytes = p2drm_codec::to_bytes(m);
    let back: T =
        p2drm_codec::from_bytes(&bytes).map_err(|e| format!("decode failed for {m:?}: {e}"))?;
    if &back != m {
        return Err(format!("roundtrip changed value: {m:?} -> {back:?}"));
    }
    for extra in [0x00u8, 0x01, 0xFF] {
        let mut longer = bytes.clone();
        longer.push(extra);
        match p2drm_codec::from_bytes::<T>(&longer) {
            Err(CodecError::TrailingBytes(1)) => {}
            other => return Err(format!("trailing byte {extra:#x} not rejected: {other:?}")),
        }
    }
    Ok(())
}

fn id16(seed: u64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&seed.to_le_bytes());
    b[8..].copy_from_slice(&seed.rotate_left(29).to_le_bytes());
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pseudonym_issue_request_roundtrip(seed in any::<u64>()) {
        let fx = fixture();
        let m = PseudonymIssueRequest {
            card_id: CardId(id16(seed)),
            card_cert: fx.card_cert.clone(),
            blinded: p2drm_bignum::UBig::from_u64(seed | 1),
            auth_sig: fx.signature.clone(),
        };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn pseudonym_issue_response_roundtrip(seed in any::<u64>()) {
        let m = PseudonymIssueResponse { blind_sig: p2drm_bignum::UBig::from_u64(seed) };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn attribute_issue_request_roundtrip(seed in any::<u64>(), attr in "[a-z-]{1,24}") {
        let fx = fixture();
        let m = AttributeIssueRequest {
            card_id: CardId(id16(seed)),
            card_cert: fx.card_cert.clone(),
            attribute: attr,
            blinded: p2drm_bignum::UBig::from_u64(seed | 1),
            auth_sig: fx.signature.clone(),
        };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn attribute_issue_response_roundtrip(seed in any::<u64>()) {
        let m = AttributeIssueResponse { blind_sig: p2drm_bignum::UBig::from_u64(seed) };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn purchase_request_roundtrip(seed in any::<u64>(), with_attr in any::<bool>()) {
        let fx = fixture();
        let mut coin = fx.coin.clone();
        coin.serial = {
            let mut s = [0u8; 32];
            s[..16].copy_from_slice(&id16(seed));
            s
        };
        coin.denomination = seed | 1;
        let m = PurchaseRequest {
            content_id: ContentId(id16(seed)),
            pseudonym_cert: fx.pseudonym_cert.clone(),
            coin,
            attribute_cert: with_attr.then(|| fx.attribute_cert.clone()),
        };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn purchase_response_roundtrip(seed in any::<u64>()) {
        let fx = fixture();
        let mut license = fx.license.clone();
        license.body.license_id = LicenseId(id16(seed));
        let m = PurchaseResponse { license };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn download_request_roundtrip(seed in any::<u64>()) {
        let m = DownloadRequest { content_id: ContentId(id16(seed)) };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn download_response_roundtrip(nonce in any::<[u8; 12]>(), body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let m = DownloadResponse { nonce, ciphertext: body };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn transfer_request_roundtrip(seed in any::<u64>()) {
        let fx = fixture();
        let mut license = fx.license.clone();
        license.body.license_id = LicenseId(id16(seed));
        let m = TransferRequest {
            license,
            recipient_cert: fx.pseudonym_cert.clone(),
            proof: fx.signature.clone(),
        };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn transfer_response_roundtrip(seed in any::<u64>()) {
        let fx = fixture();
        let mut license = fx.license.clone();
        license.body.license_id = LicenseId(id16(seed));
        let m = TransferResponse { license };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn crl_sync_request_roundtrip(a in any::<u64>(), b in any::<u64>()) {
        let m = CrlSyncRequest { license_seq: a, pseudonym_seq: b };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn crl_sync_roundtrip(_seed in any::<u64>()) {
        let fx = fixture();
        let m = CrlSync {
            license_crl: fx.license_crl.clone(),
            pseudonym_crl: fx.pseudonym_crl.clone(),
        };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn catalog_request_roundtrip(seed in any::<u64>(), by_id in any::<bool>()) {
        let m = CatalogRequest { content_id: by_id.then(|| ContentId(id16(seed))) };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn license_status_request_roundtrip(seed in any::<u64>()) {
        let m = LicenseStatusRequest { license_id: LicenseId(id16(seed)) };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn license_status_response_roundtrip(variant in 0u8..4) {
        let fx = fixture();
        let status = match variant {
            0 => LicenseStatus::Unknown,
            1 => LicenseStatus::Active {
                holder: p2drm_pki::cert::KeyId::of_rsa(&fx.license.body.holder),
            },
            2 => LicenseStatus::Transferred,
            _ => LicenseStatus::Revoked,
        };
        let m = LicenseStatusResponse { status };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
    }

    #[test]
    fn catalog_response_roundtrip(seed in any::<u64>(), n in 0usize..4) {
        let fx = fixture();
        let items: Vec<_> = (0..n)
            .map(|i| {
                let mut meta = fx.meta.clone();
                meta.id = ContentId(id16(seed.wrapping_add(i as u64)));
                meta.price = seed.wrapping_mul(i as u64 + 1);
                meta
            })
            .collect();
        let m = CatalogResponse::new(items.clone());
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));

        // The same items served from a catalog's listing snapshot: the
        // reply round-trips too, and equals the owned reply over the
        // id-sorted items byte for byte.
        let mut catalog = p2drm_core::content::ContentCatalog::new();
        for meta in &items {
            catalog.restore(p2drm_core::content::PackagedContent {
                meta: meta.clone(),
                key: [0; 32],
                nonce: [0; 12],
                ciphertext: Vec::new(),
            });
        }
        let shared = CatalogResponse::listing(catalog.listing());
        prop_assert!(check_roundtrip(&shared).is_ok(), "{:?}", check_roundtrip(&shared));
        let mut sorted = items;
        sorted.sort_by_key(|m| m.id);
        let owned = CatalogResponse::new(sorted);
        prop_assert_eq!(p2drm_codec::to_bytes(&shared), p2drm_codec::to_bytes(&owned));
        prop_assert_eq!(shared, owned);
    }

    #[test]
    fn api_error_roundtrip(raw in any::<u16>(), detail in "[a-zA-Z0-9 _-]{0,48}", hint in any::<u32>()) {
        let m = ApiError { code: ApiErrorCode::from_code(raw), detail, retry_after_ms: hint };
        prop_assert!(check_roundtrip(&m).is_ok(), "{:?}", check_roundtrip(&m));
        // The numeric code itself survives the enum round trip, even for
        // codes this build does not know.
        prop_assert_eq!(ApiErrorCode::from_code(raw).code(), raw);
    }
}

/// Envelope framing round-trips for every request/response op, and the
/// envelope parser rejects trailing garbage like the payload decoders.
#[test]
fn envelopes_roundtrip_every_opcode() {
    let fx = fixture();
    let requests = vec![
        WireRequest::Purchase(PurchaseRequest {
            content_id: fx.meta.id,
            pseudonym_cert: fx.pseudonym_cert.clone(),
            coin: fx.coin.clone(),
            attribute_cert: Some(fx.attribute_cert.clone()),
        }),
        WireRequest::Download(DownloadRequest {
            content_id: fx.meta.id,
        }),
        WireRequest::Transfer(TransferRequest {
            license: fx.license.clone(),
            recipient_cert: fx.pseudonym_cert.clone(),
            proof: fx.signature.clone(),
        }),
        WireRequest::PseudonymIssue(PseudonymIssueRequest {
            card_id: CardId(id16(1)),
            card_cert: fx.card_cert.clone(),
            blinded: p2drm_bignum::UBig::from_u64(9),
            auth_sig: fx.signature.clone(),
        }),
        WireRequest::AttributeIssue(AttributeIssueRequest {
            card_id: CardId(id16(2)),
            card_cert: fx.card_cert.clone(),
            attribute: "adult".into(),
            blinded: p2drm_bignum::UBig::from_u64(11),
            auth_sig: fx.signature.clone(),
        }),
        WireRequest::CrlSync(CrlSyncRequest {
            license_seq: 3,
            pseudonym_seq: 4,
        }),
        WireRequest::Catalog(CatalogRequest {
            content_id: Some(fx.meta.id),
        }),
        WireRequest::LicenseStatus(LicenseStatusRequest {
            license_id: LicenseId(id16(5)),
        }),
    ];
    for (i, body) in requests.into_iter().enumerate() {
        let envelope = RequestEnvelope {
            correlation_id: 0xC0DE + i as u64,
            body,
        };
        let bytes = envelope.to_bytes();
        let back = RequestEnvelope::from_bytes(&bytes).expect("request envelope parses");
        assert_eq!(back, envelope);
        let mut longer = bytes;
        longer.push(0);
        assert!(
            RequestEnvelope::from_bytes(&longer).is_err(),
            "trailing byte accepted for request op {i}"
        );
    }

    let responses = vec![
        WireResponse::Purchase(PurchaseResponse {
            license: fx.license.clone(),
        }),
        WireResponse::Download(DownloadResponse {
            nonce: [3; 12],
            ciphertext: vec![1, 2, 3],
        }),
        WireResponse::Transfer(TransferResponse {
            license: fx.license.clone(),
        }),
        WireResponse::PseudonymIssue(PseudonymIssueResponse {
            blind_sig: p2drm_bignum::UBig::from_u64(13),
        }),
        WireResponse::AttributeIssue(AttributeIssueResponse {
            blind_sig: p2drm_bignum::UBig::from_u64(17),
        }),
        WireResponse::CrlSync(CrlSync {
            license_crl: fx.license_crl.clone(),
            pseudonym_crl: fx.pseudonym_crl.clone(),
        }),
        WireResponse::Catalog(CatalogResponse::new(vec![fx.meta.clone()])),
        WireResponse::LicenseStatus(LicenseStatusResponse {
            status: LicenseStatus::Transferred,
        }),
        WireResponse::Error(ApiError::new(ApiErrorCode::BadProof, "nope")),
    ];
    for (i, body) in responses.into_iter().enumerate() {
        let envelope = ResponseEnvelope {
            correlation_id: 0xFACE + i as u64,
            body,
        };
        let bytes = envelope.to_bytes();
        let back = ResponseEnvelope::from_bytes(&bytes).expect("response envelope parses");
        assert_eq!(back, envelope);
        let mut longer = bytes;
        longer.push(0xFF);
        assert!(
            ResponseEnvelope::from_bytes(&longer).is_err(),
            "trailing byte accepted for response op {i}"
        );
    }
}

/// Recorded transcript bytes are exactly the canonical encodings, so a
/// recorded purchase request decodes back into a dispatchable message.
#[test]
fn transcript_bytes_are_decodable_wire_bytes() {
    let mut rng = test_rng(0x7A_BE5);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("t", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    sys.fund(&alice, 500);
    let mut t = Transcript::new();
    sys.purchase_with_transcript(&mut alice, cid, &mut rng, &mut t)
        .expect("funded purchase");
    let recorded = t
        .entries()
        .iter()
        .find(|m| m.label == "purchase" && m.to == Party::Provider)
        .expect("purchase transcript records the request");
    let decoded: PurchaseRequest =
        p2drm_codec::from_bytes(&recorded.bytes).expect("transcript bytes decode");
    assert_eq!(decoded.content_id, cid);
}
