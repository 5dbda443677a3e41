//! Wire acceptance: flows driven through `WireClient` →
//! `ProviderService` **bytes** — a wire transfer obeys the unique-ID
//! rule, error codes are stable numbers, ambiguous outcomes park or
//! reconcile instead of losing value, pipelined replies settle out of
//! order, and the catalogue listing is served from its snapshot.

use p2drm::core::entities::provider::MemBackend;
use p2drm::core::protocol::messages::{attribute_auth_bytes, AttributeIssueRequest, LicenseStatus};
use p2drm::core::service::{
    ApiErrorCode, Loopback, OpCode, Transport, TransportError, WireClient, WireError, WireRequest,
    WireResponse,
};
use p2drm::core::system::{System, SystemConfig};
use p2drm::crypto::rng::test_rng;

/// A transport that delivers every request but "loses" the replies of
/// one op (typed `Broken` transport error) — the ambiguous-outcome
/// simulator: the server committed, the client never learned.
struct LoseRepliesOf<'s> {
    inner: Loopback<'s, MemBackend>,
    lost_op: OpCode,
}

impl Transport for LoseRepliesOf<'_> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        self.inner.submit(corr_id, request)
    }

    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        match self.inner.complete(deadline)? {
            Some((_, reply)) if reply.get(1) == Some(&self.lost_op.byte()) => Err(
                TransportError::Broken("reply lost in transit (simulated)".to_string()),
            ),
            other => Ok(other),
        }
    }
}

/// A transport that never even delivers requests of one op — the other
/// ambiguous outcome: the server saw nothing, but the client only
/// observes a broken connection and can't tell which side failed.
struct BlackholeOp<'s> {
    inner: Loopback<'s, MemBackend>,
    op: OpCode,
}

impl Transport for BlackholeOp<'_> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        if request.get(1) == Some(&self.op.byte()) {
            // `Broken`, not `Unreachable`: the client can't tell which
            // side of the wire swallowed it, so the outcome is ambiguous.
            Err(TransportError::Broken(
                "request swallowed by the network (simulated)".to_string(),
            ))
        } else {
            self.inner.submit(corr_id, request)
        }
    }

    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        self.inner.complete(deadline)
    }
}

#[test]
fn wire_double_redeem_rejected_with_stable_code() {
    let mut rng = test_rng(0x317E03);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    let mut bob = sys.register_user("bob", &mut rng).expect("fresh user");
    let mut carol = sys.register_user("carol", &mut rng).expect("fresh user");
    sys.fund(&alice, 500);
    let license = sys.purchase(&mut alice, cid, &mut rng).expect("purchase");
    sys.ensure_pseudonym(&mut bob, &mut rng).expect("pseudonym");
    sys.ensure_pseudonym(&mut carol, &mut rng)
        .expect("pseudonym");

    let service = sys.wire_service(0xD0D0);
    let mut client = WireClient::new(Loopback::new(&service));

    let lid = license.id();
    let saved = license.clone();
    let alice_pseudonym = alice.licenses()[0].pseudonym;
    client
        .transfer(&mut alice, &mut bob, lid, &mut rng)
        .expect("first wire transfer");

    // Alice "restores from backup" and replays the spent id over the
    // wire: the spent-ID store must reject it with the stable code.
    alice.add_license(saved, alice_pseudonym);
    let err = client
        .transfer(&mut alice, &mut carol, lid, &mut rng)
        .expect_err("double redeem must fail");
    match err {
        WireError::Api(e) => {
            assert_eq!(e.code, ApiErrorCode::AlreadyRedeemed);
            assert_eq!(e.code.code(), 51, "wire code is part of the contract");
        }
        other => panic!("expected Api error, got {other}"),
    }
    assert!(carol.licenses().is_empty());
}

#[test]
fn wire_attribute_flow_gates_rated_content() {
    let mut rng = test_rng(0x317E04);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let rated = sys.publish_rated_content("Rated", 100, b"18+", "adult", &mut rng);
    let mut minor = sys.register_user("minor", &mut rng).expect("fresh user");
    let mut adult = sys.register_user("adult", &mut rng).expect("fresh user");
    sys.fund(&minor, 500);
    sys.fund(&adult, 500);
    sys.grant_attribute(&adult, "adult", &mut rng).expect("kyc");

    let service = sys.wire_service(0xAD17);
    let mut client = WireClient::new(Loopback::new(&service));
    client.set_epoch(sys.epoch());

    // The minor holds a pseudonym but no credential: client-side refusal
    // (the request is never even sent without the credential).
    client
        .obtain_pseudonym(
            &mut minor,
            sys.ra.blind_public(),
            sys.ttp.escrow_key(),
            &mut rng,
        )
        .expect("pseudonym for minor");
    let err = client
        .purchase(&mut minor, &sys.mint, rated, &mut rng)
        .expect_err("no credential, no sale");
    assert!(matches!(err, WireError::Client(_)), "got {err}");

    // The adult obtains the credential over the wire and buys.
    client
        .obtain_pseudonym(
            &mut adult,
            sys.ra.blind_public(),
            sys.ttp.escrow_key(),
            &mut rng,
        )
        .expect("pseudonym for adult");
    let attr_key = sys
        .ra
        .attribute_public("adult")
        .expect("key exists after grant");
    client
        .obtain_attribute(&mut adult, "adult", &attr_key, &mut rng)
        .expect("wire attribute issuance");
    let license = client
        .purchase(&mut adult, &sys.mint, rated, &mut rng)
        .expect("credentialed wire purchase");
    assert!(license.verify(sys.provider.public_key()).is_ok());
}

#[test]
fn wire_crl_sync_propagates_revocation() {
    let mut rng = test_rng(0x317E05);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"GONE", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    sys.fund(&alice, 500);
    let mut device = sys.register_device(&mut rng).expect("compliant device");
    let license = sys.purchase(&mut alice, cid, &mut rng).expect("purchase");

    sys.provider.revoke_license(&license.id()).expect("revoke");

    let service = sys.wire_service(0xC71);
    let mut client = WireClient::new(Loopback::new(&service));
    client.sync_crls(&mut device).expect("wire CRL sync");

    // The synced device refuses the revoked license on either path.
    let res = sys.play(&alice, &mut device, &license, &mut rng);
    assert!(res.is_err(), "revoked license must not play");
}

#[test]
fn ambiguous_purchase_parks_coin_instead_of_losing_it() {
    let mut rng = test_rng(0x317E07);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    sys.fund(&alice, 500);
    sys.ensure_pseudonym(&mut alice, &mut rng)
        .expect("pseudonym");

    let service = sys.wire_service(0x10_57);
    let mut client = WireClient::new(LoseRepliesOf {
        inner: Loopback::new(&service),
        lost_op: OpCode::Purchase,
    });
    client.set_epoch(sys.epoch());

    let err = client
        .purchase(&mut alice, &sys.mint, cid, &mut rng)
        .expect_err("lost reply must surface as an error");
    assert!(matches!(err, WireError::Transport(_)), "got {err}");

    // The server committed: coin deposited, license issued (and lost
    // with the reply). Re-spending the coin would double-spend, so it
    // must not return to the spendable pool — but it must not vanish
    // either: it is parked for reconciliation.
    assert_eq!(sys.mint.deposited_total(), 100);
    assert_eq!(sys.provider.license_count(), 1);
    assert!(alice.licenses().is_empty());
    assert_eq!(alice.wallet.pending().len(), 1, "coin parked, not lost");
    assert_eq!(alice.wallet.balance(), 0, "parked coin is not spendable");

    // Reconciliation against the mint settles it: the serial was
    // deposited, so the coin is discarded, not restored.
    assert_eq!(alice.wallet.reconcile_pending(&sys.mint), (0, 1));
    assert!(alice.wallet.pending().is_empty());

    // The other ambiguous shape: the request never reaches the server.
    let mut client = WireClient::new(BlackholeOp {
        inner: Loopback::new(&service),
        op: OpCode::Purchase,
    });
    client.set_epoch(sys.epoch());
    client
        .purchase(&mut alice, &sys.mint, cid, &mut rng)
        .expect_err("blackholed request must surface as an error");
    assert_eq!(alice.wallet.pending().len(), 1);
    assert_eq!(sys.mint.deposited_total(), 100, "nothing new deposited");
    // This time the mint never saw the serial: the coin comes back.
    assert_eq!(alice.wallet.reconcile_pending(&sys.mint), (1, 0));
    assert_eq!(alice.wallet.balance(), 100, "undeposited coin restored");

    // And the restored coin completes a real purchase end-to-end.
    let mut client = WireClient::new(Loopback::new(&service));
    client.set_epoch(sys.epoch());
    let license = client
        .purchase(&mut alice, &sys.mint, cid, &mut rng)
        .expect("restored coin spends");
    assert!(license.verify(sys.provider.public_key()).is_ok());
    assert_eq!(sys.mint.deposited_total(), 200);
}

#[test]
fn ambiguous_transfer_reconciles_via_license_status() {
    let mut rng = test_rng(0x317E08);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    let mut bob = sys.register_user("bob", &mut rng).expect("fresh user");
    sys.fund(&alice, 500);
    let license = sys.purchase(&mut alice, cid, &mut rng).expect("purchase");
    sys.ensure_pseudonym(&mut bob, &mut rng).expect("pseudonym");
    let lid = license.id();

    let service = sys.wire_service(0x10_58);
    let mut client = WireClient::new(LoseRepliesOf {
        inner: Loopback::new(&service),
        lost_op: OpCode::Transfer,
    });

    // Before the transfer, the status query sees the active license.
    assert!(matches!(
        client.license_status(lid).expect("status query"),
        LicenseStatus::Active { .. }
    ));

    let err = client
        .transfer(&mut alice, &mut bob, lid, &mut rng)
        .expect_err("lost reply must surface as an error");
    assert!(matches!(err, WireError::Transport(_)), "got {err}");

    // Divergence: the provider committed (old id retired, successor
    // issued) while the sender still holds the stale license.
    assert_eq!(alice.licenses().len(), 1, "sender state diverged");
    assert!(bob.licenses().is_empty(), "recipient reply was lost");

    // Reconciliation: the authoritative status query repairs the
    // sender's view.
    assert_eq!(
        client.license_status(lid).expect("status query"),
        LicenseStatus::Transferred
    );
    assert!(client
        .reconcile_transfer(&mut alice, lid)
        .expect("reconcile"));
    assert!(alice.licenses().is_empty(), "stale license dropped");
    // Reconciling an already-consistent view is a no-op.
    assert!(!client
        .reconcile_transfer(&mut alice, lid)
        .expect("idempotent reconcile"));
}

#[test]
fn spoofed_card_id_is_refused_over_the_wire() {
    let mut rng = test_rng(0x317E09);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let alice = sys.register_user("alice", &mut rng).expect("fresh user");
    let mallory = sys.register_user("mallory", &mut rng).expect("fresh user");
    sys.grant_attribute(&alice, "adult", &mut rng)
        .expect("alice is entitled");

    let service = sys.wire_service(0x5F00F);
    let mut client = WireClient::new(Loopback::new(&service));

    // Mallory (registered, not entitled) claims alice's card id on the
    // wire; her own certificate and a valid signature over the spoofed
    // request fields must not be enough.
    let victim_id = alice.card.card_id();
    let blinded = p2drm::bignum::UBig::from_u64(0xB11D);
    let auth_sig = mallory
        .card
        .sign_with_master(&attribute_auth_bytes(&victim_id, "adult", &blinded))
        .expect("card signs");
    let reply = client
        .call(WireRequest::AttributeIssue(AttributeIssueRequest {
            card_id: victim_id,
            card_cert: mallory.card.master_cert().clone(),
            attribute: "adult".into(),
            blinded,
            auth_sig,
        }))
        .expect("transport works");
    match reply {
        WireResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::CardRefused),
        other => panic!("spoofed issuance accepted as {}", other.label()),
    }
}

#[test]
fn unknown_content_maps_to_stable_code() {
    let mut rng = test_rng(0x317E06);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let service = sys.wire_service(0x404);
    let mut client = WireClient::new(Loopback::new(&service));
    let err = client
        .content_meta(p2drm::core::ContentId::from_label("ghost"))
        .expect_err("nothing published");
    match err {
        WireError::Api(e) => {
            assert_eq!(e.code, ApiErrorCode::UnknownContent);
            assert_eq!(e.code.code(), 70);
        }
        other => panic!("expected Api error, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Pipelining: out-of-order reply delivery through the demux.
// ---------------------------------------------------------------------

/// A transport that delivers replies in an adversarially permuted order:
/// every completed reply is buffered, and `complete` hands back whichever
/// one the pick list selects — the pipelined client must still settle
/// every slot with *its* reply, purely by correlation id.
struct Shuffling<'s> {
    inner: Loopback<'s, MemBackend>,
    picks: std::cell::RefCell<Vec<usize>>,
    buffer: std::cell::RefCell<Vec<(u64, Vec<u8>)>>,
}

impl<'s> Shuffling<'s> {
    fn new(inner: Loopback<'s, MemBackend>, picks: Vec<usize>) -> Self {
        Shuffling {
            inner,
            picks: std::cell::RefCell::new(picks),
            buffer: std::cell::RefCell::new(Vec::new()),
        }
    }
}

impl Transport for Shuffling<'_> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        self.inner.submit(corr_id, request)
    }

    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        let mut buffer = self.buffer.borrow_mut();
        while let Some(pair) = self.inner.complete(deadline)? {
            buffer.push(pair);
        }
        if buffer.is_empty() {
            return Ok(None);
        }
        let mut picks = self.picks.borrow_mut();
        let idx = if picks.is_empty() {
            buffer.len() - 1
        } else {
            picks.remove(0) % buffer.len()
        };
        Ok(Some(buffer.remove(idx)))
    }
}

/// Shared fixture for the permutation property: bootstrapping a system
/// mints real RSA keys, so it happens once.
fn pipeline_fixture() -> &'static (System, Vec<p2drm::core::ContentId>) {
    use std::sync::OnceLock;
    static FX: OnceLock<(System, Vec<p2drm::core::ContentId>)> = OnceLock::new();
    FX.get_or_init(|| {
        let mut rng = test_rng(0x317E10);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cids = (0..3)
            .map(|i| {
                sys.publish_content(
                    &format!("Pipelined {i}"),
                    100 + i as u64,
                    format!("payload {i}").as_bytes(),
                    &mut rng,
                )
            })
            .collect();
        (sys, cids)
    })
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Permuted reply order ≡ serial outcomes: a batch of catalog
    /// lookups pipelined through an adversarially shuffled transport
    /// settles every slot with exactly the response the serial client
    /// gets for the same request.
    #[test]
    fn permuted_reply_order_matches_serial_outcomes(
        picks in proptest::collection::vec(any::<usize>(), 1..12),
        shuffle in proptest::collection::vec(any::<usize>(), 1..24),
    ) {
        use p2drm::core::protocol::messages::CatalogRequest;
        let (sys, cids) = pipeline_fixture();
        let service = sys.wire_service(0x0DD0);
        let bodies: Vec<WireRequest> = picks
            .iter()
            .map(|&p| {
                // Known ids plus one unknown: slots must not bleed into
                // each other even when some answers are empty.
                let k = p % (cids.len() + 1);
                let cid = cids
                    .get(k)
                    .copied()
                    .unwrap_or_else(|| p2drm::core::ContentId::from_label("ghost"));
                WireRequest::Catalog(CatalogRequest { content_id: Some(cid) })
            })
            .collect();

        let mut serial = WireClient::new(Loopback::new(&service));
        let expected: Vec<_> = bodies.iter().cloned().map(|b| serial.call(b)).collect();

        let mut piped = WireClient::new(Shuffling::new(Loopback::new(&service), shuffle));
        let got = piped.call_many(bodies);

        prop_assert_eq!(got.len(), expected.len());
        for (slot, (g, e)) in got.iter().zip(&expected).enumerate() {
            match (g, e) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "slot {} diverged", slot),
                (a, b) => prop_assert!(false, "slot {} shape diverged: {:?} vs {:?}", slot, a, b),
            }
        }
    }
}

/// Pipelined purchases through the shuffled transport: every session
/// settles with its own reply — licenses for the known items, a typed
/// error for the unknown one — and the wallet balances exactly.
#[test]
fn pipelined_purchases_settle_out_of_order_replies() {
    let mut rng = test_rng(0x317E11);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid_a = sys.publish_content("Album A", 100, b"A", &mut rng);
    let cid_b = sys.publish_content("Album B", 100, b"B", &mut rng);
    let ghost = p2drm::core::ContentId::from_label("ghost");
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    sys.fund(&alice, 500);
    sys.ensure_pseudonym(&mut alice, &mut rng)
        .expect("pseudonym");

    let service = sys.wire_service(0x0DD1);
    // Reverse delivery: the last submitted reply completes first.
    let mut client = WireClient::new(Shuffling::new(Loopback::new(&service), vec![2, 1, 0]));
    client.set_epoch(sys.epoch());

    let results = client.purchase_many(&mut alice, &sys.mint, &[cid_a, cid_b, ghost], &mut rng);
    assert_eq!(results.len(), 3);
    let lic_a = results[0].as_ref().expect("known item purchases");
    let lic_b = results[1].as_ref().expect("known item purchases");
    assert!(lic_a.verify(sys.provider.public_key()).is_ok());
    assert!(lic_b.verify(sys.provider.public_key()).is_ok());
    match &results[2] {
        Err(WireError::Api(e)) => assert_eq!(e.code, ApiErrorCode::UnknownContent),
        other => panic!("unknown item must fail typed, got {other:?}"),
    }

    // Exactly the two priced coins were deposited; nothing parked,
    // nothing stranded in the wallet (the ghost slot never withdrew).
    assert_eq!(sys.mint.deposited_total(), 200);
    assert_eq!(alice.wallet.balance(), 0);
    assert!(alice.wallet.pending().is_empty());
    assert_eq!(alice.licenses().len(), 2);
    assert_eq!(sys.provider.license_count(), 2);
}

// ---------------------------------------------------------------------
// The catalogue listing is answered from a publish-time snapshot.
// ---------------------------------------------------------------------

mod listing_snapshot {
    use p2drm::core::content::ContentMeta;
    use p2drm::core::entities::provider::{ContentProvider, ProviderConfig};
    use p2drm::core::protocol::messages::{CatalogRequest, CatalogResponse};
    use p2drm::core::service::{
        Loopback, ProviderService, RequestEnvelope, ResponseEnvelope, WireClient, WireRequest,
        WireResponse,
    };
    use p2drm::core::system::{System, SystemConfig};
    use p2drm::core::ContentId;
    use p2drm::crypto::rng::test_rng;
    use p2drm::obs::Registry;
    use p2drm::store::WalShardedConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const CORRELATION: u64 = 0x5EED;

    fn listing_request() -> Vec<u8> {
        RequestEnvelope {
            correlation_id: CORRELATION,
            body: WireRequest::Catalog(CatalogRequest { content_id: None }),
        }
        .to_bytes()
    }

    /// The reply the pre-snapshot code produced: every item's metadata
    /// looked up and cloned afresh, sorted by id, encoded item by item.
    fn reply_from_scratch(provider: &ContentProvider, ids: &[ContentId]) -> Vec<u8> {
        let mut metas: Vec<ContentMeta> = ids
            .iter()
            .map(|id| provider.content_meta(id).expect("published"))
            .collect();
        metas.sort_by_key(|m| m.id);
        ResponseEnvelope {
            correlation_id: CORRELATION,
            body: WireResponse::Catalog(CatalogResponse::new(metas)),
        }
        .to_bytes()
    }

    fn decode_listing(reply: &[u8]) -> Vec<ContentMeta> {
        match ResponseEnvelope::from_bytes(reply)
            .expect("reply decodes")
            .body
        {
            WireResponse::Catalog(c) => c.items.into_vec(),
            other => panic!("expected a catalog reply, got {}", other.label()),
        }
    }

    #[test]
    fn listing_reply_equals_a_fresh_sort_clone_and_encode_byte_for_byte() {
        let mut rng = test_rng(0x317E20);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let service = sys.wire_service(0x115);
        let request = listing_request();
        let mut ids = Vec::new();
        for n in 0..=256usize {
            if [0, 1, 2, 256].contains(&n) {
                let expected = reply_from_scratch(&sys.provider, &ids);
                assert_eq!(service.handle(&request), expected, "{n} items, handle");
                // The typed path the TCP benchmark wrapper drives.
                let body = service
                    .dispatch(
                        &WireRequest::Catalog(CatalogRequest { content_id: None }),
                        &mut rng,
                    )
                    .expect("listing never fails");
                let typed = ResponseEnvelope {
                    correlation_id: CORRELATION,
                    body,
                };
                assert_eq!(typed.to_bytes(), expected, "{n} items, dispatch");
                assert_eq!(decode_listing(&expected).len(), n);
            }
            let title = format!("Item {n:03}");
            ids.push(if n % 2 == 0 {
                sys.publish_content(&title, 100 + n as u64, b"payload", &mut rng)
            } else {
                sys.publish_rated_content(&title, 100 + n as u64, b"payload", "adult", &mut rng)
            });
        }
    }

    #[test]
    fn each_publish_shows_in_the_next_listing_and_a_restart_lists_the_same_bytes() {
        let dir = std::env::temp_dir().join(format!("p2drm-int-listing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = test_rng(0x317E21);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let open = |sys: &mut System, rng: &mut _| {
            let (provider, _) = ContentProvider::open_durable(
                &mut sys.root,
                sys.mint.clone(),
                sys.ra.blind_public().clone(),
                &dir,
                WalShardedConfig::default(),
                ProviderConfig::fast_test(),
                rng,
            )
            .expect("durable store opens");
            ProviderService::with_registry(Arc::new(provider), 0x116, Arc::new(Registry::new()))
        };
        let request = listing_request();

        let service = open(&mut sys, &mut rng);
        let rights = sys.config().rights_template.clone();
        for n in 0..5usize {
            let listed = decode_listing(&service.handle(&request));
            assert_eq!(listed.len(), n);
            assert!(listed.windows(2).all(|w| w[0].id < w[1].id), "id-sorted");
            service
                .provider()
                .publish(format!("T{n}"), 10, b"bits", rights.clone(), &mut rng);
        }
        let before = service.handle(&request);
        assert_eq!(decode_listing(&before).len(), 5);
        drop(service);

        let service = open(&mut sys, &mut rng);
        assert_eq!(
            service.handle(&request),
            before,
            "listing after the restart"
        );
        service
            .provider()
            .restore_from_store()
            .expect("restore is idempotent");
        assert_eq!(
            service.handle(&request),
            before,
            "listing after a second restore"
        );
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_listing_build_per_catalog_change_not_per_request() {
        let mut rng = test_rng(0x317E22);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("Counted", 100, b"AUDIO", &mut rng);
        sys.publish_content("Also counted", 100, b"AUDIO", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
        sys.fund(&alice, 500);

        let registry = Arc::new(Registry::new());
        let service = sys.wire_service_with_registry(0x117, registry.clone());
        let builds = || registry.snapshot().counter("catalog_listing_builds");
        assert_eq!(builds(), Some(0), "publishing alone builds nothing");

        let request = listing_request();
        let first = service.handle(&request);
        for _ in 0..999 {
            assert_eq!(service.handle(&request), first);
        }
        assert_eq!(builds(), Some(1), "1,000 listings, one build");

        // By-id lookups, downloads and purchases read the catalog but
        // never the listing.
        let mut client = WireClient::new(Loopback::new(&service));
        client.set_epoch(sys.epoch());
        client.content_meta(cid).expect("by-id lookup");
        client
            .obtain_pseudonym(
                &mut alice,
                sys.ra.blind_public(),
                sys.ttp.escrow_key(),
                &mut rng,
            )
            .expect("wire pseudonym issuance");
        client
            .purchase(&mut alice, &sys.mint, cid, &mut rng)
            .expect("wire purchase");
        sys.provider.download(&cid).expect("download");
        assert_eq!(builds(), Some(1));

        sys.publish_content("One more", 100, b"AUDIO", &mut rng);
        assert_eq!(builds(), Some(1), "invalidation is not a build");
        assert_eq!(client.catalog().expect("listing").len(), 3);
        assert_eq!(client.catalog().expect("listing").len(), 3);
        assert_eq!(builds(), Some(2));
    }

    #[test]
    fn readers_beside_a_publisher_see_sorted_listings_that_only_grow() {
        const READERS: usize = 4;
        const PUBLISHED: usize = 64;
        let mut rng = test_rng(0x317E23);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        sys.publish_content("Seed item", 100, b"bits", &mut rng);
        let service = sys.wire_service(0x118);
        let request = listing_request();
        let done = AtomicBool::new(false);

        let finals: Vec<usize> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last = 0usize;
                        loop {
                            // Read the flag first: the listing taken after
                            // it flips must already hold every item.
                            let finished = done.load(Ordering::SeqCst);
                            let listed = decode_listing(&service.handle(&request));
                            assert!(
                                listed.windows(2).all(|w| w[0].id < w[1].id),
                                "strictly id-sorted"
                            );
                            assert!(listed.len() >= last, "a listing never shrinks");
                            last = listed.len();
                            if finished {
                                return last;
                            }
                        }
                    })
                })
                .collect();
            for i in 0..PUBLISHED {
                sys.publish_content(&format!("Live {i}"), 100, b"bits", &mut rng);
            }
            done.store(true, Ordering::SeqCst);
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .collect()
        });
        assert_eq!(finals, vec![1 + PUBLISHED; READERS]);
    }
}
