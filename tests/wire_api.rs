//! Wire acceptance beside the model (`tests/model.rs`, which diffs the
//! protocol's outcomes): a spoofed card id is refused, a listed item
//! whose row is damaged answers `Storage`, pipelined replies settle out
//! of order, and the catalogue listing is served from its snapshot.

use p2drm::core::entities::provider::MemBackend;
use p2drm::core::protocol::messages::{attribute_auth_bytes, AttributeIssueRequest};
use p2drm::core::service::{
    ApiErrorCode, Loopback, Transport, TransportError, WireClient, WireRequest, WireResponse,
};
use p2drm::core::system::{System, SystemConfig};
use p2drm::crypto::rng::test_rng;

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

/// A download's ciphertext comes out of the item's `content/<id>` row,
/// its only copy: a listed item whose row is gone or cut short answers
/// `Storage` — not `UnknownContent`, and never a short payload.
#[test]
fn a_listed_item_with_a_missing_or_short_row_answers_storage() {
    use p2drm::core::protocol::messages::DownloadRequest;
    use p2drm::store::ConcurrentKv;

    let mut rng = test_rng(0x5707);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let payload = vec![7u8; 4096];
    let cid = sys.publish_content("Row-served", 100, &payload, &mut rng);
    let service = sys.wire_service(0x5707);
    let mut client = WireClient::new(Loopback::new(&service));
    let mut download = || {
        client
            .call(WireRequest::Download(DownloadRequest { content_id: cid }))
            .expect("transport works")
    };
    let served = match download() {
        WireResponse::Download(d) => d,
        other => panic!("intact row: {}", other.label()),
    };
    assert_eq!(served.ciphertext.len(), payload.len());

    let mut key = b"content/".to_vec();
    key.extend_from_slice(cid.as_bytes());
    let store = sys.provider.store();
    let row = store.get(&key).expect("published item has a row");
    let damage: [(&str, Option<Vec<u8>>); 2] = [
        ("deleted", None),
        ("shorter", Some(row[..row.len() / 2].to_vec())),
    ];
    for (what, replacement) in damage {
        match replacement {
            None => assert!(store.delete(&key).unwrap()),
            Some(short) => store.put(&key, &short).unwrap(),
        }
        assert_eq!(sys.provider.list_content().metas().len(), 1, "still listed");
        match download() {
            WireResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::Storage, "{what} row"),
            other => panic!("{what} row answered {}", other.label()),
        }
    }

    store.put(&key, &row).unwrap();
    match download() {
        WireResponse::Download(d) => assert_eq!(d, served, "the restored row serves again"),
        other => panic!("restored row: {}", other.label()),
    }

    // Over the durable store the row's ciphertext stays in its shard log,
    // and the index holds its position: a log cut below it is an
    // unreadable row, which answers `Storage` as well.
    let dir = std::env::temp_dir().join(format!("p2drm-wire-unreadable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = p2drm::store::WalShardedConfig::default();
    {
        let store = p2drm::store::WalShardedKv::open(&dir, durable).unwrap().0;
        let sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
        let logs: Vec<(std::path::PathBuf, u64)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
            .map(|path| {
                let len = std::fs::metadata(&path).unwrap().len();
                (path, len)
            })
            .collect();
        let cid = sys.publish_content("Log-served", 100, &payload, &mut rng);
        let service = sys.wire_service(0x5708);
        let mut client = WireClient::new(Loopback::new(&service));
        let mut download = || {
            client
                .call(WireRequest::Download(DownloadRequest { content_id: cid }))
                .expect("transport works")
        };
        match download() {
            WireResponse::Download(d) => assert_eq!(d.ciphertext.len(), payload.len()),
            other => panic!("intact log: {}", other.label()),
        }
        for (path, len) in &logs {
            let log = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            log.set_len(*len).unwrap();
        }
        match download() {
            WireResponse::Error(e) => assert_eq!(e.code, ApiErrorCode::Storage, "unreadable row"),
            other => panic!("unreadable row answered {}", other.label()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
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

/// Pipelined purchases through the shuffled transport: `call_many`
/// settles every slot with its own reply, so each purchase session
/// finishes on its own license — and the session for an item the
/// provider does not list is refused and gets its coin back — and the
/// books balance exactly.
#[test]
fn pipelined_purchases_settle_out_of_order_replies() {
    use p2drm::core::content::ContentMeta;
    use p2drm::core::protocol::purchase::PurchaseSession;

    let mut rng = test_rng(0x317E11);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid_a = sys.publish_content("Album A", 100, b"A", &mut rng);
    let cid_b = sys.publish_content("Album B", 100, b"B", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).expect("fresh user");
    sys.fund(&alice, 500);
    sys.ensure_pseudonym(&mut alice, &mut rng)
        .expect("pseudonym");
    alice.set_policy(p2drm::core::entities::user::PseudonymPolicy::ReuseK(3));

    let service = sys.wire_service(0x0DD1);
    // Reverse delivery: the last submitted reply completes first.
    let mut client = WireClient::new(Shuffling::new(Loopback::new(&service), vec![2, 1, 0]));
    let meta_a = client.content_meta(cid_a).expect("listed");
    let meta_b = client.content_meta(cid_b).expect("listed");
    // A quote for an item the provider never published.
    let ghost = ContentMeta {
        id: p2drm::core::ContentId::from_label("ghost"),
        ..meta_a.clone()
    };

    let sessions: Vec<PurchaseSession> = [&meta_a, &meta_b, &ghost]
        .into_iter()
        .map(|meta| PurchaseSession::begin(&mut alice, &sys.mint, meta, &mut rng).expect("funded"))
        .collect();
    let bodies = sessions
        .iter()
        .map(|session| WireRequest::Purchase(session.request().clone()))
        .collect();
    for _ in &sessions {
        alice.note_pseudonym_use();
    }
    let replies = client.call_many(bodies);
    assert_eq!(replies.len(), 3);

    let mut licenses = Vec::new();
    for (slot, (session, reply)) in sessions.into_iter().zip(replies).enumerate() {
        match reply.expect("every reply arrives") {
            WireResponse::Purchase(resp) => licenses.push(session.finish(&mut alice, resp)),
            WireResponse::Error(e) => {
                assert_eq!(slot, 2, "only the unlisted item is refused");
                assert_eq!(e.code, ApiErrorCode::UnknownContent);
                session.abort(&mut alice, &e);
            }
            other => panic!("slot {slot} answered {}", other.label()),
        }
    }
    assert_eq!(licenses.len(), 2);
    for (license, cid) in licenses.iter().zip([cid_a, cid_b]) {
        assert!(license.verify(sys.provider.public_key()).is_ok());
        assert_eq!(
            license.body.content_id, cid,
            "each slot got its own license"
        );
    }

    // Exactly the two priced coins were deposited; the refused slot's
    // coin is back in the wallet, and nothing is parked.
    assert_eq!(sys.mint.deposited_total(), 200);
    assert_eq!(alice.wallet.balance(), 100);
    assert!(alice.parked.is_empty());
    assert_eq!(alice.licenses().len(), 2);
    assert_eq!(sys.provider.license_count(), 2);
    // Three requests went out under the pseudonym: three uses, its budget.
    assert!(alice.current_pseudonym().is_none());
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
    use p2drm::store::{WalShardedConfig, WalShardedKv};
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
        let store = || {
            WalShardedKv::open(&dir, WalShardedConfig::default())
                .expect("opens")
                .0
        };
        let serve = |provider| {
            ProviderService::with_registry(Arc::new(provider), 0x116, Arc::new(Registry::new()))
        };
        let request = listing_request();

        let (mint, ra) = (sys.mint.clone(), sys.ra.blind_public().clone());
        let config = ProviderConfig::fast_test();
        let provider =
            ContentProvider::with_backend(&mut sys.root, mint, ra, store(), config, &mut rng);
        let service = serve(provider);
        let rights = sys.config().rights_template.clone();
        for n in 0..5usize {
            let listed = decode_listing(&service.handle(&request));
            assert_eq!(listed.len(), n);
            assert!(listed.windows(2).all(|w| w[0].id < w[1].id), "id-sorted");
            service
                .provider()
                .publish(format!("T{n}"), 10, b"bits", rights.clone(), &mut rng)
                .unwrap();
        }
        let before = service.handle(&request);
        assert_eq!(decode_listing(&before).len(), 5);
        let keys = p2drm::codec::from_bytes(&service.provider().export_keys()).expect("vault");
        let cert = service.provider().certificate().clone();
        drop(service);

        let (mint, ra) = (sys.mint.clone(), sys.ra.blind_public().clone());
        let config = ProviderConfig::fast_test();
        let resumed = ContentProvider::resume(keys, cert, mint, ra, store(), config);
        let service = serve(resumed.expect("the directory restores"));
        assert_eq!(
            service.handle(&request),
            before,
            "listing after the restart"
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
