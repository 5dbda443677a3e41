//! Shared-provider concurrency: the refactored `ContentProvider` serves
//! many threads through `&self`, and the paper's exactly-once guarantees
//! survive real races — N threads redeeming the same license id produce
//! exactly one winner, and N threads purchasing in parallel all succeed
//! with every license accounted for.

use p2drm::core::protocol::messages::{transfer_proof_bytes, PurchaseRequest, TransferRequest};
use p2drm::core::CoreError;
use p2drm::payment::PaymentError;
use p2drm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// N threads race `handle_transfer` for the *same* license id toward N
/// different recipients through one shared provider. The atomic spent-ID
/// insert must admit exactly one.
#[test]
fn racing_double_redeem_has_exactly_one_winner() {
    const RACERS: usize = 8;
    let mut rng = p2drm::crypto::rng::test_rng(0xACE1);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Hot Item", 100, b"payload", &mut rng);

    let mut mallory = sys.register_user("mallory", &mut rng).unwrap();
    sys.fund(&mallory, 1_000);
    let license = sys.purchase(&mut mallory, cid, &mut rng).unwrap();
    let mallory_pseudonym = mallory.licenses()[0].pseudonym;

    // One fully valid transfer request per racer, each toward a distinct
    // recipient pseudonym (each request passes every provider check other
    // than the spent-ID rule).
    let mut requests: Vec<TransferRequest> = Vec::with_capacity(RACERS);
    for i in 0..RACERS {
        let mut buyer = sys.register_user(&format!("buyer-{i}"), &mut rng).unwrap();
        sys.ensure_pseudonym(&mut buyer, &mut rng).unwrap();
        let cert = buyer.pseudonym_certs().last().unwrap().clone();
        let proof = mallory
            .card
            .sign_with_pseudonym(
                &mallory_pseudonym,
                &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
            )
            .unwrap();
        requests.push(TransferRequest {
            license: license.clone(),
            recipient_cert: cert,
            proof,
        });
    }

    let epoch = sys.epoch();
    let provider = &sys.provider;
    let outcomes: Vec<Result<(), CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xD0_5E + i as u64);
                    provider.handle_transfer(req, epoch, &mut rng).map(|_| ())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let winners = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(winners, 1, "exactly one racing redeem may succeed");
    for outcome in &outcomes {
        if let Err(e) = outcome {
            assert!(
                matches!(e, CoreError::AlreadyRedeemed(_)),
                "losers must fail with AlreadyRedeemed, got: {e}"
            );
        }
    }
    // Exactly one spent id, and exactly one fresh license was issued on
    // top of mallory's original.
    assert_eq!(sys.provider.spent_count(), 1);
    assert_eq!(sys.provider.license_count(), 2);
}

/// N threads purchase distinct items concurrently through `&self` on one
/// provider; every purchase must succeed and be accounted for.
#[test]
fn concurrent_purchases_all_succeed_through_shared_ref() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let mut rng = p2drm::crypto::rng::test_rng(0xACE2);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Popular", 100, b"bits", &mut rng);

    // Pre-build requests (coins + pseudonyms) single-threaded; the
    // measured contention is provider-side handling only.
    let mut requests: Vec<Vec<PurchaseRequest>> = Vec::new();
    for c in 0..CLIENTS {
        let mut user = sys.register_user(&format!("c{c}"), &mut rng).unwrap();
        sys.fund(&user, 100 * PER_CLIENT as u64);
        let mut reqs = Vec::new();
        for _ in 0..PER_CLIENT {
            sys.ensure_pseudonym(&mut user, &mut rng).unwrap();
            let cert = user.current_pseudonym().unwrap().clone();
            let account = user.account.clone();
            let coin = user
                .wallet
                .withdraw(&sys.mint, &account, 100, &mut rng)
                .unwrap();
            user.wallet.take(100);
            user.note_pseudonym_use();
            reqs.push(PurchaseRequest {
                content_id: cid,
                pseudonym_cert: cert,
                coin,
                attribute_cert: None,
            });
        }
        requests.push(reqs);
    }

    let epoch = sys.epoch();
    let provider = &sys.provider;
    let completed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBEEF + c as u64);
                    reqs.iter()
                        .filter(|req| provider.handle_purchase(req, epoch, &mut rng).is_ok())
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(completed, CLIENTS * PER_CLIENT);
    assert_eq!(sys.provider.license_count(), CLIENTS * PER_CLIENT);
    // Every coin was deposited exactly once.
    assert_eq!(
        sys.mint.deposited_total(),
        100 * (CLIENTS * PER_CLIENT) as u64
    );
}

/// Revocation racing transfers of the same license id: the spent-ID
/// check-and-set is authoritative for both, so at most one transfer can
/// win (only by strictly preceding the revocation), the id ends up both
/// spent and CRL-listed, and no post-revocation issuance is possible.
#[test]
fn racing_revocation_vs_transfer_cannot_reissue_revoked_content() {
    const RACERS: usize = 4;
    let mut rng = p2drm::crypto::rng::test_rng(0xACE4);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Recalled Item", 100, b"payload", &mut rng);

    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let alice_pseudonym = alice.licenses()[0].pseudonym;

    let mut requests: Vec<TransferRequest> = Vec::with_capacity(RACERS);
    for i in 0..RACERS {
        let mut buyer = sys.register_user(&format!("rb-{i}"), &mut rng).unwrap();
        sys.ensure_pseudonym(&mut buyer, &mut rng).unwrap();
        let cert = buyer.pseudonym_certs().last().unwrap().clone();
        let proof = alice
            .card
            .sign_with_pseudonym(
                &alice_pseudonym,
                &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
            )
            .unwrap();
        requests.push(TransferRequest {
            license: license.clone(),
            recipient_cert: cert,
            proof,
        });
    }

    let epoch = sys.epoch();
    let provider = &sys.provider;
    let lid = license.id();
    let won: Vec<bool> = std::thread::scope(|scope| {
        let revoker = scope.spawn(move || provider.revoke_license(&lid).unwrap());
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xAB07 + i as u64);
                    provider.handle_transfer(req, epoch, &mut rng).is_ok()
                })
            })
            .collect();
        revoker.join().unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(
        won.iter().filter(|&&ok| ok).count() <= 1,
        "a revoked id can be transferred at most once (strictly before revocation)"
    );
    // The id is claimed in the spent store exactly once, whoever won,
    // and the CRL lists it — no future redemption path exists.
    assert_eq!(sys.provider.spent_count(), 1);
    assert!(sys
        .provider
        .signed_license_crl(1)
        .body
        .list
        .contains(&p2drm::core::entities::provider::license_crl_id(&lid)));
    // Re-sending a losing request is refused (re-sending a winner would
    // be its replay, answered with the successor it already got).
    let mut rng2 = p2drm::crypto::rng::test_rng(0xACE5);
    let loser = won.iter().position(|&ok| !ok).unwrap();
    let late = sys
        .provider
        .handle_transfer(&requests[loser], epoch, &mut rng2);
    assert!(matches!(late, Err(CoreError::AlreadyRedeemed(_))));
}

/// One coin for `cid`, presented under each of `pseudonyms` fresh
/// pseudonyms of one user: that many purchase requests spending it.
fn requests_spending_one_coin(
    sys: &System,
    cid: ContentId,
    pseudonyms: usize,
    rng: &mut impl p2drm::crypto::rng::CryptoRng,
) -> Vec<PurchaseRequest> {
    let mut alice = sys.register_user("alice", rng).unwrap();
    sys.fund(&alice, 100);
    let account = alice.account.clone();
    let coin = alice
        .wallet
        .withdraw(&sys.mint, &account, 100, rng)
        .unwrap();
    (0..pseudonyms)
        .map(|_| {
            sys.ensure_pseudonym(&mut alice, rng).unwrap();
            alice.note_pseudonym_use();
            PurchaseRequest {
                content_id: cid,
                pseudonym_cert: alice.pseudonym_certs().last().unwrap().clone(),
                coin: coin.clone(),
                attribute_cert: None,
            }
        })
        .collect()
}

/// Every request in `requests` through the shared provider at once.
fn race_purchases(sys: &System, requests: &[PurchaseRequest]) -> Vec<Result<License, CoreError>> {
    let (epoch, provider) = (sys.epoch(), &sys.provider);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FE + i as u64);
                    provider.handle_purchase(req, epoch, &mut rng)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// One coin racing through four threads under four pseudonyms deposits
/// once: one license, three double spends.
#[test]
fn racing_coin_double_spend_single_winner() {
    let mut rng = p2drm::crypto::rng::test_rng(0xACE3);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Single", 100, b"x", &mut rng);
    let requests = requests_spending_one_coin(&sys, cid, 4, &mut rng);

    let outcomes = race_purchases(&sys, &requests);
    let oks = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(oks, 1, "one deposit of the same coin serial may succeed");
    for outcome in &outcomes {
        if let Err(e) = outcome {
            assert!(
                matches!(e, CoreError::Payment(PaymentError::DoubleSpend)),
                "{e}"
            );
        }
    }
    assert_eq!(sys.mint.deposited_total(), 100);
    assert_eq!(sys.provider.license_count(), 1);
}

/// Four copies of one purchase request racing are one purchase re-sent:
/// all four get the same license id, the coin is deposited once and one
/// license row is written. The coin under another pseudonym afterwards
/// is a double spend.
#[test]
fn racing_identical_purchases_share_one_license() {
    let mut rng = p2drm::crypto::rng::test_rng(0xACE7);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Single", 100, b"x", &mut rng);
    let requests = requests_spending_one_coin(&sys, cid, 2, &mut rng);

    let identical = vec![requests[0].clone(); 4];
    let ids: Vec<LicenseId> = race_purchases(&sys, &identical)
        .into_iter()
        .map(|r| r.expect("a replay is answered, not refused").id())
        .collect();
    assert!(ids.iter().all(|id| *id == ids[0]), "{ids:?}");
    assert_eq!(sys.mint.deposited_total(), 100);
    assert_eq!(sys.provider.license_count(), 1);

    let fifth = race_purchases(&sys, &requests[1..]);
    assert!(matches!(
        fifth[0],
        Err(CoreError::Payment(PaymentError::DoubleSpend))
    ));
    assert_eq!(sys.provider.license_count(), 1);
}

/// A store whose writes under `prefix` park until the test lets them
/// through — the window in which `publish` used to hold the catalog write
/// lock, and a revocation the CRL write lock.
struct ParkingKv {
    inner: p2drm::core::entities::provider::MemBackend,
    prefix: &'static [u8],
    armed: std::sync::atomic::AtomicBool,
    parked: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl ParkingKv {
    /// A parking store over fresh memory, disarmed, with the channels the
    /// test holds the other ends of: one that reports a parked write and
    /// one that lets it through.
    fn new(
        prefix: &'static [u8],
    ) -> (
        Self,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let store = ParkingKv {
            inner: p2drm::store::MemKv::with_shards(4),
            prefix,
            armed: std::sync::atomic::AtomicBool::new(false),
            parked: std::sync::Mutex::new(parked_tx),
            release: std::sync::Mutex::new(release_rx),
        };
        (store, parked_rx, release_tx)
    }
}

impl p2drm::store::ConcurrentKv for ParkingKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), p2drm::store::StoreError> {
        if key.starts_with(self.prefix) && self.armed.load(std::sync::atomic::Ordering::SeqCst) {
            self.parked.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) -> Result<bool, p2drm::store::StoreError> {
        self.inner.delete(key)
    }
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, p2drm::store::StoreError> {
        self.inner.insert_if_absent(key, value)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn flush(&self) -> Result<(), p2drm::store::StoreError> {
        self.inner.flush()
    }
}

/// `publish` packages and persists *before* it takes the catalog write
/// lock: while its store write is parked, downloads and listings of what
/// is already published complete, the new item is in neither, and once
/// the write returns it is in both.
#[test]
fn publish_persists_outside_the_catalog_lock() {
    use std::sync::atomic::Ordering;
    let (store, parked_rx, release_tx) = ParkingKv::new(b"content/");
    let mut rng = p2drm::crypto::rng::test_rng(0xACE5);
    let sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
    let existing = sys.publish_content("Already here", 100, b"old payload", &mut rng);
    assert_eq!(sys.provider.list_content().metas().len(), 1);

    sys.provider.store().armed.store(true, Ordering::SeqCst);
    let provider = &sys.provider;
    std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let mut rng = p2drm::crypto::rng::test_rng(0xACE6);
            sys.publish_content("Arriving", 100, b"new payload", &mut rng)
        });
        parked_rx
            .recv()
            .expect("the publish reached its store write");
        // Packaging draws the id first, so the test knows it already.
        let coming = ContentId::random(&mut p2drm::crypto::rng::test_rng(0xACE6));

        // The publisher is inside `put`. Under the old lock scope each of
        // these would block on the catalog lock forever.
        let (_, ciphertext) = provider
            .download(&existing)
            .expect("existing item downloads");
        assert_eq!(ciphertext.len(), b"old payload".len());
        let listing = provider.list_content();
        assert_eq!(listing.metas().len(), 1, "the parked item is not listed");
        assert_eq!(listing.metas()[0].id, existing);
        assert!(provider.download(&coming).is_err(), "nor downloadable");

        release_tx.send(()).expect("publisher is waiting");
        let arrived = publisher.join().expect("publisher panicked");
        assert_eq!(arrived, coming);
        assert!(
            provider.download(&arrived).is_ok(),
            "released item downloads"
        );
        let listing = provider.list_content();
        assert_eq!(listing.metas().len(), 2);
        assert!(listing.metas().iter().any(|m| m.id == arrived));
    });
}

/// A revocation writes its `crl/` row outside the CRL lock: while a
/// transfer's CRL listing is parked in the store, a device's CRL sync and
/// another buyer's purchase (whose pseudonym check reads the pseudonym
/// CRL) complete, and once the write returns the old id is listed at the
/// next sequence number.
#[test]
fn a_crl_listing_commits_outside_the_crl_lock() {
    use p2drm::core::entities::provider::license_crl_id;
    use p2drm::core::service::{Loopback, WireClient};
    use std::sync::atomic::Ordering;
    use std::time::Duration;
    let (store, parked_rx, release_tx) = ParkingKv::new(b"crl/");
    let mut rng = p2drm::crypto::rng::test_rng(0xACE8);
    let mut sys = System::bootstrap_with_backend(SystemConfig::fast_test(), store, &mut rng);
    let cid = sys.publish_content("Passed on", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    let mut carol = sys.register_user("carol", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    sys.fund(&carol, 1_000);
    let lid = sys.purchase(&mut alice, cid, &mut rng).unwrap().id();
    let mut device = sys.register_device(&mut rng).unwrap();
    let sequence = sys.provider.signed_license_crl(0).body.sequence;

    sys.provider.store().armed.store(true, Ordering::SeqCst);
    let sys = &sys;
    std::thread::scope(|scope| {
        let transfer = scope.spawn(move || {
            let mut rng = p2drm::crypto::rng::test_rng(0xACE9);
            sys.transfer(&mut alice, &mut bob, lid, &mut rng)
        });
        parked_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the transfer reached its CRL row write");

        // The transfer holds its listing, parked in the store. Under the
        // old lock scope both of these would wait for it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let readers = scope.spawn(move || {
            let service = sys.wire_service(0xACE8);
            WireClient::new(Loopback::new(&service))
                .sync_crls(&mut device)
                .expect("CRL sync");
            let mut rng = p2drm::crypto::rng::test_rng(0xACEA);
            let bought = sys.purchase(&mut carol, cid, &mut rng);
            let _ = done_tx.send((device.crl_sequence(), bought.is_ok()));
        });
        let done = done_rx.recv_timeout(Duration::from_secs(10));
        // Let the parked write through whatever happened, so a failure
        // ends the test instead of hanging it.
        sys.provider.store().armed.store(false, Ordering::SeqCst);
        release_tx.send(()).expect("the transfer is parked");
        let (synced_at, bought) = done.expect("a CRL sync and a purchase beside a parked listing");
        assert_eq!(synced_at, sequence, "the parked listing is not served yet");
        assert!(bought, "the purchase beside a parked listing");
        readers.join().expect("readers panicked");

        let moved = transfer.join().expect("transfer panicked");
        assert!(moved.is_ok(), "{moved:?}");
        let crl = sys.provider.signed_license_crl(0);
        assert_eq!(crl.body.sequence, sequence + 1);
        assert!(crl.body.list.contains(&license_crl_id(&lid)));
    });
}
