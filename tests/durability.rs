//! Durability integration: the spent-ID store (the paper's
//! double-redemption mechanism) over the WAL-backed store survives
//! restarts and torn writes. That a restart under each sync policy keeps
//! every outcome and the whole ledger is the model's (`tests/model.rs`);
//! these tests hold the store faults, the key vault, device state and the
//! race across a restart.

use p2drm::core::entities::provider::{ContentProvider, MemBackend, ProviderConfig};
use p2drm::core::protocol::messages::{transfer_proof_bytes, TransferRequest};
use p2drm::core::service::{
    Loopback, OpCode, ProviderService, Transport, TransportError, WireClient,
};
use p2drm::faults::{kv_sites, FaultKv, FaultPlan, Schedule};
use p2drm::pki::cert::KeyId;
use p2drm::pki::crl::SignedCrl;
use p2drm::prelude::*;
use p2drm::store::{ConcurrentKv, MemKv, SyncPolicy, WalShardedConfig, WalShardedKv};
use std::path::PathBuf;
use std::sync::Arc;

/// Self-cleaning unique temp directory (a `WalShardedKv` store).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!(
            "p2drm-int-durability-dir-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn already_redeemed(res: &Result<License, WireError>) -> bool {
    matches!(res, Err(WireError::Api(e)) if e.code == ApiErrorCode::AlreadyRedeemed)
}

/// The wire service over a provider opened beside `sys`, at `sys`'s
/// clock — what `System` keeps for its own provider. Dropping it (and
/// every client on it) is the provider's unclean stop.
fn serve(provider: ContentProvider<WalShardedKv>, sys: &System) -> ProviderService<WalShardedKv> {
    let service = ProviderService::new(Arc::new(provider), 0);
    service.set_time(sys.epoch(), sys.now());
    service
}

/// The smallest durable store: one WAL, what a device or a single-threaded
/// provider runs on.
const ONE_SHARD: WalShardedConfig = WalShardedConfig {
    shards: 1,
    policy: SyncPolicy::FlushEach,
};

#[test]
fn full_provider_restart_with_key_vault() {
    // The complete restart story: keys exported to a vault, catalog/CRLs/
    // spent ids in the WAL store. After resume, old licenses verify, the
    // double-redeem guarantee holds, and new sales work.
    let tmp = TempDir::new("resume");
    let mut rng = test_rng(8003);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);

    let (provider, _) = ContentProvider::open_durable(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        ONE_SHARD,
        ProviderConfig::fast_test(),
        &mut rng,
    )
    .unwrap();
    let service = serve(provider, &sys);
    let provider = service.provider();
    let template = Rights::builder()
        .play(Limit::Unlimited)
        .transfer(Limit::Count(3))
        .build();
    let cid = provider
        .publish(
            "persistent hit",
            100,
            b"payload bytes",
            template.clone(),
            &mut rng,
        )
        .unwrap();
    let downloaded = provider.download(&cid).unwrap();
    let vault = provider.export_keys();
    let cert = provider.certificate().clone();

    // Session 1: Alice buys, transfers to Bob.
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    sys.fund(&bob, 1_000);
    sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
    sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
    let mut client = WireClient::new(Loopback::new(&service));
    let license = client
        .purchase(&mut alice, &sys.mint, cid, &mut rng)
        .unwrap();
    let old_lid = license.id();
    let saved = license.clone();
    let alice_pseudonym = alice.licenses()[0].pseudonym;
    let bobs_license = client
        .transfer(&mut alice, &mut bob, old_lid, &mut rng)
        .unwrap();
    let seq_before = provider.signed_license_crl(1).body.sequence;
    drop(service);

    // Restart: reload keys from the vault and state from the WAL.
    let keys: p2drm::crypto::rsa::RsaKeyPair = p2drm::codec::from_bytes(&vault).unwrap();
    let (provider, report) = ContentProvider::resume_durable(
        keys,
        cert,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        ONE_SHARD,
        ProviderConfig::fast_test(),
    )
    .unwrap();
    assert!(report.replayed_ops > 0);
    let service = serve(provider, &sys);
    let provider = service.provider();
    let mut client = WireClient::new(Loopback::new(&service));

    // Old licenses still verify under the restored key.
    assert!(bobs_license.verify(provider.public_key()).is_ok());
    // Catalog restored: the download is byte-identical, and new
    // purchases carry the published template.
    assert_eq!(provider.download(&cid).unwrap(), downloaded);
    let mut carol = sys.register_user("carol", &mut rng).unwrap();
    sys.fund(&carol, 1_000);
    sys.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let carols = client
        .purchase(&mut carol, &sys.mint, cid, &mut rng)
        .unwrap();
    assert!(carols.verify(provider.public_key()).is_ok());
    assert_eq!(carols.body.rights, template);

    // Double-redeem of the pre-restart license still rejected, and the
    // license CRL was rebuilt (sequence did not go backwards).
    alice.add_license(saved, alice_pseudonym);
    sys.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let res = client.transfer(&mut alice, &mut carol, old_lid, &mut rng);
    assert!(already_redeemed(&res), "{res:?}");
    assert!(provider.signed_license_crl(2).body.sequence >= seq_before);
    assert!(provider
        .signed_license_crl(2)
        .body
        .list
        .contains(&p2drm::core::entities::provider::license_crl_id(&old_lid)));
}

/// A `WalShardedKv` whose puts under one key prefix fail — a crash
/// between `publish`'s two row writes, as the store sees it.
struct FailPutsUnder {
    inner: WalShardedKv,
    prefix: &'static [u8],
}

impl ConcurrentKv for FailPutsUnder {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), p2drm::store::StoreError> {
        if key.starts_with(self.prefix) {
            return Err(std::io::Error::other("injected write failure").into());
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

/// An item exists after a restart once its `content/` row does, so
/// `publish` writes the rights template first: whichever of its two
/// writes fails, the reopened provider has no item or the item under
/// exactly its template — never one sold under wider rights.
#[test]
fn a_publish_cut_between_its_rows_restores_no_item_or_its_template() {
    let template = Rights::builder()
        .play(Limit::Count(3))
        .transfer(Limit::Count(2))
        .build();
    for prefix in [b"content/".as_slice(), b"rightst/"] {
        let tmp = TempDir::new("publish-cut");
        let mut rng = test_rng(8005);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let (inner, _) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
        let provider = ContentProvider::with_backend(
            &mut sys.root,
            sys.mint.clone(),
            sys.ra.blind_public().clone(),
            FailPutsUnder { inner, prefix },
            ProviderConfig::fast_test(),
            &mut rng,
        );
        let cut = provider.publish("cut", 100, b"payload", template.clone(), &mut rng);
        assert!(cut.is_err(), "a failed row write fails `publish`");
        assert!(provider.list_content().metas().is_empty());
        drop(provider);

        let (provider, _) = ContentProvider::open_durable(
            &mut sys.root,
            sys.mint.clone(),
            sys.ra.blind_public().clone(),
            &tmp.0,
            ONE_SHARD,
            ProviderConfig::fast_test(),
            &mut rng,
        )
        .expect("a cut publish leaves a directory that restores");
        let listed = provider.list_content();
        if let Some(meta) = listed.metas().first() {
            let service = serve(provider, &sys);
            let mut alice = sys.register_user("alice", &mut rng).unwrap();
            sys.fund(&alice, 1_000);
            sys.ensure_pseudonym(&mut alice, &mut rng).unwrap();
            let license = WireClient::new(Loopback::new(&service))
                .purchase(&mut alice, &sys.mint, meta.id, &mut rng)
                .unwrap();
            assert_eq!(
                license.body.rights,
                template,
                "failed {:?} put",
                String::from_utf8_lossy(prefix)
            );
        }
    }
}

/// A store that fails `publish`'s content-row write (a full disk, as
/// the fault plan injects it) gets the error back: the publisher does not
/// panic, the item is not listed, and the next publish succeeds.
#[test]
fn a_publish_whose_content_row_write_fails_returns_the_error() {
    let mut rng = test_rng(8007);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let plan = Arc::new(FaultPlan::new(8007));
    let provider = ContentProvider::with_backend(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        FaultKv::new(MemKv::new(), plan.clone()),
        ProviderConfig::fast_test(),
        &mut rng,
    );
    // `publish` writes the template, then the content row.
    plan.set(
        kv_sites::FAIL_PUT,
        Schedule::OneShot(plan.calls(kv_sites::FAIL_PUT) + 2),
    );
    let res = provider.publish("full disk", 100, b"payload", Rights::default(), &mut rng);
    assert!(res.is_err(), "the injected write failure is returned");
    assert_eq!(plan.fired(kv_sites::FAIL_PUT), 1);
    assert!(provider.list_content().metas().is_empty());
    assert!(provider.store().scan_prefix(b"content/").is_empty());

    let cid = provider
        .publish("retried", 100, b"payload", Rights::default(), &mut rng)
        .unwrap();
    let listed = provider.list_content();
    assert_eq!(listed.metas().len(), 1);
    assert_eq!(listed.metas()[0].id, cid);
}

/// A revocation whose CRL row write fails changes neither CRL: the
/// provider keeps serving the list it had under the same sequence, and
/// the retry is the next sequence, not the one after.
#[test]
fn a_revocation_whose_crl_row_write_fails_leaves_the_crl_unchanged() {
    let mut rng = test_rng(8008);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let plan = Arc::new(FaultPlan::new(8008));
    let provider = ContentProvider::with_backend(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        FaultKv::new(MemKv::new(), plan.clone()),
        ProviderConfig::fast_test(),
        &mut rng,
    );
    let check = |revoke: &dyn Fn(u8) -> Result<(), CoreError>, crl: &dyn Fn() -> SignedCrl| {
        revoke(1).unwrap();
        let before = crl();
        plan.set(
            kv_sites::FAIL_PUT,
            Schedule::OneShot(plan.calls(kv_sites::FAIL_PUT) + 1),
        );
        let fired = plan.fired(kv_sites::FAIL_PUT);
        assert!(revoke(2).is_err(), "the injected write failure is returned");
        assert_eq!(plan.fired(kv_sites::FAIL_PUT), fired + 1);
        let after = crl();
        assert_eq!(after.body.sequence, before.body.sequence);
        assert_eq!(after.body.list, before.body.list);

        revoke(2).unwrap();
        let retried = crl();
        assert_eq!(retried.body.sequence, before.body.sequence + 1);
        assert_eq!(retried.body.list.len(), before.body.list.len() + 1);
    };
    check(
        &|n| provider.revoke_license(&LicenseId::from_label(&n.to_string())),
        &|| provider.signed_license_crl(0),
    );
    check(&|n| provider.revoke_pseudonym(KeyId([n; 32])), &|| {
        provider.signed_pseudonym_crl(0)
    });
}

/// A `content/` row with no `rightst/` row — which a directory written
/// before `publish` wrote the template first can hold — fails the
/// restore, naming the item, instead of selling it under default rights.
#[test]
fn a_content_row_without_its_template_fails_the_restore() {
    let tmp = TempDir::new("orphan-content");
    let mut rng = test_rng(8006);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let item = p2drm::core::content::PackagedContent::package("orphan", 100, b"x", None, &mut rng);
    {
        let (wal, _) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
        let mut key = b"content/".to_vec();
        key.extend_from_slice(item.meta.id.as_bytes());
        wal.put(&key, &p2drm::codec::to_bytes(&item)).unwrap();
    }
    let opened = ContentProvider::open_durable(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        ONE_SHARD,
        ProviderConfig::fast_test(),
        &mut rng,
    );
    match opened {
        Err(e) => assert!(
            e.to_string().contains(&item.meta.id.to_string()),
            "the error names the item: {e}"
        ),
        Ok(_) => panic!("restored an item that has no rights template"),
    }
}

#[test]
fn spent_set_survives_torn_tail() {
    let tmp = TempDir::new("torn");
    {
        let (wal, _) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
        assert!(wal.insert_if_absent(b"spent/lid-A", b"").unwrap());
        assert!(wal.insert_if_absent(b"spent/lid-B", b"").unwrap());
    }
    // Crash mid-append of a third record.
    let log = tmp.0.join(p2drm::faults::crash::shard_wal_name(0));
    let len = std::fs::metadata(&log).unwrap().len();
    p2drm::faults::crash::tear_shard_tail(&tmp.0, 0).unwrap();
    assert!(std::fs::metadata(&log).unwrap().len() > len);

    let (wal, report) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
    assert!(report.truncated_tail);
    // Both complete spends survive; the torn garbage is gone.
    assert!(!wal.insert_if_absent(b"spent/lid-A", b"").unwrap());
    assert!(!wal.insert_if_absent(b"spent/lid-B", b"").unwrap());
    assert!(wal.insert_if_absent(b"spent/lid-C", b"").unwrap());
}

#[test]
fn device_state_survives_restart() {
    // Play counts persisted by a WAL-backed device survive a power cycle:
    // rights exhaustion cannot be reset by rebooting the player.
    let tmp = TempDir::new("device");
    let mut rng = test_rng(8002);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("x", 100, b"payload", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();

    let provider_cert = sys.provider.certificate().clone();
    let ra_blind = sys.ra.blind_public().clone();
    let (wal, _) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
    let mut device = p2drm::core::entities::CompliantDevice::with_store(
        &mut sys.root,
        &provider_cert,
        ra_blind.clone(),
        wal,
        512,
        p2drm::pki::cert::Validity::new(0, u64::MAX / 2),
        &mut rng,
    )
    .unwrap();

    // Exhaust all 3 plays.
    for _ in 0..3 {
        sys.play(&alice, &mut device, &license, &mut rng).unwrap();
    }
    drop(device);

    // Reboot the device over the same store: still exhausted.
    let (wal, report) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
    assert!(report.live_keys >= 1);
    let mut device = p2drm::core::entities::CompliantDevice::with_store(
        &mut sys.root,
        &provider_cert,
        ra_blind,
        wal,
        512,
        p2drm::pki::cert::Validity::new(0, u64::MAX / 2),
        &mut rng,
    )
    .unwrap();
    let res = sys.play(&alice, &mut device, &license, &mut rng);
    assert!(matches!(res, Err(WireError::Client(CoreError::Denied(_)))));
}

/// A transport that fails every `Download` frame: a play through it
/// succeeds only from the ciphertext the device kept.
struct NoDownloads<'s>(Loopback<'s, MemBackend>);

impl Transport for NoDownloads<'_> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        if request.get(1) == Some(&OpCode::Download.byte()) {
            return Err(TransportError::Unreachable("no downloads".to_string()));
        }
        self.0.submit(corr_id, request)
    }

    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        self.0.complete(deadline)
    }
}

#[test]
fn kept_content_survives_restart() {
    // A WAL-backed device keeps the ciphertext its first play fetched:
    // after a power cycle it plays the item again with downloads off.
    let tmp = TempDir::new("device-content");
    let mut rng = test_rng(8003);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let payload = vec![0xC3; 16 * 1024];
    let cid = sys.publish_content("x", 100, &payload, &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 1_000);
    let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();

    let provider_cert = sys.provider.certificate().clone();
    let ra_blind = sys.ra.blind_public().clone();
    let open_device = |sys: &mut System, rng: &mut _| {
        let (wal, _) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
        p2drm::core::entities::CompliantDevice::with_store(
            &mut sys.root,
            &provider_cert,
            ra_blind.clone(),
            wal,
            512,
            p2drm::pki::cert::Validity::new(0, u64::MAX / 2),
            rng,
        )
        .unwrap()
    };
    let mut device = open_device(&mut sys, &mut rng);
    assert_eq!(
        sys.play(&alice, &mut device, &license, &mut rng).unwrap(),
        payload
    );
    drop(device);

    let service = sys.wire_service(0);
    let mut offline = WireClient::new(NoDownloads(Loopback::new(&service)));
    // The transport really refuses downloads: a device that kept nothing
    // cannot play through it.
    let mut fresh = sys.register_device(&mut rng).unwrap();
    assert!(offline
        .play(&alice, &mut fresh, &license, &mut rng)
        .is_err());

    let mut device = open_device(&mut sys, &mut rng);
    assert_eq!(
        offline
            .play(&alice, &mut device, &license, &mut rng)
            .unwrap(),
        payload
    );
    assert_eq!(device.rights_state(&license).unwrap().plays_used, 2);
}

/// Builds a valid transfer request moving `license` to a fresh recipient
/// pseudonym (each request passes every provider check except the
/// spent-ID rule).
fn transfer_request_for(
    sys: &System,
    owner: &UserAgent,
    owner_pseudonym: p2drm::pki::cert::KeyId,
    license: &p2drm::core::license::License,
    tag: &str,
    rng: &mut impl p2drm::crypto::rng::CryptoRng,
) -> TransferRequest {
    let mut recipient = sys.register_user(tag, rng).unwrap();
    sys.ensure_pseudonym(&mut recipient, rng).unwrap();
    let cert = recipient.pseudonym_certs().last().unwrap().clone();
    let proof = owner
        .card
        .sign_with_pseudonym(
            &owner_pseudonym,
            &transfer_proof_bytes(&license.id(), &cert.pseudonym_id()),
        )
        .unwrap();
    TransferRequest {
        license: license.clone(),
        recipient_cert: cert,
        proof,
    }
}

#[test]
fn racing_double_redeem_across_restart_has_exactly_one_winner() {
    // The acceptance race: N threads race the same license id before the
    // restart, the provider is dropped uncleanly, N more race it after
    // resume — exactly one transfer wins across the whole timeline.
    const RACERS_PER_PHASE: usize = 4;
    let tmp = TempDir::new("race");
    let mut rng = test_rng(8102);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let durable = WalShardedConfig {
        shards: 4,
        policy: SyncPolicy::FlushEach,
    };

    let (provider, _) = ContentProvider::open_durable(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        durable,
        ProviderConfig::fast_test(),
        &mut rng,
    )
    .unwrap();
    let service = serve(provider, &sys);
    let provider = service.provider();
    let cid = provider
        .publish(
            "contended",
            100,
            b"payload",
            Rights::builder()
                .play(Limit::Unlimited)
                .transfer(Limit::Count(1))
                .build(),
            &mut rng,
        )
        .unwrap();
    let vault = provider.export_keys();
    let cert = provider.certificate().clone();

    let mut mallory = sys.register_user("mallory", &mut rng).unwrap();
    sys.fund(&mallory, 1_000);
    sys.ensure_pseudonym(&mut mallory, &mut rng).unwrap();
    let epoch = sys.epoch();
    let license = WireClient::new(Loopback::new(&service))
        .purchase(&mut mallory, &sys.mint, cid, &mut rng)
        .unwrap();
    let mallory_pseudonym = mallory.licenses()[0].pseudonym;

    let requests: Vec<TransferRequest> = (0..RACERS_PER_PHASE * 2)
        .map(|i| {
            transfer_request_for(
                &sys,
                &mallory,
                mallory_pseudonym,
                &license,
                &format!("racer-{i}"),
                &mut rng,
            )
        })
        .collect();
    let (pre, post) = requests.split_at(RACERS_PER_PHASE);

    let race = |provider: &ContentProvider<WalShardedKv>, reqs: &[TransferRequest]| -> usize {
        std::thread::scope(|scope| {
            reqs.iter()
                .enumerate()
                .map(|(i, req)| {
                    scope.spawn(move || {
                        let mut rng = test_rng(0xBEEF + i as u64);
                        provider.handle_transfer(req, epoch, &mut rng).is_ok()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&won| won)
                .count()
        })
    };

    let pre_winners = race(provider, pre);
    assert_eq!(pre_winners, 1, "exactly one pre-restart winner");
    drop(service); // unclean: no checkpoint

    let keys: p2drm::crypto::rsa::RsaKeyPair = p2drm::codec::from_bytes(&vault).unwrap();
    let (provider, _) = ContentProvider::resume_durable(
        keys,
        cert,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        durable,
        ProviderConfig::fast_test(),
    )
    .unwrap();

    let post_winners = race(&provider, post);
    assert_eq!(
        pre_winners + post_winners,
        1,
        "a double-redeem race spanning the restart has exactly one winner"
    );
    assert_eq!(provider.spent_count(), 1);
}

#[test]
fn torn_shard_tail_does_not_poison_other_shards() {
    // Crash mid-append on *one* shard of a provider's WalShardedKv: that
    // shard truncates its torn tail, the others replay untouched, and
    // every completed spend is still refused a second redemption.
    let tmp = TempDir::new("torn-shard");
    let mut rng = test_rng(8103);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let durable = WalShardedConfig {
        shards: 4,
        policy: SyncPolicy::FlushEach,
    };

    let spent_keys: Vec<Vec<u8>> = {
        let (store, _) = WalShardedKv::open(&tmp.0, durable).unwrap();
        // Simulate the provider's spent table directly (prefix "spent/"),
        // spreading claims over all shards.
        (0..32u32)
            .map(|i| {
                let key = format!("spent/lid-{i}").into_bytes();
                assert!(store.insert_if_absent(&key, b"").unwrap());
                key
            })
            .collect()
    };
    // Torn garbage on exactly one shard's log.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(tmp.0.join("shard-001.wal"))
            .unwrap();
        f.write_all(&[0x77, 0x00, 0x13]).unwrap();
    }

    // A provider resumed over the damaged directory still refuses every
    // completed spend (and reports exactly one truncated shard).
    let (provider, report) = ContentProvider::open_durable(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        durable,
        ProviderConfig::fast_test(),
        &mut rng,
    )
    .unwrap();
    assert!(report.truncated_tail);
    let torn = provider
        .store()
        .shard_recovery()
        .iter()
        .filter(|r| r.truncated_tail)
        .count();
    assert_eq!(torn, 1, "only the damaged shard truncated");
    assert_eq!(provider.spent_count(), 32, "no completed claim lost");
    for key in &spent_keys {
        assert!(
            !provider.store().insert_if_absent(key, b"").unwrap(),
            "spent id survived the torn tail"
        );
    }
}

#[test]
fn injected_sync_failure_poisons_one_shard_and_restart_recovers() {
    // Recovery drill for the group-commit fail-stop path: arm the
    // store's fault hook so one commit's fsync fails mid-run — what a
    // dying disk does — then check the blast radius is exactly one
    // shard (its writers error, reads keep serving, other shards keep
    // committing) and that a restart recovers every durable claim.
    let tmp = TempDir::new("inject-sync");
    let durable = WalShardedConfig {
        shards: 4,
        policy: SyncPolicy::SyncEach,
    };

    let mut pre_keys = Vec::new();
    let mut committed_after = Vec::new();
    {
        let (store, _) = WalShardedKv::open(&tmp.0, durable).unwrap();
        for i in 0..16u32 {
            let key = format!("spent/pre-{i}").into_bytes();
            assert!(store.insert_if_absent(&key, b"").unwrap());
            pre_keys.push(key);
        }

        store.inject_sync_failure();
        let victim = b"spent/victim".to_vec();
        assert!(
            store.insert_if_absent(&victim, b"").is_err(),
            "the injected fsync failure must surface to the writer"
        );

        // Fail-stop is per shard: the victim's shard refuses all further
        // writes, every other shard keeps accepting. Sixteen keys spread
        // over 4 shards, so both classes must be non-empty.
        let mut refused = 0usize;
        for i in 0..16u32 {
            let key = format!("spent/post-{i}").into_bytes();
            match store.insert_if_absent(&key, b"") {
                Ok(inserted) => {
                    assert!(inserted);
                    committed_after.push(key);
                }
                Err(_) => refused += 1,
            }
        }
        assert!(refused > 0, "the poisoned shard refuses writes");
        assert!(
            !committed_after.is_empty(),
            "healthy shards keep committing"
        );
        // Reads still serve on every shard, poisoned included.
        for key in &pre_keys {
            assert!(store.contains(key));
        }
    }

    // Restart over the directory: every claim that was acknowledged
    // durable — before the fault and on healthy shards after it — is
    // still refused a second insertion.
    let (store, _report) = WalShardedKv::open(&tmp.0, durable).unwrap();
    for key in pre_keys.iter().chain(&committed_after) {
        assert!(
            !store.insert_if_absent(key, b"").unwrap(),
            "acknowledged claim lost across the poison/restart drill"
        );
    }
    // And the recovered store is fully writable again on all shards.
    for i in 0..16u32 {
        let key = format!("spent/fresh-{i}").into_bytes();
        assert!(store.insert_if_absent(&key, b"").unwrap());
    }
}
