//! Durability integration: what the model (`tests/model.rs`) does not
//! draw. The model restarts the provider over `FaultKv<WalShardedKv>`
//! (the key vault, torn shard tails, row writes cut short) and reboots
//! its devices; these tests hold a publish cut between its rows, the
//! error a failed content-row write returns, a directory that fails its
//! restore, the double-redeem race across a restart and a shard
//! poisoned by a failed fsync.

use p2drm::core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm::core::protocol::messages::{transfer_proof_bytes, TransferRequest};
use p2drm::core::service::{Loopback, ProviderService, WireClient};
use p2drm::crypto::rsa::RsaKeyPair;
use p2drm::faults::{kv_sites, FaultKv, FaultPlan, Schedule};
use p2drm::pki::cert::Certificate;
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

/// The wire service over a provider opened beside `sys`, at `sys`'s
/// clock — what `System` keeps for its own provider. Dropping it (and
/// every client on it) is the provider's unclean stop.
fn serve(provider: ContentProvider<WalShardedKv>, sys: &System) -> ProviderService<WalShardedKv> {
    let service = ProviderService::new(Arc::new(provider), 0);
    service.set_time(sys.epoch(), sys.now());
    service
}

/// What the operator's vault holds for `provider`: its signing keys and
/// certificate, what `ContentProvider::resume` takes.
fn vault(provider: &ContentProvider<impl ConcurrentKv>) -> (RsaKeyPair, Certificate) {
    let keys = p2drm::codec::from_bytes(&provider.export_keys()).unwrap();
    (keys, provider.certificate().clone())
}

/// The smallest durable store: one WAL, what a device or a single-threaded
/// provider runs on.
const ONE_SHARD: WalShardedConfig = WalShardedConfig {
    shards: 1,
    policy: SyncPolicy::FlushEach,
};

/// `publish` writes the rights template, then the content row, and an
/// item exists after a restart once its `content/` row does. Whichever
/// write fails, `publish` returns the error and lists nothing, the next
/// publish succeeds, and the resumed provider lists only that item: never
/// one without its template.
#[test]
fn a_publish_cut_between_its_rows_restores_no_item_or_its_template() {
    let template = Rights::builder()
        .play(Limit::Count(3))
        .transfer(Limit::Count(2))
        .build();
    for put in 1..=2 {
        let tmp = TempDir::new("publish-cut");
        let mut rng = test_rng(8005);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let plan = Arc::new(FaultPlan::new(8005));
        let open = || {
            FaultKv::new(
                WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap().0,
                plan.clone(),
            )
        };
        let (mint, ra) = (sys.mint.clone(), sys.ra.blind_public().clone());
        let config = ProviderConfig::fast_test();
        let provider =
            ContentProvider::with_backend(&mut sys.root, mint, ra, open(), config, &mut rng);
        let fail_put = plan.calls(kv_sites::FAIL_PUT) + put;
        plan.set(kv_sites::FAIL_PUT, Schedule::OneShot(fail_put));
        let cut = provider.publish("cut", 100, b"payload", template.clone(), &mut rng);
        assert!(
            cut.is_err(),
            "put {put}: the injected write failure is returned"
        );
        assert_eq!(plan.fired(kv_sites::FAIL_PUT), 1);
        assert!(provider.list_content().metas().is_empty());
        assert!(provider.store().scan_prefix(b"content/").is_empty());
        let cid = provider
            .publish("retried", 100, b"payload", template.clone(), &mut rng)
            .unwrap();
        let (keys, cert) = vault(&provider);
        drop(provider);

        let (mint, ra) = (sys.mint.clone(), sys.ra.blind_public().clone());
        let config = ProviderConfig::fast_test();
        let provider = ContentProvider::resume(keys, cert, mint, ra, open(), config)
            .expect("a cut publish leaves a directory that restores");
        let listed: Vec<ContentId> = provider
            .list_content()
            .metas()
            .iter()
            .map(|m| m.id)
            .collect();
        assert_eq!(listed, [cid], "put {put}");
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

/// A `content/` row with no `rightst/` row — which a directory written
/// before `publish` wrote the template first can hold — fails the
/// restore, naming the item, instead of selling it under default rights.
#[test]
fn a_content_row_without_its_template_fails_the_restore() {
    let tmp = TempDir::new("orphan-content");
    let mut rng = test_rng(8006);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let item = p2drm::core::content::PackagedContent::package("orphan", 100, b"x", None, &mut rng);
    let (mint, ra) = (sys.mint.clone(), sys.ra.blind_public().clone());
    let (keys, cert) = {
        let (wal, _) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
        let config = ProviderConfig::fast_test();
        let provider = ContentProvider::with_backend(
            &mut sys.root,
            mint.clone(),
            ra.clone(),
            wal,
            config,
            &mut rng,
        );
        let key = [b"content/", item.meta.id.as_bytes().as_slice()].concat();
        provider
            .store()
            .put(&key, &p2drm::codec::to_bytes(&item))
            .unwrap();
        vault(&provider)
    };
    let (wal, _) = WalShardedKv::open(&tmp.0, ONE_SHARD).unwrap();
    let opened = ContentProvider::resume(keys, cert, mint, ra, wal, ProviderConfig::fast_test());
    match opened {
        Err(e) => assert!(
            e.to_string().contains(&item.meta.id.to_string()),
            "the error names the item: {e}"
        ),
        Ok(_) => panic!("restored an item that has no rights template"),
    }
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

    let (wal, _) = WalShardedKv::open(&tmp.0, durable).unwrap();
    let provider = ContentProvider::with_backend(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        wal,
        ProviderConfig::fast_test(),
        &mut rng,
    );
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
    let (keys, cert) = vault(provider);

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

    let (wal, _) = WalShardedKv::open(&tmp.0, durable).unwrap();
    let (mint, ra) = (sys.mint.clone(), sys.ra.blind_public().clone());
    let provider =
        ContentProvider::resume(keys, cert, mint, ra, wal, ProviderConfig::fast_test()).unwrap();

    let post_winners = race(&provider, post);
    assert_eq!(
        pre_winners + post_winners,
        1,
        "a double-redeem race spanning the restart has exactly one winner"
    );
    assert_eq!(provider.spent_count(), 1);
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
