//! Durability integration: the spent-ID store (the paper's
//! double-redemption mechanism) over the WAL-backed store survives
//! restarts and torn writes.

use p2drm::core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm::core::protocol::messages::{transfer_proof_bytes, TransferRequest};
use p2drm::core::service::{Loopback, ProviderService, WireClient};
use p2drm::prelude::*;
use p2drm::store::{ConcurrentKv, SyncPolicy, WalShardedConfig, WalShardedKv};
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
fn provider_spent_set_is_durable() {
    use SyncPolicy::{Buffered, FlushEach, SyncEach};
    for policy in [Buffered, FlushEach, SyncEach] {
        spent_set_is_durable_under(policy);
    }
}

fn spent_set_is_durable_under(policy: SyncPolicy) {
    let config = WalShardedConfig { shards: 1, policy };
    let tmp = TempDir::new("spent");
    let mut rng = test_rng(8001);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);

    // A provider whose store is WAL-backed.
    let (provider, _) = ContentProvider::open_durable(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        config,
        ProviderConfig::fast_test(),
        &mut rng,
    )
    .unwrap();
    let service = serve(provider, &sys);
    let provider = service.provider();
    let cid = provider.publish(
        "durable",
        100,
        b"payload",
        Rights::builder()
            .play(Limit::Unlimited)
            .transfer(Limit::Count(2))
            .build(),
        &mut rng,
    );

    // Run a purchase + transfer against this provider.
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
    let lid = license.id();
    client
        .transfer(&mut alice, &mut bob, lid, &mut rng)
        .unwrap();
    assert_eq!(provider.spent_count(), 1);

    // "Restart": drop the provider, reopen the WAL from disk, and verify
    // the spent id is still present — a rebooted provider could never be
    // tricked into re-transferring the old license.
    drop(service);
    let (wal, report) = WalShardedKv::open(&tmp.0, config).unwrap();
    assert!(report.replayed_ops >= 2, "license + spent entries replayed");
    let mut spent_key = b"spent/".to_vec();
    spent_key.extend_from_slice(lid.as_bytes());
    assert!(
        wal.contains(&spent_key),
        "spent license id survived the restart"
    );
}

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
    let cid = provider.publish(
        "persistent hit",
        100,
        b"payload bytes",
        Rights::builder()
            .play(Limit::Unlimited)
            .transfer(Limit::Count(3))
            .build(),
        &mut rng,
    );
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
    let seq_before = provider.signed_license_crl(1).sequence;
    drop(service);

    // Restart: reload keys from the vault and state from the WAL.
    let keys: p2drm::crypto::rsa::RsaKeyPair = p2drm::codec::from_bytes(&vault).unwrap();
    let (provider, report) = ContentProvider::resume_durable(
        keys,
        cert,
        sys.root.public_key().clone(),
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
    // Catalog restored: downloads and new purchases work.
    assert!(provider.download(&cid).is_ok());
    let mut carol = sys.register_user("carol", &mut rng).unwrap();
    sys.fund(&carol, 1_000);
    sys.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let carols = client
        .purchase(&mut carol, &sys.mint, cid, &mut rng)
        .unwrap();
    assert!(carols.verify(provider.public_key()).is_ok());

    // Double-redeem of the pre-restart license still rejected, and the
    // license CRL was rebuilt (sequence did not go backwards).
    alice.add_license(saved, alice_pseudonym);
    sys.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let res = client.transfer(&mut alice, &mut carol, old_lid, &mut rng);
    assert!(already_redeemed(&res), "{res:?}");
    assert!(provider.signed_license_crl(2).sequence >= seq_before);
    assert!(provider
        .signed_license_crl(2)
        .list
        .contains(&p2drm::core::entities::provider::license_crl_id(&old_lid)));
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
fn durable_provider_restart_preserves_redeem_once() {
    // The open_durable/resume_durable lifecycle over a WalShardedKv:
    // purchase → spend (transfer) → unclean drop → resume from the WAL
    // directory. The reopened provider must refuse to redeem the spent id
    // again, keep its catalog, and keep serving new purchases.
    let tmp = TempDir::new("restart");
    let mut rng = test_rng(8101);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let durable = WalShardedConfig {
        shards: 4,
        policy: SyncPolicy::FlushEach,
    };

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
    assert_eq!(report.replayed_ops, 0, "fresh directory");
    let service = serve(provider, &sys);
    let provider = service.provider();
    let cid = provider.publish(
        "durable hit",
        100,
        b"payload",
        Rights::builder()
            .play(Limit::Unlimited)
            .transfer(Limit::Count(3))
            .build(),
        &mut rng,
    );
    let vault = provider.export_keys();
    let cert = provider.certificate().clone();

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
    client
        .transfer(&mut alice, &mut bob, old_lid, &mut rng)
        .unwrap();
    assert_eq!(provider.spent_count(), 1);

    // Unclean drop: no explicit flush/checkpoint call.
    drop(service);

    let keys: p2drm::crypto::rsa::RsaKeyPair = p2drm::codec::from_bytes(&vault).unwrap();
    let (provider, report) = ContentProvider::resume_durable(
        keys,
        cert,
        sys.root.public_key().clone(),
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        &tmp.0,
        durable,
        ProviderConfig::fast_test(),
    )
    .unwrap();
    assert!(
        report.replayed_ops >= 2,
        "content + license + spent replayed"
    );
    let service = serve(provider, &sys);
    let provider = service.provider();
    let mut client = WireClient::new(Loopback::new(&service));
    assert_eq!(provider.spent_count(), 1, "spent set survived");
    assert!(provider.download(&cid).is_ok(), "catalog survived");

    // Double-redeem of the pre-restart license id is still refused.
    alice.add_license(saved, alice_pseudonym);
    let mut carol = sys.register_user("carol", &mut rng).unwrap();
    sys.ensure_pseudonym(&mut carol, &mut rng).unwrap();
    let res = client.transfer(&mut alice, &mut carol, old_lid, &mut rng);
    assert!(already_redeemed(&res), "{res:?}");

    // And the reopened provider still sells.
    sys.fund(&carol, 1_000);
    let carols = client
        .purchase(&mut carol, &sys.mint, cid, &mut rng)
        .unwrap();
    assert!(carols.verify(provider.public_key()).is_ok());
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
    let cid = provider.publish(
        "contended",
        100,
        b"payload",
        Rights::builder()
            .play(Limit::Unlimited)
            .transfer(Limit::Count(1))
            .build(),
        &mut rng,
    );
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
        sys.root.public_key().clone(),
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
