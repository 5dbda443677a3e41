//! What the provider keeps per issued license: one `lic/<license id>` row
//! holding the holder's 32-byte key id (`LicenseRecord`), not the signed
//! license. These tests pin the three consequences: an unreadable row is
//! an error (never "not issued"), storage per sale is a small constant,
//! and the shard files hold nothing of a license beyond that key id.

use p2drm::core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm::core::protocol::messages::LicenseStatus;
use p2drm::core::service::{Loopback, ProviderService, WireClient};
use p2drm::crypto::rng::CryptoRng;
use p2drm::pki::cert::KeyId;
use p2drm::prelude::*;
use p2drm::store::{ConcurrentKv, SyncPolicy, WalShardedConfig, WalShardedKv};
use std::path::PathBuf;
use std::sync::Arc;

/// Self-cleaning unique temp directory (a `WalShardedKv` store).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "p2drm-int-license-record-{}-{tag}",
            std::process::id()
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

fn durable(shards: usize) -> WalShardedConfig {
    WalShardedConfig {
        shards,
        policy: SyncPolicy::FlushEach,
    }
}

fn lic_key(lid: &LicenseId) -> Vec<u8> {
    [b"lic/", &lid.as_bytes()[..]].concat()
}

fn occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

/// A durable provider beside the system that certifies it, plus every
/// license it issued, in issue order, each with whether a transfer has
/// since retired it.
struct Shop {
    sys: System,
    provider: Arc<ContentProvider<WalShardedKv>>,
    cid: ContentId,
    issued: Vec<(License, bool)>,
}

impl Shop {
    fn open(dir: &TempDir, shards: usize, rng: &mut impl CryptoRng) -> Shop {
        let mut sys = System::bootstrap(SystemConfig::fast_test(), rng);
        let (store, _) = WalShardedKv::open(&dir.0, durable(shards)).expect("fresh directory");
        let provider = ContentProvider::with_backend(
            &mut sys.root,
            sys.mint.clone(),
            sys.ra.blind_public().clone(),
            store,
            ProviderConfig::fast_test(),
            rng,
        );
        let rights = Rights::builder()
            .play(Limit::Unlimited)
            .transfer(Limit::Count(2))
            .build();
        let cid = provider
            .publish("Track", 100, b"payload", rights, rng)
            .unwrap();
        Shop {
            sys,
            provider: Arc::new(provider),
            cid,
            issued: Vec::new(),
        }
    }

    /// `buyers` users buy once each, then every other buyer passes the
    /// license on to a fresh recipient; every pseudonym is used once.
    /// Returns the log growth of each purchase and of each transfer.
    fn trade(&mut self, buyers: usize, rng: &mut impl CryptoRng) -> (Vec<u64>, Vec<u64>) {
        let (mut per_purchase, mut per_transfer) = (Vec::new(), Vec::new());
        let (sys, provider) = (&self.sys, &self.provider);
        let service = ProviderService::new(provider.clone(), 0);
        service.set_time(sys.epoch(), sys.now());
        let mut client = WireClient::new(Loopback::new(&service));
        let log_bytes = || provider.store().log_bytes();
        let mut owners = Vec::new();
        for i in 0..buyers {
            let mut user = sys.register_user(&format!("buyer-{i}"), rng).unwrap();
            sys.fund(&user, 100);
            sys.ensure_pseudonym(&mut user, rng).unwrap();
            let before = log_bytes();
            let license = client
                .purchase(&mut user, &sys.mint, self.cid, rng)
                .unwrap();
            per_purchase.push(log_bytes() - before);
            self.issued.push((license, false));
            owners.push(user);
        }
        for (i, owner) in owners.iter_mut().enumerate().step_by(2) {
            let mut heir = sys.register_user(&format!("heir-{i}"), rng).unwrap();
            sys.ensure_pseudonym(&mut heir, rng).unwrap();
            let lid = self.issued[i].0.id();
            let before = log_bytes();
            let successor = client.transfer(owner, &mut heir, lid, rng).unwrap();
            per_transfer.push(log_bytes() - before);
            self.issued[i].1 = true;
            self.issued.push((successor, false));
        }
        (per_purchase, per_transfer)
    }

    /// Stops the provider and resumes one from the directory and the
    /// operator's key vault alone, as after a process restart.
    fn cold_reopen(self, dir: &TempDir, shards: usize) -> Shop {
        let keys = p2drm::codec::from_bytes(&self.provider.export_keys()).unwrap();
        let cert = self.provider.certificate().clone();
        drop(self.provider);
        let (store, report) = WalShardedKv::open(&dir.0, durable(shards)).unwrap();
        assert!(report.replayed_ops > 0);
        let provider = ContentProvider::resume(
            keys,
            cert,
            self.sys.mint.clone(),
            self.sys.ra.blind_public().clone(),
            store,
            ProviderConfig::fast_test(),
        )
        .unwrap();
        Shop {
            provider: Arc::new(provider),
            ..self
        }
    }
}

/// ROADMAP item 4(b), "provider storage per purchase", as a committed
/// number. A WAL frame is 8 bytes of length + CRC around op, key and
/// value, the last two length-prefixed:
///
/// * `lic/<16-byte id>` → 32-byte key id: 8 + 1 + (1 + 20) + (1 + 32);
/// * retiring an id adds `spent/<id>` → successor id (8 + 1 + 23 +
///   (1 + 17)) and `crl/l/<32-byte digest>` → sequence (8 + 1 + 39 + 9).
const LIC_ROW_BYTES: u64 = 63;
const RETIRE_ROWS_BYTES: u64 = 50 + 57;

#[test]
fn storage_per_sale_is_a_small_constant_and_survives_a_cold_reopen() {
    for shards in [1, 8] {
        let dir = TempDir::new(&format!("storage-{shards}"));
        let mut rng = test_rng(2110 + shards as u64);
        let mut shop = Shop::open(&dir, shards, &mut rng);
        let (per_purchase, per_transfer) = shop.trade(4, &mut rng);

        // One `lic/` row per purchase; a transfer retires the old id and
        // writes exactly one more `lic/` row for the successor.
        assert_eq!(per_purchase, [LIC_ROW_BYTES; 4], "{shards} shard(s)");
        assert_eq!(
            per_transfer,
            [RETIRE_ROWS_BYTES + LIC_ROW_BYTES; 2],
            "{shards} shard(s)"
        );

        let shop = shop.cold_reopen(&dir, shards);
        assert_eq!(shop.provider.license_count(), shop.issued.len());
        for (license, retired) in &shop.issued {
            let expect = if *retired {
                LicenseStatus::Transferred
            } else {
                LicenseStatus::Active {
                    holder: KeyId::of_rsa(&license.body.holder),
                }
            };
            assert_eq!(shop.provider.license_status(&license.id()).unwrap(), expect);
        }
    }
}

/// First slice of ROADMAP item 7(a): of everything a license is made of,
/// only the holder's key id reaches the provider's disk.
#[test]
fn shard_files_hold_no_license_material_beyond_the_holder_key_id() {
    let shards = 8;
    let dir = TempDir::new("minimal");
    let mut rng = test_rng(2120);
    let mut shop = Shop::open(&dir, shards, &mut rng);
    shop.trade(6, &mut rng);
    // Closing the store flushes whatever the policy left buffered.
    let issued = shop.issued;
    drop(shop.provider);

    let mut disk = Vec::new();
    for shard in 0..shards {
        let path = dir.0.join(p2drm::faults::crash::shard_wal_name(shard));
        disk.extend(std::fs::read(path).unwrap());
    }
    assert_eq!(issued.len(), 9);
    for (license, _) in &issued {
        let body = &license.body;
        let modulus = body.holder.modulus().to_bytes_be();
        let signature = license.signature.as_ubig().to_bytes_be();
        assert!(modulus.len() >= 64 && signature.len() >= 60);
        assert_eq!(occurrences(&disk, &modulus), 0, "holder modulus on disk");
        assert_eq!(
            occurrences(&disk, &body.key_envelope.kem_ct),
            0,
            "key envelope on disk"
        );
        assert_eq!(occurrences(&disk, &signature), 0, "signature on disk");
        // What *is* kept: the holder pseudonym's key id, which the
        // purchase request already showed the provider — once per row,
        // and a retired id keeps its row, so once per license issued.
        assert_eq!(
            occurrences(&disk, &body.holder.fingerprint()),
            1,
            "exactly one row names the holder"
        );
        assert_eq!(occurrences(&disk, &lic_key(&license.id())), 1);
    }
}

#[test]
fn an_unreadable_row_is_an_internal_error_not_unknown() {
    let mut rng = test_rng(2130);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let cid = sys.publish_content("Track", 100, b"X", &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    sys.fund(&alice, 200);
    let legacy = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let truncated = sys.purchase(&mut alice, cid, &mut rng).unwrap();
    let never_issued = LicenseId::random(&mut rng);

    // A directory written before `LicenseRecord` holds the whole signed
    // license under the same key; there is no fallback decoder for it.
    let store = sys.provider.store();
    let legacy_bytes = p2drm::codec::to_bytes(&legacy);
    assert!(legacy_bytes.len() > 300);
    store.put(&lic_key(&legacy.id()), &legacy_bytes).unwrap();
    let record = store.get(&lic_key(&truncated.id())).unwrap();
    assert_eq!(record, KeyId::of_rsa(&truncated.body.holder).0);
    store.put(&lic_key(&truncated.id()), &record[..31]).unwrap();

    let service = sys.wire_service(2131);
    let mut client = WireClient::new(Loopback::new(&service));
    for lid in [legacy.id(), truncated.id()] {
        assert!(sys.provider.license_status(&lid).is_err());
        match client.license_status(lid) {
            Err(WireError::Api(e)) => assert_eq!(e.code, ApiErrorCode::Internal, "{e}"),
            other => panic!("unreadable row answered {other:?}"),
        }
    }
    assert_eq!(
        sys.provider.license_status(&never_issued).unwrap(),
        LicenseStatus::Unknown
    );
    assert_eq!(
        client.license_status(never_issued).unwrap(),
        LicenseStatus::Unknown
    );

    // The same holds for the table consulted first: a `spent/` mark that
    // does not decode must not fall through to "still active".
    let mut spent_key = b"spent/".to_vec();
    spent_key.extend_from_slice(never_issued.as_bytes());
    store.put(&spent_key, b"\x01").unwrap();
    assert!(sys.provider.license_status(&never_issued).is_err());
}
