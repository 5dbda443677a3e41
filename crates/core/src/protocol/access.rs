//! Content access on a compliant device.
//!
//! Device checks (license sig, CRLs, holder proof, rights), card key
//! release sealed to the device key, decryption, and rights-state
//! consumption — the full enforcement loop — run on the device for every
//! play. The ciphertext comes from the device's own `content/` row when
//! an earlier play kept it; only when the row is missing does the
//! anonymous [`DownloadRequest`] go out. So the provider sees one
//! download per device and item, not one per play, and never learns
//! when a kept item is played again.

use crate::entities::device::{challenge_message, CompliantDevice};
use crate::entities::user::UserAgent;
use crate::license::License;
use crate::protocol::messages::{DownloadRequest, DownloadResponse};
use crate::CoreError;
use p2drm_crypto::rng::CryptoRng;
use p2drm_rel::AccessRequest;
use p2drm_store::ConcurrentKv;

/// One play at time `now`: holder challenge, card proof, device
/// compliance check and key release; then the item's ciphertext — the
/// device's kept row, or else `fetch`'s answer to the one message that
/// may cross the wire — decrypted and the play consumed. A fetched item
/// is kept for the next play once this one has succeeded.
pub fn play<SD, R, E>(
    user: &UserAgent,
    device: &mut CompliantDevice<SD>,
    license: &License,
    now: u64,
    rng: &mut R,
    fetch: impl FnOnce(DownloadRequest) -> Result<DownloadResponse, E>,
) -> Result<Vec<u8>, E>
where
    SD: ConcurrentKv,
    R: CryptoRng + ?Sized,
    E: From<CoreError>,
{
    let owned = user
        .license(&license.id())
        .ok_or(CoreError::UnknownLicense(license.id()))?;
    let pseudonym_cert = user
        .pseudonym_certs()
        .iter()
        .find(|c| c.pseudonym_id() == owned.pseudonym)
        .ok_or(CoreError::BadPseudonym(
            "certificate for holder key missing",
        ))?;

    let nonce = device.make_challenge(rng);
    let proof_sig = user
        .card
        .sign_with_pseudonym(&owned.pseudonym, &challenge_message(&nonce, &license.id()))?;
    let access = AccessRequest::play(now, device.binding_id());
    device.check_access(license, Some(pseudonym_cert), &nonce, &proof_sig, &access)?;
    let sealed = user.card.unwrap_and_reseal(
        &owned.pseudonym,
        &license.body.key_envelope,
        device.public_key(),
        rng,
    )?;
    let content_key = device.open_sealed_key(&sealed)?;

    let content_id = license.body.content_id;
    let (item, fetched) = match device.held_content(&content_id) {
        Some(item) => (item, false),
        None => (fetch(DownloadRequest { content_id })?, true),
    };
    let payload = crate::content::decrypt_payload(&content_key, &item.nonce, &item.ciphertext);
    device.consume(license, &access)?;
    if fetched {
        device.hold_content(content_id, &item);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::device::CONTENT_BUDGET;
    use crate::ids::ContentId;
    use crate::system::{System, SystemConfig};
    use p2drm_crypto::rng::test_rng;
    use p2drm_pki::cert::{KeyId, Validity};
    use p2drm_store::{MemKv, SyncPolicy, WalShardedConfig, WalShardedKv};

    struct Fx {
        sys: System,
        alice: UserAgent,
        device: CompliantDevice,
        license: License,
    }

    fn fixture(seed: u64) -> Fx {
        let mut rng = test_rng(seed);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let cid = sys.publish_content("T", 100, b"SECRET AUDIO", &mut rng);
        let mut alice = sys.register_user("alice", &mut rng).unwrap();
        sys.fund(&alice, 1000);
        let license = sys.purchase(&mut alice, cid, &mut rng).unwrap();
        let device = sys.register_device(&mut rng).unwrap();
        Fx {
            sys,
            alice,
            device,
            license,
        }
    }

    /// Plays from the device's kept row: a fetch fails the test.
    fn play_kept<SD: ConcurrentKv>(
        user: &UserAgent,
        device: &mut CompliantDevice<SD>,
        license: &License,
        now: u64,
    ) -> Result<Vec<u8>, CoreError> {
        play(user, device, license, now, &mut test_rng(190), |_| {
            panic!("the device holds the item; nothing may be fetched")
        })
    }

    /// A fixture whose device kept the item on its first play.
    fn played_once(seed: u64) -> Fx {
        let mut f = fixture(seed);
        f.sys
            .play(&f.alice, &mut f.device, &f.license, &mut test_rng(seed + 1))
            .unwrap();
        assert!(f.device.held_content(&f.license.body.content_id).is_some());
        f
    }

    #[test]
    fn kept_row_does_not_bypass_the_holder_proof() {
        let mut f = played_once(194);
        let bob = f.sys.register_user("bob", &mut test_rng(195)).unwrap();
        let res = play_kept(&bob, &mut f.device, &f.license, f.sys.now());
        assert!(res.is_err(), "{res:?}");
        assert_eq!(f.device.rights_state(&f.license).unwrap().plays_used, 1);
    }

    #[test]
    fn one_crl_in_both_slots_is_refused_and_the_revoked_license_stays_revoked() {
        let mut f = played_once(199);
        let provider = &f.sys.provider;
        provider.revoke_license(&f.license.id()).unwrap();
        // An unrelated revocation: both lists now read sequence 1.
        provider.revoke_pseudonym(KeyId([7; 32])).unwrap();
        let (licenses, pseudonyms) = (
            provider.signed_license_crl(50),
            provider.signed_pseudonym_crl(50),
        );
        assert_eq!(licenses.body.sequence, pseudonyms.body.sequence);
        f.device.sync_crls(&licenses, &pseudonyms).unwrap();
        let now = f.sys.now();
        let res = play_kept(&f.alice, &mut f.device, &f.license, now);
        assert!(matches!(res, Err(CoreError::Revoked("license"))), "{res:?}");

        // The holder relays the pseudonym list in the license slot.
        let swapped = f.device.sync_crls(&pseudonyms, &pseudonyms);
        assert!(
            swapped.is_err(),
            "the pseudonym list passed as the license list"
        );
        let res = play_kept(&f.alice, &mut f.device, &f.license, now);
        assert!(matches!(res, Err(CoreError::Revoked("license"))), "{res:?}");
        assert_eq!(f.device.rights_state(&f.license).unwrap().plays_used, 1);
    }

    /// A device rebooted over its one-shard store enforces the CRL pair
    /// it accepted before the reboot: a revoked license stays revoked.
    #[test]
    fn a_rebooted_device_keeps_its_crls() {
        let mut f = fixture(192);
        let dir = std::env::temp_dir().join(format!("p2drm-device-crls-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let one_shard = WalShardedConfig {
            shards: 1,
            policy: SyncPolicy::FlushEach,
        };
        let boot = |sys: &mut System| {
            let store = WalShardedKv::open(&dir, one_shard).unwrap().0;
            let cert = sys.provider.certificate().clone();
            let (ra, validity) = (sys.ra.blind_public().clone(), sys.config().validity);
            let rng = &mut test_rng(193);
            CompliantDevice::with_store(&mut sys.root, &cert, ra, store, 512, validity, rng)
                .unwrap()
        };
        let mut device = boot(&mut f.sys);
        let rng = &mut test_rng(194);
        f.sys.play(&f.alice, &mut device, &f.license, rng).unwrap();
        let provider = &f.sys.provider;
        provider.revoke_license(&f.license.id()).unwrap();
        let now = f.sys.now();
        let (licenses, pseudonyms) = (
            provider.signed_license_crl(now),
            provider.signed_pseudonym_crl(now),
        );
        device.sync_crls(&licenses, &pseudonyms).unwrap();
        // A re-sync at the held sequences writes no second row.
        let log = || std::fs::metadata(dir.join("shard-000.wal")).unwrap().len();
        let synced = log();
        device.sync_crls(&licenses, &pseudonyms).unwrap();
        assert_eq!(log(), synced);
        drop(device);

        let mut device = boot(&mut f.sys);
        assert_eq!(device.crl_sequence(), 1);
        let res = play_kept(&f.alice, &mut device, &f.license, now);
        assert!(matches!(res, Err(CoreError::Revoked("license"))), "{res:?}");
        drop(device);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An item a third of the budget long: three rows are a few bytes
    /// over it, so two fit.
    fn third_of_budget(fill: u8) -> DownloadResponse {
        DownloadResponse {
            nonce: [fill; 12],
            ciphertext: vec![fill; CONTENT_BUDGET / 3],
        }
    }

    #[test]
    fn kept_rows_evict_oldest_fetched_first() {
        let mut f = fixture(196);
        let item = third_of_budget;
        let ids: Vec<ContentId> = (0..4).map(|i| ContentId([i; 16])).collect();
        for (&id, fill) in ids.iter().zip(1..) {
            f.device.hold_content(id, &item(fill));
        }
        let held: Vec<bool> = ids
            .iter()
            .map(|id| f.device.held_content(id).is_some())
            .collect();
        assert_eq!(held, [false, false, true, true]);
        assert_eq!(f.device.held_content(&ids[3]), Some(item(4)));

        // An item over the whole budget is not kept, and evicts nothing.
        let huge = DownloadResponse {
            nonce: [9; 12],
            ciphertext: vec![9; CONTENT_BUDGET],
        };
        f.device.hold_content(ContentId([9; 16]), &huge);
        assert_eq!(f.device.held_content(&ContentId([9; 16])), None);
        assert!(f.device.held_content(&ids[2]).is_some());
    }

    #[test]
    fn reopened_device_counts_the_rows_it_finds() {
        // A store that already holds two kept rows, as a durable device
        // finds its own after a restart: the third item evicts one.
        let mut f = fixture(197);
        let store = MemKv::new();
        let ids: Vec<ContentId> = (0..3).map(|i| ContentId([i; 16])).collect();
        for (id, fill) in ids[..2].iter().zip(1..) {
            let key = [b"content/".as_slice(), id.as_bytes()].concat();
            store
                .put(&key, &p2drm_codec::to_bytes(&third_of_budget(fill)))
                .unwrap();
        }
        let provider_cert = f.sys.provider.certificate().clone();
        let mut device = CompliantDevice::with_store(
            &mut f.sys.root,
            &provider_cert,
            f.sys.ra.blind_public().clone(),
            store,
            512,
            Validity::new(0, u64::MAX / 2),
            &mut test_rng(198),
        )
        .unwrap();
        device.hold_content(ids[2], &third_of_budget(3));
        let held: Vec<bool> = ids
            .iter()
            .map(|id| device.held_content(id).is_some())
            .collect();
        assert_eq!(held, [false, true, true]);
    }
}
