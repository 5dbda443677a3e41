//! Shared fixtures for the benchmark suite.
//!
//! Each `benches/*.rs` file says in its first line why it is kept beside
//! the benchmark ledger (`BENCHMARK.json`); this library centralizes the
//! setup they share so per-iteration work measures exactly the operation
//! under test.

use p2drm_core::entities::user::UserAgent;
use p2drm_core::ids::ContentId;
use p2drm_core::license::License;
use p2drm_core::protocol::messages::{transfer_proof_bytes, PurchaseRequest, TransferRequest};
use p2drm_core::system::{System, SystemConfig};
use p2drm_crypto::elgamal::ElGamalGroup;
use p2drm_crypto::rng::test_rng;
use rand::rngs::StdRng;

/// A bootstrapped system + content + one funded user, at `key_bits`.
pub struct BenchWorld {
    /// The system under test.
    pub sys: System,
    /// Published content id.
    pub cid: ContentId,
    /// Funded, registered user.
    pub user: UserAgent,
    /// Deterministic RNG for the measured section.
    pub rng: StdRng,
}

/// Builds a world at the given RSA modulus size.
pub fn world(key_bits: usize, seed: u64) -> BenchWorld {
    let mut rng = test_rng(seed);
    let config = SystemConfig {
        key_bits,
        // The 1024-bit MODP group covers both sizes; escrow cost is
        // attributed to pseudonym issuance either way.
        elgamal_group: if key_bits >= 1024 {
            ElGamalGroup::modp_1024()
        } else {
            ElGamalGroup::test_512()
        },
        ..SystemConfig::fast_test()
    };
    let sys = System::bootstrap(config, &mut rng);
    let cid = sys.publish_content("bench-item", 100, &vec![0u8; 4096], &mut rng);
    let mut user = sys.register_user("bench-user", &mut rng).unwrap();
    // Benches loop purchases far past the card's pseudonym budget; the
    // static policy reuses one pseudonym (issuance cost is benched
    // separately in e2/e9).
    user.set_policy(p2drm_core::entities::user::PseudonymPolicy::Static);
    sys.fund(&user, u64::MAX / 4);
    sys.ensure_pseudonym(&mut user, &mut rng).unwrap();
    BenchWorld {
        sys,
        cid,
        user,
        rng,
    }
}

/// Builds a ready-to-submit purchase request (fresh pseudonym + coin) —
/// everything the provider-side `handle_purchase` needs.
pub fn make_purchase_request(w: &mut BenchWorld) -> PurchaseRequest {
    w.sys.ensure_pseudonym(&mut w.user, &mut w.rng).unwrap();
    let cert = w.user.current_pseudonym().unwrap().clone();
    let account = w.user.account.clone();
    let coin = w
        .user
        .wallet
        .withdraw(&w.sys.mint, &account, 100, &mut w.rng)
        .unwrap();
    w.user.wallet.take(100);
    w.user.note_pseudonym_use();
    PurchaseRequest {
        content_id: w.cid,
        pseudonym_cert: cert,
        coin,
        attribute_cert: None,
    }
}

/// Builds a ready-to-submit transfer request: buys a fresh license for the
/// user and authorizes moving it to a fresh recipient pseudonym.
pub fn make_transfer_request(w: &mut BenchWorld, recipient: &mut UserAgent) -> TransferRequest {
    let license = w.sys.purchase(&mut w.user, w.cid, &mut w.rng).unwrap();
    authorize_transfer(w, license, recipient)
}

/// The user's signed hand-over of a license it holds to `recipient`'s
/// current pseudonym.
pub fn authorize_transfer(
    w: &mut BenchWorld,
    license: License,
    recipient: &mut UserAgent,
) -> TransferRequest {
    w.sys.ensure_pseudonym(recipient, &mut w.rng).unwrap();
    let recipient_cert = recipient.current_pseudonym().unwrap().clone();
    recipient.note_pseudonym_use();
    let owned = w.user.license(&license.id()).unwrap();
    let proof_bytes = transfer_proof_bytes(&license.id(), &recipient_cert.pseudonym_id());
    let proof = w
        .user
        .card
        .sign_with_pseudonym(&owned.pseudonym, &proof_bytes)
        .unwrap();
    TransferRequest {
        license,
        recipient_cert,
        proof,
    }
}
