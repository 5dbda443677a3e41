//! One-call system bootstrap: wires the root CA, RA, TTP, mint, payment
//! processor, private provider and baseline provider together, and offers
//! the convenience flows the examples, tests and benchmarks build on.

use crate::audit::Recording;
use crate::entities::device::CompliantDevice;
use crate::entities::provider::{ContentProvider, MemBackend, ProviderConfig};
use crate::entities::ra::RegistrationAuthority;
use crate::entities::smartcard::CardBudget;
use crate::entities::ttp::Ttp;
use crate::entities::user::{PseudonymPolicy, UserAgent};
use crate::ids::{ContentId, LicenseId, UserId};
use crate::license::License;
use crate::protocol;
use crate::service::{Loopback, ProviderService, WireClient, WireError};
use crate::{CoreError, Transcript};
use p2drm_crypto::elgamal::ElGamalGroup;
use p2drm_crypto::rng::{random_array, ChaChaRng, CryptoRng};
use p2drm_payment::identified::PaymentProcessor;
use p2drm_payment::{Mint, MintConfig};
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::Validity;
use p2drm_rel::{Limit, Rights};
use p2drm_store::MemKv;

/// System-wide parameters.
#[derive(Clone)]
pub struct SystemConfig {
    /// RSA modulus bits for every long-lived key.
    pub key_bits: usize,
    /// Coin denominations the mint supports.
    pub denominations: Vec<u64>,
    /// Pseudonym certificate freshness window (epochs).
    pub epoch_window: u32,
    /// ElGamal group for the TTP escrow key.
    pub elgamal_group: &'static ElGamalGroup,
    /// Default pseudonym refresh policy for new users.
    pub default_policy: PseudonymPolicy,
    /// Rights template applied by [`System::publish_content`].
    pub rights_template: Rights,
    /// Certificate validity window.
    pub validity: Validity,
    /// Expose the provider's wire `MetricsDump` op (off by default;
    /// snapshots carry only static metric names, durations and counts —
    /// see `p2drm-obs` for the privacy rule).
    pub metrics_dump: bool,
}

impl SystemConfig {
    /// Small keys and a test ElGamal group — fast enough for unit tests.
    pub fn fast_test() -> Self {
        SystemConfig {
            key_bits: 512,
            denominations: vec![100, 500, 1000],
            epoch_window: 4,
            elgamal_group: ElGamalGroup::test_512(),
            default_policy: PseudonymPolicy::FreshPerPurchase,
            rights_template: Rights::builder()
                .play(Limit::Count(3))
                .transfer(Limit::Count(2))
                .build(),
            validity: Validity::new(0, u64::MAX / 2),
            metrics_dump: false,
        }
    }

    /// Realistic key sizes (1024-bit RSA, MODP-1024 escrow group) for
    /// benchmarks. Bootstrap takes seconds.
    pub fn realistic() -> Self {
        SystemConfig {
            key_bits: 1024,
            elgamal_group: ElGamalGroup::modp_1024(),
            ..Self::fast_test()
        }
    }
}

/// The wired system, generic over the provider's store backend (the
/// volatile lock-sharded [`MemBackend`] by default; see
/// [`System::bootstrap_with_backend`] for any other, the WAL-backed
/// shape included).
pub struct System<B: p2drm_store::ConcurrentKv = MemBackend> {
    /// Root certificate authority (trust anchor).
    pub root: CertificateAuthority,
    /// Registration authority (shared handle — every entry point takes
    /// `&self`, so the same RA serves the engines and wire services).
    pub ra: std::sync::Arc<RegistrationAuthority>,
    /// Anonymity-revocation TTP.
    pub ttp: Ttp,
    /// E-cash mint.
    pub mint: Mint,
    /// Identified payment processor (baseline).
    pub processor: PaymentProcessor,
    /// Privacy-preserving provider (shared handle, same reasoning as
    /// [`System::ra`]; a wire service or TCP server clones the `Arc` and
    /// the system keeps inspecting the same instance).
    pub provider: std::sync::Arc<ContentProvider<B>>,
    /// Conventional provider (comparator).
    pub baseline: crate::baseline::BaselineProvider,
    /// The wire service [`System::purchase`], [`System::play`] and
    /// [`System::transfer`] call through; its clock follows
    /// `epoch`/`now`.
    service: ProviderService<B>,
    config: SystemConfig,
    epoch: u32,
    now: u64,
}

/// Lock shards of the in-memory store [`System::bootstrap`] builds.
const STORE_SHARDS: usize = 8;

impl System {
    /// Builds every entity and wires the trust relationships, with the
    /// default volatile provider store, lock-sharded eight ways.
    pub fn bootstrap<R: CryptoRng + ?Sized>(config: SystemConfig, rng: &mut R) -> Self {
        Self::bootstrap_with_backend(config, MemKv::with_shards(STORE_SHARDS), rng)
    }
}

impl<B: p2drm_store::ConcurrentKv + Send + Sync + 'static> System<B> {
    /// Builds every entity and wires the trust relationships, with the
    /// provider over a caller-supplied store backend: a
    /// [`WalShardedKv`](p2drm_store::WalShardedKv) for the durable
    /// license service, or a wrapper that injects faults or records
    /// timings. The backend is taken as given: nothing in it is read
    /// back, so it should be fresh.
    pub fn bootstrap_with_backend<R: CryptoRng + ?Sized>(
        config: SystemConfig,
        backend: B,
        rng: &mut R,
    ) -> Self {
        let mut root = CertificateAuthority::new_root(config.key_bits, config.validity, rng);
        let ra = RegistrationAuthority::new(&mut root, config.key_bits, config.validity, rng);
        let ttp = Ttp::new(config.elgamal_group, rng);
        let mint = Mint::new(
            MintConfig {
                key_bits: config.key_bits,
                denominations: config.denominations.clone(),
            },
            rng,
        );
        let processor = PaymentProcessor::new();
        let provider = ContentProvider::with_backend(
            &mut root,
            mint.clone(),
            ra.blind_public().clone(),
            backend,
            ProviderConfig {
                key_bits: config.key_bits,
                epoch_window: config.epoch_window,
                validity: config.validity,
                metrics_dump: config.metrics_dump,
            },
            rng,
        );
        let baseline = crate::baseline::BaselineProvider::new(
            &mut root,
            processor.clone(),
            config.key_bits,
            config.validity,
            rng,
        );
        let provider = std::sync::Arc::new(provider);
        // Metered apart from the process-global registry that
        // `wire_service` callers read, timing off: what `System` does
        // for itself was never part of the served-request metrics.
        let registry = std::sync::Arc::new(p2drm_obs::Registry::disabled());
        let service = ProviderService::with_registry(provider.clone(), 0, registry);
        let system = System {
            root,
            ra: std::sync::Arc::new(ra),
            ttp,
            mint,
            processor,
            provider,
            baseline,
            service,
            config,
            epoch: 0,
            now: 1,
        };
        system.service.set_time(system.epoch, system.now);
        system
    }

    /// Current epoch (pseudonym freshness bucket).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Advances to the next epoch.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        self.now += 1;
        self.service.set_time(self.epoch, self.now);
    }

    /// Current wall-clock (unix-second stand-in).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances time without changing the epoch.
    pub fn advance_time(&mut self, secs: u64) {
        self.now += secs;
        self.service.set_time(self.epoch, self.now);
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Stands up the byte-level wire service over this system's provider
    /// and RA, synchronized to the current epoch/clock (re-sync after
    /// [`System::advance_epoch`] with
    /// [`crate::service::ProviderService::set_time`]). `seed` separates
    /// RNG streams between services; the service mixes it with OS
    /// entropy, so `handle` output is never predictable from the seed.
    pub fn wire_service(&self, seed: u64) -> ProviderService<B> {
        self.wire_service_with_registry(seed, p2drm_obs::global().clone())
    }

    /// [`System::wire_service`] recording into a caller-supplied metrics
    /// registry instead of the process-global one (isolated tests,
    /// side-by-side services).
    pub fn wire_service_with_registry(
        &self,
        seed: u64,
        registry: std::sync::Arc<p2drm_obs::Registry>,
    ) -> ProviderService<B> {
        let service = ProviderService::with_registry(self.provider.clone(), seed, registry)
            .with_ra(self.ra.clone());
        service.set_time(self.epoch, self.now);
        service
    }

    /// Publishes content on the private provider with the default rights
    /// template.
    ///
    /// # Panics
    ///
    /// If the provider's store fails a write; [`ContentProvider::publish`]
    /// returns that error instead.
    pub fn publish_content<R: CryptoRng + ?Sized>(
        &self,
        title: &str,
        price: u64,
        payload: &[u8],
        rng: &mut R,
    ) -> ContentId {
        self.provider
            .publish(
                title,
                price,
                payload,
                self.config.rights_template.clone(),
                rng,
            )
            .expect("the provider's store accepts the item")
    }

    /// Publishes content on the baseline provider.
    pub fn publish_baseline_content<R: CryptoRng + ?Sized>(
        &mut self,
        title: &str,
        price: u64,
        payload: &[u8],
        rng: &mut R,
    ) -> ContentId {
        self.baseline.publish(
            title,
            price,
            payload,
            self.config.rights_template.clone(),
            rng,
        )
    }

    /// Registers a user (account name derived from the label).
    pub fn register_user<R: CryptoRng + ?Sized>(
        &self,
        label: &str,
        rng: &mut R,
    ) -> Result<UserAgent, CoreError> {
        self.register_user_with_budget(label, CardBudget::default(), rng)
    }

    /// Registers a user with an explicit card budget (experiments that
    /// accumulate many fresh pseudonyms need more than the default 64).
    pub fn register_user_with_budget<R: CryptoRng + ?Sized>(
        &self,
        label: &str,
        budget: CardBudget,
        rng: &mut R,
    ) -> Result<UserAgent, CoreError> {
        let mut t = Transcript::new();
        protocol::register(
            &self.ra,
            UserId::from_label(label),
            format!("acct-{label}"),
            self.config.default_policy,
            budget,
            rng,
            &mut t,
        )
    }

    /// Funds a user's accounts at both the mint and the processor.
    pub fn fund(&self, user: &UserAgent, amount: u64) {
        self.mint.fund_account(&user.account, amount);
        self.processor.fund_account(&user.account, amount);
    }

    /// Ensures the user has a usable pseudonym under their policy,
    /// running blind issuance if needed.
    pub fn ensure_pseudonym<R: CryptoRng + ?Sized>(
        &self,
        user: &mut UserAgent,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        if user.current_pseudonym().is_none() {
            let mut t = Transcript::new();
            protocol::obtain_pseudonym(
                user,
                &self.ra,
                self.ttp.escrow_key(),
                self.epoch,
                self.now,
                rng,
                &mut t,
            )?;
        }
        Ok(())
    }

    /// Publishes attribute-restricted content (e.g. age-rated).
    ///
    /// # Panics
    ///
    /// If the provider's store fails a write, as
    /// [`System::publish_content`].
    pub fn publish_rated_content<R: CryptoRng + ?Sized>(
        &self,
        title: &str,
        price: u64,
        payload: &[u8],
        attribute: &str,
        rng: &mut R,
    ) -> ContentId {
        self.provider
            .publish_restricted(
                title,
                price,
                payload,
                self.config.rights_template.clone(),
                attribute,
                rng,
            )
            .expect("the provider's store accepts the item")
    }

    /// Records a verified attribute for the user at the RA and teaches the
    /// provider to trust that attribute's verification key.
    pub fn grant_attribute<R: CryptoRng + ?Sized>(
        &self,
        user: &UserAgent,
        attribute: &str,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        self.ra.grant_attribute(&user.user_id(), attribute, rng)?;
        let key = self
            .ra
            .attribute_public(attribute)
            .expect("key exists after grant");
        self.provider.trust_attribute(attribute, key)?;
        Ok(())
    }

    /// Ensures the user holds an attribute credential bound to their
    /// *current* pseudonym (obtaining pseudonym and credential as needed).
    pub fn ensure_attribute<R: CryptoRng + ?Sized>(
        &self,
        user: &mut UserAgent,
        attribute: &str,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        self.ensure_pseudonym(user, rng)?;
        let pseudonym = user
            .current_pseudonym()
            .expect("ensured above")
            .pseudonym_id();
        if user.attribute_cert_for(&pseudonym, attribute).is_none() {
            let mut t = Transcript::new();
            protocol::obtain_attribute(
                user, &self.ra, attribute, self.epoch, self.now, rng, &mut t,
            )?;
        }
        Ok(())
    }

    /// In-process transport onto this system's own service. Replies
    /// draw their randomness (the sealed content key) from a
    /// ChaCha20 stream keyed off `rng`, so a seeded run repeats byte for
    /// byte — big-integer encodings are length-trimmed, so even message
    /// sizes depend on it.
    fn loopback<R: CryptoRng + ?Sized>(&self, rng: &mut R) -> Loopback<'_, B> {
        Loopback::with_rng(&self.service, ChaChaRng::new(random_array(rng), [0u8; 12]))
    }

    /// Full anonymous purchase (pseudonym top-up + coin + license).
    pub fn purchase<R: CryptoRng + ?Sized>(
        &self,
        user: &mut UserAgent,
        content_id: ContentId,
        rng: &mut R,
    ) -> Result<License, WireError> {
        self.purchase_with_transcript(user, content_id, rng, &mut Transcript::new())
    }

    /// Purchase that logs every payload exchanged with the provider
    /// into `transcript` (the paper's figures and tables).
    pub fn purchase_with_transcript<R: CryptoRng + ?Sized>(
        &self,
        user: &mut UserAgent,
        content_id: ContentId,
        rng: &mut R,
        transcript: &mut Transcript,
    ) -> Result<License, WireError> {
        self.ensure_pseudonym(user, rng)?;
        WireClient::new(Recording::new(self.loopback(rng), transcript))
            .purchase(user, &self.mint, content_id, rng)
    }

    /// Registers a compliant device trusting this system's provider.
    pub fn register_device<R: CryptoRng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<CompliantDevice, CoreError> {
        let provider_cert = self.provider.certificate().clone();
        CompliantDevice::new(
            &mut self.root,
            &provider_cert,
            self.ra.blind_public().clone(),
            self.config.key_bits,
            self.config.validity,
            rng,
        )
    }

    /// Registers a device trusting the baseline provider.
    pub fn register_baseline_device<R: CryptoRng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<CompliantDevice, CoreError> {
        let provider_cert = self.baseline.certificate().clone();
        CompliantDevice::new(
            &mut self.root,
            &provider_cert,
            self.ra.blind_public().clone(),
            self.config.key_bits,
            self.config.validity,
            rng,
        )
    }

    /// Plays a license on a device (over any device store).
    pub fn play<SD: p2drm_store::ConcurrentKv, R: CryptoRng + ?Sized>(
        &self,
        user: &UserAgent,
        device: &mut CompliantDevice<SD>,
        license: &License,
        rng: &mut R,
    ) -> Result<Vec<u8>, WireError> {
        WireClient::new(self.loopback(rng)).play(user, device, license, rng)
    }

    /// Transfers a license between users (recipient pseudonym top-up
    /// included).
    pub fn transfer<R: CryptoRng + ?Sized>(
        &self,
        sender: &mut UserAgent,
        recipient: &mut UserAgent,
        license_id: LicenseId,
        rng: &mut R,
    ) -> Result<License, WireError> {
        self.ensure_pseudonym(recipient, rng)?;
        WireClient::new(self.loopback(rng)).transfer(sender, recipient, license_id, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn bootstrap_wires_trust() {
        let mut rng = test_rng(220);
        let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        assert!(sys
            .provider
            .certificate()
            .verify(sys.root.public_key(), 10)
            .is_ok());
        assert!(sys
            .baseline
            .certificate()
            .verify(sys.root.public_key(), 10)
            .is_ok());
        assert_eq!(sys.epoch(), 0);
    }

    /// `bootstrap` is `bootstrap_with_backend` over an eight-shard
    /// `MemKv`: the same seed draws the same keys through either.
    #[test]
    fn bootstrap_is_bootstrap_with_backend_over_eight_mem_shards() {
        let keys = |sys: &System| {
            (
                sys.provider.public_key().clone(),
                sys.ra.blind_public().clone(),
                sys.mint
                    .denominations()
                    .into_iter()
                    .map(|d| sys.mint.public_key(d).unwrap().clone())
                    .collect::<Vec<_>>(),
                sys.baseline.public_key().clone(),
            )
        };
        let plain = System::bootstrap(SystemConfig::fast_test(), &mut test_rng(226));
        let backed = System::bootstrap_with_backend(
            SystemConfig::fast_test(),
            MemKv::with_shards(8),
            &mut test_rng(226),
        );
        assert_eq!(keys(&plain), keys(&backed));
        let other = System::bootstrap(SystemConfig::fast_test(), &mut test_rng(227));
        assert_ne!(keys(&plain), keys(&other));
    }

    /// Big-integer encodings are length-trimmed and sealing a content
    /// key is randomised, so "same seed, same bytes" holds only because
    /// `System` answers from a stream derived from the caller's RNG.
    #[test]
    fn same_seed_systems_issue_byte_identical_licenses() {
        fn journey(seed: u64) -> (Vec<u8>, Vec<u8>) {
            let mut rng = test_rng(seed);
            let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
            let cid = sys.publish_content("Track", 100, b"bits", &mut rng);
            let mut alice = sys.register_user("alice", &mut rng).unwrap();
            let mut bob = sys.register_user("bob", &mut rng).unwrap();
            sys.fund(&alice, 100);
            let bought = sys.purchase(&mut alice, cid, &mut rng).unwrap();
            let moved = sys
                .transfer(&mut alice, &mut bob, bought.id(), &mut rng)
                .unwrap();
            (
                p2drm_codec::to_bytes(&bought),
                p2drm_codec::to_bytes(&moved),
            )
        }
        let first = journey(223);
        assert_eq!(first, journey(223));
        assert_ne!(first.0, journey(224).0);
    }

    #[test]
    fn epoch_and_time_advance() {
        let mut rng = test_rng(222);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let e0 = sys.epoch();
        let t0 = sys.now();
        sys.advance_epoch();
        sys.advance_time(100);
        assert_eq!(sys.epoch(), e0 + 1);
        assert!(sys.now() >= t0 + 101);
    }
}
