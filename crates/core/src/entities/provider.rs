//! The content provider / license server.
//!
//! Sells content to **pseudonyms**: verifies blind-issued certificates,
//! deposits anonymous coins, issues uniquely-identified anonymous licenses,
//! executes privacy-preserving transfers, and maintains the spent-ID store
//! that makes each license id redeemable exactly once.
//!
//! # One issuance path: check, sign, commit
//!
//! A purchase and a transfer issue their license the same way, in three
//! steps, and a batch of them takes each step together:
//!
//! 1. **Check**, over reads only. The license id is derived from the
//!    request — a purchase's from its coin serial, pseudonym and content
//!    ([`purchase_license_id`]), a transfer successor's from the old id
//!    and the recipient ([`transfer_license_id`]) — and the one row that
//!    decides the request is read once: the mint's `spent/<serial>` row,
//!    which holds the id the coin paid for, or the provider's
//!    `spent/<old id>` row, which holds the successor. The row is free,
//!    names this request's id (a **replay**: its reply was lost, or the
//!    process died before its rows were written), or is taken. A replay
//!    skips the checks that time can change. Every other refusal is
//!    decided here, in a fixed order, so a refusal never costs the buyer
//!    a coin; a taken row is [`CoreError::AlreadyRedeemed`] /
//!    `DoubleSpend`.
//! 2. **Sign.** The coin checks and KEM encapsulations of every checked
//!    request run as one [`rsa::public_batch`], and every license body
//!    is signed by one
//!    [`RsaKeyPair::sign_batch`](p2drm_crypto::rsa::RsaKeyPair::sign_batch).
//! 3. **Commit.** The claim is made — the mint's `deposit_for` for a
//!    coin, the atomic `insert_if_absent` of `spent/<old id>` for a
//!    license — and a fresh claim or a replay then writes the rows that
//!    follow from it: `lic/<id>`, and for a transfer the old id's CRL
//!    listing. A replay writes them again (they are functions of the
//!    claim), so a request cut short after its claim completes when it
//!    is re-sent, and nothing else is recorded twice: no second deposit
//!    or license row. So a client may re-send both operations after any
//!    failure, and the customer pays if and only if the license can be
//!    obtained.
//!
//! The price of signing before the claim: a request that loses the
//! claim's race between its check and its commit — another request
//! claimed the row in between — has signed for nothing and is refused.
//! For a transfer that includes an identical re-send racing the first;
//! the mint's `deposit_for` reads the row it lost, so a purchase's
//! identical re-send is answered as its replay.
//!
//! # Concurrency architecture: core / state split
//!
//! The provider is the system's only serialization point — every purchase
//! must atomically consult the spent-ID store and sign a license — so it
//! is built as a **shared-state concurrent service**. One logical
//! [`ContentProvider`] serves N client threads through `&self`:
//!
//! * [`ProviderCore`] (`core` field) — the immutable identity: signing
//!   key pair, certificate, RA trust anchor, configuration. Written
//!   once at construction, read lock-free from every thread.
//! * [`ProviderState`] (`state` field) — the mutable tables, each behind
//!   its own lock so unrelated operations never contend:
//!   - the KV **backend** (any [`ConcurrentKv`]) holding the **spent-ID
//!     set**, one [`LicenseRecord`] per issued id (the holder's key id —
//!     the signed license itself leaves with the buyer and is not
//!     kept), persisted catalog/rights/CRL/attribute-trust tables;
//!     `insert_if_absent` (the double-redemption primitive) is atomic per
//!     key inside the backend;
//!   - the in-memory catalog: one [`CatalogEntry`] per item — metadata,
//!     content key, nonce and rights template, but not the ciphertext
//!     (`RwLock`, read-mostly; the catalog's listing snapshot is built
//!     and read under the read lock, and `publish` takes the write lock
//!     only for the map insert — packaging and persistence happen before
//!     it);
//!   - trusted attribute keys (`RwLock`, read-mostly), the mirror of
//!     their `trust/<attribute>` rows;
//!   - CRL state — both revocation lists and their sequence numbers —
//!     under one `RwLock` (revocation is rare, CRL reads are cheap); a
//!     revocation writes its `crl/` row under a lock of its own and takes
//!     the write lock only to insert, so readers never wait on a commit.
//!
//! An item's ciphertext has one copy: its `content/<id>` row in the
//! backend. [`ContentProvider::download`] checks the catalog, then reads
//! that row and returns its tail ([`content::row_ciphertext`]); a listed
//! item whose row is missing or short answers [`CoreError::Store`].
//!
//! Per sale the provider keeps only the rows a commit writes — the
//! claim (the mint's `spent/<serial>`, or a transfer's `spent/<old id>`),
//! `lic/<id>`, and a transfer's CRL listing — and no history of who
//! bought or passed on what: there is no purchase or transfer log to
//! join.
//!
//! Every protocol entry point (`handle_purchase`, `handle_transfer`,
//! `download`, CRL sync) takes `&self`; `ContentProvider<B>` is `Sync`
//! whenever the backend is, so threads share one provider by reference —
//! no shard cloning, no external mutex.
//!
//! # Backends and restarts
//!
//! The backend type parameter picks the deployment shape:
//!
//! * [`MemKv`] (the [`MemBackend`] default, eight shards under
//!   `System::bootstrap`) — volatile, lock-sharded; tests and
//!   simulations;
//! * [`WalShardedKv`](p2drm_store::WalShardedKv) — the production shape:
//!   1..N per-shard WALs with group commit, so the provider survives an
//!   unclean drop;
//! * any other [`ConcurrentKv`] — wrappers that inject faults or record
//!   timings around one of the two above.
//!
//! Two constructors cover all of them. [`ContentProvider::with_backend`]
//! makes a fresh signing identity over a fresh backend.
//! [`ContentProvider::resume`] takes the identity from the operator's
//! vault and restores whatever the backend holds: spent ids, license
//! records, catalog, CRLs and trusted attribute keys. The caller opens
//! the backend (`WalShardedKv::open` returns its `RecoveryReport`), so a
//! fault-injecting wrapper restarts like a bare directory. A
//! double-redeem race spanning the restart still has exactly one winner:
//! the claim is WAL-logged before the in-memory index changes, so the
//! exactly-once decision is as durable as the chosen
//! [`p2drm_store::SyncPolicy`].

use crate::content::{
    self, CatalogEntry, CatalogListing, ContentCatalog, ContentMeta, PackagedContent,
};
use crate::ids::{ContentId, LicenseId};
use crate::license::{License, LicenseBody, LicenseRecord};
use crate::protocol::messages::{self, LicenseStatus, PurchaseRequest, TransferRequest};
use crate::CoreError;
use p2drm_bignum::UBig;
use p2drm_crypto::envelope;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{self, KemSecret, RsaPublicKey, RsaSignature};
use p2drm_payment::mint::CoinCheck;
use p2drm_payment::{Coin, Mint, PaymentError};
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::{digest_id, Certificate, KeyId, PseudonymCertificate};
use p2drm_pki::crl::{CrlScope, RevocationList, SignedCrl};
use p2drm_rel::{Limit, Rights};
use p2drm_store::typed::Table;
use p2drm_store::{ConcurrentKv, MemKv, StoreError};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The default volatile backend: lock-sharded in-memory store.
pub type MemBackend = MemKv;

/// Entry bound of the signature-verification cache consulted by
/// [`ContentProvider::verify_pseudonym`] and the attribute-credential
/// check.
const VERIFY_CACHE_CAPACITY: usize = 4096;

/// Provider construction parameters.
#[derive(Clone, Debug)]
pub struct ProviderConfig {
    /// RSA modulus bits for the license-signing key.
    pub key_bits: usize,
    /// How many epochs old a pseudonym certificate may be.
    pub epoch_window: u32,
    /// Certificate validity window.
    pub validity: p2drm_pki::cert::Validity,
    /// Whether this endpoint answers the wire `MetricsDump` op
    /// (`opcode 9`). Off by default: the snapshot carries only static
    /// metric names, counts and durations — never pseudonyms, card ids,
    /// license ids or coin serials — but exposing load shape is still an
    /// operator decision.
    pub metrics_dump: bool,
}

impl ProviderConfig {
    /// Small keys, generous windows — unit-test defaults.
    pub fn fast_test() -> Self {
        ProviderConfig {
            key_bits: 512,
            epoch_window: 4,
            validity: p2drm_pki::cert::Validity::new(0, u64::MAX / 2),
            metrics_dump: false,
        }
    }
}

/// The provider's immutable identity: signing keys, certificate, trust
/// anchors and configuration. Shared lock-free across threads.
pub struct ProviderCore {
    keys: p2drm_crypto::rsa::RsaKeyPair,
    cert: Certificate,
    ra_blind_key: RsaPublicKey,
    /// Cached fingerprint of `ra_blind_key` (cache-key component; hashing
    /// the key on every verification would eat into the cache win).
    ra_blind_key_fp: [u8; 32],
    config: ProviderConfig,
    /// Signature-verification cache: N requests presenting the same
    /// certificate bytes in the same epoch pay for one RSA verify.
    /// Interior-mutable and sharded, so it lives in the otherwise
    /// immutable core and is consulted lock-free-ish from every thread.
    vcache: p2drm_pki::VerifyCache,
}

/// One revocation list and the sequence number of its latest listing.
#[derive(Default)]
struct Crl {
    list: RevocationList,
    seq: u64,
}

/// CRL state: the license and the pseudonym revocation lists.
#[derive(Default)]
struct CrlState {
    license: Crl,
    pseudonym: Crl,
}

impl CrlState {
    /// The pseudonym list for `kind` `b'p'`, the license list otherwise.
    fn of(&self, kind: u8) -> &Crl {
        match kind {
            b'p' => &self.pseudonym,
            _ => &self.license,
        }
    }

    fn of_mut(&mut self, kind: u8) -> &mut Crl {
        match kind {
            b'p' => &mut self.pseudonym,
            _ => &mut self.license,
        }
    }
}

/// The provider's mutable tables, each behind its own lock. See the
/// module docs for the locking layout. Generic over the [`ConcurrentKv`]
/// backend holding the persisted tables.
pub struct ProviderState<B: ConcurrentKv> {
    store: B,
    licenses: Table<LicenseRecord>,
    /// `spent/<license id>` → the successor a transfer issued, or `None`
    /// for a direct revocation: the row that retires an id.
    spent: Table<Option<LicenseId>>,
    rights_table: Table<Rights>,
    crl_table: Table<u64>,
    /// `trust/<attribute>` → the RA's verification key for it.
    trust_table: Table<RsaPublicKey>,
    catalog: RwLock<ContentCatalog>,
    /// Trusted per-attribute RA verification keys: `trust_table`'s mirror.
    attribute_trust: RwLock<HashMap<String, RsaPublicKey>>,
    crl: RwLock<CrlState>,
    /// Held by a listing across its `crl/` row write (see
    /// `list_revoked`); readers of `crl` never take it.
    crl_writer: Mutex<()>,
    mint: Mint,
}

/// What the provider's batched RSA work cost: values, never labels, so
/// nothing about which requests shared a batch reaches telemetry.
#[derive(Default)]
struct BatchStats {
    /// Licenses signed, purchases and transfers alike.
    signatures: AtomicU64,
    /// Vertical-kernel calls those signatures took (0 where the CPU has
    /// no AVX-512 IFMA or the key is too wide for the kernel).
    sign_kernel_calls: AtomicU64,
    /// Licenses per signing call: one sample per call.
    batch_size: p2drm_obs::AtomicHistogram,
    /// Public-key operations of issuance batches: the purchases' coin
    /// checks, and the KEM encapsulations of purchases and transfers
    /// alike.
    public_ops: AtomicU64,
    /// Vertical-kernel calls those operations took (0 where they kept
    /// the scalar path).
    public_kernel_calls: AtomicU64,
}

/// A request that issues a license: a purchase or a transfer.
#[derive(Clone, Copy)]
pub enum Issuance<'a> {
    /// An anonymous purchase.
    Purchase(&'a PurchaseRequest),
    /// A transfer to a recipient pseudonym.
    Transfer(&'a TransferRequest),
}

/// A request that passed its check: what its license needs besides the
/// batch's public-key work and signature, and the claim its commit makes.
struct Plan<'a> {
    claim: Claim<'a>,
    license_id: LicenseId,
    content_id: ContentId,
    /// The request's own copy of the key the content key is sealed to;
    /// the KEM may build its kernel constants.
    key: &'a RsaPublicKey,
    /// `key` cloned before the KEM, so a license keeps none of those
    /// constants (a caller may hold many).
    holder: RsaPublicKey,
    rights: Rights,
    content_key: [u8; 32],
    /// A purchase's coin signature check, still to run; `None` for a
    /// replay, which was paid for, and for a transfer.
    coin: Option<CoinCheck<'a>>,
}

/// The row whose atomic insert decides a request.
enum Claim<'a> {
    /// The mint's `spent/<serial>` row, to hold the license id. `spent`
    /// when the check read another id in it: a double spend, refused
    /// once the coin's signature verdict is in.
    Coin { coin: &'a Coin, spent: bool },
    /// The provider's `spent/<old id>` row, to hold the successor;
    /// `replay` when the check read the successor in it.
    License { old: LicenseId, replay: bool },
}

impl<'a> Plan<'a> {
    /// The license body, its content key sealed under the KEM whose
    /// public operation gave `c`, with the claim still to make. A coin
    /// another request spent is refused here, after its signature
    /// verdict and before anything is signed.
    fn seal(
        self,
        kem: &KemSecret,
        c: &UBig,
        now_epoch: u32,
    ) -> Result<(Claim<'a>, LicenseBody), CoreError> {
        if let Claim::Coin { spent: true, .. } = self.claim {
            return Err(PaymentError::DoubleSpend.into());
        }
        let (kem_ct, shared) = kem.finish(c);
        let body = LicenseBody {
            license_id: self.license_id,
            content_id: self.content_id,
            holder: self.holder,
            rights: self.rights,
            key_envelope: envelope::seal_encapsulated(kem_ct, &shared, &self.content_key),
            issued_epoch: now_epoch,
        };
        Ok((self.claim, body))
    }
}

/// The content provider, generic over its [`ConcurrentKv`] store backend.
pub struct ContentProvider<B: ConcurrentKv = MemBackend> {
    core: ProviderCore,
    state: ProviderState<B>,
    stats: BatchStats,
}

/// One registry snapshot carries the provider's verify-cache, listing,
/// license-signing and store metrics together; the wire service
/// registers the provider as a weak source at construction. Names are
/// static, values are counts and durations — no pseudonyms, card ids,
/// license ids or coin serials.
impl<B: ConcurrentKv> p2drm_obs::MetricSource for ContentProvider<B> {
    fn collect(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        let c = self.verify_cache_counters();
        out.counter("vcache_hits", c.hits);
        out.counter("vcache_misses", c.misses);
        out.counter("vcache_insertions", c.insertions);
        out.counter("vcache_evictions", c.evictions);
        out.counter(
            "catalog_listing_builds",
            self.state.catalog.read().listing_builds(),
        );
        let stats = &self.stats;
        let count = |n: &AtomicU64| n.load(Ordering::Relaxed);
        out.counter("license_signatures", count(&stats.signatures));
        out.counter("sign_kernel_calls", count(&stats.sign_kernel_calls));
        out.histogram("sign_batch_size", &stats.batch_size.snapshot());
        out.counter("public_key_ops", count(&stats.public_ops));
        out.counter("public_kernel_calls", count(&stats.public_kernel_calls));
        self.state.store.collect_metrics(out);
    }
}

impl<B: ConcurrentKv> ContentProvider<B> {
    /// Provider with a fresh signing identity over any concurrent store
    /// backend, taken as given: nothing in it is read back, so it should
    /// be fresh ([`ContentProvider::resume`] restores what a backend
    /// holds).
    pub fn with_backend<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        backend: B,
        config: ProviderConfig,
        rng: &mut R,
    ) -> Self {
        let keys = p2drm_crypto::rsa::RsaKeyPair::generate(config.key_bits, rng);
        let cert = root.issue(
            p2drm_pki::cert::EntityKind::ContentProvider,
            p2drm_pki::cert::SubjectKey::Rsa(keys.public().clone()),
            config.validity,
            vec![],
        );
        Self::assemble(keys, cert, mint, ra_blind_key, backend, config)
    }

    /// The restart: signing keys from the operator's vault (see
    /// [`ContentProvider::export_keys`]) over a backend that already
    /// holds the provider's tables — a reopened
    /// [`WalShardedKv`](p2drm_store::WalShardedKv) directory, or any
    /// wrapper around one. The catalog, CRLs and trusted attribute keys
    /// are rebuilt from their rows, so old licenses verify, spent ids
    /// stay spent and CRL sequences continue monotonically.
    pub fn resume(
        keys: p2drm_crypto::rsa::RsaKeyPair,
        cert: Certificate,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        backend: B,
        config: ProviderConfig,
    ) -> Result<Self, CoreError> {
        let provider = Self::assemble(keys, cert, mint, ra_blind_key, backend, config);
        provider.restore_from_store()?;
        Ok(provider)
    }

    fn assemble(
        keys: p2drm_crypto::rsa::RsaKeyPair,
        cert: Certificate,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        store: B,
        config: ProviderConfig,
    ) -> Self {
        ContentProvider {
            core: ProviderCore {
                ra_blind_key_fp: ra_blind_key.fingerprint(),
                vcache: p2drm_pki::VerifyCache::new(VERIFY_CACHE_CAPACITY),
                keys,
                cert,
                ra_blind_key,
                config,
            },
            state: ProviderState {
                store,
                licenses: Table::new("lic/"),
                spent: Table::new("spent/"),
                rights_table: Table::new("rightst/"),
                crl_table: Table::new("crl/"),
                trust_table: Table::new("trust/"),
                catalog: RwLock::new(ContentCatalog::new()),
                attribute_trust: RwLock::new(HashMap::new()),
                crl: RwLock::new(CrlState::default()),
                crl_writer: Mutex::new(()),
                mint,
            },
            stats: BatchStats::default(),
        }
    }

    /// Rebuilds the in-memory mirrors (catalog entries, CRL
    /// sets/sequences, trusted attribute keys) from the persisted tables
    /// in the store backend; [`ContentProvider::resume`] calls it once.
    ///
    /// An item exists once its `content/<id>` row does; `publish` writes
    /// its `rightst/<id>` row first, so a content row without one is
    /// damage, and restoring fails naming the id rather than selling the
    /// item under rights it was never published with.
    fn restore_from_store(&self) -> Result<(), CoreError> {
        {
            let state = &self.state;
            let mut catalog = state.catalog.write();
            for (_, row) in state.store.scan_prefix(CONTENT_PREFIX) {
                let (meta, key, nonce) = content::row_head(&row).map_err(StoreError::from)?;
                let rights = state
                    .rights_table
                    .get(&state.store, meta.id.as_bytes())?
                    .ok_or_else(|| broken_row(format!("{} has no rights template row", meta.id)))?;
                catalog.insert(CatalogEntry {
                    meta,
                    key,
                    nonce,
                    rights,
                });
            }
        }
        let trusted = self.state.trust_table.scan(&self.state.store)?;
        self.state.attribute_trust.write().extend(
            trusted
                .into_iter()
                .map(|(attribute, key)| (String::from_utf8_lossy(&attribute).into_owned(), key)),
        );
        // CRLs: "crl/l/<id>" and "crl/p/<id>" entries whose value is the
        // sequence number at which the revocation happened.
        let mut crls = self.state.crl.write();
        for (key, seq) in self.state.crl_table.scan(&self.state.store)? {
            let (crl, id) = match key.split_at(key.len().min(2)) {
                (b"l/", id) => (&mut crls.license, id),
                (b"p/", id) => (&mut crls.pseudonym, id),
                _ => continue,
            };
            if let Ok(id) = id.try_into() {
                crl.list.insert(KeyId(id));
                crl.seq = crl.seq.max(seq);
            }
        }
        Ok(())
    }

    /// Serialized private key material for the operator's key vault
    /// (pair this with [`ContentProvider::resume`]). **Secret bytes.**
    pub fn export_keys(&self) -> Vec<u8> {
        p2drm_codec::to_bytes(&self.core.keys)
    }

    /// Lists `id` on the license (`kind` `b'l'`) or pseudonym (`b'p'`)
    /// CRL at its next sequence number. Its `crl/` row is written first,
    /// so a failed write leaves the served list and its sequence as they
    /// were; an id already listed changes nothing.
    ///
    /// Listings serialize on their own lock, and the row is written under
    /// it alone: the CRL lock is taken for reading before the write and
    /// for writing only to insert the id, so a commit's sync never stalls
    /// a pseudonym check, a CRL sync or a status query.
    fn list_revoked(&self, kind: u8, id: KeyId) -> Result<(), CoreError> {
        let _listing = self.state.crl_writer.lock();
        let seq = {
            let crls = self.state.crl.read();
            let crl = crls.of(kind);
            if crl.list.contains(&id) {
                return Ok(());
            }
            crl.seq + 1
        };
        let key = [&[kind, b'/'], id.0.as_slice()].concat();
        self.state.crl_table.put(&self.state.store, &key, &seq)?;
        let mut crls = self.state.crl.write();
        let crl = crls.of_mut(kind);
        crl.seq = seq;
        crl.list.insert(id);
        Ok(())
    }

    /// License verification key.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.core.keys.public()
    }

    /// Provider certificate (chains to the root).
    pub fn certificate(&self) -> &Certificate {
        &self.core.cert
    }

    /// Publishes content with a rights template applied to every sale.
    /// The packaged item (including its content key) and the template are
    /// persisted so the catalog survives [`ContentProvider::resume`].
    /// A failed store write is returned and the item is not listed.
    pub fn publish<R: CryptoRng + ?Sized>(
        &self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        rng: &mut R,
    ) -> Result<ContentId, StoreError> {
        self.publish_with_requirement(title, price, payload, rights, None, rng)
    }

    /// Publishes attribute-restricted content (e.g. age-rated): buyers
    /// must present a credential for `attribute` bound to their pseudonym.
    pub fn publish_restricted<R: CryptoRng + ?Sized>(
        &self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        attribute: &str,
        rng: &mut R,
    ) -> Result<ContentId, StoreError> {
        self.publish_with_requirement(
            title,
            price,
            payload,
            rights,
            Some(attribute.to_string()),
            rng,
        )
    }

    fn publish_with_requirement<R: CryptoRng + ?Sized>(
        &self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        required_attribute: Option<String>,
        rng: &mut R,
    ) -> Result<ContentId, StoreError> {
        // Package and persist with no lock held: ChaCha20 over the whole
        // payload and two store commits must not stall downloads,
        // listings and purchases. The item becomes visible only once it
        // is durable, and the catalog write lock covers just the map
        // insert and the listing-snapshot invalidation. The template is
        // written first: the content row is what makes the item exist
        // after a restart, so a crash between the two leaves no item,
        // never one without its template.
        let item = PackagedContent::package(title, price, payload, required_attribute, rng);
        let id = item.meta.id;
        self.state
            .rights_table
            .put(&self.state.store, id.as_bytes(), &rights)?;
        self.state
            .store
            .put(&content_row_key(&id), &p2drm_codec::to_bytes(&item))?;
        // The store row is the ciphertext's only copy; the entry drops it.
        let entry = item.into_entry(rights);
        self.state.catalog.write().insert(entry);
        Ok(id)
    }

    /// Trusts an RA per-attribute verification key (operator setup). The
    /// key is persisted first, so it is trusted again after a restart; a
    /// failed write is returned and trusts nothing.
    pub fn trust_attribute(&self, attribute: &str, key: RsaPublicKey) -> Result<(), StoreError> {
        self.state
            .trust_table
            .put(&self.state.store, attribute.as_bytes(), &key)?;
        self.state
            .attribute_trust
            .write()
            .insert(attribute.to_string(), key);
        Ok(())
    }

    /// Checks the attribute requirement of a purchase, if any.
    fn check_attribute_requirement(
        &self,
        req: &PurchaseRequest,
        required: Option<&str>,
        now_epoch: u32,
    ) -> Result<(), CoreError> {
        let Some(attr) = required else { return Ok(()) };
        let cert = req
            .attribute_cert
            .as_ref()
            .ok_or(CoreError::BadPseudonym("attribute credential required"))?;
        if cert.attribute != attr {
            return Err(CoreError::BadPseudonym("wrong attribute credential"));
        }
        let trust = self.state.attribute_trust.read();
        let key = trust
            .get(attr)
            .ok_or(CoreError::BadPseudonym("attribute issuer not trusted"))?;
        // Cached like the pseudonym check: repeat presentations of the
        // same credential skip the RSA verify; the binding and epoch
        // checks below always re-run.
        let cache_key = p2drm_pki::VerifyCache::key(&[
            &p2drm_codec::to_bytes(cert),
            &key.fingerprint(),
            &now_epoch.to_le_bytes(),
        ]);
        self.core.vcache.verify_with(cache_key, || {
            cert.verify(key)
                .map_err(|_| CoreError::BadPseudonym("attribute signature invalid"))
        })?;
        // The credential must bind to the very pseudonym making the
        // purchase — it cannot be lent to another card.
        if cert.pseudonym_id() != req.pseudonym_cert.pseudonym_id() {
            return Err(CoreError::BadPseudonym(
                "attribute bound to a different pseudonym",
            ));
        }
        if cert.body.epoch > now_epoch
            || now_epoch - cert.body.epoch > self.core.config.epoch_window
        {
            return Err(CoreError::BadPseudonym("attribute credential epoch stale"));
        }
        Ok(())
    }

    /// Public metadata for one catalog item.
    pub fn content_meta(&self, id: &ContentId) -> Option<ContentMeta> {
        self.state
            .catalog
            .read()
            .get(id)
            .map(|item| item.meta.clone())
    }

    /// Public metadata listing (what an anonymous browser sees),
    /// id-sorted: the catalog's shared snapshot, built at most once per
    /// catalog state (see [`crate::content`]).
    pub fn list_content(&self) -> Arc<CatalogListing> {
        self.state.catalog.read().listing()
    }

    /// Validates a pseudonym certificate: RA blind signature, epoch
    /// freshness, and the pseudonym CRL.
    ///
    /// The blind-signature check consults the provider's verification
    /// cache (key = SHA-256 of cert bytes ‖ RA key fingerprint ‖ epoch),
    /// so N purchases presenting the same certificate pay for one RSA
    /// verify. Epoch freshness and the CRL are *always* re-checked — a
    /// revoked or aged-out certificate is refused even when a signature
    /// success from an earlier request (or earlier epoch bucket) is still
    /// cached.
    pub fn verify_pseudonym(
        &self,
        cert: &PseudonymCertificate,
        now_epoch: u32,
    ) -> Result<(), CoreError> {
        // Cheap structural checks first, unconditionally.
        if cert.body.epoch > now_epoch {
            return Err(CoreError::BadPseudonym("epoch in the future"));
        }
        if now_epoch - cert.body.epoch > self.core.config.epoch_window {
            return Err(CoreError::BadPseudonym("epoch too old"));
        }
        if self
            .state
            .crl
            .read()
            .pseudonym
            .list
            .contains(&cert.pseudonym_id())
        {
            return Err(CoreError::BadPseudonym("pseudonym revoked"));
        }
        let key = p2drm_pki::VerifyCache::key(&[
            &p2drm_codec::to_bytes(cert),
            &self.core.ra_blind_key_fp,
            &now_epoch.to_le_bytes(),
        ]);
        self.core.vcache.verify_with(key, || {
            // Only misses reach this closure; hits return above it
            // without a marker.
            p2drm_obs::flag("vcache_miss");
            cert.verify(&self.core.ra_blind_key)
                .map_err(|_| CoreError::BadPseudonym("RA signature invalid"))
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ProviderConfig {
        &self.core.config
    }

    /// Hit/miss counters of the provider's verification cache (reported
    /// by the sim).
    pub fn verify_cache_counters(&self) -> p2drm_pki::CacheCounters {
        self.core.vcache.counters()
    }

    /// Anonymous purchase: verify pseudonym + coin, deposit, issue license.
    /// Callable from many threads at once through `&self`. Re-sending a
    /// request (same coin, pseudonym and content) answers the same
    /// license id and deposits nothing more, even once the pseudonym has
    /// aged out or been revoked; the coin under any other pseudonym or
    /// content is a double spend.
    ///
    /// The one-request case of [`ContentProvider::handle_batch`].
    pub fn handle_purchase<R: CryptoRng + ?Sized>(
        &self,
        req: &PurchaseRequest,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        self.handle_one(Issuance::Purchase(req), now_epoch, rng)
    }

    /// Privacy-preserving transfer: revoke the old anonymous license,
    /// issue a fresh one to the recipient pseudonym. The provider sees two
    /// pseudonyms and cannot link either to an identity.
    ///
    /// Concurrency: of N racing transfers of the same license id, exactly
    /// one passes the atomic spent-ID `insert_if_absent`; the rest fail
    /// with [`CoreError::AlreadyRedeemed`]. Re-sending the winner's
    /// request is its replay and answers its successor, even once the
    /// recipient's certificate has aged out.
    ///
    /// The one-request case of [`ContentProvider::handle_batch`].
    pub fn handle_transfer<R: CryptoRng + ?Sized>(
        &self,
        req: &TransferRequest,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        self.handle_one(Issuance::Transfer(req), now_epoch, rng)
    }

    fn handle_one<R: CryptoRng + ?Sized>(
        &self,
        request: Issuance,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        self.handle_batch(&mut [(request, rng)], now_epoch, |_| ())
            .pop()
            .expect("one result per request")
    }

    /// Several purchases and transfers at once, each with its own
    /// randomness; results in request order. Each request is checked
    /// exactly as [`ContentProvider::handle_purchase`] or
    /// [`ContentProvider::handle_transfer`] checks it, in order; then
    /// every coin check and every KEM encapsulation of the batch run as
    /// one [`rsa::public_batch`] (eight RSA-1024 purchases are 16 lanes of
    /// the vertical kernel, two calls); then every license body is signed
    /// by one
    /// [`RsaKeyPair::sign_batch`](p2drm_crypto::rsa::RsaKeyPair::sign_batch)
    /// (eight RSA-1024 signatures are three kernel calls, where one alone
    /// is one); then each request is committed: its claim, then its rows.
    /// A refused or failed request answers its own error and leaves the
    /// others alone, and only a coin that verified is deposited. Each
    /// request draws from its own generator exactly what it draws alone
    /// (its KEM secret), so the licenses are those of one-at-a-time
    /// requests, bit for bit.
    ///
    /// `scope(i)` is called just before request `i` is checked, and what
    /// it returns is dropped once that request is settled: at once for a
    /// refusal by the check, after its commit otherwise. Committing runs
    /// last request first, so the scopes close in the reverse of the
    /// order they opened — the nesting a thread-local tracing span needs
    /// — and a request's check and commit (its deposit and row writes)
    /// are charged to its own span.
    pub fn handle_batch<R: CryptoRng + ?Sized, G>(
        &self,
        batch: &mut [(Issuance<'_>, &mut R)],
        now_epoch: u32,
        mut scope: impl FnMut(usize) -> G,
    ) -> Vec<Result<License, CoreError>> {
        let mut scopes = Vec::with_capacity(batch.len());
        let mut plans = Vec::with_capacity(batch.len());
        for (i, (request, rng)) in batch.iter_mut().enumerate() {
            let guard = scope(i);
            let plan = self.check(*request, now_epoch).map(|plan| {
                let kem = KemSecret::draw(plan.key, &mut **rng);
                (plan, kem)
            });
            // A refusal's scope closes here, before the next one opens.
            scopes.push(plan.is_ok().then_some(guard));
            plans.push(plan);
        }
        let mut lanes = Vec::with_capacity(2 * plans.len());
        for (plan, kem) in plans.iter().flatten() {
            lanes.extend(plan.coin.as_ref().map(CoinCheck::lane));
            lanes.push(kem.lane());
        }
        let mut powers = self.public_batch(&lanes).into_iter();
        let mut next = || powers.next().expect("one power per lane");
        let sealed: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                let (plan, kem) = plan?;
                let verdict = plan.coin.as_ref().map(|coin| coin.finish(&next()));
                let c = next();
                verdict.transpose()?;
                plan.seal(&kem, &c, now_epoch)
            })
            .collect();
        let bodies = sealed
            .iter()
            .filter_map(|s| s.as_ref().ok().map(|(_, body)| body));
        let mut signatures = self.sign_licenses(bodies.collect()).into_iter();
        let mut signed: Vec<_> = sealed
            .into_iter()
            .map(|sealed| {
                sealed.map(|(claim, body)| {
                    let signature = signatures.next().expect("one signature per body");
                    (claim, License { body, signature })
                })
            })
            .collect();
        let mut results = Vec::with_capacity(signed.len());
        while let Some(settled) = signed.pop() {
            results.push(settled.and_then(|(claim, license)| {
                self.commit(&claim, &license)?;
                Ok(license)
            }));
            drop(scopes.pop());
        }
        results.reverse();
        results
    }

    fn check<'a>(&'a self, request: Issuance<'a>, now_epoch: u32) -> Result<Plan<'a>, CoreError> {
        match request {
            Issuance::Purchase(req) => self.check_purchase(req, now_epoch),
            Issuance::Transfer(req) => self.check_transfer(req, now_epoch),
        }
    }

    /// Every check of a purchase, over reads only, in the order a refusal
    /// is decided; the coin's signature check is left to the batch.
    fn check_purchase<'a>(
        &'a self,
        req: &'a PurchaseRequest,
        now_epoch: u32,
    ) -> Result<Plan<'a>, CoreError> {
        let pseudonym = req.pseudonym_cert.pseudonym_id();
        let license_id = purchase_license_id(&req.coin.serial, &pseudonym, &req.content_id);
        // A replay (the serial's spent row already names this license)
        // skips the checks, which time can change: it was paid for, and
        // the license is sealed to the key its id was derived from.
        // Otherwise every check that can refuse the request runs before
        // the deposit, so a refusal never costs the buyer a coin.
        let memo = self.state.mint.spent_memo(&req.coin.serial);
        let replay = memo.as_deref() == Some(license_id.as_bytes());
        if !replay {
            self.verify_pseudonym(&req.pseudonym_cert, now_epoch)?;
        }
        let (price, required, content_key, rights) = {
            let catalog = self.state.catalog.read();
            let item = catalog
                .get(&req.content_id)
                .ok_or(CoreError::UnknownContent(req.content_id))?;
            (
                item.meta.price,
                item.meta.required_attribute.clone(),
                item.key,
                item.rights.clone(),
            )
        };
        let coin = if replay {
            None
        } else {
            if req.coin.denomination < price {
                return Err(CoreError::Payment(PaymentError::InsufficientFunds {
                    balance: req.coin.denomination,
                    requested: price,
                }));
            }
            self.check_attribute_requirement(req, required.as_deref(), now_epoch)?;
            Some(self.state.mint.coin_check(&req.coin)?)
        };
        let key = &req.pseudonym_cert.body.pseudonym_key;
        Ok(Plan {
            claim: Claim::Coin {
                coin: &req.coin,
                spent: memo.is_some() && !replay,
            },
            license_id,
            content_id: req.content_id,
            key,
            holder: key.clone(),
            rights,
            content_key,
            coin,
        })
    }

    /// Every check of a transfer, over reads only, in the order a
    /// refusal is decided.
    fn check_transfer<'a>(
        &'a self,
        req: &'a TransferRequest,
        now_epoch: u32,
    ) -> Result<Plan<'a>, CoreError> {
        req.license.verify(self.core.keys.public())?;
        let old = req.license.id();
        // Transfer must be granted by the license's own rights.
        match req.license.body.rights.transfer {
            Limit::None => {
                return Err(CoreError::Denied(p2drm_rel::DenyReason::NotGranted(
                    p2drm_rel::Action::Transfer,
                )))
            }
            Limit::Count(0) => {
                return Err(CoreError::Denied(p2drm_rel::DenyReason::CountExhausted(
                    p2drm_rel::Action::Transfer,
                )))
            }
            _ => {}
        }
        // Holder proof: current holder signed (lid ‖ recipient key id).
        let recipient = req.recipient_cert.pseudonym_id();
        let proof_bytes = messages::transfer_proof_bytes(&old, &recipient);
        req.license
            .body
            .holder
            .verify(&proof_bytes, &req.proof)
            .map_err(|_| CoreError::BadProof)?;
        // The unique-ID rule: the old id's spent row decides. A row naming
        // this very successor is this transfer, replayed; it skips the
        // recipient check, which time can change.
        let successor = transfer_license_id(&old, &recipient);
        let replay = match self.state.spent.get(&self.state.store, old.as_bytes())? {
            None => false,
            Some(row) if row == Some(successor) => true,
            Some(_) => return Err(CoreError::AlreadyRedeemed(old)),
        };
        if !replay {
            self.verify_pseudonym(&req.recipient_cert, now_epoch)?;
        }
        let content_id = req.license.body.content_id;
        let content_key = self
            .state
            .catalog
            .read()
            .get(&content_id)
            .ok_or(CoreError::UnknownContent(content_id))?
            .key;
        let key = &req.recipient_cert.body.pseudonym_key;
        Ok(Plan {
            claim: Claim::License { old, replay },
            license_id: successor,
            content_id,
            key,
            holder: key.clone(),
            rights: decrement_transfer(&req.license.body.rights),
            content_key,
            coin: None,
        })
    }

    /// Makes a signed request's claim and, if it is fresh or this
    /// request's replay, writes the rows that follow from it: `lic/<id>`,
    /// and for a transfer the old id's CRL listing. A claim another
    /// request made since the check is `DoubleSpend` /
    /// [`CoreError::AlreadyRedeemed`], and writes nothing.
    fn commit(&self, claim: &Claim, license: &License) -> Result<(), CoreError> {
        let (state, id) = (&self.state, license.id());
        match *claim {
            Claim::Coin { coin, .. } => {
                let _stage = p2drm_obs::stage("mint_deposit");
                state.mint.deposit_for(coin, id.as_bytes())?;
            }
            Claim::License { old, replay } => {
                let key = old.as_bytes();
                if !state.spent.insert_if_absent(&state.store, key, &Some(id))? && !replay {
                    return Err(CoreError::AlreadyRedeemed(old));
                }
            }
        }
        state
            .licenses
            .put(&state.store, id.as_bytes(), &license.record())?;
        if let Claim::License { old, .. } = claim {
            self.list_revoked(b'l', license_crl_id(old))?;
        }
        Ok(())
    }

    /// [`rsa::public_batch`] of `lanes`, counted in the provider's
    /// [`BatchStats`].
    fn public_batch(&self, lanes: &[(&RsaPublicKey, &UBig)]) -> Vec<UBig> {
        let calls_before = p2drm_bignum::counts::counts().kernel_calls;
        let powers = rsa::public_batch(lanes);
        let calls = p2drm_bignum::counts::counts().kernel_calls - calls_before;
        let stats = &self.stats;
        stats
            .public_ops
            .fetch_add(lanes.len() as u64, Ordering::Relaxed);
        stats
            .public_kernel_calls
            .fetch_add(calls, Ordering::Relaxed);
        powers
    }

    /// The provider's signatures over `bodies`, in order, from one
    /// [`RsaKeyPair::sign_batch`](p2drm_crypto::rsa::RsaKeyPair::sign_batch);
    /// counted in the provider's [`BatchStats`].
    fn sign_licenses(&self, bodies: Vec<&LicenseBody>) -> Vec<RsaSignature> {
        if bodies.is_empty() {
            return Vec::new();
        }
        let bytes: Vec<Vec<u8>> = bodies.iter().map(|b| b.signing_bytes()).collect();
        let messages: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
        let calls_before = p2drm_bignum::counts::counts().kernel_calls;
        let signatures = self.core.keys.sign_batch(&messages);
        let calls = p2drm_bignum::counts::counts().kernel_calls - calls_before;
        let stats = &self.stats;
        stats
            .signatures
            .fetch_add(messages.len() as u64, Ordering::Relaxed);
        stats.sign_kernel_calls.fetch_add(calls, Ordering::Relaxed);
        stats.batch_size.record(messages.len() as u64);
        signatures
    }

    /// Anonymous content download (no authentication — the payload is
    /// useless without a license).
    ///
    /// The catalog decides whether the item exists; its ciphertext comes
    /// out of the item's `content/<id>` row, the only copy, with one
    /// store read. A listed item whose row is missing or shorter than
    /// its ciphertext is a [`CoreError::Store`], never
    /// [`CoreError::UnknownContent`] or a short payload.
    pub fn download(&self, content_id: &ContentId) -> Result<([u8; 12], Vec<u8>), CoreError> {
        let (nonce, size) = {
            let catalog = self.state.catalog.read();
            let item = catalog
                .get(content_id)
                .ok_or(CoreError::UnknownContent(*content_id))?;
            (item.nonce, item.meta.size)
        };
        let row = self
            .state
            .store
            .get(&content_row_key(content_id))
            .ok_or_else(|| broken_row(format!("{content_id} is listed but has no content row")))?;
        let row_len = row.len();
        let ciphertext = content::row_ciphertext(row, size).ok_or_else(|| {
            broken_row(format!(
                "{content_id}'s content row is {row_len} B, shorter than its {size} B ciphertext"
            ))
        })?;
        Ok((nonce, ciphertext))
    }

    /// Revokes a pseudonym (after TTP de-anonymization).
    pub fn revoke_pseudonym(&self, id: KeyId) -> Result<(), CoreError> {
        self.list_revoked(b'p', id)
    }

    /// Revokes a license id directly (e.g. refund, abuse).
    pub fn revoke_license(&self, lid: &LicenseId) -> Result<(), CoreError> {
        // Claim the id in the spent table *first*: the spent-ID
        // check-and-set is the authoritative exactly-once decision shared
        // with transfers, so a transfer racing this revocation either
        // already won (and the revocation lands on a transferred license,
        // same as the sequential order transfer-then-revoke) or loses
        // with `AlreadyRedeemed`. Without this, a transfer racing the
        // revocation could re-issue revoked content. `None` marks
        // "revoked, not transferred" (transfers store the successor id).
        // Whoever holds the row, the id ends up listed, once.
        self.state
            .spent
            .insert_if_absent(&self.state.store, lid.as_bytes(), &None)?;
        self.list_revoked(b'l', license_crl_id(lid))
    }

    /// Authoritative status of a license id: `Active` (with its holder),
    /// `Transferred`, `Revoked` or `Unknown`. License ids are derived
    /// from a secret coin serial (or from such an id), so only a party
    /// already holding the id can ask about it.
    ///
    /// `Unknown` means the id has no row at all. A row that is present
    /// but unreadable — a store fault, a truncated value, a directory
    /// written in another layout — is an error, never "not issued".
    pub fn license_status(&self, lid: &LicenseId) -> Result<LicenseStatus, CoreError> {
        // The spent table is the authoritative exactly-once record; its
        // value distinguishes a committed transfer (the successor id)
        // from a direct revocation (`None`, see `revoke_license`).
        if let Some(successor) = self.state.spent.get(&self.state.store, lid.as_bytes())? {
            return Ok(match successor {
                Some(_) => LicenseStatus::Transferred,
                None => LicenseStatus::Revoked,
            });
        }
        if self
            .state
            .crl
            .read()
            .license
            .list
            .contains(&license_crl_id(lid))
        {
            return Ok(LicenseStatus::Revoked);
        }
        let record = self.state.licenses.get(&self.state.store, lid.as_bytes())?;
        Ok(
            record.map_or(LicenseStatus::Unknown, |r| LicenseStatus::Active {
                holder: r.holder,
            }),
        )
    }

    /// Signed license CRL for full device sync.
    pub fn signed_license_crl(&self, issued_at: u64) -> SignedCrl {
        let crl = &self.state.crl.read().license;
        let (seq, list) = (crl.seq, crl.list.clone());
        SignedCrl::create(&self.core.keys, CrlScope::License, seq, issued_at, list)
    }

    /// Signed pseudonym CRL for full device sync.
    pub fn signed_pseudonym_crl(&self, issued_at: u64) -> SignedCrl {
        let crl = &self.state.crl.read().pseudonym;
        let (seq, list) = (crl.seq, crl.list.clone());
        SignedCrl::create(&self.core.keys, CrlScope::Pseudonym, seq, issued_at, list)
    }

    /// Licenses issued so far.
    pub fn license_count(&self) -> usize {
        self.state.licenses.len(&self.state.store)
    }

    /// Spent license ids so far: transferred/redeemed or directly
    /// revoked — every id that can never be redeemed again.
    pub fn spent_count(&self) -> usize {
        self.state.spent.len(&self.state.store)
    }

    /// Direct backend access (storage metrics in E6, maintenance such as
    /// compaction via
    /// [`WalShardedKv::compact_all`](p2drm_store::WalShardedKv::compact_all)).
    pub fn store(&self) -> &B {
        &self.state.store
    }
}

/// Key prefix of the `content/<id>` rows: each a [`PackagedContent`]
/// encoding, the one copy of the item's ciphertext.
const CONTENT_PREFIX: &[u8] = b"content/";

fn content_row_key(id: &ContentId) -> Vec<u8> {
    [CONTENT_PREFIX, id.as_bytes()].concat()
}

/// A row the catalog relies on is missing or unreadable: a store error
/// (`Storage` on the wire), like any other damaged state.
fn broken_row(detail: String) -> CoreError {
    CoreError::Store(StoreError::Corrupt { offset: 0, detail })
}

/// License ids enter CRLs as their SHA-256 [`KeyId`] image.
pub fn license_crl_id(lid: &LicenseId) -> KeyId {
    digest_id(lid.as_bytes())
}

/// The id of the license a purchase issues: `SHA-256("p2drm/purchase" ‖
/// coin serial ‖ pseudonym key id ‖ content id)[..16]`. Unguessable
/// without the coin's secret serial, and the same for a re-sent request.
pub fn purchase_license_id(serial: &[u8; 32], pseudonym: &KeyId, content: &ContentId) -> LicenseId {
    derive_license_id(&[b"p2drm/purchase", serial, &pseudonym.0, content.as_bytes()])
}

/// The id of a transfer's successor license: `SHA-256("p2drm/transfer" ‖
/// old id ‖ recipient key id)[..16]`.
pub fn transfer_license_id(old: &LicenseId, recipient: &KeyId) -> LicenseId {
    derive_license_id(&[b"p2drm/transfer", old.as_bytes(), &recipient.0])
}

fn derive_license_id(parts: &[&[u8]]) -> LicenseId {
    let digest = p2drm_crypto::sha256::sha256_concat(parts);
    LicenseId(digest[..16].try_into().expect("a digest is 32 bytes"))
}

/// Transfer semantics: the fresh license carries one fewer transfer use.
fn decrement_transfer(rights: &Rights) -> Rights {
    let mut r = rights.clone();
    r.transfer = match r.transfer {
        Limit::None => Limit::None,
        Limit::Count(n) => Limit::Count(n.saturating_sub(1)),
        Limit::Unlimited => Limit::Unlimited,
    };
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_store::WalShardedKv;

    #[test]
    fn decrement_transfer_semantics() {
        let r = Rights::builder().transfer(Limit::Count(2)).build();
        assert_eq!(decrement_transfer(&r).transfer, Limit::Count(1));
        let r = Rights::builder().transfer(Limit::Unlimited).build();
        assert_eq!(decrement_transfer(&r).transfer, Limit::Unlimited);
        let r = Rights::builder().build();
        assert_eq!(decrement_transfer(&r).transfer, Limit::None);
    }

    #[test]
    fn license_crl_id_is_stable() {
        let lid = LicenseId::from_label("x");
        assert_eq!(license_crl_id(&lid), license_crl_id(&lid));
        assert_ne!(
            license_crl_id(&lid),
            license_crl_id(&LicenseId::from_label("y"))
        );
    }

    #[test]
    fn provider_is_sync_over_sync_backends() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ContentProvider<MemBackend>>();
        assert_sync::<ContentProvider<WalShardedKv>>();
    }
}
