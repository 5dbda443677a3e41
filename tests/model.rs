//! The protocol diffed against its sequential specification,
//! `model/spec.rs`. Each seed picks a shard count and a sync policy and
//! draws one script of `spec::Op`s: purchases, transfers, plays (some by
//! a user who does not hold the license), CRL syncs, status queries,
//! downloads and catalogue lookups; hand-built purchases with a deposited
//! coin, a coin below the price, an unknown item, a stale or revoked
//! pseudonym, or no or another's credential; transfers of exhausted,
//! revoked or restored stale licenses, and ones a thief proves; verbatim
//! re-sends; purchases and transfers over a faulty wire, then
//! `settle_parked` or the transfer again; a deposited coin restored to a
//! wallet; pseudonym and attribute issuance over the wire (an ungranted
//! user, an unknown attribute, a revoked card); the TTP's abuse pipeline
//! on genuine double-transfer evidence and on each kind it refuses; a
//! device shown the current CRL pair with one list older, one signature
//! flipped, both lists signed by a stranger, or the two lists swapped;
//! store cuts (`Op::Cut`: one row write of a purchase, transfer or
//! revocation fails); revocations, epoch changes and restarts (an
//! unclean drop, maybe a torn shard tail, `ContentProvider::resume` from
//! the key vault over the reopened directory, and both devices rebooted
//! over theirs).
//!
//! Each op goes to the stack — `WireClient::with_retry` (4 attempts) over
//! `FaultTransport` over `Loopback::with_rng` → `ProviderService` →
//! `ContentProvider` over `FaultKv<WalShardedKv>` in a temp dir, beside a
//! `System` whose RA the service serves and whose TTP runs the abuse
//! pipeline, and two `CompliantDevice`s over one-shard `WalShardedKv`
//! directories — and to the model, and the outcomes must be equal under a
//! bijection from the model's license handles, pseudonyms and coins to
//! the stack's ids, so a replay must answer the same id. A faulted
//! purchase or transfer arms every transport site at a rate the script
//! draws; what the wire did — answered, retries run out before or after
//! the request reached the provider, or the quote never answered — is
//! read off the fault plan's trace and the requests the provider
//! received (`classify`), never off the stack's answer, and the model
//! predicts from it. A cut arms the store plan's `FAIL_PUT` one-shot at
//! the op's k-th row write; whether the op reached that write is read off
//! the plan's fired count, which must equal the model's, and the model
//! predicts the `Storage` answer and what the op left behind. After
//! every restart and at the end the ledgers must be equal too
//! (`spec::Ledger`). A divergence prints the seed and the script; a seed
//! added to `REGRESSIONS` replays byte for byte. The ignored sweep runs
//! 1,000 more seeds, asserts the per-rate recovery floors and that every
//! write a cut may fail was cut, and prints both:
//! `cargo test --release --test model -- --ignored --nocapture`.
//!
//! What the provider and the RA receive, split by the receiver the op
//! table names, is held to the op's `spec::View` (`Real::hold_to_view`):
//! 1. no identity bytes: no provider payload, answered license or shard
//!    byte read back after a restart (the provider's and each device's)
//!    holds a user's id, account, card id or card master modulus, and no
//!    RA payload a provider-side value;
//! 2. an unfaulted op delivers exactly its view's labels;
//! 3. with public values and the values two views share masked (an
//!    epoch, the attribute name or a denomination only at its offset in
//!    the certificate, credential or coin that carries it), no 8-byte
//!    window of the provider's payloads recurs in two ops of one user
//!    (ops whose views name the user's pseudonyms) unless an op of
//!    another user carries it too.

#[path = "model/spec.rs"]
mod spec;

use p2drm::bignum::UBig;
use p2drm::codec::to_bytes;
use p2drm::core::audit::{Entry, Party, Recording};
use p2drm::core::entities::provider::{purchase_license_id, transfer_license_id, ProviderConfig};
use p2drm::core::protocol::messages::{transfer_proof_bytes, DownloadRequest, LicenseStatus};
use p2drm::core::protocol::messages::{PurchaseRequest, TransferRequest};
use p2drm::core::protocol::{deanonymize_and_punish, AbuseEvidence};
use p2drm::core::retry::RetryPolicy;
use p2drm::core::service::{ApiError, ApiErrorCode, Loopback, OpCode, ProviderService};
use p2drm::core::service::{RequestEnvelope, Transport, TransportError, WireClient};
use p2drm::core::service::{WireRequest, WireResponse};
use p2drm::crypto::rng::{random_array, ChaChaRng};
use p2drm::crypto::rsa::{RsaKeyPair, RsaSignature};
use p2drm::faults::{kv_sites, transport_sites as sites, Decision, FaultKv, FaultPlan};
use p2drm::faults::{FaultTransport, Schedule};
use p2drm::pki::cert::{Certificate, KeyId};
use p2drm::pki::{PkiError, SignedCrl};
use p2drm::prelude::*;
use p2drm::store::{SyncPolicy, WalShardedConfig, WalShardedKv};
use rand::{rngs::StdRng, Rng};
use spec::{Coin, Cred, Device, Evidence, Fault, Faulty, Item, Ledger, Model, Op, Outcome, Req};
use spec::{Shown, Status};
use spec::{Value, View, ADULTS, DENOMINATIONS, DEVICES, FUNDING, ITEMS, PUT_BACK, USERS, USES};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Seeds that once diverged, replayed first.
const REGRESSIONS: &[u64] = &[];
/// Tier-1's seeds and script length, sized to the debug run's budget.
const SEEDS: std::ops::Range<u64> = 0..5;
const OPS: usize = 64;
const ATTRIBUTE: &str = "adult";
/// An attribute the RA grants nobody and holds no key for.
const UNKNOWN_ATTRIBUTE: &str = "licensed pilot";
const PAYLOADS: [&[u8]; 3] = [b"track zero", b"track one", b"rated track"];
/// Every op and fault of the alphabet (found in an op's `Debug`).
const OPS_AND_FAULTS: &str = "Purchase, Forge, Transfer, Steal, Play, SyncCrl, Status, Download, \
    Catalog, Resend, Settle, Restore, RestoreCoin, Pseudonym, Attribute, Accuse, ShowCrl, \
    RevokeLicense, RevokePseudonym, AdvanceEpoch, Restart, Cut, LostReply, Dropped, Unquoted, \
    Genuine, OtherLicense, NotHolder, SameRecipient, CopiedProof, OldLicenses, OldPseudonyms, \
    Tampered, Stranger, Swapped";
/// The wrong parts of hand-built purchases and of transfers (`labels`),
/// what the wire did (`classify`), and the outcomes, that tier-1's seeds
/// must also fire between them.
const MORE_COVERAGE: &str = "deposited coin, coin below price, unknown item, stale pseudonym, \
    revoked pseudonym, no credential, another's credential, exhausted, revoked, stale copy, \
    retried, answered after a retry, busy on the last attempt, AlreadyRedeemed, DoubleSpend, \
    BadPseudonym, UnknownContent, InsufficientFunds, RightsDenied, BadProof, revoked license, \
    settled, replay, rated purchase after a restart, pseudonym issued, credential issued, \
    unknown attribute, ungranted user, CardRefused, Revoked, revoked card, unmasked, accused again, \
    stale CRL, bad signature, unknown issuer, wrong scope, unknown license, \
    double-spent coin dropped, pseudonym reused, Storage, cut purchase at write 1 completed, \
    cut transfer at write 1 completed, cut transfer at write 2 completed, \
    cut revocation at write 1, played from a kept row, denied from a kept row, \
    played from a kept row after a reboot, denied after a reboot, CRL refused after a reboot";
/// Rates (percent) at which a faulted op's sites fire, each with the
/// least share (percent) of faulted purchases the wire must answer
/// within `ATTEMPTS`: the floors the sweep asserts.
const FLOORS: [(u32, f64); 3] = [(1, 99.0), (5, 96.0), (10, 88.0)];
/// The rate, drawn by half the faulted ops, at which retries often run
/// out.
const HIGH_RATE: u32 = 30;
/// The sites a faulted op arms: every one `FaultTransport` consults.
const SITES: [&str; 6] = [
    sites::RESET_MID_WRITE,
    sites::DROP_REQUEST,
    sites::BUSY_STORM,
    sites::DROP_REPLY,
    sites::TORN_FRAME,
    sites::DUPLICATE_REPLY,
];
/// The wire client's attempts per call.
const ATTEMPTS: usize = 4;
/// The window the recurrence check indexes: long enough that a random
/// value recurs by chance about never.
const WINDOW: usize = 8;

/// A transport that logs every request the client sends.
struct Logged<'a, T> {
    inner: T,
    log: &'a RefCell<Vec<Vec<u8>>>,
}

impl<T: Transport> Transport for Logged<'_, T> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        self.log.borrow_mut().push(request.to_vec());
        self.inner.submit(corr_id, request)
    }

    fn complete(
        &self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        self.inner.complete(deadline)
    }
}

/// How one attempt ended.
#[derive(Clone, Copy, PartialEq)]
enum Attempt {
    Answered,
    Busy,
    Failed,
}

/// What the wire did to a faulted op, read off its plan's `trace` and
/// whether the provider received its purchase or transfer request
/// (`delivered`): the fault class, and the names it covers. An attempt
/// ends at its first fault or once its reply is handed up (the duplicate
/// site, consulted last, decides only a re-delivery); a call ends when
/// an attempt is answered or after `ATTEMPTS`. A purchase's first call
/// is its quote, then comes the request's, unless the client refused it
/// locally.
fn classify(
    trace: &[Decision],
    purchase: bool,
    delivered: bool,
) -> Result<(Option<Fault>, Vec<String>), String> {
    let ends = trace.iter().filter_map(|d| match (d.site, d.fired) {
        (sites::DUPLICATE_REPLY, _) => Some(Attempt::Answered),
        (sites::BUSY_STORM, true) => Some(Attempt::Busy),
        (_, true) => Some(Attempt::Failed),
        _ => None,
    });
    let (mut calls, mut call) = (Vec::new(), Vec::new());
    for attempt in ends {
        call.push(attempt);
        if attempt == Attempt::Answered || call.len() == ATTEMPTS {
            calls.push(std::mem::take(&mut call));
        }
    }
    if !call.is_empty() {
        return Err(format!(
            "the client gave up after {} of {ATTEMPTS} attempts",
            call.len()
        ));
    }
    let unanswered = |c: &&Vec<Attempt>| c.last() != Some(&Attempt::Answered);
    let request = calls.get(usize::from(purchase));
    let fault = if purchase && calls.first().filter(unanswered).is_some() {
        Some(Fault::Unquoted)
    } else if request.filter(unanswered).is_some() {
        Some([Fault::Dropped, Fault::LostReply][usize::from(delivered)])
    } else {
        None
    };
    let mut names: Vec<String> = trace
        .iter()
        .filter(|d| d.fired)
        .map(|d| d.site.into())
        .collect();
    if fault.is_none() && calls.iter().any(|c| c.len() > 1) {
        names.push("answered after a retry".into());
    }
    // A purchase's coin parks after a busy last reply; it must not go back.
    if purchase && fault.is_some() && request.and_then(|c| c.last()) == Some(&Attempt::Busy) {
        names.push("busy on the last attempt".into());
    }
    Ok((fault, names))
}

/// What the stack answered, before it is read in the model's terms.
enum Raw {
    Done,
    Issued(Box<License>),
    Status(LicenseStatus),
    Settled(Vec<Result<Raw, WireError>>),
    Unmasked(UserId),
}

fn issued(license: License) -> Raw {
    Raw::Issued(Box::new(license))
}

fn unexpected(got: &'static str) -> WireError {
    WireError::UnexpectedResponse {
        expected: "what the model answers",
        got,
    }
}

/// A purchase's or transfer's reply.
fn answer(reply: WireResponse) -> Result<Raw, WireError> {
    match reply {
        WireResponse::Purchase(r) => Ok(issued(r.license)),
        WireResponse::Transfer(r) => Ok(issued(r.license)),
        WireResponse::Error(e) => Err(WireError::Api(e)),
        other => Err(unexpected(other.label())),
    }
}

/// Binds model index `index` to the stack's `id`: indices bind in order,
/// and never two to one id.
fn bind<T: PartialEq>(ids: &mut Vec<T>, index: usize, id: T) -> Result<(), String> {
    match ids.get(index) {
        Some(bound) if *bound == id => return Ok(()),
        None if index == ids.len() && !ids.contains(&id) => ids.push(id),
        _ => return Err(format!("model index {index} is not the stack's id")),
    }
    Ok(())
}

/// The provider's store: its directory, behind the run's one store plan.
type Backend = FaultKv<WalShardedKv>;

/// The stack beside a `System`, and the bijection from the model's ids.
struct Real {
    sys: System,
    /// The provider's directory and each device's, under one root.
    dir: PathBuf,
    durable: WalShardedConfig,
    vault: (Vec<u8>, Certificate),
    /// The provider's store faults, kept across restarts: a cut arms
    /// `FAIL_PUT` at one write.
    store_plan: Arc<FaultPlan>,
    service: Option<ProviderService<Backend>>,
    users: Vec<UserAgent>,
    devices: Vec<CompliantDevice<WalShardedKv>>,
    /// The published items, then one nobody published.
    items: Vec<ContentId>,
    rng: StdRng,
    /// What the client sent this op.
    log: RefCell<Vec<Vec<u8>>>,
    /// The requests the provider and the RA received this op.
    delivered: Vec<Entry>,
    handles: Vec<LicenseId>,
    pseudonyms: Vec<KeyId>,
    coins: Vec<p2drm::payment::Coin>,
    /// Every purchase and transfer request sent, as in `Model::sent`.
    sent: Vec<WireRequest>,
    /// Every license the stack answered: what backups and thieves hold.
    licenses: HashMap<LicenseId, License>,
    /// The pair each CRL sync received, as in `Model::synced`.
    synced: Vec<(SignedCrl, SignedCrl)>,
    /// A key that is not the provider's, to sign forged CRLs.
    stranger: RsaKeyPair,
    /// Per op, the users whose pseudonyms its view names.
    owners: Vec<Vec<usize>>,
    /// How many ops' views name each value.
    viewed: HashMap<Value, usize>,
    /// Each unmasked window of the provider's payloads: the op, payload
    /// and offset of every occurrence.
    windows: HashMap<[u8; WINDOW], Vec<(usize, usize, usize)>>,
}

/// The wire service over `provider` and `sys`'s RA at `sys`'s clock. The
/// attribute key is trusted once, at the first open; a resumed provider
/// reads it back.
fn serve(provider: ContentProvider<Backend>, sys: &System) -> ProviderService<Backend> {
    let service = ProviderService::new(Arc::new(provider), 0).with_ra(sys.ra.clone());
    service.set_time(sys.epoch(), sys.now());
    service
}

/// Device `d` booted over its one-shard directory under `dir`, with a
/// fresh device key: what it holds is what its store kept.
fn boot(
    sys: &mut System,
    cert: &Certificate,
    dir: &Path,
    d: usize,
    rng: &mut StdRng,
) -> Result<CompliantDevice<WalShardedKv>, String> {
    let one_shard = WalShardedConfig {
        shards: 1,
        policy: SyncPolicy::FlushEach,
    };
    let store = WalShardedKv::open(dir.join(format!("device-{d}")), one_shard);
    let (ra, config) = (sys.ra.blind_public().clone(), sys.config().clone());
    let (bits, validity) = (config.key_bits, config.validity);
    let store = store.map_err(|e| e.to_string())?.0;
    CompliantDevice::with_store(&mut sys.root, cert, ra, store, bits, validity, rng)
        .map_err(|e| e.to_string())
}

impl Real {
    fn new(seed: u64, durable: WalShardedConfig) -> Self {
        let mut rng = test_rng(!seed);
        let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
        let dir = std::env::temp_dir().join(format!("p2drm-model-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mint, ra) = (sys.mint.clone(), sys.ra.blind_public().clone());
        let config = ProviderConfig::fast_test();
        let opened = WalShardedKv::open(dir.join("provider"), durable);
        let (store, report) = opened.expect("a fresh directory opens");
        assert_eq!(report.replayed_ops, 0, "fresh directory");
        let store_plan = Arc::new(FaultPlan::new(seed));
        let store = FaultKv::new(store, store_plan.clone());
        let provider =
            ContentProvider::with_backend(&mut sys.root, mint, ra, store, config, &mut rng);
        let limit = |l: Option<u32>| match l {
            None => Limit::Unlimited,
            Some(0) => Limit::None,
            Some(n) => Limit::Count(n),
        };
        let mut items = Vec::new();
        for (&Item(price, plays, transfers, rated), payload) in ITEMS.iter().zip(PAYLOADS) {
            let rights = Rights::builder()
                .play(limit(plays))
                .transfer(limit(transfers));
            let (title, rights) = (String::from_utf8_lossy(payload), rights.build());
            let published = match rated {
                true => {
                    provider.publish_restricted(title, price, payload, rights, ATTRIBUTE, &mut rng)
                }
                false => provider.publish(title, price, payload, rights, &mut rng),
            };
            items.push(published.expect("published"));
        }
        items.push(ContentId::from_label("never published"));
        let mut users = Vec::new();
        for (u, adult) in ADULTS.into_iter().enumerate() {
            let mut user = sys
                .register_user(&format!("user {u}"), &mut rng)
                .expect("registered");
            if USES[u] > 1 {
                user.set_policy(PseudonymPolicy::ReuseK(USES[u]));
            }
            sys.fund(&user, FUNDING);
            if adult {
                sys.grant_attribute(&user, ATTRIBUTE, &mut rng)
                    .expect("granted");
            }
            users.push(user);
        }
        let key = sys.ra.attribute_public(ATTRIBUTE).expect("granted");
        provider.trust_attribute(ATTRIBUTE, key).expect("trusted");
        let cert = provider.certificate().clone();
        let devices = (0..DEVICES).map(|d| boot(&mut sys, &cert, &dir, d, &mut rng));
        let devices = devices
            .collect::<Result<_, _>>()
            .expect("compliant devices");
        let stranger = RsaKeyPair::generate(sys.config().key_bits, &mut rng);
        Real {
            vault: (provider.export_keys(), cert),
            service: Some(serve(provider, &sys)),
            sys,
            dir,
            durable,
            store_plan,
            users,
            devices,
            items,
            rng,
            log: RefCell::default(),
            delivered: Vec::new(),
            handles: Vec::new(),
            pseudonyms: Vec::new(),
            coins: Vec::new(),
            sent: Vec::new(),
            licenses: HashMap::new(),
            synced: Vec::new(),
            stranger,
            owners: Vec::new(),
            viewed: HashMap::new(),
            windows: HashMap::new(),
        }
    }

    fn service(&self) -> &ProviderService<Backend> {
        self.service.as_ref().expect("the provider is up")
    }

    /// The provider's unclean stop, maybe a torn tail on one shard, and
    /// its resume over the same store plan; then each device's reboot.
    /// Every shard file, the devices' too, is read back for identity
    /// bytes.
    fn restart(&mut self, tear: Option<usize>) -> Result<(), String> {
        drop(self.service.take());
        self.devices.clear();
        let provider_dir = self.dir.join("provider");
        if let Some(shard) = tear {
            p2drm::faults::crash::tear_shard_tail(&provider_dir, shard).expect("torn");
        }
        let (store, report) =
            WalShardedKv::open(&provider_dir, self.durable).map_err(|e| e.to_string())?;
        if tear.is_some() && !report.truncated_tail {
            return Err("the reopened store did not report the torn tail".into());
        }
        let keys = p2drm::codec::from_bytes(&self.vault.0).expect("vault");
        let (cert, mint) = (self.vault.1.clone(), self.sys.mint.clone());
        let (ra, config) = (
            self.sys.ra.blind_public().clone(),
            ProviderConfig::fast_test(),
        );
        let store = FaultKv::new(store, self.store_plan.clone());
        let resumed = ContentProvider::resume(keys, cert, mint, ra, store, config);
        self.service = Some(serve(resumed.map_err(|e| e.to_string())?, &self.sys));
        for d in 0..DEVICES {
            let device = boot(&mut self.sys, &self.vault.1, &self.dir, d, &mut self.rng)?;
            self.devices.push(device);
        }
        let shards = (0..self.durable.shards).map(|s| (provider_dir.clone(), s));
        let devices = (0..DEVICES).map(|d| (self.dir.join(format!("device-{d}")), 0));
        for (dir, shard) in shards.chain(devices) {
            let file = dir.join(p2drm::faults::crash::shard_wal_name(shard));
            let disk = std::fs::read(&file).map_err(|e| e.to_string())?;
            self.identity_free(&file.display().to_string(), &disk)?;
        }
        Ok(())
    }

    /// Runs `op` on the stack and fills in what the wire did to a faulted
    /// one; returns the stack's answer and the names the wire covered.
    fn step(&mut self, op: &mut Op) -> Result<(Result<Raw, WireError>, Vec<String>), String> {
        self.delivered.clear();
        if let Op::Restart(tear) = *op {
            self.restart(tear)?;
            return Ok((Ok(Raw::Done), Vec::new()));
        }
        // A cut fails the op's k-th row write, and no later one.
        let store = &self.store_plan;
        if let Op::Cut(k, _) = *op {
            let at = store.calls(kv_sites::FAIL_PUT) + u64::from(k);
            store.set(kv_sites::FAIL_PUT, Schedule::OneShot(at));
        }
        // A faulted op arms every site; any other goes over a clean wire.
        let plan = Arc::new(FaultPlan::new(self.rng.gen()));
        if let Op::Purchase(.., Some(Faulty(rate, _))) | Op::Transfer(.., Some(Faulty(rate, _))) =
            *op
        {
            for site in SITES {
                plan.set(site, Schedule::Probability(f64::from(rate) / 100.0));
            }
        }
        let purchase = matches!(op, Op::Purchase(..));
        let mut transcript = Transcript::new();
        let raw = self.run(op, &plan, &mut transcript);
        self.store_plan.set(kv_sites::FAIL_PUT, Schedule::Never);
        self.delivered = transcript.entries().to_vec();
        self.delivered
            .retain(|e| e.to == Party::Provider || e.to == Party::Ra);
        let delivered = self
            .delivered
            .iter()
            .any(|e| e.label == OpCode::Purchase.label() || e.label == OpCode::Transfer.label());
        if let Op::Purchase(.., Some(Faulty(_, class))) | Op::Transfer(.., Some(Faulty(_, class))) =
            op
        {
            let (fault, names) = classify(&plan.trace(), purchase, delivered)?;
            *class = fault;
            return Ok((raw, names));
        }
        Ok((raw, Vec::new()))
    }

    /// Binds what the op sent and reads the stack's answer in the model's
    /// terms, once the store has failed the writes the model cut.
    fn read(&mut self, raw: Result<Raw, WireError>, model: &Model) -> Result<Outcome, String> {
        let cuts = self.store_plan.fired(kv_sites::FAIL_PUT);
        if cuts != model.cuts() {
            return Err(format!("{cuts} row writes failed, not {}", model.cuts()));
        }
        self.bind(model)?;
        self.outcome(raw)
    }

    fn run(
        &mut self,
        op: &Op,
        plan: &Arc<FaultPlan>,
        transcript: &mut Transcript,
    ) -> Result<Raw, WireError> {
        let Real {
            sys,
            users,
            devices,
            items,
            rng,
            handles,
            pseudonyms,
            ..
        } = self;
        let service = self.service.as_ref().expect("the provider is up");
        let op = match op {
            Op::Cut(_, op) => op,
            op => op,
        };
        let loopback = Loopback::with_rng(service, ChaChaRng::new(random_array(rng), [0; 12]));
        let delivered = Recording::new(loopback, transcript);
        let wire = Logged {
            inner: FaultTransport::new(delivered, plan.clone()),
            log: &self.log,
        };
        let policy = RetryPolicy {
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            max_attempts: ATTEMPTS as u32,
            jitter_seed: rng.gen(),
        };
        let mut client = WireClient::with_id_key(wire, random_array(rng)).with_retry(policy);
        client.set_epoch(sys.epoch());
        let provider = service.provider();
        let item_id = |item: Option<usize>| items[item.unwrap_or(ITEMS.len())];
        match *op {
            Op::Purchase(user, item, _) => {
                let u = &mut users[user];
                match ITEMS[item].3 && ADULTS[user] {
                    true => sys.ensure_attribute(u, ATTRIBUTE, rng)?,
                    false => sys.ensure_pseudonym(u, rng)?,
                }
                client
                    .purchase(u, &sys.mint, item_id(Some(item)), rng)
                    .map(issued)
            }
            Op::Forge(user, item, pseudonym, coin, cred) => {
                let bound = |p: usize| {
                    let held = users
                        .iter()
                        .find_map(|u| u.attribute_cert_for(&pseudonyms[p], ATTRIBUTE));
                    held.cloned()
                };
                let borrowed = match cred {
                    Cred::Of(p) => bound(p),
                    _ => None,
                };
                let u = &mut users[user];
                if pseudonym.is_none() {
                    sys.ensure_pseudonym(u, rng)?;
                }
                let certs = u.pseudonym_certs();
                let chosen =
                    pseudonym.map(|p| certs.iter().position(|c| c.pseudonym_id() == pseudonyms[p]));
                let pseudonym_cert =
                    certs[chosen.unwrap_or(Some(certs.len() - 1)).expect("mine")].clone();
                let holder = pseudonym_cert.pseudonym_id();
                let attribute_cert = match cred {
                    Cred::Own => {
                        sys.ensure_attribute(u, ATTRIBUTE, rng)?;
                        u.attribute_cert_for(&holder, ATTRIBUTE).cloned()
                    }
                    _ => borrowed,
                };
                let (coin, fresh) = match coin {
                    Coin::Spent(c) => (self.coins[c].clone(), false),
                    Coin::Fresh(d) => {
                        let account = u.account.clone();
                        let coin =
                            p2drm::payment::Wallet::new().withdraw(&sys.mint, &account, d, rng)?;
                        (coin, true)
                    }
                };
                if pseudonym.is_none() {
                    u.note_pseudonym_use();
                }
                let content_id = item_id(item);
                let request = PurchaseRequest {
                    content_id,
                    pseudonym_cert,
                    coin: coin.clone(),
                    attribute_cert,
                };
                match answer(client.call(WireRequest::Purchase(request))?) {
                    Ok(Raw::Issued(license)) if u.license(&license.id()).is_none() => {
                        u.add_license((*license).clone(), holder);
                        Ok(Raw::Issued(license))
                    }
                    Err(WireError::Api(e)) if fresh && PUT_BACK.contains(&e.code) => {
                        u.wallet.put_back(coin);
                        Err(WireError::Api(e))
                    }
                    other => other,
                }
            }
            Op::Transfer(from, to, license, _) => {
                sys.ensure_pseudonym(&mut users[to], rng)?;
                let (low, high) = users.split_at_mut(from.max(to));
                let (a, b) = match from < to {
                    true => (&mut low[from], &mut high[0]),
                    false => (&mut high[0], &mut low[to]),
                };
                client.transfer(a, b, handles[license], rng).map(issued)
            }
            Op::Steal(thief, license, to) => {
                sys.ensure_pseudonym(&mut users[thief], rng)?;
                sys.ensure_pseudonym(&mut users[to], rng)?;
                let signer = users[thief]
                    .current_pseudonym()
                    .expect("ensured")
                    .pseudonym_id();
                let recipient_cert = users[to].current_pseudonym().expect("ensured").clone();
                let license = self.licenses[&handles[license]].clone();
                let proof = transfer_proof_bytes(&license.id(), &recipient_cert.pseudonym_id());
                let proof = users[thief].card.sign_with_pseudonym(&signer, &proof)?;
                let request = TransferRequest {
                    license,
                    recipient_cert,
                    proof,
                };
                answer(client.call(WireRequest::Transfer(request))?)
            }
            Op::Play(user, device, license) => {
                let owned = self.licenses[&handles[license]].clone();
                let played = client.play(&users[user], &mut devices[device], &owned, rng)?;
                let item = items.iter().position(|&c| c == owned.body.content_id);
                match item.map(|i| PAYLOADS[i]) == Some(&played[..]) {
                    true => Ok(Raw::Done),
                    false => Err(unexpected("another payload")),
                }
            }
            Op::SyncCrl(device) => {
                client.sync_crls(&mut devices[device])?;
                let now = service.now();
                let crls = (
                    provider.signed_license_crl(now),
                    provider.signed_pseudonym_crl(now),
                );
                self.synced.push(crls);
                Ok(Raw::Done)
            }
            Op::ShowCrl(device, shown) => {
                let now = service.now();
                let mut license_crl = provider.signed_license_crl(now);
                let mut pseudonym_crl = provider.signed_pseudonym_crl(now);
                match shown {
                    Shown::OldLicenses(n) => license_crl = self.synced[n].0.clone(),
                    Shown::OldPseudonyms(n) => pseudonym_crl = self.synced[n].1.clone(),
                    Shown::Tampered => {
                        let mut signature = pseudonym_crl.signature.to_bytes();
                        signature[7] ^= 0x10;
                        let signature = UBig::from_bytes_be(&signature);
                        pseudonym_crl.signature = RsaSignature::from_ubig(signature);
                    }
                    Shown::Stranger => {
                        for crl in [&mut license_crl, &mut pseudonym_crl] {
                            let b = crl.body.clone();
                            *crl =
                                SignedCrl::create(&self.stranger, b.scope, b.sequence, now, b.list);
                        }
                    }
                    Shown::Swapped => std::mem::swap(&mut license_crl, &mut pseudonym_crl),
                }
                devices[device].sync_crls(&license_crl, &pseudonym_crl)?;
                Ok(Raw::Done)
            }
            Op::Status(license) => client.license_status(handles[license]).map(Raw::Status),
            Op::Download(item) => {
                let request = DownloadRequest {
                    content_id: item_id(item),
                };
                match client.call(WireRequest::Download(request))? {
                    WireResponse::Download(d)
                        if Some(d.ciphertext.len()) == item.map(|i| PAYLOADS[i].len()) =>
                    {
                        Ok(Raw::Done)
                    }
                    other => answer(other),
                }
            }
            Op::Catalog(item) => match client.content_meta(item_id(item))?.price {
                price if Some(price) == item.map(|i| ITEMS[i].0) => Ok(Raw::Done),
                _ => Err(unexpected("another price")),
            },
            Op::Resend(k) => answer(client.call(self.sent[k].clone())?),
            Op::Settle(user) => {
                let settled = client.settle_parked(&mut users[user]).into_iter();
                Ok(Raw::Settled(settled.map(|r| r.map(issued)).collect()))
            }
            Op::Restore(user, license, pseudonym) => {
                let copy = self.licenses[&handles[license]].clone();
                users[user].add_license(copy, pseudonyms[pseudonym]);
                Ok(Raw::Done)
            }
            Op::RestoreCoin(user, coin) => {
                users[user].wallet.put_back(self.coins[coin].clone());
                Ok(Raw::Done)
            }
            Op::Pseudonym(user) => {
                let (ra, ttp) = (sys.ra.blind_public(), sys.ttp.escrow_key());
                client.obtain_pseudonym(&mut users[user], ra, ttp, rng)?;
                Ok(Raw::Done)
            }
            Op::Attribute(user, known) => {
                let u = &mut users[user];
                if u.current_pseudonym().is_none() {
                    let (ra, ttp) = (sys.ra.blind_public(), sys.ttp.escrow_key());
                    client.obtain_pseudonym(u, ra, ttp, rng)?;
                }
                let key = sys.ra.attribute_public(ATTRIBUTE).expect("granted");
                let attribute = [UNKNOWN_ATTRIBUTE, ATTRIBUTE][usize::from(known)];
                client.obtain_attribute(u, attribute, &key, rng)?;
                Ok(Raw::Done)
            }
            Op::Accuse(license, [first, second], evidence) => {
                // The user and the certificate behind a pseudonym id.
                let owner = |id: &KeyId| {
                    let mut all = users
                        .iter()
                        .flat_map(|u| u.pseudonym_certs().iter().map(move |c| (u, c)));
                    all.find(|(_, c)| c.pseudonym_id() == *id).expect("issued")
                };
                let license = self.licenses[&handles[license]].clone();
                let holder = KeyId::of_rsa(&license.body.holder);
                let card = &owner(&holder).0.card;
                let authorize = |license: &License, to: usize| {
                    let recipient_cert = owner(&pseudonyms[to]).1.clone();
                    let proof = transfer_proof_bytes(&license.id(), &recipient_cert.pseudonym_id());
                    let proof = card.sign_with_pseudonym(&holder, &proof)?;
                    Ok::<_, CoreError>(TransferRequest {
                        license: license.clone(),
                        recipient_cert,
                        proof,
                    })
                };
                let (other, to, accused) = match evidence {
                    Evidence::OtherLicense(l) => {
                        (self.licenses[&handles[l]].clone(), second, holder)
                    }
                    Evidence::NotHolder(p) => (license.clone(), second, pseudonyms[p]),
                    Evidence::SameRecipient => (license.clone(), first, holder),
                    Evidence::Genuine | Evidence::CopiedProof => (license.clone(), second, holder),
                };
                let first = authorize(&license, first)?;
                let mut second = authorize(&other, to)?;
                if let Evidence::CopiedProof = evidence {
                    second.proof = first.proof.clone();
                }
                let evidence = AbuseEvidence::DoubleTransfer { first, second };
                let (ttp, ra, t) = (&mut sys.ttp, &sys.ra, &mut Transcript::new());
                let unmasked =
                    deanonymize_and_punish(ttp, ra, provider, &evidence, owner(&accused).1, t);
                Ok(Raw::Unmasked(unmasked?))
            }
            Op::RevokeLicense(license) => {
                let revoked = provider.revoke_license(&handles[license]);
                revoked
                    .map(|()| Raw::Done)
                    .map_err(|e| WireError::Api(ApiError::from(e)))
            }
            Op::RevokePseudonym(pseudonym) => {
                let revoked = provider.revoke_pseudonym(pseudonyms[pseudonym]);
                revoked
                    .map(|()| Raw::Done)
                    .map_err(|e| WireError::Api(ApiError::from(e)))
            }
            Op::AdvanceEpoch(epochs) => {
                (0..epochs).for_each(|_| sys.advance_epoch());
                service.set_time(sys.epoch(), sys.now());
                Ok(Raw::Done)
            }
            Op::Restart(_) | Op::Cut(..) => unreachable!("stepped"),
        }
    }

    /// Binds what an op made on the stack to what it made in the model:
    /// the pseudonyms issued, then each purchase and transfer request
    /// sent — its coin, its pseudonyms and the license id it derives.
    fn bind(&mut self, model: &Model) -> Result<(), String> {
        for p in self.pseudonyms.len()..model.pseudonyms.len() {
            let user = model.pseudonyms[p].user;
            let nth = model.users[user]
                .pseudonyms
                .iter()
                .position(|&q| q == p)
                .expect("own");
            let cert = self.users[user]
                .pseudonym_certs()
                .get(nth)
                .ok_or("a pseudonym too few")?;
            bind(&mut self.pseudonyms, p, cert.pseudonym_id())?;
        }
        let certs: usize = self.users.iter().map(|u| u.pseudonym_certs().len()).sum();
        if certs != model.pseudonyms.len() {
            return Err("a pseudonym too many".into());
        }
        let mut previous = None;
        for bytes in self.log.take() {
            let body = RequestEnvelope::from_bytes(&bytes)
                .map_err(|e| e.to_string())?
                .body;
            // A retry sends the request before it again.
            if previous.replace(body.clone()).as_ref() == Some(&body) {
                continue;
            }
            let (id, handle) = match (&body, model.sent.get(self.sent.len())) {
                (WireRequest::Purchase(r), Some(&(Req::Purchase(coin, pseudonym, ..), handle))) => {
                    let holder = r.pseudonym_cert.pseudonym_id();
                    bind(&mut self.coins, coin, r.coin.clone())?;
                    bind(&mut self.pseudonyms, pseudonym, holder)?;
                    (
                        purchase_license_id(&r.coin.serial, &holder, &r.content_id),
                        handle,
                    )
                }
                (
                    WireRequest::Transfer(r),
                    Some(&(Req::Transfer(license, _, recipient), handle)),
                ) => {
                    let to = r.recipient_cert.pseudonym_id();
                    bind(&mut self.handles, license, r.license.id())?;
                    bind(&mut self.pseudonyms, recipient, to)?;
                    (transfer_license_id(&r.license.id(), &to), handle)
                }
                (WireRequest::Purchase(_) | WireRequest::Transfer(_), _) => {
                    return Err(format!("the stack sent a {}", body.opcode().label()))
                }
                _ => continue,
            };
            bind(&mut self.handles, handle, id)?;
            self.sent.push(body);
        }
        match self.sent.len() == model.sent.len() {
            true => Ok(()),
            false => Err("the model sent a request the stack did not".into()),
        }
    }

    fn outcome(&mut self, raw: Result<Raw, WireError>) -> Result<Outcome, String> {
        Ok(match raw {
            Ok(Raw::Done) => Outcome::Done,
            Ok(Raw::Issued(license)) => {
                let key = self.service().provider().public_key();
                license.verify(key).map_err(|e| e.to_string())?;
                self.identity_free("a license", &to_bytes(&*license))?;
                let handle = self.handles.iter().position(|&h| h == license.id());
                self.licenses.insert(license.id(), *license);
                Outcome::Issued(handle.ok_or("issued an id no request named")?)
            }
            Ok(Raw::Status(status)) => Outcome::Status(self.status(status)?),
            Ok(Raw::Settled(all)) => {
                let all = all.into_iter().map(|r| self.outcome(r));
                Outcome::Settled(all.collect::<Result<_, _>>()?)
            }
            Ok(Raw::Unmasked(id)) => {
                let user = self.users.iter().position(|u| u.user_id() == id);
                Outcome::Unmasked(user.ok_or("unmasked nobody")?)
            }
            Err(WireError::Api(e)) if e.code == ApiErrorCode::ServiceUnavailable => Outcome::Parked,
            Err(WireError::Api(e)) => Outcome::Api(e.code),
            Err(WireError::Transport(_) | WireError::Envelope(_)) => Outcome::Parked,
            Err(WireError::Client(e)) => Outcome::Refused(match e {
                CoreError::Revoked("license") => "revoked license",
                CoreError::Revoked("pseudonym") => "revoked pseudonym",
                CoreError::Revoked("card") => "revoked card",
                CoreError::UnknownLicense(_) => "unknown license",
                CoreError::BadLicense("stale CRL rejected") => "stale CRL",
                CoreError::Pki(PkiError::BadSignature) => "bad signature",
                CoreError::Pki(PkiError::UnknownIssuer) => "unknown issuer",
                CoreError::Pki(PkiError::WrongScope) => "wrong scope",
                CoreError::BadEvidence(why) => why,
                CoreError::Denied(_) => "denied",
                CoreError::BadPseudonym(_) => "bad pseudonym",
                CoreError::Payment(_) => "payment",
                other => return Err(format!("refused: {other}")),
            }),
            Err(other) => return Err(other.to_string()),
        })
    }

    fn status(&self, status: LicenseStatus) -> Result<Status, String> {
        Ok(match status {
            LicenseStatus::Unknown => Status::Unknown,
            LicenseStatus::Active { holder } => {
                let p = self.pseudonyms.iter().position(|&p| p == holder);
                Status::Active(p.ok_or("active under a pseudonym nobody holds")?)
            }
            LicenseStatus::Transferred => Status::Transferred,
            LicenseStatus::Revoked => Status::Revoked,
        })
    }

    fn ledger(&self) -> Result<Ledger, String> {
        let (provider, mint) = (self.service().provider(), &self.sys.mint);
        let mut statuses = Vec::new();
        for id in &self.handles {
            statuses.push(self.status(provider.license_status(id).map_err(|e| e.to_string())?)?);
        }
        let crl = |c: &SignedCrl| (c.body.sequence, c.body.list.len());
        let card_crl = self.sys.ra.signed_card_crl(0);
        let mut users = Vec::new();
        for u in &self.users {
            let held = u
                .licenses()
                .iter()
                .map(|o| self.handles.iter().position(|&h| h == o.license.id()));
            let held = held
                .collect::<Option<_>>()
                .ok_or("holds an id no request named")?;
            users.push((
                mint.balance(&u.account),
                u.wallet.balance(),
                u.parked.len(),
                held,
                card_crl
                    .body
                    .list
                    .contains(&KeyId::of_rsa(u.card.master_public())),
            ));
        }
        let mut unmasked = Vec::new();
        for opening in self.sys.ttp.audit_log() {
            let user = self.users.iter().position(|u| u.user_id() == opening.user);
            unmasked.push((user.ok_or("unmasked nobody")?, opening.reason));
        }
        let (spent, licenses) = (
            provider.spent_count() as u64,
            provider.license_count() as u64,
        );
        Ok(Ledger {
            counts: [
                mint.deposited_total(),
                mint.spent_count() as u64,
                licenses,
                spent,
            ],
            statuses,
            crls: [
                crl(&provider.signed_license_crl(0)),
                crl(&provider.signed_pseudonym_crl(0)),
                crl(&card_crl),
            ],
            users,
            unmasked,
            devices: self.devices.iter().map(|d| d.crl_sequence()).collect(),
        })
    }
}

/// Whether `needle` occurs in `bytes`.
fn contains(bytes: &[u8], needle: &[u8]) -> bool {
    bytes.windows(needle.len()).any(|w| w == needle)
}

impl Real {
    /// Holds what the provider and the RA received in the op just run to
    /// its view: the three checks of the module doc, in order 2, 1, 3.
    fn hold_to_view(&mut self, model: &Model, op: &Op, view: &View) -> Result<(), String> {
        let labels: Vec<&str> = self.delivered.iter().map(|e| e.label).collect();
        let faulted = matches!(op, Op::Purchase(.., Some(_)) | Op::Transfer(.., Some(_)));
        if !faulted && labels != view.labels {
            return Err(format!("delivered {labels:?}, not {:?}", view.labels));
        }
        for e in self.delivered.iter().filter(|e| e.to == Party::Provider) {
            self.identity_free(&format!("a {} request", e.label), &e.bytes)?;
        }
        self.ra_view_only(view)?;
        self.no_unexplained_recurrence(model, view)
    }

    /// `bytes` hold no user's id, account, card id or card master modulus.
    fn identity_free(&self, what: &str, bytes: &[u8]) -> Result<(), String> {
        for (u, user) in self.users.iter().enumerate() {
            let card = &user.card;
            let needles = [
                ("id", user.user_id().as_bytes().to_vec()),
                ("account", user.account.as_bytes().to_vec()),
                ("card id", card.card_id().as_bytes().to_vec()),
                (
                    "master modulus",
                    card.master_public().modulus().to_bytes_be(),
                ),
            ];
            if let Some((name, _)) = needles.iter().find(|n| contains(bytes, &n.1)) {
                return Err(format!("{what} holds user {u}'s {name}"));
            }
        }
        Ok(())
    }

    /// Each request the RA received names the card of the user its view
    /// names, no other user's, and no value of the provider's views.
    fn ra_view_only(&self, view: &View) -> Result<(), String> {
        let received = self.delivered.iter().filter(|e| e.to == Party::Ra);
        let cards: Vec<_> = self.users.iter().map(|u| u.card.card_id()).collect();
        let ra = &self.sys.ra;
        let blind = ra.blind_public().modulus_len();
        let attribute = ra
            .attribute_public(ATTRIBUTE)
            .expect("granted")
            .modulus_len();
        let fdh = |bytes: &[u8], len| p2drm::crypto::rsa::fdh(bytes, len).to_bytes_be();
        let mut provider_view = Vec::new();
        for user in &self.users {
            for cert in user.pseudonym_certs() {
                let signing = cert.body.signing_bytes();
                provider_view.push(cert.body.pseudonym_key.modulus().to_bytes_be());
                provider_view.push(fdh(&signing, blind));
                provider_view.push(signing);
                if let Some(c) = user.attribute_cert_for(&cert.pseudonym_id(), ATTRIBUTE) {
                    let signing = c.body.signing_bytes();
                    provider_view.push(fdh(&signing, attribute));
                    provider_view.push(signing);
                }
            }
        }
        provider_view.extend(self.handles.iter().map(|h| h.0.to_vec()));
        provider_view.extend(self.coins.iter().map(|c| c.serial.to_vec()));
        for (e, &user) in received.zip(&view.ra) {
            let named: Vec<usize> = (0..USERS)
                .filter(|&u| contains(&e.bytes, cards[u].as_bytes()))
                .collect();
            if named != [user] {
                return Err(format!("{} names the cards of users {named:?}", e.label));
            }
            if provider_view.iter().any(|v| contains(&e.bytes, v)) {
                return Err(format!("{} holds a value the provider sees", e.label));
            }
        }
        Ok(())
    }

    /// Masks the op's provider payloads — public values, and the values
    /// its view shares with an earlier op's — and refuses a window it
    /// shares with an earlier op of one of its users that no op of
    /// another user carries.
    fn no_unexplained_recurrence(&mut self, model: &Model, view: &View) -> Result<(), String> {
        let mut owners: Vec<usize> = (view.provider.iter())
            .filter_map(|v| match *v {
                Value::Pseudonym(p) => Some(model.pseudonyms[p].user),
                _ => None,
            })
            .collect();
        owners.sort_unstable();
        owners.dedup();
        let mut shared = Vec::new();
        for v in view.provider.iter().collect::<HashSet<_>>() {
            let views = self.viewed.entry(*v).or_default();
            *views += 1;
            if *views > 1 {
                shared.push(*v);
            }
        }
        let whole = |m: Vec<u8>| {
            let all = 0..m.len();
            (vec![all], m)
        };
        let values = self.public_encodings(view).into_iter();
        let values = values.chain(shared.into_iter().flat_map(|v| self.encodings(v)));
        let mut masks: Vec<_> = values.map(whole).collect();
        masks.extend(self.public_fields());
        let n = self.owners.len();
        self.owners.push(owners);
        let mut fresh = HashSet::new();
        let payloads = self.delivered.iter().filter(|e| e.to == Party::Provider);
        for (p, bytes) in payloads.map(|e| &e.bytes).enumerate() {
            let mut masked = vec![false; bytes.len()];
            for (fields, m) in masks.iter().filter(|m| m.1.len() <= bytes.len()) {
                for at in 0..=bytes.len() - m.len() {
                    if bytes[at..at + m.len()] == m[..] {
                        for f in fields {
                            masked[at + f.start..at + f.end].fill(true);
                        }
                    }
                }
            }
            for at in 0..bytes.len().saturating_sub(WINDOW - 1) {
                let w: [u8; WINDOW] = bytes[at..at + WINDOW].try_into().expect("a window");
                if masked[at..at + WINDOW].contains(&true) || !fresh.insert(w) {
                    continue;
                }
                let earlier = self.windows.entry(w).or_default();
                for &u in &self.owners[n] {
                    let of = |o: usize| self.owners[o].contains(&u);
                    let other = earlier
                        .iter()
                        .any(|e| !of(e.0) && !self.owners[e.0].is_empty());
                    if let (Some((o, q, b)), false) = (earlier.iter().find(|e| of(e.0)), other) {
                        return Err(format!(
                            "leak: ops {o} and {n} of user {u} carry the window {w:02x?} (payload \
                             {q} offset {b}; payload {p} offset {at}), which no op of another user carries"
                        ));
                    }
                }
                earlier.push((n, p, at));
            }
        }
        Ok(())
    }

    /// The public values an op may carry whole: the content ids and CRL
    /// sequences its view names and every authority's public key.
    fn public_encodings(&self, view: &View) -> Vec<Vec<u8>> {
        let (sys, provider) = (&self.sys, self.service().provider());
        let public = (view.provider.iter()).filter(|v| matches!(v, Value::Item(_) | Value::Crl(_)));
        let mut all: Vec<Vec<u8>> = public.flat_map(|v| self.encodings(*v)).collect();
        let minted = DENOMINATIONS.map(|d| sys.mint.public_key(d).expect("minted").clone());
        let (ra, attribute) = (
            &sys.ra,
            sys.ra.attribute_public(ATTRIBUTE).expect("granted"),
        );
        let keys = [
            provider.public_key(),
            ra.identity_public(),
            ra.blind_public(),
            &attribute,
        ];
        all.extend(keys.into_iter().chain(&minted).map(to_bytes));
        all.push(to_bytes(sys.ttp.escrow_key()));
        all
    }

    /// The public fields too short to mask wherever their bytes occur, at
    /// their offsets in each structure that carries one: a pseudonym
    /// certificate's epoch, a credential's attribute name and epoch, and a
    /// coin's denomination. A small per-user value elsewhere stays seen.
    fn public_fields(&self) -> Vec<(Vec<Range<usize>>, Vec<u8>)> {
        let len = |bytes: Vec<u8>| bytes.len();
        let mut all = Vec::new();
        for user in &self.users {
            for cert in user.pseudonym_certs() {
                let body = len(to_bytes(&cert.body));
                let epoch = body - len(to_bytes(&cert.body.epoch))..body;
                all.push((vec![epoch], to_bytes(cert)));
                if let Some(c) = user.attribute_cert_for(&cert.pseudonym_id(), ATTRIBUTE) {
                    let name = len(to_bytes(&c.attribute));
                    let body = name + len(to_bytes(&c.body));
                    let epoch = body - len(to_bytes(&c.body.epoch))..body;
                    all.push((vec![0..name, epoch], to_bytes(c)));
                }
            }
        }
        for coin in &self.coins {
            let serial = len(to_bytes(&coin.serial));
            let denomination = serial..serial + len(to_bytes(&coin.denomination));
            all.push((vec![denomination], to_bytes(coin)));
        }
        all
    }

    /// The byte strings that stand for `v` on the wire.
    fn encodings(&self, v: Value) -> Vec<Vec<u8>> {
        match v {
            Value::Pseudonym(p) => {
                let Some(id) = self.pseudonyms.get(p) else {
                    return Vec::new();
                };
                let (user, cert) = (self.users.iter())
                    .flat_map(|u| u.pseudonym_certs().iter().map(move |c| (u, c)))
                    .find(|(_, c)| c.pseudonym_id() == *id)
                    .expect("issued");
                let key = cert.body.pseudonym_key.modulus().to_bytes_be();
                let credential = user.attribute_cert_for(id, ATTRIBUTE).map(to_bytes);
                let all = [to_bytes(cert), key, id.0.to_vec()].into_iter();
                all.chain(credential).collect()
            }
            // A license travels in the transfers that give it up (a replay's
            // copy has its key sealed afresh); a successor's id derives
            // from the transfer request, and the holder's proof signs the
            // same pair.
            Value::License(h) => {
                let Some(&id) = self.handles.get(h) else {
                    return Vec::new();
                };
                let mut all = vec![id.0.to_vec()];
                for r in &self.sent {
                    let WireRequest::Transfer(t) = r else {
                        continue;
                    };
                    if t.license.id() == id {
                        all.push(to_bytes(&t.license));
                    }
                    let to = t.recipient_cert.pseudonym_id();
                    if transfer_license_id(&t.license.id(), &to) == id {
                        all.push(to_bytes(&t.proof));
                    }
                }
                all
            }
            Value::Coin(c) => self.coins.get(c).map_or(Vec::new(), |coin| {
                vec![to_bytes(coin), coin.serial.to_vec()]
            }),
            Value::Item(item) => vec![self.items[item.unwrap_or(ITEMS.len())].0.to_vec()],
            Value::Crl(sequence) => vec![sequence.to_le_bytes().to_vec()],
        }
    }
}

impl Drop for Real {
    fn drop(&mut self) {
        drop(self.service.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The next op, drawn from the model's state so that every reference
/// names something that exists, and whether it sends again a transfer
/// that went over a faulty wire or was cut (kept in `retry`).
fn draw(m: &Model, rng: &mut StdRng, shards: usize, retry: &mut Option<Op>) -> (Op, bool) {
    // A transfer that failed is often sent again at once, before its
    // recipient moves to a new pseudonym.
    if let Some(Op::Transfer(from, to, license, _)) = *retry {
        if m.users[from].held.iter().any(|l| l.0 == license) && rng.gen_range(0..2) == 0 {
            *retry = None;
            return (Op::Transfer(from, to, license, None), true);
        }
    }
    let mut r = |n: usize| rng.gen_range(0..n.max(1));
    let mut held = Vec::new();
    let mut copies = Vec::new();
    for (u, user) in m.users.iter().enumerate() {
        held.extend(user.held.iter().map(|l| (u, l.0)));
        copies.extend(
            user.history
                .iter()
                .filter(|l| !user.held.contains(l))
                .map(|l| (u, *l)),
        );
    }
    // Licenses no longer live (revoked, or copies of transferred ones)
    // are drawn more often than their share.
    let dead: Vec<_> = held
        .iter()
        .filter(|l| !matches!(m.status(l.1), Status::Active(_)))
        .collect();
    let spent: Vec<usize> = (0..m.coins.len())
        .filter(|&c| m.coins[c].1.is_some())
        .collect();
    // What a cut reaches the write of: a live license, one that may move,
    // a pseudonym not yet listed.
    let live: Vec<_> = (held.iter())
        .filter(|l| matches!(m.status(l.1), Status::Active(_)))
        .collect();
    let movable: Vec<_> = (live.iter())
        .filter(|l| m.licenses[l.1].transfers != Some(0))
        .map(|&&l| l)
        .collect();
    let listable: Vec<usize> = (0..m.pseudonyms.len())
        .filter(|p| !m.pseudonym_crl.0.contains(p))
        .collect();
    loop {
        let (user, item, other, device) = (r(USERS), r(ITEMS.len()), 1 + r(USERS - 1), r(DEVICES));
        let (holder, license) = match dead.get(r(3 * dead.len())) {
            Some(&&l) => l,
            None => *held.get(r(held.len())).unwrap_or(&(0, 0)),
        };
        let maybe_item = (r(4) > 0).then_some(item);
        let faulty = Faulty([FLOORS[r(3)].0, HIGH_RATE][r(2)], None);
        // Issuance is drawn for a revoked card half the time there is one.
        let issuing = match m.users.iter().position(|u| u.revoked) {
            Some(revoked) if r(2) == 0 => revoked,
            _ => user,
        };
        // Weights out of 133. Tier-1's seeds fire every coverage name only
        // between them, so a changed weight is checked against those lists.
        let op = match r(133) {
            0..=3 => Op::Purchase(user, item, None),
            4..=17 => Op::Purchase(user, item, Some(faulty)),
            18..=34 => forge(m, user, item, &mut r),
            35..=41 if !held.is_empty() => match retry.take() {
                Some(Op::Transfer(from, to, license, _))
                    if m.users[from].held.iter().any(|l| l.0 == license) =>
                {
                    return (Op::Transfer(from, to, license, None), true);
                }
                _ => {
                    let faulty = (r(3) == 0).then_some(faulty);
                    let op = Op::Transfer(holder, (holder + other) % USERS, license, faulty);
                    *retry = faulty.map(|_| op.clone());
                    op
                }
            },
            42..=44 if !held.is_empty() => Op::Steal((holder + other) % USERS, license, user),
            45..=54 if !held.is_empty() => {
                // Most plays repeat the license the device counted most,
                // so counts run out and kept rows are played.
                let counted =
                    (held.iter()).filter_map(|l| Some((m.devices[device].1.get(&l.1)?, l)));
                match counted.max_by_key(|c| c.0) {
                    Some((_, &(holder, license))) if r(3) > 0 => Op::Play(holder, device, license),
                    _ => Op::Play([holder, user][usize::from(r(4) == 0)], device, license),
                }
            }
            55..=57 => Op::SyncCrl(device),
            58..=63 if !m.licenses.is_empty() => Op::Status(r(m.licenses.len())),
            64..=66 => Op::Download(maybe_item),
            67..=69 => Op::Catalog(maybe_item),
            70..=74 if !m.sent.is_empty() => Op::Resend(r(m.sent.len())),
            75..=77 => {
                let parked = (0..USERS)
                    .map(|u| (user + u) % USERS)
                    .find(|&u| !m.users[u].parked.is_empty());
                Op::Settle(parked.unwrap_or(user))
            }
            78 if !copies.is_empty() => {
                let (user, (license, pseudonym)) = copies[r(copies.len())];
                Op::Restore(user, license, pseudonym)
            }
            79..=80 if !held.is_empty() => Op::RevokeLicense(license),
            81..=82 if !held.is_empty() => {
                Op::RevokePseudonym([m.licenses[license].holder, r(m.pseudonyms.len())][r(2)])
            }
            83..=85 => Op::AdvanceEpoch(1 + r(4) as u32),
            86..=89 => Op::Restart((r(2) == 0).then(|| r(shards))),
            90..=94 if !spent.is_empty() => Op::RestoreCoin(user, spent[r(spent.len())]),
            95..=97 => Op::Pseudonym(issuing),
            98..=102 => Op::Attribute(issuing, r(3) > 0),
            103..=112 if !held.is_empty() && m.pseudonyms.len() > 1 => {
                accuse(m, license, &held, &mut r)
            }
            // Old lists are drawn oldest first more often than their share.
            113..=124 => {
                let newest = r(m.synced.len());
                let n = r(1 + newest);
                let shown = match r(7) {
                    0 => Shown::Tampered,
                    1 => Shown::Stranger,
                    2 => Shown::Swapped,
                    _ if m.synced.is_empty() => continue,
                    3 | 4 => Shown::OldLicenses(n),
                    _ => Shown::OldPseudonyms(n),
                };
                Op::ShowCrl(device, shown)
            }
            // A cut transfer is sent again like a faulted one.
            125..=132 => {
                let op = match r(5) {
                    0 => Op::Purchase(user, item, None),
                    1 | 2 if !movable.is_empty() => {
                        let (from, license) = movable[r(movable.len())];
                        let op = Op::Transfer(from, (from + other) % USERS, license, None);
                        *retry = Some(op.clone());
                        op
                    }
                    3 if !live.is_empty() => Op::RevokeLicense(live[r(live.len())].1),
                    4 if !listable.is_empty() => Op::RevokePseudonym(listable[r(listable.len())]),
                    _ => continue,
                };
                let k = 1 + u32::from(matches!(op, Op::Transfer(..)) && r(2) == 0);
                Op::Cut(k, Box::new(op))
            }
            _ => continue,
        };
        return (op, false);
    }
}

/// The TTP's pipeline on evidence against `license`'s holder toward two
/// distinct recipients: genuine, or with one defect.
fn accuse(
    m: &Model,
    license: usize,
    held: &[(usize, usize)],
    r: &mut impl FnMut(usize) -> usize,
) -> Op {
    let n = m.pseudonyms.len();
    let first = r(n);
    let recipients = [first, (first + 1 + r(n - 1)) % n];
    let holder = m.licenses[license].holder;
    let other = held.iter().map(|l| l.1).find(|&l| l != license);
    let evidence = match (r(6), other) {
        (0 | 1, _) => Evidence::Genuine,
        (2, Some(other)) => Evidence::OtherLicense(other),
        (3, _) => Evidence::NotHolder((holder + 1 + r(n - 1)) % n),
        (4, _) => Evidence::SameRecipient,
        _ => Evidence::CopiedProof,
    };
    Op::Accuse(license, recipients, evidence)
}

/// A hand-built purchase: each part is the honest one or, about three
/// times in eight, a wrong one, so that refusals meet in every order.
fn forge(m: &Model, user: usize, item: usize, r: &mut impl FnMut(usize) -> usize) -> Op {
    let unfit = |p: &usize| {
        m.epoch - m.pseudonyms[*p].epoch > spec::EPOCH_WINDOW || m.pseudonym_crl.0.contains(p)
    };
    let unfit: Vec<usize> = m.users[user]
        .pseudonyms
        .iter()
        .copied()
        .filter(unfit)
        .collect();
    let pseudonym = (r(8) < 3 && !unfit.is_empty()).then(|| unfit[r(unfit.len())]);
    let item = (r(8) >= 3).then_some(item);
    let spent: Vec<usize> = (0..m.coins.len())
        .filter(|&c| m.coins[c].1.is_some())
        .collect();
    let (item, coin) = match r(8) {
        0 | 1 if !spent.is_empty() => (item, Coin::Spent(spent[r(spent.len())])),
        2 => (item.map(|_| 1), Coin::Fresh(DENOMINATIONS[0])),
        _ => {
            let price = ITEMS[item.unwrap_or(0)].0;
            (
                item,
                Coin::Fresh(
                    *DENOMINATIONS
                        .iter()
                        .find(|&&d| d >= price)
                        .expect("covered"),
                ),
            )
        }
    };
    let theirs = |p: &usize| m.pseudonyms[*p].cred.is_some() && m.pseudonyms[*p].user != user;
    let borrowed: Vec<usize> = (0..m.pseudonyms.len()).filter(theirs).collect();
    let cred = match r(8) {
        0 | 1 => Cred::None,
        2..=4 if !borrowed.is_empty() => Cred::Of(borrowed[r(borrowed.len())]),
        _ if ADULTS[user] && pseudonym.is_none() => Cred::Own,
        _ => Cred::None,
    };
    Op::Forge(user, item, pseudonym, coin, cred)
}

/// The coverage names `op` fires in state `m`: its variant and fault, and
/// the wrong parts of a hand-built purchase or of a transfer.
fn labels(m: &Model, op: &Op, retried: bool) -> Vec<&'static str> {
    let debug = format!("{op:?}");
    let tokens: Vec<&str> = debug.split(|c: char| !c.is_alphanumeric()).collect();
    let mut labels: Vec<&str> = OPS_AND_FAULTS
        .split(", ")
        .filter(|l| tokens.contains(l))
        .collect();
    let stale = |p: &usize| m.epoch - m.pseudonyms[*p].epoch > spec::EPOCH_WINDOW;
    if let Op::Purchase(user, ..) | Op::Forge(user, _, None, ..) = *op {
        if m.users[user].uses > 0 && m.current_pseudonym(user).is_some() {
            labels.push("pseudonym reused");
        }
    }
    let checks = match *op {
        Op::Accuse(license, _, Evidence::Genuine) => {
            let holder = m.licenses[license].holder;
            vec![(m.users[m.pseudonyms[holder].user].revoked, "accused again")]
        }
        Op::Forge(user, item, pseudonym, coin, cred) => {
            let Item(price, _, _, rated) = ITEMS[item.unwrap_or(0)];
            vec![
                (matches!(coin, Coin::Spent(_)), "deposited coin"),
                (
                    matches!(coin, Coin::Fresh(d) if item.is_some() && d < price),
                    "coin below price",
                ),
                (item.is_none(), "unknown item"),
                (pseudonym.as_ref().is_some_and(stale), "stale pseudonym"),
                (
                    pseudonym.is_some_and(|p| m.pseudonym_crl.0.contains(&p)),
                    "revoked pseudonym",
                ),
                (
                    rated && item.is_some() && matches!(cred, Cred::None),
                    "no credential",
                ),
                (
                    rated && matches!(cred, Cred::Of(p) if m.pseudonyms[p].user != user),
                    "another's credential",
                ),
            ]
        }
        Op::Transfer(_, _, license, _) => vec![
            (m.licenses[license].transfers == Some(0), "exhausted"),
            (m.status(license) == Status::Revoked, "revoked"),
            (m.status(license) == Status::Transferred, "stale copy"),
            (retried, "retried"),
        ],
        Op::Pseudonym(user) => vec![(!m.users[user].revoked, "pseudonym issued")],
        Op::Attribute(user, known) => {
            let issuing = !m.users[user].revoked;
            vec![
                (issuing && known && ADULTS[user], "credential issued"),
                (issuing && !known, "unknown attribute"),
                (issuing && known && !ADULTS[user], "ungranted user"),
            ]
        }
        _ => Vec::new(),
    };
    labels.extend(checks.into_iter().filter(|c| c.0).map(|c| c.1));
    labels
}

/// The names a play or a CRL shown fires by what the device kept: a play
/// from its kept row (nothing downloaded) or denied while it holds the
/// item, and, since the last restart (`booted`), a kept item played, a
/// count used up before the reboot denied, or a refusal by the CRL pair
/// the device held at the reboot.
fn kept_state(
    m: &Model,
    op: &Op,
    out: &Outcome,
    view: &View,
    booted: Option<&[Device]>,
) -> Vec<&'static str> {
    let (device, license) = match *op {
        Op::Play(_, d, l) => (d, Some(l)),
        Op::ShowCrl(d, _) => (d, None),
        _ => return Vec::new(),
    };
    let item = license.map(|l| m.item(l));
    let kept = |devices: &[Device]| item.is_some_and(|i| devices[device].2.contains(&i));
    let before = |f: &dyn Fn(&Device) -> bool| booted.is_some_and(|b| f(&b[device]));
    let crls = before(&|d| d.0 == m.devices[device].0);
    let counted = before(&|d| license.is_some_and(|l| d.1.get(&l).is_some_and(|&n| n > 0)));
    let fetched = view.labels.contains(&"download");
    let checks = match *out {
        Outcome::Done => vec![
            (license.is_some() && !fetched, "played from a kept row"),
            (
                !fetched && booted.is_some_and(kept),
                "played from a kept row after a reboot",
            ),
        ],
        Outcome::Refused("denied") => vec![
            (kept(&m.devices), "denied from a kept row"),
            (counted, "denied after a reboot"),
        ],
        Outcome::Refused("stale CRL" | "revoked license" | "revoked pseudonym") => {
            vec![(crls, "CRL refused after a reboot")]
        }
        _ => Vec::new(),
    };
    checks.into_iter().filter(|c| c.0).map(|c| c.1).collect()
}

/// Runs one seed's script on the stack and the model, panicking with the
/// seed and the script at the first divergence; returns the names it
/// covered, one each time it fired (a faulted purchase also names its
/// rate and class, e.g. `10% answered`).
fn run_seed(seed: u64) -> Vec<String> {
    let mut rng = test_rng(seed);
    let shards = [1, 4][rng.gen_range(0..2)];
    let policy = [
        SyncPolicy::Buffered,
        SyncPolicy::FlushEach,
        SyncPolicy::SyncEach,
    ][rng.gen_range(0..3)];
    let mut real = Real::new(seed, WalShardedConfig { shards, policy });
    let (mut model, mut script, mut covered, mut retry) =
        (Model::new(), Vec::new(), Vec::new(), None);
    // The devices as the last restart found them, and each cut purchase
    // or transfer not yet completed, by its license.
    let (mut booted, mut cut) = (None::<Vec<Device>>, HashMap::new());
    for i in 0..OPS {
        // Every script ends in a restart, so its last ledger is read back.
        let (mut op, retried) = match i + 1 == OPS {
            true => (
                Op::Restart((rng.gen_range(0..2) == 0).then(|| rng.gen_range(0..shards))),
                false,
            ),
            false => draw(&model, &mut rng, shards, &mut retry),
        };
        let ran = real.step(&mut op);
        covered.extend(labels(&model, &op, retried).into_iter().map(String::from));
        let cuts = model.cuts();
        let (expected, view) = model.apply(&op);
        script.push(format!("{i:3}: {op:?} -> {expected:?}"));
        let ran = ran.and_then(|(raw, names)| {
            covered.extend(names);
            real.read(raw, &model)
        });
        let mut diverged = match ran {
            Ok(got) if got == expected => real.hold_to_view(&model, &op, &view).err(),
            Ok(got) => Some(format!("the stack answered {got:?}")),
            Err(e) => Some(e),
        };
        if diverged.is_none() && matches!(op, Op::Restart(_)) {
            diverged = match real.ledger() {
                Ok(ledger) if ledger == model.ledger() => None,
                Ok(ledger) => Some(format!("ledger {ledger:?}\nmodel's {:?}", model.ledger())),
                Err(e) => Some(e),
            };
        }
        if let Some(why) = diverged {
            let script = script.join("\n");
            panic!("seed {seed} ({shards} shards, {policy:?}) diverged at op {i}: {why}\nscript:\n{script}");
        }
        // A purchase refused before its quote did not touch the wire.
        let quoted = expected != Outcome::Refused("revoked card");
        if let (Op::Purchase(.., Some(Faulty(rate, fault))), true) = (&op, quoted) {
            let class = fault.map_or("answered".into(), |f| format!("{f:?}"));
            covered.push(format!("{rate}% {class}"));
        }
        if matches!(op, Op::Purchase(..)) && expected == Outcome::Api(ApiErrorCode::DoubleSpend) {
            covered.push("double-spent coin dropped".into());
        }
        let issued = matches!(expected, Outcome::Issued(_));
        if matches!(op, Op::Purchase(_, item, _) if ITEMS[item].3 && issued && booted.is_some()) {
            covered.push("rated purchase after a restart".into());
        }
        if let (Op::Cut(k, cut_op), true) = (&op, model.cuts() > cuts) {
            let kind = match **cut_op {
                Op::Purchase(..) => "purchase",
                Op::Transfer(..) => "transfer",
                _ => "revocation",
            };
            let name = format!("cut {kind} at write {k}");
            if kind != "revocation" {
                cut.insert(model.sent.last().expect("sent").1, name.clone());
            }
            covered.push(name);
        }
        if matches!(op, Op::Restart(_)) {
            booted = Some(model.devices.clone());
        }
        let kept = kept_state(&model, &op, &expected, &view, booted.as_deref());
        covered.extend(kept.into_iter().map(String::from));
        let outcomes = match expected {
            Outcome::Settled(all) if all.iter().any(|o| matches!(o, Outcome::Issued(_))) => {
                covered.push("settled".into());
                all
            }
            Outcome::Settled(all) => all,
            Outcome::Unmasked(_) => {
                covered.push("unmasked".into());
                Vec::new()
            }
            other => vec![other],
        };
        for outcome in outcomes {
            match outcome {
                Outcome::Api(code) => covered.push(format!("{code:?}")),
                Outcome::Refused(why) => covered.push(why.into()),
                Outcome::Issued(h) => {
                    covered.extend(cut.remove(&h).map(|c| format!("{c} completed")))
                }
                _ => {}
            };
        }
    }
    if model.replays > 0 {
        covered.push("replay".into());
    }
    covered
}

/// Runs `seeds` on two threads and gathers what they covered.
fn run_seeds(seeds: &[u64]) -> Vec<String> {
    std::thread::scope(|scope| {
        let mut runs = Vec::new();
        for chunk in seeds.chunks(seeds.len().div_ceil(2).max(1)) {
            runs.push(
                scope.spawn(move || chunk.iter().flat_map(|&s| run_seed(s)).collect::<Vec<_>>()),
            );
        }
        runs.into_iter()
            .flat_map(|run| run.join().expect("a seed diverged"))
            .collect()
    })
}

#[test]
fn seeded_scripts_match_the_model() {
    let seeds: Vec<u64> = REGRESSIONS.iter().copied().chain(SEEDS).collect();
    let covered = run_seeds(&seeds);
    let all = OPS_AND_FAULTS.split(", ").chain(MORE_COVERAGE.split(", "));
    let missing: Vec<_> = all
        .chain(SITES)
        .filter(|c| !covered.iter().any(|name| name == c))
        .collect();
    assert!(missing.is_empty(), "no seed fired or produced {missing:?}");
}

/// Per rate, the faulted purchases the wire answered within `ATTEMPTS`
/// must reach the floor, and each write a cut may fail must fail at
/// least once; each rate's and each write's line prints with
/// `--nocapture`.
#[test]
#[ignore = "optimised sweep: cargo test --release --test model -- --ignored --nocapture"]
fn a_thousand_more_seeds_match_the_model() {
    let covered = run_seeds(&(1_000..2_000).collect::<Vec<u64>>());
    let rates = FLOORS.map(|(rate, floor)| (rate, Some(floor)));
    for (rate, floor) in rates.into_iter().chain([(HIGH_RATE, None)]) {
        let count = |class| {
            covered
                .iter()
                .filter(|c| **c == format!("{rate}% {class}"))
                .count()
        };
        let [answered, lost, dropped, unquoted] =
            ["answered", "LostReply", "Dropped", "Unquoted"].map(count);
        let all = answered + lost + dropped + unquoted;
        let recovery = 100.0 * answered as f64 / all.max(1) as f64;
        println!(
            "{rate}%: {all} faulted purchases, {recovery:.1}% answered within {ATTEMPTS} attempts; \
             parked {lost} after delivery and {dropped} undelivered; {unquoted} unquoted"
        );
        if let Some(floor) = floor {
            assert!(
                recovery >= floor,
                "{rate}%: {recovery:.1}% answered, below the {floor}% floor"
            );
        }
    }
    let count = |name: String| covered.iter().filter(|c| **c == name).count();
    for write in [
        "purchase at write 1",
        "transfer at write 1",
        "transfer at write 2",
    ] {
        let (cut, completed) = (
            count(format!("cut {write}")),
            count(format!("cut {write} completed")),
        );
        println!("cut {write}: {cut} times, {completed} completed");
        assert!(cut > 0, "no seed cut a {write}");
    }
    let cut = count("cut revocation at write 1".into());
    println!("cut revocation at write 1: {cut} times");
    assert!(cut > 0, "no seed cut a revocation");
}
