//! The work census: what the system does per operation, counted rather
//! than timed, and pinned.
//!
//! Four seeded mixes run through `WireClient` over `Loopback::with_rng`
//! → `ProviderService` → a `WalShardedKv` in a temporary directory, once
//! under `SyncPolicy::FlushEach` and once under `SyncEach`: 64 purchases
//! (each with its fresh pseudonym and coin) in batches of eight through
//! `handle_batch_with_rngs`, as a server worker serves eight queued
//! requests; 8 journeys (a fresh pseudonym, a purchase, three plays, a
//! transfer); 100 downloads of 16 KiB; 200 operations drawn catalogue /
//! download / status / purchase / transfer 30 / 30 / 20 / 15 / 5.
//!
//! Every row is per operation, from per-thread counters:
//! `p2drm_bignum::counts`, `p2drm_crypto::counts`, this binary's
//! counting allocator (the recording transport's copy of each frame
//! included), the store's `store_commit_ns` / `store_fsync_ns` counts,
//! the shard logs' length and the `Recording` transcript. `Loopback`
//! serves on the caller's thread and the WAL's group-commit leader is
//! the committing thread, so each row is this thread's work alone and
//! repeats exactly. A card's `card-keygen` thread is in no row; "one card
//! key" generates a key on this thread instead.
//!
//! Rows the AVX-512 IFMA kernel moves are pinned for a CPU with it and
//! for one without. The portable blocks are unverified on a CPU without
//! IFMA: they come from a copy of the tree with every feature-detected
//! kernel (IFMA, SHA-NI, ADX, the wide sieve steps) switched off. The
//! table reads the same in an unoptimised and an optimised build.
//!
//! Heap rows are printed always and pinned only in an optimised build on
//! a CPU with IFMA: the unoptimised build adds the lock-order checker's
//! records and the CRT self-check of every signature, and a std release
//! may move them. They hold under libtest's output capture, the default
//! (a thread spawn allocates for it); print a passing table with
//! `--show-output`. A mismatch prints the tables: check that only the
//! rows you meant to move moved, and paste them.
//!
//! The census also holds E8 (a transfer does the same store reads and
//! writes and RSA operations against a spent set of 0 and of 512 ids) and
//! E4 (a play does the same work on a device holding 0 and 64 other
//! licenses) as equalities.

mod common;

use p2drm_bignum::counts::{self as bignum, POW_WIDTHS};
use p2drm_core::audit::Recording;
use p2drm_core::entities::device::CompliantDevice;
use p2drm_core::entities::smartcard::CardBudget;
use p2drm_core::entities::user::{PseudonymPolicy, UserAgent};
use p2drm_core::ids::{ContentId, LicenseId};
use p2drm_core::license::License;
use p2drm_core::protocol::messages::{DownloadRequest, PurchaseRequest};
use p2drm_core::service::{
    Loopback, ProviderService, Transport, TransportError, WireClient, WireRequest, WireResponse,
};
use p2drm_core::system::{System, SystemConfig};
use p2drm_core::Transcript;
use p2drm_crypto::counts as crypto;
use p2drm_crypto::rng::{random_array, test_rng, ChaChaRng};
use p2drm_crypto::rsa::RsaKeyPair;
use p2drm_obs::{Registry, SnapshotBuilder};
use p2drm_store::typed::Table;
use p2drm_store::{ConcurrentKv, MemKv, StoreError, SyncPolicy, WalShardedConfig, WalShardedKv};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The census at `SystemConfig::fast_test()`: rows no kernel moves.
const FAST_SHARED: &str = "\
per op                            purchases   journeys  downloads        mix
sha256 blocks                       100.000    491.125      0.000     16.740
chacha20 blocks                       4.750    789.125      1.000      1.655
store commits                         1.000      4.000      0.000      0.215
fsyncs FlushEach                      0.000      0.000      0.000      0.000
fsyncs SyncEach                       1.000      4.000      0.000      0.215
wal bytes                            63.000    233.000      0.000     13.070
frames                                2.000      9.750      2.000      2.280
payload bytes                       720.969  16512.000  16415.000   4694.140
";

/// The census at `fast_test()`, rows a CPU with AVX-512 IFMA gives.
const FAST_IFMA: &str = "\
per op                            purchases   journeys  downloads        mix
rsa private, lanes                    4.000     18.750      0.000      0.660
rsa private, scalar                   0.000      0.000      0.000      0.000
rsa public, lanes                     0.000      0.000      0.000      0.000
rsa public, scalar                   10.000     30.375      0.000      1.625
ifma kernel calls                     3.250     15.750      0.000      0.660
ifma lanes filled                     8.000     37.500      0.000      1.320
one card key: 48 fermat lanes, 3 passed, 8 kernel calls, 56 lanes, 2 scalar tests, 392 sieve steps, 1409 lucas products, 0 Mont::pow
";

/// The census at `fast_test()`, heap rows: an optimised build on a CPU
/// with AVX-512 IFMA (see the module doc for why no other is pinned).
const FAST_HEAP: &str = "\
per op                            purchases   journeys  downloads        mix
allocations                         414.906   1401.875      9.010     83.135
heap bytes                        38510.672 310164.750  66243.760  24530.105
";

/// The census at `fast_test()`, rows a CPU without AVX-512 IFMA gives.
const FAST_PORTABLE: &str = "\
per op                            purchases   journeys  downloads        mix
rsa private, lanes                    0.000      0.000      0.000      0.000
rsa private, scalar                   4.000     18.750      0.000      0.660
rsa public, lanes                     0.000      0.000      0.000      0.000
rsa public, scalar                   10.000     30.375      0.000      1.625
ifma kernel calls                     0.000      0.000      0.000      0.000
ifma lanes filled                     0.000      0.000      0.000      0.000
Mont::pow, 4 limbs                    8.000     37.500      0.000      1.320
one card key: 0 fermat lanes, 0 passed, 0 kernel calls, 0 lanes, 34 scalar tests, 246 sieve steps, 1409 lucas products, 8 Mont::pow
";

/// The census at `SystemConfig::realistic()`: rows no kernel moves.
const REALISTIC_SHARED: &str = "\
per op                            purchases   journeys  downloads        mix
sha256 blocks                       170.000    693.375      0.000     28.140
chacha20 blocks                       6.750    794.250      1.000      1.990
store commits                         1.000      4.000      0.000      0.215
fsyncs FlushEach                      0.000      0.000      0.000      0.000
fsyncs SyncEach                       1.000      4.000      0.000      0.215
wal bytes                            63.000    233.000      0.000     13.070
frames                                2.000      9.750      2.000      2.280
payload bytes                      1175.969  17747.125  16415.000   4774.095
";

/// The census at `realistic()`, rows a CPU with AVX-512 IFMA gives.
const REALISTIC_IFMA: &str = "\
per op                            purchases   journeys  downloads        mix
rsa private, lanes                    4.000     18.750      0.000      0.660
rsa private, scalar                   0.000      0.000      0.000      0.000
rsa public, lanes                    10.000     30.375      0.000      1.625
rsa public, scalar                    0.000      0.000      0.000      0.000
ifma kernel calls                    12.625     41.000      0.000      2.310
ifma lanes filled                    24.000     90.375      0.000      3.935
one card key: 24 fermat lanes, 4 passed, 6 kernel calls, 36 lanes, 3 scalar tests, 207 sieve steps, 3558 lucas products, 0 Mont::pow
";

/// The census at `realistic()`, heap rows: an optimised build on a CPU
/// with AVX-512 IFMA.
const REALISTIC_HEAP: &str = "\
per op                            purchases   journeys  downloads        mix
allocations                         460.219   1688.250      9.010     91.100
heap bytes                        67190.125 408924.250  66243.760  29256.635
";

/// The census at `realistic()`, rows a CPU without AVX-512 IFMA gives.
const REALISTIC_PORTABLE: &str = "\
per op                            purchases   journeys  downloads        mix
rsa private, lanes                    0.000      0.000      0.000      0.000
rsa private, scalar                   4.000     18.750      0.000      0.660
rsa public, lanes                     0.000      0.000      0.000      0.000
rsa public, scalar                   10.000     30.375      0.000      1.625
ifma kernel calls                     0.000      0.000      0.000      0.000
ifma lanes filled                     0.000      0.000      0.000      0.000
Mont::pow, 6 limbs                   12.000     56.250      0.000      1.980
one card key: 0 fermat lanes, 0 passed, 0 kernel calls, 0 lanes, 19 scalar tests, 171 sieve steps, 3558 lucas products, 12 Mont::pow
";

/// Every item is this long: a page or more, so the WAL keeps it in the
/// shard log and a download is one read of it.
const ITEM_BYTES: usize = 16 * 1024;
/// Items published before the mixes.
const ITEMS: usize = 8;

#[test]
fn fast_test_census() {
    census(
        "fast_test",
        SystemConfig::fast_test(),
        FAST_SHARED,
        [FAST_IFMA, FAST_HEAP],
        FAST_PORTABLE,
    );
}

/// Seconds unoptimised; CI runs it optimised with `--ignored`.
#[test]
#[ignore = "realistic() keys: run optimised with --ignored"]
fn realistic_census() {
    census(
        "realistic",
        SystemConfig::realistic(),
        REALISTIC_SHARED,
        [REALISTIC_IFMA, REALISTIC_HEAP],
        REALISTIC_PORTABLE,
    );
}

/// Every counter this test reads on its own thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    bignum: bignum::Counts,
    crypto: crypto::Counts,
    allocations: u64,
    allocated_bytes: u64,
}

fn work() -> Work {
    let (allocations, allocated_bytes) = common::thread_allocations();
    Work {
        bignum: bignum::counts(),
        crypto: crypto::counts(),
        allocations,
        allocated_bytes,
    }
}

impl std::ops::Sub for Work {
    type Output = Work;

    fn sub(self, earlier: Work) -> Work {
        Work {
            bignum: self.bignum - earlier.bignum,
            crypto: self.crypto - earlier.crypto,
            allocations: self.allocations - earlier.allocations,
            allocated_bytes: self.allocated_bytes - earlier.allocated_bytes,
        }
    }
}

/// One mix's totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tally {
    ops: u64,
    work: Work,
    commits: u64,
    fsyncs: u64,
    wal_bytes: u64,
    frames: u64,
    payload_bytes: u64,
}

/// `(commits, fsyncs)` the store has recorded.
fn commits_and_fsyncs(store: &WalShardedKv) -> (u64, u64) {
    let mut out = SnapshotBuilder::new();
    store.collect_metrics(&mut out);
    let snapshot = out.finish();
    let count = |name| snapshot.histogram(name).map_or(0, |h| h.count);
    (count("store_commit_ns"), count("store_fsync_ns"))
}

/// The system under census, its wire service and the transcript every
/// exchange is recorded into.
struct Stack {
    sys: System<WalShardedKv>,
    service: ProviderService<WalShardedKv>,
    items: Vec<ContentId>,
    rng: StdRng,
    transcript: Transcript,
}

impl Stack {
    fn new(config: SystemConfig, dir: &Path, policy: SyncPolicy) -> Stack {
        let (kv, _) = WalShardedKv::open(dir, WalShardedConfig::with_policy(policy)).unwrap();
        let mut rng = test_rng(0xCE05);
        let sys = System::bootstrap_with_backend(config, kv, &mut rng);
        let items = (0..ITEMS)
            .map(|i| {
                sys.publish_content(&format!("item {i}"), 100, &[i as u8; ITEM_BYTES], &mut rng)
            })
            .collect();
        let service = sys.wire_service_with_registry(0, Arc::new(Registry::disabled()));
        Stack {
            sys,
            service,
            items,
            rng,
            transcript: Transcript::new(),
        }
    }

    fn user(&mut self, label: &str, pseudonyms: usize) -> UserAgent {
        let budget = CardBudget {
            max_pseudonyms: pseudonyms,
        };
        let mut user = self
            .sys
            .register_user_with_budget(label, budget, &mut self.rng)
            .unwrap();
        self.sys.fund(&user, 100 * pseudonyms as u64);
        // The first pseudonym's key is made inline; every later one is
        // joined from the card's key-generation thread.
        self.sys.ensure_pseudonym(&mut user, &mut self.rng).unwrap();
        user
    }

    /// Runs `ops` operations of `mix` and returns their totals.
    fn measure(&mut self, ops: u64, mix: impl FnOnce(&mut Stack)) -> Tally {
        let store = self.sys.provider.store();
        let (commits, fsyncs) = commits_and_fsyncs(store);
        let wal = store.log_bytes();
        let frames = self.transcript.message_count() as u64;
        let payload = self.transcript.total_bytes() as u64;
        let before = work();
        mix(self);
        let work = work() - before;
        let store = self.sys.provider.store();
        let (commits_after, fsyncs_after) = commits_and_fsyncs(store);
        Tally {
            ops,
            work,
            commits: commits_after - commits,
            fsyncs: fsyncs_after - fsyncs,
            wal_bytes: store.log_bytes() - wal,
            frames: self.transcript.message_count() as u64 - frames,
            payload_bytes: self.transcript.total_bytes() as u64 - payload,
        }
    }

    /// A client over `Loopback` onto the service whose replies draw from
    /// a stream keyed off the stack's generator, recording into the
    /// stack's transcript.
    fn with_client<T>(
        &mut self,
        f: impl FnOnce(&mut WireClient<Recording<'_, Loopback<'_, WalShardedKv>>>, &mut StdRng) -> T,
    ) -> T {
        let replies = Loopback::with_rng(
            &self.service,
            ChaChaRng::new(random_array(&mut self.rng), [0; 12]),
        );
        let id_key = random_array(&mut self.rng);
        let mut client =
            WireClient::with_id_key(Recording::new(replies, &mut self.transcript), id_key);
        f(&mut client, &mut self.rng)
    }

    fn purchase(&mut self, user: &mut UserAgent, item: ContentId) -> License {
        self.sys.ensure_pseudonym(user, &mut self.rng).unwrap();
        let mint = self.sys.mint.clone();
        self.with_client(|client, rng| client.purchase(user, &mint, item, rng).unwrap())
    }

    fn download(&mut self, item: ContentId) {
        let reply = self.with_client(|client, _| {
            client.call(WireRequest::Download(DownloadRequest { content_id: item }))
        });
        assert!(matches!(reply, Ok(WireResponse::Download(_))));
    }

    fn transfer(&mut self, from: &mut UserAgent, to: &mut UserAgent, id: LicenseId) -> License {
        self.sys.ensure_pseudonym(to, &mut self.rng).unwrap();
        self.with_client(|client, rng| client.transfer(from, to, id, rng).unwrap())
    }

    /// Eight purchase requests built as `WireClient::purchase` builds
    /// them, sent as one batch.
    fn purchase_batch(&mut self, user: &mut UserAgent, item: ContentId, size: usize) {
        let bodies: Vec<WireRequest> = (0..size)
            .map(|_| {
                self.sys.ensure_pseudonym(user, &mut self.rng).unwrap();
                let account = user.account.clone();
                let coin = user
                    .wallet
                    .withdraw(&self.sys.mint, &account, 100, &mut self.rng)
                    .unwrap();
                user.wallet.take(100);
                let request = PurchaseRequest {
                    content_id: item,
                    pseudonym_cert: user.current_pseudonym().unwrap().clone(),
                    coin,
                    attribute_cert: None,
                };
                user.note_pseudonym_use();
                WireRequest::Purchase(request)
            })
            .collect();
        let replies = Batching::new(&self.service, random_array(&mut self.rng));
        let id_key = random_array(&mut self.rng);
        let mut client =
            WireClient::with_id_key(Recording::new(replies, &mut self.transcript), id_key);
        for reply in client.call_many(bodies) {
            assert!(matches!(reply, Ok(WireResponse::Purchase(_))), "{reply:?}");
        }
    }
}

/// In-process transport that holds what is submitted until the first
/// `complete`, then serves it all as one batch on the calling thread.
struct Batching<'s> {
    service: &'s ProviderService<WalShardedKv>,
    rng: RefCell<ChaChaRng>,
    queued: RefCell<Vec<(u64, Vec<u8>)>>,
    replies: RefCell<VecDeque<(u64, Vec<u8>)>>,
}

impl<'s> Batching<'s> {
    fn new(service: &'s ProviderService<WalShardedKv>, key: [u8; 32]) -> Self {
        Batching {
            service,
            rng: RefCell::new(ChaChaRng::new(key, [0; 12])),
            queued: RefCell::default(),
            replies: RefCell::default(),
        }
    }
}

impl Transport for Batching<'_> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        self.queued.borrow_mut().push((corr_id, request.to_vec()));
        Ok(())
    }

    fn complete(
        &self,
        _deadline: Option<std::time::Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        let queued = std::mem::take(&mut *self.queued.borrow_mut());
        if !queued.is_empty() {
            let frames: Vec<&[u8]> = queued.iter().map(|(_, f)| f.as_slice()).collect();
            let mut rngs: Vec<ChaChaRng> = queued
                .iter()
                .map(|_| ChaChaRng::new(random_array(&mut *self.rng.borrow_mut()), [0; 12]))
                .collect();
            let mut replies = self.replies.borrow_mut();
            self.service
                .handle_batch_with_rngs(&frames, &mut rngs, &mut |i, reply| {
                    replies.push_back((queued[i].0, reply));
                });
        }
        Ok(self.replies.borrow_mut().pop_front())
    }
}

/// The four mixes' tallies on one stack.
fn run_mixes(config: &SystemConfig, policy: SyncPolicy) -> [Tally; 4] {
    let name = format!(
        "p2drm-census-{}-{}-{policy:?}",
        std::process::id(),
        config.key_bits
    );
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut stack = Stack::new(config.clone(), &dir, policy);
    let items = stack.items.clone();
    let mut buyer = stack.user("buyer", 160);
    let mut consumer = stack.user("consumer", 16);
    let mut recipient = stack.user("recipient", 64);
    let mut device = stack.sys.register_device(&mut stack.rng).unwrap();
    // One of each operation first, so no row pays a first use (a
    // context built once, a table's first growth).
    let warm = stack.purchase(&mut buyer, items[0]);
    stack.purchase_batch(&mut buyer, items[0], 8);
    stack.download(items[0]);
    stack.with_client(|client, rng| {
        client.play(&buyer, &mut device, &warm, rng).unwrap();
        client.catalog().unwrap();
        client.license_status(warm.id()).unwrap();
    });
    stack.transfer(&mut buyer, &mut recipient, warm.id());

    let purchases = stack.measure(64, |s| {
        for _ in 0..8 {
            s.purchase_batch(&mut buyer, items[1], 8);
        }
    });
    let journeys = stack.measure(8, |s| {
        for &item in &items[..8] {
            s.sys.ensure_pseudonym(&mut consumer, &mut s.rng).unwrap();
            let license = s.purchase(&mut consumer, item);
            s.with_client(|client, rng| {
                for _ in 0..3 {
                    client.play(&consumer, &mut device, &license, rng).unwrap();
                }
            });
            s.transfer(&mut consumer, &mut recipient, license.id());
        }
    });
    let downloads = stack.measure(100, |s| {
        for i in 0..100 {
            s.download(items[i % ITEMS]);
        }
    });
    let lifecycle = stack.measure(200, |s| {
        let mut picks = test_rng(0x11FE);
        let mut held: Vec<LicenseId> = Vec::new();
        for _ in 0..200 {
            let item = items[picks.gen_range(0..ITEMS)];
            match picks.gen_range(0..100) {
                0..30 => s.with_client(|client, _| {
                    client.catalog().unwrap();
                }),
                30..60 => s.download(item),
                60..80 => {
                    let id = held.last().copied().unwrap_or(warm.id());
                    s.with_client(|client, _| client.license_status(id).unwrap());
                }
                80..95 => held.push(s.purchase(&mut buyer, item).id()),
                _ => match held.pop() {
                    Some(id) => {
                        s.transfer(&mut buyer, &mut recipient, id);
                    }
                    None => held.push(s.purchase(&mut buyer, item).id()),
                },
            }
        }
    });
    drop(stack);
    std::fs::remove_dir_all(&dir).unwrap();
    [purchases, journeys, downloads, lifecycle]
}

/// A value per op, to the thousandth.
fn per_op(total: u64, ops: u64) -> String {
    let thousandths = (total * 1000 + ops / 2) / ops;
    format!("{}.{:03}", thousandths / 1000, thousandths % 1000)
}

/// The first line of a table.
fn header() -> String {
    let mut out = format!("{:<32}", "per op");
    for mix in ["purchases", "journeys", "downloads", "mix"] {
        let _ = write!(out, " {mix:>10}");
    }
    out + "\n"
}

fn row(out: &mut String, label: &str, tallies: &[Tally; 4], value: impl Fn(&Tally) -> u64) {
    let _ = write!(out, "{label:<32}");
    for t in tallies {
        let _ = write!(out, " {:>10}", per_op(value(t), t.ops));
    }
    out.push('\n');
}

/// What one row reads off a mix's totals.
type Row = fn(&Tally) -> u64;

/// The rows no kernel moves; the sync policy moves the fsyncs alone.
fn shared_table(flush: &[Tally; 4], sync: &[Tally; 4]) -> String {
    let rows: [(&str, &[Tally; 4], Row); 8] = [
        ("sha256 blocks", flush, |t| t.work.crypto.sha256_blocks),
        ("chacha20 blocks", flush, |t| t.work.crypto.chacha20_blocks),
        ("store commits", flush, |t| t.commits),
        ("fsyncs FlushEach", flush, |t| t.fsyncs),
        ("fsyncs SyncEach", sync, |t| t.fsyncs),
        ("wal bytes", flush, |t| t.wal_bytes),
        ("frames", flush, |t| t.frames),
        ("payload bytes", flush, |t| t.payload_bytes),
    ];
    let mut out = header();
    for (label, tallies, value) in rows {
        row(&mut out, label, tallies, value);
    }
    out
}

/// The rows the kernel moves, and what one card key costs.
fn kernel_table(tallies: &[Tally; 4], card_key: Work) -> String {
    let rows: [(&str, Row); 6] = [
        ("rsa private, lanes", |t| t.work.crypto.private_lanes),
        ("rsa private, scalar", |t| t.work.crypto.private_scalar),
        ("rsa public, lanes", |t| t.work.crypto.public_lanes),
        ("rsa public, scalar", |t| t.work.crypto.public_scalar),
        ("ifma kernel calls", |t| t.work.bignum.kernel_calls),
        ("ifma lanes filled", |t| t.work.bignum.kernel_lanes),
    ];
    let mut out = header();
    for (label, value) in rows {
        row(&mut out, label, tallies, value);
    }
    for width in 0..POW_WIDTHS {
        if tallies.iter().any(|t| t.work.bignum.pows[width] > 0) {
            let label = format!("Mont::pow, {} limbs", width + 1);
            row(&mut out, &label, tallies, |t| t.work.bignum.pows[width]);
        }
    }
    let b = card_key.bignum;
    let _ = writeln!(
        out,
        "one card key: {} fermat lanes, {} passed, {} kernel calls, {} lanes, \
         {} scalar tests, {} sieve steps, {} lucas products, {} Mont::pow",
        b.fermat_lanes,
        b.fermat_passed,
        b.kernel_calls,
        b.kernel_lanes,
        b.scalar_tests,
        b.sieve_steps,
        b.lucas_products,
        b.pows.iter().sum::<u64>()
    );
    out
}

/// The heap rows: allocations and bytes this thread asked for.
fn heap_table(tallies: &[Tally; 4]) -> String {
    let mut out = header();
    row(&mut out, "allocations", tallies, |t| t.work.allocations);
    row(&mut out, "heap bytes", tallies, |t| t.work.allocated_bytes);
    out
}

/// Runs the census at `config` and checks it against the pinned rows:
/// `shared` everywhere, `[kernel rows, heap rows]` on a CPU with IFMA
/// (the heap rows in an optimised build only), `portable` without.
fn census(name: &str, config: SystemConfig, shared: &str, ifma: [&str; 2], portable: &str) {
    let flush = run_mixes(&config, SyncPolicy::FlushEach);
    let sync = run_mixes(&config, SyncPolicy::SyncEach);
    // The policy moves fsyncs alone; in the unoptimised build also the
    // heap, as the lock-order checker records the orders of the sync
    // handle's lock.
    let unmoved = |t: &Tally| {
        let heap = (!cfg!(debug_assertions)).then_some(t.work.allocations);
        (
            t.work.bignum,
            t.work.crypto,
            heap,
            t.commits,
            t.wal_bytes,
            t.frames,
            t.payload_bytes,
        )
    };
    for (f, s) in flush.iter().zip(&sync) {
        assert_eq!(
            unmoved(f),
            unmoved(s),
            "the sync policy moved more than fsyncs"
        );
    }
    let before = work();
    RsaKeyPair::generate(config.key_bits, &mut test_rng(0xCA4D));
    let card_key = work() - before;
    transfer_ignores_the_spent_set(&config);
    play_ignores_the_licenses_a_device_holds(&config);

    let has_ifma = p2drm_bignum::ifma::available();
    let got_shared = shared_table(&flush, &sync);
    let got_kernel = kernel_table(&flush, card_key);
    let got_heap = heap_table(&flush);
    let [want_kernel, want_heap] = if has_ifma { ifma } else { [portable, ""] };
    let pin_heap = has_ifma && !cfg!(debug_assertions);
    let kind = if has_ifma { "AVX-512 IFMA" } else { "portable" };
    let build = if cfg!(debug_assertions) {
        "unoptimised"
    } else {
        "optimised"
    };
    let tables = format!(
        "rows no kernel moves:\n{got_shared}\n\
         rows of this CPU ({kind}):\n{got_kernel}\n\
         heap rows ({kind}, {build}{}):\n{got_heap}",
        if pin_heap { "" } else { ", not pinned" }
    );
    if got_shared != shared || got_kernel != want_kernel || (pin_heap && got_heap != want_heap) {
        panic!("the {name} census moved; now it reads\n{tables}");
    }
    println!("{name} census\n{tables}");
}

/// A store that counts the reads and writes asked of it.
#[derive(Default)]
struct CountingKv {
    inner: MemKv,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl CountingKv {
    /// `(reads, writes)` so far.
    fn counts(&self) -> (u64, u64) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (load(&self.reads), load(&self.writes))
    }
}

impl ConcurrentKv for CountingKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.delete(key)
    }

    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.insert_if_absent(key, value)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.scan_prefix(prefix)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }
}

/// RSA operations by path: `(private lanes, private scalar, public
/// lanes, public scalar)`.
fn rsa_ops(c: crypto::Counts) -> (u64, u64, u64, u64) {
    (
        c.private_lanes,
        c.private_scalar,
        c.public_lanes,
        c.public_scalar,
    )
}

/// E8 (Fig 7): a transfer costs the same however many ids are spent —
/// the same store reads and writes and RSA operations with a spent set
/// of 0 ids and of 512 (written as a redeemed id's `spent/` row).
fn transfer_ignores_the_spent_set(config: &SystemConfig) {
    let mut rng = test_rng(0xE8);
    let sys = System::bootstrap_with_backend(config.clone(), CountingKv::default(), &mut rng);
    let item = sys.publish_content("item", 100, &[8; 1024], &mut rng);
    let mut alice = sys.register_user("alice", &mut rng).unwrap();
    let mut bob = sys.register_user("bob", &mut rng).unwrap();
    sys.fund(&alice, 200);
    let licenses = [0, 1].map(|_| sys.purchase(&mut alice, item, &mut rng).unwrap().id());
    let mut transfer = |id| {
        sys.ensure_pseudonym(&mut bob, &mut rng).unwrap();
        let store = sys.provider.store();
        let (reads, writes) = store.counts();
        let before = crypto::counts();
        sys.transfer(&mut alice, &mut bob, id, &mut rng).unwrap();
        let (reads_after, writes_after) = store.counts();
        (
            reads_after - reads,
            writes_after - writes,
            rsa_ops(crypto::counts() - before),
        )
    };
    assert_eq!(sys.provider.spent_count(), 0);
    let empty = transfer(licenses[0]);
    let spent = Table::<Option<LicenseId>>::new("spent/");
    for i in 0..512 {
        let id = LicenseId::from_label(&format!("spent {i}"));
        spent
            .put(sys.provider.store(), id.as_bytes(), &None)
            .unwrap();
    }
    assert_eq!(sys.provider.spent_count(), 513);
    assert_eq!(
        transfer(licenses[1]),
        empty,
        "E8: a transfer's cost moved with the spent set"
    );
}

/// E4 (Fig 4): a play costs the same on a device that holds no other
/// license and on one that holds 64: the same RSA operations, kernel
/// calls and exponentiations. (Not the same SHA-256 blocks: a device's
/// first play computes two key fingerprints that later plays read
/// memoized.)
fn play_ignores_the_licenses_a_device_holds(config: &SystemConfig) {
    let mut rng = test_rng(0xE4);
    let mut sys = System::bootstrap(config.clone(), &mut rng);
    let filler = sys.publish_content("filler", 100, &[4; 1024], &mut rng);
    let item = sys.publish_content("item", 100, &[5; 1024], &mut rng);
    let mut user = sys.register_user("user", &mut rng).unwrap();
    user.set_policy(PseudonymPolicy::Static);
    sys.fund(&user, 100 * 65);
    let mut empty = sys.register_device(&mut rng).unwrap();
    let mut full = sys.register_device(&mut rng).unwrap();
    for _ in 0..64 {
        let license = sys.purchase(&mut user, filler, &mut rng).unwrap();
        sys.play(&user, &mut full, &license, &mut rng).unwrap();
    }
    let license = sys.purchase(&mut user, item, &mut rng).unwrap();
    let mut play = |device: &mut CompliantDevice| {
        let (crypto_before, bignum_before) = (crypto::counts(), bignum::counts());
        sys.play(&user, device, &license, &mut rng).unwrap();
        let done = bignum::counts() - bignum_before;
        let rsa = rsa_ops(crypto::counts() - crypto_before);
        (rsa, done.kernel_calls, done.pows)
    };
    assert_eq!(
        play(&mut empty),
        play(&mut full),
        "E4: a play's cost moved with the licenses held"
    );
}
