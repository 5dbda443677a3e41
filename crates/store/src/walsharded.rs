//! Durable **and** concurrent: N independently locked shards, each backed
//! by its own write-ahead log, with per-shard group commit.
//!
//! [`WalShardedKv`] is the production shape of the license server's
//! spent-ID/license/CRL store: it keeps [`crate::MemKv`]'s N-way write
//! parallelism (keys hash to one of N shards, `insert_if_absent` is atomic
//! under one shard's write lock) while every mutation is CRC-framed and
//! appended to that shard's WAL *before* the in-memory index changes —
//! so a provider can be killed mid-run and reopened with every spent id,
//! license and CRL entry intact.
//!
//! # Group commit
//!
//! Under [`SyncPolicy::FlushEach`]/[`SyncPolicy::SyncEach`], concurrent
//! writers that land on the same shard amortize the flush/fsync: each
//! writer appends its frame (cheap, userspace) under the shard's write
//! lock, then joins the shard's commit queue. One writer becomes the
//! *leader*: it pushes the shard's buffer to the OS and — for `SyncEach`
//! — fsyncs through a **cloned file handle outside the shard lock**, so
//! later writers keep appending while the disk works. Every waiter whose
//! frame the leader's commit covered returns without issuing its own
//! flush; at most one flush/fsync is in flight per shard, covering whole
//! batches of writers.
//!
//! A **failed** commit flush/fsync poisons its shard: the failing write
//! and every in-flight waiter error, and the shard refuses all further
//! writes (fail-stop) while reads keep serving — the in-memory index is
//! never allowed to run ahead of a log that can no longer be written, so
//! no caller is handed a claim that would evaporate on restart. Reopen
//! the store to recover to the durable prefix.
//!
//! # Values kept in the log
//!
//! A value of a page or more is not copied into the index: its row holds
//! the value's offset and length in the shard log, and `get` and
//! `scan_prefix` read it with one `pread` under the shard's read lock
//! (see [`crate::walkv`] for how the position stays valid). A log that can
//! no longer be read is treated like one that can no longer be written:
//! a failed read poisons the shard fail-stop and answers as if the key
//! were absent. So does any failed append to the log. Both show in
//! [`ConcurrentKv::collect_metrics`], as the `store_read_errors` counter
//! and the `store_poisoned_shards` gauge.
//!
//! # Recovery
//!
//! [`WalShardedKv::open`] replays all shard logs **in parallel** (one
//! thread per shard), truncates any torn tail per shard, and merges the
//! per-shard [`RecoveryReport`]s into one. A torn tail on one shard never
//! poisons the others: each log recovers independently to its own last
//! complete record. The shard count is fixed at creation and recorded in
//! a `MANIFEST` file, because key→shard routing must be stable across
//! restarts; reopening with a mismatching [`WalShardedConfig::shards`]
//! is an error rather than a silent re-route.
//!
//! # Lock order
//!
//! Each shard owns three locks, acquired in a fixed hierarchy:
//!
//! 1. `kv` (the shard's log + index behind an `RwLock`) is always the **outermost**
//!    lock: `commit` and `sync_fd` may each be taken while `kv` is held
//!    (compaction and the explicit `flush` checkpoint do), never the
//!    other way around.
//! 2. `commit` and `sync_fd` are **never held together**. The
//!    group-commit leader in particular releases `commit` *before*
//!    taking `sync_fd` for the fsync — holding the queue lock across
//!    disk I/O would stall every waiter and appender behind the disk.
//!    This is the `commit`-before-`sync_fd` discipline: queue state is
//!    settled first, the durable horizon is published after the I/O by
//!    re-taking `commit`.
//!
//! All three are `parking_lot` (shim) locks, so the hierarchy is not
//! just documentation: the shim's runtime lockdep (debug builds) records
//! every nested acquisition and panics with both stacks on the first
//! inversion — the whole test suite asserts this order on every run.
//! `compact_all`, the one place `kv` is held across the other two, runs
//! under it in the store's model test (`tests/model_test.rs`).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::index::Value;
use crate::walkv::{RecoveryReport, WalKv};
use crate::{fnv1a, ConcurrentKv, StoreError};
use p2drm_obs::AtomicHistogram;
use parking_lot::{Condvar, Mutex, RwLock};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Durability level of a logged mutation, applied by per-shard group
/// commit (see the module docs) — the only place it is acted on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Buffer in userspace; flush on [`ConcurrentKv::flush`]/drop (fastest,
    /// loses the tail on crash but never corrupts).
    Buffered,
    /// Flush to the OS before a mutation returns.
    FlushEach,
    /// fsync before a mutation returns (slowest, survives power loss).
    SyncEach,
}

/// Construction parameters for a [`WalShardedKv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalShardedConfig {
    /// Independently locked shards, each with its own log file. Fixed at
    /// creation (recorded in the directory's `MANIFEST`).
    pub shards: usize,
    /// Durability level applied via per-shard group commit.
    pub policy: SyncPolicy,
}

impl Default for WalShardedConfig {
    fn default() -> Self {
        WalShardedConfig {
            shards: 8,
            policy: SyncPolicy::FlushEach,
        }
    }
}

impl WalShardedConfig {
    /// The default shard count at the given durability level.
    pub fn with_policy(policy: SyncPolicy) -> Self {
        WalShardedConfig {
            policy,
            ..Self::default()
        }
    }
}

/// Commit-queue state of one shard (see module docs).
struct CommitState {
    /// Highest append sequence known durable at the configured policy.
    durable: u64,
    /// Whether a leader currently has a flush in flight.
    flushing: bool,
    /// Set when a commit flush/fsync, an append or a read of a value in
    /// the log failed. A poisoned shard fails every subsequent write
    /// (fail-stop) instead of letting the in-memory index run ahead of a
    /// log that can no longer be written — accepting writes after a
    /// failed commit would hand out claims that evaporate on restart.
    /// Reads keep working; reopening the store recovers to exactly the
    /// durable prefix.
    poisoned: bool,
}

struct Shard {
    kv: RwLock<WalKv>,
    /// Monotonic count of logged mutations; assigned under the `kv` write
    /// lock so it orders identically to the log contents. Never reset
    /// (compaction keeps it monotone), so `durable >= seq` stays sound.
    appended: AtomicU64,
    /// Cloned handle onto the shard's log file, for fsync outside the
    /// `kv` lock. Refreshed by compaction (which swaps the backing file).
    sync_fd: Mutex<File>,
    commit: Mutex<CommitState>,
    committed: Condvar,
}

/// Sharded, WAL-backed, group-committed KV store.
pub struct WalShardedKv {
    shards: Vec<Shard>,
    policy: SyncPolicy,
    dir: PathBuf,
    recovery: Vec<RecoveryReport>,
    /// Fault injection: the next group-commit fsync fails (exercises the
    /// shard-poisoning fail-stop path). Armed via
    /// [`WalShardedKv::inject_sync_failure`] — one atomic swap per commit,
    /// so leaving the hook unconditional costs nothing on the hot path.
    fail_next_sync: std::sync::atomic::AtomicBool,
    /// Append→durable latency per logged write (the group-commit wait a
    /// writer actually experiences, leader or follower).
    commit_ns: AtomicHistogram,
    /// Leader-side fsync (`sync_data`) latency per group commit.
    fsync_ns: AtomicHistogram,
    /// Reads of a value kept in the log that failed (each poisons its
    /// shard).
    read_errors: AtomicU64,
}

const MANIFEST: &str = "MANIFEST";

fn shard_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:03}.wal"))
}

fn read_manifest(dir: &Path) -> Result<Option<usize>, StoreError> {
    let path = dir.join(MANIFEST);
    match std::fs::read_to_string(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
        Ok(text) => {
            for line in text.lines() {
                if let Some(n) = line.strip_prefix("shards=") {
                    return n
                        .trim()
                        .parse::<usize>()
                        .map(Some)
                        .map_err(|_| StoreError::Corrupt {
                            offset: 0,
                            detail: format!("bad shard count in MANIFEST: {n:?}"),
                        });
                }
            }
            Err(StoreError::Corrupt {
                offset: 0,
                detail: "MANIFEST missing shards= line".into(),
            })
        }
    }
}

/// Written the way [`crate::log::rewrite`] writes a log — sibling temp
/// file, fsync, rename — so a crash leaves no `MANIFEST` or a whole one,
/// never an empty file that [`read_manifest`] would refuse for good.
fn write_manifest(dir: &Path, shards: usize) -> Result<(), StoreError> {
    let path = dir.join(MANIFEST);
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(format!("p2drm-walsharded v1\nshards={shards}\n").as_bytes())?;
        f.sync_data()?;
    }
    crate::log::publish(&tmp, &path)
}

impl WalShardedKv {
    /// Opens (or creates) the store under `dir`, replaying every shard
    /// log in parallel and merging the per-shard recovery reports.
    ///
    /// On first open the directory is created and `config.shards` is
    /// recorded; on reopen the recorded count is authoritative and a
    /// mismatching `config.shards` is rejected (key routing would break).
    pub fn open(
        dir: impl Into<PathBuf>,
        config: WalShardedConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        assert!(config.shards > 0, "WalShardedKv needs at least one shard");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let shards = match read_manifest(&dir)? {
            None => {
                write_manifest(&dir, config.shards)?;
                config.shards
            }
            Some(n) if n == config.shards => n,
            Some(n) => {
                return Err(StoreError::Corrupt {
                    offset: 0,
                    detail: format!(
                        "store was created with {n} shards, reopen requested {}: \
                         shard routing is fixed at creation",
                        config.shards
                    ),
                })
            }
        };

        // Parallel replay: one thread per shard.
        let mut opened: Vec<Option<Result<(WalKv, RecoveryReport), StoreError>>> =
            (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, slot) in opened.iter_mut().enumerate() {
                let path = shard_path(&dir, i);
                scope.spawn(move || {
                    *slot = Some(WalKv::open(path));
                });
            }
        });

        let mut shard_vec = Vec::with_capacity(shards);
        let mut recovery = Vec::with_capacity(shards);
        for slot in opened {
            #[expect(
                clippy::expect_used,
                reason = "the scoped-thread join above guarantees every slot was filled"
            )]
            let (kv, report) = slot.expect("replay thread ran")?;
            let sync_fd = kv.try_clone_log_file()?;
            shard_vec.push(Shard {
                appended: AtomicU64::new(kv.ops_appended()),
                kv: RwLock::new(kv),
                sync_fd: Mutex::new(sync_fd),
                commit: Mutex::new(CommitState {
                    durable: 0,
                    flushing: false,
                    poisoned: false,
                }),
                committed: Condvar::new(),
            });
            recovery.push(report);
        }
        let merged = merge_reports(&recovery);
        Ok((
            WalShardedKv {
                shards: shard_vec,
                policy: config.policy,
                dir,
                recovery,
                fail_next_sync: std::sync::atomic::AtomicBool::new(false),
                commit_ns: AtomicHistogram::new(),
                fsync_ns: AtomicHistogram::new(),
                read_errors: AtomicU64::new(0),
            },
            merged,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured durability level.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Per-shard recovery reports from the last [`WalShardedKv::open`]
    /// (index == shard index). The merged view is what `open` returned.
    pub fn shard_recovery(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Arms the fault hook: the **next** group-commit fsync (any shard)
    /// fails, poisoning that shard fail-stop — exactly what a dying disk
    /// does mid-commit. `tests/durability.rs` uses this to exercise the
    /// poisoning/replay path against a live provider rather than only in
    /// unit tests.
    pub fn inject_sync_failure(&self) {
        self.fail_next_sync
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Total log bytes across all shards (storage-growth metrics).
    pub fn log_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.kv.read().log_bytes()).sum()
    }

    /// Compacts every shard log down to its live pairs. Shards compact
    /// one at a time; each holds its write lock and commit queue for the
    /// duration, so racing writers simply wait. Poisoned shards refuse
    /// (compaction would durably persist index entries whose commits
    /// already failed).
    pub fn compact_all(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            if shard.commit.lock().poisoned {
                return Err(Self::poisoned_err());
            }
            let mut kv = shard.kv.write();
            // Everything appended so far is durably rewritten by compact
            // (it fsyncs the replacement file), so the commit horizon
            // advances to the pre-compaction append count.
            let horizon = shard.appended.load(Ordering::Relaxed);
            kv.compact()?;
            *shard.sync_fd.lock() = kv.try_clone_log_file()?;
            let mut st = shard.commit.lock();
            st.durable = st.durable.max(horizon);
            shard.committed.notify_all();
        }
        Ok(())
    }

    fn route(&self, key: &[u8]) -> &Shard {
        #[expect(
            clippy::indexing_slicing,
            reason = "modulo by shards.len() keeps the index in range"
        )]
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// The bytes of `value`, from `kv`'s index on `shard`. A failed log
    /// read poisons the shard and answers `None`.
    fn read(&self, shard: &Shard, kv: &WalKv, value: Value<'_>) -> Option<Vec<u8>> {
        match kv.read(value) {
            Ok(bytes) => Some(bytes),
            Err(_) => {
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                shard.poison();
                None
            }
        }
    }

    fn poisoned_err() -> StoreError {
        StoreError::Io(std::io::Error::other(
            "shard poisoned by an earlier failed log write or read; reopen the store to recover",
        ))
    }

    /// Runs a mutation on `key`'s shard. `f` returns `(result, logged)`;
    /// when `logged` is true the mutation appended a WAL record and the
    /// caller is held until that record is durable per the policy.
    fn logged_write<T>(
        &self,
        key: &[u8],
        f: impl FnOnce(&mut WalKv) -> Result<(T, bool), StoreError>,
    ) -> Result<T, StoreError> {
        let shard = self.route(key);
        // Fail-stop gate *before* mutating: a poisoned shard must not
        // grow index state its log can no longer record.
        if shard.commit.lock().poisoned {
            return Err(Self::poisoned_err());
        }
        let (out, seq) = {
            let mut kv = shard.kv.write();
            // A failed append leaves the log's end unknown: fail-stop.
            let (out, logged) = f(&mut kv).inspect_err(|_| shard.poison())?;
            if !logged {
                return Ok(out);
            }
            // Assigned under the write lock: sequence order == log order.
            (out, shard.appended.fetch_add(1, Ordering::Relaxed) + 1)
        };
        let _commit_stage = p2drm_obs::stage("store_commit");
        let started = Instant::now();
        self.wait_durable(shard, seq)?;
        self.commit_ns.record_duration(started.elapsed());
        Ok(out)
    }

    /// Group commit: returns once append `seq` is durable at the
    /// configured policy, flushing at most once per batch (see module
    /// docs).
    fn wait_durable(&self, shard: &Shard, seq: u64) -> Result<(), StoreError> {
        if matches!(self.policy, SyncPolicy::Buffered) {
            return Ok(());
        }
        let mut st = shard.commit.lock();
        loop {
            if st.durable >= seq {
                return Ok(());
            }
            if st.poisoned {
                // Our frame was appended but a commit failed before it
                // became durable; the claim cannot be trusted to survive
                // a restart, so fail the write.
                return Err(Self::poisoned_err());
            }
            if st.flushing {
                // A leader's flush is in flight; it may or may not cover
                // our frame — re-check when it lands.
                st = shard.committed.wait(st);
                continue;
            }
            st.flushing = true;
            drop(st);

            // Leader duty. Push the shard buffer to the OS under the kv
            // write lock (cheap), recording the horizon this commit will
            // cover; fsync — the expensive part — happens on the cloned
            // handle *after* the lock drops, so writers keep appending
            // into the next batch while the disk works.
            let flushed = {
                let mut kv = shard.kv.write();
                let horizon = shard.appended.load(Ordering::Relaxed);
                kv.flush_to_os().map(|()| horizon)
            };
            let result = match (flushed, self.policy) {
                (Err(e), _) => Err(e),
                (Ok(horizon), SyncPolicy::FlushEach) => Ok(horizon),
                (Ok(horizon), _) => {
                    let fd = shard.sync_fd.lock();
                    let sync_started = Instant::now();
                    let sync_res = if self.fail_next_sync.swap(false, Ordering::SeqCst) {
                        Err(std::io::Error::other("injected sync failure").into())
                    } else {
                        fd.sync_data().map_err(StoreError::from)
                    };
                    self.fsync_ns.record_duration(sync_started.elapsed());
                    sync_res.map(|()| horizon)
                }
            };

            st = shard.commit.lock();
            st.flushing = false;
            match result {
                Ok(horizon) => {
                    st.durable = st.durable.max(horizon);
                    shard.committed.notify_all();
                    if st.durable >= seq {
                        return Ok(());
                    }
                    // Compaction advanced things under us; loop re-checks.
                }
                Err(e) => {
                    // Fail-stop: records appended since the last durable
                    // horizon (including ours) may never hit the disk, so
                    // the shard stops accepting writes rather than hand
                    // out in-memory claims that evaporate on restart.
                    // Waiters wake to surface the poison as their own
                    // error instead of hanging.
                    st.poisoned = true;
                    shard.committed.notify_all();
                    return Err(e);
                }
            }
        }
    }
}

impl Shard {
    /// Fail-stop: the shard refuses every further write (see
    /// [`CommitState::poisoned`]), and waiters wake to see it.
    fn poison(&self) {
        let mut st = self.commit.lock();
        st.poisoned = true;
        self.committed.notify_all();
    }
}

fn merge_reports(reports: &[RecoveryReport]) -> RecoveryReport {
    RecoveryReport {
        replayed_ops: reports.iter().map(|r| r.replayed_ops).sum(),
        live_keys: reports.iter().map(|r| r.live_keys).sum(),
        truncated_tail: reports.iter().any(|r| r.truncated_tail),
    }
}

impl ConcurrentKv for WalShardedKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let shard = self.route(key);
        let kv = shard.kv.read();
        let value = kv.index().get(key)?;
        self.read(shard, &kv, value)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.logged_write(key, |kv| kv.put(key, value).map(|()| ((), true)))
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        // A delete is only logged when the key existed.
        self.logged_write(key, |kv| kv.delete(key).map(|existed| (existed, existed)))
    }

    /// Atomic **and durable** check-and-set: the claim is decided under
    /// the shard's write lock (exactly one of N racing callers wins) and
    /// the winner does not return until its claim record is committed at
    /// the configured policy — so "redeemed exactly once" holds across
    /// both threads and restarts.
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        self.logged_write(key, |kv| {
            kv.insert_if_absent(key, value).map(|fresh| (fresh, fresh))
        })
    }

    /// Globally key-ordered merge of the per-shard scans (no consistent
    /// cross-shard snapshot — fine for the metrics/restore paths). A row
    /// whose value cannot be read from the log is left out, and poisons
    /// its shard.
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let kv = shard.kv.read();
            all.extend(
                kv.index()
                    .scan_prefix(prefix)
                    .filter_map(|(k, v)| Some((k.to_vec(), self.read(shard, &kv, v)?))),
            );
        }
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.kv.read().index().len()).sum()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.route(key).kv.read().index().contains(key)
    }

    /// Flushes **and fsyncs** every shard, regardless of policy — the
    /// explicit checkpoint before a planned shutdown. Errors if any shard
    /// is poisoned (its log already lost a commit).
    fn flush(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            if shard.commit.lock().poisoned {
                return Err(Self::poisoned_err());
            }
            let mut kv = shard.kv.write();
            let horizon = shard.appended.load(Ordering::Relaxed);
            kv.sync_data()?;
            let mut st = shard.commit.lock();
            st.durable = st.durable.max(horizon);
            shard.committed.notify_all();
        }
        Ok(())
    }

    /// WAL timings, failed log reads, and live-key, shard and
    /// poisoned-shard gauges, under static `store_*` names.
    fn collect_metrics(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        out.histogram("store_commit_ns", &self.commit_ns.snapshot());
        out.histogram("store_fsync_ns", &self.fsync_ns.snapshot());
        out.counter(
            "store_read_errors",
            self.read_errors.load(Ordering::Relaxed),
        );
        out.gauge("store_live_keys", self.len() as i64);
        out.gauge("store_shards", self.shards.len() as i64);
        let poisoned = self.shards.iter().filter(|s| s.commit.lock().poisoned);
        out.gauge("store_poisoned_shards", poisoned.count() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walkv::IN_LOG_BYTES;

    /// Self-cleaning unique temp dir.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let p = std::env::temp_dir().join(format!(
                "p2drm-walsharded-test-{}-{}-{}",
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

    fn cfg(shards: usize, policy: SyncPolicy) -> WalShardedConfig {
        WalShardedConfig { shards, policy }
    }

    #[test]
    fn crud_and_reopen_roundtrip() {
        let tmp = TempDir::new("crud");
        {
            let (kv, report) = WalShardedKv::open(&tmp.0, cfg(4, SyncPolicy::FlushEach)).unwrap();
            assert_eq!(report.replayed_ops, 0);
            for i in 0..64u32 {
                kv.put(format!("k/{i}").as_bytes(), &i.to_be_bytes())
                    .unwrap();
            }
            assert!(kv.delete(b"k/7").unwrap());
            assert!(!kv.delete(b"k/7").unwrap());
            assert_eq!(kv.len(), 63);
        }
        let (kv, report) = WalShardedKv::open(&tmp.0, cfg(4, SyncPolicy::FlushEach)).unwrap();
        assert_eq!(report.replayed_ops, 65, "64 puts + 1 logged delete");
        assert_eq!(report.live_keys, 63);
        assert!(!report.truncated_tail);
        assert_eq!(kv.get(b"k/8"), Some(8u32.to_be_bytes().to_vec()));
        assert_eq!(kv.get(b"k/7"), None);
        assert_eq!(kv.shard_recovery().len(), 4);
    }

    #[test]
    fn scan_prefix_is_globally_ordered() {
        let tmp = TempDir::new("scan");
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(4, SyncPolicy::Buffered)).unwrap();
        for k in ["t/c", "t/a", "t/b", "u/x"] {
            kv.put(k.as_bytes(), b"v").unwrap();
        }
        let keys: Vec<_> = kv
            .scan_prefix(b"t/")
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(keys, vec!["t/a", "t/b", "t/c"]);
    }

    #[test]
    fn shard_count_mismatch_rejected() {
        let tmp = TempDir::new("mismatch");
        {
            let (kv, _) = WalShardedKv::open(&tmp.0, cfg(4, SyncPolicy::Buffered)).unwrap();
            kv.put(b"k", b"v").unwrap();
        }
        let res = WalShardedKv::open(&tmp.0, cfg(8, SyncPolicy::Buffered));
        assert!(matches!(res, Err(StoreError::Corrupt { .. })));
        // The recorded count still opens.
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(4, SyncPolicy::Buffered)).unwrap();
        assert_eq!(kv.get(b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn crashed_first_open_leaves_an_openable_directory() {
        // A first open that died before the rename leaves only the temp
        // file (here: created, nothing written). The next open must not
        // read it as the manifest and must write a whole one over it.
        let tmp = TempDir::new("manifest-crash");
        std::fs::create_dir_all(&tmp.0).unwrap();
        std::fs::write(tmp.0.join("MANIFEST.tmp"), b"").unwrap();
        {
            let (kv, _) = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::Buffered)).unwrap();
            kv.put(b"k", b"v").unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(tmp.0.join(MANIFEST)).unwrap(),
            "p2drm-walsharded v1\nshards=2\n"
        );
        assert!(!tmp.0.join("MANIFEST.tmp").exists());
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::Buffered)).unwrap();
        assert_eq!(kv.get(b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn unparsable_manifest_beside_shard_files_is_corrupt() {
        // With data present the shard count cannot be guessed: a damaged
        // manifest stays an error instead of a silent re-route.
        let tmp = TempDir::new("manifest-bad");
        {
            let (kv, _) = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::Buffered)).unwrap();
            kv.put(b"k", b"v").unwrap();
        }
        for text in ["", "p2drm-walsharded v1\n", "shards=two\n"] {
            std::fs::write(tmp.0.join(MANIFEST), text).unwrap();
            let res = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::Buffered));
            assert!(matches!(res, Err(StoreError::Corrupt { .. })), "{text:?}");
        }
    }

    #[test]
    fn concurrent_insert_if_absent_single_winner_per_key() {
        for policy in [
            SyncPolicy::Buffered,
            SyncPolicy::FlushEach,
            SyncPolicy::SyncEach,
        ] {
            let tmp = TempDir::new("race");
            let (kv, _) = WalShardedKv::open(&tmp.0, cfg(4, policy)).unwrap();
            let kv = &kv;
            let total: usize = std::thread::scope(|scope| {
                (0..8u8)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut wins = 0;
                            for k in 0..32u32 {
                                if kv
                                    .insert_if_absent(format!("spent/{k}").as_bytes(), &[t])
                                    .unwrap()
                                {
                                    wins += 1;
                                }
                            }
                            wins
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum()
            });
            assert_eq!(total, 32, "exactly one winner per key ({policy:?})");
            assert_eq!(kv.len(), 32);
        }
    }

    #[test]
    fn spent_claims_survive_reopen_under_every_policy() {
        for policy in [
            SyncPolicy::Buffered,
            SyncPolicy::FlushEach,
            SyncPolicy::SyncEach,
        ] {
            let tmp = TempDir::new("durable");
            {
                let (kv, _) = WalShardedKv::open(&tmp.0, cfg(4, policy)).unwrap();
                for k in 0..16u32 {
                    assert!(kv
                        .insert_if_absent(format!("spent/{k}").as_bytes(), b"")
                        .unwrap());
                }
                // Buffered relies on the clean-drop flush (WalKv::drop);
                // the stricter policies are already on disk here.
            }
            let (kv, report) = WalShardedKv::open(&tmp.0, cfg(4, policy)).unwrap();
            assert_eq!(report.live_keys, 16, "{policy:?}");
            for k in 0..16u32 {
                assert!(
                    !kv.insert_if_absent(format!("spent/{k}").as_bytes(), b"")
                        .unwrap(),
                    "second redeem refused after reopen ({policy:?})"
                );
            }
        }
    }

    #[test]
    fn torn_tail_on_one_shard_does_not_poison_others() {
        let tmp = TempDir::new("torn");
        let victim_key = b"spent/victim";
        let (victim_shard, keys) = {
            let (kv, _) = WalShardedKv::open(&tmp.0, cfg(4, SyncPolicy::FlushEach)).unwrap();
            let mut keys = Vec::new();
            for k in 0..32u32 {
                let key = format!("spent/{k}");
                kv.insert_if_absent(key.as_bytes(), b"").unwrap();
                keys.push(key);
            }
            kv.insert_if_absent(victim_key, b"").unwrap();
            ((fnv1a(victim_key) % 4) as usize, keys)
        };
        // Torn garbage at the tail of the victim's shard log only.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(shard_path(&tmp.0, victim_shard))
                .unwrap();
            f.write_all(&[0xBA, 0xD0, 0x00]).unwrap();
        }
        let (kv, report) = WalShardedKv::open(&tmp.0, cfg(4, SyncPolicy::FlushEach)).unwrap();
        assert!(report.truncated_tail, "merged report flags the torn shard");
        let torn: Vec<usize> = kv
            .shard_recovery()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.truncated_tail)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(torn, vec![victim_shard], "only the victim shard truncated");
        // Every complete claim — on the torn shard and the healthy ones —
        // is still refused a second redemption.
        assert!(!kv.insert_if_absent(victim_key, b"").unwrap());
        for key in &keys {
            assert!(!kv.insert_if_absent(key.as_bytes(), b"").unwrap());
        }
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_logs() {
        let tmp = TempDir::new("compact");
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::FlushEach)).unwrap();
        for i in 0..50u32 {
            kv.put(b"hot/a", &i.to_le_bytes()).unwrap();
            kv.put(b"hot/b", &i.to_le_bytes()).unwrap();
        }
        let before = kv.log_bytes();
        kv.compact_all().unwrap();
        assert!(kv.log_bytes() < before);
        assert_eq!(kv.get(b"hot/a"), Some(49u32.to_le_bytes().to_vec()));
        // Writers still work after compaction (fd refresh, horizons sane).
        kv.put(b"post", b"compact").unwrap();
        drop(kv);
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::FlushEach)).unwrap();
        assert_eq!(kv.get(b"hot/b"), Some(49u32.to_le_bytes().to_vec()));
        assert_eq!(kv.get(b"post"), Some(b"compact".to_vec()));
    }

    #[test]
    fn failed_commit_poisons_shard_fail_stop() {
        // A failed fsync must not leave the in-memory index ahead of a
        // log that can no longer be written: the write errors, the shard
        // refuses all further writes (and flush/compact), reads still
        // serve, and reopening recovers exactly the durable prefix.
        let tmp = TempDir::new("poison");
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(1, SyncPolicy::SyncEach)).unwrap();
        assert!(kv.insert_if_absent(b"spent/ok", b"").unwrap());

        kv.inject_sync_failure();
        assert!(
            kv.insert_if_absent(b"spent/lost", b"").is_err(),
            "write whose commit failed must error"
        );
        // Fail-stop: subsequent writes refuse rather than diverge…
        assert!(kv.put(b"spent/after", b"").is_err());
        assert!(ConcurrentKv::flush(&kv).is_err());
        assert!(kv.compact_all().is_err());
        // …while reads keep serving.
        assert!(kv.contains(b"spent/ok"));

        // Reopen recovers the durable prefix; the failed claim is *not*
        // silently resurrected as an in-memory-only entry, and the id is
        // redeemable exactly once going forward.
        drop(kv);
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(1, SyncPolicy::SyncEach)).unwrap();
        assert!(!kv.insert_if_absent(b"spent/ok", b"").unwrap());
        assert!(kv.insert_if_absent(b"spent/after", b"").unwrap());
    }

    #[test]
    fn routing_matches_mem_kv() {
        // WalShardedKv must route exactly like MemKv so operators can
        // reason about one hash layout (and docs can say "same routing").
        let tmp = TempDir::new("routing");
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(8, SyncPolicy::Buffered)).unwrap();
        for i in 0..64u32 {
            kv.put(format!("k/{i}").as_bytes(), &i.to_be_bytes())
                .unwrap();
        }
        let mem = crate::MemKv::with_shards(8);
        for i in 0..64u32 {
            mem.put(format!("k/{i}").as_bytes(), &i.to_be_bytes())
                .unwrap();
        }
        let wal_dist: Vec<usize> = kv
            .shards
            .iter()
            .map(|s| s.kv.read().index().len())
            .collect();
        assert_eq!(wal_dist, mem.shard_lens());
    }

    /// Value `version` of key number `k`: one page and a bit, or (every
    /// fifth version) a few bytes, so a key's value crosses the in-log
    /// line both ways. Its first two bytes name it, and every byte depends
    /// on both, so a torn, zeroed or misplaced read matches no value.
    fn versioned(k: u8, version: u8) -> Vec<u8> {
        let len = if version % 5 == 4 {
            10
        } else {
            IN_LOG_BYTES + 37
        };
        let mut v: Vec<u8> = (0..len)
            .map(|i| (i as u8).wrapping_add(version).wrapping_mul(k | 1))
            .collect();
        v[0] = k;
        v[1] = version;
        v
    }

    #[test]
    fn reads_of_values_in_the_log_race_overwrites_and_compaction() {
        const KEYS: u8 = 4;
        const VERSIONS: u8 = 120;
        let tmp = TempDir::new("in-log-race");
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::FlushEach)).unwrap();
        let key = |k: u8| format!("content/{k}").into_bytes();
        for k in 0..KEYS {
            kv.put(&key(k), &versioned(k, 0)).unwrap();
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        let (kv, done) = (&kv, &done);
        let (reads, compactions) = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let mut reads = 0u64;
                        while !done.load(Ordering::Acquire) {
                            for k in 0..KEYS {
                                let got = kv.get(&key(k)).expect("a written key stays present");
                                assert_eq!(
                                    got,
                                    versioned(k, got[1]),
                                    "key {k}: not a written value"
                                );
                                reads += 1;
                            }
                        }
                        reads
                    })
                })
                .collect();
            let compactor = scope.spawn(move || {
                let mut compactions = 0u64;
                while !done.load(Ordering::Acquire) {
                    kv.compact_all().unwrap();
                    compactions += 1;
                }
                compactions
            });
            for version in 1..=VERSIONS {
                for k in 0..KEYS {
                    kv.put(&key(k), &versioned(k, version)).unwrap();
                }
            }
            done.store(true, Ordering::Release);
            let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            (reads, compactor.join().unwrap())
        });
        assert!(
            reads > 0 && compactions > 0,
            "{reads} reads, {compactions} compactions"
        );
        for k in 0..KEYS {
            assert_eq!(kv.get(&key(k)), Some(versioned(k, VERSIONS)));
        }
    }

    /// A page-sized put is read back byte for byte by another thread at
    /// once — the frame reaches the OS before the row points at it, under
    /// every policy — and again after a reopen replays it by position.
    fn a_page_put_reads_back_at_once_and_after_reopen(policy: SyncPolicy) {
        let tmp = TempDir::new("page-put");
        let value = versioned(9, 1);
        {
            let (kv, _) = WalShardedKv::open(&tmp.0, cfg(4, policy)).unwrap();
            kv.put(b"content/page", &value).unwrap();
            let kv = &kv;
            let seen = std::thread::scope(|s| s.spawn(|| kv.get(b"content/page")).join().unwrap());
            assert_eq!(seen, Some(value.clone()), "{policy:?}");
        }
        let (kv, report) = WalShardedKv::open(&tmp.0, cfg(4, policy)).unwrap();
        assert_eq!(report.live_keys, 1);
        assert_eq!(
            kv.get(b"content/page"),
            Some(value),
            "{policy:?} after reopen"
        );
    }

    #[test]
    fn a_page_put_reads_back_under_buffered() {
        a_page_put_reads_back_at_once_and_after_reopen(SyncPolicy::Buffered);
    }

    #[test]
    fn a_page_put_reads_back_under_flush_each() {
        a_page_put_reads_back_at_once_and_after_reopen(SyncPolicy::FlushEach);
    }

    #[test]
    fn a_page_put_reads_back_under_sync_each() {
        a_page_put_reads_back_at_once_and_after_reopen(SyncPolicy::SyncEach);
    }

    #[test]
    fn a_failed_log_read_poisons_the_shard_and_is_counted() {
        let tmp = TempDir::new("read-error");
        let (kv, _) = WalShardedKv::open(&tmp.0, cfg(2, SyncPolicy::FlushEach)).unwrap();
        let victim = b"content/victim";
        let shard = (fnv1a(victim) % 2) as usize;
        let (mut same, mut other) = (Vec::new(), Vec::new());
        for i in 0..16u32 {
            let key = format!("k/{i}").into_bytes();
            match (fnv1a(&key) % 2) as usize == shard {
                true => same.push(key),
                false => other.push(key),
            }
        }
        kv.put(&same[0], b"small").unwrap();
        let path = shard_path(&tmp.0, shard);
        let below = std::fs::metadata(&path).unwrap().len();
        kv.put(victim, &versioned(1, 1)).unwrap();

        // The file is cut under the live store, below the row's value.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(below)
            .unwrap();
        assert_eq!(kv.get(victim), None, "an unreadable value answers None");
        assert!(kv.put(&same[1], b"v").is_err(), "the shard is fail-stop");
        assert!(kv.insert_if_absent(&same[2], b"").is_err());
        assert_eq!(
            kv.get(&same[0]),
            Some(b"small".to_vec()),
            "rows still served"
        );
        kv.put(&other[0], b"v").unwrap();

        let mut out = p2drm_obs::SnapshotBuilder::new();
        kv.collect_metrics(&mut out);
        let snapshot = out.finish();
        assert_eq!(snapshot.counter("store_read_errors"), Some(1));
        assert_eq!(snapshot.gauge("store_poisoned_shards"), Some(1));
    }
}
