//! Durable storage substrate for the P2DRM entities.
//!
//! The paper's anonymous-license mechanism hinges on server-side state: the
//! **spent-ID store** (unique license ids that may never be redeemed twice),
//! the license store, CRL snapshots, and per-license rights state on
//! devices. This crate provides the storage those components sit on:
//!
//! * [`ConcurrentKv`] — the one store interface (`&self`, internally
//!   synchronized), including [`ConcurrentKv::insert_if_absent`], the
//!   atomic check-and-set that implements "redeem exactly once";
//! * [`MemKv`] — volatile: N independently locked shards, keys routed by
//!   hash, so writers on different shards never contend (tests,
//!   simulation, the mint's and the devices' default state);
//! * [`WalShardedKv`] — durable **and** sharded: 1..N shards each backed
//!   by its own write-ahead log (every mutation is framed and appended
//!   before the in-memory index changes; on open the logs are streamed
//!   in parallel and a corrupt tail is detected and truncated), per-shard
//!   group commit amortizing flush/fsync across concurrent writers — the
//!   production license-server backend, and at one shard the durable
//!   device store;
//! * [`log`] — CRC-framed append-only log with torn-tail recovery;
//! * [`typed`] — thin typed wrapper over any [`ConcurrentKv`] using the
//!   canonical codec.
//!
//! Both backends keep a shard's live pairs in the same in-memory index:
//! one heap allocation per pair, the row `[key length: u32][key][value]`,
//! in a key-ordered set with a 16-byte tree slot per row — a stored pair
//! costs its key and value bytes plus 20 (and the allocator's rounding).
//! [`WalShardedKv`] copies only values under one page (4,096 bytes) into
//! its rows. A larger value stays in the shard log, where its record
//! already has it: the row holds the value's offset and length instead,
//! so the pair costs its key bytes plus 32 on the heap whatever the
//! value's size, and a read of it is one `pread` from the log (the page
//! cache, once warm).
//!
//! # Backend matrix
//!
//! | backend | concurrency | durability | use |
//! |---|---|---|---|
//! | [`MemKv`] | N shards | none | tests, simulations, max-throughput volatile serving |
//! | [`WalShardedKv`] | N shards, same routing | per-shard WAL, group commit | the durable license service; devices at 1 shard |
//!
//! [`SyncPolicy`] picks the durability/latency trade-off of a
//! [`WalShardedKv`], and group commit is the only place it is acted on:
//! `Buffered` (userspace buffering; flush on drop — fastest, loses the
//! un-flushed tail on a crash but never corrupts), `FlushEach` (every
//! mutation pushed to the OS — survives process death), `SyncEach` (fsync
//! per commit batch — survives power loss).
//!
//! ```
//! use p2drm_store::{ConcurrentKv, MemKv};
//!
//! let kv = MemKv::new();
//! kv.put(b"license/1", b"bytes").unwrap();
//! assert!(kv.insert_if_absent(b"spent/1", b"").unwrap());
//! assert!(!kv.insert_if_absent(b"spent/1", b"").unwrap(), "second redeem refused");
//! ```

#![forbid(unsafe_code)]

mod index;
pub mod log;
mod mem;
pub mod typed;
mod walkv;
mod walsharded;

pub use mem::MemKv;
pub use walkv::RecoveryReport;
pub use walsharded::{SyncPolicy, WalShardedConfig, WalShardedKv};

/// Storage errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A log frame failed its CRC or length check (offset included).
    Corrupt { offset: u64, detail: String },
    /// Value failed to decode as the expected type.
    Decode(p2drm_codec::CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt { offset, detail } => {
                write!(f, "corrupt log at offset {offset}: {detail}")
            }
            StoreError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<p2drm_codec::CodecError> for StoreError {
    fn from(e: p2drm_codec::CodecError) -> Self {
        StoreError::Decode(e)
    }
}

/// The store interface: every backend is a `&self` handle that many
/// threads share.
///
/// Implementations guarantee that every operation is internally
/// synchronized and that [`ConcurrentKv::insert_if_absent`] is atomic with
/// respect to all other operations on the same key. Typed
/// [`typed::Table`]s operate over it; the provider, the mint and the
/// devices hold their state through it.
pub trait ConcurrentKv {
    /// Reads a value.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Writes (inserts or overwrites) a value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Deletes a key; returns whether it existed.
    fn delete(&self, key: &[u8]) -> Result<bool, StoreError>;

    /// Check-and-set: inserts only when absent, returning whether the
    /// insert happened. This is the double-redemption primitive: a license
    /// id (or coin serial) is redeemable iff this returns `true` exactly
    /// once, whatever the interleaving of callers.
    ///
    /// **Required, not defaulted**: a naive `contains`-then-`put` default
    /// would let a new backend silently lose the exactly-once guarantee
    /// (e.g. a future remote/batched store whose `contains` and `put` are
    /// separate round trips). Every backend must state its own atomic
    /// implementation; both in-tree backends decide the claim under the
    /// write lock of the key's shard.
    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError>;

    /// All pairs whose key starts with `prefix`, in key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// True when no keys are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `key` exists.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Flushes buffered writes to the backing medium.
    fn flush(&self) -> Result<(), StoreError>;

    /// Contributes this backend's metrics (commit/fsync latency, sizes)
    /// to a unified snapshot. Volatile backends have nothing to report;
    /// the default is a no-op. Implementations must only emit static
    /// metric names — never key material or values.
    fn collect_metrics(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        let _ = out;
    }
}

/// FNV-1a over the key: cheap, stable, good enough dispersion for shard
/// routing (keys here are table-prefixed ids and hashes already).
///
/// Shared by [`MemKv`] and [`WalShardedKv`], whose **on-disk** shard files
/// encode this routing — one definition so the two stores cannot drift.
pub(crate) fn fnv1a(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
