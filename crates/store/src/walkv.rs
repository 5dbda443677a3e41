//! The per-shard engine of [`crate::WalShardedKv`]: one write-ahead log
//! plus its in-memory index, with crash recovery and compaction.
//!
//! Every mutation is encoded (canonical codec), CRC-framed and appended to
//! the log *before* the in-memory index is updated. Opening replays the log
//! straight into the index, frame by frame; a torn tail (crash mid-append)
//! is truncated away, so the store always recovers to the last complete
//! operation — the property the spent-ID store needs to keep the
//! double-redemption guarantee across restarts.
//!
//! The index is an [`Index`]: each live pair is one heap allocation in a
//! key-ordered set, the same layout as a [`crate::MemKv`] shard. A value
//! under [`IN_LOG_BYTES`] is copied into its row — a 16-byte tree slot
//! plus 4 + key + value bytes. A larger one stays where the log already
//! has it: the row holds its file offset and length (the `IN_LOG` flag
//! bit of the row's length word), 4 + key + 12 bytes whatever the value's
//! size, and a read fetches it with one `pread` on a read-only handle to
//! the log. Two rules keep that position valid:
//!
//! * **flush before index** — a put of a large value pushes its frame to
//!   the OS before the row points at it, so the `pread` finds it under
//!   every [`crate::SyncPolicy`], `Buffered` included;
//! * **replay and compaction repoint** — replay records each large value's
//!   offset instead of copying it, and compaction streams it from the old
//!   log into the new one and moves the row to its new offset.
//!
//! The trust assumption: a value read by position is not re-checksummed.
//! The frame CRC's job is unchanged — finding a torn tail at open — and
//! the bytes a read returns are the page cache's (or the disk's), which
//! now hold what the heap copy held. A read that fails (the file was cut
//! under the store) is returned as an error, on which
//! [`crate::WalShardedKv`] poisons the shard fail-stop.
//!
//! Appends only buffer in userspace. *When* they reach the OS or the disk
//! is not decided here: the owning [`crate::WalShardedKv`] calls
//! [`WalKv::flush_to_os`]/[`WalKv::sync_data`] from its group commit, the
//! one place a [`crate::SyncPolicy`] is acted on. Dropping flushes.

use crate::index::{Index, Value};
use crate::log::{self, LogWriter};
use crate::StoreError;
use p2drm_codec::{Reader, Writer};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

/// Values of at least this many bytes (one page) stay in the log: the
/// index row holds their position instead of a copy.
pub(crate) const IN_LOG_BYTES: usize = 4096;

/// What `open` found in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Operations replayed from the log.
    pub replayed_ops: u64,
    /// Live keys after replay.
    pub live_keys: usize,
    /// Whether a torn tail was truncated.
    pub truncated_tail: bool,
}

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

/// One shard's durable state: append-only log + in-memory index. Methods
/// take `&mut self`; the owner's shard lock is the synchronization.
pub(crate) struct WalKv {
    path: PathBuf,
    writer: LogWriter,
    /// Read-only handle onto the log, for values kept in it.
    reader: File,
    index: Index,
    /// Total ops in the log.
    log_ops: u64,
}

impl WalKv {
    /// Opens (or creates) the store at `path`, replaying the log and
    /// truncating any torn tail.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Self, RecoveryReport), StoreError> {
        let path = path.into();
        let mut index = Index::default();
        let replayed = log::replay(&path, |frame, rec| apply_record(&mut index, frame, rec))?;
        if replayed.torn_tail {
            log::truncate(&path, replayed.good_len)?;
        }
        let report = RecoveryReport {
            replayed_ops: replayed.frames,
            live_keys: index.len(),
            truncated_tail: replayed.torn_tail,
        };
        let writer = LogWriter::open(&path)?;
        let reader = File::open(&path)?;
        Ok((
            WalKv {
                path,
                writer,
                reader,
                index,
                log_ops: replayed.frames,
            },
            report,
        ))
    }

    /// Logs one record and returns where its value is from then on. A
    /// value kept in the log is flushed to the OS first, so a read
    /// through `reader` finds it.
    fn append<'v>(&mut self, op: u8, key: &[u8], value: &'v [u8]) -> Result<Value<'v>, StoreError> {
        let rec = encode(op, key, value);
        let frame = self.writer.append(&rec)?;
        self.log_ops += 1;
        let stored = locate(frame, rec.len(), value);
        if let Value::InLog { .. } = stored {
            self.writer.flush()?;
        }
        Ok(stored)
    }

    /// Rewrites the log to contain exactly the live pairs, streaming each
    /// value kept in the log from the old file into the new one, then
    /// moves those rows to their new offsets.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.writer.flush()?;
        let mut moved = Vec::new();
        log::rewrite(&self.path, |out| {
            for (key, value) in self.index.iter() {
                let bytes = read(&self.reader, value)?;
                let rec = encode(OP_PUT, key, &bytes);
                let frame = out.append(&rec)?;
                if let Value::InLog { at, .. } = locate(frame, rec.len(), &bytes) {
                    moved.push(at);
                }
            }
            Ok(())
        })?;
        self.index.relocate(moved);
        self.writer = LogWriter::open(&self.path)?;
        self.reader = File::open(&self.path)?;
        self.log_ops = self.index.len() as u64;
        Ok(())
    }

    /// Current log length in bytes (for the storage-growth experiment E6).
    pub fn log_bytes(&self) -> u64 {
        self.writer.len()
    }

    /// Total operations appended to the log so far. [`crate::WalShardedKv`]
    /// uses this as the commit horizon its group-commit leader must cover.
    pub fn ops_appended(&self) -> u64 {
        self.log_ops
    }

    /// Pushes buffered frames to the OS **without** fsync (the
    /// [`crate::SyncPolicy::FlushEach`] durability level; the group-commit
    /// leader calls it).
    pub fn flush_to_os(&mut self) -> Result<(), StoreError> {
        self.writer.flush()
    }

    /// Flushes and fsyncs (the [`crate::SyncPolicy::SyncEach`] durability
    /// level; the explicit `flush` checkpoint calls it).
    pub fn sync_data(&mut self) -> Result<(), StoreError> {
        self.writer.sync()
    }

    /// A second handle onto the log file, for fsyncing outside the store
    /// lock (see [`crate::log::LogWriter::try_clone_file`]).
    pub fn try_clone_log_file(&self) -> Result<std::fs::File, StoreError> {
        self.writer.try_clone_file()
    }

    /// The live pairs. A value kept in the log is a position;
    /// [`WalKv::read`] fetches its bytes.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// The bytes of a value from [`WalKv::index`]: copied from its row,
    /// or read from the log with one `pread`.
    pub fn read(&self, value: Value<'_>) -> Result<Vec<u8>, StoreError> {
        read(&self.reader, value)
    }

    /// The value under `key`.
    #[cfg(test)]
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.index
            .get(key)
            .map(|value| self.read(value))
            .transpose()
    }

    /// Logs, then writes (inserts or overwrites) a value.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let stored = self.append(OP_PUT, key, value)?;
        self.index.put(key, stored);
        Ok(())
    }

    /// Deletes a key; returns whether it existed. Only an existing key is
    /// logged.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, StoreError> {
        if !self.index.contains(key) {
            return Ok(false);
        }
        self.append(OP_DELETE, key, &[])?;
        Ok(self.index.remove(key))
    }

    /// Index probe then log append: both steps happen under the `&mut`
    /// borrow, and the WAL record is appended *before* the index changes,
    /// so the exactly-once outcome also survives a crash between the two.
    pub fn insert_if_absent(&mut self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        if self.index.contains(key) {
            return Ok(false);
        }
        let stored = self.append(OP_PUT, key, value)?;
        self.index.put(key, stored);
        Ok(true)
    }
}

/// One WAL record: `[op][key][value]` in the canonical codec.
fn encode(op: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(key.len() + value.len() + 8);
    w.put_u8(op);
    w.put_bytes(key);
    w.put_bytes(value);
    w.into_bytes()
}

/// Where the index keeps `value`, which ends `value_end` bytes into the
/// payload of the frame at `frame`: in the log from [`IN_LOG_BYTES`] on,
/// in the row below.
fn locate(frame: u64, value_end: usize, value: &[u8]) -> Value<'_> {
    if value.len() < IN_LOG_BYTES {
        return Value::Inline(value);
    }
    Value::InLog {
        at: frame + log::HEADER + (value_end - value.len()) as u64,
        // A frame is at most `log::MAX_FRAME` (64 MiB) long.
        len: value.len() as u32,
    }
}

fn read(log: &File, value: Value<'_>) -> Result<Vec<u8>, StoreError> {
    match value {
        Value::Inline(bytes) => Ok(bytes.to_vec()),
        Value::InLog { at, len } => {
            let mut bytes = vec![0; len as usize];
            log.read_exact_at(&mut bytes, at)?;
            Ok(bytes)
        }
    }
}

fn apply_record(index: &mut Index, frame: u64, rec: &[u8]) -> Result<(), StoreError> {
    let mut r = Reader::new(rec);
    let op = r.get_u8()?;
    let key = r.get_bytes()?;
    let value = r.get_bytes()?;
    match op {
        OP_PUT => index.put(key, locate(frame, rec.len() - r.remaining(), value)),
        OP_DELETE => {
            index.remove(key);
        }
        other => {
            return Err(StoreError::Corrupt {
                offset: frame,
                detail: format!("unknown op {other}"),
            })
        }
    }
    Ok(())
}

impl Drop for WalKv {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let p = std::env::temp_dir().join(format!(
                "p2drm-walkv-test-{}-{}-{}",
                std::process::id(),
                tag,
                n
            ));
            let _ = std::fs::remove_file(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn open_empty_then_crud() {
        let tmp = TempPath::new("crud");
        let (mut kv, report) = WalKv::open(&tmp.0).unwrap();
        assert_eq!(report.replayed_ops, 0);
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        kv.put(b"a", b"3").unwrap();
        assert!(kv.delete(b"b").unwrap());
        assert_eq!(kv.get(b"a").unwrap(), Some(b"3".to_vec()));
        assert_eq!(kv.index().len(), 1);
    }

    #[test]
    fn persists_across_reopen() {
        let tmp = TempPath::new("reopen");
        {
            let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
            kv.put(b"k1", b"v1").unwrap();
            kv.put(b"k2", b"v2").unwrap();
            kv.delete(b"k1").unwrap();
        }
        let (kv, report) = WalKv::open(&tmp.0).unwrap();
        assert_eq!(report.replayed_ops, 3);
        assert_eq!(report.live_keys, 1);
        assert!(!report.truncated_tail);
        assert_eq!(kv.get(b"k2").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(kv.get(b"k1").unwrap(), None);
    }

    #[test]
    fn crash_recovery_truncates_torn_tail() {
        let tmp = TempPath::new("crash");
        {
            let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
            kv.put(b"good", b"1").unwrap();
            kv.put(b"casualty", b"2").unwrap();
        }
        // Simulate a crash mid-append: chop 3 bytes off the file.
        let len = std::fs::metadata(&tmp.0).unwrap().len();
        log::truncate(&tmp.0, len - 3).unwrap();

        let (kv, report) = WalKv::open(&tmp.0).unwrap();
        assert!(report.truncated_tail);
        assert_eq!(report.replayed_ops, 1);
        assert_eq!(kv.get(b"good").unwrap(), Some(b"1".to_vec()));
        assert_eq!(kv.get(b"casualty").unwrap(), None);

        // Recovered store is fully writable again.
        drop(kv);
        let (mut kv, report) = WalKv::open(&tmp.0).unwrap();
        assert!(!report.truncated_tail, "tail already repaired");
        kv.put(b"after", b"3").unwrap();
        assert_eq!(kv.index().len(), 2);
    }

    #[test]
    fn replayed_claim_refuses_second_redeem_after_crash() {
        // Regression for the WAL ordering contract: `insert_if_absent`
        // appends the claim record *before* touching the index, so a crash
        // any time after the append (here: torn garbage from a mid-append
        // power cut) still replays the claim, and the recovered store
        // refuses a second redeem of the id spent before the crash.
        let tmp = TempPath::new("claim-order");
        {
            let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
            assert!(kv.insert_if_absent(b"spent/pre-crash", b"").unwrap());
        }
        // Crash mid-append of a later record: partial frame header.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&tmp.0)
                .unwrap();
            f.write_all(&[0x09, 0x00]).unwrap();
        }
        let (mut kv, report) = WalKv::open(&tmp.0).unwrap();
        assert!(report.truncated_tail);
        assert_eq!(report.replayed_ops, 1, "the claim itself replayed");
        assert!(
            !kv.insert_if_absent(b"spent/pre-crash", b"").unwrap(),
            "id spent before the crash must stay spent after replay"
        );
    }

    #[test]
    fn insert_if_absent_survives_restart() {
        let tmp = TempPath::new("spent");
        {
            let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
            assert!(kv.insert_if_absent(b"spent/lid-1", b"").unwrap());
        }
        let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
        assert!(
            !kv.insert_if_absent(b"spent/lid-1", b"").unwrap(),
            "double redemption refused after restart"
        );
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let tmp = TempPath::new("compact");
        let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
        for i in 0..100u32 {
            kv.put(b"hot", &i.to_le_bytes()).unwrap();
        }
        kv.put(b"cold", b"c").unwrap();
        let before = kv.log_bytes();
        assert_eq!(kv.ops_appended(), 101);
        kv.compact().unwrap();
        assert!(kv.log_bytes() < before);
        assert_eq!(kv.ops_appended(), 2, "one record per live key");
        assert_eq!(kv.get(b"hot").unwrap(), Some(99u32.to_le_bytes().to_vec()));
        assert_eq!(kv.get(b"cold").unwrap(), Some(b"c".to_vec()));

        // And the compacted log replays correctly.
        drop(kv);
        let (kv, report) = WalKv::open(&tmp.0).unwrap();
        assert_eq!(report.live_keys, 2);
        assert_eq!(kv.get(b"hot").unwrap(), Some(99u32.to_le_bytes().to_vec()));
    }

    #[test]
    fn scan_prefix_matches_memkv_semantics() {
        let tmp = TempPath::new("scan");
        let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
        for k in ["lic/1", "lic/2", "spent/1"] {
            kv.put(k.as_bytes(), b"x").unwrap();
        }
        assert_eq!(kv.index().scan_prefix(b"lic/").count(), 2);
        assert_eq!(kv.index().scan_prefix(b"spent/").count(), 1);
        assert_eq!(kv.index().scan_prefix(b"").count(), 3);
    }

    #[test]
    fn buffered_policy_flushes_on_drop() {
        // Nothing but the drop pushes this append out of userspace: the
        // `Buffered` policy of the owning store relies on exactly that.
        let tmp = TempPath::new("buffered");
        {
            let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
            kv.put(b"x", b"y").unwrap();
        } // drop flushes
        let (kv, _) = WalKv::open(&tmp.0).unwrap();
        assert_eq!(kv.get(b"x").unwrap(), Some(b"y".to_vec()));
    }

    /// Where `key`'s value is in the log, when it is kept there.
    fn position(kv: &WalKv, key: &[u8]) -> Option<(u64, u32)> {
        match kv.index().get(key)? {
            Value::InLog { at, len } => Some((at, len)),
            Value::Inline(_) => None,
        }
    }

    fn in_log(kv: &WalKv, key: &[u8]) -> bool {
        position(kv, key).is_some()
    }

    #[test]
    fn values_from_one_page_on_stay_in_the_log() {
        let tmp = TempPath::new("in-log");
        let page = vec![0xC3; IN_LOG_BYTES];
        let under = vec![0x3C; IN_LOG_BYTES - 1];
        let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
        kv.put(b"page", &page).unwrap();
        kv.put(b"under", &under).unwrap();
        assert!(in_log(&kv, b"page"));
        assert!(!in_log(&kv, b"under"));
        assert_eq!(kv.get(b"page").unwrap(), Some(page.clone()));
        // Small and back: the row follows the value's size.
        kv.put(b"page", b"small").unwrap();
        assert!(!in_log(&kv, b"page"));
        assert_eq!(kv.get(b"page").unwrap(), Some(b"small".to_vec()));
        kv.put(b"page", &page).unwrap();
        assert!(kv.insert_if_absent(b"claimed", &page).unwrap());
        assert!(in_log(&kv, b"claimed"));
        assert_eq!(kv.get(b"claimed").unwrap(), Some(page.clone()));

        // The position points at the value's bytes in the file itself.
        let (at, len) = position(&kv, b"page").unwrap();
        let file = std::fs::read(&tmp.0).unwrap();
        assert_eq!(file[at as usize..][..len as usize], page[..]);

        // Replay records positions, and reads them back byte for byte.
        drop(kv);
        let (mut kv, report) = WalKv::open(&tmp.0).unwrap();
        assert_eq!(report.live_keys, 3);
        assert!(in_log(&kv, b"page") && in_log(&kv, b"claimed"));
        assert_eq!(kv.get(b"page").unwrap(), Some(page.clone()));
        assert_eq!(kv.get(b"under").unwrap(), Some(under.clone()));

        // Compaction moves them into the new log and repoints the rows.
        let before = position(&kv, b"page");
        kv.compact().unwrap();
        assert_ne!(position(&kv, b"page"), before, "the row moved");
        assert_eq!(kv.get(b"page").unwrap(), Some(page.clone()));
        assert_eq!(kv.get(b"claimed").unwrap(), Some(page.clone()));
        assert_eq!(kv.get(b"under").unwrap(), Some(under.clone()));
        kv.put(b"after", &page).unwrap();
        drop(kv);
        let (kv, report) = WalKv::open(&tmp.0).unwrap();
        assert_eq!(report.replayed_ops, 4);
        for key in [&b"page"[..], b"claimed", b"after"] {
            assert_eq!(kv.get(key).unwrap(), Some(page.clone()));
        }
    }

    #[test]
    fn a_cut_log_fails_the_read_of_a_value_kept_in_it() {
        let tmp = TempPath::new("cut");
        let (mut kv, _) = WalKv::open(&tmp.0).unwrap();
        kv.put(b"small", b"v").unwrap();
        kv.put(b"large", &[7; IN_LOG_BYTES]).unwrap();
        let (at, _) = position(&kv, b"large").unwrap();
        log::truncate(&tmp.0, at + 1).unwrap();
        assert!(kv.get(b"large").is_err());
        assert_eq!(kv.get(b"small").unwrap(), Some(b"v".to_vec()));
    }
}
