//! CRC-framed append-only log.
//!
//! Frame layout: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! On replay, the first frame that fails its length or CRC check marks the
//! torn tail: everything before it is handed over, and the caller may truncate
//! the file to that offset (what [`crate::WalShardedKv`] does per shard on
//! open).

use crate::StoreError;
use p2drm_codec::crc32::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Maximum accepted payload size (sanity bound against corrupt lengths).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Bytes of a frame before its payload: the length and the CRC.
pub const HEADER: u64 = 8;

/// The read buffer [`replay`] streams a log through.
const REPLAY_BUFFER: usize = 64 * 1024;

/// Appends CRC-framed records to a file.
pub struct LogWriter {
    out: BufWriter<File>,
    offset: u64,
}

impl LogWriter {
    /// Opens for append, creating the file if missing.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let offset = file.metadata()?.len();
        Ok(LogWriter {
            out: BufWriter::new(file),
            offset,
        })
    }

    /// Appends one record, returning its starting offset.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        assert!(payload.len() as u64 <= MAX_FRAME as u64, "oversized record");
        let start = self.offset;
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.offset += HEADER + payload.len() as u64;
        Ok(start)
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.out.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        Ok(())
    }

    /// Bytes written so far (file length).
    pub fn len(&self) -> u64 {
        self.offset
    }

    /// A second handle onto the backing file. Used by the group-commit
    /// path in [`crate::WalShardedKv`]: the clone lets a commit leader
    /// fsync already-flushed frames *without* holding the lock writers
    /// need for new appends (both handles reach the same inode, and
    /// `sync_data` on either covers every byte the OS has received).
    pub fn try_clone_file(&self) -> Result<File, StoreError> {
        Ok(self.out.get_ref().try_clone()?)
    }

    /// True when the log has no frames.
    pub fn is_empty(&self) -> bool {
        self.offset == 0
    }
}

/// Result of replaying a log file.
pub struct Replay {
    /// Intact frames handed to the callback, in order.
    pub frames: u64,
    /// Offset just past the last intact frame.
    pub good_len: u64,
    /// Whether a torn/corrupt tail was found after `good_len`.
    pub torn_tail: bool,
}

/// Hands every intact frame of `path` to `apply`, in log order, with the
/// file offset the frame starts at, as soon as its length and CRC check
/// out.
///
/// The file is streamed through a fixed 64 KiB read buffer and one frame
/// buffer, so a replay holds one frame beyond the read buffer however
/// long the log is.
///
/// Missing files replay as empty. Corruption is not an error: replay stops
/// at the first bad frame and reports it via [`Replay::torn_tail`]. An
/// error from `apply` stops the replay and is returned as is.
pub fn replay(
    path: &Path,
    apply: impl FnMut(u64, &[u8]) -> Result<(), StoreError>,
) -> Result<Replay, StoreError> {
    replay_through(path, REPLAY_BUFFER, apply)
}

/// [`replay`] through a read buffer of `buffer` bytes.
fn replay_through(
    path: &Path,
    buffer: usize,
    mut apply: impl FnMut(u64, &[u8]) -> Result<(), StoreError>,
) -> Result<Replay, StoreError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                frames: 0,
                good_len: 0,
                torn_tail: false,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    let mut input = BufReader::with_capacity(buffer, file);
    let mut payload = Vec::new();

    let mut frames = 0u64;
    let mut pos = 0u64;
    let torn;
    loop {
        if pos + HEADER > file_len {
            torn = pos != file_len;
            break;
        }
        let mut header = [0u8; HEADER as usize];
        if !read_or_eof(&mut input, &mut header)? {
            torn = true;
            break;
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        // The length is checked against the file before it sizes a
        // buffer, so a corrupt one allocates nothing.
        if len > MAX_FRAME || pos + HEADER + len as u64 > file_len {
            torn = true;
            break;
        }
        payload.resize(len as usize, 0);
        if !read_or_eof(&mut input, &mut payload)? || crc32(&payload) != crc {
            torn = true;
            break;
        }
        apply(pos, &payload)?;
        frames += 1;
        pos += HEADER + len as u64;
    }
    Ok(Replay {
        frames,
        good_len: pos,
        torn_tail: torn,
    })
}

/// Fills `buf`; `false` when the file ends first.
fn read_or_eof(input: &mut impl Read, buf: &mut [u8]) -> Result<bool, StoreError> {
    match input.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// Truncates `path` to `len` bytes (used to cut a torn tail).
pub fn truncate(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

/// Replaces the file atomically with the records `write` appends to a
/// fresh log (a sibling temp file, fsynced, then renamed over `path`) —
/// the compaction primitive. An error from `write` leaves `path` as it
/// was.
pub fn rewrite(
    path: &Path,
    write: impl FnOnce(&mut LogWriter) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let tmp = path.with_extension("compact-tmp");
    // A crash or an error mid-rewrite can leave the temp file behind;
    // `LogWriter` appends, so it starts from nothing.
    let _ = std::fs::remove_file(&tmp);
    {
        let mut w = LogWriter::open(&tmp)?;
        write(&mut w)?;
        w.sync()?;
    }
    publish(&tmp, path)
}

/// Renames the fully written and fsynced `tmp` over `path`, then
/// best-effort syncs the directory so the rename itself is durable: a
/// crash leaves the old `path` or the new one, never a partial file.
pub(crate) fn publish(tmp: &Path, path: &Path) -> Result<(), StoreError> {
    std::fs::rename(tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Seeks-and-writes raw bytes at an offset (test helper for fault injection).
pub fn corrupt_at(path: &Path, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
    let mut file = OpenOptions::new().write(true).open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)?;
    file.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Self-cleaning unique temp path (no external tempfile crate offline).
    pub struct TempPath(pub PathBuf);

    impl TempPath {
        pub fn new(tag: &str) -> Self {
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let p = std::env::temp_dir().join(format!(
                "p2drm-log-test-{}-{}-{}",
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

    /// Replays `path`, collecting every frame through the callback.
    fn collect(path: &Path) -> (Vec<Vec<u8>>, Replay) {
        collect_through(path, REPLAY_BUFFER)
    }

    /// [`collect`] through a read buffer of `buffer` bytes.
    fn collect_through(path: &Path, buffer: usize) -> (Vec<Vec<u8>>, Replay) {
        let mut records = Vec::new();
        let mut next = 0;
        let r = replay_through(path, buffer, |at, frame| {
            assert_eq!(at, next, "each frame's offset is where the last one ended");
            next = at + HEADER + frame.len() as u64;
            records.push(frame.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(r.frames, records.len() as u64);
        (records, r)
    }

    /// Writes `records` to a fresh log, returning each frame's offset.
    fn write_log(path: &Path, records: &[Vec<u8>]) -> Vec<u64> {
        let mut w = LogWriter::open(path).unwrap();
        let offsets = records.iter().map(|r| w.append(r).unwrap()).collect();
        w.flush().unwrap();
        offsets
    }

    #[test]
    fn append_replay_roundtrip() {
        let tmp = TempPath::new("roundtrip");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        let recs: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        let (records, replayed) = collect(&tmp.0);
        assert_eq!(records, recs);
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.good_len, w.len());
    }

    #[test]
    fn missing_file_replays_empty() {
        let tmp = TempPath::new("missing");
        let (records, r) = collect(&tmp.0);
        assert!(records.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn empty_record_ok() {
        let tmp = TempPath::new("empty-rec");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"").unwrap();
        w.append(b"x").unwrap();
        w.flush().unwrap();
        let (records, _) = collect(&tmp.0);
        assert_eq!(records, vec![Vec::new(), b"x".to_vec()]);
    }

    #[test]
    fn an_apply_error_stops_the_replay() {
        let tmp = TempPath::new("apply-err");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        for rec in [b"a", b"b", b"c"] {
            w.append(rec).unwrap();
        }
        w.flush().unwrap();
        let mut seen = Vec::new();
        let res = replay(&tmp.0, |_, frame| {
            seen.push(frame.to_vec());
            match frame {
                b"b" => Err(StoreError::Corrupt {
                    offset: 0,
                    detail: "refused".into(),
                }),
                _ => Ok(()),
            }
        });
        assert!(matches!(res, Err(StoreError::Corrupt { .. })));
        assert_eq!(seen, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn torn_tail_detected_and_truncated() {
        let tmp = TempPath::new("torn");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"first").unwrap();
        let second_at = w.append(b"second").unwrap();
        w.flush().unwrap();
        drop(w);
        // Chop mid-way through the second frame.
        truncate(&tmp.0, second_at + 3).unwrap();
        let (records, r) = collect(&tmp.0);
        assert_eq!(records, vec![b"first".to_vec()]);
        assert!(r.torn_tail);
        assert_eq!(r.good_len, second_at);
        // After truncating to good_len, replay is clean and appendable.
        truncate(&tmp.0, r.good_len).unwrap();
        let (_, r2) = collect(&tmp.0);
        assert!(!r2.torn_tail);
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"third").unwrap();
        w.flush().unwrap();
        assert_eq!(
            collect(&tmp.0).0,
            vec![b"first".to_vec(), b"third".to_vec()]
        );
    }

    #[test]
    fn bitflip_in_payload_detected() {
        let tmp = TempPath::new("bitflip");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        let first_at = w.append(b"aaaaaaa").unwrap();
        w.append(b"bbbbbbb").unwrap();
        w.flush().unwrap();
        drop(w);
        corrupt_at(&tmp.0, first_at + 8 + 2, &[0xFF]).unwrap();
        let (records, r) = collect(&tmp.0);
        assert!(records.is_empty(), "corrupt first frame stops replay");
        assert!(r.torn_tail);
    }

    #[test]
    fn absurd_length_field_detected() {
        let tmp = TempPath::new("badlen");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        w.append(b"ok").unwrap();
        w.flush().unwrap();
        drop(w);
        // Append a frame header claiming a huge payload.
        let mut f = OpenOptions::new().append(true).open(&tmp.0).unwrap();
        f.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.sync_data().unwrap();
        let (records, r) = collect(&tmp.0);
        assert_eq!(records.len(), 1);
        assert!(r.torn_tail);
    }

    #[test]
    fn rewrite_compacts() {
        let tmp = TempPath::new("rewrite");
        let mut w = LogWriter::open(&tmp.0).unwrap();
        for i in 0..10u8 {
            w.append(&[i]).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        rewrite(&tmp.0, |w| {
            w.append(&[42u8])?;
            w.append(&[43u8]).map(drop)
        })
        .unwrap();
        let (records, r) = collect(&tmp.0);
        assert_eq!(records, vec![vec![42u8], vec![43u8]]);
        assert!(!r.torn_tail);
    }

    #[test]
    fn a_failed_rewrite_keeps_the_old_log_and_a_later_one_starts_clean() {
        let tmp = TempPath::new("rewrite-fail");
        write_log(&tmp.0, &[b"old".to_vec()]);
        let res = rewrite(&tmp.0, |w| {
            w.append(b"half")?;
            w.flush()?;
            Err(StoreError::Io(std::io::Error::other("read failed")))
        });
        assert!(res.is_err());
        assert_eq!(collect(&tmp.0).0, vec![b"old".to_vec()]);
        // The temp file the failed rewrite left must not leak into the next.
        rewrite(&tmp.0, |w| w.append(b"new").map(drop)).unwrap();
        assert_eq!(collect(&tmp.0).0, vec![b"new".to_vec()]);
    }

    /// Frames of 1..=40 bytes, so their boundaries fall at every offset
    /// modulo a small read buffer.
    fn ragged_records() -> Vec<Vec<u8>> {
        (1..=40u8).map(|n| vec![n; n as usize]).collect()
    }

    #[test]
    fn frames_straddling_the_read_buffer_replay_whole() {
        let tmp = TempPath::new("straddle");
        let recs = ragged_records();
        write_log(&tmp.0, &recs);
        for buffer in [1, 7, 16, 64] {
            let (records, r) = collect_through(&tmp.0, buffer);
            assert_eq!(records, recs, "buffer {buffer}");
            assert!(!r.torn_tail);
        }
    }

    #[test]
    fn a_frame_larger_than_the_read_buffer_replays_whole() {
        let tmp = TempPath::new("large-frame");
        let recs = vec![b"small".to_vec(), vec![0xAB; 5000], b"after".to_vec()];
        write_log(&tmp.0, &recs);
        let (records, r) = collect_through(&tmp.0, 64);
        assert_eq!(records, recs);
        assert!(!r.torn_tail);
        // Torn inside the large frame: the frames before it survive.
        let len = std::fs::metadata(&tmp.0).unwrap().len();
        truncate(&tmp.0, len - 13 - 100).unwrap();
        let (records, r) = collect_through(&tmp.0, 64);
        assert_eq!(records, recs[..1]);
        assert!(r.torn_tail);
        assert_eq!(r.good_len, 13);
    }

    #[test]
    fn a_tear_exactly_at_a_buffer_boundary() {
        let tmp = TempPath::new("tear-boundary");
        let recs = ragged_records();
        let ends: Vec<u64> = write_log(&tmp.0, &recs)
            .iter()
            .zip(&recs)
            .map(|(at, rec)| at + HEADER + rec.len() as u64)
            .collect();
        let buffer = 32;
        let file_len = std::fs::metadata(&tmp.0).unwrap().len();
        // Cut at every multiple of the buffer: the frame the cut lands in
        // is the torn tail, and a cut on a frame boundary is no tear.
        for cut in (buffer as u64..file_len).step_by(buffer) {
            truncate(&tmp.0, cut).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let good_len = whole.checked_sub(1).map_or(0, |last| ends[last]);
            let (records, r) = collect_through(&tmp.0, buffer);
            assert_eq!(records, recs[..whole], "cut at {cut}");
            assert_eq!(r.good_len, good_len, "cut at {cut}");
            assert_eq!(r.torn_tail, good_len != cut, "cut at {cut}");
            std::fs::remove_file(&tmp.0).unwrap();
            write_log(&tmp.0, &recs);
        }
    }

    #[test]
    fn reopen_appends_after_existing() {
        let tmp = TempPath::new("reopen");
        {
            let mut w = LogWriter::open(&tmp.0).unwrap();
            w.append(b"one").unwrap();
            w.flush().unwrap();
        }
        {
            let mut w = LogWriter::open(&tmp.0).unwrap();
            assert!(!w.is_empty());
            w.append(b"two").unwrap();
            w.flush().unwrap();
        }
        assert_eq!(collect(&tmp.0).0, vec![b"one".to_vec(), b"two".to_vec()]);
    }
}
