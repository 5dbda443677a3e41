//! The request corpus: every operation a run will send, generated from
//! the seed during set-up, written to the run directory and streamed
//! back by the generator — so the program under test receives only
//! generated inputs, and the corpus never sits in the measured process's
//! memory.
//!
//! File format, per record: `u32` LE request length ‖ `u16` LE `aux` ‖
//! request envelope bytes (correlation id zero). `aux` is what the
//! generator needs to check the reply: the catalog index for purchases
//! and downloads, unused otherwise.

use crate::stack::{draw, par_map, request_bytes, Pool, Preloaded, Stack, Stream};
use p2drm_core::protocol::messages::{
    transfer_proof_bytes, CatalogRequest, DownloadRequest, LicenseStatusRequest, TransferRequest,
};
use p2drm_core::service::{PseudonymIssueSession, WireRequest};
use p2drm_crypto::sha256::Sha256;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Records generated (in parallel) before any is written, bounding the
/// corpus bytes held in memory at once.
const BATCH: u64 = 4096;

/// One corpus record.
pub struct Record {
    pub aux: u16,
    pub request: Vec<u8>,
}

/// Appends records to the corpus file, hashing what it writes.
pub struct CorpusWriter {
    file: BufWriter<File>,
    hasher: Sha256,
    records: u64,
}

impl CorpusWriter {
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(CorpusWriter {
            file: BufWriter::with_capacity(1 << 20, File::create(path)?),
            hasher: Sha256::new(),
            records: 0,
        })
    }

    pub fn push(&mut self, record: &Record) -> io::Result<()> {
        let len = u32::try_from(record.request.len()).expect("requests are far below 4 GiB");
        let mut header = [0u8; 6];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&record.aux.to_le_bytes());
        for part in [&header[..], &record.request] {
            self.hasher.update(part);
            self.file.write_all(part)?;
        }
        self.records += 1;
        Ok(())
    }

    /// Flushes and returns `(records written, SHA-256 of the file)`.
    pub fn finish(mut self) -> io::Result<(u64, String)> {
        self.file.flush()?;
        let digest = self.hasher.finalize();
        let hex = digest.iter().map(|b| format!("{b:02x}")).collect();
        Ok((self.records, hex))
    }
}

/// Streams records back in the order they were written.
pub struct CorpusReader {
    file: BufReader<File>,
}

impl CorpusReader {
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(CorpusReader {
            file: BufReader::with_capacity(1 << 20, File::open(path)?),
        })
    }

    /// The next record, or `None` at the end of the corpus.
    pub fn next_record(&mut self) -> io::Result<Option<Record>> {
        let mut header = [0u8; 6];
        match self.file.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
        let aux = u16::from_le_bytes(header[4..].try_into().expect("2-byte slice"));
        let mut request = vec![0u8; len];
        self.file.read_exact(&mut request)?;
        Ok(Some(Record { aux, request }))
    }
}

/// Operation kinds of `lifecycle_mix`, with their share in percent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixOp {
    Catalog,
    Download,
    Status,
    Purchase,
    Transfer,
}

pub const MIX: [(MixOp, u64); 5] = [
    (MixOp::Catalog, 30),
    (MixOp::Download, 30),
    (MixOp::Status, 20),
    (MixOp::Purchase, 15),
    (MixOp::Transfer, 5),
];

/// Transfers in a `lifecycle_mix` slice of `ops` operations.
pub fn mix_transfers(ops: u64) -> u64 {
    ops * 5 / 100
}

/// The exact multiset of a `lifecycle_mix` slice (shares rounded down,
/// the remainder going to `Catalog`), before shuffling.
fn mix_multiset(ops: u64) -> Vec<MixOp> {
    let mut kinds = Vec::with_capacity(ops as usize);
    for (kind, share) in MIX {
        kinds.extend(std::iter::repeat_n(kind, (ops * share / 100) as usize));
    }
    kinds.resize(ops as usize, MixOp::Catalog);
    kinds
}

/// Which workload's operations a [`CorpusBuilder`] emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Purchase,
    Download,
    Mix,
    /// Journey descriptors for `client_session`: the request bytes are
    /// the journey's RNG stream index, `aux` its catalog item.
    Journey,
}

impl Shape {
    pub fn of(workload: &str) -> Option<Shape> {
        match workload {
            "purchase_wal" => Some(Shape::Purchase),
            "content_download" => Some(Shape::Download),
            "lifecycle_mix" => Some(Shape::Mix),
            "client_session" => Some(Shape::Journey),
            _ => None,
        }
    }

    pub fn needs_pool(self) -> bool {
        matches!(self, Shape::Purchase | Shape::Mix)
    }
}

/// Generates a workload's corpus slice by slice. Item `j` of slice
/// `s` has global index `s * ops_per_slice + j`, and everything random
/// about it comes from `stream_rng(seed, Stream::Item, index)`.
pub struct CorpusBuilder<'a> {
    pub stack: &'a Stack,
    pub pool: Option<&'a Pool>,
    /// Licenses bought in set-up: the first
    /// `slices × mix_transfers(ops_per_slice)` are transfer targets
    /// (each used once), the rest are status targets.
    pub preloaded: &'a [Preloaded],
    pub shape: Shape,
    pub ops_per_slice: u64,
    /// Slices the run will ask for (bounds the transfer targets).
    pub slices: u64,
}

impl CorpusBuilder<'_> {
    fn pool(&self) -> &Pool {
        self.pool.expect("this workload shape is built with a pool")
    }

    fn transfer_targets(&self) -> u64 {
        self.slices * mix_transfers(self.ops_per_slice)
    }

    pub fn purchase(&self, index: u64) -> Record {
        let mut rng = self.stack.rng(Stream::Item, index);
        let (request, item, _) = self.stack.purchase_request(self.pool(), &mut rng);
        Record {
            aux: item as u16,
            request: request_bytes(WireRequest::Purchase(request)),
        }
    }

    pub fn download(&self, index: u64) -> Record {
        let item = draw(
            &mut self.stack.rng(Stream::Item, index),
            self.stack.catalog.len(),
        );
        Record {
            aux: item as u16,
            request: request_bytes(WireRequest::Download(DownloadRequest {
                content_id: self.stack.catalog[item].id,
            })),
        }
    }

    /// Transfer of set-up license number `ordinal` to another pool
    /// pseudonym, proved by its current holder's card.
    pub fn transfer(&self, index: u64, ordinal: u64) -> Record {
        let pool = self.pool();
        let mut rng = self.stack.rng(Stream::Item, index);
        let owned = &self.preloaded[ordinal as usize];
        let holder = &pool.certs[owned.holder];
        let step = 1 + draw(&mut rng, pool.certs.len() - 1);
        let recipient = &pool.certs[(owned.holder + step) % pool.certs.len()];
        let proof = pool.users[holder.user]
            .card
            .sign_with_pseudonym(
                &holder.id,
                &transfer_proof_bytes(&owned.license.id(), &recipient.id),
            )
            .expect("pool card holds the key of every pool pseudonym");
        Record {
            aux: 0,
            request: request_bytes(WireRequest::Transfer(TransferRequest {
                license: owned.license.clone(),
                recipient_cert: recipient.cert.clone(),
                proof,
            })),
        }
    }

    /// Status query for a set-up license no transfer ever touches.
    pub fn status(&self, index: u64) -> Record {
        let first = self.transfer_targets() as usize;
        let mut rng = self.stack.rng(Stream::Item, index);
        let target = first + draw(&mut rng, self.preloaded.len() - first);
        Record {
            aux: 0,
            request: request_bytes(WireRequest::LicenseStatus(LicenseStatusRequest {
                license_id: self.preloaded[target].license.id(),
            })),
        }
    }

    pub fn catalog() -> Record {
        Record {
            aux: 0,
            request: request_bytes(WireRequest::Catalog(CatalogRequest { content_id: None })),
        }
    }

    pub fn journey(&self, index: u64) -> Record {
        let item = draw(
            &mut self.stack.rng(Stream::Journey, index),
            self.stack.catalog.len(),
        );
        Record {
            aux: item as u16,
            request: index.to_le_bytes().to_vec(),
        }
    }

    /// The shuffled kinds of `lifecycle_mix` slice `slice`, each
    /// transfer paired with the ordinal of the set-up license it moves.
    fn mix_plan(&self, slice: u64, ops: u64) -> Vec<(MixOp, u64)> {
        let mut kinds = mix_multiset(ops);
        let mut rng = self.stack.rng(Stream::Shuffle, slice);
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, draw(&mut rng, i + 1));
        }
        let mut next_transfer = slice * mix_transfers(self.ops_per_slice);
        kinds
            .into_iter()
            .map(|kind| {
                let ordinal = next_transfer;
                if kind == MixOp::Transfer {
                    next_transfer += 1;
                }
                (kind, ordinal)
            })
            .collect()
    }

    /// Writes the first `ops` operations of slice `slice`.
    pub fn write_slice(&self, slice: u64, ops: u64, out: &mut CorpusWriter) -> io::Result<()> {
        assert!(ops <= self.ops_per_slice && slice < self.slices);
        let base = slice * self.ops_per_slice;
        let plan = match self.shape {
            Shape::Mix => self.mix_plan(slice, ops),
            _ => Vec::new(),
        };
        let mut done = 0;
        while done < ops {
            let end = (done + BATCH).min(ops);
            let records = par_map(done..end, |j| match self.shape {
                Shape::Purchase => self.purchase(base + j),
                Shape::Download => self.download(base + j),
                Shape::Journey => self.journey(base + j),
                Shape::Mix => match plan[j as usize] {
                    (MixOp::Catalog, _) => Self::catalog(),
                    (MixOp::Download, _) => self.download(base + j),
                    (MixOp::Status, _) => self.status(base + j),
                    (MixOp::Purchase, _) => self.purchase(base + j),
                    (MixOp::Transfer, ordinal) => self.transfer(base + j, ordinal),
                },
            });
            for record in &records {
                out.push(record)?;
            }
            done = end;
        }
        Ok(())
    }
}

/// Operations of each kind in the coverage segment.
pub const COVERAGE_EACH: u64 = 32;
/// Blind issuances in the coverage segment (each costs the client a
/// key generation to prepare).
pub const COVERAGE_ISSUES: u64 = 16;
/// Set-up licenses the coverage segment needs (transfer + status
/// targets).
pub const COVERAGE_PRELOAD: u64 = 2 * COVERAGE_EACH;

/// Writes the coverage segment: a few operations of every kind the
/// provider serves, so each `core.dispatch_<op>_us` has samples on every
/// workload. `preloaded` are [`COVERAGE_PRELOAD`] licenses of their own.
pub fn write_coverage(
    stack: &Stack,
    pool: &Pool,
    preloaded: &[Preloaded],
    out: &mut CorpusWriter,
) -> io::Result<u64> {
    let builder = CorpusBuilder {
        stack,
        pool: Some(pool),
        preloaded,
        shape: Shape::Mix,
        ops_per_slice: COVERAGE_EACH * 100 / 5,
        slices: 1,
    };
    // Indices far above any workload item, so the RNG streams differ.
    let index = |k: u64, j: u64| (1 << 48) + k * COVERAGE_EACH + j;
    let mut records = Vec::new();
    for j in 0..COVERAGE_EACH {
        records.push(builder.purchase(index(0, j)));
        records.push(builder.transfer(index(1, j), j));
        records.push(builder.status(index(2, j)));
        records.push(builder.download(index(3, j)));
        records.push(CorpusBuilder::catalog());
    }
    let mut rng = stack.rng(Stream::Coverage, 0);
    let mut user = stack.register("coverage", COVERAGE_ISSUES as usize, &mut rng);
    for _ in 0..COVERAGE_ISSUES {
        let (_, request) = PseudonymIssueSession::begin(
            &mut user,
            stack.sys.ra.blind_public(),
            stack.sys.ttp.escrow_key(),
            stack.sys.epoch(),
            &mut rng,
        )
        .expect("registered card prepares issuance requests within its budget");
        records.push(Record {
            aux: 0,
            request: request_bytes(WireRequest::PseudonymIssue(request)),
        });
    }
    for record in &records {
        out.push(record)?;
    }
    Ok(records.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_multiset_has_exact_shares() {
        let kinds = mix_multiset(20_000);
        let count = |k| kinds.iter().filter(|&&x| x == k).count();
        assert_eq!(kinds.len(), 20_000);
        assert_eq!(count(MixOp::Catalog), 6_000);
        assert_eq!(count(MixOp::Download), 6_000);
        assert_eq!(count(MixOp::Status), 4_000);
        assert_eq!(count(MixOp::Purchase), 3_000);
        assert_eq!(count(MixOp::Transfer), 1_000);
        assert_eq!(mix_transfers(20_000), 1_000);
        // Rounding remainders go to the cheapest op, never lost.
        let kinds = mix_multiset(7);
        assert_eq!(kinds.len(), 7);
        assert_eq!(MIX.iter().map(|(_, share)| share).sum::<u64>(), 100);
    }

    /// Builds a small system (512-bit keys, 8 items, 4 pseudonyms, 24
    /// set-up licenses) from `seed` and returns the digest of one slice
    /// of every workload shape.
    fn small_corpus_digest(seed: u64, tag: &str) -> String {
        use crate::spans::Recorder;
        use p2drm_core::system::SystemConfig;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!(
            "p2drm-bench-determinism-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let digest = {
            let stack = Stack::build_with(
                SystemConfig::fast_test(),
                8,
                seed,
                &dir,
                Arc::new(Recorder::new()),
            )
            .unwrap();
            let pool = stack.build_pool_of(2, 2);
            let preloaded = stack.preload(&pool, 0..24);
            let mut writer = CorpusWriter::create(&dir.join("corpus.bin")).unwrap();
            for shape in [Shape::Purchase, Shape::Download, Shape::Mix, Shape::Journey] {
                CorpusBuilder {
                    stack: &stack,
                    pool: Some(&pool),
                    preloaded: &preloaded,
                    shape,
                    ops_per_slice: 40,
                    slices: 2,
                }
                .write_slice(1, 40, &mut writer)
                .unwrap();
            }
            let (records, digest) = writer.finish().unwrap();
            assert_eq!(records, 160);
            digest
        };
        std::fs::remove_dir_all(&dir).unwrap();
        digest
    }

    #[test]
    fn same_seed_same_corpus_different_seed_different_corpus() {
        let a = small_corpus_digest(41, "a");
        let b = small_corpus_digest(41, "b");
        let c = small_corpus_digest(42, "c");
        assert_eq!(a, b, "equal seeds must give byte-identical corpora");
        assert_ne!(a, c, "different seeds must give different corpora");
    }

    #[test]
    fn corpus_file_round_trips_and_digest_tracks_content() {
        let dir = std::env::temp_dir().join(format!("p2drm-bench-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, payloads: &[&[u8]]| {
            let path = dir.join(name);
            let mut w = CorpusWriter::create(&path).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                w.push(&Record {
                    aux: i as u16,
                    request: p.to_vec(),
                })
                .unwrap();
            }
            (path, w.finish().unwrap())
        };
        let (path_a, (n_a, digest_a)) = write("a", &[b"one", b"", b"three"]);
        let (_, (_, digest_b)) = write("b", &[b"one", b"", b"three"]);
        let (_, (_, digest_c)) = write("c", &[b"one", b"", b"threE"]);
        assert_eq!(n_a, 3);
        assert_eq!(digest_a, digest_b);
        assert_ne!(digest_a, digest_c);
        assert_eq!(digest_a.len(), 64);

        let mut r = CorpusReader::open(&path_a).unwrap();
        let mut got = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            got.push((rec.aux, rec.request));
        }
        assert_eq!(
            got,
            vec![(0, b"one".to_vec()), (1, vec![]), (2, b"three".to_vec())]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
