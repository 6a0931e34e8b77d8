//! The durable checkpoint store: one append-only journal of versioned,
//! checksummed records per directory.
//!
//! ## Layout
//!
//! ```text
//! <dir>/journal.xbj    the journal header, then chunk and stage records
//! ```
//!
//! Every record starts with the same fixed head:
//!
//! ```text
//! magic "XBCP" | version u32 | kind u8 | payload length u64 | key [u8; 24] | head check u64
//! ```
//!
//! The key names the record: a chunk's index and user range (three `u64`),
//! or a stage's name, zero-padded. The head check is [`checksum64`] of the
//! 41 bytes before it, so [`CheckpointStore::open`] can list the journal
//! from heads alone, and a flipped length or index is typed corruption,
//! never misread as a torn tail. A chunk or stage record follows its head
//! with the payload and an XXH64 trailer, [`checksum64`] of head and
//! payload. The journal header is a bare head of kind `KIND_HEADER`
//! whose key carries the config fingerprint.
//!
//! ## Commit
//!
//! An append is one positional write at the journal's committed end and
//! one `fdatasync`: the record is committed when the sync returns. The
//! first append creates the file, carries the header in the same write as
//! its record, and fsyncs the directory once so the file's entry is
//! durable. Nothing is renamed or rewritten in place: a stage record
//! supersedes an earlier record of the same name by coming after it.
//!
//! ## Open and recovery
//!
//! `open` reads the header, every record's head and the last record in
//! full. It never writes, and it never holds more than one record. Only
//! the last record may run past the end of the file or fail its trailer:
//! that is a torn tail left by a crash mid-append, and it is dropped. The
//! next append truncates it before writing. A head that fails any check
//! is typed wherever it sits. The trailers of earlier records are checked
//! by [`CheckpointStore::load_chunk`] and [`CheckpointStore::load_stage`],
//! so a replay hashes each byte once. A refused directory is left
//! byte-identical for post-mortem.
//!
//! ## Kill points
//!
//! Each append threads a [`KillSwitch`] through three labelled sites:
//! `:pre` before any byte is written, `:mid` with half the record on disk
//! (a torn tail), and `:durable` after the commit point. The kill-site
//! sweep in `tests/streaming_resume.rs` pins that resume recovers from
//! every one.

use crate::error::{io_err, CheckpointError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use xborder_faults::{checksum64, KillSwitch};

/// Format version written into every record head. Bump on any
/// incompatible layout change; old checkpoints are refused, not migrated.
/// (v3: chunk blobs carry columnar segment blocks, DESIGN.md §5j; v4: the
/// frame trailer is XXH64, not FNV-1a; v5: classifier deltas carry URLs in
/// split form with one state byte, DESIGN.md §5g; v6: one append-only
/// journal replaces the manifest and the per-chunk files; v7: a block's
/// URL column is the compact URL's shape, index, service and cache-buster
/// columns, not a byte arena.)
pub const CHECKPOINT_VERSION: u32 = 7;

/// The last version that kept a `manifest.json` beside one file per blob.
/// Such a directory is refused as this version: there is no reader for it.
const MANIFEST_VERSION: u32 = 5;

/// Magic prefix of every record head.
pub const MAGIC: [u8; 4] = *b"XBCP";

/// Record kind tag: a per-chunk ingestion state record.
pub const KIND_CHUNK: u8 = 1;
/// Record kind tag: a named stage-boundary state record.
pub const KIND_STAGE: u8 = 2;
/// Record kind tag: the journal header (format version and fingerprint).
const KIND_HEADER: u8 = 3;

/// File name of the journal inside a checkpoint directory.
pub const JOURNAL: &str = "journal.xbj";

/// Bytes of a record key.
const KEY: usize = 24;
/// Bytes of a record head: magic, version, kind, payload length, key and
/// head check. The journal header is exactly one head.
const HEAD: usize = 4 + 4 + 1 + 8 + KEY + 8;
/// A record's bytes beyond its payload: head and trailer.
const OVERHEAD: u64 = HEAD as u64 + 8;

/// One durable chunk record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Zero-based chunk index; records are contiguous from 0.
    pub index: u64,
    /// First user id (inclusive) covered by the chunk.
    pub user_start: u64,
    /// One past the last user id covered by the chunk.
    pub user_end: u64,
    /// The record's label in errors: `journal.xbj#{index}`.
    pub file: String,
    /// Byte offset of the record in the journal.
    pub offset: u64,
    /// The record's on-disk length: head, payload and trailer.
    pub bytes: u64,
}

/// Reads a little-endian `u64` from the first eight bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Appends a record head to `out`: magic, version, kind, payload length,
/// key, then the head check over those bytes.
fn put_head(out: &mut Vec<u8>, kind: u8, payload_len: u64, key: &[u8; KEY]) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(key);
    let check = checksum64(&out[start..]);
    out.extend_from_slice(&check.to_le_bytes());
}

/// Appends a whole record to `out`: head, payload, and the trailer,
/// [`checksum64`] of head and payload.
fn put_record(out: &mut Vec<u8>, kind: u8, key: &[u8; KEY], payload: &[u8]) {
    let start = out.len();
    put_head(out, kind, payload.len() as u64, key);
    out.extend_from_slice(payload);
    let trailer = checksum64(&out[start..]);
    out.extend_from_slice(&trailer.to_le_bytes());
}

/// Checks a record head and returns its kind, payload length and key.
///
/// Check order is part of the error contract: magic (`Corrupt`), then
/// version (`VersionMismatch`), then the head check (`Corrupt`).
fn parse_head(path: &Path, at: u64, head: &[u8]) -> Result<(u8, u64, [u8; KEY]), CheckpointError> {
    if head[..4] != MAGIC {
        return Err(corrupt(path, at, "bad magic (not an XBCP record)"));
    }
    let version = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    if le_u64(&head[HEAD - 8..]) != checksum64(&head[..HEAD - 8]) {
        return Err(corrupt(path, at, "head fails its check"));
    }
    let mut key = [0u8; KEY];
    key.copy_from_slice(&head[17..17 + KEY]);
    Ok((head[8], le_u64(&head[9..17]), key))
}

fn corrupt(path: &Path, at: u64, detail: impl std::fmt::Display) -> CheckpointError {
    CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("record at byte {at}: {detail}"),
    }
}

/// Checks a whole record image against its trailer: one hash pass.
fn check_trailer(path: &Path, rec: &[u8]) -> Result<(), CheckpointError> {
    let (body, trailer) = rec.split_at(rec.len() - 8);
    let (expected, actual) = (le_u64(trailer), checksum64(body));
    if expected != actual {
        return Err(CheckpointError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    Ok(())
}

/// A key of three `u64`: a chunk's index and user range, or the header's
/// fingerprint and two zeros.
fn key_of(a: u64, b: u64, c: u64) -> [u8; KEY] {
    let mut key = [0u8; KEY];
    for (slot, v) in key.chunks_exact_mut(8).zip([a, b, c]) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
    key
}

/// A stage name as its key: the name's bytes, zero-padded.
fn stage_key(name: &str) -> Result<[u8; KEY], CheckpointError> {
    if name.len() > KEY || name.as_bytes().contains(&0) {
        return Err(CheckpointError::Invalid {
            detail: format!("stage name {name:?} is not 1..={KEY} bytes without NUL"),
        });
    }
    let mut key = [0u8; KEY];
    key[..name.len()].copy_from_slice(name.as_bytes());
    Ok(key)
}

/// Creates the journal (and its directory) for the first append, then
/// fsyncs the directory so the new entry is durable: the one directory
/// sync of the journal's life.
fn create(dir: &Path, path: &Path) -> Result<File, CheckpointError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(dir, e))?;
    Ok(file)
}

/// Visits a kill site: `Killed` when the switch fires there.
fn killable(kill: &KillSwitch, label: &str) -> Result<(), CheckpointError> {
    if !kill.fire(label) {
        return Ok(());
    }
    let site = kill.fired().map_or(0, |(s, _)| s);
    Err(CheckpointError::Killed {
        site,
        label: label.to_string(),
    })
}

/// A checkpoint directory opened for reading and appending.
///
/// The store moves bytes, not domain types: callers encode their state
/// with [`crate::ByteWriter`] and hand the payload here; the store frames,
/// checksums and appends it to the journal.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    path: PathBuf,
    fingerprint: u64,
    /// The journal, read-write; `None` until it exists.
    file: Option<File>,
    /// The committed end: every byte before it belongs to the header or a
    /// whole record. 0 while the journal has no header.
    end: u64,
    /// Bytes past `end` may be on disk (a torn tail, or an append that
    /// failed or was killed); the next append truncates them first.
    torn: bool,
    chunks: Vec<ChunkEntry>,
    /// The latest record of each stage name: name, offset, length.
    stages: Vec<(String, u64, u64)>,
}

impl CheckpointStore {
    /// Opens the checkpoint directory for the run identified by
    /// `fingerprint`. A missing directory or journal opens empty; both are
    /// created by the first append.
    ///
    /// The journal is validated — a manifest-era layout, format version,
    /// fingerprint, every record head, chunk contiguity, the last record's
    /// trailer — without writing anything, so a refused directory is left
    /// untouched. A torn tail is dropped from the view, not from the file.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        if dir.join("manifest.json").exists() {
            return Err(CheckpointError::VersionMismatch {
                found: MANIFEST_VERSION,
                expected: CHECKPOINT_VERSION,
            });
        }
        let mut store = CheckpointStore {
            path: dir.join(JOURNAL),
            dir,
            fingerprint,
            file: None,
            end: 0,
            torn: false,
            chunks: Vec::new(),
            stages: Vec::new(),
        };
        let file = match OpenOptions::new().read(true).write(true).open(&store.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(io_err(&store.path, e)),
        };
        let len = file.metadata().map_err(|e| io_err(&store.path, e))?.len();
        store.file = Some(file);
        store.scan(len)?;
        store.torn = len > store.end;
        Ok(store)
    }

    /// Walks the journal's heads up to the first torn record, indexing
    /// every committed one and advancing `end` past it.
    fn scan(&mut self, len: u64) -> Result<(), CheckpointError> {
        if len < HEAD as u64 {
            return Ok(()); // a torn header: the journal is empty
        }
        let (kind, payload_len, key) = parse_head(&self.path, 0, &self.read(0, HEAD as u64)?)?;
        if kind != KIND_HEADER || payload_len != 0 {
            return Err(corrupt(&self.path, 0, "not a journal header"));
        }
        if le_u64(&key) != self.fingerprint {
            return Err(CheckpointError::SeedMismatch {
                found: le_u64(&key),
                expected: self.fingerprint,
            });
        }
        self.end = HEAD as u64;
        while len - self.end >= HEAD as u64 {
            let at = self.end;
            let (kind, payload_len, key) =
                parse_head(&self.path, at, &self.read(at, HEAD as u64)?)?;
            let Some(bytes) = payload_len.checked_add(OVERHEAD).filter(|&b| b <= len - at) else {
                break; // runs past the end of the file: a torn tail
            };
            if at + bytes == len && check_trailer(&self.path, &self.read(at, bytes)?).is_err() {
                break; // the last record fails its trailer: a torn tail
            }
            self.index(at, bytes, kind, &key)
                .map_err(|detail| corrupt(&self.path, at, detail))?;
            self.end = at + bytes;
        }
        Ok(())
    }

    /// Adds a committed record to the in-memory view: a chunk must be the
    /// next index, and a stage supersedes any earlier one of its name.
    fn index(&mut self, offset: u64, bytes: u64, kind: u8, key: &[u8; KEY]) -> Result<(), String> {
        match kind {
            KIND_CHUNK => {
                let index = le_u64(key);
                if index != self.chunks.len() as u64 {
                    return Err(format!("chunk {index} out of order"));
                }
                self.chunks.push(ChunkEntry {
                    index,
                    user_start: le_u64(&key[8..]),
                    user_end: le_u64(&key[16..]),
                    file: format!("{JOURNAL}#{index}"),
                    offset,
                    bytes,
                });
            }
            KIND_STAGE => {
                let len = key.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                let name = String::from_utf8_lossy(&key[..len]).into_owned();
                self.stages.retain(|s| s.0 != name);
                self.stages.push((name, offset, bytes));
            }
            _ => return Err(format!("unexpected record kind {kind}")),
        }
        Ok(())
    }

    /// Reads `bytes` at `at`, which must lie inside the file as `open`
    /// measured it or below the committed end, into a buffer of exactly
    /// that capacity. Both mean the journal exists and `file` is open.
    fn read(&self, at: u64, bytes: u64) -> Result<Vec<u8>, CheckpointError> {
        let mut file = self
            .file
            .as_ref()
            .expect("only a journal open found or an append created is read");
        let mut buf = Vec::with_capacity(bytes as usize);
        file.seek(SeekFrom::Start(at))
            .and_then(|_| file.take(bytes).read_to_end(&mut buf))
            .map_err(|e| io_err(&self.path, e))?;
        if (buf.len() as u64) < bytes {
            return Err(CheckpointError::Truncated {
                path: self.path.clone(),
                needed: at + bytes,
                have: at + buf.len() as u64,
            });
        }
        Ok(buf)
    }

    /// Durable chunks, in index order.
    pub fn chunks(&self) -> &[ChunkEntry] {
        &self.chunks
    }

    /// Bytes of committed records: the journal's length minus its header
    /// and any torn tail.
    pub fn records_len(&self) -> u64 {
        self.end.saturating_sub(HEAD as u64)
    }

    /// Loads one durable chunk record and checks its trailer, returning
    /// the payload.
    pub fn load_chunk(&self, entry: &ChunkEntry) -> Result<Vec<u8>, CheckpointError> {
        self.load(&entry.file, entry.offset, entry.bytes)
    }

    /// Loads the latest durable record of a stage by name and checks its
    /// trailer; `None` if the journal holds none.
    pub fn load_stage(&self, name: &str) -> Result<Option<Vec<u8>>, CheckpointError> {
        let stage = self.stages.iter().find(|s| s.0 == name);
        stage
            .map(|(_, offset, bytes)| self.load(&format!("{JOURNAL}#{name}"), *offset, *bytes))
            .transpose()
    }

    fn load(&self, label: &str, offset: u64, bytes: u64) -> Result<Vec<u8>, CheckpointError> {
        if bytes < OVERHEAD || offset.checked_add(bytes).is_none_or(|e| e > self.end) {
            return Err(CheckpointError::Invalid {
                detail: format!("{label}: {bytes} bytes at {offset} are not a committed record"),
            });
        }
        let mut rec = self.read(offset, bytes)?;
        check_trailer(&self.dir.join(label), &rec)?;
        // Shift the payload to the front in place: no second buffer.
        rec.truncate(rec.len() - 8);
        rec.drain(..HEAD);
        Ok(rec)
    }

    /// Appends a chunk record and commits it. `index` must be the next
    /// chunk index (`chunks().len()`).
    pub fn append_chunk(
        &mut self,
        index: u64,
        user_start: u64,
        user_end: u64,
        payload: &[u8],
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        if index != self.chunks.len() as u64 {
            return Err(CheckpointError::Invalid {
                detail: format!(
                    "append_chunk index {index} out of order (next is {})",
                    self.chunks.len()
                ),
            });
        }
        let (key, label) = (
            key_of(index, user_start, user_end),
            format!("chunk-{index}:blob"),
        );
        self.append(KIND_CHUNK, &key, payload, &label, kill)
    }

    /// Appends a named stage record and commits it; it supersedes any
    /// earlier record of the same name. Names are at most 24 bytes.
    pub fn put_stage(
        &mut self,
        name: &str,
        payload: &[u8],
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        let (key, label) = (stage_key(name)?, format!("stage-{name}:blob"));
        self.append(KIND_STAGE, &key, payload, &label, kill)
    }

    /// The one write path: truncate a torn tail, then one positional write
    /// of the record (after the header on the first append) at the
    /// committed end and one `fdatasync`. `end` moves only once the sync
    /// returns, so a failed or killed append leaves the handle reusable.
    fn append(
        &mut self,
        kind: u8,
        key: &[u8; KEY],
        payload: &[u8],
        label: &str,
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        killable(kill, &format!("{label}:pre"))?;
        let mut image = Vec::with_capacity(HEAD + OVERHEAD as usize + payload.len());
        if self.end == 0 {
            put_head(&mut image, KIND_HEADER, 0, &key_of(self.fingerprint, 0, 0));
        }
        let offset = self.end + image.len() as u64;
        put_record(&mut image, kind, key, payload);
        let file = match &mut self.file {
            Some(f) => f,
            slot => slot.insert(create(&self.dir, &self.path)?),
        };
        let io = |e| io_err(&self.path, e);
        if self.torn {
            file.set_len(self.end).map_err(io)?;
        }
        self.torn = true;
        if let Err(killed) = killable(kill, &format!("{label}:mid")) {
            // The simulated crash: half the image on disk, synced.
            file.write_all_at(&image[..image.len() / 2], self.end)
                .map_err(io)?;
            file.sync_data().map_err(io)?;
            return Err(killed);
        }
        file.write_all_at(&image, self.end).map_err(io)?;
        file.sync_data().map_err(io)?;
        self.torn = false;
        self.end += image.len() as u64;
        let bytes = self.end - offset;
        self.index(offset, bytes, kind, key)
            .map_err(|detail| CheckpointError::Invalid { detail })?;
        killable(kill, &format!("{label}:durable"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xbcp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect()
    }

    fn record(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut rec = Vec::new();
        put_record(&mut rec, kind, &[7u8; KEY], payload);
        rec
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello checkpoint";
        let rec = record(KIND_CHUNK, payload);
        let p = Path::new("x");
        assert_eq!(
            parse_head(p, 0, &rec).unwrap(),
            (KIND_CHUNK, payload.len() as u64, [7u8; KEY])
        );
        check_trailer(p, &rec).unwrap();
        assert_eq!(&rec[HEAD..rec.len() - 8], payload);
    }

    #[test]
    fn frame_corruptions_are_typed() {
        let rec = record(KIND_CHUNK, b"payload bytes here");
        let p = Path::new("x");
        let head_err = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut r = rec.clone();
            edit(&mut r);
            parse_head(p, 0, &r).unwrap_err()
        };
        // Wrong magic → Corrupt; wrong version → VersionMismatch.
        assert!(matches!(
            head_err(&|r| r[0] = b'Y'),
            CheckpointError::Corrupt { .. }
        ));
        assert!(matches!(
            head_err(&|r| r[4] = 99),
            CheckpointError::VersionMismatch { found: 99, .. }
        ));
        // A flipped length, kind or key bit → Corrupt by the head check.
        for byte in [8, 9, 17, HEAD - 9, HEAD - 1] {
            assert!(
                matches!(
                    head_err(&|r| r[byte] ^= 0x10),
                    CheckpointError::Corrupt { .. }
                ),
                "byte {byte}"
            );
        }
        // A flip in the payload or the trailer → ChecksumMismatch.
        for byte in [HEAD + 2, rec.len() - 1] {
            let mut r = rec.clone();
            r[byte] ^= 0x40;
            assert!(matches!(
                check_trailer(p, &r),
                Err(CheckpointError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn record_trailer_is_checksum_of_head_and_payload() {
        let dir = tmp_dir("trailer");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 4).unwrap();
        store.append_chunk(0, 0, 5, b"alpha", &kill).unwrap();
        store
            .put_stage("completion", b"stage-bytes", &kill)
            .unwrap();
        let journal = fs::read(dir.join(JOURNAL)).unwrap();
        let (_, offset, bytes) = store.stages[0].clone();
        let chunk = &store.chunks()[0];
        assert_eq!(
            chunk.offset, HEAD as u64,
            "the first record follows the header"
        );
        for (at, len) in [(chunk.offset, chunk.bytes), (offset, bytes)] {
            let rec = &journal[at as usize..(at + len) as usize];
            let trailer = le_u64(&rec[rec.len() - 8..]);
            assert_eq!(trailer, checksum64(&rec[..rec.len() - 8]));
            assert_eq!(le_u64(&rec[HEAD - 8..HEAD]), checksum64(&rec[..HEAD - 8]));
        }
        assert_eq!(
            journal.len() as u64,
            offset + bytes,
            "nothing follows the last record"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v5_directory_is_refused() {
        // A directory written by the manifest-era format: `manifest.json`
        // beside one file per chunk. Opening it is a typed refusal that
        // leaves every file as it was.
        let dir = tmp_dir("v5");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.json"),
            "{\"version\": 5, \"chunks\": []}",
        )
        .unwrap();
        fs::write(dir.join("chunk-00000.xbc"), b"XBCP\x05\0\0\0old chunk").unwrap();
        let before = snapshot(&dir);
        assert!(matches!(
            CheckpointStore::open(&dir, 7),
            Err(CheckpointError::VersionMismatch {
                found: 5,
                expected: CHECKPOINT_VERSION
            })
        ));
        assert_eq!(snapshot(&dir), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v6_journal_is_refused() {
        // A journal as the previous format wrote it: the same framing with
        // version 6 in every head, each head check and trailer valid. Its
        // chunk blocks carry a URL byte arena no v7 reader decodes, so
        // opening it is a typed refusal that leaves the directory as it was.
        let dir = tmp_dir("v6");
        let (mut journal, records) = journal_of(2, true, 0x1234_5678);
        let heads = std::iter::once((0, HEAD as u64)).chain(records.iter().map(|r| (r.0, r.1)));
        for (at, len) in heads {
            let (at, len) = (at as usize, len as usize);
            journal[at + 4..at + 8].copy_from_slice(&6u32.to_le_bytes());
            let check = checksum64(&journal[at..at + HEAD - 8]);
            journal[at + HEAD - 8..at + HEAD].copy_from_slice(&check.to_le_bytes());
            if len > HEAD {
                let trailer = checksum64(&journal[at..at + len - 8]);
                journal[at + len - 8..at + len].copy_from_slice(&trailer.to_le_bytes());
            }
        }
        let got = open_damaged(&dir, &journal);
        assert!(
            matches!(
                got,
                Err(CheckpointError::VersionMismatch {
                    found: 6,
                    expected: CHECKPOINT_VERSION
                })
            ),
            "{got:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_append_reopen_load() {
        let dir = tmp_dir("roundtrip");
        let kill = KillSwitch::none();
        assert!(CheckpointStore::open(&dir, 42).unwrap().chunks().is_empty());
        assert!(!dir.exists(), "open creates nothing");
        let mut store = CheckpointStore::open(&dir, 42).unwrap();
        store.append_chunk(0, 0, 5, b"first", &kill).unwrap();
        store.append_chunk(1, 5, 10, b"second", &kill).unwrap();
        store
            .put_stage("completion", b"stage-bytes", &kill)
            .unwrap();

        let store2 = CheckpointStore::open(&dir, 42).unwrap();
        assert_eq!(store2.chunks(), store.chunks());
        assert_eq!(store2.records_len(), store.records_len());
        assert_eq!(store2.chunks()[1].file, "journal.xbj#1");
        assert_eq!(
            (store2.chunks()[1].user_start, store2.chunks()[1].user_end),
            (5, 10)
        );
        assert_eq!(store2.load_chunk(&store2.chunks()[0]).unwrap(), b"first");
        assert_eq!(store2.load_chunk(&store2.chunks()[1]).unwrap(), b"second");
        assert_eq!(
            store2.load_stage("completion").unwrap().as_deref(),
            Some(&b"stage-bytes"[..])
        );
        assert!(store2.load_stage("absent").unwrap().is_none());
        let names: Vec<String> = snapshot(&dir).into_keys().collect();
        assert_eq!(names, [JOURNAL], "one file per directory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let dir = tmp_dir("seed");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 7).unwrap();
        store.append_chunk(0, 0, 1, b"x", &kill).unwrap();
        assert!(matches!(
            CheckpointStore::open(&dir, 8),
            Err(CheckpointError::SeedMismatch {
                found: 7,
                expected: 8
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_append_is_refused() {
        let dir = tmp_dir("order");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        assert!(matches!(
            store.append_chunk(3, 0, 1, b"x", &kill),
            Err(CheckpointError::Invalid { .. })
        ));
        assert!(matches!(
            store.put_stage("a-stage-name-longer-than-the-key", b"x", &kill),
            Err(CheckpointError::Invalid { .. })
        ));
        assert!(!dir.exists(), "a refused append writes nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The kill sites of one append, in the order it visits them.
    const PHASES: [&str; 3] = ["pre", "mid", "durable"];

    #[test]
    fn kill_at_every_write_site_leaves_resumable_state() {
        // Sweep every kill site of a two-chunk append sequence; after each
        // simulated crash, a fresh open must succeed and see only fully
        // committed chunks, and re-execution must converge to the same
        // final state.
        let sites: Vec<String> = (0..2)
            .flat_map(|i| PHASES.map(|p| format!("chunk-{i}:blob:{p}")))
            .collect();
        let probe = KillSwitch::none();
        {
            let dir = tmp_dir("sites-probe");
            let mut store = CheckpointStore::open(&dir, 9).unwrap();
            store.append_chunk(0, 0, 5, b"alpha", &probe).unwrap();
            store.append_chunk(1, 5, 9, b"beta", &probe).unwrap();
            let _ = fs::remove_dir_all(&dir);
        }
        assert_eq!(probe.sites_visited(), sites.len() as u64);

        for (site, label) in sites.iter().enumerate() {
            let dir = tmp_dir(&format!("sites-{site}"));
            let kill = KillSwitch::at_site(site as u64);
            let mut store = CheckpointStore::open(&dir, 9).unwrap();
            let err = store
                .append_chunk(0, 0, 5, b"alpha", &kill)
                .and_then(|_| store.append_chunk(1, 5, 9, b"beta", &kill))
                .unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Killed { label: l, .. } if l == label),
                "site {site}: {err:?}"
            );
            // Crash simulated: reopen and finish the job. A kill at
            // `:durable` lands after the commit point.
            let mut resumed = CheckpointStore::open(&dir, 9).unwrap();
            let committed = site / PHASES.len() + usize::from(label.ends_with(":durable"));
            assert_eq!(resumed.chunks().len(), committed, "{label}");
            let none = KillSwitch::none();
            for (i, payload) in [&b"alpha"[..], &b"beta"[..]]
                .iter()
                .enumerate()
                .skip(committed)
            {
                resumed
                    .append_chunk(i as u64, 0, 0, payload, &none)
                    .unwrap();
            }
            let check = CheckpointStore::open(&dir, 9).unwrap();
            assert_eq!(check.chunks().len(), 2, "site {site}");
            assert_eq!(check.load_chunk(&check.chunks()[0]).unwrap(), b"alpha");
            assert_eq!(check.load_chunk(&check.chunks()[1]).unwrap(), b"beta");
            assert_eq!(fs::metadata(dir.join(JOURNAL)).unwrap().len(), check.end);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn dirsync_kill_lands_after_the_commit_point() {
        // The journal has no directory sync per commit; the site after the
        // commit point is `:durable`. A kill there must leave the chunk
        // committed — resume sees it and does not re-execute.
        let dir = tmp_dir("dirsync");
        let kill = KillSwitch::at_label("chunk-0:blob:durable");
        let mut store = CheckpointStore::open(&dir, 5).unwrap();
        let err = store.append_chunk(0, 0, 5, b"alpha", &kill).unwrap_err();
        assert!(matches!(err, CheckpointError::Killed { .. }));
        assert_eq!(store.chunks().len(), 1, "the handle saw the commit too");
        let resumed = CheckpointStore::open(&dir, 5).unwrap();
        assert_eq!(resumed.chunks().len(), 1);
        assert_eq!(resumed.load_chunk(&resumed.chunks()[0]).unwrap(), b"alpha");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_kill_before_commit_leaves_chunk_uncommitted() {
        // A kill at `:mid` leaves half the first write — the header and
        // part of the record — as a torn tail. The chunk must not be
        // visible, and re-execution truncates the tail and appends again.
        let dir = tmp_dir("torn-tail");
        let kill = KillSwitch::at_label("chunk-0:blob:mid");
        let mut store = CheckpointStore::open(&dir, 6).unwrap();
        assert!(store.append_chunk(0, 0, 5, b"alpha", &kill).is_err());
        let torn = fs::metadata(dir.join(JOURNAL)).unwrap().len();
        assert!(torn > 0, "half the write is on disk");

        let before = snapshot(&dir);
        let mut resumed = CheckpointStore::open(&dir, 6).unwrap();
        assert_eq!(resumed.chunks().len(), 0, "a torn record must be invisible");
        assert_eq!(snapshot(&dir), before, "open leaves the torn tail alone");
        resumed
            .append_chunk(0, 0, 5, b"alpha", &KillSwitch::none())
            .unwrap();
        let check = CheckpointStore::open(&dir, 6).unwrap();
        assert_eq!(check.load_chunk(&check.chunks()[0]).unwrap(), b"alpha");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_leaves_the_handle_reusable() {
        // A kill at `chunk-1:blob:mid` leaves a torn tail longer than the
        // record the retry writes. The handle's committed end must not
        // move, so a retry on the same handle truncates the tail and the
        // journal reopens to exactly chunks 0 and 1.
        let dir = tmp_dir("same-handle");
        let none = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 8).unwrap();
        store.append_chunk(0, 0, 5, b"alpha", &none).unwrap();
        let end = store.end;
        let kill = KillSwitch::at_label("chunk-1:blob:mid");
        let err = store
            .append_chunk(1, 5, 9, &[0x5a; 400], &kill)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Killed { .. }), "{err:?}");
        assert_eq!((store.end, store.chunks().len()), (end, 1));
        store.append_chunk(1, 5, 9, b"beta", &none).unwrap();

        let check = CheckpointStore::open(&dir, 8).unwrap();
        assert_eq!(check.chunks(), store.chunks());
        assert_eq!(check.load_chunk(&check.chunks()[0]).unwrap(), b"alpha");
        assert_eq!(check.load_chunk(&check.chunks()[1]).unwrap(), b"beta");
        assert_eq!(fs::metadata(dir.join(JOURNAL)).unwrap().len(), check.end);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_blob_is_replaced_not_duplicated() {
        let dir = tmp_dir("stage-replace");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.put_stage("completion", b"v1", &kill).unwrap();
        store.put_stage("completion", b"v2", &kill).unwrap();
        let store2 = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store2.stages.len(), 1);
        assert_eq!(
            store2.load_stage("completion").unwrap().as_deref(),
            Some(&b"v2"[..])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Opens `dir` and loads every record it lists: the chunk payloads in
    /// order, then the completion stage if there is one.
    fn open_and_load(dir: &Path) -> Result<Vec<Vec<u8>>, CheckpointError> {
        let store = CheckpointStore::open(dir, 2)?;
        let mut out = Vec::new();
        for c in store.chunks() {
            out.push(store.load_chunk(c)?);
        }
        out.extend(store.load_stage("completion")?);
        Ok(out)
    }

    /// `len` bytes drawn from `fill`, varied by `salt`.
    fn bytes_of(fill: u64, len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (fill.rotate_left((i + salt) as u32) ^ i) as u8)
            .collect()
    }

    /// Whether `kept` is `all` with zero or more records left out, in order.
    fn is_subsequence(kept: &[Vec<u8>], all: &[Vec<u8>]) -> bool {
        let mut rest = all.iter();
        kept.iter().all(|k| rest.any(|a| a == k))
    }

    /// Each record of a test journal: offset, on-disk length, payload.
    type Records = Vec<(u64, u64, Vec<u8>)>;

    /// A journal of `n_chunks` chunks and, with `stage`, a completion
    /// record after them, built in memory with the store's own encoders:
    /// the same bytes `append` writes, without a sync per case. Returns the
    /// journal and each record's offset, length and payload.
    fn journal_of(n_chunks: usize, stage: bool, fill: u64) -> (Vec<u8>, Records) {
        let lens: Vec<usize> = (0..n_chunks)
            .map(|i| (fill >> (8 * i)) as usize % 48)
            .collect();
        let mut journal = Vec::new();
        put_head(&mut journal, KIND_HEADER, 0, &key_of(2, 0, 0));
        let mut records = Vec::new();
        let mut push = |journal: &mut Vec<u8>, kind: u8, key: &[u8; KEY], payload: Vec<u8>| {
            let offset = journal.len() as u64;
            put_record(journal, kind, key, &payload);
            records.push((offset, journal.len() as u64 - offset, payload));
        };
        for (i, &len) in lens.iter().enumerate() {
            let key = key_of(i as u64, i as u64, i as u64 + 1);
            push(
                &mut journal,
                KIND_CHUNK,
                &key,
                bytes_of(fill, len, i as u64),
            );
        }
        if stage {
            let key = stage_key("completion").unwrap();
            push(
                &mut journal,
                KIND_STAGE,
                &key,
                bytes_of(fill, lens[0] + 3, 99),
            );
        }
        (journal, records)
    }

    /// Writes `bytes` as the journal of `dir`, then opens and loads it and
    /// checks that neither wrote: the directory is byte-identical after.
    fn open_damaged(dir: &Path, bytes: &[u8]) -> Result<Vec<Vec<u8>>, CheckpointError> {
        fs::create_dir_all(dir).unwrap();
        let path = dir.join(JOURNAL);
        // A fresh file each time: rewriting one in place through a
        // truncation makes ext4 flush it on close.
        let _ = fs::remove_file(&path);
        fs::write(&path, bytes).unwrap();
        let before = snapshot(dir);
        let got = open_and_load(dir);
        assert_eq!(snapshot(dir), before, "open or load wrote: {got:?}");
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any damage to a journal — one bit flipped anywhere (header,
        /// heads, payloads, trailers), a truncation at any offset, or
        /// garbage appended — opens and loads to `Ok` or a typed error,
        /// never a panic, and never writes. Only a torn tail is dropped:
        /// a truncation keeps exactly the whole records before the cut, a
        /// flip in any head or in any record but the last is refused, and
        /// a flip in the last record's payload or trailer drops that record.
        #[test]
        fn journal_damage_drops_only_a_torn_tail(
            n_chunks in 1usize..4,
            stage in any::<bool>(),
            at in any::<u64>(),
            fill in any::<u64>(),
        ) {
            let dir = tmp_dir("journal-damage");
            let (journal, records) = journal_of(n_chunks, stage, fill);
            let payloads: Vec<Vec<u8>> = records.iter().map(|r| r.2.clone()).collect();
            prop_assert_eq!(open_damaged(&dir, &journal).unwrap(), payloads.clone());

            let (last_at, _, _) = records[records.len() - 1];
            for mutation in 0..3 {
                let at = at.rotate_left(21 * mutation);
                let bit = at % (journal.len() as u64 * 8);
                let cut = at % journal.len() as u64;
                let mut damaged = journal.clone();
                match mutation {
                    0 => damaged[bit as usize / 8] ^= 1 << (bit % 8),
                    1 => damaged.truncate(cut as usize),
                    _ => damaged.extend(bytes_of(fill, 1 + (at % 120) as usize, 7)),
                }
                let got = open_damaged(&dir, &damaged);
                prop_assert!(!matches!(got, Err(CheckpointError::Io { .. })), "{:?}", got);
                match (mutation, got) {
                    (0, got) if bit / 8 < last_at + HEAD as u64 => {
                        prop_assert!(got.is_err(), "flip at byte {} accepted", bit / 8);
                    }
                    (0, got) => prop_assert_eq!(got.unwrap(), payloads[..payloads.len() - 1].to_vec()),
                    (1, got) => {
                        let whole = records.iter().filter(|r| r.0 + r.1 <= cut).count();
                        prop_assert_eq!(got.unwrap(), payloads[..whole].to_vec());
                    }
                    (_, Ok(kept)) => prop_assert_eq!(kept, payloads.clone()),
                    (_, Err(_)) => {}
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }

        /// A committed record — one with a record after it — is never
        /// dropped as a torn tail: one bit flipped anywhere in it, or in
        /// the header or the last record's head, is refused with the error
        /// its place types. A flipped version byte is `VersionMismatch`,
        /// any other head byte `Corrupt` (the head check fails), a payload
        /// or trailer byte `ChecksumMismatch` when the chunk is loaded.
        /// The directory is left byte-identical.
        #[test]
        fn committed_chunk_damage_is_always_refused(
            n_chunks in 2usize..5,
            stage in any::<bool>(),
            at in any::<u64>(),
            fill in any::<u64>(),
        ) {
            let dir = tmp_dir("committed-damage");
            let (journal, records) = journal_of(n_chunks, stage, fill);
            // Every byte before the last record's payload.
            let span = records[records.len() - 1].0 + HEAD as u64;
            let bit = at % (span * 8);
            let byte = bit / 8;
            let mut damaged = journal.clone();
            damaged[byte as usize] ^= 1 << (bit % 8);
            let got = open_damaged(&dir, &damaged);
            let head_at = std::iter::once(0)
                .chain(records.iter().map(|r| r.0))
                .find(|&o| (o..o + HEAD as u64).contains(&byte));
            match head_at {
                Some(o) if (4..8).contains(&(byte - o)) => prop_assert!(
                    matches!(got, Err(CheckpointError::VersionMismatch { .. })),
                    "version flip at byte {}: {:?}", byte, got
                ),
                Some(_) => prop_assert!(
                    matches!(got, Err(CheckpointError::Corrupt { .. })),
                    "head flip at byte {}: {:?}", byte, got
                ),
                None => prop_assert!(
                    matches!(got, Err(CheckpointError::ChecksumMismatch { .. })),
                    "payload or trailer flip at byte {}: {:?}", byte, got
                ),
            }
            let _ = fs::remove_dir_all(&dir);
        }

        /// The record heads are the journal's manifest: `open` lists the
        /// journal from them alone. A head damaged past its check — one
        /// field (kind, length, a key word, or the version) replaced by
        /// any value and the head check re-sealed — in the header or any
        /// record opens and loads to genuine payloads, in order (a record
        /// may drop out, as a torn tail or as a chunk retyped into another
        /// stage), or to a typed, non-`Io` error: never a panic, never bytes
        /// that were not written, and the directory is left byte-identical.
        /// A plain bit flip in any head is refused.
        #[test]
        fn damaged_manifests_open_or_refuse_typed(
            n_chunks in 1usize..4,
            stage in any::<bool>(),
            which in any::<usize>(),
            field in 0usize..6,
            value in any::<u64>(),
            bit in 0usize..HEAD * 8,
            fill in any::<u64>(),
        ) {
            let dir = tmp_dir("damaged-heads");
            let (journal, records) = journal_of(n_chunks, stage, fill);
            let payloads: Vec<Vec<u8>> = records.iter().map(|r| r.2.clone()).collect();
            let heads: Vec<usize> =
                std::iter::once(0).chain(records.iter().map(|r| r.0 as usize)).collect();
            let o = heads[which % heads.len()];

            let mut flipped = journal.clone();
            flipped[o + bit / 8] ^= 1 << (bit % 8);
            let got = open_damaged(&dir, &flipped);
            prop_assert!(
                matches!(got, Err(CheckpointError::Corrupt { .. } | CheckpointError::VersionMismatch { .. })),
                "head flip at byte {}: {:?}", o + bit / 8, got
            );

            let mut resealed = journal.clone();
            let head = &mut resealed[o..o + HEAD];
            match field {
                0 => head[8] = value as u8,
                1 => head[9..17].copy_from_slice(&value.to_le_bytes()),
                2..=4 => {
                    let w = 17 + 8 * (field - 2);
                    head[w..w + 8].copy_from_slice(&value.to_le_bytes());
                }
                _ => head[4..8].copy_from_slice(&(value as u32).to_le_bytes()),
            }
            let check = checksum64(&head[..HEAD - 8]);
            head[HEAD - 8..].copy_from_slice(&check.to_le_bytes());
            let got = open_damaged(&dir, &resealed);
            match got {
                Ok(kept) => prop_assert!(
                    is_subsequence(&kept, &payloads),
                    "kept {} records that are not among the {} written", kept.len(), payloads.len()
                ),
                Err(e) => prop_assert!(!matches!(e, CheckpointError::Io { .. }), "{:?}", e),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
