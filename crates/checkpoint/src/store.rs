//! The durable checkpoint store: versioned, checksummed blobs committed by
//! an atomically-renamed manifest.
//!
//! ## Layout
//!
//! ```text
//! <dir>/manifest.json        commit point: JSON index of everything durable
//! <dir>/chunk-00000.xbc      framed chunk blobs, one per ingested chunk
//! <dir>/stage-<name>.xbc     framed stage blobs (e.g. the completion stage)
//! <dir>/*.tmp                in-flight writes; ignored and overwritten
//! ```
//!
//! ## Write protocol
//!
//! The rename of `manifest.json` is the single commit point: a crash
//! anywhere leaves either the old manifest (any newer blob is unreferenced
//! garbage, safely overwritten on re-execution) or the new manifest (the
//! blob it references is durable and validated). Two write paths hang off
//! that invariant:
//!
//! - **Fresh blobs** (chunk appends) are written *directly at their final
//!   name* — create, write, one fsync. No tmp/rename is needed because a
//!   chunk file is never referenced by any manifest until the commit that
//!   follows it in the same call, so a torn or partial file at the final
//!   name is unreferenced garbage. This halves the fsyncs per chunk
//!   commit relative to the former tmp→sync→rename-everything protocol.
//! - **Replacing writes** (the manifest itself; stage blobs, which may
//!   replace an already-committed file of the same name) keep the full
//!   *write tmp → sync → rename* dance, since an in-place overwrite could
//!   tear a file the current manifest references.
//!
//! After the manifest rename, the parent directory is fsynced: POSIX only
//! makes the rename durable once the directory entry itself is on disk,
//! and the same dir fsync also covers the freshly created chunk file's
//! directory entry (both live in the checkpoint dir).
//!
//! ## Checksums
//!
//! A frame's trailer is [`checksum64`] (XXH64) of its header and payload,
//! and the manifest entry records that same value, read back from the
//! frame rather than recomputed: each write hashes the blob once, and
//! each load hashes it once.
//!
//! ## Validation order
//!
//! On load, a blob's length is checked against the manifest *before* its
//! checksum, so a torn file reports [`CheckpointError::Truncated`] and a
//! same-length corruption reports [`CheckpointError::ChecksumMismatch`].
//! The one checksum pass covers the header too, so a flip in the magic or
//! version bytes is a mismatch against the manifest, and a flip in the
//! trailer is a mismatch between the trailer and that same pass. The
//! loader never writes: a refused checkpoint directory is left
//! byte-identical for post-mortem.
//!
//! ## Kill points
//!
//! Each write threads a [`KillSwitch`] through labelled sites: direct blob
//! writes get `:pre`, `:mid` (torn file), `:durable`; replacing writes get
//! those plus `:post` (after the rename); and every manifest commit gets a
//! fifth site, `:dirsync`, after the directory fsync that makes the rename
//! durable. The kill-site sweep in `tests/streaming_resume.rs` pins that
//! resume recovers from every one.

use crate::error::{io_err, CheckpointError};
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use xborder_faults::{checksum64, KillSwitch};

/// Format version written into every frame and the manifest. Bump on any
/// incompatible layout change; old checkpoints are refused, not migrated.
/// (v3: chunk blobs carry columnar segment blocks, DESIGN.md §5j; v4: the
/// frame trailer and manifest checksum are XXH64, not FNV-1a; v5: classifier
/// deltas carry URLs in split form with one state byte, DESIGN.md §5g.)
pub const CHECKPOINT_VERSION: u32 = 5;

/// Magic prefix of every framed blob file.
pub const MAGIC: [u8; 4] = *b"XBCP";

/// Blob kind tag: a per-chunk ingestion state blob.
pub const KIND_CHUNK: u8 = 1;
/// Blob kind tag: a named stage-boundary state blob.
pub const KIND_STAGE: u8 = 2;

/// Frame header length: magic + version + kind + payload length.
const FRAME_HEADER: usize = 4 + 4 + 1 + 8;
/// Minimum frame length: header plus trailing checksum.
const FRAME_MIN: usize = FRAME_HEADER + 8;

/// Manifest row describing one durable chunk blob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkEntry {
    /// Zero-based chunk index; entries are contiguous from 0.
    pub index: u64,
    /// First user id (inclusive) covered by the chunk.
    pub user_start: u64,
    /// One past the last user id covered by the chunk.
    pub user_end: u64,
    /// File name relative to the checkpoint directory.
    pub file: String,
    /// Exact on-disk length of the framed blob.
    pub bytes: u64,
    /// The frame's trailer: [`checksum64`] of its header and payload.
    pub checksum: u64,
}

/// Manifest row describing one durable stage blob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageEntry {
    /// Stage name (e.g. `"completion"`); unique within the manifest.
    pub name: String,
    /// File name relative to the checkpoint directory.
    pub file: String,
    /// Exact on-disk length of the framed blob.
    pub bytes: u64,
    /// The frame's trailer: [`checksum64`] of its header and payload.
    pub checksum: u64,
}

/// The JSON commit record: what is durable, for which configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version ([`CHECKPOINT_VERSION`] when written by this crate).
    pub version: u32,
    /// Fingerprint of the run configuration (world config + fault plan
    /// with performance knobs canonicalised). Resume refuses a mismatch.
    pub fingerprint: u64,
    /// Durable chunks, in index order.
    pub chunks: Vec<ChunkEntry>,
    /// Durable stage blobs.
    pub stages: Vec<StageEntry>,
}

/// Frames `payload` as a versioned, checksummed blob file image. The
/// trailer — the last eight bytes — is the checksum the manifest records.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(FRAME_MIN + payload.len());
    v.extend_from_slice(&MAGIC);
    v.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    v.push(kind);
    v.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v.extend_from_slice(payload);
    let sum = checksum64(&v);
    v.extend_from_slice(&sum.to_le_bytes());
    v
}

/// The trailing checksum of a frame image: its last eight bytes.
fn frame_trailer(frame: &[u8]) -> u64 {
    let mut sum8 = [0u8; 8];
    sum8.copy_from_slice(&frame[frame.len() - 8..]);
    u64::from_le_bytes(sum8)
}

/// [`checksum64`] of everything before the trailer, the one hash pass a
/// load makes. Images too short to hold a trailer hash as empty; the
/// frame checks then refuse them as truncated.
fn body_checksum(bytes: &[u8]) -> u64 {
    checksum64(&bytes[..bytes.len().saturating_sub(8)])
}

/// Validates a framed blob image and returns its payload slice.
///
/// Check order is part of the error contract: overall length first
/// (truncation), then magic, version, kind and payload length
/// (structure), then the trailing checksum (bit rot).
pub fn decode_frame<'a>(
    path: &Path,
    bytes: &'a [u8],
    expect_kind: u8,
) -> Result<&'a [u8], CheckpointError> {
    check_frame(path, bytes, expect_kind, body_checksum(bytes))
}

/// [`decode_frame`] with the body checksum already computed, so a load
/// that has hashed the image against the manifest does not hash it again.
fn check_frame<'a>(
    path: &Path,
    bytes: &'a [u8],
    expect_kind: u8,
    actual: u64,
) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() < FRAME_MIN {
        return Err(CheckpointError::Truncated {
            path: path.to_path_buf(),
            needed: FRAME_MIN as u64,
            have: bytes.len() as u64,
        });
    }
    if bytes[..4] != MAGIC {
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: "bad magic (not an XBCP blob)".into(),
        });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let kind = bytes[8];
    if kind != expect_kind {
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("blob kind {kind}, expected {expect_kind}"),
        });
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[9..17]);
    let payload_len = u64::from_le_bytes(len8);
    let expected_total = (FRAME_MIN as u64).saturating_add(payload_len);
    if expected_total != bytes.len() as u64 {
        if expected_total > bytes.len() as u64 {
            return Err(CheckpointError::Truncated {
                path: path.to_path_buf(),
                needed: expected_total,
                have: bytes.len() as u64,
            });
        }
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: format!(
                "payload length {payload_len} shorter than file ({} bytes)",
                bytes.len()
            ),
        });
    }
    let expected = frame_trailer(bytes);
    if expected != actual {
        return Err(CheckpointError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    Ok(&bytes[FRAME_HEADER..bytes.len() - 8])
}

/// A checkpoint directory opened for reading and appending.
///
/// The store moves bytes, not domain types: callers encode their state
/// with [`crate::ByteWriter`] and hand the payload here; the store frames,
/// checksums, writes atomically, and commits via the manifest.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl CheckpointStore {
    /// Opens (or creates) the checkpoint directory for the run identified
    /// by `fingerprint`.
    ///
    /// An existing manifest is validated — JSON schema, format version,
    /// fingerprint, chunk contiguity — *before* anything is written, so a
    /// refused directory is left untouched. A directory with no manifest
    /// is treated as empty (any `.tmp` or unreferenced blob debris from a
    /// crash is simply overwritten as ingestion re-executes).
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        let manifest_path = dir.join("manifest.json");
        let manifest = match fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let m: Manifest = serde_json::from_str(&text).map_err(|e| {
                    CheckpointError::ManifestInvalid { detail: e.to_string() }
                })?;
                if m.version != CHECKPOINT_VERSION {
                    return Err(CheckpointError::VersionMismatch {
                        found: m.version,
                        expected: CHECKPOINT_VERSION,
                    });
                }
                if m.fingerprint != fingerprint {
                    return Err(CheckpointError::SeedMismatch {
                        found: m.fingerprint,
                        expected: fingerprint,
                    });
                }
                for (i, c) in m.chunks.iter().enumerate() {
                    if c.index != i as u64 {
                        return Err(CheckpointError::ManifestInvalid {
                            detail: format!(
                                "chunk entries not contiguous: position {i} holds index {}",
                                c.index
                            ),
                        });
                    }
                }
                m
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest {
                version: CHECKPOINT_VERSION,
                fingerprint,
                chunks: Vec::new(),
                stages: Vec::new(),
            },
            Err(e) => return Err(io_err(&manifest_path, e)),
        };
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(Self { dir, manifest })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durable chunks, in index order.
    pub fn chunks(&self) -> &[ChunkEntry] {
        &self.manifest.chunks
    }

    /// The manifest entry of a durable stage blob, if present.
    pub fn stage(&self, name: &str) -> Option<&StageEntry> {
        self.manifest.stages.iter().find(|s| s.name == name)
    }

    /// Loads and validates one durable chunk blob, returning its payload.
    pub fn load_chunk(&self, entry: &ChunkEntry) -> Result<Vec<u8>, CheckpointError> {
        self.load_blob(&entry.file, entry.bytes, entry.checksum, KIND_CHUNK)
    }

    /// Loads and validates a durable stage blob by name, `None` if the
    /// manifest does not reference one.
    pub fn load_stage(&self, name: &str) -> Result<Option<Vec<u8>>, CheckpointError> {
        match self.stage(name) {
            None => Ok(None),
            Some(e) => {
                Ok(Some(self.load_blob(&e.file, e.bytes, e.checksum, KIND_STAGE)?))
            }
        }
    }

    fn load_blob(
        &self,
        file: &str,
        bytes: u64,
        checksum: u64,
        kind: u8,
    ) -> Result<Vec<u8>, CheckpointError> {
        let path = self.dir.join(file);
        let mut raw = fs::read(&path).map_err(|e| io_err(&path, e))?;
        // Length before checksum: a torn write is truncation, not bit rot.
        if (raw.len() as u64) != bytes {
            if (raw.len() as u64) < bytes {
                return Err(CheckpointError::Truncated {
                    path,
                    needed: bytes,
                    have: raw.len() as u64,
                });
            }
            return Err(CheckpointError::Corrupt {
                path,
                detail: format!(
                    "file longer than manifest records: {} vs {bytes} bytes",
                    raw.len()
                ),
            });
        }
        // One hash pass: the manifest records the frame's trailer, so the
        // same body checksum is checked against both.
        let actual = body_checksum(&raw);
        if actual != checksum {
            return Err(CheckpointError::ChecksumMismatch {
                path,
                expected: checksum,
                actual,
            });
        }
        let payload_len = check_frame(&path, &raw, kind, actual)?.len();
        // Shift the payload to the front in place: no second buffer.
        raw.truncate(FRAME_HEADER + payload_len);
        raw.drain(..FRAME_HEADER);
        Ok(raw)
    }

    /// Appends a chunk blob and commits it to the manifest. `index` must
    /// be the next chunk index (`chunks().len()`).
    pub fn append_chunk(
        &mut self,
        index: u64,
        user_start: u64,
        user_end: u64,
        payload: &[u8],
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        if index != self.manifest.chunks.len() as u64 {
            return Err(CheckpointError::ManifestInvalid {
                detail: format!(
                    "append_chunk index {index} out of order (next is {})",
                    self.manifest.chunks.len()
                ),
            });
        }
        let file = format!("chunk-{index:05}.xbc");
        let frame = encode_frame(KIND_CHUNK, payload);
        let checksum = frame_trailer(&frame);
        // Chunk files are append-only and unreferenced until the manifest
        // commit below, so the direct-write path is safe (module docs).
        self.write_direct(&file, &frame, &format!("chunk-{index}:blob"), kill)?;
        self.manifest.chunks.push(ChunkEntry {
            index,
            user_start,
            user_end,
            file,
            bytes: frame.len() as u64,
            checksum,
        });
        self.write_manifest(&format!("chunk-{index}:manifest"), kill)
    }

    /// Writes (or replaces) a named stage blob and commits it.
    pub fn put_stage(
        &mut self,
        name: &str,
        payload: &[u8],
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        let file = format!("stage-{name}.xbc");
        let frame = encode_frame(KIND_STAGE, payload);
        let checksum = frame_trailer(&frame);
        self.write_atomic(&file, &frame, &format!("stage-{name}:blob"), kill)?;
        let entry = StageEntry {
            name: name.to_string(),
            file,
            bytes: frame.len() as u64,
            checksum,
        };
        match self.manifest.stages.iter_mut().find(|s| s.name == name) {
            Some(slot) => *slot = entry,
            None => self.manifest.stages.push(entry),
        }
        self.write_manifest(&format!("stage-{name}:manifest"), kill)
    }

    fn write_manifest(&self, label: &str, kill: &KillSwitch) -> Result<(), CheckpointError> {
        let json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| CheckpointError::ManifestInvalid { detail: e.to_string() })?;
        self.write_atomic("manifest.json", json.as_bytes(), label, kill)?;
        // The rename only becomes durable once the directory entry is on
        // disk; the same fsync covers the dir entries of any blob files
        // created earlier in this commit (they live in the same dir).
        let d = File::open(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        d.sync_all().map_err(|e| io_err(&self.dir, e))?;
        self.killable(kill, &format!("{label}:dirsync"))
    }

    /// Writes `bytes` into `f`, split in half around a `:mid` kill site so
    /// the fault harness can leave a genuinely torn file behind, then
    /// syncs. A sync error is propagated on both exits — the killed return
    /// simulates a crash, not permission to lose a real I/O failure.
    fn write_torn_syncable(
        &self,
        f: &mut File,
        path: &Path,
        bytes: &[u8],
        label: &str,
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        let half = bytes.len() / 2;
        f.write_all(&bytes[..half]).map_err(|e| io_err(path, e))?;
        if kill.fire(&format!("{label}:mid")) {
            f.sync_all().map_err(|e| io_err(path, e))?;
            return Err(self.killed(kill, &format!("{label}:mid")));
        }
        f.write_all(&bytes[half..]).map_err(|e| io_err(path, e))?;
        f.sync_all().map_err(|e| io_err(path, e))
    }

    /// Direct write of a fresh, never-yet-referenced blob at its final
    /// name: three kill sites, one fsync, no tmp/rename (module docs
    /// explain why this is crash-safe for manifest-gated files).
    fn write_direct(
        &self,
        rel: &str,
        bytes: &[u8],
        label: &str,
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        let path = self.dir.join(rel);
        self.killable(kill, &format!("{label}:pre"))?;
        let mut f = File::create(&path).map_err(|e| io_err(&path, e))?;
        self.write_torn_syncable(&mut f, &path, bytes, label, kill)?;
        drop(f);
        self.killable(kill, &format!("{label}:durable"))
    }

    /// The tmp → sync → rename protocol, with the four kill sites. Used
    /// for writes that may replace a manifest-referenced file.
    fn write_atomic(
        &self,
        rel: &str,
        bytes: &[u8],
        label: &str,
        kill: &KillSwitch,
    ) -> Result<(), CheckpointError> {
        let final_path = self.dir.join(rel);
        let tmp_path = self.dir.join(format!("{rel}.tmp"));
        self.killable(kill, &format!("{label}:pre"))?;
        {
            let mut f = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
            self.write_torn_syncable(&mut f, &tmp_path, bytes, label, kill)?;
        }
        self.killable(kill, &format!("{label}:durable"))?;
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
        self.killable(kill, &format!("{label}:post"))?;
        Ok(())
    }

    fn killable(&self, kill: &KillSwitch, label: &str) -> Result<(), CheckpointError> {
        if kill.fire(label) {
            return Err(self.killed(kill, label));
        }
        Ok(())
    }

    fn killed(&self, kill: &KillSwitch, label: &str) -> CheckpointError {
        let site = kill.fired().map(|(s, _)| s).unwrap_or_default();
        CheckpointError::Killed { site, label: label.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xbcp-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello checkpoint";
        let frame = encode_frame(KIND_CHUNK, payload);
        let out = decode_frame(Path::new("x"), &frame, KIND_CHUNK).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn frame_corruptions_are_typed() {
        let frame = encode_frame(KIND_CHUNK, b"payload bytes here");
        let p = Path::new("x");

        // Truncation → Truncated.
        let torn = &frame[..frame.len() - 5];
        assert!(matches!(
            decode_frame(p, torn, KIND_CHUNK),
            Err(CheckpointError::Truncated { .. })
        ));

        // Bit flip in payload → ChecksumMismatch.
        let mut flipped = frame.clone();
        flipped[FRAME_HEADER + 2] ^= 0x40;
        assert!(matches!(
            decode_frame(p, &flipped, KIND_CHUNK),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        // Wrong magic → Corrupt.
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'Y';
        assert!(matches!(
            decode_frame(p, &bad_magic, KIND_CHUNK),
            Err(CheckpointError::Corrupt { .. })
        ));

        // Wrong version → VersionMismatch.
        let mut bad_version = frame.clone();
        bad_version[4] = 99;
        assert!(matches!(
            decode_frame(p, &bad_version, KIND_CHUNK),
            Err(CheckpointError::VersionMismatch { found: 99, .. })
        ));

        // Wrong kind → Corrupt.
        assert!(matches!(
            decode_frame(p, &frame, KIND_STAGE),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn v4_directory_is_refused() {
        // A directory written by the previous format: its manifest and
        // frames say version 4. Opening it is a typed refusal that leaves
        // every file as it was.
        let dir = tmp_dir("v4");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 7).unwrap();
        store.append_chunk(0, 0, 3, b"old chunk", &kill).unwrap();
        drop(store);
        let manifest = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest).unwrap();
        let needle = format!("\"version\": {CHECKPOINT_VERSION}");
        assert!(text.contains(&needle), "manifest carries its version: {text}");
        fs::write(&manifest, text.replace(&needle, "\"version\": 4")).unwrap();
        let chunk = dir.join("chunk-00000.xbc");
        let mut frame = fs::read(&chunk).unwrap();
        frame[4..8].copy_from_slice(&4u32.to_le_bytes());
        fs::write(&chunk, &frame).unwrap();
        let before = (fs::read(&manifest).unwrap(), fs::read(&chunk).unwrap());
        assert!(matches!(
            CheckpointStore::open(&dir, 7),
            Err(CheckpointError::VersionMismatch { found: 4, expected: 5 })
        ));
        assert!(matches!(
            decode_frame(&chunk, &frame, KIND_CHUNK),
            Err(CheckpointError::VersionMismatch { found: 4, expected: 5 })
        ));
        assert_eq!(before, (fs::read(&manifest).unwrap(), fs::read(&chunk).unwrap()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_append_reopen_load() {
        let dir = tmp_dir("roundtrip");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 42).unwrap();
        store.append_chunk(0, 0, 5, b"first", &kill).unwrap();
        store.append_chunk(1, 5, 10, b"second", &kill).unwrap();
        store.put_stage("completion", b"stage-bytes", &kill).unwrap();

        let store2 = CheckpointStore::open(&dir, 42).unwrap();
        assert_eq!(store2.chunks().len(), 2);
        assert_eq!(store2.load_chunk(&store2.chunks()[0]).unwrap(), b"first");
        assert_eq!(store2.load_chunk(&store2.chunks()[1]).unwrap(), b"second");
        assert_eq!(
            store2.load_stage("completion").unwrap().as_deref(),
            Some(&b"stage-bytes"[..])
        );
        assert!(store2.load_stage("absent").unwrap().is_none());
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
            Err(CheckpointError::SeedMismatch { found: 7, expected: 8 })
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
            Err(CheckpointError::ManifestInvalid { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_at_every_write_site_leaves_resumable_state() {
        // Sweep every kill site of a two-chunk append sequence; after each
        // simulated crash, a fresh open must succeed and see only fully
        // committed chunks, and re-execution must converge to the same
        // final state.
        let probe = KillSwitch::none();
        {
            let dir = tmp_dir("sites-probe");
            let mut store = CheckpointStore::open(&dir, 9).unwrap();
            store.append_chunk(0, 0, 5, b"alpha", &probe).unwrap();
            store.append_chunk(1, 5, 9, b"beta", &probe).unwrap();
            let _ = fs::remove_dir_all(&dir);
        }
        let n_sites = probe.sites_visited();
        // Per append: 3 direct-blob sites + 4 manifest write_atomic sites
        // + 1 dirsync = 8; two appends = 16.
        assert!(n_sites >= 16, "expected 8 sites x 2 appends, saw {n_sites}");

        for site in 0..n_sites {
            let dir = tmp_dir(&format!("sites-{site}"));
            let kill = KillSwitch::at_site(site);
            let mut store = CheckpointStore::open(&dir, 9).unwrap();
            let r0 = store.append_chunk(0, 0, 5, b"alpha", &kill);
            let killed = r0.is_err()
                || store.append_chunk(1, 5, 9, b"beta", &kill).is_err();
            assert!(killed, "site {site} never fired");

            // Crash simulated: reopen and finish the job.
            let mut resumed = CheckpointStore::open(&dir, 9).unwrap();
            let none = KillSwitch::none();
            let have = resumed.chunks().len() as u64;
            for (i, payload) in [&b"alpha"[..], &b"beta"[..]].iter().enumerate() {
                if (i as u64) >= have {
                    resumed
                        .append_chunk(i as u64, 0, 0, payload, &none)
                        .unwrap();
                }
            }
            let check = CheckpointStore::open(&dir, 9).unwrap();
            assert_eq!(check.chunks().len(), 2, "site {site}");
            assert_eq!(check.load_chunk(&check.chunks()[0]).unwrap(), b"alpha");
            assert_eq!(check.load_chunk(&check.chunks()[1]).unwrap(), b"beta");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn dirsync_kill_lands_after_the_commit_point() {
        // The :dirsync site sits after the manifest rename, so a kill
        // there must leave the chunk committed — resume sees it and does
        // not re-execute.
        let dir = tmp_dir("dirsync");
        let kill = KillSwitch::at_label("chunk-0:manifest:dirsync");
        let mut store = CheckpointStore::open(&dir, 5).unwrap();
        let err = store.append_chunk(0, 0, 5, b"alpha", &kill).unwrap_err();
        assert!(matches!(err, CheckpointError::Killed { .. }));
        let resumed = CheckpointStore::open(&dir, 5).unwrap();
        assert_eq!(resumed.chunks().len(), 1);
        assert_eq!(resumed.load_chunk(&resumed.chunks()[0]).unwrap(), b"alpha");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_kill_before_commit_leaves_chunk_uncommitted() {
        // Direct-write path: a kill at the blob's :durable site leaves a
        // complete file at the final name but no manifest reference — the
        // chunk must not be visible, and re-execution overwrites the
        // orphan cleanly.
        let dir = tmp_dir("direct-orphan");
        let kill = KillSwitch::at_label("chunk-0:blob:durable");
        let mut store = CheckpointStore::open(&dir, 6).unwrap();
        assert!(store.append_chunk(0, 0, 5, b"alpha", &kill).is_err());
        assert!(dir.join("chunk-00000.xbc").exists(), "orphan blob at final name");

        let mut resumed = CheckpointStore::open(&dir, 6).unwrap();
        assert_eq!(resumed.chunks().len(), 0, "uncommitted blob must be invisible");
        resumed.append_chunk(0, 0, 5, b"alpha", &KillSwitch::none()).unwrap();
        let check = CheckpointStore::open(&dir, 6).unwrap();
        assert_eq!(check.load_chunk(&check.chunks()[0]).unwrap(), b"alpha");
        let _ = fs::remove_dir_all(&dir);
    }

    fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn manifest_checksum_is_the_frame_trailer() {
        let dir = tmp_dir("trailer");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 4).unwrap();
        store.append_chunk(0, 0, 5, b"alpha", &kill).unwrap();
        store.put_stage("completion", b"stage-bytes", &kill).unwrap();
        let (chunk, stage) = (&store.chunks()[0], store.stage("completion").unwrap());
        for (file, checksum) in [(&chunk.file, chunk.checksum), (&stage.file, stage.checksum)] {
            let frame = fs::read(dir.join(file)).unwrap();
            assert_eq!(checksum, frame_trailer(&frame), "{file}");
            assert_eq!(checksum, checksum64(&frame[..frame.len() - 8]), "{file}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every single-bit flip anywhere in a committed chunk file — magic,
        /// header, payload or trailer — is a checksum mismatch, and every
        /// truncation is `Truncated`; the loader never returns the payload
        /// and never touches the directory.
        #[test]
        fn committed_chunk_damage_is_always_refused(
            len in 0usize..160,
            fill in any::<u64>(),
            flip in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let payload: Vec<u8> =
                (0..len as u64).map(|i| (fill.rotate_left(i as u32) ^ i) as u8).collect();
            let dir = tmp_dir("damage");
            let mut store = CheckpointStore::open(&dir, 2).unwrap();
            store.append_chunk(0, 0, 1, &payload, &KillSwitch::none()).unwrap();
            let entry = store.chunks()[0].clone();
            let path = dir.join(&entry.file);
            let frame = fs::read(&path).unwrap();
            prop_assert_eq!(store.load_chunk(&entry).unwrap(), payload);

            let bit = (flip % (frame.len() as u64 * 8)) as usize;
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &flipped).unwrap();
            let before = snapshot(&dir);
            let got = CheckpointStore::open(&dir, 2).unwrap().load_chunk(&entry);
            prop_assert!(
                matches!(got, Err(CheckpointError::ChecksumMismatch { .. })),
                "bit {} of {}: {:?}", bit, frame.len() * 8, got
            );
            prop_assert_eq!(&snapshot(&dir), &before);

            let keep = (cut % frame.len() as u64) as usize;
            fs::write(&path, &frame[..keep]).unwrap();
            let before = snapshot(&dir);
            let got = CheckpointStore::open(&dir, 2).unwrap().load_chunk(&entry);
            prop_assert!(
                matches!(got, Err(CheckpointError::Truncated { .. })),
                "cut at {} of {}: {:?}", keep, frame.len(), got
            );
            prop_assert_eq!(&snapshot(&dir), &before);
            let _ = fs::remove_dir_all(&dir);
        }

        /// A damaged `manifest.json` — one bit flipped, a truncation, or
        /// one field's value replaced by another number, a negative, a
        /// float, a string or `null` — opens to `Ok` or a typed
        /// [`CheckpointError`], never a panic, and opening writes nothing:
        /// a refused directory stays byte-identical.
        #[test]
        fn damaged_manifests_open_or_refuse_typed(
            n_chunks in 0u64..4,
            mutation in 0u8..3,
            at in any::<u64>(),
            value in any::<u64>(),
        ) {
            // A valid manifest as the store writes it; `open` reads no blob.
            let dir = tmp_dir("manifest-damage");
            fs::create_dir_all(&dir).unwrap();
            let manifest = Manifest {
                version: CHECKPOINT_VERSION,
                fingerprint: 5,
                chunks: (0..n_chunks)
                    .map(|i| ChunkEntry {
                        index: i,
                        user_start: 2 * i,
                        user_end: 2 * i + 2,
                        file: format!("chunk-{i:05}.xbc"),
                        bytes: 34,
                        checksum: value.rotate_left(i as u32),
                    })
                    .collect(),
                stages: vec![StageEntry {
                    name: "completion".into(),
                    file: "stage-completion.xbc".into(),
                    bytes: 29,
                    checksum: at,
                }],
            };
            let path = dir.join("manifest.json");
            let mut bytes = serde_json::to_string_pretty(&manifest).unwrap().into_bytes();
            fs::write(&path, &bytes).unwrap();
            prop_assert_eq!(CheckpointStore::open(&dir, 5).unwrap().chunks(), &manifest.chunks[..]);
            match mutation {
                0 => {
                    let bit = (at % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                1 => bytes.truncate((at % bytes.len() as u64) as usize),
                _ => {
                    use serde_json::Value;
                    fn leaves(v: &mut Value) -> Vec<&mut Value> {
                        match v {
                            Value::Object(o) => o.iter_mut().flat_map(|(_, v)| leaves(v)).collect(),
                            Value::Array(a) => a.iter_mut().flat_map(leaves).collect(),
                            leaf => vec![leaf],
                        }
                    }
                    let text = String::from_utf8(bytes).unwrap();
                    let mut tree: Value = serde_json::from_str(&text).unwrap();
                    let mut fields = leaves(&mut tree);
                    let n_fields = fields.len() as u64;
                    *fields[(at % n_fields) as usize] = match value % 5 {
                        0 => Value::U64(value),
                        1 => Value::I64(-1 - (value % 7) as i64),
                        2 => Value::F64(0.5),
                        3 => Value::Str(format!("x{value}")),
                        _ => Value::Null,
                    };
                    bytes = serde_json::to_string_pretty(&tree).unwrap().into_bytes();
                }
            }
            fs::write(&path, &bytes).unwrap();
            let before = snapshot(&dir);
            let opened: Result<CheckpointStore, CheckpointError> = CheckpointStore::open(&dir, 5);
            if let Ok(store) = &opened {
                let chunks = store.chunks().iter().enumerate();
                prop_assert!(
                    chunks.clone().all(|(i, c)| c.index == i as u64),
                    "accepted a non-contiguous manifest: {:?}",
                    chunks.collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(&snapshot(&dir), &before, "open wrote to the dir: {:?}", opened.err());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn stage_blob_is_replaced_not_duplicated() {
        let dir = tmp_dir("stage-replace");
        let kill = KillSwitch::none();
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.put_stage("completion", b"v1", &kill).unwrap();
        store.put_stage("completion", b"v2", &kill).unwrap();
        let store2 = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store2.load_stage("completion").unwrap().as_deref(), Some(&b"v2"[..]));
        let _ = fs::remove_dir_all(&dir);
    }
}
