//! The typed failure taxonomy for checkpoint IO.
//!
//! Checkpoint loading must never panic on bad bytes (ISSUE 6): every way a
//! checkpoint directory can disappoint — missing files, torn writes,
//! bit rot, format drift, a checkpoint from a *different* configured world —
//! maps to a distinct variant so callers (and tests) can match on exactly
//! what went wrong. The corruption-matrix test pins the mapping.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong opening, reading or writing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed (open, read, write,
    /// truncate, sync). `detail` carries the OS error text.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// Human-readable description of the OS failure.
        detail: String,
    },
    /// The journal ended inside a committed record: it shrank after
    /// `open` measured it. (A torn tail at `open` is not an error: it is
    /// dropped, and the next append overwrites it.)
    Truncated {
        /// The truncated file.
        path: PathBuf,
        /// Bytes the record heads say should exist.
        needed: u64,
        /// Bytes actually on disk.
        have: u64,
    },
    /// A committed record's bytes do not hash to its trailer (bit rot, a
    /// partial overwrite of the right length, or tampering).
    ChecksumMismatch {
        /// The journal and the record's label (`journal.xbj#1`).
        path: PathBuf,
        /// The checksum the record's trailer holds.
        expected: u64,
        /// The checksum of the bytes actually read.
        actual: u64,
    },
    /// Structurally invalid bytes: bad magic, a record head that fails its
    /// check, an unknown record kind, a chunk out of order, or a payload
    /// that does not decode.
    Corrupt {
        /// The unparseable file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// The checkpoint was written by a different format version; we refuse
    /// to guess at migrations.
    VersionMismatch {
        /// Version recorded in the checkpoint.
        found: u32,
        /// Version this binary writes.
        expected: u32,
    },
    /// The checkpoint belongs to a different world: its configuration
    /// fingerprint (seed, world shape, fault plan — everything that feeds
    /// the deterministic outputs) does not match the run trying to resume.
    SeedMismatch {
        /// Fingerprint recorded in the journal header.
        found: u64,
        /// Fingerprint of the resuming configuration.
        expected: u64,
    },
    /// A request or a checkpoint's contents violate the store's
    /// invariants: an append out of order, a record extent outside the
    /// journal, chunks that do not cover the run's users, a configuration
    /// that does not serialize.
    Invalid {
        /// What is wrong with it.
        detail: String,
    },
    /// Not a real failure: a seeded kill point fired (crash simulation).
    /// Carries where, so harnesses can report which site was exercised.
    Killed {
        /// Global kill-site counter value at which the switch fired.
        site: u64,
        /// The label of the site that fired.
        label: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint io error at {}: {detail}", path.display())
            }
            CheckpointError::Truncated { path, needed, have } => write!(
                f,
                "checkpoint file {} truncated: need {needed} bytes, have {have}",
                path.display()
            ),
            CheckpointError::ChecksumMismatch { path, expected, actual } => write!(
                f,
                "checkpoint file {} checksum mismatch: expected {expected:#018x}, got {actual:#018x}",
                path.display()
            ),
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "checkpoint file {} corrupt: {detail}", path.display())
            }
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} does not match supported version {expected}"
            ),
            CheckpointError::SeedMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a different configuration: \
                 fingerprint {found:#018x}, this run is {expected:#018x}"
            ),
            CheckpointError::Invalid { detail } => {
                write!(f, "checkpoint invalid: {detail}")
            }
            CheckpointError::Killed { site, label } => {
                write!(f, "kill point fired at site {site} ({label})")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Maps an `std::io::Error` on `path` into [`CheckpointError::Io`].
pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.to_path_buf(), detail: e.to_string() }
}
