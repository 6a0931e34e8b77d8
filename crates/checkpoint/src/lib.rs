//! Crash-safe checkpointing for the streaming ingestion pipeline.
//!
//! The paper's extension study ran for 4.5 months; a standing pipeline at
//! that horizon must survive kills and torn writes without corrupting
//! results. This crate supplies the durable half of that contract: one
//! append-only journal per directory of versioned, checksummed state
//! records, each committed by one write and one `fdatasync`, plus
//! fallible byte codecs for the payloads. It stores *bytes*,
//! deliberately knowing nothing about domains, users or tracker IPs —
//! the typed blob encodings live next to their domain types in the core
//! `stream` module, keeping the dependency graph acyclic.
//!
//! Module map:
//! - [`error`] — the [`CheckpointError`] taxonomy; loading never panics.
//! - [`codec`] — [`ByteWriter`] / [`ByteReader`] little-endian payload
//!   codecs with typed decode failures.
//! - [`store`] — the [`CheckpointStore`]: record format, the journal's
//!   append and recovery rules, and the labelled kill sites the fault
//!   harness uses to simulate crashes mid-write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod store;

pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use error::CheckpointError;
pub use store::{
    CheckpointStore, ChunkEntry, CHECKPOINT_VERSION, JOURNAL, KIND_CHUNK, KIND_STAGE, MAGIC,
};
