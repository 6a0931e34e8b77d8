//! NetFlow substrate for the paper's ISP scale-up study (Sect. 7).
//!
//! Four European ISPs exported 24-hour NetFlow snapshots at their internal
//! network edges; the paper joined the sampled flows against its tracker IP
//! list to measure border-crossing at 60M-subscriber scale. This crate
//! provides everything that pipeline needs:
//!
//! * [`record`] — flow records with a faithful NetFlow v5 binary codec
//!   (24-byte header + 48-byte records, big-endian on the wire).
//! * [`v9`] — the template-based NetFlow v9 codec (RFC 3954, the format
//!   the paper cites), with per-source template state.
//! * [`isp`] — the four ISP profiles of Table 7 (subscriber counts, access
//!   mix, resolver mix, sampling).
//! * [`generate`] — the per-snapshot traffic generator: subscriber page
//!   views rendered through the shared web-graph/DNS machinery, plus
//!   non-web background flows, emitted as columnar flow blocks.
//! * [`collector`] — ingestion with the paper's ethics constraints applied
//!   (subscriber IPs replaced by the ISP's country code), the hash-set
//!   tracker-IP oracle matcher, and the scaled interval-set matcher.
//! * [`block`] — columnar [`FlowBlock`]s plus the line-rate synthetic
//!   generator and the sharded deterministic join (DESIGN.md §5i).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod collector;
pub mod generate;
pub mod isp;
pub mod record;
pub mod v9;

pub use block::{
    generate_and_match_sharded, generate_only_sharded, FlowBlock, SyntheticConfig,
    SyntheticFlowGen, DEFAULT_BLOCK_LEN,
};
pub use collector::{
    AnonymizedFlow, BlockMatchStats, FlowCollector, MatchStats, TrackerIntervalSet,
};
pub use generate::{generate_snapshot_blocks, SnapshotBlocksOutput, SnapshotConfig};
pub use isp::{AccessKind, IspProfile};
pub use record::{FlowRecord, V5Packet, V5View};
pub use v9::{Template, V9Decoder};
