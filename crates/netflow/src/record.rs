//! Flow records and the NetFlow v5 wire codec.
//!
//! NetFlow v5 is the lowest common denominator the paper's ISPs export
//! (RFC-less but rigidly specified by Cisco): a 24-byte header followed by
//! up to 30 fixed 48-byte records, all fields big-endian. v5 carries IPv4
//! only; the simulator's rare IPv6 flows are exported by the ISPs as
//! pre-decoded records (the paper's collectors received both).

use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use xborder_netsim::time::SimTime;

/// Maximum records per v5 packet (fixed by the format).
pub const V5_MAX_RECORDS: usize = 30;
/// Header size in bytes.
pub const V5_HEADER_LEN: usize = 24;
/// Record size in bytes.
pub const V5_RECORD_LEN: usize = 48;

/// Transport protocol numbers we emit.
pub mod proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP (QUIC rides on this).
    pub const UDP: u8 = 17;
}

/// One unidirectional IPv4 flow as seen by an edge router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// Type-of-service byte.
    pub tos: u8,
    /// Sampled packet count.
    pub packets: u32,
    /// Sampled byte count.
    pub bytes: u32,
    /// Flow start (export-relative sysuptime would be used on the wire; we
    /// carry simulation time and convert in the codec).
    pub start: SimTime,
    /// Flow end.
    pub end: SimTime,
    /// Input interface index (internal edge = subscriber-facing).
    pub input_if: u16,
    /// Output interface index.
    pub output_if: u16,
}

impl FlowRecord {
    /// True if either port is a web port (80/443) — the paper found
    /// >99.5 % of tracking flows there.
    pub fn is_web(&self) -> bool {
        matches!(self.src_port, 80 | 443) || matches!(self.dst_port, 80 | 443)
    }

    /// True if the flow is encrypted web traffic (either side on 443).
    pub fn is_encrypted_web(&self) -> bool {
        self.src_port == 443 || self.dst_port == 443
    }
}

/// A decoded NetFlow v5 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V5Packet {
    /// Sequence number of the first flow in this packet.
    pub flow_sequence: u32,
    /// Exporting device id (engine id on the wire).
    pub engine_id: u8,
    /// Sampling interval (packets): `N` means 1-in-N.
    pub sampling_interval: u16,
    /// The records.
    pub records: Vec<FlowRecord>,
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Packet shorter than its declared contents.
    Truncated,
    /// Version field was not 5.
    BadVersion(u16),
    /// Count field exceeds the v5 maximum.
    BadCount(u16),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated packet"),
            CodecError::BadVersion(v) => write!(f, "unsupported NetFlow version {v}"),
            CodecError::BadCount(c) => write!(f, "record count {c} exceeds v5 maximum"),
        }
    }
}

impl std::error::Error for CodecError {}

impl V5Packet {
    /// Encodes the packet to its wire representation.
    ///
    /// Panics if more than [`V5_MAX_RECORDS`] records are present (callers
    /// chunk flows into packets; see [`encode_flows`]).
    pub fn encode(&self) -> Bytes {
        assert!(self.records.len() <= V5_MAX_RECORDS, "too many records for one v5 packet");
        let mut buf = BytesMut::with_capacity(V5_HEADER_LEN + self.records.len() * V5_RECORD_LEN);
        // Header.
        buf.put_u16(5); // version
        buf.put_u16(self.records.len() as u16);
        let sys_uptime = 0u32;
        buf.put_u32(sys_uptime);
        // Unix seconds/nanos: we put the earliest record start (or 0).
        let unix = self.records.iter().map(|r| r.start.0).min().unwrap_or(0);
        buf.put_u32(unix as u32);
        buf.put_u32(0); // nanos
        buf.put_u32(self.flow_sequence);
        buf.put_u8(0); // engine type
        buf.put_u8(self.engine_id);
        // Sampling: top 2 bits mode (01 = packet interval), low 14 interval.
        buf.put_u16((0b01 << 14) | (self.sampling_interval & 0x3FFF));
        debug_assert_eq!(buf.len(), V5_HEADER_LEN);
        // Records.
        for r in &self.records {
            buf.put_u32(u32::from(r.src));
            buf.put_u32(u32::from(r.dst));
            buf.put_u32(0); // nexthop
            buf.put_u16(r.input_if);
            buf.put_u16(r.output_if);
            buf.put_u32(r.packets);
            buf.put_u32(r.bytes);
            buf.put_u32(r.start.0 as u32); // "first" (ms sysuptime in real v5)
            buf.put_u32(r.end.0 as u32); // "last"
            buf.put_u16(r.src_port);
            buf.put_u16(r.dst_port);
            buf.put_u8(0); // pad
            buf.put_u8(0); // tcp flags
            buf.put_u8(r.protocol);
            buf.put_u8(r.tos);
            buf.put_u16(0); // src AS
            buf.put_u16(0); // dst AS
            buf.put_u8(0); // src mask
            buf.put_u8(0); // dst mask
            buf.put_u16(0); // pad2
        }
        buf.freeze()
    }

    /// Decodes a packet from its wire representation.
    ///
    /// This is a convenience wrapper that materializes the borrowed
    /// [`V5View`]; collectors on the hot path should parse the view and
    /// iterate it directly to avoid the per-packet `Vec`.
    pub fn decode(buf: Bytes) -> Result<V5Packet, CodecError> {
        let view = V5View::parse(&buf)?;
        Ok(V5Packet {
            flow_sequence: view.flow_sequence,
            engine_id: view.engine_id,
            sampling_interval: view.sampling_interval,
            records: view.records().collect(),
        })
    }
}

/// A zero-allocation view over one v5 packet's wire bytes.
///
/// `parse` validates the header and the byte budget once; `records()`
/// then decodes each fixed 48-byte record straight off the borrowed slice
/// as it is consumed. Nothing is heap-allocated per packet.
#[derive(Debug, Clone, Copy)]
pub struct V5View<'a> {
    /// Sequence number of the first flow in this packet.
    pub flow_sequence: u32,
    /// Exporting device id.
    pub engine_id: u8,
    /// Sampling interval (packets): `N` means 1-in-N.
    pub sampling_interval: u16,
    /// The record region: exactly `count * V5_RECORD_LEN` bytes.
    body: &'a [u8],
}

#[inline]
fn be_u16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

#[inline]
fn be_u32(b: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

impl<'a> V5View<'a> {
    /// Validates the header and record budget of `wire`.
    pub fn parse(wire: &'a [u8]) -> Result<V5View<'a>, CodecError> {
        if wire.len() < V5_HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        let version = be_u16(wire, 0);
        if version != 5 {
            return Err(CodecError::BadVersion(version));
        }
        let count = be_u16(wire, 2);
        if count as usize > V5_MAX_RECORDS {
            return Err(CodecError::BadCount(count));
        }
        let body_len = count as usize * V5_RECORD_LEN;
        if wire.len() < V5_HEADER_LEN + body_len {
            return Err(CodecError::Truncated);
        }
        Ok(V5View {
            flow_sequence: be_u32(wire, 16),
            engine_id: wire[21],
            sampling_interval: be_u16(wire, 22) & 0x3FFF,
            body: &wire[V5_HEADER_LEN..V5_HEADER_LEN + body_len],
        })
    }

    /// Number of records in the packet.
    pub fn len(&self) -> usize {
        self.body.len() / V5_RECORD_LEN
    }

    /// True when the packet carries no records.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Decodes record `i` (panics if out of range).
    pub fn record(&self, i: usize) -> FlowRecord {
        let r = &self.body[i * V5_RECORD_LEN..(i + 1) * V5_RECORD_LEN];
        FlowRecord {
            src: Ipv4Addr::from(be_u32(r, 0)),
            dst: Ipv4Addr::from(be_u32(r, 4)),
            input_if: be_u16(r, 12),
            output_if: be_u16(r, 14),
            packets: be_u32(r, 16),
            bytes: be_u32(r, 20),
            start: SimTime(be_u32(r, 24) as u64),
            end: SimTime(be_u32(r, 28) as u64),
            src_port: be_u16(r, 32),
            dst_port: be_u16(r, 34),
            protocol: r[38],
            tos: r[39],
        }
    }

    /// Iterates the packet's records, decoding lazily off the slice.
    pub fn records(&self) -> impl Iterator<Item = FlowRecord> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.record(i))
    }
}

/// Chunks an arbitrary flow list into valid v5 packets.
pub fn encode_flows(flows: &[FlowRecord], engine_id: u8, sampling_interval: u16) -> Vec<Bytes> {
    let mut packets = Vec::with_capacity(flows.len().div_ceil(V5_MAX_RECORDS));
    let mut seq = 0u32;
    for chunk in flows.chunks(V5_MAX_RECORDS) {
        let pkt = V5Packet {
            flow_sequence: seq,
            engine_id,
            sampling_interval,
            records: chunk.to_vec(),
        };
        seq = seq.wrapping_add(chunk.len() as u32);
        packets.push(pkt.encode());
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_record(i: u32) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::from(0x0A00_0000 + i),
            dst: Ipv4Addr::from(0x0100_0000 + i),
            src_port: 50_000 + (i % 1000) as u16,
            dst_port: if i % 5 == 0 { 80 } else { 443 },
            protocol: if i % 7 == 0 { proto::UDP } else { proto::TCP },
            tos: 0,
            packets: 10 + i,
            bytes: 1000 + i,
            start: SimTime(1000 + i as u64),
            end: SimTime(1010 + i as u64),
            input_if: 1,
            output_if: 2,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pkt = V5Packet {
            flow_sequence: 99,
            engine_id: 7,
            sampling_interval: 1000,
            records: (0..V5_MAX_RECORDS as u32).map(sample_record).collect(),
        };
        let wire = pkt.encode();
        assert_eq!(wire.len(), V5_HEADER_LEN + 30 * V5_RECORD_LEN);
        let back = V5Packet::decode(wire).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn decode_rejects_bad_version() {
        let pkt = V5Packet {
            flow_sequence: 0,
            engine_id: 0,
            sampling_interval: 0,
            records: vec![sample_record(1)],
        };
        let mut raw = BytesMut::from(&pkt.encode()[..]);
        raw[0] = 0;
        raw[1] = 9; // version 9
        assert_eq!(
            V5Packet::decode(raw.freeze()),
            Err(CodecError::BadVersion(9))
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let pkt = V5Packet {
            flow_sequence: 0,
            engine_id: 0,
            sampling_interval: 64,
            records: vec![sample_record(1), sample_record(2)],
        };
        let wire = pkt.encode();
        let truncated = wire.slice(0..wire.len() - 10);
        assert_eq!(V5Packet::decode(truncated), Err(CodecError::Truncated));
        assert_eq!(
            V5Packet::decode(wire.slice(0..10)),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_overlong_count() {
        let pkt = V5Packet {
            flow_sequence: 0,
            engine_id: 0,
            sampling_interval: 0,
            records: vec![sample_record(1)],
        };
        let mut raw = BytesMut::from(&pkt.encode()[..]);
        raw[2] = 0;
        raw[3] = 31; // count = 31 > 30
        assert_eq!(V5Packet::decode(raw.freeze()), Err(CodecError::BadCount(31)));
    }

    #[test]
    fn encode_flows_chunks_correctly() {
        let flows: Vec<FlowRecord> = (0..95).map(sample_record).collect();
        let packets = encode_flows(&flows, 3, 1000);
        assert_eq!(packets.len(), 4); // 30+30+30+5
        let mut total = 0;
        let mut expected_seq = 0u32;
        for p in packets {
            let decoded = V5Packet::decode(p).unwrap();
            assert_eq!(decoded.flow_sequence, expected_seq);
            expected_seq += decoded.records.len() as u32;
            assert_eq!(decoded.sampling_interval, 1000);
            total += decoded.records.len();
        }
        assert_eq!(total, 95);
    }

    #[test]
    fn view_matches_owned_decode() {
        let pkt = V5Packet {
            flow_sequence: 41,
            engine_id: 9,
            sampling_interval: 500,
            records: (0..17).map(sample_record).collect(),
        };
        let wire = pkt.encode();
        let view = V5View::parse(&wire).unwrap();
        assert_eq!(view.len(), 17);
        assert_eq!(view.flow_sequence, 41);
        assert_eq!(view.engine_id, 9);
        assert_eq!(view.sampling_interval, 500);
        let lazy: Vec<FlowRecord> = view.records().collect();
        assert_eq!(lazy, pkt.records);
        // Trailing garbage after the declared records is tolerated, same
        // as the owned decoder (UDP datagrams can be padded).
        let mut padded = wire.to_vec();
        padded.extend_from_slice(&[0xAA; 7]);
        assert_eq!(V5View::parse(&padded).unwrap().len(), 17);
        // Header-only truncation still fails.
        assert!(matches!(
            V5View::parse(&wire[..V5_HEADER_LEN + 3]),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn web_port_predicates() {
        let mut r = sample_record(0);
        r.dst_port = 443;
        assert!(r.is_web() && r.is_encrypted_web());
        r.dst_port = 80;
        assert!(r.is_web() && !r.is_encrypted_web());
        r.dst_port = 53;
        r.src_port = 53;
        assert!(!r.is_web());
    }

    proptest! {
        #[test]
        fn mutated_packets_decode_or_fail_typed(
            n in 0usize..=V5_MAX_RECORDS,
            seed in any::<u32>(),
            mutation in 0u8..4,
            at in any::<usize>(),
            value in any::<u16>(),
        ) {
            // Damage a valid packet one way: a bit flip anywhere, a
            // truncation, an inflated record count, or a version other
            // than 5. Both decoders must return `Ok` or the same typed
            // `CodecError` (a panic fails the case), and what they accept
            // must fit the bytes given: no header count is trusted past
            // the body that backs it, so none can size an allocation.
            let pkt = V5Packet {
                flow_sequence: seed,
                engine_id: 3,
                sampling_interval: 100,
                records: (0..n as u32).map(|i| sample_record(i + seed % 1000)).collect(),
            };
            let wire = pkt.encode();
            let mut bytes = wire.to_vec();
            match mutation {
                0 => bytes[at % wire.len()] ^= 1 << (at % 8),
                1 => bytes.truncate(at % wire.len()),
                2 => bytes[2..4].copy_from_slice(&value.max(n as u16 + 1).to_be_bytes()),
                _ => {
                    let version = if value == 5 { 9 } else { value };
                    bytes[0..2].copy_from_slice(&version.to_be_bytes());
                }
            }
            let view = V5View::parse(&bytes);
            let owned = V5Packet::decode(Bytes::from(bytes.clone()));
            match (&view, &owned) {
                (Ok(v), Ok(p)) => {
                    prop_assert!(v.len() <= V5_MAX_RECORDS);
                    prop_assert!(V5_HEADER_LEN + v.len() * V5_RECORD_LEN <= bytes.len());
                    prop_assert_eq!(&v.records().collect::<Vec<_>>(), &p.records);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => panic!("the decoders disagree: {view:?} vs {owned:?}"),
            }
            // Truncation, an inflated count and a bad version always fail.
            prop_assert!(mutation == 0 || owned.is_err(), "mutation {mutation} accepted");
            prop_assert_eq!(V5Packet::decode(wire).unwrap(), pkt);
        }

        #[test]
        fn roundtrip_any_record(src in any::<u32>(), dst in any::<u32>(),
                                sp in any::<u16>(), dp in any::<u16>(),
                                protocol in any::<u8>(), packets in any::<u32>(),
                                bytes in any::<u32>()) {
            let r = FlowRecord {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                src_port: sp,
                dst_port: dp,
                protocol,
                tos: 0,
                packets,
                bytes,
                start: SimTime(0),
                end: SimTime(1),
                input_if: 0,
                output_if: 0,
            };
            let pkt = V5Packet { flow_sequence: 1, engine_id: 1, sampling_interval: 100, records: vec![r] };
            let back = V5Packet::decode(pkt.encode()).unwrap();
            prop_assert_eq!(back.records[0], r);
        }
    }
}
