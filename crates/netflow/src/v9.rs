//! NetFlow v9 (RFC 3954) — the template-based export format the paper
//! cites for its ISP datasets.
//!
//! Unlike v5's fixed record, v9 is self-describing: the exporter sends
//! *template FlowSets* declaring field layouts, then *data FlowSets*
//! referencing a template id. A collector must hold templates per
//! (exporter, template id) and can only decode data it has a template
//! for — including the order-of-arrival hazard (data before template),
//! which this implementation surfaces explicitly.
//!
//! The field set used here is the subset the study needs (addresses,
//! ports, protocol, counters, timestamps); unknown fields in foreign
//! templates are skipped by length, as the RFC requires.

use crate::record::FlowRecord;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use xborder_netsim::time::SimTime;

/// RFC 3954 field type numbers (the subset we emit).
pub mod field {
    /// IN_BYTES.
    pub const IN_BYTES: u16 = 1;
    /// IN_PKTS.
    pub const IN_PKTS: u16 = 2;
    /// PROTOCOL.
    pub const PROTOCOL: u16 = 4;
    /// TOS.
    pub const SRC_TOS: u16 = 5;
    /// L4_SRC_PORT.
    pub const L4_SRC_PORT: u16 = 7;
    /// IPV4_SRC_ADDR.
    pub const IPV4_SRC_ADDR: u16 = 8;
    /// INPUT_SNMP.
    pub const INPUT_SNMP: u16 = 10;
    /// L4_DST_PORT.
    pub const L4_DST_PORT: u16 = 11;
    /// IPV4_DST_ADDR.
    pub const IPV4_DST_ADDR: u16 = 12;
    /// OUTPUT_SNMP.
    pub const OUTPUT_SNMP: u16 = 14;
    /// LAST_SWITCHED.
    pub const LAST_SWITCHED: u16 = 21;
    /// FIRST_SWITCHED.
    pub const FIRST_SWITCHED: u16 = 22;
}

/// One field specifier in a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// RFC 3954 field type.
    pub field_type: u16,
    /// Field length in bytes.
    pub length: u16,
}

/// A v9 template: an id plus its field layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    /// Template id (>= 256 per the RFC; 0–255 are reserved for FlowSet
    /// headers).
    pub id: u16,
    /// Ordered field specifiers.
    pub fields: Vec<FieldSpec>,
}

impl Template {
    /// The standard template this exporter uses for the study's flows.
    pub fn standard(id: u16) -> Template {
        assert!(id >= 256, "template ids below 256 are reserved");
        let f = |field_type, length| FieldSpec { field_type, length };
        Template {
            id,
            fields: vec![
                f(field::IPV4_SRC_ADDR, 4),
                f(field::IPV4_DST_ADDR, 4),
                f(field::L4_SRC_PORT, 2),
                f(field::L4_DST_PORT, 2),
                f(field::PROTOCOL, 1),
                f(field::SRC_TOS, 1),
                f(field::IN_PKTS, 4),
                f(field::IN_BYTES, 4),
                f(field::FIRST_SWITCHED, 4),
                f(field::LAST_SWITCHED, 4),
                f(field::INPUT_SNMP, 2),
                f(field::OUTPUT_SNMP, 2),
            ],
        }
    }

    /// Bytes per record under this template.
    pub fn record_len(&self) -> usize {
        self.fields.iter().map(|f| f.length as usize).sum()
    }
}

/// Decode-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum V9Error {
    /// Packet shorter than its declared contents.
    Truncated,
    /// Version field was not 9.
    BadVersion(u16),
    /// A data FlowSet referenced a template the collector hasn't seen.
    UnknownTemplate(u16),
    /// A template used an id below 256.
    ReservedTemplateId(u16),
}

impl std::fmt::Display for V9Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V9Error::Truncated => write!(f, "truncated v9 packet"),
            V9Error::BadVersion(v) => write!(f, "unsupported NetFlow version {v}"),
            V9Error::UnknownTemplate(id) => write!(f, "data flowset for unknown template {id}"),
            V9Error::ReservedTemplateId(id) => write!(f, "template id {id} is reserved"),
        }
    }
}

impl std::error::Error for V9Error {}

/// Encodes a v9 packet carrying the template declaration followed by data
/// records (the common "template + data in one export packet" layout).
pub fn encode_v9(
    template: &Template,
    flows: &[FlowRecord],
    sequence: u32,
    source_id: u32,
) -> Bytes {
    let mut buf = BytesMut::new();
    // Header: version, count (flowsets' record count incl. templates),
    // sysuptime, unix secs, sequence, source id.
    buf.put_u16(9);
    buf.put_u16(1 + flows.len() as u16);
    buf.put_u32(0);
    buf.put_u32(flows.iter().map(|f| f.start.0).min().unwrap_or(0) as u32);
    buf.put_u32(sequence);
    buf.put_u32(source_id);

    // Template FlowSet (id 0).
    let tmpl_len = 4 + 4 + template.fields.len() * 4;
    buf.put_u16(0);
    buf.put_u16(tmpl_len as u16);
    buf.put_u16(template.id);
    buf.put_u16(template.fields.len() as u16);
    for f in &template.fields {
        buf.put_u16(f.field_type);
        buf.put_u16(f.length);
    }

    // Data FlowSet.
    let record_len = template.record_len();
    let raw_len = 4 + flows.len() * record_len;
    let padding = (4 - raw_len % 4) % 4;
    buf.put_u16(template.id);
    buf.put_u16((raw_len + padding) as u16);
    for flow in flows {
        for f in &template.fields {
            match (f.field_type, f.length) {
                (field::IPV4_SRC_ADDR, 4) => buf.put_u32(u32::from(flow.src)),
                (field::IPV4_DST_ADDR, 4) => buf.put_u32(u32::from(flow.dst)),
                (field::L4_SRC_PORT, 2) => buf.put_u16(flow.src_port),
                (field::L4_DST_PORT, 2) => buf.put_u16(flow.dst_port),
                (field::PROTOCOL, 1) => buf.put_u8(flow.protocol),
                (field::SRC_TOS, 1) => buf.put_u8(flow.tos),
                (field::IN_PKTS, 4) => buf.put_u32(flow.packets),
                (field::IN_BYTES, 4) => buf.put_u32(flow.bytes),
                (field::FIRST_SWITCHED, 4) => buf.put_u32(flow.start.0 as u32),
                (field::LAST_SWITCHED, 4) => buf.put_u32(flow.end.0 as u32),
                (field::INPUT_SNMP, 2) => buf.put_u16(flow.input_if),
                (field::OUTPUT_SNMP, 2) => buf.put_u16(flow.output_if),
                (_, len) => {
                    for _ in 0..len {
                        buf.put_u8(0);
                    }
                }
            }
        }
    }
    for _ in 0..padding {
        buf.put_u8(0);
    }
    buf.freeze()
}

/// A stateful v9 decoder holding templates per source id.
#[derive(Debug, Default)]
pub struct V9Decoder {
    templates: HashMap<(u32, u16), Template>,
}

impl V9Decoder {
    /// An empty decoder (no templates learned yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of learned templates.
    pub fn n_templates(&self) -> usize {
        self.templates.len()
    }

    /// Decodes one packet, learning templates and returning the flows of
    /// every data FlowSet a template is known for.
    pub fn decode(&mut self, mut buf: Bytes) -> Result<Vec<FlowRecord>, V9Error> {
        if buf.len() < 20 {
            return Err(V9Error::Truncated);
        }
        let version = buf.get_u16();
        if version != 9 {
            return Err(V9Error::BadVersion(version));
        }
        let _count = buf.get_u16();
        let _sysuptime = buf.get_u32();
        let _unix = buf.get_u32();
        let _sequence = buf.get_u32();
        let source_id = buf.get_u32();

        let mut flows = Vec::new();
        while buf.len() >= 4 {
            let flowset_id = buf.get_u16();
            let length = buf.get_u16() as usize;
            if length < 4 || buf.len() < length - 4 {
                return Err(V9Error::Truncated);
            }
            let mut body = buf.split_to(length - 4);
            if flowset_id == 0 {
                // Template FlowSet: may carry several templates.
                while body.len() >= 4 {
                    let id = body.get_u16();
                    let n_fields = body.get_u16() as usize;
                    if id < 256 {
                        return Err(V9Error::ReservedTemplateId(id));
                    }
                    if body.len() < n_fields * 4 {
                        return Err(V9Error::Truncated);
                    }
                    let mut fields = Vec::with_capacity(n_fields);
                    for _ in 0..n_fields {
                        fields.push(FieldSpec {
                            field_type: body.get_u16(),
                            length: body.get_u16(),
                        });
                    }
                    self.templates.insert((source_id, id), Template { id, fields });
                }
            } else if flowset_id >= 256 {
                let template = self
                    .templates
                    .get(&(source_id, flowset_id))
                    .ok_or(V9Error::UnknownTemplate(flowset_id))?
                    .clone();
                let record_len = template.record_len();
                if record_len == 0 {
                    continue;
                }
                while body.len() >= record_len {
                    let mut rec = FlowRecord {
                        src: Ipv4Addr::UNSPECIFIED,
                        dst: Ipv4Addr::UNSPECIFIED,
                        src_port: 0,
                        dst_port: 0,
                        protocol: 0,
                        tos: 0,
                        packets: 0,
                        bytes: 0,
                        start: SimTime(0),
                        end: SimTime(0),
                        input_if: 0,
                        output_if: 0,
                    };
                    for f in &template.fields {
                        match (f.field_type, f.length) {
                            (field::IPV4_SRC_ADDR, 4) => rec.src = Ipv4Addr::from(body.get_u32()),
                            (field::IPV4_DST_ADDR, 4) => rec.dst = Ipv4Addr::from(body.get_u32()),
                            (field::L4_SRC_PORT, 2) => rec.src_port = body.get_u16(),
                            (field::L4_DST_PORT, 2) => rec.dst_port = body.get_u16(),
                            (field::PROTOCOL, 1) => rec.protocol = body.get_u8(),
                            (field::SRC_TOS, 1) => rec.tos = body.get_u8(),
                            (field::IN_PKTS, 4) => rec.packets = body.get_u32(),
                            (field::IN_BYTES, 4) => rec.bytes = body.get_u32(),
                            (field::FIRST_SWITCHED, 4) => rec.start = SimTime(body.get_u32() as u64),
                            (field::LAST_SWITCHED, 4) => rec.end = SimTime(body.get_u32() as u64),
                            (field::INPUT_SNMP, 2) => rec.input_if = body.get_u16(),
                            (field::OUTPUT_SNMP, 2) => rec.output_if = body.get_u16(),
                            (_, len) => body.advance(len as usize),
                        }
                    }
                    flows.push(rec);
                }
                // Remaining bytes (< record_len) are padding.
            }
            // FlowSet ids 1–255 other than 0 (options templates etc.) are
            // skipped: body already consumed.
        }
        Ok(flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::proto;
    use proptest::prelude::*;

    fn sample(i: u32) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::from(0x0A00_0000 + i),
            dst: Ipv4Addr::from(0x0200_0000 + i),
            src_port: 40_000 + i as u16,
            dst_port: 443,
            protocol: proto::TCP,
            tos: 0,
            packets: i + 1,
            bytes: (i + 1) * 100,
            start: SimTime(1_000 + i as u64),
            end: SimTime(1_010 + i as u64),
            input_if: 1,
            output_if: 2,
        }
    }

    #[test]
    fn roundtrip_template_and_data() {
        let template = Template::standard(300);
        let flows: Vec<FlowRecord> = (0..17).map(sample).collect();
        let wire = encode_v9(&template, &flows, 7, 42);
        let mut dec = V9Decoder::new();
        let out = dec.decode(wire).unwrap();
        assert_eq!(out, flows);
        assert_eq!(dec.n_templates(), 1);
    }

    #[test]
    fn data_before_template_fails_then_succeeds() {
        let template = Template::standard(301);
        let flows: Vec<FlowRecord> = (0..3).map(sample).collect();
        let wire = encode_v9(&template, &flows, 1, 9);
        // Strip the template flowset out of the packet: header (20) +
        // template flowset; data starts after it.
        let tmpl_len = 4 + 4 + template.fields.len() * 4;
        let mut data_only = BytesMut::new();
        data_only.extend_from_slice(&wire[..20]);
        data_only.extend_from_slice(&wire[20 + tmpl_len..]);
        let mut dec = V9Decoder::new();
        assert_eq!(
            dec.decode(data_only.freeze()),
            Err(V9Error::UnknownTemplate(301))
        );
        // After seeing the full packet once, template is cached...
        dec.decode(wire.clone()).unwrap();
        // ...and a later data-only packet decodes.
        let mut data_only = BytesMut::new();
        data_only.extend_from_slice(&wire[..20]);
        data_only.extend_from_slice(&wire[20 + tmpl_len..]);
        let out = dec.decode(data_only.freeze()).unwrap();
        assert_eq!(out, flows);
    }

    #[test]
    fn templates_are_scoped_per_source_id() {
        let template = Template::standard(302);
        let flows: Vec<FlowRecord> = (0..2).map(sample).collect();
        let mut dec = V9Decoder::new();
        dec.decode(encode_v9(&template, &flows, 1, 1)).unwrap();
        // Same template id from a different source id is unknown.
        let wire = encode_v9(&template, &flows, 1, 2);
        let tmpl_len = 4 + 4 + template.fields.len() * 4;
        let mut data_only = BytesMut::new();
        data_only.extend_from_slice(&wire[..20]);
        data_only.extend_from_slice(&wire[20 + tmpl_len..]);
        assert_eq!(
            dec.decode(data_only.freeze()),
            Err(V9Error::UnknownTemplate(302))
        );
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        let template = Template::standard(303);
        let wire = encode_v9(&template, &[sample(1)], 1, 1);
        let mut bad = BytesMut::from(&wire[..]);
        bad[0] = 0;
        bad[1] = 5;
        let mut dec = V9Decoder::new();
        assert_eq!(dec.decode(bad.freeze()), Err(V9Error::BadVersion(5)));
        assert_eq!(dec.decode(wire.slice(0..10)), Err(V9Error::Truncated));
    }

    #[test]
    fn reserved_template_id_rejected() {
        // Hand-craft a template flowset declaring id 200 (< 256).
        let mut buf = BytesMut::new();
        buf.put_u16(9);
        buf.put_u16(1);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(1);
        buf.put_u16(0); // template flowset
        buf.put_u16(4 + 4 + 4);
        buf.put_u16(200);
        buf.put_u16(1);
        buf.put_u16(field::PROTOCOL);
        buf.put_u16(1);
        let mut dec = V9Decoder::new();
        assert_eq!(dec.decode(buf.freeze()), Err(V9Error::ReservedTemplateId(200)));
    }

    #[test]
    fn unknown_fields_are_skipped_by_length() {
        // A foreign template with an exotic field; our decoder must skip
        // it and still recover the known columns.
        let template = Template {
            id: 310,
            fields: vec![
                FieldSpec { field_type: 999, length: 6 },
                FieldSpec { field_type: field::IPV4_SRC_ADDR, length: 4 },
                FieldSpec { field_type: field::L4_DST_PORT, length: 2 },
            ],
        };
        let flows = vec![sample(5)];
        let wire = encode_v9(&template, &flows, 1, 1);
        let mut dec = V9Decoder::new();
        let out = dec.decode(wire).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, flows[0].src);
        assert_eq!(out[0].dst_port, flows[0].dst_port);
        // Unset columns default to zero.
        assert_eq!(out[0].packets, 0);
    }

    /// A valid template + data packet over a random field subset (with
    /// unknown fields interleaved), plus the byte offsets of its template
    /// `n_fields` and its data FlowSet `length`.
    fn random_packet(case_seed: u64) -> (Bytes, usize, usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let rng = &mut StdRng::seed_from_u64(case_seed);
        let mut fields: Vec<FieldSpec> = Template::standard(256)
            .fields
            .into_iter()
            .filter(|_| rng.gen_bool(0.7))
            .collect();
        if rng.gen_bool(0.3) {
            fields.push(FieldSpec {
                field_type: rng.gen_range(500..1000),
                length: rng.gen_range(1..9),
            });
        }
        let template = Template { id: rng.gen_range(256..1000), fields };
        let flows: Vec<FlowRecord> = (0..rng.gen_range(1..20u32)).map(sample).collect();
        let wire = encode_v9(&template, &flows, 1, 9);
        let n_fields_at = 20 + 6;
        let data_len_at = 20 + 8 + template.fields.len() * 4 + 2;
        (wire, n_fields_at, data_len_at)
    }

    proptest! {
        #[test]
        fn mutated_packets_decode_or_fail_typed(
            case_seed in any::<u64>(),
            mutation in 0u8..4,
            at in any::<usize>(),
            value in any::<u16>(),
        ) {
            // Damage a valid packet one way: a bit flip anywhere, a
            // truncation, an inflated data FlowSet `length`, or an
            // inflated template `n_fields`. Decoding must return `Ok` or a
            // typed `V9Error` (a panic fails the case), on a fresh decoder
            // and on one that already holds the packet's template; and the
            // decoder must still decode the undamaged packet afterwards.
            let (wire, n_fields_at, data_len_at) = random_packet(case_seed);
            let mut bytes = wire.to_vec();
            match mutation {
                0 => bytes[at % wire.len()] ^= 1 << (at % 8),
                1 => bytes.truncate(at % wire.len()),
                2 => bytes[data_len_at..data_len_at + 2].copy_from_slice(&value.to_be_bytes()),
                _ => bytes[n_fields_at..n_fields_at + 2].copy_from_slice(&value.to_be_bytes()),
            }
            let damaged = Bytes::from(bytes);
            let want = V9Decoder::new().decode(wire.clone()).unwrap();

            let mut fresh = V9Decoder::new();
            let _typed: Result<Vec<FlowRecord>, V9Error> = fresh.decode(damaged.clone());
            prop_assert_eq!(&fresh.decode(wire.clone()).unwrap(), &want);

            let mut warm = V9Decoder::new();
            warm.decode(wire.clone()).unwrap();
            let _typed: Result<Vec<FlowRecord>, V9Error> = warm.decode(damaged);
            prop_assert_eq!(&warm.decode(wire).unwrap(), &want);
        }

        #[test]
        fn roundtrip_any_flows(n in 1usize..40, seed in any::<u32>()) {
            let template = Template::standard(320);
            let flows: Vec<FlowRecord> = (0..n as u32).map(|i| sample(i.wrapping_add(seed % 1000))).collect();
            let wire = encode_v9(&template, &flows, 0, 3);
            let mut dec = V9Decoder::new();
            let out = dec.decode(wire).unwrap();
            prop_assert_eq!(out, flows);
        }

        #[test]
        fn roundtrip_random_templates(case_seed in any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            // Random field subsets in random order, with unknown fields of
            // random length interleaved: the decoder must recover exactly
            // the declared known columns and skip the rest by length.
            let rng = &mut StdRng::seed_from_u64(case_seed);
            let standard = Template::standard(256).fields;
            let mut known: Vec<FieldSpec> = standard
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.6))
                .collect();
            if known.is_empty() {
                known.push(standard[rng.gen_range(0..standard.len())]);
            }
            // Fisher-Yates permutation of the kept fields.
            for i in (1..known.len()).rev() {
                known.swap(i, rng.gen_range(0..=i));
            }
            let mut fields = Vec::new();
            for f in known {
                if rng.gen_bool(0.3) {
                    fields.push(FieldSpec {
                        field_type: rng.gen_range(500..1000),
                        length: rng.gen_range(1..9),
                    });
                }
                fields.push(f);
            }
            let template = Template { id: rng.gen_range(256..1000), fields };

            let n = rng.gen_range(1..25u32);
            let flows: Vec<FlowRecord> = (0..n).map(sample).collect();
            let wire = encode_v9(&template, &flows, 0, 7);
            let mut dec = V9Decoder::new();
            let out = dec.decode(wire).unwrap();
            prop_assert_eq!(out.len(), flows.len());

            // Expected: only the template's known columns survive; the
            // rest stay at the decoder's defaults.
            let default = FlowRecord {
                src: Ipv4Addr::UNSPECIFIED,
                dst: Ipv4Addr::UNSPECIFIED,
                src_port: 0,
                dst_port: 0,
                protocol: 0,
                tos: 0,
                packets: 0,
                bytes: 0,
                start: SimTime(0),
                end: SimTime(0),
                input_if: 0,
                output_if: 0,
            };
            for (got, orig) in out.iter().zip(&flows) {
                let mut want = default;
                for f in &template.fields {
                    match (f.field_type, f.length) {
                        (field::IPV4_SRC_ADDR, 4) => want.src = orig.src,
                        (field::IPV4_DST_ADDR, 4) => want.dst = orig.dst,
                        (field::L4_SRC_PORT, 2) => want.src_port = orig.src_port,
                        (field::L4_DST_PORT, 2) => want.dst_port = orig.dst_port,
                        (field::PROTOCOL, 1) => want.protocol = orig.protocol,
                        (field::SRC_TOS, 1) => want.tos = orig.tos,
                        (field::IN_PKTS, 4) => want.packets = orig.packets,
                        (field::IN_BYTES, 4) => want.bytes = orig.bytes,
                        (field::FIRST_SWITCHED, 4) => want.start = orig.start,
                        (field::LAST_SWITCHED, 4) => want.end = orig.end,
                        (field::INPUT_SNMP, 2) => want.input_if = orig.input_if,
                        (field::OUTPUT_SNMP, 2) => want.output_if = orig.output_if,
                        _ => {}
                    }
                }
                prop_assert_eq!(*got, want);
            }
        }
    }
}
