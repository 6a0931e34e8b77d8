//! Columnar study-log segments (SoA layout for out-of-core worlds).
//!
//! This module is the study log's columnar twin, one [`SegmentBlock`] per
//! driver chunk, following the `FlowBlock` idiom: every `LoggedRequest`
//! field becomes a dense column keyed by row index. A row's URL is its
//! compact [`EncodedUrl`](xborder_webgraph::url::EncodedUrl) split into
//! three narrow columns (a shape byte, an index byte and the identity's
//! service half) plus the rare cache-buster tokens in a side column, 6
//! bytes a row where the rendered string took about 60, and the rare IPv6
//! addresses sit in sorted side rows next to a packed IPv4 column. A block round-trips exactly to the
//! `StudyChunk` (plus per-row classification labels and fixpoint round
//! counts) it was built from, so storing blocks instead of AoS chunks is
//! invisible to every fingerprint.
//!
//! The streaming driver keeps its committed blocks resident until
//! finalization; the out-of-core driver builds one only as the payload of
//! a checkpoint chunk (DESIGN.md §5j). The byte encoding is the checkpoint
//! chunk-blob payload: it leads with exact column counts so decoding
//! pre-reserves every column and the downstream interners can size
//! themselves before ingesting the segment (no rehash spikes mid-chunk).

use crate::extension::{StudyChunk, Visit};
use crate::request::{LoggedRequest, Referrer, RequestId};
use crate::user::UserId;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::ops::Range;
use xborder_checkpoint::{ByteReader, ByteWriter, DecodeError};
use xborder_dns::PdnsIdObservation;
use xborder_faults::DegradationReport;
use xborder_netsim::time::SimTime;
use xborder_webgraph::url::{pack_url, unpack_url, URL_CB};
use xborder_webgraph::{DomainId, PublisherId};

/// Referrer column sentinel: no referrer.
const REF_NONE: u32 = u32::MAX;
/// Referrer column sentinel: the first-party page.
const REF_FIRST_PARTY: u32 = u32::MAX - 1;

/// Per-row classification label: easylist-confirmed tracking. The tag
/// values are part of the checkpoint format and must match the streaming
/// driver's label codec in `xborder::stream`.
pub const LABEL_ABP: u8 = 0;
/// Per-row label: semi-automatic (Sect. 4.2) tracking.
pub const LABEL_SEMI: u8 = 1;
/// Per-row label: clean.
pub const LABEL_CLEAN: u8 = 2;

/// One study segment in columnar (SoA) form: the visits, faulted
/// requests, pDNS observations, per-row labels, fixpoint round counts
/// and counter deltas of one contiguous user range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentBlock {
    /// First user id (inclusive) this segment covers.
    pub user_start: u32,
    /// Last user id (exclusive).
    pub user_end: u32,

    // Visit columns (generation order, user-major).
    v_user: Vec<u32>,
    v_publisher: Vec<u32>,
    v_time: Vec<u64>,

    // Request columns (generation order; referrers are segment-local).
    r_user: Vec<u32>,
    r_time: Vec<u64>,
    r_first_party: Vec<u32>,
    r_publisher: Vec<u32>,
    r_host: Vec<u32>,
    /// Segment-local parent row, or [`REF_NONE`] / [`REF_FIRST_PARTY`].
    r_referrer: Vec<u32>,
    /// Row `i`'s compact URL in [`pack_url`]'s form: the shape byte in
    /// `r_url_shape[i]`, the index byte in `r_url_index[i]` and the
    /// identity's service half in `r_service[i]`. Each row with [`URL_CB`]
    /// set takes the next cache buster of `r_cb`, in row order. Every row is a
    /// canonical `EncodedUrl` (checked when a block is decoded).
    r_url_shape: Vec<u8>,
    r_url_index: Vec<u8>,
    r_service: Vec<u32>,
    r_cb: Vec<[u8; 8]>,
    /// Packed IPv4 octets; rows with an IPv6 address hold 0 here and a
    /// side row below.
    r_ip4: Vec<u32>,
    /// `(row, octets)` for IPv6 rows, sorted by row.
    r_ip6: Vec<(u32, [u8; 16])>,

    // pDNS observation columns (user order).
    o_host: Vec<u32>,
    o_time: Vec<u64>,
    o_ip4: Vec<u32>,
    o_ip6: Vec<(u32, [u8; 16])>,

    /// Per-request classification labels ([`LABEL_ABP`] / [`LABEL_SEMI`] /
    /// [`LABEL_CLEAN`]); empty until the segment is classified.
    labels: Vec<u8>,
    /// Stage-2 fixpoint rounds the segment's classification ran.
    pub stage2_rounds: u32,
    /// Stage-3 fixpoint rounds.
    pub stage3_rounds: u32,
    /// The chunk report's commutative counters, in
    /// [`DegradationReport::counter_values`] order.
    counters: [u64; DegradationReport::N_COUNTERS],
}

fn pack_ip(ip: IpAddr, row: u32, ip4: &mut Vec<u32>, ip6: &mut Vec<(u32, [u8; 16])>) {
    match ip {
        IpAddr::V4(v4) => ip4.push(u32::from(v4)),
        IpAddr::V6(v6) => {
            ip4.push(0);
            ip6.push((row, v6.octets()));
        }
    }
}

fn unpack_ip(row: usize, ip4: &[u32], ip6: &[(u32, [u8; 16])]) -> IpAddr {
    match ip6.binary_search_by_key(&(row as u32), |&(r, _)| r) {
        Ok(pos) => IpAddr::V6(Ipv6Addr::from(ip6[pos].1)),
        Err(_) => IpAddr::V4(Ipv4Addr::from(ip4[row])),
    }
}

impl SegmentBlock {
    /// Builds a block from a simulated-and-classified chunk. `labels` are
    /// per-request tags (pass an empty slice for an unclassified chunk).
    ///
    /// # Panics
    /// If `labels` is non-empty but shorter than the request count, or a
    /// referrer row collides with the sentinel space (> 4 × 10⁹ rows).
    pub fn from_chunk(
        chunk: &StudyChunk,
        labels: &[u8],
        stage2_rounds: u32,
        stage3_rounds: u32,
        user_range: (u32, u32),
    ) -> SegmentBlock {
        assert!(
            labels.is_empty() || labels.len() == chunk.requests.len(),
            "labels/requests length mismatch"
        );
        let n_req = chunk.requests.len();
        let mut b = SegmentBlock {
            user_start: user_range.0,
            user_end: user_range.1,
            v_user: Vec::with_capacity(chunk.visits.len()),
            v_publisher: Vec::with_capacity(chunk.visits.len()),
            v_time: Vec::with_capacity(chunk.visits.len()),
            r_user: Vec::with_capacity(n_req),
            r_time: Vec::with_capacity(n_req),
            r_first_party: Vec::with_capacity(n_req),
            r_publisher: Vec::with_capacity(n_req),
            r_host: Vec::with_capacity(n_req),
            r_referrer: Vec::with_capacity(n_req),
            r_url_shape: Vec::with_capacity(n_req),
            r_url_index: Vec::with_capacity(n_req),
            r_service: Vec::with_capacity(n_req),
            r_cb: Vec::new(),
            r_ip4: Vec::with_capacity(n_req),
            r_ip6: Vec::new(),
            o_host: Vec::with_capacity(chunk.observations.len()),
            o_time: Vec::with_capacity(chunk.observations.len()),
            o_ip4: Vec::with_capacity(chunk.observations.len()),
            o_ip6: Vec::new(),
            labels: labels.to_vec(),
            stage2_rounds,
            stage3_rounds,
            counters: chunk.report.counter_values(),
        };
        for v in &chunk.visits {
            b.v_user.push(v.user.0);
            b.v_publisher.push(v.publisher.0);
            b.v_time.push(v.time.0);
        }
        for (row, r) in chunk.requests.iter().enumerate() {
            b.r_user.push(r.user.0);
            b.r_time.push(r.time.0);
            b.r_first_party.push(r.first_party.0);
            b.r_publisher.push(r.publisher.0);
            b.r_host.push(r.host.0);
            b.r_referrer.push(match r.referrer {
                Referrer::None => REF_NONE,
                Referrer::FirstParty => REF_FIRST_PARTY,
                Referrer::Request(RequestId(p)) => {
                    assert!(p < REF_FIRST_PARTY, "request row collides with sentinel");
                    p
                }
            });
            let url = r.url.parts();
            let (shape, index) = pack_url(&url);
            b.r_url_shape.push(shape);
            b.r_url_index.push(index);
            b.r_service.push(url.service);
            b.r_cb.extend(url.cb);
            pack_ip(r.ip, row as u32, &mut b.r_ip4, &mut b.r_ip6);
        }
        for (row, o) in chunk.observations.iter().enumerate() {
            b.o_host.push(o.host.0);
            b.o_time.push(o.time.0);
            pack_ip(o.ip, row as u32, &mut b.o_ip4, &mut b.o_ip6);
        }
        b
    }

    /// Reconstructs the AoS chunk plus `(labels, stage2, stage3)` this
    /// block was built from — the exact inverse of
    /// [`SegmentBlock::from_chunk`] (the report carries counters only;
    /// timings are run-level state and decode as zero, exactly like the
    /// checkpoint codec before segmentation).
    pub fn to_chunk(&self) -> (StudyChunk, Vec<u8>, u32, u32) {
        let mut visits = Vec::with_capacity(self.n_visits());
        for i in 0..self.n_visits() {
            visits.push(Visit {
                user: UserId(self.v_user[i]),
                publisher: PublisherId(self.v_publisher[i]),
                time: SimTime(self.v_time[i]),
            });
        }
        let mut requests = Vec::with_capacity(self.n_requests());
        let mut cbs = self.r_cb.iter();
        for i in 0..self.n_requests() {
            let shape = self.r_url_shape[i];
            let cb = (shape & URL_CB != 0).then(|| *cbs.next().expect("one cache buster per flag"));
            let url = unpack_url(shape, self.r_url_index[i], self.r_service[i], cb)
                .expect("URL columns are canonical when built and checked when decoded");
            requests.push(LoggedRequest {
                user: UserId(self.r_user[i]),
                time: SimTime(self.r_time[i]),
                first_party: DomainId(self.r_first_party[i]),
                publisher: PublisherId(self.r_publisher[i]),
                url,
                host: DomainId(self.r_host[i]),
                referrer: match self.r_referrer[i] {
                    REF_NONE => Referrer::None,
                    REF_FIRST_PARTY => Referrer::FirstParty,
                    p => Referrer::Request(RequestId(p)),
                },
                ip: unpack_ip(i, &self.r_ip4, &self.r_ip6),
            });
        }
        let chunk = StudyChunk {
            visits,
            requests,
            observations: self.observations_vec(),
            report: DegradationReport::from_counter_values(&self.counters),
        };
        (chunk, self.labels.clone(), self.stage2_rounds, self.stage3_rounds)
    }

    /// Visit rows.
    pub fn n_visits(&self) -> usize {
        self.v_user.len()
    }

    /// Request rows.
    pub fn n_requests(&self) -> usize {
        self.r_user.len()
    }

    /// pDNS observation rows.
    pub fn n_observations(&self) -> usize {
        self.o_host.len()
    }

    /// Row `i`'s user id.
    pub fn request_user(&self, i: usize) -> u32 {
        self.r_user[i]
    }

    /// Row `i`'s response IP.
    pub fn request_ip(&self, i: usize) -> IpAddr {
        unpack_ip(i, &self.r_ip4, &self.r_ip6)
    }

    /// Checks every id the block carries against the run replaying it:
    /// visit and request users inside `users`, visit and request
    /// publishers below `n_publishers`, request hosts, request first
    /// parties and observation hosts below `n_domains`, URL services below
    /// `n_services`, and referrer rows (other than the two sentinels)
    /// below the block's request count. Decoding checks the framing and
    /// that every URL is canonical, so a checksum-valid block a buggy
    /// writer filled with foreign ids is refused here, before anything
    /// indexes by them.
    pub fn check_ids(
        &self,
        users: Range<u64>,
        n_publishers: usize,
        n_domains: usize,
        n_services: usize,
    ) -> Result<(), DecodeError> {
        let refuse = |detail: String| Err(DecodeError { offset: 0, detail });
        let foreign = |&&u: &&u32| !users.contains(&u64::from(u));
        if let Some(&user) = self.v_user.iter().chain(&self.r_user).find(foreign) {
            return refuse(format!(
                "user {user} outside the chunk's users {}..{}",
                users.start, users.end
            ));
        }
        let past = |ids: &[u32], n: usize| ids.iter().copied().find(|&id| id as usize >= n);
        let publisher = past(&self.v_publisher, n_publishers);
        if let Some(p) = publisher.or_else(|| past(&self.r_publisher, n_publishers)) {
            return refuse(format!(
                "publisher {p} outside the world's {n_publishers} publishers"
            ));
        }
        if let Some(h) = past(&self.r_host, n_domains).or_else(|| past(&self.o_host, n_domains)) {
            return refuse(format!("host {h} outside the world's {n_domains} domains"));
        }
        if let Some(d) = past(&self.r_first_party, n_domains) {
            return refuse(format!(
                "first-party domain {d} outside the world's {n_domains} domains"
            ));
        }
        if let Some(s) = past(&self.r_service, n_services) {
            return refuse(format!(
                "URL service {s} outside the world's {n_services} services"
            ));
        }
        let n_requests = self.n_requests();
        let dangling =
            |&&p: &&u32| p != REF_NONE && p != REF_FIRST_PARTY && p as usize >= n_requests;
        if let Some(p) = self.r_referrer.iter().find(dangling) {
            return refuse(format!(
                "referrer row {p} outside the chunk's {n_requests} requests"
            ));
        }
        Ok(())
    }

    /// Per-row labels (empty if the segment was stored unclassified).
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// True if row `i` is labelled tracking by either method.
    pub fn is_tracking(&self, i: usize) -> bool {
        self.labels[i] != LABEL_CLEAN
    }

    /// Calls `f(user, host, time, IP)` for each tracking row, in row order,
    /// in one pass over the columns: the IPv6 side rows are walked with a
    /// cursor rather than searched for each row. An unclassified block has
    /// none. A callback rather than an iterator: with the loop in one
    /// piece the tracker fold over a block runs as fast as over AoS rows,
    /// where an iterator-adaptor form of it ran about three times slower.
    pub fn for_each_tracking_row(&self, mut f: impl FnMut(UserId, DomainId, SimTime, IpAddr)) {
        let mut v6 = self.r_ip6.iter().peekable();
        for (i, &label) in self.labels.iter().enumerate() {
            let ip = match v6.next_if(|&&(row, _)| row as usize == i) {
                Some(&(_, octets)) => IpAddr::V6(Ipv6Addr::from(octets)),
                None => IpAddr::V4(Ipv4Addr::from(self.r_ip4[i])),
            };
            if label != LABEL_CLEAN {
                let (host, time) = (DomainId(self.r_host[i]), SimTime(self.r_time[i]));
                f(UserId(self.r_user[i]), host, time, ip);
            }
        }
    }

    /// The chunk report's commutative counters (counters only — absorb
    /// with `DegradationReport::from_counter_values`).
    pub fn counters(&self) -> DegradationReport {
        DegradationReport::from_counter_values(&self.counters)
    }

    /// Materializes the pDNS observations (small: one row per DNS miss).
    pub fn observations_vec(&self) -> Vec<PdnsIdObservation> {
        let mut out = Vec::with_capacity(self.n_observations());
        for i in 0..self.n_observations() {
            out.push(PdnsIdObservation {
                host: DomainId(self.o_host[i]),
                ip: unpack_ip(i, &self.o_ip4, &self.o_ip6),
                time: SimTime(self.o_time[i]),
            });
        }
        out
    }

    /// Serializes the block. The header leads with every column count so
    /// [`SegmentBlock::decode_bytes`] (and interners fed from the
    /// decoded segment) can pre-reserve exactly.
    pub fn encode_bytes(&self) -> Vec<u8> {
        // The exact encoded length: an estimate short by a few bytes per
        // row would double the buffer while the payload is assembled.
        let len = 72
            + 8 * self.counters.len()
            + 16 * self.n_visits()
            + 38 * self.n_requests()
            + 8 * self.r_cb.len()
            + 20 * (self.r_ip6.len() + self.o_ip6.len())
            + 16 * self.n_observations()
            + self.labels.len();
        let mut w = ByteWriter::with_capacity(len);
        w.put_u32(self.user_start);
        w.put_u32(self.user_end);
        w.put_usize(self.n_visits());
        w.put_usize(self.n_requests());
        w.put_usize(self.n_observations());
        w.put_usize(self.r_cb.len());
        w.put_usize(self.r_ip6.len());
        w.put_usize(self.o_ip6.len());
        w.put_usize(self.labels.len());
        w.put_u32(self.stage2_rounds);
        w.put_u32(self.stage3_rounds);
        for &v in &self.counters {
            w.put_u64(v);
        }
        for &v in &self.v_user {
            w.put_u32(v);
        }
        for &v in &self.v_publisher {
            w.put_u32(v);
        }
        for &v in &self.v_time {
            w.put_u64(v);
        }
        for &v in &self.r_user {
            w.put_u32(v);
        }
        for &v in &self.r_time {
            w.put_u64(v);
        }
        for &v in &self.r_first_party {
            w.put_u32(v);
        }
        for &v in &self.r_publisher {
            w.put_u32(v);
        }
        for &v in &self.r_host {
            w.put_u32(v);
        }
        for &v in &self.r_referrer {
            w.put_u32(v);
        }
        w.put_bytes(&self.r_url_shape);
        w.put_bytes(&self.r_url_index);
        for &v in &self.r_service {
            w.put_u32(v);
        }
        for cb in &self.r_cb {
            w.put_bytes(cb);
        }
        for &v in &self.r_ip4 {
            w.put_u32(v);
        }
        for &(row, octets) in &self.r_ip6 {
            w.put_u32(row);
            w.put_bytes(&octets);
        }
        for &v in &self.o_host {
            w.put_u32(v);
        }
        for &v in &self.o_time {
            w.put_u64(v);
        }
        for &v in &self.o_ip4 {
            w.put_u32(v);
        }
        for &(row, octets) in &self.o_ip6 {
            w.put_u32(row);
            w.put_bytes(&octets);
        }
        w.put_bytes(&self.labels);
        debug_assert_eq!(w.len(), len, "encoded length");
        w.into_bytes()
    }

    /// Reverses [`SegmentBlock::encode_bytes`]; every column is allocated
    /// at its exact final size from the header.
    pub fn decode_bytes(bytes: &[u8]) -> Result<SegmentBlock, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let user_start = r.u32()?;
        let user_end = r.u32()?;
        let n_visits = r.len_prefix()?;
        let n_requests = r.len_prefix()?;
        let n_obs = r.len_prefix()?;
        let n_cb = r.len_prefix()?;
        let n_r_ip6 = r.len_prefix()?;
        let n_o_ip6 = r.len_prefix()?;
        let n_labels = r.len_prefix()?;
        let stage2_rounds = r.u32()?;
        let stage3_rounds = r.u32()?;
        let mut counters = [0u64; DegradationReport::N_COUNTERS];
        for slot in &mut counters {
            *slot = r.u64()?;
        }
        // Every column is sized from a header count, so each count is first
        // checked against the bytes left: a corrupt header must fail as a
        // typed error, not as an allocation the input cannot back.
        fn col_u32(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<u32>, DecodeError> {
            let mut v = Vec::with_capacity(r.bounded_count(n, 4)?);
            for _ in 0..n {
                v.push(r.u32()?);
            }
            Ok(v)
        }
        fn col_u64(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<u64>, DecodeError> {
            let mut v = Vec::with_capacity(r.bounded_count(n, 8)?);
            for _ in 0..n {
                v.push(r.u64()?);
            }
            Ok(v)
        }
        // `unpack_ip` binary-searches the IPv6 side rows of a column by
        // row index, so they must be strictly increasing and inside the
        // column's `rows`: an unsorted, repeated or stray row would read
        // another row's address, or the v4 placeholder, without an error.
        fn col_ip6(
            r: &mut ByteReader<'_>,
            n: usize,
            rows: usize,
            len: usize,
        ) -> Result<Vec<(u32, [u8; 16])>, DecodeError> {
            let mut v: Vec<(u32, [u8; 16])> = Vec::with_capacity(r.bounded_count(n, 20)?);
            for _ in 0..n {
                let offset = len - r.remaining();
                let row = r.u32()?;
                let prev = v.last().map(|&(p, _)| p);
                if row as usize >= rows || prev.is_some_and(|p| row <= p) {
                    return Err(DecodeError {
                        offset,
                        detail: format!(
                            "IPv6 side row {row} does not follow {prev:?} inside the \
                             column's {rows} rows"
                        ),
                    });
                }
                let octets: [u8; 16] = r.bytes(16)?.try_into().expect("16 bytes");
                v.push((row, octets));
            }
            Ok(v)
        }
        let v_user = col_u32(&mut r, n_visits)?;
        let v_publisher = col_u32(&mut r, n_visits)?;
        let v_time = col_u64(&mut r, n_visits)?;
        let r_user = col_u32(&mut r, n_requests)?;
        let r_time = col_u64(&mut r, n_requests)?;
        let r_first_party = col_u32(&mut r, n_requests)?;
        let r_publisher = col_u32(&mut r, n_requests)?;
        let r_host = col_u32(&mut r, n_requests)?;
        let r_referrer = col_u32(&mut r, n_requests)?;
        let shape_at = bytes.len() - r.remaining();
        let r_url_shape = r.bytes(n_requests)?.to_vec();
        let r_url_index = r.bytes(n_requests)?.to_vec();
        let r_service = col_u32(&mut r, n_requests)?;
        let mut r_cb = Vec::with_capacity(r.bounded_count(n_cb, 8)?);
        for _ in 0..n_cb {
            r_cb.push(r.bytes(8)?.try_into().expect("8 bytes"));
        }
        // Every row must be a canonical URL, with one cache buster per
        // flagged row, so that `to_chunk` never panics and equal rows
        // render equal strings.
        let mut cbs = r_cb.iter();
        for i in 0..n_requests {
            let shape = r_url_shape[i];
            let cb = if shape & URL_CB != 0 {
                let cb = cbs.next().ok_or_else(|| DecodeError {
                    offset: shape_at + i,
                    detail: format!("URL of row {i} flags a cache buster past the {n_cb} stored"),
                })?;
                Some(*cb)
            } else {
                None
            };
            unpack_url(shape, r_url_index[i], r_service[i], cb).map_err(|e| DecodeError {
                offset: shape_at + i,
                detail: format!("URL of row {i}: {e}"),
            })?;
        }
        if cbs.next().is_some() {
            return Err(DecodeError {
                offset: shape_at,
                detail: format!("{n_cb} cache busters stored for fewer flagged rows"),
            });
        }
        let r_ip4 = col_u32(&mut r, n_requests)?;
        let r_ip6 = col_ip6(&mut r, n_r_ip6, n_requests, bytes.len())?;
        let o_host = col_u32(&mut r, n_obs)?;
        let o_time = col_u64(&mut r, n_obs)?;
        let o_ip4 = col_u32(&mut r, n_obs)?;
        let o_ip6 = col_ip6(&mut r, n_o_ip6, n_obs, bytes.len())?;
        let labels = r.bytes(n_labels)?.to_vec();
        r.finish()?;
        Ok(SegmentBlock {
            user_start,
            user_end,
            v_user,
            v_publisher,
            v_time,
            r_user,
            r_time,
            r_first_party,
            r_publisher,
            r_host,
            r_referrer,
            r_url_shape,
            r_url_index,
            r_service,
            r_cb,
            r_ip4,
            r_ip6,
            o_host,
            o_time,
            o_ip4,
            o_ip6,
            labels,
            stage2_rounds,
            stage3_rounds,
            counters,
        })
    }

    /// Logical resident footprint: column lengths × element sizes. Based
    /// on lengths rather than capacities so the figure is deterministic.
    pub fn resident_bytes_logical(&self) -> usize {
        (self.v_user.len() + self.v_publisher.len()) * 4
            + self.v_time.len() * 8
            + (self.r_user.len()
                + self.r_first_party.len()
                + self.r_publisher.len()
                + self.r_host.len()
                + self.r_referrer.len()
                + self.r_ip4.len()
                + self.r_service.len())
                * 4
            + self.r_time.len() * 8
            + self.r_url_shape.len()
            + self.r_url_index.len()
            + self.r_cb.len() * 8
            + self.r_ip6.len() * 20
            + (self.o_host.len() + self.o_ip4.len()) * 4
            + self.o_time.len() * 8
            + self.o_ip6.len() * 20
            + self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xborder_webgraph::url::{EncodedUrl, Scheme, UrlParts, UrlStyle, URL_STYLE};

    /// A canonical HTTPS URL (panics on a non-canonical one).
    fn url(
        style: UrlStyle,
        path_idx: u8,
        event_idx: u8,
        service: u32,
        cb: Option<[u8; 8]>,
    ) -> EncodedUrl {
        EncodedUrl::try_from(UrlParts {
            scheme: Scheme::Https,
            style,
            path_idx,
            event_idx,
            service,
            cb,
        })
        .unwrap()
    }

    fn sample_chunk() -> StudyChunk {
        let report = DegradationReport {
            requests_generated: 3,
            requests_delivered: 3,
            dns_attempts: 5,
            ..Default::default()
        };
        StudyChunk {
            visits: vec![
                Visit {
                    user: UserId(7),
                    publisher: PublisherId(2),
                    time: SimTime(100),
                },
                Visit {
                    user: UserId(8),
                    publisher: PublisherId(3),
                    time: SimTime(220),
                },
            ],
            requests: vec![
                LoggedRequest {
                    user: UserId(7),
                    time: SimTime(101),
                    first_party: DomainId(10),
                    publisher: PublisherId(2),
                    url: url(UrlStyle::ArgsAndKeywords, 4, 0, 1, Some(*b"k3v9q0zz")),
                    host: DomainId(11),
                    referrer: Referrer::FirstParty,
                    ip: "1.2.3.4".parse().unwrap(),
                },
                LoggedRequest {
                    user: UserId(7),
                    time: SimTime(102),
                    first_party: DomainId(10),
                    publisher: PublisherId(2),
                    url: url(UrlStyle::Args, 1, 2, 2, None),
                    host: DomainId(12),
                    referrer: Referrer::Request(RequestId(0)),
                    ip: "2001:db8::7".parse().unwrap(),
                },
                LoggedRequest {
                    user: UserId(8),
                    time: SimTime(221),
                    first_party: DomainId(13),
                    publisher: PublisherId(3),
                    url: url(UrlStyle::Plain, 3, 0, 0, None),
                    host: DomainId(14),
                    referrer: Referrer::None,
                    ip: "5.6.7.8".parse().unwrap(),
                },
            ],
            observations: vec![PdnsIdObservation {
                host: DomainId(11),
                ip: "1.2.3.4".parse().unwrap(),
                time: SimTime(101),
            }],
            report,
        }
    }

    #[test]
    fn block_round_trips_chunk_exactly() {
        let chunk = sample_chunk();
        let labels = vec![LABEL_ABP, LABEL_SEMI, LABEL_CLEAN];
        let block = SegmentBlock::from_chunk(&chunk, &labels, 4, 2, (7, 9));
        assert_eq!(block.n_visits(), 2);
        assert_eq!(block.n_requests(), 3);
        assert_eq!(block.request_ip(1), "2001:db8::7".parse::<IpAddr>().unwrap());
        assert!(block.is_tracking(1));
        assert!(!block.is_tracking(2));
        let (back, labels_back, s2, s3) = block.to_chunk();
        assert_eq!(back.visits, chunk.visits);
        assert_eq!(back.requests, chunk.requests);
        assert_eq!(back.observations, chunk.observations);
        assert_eq!(back.report.counter_values(), chunk.report.counter_values());
        assert_eq!(labels_back, labels);
        assert_eq!((s2, s3), (4, 2));
    }

    #[test]
    fn block_bytes_round_trip() {
        let chunk = sample_chunk();
        let labels = vec![LABEL_CLEAN, LABEL_ABP, LABEL_CLEAN];
        let block = SegmentBlock::from_chunk(&chunk, &labels, 3, 1, (7, 9));
        let bytes = block.encode_bytes();
        let back = SegmentBlock::decode_bytes(&bytes).unwrap();
        assert_eq!(back, block);
        // Deterministic encoding (checkpoint blobs rely on it).
        assert_eq!(back.encode_bytes(), bytes);
    }

    #[test]
    fn truncated_bytes_are_typed_errors() {
        let chunk = sample_chunk();
        let block = SegmentBlock::from_chunk(&chunk, &[], 0, 0, (7, 9));
        let bytes = block.encode_bytes();
        for cut in [10, bytes.len() / 2, bytes.len() - 1] {
            assert!(SegmentBlock::decode_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too (finish()).
        let mut long = bytes.clone();
        long.push(0);
        assert!(SegmentBlock::decode_bytes(&long).is_err());
    }

    #[test]
    fn inflated_header_counts_are_typed_errors() {
        // Each header count is a little-endian u64 after the two u32 user
        // bounds. Inflating any one of them must fail as a `DecodeError`
        // before a column is sized from it — on an empty block (nothing to
        // back any count) and on a full one. At 2^40 an unchecked
        // `with_capacity` aborts the process.
        let fields = [
            "n_visits",
            "n_requests",
            "n_observations",
            "n_cb",
            "n_r_ip6",
            "n_o_ip6",
            "n_labels",
        ];
        let empty = StudyChunk {
            visits: vec![],
            requests: vec![],
            observations: vec![],
            report: DegradationReport::default(),
        };
        let labels = [LABEL_ABP, LABEL_SEMI, LABEL_CLEAN];
        for block in [
            SegmentBlock::from_chunk(&empty, &[], 0, 0, (0, 0)),
            SegmentBlock::from_chunk(&sample_chunk(), &labels, 1, 1, (7, 9)),
        ] {
            let bytes = block.encode_bytes();
            for (k, field) in fields.iter().enumerate() {
                let at = 8 + 8 * k;
                for inflated in [1u64 << 40, u64::MAX / 4, u64::MAX] {
                    let mut bad = bytes.clone();
                    bad[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
                    assert!(
                        SegmentBlock::decode_bytes(&bad).is_err(),
                        "{field} = {inflated} on a {}-request block",
                        block.n_requests()
                    );
                }
            }
        }
    }

    #[test]
    fn tampered_url_columns_are_typed_errors() {
        // A writer bug that keeps the framing intact: a shape byte with
        // unknown bits or a style tag past the table, a path or event
        // index past its table, a cache-buster byte outside the token
        // alphabet, an identity on a plain URL, and cache-buster flags
        // that disagree with the stored tokens. Each must decode to a
        // `DecodeError`, never to a block whose `to_chunk` panics.
        let good = SegmentBlock::from_chunk(&sample_chunk(), &[], 0, 0, (7, 9));
        assert_eq!(good.r_cb.len(), 1, "row 0 has the one cache buster");
        type Edit = fn(&mut SegmentBlock);
        let cases: [(&str, Edit); 8] = [
            ("unknown bits", |b| b.r_url_shape[0] |= 0x10),
            ("style tag 3", |b| b.r_url_shape[2] = URL_STYLE),
            ("path index 4", |b| b.r_url_index[2] = 4),
            ("path index 10", |b| b.r_url_index[0] = 10),
            ("event index 5", |b| b.r_url_index[1] = 1 | 5 << 4),
            ("cache-buster byte", |b| b.r_cb[0][3] = b'A'),
            ("plain URL", |b| b.r_service[2] = 1),
            ("flags a cache buster", |b| b.r_url_shape[1] |= URL_CB),
        ];
        for (what, edit) in cases {
            let mut bad = good.clone();
            edit(&mut bad);
            let err = SegmentBlock::decode_bytes(&bad.encode_bytes()).expect_err(what);
            assert!(err.detail.contains(what), "{what}: {err}");
        }
        let mut spare = good.clone();
        spare.r_url_shape[0] &= !URL_CB;
        let err = SegmentBlock::decode_bytes(&spare.encode_bytes()).expect_err("spare");
        assert!(err.detail.contains("fewer flagged rows"), "{err}");
        assert_eq!(SegmentBlock::decode_bytes(&good.encode_bytes()).unwrap(), good);
    }

    proptest::proptest! {
        /// Any bytes written over the URL columns of an encoded block
        /// decode to a block or a typed error, never a panic, and a block
        /// that decodes turns back into a chunk.
        #[test]
        fn overwritten_url_columns_decode_or_refuse_typed(
            at in proptest::prelude::any::<u64>(),
            fill in proptest::prelude::any::<u64>(),
            len in 1usize..9,
        ) {
            let good = SegmentBlock::from_chunk(&sample_chunk(), &[], 0, 0, (7, 9));
            let (nv, nr) = (good.n_visits(), good.n_requests());
            let urls_at = 72 + 8 * DegradationReport::N_COUNTERS + 16 * nv + 28 * nr;
            let span = 6 * nr + 8 * good.r_cb.len();
            let mut bytes = good.encode_bytes();
            let start = urls_at + (at % span as u64) as usize;
            let end = (start + len).min(urls_at + span);
            for (i, b) in bytes[start..end].iter_mut().enumerate() {
                *b = fill.rotate_left(8 * i as u32) as u8;
            }
            if let Ok(block) = SegmentBlock::decode_bytes(&bytes) {
                block.to_chunk();
            }
        }
    }

    #[test]
    fn foreign_url_service_is_refused_by_the_id_check() {
        let block = SegmentBlock::from_chunk(&sample_chunk(), &[], 0, 0, (7, 9));
        assert!(block.check_ids(7..9, 4, 15, 3).is_ok());
        let err = block.check_ids(7..9, 4, 15, 2).expect_err("service 2 of 2");
        assert!(err.detail.contains("URL service 2"), "{err}");
    }

    #[test]
    fn tampered_ip6_side_rows_are_typed_errors() {
        // `unpack_ip` binary-searches each address column's IPv6 side
        // rows. Unsorted, repeated or out-of-range rows would read another
        // row's address or the v4 placeholder without an error, so the
        // decoder refuses them in both columns.
        let mut chunk = sample_chunk();
        chunk.requests[2].ip = "2001:db8::9".parse().unwrap();
        for (host, ip, time) in [(12, "2001:db8::7", 102), (14, "2001:db8::9", 221)] {
            chunk.observations.push(PdnsIdObservation {
                host: DomainId(host),
                ip: ip.parse().unwrap(),
                time: SimTime(time),
            });
        }
        let good = SegmentBlock::from_chunk(&chunk, &[], 0, 0, (7, 9));
        assert_eq!((good.r_ip6.len(), good.o_ip6.len()), (2, 2));
        for column in ["request", "observation"] {
            for what in ["unsorted", "repeated", "out of range"] {
                let mut bad = good.clone();
                let side = match column {
                    "request" => &mut bad.r_ip6,
                    _ => &mut bad.o_ip6,
                };
                match what {
                    "unsorted" => side.swap(0, 1),
                    "repeated" => side[1].0 = side[0].0,
                    _ => side[1].0 = 3,
                }
                let err = SegmentBlock::decode_bytes(&bad.encode_bytes())
                    .expect_err(&format!("{column} {what}"));
                assert!(err.detail.contains("IPv6 side row"), "{column} {what}: {err}");
            }
        }
        assert_eq!(SegmentBlock::decode_bytes(&good.encode_bytes()).unwrap(), good);
    }

    #[test]
    fn empty_block_round_trips() {
        let chunk = StudyChunk {
            visits: vec![],
            requests: vec![],
            observations: vec![],
            report: DegradationReport::default(),
        };
        let block = SegmentBlock::from_chunk(&chunk, &[], 0, 0, (0, 0));
        let back = SegmentBlock::decode_bytes(&block.encode_bytes()).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.resident_bytes_logical(), 0);
    }
}
