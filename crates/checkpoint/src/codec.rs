//! Fallible little-endian byte codecs for checkpoint payloads.
//!
//! The store treats payloads as opaque bytes; the typed blob encodings
//! live with their domain types (core `stream` module) and are built on
//! these two primitives. The reader returns [`DecodeError`] instead of
//! panicking — a hard requirement, since decode runs on bytes that just
//! survived a simulated crash.

use std::fmt;

/// A structured decode failure: where in the buffer, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What the decoder expected vs. found.
    pub detail: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian encoder. Infallible: writing to a `Vec`
/// cannot fail, so only the read side carries `Result`s.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `n` bytes preallocated.
    pub fn with_capacity(n: usize) -> Self {
        Self { buf: Vec::with_capacity(n) }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip;
    /// checkpoints must not launder floats through text).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed (`u64`) byte string.
    pub fn put_blob(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed (`u64`) byte string that `write` encodes
    /// straight into this writer: the length is reserved, then
    /// back-patched once `write` returns, so the blob is never built in a
    /// buffer of its own and copied in. The bytes equal
    /// [`ByteWriter::put_blob`] of what `write` would write to a fresh
    /// writer.
    pub fn put_blob_with(&mut self, write: impl FnOnce(&mut ByteWriter)) {
        let at = self.buf.len();
        self.put_u64(0);
        write(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Makes room for exactly `n` more bytes, so a writer whose final
    /// length is known grows once and holds no doubling slack.
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve_exact(n);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_blob(s.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style little-endian decoder over a borrowed buffer. Every read
/// is bounds-checked and returns a typed error on short or malformed
/// input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or_else(|| DecodeError {
            offset: self.pos,
            detail: format!("length overflow reading {what}"),
        })?;
        if end > self.buf.len() {
            return Err(DecodeError {
                offset: self.pos,
                detail: format!(
                    "short read for {what}: need {n} bytes, {} remain",
                    self.buf.len() - self.pos
                ),
            });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an IEEE-754 `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that do
    /// not fit (corrupt lengths must not wrap).
    pub fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let offset = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError {
            offset,
            detail: format!("length {v} exceeds usize"),
        })
    }

    /// Checks a decoded item count against the input left: `n` items of
    /// at least `min_width` encoded bytes each must still fit, so a corrupt
    /// count can never size an allocation. Returns `n`.
    pub fn bounded_count(&self, n: usize, min_width: usize) -> Result<usize, DecodeError> {
        if n > self.remaining() / min_width {
            return Err(DecodeError {
                offset: self.pos,
                detail: format!(
                    "count {n} of {min_width}-byte items exceeds the {} bytes left",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Reads the length prefix of a run of items at least `min_width`
    /// encoded bytes each, checked with [`ByteReader::bounded_count`].
    pub fn count(&mut self, min_width: usize) -> Result<usize, DecodeError> {
        let n = self.len_prefix()?;
        self.bounded_count(n, min_width)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n, "bytes")
    }

    /// Reads a length-prefixed byte string.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.len_prefix()?;
        self.take(n, "blob")
    }

    /// Reads a length-prefixed UTF-8 string, validating the encoding.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let offset = self.pos;
        let b = self.blob()?;
        std::str::from_utf8(b).map_err(|e| DecodeError {
            offset,
            detail: format!("invalid utf-8 in string: {e}"),
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the buffer was fully consumed — trailing garbage is
    /// corruption, not padding.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError {
                offset: self.pos,
                detail: format!("{} trailing bytes after payload", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(3.5e-9);
        w.put_str("héllo");
        w.put_blob(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), 3.5e-9f64.to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.blob().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn blob_written_in_place_equals_a_copied_blob() {
        let body = |w: &mut ByteWriter| {
            w.put_u32(7);
            w.put_str("delta");
        };
        let mut inner = ByteWriter::new();
        body(&mut inner);
        let mut copied = ByteWriter::new();
        copied.put_blob(b"head");
        copied.put_blob(&inner.into_bytes());
        let mut in_place = ByteWriter::new();
        in_place.put_blob(b"head");
        in_place.reserve(8 + 4 + 8 + 5);
        in_place.put_blob_with(body);
        in_place.put_blob_with(|_| {});
        copied.put_blob(&[]);
        assert_eq!(in_place.into_bytes(), copied.into_bytes());
    }

    #[test]
    fn short_reads_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.u64().unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.detail.contains("short read"));
    }

    #[test]
    fn corrupt_string_length_is_rejected() {
        // A length prefix claiming far more bytes than exist.
        let mut w = ByteWriter::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.blob().is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_blob(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = r.str().unwrap_err();
        assert!(err.detail.contains("utf-8"));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let r = ByteReader::new(&[0u8; 12]);
        assert_eq!(r.bounded_count(3, 4).unwrap(), 3);
        assert!(r.bounded_count(4, 4).is_err());
        assert!(r.bounded_count(usize::MAX, 1).is_err());
        let mut w = ByteWriter::new();
        w.put_u64(2);
        w.put_u64(0);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).count(4).unwrap(), 2);
        assert!(ByteReader::new(&bytes).count(5).is_err());
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let r = ByteReader::new(&[0u8; 4]);
        assert!(r.finish().is_err());
    }
}
