//! The versioned `.ecasr` session-record container and its wire
//! primitives.
//!
//! A *session record* is the portable artifact of one recorded
//! simulation: the scenario parameters, the event log, and the reference
//! result (see `ecas-core`'s `record` module, which assembles the three
//! sections, and DESIGN.md § 13 for the full layout). This module owns
//! the layer underneath — a self-describing binary container in the
//! `ECAS` magic family plus the varint / delta primitives the section
//! codecs are built from:
//!
//! ```text
//! offset  size  field
//! 0       5     magic  b"ECASR"
//! 5       2     schema version, u16 little-endian
//! 7       8     FNV-1a 64 content hash of every byte after this field
//! 15      ..    varint section count, then sections
//!
//! section = [tag: u8] [payload length: varint] [payload bytes]
//! ```
//!
//! Compatibility policy: within a schema version, readers must skip
//! sections whose tag they do not recognise (new optional sections are a
//! compatible change). A version this library does not know is rejected
//! with [`RecordError::UnsupportedVersion`] — future layouts may change
//! the framing itself, so guessing is worse than failing. Truncation,
//! hash mismatches and malformed varints are likewise typed errors —
//! hostile bytes must never panic the reader.
//!
//! # Examples
//!
//! ```
//! use ecas_trace::record::{RecordContainer, RecordError};
//!
//! let mut rec = RecordContainer::new();
//! rec.push(1, b"hello".to_vec());
//! let bytes = rec.encode();
//! let back = RecordContainer::decode(&bytes).unwrap();
//! assert_eq!(back.section(1), Some(&b"hello"[..]));
//!
//! // A flipped payload byte is caught by the content hash.
//! let mut bad = bytes.clone();
//! *bad.last_mut().unwrap() ^= 0x01;
//! assert!(matches!(
//!     RecordContainer::decode(&bad),
//!     Err(RecordError::HashMismatch { .. })
//! ));
//! ```

use std::fmt;

use ecas_obs::fnv1a_64;

/// Magic prefix of the session-record container (`ECAS` family, `R` for
/// record; the plain trace archive uses `ECAS` + version byte).
pub const RECORD_MAGIC: &[u8; 5] = b"ECASR";
/// Schema version this library reads and writes.
// ecas-lint: allow(pub-surface, reason = "wire-format contract documented in DESIGN.md section 13")
pub const RECORD_VERSION: u16 = 1;

/// Canonical file extension for ECASR containers (no leading dot).
/// Corpus directories are scanned for `*.ecasr` by this constant, so
/// writers and scanners cannot drift apart.
pub const RECORD_EXTENSION: &str = "ecasr";

/// Byte length of the fixed header (magic + version + content hash).
// ecas-lint: allow(pub-surface, reason = "wire-format contract documented in DESIGN.md section 13")
pub const RECORD_HEADER_LEN: usize = 5 + 2 + 8;

/// Error produced by the record codec.
///
/// Every way untrusted bytes can be malformed maps to a distinct
/// variant so callers (and tests) can assert on the failure mode.
#[derive(Debug)]
pub enum RecordError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The payload does not start with [`RECORD_MAGIC`].
    BadMagic {
        /// The bytes found where the magic was expected.
        found: [u8; 5],
    },
    /// The record was written by a schema version this library does not
    /// know (typically a future release).
    UnsupportedVersion {
        /// The version stored in the record.
        found: u16,
        /// The newest version this library supports.
        supported: u16,
    },
    /// The payload ended before the named field was complete.
    Truncated {
        /// Which field the reader was decoding when the bytes ran out.
        context: &'static str,
    },
    /// The stored content hash does not match the payload.
    HashMismatch {
        /// The hash stored in the header.
        stored: u64,
        /// The hash computed over the payload.
        computed: u64,
    },
    /// A varint ran past its maximum 10-byte encoding.
    VarintOverflow,
    /// A section required by the consumer is absent.
    MissingSection {
        /// The tag of the missing section.
        tag: u8,
    },
    /// The payload was structurally valid but its content was not
    /// (invalid UTF-8, out-of-range value, trailing bytes, …).
    Corrupt(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io(e) => write!(f, "record i/o failed: {e}"),
            RecordError::BadMagic { found } => {
                write!(f, "bad record magic {found:?}, want {RECORD_MAGIC:?}")
            }
            RecordError::UnsupportedVersion { found, supported } => write!(
                f,
                "record schema version {found} is not supported (this build reads <= {supported})"
            ),
            RecordError::Truncated { context } => {
                write!(f, "record truncated while reading {context}")
            }
            RecordError::HashMismatch { stored, computed } => write!(
                f,
                "record content hash mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            RecordError::VarintOverflow => write!(f, "varint exceeds the 10-byte u64 limit"),
            RecordError::MissingSection { tag } => {
                write!(f, "record is missing required section tag {tag}")
            }
            RecordError::Corrupt(msg) => write!(f, "corrupt record: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecordError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecordError {
    fn from(e: std::io::Error) -> Self {
        RecordError::Io(e)
    }
}

/// Wire primitives shared by every section codec: bounds-checked
/// reading, LEB128 varints, zigzag, and XOR-delta `f64` chains.
pub mod wire {
    use super::RecordError;

    /// A bounds-checked cursor over untrusted bytes. Every read reports
    /// the field it was decoding on truncation.
    #[derive(Debug)]
    pub struct Reader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Wraps a byte slice.
        #[must_use]
        pub fn new(data: &'a [u8]) -> Self {
            Self { data, pos: 0 }
        }

        /// Bytes left to read.
        #[must_use]
        pub fn remaining(&self) -> usize {
            self.data.len() - self.pos
        }

        /// Whether the cursor is exhausted.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.remaining() == 0
        }

        /// Takes the next `n` bytes.
        ///
        /// # Errors
        ///
        /// Returns [`RecordError::Truncated`] when fewer than `n` bytes
        /// remain.
        pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], RecordError> {
            if self.remaining() < n {
                return Err(RecordError::Truncated { context });
            }
            let slice = &self.data[self.pos..self.pos + n];
            self.pos += n;
            Ok(slice)
        }

        /// Takes one byte.
        ///
        /// # Errors
        ///
        /// Returns [`RecordError::Truncated`] at end of input.
        pub fn byte(&mut self, context: &'static str) -> Result<u8, RecordError> {
            Ok(self.take(1, context)?[0])
        }

        /// Takes the next `N` bytes as a fixed-size array, ready for
        /// `from_le_bytes`.
        ///
        /// # Errors
        ///
        /// Returns [`RecordError::Truncated`] when fewer than `N` bytes
        /// remain.
        pub fn array<const N: usize>(
            &mut self,
            context: &'static str,
        ) -> Result<[u8; N], RecordError> {
            let mut out = [0u8; N];
            out.copy_from_slice(self.take(N, context)?);
            Ok(out)
        }
    }

    /// Appends `v` as an LEB128 varint (1–10 bytes).
    pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`RecordError::VarintOverflow`] when the encoding runs
    /// past 10 bytes or carries bits beyond a `u64`, and
    /// [`RecordError::Truncated`] when the input ends mid-varint.
    pub fn get_varint(r: &mut Reader<'_>) -> Result<u64, RecordError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = r.byte("varint")?;
            let low = u64::from(byte & 0x7f);
            // The 10th byte (shift 63) may only carry one payload bit.
            if shift == 63 && low > 1 {
                return Err(RecordError::VarintOverflow);
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(RecordError::VarintOverflow)
    }

    /// Maps a signed value onto the varint-friendly zigzag encoding.
    #[must_use]
    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    #[must_use]
    // ecas-lint: allow(pub-surface, reason = "decoder paired with zigzag; wire primitives ship as a symmetric set")
    pub fn unzigzag(u: u64) -> i64 {
        ((u >> 1) as i64) ^ -((u & 1) as i64)
    }

    /// Appends a length-prefixed byte string.
    // ecas-lint: allow(pub-surface, reason = "encoder paired with get_bytes; wire primitives ship as a symmetric set")
    pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        put_varint(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`RecordError::Truncated`] when the declared length
    /// exceeds the remaining input (the check happens *before* any
    /// allocation, so a hostile length cannot trigger an OOM).
    // ecas-lint: allow(pub-surface, reason = "decoder paired with put_bytes; wire primitives ship as a symmetric set")
    pub fn get_bytes<'a>(
        r: &mut Reader<'a>,
        context: &'static str,
    ) -> Result<&'a [u8], RecordError> {
        let len = get_varint(r)?;
        if len > r.remaining() as u64 {
            return Err(RecordError::Truncated { context });
        }
        r.take(len as usize, context)
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_bytes(out, s.as_bytes());
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`RecordError::Corrupt`] on invalid UTF-8 and
    /// [`RecordError::Truncated`] on short input.
    pub fn get_str(r: &mut Reader<'_>, context: &'static str) -> Result<String, RecordError> {
        let raw = get_bytes(r, context)?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| RecordError::Corrupt(format!("invalid utf-8 in {context}: {e}")))
    }

    /// An XOR-delta chain over `f64` bit patterns (the Gorilla trick):
    /// consecutive values with matching sign/exponent/high-mantissa bits
    /// XOR to a small integer, which the varint then stores compactly.
    /// Lossless for every value including NaN payloads.
    ///
    /// Encoder and decoder must walk the same value sequence; keep one
    /// chain per field column.
    #[derive(Debug, Default)]
    pub struct F64Delta {
        prev: u64,
    }

    impl F64Delta {
        /// A fresh chain (previous bits = 0).
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends `v` as the XOR against the previous value's bits.
        pub fn put(&mut self, out: &mut Vec<u8>, v: f64) {
            let bits = v.to_bits();
            put_varint(out, bits ^ self.prev);
            self.prev = bits;
        }

        /// Reads the next value in the chain.
        ///
        /// # Errors
        ///
        /// Propagates varint decoding errors.
        pub fn get(&mut self, r: &mut Reader<'_>) -> Result<f64, RecordError> {
            let delta = get_varint(r)?;
            let bits = delta ^ self.prev;
            self.prev = bits;
            Ok(f64::from_bits(bits))
        }
    }
}

/// One tagged section of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The section tag (meaning assigned by the producer).
    pub tag: u8,
    /// The section payload.
    pub payload: Vec<u8>,
}

/// A decoded (or under-construction) record container: an ordered list
/// of tagged sections behind the versioned, content-hashed header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordContainer {
    sections: Vec<Section>,
}

impl RecordContainer {
    /// An empty container.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section.
    pub fn push(&mut self, tag: u8, payload: Vec<u8>) {
        self.sections.push(Section { tag, payload });
    }

    /// The payload of the first section with `tag`, if present.
    /// Consumers must treat an unknown tag as skippable (forward
    /// compatibility within a version) and a missing required tag as
    /// [`RecordError::MissingSection`].
    #[must_use]
    pub fn section(&self, tag: u8) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.payload.as_slice())
    }

    /// Like [`Self::section`] but typed: a missing tag is an error.
    ///
    /// # Errors
    ///
    /// Returns [`RecordError::MissingSection`].
    pub fn require(&self, tag: u8) -> Result<&[u8], RecordError> {
        self.section(tag).ok_or(RecordError::MissingSection { tag })
    }

    /// All sections in file order.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Serializes the container: magic, version, FNV-1a content hash,
    /// then the section table. Deterministic — equal containers encode
    /// to equal bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        wire::put_varint(&mut body, self.sections.len() as u64);
        for s in &self.sections {
            body.push(s.tag);
            wire::put_bytes(&mut body, &s.payload);
        }
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&RECORD_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a_64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses an encoded record, validating magic, version and content
    /// hash before touching any section.
    ///
    /// # Errors
    ///
    /// * [`RecordError::BadMagic`] / [`RecordError::UnsupportedVersion`]
    ///   for foreign or future payloads;
    /// * [`RecordError::Truncated`] when bytes run out mid-field;
    /// * [`RecordError::HashMismatch`] when the payload was altered;
    /// * [`RecordError::VarintOverflow`] / [`RecordError::Corrupt`] for
    ///   malformed framing (including trailing bytes).
    pub fn decode(data: &[u8]) -> Result<Self, RecordError> {
        let mut r = wire::Reader::new(data);
        let magic = r.take(RECORD_MAGIC.len(), "magic")?;
        if magic != RECORD_MAGIC {
            let mut found = [0u8; 5];
            found.copy_from_slice(magic);
            return Err(RecordError::BadMagic { found });
        }
        let version = u16::from_le_bytes(r.array("version")?);
        if version != RECORD_VERSION {
            return Err(RecordError::UnsupportedVersion {
                found: version,
                supported: RECORD_VERSION,
            });
        }
        let stored = u64::from_le_bytes(r.array("content hash")?);
        let body = r.take(r.remaining(), "body")?;
        let computed = fnv1a_64(body);
        if stored != computed {
            return Err(RecordError::HashMismatch { stored, computed });
        }

        let mut r = wire::Reader::new(body);
        let count = wire::get_varint(&mut r)?;
        // Every section costs at least 2 bytes (tag + length), so a count
        // beyond that bound is corrupt framing, not a huge allocation.
        if count > (r.remaining() as u64) / 2 {
            return Err(RecordError::Corrupt(format!(
                "section count {count} exceeds what {} remaining bytes could hold",
                r.remaining()
            )));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let tag = r.byte("section tag")?;
            let payload = wire::get_bytes(&mut r, "section payload")?.to_vec();
            sections.push(Section { tag, payload });
        }
        if !r.is_empty() {
            return Err(RecordError::Corrupt(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        Ok(Self { sections })
    }

    /// The content hash stored in an encoded record's header, without
    /// decoding the body. `None` when `data` is too short to carry a
    /// header.
    #[must_use]
    pub fn stored_hash(data: &[u8]) -> Option<u64> {
        if data.len() < RECORD_HEADER_LEN || !data.starts_with(RECORD_MAGIC) {
            return None;
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&data[7..15]);
        Some(u64::from_le_bytes(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::wire::{self, Reader};
    use super::*;

    fn sample() -> RecordContainer {
        let mut rec = RecordContainer::new();
        rec.push(1, b"{\"eta\":0.5}".to_vec());
        rec.push(2, vec![0, 1, 2, 3, 250, 251, 252]);
        rec.push(3, Vec::new());
        rec
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            wire::put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut r = Reader::new(&buf);
            assert_eq!(wire::get_varint(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_is_typed() {
        // 11 continuation bytes can never terminate within the limit.
        let bad = [0x80u8; 11];
        let mut r = Reader::new(&bad);
        assert!(matches!(
            wire::get_varint(&mut r),
            Err(RecordError::VarintOverflow)
        ));
        // A 10-byte encoding whose last byte carries bits beyond u64.
        let mut bad = vec![0x80u8; 9];
        bad.push(0x02);
        let mut r = Reader::new(&bad);
        assert!(matches!(
            wire::get_varint(&mut r),
            Err(RecordError::VarintOverflow)
        ));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -54321] {
            assert_eq!(wire::unzigzag(wire::zigzag(v)), v);
        }
        // Small magnitudes stay small for the varint.
        assert!(wire::zigzag(-3) < 8);
    }

    #[test]
    fn f64_delta_chain_is_lossless_and_compact() {
        let values = [0.0, 2.0, 4.0, 6.0, 6.5, 100.25, -3.75, f64::MAX];
        let mut enc = wire::F64Delta::new();
        let mut buf = Vec::new();
        for &v in &values {
            enc.put(&mut buf, v);
        }
        let mut dec = wire::F64Delta::new();
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(dec.get(&mut r).unwrap().to_bits(), v.to_bits());
        }
        assert!(r.is_empty());
        // Near-monotone timestamps must beat 8 bytes/value on average.
        let mut enc = wire::F64Delta::new();
        let mut buf = Vec::new();
        for i in 0..1000 {
            enc.put(&mut buf, f64::from(i) * 2.0);
        }
        assert!(buf.len() < 1000 * 8, "delta chain failed to compress");
    }

    #[test]
    fn container_roundtrip_preserves_sections_and_order() {
        let rec = sample();
        let bytes = rec.encode();
        let back = RecordContainer::decode(&bytes).unwrap();
        assert_eq!(rec, back);
        assert_eq!(back.section(2).unwrap().len(), 7);
        assert_eq!(back.section(3), Some(&[][..]));
        assert!(back.section(9).is_none());
        assert!(matches!(
            back.require(9),
            Err(RecordError::MissingSection { tag: 9 })
        ));
        // Deterministic bytes.
        assert_eq!(bytes, sample().encode());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().encode();
        bytes[4] = b'X';
        assert!(matches!(
            RecordContainer::decode(&bytes),
            Err(RecordError::BadMagic { found }) if &found[..4] == b"ECAS"
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[5] = 0x39;
        bytes[6] = 0x05; // version 1337
        let err = RecordContainer::decode(&bytes).unwrap_err();
        assert!(matches!(
            err,
            RecordError::UnsupportedVersion {
                found: 1337,
                supported: RECORD_VERSION
            }
        ));
        assert!(err.to_string().contains("1337"));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = RecordContainer::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    RecordError::Truncated { .. } | RecordError::HashMismatch { .. }
                ),
                "prefix of {cut} bytes gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn flipped_byte_anywhere_in_body_is_a_hash_mismatch() {
        let bytes = sample().encode();
        for pos in RECORD_HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(matches!(
                RecordContainer::decode(&bad),
                Err(RecordError::HashMismatch { .. })
            ));
        }
        // Flipping the stored hash itself is equally fatal.
        let mut bad = bytes.clone();
        bad[9] ^= 0x01;
        assert!(matches!(
            RecordContainer::decode(&bad),
            Err(RecordError::HashMismatch { .. })
        ));
    }

    #[test]
    fn stored_hash_peeks_the_header() {
        let bytes = sample().encode();
        let stored = RecordContainer::stored_hash(&bytes).unwrap();
        assert_eq!(stored, fnv1a_64(&bytes[RECORD_HEADER_LEN..]));
        assert!(RecordContainer::stored_hash(b"ECASR").is_none());
        assert!(RecordContainer::stored_hash(b"NOPE").is_none());
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        // Rebuild a body with trailing garbage and a matching hash, so
        // only the framing check can catch it.
        let mut body = Vec::new();
        wire::put_varint(&mut body, 0);
        body.push(0xAA);
        let mut out = Vec::new();
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&RECORD_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a_64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        assert!(matches!(
            RecordContainer::decode(&out),
            Err(RecordError::Corrupt(msg)) if msg.contains("trailing")
        ));
    }

    #[test]
    fn hostile_section_count_is_corrupt_not_oom() {
        let mut body = Vec::new();
        wire::put_varint(&mut body, u64::MAX / 2);
        let mut out = Vec::new();
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&RECORD_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a_64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        assert!(matches!(
            RecordContainer::decode(&out),
            Err(RecordError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_payload_length_is_truncated_not_oom() {
        let mut body = Vec::new();
        wire::put_varint(&mut body, 1);
        body.push(7); // tag
        wire::put_varint(&mut body, u64::MAX / 4); // absurd payload length
        let mut out = Vec::new();
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&RECORD_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a_64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        assert!(matches!(
            RecordContainer::decode(&out),
            Err(RecordError::Truncated { .. })
        ));
    }
}
