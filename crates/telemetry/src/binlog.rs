//! The compact binary weblog format — zero-copy corpus replay.
//!
//! JSONL corpora are the archival interchange format ([`crate::dataset`]),
//! but replaying one through `vqoe assess` or `repro` pays full serde
//! cost on every record. This module defines the packed alternative: a
//! [`BinaryCorpus`] is one owned byte buffer holding a versioned header
//! followed by length-prefixed records, and [`BinaryCorpus::records`]
//! iterates it **without allocating** — every [`RecordRef`] borrows its
//! `host`/`uri` strings straight out of the buffer.
//!
//! Replay never needs the whole corpus as owned entries. The engine
//! behind `IngestPipeline::assess_binary` validates and routes a corpus
//! in one zero-copy pass ([`BinaryCorpus::for_each_record`], which
//! reports each record's byte offset), then every shard worker re-reads
//! its own records by offset ([`BinaryCorpus::record_at`]) and decodes
//! them one at a time into a single reused scratch entry
//! ([`RecordRef::decode_into`]). No `Vec<WeblogEntry>` of the corpus is
//! built; [`BinaryCorpus::decode_all`] remains for callers that want
//! one, and fails with exactly the error the routing pass reports.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! header (16 bytes):
//!   magic   [u8; 4]   = b"VQWL"
//!   version u16       = 1
//!   reserved u16      = 0
//!   count   u64       number of records
//! record (length-prefixed):
//!   len     u32       body length in bytes (fixed preamble + strings)
//!   body:
//!     timestamp     u64   microseconds
//!     subscriber_id u64
//!     bytes         u64
//!     duration      u64   microseconds
//!     transport     8 × f64 (rtt_min, rtt_mean, rtt_max, bdp_mean,
//!                            bif_mean, bif_max, loss_frac, retx_frac)
//!     encrypted     u8    0 | 1
//!     kind          u8    0=PageLoad 1=MediaChunk 2=StatsReport 3=Noise
//!     has_uri       u8    0 | 1
//!     host_len      u16
//!     uri_len       u32
//!     host          [u8; host_len]   UTF-8
//!     uri           [u8; uri_len]    UTF-8 (absent when has_uri = 0)
//! ```
//!
//! The fixed preamble is [`RECORD_FIXED_BYTES`] bytes, so every record
//! body is exactly `RECORD_FIXED_BYTES + entry.variable_cost()` bytes —
//! the same [`WeblogEntry::variable_cost`] the memory-budget accounting
//! ([`WeblogEntry::tracked_cost`]) is built on. A regression test pins
//! the two accountings to that shared helper.
//!
//! Decoding is strict and typed: a wrong magic, an unsupported version,
//! a truncated buffer, an oversized length prefix, a bad enum byte or
//! non-UTF-8 string all surface as a diagnosable [`BinlogError`], never
//! a panic — the format sits on the same untrusted edge as
//! [`crate::dataset`].

use std::fmt;
use std::path::Path;

use vqoe_player::TransportSummary;
use vqoe_simnet::time::{Duration, Instant};

use crate::weblog::{EntryKind, WeblogEntry};

/// The four magic bytes opening every binary corpus.
pub const BINLOG_MAGIC: [u8; 4] = *b"VQWL";

/// Format version stamped into the header. Bump on any layout change.
pub const BINLOG_VERSION: u16 = 1;

/// Header size in bytes: magic + version + reserved + record count.
pub const HEADER_BYTES: usize = 16;

/// Fixed preamble size of one record body, before the variable-length
/// host/uri bytes: 4 × u64 + 8 × f64 + 3 × u8 + u16 + u32 = 105.
pub const RECORD_FIXED_BYTES: usize = 105;

/// Why a binary corpus failed to decode.
#[derive(Debug)]
pub enum BinlogError {
    /// An underlying filesystem read or write failed.
    Io(std::io::Error),
    /// The buffer is shorter than one header.
    TruncatedHeader {
        /// Bytes actually present.
        len: usize,
    },
    /// The first four bytes are not [`BINLOG_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The header's version is not [`BINLOG_VERSION`].
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// A record's length prefix or body runs past the end of the buffer.
    Truncated {
        /// Zero-based index of the offending record.
        index: u64,
        /// Byte offset where the record starts.
        offset: usize,
    },
    /// A record's length prefix disagrees with its own string lengths.
    BadLength {
        /// Zero-based index of the offending record.
        index: u64,
        /// The length prefix found.
        len: u32,
    },
    /// A one-byte field (kind, encrypted, has_uri) holds an undefined
    /// value.
    BadField {
        /// Zero-based index of the offending record.
        index: u64,
        /// Which field was malformed.
        field: &'static str,
        /// The byte found.
        value: u8,
    },
    /// A host or uri is not valid UTF-8.
    NonUtf8 {
        /// Zero-based index of the offending record.
        index: u64,
        /// Which string was malformed.
        field: &'static str,
    },
    /// The header's record count disagrees with the records present.
    CountMismatch {
        /// Count claimed by the header.
        header: u64,
        /// Records actually decoded.
        actual: u64,
    },
    /// An entry is too large for the format's length fields, so it
    /// cannot be packed (see [`BinaryCorpus::try_pack`]).
    TooLong {
        /// Zero-based index of the offending entry.
        index: u64,
        /// Which length overflowed: `"host"` (u16) or `"record"` (the
        /// u32 body length).
        field: &'static str,
        /// The length in bytes.
        len: u64,
        /// The largest length the field can carry.
        max: u64,
    },
}

impl fmt::Display for BinlogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinlogError::Io(e) => write!(f, "i/o error: {e}"),
            BinlogError::TruncatedHeader { len } => {
                write!(f, "buffer holds {len} bytes, a header needs {HEADER_BYTES}")
            }
            BinlogError::BadMagic { found } => {
                write!(f, "bad magic {found:?}, expected {BINLOG_MAGIC:?}")
            }
            BinlogError::UnsupportedVersion { found } => write!(
                f,
                "unsupported format version {found} (this build reads {BINLOG_VERSION})"
            ),
            BinlogError::Truncated { index, offset } => {
                write!(f, "record {index} at offset {offset} is truncated")
            }
            BinlogError::BadLength { index, len } => write!(
                f,
                "record {index}: length prefix {len} disagrees with its field lengths"
            ),
            BinlogError::BadField {
                index,
                field,
                value,
            } => write!(f, "record {index}: undefined {field} byte {value}"),
            BinlogError::NonUtf8 { index, field } => {
                write!(f, "record {index}: {field} is not valid UTF-8")
            }
            BinlogError::CountMismatch { header, actual } => {
                write!(f, "header claims {header} records, buffer holds {actual}")
            }
            BinlogError::TooLong {
                index,
                field,
                len,
                max,
            } => write!(
                f,
                "record {index}: {field} is {len} bytes, the format carries at most {max}"
            ),
        }
    }
}

impl std::error::Error for BinlogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinlogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BinlogError {
    fn from(e: std::io::Error) -> Self {
        BinlogError::Io(e)
    }
}

/// One record viewed in place: every field is parsed out of the corpus
/// buffer, and the strings *borrow* it — no allocation per record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordRef<'a> {
    /// Request timestamp.
    pub timestamp: Instant,
    /// Anonymized subscriber identifier.
    pub subscriber_id: u64,
    /// Object size in bytes.
    pub bytes: u64,
    /// Transaction duration.
    pub duration: Duration,
    /// Transport-layer annotations.
    pub transport: TransportSummary,
    /// Whether the transaction was TLS-encrypted.
    pub encrypted: bool,
    /// Simulator-side kind tag.
    pub kind: EntryKind,
    /// Server hostname, borrowed from the corpus buffer.
    pub host: &'a str,
    /// Request URI, borrowed from the corpus buffer; `None` under
    /// encryption.
    pub uri: Option<&'a str>,
}

impl RecordRef<'_> {
    /// Overwrite `entry` with this record, reusing its `host` and `uri`
    /// buffers: a reader that decodes record after record into one
    /// scratch entry allocates only when a string outgrows its buffer.
    pub fn decode_into(&self, entry: &mut WeblogEntry) {
        entry.timestamp = self.timestamp;
        entry.subscriber_id = self.subscriber_id;
        entry.host.clear();
        entry.host.push_str(self.host);
        match (self.uri, &mut entry.uri) {
            (Some(uri), Some(buf)) => {
                buf.clear();
                buf.push_str(uri);
            }
            (uri, slot) => *slot = uri.map(str::to_string),
        }
        entry.bytes = self.bytes;
        entry.duration = self.duration;
        entry.transport = self.transport;
        entry.encrypted = self.encrypted;
        entry.kind = self.kind;
    }

    /// Materialize an owned [`WeblogEntry`] (allocates the strings).
    pub fn to_entry(&self) -> WeblogEntry {
        WeblogEntry {
            timestamp: self.timestamp,
            subscriber_id: self.subscriber_id,
            host: self.host.to_string(),
            uri: self.uri.map(str::to_string),
            bytes: self.bytes,
            duration: self.duration,
            transport: self.transport,
            encrypted: self.encrypted,
            kind: self.kind,
        }
    }
}

fn kind_to_byte(kind: EntryKind) -> u8 {
    match kind {
        EntryKind::PageLoad => 0,
        EntryKind::MediaChunk => 1,
        EntryKind::StatsReport => 2,
        EntryKind::Noise => 3,
    }
}

fn kind_from_byte(b: u8) -> Option<EntryKind> {
    match b {
        0 => Some(EntryKind::PageLoad),
        1 => Some(EntryKind::MediaChunk),
        2 => Some(EntryKind::StatsReport),
        3 => Some(EntryKind::Noise),
        _ => None,
    }
}

/// The encoded body length of one entry: the value its length prefix
/// carries. Exactly [`RECORD_FIXED_BYTES`] plus
/// [`WeblogEntry::variable_cost`] — the shared accounting helper.
pub fn encoded_body_len(entry: &WeblogEntry) -> u64 {
    RECORD_FIXED_BYTES as u64 + entry.variable_cost()
}

/// A packed weblog corpus: one owned byte buffer, validated header,
/// zero-copy record iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryCorpus {
    buf: Vec<u8>,
    count: u64,
}

impl BinaryCorpus {
    /// Encode a slice of entries into a fresh corpus, refusing any entry
    /// the format cannot carry: a host of 64 KiB or more (its length is
    /// a u16) or a record body of 4 GiB or more (a u32). The error names
    /// the first such entry. Otherwise identical to
    /// [`BinaryCorpus::pack`]; use this for input read from outside the
    /// process.
    pub fn try_pack(entries: &[WeblogEntry]) -> Result<BinaryCorpus, BinlogError> {
        for (index, e) in entries.iter().enumerate() {
            let too_long = |field, len: u64, max: u64| BinlogError::TooLong {
                index: index as u64,
                field,
                len,
                max,
            };
            let host = e.host.len() as u64;
            if host > u64::from(u16::MAX) {
                return Err(too_long("host", host, u64::from(u16::MAX)));
            }
            let body = encoded_body_len(e);
            if body > u64::from(u32::MAX) {
                return Err(too_long("record", body, u64::from(u32::MAX)));
            }
        }
        Ok(BinaryCorpus::pack(entries))
    }

    /// Encode a slice of entries into a fresh corpus. The inverse of
    /// [`BinaryCorpus::decode_all`]: packing and unpacking reproduces
    /// the input bit for bit (f64 transport fields round-trip through
    /// their raw bits).
    ///
    /// Every entry must fit the format's length fields, as entries built
    /// in-process do. An entry [`BinaryCorpus::try_pack`] refuses is
    /// written with a truncated length, and decoding the corpus then
    /// fails at that record; input from outside the process goes
    /// through `try_pack`.
    pub fn pack(entries: &[WeblogEntry]) -> BinaryCorpus {
        let total: usize = entries
            .iter()
            .map(|e| 4 + encoded_body_len(e) as usize)
            .sum();
        let mut buf = Vec::with_capacity(HEADER_BYTES + total);
        buf.extend_from_slice(&BINLOG_MAGIC);
        buf.extend_from_slice(&BINLOG_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for e in entries {
            buf.extend_from_slice(&(encoded_body_len(e) as u32).to_le_bytes());
            buf.extend_from_slice(&e.timestamp.as_micros().to_le_bytes());
            buf.extend_from_slice(&e.subscriber_id.to_le_bytes());
            buf.extend_from_slice(&e.bytes.to_le_bytes());
            buf.extend_from_slice(&e.duration.as_micros().to_le_bytes());
            let t = &e.transport;
            for v in [
                t.rtt_min,
                t.rtt_mean,
                t.rtt_max,
                t.bdp_mean,
                t.bif_mean,
                t.bif_max,
                t.loss_frac,
                t.retx_frac,
            ] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            buf.push(u8::from(e.encrypted));
            buf.push(kind_to_byte(e.kind));
            buf.push(u8::from(e.uri.is_some()));
            buf.extend_from_slice(&(e.host.len() as u16).to_le_bytes());
            let uri_len = e.uri.as_ref().map_or(0, |u| u.len() as u32);
            buf.extend_from_slice(&uri_len.to_le_bytes());
            buf.extend_from_slice(e.host.as_bytes());
            if let Some(uri) = &e.uri {
                buf.extend_from_slice(uri.as_bytes());
            }
        }
        BinaryCorpus {
            buf,
            count: entries.len() as u64,
        }
    }

    /// Adopt an already-encoded buffer, validating the header (magic,
    /// version, minimum length). Record bodies are validated lazily,
    /// during iteration — adoption stays O(1).
    pub fn from_bytes(buf: Vec<u8>) -> Result<BinaryCorpus, BinlogError> {
        if buf.len() < HEADER_BYTES {
            return Err(BinlogError::TruncatedHeader { len: buf.len() });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf[..4]);
        if magic != BINLOG_MAGIC {
            return Err(BinlogError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != BINLOG_VERSION {
            return Err(BinlogError::UnsupportedVersion { found: version });
        }
        let mut count = [0u8; 8];
        count.copy_from_slice(&buf[8..16]);
        Ok(BinaryCorpus {
            buf,
            count: u64::from_le_bytes(count),
        })
    }

    /// The raw encoded bytes (header + records), e.g. to write them
    /// somewhere other than a file.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of records the header claims. Trust-but-verify: iteration
    /// and [`BinaryCorpus::decode_all`] check it against the records
    /// actually present.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when the header claims zero records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the records in place. Each item is a zero-copy
    /// [`RecordRef`] or the typed decode error at that point; iteration
    /// ends after the first error.
    pub fn records(&self) -> Records<'_> {
        Records {
            buf: &self.buf,
            offset: HEADER_BYTES,
            index: 0,
            failed: false,
        }
    }

    /// The one validating pass over the records: visit each record in
    /// order with the byte offset it starts at, then check the header's
    /// count. Returns the first decode error (or the count mismatch),
    /// after visiting every record before it.
    pub fn for_each_record<'a>(
        &'a self,
        mut visit: impl FnMut(usize, RecordRef<'a>),
    ) -> Result<(), BinlogError> {
        let mut records = self.records();
        loop {
            let offset = records.offset;
            let Some(record) = records.next() else {
                break;
            };
            visit(offset, record?);
        }
        if records.index != self.count {
            return Err(BinlogError::CountMismatch {
                header: self.count,
                actual: records.index,
            });
        }
        Ok(())
    }

    /// Parse the one record starting at byte `offset`, labelling errors
    /// with `index`. Meant for re-reading a record whose offset
    /// [`BinaryCorpus::for_each_record`] reported; any other offset
    /// yields a typed error or a record read from the wrong bytes, never
    /// a panic.
    pub fn record_at(&self, offset: usize, index: u64) -> Result<RecordRef<'_>, BinlogError> {
        let mut at = Records {
            buf: &self.buf,
            offset,
            index,
            failed: false,
        };
        at.parse_next()
            .unwrap_or(Err(BinlogError::Truncated { index, offset }))
    }

    /// Decode every record into owned [`WeblogEntry`] values, verifying
    /// the header count along the way.
    pub fn decode_all(&self) -> Result<Vec<WeblogEntry>, BinlogError> {
        // The header count is untrusted: reserve no more records than the
        // buffer could possibly hold.
        let room = self.buf.len().saturating_sub(HEADER_BYTES) / (4 + RECORD_FIXED_BYTES);
        let mut out = Vec::with_capacity(room.min(usize::try_from(self.count).unwrap_or(room)));
        self.for_each_record(|_, record| out.push(record.to_entry()))?;
        Ok(out)
    }

    /// Write the corpus to a file.
    pub fn write_file(&self, path: &Path) -> Result<(), BinlogError> {
        std::fs::write(path, &self.buf)?;
        Ok(())
    }

    /// Read a corpus from a file, validating the header.
    pub fn read_file(path: &Path) -> Result<BinaryCorpus, BinlogError> {
        BinaryCorpus::from_bytes(std::fs::read(path)?)
    }

    /// Does this buffer start with the binary-corpus magic? The sniff
    /// `vqoe assess` uses to accept either format on one flag.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= BINLOG_MAGIC.len() && bytes[..BINLOG_MAGIC.len()] == BINLOG_MAGIC
    }
}

/// Zero-copy record iterator over a [`BinaryCorpus`] buffer.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    buf: &'a [u8],
    offset: usize,
    index: u64,
    failed: bool,
}

fn read_u16(buf: &[u8], offset: usize) -> Option<u16> {
    let b = buf.get(offset..offset.checked_add(2)?)?;
    Some(u16::from_le_bytes([b[0], b[1]]))
}

fn read_u32(buf: &[u8], offset: usize) -> Option<u32> {
    let b = buf.get(offset..offset.checked_add(4)?)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_u64(buf: &[u8], offset: usize) -> Option<u64> {
    let b = buf.get(offset..offset.checked_add(8)?)?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(b);
    Some(u64::from_le_bytes(raw))
}

fn read_f64(buf: &[u8], offset: usize) -> Option<f64> {
    read_u64(buf, offset).map(f64::from_bits)
}

impl<'a> Records<'a> {
    /// Parse the record starting at `self.offset`; `None` means clean
    /// end of buffer.
    fn parse_next(&mut self) -> Option<Result<RecordRef<'a>, BinlogError>> {
        if self.offset == self.buf.len() {
            return None;
        }
        let start = self.offset;
        let truncated = BinlogError::Truncated {
            index: self.index,
            offset: start,
        };
        let Some(body_len) = read_u32(self.buf, start) else {
            return Some(Err(truncated));
        };
        let body = start + 4;
        if (body_len as usize) < RECORD_FIXED_BYTES {
            return Some(Err(BinlogError::BadLength {
                index: self.index,
                len: body_len,
            }));
        }
        let Some(end) = body
            .checked_add(body_len as usize)
            .filter(|&e| e <= self.buf.len())
        else {
            return Some(Err(truncated));
        };
        // The fixed preamble fits (checked above via body_len), so the
        // field reads below cannot fail inside [body, body + FIXED).
        let (Some(timestamp), Some(subscriber_id), Some(bytes), Some(duration)) = (
            read_u64(self.buf, body),
            read_u64(self.buf, body + 8),
            read_u64(self.buf, body + 16),
            read_u64(self.buf, body + 24),
        ) else {
            return Some(Err(truncated));
        };
        let mut transport = [0f64; 8];
        for (i, v) in transport.iter_mut().enumerate() {
            match read_f64(self.buf, body + 32 + 8 * i) {
                Some(x) => *v = x,
                None => return Some(Err(truncated)),
            }
        }
        let (Some(&enc_byte), Some(&kind_byte), Some(&uri_byte)) = (
            self.buf.get(body + 96),
            self.buf.get(body + 97),
            self.buf.get(body + 98),
        ) else {
            return Some(Err(truncated));
        };
        let (Some(host_len), Some(uri_len)) = (
            read_u16(self.buf, body + 99),
            read_u32(self.buf, body + 101),
        ) else {
            return Some(Err(truncated));
        };
        let encrypted = match enc_byte {
            0 => false,
            1 => true,
            v => {
                return Some(Err(BinlogError::BadField {
                    index: self.index,
                    field: "encrypted",
                    value: v,
                }))
            }
        };
        let Some(kind) = kind_from_byte(kind_byte) else {
            return Some(Err(BinlogError::BadField {
                index: self.index,
                field: "kind",
                value: kind_byte,
            }));
        };
        let has_uri = match uri_byte {
            0 => false,
            1 => true,
            v => {
                return Some(Err(BinlogError::BadField {
                    index: self.index,
                    field: "has_uri",
                    value: v,
                }))
            }
        };
        let declared_uri_len = if has_uri { uri_len as u64 } else { 0 };
        if RECORD_FIXED_BYTES as u64 + host_len as u64 + declared_uri_len != body_len as u64 {
            return Some(Err(BinlogError::BadLength {
                index: self.index,
                len: body_len,
            }));
        }
        let host_start = body + RECORD_FIXED_BYTES;
        let uri_start = host_start + host_len as usize;
        let Some(host_bytes) = self.buf.get(host_start..uri_start) else {
            return Some(Err(truncated));
        };
        let Ok(host) = std::str::from_utf8(host_bytes) else {
            return Some(Err(BinlogError::NonUtf8 {
                index: self.index,
                field: "host",
            }));
        };
        let uri = if has_uri {
            let Some(uri_bytes) = self.buf.get(uri_start..end) else {
                return Some(Err(truncated));
            };
            match std::str::from_utf8(uri_bytes) {
                Ok(u) => Some(u),
                Err(_) => {
                    return Some(Err(BinlogError::NonUtf8 {
                        index: self.index,
                        field: "uri",
                    }))
                }
            }
        } else {
            None
        };
        self.offset = end;
        self.index += 1;
        Some(Ok(RecordRef {
            timestamp: Instant(timestamp),
            subscriber_id,
            bytes,
            duration: Duration(duration),
            transport: TransportSummary {
                rtt_min: transport[0],
                rtt_mean: transport[1],
                rtt_max: transport[2],
                bdp_mean: transport[3],
                bif_mean: transport[4],
                bif_max: transport[5],
                loss_frac: transport[6],
                retx_frac: transport[7],
            },
            encrypted,
            kind,
            host,
            uri,
        }))
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<RecordRef<'a>, BinlogError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.parse_next();
        if matches!(item, Some(Err(_))) {
            self.failed = true;
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weblog::RECORD_OVERHEAD_BYTES;
    use proptest::prelude::*;

    fn entry(host: &str, uri: Option<&str>) -> WeblogEntry {
        WeblogEntry {
            timestamp: Instant::from_millis(10_250),
            subscriber_id: 42,
            host: host.to_string(),
            uri: uri.map(str::to_string),
            bytes: 123_456,
            duration: Duration::from_millis(300),
            transport: TransportSummary {
                rtt_min: 0.05,
                rtt_mean: 0.061,
                rtt_max: 0.083,
                bdp_mean: 60_000.0,
                bif_mean: 20_000.5,
                bif_max: 40_000.0,
                loss_frac: 0.001,
                retx_frac: 0.0,
            },
            encrypted: uri.is_none(),
            kind: EntryKind::MediaChunk,
        }
    }

    fn sample() -> Vec<WeblogEntry> {
        vec![
            entry("r3---sn-abc123.googlevideo.com", None),
            entry(
                "r3---sn-abc123.googlevideo.com",
                Some("/videoplayback?id=abc&itag=243&clen=500000"),
            ),
            entry("m.youtube.com", Some("/watch?v=xyz")),
            WeblogEntry {
                kind: EntryKind::Noise,
                host: String::new(),
                ..entry("", None)
            },
        ]
    }

    #[test]
    fn pack_then_decode_is_bit_identical() {
        let entries = sample();
        let corpus = BinaryCorpus::pack(&entries);
        assert_eq!(corpus.len(), entries.len() as u64);
        assert_eq!(corpus.decode_all().expect("decodes"), entries);
    }

    #[test]
    fn record_refs_borrow_without_allocating() {
        let entries = sample();
        let corpus = BinaryCorpus::pack(&entries);
        let refs: Vec<RecordRef<'_>> = corpus
            .records()
            .collect::<Result<_, _>>()
            .expect("clean corpus iterates");
        assert_eq!(refs.len(), entries.len());
        // The borrowed strings point into the corpus buffer itself.
        let buf_range = corpus.as_bytes().as_ptr_range();
        for (r, e) in refs.iter().zip(&entries) {
            assert_eq!(r.host, e.host);
            assert_eq!(r.uri, e.uri.as_deref());
            if !r.host.is_empty() {
                let p = r.host.as_ptr();
                assert!(buf_range.contains(&p), "host not borrowed from the buffer");
            }
            assert_eq!(&r.to_entry(), e);
        }
    }

    #[test]
    fn round_trip_through_bytes() {
        let corpus = BinaryCorpus::pack(&sample());
        let adopted =
            BinaryCorpus::from_bytes(corpus.as_bytes().to_vec()).expect("valid buffer adopts");
        assert_eq!(adopted, corpus);
    }

    #[test]
    fn tracked_cost_and_record_length_share_one_accounting() {
        // Satellite regression: the memory-budget accounting and the
        // wire-format length prefix must derive their variable part
        // from the same helper. Pin both fixed constants, then assert
        // the shared relation on every sample entry.
        assert_eq!(RECORD_OVERHEAD_BYTES, 192);
        assert_eq!(RECORD_FIXED_BYTES, 105);
        for e in sample() {
            assert_eq!(e.tracked_cost(), RECORD_OVERHEAD_BYTES + e.variable_cost());
            assert_eq!(
                encoded_body_len(&e),
                RECORD_FIXED_BYTES as u64 + e.variable_cost()
            );
            // Therefore the two accountings differ by exactly the two
            // fixed constants, for every possible entry.
            assert_eq!(
                e.tracked_cost() - encoded_body_len(&e),
                RECORD_OVERHEAD_BYTES - RECORD_FIXED_BYTES as u64
            );
        }
        // And the encoder really emits `encoded_body_len` bytes.
        let one = vec![entry("m.youtube.com", Some("/watch?v=a"))];
        let corpus = BinaryCorpus::pack(&one);
        assert_eq!(
            corpus.as_bytes().len(),
            HEADER_BYTES + 4 + encoded_body_len(&one[0]) as usize
        );
    }

    #[test]
    fn header_rejection_is_typed() {
        assert!(matches!(
            BinaryCorpus::from_bytes(vec![1, 2, 3]),
            Err(BinlogError::TruncatedHeader { len: 3 })
        ));
        let mut bad_magic = BinaryCorpus::pack(&sample()).as_bytes().to_vec();
        bad_magic[0] = b'X';
        assert!(matches!(
            BinaryCorpus::from_bytes(bad_magic),
            Err(BinlogError::BadMagic { .. })
        ));
        let mut bad_version = BinaryCorpus::pack(&sample()).as_bytes().to_vec();
        bad_version[4] = 99;
        assert!(matches!(
            BinaryCorpus::from_bytes(bad_version),
            Err(BinlogError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn truncated_bodies_and_bad_fields_are_rejected() {
        let entries = sample();
        let full = BinaryCorpus::pack(&entries).as_bytes().to_vec();

        // Cut mid-record: decode fails with Truncated, not a panic.
        let cut = BinaryCorpus::from_bytes(full[..full.len() - 3].to_vec()).expect("header intact");
        assert!(matches!(
            cut.decode_all(),
            Err(BinlogError::Truncated { .. })
        ));

        // Undefined kind byte in the first record.
        let mut bad_kind = full.clone();
        bad_kind[HEADER_BYTES + 4 + 97] = 9;
        let corpus = BinaryCorpus::from_bytes(bad_kind).expect("header intact");
        assert!(matches!(
            corpus.decode_all(),
            Err(BinlogError::BadField {
                field: "kind",
                value: 9,
                ..
            })
        ));

        // Length prefix lies about the string lengths.
        let mut bad_len = full.clone();
        bad_len[HEADER_BYTES] ^= 1;
        let corpus = BinaryCorpus::from_bytes(bad_len).expect("header intact");
        let err = corpus.decode_all().expect_err("must be rejected");
        assert!(matches!(
            err,
            BinlogError::BadLength { .. } | BinlogError::Truncated { .. }
        ));

        // Header count disagrees with the records present.
        let mut bad_count = full;
        bad_count[8] = bad_count[8].wrapping_add(1);
        let corpus = BinaryCorpus::from_bytes(bad_count).expect("header intact");
        assert!(matches!(
            corpus.decode_all(),
            Err(BinlogError::CountMismatch { .. })
        ));
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let entries = vec![entry("host.example", None)];
        let mut bytes = BinaryCorpus::pack(&entries).as_bytes().to_vec();
        let host_start = HEADER_BYTES + 4 + RECORD_FIXED_BYTES;
        bytes[host_start] = 0xFF;
        let corpus = BinaryCorpus::from_bytes(bytes).expect("header intact");
        assert!(matches!(
            corpus.decode_all(),
            Err(BinlogError::NonUtf8 { field: "host", .. })
        ));
    }

    #[test]
    fn sniff_distinguishes_binary_from_jsonl() {
        let corpus = BinaryCorpus::pack(&sample());
        assert!(BinaryCorpus::sniff(corpus.as_bytes()));
        assert!(!BinaryCorpus::sniff(b"{\"timestamp\":0}"));
        assert!(!BinaryCorpus::sniff(b"VQ"));
    }

    #[test]
    fn empty_corpus_round_trips() {
        let corpus = BinaryCorpus::pack(&[]);
        assert!(corpus.is_empty());
        assert_eq!(corpus.as_bytes().len(), HEADER_BYTES);
        assert_eq!(corpus.decode_all().expect("decodes"), Vec::new());
    }

    #[test]
    fn iteration_stops_after_the_first_error() {
        let full = BinaryCorpus::pack(&sample()).as_bytes().to_vec();
        let cut = BinaryCorpus::from_bytes(full[..full.len() - 3].to_vec()).expect("header intact");
        let items: Vec<_> = cut.records().collect();
        assert!(items.last().is_some_and(Result::is_err));
        assert_eq!(
            items.iter().filter(|r| r.is_err()).count(),
            1,
            "exactly one error, then the iterator fuses"
        );
    }

    #[test]
    fn try_pack_refuses_a_host_the_format_cannot_carry() {
        let long = entry(&"h".repeat(70_000), None);
        let entries = vec![entry("m.youtube.com", None), long];
        let err = BinaryCorpus::try_pack(&entries).expect_err("a 70,000-byte host cannot fit");
        assert!(
            matches!(
                err,
                BinlogError::TooLong {
                    index: 1,
                    field: "host",
                    len: 70_000,
                    max: 65_535,
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("record 1"), "{err}");
        // The longest host the u16 length carries still packs losslessly.
        let widest = vec![entry(&"h".repeat(65_535), Some("/watch"))];
        let corpus = BinaryCorpus::try_pack(&widest).expect("fits");
        assert_eq!(corpus, BinaryCorpus::pack(&widest));
        assert_eq!(corpus.decode_all().expect("decodes"), widest);
    }

    #[test]
    fn record_at_rereads_what_the_routing_pass_saw() {
        let entries = sample();
        let corpus = BinaryCorpus::pack(&entries);
        let mut seen = Vec::new();
        corpus
            .for_each_record(|offset, r| seen.push((offset, r)))
            .expect("clean corpus validates");
        assert_eq!(seen.len(), entries.len());
        assert_eq!(seen[0].0, HEADER_BYTES);
        // One scratch entry reused across records whose uri goes
        // absent -> present -> present -> absent.
        let mut scratch = entries[2].clone();
        for (i, ((offset, r), e)) in seen.iter().zip(&entries).enumerate() {
            let again = corpus.record_at(*offset, i as u64).expect("re-reads");
            assert_eq!(&again, r);
            again.decode_into(&mut scratch);
            assert_eq!(&scratch, e);
        }
    }

    #[test]
    fn record_at_out_of_range_is_a_typed_truncation() {
        let corpus = BinaryCorpus::pack(&sample());
        let end = corpus.as_bytes().len();
        for offset in [end, end + 1, usize::MAX - 3, usize::MAX] {
            assert!(matches!(
                corpus.record_at(offset, 7),
                Err(BinlogError::Truncated { index: 7, .. })
            ));
        }
    }

    #[test]
    fn a_huge_header_count_is_a_count_mismatch_not_an_allocation() {
        let mut bytes = BinaryCorpus::pack(&sample()).as_bytes().to_vec();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let corpus = BinaryCorpus::from_bytes(bytes).expect("header intact");
        assert!(matches!(
            corpus.decode_all(),
            Err(BinlogError::CountMismatch {
                header: u64::MAX,
                actual: 4,
            })
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("vqoe_binlog_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("corpus.vqwl");
        let corpus = BinaryCorpus::pack(&sample());
        corpus.write_file(&path).expect("writes");
        let back = BinaryCorpus::read_file(&path).expect("reads");
        assert_eq!(back, corpus);
        let _ = std::fs::remove_file(&path);
    }

    /// Hosts and uris outside ASCII, empty and absent.
    const HOSTS: [&str; 5] = [
        "",
        "r3---sn-abc123.googlevideo.com",
        "räksmörgås.example",
        "視頻.例子.cn",
        "\u{1f3ac}\u{0}.tv",
    ];
    const URIS: [Option<&str>; 4] = [None, Some(""), Some("/videoplayback?id=é"), Some("/🎥")];
    /// NaN (quiet, signalling, with payloads), ±0, subnormals and
    /// infinities; a ninth choice takes raw bits from the seeds.
    const FLOATS: [u64; 8] = [
        0x7ff8_0000_0000_0000,
        0xfff0_0000_dead_beef,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
    ];

    /// A deterministic entry built from four seeds, covering every
    /// encoded field's awkward values.
    fn arbitrary_entry((a, b, c, d): (u64, u64, u64, u64)) -> WeblogEntry {
        let mut transport = [0f64; 8];
        for (i, v) in transport.iter_mut().enumerate() {
            let pick = ((d >> (8 * i)) & 0xFF) as usize % (FLOATS.len() + 1);
            let bits = FLOATS
                .get(pick)
                .copied()
                .unwrap_or(a.rotate_left(7 * i as u32) ^ b);
            *v = f64::from_bits(bits);
        }
        let host = HOSTS[(c % 5) as usize].repeat(((c >> 8) % 3) as usize);
        WeblogEntry {
            timestamp: Instant(a),
            subscriber_id: b,
            host,
            uri: URIS[((c >> 16) % 4) as usize].map(str::to_string),
            bytes: a ^ b.rotate_left(13),
            duration: Duration(c),
            transport: TransportSummary {
                rtt_min: transport[0],
                rtt_mean: transport[1],
                rtt_max: transport[2],
                bdp_mean: transport[3],
                bif_mean: transport[4],
                bif_max: transport[5],
                loss_frac: transport[6],
                retx_frac: transport[7],
            },
            encrypted: (c >> 24) & 1 == 1,
            kind: kind_from_byte(((c >> 25) % 4) as u8).unwrap_or(EntryKind::Noise),
        }
    }

    type EntryBits = (
        u64,
        u64,
        String,
        Option<String>,
        u64,
        u64,
        [u64; 8],
        bool,
        EntryKind,
    );

    /// Every field of an entry, floats as raw bits, so NaNs compare.
    fn bits(e: &WeblogEntry) -> EntryBits {
        let t = &e.transport;
        (
            e.timestamp.as_micros(),
            e.subscriber_id,
            e.host.clone(),
            e.uri.clone(),
            e.bytes,
            e.duration.as_micros(),
            [
                t.rtt_min,
                t.rtt_mean,
                t.rtt_max,
                t.bdp_mean,
                t.bif_mean,
                t.bif_max,
                t.loss_frac,
                t.retx_frac,
            ]
            .map(f64::to_bits),
            e.encrypted,
            e.kind,
        )
    }

    /// Everything a reader can do with a buffer: every path must agree
    /// and end in a record list or a typed error, never a panic.
    fn read_every_way(bytes: Vec<u8>) -> Result<Vec<WeblogEntry>, String> {
        let corpus = BinaryCorpus::from_bytes(bytes).map_err(|e| format!("{e:?}"))?;
        let iterated: Vec<_> = corpus.records().collect();
        let mut routed = Vec::new();
        let scanned = corpus.for_each_record(|offset, r| routed.push((offset, r)));
        let decoded = corpus.decode_all();
        assert_eq!(
            scanned.as_ref().map_err(|e| format!("{e:?}")).err(),
            decoded.as_ref().map_err(|e| format!("{e:?}")).err(),
            "the routing pass and decode_all disagree"
        );
        let ok_refs = iterated.iter().take_while(|r| r.is_ok()).count();
        assert!(routed.len() <= ok_refs);
        for (i, (offset, r)) in routed.iter().enumerate() {
            let again = corpus
                .record_at(*offset, i as u64)
                .map(|a| bits(&a.to_entry()));
            assert_eq!(again.ok(), Some(bits(&r.to_entry())));
        }
        let _ = corpus.record_at(corpus.as_bytes().len() / 2, 0);
        decoded.map_err(|e| format!("{e:?}"))
    }

    fn header(count: u64) -> Vec<u8> {
        let mut h = BINLOG_MAGIC.to_vec();
        h.extend_from_slice(&BINLOG_VERSION.to_le_bytes());
        h.extend_from_slice(&[0, 0]);
        h.extend_from_slice(&count.to_le_bytes());
        h
    }

    const SEED: core::ops::RangeInclusive<u64> = 0..=u64::MAX;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_arbitrary_buffers_fail_typed(
            junk in proptest::collection::vec(0u8..=255, 0..400),
            count in 0u64..6,
            huge in proptest::bool::ANY,
            framed in proptest::bool::ANY,
        ) {
            let count = if huge { u64::MAX - count } else { count };
            let mut bytes = if framed { header(count) } else { Vec::new() };
            bytes.extend_from_slice(&junk);
            let _ = read_every_way(bytes);
        }

        #[test]
        fn prop_truncated_corpora_fail_typed(
            seeds in proptest::collection::vec((SEED, SEED, SEED, SEED), 1..6),
            cut in SEED,
        ) {
            let entries: Vec<WeblogEntry> = seeds.into_iter().map(arbitrary_entry).collect();
            let full = BinaryCorpus::pack(&entries).as_bytes().to_vec();
            let cut = (cut % full.len() as u64) as usize;
            prop_assert!(read_every_way(full[..cut].to_vec()).is_err());
        }

        #[test]
        fn prop_bit_flipped_corpora_decode_or_fail_typed(
            seeds in proptest::collection::vec((SEED, SEED, SEED, SEED), 1..6),
            at in SEED,
            bit in 0u32..8,
        ) {
            let entries: Vec<WeblogEntry> = seeds.into_iter().map(arbitrary_entry).collect();
            let mut bytes = BinaryCorpus::pack(&entries).as_bytes().to_vec();
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
            if let Ok(decoded) = read_every_way(bytes) {
                prop_assert_eq!(decoded.len(), entries.len());
            }
        }

        #[test]
        fn prop_pack_then_decode_round_trips_bit_for_bit(
            seeds in proptest::collection::vec((SEED, SEED, SEED, SEED), 0..12),
        ) {
            let entries: Vec<WeblogEntry> = seeds.into_iter().map(arbitrary_entry).collect();
            let corpus = BinaryCorpus::try_pack(&entries).map_err(|e| {
                proptest::TestCaseError::Fail(format!("refused: {e}"))
            })?;
            let decoded = read_every_way(corpus.as_bytes().to_vec())
                .map_err(proptest::TestCaseError::Fail)?;
            let want: Vec<EntryBits> = entries.iter().map(bits).collect();
            let got: Vec<EntryBits> = decoded.iter().map(bits).collect();
            prop_assert_eq!(got, want);
        }
    }
}
