//! The compact binary weblog format — zero-copy corpus replay.
//!
//! JSONL corpora are the archival interchange format ([`crate::dataset`]),
//! but replaying one through `vqoe assess` or `repro` pays full serde
//! cost on every record. This module defines the packed alternative: a
//! [`BinaryCorpus`] is one owned byte buffer holding a versioned header,
//! a table of the distinct hosts and then length-prefixed records, and
//! [`BinaryCorpus::records`] iterates it **without allocating** — every
//! [`RecordRef`] borrows its `uri` straight out of the buffer and its
//! `host` out of the corpus's host table.
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
//! ## Layout
//!
//! Fixed-width integers are little-endian; `varint` is an unsigned
//! LEB128 integer of at most 10 bytes (7 bits a byte, low bits first).
//!
//! ```text
//! header (16 bytes):
//!   magic    [u8; 4]  = b"VQWL"
//!   version  u16      = 2
//!   reserved u16      = 0
//!   count    u64      number of records
//! host table:
//!   hosts    varint   number of distinct hosts
//!   per host, in order of first appearance:
//!     len    varint
//!     host   [u8; len]   UTF-8
//! record (length-prefixed, self-contained):
//!   len      varint   body length in bytes
//!   body:
//!     flags  u8       bit 0 encrypted, bits 1-2 kind (0=PageLoad
//!                     1=MediaChunk 2=StatsReport 3=Noise), bit 3 has_uri;
//!                     bits 4-7 are 0
//!     mask   u8       bit i set = transport float i is stored
//!     timestamp, subscriber_id, bytes, duration, host index: 5 × varint
//!     transport  the floats whose raw bits are nonzero, in order
//!                (rtt_min, rtt_mean, rtt_max, bdp_mean, bif_mean,
//!                bif_max, loss_frac, retx_frac), each the f64's 8 raw
//!                bytes; an unstored float is +0.0
//!     uri    varint len + [u8; len] UTF-8, only when has_uri = 1
//! ```
//!
//! Each host is stored once and each record names it by index. The
//! mask keys on raw bits, so `-0.0` and every NaN payload are stored
//! and a pack/decode round trip is bit-exact. Varint lengths carry any
//! host, URI or record body, so [`BinaryCorpus::pack`] takes any entry.
//!
//! Decoding is strict and typed: a wrong magic, an unsupported version,
//! a truncated buffer, a malformed varint, a length prefix that
//! disagrees with its body, a set reserved bit, a host index past the
//! table or a non-UTF-8 string all surface as a diagnosable
//! [`BinlogError`], never a panic — the format sits on the same
//! untrusted edge as [`crate::dataset`].

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use vqoe_player::TransportSummary;
use vqoe_simnet::time::{Duration, Instant};

use crate::weblog::{EntryKind, WeblogEntry};

/// The four magic bytes opening every binary corpus.
pub const BINLOG_MAGIC: [u8; 4] = *b"VQWL";

/// Format version stamped into the header. Bump on any layout change.
pub const BINLOG_VERSION: u16 = 2;

/// Header size in bytes: magic + version + reserved + record count.
pub const HEADER_BYTES: usize = 16;

/// The smallest possible record: a one-byte length, the flags and mask
/// bytes and five one-byte varints.
const MIN_RECORD_BYTES: usize = 8;

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
    /// The host table runs past the end of the buffer.
    TruncatedHostTable {
        /// Byte offset of the count or host entry that is cut short.
        offset: usize,
    },
    /// The host table claims more hosts than the rest of the buffer
    /// could hold, at one byte each.
    BadHostCount {
        /// The count found.
        count: u64,
        /// Bytes left after the count.
        room: u64,
    },
    /// A host in the table is not valid UTF-8.
    NonUtf8Host {
        /// Zero-based index of the host in the table.
        entry: u64,
    },
    /// A varint is longer than 10 bytes or overflows a u64.
    BadVarint {
        /// Byte offset where the varint starts.
        offset: usize,
    },
    /// A record's length prefix or body runs past the end of the buffer.
    Truncated {
        /// Zero-based index of the offending record.
        index: u64,
        /// Byte offset where the record starts.
        offset: usize,
    },
    /// A record's length prefix disagrees with the fields of its body.
    BadLength {
        /// Zero-based index of the offending record.
        index: u64,
        /// The length prefix found.
        len: u64,
    },
    /// A one-byte field holds an undefined value.
    BadField {
        /// Zero-based index of the offending record.
        index: u64,
        /// Which field was malformed.
        field: &'static str,
        /// The byte found.
        value: u8,
    },
    /// A record names a host past the end of the host table.
    BadHostIndex {
        /// Zero-based index of the offending record.
        index: u64,
        /// The host index found.
        host: u64,
        /// Entries in the host table.
        hosts: u64,
    },
    /// A record's uri is not valid UTF-8.
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
                "unsupported format version {found} (this build reads {BINLOG_VERSION}; \
                 re-pack older corpora from JSONL)"
            ),
            BinlogError::TruncatedHostTable { offset } => {
                write!(f, "host table is truncated at offset {offset}")
            }
            BinlogError::BadHostCount { count, room } => write!(
                f,
                "host table claims {count} hosts, only {room} bytes follow"
            ),
            BinlogError::NonUtf8Host { entry } => {
                write!(f, "host table entry {entry} is not valid UTF-8")
            }
            BinlogError::BadVarint { offset } => write!(
                f,
                "varint at offset {offset} is longer than 10 bytes or overflows u64"
            ),
            BinlogError::Truncated { index, offset } => {
                write!(f, "record {index} at offset {offset} is truncated")
            }
            BinlogError::BadLength { index, len } => write!(
                f,
                "record {index}: length prefix {len} disagrees with its fields"
            ),
            BinlogError::BadField {
                index,
                field,
                value,
            } => write!(f, "record {index}: undefined {field} byte {value}"),
            BinlogError::BadHostIndex { index, host, hosts } => write!(
                f,
                "record {index}: host index {host} is past the {hosts}-entry host table"
            ),
            BinlogError::NonUtf8 { index, field } => {
                write!(f, "record {index}: {field} is not valid UTF-8")
            }
            BinlogError::CountMismatch { header, actual } => {
                write!(f, "header claims {header} records, buffer holds {actual}")
            }
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
/// buffer, and the strings *borrow* the corpus — no allocation per
/// record.
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
    /// Server hostname, borrowed from the corpus's host table.
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

fn kind_to_bits(kind: EntryKind) -> u8 {
    match kind {
        EntryKind::PageLoad => 0,
        EntryKind::MediaChunk => 1,
        EntryKind::StatsReport => 2,
        EntryKind::Noise => 3,
    }
}

fn kind_from_bits(b: u8) -> EntryKind {
    match b & 3 {
        0 => EntryKind::PageLoad,
        1 => EntryKind::MediaChunk,
        2 => EntryKind::StatsReport,
        _ => EntryKind::Noise,
    }
}

const FLAG_ENCRYPTED: u8 = 1;
const FLAG_KIND_SHIFT: u8 = 1;
const FLAG_HAS_URI: u8 = 1 << 3;
const FLAG_RESERVED: u8 = 0xF0;

/// Bytes a value takes as a varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// One record's wire form, computed once so sizing and writing agree.
struct Encoded {
    flags: u8,
    mask: u8,
    /// Timestamp, subscriber, bytes, duration and host index.
    ints: [u64; 5],
    floats: [f64; 8],
    body_len: u64,
}

impl Encoded {
    fn new(e: &WeblogEntry, host: u64) -> Encoded {
        let t = &e.transport;
        let floats = [
            t.rtt_min,
            t.rtt_mean,
            t.rtt_max,
            t.bdp_mean,
            t.bif_mean,
            t.bif_max,
            t.loss_frac,
            t.retx_frac,
        ];
        let mut mask = 0u8;
        for (i, v) in floats.iter().enumerate() {
            if v.to_bits() != 0 {
                mask |= 1 << i;
            }
        }
        let mut flags = u8::from(e.encrypted) | (kind_to_bits(e.kind) << FLAG_KIND_SHIFT);
        let uri = e.uri.as_ref().map_or(0, |u| {
            flags |= FLAG_HAS_URI;
            varint_len(u.len() as u64) + u.len()
        });
        let ints = [
            e.timestamp.as_micros(),
            e.subscriber_id,
            e.bytes,
            e.duration.as_micros(),
            host,
        ];
        let varints: usize = ints.into_iter().map(varint_len).sum();
        let body_len = 2 + varints + 8 * mask.count_ones() as usize + uri;
        Encoded {
            flags,
            mask,
            ints,
            floats,
            body_len: body_len as u64,
        }
    }

    /// The record's size on the wire, length prefix included.
    fn wire_len(&self) -> usize {
        varint_len(self.body_len) + self.body_len as usize
    }

    fn write(&self, buf: &mut Vec<u8>, uri: Option<&str>) {
        put_varint(buf, self.body_len);
        buf.push(self.flags);
        buf.push(self.mask);
        for v in self.ints {
            put_varint(buf, v);
        }
        for (i, v) in self.floats.iter().enumerate() {
            if self.mask & (1 << i) != 0 {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        if let Some(uri) = uri {
            put_varint(buf, uri.len() as u64);
            buf.extend_from_slice(uri.as_bytes());
        }
    }
}

/// A packed weblog corpus: one owned byte buffer, validated header and
/// host table, zero-copy record iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryCorpus {
    buf: Vec<u8>,
    count: u64,
    /// The host table, each entry validated once; records borrow their
    /// host from here by index.
    hosts: Vec<Box<str>>,
    /// Byte offset of the first record, just past the host table.
    records_start: usize,
}

impl BinaryCorpus {
    /// Encode a slice of entries into a fresh corpus. The inverse of
    /// [`BinaryCorpus::decode_all`]: packing and unpacking reproduces
    /// the input bit for bit (f64 transport fields round-trip through
    /// their raw bits). Every entry fits the format, whatever the length
    /// of its strings. The buffer is sized exactly before it is written.
    pub fn pack(entries: &[WeblogEntry]) -> BinaryCorpus {
        // Number the hosts in order of first appearance and size the
        // buffer, then write it in a second pass.
        let mut numbers: BTreeMap<&str, u64> = BTreeMap::new();
        let mut hosts: Vec<&str> = Vec::new();
        let mut len = HEADER_BYTES;
        for e in entries {
            let host = *numbers.entry(e.host.as_str()).or_insert_with(|| {
                hosts.push(&e.host);
                hosts.len() as u64 - 1
            });
            len += Encoded::new(e, host).wire_len();
        }
        len += varint_len(hosts.len() as u64);
        len += hosts
            .iter()
            .map(|h| varint_len(h.len() as u64) + h.len())
            .sum::<usize>();

        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&BINLOG_MAGIC);
        buf.extend_from_slice(&BINLOG_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        put_varint(&mut buf, hosts.len() as u64);
        for h in &hosts {
            put_varint(&mut buf, h.len() as u64);
            buf.extend_from_slice(h.as_bytes());
        }
        let records_start = buf.len();
        for e in entries {
            Encoded::new(e, numbers[e.host.as_str()]).write(&mut buf, e.uri.as_deref());
        }
        debug_assert_eq!(buf.len(), len);
        BinaryCorpus {
            buf,
            count: entries.len() as u64,
            hosts: hosts.into_iter().map(Box::from).collect(),
            records_start,
        }
    }

    /// Adopt an already-encoded buffer, validating the header (magic,
    /// version, minimum length) and the host table, whose UTF-8 is
    /// checked here once. Record bodies are validated lazily, during
    /// iteration.
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
        let (hosts, records_start) = read_host_table(&buf)?;
        Ok(BinaryCorpus {
            buf,
            count: u64::from_le_bytes(count),
            hosts,
            records_start,
        })
    }

    /// The raw encoded bytes (header, host table and records), e.g. to
    /// write them somewhere other than a file.
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
    /// [`RecordRef`] or the typed decode error at that point, and a
    /// buffer that ends cleanly after other than the header's count of
    /// records yields [`BinlogError::CountMismatch`] last; iteration
    /// ends after the first error.
    pub fn records(&self) -> Records<'_> {
        self.records_from(self.records_start, 0)
    }

    fn records_from(&self, offset: usize, index: u64) -> Records<'_> {
        Records {
            buf: &self.buf,
            hosts: &self.hosts,
            count: self.count,
            offset,
            index,
            failed: false,
        }
    }

    /// The one validating pass over the records: visit each record in
    /// order with the byte offset it starts at. Returns the first error
    /// of [`BinaryCorpus::records`] (the count mismatch included), after
    /// visiting every record before it.
    pub fn for_each_record<'a>(
        &'a self,
        mut visit: impl FnMut(usize, RecordRef<'a>),
    ) -> Result<(), BinlogError> {
        let mut records = self.records();
        loop {
            let offset = records.offset;
            let Some(record) = records.next() else {
                return Ok(());
            };
            visit(offset, record?);
        }
    }

    /// Parse the one record starting at byte `offset`, labelling errors
    /// with `index`. Meant for re-reading a record whose offset
    /// [`BinaryCorpus::for_each_record`] reported; any other offset
    /// yields a typed error or a record read from the wrong bytes, never
    /// a panic.
    pub fn record_at(&self, offset: usize, index: u64) -> Result<RecordRef<'_>, BinlogError> {
        self.records_from(offset, index)
            .parse_next()
            .unwrap_or(Err(BinlogError::Truncated { index, offset }))
    }

    /// Decode every record into owned [`WeblogEntry`] values, verifying
    /// the header count along the way.
    pub fn decode_all(&self) -> Result<Vec<WeblogEntry>, BinlogError> {
        // The header count is untrusted: reserve no more records than the
        // buffer could possibly hold.
        let room = (self.buf.len() - self.records_start) / MIN_RECORD_BYTES;
        let mut out = Vec::with_capacity(room.min(usize::try_from(self.count).unwrap_or(room)));
        self.for_each_record(|_, record| out.push(record.to_entry()))?;
        Ok(out)
    }

    /// Write the corpus to a file.
    pub fn write_file(&self, path: &Path) -> Result<(), BinlogError> {
        std::fs::write(path, &self.buf)?;
        Ok(())
    }

    /// Read a corpus from a file, validating the header and host table.
    pub fn read_file(path: &Path) -> Result<BinaryCorpus, BinlogError> {
        BinaryCorpus::from_bytes(std::fs::read(path)?)
    }

    /// Does this buffer start with the binary-corpus magic? The sniff
    /// `vqoe assess` uses to accept either format on one flag.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= BINLOG_MAGIC.len() && bytes[..BINLOG_MAGIC.len()] == BINLOG_MAGIC
    }
}

/// Parse the host table that follows the header: the hosts, and the
/// offset of the first record.
fn read_host_table(buf: &[u8]) -> Result<(Vec<Box<str>>, usize), BinlogError> {
    let mut at = Cursor::over(buf, HEADER_BYTES, buf.len());
    let fault = |short, offset| match short {
        Short::End => BinlogError::TruncatedHostTable { offset },
        Short::Varint(offset) => BinlogError::BadVarint { offset },
    };
    let count = at.varint().map_err(|s| fault(s, HEADER_BYTES))?;
    // Every host takes at least its one-byte length, so a count the rest
    // of the buffer cannot hold is refused before anything is read; the
    // table grows one host at a time, never by the untrusted count.
    let room = at.rest.len() as u64;
    if count > room {
        return Err(BinlogError::BadHostCount { count, room });
    }
    let mut hosts = Vec::new();
    for entry in 0..count {
        let start = at.pos();
        let bytes = at
            .varint()
            .and_then(|len| at.take(len))
            .map_err(|s| fault(s, start))?;
        let host = std::str::from_utf8(bytes).map_err(|_| BinlogError::NonUtf8Host { entry })?;
        hosts.push(Box::from(host));
    }
    Ok((hosts, at.pos()))
}

/// Why a read inside one section of the buffer stopped short.
enum Short {
    /// The section ended first.
    End,
    /// The varint starting at this offset is longer than 10 bytes or
    /// overflows a u64.
    Varint(usize),
}

/// A reader over the unread part of one section of the buffer, which
/// ends at absolute offset `end`.
struct Cursor<'a> {
    rest: &'a [u8],
    end: usize,
}

impl<'a> Cursor<'a> {
    /// A reader over `buf[start..end]`; empty when that range is not in
    /// the buffer.
    fn over(buf: &'a [u8], start: usize, end: usize) -> Cursor<'a> {
        Cursor {
            rest: buf.get(start..end).unwrap_or_default(),
            end,
        }
    }

    /// The absolute offset of the next unread byte.
    fn pos(&self) -> usize {
        self.end - self.rest.len()
    }

    fn byte(&mut self) -> Result<u8, Short> {
        let (&b, rest) = self.rest.split_first().ok_or(Short::End)?;
        self.rest = rest;
        Ok(b)
    }

    fn take(&mut self, n: u64) -> Result<&'a [u8], Short> {
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.rest.len())
            .ok_or(Short::End)?;
        let (bytes, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(bytes)
    }

    // Six varints are read per record; left to itself the compiler
    // calls this out of line, which measurably slows the record scan.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, Short> {
        let mut value = 0u64;
        for (i, &b) in self.rest.iter().enumerate().take(10) {
            // The tenth byte holds bit 63 alone, and ends the varint.
            if i == 9 && b > 1 {
                return Err(Short::Varint(self.pos()));
            }
            value |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                self.rest = &self.rest[i + 1..];
                return Ok(value);
            }
        }
        Err(Short::End)
    }
}

/// Zero-copy record iterator over a [`BinaryCorpus`] buffer.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    buf: &'a [u8],
    hosts: &'a [Box<str>],
    /// The header's record count, checked at the end of the buffer.
    count: u64,
    offset: usize,
    index: u64,
    failed: bool,
}

impl<'a> Records<'a> {
    /// Parse the record starting at `self.offset`; `None` means clean
    /// end of buffer.
    fn parse_next(&mut self) -> Option<Result<RecordRef<'a>, BinlogError>> {
        if self.offset == self.buf.len() {
            return None;
        }
        let parsed = self.parse_record();
        if parsed.is_ok() {
            self.index += 1;
        }
        Some(parsed)
    }

    /// Parse one record and, on success, move `self.offset` past it.
    fn parse_record(&mut self) -> Result<RecordRef<'a>, BinlogError> {
        let index = self.index;
        let start = self.offset;
        let mut prefix = Cursor::over(self.buf, start, self.buf.len());
        let cut = |short| match short {
            Short::End => BinlogError::Truncated {
                index,
                offset: start,
            },
            Short::Varint(offset) => BinlogError::BadVarint { offset },
        };
        let len = prefix.varint().map_err(cut)?;
        let mut body = Cursor {
            rest: prefix.take(len).map_err(cut)?,
            end: prefix.pos(),
        };
        // A field that runs past the body means the length prefix lies.
        let fault = |short| match short {
            Short::End => BinlogError::BadLength { index, len },
            Short::Varint(offset) => BinlogError::BadVarint { offset },
        };

        let flags = body.byte().map_err(fault)?;
        if flags & FLAG_RESERVED != 0 {
            return Err(BinlogError::BadField {
                index,
                field: "flags",
                value: flags,
            });
        }
        let mask = body.byte().map_err(fault)?;
        let mut ints = [0u64; 5];
        for v in &mut ints {
            *v = body.varint().map_err(fault)?;
        }
        let [timestamp, subscriber_id, bytes, duration, host] = ints;
        let host = usize::try_from(host)
            .ok()
            .and_then(|h| self.hosts.get(h))
            .map(|h| &**h)
            .ok_or(BinlogError::BadHostIndex {
                index,
                host,
                hosts: self.hosts.len() as u64,
            })?;
        let mut t = [0f64; 8];
        let mut stored = body
            .take(8 * u64::from(mask.count_ones()))
            .map_err(fault)?
            .chunks_exact(8);
        for (i, v) in t.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(stored.next().unwrap_or(&[0; 8]));
                *v = f64::from_le_bytes(raw);
            }
        }
        let uri = if flags & FLAG_HAS_URI != 0 {
            let bytes = body
                .varint()
                .and_then(|len| body.take(len))
                .map_err(fault)?;
            let uri = std::str::from_utf8(bytes).map_err(|_| BinlogError::NonUtf8 {
                index,
                field: "uri",
            })?;
            Some(uri)
        } else {
            None
        };
        if !body.rest.is_empty() {
            return Err(BinlogError::BadLength { index, len });
        }
        self.offset = body.end;
        Ok(RecordRef {
            timestamp: Instant(timestamp),
            subscriber_id,
            bytes,
            duration: Duration(duration),
            transport: TransportSummary {
                rtt_min: t[0],
                rtt_mean: t[1],
                rtt_max: t[2],
                bdp_mean: t[3],
                bif_mean: t[4],
                bif_max: t[5],
                loss_frac: t[6],
                retx_frac: t[7],
            },
            encrypted: flags & FLAG_ENCRYPTED != 0,
            kind: kind_from_bits(flags >> FLAG_KIND_SHIFT),
            host,
            uri,
        })
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<RecordRef<'a>, BinlogError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.parse_next().or_else(|| {
            (self.index != self.count).then_some(Err(BinlogError::CountMismatch {
                header: self.count,
                actual: self.index,
            }))
        });
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
        // Hosts point into the corpus's host table, uris into its buffer.
        let buf_range = corpus.as_bytes().as_ptr_range();
        for (r, e) in refs.iter().zip(&entries) {
            assert_eq!(r.host, e.host);
            assert_eq!(r.uri, e.uri.as_deref());
            assert!(
                corpus.hosts.iter().any(|h| std::ptr::eq(&**h, r.host)),
                "host not borrowed from the host table"
            );
            if let Some(uri) = r.uri.filter(|u| !u.is_empty()) {
                assert!(
                    buf_range.contains(&uri.as_ptr()),
                    "uri not borrowed from the buffer"
                );
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
    fn tracked_cost_is_the_overhead_plus_the_variable_cost() {
        // The memory budgets, and the checkpoints that carry them, charge
        // the fixed overhead on top of the host and uri bytes.
        assert_eq!(RECORD_OVERHEAD_BYTES, 192);
        for e in sample() {
            assert_eq!(e.tracked_cost(), RECORD_OVERHEAD_BYTES + e.variable_cost());
        }
    }

    #[test]
    fn each_distinct_host_is_stored_once_in_order_of_first_appearance() {
        let entries = sample();
        let corpus = BinaryCorpus::pack(&entries);
        let hosts: Vec<&str> = corpus.hosts.iter().map(|h| &**h).collect();
        assert_eq!(
            hosts,
            ["r3---sn-abc123.googlevideo.com", "m.youtube.com", ""]
        );
        let needle = b"r3---sn-abc123.googlevideo.com";
        let copies = corpus
            .as_bytes()
            .windows(needle.len())
            .filter(|w| w == needle)
            .count();
        assert_eq!(copies, 1, "two records share one table entry");
        assert_eq!(corpus.decode_all().expect("decodes"), entries);
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
        for version in [1, 99] {
            let mut bad_version = BinaryCorpus::pack(&sample()).as_bytes().to_vec();
            bad_version[4..6].copy_from_slice(&u16::to_le_bytes(version));
            let err = BinaryCorpus::from_bytes(bad_version).expect_err("only v2 is read");
            assert!(
                matches!(err, BinlogError::UnsupportedVersion { found } if found == version),
                "{err:?}"
            );
        }
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

        // A reserved flag bit set in the first record (whose one-byte
        // length prefix precedes its flags).
        let first = BinaryCorpus::pack(&entries).records_start;
        let mut bad_flags = full.clone();
        bad_flags[first + 1] |= 0x40;
        let corpus = BinaryCorpus::from_bytes(bad_flags).expect("header intact");
        assert!(matches!(
            corpus.decode_all(),
            Err(BinlogError::BadField {
                index: 0,
                field: "flags",
                ..
            })
        ));

        // Length prefix lies about the body.
        let mut bad_len = full.clone();
        bad_len[first] ^= 1;
        let corpus = BinaryCorpus::from_bytes(bad_len).expect("header intact");
        let err = corpus.decode_all().expect_err("must be rejected");
        assert!(matches!(
            err,
            BinlogError::BadLength { index: 0, .. } | BinlogError::Truncated { .. }
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
        // A host fails when the table is adopted, before any record.
        let entries = vec![entry("host.example", Some("/a"))];
        let mut bytes = BinaryCorpus::pack(&entries).as_bytes().to_vec();
        let host_start = HEADER_BYTES + 2; // past the count and the length
        bytes[host_start] = 0xFF;
        assert!(matches!(
            BinaryCorpus::from_bytes(bytes),
            Err(BinlogError::NonUtf8Host { entry: 0 })
        ));
        // A uri fails in its record; it is the last byte of the corpus.
        let mut bytes = BinaryCorpus::pack(&entries).as_bytes().to_vec();
        *bytes.last_mut().expect("nonempty") = 0xFF;
        let corpus = BinaryCorpus::from_bytes(bytes).expect("table intact");
        assert!(matches!(
            corpus.decode_all(),
            Err(BinlogError::NonUtf8 {
                index: 0,
                field: "uri"
            })
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
        // The header and an empty host table's one-byte count.
        assert_eq!(corpus.as_bytes().len(), HEADER_BYTES + 1);
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
    fn a_host_or_uri_of_any_length_packs_and_unpacks() {
        let entries = vec![
            entry("m.youtube.com", None),
            entry(&"h".repeat(70_000), None),
            entry("m.youtube.com", Some(&"/u".repeat(40_000))),
        ];
        let corpus = BinaryCorpus::pack(&entries);
        assert_eq!(corpus.decode_all().expect("decodes"), entries);
        let adopted = BinaryCorpus::from_bytes(corpus.as_bytes().to_vec()).expect("adopts");
        assert_eq!(adopted, corpus);
    }

    /// A header claiming `count` records, then a host table of `hosts`,
    /// then `records` verbatim.
    fn raw(count: u64, hosts: &[&[u8]], records: &[u8]) -> Vec<u8> {
        let mut bytes = header(count);
        put_varint(&mut bytes, hosts.len() as u64);
        for h in hosts {
            put_varint(&mut bytes, h.len() as u64);
            bytes.extend_from_slice(h);
        }
        bytes.extend_from_slice(records);
        bytes
    }

    /// `body` behind its varint length prefix.
    fn record(body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn a_hand_built_record_decodes() {
        // Encrypted media chunk, rtt_min only, timestamp 300 (two bytes).
        let mut body = vec![0b011, 0b1, 0xAC, 0x02, 7, 9, 11, 0];
        body.extend_from_slice(&0.25f64.to_le_bytes());
        let bytes = raw(1, &[b"h.example"], &record(&body));
        let got = BinaryCorpus::from_bytes(bytes)
            .expect("adopts")
            .decode_all()
            .expect("decodes");
        let mut want = entry("h.example", None);
        want.timestamp = Instant(300);
        (want.subscriber_id, want.bytes, want.duration) = (7, 9, Duration(11));
        want.transport = TransportSummary {
            rtt_min: 0.25,
            rtt_mean: 0.0,
            rtt_max: 0.0,
            bdp_mean: 0.0,
            bif_mean: 0.0,
            bif_max: 0.0,
            loss_frac: 0.0,
            retx_frac: 0.0,
        };
        assert_eq!(got, vec![want]);
    }

    #[test]
    fn a_malformed_host_table_is_typed() {
        let full = BinaryCorpus::pack(&sample()).as_bytes().to_vec();
        let adopt = |bytes: &[u8]| BinaryCorpus::from_bytes(bytes.to_vec()).map(|_| ());
        // No table at all, then the first host (30 bytes, its length at
        // offset 17) cut short.
        assert!(matches!(
            adopt(&full[..HEADER_BYTES]),
            Err(BinlogError::TruncatedHostTable { offset: 16 })
        ));
        assert!(matches!(
            adopt(&full[..HEADER_BYTES + 10]),
            Err(BinlogError::TruncatedHostTable { offset: 17 })
        ));
        // A non-UTF-8 second host.
        assert!(matches!(
            adopt(&raw(0, &[b"ok", &[0xC3]], &[])),
            Err(BinlogError::NonUtf8Host { entry: 1 })
        ));
        // Counts the rest of the buffer cannot hold, one past it and the
        // largest a varint carries (ten bytes).
        let mut five = header(0);
        five.extend_from_slice(&[5, 0, 0, 0, 0]);
        assert!(matches!(
            adopt(&five),
            Err(BinlogError::BadHostCount { count: 5, room: 4 })
        ));
        let mut huge = header(0);
        huge.extend_from_slice(&[0xFF; 9]);
        huge.push(0x01);
        assert!(matches!(
            adopt(&huge),
            Err(BinlogError::BadHostCount {
                count: u64::MAX,
                room: 0
            })
        ));
    }

    #[test]
    fn an_overlong_or_overflowing_varint_is_typed() {
        let adopt = |bytes: Vec<u8>| BinaryCorpus::from_bytes(bytes).map(|_| ());
        let mut eleven = header(0);
        eleven.extend_from_slice(&[0x80; 10]);
        eleven.push(0);
        let mut overflow = header(0);
        overflow.extend_from_slice(&[0xFF; 9]);
        overflow.push(0x02);
        for bytes in [eleven, overflow] {
            assert!(matches!(
                adopt(bytes),
                Err(BinlogError::BadVarint { offset: 16 })
            ));
        }
        // In a record: its length prefix, and its timestamp.
        let start = raw(1, &[b"h"], &[]).len();
        let decode = |records: &[u8]| {
            BinaryCorpus::from_bytes(raw(1, &[b"h"], records))
                .expect("table intact")
                .decode_all()
        };
        assert!(matches!(
            decode(&[0xFF; 11]),
            Err(BinlogError::BadVarint { offset }) if offset == start
        ));
        let mut body = vec![0, 0];
        body.extend_from_slice(&[0xFF; 10]);
        body.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            decode(&record(&body)),
            Err(BinlogError::BadVarint { offset }) if offset == start + 3
        ));
    }

    #[test]
    fn a_host_index_past_the_table_is_typed() {
        let bytes = raw(1, &[b"h"], &record(&[0, 0, 1, 2, 3, 4, 1]));
        let corpus = BinaryCorpus::from_bytes(bytes).expect("table intact");
        assert!(matches!(
            corpus.decode_all(),
            Err(BinlogError::BadHostIndex {
                index: 0,
                host: 1,
                hosts: 1
            })
        ));
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
        assert_eq!(seen[0].0, corpus.records_start);
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
        // Iteration yields every record, then the mismatch, then ends.
        let items: Vec<_> = corpus.records().collect();
        assert_eq!(items.len(), 5);
        assert!(items[..4].iter().all(Result::is_ok));
        assert!(matches!(
            items[4],
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
            kind: kind_from_bits((c >> 25) as u8),
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
            framing in 0u8..3,
        ) {
            // Junk alone, after a bare header (mostly refused by the host
            // table parser), or after a valid header and host table, so
            // the record parser reads it.
            let count = if huge { u64::MAX - count } else { count };
            let hosts: Vec<&[u8]> = HOSTS.iter().map(|h| h.as_bytes()).collect();
            let mut bytes = match framing {
                0 => Vec::new(),
                1 => header(count),
                _ => raw(count, &hosts, &[]),
            };
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
            let corpus = BinaryCorpus::pack(&entries);
            let decoded = read_every_way(corpus.as_bytes().to_vec())
                .map_err(proptest::TestCaseError::Fail)?;
            let want: Vec<EntryBits> = entries.iter().map(bits).collect();
            let got: Vec<EntryBits> = decoded.iter().map(bits).collect();
            prop_assert_eq!(got, want);
        }
    }
}
