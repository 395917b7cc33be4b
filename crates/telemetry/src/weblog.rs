//! The proxy's weblog record.
//!
//! One [`WeblogEntry`] is one HTTP(S) transaction as the operator's proxy
//! logs it: "IP-port tuples, URI's, object sizes, transaction times,
//! request time-stamps and more ... annotated with a set of transport
//! layer performance metrics" (§3.1).
//!
//! The critical asymmetry the whole paper turns on: for **cleartext**
//! transactions the `uri` is present and carries the ground-truth
//! metadata; for **encrypted** transactions `uri` is `None` and only the
//! network-visible fields remain — "we only extract the timestamp of the
//! HTTP request, the server IP address and port, the size of the
//! requested object and the TCP statistics" (§5.2).

use serde::{Deserialize, Serialize};
use vqoe_player::TransportSummary;
use vqoe_simnet::time::{Duration, Instant};

/// What kind of transaction an entry records (known to the simulator;
/// the reassembly code must *not* use this field for encrypted traffic —
/// it recovers the classification from hosts and timing, as the paper
/// does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntryKind {
    /// Watch-page objects: HTML, scripts, thumbnails.
    PageLoad,
    /// A media chunk download (video or muxed/unmuxed audio).
    MediaChunk,
    /// A playback statistics report to the service's stats endpoint.
    StatsReport,
    /// Unrelated background traffic from the same subscriber.
    Noise,
}

/// One HTTP(S) transaction in the proxy's log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeblogEntry {
    /// Request timestamp.
    pub timestamp: Instant,
    /// Anonymized subscriber identifier (the paper strips all real
    /// identifiers; grouping per subscriber is still possible).
    pub subscriber_id: u64,
    /// Server hostname (from DNS/SNI — available even for TLS).
    pub host: String,
    /// Request URI with query string; `None` under encryption.
    pub uri: Option<String>,
    /// Object size in bytes.
    pub bytes: u64,
    /// Transaction duration (request to last byte).
    pub duration: Duration,
    /// Transport-layer annotations.
    pub transport: TransportSummary,
    /// Whether the transaction was TLS-encrypted.
    pub encrypted: bool,
    /// Simulator-side kind tag (ground truth for tests; see type docs).
    pub kind: EntryKind,
}

/// Fixed bookkeeping cost charged per buffered record, on top of the
/// variable-length fields. The value is a platform-independent model of
/// the in-memory footprint (struct body plus container slack), chosen
/// deliberately over `size_of` so budget arithmetic — and therefore
/// admission/shedding decisions — is identical on every target.
pub const RECORD_OVERHEAD_BYTES: u64 = 192;

impl WeblogEntry {
    /// Arrival time of the object's last byte — the "chunk time" of
    /// Table 1.
    pub fn arrival_time(&self) -> Instant {
        self.timestamp + self.duration
    }

    /// The variable-length byte count of this record: the host plus the
    /// URI (when present). [`WeblogEntry::tracked_cost`] adds the fixed
    /// per-record constant to it, so every memory budget charges a
    /// record by this value. The binary weblog ([`crate::binlog`]) does
    /// not: it stores each host once and names it by index.
    pub fn variable_cost(&self) -> u64 {
        self.host.len() as u64 + self.uri.as_ref().map_or(0, |u| u.len() as u64)
    }

    /// Deterministic memory cost charged while this record is buffered:
    /// [`RECORD_OVERHEAD_BYTES`] plus [`WeblogEntry::variable_cost`].
    /// This is the record-granularity unit all ingest memory budgets
    /// are accounted in.
    pub fn tracked_cost(&self) -> u64 {
        RECORD_OVERHEAD_BYTES + self.variable_cost()
    }

    /// Is this transaction addressed to the video service (any of its
    /// serving domains)? This is the filter the paper's reassembly step
    /// applies first: "remove all requests that do not belong to YouTube
    /// by filtering out those that have domain names not related to the
    /// service".
    pub fn is_service_host(&self) -> bool {
        is_service_host(&self.host)
    }

    /// Is this a media-cache host (where chunks come from)?
    pub fn is_media_host(&self) -> bool {
        self.host.ends_with(".googlevideo.com")
    }

    /// Is this a watch-page host (the §5.2 session-start marker)?
    pub fn is_page_host(&self) -> bool {
        self.host == "m.youtube.com" || self.host == "i.ytimg.com"
    }
}

/// Domain filter for the whole service (§5.2 step 1).
pub fn is_service_host(host: &str) -> bool {
    host.ends_with(".googlevideo.com")
        || host == "m.youtube.com"
        || host == "www.youtube.com"
        || host == "i.ytimg.com"
        || host == "s.youtube.com"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(host: &str) -> WeblogEntry {
        WeblogEntry {
            timestamp: Instant::from_secs(10),
            subscriber_id: 1,
            host: host.to_string(),
            uri: None,
            bytes: 1000,
            duration: Duration::from_millis(300),
            transport: TransportSummary {
                rtt_min: 0.05,
                rtt_mean: 0.06,
                rtt_max: 0.08,
                bdp_mean: 60_000.0,
                bif_mean: 20_000.0,
                bif_max: 40_000.0,
                loss_frac: 0.0,
                retx_frac: 0.0,
            },
            encrypted: true,
            kind: EntryKind::MediaChunk,
        }
    }

    #[test]
    fn arrival_time_adds_duration() {
        let e = entry("r3---sn-abc123.googlevideo.com");
        assert_eq!(e.arrival_time(), Instant::from_millis(10_300));
    }

    #[test]
    fn host_classification() {
        assert!(entry("r3---sn-abc123.googlevideo.com").is_media_host());
        assert!(entry("r3---sn-abc123.googlevideo.com").is_service_host());
        assert!(entry("m.youtube.com").is_page_host());
        assert!(entry("i.ytimg.com").is_page_host());
        assert!(entry("s.youtube.com").is_service_host());
        assert!(!entry("example.com").is_service_host());
        assert!(!entry("m.youtube.com").is_media_host());
        // Suffix matching must not be fooled by lookalikes.
        assert!(!entry("evilgooglevideo.com").is_media_host());
        assert!(!entry("googlevideo.com.evil.org").is_service_host());
    }

    #[test]
    fn serde_roundtrip() {
        let e = entry("m.youtube.com");
        let json = serde_json::to_string(&e).unwrap();
        let back: WeblogEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
