//! Wire format and link model.
//!
//! There is one parser per direction, and it borrows: [`WireRequestRef`]
//! and [`WireResponseRef`] read a frame in place, checking every length
//! against the bytes that remain, and allocate nothing. The owned
//! [`WireRequest::decode`] and [`WireResponse::decode`] are those plus
//! `to_owned`. A truncated, corrupted or hostile frame decodes to `None`;
//! it never panics and never reserves memory for a count it merely
//! announces.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use index_traits::Cursor;

/// A single request on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Point lookup.
    Get { key: Vec<u8> },
    /// Insert or overwrite.
    Set { key: Vec<u8>, value: u64 },
    /// Range scan: up to `count` keys at or after `start`.
    Range { start: Vec<u8>, count: u32 },
    /// Telemetry probe: the server answers with its metrics registry's
    /// text exposition ([`WireResponse::Stats`]).
    Stats,
    /// One page of a streaming scan: up to `limit` pairs at or after
    /// `start`. Unlike [`WireRequest::Range`] — one shot, one response —
    /// a scan is continued by re-issuing the request at the `resume` key
    /// the server returns in [`WireResponse::ScanPage`]; the continuation
    /// is stateless on the server (no cursor is held between pages).
    Scan { start: Vec<u8>, limit: u32 },
}

/// A single response on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Value found (or previous value for a Set).
    Value(u64),
    /// Key absent.
    Miss,
    /// Range scan results: key/value pairs.
    Range(Vec<(Vec<u8>, u64)>),
    /// Metrics text exposition (the answer to [`WireRequest::Stats`]).
    Stats(String),
    /// One page of a streaming scan (the answer to [`WireRequest::Scan`]):
    /// the pairs plus the resume key continuing the scan, `None` once the
    /// scan is known exhausted. Mirrors `index_traits::ScanPage<u64>`.
    ScanPage {
        items: Vec<(Vec<u8>, u64)>,
        resume: Option<Vec<u8>>,
    },
}

/// A request read in place: [`WireRequest`] with its key borrowed from the
/// frame it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRequestRef<'a> {
    /// See [`WireRequest::Get`].
    Get { key: &'a [u8] },
    /// See [`WireRequest::Set`].
    Set { key: &'a [u8], value: u64 },
    /// See [`WireRequest::Range`].
    Range { start: &'a [u8], count: u32 },
    /// See [`WireRequest::Stats`].
    Stats,
    /// See [`WireRequest::Scan`].
    Scan { start: &'a [u8], limit: u32 },
}

/// A response read in place: [`WireResponse`] with its keys and text
/// borrowed from the frame it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireResponseRef<'a> {
    /// See [`WireResponse::Value`].
    Value(u64),
    /// See [`WireResponse::Miss`].
    Miss,
    /// See [`WireResponse::Range`].
    Range(PairsRef<'a>),
    /// See [`WireResponse::Stats`].
    Stats(&'a str),
    /// See [`WireResponse::ScanPage`].
    ScanPage {
        items: PairsRef<'a>,
        resume: Option<&'a [u8]>,
    },
}

/// The encoded pairs of a range or scan-page response, checked when the
/// response was decoded: iterating them cannot run out of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairsRef<'a> {
    count: usize,
    encoded: &'a [u8],
}

/// The unread rest of a frame. Every getter checks what remains and
/// returns `None` on a short buffer; nothing here indexes or asserts.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A `u32` length and that many bytes.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        self.take(len as usize)
    }

    /// A `u32` count and that many pairs. A pair is at least
    /// [`PAIR_MIN_BYTES`] long, which bounds the count by the bytes left
    /// before anything is sized by it.
    fn pairs(&mut self) -> Option<PairsRef<'a>> {
        let count = self.u32()? as usize;
        if count > self.0.len() / PAIR_MIN_BYTES {
            return None;
        }
        let start = self.0;
        for _ in 0..count {
            self.bytes()?;
            self.u64()?;
        }
        Some(PairsRef {
            count,
            encoded: &start[..start.len() - self.0.len()],
        })
    }
}

impl<'a> PairsRef<'a> {
    /// The pairs in wire order (`iter().len()` is their number).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&'a [u8], u64)> {
        let mut reader = Reader(self.encoded);
        (0..self.count).map(move |_| {
            let pair = reader.bytes().zip(reader.u64());
            pair.expect("checked when the response was decoded")
        })
    }

    /// Copies the pairs out of the frame.
    pub fn to_vec(&self) -> Vec<(Vec<u8>, u64)> {
        self.iter()
            .map(|(key, value)| (key.to_vec(), value))
            .collect()
    }
}

/// Key-length prefix and value: a pair with an empty key.
const PAIR_MIN_BYTES: usize = 12;
const TAG_GET: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_RANGE: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_SCAN: u8 = 5;
const TAG_VALUE: u8 = 1;
const TAG_MISS: u8 = 2;
const TAG_RANGE_RESP: u8 = 3;
const TAG_STATS_RESP: u8 = 4;
const TAG_SCAN_PAGE: u8 = 5;

impl WireRequest {
    /// Appends the encoded request to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            WireRequest::Get { key } => {
                buf.put_u8(TAG_GET);
                buf.put_u32(key.len() as u32);
                buf.put_slice(key);
            }
            WireRequest::Set { key, value } => {
                buf.put_u8(TAG_SET);
                buf.put_u32(key.len() as u32);
                buf.put_slice(key);
                buf.put_u64(*value);
            }
            WireRequest::Range { start, count } => {
                buf.put_u8(TAG_RANGE);
                buf.put_u32(start.len() as u32);
                buf.put_slice(start);
                buf.put_u32(*count);
            }
            WireRequest::Stats => {
                // Stats carries an empty key so the generic tag + key-length
                // prefix shared by every request still parses.
                buf.put_u8(TAG_STATS);
                buf.put_u32(0);
            }
            WireRequest::Scan { start, limit } => {
                buf.put_u8(TAG_SCAN);
                buf.put_u32(start.len() as u32);
                buf.put_slice(start);
                buf.put_u32(*limit);
            }
        }
    }

    /// Decodes one request from the front of `buf` and consumes it; on
    /// `None` (empty, truncated or unknown tag) `buf` is left as it was.
    /// This is [`WireRequestRef::decode`] plus `to_owned`.
    pub fn decode(buf: &mut Bytes) -> Option<WireRequest> {
        let mut rest = buf.as_ref();
        let request = WireRequestRef::decode(&mut rest)?.to_owned();
        let used = buf.len() - rest.len();
        buf.advance(used);
        Some(request)
    }

    /// Encoded size in bytes (excluding per-message overhead).
    pub fn wire_size(&self) -> usize {
        match self {
            WireRequest::Get { key } => 5 + key.len(),
            WireRequest::Set { key, .. } => 13 + key.len(),
            WireRequest::Range { start, .. } => 9 + start.len(),
            WireRequest::Stats => 5,
            WireRequest::Scan { start, .. } => 9 + start.len(),
        }
    }
}

impl WireResponse {
    /// Appends the encoded response to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            WireResponse::Value(v) => {
                buf.put_u8(TAG_VALUE);
                buf.put_u64(*v);
            }
            WireResponse::Miss => buf.put_u8(TAG_MISS),
            WireResponse::Range(items) => {
                put_pairs(buf, TAG_RANGE_RESP, |buf| {
                    items.iter().for_each(|(k, v)| put_pair(buf, k, *v));
                    items.len()
                });
            }
            WireResponse::Stats(text) => {
                buf.put_u8(TAG_STATS_RESP);
                buf.put_u32(text.len() as u32);
                buf.put_slice(text.as_bytes());
            }
            WireResponse::ScanPage { items, resume } => {
                put_pairs(buf, TAG_SCAN_PAGE, |buf| {
                    items.iter().for_each(|(k, v)| put_pair(buf, k, *v));
                    items.len()
                });
                let at = put_resume(buf, resume.as_ref().map(Vec::len));
                if let Some(key) = resume {
                    buf.as_mut()[at..].copy_from_slice(key);
                }
            }
        }
    }

    /// Decodes one response from the front of `buf` and consumes it; on
    /// `None` (empty, truncated, unknown tag, text that is not UTF-8)
    /// `buf` is left as it was. This is [`WireResponseRef::decode`] plus
    /// `to_owned`.
    pub fn decode(buf: &mut Bytes) -> Option<WireResponse> {
        let mut rest = buf.as_ref();
        let response = WireResponseRef::decode(&mut rest)?.to_owned();
        let used = buf.len() - rest.len();
        buf.advance(used);
        Some(response)
    }
}

/// Writes the layout `RANGE` and `SCAN_PAGE` share: `tag`, a count, and
/// the pairs `fill` writes with [`put_pair`] and counts. Streamed pages
/// and [`WireResponse::encode`] both write through it.
fn put_pairs(buf: &mut BytesMut, tag: u8, fill: impl FnOnce(&mut BytesMut) -> usize) -> usize {
    buf.put_u8(tag);
    buf.put_u32(0);
    let at = buf.len() - 4;
    let count = fill(buf);
    buf.as_mut()[at..at + 4].copy_from_slice(&(count as u32).to_be_bytes());
    count
}

fn put_pair(buf: &mut BytesMut, key: &[u8], value: u64) {
    buf.put_u32(key.len() as u32);
    buf.put_slice(key);
    buf.put_u64(value);
}

/// Ends a `SCAN_PAGE`: `00` once the scan is exhausted, else `01` and a
/// resume key of `len` bytes, zeroed. Returns where the key starts.
fn put_resume(buf: &mut BytesMut, len: Option<usize>) -> usize {
    buf.put_u8(len.is_some().into());
    if let Some(len) = len {
        buf.put_u32(len as u32);
        buf.put_bytes(0, len);
    }
    buf.len() - len.unwrap_or(0)
}

/// Streams up to `count` pairs of `cursor` into `buf` as a `RANGE`.
pub(crate) fn stream_range(buf: &mut BytesMut, cursor: &mut Cursor<'_, u64>, count: u32) {
    put_pairs(buf, TAG_RANGE_RESP, |buf| {
        cursor.visit_next(count as usize, |key, &value| put_pair(buf, key, value))
    });
}

/// Streams up to `limit` pairs of `cursor` into `buf` as a `SCAN_PAGE`. A
/// `limit` of 0 is answered as 1; a full page resumes at the successor of
/// its last key, `last ++ 00`: the key copied from the frame into the
/// zeroed resume key, one byte longer.
pub(crate) fn stream_scan_page(buf: &mut BytesMut, cursor: &mut Cursor<'_, u64>, limit: u32) {
    let (limit, mut last) = (limit.max(1) as usize, 0..0);
    let count = put_pairs(buf, TAG_SCAN_PAGE, |buf| {
        cursor.visit_next(limit, |key, &value| {
            put_pair(buf, key, value);
            last = buf.len() - 8 - key.len()..buf.len() - 8;
        })
    });
    let full = count == limit;
    let at = put_resume(buf, full.then_some(last.len() + 1));
    if full {
        buf.as_mut().copy_within(last, at);
    }
}

impl<'a> WireRequestRef<'a> {
    /// Decodes one request from the front of `buf` and moves `buf` past
    /// it; on `None` (empty, truncated, unknown tag, a `STATS` with a key)
    /// `buf` is left as it was. The request parser: nothing else reads
    /// request bytes.
    pub fn decode(buf: &mut &'a [u8]) -> Option<Self> {
        let mut reader = Reader(buf);
        let tag = reader.u8()?;
        let key = reader.bytes()?;
        let request = match tag {
            TAG_GET => WireRequestRef::Get { key },
            TAG_SET => WireRequestRef::Set {
                key,
                value: reader.u64()?,
            },
            TAG_RANGE => WireRequestRef::Range {
                start: key,
                count: reader.u32()?,
            },
            TAG_STATS if key.is_empty() => WireRequestRef::Stats,
            TAG_SCAN => WireRequestRef::Scan {
                start: key,
                limit: reader.u32()?,
            },
            _ => return None,
        };
        *buf = reader.0;
        Some(request)
    }

    /// Copies the key out of the frame.
    pub fn to_owned(&self) -> WireRequest {
        match *self {
            WireRequestRef::Get { key } => WireRequest::Get { key: key.to_vec() },
            WireRequestRef::Set { key, value } => WireRequest::Set {
                key: key.to_vec(),
                value,
            },
            WireRequestRef::Range { start, count } => WireRequest::Range {
                start: start.to_vec(),
                count,
            },
            WireRequestRef::Stats => WireRequest::Stats,
            WireRequestRef::Scan { start, limit } => WireRequest::Scan {
                start: start.to_vec(),
                limit,
            },
        }
    }

    /// The key a request routes by: its affinity signal. Multi-shard
    /// operations (`Range`, `Scan`) route by their start key; `Stats`
    /// routes to the first shard.
    pub fn routing_key(&self) -> &'a [u8] {
        match *self {
            WireRequestRef::Get { key } | WireRequestRef::Set { key, .. } => key,
            WireRequestRef::Range { start, .. } | WireRequestRef::Scan { start, .. } => start,
            WireRequestRef::Stats => b"",
        }
    }
}

impl<'a> WireResponseRef<'a> {
    /// Decodes one response from the front of `buf` and moves `buf` past
    /// it; on `None` (empty, truncated, unknown tag, a pair count the
    /// remaining bytes cannot hold, text that is not UTF-8) `buf` is left
    /// as it was. The response parser: nothing else reads response bytes.
    pub fn decode(buf: &mut &'a [u8]) -> Option<Self> {
        let mut reader = Reader(buf);
        let response = match reader.u8()? {
            TAG_VALUE => WireResponseRef::Value(reader.u64()?),
            TAG_MISS => WireResponseRef::Miss,
            TAG_RANGE_RESP => WireResponseRef::Range(reader.pairs()?),
            TAG_STATS_RESP => WireResponseRef::Stats(std::str::from_utf8(reader.bytes()?).ok()?),
            TAG_SCAN_PAGE => {
                let items = reader.pairs()?;
                let resume = match reader.u8()? {
                    0 => None,
                    _ => Some(reader.bytes()?),
                };
                WireResponseRef::ScanPage { items, resume }
            }
            _ => return None,
        };
        *buf = reader.0;
        Some(response)
    }

    /// Copies keys and text out of the frame.
    pub fn to_owned(&self) -> WireResponse {
        match *self {
            WireResponseRef::Value(value) => WireResponse::Value(value),
            WireResponseRef::Miss => WireResponse::Miss,
            WireResponseRef::Range(items) => WireResponse::Range(items.to_vec()),
            WireResponseRef::Stats(text) => WireResponse::Stats(text.to_string()),
            WireResponseRef::ScanPage { items, resume } => WireResponse::ScanPage {
                items: items.to_vec(),
                resume: resume.map(<[u8]>::to_vec),
            },
        }
    }
}

/// Parses `frame` into `requests`, and each request's start offset in the
/// frame into `starts` (both cleared first), up to the end of the frame or
/// the first byte that is not a request. Returns whether the whole frame
/// parsed; what precedes a malformed tail is kept.
pub(crate) fn parse_frame<'a>(
    frame: &'a [u8],
    requests: &mut Vec<WireRequestRef<'a>>,
    starts: &mut Vec<usize>,
) -> bool {
    requests.clear();
    starts.clear();
    let mut rest = frame;
    loop {
        let start = frame.len() - rest.len();
        let Some(request) = WireRequestRef::decode(&mut rest) else {
            return rest.is_empty();
        };
        requests.push(request);
        starts.push(start);
    }
}

/// Decodes the requests of `frame` that start at `starts`, offsets a
/// [`parse_frame`] of the same frame recorded, into `requests` (cleared
/// first): a share of the frame, without decoding the rest of it.
pub(crate) fn parse_at<'a>(
    frame: &'a [u8],
    starts: impl IntoIterator<Item = usize>,
    requests: &mut Vec<WireRequestRef<'a>>,
) {
    requests.clear();
    requests.extend(starts.into_iter().map(|start| {
        let mut rest = &frame[start..];
        WireRequestRef::decode(&mut rest).expect("a parsed request starts at each offset")
    }));
}

/// An analytic model of the client/server link.
///
/// Defaults match the paper's testbed: one 100 Gb/s InfiniBand link
/// (Mellanox ConnectX-4), ~2 µs one-way latency, and batches of 800
/// requests per RDMA send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Link bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// One-way latency in microseconds.
    pub one_way_latency_us: f64,
    /// Fixed overhead per message (headers, RDMA verbs), in bytes.
    pub per_message_overhead_bytes: usize,
    /// Requests batched into one message.
    pub batch_size: usize,
    /// Host CPU time consumed by the networking stack per request, in
    /// nanoseconds (HERD's request dispatch cost).
    pub per_request_cpu_ns: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::infiniband_100g()
    }
}

impl LinkModel {
    /// The paper's 100 Gb/s InfiniBand configuration with batch size 800.
    pub fn infiniband_100g() -> Self {
        Self {
            bandwidth_gbps: 100.0,
            one_way_latency_us: 2.0,
            per_message_overhead_bytes: 64,
            batch_size: 800,
            per_request_cpu_ns: 10.0,
        }
    }

    /// Bytes per second of usable bandwidth.
    pub fn bytes_per_second(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0
    }

    /// Wire time for one request/response pair of the given sizes, averaged
    /// over a full batch (latency and per-message overhead are amortised).
    pub fn wire_seconds_per_op(&self, request_bytes: usize, response_bytes: usize) -> f64 {
        let payload = (request_bytes + response_bytes) as f64
            + 2.0 * self.per_message_overhead_bytes as f64 / self.batch_size as f64;
        let transfer = payload / self.bytes_per_second();
        let latency = 2.0 * self.one_way_latency_us * 1e-6 / self.batch_size as f64;
        transfer + latency
    }

    /// Converts a measured server-side index throughput (operations per
    /// second) into the throughput observed through the link, for operations
    /// with the given average wire sizes.
    ///
    /// The pipeline is limited by the slower of the host (index time plus
    /// per-request networking CPU) and the wire.
    pub fn delivered_ops_per_second(
        &self,
        server_ops_per_second: f64,
        request_bytes: usize,
        response_bytes: usize,
    ) -> f64 {
        assert!(server_ops_per_second > 0.0);
        let host_seconds = 1.0 / server_ops_per_second + self.per_request_cpu_ns * 1e-9;
        let wire_seconds = self.wire_seconds_per_op(request_bytes, response_bytes);
        1.0 / host_seconds.max(wire_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            WireRequest::Get {
                key: b"James".to_vec(),
            },
            WireRequest::Set {
                key: b"Jason".to_vec(),
                value: 42,
            },
            WireRequest::Range {
                start: b"J".to_vec(),
                count: 100,
            },
            WireRequest::Stats,
            WireRequest::Scan {
                start: b"Jam".to_vec(),
                limit: 64,
            },
        ];
        let mut buf = BytesMut::new();
        for r in &reqs {
            r.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        let mut decoded = Vec::new();
        while let Some(r) = WireRequest::decode(&mut bytes) {
            decoded.push(r);
        }
        assert_eq!(decoded, reqs);
    }

    #[test]
    fn response_roundtrip() {
        let resps = vec![
            WireResponse::Value(7),
            WireResponse::Miss,
            WireResponse::Range(vec![(b"a".to_vec(), 1), (b"bb".to_vec(), 2)]),
            WireResponse::Stats("netsim_requests_total 3\n".to_string()),
            WireResponse::ScanPage {
                items: vec![(b"k1".to_vec(), 7), (b"k2".to_vec(), 8)],
                resume: Some(b"k2\x00".to_vec()),
            },
            WireResponse::ScanPage {
                items: Vec::new(),
                resume: None,
            },
        ];
        let mut buf = BytesMut::new();
        for r in &resps {
            r.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        let mut decoded = Vec::new();
        while let Some(r) = WireResponse::decode(&mut bytes) {
            decoded.push(r);
        }
        assert_eq!(decoded, resps);
    }

    #[test]
    fn wire_sizes_match_encoding() {
        let requests = [
            WireRequest::Set {
                key: vec![1; 30],
                value: 9,
            },
            WireRequest::Stats,
            WireRequest::Scan {
                start: vec![4; 12],
                limit: 500,
            },
        ];
        for req in requests {
            let mut buf = BytesMut::new();
            req.encode(&mut buf);
            assert_eq!(buf.len(), req.wire_size());
        }
    }

    /// Encodes one frame and renders it as uppercase spaced hex — the
    /// format `docs/src/wire-protocol.md` uses for its byte-layout
    /// examples.
    pub(crate) fn encode_hex(encode: impl FnOnce(&mut BytesMut)) -> String {
        let mut buf = BytesMut::new();
        encode(&mut buf);
        buf.as_ref()
            .iter()
            .map(|b| format!("{b:02X}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Known-answer tests: the exact bytes of one example frame per tag.
    /// These vectors are the normative examples of
    /// `docs/src/wire-protocol.md`; `docs_examples::wire_protocol_doc…`
    /// asserts the doc quotes them verbatim. Integers are big-endian
    /// (network byte order).
    #[test]
    fn known_answer_frames() {
        let cases: Vec<(WireRequest, &str)> = vec![
            (
                WireRequest::Get {
                    key: b"Jam".to_vec(),
                },
                "01 00 00 00 03 4A 61 6D",
            ),
            (
                WireRequest::Set {
                    key: b"k1".to_vec(),
                    value: 7,
                },
                "02 00 00 00 02 6B 31 00 00 00 00 00 00 00 07",
            ),
            (
                WireRequest::Range {
                    start: b"J".to_vec(),
                    count: 2,
                },
                "03 00 00 00 01 4A 00 00 00 02",
            ),
            (WireRequest::Stats, "04 00 00 00 00"),
            (
                WireRequest::Scan {
                    start: b"k1".to_vec(),
                    limit: 2,
                },
                "05 00 00 00 02 6B 31 00 00 00 02",
            ),
        ];
        for (req, hex) in cases {
            assert_eq!(encode_hex(|buf| req.encode(buf)), hex, "{req:?}");
        }
        let cases: Vec<(WireResponse, &str)> = vec![
            (WireResponse::Value(7), "01 00 00 00 00 00 00 00 07"),
            (WireResponse::Miss, "02"),
            (
                WireResponse::Range(vec![(b"a".to_vec(), 1)]),
                "03 00 00 00 01 00 00 00 01 61 00 00 00 00 00 00 00 01",
            ),
            (
                WireResponse::Stats("a 1\n".to_string()),
                "04 00 00 00 04 61 20 31 0A",
            ),
            (
                WireResponse::ScanPage {
                    items: vec![(b"k1".to_vec(), 7), (b"k2".to_vec(), 8)],
                    resume: Some(b"k2\x00".to_vec()),
                },
                "05 00 00 00 02 \
                 00 00 00 02 6B 31 00 00 00 00 00 00 00 07 \
                 00 00 00 02 6B 32 00 00 00 00 00 00 00 08 \
                 01 00 00 00 03 6B 32 00",
            ),
            (
                WireResponse::ScanPage {
                    items: Vec::new(),
                    resume: None,
                },
                "05 00 00 00 00 00",
            ),
        ];
        for (resp, hex) in cases {
            let hex: String = hex.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(encode_hex(|buf| resp.encode(buf)), hex, "{resp:?}");
        }
    }

    /// A streamed `RANGE` or `SCAN_PAGE` is byte for byte the owned
    /// response of the same pairs, and decodes back to them: pages of 0,
    /// 1, `limit - 1` and `limit` pairs, a `limit` of 0, a `count` of 0,
    /// over keys of 0, 1 and 300 bytes.
    #[test]
    fn streamed_pairs_encode_like_the_owned_responses() {
        // Ascending keys: the empty key, then 1 and 300 bytes by turns.
        let store: Vec<(Vec<u8>, u64)> = (0..8u8)
            .map(|i| {
                let len = [300, 1][usize::from(i % 2)] * usize::from(i > 0);
                (vec![i; len], u64::from(i) << 40 | 7)
            })
            .collect();
        let lens: Vec<usize> = store[..3].iter().map(|(key, _)| key.len()).collect();
        assert_eq!(lens, [0, 1, 300]);
        // A cursor over the first `n` pairs of the store.
        let cursor = |n: usize| {
            let pairs = &store[..n];
            Cursor::adapt_range_from(b"", move |from: &[u8], count| {
                let at = pairs.partition_point(|(key, _)| key.as_slice() < from);
                pairs[at..].iter().take(count).cloned().collect()
            })
        };
        let check = |streamed: BytesMut, owned: WireResponse| {
            let mut encoded = BytesMut::new();
            owned.encode(&mut encoded);
            assert_eq!(streamed, encoded, "{owned:?}");
            let mut rest = streamed.as_ref();
            let decoded = WireResponseRef::decode(&mut rest).map(|r| r.to_owned());
            assert_eq!(decoded, Some(owned));
            assert!(rest.is_empty());
        };
        // (pairs stored, limit): pages of 0, 1, limit - 1 and limit pairs
        // (the last of a longer scan), and a limit of 0, answered as 1.
        for (stored, limit) in [(0, 4), (1, 4), (3, 4), (4, 4), (8, 4), (3, 0)] {
            let mut streamed = BytesMut::new();
            stream_scan_page(&mut streamed, &mut cursor(stored), limit);
            let page = limit.max(1) as usize;
            let items = store[..stored.min(page)].to_vec();
            let resume = (items.len() == page).then(|| [&items[page - 1].0[..], &[0]].concat());
            check(streamed, WireResponse::ScanPage { items, resume });
        }
        for (stored, count) in [(3, 0), (3, 2), (3, 3), (8, 5)] {
            let mut streamed = BytesMut::new();
            stream_range(&mut streamed, &mut cursor(stored), count);
            check(
                streamed,
                WireResponse::Range(store[..stored.min(count as usize)].to_vec()),
            );
        }
    }

    /// The forward-compatibility rule the protocol documents: a decoder
    /// that meets an unknown tag returns `None` and stops consuming the
    /// batch, rather than guessing at the frame's extent.
    #[test]
    fn unknown_tag_stops_decoding() {
        let mut buf = BytesMut::new();
        WireRequest::Get {
            key: b"ok".to_vec(),
        }
        .encode(&mut buf);
        buf.put_u8(0x7F); // unknown tag
        buf.put_u32(0); // generic empty-key prefix
        let mut bytes = buf.freeze();
        assert!(WireRequest::decode(&mut bytes).is_some());
        assert_eq!(WireRequest::decode(&mut bytes), None);
        let mut resp = BytesMut::new();
        resp.put_u8(0x7F);
        let mut bytes = resp.freeze();
        assert_eq!(WireResponse::decode(&mut bytes), None);
    }

    /// One request and one response of every kind, keys and text of
    /// lengths the property tests below cut and corrupt everywhere.
    fn one_of_each() -> (Vec<WireRequest>, Vec<WireResponse>) {
        let requests = vec![
            WireRequest::Get {
                key: b"James".to_vec(),
            },
            WireRequest::Set {
                key: b"Jason".to_vec(),
                value: 0x0102_0304_0506_0708,
            },
            WireRequest::Range {
                start: b"J".to_vec(),
                count: 100,
            },
            WireRequest::Stats,
            WireRequest::Scan {
                start: b"Jam".to_vec(),
                limit: 64,
            },
        ];
        let responses = vec![
            WireResponse::Value(7),
            WireResponse::Miss,
            WireResponse::Range(vec![(b"a".to_vec(), 1), (b"bb".to_vec(), 2)]),
            WireResponse::Stats("netsim_requests_total 3\n".to_string()),
            WireResponse::ScanPage {
                items: vec![(b"k1".to_vec(), 7), (Vec::new(), 8)],
                resume: Some(b"k2\x00".to_vec()),
            },
        ];
        (requests, responses)
    }

    /// Decodes `frame` as requests and as responses, borrowed and owned,
    /// to the first `None` each way. Asserts that the two decoders of a
    /// direction agree and that an owned pair list never holds more
    /// entries than the frame has bytes; a panic anywhere fails the test.
    fn decode_every_way(frame: &[u8]) -> (Vec<WireRequest>, Vec<WireResponse>) {
        let mut rest = frame;
        let mut owned = Bytes::copy_from_slice(frame);
        let mut requests = Vec::new();
        while let Some(request) = WireRequestRef::decode(&mut rest) {
            assert_eq!(WireRequest::decode(&mut owned), Some(request.to_owned()));
            requests.push(request.to_owned());
        }
        assert_eq!(WireRequest::decode(&mut owned), None);
        assert_eq!(owned.as_ref(), rest, "a refused request consumes nothing");

        let mut rest = frame;
        let mut owned = Bytes::copy_from_slice(frame);
        let mut responses = Vec::new();
        while let Some(response) = WireResponseRef::decode(&mut rest) {
            assert_eq!(WireResponse::decode(&mut owned), Some(response.to_owned()));
            if let WireResponse::Range(items) | WireResponse::ScanPage { items, .. } =
                response.to_owned()
            {
                assert!(items.capacity() <= frame.len(), "reserved beyond the input");
            }
            responses.push(response.to_owned());
        }
        assert_eq!(WireResponse::decode(&mut owned), None);
        assert_eq!(owned.as_ref(), rest, "a refused response consumes nothing");

        let (mut parsed, mut starts) = (Vec::new(), Vec::new());
        let whole = parse_frame(frame, &mut parsed, &mut starts);
        assert!(parsed.capacity() <= frame.len().max(4));
        // Decoding at the recorded offsets, all of them or a share, gives
        // what the full parse gave at those slots.
        let mut at = Vec::new();
        parse_at(frame, starts.iter().copied(), &mut at);
        assert_eq!(at, parsed, "offset parsing equals the full parse");
        parse_at(frame, starts.iter().copied().skip(1).step_by(2), &mut at);
        assert!(at.iter().eq(parsed.iter().skip(1).step_by(2)));
        let parsed: Vec<WireRequest> = parsed.iter().map(WireRequestRef::to_owned).collect();
        assert_eq!(
            parsed, requests,
            "the frame parses to the requests decode saw"
        );
        assert_eq!(
            whole,
            requests.iter().map(WireRequest::wire_size).sum::<usize>() == frame.len()
        );
        (requests, responses)
    }

    #[test]
    fn valid_frames_decode_identically_borrowed_and_owned() {
        let (requests, responses) = one_of_each();
        let mut buf = BytesMut::new();
        requests.iter().for_each(|request| request.encode(&mut buf));
        assert_eq!(decode_every_way(buf.as_ref()).0, requests);
        let mut buf = BytesMut::new();
        responses
            .iter()
            .for_each(|response| response.encode(&mut buf));
        assert_eq!(decode_every_way(buf.as_ref()).1, responses);
    }

    #[test]
    fn every_prefix_and_single_byte_corruption_is_refused_or_decoded() {
        let (requests, responses) = one_of_each();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for request in &requests {
            let mut buf = BytesMut::new();
            request.encode(&mut buf);
            frames.push(buf.as_ref().to_vec());
        }
        for response in &responses {
            let mut buf = BytesMut::new();
            response.encode(&mut buf);
            frames.push(buf.as_ref().to_vec());
        }
        for frame in &frames {
            for cut in 0..frame.len() {
                // A strict prefix of one frame holds no whole frame of
                // its own direction (of the other it may, by accident).
                decode_every_way(&frame[..cut]);
            }
            for at in 0..frame.len() {
                for byte in [0x00, 0x01, 0x7F, 0x80, 0xFF, frame[at] ^ 0x01, !frame[at]] {
                    let mut corrupt = frame.clone();
                    corrupt[at] = byte;
                    decode_every_way(&corrupt);
                }
            }
        }
        // Truncation is refused, not padded: no strict prefix of a request
        // decodes as that request's direction.
        let mut buf = BytesMut::new();
        requests[1].encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(decode_every_way(&buf.as_ref()[..cut]).0.is_empty());
        }
    }

    /// The five bytes the issue names: a page that announces four billion
    /// pairs. Refused from the count alone, nothing sized by it.
    #[test]
    fn an_announced_count_is_bounded_by_the_bytes_left() {
        for tag in [TAG_RANGE_RESP, TAG_SCAN_PAGE] {
            let frame = [tag, 0xFF, 0xFF, 0xFF, 0xFF];
            assert!(decode_every_way(&frame).1.is_empty());
            // Twelve bytes per announced pair must really be there.
            let mut frame = vec![tag, 0, 0, 0, 2];
            frame.extend_from_slice(&[0u8; 23]);
            assert!(decode_every_way(&frame).1.is_empty());
        }
        // A key length beyond the frame: refused, not sliced.
        assert!(decode_every_way(&[TAG_GET, 0xFF, 0xFF, 0xFF, 0xFF, b'k'])
            .0
            .is_empty());
        assert!(decode_every_way(&[TAG_STATS_RESP, 0, 0, 0, 2, 0xC3, 0x28])
            .1
            .is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic either decoder and never make one
        /// reserve beyond the input; `decode_every_way` holds the checks.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            tag in 0u8..8,
        ) {
            decode_every_way(&bytes);
            // The same bytes behind each real tag, so the length and count
            // fields are reached and not only the tag check.
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&bytes);
            decode_every_way(&tagged);
        }
    }

    #[test]
    fn fast_host_is_wire_limited_only_for_large_keys() {
        let link = LinkModel::infiniband_100g();
        // A server that can do 20 Mops locally (the paper's Wormhole).
        let server = 20e6;
        // 40-byte keys: the host remains the bottleneck, so the delivered
        // throughput is within ~20% of the local number.
        let small = link.delivered_ops_per_second(server, 45, 9);
        assert!(small > 0.8 * server, "small keys should stay host-limited");
        // 1 KB keys (K10): the wire becomes the bottleneck and throughput
        // drops well below the local number, as in Figure 12.
        let large = link.delivered_ops_per_second(server, 1029, 9);
        assert!(large < 0.75 * server, "1KB keys should be wire-limited");
        assert!(large > 1e6, "the 100Gb/s link still delivers > 1 Mops");
    }

    #[test]
    fn slower_link_reduces_throughput() {
        let fast = LinkModel::infiniband_100g();
        let slow = LinkModel {
            bandwidth_gbps: 1.0,
            ..LinkModel::infiniband_100g()
        };
        let t_fast = fast.delivered_ops_per_second(10e6, 100, 9);
        let t_slow = slow.delivered_ops_per_second(10e6, 100, 9);
        assert!(t_slow < t_fast);
    }
}
