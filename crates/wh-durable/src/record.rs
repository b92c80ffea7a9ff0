//! WAL record framing: length- and CRC-framed records with a stable wire
//! format.
//!
//! Every record is one *frame*:
//!
//! ```text
//! frame   := len:u32le | crc:u32le | payload[len]
//! payload := tag:u8 | lsn:u64le | body
//! ```
//!
//! `crc` is the CRC-32c ([`wh_hash::crc32c()`]) of the payload bytes. The
//! four record kinds and their bodies:
//!
//! | tag | record        | body                                    |
//! |-----|---------------|-----------------------------------------|
//! | 1   | `Put`         | `klen:u32le | key | vlen:u32le | value` |
//! | 2   | `Delete`      | `klen:u32le | key`                      |
//! | 3   | `DeleteRange` | `lolen:u32le | lo | hilen:u32le | hi`   |
//! | 4   | `Commit`      | (empty — `lsn` is the sealed-through LSN) |
//!
//! The format is deliberately boring and deliberately *frozen*: the
//! known-answer tests in this module pin exact frame bytes (including the
//! CRC), so any refactor that silently changes the wire format — a field
//! reorder, an endianness slip, a CRC variant swap — fails loudly instead
//! of corrupting recovery of logs written by an older build.
//!
//! A frame walk ([`FrameReader`]) decodes a byte stream frame by frame and
//! stops at the first frame that is incomplete or fails its CRC — the
//! *torn tail* — or whose LSN is out of order: the walk keeps a floor, one
//! below the segment's first LSN to begin with and then the LSN of each
//! frame it accepts, and an operation must carry an LSN above the floor, a
//! `Commit` one at or above it. A segment file may be a reused one whose
//! bytes past what this segment wrote are an older segment's frames, every
//! one of them at or below the floor the walk starts from, so the walk
//! stops at the first of them. Everything before the stop is trusted;
//! everything at and after it is discarded by recovery (see
//! [`crate::wal`]).

use wh_hash::crc32c;

/// Frame header size: `len:u32` + `crc:u32`.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single payload, rejected as corruption beyond it. A
/// torn length field must never provoke a absurd allocation.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Record tags (frozen wire constants).
pub const TAG_PUT: u8 = 1;
/// See [`TAG_PUT`].
pub const TAG_DELETE: u8 = 2;
/// See [`TAG_PUT`].
pub const TAG_DELETE_RANGE: u8 = 3;
/// See [`TAG_PUT`].
pub const TAG_COMMIT: u8 = 4;

/// A decoded WAL record (owning its byte payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert or overwrite `key` with the encoded `value`.
    Put {
        /// Log sequence number of the operation.
        lsn: u64,
        /// The key bytes.
        key: Vec<u8>,
        /// The value, encoded by [`crate::DurableValue::encode_into`].
        value: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// Log sequence number of the operation.
        lsn: u64,
        /// The key bytes.
        key: Vec<u8>,
    },
    /// Remove every key in `lo <= key < hi`.
    DeleteRange {
        /// Log sequence number of the operation.
        lsn: u64,
        /// Inclusive lower bound.
        lo: Vec<u8>,
        /// Exclusive upper bound.
        hi: Vec<u8>,
    },
    /// Seals every operation record with `lsn <= lsn` as committed.
    Commit {
        /// The sealed-through LSN.
        lsn: u64,
    },
}

impl WalRecord {
    /// The record's LSN (for `Commit`, the sealed-through LSN).
    pub fn lsn(&self) -> u64 {
        match self {
            WalRecord::Put { lsn, .. }
            | WalRecord::Delete { lsn, .. }
            | WalRecord::DeleteRange { lsn, .. }
            | WalRecord::Commit { lsn } => *lsn,
        }
    }
}

/// Appends one frame in place: the header is reserved, the payload
/// (`tag | lsn`, then what `body` appends) is written behind it, and the
/// header's `len` and CRC are patched in — no intermediate block.
fn frame_into(out: &mut Vec<u8>, tag: u8, lsn: u64, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.push(tag);
    out.extend_from_slice(&lsn.to_le_bytes());
    body(out);
    let len = out.len() - start - FRAME_HEADER;
    debug_assert!(len <= MAX_PAYLOAD);
    let crc = crc32c(&out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Appends `len:u32le | bytes`, `write` appending the bytes in place and
/// the length patched in after: how a value's encoder fills a frame.
pub(crate) fn push_sized(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

pub(crate) fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Splits `len:u32le | bytes`, as [`push_bytes`] and [`push_sized`] write
/// it, off the front of `rest`: the one reader of that layout, in WAL
/// payloads and snapshot records alike. `None` when `rest` is too short.
pub(crate) fn take_sized<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let (len, tail) = rest.split_first_chunk::<4>()?;
    let (bytes, tail) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)?;
    *rest = tail;
    Some(bytes)
}

/// Appends a framed `Put` record to `out`.
pub fn encode_put(out: &mut Vec<u8>, lsn: u64, key: &[u8], value: &[u8]) {
    encode_put_with(out, lsn, key, |out| out.extend_from_slice(value));
}

/// Appends a framed `Put` record whose value `value` encodes in place
/// (e.g. [`crate::DurableValue::encode_into`]).
pub fn encode_put_with(out: &mut Vec<u8>, lsn: u64, key: &[u8], value: impl FnOnce(&mut Vec<u8>)) {
    frame_into(out, TAG_PUT, lsn, |out| {
        push_bytes(out, key);
        push_sized(out, value);
    });
}

/// Appends a framed `Delete` record to `out`.
pub fn encode_delete(out: &mut Vec<u8>, lsn: u64, key: &[u8]) {
    frame_into(out, TAG_DELETE, lsn, |out| push_bytes(out, key));
}

/// Appends a framed `DeleteRange` record to `out`.
pub fn encode_delete_range(out: &mut Vec<u8>, lsn: u64, lo: &[u8], hi: &[u8]) {
    frame_into(out, TAG_DELETE_RANGE, lsn, |out| {
        push_bytes(out, lo);
        push_bytes(out, hi);
    });
}

/// Appends a framed `Commit` record to `out`.
pub fn encode_commit(out: &mut Vec<u8>, lsn: u64) {
    frame_into(out, TAG_COMMIT, lsn, |_| {});
}

fn read_u32(buf: &[u8], pos: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?))
}

/// Decodes one payload (past its validated frame header). `None` means the
/// payload is malformed — recovery treats this like a CRC failure.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (&tag, rest) = payload.split_first()?;
    let (lsn, mut rest) = rest.split_first_chunk::<8>()?;
    let lsn = u64::from_le_bytes(*lsn);
    let mut chunk = || take_sized(&mut rest).map(<[u8]>::to_vec);
    let record = match tag {
        TAG_PUT => WalRecord::Put {
            lsn,
            key: chunk()?,
            value: chunk()?,
        },
        TAG_DELETE => WalRecord::Delete { lsn, key: chunk()? },
        TAG_DELETE_RANGE => WalRecord::DeleteRange {
            lsn,
            lo: chunk()?,
            hi: chunk()?,
        },
        TAG_COMMIT => WalRecord::Commit { lsn },
        _ => return None,
    };
    // Trailing garbage inside a CRC-valid payload is still corruption.
    rest.is_empty().then_some(record)
}

/// Walks a byte stream frame by frame, stopping at the torn tail or at
/// the first frame whose LSN is out of order (see the module docs).
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// An operation's LSN must be above it, a `Commit`'s at or above it.
    floor: u64,
}

impl<'a> FrameReader<'a> {
    /// Starts a frame walk at the beginning of `buf`, a segment whose
    /// first LSN is `first_lsn`.
    pub fn new(buf: &'a [u8], first_lsn: u64) -> Self {
        Self {
            buf,
            pos: 0,
            floor: first_lsn.saturating_sub(1),
        }
    }

    /// Byte offset of the next undecoded frame — after the walk ends, the
    /// length of the valid prefix (the torn-tail truncation point).
    pub fn valid_len(&self) -> usize {
        self.pos
    }
}

impl Iterator for FrameReader<'_> {
    type Item = WalRecord;

    /// Decodes the next frame, or `None` at the end of the valid prefix
    /// (clean end of stream, torn tail or a reused file's older frames —
    /// indistinguishable by design: recovery trusts exactly the frames this
    /// yields).
    fn next(&mut self) -> Option<WalRecord> {
        let len = read_u32(self.buf, self.pos)? as usize;
        if len > MAX_PAYLOAD {
            return None;
        }
        let crc = read_u32(self.buf, self.pos + 4)?;
        let start = self.pos + FRAME_HEADER;
        let payload = self.buf.get(start..start.checked_add(len)?)?;
        if crc32c(payload) != crc {
            return None;
        }
        let record = decode_payload(payload)?;
        let lsn = record.lsn();
        let in_order = match record {
            // A `Commit` carries the LSN it seals through, so it may repeat
            // the floor: an earlier build sealed an empty batch as
            // `Commit(first_lsn - 1)` at a segment's head.
            WalRecord::Commit { .. } => lsn >= self.floor,
            _ => lsn > self.floor,
        };
        if !in_order {
            return None;
        }
        self.floor = lsn;
        self.pos = start + len;
        Some(record)
    }
}

/// Replays a segment, whose first LSN is `first_lsn`, with commit
/// semantics: operation records are buffered and handed to `apply` only
/// once a `Commit` frame at or above their LSN is decoded. Returns
/// `(valid_len, committed_lsn, max_lsn)`: the torn-tail truncation point,
/// the highest sealed LSN, and the highest LSN observed in any valid frame
/// (committed or not).
///
/// This is *the* definition of recovery: a logged operation exists after a
/// crash exactly when a `Commit` frame covering it survived — which is
/// also exactly when the writer's `commit()` call could have returned, so
/// no acknowledged operation is ever lost and no torn batch is ever
/// half-applied.
pub fn replay_committed(
    buf: &[u8],
    first_lsn: u64,
    mut apply: impl FnMut(&WalRecord),
) -> (usize, u64, u64) {
    let mut reader = FrameReader::new(buf, first_lsn);
    let mut buffered: Vec<WalRecord> = Vec::new();
    let mut committed_lsn = 0u64;
    let mut max_lsn = 0u64;
    let mut committed_end = 0usize;
    while let Some(record) = reader.next() {
        max_lsn = max_lsn.max(record.lsn());
        match record {
            WalRecord::Commit { lsn } => {
                // One in-order pass: apply and drop what the commit seals,
                // keep the rest buffered in order.
                buffered.retain(|op| {
                    let sealed = op.lsn() <= lsn;
                    if sealed {
                        apply(op);
                    }
                    !sealed
                });
                committed_lsn = committed_lsn.max(lsn);
                committed_end = reader.valid_len();
            }
            op => buffered.push(op),
        }
    }
    // Uncommitted tail operations are discarded: the truncation point is
    // the end of the last Commit frame, not the last valid frame.
    (committed_end, committed_lsn, max_lsn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_record_kinds() {
        let mut buf = Vec::new();
        encode_put(&mut buf, 1, b"key", b"value");
        encode_delete(&mut buf, 2, b"key");
        encode_delete_range(&mut buf, 3, b"a", b"z");
        encode_commit(&mut buf, 3);
        let mut reader = FrameReader::new(&buf, 1);
        assert_eq!(
            reader.next(),
            Some(WalRecord::Put {
                lsn: 1,
                key: b"key".to_vec(),
                value: b"value".to_vec()
            })
        );
        assert_eq!(
            reader.next(),
            Some(WalRecord::Delete {
                lsn: 2,
                key: b"key".to_vec()
            })
        );
        assert_eq!(
            reader.next(),
            Some(WalRecord::DeleteRange {
                lsn: 3,
                lo: b"a".to_vec(),
                hi: b"z".to_vec()
            })
        );
        assert_eq!(reader.next(), Some(WalRecord::Commit { lsn: 3 }));
        assert_eq!(reader.next(), None);
        assert_eq!(reader.valid_len(), buf.len());
    }

    #[test]
    fn torn_tail_stops_the_walk_at_every_truncation_point() {
        let mut buf = Vec::new();
        encode_put(&mut buf, 1, b"alpha", b"1");
        encode_commit(&mut buf, 1);
        let first_two = buf.len();
        encode_put(&mut buf, 2, b"beta", b"2");
        for cut in first_two..buf.len() {
            let mut reader = FrameReader::new(&buf[..cut], 1);
            assert!(reader.next().is_some(), "cut={cut}: first frame intact");
            assert!(reader.next().is_some(), "cut={cut}: commit intact");
            assert_eq!(reader.next(), None, "cut={cut}: torn frame yielded");
            assert_eq!(reader.valid_len(), first_two, "cut={cut}");
        }
    }

    #[test]
    fn corrupt_byte_anywhere_is_detected() {
        let mut clean = Vec::new();
        encode_put(&mut clean, 7, b"key-7", b"val-7");
        encode_commit(&mut clean, 7);
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            let mut map = std::collections::BTreeMap::new();
            let (_, committed, _) = replay_committed(&bad, 1, |record| {
                if let WalRecord::Put { key, value, .. } = record {
                    map.insert(key.clone(), value.clone());
                }
            });
            // Either the put frame died (nothing applied) or the commit
            // frame died (nothing committed); a flipped bit may only ever
            // shrink the committed prefix, never corrupt a value.
            if committed == 7 {
                // The flip landed in a frame that still validated — the
                // only way that happens is a flip in the *length* of a
                // frame that then re-framed... which the CRC rejects; so
                // a full commit means the put survived byte-identical.
                assert_eq!(map.get(&b"key-7"[..]), Some(&b"val-7".to_vec()), "i={i}");
            } else {
                assert_eq!(committed, 0, "i={i}");
            }
        }
    }

    #[test]
    fn replay_applies_only_committed_records() {
        let mut buf = Vec::new();
        encode_put(&mut buf, 1, b"a", b"1");
        encode_put(&mut buf, 2, b"b", b"2");
        encode_commit(&mut buf, 2);
        let sealed = buf.len();
        encode_put(&mut buf, 3, b"c", b"3");
        // No commit for lsn 3: it must not be applied.
        let mut applied = Vec::new();
        let (valid, committed, max) = replay_committed(&buf, 1, |r| applied.push(r.lsn()));
        assert_eq!(applied, vec![1, 2]);
        assert_eq!(valid, sealed);
        assert_eq!(committed, 2);
        assert_eq!(max, 3);
    }

    /// A bulk load under one barrier is one commit over the whole log:
    /// replay applies it in one pass (a remove-per-record loop is
    /// quadratic and does not finish in CI time at this size).
    #[test]
    fn one_commit_over_a_hundred_thousand_records_replays_in_order() {
        const N: u64 = 100_000;
        let mut buf = Vec::new();
        for lsn in 1..N {
            encode_put(&mut buf, lsn, &lsn.to_be_bytes(), b"v");
        }
        encode_commit(&mut buf, N - 1);
        let sealed = buf.len();
        encode_put(&mut buf, N, &N.to_be_bytes(), b"v");
        let mut applied = Vec::with_capacity(N as usize);
        let (valid, committed, max) = replay_committed(&buf, 1, |r| applied.push(r.lsn()));
        assert!(applied.iter().copied().eq(1..N), "in LSN order, once each");
        assert_eq!((valid, committed, max), (sealed, N - 1, N));
    }

    /// A segment `wal-<first>` written over a reused file: its own frames,
    /// then an older segment's, whose LSNs are all below `first`. The walk
    /// ends at the first older frame, an operation or a `Commit`, even
    /// where it starts exactly at a frame boundary.
    #[test]
    fn a_walk_stops_at_the_first_frame_of_an_older_segment() {
        let first = 100;
        let mut old = Vec::new();
        encode_put(&mut old, first - 3, b"old", &[1; 200]);
        encode_commit(&mut old, first - 3);
        let op_at = old.len();
        encode_put(&mut old, first - 2, b"old", b"2");
        encode_put(&mut old, first - 1, b"old", b"3");
        let commit_at = old.len();
        encode_commit(&mut old, first - 1);
        let mut new = Vec::new();
        encode_put(&mut new, first, b"new", b"1");
        encode_commit(&mut new, first);
        for (stale, what) in [(op_at, "an operation"), (commit_at, "a commit")] {
            // Room for the new frames, the stale frame right behind them.
            let pad = stale.checked_sub(new.len()).expect("old image longer");
            let mut head = new.clone();
            encode_delete_range(&mut head, first + 1, &vec![b'x'; pad - 42], b"");
            encode_commit(&mut head, first + 1);
            assert_eq!(head.len(), stale, "{what}");
            let file = [&head[..], &old[stale..]].concat();
            let mut applied = Vec::new();
            let (valid, committed, max) = replay_committed(&file, first, |r| applied.push(r.lsn()));
            assert_eq!(applied, [first, first + 1], "{what}");
            assert_eq!(
                (valid, committed, max),
                (stale, first + 1, first + 1),
                "{what}"
            );
        }
        // With nothing written yet, the old image ends the walk at once,
        // but for a `Commit(first - 1)`, which seals nothing.
        assert_eq!(replay_committed(&old, first, |_| panic!()), (0, 0, 0));
        let head = replay_committed(&old[commit_at..], first, |_| panic!());
        assert_eq!(head, (17, first - 1, first - 1));
    }

    #[test]
    fn out_of_order_frames_end_the_walk() {
        let mut buf = Vec::new();
        encode_put(&mut buf, 5, b"a", b"1");
        encode_commit(&mut buf, 5);
        let sealed = buf.len();
        for (lsn, commit) in [(5, false), (4, false), (4, true)] {
            let mut bad = buf.clone();
            if commit {
                encode_commit(&mut bad, lsn);
            } else {
                encode_put(&mut bad, lsn, b"b", b"2");
                encode_commit(&mut bad, 6);
            }
            assert_eq!(
                replay_committed(&bad, 5, |_| {}).0,
                sealed,
                "{lsn} {commit}"
            );
        }
        // An operation below the segment's first LSN ends it; a commit that
        // repeats the one before it does not.
        assert_eq!(replay_committed(&buf, 6, |_| {}), (0, 0, 0));
        encode_commit(&mut buf, 5);
        assert_eq!(replay_committed(&buf, 5, |_| {}).0, buf.len());
    }

    /// Replays `buf` and checks what recovery may rely on: the trusted
    /// prefix ends where the last accepted `Commit` frame ends (0 without
    /// one) inside `buf`, every accepted frame is byte for byte the
    /// encoding of the record it decodes to and has a payload of at most
    /// [`MAX_PAYLOAD`], and replaying that prefix alone trusts all of it
    /// and commits the same LSN.
    fn check_replay_of_hostile(buf: &[u8]) {
        let mut reader = FrameReader::new(buf, 1);
        let mut last_commit_end = 0;
        let mut start = 0;
        while let Some(record) = reader.next() {
            let end = reader.valid_len();
            assert!(end - start - FRAME_HEADER <= MAX_PAYLOAD);
            let mut frame = Vec::new();
            match &record {
                WalRecord::Put { lsn, key, value } => encode_put(&mut frame, *lsn, key, value),
                WalRecord::Delete { lsn, key } => encode_delete(&mut frame, *lsn, key),
                WalRecord::DeleteRange { lsn, lo, hi } => {
                    encode_delete_range(&mut frame, *lsn, lo, hi)
                }
                WalRecord::Commit { lsn } => {
                    encode_commit(&mut frame, *lsn);
                    last_commit_end = end;
                }
            }
            assert_eq!(frame, buf[start..end]);
            start = end;
        }
        let (valid, committed, _) = replay_committed(buf, 1, |record| {
            assert!(!matches!(record, WalRecord::Commit { .. }));
        });
        assert!(valid <= buf.len());
        assert_eq!(valid, last_commit_end);
        let (again, recommitted, _) = replay_committed(&buf[..valid], 1, |_| {});
        assert_eq!((again, recommitted), (valid, committed));
    }

    /// Seeded arbitrary bytes, and a valid log flipped, cut, or given
    /// rewritten frame lengths (where the new length fits, again with a
    /// CRC that matches it, so decoding rather than the checksum must
    /// reject the frame).
    #[test]
    fn hostile_bytes_replay_to_the_last_accepted_commit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x5EED_0010);
        let bytes_of = |rng: &mut SmallRng, max: usize| -> Vec<u8> {
            let len = rng.gen_range(0..max);
            (0..len).map(|_| rng.gen::<u8>()).collect()
        };
        let mut log = Vec::new();
        let mut frame_starts = Vec::new();
        for lsn in 1..=60u64 {
            frame_starts.push(log.len());
            match rng.gen_range(0..4) {
                0 => encode_put(
                    &mut log,
                    lsn,
                    &bytes_of(&mut rng, 12),
                    &bytes_of(&mut rng, 20),
                ),
                1 => encode_delete(&mut log, lsn, &bytes_of(&mut rng, 12)),
                2 => encode_delete_range(&mut log, lsn, b"a", &bytes_of(&mut rng, 8)),
                _ => encode_commit(&mut log, lsn),
            }
        }
        check_replay_of_hostile(&log);

        for _ in 0..2_000 {
            check_replay_of_hostile(&bytes_of(&mut rng, 256));
        }
        for at in 0..log.len() {
            let mut bad = log.clone();
            bad[at] ^= rng.gen_range(1..=255u8);
            check_replay_of_hostile(&bad);
            check_replay_of_hostile(&log[..at]);
        }
        for &start in &frame_starts {
            let len = read_u32(&log, start).unwrap();
            let max = MAX_PAYLOAD as u32;
            for new_len in [0, 1, 8, len - 1, len + 1, rng.gen(), max, max + 1, u32::MAX] {
                let mut bad = log.clone();
                bad[start..start + 4].copy_from_slice(&new_len.to_le_bytes());
                check_replay_of_hostile(&bad);
                let payload = start + FRAME_HEADER;
                if let Some(body) = bad.get(payload..payload + new_len as usize) {
                    let crc = crc32c(body);
                    bad[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
                    check_replay_of_hostile(&bad);
                }
            }
        }
    }

    /// Known-answer frames: the exact bytes (including CRC) of fixed
    /// records. These pin the wire format — see the module docs.
    #[test]
    fn known_answer_frames() {
        let mut put = Vec::new();
        encode_put(&mut put, 0x0102030405060708, b"K", b"V");
        assert_eq!(put.len(), FRAME_HEADER + 1 + 8 + 4 + 1 + 4 + 1);
        // len = 19 bytes of payload.
        assert_eq!(&put[0..4], &19u32.to_le_bytes());
        // payload: tag | lsn le | klen | 'K' | vlen | 'V'
        assert_eq!(
            &put[8..],
            &[
                TAG_PUT, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 1, 0, 0, 0, b'K', 1, 0, 0,
                0, b'V'
            ]
        );
        // CRC-32c of that payload, little-endian (pinned value).
        assert_eq!(&put[4..8], &crc32c(&put[8..]).to_le_bytes());

        let mut commit = Vec::new();
        encode_commit(&mut commit, 1);
        assert_eq!(
            commit,
            [
                9, 0, 0, 0, // len
                commit[4], commit[5], commit[6], commit[7], // crc (pinned below)
                TAG_COMMIT, 1, 0, 0, 0, 0, 0, 0, 0,
            ]
        );
    }
}
