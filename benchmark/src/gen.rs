//! Inputs, all derived from `--seed`: keys, self-verifying values, and the
//! operation streams with the result each operation must return.

use std::time::Instant;

use netsim::{WireRequest, WireResponse};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::KeysetId;

/// The value stored under `key`: a hash of the key, so any read can be
/// checked without a model of the index.
pub fn value_of(key: &[u8]) -> u64 {
    wh_hash::mix64(u64::from(wh_hash::crc32c(key)) | (key.len() as u64) << 32)
}

/// `n` distinct `Az1` keys (the paper's Amazon item-user-time keyset) and
/// the seconds it took to generate them.
pub fn keys(n: usize, seed: u64) -> (Vec<Vec<u8>>, f64) {
    let start = Instant::now();
    let keys = workloads::generate(KeysetId::Az1, n, seed).keys;
    (keys, start.elapsed().as_secs_f64())
}

/// An order-sensitive 64-bit digest of a stream of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> Self {
        Self(0x5748_4253_5452_4D31)
    }
    pub fn push(&mut self, word: u64) {
        self.0 = wh_hash::mix64(self.0.rotate_left(17) ^ word);
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Keys laid out back to back in the order a loop will ask for them, so
/// fetching the next key is a sequential read and the cache misses a
/// round takes are the index's own.
pub struct FlatKeys {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl FlatKeys {
    pub fn from_iter<'a>(keys: impl Iterator<Item = &'a [u8]>) -> Self {
        let mut flat = Self {
            bytes: Vec::new(),
            ends: Vec::new(),
        };
        for key in keys {
            flat.bytes.extend_from_slice(key);
            flat.ends
                .push(u32::try_from(flat.bytes.len()).expect("under 4 GiB of query keys"));
        }
        flat
    }
    pub fn len(&self) -> usize {
        self.ends.len()
    }
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }
}

/// The lookup sequence of `index-get`: `count` uniform draws, one in ten
/// of them from `absent`, with the answer each must get.
pub struct GetStream {
    pub keys: FlatKeys,
    pub expected: Vec<Option<u64>>,
    pub hash: u64,
}

pub fn get_stream(
    resident: &[Vec<u8>],
    values: &[u64],
    absent: &[Vec<u8>],
    count: usize,
    seed: u64,
) -> GetStream {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4745_5453);
    let mut hash = StreamHash::new();
    let mut picks: Vec<(bool, usize)> = Vec::with_capacity(count);
    for _ in 0..count {
        let miss = rng.gen_range(0..10u32) == 0;
        let i = rng.gen_range(0..if miss { absent.len() } else { resident.len() });
        hash.push((i as u64) << 1 | u64::from(miss));
        picks.push((miss, i));
    }
    GetStream {
        keys: FlatKeys::from_iter(picks.iter().map(|&(miss, i)| {
            if miss {
                absent[i].as_slice()
            } else {
                resident[i].as_slice()
            }
        })),
        expected: picks
            .iter()
            .map(|&(miss, i)| (!miss).then(|| values[i]))
            .collect(),
        hash: hash.finish(),
    }
}

/// The sorted key array as indices: `by_rank[r]` is the key of rank `r`,
/// `rank_of[k]` the rank of key `k`.
fn ranks(keys: &[Vec<u8>]) -> (Vec<u32>, Vec<u32>) {
    let mut by_rank: Vec<u32> = (0..keys.len() as u32).collect();
    by_rank.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let mut rank_of = vec![0u32; keys.len()];
    for (rank, &key) in by_rank.iter().enumerate() {
        rank_of[key as usize] = rank as u32;
    }
    (by_rank, rank_of)
}

/// One call of the churn mix. `key` indexes the ring of keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// `set` of an absent key; must return `None`.
    Insert { key: u32 },
    /// `del` of the oldest resident; must return its value.
    Delete { key: u32 },
    /// `set` of a resident to the value it has; must return that value.
    Overwrite { key: u32 },
    /// Cursor scan of up to [`SCAN_KEYS`] pairs from a resident; must yield
    /// `count` pairs whose values, folded in the order they come by
    /// [`scan_digest`], give `digest`. A value names its key, so the digest
    /// checks which keys came and that they came in key order.
    Scan { key: u32, count: u8, digest: u64 },
}

/// One step of the order-sensitive fold over the values a scan yields.
#[inline]
pub fn scan_digest(digest: u64, value: u64) -> u64 {
    digest
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value)
}

pub const SCAN_KEYS: usize = 64;
/// Calls per repetition of the mix: 5 inserts, 5 deletes, 4 overwrites and
/// 2 scans, interleaved so that residents stay level.
pub const CHURN_GROUP: usize = 16;

/// The churn mix over a ring of keys, of which a sliding window of
/// `residents` is present. The stream covers one full turn of the ring
/// and then repeats: after `stream.len()` calls the window is back where
/// it started, holding the same keys with the same values.
pub struct ChurnStream {
    pub ops: Vec<ChurnOp>,
    pub residents: usize,
    pub hash: u64,
}

pub fn churn_stream(ring: &[Vec<u8>], values: &[u64], residents: usize, seed: u64) -> ChurnStream {
    assert!(residents < ring.len() && ring.len().is_multiple_of(5));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4348_5552);
    let n = ring.len();

    // Rank of every ring key in sorted order, and the resident set as a
    // bitmap over ranks, so what a scan must return is a short walk.
    let (by_rank, rank_of) = ranks(ring);
    let value_at_rank: Vec<u64> = by_rank.iter().map(|&key| values[key as usize]).collect();
    let mut present = vec![false; n];
    for key in 0..residents {
        present[rank_of[key] as usize] = true;
    }

    let (mut head, mut tail) = (0usize, residents);
    let mut hash = StreamHash::new();
    let mut ops = Vec::with_capacity(n / 5 * CHURN_GROUP);
    let resident_pick = |rng: &mut SmallRng, head: usize| (head + rng.gen_range(0..residents)) % n;
    for _ in 0..n / 5 {
        for slot in 0..CHURN_GROUP {
            let op = match slot {
                0 | 3 | 6 | 9 | 12 => {
                    let key = tail as u32;
                    present[rank_of[tail] as usize] = true;
                    tail = (tail + 1) % n;
                    ChurnOp::Insert { key }
                }
                1 | 4 | 7 | 10 | 13 => {
                    let key = head as u32;
                    present[rank_of[head] as usize] = false;
                    head = (head + 1) % n;
                    ChurnOp::Delete { key }
                }
                2 | 5 | 8 | 11 => ChurnOp::Overwrite {
                    key: resident_pick(&mut rng, head) as u32,
                },
                _ => {
                    let key = resident_pick(&mut rng, head);
                    let (mut count, mut digest) = (0u8, 0u64);
                    let mut rank = rank_of[key] as usize;
                    while rank < n && usize::from(count) < SCAN_KEYS {
                        if present[rank] {
                            count += 1;
                            digest = scan_digest(digest, value_at_rank[rank]);
                        }
                        rank += 1;
                    }
                    ChurnOp::Scan {
                        key: key as u32,
                        count,
                        digest,
                    }
                }
            };
            match op {
                ChurnOp::Insert { key } => hash.push(u64::from(key) << 2),
                ChurnOp::Delete { key } => hash.push(u64::from(key) << 2 | 1),
                ChurnOp::Overwrite { key } => hash.push(u64::from(key) << 2 | 2),
                ChurnOp::Scan { key, count, digest } => {
                    hash.push(u64::from(key) << 2 | 3);
                    hash.push(digest ^ u64::from(count));
                }
            }
            ops.push(op);
        }
    }
    debug_assert_eq!((head, tail), (0, residents), "one full turn of the ring");
    ChurnStream {
        ops,
        residents,
        hash: hash.finish(),
    }
}

/// Keys per `Scan` page in `serve-mixed`.
pub const PAGE_LIMIT: u32 = 20;

/// The request stream of `serve-mixed` with the response each request must
/// get and, per prefix of the stream, how many responses are hits.
pub struct ServeStream {
    pub requests: Vec<WireRequest>,
    pub expected: Vec<WireResponse>,
    /// `hits_before[i]` = responses other than `Miss` among the first `i`.
    pub hits_before: Vec<u32>,
    pub hash: u64,
}

/// 85 % `Get` (one in ten of an absent key), 10 % `Set` of a resident to
/// the value it has, 5 % `Scan` pages — so the stream leaves the index as
/// it found it and every run of it must answer alike.
pub fn serve_stream(
    resident: &[Vec<u8>],
    values: &[u64],
    absent: &[Vec<u8>],
    count: usize,
    seed: u64,
) -> ServeStream {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5345_5256);
    let (sorted, rank_of) = ranks(resident);

    let mut hash = StreamHash::new();
    let mut requests = Vec::with_capacity(count);
    let mut expected = Vec::with_capacity(count);
    let mut hits_before = Vec::with_capacity(count + 1);
    let mut hits = 0u32;
    for _ in 0..count {
        hits_before.push(hits);
        let kind = rng.gen_range(0..100u32);
        let i = rng.gen_range(0..resident.len());
        hash.push((i as u64) << 8 | u64::from(kind));
        let (request, response) = if kind < 85 {
            if rng.gen_range(0..10u32) == 0 {
                let key = absent[rng.gen_range(0..absent.len())].clone();
                (WireRequest::Get { key }, WireResponse::Miss)
            } else {
                let key = resident[i].clone();
                (WireRequest::Get { key }, WireResponse::Value(values[i]))
            }
        } else if kind < 95 {
            let (key, value) = (resident[i].clone(), values[i]);
            (WireRequest::Set { key, value }, WireResponse::Value(value))
        } else {
            let from = rank_of[i] as usize;
            let to = (from + PAGE_LIMIT as usize).min(sorted.len());
            let items: Vec<(Vec<u8>, u64)> = sorted[from..to]
                .iter()
                .map(|&key| (resident[key as usize].clone(), values[key as usize]))
                .collect();
            let resume = (items.len() == PAGE_LIMIT as usize).then(|| {
                let mut next = Vec::new();
                index_traits::immediate_successor_into(&items[items.len() - 1].0, &mut next);
                next
            });
            (
                WireRequest::Scan {
                    start: resident[i].clone(),
                    limit: PAGE_LIMIT,
                },
                WireResponse::ScanPage { items, resume },
            )
        };
        hits += u32::from(response != WireResponse::Miss);
        requests.push(request);
        expected.push(response);
    }
    hits_before.push(hits);
    ServeStream {
        requests,
        expected,
        hits_before,
        hash: hash.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> (Vec<Vec<u8>>, Vec<u64>) {
        let (keys, _) = keys(2_000, seed);
        let values = keys.iter().map(|k| value_of(k)).collect();
        (keys, values)
    }

    #[test]
    fn values_depend_on_the_whole_key() {
        assert_ne!(value_of(b"a"), value_of(b"b"));
        assert_ne!(value_of(b"a"), value_of(b"a\0"));
        assert_eq!(value_of(b"key"), value_of(b"key"));
    }

    #[test]
    fn flat_keys_round_trip() {
        let keys: [&[u8]; 3] = [b"alpha", b"", b"be"];
        let flat = FlatKeys::from_iter(keys.iter().copied());
        assert_eq!(flat.len(), 3);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(flat.get(i), *key);
        }
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let (keys, values) = small(7);
        let (resident, absent) = keys.split_at(1_500);
        let get = |seed| get_stream(resident, &values, absent, 5_000, seed).hash;
        let churn = |seed| churn_stream(&keys, &values, 1_000, seed).hash;
        let serve = |seed| serve_stream(resident, &values, absent, 5_000, seed).hash;
        assert_eq!(get(1), get(1));
        assert_ne!(get(1), get(2));
        assert_eq!(churn(1), churn(1));
        assert_ne!(churn(1), churn(2));
        assert_eq!(serve(1), serve(1));
        assert_ne!(serve(1), serve(2));
        // The keys themselves follow the seed too.
        assert_eq!(small(7).0, keys);
        assert_ne!(small(8).0, keys);
    }

    #[test]
    fn get_stream_mixes_in_a_tenth_of_absent_keys() {
        let (keys, values) = small(3);
        let (resident, absent) = keys.split_at(1_500);
        let stream = get_stream(resident, &values, absent, 20_000, 3);
        let misses = stream.expected.iter().filter(|e| e.is_none()).count();
        assert!((1_600..2_400).contains(&misses), "{misses} misses");
        for i in 0..stream.keys.len() {
            let key = stream.keys.get(i);
            assert_eq!(
                stream.expected[i],
                resident.iter().any(|k| k == key).then(|| value_of(key))
            );
        }
    }

    /// Replays the churn stream on a `BTreeMap` and checks every result the
    /// stream promises, then that one turn restores the starting set.
    #[test]
    fn churn_stream_agrees_with_an_ordered_map() {
        let (keys, values) = small(11);
        let stream = churn_stream(&keys, &values, 1_000, 11);
        assert_eq!(stream.ops.len(), keys.len() / 5 * CHURN_GROUP);
        let start: std::collections::BTreeMap<&[u8], u64> = (0..1_000)
            .map(|i| (keys[i].as_slice(), values[i]))
            .collect();
        let mut map = start.clone();
        for op in &stream.ops {
            match *op {
                ChurnOp::Insert { key } => {
                    let k = key as usize;
                    assert_eq!(map.insert(&keys[k], values[k]), None);
                }
                ChurnOp::Delete { key } => {
                    let k = key as usize;
                    assert_eq!(map.remove(keys[k].as_slice()), Some(values[k]));
                }
                ChurnOp::Overwrite { key } => {
                    let k = key as usize;
                    assert_eq!(map.insert(&keys[k], values[k]), Some(values[k]));
                }
                ChurnOp::Scan { key, count, digest } => {
                    let got: Vec<u64> = map
                        .range(keys[key as usize].as_slice()..)
                        .take(SCAN_KEYS)
                        .map(|(_, v)| *v)
                        .collect();
                    assert_eq!(got.len(), usize::from(count));
                    assert_eq!(got.iter().fold(0, |d, v| scan_digest(d, *v)), digest);
                }
            }
            assert!(map.len().abs_diff(1_000) <= 1);
        }
        assert_eq!(map, start);
    }

    #[test]
    fn serve_stream_counts_hits_and_pages_in_key_order() {
        let (keys, values) = small(5);
        let (resident, absent) = keys.split_at(1_500);
        let stream = serve_stream(resident, &values, absent, 10_000, 5);
        let mut hits = 0;
        let (mut gets, mut sets, mut scans) = (0, 0, 0);
        for (i, (req, resp)) in stream.requests.iter().zip(&stream.expected).enumerate() {
            assert_eq!(stream.hits_before[i], hits);
            hits += u32::from(*resp != WireResponse::Miss);
            match (req, resp) {
                (WireRequest::Get { key }, WireResponse::Value(v)) => {
                    gets += 1;
                    assert_eq!(*v, value_of(key));
                }
                (WireRequest::Get { key }, WireResponse::Miss) => {
                    gets += 1;
                    assert!(absent.contains(key));
                }
                (WireRequest::Set { key, value }, WireResponse::Value(v)) => {
                    sets += 1;
                    assert_eq!((*value, *v), (value_of(key), value_of(key)));
                }
                (WireRequest::Scan { start, limit }, WireResponse::ScanPage { items, resume }) => {
                    scans += 1;
                    assert_eq!(&items[0].0, start);
                    assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
                    assert_eq!(resume.is_some(), items.len() == *limit as usize);
                }
                other => panic!("mismatched pair {other:?}"),
            }
        }
        assert_eq!(stream.hits_before[10_000], hits);
        assert!((8_300..8_700).contains(&gets), "{gets} gets");
        assert!((850..1_150).contains(&sets), "{sets} sets");
        assert!((400..600).contains(&scans), "{scans} scans");
    }
}
