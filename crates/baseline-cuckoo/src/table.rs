//! The bucketized cuckoo hash table.

use index_traits::IndexStats;
use wh_hash::{crc32c, mix64, tag16, xorshift_mix};

use crate::{MAX_BFS_DEPTH, SLOTS_PER_BUCKET};

/// One stored item.
struct Entry<V> {
    tag: u16,
    key: Box<[u8]>,
    value: V,
}

/// A 4-way set-associative bucket.
struct Bucket<V> {
    slots: [Option<Entry<V>>; SLOTS_PER_BUCKET],
}

impl<V> Default for Bucket<V> {
    fn default() -> Self {
        Self {
            slots: [None, None, None, None],
        }
    }
}

impl<V> Bucket<V> {
    fn empty_slot(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.is_none())
    }

    fn find(&self, tag: u16, key: &[u8]) -> Option<usize> {
        self.slots.iter().position(|s| match s {
            Some(e) => e.tag == tag && e.key.as_ref() == key,
            None => false,
        })
    }
}

/// A bucketized cuckoo hash table keyed by byte strings.
pub struct CuckooHashTable<V> {
    buckets: Vec<Bucket<V>>,
    /// `buckets.len() - 1`; the bucket count is always a power of two so the
    /// partial-key alternate-bucket computation is an involution.
    mask: usize,
    len: usize,
    key_bytes: usize,
}

impl<V> Default for CuckooHashTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> CuckooHashTable<V> {
    /// Creates a table with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Creates a table sized for roughly `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        // Target ~85% load at the requested capacity.
        let want_buckets = (capacity.max(SLOTS_PER_BUCKET) * 100 / 85) / SLOTS_PER_BUCKET;
        let nbuckets = want_buckets.next_power_of_two().max(2);
        Self {
            buckets: (0..nbuckets).map(|_| Bucket::default()).collect(),
            mask: nbuckets - 1,
            len: 0,
            key_bytes: 0,
        }
    }

    /// Current number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / (self.buckets.len() * SLOTS_PER_BUCKET) as f64
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the table stores no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory accounting for Figure 16-style comparisons.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            keys: self.len,
            structure_bytes: self.buckets.len()
                * SLOTS_PER_BUCKET
                * std::mem::size_of::<Option<Entry<V>>>(),
            key_bytes: self.key_bytes,
            value_bytes: self.len * std::mem::size_of::<V>(),
        }
    }

    fn hash_key(key: &[u8]) -> (usize, u16) {
        let crc = crc32c(key);
        let h = mix64(crc as u64 ^ ((key.len() as u64) << 32));
        (h as usize, tag16(crc))
    }

    fn primary_bucket(&self, h: usize) -> usize {
        h & self.mask
    }

    /// The alternate bucket, derived only from the current bucket and the
    /// tag (partial-key cuckoo hashing). Applying it twice returns the
    /// original bucket.
    fn alt_bucket(&self, bucket: usize, tag: u16) -> usize {
        (bucket ^ (xorshift_mix(tag as u64 + 1) as usize)) & self.mask
    }
}

impl<V: Clone> CuckooHashTable<V> {
    /// Returns a copy of the value stored under `key`, if present.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        self.find_slot(key)
            .map(|(b, s)| self.buckets[b].slots[s].as_ref().unwrap().value.clone())
    }

    /// Inserts or overwrites `key`, returning the previous value if any.
    pub fn set(&mut self, key: &[u8], value: V) -> Option<V> {
        if let Some((b, s)) = self.find_slot(key) {
            let entry = self.buckets[b].slots[s].as_mut().unwrap();
            return Some(std::mem::replace(&mut entry.value, value));
        }
        let (h, tag) = Self::hash_key(key);
        let mut entry = Entry {
            tag,
            key: key.to_vec().into_boxed_slice(),
            value,
        };
        loop {
            let b1 = self.primary_bucket(h);
            let b2 = self.alt_bucket(b1, tag);
            match self.place(entry, b1, b2) {
                Ok(()) => {
                    self.len += 1;
                    self.key_bytes += key.len();
                    return None;
                }
                Err(e) => {
                    entry = e;
                    self.grow();
                }
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn del(&mut self, key: &[u8]) -> Option<V> {
        let (b, s) = self.find_slot(key)?;
        let entry = self.buckets[b].slots[s].take().unwrap();
        self.len -= 1;
        self.key_bytes -= entry.key.len();
        Some(entry.value)
    }

    fn find_slot(&self, key: &[u8]) -> Option<(usize, usize)> {
        let (h, tag) = Self::hash_key(key);
        let b1 = self.primary_bucket(h);
        if let Some(s) = self.buckets[b1].find(tag, key) {
            return Some((b1, s));
        }
        let b2 = self.alt_bucket(b1, tag);
        if let Some(s) = self.buckets[b2].find(tag, key) {
            return Some((b2, s));
        }
        None
    }

    /// Attempts to place `entry` whose candidate buckets are `b1`/`b2`,
    /// displacing other entries along a BFS path if needed. Returns the entry
    /// back when no path of bounded depth exists.
    fn place(&mut self, entry: Entry<V>, b1: usize, b2: usize) -> Result<(), Entry<V>> {
        if let Some(s) = self.buckets[b1].empty_slot() {
            self.buckets[b1].slots[s] = Some(entry);
            return Ok(());
        }
        if let Some(s) = self.buckets[b2].empty_slot() {
            self.buckets[b2].slots[s] = Some(entry);
            return Ok(());
        }

        // BFS over displacement paths. Each node records which (bucket, slot)
        // would be vacated by pushing its occupant to the occupant's
        // alternate bucket.
        struct PathNode {
            bucket: usize,
            slot: usize,
            parent: Option<usize>,
            depth: usize,
        }
        let mut nodes: Vec<PathNode> = Vec::new();
        let mut frontier: Vec<usize> = Vec::new();
        for &start in &[b1, b2] {
            for slot in 0..SLOTS_PER_BUCKET {
                nodes.push(PathNode {
                    bucket: start,
                    slot,
                    parent: None,
                    depth: 0,
                });
                frontier.push(nodes.len() - 1);
            }
        }

        let mut found: Option<(usize, usize)> = None; // (node idx, free slot in target)
        'bfs: while let Some(node_idx) = frontier.first().copied() {
            frontier.remove(0);
            let (bucket, slot, depth) = {
                let n = &nodes[node_idx];
                (n.bucket, n.slot, n.depth)
            };
            let occupant_tag = match &self.buckets[bucket].slots[slot] {
                Some(e) => e.tag,
                None => {
                    // The slot freed up concurrently with path construction
                    // (possible only via earlier displacement bookkeeping);
                    // treat it as the landing spot directly.
                    found = Some((node_idx, slot));
                    break 'bfs;
                }
            };
            let target = self.alt_bucket(bucket, occupant_tag);
            if let Some(free) = self.buckets[target].empty_slot() {
                found = Some((node_idx, free));
                break 'bfs;
            }
            if depth + 1 >= MAX_BFS_DEPTH {
                continue;
            }
            for slot in 0..SLOTS_PER_BUCKET {
                nodes.push(PathNode {
                    bucket: target,
                    slot,
                    parent: Some(node_idx),
                    depth: depth + 1,
                });
                frontier.push(nodes.len() - 1);
            }
        }

        let Some((mut node_idx, mut free_slot)) = found else {
            return Err(entry);
        };

        // Walk the path from the end back to the start, moving each occupant
        // into the slot freed after it.
        loop {
            let (bucket, slot, parent) = {
                let n = &nodes[node_idx];
                (n.bucket, n.slot, n.parent)
            };
            let occupant = self.buckets[bucket].slots[slot].take();
            if let Some(occ) = occupant {
                let target = self.alt_bucket(bucket, occ.tag);
                debug_assert!(self.buckets[target].slots[free_slot].is_none());
                self.buckets[target].slots[free_slot] = Some(occ);
            }
            free_slot = slot;
            match parent {
                Some(p) => node_idx = p,
                None => {
                    // The first displaced slot is now free for the new entry.
                    debug_assert!(self.buckets[bucket].slots[free_slot].is_none());
                    self.buckets[bucket].slots[free_slot] = Some(entry);
                    return Ok(());
                }
            }
        }
    }

    /// Doubles the bucket array and re-places every entry, doubling again in
    /// the (extremely unlikely) event that re-placement still fails.
    fn grow(&mut self) {
        // Pull every entry out of the current table.
        let mut entries: Vec<Entry<V>> = Vec::with_capacity(self.len);
        for bucket in std::mem::take(&mut self.buckets) {
            for entry in bucket.slots.into_iter().flatten() {
                entries.push(entry);
            }
        }
        let mut new_size = (self.mask + 1) * 2;
        'retry: loop {
            self.buckets = (0..new_size).map(|_| Bucket::default()).collect();
            self.mask = new_size - 1;
            for (i, entry) in entries.iter().enumerate() {
                let placed = Entry {
                    tag: entry.tag,
                    key: entry.key.clone(),
                    value: entry.value.clone(),
                };
                let (h, tag) = Self::hash_key(&placed.key);
                let b1 = self.primary_bucket(h);
                let b2 = self.alt_bucket(b1, tag);
                if self.place(placed, b1, b2).is_err() {
                    // Re-placement failed even in the bigger table; double
                    // again and restart from scratch.
                    let _ = i;
                    new_size *= 2;
                    continue 'retry;
                }
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn empty_table() {
        let mut t: CuckooHashTable<u64> = CuckooHashTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(b"x"), None);
        assert_eq!(t.del(b"x"), None);
    }

    #[test]
    fn insert_get_delete() {
        let mut t = CuckooHashTable::new();
        assert_eq!(t.set(b"alpha", 1u64), None);
        assert_eq!(t.set(b"beta", 2), None);
        assert_eq!(t.get(b"alpha"), Some(1));
        assert_eq!(t.get(b"beta"), Some(2));
        assert_eq!(t.get(b"gamma"), None);
        assert_eq!(t.set(b"alpha", 10), Some(1));
        assert_eq!(t.del(b"alpha"), Some(10));
        assert_eq!(t.get(b"alpha"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut t = CuckooHashTable::with_capacity(16);
        let initial_buckets = t.bucket_count();
        for i in 0..10_000u64 {
            t.set(format!("key-{i}").as_bytes(), i);
        }
        assert!(t.bucket_count() > initial_buckets);
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get(format!("key-{i}").as_bytes()), Some(i), "key-{i}");
        }
        assert!(t.load_factor() > 0.2);
    }

    #[test]
    fn alt_bucket_is_involution() {
        let t: CuckooHashTable<u64> = CuckooHashTable::with_capacity(4096);
        for tag in [0u16, 1, 7, 255, 30000, u16::MAX] {
            for b in [0usize, 1, 17, 1023] {
                let b = b & t.mask;
                let alt = t.alt_bucket(b, tag);
                assert_eq!(t.alt_bucket(alt, tag), b);
            }
        }
    }

    #[test]
    fn binary_and_empty_keys() {
        let mut t = CuckooHashTable::new();
        t.set(b"", 0u64);
        t.set(&[0], 1);
        t.set(&[0, 0], 2);
        t.set(&[255, 0, 255], 3);
        assert_eq!(t.get(b""), Some(0));
        assert_eq!(t.get(&[0]), Some(1));
        assert_eq!(t.get(&[0, 0]), Some(2));
        assert_eq!(t.get(&[255, 0, 255]), Some(3));
    }

    #[test]
    fn long_keys() {
        let mut t = CuckooHashTable::new();
        let k1 = vec![b'a'; 1024];
        let mut k2 = k1.clone();
        k2[1023] = b'b';
        t.set(&k1, 1u64);
        t.set(&k2, 2);
        assert_eq!(t.get(&k1), Some(1));
        assert_eq!(t.get(&k2), Some(2));
    }

    #[test]
    fn stats_track_size() {
        let mut t = CuckooHashTable::new();
        for i in 0..100u64 {
            t.set(format!("{i:05}").as_bytes(), i);
        }
        let s = t.stats();
        assert_eq!(s.keys, 100);
        assert_eq!(s.key_bytes, 500);
        assert!(s.structure_bytes > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_matches_hashmap_model(ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..12), any::<u64>(), any::<bool>()), 1..400)) {
            let mut t = CuckooHashTable::with_capacity(8);
            let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
            for (key, value, is_delete) in ops {
                if is_delete {
                    prop_assert_eq!(t.del(&key), model.remove(&key));
                } else {
                    prop_assert_eq!(t.set(&key, value), model.insert(key.clone(), value));
                }
                prop_assert_eq!(t.len(), model.len());
            }
            for (k, v) in &model {
                prop_assert_eq!(t.get(k), Some(*v));
            }
        }
    }
}
