//! Index traits implemented by Wormhole and every baseline.

use crate::scan::Cursor;

/// Memory reported by an index (the paper's Figure 16): the heap bytes it
/// holds, each counted once. Resident memory is not stable inside a test
/// harness, so every index in this workspace tracks its own allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of keys currently stored.
    pub keys: usize,
    /// Bytes of all but the payloads: nodes, tables, pointers, block
    /// headers such as a key's length word, and unused item slots.
    pub structure_bytes: usize,
    /// Bytes of the stored keys.
    pub key_bytes: usize,
    /// Bytes of the stored values, each live value counted once.
    pub value_bytes: usize,
}

impl IndexStats {
    /// Total tracked bytes.
    pub fn total_bytes(&self) -> usize {
        self.structure_bytes + self.key_bytes + self.value_bytes
    }
}

/// A single-threaded (or externally synchronised) ordered index.
///
/// This matches how the paper drives the thread-unsafe baselines (skip list,
/// B+ tree, ART): read-only sharing across threads, single writer otherwise.
///
/// # Examples
///
/// Implementors provide the point ops plus `range_from`; batching
/// ([`OrderedIndex::get_batch`]), membership ([`OrderedIndex::contains`]),
/// and streaming scans ([`OrderedIndex::scan`]) come with correct defaults:
///
/// ```
/// use index_traits::{IndexStats, OrderedIndex};
/// use std::collections::BTreeMap;
///
/// #[derive(Default)]
/// struct Sorted(BTreeMap<Vec<u8>, u64>);
///
/// impl OrderedIndex<u64> for Sorted {
///     fn name(&self) -> &'static str {
///         "sorted"
///     }
///     fn get(&self, key: &[u8]) -> Option<u64> {
///         self.0.get(key).copied()
///     }
///     fn set(&mut self, key: &[u8], value: u64) -> Option<u64> {
///         self.0.insert(key.to_vec(), value)
///     }
///     fn del(&mut self, key: &[u8]) -> Option<u64> {
///         self.0.remove(key)
///     }
///     fn len(&self) -> usize {
///         self.0.len()
///     }
///     fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
///         self.0
///             .range(start.to_vec()..)
///             .take(count)
///             .map(|(k, v)| (k.clone(), *v))
///             .collect()
///     }
///     fn stats(&self) -> IndexStats {
///         IndexStats::default()
///     }
/// }
///
/// let mut index = Sorted::default();
/// assert_eq!(index.set(b"James", 1), None);
/// assert_eq!(index.set(b"Jason", 2), None);
/// assert_eq!(index.set(b"James", 10), Some(1)); // overwrite returns the old value
/// assert!(index.contains(b"Jason"));
/// // Ordered window starting at the smallest key >= "Jam".
/// let window = index.range_from(b"Jam", 10);
/// assert_eq!(window[0].0, b"James".to_vec());
/// // The default streaming cursor agrees with range_from.
/// let mut cursor = index.scan(b"");
/// assert_eq!(cursor.next(), Some((&b"James"[..], &10)));
/// assert_eq!(cursor.next(), Some((&b"Jason"[..], &2)));
/// assert!(cursor.next().is_none());
/// ```
pub trait OrderedIndex<V> {
    /// Human-readable name used by the benchmark harness ("skiplist", …).
    fn name(&self) -> &'static str;

    /// Returns a copy of the value stored under `key`, if present.
    fn get(&self, key: &[u8]) -> Option<V>;

    /// Returns `true` when `key` is present without copying its value.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Point-looks-up every key of `keys`, returning one result per key in
    /// input order (duplicates allowed, each answered independently).
    ///
    /// The default is a plain per-key loop, so every baseline is correct by
    /// construction. Indexes built for memory-level parallelism (Wormhole's
    /// MetaTrieHT) override it with a software-pipelined probe engine that
    /// overlaps the cache misses of many in-flight lookups; batched and
    /// per-key results are always identical.
    fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<V>> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    /// Inserts or overwrites `key`, returning the previous value if any.
    fn set(&mut self, key: &[u8], value: V) -> Option<V>;

    /// Removes `key`, returning its value if it was present.
    fn del(&mut self, key: &[u8]) -> Option<V>;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Returns `true` when the index stores no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns up to `count` key/value pairs in ascending key order, starting
    /// at the smallest key `>= start` (the paper's `RangeSearchAscending`).
    fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, V)>;

    /// Opens a resumable streaming cursor at the smallest key `>= start`.
    ///
    /// The default adapts [`OrderedIndex::range_from`] batch by batch (see
    /// [`crate::scan`] for the contract); indexes with a native streaming
    /// path (Wormhole's leaf list) override it to stream leaf by leaf
    /// without materialising windows.
    fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, V>
    where
        Self: Sized,
        V: Clone + 'a,
    {
        Cursor::adapt_range_from(start, move |resume, count| self.range_from(resume, count))
    }

    /// Memory accounting for Figure 16.
    fn stats(&self) -> IndexStats;
}

/// A thread-safe ordered index usable concurrently from many threads.
///
/// In the paper only Wormhole and Masstree provide built-in concurrency
/// control; in this workspace the concurrent Wormhole implements this trait,
/// and a locking wrapper can adapt any [`OrderedIndex`] when a thread-safe
/// stand-in is needed.
///
/// Read methods take `&self` and are expected to be cheap to call from many
/// threads at once; a high-quality implementation serves them without
/// blocking on writers (the workspace's Wormhole uses seqlock-validated
/// lock-free reads with a bounded-retry lock fallback). Implementations
/// must be *linearisable per key*: a `get` concurrent with structural
/// reorganisation (splits, merges, rehashing) observes the value either
/// before or after a racing write — never a torn mixture.
///
/// An implementor provides the point ops and one ordered read,
/// [`scan`](ConcurrentOrderedIndex::scan); `range_from`, `scan_page` and
/// `delete_range` derive from it. Values are `Clone` because every read
/// hands out copies.
pub trait ConcurrentOrderedIndex<V: Clone>: Send + Sync {
    /// Human-readable name used by the benchmark harness.
    fn name(&self) -> &'static str;

    /// Returns a copy of the value stored under `key`, if present.
    fn get(&self, key: &[u8]) -> Option<V>;

    /// Returns `true` when `key` is present without copying its value.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Point-looks-up every key of `keys`, returning one result per key in
    /// input order (duplicates allowed, each answered independently).
    ///
    /// This is the allocating wrapper over
    /// [`get_batch_into`](ConcurrentOrderedIndex::get_batch_into), which is
    /// the method an index implements; a caller that looks up batch after
    /// batch keeps one result buffer and calls that instead.
    ///
    /// Each lookup is individually linearisable; the batch as a whole is
    /// **not** a snapshot — a racing writer may land between two keys of
    /// one batch, exactly as it could between two separate `get` calls.
    /// Batched and per-key results are always identical.
    ///
    /// # Examples
    ///
    /// One result per input key, in input order — hits, misses, and
    /// duplicates included:
    ///
    /// ```
    /// # use index_traits::{ConcurrentOrderedIndex, Cursor, IndexStats};
    /// # use std::{collections::BTreeMap, sync::Mutex};
    /// # #[derive(Default)]
    /// # struct Index(Mutex<BTreeMap<Vec<u8>, u64>>);
    /// # impl ConcurrentOrderedIndex<u64> for Index {
    /// #     fn name(&self) -> &'static str { "doc" }
    /// #     fn get(&self, key: &[u8]) -> Option<u64> { self.0.lock().unwrap().get(key).copied() }
    /// #     fn set(&self, key: &[u8], value: u64) -> Option<u64> {
    /// #         self.0.lock().unwrap().insert(key.to_vec(), value)
    /// #     }
    /// #     fn del(&self, key: &[u8]) -> Option<u64> { self.0.lock().unwrap().remove(key) }
    /// #     fn len(&self) -> usize { self.0.lock().unwrap().len() }
    /// #     fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, u64> {
    /// #         Cursor::adapt_range_from(start, move |from, count| {
    /// #             self.0.lock().unwrap().range(from.to_vec()..).take(count)
    /// #                 .map(|(k, v)| (k.clone(), *v)).collect()
    /// #         })
    /// #     }
    /// #     fn stats(&self) -> IndexStats { IndexStats::default() }
    /// # }
    /// let index = Index::default();
    /// index.set(b"Aaron", 1);
    /// index.set(b"Abbe", 2);
    ///
    /// let keys: Vec<&[u8]> = vec![b"Abbe", b"missing", b"Aaron", b"Abbe"];
    /// assert_eq!(
    ///     index.get_batch(&keys),
    ///     vec![Some(2), None, Some(1), Some(2)],
    /// );
    /// // A batch always answers exactly like the equivalent get loop.
    /// let looped: Vec<Option<u64>> = keys.iter().map(|k| index.get(k)).collect();
    /// assert_eq!(index.get_batch(&keys), looped);
    /// ```
    fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<V>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_batch_into(keys, &mut out);
        out
    }

    /// Point-looks-up every key of `keys` and appends one result per key
    /// to `out`, in input order; what `out` already holds stays in front.
    ///
    /// The default is a per-key loop. The concurrent Wormhole overrides it
    /// with a pipelined probe engine (shared QSBR critical section,
    /// prefetched buckets, seqlock-validated leaf reads with the usual
    /// bounded-retry fallback), and the sharded front routes a whole batch
    /// inside one router epoch. Neither allocates once `out` has the
    /// capacity.
    fn get_batch_into(&self, keys: &[&[u8]], out: &mut Vec<Option<V>>) {
        out.extend(keys.iter().map(|key| self.get(key)));
    }

    /// Inserts or overwrites `key`, returning the previous value if any.
    fn set(&self, key: &[u8], value: V) -> Option<V>;

    /// Removes `key`, returning its value if it was present.
    fn del(&self, key: &[u8]) -> Option<V>;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Returns `true` when the index stores no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a resumable streaming cursor at the smallest key `>= start`:
    /// the index's one ordered read, which every other ordered method
    /// derives from.
    ///
    /// Safe to advance while other threads write: each batch is an atomic
    /// snapshot of one region, with no global snapshot across batches (see
    /// [`crate::scan`]). The concurrent Wormhole streams seqlock-validated
    /// runs of its leaf list; an index without a native streaming path
    /// adapts a windowed read through [`Cursor::adapt_range_from`]. The
    /// method is object-safe, so a service holding the index as
    /// `dyn ConcurrentOrderedIndex` scans through it too.
    fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, V>;

    /// Returns up to `count` key/value pairs in ascending key order, starting
    /// at the smallest key `>= start`: the first `count` pairs of
    /// [`scan`](ConcurrentOrderedIndex::scan). An index with a cheaper
    /// native window may override it.
    fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, V)> {
        // `count` may be `usize::MAX`: a bounded first guess.
        let mut out = Vec::with_capacity(count.min(1024));
        self.scan(start).collect_next(count, &mut out);
        out
    }

    /// Removes every key with `lo <= key < hi`, returning how many were
    /// removed. An empty or inverted window removes nothing.
    ///
    /// This is the bulk-drain hook behind online shard migration: after a
    /// migrated range has been copied to its new owner and republished, the
    /// donor's stale copy of the range is drained with one call. The
    /// default walks the range via `range_from` windows and deletes key by
    /// key — correct against concurrent writers (each delete is an ordinary
    /// linearisable `del`; keys inserted into the range behind the sweep
    /// position may survive, as with any non-snapshot range operation). The
    /// concurrent Wormhole overrides it with a leaf-at-a-time batched
    /// removal that reuses the merge engine to shrink the structure as it
    /// drains.
    fn delete_range(&self, lo: &[u8], hi: &[u8]) -> usize {
        if lo >= hi {
            return 0;
        }
        let mut removed = 0usize;
        let mut resume = lo.to_vec();
        loop {
            let window = self.range_from(&resume, crate::scan::DEFAULT_SCAN_BATCH);
            let mut exhausted = window.len() < crate::scan::DEFAULT_SCAN_BATCH;
            for (key, _) in window {
                if key.as_slice() >= hi {
                    exhausted = true;
                    break;
                }
                if self.del(&key).is_some() {
                    removed += 1;
                }
                crate::key::immediate_successor_into(&key, &mut resume);
            }
            if exhausted {
                return removed;
            }
        }
    }

    /// Serves one bounded page of an ordered scan — the building block of
    /// a **streaming scan RPC** (see [`crate::scan::ScanPage`]).
    ///
    /// Returns up to `limit` pairs starting at the smallest key `>= start`
    /// (a `limit` of 0 is served as 1), plus the stateless resume key that
    /// fetches the next page, or `None` once the scan is known exhausted.
    /// Unlike a held cursor the continuation survives anything the index
    /// does between pages (splits, merges, shard-boundary migrations)
    /// because it is just a key routed afresh by the next call.
    ///
    /// Pages have cursor consistency, not snapshot consistency: each page
    /// is served from the index state at its own call, so a racing writer
    /// may land between two pages — exactly as it may land between two
    /// batches of one [`Cursor`].
    ///
    /// # Examples
    ///
    /// Draining an index page by page, the way a scan RPC client would:
    ///
    /// ```
    /// # use index_traits::{ConcurrentOrderedIndex, Cursor, IndexStats};
    /// # use std::{collections::BTreeMap, sync::Mutex};
    /// # #[derive(Default)]
    /// # struct Index(Mutex<BTreeMap<Vec<u8>, u64>>);
    /// # impl ConcurrentOrderedIndex<u64> for Index {
    /// #     fn name(&self) -> &'static str { "doc" }
    /// #     fn get(&self, key: &[u8]) -> Option<u64> { self.0.lock().unwrap().get(key).copied() }
    /// #     fn set(&self, key: &[u8], value: u64) -> Option<u64> {
    /// #         self.0.lock().unwrap().insert(key.to_vec(), value)
    /// #     }
    /// #     fn del(&self, key: &[u8]) -> Option<u64> { self.0.lock().unwrap().remove(key) }
    /// #     fn len(&self) -> usize { self.0.lock().unwrap().len() }
    /// #     fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, u64> {
    /// #         Cursor::adapt_range_from(start, move |from, count| {
    /// #             self.0.lock().unwrap().range(from.to_vec()..).take(count)
    /// #                 .map(|(k, v)| (k.clone(), *v)).collect()
    /// #         })
    /// #     }
    /// #     fn stats(&self) -> IndexStats { IndexStats::default() }
    /// # }
    /// let index = Index::default();
    /// for i in 0..10u64 {
    ///     index.set(format!("key-{i}").as_bytes(), i);
    /// }
    ///
    /// let mut drained = Vec::new();
    /// let mut start = Vec::new();
    /// loop {
    ///     // Three pairs per "response message".
    ///     let page = index.scan_page(&start, 3);
    ///     drained.extend(page.items);
    ///     match page.resume {
    ///         Some(resume) => start = resume,
    ///         None => break,
    ///     }
    /// }
    /// assert_eq!(drained.len(), 10);
    /// assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
    /// ```
    fn scan_page(&self, start: &[u8], limit: usize) -> crate::scan::ScanPage<V> {
        let limit = limit.max(1);
        let items = self.range_from(start, limit);
        let resume = (items.len() == limit).then(|| {
            let mut resume = Vec::new();
            let (last, _) = items.last().expect("limit >= 1 and a full page");
            crate::key::immediate_successor_into(last, &mut resume);
            resume
        });
        crate::scan::ScanPage { items, resume }
    }

    /// Memory accounting for Figure 16.
    fn stats(&self) -> IndexStats;
}

/// A concurrent ordered index with crash durability.
///
/// Implementations log every mutation to stable storage before (or
/// atomically with) applying it, and can be re-opened after a crash to
/// exactly the state covered by the last durable commit. The inherited
/// [`ConcurrentOrderedIndex`] methods acknowledge an operation only once
/// it is durable under the implementation's sync policy; the methods here
/// expose the durability machinery itself — explicit barriers and
/// checkpoint triggers — without prescribing file layout or log format.
///
/// # Examples
///
/// The contract in miniature: the watermark is monotone, `wal_sync`
/// forces everything applied so far under it, and a checkpoint covers at
/// least as much as the log does (the workspace's `wh-durable` crate
/// implements this over a real group-commit WAL and rename-published
/// snapshots):
///
/// ```
/// # use index_traits::{ConcurrentOrderedIndex, Cursor, DurableIndex, IndexStats};
/// # use std::collections::BTreeMap;
/// # use std::sync::atomic::{AtomicU64, Ordering};
/// # use std::sync::Mutex;
/// # /// A toy in-memory "durable" index: every applied op is assigned an
/// # /// LSN; `wal_sync` advances the durable watermark to the last one.
/// # #[derive(Default)]
/// # struct Toy {
/// #     map: Mutex<BTreeMap<Vec<u8>, u64>>,
/// #     applied: AtomicU64,
/// #     durable: AtomicU64,
/// # }
/// # impl ConcurrentOrderedIndex<u64> for Toy {
/// #     fn name(&self) -> &'static str { "toy" }
/// #     fn get(&self, key: &[u8]) -> Option<u64> { self.map.lock().unwrap().get(key).copied() }
/// #     fn set(&self, key: &[u8], value: u64) -> Option<u64> {
/// #         let mut map = self.map.lock().unwrap();
/// #         self.applied.fetch_add(1, Ordering::Relaxed);
/// #         map.insert(key.to_vec(), value)
/// #     }
/// #     fn del(&self, key: &[u8]) -> Option<u64> {
/// #         let mut map = self.map.lock().unwrap();
/// #         self.applied.fetch_add(1, Ordering::Relaxed);
/// #         map.remove(key)
/// #     }
/// #     fn len(&self) -> usize { self.map.lock().unwrap().len() }
/// #     fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, u64> {
/// #         Cursor::adapt_range_from(start, move |from, count| {
/// #             self.map.lock().unwrap().range(from.to_vec()..).take(count)
/// #                 .map(|(k, v)| (k.clone(), *v)).collect()
/// #         })
/// #     }
/// #     fn stats(&self) -> IndexStats { IndexStats::default() }
/// # }
/// # impl DurableIndex<u64> for Toy {
/// #     fn wal_sync(&self) -> std::io::Result<u64> {
/// #         let lsn = self.applied.load(Ordering::Relaxed);
/// #         self.durable.fetch_max(lsn, Ordering::Relaxed);
/// #         Ok(lsn)
/// #     }
/// #     fn durable_watermark(&self) -> u64 { self.durable.load(Ordering::Relaxed) }
/// #     fn checkpoint(&self) -> std::io::Result<u64> { self.wal_sync() }
/// # }
/// let index = Toy::default();
/// index.set(b"James", 1);
/// index.set(b"Jason", 2);
///
/// // Nothing forced yet; an explicit barrier makes both writes durable.
/// let before = index.durable_watermark();
/// let synced = index.wal_sync()?;
/// assert!(synced >= before);
/// assert_eq!(index.durable_watermark(), synced);
///
/// // A checkpoint covers everything the barrier covered.
/// let covered = index.checkpoint()?;
/// assert!(covered >= synced);
/// // The policy hook is allowed to do nothing at all.
/// assert!(matches!(index.maybe_checkpoint()?, None | Some(_)));
/// # Ok::<(), std::io::Error>(())
/// ```
pub trait DurableIndex<V: Clone>: ConcurrentOrderedIndex<V> {
    /// Forces every operation applied so far to stable storage and
    /// returns the durable watermark (an implementation-defined sequence
    /// number; operations at or below it survive a crash).
    fn wal_sync(&self) -> std::io::Result<u64>;

    /// The current durable watermark, without forcing anything.
    fn durable_watermark(&self) -> u64;

    /// Writes a full checkpoint (snapshot) and prunes log data it makes
    /// redundant. Returns the watermark the checkpoint covers.
    fn checkpoint(&self) -> std::io::Result<u64>;

    /// Checkpoint-if-warranted policy hook: like `checkpoint`, but only
    /// when the implementation's policy (log growth, elapsed work, …)
    /// says it is worth the cost, and never blocking behind another
    /// in-flight checkpoint. Returns `Ok(None)` when nothing was done.
    fn maybe_checkpoint(&self) -> std::io::Result<Option<u64>> {
        Ok(None)
    }
}

/// An index that can be built in one pass from a strictly ascending stream
/// of pairs: how a durable front rebuilds the index it logs from a
/// snapshot, deriving every inner structure from the sorted records.
pub trait FromSorted<V>: Sized {
    /// What the index is built with (its configuration).
    type Config;

    /// Builds an index holding exactly `pairs`.
    ///
    /// # Panics
    ///
    /// Panics when `pairs` is not strictly ascending: the source is an
    /// ordered scan, so an out-of-order pair means it is corrupt.
    fn from_sorted(config: Self::Config, pairs: impl IntoIterator<Item = (Vec<u8>, V)>) -> Self;
}

/// A point-only (unordered) index — the cuckoo hash table baseline.
///
/// Figure 13 compares Wormhole's lookup throughput against a hash table that
/// cannot serve range queries; this trait captures exactly that contract.
pub trait UnorderedIndex<V> {
    /// Human-readable name used by the benchmark harness.
    fn name(&self) -> &'static str;

    /// Returns a copy of the value stored under `key`, if present.
    fn get(&self, key: &[u8]) -> Option<V>;

    /// Returns `true` when `key` is present without copying its value.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or overwrites `key`, returning the previous value if any.
    fn set(&mut self, key: &[u8], value: V) -> Option<V>;

    /// Removes `key`, returning its value if it was present.
    fn del(&mut self, key: &[u8]) -> Option<V>;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Returns `true` when the index stores no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory accounting for Figure 16-style comparisons.
    fn stats(&self) -> IndexStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A trivial reference implementation over `BTreeMap`, used to validate
    /// the default trait methods and to serve as a model in integration
    /// tests elsewhere in the workspace.
    #[derive(Default)]
    struct StdOrdered {
        map: BTreeMap<Vec<u8>, u64>,
    }

    impl OrderedIndex<u64> for StdOrdered {
        fn name(&self) -> &'static str {
            "std-btreemap"
        }
        fn get(&self, key: &[u8]) -> Option<u64> {
            self.map.get(key).copied()
        }
        fn set(&mut self, key: &[u8], value: u64) -> Option<u64> {
            self.map.insert(key.to_vec(), value)
        }
        fn del(&mut self, key: &[u8]) -> Option<u64> {
            self.map.remove(key)
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
            self.map
                .range(start.to_vec()..)
                .take(count)
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        }
        fn stats(&self) -> IndexStats {
            IndexStats {
                keys: self.map.len(),
                structure_bytes: self.map.len() * 48,
                key_bytes: self.map.keys().map(|k| k.len()).sum(),
                value_bytes: self.map.len() * 8,
            }
        }
    }

    #[test]
    fn default_methods_work() {
        let mut idx = StdOrdered::default();
        assert!(idx.is_empty());
        assert!(!idx.contains(b"a"));
        idx.set(b"a", 1);
        assert!(idx.contains(b"a"));
        assert!(!idx.is_empty());
    }

    #[test]
    fn default_get_batch_answers_each_key_in_order() {
        let mut idx = StdOrdered::default();
        for (i, k) in ["Aaron", "Abbe", "Andrew"].iter().enumerate() {
            idx.set(k.as_bytes(), i as u64);
        }
        // Hits, misses, and duplicates, answered in input order.
        let keys: Vec<&[u8]> = vec![b"Abbe", b"missing", b"Aaron", b"Abbe", b""];
        assert_eq!(
            idx.get_batch(&keys),
            vec![Some(1), None, Some(0), Some(1), None]
        );
        assert!(idx.get_batch(&[]).is_empty());

        let locked = LockedOrdered::default();
        locked.set(b"k", 9);
        let keys: Vec<&[u8]> = vec![b"k", b"nope", b"k"];
        assert_eq!(locked.get_batch(&keys), vec![Some(9), None, Some(9)]);
    }

    #[test]
    fn range_from_is_ordered_and_bounded() {
        let mut idx = StdOrdered::default();
        for (i, k) in ["Aaron", "Abbe", "Andrew", "Austin", "Denice"]
            .iter()
            .enumerate()
        {
            idx.set(k.as_bytes(), i as u64);
        }
        let out = idx.range_from(b"Ab", 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, b"Abbe".to_vec());
        assert_eq!(out[2].0, b"Austin".to_vec());
    }

    /// A minimal thread-safe model exercising the `ConcurrentOrderedIndex`
    /// provided methods: it implements only `scan` of the ordered reads.
    #[derive(Default)]
    struct LockedOrdered {
        map: std::sync::Mutex<BTreeMap<Vec<u8>, u64>>,
    }

    impl ConcurrentOrderedIndex<u64> for LockedOrdered {
        fn name(&self) -> &'static str {
            "locked-btreemap"
        }
        fn get(&self, key: &[u8]) -> Option<u64> {
            self.map.lock().unwrap().get(key).copied()
        }
        fn set(&self, key: &[u8], value: u64) -> Option<u64> {
            self.map.lock().unwrap().insert(key.to_vec(), value)
        }
        fn del(&self, key: &[u8]) -> Option<u64> {
            self.map.lock().unwrap().remove(key)
        }
        fn len(&self) -> usize {
            self.map.lock().unwrap().len()
        }
        fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, u64> {
            Cursor::adapt_range_from(start, move |from, count| {
                self.map
                    .lock()
                    .unwrap()
                    .range(from.to_vec()..)
                    .take(count)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect()
            })
        }
        fn stats(&self) -> IndexStats {
            IndexStats::default()
        }
    }

    #[test]
    fn default_delete_range_drains_half_open_window() {
        let model = LockedOrdered::default();
        // Every provided method works through a trait object.
        let idx: &dyn ConcurrentOrderedIndex<u64> = &model;
        for i in 0..400u64 {
            idx.set(format!("dr-{i:04}").as_bytes(), i);
        }
        let window = idx.range_from(b"dr-0398", 5);
        assert_eq!(
            window,
            [(b"dr-0398".to_vec(), 398), (b"dr-0399".to_vec(), 399)]
        );
        let page = idx.scan_page(b"dr-0010", 2);
        assert_eq!(page.items[1], (b"dr-0011".to_vec(), 11));
        assert_eq!(page.resume.as_deref(), Some(&b"dr-0011\0"[..]));
        // Window larger than one default sweep batch, bounds exclusive on
        // the right, inclusive on the left.
        assert_eq!(idx.delete_range(b"dr-0050", b"dr-0350"), 300);
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.get(b"dr-0049"), Some(49));
        assert_eq!(idx.get(b"dr-0050"), None);
        assert_eq!(idx.get(b"dr-0349"), None);
        assert_eq!(idx.get(b"dr-0350"), Some(350));
        // Degenerate windows remove nothing.
        assert_eq!(idx.delete_range(b"dr-0350", b"dr-0350"), 0);
        assert_eq!(idx.delete_range(b"dr-0350", b"dr-0000"), 0);
        assert_eq!(idx.delete_range(b"zz", b"zzz"), 0);
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn stats_arithmetic() {
        let stats = IndexStats {
            keys: 10,
            structure_bytes: 100,
            key_bytes: 200,
            value_bytes: 80,
        };
        assert_eq!(stats.total_bytes(), 380);
    }
}
