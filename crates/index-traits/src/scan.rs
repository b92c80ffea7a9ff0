//! Resumable ordered-scan cursors.
//!
//! `range_from` answers a bounded window but materialises a fresh
//! `Vec<(Vec<u8>, V)>` on every call — an `O(window)` copy that long
//! analytical scans and pagination loops pay over and over. The types here
//! let a caller *stream* an ordered scan instead: a [`Cursor`] pulls the
//! index's pairs batch by batch into one reusable [`ScanBatch`] arena, so a
//! steady-state scan performs **zero heap allocations per batch** no matter
//! how far it runs.
//!
//! # Consistency contract
//!
//! A cursor yields each key **at most once**, in **strictly ascending key
//! order**. Each batch is an atomic snapshot of one region of the index
//! (for the Wormhole indexes: a run of one leaf node, captured under seqlock
//! validation, or under the leaf's lock when the scan first had to sort its
//! key view), but there is **no global snapshot across batches**: a key
//! inserted behind the cursor's position is never seen, a key inserted
//! ahead of it may or may not be seen depending on timing, and a key that
//! exists for the whole duration of the scan is seen exactly once. This is
//! the same per-leaf guarantee `range_from` gives on the concurrent
//! Wormhole — see `wormhole::concurrent` for the safety model that bounds
//! what a racing optimistic read may transiently observe before validation
//! discards it (live memory only: leaf-interior frees are deferred past a
//! QSBR grace period).
//!
//! # Resumability
//!
//! [`Cursor::resume_key`] reports the start key that continues the scan
//! after everything consumed so far. The cursor borrows the index, so
//! single-threaded callers drop it, mutate, and reopen with
//! `index.scan(&resume_key)`; pagination services persist the resume key
//! between requests the same way.

/// Number of pairs the default `range_from`-adapted cursor source fetches
/// per batch.
pub const DEFAULT_SCAN_BATCH: usize = 128;

/// One batch of scan output.
///
/// Keys are stored concatenated in a single byte arena (`bytes` + end
/// offsets) rather than as one `Vec<u8>` per key, so refilling a batch in
/// steady state reuses three flat buffers and allocates nothing.
#[derive(Debug)]
pub struct ScanBatch<V> {
    /// Concatenated key bytes.
    bytes: Vec<u8>,
    /// End offset of key `i` in `bytes` (its start is `ends[i - 1]` or 0).
    ends: Vec<usize>,
    /// Value of key `i`.
    values: Vec<V>,
}

impl<V> Default for ScanBatch<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ScanBatch<V> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self {
            bytes: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Pre-sizes the batch for `items` pairs totalling `key_bytes` of key
    /// payload, so the first fills are as allocation-free as steady state.
    pub fn reserve(&mut self, items: usize, key_bytes: usize) {
        self.bytes.reserve(key_bytes);
        self.ends.reserve(items);
        self.values.reserve(items);
    }

    /// Removes every pair, keeping the buffers for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.values.clear();
    }

    /// Number of pairs in the batch.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` when the batch holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Appends a pair (callers must keep keys ascending).
    pub fn push(&mut self, key: &[u8], value: V) {
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
        self.values.push(value);
    }

    /// Key of pair `i`.
    pub fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Value of pair `i`.
    pub fn value(&self, i: usize) -> &V {
        &self.values[i]
    }

    /// Pair `i` as `(key, value)`.
    pub fn get(&self, i: usize) -> (&[u8], &V) {
        (self.key(i), self.value(i))
    }

    /// The last key in the batch, if any.
    pub fn last_key(&self) -> Option<&[u8]> {
        self.len().checked_sub(1).map(|i| self.key(i))
    }

    /// Keeps only the first `len` pairs, trimming the key arena to match
    /// (no-op when `len >= self.len()`). Lets a consumer that must not
    /// observe keys beyond an upper bound — e.g. a range-sharded scan
    /// clamping a segment to its shard's boundary — drop a batch's tail
    /// without copying or reallocating.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.ends.len() {
            return;
        }
        let bytes_end = if len == 0 { 0 } else { self.ends[len - 1] };
        self.bytes.truncate(bytes_end);
        self.ends.truncate(len);
        self.values.truncate(len);
    }

    /// Iterates the pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// One bounded page of an ordered scan, plus the continuation that fetches
/// the next page: the unit a **streaming scan RPC** ships per response
/// message.
///
/// A service answering a scan request cannot stream an unbounded cursor
/// into one response — a million-key scan must cross many bounded-size
/// messages. `ScanPage` is the wire-shaped slice of a scan:
/// [`items`](ScanPage::items) holds up to the requested number of pairs
/// (in strictly ascending key order), and [`resume`](ScanPage::resume)
/// carries the start key of the next page, or `None` once the scan is
/// known to be exhausted. Because the resume key is a plain global key
/// (see [`Cursor::resume_key`]), the continuation is **stateless**: the
/// server keeps no cursor between pages, the client just issues the next
/// request at `resume` — which also makes a long scan robust to the index
/// reorganising (shard boundaries migrating, leaves splitting) between
/// pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPage<V> {
    /// Up to `limit` key/value pairs, ascending, starting at the smallest
    /// key `>=` the requested start.
    pub items: Vec<(Vec<u8>, V)>,
    /// Start key of the next page (`None` when the scan is complete). A
    /// `Some` resume after a full page may still point past the last key —
    /// the next page then comes back empty with `resume: None`.
    pub resume: Option<Vec<u8>>,
}

/// The index-side driver of a [`Cursor`]: produces the scan's batches.
///
/// A source sizes its own buffers, and the cursor passes it no size hint:
/// the batch arena and any scratch a source keeps reach their working size
/// within the first fills and are reused after that.
pub trait CursorSource<V> {
    /// Clears `batch` and fills it with the next run of pairs, in ascending
    /// key order and strictly above everything filled by earlier calls.
    /// Returns `false` when the scan is exhausted (leaving `batch` empty);
    /// a `true` return guarantees at least one pair.
    ///
    /// `from` is the scan's position, which the caller owns: the start key
    /// on the first call, afterwards the successor of the last pair the
    /// previous call filled. A source therefore keeps no copy of the start
    /// key. It may keep a position of its own — where its last fill stopped
    /// inside the structure, the next shard's boundary — and continue from
    /// there, but it never fills a pair below `from`: a caller that moved
    /// the position ahead is obeyed.
    ///
    /// `limit` caps how many pairs this batch needs to hold (the consumer
    /// will not take more before asking again): implementations may stop
    /// collecting — and cloning values — once they reach it, as long as a
    /// truncated batch still resumes exactly after its last pair. Pass
    /// `usize::MAX` when streaming without a known bound.
    fn fill_next(&mut self, from: &[u8], batch: &mut ScanBatch<V>, limit: usize) -> bool;
}

/// Adapts `range_from` into a [`CursorSource`]: each batch is one
/// `range_from(from, DEFAULT_SCAN_BATCH)` call at the position the cursor
/// hands in. This is the default `OrderedIndex::scan`, and the `scan` a
/// `ConcurrentOrderedIndex` without a native streaming path returns; it
/// removes the `O(window)` copy of a
/// single huge `range_from` but still pays one key-`Vec` allocation per
/// pair inside the adapted call.
struct RangeFnSource<V, F> {
    fetch: F,
    done: bool,
    _values: std::marker::PhantomData<fn() -> V>,
}

impl<V, F> CursorSource<V> for RangeFnSource<V, F>
where
    F: FnMut(&[u8], usize) -> Vec<(Vec<u8>, V)>,
{
    fn fill_next(&mut self, from: &[u8], batch: &mut ScanBatch<V>, limit: usize) -> bool {
        batch.clear();
        if self.done {
            return false;
        }
        let want = limit.min(DEFAULT_SCAN_BATCH);
        let got = (self.fetch)(from, want);
        if got.len() < want {
            self.done = true;
        }
        for (key, value) in got {
            batch.push(&key, value);
        }
        !batch.is_empty()
    }
}

/// A resumable ordered-scan cursor over an index.
///
/// Borrowing the index for `'a`, the cursor streams pairs in strictly
/// ascending key order, one [`ScanBatch`] at a time. See the
/// [module docs](self) for the consistency contract (per-batch snapshots,
/// no global snapshot) and resumability.
pub struct Cursor<'a, V> {
    source: Box<dyn CursorSource<V> + 'a>,
    batch: ScanBatch<V>,
    /// Pairs `[..pos]` of `batch` have been consumed.
    pos: usize,
    /// Start key continuing the scan after every *fully consumed* batch;
    /// `resume_key` refines it with the in-batch position.
    resume: Vec<u8>,
    /// Advisory per-batch cap passed to the source (`usize::MAX` when
    /// streaming without a bound); set by `collect_next` so a bounded
    /// window never makes the index copy more than it asked for.
    fetch_budget: usize,
    done: bool,
}

impl<'a, V> Cursor<'a, V> {
    /// Wraps an index-provided source into a cursor starting at `start`.
    /// This is the scan's one copy of the start key: every fill hands the
    /// source the cursor's position (see [`CursorSource::fill_next`]).
    pub fn new(start: &[u8], source: Box<dyn CursorSource<V> + 'a>) -> Self {
        // Room for the successor of an equally long key, so the first
        // batch boundary does not regrow the buffer.
        let mut resume = Vec::with_capacity(start.len() + 1);
        resume.extend_from_slice(start);
        Self {
            source,
            batch: ScanBatch::new(),
            pos: 0,
            resume,
            fetch_budget: usize::MAX,
            done: false,
        }
    }

    /// Builds a cursor over a `range_from`-style fetch function: how an
    /// index without a native streaming path implements `scan`.
    pub fn adapt_range_from<F>(start: &[u8], fetch: F) -> Self
    where
        F: FnMut(&[u8], usize) -> Vec<(Vec<u8>, V)> + 'a,
        V: 'a,
    {
        Self::new(
            start,
            Box::new(RangeFnSource {
                fetch,
                done: false,
                _values: std::marker::PhantomData,
            }),
        )
    }

    /// Fetches the next batch, recording the resume point of the one being
    /// abandoned. Returns `false` at the end of the scan.
    fn refill(&mut self) -> bool {
        if let Some(last) = self.batch.last_key() {
            crate::key::immediate_successor_into(last, &mut self.resume);
        }
        self.pos = 0;
        if self.done {
            self.batch.clear();
            return false;
        }
        if self
            .source
            .fill_next(&self.resume, &mut self.batch, self.fetch_budget.max(1))
        {
            true
        } else {
            self.done = true;
            false
        }
    }

    /// Yields the next pair, fetching a new batch when the current one is
    /// exhausted. The borrow ends before the next call (lending iteration),
    /// which is what lets every yielded key live in the reused arena.
    #[allow(clippy::should_implement_trait)] // lending: item borrows &mut self
    pub fn next(&mut self) -> Option<(&[u8], &V)> {
        if self.pos == self.batch.len() && !self.refill() {
            return None;
        }
        let i = self.pos;
        self.pos += 1;
        Some(self.batch.get(i))
    }

    /// Advances to the next non-empty batch and yields it whole. Any pairs
    /// of the current batch not yet taken with [`Cursor::next`] are
    /// skipped — batch iteration concedes the batch as a unit.
    pub fn next_batch(&mut self) -> Option<&ScanBatch<V>> {
        if !self.refill() {
            return None;
        }
        self.pos = self.batch.len();
        Some(&self.batch)
    }

    /// Copies up to `count` pairs into `out` (the materialising bridge that
    /// lets `range_from` be a thin wrapper over the cursor). Returns how
    /// many pairs were appended.
    pub fn collect_next(&mut self, count: usize, out: &mut Vec<(Vec<u8>, V)>) -> usize
    where
        V: Clone,
    {
        let mut appended = 0;
        while appended < count {
            // Tell the source how much of the window is left, so a short
            // window never snapshots (and clones) a whole leaf of values.
            self.fetch_budget = count - appended;
            match self.next() {
                Some((key, value)) => {
                    out.push((key.to_vec(), value.clone()));
                    appended += 1;
                }
                None => break,
            }
        }
        self.fetch_budget = usize::MAX;
        appended
    }

    /// The start key that continues this scan after everything consumed so
    /// far: pass it to a fresh `scan` (possibly after mutating the index)
    /// to resume without re-yielding any pair.
    ///
    /// # Examples
    ///
    /// Drop a cursor mid-scan, keep only its resume key, and continue from
    /// a fresh cursor without duplicating or skipping a pair:
    ///
    /// ```
    /// use index_traits::Cursor;
    /// use std::collections::BTreeMap;
    ///
    /// let map: BTreeMap<Vec<u8>, u64> =
    ///     (0u8..6).map(|i| (vec![b'k', b'0' + i], u64::from(i))).collect();
    /// let fetch = |start: &[u8], count: usize| {
    ///     map.range(start.to_vec()..).take(count)
    ///         .map(|(k, v)| (k.clone(), *v)).collect::<Vec<_>>()
    /// };
    ///
    /// // Consume the first two pairs, then abandon the cursor.
    /// let mut cursor = Cursor::adapt_range_from(b"", fetch);
    /// let mut first = Vec::new();
    /// cursor.collect_next(2, &mut first);
    /// let resume = cursor.resume_key();
    /// drop(cursor);
    ///
    /// // The resume key is the successor of the last consumed key ...
    /// assert_eq!(first.last().unwrap().0, b"k1");
    /// assert_eq!(resume, b"k1\x00");
    ///
    /// // ... so a fresh cursor picks up exactly where the old one stopped.
    /// let mut rest = Vec::new();
    /// Cursor::adapt_range_from(&resume, fetch).collect_next(usize::MAX, &mut rest);
    /// let keys: Vec<_> = first.iter().chain(&rest).map(|(k, _)| k.clone()).collect();
    /// assert_eq!(keys, [b"k0", b"k1", b"k2", b"k3", b"k4", b"k5"]);
    /// ```
    pub fn resume_key(&self) -> Vec<u8> {
        if self.pos > 0 {
            let mut key = Vec::new();
            crate::key::immediate_successor_into(self.batch.key(self.pos - 1), &mut key);
            key
        } else {
            self.resume.clone()
        }
    }

    /// Returns `true` once the scan is exhausted and fully consumed.
    pub fn is_done(&self) -> bool {
        self.done && self.pos == self.batch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{IndexStats, OrderedIndex};
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Model {
        map: BTreeMap<Vec<u8>, u64>,
    }

    impl OrderedIndex<u64> for Model {
        fn name(&self) -> &'static str {
            "model"
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
            IndexStats::default()
        }
    }

    fn populated(n: u64) -> Model {
        let mut m = Model::default();
        for i in 0..n {
            m.set(format!("key-{i:05}").as_bytes(), i);
        }
        m
    }

    #[test]
    fn batch_arena_roundtrip() {
        let mut batch: ScanBatch<u64> = ScanBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.last_key(), None);
        batch.push(b"alpha", 1);
        batch.push(b"beta", 2);
        batch.push(b"", 3); // empty keys are representable
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), (b"alpha".as_ref(), &1));
        assert_eq!(batch.get(1), (b"beta".as_ref(), &2));
        assert_eq!(batch.get(2), (b"".as_ref(), &3));
        assert_eq!(batch.last_key(), Some(b"".as_ref()));
        let pairs: Vec<(Vec<u8>, u64)> = batch.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
        assert_eq!(pairs.len(), 3);
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn batch_truncate_trims_arena_and_pairs() {
        let mut batch: ScanBatch<u64> = ScanBatch::new();
        batch.push(b"aa", 1);
        batch.push(b"bbbb", 2);
        batch.push(b"c", 3);
        batch.truncate(5); // beyond len: no-op
        assert_eq!(batch.len(), 3);
        batch.truncate(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.get(0), (b"aa".as_ref(), &1));
        assert_eq!(batch.get(1), (b"bbbb".as_ref(), &2));
        assert_eq!(batch.last_key(), Some(b"bbbb".as_ref()));
        // The arena end matches the kept keys, so further pushes append
        // cleanly after a truncation.
        batch.push(b"dd", 4);
        assert_eq!(batch.get(2), (b"dd".as_ref(), &4));
        batch.truncate(0);
        assert!(batch.is_empty());
        batch.push(b"e", 5);
        assert_eq!(batch.get(0), (b"e".as_ref(), &5));
    }

    #[test]
    fn default_scan_streams_every_pair_once() {
        let model = populated(500);
        let mut cursor = model.scan(b"");
        let mut seen = Vec::new();
        while let Some((k, v)) = cursor.next() {
            seen.push((k.to_vec(), *v));
        }
        assert!(cursor.is_done());
        assert_eq!(seen.len(), 500);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(seen, model.range_from(b"", usize::MAX));
    }

    #[test]
    fn default_scan_exact_batch_multiple() {
        // A population that is an exact multiple of the adapter batch size
        // must not yield a trailing phantom batch or duplicate pairs.
        let model = populated(2 * DEFAULT_SCAN_BATCH as u64);
        let mut cursor = model.scan(b"");
        let mut n = 0usize;
        while let Some(batch) = cursor.next_batch() {
            assert!(!batch.is_empty());
            n += batch.len();
        }
        assert_eq!(n, 2 * DEFAULT_SCAN_BATCH);
    }

    #[test]
    fn scan_respects_start_bound() {
        let model = populated(300);
        let mut cursor = model.scan(b"key-00250");
        let mut seen = Vec::new();
        while let Some((k, _)) = cursor.next() {
            seen.push(k.to_vec());
        }
        assert_eq!(seen.len(), 50);
        assert_eq!(seen[0], b"key-00250".to_vec());
    }

    #[test]
    fn resume_key_continues_without_duplicates_across_mutation() {
        let mut model = populated(400);
        let mut first = Vec::new();
        let resume = {
            let mut cursor = model.scan(b"");
            cursor.collect_next(150, &mut first);
            cursor.resume_key()
        };
        assert_eq!(first.len(), 150);
        // Mutate behind and ahead of the cursor, then resume.
        model.del(b"key-00010"); // behind: already yielded, stays yielded once
        model.set(b"key-00200x", 999); // ahead: must be seen
        let mut rest = Vec::new();
        model.scan(&resume).collect_next(usize::MAX, &mut rest);
        let mut all = first;
        all.extend(rest);
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate or disorder"
        );
        assert!(all.iter().any(|(k, _)| k == b"key-00200x"));
        assert_eq!(all.len(), 401); // 400 original + 1 insert, deletion was behind
    }

    #[test]
    fn resume_key_mid_batch_points_after_last_consumed() {
        let model = populated(100);
        let mut cursor = model.scan(b"");
        for _ in 0..7 {
            cursor.next();
        }
        let resume = cursor.resume_key();
        let mut rest = Vec::new();
        model.scan(&resume).collect_next(usize::MAX, &mut rest);
        assert_eq!(rest.len(), 93);
        assert_eq!(rest[0].0, b"key-00007".to_vec());
    }

    #[test]
    fn collect_next_matches_range_from_windows() {
        let model = populated(350);
        for (start, count) in [(&b""[..], 10usize), (b"key-00100", 77), (b"zzz", 5)] {
            let mut got = Vec::new();
            model.scan(start).collect_next(count, &mut got);
            assert_eq!(got, model.range_from(start, count));
        }
    }

    #[test]
    fn empty_index_scan_is_empty() {
        let model = Model::default();
        let mut cursor = model.scan(b"");
        assert!(cursor.next().is_none());
        assert!(cursor.next().is_none(), "exhaustion is sticky");
        assert!(cursor.is_done());
    }
}
