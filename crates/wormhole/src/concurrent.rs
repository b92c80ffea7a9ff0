//! The thread-safe Wormhole index (§2.5 of the paper, with lock-free reads).
//!
//! Concurrency control combines four mechanisms:
//!
//! * a **seqlock per leaf node** — every leaf carries a version counter
//!   (even = stable, odd = being written). `get` and the scan cursor
//!   behind `scan`/`range_from` read the leaf **without taking any
//!   lock**: they snapshot the counter, perform a bounds-checked read of
//!   the leaf, and accept the result only if the counter is unchanged and
//!   still even. Writers bump the counter (odd on entry, even on exit)
//!   inside the write lock they already hold, so a racing read always
//!   fails validation and retries. After a bounded number of conflicts a
//!   reader takes the leaf's reader lock instead — the paper's read, and
//!   a mode of the same one read of a leaf — which bounds worst-case
//!   latency under heavy write contention. Ordered scans stream validated
//!   snapshots of one leaf, or part of one, per batch (`ScanSource`) —
//!   per-batch atomicity, no global snapshot across batches. As in the
//!   paper, a scan is one lookup and then a walk of the LeafList: it keeps
//!   the leaf it stopped in and the snapshot it read there, continues in
//!   that leaf while the snapshot holds and over its `next` link from its
//!   end, and searches again only when the leaf changed. The one time a
//!   scan locks on its way is when the leaf it reached has items appended
//!   behind its key-sorted view: it sorts the view under that leaf's write
//!   lock, reads it there, and leaves it sorted for the scans that follow;
//! * a **writer lock per leaf node** — in-place inserts, deletes, and the
//!   structural operations serialise on it exactly as in the paper;
//! * a single **writer mutex over the MetaTrieHT** — splits, merges and
//!   the bulk load's splits take it, through one structural commit step
//!   (`Wormhole::commit`; its order is the *Structural updates* paragraph
//!   of `docs/src/architecture.md`). A commit runs the operation's
//!   [`MetaUpdate`] on a second hash table (T2), publishes it, and *starts*
//!   an RCU grace period (QSBR) that retires the old table (T1). The
//!   writer's one slot then holds T1 and the update it misses with the
//!   grace token. The **next** commit completes the grace period — by then
//!   it has almost always elapsed for free — and runs the same update on
//!   T1 (§2.5), so no structural operation blocks on reader quiescence in
//!   steady state. Split points, anchors and meta-item bookkeeping come
//!   from the core engine ([`crate::core`]);
//! * **version numbers** — every published MetaTrieHT carries a version,
//!   and a leaf about to be split or merged records `version + 1` as its
//!   *expected version*. A lookup that reaches a leaf whose expected
//!   version is newer than the table it searched restarts, which prevents
//!   reads through a stale table from observing half-moved keys. The
//!   optimistic read path applies the same gate between its seqlock
//!   snapshot and validation.
//!
//! Readers never take the writer mutex and never wait for grace periods.
//! On the hot path they take no lock at all; the only blocking they can
//! ever experience is on an individual leaf lock: after
//! [`OPTIMISTIC_READ_RETRIES`] consecutive seqlock conflicts, for every
//! read of a value type with drop glue, or for a scan's sort. No thread
//! waits for a grace period while it holds a leaf lock, so a reader may
//! block on one inside its QSBR critical section, and every read runs in
//! one.
//!
//! # Safety model of the optimistic read
//!
//! Every read of a leaf — the point read, the scan batch and its step over
//! a `next` link, the neighbour step of a search, the staging peek of a
//! batched read — goes through one primitive, `LeafShared::read`: the
//! reader lock in locked mode, seqlock enter (only at the snapshot a scan
//! stopped at, when it resumes), the expected-version gate, a view of the
//! leaf, the caller's closure, validation unless locked. Its doc comment
//! carries the argument for the lock-free mode, which rests on three
//! layers:
//!
//! * **every heap block a reader can reach stays allocated for its whole
//!   critical section**: writers retire not only tables and leaf nodes but
//!   every leaf-interior block they unlink, for every value type, into the
//!   index's one [`LeafGarbage`] bin, whose full loads are dropped only
//!   after a grace period (`Wormhole::retire_garbage`);
//! * **a live leaf's vector is never reallocated in place** (the rule in
//!   the [`crate::leaf`] docs): it grows by moving into a new buffer and
//!   retiring the old, or is replaced whole, so a pointer and a length
//!   read one write apart still name written records in an allocated
//!   buffer, and the `*_checked` methods of [`LeafNode`] bounds-check every
//!   index step and treat implausible key lengths as conflicts;
//! * **validation discards everything read during a write.**
//!
//! Like every seqlock (the kernel's included), the transient read of
//! in-flux data is a deliberate race, over live memory only. Values are
//! cloned speculatively only when they have no drop glue
//! (`optimistic_reads_safe`); other value types read through the same
//! primitive under the leaf's reader lock.

use std::borrow::Cow;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use index_traits::{
    ConcurrentOrderedIndex, Cursor, CursorSource, FromSorted, IndexStats, ScanBatch, Take,
};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use wh_epoch::Qsbr;
use wh_hash::crc32c;
use wh_telemetry::Counter;

use crate::config::WormholeConfig;
use crate::core;
use crate::leaf::{Bin, LeafGarbage, LeafNode, ReadConflict};
use crate::meta::{
    LeafRef, MetaItem, MetaShape, MetaTable, MetaUpdate, TargetOutcome, BATCH_WINDOW,
};
use crate::prefetch::prefetch_slice;
use crate::telemetry::WormholeMetrics;

/// Seqlock conflicts a lock-free read tolerates. Then a point read goes on
/// under its leaf's reader lock, and a scan cursor (and so `range_from`,
/// which streams through one) reads the rest of its scan under leaf locks.
pub const OPTIMISTIC_READ_RETRIES: usize = 8;

/// Keys longer than this are treated as torn state by the optimistic range
/// reader rather than copied (a racing read of a key's length field could
/// otherwise provoke an enormous allocation). Legitimate keys of this size
/// are still served — by a locked read once the conflicts run out.
const MAX_OPTIMISTIC_KEY_LEN: usize = 1 << 20;

/// Retired blocks the index's garbage bin collects from point mutations
/// before it is emptied into one deferred-reclamation callback.
const GARBAGE_FLUSH_PENDING: usize = 1024;

/// Such callbacks tolerated in the queue before the mutation that added the
/// last one forces a grace period itself (splits and merges run one anyway
/// and drain the queue for free).
const GARBAGE_FLUSH_BINS: usize = 8;

/// Shared state of one leaf: its data behind a reader/writer lock, the
/// seqlock counter, and the expected-version gate of the start-over
/// protocol.
struct LeafShared<V> {
    /// A lookup that searched a MetaTrieHT older than this value must
    /// restart (§2.5).
    expected_version: AtomicU64,
    /// Seqlock counter: even = stable, odd = a writer is mutating `data`.
    /// Only ever modified while the `data` write lock is held.
    seq: AtomicU64,
    data: RwLock<LeafData<V>>,
}

impl<V> LeafShared<V> {
    fn new(leaf: LeafNode<V>, prev: Weak<Self>, next: Option<Arc<Self>>) -> Arc<Self> {
        Arc::new(Self {
            expected_version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            data: RwLock::new(LeafData { leaf, prev, next }),
        })
    }

    fn expected_version(&self) -> u64 {
        self.expected_version.load(Ordering::Acquire)
    }

    /// The leaf's writer lock, or `None` when a split or merge has moved
    /// keys across it since a table of `version` was searched (§2.5): the
    /// caller searches again.
    fn write_at(&self, version: u64) -> Option<RwLockWriteGuard<'_, LeafData<V>>> {
        let data = self.data.write();
        (self.expected_version() <= version).then_some(data)
    }

    /// Begins an optimistic read: returns the current (even) counter, or
    /// `None` when a write is in progress.
    #[inline]
    fn seq_enter(&self) -> Option<u64> {
        let s = self.seq.load(Ordering::Acquire);
        (s & 1 == 0).then_some(s)
    }

    /// Ends an optimistic read: `true` when no write started since
    /// [`LeafShared::seq_enter`] returned `snapshot`, i.e. everything read
    /// in between is consistent.
    #[inline]
    fn seq_validate(&self, snapshot: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == snapshot
    }

    /// The one read of a leaf, lock-free or, when `locked`, under the
    /// leaf's reader lock (the paper's §2.5 read). It enters the seqlock
    /// (given `expect`, only while the counter still equals it), restarts
    /// when `gate` — the version of the table the leaf was found in — is
    /// older than the leaf's expected version (§2.5), runs `f` on the
    /// leaf's data, and keeps `f`'s answer only if no write began in the
    /// meantime. It returns the answer with the snapshot it validated: a
    /// scan keeps that snapshot and resumes by expecting it, which admits
    /// the leaf exactly as `f` saw it. Any [`ReadConflict`] means: search
    /// again. Under the reader lock the counter is even and stays so —
    /// writers move it only under the writer lock — so the snapshot names
    /// the state read, and validation has nothing to discard.
    ///
    /// Lock-free, `f` sees data a writer may be changing under it, so it
    /// may only:
    ///
    /// * read through bounds-checked accessors (the `*_checked` methods of
    ///   [`LeafNode`]) and turn what they cannot make sense of into a
    ///   [`ReadConflict`];
    /// * clone a value without drop glue, a `Weak` or an `Arc`, or follow a
    ///   link to a neighbour leaf and read that one through this primitive;
    /// * follow an item's `KeyBox`.
    ///
    /// Locked, `f` may also clone any value. Either way its answer may
    /// borrow the data only to feed prefetch hints: the lock, if any, is
    /// released on return.
    ///
    /// Why the lock-free read is sound. The caller is inside a QSBR
    /// critical section, or holds the writer mutex and reads only what no
    /// point mutation changes (anchors and `prev` links). Every block `f`
    /// can reach then stays allocated until the caller is done: the leaf
    /// and its neighbours are held by the published or a retired table,
    /// which is freed only after a grace period, and every leaf-interior
    /// block a writer unlinks — a grown vector's old buffer, a removed
    /// key's block, a merged-away sibling's storage and anchor — goes
    /// through the index's bin, which frees it only after a grace period
    /// too, for every value type. That is the only reason a `KeyBox` may be
    /// followed. A live vector is never reallocated in place (the rule in
    /// the [`crate::leaf`] docs), so a buffer pointer `f` loads names
    /// records that were written, and the bounds checks keep `f` inside the
    /// length it loaded beside it. A value is only ever cloned lock-free by
    /// callers that checked `Wormhole::optimistic_reads_safe`: a clone of a
    /// torn value with no drop glue owns nothing, so discarding it is
    /// harmless. Validation then discards everything read during a write.
    /// The read itself is a data race in Rust's memory model, as every
    /// seqlock's is. A locked read inside a critical section may block: no
    /// thread waits for a grace period while it holds a leaf lock.
    #[inline]
    fn read<'s, R>(
        &'s self,
        locked: bool,
        gate: Option<u64>,
        expect: Option<u64>,
        f: impl FnOnce(&'s LeafData<V>) -> Result<R, ReadConflict>,
    ) -> Result<(R, u64), ReadConflict> {
        let lock = locked.then(|| self.data.read());
        let snapshot = self.seq_enter().ok_or(ReadConflict)?;
        if expect.is_some_and(|expect| expect != snapshot)
            || gate.is_some_and(|version| self.expected_version() > version)
        {
            return Err(ReadConflict);
        }
        // SAFETY: the argument above, or the reader lock; the pointer
        // itself is valid for as long as `self` is borrowed.
        let answer = f(unsafe { &*self.data.data_ptr() })?;
        if lock.is_some() || self.seq_validate(snapshot) {
            Ok((answer, snapshot))
        } else {
            Err(ReadConflict)
        }
    }
}

/// RAII section marking a leaf as being written (seqlock odd) for the
/// duration of a mutation. Must only be created — and dropped — while the
/// leaf's write lock is held.
struct SeqWriteSection<'a>(&'a AtomicU64);

impl<'a> SeqWriteSection<'a> {
    fn new(seq: &'a AtomicU64) -> Self {
        let s = seq.load(Ordering::Relaxed);
        debug_assert_eq!(s & 1, 0, "nested seqlock write section");
        seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        Self(seq)
    }
}

impl Drop for SeqWriteSection<'_> {
    fn drop(&mut self) {
        drop(AbortOnUnwind("a leaf mutation"));
        let s = self.0.load(Ordering::Relaxed);
        debug_assert_eq!(s & 1, 1, "unbalanced seqlock write section");
        self.0.store(s + 1, Ordering::Release);
    }
}

/// Aborts the process if dropped while its thread unwinds out of a section
/// that leaves a structure torn until it ends: a [`SeqWriteSection`] (the
/// next optimistic read takes the leaf) or `MetaTable::apply` on the spare.
struct AbortOnUnwind(&'static str);

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("wormhole: panic inside {}, aborting", self.0);
            std::process::abort();
        }
    }
}

/// Lock-protected contents of a leaf.
struct LeafData<V> {
    leaf: LeafNode<V>,
    /// Previous leaf on the LeafList (weak to avoid a reference cycle).
    prev: Weak<LeafShared<V>>,
    /// Next leaf on the LeafList.
    next: Option<Arc<LeafShared<V>>>,
}

impl<V> LeafRef for Arc<LeafShared<V>> {
    fn same(&self, other: &Self) -> bool {
        Arc::ptr_eq(self, other)
    }
}

// A leaf is one pointer, so an item record is one cache line (the layout
// is in the `meta` module docs).
const _: () = assert!(std::mem::size_of::<MetaItem<Arc<LeafShared<u64>>>>() <= 64);

/// A leaf a search found, as [`Wormhole::resolve`] hands it, and the
/// version of the table searched.
type Found<'m, V> = (Cow<'m, Arc<LeafShared<V>>>, u64);

/// A split's or merge's change to the MetaTrieHT of this index.
type Update<V> = MetaUpdate<Arc<LeafShared<V>>>;

/// A MetaTrieHT together with its version number.
struct VersionedMeta<V> {
    version: u64,
    table: MetaTable<Arc<LeafShared<V>>>,
}

/// Writer-side state protected by the MetaTrieHT mutex: the table that is
/// not published (the paper's second hash table) and the update it misses.
///
/// The T2-then-T1 protocol does not need the table a publication retired
/// until the *next* structural operation, so instead of blocking on a grace
/// period inside every split and merge, a publication merely starts one
/// ([`Qsbr::start_grace`]) and leaves its update here. The next structural
/// operation completes the wait ([`Qsbr::wait_grace`]) — by then every
/// reader has usually announced quiescence and the wait costs one atomic
/// load per registered thread — and runs the update again on `other`
/// ([`Wormhole::reclaim_spare`]).
struct WriterState<V> {
    /// The unpublished table; readers may still be inside it until the
    /// grace period in `replay` elapses, and then it is the mutex holder's.
    other: *mut VersionedMeta<V>,
    /// The update the published table has and `other` misses, with the
    /// grace token of the publication that retired `other`. `None` when
    /// `other` is a logical copy of the published table.
    replay: Option<(Update<V>, u64)>,
}

/// What [`Wormhole::commit`] hands a structural operation's leaf surgery:
/// the writer mutex, the published table and its version, a bin for the
/// blocks the surgery unlinks, and the one way to publish.
struct Commit<'w, V> {
    wh: &'w Wormhole<V>,
    writer: MutexGuard<'w, WriterState<V>>,
    /// The published table, pinned by the writer mutex.
    table: &'w MetaTable<Arc<LeafShared<V>>>,
    version: u64,
    bin: Bin<'w, V>,
    /// The update a publication ran, still to run on the table it
    /// replaced.
    update: Option<Update<V>>,
}

impl<V> Commit<'_, V> {
    /// Marks `leaf` as one whose keys this commit moves: a lookup that
    /// searched an older table and reaches it restarts (§2.5).
    fn claim(&self, leaf: &Arc<LeafShared<V>>) {
        leaf.expected_version
            .store(self.version + 1, Ordering::Release);
    }

    /// Runs `update` on the unpublished table and publishes it as the next
    /// version, which makes the replaced table the writer's `other`; returns
    /// the update's anchor relocations. At most once per commit, with the
    /// surgery's leaf locks held; the commit leaves the update for replay
    /// once they are released.
    fn publish(&mut self, update: Update<V>) -> Vec<(Arc<LeafShared<V>>, Vec<u8>)> {
        debug_assert!(self.update.is_none(), "one publication per commit");
        let writer = &mut *self.writer;
        // SAFETY: `Wormhole::commit` replayed the table under the mutex the
        // commit holds, after its grace period: no reader is left in it.
        let other = unsafe { &mut *writer.other };
        let _torn = AbortOnUnwind("a MetaTrieHT update");
        let relocations = other.table.apply(&update);
        other.version = self.version + 1;
        // A table does not change while it is published.
        let metrics = &self.wh.metrics;
        metrics.meta_published(self.table.shape(), other.table.shape());
        writer.other = self.wh.current.swap(writer.other, Ordering::AcqRel);
        self.update = Some(update);
        relocations
    }
}

/// The thread-safe Wormhole ordered index.
pub struct Wormhole<V> {
    config: WormholeConfig,
    /// The currently published MetaTrieHT. Readers dereference it inside a
    /// QSBR critical section; writers retire it only after a grace period.
    current: AtomicPtr<VersionedMeta<V>>,
    writer: Mutex<WriterState<V>>,
    qsbr: Qsbr,
    /// The blocks this index's mutations unlinked since the bin was last
    /// swapped: one store for all writers, locked for a push at a time.
    garbage: Mutex<LeafGarbage<V>>,
    /// Leftmost leaf of the LeafList (never merged away).
    head: Arc<LeafShared<V>>,
    len: AtomicUsize,
    /// Event counters; shared (`Arc`) so a sharded front can aggregate all
    /// its shards into one set of cells.
    metrics: Arc<WormholeMetrics>,
}

// SAFETY: all interior state is either atomic, lock-protected, or reclaimed
// through the QSBR domain; `V` crosses threads inside those structures.
unsafe impl<V: Send + Sync> Send for Wormhole<V> {}
// SAFETY: see above — shared access only goes through locks, atomics, and
// seqlock-validated reads.
unsafe impl<V: Send + Sync> Sync for Wormhole<V> {}

impl<V: Clone + Send + Sync + 'static> Default for Wormhole<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Send + Sync + 'static> Wormhole<V> {
    /// Creates an empty index with the default (fully optimised) configuration.
    pub fn new() -> Self {
        Self::with_config(WormholeConfig::default())
    }

    /// Creates an empty index with an explicit configuration.
    pub fn with_config(config: WormholeConfig) -> Self {
        Self::with_config_and_metrics(config, Arc::new(WormholeMetrics::default()))
    }

    /// Creates an empty index with an explicit configuration recording into
    /// caller-supplied metrics cells — a sharded front passes the same
    /// `Arc` to every shard so their events aggregate.
    pub fn with_config_and_metrics(config: WormholeConfig, metrics: Arc<WormholeMetrics>) -> Self {
        let head = LeafShared::new(LeafNode::new(Vec::new(), Vec::new()), Weak::new(), None);
        // The published table and the other, logical copies of each other.
        let root_table = || {
            let mut table = MetaTable::new();
            table.install_root_leaf(head.clone());
            Box::new(VersionedMeta { version: 0, table })
        };
        let published = root_table();
        metrics.meta_published(MetaShape::default(), published.table.shape());
        Self {
            config,
            current: AtomicPtr::new(Box::into_raw(published)),
            writer: Mutex::new(WriterState {
                other: Box::into_raw(root_table()),
                replay: None,
            }),
            qsbr: Qsbr::new(),
            garbage: Mutex::default(),
            head,
            len: AtomicUsize::new(0),
            metrics,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WormholeConfig {
        &self.config
    }

    /// The index's event counters (possibly shared with sibling shards).
    pub fn metrics(&self) -> &Arc<WormholeMetrics> {
        &self.metrics
    }

    /// The QSBR domain's metrics (grace waits, drain barriers, deferred
    /// queue depth).
    pub fn epoch_metrics(&self) -> &wh_epoch::EpochMetrics {
        self.qsbr.metrics()
    }

    /// Bulk-loads a **strictly ascending** stream of key/value pairs into
    /// a fresh index recording into `metrics` (a sharded front passes one
    /// `Arc` to every shard, as with [`Self::with_config_and_metrics`]) by
    /// packing leaves directly — the snapshot-restore path behind
    /// [`FromSorted`]: instead of `set`-ing every pair through the split
    /// machinery (O(n) splits, each carving a full leaf), leaves are
    /// greedy-packed to ~¾ of the configured capacity, and each next leaf
    /// is split off the tail empty, through the same structural commit as
    /// a live split (and counted with them).
    ///
    /// The anchor at a boundary is the core engine's
    /// (`core::anchor_between`); when the target boundary admits none
    /// the current leaf keeps growing past the target — the §3.3 fat-node
    /// relaxation, arising here for the same reason it does under `set`.
    ///
    /// # Panics
    ///
    /// Panics when the input is not strictly ascending (equal keys
    /// included) — callers stream from an ordered source (a snapshot file
    /// written by an ordered cursor), so an out-of-order pair means the
    /// source is corrupt.
    pub fn from_sorted_with_metrics(
        config: WormholeConfig,
        metrics: Arc<WormholeMetrics>,
        pairs: impl IntoIterator<Item = (Vec<u8>, V)>,
    ) -> Self {
        let mut wh = Self::with_config_and_metrics(config, metrics);
        // Pack to ¾ capacity so post-restore inserts do not immediately
        // split every leaf, while staying well above the merge threshold.
        let target = (config.leaf_capacity * 3 / 4).max(1);
        let mut tail = wh.head.clone();
        let mut in_leaf = 0usize;
        let mut last_key: Option<Vec<u8>> = None;
        // Nobody reads the index before it is returned.
        let mut bin = Bin::immediate();
        // Every leaf is filled in buffers sized for the target: no growth
        // step moves its items on the way.
        tail.data.write().leaf = LeafNode::with_capacity(Vec::new(), Vec::new(), target);

        for (key, value) in pairs {
            if let Some(last) = &last_key {
                assert!(key > *last, "from_sorted requires strictly ascending keys");
                let anchor = (in_leaf >= target)
                    .then(|| core::anchor_between(last, &key))
                    .flatten();
                if let Some(anchor) = anchor {
                    tail = wh.commit(&key, &wh.metrics.splits, |leaf, commit| {
                        debug_assert!(leaf.same(&tail), "the last key lies in the tail");
                        let table_key = commit.table.reserve_anchor_key(&anchor);
                        let mut left = leaf.data.write();
                        let _section = SeqWriteSection::new(&leaf.seq);
                        // The finished leaf took its keys in ascending
                        // order: its first scan need not sort it.
                        left.leaf.ensure_key_sorted();
                        let right = LeafNode::with_capacity(anchor, table_key, target);
                        Self::link_split(commit, leaf, &mut left, right)
                    });
                    in_leaf = 0;
                }
            }
            *wh.len.get_mut() += 1;
            in_leaf += 1;
            // Strictly ascending input: the key is in no leaf yet.
            tail.data
                .write()
                .leaf
                .insert_absent(&key, crc32c(&key), value, &config, &mut bin);
            last_key = Some(key);
        }
        tail.data.write().leaf.ensure_key_sorted();
        wh
    }

    /// The batch-per-leaf source under [`ConcurrentOrderedIndex::scan`],
    /// for a consumer that drives fills itself and owns the position (the
    /// sharded front's cross-shard scan) instead of wrapping a [`Cursor`].
    pub fn scan_source(&self) -> ScanSource<'_, V> {
        ScanSource {
            wh: self,
            at: None,
            conflicts: 0,
        }
    }

    /// Whether reads of this index run lock-free, decided by the value type
    /// alone.
    ///
    /// A racing read may clone a value from a leaf mid-mutation and
    /// discard the clone after seqlock validation fails. The lock-free
    /// path is reserved for values **without drop glue** (`u64`, small
    /// PODs — exactly what the paper stores): a garbage speculative clone
    /// of such a value owns nothing, so reading and discarding it is
    /// harmless. Heap-owning value types read through the same primitive
    /// (`LeafShared::read`) in its locked mode, under the per-leaf reader
    /// lock, from their first attempt. The check is const-folded.
    ///
    /// The QSBR-deferred reclamation of leaf-interior blocks
    /// ([`LeafGarbage`]) is *not* enough to relax this gate to pointer
    /// values like `Box<T>`: deferral guarantees a speculative read never
    /// touches **freed** memory, but a racing `Clone` of a pointer value
    /// would dereference it *before* validation, and the insert/remove
    /// windows can expose a **never-initialised** slot word (a fresh
    /// buffer's spare capacity racing `Vec::push`'s element/len stores) or
    /// a mid-`memmove` word that is neither old nor new — a wild pointer
    /// the bounds checks cannot contain. Only a value whose every bit
    /// pattern is inert to read and drop survives that window.
    ///
    /// Caveat (part of the documented seqlock race budget): absence of drop
    /// glue does not prove every bit pattern is valid. A no-drop `V` with
    /// invalid bit patterns (`char`, niche-carrying enums) could observe a
    /// torn value before validation discards it, and is unsupported on the
    /// lock-free path. No value type in the tree is one (`u64`, `u32`,
    /// `String`, `Vec<u8>`, `Box<_>`, `Arc<_>`); the `Pod`-style marker
    /// bound that would enforce it belongs to the checked-concurrency
    /// direction in ROADMAP.md.
    ///
    /// This gates value reads only: reclamation is deferred for every value
    /// type ([`Wormhole::new_bin`]).
    /// A ThreadSanitizer build (`--cfg wh_tsan`) reads under the lock: a
    /// seqlock read races its writer by design, and hides what lies past it.
    #[inline]
    const fn optimistic_reads_safe() -> bool {
        !std::mem::needs_drop::<V>() && !cfg!(wh_tsan)
    }

    /// A garbage bin into the index's shared store. Every value type defers
    /// its frees: the neighbour step of every search, the locked reads' and
    /// the writers' included, reads anchors and `prev` links without a lock
    /// ([`Wormhole::resolve`]), and a merge retires the victim's anchor.
    /// A retired block never holds a live `V` — a growing vector moves its
    /// items out of the buffer it retires, and a removed value goes back
    /// to the caller — so deferring delays only the blocks' own frees.
    #[inline]
    fn new_bin(&self) -> Bin<'_, V> {
        Bin::deferred(&self.garbage)
    }

    /// What every mutation does with its bin once its leaf locks are
    /// released: when the index's store holds `flush_at` blocks after its
    /// retirements, empties that into a single callback queued for
    /// reclamation after the next grace period. A split or merge passes 1:
    /// it is about to start a grace period for its publication, which then
    /// covers whatever the store holds, its own large buffers included. A
    /// point mutation passes [`GARBAGE_FLUSH_PENDING`]. Every block was
    /// unlinked before it was pushed, so whichever grace period runs the
    /// callback began after the last reader that could reach one of them
    /// had entered its critical section. Point mutations run no grace
    /// period otherwise, so once a handful of callbacks are queued without
    /// an intervening structural operation (whose grace-period completion
    /// drains the queue as a side effect), one is forced here. A mutation
    /// that retired nothing — the common overwrite — touches no shared
    /// state. The caller must not be inside a QSBR critical section.
    fn retire_garbage(&self, bin: Bin<'_, V>, flush_at: usize) {
        if bin.held() < flush_at {
            return;
        }
        let full = self.garbage.lock().take();
        if self.qsbr.defer(Box::new(move || drop(full))) >= GARBAGE_FLUSH_BINS {
            self.qsbr.synchronize();
        }
    }

    /// Makes `writer.other` a logical copy of the published table again:
    /// completes the previous publication's (usually long-elapsed) grace
    /// period and runs its update again on the table it retired, a logical
    /// copy of the published table before the update; the relocations were
    /// taken from the first run. Must be called while holding the writer
    /// mutex and no QSBR critical section.
    fn reclaim_spare(&self, writer: &mut WriterState<V>) {
        let Some((update, grace)) = writer.replay.take() else {
            return;
        };
        self.qsbr.wait_grace(grace);
        let _torn = AbortOnUnwind("a MetaTrieHT update");
        // SAFETY: the grace period has elapsed, so no reader that could
        // have observed the pre-swap published pointer is still inside its
        // critical section; the mutex makes the table exclusively ours.
        unsafe { &mut *writer.other }.table.apply(&update);
    }

    /// The one structural commit (§2.5) behind every split, merge and
    /// bulk-load split, in the order the *Structural updates* paragraph of
    /// `docs/src/architecture.md` gives: the writer mutex and the previous
    /// publication's grace period first, before any leaf lock, since no
    /// thread may wait for a grace period while it holds one; then `key`'s
    /// leaf, found again; then `surgery` on it with a [`Commit`], which
    /// publishes through [`Commit::publish`] while it holds its leaf locks;
    /// once they are released, the bin's garbage queued; and last the
    /// published update left for replay with a grace period started, and the
    /// publication counted in `counter`.
    fn commit<R>(
        &self,
        key: &[u8],
        counter: &Counter,
        surgery: impl FnOnce(&Arc<LeafShared<V>>, &mut Commit<'_, V>) -> R,
    ) -> R {
        let mut writer = self.writer.lock();
        self.reclaim_spare(&mut writer);
        // The published table cannot change while the mutex is held.
        let (leaf, version) = self.locate(key);
        debug_assert!(leaf.expected_version() <= version);
        let mut commit = Commit {
            wh: self,
            writer,
            // SAFETY: only holders of the writer mutex swap or free the
            // published table, and the commit holds it throughout.
            table: unsafe { &self.published().table },
            version,
            bin: self.new_bin(),
            update: None,
        };
        let answer = surgery(&leaf, &mut commit);
        let Commit {
            mut writer,
            bin,
            update,
            ..
        } = commit;
        let Some(update) = update else {
            drop(writer);
            self.retire_garbage(bin, GARBAGE_FLUSH_PENDING);
            return answer;
        };
        self.retire_garbage(bin, 1);
        writer.replay = Some((update, self.qsbr.start_grace()));
        counter.inc();
        answer
    }

    /// Number of deferred-reclamation callbacks still waiting for a grace
    /// period (tests and diagnostics).
    pub fn pending_reclamation(&self) -> usize {
        self.qsbr.pending()
    }

    /// Frees every block the index has retired, waiting out a grace period.
    /// The caller must not be inside a read-side critical section.
    pub fn reclaim(&self) {
        self.retire_garbage(self.new_bin(), 0);
        self.qsbr.synchronize();
    }

    /// Number of leaf nodes currently on the LeafList.
    pub fn leaf_count(&self) -> usize {
        let mut n = 0;
        self.for_each_leaf(|_, _| n += 1);
        n
    }

    /// Runs `f` on each leaf of the LeafList, left to right, under the
    /// leaf's reader lock.
    fn for_each_leaf(&self, mut f: impl FnMut(&LeafShared<V>, &LeafData<V>)) {
        let mut cur = Some(self.head.clone());
        while let Some(leaf) = cur {
            let data = leaf.data.read();
            f(&leaf, &data);
            cur = data.next.clone();
        }
    }

    /// The one neighbour resolution: turns a MetaTrieHT search outcome into
    /// the target leaf. A `LeftOf` or a `CompareAnchor` below the anchor
    /// steps to the left neighbour through one [`LeafShared::read`] of the
    /// leaf's anchor and `prev` link; a neighbour a racing merge retired is
    /// a [`ReadConflict`], and the caller searches again. The common case —
    /// the search landed on the target itself — hands the table's own `Arc`
    /// through as a borrow, so a lookup leaves the leaf's reference count
    /// alone; only a neighbour step owns its `Arc`.
    ///
    /// The caller is inside a QSBR critical section and keeps the borrow in
    /// it, or holds the writer mutex: anchors and `prev` links change only
    /// under it, so its holder reads them race-free.
    #[inline]
    fn resolve<'m>(
        outcome: TargetOutcome<&'m Arc<LeafShared<V>>>,
        key: &[u8],
    ) -> Result<Cow<'m, Arc<LeafShared<V>>>, ReadConflict> {
        let (leaf, compare) = match outcome {
            TargetOutcome::Target(leaf) => return Ok(Cow::Borrowed(leaf)),
            TargetOutcome::LeftOf(leaf) => (leaf, false),
            TargetOutcome::CompareAnchor(leaf) => (leaf, true),
        };
        let (prev, _) = leaf.read(cfg!(wh_tsan), None, None, |data| {
            let left = !compare || key < data.leaf.anchor();
            Ok(left.then(|| data.prev.upgrade()))
        })?;
        match prev {
            None => Ok(Cow::Borrowed(leaf)),
            Some(Some(prev)) => Ok(Cow::Owned(prev)),
            Some(None) => Err(ReadConflict),
        }
    }

    /// Searches the published MetaTrieHT for `key`'s leaf.
    ///
    /// # Safety
    ///
    /// As for [`Wormhole::published`], which covers the leaf's borrow too.
    #[inline]
    unsafe fn search(&self, key: &[u8]) -> Result<Found<'_, V>, ReadConflict> {
        // SAFETY: the caller's.
        let meta = unsafe { self.published() };
        let leaf = Self::resolve(meta.table.search_target(key, &self.config), key)?;
        Ok((leaf, meta.version))
    }

    /// The published MetaTrieHT as a reader inside a QSBR critical section
    /// sees it.
    ///
    /// # Safety
    ///
    /// The caller must be inside a read-side critical section of
    /// `self.qsbr` (or hold the writer mutex) and must not let the
    /// reference, or anything borrowed from it, outlive that section:
    /// writers retire a published table only after a grace period.
    #[inline]
    unsafe fn published(&self) -> &VersionedMeta<V> {
        // SAFETY: `current` always points to a live table; the caller's
        // critical section keeps it from being reclaimed.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// The one point pipeline: answers `keys[i]` into `out[i]` for a window
    /// of at most `N` keys — `get` runs it with a window of one,
    /// `get_batch_into` with windows of [`BATCH_WINDOW`].
    ///
    /// One QSBR critical section covers the window: the table search
    /// ([`MetaTable::search_target`] for one key, the round-robined
    /// [`MetaTable::search_targets_window`] for more), the neighbour
    /// resolutions, and the leaf reads. A window of more than one key first
    /// stages every leaf's probe lines in hint-only rounds, so that their
    /// misses overlap; a window of one has nothing to overlap them with. A
    /// key whose read conflicts searches the table published by then. A
    /// value type with drop glue reads under the leaf's reader lock from its
    /// first attempt; any other reads lock-free, and under the lock after
    /// [`OPTIMISTIC_READ_RETRIES`] conflicts.
    fn get_window<const N: usize>(&self, keys: &[&[u8]], out: &mut [Option<V>]) {
        debug_assert!(keys.len() <= N && out.len() == keys.len());
        let mut hashes = [0u32; N];
        for (hash, key) in hashes.iter_mut().zip(keys) {
            *hash = crc32c(key);
        }
        self.qsbr.with_local_handle(|handle| {
            let _guard = handle.enter();
            // SAFETY: inside a read-side critical section; every borrow of a
            // table below ends with this closure.
            let meta = unsafe { self.published() };
            let mut outcomes = [None; N];
            if N == 1 {
                outcomes[0] = Some(meta.table.search_target(keys[0], &self.config));
            } else {
                meta.table
                    .search_targets_window(keys, &self.config, &mut outcomes);
            }
            let mut located: [Option<Cow<'_, Arc<LeafShared<V>>>>; N] = [const { None }; N];
            for (i, key) in keys.iter().enumerate() {
                let outcome = outcomes[i].expect("window filled");
                located[i] = Self::resolve(outcome, key).ok();
            }
            if N > 1 && !cfg!(wh_tsan) {
                // Every leaf header first, then the probe lines. The peek
                // feeds only prefetches: `stage_probes` tolerates a leaf that
                // is mid-mutation by construction. (It reads without a lock,
                // so a ThreadSanitizer build skips it.)
                for leaf in located.iter().flatten() {
                    prefetch_slice(std::slice::from_ref::<LeafShared<V>>(leaf));
                }
                let leaves = located.each_ref().map(|leaf| {
                    let leaf = leaf.as_ref()?;
                    let read = leaf.read(false, None, None, |data| Ok(&data.leaf));
                    read.ok().map(|(leaf, _)| leaf)
                });
                LeafNode::stage_probes(&leaves, &hashes, &self.config);
            }
            for (i, key) in keys.iter().enumerate() {
                // The first attempt reads the leaf the window's search
                // found; a retry searches the table published by then.
                let mut found = located[i]
                    .take()
                    .ok_or(ReadConflict)
                    .map(|leaf| (leaf, meta.version));
                for attempt in 0.. {
                    let locked =
                        !Self::optimistic_reads_safe() || attempt >= OPTIMISTIC_READ_RETRIES;
                    if Self::optimistic_reads_safe() && attempt == OPTIMISTIC_READ_RETRIES {
                        self.metrics.locked_fallbacks.inc();
                    }
                    let read = found.and_then(|(leaf, version)| {
                        leaf.read(locked, Some(version), None, |data| {
                            let value = data.leaf.get_checked(key, hashes[i], &self.config)?;
                            Ok(value.cloned())
                        })
                    });
                    if let Ok((value, _)) = read {
                        out[i] = value;
                        break;
                    }
                    if locked {
                        self.metrics.lpm_restarts.inc();
                    } else {
                        self.metrics.seqlock_retries.inc();
                    }
                    std::hint::spin_loop();
                    // SAFETY: as above.
                    found = unsafe { self.search(key) };
                }
            }
        });
    }

    /// [`Wormhole::search`] inside a QSBR critical section of its own,
    /// repeated until it finds the leaf. Kept out of
    /// [`Wormhole::with_leaf_write`]: with the search written into it, and
    /// so into every writer, `index-churn` ran about 1 % slower.
    fn locate(&self, key: &[u8]) -> (Arc<LeafShared<V>>, u64) {
        loop {
            let located = self.qsbr.with_local_handle(|handle| {
                let _guard = handle.enter();
                // SAFETY: inside a read-side critical section; only owned
                // leaves leave it.
                let (leaf, version) = unsafe { self.search(key) }?;
                Ok((leaf.into_owned(), version))
            });
            match located {
                Ok(found) => return found,
                // A racing write or merge stopped the neighbour step.
                Err(ReadConflict) => self.metrics.lpm_restarts.inc(),
            }
        }
    }

    /// Runs `f` under the write lock of `key`'s leaf (for in-place updates
    /// that do not change the set of leaves), with the leaf's seqlock odd.
    /// A split or merge that moved keys across the leaf since the search
    /// sends it back to [`Wormhole::locate`].
    fn with_leaf_write<R>(&self, key: &[u8], f: impl FnOnce(&mut LeafData<V>) -> R) -> R {
        loop {
            let (leaf, version) = self.locate(key);
            let Some(mut data) = leaf.write_at(version) else {
                continue;
            };
            let _section = SeqWriteSection::new(&leaf.seq);
            return f(&mut data);
        }
    }

    /// Write-locks `leaf` with its key-sorted view brought up to date: the
    /// paper's `incSort`, run under the leaf lock by the range operation
    /// that needs the order (§3.2) and kept, so the next scan of the leaf
    /// finds its view current. The seqlock is odd only while the view is
    /// rewritten. `None` when the leaf is being split or merged: the
    /// caller searches again.
    fn write_sorted<'l>(
        &self,
        leaf: &'l Arc<LeafShared<V>>,
        version: u64,
    ) -> Option<RwLockWriteGuard<'l, LeafData<V>>> {
        let mut data = leaf.write_at(version)?;
        if data.leaf.key_view_lags() {
            let _section = SeqWriteSection::new(&leaf.seq);
            data.leaf.ensure_key_sorted();
            self.metrics.scan_sorts.inc();
        }
        Some(data)
    }

    // ------------------------------------------------------------------
    // Split and merge (the third operation group of §2.5). Split points,
    // anchors and meta-item bookkeeping come from the core engine; this
    // code links leaves, marks seqlocks and versions, and publishes
    // through the one structural commit (`Wormhole::commit`).
    // ------------------------------------------------------------------

    /// Inserts `key` when the fast path found its leaf full: re-checks the
    /// leaf under the writer mutex and splits it if it is still full and
    /// has a valid split point.
    fn insert_with_split(&self, key: &[u8], hash: u32, value: V) -> Option<V> {
        self.commit(key, &self.metrics.splits, |leaf, commit| {
            let mut left = leaf.data.write();
            let _section = SeqWriteSection::new(&leaf.seq);
            // The key may have arrived between the fast path giving up and
            // the mutex being taken.
            if let Some(slot) = left.leaf.get_mut(key, hash, &self.config) {
                return Some(std::mem::replace(slot, value));
            }
            self.len.fetch_add(1, Ordering::Relaxed);
            // Split point, anchor, table key and the carved right half come
            // from the core engine. A leaf with room takes the key as it is,
            // and so does a fat one (§3.3), which has no valid split point.
            let split = (left.leaf.len() >= self.config.leaf_capacity)
                .then(|| core::prepare_split(&mut left.leaf, commit.table, &mut commit.bin))
                .flatten();
            let Some(mut split) = split else {
                left.leaf
                    .insert_absent(key, hash, value, &self.config, &mut commit.bin);
                return None;
            };
            // Into whichever half covers the key; the right one is not
            // linked yet.
            let half = if key >= split.anchor.as_slice() {
                &mut split.right
            } else {
                &mut left.leaf
            };
            half.insert_absent(key, hash, value, &self.config, &mut commit.bin);
            Self::link_split(commit, leaf, &mut left, split.right);
            None
        })
    }

    /// Links `right`, a split's right half, into the leaf list after `leaf`,
    /// whose write lock the caller holds as `left` inside a seqlock write
    /// section, and publishes the update that registers it while the new
    /// leaf is still locked too. Returns the new leaf.
    fn link_split(
        commit: &mut Commit<'_, V>,
        leaf: &Arc<LeafShared<V>>,
        left: &mut LeafData<V>,
        right: LeafNode<V>,
    ) -> Arc<LeafShared<V>> {
        let old_right = left.next.clone();
        let new = LeafShared::new(right, Arc::downgrade(leaf), old_right.clone());
        let new_guard = new.data.write();
        let new_section = SeqWriteSection::new(&new.seq);
        left.next = Some(new.clone());
        commit.claim(leaf);
        commit.claim(&new);
        // Fix the right neighbour's back link (lock ordering: left to right).
        if let Some(right) = &old_right {
            let mut neighbour = right.data.write();
            let _section = SeqWriteSection::new(&right.seq);
            neighbour.prev = Arc::downgrade(&new);
        }
        // One update, two runs: on the other table, which is published, and
        // — after the grace period — on the retired original.
        let update = MetaUpdate::Split {
            table_key: new_guard.leaf.table_key().to_vec(),
            new_leaf: new.clone(),
            split_leaf: leaf.clone(),
            old_right,
        };
        for (relocated, new_key) in commit.publish(update) {
            // The only anchor that can be a proper prefix of the new anchor
            // is the split leaf's own anchor, whose lock is held.
            assert!(relocated.same(leaf), "unexpected anchor relocation");
            left.leaf.set_table_key(new_key, &mut commit.bin);
        }
        drop(new_section);
        drop(new_guard);
        new
    }

    /// Whether Algorithm 2's merge test could hold for the leaf behind
    /// `data` and one of its neighbours: what a removal asks, still holding
    /// its leaf's write lock (which pins both links), before it pays for
    /// [`Wormhole::try_merge`]. A neighbour's length is read only if its
    /// lock is free; a busy neighbour counts as eligible, and the test under
    /// the writer mutex stays the authoritative one.
    fn could_merge(&self, data: &LeafData<V>) -> bool {
        let len = data.leaf.len();
        let eligible = |neighbour: &LeafShared<V>| {
            neighbour.data.try_read().is_none_or(|neighbour| {
                core::merge_eligible(neighbour.leaf.len(), len, &self.config)
            })
        };
        len < self.config.merge_size()
            && (data.prev.upgrade().is_some_and(|prev| eligible(&prev))
                || data.next.as_ref().is_some_and(|next| eligible(next)))
    }

    /// Attempts to merge the leaf owning `key` with one of its neighbours
    /// (Algorithm 2, DEL): into its left neighbour first, else absorbing
    /// its right one.
    fn try_merge(&self, key: &[u8]) {
        self.metrics.merge_attempts.inc();
        self.commit(key, &self.metrics.merges, |leaf, commit| {
            let (prev, next) = {
                let data = leaf.data.read();
                (data.prev.upgrade(), data.next.clone())
            };
            if !prev.is_some_and(|prev| self.merge_into_left(commit, &prev, leaf)) {
                if let Some(next) = next {
                    self.merge_into_left(commit, leaf, &next);
                }
            }
        });
    }

    /// Merges `victim` into `left` if the two are still neighbours and pass
    /// Algorithm 2's test under their locks (taken left to right), and
    /// publishes the update that unregisters it with both still locked.
    /// Returns whether it did.
    fn merge_into_left(
        &self,
        commit: &mut Commit<'_, V>,
        left: &Arc<LeafShared<V>>,
        victim: &Arc<LeafShared<V>>,
    ) -> bool {
        let mut left_guard = left.data.write();
        if !left_guard
            .next
            .as_ref()
            .is_some_and(|next| next.same(victim))
        {
            return false;
        }
        let mut victim_guard = victim.data.write();
        if !core::merge_eligible(left_guard.leaf.len(), victim_guard.leaf.len(), &self.config) {
            return false;
        }
        commit.claim(left);
        commit.claim(victim);
        let _left_section = SeqWriteSection::new(&left.seq);
        let _victim_section = SeqWriteSection::new(&victim.seq);
        // One update, two runs (see `link_split`). It copies the victim's
        // table key before the victim's leaf is swapped out and absorbed.
        let right = victim_guard.next.clone();
        let update = MetaUpdate::Merge {
            table_key: victim_guard.leaf.table_key().to_vec(),
            victim: victim.clone(),
            left: left.clone(),
            right: right.clone(),
        };
        // Move the items and unlink the victim.
        let victim_leaf = std::mem::replace(
            &mut victim_guard.leaf,
            LeafNode::new(Vec::new(), Vec::new()),
        );
        left_guard.leaf.absorb(victim_leaf, &mut commit.bin);
        left_guard.next = right.clone();
        if let Some(right) = &right {
            // Lock ordering: left < victim < right.
            let mut neighbour = right.data.write();
            let _section = SeqWriteSection::new(&right.seq);
            neighbour.prev = Arc::downgrade(left);
        }
        commit.publish(update);
        true
    }

    /// Memory accounting (Figure 16).
    pub fn stats(&self) -> IndexStats {
        let mut stats = IndexStats {
            keys: self.len.load(Ordering::Relaxed),
            key_bytes: 0,
            value_bytes: self.len.load(Ordering::Relaxed) * std::mem::size_of::<V>(),
            structure_bytes: 0,
        };
        // Meta structure: both tables.
        {
            let writer = self.writer.lock();
            // SAFETY: holding the writer mutex pins the published table and
            // keeps the other one from being changed or freed.
            let tables = unsafe { [&*self.current.load(Ordering::Acquire), &*writer.other] };
            for meta in tables {
                stats.structure_bytes += meta.table.structure_bytes();
            }
        }
        stats.structure_bytes += self.garbage.lock().structure_bytes();
        self.for_each_leaf(|_, data| {
            stats.key_bytes += data.leaf.key_bytes();
            // The leaf's `Arc` block holds two counts and the leaf.
            stats.structure_bytes +=
                data.leaf.structure_bytes() + std::mem::size_of::<(usize, usize, LeafShared<V>)>();
        });
        stats
    }

    /// Walks the LeafList and validates structural invariants (tests only).
    pub fn check_invariants(&self) {
        let mut prev_anchor: Option<Vec<u8>> = None;
        let mut total = 0usize;
        self.for_each_leaf(|leaf, data| {
            assert_eq!(
                leaf.seq.load(Ordering::Acquire) & 1,
                0,
                "leaf seqlock left odd outside a write"
            );
            data.leaf.check_invariants();
            let anchor = data.leaf.anchor().to_vec();
            if let Some(prev) = &prev_anchor {
                assert!(prev < &anchor, "anchors out of order");
            }
            total += data.leaf.len();
            prev_anchor = Some(anchor);
        });
        assert_eq!(
            total,
            self.len.load(Ordering::Relaxed),
            "key count mismatch"
        );
    }
}

/// Pairs a fill copies at most under [`Take::Upto`], for a consumer that
/// takes pairs one at a time (`Upto(usize::MAX)`) or through a window.
/// Continuing where the last fill stopped costs one seqlock compare, so
/// such a fill need not take the rest of a leaf to be worth its cost: a
/// consumer that stops early leaves the rest uncopied. A consumer that
/// takes the batch whole ([`Take::Whole`]) gets the rest of the leaf in
/// one fill.
const SCAN_CHUNK: usize = 16;

/// Where a scan's last fill stopped.
struct ScanAt<V> {
    /// The leaf it read last.
    leaf: Arc<LeafShared<V>>,
    /// The snapshot that read returned ([`LeafShared::read`]), or the
    /// counter under the writer lock a sort held: never a later load.
    seq: u64,
    /// Key-order position after the last pair copied.
    pos: usize,
}

/// The batch-per-leaf [`CursorSource`] over the concurrent index: the
/// engine under [`ConcurrentOrderedIndex::scan`], and what
/// [`Wormhole::scan_source`] hands a consumer that drives fills itself.
///
/// A fill copies a run of one leaf, a validated snapshot of it: at most
/// 16 pairs (`SCAN_CHUNK`) for a consumer that takes pairs one by one or
/// through a window, and the rest of the leaf for one that takes the
/// batch whole. Each batch is atomic, the scan as a whole is not a
/// snapshot. The first fill searches the MetaTrieHT for the cursor's
/// position. A later fill continues in the leaf the last one stopped in,
/// and over its `next` link from its end, while that leaf is unchanged; it
/// searches again when the leaf changed or the consumer moved the position
/// past where the source stopped.
pub struct ScanSource<'a, V> {
    wh: &'a Wormhole<V>,
    /// Where the last fill stopped; `None` before the first fill and after
    /// a conflicted one.
    at: Option<ScanAt<V>>,
    /// Conflicts so far across the whole scan.
    conflicts: usize,
}

/// One fill of a scan: the cursor's position, the batch and its cap, and
/// the mode of its leaf reads.
///
/// Every fill runs inside one QSBR critical section and reads leaves only
/// through [`LeafShared::read`], like a `get`: a bounds-checked binary
/// search and walk of the key view ([`LeafNode::collect_leaf_checked`]),
/// kept only if the seqlock validates (validate-then-yield). A fill first
/// tries to resume at the [`ScanAt`] the last one left: a read of that leaf
/// that admits it only at the stored snapshot copies on from the stored
/// position, and at the leaf's end reads the successor from its start
/// inside the same read, so the two were neighbours throughout and the
/// successor needs no expected-version gate. Otherwise it descends: it
/// searches the published table from the cursor's position. A leaf whose
/// view lags is the one case in which a scan writes: it takes that leaf's
/// write lock, runs the paper's `incSort` there ([`Wormhole::write_sorted`])
/// and fills the batch under the same lock, so the sort is paid once and
/// the next scan of the leaf reads it lock-free. A conflicted fill is
/// discarded and retried. A value type with drop glue reads under leaf
/// locks from the first fill; any other does after
/// [`OPTIMISTIC_READ_RETRIES`] conflicts, for the rest of the scan, and
/// then holds a leaf's reader lock while it reads its successor.
struct Fill<'f, V> {
    wh: &'f Wormhole<V>,
    from: &'f [u8],
    batch: &'f mut ScanBatch<V>,
    limit: usize,
    /// The mode every [`LeafShared::read`] of the fill passes.
    locked: bool,
}

impl<V: Clone + Send + Sync + 'static> Fill<'_, V> {
    /// One attempt: continues from `at` if its leaf is unchanged, else
    /// descends. `Ok(None)` at the end of the leaf list.
    fn step(&mut self, at: Option<&ScanAt<V>>) -> Result<Option<ScanAt<V>>, ReadConflict> {
        if let Some(Ok(next)) = at.map(|at| self.resume(at)) {
            return Ok(next);
        }
        self.batch.clear();
        self.descend().map(Some)
    }

    /// Continues where `at` stopped if its leaf still holds the snapshot it
    /// was read at: copies on from its position, or, at the leaf's end,
    /// reads its successor from the start while the leaf stays unchanged.
    fn resume(&mut self, at: &ScanAt<V>) -> Result<Option<ScanAt<V>>, ReadConflict> {
        let read = at.leaf.read(self.locked, None, Some(at.seq), |data| {
            let pos = self.copy(data, Some(at.pos))?;
            if pos > at.pos {
                let (leaf, seq) = (at.leaf.clone(), at.seq);
                return Ok(Some(ScanAt { leaf, seq, pos }));
            }
            // Read to its end: the link step.
            let next = data.next.as_ref();
            next.map(|next| self.read_leaf(next, None, Some(0)))
                .transpose()
        });
        read.map(|(next, _)| next)
    }

    /// Searches the published MetaTrieHT for the cursor's position and
    /// reads the leaf it finds from there.
    fn descend(&mut self) -> Result<ScanAt<V>, ReadConflict> {
        let (wh, from) = (self.wh, self.from);
        wh.metrics.scan_descents.inc();
        // SAFETY: the caller's critical section covers the search and the
        // read; only owned leaves leave it.
        let (leaf, version) = unsafe { wh.search(from) }?;
        self.read_leaf(&leaf, Some(version), None)
    }

    /// Reads `leaf` from position `start`, or from the cursor's position,
    /// in the fill's mode, and under its writer lock when its key view has
    /// to be sorted first. `gate` is the version of the table `leaf` was
    /// found in.
    fn read_leaf(
        &mut self,
        leaf: &Arc<LeafShared<V>>,
        gate: Option<u64>,
        start: Option<usize>,
    ) -> Result<ScanAt<V>, ReadConflict> {
        let (pos, seq) = leaf.read(self.locked, gate, None, |data| {
            // `None`: the key view lags behind the leaf's items.
            let current = !data.leaf.key_view_lags();
            current.then(|| self.copy(data, start)).transpose()
        })?;
        if let Some(pos) = pos {
            let leaf = leaf.clone();
            return Ok(ScanAt { leaf, seq, pos });
        }
        // Leaf locks are never held across a grace-period wait, so blocking
        // on one inside a critical section cannot deadlock.
        let version = gate.unwrap_or(u64::MAX);
        let data = self.wh.write_sorted(leaf, version).ok_or(ReadConflict)?;
        let pos = self.copy(&data, start)?;
        // The writer lock keeps the counter at the state read.
        let (leaf, seq) = (leaf.clone(), leaf.seq.load(Ordering::Relaxed));
        Ok(ScanAt { leaf, seq, pos })
    }

    /// Copies up to `limit` pairs of the key view behind `data` into the
    /// batch, from position `start` or the cursor's position, and returns
    /// the position after the last. A first pair below the cursor's
    /// position is a conflict: the consumer moved the scan past where the
    /// source stopped, and the caller searches again.
    fn copy(&mut self, data: &LeafData<V>, start: Option<usize>) -> Result<usize, ReadConflict> {
        let leaf = &data.leaf;
        leaf.reserve_run(self.batch, self.wh.config.leaf_capacity, self.limit);
        let begin = match start {
            Some(pos) => pos,
            None => leaf.lower_bound_checked(self.from)?,
        };
        let max_key_len = if self.locked {
            usize::MAX
        } else {
            MAX_OPTIMISTIC_KEY_LEN
        };
        let copied = leaf.collect_leaf_checked(begin, self.limit, self.batch, max_key_len)?;
        if copied > 0 && self.batch.key(0) < self.from {
            return Err(ReadConflict);
        }
        Ok(begin + copied)
    }
}

impl<V: Clone + Send + Sync + 'static> CursorSource<V> for ScanSource<'_, V> {
    fn fill_next(&mut self, from: &[u8], batch: &mut ScanBatch<V>, take: Take) -> bool {
        batch.clear();
        let wh = self.wh;
        let limit = match take {
            Take::Upto(count) => count.clamp(1, SCAN_CHUNK),
            Take::Whole => usize::MAX,
        };
        let mut fill = Fill {
            wh,
            from,
            batch,
            limit,
            locked: false,
        };
        while fill.batch.is_empty() {
            fill.locked = !Wormhole::<V>::optimistic_reads_safe()
                || self.conflicts >= OPTIMISTIC_READ_RETRIES;
            let at = self.at.take();
            let step = wh.qsbr.with_local_handle(|handle| {
                let _guard = handle.enter();
                fill.step(at.as_ref())
            });
            match step {
                Ok(None) => return false,
                Ok(at) => self.at = at,
                Err(ReadConflict) => {
                    self.conflicts += 1;
                    if !fill.locked && self.conflicts == OPTIMISTIC_READ_RETRIES {
                        wh.metrics.locked_fallbacks.inc();
                    }
                    fill.batch.clear();
                    std::hint::spin_loop();
                }
            }
        }
        true
    }
}

impl<V: Clone + Send + Sync + 'static> ConcurrentOrderedIndex<V> for Wormhole<V> {
    fn name(&self) -> &'static str {
        "wormhole"
    }

    fn get(&self, key: &[u8]) -> Option<V> {
        let mut out = [None];
        self.get_window::<1>(&[key], &mut out);
        let [found] = out;
        found
    }

    fn get_batch_into(&self, keys: &[&[u8]], out: &mut Vec<Option<V>>) {
        let start = out.len();
        out.resize(start + keys.len(), None);
        let windows = out[start..].chunks_mut(BATCH_WINDOW);
        for (keys, out) in keys.chunks(BATCH_WINDOW).zip(windows) {
            self.get_window::<BATCH_WINDOW>(keys, out);
        }
    }

    fn set(&self, key: &[u8], value: V) -> Option<V> {
        let hash = crc32c(key);
        let mut bin = self.new_bin();
        enum FastPath<V> {
            Replaced(V),
            Inserted,
            NeedsSplit(V),
        }
        let outcome = self.with_leaf_write(key, |data| {
            data.leaf.prefetch_set();
            if let Some(slot) = data.leaf.get_mut(key, hash, &self.config) {
                return FastPath::Replaced(std::mem::replace(slot, value));
            }
            if data.leaf.len() < self.config.leaf_capacity {
                data.leaf
                    .insert_absent(key, hash, value, &self.config, &mut bin);
                return FastPath::Inserted;
            }
            FastPath::NeedsSplit(value)
        });
        self.retire_garbage(bin, GARBAGE_FLUSH_PENDING);
        match outcome {
            FastPath::Replaced(old) => Some(old),
            FastPath::Inserted => {
                self.len.fetch_add(1, Ordering::Relaxed);
                None
            }
            FastPath::NeedsSplit(value) => self.insert_with_split(key, hash, value),
        }
    }

    fn del(&self, key: &[u8]) -> Option<V> {
        let hash = crc32c(key);
        let mut bin = self.new_bin();
        let (removed, could_merge) = self.with_leaf_write(key, |data| {
            let removed = data.leaf.remove(key, hash, &self.config, &mut bin);
            let could_merge = removed.is_some() && self.could_merge(data);
            (removed, could_merge)
        });
        self.retire_garbage(bin, GARBAGE_FLUSH_PENDING);
        let removed = removed?;
        self.len.fetch_sub(1, Ordering::Relaxed);
        // A shrunken leaf may be mergeable; the full Algorithm-2 test runs
        // under the writer mutex with both neighbours locked.
        if could_merge {
            self.try_merge(key);
        }
        Some(removed)
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, V> {
        Cursor::new(start, Box::new(self.scan_source()))
    }

    fn stats(&self) -> IndexStats {
        Wormhole::stats(self)
    }
}

impl<V: Clone + Send + Sync + 'static> FromSorted<V> for Wormhole<V> {
    type Config = WormholeConfig;

    fn from_sorted(config: WormholeConfig, pairs: impl IntoIterator<Item = (Vec<u8>, V)>) -> Self {
        Self::from_sorted_with_metrics(config, Arc::default(), pairs)
    }
}

impl<V> Drop for Wormhole<V> {
    fn drop(&mut self) {
        // Reclamation still queued behind a grace period runs when the
        // `qsbr` field drops, after this body: every deferred callback owns
        // the blocks it frees, so it needs nothing this body tears down.
        // SAFETY: `&mut self` guarantees no readers or writers remain, so
        // both tables are exclusively owned here; an update still owed to
        // the other one is dropped unreplayed.
        let [published, _other] = [*self.current.get_mut(), self.writer.get_mut().other]
            .map(|table| unsafe { Box::from_raw(table) });
        // The cells may outlive this index in a sibling's hands.
        self.metrics
            .meta_published(published.table.shape(), MetaShape::default());
        // Break the forward Arc chain iteratively to avoid deep recursive
        // drops on long leaf lists.
        let mut cur = self.head.data.write().next.take();
        while let Some(leaf) = cur {
            cur = leaf.data.write().next.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::MetaKind;
    use std::collections::BTreeMap;
    use std::sync::Arc as StdArc;
    use std::thread;
    use wh_telemetry::alloc;

    fn small_config() -> WormholeConfig {
        WormholeConfig::optimized().with_leaf_capacity(8)
    }

    /// Length of the keys of the parked-reader test, whose key blocks the
    /// allocator watches. No other test of this crate frees one that long.
    const PROBE_KEY_LEN: usize = 83;

    #[global_allocator]
    static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::watching(|layout| {
        (layout.size(), layout.align()) == (crate::keybox::HEADER + PROBE_KEY_LEN, 4)
    });

    #[test]
    fn a_parked_reader_holds_back_every_retired_key_block() {
        // A reader sits inside a critical section while another thread
        // deletes three bins' worth of keys: three full bins get queued
        // behind what the load's last split left there, and not one key
        // block is freed until the reader has left. Every
        // fourth key goes, so no leaf gets small enough to try a merge
        // (which would wait for the reader). Dropping the index frees every
        // block, retired or resident, exactly once.
        let rounds = std::env::var("WH_STRESS_MULT")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1usize);
        let bins = 3;
        let n = 4 * bins * GARBAGE_FLUSH_PENDING;
        let key = |i: usize| format!("parked-{i:0w$}", w = PROBE_KEY_LEN - 7).into_bytes();
        for _ in 0..rounds {
            let wh: Wormhole<u64> = Wormhole::new();
            let before = alloc::process().watched_frees;
            for i in 0..n {
                wh.set(&key(i), i as u64);
            }
            let queued = wh.pending_reclamation();
            let (entered_tx, entered_rx) = std::sync::mpsc::channel();
            let (leave_tx, leave_rx) = std::sync::mpsc::channel::<()>();
            thread::scope(|scope| {
                // Owned in here: a failed assertion below drops it on its
                // way out, which lets the reader go instead of hanging.
                let leave_tx = leave_tx;
                let wh = &wh;
                let reader = scope.spawn(move || {
                    wh.qsbr.with_local_handle(|handle| {
                        let _guard = handle.enter();
                        entered_tx.send(()).unwrap();
                        let _ = leave_rx.recv();
                    })
                });
                entered_rx.recv().unwrap();
                let deleter = scope.spawn(|| {
                    for i in (0..n).step_by(4) {
                        assert_eq!(wh.del(&key(i)), Some(i as u64));
                    }
                });
                deleter.join().unwrap();
                assert_eq!(
                    alloc::process().watched_frees,
                    before,
                    "a key block was freed under a reader"
                );
                assert_eq!(wh.metrics().merge_attempts.get(), 0);
                let queued = wh.pending_reclamation() - queued;
                assert_eq!(queued, bins, "one callback per full bin");
                leave_tx.send(()).unwrap();
                reader.join().unwrap();
            });
            assert_eq!(wh.len(), n - n / 4);
            wh.check_invariants();
            drop(wh);
            assert_eq!(alloc::process().watched_frees - before, n);
        }
    }

    #[test]
    fn empty_index() {
        let wh: Wormhole<u64> = Wormhole::new();
        assert!(wh.is_empty());
        assert_eq!(wh.get(b"missing"), None);
        assert_eq!(wh.del(b"missing"), None);
        assert!(wh.range_from(b"", 10).is_empty());
        wh.check_invariants();
    }

    #[test]
    fn from_sorted_builds_a_fully_functional_index() {
        let keys: Vec<Vec<u8>> = (0..5_000u64)
            .map(|i| format!("bulk-{i:06}").into_bytes())
            .collect();
        let wh: Wormhole<u64> = Wormhole::from_sorted(
            small_config(),
            keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)),
        );
        assert_eq!(wh.len(), keys.len());
        assert!(wh.leaf_count() > 1, "bulk load must pack multiple leaves");
        wh.check_invariants();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(wh.get(key), Some(i as u64));
        }
        // Ordered iteration sees every key in order.
        let all = wh.range_from(b"", keys.len() + 1);
        assert_eq!(all.len(), keys.len());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        // The index keeps working as a live index: inserts split packed
        // leaves, deletes merge them.
        for key in keys.iter().step_by(2) {
            assert!(wh.del(key).is_some());
        }
        for (i, key) in keys.iter().enumerate() {
            let mut grown = key.clone();
            grown.push(b'x');
            wh.set(&grown, i as u64);
        }
        assert_eq!(wh.len(), keys.len() + keys.len() / 2);
        wh.check_invariants();
    }

    #[test]
    fn from_sorted_handles_fat_node_runs_and_empty_input() {
        let empty: Wormhole<u64> = Wormhole::from_sorted(small_config(), Vec::new());
        assert!(empty.is_empty());
        empty.check_invariants();

        // Keys differing only by trailing ⊥ tokens cannot be split apart:
        // the packer must extend the leaf (fat node) instead of forming an
        // invalid anchor.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for stem in 1u8..=4 {
            let mut k = vec![stem];
            for _ in 0..12 {
                keys.push(k.clone());
                k.push(0);
            }
        }
        keys.sort();
        let wh: Wormhole<u64> = Wormhole::from_sorted(
            WormholeConfig::optimized().with_leaf_capacity(4),
            keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)),
        );
        assert_eq!(wh.len(), keys.len());
        wh.check_invariants();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(wh.get(key), Some(i as u64), "key {key:?}");
        }
    }

    #[test]
    fn from_sorted_fills_leaves_without_a_growth_step() {
        // Every leaf is made with room for the load's target (¾ of the
        // leaf capacity) and takes no more: none of its vectors grew.
        let config = WormholeConfig::optimized();
        let target = config.leaf_capacity * 3 / 4;
        let keys = (0..10_000u64).map(|i| (format!("bulk-{i:06}").into_bytes(), i));
        let wh: Wormhole<u64> = Wormhole::from_sorted(config, keys);
        assert!(wh.leaf_count() > 100);
        wh.for_each_leaf(|_, data| {
            assert!(data.leaf.len() <= target);
            assert_eq!(data.leaf.capacities(), [target; 3]);
        });
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_input() {
        let _wh: Wormhole<u64> = Wormhole::from_sorted(
            small_config(),
            vec![(b"b".to_vec(), 1u64), (b"a".to_vec(), 2u64)],
        );
    }

    #[test]
    fn single_threaded_crud() {
        let wh = Wormhole::with_config(small_config());
        let names = [
            "Aaron", "Abbe", "Andrew", "Austin", "Denice", "Jacob", "James", "Jason", "John",
            "Joseph", "Julian", "Justin",
        ];
        for (i, name) in names.iter().enumerate() {
            assert_eq!(wh.set(name.as_bytes(), i as u64), None);
        }
        assert_eq!(wh.len(), 12);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(wh.get(name.as_bytes()), Some(i as u64), "{name}");
        }
        assert_eq!(wh.set(b"James", 100), Some(6));
        assert_eq!(wh.del(b"James"), Some(100));
        assert_eq!(wh.get(b"James"), None);
        assert_eq!(wh.len(), 11);
        wh.check_invariants();
        let out = wh.range_from(b"Brown", 3);
        let keys: Vec<String> = out
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, vec!["Denice", "Jacob", "Jason"]);
    }

    #[test]
    fn locked_reads_match_optimistic_reads() {
        // The same history through both read paths — `u64` reads lock-free,
        // `String` under the leaf lock, each selected by its value type —
        // checked against one model. (A ThreadSanitizer build reads both
        // under the lock.)
        assert_eq!(Wormhole::<u64>::optimistic_reads_safe(), !cfg!(wh_tsan));
        assert!(!Wormhole::<String>::optimistic_reads_safe());
        let optimistic: Wormhole<u64> = Wormhole::with_config(small_config());
        let locked: Wormhole<String> = Wormhole::with_config(small_config());
        let mut model = BTreeMap::new();
        for i in 0..1200u64 {
            let key = format!("mode-{:05}", i * 31 % 1200).into_bytes();
            if i % 7 == 3 {
                let gone = model.remove(&key);
                assert_eq!(optimistic.del(&key), gone);
                assert_eq!(locked.del(&key), gone.map(|v: u64| v.to_string()));
            } else {
                let old = model.insert(key.clone(), i);
                assert_eq!(optimistic.set(&key, i), old);
                assert_eq!(locked.set(&key, i.to_string()), old.map(|v| v.to_string()));
            }
        }
        for i in 0..1200u64 {
            let key = format!("mode-{i:05}").into_bytes();
            let want = model.get(&key).copied();
            assert_eq!(optimistic.get(&key), want);
            assert_eq!(locked.get(&key), want.map(|v| v.to_string()));
        }
        let start = b"mode-00300".to_vec();
        let want: Vec<(Vec<u8>, u64)> = model
            .range(start.clone()..)
            .take(200)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(optimistic.range_from(&start, 200), want);
        let want: Vec<(Vec<u8>, String)> =
            want.into_iter().map(|(k, v)| (k, v.to_string())).collect();
        assert_eq!(locked.range_from(&start, 200), want);
    }

    #[test]
    fn boxed_values_stay_on_the_locked_path_and_survive_churn() {
        // QSBR-deferred reclamation closes the freed-memory window, but it
        // is NOT enough to admit pointer values to the lock-free path: a
        // speculative `Box` clone would dereference before validation, and
        // the insert/remove windows can expose a never-initialised slot
        // word (see `optimistic_reads_safe`). Pointer values must keep the
        // per-leaf reader lock — and behave correctly under churn there.
        assert!(!Wormhole::<Box<u64>>::optimistic_reads_safe());
        assert!(!Wormhole::<StdArc<u64>>::optimistic_reads_safe());
        assert!(!Wormhole::<Option<Box<u64>>>::optimistic_reads_safe());
        let wh: StdArc<Wormhole<Box<u64>>> = StdArc::new(Wormhole::with_config(small_config()));
        for i in 0..500u64 {
            wh.set(format!("bx-{i:04}").as_bytes(), Box::new(i));
        }
        // Readers race overwrite/delete churn that frees old boxes.
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let wh = StdArc::clone(&wh);
                let stop = StdArc::clone(&stop);
                scope.spawn(move || {
                    let mut round = 1000u64;
                    while !stop.load(Ordering::Relaxed) {
                        for i in (0..500u64).step_by(3) {
                            wh.set(format!("bx-{i:04}").as_bytes(), Box::new(round));
                            wh.set(format!("bx-{i:04}:x").as_bytes(), Box::new(round));
                            wh.del(format!("bx-{i:04}:x").as_bytes());
                        }
                        round += 1;
                    }
                });
            }
            let mut readers = Vec::new();
            for r in 0..2u64 {
                let wh = StdArc::clone(&wh);
                readers.push(scope.spawn(move || {
                    for pass in 0..4_000u64 {
                        let i = (pass * 31 + r) % 500;
                        let got = wh.get(format!("bx-{i:04}").as_bytes());
                        let got = *got.expect("stable key present");
                        assert!(got == i || got >= 1000, "torn boxed value {got}");
                    }
                }));
            }
            for reader in readers {
                reader.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        wh.check_invariants();
    }

    #[test]
    fn deferred_reclamation_stays_bounded() {
        // Point deletes retire their key blocks into the index's one bin; a
        // full bin is one deferred callback, and the queue of those stays
        // in single digits however many deletes go by (a handful of full
        // bins force a grace period, and splits and merges drain it on
        // their way); `reclaim` frees the rest.
        let wh: Wormhole<u64> = Wormhole::new();
        let key = |i: u64| format!("gc-{i:06}").into_bytes();
        for i in 0..20_000u64 {
            wh.set(&key(i), i);
        }
        let merges = wh.metrics().merges.get();
        for i in (0..20_000u64).step_by(2) {
            assert_eq!(wh.del(&key(i)), Some(i));
            let pending = wh.pending_reclamation();
            assert!(
                pending < 10,
                "reclamation queue at {pending} after delete {i}"
            );
        }
        // Half of every leaf went: mostly the bins filled the queue, not
        // structural operations that emptied it.
        assert!(wh.metrics().merges.get() - merges < 10);
        assert!(wh.epoch_metrics().deferred_depth.high_water() >= GARBAGE_FLUSH_BINS as u64);
        wh.reclaim();
        assert_eq!(wh.pending_reclamation(), 0);
        wh.check_invariants();
    }

    #[test]
    fn heap_values_use_locked_reads_transparently() {
        // String is a multi-word heap-owning value, so
        // `optimistic_reads_safe` routes every read through the per-leaf
        // lock; behaviour must be unaffected.
        assert!(!Wormhole::<String>::optimistic_reads_safe());
        assert!(!Wormhole::<Vec<u8>>::optimistic_reads_safe());
        assert_eq!(Wormhole::<u64>::optimistic_reads_safe(), !cfg!(wh_tsan));
        let wh: Wormhole<String> = Wormhole::with_config(small_config());
        for i in 0..500u32 {
            wh.set(format!("hv-{i:04}").as_bytes(), format!("value-{i}"));
        }
        for i in 0..500u32 {
            assert_eq!(
                wh.get(format!("hv-{i:04}").as_bytes()),
                Some(format!("value-{i}")),
            );
        }
        let scan = wh.range_from(b"hv-0100", 10);
        assert_eq!(scan.len(), 10);
        assert_eq!(scan[0].1, "value-100");
    }

    /// Runs a `get`, a 16-key `get_batch_into` and a `range_from` on the
    /// leaf of `key(20)`, one after the other, each on a thread of its own
    /// while this thread holds the leaf's writer lock with its seqlock odd.
    /// The writer lets go once `blocked(wh, n)` says that the `n`th reader
    /// waits for the lock. Every answer must match the model.
    #[cfg(not(wh_tsan))]
    fn reads_across_a_held_leaf<V: Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static>(
        value: fn(u64) -> V,
        blocked: impl Fn(&Wormhole<V>, u64) -> bool,
    ) -> Wormhole<V> {
        let wh = Wormhole::with_config(small_config());
        let key = |i: u64| format!("held-{i:04}").into_bytes();
        for i in 0..64 {
            wh.set(&key(i), value(i));
        }
        let (leaf, _) = wh.locate(&key(20));
        let held = |n: u64, read: &(dyn Fn() + Sync)| {
            thread::scope(|scope| {
                let data = leaf.data.write();
                let section = SeqWriteSection::new(&leaf.seq);
                let reader = scope.spawn(read);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                // A panic inside the section would abort the process: the
                // verdict waits until the section is closed.
                while !blocked(&wh, n) && std::time::Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                let in_time = blocked(&wh, n);
                drop(section);
                drop(data);
                assert!(in_time, "reader {n} never blocked");
                reader.join().unwrap();
            });
        };
        held(1, &|| assert_eq!(wh.get(&key(20)), Some(value(20))));
        held(2, &|| {
            let keys: Vec<Vec<u8>> = (12..28).map(key).collect();
            let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let mut out = Vec::new();
            wh.get_batch_into(&keys, &mut out);
            let want: Vec<Option<V>> = (12..28).map(|i| Some(value(i))).collect();
            assert_eq!(out, want);
        });
        held(3, &|| {
            let want: Vec<(Vec<u8>, V)> = (20..30).map(|i| (key(i), value(i))).collect();
            assert_eq!(wh.range_from(&key(20), 10), want);
        });
        wh
    }

    /// Counts the optimistic mode's escalations, which a ThreadSanitizer
    /// build (every read locked) does not make.
    #[test]
    #[cfg(not(wh_tsan))]
    fn reads_of_a_held_leaf_escalate_to_its_reader_lock() {
        // A `u64` read escalates once per operation: a point read and a
        // batch at their first key of the held leaf, after as many seqlock
        // retries, and a scan at its fill.
        let wh = reads_across_a_held_leaf(|v| v, |wh, n| wh.metrics().locked_fallbacks.get() == n);
        assert_eq!(wh.metrics().locked_fallbacks.get(), 3);
        let retries = 2 * OPTIMISTIC_READ_RETRIES as u64;
        assert_eq!(wh.metrics().seqlock_retries.get(), retries);
        // A `String` read takes the lock from its first attempt, inside its
        // critical section, where a grace period sees it wait.
        let wh = reads_across_a_held_leaf(
            |v| v.to_string(),
            |wh, _| !wh.qsbr.grace_elapsed(wh.qsbr.start_grace()),
        );
        assert_eq!(wh.metrics().locked_fallbacks.get(), 0);
        assert_eq!(wh.metrics().seqlock_retries.get(), 0);
    }

    #[test]
    fn splits_and_merges_single_thread() {
        let wh = Wormhole::with_config(small_config());
        for i in 0..2000u64 {
            wh.set(format!("{i:06}").as_bytes(), i);
        }
        assert_eq!(wh.len(), 2000);
        assert!(wh.leaf_count() > 50);
        wh.check_invariants();
        for i in 0..2000u64 {
            assert_eq!(wh.get(format!("{i:06}").as_bytes()), Some(i));
        }
        let scan = wh.range_from(b"", usize::MAX);
        assert_eq!(scan.len(), 2000);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        for i in 0..2000u64 {
            assert_eq!(wh.del(format!("{i:06}").as_bytes()), Some(i));
        }
        assert!(wh.is_empty());
        wh.check_invariants();
        assert!(wh.leaf_count() < 5, "leaves merge back as keys disappear");
    }

    #[test]
    fn delete_range_drains_across_leaves_and_merges_back() {
        let wh = Wormhole::with_config(small_config());
        for i in 0..3_000u64 {
            wh.set(format!("{i:06}").as_bytes(), i);
        }
        let leaves_before = wh.leaf_count();
        assert!(leaves_before > 50);
        // A mid-index window spanning many leaves.
        assert_eq!(wh.delete_range(b"000500", b"002500"), 2_000);
        assert_eq!(wh.len(), 1_000);
        wh.check_invariants();
        assert!(
            wh.leaf_count() < leaves_before / 2,
            "drained leaves must merge away ({} -> {})",
            leaves_before,
            wh.leaf_count()
        );
        for i in 0..3_000u64 {
            let expect = !(500..2_500).contains(&i);
            assert_eq!(wh.get(format!("{i:06}").as_bytes()).is_some(), expect);
        }
        // The survivors scan in order with no stragglers.
        let all = wh.range_from(b"", usize::MAX);
        assert_eq!(all.len(), 1_000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        // Degenerate and disjoint windows are no-ops; full drains empty it.
        assert_eq!(wh.delete_range(b"zzz", b"zz"), 0);
        assert_eq!(wh.delete_range(b"000500", b"000500"), 0);
        assert_eq!(wh.delete_range(b"", b"\xff"), 1_000);
        assert!(wh.is_empty());
        wh.check_invariants();
    }

    /// Keys per leaf that [`deleting_three_keys_in_four_merges_leaves`]
    /// leaves at the leaf capacity of 128, at least: its eight seeds read
    /// 43.57–43.92 with 400 k keys (43.67–44.64 with 40 k) before the leaf
    /// writes hinted their lines, and the lowest, cut to a tenth, is pinned.
    const KEYS_PER_LEAF_AFTER_DELETES: f64 = 43.5;

    #[test]
    fn deleting_three_keys_in_four_merges_leaves() {
        // 400 k `Az1` keys (a tenth in a debug build), then three in four
        // deleted: the deletes shrink leaves below the merge size, so
        // Algorithm 2's merge runs, and the index it leaves must hold every
        // survivor, its leaves no sparser than the pinned floor. One seed a
        // round; eight rounds under `WH_STRESS_MULT=8`.
        let keys = if cfg!(debug_assertions) {
            40_000
        } else {
            400_000
        };
        let mult = std::env::var("WH_STRESS_MULT")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1u64);
        for seed in 1..=mult {
            let keyset = workloads::keysets::generate(workloads::KeysetId::Az1, keys, seed);
            let wh: Wormhole<u64> = Wormhole::new();
            for (i, key) in keyset.keys.iter().enumerate() {
                assert_eq!(wh.set(key, i as u64), None);
            }
            for (i, key) in keyset.keys.iter().enumerate() {
                if i % 4 != 0 {
                    assert_eq!(wh.del(key), Some(i as u64));
                }
            }
            assert!(wh.metrics().merges.get() > 0, "seed {seed}: no merge");
            wh.check_invariants();
            for (i, key) in keyset.keys.iter().enumerate() {
                let want = (i % 4 == 0).then_some(i as u64);
                assert_eq!(wh.get(key), want);
            }
            assert_eq!(wh.len(), keys.div_ceil(4));
            let keys_per_leaf = wh.len() as f64 / wh.leaf_count() as f64;
            println!("seed {seed}: {keys_per_leaf:.2} keys per leaf");
            assert!(
                keys_per_leaf >= KEYS_PER_LEAF_AFTER_DELETES,
                "seed {seed}: {keys_per_leaf:.2} keys per leaf"
            );
        }
    }

    #[test]
    fn delete_range_races_concurrent_readers_safely() {
        let wh = StdArc::new(Wormhole::with_config(small_config()));
        for i in 0..4_000u64 {
            wh.set(format!("k{i:06}").as_bytes(), i);
        }
        // Stable prefix and suffix the readers verify while the middle is
        // repeatedly drained and refilled: twenty rounds, times
        // `WH_STRESS_MULT` for the nightly soak.
        let mult = std::env::var("WH_STRESS_MULT")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1u64);
        std::thread::scope(|scope| {
            let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
            {
                let wh = StdArc::clone(&wh);
                let stop = StdArc::clone(&stop);
                scope.spawn(move || {
                    for round in 0..20 * mult {
                        wh.delete_range(b"k001000", b"k003000");
                        for i in 1_000..3_000u64 {
                            wh.set(format!("k{i:06}").as_bytes(), round * 10_000 + i);
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for r in 0..2u64 {
                let wh = StdArc::clone(&wh);
                let stop = StdArc::clone(&stop);
                scope.spawn(move || {
                    let mut pass = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let i = (pass * 37 + r) % 1_000;
                        assert_eq!(wh.get(format!("k{i:06}").as_bytes()), Some(i));
                        let j = 3_000 + (pass * 53 + r) % 1_000;
                        assert_eq!(wh.get(format!("k{j:06}").as_bytes()), Some(j));
                        if pass.is_multiple_of(64) {
                            let scan = wh.range_from(b"k000900", 300);
                            assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                        pass += 1;
                    }
                });
            }
        });
        assert_eq!(wh.len(), 4_000);
        wh.check_invariants();
    }

    #[test]
    fn matches_unsafe_variant() {
        use crate::single::WormholeUnsafe;
        use index_traits::OrderedIndex;
        let concurrent = Wormhole::with_config(small_config());
        let mut single = WormholeUnsafe::with_config(small_config());
        let keys: Vec<Vec<u8>> = (0..1500u32)
            .map(|i| format!("item{:05}-user{:04}", i * 7919 % 1500, i % 97).into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(concurrent.set(k, i as u64), single.set(k, i as u64), "{i}");
        }
        for k in &keys {
            assert_eq!(concurrent.get(k), single.get(k));
        }
        assert_eq!(
            concurrent.range_from(b"item00500", 200),
            single.range_from(b"item00500", 200)
        );
        for (i, k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(concurrent.del(k), single.del(k));
            }
        }
        assert_eq!(concurrent.len(), single.len());
        assert_eq!(
            concurrent.range_from(b"", usize::MAX),
            single.range_from(b"", usize::MAX)
        );
    }

    /// A seqlock conflict that does not wait on the scheduler: an
    /// optimistic `get` parks after its leaf search found the key's slot
    /// and before it reads the value, and the key is deleted meanwhile, so
    /// the leaf's last item moves into that slot. The read must validate
    /// away and answer `None`, never the moved item's value. Under
    /// `wh_tsan` every read holds the leaf's reader lock, and the delete
    /// would wait for the parked reader.
    #[cfg(not(wh_tsan))]
    #[test]
    fn a_get_parked_inside_its_leaf_read_answers_a_concurrent_delete() {
        let wh = StdArc::new(Wormhole::with_config(
            WormholeConfig::optimized().with_leaf_capacity(16),
        ));
        // Twelve keys: one leaf, which has no neighbour to merge with.
        for i in 0..12u64 {
            wh.set(format!("key-{i:02}").as_bytes(), 100 + i);
        }
        let park = StdArc::new(std::sync::Barrier::new(2));
        let reader = {
            let (wh, park) = (StdArc::clone(&wh), StdArc::clone(&park));
            thread::spawn(move || {
                crate::leaf::tests::PARK_AFTER_SLOT.set(Some(park));
                wh.get(b"key-00")
            })
        };
        park.wait(); // The reader holds the slot of `key-00`, its first item.
        assert_eq!(wh.del(b"key-00"), Some(100)); // `key-11` moves into it.
        park.wait();
        assert_eq!(reader.join().unwrap(), None);
        assert_eq!(wh.metrics().seqlock_retries.get(), 1);
        assert_eq!(wh.get(b"key-11"), Some(111));
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let wh = StdArc::new(Wormhole::with_config(
            WormholeConfig::optimized().with_leaf_capacity(16),
        ));
        // Preload.
        for i in 0..2000u64 {
            wh.set(format!("preload-{i:06}").as_bytes(), i);
        }
        let threads = 8;
        let per_thread = 1500u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let wh = StdArc::clone(&wh);
            handles.push(thread::spawn(move || {
                for i in 0..per_thread {
                    let key = format!("writer{t}-{i:06}");
                    wh.set(key.as_bytes(), i);
                    if i % 3 == 0 {
                        assert_eq!(wh.get(key.as_bytes()), Some(i));
                    }
                    if i % 7 == 0 {
                        // Point lookups on the preloaded range.
                        let probe = format!("preload-{:06}", (i * 13) % 2000);
                        assert!(wh.get(probe.as_bytes()).is_some());
                    }
                    if i % 101 == 0 {
                        let _ = wh.range_from(format!("writer{t}-").as_bytes(), 50);
                    }
                    if i % 11 == 0 {
                        wh.del(key.as_bytes());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        wh.check_invariants();
        // Every surviving key must be readable.
        for t in 0..threads {
            for i in 0..per_thread {
                let key = format!("writer{t}-{i:06}");
                let expect = if i % 11 == 0 { None } else { Some(i) };
                assert_eq!(wh.get(key.as_bytes()), expect, "{key}");
            }
        }
        assert_eq!(
            wh.len(),
            2000 + threads as usize * per_thread as usize
                - threads as usize * per_thread.div_ceil(11) as usize
        );
    }

    #[test]
    fn concurrent_range_scans_with_writers() {
        let wh = StdArc::new(Wormhole::with_config(small_config()));
        for i in 0..3000u64 {
            wh.set(format!("{i:08}").as_bytes(), i);
        }
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        // Two writers keep splitting and merging leaves.
        for w in 0..2 {
            let wh = StdArc::clone(&wh);
            let stop = StdArc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("writer{w}-{:06}", i % 500);
                    wh.set(key.as_bytes(), i);
                    wh.del(key.as_bytes());
                    i += 1;
                }
            }));
        }
        // Scanners verify that the preloaded keys always appear in order.
        for _ in 0..2 {
            let wh = StdArc::clone(&wh);
            handles.push(thread::spawn(move || {
                for _ in 0..30 {
                    let out = wh.range_from(b"00000100", 500);
                    assert_eq!(out.len(), 500);
                    assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
                    assert_eq!(out[0].0, b"00000100".to_vec());
                }
            }));
        }
        // Let the scanners finish, then stop the writers.
        for h in handles.drain(2..) {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        wh.check_invariants();
    }

    /// Writes to run on a live cursor's index: a key and its new value, or
    /// `None` to delete it.
    type Writes = Vec<(Vec<u8>, Option<u64>)>;

    /// The keys of every leaf, leaf by leaf.
    fn leaf_keys<V: Clone + Send + Sync + 'static>(wh: &Wormhole<V>) -> Vec<Vec<Vec<u8>>> {
        let mut leaves = Vec::new();
        wh.for_each_leaf(|_, data| {
            let mut keys: Vec<_> = data
                .leaf
                .iter_key_order()
                .map(|(k, _)| k.to_vec())
                .collect();
            keys.sort();
            leaves.push(keys);
        });
        leaves
    }

    /// A live cursor over an index its own thread mutates between fills,
    /// read lock-free (`u64` values) and under leaf locks (`String`).
    /// Forty keys go in ascending, into leaves of four (capacity 8); a
    /// cursor opens at the first key of the second leaf and takes `take`
    /// pairs in one fill, so its source stops after them, inside that leaf
    /// or at its end. Then the writes `writes` plans on that layout (`None`
    /// deletes) run through the same reference, and must change the number
    /// of leaves by `leaves_step`. The drained cursor must yield the pairs
    /// it took, then exactly the model's pairs from its position on: every
    /// surviving key ahead of it once, in order, and nothing written
    /// behind it.
    fn live_cursor_across(
        take: usize,
        leaves_step: isize,
        writes: impl Fn(&[Vec<Vec<u8>>]) -> Writes,
    ) {
        fn run<V: Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static>(
            take: usize,
            leaves_step: isize,
            writes: &impl Fn(&[Vec<Vec<u8>>]) -> Writes,
            value: fn(u64) -> V,
        ) {
            let wh = Wormhole::with_config(small_config());
            let mut model = BTreeMap::new();
            for i in 0..40u64 {
                let key = format!("k{:04}", i * 10).into_bytes();
                wh.set(&key, value(i));
                model.insert(key, value(i));
            }
            let leaves = leaf_keys(&wh);
            assert!(
                leaves.iter().rev().skip(1).all(|keys| keys.len() == 4),
                "{leaves:?}"
            );
            let start = leaves[1][0].clone();
            let pairs = |model: &BTreeMap<Vec<u8>, V>, from: &[u8]| -> Vec<(Vec<u8>, V)> {
                let from = from.to_vec();
                model
                    .range(from..)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect()
            };
            let mut expect = pairs(&model, &start);
            expect.truncate(take);
            let mut cursor = wh.scan(&start);
            let mut got = Vec::new();
            assert_eq!(cursor.collect_next(take, &mut got), take);
            let position = cursor.resume_key();
            for (key, write) in writes(&leaves) {
                match write {
                    Some(v) => assert_eq!(wh.set(&key, value(v)), model.insert(key, value(v))),
                    None => assert_eq!(wh.del(&key), model.remove(&key)),
                }
            }
            let step = leaf_keys(&wh).len() as isize - leaves.len() as isize;
            assert_eq!(step, leaves_step, "leaves added by the writes");
            cursor.collect_next(usize::MAX, &mut got);
            expect.extend(pairs(&model, &position));
            assert_eq!(got, expect);
            wh.check_invariants();
        }
        run::<u64>(take, leaves_step, &writes, |v| v);
        run::<String>(take, leaves_step, &writes, |v| v.to_string());
    }

    /// Keys after `key` and before its successor, inserted with value 99.
    fn inserts_after(key: &[u8], n: u8) -> Writes {
        (b'1'..b'1' + n)
            .map(|suffix| ([key, &[suffix]].concat(), Some(99)))
            .collect()
    }

    #[test]
    fn a_live_cursor_sees_a_key_inserted_ahead_in_its_leaf() {
        live_cursor_across(2, 0, |leaves| inserts_after(&leaves[1][1], 1));
    }

    #[test]
    fn a_live_cursor_sees_past_a_key_deleted_behind_it_in_its_leaf() {
        // The leaf's items shift under the stored position: only the
        // snapshot tells the fill that it names another key now.
        live_cursor_across(2, 0, |leaves| vec![(leaves[1][0].clone(), None)]);
    }

    #[test]
    fn a_live_cursor_follows_a_neighbour_merged_into_its_finished_leaf() {
        // Two keys out of the finished leaf, behind the cursor, and three
        // out of its right neighbour: two and one are less than the merge
        // size, four.
        live_cursor_across(4, -1, |leaves| {
            let doomed = leaves[1][..2].iter().chain(&leaves[2][..3]);
            doomed.map(|key| (key.clone(), None)).collect()
        });
    }

    #[test]
    fn a_live_cursor_follows_a_neighbour_split_between_fills() {
        live_cursor_across(4, 1, |leaves| inserts_after(&leaves[2][0], 5));
    }

    #[test]
    fn a_live_cursor_survives_its_leaf_splitting_behind_it() {
        live_cursor_across(2, 1, |leaves| inserts_after(&leaves[1][0], 5));
    }

    #[test]
    fn a_scan_source_never_fills_below_the_position_it_is_handed() {
        // A consumer that drives the fills may move the position past where
        // the source stopped, inside its leaf or beyond: the source searches
        // again rather than copy on.
        let wh = Wormhole::with_config(small_config());
        let key = |i: u64| format!("k{i:04}").into_bytes();
        for i in 0..40 {
            wh.set(&key(i), i);
        }
        let mut source = wh.scan_source();
        let mut batch = ScanBatch::new();
        for at in [0, 2, 30] {
            assert!(source.fill_next(&key(at), &mut batch, Take::Upto(1)));
            assert_eq!(batch.get(0), (key(at).as_slice(), &at));
        }
    }

    /// The concurrent source, recording the length of every batch it fills.
    struct CountingSource<'a> {
        source: ScanSource<'a, u64>,
        fills: StdArc<Mutex<Vec<usize>>>,
    }

    impl CursorSource<u64> for CountingSource<'_> {
        fn fill_next(&mut self, from: &[u8], batch: &mut ScanBatch<u64>, take: Take) -> bool {
            let filled = self.source.fill_next(from, batch, take);
            self.fills.lock().push(batch.len());
            filled
        }
    }

    #[test]
    fn whole_batches_are_whole_leaves_and_pair_reads_stay_chunked() {
        let n = 3_000u64;
        let pairs = (0..n).map(|i| (format!("fill-{i:05}").into_bytes(), i));
        let wh = Wormhole::from_sorted(WormholeConfig::optimized(), pairs);
        assert!(wh.leaf_count() > 20, "{} leaves", wh.leaf_count());
        let counted = |wh| {
            let fills = StdArc::new(Mutex::new(Vec::new()));
            let source = CountingSource {
                source: Wormhole::scan_source(wh),
                fills: fills.clone(),
            };
            (Cursor::new(b"", Box::new(source)), fills)
        };

        // A consumer that takes batches whole gets one fill a leaf.
        let (mut cursor, fills) = counted(&wh);
        let mut batches = Vec::new();
        while let Some(batch) = cursor.next_batch() {
            batches.push(batch.len());
        }
        drop(cursor);
        assert_eq!(batches.len(), wh.leaf_count());
        assert_eq!(batches.iter().sum::<usize>(), wh.len());
        assert_eq!(*fills.lock(), [batches, vec![0]].concat());

        // Pairs taken one at a time, or through a 64-pair window, refill
        // at least every `SCAN_CHUNK` pairs.
        type Read = fn(&mut Cursor<'_, u64>) -> usize;
        let reads: [Read; 2] = [
            |cursor| std::iter::from_fn(|| cursor.next().map(|_| ())).count(),
            |cursor| {
                std::iter::from_fn(|| Some(cursor.visit_next(64, |_, _| {})))
                    .take_while(|&visited| visited > 0)
                    .sum()
            },
        ];
        for read in reads {
            let (mut cursor, fills) = counted(&wh);
            assert_eq!(read(&mut cursor), wh.len());
            drop(cursor);
            let fills = fills.lock().clone();
            assert!(fills.iter().all(|&len| len <= SCAN_CHUNK), "{fills:?}");
            assert_eq!(fills.iter().sum::<usize>(), wh.len());
        }
    }

    #[test]
    fn stats_are_populated() {
        let wh = Wormhole::new();
        for i in 0..500u64 {
            wh.set(format!("stat-key-{i:05}").as_bytes(), i);
        }
        let stats = Wormhole::stats(&wh);
        assert_eq!(stats.keys, 500);
        assert_eq!(stats.key_bytes, 500 * 14);
        assert!(stats.structure_bytes > 0);
        // A churn history — keys of every length going in, over each other,
        // out one by one and out by the range, through splits and merges —
        // leaves the counters at what is resident.
        let key = |i: u64| format!("churn-{:0w$}", i * 7919 % 3000, w = 1 + i as usize % 23);
        for i in 0..3000u64 {
            wh.set(key(i).as_bytes(), i);
            if i % 3 == 0 {
                wh.del(key(i / 2).as_bytes());
            }
        }
        wh.delete_range(b"churn-00", b"churn-000000002");
        wh.check_invariants();
        let resident = wh.range_from(b"", usize::MAX);
        let stats = Wormhole::stats(&wh);
        assert_eq!(stats.keys, resident.len());
        assert_eq!(
            stats.key_bytes,
            resident.iter().map(|(key, _)| key.len()).sum::<usize>()
        );
    }

    /// Runs the update the unpublished table owes, as the next structural
    /// commit would, and checks that the two tables then hold the same
    /// items, with the same leaf, children and subtree bounds in each.
    fn assert_replay_matches(wh: &Wormhole<u64>, at: &str) {
        let mut writer = wh.writer.lock();
        assert!(
            writer.replay.is_some(),
            "{at}: the last publication owes its update"
        );
        wh.reclaim_spare(&mut writer);
        // SAFETY: holding the writer mutex pins the published table, and
        // with no update owed the other one is the holder's.
        let (published, other) = unsafe { (&wh.published().table, &(*writer.other).table) };
        let (published, other) = (published.items(), other.items());
        assert_eq!(published.len(), other.len(), "{at}");
        for ((key, kind), (other_key, other_kind)) in published.iter().zip(&other) {
            assert_eq!(key, other_key, "{at}");
            match (kind, other_kind) {
                (MetaKind::Leaf(leaf), MetaKind::Leaf(other)) => {
                    assert!(leaf.same(other), "{at}, {key:?}: another leaf");
                }
                (MetaKind::Internal(node), MetaKind::Internal(other)) => {
                    assert_eq!(node.bitmap, other.bitmap, "{at}, {key:?}: children");
                    assert!(
                        node.leftmost.same(&other.leftmost),
                        "{at}, {key:?}: leftmost"
                    );
                    assert!(
                        node.rightmost.same(&other.rightmost),
                        "{at}, {key:?}: rightmost"
                    );
                }
                _ => panic!("{at}, {key:?}: a leaf in one table, a node in the other"),
            }
        }
    }

    #[test]
    fn the_replayed_table_matches_the_published_one() {
        // Split-and-merge churn, the tables compared once the last update
        // was a split and once it was a merge. Four rounds, times
        // `WH_STRESS_MULT` for the nightly soak.
        let mult = std::env::var("WH_STRESS_MULT")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1u64);
        let wh = Wormhole::with_config(small_config());
        let key = |i: u64| format!("{:05}", i * 7919 % 20_000).into_bytes();
        for round in 0..4 * mult {
            let base = round % 5 * 4_000;
            for i in base..base + 4_000 {
                wh.set(&key(i), i);
            }
            assert_replay_matches(&wh, &format!("round {round}, after a split"));
            for i in (base..base + 4_000).filter(|i| i % 8 != round % 8) {
                assert_eq!(wh.del(&key(i)), Some(i));
            }
            assert_replay_matches(&wh, &format!("round {round}, after a merge"));
        }
        assert!(wh.metrics().splits.get() > 500 && wh.metrics().merges.get() > 500);
        wh.check_invariants();
    }

    #[test]
    fn meta_gauges_follow_the_published_tables() {
        // Two indexes on one set of cells, as a sharded front has them:
        // after every leg of a split and merge run the gauges are the sum
        // of what the two published tables count themselves.
        let metrics = StdArc::new(WormholeMetrics::default());
        let shards: Vec<Wormhole<u64>> = (0..2)
            .map(|_| Wormhole::with_config_and_metrics(small_config(), metrics.clone()))
            .collect();
        let check = |shards: &[Wormhole<u64>]| {
            let mut sum = MetaShape::default();
            for shard in shards {
                let _writer = shard.writer.lock();
                // SAFETY: holding the writer mutex pins the published table.
                let table = &unsafe { &*shard.current.load(Ordering::Acquire) }.table;
                sum.items += table.len();
                sum.bitmaps += table.bitmaps();
                sum.overflow_buckets += table.overflow_buckets();
                sum.bytes += table.structure_bytes();
            }
            let read = MetaShape {
                items: metrics.meta_items.get() as usize,
                bitmaps: metrics.meta_bitmaps.get() as usize,
                overflow_buckets: metrics.meta_overflow_buckets.get() as usize,
                bytes: metrics.meta_bytes.get() as usize,
            };
            assert_eq!(read, sum);
            sum
        };
        let empty = check(&shards);
        assert_eq!((empty.items, empty.bitmaps), (2, 0), "two root leaves");
        let key = |shard: usize, i: u32| format!("{shard}/{:05}", i * 7919 % 3000).into_bytes();
        for i in 0..3000u32 {
            for (s, shard) in shards.iter().enumerate() {
                shard.set(&key(s, i), u64::from(i));
            }
        }
        let full = check(&shards);
        assert!(metrics.splits.get() > 100 && full.items > 200 && full.bitmaps > 20);
        assert!(full.bitmaps < shards.iter().map(Wormhole::leaf_count).sum());
        for i in 0..3000u32 {
            shards[1].del(&key(1, i));
        }
        assert!(metrics.merges.get() > 50);
        let half = check(&shards);
        assert!(half.items < full.items && half.bitmaps < full.bitmaps);
        // A dropped index takes its part with it.
        let mut shards = shards;
        shards.pop();
        let one = check(&shards);
        assert_eq!(one.items, half.items - 2, "less a root and its leaf");
    }

    #[test]
    fn a_panic_inside_a_leaf_mutation_aborts_the_process() {
        // A write section that a panic unwound through would make the
        // leaf's sequence even over a half-written leaf, and the next
        // optimistic read would validate it. The process has to die
        // instead, so the test runs in a child: this test binary again,
        // told by the environment to be the child.
        const CHILD: &str = "WH_TEST_PANIC_MID_INSERT";
        const NAME: &str = "concurrent::tests::a_panic_inside_a_leaf_mutation_aborts_the_process";
        if std::env::var_os(CHILD).is_some() {
            let wh: Wormhole<u64> = Wormhole::with_config(small_config());
            wh.set(b"whole", 1);
            crate::leaf::tests::PANIC_MID_INSERT.with(|armed| armed.set(true));
            wh.set(b"torn", 2);
            unreachable!("the insert panicked inside its write section");
        }
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", NAME, "--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(
            !child.status.success(),
            "the child exited cleanly: {stderr}"
        );
        assert!(
            stderr.contains("wormhole: panic inside a leaf mutation"),
            "{stderr}"
        );
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            assert_eq!(child.status.signal(), Some(6), "not SIGABRT: {stderr}");
        }
    }
}
