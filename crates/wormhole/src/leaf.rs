//! Wormhole leaf nodes (§3.2 of the paper).
//!
//! A leaf stores up to `leaf_capacity` key/value items plus the node's
//! *anchor*. An item is a sixteen-byte record — its value and a thin
//! pointer to its key's own heap block, which holds the key's length and
//! then its bytes (`KeyBox`). An item's storage slot is its name in the
//! orderings and nothing else: a removal moves the last item into the
//! vacated slot and renames it, in place, in both of them. Two orderings
//! are maintained over the items:
//!
//! * the **hash order** — the paper's tag array: one packed
//!   `(tag: u16, slot: u16)` entry per item, sorted by (tag, key), used by
//!   point lookups (*SortByTag*), optionally with speculative positioning
//!   (*DirectPos*). The tags live *in* the array and nowhere else, so a
//!   probe touches only the array's own cache lines until a tag matches;
//! * the **key order** — a key-sorted view that is allowed to lag behind: new
//!   items are appended unsorted, and the operation that needs full ordering
//!   (a range scan, a split, a merge) merges them in, in place, under the
//!   lock it holds (the paper's `incSort`), after hinting every key block
//!   of the leaf so that the comparisons do not wait for them one by one.
//!   The order it paid for is kept: the next scan of the leaf finds the
//!   view current.
//!
//! A point write asks before it waits: under the write lock every line it
//! will touch is known, so their misses can overlap the tag search's. A
//! `remove` hints the whole tag array and key order (it walks both) and the
//! last item record (the swap-remove moves it); a `set` hints the tag array
//! and the records past the ends of the items and the key order, where an
//! insert appends ([`LeafNode::prefetch_set`]).
//!
//! A mutation frees nothing a racing reader might still be reading: every
//! block it unlinks goes through a [`Bin`], which either drops it on the
//! spot or moves it into the index's [`LeafGarbage`].
//!
//! The concurrent index's lock-free readers rely on one more rule, which
//! every mutation here keeps: **a live leaf's vector is never reallocated
//! in place.** It grows only through `regrow`, which moves its records
//! into a larger buffer and retires the old one, or it is replaced whole —
//! built off to the side in a buffer sized for it (`split_off`'s kept
//! items, tags and key order, `absorb`'s merged tag array) and installed
//! with one assignment, the old buffer going to the bin. Otherwise it only
//! changes in place: a record written, moved within the buffer (`remove`,
//! `swap_remove`, the in-place sort), appended within its room (`absorb`)
//! or dropped from its end (`drain`). So a buffer pointer a racing reader
//! loaded always names an allocation that held those records, and a
//! length it loaded beside it names records that were written. `remove`
//! and `ensure_key_sorted` work in place; `insert_absent` grows through
//! `insert_growing` and `absorb` through `regrow`.
//!
//! Storage follows the fill. A full vector grows by a quarter of its
//! capacity, at least 8 slots, and no further than the configured
//! `leaf_capacity` while the leaf is within it: a split half of 64 filled
//! again holds 80, 100, 125 and then 128 slots, where doubling gave it 128
//! at its 65th key (leaves hold ~89 keys on average). A fat leaf past the
//! capacity
//! (§3.3) doubles, so its growth stays geometric. `split_off` gives both
//! halves vectors of exactly their length, `absorb` grows a vector short
//! of room to exactly the merged length, and the bulk load makes each leaf
//! with room for its target ([`LeafNode::with_capacity`]), so it never
//! grows one. The per-key budget of a leaf is then a 16-byte item record,
//! a 4-byte tag-array entry, a 2-byte key-order slot and the key block's
//! 4-byte length header with the allocator's rounding of the block to its
//! chunk size, plus whatever slack the last growth step left.
//! What the rule cannot cover is a reader whose loads of one vector's
//! pointer and length straddle a whole replacement: closing that takes
//! word-wise copies of the leaf header.
//!
//! The leaf also remembers its *logical anchor* (used in ordering
//! comparisons) and its *table key* (the anchor as registered in the
//! MetaTrieHT, which may carry appended `⊥`/zero tokens to satisfy the prefix
//! condition).

use index_traits::ScanBatch;
use wh_hash::{crc32c, tag16, tag_position_hint};

use crate::config::WormholeConfig;
use crate::keybox::{self, KeyBox};
use crate::prefetch::{prefetch_read, prefetch_slice};
use parking_lot::Mutex;

/// Marker returned by the `*_checked` read methods when an optimistic
/// (unlocked) read observed internally inconsistent state — an index out of
/// bounds, an implausible key length, or a lagging sort view. The caller
/// must validate its seqlock and retry; the observed data is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadConflict;

/// `incSort` merges a tail of at most this many unsorted items into the
/// key view one binary insertion at a time, which is what a scan mostly
/// finds. Every step of a binary search waits for the key block the step
/// before it chose, so for a longer tail (the half a leaf has taken in by
/// the time it splits) the view is sorted whole instead: twice the
/// comparisons, but of keys whose blocks load side by side. A load made of
/// such splits ran 13 % longer with insertions only.
const INC_SORT_INSERTIONS: usize = 8;

/// A range collector copying item `i` of a run asks for the key box of item
/// `i + KEY_PREFETCH_AHEAD`: every key is an allocation of its own, and a
/// scan that chases them one after the other waits out one miss per key.
const KEY_PREFETCH_AHEAD: usize = 8;

/// Freeing block `i` of a full [`LeafGarbage`] first asks for block
/// `i + FREE_PREFETCH_AHEAD`: by the time its grace period is over every
/// block of the bin is cold, and `free` reads the block it is given.
const FREE_PREFETCH_AHEAD: usize = 8;

/// One heap block unlinked from a leaf.
#[derive(Debug)]
enum Retired<V> {
    /// An item vector that outgrew its buffer (its items moved out).
    Items(Vec<Kv<V>>),
    Tags(Vec<TagSlot>),
    Order(Vec<u16>),
    /// A removed item's key block.
    Key(KeyBox),
    /// A replaced table key, a merged-away sibling's anchor.
    Bytes(Vec<u8>),
}

impl<V> Retired<V> {
    /// Where the block starts, for prefetching.
    fn start(&self) -> *const u8 {
        match self {
            Self::Items(buf) => buf.as_ptr().cast(),
            Self::Tags(buf) => buf.as_ptr().cast(),
            Self::Order(buf) => buf.as_ptr().cast(),
            Self::Key(key) => key.as_ptr(),
            Self::Bytes(buf) => buf.as_ptr(),
        }
    }
}

/// Heap blocks unlinked from leaves while optimistic readers may still be
/// traversing them, kept until no reader can.
///
/// The concurrent index owns one of these behind a mutex — one for the
/// whole index, not one per mutation — and every writer retires into it
/// through a [`Bin`]. What it holds is handed to `wh_epoch::Qsbr::defer`
/// as a whole and dropped after a grace period, so a lock-free reader that
/// loaded a pointer to an old block inside its QSBR critical section can
/// never touch freed memory: the block outlives every critical section
/// that could have observed it.
#[derive(Debug)]
pub struct LeafGarbage<V>(Vec<Retired<V>>);

impl<V> Default for LeafGarbage<V> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<V> LeafGarbage<V> {
    /// Moves every waiting block out, into a store sized for them; this
    /// one keeps its room, so refilling it allocates nothing.
    pub fn take(&mut self) -> Self {
        Self(self.0.drain(..).collect())
    }

    /// Number of blocks waiting.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when nothing has been retired into the store.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Heap bytes of the store's own room, which it keeps when emptied;
    /// the blocks waiting in it are not counted.
    pub fn structure_bytes(&self) -> usize {
        self.0.capacity() * size_of::<Retired<V>>()
    }
}

impl<V> Drop for LeafGarbage<V> {
    fn drop(&mut self) {
        let mut blocks = std::mem::take(&mut self.0).into_iter();
        while let Some(block) = blocks.next() {
            if let Some(ahead) = blocks.as_slice().get(FREE_PREFETCH_AHEAD - 1) {
                prefetch_read(ahead.start());
            }
            drop(block);
        }
    }
}

/// Where a mutation of a [`LeafNode`] puts every block it would otherwise
/// free — a storage vector outgrowing its buffer, a removed item's key
/// block, a replaced table key, a merged-away sibling's storage.
///
/// An **immediate** bin (the single-threaded index, or the concurrent
/// index serving reads under leaf locks) drops each block on the spot. A
/// **deferred** bin moves it, already unlinked, into the index's shared
/// [`LeafGarbage`], holding that store's lock for the push alone: a
/// retirement allocates nothing and writers of different leaves do not
/// wait for each other's mutations.
pub struct Bin<'a, V> {
    shared: Option<&'a Mutex<LeafGarbage<V>>>,
    held: usize,
}

impl<'a, V> Bin<'a, V> {
    /// A bin that drops every retired block immediately (no readers race
    /// with the mutation).
    pub fn immediate() -> Self {
        Self {
            shared: None,
            held: 0,
        }
    }

    /// A bin that keeps retired blocks in `shared` for reclamation after a
    /// QSBR grace period.
    pub fn deferred(shared: &'a Mutex<LeafGarbage<V>>) -> Self {
        Self {
            shared: Some(shared),
            held: 0,
        }
    }

    /// How many blocks the shared store held right after this bin's last
    /// retirement; zero when it made none.
    pub fn held(&self) -> usize {
        self.held
    }

    fn retire(&mut self, block: Retired<V>) {
        if let Some(shared) = self.shared {
            let mut shared = shared.lock();
            shared.0.push(block);
            self.held = shared.len();
        }
    }
}

/// The capacity a full leaf vector of `capacity` slots grows to: a quarter
/// more, at least 8 slots, and no further than `leaf_capacity` while it is
/// within it. A fat leaf past that capacity (§3.3) doubles, so its growth
/// stays geometric.
fn grown_capacity(capacity: usize, leaf_capacity: usize) -> usize {
    if capacity >= leaf_capacity {
        (capacity * 2).max(8)
    } else {
        (capacity + (capacity / 4).max(8)).min(leaf_capacity)
    }
}

/// Moves one of a leaf's vectors into a buffer of `capacity` slots when it
/// has fewer, retiring — instead of freeing — the old buffer. Elements are
/// *moved* into the new buffer (`append`), which leaves their bytes (and
/// therefore the key pointers a racing reader may have loaded) intact in
/// the retired one.
fn regrow<T, V>(
    v: &mut Vec<T>,
    capacity: usize,
    bin: &mut Bin<'_, V>,
    block: fn(Vec<T>) -> Retired<V>,
) {
    if v.capacity() < capacity {
        let mut grown = Vec::with_capacity(capacity);
        grown.append(v);
        bin.retire(block(std::mem::replace(v, grown)));
    }
}

/// Inserts into one of a leaf's vectors, growing a full one by
/// [`grown_capacity`] through [`regrow`].
fn insert_growing<T, V>(
    v: &mut Vec<T>,
    pos: usize,
    item: T,
    leaf_capacity: usize,
    bin: &mut Bin<'_, V>,
    block: fn(Vec<T>) -> Retired<V>,
) {
    if v.len() == v.capacity() {
        regrow(v, grown_capacity(v.capacity(), leaf_capacity), bin, block);
    }
    v.insert(pos, item);
}

/// One key/value item: the key's block and the value. Its hash tag is not
/// here: it lives in the leaf's tag array (`TagSlot`), the only place a
/// lookup reads it from.
#[derive(Debug, Clone)]
struct Kv<V> {
    key: KeyBox,
    value: V,
}

/// One entry of a leaf's tag array: a key's 16-bit hash tag in the high
/// half, the storage slot of its item in the low half. Sixteen entries per
/// cache line; comparing two entries as integers orders them by tag first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TagSlot(u32);

impl TagSlot {
    #[inline]
    fn new(tag: u16, slot: usize) -> Self {
        debug_assert!(slot <= usize::from(u16::MAX));
        Self(u32::from(tag) << 16 | slot as u32)
    }

    #[inline]
    fn tag(self) -> u16 {
        (self.0 >> 16) as u16
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0 & 0xFFFF) as usize
    }
}

/// Index of the first entry of `tags` whose tag is `>= tag`: by speculative
/// positioning (*DirectPos*: start where a uniform hash puts the tag and
/// walk) or by binary search. Every read is inside the slice, so the walk
/// is as safe on an array a writer is changing underneath as on a quiescent
/// one — it then merely lands somewhere meaningless, which the caller's
/// seqlock validation discards.
#[inline]
fn tag_run_start(tags: &[TagSlot], tag: u16, direct_pos: bool) -> usize {
    if !direct_pos {
        return tags.partition_point(|e| e.tag() < tag);
    }
    let mut i = tag_position_hint(tag, tags.len());
    while i > 0 && tag <= tags[i - 1].tag() {
        i -= 1;
    }
    while i < tags.len() && tag > tags[i].tag() {
        i += 1;
    }
    i
}

/// A key's storage slot, and its tag-array position if the search has it.
type Hit = (usize, Option<usize>);

/// A Wormhole leaf node.
#[derive(Debug, Clone)]
pub struct LeafNode<V> {
    /// Logical anchor: `anchor <= every key in this node`, `> every key in
    /// the left neighbour`. Appended ⊥ tokens are *not* included here.
    anchor: Vec<u8>,
    /// The key under which this leaf is registered in the MetaTrieHT. Equals
    /// `anchor` unless ⊥ (zero) tokens had to be appended to satisfy the
    /// prefix condition.
    table_key: Vec<u8>,
    /// Item storage. A slot number is an item's name in the two orderings
    /// below and nothing more: a removal hands the vacated slot to the last
    /// item, so slots say nothing about insertion order.
    kvs: Vec<Kv<V>>,
    /// Total length of the keys of `kvs`.
    key_bytes: usize,
    /// The paper's tag array: one `(tag, slot)` entry per item of `kvs`,
    /// sorted by (tag, key).
    hash_order: Vec<TagSlot>,
    /// Indices into `kvs`; the first `sorted_cnt` are sorted by key, the rest
    /// are unsorted appendees.
    key_order: Vec<u16>,
    /// Length of the key-sorted prefix of `key_order`.
    sorted_cnt: usize,
}

impl<V> LeafNode<V> {
    /// Creates an empty leaf with the given logical anchor and table key.
    pub fn new(anchor: Vec<u8>, table_key: Vec<u8>) -> Self {
        Self::with_capacity(anchor, table_key, 0)
    }

    /// Creates an empty leaf with room for `capacity` items, which take no
    /// growth step on their way in: the bulk load sizes every leaf it
    /// fills for its target this way.
    pub fn with_capacity(anchor: Vec<u8>, table_key: Vec<u8>, capacity: usize) -> Self {
        Self {
            anchor,
            table_key,
            kvs: Vec::with_capacity(capacity),
            key_bytes: 0,
            hash_order: Vec::with_capacity(capacity),
            key_order: Vec::with_capacity(capacity),
            sorted_cnt: 0,
        }
    }

    /// The logical anchor (no appended ⊥ tokens).
    pub fn anchor(&self) -> &[u8] {
        &self.anchor
    }

    /// The MetaTrieHT registration key (may have appended ⊥ tokens).
    pub fn table_key(&self) -> &[u8] {
        &self.table_key
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.kvs.len()
    }

    /// Returns `true` when the leaf stores no items.
    pub fn is_empty(&self) -> bool {
        self.kvs.is_empty()
    }

    /// Total key payload bytes stored in the leaf.
    pub fn key_bytes(&self) -> usize {
        self.key_bytes
    }

    /// Heap bytes of the leaf but its keys and live values: unused item
    /// slots count whole, and each key block's length header counts.
    pub fn structure_bytes(&self) -> usize {
        self.anchor.capacity()
            + self.table_key.capacity()
            + (self.kvs.capacity() * size_of::<Kv<V>>() - self.kvs.len() * size_of::<V>())
            + self.kvs.len() * keybox::HEADER
            + self.hash_order.capacity() * size_of::<TagSlot>()
            + self.key_order.capacity() * size_of::<u16>()
    }

    /// The capacities of the item records, the tag array and the key
    /// order, in that order.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 3] {
        [
            self.kvs.capacity(),
            self.hash_order.capacity(),
            self.key_order.capacity(),
        ]
    }

    /// The key of the item in storage slot `slot`.
    #[inline]
    fn key(&self, slot: usize) -> &[u8] {
        &self.kvs[slot].key
    }

    /// [`LeafNode::key`] on a leaf a concurrent writer may be mutating: a
    /// slot outside what this read sees of the item storage is a
    /// [`ReadConflict`]. The record may be a stale one, but its one word
    /// names a block that is still allocated and states its own length.
    #[inline]
    fn key_checked(&self, slot: usize) -> Result<&[u8], ReadConflict> {
        Ok(&self.kvs.get(slot).ok_or(ReadConflict)?.key)
    }

    /// Hints the key box a collector walking `run` will copy
    /// [`KEY_PREFETCH_AHEAD`] items after position `at`. The address comes
    /// out of bounds-checked reads and is only handed to a prefetch, so a
    /// leaf racing a writer costs at worst a useless hint.
    #[inline]
    fn prefetch_key_ahead(&self, run: &[u16], at: usize) {
        if let Some(&i) = run.get(at + 2 * KEY_PREFETCH_AHEAD) {
            prefetch_read(self.kvs.as_ptr().wrapping_add(usize::from(i)));
        }
        let ahead = run.get(at + KEY_PREFETCH_AHEAD);
        if let Some(kv) = ahead.and_then(|&i| self.kvs.get(usize::from(i))) {
            prefetch_read(kv.key.as_ptr());
        }
    }

    /// Index of the first entry of `order` — key-sorted slots of this leaf —
    /// whose key is `>= key`.
    fn lower_bound(&self, order: &[u16], key: &[u8]) -> usize {
        order.partition_point(|&i| self.key(usize::from(i)) < key)
    }

    /// The first position of the key view whose key is `>= key`, found by a
    /// bounds-checked binary search that a concurrent writer may race.
    pub(crate) fn lower_bound_checked(&self, key: &[u8]) -> Result<usize, ReadConflict> {
        let order = self.key_order.as_slice();
        let (mut lo, mut hi) = (0usize, order.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key_checked(usize::from(order[mid]))? < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Finds the storage slot of `key`, using the configuration's leaf-search
    /// strategy. This is the one leaf search: it is written for a leaf a
    /// concurrent writer may be mutating (the seqlock read path), so every
    /// access is bounds-checked and an inconsistency — instead of panicking
    /// or over-reading — surfaces as [`ReadConflict`]; callers with
    /// exclusive or locked access go through [`LeafNode::find_slot`], for
    /// which a conflict is a broken invariant.
    ///
    /// With *SortByTag* the walk reads nothing but the tag array until a tag
    /// matches; only then is an item's key compared.
    #[inline]
    fn find_slot_checked(
        &self,
        key: &[u8],
        hash: u32,
        config: &WormholeConfig,
    ) -> Result<Option<Hit>, ReadConflict> {
        if config.sort_by_tag() {
            let tag = tag16(hash);
            let tags = self.hash_order.as_slice();
            let run = tag_run_start(tags, tag, config.direct_pos());
            let entries = tags[run..].iter().enumerate();
            for (at, entry) in entries.take_while(|(_, e)| e.tag() == tag) {
                if self.key_checked(entry.slot())? == key {
                    return Ok(Some((entry.slot(), Some(run + at))));
                }
            }
            Ok(None)
        } else {
            // BaseWormhole leaf search: binary search over the key-sorted
            // view (which is kept fully sorted when SortByTag is off).
            let at = self.lower_bound_checked(key)?;
            match self.key_order.get(at) {
                Some(&i) if self.key_checked(usize::from(i))? == key => Ok(Some((i.into(), None))),
                _ => Ok(None),
            }
        }
    }

    /// [`LeafNode::find_slot_checked`] on a leaf nobody is mutating.
    #[inline]
    fn find_slot(&self, key: &[u8], hash: u32, config: &WormholeConfig) -> Option<Hit> {
        debug_assert!(config.sort_by_tag() || !self.key_view_lags());
        self.find_slot_checked(key, hash, config)
            .expect("quiescent leaf is consistent")
    }

    /// Returns a reference to the value stored under `key`.
    pub fn get(&self, key: &[u8], hash: u32, config: &WormholeConfig) -> Option<&V> {
        self.find_slot(key, hash, config)
            .map(|(i, _)| &self.kvs[i].value)
    }

    /// Returns a mutable reference to the value stored under `key`.
    pub fn get_mut(&mut self, key: &[u8], hash: u32, config: &WormholeConfig) -> Option<&mut V> {
        self.find_slot(key, hash, config)
            .map(|(i, _)| &mut self.kvs[i].value)
    }

    /// Hints what a `set` under the leaf's write lock touches: the tag array
    /// (searched, and shifted by an insert) and the records an insert appends.
    #[inline]
    pub fn prefetch_set(&self) {
        prefetch_slice(&self.hash_order);
        prefetch_read(self.kvs.as_ptr().wrapping_add(self.kvs.len()));
        prefetch_read(self.key_order.as_ptr().wrapping_add(self.key_order.len()));
    }

    /// Inserts `key`, which the caller has just searched this leaf for and
    /// not found ([`LeafNode::get_mut`] returned `None`), retiring every
    /// buffer the insert outgrows through `bin`.
    pub fn insert_absent(
        &mut self,
        key: &[u8],
        hash: u32,
        value: V,
        config: &WormholeConfig,
        bin: &mut Bin<'_, V>,
    ) {
        debug_assert!(self.find_slot(key, hash, config).is_none());
        let slot = self.kvs.len();
        let tag = tag16(hash);
        // Keep the tag array sorted by (tag, key): the paper's hash-ordered
        // tag array supports DirectPos positioning. A key is read only to
        // break a tie of tags, so the search stays inside the array.
        let pos = self
            .hash_order
            .partition_point(|e| e.tag() < tag || (e.tag() == tag && self.key(e.slot()) < key));
        let key_pos = if config.sort_by_tag() {
            // Key order is allowed to lag: append unsorted (incSort later).
            self.key_order.len()
        } else {
            // Without SortByTag the key order must stay fully sorted so that
            // lookups can binary-search it.
            self.lower_bound(&self.key_order, key)
        };
        let kv = Kv {
            key: KeyBox::new(key),
            value,
        };
        let cap = config.leaf_capacity;
        insert_growing(&mut self.kvs, slot, kv, cap, bin, Retired::Items);
        #[cfg(test)]
        tests::panic_if_armed();
        self.key_bytes += key.len();
        let entry = TagSlot::new(tag, slot);
        insert_growing(&mut self.hash_order, pos, entry, cap, bin, Retired::Tags);
        let order = &mut self.key_order;
        insert_growing(order, key_pos, slot as u16, cap, bin, Retired::Order);
        if !config.sort_by_tag() {
            self.sorted_cnt = self.key_order.len();
        }
    }

    /// Removes `key`, returning its value when present and retiring its key
    /// block through `bin`. The last item takes over the vacated slot, so
    /// in each ordering the entry naming that slot is dropped and the one
    /// entry naming the last slot is renamed — in place: both orderings are
    /// by tag or key, not by slot, so a renamed item stays where it is and
    /// the sorted prefix stays sorted. What that touches is hinted first.
    pub fn remove(
        &mut self,
        key: &[u8],
        hash: u32,
        config: &WormholeConfig,
        bin: &mut Bin<'_, V>,
    ) -> Option<V> {
        prefetch_slice(&self.hash_order);
        prefetch_slice(&self.key_order);
        prefetch_slice(&self.kvs[self.kvs.len().saturating_sub(1)..]);
        let (slot, tag_at) = self.find_slot(key, hash, config)?;
        let removed = self.kvs.swap_remove(slot);
        let last = self.kvs.len();
        self.key_bytes -= removed.key.len();
        let at = tag_at.or_else(|| self.hash_order.iter().position(|e| e.slot() == slot));
        self.hash_order
            .remove(at.expect("tag array names every slot"));
        if let Some(e) = self.hash_order.iter_mut().find(|e| e.slot() == last) {
            *e = TagSlot::new(e.tag(), slot);
        }
        let at = self.key_order.iter().position(|&i| usize::from(i) == slot);
        let at = at.expect("key order names every slot");
        self.key_order.remove(at);
        if at < self.sorted_cnt {
            self.sorted_cnt -= 1;
        }
        if let Some(i) = self.key_order.iter_mut().find(|i| usize::from(**i) == last) {
            *i = slot as u16;
        }
        bin.retire(Retired::Key(removed.key));
        Some(removed.value)
    }

    /// Whether the key-sorted view lags behind the items: some were
    /// appended since `incSort` last ran.
    pub fn key_view_lags(&self) -> bool {
        self.sorted_cnt != self.key_order.len()
    }

    /// The paper's `incSort`: brings the key-sorted view up to date by
    /// merging the unsorted tail into the sorted prefix. It runs in place:
    /// nothing is allocated and no buffer is replaced, so a racing reader
    /// loses at most its seqlock validation.
    ///
    /// A lagging view asks before it compares: every key is a heap block of
    /// its own, and a sort that meets them one comparison at a time waits
    /// out one miss after the other. All of the leaf's blocks are hinted
    /// first, so the sort — and the search and the copy a scan runs next
    /// under the same lock — find them on their way or resident.
    pub fn ensure_key_sorted(&mut self) {
        if !self.key_view_lags() {
            return;
        }
        let Self {
            kvs,
            key_bytes,
            key_order,
            sorted_cnt,
            ..
        } = self;
        let key_len = *key_bytes / kvs.len();
        kvs.iter().for_each(|kv| kv.key.prefetch(key_len));
        let key = |i: u16| &*kvs[usize::from(i)].key;
        if key_order.len() - *sorted_cnt > INC_SORT_INSERTIONS {
            key_order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        } else {
            for at in *sorted_cnt..key_order.len() {
                let item = key_order[at];
                let pos = key_order[..at].partition_point(|&i| key(i) < key(item));
                key_order.copy_within(pos..at, pos + 1);
                key_order[pos] = item;
            }
        }
        *sorted_cnt = key_order.len();
    }

    /// Iterates `(key, value)` in ascending key order. Call
    /// [`Self::ensure_key_sorted`] first; otherwise only the sorted prefix
    /// is guaranteed to be ordered.
    pub fn iter_key_order(&self) -> impl Iterator<Item = (&[u8], &V)> + '_ {
        self.key_order.iter().map(|&i| {
            let slot = usize::from(i);
            (self.key(slot), &self.kvs[slot].value)
        })
    }

    /// The smallest key in the leaf (requires a sorted key view).
    pub fn min_key(&self) -> Option<&[u8]> {
        debug_assert!(!self.key_view_lags());
        self.key_order.first().map(|&i| self.key(usize::from(i)))
    }

    /// The largest key in the leaf (requires a sorted key view).
    pub fn max_key(&self) -> Option<&[u8]> {
        debug_assert!(!self.key_view_lags());
        self.key_order.last().map(|&i| self.key(usize::from(i)))
    }

    /// Batch-per-leaf primitive of the single-threaded scan cursor, which
    /// holds the index by shared reference and so cannot run `incSort`:
    /// like [`LeafNode::collect_leaf_checked`], but usable while the
    /// key-sorted view lags behind. The sorted prefix and the unsorted tail
    /// are merged on the fly, ordering the tail through `scratch` (a
    /// reusable index buffer) instead of cloning the leaf.
    pub fn collect_leaf_unsorted(
        &self,
        start: &[u8],
        count: usize,
        batch: &mut ScanBatch<V>,
        scratch: &mut Vec<u16>,
    ) -> usize
    where
        V: Clone,
    {
        if !self.key_view_lags() {
            return self
                .lower_bound_checked(start)
                .and_then(|begin| self.collect_leaf_checked(begin, count, batch, usize::MAX))
                .expect("a sorted leaf nobody writes cannot conflict");
        }
        let key = |i: u16| self.key(usize::from(i));
        scratch.clear();
        scratch.extend_from_slice(&self.key_order[self.sorted_cnt..]);
        scratch.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let sorted = &self.key_order[..self.sorted_cnt];
        let mut a = self.lower_bound(sorted, start);
        let mut b = self.lower_bound(scratch, start);
        let mut appended = 0;
        while appended < count {
            let next = match (sorted.get(a), scratch.get(b)) {
                (Some(&x), Some(&y)) if key(x) <= key(y) => {
                    a += 1;
                    x
                }
                (Some(&x), None) => {
                    a += 1;
                    x
                }
                (_, Some(&y)) => {
                    b += 1;
                    y
                }
                (None, None) => break,
            };
            batch.push(key(next), self.kvs[usize::from(next)].value.clone());
            appended += 1;
        }
        appended
    }

    /// Like [`LeafNode::get`], but safe to run on a leaf that a concurrent
    /// writer may be mutating (the seqlock read path): every index access is
    /// bounds-checked and any inconsistency — instead of panicking or
    /// over-reading — surfaces as [`ReadConflict`], which the caller turns
    /// into a retry after its seqlock validation fails.
    ///
    /// The returned reference (and any value cloned from it) must be
    /// discarded unless the caller's subsequent version validation succeeds.
    #[inline]
    pub fn get_checked(
        &self,
        key: &[u8],
        hash: u32,
        config: &WormholeConfig,
    ) -> Result<Option<&V>, ReadConflict> {
        match self.find_slot_checked(key, hash, config)? {
            Some((slot, _)) => {
                #[cfg(test)]
                tests::park_if_armed();
                Ok(Some(&self.kvs.get(slot).ok_or(ReadConflict)?.value))
            }
            None => Ok(None),
        }
    }

    /// Stages the leaf half of a batched point read: three hint-only rounds
    /// over a window of `(leaf, key hash)` pairs — each key's tag-array
    /// line at its DirectPos position, then the first tag-matching slot's
    /// item record, then that item's key bytes — so that the reads which
    /// follow find their lines resident instead of walking one dependent
    /// miss chain per key. Every round covers the whole window before the
    /// next starts: a round's addresses come out of the lines the previous
    /// round asked for.
    ///
    /// The leaves may be racing a writer, like in [`LeafNode::get_checked`]:
    /// every address is computed from bounds-checked reads and only ever
    /// handed to a prefetch, never dereferenced, and nothing read here is
    /// kept, so a torn read costs one useless hint. A no-op without
    /// *SortByTag*, whose leaf search is a binary search over keys.
    pub fn stage_probes(window: &[Option<&Self>], hashes: &[u32], config: &WormholeConfig) {
        if !config.sort_by_tag() {
            return;
        }
        for (leaf, &hash) in window.iter().zip(hashes) {
            if let Some(leaf) = leaf {
                let tags = leaf.hash_order.as_slice();
                let at = if config.direct_pos() {
                    tag_position_hint(tag16(hash), tags.len())
                } else {
                    tags.len() / 2
                };
                prefetch_read(tags.as_ptr().wrapping_add(at));
            }
        }
        let mut slots = [None; crate::meta::BATCH_WINDOW];
        for ((leaf, &hash), slot) in window.iter().zip(hashes).zip(&mut slots) {
            let Some(leaf) = leaf else { continue };
            let (tag, tags) = (tag16(hash), leaf.hash_order.as_slice());
            let entry = tags.get(tag_run_start(tags, tag, config.direct_pos()));
            *slot = entry
                .filter(|e| e.tag() == tag && e.slot() < leaf.kvs.len())
                .map(|e| e.slot());
            if let Some(slot) = *slot {
                prefetch_read(leaf.kvs.as_ptr().wrapping_add(slot));
            }
        }
        for (leaf, slot) in window.iter().zip(slots) {
            if let Some(kv) = leaf.zip(slot).and_then(|(leaf, slot)| leaf.kvs.get(slot)) {
                prefetch_read(kv.key.as_ptr());
            }
        }
    }

    /// Sizes `batch` for a run of this leaf: `capacity` items (a full
    /// leaf) or more, at most `limit`, of this leaf's mean key length. A
    /// scan's batch arena thus reaches its working size on its first fills.
    /// (Under a racing writer both counts are some value it stored, and a
    /// real leaf's worth at most.)
    pub fn reserve_run(&self, batch: &mut ScanBatch<V>, capacity: usize, limit: usize) {
        let items = self.len().max(capacity).min(limit);
        let key_len = self.key_bytes().div_ceil(self.len().max(1));
        batch.reserve(items, items.saturating_mul(key_len));
    }

    /// Appends up to `count` items of the key-sorted view to `batch`, from
    /// position `begin` on (`lower_bound_checked` finds a key's), and
    /// returns how many it appended: the batch-per-leaf primitive of both
    /// scan cursors. A bounds-checked walk of the view, safe on a leaf a
    /// concurrent writer may be mutating (see [`LeafNode::get_checked`]).
    /// Any key whose recorded length exceeds `max_key_len` is treated as
    /// torn state rather than copied, and so is a view that lags: the
    /// cursor sorts it under the leaf's write lock and reads it there.
    /// Everything appended must be discarded unless the caller's seqlock
    /// validation succeeds. On a sorted leaf that nobody writes it cannot
    /// conflict.
    pub fn collect_leaf_checked(
        &self,
        begin: usize,
        count: usize,
        batch: &mut ScanBatch<V>,
        max_key_len: usize,
    ) -> Result<usize, ReadConflict>
    where
        V: Clone,
    {
        if self.key_view_lags() {
            return Err(ReadConflict);
        }
        let run = self.key_order.get(begin..).ok_or(ReadConflict)?;
        let run = &run[..run.len().min(count)];
        for (at, &i) in run.iter().enumerate() {
            self.prefetch_key_ahead(run, at);
            let kv = self.kvs.get(usize::from(i)).ok_or(ReadConflict)?;
            if kv.key.len() > max_key_len {
                return Err(ReadConflict);
            }
            batch.push(&kv.key, kv.value.clone());
        }
        Ok(run.len())
    }

    /// Key at sorted position `i` (requires the key-sorted view to be
    /// current; see [`LeafNode::ensure_key_sorted`]). Used by the core
    /// engine's split-point selection.
    pub fn key_at(&self, i: usize) -> &[u8] {
        debug_assert!(!self.key_view_lags());
        self.key(usize::from(self.key_order[i]))
    }

    /// Splits the leaf at key-order position `at`, moving items `[at..]` into
    /// a new leaf with the given anchor and table key, and retiring the
    /// replaced storage buffers of the left half through `bin` (the right
    /// half is freshly allocated and not yet visible to readers).
    pub fn split_off(
        &mut self,
        at: usize,
        anchor: Vec<u8>,
        table_key: Vec<u8>,
        bin: &mut Bin<'_, V>,
    ) -> LeafNode<V> {
        debug_assert!(!self.key_view_lags());
        debug_assert!(at > 0 && at < self.key_order.len());
        let (kept_order, moved) = self.key_order.split_at(at);
        let mut right = LeafNode::new(anchor, table_key);
        // Deal the items out to the two halves, each into a vector sized
        // for it so that no push reallocates. This leaf may be racing
        // readers: its kept items are gathered off to the side and the
        // vector is replaced whole (the rule in the module docs).
        let mut keep = vec![false; self.kvs.len()];
        for &i in kept_order {
            keep[i as usize] = true;
        }
        let mut kept = Vec::with_capacity(at);
        right.kvs.reserve_exact(moved.len());
        let mut remap = vec![u16::MAX; self.kvs.len()];
        for (i, kv) in self.kvs.drain(..).enumerate() {
            if keep[i] {
                remap[i] = kept.len() as u16;
                kept.push(kv);
            } else {
                remap[i] = right.kvs.len() as u16;
                right.key_bytes += kv.key.len();
                right.kvs.push(kv);
            }
        }
        bin.retire(Retired::Items(std::mem::replace(&mut self.kvs, kept)));
        // Rebuild the orderings of both leaves from the remap, each into a
        // vector of its own length.
        let renamed =
            |order: &[u16]| -> Vec<u16> { order.iter().map(|&i| remap[usize::from(i)]).collect() };
        right.key_order = renamed(moved);
        right.sorted_cnt = right.key_order.len();
        let kept_order = renamed(kept_order);
        bin.retire(Retired::Order(std::mem::replace(
            &mut self.key_order,
            kept_order,
        )));
        self.sorted_cnt = self.key_order.len();
        self.key_bytes -= right.key_bytes;
        // Deal the old tag array out to the two halves: each receives a
        // subsequence of a (tag, key)-sorted sequence, so both stay sorted
        // and every tag is carried over rather than re-derived.
        let old_hash = std::mem::replace(&mut self.hash_order, Vec::with_capacity(self.kvs.len()));
        right.hash_order.reserve_exact(right.kvs.len());
        for entry in &old_hash {
            let moved = TagSlot::new(entry.tag(), usize::from(remap[entry.slot()]));
            if keep[entry.slot()] {
                self.hash_order.push(moved);
            } else {
                right.hash_order.push(moved);
            }
        }
        bin.retire(Retired::Tags(old_hash));
        right
    }

    /// Moves every item of `victim`, the right neighbour, into this leaf
    /// (used by merge), retiring the victim's storage (and any buffer this
    /// leaf outgrows) through `bin`.
    pub fn absorb(&mut self, mut victim: LeafNode<V>, bin: &mut Bin<'_, V>) {
        // Merges are rare and bounded by the merge size, so both key views
        // are brought up to date here: every key of the right neighbour is
        // greater than every key of this leaf, so the two views
        // concatenate into a sorted one — the invariant the non-SortByTag
        // configuration relies on for its binary searches.
        self.ensure_key_sorted();
        victim.ensure_key_sorted();
        debug_assert!(self.is_empty() || victim.is_empty() || self.max_key() < victim.min_key());
        // Merge the two tag arrays (both sorted by (tag, key)); the
        // victim's items land behind this leaf's, so its slots shift by the
        // current item count and its tags are carried over as they are.
        let base = self.kvs.len();
        let shifted = |e: &TagSlot| TagSlot::new(e.tag(), base + e.slot());
        let (mine, theirs) = (&self.hash_order, &victim.hash_order);
        let mut merged = Vec::with_capacity(mine.len() + theirs.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < mine.len() && b < theirs.len() {
            let (x, y) = (mine[a], theirs[b]);
            if x.tag() < y.tag()
                || (x.tag() == y.tag() && self.key(x.slot()) <= victim.key(y.slot()))
            {
                merged.push(x);
                a += 1;
            } else {
                merged.push(shifted(&y));
                b += 1;
            }
        }
        merged.extend_from_slice(&mine[a..]);
        merged.extend(theirs[b..].iter().map(shifted));
        bin.retire(Retired::Tags(std::mem::replace(
            &mut self.hash_order,
            merged,
        )));
        self.key_bytes += victim.key_bytes;
        // The items and the key order need room for both leaves': a vector
        // short of it moves into a buffer of exactly that much. Both only
        // append, so the sorted prefix becomes the whole view.
        let total = base + victim.kvs.len();
        regrow(&mut self.key_order, total, bin, Retired::Order);
        let shifted = victim.key_order.iter().map(|&i| base as u16 + i);
        self.key_order.extend(shifted);
        self.sorted_cnt = self.key_order.len();
        regrow(&mut self.kvs, total, bin, Retired::Items);
        self.kvs.append(&mut victim.kvs);
        // Readers may still be traversing the victim's (now drained)
        // storage and anchor: retire the buffers wholesale.
        bin.retire(Retired::Items(std::mem::take(&mut victim.kvs)));
        bin.retire(Retired::Tags(std::mem::take(&mut victim.hash_order)));
        bin.retire(Retired::Order(std::mem::take(&mut victim.key_order)));
        bin.retire(Retired::Bytes(std::mem::take(&mut victim.anchor)));
        bin.retire(Retired::Bytes(std::mem::take(&mut victim.table_key)));
    }

    /// Panics unless both orderings describe the stored items: the tag
    /// array is sorted by (tag, key), names every slot exactly once and
    /// carries each key's own tag; the key order names every slot exactly
    /// once and its sorted prefix ascends; the key-byte count is exact.
    /// Tests and debugging.
    pub fn check_invariants(&self) {
        let n = self.kvs.len();
        assert_eq!(
            self.kvs.iter().map(|kv| kv.key.len()).sum::<usize>(),
            self.key_bytes,
            "key bytes miscounted"
        );
        let key = |slot: usize| self.key(slot);
        let mut seen = vec![false; n];
        for entry in &self.hash_order {
            assert!(
                !std::mem::replace(&mut seen[entry.slot()], true),
                "tag array names slot {} twice",
                entry.slot()
            );
            assert_eq!(
                entry.tag(),
                tag16(crc32c(key(entry.slot()))),
                "stale tag for slot {}",
                entry.slot()
            );
        }
        assert_eq!(self.hash_order.len(), n, "tag array misses a slot");
        assert!(
            self.hash_order
                .windows(2)
                .all(|w| (w[0].tag(), key(w[0].slot())) < (w[1].tag(), key(w[1].slot()))),
            "tag array not sorted by (tag, key)"
        );
        let mut seen = vec![false; n];
        for &slot in &self.key_order {
            assert!(
                !std::mem::replace(&mut seen[usize::from(slot)], true),
                "key order names slot {slot} twice"
            );
        }
        assert_eq!(self.key_order.len(), n, "key order misses a slot");
        assert!(self.sorted_cnt <= n);
        assert!(
            self.key_order[..self.sorted_cnt]
                .windows(2)
                .all(|w| key(usize::from(w[0])) < key(usize::from(w[1]))),
            "sorted prefix of the key order does not ascend"
        );
    }

    /// Updates the leaf's table key (used when an anchor is relocated with an
    /// appended ⊥ token by a later split), retiring the replaced key bytes
    /// through `bin`.
    pub fn set_table_key(&mut self, table_key: Vec<u8>, bin: &mut Bin<'_, V>) {
        bin.retire(Retired::Bytes(std::mem::replace(
            &mut self.table_key,
            table_key,
        )));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::Rung;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Barrier};

    thread_local! {
        /// Makes the next `insert_absent` on this thread panic half-way:
        /// its item is stored, and neither ordering names it yet.
        pub(crate) static PANIC_MID_INSERT: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn panic_if_armed() {
        if PANIC_MID_INSERT.with(|armed| armed.replace(false)) {
            panic!("a test's panic inside a leaf mutation");
        }
    }

    thread_local! {
        /// Parks the next `get_checked` on this thread that finds its key
        /// between the slot and the value: it waits at the barrier once on
        /// arriving and once more before it reads on.
        pub(crate) static PARK_AFTER_SLOT: Cell<Option<Arc<Barrier>>> = const { Cell::new(None) };
    }

    pub(super) fn park_if_armed() {
        if let Some(barrier) = PARK_AFTER_SLOT.take() {
            barrier.wait();
            barrier.wait();
        }
    }

    fn cfg() -> WormholeConfig {
        WormholeConfig::optimized().with_leaf_capacity(16)
    }

    fn insert(
        leaf: &mut LeafNode<u64>,
        key: &[u8],
        value: u64,
        config: &WormholeConfig,
    ) -> Option<u64> {
        let hash = crc32c(key);
        if let Some(slot) = leaf.get_mut(key, hash, config) {
            return Some(std::mem::replace(slot, value));
        }
        leaf.insert_absent(key, hash, value, config, &mut Bin::immediate());
        None
    }

    fn remove(leaf: &mut LeafNode<u64>, key: &[u8], config: &WormholeConfig) -> Option<u64> {
        leaf.remove(key, crc32c(key), config, &mut Bin::immediate())
    }

    /// The three leaf searches: a leaf reads nothing of its rung but
    /// whether *SortByTag* and *DirectPos* are in force.
    fn leaf_configs() -> [WormholeConfig; 3] {
        [Rung::DirectPos, Rung::Base, Rung::SortByTag].map(|rung| WormholeConfig {
            rung,
            ..WormholeConfig::optimized()
        })
    }

    fn get(leaf: &LeafNode<u64>, key: &[u8], config: &WormholeConfig) -> Option<u64> {
        leaf.get(key, crc32c(key), config).copied()
    }

    #[test]
    fn insert_get_remove_roundtrip_all_configs() {
        for config in leaf_configs() {
            let mut leaf = LeafNode::new(Vec::new(), Vec::new());
            let names = ["Abby", "Bob", "Bond", "Ella", "Alex", "Jack", "Alan", "Ada"];
            for (i, name) in names.iter().enumerate() {
                assert_eq!(insert(&mut leaf, name.as_bytes(), i as u64, &config), None);
            }
            assert_eq!(leaf.len(), names.len());
            for (i, name) in names.iter().enumerate() {
                assert_eq!(
                    get(&leaf, name.as_bytes(), &config),
                    Some(i as u64),
                    "{name}"
                );
            }
            assert_eq!(get(&leaf, b"Zed", &config), None);
            assert_eq!(insert(&mut leaf, b"Bob", 99, &config), Some(1));
            assert_eq!(remove(&mut leaf, b"Bob", &config), Some(99));
            assert_eq!(get(&leaf, b"Bob", &config), None);
            assert_eq!(leaf.len(), names.len() - 1);
            // Every other key still reachable after the removal fix-ups.
            for (i, name) in names.iter().enumerate() {
                if *name != "Bob" {
                    assert_eq!(
                        get(&leaf, name.as_bytes(), &config),
                        Some(i as u64),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn inc_sort_merges_unsorted_tail() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for k in ["m", "c", "x", "a", "t", "b"] {
            insert(&mut leaf, k.as_bytes(), 0, &config);
        }
        leaf.ensure_key_sorted();
        let keys: Vec<&[u8]> = leaf.iter_key_order().map(|(key, _)| key).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b", b"c", b"m", b"t", b"x"]);
        // Add more after the sort: they form a new unsorted tail.
        for k in ["q", "d"] {
            insert(&mut leaf, k.as_bytes(), 0, &config);
        }
        leaf.ensure_key_sorted();
        let keys: Vec<&[u8]> = leaf.iter_key_order().map(|(key, _)| key).collect();
        assert_eq!(
            keys,
            vec![b"a".as_ref(), b"b", b"c", b"d", b"m", b"q", b"t", b"x"]
        );
    }

    #[test]
    fn inc_sort_sorts_a_long_tail_whole() {
        // More appendees than incSort inserts one by one: the view is
        // sorted whole, and further short tails merge into it as usual.
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        let n = 3 * INC_SORT_INSERTIONS as u64;
        for i in 0..n {
            insert(
                &mut leaf,
                format!("t{:04}", i * 7 % n).as_bytes(),
                i,
                &config,
            );
        }
        assert!(leaf.key_view_lags());
        leaf.ensure_key_sorted();
        for i in [n + 1, n] {
            insert(&mut leaf, format!("t{i:04}").as_bytes(), i, &config);
        }
        leaf.ensure_key_sorted();
        assert!(!leaf.key_view_lags());
        leaf.check_invariants();
        let keys: Vec<Vec<u8>> = leaf.iter_key_order().map(|(key, _)| key.to_vec()).collect();
        let expect: Vec<Vec<u8>> = (0..n + 2)
            .map(|i| format!("t{i:04}").into_bytes())
            .collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn collect_range_respects_start_and_count() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for i in 0..10u64 {
            insert(&mut leaf, format!("k{i:02}").as_bytes(), i, &config);
        }
        leaf.ensure_key_sorted();
        let mut out = ScanBatch::new();
        let begin = leaf.lower_bound_checked(b"k03").unwrap();
        let n = leaf
            .collect_leaf_checked(begin, 4, &mut out, usize::MAX)
            .unwrap();
        assert_eq!(n, 4);
        let pairs: Vec<(&[u8], &u64)> = out.iter().collect();
        assert_eq!(
            pairs,
            [
                (b"k03".as_ref(), &3),
                (b"k04", &4),
                (b"k05", &5),
                (b"k06", &6)
            ]
        );
    }

    #[test]
    fn split_off_partitions_items() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for i in 0..10u64 {
            insert(&mut leaf, format!("key{i}").as_bytes(), i, &config);
        }
        let (at, anchor) = crate::core::choose_split_point(&mut leaf).unwrap();
        let right = leaf.split_off(at, anchor.clone(), anchor.clone(), &mut Bin::immediate());
        assert_eq!(leaf.len() + right.len(), 10);
        leaf.check_invariants();
        right.check_invariants();
        assert!(leaf.max_key().unwrap() < right.min_key().unwrap());
        assert!(right.min_key().unwrap() >= anchor.as_slice());
        // Both halves remain searchable.
        for i in 0..10u64 {
            let key = format!("key{i}");
            let hit_left = get(&leaf, key.as_bytes(), &config);
            let hit_right = get(&right, key.as_bytes(), &config);
            assert!(hit_left.is_some() ^ hit_right.is_some(), "{key}");
            assert_eq!(hit_left.or(hit_right), Some(i));
        }
    }

    #[test]
    fn absorb_merges_and_lazily_sorts() {
        let config = cfg();
        let mut left = LeafNode::new(Vec::new(), Vec::new());
        let mut right = LeafNode::new(b"m".to_vec(), b"m".to_vec());
        for k in ["a", "c", "e"] {
            insert(&mut left, k.as_bytes(), 1, &config);
        }
        for k in ["m", "o", "q"] {
            insert(&mut right, k.as_bytes(), 2, &config);
        }
        left.ensure_key_sorted();
        left.absorb(right, &mut Bin::immediate());
        left.check_invariants();
        assert_eq!(left.len(), 6);
        for k in ["a", "c", "e", "m", "o", "q"] {
            assert!(get(&left, k.as_bytes(), &config).is_some(), "{k}");
        }
        assert!(!left.key_view_lags(), "absorb leaves the view current");
        let keys: Vec<&[u8]> = left.iter_key_order().map(|(key, _)| key).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"c", b"e", b"m", b"o", b"q"]);
    }

    #[test]
    fn checked_reads_match_unchecked_on_quiescent_leaf() {
        for config in leaf_configs() {
            let mut leaf = LeafNode::new(Vec::new(), Vec::new());
            let mut model = BTreeMap::new();
            for i in 0..40u64 {
                let key = format!("ck{:03}", i * 7 % 40).into_bytes();
                insert(&mut leaf, &key, i, &config);
                model.insert(key, i);
            }
            for i in 0..40u64 {
                let key = format!("ck{i:03}");
                assert_eq!(
                    leaf.get_checked(key.as_bytes(), crc32c(key.as_bytes()), &config),
                    Ok(leaf.get(key.as_bytes(), crc32c(key.as_bytes()), &config)),
                    "{key}"
                );
            }
            assert_eq!(leaf.get_checked(b"zz", crc32c(b"zz"), &config), Ok(None));
            // Range: the checked collector refuses a lagging key view (the
            // cursor sorts it under the write lock); both collectors agree
            // with the model once it is current.
            let expect: Vec<(&[u8], &u64)> = model
                .range(b"ck010".to_vec()..)
                .take(12)
                .map(|(k, v)| (k.as_slice(), v))
                .collect();
            let mut got = ScanBatch::new();
            let mut scratch = Vec::new();
            leaf.collect_leaf_unsorted(b"ck010", 12, &mut got, &mut scratch);
            assert_eq!(got.iter().collect::<Vec<_>>(), expect);
            got.clear();
            if leaf.key_view_lags() {
                assert_eq!(
                    leaf.collect_leaf_checked(0, 12, &mut got, 1 << 20),
                    Err(ReadConflict)
                );
                leaf.ensure_key_sorted();
            }
            let begin = leaf
                .lower_bound_checked(b"ck010")
                .expect("quiescent leaf never conflicts");
            let n = leaf
                .collect_leaf_checked(begin, 12, &mut got, 1 << 20)
                .expect("quiescent leaf never conflicts");
            assert_eq!(n, expect.len());
            assert_eq!(got.iter().collect::<Vec<_>>(), expect);
            got.clear();
            assert_eq!(
                leaf.collect_leaf_checked(begin, 12, &mut got, usize::MAX),
                Ok(n)
            );
            assert_eq!(got.iter().collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn table_key_can_be_relocated() {
        let mut leaf: LeafNode<u64> = LeafNode::new(b"Jo".to_vec(), b"Jo".to_vec());
        leaf.set_table_key(b"Jo\0".to_vec(), &mut Bin::immediate());
        assert_eq!(leaf.anchor(), b"Jo");
        assert_eq!(leaf.table_key(), b"Jo\0");
    }

    #[test]
    fn a_removal_renames_one_item() {
        // Removing an item hands its slot to the item in the last slot:
        // besides the entries that named the removed item, exactly one
        // entry of each ordering changes — the one that named the last slot
        // — and it changes in place.
        for config in leaf_configs() {
            let mut leaf = LeafNode::new(Vec::new(), Vec::new());
            let key = |i: u64| format!("mid{:03}", i * 37 % 100).into_bytes();
            // Sorted at 60 items: the last slot sits in the unsorted tail.
            for i in 0..100u64 {
                insert(&mut leaf, &key(i), i, &config);
                if i == 59 {
                    leaf.ensure_key_sorted();
                }
            }
            assert_eq!(leaf.key_view_lags(), config.sort_by_tag());
            // Item `i` went into slot `i`. A middle one, then the last one.
            for (doomed, renamed) in [(30usize, 1), (98, 0)] {
                let last = leaf.len() - 1;
                let rename = |slot: usize| if slot == last { doomed } else { slot };
                let tags: Vec<(u16, usize)> = leaf
                    .hash_order
                    .iter()
                    .filter(|e| e.slot() != doomed)
                    .map(|e| (e.tag(), e.slot()))
                    .collect();
                let order: Vec<usize> = leaf
                    .key_order
                    .iter()
                    .map(|&i| usize::from(i))
                    .filter(|&slot| slot != doomed)
                    .collect();
                let sorted = leaf.sorted_cnt;
                let gone = key(doomed as u64);
                let removed = remove(&mut leaf, &gone, &config);
                assert_eq!(removed, Some(doomed as u64));
                leaf.check_invariants();
                let tags_now: Vec<(u16, usize)> = leaf
                    .hash_order
                    .iter()
                    .map(|e| (e.tag(), e.slot()))
                    .collect();
                let order_now: Vec<usize> =
                    leaf.key_order.iter().map(|&i| usize::from(i)).collect();
                let differ = tags.iter().zip(&tags_now).filter(|(a, b)| a != b).count();
                assert_eq!(differ, renamed);
                let differ = order.iter().zip(&order_now).filter(|(a, b)| a != b).count();
                assert_eq!(differ, renamed);
                let expect: Vec<_> = tags.iter().map(|&(t, slot)| (t, rename(slot))).collect();
                assert_eq!(tags_now, expect);
                let expect: Vec<_> = order.iter().map(|&slot| rename(slot)).collect();
                assert_eq!(order_now, expect);
                // The sorted prefix shrinks when the removed item sat in it.
                let in_prefix = doomed < 60 || !config.sort_by_tag();
                assert_eq!(leaf.sorted_cnt, sorted - usize::from(in_prefix));
                assert_eq!(get(&leaf, &gone, &config), None);
                assert_eq!(get(&leaf, &key(99), &config), Some(99));
            }
        }
    }

    #[test]
    fn kv_holds_nothing_but_key_and_value() {
        // The tags live in the tag array only: an item record is its key
        // box and its value, and a tag-array entry is four bytes.
        assert_eq!(std::mem::size_of::<Kv<u64>>(), 16);
        assert_eq!(std::mem::size_of::<TagSlot>(), 4);
        let entry = TagSlot::new(0xBEEF, 0x1234);
        assert_eq!((entry.tag(), entry.slot()), (0xBEEF, 0x1234));
    }

    /// A paper-sized leaf (128 items) holding the keys `keys`.
    fn paper_leaf(keys: impl Iterator<Item = u64>) -> LeafNode<u64> {
        let config = WormholeConfig::optimized();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for i in keys {
            insert(&mut leaf, format!("key-{i:05}").as_bytes(), i, &config);
        }
        leaf
    }

    /// Inserts the keys `keys` into `leaf` one by one, checking `bound`
    /// against each vector's capacity after every insert, and returns how
    /// many growth steps each vector took.
    fn fill_counting_steps(
        leaf: &mut LeafNode<u64>,
        keys: impl Iterator<Item = u64>,
        bound: impl Fn(usize) -> usize,
    ) -> [usize; 3] {
        let config = WormholeConfig::optimized();
        let mut steps = [0; 3];
        for i in keys {
            let before = leaf.capacities();
            insert(leaf, format!("key-{i:05}").as_bytes(), i, &config);
            let now = leaf.capacities();
            for v in 0..3 {
                steps[v] += usize::from(now[v] != before[v]);
                assert!(now[v] <= bound(leaf.len()), "vector {v}: {now:?}");
            }
        }
        steps
    }

    #[test]
    fn a_split_half_fills_in_quarter_steps() {
        // A full leaf splits into two halves of 64; the left one is filled
        // to the leaf capacity again. Each vector grows by a quarter of its
        // length (8 slots at least), never past the leaf capacity, and
        // takes four steps: 64, 80, 100, 125, 128.
        let cap = WormholeConfig::optimized().leaf_capacity;
        let mut leaf = paper_leaf((0..2 * cap as u64).step_by(2));
        leaf.ensure_key_sorted();
        let anchor = leaf.key_at(cap / 2).to_vec();
        let right = leaf.split_off(cap / 2, anchor.clone(), anchor, &mut Bin::immediate());
        assert_eq!((leaf.len(), right.len()), (cap / 2, cap / 2));
        let odd = (1..cap as u64).step_by(2);
        let bound = |len: usize| cap.min(len + (len / 4).max(8));
        let steps = fill_counting_steps(&mut leaf, odd, bound);
        assert_eq!(leaf.len(), cap);
        assert!(steps.iter().all(|&s| s <= 4), "{steps:?}");
        assert_eq!(leaf.capacities(), [cap; 3]);
        leaf.check_invariants();
    }

    #[test]
    fn a_fat_leaf_keeps_doubling() {
        // A leaf that cannot split grows past the leaf capacity (§3.3):
        // from there each vector doubles, so 2, 4 and 8 times the capacity
        // take 1, 2 and 3 more steps.
        let cap = WormholeConfig::optimized().leaf_capacity;
        for times in [2usize, 4, 8] {
            let mut leaf = paper_leaf(0..cap as u64);
            let more = cap as u64..(times * cap) as u64;
            let steps = fill_counting_steps(&mut leaf, more, |len| 2 * len);
            assert_eq!(steps, [times.ilog2() as usize; 3], "{times} x");
            assert_eq!(leaf.capacities(), [times * cap; 3]);
        }
    }

    #[test]
    fn split_off_sizes_both_halves_for_their_items() {
        for n in [2u64, 9, 100, 128] {
            let mut leaf = paper_leaf(0..n);
            for at in [1, n as usize / 2, n as usize - 1] {
                let mut left = leaf.clone();
                left.ensure_key_sorted();
                let anchor = left.key_at(at).to_vec();
                let right = left.split_off(at, anchor.clone(), anchor, &mut Bin::immediate());
                for half in [&left, &right] {
                    assert_eq!(half.capacities(), [half.len(); 3], "{n} at {at}");
                }
            }
            // The clone above is exact; the leaf itself has grown slack.
            leaf.ensure_key_sorted();
            let anchor = leaf.key_at(1).to_vec();
            let right = leaf.split_off(1, anchor.clone(), anchor, &mut Bin::immediate());
            assert_eq!(leaf.capacities(), [1; 3]);
            assert_eq!(right.capacities(), [right.len(); 3]);
        }
    }

    /// One step of the random leaf histories below.
    #[derive(Debug, Clone)]
    enum LeafOp {
        Insert(Vec<u8>, u64),
        Remove(Vec<u8>),
        Split,
        Absorb,
    }

    /// A key above the alphabet of [`leaf_op`]. It goes into a leaf right
    /// before a removal and comes out right after it, so the removal meets
    /// a view that lags (with *SortByTag*) and the item in the last slot —
    /// the one the removal renames — sits in the unsorted tail.
    const LAG_KEY: &[u8] = &[9];

    fn leaf_op() -> impl Strategy<Value = LeafOp> {
        // A four-letter alphabet and short keys: overwrites and removals
        // of present keys both happen often.
        let key = proptest::collection::vec(0u8..4, 0..5);
        (0u8..9, key, any::<u64>()).prop_map(|(op, key, value)| match op {
            0..=4 => LeafOp::Insert(key, value),
            5 | 6 => LeafOp::Remove(key),
            7 => LeafOp::Split,
            _ => LeafOp::Absorb,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random insert / overwrite / remove / split / absorb histories
        /// over a leaf and its (optional) right sibling, against a
        /// `BTreeMap`: after every step both orderings of both leaves
        /// satisfy `check_invariants` (tag array sorted by (tag, key), every
        /// slot named once, every tag its key's own, the key-byte count
        /// exact), and at the end every lookup — plain and checked — the
        /// key bytes and the ordered contents agree with the model.
        #[test]
        fn orderings_survive_random_histories(
            ops in proptest::collection::vec(leaf_op(), 1..400),
            which in 0usize..3,
        ) {
            let config = leaf_configs()[which];
            let mut left: LeafNode<u64> = LeafNode::new(Vec::new(), Vec::new());
            let mut right: Option<LeafNode<u64>> = None;
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for op in ops {
                match op {
                    LeafOp::Insert(key, value) => {
                        let leaf = match &mut right {
                            Some(r) if key.as_slice() >= r.anchor() => r,
                            _ => &mut left,
                        };
                        prop_assert_eq!(
                            insert(leaf, &key, value, &config),
                            model.insert(key, value)
                        );
                    }
                    LeafOp::Remove(key) => {
                        let leaf = match &mut right {
                            Some(r) if key.as_slice() >= r.anchor() => r,
                            _ => &mut left,
                        };
                        prop_assert_eq!(insert(leaf, LAG_KEY, 0, &config), None);
                        prop_assert_eq!(leaf.key_view_lags(), config.sort_by_tag());
                        prop_assert_eq!(remove(leaf, &key, &config), model.remove(&key));
                        leaf.check_invariants();
                        prop_assert_eq!(remove(leaf, LAG_KEY, &config), Some(0));
                    }
                    LeafOp::Split => {
                        if right.is_none() && left.len() >= 2 {
                            left.ensure_key_sorted();
                            let at = left.len() / 2;
                            let anchor = left.key_at(at).to_vec();
                            right = Some(left.split_off(at, anchor.clone(), anchor, &mut Bin::immediate()));
                        }
                    }
                    LeafOp::Absorb => {
                        if let Some(r) = right.take() {
                            left.absorb(r, &mut Bin::immediate());
                        }
                    }
                }
                left.check_invariants();
                if let Some(r) = &right {
                    r.check_invariants();
                }
            }
            let key_bytes: usize = model.keys().map(Vec::len).sum();
            let total = left.len() + right.as_ref().map_or(0, LeafNode::len);
            prop_assert_eq!(total, model.len());
            prop_assert_eq!(
                left.key_bytes() + right.as_ref().map_or(0, LeafNode::key_bytes),
                key_bytes
            );
            for (key, value) in &model {
                let leaf = match &right {
                    Some(r) if key.as_slice() >= r.anchor() => r,
                    _ => &left,
                };
                let hash = crc32c(key);
                prop_assert_eq!(leaf.get(key, hash, &config), Some(value));
                prop_assert_eq!(leaf.get_checked(key, hash, &config), Ok(Some(value)));
            }
            let mut contents = ScanBatch::new();
            left.ensure_key_sorted();
            left.collect_leaf_checked(0, usize::MAX, &mut contents, usize::MAX).unwrap();
            if let Some(r) = &mut right {
                r.ensure_key_sorted();
                r.collect_leaf_checked(0, usize::MAX, &mut contents, usize::MAX).unwrap();
            }
            let contents: Vec<(&[u8], &u64)> = contents.iter().collect();
            let expect: Vec<(&[u8], &u64)> =
                model.iter().map(|(k, v)| (k.as_slice(), v)).collect();
            prop_assert_eq!(contents, expect);
        }
    }
}
