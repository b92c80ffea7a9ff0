//! The MetaTrieHT (§2.4): a hash table that encodes the meta-trie over leaf
//! anchors.
//!
//! Every anchor and every prefix of every anchor is an item in the table.
//! Leaf items point at a leaf node; internal items carry their child
//! tokens (one token, or a 256-bit bitmap from the second child on) and
//! pointers to the leftmost and rightmost leaves of the subtree they root.
//! Lookups never walk trie edges: each probed prefix is hashed and looked up
//! directly, and the longest prefix match is found with a binary search over
//! prefix lengths (Algorithm 1).
//!
//! # Bucket layout (§3.1, §3.4)
//!
//! The paper's table packs eight (tag, pointer) pairs into each 64-byte
//! cache line so a probe inspects one line of tags before dereferencing
//! anything. This table reproduces that layout:
//!
//! * the bucket array is **one flat allocation** of 64-byte, 64-byte-aligned
//!   `Bucket` records — no per-bucket heap allocation, no `Vec<Vec<_>>`
//!   indirection;
//! * each bucket holds **eight slots**: a `[u16; 8]` tag lane (16 bytes, the
//!   §3.1 *TagMatching* filter, compared eight-at-a-time with
//!   [`wh_hash::tag8_match_mask`]) and a `[u32; 8]` item-index lane, so a
//!   probe touches exactly one cache line until a tag matches;
//! * the rare bucket with more than eight residents chains into a small
//!   **overflow pool** (`overflow` holds an off-by-one index into it; the
//!   pool is rebuilt empty on every resize, so chains never accumulate);
//! * item records live in one side array indexed by the `u32` slot values;
//!   exact probes only touch a record after its 16-bit tag matched,
//!   optimistic probes not at all.
//!
//! `grow()` doubles the flat array and rehashes every slot directly from the
//! item records (each stores its full CRC), with no intermediate per-bucket
//! allocations.
//!
//! # Item records
//!
//! An item is one plain 64-byte, 64-byte-aligned record — one cache line —
//! in one array, which grows 1024 records at a time and never moves one;
//! whatever a lookup wants from an item (its prefix, for the verification;
//! its payload, for the trie step) arrives with that line:
//!
//! | bytes | field |
//! |---|---|
//! | 0..4 | CRC-32c of the prefix |
//! | 4..8 | prefix length |
//! | 8..40 | the prefix bytes inline, up to [`INLINE_PREFIX`] of them; a longer prefix spills into a boxed slice whose pointer and length sit at 8..24 — the only heap block an item can own |
//! | 40..64 | the payload: nothing (a vacant record on the free list), the leaf handle of an anchor, or an interior node's `leftmost` and `rightmost` handles and its children |
//!
//! The children of an interior node are **one token** in the record while
//! the node has one child — 96 % of the nodes over 1.2 M `Az1` keys — and an
//! index into a side array of 256-bit [`TokenBitmap`]s from its second child
//! on. A split that adds the second child promotes the node, a merge that
//! leaves one demotes it, and the slot goes to a free list, so churn does
//! not grow the side array. With handles of four bytes (the single-threaded
//! index) the payload is 16 bytes and the record keeps its 64.
//!
//! The table is generic over the leaf handle type `L` so the same code backs
//! both the single-threaded index (arena indices) and the concurrent index
//! (`Arc` leaf pointers).
//!
//! # Structural updates
//!
//! Splits and merges do not mutate the table directly: [`MetaTable::plan_split`]
//! and [`MetaTable::plan_merge`] compute a declarative [`MetaPlan`] (the
//! absolute item inserts/deletes of Algorithm 4) that
//! [`MetaTable::apply_plan`] executes — once for the single-threaded index,
//! and once per table (T2, then T1 after the grace period) for the
//! concurrent one. See [`meta_plan`].

use std::mem::ManuallyDrop;

use wh_hash::{crc32c, crc32c_append, mix64, tag16, tag8_match_mask};

use crate::config::WormholeConfig;
use crate::prefetch::prefetch_read;

/// A handle to a leaf node stored inside the MetaTrieHT.
pub trait LeafRef: Clone {
    /// Identity comparison (pointer/index equality, not content equality).
    fn same(&self, other: &Self) -> bool;
}

impl LeafRef for u32 {
    fn same(&self, other: &Self) -> bool {
        self == other
    }
}

/// A 256-bit bitmap recording which child tokens exist below an internal
/// trie node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenBitmap {
    words: [u64; 4],
}

impl TokenBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bit for `token`.
    pub fn set(&mut self, token: u8) {
        self.words[(token >> 6) as usize] |= 1u64 << (token & 63);
    }

    /// Clears the bit for `token`.
    pub fn clear(&mut self, token: u8) {
        self.words[(token >> 6) as usize] &= !(1u64 << (token & 63));
    }

    /// Tests the bit for `token`.
    pub fn test(&self, token: u8) -> bool {
        self.words[(token >> 6) as usize] & (1u64 << (token & 63)) != 0
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set token, when exactly one is.
    pub fn only(&self) -> Option<u8> {
        if self.count() != 1 {
            return None;
        }
        let word = self.words.iter().position(|&w| w != 0)?;
        Some((word as u32 * 64 + self.words[word].trailing_zeros()) as u8)
    }

    /// The largest set token strictly less than `token`, if any.
    pub fn prev_set(&self, token: u8) -> Option<u8> {
        let mut t = token as i32 - 1;
        // Scan the word containing `t`, then whole words below it.
        while t >= 0 {
            let word = (t >> 6) as usize;
            let bit = (t & 63) as u32;
            let masked = self.words[word] & ((1u64 << bit) | ((1u64 << bit) - 1));
            if masked != 0 {
                return Some(((word as u32) * 64 + 63 - masked.leading_zeros()) as u8);
            }
            t = (word as i32) * 64 - 1;
        }
        None
    }

    /// The smallest set token strictly greater than `token`, if any.
    pub fn next_set(&self, token: u8) -> Option<u8> {
        let mut t = token as u32 + 1;
        while t < 256 {
            let word = (t >> 6) as usize;
            let bit = t & 63;
            let masked = self.words[word] & !((1u64 << bit) - 1);
            if masked != 0 {
                return Some((word as u32 * 64 + masked.trailing_zeros()) as u8);
            }
            t = (word as u32 + 1) * 64;
        }
        None
    }

    /// The sibling used by the second search phase (Algorithm 3,
    /// `findOneSibling`): the nearest existing token below `missing`, or the
    /// nearest one above it when none exists below.
    pub fn find_one_sibling(&self, missing: u8) -> Option<u8> {
        self.prev_set(missing).or_else(|| self.next_set(missing))
    }
}

/// What an interior trie node carries, as the plans and the readers of
/// [`MetaTable::kind`] see it; the table keeps it packed in the item record
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct InternalNode<L> {
    /// Which child tokens exist.
    pub bitmap: TokenBitmap,
    /// Leftmost leaf of the subtree rooted here.
    pub leftmost: L,
    /// Rightmost leaf of the subtree rooted here.
    pub rightmost: L,
}

/// Payload of a MetaTrieHT item, in transit: what [`MetaTable::insert`]
/// takes, a [`MetaOp`] carries and [`MetaTable::kind`] returns.
#[derive(Debug, Clone)]
pub enum MetaKind<L> {
    /// The prefix is an anchor; the item points at its leaf node.
    Leaf(L),
    /// The prefix is an interior trie node.
    Internal(InternalNode<L>),
}

impl<L> MetaKind<L> {
    /// Builds an internal item payload.
    pub fn internal(bitmap: TokenBitmap, leftmost: L, rightmost: L) -> Self {
        MetaKind::Internal(InternalNode {
            bitmap,
            leftmost,
            rightmost,
        })
    }
}

/// Prefix bytes an item record holds inline; a longer prefix spills into a
/// boxed slice. Covers every anchor of the short-key keysets (Az1: 24).
pub const INLINE_PREFIX: usize = 32;

/// The bytes of a [`StoredPrefix`]: inline, or the boxed slice of a prefix
/// longer than [`INLINE_PREFIX`]. Which one is live is recorded beside it,
/// in `StoredPrefix::len`.
#[repr(C)]
union PrefixBytes {
    inline: [u8; INLINE_PREFIX],
    spilled: ManuallyDrop<Box<[u8]>>,
}

/// A prefix and its CRC: the first 40 bytes of an item record.
///
/// Invariant, kept by the three functions that touch `bytes`: the live
/// field is `inline` (all of it initialised) when `len <= INLINE_PREFIX`,
/// and `spilled`, a slice of exactly `len` bytes, otherwise.
#[repr(C)]
struct StoredPrefix {
    /// CRC-32c of the prefix.
    hash: u32,
    len: u32,
    bytes: PrefixBytes,
}

impl StoredPrefix {
    fn new(prefix: &[u8], hash: u32) -> Self {
        let len = u32::try_from(prefix.len()).expect("anchor longer than 4 GiB");
        let bytes = if prefix.len() <= INLINE_PREFIX {
            let mut inline = [0; INLINE_PREFIX];
            inline[..prefix.len()].copy_from_slice(prefix);
            PrefixBytes { inline }
        } else {
            PrefixBytes {
                spilled: ManuallyDrop::new(prefix.into()),
            }
        };
        Self { hash, len, bytes }
    }

    /// Bytes this prefix keeps on the heap.
    fn spilled_len(&self) -> usize {
        let len = self.len as usize;
        if len > INLINE_PREFIX {
            len
        } else {
            0
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        let len = self.len as usize;
        if len <= INLINE_PREFIX {
            // SAFETY: `len <= INLINE_PREFIX`, so `inline` is the live field
            // (the type's invariant) and every byte of it is initialised.
            unsafe { &self.bytes.inline[..len] }
        } else {
            // SAFETY: `len > INLINE_PREFIX`, so `spilled` is the live field.
            unsafe { &self.bytes.spilled }
        }
    }
}

impl Drop for StoredPrefix {
    fn drop(&mut self) {
        if self.len as usize > INLINE_PREFIX {
            // SAFETY: `len > INLINE_PREFIX`, so `spilled` is the live field;
            // it is dropped here only, and never read again.
            unsafe { ManuallyDrop::drop(&mut self.bytes.spilled) }
        }
    }
}

/// The children of an interior node, as its record holds them.
#[derive(Clone, Copy)]
enum Children {
    /// The node's only child.
    One(u8),
    /// Two or more: the slot of the node's bitmap in `MetaTable::bitmaps`.
    Many(u32),
}

/// The payload of an item record.
enum Node<L> {
    /// A record on the free list; no bucket slot names it.
    Vacant,
    /// The prefix is an anchor; the item points at its leaf node.
    Leaf(L),
    /// The prefix is an interior trie node.
    Internal {
        /// Leftmost leaf of the subtree rooted here.
        leftmost: L,
        /// Rightmost leaf of the subtree rooted here.
        rightmost: L,
        children: Children,
    },
}

/// One hash-table item: a prefix (or anchor) and its payload in one cache
/// line (the module docs have the byte offsets).
#[repr(C, align(64))]
pub(crate) struct MetaItem<L> {
    prefix: StoredPrefix,
    node: Node<L>,
}

impl<L> MetaItem<L> {
    const VACANT: Self = Self {
        prefix: StoredPrefix {
            hash: 0,
            len: 0,
            bytes: PrefixBytes {
                inline: [0; INLINE_PREFIX],
            },
        },
        node: Node::Vacant,
    };
}

// A record is a cache line whatever the handle; `concurrent.rs` asserts the
// same of its `Arc` handles.
const _: () = assert!(std::mem::size_of::<MetaItem<u32>>() == 64);
const _: () = assert!(std::mem::align_of::<MetaItem<u32>>() == 64);

/// Records per segment of a table's record array: 64 KiB of them.
const SEGMENT: usize = 1024;

/// The item records of a table, indexed by the `u32` values stored in
/// bucket slots: an array that grows a segment at a time, so a record is
/// written once and never moves. (A `Vec` of these over-aligned records
/// cannot grow in place — the system allocator has no aligned `realloc` —
/// and each doubling left its old half behind in the heap: 11 of the 58
/// bytes per key of `index-get`'s resident set, and a 2 MB copy under the
/// writer mutex.)
struct Records<L> {
    segments: Vec<Box<[MetaItem<L>]>>,
    /// Records handed out so far, vacant ones included.
    len: usize,
}

impl<L> Records<L> {
    /// Appends `item` and returns its index.
    fn push(&mut self, item: MetaItem<L>) -> u32 {
        if self.len == self.segments.len() * SEGMENT {
            let vacant = (0..SEGMENT).map(|_| MetaItem::VACANT);
            self.segments.push(vacant.collect());
        }
        let idx = u32::try_from(self.len).expect("fewer than 2^32 items");
        self.len += 1;
        self[idx] = item;
        idx
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        self.segments.capacity() * std::mem::size_of::<Box<[MetaItem<L>]>>()
            + self.segments.len() * SEGMENT * std::mem::size_of::<MetaItem<L>>()
    }
}

impl<L> std::ops::Index<u32> for Records<L> {
    type Output = MetaItem<L>;
    #[inline]
    fn index(&self, idx: u32) -> &MetaItem<L> {
        &self.segments[idx as usize / SEGMENT][idx as usize % SEGMENT]
    }
}

impl<L> std::ops::IndexMut<u32> for Records<L> {
    #[inline]
    fn index_mut(&mut self, idx: u32) -> &mut MetaItem<L> {
        &mut self.segments[idx as usize / SEGMENT][idx as usize % SEGMENT]
    }
}

/// Number of slots per bucket: eight (tag16, item-index) pairs fill one
/// 64-byte cache line, the paper's layout.
const BUCKET_SLOTS: usize = 8;

/// One cache line of the hash table: eight 16-bit tags, eight `u32` item
/// indices, the live-slot count, and an optional overflow link.
///
/// `repr(C, align(64))` pins the record to exactly one 64-byte cache line
/// (tags 16 B + items 32 B + len/link 8 B + padding), so a probe's tag scan
/// is a single line fill.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// 16-bit tags of the live slots (`0..len`); compared in one SWAR pass.
    tags: [u16; BUCKET_SLOTS],
    /// Item indices paired with `tags`.
    items: [u32; BUCKET_SLOTS],
    /// Number of live slots (`0..=BUCKET_SLOTS`); live slots are packed at
    /// the front.
    len: u8,
    /// Off-by-one index of the next bucket in the overflow pool (0 = none).
    overflow: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        tags: [0; BUCKET_SLOTS],
        items: [0; BUCKET_SLOTS],
        len: 0,
        overflow: 0,
    };

    /// Bitmask of live slots.
    #[inline]
    fn live_mask(&self) -> u8 {
        ((1u32 << self.len) - 1) as u8
    }

    /// Bitmask of live slots whose tag equals `tag`: one SWAR pass over the
    /// bucket's whole tag lane, masked down to the live slots. The lowest
    /// set bit is always an exact match (see [`tag8_match_mask`]).
    #[inline]
    fn tag_matches(&self, tag: u16) -> u8 {
        tag8_match_mask(&self.tags, tag) & self.live_mask()
    }
}

// The whole point of the layout: one bucket, one cache line.
const _: () = assert!(std::mem::size_of::<Bucket>() == 64);
const _: () = assert!(std::mem::align_of::<Bucket>() == 64);

/// Position of a bucket: in the flat main array or in the overflow pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketLoc {
    /// Index into the main bucket array.
    Main(usize),
    /// Index into the overflow pool.
    Over(usize),
}

/// Grow when the table is more than ~3/4 full (6 of 8 slots per bucket on
/// average). The two slots left free on average keep most buckets out of
/// the overflow pool, whose chained bucket costs a probe a second cache
/// line; fuller buckets would chain more often, emptier ones spend more
/// lines per item.
const GROW_NUM: usize = BUCKET_SLOTS - 2;

/// Number of lookups kept in flight by the batched search pipeline
/// ([`MetaTable::search_targets_window`]). Large enough that every probe's
/// bucket-line fill overlaps several others', small enough that the
/// prefetched lines are not evicted before their probe executes and that the
/// per-window scratch stays a few hundred stack bytes.
pub const BATCH_WINDOW: usize = 16;

/// Sentinel item index: "no such item" ([`MetaTable::root_item`] before the
/// root is installed).
const NO_ITEM: u32 = u32::MAX;

/// State of one LPM binary search over prefix lengths (Algorithm 1) — the
/// only LPM state machine: a single `get` runs a window of one of these, a
/// `get_batch` a window of [`BATCH_WINDOW`]. Deliberately plain data (no
/// borrows) so a whole window lives in one stack array and lookups stay
/// allocation-free.
///
/// The committed CRC state sits at `lo`, the longest prefix known to exist,
/// and moves only on a hit (the paper's *IncHashing*): a probe at `mid`
/// hashes just `key[lo..mid]`, and because a miss only lowers `hi`, every
/// later probe still starts from `lo` — each key byte is hashed at most
/// once per search.
#[derive(Clone, Copy)]
struct LpmProbe {
    /// Length of the longest prefix known to exist; the match so far.
    lo: usize,
    /// Shortest prefix length known *not* to exist (exclusive bound).
    hi: usize,
    /// The item found at `lo` (the root item while `lo == 0`).
    lo_item: u32,
    /// CRC-32c of `key[..lo]`.
    lo_hash: u32,
    /// The prefix length probed next; its bucket is what gets prefetched.
    mid: usize,
    /// CRC-32c of `key[..mid]`.
    hash: u32,
}

impl LpmProbe {
    const IDLE: LpmProbe = LpmProbe {
        lo: 0,
        hi: 0,
        lo_item: NO_ITEM,
        lo_hash: 0,
        mid: 0,
        hash: 0,
    };

    /// Chooses and hashes the next prefix length to probe. Returns `false`
    /// when the search is over (`lo` is the longest existing prefix). With
    /// `inc_hashing` off the prefix is hashed from byte 0 — the ablation
    /// baseline of Figure 11.
    #[inline]
    fn advance(&mut self, key: &[u8], inc_hashing: bool) -> bool {
        if self.lo + 1 >= self.hi {
            return false;
        }
        self.mid = (self.lo + self.hi) / 2;
        self.hash = if inc_hashing {
            crc32c_append(self.lo_hash, &key[self.lo..self.mid])
        } else {
            crc32c(&key[..self.mid])
        };
        true
    }

    /// One step of the state machine: executes the pending probe at `mid`
    /// against `table`, commits the outcome, and advances to the next
    /// prefix length. Returns whether another step is pending.
    #[inline]
    fn step<L: LeafRef>(
        &mut self,
        table: &MetaTable<L>,
        key: &[u8],
        optimistic: bool,
        inc_hashing: bool,
    ) -> bool {
        match table.probe(&key[..self.mid], self.hash, optimistic) {
            Some(item) => {
                self.lo = self.mid;
                self.lo_item = item;
                self.lo_hash = self.hash;
            }
            None => self.hi = self.mid,
        }
        self.advance(key, inc_hashing)
    }
}

/// A queued sibling/child step of the trie search: everything needed to
/// finish Algorithm 3 for one key once its child bucket's prefetch lands.
#[derive(Clone, Copy)]
struct PendingChild {
    /// CRC-32c of the child's key: the matched prefix plus `sibling`.
    hash: u32,
    /// Length of the matched prefix.
    match_len: usize,
    /// The sibling token chosen by `findOneSibling`.
    sibling: u8,
    /// Whether the sibling is above the missing token (`LeftOf` outcomes).
    above: bool,
}

/// Outcome of the trie search (Algorithm 3) before leaf-list adjustment.
/// The searches return it over `&L`, borrowed from the table: a reader
/// that only looks through the handle never touches its reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetOutcome<L> {
    /// The returned leaf is the target node.
    Target(L),
    /// The target node is the left neighbour of the returned leaf.
    LeftOf(L),
    /// The returned leaf is the target unless `key < leaf.anchor`, in which
    /// case the target is its left neighbour (Algorithm 3, lines 4–7).
    CompareAnchor(L),
}

pub mod meta_plan {
    //! Declarative meta-update plans (Algorithm 4, factored out).
    //!
    //! A split or merge changes the MetaTrieHT by inserting, replacing, and
    //! deleting whole items. Instead of mutating a table in place, the plan
    //! builders ([`MetaTable::plan_split`] / [`MetaTable::plan_merge`]) read
    //! the *current* table and emit the absolute item writes as a
    //! [`MetaPlan`]. Because the concurrent index keeps its two tables (T1
    //! and T2) as exact logical copies of each other, the same plan can be
    //! applied verbatim to both — first to the spare table, then (after the
    //! RCU grace period) to the retired one — while the single-threaded
    //! index applies it once. This is what lets the split/merge bookkeeping
    //! live in exactly one place.
    //!
    //! [`MetaTable::plan_split`]: super::MetaTable::plan_split
    //! [`MetaTable::plan_merge`]: super::MetaTable::plan_merge

    use super::{LeafRef, MetaKind, MetaTable};

    /// One absolute write against a MetaTrieHT.
    #[derive(Debug, Clone)]
    pub enum MetaOp<L> {
        /// Insert `key` with `kind`, replacing any existing item.
        Put {
            /// The item key (a prefix or anchor table key).
            key: Vec<u8>,
            /// The payload the item must end up with.
            kind: MetaKind<L>,
        },
        /// Remove the item stored under `key`.
        Del {
            /// The item key to remove.
            key: Vec<u8>,
        },
    }

    /// The complete set of MetaTrieHT writes for one split or merge, plus
    /// the anchor relocations the leaf layer must mirror.
    #[derive(Debug, Clone, Default)]
    pub struct MetaPlan<L> {
        /// Item writes, to be applied in order.
        pub ops: Vec<MetaOp<L>>,
        /// Existing anchors that moved to a new table key (`prefix ⧺ ⊥`);
        /// the caller updates each leaf's own `table_key` record.
        pub relocations: Vec<(L, Vec<u8>)>,
    }

    /// Builds a plan against a read-only table: pending writes are kept in a
    /// local overlay consulted before the underlying table, so the builder
    /// observes its own earlier writes exactly like in-place mutation would.
    pub(super) struct PlanBuilder<'t, L> {
        table: &'t MetaTable<L>,
        overlay: Vec<(Vec<u8>, Option<MetaKind<L>>)>,
        plan: MetaPlan<L>,
    }

    impl<'t, L: LeafRef> PlanBuilder<'t, L> {
        pub(super) fn new(table: &'t MetaTable<L>) -> Self {
            Self {
                table,
                overlay: Vec::new(),
                plan: MetaPlan {
                    ops: Vec::new(),
                    relocations: Vec::new(),
                },
            }
        }

        /// The kind currently stored under `key`, as the plan-so-far would
        /// leave it (overlay first, then the underlying table).
        pub(super) fn current(&self, key: &[u8]) -> Option<MetaKind<L>> {
            if let Some((_, kind)) = self.overlay.iter().find(|(k, _)| k.as_slice() == key) {
                return kind.clone();
            }
            self.table.kind(key)
        }

        pub(super) fn put(&mut self, key: Vec<u8>, kind: MetaKind<L>) {
            self.set_overlay(&key, Some(kind.clone()));
            self.plan.ops.push(MetaOp::Put { key, kind });
        }

        pub(super) fn del(&mut self, key: Vec<u8>) {
            self.set_overlay(&key, None);
            self.plan.ops.push(MetaOp::Del { key });
        }

        pub(super) fn relocate(&mut self, leaf: L, new_key: Vec<u8>) {
            self.plan.relocations.push((leaf, new_key));
        }

        pub(super) fn finish(self) -> MetaPlan<L> {
            self.plan
        }

        fn set_overlay(&mut self, key: &[u8], kind: Option<MetaKind<L>>) {
            match self.overlay.iter_mut().find(|(k, _)| k.as_slice() == key) {
                Some((_, slot)) => *slot = kind,
                None => self.overlay.push((key.to_vec(), kind)),
            }
        }
    }
}

pub use meta_plan::{MetaOp, MetaPlan};

/// The size of a table in the four numbers the `wormhole_meta_*` gauges
/// report ([`MetaTable::shape`]; each an O(1) read).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaShape {
    /// [`MetaTable::len`].
    pub items: usize,
    /// [`MetaTable::bitmaps`].
    pub bitmaps: usize,
    /// [`MetaTable::overflow_buckets`].
    pub overflow_buckets: usize,
    /// [`MetaTable::structure_bytes`].
    pub bytes: usize,
}

/// The MetaTrieHT hash table (cache-line-bucketized; see the module docs
/// for the layout).
pub struct MetaTable<L> {
    /// The flat bucket array — one contiguous allocation of 64-byte records,
    /// always a power-of-two length.
    buckets: Box<[Bucket]>,
    /// Overflow buckets for the rare >8-collision bucket, chained through
    /// `Bucket::overflow` links; cleared on every resize.
    overflow: Vec<Bucket>,
    /// Item records, indexed by the `u32` values stored in bucket slots.
    items: Records<L>,
    /// The vacant records of `items`.
    free: Vec<u32>,
    /// Child bitmaps of the interior nodes with two or more children,
    /// indexed by their `Children::Many` slots.
    bitmaps: Vec<TokenBitmap>,
    /// The unused slots of `bitmaps`.
    bitmap_free: Vec<u32>,
    /// Heap bytes of the prefixes too long for their records.
    spilled_bytes: usize,
    len: usize,
    /// Length of the longest anchor table key ever inserted (the paper's
    /// `Lanc`, used to bound the binary search).
    max_anchor_len: usize,
    /// Index of the item stored under the empty key (the trie root, where
    /// every LPM search starts), so no lookup has to probe for it.
    root_item: u32,
}

impl<L: LeafRef> Default for MetaTable<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: LeafRef> MetaTable<L> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::with_bucket_count(64)
    }

    /// Creates an empty table of `buckets` buckets (a power of two); tests
    /// pass a tiny count to force bucket-overflow chains deterministically.
    fn with_bucket_count(buckets: usize) -> Self {
        assert!(buckets.is_power_of_two());
        Self {
            buckets: vec![Bucket::EMPTY; buckets].into_boxed_slice(),
            overflow: Vec::new(),
            items: Records {
                segments: Vec::new(),
                len: 0,
            },
            free: Vec::new(),
            bitmaps: Vec::new(),
            bitmap_free: Vec::new(),
            spilled_bytes: 0,
            len: 0,
            max_anchor_len: 0,
            root_item: NO_ITEM,
        }
    }

    /// Number of items (anchors plus internal prefixes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the table holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The longest anchor table key seen so far (`Lanc`).
    pub fn max_anchor_len(&self) -> usize {
        self.max_anchor_len
    }

    /// Interior nodes with two or more children: the live slots of the
    /// bitmap side array.
    pub fn bitmaps(&self) -> usize {
        self.bitmaps.len() - self.bitmap_free.len()
    }

    /// Overflow buckets chained behind full main-array buckets since the
    /// last resize.
    pub fn overflow_buckets(&self) -> usize {
        self.overflow.len()
    }

    /// Heap bytes the table holds: the bucket array, the segments of item
    /// records, the capacity of the overflow pool, of the bitmaps and of the
    /// two free lists, and the prefixes that spilled out of their records.
    pub fn structure_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.buckets.len() + self.overflow.capacity()) * size_of::<Bucket>()
            + self.items.bytes()
            + self.bitmaps.capacity() * size_of::<TokenBitmap>()
            + (self.free.capacity() + self.bitmap_free.capacity()) * size_of::<u32>()
            + self.spilled_bytes
    }

    /// The table's size as the gauges report it.
    pub fn shape(&self) -> MetaShape {
        MetaShape {
            items: self.len,
            bitmaps: self.bitmaps(),
            overflow_buckets: self.overflow_buckets(),
            bytes: self.structure_bytes(),
        }
    }

    fn bucket_of(&self, hash: u32) -> usize {
        (mix64(hash as u64) as usize) & (self.buckets.len() - 1)
    }

    #[inline]
    fn bucket(&self, loc: BucketLoc) -> &Bucket {
        match loc {
            BucketLoc::Main(i) => &self.buckets[i],
            BucketLoc::Over(i) => &self.overflow[i],
        }
    }

    #[inline]
    fn bucket_mut(&mut self, loc: BucketLoc) -> &mut Bucket {
        match loc {
            BucketLoc::Main(i) => &mut self.buckets[i],
            BucketLoc::Over(i) => &mut self.overflow[i],
        }
    }

    /// Iterates the bucket chain for `hash`: the main-array bucket first,
    /// then any overflow buckets linked behind it. Every read-side walk
    /// (exact find, optimistic probe, child lookup, slot location) goes
    /// through this single definition of the chain protocol.
    #[inline]
    fn chain(&self, hash: u32) -> impl Iterator<Item = (BucketLoc, &Bucket)> {
        let mut next = Some(BucketLoc::Main(self.bucket_of(hash)));
        std::iter::from_fn(move || {
            let loc = next?;
            let bucket = self.bucket(loc);
            next = (bucket.overflow != 0).then(|| BucketLoc::Over((bucket.overflow - 1) as usize));
            Some((loc, bucket))
        })
    }

    /// Finds the item index for `key` (exact, always verified): a tag scan
    /// over each cache-line bucket, dereferencing an item record only after
    /// its 16-bit tag matched.
    fn find(&self, key: &[u8], hash: u32) -> Option<u32> {
        let tag = tag16(hash);
        for (_, bucket) in self.chain(hash) {
            let mut mask = bucket.tag_matches(tag);
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let idx = bucket.items[slot];
                if self.items[idx].prefix.as_slice() == key {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Probes for a prefix during the LPM binary search. With `optimistic`
    /// set (the *TagMatching* optimisation) the first tag match is trusted
    /// without comparing the stored prefix bytes — the probe never leaves
    /// the bucket cache line(s).
    fn probe(&self, key: &[u8], hash: u32, optimistic: bool) -> Option<u32> {
        if optimistic {
            let tag = tag16(hash);
            self.chain(hash).find_map(|(_, bucket)| {
                let mask = bucket.tag_matches(tag);
                // The lowest set bit is always an exact tag match (see
                // `tag8_match_mask`).
                (mask != 0).then(|| bucket.items[mask.trailing_zeros() as usize])
            })
        } else {
            self.find(key, hash)
        }
    }

    /// Finds the item whose key is `prefix` extended by `token`, given that
    /// key's CRC. Used by the trie search's sibling step (Algorithm 3) so
    /// that no concatenated key needs to be materialised.
    fn find_child(&self, prefix: &[u8], token: u8, hash: u32) -> Option<&MetaItem<L>> {
        let tag = tag16(hash);
        for (_, bucket) in self.chain(hash) {
            let mut mask = bucket.tag_matches(tag);
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let item = &self.items[bucket.items[slot]];
                if item.prefix.as_slice().split_last() == Some((&token, prefix)) {
                    return Some(item);
                }
            }
        }
        None
    }

    /// Locates the bucket and slot currently holding item `target` (which
    /// must be live under `hash`).
    fn locate_slot(&self, hash: u32, target: u32) -> Option<(BucketLoc, usize)> {
        self.chain(hash).find_map(|(loc, bucket)| {
            (0..bucket.len as usize)
                .find(|&slot| bucket.items[slot] == target)
                .map(|slot| (loc, slot))
        })
    }

    /// Appends a (tag, item) slot to the bucket chain for `hash`, extending
    /// the chain with a pool bucket when every slot is full.
    fn insert_slot(&mut self, hash: u32, item: u32) {
        let tag = tag16(hash);
        let mut loc = BucketLoc::Main(self.bucket_of(hash));
        loop {
            let bucket = self.bucket_mut(loc);
            if (bucket.len as usize) < BUCKET_SLOTS {
                let slot = bucket.len as usize;
                bucket.tags[slot] = tag;
                bucket.items[slot] = item;
                bucket.len += 1;
                return;
            }
            if bucket.overflow != 0 {
                loc = BucketLoc::Over((bucket.overflow - 1) as usize);
                continue;
            }
            // Chain a fresh overflow bucket holding the new slot.
            let mut fresh = Bucket::EMPTY;
            fresh.tags[0] = tag;
            fresh.items[0] = item;
            fresh.len = 1;
            let link = self.overflow.len() as u32 + 1;
            self.overflow.push(fresh);
            self.bucket_mut(loc).overflow = link;
            return;
        }
    }

    /// Removes the slot holding `target` by swapping the chain's last live
    /// slot into the hole, so live slots stay packed at the front of every
    /// bucket.
    fn remove_slot(&mut self, hash: u32, target: u32) {
        let (loc, slot) = self
            .locate_slot(hash, target)
            .expect("slot present for removal");
        // The chain's last live bucket supplies the replacement slot (bucket
        // fullness is monotone along the chain, so the last live bucket is
        // unambiguous and at least `loc` itself qualifies).
        let last_loc = self
            .chain(hash)
            .filter(|(_, bucket)| bucket.len > 0)
            .last()
            .map(|(loc, _)| loc)
            .expect("chain holds at least the located bucket");
        // Swap the chain's final live slot into the hole (may be the hole
        // itself) and shrink the final bucket. Empty overflow buckets stay
        // linked; they are reclaimed wholesale on the next resize.
        let last = self.bucket_mut(last_loc);
        let last_slot = last.len as usize - 1;
        let (moved_tag, moved_item) = (last.tags[last_slot], last.items[last_slot]);
        last.len -= 1;
        if last_loc != loc || last_slot != slot {
            let bucket = self.bucket_mut(loc);
            bucket.tags[slot] = moved_tag;
            bucket.items[slot] = moved_item;
        }
    }

    /// The payload stored under `key`, if any (handles cloned, the
    /// children as a bitmap whichever way the record holds them).
    pub fn kind(&self, key: &[u8]) -> Option<MetaKind<L>> {
        let idx = self.find(key, crc32c(key))?;
        Some(match &self.items[idx].node {
            Node::Leaf(leaf) => MetaKind::Leaf(leaf.clone()),
            Node::Internal {
                leftmost,
                rightmost,
                children,
            } => {
                let bitmap = match *children {
                    Children::One(token) => {
                        let mut only = TokenBitmap::new();
                        only.set(token);
                        only
                    }
                    Children::Many(slot) => self.bitmaps[slot as usize],
                };
                MetaKind::internal(bitmap, leftmost.clone(), rightmost.clone())
            }
            Node::Vacant => unreachable!("a bucket slot names a vacant record"),
        })
    }

    /// Returns `true` when `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.find(key, crc32c(key)).is_some()
    }

    /// Packs `kind` into a record payload. `old` is the children of the
    /// record being overwritten, if it was an interior node: a node that
    /// keeps two or more children keeps its bitmap slot, one that is back
    /// to a single child gives it up, and a node's second child takes one
    /// (off the free list first).
    fn pack(&mut self, kind: MetaKind<L>, old: Option<Children>) -> Node<L> {
        let held = match old {
            Some(Children::Many(slot)) => Some(slot),
            _ => None,
        };
        let node = match kind {
            MetaKind::Leaf(leaf) => {
                self.bitmap_free.extend(held);
                return Node::Leaf(leaf);
            }
            MetaKind::Internal(node) => node,
        };
        let children = match node.bitmap.only() {
            Some(token) => {
                self.bitmap_free.extend(held);
                Children::One(token)
            }
            None => {
                let slot = held.or_else(|| self.bitmap_free.pop()).unwrap_or_else(|| {
                    self.bitmaps.push(TokenBitmap::new());
                    (self.bitmaps.len() - 1) as u32
                });
                self.bitmaps[slot as usize] = node.bitmap;
                Children::Many(slot)
            }
        };
        Node::Internal {
            leftmost: node.leftmost,
            rightmost: node.rightmost,
            children,
        }
    }

    /// Inserts `kind` under `key`; `true` when it replaced an item.
    pub fn insert(&mut self, key: &[u8], kind: MetaKind<L>) -> bool {
        let hash = crc32c(key);
        if let Some(idx) = self.find(key, hash) {
            let old = match self.items[idx].node {
                Node::Internal { children, .. } => Some(children),
                _ => None,
            };
            self.items[idx].node = self.pack(kind, old);
            return true;
        }
        if self.len + 1 > self.buckets.len() * GROW_NUM {
            self.grow();
        }
        if matches!(kind, MetaKind::Leaf(_)) {
            self.max_anchor_len = self.max_anchor_len.max(key.len());
        }
        let item = MetaItem {
            prefix: StoredPrefix::new(key, hash),
            node: self.pack(kind, None),
        };
        self.spilled_bytes += item.prefix.spilled_len();
        let idx = match self.free.pop() {
            Some(idx) => {
                self.items[idx] = item;
                idx
            }
            None => self.items.push(item),
        };
        self.insert_slot(hash, idx);
        self.len += 1;
        if key.is_empty() {
            self.root_item = idx;
        }
        false
    }

    /// Removes the item stored under `key`; `false` when there was none.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let hash = crc32c(key);
        let Some(idx) = self.find(key, hash) else {
            return false;
        };
        self.remove_slot(hash, idx);
        self.len -= 1;
        self.free.push(idx);
        if key.is_empty() {
            self.root_item = NO_ITEM;
        }
        let item = std::mem::replace(&mut self.items[idx], MetaItem::VACANT);
        self.spilled_bytes -= item.prefix.spilled_len();
        if let Node::Internal {
            children: Children::Many(slot),
            ..
        } = item.node
        {
            self.bitmap_free.push(slot);
        }
        true
    }

    /// Doubles the flat bucket array, rehashing every slot straight from the
    /// item records (each stores its full CRC). The overflow pool is rebuilt
    /// from scratch — under the doubled bucket count almost no chain
    /// survives — and no per-bucket allocation happens at any point.
    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        self.buckets = vec![Bucket::EMPTY; new_size].into_boxed_slice();
        self.overflow.clear();
        for idx in 0..self.items.len as u32 {
            let item = &self.items[idx];
            if !matches!(item.node, Node::Vacant) {
                self.insert_slot(item.prefix.hash, idx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Search (Algorithms 1 and 3): one pipeline, run with a window of one
    // key by `search_target` and of `BATCH_WINDOW` keys by
    // `search_targets_window`.
    // ------------------------------------------------------------------

    /// Prefetches the main-array bucket for `hash` — the first cache line a
    /// probe for that hash will touch. Overflow chains (rare by
    /// construction) are not prefetched.
    #[inline]
    fn prefetch_bucket(&self, hash: u32) {
        prefetch_read(&self.buckets[self.bucket_of(hash)] as *const Bucket);
    }

    /// Binary search on prefix lengths for the longest prefix of each key
    /// that exists in the table (Algorithm 1), over a window of keys. Every
    /// in-flight search's next bucket is prefetched before any probe
    /// executes, and the steps are round-robined across the keys so each
    /// probe's cache miss overlaps the others'. On return `probes[i].lo` is
    /// the match length of `keys[i]` and `probes[i].lo_item` the matched
    /// item.
    #[inline]
    fn search_lpm_window(
        &self,
        keys: &[&[u8]],
        optimistic: bool,
        inc_hashing: bool,
        probes: &mut [LpmProbe],
    ) {
        debug_assert!(keys.len() <= probes.len());
        let mut live = 0usize;
        for (key, p) in keys.iter().zip(probes.iter_mut()) {
            *p = LpmProbe {
                hi: key.len().min(self.max_anchor_len) + 1,
                lo_item: self.root_item,
                ..LpmProbe::IDLE
            };
            if p.advance(key, inc_hashing) {
                self.prefetch_bucket(p.hash);
                live += 1;
            }
        }
        // Round-robin rounds: execute each search's already-prefetched
        // step, then immediately prefetch its next one. While search i's
        // line is filling, searches i+1.. execute theirs. A finished search
        // is recognisable by its closed interval.
        while live > 0 {
            for (key, p) in keys.iter().zip(probes.iter_mut()) {
                if p.lo + 1 >= p.hi {
                    continue;
                }
                if p.step(self, key, optimistic, inc_hashing) {
                    self.prefetch_bucket(p.hash);
                } else {
                    live -= 1;
                }
            }
        }
        if !optimistic {
            return;
        }
        for (key, p) in keys.iter().zip(probes.iter_mut()) {
            // Verify the final match; a tag false-positive may have misled
            // the optimistic search — redo it with full prefix comparisons
            // (§3.1). The root needs no check: it matches every key.
            if p.lo > 0 && self.items[p.lo_item].prefix.as_slice() != &key[..p.lo] {
                self.search_lpm_window(
                    std::slice::from_ref(key),
                    false,
                    inc_hashing,
                    std::slice::from_mut(p),
                );
            }
        }
    }

    /// `findOneSibling` (Algorithm 3) over a record's children: the nearest
    /// existing token below `missing`, or the nearest one above it when none
    /// exists below. An only child answers for itself, without a bitmap.
    #[inline]
    fn find_one_sibling(&self, children: Children, missing: u8) -> Option<u8> {
        match children {
            Children::One(token) => (token != missing).then_some(token),
            Children::Many(slot) => self.bitmaps[slot as usize].find_one_sibling(missing),
        }
    }

    /// The trie step after the LPM (Algorithm 3): either the outcome is
    /// already decided by the matched item, or one child probe is still
    /// needed — returned as a [`PendingChild`] with its bucket prefetched.
    #[inline]
    fn trie_step(&self, key: &[u8], lpm: &LpmProbe) -> Result<TargetOutcome<&L>, PendingChild> {
        let match_len = lpm.lo;
        let item = &self.items[lpm.lo_item];
        match &item.node {
            Node::Leaf(leaf) => Ok(TargetOutcome::Target(leaf)),
            Node::Internal {
                leftmost,
                rightmost,
                children,
            } => {
                if match_len == key.len() {
                    // The whole key is an interior prefix: the target is the
                    // subtree's leftmost leaf or its left neighbour.
                    return Ok(TargetOutcome::CompareAnchor(leftmost));
                }
                let missing = key[match_len];
                let Some(sibling) = self.find_one_sibling(*children, missing) else {
                    // An internal node always has a child other than the one
                    // the LPM did not find; treat corrupted children as "use
                    // the subtree bounds".
                    debug_assert!(false, "internal node without a sibling");
                    return Ok(TargetOutcome::Target(rightmost));
                };
                // The child's key is the matched prefix plus one token; its
                // hash extends the matched item's stored CRC, so the probe
                // needs no materialised key (the lookup hot path stays
                // allocation-free).
                let hash = crc32c_append(item.prefix.hash, &[sibling]);
                self.prefetch_bucket(hash);
                Err(PendingChild {
                    hash,
                    match_len,
                    sibling,
                    above: sibling > missing,
                })
            }
            Node::Vacant => unreachable!("the LPM matched a vacant record"),
        }
    }

    /// Finishes a [`PendingChild`]: probes the sibling child and turns it
    /// into the outcome.
    #[inline]
    fn child_step(&self, key: &[u8], p: PendingChild) -> TargetOutcome<&L> {
        let child = self
            .find_child(&key[..p.match_len], p.sibling, p.hash)
            .expect("a node's child token without the child's item");
        match (&child.node, p.above) {
            (Node::Leaf(leaf), true) => TargetOutcome::LeftOf(leaf),
            (Node::Leaf(leaf), false) => TargetOutcome::Target(leaf),
            (Node::Internal { leftmost, .. }, true) => TargetOutcome::LeftOf(leftmost),
            (Node::Internal { rightmost, .. }, false) => TargetOutcome::Target(rightmost),
            (Node::Vacant, _) => unreachable!("a bucket slot names a vacant record"),
        }
    }

    /// The search pipeline over at most `N` keys: the windowed LPM pass,
    /// then the sibling/child steps, whose bucket lines are all prefetched
    /// before any child probe executes. `N` sizes the stack scratch, so the
    /// window of one behind [`MetaTable::search_target`] carries none of
    /// the batch's.
    #[inline]
    fn search_window<'t, const N: usize>(
        &'t self,
        keys: &[&[u8]],
        config: &WormholeConfig,
        out: &mut [Option<TargetOutcome<&'t L>>],
    ) {
        assert!(keys.len() <= N, "window exceeds its scratch");
        assert!(out.len() >= keys.len(), "output window too small");
        let mut probes = [LpmProbe::IDLE; N];
        self.search_lpm_window(
            keys,
            config.tag_matching(),
            config.inc_hashing(),
            &mut probes,
        );
        let mut pending: [Option<PendingChild>; N] = [None; N];
        for (i, key) in keys.iter().enumerate() {
            match self.trie_step(key, &probes[i]) {
                Ok(outcome) => out[i] = Some(outcome),
                Err(child) => pending[i] = Some(child),
            }
        }
        for (i, key) in keys.iter().enumerate() {
            if let Some(child) = pending[i] {
                out[i] = Some(self.child_step(key, child));
            }
        }
    }

    /// Full trie search (Algorithm 3, `searchTrieHT`): returns the target
    /// leaf, up to the final leaf-list adjustment which requires the caller's
    /// leaf links. The handle is borrowed from the table.
    pub fn search_target(&self, key: &[u8], config: &WormholeConfig) -> TargetOutcome<&L> {
        let mut out = [None];
        self.search_window::<1>(&[key], config, &mut out);
        out[0].expect("window filled")
    }

    /// Batched trie search: [`MetaTable::search_target`] for up to
    /// [`BATCH_WINDOW`] keys with every level's cache misses overlapped.
    /// Produces exactly the per-key outcomes, written to
    /// `out[..keys.len()]`.
    pub fn search_targets_window<'t>(
        &'t self,
        keys: &[&[u8]],
        config: &WormholeConfig,
        out: &mut [Option<TargetOutcome<&'t L>>],
    ) {
        self.search_window::<BATCH_WINDOW>(keys, config, out);
    }

    // ------------------------------------------------------------------
    // Structural updates (Algorithm 4).
    // ------------------------------------------------------------------

    /// Chooses the table key for a new anchor: appends ⊥ (zero) tokens while
    /// the candidate collides with an existing prefix, so the new anchor is
    /// not a prefix of any existing anchor (§2.2's prefix condition).
    pub fn reserve_anchor_key(&self, anchor: &[u8]) -> Vec<u8> {
        let mut key = anchor.to_vec();
        while self.contains(&key) {
            key.push(0);
        }
        key
    }

    /// Computes the meta-update plan registering a freshly split-off leaf
    /// under `table_key` (split half of Algorithm 4). The table is not
    /// modified; apply the returned plan with [`MetaTable::apply_plan`].
    ///
    /// * `new_leaf` — the new right sibling created by the split;
    /// * `split_leaf` — the leaf that was split (left half, keeps its anchor);
    /// * `old_right` — the leaf that was to the right of `split_leaf` before
    ///   the split (now to the right of `new_leaf`), if any.
    ///
    /// The plan's `relocations` list the existing anchors that moved to a new
    /// table key so the caller can update the leaves' own records.
    pub fn plan_split(
        &self,
        table_key: &[u8],
        new_leaf: L,
        split_leaf: &L,
        old_right: Option<&L>,
    ) -> MetaPlan<L> {
        let mut plan = meta_plan::PlanBuilder::new(self);
        debug_assert!(
            plan.current(table_key).is_none(),
            "anchor table key must be unused"
        );
        plan.put(table_key.to_vec(), MetaKind::Leaf(new_leaf.clone()));
        for plen in 0..table_key.len() {
            let prefix = &table_key[..plen];
            let token = table_key[plen];
            match plan.current(prefix) {
                None => {
                    let mut bitmap = TokenBitmap::new();
                    bitmap.set(token);
                    plan.put(
                        prefix.to_vec(),
                        MetaKind::internal(bitmap, new_leaf.clone(), new_leaf.clone()),
                    );
                }
                Some(MetaKind::Internal(mut node)) => {
                    node.bitmap.set(token);
                    if node.rightmost.same(split_leaf) {
                        node.rightmost = new_leaf.clone();
                    }
                    if let Some(right) = old_right {
                        if node.leftmost.same(right) {
                            node.leftmost = new_leaf.clone();
                        }
                    }
                    plan.put(prefix.to_vec(), MetaKind::Internal(node));
                }
                Some(MetaKind::Leaf(existing)) => {
                    // An existing anchor equals this prefix: relocate it to
                    // `prefix ⧺ ⊥` and put an internal node in its place
                    // (Algorithm 4, lines 15–18).
                    let mut relocated_key = prefix.to_vec();
                    relocated_key.push(0);
                    debug_assert!(plan.current(&relocated_key).is_none());
                    plan.put(relocated_key.clone(), MetaKind::Leaf(existing.clone()));
                    let mut bitmap = TokenBitmap::new();
                    bitmap.set(0);
                    bitmap.set(token);
                    plan.put(
                        prefix.to_vec(),
                        MetaKind::internal(bitmap, existing.clone(), new_leaf.clone()),
                    );
                    plan.relocate(existing, relocated_key);
                }
            }
        }
        plan.finish()
    }

    /// Computes the meta-update plan unregistering a merged-away leaf (merge
    /// half of Algorithm 4). The table is not modified; apply the returned
    /// plan with [`MetaTable::apply_plan`].
    ///
    /// * `victim_table_key` — the removed leaf's registration key;
    /// * `victim` — the removed leaf;
    /// * `victim_left` — its left neighbour (the leaf that absorbed it);
    /// * `victim_right` — its right neighbour, if any.
    pub fn plan_merge(
        &self,
        victim_table_key: &[u8],
        victim: &L,
        victim_left: &L,
        victim_right: Option<&L>,
    ) -> MetaPlan<L> {
        let mut plan = meta_plan::PlanBuilder::new(self);
        debug_assert!(
            matches!(plan.current(victim_table_key), Some(MetaKind::Leaf(_))),
            "victim anchor must be registered as a leaf item"
        );
        plan.del(victim_table_key.to_vec());
        let mut child_removed = true;
        for plen in (0..victim_table_key.len()).rev() {
            let prefix = &victim_table_key[..plen];
            let token = victim_table_key[plen];
            let Some(MetaKind::Internal(mut node)) = plan.current(prefix) else {
                debug_assert!(false, "prefix of an anchor must be an internal item");
                continue;
            };
            if child_removed {
                node.bitmap.clear(token);
            }
            if node.bitmap.is_empty() {
                plan.del(prefix.to_vec());
                child_removed = true;
            } else {
                child_removed = false;
                if node.leftmost.same(victim) {
                    // The subtree's leaves form a contiguous run of the
                    // leaf list, so the victim's right neighbour takes over.
                    node.leftmost = victim_right.cloned().unwrap_or_else(|| victim_left.clone());
                }
                if node.rightmost.same(victim) {
                    node.rightmost = victim_left.clone();
                }
                plan.put(prefix.to_vec(), MetaKind::Internal(node));
            }
        }
        plan.finish()
    }

    /// Applies a plan computed by [`MetaTable::plan_split`] or
    /// [`MetaTable::plan_merge`]. Because plans are absolute item writes, the
    /// same plan applied to two logically identical tables leaves them
    /// logically identical again (the concurrent index's T2-then-T1
    /// protocol relies on this).
    pub fn apply_plan(&mut self, plan: &MetaPlan<L>) {
        for op in &plan.ops {
            match op {
                MetaOp::Put { key, kind } => {
                    self.insert(key, kind.clone());
                }
                MetaOp::Del { key } => {
                    self.remove(key);
                }
            }
        }
    }

    /// Plans and immediately applies a split (convenience for the
    /// single-table callers and tests). Returns the anchor relocations.
    pub fn apply_split(
        &mut self,
        table_key: &[u8],
        new_leaf: L,
        split_leaf: &L,
        old_right: Option<&L>,
    ) -> Vec<(L, Vec<u8>)> {
        let plan = self.plan_split(table_key, new_leaf, split_leaf, old_right);
        self.apply_plan(&plan);
        plan.relocations
    }

    /// Plans and immediately applies a merge (convenience for the
    /// single-table callers and tests).
    pub fn apply_merge(
        &mut self,
        victim_table_key: &[u8],
        victim: &L,
        victim_left: &L,
        victim_right: Option<&L>,
    ) {
        let plan = self.plan_merge(victim_table_key, victim, victim_left, victim_right);
        self.apply_plan(&plan);
    }

    /// Registers the very first leaf (empty anchor) of a new index.
    pub fn install_root_leaf(&mut self, leaf: L) {
        debug_assert!(self.is_empty());
        self.insert(&[], MetaKind::Leaf(leaf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn cfg() -> WormholeConfig {
        WormholeConfig::optimized()
    }

    #[test]
    fn bitmap_set_clear_test() {
        let mut b = TokenBitmap::new();
        assert!(b.is_empty());
        for t in [0u8, 1, 63, 64, 127, 128, 200, 255] {
            b.set(t);
            assert!(b.test(t));
        }
        assert_eq!(b.count(), 8);
        b.clear(64);
        assert!(!b.test(64));
        assert_eq!(b.count(), 7);
        assert!(!b.is_empty());
    }

    #[test]
    fn bitmap_sibling_search() {
        let mut b = TokenBitmap::new();
        b.set(b'A');
        b.set(b'J');
        // 'D' sits between 'A' and 'J': the left sibling wins.
        assert_eq!(b.find_one_sibling(b'D'), Some(b'A'));
        // Below the smallest set bit only a right sibling exists.
        assert_eq!(b.find_one_sibling(b'0'), Some(b'A'));
        // Above the largest set bit the left sibling is 'J'.
        assert_eq!(b.find_one_sibling(b'z'), Some(b'J'));
        assert_eq!(TokenBitmap::new().find_one_sibling(100), None);
        // Boundary tokens.
        let mut edge = TokenBitmap::new();
        edge.set(0);
        edge.set(255);
        assert_eq!(edge.find_one_sibling(1), Some(0));
        assert_eq!(edge.find_one_sibling(254), Some(0));
        assert_eq!(edge.prev_set(0), None);
        assert_eq!(edge.next_set(255), None);
    }

    #[test]
    fn insert_get_remove_items() {
        let mut t: MetaTable<u32> = MetaTable::new();
        assert!(!t.insert(b"Ja", MetaKind::Leaf(1)));
        assert!(t.contains(b"Ja"));
        assert!(!t.contains(b"J"));
        let mut bitmap = TokenBitmap::new();
        bitmap.set(b'a');
        t.insert(b"J", MetaKind::internal(bitmap, 1, 1));
        assert_eq!(t.len(), 2);
        assert!(matches!(t.kind(b"J").unwrap(), MetaKind::Internal { .. }));
        assert!(t.remove(b"Ja"));
        assert!(!t.contains(b"Ja"));
        assert!(!t.remove(b"Ja"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn overflow_chain_insert_find_remove() {
        // A single-bucket table: every key collides, so the ninth insert
        // must chain into the overflow pool.
        let mut t: MetaTable<u32> = MetaTable::with_bucket_count(1);
        let keys: Vec<Vec<u8>> = (0..10u32)
            .map(|i| format!("ovf-{i}").into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            // Stay below the grow threshold (1 bucket * 6) by growing once:
            // after the automatic grow to 2 buckets the threshold is 12.
            t.insert(k, MetaKind::Leaf(i as u32));
        }
        assert_eq!(t.len(), 10);
        for (i, k) in keys.iter().enumerate() {
            match t.kind(k).expect("present") {
                MetaKind::Leaf(l) => assert_eq!(l, i as u32, "{k:?}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Remove from the middle and the ends; every survivor stays findable.
        let removed = [0usize, 4, 9, 5];
        for &victim in &removed {
            assert!(t.remove(&keys[victim]));
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.contains(k), !removed.contains(&i), "{k:?}");
        }
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn overflow_chain_forced_without_grow() {
        // Force a genuine >8 chain on one bucket of a 2-bucket table by
        // picking keys that hash into bucket 0.
        let mut t: MetaTable<u32> = MetaTable::with_bucket_count(2);
        let mut picked = Vec::new();
        let mut i = 0u32;
        while picked.len() < 10 {
            let key = format!("chain-{i}").into_bytes();
            if t.bucket_of(wh_hash::crc32c(&key)) == 0 {
                picked.push(key);
            }
            i += 1;
        }
        for (v, k) in picked.iter().enumerate() {
            t.insert(k, MetaKind::Leaf(v as u32));
        }
        assert!(t.overflow_buckets() >= 1, "ten colliding keys must chain");
        for (v, k) in picked.iter().enumerate() {
            match t.kind(k).expect("present") {
                MetaKind::Leaf(l) => assert_eq!(l, v as u32),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Drain the chain completely and refill it.
        for k in &picked {
            assert!(t.remove(k));
        }
        assert!(t.is_empty());
        for (v, k) in picked.iter().enumerate() {
            t.insert(k, MetaKind::Leaf(v as u32));
            assert!(t.contains(k), "{v}");
        }
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn grow_rebuilds_overflow_pool() {
        let mut t: MetaTable<u32> = MetaTable::with_bucket_count(1);
        // 200 items force several doublings; the pool must shrink back as
        // buckets spread the load.
        for i in 0..200u32 {
            t.insert(format!("g-{i}").as_bytes(), MetaKind::Leaf(i));
        }
        for i in 0..200u32 {
            assert!(t.contains(format!("g-{i}").as_bytes()), "{i}");
        }
        // After growing to >= 64 buckets for 200 items, chains are rare.
        assert!(
            t.overflow_buckets() <= 4,
            "grow must rebuild chains, found {}",
            t.overflow_buckets()
        );
    }

    #[test]
    fn table_grows_under_load() {
        let mut t: MetaTable<u32> = MetaTable::new();
        for i in 0..5000u32 {
            t.insert(format!("prefix-{i}").as_bytes(), MetaKind::Leaf(i));
        }
        assert_eq!(t.len(), 5000);
        for i in 0..5000u32 {
            match t.kind(format!("prefix-{i}").as_bytes()).unwrap() {
                MetaKind::Leaf(l) => assert_eq!(l, i),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// Builds the paper's Figure 5 example table: anchors ⊥(""), "Au",
    /// "Jam", "Jos" for leaves 1–4.
    fn figure5_table() -> MetaTable<u32> {
        let mut t: MetaTable<u32> = MetaTable::new();
        t.install_root_leaf(1);
        // Split leaf 1 -> new leaf 2 with anchor "Au".
        let key = t.reserve_anchor_key(b"Au");
        assert_eq!(key, b"Au".to_vec());
        t.apply_split(&key, 2, &1, None);
        // Split leaf 2 -> new leaf 3 with anchor "Jam" (right of 2).
        let key = t.reserve_anchor_key(b"Jam");
        t.apply_split(&key, 3, &2, None);
        // Split leaf 3 -> new leaf 4 with anchor "Jos".
        let key = t.reserve_anchor_key(b"Jos");
        t.apply_split(&key, 4, &3, None);
        t
    }

    #[test]
    fn figure5_structure() {
        let t = figure5_table();
        // The root is internal; the original leaf was relocated to "\0".
        assert!(matches!(t.kind(b"").unwrap(), MetaKind::Internal { .. }));
        assert!(matches!(t.kind(b"\0").unwrap(), MetaKind::Leaf(1)));
        assert!(matches!(t.kind(b"Au").unwrap(), MetaKind::Leaf(2)));
        assert!(matches!(t.kind(b"Jam").unwrap(), MetaKind::Leaf(3)));
        assert!(matches!(t.kind(b"Jos").unwrap(), MetaKind::Leaf(4)));
        // Internal prefixes: "A", "J", "Ja", "Jo".
        for p in [b"A".as_ref(), b"J", b"Ja", b"Jo"] {
            assert!(
                matches!(t.kind(p).unwrap(), MetaKind::Internal { .. }),
                "{p:?}"
            );
        }
        // Figure 5's root bitmap lists children ⊥, 'A', 'J'.
        if let MetaKind::Internal(node) = &t.kind(b"").unwrap() {
            assert!(node.bitmap.test(0) && node.bitmap.test(b'A') && node.bitmap.test(b'J'));
            assert_eq!(node.bitmap.count(), 3);
            assert_eq!(node.leftmost, 1);
            assert_eq!(node.rightmost, 4);
        }
        // The "J" subtree spans leaves 3..4 ("Jam" and "Jos").
        if let MetaKind::Internal(node) = &t.kind(b"J").unwrap() {
            assert_eq!(node.leftmost, 3);
            assert_eq!(node.rightmost, 4);
        }
        assert_eq!(t.max_anchor_len(), 3);
    }

    #[test]
    fn figure4_lookups() {
        let t = figure5_table();
        let config = cfg();
        // "Joseph" matches the anchor "Jos" exactly -> leaf 4.
        assert_eq!(
            t.search_target(b"Joseph", &config),
            TargetOutcome::Target(&4)
        );
        // "James" has LPM "Jam" -> leaf 3.
        assert_eq!(
            t.search_target(b"James", &config),
            TargetOutcome::Target(&3)
        );
        // "Denice": LPM "", missing 'D', siblings 'A' (left) and 'J' (right);
        // the left subtree's rightmost leaf is leaf 2.
        assert_eq!(
            t.search_target(b"Denice", &config),
            TargetOutcome::Target(&2)
        );
        // "Julian": LPM "J", missing 'u', left sibling 'o' -> subtree "Jo"
        // whose rightmost leaf is 4.
        assert_eq!(
            t.search_target(b"Julian", &config),
            TargetOutcome::Target(&4)
        );
        // "A": the whole key is an interior prefix -> compare against the
        // anchor of the subtree's leftmost leaf (leaf 2, anchor "Au").
        assert_eq!(
            t.search_target(b"A", &config),
            TargetOutcome::CompareAnchor(&2)
        );
        // "Aaron": LPM "A", missing 'a' < 'u' -> right sibling "Au" is a
        // leaf, so the target is its left neighbour.
        assert_eq!(
            t.search_target(b"Aaron", &config),
            TargetOutcome::LeftOf(&2)
        );
    }

    #[test]
    fn search_is_consistent_across_configs() {
        let t = figure5_table();
        let keys: Vec<&[u8]> = vec![
            b"Aaron", b"Abbe", b"Andrew", b"Austin", b"Denice", b"Jacob", b"James", b"Jason",
            b"John", b"Joseph", b"Julian", b"Justin", b"A", b"Z", b"", b"Jo", b"Jos", b"Josz",
        ];
        let optimized = WormholeConfig::optimized();
        let base = WormholeConfig::base();
        for key in keys {
            assert_eq!(
                t.search_target(key, &optimized),
                t.search_target(key, &base),
                "divergent outcome for {key:?}"
            );
        }
    }

    #[test]
    fn windowed_search_matches_per_key_search() {
        // The batched pipeline must produce exactly the per-key outcomes on
        // both the small Figure-5 table and a grown table with deep anchors,
        // in every configuration of the ablation ladder.
        let mut grown = figure5_table();
        for (next_leaf, i) in (5u32..).zip(0..300u32) {
            let anchor = format!("Ja{:03}x{}", i % 40, i);
            let key = grown.reserve_anchor_key(anchor.as_bytes());
            grown.apply_split(&key, next_leaf, &4, None);
        }
        let probes: Vec<Vec<u8>> = [
            &b"Aaron"[..],
            b"Joseph",
            b"James",
            b"Denice",
            b"Julian",
            b"A",
            b"",
            b"Zoe",
            b"Jo",
            b"Ja017x17",
            b"Ja017x17zzz",
            b"Ja0",
            b"\0",
            b"Au",
            b"Austin",
            b"Jos",
        ]
        .iter()
        .map(|k| k.to_vec())
        .collect();
        for t in [&figure5_table(), &grown] {
            for (name, config) in WormholeConfig::ablation_ladder() {
                for window in [1usize, 3, 7, BATCH_WINDOW] {
                    let mut out: Vec<Option<TargetOutcome<&u32>>> = vec![None; BATCH_WINDOW];
                    for chunk in probes.chunks(window) {
                        let keys: Vec<&[u8]> = chunk.iter().map(|k| k.as_slice()).collect();
                        t.search_targets_window(&keys, &config, &mut out);
                        for (i, key) in keys.iter().enumerate() {
                            assert_eq!(
                                out[i].take().expect("window filled"),
                                t.search_target(key, &config),
                                "{name}: window {window} diverges on {key:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Builds a table by splitting a chain of leaves at `anchors` (any
    /// order, duplicates and ⊥-terminated candidates skipped), starting
    /// from `buckets` buckets so that small tables chain and grow.
    fn table_of(anchors: &[Vec<u8>], buckets: usize) -> MetaTable<u32> {
        let mut sorted: Vec<&Vec<u8>> = anchors.iter().collect();
        sorted.sort();
        let mut model = Model::new(buckets);
        for anchor in sorted {
            // Ascending, so every split carves the new leaf off the
            // current rightmost one.
            model.split(anchor);
        }
        model.t
    }

    /// The oracle: the longest prefix of `key` stored in the table, found
    /// by trying every length from the longest down.
    fn brute_force_lpm(t: &MetaTable<u32>, key: &[u8]) -> usize {
        (0..=key.len().min(t.max_anchor_len()))
            .rev()
            .find(|&len| t.contains(&key[..len]))
            .expect("the root item matches every key")
    }

    /// Probe keys around a set of stored keys: the empty key; each stored
    /// key itself, a cut of it shorter than `max_anchor_len`, a cut or
    /// extension of it longer than `max_anchor_len`, and its successor in
    /// the last byte; plus the caller's extras.
    fn probes_around(stored: &[Vec<u8>], max_anchor_len: usize, extra: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut probes = vec![Vec::new()];
        for (i, key) in stored.iter().enumerate() {
            probes.push(key.clone());
            probes.push(key[..key.len().min(max_anchor_len) / 2].to_vec());
            let mut longer = key.clone();
            longer.resize(max_anchor_len + 1 + i % 7, b'a' + (i % 5) as u8);
            probes.push(longer);
            let mut sibling = key.clone();
            if let Some(last) = sibling.last_mut() {
                *last = last.wrapping_add(1);
            }
            probes.push(sibling);
        }
        probes.extend_from_slice(extra);
        probes
    }

    /// Runs the LPM search over `probes` in every configuration of the
    /// ablation ladder, per key (a window of one, what `search_target`
    /// runs) and in windows, and checks each match against the oracle.
    fn assert_lpm_matches_oracle(t: &MetaTable<u32>, probes: &[Vec<u8>]) {
        let expect: Vec<usize> = probes.iter().map(|key| brute_force_lpm(t, key)).collect();
        for (name, config) in WormholeConfig::ablation_ladder() {
            for window in [1usize, 5, BATCH_WINDOW] {
                for (chunk, expect) in probes.chunks(window).zip(expect.chunks(window)) {
                    let keys: Vec<&[u8]> = chunk.iter().map(|k| k.as_slice()).collect();
                    let mut lpm = [LpmProbe::IDLE; BATCH_WINDOW];
                    t.search_lpm_window(
                        &keys,
                        config.tag_matching(),
                        config.inc_hashing(),
                        &mut lpm,
                    );
                    for ((key, found), &expect) in keys.iter().zip(&lpm).zip(expect) {
                        assert_eq!(
                            found.lo, expect,
                            "{name}, window {window}: wrong match length for {key:?}"
                        );
                        assert_eq!(
                            t.items[found.lo_item].prefix.as_slice(),
                            &key[..found.lo],
                            "{name}, window {window}: wrong item for {key:?}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random anchor sets over a small alphabet, in a table that starts
        /// at one bucket (so it chains, overflows and grows on the way up):
        /// per-key and windowed LPM agree with the brute-force oracle.
        #[test]
        fn lpm_matches_brute_force_oracle(
            anchors in proptest::collection::vec(
                (proptest::collection::vec(0u8..4, 0..9), 1u8..4)
                    .prop_map(|(mut head, last)| { head.push(last); head }),
                1..120),
            random in proptest::collection::vec(
                proptest::collection::vec(0u8..5, 0..14), 0..48)) {
            let t = table_of(&anchors, 1);
            assert_lpm_matches_oracle(&t, &probes_around(&anchors, t.max_anchor_len(), &random));
        }
    }

    #[test]
    fn lpm_walks_overflow_chains() {
        // Eleven items in a two-bucket table (below its grow threshold of
        // twelve): the root, its relocated leaf, and nine one-byte anchors
        // picked so that one bucket has to chain into the overflow pool.
        let in_bucket =
            |t: &MetaTable<u32>, byte: u8, bucket: usize| t.bucket_of(crc32c(&[byte])) == bucket;
        let probe: MetaTable<u32> = MetaTable::with_bucket_count(2);
        let crowded = usize::from((1u8..=255).filter(|&b| in_bucket(&probe, b, 0)).count() < 9);
        let anchors: Vec<Vec<u8>> = (1u8..=255)
            .filter(|&b| in_bucket(&probe, b, crowded))
            .take(9)
            .map(|b| vec![b])
            .collect();
        assert_eq!(anchors.len(), 9);
        let t = table_of(&anchors, 2);
        assert_eq!(t.buckets.len(), 2, "the table must not have grown");
        assert!(
            t.overflow_buckets() >= 1,
            "nine residents of one bucket must chain"
        );
        let every_byte: Vec<Vec<u8>> = (0u8..=255).map(|b| vec![b, b]).collect();
        assert_lpm_matches_oracle(
            &t,
            &probes_around(&anchors, t.max_anchor_len(), &every_byte),
        );
    }

    #[test]
    fn lpm_recovers_from_forced_tag_collisions() {
        // Hunt for keys whose *first* probed prefix is absent from the table
        // but shares bucket and 16-bit tag with a resident: the optimistic
        // search is then certainly misled (it takes the hit, ends on a
        // prefix that is not the key's, fails the final verification) and
        // must redo the search exactly.
        let anchors: Vec<Vec<u8>> = (0..400u32)
            .map(|i| format!("{:02}-{:03}x{}", i % 37, i % 101, i).into_bytes())
            .collect();
        let t = table_of(&anchors, 64);
        // Where a key at least `max_anchor_len` long is probed first:
        // the midpoint of `0..=max_anchor_len`.
        let first_mid = t.max_anchor_len().div_ceil(2);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut misled: Vec<Vec<u8>> = Vec::new();
        for _ in 0..4_000_000 {
            if misled.len() == 8 {
                break;
            }
            let mut key: Vec<u8> = (0..first_mid).map(|_| b'0' + (next() % 40) as u8).collect();
            let hash = crc32c(&key);
            if t.probe(&key, hash, true).is_some() && t.find(&key, hash).is_none() {
                key.resize(t.max_anchor_len() + 3, b'~');
                misled.push(key);
            }
        }
        assert!(!misled.is_empty(), "no tag collision found to test with");
        for key in &misled {
            assert!(
                brute_force_lpm(&t, key) < first_mid,
                "the colliding prefix must be absent"
            );
        }
        assert_lpm_matches_oracle(&t, &misled);
        // And the trie search built on it agrees with the exact one.
        for key in &misled {
            assert_eq!(
                t.search_target(key, &WormholeConfig::optimized()),
                t.search_target(key, &WormholeConfig::base())
            );
        }
    }

    #[test]
    fn lpm_matches_oracle_on_paper_keysets() {
        // Real anchor shapes: the tables a small-leaf index builds over the
        // paper's K3 (8-byte random), K10 (1 KiB random) and Url keysets.
        use crate::single::WormholeUnsafe;
        use index_traits::OrderedIndex;
        use workloads::KeysetId;
        for id in [KeysetId::K3, KeysetId::K10, KeysetId::Url] {
            let keys = workloads::generate(id, 1500, 7).keys;
            let absent = workloads::generate(id, 200, 8).keys;
            let mut wh =
                WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
            for (i, key) in keys.iter().enumerate() {
                wh.set(key, i as u64);
            }
            let t = wh.meta_table();
            assert!(t.len() > 300, "{id:?}: table too small to mean anything");
            let stored: Vec<Vec<u8>> = keys.iter().step_by(3).cloned().collect();
            assert_lpm_matches_oracle(t, &probes_around(&stored, t.max_anchor_len(), &absent));
        }
    }

    #[test]
    fn merge_undoes_split() {
        let mut t = figure5_table();
        // Merge leaf 4 ("Jos") into leaf 3.
        t.apply_merge(b"Jos", &4, &3, None);
        assert!(!t.contains(b"Jos"));
        assert!(!t.contains(b"Jo"), "exclusively-owned prefix removed");
        // "J" still exists for "Jam", and its rightmost pointer fell back to 3.
        if let MetaKind::Internal(node) = &t.kind(b"J").unwrap() {
            assert_eq!(node.leftmost, 3);
            assert_eq!(node.rightmost, 3);
        } else {
            panic!("'J' should remain an internal item");
        }
        // Lookups that used to land in leaf 4 now land in 3.
        assert_eq!(
            t.search_target(b"Joseph", &cfg()),
            TargetOutcome::Target(&3)
        );

        // Merge leaf 3 ("Jam") into 2, then leaf 2 ("Au") into 1.
        t.apply_merge(b"Jam", &3, &2, None);
        t.apply_merge(b"Au", &2, &1, None);
        // Only the relocated root anchor remains.
        assert!(matches!(t.kind(b"\0").unwrap(), MetaKind::Leaf(1)));
        assert_eq!(
            t.search_target(b"Anything", &cfg()),
            TargetOutcome::Target(&1)
        );
        assert_eq!(t.search_target(b"zzz", &cfg()), TargetOutcome::Target(&1));
    }

    #[test]
    fn reserve_anchor_appends_bottom_tokens() {
        let t = figure5_table();
        // "Jo" is an internal prefix, so a new anchor "Jo" must be extended.
        assert_eq!(t.reserve_anchor_key(b"Jo"), b"Jo\0".to_vec());
        // A fresh anchor stays untouched.
        assert_eq!(t.reserve_anchor_key(b"Ka"), b"Ka".to_vec());
    }

    #[test]
    fn relocation_reported_to_caller() {
        let mut t: MetaTable<u32> = MetaTable::new();
        t.install_root_leaf(1);
        let key = t.reserve_anchor_key(b"Jo");
        t.apply_split(&key, 2, &1, None);
        // Splitting leaf 2 with anchor "Jos" forces the "Jo" anchor item to
        // relocate to "Jo\0".
        let key = t.reserve_anchor_key(b"Jos");
        assert_eq!(key, b"Jos".to_vec());
        let relocations = t.apply_split(&key, 3, &2, None);
        assert_eq!(relocations.len(), 1);
        assert_eq!(relocations[0].0, 2);
        assert_eq!(relocations[0].1, b"Jo\0".to_vec());
        assert!(matches!(t.kind(b"Jo\0").unwrap(), MetaKind::Leaf(2)));
        assert!(matches!(t.kind(b"Jo").unwrap(), MetaKind::Internal { .. }));
        // Lookups for keys owned by the relocated leaf still resolve to it.
        assert_eq!(t.search_target(b"Joe", &cfg()), TargetOutcome::Target(&2));
        assert_eq!(
            t.search_target(b"Joseph", &cfg()),
            TargetOutcome::Target(&3)
        );
    }

    #[test]
    fn long_binary_anchor_lookup() {
        let mut t: MetaTable<u32> = MetaTable::new();
        t.install_root_leaf(1);
        let anchor: Vec<u8> = (0u8..100).collect();
        let key = t.reserve_anchor_key(&anchor);
        t.apply_split(&key, 2, &1, None);
        assert_eq!(t.max_anchor_len(), 100);
        let mut probe = anchor.clone();
        probe.push(77);
        assert_eq!(t.search_target(&probe, &cfg()), TargetOutcome::Target(&2));
        assert_eq!(
            t.search_target(&anchor[..50], &cfg()),
            TargetOutcome::CompareAnchor(&2)
        );
    }

    /// A table beside the leaf list it indexes, `(table key, leaf)` in key
    /// order: drives splits and merges anywhere in the list the way the
    /// indexes do, and knows what the table must then hold.
    struct Model {
        t: MetaTable<u32>,
        leaves: Vec<(Vec<u8>, u32)>,
        next_leaf: u32,
    }

    impl Model {
        fn new(buckets: usize) -> Self {
            let mut t = MetaTable::with_bucket_count(buckets);
            t.install_root_leaf(0);
            Self {
                t,
                leaves: vec![(Vec::new(), 0)],
                next_leaf: 1,
            }
        }

        /// Splits the leaf covering `anchor` there and returns the new
        /// leaf, or `None` for an anchor no split produces: empty, ending
        /// in ⊥, or not above its covering leaf's table key.
        fn split(&mut self, anchor: &[u8]) -> Option<u32> {
            if anchor.last().is_none_or(|&b| b == 0) {
                return None;
            }
            let table_key = self.t.reserve_anchor_key(anchor);
            let pos = self.leaves.partition_point(|(k, _)| k < &table_key);
            if self.leaves[pos - 1].0.as_slice() >= anchor {
                return None;
            }
            let leaf = self.next_leaf;
            self.next_leaf += 1;
            let left = self.leaves[pos - 1].1;
            let right = self.leaves.get(pos).map(|(_, l)| *l);
            for (moved, new_key) in self.t.apply_split(&table_key, leaf, &left, right.as_ref()) {
                let entry = self.leaves.iter_mut().find(|(_, l)| *l == moved);
                entry.expect("relocated leaf is registered").0 = new_key;
            }
            self.leaves.insert(pos, (table_key, leaf));
            Some(leaf)
        }

        /// Merges `leaf` (not the head) into its left neighbour.
        fn merge(&mut self, leaf: u32) {
            let pos = self.leaves.iter().position(|(_, l)| *l == leaf).unwrap();
            let (key, victim) = self.leaves.remove(pos);
            let left = self.leaves[pos - 1].1;
            let right = self.leaves.get(pos).map(|(_, l)| *l);
            self.t.apply_merge(&key, &victim, &left, right.as_ref());
        }

        /// The trie the leaf list implies, by brute force: every proper
        /// prefix of every table key with its child tokens and the first
        /// and last leaf below it.
        fn expected_nodes(&self) -> BTreeMap<&[u8], (BTreeSet<u8>, u32, u32)> {
            let mut nodes: BTreeMap<&[u8], (BTreeSet<u8>, u32, u32)> = BTreeMap::new();
            for (key, leaf) in &self.leaves {
                for plen in 0..key.len() {
                    let node = nodes
                        .entry(&key[..plen])
                        .or_insert_with(|| (BTreeSet::new(), *leaf, *leaf));
                    node.0.insert(key[plen]);
                    node.2 = *leaf;
                }
            }
            nodes
        }

        /// Checks the table against the oracle: the items it holds, each
        /// interior node's children, bounds and `findOneSibling` answers as
        /// its record gives them, one bitmap per multi-child node, and the
        /// leaf every probe's `search_target` outcome resolves to, on every
        /// rung of the ablation ladder.
        fn check(&self) {
            let t = &self.t;
            let nodes = self.expected_nodes();
            assert_eq!(t.len(), nodes.len() + self.leaves.len());
            let multi = nodes.values().filter(|(tokens, ..)| tokens.len() > 1);
            assert_eq!(t.bitmaps(), multi.count(), "a bitmap per multi-child node");
            for (prefix, (tokens, leftmost, rightmost)) in &nodes {
                let Some(MetaKind::Internal(node)) = t.kind(prefix) else {
                    panic!("{prefix:?} must be an interior item");
                };
                let stored: BTreeSet<u8> = (0..=255).filter(|&b| node.bitmap.test(b)).collect();
                assert_eq!(&stored, tokens, "children of {prefix:?}");
                assert_eq!((node.leftmost, node.rightmost), (*leftmost, *rightmost));
                let idx = t.find(prefix, crc32c(prefix)).unwrap();
                let Node::Internal { children, .. } = t.items[idx].node else {
                    unreachable!();
                };
                assert_eq!(matches!(children, Children::One(_)), tokens.len() == 1);
                for missing in (0..=255).filter(|b| !tokens.contains(b)) {
                    let below = tokens.range(..missing).next_back();
                    let expect = below.or_else(|| tokens.range(missing..).next()).copied();
                    assert_eq!(t.find_one_sibling(children, missing), expect);
                }
            }
            // An anchor never ends in ⊥: it is its table key less the ⊥s.
            let anchor = |key: &[u8]| key.len() - key.iter().rev().take_while(|&&b| b == 0).count();
            let anchors: Vec<&[u8]> = self.leaves.iter().map(|(k, _)| &k[..anchor(k)]).collect();
            let keys: Vec<Vec<u8>> = self.leaves.iter().map(|(k, _)| k.clone()).collect();
            let probes = probes_around(&keys, t.max_anchor_len(), &[]);
            for (key, leaf) in &self.leaves {
                assert!(matches!(t.kind(key), Some(MetaKind::Leaf(l)) if l == *leaf));
            }
            for (name, config) in WormholeConfig::ablation_ladder() {
                for probe in &probes {
                    let at = |leaf: &u32| self.leaves.iter().position(|(_, l)| l == leaf).unwrap();
                    let found = match t.search_target(probe, &config) {
                        TargetOutcome::Target(leaf) => at(leaf),
                        TargetOutcome::LeftOf(leaf) => at(leaf) - 1,
                        TargetOutcome::CompareAnchor(leaf) => {
                            at(leaf) - usize::from(probe.as_slice() < anchors[at(leaf)])
                        }
                    };
                    let covering = anchors.partition_point(|a| *a <= probe.as_slice()) - 1;
                    assert_eq!(found, covering, "{name}: wrong leaf for {probe:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A prefix goes from no node to one child, to two, back to one and
        /// away again, in a table of unrelated anchors: after each step the
        /// table is what the oracle says, its record holds a token or a
        /// bitmap slot accordingly, and the slot is given back.
        #[test]
        fn a_node_is_promoted_and_demoted_with_its_children(
            base in proptest::collection::vec(
                proptest::collection::vec(1u8..4, 1..7), 0..40),
            stem in proptest::collection::vec(5u8..8, 1..6),
            first in any::<u8>(),
            apart in 1u8..=255,
            tails in proptest::collection::vec(proptest::collection::vec(1u8..4, 1..4), 2)) {
            let mut model = Model::new(1);
            for anchor in &base {
                model.split(anchor);
            }
            model.check();
            let below = |token: u8, tail: &[u8]| [&stem[..], &[token], tail].concat();
            let children = |model: &Model| match model.t.kind(&stem) {
                Some(MetaKind::Internal(node)) => node.bitmap.count(),
                _ => 0,
            };
            let slots = model.t.bitmaps.len();
            let one = model.split(&below(first, &tails[0])).expect("a fresh subtree");
            model.check();
            let bitmaps = model.t.bitmaps();
            prop_assert_eq!(children(&model), 1);
            let second = first.wrapping_add(apart);
            let two = model.split(&below(second, &tails[1])).expect("a fresh subtree");
            model.check();
            prop_assert_eq!((children(&model), model.t.bitmaps()), (2, bitmaps + 1));
            model.merge(two);
            model.check();
            prop_assert_eq!((children(&model), model.t.bitmaps()), (1, bitmaps));
            model.merge(one);
            model.check();
            prop_assert_eq!(children(&model), 0);
            prop_assert!(model.t.bitmaps.len() <= slots + 2, "slots are recycled");
        }
    }

    #[test]
    fn split_merge_cycles_do_not_grow_the_side_arrays() {
        let mut model = Model::new(64);
        for anchor in [&b"ab"[..], b"abc", b"b", b"ca", b"cb"] {
            model.split(anchor).unwrap();
        }
        model.check();
        let (bitmaps, slots, records) =
            (model.t.bitmaps(), model.t.bitmaps.len(), model.t.items.len);
        for cycle in 0..10_000u32 {
            // "aa": the second child of "a". "dx…": a chain of one-child
            // nodes whose last gets a second child, by turns below and
            // above the first.
            let deep = [&b"dx"[..], &cycle.to_le_bytes()[..2], &[2]].concat();
            let sibling = [&deep[..4], &[1 + (cycle % 2) as u8 * 2]].concat();
            let made: Vec<u32> = [&b"aa"[..], &deep, &sibling]
                .iter()
                .map(|anchor| model.split(anchor).expect("a fresh anchor"))
                .collect();
            if cycle % 1000 == 0 {
                assert_eq!(model.t.bitmaps(), bitmaps + 2);
                model.check();
            }
            for leaf in made.into_iter().rev() {
                model.merge(leaf);
            }
            assert_eq!(model.t.bitmaps(), bitmaps, "cycle {cycle} leaked a bitmap");
        }
        model.check();
        assert!(
            model.t.bitmaps.len() <= slots + 2,
            "bitmap slots are recycled"
        );
        assert!(model.t.items.len <= records + 8, "records are recycled");
    }

    #[test]
    fn prefixes_at_and_past_the_inline_room() {
        // Straight through the hash-table layer, in a table that starts at
        // one bucket: the four records survive its chains and resizes.
        let prefix =
            |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + len) as u8 | 1).collect() };
        let lens = [INLINE_PREFIX - 1, INLINE_PREFIX, INLINE_PREFIX + 1, 200];
        let mut t: MetaTable<u32> = MetaTable::with_bucket_count(1);
        for (i, len) in lens.iter().enumerate() {
            assert!(!t.insert(&prefix(*len), MetaKind::Leaf(i as u32)));
        }
        assert_eq!(t.spilled_bytes, INLINE_PREFIX + 1 + 200);
        for filler in 0..40u32 {
            t.insert(format!("filler-{filler}").as_bytes(), MetaKind::Leaf(99));
        }
        assert!(t.buckets.len() > 1, "the table must have grown");
        for (i, len) in lens.iter().enumerate() {
            let key = prefix(*len);
            assert!(matches!(t.kind(&key), Some(MetaKind::Leaf(l)) if l == i as u32));
            // One byte off at either end of a stored prefix is another key.
            assert!(!t.contains(&key[1..]) && !t.contains(&key[..len - 1]));
            assert!(t.insert(&key, MetaKind::Leaf(7)), "an overwrite");
            assert!(t.remove(&key) && !t.contains(&key) && !t.remove(&key));
        }
        assert_eq!(t.spilled_bytes, 0);
        assert_eq!(t.len(), 40);

        // And as anchors, where every prefix of the four is an item too:
        // probes, sibling steps and verification across the boundary.
        let mut model = Model::new(1);
        for len in lens {
            model.split(&prefix(len)).unwrap();
        }
        model.check();
        assert_eq!(model.t.max_anchor_len(), 200);
        let spilled: usize = (INLINE_PREFIX + 1..=200).sum();
        assert!(model.t.spilled_bytes >= spilled);
        while let Some(&(_, leaf)) = model.leaves.last().filter(|(_, leaf)| *leaf != 0) {
            model.merge(leaf);
            model.check();
        }
        // The root and the head leaf, relocated to ⊥ by the first split.
        assert_eq!((model.t.len(), model.t.spilled_bytes), (2, 0));
    }
}
