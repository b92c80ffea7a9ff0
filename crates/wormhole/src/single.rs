//! The thread-unsafe Wormhole index (the paper's "Wormhole-unsafe" variant).
//!
//! This variant contains the complete core data structure — LeafList plus
//! MetaTrieHT — without any concurrency control, exactly like the
//! configuration measured in Figure 9's `Wormhole-unsafe` series. It is also
//! the reference implementation that the concurrent variant's behaviour is
//! tested against.
//!
//! # Structural updates
//!
//! This module holds none of the split/merge logic itself. When a leaf
//! overflows, [`crate::core::prepare_split`] selects the split point, forms
//! the anchor, and carves the leaf; the split's [`MetaUpdate`] then runs on
//! the one table through [`MetaTable::apply`]. Merges mirror this with
//! [`crate::core::merge_eligible`] and a merge update. The only work left
//! here is representation-specific: the `u32` arena slots and their
//! prev/next links. The concurrent variant runs the same updates on its
//! two tables in turn.

use index_traits::{Cursor, CursorSource, IndexStats, OrderedIndex, ScanBatch, Take};
use wh_hash::crc32c;

use crate::config::WormholeConfig;
use crate::core;
use crate::leaf::{Bin, LeafNode};
use crate::meta::{MetaTable, MetaUpdate, TargetOutcome};

/// Null leaf-list link.
const NIL: u32 = u32::MAX;

/// A leaf plus its doubly-linked LeafList neighbours.
struct SlotLeaf<V> {
    leaf: LeafNode<V>,
    prev: u32,
    next: u32,
}

/// The single-threaded Wormhole ordered index.
pub struct WormholeUnsafe<V> {
    config: WormholeConfig,
    meta: MetaTable<u32>,
    leaves: Vec<Option<SlotLeaf<V>>>,
    free: Vec<u32>,
    /// Leftmost leaf of the LeafList.
    head: u32,
    len: usize,
}

impl<V: Clone> Default for WormholeUnsafe<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> WormholeUnsafe<V> {
    /// Creates an empty index with the default (fully optimised) configuration.
    pub fn new() -> Self {
        Self::with_config(WormholeConfig::default())
    }

    /// Creates an empty index with an explicit configuration.
    pub fn with_config(config: WormholeConfig) -> Self {
        let mut meta = MetaTable::new();
        // The initial LeafList is a single leaf whose anchor is ⊥ (the empty
        // string); it covers the whole key space.
        let root = LeafNode::new(Vec::new(), Vec::new());
        let leaves = vec![Some(SlotLeaf {
            leaf: root,
            prev: NIL,
            next: NIL,
        })];
        meta.install_root_leaf(0);
        Self {
            config,
            meta,
            leaves,
            free: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WormholeConfig {
        &self.config
    }

    /// Number of leaf nodes currently on the LeafList.
    pub fn leaf_count(&self) -> usize {
        self.leaves.iter().flatten().count()
    }

    /// Number of items (anchors and prefixes) in the MetaTrieHT.
    pub fn meta_items(&self) -> usize {
        self.meta.len()
    }

    /// Read access to the MetaTrieHT (benchmarks and tests).
    pub fn meta_table(&self) -> &MetaTable<u32> {
        &self.meta
    }

    fn slot(&self, idx: u32) -> &SlotLeaf<V> {
        self.leaves[idx as usize].as_ref().expect("live leaf")
    }

    fn slot_mut(&mut self, idx: u32) -> &mut SlotLeaf<V> {
        self.leaves[idx as usize].as_mut().expect("live leaf")
    }

    fn alloc_leaf(&mut self, slot: SlotLeaf<V>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.leaves[idx as usize] = Some(slot);
            idx
        } else {
            self.leaves.push(Some(slot));
            (self.leaves.len() - 1) as u32
        }
    }

    /// Resolves the search outcome of the MetaTrieHT to the target leaf
    /// (the final leaf-list adjustment of Algorithm 3).
    fn locate_leaf(&self, key: &[u8]) -> u32 {
        match self.meta.search_target(key, &self.config) {
            TargetOutcome::Target(&leaf) => leaf,
            TargetOutcome::LeftOf(&leaf) => {
                let prev = self.slot(leaf).prev;
                if prev == NIL {
                    leaf
                } else {
                    prev
                }
            }
            TargetOutcome::CompareAnchor(&leaf) => {
                let slot = self.slot(leaf);
                if key < slot.leaf.anchor() && slot.prev != NIL {
                    slot.prev
                } else {
                    leaf
                }
            }
        }
    }

    /// Splits the leaf `idx` if a valid split point exists. Returns `true`
    /// when a split happened. All split logic lives in [`crate::core`]; this
    /// method only wires the new leaf into the arena and applies the update.
    fn split_leaf(&mut self, idx: u32) -> bool {
        let slot = self.leaves[idx as usize].as_mut().expect("live leaf");
        // No concurrent readers exist: retired blocks drop immediately.
        let Some(prepared) = core::prepare_split(&mut slot.leaf, &self.meta, &mut Bin::immediate())
        else {
            // No valid anchor can be formed: the leaf becomes a fat node
            // (§3.3) and simply grows past the nominal capacity.
            return false;
        };
        let old_next = slot.next;
        let new_idx = self.alloc_leaf(SlotLeaf {
            leaf: prepared.right,
            prev: idx,
            next: old_next,
        });
        self.slot_mut(idx).next = new_idx;
        if old_next != NIL {
            self.slot_mut(old_next).prev = new_idx;
        }
        let relocations = self.meta.apply(&MetaUpdate::Split {
            table_key: prepared.table_key,
            new_leaf: new_idx,
            split_leaf: idx,
            old_right: (old_next != NIL).then_some(old_next),
        });
        for (leaf, new_table_key) in relocations {
            let leaf = &mut self.slot_mut(leaf).leaf;
            leaf.set_table_key(new_table_key, &mut Bin::immediate());
        }
        true
    }

    /// Merges the leaf `victim` into its left neighbour `left` and applies
    /// the merge's update to the single table.
    fn merge_leaves(&mut self, left: u32, victim: u32) {
        debug_assert_eq!(self.slot(left).next, victim);
        let victim_slot = self.leaves[victim as usize].take().expect("live leaf");
        self.free.push(victim);
        let right = victim_slot.next;
        self.slot_mut(left).next = right;
        if right != NIL {
            self.slot_mut(right).prev = left;
        }
        self.meta.apply(&MetaUpdate::Merge {
            table_key: victim_slot.leaf.table_key().to_vec(),
            victim,
            left,
            right: (right != NIL).then_some(right),
        });
        let left = &mut self.slot_mut(left).leaf;
        left.absorb(victim_slot.leaf, &mut Bin::immediate());
    }

    /// Walks the LeafList validating every structural invariant. Panics on
    /// the first violation; intended for tests and debugging.
    pub fn check_invariants(&self) {
        let mut idx = self.head;
        let mut prev = NIL;
        let mut prev_anchor: Option<Vec<u8>> = None;
        let mut seen_keys = 0usize;
        let mut seen_leaves = 0usize;
        while idx != NIL {
            let slot = self.slot(idx);
            assert_eq!(slot.prev, prev, "broken prev link at leaf {idx}");
            let anchor = slot.leaf.anchor().to_vec();
            if let Some(prev_anchor) = &prev_anchor {
                assert!(
                    prev_anchor < &anchor,
                    "anchors out of order: {prev_anchor:?} !< {anchor:?}"
                );
            }
            slot.leaf.check_invariants();
            // Every key in the leaf is >= its anchor.
            let mut leaf_clone = slot.leaf.clone();
            leaf_clone.ensure_key_sorted();
            for (key, _) in leaf_clone.iter_key_order() {
                assert!(key >= anchor.as_slice(), "key below anchor in leaf {idx}");
            }
            // The meta table registers this leaf under its table key.
            match self.meta.kind(slot.leaf.table_key()) {
                Some(crate::meta::MetaKind::Leaf(l)) => assert_eq!(l, idx),
                other => panic!("leaf {idx} not registered correctly: {other:?}"),
            }
            seen_keys += slot.leaf.len();
            seen_leaves += 1;
            prev_anchor = Some(anchor);
            prev = idx;
            idx = slot.next;
        }
        assert_eq!(seen_keys, self.len, "key count mismatch");
        assert_eq!(seen_leaves, self.leaf_count(), "leaf count mismatch");
    }
}

/// Batch-per-leaf [`CursorSource`] over the single-threaded index.
///
/// The cursor's `&'a` borrow freezes the structure (no splits or merges can
/// run while it is alive), so the source simply walks the LeafList by slot
/// index: one leaf per batch (or less, when the consumer's window budget
/// caps it), each read from the position the cursor hands in. The borrow
/// is shared, so a leaf's lagging key view cannot be sorted in place here
/// as the concurrent cursor does: its tail is merged on the fly through one
/// reusable index buffer, and steady-state batch advancement allocates
/// nothing. To interleave writes with a scan, drop the cursor and reopen at
/// [`Cursor::resume_key`].
struct UnsafeScanSource<'a, V> {
    wh: &'a WormholeUnsafe<V>,
    /// Next leaf to stream, [`NIL`] when exhausted.
    next: u32,
    /// Reusable index buffer for the lazy-tail merge, sized for a full
    /// leaf up front.
    scratch: Vec<u16>,
}

impl<V: Clone> CursorSource<V> for UnsafeScanSource<'_, V> {
    fn fill_next(&mut self, from: &[u8], batch: &mut ScanBatch<V>, take: Take) -> bool {
        let limit = match take {
            Take::Upto(count) => count.max(1),
            Take::Whole => usize::MAX,
        };
        batch.clear();
        while self.next != NIL && batch.is_empty() {
            let slot = self.wh.slot(self.next);
            slot.leaf
                .reserve_run(batch, self.wh.config.leaf_capacity, limit);
            let appended = slot
                .leaf
                .collect_leaf_unsorted(from, limit, batch, &mut self.scratch);
            // A batch the window budget may have truncated mid-leaf stays
            // on this leaf: the next fill starts past its last key.
            if appended < limit {
                self.next = slot.next;
            }
        }
        !batch.is_empty()
    }
}

impl<V: Clone> OrderedIndex<V> for WormholeUnsafe<V> {
    fn name(&self) -> &'static str {
        "wormhole-unsafe"
    }

    fn get(&self, key: &[u8]) -> Option<V> {
        let hash = crc32c(key);
        let leaf = self.locate_leaf(key);
        self.slot(leaf).leaf.get(key, hash, &self.config).cloned()
    }

    fn set(&mut self, key: &[u8], value: V) -> Option<V> {
        let hash = crc32c(key);
        let mut leaf_idx = self.locate_leaf(key);
        let config = self.config;
        self.slot(leaf_idx).leaf.prefetch_set();
        // Fast path: overwrite an existing key in place.
        if let Some(slot) = self.slot_mut(leaf_idx).leaf.get_mut(key, hash, &config) {
            return Some(std::mem::replace(slot, value));
        }
        // Split first when the leaf is full (Algorithm 2, SET).
        if self.slot(leaf_idx).leaf.len() >= self.config.leaf_capacity && self.split_leaf(leaf_idx)
        {
            let right = self.slot(leaf_idx).next;
            debug_assert_ne!(right, NIL);
            if key >= self.slot(right).leaf.anchor() {
                leaf_idx = right;
            }
        }
        // The leaf (or the half of it that now covers the key) was searched
        // above and did not hold it.
        let bin = &mut Bin::immediate();
        self.slot_mut(leaf_idx)
            .leaf
            .insert_absent(key, hash, value, &config, bin);
        self.len += 1;
        None
    }

    fn del(&mut self, key: &[u8]) -> Option<V> {
        let hash = crc32c(key);
        let config = self.config;
        let leaf_idx = self.locate_leaf(key);
        let leaf = &mut self.slot_mut(leaf_idx).leaf;
        let removed = leaf.remove(key, hash, &config, &mut Bin::immediate())?;
        self.len -= 1;
        // Merge with a neighbour when the combined size has dropped below
        // MergeSize (Algorithm 2, DEL).
        let size = self.slot(leaf_idx).leaf.len();
        let left = self.slot(leaf_idx).prev;
        let right = self.slot(leaf_idx).next;
        if left != NIL && core::merge_eligible(self.slot(left).leaf.len(), size, &self.config) {
            self.merge_leaves(left, leaf_idx);
        } else if right != NIL
            && core::merge_eligible(size, self.slot(right).leaf.len(), &self.config)
        {
            self.merge_leaves(leaf_idx, right);
        }
        Some(removed)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, V)> {
        // A thin materialising wrapper over the streaming cursor.
        let mut out = Vec::with_capacity(count.min(1024));
        if count == 0 {
            return out;
        }
        self.scan(start).collect_next(count, &mut out);
        out
    }

    fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, V>
    where
        V: Clone + 'a,
    {
        Cursor::new(
            start,
            Box::new(UnsafeScanSource {
                wh: self,
                next: self.locate_leaf(start),
                scratch: Vec::with_capacity(self.config.leaf_capacity),
            }),
        )
    }

    fn stats(&self) -> IndexStats {
        let mut stats = IndexStats {
            keys: self.len,
            key_bytes: 0,
            value_bytes: self.len * std::mem::size_of::<V>(),
            structure_bytes: self.meta.structure_bytes()
                + self.leaves.capacity() * std::mem::size_of::<Option<SlotLeaf<V>>>()
                + self.free.capacity() * std::mem::size_of::<u32>(),
        };
        for slot in self.leaves.iter().flatten() {
            stats.key_bytes += slot.leaf.key_bytes();
            stats.structure_bytes += slot.leaf.structure_bytes();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn small_config() -> WormholeConfig {
        WormholeConfig::optimized().with_leaf_capacity(8)
    }

    #[test]
    fn empty_index() {
        let mut wh: WormholeUnsafe<u64> = WormholeUnsafe::new();
        assert!(wh.is_empty());
        assert_eq!(wh.get(b"missing"), None);
        assert_eq!(wh.del(b"missing"), None);
        assert!(wh.range_from(b"", 10).is_empty());
        assert_eq!(wh.leaf_count(), 1);
        wh.check_invariants();
    }

    #[test]
    fn paper_example_with_splits() {
        let names = [
            "Aaron", "Abbe", "Andrew", "Austin", "Denice", "Jacob", "James", "Jason", "John",
            "Joseph", "Julian", "Justin",
        ];
        let mut wh = WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(4));
        for (i, name) in names.iter().enumerate() {
            wh.set(name.as_bytes(), i as u64);
            wh.check_invariants();
        }
        assert_eq!(wh.len(), 12);
        assert!(wh.leaf_count() >= 3, "capacity 4 with 12 keys must split");
        for (i, name) in names.iter().enumerate() {
            assert_eq!(wh.get(name.as_bytes()), Some(i as u64), "{name}");
        }
        // Lookups of absent keys from the paper's Figure 4 narrative.
        assert_eq!(wh.get(b"A"), None);
        assert_eq!(wh.get(b"Brown"), None);
        assert_eq!(wh.get(b"Zoe"), None);
        // Range query starting at an absent key.
        let out = wh.range_from(b"Brown", 3);
        let keys: Vec<String> = out
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, vec!["Denice", "Jacob", "James"]);
        // Prefix-style range query.
        let out = wh.range_from(b"J", 100);
        assert_eq!(out.len(), 7);
        assert_eq!(out[0].0, b"Jacob".to_vec());
        assert_eq!(out[6].0, b"Justin".to_vec());
    }

    #[test]
    fn overwrite_returns_previous_value() {
        let mut wh = WormholeUnsafe::with_config(small_config());
        assert_eq!(wh.set(b"key", 1u64), None);
        assert_eq!(wh.set(b"key", 2), Some(1));
        assert_eq!(wh.len(), 1);
        assert_eq!(wh.get(b"key"), Some(2));
    }

    #[test]
    fn thousands_of_sequential_keys() {
        let mut wh =
            WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(16));
        for i in 0..5000u64 {
            wh.set(format!("{i:08}").as_bytes(), i);
        }
        wh.check_invariants();
        assert_eq!(wh.len(), 5000);
        assert!(wh.leaf_count() > 100);
        for i in (0..5000u64).step_by(97) {
            assert_eq!(wh.get(format!("{i:08}").as_bytes()), Some(i));
        }
        let scan = wh.range_from(b"", usize::MAX);
        assert_eq!(scan.len(), 5000);
        for (i, (k, v)) in scan.iter().enumerate() {
            assert_eq!(k, format!("{i:08}").as_bytes());
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn random_insert_delete_cycles() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let mut wh = WormholeUnsafe::with_config(small_config());
        let mut keys: Vec<String> = (0..2000)
            .map(|i| format!("user:{:06}:profile", i * 37 % 2000))
            .collect();
        keys.shuffle(&mut rng);
        for (i, k) in keys.iter().enumerate() {
            wh.set(k.as_bytes(), i as u64);
        }
        wh.check_invariants();
        assert_eq!(wh.len(), 2000);
        // Delete half of them in a different order.
        keys.shuffle(&mut rng);
        for k in keys.iter().take(1000) {
            assert!(wh.del(k.as_bytes()).is_some(), "{k}");
        }
        wh.check_invariants();
        assert_eq!(wh.len(), 1000);
        for k in keys.iter().take(1000) {
            assert_eq!(wh.get(k.as_bytes()), None);
        }
        for k in keys.iter().skip(1000) {
            assert!(wh.get(k.as_bytes()).is_some(), "{k}");
        }
    }

    #[test]
    fn delete_everything_collapses_to_one_leaf() {
        let mut wh = WormholeUnsafe::with_config(small_config());
        for i in 0..500u64 {
            wh.set(format!("k{i:04}").as_bytes(), i);
        }
        assert!(wh.leaf_count() > 10);
        for i in 0..500u64 {
            assert_eq!(wh.del(format!("k{i:04}").as_bytes()), Some(i));
        }
        wh.check_invariants();
        assert!(wh.is_empty());
        assert_eq!(wh.leaf_count(), 1, "all leaves merge back into the head");
        // The index remains fully usable.
        wh.set(b"rebirth", 7);
        assert_eq!(wh.get(b"rebirth"), Some(7));
    }

    #[test]
    fn binary_keys_with_zero_bytes_and_prefix_keys() {
        let mut wh = WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(4));
        let keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![0, 0, 1],
            vec![1],
            vec![1, 0],
            vec![1, 0, 0],
            vec![1, 0, 0, 0],
            vec![1, 1],
            vec![1, 1, 1],
            vec![2, 0, 2],
            vec![255, 255],
        ];
        for (i, k) in keys.iter().enumerate() {
            wh.set(k, i as u64);
            wh.check_invariants();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(wh.get(k), Some(i as u64), "{k:?}");
        }
        let scan: Vec<Vec<u8>> = wh
            .range_from(&[], usize::MAX)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(scan, expect);
    }

    #[test]
    fn fat_node_keyset_never_splits_but_stays_correct() {
        // §3.3: keys sharing a prefix and differing only in trailing zero
        // bytes cannot produce a valid anchor; the leaf grows fat instead.
        let mut wh = WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(4));
        let keys: Vec<Vec<u8>> = (0..16)
            .map(|i| {
                let mut k = vec![7u8];
                k.extend(std::iter::repeat_n(0u8, i));
                k
            })
            .collect();
        for (i, k) in keys.iter().enumerate() {
            wh.set(k, i as u64);
            wh.check_invariants();
        }
        assert_eq!(wh.leaf_count(), 1, "fat node must not split");
        assert_eq!(wh.len(), 16);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(wh.get(k), Some(i as u64));
        }
    }

    #[test]
    fn all_optimization_configs_agree() {
        let keysets: Vec<Vec<u8>> = (0..600u32)
            .map(|i| format!("item{:05}-user{:03}", i * 7919 % 600, i % 50).into_bytes())
            .collect();
        let mut reference: Option<Vec<(Vec<u8>, u64)>> = None;
        for (name, config) in WormholeConfig::ablation_ladder() {
            let mut wh = WormholeUnsafe::with_config(config.with_leaf_capacity(16));
            for (i, k) in keysets.iter().enumerate() {
                wh.set(k, i as u64);
            }
            for (i, k) in keysets.iter().enumerate() {
                assert_eq!(wh.get(k), Some(i as u64), "{name}");
            }
            let scan = wh.range_from(b"", usize::MAX);
            match &reference {
                None => reference = Some(scan),
                Some(r) => assert_eq!(&scan, r, "{name} scan differs"),
            }
        }
    }

    #[test]
    fn stats_are_what_the_allocator_counts() {
        // The tests of `concurrent` install the counting allocator.
        let before = wh_telemetry::alloc::thread();
        let mut wh = WormholeUnsafe::new();
        for i in 0..20_000u64 {
            wh.set(format!("key-number-{i:06}").as_bytes(), i);
        }
        let live = wh_telemetry::alloc::thread().since(before).live_bytes as usize;
        let stats = wh.stats();
        assert_eq!((stats.keys, stats.key_bytes), (20_000, 20_000 * 17));
        let total = stats.total_bytes();
        assert!(total.abs_diff(live) * 100 <= live, "{total} B, {live} held");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_matches_btreemap_model(ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..12), any::<u64>(), any::<bool>()), 1..400)) {
            let mut wh = WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(6));
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for (key, value, is_delete) in ops {
                if is_delete {
                    prop_assert_eq!(wh.del(&key), model.remove(&key));
                } else {
                    prop_assert_eq!(wh.set(&key, value), model.insert(key.clone(), value));
                }
                prop_assert_eq!(wh.len(), model.len());
            }
            wh.check_invariants();
            for (k, v) in &model {
                prop_assert_eq!(wh.get(k), Some(*v));
            }
            let scan = wh.range_from(b"", usize::MAX);
            let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            prop_assert_eq!(scan, expect);
        }

        #[test]
        fn prop_range_from_matches_model(keys in proptest::collection::btree_set(
            proptest::collection::vec(any::<u8>(), 0..10), 1..150),
            start in proptest::collection::vec(any::<u8>(), 0..10),
            count in 0usize..30) {
            let mut wh = WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(6));
            for (i, k) in keys.iter().enumerate() {
                wh.set(k, i as u64);
            }
            let got: Vec<Vec<u8>> = wh.range_from(&start, count).into_iter().map(|(k, _)| k).collect();
            let expect: Vec<Vec<u8>> = keys.iter().filter(|k| k.as_slice() >= start.as_slice())
                .take(count).cloned().collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_base_config_matches_model(ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..10), any::<u64>(), any::<bool>()), 1..200)) {
            let mut wh = WormholeUnsafe::with_config(WormholeConfig::base().with_leaf_capacity(6));
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for (key, value, is_delete) in ops {
                if is_delete {
                    prop_assert_eq!(wh.del(&key), model.remove(&key));
                } else {
                    prop_assert_eq!(wh.set(&key, value), model.insert(key.clone(), value));
                }
            }
            wh.check_invariants();
            for (k, v) in &model {
                prop_assert_eq!(wh.get(k), Some(*v));
            }
        }
    }
}
