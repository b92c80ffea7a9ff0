//! Uniform drivers over every index in the workspace.

use baseline_art::Art;
use baseline_btree::BPlusTree;
use baseline_cuckoo::CuckooHashTable;
use baseline_masstree::Masstree;
use baseline_skiplist::SkipList;
use index_traits::{ConcurrentOrderedIndex, Cursor, IndexStats, OrderedIndex, UnorderedIndex};
use parking_lot::RwLock;
use wormhole::{Wormhole, WormholeConfig, WormholeUnsafe};

/// The index implementations compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// LevelDB-style skip list.
    SkipList,
    /// STX-style B+ tree (fanout 128).
    BTree,
    /// Adaptive radix tree.
    Art,
    /// Masstree (trie of B+ trees).
    Masstree,
    /// Thread-safe Wormhole.
    Wormhole,
    /// Thread-unsafe Wormhole.
    WormholeUnsafe,
    /// Cuckoo hash table (unordered, Figures 13–14 only).
    Cuckoo,
}

impl IndexKind {
    /// The five ordered indexes of Figures 10, 12, 15, 16.
    pub fn ordered_five() -> [IndexKind; 5] {
        [
            IndexKind::SkipList,
            IndexKind::BTree,
            IndexKind::Art,
            IndexKind::Masstree,
            IndexKind::Wormhole,
        ]
    }

    /// Display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::SkipList => "SkipList",
            IndexKind::BTree => "B+tree",
            IndexKind::Art => "ART",
            IndexKind::Masstree => "Masstree",
            IndexKind::Wormhole => "Wormhole",
            IndexKind::WormholeUnsafe => "Wormhole-unsafe",
            IndexKind::Cuckoo => "Cuckoo",
        }
    }
}

/// An instantiated index of any kind, with a uniform API for the harness.
pub enum AnyIndex {
    /// LevelDB-style skip list.
    SkipList(SkipList<u64>),
    /// STX-style B+ tree.
    BTree(BPlusTree<u64>),
    /// Adaptive radix tree.
    Art(Art<u64>),
    /// Masstree.
    Masstree(Masstree<u64>),
    /// Thread-safe Wormhole.
    Wormhole(Wormhole<u64>),
    /// Thread-unsafe Wormhole.
    WormholeUnsafe(WormholeUnsafe<u64>),
    /// Cuckoo hash table.
    Cuckoo(CuckooHashTable<u64>),
}

impl AnyIndex {
    /// Creates an empty index of the given kind.
    pub fn new(kind: IndexKind) -> Self {
        match kind {
            IndexKind::SkipList => AnyIndex::SkipList(SkipList::new()),
            IndexKind::BTree => AnyIndex::BTree(BPlusTree::new()),
            IndexKind::Art => AnyIndex::Art(Art::new()),
            IndexKind::Masstree => AnyIndex::Masstree(Masstree::new()),
            IndexKind::Wormhole => AnyIndex::Wormhole(Wormhole::new()),
            IndexKind::WormholeUnsafe => AnyIndex::WormholeUnsafe(WormholeUnsafe::new()),
            IndexKind::Cuckoo => AnyIndex::Cuckoo(CuckooHashTable::new()),
        }
    }

    /// Creates an empty Wormhole (thread-unsafe) with a specific
    /// configuration — used by the Figure 11 ablation.
    pub fn wormhole_with_config(config: WormholeConfig) -> Self {
        AnyIndex::WormholeUnsafe(WormholeUnsafe::with_config(config))
    }

    /// Which kind this instance is.
    pub fn kind(&self) -> IndexKind {
        match self {
            AnyIndex::SkipList(_) => IndexKind::SkipList,
            AnyIndex::BTree(_) => IndexKind::BTree,
            AnyIndex::Art(_) => IndexKind::Art,
            AnyIndex::Masstree(_) => IndexKind::Masstree,
            AnyIndex::Wormhole(_) => IndexKind::Wormhole,
            AnyIndex::WormholeUnsafe(_) => IndexKind::WormholeUnsafe,
            AnyIndex::Cuckoo(_) => IndexKind::Cuckoo,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Inserts a key (single-threaded build phase).
    pub fn insert(&mut self, key: &[u8], value: u64) {
        match self {
            AnyIndex::SkipList(i) => {
                i.set(key, value);
            }
            AnyIndex::BTree(i) => {
                i.set(key, value);
            }
            AnyIndex::Art(i) => {
                i.set(key, value);
            }
            AnyIndex::Masstree(i) => {
                i.set(key, value);
            }
            AnyIndex::Wormhole(i) => {
                i.set(key, value);
            }
            AnyIndex::WormholeUnsafe(i) => {
                i.set(key, value);
            }
            AnyIndex::Cuckoo(i) => {
                i.set(key, value);
            }
        }
    }

    /// Point lookup (shared access).
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        match self {
            AnyIndex::SkipList(i) => i.get(key),
            AnyIndex::BTree(i) => i.get(key),
            AnyIndex::Art(i) => i.get(key),
            AnyIndex::Masstree(i) => i.get(key),
            AnyIndex::Wormhole(i) => i.get(key),
            AnyIndex::WormholeUnsafe(i) => i.get(key),
            AnyIndex::Cuckoo(i) => i.get(key),
        }
    }

    /// Range query (shared access); panics for the cuckoo hash table, which
    /// cannot serve ordered scans — exactly the limitation Figure 13 is
    /// about.
    pub fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        match self {
            AnyIndex::SkipList(i) => i.range_from(start, count),
            AnyIndex::BTree(i) => i.range_from(start, count),
            AnyIndex::Art(i) => i.range_from(start, count),
            AnyIndex::Masstree(i) => i.range_from(start, count),
            AnyIndex::Wormhole(i) => i.range_from(start, count),
            AnyIndex::WormholeUnsafe(i) => i.range_from(start, count),
            AnyIndex::Cuckoo(_) => panic!("a hash table cannot serve range queries"),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        match self {
            AnyIndex::SkipList(i) => i.len(),
            AnyIndex::BTree(i) => i.len(),
            AnyIndex::Art(i) => i.len(),
            AnyIndex::Masstree(i) => i.len(),
            AnyIndex::Wormhole(i) => ConcurrentOrderedIndex::len(i),
            AnyIndex::WormholeUnsafe(i) => i.len(),
            AnyIndex::Cuckoo(i) => i.len(),
        }
    }

    /// Returns `true` when the index stores no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory accounting.
    pub fn stats(&self) -> IndexStats {
        match self {
            AnyIndex::SkipList(i) => i.stats(),
            AnyIndex::BTree(i) => i.stats(),
            AnyIndex::Art(i) => i.stats(),
            AnyIndex::Masstree(i) => i.stats(),
            AnyIndex::Wormhole(i) => ConcurrentOrderedIndex::stats(i),
            AnyIndex::WormholeUnsafe(i) => i.stats(),
            AnyIndex::Cuckoo(i) => i.stats(),
        }
    }

    /// Builds an index of `kind` over `keys` (values are the key positions).
    pub fn build(kind: IndexKind, keys: &[Vec<u8>]) -> Self {
        let mut index = Self::new(kind);
        for (i, key) in keys.iter().enumerate() {
            index.insert(key, i as u64);
        }
        index
    }
}

/// A Masstree wrapped in a reader/writer lock so it can stand in for the
/// original's internally synchronised implementation in the multi-threaded
/// read/write experiment (Figure 17). The substitution penalises Masstree
/// under write-heavy mixes, which is to be read into the Figure 17 results.
pub struct LockedMasstree {
    inner: RwLock<Masstree<u64>>,
}

impl Default for LockedMasstree {
    fn default() -> Self {
        Self::new()
    }
}

impl LockedMasstree {
    /// Creates an empty locked Masstree.
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(Masstree::new()),
        }
    }
}

impl ConcurrentOrderedIndex<u64> for LockedMasstree {
    fn name(&self) -> &'static str {
        "masstree-rwlock"
    }

    fn get(&self, key: &[u8]) -> Option<u64> {
        self.inner.read().get(key)
    }

    fn set(&self, key: &[u8], value: u64) -> Option<u64> {
        self.inner.write().set(key, value)
    }

    fn del(&self, key: &[u8]) -> Option<u64> {
        self.inner.write().del(key)
    }

    fn len(&self) -> usize {
        self.inner.read().len()
    }

    fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, u64> {
        Cursor::adapt_range_from(start, |from, count| {
            self.inner.read().range_from(from, count)
        })
    }

    /// The tree's own window read, under one read lock.
    fn range_from(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        self.inner.read().range_from(start, count)
    }

    fn stats(&self) -> IndexStats {
        self.inner.read().stats()
    }
}

/// A thread-safe driver for the read/write experiments (Figure 17).
pub enum ConcurrentDriver {
    /// The thread-safe Wormhole.
    Wormhole(Wormhole<u64>),
    /// Masstree behind a reader/writer lock (see [`LockedMasstree`]).
    Masstree(LockedMasstree),
}

impl ConcurrentDriver {
    /// Display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            ConcurrentDriver::Wormhole(_) => "WH",
            ConcurrentDriver::Masstree(_) => "MT",
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        match self {
            ConcurrentDriver::Wormhole(i) => i.get(key),
            ConcurrentDriver::Masstree(i) => i.get(key),
        }
    }

    /// Insert or overwrite.
    pub fn set(&self, key: &[u8], value: u64) -> Option<u64> {
        match self {
            ConcurrentDriver::Wormhole(i) => i.set(key, value),
            ConcurrentDriver::Masstree(i) => i.set(key, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_serve_lookups() {
        let keys: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("key-{i:05}").into_bytes())
            .collect();
        for kind in [
            IndexKind::SkipList,
            IndexKind::BTree,
            IndexKind::Art,
            IndexKind::Masstree,
            IndexKind::Wormhole,
            IndexKind::WormholeUnsafe,
            IndexKind::Cuckoo,
        ] {
            let index = AnyIndex::build(kind, &keys);
            assert_eq!(index.len(), keys.len(), "{}", index.name());
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(index.get(k), Some(i as u64), "{}", index.name());
            }
            assert_eq!(index.get(b"missing"), None);
        }
    }

    #[test]
    fn ordered_kinds_agree_on_ranges() {
        let keys: Vec<Vec<u8>> = (0..300u32)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        let reference = AnyIndex::build(IndexKind::BTree, &keys).range_from(b"k0100", 20);
        for kind in IndexKind::ordered_five() {
            let index = AnyIndex::build(kind, &keys);
            assert_eq!(
                index.range_from(b"k0100", 20),
                reference,
                "{}",
                index.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot serve range queries")]
    fn cuckoo_rejects_ranges() {
        let index = AnyIndex::build(IndexKind::Cuckoo, &[b"a".to_vec()]);
        let _ = index.range_from(b"", 1);
    }

    #[test]
    fn locked_masstree_is_thread_safe() {
        use std::sync::Arc;
        let index = Arc::new(LockedMasstree::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let index = Arc::clone(&index);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    index.set(format!("t{t}-{i:04}").as_bytes(), i);
                    assert_eq!(index.get(format!("t{t}-{i:04}").as_bytes()), Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ConcurrentOrderedIndex::len(&*index), 2000);
    }
}
