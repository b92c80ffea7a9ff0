//! The shared split/merge core engine.
//!
//! Both Wormhole variants — the single-threaded
//! [`WormholeUnsafe`](crate::single::WormholeUnsafe) and the concurrent
//! [`Wormhole`](crate::concurrent::Wormhole) — perform the same structural
//! work when a leaf overflows or underflows: pick a split point and form the
//! new anchor (§2.2 with the §3.3 fat-node relaxation), reserve the anchor's
//! table key, carve the leaf in two, decide merge eligibility (Algorithm 2),
//! and rewrite every affected MetaTrieHT item (Algorithm 4). This module
//! owns that logic in exactly one place; the variants keep only their
//! representation-specific halves (arena indices vs `Arc` handles, no
//! locking vs leaf seqlocks plus the T2-then-T1 double-table protocol) and
//! consume the core's outputs:
//!
//! * `anchor_between` — the anchor rule (common prefix plus one byte,
//!   never ending in ⊥). It is written here and nowhere else: a live split
//!   and the concurrent index's bulk load both form anchors through it;
//! * [`prepare_split`] — split-point selection ([`choose_split_point`]),
//!   anchor formation, anchor table-key reservation, and the leaf-level
//!   carve ([`LeafNode::split_off`]);
//! * [`merge_eligible`] — Algorithm 2's `MergeSize` test.
//!
//! The MetaTrieHT side of either operation is one
//! [`MetaUpdate`](crate::meta::MetaUpdate) that the table runs on itself in
//! place ([`MetaTable::apply`]): once in the single-threaded index, once per
//! table in the concurrent one.

use crate::config::WormholeConfig;
use crate::leaf::{Bin, LeafNode};
use crate::meta::{LeafRef, MetaTable};

/// The anchor rule of §2.2 with the §3.3 relaxation, and the only place it
/// is written: the anchor between adjacent keys `prev < next` is their
/// common prefix plus `next`'s following byte. `None` when that byte is ⊥
/// (zero): an anchor ending in the smallest token would be ambiguous
/// against anchors that differ only by trailing ⊥ tokens, so the two keys
/// cannot be split apart (fat nodes).
pub(crate) fn anchor_between(prev: &[u8], next: &[u8]) -> Option<Vec<u8>> {
    let cpl = index_traits::common_prefix_len(prev, next);
    debug_assert!(cpl < next.len(), "adjacent keys must be ascending");
    (next[cpl] != 0).then(|| next[..=cpl].to_vec())
}

/// Chooses a split position and the new right sibling's logical anchor:
/// starting from the middle, the first adjacent pair `(i-1, i)` that
/// `anchor_between` can separate. Returns `None` when no valid split
/// point exists — the caller keeps the leaf as a *fat node*.
pub fn choose_split_point<V>(leaf: &mut LeafNode<V>) -> Option<(usize, Vec<u8>)> {
    leaf.ensure_key_sorted();
    let n = leaf.len();
    if n < 2 {
        return None;
    }
    // Try the middle first, then walk outwards (the paper: "Try another i
    // in range [1, size-1]").
    let mid = n / 2;
    for delta in 0..n {
        for i in [mid.wrapping_sub(delta), mid + delta] {
            if (1..n).contains(&i) {
                if let Some(anchor) = anchor_between(leaf.key_at(i - 1), leaf.key_at(i)) {
                    return Some((i, anchor));
                }
            }
        }
    }
    None
}

/// The representation-independent outcome of the leaf-level half of a split.
#[derive(Debug)]
pub struct PreparedSplit<V> {
    /// The new right sibling's logical anchor.
    pub anchor: Vec<u8>,
    /// The anchor as reserved in the MetaTrieHT (may carry appended ⊥
    /// tokens to satisfy the prefix condition).
    pub table_key: Vec<u8>,
    /// The carved-off right half; the caller links it into its leaf list and
    /// registers it through [`MetaTable::apply`].
    pub right: LeafNode<V>,
}

/// Performs the representation-independent half of a split: selects the
/// split point, forms the anchor, reserves its table key against `table`,
/// and carves `leaf` in two. Returns `None` when no valid anchor exists —
/// the leaf stays whole and grows past the nominal capacity (§3.3).
pub fn prepare_split<V, L: LeafRef>(
    leaf: &mut LeafNode<V>,
    table: &MetaTable<L>,
    bin: &mut Bin<'_, V>,
) -> Option<PreparedSplit<V>> {
    let (at, anchor) = choose_split_point(leaf)?;
    let table_key = table.reserve_anchor_key(&anchor);
    let right = leaf.split_off(at, anchor.clone(), table_key.clone(), bin);
    Some(PreparedSplit {
        anchor,
        table_key,
        right,
    })
}

/// Algorithm 2's merge test: two adjacent leaves merge when their combined
/// size has dropped below `MergeSize`.
pub fn merge_eligible(left_len: usize, victim_len: usize, config: &WormholeConfig) -> bool {
    left_len + victim_len < config.merge_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_hash::crc32c;

    fn cfg() -> WormholeConfig {
        WormholeConfig::optimized().with_leaf_capacity(16)
    }

    fn insert(leaf: &mut LeafNode<u64>, key: &[u8], value: u64, config: &WormholeConfig) {
        leaf.insert_absent(key, crc32c(key), value, config, &mut Bin::immediate());
    }

    #[test]
    fn choose_split_prefers_middle_and_short_anchor() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        let names = [
            "Aaron", "Abbe", "Andrew", "Austin", "Denice", "Jacob", "James", "Jason",
        ];
        for n in names {
            insert(&mut leaf, n.as_bytes(), 0, &config);
        }
        let (at, anchor) = choose_split_point(&mut leaf).expect("split point");
        assert_eq!(at, 4);
        // Keys sorted: Aaron Abbe Andrew Austin | Denice Jacob James Jason.
        // Common prefix of "Austin" and "Denice" is empty -> anchor "D".
        assert_eq!(anchor, b"D".to_vec());
    }

    #[test]
    fn choose_split_skips_zero_terminated_candidates() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        // Keys crafted so the middle candidate would end in a zero byte.
        let keys: Vec<Vec<u8>> = vec![
            vec![1],
            vec![1, 0],
            vec![1, 0, 0],
            vec![1, 0, 0, 0],
            vec![1, 1],
            vec![1, 1, 1],
        ];
        for (i, k) in keys.iter().enumerate() {
            insert(&mut leaf, k, i as u64, &config);
        }
        let (at, anchor) = choose_split_point(&mut leaf).expect("the 1/11 boundary is splittable");
        assert_eq!(anchor, vec![1, 1]);
        assert_eq!(at, 4);
    }

    #[test]
    fn choose_split_returns_none_for_fat_node_keyset() {
        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        // Every adjacent pair differs only by trailing zero bytes: no valid
        // split position exists (§3.3's fat-node example).
        let keys: Vec<Vec<u8>> = vec![vec![1], vec![1, 0], vec![1, 0, 0], vec![1, 0, 0, 0]];
        for (i, k) in keys.iter().enumerate() {
            insert(&mut leaf, k, i as u64, &config);
        }
        assert!(choose_split_point(&mut leaf).is_none());
    }

    #[test]
    fn prepare_split_reserves_extended_table_key() {
        // When the chosen anchor collides with an existing table item, the
        // reserved table key carries appended ⊥ tokens while the logical
        // anchor does not.
        let mut table: MetaTable<u32> = MetaTable::new();
        table.install_root_leaf(1);
        let key = table.reserve_anchor_key(b"Jo");
        table.apply(&crate::meta::MetaUpdate::Split {
            table_key: key,
            new_leaf: 2,
            split_leaf: 1,
            old_right: None,
        });

        let config = cfg();
        let mut leaf = LeafNode::new(Vec::new(), Vec::new());
        for k in ["Joa", "Job", "Joc", "Jod"] {
            insert(&mut leaf, k.as_bytes(), 0, &config);
        }
        let prepared = prepare_split(&mut leaf, &table, &mut Bin::immediate()).expect("splittable");
        assert_eq!(prepared.anchor, b"Joc".to_vec());
        assert_eq!(prepared.table_key, b"Joc".to_vec());
        assert_eq!(prepared.right.anchor(), b"Joc");
        assert_eq!(prepared.right.table_key(), b"Joc");
        assert_eq!(leaf.len() + prepared.right.len(), 4);
    }

    #[test]
    fn merge_eligibility_uses_merge_size() {
        let config = WormholeConfig::optimized().with_leaf_capacity(16);
        assert!(merge_eligible(3, 4, &config));
        assert!(!merge_eligible(4, 4, &config));
        assert!(!merge_eligible(16, 0, &config));
    }
}
