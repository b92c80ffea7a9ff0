//! The reference: the standard library's maps, doing what the slice just
//! made did, on the same thread, right after it.
//!
//! This host shares its cores with other virtual machines. When one of
//! them runs on the sibling hardware thread, everything here slows down by
//! a half to a whole for minutes or an hour, so a time measured in one run
//! says more about the neighbours than about the program. The reference
//! slows down with the workload: it is code no change to the repository
//! touches, it walks the same keys in the same order, and it runs within
//! milliseconds of the slice it follows. The gated rate and latency
//! metrics are therefore ratios to it: operations per operation of the
//! reference, not per second.
//!
//! How much a busy sibling thread costs depends on what the code waits
//! for. A chain of dependent cache misses (a tree descent) loses a half;
//! misses that overlap (a hash probe, `get_batch`) lose more than a whole.
//! So the reference is made of the kind of work its workload does: an
//! ordered map for the ordered operations, and a hash map beside it where
//! the workload overlaps its misses.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::Instant;

use crate::gen;
use crate::workload::Replay;

pub type Tree = BTreeMap<Vec<u8>, u64>;

/// The pairs `keys[i] -> values[i]` as an ordered map.
pub fn tree_of(keys: &[Vec<u8>], values: &[u64]) -> Tree {
    keys.iter().cloned().zip(values.iter().copied()).collect()
}

/// Up to `limit` pairs from `start` on: how many there were, and their
/// values folded in order by [`gen::scan_digest`].
pub fn scan(tree: &Tree, start: &[u8], limit: usize) -> (usize, u64) {
    tree.range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
        .take(limit)
        .fold((0, 0), |(count, digest), (_, value)| {
            (count + 1, gen::scan_digest(digest, *value))
        })
}

/// Times `f`, which makes `ops` operations on the reference and returns
/// how many of them answered wrongly.
pub fn timed(ops: u64, f: impl FnOnce() -> u64) -> Replay {
    let clock = Instant::now();
    let wrong = f();
    Replay {
        ops,
        wall_s: clock.elapsed().as_secs_f64(),
        wrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_counts_and_folds_in_key_order() {
        let keys: Vec<Vec<u8>> = [b"b", b"a", b"d", b"c"]
            .iter()
            .map(|k| k.to_vec())
            .collect();
        let tree = tree_of(&keys, &[2, 1, 4, 3]);
        let fold = |values: &[u64]| values.iter().fold(0, |d, v| gen::scan_digest(d, *v));
        assert_eq!(scan(&tree, b"b", 2), (2, fold(&[2, 3])));
        assert_eq!(scan(&tree, b"bb", 9), (2, fold(&[3, 4])));
        assert_eq!(scan(&tree, b"e", 9), (0, 0));
    }

    #[test]
    fn timed_reports_what_the_closure_did() {
        let replay = timed(7, || 2);
        assert_eq!((replay.ops, replay.wrong), (7, 2));
        assert!(replay.wall_s >= 0.0);
    }
}
