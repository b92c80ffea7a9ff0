//! A split or a merge of a leaf that lock-free readers may be walking frees
//! no item vector: the vectors it replaces go to the garbage bin whole, and
//! none is reallocated in place on the way, so a reader that loaded a
//! buffer pointer keeps reading allocated memory. A binary of its own,
//! because the counting allocator is global.

use parking_lot::Mutex;
use wh_hash::crc32c;
use wh_telemetry::alloc::{self, CountingAlloc};
use wormhole::leaf::{Bin, LeafGarbage, LeafNode};
use wormhole::WormholeConfig;

/// Watches blocks laid out like a `u64` leaf's item vector: sixteen-byte
/// records (a key pointer and the value) aligned to eight.
#[global_allocator]
static ALLOC: CountingAlloc =
    CountingAlloc::watching(|layout| layout.align() == 8 && layout.size().is_multiple_of(16));

fn config() -> WormholeConfig {
    WormholeConfig::optimized().with_leaf_capacity(64)
}

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

/// A leaf holding the keys `from..to`, its key view sorted.
fn leaf(from: usize, to: usize) -> LeafNode<u64> {
    let config = config();
    let mut leaf = LeafNode::new(key(from), key(from));
    for i in from..to {
        let key = key(i);
        leaf.insert_absent(&key, crc32c(&key), i as u64, &config, &mut Bin::immediate());
    }
    leaf.ensure_key_sorted();
    leaf
}

/// A garbage store with room for every block one split or merge below
/// retires, so that its own growth frees nothing while they are counted.
fn roomy_store() -> Mutex<LeafGarbage<u64>> {
    let config = config();
    let store = Mutex::new(LeafGarbage::default());
    let mut filler = leaf(0, 128);
    for i in 0..128 {
        let key = key(i);
        filler.remove(&key, crc32c(&key), &config, &mut Bin::deferred(&store));
    }
    drop(store.lock().take());
    store
}

#[test]
fn a_split_frees_no_item_vector() {
    let store = roomy_store();
    for n in [2, 5, 8, 9, 16, 17, 40] {
        let whole = leaf(0, n);
        for at in 1..n {
            let mut left = whole.clone();
            let before = alloc::thread();
            let right = left.split_off(at, key(at), key(at), &mut Bin::deferred(&store));
            let freed = alloc::thread().since(before).watched_frees;
            assert_eq!(
                freed, 0,
                "a split of {n} items at {at} freed an item vector"
            );
            assert_eq!((left.len(), right.len()), (at, n - at));
            left.check_invariants();
            right.check_invariants();
            drop(store.lock().take());
        }
    }
}

#[test]
fn a_merge_frees_no_item_vector() {
    let store = roomy_store();
    for (n, m) in [(1, 1), (3, 5), (8, 8), (4, 13), (20, 21)] {
        let mut left = leaf(0, n);
        let victim = leaf(n, n + m);
        let before = alloc::thread();
        left.absorb(victim, &mut Bin::deferred(&store));
        let freed = alloc::thread().since(before).watched_frees;
        assert_eq!(
            freed, 0,
            "a merge of {n} and {m} items freed an item vector"
        );
        assert_eq!(left.len(), n + m);
        left.check_invariants();
        drop(store.lock().take());
    }
}
