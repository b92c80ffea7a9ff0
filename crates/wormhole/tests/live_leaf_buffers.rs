//! A split or a merge of a leaf that lock-free readers may be walking frees
//! no item vector: the vectors it replaces go to the garbage bin whole, and
//! none is reallocated in place on the way, so a reader that loaded a
//! buffer pointer keeps reading allocated memory. A binary of its own,
//! because the counting allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parking_lot::Mutex;
use wh_hash::crc32c;
use wormhole::leaf::{Bin, LeafGarbage, LeafNode};
use wormhole::WormholeConfig;

thread_local! {
    /// Whether this thread's frees are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Blocks of an item vector's layout this thread freed while counting.
    static ITEM_FREES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the frees of blocks laid out like a
/// `u64` leaf's item vector: sixteen-byte records (a key pointer and the
/// value) aligned to eight.
struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counters are thread-local cells
// without destructors, so touching them allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.align() == 8 && layout.size().is_multiple_of(16) && COUNTING.get() {
            ITEM_FREES.set(ITEM_FREES.get() + 1);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its answer and how many item-vector-shaped blocks
/// it freed. The answer is dropped after counting stops.
fn item_frees<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ITEM_FREES.set(0);
    COUNTING.set(true);
    let answer = f();
    COUNTING.set(false);
    (answer, ITEM_FREES.get())
}

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
            let (right, freed) =
                item_frees(|| left.split_off(at, key(at), key(at), &mut Bin::deferred(&store)));
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
        let ((), freed) = item_frees(|| left.absorb(victim, &mut Bin::deferred(&store)));
        assert_eq!(
            freed, 0,
            "a merge of {n} and {m} items freed an item vector"
        );
        assert_eq!(left.len(), n + m);
        left.check_invariants();
        drop(store.lock().take());
    }
}
