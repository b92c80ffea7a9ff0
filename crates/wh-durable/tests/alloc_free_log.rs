//! A durable `set` or `del` allocates nothing beyond the growth of the
//! log's pending buffer: the frame is encoded in place, the value by its
//! own encoder, and the index overwrites or removes in place.
//!
//! Its own test binary, because it installs a counting
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use index_traits::{ConcurrentOrderedIndex, DurableIndex};
use wh_durable::{DurableOptions, DurableWormhole, SyncPolicy};

thread_local! {
    /// Fresh blocks (`alloc`) the current thread has asked for.
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    /// Resizes (`realloc`) of a block the current thread already owned.
    static RESIZES: Cell<usize> = const { Cell::new(0) };
}

/// Wraps the system allocator and counts, per thread, so the test harness'
/// own threads do not leak into the count.
struct CountingAllocator;

// SAFETY: defers entirely to `System`; the thread-local counters are plain
// `Cell<usize>`s with const init, so touching them never allocates or drops.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        RESIZES.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn counts() -> (usize, usize) {
    (BLOCKS.with(Cell::get), RESIZES.with(Cell::get))
}

fn key(i: u64) -> [u8; 12] {
    let mut key = *b"key-00000000";
    key[4..].copy_from_slice(format!("{i:08}").as_bytes());
    key
}

#[test]
fn durable_set_and_del_of_an_existing_key_allocate_nothing() {
    const KEYS: u64 = 8_192;
    let dir = std::env::temp_dir().join(format!("wh-durable-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Manual: no commit between the operations, so the pending buffer is
    // never stolen (an `Always` commit hands the whole buffer to storage
    // and the next frame starts a new one).
    let options = DurableOptions {
        sync: SyncPolicy::Manual,
        ..DurableOptions::default()
    };
    let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, options).unwrap();
    let keys: Vec<[u8; 12]> = (0..KEYS).map(key).collect();
    for (i, key) in keys.iter().enumerate() {
        idx.set(key, i as u64);
    }
    idx.wal_sync().unwrap();

    // Warm-up: overwrite every key and remove one in eight, so the pending
    // buffer's capacity already covers as many bytes as the measured
    // round below adds.
    for key in &keys {
        assert_eq!(idx.set(key, 1).map(|_| ()), Some(()));
    }
    for key in keys.iter().step_by(8) {
        assert_eq!(idx.del(key), Some(1));
    }
    let before = counts();
    // Measured: overwrite every resident key, remove another one in eight
    // of the first half (away from the last leaf, which a split at the
    // tail leaves small: every leaf stays above its merge size).
    for (_, key) in keys.iter().enumerate().filter(|(i, _)| i % 8 != 0) {
        assert_eq!(idx.set(key, 2), Some(1));
    }
    for key in keys[..keys.len() / 2].iter().skip(4).step_by(8) {
        assert_eq!(idx.del(key), Some(2));
    }
    let (blocks, resizes) = counts();
    assert_eq!(blocks - before.0, 0, "a set or del allocated a block");
    // The pending buffer grows by doubling: at most once in a round no
    // longer than the one before it.
    assert!(resizes - before.1 <= 1, "{} resizes", resizes - before.1);
    drop(idx);
    std::fs::remove_dir_all(&dir).unwrap();
}
