//! A durable `set` or `del` allocates nothing: the frame is encoded in
//! place into the log's pending buffer, the value by its own encoder, and
//! the index overwrites or removes in place. Once a batch as large has
//! been sealed, the pending buffer does not grow either: the sealed
//! batch's buffer comes back as the next one.
//!
//! Its own test binary, because it installs a counting
//! `#[global_allocator]`.

use index_traits::{ConcurrentOrderedIndex, DurableIndex};
use wh_durable::{DurableOptions, DurableWormhole, SyncPolicy};
use wh_telemetry::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

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

    // Warm-up: overwrite every key and remove one in eight, then seal the
    // batch, so the pending buffer's capacity already covers as many bytes
    // as the measured round below adds.
    for key in &keys {
        assert_eq!(idx.set(key, 1).map(|_| ()), Some(()));
    }
    for key in keys.iter().step_by(8) {
        assert_eq!(idx.del(key), Some(1));
    }
    idx.wal_sync().unwrap();
    let before = alloc::thread();
    // Measured: overwrite every resident key, remove another one in eight
    // of the first half (away from the last leaf, which a split at the
    // tail leaves small: every leaf stays above its merge size).
    for (_, key) in keys.iter().enumerate().filter(|(i, _)| i % 8 != 0) {
        assert_eq!(idx.set(key, 2), Some(1));
    }
    for key in keys[..keys.len() / 2].iter().skip(4).step_by(8) {
        assert_eq!(idx.del(key), Some(2));
    }
    let spent = alloc::thread().since(before);
    assert_eq!(spent.allocs, 0, "a set or del allocated a block");
    assert_eq!(spent.reallocs, 0, "the pending buffer was resized");
    drop(idx);
    std::fs::remove_dir_all(&dir).unwrap();
}
