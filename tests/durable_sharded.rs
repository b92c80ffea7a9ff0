//! The durable front over the sharded index: one write-ahead log above
//! the router, so boundary migrations log nothing and a range removal
//! across shards is one record. Batched reads pass through the log to the
//! index underneath, on both the plain and the sharded front.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use index_traits::{ConcurrentOrderedIndex, DurableIndex, FromSorted};
use wh_durable::{DurableOptions, DurableWormhole, SyncPolicy};
use wh_shard::{ShardedConfig, ShardedWormhole};
use wormhole::WormholeConfig;

type Store = DurableWormhole<u64, ShardedWormhole<u64>>;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("durable-sharded-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Three shards split at `h0` and `p0`, leaves of eight keys. The range
/// test stores both boundary keys, which belong to the shard on their right.
fn options() -> DurableOptions<ShardedConfig> {
    DurableOptions {
        config: ShardedConfig::with_boundaries(vec![b"h0".to_vec(), b"p0".to_vec()])
            .with_inner(WormholeConfig::optimized().with_leaf_capacity(8)),
        sync: SyncPolicy::Always,
    }
}

#[test]
fn migrations_racing_writers_and_checkpoints_recover_the_acknowledged_state() {
    let dir = test_dir("migrate");
    let store = Store::open_with(&dir, options()).unwrap();
    let stop = AtomicBool::new(false);
    let written = AtomicUsize::new(0);
    // Each maintenance step waits for fresh writes, so every migration and
    // checkpoint runs between writes.
    let after_writes = |n: usize| {
        while written.load(Ordering::Relaxed) < n {
            std::thread::yield_now();
        }
    };
    let moved = std::thread::scope(|scope| {
        for w in 0..3u64 {
            let (store, stop, written) = (&store, &stop, &written);
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = |i: u64| format!("{}-{w}-{i:05}", (b'a' + (i % 26) as u8) as char);
                    store.set(key(i).as_bytes(), i);
                    if i >= 26 && i.is_multiple_of(5) {
                        store.del(key(i - 26).as_bytes());
                    }
                    written.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // Boundary 0 back and forth between `d` and `l`: each move re-homes
        // the keys between the two through freeze, copy, publish and drain.
        let migrator = scope.spawn(|| {
            (0..6).fold(0, |moved, round| {
                after_writes(300 * (round + 1));
                let target: &[u8] = if round % 2 == 0 { b"d" } else { b"l" };
                moved
                    + store
                        .index()
                        .migrate_boundary(0, target)
                        .unwrap()
                        .moved_keys
            })
        });
        for round in 0..3 {
            after_writes(500 * (round + 1));
            store.checkpoint().unwrap();
        }
        let moved = migrator.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        moved
    });
    assert!(moved > 0, "no migration moved a key");
    let expected = store.range_from(b"", usize::MAX);
    assert!(!expected.is_empty());
    drop(store);

    let reopened = Store::open_with(&dir, options()).unwrap();
    assert_eq!(reopened.range_from(b"", usize::MAX), expected);
    reopened.index().check_invariants();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_range_removal_across_three_shards_replays_as_one_operation() {
    let dir = test_dir("range");
    {
        let store = Store::open_with(&dir, options()).unwrap();
        for c in b'a'..=b'z' {
            for i in 0..10u64 {
                store.set(format!("{}{i}", c as char).as_bytes(), i);
            }
        }
        store.checkpoint().unwrap();
        // [f, s) takes f..h from shard 0, all of shard 1 and p..s from
        // shard 2.
        let lens = |store: &Store| {
            (0..3)
                .map(|s| store.index().shard(s).len())
                .collect::<Vec<_>>()
        };
        assert_eq!(lens(&store), [70, 80, 110]);
        assert_eq!(store.delete_range(b"f", b"s"), 130);
        assert_eq!(lens(&store), [50, 0, 80]);
    }
    let store = Store::open_with(&dir, options()).unwrap();
    assert_eq!(store.recovery().snapshot_records, 260);
    assert_eq!(store.recovery().replayed_operations, 1);
    assert_eq!(store.len(), 130);
    assert_eq!(store.get(b"e9"), Some(9));
    assert_eq!(store.get(b"f0"), None);
    assert_eq!(store.get(b"r9"), None);
    assert_eq!(store.get(b"s0"), Some(0));
    store.index().check_invariants();
    fs::remove_dir_all(&dir).unwrap();
}

/// `get_batch` answers like per-key `get` on a durable front: present
/// keys, deleted keys, keys never stored and duplicates, in batches that
/// cross every shard boundary, and appended behind what the output
/// already holds.
fn batched_reads_match_gets<I>(store: &DurableWormhole<u64, I>)
where
    I: ConcurrentOrderedIndex<u64> + FromSorted<u64>,
{
    let key = |c: u8, i: u64| format!("{}{i:02}", c as char).into_bytes();
    for c in b'a'..=b'z' {
        for i in 0..40u64 {
            store.set(&key(c, i), u64::from(c) * 100 + i);
        }
        for i in (0..40u64).step_by(7) {
            store.del(&key(c, i));
        }
    }
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for c in b'a'..=b'z' {
        for i in (0..45u64).rev() {
            keys.push(key(c, i));
        }
        keys.push(vec![c]);
        keys.push(key(c, 3));
    }
    keys.extend([Vec::new(), b"h0".to_vec(), b"p0".to_vec(), b"\xff".to_vec()]);
    let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let looped: Vec<Option<u64>> = keys.iter().map(|k| store.get(k)).collect();
    assert!(looped.iter().any(Option::is_none) && looped.iter().any(Option::is_some));
    assert_eq!(store.get_batch(&keys), looped);
    for width in [1, 3, 16, 100] {
        for chunk in keys.chunks(width) {
            let mut out = vec![Some(7)];
            store.get_batch_into(chunk, &mut out);
            assert_eq!(out[0], Some(7));
            assert_eq!(
                &out[1..],
                chunk.iter().map(|k| store.get(k)).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn durable_batched_reads_match_per_key_gets() {
    let dir = test_dir("batch-plain");
    let plain: DurableWormhole<u64> = DurableWormhole::open_with(
        &dir,
        DurableOptions {
            config: WormholeConfig::optimized().with_leaf_capacity(8),
            sync: SyncPolicy::Manual,
        },
    )
    .unwrap();
    batched_reads_match_gets(&plain);
    drop(plain);
    fs::remove_dir_all(&dir).unwrap();

    let dir = test_dir("batch-sharded");
    let sharded = Store::open_with(
        &dir,
        DurableOptions {
            sync: SyncPolicy::Manual,
            ..options()
        },
    )
    .unwrap();
    batched_reads_match_gets(&sharded);
    drop(sharded);
    fs::remove_dir_all(&dir).unwrap();
}
