//! Concurrency-focused integration tests for the thread-safe Wormhole:
//! multi-threaded writers with disjoint and with shared key spaces, readers
//! racing with structural changes, and end-to-end use through the netsim
//! service.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use index_traits::ConcurrentOrderedIndex;
use netsim::{KvService, LinkModel, WireRequest};
use wh_shard::{RebalanceConfig, ShardedConfig, ShardedWormhole};
use workloads::{generate, KeysetId};
use wormhole::{Wormhole, WormholeConfig};

/// Iteration multiplier for the release-gated stress tests, read from
/// `WH_STRESS_MULT` (default 1). PR CI runs at 1; the nightly CI job
/// boosts it so long-soak races get real wall-clock without slowing every
/// pull request.
fn stress_mult() -> u64 {
    std::env::var("WH_STRESS_MULT")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&m| m > 0)
        .unwrap_or(1)
}

/// Splits a yielded key of the torn-scan test into its stable id and
/// whether it is a churn key. Panics on a malformed (torn) key.
fn parse_torn_scan_key(key: &[u8]) -> (u64, bool) {
    let s = std::str::from_utf8(key).expect("yielded key is not UTF-8");
    let rest = s
        .strip_prefix("stable-")
        .expect("yielded key lost its prefix");
    match rest.split_once(":churn") {
        None => (rest.parse().expect("malformed stable id"), false),
        Some((id, writer)) => {
            assert!(
                writer.len() == 1 && writer.chars().all(|c| c.is_ascii_digit()),
                "malformed churn suffix in {s:?}"
            );
            (id.parse().expect("malformed churn id"), true)
        }
    }
}

#[test]
fn disjoint_writers_preserve_every_key() {
    let wh = Arc::new(Wormhole::with_config(
        WormholeConfig::optimized().with_leaf_capacity(16),
    ));
    let threads = 8usize;
    let per_thread = 5_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let wh = Arc::clone(&wh);
            scope.spawn(move || {
                for i in 0..per_thread {
                    wh.set(format!("t{t:02}-{i:08}").as_bytes(), i);
                }
            });
        }
    });
    assert_eq!(wh.len(), threads * per_thread as usize);
    wh.check_invariants();
    for t in 0..threads {
        for i in (0..per_thread).step_by(101) {
            assert_eq!(wh.get(format!("t{t:02}-{i:08}").as_bytes()), Some(i));
        }
    }
    // Ordered full scan sees every key exactly once, in order.
    let scan = wh.range_from(b"", usize::MAX);
    assert_eq!(scan.len(), threads * per_thread as usize);
    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn contended_writers_insert_and_remove_each_shared_key_once() {
    // Every writer sets, then deletes, the same keys in the same order, so
    // writers keep meeting in the same full leaf and re-checking it under
    // the writer mutex. Each key must be inserted exactly once and removed
    // exactly once, and the emptied index must merge back into one leaf.
    // Rounds repeat only under `--release` (scaled by WH_STRESS_MULT for
    // nightly soaks); debug builds run one.
    fn race(threads: usize, keys: u64, op: impl Fn(u64) -> bool + Sync) -> usize {
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..keys).filter(|&i| op(i)).count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    }
    let rounds: u64 = if cfg!(debug_assertions) {
        1
    } else {
        40 * stress_mult()
    };
    let keys = 2_000u64;
    let key = |i: u64| format!("shared-{i:06}").into_bytes();
    for _ in 0..rounds {
        let wh = Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let inserted = race(4, keys, |i| wh.set(&key(i), i).is_none());
        assert_eq!(inserted, keys as usize, "a key inserted twice or lost");
        assert_eq!(wh.len(), keys as usize);
        wh.check_invariants();
        let removed = race(4, keys, |i| wh.del(&key(i)).is_some());
        assert_eq!(removed, keys as usize, "a key removed twice or never");
        assert_eq!(wh.len(), 0);
        assert_eq!(wh.leaf_count(), 1, "the emptied index did not merge back");
    }
}

#[test]
fn readers_never_observe_torn_state_during_splits_and_merges() {
    let wh = Arc::new(Wormhole::with_config(
        WormholeConfig::optimized().with_leaf_capacity(8),
    ));
    // A stable population that readers verify continuously.
    for i in 0..5_000u64 {
        wh.set(format!("stable-{i:06}").as_bytes(), i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Churn threads force splits and merges around the stable keys.
        for t in 0..3 {
            let wh = Arc::clone(&wh);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..300u64 {
                        wh.set(format!("churn{t}-{:06}", i % 150).as_bytes(), round);
                    }
                    for i in 0..300u64 {
                        wh.del(format!("churn{t}-{:06}", i % 150).as_bytes());
                    }
                    round += 1;
                }
            });
        }
        // Readers check the stable population and ordered scans.
        let mut readers = Vec::new();
        for r in 0..3 {
            let wh = Arc::clone(&wh);
            readers.push(scope.spawn(move || {
                for pass in 0..40u64 {
                    let i = (pass * 97 + r * 13) % 5_000;
                    assert_eq!(
                        wh.get(format!("stable-{i:06}").as_bytes()),
                        Some(i),
                        "stable key lost"
                    );
                    let scan = wh.range_from(b"stable-002", 50);
                    assert_eq!(scan.len(), 50);
                    assert!(
                        scan.windows(2).all(|w| w[0].0 < w[1].0),
                        "scan out of order"
                    );
                    assert!(scan.iter().all(|(k, _)| k.starts_with(b"stable-")));
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    wh.check_invariants();
    for i in (0..5_000u64).step_by(37) {
        assert_eq!(wh.get(format!("stable-{i:06}").as_bytes()), Some(i));
    }
}

#[test]
fn optimistic_readers_see_consistent_state_under_split_merge_churn() {
    // Stress for the lock-free (seqlock) read path: churn writers force
    // continuous splits and merges of the leaves holding a stable
    // population, while readers assert that every point read returns the
    // exact preloaded value and every scan sees the stable keys exactly
    // once, in order — i.e. each read observed either the pre- or the
    // post-split state of a leaf, never a torn mixture. Iteration counts
    // are kept high only under `--release` (scaled by WH_STRESS_MULT for
    // nightly soaks); debug builds run a smoke pass.
    let iters: u64 = if cfg!(debug_assertions) {
        300
    } else {
        25_000 * stress_mult()
    };
    let n_stable = 2_000u64;
    let wh = Arc::new(Wormhole::with_config(
        WormholeConfig::optimized().with_leaf_capacity(8),
    ));
    for i in 0..n_stable {
        wh.set(format!("stable-{i:06}").as_bytes(), i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Churn writers: keys of the form `stable-NNNNNN:churnT` land in the
        // same leaves as the stable keys, so inserting a wave of them splits
        // those leaves and deleting the wave merges them back.
        for t in 0..2u64 {
            let wh = Arc::clone(&wh);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in ((t * 3)..n_stable).step_by(7) {
                        wh.set(format!("stable-{i:06}:churn{t}").as_bytes(), round);
                    }
                    for i in ((t * 3)..n_stable).step_by(7) {
                        wh.del(format!("stable-{i:06}:churn{t}").as_bytes());
                    }
                    round += 1;
                }
            });
        }
        let mut readers = Vec::new();
        for r in 0..4u64 {
            let wh = Arc::clone(&wh);
            readers.push(scope.spawn(move || {
                let stable_len = "stable-000000".len();
                for pass in 0..iters {
                    let i = (pass * 131 + r * 17) % n_stable;
                    // Point read: always the exact preloaded value.
                    assert_eq!(
                        wh.get(format!("stable-{i:06}").as_bytes()),
                        Some(i),
                        "torn point read of stable-{i:06}"
                    );
                    if pass % 16 == r % 4 {
                        // Window scan: the stable keys inside the window form
                        // exactly the consecutive run starting at `from`.
                        let from = i.min(n_stable - 40);
                        let scan = wh.range_from(format!("stable-{from:06}").as_bytes(), 60);
                        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "scan unordered");
                        let stable: Vec<(u64, u64)> = scan
                            .iter()
                            .filter_map(|(k, v)| {
                                let s = std::str::from_utf8(k).ok()?;
                                if s.len() == stable_len && s.starts_with("stable-") {
                                    Some((s["stable-".len()..].parse().ok()?, *v))
                                } else {
                                    None
                                }
                            })
                            .collect();
                        assert!(!stable.is_empty(), "scan lost the stable population");
                        for (j, (k, v)) in stable.iter().enumerate() {
                            assert_eq!(
                                *k,
                                from + j as u64,
                                "stable key missing or duplicated in scan"
                            );
                            assert_eq!(*v, from + j as u64, "torn scan value");
                        }
                    }
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    wh.check_invariants();
    for i in (0..n_stable).step_by(29) {
        assert_eq!(wh.get(format!("stable-{i:06}").as_bytes()), Some(i));
    }
}

#[test]
fn torn_scan_cursors_stream_consistent_state_under_churn() {
    // Stress for the streaming scan cursor: readers drain full-index
    // cursors batch by batch while churn writers force continuous splits
    // and merges of the leaves being streamed. Every yielded pair must be
    // well-formed (a key the workload could actually have written, with its
    // exact value for the stable population), keys must be strictly
    // ascending across the entire stream — per-leaf snapshots must never
    // re-yield or reorder across a batch boundary — and every key that is
    // stable for the whole scan must appear exactly once. A cursor that
    // finds a leaf's key view lagging sorts it in place under the leaf's
    // write lock, so the three readers race each other's sorts as well as
    // the writers' appends. Iteration counts
    // are kept high only under `--release` (scaled by WH_STRESS_MULT for
    // nightly soaks); debug builds run a smoke pass.
    let scans: u64 = if cfg!(debug_assertions) {
        8
    } else {
        400 * stress_mult()
    };
    let n_stable = 2_000u64;
    let wh = Arc::new(Wormhole::with_config(
        WormholeConfig::optimized().with_leaf_capacity(8),
    ));
    for i in 0..n_stable {
        wh.set(format!("stable-{i:06}").as_bytes(), i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Churn writers: keys interleaved with the stable population split
        // the streamed leaves on insert and merge them back on delete.
        for t in 0..2u64 {
            let wh = Arc::clone(&wh);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in ((t * 3)..n_stable).step_by(5) {
                        wh.set(format!("stable-{i:06}:churn{t}").as_bytes(), round);
                    }
                    for i in ((t * 3)..n_stable).step_by(5) {
                        wh.del(format!("stable-{i:06}:churn{t}").as_bytes());
                    }
                    round += 1;
                }
            });
        }
        let mut readers = Vec::new();
        for _ in 0..3 {
            let wh = Arc::clone(&wh);
            readers.push(scope.spawn(move || {
                for _ in 0..scans {
                    let mut cursor = wh.scan(b"");
                    let mut prev: Option<Vec<u8>> = None;
                    let mut next_stable = 0u64;
                    while let Some(batch) = cursor.next_batch() {
                        assert!(!batch.is_empty(), "cursor yielded an empty batch");
                        for (key, value) in batch.iter() {
                            if let Some(prev) = &prev {
                                assert!(
                                    prev.as_slice() < key,
                                    "stream not strictly ascending: {:?} !< {:?}",
                                    String::from_utf8_lossy(prev),
                                    String::from_utf8_lossy(key),
                                );
                            }
                            let (id, is_churn) = parse_torn_scan_key(key);
                            assert!(id < n_stable, "id out of range in scan");
                            if !is_churn {
                                assert_eq!(
                                    id, next_stable,
                                    "stable key missing or duplicated in scan"
                                );
                                assert_eq!(*value, id, "torn value for stable-{id:06}");
                                next_stable += 1;
                            }
                            prev = Some(key.to_vec());
                        }
                    }
                    assert_eq!(
                        next_stable, n_stable,
                        "scan lost part of the stable population"
                    );
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    wh.check_invariants();
    assert!(
        wh.metrics().scan_sorts.get() > 0,
        "no cursor ever sorted a leaf the writers had appended to"
    );
    for i in (0..n_stable).step_by(41) {
        assert_eq!(wh.get(format!("stable-{i:06}").as_bytes()), Some(i));
    }
}

#[test]
fn live_cursors_resume_across_churn() {
    // Readers hold cursors open across the writers' churn: every 16 pairs a
    // reader yields its CPU, so its next fill starts where the last one
    // stopped after the writers have split, merged and appended to the
    // leaves around that place. The fill copies on in place, follows the
    // finished leaf's `next` link, or searches again because its leaf
    // changed. Each writer puts four keys after every other stable key and
    // takes them out again, round after round: leaves of eight split on
    // the way up and, left with a stable key or two, merge on the way
    // down. Keys must be strictly ascending across the whole stream and
    // every stable key must appear exactly once, with its value. Iteration
    // counts are kept high only under `--release` (scaled by
    // WH_STRESS_MULT for nightly soaks); debug builds run a smoke pass.
    let scans: u64 = if cfg!(debug_assertions) {
        4
    } else {
        100 * stress_mult()
    };
    let n_stable = 1_000u64;
    let stable = |i: u64| format!("s{i:06}").into_bytes();
    let wh = Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
    for i in 0..n_stable {
        wh.set(&stable(i), i);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (wh, stop) = (&wh, &stop);
            scope.spawn(move || {
                let churn = |i: u64, j: u64| format!("s{i:06}/{t}{j}").into_bytes();
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in (t..n_stable).step_by(2) {
                        for j in 0..4 {
                            wh.set(&churn(i, j), round);
                        }
                    }
                    for i in (t..n_stable).step_by(2) {
                        for j in 0..4 {
                            assert_eq!(wh.del(&churn(i, j)), Some(round));
                        }
                    }
                    round += 1;
                }
            });
        }
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..scans {
                        let mut cursor = wh.scan(b"");
                        let (mut prev, mut next_stable, mut pulled) = (Vec::new(), 0u64, 0u64);
                        while let Some((key, value)) = cursor.next() {
                            assert!(prev.as_slice() < key, "stream not strictly ascending");
                            assert!(key.len() == 7 || key.len() == 10 && key[7] == b'/');
                            if key.len() == 7 {
                                assert_eq!(key, stable(next_stable), "stable key missing");
                                assert_eq!(*value, next_stable, "torn stable value");
                                next_stable += 1;
                            }
                            prev.clear();
                            prev.extend_from_slice(key);
                            pulled += 1;
                            if pulled % 16 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        assert_eq!(next_stable, n_stable, "scan lost stable keys");
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    wh.check_invariants();
    let metrics = wh.metrics();
    assert!(metrics.splits.get() > 0 && metrics.merges.get() > 0);
    assert!(
        metrics.scan_descents.get() > 2 * scans,
        "no fill ever found its leaf changed"
    );
}

#[test]
fn sharded_multi_writer_scan_stress() {
    // Release-gated stress for the sharded front: writers churn splits and
    // merges on EVERY shard at once while readers drain full cross-shard
    // cursors, asserting strict global key order across every shard
    // boundary, well-formed pairs only, and the stable population seen
    // exactly once per scan. Iteration counts are high only under
    // `--release` (scaled by WH_STRESS_MULT for nightly soaks); debug
    // builds run a smoke pass.
    let scans: u64 = if cfg!(debug_assertions) {
        6
    } else {
        250 * stress_mult()
    };
    let n_stable = 2_000u64;
    let idx = Arc::new(ShardedWormhole::<u64>::with_config(
        ShardedConfig::with_boundaries(vec![
            b"stable-000500".to_vec(),
            b"stable-001000".to_vec(),
            b"stable-001500".to_vec(),
        ])
        .with_inner(WormholeConfig::optimized().with_leaf_capacity(8)),
    ));
    for i in 0..n_stable {
        idx.set(format!("stable-{i:06}").as_bytes(), i);
    }
    // Sanity: the population really spans all four shards.
    for s in 0..idx.shard_count() {
        assert!(idx.shard(s).len() > 0, "shard {s} empty before stress");
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Churn writers: interleaved churn keys split the streamed leaves
        // on insert and merge them back on delete — in every shard,
        // including leaves that straddle scan batches at shard boundaries.
        for t in 0..3u64 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in ((t * 3)..n_stable).step_by(5) {
                        idx.set(format!("stable-{i:06}:churn{t}").as_bytes(), round);
                    }
                    for i in ((t * 3)..n_stable).step_by(5) {
                        idx.del(format!("stable-{i:06}:churn{t}").as_bytes());
                    }
                    round += 1;
                }
            });
        }
        let mut readers = Vec::new();
        for _ in 0..3 {
            let idx = Arc::clone(&idx);
            readers.push(scope.spawn(move || {
                for _ in 0..scans {
                    let mut cursor = idx.scan(b"");
                    let mut prev: Option<Vec<u8>> = None;
                    let mut next_stable = 0u64;
                    while let Some(batch) = cursor.next_batch() {
                        assert!(!batch.is_empty(), "cursor yielded an empty batch");
                        for (key, value) in batch.iter() {
                            if let Some(prev) = &prev {
                                assert!(
                                    prev.as_slice() < key,
                                    "stream not strictly ascending across shards: \
                                     {:?} !< {:?}",
                                    String::from_utf8_lossy(prev),
                                    String::from_utf8_lossy(key),
                                );
                            }
                            let (id, is_churn) = parse_torn_scan_key(key);
                            assert!(id < n_stable, "id out of range in scan");
                            if !is_churn {
                                assert_eq!(
                                    id, next_stable,
                                    "stable key missing or duplicated in sharded scan"
                                );
                                assert_eq!(*value, id, "torn value for stable-{id:06}");
                                next_stable += 1;
                            }
                            prev = Some(key.to_vec());
                        }
                    }
                    assert_eq!(
                        next_stable, n_stable,
                        "sharded scan lost part of the stable population"
                    );
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    idx.check_invariants();
    for i in (0..n_stable).step_by(37) {
        assert_eq!(idx.get(format!("stable-{i:06}").as_bytes()), Some(i));
    }
}

/// Release-gated stress for online shard rebalancing: a migration thread forces boundary moves back and forth through
/// the middle of the stable population while churn writers split/merge
/// leaves in every shard (including inside the migrating ranges), point
/// readers assert every stable key is readable with its exact value at
/// every instant (a migrated key must never be unreachable or torn), and
/// cross-shard cursor readers drain full scans asserting strict global
/// order and the stable population seen exactly once. Every migration
/// revokes the router bias through the draining barrier while the readers
/// race it. Iteration counts are high only under `--release` (scaled by
/// WH_STRESS_MULT for nightly soaks); debug builds run a smoke pass.
#[test]
fn migration_under_churn_stress() {
    let migrations: u64 = if cfg!(debug_assertions) {
        6
    } else {
        600 * stress_mult()
    };
    let scans: u64 = if cfg!(debug_assertions) {
        4
    } else {
        300 * stress_mult()
    };
    let n_stable = 2_000u64;
    let idx = Arc::new(ShardedWormhole::<u64>::with_config(
        ShardedConfig::with_boundaries(vec![
            b"stable-000500".to_vec(),
            b"stable-001000".to_vec(),
            b"stable-001500".to_vec(),
        ])
        .with_inner(WormholeConfig::optimized().with_leaf_capacity(8))
        .with_rebalance(RebalanceConfig {
            min_pair_ops: 512,
            imbalance_percent: 150,
            batch_keys: 64,
            sample_cap: 512,
            min_move_keys: 8,
        }),
    ));
    for i in 0..n_stable {
        idx.set(format!("stable-{i:06}").as_bytes(), i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // The migration thread bounces boundary 1 between two targets that
        // each re-home a 200-key slice (plus its churn keys), and lets the
        // counter-driven policy take an occasional extra decision.
        {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let targets: [&[u8]; 2] = [b"stable-000800", b"stable-001200"];
                for m in 0..migrations {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match idx.migrate_boundary(1, targets[(m % 2) as usize]) {
                        Ok(_) => {}
                        // A policy-driven move of a neighbouring boundary
                        // (the maybe_rebalance below) can make a forced
                        // target degenerate; that rejection is correct.
                        Err(wh_shard::MigrateError::InvalidTarget { .. }) => {}
                        Err(e) => panic!("forced migration failed: {e}"),
                    }
                    if m % 8 == 0 {
                        let _ = idx.maybe_rebalance();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        // Churn writers: splits and merges in every shard, including keys
        // interleaved with the migrating slices.
        for t in 0..2u64 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in ((t * 3)..n_stable).step_by(5) {
                        idx.set(format!("stable-{i:06}:churn{t}").as_bytes(), round);
                    }
                    for i in ((t * 3)..n_stable).step_by(5) {
                        idx.del(format!("stable-{i:06}:churn{t}").as_bytes());
                    }
                    round += 1;
                }
            });
        }
        // Point readers: a stable key is present with its exact value at
        // every instant of a migration (freeze/copy/publish/drain).
        for r in 0..2u64 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut pass = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Bias probes toward the migrating slice (700..1300).
                    let i = if pass.is_multiple_of(2) {
                        700 + (pass * 131 + r * 17) % 600
                    } else {
                        (pass * 131 + r * 17) % n_stable
                    };
                    assert_eq!(
                        idx.get(format!("stable-{i:06}").as_bytes()),
                        Some(i),
                        "stable-{i:06} unreachable or torn during migration"
                    );
                    pass += 1;
                }
            });
        }
        // Cursor readers: full cross-shard drains stay strictly ascending
        // and exhaustive while boundaries move underneath them.
        let mut readers = Vec::new();
        for _ in 0..2 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut done = 0u64;
                while done < scans && !stop.load(Ordering::Relaxed) {
                    let mut cursor = idx.scan(b"");
                    let mut prev: Option<Vec<u8>> = None;
                    let mut next_stable = 0u64;
                    while let Some(batch) = cursor.next_batch() {
                        assert!(!batch.is_empty(), "cursor yielded an empty batch");
                        for (key, value) in batch.iter() {
                            if let Some(prev) = &prev {
                                assert!(
                                    prev.as_slice() < key,
                                    "stream not strictly ascending across a migration: \
                                     {:?} !< {:?}",
                                    String::from_utf8_lossy(prev),
                                    String::from_utf8_lossy(key),
                                );
                            }
                            let (id, is_churn) = parse_torn_scan_key(key);
                            assert!(id < n_stable, "id out of range in scan");
                            if !is_churn {
                                assert_eq!(
                                    id, next_stable,
                                    "stable key missing or duplicated in scan racing migration"
                                );
                                assert_eq!(*value, id, "torn value for stable-{id:06}");
                                next_stable += 1;
                            }
                            prev = Some(key.to_vec());
                        }
                    }
                    assert_eq!(
                        next_stable, n_stable,
                        "scan racing migration lost part of the stable population"
                    );
                    done += 1;
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    idx.check_invariants();
    assert_eq!(idx.len() as u64, n_stable, "churn or migration leaked keys");
    for i in 0..n_stable {
        assert_eq!(idx.get(format!("stable-{i:06}").as_bytes()), Some(i));
    }
}

#[test]
fn fast_path_drain_barrier_flip_flop_stress() {
    // Release-gated stress aimed squarely at the biased-entry handshake:
    // with no churn to slow it down, a migration thread bounces a boundary
    // between two close targets as fast as it can, so the router bias is
    // revoked (draining barrier) and restored at the highest achievable
    // frequency while point and batched readers hammer fast-path gets.
    // Every read must return the exact preloaded value at every instant —
    // a reader whose fast section raced the barrier must either have been
    // waited out (table still live) or bounced to the critical-section
    // path; a torn read here means a fast section dereferenced a retired
    // table. Iteration counts are high only under `--release` (scaled by
    // WH_STRESS_MULT for nightly soaks); debug builds run a smoke pass.
    let flips: u64 = if cfg!(debug_assertions) {
        8
    } else {
        2_000 * stress_mult()
    };
    let n_stable = 1_000u64;
    let idx = Arc::new(ShardedWormhole::<u64>::with_config(
        ShardedConfig::with_boundaries(vec![b"k-0500".to_vec()])
            .with_inner(WormholeConfig::optimized().with_leaf_capacity(8))
            .with_rebalance(RebalanceConfig {
                min_pair_ops: u64::MAX,
                imbalance_percent: 400,
                batch_keys: 128,
                sample_cap: 256,
                min_move_keys: 8,
            }),
    ));
    for i in 0..n_stable {
        idx.set(format!("k-{i:04}").as_bytes(), i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                // 50-key hops keep each migration short, maximising the
                // rate of drain-barrier / resume-bias transitions.
                let targets: [&[u8]; 2] = [b"k-0450", b"k-0500"];
                for m in 0..flips {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    idx.migrate_boundary(0, targets[(m % 2) as usize])
                        .expect("flip-flop migration failed");
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        // Point readers biased toward the bouncing slice (400..600).
        for r in 0..2u64 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut pass = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let i = if pass.is_multiple_of(2) {
                        400 + (pass * 131 + r * 17) % 200
                    } else {
                        (pass * 131 + r * 17) % n_stable
                    };
                    assert_eq!(
                        idx.get(format!("k-{i:04}").as_bytes()),
                        Some(i),
                        "k-{i:04} unreachable or torn across a bias flip"
                    );
                    pass += 1;
                }
            });
        }
        // A batched reader: one fast section covers the whole batch, so it
        // holds sections open longer than any point get — the barrier must
        // wait these out too.
        {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let keys: Vec<Vec<u8>> = (0..n_stable)
                    .map(|i| format!("k-{i:04}").into_bytes())
                    .collect();
                let mut pass = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<&[u8]> = (0..64u64)
                        .map(|j| keys[((pass * 67 + j * 13) % n_stable) as usize].as_slice())
                        .collect();
                    let values = idx.get_batch(&batch);
                    for (key, value) in batch.iter().zip(&values) {
                        let id: u64 = std::str::from_utf8(key).unwrap()[2..].parse().unwrap();
                        assert_eq!(*value, Some(id), "torn batched read across a bias flip");
                    }
                    pass += 1;
                }
            });
        }
    });
    idx.check_invariants();
    assert_eq!(idx.len() as u64, n_stable);
    for i in 0..n_stable {
        assert_eq!(idx.get(format!("k-{i:04}").as_bytes()), Some(i));
    }
}

#[test]
fn batched_gets_see_consistent_state_under_split_merge_churn() {
    // Stress for the pipelined `get_batch` read path: churn writers force
    // continuous splits and merges of the leaves holding a stable
    // population while batched readers issue windows of point lookups
    // through `get_batch` — every stable key must come back with its exact
    // preloaded value and every deliberately-absent key must miss, even
    // though the batch's probes interleave their descent steps and any of
    // them can hit a seqlock conflict mid-window. Iteration counts are
    // high only under `--release` (scaled by WH_STRESS_MULT for nightly
    // soaks); debug builds run a smoke pass.
    let iters: u64 = if cfg!(debug_assertions) {
        150
    } else {
        12_000 * stress_mult()
    };
    let n_stable = 2_000u64;
    let wh = Arc::new(Wormhole::with_config(
        WormholeConfig::optimized().with_leaf_capacity(8),
    ));
    let stable_keys: Vec<Vec<u8>> = (0..n_stable)
        .map(|i| format!("stable-{i:06}").into_bytes())
        .collect();
    // Sorts after every stable/churn key, never inserted: guaranteed misses.
    let miss_keys: Vec<Vec<u8>> = (0..8u64)
        .map(|j| format!("zz-absent-{j}").into_bytes())
        .collect();
    for (i, key) in stable_keys.iter().enumerate() {
        wh.set(key, i as u64);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let wh = Arc::clone(&wh);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in ((t * 3)..n_stable).step_by(7) {
                        wh.set(format!("stable-{i:06}:churn{t}").as_bytes(), round);
                    }
                    for i in ((t * 3)..n_stable).step_by(7) {
                        wh.del(format!("stable-{i:06}:churn{t}").as_bytes());
                    }
                    round += 1;
                }
            });
        }
        let mut readers = Vec::new();
        for r in 0..4u64 {
            let wh = Arc::clone(&wh);
            let stable_keys = &stable_keys;
            let miss_keys = &miss_keys;
            readers.push(scope.spawn(move || {
                let mut batch: Vec<&[u8]> = Vec::with_capacity(56);
                let mut ids: Vec<u64> = Vec::with_capacity(56);
                for pass in 0..iters {
                    batch.clear();
                    ids.clear();
                    // 48 stable probes striding across distinct leaves, with
                    // a guaranteed miss interleaved every 6 probes.
                    let base = (pass * 131 + r * 17) % n_stable;
                    for j in 0..48u64 {
                        let i = (base + j * 41) % n_stable;
                        batch.push(stable_keys[i as usize].as_slice());
                        ids.push(i);
                        if j % 6 == 0 {
                            let m = ((pass + j) % miss_keys.len() as u64) as usize;
                            batch.push(miss_keys[m].as_slice());
                            ids.push(u64::MAX);
                        }
                    }
                    let values = wh.get_batch(&batch);
                    assert_eq!(values.len(), batch.len());
                    for (slot, (value, &id)) in values.iter().zip(&ids).enumerate() {
                        if id == u64::MAX {
                            assert_eq!(*value, None, "absent key hit in batch slot {slot}");
                        } else {
                            assert_eq!(
                                *value,
                                Some(id),
                                "torn batched read of stable-{id:06} in slot {slot}"
                            );
                        }
                    }
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    wh.check_invariants();
    for i in (0..n_stable).step_by(29) {
        assert_eq!(wh.get(format!("stable-{i:06}").as_bytes()), Some(i));
    }
}

#[test]
fn batched_gets_under_migration_and_churn() {
    // `get_batch` through the sharded front while boundaries migrate: the
    // migration thread bounces a boundary through the middle of the stable
    // population (so batches keep spanning the frozen/moving range and the
    // router retires mid-stream), churn writers split and merge leaves in
    // every shard, and batched readers — biased toward the migrating slice
    // — must see every stable key with its exact value and every absent
    // probe miss. Release-gated; debug builds run a smoke pass.
    let migrations: u64 = if cfg!(debug_assertions) {
        6
    } else {
        400 * stress_mult()
    };
    let n_stable = 2_000u64;
    let idx = Arc::new(ShardedWormhole::<u64>::with_config(
        ShardedConfig::with_boundaries(vec![
            b"stable-000500".to_vec(),
            b"stable-001000".to_vec(),
            b"stable-001500".to_vec(),
        ])
        .with_inner(WormholeConfig::optimized().with_leaf_capacity(8)),
    ));
    let stable_keys: Vec<Vec<u8>> = (0..n_stable)
        .map(|i| format!("stable-{i:06}").into_bytes())
        .collect();
    let miss_keys: Vec<Vec<u8>> = (0..8u64)
        .map(|j| format!("zz-absent-{j}").into_bytes())
        .collect();
    for (i, key) in stable_keys.iter().enumerate() {
        idx.set(key, i as u64);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let targets: [&[u8]; 2] = [b"stable-000800", b"stable-001200"];
                for m in 0..migrations {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match idx.migrate_boundary(1, targets[(m % 2) as usize]) {
                        Ok(_) => {}
                        Err(wh_shard::MigrateError::InvalidTarget { .. }) => {}
                        Err(e) => panic!("forced migration failed: {e}"),
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for t in 0..2u64 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in ((t * 3)..n_stable).step_by(5) {
                        idx.set(format!("stable-{i:06}:churn{t}").as_bytes(), round);
                    }
                    for i in ((t * 3)..n_stable).step_by(5) {
                        idx.del(format!("stable-{i:06}:churn{t}").as_bytes());
                    }
                    round += 1;
                }
            });
        }
        for r in 0..2u64 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            let stable_keys = &stable_keys;
            let miss_keys = &miss_keys;
            scope.spawn(move || {
                let mut batch: Vec<&[u8]> = Vec::with_capacity(72);
                let mut ids: Vec<u64> = Vec::with_capacity(72);
                let mut pass = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    batch.clear();
                    ids.clear();
                    // Bias two thirds of the probes into the migrating slice
                    // (700..1300) so most batches straddle the moving
                    // boundary; the rest stride the whole population.
                    for j in 0..64u64 {
                        let i = if j % 3 != 0 {
                            700 + (pass * 131 + r * 17 + j * 41) % 600
                        } else {
                            (pass * 131 + r * 17 + j * 41) % n_stable
                        };
                        batch.push(stable_keys[i as usize].as_slice());
                        ids.push(i);
                        if j % 8 == 0 {
                            let m = ((pass + j) % miss_keys.len() as u64) as usize;
                            batch.push(miss_keys[m].as_slice());
                            ids.push(u64::MAX);
                        }
                    }
                    let values = idx.get_batch(&batch);
                    assert_eq!(values.len(), batch.len());
                    for (slot, (value, &id)) in values.iter().zip(&ids).enumerate() {
                        if id == u64::MAX {
                            assert_eq!(*value, None, "absent key hit in batch slot {slot}");
                        } else {
                            assert_eq!(
                                *value,
                                Some(id),
                                "stable-{id:06} unreachable or torn in batched read \
                                 racing migration (slot {slot})"
                            );
                        }
                    }
                    pass += 1;
                }
            });
        }
    });
    idx.check_invariants();
    assert_eq!(idx.len() as u64, n_stable, "churn or migration leaked keys");
    for i in (0..n_stable).step_by(23) {
        assert_eq!(idx.get(format!("stable-{i:06}").as_bytes()), Some(i));
    }
}

#[test]
fn netsim_service_end_to_end_over_wormhole() {
    let keyset = generate(KeysetId::Az1, 20_000, 21);
    let wh: Arc<Wormhole<u64>> = Arc::new(Wormhole::new());
    for (i, key) in keyset.keys.iter().enumerate() {
        wh.set(key, i as u64);
    }
    let service = KvService::new(Arc::clone(&wh) as Arc<dyn ConcurrentOrderedIndex<u64>>);

    // A batch mixing lookups, writes, and range scans.
    let mut requests = Vec::new();
    for (i, key) in keyset.keys.iter().take(5_000).enumerate() {
        requests.push(WireRequest::Get { key: key.clone() });
        if i % 10 == 0 {
            requests.push(WireRequest::Set {
                key: format!("service-added-{i:05}").into_bytes(),
                value: i as u64,
            });
        }
        if i % 100 == 0 {
            requests.push(WireRequest::Range {
                start: key.clone(),
                count: 20,
            });
        }
    }
    let stats = service.run(&requests);
    assert_eq!(stats.operations, requests.len());
    assert!(stats.hits >= 5_000, "every preloaded key must be found");
    // Writes through the service are visible directly in the index.
    assert_eq!(wh.get(b"service-added-00500"), Some(500));

    // The link model turns the measured host throughput into a delivered
    // figure that can never exceed the host rate.
    let link = LinkModel::infiniband_100g();
    let delivered = link.delivered_ops_per_second(
        stats.mops() * 1e6,
        stats.avg_request_bytes().ceil() as usize,
        stats.avg_response_bytes().ceil() as usize,
    );
    assert!(delivered <= stats.mops() * 1e6 * 1.001);
    assert!(delivered > 0.0);
}

#[test]
fn concurrent_index_matches_single_threaded_reference_after_churn() {
    use index_traits::OrderedIndex;
    use wormhole::WormholeUnsafe;

    let keyset = generate(KeysetId::Url, 6_000, 33);
    let concurrent = Arc::new(Wormhole::with_config(
        WormholeConfig::optimized().with_leaf_capacity(16),
    ));
    // Apply a deterministic partitioned workload concurrently…
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let concurrent = Arc::clone(&concurrent);
            let keys = &keyset.keys;
            scope.spawn(move || {
                for (i, key) in keys.iter().enumerate().skip(t).step_by(4) {
                    concurrent.set(key, i as u64);
                    if i % 5 == 0 {
                        concurrent.del(key);
                    }
                }
            });
        }
    });
    // …then replay the same net effect single-threaded.
    let mut reference: WormholeUnsafe<u64> = WormholeUnsafe::new();
    for (i, key) in keyset.keys.iter().enumerate() {
        reference.set(key, i as u64);
        if i % 5 == 0 {
            reference.del(key);
        }
    }
    assert_eq!(ConcurrentOrderedIndex::len(&*concurrent), reference.len());
    assert_eq!(
        concurrent.range_from(b"", usize::MAX),
        reference.range_from(b"", usize::MAX)
    );
}
