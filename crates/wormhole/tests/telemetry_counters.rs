//! Structural-event counters: splits, merges, scan-time sorts and scan
//! descents observed through [`WormholeMetrics`], plus the registry
//! round-trip for the exposition names. Retry/fallback/restart counters are
//! race-dependent and only sanity-checked for registration here; their
//! recording sites are exercised (not asserted non-zero) by the concurrent
//! stress tests.

use index_traits::ConcurrentOrderedIndex;
use wh_telemetry::Registry;
use wormhole::{Wormhole, WormholeConfig, WormholeMetrics};

#[test]
fn splits_and_merges_are_counted() {
    let index: Wormhole<u64> = Wormhole::new();
    let n = 4 * index.config().leaf_capacity as u64;
    for i in 0..n {
        index.set(format!("key{i:08}").as_bytes(), i);
    }
    let splits = index.metrics().splits.get();
    assert!(splits > 0, "inserting {n} keys must split at least once");
    assert_eq!(index.metrics().merges.get(), 0);

    for i in 0..n {
        index.del(format!("key{i:08}").as_bytes());
    }
    assert!(
        index.metrics().merges.get() > 0,
        "deleting every key must merge leaves back"
    );
    // No writers raced the single thread: reads never conflicted.
    assert_eq!(index.metrics().seqlock_retries.get(), 0);
    assert_eq!(index.metrics().locked_fallbacks.get(), 0);
    assert_eq!(index.metrics().lpm_restarts.get(), 0);
}

#[test]
fn each_structural_commit_waits_out_the_previous_publications_grace_period() {
    // A publication only starts the grace period of the table it retires;
    // the next structural commit completes it, once, before it runs the
    // update again on that table. The last publication still owes its wait.
    if !wh_telemetry::enabled() {
        return;
    }
    let index: Wormhole<u64> =
        Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
    let key = |i: u64| format!("key{i:04}").into_bytes();
    for i in 0..500 {
        index.set(&key(i), i);
    }
    for i in 0..450 {
        assert_eq!(index.del(&key(i)), Some(i));
    }
    let (splits, merges) = (index.metrics().splits.get(), index.metrics().merges.get());
    assert!(
        splits > 100 && merges > 100,
        "{splits} splits, {merges} merges"
    );
    let waits = index.epoch_metrics().grace_wait_ns.snapshot().count();
    assert_eq!(waits, splits + merges - 1);
}

#[test]
fn a_delete_asks_before_it_takes_the_writer_mutex() {
    let index: Wormhole<u64> = Wormhole::new();
    let (capacity, merge_size) = (index.config().leaf_capacity, index.config().merge_size());
    let n = 8 * capacity as u64;
    let key = |i: u64| format!("key{i:08}").into_bytes();
    for i in 0..n {
        index.set(&key(i), i);
    }
    let metrics = index.metrics();
    // Ascending inserts leave every leaf but the last at half capacity: a
    // delete takes one under `merge_size`, but no two neighbours add up to
    // less than it. Churn that keeps it so never tries to merge.
    assert_eq!(merge_size, capacity / 2);
    for _ in 0..3 {
        for i in (0..n).step_by(merge_size) {
            assert_eq!(index.del(&key(i)), Some(i));
        }
        for i in (0..n).step_by(merge_size) {
            assert_eq!(index.set(&key(i), i), None);
        }
    }
    assert_eq!(metrics.merge_attempts.get(), 0, "no pair was ever eligible");
    assert_eq!(metrics.merges.get(), 0);
    // Deleting everything still merges down to one leaf, and every merge
    // was an attempt.
    for i in 0..n {
        assert!(index.del(&key(i)).is_some());
    }
    assert!(index.is_empty());
    assert_eq!(index.leaf_count(), 1);
    assert!(metrics.merges.get() > 0);
    assert!(metrics.merges.get() <= metrics.merge_attempts.get());
    index.check_invariants();
}

#[test]
fn a_scan_sorts_a_lagging_leaf_once() {
    let index: Wormhole<u64> = Wormhole::new();
    let key = |i: u64| format!("key{i:04}").into_bytes();
    // One leaf's worth, in descending order: the key view lags all the way.
    let n = index.config().leaf_capacity as u64 - 8;
    for i in (0..n).rev() {
        index.set(&key(i), i);
    }
    let expect = |n: u64| (0..n).map(|i| (key(i), i)).collect::<Vec<_>>();
    let sorts = || index.metrics().scan_sorts.get();
    assert_eq!(sorts(), 0, "inserts do not sort");
    assert_eq!(index.range_from(b"", usize::MAX), expect(n));
    assert_eq!(sorts(), 1, "the first scan sorts the leaf");
    // The order it paid for was kept: nobody sorts the leaf again, however
    // the next scans cut it up.
    assert_eq!(index.range_from(b"", usize::MAX), expect(n));
    assert_eq!(
        index.range_from(&key(n / 2), 3),
        expect(n)[n as usize / 2..][..3]
    );
    assert_eq!(sorts(), 1, "a current view is read as it is");
    // A removal leaves the view current, an insert does not.
    assert_eq!(index.del(&key(n - 1)), Some(n - 1));
    assert_eq!(index.range_from(b"", usize::MAX), expect(n - 1));
    assert_eq!(sorts(), 1);
    assert_eq!(index.set(&key(n - 1), n - 1), None);
    assert_eq!(index.range_from(b"", usize::MAX), expect(n));
    assert_eq!(sorts(), 2);
    index.check_invariants();
}

#[test]
fn a_scan_descends_once_and_again_only_when_its_leaf_changed() {
    let index: Wormhole<u64> =
        Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
    let key = |i: u64| format!("key{i:04}").into_bytes();
    let pairs = |from: u64| (from..400).step_by(2).map(move |i| (key(i), i));
    for (k, v) in pairs(0) {
        index.set(&k, v);
    }
    let descents = || index.metrics().scan_descents.get();
    let before = descents();
    // 64 pairs cross many leaves of at most eight: one search, then the
    // leaf list.
    let mut cursor = index.scan(&key(20));
    let mut got = Vec::new();
    cursor.collect_next(64, &mut got);
    assert_eq!(got, pairs(20).take(64).collect::<Vec<_>>());
    assert_eq!(descents() - before, 1, "a 64-pair scan descends once");
    // The source stopped right after the last pair it handed out, in that
    // pair's leaf: a write there costs the next fill one more search.
    let last = 20 + 2 * 63;
    assert_eq!(index.set(&key(last), 0), Some(last));
    got.clear();
    cursor.collect_next(usize::MAX, &mut got);
    assert_eq!(got, pairs(last + 2).collect::<Vec<_>>());
    assert_eq!(descents() - before, 2, "the changed leaf is searched again");
}

#[test]
fn shared_metrics_aggregate_across_instances() {
    let metrics = std::sync::Arc::new(WormholeMetrics::default());
    let a: Wormhole<u64> =
        Wormhole::with_config_and_metrics(WormholeConfig::default(), metrics.clone());
    let b: Wormhole<u64> =
        Wormhole::with_config_and_metrics(WormholeConfig::default(), metrics.clone());
    let n = 2 * a.config().leaf_capacity as u64;
    for i in 0..n {
        a.set(format!("a{i:08}").as_bytes(), i);
        b.set(format!("b{i:08}").as_bytes(), i);
    }
    let single: Wormhole<u64> = Wormhole::new();
    for i in 0..n {
        single.set(format!("a{i:08}").as_bytes(), i);
    }
    assert_eq!(metrics.splits.get(), 2 * single.metrics().splits.get());
}

#[test]
fn metrics_register_and_render() {
    let index: Wormhole<u64> = Wormhole::new();
    index.set(b"k", 7);
    let registry = Registry::new();
    index.metrics().register_into(&registry, "wormhole");
    index
        .epoch_metrics()
        .register_into(&registry, "wormhole_epoch");
    registry.lint().expect("names well-formed and unique");
    let text = registry.snapshot().render();
    assert!(text.contains("wormhole_splits_total"));
    assert!(text.contains("wormhole_seqlock_retries_total"));
    assert!(text.contains("wormhole_scan_sorts_total"));
    assert!(text.contains("wormhole_merge_attempts_total"));
    for gauge in ["items", "bitmaps", "overflow_buckets", "bytes"] {
        assert!(text.contains(&format!("wormhole_meta_{gauge}")), "{gauge}");
    }
    assert!(text.contains("wormhole_epoch_deferred_depth"));
}
