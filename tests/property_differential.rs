//! Property-based differential tests across the whole index zoo: arbitrary
//! operation sequences must leave every ordered index in exactly the same
//! state as the `BTreeMap` model, and the cuckoo hash table in the same state
//! as a `HashMap` model.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use baseline_art::Art;
use baseline_btree::BPlusTree;
use baseline_cuckoo::CuckooHashTable;
use baseline_masstree::Masstree;
use baseline_skiplist::SkipList;
use index_traits::{ConcurrentOrderedIndex, Cursor, OrderedIndex, UnorderedIndex};
use proptest::prelude::*;
use wh_shard::{RebalanceConfig, ShardedConfig, ShardedWormhole};
use wormhole::{Wormhole, WormholeConfig, WormholeUnsafe};

/// The sharded front under differential test: boundaries planted inside
/// every family the key strategies generate (short binary keys, printable
/// ASCII, high-byte blobs), so generated operations and cursor windows
/// constantly land on and cross shard edges. The rebalance policy is
/// cranked all the way down so interleaved `maybe_rebalance()` calls
/// actually migrate boundaries mid-sequence.
///
/// The interleaved migrations constantly revoke and restore the router's
/// biased fast path through the draining barrier, so both router entries
/// run in every differential.
fn sharded_under_test() -> ShardedWormhole<u64> {
    ShardedWormhole::with_config(
        ShardedConfig::with_boundaries(vec![
            vec![0x01],
            vec![0x02, 0x02],
            b"5".to_vec(),
            b"a".to_vec(),
            vec![0xa0],
        ])
        .with_inner(WormholeConfig::optimized().with_leaf_capacity(8))
        .with_rebalance(RebalanceConfig {
            min_pair_ops: 4,
            imbalance_percent: 120,
            batch_keys: 4,
            sample_cap: 64,
            min_move_keys: 1,
        }),
    )
}

/// An operation in the generated sequences.
#[derive(Debug, Clone)]
enum Op {
    Set(Vec<u8>, u64),
    Del(Vec<u8>),
    Range(Vec<u8>, usize),
    /// Nudges the sharded front's online rebalancer (no observable effect
    /// on the key/value state — every other index ignores it).
    Rebalance,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Short binary keys exercise prefix/zero-byte corner cases.
        proptest::collection::vec(0u8..4, 0..6),
        // ASCII keys of moderate length.
        proptest::collection::vec(0x20u8..0x7F, 1..20),
        // A few long keys.
        proptest::collection::vec(any::<u8>(), 40..80),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), any::<u64>()).prop_map(|(k, v)| Op::Set(k, v)),
        1 => key_strategy().prop_map(Op::Del),
        1 => (key_strategy(), 0usize..40).prop_map(|(k, n)| Op::Range(k, n)),
        1 => Just(Op::Rebalance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ordered_indexes_match_btreemap(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut skiplist = SkipList::new();
        let mut btree = BPlusTree::with_fanout(8);
        let mut art = Art::new();
        let mut masstree = Masstree::new();
        let mut wh_unsafe = WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let wh = Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let sharded = sharded_under_test();

        for op in &ops {
            match op {
                Op::Set(k, v) => {
                    let expect = model.insert(k.clone(), *v);
                    prop_assert_eq!(skiplist.set(k, *v), expect);
                    prop_assert_eq!(btree.set(k, *v), expect);
                    prop_assert_eq!(art.set(k, *v), expect);
                    prop_assert_eq!(masstree.set(k, *v), expect);
                    prop_assert_eq!(wh_unsafe.set(k, *v), expect);
                    prop_assert_eq!(wh.set(k, *v), expect);
                    prop_assert_eq!(sharded.set(k, *v), expect);
                }
                Op::Del(k) => {
                    let expect = model.remove(k);
                    prop_assert_eq!(skiplist.del(k), expect);
                    prop_assert_eq!(btree.del(k), expect);
                    prop_assert_eq!(art.del(k), expect);
                    prop_assert_eq!(masstree.del(k), expect);
                    prop_assert_eq!(wh_unsafe.del(k), expect);
                    prop_assert_eq!(wh.del(k), expect);
                    prop_assert_eq!(sharded.del(k), expect);
                }
                Op::Range(start, count) => {
                    let expect: Vec<(Vec<u8>, u64)> = model
                        .range(start.clone()..)
                        .take(*count)
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    prop_assert_eq!(skiplist.range_from(start, *count), expect.clone());
                    prop_assert_eq!(btree.range_from(start, *count), expect.clone());
                    prop_assert_eq!(art.range_from(start, *count), expect.clone());
                    prop_assert_eq!(masstree.range_from(start, *count), expect.clone());
                    prop_assert_eq!(wh_unsafe.range_from(start, *count), expect.clone());
                    prop_assert_eq!(wh.range_from(start, *count), expect.clone());
                    prop_assert_eq!(sharded.range_from(start, *count), expect);
                }
                Op::Rebalance => {
                    // Only the sharded front reacts: boundaries may migrate
                    // mid-sequence, but the observable key/value state must
                    // stay identical to every other index.
                    let _ = sharded.maybe_rebalance();
                }
            }
        }

        // Terminal state: sizes, full scans, and point lookups all agree.
        prop_assert_eq!(skiplist.len(), model.len());
        prop_assert_eq!(btree.len(), model.len());
        prop_assert_eq!(art.len(), model.len());
        prop_assert_eq!(masstree.len(), model.len());
        prop_assert_eq!(wh_unsafe.len(), model.len());
        prop_assert_eq!(ConcurrentOrderedIndex::len(&wh), model.len());
        prop_assert_eq!(ConcurrentOrderedIndex::len(&sharded), model.len());
        sharded.check_invariants();
        let expect_all: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(btree.range_from(&[], usize::MAX), expect_all.clone());
        prop_assert_eq!(wh_unsafe.range_from(&[], usize::MAX), expect_all.clone());
        prop_assert_eq!(wh.range_from(&[], usize::MAX), expect_all.clone());
        prop_assert_eq!(sharded.range_from(&[], usize::MAX), expect_all);
        for (k, v) in &model {
            prop_assert_eq!(art.get(k), Some(*v));
            prop_assert_eq!(masstree.get(k), Some(*v));
            prop_assert_eq!(skiplist.get(k), Some(*v));
        }
    }

    #[test]
    fn cuckoo_matches_hashmap(ops in proptest::collection::vec(
        (key_strategy(), any::<u64>(), any::<bool>()), 1..300)) {
        let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut cuckoo = CuckooHashTable::with_capacity(16);
        for (key, value, is_delete) in &ops {
            if *is_delete {
                prop_assert_eq!(cuckoo.del(key), model.remove(key));
            } else {
                prop_assert_eq!(cuckoo.set(key, *value), model.insert(key.clone(), *value));
            }
        }
        prop_assert_eq!(cuckoo.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(cuckoo.get(k), Some(*v));
        }
    }

    /// `get_batch` must answer exactly like one `get` per key, in order,
    /// on every ordered index — the baselines and `WormholeUnsafe` through
    /// the trait's default loop, `Wormhole` and the sharded front through
    /// their pipelined overrides. The probe batch deliberately mixes generated keys (mostly
    /// misses), guaranteed hits sampled from the inserted set, and repeats
    /// of the same key within one batch.
    #[test]
    fn get_batch_matches_single_gets(
        sets in proptest::collection::vec((key_strategy(), any::<u64>()), 1..120),
        raw_probes in proptest::collection::vec(key_strategy(), 0..24),
        hit_picks in proptest::collection::vec(any::<usize>(), 0..16),
        dup_picks in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut skiplist = SkipList::new();
        let mut btree = BPlusTree::with_fanout(8);
        let mut art = Art::new();
        let mut masstree = Masstree::new();
        let mut wh_unsafe =
            WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let wh = Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let sharded = sharded_under_test();
        for (k, v) in &sets {
            skiplist.set(k, *v);
            btree.set(k, *v);
            art.set(k, *v);
            masstree.set(k, *v);
            wh_unsafe.set(k, *v);
            wh.set(k, *v);
            sharded.set(k, *v);
        }

        let mut batch: Vec<&[u8]> = raw_probes.iter().map(Vec::as_slice).collect();
        for pick in &hit_picks {
            batch.push(sets[pick % sets.len()].0.as_slice());
        }
        let base = batch.len();
        for pick in &dup_picks {
            if base > 0 {
                batch.push(batch[pick % base]);
            }
        }

        let expect: Vec<Option<u64>> =
            batch.iter().map(|k| OrderedIndex::get(&skiplist, k)).collect();
        prop_assert_eq!(&OrderedIndex::get_batch(&skiplist, &batch), &expect);
        prop_assert_eq!(&OrderedIndex::get_batch(&btree, &batch), &expect);
        prop_assert_eq!(&OrderedIndex::get_batch(&art, &batch), &expect);
        prop_assert_eq!(&OrderedIndex::get_batch(&masstree, &batch), &expect);
        prop_assert_eq!(&OrderedIndex::get_batch(&wh_unsafe, &batch), &expect);
        prop_assert_eq!(&ConcurrentOrderedIndex::get_batch(&wh, &batch), &expect);
        prop_assert_eq!(&ConcurrentOrderedIndex::get_batch(&sharded, &batch), &expect);
        // Per-key gets on the overriding indexes agree with the model too.
        for (k, e) in batch.iter().zip(&expect) {
            prop_assert_eq!(&OrderedIndex::get(&wh_unsafe, k), e);
            prop_assert_eq!(&ConcurrentOrderedIndex::get(&wh, k), e);
            prop_assert_eq!(&ConcurrentOrderedIndex::get(&sharded, k), e);
        }
    }

    /// One history on every rung of the Figure 11 ladder, through both
    /// variants: whatever a rung leaves out — the single-threaded index's
    /// lagging key view, the concurrent index's eagerly sorted insert and
    /// its scan over a view that never lags — every answer is the
    /// `BTreeMap`'s.
    #[test]
    fn wormhole_ablation_configs_agree_with_each_other(
        ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut rungs: Vec<(&str, WormholeUnsafe<u64>, Wormhole<u64>)> =
            WormholeConfig::ablation_ladder()
                .into_iter()
                .map(|(name, config)| {
                    let config = config.with_leaf_capacity(8);
                    (name, WormholeUnsafe::with_config(config), Wormhole::with_config(config))
                })
                .collect();
        for op in &ops {
            match op {
                Op::Set(k, v) => {
                    let expect = model.insert(k.clone(), *v);
                    for (name, single, concurrent) in rungs.iter_mut() {
                        prop_assert_eq!(single.set(k, *v), expect, "{}", name);
                        prop_assert_eq!(concurrent.set(k, *v), expect, "{}", name);
                        prop_assert_eq!(single.get(k), Some(*v), "{}", name);
                        prop_assert_eq!(concurrent.get(k), Some(*v), "{}", name);
                    }
                }
                Op::Del(k) => {
                    let expect = model.remove(k);
                    for (name, single, concurrent) in rungs.iter_mut() {
                        prop_assert_eq!(single.del(k), expect, "{}", name);
                        prop_assert_eq!(concurrent.del(k), expect, "{}", name);
                        prop_assert_eq!(single.get(k), None, "{}", name);
                        prop_assert_eq!(concurrent.get(k), None, "{}", name);
                    }
                }
                Op::Range(start, count) => {
                    let expect: Vec<(Vec<u8>, u64)> = model
                        .range(start.clone()..)
                        .take(*count)
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    for (name, single, concurrent) in &rungs {
                        prop_assert_eq!(&single.range_from(start, *count), &expect, "{}", name);
                        prop_assert_eq!(&concurrent.range_from(start, *count), &expect, "{}", name);
                    }
                }
                Op::Rebalance => {}
            }
        }
        let expect_all: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        for (name, single, concurrent) in &rungs {
            prop_assert_eq!(&single.range_from(&[], usize::MAX), &expect_all, "{}", name);
            prop_assert_eq!(&concurrent.range_from(&[], usize::MAX), &expect_all, "{}", name);
            for (k, v) in &model {
                prop_assert_eq!(single.get(k), Some(*v), "{}", name);
                prop_assert_eq!(concurrent.get(k), Some(*v), "{}", name);
            }
        }
    }
}

/// Drains up to `count` pairs from a cursor and reports the continuation
/// key a fresh `scan` would resume at.
fn pull(cursor: Cursor<'_, u64>, count: usize) -> (Vec<(Vec<u8>, u64)>, Vec<u8>) {
    pull_by(cursor, count, usize::MAX)
}

/// [`pull`], asking the cursor for at most `budget` pairs at a time: its
/// source is then told to fetch no more than that per batch, so a leaf is
/// read in several truncated batches, each resumed where the last stopped.
fn pull_by(
    mut cursor: Cursor<'_, u64>,
    count: usize,
    budget: usize,
) -> (Vec<(Vec<u8>, u64)>, Vec<u8>) {
    let mut got = Vec::new();
    while got.len() < count {
        let want = budget.min(count - got.len());
        if cursor.collect_next(want, &mut got) < want {
            break;
        }
    }
    (got, cursor.resume_key())
}

proptest! {
    // The cursor differential runs at a higher case count than the op-level
    // differentials above: resumption interacts with mutations in ways a
    // single linear scan never exercises.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interleaved resumable scans: apply a batch of mutations, stream a
    /// window through a cursor on every ordered index, resume from the
    /// cursor's reported key after the next batch of mutations, and check
    /// each window — and the final quiesced full drain — against
    /// `BTreeMap::range`. The Wormholes are read three times over: with the
    /// window as the fetch budget, and one and seven pairs at a time.
    #[test]
    fn interleaved_scan_cursors_match_btreemap(
        phases in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (key_strategy(), any::<u64>(), any::<bool>()), 0..30),
                1usize..25,
            ),
            1..4),
        start in key_strategy(),
    ) {
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut skiplist = SkipList::new();
        let mut btree = BPlusTree::with_fanout(8);
        let mut art = Art::new();
        let mut masstree = Masstree::new();
        let mut wh_unsafe =
            WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let wh = Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let sharded = sharded_under_test();

        let mut resume = start.clone();
        for (ops, window) in &phases {
            for (k, v, is_delete) in ops {
                if *is_delete {
                    let expect = model.remove(k);
                    prop_assert_eq!(skiplist.del(k), expect);
                    prop_assert_eq!(btree.del(k), expect);
                    prop_assert_eq!(art.del(k), expect);
                    prop_assert_eq!(masstree.del(k), expect);
                    prop_assert_eq!(wh_unsafe.del(k), expect);
                    prop_assert_eq!(wh.del(k), expect);
                    prop_assert_eq!(sharded.del(k), expect);
                } else {
                    let expect = model.insert(k.clone(), *v);
                    prop_assert_eq!(skiplist.set(k, *v), expect);
                    prop_assert_eq!(btree.set(k, *v), expect);
                    prop_assert_eq!(art.set(k, *v), expect);
                    prop_assert_eq!(masstree.set(k, *v), expect);
                    prop_assert_eq!(wh_unsafe.set(k, *v), expect);
                    prop_assert_eq!(wh.set(k, *v), expect);
                    prop_assert_eq!(sharded.set(k, *v), expect);
                }
            }
            // A rebalance decision between mutation batches may migrate a
            // boundary under the resumable scans below — resume keys must
            // re-route through the moved boundaries transparently.
            let _ = sharded.maybe_rebalance();
            // Stream one window from the shared resume point on every index
            // (the baselines via the default range_from-adapted cursor, the
            // Wormholes via their native leaf-streaming cursors).
            let expect: Vec<(Vec<u8>, u64)> = model
                .range(resume.clone()..)
                .take(*window)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            let windows = [
                pull(skiplist.scan(&resume), *window),
                pull(btree.scan(&resume), *window),
                pull(art.scan(&resume), *window),
                pull(masstree.scan(&resume), *window),
                pull(wh_unsafe.scan(&resume), *window),
                pull(wh.scan(&resume), *window),
                pull(sharded.scan(&resume), *window),
                pull_by(wh_unsafe.scan(&resume), *window, 1),
                pull_by(wh.scan(&resume), *window, 1),
                pull_by(sharded.scan(&resume), *window, 1),
                pull_by(wh_unsafe.scan(&resume), *window, 7),
                pull_by(wh.scan(&resume), *window, 7),
                pull_by(sharded.scan(&resume), *window, 7),
            ];
            for (got, resume_key) in &windows {
                prop_assert_eq!(got, &expect);
                prop_assert_eq!(resume_key, &windows[0].1, "resume keys diverge");
            }
            resume = windows[0].1.clone();
        }

        // Quiesced: a fresh cursor drained from the original start must
        // agree with range_from and the model on every index.
        let expect_all: Vec<(Vec<u8>, u64)> = model
            .range(start.clone()..)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let drains = [
            pull(skiplist.scan(&start), usize::MAX).0,
            pull(btree.scan(&start), usize::MAX).0,
            pull(art.scan(&start), usize::MAX).0,
            pull(masstree.scan(&start), usize::MAX).0,
            pull(wh_unsafe.scan(&start), usize::MAX).0,
            pull(wh.scan(&start), usize::MAX).0,
            pull(sharded.scan(&start), usize::MAX).0,
            pull_by(wh_unsafe.scan(&start), usize::MAX, 1).0,
            pull_by(wh.scan(&start), usize::MAX, 7).0,
            pull_by(sharded.scan(&start), usize::MAX, 7).0,
        ];
        for drained in &drains {
            prop_assert_eq!(drained, &expect_all);
        }
        prop_assert_eq!(wh_unsafe.range_from(&start, usize::MAX), expect_all.clone());
        prop_assert_eq!(wh.range_from(&start, usize::MAX), expect_all.clone());
        prop_assert_eq!(sharded.range_from(&start, usize::MAX), expect_all);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Live cursors: one cursor on `Wormhole` and one on `ShardedWormhole`
    /// stay open while batches of mutations run on the same indexes, and
    /// are pulled 1, 7 or 16 pairs at a time in between, then drained.
    /// Each stream must be strictly ascending and start at or after the
    /// start key, so no key appears twice; every key present for the whole
    /// scan must appear; and every value yielded for a key must have been
    /// the model's value for it at some point during the scan.
    #[test]
    fn live_cursors_stream_across_mutation_batches(
        initial in proptest::collection::vec((key_strategy(), any::<u64>()), 0..120),
        phases in proptest::collection::vec(
            (
                proptest::collection::vec((key_strategy(), any::<u64>(), 0u8..4), 0..30),
                prop_oneof![Just(1usize), Just(7usize), Just(16usize)],
            ),
            1..12),
        start in key_strategy(),
    ) {
        let wh = Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(8));
        let sharded = sharded_under_test();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, v) in &initial {
            model.insert(k.clone(), *v);
            wh.set(k, *v);
            sharded.set(k, *v);
        }
        // Every value each key held since the cursors opened, and the keys
        // ahead of the start present all the while.
        let mut held: HashMap<Vec<u8>, Vec<u64>> =
            model.iter().map(|(k, v)| (k.clone(), vec![*v])).collect();
        let mut stable: BTreeSet<Vec<u8>> =
            model.range(start.clone()..).map(|(k, _)| k.clone()).collect();
        let mut cursors = [wh.scan(&start), sharded.scan(&start)];
        let mut streams = [Vec::new(), Vec::new()];
        for (ops, pull) in &phases {
            for (k, v, kind) in ops {
                // Kind 0 deletes the last key the `Wormhole` cursor yielded,
                // which shifts the leaf its source stopped in under it, or
                // else a held key; kind 1 overwrites a held key; 2 and 3 set
                // the generated key.
                let last = streams[0].last().map(|(k, _)| k).filter(|k| model.contains_key(*k));
                let any = (!model.is_empty()).then(|| model.keys().nth(*v as usize % model.len()));
                let k = match kind {
                    0 => last.or(any.flatten()).unwrap_or(k),
                    1 => any.flatten().unwrap_or(k),
                    _ => k,
                }
                .clone();
                let k = &k;
                if *kind == 0 {
                    stable.remove(k);
                    let expect = model.remove(k);
                    prop_assert_eq!(wh.del(k), expect);
                    prop_assert_eq!(sharded.del(k), expect);
                } else {
                    let expect = model.insert(k.clone(), *v);
                    held.entry(k.clone()).or_default().push(*v);
                    prop_assert_eq!(wh.set(k, *v), expect);
                    prop_assert_eq!(sharded.set(k, *v), expect);
                }
            }
            let _ = sharded.maybe_rebalance();
            for (cursor, stream) in cursors.iter_mut().zip(&mut streams) {
                cursor.collect_next(*pull, stream);
            }
        }
        for (cursor, stream) in cursors.iter_mut().zip(&mut streams) {
            cursor.collect_next(usize::MAX, stream);
        }
        for stream in &streams {
            prop_assert!(stream.first().is_none_or(|(k, _)| *k >= start));
            prop_assert!(stream.windows(2).all(|w| w[0].0 < w[1].0), "not ascending");
            for (k, v) in stream {
                prop_assert!(held.get(k).is_some_and(|values| values.contains(v)), "{:?}", k);
            }
            let streamed: BTreeSet<&Vec<u8>> = stream.iter().map(|(k, _)| k).collect();
            for k in &stable {
                prop_assert!(streamed.contains(k), "stable key {:?} missing", k);
            }
        }
    }
}
