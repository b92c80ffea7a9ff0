//! Property tests for the cache-line-bucketized MetaTrieHT, plus the
//! allocation guard proving the lookup hot path stays allocation-free.
//!
//! * randomized insert/remove sequences must keep the hash-table layer in
//!   agreement with a `HashMap` model across `grow()` boundaries;
//! * randomized anchor sets driven through the one structural operation
//!   (`MetaTable::apply` of a split's or merge's `MetaUpdate`) must produce
//!   identical `search_target` outcomes in optimistic (TagMatching) and
//!   exact probe modes;
//! * `Wormhole::get` / `WormholeUnsafe::get` — and therefore the LPM binary
//!   search and trie sibling step under them — must perform **zero** heap
//!   allocations per call;
//! * a table record whose prefix fits inline owns no heap block, a split or
//!   merge allocates nothing else in the table, and `structure_bytes` is
//!   what the table has allocated.

use std::collections::HashMap;

use index_traits::{ConcurrentOrderedIndex, OrderedIndex};
use proptest::prelude::*;
use wh_telemetry::alloc::{self, CountingAlloc};
use wormhole::meta::{MetaKind, MetaTable, MetaUpdate, TargetOutcome};
use wormhole::{Wormhole, WormholeConfig, WormholeUnsafe};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

// ---------------------------------------------------------------------
// Allocation guards: the lookup hot path
// ---------------------------------------------------------------------

/// Keys covering the shapes that stress the MetaTrieHT: short, long,
/// prefix-heavy, and binary.
fn lookup_keyset() -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for i in 0..3000u32 {
        keys.push(format!("user:{:06}:profile", i * 37 % 3000).into_bytes());
        if i % 3 == 0 {
            keys.push(format!("url/http/site-{}/deep/path/{i:08}", i % 7).into_bytes());
        }
        if i % 5 == 0 {
            keys.push(vec![(i % 251) as u8, (i / 251) as u8, 0, 1, (i % 17) as u8]);
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

#[test]
fn concurrent_get_is_allocation_free() {
    let wh: Wormhole<u64> = Wormhole::new();
    let keys = lookup_keyset();
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    let misses: Vec<Vec<u8>> = (0..512u32)
        .map(|i| format!("absent-key-{i:05}/nothing-here").into_bytes())
        .collect();
    // Warm-up: registers this thread's QSBR handle (first use allocates a
    // thread-local entry) and faults in lazily initialised TLS.
    for k in keys.iter().take(16) {
        assert!(wh.get(k).is_some());
    }
    assert_eq!(wh.get(&misses[0]), None);

    let before = alloc::thread().allocs_and_reallocs();
    let mut hits = 0usize;
    for k in &keys {
        hits += usize::from(wh.get(k).is_some());
    }
    for k in &misses {
        hits += usize::from(wh.get(k).is_some());
    }
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(hits, keys.len());
    assert_eq!(
        after - before,
        0,
        "Wormhole::get allocated ({} allocations over {} lookups)",
        after - before,
        keys.len() + misses.len(),
    );
}

#[test]
fn concurrent_get_retry_path_is_allocation_free() {
    // The seqlock read path must stay allocation-free even when reads race
    // writers and retry (or fall through to the locked fallback): a churn
    // thread keeps splitting and merging the probed leaves for the whole
    // measured window. Allocations are counted per-thread, so the writer's
    // own allocations do not pollute the reader's count.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let wh: Arc<Wormhole<u64>> = Arc::new(Wormhole::with_config(
        WormholeConfig::optimized().with_leaf_capacity(8),
    ));
    let keys = lookup_keyset();
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let wh = Arc::clone(&wh);
        let stop = Arc::clone(&stop);
        let churn_keys: Vec<Vec<u8>> = keys
            .iter()
            .step_by(5)
            .map(|k| {
                let mut c = k.clone();
                c.extend_from_slice(b"~churn");
                c
            })
            .collect();
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for k in &churn_keys {
                    wh.set(k, round);
                }
                for k in &churn_keys {
                    wh.del(k);
                }
                round += 1;
            }
        })
    };
    // Warm-up: registers this thread's QSBR handle and faults in TLS.
    for k in keys.iter().take(16) {
        assert!(wh.get(k).is_some());
    }

    let before = alloc::thread().allocs_and_reallocs();
    let mut hits = 0usize;
    for _ in 0..3 {
        for k in &keys {
            hits += usize::from(wh.get(k).is_some());
        }
    }
    let after = alloc::thread().allocs_and_reallocs();
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    assert_eq!(hits, 3 * keys.len(), "resident keys must never be missed");
    assert_eq!(
        after - before,
        0,
        "Wormhole::get allocated under churn ({} allocations over {} lookups)",
        after - before,
        3 * keys.len(),
    );
}

// ---------------------------------------------------------------------
// Allocation guards: the streaming scan cursor
// ---------------------------------------------------------------------

/// Uniform-length keys for the cursor scans, so buffer demand per batch is
/// bounded by `leaf_capacity * key_len` and the pre-sizing below is exact.
fn scan_keyset(n: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("scan-{i:08}").into_bytes())
        .collect()
}

#[test]
fn concurrent_cursor_batch_advancement_is_allocation_free() {
    // Steady-state batch advancement of the concurrent scan cursor —
    // continue in the leaf or follow its link, copy a chunk into the batch
    // arena, validate, advance the resume bound — must reuse every buffer:
    // zero allocations per batch once the arenas have reached their
    // working size.
    let wh: Wormhole<u64> =
        Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(16));
    let keys = scan_keyset(12_000);
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    // Warm-up: QSBR handle + TLS.
    assert!(wh.get(&keys[0]).is_some());

    let mut cursor = wh.scan(b"");
    // Two batches bring every buffer to its working size.
    let mut streamed = 0usize;
    for _ in 0..2 {
        streamed += cursor.next_batch().expect("population not exhausted").len();
    }

    let before = alloc::thread().allocs_and_reallocs();
    while let Some(batch) = cursor.next_batch() {
        streamed += batch.len();
    }
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(streamed, keys.len(), "cursor lost pairs");
    assert_eq!(
        after - before,
        0,
        "concurrent cursor allocated ({} allocations while streaming)",
        after - before,
    );
}

#[test]
fn single_threaded_cursor_batch_advancement_is_allocation_free() {
    let mut wh: WormholeUnsafe<u64> =
        WormholeUnsafe::with_config(WormholeConfig::optimized().with_leaf_capacity(16));
    let keys = scan_keyset(12_000);
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    let mut cursor = wh.scan(b"");
    let mut streamed = 0usize;
    for _ in 0..2 {
        streamed += cursor.next_batch().expect("population not exhausted").len();
    }

    let before = alloc::thread().allocs_and_reallocs();
    while let Some(batch) = cursor.next_batch() {
        streamed += batch.len();
    }
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(streamed, keys.len(), "cursor lost pairs");
    assert_eq!(
        after - before,
        0,
        "single-threaded cursor allocated ({} allocations while streaming)",
        after - before,
    );
}

#[test]
fn concurrent_full_range_from_allocates_only_per_pair_output() {
    // `range_from(b"", usize::MAX)` now streams through the cursor, so its
    // per-leaf-hop machinery (resume bound, batch arena, tail snapshot)
    // must reuse buffers: the only O(n) allocation left is the unavoidable
    // one key-`Vec` per materialised pair, plus a logarithmic number of
    // buffer growths. A regression that clones the resume key (or any
    // other per-hop state) per leaf would add ~one allocation per leaf hop
    // (750 leaves here) and break the bound.
    let wh: Wormhole<u64> =
        Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(16));
    let keys = scan_keyset(12_000);
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    assert!(wh.get(&keys[0]).is_some()); // QSBR/TLS warm-up

    let before = alloc::thread().allocs_and_reallocs();
    let scan = wh.range_from(b"", usize::MAX);
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(scan.len(), keys.len());
    assert!(
        after - before <= keys.len() + 64,
        "range_from allocated {} times for {} pairs (> 1 per pair + slack)",
        after - before,
        keys.len(),
    );
}

#[test]
fn short_window_range_from_does_not_copy_whole_leaves() {
    // The cursor threads the window budget down to the per-leaf collectors,
    // so a count-1 range on heap values (String forces the locked scan
    // path, where every collected value is a real clone) must stay O(1):
    // a whole-leaf snapshot would cost ~leaf_capacity allocations instead.
    let wh: Wormhole<String> =
        Wormhole::with_config(WormholeConfig::optimized().with_leaf_capacity(64));
    for i in 0..2_000u32 {
        wh.set(
            format!("short-{i:06}").as_bytes(),
            format!("value-payload-{i:06}-{}", "x".repeat(24)),
        );
    }
    assert!(wh.get(b"short-000000").is_some()); // warm-up

    let before = alloc::thread().allocs_and_reallocs();
    let out = wh.range_from(b"short-001000", 1);
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, b"short-001000".to_vec());
    assert!(
        after - before <= 24,
        "count-1 range_from allocated {} times (whole-leaf copy?)",
        after - before,
    );
}

#[test]
fn warm_scan_and_in_capacity_mutations_allocate_a_fixed_handful() {
    // What a call costs the allocator once the buffers it touches have
    // room. A scan: its source, its position and the two vectors of its
    // batch (each sized once for the chunk about to be read, never grown
    // by doubling) — whether or not it first has to sort the leaves it
    // reads, which happens in place, and however many leaves it walks. An
    // overwrite: nothing. An insert: the key's own block. A removal:
    // nothing — the key's block moves into the index's one garbage bin,
    // which has room (a bin is replaced, and its callback boxed, once per
    // thousand retirements).
    let wh: Wormhole<u64> = Wormhole::new();
    let keys = scan_keyset(4_000);
    for (i, k) in keys.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        wh.set(k, i as u64);
    }
    assert!(wh.get(&keys[0]).is_some()); // QSBR/TLS warm-up
                                         // The leaves the scans below read each take a key behind their sorted
                                         // view.
    for i in (1003..1200).step_by(20) {
        wh.set(&keys[i], i as u64);
    }
    let scan_64 = |from: &[u8]| {
        let before = alloc::thread().allocs_and_reallocs();
        let mut cursor = wh.scan(from);
        for _ in 0..64 {
            cursor.next().expect("64 pairs at or after the start");
        }
        drop(cursor);
        alloc::thread().allocs_and_reallocs() - before
    };
    let sorts = wh.metrics().scan_sorts.get();
    let first = scan_64(&keys[1000]);
    assert!(wh.metrics().scan_sorts.get() > sorts, "the leaves lagged");
    let sorts = wh.metrics().scan_sorts.get();
    let warm = scan_64(&keys[1000]);
    assert_eq!(wh.metrics().scan_sorts.get(), sorts, "the order was kept");
    assert!(first <= 4, "a sorting 64-key scan allocated {first} times");
    assert!(warm <= 4, "a warm 64-key scan allocated {warm} times");

    // An odd key goes in, out and in again: the second time every buffer
    // of its leaf has room for it.
    let (key, value) = (&keys[1001], 1001u64);
    assert_eq!(wh.set(key, value), None);
    assert_eq!(wh.del(key), Some(value));
    let before = alloc::thread().allocs_and_reallocs();
    assert_eq!(wh.set(key, value), None);
    let insert = alloc::thread().allocs_and_reallocs() - before;
    let before = alloc::thread().allocs_and_reallocs();
    assert_eq!(wh.set(key, value + 1), Some(value));
    let overwrite = alloc::thread().allocs_and_reallocs() - before;
    let before = alloc::thread().allocs_and_reallocs();
    assert_eq!(wh.del(key), Some(value + 1));
    let remove = alloc::thread().allocs_and_reallocs() - before;
    assert_eq!(insert, 1, "an in-capacity insert allocates its key block");
    assert_eq!(overwrite, 0, "an overwrite allocates nothing");
    assert_eq!(remove, 0, "a removal allocates nothing");
}

#[test]
fn single_threaded_get_is_allocation_free() {
    let mut wh: WormholeUnsafe<u64> = WormholeUnsafe::new();
    let keys = lookup_keyset();
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    let misses: Vec<Vec<u8>> = (0..512u32)
        .map(|i| format!("missing/{i:06}").into_bytes())
        .collect();
    for k in keys.iter().take(16) {
        assert!(wh.get(k).is_some());
    }

    let before = alloc::thread().allocs_and_reallocs();
    let mut hits = 0usize;
    for k in &keys {
        hits += usize::from(wh.get(k).is_some());
    }
    for k in &misses {
        hits += usize::from(wh.get(k).is_some());
    }
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(hits, keys.len());
    assert_eq!(
        after - before,
        0,
        "WormholeUnsafe::get allocated ({} allocations)",
        after - before,
    );
}

#[test]
fn concurrent_get_batch_allocates_only_the_result_vector() {
    // Same guard for the concurrent seqlock path: the shared QSBR critical
    // section, the pipelined window, and the optimistic leaf reads must
    // not allocate; one allocation per call for the returned `Vec`.
    let wh: Wormhole<u64> = Wormhole::new();
    let keys = lookup_keyset();
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    let mut probes: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let misses: Vec<Vec<u8>> = (0..64u32)
        .map(|i| format!("missing/{i:06}").into_bytes())
        .collect();
    probes.extend(misses.iter().map(|k| k.as_slice()));
    // Warm-up registers the QSBR handle and faults in TLS.
    for k in keys.iter().take(16) {
        assert!(wh.get(k).is_some());
    }
    assert_eq!(wh.get(&misses[0]), None);

    let mut calls = 0usize;
    let before = alloc::thread().allocs_and_reallocs();
    let mut hits = 0usize;
    for batch in [1usize, 7, 16, 128] {
        for chunk in probes.chunks(batch) {
            hits += wh.get_batch(chunk).iter().flatten().count();
            calls += 1;
        }
    }
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(hits, 4 * keys.len());
    assert_eq!(
        after - before,
        calls,
        "Wormhole::get_batch allocated beyond the result vector \
         ({} allocations over {} calls)",
        after - before,
        calls,
    );
}

#[test]
fn meta_search_target_is_allocation_free() {
    // Drive search_target directly (both probe modes), covering the LPM
    // binary search and the trie sibling step without the leaf layer.
    let mut wh: WormholeUnsafe<u64> = WormholeUnsafe::new();
    let keys = lookup_keyset();
    for (i, k) in keys.iter().enumerate() {
        wh.set(k, i as u64);
    }
    let optimistic = WormholeConfig::optimized();
    let exact = WormholeConfig::base();
    let meta = wh.meta_table();
    let probes: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

    let before = alloc::thread().allocs_and_reallocs();
    for key in &probes {
        let a = meta.search_target(key, &optimistic);
        let b = meta.search_target(key, &exact);
        assert!(a == b);
    }
    let after = alloc::thread().allocs_and_reallocs();
    assert_eq!(
        after - before,
        0,
        "search_target allocated ({} allocations)",
        after - before,
    );
}

// ---------------------------------------------------------------------
// The item layout: what a table allocates
// ---------------------------------------------------------------------

/// A table over `anchors` (ascending, none ending in ⊥), every split
/// carving the new leaf (1, 2, …) off the rightmost one; `LeafListModel`
/// would do, at a quadratic price in the 25 000 anchors of the test below.
fn table_over(anchors: &[Vec<u8>]) -> MetaTable<u32> {
    let mut table = MetaTable::new();
    table.install_root_leaf(0);
    for (prev, anchor) in (0u32..).zip(anchors) {
        table.apply(&MetaUpdate::Split {
            table_key: table.reserve_anchor_key(anchor),
            new_leaf: prev + 1,
            split_leaf: prev,
            old_right: None,
        });
    }
    table
}

#[test]
fn structure_bytes_is_what_the_table_holds() {
    use workloads::KeysetId;
    let mut anchors = workloads::generate(KeysetId::Az1, 20_000, 3).keys;
    anchors.extend(workloads::generate(KeysetId::Url, 5_000, 4).keys);
    anchors.retain(|a| a.last().is_some_and(|&b| b != 0));
    anchors.sort();
    anchors.dedup();
    let before = alloc::thread().live_bytes;
    let table = table_over(&anchors);
    let held = (alloc::thread().live_bytes - before) as f64;
    assert!(table.len() > 100_000, "every prefix of every anchor");
    let reported = table.structure_bytes() as f64;
    assert!(
        (reported - held).abs() <= 0.05 * held,
        "structure_bytes says {reported}, the allocator {held}"
    );
    let shape = table.shape();
    assert_eq!(
        (shape.items, shape.bytes),
        (table.len(), table.structure_bytes())
    );
    assert!(shape.bitmaps > 0 && shape.bitmaps < anchors.len());
}

#[test]
fn a_record_with_an_inline_prefix_owns_no_heap_block() {
    // The same split twice, a merge between: the second time the records
    // and the bitmap slot come off the free lists and no `Vec` grows, so
    // whatever the whole second split allocates, an item owns. That is
    // nothing while the prefixes fit their records, and one block per
    // longer prefix.
    let inline = vec![b'q'; wormhole::meta::INLINE_PREFIX];
    let long = [&inline[..], b"-and-on"].concat();
    for (anchor, blocks) in [(inline.clone(), 0), (long, 7)] {
        let mut table = table_over(&[b"pa".to_vec(), b"pb".to_vec(), b"r".to_vec()]);
        // Between "pb" (leaf 2) and "r" (leaf 3): "q" becomes the root's
        // fourth child, the rest a chain of one-child nodes.
        let split = MetaUpdate::Split {
            table_key: anchor.clone(),
            new_leaf: 4,
            split_leaf: 2,
            old_right: Some(3),
        };
        let merge = MetaUpdate::Merge {
            table_key: anchor.clone(),
            victim: 4,
            left: 2,
            right: Some(3),
        };
        table.apply(&split);
        table.apply(&merge);
        let before = alloc::thread().allocs_and_reallocs();
        table.apply(&split);
        let made = alloc::thread().allocs_and_reallocs() - before;
        assert_eq!(made, blocks, "{} bytes", anchor.len());
        assert_eq!(table.len(), 6 + anchor.len());
    }
}

#[test]
fn an_az1_split_and_merge_allocate_nothing_in_the_table() {
    // The benchmark's key shape: a table over the anchors a load of 64 k
    // `Az1` keys makes (the common prefix of two adjacent keys plus one
    // byte, every 48 keys), and the anchor of a middle leaf merged away
    // and split back off again.
    let mut keys = workloads::generate(workloads::KeysetId::Az1, 64_000, 5).keys;
    keys.sort();
    keys.dedup();
    let mut anchors: Vec<Vec<u8>> = keys
        .windows(2)
        .step_by(48)
        .map(|pair| pair[1][..=index_traits::common_prefix_len(&pair[0], &pair[1])].to_vec())
        .filter(|anchor| anchor.last() != Some(&0))
        .collect();
    anchors.dedup();
    let mut table = table_over(&anchors);
    let (mid, len) = (anchors.len() as u32 / 2, table.len());
    let anchor = anchors[mid as usize - 1].clone();
    assert!(anchor.len() <= wormhole::meta::INLINE_PREFIX);
    assert!(matches!(table.kind(&anchor), Some(MetaKind::Leaf(leaf)) if leaf == mid));
    let merge = MetaUpdate::Merge {
        table_key: anchor.clone(),
        victim: mid,
        left: mid - 1,
        right: Some(mid + 1),
    };
    let split = MetaUpdate::Split {
        table_key: anchor,
        new_leaf: mid,
        split_leaf: mid - 1,
        old_right: Some(mid + 1),
    };
    // The first round fills the free lists; the second takes from them.
    table.apply(&merge);
    assert!(table.apply(&split).is_empty(), "no anchor relocates");
    let blocks = |table: &mut MetaTable<u32>, update: &MetaUpdate<u32>| {
        let before = alloc::thread().allocs_and_reallocs();
        table.apply(update);
        alloc::thread().allocs_and_reallocs() - before
    };
    assert_eq!(blocks(&mut table, &merge), 0, "the merge");
    assert_eq!(blocks(&mut table, &split), 0, "the split");
    assert_eq!(table.len(), len);
}

// ---------------------------------------------------------------------
// Property: hash-table layer agrees with a HashMap model across grow()
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn meta_table_matches_hashmap_model(ops in proptest::collection::vec(
        (proptest::collection::vec(0u8..6, 0..7), any::<bool>()), 800..1400)) {
        let mut table: MetaTable<u32> = MetaTable::new();
        let mut model: HashMap<Vec<u8>, u32> = HashMap::new();
        for (i, (key, is_remove)) in ops.iter().enumerate() {
            if *is_remove {
                let removed = table.remove(key);
                prop_assert_eq!(removed, model.remove(key).is_some());
            } else {
                let replaced = table.insert(key, MetaKind::Leaf(i as u32));
                prop_assert_eq!(replaced, model.insert(key.clone(), i as u32).is_some());
            }
            prop_assert_eq!(table.len(), model.len());
        }
        // Every surviving key maps to its latest value; the small alphabet
        // plus several hundred live items drives the table through at least
        // one grow() (the initial 64-bucket array resizes at 384 items).
        for (key, value) in &model {
            match table.kind(key) {
                Some(MetaKind::Leaf(leaf)) => prop_assert_eq!(leaf, *value),
                other => return Err(TestCaseError::fail(format!("missing {key:?}: {other:?}"))),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property: optimistic and exact probe modes agree through splits/merges
// ---------------------------------------------------------------------

/// A model of the leaf list: `(table_key, leaf_id)` sorted by table key.
/// Drives the MetaTrieHT through its structural API the same way the index
/// does, without needing real leaves.
struct LeafListModel {
    table: MetaTable<u32>,
    leaves: Vec<(Vec<u8>, u32)>,
    next_leaf: u32,
}

impl LeafListModel {
    fn new() -> Self {
        let mut table = MetaTable::new();
        table.install_root_leaf(0);
        Self {
            table,
            leaves: vec![(Vec::new(), 0)],
            next_leaf: 1,
        }
    }

    /// Splits the covering leaf at `anchor`, registering a fresh leaf.
    fn split(&mut self, anchor: &[u8]) {
        if anchor.is_empty() {
            return;
        }
        let table_key = self.table.reserve_anchor_key(anchor);
        // Predecessor = last leaf whose table key sorts before the new one.
        let pos = self.leaves.partition_point(|(k, _)| k < &table_key);
        // A real split anchor is strictly greater than the covering leaf's
        // table key (`choose_split` candidates exceed every key of the left
        // half, and the ⊥-extension gap below the table key holds only
        // zero-terminated strings, which are rejected). An anchor violating
        // that cannot arise, so the model skips it.
        if self.leaves[pos - 1].0.as_slice() >= anchor {
            return;
        }
        let split_leaf = self.leaves[pos - 1].1;
        let old_right = self.leaves.get(pos).map(|(_, l)| *l);
        let leaf = self.next_leaf;
        self.next_leaf += 1;
        let relocations = self.table.apply(&MetaUpdate::Split {
            table_key: table_key.clone(),
            new_leaf: leaf,
            split_leaf,
            old_right,
        });
        for (moved, new_key) in relocations {
            let entry = self
                .leaves
                .iter_mut()
                .find(|(_, l)| *l == moved)
                .expect("relocated leaf is registered");
            entry.0 = new_key;
        }
        self.leaves.insert(pos, (table_key, leaf));
        // Relocations append ⊥ tokens, which never reorders the list; keep
        // the invariant checkable.
        debug_assert!(self.leaves.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Merges the leaf at (1-based) position `pos mod live leaves` into its
    /// left neighbour, unregistering it.
    fn merge(&mut self, pos: usize) {
        if self.leaves.len() < 2 {
            return;
        }
        let victim_pos = 1 + pos % (self.leaves.len() - 1);
        let (victim_key, victim) = self.leaves.remove(victim_pos);
        let left = self.leaves[victim_pos - 1].1;
        let right = self.leaves.get(victim_pos).map(|(_, l)| *l);
        self.table.apply(&MetaUpdate::Merge {
            table_key: victim_key,
            victim,
            left,
            right,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimistic_and_exact_probes_agree(
        // Anchors may contain interior ⊥ (zero) tokens but never end in
        // one — `choose_split` skips zero-terminated candidates (§3.3), and
        // the relocation invariant of Algorithm 4 depends on it.
        anchors in proptest::collection::vec(
            (proptest::collection::vec(0u8..5, 0..7), 1u8..5)
                .prop_map(|(mut head, last)| { head.push(last); head }),
            80..160),
        merges in proptest::collection::vec(any::<u16>(), 0..30),
        probes in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 0..10), 64..128)) {
        let mut model = LeafListModel::new();
        for anchor in &anchors {
            model.split(anchor);
        }
        for merge in &merges {
            model.merge(*merge as usize);
        }
        let optimistic = WormholeConfig::optimized();
        let exact = WormholeConfig::base();
        // With ~100 live anchors over a 5-token alphabet the table holds
        // several hundred prefix items, crossing the 384-item grow()
        // boundary of the initial 64-bucket array.
        for (table_key, leaf) in &model.leaves {
            // find: every registered anchor resolves exactly.
            match model.table.kind(table_key) {
                Some(MetaKind::Leaf(found)) => prop_assert_eq!(found, *leaf),
                other => return Err(TestCaseError::fail(format!(
                    "anchor {table_key:?} lost: {other:?}"))),
            }
            // LPM on the anchor itself lands on its own leaf in both modes.
            prop_assert_eq!(
                model.table.search_target(table_key, &optimistic),
                TargetOutcome::Target(leaf)
            );
            prop_assert_eq!(
                model.table.search_target(table_key, &exact),
                TargetOutcome::Target(leaf)
            );
        }
        // Arbitrary probe keys: optimistic (tag-trusting) and exact probe
        // modes must produce identical trie-search outcomes.
        for probe in &probes {
            prop_assert_eq!(
                model.table.search_target(probe, &optimistic),
                model.table.search_target(probe, &exact),
                "probe {:?}", probe
            );
        }
    }
}
