//! A Memcached-style shared key-value cache served by the **sharded**
//! Wormhole front — the scenario that motivates the paper's introduction
//! (in-memory KV stores whose index cost dominates once I/O is gone), at
//! the multi-writer scale where a single index's writer mutex would start
//! to serialise structural changes.
//!
//! The cache range-partitions the keyset over four independent Wormhole
//! shards (boundaries sampled from the expected keys, so even a skewed
//! keyset spreads evenly). Several worker threads serve a mixed GET/SET
//! workload, while one analytics thread periodically runs ordered range
//! scans — which stream straight across shard boundaries, the operation a
//! plain hash-partitioned cache cannot serve in key order.
//!
//! An interlude demonstrates **batched multi-get**: a client fetches an
//! 800-key working set through `get_batch` — one router critical section,
//! pipelined probes with overlapped cache misses per shard — and the
//! per-batch latency is printed next to the same keys read one get at a
//! time.
//!
//! The second act demonstrates **online rebalancing**: the workload
//! shifts onto a narrow hot range (one shard absorbs everything, the way
//! a tenant going viral would), a rebalancer thread watches the per-shard
//! op counters through `maybe_rebalance()`, and the boundary migrates
//! live — no rebuild, no downtime — until the hot range spans shards
//! again. Per-shard op counters are printed before and after.
//!
//! The third act demonstrates **crash durability**: the cache becomes a
//! `DurableWormhole` over the same sharded front (one write-ahead log
//! above the router), its contents are loaded and checkpointed, and the
//! in-memory state is dropped — the process forgetting everything it
//! served. `open()` then rebuilds the cache from disk (newest snapshot +
//! WAL tail), the contents are verified entry for entry, and the workers
//! resume serving with every acknowledged write group-committed, while a
//! rebalancer keeps migrating boundaries live under the log.
//!
//! Run with: `cargo run --release --example kv_cache`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use index_traits::{ConcurrentOrderedIndex, DurableIndex};
use wh_durable::{DurableOptions, DurableWormhole, SyncPolicy};
use wh_shard::{RebalanceConfig, ShardedConfig, ShardedWormhole};
use wh_telemetry::{MetricsSnapshot, Registry};
use workloads::{generate, uniform_indices, KeysetId};

const KEYS: usize = 200_000;
const OPS_PER_WORKER: usize = 300_000;
const SHARDS: usize = 4;

/// The cache made durable: one WAL over the sharded front.
type DurableStore = DurableWormhole<u64, ShardedWormhole<u64>>;

/// Dumps the cache-facing slice of a [`MetricsSnapshot`]: per-shard load
/// (the same counters the rebalancer reads), the router path split, and
/// migration progress. Everything here comes off the snapshot — the
/// example's "dashboard" is the telemetry registry, not ad-hoc printf
/// plumbing.
fn dump_cache_snapshot(cache: &ShardedWormhole<u64>, snap: &MetricsSnapshot, label: &str) {
    println!("{label}:");
    for s in 0..cache.shard_count() {
        println!(
            "  shard {s}: {:>7} entries, {:>9} ops",
            cache.shard(s).len(),
            snap.counter(&format!("cache_shard{s}_ops_total")),
        );
    }
    println!(
        "  router: {} fast entries / {} classic; migrations: {} batches, {} keys moved",
        snap.counter("cache_router_fast_entries_total"),
        snap.counter("cache_router_classic_entries_total"),
        snap.counter("cache_migration_batches_total"),
        snap.counter("cache_migration_moved_keys_total"),
    );
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    println!("generating {KEYS} Az1-style keys…");
    let keyset = generate(KeysetId::Az1, KEYS, 7);
    // Boundaries drawn from a thin sample of the keyset: each shard gets
    // roughly a quarter of the traffic, whatever the key distribution.
    let sample: Vec<&[u8]> = keyset.keys.iter().step_by(64).map(Vec::as_slice).collect();
    let rebalance = RebalanceConfig {
        min_pair_ops: 10_000,
        imbalance_percent: 200,
        batch_keys: 1_024,
        sample_cap: 4_096,
        min_move_keys: 512,
    };
    let config = ShardedConfig::from_sample(SHARDS, &sample).with_rebalance(rebalance.clone());
    let cache: Arc<ShardedWormhole<u64>> = Arc::new(ShardedWormhole::with_config(config));
    // Every layer below records into this registry; the example's stats
    // printing is snapshot dumps of it.
    let registry = Arc::new(Registry::new());
    cache.register_metrics(&registry, "cache");
    println!(
        "sharded cache: {} shards, boundaries at {:?}",
        cache.shard_count(),
        cache
            .boundaries()
            .iter()
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .collect::<Vec<_>>(),
    );

    // Warm the cache with half of the keyset.
    for (i, key) in keyset.keys.iter().take(KEYS / 2).enumerate() {
        cache.set(key, i as u64);
    }
    println!("cache warmed with {} entries", cache.len());
    for s in 0..cache.shard_count() {
        println!("  shard {s}: {} entries", cache.shard(s).len());
    }

    let hits = Arc::new(AtomicUsize::new(0));
    let misses = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();

    std::thread::scope(|scope| {
        // Mixed GET/SET workers (90% GET / 10% SET); writers on different
        // shards never meet on a writer mutex.
        for w in 0..workers {
            let cache = Arc::clone(&cache);
            let keys = &keyset.keys;
            let hits = Arc::clone(&hits);
            let misses = Arc::clone(&misses);
            scope.spawn(move || {
                let probes = uniform_indices(OPS_PER_WORKER, keys.len(), w as u64 + 100);
                for (i, &p) in probes.iter().enumerate() {
                    if i % 10 == 0 {
                        cache.set(&keys[p], p as u64);
                    } else if cache.get(&keys[p]).is_some() {
                        hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // One analytics thread scanning key ranges while writers run; the
        // ordered windows cross shard boundaries transparently.
        {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                let mut scanned = 0usize;
                for i in 0..200 {
                    let start_key = format!("B{:09}", (i * 4999) % 1_000_000);
                    scanned += cache.range_from(start_key.as_bytes(), 100).len();
                }
                println!("analytics thread scanned {scanned} entries in ordered ranges");
            });
        }
    });

    let secs = start.elapsed().as_secs_f64();
    let total_ops = workers * OPS_PER_WORKER;
    println!(
        "{workers} workers performed {total_ops} ops in {secs:.2}s  ({:.2} Mops/s)",
        total_ops as f64 / secs / 1e6
    );
    println!(
        "hits: {}, misses: {}, final cache size: {}",
        hits.load(Ordering::Relaxed),
        misses.load(Ordering::Relaxed),
        cache.len()
    );

    // ---- Interlude: multi-get, the way a cache client actually reads. ----
    // A page render fetches its whole working set in one round trip; the
    // sharded front splits the batch by boundary inside one router critical
    // section and each shard pipelines its probes (hashes up front, bucket
    // prefetches, interleaved descents), so a batch costs far less than
    // the same keys fetched one get at a time.
    {
        let working_set: Vec<&[u8]> = uniform_indices(800, keyset.keys.len(), 31)
            .into_iter()
            .map(|p| keyset.keys[p].as_slice())
            .collect();
        let rounds = 200usize;
        let start = Instant::now();
        let mut hits = 0usize;
        for _ in 0..rounds {
            hits += cache.get_batch(&working_set).iter().flatten().count();
        }
        let batched = start.elapsed();
        let start = Instant::now();
        let mut loop_hits = 0usize;
        for _ in 0..rounds {
            loop_hits += working_set
                .iter()
                .filter(|k| cache.get(k).is_some())
                .count();
        }
        let single = start.elapsed();
        assert_eq!(hits, loop_hits);
        println!(
            "\nmulti-get of a {}-key working set ({} hits): {:.1} µs/batch batched \
             vs {:.1} µs/batch as single gets",
            working_set.len(),
            hits / rounds,
            batched.as_secs_f64() * 1e6 / rounds as f64,
            single.as_secs_f64() * 1e6 / rounds as f64,
        );
    }

    // ---- Act 2: the hot range shifts, the rebalancer follows. ----
    // A contiguous slice at the bottom of the key order — one shard's
    // territory — suddenly takes all the traffic (a tenant going viral).
    let mut sorted: Vec<&Vec<u8>> = keyset.keys.iter().collect();
    sorted.sort_unstable();
    let hot: Vec<&Vec<u8>> = sorted[..KEYS / 8].to_vec();
    println!(
        "\nhot-range shift: all traffic moves to the lowest {} keys",
        hot.len()
    );
    dump_cache_snapshot(&cache, &registry.snapshot(), "before the shift");
    let before = cache.boundaries();

    let live_workers = Arc::new(AtomicUsize::new(workers));
    let start = Instant::now();
    std::thread::scope(|scope| {
        // The rebalancer: a background ticker calling the counter-driven
        // policy — every migration is a live boundary move, readers and
        // unrelated writers never stop. It retires once the last worker
        // drains.
        {
            let cache = Arc::clone(&cache);
            let live_workers = Arc::clone(&live_workers);
            scope.spawn(move || {
                let mut migrations = 0usize;
                let mut moved = 0usize;
                while live_workers.load(Ordering::Relaxed) > 0 {
                    std::thread::sleep(Duration::from_millis(50));
                    if let wh_shard::RebalanceOutcome::Migrated(report) = cache.maybe_rebalance() {
                        migrations += 1;
                        moved += report.moved_keys;
                        println!(
                            "  rebalance: boundary {} of donor shard {} moved \
                             ({} keys in {} batches, grace waits {} free / {} blocked)",
                            report.pair,
                            report.donor,
                            report.moved_keys,
                            report.batches,
                            report.grace_waits_free,
                            report.grace_waits_blocked,
                        );
                    }
                }
                println!("rebalancer: {migrations} migrations, {moved} keys moved live");
            });
        }
        // The dashboard: periodic MetricsSnapshot dumps while the skewed
        // phase runs — migration progress and the router path split, read
        // from the same registry a STATS scrape would render.
        {
            let registry = Arc::clone(&registry);
            let live_workers = Arc::clone(&live_workers);
            scope.spawn(move || {
                while live_workers.load(Ordering::Relaxed) > 0 {
                    std::thread::sleep(Duration::from_millis(500));
                    let snap = registry.snapshot();
                    println!(
                        "  [snapshot] moved_keys={} batches={} fast={} classic={} \
                         frozen_waits={}",
                        snap.counter("cache_migration_moved_keys_total"),
                        snap.counter("cache_migration_batches_total"),
                        snap.counter("cache_router_fast_entries_total"),
                        snap.counter("cache_router_classic_entries_total"),
                        snap.counter("cache_frozen_write_waits_total"),
                    );
                }
            });
        }
        for w in 0..workers {
            let cache = Arc::clone(&cache);
            let hot = &hot;
            let live_workers = Arc::clone(&live_workers);
            scope.spawn(move || {
                let probes = uniform_indices(OPS_PER_WORKER * 2, hot.len(), w as u64 + 900);
                for (i, &p) in probes.iter().enumerate() {
                    if i % 10 == 0 {
                        cache.set(hot[p], p as u64);
                    } else {
                        std::hint::black_box(cache.get(hot[p]));
                    }
                }
                live_workers.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });

    let secs = start.elapsed().as_secs_f64();
    println!(
        "skewed phase: {} ops in {secs:.2}s  ({:.2} Mops/s)",
        workers * OPS_PER_WORKER * 2,
        (workers * OPS_PER_WORKER * 2) as f64 / secs / 1e6
    );
    dump_cache_snapshot(
        &cache,
        &registry.snapshot(),
        "after the shift + live rebalancing",
    );
    let after = cache.boundaries();
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        if b != a {
            println!(
                "boundary {i} migrated: {:?} -> {:?}",
                String::from_utf8_lossy(b),
                String::from_utf8_lossy(a)
            );
        }
    }
    cache.check_invariants();
    println!("invariants hold after live migration — no rebuild, no downtime");

    // ---- Act 3: the cache survives its process. ----
    // The durable front becomes the cache itself: one write-ahead log above
    // the same sharded front, boundaries starting where the rebalancer left
    // them. Load the served state, checkpoint, throw the process state away
    // — then prove a fresh `open()` serves the exact same contents.
    let store_dir = std::env::temp_dir().join(format!("kv_cache_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    println!("\npersisting the cache to {}…", store_dir.display());
    // The resumed phase is short and bound by fsyncs, so the store's
    // rebalancer acts on a smaller sample of traffic than the cache's.
    let store_config =
        ShardedConfig::with_boundaries(cache.boundaries()).with_rebalance(RebalanceConfig {
            min_pair_ops: 1_000,
            ..rebalance
        });
    let options = |sync| DurableOptions {
        config: store_config.clone(),
        sync,
    };
    let expected: Vec<(Vec<u8>, u64)> = cache.range_from(b"", usize::MAX);
    drop(cache);
    let start = Instant::now();
    {
        // Bulk load without a barrier per entry; one sync at the end makes
        // the whole image durable at once.
        let store = DurableStore::open_with(&store_dir, options(SyncPolicy::Manual))
            .expect("create durable store");
        for (key, value) in &expected {
            store.set(key, *value);
        }
        store.wal_sync().expect("durability barrier");
        store.checkpoint().expect("checkpoint");
        println!(
            "persisted {} entries in {:.2}s",
            expected.len(),
            start.elapsed().as_secs_f64()
        );
        // `store` drops here: process state gone.
    }

    let start = Instant::now();
    let store = DurableStore::open_with(&store_dir, options(SyncPolicy::Always))
        .expect("recover durable store");
    // The recovered store's WAL metrics go to a registry of their own.
    let durable_registry = Registry::new();
    store.register_metrics(&durable_registry, "store");
    let report = store.recovery();
    println!(
        "recovered {} entries in {:.2}s: {} snapshot records, {} WAL ops replayed, \
         committed LSN {}",
        store.len(),
        start.elapsed().as_secs_f64(),
        report.snapshot_records,
        report.replayed_operations,
        report.committed_lsn
    );
    let recovered: Vec<(Vec<u8>, u64)> = store.range_from(b"", usize::MAX);
    assert_eq!(recovered, expected, "recovered contents diverge");
    println!(
        "verified: all {} entries match the pre-drop cache",
        recovered.len()
    );

    // Resume serving the uniform mix — every acknowledged SET durable, group
    // commit batching the fsyncs — while a rebalancer walks the boundaries
    // the hot shift left behind back toward the uniform load. The migration
    // logs nothing: it moves keys between shards without changing one.
    let resume_ops = 4_000usize;
    let live_workers = AtomicUsize::new(workers);
    let start = Instant::now();
    std::thread::scope(|scope| {
        // Decides once per 3 000 ops rather than per tick of the clock, so
        // each decision sees the same amount of traffic however slow the
        // host's fsync is.
        scope.spawn(|| {
            let (mut moved, mut next_decision) = (0usize, 0u64);
            while live_workers.load(Ordering::Relaxed) > 0 {
                std::thread::sleep(Duration::from_millis(5));
                let ops: u64 = store.index().op_counts().iter().sum();
                if ops < next_decision {
                    continue;
                }
                next_decision = ops + 3_000;
                if let wh_shard::RebalanceOutcome::Migrated(report) =
                    store.index().maybe_rebalance()
                {
                    moved += report.moved_keys;
                }
            }
            println!("rebalancer: {moved} keys moved live under the log");
        });
        for w in 0..workers {
            let (store, keys, live_workers) = (&store, &keyset.keys, &live_workers);
            scope.spawn(move || {
                let probes = uniform_indices(resume_ops, keys.len(), w as u64 + 4242);
                for (i, &p) in probes.iter().enumerate() {
                    if i % 10 == 0 {
                        store.set(&keys[p], p as u64);
                    } else {
                        std::hint::black_box(store.get(&keys[p]));
                    }
                }
                live_workers.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    store.index().check_invariants();
    // The WAL picture, straight off the telemetry snapshot: one log for
    // every shard.
    let snap = durable_registry.snapshot();
    let sets = workers * resume_ops / 10;
    let fsyncs = snap.counter("store_fsyncs_total");
    println!(
        "resumed serving: {} ops in {secs:.2}s",
        workers * resume_ops
    );
    let batch = snap
        .histogram("store_commit_batch_ops")
        .map_or(String::from("n/a"), |batch| format!("{:.1}", batch.mean()));
    println!(
        "  WAL: {sets} durable SETs cost {fsyncs} fsyncs and {} bytes \
         (batch factor mean {batch} ops/commit)",
        snap.counter("store_wal_bytes_total"),
    );
    let _ = std::fs::remove_dir_all(&store_dir);
    println!("the cache now outlives its process — crash recovery is a reopen");
}
