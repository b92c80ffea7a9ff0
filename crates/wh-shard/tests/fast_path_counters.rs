//! Regression guards for the migration-idle router fast path: the hot
//! read path must stay **allocation-free** and — while no migration is in
//! flight — must make **zero** classic router critical-section entries
//! (one relaxed store + one fence + one flag load instead), observed
//! through [`ShardedWormhole::router_section_entries`], the front's
//! `router_classic_entries` counter. A one-shard front routes like any
//! other and is pinned to the same fast path. (The classic path — what ops
//! take while a migration holds the bias revoked — is pinned by an in-crate
//! test of `wh-shard`.)

use index_traits::ConcurrentOrderedIndex;
use wh_shard::{ShardedConfig, ShardedWormhole};
use wh_telemetry::alloc::{self, CountingAlloc};
use wormhole::WormholeConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

const N_KEYS: u64 = 4_000;

fn keyset() -> Vec<Vec<u8>> {
    (0..N_KEYS)
        .map(|i| format!("user-{i:06}").into_bytes())
        .collect()
}

fn build(shards: &[&[u8]], keys: &[Vec<u8>]) -> ShardedWormhole<u64> {
    let idx = ShardedWormhole::with_config(
        ShardedConfig::with_boundaries(shards.iter().map(|b| b.to_vec()).collect())
            .with_inner(WormholeConfig::optimized()),
    );
    for (i, key) in keys.iter().enumerate() {
        idx.set(key, i as u64);
    }
    idx
}

const FOUR_SHARDS: [&[u8]; 3] = [b"user-001000", b"user-002000", b"user-003000"];

// ---------------------------------------------------------------------
// Critical-section entry counts
// ---------------------------------------------------------------------

#[test]
fn idle_fast_path_ops_enter_zero_router_sections() {
    let keys = keyset();
    let idx = build(&FOUR_SHARDS, &keys);
    // Preload registered this thread's handle and counted its sections; a
    // migration would revoke the bias, but none is in flight from here on.
    let before = idx.router_section_entries();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(idx.get(key), Some(i as u64));
    }
    for (i, key) in keys.iter().enumerate().step_by(7) {
        assert_eq!(idx.set(key, i as u64), Some(i as u64));
    }
    let batch: Vec<&[u8]> = keys.iter().step_by(3).map(Vec::as_slice).collect();
    let values = idx.get_batch(&batch);
    assert_eq!(values.len(), batch.len());
    assert_eq!(
        idx.router_section_entries() - before,
        0,
        "migration-idle point ops took the classic critical-section path"
    );
}

#[test]
fn single_shard_front_takes_the_fast_path() {
    let keys = keyset();
    let idx = build(&[], &keys);
    let before = idx.router_section_entries();
    let fast_before = idx.metrics().router_fast_entries.get();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(idx.get(key), Some(i as u64));
    }
    let batch: Vec<&[u8]> = keys.iter().step_by(5).map(Vec::as_slice).collect();
    assert_eq!(idx.get_batch(&batch).len(), batch.len());
    assert_eq!(
        idx.router_section_entries() - before,
        0,
        "a 1-shard index never migrates, so no op may take a classic section"
    );
    assert_eq!(
        idx.metrics().router_fast_entries.get() - fast_before,
        keys.len() as u64 + 1,
        "one fast entry per get and one per batch"
    );
}

#[test]
fn migration_revokes_then_restores_the_fast_path() {
    let keys = keyset();
    let idx = build(&FOUR_SHARDS, &keys);
    // A migration's own router reads (freeze checks, drains) may enter
    // sections on this thread; what's pinned is the steady state around it.
    let before = idx.router_section_entries();
    for key in keys.iter().take(200) {
        idx.get(key);
    }
    assert_eq!(idx.router_section_entries() - before, 0);
    idx.migrate_boundary(1, b"user-001500")
        .expect("forced migration failed");
    // Bias resumed after the migration: back to zero entries per op.
    let after_migration = idx.router_section_entries();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(idx.get(key), Some(i as u64));
    }
    assert_eq!(
        idx.router_section_entries() - after_migration,
        0,
        "fast path not restored after the migration drained"
    );
}

// ---------------------------------------------------------------------
// Allocation guard: the idle fast-path get
// ---------------------------------------------------------------------

#[test]
fn idle_fast_path_get_is_allocation_free() {
    let keys = keyset();
    let idx = build(&FOUR_SHARDS, &keys);
    // Warm up: thread registration with both the router QSBR domain and
    // every shard's domain happens on first contact.
    for key in keys.iter().take(64) {
        idx.get(key);
    }
    let before = alloc::thread().allocs_and_reallocs();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(idx.get(key), Some(i as u64));
    }
    assert_eq!(
        alloc::thread().allocs_and_reallocs() - before,
        0,
        "idle fast-path get allocated on the hot path"
    );
}

// ---------------------------------------------------------------------
// Allocation count: a warm cross-shard scan
// ---------------------------------------------------------------------

#[test]
fn a_warm_scan_and_its_first_fill_allocate_seven_blocks() {
    // The cursor's box and resume key, the routed source's resume key and
    // its growth to the successor of the first batch, and the batch's
    // three buffers. The shard's scan source lives inside the routed one.
    let keys = keyset();
    let idx = build(&FOUR_SHARDS, &keys);
    let scan = |start: &[u8]| {
        let mut cursor = idx.scan(start);
        let (key, value) = cursor.next().expect("a pair at the start key");
        assert_eq!((key, *value), (start, 1500));
    };
    // Warm up: registers this thread with the router's and the shard's
    // QSBR domains.
    scan(b"user-001500");
    let before = alloc::thread();
    scan(b"user-001500");
    assert_eq!(alloc::thread().since(before).allocs_and_reallocs(), 7);
}
