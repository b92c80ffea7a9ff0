//! Wire-level STATS acceptance: a netsim service serving a sharded
//! Wormhole answers a `WireRequest::Stats` probe with a text exposition
//! that carries at least one metric from every instrumented crate —
//! `wormhole`, `wh-epoch`, `wh-shard`, `wh-durable`, and `netsim` itself;
//! and the full set of exposed series names is pinned, so a change to how
//! names are derived cannot rename one silently.

use std::path::Path;
use std::sync::Arc;

use wormhole_repro::durable::DurableWormhole;
use wormhole_repro::netsim::{KvService, ShardServer, WireRequest};
use wormhole_repro::sharded::ShardedWormhole;
use wormhole_repro::traits::ConcurrentOrderedIndex;

fn parse_counter(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

/// A sharded front (which itself aggregates wormhole + epoch metrics)
/// behind the simulated service, plus a durable index registered into the
/// same registry so its WAL metrics ride the same exposition.
fn serving_stack(dir: &Path) -> (Arc<ShardedWormhole<u64>>, DurableWormhole<u64>, KvService) {
    let _ = std::fs::remove_dir_all(dir);
    let sharded: Arc<ShardedWormhole<u64>> = Arc::new(ShardedWormhole::new(4));
    let durable: DurableWormhole<u64> = DurableWormhole::open(dir).unwrap();
    for i in 0..2000u64 {
        sharded.set(format!("key-{i:08}").as_bytes(), i);
    }
    for i in 0..32u64 {
        durable.set(format!("wal-{i:04}").as_bytes(), i);
    }

    let service = KvService::with_batch_size(sharded.clone(), 256);
    sharded.register_metrics(service.registry(), "wh_shard");
    durable.register_metrics(service.registry(), "wh_durable");
    service
        .registry()
        .lint()
        .expect("full-stack metric names well-formed and unique");
    (sharded, durable, service)
}

#[test]
fn stats_exposition_covers_every_instrumented_crate() {
    let dir = std::env::temp_dir().join(format!("wh-stats-roundtrip-{}", std::process::id()));
    let (_sharded, _durable, service) = serving_stack(&dir);

    // Mix the probe into ordinary traffic: lookups first, then Stats in
    // the same request stream, all over the wire.
    let mut requests: Vec<WireRequest> = (0..500u64)
        .map(|i| WireRequest::Get {
            key: format!("key-{:08}", i * 3 % 2000).into_bytes(),
        })
        .collect();
    requests.push(WireRequest::Stats);
    let stats = service.run(&requests);
    assert_eq!(stats.operations, 501);

    let text = service.fetch_stats();
    // ≥1 metric from each of the five instrumented crates, with the
    // values the exposition should plausibly carry.
    let netsim_requests =
        parse_counter(&text, "netsim_requests_total").expect("netsim counter present");
    assert!(netsim_requests >= 501, "service saw the wire traffic");
    let shard_ops: u64 = (0..4)
        .map(|i| parse_counter(&text, &format!("wh_shard_shard{i}_ops_total")).unwrap_or(0))
        .sum();
    assert!(shard_ops >= 2500, "per-shard op counters cover sets + gets");
    let splits =
        parse_counter(&text, "wh_shard_wormhole_splits_total").expect("wormhole counter present");
    assert!(splits > 0, "2000 inserts split leaves");
    assert!(
        text.contains("wh_shard_router_epoch_grace_wait_ns"),
        "epoch histogram present"
    );
    let fsyncs = parse_counter(&text, "wh_durable_fsyncs_total").expect("durable counter present");
    assert!(fsyncs > 0, "durable sets fsynced");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `# TYPE` lines of the [`serving_stack`] registry and of a
/// [`ShardServer`] registry over the same front, sorted. The examples,
/// scrapes and any dashboard read these names.
const EXPOSED: [&str; 92] = [
    "netsim_batch_requests histogram",
    "netsim_batch_requests histogram",
    "netsim_client_rtt_ns histogram",
    "netsim_client_rtt_ns histogram",
    "netsim_get_batch_len histogram",
    "netsim_get_batch_len histogram",
    "netsim_get_ns histogram",
    "netsim_get_ns histogram",
    "netsim_gets_hoisted_total counter",
    "netsim_gets_hoisted_total counter",
    "netsim_gets_in_place_total counter",
    "netsim_gets_in_place_total counter",
    "netsim_malformed_frames_total counter",
    "netsim_malformed_frames_total counter",
    "netsim_range_ns histogram",
    "netsim_range_ns histogram",
    "netsim_requests_total counter",
    "netsim_requests_total counter",
    "netsim_scan_ns histogram",
    "netsim_scan_ns histogram",
    "netsim_server_dispatch_route_ns histogram",
    "netsim_server_epoch_flushes_total counter",
    "netsim_server_worker_items histogram",
    "netsim_set_ns histogram",
    "netsim_set_ns histogram",
    "netsim_stats_requests_total counter",
    "netsim_stats_requests_total counter",
    "shard_frozen_write_wait_ns histogram",
    "shard_frozen_write_waits_total counter",
    "shard_migration_batches_total counter",
    "shard_migration_moved_keys_total counter",
    "shard_router_classic_entries_total counter",
    "shard_router_epoch_deferred_depth gauge",
    "shard_router_epoch_deferred_depth_high_water gauge",
    "shard_router_epoch_drain_barrier_ns histogram",
    "shard_router_epoch_grace_wait_ns histogram",
    "shard_router_fast_entries_total counter",
    "shard_shard0_ops_total counter",
    "shard_shard1_ops_total counter",
    "shard_shard2_ops_total counter",
    "shard_shard3_ops_total counter",
    "shard_wormhole_locked_fallbacks_total counter",
    "shard_wormhole_lpm_restarts_total counter",
    "shard_wormhole_merge_attempts_total counter",
    "shard_wormhole_merges_total counter",
    "shard_wormhole_meta_bitmaps gauge",
    "shard_wormhole_meta_bitmaps_high_water gauge",
    "shard_wormhole_meta_bytes gauge",
    "shard_wormhole_meta_bytes_high_water gauge",
    "shard_wormhole_meta_items gauge",
    "shard_wormhole_meta_items_high_water gauge",
    "shard_wormhole_meta_overflow_buckets gauge",
    "shard_wormhole_meta_overflow_buckets_high_water gauge",
    "shard_wormhole_scan_descents_total counter",
    "shard_wormhole_scan_sorts_total counter",
    "shard_wormhole_seqlock_retries_total counter",
    "shard_wormhole_splits_total counter",
    "wh_durable_checkpoint_ns histogram",
    "wh_durable_commit_batch_ops histogram",
    "wh_durable_fsync_ns histogram",
    "wh_durable_fsyncs_total counter",
    "wh_durable_wal_bytes_total counter",
    "wh_shard_frozen_write_wait_ns histogram",
    "wh_shard_frozen_write_waits_total counter",
    "wh_shard_migration_batches_total counter",
    "wh_shard_migration_moved_keys_total counter",
    "wh_shard_router_classic_entries_total counter",
    "wh_shard_router_epoch_deferred_depth gauge",
    "wh_shard_router_epoch_deferred_depth_high_water gauge",
    "wh_shard_router_epoch_drain_barrier_ns histogram",
    "wh_shard_router_epoch_grace_wait_ns histogram",
    "wh_shard_router_fast_entries_total counter",
    "wh_shard_shard0_ops_total counter",
    "wh_shard_shard1_ops_total counter",
    "wh_shard_shard2_ops_total counter",
    "wh_shard_shard3_ops_total counter",
    "wh_shard_wormhole_locked_fallbacks_total counter",
    "wh_shard_wormhole_lpm_restarts_total counter",
    "wh_shard_wormhole_merge_attempts_total counter",
    "wh_shard_wormhole_merges_total counter",
    "wh_shard_wormhole_meta_bitmaps gauge",
    "wh_shard_wormhole_meta_bitmaps_high_water gauge",
    "wh_shard_wormhole_meta_bytes gauge",
    "wh_shard_wormhole_meta_bytes_high_water gauge",
    "wh_shard_wormhole_meta_items gauge",
    "wh_shard_wormhole_meta_items_high_water gauge",
    "wh_shard_wormhole_meta_overflow_buckets gauge",
    "wh_shard_wormhole_meta_overflow_buckets_high_water gauge",
    "wh_shard_wormhole_scan_descents_total counter",
    "wh_shard_wormhole_scan_sorts_total counter",
    "wh_shard_wormhole_seqlock_retries_total counter",
    "wh_shard_wormhole_splits_total counter",
];

#[test]
fn exposition_names_are_pinned() {
    let dir = std::env::temp_dir().join(format!("wh-stats-names-{}", std::process::id()));
    let (sharded, _durable, service) = serving_stack(&dir);
    let server = ShardServer::new(sharded, 2);
    let text = service.fetch_stats() + &server.registry().render();
    let mut names: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .collect();
    names.sort_unstable();
    assert_eq!(names, EXPOSED);
    std::fs::remove_dir_all(&dir).unwrap();
}
