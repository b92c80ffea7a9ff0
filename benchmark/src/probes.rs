//! Layer probes of the traced run: loops that call one layer's public
//! functions directly, so its cost can be told apart from its callers'.

use std::hint::black_box;

use index_traits::IndexStats;
use wh_shard::ShardedWormhole;

use crate::stats;
use crate::trace::{Name, Tracer};
use crate::workload::Layers;

/// Times `f`, a loop of `items` calls into one layer, as one span of
/// operation `pass`, and returns nanoseconds per item.
pub fn timed_loop(
    tracer: &mut Tracer,
    name: Name,
    pass: u64,
    items: usize,
    f: impl FnOnce(),
) -> f64 {
    tracer.add_calls(name, items as u64);
    let span = tracer.begin(name, pass);
    f();
    tracer.end(span);
    tracer.duration_ns(span) as f64 / items.max(1) as f64
}

/// Median nanoseconds per item over three passes of [`timed_loop`].
pub fn median_of_3(tracer: &mut Tracer, name: Name, items: usize, mut f: impl FnMut()) -> f64 {
    let passes: Vec<f64> = (0..3)
        .map(|pass| timed_loop(tracer, name, pass, items, &mut f))
        .collect();
    stats::median(&passes)
}

const MICRO_CALLS: usize = 1_000_000;

/// Probes that need nothing but keys: the hash under every lookup, the two
/// ways into an epoch section, and one histogram record.
pub fn common<'a>(
    tracer: &mut Tracer,
    layers: &mut Layers,
    keys: impl Iterator<Item = &'a [u8]> + Clone,
) {
    let count = keys.clone().count();
    let ns = median_of_3(tracer, Name::HashCrc32c, count, || {
        for key in keys.clone() {
            black_box(wh_hash::crc32c(black_box(key)));
        }
    });
    layers.set("wh-hash.crc32c_ns_per_key", ns);

    let domain = wh_epoch::Qsbr::new();
    let handle = domain.register();
    let ns = median_of_3(tracer, Name::EpochEnter, MICRO_CALLS, || {
        for _ in 0..MICRO_CALLS {
            drop(black_box(handle.enter()));
        }
    });
    layers.set("wh-epoch.enter_ns", ns);
    domain.resume_bias();
    let ns = median_of_3(tracer, Name::EpochTryFast, MICRO_CALLS, || {
        for _ in 0..MICRO_CALLS {
            drop(black_box(handle.try_fast()));
        }
    });
    layers.set("wh-epoch.try_fast_ns", ns);

    let histogram = wh_telemetry::Histogram::new();
    let ns = median_of_3(tracer, Name::TelemetryRecord, MICRO_CALLS, || {
        for i in 0..MICRO_CALLS {
            histogram.record(black_box(i as u64));
        }
    });
    layers.set("wh-telemetry.record_ns", ns);
}

/// Shape and footprint of the resident structure, from its own accounting.
pub fn structure(layers: &mut Layers, stats: IndexStats, leaves: usize) {
    layers.set("wormhole.leaf_count", leaves as f64);
    layers.set(
        "wormhole.keys_per_leaf",
        stats.keys as f64 / leaves.max(1) as f64,
    );
    layers.set(
        "wormhole.structure_bytes_per_key",
        stats.structure_bytes as f64 / stats.keys.max(1) as f64,
    );
}

/// The index's event counters, as they stand: everything since set-up
/// began. A traced run does a fixed amount of work, so they repeat exactly.
pub fn event_counters(layers: &mut Layers, metrics: &wormhole::WormholeMetrics) {
    layers.set("wormhole.splits", metrics.splits.get() as f64);
    layers.set("wormhole.merges", metrics.merges.get() as f64);
    layers.set(
        "wormhole.seqlock_retries",
        metrics.seqlock_retries.get() as f64,
    );
    layers.set(
        "wormhole.locked_fallbacks",
        metrics.locked_fallbacks.get() as f64,
    );
}

/// Which way ops took through the router, from the front's own counters.
pub fn front_counters(index: &ShardedWormhole<u64>, layers: &mut Layers) {
    let fast = index.metrics().router_fast_entries.get() as f64;
    let classic = index.metrics().router_classic_entries.get() as f64;
    layers.set(
        "wh-shard.router_fast_share",
        fast / (fast + classic).max(1.0),
    );
    layers.set(
        "wh-shard.router_section_entries",
        index.router_section_entries() as f64,
    );
    let pending = (0..index.shard_count())
        .map(|i| index.shard(i).epoch_metrics().deferred_depth.high_water())
        .max()
        .unwrap_or(0);
    layers.set("wh-epoch.pending_high_water", pending as f64);
    event_counters(layers, index.wormhole_metrics());
}
