//! Umbrella crate for the Wormhole reproduction workspace.
//!
//! This crate only re-exports the workspace's public pieces so the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`)
//! have a single import root. Library users should depend on the individual
//! crates (`wormhole`, `index-traits`, the `baseline-*` crates, `workloads`,
//! `netsim`) directly.
//!
//! # Serving layer
//!
//! [`netsim`] is both the paper's analytic link model and a real
//! batched serving layer: [`netsim::ShardServer`] runs N shard-affine
//! execution workers behind one front thread that routes each message
//! and reassembles its responses, over a [`sharded::ShardedWormhole`] —
//! one router-table snapshot per incoming message
//! ([`sharded::ShardedWormhole::route_batch`]),
//! pipelined request/response framing read in place, each worker's
//! point lookups hoisted into one `get_batch_into` per message share,
//! and streaming scans continued by stateless
//! resume keys ([`netsim::WireRequest::Scan`] /
//! [`netsim::WireResponse::ScanPage`]). The architecture book under
//! `docs/src/` documents the stack: the crate map and wire→leaf data
//! flow (`architecture.md`), the normative wire framing spec
//! (`wire-protocol.md`, byte examples asserted against the encoder in
//! a test), and three ADRs — router epochs + biased QSBR
//! (`adr-001-router-epoch-biased-qsbr.md`), WAL/snapshot ordering
//! (`adr-002-wal-ordering.md`), and the serving threading model
//! (`adr-003-serving-threading.md`). Client-observed round-trip
//! latency lands in [`netsim::ServiceMetrics::client_rtt_ns`].
//!
//! # Observability
//!
//! Every layer records into [`wh_telemetry`] (re-exported as
//! [`telemetry`]): a dependency-free metrics core with cache-line-padded
//! atomic counters, gauges with high-water marks, and log₂-bucketed
//! latency histograms, aggregated by a [`telemetry::Registry`] into
//! [`telemetry::MetricsSnapshot`]s and a Prometheus-style text
//! exposition. The instrumented layers:
//!
//! * `wormhole` — seqlock read retries, locked fallbacks, leaf
//!   splits/merges, LPM restarts ([`wormhole::WormholeMetrics`]).
//! * `epoch` — grace-period waits, drain-barrier waits, deferred-queue
//!   depth (`EpochMetrics`).
//! * `sharded` — router fast/classic entries, migration batches and
//!   moved keys, frozen-write waits, per-shard op counters
//!   (`ShardMetrics` plus `ShardedWormhole::register_metrics`).
//! * `durable` — fsync count and latency, group-commit batch factor,
//!   WAL bytes, checkpoint durations (`DurableMetrics`).
//! * `netsim` — per-op-type service latency, wire batch sizes, and a
//!   `STATS` wire command that ships the whole exposition in-band
//!   (`ServiceMetrics`, `WireRequest::Stats`).
//!
//! Recording is allocation-free and branch-cheap. One kill switch
//! exists: the `telemetry-off` cargo feature compiles histogram buckets
//! and clock reads out entirely. Counters and gauges stay live under it —
//! they double as load signals (the shard rebalancer) and test gates.

pub use baseline_art as art;
pub use baseline_btree as btree;
pub use baseline_cuckoo as cuckoo;
pub use baseline_masstree as masstree;
pub use baseline_skiplist as skiplist;
pub use index_traits as traits;
pub use netsim;
/// Crash durability for the index (`wh-durable`): write-ahead log,
/// crash-consistent snapshots, and the recovering `DurableWormhole`, one
/// log over whichever index it wraps (the bare `Wormhole`, or the sharded
/// front as `DurableWormhole<V, ShardedWormhole<V>>`).
pub use wh_durable as durable;
pub use wh_epoch as epoch;
pub use wh_hash as hash;
/// The range-partitioned sharded front (`wh-shard`), re-exported as
/// `sharded` so callers can write `wormhole_repro::sharded::ShardedWormhole`
/// next to `wormhole_repro::wormhole::Wormhole` (the `wormhole` crate itself
/// cannot host the module — it is a dependency of `wh-shard`).
pub use wh_shard as sharded;
/// The metrics core (`wh-telemetry`): counters, gauges, histograms, the
/// registry, and the global enable switch.
pub use wh_telemetry as telemetry;
pub use workloads;
pub use wormhole;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        use crate::traits::OrderedIndex;
        let mut bt: crate::btree::BPlusTree<u32> = crate::btree::BPlusTree::new();
        bt.set(b"k", 1);
        assert_eq!(bt.get(b"k"), Some(1));
    }
}
