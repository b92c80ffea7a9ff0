//! Telemetry for the sharded front: router path counters (how often the
//! migration-idle biased fast entry served an op vs the classic critical
//! section), migration progress counters, and the frozen-write wait — the
//! only place a point op can block on a migration.
//!
//! The per-shard op counters (the rebalancer's load signal) are plain
//! [`wh_telemetry::Counter`]s owned by the index itself and registered by
//! [`ShardedWormhole::register_metrics`](crate::ShardedWormhole::register_metrics)
//! under `…_shard<i>_ops_total` names — one source of truth for the
//! rebalancer, `op_counts()`, and the exposition.

use wh_telemetry::{Counter, Histogram};

wh_telemetry::metrics! {
    /// Front-level event counters for one [`ShardedWormhole`](crate::ShardedWormhole).
    pub struct ShardMetrics {
        /// Ops served through the migration-idle biased fast entry (no router
        /// critical section).
        pub router_fast_entries: Counter,
        /// Ops that took a classic router critical section (fast path
        /// disabled, or a migration in flight).
        pub router_classic_entries: Counter,
        /// Migration batches executed (freeze/copy/publish/drain rounds).
        pub migration_batches: Counter,
        /// Keys copied donor → recipient by migrations.
        pub migration_moved_keys: Counter,
        /// Writes that found their key range write-frozen by an in-flight
        /// migration batch and had to wait it out.
        pub frozen_write_waits: Counter,
        /// Time a frozen write spent waiting for its range to unfreeze.
        pub frozen_write_wait_ns: Histogram,
    }
}
