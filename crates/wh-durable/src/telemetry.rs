//! Telemetry for the durability layer: fsync count and latency, the
//! group-commit batch factor, WAL byte volume, and checkpoint durations,
//! whole and of their five phases: rotate, scan, drain, image sync and
//! publish.
//!
//! One [`DurableMetrics`] is owned per WAL, so per [`DurableWormhole`]
//! whatever index it wraps: a sharded front's shards share one log and
//! one set of series. The fsync counter is the same cell
//! [`DurableWormhole::sync_count`] reads — one source of truth.
//!
//! [`DurableWormhole`]: crate::DurableWormhole
//! [`DurableWormhole::sync_count`]: crate::DurableWormhole::sync_count

use wh_telemetry::{Counter, Histogram};

wh_telemetry::metrics! {
    /// Durability-path metrics for one WAL stream.
    pub struct DurableMetrics {
        /// Storage sync barriers performed (group commit keeps this far below
        /// the committed-operation count under concurrency).
        pub fsyncs: Counter,
        /// Wall time of each commit's append+sync, in nanoseconds.
        pub fsync_ns: Histogram,
        /// Operations made durable per sync — the group-commit batch factor.
        pub commit_batch_ops: Histogram,
        /// Bytes appended to WAL storage (frames plus commit seals).
        pub wal_bytes: Counter,
        /// Wall time of each full checkpoint (rotate, fuzzy scan, drain,
        /// image sync, publish with GC), in nanoseconds.
        pub checkpoint_ns: Histogram,
        /// Wall time of each checkpoint's fuzzy scan, from the end of the
        /// rotation to the last record handed to the snapshot writer, in
        /// nanoseconds.
        pub checkpoint_scan_ns: Histogram,
        /// Wall time of each checkpoint's drain: the snapshot writer's
        /// `finish`, which waits for its thread to write the chunks still
        /// queued after the scan, then writes the image's tail, in
        /// nanoseconds.
        pub checkpoint_drain_ns: Histogram,
        /// Wall time of each checkpoint image's fsync, in nanoseconds.
        pub checkpoint_sync_ns: Histogram,
        /// Wall time of each checkpoint's rotation: the live segment
        /// sealed, its successor created and the directory fsynced, in
        /// nanoseconds.
        pub checkpoint_rotate_ns: Histogram,
        /// Wall time of each checkpoint's publication: the WAL committed
        /// through the scan's end, the image renamed into place with its
        /// directory fsync, and what it superseded collected, in
        /// nanoseconds.
        pub checkpoint_publish_ns: Histogram,
    }
}
