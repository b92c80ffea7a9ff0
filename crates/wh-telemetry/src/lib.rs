//! # wh-telemetry: a zero-overhead-when-idle metrics core
//!
//! Dependency-free metrics for the Wormhole reproduction workspace:
//! cache-line-padded atomic [`Counter`]s and [`Gauge`]s, log₂-bucketed
//! latency [`Histogram`]s, and a [`Registry`] that snapshots every
//! registered metric into a [`MetricsSnapshot`] and renders a
//! Prometheus-style text exposition. Every layer of the stack —
//! `wormhole`, `wh-epoch`, `wh-shard`, `wh-durable`, `netsim` — records
//! into these primitives; the `netsim` service exposes the whole registry
//! over the wire through its `STATS` command.
//!
//! ## Recording-cost contract
//!
//! Recording is designed to be safe to leave on hot paths that are gated
//! by allocation-counting and critical-section-counting regression tests:
//!
//! * **No allocation, ever.** [`Counter::inc`], [`Gauge::set`], and
//!   [`Histogram::record`] touch only pre-allocated atomics. Allocation
//!   happens once, at metric construction.
//! * **No locks.** All recording is relaxed (or `fetch_max`) atomic RMW
//!   on `#[repr(align(64))]` cells, so two hot metrics never share a
//!   cache line and recording never contends with [`Registry::snapshot`].
//! * **No clock reads unless a histogram will consume them.** Latency
//!   measurement goes through [`start_timing`], which returns `None` —
//!   skipping the `Instant::now()` syscall/vdso call entirely — when
//!   telemetry is compiled out (the `telemetry-off` feature).
//! * **Counters and gauges stay live under `telemetry-off`.** They are
//!   load-bearing program state (the shard rebalancer reads the per-shard
//!   op counters; test gates read the router's classic-entry counter), so
//!   the feature only disables the *timed* half: histogram recording and
//!   the timing helpers.
//!
//! The practical consequence: a point-read path that increments one
//! counter costs one relaxed `fetch_add` — an already-hot cache line in
//! steady state — and a disabled histogram site costs nothing.
//!
//! ## Snapshot consistency model
//!
//! [`Registry::snapshot`] reads each metric atomically but does **not**
//! freeze the world across metrics: the snapshot is *per-metric atomic,
//! not cross-metric consistent*. Two counters bumped together on the same
//! code path may differ by in-flight increments in one snapshot. Within a
//! single histogram, the bucket array is read bucket-by-bucket, so a
//! concurrent `record` may or may not be visible — but every recorded
//! value lands in exactly one bucket, so totals never double-count, and a
//! snapshot taken after all recorders quiesce is exact.
//!
//! ## Naming
//!
//! A layer declares its metrics once, as the fields of a [`metrics!`]
//! struct, named through [`Registry::register_field`]: `<prefix>_<field>`,
//! plus `_total` for a counter (a nanosecond field's name ends in `_ns`).
//! Names must match the exposition grammar `[a-z0-9_]+` (checked by a
//! `debug_assert!` at registration and by [`Registry::lint`], which tests
//! run in release builds too).

mod histogram;
mod metrics;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{Metric, MetricValue, MetricsSnapshot, Registry};

use std::time::Instant;

/// Whether timed telemetry (histograms, [`start_timing`]) is live: a
/// compile-time fact, `false` under the `telemetry-off` feature.
#[inline]
pub fn enabled() -> bool {
    cfg!(not(feature = "telemetry-off"))
}

/// Starts a latency measurement, or returns `None` — without reading the
/// clock — when timed telemetry is off. Pair with
/// [`Histogram::record_elapsed`]:
///
/// ```
/// let hist = wh_telemetry::Histogram::new();
/// let timing = wh_telemetry::start_timing();
/// // ... the measured section ...
/// hist.record_elapsed(timing);
/// ```
#[inline]
pub fn start_timing() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}
