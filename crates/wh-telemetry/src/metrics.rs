//! Counters and gauges: cache-line-padded atomic cells behind cheaply
//! cloneable `Arc` handles, so the owning structure and the [`Registry`]
//! (and any test) can all hold the same metric.
//!
//! [`Registry`]: crate::registry::Registry

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One atomic on its own cache line: two hot metrics updated by different
/// threads never false-share, and recording never contends with the
/// neighbours a `Vec` would give it.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedAtomic(AtomicU64);

/// A monotonically increasing event counter.
///
/// `inc`/`add` are single relaxed `fetch_add`s — allocation-free and
/// lock-free, safe on paths gated by the workspace's counting-allocator
/// tests. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<PaddedAtomic>,
}

impl Counter {
    /// A new counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down, with a monotonic high-water
/// mark tracked alongside (`fetch_max` on every raise).
///
/// Used for instantaneous depths — e.g. the QSBR deferred-callback queue
/// — where both the live value and the worst case seen matter.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<PaddedAtomic>,
    high_water: Arc<PaddedAtomic>,
}

impl Gauge {
    /// A new gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`, raising the high-water mark if needed.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.0.store(v, Ordering::Relaxed);
        self.high_water.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n`, raising the high-water mark to the new value.
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.value.0.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.0.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `n`. The value wraps below zero rather than saturating:
    /// callers pair every `sub` with a prior `add`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.0.load(Ordering::Relaxed)
    }

    /// Highest value ever set/reached through this gauge.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.high_water.0.load(Ordering::Relaxed)
    }
}

/// Declares a struct of metric fields and its registration in one place.
///
/// Every field is a `pub` [`Counter`], [`Gauge`] or
/// [`Histogram`](crate::Histogram) and keeps its doc comment. The struct
/// derives `Clone, Debug, Default`, and gains
/// `register_into(&self, registry, prefix)`, which registers each field in
/// declaration order through
/// [`Registry::register_field`](crate::Registry::register_field): a field
/// named `hits` is exposed as `<prefix>_hits_total` if it is a counter and
/// as `<prefix>_hits` otherwise.
#[macro_export]
macro_rules! metrics {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                pub $field:ident: $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Debug, Default)]
        $vis struct $name {
            $(
                $(#[$field_attr])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Registers every field into `registry` in declaration order,
            /// as `<prefix>_<field>`, plus `_total` for a counter (`prefix`
            /// must match `[a-z0-9_]+`).
            pub fn register_into(&self, registry: &$crate::Registry, prefix: &str) {
                $(registry.register_field(prefix, stringify!($field), &self.$field);)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_shares() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c2.get(), 5);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.add(3);
        g.add(4);
        g.sub(6);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 7);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn cells_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<PaddedAtomic>(), 64);
        assert_eq!(std::mem::size_of::<PaddedAtomic>(), 64);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
