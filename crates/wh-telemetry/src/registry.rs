//! The [`Registry`]: a named collection of metric handles, snapshotted
//! into a [`MetricsSnapshot`] and rendered as a Prometheus-style text
//! exposition.
//!
//! Registration is cold-path (a `Mutex<Vec>` append); recording never
//! touches the registry — metric handles are `Arc`-shared clones, so the
//! owning structure records into the same cells the registry reads.

use std::sync::Mutex;

use crate::histogram::{bucket_upper_bound, Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge};

/// Any registered metric handle.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotonic event counter.
    Counter(Counter),
    /// Up/down value with a high-water mark.
    Gauge(Gauge),
    /// Log₂-bucketed distribution.
    Histogram(Histogram),
}

/// `From<&Handle>` for each handle type: the variant shares its cells.
macro_rules! metric_from_handle {
    ($($kind:ident),*) => {$(
        impl From<&$kind> for Metric {
            fn from(handle: &$kind) -> Self {
                Metric::$kind(handle.clone())
            }
        }
    )*};
}
metric_from_handle!(Counter, Gauge, Histogram);

/// A named collection of metrics. Cheap to lock: registration happens at
/// construction time, snapshots on demand, and recording bypasses the
/// registry entirely.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Metric)>>,
}

/// `[a-z0-9_]+`, non-empty — the subset of the Prometheus grammar the
/// workspace uses (no capitals, no colons, so names compose with `_ns` /
/// `_total` suffixes and per-shard prefixes without surprises).
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an existing metric handle under `name`.
    ///
    /// Name validity and uniqueness are `debug_assert`ed here (cheap,
    /// cold path) and re-checkable in release builds via [`Self::lint`].
    pub fn register(&self, name: &str, metric: Metric) {
        let mut entries = self.entries.lock().unwrap();
        debug_assert!(
            valid_name(name),
            "metric name {name:?} violates the [a-z0-9_]+ exposition grammar"
        );
        debug_assert!(
            !entries.iter().any(|(n, _)| n == name),
            "metric name {name:?} registered twice"
        );
        entries.push((name.to_string(), metric));
    }

    /// Registers `metric` under `<prefix>_<field>`, with `_total` appended
    /// for a counter: the one naming rule of the exposition, which every
    /// [`metrics!`](crate::metrics) struct registers through.
    pub fn register_field(&self, prefix: &str, field: &str, metric: impl Into<Metric>) {
        let metric = metric.into();
        let suffix = match metric {
            Metric::Counter(_) => "_total",
            Metric::Gauge(_) | Metric::Histogram(_) => "",
        };
        self.register(&format!("{prefix}_{field}{suffix}"), metric);
    }

    /// Release-mode re-check of the registration `debug_assert`s: every
    /// name matches `[a-z0-9_]+` and no name repeats. Returns the first
    /// offence found.
    pub fn lint(&self) -> Result<(), String> {
        let entries = self.entries.lock().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in entries.iter() {
            if !valid_name(name) {
                return Err(format!(
                    "metric name {name:?} violates the [a-z0-9_]+ grammar"
                ));
            }
            if !seen.insert(name.as_str()) {
                return Err(format!("metric name {name:?} registered twice"));
            }
        }
        Ok(())
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads every registered metric into an owned snapshot. Per-metric
    /// atomic, not cross-metric consistent (see the crate docs).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap();
        MetricsSnapshot {
            metrics: entries
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }

    /// Renders the current state as a Prometheus-style text exposition
    /// (`# TYPE` lines, cumulative `_bucket{le=...}` series, `_sum` and
    /// `_count` per histogram, `_high_water` per gauge).
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// A point-in-time reading of one metric.
// The histogram variant carries its full bucket array inline: snapshots
// are cold-path (scrapes, dumps) and short-lived, so locality beats the
// extra allocation boxing would add.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value and its high-water mark.
    Gauge {
        /// Instantaneous value.
        value: u64,
        /// Highest value ever reached.
        high_water: u64,
    },
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// An owned snapshot of a whole [`Registry`], in registration order.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per registered metric.
    pub metrics: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Looks up a snapshotted metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter value by name (0 when absent or not a counter — the
    /// convenience shape dashboards and the examples want).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Prometheus-style text exposition of this snapshot.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge { value, high_water } => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {value}");
                    let _ = writeln!(out, "# TYPE {name}_high_water gauge");
                    let _ = writeln!(out, "{name}_high_water {high_water}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate() {
                        cumulative += b;
                        // Only emit buckets up to the last non-empty one;
                        // 64 mostly-empty le-lines per histogram would
                        // drown the exposition.
                        if b != 0 {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                                bucket_upper_bound(i)
                            );
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {cumulative}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_snapshots_and_renders() {
        crate::metrics! {
            /// Declared and registered as every layer's metrics are.
            pub struct Demo {
                pub ops: Counter,
                pub depth: Gauge,
                pub latency_ns: Histogram,
            }
        }
        let reg = Registry::new();
        let demo = Demo::default();
        demo.register_into(&reg, "demo");
        demo.ops.add(7);
        demo.depth.add(3);
        demo.depth.sub(1);
        demo.latency_ns.record(100);
        demo.latency_ns.record(100_000);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("demo_ops_total"), 7);
        match snap.get("demo_depth") {
            Some(MetricValue::Gauge { value, high_water }) => {
                assert_eq!(*value, 2);
                assert_eq!(*high_water, 3);
            }
            other => panic!("unexpected {other:?}"),
        }

        let text = snap.render();
        assert!(text.contains("# TYPE demo_ops_total counter"));
        assert!(text.contains("demo_ops_total 7"));
        assert!(text.contains("demo_depth 2"));
        assert!(text.contains("demo_depth_high_water 3"));
        #[cfg(not(feature = "telemetry-off"))]
        {
            assert!(text.contains("# TYPE demo_latency_ns histogram"));
            assert!(text.contains("demo_latency_ns_count 2"));
            assert!(text.contains("demo_latency_ns_sum 100100"));
            assert!(text.contains("demo_latency_ns_bucket{le=\"+Inf\"} 2"));
        }
        assert!(reg.lint().is_ok());
    }

    #[test]
    fn lint_rejects_bad_names_in_release_too() {
        // Bypass the debug_asserts by constructing entries directly in a
        // release build; in debug builds, assert the asserts fire.
        let reg = Registry::new();
        if cfg!(debug_assertions) {
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reg.register_field("Bad", "Name", &Counter::new());
            }))
            .is_err());
        } else {
            reg.register_field("Bad", "Name", &Counter::new());
            assert!(reg.lint().is_err());
        }

        let dup = Registry::new();
        if cfg!(debug_assertions) {
            dup.register_field("twice", "x", &Counter::new());
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dup.register_field("twice", "x", &Counter::new());
            }))
            .is_err());
        } else {
            dup.register_field("twice", "x", &Counter::new());
            dup.register_field("twice", "x", &Counter::new());
            assert!(dup.lint().is_err());
        }
    }
}
