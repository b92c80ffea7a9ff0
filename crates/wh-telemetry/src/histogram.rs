//! Log₂-bucketed histograms: one fixed-size array of atomic buckets, a
//! lock-free `record`, and quantile extraction from an owned snapshot.
//!
//! Bucket `i` holds recorded values `v` with `floor(log2(max(v, 1))) == i`
//! — i.e. `v` in `[2^i, 2^(i+1))`, with `v == 0` joining bucket 0 and
//! everything at or above `2^63` saturating into the last bucket. That
//! gives ~2× worst-case quantile error over the full `u64` range with 64
//! buckets and an index computable from one `leading_zeros`, which is what
//! lets `record` stay a shift plus one relaxed `fetch_add`.
//!
//! Under the `telemetry-off` feature the bucket storage vanishes
//! (`record` compiles to nothing and the handle is a unit), so a fully
//! static build pays neither the memory nor the instruction.

#[cfg(not(feature = "telemetry-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "telemetry-off"))]
use std::sync::Arc;
use std::time::Instant;

/// Number of buckets: one per power of two of `u64`.
pub const BUCKETS: usize = 64;

#[cfg(not(feature = "telemetry-off"))]
#[repr(align(64))]
#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// A concurrent latency/size histogram. Cloning shares the cells.
///
/// `record` is wait-free: one bucket-index computation, one relaxed
/// `fetch_add` on the bucket, one on the running sum. No allocation, no
/// lock, no clock.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    #[cfg(not(feature = "telemetry-off"))]
    cell: Arc<HistogramCell>,
}

#[cfg(not(feature = "telemetry-off"))]
impl Default for HistogramCell {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a recorded value: `floor(log2(v))`, with 0 mapping to
/// bucket 0. The top bucket (index 63) doubles as the saturating overflow
/// bucket — every `v >= 2^63` lands there.
#[cfg_attr(feature = "telemetry-off", allow(dead_code))]
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    63 - (v | 1).leading_zeros() as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the top bucket).
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl Histogram {
    /// A new, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value. Compiled out entirely under `telemetry-off`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v` with the same two `fetch_add`s one
    /// occurrence would cost — e.g. one service-time observation for every
    /// request in a batch that completed together.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        if n > 0 {
            self.cell.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
            self.cell
                .sum
                .fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        }
        #[cfg(feature = "telemetry-off")]
        {
            let _ = (v, n);
        }
    }

    /// Records the elapsed nanoseconds of a timing started with
    /// [`crate::start_timing`]; a `None` start (telemetry off at start
    /// time) records nothing and reads no clock.
    #[inline]
    pub fn record_elapsed(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.record(t.elapsed().as_nanos() as u64);
        }
    }

    /// An owned, point-in-time copy of the buckets (see the crate docs
    /// for the consistency model: per-bucket atomic, not cross-bucket).
    pub fn snapshot(&self) -> HistogramSnapshot {
        #[cfg(not(feature = "telemetry-off"))]
        {
            let mut buckets = [0u64; BUCKETS];
            for (b, cell) in buckets.iter_mut().zip(&self.cell.buckets) {
                *b = cell.load(Ordering::Relaxed);
            }
            HistogramSnapshot {
                buckets,
                sum: self.cell.sum.load(Ordering::Relaxed),
            }
        }
        #[cfg(feature = "telemetry-off")]
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

/// An owned copy of a [`Histogram`]'s state; all derived statistics
/// (count, quantiles) are computed here, off the hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values (wrapping on `u64` overflow — latency
    /// sums in nanoseconds stay far below that in practice).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the inclusive
    /// upper bound of the bucket containing that rank (so the estimate
    /// never understates, and is at most 2× the true value). Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Median (upper-bound estimate, see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_index(1 << 63), 63);
    }

    #[test]
    fn bounds_partition_the_domain() {
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(62), (2u64 << 62) - 1);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        for i in 0..63 {
            // The first value of bucket i+1 is one past bucket i's bound.
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn quantiles_bound_recorded_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum, 500_500);
        // Upper-bound estimates: at least the true quantile, at most 2x.
        assert!(snap.p50() >= 500 && snap.p50() <= 1023, "{}", snap.p50());
        assert!(snap.p99() >= 990 && snap.p99() <= 1023, "{}", snap.p99());
        assert!(snap.quantile(0.0) >= 1);
        // Quantiles are monotone in q.
        assert!(snap.p50() <= snap.p90());
        assert!(snap.p90() <= snap.p99());
        assert!(snap.p99() <= snap.p999());
        assert!(snap.p999() <= snap.quantile(1.0));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[cfg(feature = "telemetry-off")]
    #[test]
    fn telemetry_off_records_nothing() {
        let h = Histogram::new();
        h.record(42);
        h.record_n(7, 100);
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
    }
}
