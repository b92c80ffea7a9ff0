//! Differential check of the lock-free histogram against a locked
//! reference: concurrent recorders hammer one shared [`Histogram`] while
//! a `Mutex<Vec<u64>>` reference records the same values; after the
//! recorders quiesce, bucket counts must match *exactly*, the sum must
//! match, quantiles must be monotone in `q`, and every value at or above
//! `2^63` must have saturated into the overflow bucket.

#![cfg(not(feature = "telemetry-off"))]

use std::sync::Mutex;

use proptest::prelude::*;
use wh_telemetry::{Histogram, HistogramSnapshot, BUCKETS};

/// The reference: same bucketing rule, computed serially from a locked
/// log of every recorded value.
fn reference_snapshot(values: &[u64]) -> HistogramSnapshot {
    let mut buckets = [0u64; BUCKETS];
    let mut sum = 0u64;
    for &v in values {
        buckets[63 - (v | 1).leading_zeros() as usize] += 1;
        sum = sum.wrapping_add(v);
    }
    HistogramSnapshot { buckets, sum }
}

/// Value generator biased toward bucket edges: powers of two, their
/// neighbours, zero, and the saturating range.
fn edge_biased_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => any::<u64>(),
        2 => (0u32..64).prop_map(|s| 1u64 << s),
        2 => (1u32..64).prop_map(|s| (1u64 << s) - 1),
        1 => Just(0u64),
        1 => (0u64..1024).prop_map(|d| u64::MAX - d),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_recording_matches_locked_reference(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(edge_biased_value(), 1..200),
            1..4,
        )
    ) {
        let hist = Histogram::new();
        let reference = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for values in &per_thread {
                let hist = hist.clone();
                let reference = &reference;
                scope.spawn(move || {
                    for &v in values {
                        hist.record(v);
                        reference.lock().unwrap().push(v);
                    }
                });
            }
        });

        let got = hist.snapshot();
        let want = reference_snapshot(&reference.into_inner().unwrap());
        // Quiesced recorders: bucket-exact and sum-exact agreement.
        prop_assert_eq!(&got.buckets[..], &want.buckets[..]);
        prop_assert_eq!(got.sum, want.sum);
        prop_assert_eq!(got.count(), want.count());

        // Quantiles are monotone in q and bound by the extremes.
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        for pair in qs.windows(2) {
            prop_assert!(got.quantile(pair[0]) <= got.quantile(pair[1]));
        }

        // Saturation: every value >= 2^63 is in the overflow bucket.
        let overflow_values = per_thread
            .iter()
            .flatten()
            .filter(|&&v| v >= 1u64 << 63)
            .count() as u64;
        prop_assert!(got.buckets[BUCKETS - 1] >= overflow_values);
    }

    #[test]
    fn record_n_equals_n_records(v in edge_biased_value(), n in 0u64..500) {
        let batched = Histogram::new();
        batched.record_n(v, n);
        let looped = Histogram::new();
        for _ in 0..n {
            looped.record(v);
        }
        prop_assert_eq!(batched.snapshot().buckets, looped.snapshot().buckets);
        prop_assert_eq!(batched.snapshot().sum, looped.snapshot().sum);
    }
}
