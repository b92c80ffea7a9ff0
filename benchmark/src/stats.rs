//! Aggregation: medians, quartiles and percentiles over rounds and samples.

/// The `q` quantile (0 ≤ q ≤ 1) of an ascending slice, linearly
/// interpolated between the two nearest ranks. Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile of a set of round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Quartiles {
        q1: percentile(&sorted, 0.25),
        median: percentile(&sorted, 0.5),
        q3: percentile(&sorted, 0.75),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Median and 99th percentile of nanosecond call samples (sorts in place).
pub fn p50_p99(samples: &mut [u32]) -> (f64, f64) {
    samples.sort_unstable();
    let sorted: Vec<f64> = samples.iter().map(|&ns| f64::from(ns)).collect();
    (percentile(&sorted, 0.5), percentile(&sorted, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert!((percentile(&v, 0.25) - 17.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_ignore_input_order() {
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            q,
            Quartiles {
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        assert_eq!(median(&[9.0, 1.0]), 5.0);
    }

    #[test]
    fn median_resists_one_disturbed_round() {
        let mut rounds = vec![100.0; 20];
        rounds.push(10_000.0);
        assert_eq!(median(&rounds), 100.0);
    }

    #[test]
    fn call_percentiles_sort_their_samples() {
        let mut samples: Vec<u32> = (1..=101).rev().collect();
        let (p50, p99) = p50_p99(&mut samples);
        assert_eq!(p50, 51.0);
        assert_eq!(p99, 100.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        percentile(&[], 0.5);
    }
}
