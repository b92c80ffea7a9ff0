//! Shard-count and boundary configuration for [`crate::ShardedWormhole`].
//!
//! A sharded index is fully described by its **boundary keys** — the
//! strictly ascending, non-empty byte strings that partition the key space
//! — plus the [`WormholeConfig`] every shard is built with. `N` shards need
//! `N - 1` boundaries: shard `0` covers `[ε, b₀)`, shard `i` covers
//! `[bᵢ₋₁, bᵢ)`, and the last shard covers `[bₙ₋₂, ∞)`. Boundaries are
//! fixed at construction; three ways to choose them are provided:
//!
//! * [`ShardedConfig::evenly`] — split the byte space by first byte, for
//!   keys whose leading byte is roughly uniform;
//! * [`ShardedConfig::from_sample`] — quantile boundaries drawn from a
//!   sample of the expected keyset, for skewed distributions;
//! * [`ShardedConfig::with_boundaries`] — explicit boundaries chosen by the
//!   caller (e.g. tenant prefixes).

use wormhole::WormholeConfig;

use crate::rebalance::RebalanceConfig;

/// Construction parameters of a [`crate::ShardedWormhole`]: the resolved
/// boundary keys, the per-shard Wormhole configuration, and the rebalance
/// policy applied by [`crate::ShardedWormhole::maybe_rebalance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedConfig {
    boundaries: Vec<Vec<u8>>,
    inner: WormholeConfig,
    rebalance: RebalanceConfig,
}

/// The `numer/denom` quantile of an ascending key sample: the shared
/// machinery under both [`ShardedConfig::from_sample`] (construction-time
/// boundaries) and the online rebalancer's boundary pick (which feeds it a
/// stride sample of the live donor shard streamed through a cursor).
///
/// Returns `None` for an empty sample or a quantile beyond its end; the
/// returned key is a member of the sample, so choosing it as a boundary
/// always lands on (the location of) a real key.
pub fn sample_quantile<K: AsRef<[u8]>>(sorted: &[K], numer: usize, denom: usize) -> Option<&[u8]> {
    if sorted.is_empty() || denom == 0 {
        return None;
    }
    let idx = ((numer as u128 * sorted.len() as u128) / denom as u128) as usize;
    sorted.get(idx).map(K::as_ref)
}

/// Validates the boundary invariants: strictly ascending and non-empty
/// (an empty boundary would make shard 0's range empty, leaving it
/// unreachable by the router).
fn validate(boundaries: &[Vec<u8>]) {
    for (i, boundary) in boundaries.iter().enumerate() {
        assert!(!boundary.is_empty(), "shard boundary {i} is empty");
        if i > 0 {
            assert!(
                boundaries[i - 1] < *boundary,
                "shard boundaries not strictly ascending at {i}"
            );
        }
    }
}

impl ShardedConfig {
    /// Splits the key space into `shards` ranges of (approximately) equal
    /// first-byte width: boundary `i` is the single byte `256·i/shards`.
    /// Right for keys whose leading byte is roughly uniform; for skewed
    /// keysets prefer [`ShardedConfig::from_sample`].
    ///
    /// `shards` is capped at 256 (single-byte boundaries cannot distinguish
    /// more ranges).
    pub fn evenly(shards: usize) -> Self {
        let shards = shards.clamp(1, 256);
        let boundaries = (1..shards)
            .map(|i| vec![(i * 256 / shards) as u8])
            .collect();
        Self {
            boundaries,
            inner: WormholeConfig::default(),
            rebalance: RebalanceConfig::default(),
        }
    }

    /// Explicit boundary keys; the index gets `boundaries.len() + 1`
    /// shards. Panics unless the boundaries are strictly ascending and
    /// non-empty.
    pub fn with_boundaries(boundaries: Vec<Vec<u8>>) -> Self {
        validate(&boundaries);
        Self {
            boundaries,
            inner: WormholeConfig::default(),
            rebalance: RebalanceConfig::default(),
        }
    }

    /// Chooses up to `shards - 1` boundaries as the quantiles of a sample
    /// of the expected keyset, so each shard receives roughly the same
    /// share of a *skewed* key distribution. Duplicate or empty quantile
    /// keys are dropped, which can yield fewer shards than requested (a
    /// sample with too few distinct keys cannot support the requested
    /// fan-out).
    pub fn from_sample<K: AsRef<[u8]>>(shards: usize, sample: &[K]) -> Self {
        let shards = shards.max(1);
        let mut sorted: Vec<&[u8]> = sample
            .iter()
            .map(|k| k.as_ref())
            .filter(|k| !k.is_empty())
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut boundaries: Vec<Vec<u8>> = Vec::with_capacity(shards.saturating_sub(1));
        for i in 1..shards {
            let Some(candidate) = sample_quantile(&sorted, i, shards) else {
                continue;
            };
            if boundaries.last().map(Vec::as_slice) != Some(candidate) {
                boundaries.push(candidate.to_vec());
            }
        }
        validate(&boundaries);
        Self {
            boundaries,
            inner: WormholeConfig::default(),
            rebalance: RebalanceConfig::default(),
        }
    }

    /// Overrides the per-shard [`WormholeConfig`].
    pub fn with_inner(mut self, inner: WormholeConfig) -> Self {
        self.inner = inner;
        self
    }

    /// Overrides the rebalance policy consulted by
    /// [`crate::ShardedWormhole::maybe_rebalance`].
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// The rebalance policy.
    pub fn rebalance(&self) -> &RebalanceConfig {
        &self.rebalance
    }

    /// Number of shards the configuration produces.
    pub fn shard_count(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The resolved boundary keys, strictly ascending.
    pub fn boundaries(&self) -> &[Vec<u8>] {
        &self.boundaries
    }

    /// The per-shard Wormhole configuration.
    pub fn inner(&self) -> &WormholeConfig {
        &self.inner
    }

    pub(crate) fn into_parts(self) -> (Vec<Vec<u8>>, WormholeConfig, RebalanceConfig) {
        (self.boundaries, self.inner, self.rebalance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_splits_first_byte_space() {
        let config = ShardedConfig::evenly(4);
        assert_eq!(config.shard_count(), 4);
        assert_eq!(
            config.boundaries(),
            &[vec![64u8], vec![128], vec![192]] as &[Vec<u8>]
        );
        assert_eq!(ShardedConfig::evenly(1).shard_count(), 1);
        assert_eq!(ShardedConfig::evenly(0).shard_count(), 1);
        // More shards than byte values degrade gracefully.
        assert_eq!(ShardedConfig::evenly(1000).shard_count(), 256);
    }

    #[test]
    fn sample_boundaries_follow_quantiles() {
        let sample: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| format!("user-{i:04}").into_bytes())
            .collect();
        let config = ShardedConfig::from_sample(4, &sample);
        assert_eq!(config.shard_count(), 4);
        assert_eq!(config.boundaries()[0], b"user-0250".to_vec());
        assert_eq!(config.boundaries()[1], b"user-0500".to_vec());
        assert_eq!(config.boundaries()[2], b"user-0750".to_vec());
    }

    #[test]
    fn degenerate_sample_reduces_shard_count() {
        let sample = [b"same".to_vec(), b"same".to_vec(), b"same".to_vec()];
        let config = ShardedConfig::from_sample(8, &sample);
        assert!(config.shard_count() <= 2, "one distinct key, ≤ 2 shards");
        let empty: Vec<Vec<u8>> = Vec::new();
        assert_eq!(ShardedConfig::from_sample(8, &empty).shard_count(), 1);
    }

    #[test]
    fn sample_quantile_selects_by_fraction() {
        let sample: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("q{i:03}").into_bytes())
            .collect();
        assert_eq!(sample_quantile(&sample, 0, 4), Some(&b"q000"[..]));
        assert_eq!(sample_quantile(&sample, 1, 4), Some(&b"q025"[..]));
        assert_eq!(sample_quantile(&sample, 3, 4), Some(&b"q075"[..]));
        assert_eq!(
            sample_quantile(&sample, 4, 4),
            None,
            "end quantile is out of range"
        );
        assert_eq!(sample_quantile(&sample, 1, 0), None, "zero denominator");
        let empty: Vec<Vec<u8>> = Vec::new();
        assert_eq!(sample_quantile(&empty, 1, 2), None);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn unsorted_explicit_boundaries_rejected() {
        let _ = ShardedConfig::with_boundaries(vec![b"m".to_vec(), b"a".to_vec()]);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_boundary_rejected() {
        let _ = ShardedConfig::with_boundaries(vec![Vec::new(), b"m".to_vec()]);
    }
}
