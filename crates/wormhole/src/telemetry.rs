//! Telemetry for the concurrent index: counters for the events the bench
//! story cares about (seqlock retries, locked fallbacks, structural
//! splits/merges and merge attempts, LPM restarts, scan-time sorts),
//! shareable across instances so a sharded front aggregates all its shards
//! into one set of cells.
//!
//! All recording sites are *off* the clean hot path: a conflict-free
//! optimistic `get` touches no counter at all, so the zero-alloc and
//! sub-microsecond read gates are unaffected.

use wh_telemetry::{Counter, Registry};

/// Event counters for one (or several — the handles are shared clones)
/// [`Wormhole`](crate::Wormhole) instances.
#[derive(Clone, Debug, Default)]
pub struct WormholeMetrics {
    /// Seqlock validation conflicts on the optimistic read path (each one
    /// costs one retry of the lock-free attempt).
    pub seqlock_retries: Counter,
    /// Reads that exhausted their bounded optimistic retries and fell
    /// back to the per-leaf reader lock.
    pub locked_fallbacks: Counter,
    /// Leaf splits published (each is a full RCU table publication).
    pub splits: Counter,
    /// Leaf merges published.
    pub merges: Counter,
    /// Times a removal took the writer mutex to run the merge test; a
    /// removal whose leaf cannot pair with a neighbour does not get there.
    pub merge_attempts: Counter,
    /// MetaTrieHT lookup restarts: the LPM search resolved to a leaf that
    /// a racing merge retired before the neighbour step completed.
    pub lpm_restarts: Counter,
    /// Scans that found a leaf's key-sorted view lagging and ran `incSort`
    /// under its write lock. A second scan of an unchanged leaf adds none.
    pub scan_sorts: Counter,
}

impl WormholeMetrics {
    /// Registers every counter under `<prefix>_…_total` names (prefix
    /// must match `[a-z0-9_]+`, e.g. `wormhole`).
    pub fn register_into(&self, registry: &Registry, prefix: &str) {
        registry.register_counter(
            &format!("{prefix}_seqlock_retries_total"),
            &self.seqlock_retries,
        );
        registry.register_counter(
            &format!("{prefix}_locked_fallbacks_total"),
            &self.locked_fallbacks,
        );
        registry.register_counter(&format!("{prefix}_splits_total"), &self.splits);
        registry.register_counter(&format!("{prefix}_merges_total"), &self.merges);
        registry.register_counter(
            &format!("{prefix}_merge_attempts_total"),
            &self.merge_attempts,
        );
        registry.register_counter(&format!("{prefix}_lpm_restarts_total"), &self.lpm_restarts);
        registry.register_counter(&format!("{prefix}_scan_sorts_total"), &self.scan_sorts);
    }
}
