//! Telemetry for the concurrent index: counters for the events the bench
//! story cares about (seqlock retries, locked fallbacks, structural
//! splits/merges and merge attempts, LPM restarts, scan-time sorts) and
//! gauges for the size of the published MetaTrieHT, shareable across
//! instances so a sharded front aggregates all its shards into one set of
//! cells.
//!
//! All recording sites are *off* the clean hot path: a conflict-free
//! optimistic `get` touches no counter at all, so the zero-alloc and
//! sub-microsecond read gates are unaffected.

use std::cmp::Ordering;

use wh_telemetry::{Counter, Gauge};

use crate::meta::MetaShape;

wh_telemetry::metrics! {
    /// Event counters for one (or several — the handles are shared clones)
    /// [`Wormhole`](crate::Wormhole) instances.
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
        /// Items (anchors and their prefixes) of the published MetaTrieHT —
        /// like the three gauges below, summed over the instances sharing
        /// these cells and moved under the writer mutex when a table is
        /// published.
        pub meta_items: Gauge,
        /// Interior nodes with two or more children, each holding a slot of
        /// the table's bitmap side array.
        pub meta_bitmaps: Gauge,
        /// Overflow buckets chained behind full buckets of the table.
        pub meta_overflow_buckets: Gauge,
        /// Heap bytes of the table ([`MetaTable::structure_bytes`]), spare
        /// capacity included.
        ///
        /// [`MetaTable::structure_bytes`]: crate::meta::MetaTable::structure_bytes
        pub meta_bytes: Gauge,
    }
}

impl WormholeMetrics {
    /// Moves the table gauges by one instance's step from the table it had
    /// published (`was`) to the one it publishes (`now`): the cells may be
    /// shared, so an instance moves its own part and sets nothing.
    pub(crate) fn meta_published(&self, was: MetaShape, now: MetaShape) {
        let step = |gauge: &Gauge, was: usize, now: usize| match now.cmp(&was) {
            Ordering::Greater => gauge.add((now - was) as u64),
            Ordering::Less => gauge.sub((was - now) as u64),
            Ordering::Equal => {}
        };
        step(&self.meta_items, was.items, now.items);
        step(&self.meta_bitmaps, was.bitmaps, now.bitmaps);
        step(
            &self.meta_overflow_buckets,
            was.overflow_buckets,
            now.overflow_buckets,
        );
        step(&self.meta_bytes, was.bytes, now.bytes);
    }
}
