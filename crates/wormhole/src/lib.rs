//! # Wormhole: a fast ordered index for in-memory data management
//!
//! A from-scratch Rust implementation of the Wormhole index (Xingbo Wu,
//! Fan Ni, Song Jiang — EuroSys 2019). Wormhole is an ordered key/value
//! index whose point lookups cost `O(log L)` in the *key length* `L` rather
//! than `O(log N)` in the number of keys, while still supporting ordered
//! range queries, insertion, and deletion.
//!
//! ## How it works
//!
//! The index combines three structures:
//!
//! * a **LeafList** of B⁺-tree-style leaf nodes, each holding up to 128 keys
//!   and linked in key order — range queries are a lookup plus a linear scan;
//! * a **MetaTrie** over per-leaf *anchor* keys, replacing the B⁺ tree's
//!   internal levels so the search cost no longer depends on `N`;
//! * a **hash table (MetaTrieHT)** that stores every anchor prefix, so the
//!   trie descent becomes a binary search over prefix lengths — `O(log L)`
//!   hash probes.
//!
//! The MetaTrieHT uses the paper's cache-line bucket layout (§3.1/§3.4):
//! one flat allocation of 64-byte buckets, each packing eight 16-bit tags
//! and eight item indices, with a small overflow chain for the rare bucket
//! holding more than eight residents. A probe SWAR-compares all eight tags
//! of a line at once and touches an item record — itself one cache line,
//! prefix and payload inline — only on a tag match, so the LPM binary search
//! costs a handful of cache-line fills; see [`meta`] for the full layout. On top of that layout the
//! point-lookup path — the [`Wormhole`] `get`, the LPM search, and the trie
//! sibling step — performs **zero heap allocations per call**, and ordered
//! scans stream through a resumable cursor (`scan(start)` on both index
//! traits) whose batch-per-leaf arena makes steady-state batch advancement
//! allocation-free. `scan` is the concurrent trait's one ordered read:
//! `range_from` there is derived from it, the first `count` pairs of the
//! cursor.
//!
//! The implementation optimisations of §3 — 16-bit tag matching, incremental
//! CRC hashing, hash-ordered leaf tag arrays, and speculative leaf
//! positioning — are all implemented, and [`WormholeConfig`] builds an index
//! on any [`Rung`] of the paper's cumulative Figure 11 ladder.
//!
//! ## Batched lookups (memory-level parallelism)
//!
//! Both variants additionally expose `get_batch(&[&[u8]]) -> Vec<Option<V>>`
//! (defaulted on the index traits as a per-key loop, which is what
//! `WormholeUnsafe` answers with; `Wormhole` overrides `get_batch_into`,
//! which the concurrent trait's `get_batch` wraps and which fills a buffer
//! the caller keeps, with a pipelined implementation). A single `get`
//! serialises one DRAM miss chain: each LPM
//! binary-search step must finish its bucket-line fill before the next
//! prefix can be probed. The batched path instead processes a window of up
//! to [`meta::BATCH_WINDOW`] keys at once and **round-robins** the search
//! steps across them: every in-flight probe first computes its next prefix
//! hash and issues a software prefetch ([`prefetch::prefetch_read`]) for the
//! corresponding MetaTrieHT bucket, and only then are the probes executed in
//! turn — so while probe *i* waits for its cache line, the lines of probes
//! *i+1..* are already in flight. It is the same search state machine a
//! single `get` runs, with a window of one. The trie sibling step is
//! overlapped the same way, and the leaf half is staged in hint-only rounds
//! over the window (leaf header, the tag-array line at the DirectPos
//! position, the matched item, its key bytes) before the leaf reads run on
//! resident lines. On the concurrent index those reads stay
//! seqlock-validated with the usual per-key bounded-retry fallback, and the
//! whole window shares one QSBR critical section.
//!
//! Prefetching is a pure hint: on targets without the intrinsic it is a
//! no-op (see [`prefetch`]) and `get_batch` degrades to a correct, merely
//! unaccelerated loop. Like single-key `get`, the steady-state batched path
//! performs zero heap allocations per call beyond the returned result
//! vector (all per-probe scratch lives in fixed-size stack arrays).
//!
//! ## Variants
//!
//! * [`Wormhole`] — thread-safe: seqlock-validated **lock-free reads** (no
//!   per-leaf lock on the `get`/`range_from` hot path, with a bounded-retry
//!   fallback to the leaf reader lock), per-leaf writer locks, a writer
//!   mutex over the MetaTrieHT, and a QSBR-based RCU double-table scheme
//!   with version-checked restarts (§2.5, extended).
//! * [`WormholeUnsafe`] — the thread-unsafe variant used by the paper's
//!   single-thread comparisons (Figure 9's "Wormhole-unsafe").
//!
//! For multi-writer scaling beyond one writer mutex, the `wh-shard` crate
//! layers a range-partitioned sharded front (`ShardedWormhole`) over `N`
//! independent [`Wormhole`] instances built from the same
//! [`WormholeConfig`]; it is re-exported as `wormhole_repro::sharded` by
//! the umbrella crate.
//!
//! Both variants share one split/merge engine: [`core`] owns
//! split-point selection, anchor formation, and merge eligibility, and the
//! MetaTrieHT change of a split or merge is one [`meta::MetaUpdate`] that
//! a table runs on itself in place: the single-threaded index on its one
//! table, the concurrent index on T2 and, after the grace period, again on
//! T1, under the writer mutex.
//!
//! ## Quick start
//!
//! ```
//! use index_traits::ConcurrentOrderedIndex;
//! use wormhole::Wormhole;
//!
//! let index: Wormhole<u64> = Wormhole::new();
//! index.set(b"James", 1);
//! index.set(b"Jason", 2);
//! index.set(b"Aaron", 3);
//! assert_eq!(index.get(b"James"), Some(1));
//! // Range query: first two keys at or after "J".
//! let range = index.range_from(b"J", 2);
//! assert_eq!(range[0].0, b"James".to_vec());
//! assert_eq!(range[1].0, b"Jason".to_vec());
//! ```

pub mod concurrent;
pub mod config;
pub mod core;
mod keybox;
pub mod leaf;
pub mod meta;
pub mod prefetch;
pub mod single;
pub mod telemetry;

pub use concurrent::Wormhole;
pub use config::{Rung, WormholeConfig};
pub use single::WormholeUnsafe;
pub use telemetry::WormholeMetrics;

#[cfg(test)]
mod tests {
    use super::*;
    use index_traits::{ConcurrentOrderedIndex, OrderedIndex};

    #[test]
    fn crate_level_reexports() {
        let concurrent: Wormhole<u32> = Wormhole::new();
        concurrent.set(b"a", 1);
        assert_eq!(concurrent.get(b"a"), Some(1));

        let mut single: WormholeUnsafe<u32> = WormholeUnsafe::new();
        single.set(b"a", 2);
        assert_eq!(single.get(b"a"), Some(2));

        assert_eq!(WormholeConfig::default(), WormholeConfig::optimized());
    }
}
