//! # wh-shard: a range-partitioned sharded front over Wormhole
//!
//! The concurrent [`wormhole::Wormhole`] serialises all structural
//! modifications — leaf splits and merges, each including an RCU grace
//! period — on one MetaTrieHT writer mutex, so multi-writer throughput
//! stops scaling with core count the moment the workload churns structure.
//! [`ShardedWormhole`] removes that ceiling by **range-partitioning** the
//! key space over `N` independent `Wormhole` instances: writers on
//! different shards share no mutex, no QSBR domain, and no leaf lock,
//! while point reads pay only one boundary binary search before the usual
//! lock-free optimistic lookup.
//!
//! Hash partitioning would balance load more uniformly, but it destroys
//! the property this crate exists to keep: **global key order**. With
//! range partitioning an ordered scan is simply the per-shard scans
//! chained in boundary order, so the sharded index still implements the
//! full [`index_traits::ConcurrentOrderedIndex`] contract, streaming
//! cursor included.
//!
//! ## Boundary invariants
//!
//! A [`ShardedWormhole`] with `N` shards carries `N - 1` **boundary keys**
//! `b₀ < b₁ < … < bₙ₋₂`:
//!
//! * boundaries are **strictly ascending** and **non-empty** (an empty
//!   boundary would leave shard 0 with an empty range);
//! * shard `i` owns exactly the half-open range `[bᵢ₋₁, bᵢ)` (shard 0
//!   starts at the empty key ε, the last shard is unbounded above); a
//!   boundary key itself belongs to the shard on its **right**;
//! * every operation on key `k` is routed to the unique owning shard
//!   (`shard_for(k)` = number of boundaries `<= k`), so a key is never
//!   *reachable* in two shards at once and `len`/`stats` are plain sums
//!   (with a documented transient overcount of at most one in-flight
//!   migration batch).
//!
//! Initial boundaries come from [`ShardedConfig`] (even byte-split, sample
//! quantiles, or explicit keys) — and, unlike the crate's first iteration,
//! they are **not** frozen afterwards: rebalancing is a live background
//! range migration, not a rebuild.
//!
//! ## The router-epoch protocol
//!
//! Routing state lives in one immutable, heap-allocated table (the
//! boundary array, a publication **epoch**, and an optional write-frozen
//! range), published through an atomic pointer and protected by its own
//! [`wh_epoch::Qsbr`] domain; a publication waits out its grace period
//! and frees the table it replaced before it returns. The router domain
//! is **biased**: migrations are rare and well-delimited, so the common
//! case pays almost nothing for the protection it almost never needs.
//!
//! * **Point ops, migration idle** (the steady state): the table can only
//!   be swapped by a migration, and none is running, so a routed op skips
//!   the critical section entirely. It enters a *biased fast section*
//!   ([`wh_epoch::QsbrHandle::try_fast`]) — one relaxed generation store,
//!   one fence, one load of the domain's bias flag — routes off the
//!   published table, and executes the shard op. No epoch bookkeeping and
//!   no freeze check (a frozen range implies a migration, which implies
//!   the bias was already revoked). A single-shard index routes the same
//!   way: its fast sections find an empty boundary array, and no
//!   migration ever revokes its bias.
//! * **Point ops, migration in flight**: `try_fast` declines (the bias is
//!   revoked) and the op falls back to a classic read-side critical
//!   section, exactly the pre-fast-path protocol. Reads still never block
//!   on the router. A write whose key falls in the (rare, bounded) frozen
//!   range of an in-flight migration batch waits — outside any critical
//!   section — until the batch publishes its new boundary; every other
//!   write proceeds untouched.
//! * **Migration** (see [`rebalance`]) first executes the **draining
//!   barrier** ([`wh_epoch::Qsbr::drain_barrier`]): it revokes the bias
//!   flag, waits until every registered handle's fast-section generation
//!   is even (no fast section in flight), and forces one grace period for
//!   classic sections. The ordering argument is a Dekker handshake on
//!   SC fences: a fast entry stores its generation odd, fences, then
//!   loads the bias; the barrier stores the bias false, fences, then
//!   reads the generations. Whichever fence comes first in the total
//!   order, either the barrier observes the odd generation and waits the
//!   reader out, or the reader observes the revoked bias and falls back —
//!   so no op that skipped its critical section can still be
//!   dereferencing a table the migration is about to retire. From there
//!   the migration proceeds under the classic protocol: it swaps the
//!   table (bumping the epoch), waits out a grace period
//!   ([`wh_epoch::Qsbr::synchronize`]) and frees the old table. One guard,
//!   held with the migration mutex, runs the barrier, every swap and the
//!   bias's return. The grace periods give the two reader-visibility
//!   guarantees the protocol rests on: after the *freeze* publication's
//!   grace, no in-flight write can still be mutating the batch range in
//!   the donor (so the copy is of immutable data); after the *boundary*
//!   publication's grace, no in-flight read or scan fill can still be
//!   resolving the range against the donor (so the donor's stale copy can
//!   be drained). When the migration finishes (or unwinds, after a
//!   republish that lifts its freeze), it restores the bias *after* its
//!   last table swap: a fast section granted after the restore can only
//!   have loaded the final table, whose retirement would again be behind
//!   a future barrier.
//! * **Scans** record the router epoch each cursor segment was routed
//!   under and re-validate it on every batch fill, each fill one router
//!   section (a fast section while idle, a critical section during
//!   migrations) that also steps over shards with nothing left; a stale
//!   segment is dropped and the cursor's position re-routed through the
//!   live boundaries. A long-running cross-shard
//!   cursor therefore stays globally ordered, never yields a key twice,
//!   and never loses a key to a concurrent boundary move — and a
//!   [`index_traits::Cursor::resume_key`] is a plain global key that a
//!   fresh `scan` re-routes through whatever the boundaries are *then*.
//!
//! ## Load-driven rebalancing
//!
//! Every routed op bumps a cache-line-padded per-shard counter.
//! [`ShardedWormhole::maybe_rebalance`] turns those counters into
//! boundary moves: when an adjacent pair's load ratio exceeds the
//! configured threshold, the hot shard sheds keys — the new boundary
//! picked by the same sample-quantile machinery that chooses
//! construction-time boundaries, fed by a live cursor sample — in bounded
//! freeze/copy/publish/drain batches. [`RebalanceConfig`] holds the
//! policy knobs; [`ShardedWormhole::migrate_boundary`] is the explicit,
//! policy-free entry point. See the [`rebalance`] module docs for the
//! batch protocol and its exactly-one-home argument.
//!
//! ## Quick start
//!
//! ```
//! use index_traits::ConcurrentOrderedIndex;
//! use wh_shard::ShardedWormhole;
//!
//! // 4 shards, boundaries split evenly over the first key byte.
//! let index: ShardedWormhole<u64> = ShardedWormhole::new(4);
//! index.set(b"James", 1);
//! index.set(b"aaron", 2);
//! index.set(b"zoe", 3);
//! assert_eq!(index.get(b"aaron"), Some(2));
//! // Ordered scans cross shard boundaries transparently.
//! let all = index.range_from(b"", usize::MAX);
//! assert_eq!(all.len(), 3);
//! assert_eq!(all[0].0, b"James".to_vec());
//! assert_eq!(all[2].0, b"zoe".to_vec());
//! // Boundaries can move while the index serves traffic.
//! index.migrate_boundary(0, b"ab").expect("live boundary move");
//! assert_eq!(index.get(b"aaron"), Some(2));
//! ```

pub mod config;
pub mod index;
pub mod rebalance;
pub mod telemetry;

pub use config::ShardedConfig;
pub use index::ShardedWormhole;
pub use rebalance::{MigrateError, MigrationReport, RebalanceConfig, RebalanceOutcome};
pub use telemetry::ShardMetrics;
