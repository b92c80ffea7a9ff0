//! The sharded index: the epoch-published boundary router, per-shard
//! handles and op counters, and the cross-shard scan cursor.
//!
//! See the [crate docs](crate) for the boundary invariants, the
//! router-epoch protocol, and the cross-shard cursor's resume semantics.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use index_traits::{
    ConcurrentOrderedIndex, Cursor, CursorSource, FromSorted, IndexStats, ScanBatch, Take,
};
use parking_lot::Mutex;
use wh_epoch::Qsbr;
use wh_telemetry::{Counter, Registry};
use wormhole::{Wormhole, WormholeMetrics};

use crate::config::ShardedConfig;
use crate::rebalance::{MigrationState, RebalanceConfig};
use crate::telemetry::ShardMetrics;

/// Keys `get_batch_into` routes and gathers at a time: what its stack
/// arrays hold. With a handful of shards a group still hands each of them
/// several full probe windows.
const GATHER_KEYS: usize = 128;

/// The immutable routing state published to readers: one of these is live
/// at any instant, swapped atomically by the migration engine and retired
/// through the router's QSBR domain (`wh_epoch::Qsbr`) — the same
/// async-grace pattern the concurrent Wormhole uses for its MetaTrieHT
/// publications.
pub(crate) struct RouterTable {
    /// Publication counter, bumped by every swap. Long-lived consumers (a
    /// cross-shard scan segment) record it when they make a routing
    /// decision and re-validate before acting on that decision again.
    pub(crate) epoch: u64,
    /// `shards - 1` strictly ascending, non-empty boundary keys; shard `i`
    /// owns `[boundaries[i-1], boundaries[i])`.
    pub(crate) boundaries: Box<[Vec<u8>]>,
    /// A half-open key range whose *writes* are briefly paused while a
    /// migration batch copies it from donor to recipient. Reads are never
    /// paused — the range still routes to the donor, whose copy stays
    /// authoritative until the boundary moves.
    pub(crate) freeze: Option<(Vec<u8>, Vec<u8>)>,
}

impl RouterTable {
    /// Index of the shard owning `key`: the number of boundaries `<= key`.
    #[inline]
    pub(crate) fn route(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }

    /// Whether a write to `key` must wait for the in-flight migration
    /// batch to publish its new boundary. The overwhelmingly common
    /// migration-idle table has `freeze == None`, which exits on the
    /// discriminant test alone — no key comparisons.
    #[inline]
    fn write_frozen(&self, key: &[u8]) -> bool {
        let Some((lo, hi)) = &self.freeze else {
            return false;
        };
        key >= lo.as_slice() && key < hi.as_slice()
    }
}

/// Send-wrapper freeing a retired router table once its grace period has
/// elapsed (queued through `Qsbr::defer`).
struct RetiredRouter(*mut RouterTable);

// SAFETY: the wrapper owns the only reference that will ever free the
// table; the pointee is plain owned data (`Vec<u8>` keys).
unsafe impl Send for RetiredRouter {}

impl Drop for RetiredRouter {
    fn drop(&mut self) {
        // SAFETY: run after the grace period following the swap that
        // unpublished the table — no reader can still hold it.
        unsafe { drop(Box::from_raw(self.0)) }
    }
}

/// A range-partitioned front over `N` independent concurrent [`Wormhole`]
/// instances, with **online rebalancing**: the boundary between two
/// adjacent shards can migrate at runtime without blocking readers or
/// writers outside the migrating range.
///
/// Point operations are one boundary lookup (a binary search over at most
/// `N - 1` boundary keys in the epoch-published router table) plus the
/// routed shard's own operation — for reads, a lock-free optimistic
/// lookup. Writers on different shards share **no** state: each shard
/// owns its MetaTrieHT writer mutex, its QSBR domain, and its leaf locks,
/// so structural modifications (splits, merges, grace periods) on one
/// shard never serialise writers on another.
///
/// While no migration is in flight (the overwhelmingly common state),
/// point operations route through a **biased fast entry** of the router's
/// QSBR domain — one relaxed store, one fence, and one flag load, no
/// critical-section bookkeeping. A migration first executes a draining
/// barrier that revokes the bias and waits out in-flight fast sections;
/// only then does it publish, so ops that skipped the critical section
/// are still ordered against every table swap. While the bias is
/// revoked, ops fall back to classic read-side critical sections, which
/// the migration engine orders with asynchronous grace periods — see
/// the [crate docs](crate) for the full protocol, and
/// [`ShardedWormhole::maybe_rebalance`] /
/// [`ShardedWormhole::migrate_boundary`] for the entry points.
pub struct ShardedWormhole<V> {
    /// The per-shard indexes, in boundary order. The array is fixed at
    /// construction — migration moves *boundaries* (and the keys between
    /// them), never shards — so routing hands out `&Wormhole<V>` without
    /// indirection.
    shards: Box<[Wormhole<V>]>,
    /// The live routing state. Readers dereference it inside a critical
    /// section of `router_qsbr`; the migration engine swaps it and retires
    /// the old table after a grace period.
    router: AtomicPtr<RouterTable>,
    /// QSBR domain protecting `router` publications.
    router_qsbr: Qsbr,
    /// Per-shard point-op counters — the load signal `maybe_rebalance`
    /// consumes *and* the telemetry series `register_metrics` exposes (one
    /// source of truth). Relaxed increments; each [`Counter`] cell lives
    /// on its own cache line, so shards never false-share.
    ops: Box<[Counter]>,
    /// Front-level event counters (router path split, migration progress,
    /// frozen-write waits).
    metrics: ShardMetrics,
    /// Event counters shared by *every* shard's inner [`Wormhole`]
    /// (seqlock retries, splits, …): one `Arc`, aggregated cells.
    wormhole_metrics: Arc<WormholeMetrics>,
    /// The rebalance policy (from [`ShardedConfig`]).
    rebalance: RebalanceConfig,
    /// Serialises migrations and holds the rebalancer's decision state
    /// (the op-counter snapshot deltas are computed against).
    pub(crate) migration: Mutex<MigrationState>,
}

impl<V: Clone + Send + Sync + 'static> ShardedWormhole<V> {
    /// Creates an index with `shards` evenly byte-split shards and the
    /// default per-shard configuration ([`ShardedConfig::evenly`]).
    pub fn new(shards: usize) -> Self {
        Self::with_config(ShardedConfig::evenly(shards))
    }

    /// Creates an index from a full [`ShardedConfig`].
    pub fn with_config(config: ShardedConfig) -> Self {
        Self::from_sorted(config, std::iter::empty())
    }

    /// Creates an index whose boundaries are the quantiles of `sample`
    /// ([`ShardedConfig::from_sample`]): the go-to constructor when a
    /// representative slice of the expected keyset is at hand.
    pub fn from_sample<K: AsRef<[u8]>>(shards: usize, sample: &[K]) -> Self {
        Self::with_config(ShardedConfig::from_sample(shards, sample))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f` against the live router table, protected either by a
    /// *biased fast entry* (migration idle: one relaxed store, one fence,
    /// one flag load — no critical-section bookkeeping) or, when a
    /// migration has revoked the bias, by a classic read-side critical
    /// section of the router's QSBR domain.
    /// Either way the table cannot be retired while `f` runs.
    pub(crate) fn with_router<R>(&self, f: impl FnOnce(&RouterTable) -> R) -> R {
        self.router_qsbr.with_local_handle(|handle| {
            if let Some(_fast) = handle.try_fast() {
                self.metrics.router_fast_entries.inc();
                // SAFETY: the fast guard was granted while the domain is
                // biased, i.e. no migration is mid-flight: the next
                // retirement is preceded by a draining barrier that waits
                // for this fast section (see `Qsbr::drain_barrier` for the
                // ordering argument), so the table stays live for the whole
                // section.
                let router = unsafe { &*self.router.load(Ordering::Acquire) };
                return f(router);
            }
            self.metrics.router_classic_entries.inc();
            let _guard = handle.enter();
            // SAFETY: `router` always points to a live table; the migration
            // engine retires a swapped-out table only after a grace period,
            // and we are inside a critical section.
            let router = unsafe { &*self.router.load(Ordering::Acquire) };
            f(router)
        })
    }

    /// Revokes the biased fast path and drains it: after this returns, no
    /// thread is inside a fast section and every future point op falls back
    /// to the classic critical-section path, so [`publish_router`]'s
    /// grace-period protocol covers all of them. The migration engine calls
    /// this once per migration, *before the first* publication; callers
    /// must hold the migration mutex.
    ///
    /// [`publish_router`]: ShardedWormhole::publish_router
    pub(crate) fn begin_router_mutation(&self) {
        self.router_qsbr.drain_barrier();
    }

    /// Re-enables the biased fast path after the last publication of a
    /// migration. Safe even though retired tables may still be aging: a
    /// fast reader entering from here on can only load the final published
    /// table (the bias store is ordered after the last swap), never a
    /// retired one. Callers must hold the migration mutex.
    pub(crate) fn end_router_mutation(&self) {
        self.router_qsbr.resume_bias();
    }

    /// Publishes a new router table, starts — without waiting for — the
    /// grace period retiring the old one, and returns the grace token.
    /// Must only be called while holding the migration mutex, with the
    /// biased fast path revoked ([`ShardedWormhole::begin_router_mutation`])
    /// — fast sections do not participate in grace periods, so a swap while
    /// the domain is biased could retire a table out from under them.
    pub(crate) fn publish_router(
        &self,
        boundaries: Box<[Vec<u8>]>,
        freeze: Option<(Vec<u8>, Vec<u8>)>,
    ) -> u64 {
        debug_assert!(
            !self.router_qsbr.biased(),
            "publish_router requires a preceding begin_router_mutation"
        );
        // SAFETY: the migration mutex serialises all swaps, so reading the
        // current epoch without a guard is race-free.
        let epoch = unsafe { &*self.router.load(Ordering::Acquire) }.epoch + 1;
        let fresh = Box::into_raw(Box::new(RouterTable {
            epoch,
            boundaries,
            freeze,
        }));
        let prev = self.router.swap(fresh, Ordering::AcqRel);
        // Defer *before* starting the grace period so the retirement is
        // stamped with this publication's grace token: the migration
        // engine's own `wait_grace(grace)` then reclaims the table, rather
        // than parking it until the following publication.
        let retired = RetiredRouter(prev);
        self.router_qsbr.defer(Box::new(move || drop(retired)));
        self.router_qsbr.start_grace()
    }

    /// The router's QSBR domain (migration engine only).
    pub(crate) fn router_qsbr(&self) -> &Qsbr {
        &self.router_qsbr
    }

    /// The rebalance policy this index was built with.
    pub(crate) fn rebalance_config(&self) -> &RebalanceConfig {
        &self.rebalance
    }

    /// A snapshot of the current boundary keys, strictly ascending
    /// (`shard_count() - 1` entries). Boundaries move under online
    /// rebalancing, so this is a copy, not a borrow of live state.
    pub fn boundaries(&self) -> Vec<Vec<u8>> {
        self.with_router(|router| router.boundaries.to_vec())
    }

    /// Index of the shard owning `key` under the *current* boundaries.
    /// Advisory under concurrent rebalancing: a migration may re-home the
    /// key after this returns. Point operations therefore never use this —
    /// they route inside a router critical section.
    #[inline]
    pub fn shard_for(&self, key: &[u8]) -> usize {
        self.with_router(|router| router.route(key))
    }

    /// Handle to shard `i` (boundary order).
    pub fn shard(&self, i: usize) -> &Wormhole<V> {
        &self.shards[i]
    }

    /// Handle to the shard owning `key` — the router composed with
    /// [`ShardedWormhole::shard`]. Advisory, like
    /// [`ShardedWormhole::shard_for`].
    #[inline]
    pub fn shard_of(&self, key: &[u8]) -> &Wormhole<V> {
        &self.shards[self.shard_for(key)]
    }

    /// Routes a whole batch of keys against **one** router-table snapshot:
    /// appends the owning shard index of each key to `out` (in input
    /// order) and returns the epoch of the table that made the decisions.
    /// The entire batch is resolved inside a single router protection span
    /// (a biased fast section while migrations are idle, a classic QSBR
    /// critical section otherwise),
    /// so all decisions are mutually consistent — no interleaving
    /// migration can split one batch across two boundary generations.
    ///
    /// Like [`ShardedWormhole::shard_for`], the result is **advisory**
    /// under concurrent rebalancing: a migration published after this
    /// returns may re-home any of the keys. Callers that use it for
    /// placement (a serving layer dispatching sub-batches to shard-affine
    /// workers) must still execute through the routed public API — which
    /// re-routes inside its own protection span — and can compare epochs
    /// across calls to detect that boundaries moved between two batches
    /// (epochs are monotonically increasing; see `publish_router`).
    pub fn route_batch(&self, keys: &[&[u8]], out: &mut Vec<usize>) -> u64 {
        out.reserve(keys.len());
        self.with_router(|router| {
            for key in keys {
                out.push(router.route(key));
            }
            router.epoch
        })
    }

    /// The current router epoch: bumped by every boundary publication
    /// (including the transient freeze/unfreeze swaps inside one migration
    /// batch). A serving layer snapshots it with
    /// [`ShardedWormhole::route_batch`] and treats a change as "boundaries
    /// may have moved — re-derive any cached affinity".
    pub fn router_epoch(&self) -> u64 {
        self.with_router(|router| router.epoch)
    }

    /// Cumulative point-operation count per shard (the rebalancer's load
    /// signal; also handy for demos and diagnostics). Reads the same
    /// telemetry counters [`ShardedWormhole::register_metrics`] exposes.
    pub fn op_counts(&self) -> Vec<u64> {
        self.ops.iter().map(Counter::get).collect()
    }

    /// Front-level event counters (router path split, migration progress,
    /// frozen-write waits).
    pub fn metrics(&self) -> &ShardMetrics {
        &self.metrics
    }

    /// The event counters shared by every shard's inner [`Wormhole`].
    pub fn wormhole_metrics(&self) -> &Arc<WormholeMetrics> {
        &self.wormhole_metrics
    }

    /// Registers the front's full metric set into `registry` under
    /// `<prefix>_…` names: the front-level counters, one
    /// `<prefix>_shard<i>_ops_total` per shard, the shards' aggregated
    /// [`WormholeMetrics`] (`<prefix>_wormhole_…`), and the router QSBR
    /// domain's [`wh_epoch::EpochMetrics`] (`<prefix>_router_epoch_…`).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.metrics.register_into(registry, prefix);
        for (i, ops) in self.ops.iter().enumerate() {
            registry.register_field(prefix, &format!("shard{i}_ops"), ops);
        }
        self.wormhole_metrics
            .register_into(registry, &format!("{prefix}_wormhole"));
        self.router_qsbr
            .metrics()
            .register_into(registry, &format!("{prefix}_router_epoch"));
    }

    /// Routes a read: one router protection span (fast or critical-section,
    /// see [`ShardedWormhole::with_router`]) covering the boundary lookup
    /// *and* the shard operation, so a migration's draining barrier and
    /// grace periods order donor draining after every in-flight read that
    /// routed to it.
    #[inline]
    fn routed_read<R>(&self, key: &[u8], f: impl FnOnce(&Wormhole<V>) -> R) -> R {
        self.with_router(|router| {
            let shard = router.route(key);
            self.ops[shard].inc();
            f(&self.shards[shard])
        })
    }

    /// Routes a write, waiting out a migration batch that has frozen the
    /// key's range (bounded: one batch copy plus a grace period). The wait
    /// spins *outside* any critical section so it never holds up the very
    /// grace period that will unfreeze the range. Fast-path writes are
    /// sound under freezes for a stronger reason than the grace argument:
    /// a fast section can only exist while the domain is biased, and the
    /// draining barrier that precedes every freeze publication waits for
    /// all of them — so a frozen table is never observed from a fast entry.
    #[inline]
    fn routed_write<R>(&self, key: &[u8], mut f: impl FnMut(&Wormhole<V>) -> R) -> R {
        // `Some` once the key was found frozen: the wait is counted (and
        // timed) exactly once per write, however many spins it takes.
        let mut frozen_wait: Option<Option<std::time::Instant>> = None;
        loop {
            let done = self.with_router(|router| {
                if router.write_frozen(key) {
                    return None;
                }
                let shard = router.route(key);
                self.ops[shard].inc();
                Some(f(&self.shards[shard]))
            });
            match done {
                Some(result) => {
                    if let Some(timing) = frozen_wait {
                        self.metrics.frozen_write_wait_ns.record_elapsed(timing);
                    }
                    return result;
                }
                None => {
                    if frozen_wait.is_none() {
                        self.metrics.frozen_write_waits.inc();
                        frozen_wait = Some(wh_telemetry::start_timing());
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Number of classic router critical-section entries point ops have
    /// made so far: the [`ShardMetrics::router_classic_entries`] counter,
    /// exposed as `…_router_classic_entries_total`. Diagnostic: regression
    /// tests pin the migration-idle fast path to "zero new entries per op"
    /// through it (biased fast entries are not counted).
    pub fn router_section_entries(&self) -> u64 {
        self.metrics.router_classic_entries.get()
    }

    /// Total leaf nodes across every shard.
    pub fn leaf_count(&self) -> usize {
        self.shards.iter().map(Wormhole::leaf_count).sum()
    }

    /// Deferred-reclamation callbacks still queued across every shard.
    pub fn pending_reclamation(&self) -> usize {
        self.shards.iter().map(Wormhole::pending_reclamation).sum()
    }

    /// Validates every shard's structural invariants plus the partition
    /// invariant: each shard holds only keys inside its boundary range
    /// (tests only — walks every key; call it quiesced, not while a
    /// migration batch is mid-flight).
    pub fn check_invariants(&self) {
        let boundaries = self.boundaries();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.check_invariants();
            let lower = (i > 0).then(|| boundaries[i - 1].as_slice());
            let upper = boundaries.get(i).map(Vec::as_slice);
            let mut cursor = shard.scan(b"");
            while let Some((key, _)) = cursor.next() {
                if let Some(lower) = lower {
                    assert!(key >= lower, "shard {i} holds key below its lower boundary");
                }
                if let Some(upper) = upper {
                    assert!(
                        key < upper,
                        "shard {i} holds key at/above its upper boundary"
                    );
                }
            }
        }
    }
}

impl<V> Drop for ShardedWormhole<V> {
    fn drop(&mut self) {
        // Table retirements still aging run when `router_qsbr` drops, after
        // this body; each owns its table, never the live one freed here.
        // SAFETY: exclusively owned now.
        unsafe { drop(Box::from_raw(self.router.load(Ordering::Acquire))) };
    }
}

/// The cross-shard [`CursorSource`]: streams per-shard *segments* in
/// global key order, re-routing through the live boundaries whenever
/// the router epoch moves.
///
/// Each segment is the owning shard's native scan source
/// ([`Wormhole::scan_source`]); the position it fills from is the
/// cursor's. Every batch fill is one router section. It first
/// re-validates that the segment's routing decision is still current
/// (`segment.epoch == router.epoch`); a stale segment is dropped and the
/// cursor's position re-routed, which the live boundaries may now send to
/// a *different* shard — exactly what keeps the stream exhaustive when a
/// migration moves part of the unswept range to a neighbouring shard.
/// A shard with nothing left below its upper boundary hands the fill on:
/// its bound moves forward to that boundary and routes again, in the same
/// section. Because the migration engine drains a donor only after the
/// grace period that follows the boundary publication, a fill that
/// validated against the old epoch always completes against the donor's
/// still-authoritative copy; see the crate docs for the full argument.
///
/// In the steady state (no migration, segment mid-shard) a fill is: one
/// epoch compare and the shard source's native leaf-snapshot fill straight
/// into the outer arena — no allocation.
struct RoutedSource<'a, V: Clone + Send + Sync + 'static> {
    index: &'a ShardedWormhole<V>,
    segment: Option<Segment<'a, V>>,
}

/// One shard's scan source plus the routing decision it was opened under.
struct Segment<'a, V> {
    source: wormhole::concurrent::ScanSource<'a, V>,
    /// Router epoch of the table that routed this segment.
    epoch: u64,
    /// The shard the segment streams.
    shard: usize,
}

impl<V: Clone + Send + Sync + 'static> CursorSource<V> for RoutedSource<'_, V> {
    fn fill_next(&mut self, from: &[u8], batch: &mut ScanBatch<V>, take: Take) -> bool {
        let Self { index, segment } = self;
        // `with_router` gives fills the same biased fast entry as point ops
        // while no migration is in flight; the epoch re-validation below is
        // then a compare of two equal numbers.
        index.with_router(|router| {
            let mut bound = from;
            loop {
                let seg = match segment {
                    Some(seg) if seg.epoch == router.epoch => seg,
                    _ => {
                        let shard = router.route(bound);
                        segment.insert(Segment {
                            source: index.shards[shard].scan_source(),
                            epoch: router.epoch,
                            shard,
                        })
                    }
                };
                let upper = router.boundaries.get(seg.shard);
                if seg.source.fill_next(bound, batch, take) {
                    // Clamp the segment to its shard's upper boundary:
                    // keys at/above it that the shard source surfaced are
                    // a migration's in-flight copies, whose authoritative
                    // home is still the *donor* — streaming them here
                    // could let the position advance past copies that
                    // land behind the shard source's internal position,
                    // silently skipping them. The donor (or, after the
                    // boundary publishes, a re-routed segment) serves
                    // them instead.
                    if let Some(upper) = upper {
                        let keep = (0..batch.len())
                            .rfind(|&i| batch.key(i) < upper.as_slice())
                            .map_or(0, |i| i + 1);
                        batch.truncate(keep);
                    }
                    if !batch.is_empty() {
                        return true;
                    }
                }
                // Nothing below the shard's upper boundary: the last shard
                // ends the scan, any other hands on to the shard the
                // boundary (or a bound already past it) routes to, a later
                // one in this table.
                let Some(upper) = upper else {
                    return false;
                };
                bound = bound.max(upper.as_slice());
                *segment = None;
            }
        })
    }
}

impl<V: Clone + Send + Sync + 'static> ConcurrentOrderedIndex<V> for ShardedWormhole<V> {
    fn name(&self) -> &'static str {
        "wormhole-sharded"
    }

    fn get(&self, key: &[u8]) -> Option<V> {
        self.routed_read(key, |shard| shard.get(key))
    }

    /// Batched point lookups with one router critical-section entry for the
    /// whole batch: every key is routed once against a single table
    /// snapshot, the per-shard sub-batches run through each shard's
    /// pipelined `get_batch_into`, and results are scattered back to input
    /// order. The epoch entry/exit (two SeqCst stores plus a wake check per
    /// op on the per-key path) is paid once per batch instead of once per
    /// key.
    ///
    /// Routing and gathering work in groups of `GATHER_KEYS` (128) keys on the
    /// stack, and a shard appends its answers behind the batch's own slots
    /// in `out`, from where they move to their keys' positions: the call
    /// allocates nothing once `out` has the capacity.
    ///
    /// A migration freeze never affects this path: freezes pause *writes*
    /// only, and a frozen range keeps routing reads to the donor shard,
    /// whose copy stays authoritative until the boundary moves.
    fn get_batch_into(&self, keys: &[&[u8]], out: &mut Vec<Option<V>>) {
        let base = out.len();
        out.reserve(keys.len() + GATHER_KEYS.min(keys.len()));
        out.resize_with(base + keys.len(), || None);
        let scratch = out.len();
        self.with_router(|router| {
            let mut routes = [0usize; GATHER_KEYS];
            let mut sub_keys: [&[u8]; GATHER_KEYS] = [&[]; GATHER_KEYS];
            let mut sub_pos = [0usize; GATHER_KEYS];
            for (group, group_keys) in keys.chunks(GATHER_KEYS).enumerate() {
                let first = base + group * GATHER_KEYS;
                let routes = &mut routes[..group_keys.len()];
                for (route, key) in routes.iter_mut().zip(group_keys) {
                    *route = router.route(key);
                }
                for shard in 0..self.shards.len() {
                    let mut n = 0;
                    for (i, &route) in routes.iter().enumerate() {
                        if route == shard {
                            sub_keys[n] = group_keys[i];
                            sub_pos[n] = first + i;
                            n += 1;
                        }
                    }
                    if n == 0 {
                        continue;
                    }
                    // One counter bump per sub-batch; the rebalancer's load
                    // signal still counts individual ops.
                    self.ops[shard].add(n as u64);
                    self.shards[shard].get_batch_into(&sub_keys[..n], out);
                    debug_assert_eq!(out.len(), scratch + n);
                    for (j, &pos) in sub_pos[..n].iter().enumerate() {
                        out[pos] = out[scratch + j].take();
                    }
                    out.truncate(scratch);
                }
            }
        });
    }

    fn set(&self, key: &[u8], value: V) -> Option<V> {
        let mut value = Some(value);
        self.routed_write(key, |shard| {
            shard.set(
                key,
                value.take().expect("value handed to exactly one shard"),
            )
        })
    }

    fn del(&self, key: &[u8]) -> Option<V> {
        self.routed_write(key, |shard| shard.del(key))
    }

    /// Total keys. While a migration batch is between its copy and its
    /// donor drain, the moved batch is transiently counted in both shards
    /// (at most one batch's worth); the count is exact whenever no
    /// migration is mid-flight.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Opens a cross-shard streaming cursor: per-shard cursor segments
    /// chained in live boundary order (see the crate docs for the routed
    /// source protocol).
    ///
    /// [`Cursor::resume_key`] needs no shard awareness: the reported key
    /// (successor of the last consumed key) is a plain global key, and a
    /// fresh `scan(resume_key)` routes it through the boundaries *current
    /// at that time* — a scan therefore resumes correctly even across a
    /// migration that re-homed the resume position between the two scans.
    fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, V> {
        Cursor::new(
            start,
            Box::new(RoutedSource {
                index: self,
                segment: None,
            }),
        )
    }

    fn stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for shard in self.shards.iter() {
            let s = shard.stats();
            total.keys += s.keys;
            total.structure_bytes += s.structure_bytes;
            total.key_bytes += s.key_bytes;
            total.value_bytes += s.value_bytes;
        }
        // The router table is index structure too.
        total.structure_bytes +=
            self.with_router(|router| router.boundaries.iter().map(Vec::len).sum::<usize>());
        total
    }
}

/// Packs each shard from its slice of the sorted stream (the pairs below
/// its upper boundary), all recording into one shared [`WormholeMetrics`].
/// The boundaries are the configuration's: where a migration had moved
/// them is not part of what the index holds.
impl<V: Clone + Send + Sync + 'static> FromSorted<V> for ShardedWormhole<V> {
    type Config = ShardedConfig;

    fn from_sorted(config: ShardedConfig, pairs: impl IntoIterator<Item = (Vec<u8>, V)>) -> Self {
        let (boundaries, inner, rebalance) = config.into_parts();
        let wormhole_metrics = Arc::new(WormholeMetrics::default());
        let mut pairs = pairs.into_iter().peekable();
        let shards: Vec<Wormhole<V>> = (0..boundaries.len() + 1)
            .map(|i| {
                let upper = boundaries.get(i);
                let below_upper =
                    std::iter::from_fn(|| pairs.next_if(|(key, _)| upper.is_none_or(|b| key < b)));
                Wormhole::from_sorted_with_metrics(
                    inner,
                    Arc::clone(&wormhole_metrics),
                    below_upper,
                )
            })
            .collect();
        let ops: Vec<Counter> = (0..shards.len()).map(|_| Counter::new()).collect();
        let router = Box::into_raw(Box::new(RouterTable {
            epoch: 0,
            boundaries: boundaries.into_boxed_slice(),
            freeze: None,
        }));
        let router_qsbr = Qsbr::new();
        // The index is born migration-idle: fast entries allowed until
        // the first migration's draining barrier revokes them.
        router_qsbr.resume_bias();
        Self {
            shards: shards.into_boxed_slice(),
            router: AtomicPtr::new(router),
            router_qsbr,
            ops: ops.into_boxed_slice(),
            metrics: ShardMetrics::default(),
            wormhole_metrics,
            rebalance,
            migration: Mutex::new(MigrationState::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole::WormholeConfig;

    fn small() -> ShardedConfig {
        ShardedConfig::evenly(4).with_inner(WormholeConfig::optimized().with_leaf_capacity(8))
    }

    #[test]
    fn empty_index() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        assert_eq!(idx.shard_count(), 4);
        assert!(idx.is_empty());
        assert_eq!(idx.get(b"missing"), None);
        assert_eq!(idx.del(b"missing"), None);
        assert!(idx.range_from(b"", 10).is_empty());
        idx.check_invariants();
    }

    #[test]
    fn routing_respects_boundaries() {
        let idx: ShardedWormhole<u64> =
            ShardedWormhole::with_config(ShardedConfig::with_boundaries(vec![
                b"g".to_vec(),
                b"n".to_vec(),
                b"t".to_vec(),
            ]));
        assert_eq!(idx.shard_for(b""), 0);
        assert_eq!(idx.shard_for(b"f"), 0);
        assert_eq!(idx.shard_for(b"g"), 1, "boundary key belongs to the right");
        assert_eq!(idx.shard_for(b"mzzz"), 1);
        assert_eq!(idx.shard_for(b"n"), 2);
        assert_eq!(idx.shard_for(b"zzz"), 3);
        assert!(std::ptr::eq(idx.shard_of(b"f"), idx.shard(0)));
        assert!(std::ptr::eq(idx.shard_of(b"zzz"), idx.shard(3)));
    }

    #[test]
    fn route_batch_matches_per_key_routing_and_reports_epoch() {
        let idx: ShardedWormhole<u64> =
            ShardedWormhole::with_config(ShardedConfig::with_boundaries(vec![
                b"g".to_vec(),
                b"n".to_vec(),
                b"t".to_vec(),
            ]));
        let keys: Vec<&[u8]> = vec![b"", b"f", b"g", b"mzzz", b"n", b"szz", b"t", b"zzz"];
        let mut routes = Vec::new();
        let epoch = idx.route_batch(&keys, &mut routes);
        assert_eq!(routes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // Batch routing agrees with the per-key entry point key by key.
        let singles: Vec<usize> = keys.iter().map(|k| idx.shard_for(k)).collect();
        assert_eq!(routes, singles);
        assert_eq!(epoch, idx.router_epoch());
        // Appends rather than overwrites, so a dispatcher can reuse one
        // scratch vector across sub-batches.
        let extra = idx.route_batch(&[b"a"], &mut routes);
        assert_eq!(routes.len(), keys.len() + 1);
        assert_eq!(routes[keys.len()], 0);
        assert_eq!(extra, epoch, "no migration ran; epoch must be stable");
    }

    #[test]
    fn route_batch_epoch_moves_with_migration() {
        let idx: ShardedWormhole<u64> =
            ShardedWormhole::with_config(ShardedConfig::with_boundaries(vec![b"m".to_vec()]));
        for i in 0..600u64 {
            idx.set(format!("k{i:05}").as_bytes(), i);
        }
        let mut before = Vec::new();
        let epoch_before = idx.route_batch(&[b"k00001", b"zz"], &mut before);
        // Move the boundary: everything is below "m", so shifting it down
        // re-homes a slice of keys to shard 1.
        idx.migrate_boundary(0, b"k00300")
            .expect("migration succeeds");
        let mut after = Vec::new();
        let epoch_after = idx.route_batch(&[b"k00001", b"k00500"], &mut after);
        assert!(
            epoch_after > epoch_before,
            "boundary publication must bump the router epoch"
        );
        assert_eq!(after, vec![0, 1]);
        idx.check_invariants();
    }

    #[test]
    fn crud_routes_and_sums() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        for i in 0..2_000u64 {
            // First bytes spread over the whole byte space.
            let key = [(i % 256) as u8, (i / 256) as u8, i as u8];
            assert_eq!(idx.set(&key, i), None);
        }
        assert_eq!(idx.len(), 2_000);
        // All four shards actually hold data, and the op counters saw the
        // routed traffic.
        for s in 0..idx.shard_count() {
            assert!(idx.shard(s).len() > 0, "shard {s} empty");
        }
        assert_eq!(idx.op_counts().iter().sum::<u64>(), 2_000);
        for i in 0..2_000u64 {
            let key = [(i % 256) as u8, (i / 256) as u8, i as u8];
            assert_eq!(idx.get(&key), Some(i));
        }
        idx.check_invariants();
        for i in (0..2_000u64).step_by(2) {
            let key = [(i % 256) as u8, (i / 256) as u8, i as u8];
            assert_eq!(idx.del(&key), Some(i));
        }
        assert_eq!(idx.len(), 1_000);
        let stats = idx.stats();
        assert_eq!(stats.keys, 1_000);
        assert!(stats.structure_bytes > 0);
        assert_eq!(idx.op_counts().iter().sum::<u64>(), 5_000);
        idx.check_invariants();
    }

    #[test]
    fn cross_shard_scan_is_globally_ordered() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        for i in 0..1_500u64 {
            let key = format!("{:03}-{i:05}", i * 7 % 256);
            idx.set(key.as_bytes(), i);
        }
        let all = idx.range_from(b"", usize::MAX);
        assert_eq!(all.len(), 1_500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan unordered");
        // Windows starting inside every shard agree with the full drain.
        for start in [&b""[..], b"0", b"064", b"128", b"192", b"255", b"zzz"] {
            let want: Vec<_> = all
                .iter()
                .filter(|(k, _)| k.as_slice() >= start)
                .take(40)
                .cloned()
                .collect();
            assert_eq!(idx.range_from(start, 40), want, "start={start:?}");
        }
    }

    #[test]
    fn cursor_resume_crosses_shard_edges() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        for i in 0..256u64 {
            idx.set(&[i as u8, b'x'], i);
        }
        // Drain in windows of 10 through resume keys: every window lands on
        // or crosses shard edges at 64/128/192.
        let mut seen = Vec::new();
        let mut resume = Vec::new();
        loop {
            let mut cursor = idx.scan(&resume);
            let mut window = Vec::new();
            if cursor.collect_next(10, &mut window) == 0 {
                break;
            }
            resume = cursor.resume_key();
            seen.extend(window);
        }
        assert_eq!(seen.len(), 256);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(seen.first().unwrap().1, 0);
        assert_eq!(seen.last().unwrap().1, 255);
    }

    #[test]
    fn batched_gets_split_by_boundary_and_match_per_key_gets() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        for i in 0..2_000u64 {
            let key = [(i % 256) as u8, (i / 256) as u8, i as u8];
            idx.set(&key, i);
        }
        let ops_before: u64 = idx.op_counts().iter().sum();
        // A batch mixing hits across every shard, misses, and duplicates.
        let mut key_bytes: Vec<Vec<u8>> = (0..700u64)
            .map(|i| {
                let i = i * 3 % 2_100; // every third key is a miss
                vec![(i % 256) as u8, (i / 256) as u8, i as u8]
            })
            .collect();
        key_bytes.push(key_bytes[0].clone());
        key_bytes.push(b"not-anywhere".to_vec());
        let keys: Vec<&[u8]> = key_bytes.iter().map(|k| k.as_slice()).collect();
        let batched = idx.get_batch(&keys);
        assert_eq!(batched.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(batched[i], idx.get(key), "key {key:?}");
        }
        // The load signal counted every batched key exactly once (plus the
        // per-key verification gets just issued).
        let ops_after: u64 = idx.op_counts().iter().sum();
        assert_eq!(ops_after - ops_before, 2 * keys.len() as u64);
        // `get_batch_into` appends behind what the buffer holds and, given
        // room for the batch and one gather group, never moves the buffer.
        let mut out = Vec::with_capacity(1 + keys.len() + GATHER_KEYS);
        out.push(Some(u64::MAX));
        let storage = out.as_ptr();
        idx.get_batch_into(&keys, &mut out);
        assert_eq!(out[0], Some(u64::MAX));
        assert_eq!(out[1..], batched[..]);
        assert_eq!(out.as_ptr(), storage);
    }

    #[test]
    fn batch_spanning_frozen_range_reads_the_donor() {
        // A migration batch freezes writes to a sub-range while it copies;
        // reads — batched or not — must keep routing to the donor, whose
        // copy stays authoritative until the boundary actually moves.
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        for i in 0..1_000u64 {
            let key = [(i % 256) as u8, (i / 256) as u8, i as u8];
            idx.set(&key, i);
        }
        let boundaries = idx.boundaries().into_boxed_slice();
        // Freeze a range straddling the shard-1/shard-2 edge, as a
        // mid-migration publication would.
        let freeze = Some((vec![0x50u8], vec![0x90u8]));
        {
            let _migration = idx.migration.lock();
            idx.begin_router_mutation();
            idx.publish_router(boundaries, freeze);
            idx.end_router_mutation();
        }
        let key_bytes: Vec<Vec<u8>> = (0..1_050u64)
            .step_by(7)
            .map(|i| vec![(i % 256) as u8, (i / 256) as u8, i as u8])
            .collect();
        let keys: Vec<&[u8]> = key_bytes.iter().map(|k| k.as_slice()).collect();
        let batched = idx.get_batch(&keys);
        for (i, key) in keys.iter().enumerate() {
            let expect = (key[0] as u64) + (key[1] as u64) * 256;
            if expect < 1_000 {
                assert_eq!(batched[i], Some(expect), "frozen-range key {key:?} lost");
            } else {
                assert_eq!(batched[i], None, "phantom value for {key:?}");
            }
        }
        // Unfreeze (publish the same boundaries without a freeze window) and
        // confirm the batch is identical.
        let boundaries = idx.boundaries().into_boxed_slice();
        {
            let _migration = idx.migration.lock();
            idx.begin_router_mutation();
            idx.publish_router(boundaries, None);
            idx.end_router_mutation();
        }
        assert_eq!(idx.get_batch(&keys), batched);
    }

    #[test]
    fn telemetry_covers_router_paths_migrations_and_shard_loads() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        for i in 0..1_000u64 {
            let key = [(i % 256) as u8, (i / 256) as u8, i as u8];
            idx.set(&key, i);
            idx.get(&key);
        }
        // Migration idle: every routed op took the biased fast entry.
        let fast_before = idx.metrics().router_fast_entries.get();
        assert!(fast_before >= 2_000, "ops served fast ({fast_before})");
        assert_eq!(idx.metrics().router_classic_entries.get(), 0);
        // The rebalancer's load signal and the telemetry series are the
        // same cells.
        assert_eq!(idx.op_counts().iter().sum::<u64>(), 2_000);
        // The shards' shared WormholeMetrics saw the structural churn.
        assert!(idx.wormhole_metrics().splits.get() > 0);

        // A migration runs classic sections and counts its batches/keys.
        let report = idx.migrate_boundary(1, &[0x70]).expect("viable target");
        assert!(report.batches > 0);
        assert_eq!(idx.metrics().migration_batches.get(), report.batches as u64);
        assert_eq!(
            idx.metrics().migration_moved_keys.get(),
            report.moved_keys as u64
        );

        let registry = Registry::new();
        idx.register_metrics(&registry, "wh_shard");
        registry.lint().expect("names well-formed and unique");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("wh_shard_migration_batches_total"),
            report.batches as u64
        );
        let per_shard: u64 = (0..idx.shard_count())
            .map(|i| snap.counter(&format!("wh_shard_shard{i}_ops_total")))
            .sum();
        assert_eq!(per_shard, idx.op_counts().iter().sum::<u64>());
        let text = snap.render();
        assert!(text.contains("wh_shard_router_fast_entries_total"));
        assert!(text.contains("wh_shard_wormhole_splits_total"));
        assert!(text.contains("wh_shard_router_epoch_grace_wait_ns"));
    }

    #[test]
    fn ops_take_the_classic_path_while_the_bias_is_revoked() {
        // The classic critical-section entry in the one state production
        // reaches it: a migration holds the bias revoked. Every op must
        // stay correct there and count as a classic entry, never a fast one.
        use std::collections::BTreeMap;
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(small());
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let key_of = |i: u64| vec![(i * 37 % 256) as u8, (i / 7) as u8, i as u8];
        for i in 0..600u64 {
            model.insert(key_of(i), i);
            idx.set(&key_of(i), i);
        }
        let classic = || idx.metrics().router_classic_entries.get();
        let fast = || idx.metrics().router_fast_entries.get();
        assert_eq!(classic(), 0, "migration idle: no classic entries yet");

        let migration = idx.migration.lock();
        idx.begin_router_mutation();
        let fast_before = fast();
        let mut routed = 0u64;
        for i in 0..900u64 {
            let key = key_of(i);
            match i % 3 {
                0 => assert_eq!(idx.set(&key, i + 1_000), model.insert(key, i + 1_000)),
                1 => assert_eq!(idx.del(&key), model.remove(&key)),
                _ => assert_eq!(idx.get(&key), model.get(&key).copied()),
            }
            routed += 1;
        }
        let key_bytes: Vec<Vec<u8>> = (0..900u64).step_by(5).map(key_of).collect();
        let keys: Vec<&[u8]> = key_bytes.iter().map(Vec::as_slice).collect();
        let want: Vec<Option<u64>> = keys.iter().map(|k| model.get(*k).copied()).collect();
        assert_eq!(idx.get_batch(&keys), want);
        routed += 1; // one entry for the whole batch
        assert_eq!(classic(), routed, "one classic entry per routed op");

        // Scans enter once per fill, so only "some, all classic" is pinned.
        let want: Vec<(Vec<u8>, u64)> = model
            .range(vec![0x30u8]..)
            .take(250)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(idx.range_from(&[0x30], 250), want);
        let mut cursor = idx.scan(b"");
        let mut streamed = Vec::new();
        while let Some((key, value)) = cursor.next() {
            streamed.push((key.to_vec(), *value));
        }
        drop(cursor);
        assert!(streamed.iter().map(|(k, v)| (k, v)).eq(model.iter()));
        assert!(classic() > routed, "scan fills entered classic sections");
        assert_eq!(fast(), fast_before, "no fast entry while revoked");

        idx.end_router_mutation();
        drop(migration);
        let classic_after = classic();
        assert_eq!(idx.get(&key_of(2)), model.get(&key_of(2)).copied());
        assert_eq!(fast(), fast_before + 1, "fast entries resume with the bias");
        assert_eq!(classic(), classic_after);
        idx.check_invariants();
    }

    #[test]
    fn single_shard_degenerates_to_plain_wormhole() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::new(1);
        assert_eq!(idx.shard_count(), 1);
        assert!(idx.boundaries().is_empty());
        for i in 0..500u64 {
            idx.set(format!("k{i:04}").as_bytes(), i);
        }
        assert_eq!(idx.len(), 500);
        assert_eq!(idx.range_from(b"", usize::MAX).len(), 500);
        // One shard routes like any other front: every point op enters the
        // router and counts against the shard.
        let entered = |op: &dyn Fn()| {
            let (fast, ops) = (idx.metrics().router_fast_entries.get(), idx.op_counts()[0]);
            op();
            assert_eq!(idx.metrics().router_fast_entries.get(), fast + 1);
            assert!(idx.op_counts()[0] > ops);
        };
        entered(&|| assert_eq!(idx.get(b"k0007"), Some(7)));
        entered(&|| assert_eq!(idx.set(b"k0007", 70), Some(7)));
        entered(&|| assert_eq!(idx.del(b"k0007"), Some(70)));
        entered(&|| assert_eq!(idx.get_batch(&[b"k0008", b"k0007"]), [Some(8), None]));
        idx.check_invariants();
    }

    #[test]
    fn sampled_boundaries_balance_skewed_keys() {
        // All keys share a heavy prefix: even byte-splitting would put
        // everything in one shard, the sampled split balances it.
        let keys: Vec<Vec<u8>> = (0..4_000u32)
            .map(|i| format!("tenant-042/user-{i:05}").into_bytes())
            .collect();
        let idx: ShardedWormhole<u64> = ShardedWormhole::from_sample(4, &keys);
        assert_eq!(idx.shard_count(), 4);
        for (i, key) in keys.iter().enumerate() {
            idx.set(key, i as u64);
        }
        let max_shard = (0..4).map(|s| idx.shard(s).len()).max().unwrap();
        assert!(
            max_shard <= keys.len() / 2,
            "sampled boundaries failed to spread a skewed keyset (max shard {max_shard})"
        );
        idx.check_invariants();
    }
}
