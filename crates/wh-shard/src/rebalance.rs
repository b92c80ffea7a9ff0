//! Online shard rebalancing: background range migration between adjacent
//! shards.
//!
//! A [`crate::ShardedWormhole`]'s boundaries are chosen at construction;
//! under a workload whose hot range *shifts* (the Zipfian churn the
//! paper's evaluation highlights), a static partition degenerates — one
//! shard absorbs all writes and the front behaves like the unsharded
//! writer mutex it exists to remove. The machinery here moves a boundary
//! **while the index serves traffic**, without blocking readers or
//! writers outside the migrating range.
//!
//! # The migration protocol
//!
//! Moving the boundary between shards `pair` and `pair + 1` from `cur` to
//! `target` re-homes the half-open key range between them. The move runs
//! in **bounded batches** (at most [`RebalanceConfig::batch_keys`]-ish
//! keys each, planned from a one-pass cursor scan of the donor's range).
//!
//! Every publication goes through one guard, `crate::index::RouterWriter`.
//! Creating it executes a **draining barrier**
//! (`wh_epoch::Qsbr::drain_barrier`): it revokes the migration-idle bias
//! that lets point ops route *outside* any critical section, waits until
//! every in-flight biased fast section has exited, and forces a grace
//! period for classic sections. From then until the migration completes,
//! every point op re-enters in slow-path mode (classic critical
//! sections), so the per-batch grace periods below cover all of them; the
//! guard's drop restores the bias — and with it the fast path — when the
//! migration finishes (normally or by unwinding).
//!
//! Each batch then executes four steps against the epoch-published
//! router table (see `crate::index::RouterTable`):
//!
//! 1. **Freeze.** Publish a router with the batch's range marked
//!    write-frozen (boundaries unchanged) and wait out a grace period on
//!    the router's QSBR domain. Point ops route inside read-side critical
//!    sections of that domain, so after the grace period every write that
//!    routed *before* the freeze has finished: the batch range is now
//!    immutable in the donor. New writes to the
//!    range wait (bounded: one copy + one grace period); reads, and every
//!    op outside the range, proceed untouched.
//! 2. **Copy.** Stream the frozen range out of the donor through a
//!    [`index_traits::Cursor`] and insert each pair into the recipient.
//!    The copies are not yet reachable — the range still routes to the
//!    donor — so readers never observe a half-copied range.
//! 3. **Publish.** Swap in a router with the batch's new boundary (and no
//!    freeze), then wait out another grace period. From this epoch
//!    on, every op routes the range to the recipient; the grace period
//!    guarantees no in-flight read or scan batch is still resolving it
//!    against the donor.
//! 4. **Drain.** Remove the range from the donor with
//!    [`ConcurrentOrderedIndex::delete_range`]: one cursor feeding
//!    ordinary deletes, whose merges shrink the donor's structure as it
//!    empties. It runs after the publish, outside the freeze, so no write
//!    waits on it.
//!
//! A racing writer therefore lands in **exactly one shard**: before the
//! freeze it lands in the donor (and is copied in step 2); during the
//! freeze it waits; after the publish it routes to the recipient. A
//! cross-shard scan validates its segment's router epoch on every batch
//! fill and re-routes through the new boundaries when it moved
//! (`crate::index`'s `RoutedSource`), so cursors stay globally ordered
//! and resumable across a migration.
//!
//! Each publication waits for its grace period before it returns and
//! frees the table it replaced then: the copy and the drain need the
//! guarantee at once, so there is no later point to postpone the wait to.
//! If a copy panics, the guard's drop republishes the boundaries without
//! the freeze before it restores the bias, so an aborted migration never
//! leaves writers to its range waiting.
//!
//! # The rebalancer
//!
//! [`crate::ShardedWormhole::maybe_rebalance`] is the cheap policy entry
//! point, designed to be called periodically from any thread (a
//! background ticker, or piggybacked on maintenance work). It reads the
//! per-shard op counters, and when an adjacent pair's load ratio exceeds
//! [`RebalanceConfig::imbalance_percent`], picks a new boundary from a
//! stride sample of the hot shard's live keys (via the cursor API and
//! [`crate::config::sample_quantile`] — the same quantile machinery that
//! chooses construction-time boundaries) such that, assuming load is
//! uniform over the donor's keys, the pair's load equalises. One
//! migration runs at a time; concurrent callers see
//! [`RebalanceOutcome::Busy`].

use index_traits::ConcurrentOrderedIndex;

use crate::config::sample_quantile;
use crate::index::{RouterWriter, ShardedWormhole};

/// Policy knobs of [`ShardedWormhole::maybe_rebalance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Minimum point ops an adjacent pair must have absorbed since the
    /// last decision before it is considered (gates noise at low traffic).
    pub min_pair_ops: u64,
    /// Trigger threshold: the pair's hotter shard must carry more than
    /// `imbalance_percent / 100` times the cooler shard's ops (200 = 2×).
    pub imbalance_percent: u64,
    /// Approximate keys migrated per batch — the granularity at which
    /// writes to the migrating range are paused and the boundary advances.
    pub batch_keys: usize,
    /// Cap on the stride sample of donor keys used to pick the boundary.
    pub sample_cap: usize,
    /// Smallest key transfer worth a migration; imbalances whose computed
    /// move is smaller report [`RebalanceOutcome::NoMove`].
    pub min_move_keys: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            min_pair_ops: 8_192,
            imbalance_percent: 200,
            batch_keys: 256,
            sample_cap: 2_048,
            min_move_keys: 64,
        }
    }
}

/// Decision state guarded by the migration mutex: the op-counter snapshot
/// deltas are computed against.
#[derive(Debug, Default)]
pub(crate) struct MigrationState {
    pub(crate) last_ops: Vec<u64>,
}

/// What one completed migration did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// Index of the moved boundary (between shards `pair` and `pair + 1`).
    pub pair: usize,
    /// The shard that shed keys.
    pub donor: usize,
    /// Boundary before the migration.
    pub from_boundary: Vec<u8>,
    /// Boundary after the migration.
    pub to_boundary: Vec<u8>,
    /// Keys copied (and drained from the donor).
    pub moved_keys: usize,
    /// Batches executed (freeze/copy/publish/drain rounds).
    pub batches: usize,
}

/// Outcome of one [`ShardedWormhole::maybe_rebalance`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalanceOutcome {
    /// No adjacent pair was imbalanced enough (or traffic since the last
    /// decision was below [`RebalanceConfig::min_pair_ops`]).
    Balanced,
    /// Another thread is already migrating; nothing was done.
    Busy,
    /// Pair `pair` is imbalanced, but no viable boundary move exists
    /// (move too small, or the quantile landed on a degenerate boundary).
    NoMove {
        /// The imbalanced boundary index.
        pair: usize,
    },
    /// A migration ran to completion.
    Migrated(MigrationReport),
}

/// Why an explicit [`ShardedWormhole::migrate_boundary`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// `pair` does not name a boundary (`pair >= shard_count() - 1`).
    NoSuchBoundary {
        /// The rejected boundary index.
        pair: usize,
        /// The index's shard count.
        shards: usize,
    },
    /// The target key cannot serve as this boundary.
    InvalidTarget {
        /// What the target violated.
        reason: &'static str,
    },
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::NoSuchBoundary { pair, shards } => {
                write!(f, "no boundary {pair} in a {shards}-shard index")
            }
            MigrateError::InvalidTarget { reason } => {
                write!(f, "invalid boundary target: {reason}")
            }
        }
    }
}

impl std::error::Error for MigrateError {}

impl<V: Clone + Send + Sync + 'static> ShardedWormhole<V> {
    /// Checks the per-shard load counters and, when an adjacent pair is
    /// imbalanced, migrates the boundary between them toward balance.
    /// Cheap when there is nothing to do (one counter sweep); safe to call
    /// from any thread at any frequency. See the [module docs](self).
    pub fn maybe_rebalance(&self) -> RebalanceOutcome {
        let config = self.rebalance_config();
        let Some(mut state) = self.migration.try_lock() else {
            return RebalanceOutcome::Busy;
        };
        let counts = self.op_counts();
        if state.last_ops.len() != counts.len() {
            state.last_ops = vec![0; counts.len()];
        }
        let deltas: Vec<u64> = counts
            .iter()
            .zip(&state.last_ops)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        state.last_ops = counts;

        // The adjacent pair with the worst hot/(cold+1) load ratio above
        // the trigger threshold.
        let mut best: Option<(usize, u64, u64)> = None;
        for pair in 0..deltas.len().saturating_sub(1) {
            let (dl, dr) = (deltas[pair], deltas[pair + 1]);
            if dl + dr < config.min_pair_ops {
                continue;
            }
            let (hot, cold) = (dl.max(dr), dl.min(dr));
            if (hot as u128) * 100 < (config.imbalance_percent as u128) * (cold as u128 + 1) {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, bl, br)) => {
                    let (bh, bc) = (bl.max(br), bl.min(br));
                    (hot as u128) * (bc as u128 + 1) > (bh as u128) * (cold as u128 + 1)
                }
            };
            if better {
                best = Some((pair, dl, dr));
            }
        }
        let Some((pair, dl, dr)) = best else {
            return RebalanceOutcome::Balanced;
        };

        // Donor = the hotter shard. Shed enough keys that — assuming load
        // is uniform over the donor's keys — the pair's loads equalise:
        // w = K · (hot − cold) / (2 · hot).
        let donor = if dl >= dr { pair } else { pair + 1 };
        let (hot, cold) = (dl.max(dr), dl.min(dr));
        let donor_keys = self.shard(donor).len();
        if donor_keys == 0 || hot == 0 {
            return RebalanceOutcome::NoMove { pair };
        }
        let want_moved =
            ((donor_keys as u128) * ((hot - cold) as u128) / (2 * hot as u128)) as usize;
        if want_moved < config.min_move_keys {
            return RebalanceOutcome::NoMove { pair };
        }
        // New boundary = the donor key at the rank that sheds `want_moved`
        // keys: a left donor sheds its top, a right donor its bottom.
        let stride = donor_keys / config.sample_cap.max(1);
        let (sample, seen) = self.stride_sample(donor, b"", None, stride);
        if seen == 0 {
            return RebalanceOutcome::NoMove { pair };
        }
        let rank = if donor == pair {
            seen.saturating_sub(want_moved)
        } else {
            want_moved.min(seen.saturating_sub(1))
        };
        let Some(target) = sample_quantile(&sample, rank, seen).map(<[u8]>::to_vec) else {
            return RebalanceOutcome::NoMove { pair };
        };
        match self.migrate_locked(&state, pair, &target) {
            Ok(report) if report.batches == 0 && report.from_boundary == report.to_boundary => {
                // The quantile landed on the current boundary: nothing moved.
                RebalanceOutcome::NoMove { pair }
            }
            Ok(report) => RebalanceOutcome::Migrated(report),
            Err(_) => RebalanceOutcome::NoMove { pair },
        }
    }

    /// Migrates the boundary between shards `pair` and `pair + 1` to
    /// `target`, in batches, while the index serves traffic — the forced
    /// (policy-free) entry point; [`ShardedWormhole::maybe_rebalance`] is
    /// the counter-driven one. Blocks until the migration completes.
    ///
    /// `target` must be non-empty and strictly between the neighbouring
    /// boundaries; `target` equal to the current boundary is a no-op.
    pub fn migrate_boundary(
        &self,
        pair: usize,
        target: &[u8],
    ) -> Result<MigrationReport, MigrateError> {
        self.migrate_locked(&self.migration.lock(), pair, target)
    }

    /// The migration engine, run with the migration mutex held: `migration`
    /// is its state.
    fn migrate_locked(
        &self,
        migration: &MigrationState,
        pair: usize,
        target: &[u8],
    ) -> Result<MigrationReport, MigrateError> {
        let boundaries = self.boundaries();
        if pair >= boundaries.len() {
            return Err(MigrateError::NoSuchBoundary {
                pair,
                shards: self.shard_count(),
            });
        }
        if target.is_empty() {
            return Err(MigrateError::InvalidTarget {
                reason: "boundary keys must be non-empty",
            });
        }
        if pair > 0 && target <= boundaries[pair - 1].as_slice() {
            return Err(MigrateError::InvalidTarget {
                reason: "target at or below the left neighbour boundary",
            });
        }
        if pair + 1 < boundaries.len() && target >= boundaries[pair + 1].as_slice() {
            return Err(MigrateError::InvalidTarget {
                reason: "target at or above the right neighbour boundary",
            });
        }
        let cur = boundaries[pair].clone();
        let mut report = MigrationReport {
            pair,
            donor: pair,
            from_boundary: cur.clone(),
            to_boundary: target.to_vec(),
            moved_keys: 0,
            batches: 0,
        };
        if target == cur.as_slice() {
            // Explicit no-op: the boundary is already there.
            return Ok(report);
        }
        // Moving the boundary *down* sheds the left shard's top range to
        // the right shard; moving it *up* sheds the right shard's bottom
        // range to the left shard.
        let moving_down = target < cur.as_slice();
        let (donor, recipient) = if moving_down {
            (pair, pair + 1)
        } else {
            (pair + 1, pair)
        };
        report.donor = donor;
        let (range_lo, range_hi) = if moving_down {
            (target.to_vec(), cur.clone())
        } else {
            (cur.clone(), target.to_vec())
        };
        // Plan intermediate boundaries from one cursor pass over the
        // donor's migrating range (every `batch_keys`-th key strictly
        // inside it: the first is the range's own start). Concurrent
        // inserts make the batch sizes approximate, which is fine — the
        // copy step re-reads the live frozen range exactly.
        let batch_keys = self.rebalance_config().batch_keys;
        let (steps, _) = self.stride_sample(donor, &range_lo, Some(&range_hi), batch_keys);
        let mut schedule: Vec<Vec<u8>> = steps.into_iter().skip(1).collect();
        if moving_down {
            schedule.reverse();
        }
        schedule.push(target.to_vec());

        // Revoke and drain the biased fast path before the first
        // publication; restored (even on a panicking copy) when the
        // writer drops at the end of the migration.
        let mut router = RouterWriter::new(self, migration);

        let mut cur_now = cur;
        for next_boundary in schedule {
            if next_boundary == cur_now {
                continue;
            }
            let (freeze_lo, freeze_hi) = if moving_down {
                (next_boundary.clone(), cur_now.clone())
            } else {
                (cur_now.clone(), next_boundary.clone())
            };
            debug_assert!(freeze_lo < freeze_hi, "degenerate migration batch");

            // 1. Freeze writes to the batch range; after the grace period
            // every in-flight write that routed pre-freeze has landed. If
            // the copy below panics (a panicking `V::clone`, say), the
            // writer's drop lifts the freeze; copies already in the
            // recipient stay unreachable and are overwritten by any retried
            // migration.
            router.publish(Some((freeze_lo.clone(), freeze_hi.clone())));

            // 2. Copy the now-immutable range donor → recipient.
            {
                let mut cursor = self.shard(donor).scan(&freeze_lo);
                while let Some((key, value)) = cursor.next() {
                    if key >= freeze_hi.as_slice() {
                        break;
                    }
                    self.shard(recipient).set(key, value.clone());
                    report.moved_keys += 1;
                }
            }

            // 3. Publish the new boundary (and unfreeze); after the grace
            // period no reader still resolves the range against the donor.
            router.boundaries[pair] = next_boundary.clone();
            router.publish(None);

            // 4. Drain the donor's stale copy of the range; its deletes
            // shrink the structure through the ordinary merge engine.
            self.shard(donor).delete_range(&freeze_lo, &freeze_hi);

            cur_now = next_boundary;
            report.batches += 1;
            self.metrics().migration_batches.inc();
        }
        self.metrics()
            .migration_moved_keys
            .add(report.moved_keys as u64);
        Ok(report)
    }

    /// One cursor pass over shard `shard` from `lo` up to `hi` (or its
    /// end): every `n`-th key (every key for `n == 0`), starting with the
    /// first, and the number of keys seen. It picks the rebalancer's
    /// boundary sample and a migration's batch boundaries.
    fn stride_sample(
        &self,
        shard: usize,
        lo: &[u8],
        hi: Option<&[u8]>,
        n: usize,
    ) -> (Vec<Vec<u8>>, usize) {
        let n = n.max(1);
        let mut keys = Vec::new();
        let mut seen = 0usize;
        let mut cursor = self.shard(shard).scan(lo);
        while let Some((key, _)) = cursor.next() {
            if hi.is_some_and(|hi| key >= hi) {
                break;
            }
            if seen.is_multiple_of(n) {
                keys.push(key.to_vec());
            }
            seen += 1;
        }
        (keys, seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardedConfig;
    use wormhole::WormholeConfig;

    fn config() -> ShardedConfig {
        ShardedConfig::with_boundaries(vec![b"m".to_vec()])
            .with_inner(WormholeConfig::optimized().with_leaf_capacity(8))
            .with_rebalance(RebalanceConfig {
                min_pair_ops: 64,
                imbalance_percent: 200,
                batch_keys: 32,
                sample_cap: 512,
                min_move_keys: 8,
            })
    }

    fn populate(idx: &ShardedWormhole<u64>, prefix: &str, n: u64) {
        for i in 0..n {
            idx.set(format!("{prefix}{i:05}").as_bytes(), i);
        }
    }

    #[test]
    fn migrate_boundary_moves_keys_between_shards() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(config());
        populate(&idx, "a", 600); // shard 0
        populate(&idx, "z", 100); // shard 1
        assert_eq!(idx.shard(0).len(), 600);
        assert_eq!(idx.shard(1).len(), 100);

        // Move the boundary down into the middle of shard 0's keys.
        let report = idx.migrate_boundary(0, b"a00300").expect("viable target");
        assert_eq!(report.pair, 0);
        assert_eq!(report.donor, 0);
        assert_eq!(report.moved_keys, 300);
        assert!(report.batches >= 300 / 32, "batches respect batch_keys");
        assert_eq!(report.from_boundary, b"m".to_vec());
        assert_eq!(report.to_boundary, b"a00300".to_vec());
        assert_eq!(idx.boundaries(), vec![b"a00300".to_vec()]);
        assert_eq!(idx.shard(0).len(), 300);
        assert_eq!(idx.shard(1).len(), 400);
        assert_eq!(idx.len(), 700);
        idx.check_invariants();
        // Every key still reads back through the new routing.
        for i in 0..600u64 {
            assert_eq!(idx.get(format!("a{i:05}").as_bytes()), Some(i));
        }
        for i in 0..100u64 {
            assert_eq!(idx.get(format!("z{i:05}").as_bytes()), Some(i));
        }

        // Move it back up (right shard is now the donor).
        let report = idx.migrate_boundary(0, b"z00050").expect("viable target");
        assert_eq!(report.donor, 1);
        assert_eq!(report.moved_keys, 300 + 50);
        assert_eq!(idx.shard(0).len(), 650);
        assert_eq!(idx.shard(1).len(), 50);
        idx.check_invariants();
        let all = idx.range_from(b"", usize::MAX);
        assert_eq!(all.len(), 700);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn a_migration_shrinks_its_donor() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(config());
        populate(&idx, "a", 2_000); // shard 0
        let leaves_before = idx.shard(0).leaf_count();
        let report = idx.migrate_boundary(0, b"a00400").expect("viable target");
        assert!(report.moved_keys * 4 >= 2_000 * 3, "{}", report.moved_keys);
        assert_eq!(idx.shard(0).len(), 400);
        // The drain merges the emptied leaves away, not just their keys.
        assert!(
            idx.shard(0).leaf_count() < leaves_before / 2,
            "donor leaves {leaves_before} -> {}",
            idx.shard(0).leaf_count()
        );
        idx.check_invariants();
    }

    #[test]
    fn migrate_to_current_boundary_is_a_noop() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(config());
        populate(&idx, "a", 100);
        let report = idx.migrate_boundary(0, b"m").expect("no-op accepted");
        assert_eq!(report.batches, 0);
        assert_eq!(report.moved_keys, 0);
        assert_eq!(idx.boundaries(), vec![b"m".to_vec()]);
        idx.check_invariants();
    }

    #[test]
    fn migrate_into_and_out_of_an_empty_shard() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(config());
        populate(&idx, "a", 200); // shard 0 only; shard 1 stays empty
        assert_eq!(idx.shard(1).len(), 0);

        // Migration into the empty shard.
        idx.migrate_boundary(0, b"a00150").expect("into empty");
        assert_eq!(idx.shard(0).len(), 150);
        assert_eq!(idx.shard(1).len(), 50);
        idx.check_invariants();

        // Drain shard 0 almost entirely (donor keeps nothing but its
        // floor), then migrate *from* a now-nearly-empty donor range: the
        // range [a00000, a00001) of shard 0 — and finally from a range
        // holding no keys at all.
        idx.migrate_boundary(0, b"a00001")
            .expect("donor nearly empty");
        assert_eq!(idx.shard(0).len(), 1);
        assert_eq!(idx.shard(1).len(), 199);
        // Range ["", a00001) → ["", a00000): no keys below a00000 exist,
        // so this moves the boundary without moving any key.
        let report = idx.migrate_boundary(0, b"a00000").expect("empty range");
        assert_eq!(report.moved_keys, 1); // a00000 itself moves
        assert_eq!(idx.shard(0).len(), 0, "donor emptied");
        assert_eq!(idx.shard(1).len(), 200);
        idx.check_invariants();
        assert_eq!(idx.len(), 200);
        // An empty shard still serves routed ops.
        assert_eq!(idx.get(b"5"), None);
        idx.set(b"5zz", 7);
        assert_eq!(idx.shard(0).len(), 1);
        assert_eq!(idx.get(b"5zz"), Some(7));
    }

    #[test]
    fn migrate_rejects_degenerate_targets() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(
            ShardedConfig::with_boundaries(vec![b"g".to_vec(), b"t".to_vec()])
                .with_inner(WormholeConfig::optimized().with_leaf_capacity(8)),
        );
        assert!(matches!(
            idx.migrate_boundary(2, b"x"),
            Err(MigrateError::NoSuchBoundary { pair: 2, shards: 3 })
        ));
        assert!(matches!(
            idx.migrate_boundary(0, b""),
            Err(MigrateError::InvalidTarget { .. })
        ));
        // At or across the right neighbour boundary.
        assert!(matches!(
            idx.migrate_boundary(0, b"t"),
            Err(MigrateError::InvalidTarget { .. })
        ));
        assert!(matches!(
            idx.migrate_boundary(0, b"zz"),
            Err(MigrateError::InvalidTarget { .. })
        ));
        // At or across the left neighbour boundary.
        assert!(matches!(
            idx.migrate_boundary(1, b"g"),
            Err(MigrateError::InvalidTarget { .. })
        ));
        assert!(matches!(
            idx.migrate_boundary(1, b"a"),
            Err(MigrateError::InvalidTarget { .. })
        ));
        idx.check_invariants();
    }

    #[test]
    fn scan_resume_key_exactly_at_a_migrated_boundary() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(config());
        populate(&idx, "a", 300);
        // Consume up to just short of the future boundary, remember the
        // resume key, migrate so the boundary lands exactly on it, then
        // resume: the continuation must re-route to the new owner with no
        // loss or duplication.
        let mut first = Vec::new();
        let resume = {
            let mut cursor = idx.scan(b"");
            cursor.collect_next(150, &mut first);
            cursor.resume_key()
        };
        assert_eq!(resume, b"a00149\x00".to_vec());
        idx.migrate_boundary(0, &resume)
            .expect("boundary at resume key");
        assert_eq!(idx.shard_for(&resume), 1, "resume key re-homed");
        let mut rest = Vec::new();
        idx.scan(&resume).collect_next(usize::MAX, &mut rest);
        let mut all = first;
        all.extend(rest);
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        idx.check_invariants();
    }

    #[test]
    fn scan_open_across_a_migration_stays_exhaustive_and_ordered() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(config());
        populate(&idx, "a", 400);
        // Open a cursor, stream a prefix, migrate the region ahead of it,
        // then keep streaming the *same* cursor: the epoch re-validation
        // must re-route the remainder.
        let mut cursor = idx.scan(b"");
        let mut seen = Vec::new();
        cursor.collect_next(100, &mut seen);
        idx.migrate_boundary(0, b"a00200")
            .expect("migrate ahead of cursor");
        while let Some((k, v)) = cursor.next() {
            seen.push((k.to_vec(), *v));
        }
        assert_eq!(seen.len(), 400, "no key lost or duplicated across the move");
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        idx.check_invariants();
    }

    #[test]
    fn maybe_rebalance_reacts_to_skewed_load() {
        // min_pair_ops above the populate traffic (1 050 sets) but below
        // the hammer phase (4 000), so only the latter can trigger a move.
        let idx: ShardedWormhole<u64> =
            ShardedWormhole::with_config(config().with_rebalance(RebalanceConfig {
                min_pair_ops: 2_000,
                imbalance_percent: 200,
                batch_keys: 32,
                sample_cap: 512,
                min_move_keys: 8,
            }));
        populate(&idx, "a", 1_000); // all resident keys in shard 0
        populate(&idx, "z", 50);
        // Take one decision to reset the delta baseline; the populate
        // traffic alone is below min_pair_ops.
        assert_eq!(idx.maybe_rebalance(), RebalanceOutcome::Balanced);
        // Hammer shard 0 only.
        for round in 0..4u64 {
            for i in 0..1_000u64 {
                idx.set(format!("a{i:05}").as_bytes(), round);
            }
        }
        let outcome = idx.maybe_rebalance();
        let RebalanceOutcome::Migrated(report) = outcome else {
            panic!("expected a migration, got {outcome:?}");
        };
        assert_eq!(report.pair, 0);
        assert_eq!(report.donor, 0);
        assert!(
            report.moved_keys >= 300 && report.moved_keys <= 700,
            "roughly half the donor's keys move ({} moved)",
            report.moved_keys
        );
        idx.check_invariants();
        assert_eq!(idx.len(), 1_050);
        // Balanced traffic afterwards leaves the boundary alone.
        for i in 0..1_000u64 {
            idx.get(format!("a{i:05}").as_bytes());
        }
        // The moved range now routes to shard 1, so uniform traffic over
        // the former hot range is served by both shards.
        let counts = idx.op_counts();
        assert!(counts[1] > 0, "shard 1 now takes part of the hot range");
    }

    #[test]
    fn panicking_copy_unfreezes_the_range() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use wh_telemetry::{MetricValue, Registry};

        // A value whose clone of a clone panics on demand. The planning
        // scan clones each stored value once into its batch; the copy step
        // clones that batch value again, so arming the bomb aborts a
        // migration in its copy, after the batch range was frozen.
        #[derive(Debug)]
        struct Bomb {
            armed: Arc<AtomicBool>,
            cloned: bool,
        }
        impl Clone for Bomb {
            fn clone(&self) -> Self {
                assert!(
                    !(self.cloned && self.armed.load(Ordering::Relaxed)),
                    "armed bomb cloned twice"
                );
                Bomb {
                    armed: Arc::clone(&self.armed),
                    cloned: true,
                }
            }
        }

        let idx: ShardedWormhole<Bomb> = ShardedWormhole::with_config(config());
        let armed = Arc::new(AtomicBool::new(false));
        let bomb = || Bomb {
            armed: Arc::clone(&armed),
            cloned: false,
        };
        for i in 0..200u64 {
            idx.set(format!("a{i:05}").as_bytes(), bomb());
        }
        let registry = Registry::new();
        idx.register_metrics(&registry, "wh_shard");
        let epoch = idx.router_epoch();
        armed.store(true, Ordering::Relaxed);
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.migrate_boundary(0, b"a00100")
        }));
        assert!(aborted.is_err(), "armed migration must panic in its copy");
        // Two publications: the freeze, then the unwind's unfrozen
        // republish. Writes to the formerly frozen range complete instead
        // of spinning forever, routed ops take the fast entry again, and
        // no replaced table is left queued in the router's domain.
        assert_eq!(idx.router_epoch(), epoch + 2, "the copy step panicked");
        armed.store(false, Ordering::Relaxed);
        idx.set(b"a00150x", bomb());
        let fast = idx.metrics().router_fast_entries.get();
        assert!(idx.get(b"a00150x").is_some());
        assert_eq!(idx.metrics().router_fast_entries.get(), fast + 1);
        let snap = registry.snapshot();
        let depth = snap.get("wh_shard_router_epoch_deferred_depth");
        assert!(
            matches!(depth, Some(MetricValue::Gauge { value: 0, .. })),
            "deferred depth {depth:?}"
        );
        // A retried migration overwrites any unreachable partial copies
        // and leaves the index fully consistent.
        let report = idx.migrate_boundary(0, b"a00100").expect("retry succeeds");
        assert!(report.moved_keys >= 100);
        idx.check_invariants();
        assert_eq!(idx.len(), 201);
    }

    #[test]
    fn maybe_rebalance_is_quiet_without_traffic_or_imbalance() {
        let idx: ShardedWormhole<u64> = ShardedWormhole::with_config(config());
        assert_eq!(idx.maybe_rebalance(), RebalanceOutcome::Balanced);
        populate(&idx, "a", 100);
        populate(&idx, "z", 100);
        idx.maybe_rebalance(); // resets deltas
                               // Balanced traffic across both shards.
        for i in 0..200u64 {
            idx.get(format!("a{:05}", i % 100).as_bytes());
            idx.get(format!("z{:05}", i % 100).as_bytes());
        }
        assert_eq!(idx.maybe_rebalance(), RebalanceOutcome::Balanced);
        idx.check_invariants();
    }
}
