//! `DurableWormhole`: a concurrent ordered index — the bare [`Wormhole`]
//! by default, or any [`FromSorted`] index such as the sharded front —
//! with a write-ahead log and crash-consistent snapshots underneath it.
//!
//! The log sits *above* the index it wraps, so it records what the index
//! holds and nothing about how the index lays it out: a sharded front's
//! boundary migration moves keys between shards without changing any
//! key's value, so it logs nothing, and one log (one sequencer, one group
//! commit) covers every shard. A write whose key a migration batch has
//! frozen waits for that batch while it holds the sequencer: the stall is
//! bounded, and it cannot deadlock, because the freeze's grace period
//! waits only on router critical sections, never on the WAL's locks.
//!
//! # Directory layout
//!
//! ```text
//! <dir>/wal-<first_lsn>.log    append-only record segments
//! <dir>/snap-<covered>.snap    full-index snapshots
//! <dir>/*.tmp                  in-flight snapshot (never load-bearing)
//! <dir>/snapshot.spare         superseded snapshot the next one overwrites
//! ```
//!
//! File names zero-pad their LSN to twenty digits so lexical order is
//! numeric order.
//!
//! # Write path
//!
//! Every mutation is **logged before it is acknowledged**: the operation's
//! frame goes into the WAL's pending buffer and the in-memory index is
//! updated under the same sequencer lock (so WAL order equals apply order
//! for every key), then — under [`SyncPolicy::Always`] — the call group-
//! commits with its peers and returns only once a synced `Commit` frame
//! covers its LSN. [`SyncPolicy::Manual`] skips the per-op commit and
//! leaves the durability barrier to an explicit
//! [`wal_sync`](index_traits::DurableIndex::wal_sync) — the bulk-load
//! setting.
//!
//! Frames are written **in place**: header reserved, payload (the value
//! by [`DurableValue::encode_into`]) written behind it, length and CRC
//! patched in — a `set` or `del` allocates nothing but the buffer's growth.
//!
//! # Checkpoint protocol
//!
//! 1. **Rotate** the WAL: seal the current segment with a `Commit(S)` and
//!    start a new segment named `wal-<S+1>`. `S` becomes the snapshot's
//!    `covered_lsn`.
//! 2. **Fuzzy scan**: stream the whole index through a [`Cursor`] into a
//!    temp file (the spare, renamed, if there is one) while writers keep
//!    running. The scan may capture any subset of the operations racing
//!    it. Each batch is encoded into the [`snapshot::SnapshotWriter`]'s
//!    one 64 KiB chunk, CRC'd and written whole.
//! 3. **Commit through `S_end`** (the highest LSN assigned when the scan
//!    finished): every operation the scan *could* have captured is now
//!    durable in the WAL, so the snapshot never embeds a write that a
//!    crash could un-happen (prefix consistency).
//! 4. **Publish** by atomic rename + directory fsync, then collect what
//!    it supersedes: the oldest snapshot becomes the spare that step 2 of
//!    the next checkpoint overwrites (or is deleted if a spare exists), and
//!    every segment the retained snapshots cover is deleted.
//!
//! Replaying the WAL tail (all records with `lsn > covered_lsn`, in LSN
//! order) over the fuzzy image converges to the exact committed state:
//! every record is a state assignment, so re-applying an operation the
//! scan already captured is idempotent, and the ones it missed are
//! applied — see the recovery proof sketch in the crate docs.
//!
//! # Failure policy
//!
//! The [`ConcurrentOrderedIndex`] methods **panic** if the WAL cannot be
//! written or synced. After a failed fsync the kernel may have dropped
//! the very pages whose write failed while the in-memory index already
//! applied the operation — continuing would acknowledge writes that a
//! crash can silently revert (the "fsyncgate" failure mode). Callers that
//! want to handle storage errors use the `try_*` methods and decide for
//! themselves; the trait surface refuses to guess.
//!
//! Either way the first failed append or fsync **poisons** the log (see
//! [`crate::wal`]): every later commit, barrier and checkpoint errors, and
//! reopening the directory recovers exactly the acknowledged prefix.

use std::fs::{self, OpenOptions};
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use index_traits::{ConcurrentOrderedIndex, Cursor, DurableIndex, FromSorted, IndexStats};
use parking_lot::Mutex;
use wormhole::{Wormhole, WormholeConfig};

use crate::record::{self, replay_committed, WalRecord};
use crate::snapshot;
use crate::storage::{FileStorage, WalStorage};
use crate::telemetry::DurableMetrics;
use crate::value::DurableValue;
use crate::wal::Wal;

/// When an acknowledged operation becomes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every trait-level mutation group-commits before returning: once a
    /// call returns, its operation survives any crash. The default.
    Always,
    /// Mutations are logged but not committed; durability happens at the
    /// next explicit [`DurableIndex::wal_sync`] (or checkpoint). A crash
    /// loses every operation after the last barrier — the right trade for
    /// bulk loads and caches that tolerate bounded loss.
    Manual,
}

/// Tuning for a [`DurableWormhole`]; `C` is the configuration of the
/// index it logs ([`FromSorted::Config`]).
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions<C = WormholeConfig> {
    /// In-memory index configuration.
    pub config: C,
    /// When operations are made durable (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// [`DurableIndex::maybe_checkpoint`] triggers once the live WAL
    /// segment outgrows this many bytes.
    pub checkpoint_wal_bytes: u64,
}

impl<C: Default> Default for DurableOptions<C> {
    fn default() -> Self {
        Self {
            config: C::default(),
            sync: SyncPolicy::Always,
            checkpoint_wal_bytes: 8 << 20,
        }
    }
}

/// What [`DurableWormhole::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `covered_lsn` of the snapshot the index was rebuilt from (0 when
    /// recovery started from an empty image).
    pub snapshot_covered_lsn: u64,
    /// Records restored from that snapshot.
    pub snapshot_records: u64,
    /// Snapshot files rejected as corrupt before one validated.
    pub skipped_snapshots: usize,
    /// WAL segments read during replay.
    pub segments_scanned: usize,
    /// Committed operations (re)applied from the WAL tail.
    pub replayed_operations: u64,
    /// Highest committed LSN — the recovered state is exactly the
    /// operations with `lsn <=` this value.
    pub committed_lsn: u64,
    /// Bytes cut from the last segment's torn/uncommitted tail.
    pub truncated_bytes: u64,
}

fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.log"))
}

/// WAL segments in `dir`, ascending by first LSN (parsed from the name).
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let first_lsn = name
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse::<u64>()
                .ok()?;
            Some((first_lsn, path))
        })
        .collect();
    segments.sort();
    Ok(segments)
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("recovery: {msg}"))
}

/// A crash-durable concurrent index, [`Wormhole`] unless `I` names
/// another (see the [module docs](self) for the write path, checkpoint
/// protocol, and failure policy).
pub struct DurableWormhole<V: DurableValue, I = Wormhole<V>> {
    index: I,
    wal: Wal,
    dir: PathBuf,
    sync: SyncPolicy,
    checkpoint_wal_bytes: u64,
    /// Serialises checkpoints; `maybe_checkpoint` try-locks it so policy
    /// ticks never pile up behind a running checkpoint.
    checkpoint_lock: Mutex<()>,
    recovery: RecoveryReport,
    /// What `index` holds.
    values: PhantomData<V>,
}

impl<V, I> DurableWormhole<V, I>
where
    V: DurableValue,
    I: ConcurrentOrderedIndex<V> + FromSorted<V>,
{
    /// Opens (or creates) the index persisted in `dir` with default
    /// options: newest valid snapshot + committed WAL tail, exactly the
    /// acknowledged state.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self>
    where
        I::Config: Default,
    {
        Self::open_with(dir, DurableOptions::default())
    }

    /// [`DurableWormhole::open`] with explicit options. The index is
    /// rebuilt with `options.config`, whatever its shape was before the
    /// drop (a sharded front starts again from the configured boundaries).
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: DurableOptions<I::Config>,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut report = RecoveryReport::default();

        // A leftover `.tmp` is an unpublished snapshot: by the publish
        // ordering it was never load-bearing, so its blocks are free to
        // become the spare.
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                snapshot::retire(&path)?;
            }
        }

        // Newest snapshot that validates end to end wins; corrupt ones
        // (torn by a crash mid-publish on a non-atomic filesystem, or
        // bit-rotted) are skipped, falling back to older images plus a
        // longer WAL replay.
        let mut base: Option<snapshot::SnapshotData> = None;
        for snap in snapshot::list_snapshots(&dir)? {
            match snapshot::load_snapshot(&snap) {
                Ok(data) => {
                    base = Some(data);
                    break;
                }
                Err(_) => report.skipped_snapshots += 1,
            }
        }
        let covered = base.as_ref().map_or(0, |snap| snap.covered_lsn);
        report.snapshot_covered_lsn = covered;

        // Rebuild the in-memory index from the snapshot's ordered record
        // stream — leaves are packed directly and the MetaTrieHT is
        // derived from them (`from_sorted`), the paper's observation that
        // only the leaf list needs to be durable.
        let DurableOptions {
            config,
            sync,
            checkpoint_wal_bytes,
        } = options;
        let index = match base {
            Some(snap) => {
                report.snapshot_records = snap.count;
                let mut undecodable = false;
                let pairs = snap.records().map_while(|(key, value)| {
                    let value = V::decode(value);
                    undecodable |= value.is_none();
                    Some((key.to_vec(), value?))
                });
                let index = I::from_sorted(config, pairs);
                if undecodable {
                    return Err(corrupt("undecodable snapshot value"));
                }
                index
            }
            None => I::from_sorted(config, std::iter::empty()),
        };

        // Replay the committed prefix of every segment, oldest first,
        // skipping operations the snapshot already covers.
        let segments = list_segments(&dir)?;
        report.segments_scanned = segments.len();
        let mut committed_max = covered;
        let mut decode_failure = false;
        for (i, (_, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path)?;
            let (valid_end, seg_committed, _) = replay_committed(&bytes, |rec| {
                if rec.lsn() <= covered {
                    return;
                }
                match rec {
                    WalRecord::Put { key, value, .. } => match V::decode(value) {
                        Some(value) => {
                            index.set(key, value);
                        }
                        None => decode_failure = true,
                    },
                    WalRecord::Delete { key, .. } => {
                        index.del(key);
                    }
                    WalRecord::DeleteRange { lo, hi, .. } => {
                        index.delete_range(lo, hi);
                    }
                    WalRecord::Commit { .. } => unreachable!("commits are not applied"),
                }
                report.replayed_operations += 1;
            });
            committed_max = committed_max.max(seg_committed);
            // Only the newest segment can carry a torn or uncommitted
            // tail (rotation seals every older one): cut it off so the
            // log ends at the last committed frame before appending.
            if i == segments.len() - 1 && (valid_end as u64) < bytes.len() as u64 {
                report.truncated_bytes = bytes.len() as u64 - valid_end as u64;
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(valid_end as u64)?;
                file.sync_all()?;
            }
        }
        if decode_failure {
            return Err(corrupt("undecodable value in a committed WAL record"));
        }
        report.committed_lsn = committed_max;

        let next_lsn = committed_max + 1;
        let storage: Box<dyn WalStorage> = match segments.last() {
            Some((_, path)) => Box::new(FileStorage::open(path)?),
            None => {
                let storage = FileStorage::open(&segment_path(&dir, next_lsn))?;
                snapshot::sync_dir(&dir)?;
                Box::new(storage)
            }
        };
        Ok(Self {
            index,
            wal: Wal::new(storage, next_lsn),
            dir,
            sync,
            checkpoint_wal_bytes,
            checkpoint_lock: Mutex::new(()),
            recovery: report,
            values: PhantomData,
        })
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The in-memory index, for reads and maintenance: a sharded front's
    /// `maybe_rebalance`, its metrics and shard handles.
    ///
    /// A **write through it bypasses the log**: it is neither recovered
    /// after a crash nor ordered with the logged writes. Mutate through
    /// the durable front; a migration is safe here because it moves keys
    /// without changing what the index holds.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The persistence directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Storage sync barriers performed since open (group commit makes
    /// this far smaller than the operation count under concurrency).
    /// Reads the same telemetry cell as [`DurableMetrics::fsyncs`].
    pub fn sync_count(&self) -> u64 {
        self.wal.sync_count()
    }

    /// The durability metrics (fsync count/latency, group-commit batch
    /// factor, WAL bytes, checkpoint durations).
    pub fn metrics(&self) -> &DurableMetrics {
        self.wal.metrics()
    }

    /// Registers the durability metrics into `registry` under
    /// `<prefix>_…` names (prefix must match `[a-z0-9_]+`).
    pub fn register_metrics(&self, registry: &wh_telemetry::Registry, prefix: &str) {
        self.metrics().register_into(registry, prefix);
    }

    /// Logs, applies, and (under [`SyncPolicy::Always`]) commits an
    /// insert/overwrite. The fallible form of
    /// [`ConcurrentOrderedIndex::set`].
    pub fn try_set(&self, key: &[u8], value: V) -> io::Result<Option<V>> {
        let (lsn, old) = self.wal.log_then(|buf, lsn| {
            record::encode_put_with(buf, lsn, key, |out| value.encode_into(out));
            || self.index.set(key, value)
        });
        self.commit_policy(lsn)?;
        Ok(old)
    }

    /// Fallible [`ConcurrentOrderedIndex::del`].
    pub fn try_del(&self, key: &[u8]) -> io::Result<Option<V>> {
        let (lsn, old) = self.wal.log(
            |buf, lsn| record::encode_delete(buf, lsn, key),
            || self.index.del(key),
        );
        self.commit_policy(lsn)?;
        Ok(old)
    }

    /// Fallible [`ConcurrentOrderedIndex::delete_range`]. The whole range
    /// removal is one WAL record, so replay re-executes it as a unit.
    pub fn try_delete_range(&self, lo: &[u8], hi: &[u8]) -> io::Result<usize> {
        let (lsn, removed) = self.wal.log(
            |buf, lsn| record::encode_delete_range(buf, lsn, lo, hi),
            || self.index.delete_range(lo, hi),
        );
        self.commit_policy(lsn)?;
        Ok(removed)
    }

    fn commit_policy(&self, lsn: u64) -> io::Result<()> {
        match self.sync {
            SyncPolicy::Always => self.wal.commit(lsn).map(|_| ()),
            SyncPolicy::Manual => Ok(()),
        }
    }

    fn checkpoint_locked(&self) -> io::Result<u64> {
        let timing = wh_telemetry::start_timing();
        // 1. Rotate: seal the live segment; the snapshot will cover
        //    exactly the sealed prefix, and every racing operation lands
        //    in the new segment (named after its first LSN).
        let covered = self.wal.rotate_with(|sealed| {
            let storage = FileStorage::open(&segment_path(&self.dir, sealed + 1))?;
            snapshot::sync_dir(&self.dir)?;
            Ok(Box::new(storage) as Box<dyn WalStorage>)
        })?;

        // 2. Fuzzy scan into the temp file — writers keep running.
        let final_path = snapshot::snapshot_path(&self.dir, covered);
        let mut writer = snapshot::SnapshotWriter::create(&final_path, covered)?;
        let mut cursor = self.index.scan(b"");
        while let Some(batch) = cursor.next_batch() {
            for (key, value) in batch.iter() {
                writer.push(key, |out| value.encode_into(out))?;
            }
        }
        drop(cursor);
        writer.finish()?;

        // 3. Make the WAL durable through everything the scan could have
        //    observed, BEFORE the snapshot becomes load-bearing: a fuzzy
        //    image may embed a racing write, and that write must not be
        //    revocable by a crash once the snapshot is published.
        let scan_end = self.wal.last_assigned_lsn();
        self.wal.commit(scan_end)?;

        // 4. Publish (rename + dir fsync), then GC what it superseded.
        snapshot::publish_snapshot(&final_path)?;
        self.collect_garbage()?;
        self.metrics().checkpoint_ns.record_elapsed(timing);
        Ok(covered)
    }

    /// Prunes what the new snapshot supersedes, keeping one generation of
    /// redundancy: the two newest snapshots survive (an older one becomes
    /// the spare, [`snapshot::retire`]), and a WAL segment is
    /// deleted only when the *older* retained snapshot covers it (its
    /// successor segment starts at or below that snapshot's
    /// `covered + 1`). If the newest snapshot is later found corrupt,
    /// recovery still has the older image plus every segment since it.
    fn collect_garbage(&self) -> io::Result<()> {
        const RETAIN_SNAPSHOTS: usize = 2;
        let snaps = snapshot::list_snapshots(&self.dir)?;
        for snap in snaps.iter().skip(RETAIN_SNAPSHOTS) {
            snapshot::retire(snap)?;
        }
        let retained = &snaps[..snaps.len().min(RETAIN_SNAPSHOTS)];
        let Some(floor) = retained
            .last()
            .and_then(|oldest| snapshot::covered_lsn_of(oldest))
        else {
            return snapshot::sync_dir(&self.dir);
        };
        let segments = list_segments(&self.dir)?;
        for pair in segments.windows(2) {
            if pair[1].0 <= floor + 1 {
                fs::remove_file(&pair[0].1)?;
            }
        }
        snapshot::sync_dir(&self.dir)
    }
}

impl<V, I> ConcurrentOrderedIndex<V> for DurableWormhole<V, I>
where
    V: DurableValue,
    I: ConcurrentOrderedIndex<V> + FromSorted<V>,
{
    fn name(&self) -> &'static str {
        "wormhole-durable"
    }

    fn get(&self, key: &[u8]) -> Option<V> {
        self.index.get(key)
    }

    /// Panics if the operation cannot be made durable — see the module
    /// docs' failure policy.
    fn set(&self, key: &[u8], value: V) -> Option<V> {
        self.try_set(key, value)
            .unwrap_or_else(|e| panic!("wh-durable: set could not be made durable: {e}"))
    }

    /// Panics if the operation cannot be made durable — see the module
    /// docs' failure policy.
    fn del(&self, key: &[u8]) -> Option<V> {
        self.try_del(key)
            .unwrap_or_else(|e| panic!("wh-durable: del could not be made durable: {e}"))
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// Panics if the operation cannot be made durable — see the module
    /// docs' failure policy.
    fn delete_range(&self, lo: &[u8], hi: &[u8]) -> usize {
        self.try_delete_range(lo, hi)
            .unwrap_or_else(|e| panic!("wh-durable: delete_range could not be made durable: {e}"))
    }

    fn scan<'a>(&'a self, start: &[u8]) -> Cursor<'a, V> {
        self.index.scan(start)
    }

    fn stats(&self) -> IndexStats {
        self.index.stats()
    }
}

impl<V, I> DurableIndex<V> for DurableWormhole<V, I>
where
    V: DurableValue,
    I: ConcurrentOrderedIndex<V> + FromSorted<V>,
{
    fn wal_sync(&self) -> io::Result<u64> {
        self.wal.sync_all()
    }

    fn durable_watermark(&self) -> u64 {
        self.wal.durable_lsn()
    }

    fn checkpoint(&self) -> io::Result<u64> {
        let _guard = self.checkpoint_lock.lock();
        self.checkpoint_locked()
    }

    fn maybe_checkpoint(&self) -> io::Result<Option<u64>> {
        if self.wal.current_segment_len() < self.checkpoint_wal_bytes {
            return Ok(None);
        }
        match self.checkpoint_lock.try_lock() {
            Some(_guard) => self.checkpoint_locked().map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wh-durable-idx-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> DurableOptions {
        DurableOptions {
            config: WormholeConfig::optimized().with_leaf_capacity(8),
            ..DurableOptions::default()
        }
    }

    #[test]
    fn telemetry_tracks_fsyncs_wal_bytes_and_checkpoints() {
        let dir = test_dir("telemetry");
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        for i in 0..100u64 {
            idx.set(format!("t-{i:04}").as_bytes(), i);
        }
        let m = idx.metrics();
        // Under SyncPolicy::Always each single-threaded set leads its own
        // commit: the fsync counter is the same cell `sync_count` reads,
        // and every batch sealed exactly one op.
        assert_eq!(m.fsyncs.get(), idx.sync_count());
        assert_eq!(m.fsyncs.get(), 100);
        assert!(m.wal_bytes.get() > 0);
        // Histograms vanish under `telemetry-off` / runtime disable;
        // counters above stay live regardless.
        if wh_telemetry::enabled() {
            let batches = m.commit_batch_ops.snapshot();
            assert_eq!(batches.count(), 100);
            assert_eq!(batches.sum, 100);
            assert_eq!(m.fsync_ns.snapshot().count(), 100);
        }

        assert_eq!(m.checkpoint_ns.snapshot().count(), 0);
        idx.checkpoint().unwrap();
        let expected_checkpoints = if wh_telemetry::enabled() { 1 } else { 0 };
        assert_eq!(m.checkpoint_ns.snapshot().count(), expected_checkpoints);

        let registry = wh_telemetry::Registry::new();
        idx.register_metrics(&registry, "wh_durable");
        registry.lint().expect("names well-formed and unique");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wh_durable_fsyncs_total"), idx.sync_count());
        if wh_telemetry::enabled() {
            assert!(snap.render().contains("wh_durable_fsync_ns_bucket"));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_set_reopen_recovers_everything() {
        let dir = test_dir("reopen");
        {
            let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for i in 0..500u64 {
                idx.set(format!("key-{i:04}").as_bytes(), i);
            }
            idx.del(b"key-0123");
            idx.delete_range(b"key-0200", b"key-0300");
            assert_eq!(idx.len(), 399);
        } // dropped without checkpoint: recovery is pure WAL replay
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.len(), 399);
        assert_eq!(idx.get(b"key-0000"), Some(0));
        assert_eq!(idx.get(b"key-0123"), None);
        assert_eq!(idx.get(b"key-0250"), None);
        assert_eq!(idx.get(b"key-0300"), Some(300));
        assert_eq!(idx.recovery().replayed_operations, 502);
        assert_eq!(idx.recovery().snapshot_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_prunes_wal_and_reopen_uses_snapshot() {
        let dir = test_dir("checkpoint");
        {
            let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for i in 0..300u64 {
                idx.set(format!("ck-{i:04}").as_bytes(), i);
            }
            let covered = idx.checkpoint().unwrap();
            assert_eq!(covered, 300);
            // Post-checkpoint writes live only in the WAL tail.
            for i in 300..350u64 {
                idx.set(format!("ck-{i:04}").as_bytes(), i);
            }
            // The pre-checkpoint segment is gone, the covered snapshot is
            // the only one.
            assert_eq!(list_segments(&dir).unwrap().len(), 1);
            assert_eq!(snapshot::list_snapshots(&dir).unwrap().len(), 1);
        }
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.len(), 350);
        assert_eq!(idx.recovery().snapshot_records, 300);
        assert_eq!(idx.recovery().replayed_operations, 50);
        for i in 0..350u64 {
            assert_eq!(idx.get(format!("ck-{i:04}").as_bytes()), Some(i));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoints `values` under keys `k00`, `k01`, ... and reopens from
    /// the snapshot alone.
    fn snapshot_roundtrip(tag: &str, values: &[Vec<u8>]) {
        let dir = test_dir(tag);
        {
            let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for (i, value) in values.iter().enumerate() {
                idx.set(format!("k{i:02}").as_bytes(), value.clone());
            }
            idx.checkpoint().unwrap();
        }
        let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(
            idx.recovery().snapshot_records,
            values.len() as u64,
            "{tag}"
        );
        assert_eq!(idx.recovery().replayed_operations, 0, "{tag}");
        assert_eq!(idx.len(), values.len(), "{tag}");
        for (i, value) in values.iter().enumerate() {
            let got = idx.get(format!("k{i:02}").as_bytes());
            assert_eq!(got.as_ref(), Some(value), "{tag}: k{i:02}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_values_of_every_size_round_trip() {
        const CHUNK: usize = 64 << 10;
        snapshot_roundtrip("empty", &[Vec::new(), Vec::new(), Vec::new()]);
        snapshot_roundtrip("chunk", &[vec![0xA5; CHUNK]]);
        snapshot_roundtrip("over", &[vec![1; 10], vec![2; 3 * CHUNK + 7], vec![3; 10]]);
        // The first record (`k00`, 11 bytes of framing after the 16-byte
        // header) ends at, one short of, and one past each of a chunk's
        // plausible flush points; the next records start a fresh chunk.
        for end in [CHUNK - (4 << 10), CHUNK, 2 * CHUNK] {
            for delta in [-1isize, 0, 1] {
                let len = (end as isize + delta) as usize - 16 - 11;
                let values = [vec![7; len], Vec::new(), vec![9; 100]];
                snapshot_roundtrip(&format!("edge-{end}{delta:+}"), &values);
            }
        }
    }

    #[test]
    fn checkpoint_under_concurrent_writers_loses_nothing() {
        let dir = test_dir("fuzzy");
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for w in 0..3u64 {
                let idx = &idx;
                let stop = &stop;
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        idx.set(format!("w{w}-{i:05}").as_bytes(), i);
                        if i > 0 && i.is_multiple_of(7) {
                            idx.del(format!("w{w}-{:05}", i - 1).as_bytes());
                        }
                        i += 1;
                    }
                });
            }
            let idx = &idx;
            let stop = &stop;
            scope.spawn(move || {
                for _ in 0..5 {
                    idx.checkpoint().unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        let expected: Vec<(Vec<u8>, u64)> = idx.range_from(b"", usize::MAX);
        drop(idx);
        let reopened: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(reopened.range_from(b"", usize::MAX), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn maybe_checkpoint_honors_the_byte_threshold() {
        let dir = test_dir("maybe");
        let options = DurableOptions {
            checkpoint_wal_bytes: 2_000,
            ..tiny()
        };
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, options).unwrap();
        assert_eq!(idx.maybe_checkpoint().unwrap(), None, "empty log: no-op");
        for i in 0..200u64 {
            idx.set(format!("mc-{i:04}").as_bytes(), i);
        }
        assert!(idx.maybe_checkpoint().unwrap().is_some(), "log over budget");
        assert_eq!(idx.maybe_checkpoint().unwrap(), None, "fresh segment again");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manual_sync_policy_defers_durability_to_the_barrier() {
        let dir = test_dir("manual");
        let options = DurableOptions {
            sync: SyncPolicy::Manual,
            ..tiny()
        };
        {
            let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, options).unwrap();
            for i in 0..100u64 {
                idx.set(format!("m-{i:03}").as_bytes(), i);
            }
            assert_eq!(idx.durable_watermark(), 0, "nothing committed yet");
            assert_eq!(idx.wal_sync().unwrap(), 100);
            assert_eq!(idx.durable_watermark(), 100);
            for i in 100..150u64 {
                idx.set(format!("m-{i:03}").as_bytes(), i);
            }
            // The tail after the barrier is logged but uncommitted; a
            // crash (simulated by dropping without sync) discards it.
        }
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, options).unwrap();
        assert_eq!(idx.len(), 100, "unsynced tail must not survive");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoint `k` turns snapshot `k - 2` into the spare, so from the
    /// fourth checkpoint on each one writes into the file its predecessor
    /// superseded, and the directory never holds more than two snapshots
    /// plus the spare.
    #[cfg(unix)]
    #[test]
    fn checkpoints_write_into_the_superseded_snapshot_file() {
        use std::os::unix::fs::MetadataExt;
        let dir = test_dir("reuse");
        let ino = |path: &Path| fs::metadata(path).unwrap().ino();
        let spare = dir.join(snapshot::SPARE);
        let mut published = Vec::new();
        {
            let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for round in 0..10u64 {
                for i in 0..200u64 {
                    idx.set(format!("r-{:03}", (round * 37 + i) % 300).as_bytes(), round);
                }
                let spare_ino = spare.exists().then(|| ino(&spare));
                assert_eq!(spare_ino.is_some(), round >= 3, "round {round}");
                let covered = idx.checkpoint().unwrap();
                let newest = ino(&snapshot::snapshot_path(&dir, covered));
                if let Some(spare_ino) = spare_ino {
                    assert_eq!(newest, spare_ino, "round {round}");
                    assert_eq!(newest, published[round as usize - 3], "round {round}");
                }
                published.push(newest);
            }
        }
        let mut kept: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| !name.starts_with("wal-"))
            .collect();
        kept.sort();
        assert_eq!(kept.len(), 3, "{kept:?}");
        assert_eq!(kept[2], snapshot::SPARE);
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.recovery().skipped_snapshots, 0);
        assert_eq!(idx.len(), 300);
        assert_eq!(idx.get(b"r-100"), Some(9));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_small_image_over_a_larger_spare_has_its_own_length() {
        let dir = test_dir("shrink");
        {
            let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for round in 0..3 {
                for i in 0..200u64 {
                    idx.set(format!("s-{i:03}").as_bytes(), vec![i as u8 + round; 100]);
                }
                idx.checkpoint().unwrap();
            }
            let spare_len = fs::metadata(dir.join(snapshot::SPARE)).unwrap().len();
            idx.delete_range(b"s-001", b"s-200");
            let covered = idx.checkpoint().unwrap();
            let len = fs::metadata(snapshot::snapshot_path(&dir, covered))
                .unwrap()
                .len();
            // Header, one record ("s-000" -> 100 bytes), count and CRC.
            assert_eq!(len, 16 + (4 + 5 + 4 + 100) + 12);
            assert!(spare_len > 200 * 100, "the spare held the full image");
        }
        let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.recovery().snapshot_records, 1);
        assert_eq!(idx.recovery().replayed_operations, 0);
        assert_eq!(
            idx.range_from(b"", usize::MAX),
            [(b"s-000".to_vec(), vec![2; 100])]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_image_plus_wal() {
        let dir = test_dir("fallback");
        {
            let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for i in 0..50u64 {
                idx.set(format!("fb-{i:03}").as_bytes(), i);
            }
            idx.checkpoint().unwrap();
            for i in 50..80u64 {
                idx.set(format!("fb-{i:03}").as_bytes(), i);
            }
            idx.checkpoint().unwrap();
        }
        // Both snapshots are retained (one generation of redundancy), and
        // segment pruning is keyed to the OLDER one, so corrupting the
        // newest snapshot must leave a complete recovery path: older
        // snapshot + every segment since it.
        let snaps = snapshot::list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 2);
        let newest = &snaps[0];
        let mut bytes = fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(newest, &bytes).unwrap();
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.recovery().skipped_snapshots, 1);
        assert_eq!(idx.recovery().snapshot_covered_lsn, 50);
        assert_eq!(idx.len(), 80);
        for i in 0..80u64 {
            assert_eq!(idx.get(format!("fb-{i:03}").as_bytes()), Some(i));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
