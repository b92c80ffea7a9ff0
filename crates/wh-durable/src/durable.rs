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
//! <dir>/wal.spare              superseded segment the next rotation overwrites
//! <dir>/snap-<covered>.snap    full-index snapshots
//! <dir>/*.tmp                  in-flight snapshot (never load-bearing)
//! <dir>/snapshot.spare         superseded snapshot the next one overwrites
//! ```
//!
//! File names zero-pad their LSN to twenty digits ([`lsn_path`]), and one
//! lister ([`list_lsn_files`]) parses them back, ascending. Neither spare's
//! name is listed as a segment or a snapshot, so recovery never reads one.
//! Both spares are taken by the one opener, [`FileStorage::reuse`].
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
//!    start a new segment named `wal-<S+1>`: the `wal.spare`, renamed and
//!    overwritten from its start, if there is one. `S` becomes the
//!    snapshot's `covered_lsn`.
//! 2. **Fuzzy scan**: stream the whole index through a [`Cursor`] into a
//!    temp file (the snapshot spare, renamed, if there is one) while
//!    writers keep running. The scan may capture any subset of the
//!    operations racing it. It takes the cursor's batches whole
//!    ([`Cursor::next_batch`]), so the Wormhole indexes fill one a leaf.
//!    Each batch is encoded into the [`snapshot::SnapshotWriter`]'s
//!    64 KiB chunk on the checkpoint's thread, and each full chunk is sent
//!    down a bounded std channel to the writer's own thread, which CRCs
//!    it, writes it and hands each further MiB written to the kernel's
//!    writeback at once, so the image's `fdatasync` at the end of the step
//!    waits only for the last stretch. The scan then **drains** the
//!    writer: it closes the channel, waits for the thread to write what is
//!    queued, and writes the image's tail. The hint is not a barrier; an
//!    error from it or from a write fails the checkpoint, after the thread
//!    is joined and before anything is published.
//! 3. **Commit through `S_end`** (the highest LSN assigned when the scan
//!    finished): every operation the scan *could* have captured is now
//!    durable in the WAL, so the snapshot never embeds a write that a
//!    crash could un-happen (prefix consistency).
//! 4. **Publish** by atomic rename + directory fsync, then collect what
//!    it supersedes: the oldest snapshot becomes the spare that step 2 of
//!    the next checkpoint overwrites, and a segment the retained snapshots
//!    cover becomes the spare that step 1 of the next checkpoint
//!    overwrites (each deleted instead if its spare exists).
//!
//! A reused segment holds, past what it has written, the frames of the
//! segment it was: every one of them at or below `S`, below its first
//! LSN, so replay stops at the first of them ([`record`]'s frame walk).
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

use std::fs;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use index_traits::{ConcurrentOrderedIndex, Cursor, DurableIndex, FromSorted, IndexStats};
use parking_lot::Mutex;
use wormhole::{Wormhole, WormholeConfig};

use crate::record::{self, replay_committed, WalRecord};
use crate::snapshot;
use crate::storage::{list_lsn_files, lsn_path, retire, sync_dir, FileStorage, Storage};
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
    /// Bytes cut from the last segment past its last committed frame,
    /// when frames no `Commit` covers were found there.
    pub truncated_bytes: u64,
}

/// The WAL spare's file name: not `wal-*.log`, so never listed as a segment.
pub const WAL_SPARE: &str = "wal.spare";

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
                retire(&path, snapshot::SPARE)?;
            }
        }

        // Newest snapshot that validates end to end wins; corrupt ones
        // (torn by a crash mid-publish on a non-atomic filesystem, or
        // bit-rotted) are skipped, falling back to older images plus a
        // longer WAL replay.
        let mut base: Option<snapshot::SnapshotData> = None;
        for (lsn, snap) in list_lsn_files(&dir, "snap-", ".snap")?.into_iter().rev() {
            match snapshot::load_snapshot(&snap, lsn) {
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
        let segments = list_lsn_files(&dir, "wal-", ".log")?;
        report.segments_scanned = segments.len();
        let mut committed_max = covered;
        let mut decode_failure = false;
        // Where the newest segment's committed frames end: appends go on
        // from there.
        let mut append_at = 0;
        for (i, (first_lsn, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path)?;
            let (valid_end, seg_committed, seg_max) = replay_committed(&bytes, *first_lsn, |rec| {
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
            // Only the newest segment can end in frames no `Commit` covers
            // (rotation seals every older one). Their LSNs are the next
            // operations' again, so they are cut, durably, before anything
            // is appended. Past the last `Commit` there is otherwise at
            // most a torn frame's start (a crash keeps a prefix of what was
            // being appended) or, in a reused file, an older segment's
            // frames: both stay, and appends overwrite them.
            if i == segments.len() - 1 {
                append_at = valid_end as u64;
                if seg_max > seg_committed {
                    report.truncated_bytes = bytes.len() as u64 - append_at;
                }
            }
        }
        if decode_failure {
            return Err(corrupt("undecodable value in a committed WAL record"));
        }
        report.committed_lsn = committed_max;

        // Appends go on in the newest segment, or in a first one.
        let next_lsn = committed_max + 1;
        let first_lsn = segments
            .last()
            .map_or(next_lsn, |&(first_lsn, _)| first_lsn);
        let path = lsn_path(&dir, "wal-", first_lsn, ".log");
        let mut storage = FileStorage::reuse(&path, WAL_SPARE, append_at)?;
        if report.truncated_bytes > 0 {
            storage.cut()?;
            storage.sync()?;
        }
        if segments.is_empty() {
            sync_dir(&dir)?;
        }
        Ok(Self {
            index,
            wal: Wal::new(Box::new(storage), next_lsn),
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
        let (lsn, old) = self.wal.log(|buf, lsn| {
            record::encode_put_with(buf, lsn, key, |out| value.encode_into(out));
            || self.index.set(key, value)
        });
        self.commit_policy(lsn)?;
        Ok(old)
    }

    /// Fallible [`ConcurrentOrderedIndex::del`].
    pub fn try_del(&self, key: &[u8]) -> io::Result<Option<V>> {
        let (lsn, old) = self.wal.log(|buf, lsn| {
            record::encode_delete(buf, lsn, key);
            || self.index.del(key)
        });
        self.commit_policy(lsn)?;
        Ok(old)
    }

    /// Fallible [`ConcurrentOrderedIndex::delete_range`]. The whole range
    /// removal is one WAL record, so replay re-executes it as a unit.
    pub fn try_delete_range(&self, lo: &[u8], hi: &[u8]) -> io::Result<usize> {
        let (lsn, removed) = self.wal.log(|buf, lsn| {
            record::encode_delete_range(buf, lsn, lo, hi);
            || self.index.delete_range(lo, hi)
        });
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
            let path = lsn_path(&self.dir, "wal-", sealed + 1, ".log");
            let storage = FileStorage::reuse(&path, WAL_SPARE, 0)?;
            sync_dir(&self.dir)?;
            Ok(Box::new(storage) as Box<dyn Storage>)
        })?;
        self.metrics().checkpoint_rotate_ns.record_elapsed(timing);

        // 2. Fuzzy scan into the temp file — writers keep running.
        let scan = wh_telemetry::start_timing();
        let final_path = lsn_path(&self.dir, "snap-", covered, ".snap");
        let mut writer = snapshot::SnapshotWriter::create(&final_path, covered)?;
        let mut cursor = self.index.scan(b"");
        while let Some(batch) = cursor.next_batch() {
            for (key, value) in batch.iter() {
                writer.push(key, |out| value.encode_into(out))?;
            }
        }
        drop(cursor);
        self.metrics().checkpoint_scan_ns.record_elapsed(scan);
        let drain = wh_telemetry::start_timing();
        let image = writer.finish()?;
        self.metrics().checkpoint_drain_ns.record_elapsed(drain);
        let sync = wh_telemetry::start_timing();
        image.sync_all()?;
        self.metrics().checkpoint_sync_ns.record_elapsed(sync);

        // 3. Make the WAL durable through everything the scan could have
        //    observed, BEFORE the snapshot becomes load-bearing: a fuzzy
        //    image may embed a racing write, and that write must not be
        //    revocable by a crash once the snapshot is published.
        let publish = wh_telemetry::start_timing();
        let scan_end = self.wal.last_assigned_lsn();
        self.wal.commit(scan_end)?;

        // 4. Publish (rename + dir fsync), then GC what it superseded.
        snapshot::publish_snapshot(&final_path)?;
        self.collect_garbage()?;
        self.metrics().checkpoint_publish_ns.record_elapsed(publish);
        self.metrics().checkpoint_ns.record_elapsed(timing);
        Ok(covered)
    }

    /// Prunes what the new snapshot supersedes, keeping one generation of
    /// redundancy: the two newest snapshots survive (an older one becomes
    /// the snapshot spare, [`retire`]), and a WAL segment is retired (to
    /// the [`WAL_SPARE`]) only when the *older* retained snapshot covers it
    /// (its successor segment starts at or below that snapshot's
    /// `covered + 1`). If the newest snapshot is later found corrupt,
    /// recovery still has the older image plus every segment since it.
    fn collect_garbage(&self) -> io::Result<()> {
        const RETAIN_SNAPSHOTS: usize = 2;
        let snaps = list_lsn_files(&self.dir, "snap-", ".snap")?;
        let superseded = snaps.len().saturating_sub(RETAIN_SNAPSHOTS);
        for (_, snap) in snaps[..superseded].iter().rev() {
            retire(snap, snapshot::SPARE)?;
        }
        if let Some(&(floor, _)) = snaps.get(superseded) {
            for pair in list_lsn_files(&self.dir, "wal-", ".log")?.windows(2) {
                if pair[1].0 <= floor + 1 {
                    retire(&pair[0].1, WAL_SPARE)?;
                }
            }
        }
        sync_dir(&self.dir)
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

    fn get_batch_into(&self, keys: &[&[u8]], out: &mut Vec<Option<V>>) {
        self.index.get_batch_into(keys, out)
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
        // commit, and every batch sealed exactly one op.
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
        // One sample of each phase per checkpoint, and the phases tile the
        // whole: they do not overlap, so together they fit inside it, and
        // only the clock reads between them are left out.
        let phases = [
            &m.checkpoint_rotate_ns,
            &m.checkpoint_scan_ns,
            &m.checkpoint_drain_ns,
            &m.checkpoint_sync_ns,
            &m.checkpoint_publish_ns,
        ]
        .map(|phase| phase.snapshot());
        for phase in &phases {
            assert_eq!(phase.count(), expected_checkpoints);
        }
        let phase_sum: u64 = phases.iter().map(|phase| phase.sum).sum();
        let whole = m.checkpoint_ns.snapshot().sum;
        assert!(
            phase_sum <= whole && phase_sum >= whole / 2,
            "{phase_sum} of {whole}"
        );

        let registry = wh_telemetry::Registry::new();
        idx.register_metrics(&registry, "wh_durable");
        registry.lint().expect("names well-formed and unique");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wh_durable_fsyncs_total"), m.fsyncs.get());
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
            assert_eq!(list_lsn_files(&dir, "wal-", ".log").unwrap().len(), 1);
            assert_eq!(list_lsn_files(&dir, "snap-", ".snap").unwrap().len(), 1);
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

    /// Writers race checkpoints whose scans take a leaf a fill, so each
    /// fill holds one optimistic read across a whole leaf of 64 keys. The
    /// preloaded keys and the checkpoints scale with `WH_STRESS_MULT` for
    /// the nightly soak.
    #[test]
    fn checkpoint_under_concurrent_writers_loses_nothing() {
        let mult = std::env::var("WH_STRESS_MULT")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1u64);
        let dir = test_dir("fuzzy");
        let options = DurableOptions {
            config: WormholeConfig::optimized().with_leaf_capacity(64),
            ..DurableOptions::default()
        };
        let idx: DurableWormhole<u64> = DurableWormhole::open_with(&dir, options).unwrap();
        for i in 0..2_000 * mult {
            idx.set(format!("pre-{i:07}").as_bytes(), i);
        }
        // Joined, not scoped: ThreadSanitizer does not see `thread::scope`'s
        // wait, which is inside the uninstrumented standard library.
        let idx = std::sync::Arc::new(idx);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut threads: Vec<_> = (0..3u64)
            .map(|w| {
                let (idx, stop) = (std::sync::Arc::clone(&idx), std::sync::Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        idx.set(format!("w{w}-{i:05}").as_bytes(), i);
                        if i > 0 && i.is_multiple_of(7) {
                            idx.del(format!("w{w}-{:05}", i - 1).as_bytes());
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        let (checkpointer, done) = (std::sync::Arc::clone(&idx), std::sync::Arc::clone(&stop));
        threads.push(std::thread::spawn(move || {
            for _ in 0..5 * mult {
                checkpointer.checkpoint().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        }));
        for thread in threads {
            thread.join().unwrap();
        }
        let expected: Vec<(Vec<u8>, u64)> = idx.range_from(b"", usize::MAX);
        drop(idx);
        let reopened: DurableWormhole<u64> = DurableWormhole::open_with(&dir, options).unwrap();
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
                let newest = ino(&lsn_path(&dir, "snap-", covered, ".snap"));
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
            .filter(|name| !name.starts_with("wal"))
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

    /// A rotation writes into the segment an earlier checkpoint retired,
    /// and a reopen replays the reused segment's own frames, not the older
    /// ones behind them. The first checkpoint retires the first segment;
    /// the second none, its older snapshot covering only what precedes the
    /// second segment; each later one retires one.
    #[cfg(unix)]
    #[test]
    fn rotations_write_into_the_superseded_segment_file() {
        use std::os::unix::fs::MetadataExt;
        let dir = test_dir("wal-reuse");
        let spare = dir.join(WAL_SPARE);
        let value = |round: u64, i: u64| vec![round as u8; 40 + (i % 7) as usize];
        {
            let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for round in 0..6u64 {
                let spare_ino = spare.exists().then(|| fs::metadata(&spare).unwrap().ino());
                assert_eq!(
                    spare_ino.is_some(),
                    round != 0 && round != 2,
                    "round {round}"
                );
                // Fewer writes each round: the reused file is longer than
                // what the new segment writes into it.
                for i in 0..(300 - 40 * round) {
                    idx.set(format!("w-{i:03}").as_bytes(), value(round, i));
                }
                let covered = idx.checkpoint().unwrap();
                let live = lsn_path(&dir, "wal-", covered + 1, ".log");
                if let Some(spare_ino) = spare_ino {
                    assert_eq!(
                        fs::metadata(&live).unwrap().ino(),
                        spare_ino,
                        "round {round}"
                    );
                }
            }
            // A tail after the last checkpoint, in the reused segment.
            for i in 0..10u64 {
                idx.set(format!("w-{i:03}").as_bytes(), value(9, i));
            }
            assert_eq!(list_lsn_files(&dir, "wal-", ".log").unwrap().len(), 2);
        }
        let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.recovery().replayed_operations, 10);
        assert_eq!(idx.len(), 300);
        for i in 0..300u64 {
            let round = match i {
                0..10 => 9,
                _ => (0..6).rev().find(|&r| i < 300 - 40 * r).unwrap(),
            };
            assert_eq!(
                idx.get(format!("w-{i:03}").as_bytes()),
                Some(value(round, i)),
                "{i}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot fault: an image whose write fails halfway
    /// fails the checkpoint after its writer thread is joined, publishes
    /// nothing, and leaves the previous snapshot plus the log to recover.
    #[test]
    fn a_checkpoint_whose_image_fails_halfway_publishes_nothing() {
        use std::sync::atomic::Ordering;
        let dir = test_dir("image-fault");
        let key = |i: u64| format!("f-{i:05}");
        let (first, expected) = {
            let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            for i in 0..2_000u64 {
                idx.set(key(i).as_bytes(), vec![1; 300]);
            }
            let first = idx.checkpoint().unwrap();
            for i in (0..2_000u64).step_by(3) {
                idx.set(key(i).as_bytes(), vec![2; 300]);
            }
            let dropped = snapshot::tests::fail_next_image_after(300 << 10);
            let error = idx.checkpoint().unwrap_err();
            assert!(error.to_string().contains("injected"), "{error}");
            assert!(dropped.load(Ordering::Acquire), "writer thread not joined");
            let snaps = list_lsn_files(&dir, "snap-", ".snap").unwrap();
            assert_eq!(snaps, [(first, lsn_path(&dir, "snap-", first, ".snap"))]);
            // The store still takes writes after the failed checkpoint.
            idx.del(key(1).as_bytes());
            (first, idx.range_from(b"", usize::MAX))
        };
        let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.recovery().skipped_snapshots, 0);
        assert_eq!(idx.recovery().snapshot_covered_lsn, first);
        assert_eq!(idx.recovery().replayed_operations, 668);
        assert_eq!(idx.range_from(b"", usize::MAX), expected);
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
            let len = fs::metadata(lsn_path(&dir, "snap-", covered, ".snap"))
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

    /// An image of several writeback intervals, not a whole number of
    /// them, written into a spare that held a larger one: the file is the
    /// image's length and reopens whole.
    #[test]
    fn a_multi_mib_image_over_a_larger_spare_has_its_own_length() {
        let dir = test_dir("multi-mib");
        let key = |i: u64| format!("m-{i:05}");
        let value = |i: u64, round: u8| vec![round; 900 + (i % 200) as usize];
        let (keys, round) = (4_300u64, 3u8);
        let image_len = |keys: u64| {
            let records: u64 = (0..keys).map(|i| 8 + 7 + value(i, 0).len() as u64).sum();
            16 + records + 12
        };
        let len = image_len(keys);
        assert!(len >= 3 << 20 && len % snapshot::WRITEBACK != 0, "{len}");
        {
            let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
            // The third checkpoint retires the first image as the spare.
            for round in 0..round {
                for i in 0..keys + 1_000 {
                    idx.set(key(i).as_bytes(), value(i, round));
                }
                idx.checkpoint().unwrap();
            }
            let spare_len = fs::metadata(dir.join(snapshot::SPARE)).unwrap().len();
            assert_eq!(spare_len, image_len(keys + 1_000));
            idx.delete_range(key(keys).as_bytes(), b"n");
            let covered = idx.checkpoint().unwrap();
            let path = lsn_path(&dir, "snap-", covered, ".snap");
            assert_eq!(fs::metadata(path).unwrap().len(), len);
        }
        let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, tiny()).unwrap();
        assert_eq!(idx.recovery().snapshot_records, keys);
        assert_eq!(idx.recovery().replayed_operations, 0);
        assert_eq!(idx.len() as u64, keys);
        for i in 0..keys {
            assert_eq!(idx.get(key(i).as_bytes()), Some(value(i, round - 1)));
        }
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
        let snaps = list_lsn_files(&dir, "snap-", ".snap").unwrap();
        assert_eq!(snaps.len(), 2);
        let newest = &snaps[1].1;
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
