//! The write-ahead log: a single append-only record stream with group
//! commit.
//!
//! Two locks split the hot path so the expensive part is shared:
//!
//! - The **sequencer** ([`Wal::log`]) assigns LSNs, encodes frames into a
//!   pending buffer, and applies the operation to the in-memory index —
//!   all under one short mutex, which makes WAL order and apply order
//!   identical for every key this log covers.
//! - The **committer** ([`Wal::commit`]) makes a prefix durable. The
//!   holder of the file lock steals the *entire* pending buffer (its own
//!   frames plus everything other writers logged since the last steal),
//!   seals it with one `Commit` frame, and pays one append+fsync for the
//!   whole batch. Writers that arrive while a sync is in flight either
//!   find their LSN already durable when they get the lock (free ride) or
//!   become the next batch's leader — fsyncs are batched across writers
//!   with no condvar and no dedicated thread.
//!
//! An operation is *acknowledged* only when `commit` returns with the
//! durable watermark at or above its LSN; recovery
//! ([`crate::record::replay_committed`]) applies exactly the operations
//! covered by a surviving `Commit` frame, so the set of acknowledged
//! operations is always a prefix of the log and is never lost.
//!
//! A failed append or fsync **poisons** the log: every later `commit`,
//! `sync_all` and `rotate_with` returns an error and the durable watermark
//! never moves again. The failed append may have left part of its batch on
//! the medium, and replay stops at that torn frame — a later batch
//! appended behind it could be acknowledged and still never be recovered.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::record;
use crate::storage::Storage;
use crate::telemetry::DurableMetrics;

/// A sealed batch's buffer up to this capacity becomes the next batch's
/// pending buffer, so a steady stream of batches encodes without
/// reallocating; a larger one (a bulk load's single barrier) is dropped
/// rather than held for the life of the log.
const KEEP_BATCH_CAPACITY: usize = 1 << 20;

struct WalSeq {
    /// Frames encoded but not yet handed to storage.
    pending: Vec<u8>,
    next_lsn: u64,
}

/// A group-commit write-ahead log over one [`Storage`] stream.
pub struct Wal {
    seq: Mutex<WalSeq>,
    file: Mutex<Box<dyn Storage>>,
    /// Highest LSN sealed by a synced `Commit` frame.
    durable_lsn: AtomicU64,
    /// Set by the first failed append or sync (see the module docs).
    poisoned: AtomicBool,
    metrics: DurableMetrics,
}

impl Wal {
    /// Wraps `storage`, with `next_lsn` the first LSN this log will
    /// assign (1 for a fresh log; `committed + 1` after recovery). All
    /// bytes already in `storage` are assumed durable.
    pub fn new(storage: Box<dyn Storage>, next_lsn: u64) -> Self {
        Self {
            seq: Mutex::new(WalSeq {
                pending: Vec::new(),
                next_lsn,
            }),
            file: Mutex::new(storage),
            durable_lsn: AtomicU64::new(next_lsn.saturating_sub(1)),
            poisoned: AtomicBool::new(false),
            metrics: DurableMetrics::default(),
        }
    }

    /// The durability metrics this log records into (fsync count/latency,
    /// group-commit batch factor, WAL bytes).
    pub fn metrics(&self) -> &DurableMetrics {
        &self.metrics
    }

    /// Logs one operation and applies it to the in-memory index, both
    /// under the sequencer lock: `op` writes the operation's frame for the
    /// LSN it is handed and returns the apply step, which mutates the index
    /// (and may consume what the frame borrowed: a value encoded in place,
    /// then moved into the index). Returns the assigned LSN and the apply
    /// step's result. The operation is *not* durable until a later
    /// [`commit`](Wal::commit) covers the LSN.
    pub fn log<R, A: FnOnce() -> R>(&self, op: impl FnOnce(&mut Vec<u8>, u64) -> A) -> (u64, R) {
        let mut seq = self.seq.lock();
        let lsn = seq.next_lsn;
        seq.next_lsn += 1;
        let apply = op(&mut seq.pending, lsn);
        (lsn, apply())
    }

    /// Makes every operation with LSN `<= lsn` durable, group-committing
    /// with concurrent callers. Returns the durable watermark, which is
    /// `>= lsn` on success.
    pub fn commit(&self, lsn: u64) -> io::Result<u64> {
        self.check_poisoned()?;
        let durable = self.durable_lsn.load(Ordering::Acquire);
        if durable >= lsn {
            return Ok(durable);
        }
        let mut file = self.file.lock();
        // A batch leader may have covered us while we waited for the lock.
        let durable = self.durable_lsn.load(Ordering::Acquire);
        if durable >= lsn {
            return Ok(durable);
        }
        self.seal(&mut **file)
    }

    /// Makes everything logged so far durable (a full barrier).
    pub fn sync_all(&self) -> io::Result<u64> {
        self.commit(self.last_assigned_lsn())
    }

    /// Seals the current stream (flushing the pending buffer with a final
    /// `Commit`) and swaps in the storage `make` builds from the
    /// sealed-through LSN for subsequent batches; returns that LSN. Every
    /// operation at or below it is durable in the *old* stream, every later
    /// one goes to the new — checkpointing names the new segment file after
    /// its first LSN (`sealed + 1`). If `make` fails, the old storage stays
    /// in place; the extra seal is harmless (a log may contain any number
    /// of `Commit` frames).
    pub fn rotate_with(
        &self,
        make: impl FnOnce(u64) -> io::Result<Box<dyn Storage>>,
    ) -> io::Result<u64> {
        let mut file = self.file.lock();
        let upto = self.seal(&mut **file)?;
        *file = make(upto)?;
        Ok(upto)
    }

    /// The batch leader's step, under the file lock: steal the whole
    /// pending buffer, seal it with one `Commit`, and append + fsync it.
    /// With nothing pending everything is durable already, and nothing is
    /// written: a segment holds no `Commit` below its first LSN (see
    /// [`record`]'s frame walk). A storage error poisons the log for good
    /// (see the module docs). The emptied buffer goes back as the pending
    /// one when it is at most [`KEEP_BATCH_CAPACITY`] and nobody has
    /// logged since the steal (a writer that has, grew its own).
    fn seal(&self, storage: &mut dyn Storage) -> io::Result<u64> {
        self.check_poisoned()?;
        let (mut batch, upto) = {
            let mut seq = self.seq.lock();
            (std::mem::take(&mut seq.pending), seq.next_lsn - 1)
        };
        if batch.is_empty() {
            return Ok(upto);
        }
        record::encode_commit(&mut batch, upto);
        let timing = wh_telemetry::start_timing();
        if let Err(e) = storage.append(&batch).and_then(|()| storage.sync()) {
            self.poisoned.store(true, Ordering::Release);
            return Err(e);
        }
        self.metrics.fsync_ns.record_elapsed(timing);
        self.metrics.fsyncs.inc();
        self.metrics.wal_bytes.add(batch.len() as u64);
        let durable = self.durable_lsn();
        self.metrics.commit_batch_ops.record(upto - durable);
        self.durable_lsn.store(upto, Ordering::Release);
        if batch.capacity() <= KEEP_BATCH_CAPACITY {
            batch.clear();
            let mut seq = self.seq.lock();
            if seq.pending.is_empty() {
                seq.pending = batch;
            }
        }
        Ok(upto)
    }

    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(io::Error::other("wal poisoned by a failed write"));
        }
        Ok(())
    }

    /// Highest LSN sealed durable so far.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// Highest LSN handed out by the sequencer.
    pub fn last_assigned_lsn(&self) -> u64 {
        self.seq.lock().next_lsn - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{replay_committed, WalRecord};
    use crate::storage::{CrashMode, FailpointStorage};
    use std::sync::Arc;

    fn put(wal: &Wal, key: &[u8], value: &[u8]) -> u64 {
        let (lsn, ()) = wal.log(|buf, lsn| {
            record::encode_put(buf, lsn, key, value);
            || ()
        });
        lsn
    }

    #[test]
    fn commit_seals_everything_logged_before_it() {
        let (storage, handle) = FailpointStorage::new(u64::MAX, CrashMode::DropUnsynced);
        let wal = Wal::new(Box::new(storage), 1);
        put(&wal, b"a", b"1");
        let lsn_b = put(&wal, b"b", b"2");
        assert_eq!(wal.commit(lsn_b).unwrap(), 2);
        assert_eq!(wal.durable_lsn(), 2);
        let mut applied = Vec::new();
        let (_, committed, _) = replay_committed(&handle.surviving_bytes(), 1, |r| {
            if let WalRecord::Put { key, .. } = r {
                applied.push(key.clone());
            }
        });
        assert_eq!(committed, 2);
        assert_eq!(applied, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn group_commit_batches_fsyncs_across_writers() {
        let (storage, handle) = FailpointStorage::new(u64::MAX, CrashMode::DropUnsynced);
        let wal = Arc::new(Wal::new(Box::new(storage), 1));
        let writers = 8;
        let per_writer = 200;
        // Joined, not scoped: ThreadSanitizer does not see `thread::scope`'s
        // wait, which is inside the uninstrumented standard library.
        let threads: Vec<_> = (0..writers)
            .map(|w| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        let key = format!("w{w}-{i:04}");
                        let lsn = put(&wal, key.as_bytes(), b"v");
                        let durable = wal.commit(lsn).unwrap();
                        assert!(durable >= lsn);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let total = (writers * per_writer) as u64;
        assert_eq!(wal.durable_lsn(), total);
        // The whole point: far fewer syncs than committed operations
        // (each sync covers a batch; with 8 contending writers at least
        // some batching must occur).
        assert!(handle.sync_count() <= total);
        let (_, committed, max) = replay_committed(&handle.surviving_bytes(), 1, |_| {});
        assert_eq!(committed, total);
        assert_eq!(max, total);
    }

    #[test]
    fn rotate_seals_old_stream_and_directs_new_writes() {
        let (s1, h1) = FailpointStorage::new(u64::MAX, CrashMode::DropUnsynced);
        let (s2, h2) = FailpointStorage::new(u64::MAX, CrashMode::DropUnsynced);
        let wal = Wal::new(Box::new(s1), 1);
        put(&wal, b"old", b"1");
        let sealed = wal.rotate_with(|_| Ok(Box::new(s2))).unwrap();
        assert_eq!(sealed, 1);
        put(&wal, b"new", b"2");
        wal.sync_all().unwrap();
        let (_, committed_old, _) = replay_committed(&h1.surviving_bytes(), 1, |_| {});
        assert_eq!(committed_old, 1);
        let mut new_keys = Vec::new();
        let (_, committed_new, _) = replay_committed(&h2.surviving_bytes(), sealed + 1, |r| {
            if let WalRecord::Put { key, .. } = r {
                new_keys.push(key.clone());
            }
        });
        assert_eq!(committed_new, 2);
        assert_eq!(new_keys, vec![b"new".to_vec()]);
    }

    /// Rotating a log whose every operation is durable writes no `Commit`
    /// into either segment: the new one would otherwise start with a frame
    /// below its first LSN.
    #[test]
    fn a_seal_with_nothing_pending_writes_nothing() {
        let (s1, h1) = FailpointStorage::new(u64::MAX, CrashMode::DropUnsynced);
        let (s2, h2) = FailpointStorage::new(u64::MAX, CrashMode::DropUnsynced);
        let wal = Wal::new(Box::new(s1), 1);
        let lsn = put(&wal, b"a", b"1");
        wal.commit(lsn).unwrap();
        let sealed = h1.appended_len();
        assert_eq!(wal.rotate_with(|_| Ok(Box::new(s2))).unwrap(), lsn);
        assert_eq!(wal.sync_all().unwrap(), lsn);
        assert_eq!((h1.appended_len(), h2.appended_len()), (sealed, 0));
        assert_eq!(wal.metrics().fsyncs.get(), 1);
    }

    /// A storage whose `fail_at`-th append writes half of its bytes and
    /// fails, and which works again afterwards — a real file that hit
    /// ENOSPC and later found room.
    struct FailOnce {
        bytes: Arc<Mutex<Vec<u8>>>,
        appends: usize,
        fail_at: usize,
    }

    impl Storage for FailOnce {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            self.appends += 1;
            let mut bytes = self.bytes.lock();
            if self.appends == self.fail_at {
                bytes.extend_from_slice(&data[..data.len() / 2]);
                return Err(io::Error::other("no space left on device"));
            }
            bytes.extend_from_slice(data);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }

        fn len(&self) -> u64 {
            self.bytes.lock().len() as u64
        }
    }

    #[test]
    fn acknowledged_writes_survive_a_failed_append() {
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let storage = FailOnce {
            bytes: Arc::clone(&bytes),
            appends: 0,
            fail_at: 2,
        };
        let wal = Wal::new(Box::new(storage), 1);
        let a = put(&wal, b"a", b"1");
        assert_eq!(wal.commit(a).unwrap(), a);
        let b = put(&wal, b"b", b"2");
        assert!(wal.commit(b).is_err(), "the torn append fails");
        // The storage works again, but the torn batch sits before anything
        // appended now: replay would stop there, so nothing may be
        // acknowledged after it.
        let c = put(&wal, b"c", b"3");
        assert!(wal.commit(c).is_err(), "a commit behind a torn batch");
        assert!(wal.sync_all().is_err());
        assert!(wal.commit(a).is_err());
        assert!(wal.rotate_with(|_| unreachable!("no seal")).is_err());
        assert_eq!(wal.durable_lsn(), a);
        let mut keys = Vec::new();
        let (_, committed, _) = replay_committed(&bytes.lock(), 1, |r| {
            if let WalRecord::Put { key, .. } = r {
                keys.push(key.clone());
            }
        });
        assert_eq!(committed, a, "every acknowledged write is recovered");
        assert_eq!(keys, vec![b"a".to_vec()]);
    }

    #[test]
    fn commit_error_surfaces_and_watermark_is_unchanged() {
        let (storage, _handle) = FailpointStorage::new(4, CrashMode::DropUnsynced);
        let wal = Wal::new(Box::new(storage), 1);
        let lsn = put(&wal, b"doomed-key-longer-than-four-bytes", b"v");
        assert!(wal.commit(lsn).is_err());
        assert_eq!(wal.durable_lsn(), 0);
    }
}
