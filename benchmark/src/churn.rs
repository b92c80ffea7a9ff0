//! `index-churn` and `durable-churn`: one stream of inserts, deletes,
//! overwrites and cursor scans, applied to a bare `Wormhole` and to a
//! `DurableWormhole`. What the second costs over the first is the log's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use index_traits::{ConcurrentOrderedIndex, DurableIndex};
use wh_durable::{DurableOptions, DurableWormhole, SyncPolicy};
use wormhole::Wormhole;

use crate::gen::{self, ChurnOp, ChurnStream, SCAN_KEYS};
use crate::probes;
use crate::reference::{self, Tree};
use crate::trace::{self, Name, Tracer, SPAN_SAMPLE};
use crate::workload::{
    median_over, Checked, Kind, Layers, Replay, Scale, Slice, Stopwatch, Workload, CALL_SAMPLE,
    LOAD_CHUNK,
};

const RING: usize = 800_000;
const RESIDENTS: usize = 400_000;
/// Calls of one slice: 128 repetitions of the 16-call mix, which hold 1792
/// mutations. A slice ends with the target's barrier, so `durable-churn`
/// makes one `wal_sync` per slice.
pub const SLICE_CALLS: usize = 2048;
/// Slices of calls in a round; the target's end-of-round step (the
/// checkpoint of `durable-churn`) follows them as a slice of its own.
const SLICES_PER_ROUND: u64 = 40;

const CALLS: usize = 0;
const END_OF_ROUND: usize = 1;

/// Span names of the five calls of the mix, by the layer that takes them.
pub struct CallNames {
    insert: Name,
    del: Name,
    overwrite: Name,
    scan_seek: Name,
    scan_drain: Name,
}

/// The index under the churn stream.
pub trait Target: ConcurrentOrderedIndex<u64> + Sized {
    const NAMES: CallNames;
    /// The kinds of slice a round on this index is made of.
    const KINDS: &'static [Kind];
    /// An empty index. `dir` is this run's scratch directory.
    fn create(dir: &Path) -> Self;
    /// Called when every slice of calls and the load of set-up end.
    fn barrier(&self, _tracer: &mut Option<&mut Tracer>, _op_id: u64) {}
    /// Called when set-up ends, and as the slice that ends every round if
    /// [`Target::KINDS`] has one.
    fn end_round(&self, _tracer: &mut Option<&mut Tracer>, _op_id: u64) {}
    /// Checks what must hold beyond the in-memory contents.
    fn verify_persistence(self, _expect: &[(&[u8], u64)]) -> Checked {
        Checked::default()
    }
    /// Layer metrics only this kind of index has. `ops` and `user_bytes`
    /// count from the creation of the index, set-up included.
    fn probe(&self, tracer: &mut Tracer, layers: &mut Layers, ops: u64, user_bytes: u64);
}

impl Target for Wormhole<u64> {
    const NAMES: CallNames = CallNames {
        insert: Name::WormholeInsert,
        del: Name::WormholeDel,
        overwrite: Name::WormholeOverwrite,
        scan_seek: Name::WormholeScanSeek,
        scan_drain: Name::WormholeScanDrain,
    };
    const KINDS: &'static [Kind] = &[Kind {
        name: "calls",
        per_round: 1,
    }];
    fn create(_dir: &Path) -> Self {
        Wormhole::new()
    }
    fn probe(&self, _tracer: &mut Tracer, layers: &mut Layers, _ops: u64, _user_bytes: u64) {
        probes::event_counters(layers, self.metrics());
        probes::structure(layers, self.stats(), self.leaf_count());
        layers.set(
            "wh-epoch.pending_high_water",
            self.epoch_metrics().deferred_depth.high_water() as f64,
        );
    }
}

fn durable_options() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Manual,
        ..DurableOptions::default()
    }
}

impl Target for DurableWormhole<u64> {
    const NAMES: CallNames = CallNames {
        insert: Name::DurableSet,
        del: Name::DurableDel,
        overwrite: Name::DurableSet,
        scan_seek: Name::DurableScan,
        scan_drain: Name::DurableScan,
    };
    const KINDS: &'static [Kind] = &[
        Kind {
            name: "calls",
            per_round: SLICES_PER_ROUND,
        },
        Kind {
            name: "checkpoint",
            per_round: 1,
        },
    ];

    fn create(dir: &Path) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        DurableWormhole::open_with(dir, durable_options()).expect("open a fresh store")
    }

    fn barrier(&self, tracer: &mut Option<&mut Tracer>, op_id: u64) {
        trace::call(tracer, true, Name::DurableWalSync, op_id, || {
            self.wal_sync().expect("wal_sync")
        });
    }

    fn end_round(&self, tracer: &mut Option<&mut Tracer>, op_id: u64) {
        trace::call(tracer, true, Name::DurableCheckpoint, op_id, || {
            self.checkpoint().expect("checkpoint")
        });
    }

    /// Drops the store, opens it again from its files, and looks for every
    /// key the acknowledged operations left resident, and for nothing else.
    fn verify_persistence(self, expect: &[(&[u8], u64)]) -> Checked {
        self.wal_sync().expect("wal_sync");
        let dir = self.dir().to_path_buf();
        drop(self);
        let reopened: DurableWormhole<u64> =
            DurableWormhole::open_with(&dir, durable_options()).expect("reopen the store");
        let mut failed = u64::from(reopened.len() != expect.len());
        for &(key, value) in expect {
            failed += u64::from(reopened.get(key) != Some(value));
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        Checked {
            attempted: expect.len() as u64 + 1,
            failed,
        }
    }

    fn probe(&self, tracer: &mut Tracer, layers: &mut Layers, ops: u64, user_bytes: u64) {
        let metrics = self.metrics();
        let fsyncs = metrics.fsyncs.get();
        layers.set(
            "wh-durable.fsyncs_per_kop",
            fsyncs as f64 * 1e3 / ops as f64,
        );
        layers.set(
            "wh-durable.wal_bytes_per_user_byte",
            metrics.wal_bytes.get() as f64 / user_bytes as f64,
        );
        let batches = metrics.commit_batch_ops.snapshot();
        layers.set("wh-durable.commit_batch_mean", batches.mean());
        layers.set(
            "wh-durable.fsync_mean_ns",
            metrics.fsync_ns.snapshot().mean(),
        );
        layers.set(
            "wh-durable.checkpoint_ms",
            tracer.mean_ns(Name::DurableCheckpoint) / 1e6,
        );

        // Recovery: open a second handle on a copy of the files as they
        // stand (snapshot plus the log since), timed from the outside.
        let copy = self.dir().with_extension("recovery");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).expect("scratch directory");
        self.wal_sync().expect("wal_sync");
        for entry in std::fs::read_dir(self.dir()).expect("store directory") {
            let path = entry.expect("directory entry").path();
            std::fs::copy(&path, copy.join(path.file_name().expect("file name")))
                .expect("copy a store file");
        }
        let mut replayed = 0;
        let open_ns = probes::timed_loop(tracer, Name::DurableOpen, 0, 1, || {
            let recovered: DurableWormhole<u64> =
                DurableWormhole::open_with(&copy, durable_options()).expect("recover the copy");
            replayed = recovered.recovery().replayed_operations;
        });
        layers.set("wh-durable.recovery_ms", open_ns / 1e6);
        layers.set("wh-durable.replayed_ops", replayed as f64);
        let _ = std::fs::remove_dir_all(&copy);
    }
}

pub struct Churn<I: Target> {
    ring: Vec<Vec<u8>>,
    values: Vec<u64>,
    stream: ChurnStream,
    gen_s: f64,
    dir: PathBuf,
    index: Option<I>,
    /// Next call of the stream; wraps at the end of a turn.
    position: usize,
    calls_done: u64,
    /// Slices of calls made since the last end-of-round step.
    slices_in_round: u64,
    /// Bytes of keys and values handed to `set` and `del`, set-up included.
    user_bytes: u64,
    /// The resident window in an ordered map, and how many calls of the
    /// stream it is behind the index.
    reference: Option<Tree>,
    to_replay: usize,
}

impl<I: Target> Churn<I> {
    pub fn new(seed: u64, scale: Scale, dir: PathBuf) -> Self {
        let (ring, gen_s) = gen::keys(scale.of(RING), seed);
        let values: Vec<u64> = ring.iter().map(|k| gen::value_of(k)).collect();
        let stream = gen::churn_stream(&ring, &values, scale.of(RESIDENTS), seed);
        Self {
            ring,
            values,
            stream,
            gen_s,
            dir,
            index: None,
            position: 0,
            calls_done: 0,
            slices_in_round: 0,
            user_bytes: 0,
            reference: None,
            to_replay: 0,
        }
    }

    /// The resident window after the calls made so far.
    fn residents(&self) -> Vec<(&[u8], u64)> {
        let mut present = vec![false; self.ring.len()];
        present[..self.stream.residents].fill(true);
        for op in &self.stream.ops[..self.position] {
            match *op {
                ChurnOp::Insert { key } => present[key as usize] = true,
                ChurnOp::Delete { key } => present[key as usize] = false,
                _ => {}
            }
        }
        (0..self.ring.len())
            .filter(|&i| present[i])
            .map(|i| (self.ring[i].as_slice(), self.values[i]))
            .collect()
    }

    /// Makes the next `count` calls of the stream, then the target's
    /// barrier, and returns how many calls returned something else than the
    /// stream says they must.
    fn apply(
        &mut self,
        count: usize,
        tracer: &mut Option<&mut Tracer>,
        calls: &mut Vec<u32>,
    ) -> u64 {
        let index = self.index.as_ref().expect("set up");
        index.barrier(tracer, self.calls_done);
        let names = &I::NAMES;
        let mut failed = 0u64;
        for i in 0..count {
            let op_id = self.calls_done + i as u64;
            let op = self.stream.ops[(self.position + i) % self.stream.ops.len()];
            let timed = i % SPAN_SAMPLE == 0;
            let clock = (i % CALL_SAMPLE == 0).then(Instant::now);
            let root = trace::open(tracer, timed, Name::ClientCall, op_id);
            let mut mutation = |key: u32| {
                self.user_bytes += self.ring[key as usize].len() as u64 + 8;
                (
                    self.ring[key as usize].as_slice(),
                    self.values[key as usize],
                )
            };
            let ok = match op {
                ChurnOp::Insert { key } => {
                    let (key, value) = mutation(key);
                    trace::call(tracer, timed, names.insert, op_id, || index.set(key, value))
                        .is_none()
                }
                ChurnOp::Delete { key } => {
                    let (key, value) = mutation(key);
                    trace::call(tracer, timed, names.del, op_id, || index.del(key)) == Some(value)
                }
                ChurnOp::Overwrite { key } => {
                    let (key, value) = mutation(key);
                    trace::call(tracer, timed, names.overwrite, op_id, || {
                        index.set(key, value)
                    }) == Some(value)
                }
                ChurnOp::Scan { key, count, digest } => {
                    let start = self.ring[key as usize].as_slice();
                    let seek = trace::open(tracer, timed, names.scan_seek, op_id);
                    let mut cursor = index.scan(start);
                    let first = cursor.next().map(|(_, value)| *value);
                    trace::close(tracer, seek);
                    let drain = trace::open(tracer, timed, names.scan_drain, op_id);
                    let (mut got, mut seen) = (0usize, 0u64);
                    if let Some(value) = first {
                        (got, seen) = (1, gen::scan_digest(0, value));
                        while got < SCAN_KEYS {
                            let Some((_, value)) = cursor.next() else {
                                break;
                            };
                            got += 1;
                            seen = gen::scan_digest(seen, *value);
                        }
                    }
                    trace::close(tracer, drain);
                    got == usize::from(count) && seen == digest
                }
            };
            trace::close(tracer, root);
            if let Some(clock) = clock {
                calls.push(clock.elapsed().as_nanos() as u32);
            }
            failed += u64::from(!ok);
        }
        self.position = (self.position + count) % self.stream.ops.len();
        self.calls_done += count as u64;
        failed
    }
}

impl<I: Target> Workload for Churn<I> {
    fn gen_seconds(&self) -> f64 {
        self.gen_s
    }
    fn stream_hash(&self) -> u64 {
        self.stream.hash
    }
    fn keys(&self) -> &[Vec<u8>] {
        &self.ring
    }
    fn resident_keys(&self) -> usize {
        self.stream.residents
    }
    fn kinds(&self) -> &'static [Kind] {
        I::KINDS
    }
    /// As many slices of calls as a round of `durable-churn` has, and the
    /// end-of-round step where a round has one.
    fn trace_leg_slices(&self) -> usize {
        SLICES_PER_ROUND as usize + I::KINDS.len() - 1
    }
    fn tear_down(&mut self) {
        self.index = None;
    }

    fn set_up(&mut self, lap: &mut dyn FnMut()) {
        let index = I::create(&self.dir);
        lap();
        let loaded = &self.ring[..self.stream.residents];
        for (keys, values) in loaded
            .chunks(LOAD_CHUNK)
            .zip(self.values.chunks(LOAD_CHUNK))
        {
            for (key, &value) in keys.iter().zip(values) {
                index.set(key, value);
            }
            lap();
        }
        index.barrier(&mut None, 0);
        lap();
        index.end_round(&mut None, 0);
        lap();
        self.index = Some(index);
        self.position = 0;
        self.calls_done = 0;
        self.slices_in_round = 0;
        self.user_bytes = loaded.iter().map(|key| key.len() as u64 + 8).sum();
    }

    fn slice(&mut self, tracer: &mut Option<&mut Tracer>, calls: &mut Vec<u32>) -> Slice {
        if I::KINDS.len() > END_OF_ROUND && self.slices_in_round == I::KINDS[CALLS].per_round {
            self.slices_in_round = 0;
            let index = self.index.as_ref().expect("set up");
            let watch = Stopwatch::start();
            index.end_round(tracer, self.calls_done);
            let (wall_s, cpu_ns) = watch.stop();
            return Slice {
                kind: END_OF_ROUND,
                wall_s,
                cpu_ns,
                ..Slice::default()
            };
        }
        self.slices_in_round += 1;
        let watch = Stopwatch::start();
        let failed = self.apply(SLICE_CALLS, tracer, calls);
        let (wall_s, cpu_ns) = watch.stop();
        self.to_replay += SLICE_CALLS;
        Slice {
            kind: CALLS,
            ops: SLICE_CALLS as u64,
            wall_s,
            cpu_ns,
            attempted: SLICE_CALLS as u64,
            failed,
        }
    }

    fn set_up_reference(&mut self) {
        let loaded = self.stream.residents;
        self.reference = Some(reference::tree_of(
            &self.ring[..loaded],
            &self.values[..loaded],
        ));
        self.to_replay = 0;
    }

    /// The calls the index has taken since the last replay, on the ordered
    /// map: none after an end-of-round step, which makes no call.
    fn replay(&mut self) -> Replay {
        let tree = self.reference.as_mut().expect("reference set up");
        let ops = &self.stream.ops;
        let count = std::mem::take(&mut self.to_replay);
        let from = (self.position + ops.len() - count % ops.len()) % ops.len();
        let (ring, values) = (&self.ring, &self.values);
        reference::timed(count as u64, || {
            let mut wrong = 0;
            for i in 0..count {
                let ok = match ops[(from + i) % ops.len()] {
                    ChurnOp::Insert { key } => tree
                        .insert(ring[key as usize].clone(), values[key as usize])
                        .is_none(),
                    ChurnOp::Delete { key } => {
                        tree.remove(ring[key as usize].as_slice()) == Some(values[key as usize])
                    }
                    ChurnOp::Overwrite { key } => {
                        let value = values[key as usize];
                        tree.get_mut(ring[key as usize].as_slice())
                            .map(|slot| std::mem::replace(slot, value))
                            == Some(value)
                    }
                    ChurnOp::Scan { key, count, digest } => {
                        reference::scan(tree, &ring[key as usize], SCAN_KEYS)
                            == (usize::from(count), digest)
                    }
                };
                wrong += u64::from(!ok);
            }
            wrong
        })
    }

    fn verify(&mut self) -> Checked {
        let index = self.index.take().expect("set up");
        let expect = self.residents();
        let mut failed = u64::from(index.len() != expect.len());
        for &(key, value) in &expect {
            failed += u64::from(index.get(key) != Some(value));
        }
        let persisted = index.verify_persistence(&expect);
        Checked {
            attempted: expect.len() as u64 + 1 + persisted.attempted,
            failed: failed + persisted.failed,
        }
    }

    fn probe_layers(&mut self, tracer: &mut Tracer, layers: &mut Layers, _slices: &[Slice]) {
        // Ten slices more, left without their checkpoint, so that recovery
        // has a known stretch of log to replay.
        let mut calls = Vec::with_capacity(SLICE_CALLS);
        for _ in 0..SLICES_PER_ROUND / 4 {
            self.apply(SLICE_CALLS, &mut Some(&mut *tracer), &mut calls);
        }
        let index = self.index.as_ref().expect("set up");
        for (metric, name) in [
            ("wormhole.insert_ns", Name::WormholeInsert),
            ("wormhole.del_ns", Name::WormholeDel),
            ("wormhole.overwrite_ns", Name::WormholeOverwrite),
            ("wormhole.scan_seek_ns", Name::WormholeScanSeek),
        ] {
            layers.set(metric, tracer.mean_ns(name));
        }
        layers.set(
            "wormhole.scan_ns_per_key",
            tracer.mean_ns(Name::WormholeScanDrain) / (SCAN_KEYS - 1) as f64,
        );
        layers.set(
            "client.self_ns_per_call",
            tracer.mean_self_ns(Name::ClientCall),
        );
        let loaded = self.stream.residents as u64;
        index.probe(tracer, layers, self.calls_done + loaded, self.user_bytes);
    }
}

/// `wh-durable.wal_self_ns_per_op`: what a call of the mix costs on the
/// durable store, its barrier included, beyond what the same call costs
/// on the bare index, from the medians of two traced passes' slices of
/// calls in one process.
pub fn wal_self_ns_per_op(durable: &[Slice], bare: &[Slice]) -> f64 {
    median_over(durable, CALLS, Slice::wall_ns_per_op)
        - median_over(bare, CALLS, Slice::wall_ns_per_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale { quick: true };

    fn scratch(tag: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn both_churn_workloads_walk_the_same_stream() {
        let bare = Churn::<Wormhole<u64>>::new(21, QUICK, scratch("unused"));
        let durable = Churn::<DurableWormhole<u64>>::new(21, QUICK, scratch("unused"));
        assert_eq!(bare.stream.hash, durable.stream.hash);
        assert_eq!(bare.stream.ops, durable.stream.ops);
        assert_eq!(bare.ring, durable.ring);
        let other = Churn::<Wormhole<u64>>::new(22, QUICK, scratch("unused"));
        assert_ne!(bare.stream.hash, other.stream.hash);
    }

    fn slices_then_verify<I: Target>(tag: &str) -> (u64, u64) {
        let mut churn = Churn::<I>::new(4, QUICK, scratch(tag));
        let mut laps = 0;
        churn.set_up(&mut || laps += 1);
        // `create`, three chunks of the 20 000 keys, barrier, end of round.
        assert_eq!(laps, 1 + 20_000usize.div_ceil(LOAD_CHUNK) + 2);
        churn.set_up_reference();
        let mut tracer = Tracer::new();
        let mut calls = Vec::new();
        let (mut failed, mut ends) = (0, 0);
        // More than a whole turn of the ring, so the stream wraps, and more
        // than a round.
        let turn = churn.stream.ops.len() / SLICE_CALLS;
        for n in 0..turn + SLICES_PER_ROUND as usize {
            let traced = n % 2 == 1;
            let mut slot = traced.then_some(&mut tracer);
            let done = churn.slice(&mut slot, &mut calls);
            let replay = churn.replay();
            assert_eq!((replay.ops, replay.wrong), (done.ops, 0));
            if done.kind == CALLS {
                assert_eq!(done.ops as usize, SLICE_CALLS);
            } else {
                assert_eq!((done.ops, done.attempted), (0, 0));
                ends += 1;
            }
            failed += done.failed;
        }
        assert_eq!(ends > 0, I::KINDS.len() > 1);
        assert!(!calls.is_empty());
        assert!(tracer.mean_ns(I::NAMES.insert) > 0.0);
        assert!(tracer.mean_self_ns(Name::ClientCall) > 0.0);
        let checked = churn.verify();
        (failed + checked.failed, checked.attempted)
    }

    #[test]
    fn bare_index_answers_every_call_as_the_stream_says() {
        let (failed, checked) = slices_then_verify::<Wormhole<u64>>("bare");
        assert_eq!(failed, 0);
        assert_eq!(checked, 20_000 + 1);
    }

    #[test]
    fn durable_store_answers_alike_and_survives_a_reopen() {
        let (failed, checked) = slices_then_verify::<DurableWormhole<u64>>("durable");
        assert_eq!(failed, 0);
        // Every resident key in memory, and again after the reopen.
        assert_eq!(checked, 2 * (20_000 + 1));
        assert!(!scratch("durable").exists(), "the store is removed");
    }

    #[test]
    fn a_lost_key_is_counted_as_failed() {
        let mut churn = Churn::<Wormhole<u64>>::new(4, QUICK, scratch("unused"));
        churn.set_up(&mut || ());
        // The oldest resident is the first key the stream deletes, and some
        // scan or overwrite may meet it before.
        churn.index.as_ref().unwrap().del(&churn.ring[0]);
        let done = churn.slice(&mut None, &mut Vec::new());
        assert!(done.failed >= 1);
    }
}
