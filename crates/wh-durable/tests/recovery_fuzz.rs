//! Crash-point fault-injection recovery harness.
//!
//! The differential argument: the *production* write path (the real
//! [`Wal`] with group commit) runs against a [`FailpointStorage`] that
//! crashes at a chosen byte offset; the surviving image is dropped into a
//! directory as a real segment file and recovered by the *production*
//! [`DurableWormhole::open`]; and the recovered state is compared against
//! an **independent** model — a from-scratch frame parser in this file
//! (sharing only the CRC primitive with the implementation) replaying the
//! committed prefix into a `BTreeMap`.
//!
//! Two sweeps:
//!
//! - [`crash_at_every_byte_boundary_recovers_committed_prefix`] cuts the
//!   full log image at **every byte offset** — the superset of every
//!   prefix a real crash can leave — and demands open() succeed and agree
//!   with the model at each cut.
//! - [`acknowledged_operations_survive_mid_append_crashes`] kills the
//!   storage *during* the run (both [`CrashMode`]s) and checks the
//!   durability contract proper: every operation acknowledged before the
//!   crash is present after recovery.
//!
//! [`crash_at_every_byte_of_a_reused_segment_recovers_its_own_prefix`]
//! repeats the first sweep in a reused segment file: behind each cut lie
//! the older segment's frames, complete, `Commit`s among them, and where
//! the cut falls inside a frame, that torn frame stands in front of them.
//! [`a_second_run_over_a_crashed_tail_recovers_both_runs`] opens a cut log
//! and writes over its uncommitted tail before a second crash.
//!
//! [`crash_states_around_the_spare_recover_the_committed_model`] then
//! builds the directory states a crash can leave around the spare
//! snapshot file (see `wh_durable::snapshot`) and checks that `open`
//! recovers the committed model, never from the spare, and that the next
//! checkpoint succeeds.
//!
//! Iteration counts scale with `WH_STRESS_MULT` for the nightly soak.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use index_traits::{ConcurrentOrderedIndex, DurableIndex};
use wh_durable::record::{encode_delete, encode_delete_range, encode_put};
use wh_durable::snapshot::{self, SnapshotWriter};
use wh_durable::{CrashMode, DurableOptions, DurableWormhole, FailpointStorage, SyncPolicy, Wal};
use wh_hash::crc32c;

fn stress_mult() -> u64 {
    std::env::var("WH_STRESS_MULT")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&m| m > 0)
        .unwrap_or(1)
}

/// Tiny deterministic RNG (xorshift64*) so every run replays the same
/// operation script without pulling in a seedable-RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[derive(Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    DeleteRange(Vec<u8>, Vec<u8>),
    /// Commit everything logged so far (an acknowledgement point).
    Commit,
}

/// A deterministic mixed workload over a small keyspace (so deletes and
/// range deletes actually hit), with commits at irregular intervals and a
/// deliberately uncommitted tail at the end.
fn workload(ops: usize) -> Vec<Op> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let key = |n: u64| format!("key-{:03}", n % 120).into_bytes();
    let mut script = Vec::with_capacity(ops + ops / 3);
    for i in 0..ops {
        let roll = rng.next() % 10;
        let k = key(rng.next());
        if roll < 6 {
            let value = format!("v{i}-{}", rng.next() % 1000).into_bytes();
            script.push(Op::Put(k, value));
        } else if roll < 8 {
            script.push(Op::Delete(k));
        } else {
            let lo = key(rng.next());
            let width = 1 + rng.next() % 9;
            let hi = format!(
                "key-{:03}",
                (String::from_utf8_lossy(&lo)[4..].parse::<u64>().unwrap() + width) % 120
            )
            .into_bytes();
            if lo < hi {
                script.push(Op::DeleteRange(lo, hi));
            } else {
                script.push(Op::DeleteRange(hi, lo));
            }
        }
        if rng.next().is_multiple_of(4) {
            script.push(Op::Commit);
        }
    }
    // End on logged-but-uncommitted operations so the torn tail is real.
    script.push(Op::Put(b"tail-a".to_vec(), b"uncommitted".to_vec()));
    script.push(Op::Put(b"tail-b".to_vec(), b"uncommitted".to_vec()));
    script
}

/// Independent replay of the committed prefix of a raw log image.
///
/// This parser is written from the on-disk spec (`wh_durable::record` docs
/// and its known-answer test), *not* from the implementation: frames are
/// `len | crc | payload`, a frame is valid when both fit and the CRC
/// matches, and an operation takes effect only when a later `Commit` frame
/// covers its LSN. Returns the modelled map and the committed LSN.
fn model_replay(image: &[u8]) -> (BTreeMap<Vec<u8>, Vec<u8>>, u64) {
    let mut map = BTreeMap::new();
    let mut pending: Vec<(u64, u8, Vec<u8>)> = Vec::new();
    let mut committed = 0u64;
    let mut pos = 0usize;
    loop {
        if image.len() - pos < 8 {
            break;
        }
        let len = u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(image[pos + 4..pos + 8].try_into().unwrap());
        if len > image.len() - pos - 8 {
            break;
        }
        let payload = &image[pos + 8..pos + 8 + len];
        if crc32c(payload) != crc || payload.len() < 9 {
            break;
        }
        let tag = payload[0];
        let lsn = u64::from_le_bytes(payload[1..9].try_into().unwrap());
        let body = payload[9..].to_vec();
        match tag {
            1..=3 => pending.push((lsn, tag, body)),
            4 => {
                for (op_lsn, op_tag, body) in pending.drain(..) {
                    assert!(op_lsn <= lsn, "commit frame does not cover logged op");
                    let chunk = |pos: &mut usize| {
                        let len =
                            u32::from_le_bytes(body[*pos..*pos + 4].try_into().unwrap()) as usize;
                        let out = body[*pos + 4..*pos + 4 + len].to_vec();
                        *pos += 4 + len;
                        out
                    };
                    let mut at = 0usize;
                    match op_tag {
                        1 => {
                            let key = chunk(&mut at);
                            let value = chunk(&mut at);
                            map.insert(key, value);
                        }
                        2 => {
                            map.remove(&chunk(&mut at));
                        }
                        3 => {
                            let lo = chunk(&mut at);
                            let hi = chunk(&mut at);
                            let doomed: Vec<Vec<u8>> =
                                map.range(lo..hi).map(|(k, _)| k.clone()).collect();
                            for k in doomed {
                                map.remove(&k);
                            }
                        }
                        _ => unreachable!(),
                    }
                }
                committed = committed.max(lsn);
            }
            _ => break,
        }
        pos += 8 + len;
    }
    (map, committed)
}

/// Runs the script through a production [`Wal`], whose first LSN is
/// `first_lsn`, on a failpoint storage. Returns the handle plus the
/// highest LSN *acknowledged* (a `Commit` step whose `commit()` returned
/// `Ok`) before the storage died.
fn run_script(
    script: &[Op],
    first_lsn: u64,
    kill_at: u64,
    mode: CrashMode,
) -> (wh_durable::FailpointHandle, u64) {
    let (storage, handle) = FailpointStorage::new(kill_at, mode);
    let wal = Wal::new(Box::new(storage), first_lsn);
    let mut acked = 0u64;
    for op in script {
        let outcome = match op {
            Op::Put(key, value) => {
                wal.log(|buf, lsn| {
                    encode_put(buf, lsn, key, value);
                    || ()
                });
                Ok(0)
            }
            Op::Delete(key) => {
                wal.log(|buf, lsn| {
                    encode_delete(buf, lsn, key);
                    || ()
                });
                Ok(0)
            }
            Op::DeleteRange(lo, hi) => {
                wal.log(|buf, lsn| {
                    encode_delete_range(buf, lsn, lo, hi);
                    || ()
                });
                Ok(0)
            }
            Op::Commit => wal.sync_all().map(|watermark| {
                acked = acked.max(watermark);
                0
            }),
        };
        if outcome.is_err() {
            break; // the crash point: the process would be gone here
        }
    }
    (handle, acked)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wh-recovery-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recovered pairs plus the committed LSN the open reported.
type Recovered = (Vec<(Vec<u8>, Vec<u8>)>, u64);

/// Recovers `image` as the segment whose first LSN is `first_lsn` in a
/// fresh directory through the production open path and returns the
/// recovered contents.
fn recover(dir: &PathBuf, first_lsn: u64, image: &[u8]) -> Recovered {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join(format!("wal-{first_lsn:020}.log")), image).unwrap();
    let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open(dir).unwrap();
    let state = idx.range_from(b"", usize::MAX);
    let committed = idx.recovery().committed_lsn;
    (state, committed)
}

#[test]
fn crash_at_every_byte_boundary_recovers_committed_prefix() {
    let ops = (60 * stress_mult()).min(600) as usize;
    let script = workload(ops);
    let (handle, _) = run_script(&script, 1, u64::MAX, CrashMode::KeepAll);
    let full = handle.surviving_bytes();
    assert!(full.len() > 500, "workload produced a trivially short log");

    let dir = fresh_dir("everybyte");
    let mut distinct_states = 0usize;
    let mut last_committed = u64::MAX;
    for cut in 0..=full.len() {
        let image = &full[..cut];
        let (expected, expected_committed) = model_replay(image);
        let (state, committed) = recover(&dir, 1, image);
        assert_eq!(
            committed, expected_committed,
            "committed LSN diverges at cut {cut}"
        );
        let expected: Vec<(Vec<u8>, Vec<u8>)> = expected.into_iter().collect();
        assert_eq!(state, expected, "recovered state diverges at cut {cut}");
        if committed != last_committed {
            distinct_states += 1;
            last_committed = committed;
        }
    }
    // The sweep must actually cross many commit horizons, or it tested
    // nothing but the empty log.
    assert!(
        distinct_states > ops / 8,
        "only {distinct_states} commit horizons crossed"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn acknowledged_operations_survive_mid_append_crashes() {
    let ops = (60 * stress_mult()).min(600) as usize;
    let script = workload(ops);
    let (probe, _) = run_script(&script, 1, u64::MAX, CrashMode::KeepAll);
    let total = probe.surviving_bytes().len() as u64;

    // Enough kill points to land inside many different frames and
    // commit batches, denser under the nightly soak.
    let samples = (150 * stress_mult()).min(total) as usize;
    let step = (total / samples as u64).max(1);
    let dir = fresh_dir("midappend");
    let mut crashed_runs = 0usize;
    for mode in [CrashMode::KeepAll, CrashMode::DropUnsynced] {
        let mut kill_at = 0u64;
        while kill_at < total {
            let (handle, acked) = run_script(&script, 1, kill_at, mode);
            crashed_runs += handle.is_dead() as usize;
            let image = handle.surviving_bytes();
            let (expected, expected_committed) = model_replay(&image);
            assert!(
                expected_committed >= acked,
                "acknowledged LSN {acked} not covered by surviving image \
                 (kill_at {kill_at}, {mode:?})"
            );
            let (state, committed) = recover(&dir, 1, &image);
            assert_eq!(
                committed, expected_committed,
                "committed LSN diverges (kill_at {kill_at}, {mode:?})"
            );
            let expected: Vec<(Vec<u8>, Vec<u8>)> = expected.into_iter().collect();
            assert_eq!(
                state, expected,
                "recovered state diverges (kill_at {kill_at}, {mode:?})"
            );
            kill_at += step;
        }
    }
    assert!(crashed_runs > 0, "no run actually hit its kill point");
    fs::remove_dir_all(&dir).unwrap();
}

/// A segment `wal-<first>` written into a reused file: the older segment
/// ran the same script plus a final commit, ending with `Commit(first - 1)`,
/// the tightest a reuse allows. Its frames have the new ones' sizes, so a cut
/// at a frame boundary has a complete older frame right behind it, and a
/// cut inside a frame leaves that torn frame in front of one. Recovery
/// must read the new bytes alone: the image as far as it equals the new
/// segment, replayed by the model.
#[test]
fn crash_at_every_byte_of_a_reused_segment_recovers_its_own_prefix() {
    let ops = (60 * stress_mult()).min(600) as usize;
    let script = workload(ops);
    let logged = script.iter().filter(|op| !matches!(op, Op::Commit)).count() as u64;
    let first = 1 << 20;
    let older: Vec<Op> = script.iter().cloned().chain([Op::Commit]).collect();
    let (old, _) = run_script(&older, first - logged, u64::MAX, CrashMode::KeepAll);
    let (new, _) = run_script(&script, first, u64::MAX, CrashMode::KeepAll);
    let (old, new) = (old.surviving_bytes(), new.surviving_bytes());
    // The older segment also sealed the script's unsealed tail.
    assert!(old.len() > new.len());
    assert_eq!(model_replay(&old).1, first - 1);

    let dir = fresh_dir("reused");
    let mut distinct_states = 0usize;
    let mut last_committed = u64::MAX;
    for cut in 0..=new.len() {
        let image = [&new[..cut], &old[cut..]].concat();
        let same = image.iter().zip(&new).take_while(|(a, b)| a == b).count();
        let (expected, expected_committed) = model_replay(&new[..same]);
        let (state, committed) = recover(&dir, first, &image);
        assert_eq!(committed, expected_committed, "cut {cut}");
        let expected: Vec<(Vec<u8>, Vec<u8>)> = expected.into_iter().collect();
        assert_eq!(state, expected, "recovered state diverges at cut {cut}");
        if committed != last_committed {
            distinct_states += 1;
            last_committed = committed;
        }
    }
    assert!(
        distinct_states > ops / 8,
        "only {distinct_states} commit horizons crossed"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// A second run over a crashed log. The log, cut as a crash leaves it,
/// is opened, and the script runs on from the first operation the cut
/// did not commit, each value's `v` made a `w`: its frames take the LSNs
/// and the sizes of the first run's frames past the last `Commit` and land
/// exactly over them. A reopen must hold the first run's committed state
/// with the second run's synced operations on top: what the second run
/// left of the first's tail, frames no `Commit` covers or a torn frame's
/// start, is never replayed.
#[test]
fn a_second_run_over_a_crashed_tail_recovers_both_runs() {
    let ops = (60 * stress_mult()).min(600) as usize;
    let script = workload(ops);
    let (handle, _) = run_script(&script, 1, u64::MAX, CrashMode::KeepAll);
    let full = handle.surviving_bytes();
    let options = DurableOptions {
        sync: SyncPolicy::Manual,
        ..DurableOptions::default()
    };
    let dir = fresh_dir("second-run");
    let step = (full.len() / (150 * stress_mult()) as usize).max(1);
    for cut in (0..=full.len()).step_by(step) {
        let (mut model, committed) = model_replay(&full[..cut]);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("wal-{:020}.log", 1)), &full[..cut]).unwrap();
        {
            let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, options).unwrap();
            let mut logged = 0;
            let rest = script.iter().skip_while(|op| {
                logged += u64::from(!matches!(op, Op::Commit));
                logged <= committed
            });
            let mut shadow = model.clone();
            for op in rest.take(25) {
                match op {
                    Op::Put(key, value) => {
                        let value: Vec<u8> = value
                            .iter()
                            .map(|&b| if b == b'v' { b'w' } else { b })
                            .collect();
                        idx.set(key, value.clone());
                        shadow.insert(key.clone(), value);
                    }
                    Op::Delete(key) => {
                        idx.del(key);
                        shadow.remove(key);
                    }
                    Op::DeleteRange(lo, hi) => {
                        idx.delete_range(lo, hi);
                        shadow.retain(|key, _| key < lo || key >= hi);
                    }
                    Op::Commit => {
                        idx.wal_sync().unwrap();
                        model = shadow.clone();
                    }
                }
            }
        } // the crash: what was not synced is gone
        let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(&dir, options).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(idx.range_from(b"", usize::MAX), expected, "cut {cut}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Runs a store through four checkpoints over a shrinking image, then a
/// synced tail and an unsynced one, and drops it (the crash). The spare
/// then holds the second image, the longest file in the directory.
/// Returns the committed state.
fn store_with_spare(dir: &Path) -> Model {
    let _ = fs::remove_dir_all(dir);
    let options = DurableOptions {
        sync: SyncPolicy::Manual,
        ..DurableOptions::default()
    };
    let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open_with(dir, options).unwrap();
    let mut model = Model::new();
    let mut rng = Rng(0xC0FF_EE00_5EED_0028);
    for round in 0..5u8 {
        for _ in 0..300 {
            let key = format!("key-{:03}", rng.next() % 120).into_bytes();
            if rng.next().is_multiple_of(6) {
                idx.del(&key);
                model.remove(&key);
            } else {
                let value = vec![b'a' + round; 2048 >> round];
                idx.set(&key, value.clone());
                model.insert(key, value);
            }
        }
        match round {
            0..4 => drop(idx.checkpoint().unwrap()),
            _ => drop(idx.wal_sync().unwrap()),
        }
    }
    idx.set(b"key-000", b"unsynced".to_vec());
    idx.del(b"key-001");
    model
}

fn tmp_files(dir: &Path) -> Vec<PathBuf> {
    let paths = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    paths
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .collect()
}

/// Opens a store in a crash state and demands exactly the committed
/// model, rebuilt from the newest snapshot (the spare is never loaded; a
/// listed spare would be tried first and skipped), no `*.tmp` left and
/// `spare` as the spare's bytes. Then a checkpoint must succeed and a
/// reopen still agree.
fn recover_around_the_spare(dir: &Path, mut model: Model, spare: &[u8], state: &str) {
    let newest = snapshot::list_snapshots(dir).unwrap()[0].clone();
    let newest = snapshot::covered_lsn_of(&newest).unwrap();
    {
        let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open(dir).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model.clone().into_iter().collect();
        assert_eq!(idx.range_from(b"", usize::MAX), expected, "{state}");
        assert_eq!(idx.recovery().snapshot_covered_lsn, newest, "{state}");
        assert_eq!(idx.recovery().skipped_snapshots, 0, "{state}");
        assert_eq!(tmp_files(dir), Vec::<PathBuf>::new(), "{state}");
        let kept = fs::read(dir.join(snapshot::SPARE)).unwrap();
        assert!(kept == spare, "{state}: the wrong file became the spare");
        idx.set(b"key-after", b"checkpoint".to_vec());
        model.insert(b"key-after".to_vec(), b"checkpoint".to_vec());
        idx.checkpoint().unwrap();
    }
    let idx: DurableWormhole<Vec<u8>> = DurableWormhole::open(dir).unwrap();
    let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(idx.range_from(b"", usize::MAX), expected, "{state}");
    assert_eq!(idx.recovery().replayed_operations, 0, "{state}");
    assert_eq!(snapshot::list_snapshots(dir).unwrap().len(), 2, "{state}");
    assert!(dir.join(snapshot::SPARE).exists(), "{state}");
}

#[test]
fn crash_states_around_the_spare_recover_the_committed_model() {
    let dir = fresh_dir("spare");
    let spare = dir.join(snapshot::SPARE);

    // A spare holding a complete, valid, older image: it loads under the
    // name its header gives it.
    let model = store_with_spare(&dir);
    let image = fs::read(&spare).unwrap();
    let lsn = u64::from_le_bytes(image[8..16].try_into().unwrap());
    let check = fresh_dir("spare-image");
    fs::write(snapshot::snapshot_path(&check, lsn), &image).unwrap();
    assert!(snapshot::load_snapshot(&snapshot::snapshot_path(&check, lsn)).is_ok());
    fs::remove_dir_all(&check).unwrap();
    recover_around_the_spare(&dir, model, &image, "valid spare");

    // A spare and a leftover `*.tmp` (a copy of the newest snapshot) both
    // present: the tmp goes, the spare stays.
    let model = store_with_spare(&dir);
    let image = fs::read(&spare).unwrap();
    let newest = &snapshot::list_snapshots(&dir).unwrap()[0];
    fs::copy(newest, dir.join(format!("snap-{:020}.tmp", u64::MAX))).unwrap();
    recover_around_the_spare(&dir, model, &image, "spare and tmp");

    // The spare renamed to a checkpoint's `*.tmp` by the production writer,
    // with nothing, then one chunk, of a new image written over it: the
    // tmp becomes the spare again.
    for records in [0usize, 70] {
        let model = store_with_spare(&dir);
        let old_len = fs::metadata(&spare).unwrap().len();
        let final_path = snapshot::snapshot_path(&dir, u64::MAX - 1);
        let mut writer = SnapshotWriter::create(&final_path, u64::MAX - 1).unwrap();
        for i in 0..records {
            let key = format!("key-{i:03}");
            writer
                .push(key.as_bytes(), |out| out.extend_from_slice(&[b'!'; 1000]))
                .unwrap();
        }
        drop(writer); // the crash: no count, no CRC, no cut
        assert!(!spare.exists());
        let half = fs::read(final_path.with_extension("tmp")).unwrap();
        assert_eq!(half.len() as u64, old_len, "the old image is longer");
        assert_eq!(half[8..16] == (u64::MAX - 1).to_le_bytes(), records > 0);
        recover_around_the_spare(&dir, model, &half, &format!("half-written {records}"));
    }
    fs::remove_dir_all(&dir).unwrap();
}
