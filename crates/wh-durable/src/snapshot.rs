//! Crash-consistent snapshot files.
//!
//! A snapshot is the full key/value image of the index at (or after) a
//! known WAL position, written with the strict publish ordering that
//! makes a crash at *any* point leave either the old snapshot set or the
//! new one — never a half-visible file:
//!
//! 1. stream the records into a **temp file** (`*.tmp`),
//! 2. `fdatasync` the temp file so every data byte (and its length) is on
//!    the medium,
//! 3. **atomic rename** to the final `snap-<lsn>.snap` name,
//! 4. `fsync` the directory so the rename itself survives.
//!
//! The rename is the publish step — a reader either sees the complete,
//! CRC-verified file under its final name or does not see it at all
//! (ADR-0003's records → links → header-publish discipline, with the
//! directory entry playing the header's role).
//!
//! On-disk layout:
//!
//! ```text
//! magic "WHSNAP01" (8) | covered_lsn u64le |
//! records: (klen u32le | key | vlen u32le | value)* |
//! count u64le | crc u32le
//! ```
//!
//! `crc` is the CRC-32c of every preceding byte, so torn or bit-rotted
//! snapshot files are rejected as a whole and recovery falls back to the
//! next-older one. `covered_lsn` keys WAL truncation: WAL segments whose
//! every record has `lsn <= covered_lsn` are redundant once the snapshot
//! is published; [`load_snapshot`] also checks it against the LSN that
//! [`list_lsn_files`] parsed from the file's name.
//!
//! A superseded snapshot is not unlinked but [`retire`]d as the directory's
//! one [`SPARE`]. [`SnapshotWriter::create`] opens its `*.tmp` through
//! [`FileStorage::reuse`], as a rotation opens a WAL segment: the spare
//! renamed in, or a `*.tmp` a failed checkpoint left, is overwritten from
//! offset 0 and cut to the image's length. Its stale `covered_lsn` matches
//! no name the spare could be published under.
//!
//! [`SnapshotWriter`] encodes each record straight into one 64 KiB chunk
//! (the value by its own encoder, its length patched in after it) on the
//! caller's thread, and sends each full chunk down a
//! [`sync_channel`](std::sync::mpsc::sync_channel) of `QUEUED` (4) to one
//! writer thread of its own, which gives it one CRC update and one append
//! to the image's [`Storage`]: the file, or in tests a sink that fails
//! partway. The scan never waits for the disk unless the writer falls
//! `QUEUED` chunks behind. [`load_snapshot`] validates a whole file, then
//! [`SnapshotData::records`] reads the pairs in place.
//!
//! Each further MiB written (`WRITEBACK`), the writer thread asks the
//! kernel to start writing it back ([`Storage::start_writeback`]), so the
//! medium works while the scan goes on and step 2's `fdatasync` waits only
//! for the last stretch. The hint makes nothing durable:
//! [`SealedSnapshot::sync_all`] stays the barrier. An error from it fails
//! the write as a failed write does: the writer thread returns and drops
//! the channel's receiver, the next [`SnapshotWriter::push`] (whose send
//! fails) or [`SnapshotWriter::finish`] joins it and returns the error,
//! and the checkpoint publishes nothing.
//!
//! [`retire`]: crate::storage::retire
//! [`list_lsn_files`]: crate::storage::list_lsn_files

use std::fs;
use std::io;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

use wh_hash::crc32c_append;

use crate::record::{push_bytes, push_sized, take_sized};
use crate::storage::{sync_dir, FileStorage, Storage};

/// Snapshot file magic (8 bytes, includes a format version).
pub const SNAP_MAGIC: &[u8; 8] = b"WHSNAP01";

/// The spare's file name: neither `snap-*.snap` nor `*.tmp`, so never loaded.
pub const SPARE: &str = "snapshot.spare";

/// The writer's chunk: 64 KiB, under glibc's 128 KiB mmap threshold. It
/// is handed off once past 60 KiB, so a record up to 4 KiB never grows it.
const CHUNK: usize = 64 << 10;

/// Full chunks that may wait for the writer thread before a hand-off
/// blocks the scan: with the one it writes and the one the scan fills, at
/// most six are in flight.
const QUEUED: usize = 4;

/// Bytes the writer lets accumulate before it asks the kernel to start
/// their writeback.
pub(crate) const WRITEBACK: u64 = 1 << 20;

/// What the writer thread hands back once its queue is closed and drained:
/// the image's storage and the CRC-32c of every byte written.
type Drained = io::Result<(Box<dyn Storage>, u32)>;

/// Streams a snapshot into a temp file next to its final name. The
/// records may come from a live cursor: the snapshot is *fuzzy*, and
/// replaying the WAL from `covered_lsn + 1` converges ([`crate::durable`]).
///
/// Records are encoded on the caller's thread; the CRC, the writes and
/// the writeback hints run on the writer's own thread, which
/// [`finish`](Self::finish), a failed [`push`](Self::push) and `Drop` join.
pub struct SnapshotWriter {
    chunk: Vec<u8>,
    count: u64,
    /// The sending end of the writer thread's queue; dropping it closes
    /// the queue.
    queue: Option<SyncSender<Vec<u8>>>,
    /// The writer thread, until it is joined.
    thread: Option<JoinHandle<Drained>>,
}

impl SnapshotWriter {
    /// Opens `final_path`'s temp file, `*.tmp`, through
    /// [`FileStorage::reuse`] and starts the image with its header.
    pub fn create(final_path: &Path, covered_lsn: u64) -> io::Result<Self> {
        let tmp = final_path.with_extension("tmp");
        let sink: Box<dyn Storage> = Box::new(FileStorage::reuse(&tmp, SPARE, 0)?);
        #[cfg(test)]
        let sink = tests::with_armed_fault(sink);
        let (queue, chunks) = mpsc::sync_channel(QUEUED);
        let thread = std::thread::Builder::new()
            .name("wh-snapshot".into())
            .spawn(move || write_chunks(sink, chunks))?;
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.extend_from_slice(SNAP_MAGIC);
        chunk.extend_from_slice(&covered_lsn.to_le_bytes());
        Ok(Self {
            chunk,
            count: 0,
            queue: Some(queue),
            thread: Some(thread),
        })
    }

    /// Appends one record; `value` writes the value's encoding in place.
    /// Returns the writer thread's error once it has stopped on one.
    pub fn push(&mut self, key: &[u8], value: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        push_bytes(&mut self.chunk, key);
        push_sized(&mut self.chunk, value);
        self.count += 1;
        if self.chunk.len() > CHUNK - (4 << 10) {
            let full = std::mem::replace(&mut self.chunk, Vec::with_capacity(CHUNK));
            let queue = self.queue.as_ref();
            if queue.is_none_or(|queue| queue.send(full).is_err()) {
                // The writer thread stopped before the scan did: on an error.
                return Err(match self.drain() {
                    Ok(_) => io::Error::other("snapshot writer stopped"),
                    Err(e) => e,
                });
            }
        }
        Ok(())
    }

    /// Closes the queue and joins the writer thread: what it wrote, or the
    /// error that stopped it. A panic on the thread resumes here.
    fn drain(&mut self) -> Drained {
        self.queue = None;
        let thread = self
            .thread
            .take()
            .ok_or_else(|| io::Error::other("snapshot writer stopped"))?;
        thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Waits for the writer thread to write every queued chunk, then ends
    /// the image with its count and CRC and cuts a longer spare's tail.
    /// The image is written, not yet durable, and not published.
    pub fn finish(mut self) -> io::Result<SealedSnapshot> {
        let mut tail = std::mem::take(&mut self.chunk);
        tail.extend_from_slice(&self.count.to_le_bytes());
        let (mut sink, crc) = self.drain()?;
        let crc = crc32c_append(crc, &tail);
        tail.extend_from_slice(&crc.to_le_bytes());
        sink.append(&tail)?;
        sink.cut()?;
        Ok(SealedSnapshot(sink))
    }
}

impl Drop for SnapshotWriter {
    /// An abandoned image: no writer thread outlives its writer.
    fn drop(&mut self) {
        self.queue = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The writer thread: each chunk's CRC update, its append and, each further
/// [`WRITEBACK`] bytes, the writeback hint, until the queue is closed and
/// empty or a write fails. Returning or unwinding drops `chunks`, which
/// fails the next send.
fn write_chunks(mut sink: Box<dyn Storage>, chunks: Receiver<Vec<u8>>) -> Drained {
    let (mut crc, mut hinted) = (0, 0);
    for chunk in chunks {
        crc = crc32c_append(crc, &chunk);
        sink.append(&chunk)?;
        if sink.len() - hinted >= WRITEBACK {
            sink.start_writeback(hinted)?;
            hinted = sink.len();
        }
    }
    Ok((sink, crc))
}

/// A snapshot image written whole into its temp file, not yet synced.
#[must_use = "an image is durable only once synced"]
pub struct SealedSnapshot(Box<dyn Storage>);

impl SealedSnapshot {
    /// Syncs the image (`fdatasync`, which also covers the cut's new
    /// length), but does **not** publish: checkpointing uses the gap to
    /// commit the WAL through everything the fuzzy scan may have observed
    /// *before* the snapshot becomes load-bearing ([`publish_snapshot`]).
    pub fn sync_all(mut self) -> io::Result<()> {
        // Every data byte is durable before the final name can exist.
        self.0.sync()
    }
}

/// The publish half of a snapshot: atomic rename of the temp file to
/// `final_path`, then a directory fsync so the rename itself survives. The
/// temp file must already be fully synced ([`SealedSnapshot::sync_all`]).
pub fn publish_snapshot(final_path: &Path) -> io::Result<()> {
    fs::rename(final_path.with_extension("tmp"), final_path)?;
    sync_dir(final_path.parent().unwrap_or(Path::new(".")))
}

/// A fully validated snapshot file, held whole.
pub struct SnapshotData {
    /// Every WAL record with `lsn <= covered_lsn` is reflected in (or
    /// superseded by) this snapshot.
    pub covered_lsn: u64,
    /// Number of records in the image.
    pub count: u64,
    bytes: Vec<u8>,
}

impl SnapshotData {
    /// The `(key, encoded value)` pairs, borrowed from the file in the
    /// order the cursor emitted them (sorted for a quiescent index).
    pub fn records(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let mut rest = &self.bytes[16..self.bytes.len() - 12];
        std::iter::from_fn(move || split_record(&mut rest))
    }
}

/// Splits `klen | key | vlen | value` off the front of `rest`.
fn split_record<'a>(rest: &mut &'a [u8]) -> Option<(&'a [u8], &'a [u8])> {
    Some((take_sized(rest)?, take_sized(rest)?))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {msg}"))
}

/// Reads and fully validates the snapshot file at `path`, whose name gives
/// `covered_lsn`. Any defect — short file, bad magic, another
/// `covered_lsn` in the header, bad CRC, count mismatch — is an error; the
/// caller treats the file as absent and falls back to an older one.
pub fn load_snapshot(path: &Path, covered_lsn: u64) -> io::Result<SnapshotData> {
    let buf = fs::read(path)?;
    if buf.len() < SNAP_MAGIC.len() + 8 + 8 + 4 {
        return Err(bad("truncated header"));
    }
    if &buf[..8] != SNAP_MAGIC {
        return Err(bad("bad magic"));
    }
    if buf[8..16] != covered_lsn.to_le_bytes() {
        return Err(bad("covered_lsn differs from the file name"));
    }
    let body_len = buf.len() - 4;
    let crc = u32::from_le_bytes(buf[body_len..].try_into().unwrap());
    if crc32c_append(0, &buf[..body_len]) != crc {
        return Err(bad("bad crc"));
    }
    let mut rest = &buf[16..body_len - 8];
    let mut records = 0u64;
    while !rest.is_empty() {
        split_record(&mut rest).ok_or_else(|| bad("record overruns body"))?;
        records += 1;
    }
    let count = u64::from_le_bytes(buf[body_len - 8..body_len].try_into().unwrap());
    if records != count {
        return Err(bad("record count mismatch"));
    }
    Ok(SnapshotData {
        covered_lsn,
        count,
        bytes: buf,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::{list_lsn_files, lsn_path};
    use std::cell::RefCell;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    thread_local! {
        /// The fault the next image this thread creates writes through.
        static ARMED: RefCell<Option<(u64, Arc<AtomicBool>)>> = const { RefCell::new(None) };
    }

    /// Makes the next image this thread's [`SnapshotWriter::create`] opens
    /// fail once `room` bytes are written, as a full disk would. The flag
    /// turns true when the sink is dropped, a moment late: by the writer
    /// thread, or by `finish` for a fault in the tail. A writer that
    /// returned without joining its thread would leave it false.
    pub(crate) fn fail_next_image_after(room: u64) -> Arc<AtomicBool> {
        let dropped = Arc::new(AtomicBool::new(false));
        ARMED.set(Some((room, Arc::clone(&dropped))));
        dropped
    }

    pub(super) fn with_armed_fault(sink: Box<dyn Storage>) -> Box<dyn Storage> {
        match ARMED.take() {
            Some((room, dropped)) => Box::new(Failing {
                sink,
                room,
                dropped,
            }),
            None => sink,
        }
    }

    /// A sink that writes `room` bytes more, then fails each write.
    struct Failing {
        sink: Box<dyn Storage>,
        room: u64,
        dropped: Arc<AtomicBool>,
    }

    impl Storage for Failing {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            let fits = data.len().min(self.room as usize);
            self.sink.append(&data[..fits])?;
            self.room -= fits as u64;
            if fits < data.len() {
                return Err(io::Error::other("injected fault: no space left"));
            }
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            self.sink.sync()
        }

        fn len(&self) -> u64 {
            self.sink.len()
        }

        fn start_writeback(&mut self, from: u64) -> io::Result<()> {
            self.sink.start_writeback(from)
        }

        fn cut(&mut self) -> io::Result<()> {
            self.sink.cut()
        }
    }

    impl Drop for Failing {
        fn drop(&mut self) {
            std::thread::sleep(std::time::Duration::from_millis(50));
            self.dropped.store(true, Ordering::Release);
        }
    }

    /// A write that fails partway fails the image: the writer thread stops,
    /// the next `push` or `finish` joins it and returns its error. The last
    /// `room` lets every record through and fails in the count, which
    /// `finish` writes on the caller's thread after the join.
    #[test]
    fn a_write_that_fails_partway_is_returned_after_the_join() {
        let dir = tmp_dir("fault");
        let records = 16 + 1_000 * (4 + 8 + 4 + 1_000);
        for room in [0, 100, 3 * CHUNK as u64 + 5, records + 5] {
            let path = snapshot_path(&dir, 5);
            let dropped = fail_next_image_after(room);
            let mut writer = SnapshotWriter::create(&path, 5).unwrap();
            let mut failed = None;
            for i in 0..1_000 {
                let key = format!("key-{i:04}");
                if let Err(e) = writer.push(key.as_bytes(), |out| out.extend([7; 1000])) {
                    failed = Some(e);
                    break;
                }
            }
            let error = match failed {
                Some(e) => e,
                None => writer.finish().err().expect("the image fails"),
            };
            assert!(error.to_string().contains("injected"), "{room}: {error}");
            assert!(dropped.load(Ordering::Acquire), "{room}: thread not joined");
            let written = fs::metadata(path.with_extension("tmp")).unwrap().len();
            assert_eq!(written, room, "{room}");
            fs::remove_file(path.with_extension("tmp")).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    fn snapshot_path(dir: &Path, covered_lsn: u64) -> PathBuf {
        lsn_path(dir, "snap-", covered_lsn, ".snap")
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wh-durable-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes and publishes `records` through the one writer.
    fn write_snapshot<K: AsRef<[u8]>, B: AsRef<[u8]>>(
        final_path: &Path,
        covered_lsn: u64,
        records: impl Iterator<Item = (K, B)>,
    ) -> io::Result<()> {
        let mut writer = SnapshotWriter::create(final_path, covered_lsn)?;
        for (key, value) in records {
            writer.push(key.as_ref(), |out| out.extend_from_slice(value.as_ref()))?;
        }
        writer.finish()?.sync_all()?;
        publish_snapshot(final_path)
    }

    #[test]
    fn roundtrip_preserves_records_and_lsn() {
        let dir = tmp_dir("roundtrip");
        let path = snapshot_path(&dir, 42);
        let records: [(&[u8], &[u8]); 3] = [(b"alpha", b"1"), (b"beta", b""), (b"", b"empty-key")];
        write_snapshot(&path, 42, records.into_iter()).unwrap();
        let snap = load_snapshot(&path, 42).unwrap();
        assert_eq!(snap.covered_lsn, 42);
        assert_eq!(snap.count, 3);
        assert!(snap.records().eq(records));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Known-answer file: the exact WHSNAP01 bytes (including the CRC) of
    /// a fixed image. This pins the snapshot format the way
    /// `record::tests::known_answer_frames` pins the WAL's.
    #[test]
    fn known_answer_snapshot_bytes() {
        let dir = tmp_dir("kat");
        let path = snapshot_path(&dir, 0x0102_0304_0506_0708);
        let records = vec![
            (Vec::new(), Vec::new()),
            (b"K".to_vec(), b"V".to_vec()),
            (b"key".to_vec(), 7u64.to_le_bytes().to_vec()),
        ];
        write_snapshot(&path, 0x0102_0304_0506_0708, records.into_iter()).unwrap();
        #[rustfmt::skip]
        let expected: &[u8] = &[
            b'W', b'H', b'S', b'N', b'A', b'P', b'0', b'1', // magic
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // covered_lsn
            0, 0, 0, 0, 0, 0, 0, 0,                         // "" -> ""
            1, 0, 0, 0, b'K', 1, 0, 0, 0, b'V',             // "K" -> "V"
            3, 0, 0, 0, b'k', b'e', b'y',                   // "key" ->
            8, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0,             //   7u64
            3, 0, 0, 0, 0, 0, 0, 0,                         // count
            0xCB, 0x4C, 0xDF, 0x9C,                         // crc
        ];
        assert_eq!(fs::read(&path).unwrap(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let dir = tmp_dir("corrupt");
        let path = snapshot_path(&dir, 7);
        write_snapshot(&path, 7, vec![(b"k".to_vec(), b"v".to_vec())].into_iter()).unwrap();
        let clean = fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            fs::write(&path, &bad).unwrap();
            assert!(
                load_snapshot(&path, 7).is_err(),
                "flip at byte {i} accepted"
            );
        }
        // Truncation at every point is also rejected.
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                load_snapshot(&path, 7).is_err(),
                "truncation at {cut} accepted"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_valid_image_under_another_name_is_rejected() {
        let dir = tmp_dir("name");
        let path = snapshot_path(&dir, 7);
        write_snapshot(&path, 7, [(b"k", b"v")].into_iter()).unwrap();
        for lsn in [8, 6] {
            let other = snapshot_path(&dir, lsn);
            fs::rename(&path, &other).unwrap();
            assert!(load_snapshot(&other, lsn).is_err(), "{other:?} accepted");
            fs::rename(&other, &path).unwrap();
        }
        assert_eq!(load_snapshot(&path, 7).unwrap().covered_lsn, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Arbitrary bytes, and valid images corrupted or cut and then given a
    /// fresh CRC (so the record walk and the count check are what must
    /// reject them): every load errors or returns an image whose walk
    /// covers its body in exactly `count` records. None panics.
    #[test]
    fn hostile_bytes_error_or_walk_consistently() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let dir = tmp_dir("hostile");
        let path = snapshot_path(&dir, 9);
        let mut rng = SmallRng::seed_from_u64(0x5EED_0009);
        let bytes_of = |rng: &mut SmallRng, max: usize| -> Vec<u8> {
            let len = rng.gen_range(0..max);
            (0..len).map(|_| rng.gen::<u8>()).collect()
        };
        let templates: Vec<Vec<u8>> = (0..8)
            .map(|_| {
                let records: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.gen_range(0..6))
                    .map(|_| (bytes_of(&mut rng, 12), bytes_of(&mut rng, 20)))
                    .collect();
                write_snapshot(&path, 9, records.into_iter()).unwrap();
                fs::read(&path).unwrap()
            })
            .collect();
        let header = [SNAP_MAGIC.as_slice(), &9u64.to_le_bytes()].concat();
        let seal = |mut body: Vec<u8>| {
            let crc = crc32c_append(0, &body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..2_000 {
            let image = &templates[rng.gen_range(0..templates.len())];
            let body = &image[16..image.len() - 4];
            let bytes = match case % 4 {
                0 => bytes_of(&mut rng, 120),
                1 => seal([header.clone(), bytes_of(&mut rng, 120)].concat()),
                2 => {
                    let mut body = body.to_vec();
                    for _ in 0..rng.gen_range(1..4) {
                        let at = rng.gen_range(0..body.len());
                        body[at] ^= rng.gen_range(1..=255u8);
                    }
                    seal([header.clone(), body].concat())
                }
                _ => {
                    let cut = rng.gen_range(0..body.len());
                    let tail = bytes_of(&mut rng, 24);
                    seal([header.clone(), body[..cut].to_vec(), tail].concat())
                }
            };
            // Overwritten in place: truncating to zero first costs a flush
            // on ext4 per case.
            let mut file = OpenOptions::new().write(true).open(&path).unwrap();
            file.write_all(&bytes).unwrap();
            file.set_len(bytes.len() as u64).unwrap();
            drop(file);
            let Ok(snap) = load_snapshot(&path, 9) else {
                rejected += 1;
                continue;
            };
            accepted += 1;
            let walked: Vec<(&[u8], &[u8])> = snap.records().collect();
            assert_eq!(walked.len() as u64, snap.count, "case {case}");
            let walked_len: usize = walked.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
            assert_eq!(walked_len, bytes.len() - 28, "case {case}");
        }
        // Both outcomes occur: the cases reach past the CRC check.
        assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_orders_by_lsn_and_ignores_tmp_and_spare() {
        let dir = tmp_dir("list");
        for lsn in [5u64, 999, 70] {
            let none = std::iter::empty::<(&[u8], &[u8])>();
            write_snapshot(&snapshot_path(&dir, lsn), lsn, none).unwrap();
        }
        fs::write(dir.join("snap-junk.tmp"), b"partial").unwrap();
        fs::copy(snapshot_path(&dir, 999), dir.join(SPARE)).unwrap();
        let snaps = list_lsn_files(&dir, "snap-", ".snap").unwrap();
        let lsns: Vec<u64> = snaps
            .iter()
            .map(|(lsn, p)| load_snapshot(p, *lsn).unwrap().covered_lsn)
            .collect();
        assert_eq!(lsns, vec![5, 70, 999]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
