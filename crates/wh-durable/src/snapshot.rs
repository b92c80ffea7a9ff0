//! Crash-consistent snapshot files.
//!
//! A snapshot is the full key/value image of the index at (or after) a
//! known WAL position, written with the strict publish ordering that
//! makes a crash at *any* point leave either the old snapshot set or the
//! new one — never a half-visible file:
//!
//! 1. stream the records into a **temp file** (`*.tmp`),
//! 2. `fsync` the temp file so every data byte is on the medium,
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
//! is published; [`load_snapshot`] also checks it against the file name.
//!
//! A superseded snapshot is not unlinked but [`retire`]d as the directory's
//! one [`SPARE`]. The next writer renames the spare to its `*.tmp`,
//! overwrites it from offset 0 and cuts it to length: blocks are reused, not
//! freed (an ext4 `discard` mount charged 30–45 ms per MB freed). Its stale
//! `covered_lsn` matches no name the spare could be published under.
//!
//! [`SnapshotWriter`] encodes each record straight into one 64 KiB chunk
//! (the value by its own encoder, its length patched in after it) on the
//! caller's thread, and hands each full chunk to one writer thread of its
//! own, which gives it one CRC update and one write into a
//! `SnapshotSink`: the file, or in tests a sink that fails partway. The
//! scan never waits for the disk unless the writer falls `QUEUED` chunks
//! behind. [`load_snapshot`] validates a whole file, then
//! [`SnapshotData::records`] reads the pairs in place.
//!
//! Each further MiB written (`WRITEBACK`), the writer thread asks the
//! kernel to start writing it back (`sync_file_range(SYNC_FILE_RANGE_WRITE)`
//! on Linux, nothing elsewhere), so the medium works while the scan goes
//! on and step 2's fsync waits only for the last stretch. The hint makes
//! nothing durable: [`SealedSnapshot::sync_all`] stays the barrier. An
//! error from it fails the write as a failed write does: the writer thread
//! stops, the next [`SnapshotWriter::push`] or [`SnapshotWriter::finish`]
//! joins it and returns the error, and the checkpoint publishes nothing.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use wh_hash::crc32c_append;

use crate::record::{push_bytes, push_sized, take_sized};

/// Snapshot file magic (8 bytes, includes a format version).
pub const SNAP_MAGIC: &[u8; 8] = b"WHSNAP01";

/// The spare's file name: neither `snap-*.snap` nor `*.tmp`, so never loaded.
pub const SPARE: &str = "snapshot.spare";

/// The writer's chunk: 64 KiB, under glibc's 128 KiB mmap threshold. It
/// is handed off once past 60 KiB, so a record up to 4 KiB never grows it.
const CHUNK: usize = 64 << 10;

/// Full chunks that may wait for the writer thread before a hand-off
/// blocks the scan.
const QUEUED: usize = 4;

/// Bytes the writer lets accumulate before it asks the kernel to start
/// their writeback.
pub(crate) const WRITEBACK: u64 = 1 << 20;

/// Where a snapshot image's bytes go: the seam the writer thread writes
/// through, as [`crate::WalStorage`] is the log's. The file implements it;
/// a test can put a sink that fails partway in its place.
pub(crate) trait SnapshotSink: Send {
    /// Writes `data` behind every byte already written.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Asks for the writeback of `len` bytes from `offset` to start; makes
    /// nothing durable.
    fn start_writeback(&mut self, offset: u64, len: u64) -> io::Result<()>;
    /// Cuts the sink to `len` bytes: a reused spare may be longer than the
    /// image.
    fn cut(&mut self, len: u64) -> io::Result<()>;
    /// Durability barrier: every byte written survives a crash once this
    /// returns.
    fn sync(&mut self) -> io::Result<()>;
}

impl SnapshotSink for File {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.write_all(data)
    }

    fn start_writeback(&mut self, offset: u64, len: u64) -> io::Result<()> {
        start_writeback(self, offset, len)
    }

    fn cut(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

/// What the writer thread hands back once its queue is closed and drained.
struct Written {
    sink: Box<dyn SnapshotSink>,
    /// CRC-32c of every byte written.
    crc: u32,
    /// Bytes written.
    len: u64,
}

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
    queue: Arc<Queue>,
    /// The writer thread, until it is joined.
    thread: Option<JoinHandle<io::Result<Written>>>,
}

impl SnapshotWriter {
    /// Opens `final_path`'s temp file, `*.tmp` — the directory's spare
    /// renamed, else a fresh file — and starts the image with its header.
    pub fn create(final_path: &Path, covered_lsn: u64) -> io::Result<Self> {
        let tmp = final_path.with_extension("tmp");
        let file = match fs::rename(final_path.with_file_name(SPARE), &tmp) {
            Ok(()) => OpenOptions::new().write(true).open(&tmp)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => File::create(&tmp)?,
            Err(e) => return Err(e),
        };
        let sink: Box<dyn SnapshotSink> = Box::new(file);
        #[cfg(test)]
        let sink = tests::with_armed_fault(sink);
        let queue = Arc::new(Queue::default());
        let end = WriterEnd(Arc::clone(&queue));
        let thread = std::thread::Builder::new()
            .name("wh-snapshot".into())
            .spawn(move || write_chunks(sink, &end.0))?;
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.extend_from_slice(SNAP_MAGIC);
        chunk.extend_from_slice(&covered_lsn.to_le_bytes());
        Ok(Self {
            chunk,
            count: 0,
            queue,
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
            if !self.queue.put(full) {
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
    fn drain(&mut self) -> io::Result<Written> {
        self.queue.close();
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
        let Written { mut sink, crc, len } = self.drain()?;
        let crc = crc32c_append(crc, &tail);
        tail.extend_from_slice(&crc.to_le_bytes());
        sink.append(&tail)?;
        sink.cut(len + tail.len() as u64)?;
        Ok(SealedSnapshot(sink))
    }
}

impl Drop for SnapshotWriter {
    /// An abandoned image: no writer thread outlives its writer.
    fn drop(&mut self) {
        self.queue.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The writer thread: each chunk's CRC update, its write and, each further
/// [`WRITEBACK`] bytes, the writeback hint, until the queue is closed and
/// empty or a write fails.
fn write_chunks(mut sink: Box<dyn SnapshotSink>, queue: &Queue) -> io::Result<Written> {
    let (mut crc, mut len, mut unhinted) = (0, 0, 0);
    while let Some(chunk) = queue.take() {
        crc = crc32c_append(crc, &chunk);
        sink.append(&chunk)?;
        len += chunk.len() as u64;
        if len - unhinted >= WRITEBACK {
            sink.start_writeback(unhinted, len - unhinted)?;
            unhinted = len;
        }
    }
    Ok(Written { sink, crc, len })
}

/// The hand-off from the scan to the writer thread: up to [`QUEUED`] full
/// chunks behind a lock, whose ThreadSanitizer annotations (the
/// `parking_lot` shim's) also order each chunk's bytes with their reader.
#[derive(Default)]
struct Queue {
    state: Mutex<Handoff>,
    /// Signalled on each change of `state`; only the other side waits.
    changed: Condvar,
}

#[derive(Default)]
struct Handoff {
    chunks: VecDeque<Vec<u8>>,
    /// No chunk follows: the writer thread ends once `chunks` is empty.
    closed: bool,
    /// The writer thread has returned or unwound: no chunk is taken.
    stopped: bool,
}

impl Queue {
    /// Queues a full chunk, waiting while [`QUEUED`] are; `false` once the
    /// writer thread has stopped.
    fn put(&self, chunk: Vec<u8>) -> bool {
        let mut state = self.state.lock();
        while state.chunks.len() >= QUEUED && !state.stopped {
            self.changed.wait(&mut state);
        }
        let taken = !state.stopped;
        if taken {
            state.chunks.push_back(chunk);
        }
        drop(state);
        self.changed.notify_one();
        taken
    }

    /// The next chunk, waiting for one; `None` once closed and empty.
    fn take(&self) -> Option<Vec<u8>> {
        let mut state = self.state.lock();
        while state.chunks.is_empty() && !state.closed {
            self.changed.wait(&mut state);
        }
        let chunk = state.chunks.pop_front();
        drop(state);
        self.changed.notify_one();
        chunk
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_one();
    }
}

/// The writer thread's hold on the queue: dropped when the thread returns
/// or unwinds, which tells a waiting [`Queue::put`] that it has stopped.
struct WriterEnd(Arc<Queue>);

impl Drop for WriterEnd {
    fn drop(&mut self) {
        self.0.state.lock().stopped = true;
        self.0.changed.notify_one();
    }
}

/// A snapshot image written whole into its temp file, not yet synced.
#[must_use = "an image is durable only once synced"]
pub struct SealedSnapshot(Box<dyn SnapshotSink>);

impl SealedSnapshot {
    /// Fsyncs the image, but does **not** publish: checkpointing uses the
    /// gap to commit the WAL through everything the fuzzy scan may have
    /// observed *before* the snapshot becomes load-bearing
    /// ([`publish_snapshot`]).
    pub fn sync_all(mut self) -> io::Result<()> {
        // Every data byte is durable before the final name can exist.
        self.0.sync()
    }
}

/// Asks the kernel to start writing back `len` bytes of `file` from
/// `offset`, without waiting for them: `sync_file_range` with
/// `SYNC_FILE_RANGE_WRITE`. It makes nothing durable.
#[cfg(target_os = "linux")]
fn start_writeback(file: &File, offset: u64, len: u64) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    const SYNC_FILE_RANGE_WRITE: u32 = 2;
    extern "C" {
        fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
    }
    let off_t = |n: u64| i64::try_from(n).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput));
    let (offset, len) = (off_t(offset)?, off_t(len)?);
    // SAFETY: `sync_file_range` takes plain integers and touches no memory
    // of ours; the descriptor is open for the borrow of `file`.
    let rc = unsafe { sync_file_range(file.as_raw_fd(), offset, len, SYNC_FILE_RANGE_WRITE) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Writeback hints exist only on Linux; elsewhere the final fsync does it
/// all.
#[cfg(not(target_os = "linux"))]
fn start_writeback(_file: &File, _offset: u64, _len: u64) -> io::Result<()> {
    Ok(())
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

/// Reads and fully validates a snapshot file. Any defect — short file, bad
/// magic, a `covered_lsn` not the name's, bad CRC, count mismatch — is an
/// error; the caller treats the file as absent and falls back to an older one.
pub fn load_snapshot(path: &Path) -> io::Result<SnapshotData> {
    let buf = fs::read(path)?;
    if buf.len() < SNAP_MAGIC.len() + 8 + 8 + 4 {
        return Err(bad("truncated header"));
    }
    if &buf[..8] != SNAP_MAGIC {
        return Err(bad("bad magic"));
    }
    let covered_lsn = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    if covered_lsn_of(path) != Some(covered_lsn) {
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

/// Fsyncs a directory so renames/creates/unlinks inside it are durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Lists snapshot files (`snap-*.snap`) in `dir`, newest (highest
/// covered LSN) first. Zero-padded names make the lexical sort numeric.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|e| e == "snap")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("snap-"))
        })
        .collect();
    snaps.sort();
    snaps.reverse();
    Ok(snaps)
}

/// The canonical snapshot file name for a covered LSN.
pub fn snapshot_path(dir: &Path, covered_lsn: u64) -> PathBuf {
    dir.join(format!("snap-{covered_lsn:020}.snap"))
}

/// Makes a superseded or unpublished file its directory's spare, the file
/// named `spare` ([`SPARE`] for snapshots), or deletes it if there is one.
/// Durable once the directory is fsynced.
pub fn retire(path: &Path, spare: &str) -> io::Result<()> {
    let spare = path.with_file_name(spare);
    if spare.try_exists()? {
        fs::remove_file(path)
    } else {
        fs::rename(path, spare)
    }
}

/// The covered LSN encoded in a snapshot file's name, if well-formed.
pub fn covered_lsn_of(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};

    thread_local! {
        /// The fault the next image this thread creates writes through.
        static ARMED: RefCell<Option<(u64, Arc<AtomicBool>)>> = const { RefCell::new(None) };
    }

    /// Makes the next image this thread's [`SnapshotWriter::create`] opens
    /// fail once `room` bytes are written, as a full disk would. The flag
    /// turns true when the writer thread drops the sink, a moment late: a
    /// writer that returned without joining its thread would leave it
    /// false.
    pub(crate) fn fail_next_image_after(room: u64) -> Arc<AtomicBool> {
        let dropped = Arc::new(AtomicBool::new(false));
        ARMED.set(Some((room, Arc::clone(&dropped))));
        dropped
    }

    pub(super) fn with_armed_fault(sink: Box<dyn SnapshotSink>) -> Box<dyn SnapshotSink> {
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
        sink: Box<dyn SnapshotSink>,
        room: u64,
        dropped: Arc<AtomicBool>,
    }

    impl SnapshotSink for Failing {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            let fits = data.len().min(self.room as usize);
            self.sink.append(&data[..fits])?;
            self.room -= fits as u64;
            if fits < data.len() {
                return Err(io::Error::other("injected fault: no space left"));
            }
            Ok(())
        }

        fn start_writeback(&mut self, offset: u64, len: u64) -> io::Result<()> {
            self.sink.start_writeback(offset, len)
        }

        fn cut(&mut self, len: u64) -> io::Result<()> {
            self.sink.cut(len)
        }

        fn sync(&mut self) -> io::Result<()> {
            self.sink.sync()
        }
    }

    impl Drop for Failing {
        fn drop(&mut self) {
            std::thread::sleep(std::time::Duration::from_millis(50));
            self.dropped.store(true, Ordering::Release);
        }
    }

    /// A write that fails partway fails the image: the writer thread stops,
    /// the next `push` or `finish` joins it and returns its error.
    #[test]
    fn a_write_that_fails_partway_is_returned_after_the_join() {
        let dir = tmp_dir("fault");
        for room in [0, 100, 3 * CHUNK as u64 + 5] {
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
        let snap = load_snapshot(&path).unwrap();
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
            assert!(load_snapshot(&path).is_err(), "flip at byte {i} accepted");
        }
        // Truncation at every point is also rejected.
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                load_snapshot(&path).is_err(),
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
        for other in [
            snapshot_path(&dir, 8),
            snapshot_path(&dir, 6),
            dir.join(SPARE),
        ] {
            fs::rename(&path, &other).unwrap();
            assert!(load_snapshot(&other).is_err(), "{other:?} accepted");
            fs::rename(&other, &path).unwrap();
        }
        assert_eq!(load_snapshot(&path).unwrap().covered_lsn, 7);
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
            let Ok(snap) = load_snapshot(&path) else {
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

    /// The hint's error reaches the caller: a character device has no
    /// writeback to start.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_writeback_hint_is_an_error() {
        let dev = File::open("/dev/null").unwrap();
        assert!(start_writeback(&dev, 0, WRITEBACK).is_err());
        let dir = tmp_dir("hint");
        let file = File::create(dir.join("f")).unwrap();
        start_writeback(&file, 0, WRITEBACK).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_orders_newest_first_and_ignores_tmp() {
        let dir = tmp_dir("list");
        for lsn in [5u64, 999, 70] {
            let none = std::iter::empty::<(&[u8], &[u8])>();
            write_snapshot(&snapshot_path(&dir, lsn), lsn, none).unwrap();
        }
        fs::write(dir.join("snap-junk.tmp"), b"partial").unwrap();
        fs::copy(snapshot_path(&dir, 999), dir.join(SPARE)).unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        let lsns: Vec<u64> = snaps
            .iter()
            .map(|p| load_snapshot(p).unwrap().covered_lsn)
            .collect();
        assert_eq!(lsns, vec![999, 70, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
