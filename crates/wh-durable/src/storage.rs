//! The store's one file layer: the byte-sink seam the WAL and the snapshot
//! writer both write through, the real-file backend, the helpers that name,
//! list, reuse and retire the directory's files, and a fault-injection
//! backend that can kill the write stream at any byte and drop un-synced
//! data, modelling a crash.
//!
//! The WAL ([`crate::wal`]) and the snapshot writer ([`crate::snapshot`])
//! are written against [`Storage`], so the recovery harness can run the
//! *production* write path against a storage that crashes at a chosen byte
//! offset, then hand the surviving bytes to the *production* recovery path.
//! Nothing in the durability logic is test-only.
//!
//! A superseded file is not unlinked but [`retire`]d as its directory's
//! spare, which [`FileStorage::reuse`] renames in and overwrites: blocks are
//! reused, not freed (an ext4 `discard` mount charged 30–45 ms per MB
//! freed).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// An append-only byte sink with an explicit durability barrier.
///
/// Contract: bytes passed to [`append`](Storage::append) are *visible*
/// (they will be read back by a clean close/open) but not *durable* until
/// a subsequent [`sync`](Storage::sync) returns. A crash may drop any
/// suffix of appended-but-unsynced bytes — and on real hardware may keep
/// an arbitrary prefix of them, which is why the failpoint backend models
/// both ([`CrashMode`]).
pub trait Storage: Send {
    /// Appends `data` at the end of the stream.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Durability barrier: all previously appended bytes survive a crash
    /// once this returns.
    fn sync(&mut self) -> io::Result<()>;
    /// Current stream length in bytes (appended, not necessarily synced).
    fn len(&self) -> u64;
    /// Whether the stream is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Asks for the writeback of the bytes from offset `from` to the end of
    /// the stream to start, without waiting for it; makes nothing durable.
    fn start_writeback(&mut self, _from: u64) -> io::Result<()> {
        Ok(())
    }
    /// Cuts the medium to the stream's length: a reused file may hold more.
    /// Durable once synced.
    fn cut(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Real-file backend: `append` = `write_all` at the stream's tracked
/// length, `sync` = `fdatasync`, which also makes a [`cut`](Storage::cut)'s
/// new size durable (it skips only the timestamps).
pub struct FileStorage {
    file: File,
    len: u64,
}

impl FileStorage {
    /// Opens `path` as a stream of its first `len` bytes: the file, else
    /// its directory's `spare` renamed to it, else a new file. Appends
    /// write from `len`, over whatever the file holds past it, which is
    /// neither cut nor read, so a reused file keeps its blocks. A rename or
    /// creation is durable once the directory is fsynced ([`sync_dir`]).
    pub fn reuse(path: &Path, spare: &str, len: u64) -> io::Result<Self> {
        if !path.try_exists()? {
            if let Err(e) = fs::rename(path.with_file_name(spare), path) {
                if e.kind() != io::ErrorKind::NotFound {
                    return Err(e);
                }
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.seek(SeekFrom::Start(len))?;
        Ok(Self { file, len })
    }
}

impl Storage for FileStorage {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)?;
        self.len += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> u64 {
        self.len
    }

    /// `sync_file_range` with `SYNC_FILE_RANGE_WRITE`. Writeback hints exist
    /// only on Linux; elsewhere the provided no-op stands and the final sync
    /// does it all.
    #[cfg(target_os = "linux")]
    fn start_writeback(&mut self, from: u64) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        const SYNC_FILE_RANGE_WRITE: u32 = 2;
        extern "C" {
            fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
        }
        let off_t =
            |n: u64| i64::try_from(n).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput));
        let (offset, len) = (off_t(from)?, off_t(self.len - from)?);
        // SAFETY: `sync_file_range` takes plain integers and touches no
        // memory of ours; the descriptor is open while `self` holds the file.
        let rc =
            unsafe { sync_file_range(self.file.as_raw_fd(), offset, len, SYNC_FILE_RANGE_WRITE) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    fn cut(&mut self) -> io::Result<()> {
        self.file.set_len(self.len)
    }
}

/// Makes a superseded or unpublished file its directory's spare, the file
/// named `spare`, or deletes it if there is one. Durable once the
/// directory is fsynced.
pub fn retire(path: &Path, spare: &str) -> io::Result<()> {
    let spare = path.with_file_name(spare);
    if spare.try_exists()? {
        fs::remove_file(path)
    } else {
        fs::rename(path, spare)
    }
}

/// Fsyncs a directory so renames/creates/unlinks inside it are durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The file `<prefix><lsn><suffix>` in `dir`. The LSN is zero-padded to
/// twenty digits, so lexical order is numeric order.
pub fn lsn_path(dir: &Path, prefix: &str, lsn: u64, suffix: &str) -> PathBuf {
    dir.join(format!("{prefix}{lsn:020}{suffix}"))
}

/// The files in `dir` named `<prefix><lsn><suffix>`, with the LSN each
/// name gives, ascending by LSN. An entry the listing cannot read is an
/// error, not an absent file: recovery would replay without that segment
/// or snapshot, and pruning would act on a partial listing.
pub fn list_lsn_files(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let lsn_of = |path: &Path| -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix(prefix)?
            .strip_suffix(suffix)?
            .parse()
            .ok()
    };
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(lsn) = lsn_of(&path) {
            files.push((lsn, path));
        }
    }
    files.sort();
    Ok(files)
}

/// What happens to appended-but-unsynced bytes at the crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Everything not covered by a completed `sync` is lost — the
    /// pessimistic model (power cut with no disk cache flush).
    DropUnsynced,
    /// Every appended byte up to the kill offset survives — the
    /// optimistic model. Sweeping the kill offset over every byte in this
    /// mode enumerates *every prefix image* of the log, which is the
    /// superset of what any real crash can leave behind.
    KeepAll,
}

/// Shared, inspectable state of a [`FailpointStorage`].
struct FailState {
    buf: Vec<u8>,
    synced: usize,
    /// Byte offset at which the write stream dies; `u64::MAX` = never.
    kill_at: u64,
    dead: bool,
    mode: CrashMode,
    syncs: u64,
}

/// Handle to a failpoint storage's crash controls and surviving image.
/// Clone freely; the test owns one while the WAL owns the storage.
#[derive(Clone)]
pub struct FailpointHandle {
    state: Arc<Mutex<FailState>>,
}

impl FailpointHandle {
    /// The bytes that survive the crash under the configured mode: the
    /// synced prefix for [`CrashMode::DropUnsynced`], every appended byte
    /// for [`CrashMode::KeepAll`].
    pub fn surviving_bytes(&self) -> Vec<u8> {
        let state = self.state.lock();
        match state.mode {
            CrashMode::DropUnsynced => state.buf[..state.synced].to_vec(),
            CrashMode::KeepAll => state.buf.clone(),
        }
    }

    /// Whether the kill offset has been reached.
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead
    }

    /// Total bytes ever appended (including past the synced watermark).
    pub fn appended_len(&self) -> u64 {
        self.state.lock().buf.len() as u64
    }

    /// Number of completed sync barriers.
    pub fn sync_count(&self) -> u64 {
        self.state.lock().syncs
    }
}

/// Fault-injection backend: behaves like a file until the cumulative
/// appended byte count reaches `kill_at`, then truncates that append
/// mid-write and fails every call after it — the moment of the crash.
pub struct FailpointStorage {
    state: Arc<Mutex<FailState>>,
}

impl FailpointStorage {
    /// A storage that dies once `kill_at` total bytes have been appended
    /// (`u64::MAX` for an immortal storage), with `mode` deciding what
    /// the crash leaves behind.
    pub fn new(kill_at: u64, mode: CrashMode) -> (Self, FailpointHandle) {
        let state = Arc::new(Mutex::new(FailState {
            buf: Vec::new(),
            synced: 0,
            kill_at,
            dead: false,
            mode,
            syncs: 0,
        }));
        (
            Self {
                state: Arc::clone(&state),
            },
            FailpointHandle { state },
        )
    }

    fn died() -> io::Error {
        io::Error::other("failpoint: storage crashed")
    }
}

impl Storage for FailpointStorage {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        if state.dead {
            return Err(Self::died());
        }
        let room = (state.kill_at as usize).saturating_sub(state.buf.len());
        if data.len() <= room {
            state.buf.extend_from_slice(data);
            Ok(())
        } else {
            // The crash lands mid-append: a prefix of this write reaches
            // the medium, the rest never does.
            state.buf.extend_from_slice(&data[..room]);
            state.dead = true;
            Err(Self::died())
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.state.lock();
        if state.dead {
            return Err(Self::died());
        }
        state.synced = state.buf.len();
        state.syncs += 1;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.state.lock().buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failpoint_kills_mid_append_and_stays_dead() {
        let (mut storage, handle) = FailpointStorage::new(5, CrashMode::KeepAll);
        storage.append(b"abc").unwrap();
        assert!(storage.append(b"defg").is_err());
        assert!(handle.is_dead());
        assert!(storage.append(b"x").is_err());
        assert!(storage.sync().is_err());
        assert_eq!(handle.surviving_bytes(), b"abcde");
    }

    #[test]
    fn drop_unsynced_keeps_only_the_synced_prefix() {
        let (mut storage, handle) = FailpointStorage::new(u64::MAX, CrashMode::DropUnsynced);
        storage.append(b"abc").unwrap();
        storage.sync().unwrap();
        storage.append(b"def").unwrap();
        assert_eq!(handle.surviving_bytes(), b"abc");
        assert_eq!(handle.appended_len(), 6);
        assert_eq!(handle.sync_count(), 1);
    }

    #[test]
    fn file_storage_appends_and_reports_length() {
        let dir = std::env::temp_dir().join(format!("wh-durable-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut storage = FileStorage::reuse(&path, "probe.spare", 0).unwrap();
            storage.append(b"hello ").unwrap();
            storage.append(b"world").unwrap();
            storage.sync().unwrap();
            assert_eq!(storage.len(), 11);
        }
        // Re-opened at its length, the stream keeps appending.
        let mut storage = FileStorage::reuse(&path, "probe.spare", 11).unwrap();
        assert_eq!(storage.len(), 11);
        storage.append(b"!").unwrap();
        drop(storage);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world!");
        // Re-opened at 0, it writes over the file and leaves its tail.
        let mut storage = FileStorage::reuse(&path, "probe.spare", 0).unwrap();
        assert_eq!(storage.len(), 0);
        storage.append(b"HELLO").unwrap();
        assert_eq!(storage.len(), 5);
        drop(storage);
        assert_eq!(std::fs::read(&path).unwrap(), b"HELLO world!");
        // Cut, the file is the stream.
        let mut storage = FileStorage::reuse(&path, "probe.spare", 5).unwrap();
        storage.cut().unwrap();
        drop(storage);
        assert_eq!(std::fs::read(&path).unwrap(), b"HELLO");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The hint's error reaches the caller: a character device has no
    /// writeback to start.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_writeback_hint_is_an_error() {
        let mut dev = FileStorage::reuse(Path::new("/dev/null"), "null.spare", 0).unwrap();
        dev.append(&[1; 4096]).unwrap();
        assert!(dev.start_writeback(0).is_err());
        let dir = std::env::temp_dir().join(format!("wh-durable-hint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut file = FileStorage::reuse(&dir.join("f"), "f.spare", 0).unwrap();
        file.append(&[1; 4096]).unwrap();
        file.start_writeback(0).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
