//! Pluggable WAL byte sinks: the real-file backend and a fault-injection
//! backend that can kill the write stream at any byte and drop un-synced
//! data, modelling a crash.
//!
//! The WAL ([`crate::wal`]) is written against [`WalStorage`], so the
//! recovery harness can run the *production* write path against a storage
//! that crashes at a chosen byte offset, then hand the surviving bytes to
//! the *production* recovery path. Nothing in the durability logic is
//! test-only.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

/// An append-only byte sink with an explicit durability barrier.
///
/// Contract: bytes passed to [`append`](WalStorage::append) are *visible*
/// (they will be read back by a clean close/open) but not *durable* until
/// a subsequent [`sync`](WalStorage::sync) returns. A crash may drop any
/// suffix of appended-but-unsynced bytes — and on real hardware may keep
/// an arbitrary prefix of them, which is why the failpoint backend models
/// both ([`CrashMode`]).
pub trait WalStorage: Send {
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
}

/// Real-file backend: `append` = `write_all` at the stream's tracked
/// length, `sync` = `fdatasync`.
pub struct FileStorage {
    file: File,
    len: u64,
}

impl FileStorage {
    /// Opens (creating if absent) `path` as a stream of its first `len`
    /// bytes: appends write from there, over whatever the file holds past
    /// it, which is neither cut nor read. A reused segment file is opened
    /// at 0 and keeps its blocks.
    pub fn open(path: &Path, len: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.seek(SeekFrom::Start(len))?;
        Ok(Self { file, len })
    }
}

impl WalStorage for FileStorage {
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

impl WalStorage for FailpointStorage {
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
            let mut storage = FileStorage::open(&path, 0).unwrap();
            storage.append(b"hello ").unwrap();
            storage.append(b"world").unwrap();
            storage.sync().unwrap();
            assert_eq!(storage.len(), 11);
        }
        // Re-opened at its length, the stream keeps appending.
        let mut storage = FileStorage::open(&path, 11).unwrap();
        assert_eq!(storage.len(), 11);
        storage.append(b"!").unwrap();
        drop(storage);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world!");
        // Re-opened at 0, it writes over the file and leaves its tail.
        let mut storage = FileStorage::open(&path, 0).unwrap();
        assert_eq!(storage.len(), 0);
        storage.append(b"HELLO").unwrap();
        assert_eq!(storage.len(), 5);
        drop(storage);
        assert_eq!(std::fs::read(&path).unwrap(), b"HELLO world!");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
