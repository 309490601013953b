//! Pluggable durable-state backends for the key server.
//!
//! The key-management layer (`rekey-core`) treats durability as two
//! byte-level primitives behind the [`Storage`] trait:
//!
//! - a **write-ahead log** of opaque records, appended one per rekey
//!   epoch *before* the epoch's frame is released to the fan-out, and
//! - a **snapshot** slot holding one opaque full-state blob, replaced
//!   atomically every few epochs, after which the WAL is reset so its
//!   length stays bounded by the snapshot cadence.
//!
//! Two backends ship here: [`MemStorage`] (tests, benches, and the
//! crash-simulation harness) and [`DirStorage`] (a directory of real
//! files with fsync). Both share one record framing (see [`wal`]):
//! length-prefixed, CRC-32-checksummed records, so a torn tail from a
//! crash mid-append is detected and cleanly discarded on replay — the
//! same discipline disk-backed trees like sdbtree use for their
//! dirty-node persist logs. [`FaultStorage`] wraps [`MemStorage`] with
//! byte-precise tail truncation/corruption and append-failure
//! injection for crash-consistency tests.
//!
//! This crate is dependency-free (std only) and knows nothing about
//! key trees: records and snapshots are opaque bytes. The epoch/WAL
//! semantics live in `rekey_core::persist`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

pub mod wal;

/// Errors from the storage layer. Every operation that touches bytes
/// returns one of these — there is no `Result<_, String>` anywhere in
/// this crate.
#[derive(Debug)]
pub enum StorageError {
    /// An OS-level I/O failure, tagged with the operation that hit it.
    Io {
        /// What the backend was doing (e.g. `"wal append"`).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The snapshot blob failed its integrity check.
    SnapshotCorrupt {
        /// Why the blob was rejected.
        reason: &'static str,
    },
    /// A record framing version this build does not understand.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// A record or snapshot too long for the framing's 32-bit length
    /// field.
    RecordTooLarge {
        /// The payload length that was refused.
        len: usize,
    },
    /// An injected fault from [`FaultStorage`] — test-only by
    /// construction, but typed so callers exercise their real error
    /// paths.
    Injected,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, source } => write!(f, "storage i/o during {op}: {source}"),
            StorageError::SnapshotCorrupt { reason } => {
                write!(f, "snapshot failed integrity check: {reason}")
            }
            StorageError::BadVersion { found } => {
                write!(f, "unsupported storage format version {found}")
            }
            StorageError::RecordTooLarge { len } => {
                write!(f, "a {len}-byte record exceeds the 4 GiB framing limit")
            }
            StorageError::Injected => write!(f, "injected storage fault"),
        }
    }
}

impl StorageError {
    /// A copy to report again: a failed background write is returned by
    /// every call after it. `std::io::Error` is not `Clone`; its copy
    /// keeps the kind and the message.
    fn replica(&self) -> StorageError {
        match self {
            StorageError::Io { op, source } => StorageError::Io {
                op,
                source: std::io::Error::new(source.kind(), source.to_string()),
            },
            StorageError::SnapshotCorrupt { reason } => StorageError::SnapshotCorrupt { reason },
            StorageError::BadVersion { found } => StorageError::BadVersion { found: *found },
            StorageError::RecordTooLarge { len } => StorageError::RecordTooLarge { len: *len },
            StorageError::Injected => StorageError::Injected,
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Result of replaying the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Every valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded past the last valid record (a torn or corrupt
    /// tail from a crash mid-append). Zero on a clean log.
    pub dropped_bytes: usize,
}

/// A durable byte store: an appendable record log plus one atomically
/// replaceable snapshot blob.
///
/// Contract required of every implementation:
///
/// - Writes take effect in call order. A backend may buffer them and
///   return before the bytes are written ([`DirStorage`] does, on a
///   writer thread; the in-memory backends do not): a write's `Ok`
///   means *accepted*, not *durable*.
/// - [`Storage::sync_wal`] is the barrier: once it returns `Ok`, every
///   write accepted before it survives a crash — an
///   [`Storage::append_wal`] followed by [`Storage::sync_wal`] makes the
///   record durable. It also reports what buffering deferred: the first
///   failure of a buffered write is returned by the next barrier and by
///   every call after it, and the writes behind the failed one are
///   dropped.
/// - [`Storage::write_snapshot`] replaces the snapshot atomically: a
///   crash during the write leaves either the old blob or the new one,
///   never a mix. [`Storage::reset_wal`] empties the log (called after
///   a snapshot covers everything the log held). Both complete, in
///   order, before any record appended after them is durable — so a
///   durable record is never one the reset will still swallow.
/// - Reads are barriers too: [`Storage::read_wal`] and
///   [`Storage::load_snapshot`] see every write accepted before them.
///   [`Storage::read_wal`] returns every valid record in order,
///   *repairs* the log by discarding any invalid tail (so subsequent
///   appends land after the last valid record), and never fails on a
///   torn tail — torn tails are an expected crash artifact, reported
///   via [`WalReplay::dropped_bytes`].
pub trait Storage: Send {
    /// Appends one opaque record to the write-ahead log. The record is
    /// durable once a later [`Storage::sync_wal`] returns.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on an OS failure (possibly of an earlier,
    /// buffered write),
    /// [`StorageError::RecordTooLarge`] past the framing's length
    /// field, [`StorageError::Injected`] under fault injection.
    fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError>;

    /// The barrier: returns once every write handed to the store so
    /// far — appended records, and a snapshot or reset before them — is
    /// on durable media.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on an OS failure, of this call or of any
    /// buffered write before it.
    fn sync_wal(&mut self) -> Result<(), StorageError>;

    /// How long the record the last fsync covered spent between
    /// [`Storage::append_wal`] and durable media, as measured by a
    /// backend that writes behind its caller; reported once. `None`
    /// from a backend that writes inside the call.
    fn wal_inflight_ns(&mut self) -> Option<u64> {
        None
    }

    /// Replays the log: all valid records plus how many trailing bytes
    /// were discarded as torn/corrupt. Repairs the log tail.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on an OS failure (not on a torn tail).
    fn read_wal(&mut self) -> Result<WalReplay, StorageError>;

    /// Empties the log. Called after a snapshot subsumes its contents.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on an OS failure.
    fn reset_wal(&mut self) -> Result<(), StorageError>;

    /// Atomically replaces the snapshot blob (checksummed on media).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on an OS failure,
    /// [`StorageError::RecordTooLarge`] past the framing's length
    /// field.
    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError>;

    /// Loads the snapshot blob, `None` if none was ever written.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on an OS failure,
    /// [`StorageError::SnapshotCorrupt`] if the blob fails its CRC.
    fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError>;
}

// ---------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------

/// A [`Storage`] living entirely in memory — for tests, benches, and
/// the crash-simulation harness. It stores the *framed* byte streams
/// (exactly what [`DirStorage`] writes to files), so fault injection
/// on those bytes exercises the same parse-and-repair paths a real
/// disk crash would.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a store from a framed WAL stream and a sealed snapshot
    /// (as returned by [`MemStorage::wal_bytes`] /
    /// [`MemStorage::snapshot_bytes`]) — the in-memory analogue of
    /// handing a crashed process's data directory to a fresh one.
    pub fn from_parts(wal: Vec<u8>, snapshot: Option<Vec<u8>>) -> Self {
        MemStorage { wal, snapshot }
    }

    /// The framed WAL byte stream (test introspection).
    pub fn wal_bytes(&self) -> &[u8] {
        &self.wal
    }

    /// The sealed snapshot bytes, if one was written (test
    /// introspection).
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        self.snapshot.clone()
    }

    pub(crate) fn wal_bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.wal
    }
}

impl Storage for MemStorage {
    fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError> {
        wal::frame_record(record, &mut self.wal)
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn read_wal(&mut self) -> Result<WalReplay, StorageError> {
        let (records, valid_len) = wal::parse_records(&self.wal);
        let dropped = self.wal.len() - valid_len;
        self.wal.truncate(valid_len);
        Ok(WalReplay {
            records,
            dropped_bytes: dropped,
        })
    }

    fn reset_wal(&mut self) -> Result<(), StorageError> {
        self.wal.clear();
        Ok(())
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError> {
        self.snapshot = Some(wal::seal_snapshot(blob)?);
        Ok(())
    }

    fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        match &self.snapshot {
            None => Ok(None),
            Some(sealed) => wal::unseal_snapshot(sealed).map(|blob| Some(blob.to_vec())),
        }
    }
}

// ---------------------------------------------------------------------
// Directory backend
// ---------------------------------------------------------------------

/// File names inside a [`DirStorage`] data directory.
pub const WAL_FILE: &str = "wal.log";
/// See [`WAL_FILE`].
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Largest append buffer kept between appends. A steady epoch record
/// is tens of kilobytes; a bootstrap epoch's megabytes are handed back
/// instead of being carried for the life of the server.
const FRAME_KEEP: usize = 64 * 1024;

/// A [`Storage`] backed by a directory of real files:
///
/// - `wal.log` — framed records, appended and fsynced per epoch;
/// - `snapshot.bin` — the sealed snapshot blob, replaced via
///   write-temp + fsync + rename (+ directory fsync), so a crash never
///   leaves a half-written snapshot under the live name.
///
/// # One writer thread behind the caller
///
/// Every write — append, snapshot, reset — is handed to one FIFO writer
/// thread (spawned by the first write; a store that is only opened and
/// read never has one) and the call returns; the caller computes while
/// the disk works. The writer issues the same system calls in the same
/// order a synchronous store would, so every state a crash can leave is
/// one a crash of the synchronous store could leave too:
///
/// ```text
/// caller  append_wal ─┐  (computes)  ┌ sync_wal   write_snapshot, reset_wal ─┐  (computes) …
///         frames      │              │ waits, if   copies the blob            │
/// writer              └ write, fsync ┘ at all                                 └ crc, tmp, fsync, rename,
///                                                                               dir fsync, truncate, fsync
/// ```
///
/// Appended records are `sync_data`ed as soon as the queue runs dry,
/// [`Storage::sync_wal`] is the barrier that returns once everything
/// handed over is on disk, and reads are barriers too. The first write
/// that fails is reported by the next barrier and by every call after
/// it; the writes queued behind it are dropped, not attempted. Dropping
/// the store drains the queue and joins the writer.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
    /// Shared with the writer thread, which does all the writing; this
    /// handle reads and repairs, and only behind a barrier.
    wal: Arc<File>,
    writer: Option<Writer>,
    /// Writes handed to the writer so far.
    submitted: u64,
}

/// A write handed to the writer thread.
#[derive(Debug)]
enum Job {
    /// One framed record, and when it was handed over.
    Append(Vec<u8>, Instant),
    /// An owned copy of a snapshot blob, unsealed.
    Snapshot(Vec<u8>),
    Reset,
}

#[derive(Debug)]
struct Writer {
    shared: Arc<WriterShared>,
    thread: JoinHandle<()>,
}

#[derive(Debug, Default)]
struct WriterShared {
    state: Mutex<WriterState>,
    /// Signalled when a job is queued or the store is closed.
    work: Condvar,
    /// Signalled when `WriterState::durable` advances.
    progress: Condvar,
}

#[derive(Debug, Default)]
struct WriterState {
    queue: VecDeque<Job>,
    /// How many of the jobs handed over are on disk (or, after a
    /// failure, dropped).
    durable: u64,
    /// The first failure; everything after it is dropped unattempted.
    failed: Option<StorageError>,
    closed: bool,
    /// Hand-off → durable of the oldest record the last fsync covered.
    inflight_ns: Option<u64>,
    /// Buffers on their way back to the caller: frames up to
    /// [`FRAME_KEEP`], and the one snapshot copy.
    spare_frames: Vec<Vec<u8>>,
    spare_blob: Vec<u8>,
    /// Test hook: the writer exits, abandoning its queue, once it has
    /// taken this many jobs — a process killed at that queue position.
    #[cfg(test)]
    die_after: Option<u64>,
}

impl WriterShared {
    fn lock(&self) -> MutexGuard<'_, WriterState> {
        // Every update under this lock is a single field store or a
        // queue push/pop, so the state is valid even if a holder
        // panicked.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> StorageError {
    move |source| StorageError::Io { op, source }
}

/// Opens the WAL for read + append, creating it if absent; the flag
/// says whether this call created it (its directory entry is then not
/// yet durable).
fn open_or_create_wal(path: &Path) -> Result<(File, bool), StorageError> {
    let mut options = OpenOptions::new();
    options.read(true).append(true);
    match options.clone().create_new(true).open(path) {
        Ok(file) => Ok((file, true)),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => options
            .open(path)
            .map(|file| (file, false))
            .map_err(io_err("open wal")),
        Err(e) => Err(io_err("open wal")(e)),
    }
}

/// Best-effort directory fsync so renames/creates are durable.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_err("sync data dir"))
}

/// The writer thread's half of [`Storage::write_snapshot`].
fn replace_snapshot(dir: &Path, blob: &[u8]) -> Result<(), StorageError> {
    let header = wal::frame_header(blob.len(), wal::crc32(blob))?;
    let tmp = dir.join(SNAPSHOT_TMP);
    let live = dir.join(SNAPSHOT_FILE);
    let mut f = File::create(&tmp).map_err(io_err("snapshot create"))?;
    f.write_all(&header).map_err(io_err("snapshot write"))?;
    f.write_all(blob).map_err(io_err("snapshot write"))?;
    f.sync_all().map_err(io_err("snapshot fsync"))?;
    drop(f);
    std::fs::rename(&tmp, &live).map_err(io_err("snapshot rename"))?;
    sync_dir(dir)
}

/// The writer thread's half of [`Storage::reset_wal`].
fn truncate_wal(mut wal: &File) -> Result<(), StorageError> {
    wal.set_len(0).map_err(io_err("wal truncate"))?;
    wal.seek(SeekFrom::Start(0)).map_err(io_err("wal seek"))?;
    wal.sync_data().map_err(io_err("wal fsync"))
}

/// The writer thread: takes jobs in order, fsyncs appended records when
/// the queue runs dry, and publishes how far the disk has got. Returns
/// once the store is closed and the queue is empty.
fn writer_main(shared: &WriterShared, dir: &Path, wal: &File) {
    // Jobs taken off the queue, and the hand-off time of the oldest
    // appended record no fsync has covered yet.
    let mut taken = 0u64;
    let mut unsynced: Option<Instant> = None;
    let mut state = shared.lock();
    loop {
        #[cfg(test)]
        if state.die_after == Some(taken) {
            return;
        }
        if let Some(job) = state.queue.pop_front() {
            let skip = state.failed.is_some();
            drop(state);
            taken += 1;
            let result = match &job {
                _ if skip => Ok(()),
                Job::Append(frame, handed_over) => {
                    unsynced.get_or_insert(*handed_over);
                    let mut file = wal;
                    file.write_all(frame).map_err(io_err("wal append"))
                }
                Job::Snapshot(blob) => replace_snapshot(dir, blob),
                Job::Reset => truncate_wal(wal).map(|()| {
                    // Its own fsync covered the file, now empty.
                    unsynced = None;
                }),
            };
            state = shared.lock();
            match job {
                Job::Append(frame, _) if frame.capacity() <= FRAME_KEEP => {
                    state.spare_frames.push(frame);
                }
                Job::Snapshot(blob) => state.spare_blob = blob,
                _ => {}
            }
            if let Err(e) = result {
                state.failed.get_or_insert(e);
            }
        } else if let (Some(handed_over), None) = (unsynced, &state.failed) {
            drop(state);
            let synced = wal.sync_data().map_err(io_err("wal fsync"));
            unsynced = None;
            state = shared.lock();
            match synced {
                Ok(()) => state.inflight_ns = Some(handed_over.elapsed().as_nanos() as u64),
                Err(e) => state.failed = Some(e),
            }
        } else {
            state.durable = taken;
            shared.progress.notify_all();
            if state.closed {
                return;
            }
            state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl DirStorage {
    /// Opens (creating if needed) the data directory at `dir`. A WAL
    /// file this call had to create gets its directory entry fsynced
    /// before anything is appended — otherwise the first epochs' records
    /// could be fsynced into a file a power loss then unlinks.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory or WAL file cannot be
    /// created/opened.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err("create data dir"))?;
        let (wal, created) = open_or_create_wal(&dir.join(WAL_FILE))?;
        if created {
            sync_dir(&dir)?;
        }
        Ok(DirStorage {
            dir,
            wal: Arc::new(wal),
            writer: None,
            submitted: 0,
        })
    }

    /// The data directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The writer's shared state, spawning the thread on first use.
    fn writer(&mut self) -> Result<&Arc<WriterShared>, StorageError> {
        if self.writer.is_none() {
            let shared = Arc::new(WriterShared::default());
            let (for_thread, dir, wal) = (shared.clone(), self.dir.clone(), self.wal.clone());
            let thread = std::thread::Builder::new()
                .name("rekey-storage-writer".into())
                .spawn(move || writer_main(&for_thread, &dir, &wal))
                .map_err(io_err("spawn storage writer"))?;
            self.writer = Some(Writer { shared, thread });
        }
        Ok(&self.writer.as_ref().expect("just spawned").shared)
    }

    /// The writer's state, for taking a handed-back buffer before a
    /// write is built. Refused once a write has failed.
    fn writer_state(&mut self) -> Result<MutexGuard<'_, WriterState>, StorageError> {
        let state = self.writer()?.lock();
        match &state.failed {
            Some(e) => Err(e.replica()),
            None => Ok(state),
        }
    }

    /// Queues `job` behind everything handed over so far.
    fn submit(&mut self, job: Job) -> Result<(), StorageError> {
        let shared = self.writer()?;
        shared.lock().queue.push_back(job);
        shared.work.notify_one();
        self.submitted += 1;
        Ok(())
    }

    /// Returns once every write handed over so far is on disk; reports
    /// the failure, from then on, if one of them was not. Without a
    /// writer there is nothing in flight.
    fn barrier(&self) -> Result<(), StorageError> {
        let Some(writer) = &self.writer else {
            return Ok(());
        };
        let mut state = writer.shared.lock();
        while state.durable < self.submitted {
            state = writer
                .shared
                .progress
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.failed.as_ref().map_or(Ok(()), |e| Err(e.replica()))
    }
}

impl Drop for DirStorage {
    /// Drains the queue — a drained daemon's last snapshot is on disk
    /// when its store goes away — and joins the writer. A failure among
    /// the drained writes has nowhere to go from here: a caller that
    /// needs to know ends with [`Storage::sync_wal`].
    fn drop(&mut self) {
        if let Some(Writer { shared, thread }) = self.writer.take() {
            shared.lock().closed = true;
            shared.work.notify_one();
            let _ = thread.join();
        }
    }
}

impl Storage for DirStorage {
    fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError> {
        let mut frame = self.writer_state()?.spare_frames.pop().unwrap_or_default();
        frame.clear();
        wal::frame_record(record, &mut frame)?;
        self.submit(Job::Append(frame, Instant::now()))
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        self.barrier()
    }

    fn wal_inflight_ns(&mut self) -> Option<u64> {
        self.writer.as_ref()?.shared.lock().inflight_ns.take()
    }

    fn read_wal(&mut self) -> Result<WalReplay, StorageError> {
        self.barrier()?;
        let mut wal = &*self.wal;
        let mut bytes = Vec::new();
        wal.seek(SeekFrom::Start(0)).map_err(io_err("wal seek"))?;
        wal.read_to_end(&mut bytes).map_err(io_err("wal read"))?;
        let (records, valid_len) = wal::parse_records(&bytes);
        let dropped = bytes.len() - valid_len;
        if dropped > 0 {
            // Repair: discard the torn tail so new appends follow the
            // last valid record instead of hiding behind garbage.
            wal.set_len(valid_len as u64)
                .map_err(io_err("wal repair truncate"))?;
            wal.sync_data().map_err(io_err("wal fsync"))?;
        }
        wal.seek(SeekFrom::End(0)).map_err(io_err("wal seek"))?;
        Ok(WalReplay {
            records,
            dropped_bytes: dropped,
        })
    }

    fn reset_wal(&mut self) -> Result<(), StorageError> {
        // Refused, like every write, once one has failed.
        drop(self.writer_state()?);
        self.submit(Job::Reset)
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError> {
        // The length check is the caller's to hear about now; the CRC is
        // the writer's to compute.
        wal::frame_header(blob.len(), 0)?;
        let mut copy = std::mem::take(&mut self.writer_state()?.spare_blob);
        copy.clear();
        copy.extend_from_slice(blob);
        self.submit(Job::Snapshot(copy))
    }

    fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        self.barrier()?;
        let live = self.dir.join(SNAPSHOT_FILE);
        let mut sealed = match std::fs::read(&live) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(StorageError::Io {
                    op: "snapshot read",
                    source: e,
                })
            }
        };
        wal::unseal_snapshot(&sealed)?;
        sealed.drain(..wal::RECORD_HEADER_LEN);
        Ok(Some(sealed))
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// A [`Storage`] wrapper for crash-consistency tests: byte-precise WAL
/// tail truncation/corruption (simulating a torn write) and append
/// failure injection (simulating a full or dying disk). Wraps
/// [`MemStorage`] so the mutations hit exactly the framed bytes a file
/// backend would hold.
#[derive(Debug, Default)]
pub struct FaultStorage {
    inner: MemStorage,
    fail_appends: bool,
    appends_until_fail: Option<u64>,
}

impl FaultStorage {
    /// Wraps an in-memory store (usually empty).
    pub fn new(inner: MemStorage) -> Self {
        FaultStorage {
            inner,
            fail_appends: false,
            appends_until_fail: None,
        }
    }

    /// Makes every subsequent [`Storage::append_wal`] fail with
    /// [`StorageError::Injected`].
    pub fn fail_appends(&mut self, yes: bool) {
        self.fail_appends = yes;
    }

    /// Lets `n` more appends succeed, then fails all further ones.
    pub fn fail_after_appends(&mut self, n: u64) {
        self.appends_until_fail = Some(n);
    }

    /// Discards the last `bytes` bytes of the framed WAL stream — a
    /// torn write that ended mid-record.
    pub fn truncate_wal_tail(&mut self, bytes: usize) {
        let wal = self.inner.wal_bytes_mut();
        let keep = wal.len().saturating_sub(bytes);
        wal.truncate(keep);
    }

    /// Flips one byte `offset_from_end` bytes before the end of the
    /// framed WAL stream — bit rot or a misdirected write. No-op if
    /// the log is shorter than that.
    pub fn corrupt_wal_byte(&mut self, offset_from_end: usize) {
        let wal = self.inner.wal_bytes_mut();
        if let Some(i) = wal.len().checked_sub(offset_from_end + 1) {
            wal[i] ^= 0xff;
        }
    }

    /// Length of the framed WAL stream in bytes.
    pub fn wal_len(&self) -> usize {
        self.inner.wal_bytes().len()
    }

    /// Read access to the wrapped store.
    pub fn inner(&self) -> &MemStorage {
        &self.inner
    }
}

impl Storage for FaultStorage {
    fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError> {
        if self.fail_appends {
            return Err(StorageError::Injected);
        }
        if let Some(left) = self.appends_until_fail {
            if left == 0 {
                return Err(StorageError::Injected);
            }
            self.appends_until_fail = Some(left - 1);
        }
        self.inner.append_wal(record)
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        self.inner.sync_wal()
    }

    fn read_wal(&mut self) -> Result<WalReplay, StorageError> {
        self.inner.read_wal()
    }

    fn reset_wal(&mut self) -> Result<(), StorageError> {
        self.inner.reset_wal()
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError> {
        self.inner.write_snapshot(blob)
    }

    fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.load_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut r = vec![i as u8; 5 + i];
                r.push(0xAB);
                r
            })
            .collect()
    }

    fn check_round_trip(storage: &mut dyn Storage) {
        let rs = records(8);
        for r in &rs {
            storage.append_wal(r).unwrap();
        }
        storage.sync_wal().unwrap();
        let replay = storage.read_wal().unwrap();
        assert_eq!(replay.records, rs);
        assert_eq!(replay.dropped_bytes, 0);

        storage.write_snapshot(b"snapshot-state").unwrap();
        storage.reset_wal().unwrap();
        assert_eq!(storage.read_wal().unwrap().records.len(), 0);
        assert_eq!(
            storage.load_snapshot().unwrap().as_deref(),
            Some(&b"snapshot-state"[..])
        );

        // Appends after a reset land on the fresh log.
        storage.append_wal(b"after-reset").unwrap();
        let replay = storage.read_wal().unwrap();
        assert_eq!(replay.records, vec![b"after-reset".to_vec()]);
    }

    #[test]
    fn mem_round_trip() {
        check_round_trip(&mut MemStorage::new());
    }

    #[test]
    fn dir_round_trip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("rekey-storage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut storage = DirStorage::open(&dir).unwrap();
            check_round_trip(&mut storage);
        }
        // Reopen: state survives the process boundary.
        let mut storage = DirStorage::open(&dir).unwrap();
        let replay = storage.read_wal().unwrap();
        assert_eq!(replay.records, vec![b"after-reset".to_vec()]);
        assert_eq!(
            storage.load_snapshot().unwrap().as_deref(),
            Some(&b"snapshot-state"[..])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The created-vs-existing branch of `open`: a fresh directory's
    /// WAL is reported created (so `open` fsyncs its directory entry),
    /// a reopened one is not, and both append and replay.
    #[test]
    fn fresh_and_reopened_dirs_open_append_and_replay() {
        let dir = std::env::temp_dir().join(format!("rekey-storage-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let (_, created) = open_or_create_wal(&wal_path).unwrap();
        assert!(created, "no wal.log before: this call created it");
        let (_, created) = open_or_create_wal(&wal_path).unwrap();
        assert!(!created, "wal.log exists now");
        std::fs::remove_dir_all(&dir).unwrap();

        {
            let mut fresh = DirStorage::open(&dir).unwrap();
            fresh.append_wal(b"first").unwrap();
            fresh.sync_wal().unwrap();
            assert_eq!(fresh.read_wal().unwrap().records, vec![b"first".to_vec()]);
        }
        let mut reopened = DirStorage::open(&dir).unwrap();
        reopened.append_wal(b"second").unwrap();
        reopened.sync_wal().unwrap();
        let replay = reopened.read_wal().unwrap();
        assert_eq!(replay.records, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(replay.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_stores_replay_empty() {
        let mut mem = MemStorage::new();
        assert_eq!(mem.read_wal().unwrap().records.len(), 0);
        assert_eq!(mem.load_snapshot().unwrap(), None);
    }

    #[test]
    fn torn_tail_is_dropped_and_repaired() {
        let mut fault = FaultStorage::new(MemStorage::new());
        let rs = records(4);
        for r in &rs {
            fault.append_wal(r).unwrap();
        }
        // Tear the last record mid-payload.
        fault.truncate_wal_tail(3);
        let replay = fault.read_wal().unwrap();
        assert_eq!(replay.records, rs[..3].to_vec());
        assert!(replay.dropped_bytes > 0, "torn tail must be reported");
        // The repair leaves an appendable log.
        fault.append_wal(b"recovered").unwrap();
        let replay = fault.read_wal().unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records[3], b"recovered");
        assert_eq!(replay.dropped_bytes, 0);
    }

    #[test]
    fn corrupt_tail_byte_stops_at_last_valid_record() {
        for offset_from_end in [0usize, 1, 7, 11] {
            let mut fault = FaultStorage::new(MemStorage::new());
            let rs = records(4);
            for r in &rs {
                fault.append_wal(r).unwrap();
            }
            fault.corrupt_wal_byte(offset_from_end);
            let replay = fault.read_wal().unwrap();
            // The corrupted byte lives in the last record (payload or
            // header): exactly the first three records survive, no
            // panic, no partial record.
            assert_eq!(replay.records, rs[..3].to_vec());
            assert!(replay.dropped_bytes > 0);
        }
    }

    #[test]
    fn corruption_mid_log_drops_everything_after() {
        let mut fault = FaultStorage::new(MemStorage::new());
        let rs = records(6);
        for r in &rs {
            fault.append_wal(r).unwrap();
        }
        let total = fault.wal_len();
        // Corrupt a byte roughly in the middle of the stream.
        fault.corrupt_wal_byte(total / 2);
        let replay = fault.read_wal().unwrap();
        assert!(replay.records.len() < 6);
        assert_eq!(replay.records, rs[..replay.records.len()].to_vec());
        assert!(replay.dropped_bytes > 0);
    }

    #[test]
    fn injected_append_failures_are_typed() {
        let mut fault = FaultStorage::new(MemStorage::new());
        fault.fail_after_appends(2);
        fault.append_wal(b"a").unwrap();
        fault.append_wal(b"b").unwrap();
        assert!(matches!(
            fault.append_wal(b"c"),
            Err(StorageError::Injected)
        ));
        fault.fail_appends(false);
        assert!(matches!(
            fault.append_wal(b"d"),
            Err(StorageError::Injected),
        ));
        let replay = fault.read_wal().unwrap();
        assert_eq!(replay.records, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn snapshot_corruption_is_detected() {
        let dir = std::env::temp_dir().join(format!("rekey-storage-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut storage = DirStorage::open(&dir).unwrap();
        storage.write_snapshot(b"good bytes").unwrap();
        storage.sync_wal().unwrap();
        // Flip one payload byte on disk.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            storage.load_snapshot(),
            Err(StorageError::SnapshotCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rekey-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    impl DirStorage {
        /// Makes the writer exit, its queue abandoned, once it has taken
        /// `jobs` writes: the process killed at that queue position.
        fn kill_writer_after(&mut self, jobs: u64) {
            let shared = self.writer().unwrap();
            shared.lock().die_after = Some(jobs);
            shared.work.notify_one();
        }
    }

    /// The write sequence of one snapshot cycle: three records, a
    /// snapshot, the reset, one more record.
    fn snapshot_cycle(storage: &mut DirStorage) {
        for r in &records(3) {
            storage.append_wal(r).unwrap();
        }
        storage.write_snapshot(b"new snapshot").unwrap();
        storage.reset_wal().unwrap();
        storage.append_wal(b"after-reset").unwrap();
    }

    /// No barrier anywhere: dropping the store is what drains the queue
    /// and joins the writer, and everything handed over is then on disk.
    #[test]
    fn drop_drains_the_queue_and_joins_the_writer() {
        let dir = temp_dir("drop");
        {
            let mut storage = DirStorage::open(&dir).unwrap();
            storage.write_snapshot(b"old snapshot").unwrap();
            snapshot_cycle(&mut storage);
        }
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        let mut reopened = DirStorage::open(&dir).unwrap();
        assert_eq!(
            reopened.read_wal().unwrap().records,
            vec![b"after-reset".to_vec()]
        );
        assert_eq!(
            reopened.load_snapshot().unwrap().as_deref(),
            Some(&b"new snapshot"[..])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Kill the writer at every position of the queue: what a reopened
    /// store finds is what a store that writes inside each call leaves
    /// when its process dies between two calls — a prefix of the calls,
    /// never a reordering.
    #[test]
    fn a_writer_killed_at_any_queue_position_leaves_a_prefix_of_the_calls() {
        let rs = records(3);
        for taken in 0..=6u64 {
            let dir = temp_dir(&format!("kill-{taken}"));
            {
                let mut storage = DirStorage::open(&dir).unwrap();
                storage.write_snapshot(b"old snapshot").unwrap();
                storage.sync_wal().unwrap();
                // One write is done; the writer dies `taken` into the
                // cycle, and the drop below joins it.
                storage.kill_writer_after(1 + taken);
                snapshot_cycle(&mut storage);
            }
            let mut reopened = DirStorage::open(&dir).unwrap();
            let wal = reopened.read_wal().unwrap();
            assert_eq!(wal.dropped_bytes, 0, "killed after {taken}");
            let expected_wal: Vec<Vec<u8>> = match taken {
                0..=3 => rs[..taken as usize].to_vec(),
                4 => rs.clone(), // snapshot replaced, log not yet reset
                5 => Vec::new(),
                _ => vec![b"after-reset".to_vec()],
            };
            assert_eq!(wal.records, expected_wal, "killed after {taken}");
            let expected_snapshot: &[u8] = if taken >= 4 {
                b"new snapshot"
            } else {
                b"old snapshot"
            };
            assert_eq!(
                reopened.load_snapshot().unwrap().as_deref(),
                Some(expected_snapshot),
                "killed after {taken}"
            );
            drop(reopened);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A snapshot that fails behind the caller's back is reported by the
    /// next barrier and by every call after it; the reset queued behind
    /// it is dropped, so the log still holds what the snapshot would
    /// have covered.
    #[test]
    fn a_failed_background_snapshot_poisons_the_store() {
        let dir = temp_dir("poison");
        let mut storage = DirStorage::open(&dir).unwrap();
        storage.append_wal(b"covered by no snapshot").unwrap();
        storage.sync_wal().unwrap();
        let wal_len = |storage: &DirStorage| storage.wal.metadata().unwrap().len();
        let len_before = wal_len(&storage);

        // The directory goes away under the open store: the snapshot's
        // temp file can no longer be created.
        std::fs::remove_dir_all(&dir).unwrap();
        let is_create_failure = |r: Result<(), StorageError>| {
            matches!(
                r,
                Err(StorageError::Io {
                    op: "snapshot create",
                    ..
                })
            )
        };
        storage.write_snapshot(b"never lands").unwrap();
        // Queued behind the snapshot and dropped, or refused outright if
        // the writer has failed already: never run.
        let reset = storage.reset_wal();
        assert!(reset.is_ok() || is_create_failure(reset));
        assert!(is_create_failure(storage.sync_wal()), "the next barrier");
        assert_eq!(wal_len(&storage), len_before, "the reset was dropped");
        assert!(is_create_failure(storage.append_wal(b"refused")));
        assert!(is_create_failure(storage.write_snapshot(b"refused")));
        assert!(is_create_failure(storage.reset_wal()));
        assert!(is_create_failure(storage.sync_wal()), "and every one after");
        assert!(is_create_failure(storage.read_wal().map(drop)));
        assert!(is_create_failure(storage.load_snapshot().map(drop)));
    }

    #[test]
    fn a_store_that_is_only_read_has_no_writer_thread() {
        let dir = temp_dir("lazy");
        let mut storage = DirStorage::open(&dir).unwrap();
        storage.sync_wal().unwrap();
        assert_eq!(storage.read_wal().unwrap().records.len(), 0);
        assert_eq!(storage.load_snapshot().unwrap(), None);
        assert!(storage.writer.is_none());
        assert_eq!(storage.wal_inflight_ns(), None);
        storage.append_wal(b"first write").unwrap();
        assert!(storage.writer.is_some());
        storage.sync_wal().unwrap();
        assert!(
            storage.wal_inflight_ns().is_some(),
            "measured on the writer"
        );
        assert_eq!(storage.wal_inflight_ns(), None, "reported once");
        drop(storage);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
