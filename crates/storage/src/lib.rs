//! Pluggable durable-state backends for the key server.
//!
//! The key-management layer (`rekey-core`) treats durability as two
//! byte-level primitives behind the [`Storage`] trait:
//!
//! - a **write-ahead log** of opaque records, appended one per rekey
//!   epoch *before* the epoch's frame is released to the fan-out, and
//! - a **snapshot** slot holding one opaque full-state blob, replaced
//!   atomically every few epochs, after which the WAL is reset (once the
//!   snapshot is durable) so its length stays bounded by the snapshot
//!   cadence.
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
///   return before the bytes are written ([`DirStorage`] does, on
///   writer threads; the in-memory backends do not): a write's `Ok`
///   means *accepted*, not *durable*.
/// - [`Storage::sync_wal`] is the barrier: once it returns `Ok`, every
///   record appended before it survives a crash — an
///   [`Storage::append_wal`] followed by [`Storage::sync_wal`] makes the
///   record durable — and so does the state the log and the snapshots
///   describe together. A snapshot handed over with nothing appended
///   after it is durable too when the barrier returns (a drain ends that
///   way). One with records behind it may still be being written: until
///   it is durable, the log keeps every record it covers. The barrier
///   also reports what buffering deferred: the first failure of a
///   buffered write is returned by the first barrier after it and by
///   every call after that, and the writes behind the failed one are
///   dropped.
/// - [`Storage::write_snapshot`] replaces the snapshot atomically: a
///   crash during the write leaves either the old blob or the new one,
///   never a mix. [`Storage::reset_wal`] tells the log that the last
///   snapshot handed over covers every record appended before it: the
///   log may discard them, but only once that snapshot is durable. A
///   durable record is never one the reset will still swallow, and a
///   record the snapshot covers is never discarded before the snapshot
///   is durable.
/// - Reads are barriers too: [`Storage::read_wal`] and
///   [`Storage::load_snapshot`] see every write accepted before them.
///   [`Storage::read_wal`] returns every valid record in order (records
///   a durable snapshot covers may still be among them),
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

    /// The barrier: returns once every record handed to the store so
    /// far is on durable media, the switch of a reset before them too,
    /// and the last snapshot if nothing was appended after it.
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

    /// Lets the log discard every record appended so far, once the last
    /// snapshot handed over (which covers them) is durable. Called right
    /// after [`Storage::write_snapshot`]. The in-memory backends empty
    /// the log at once; [`DirStorage`] switches to its other segment.
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

    /// A buffer to serialize the next snapshot into, for
    /// [`Storage::hand_over_snapshot`]: a backend that keeps the last
    /// snapshot's buffer hands it back — once that snapshot is written —
    /// so a caller that serializes every snapshot this way holds one
    /// snapshot-sized buffer and allocates none past the first. Empty
    /// from a backend that keeps none (the default).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if an earlier, buffered write failed.
    fn take_snapshot_buffer(&mut self) -> Result<Vec<u8>, StorageError> {
        Ok(Vec::new())
    }

    /// [`Storage::write_snapshot`] of a blob handed over by value: a
    /// backend that writes behind its caller keeps the buffer instead of
    /// copying it, and hands it back from
    /// [`Storage::take_snapshot_buffer`]. The default writes the blob
    /// through [`Storage::write_snapshot`] and drops it.
    ///
    /// # Errors
    ///
    /// As for [`Storage::write_snapshot`].
    fn hand_over_snapshot(&mut self, blob: Vec<u8>) -> Result<(), StorageError> {
        self.write_snapshot(&blob)
    }

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
/// The two WAL segments of a [`DirStorage`]: the legacy log first.
pub const WAL_SEGMENTS: [&str; 2] = [WAL_FILE, "wal.1.log"];

/// Largest append buffer kept between appends. A steady epoch record
/// is tens of kilobytes; a bootstrap epoch's megabytes are handed back
/// instead of being carried for the life of the server.
const FRAME_KEEP: usize = 64 * 1024;

/// A [`Storage`] backed by a directory of real files:
///
/// - `wal.log` and `wal.1.log` — two WAL segments of framed records,
///   appended and fsynced per epoch. Records go to one segment at a
///   time; [`Storage::reset_wal`] switches to the other. A segment
///   starts with a header carrying its generation
///   ([`wal::segment_header`]); a `wal.log` without one is generation
///   0, so a data directory written before segments reads as before;
/// - `snapshot.bin` — the sealed snapshot blob, replaced via
///   write-temp + fsync + rename (+ directory fsync), so a crash never
///   leaves a half-written snapshot under the live name.
///
/// # Two writer threads behind the caller
///
/// Appends and switches go to a FIFO WAL writer, snapshots to a
/// snapshot writer of their own (each thread spawned by the first write
/// it takes; a store that is only opened and read has neither), and
/// the call returns; the caller computes while the disk works. The WAL
/// never waits behind a snapshot's fsync chain:
///
/// ```text
/// caller    append ─┐ (computes) ┌ sync_wal   hand over the blob, reset_wal ─┐   append ─┐ (computes) ┌ sync_wal
///                   │            │ waits, if                                  │           │            │
/// WAL               └ write, ────┘ at all                       switch ───────┘ header + write, fdatasync┘
///                     fdatasync                                   (seal the old segment)
/// snapshot                                          crc, tmp, fsync, rename, dir fsync, empty the old segment
/// ```
///
/// A segment is emptied, or reused, only once a snapshot that covers
/// every record in it is durable: the snapshot writer empties it right
/// after the rename is durable, and a switch back to a segment that is
/// not yet empty waits for that. The segment kept until then holds
/// every record the pending snapshot would cover, so a crash at any
/// point leaves either the new snapshot, or the old one and both
/// segments: recovery reads the segments in generation order. A
/// segment left by a crash with records of unknown coverage waits for
/// the first snapshot handed over after [`DirStorage::open`].
///
/// At most one snapshot is in flight: a snapshot handed over while the
/// previous one is still being written waits for it (the next switch
/// would wait for it anyway, since the segment it frees is the one the
/// switch needs). Its buffer comes back from
/// [`Storage::take_snapshot_buffer`], and
/// [`Storage::hand_over_snapshot`] takes the next one without a copy:
/// a caller that uses both holds one snapshot-sized buffer, and
/// [`Storage::write_snapshot`] copies into that same buffer.
///
/// Appended records are `sync_data`ed as soon as the WAL queue runs
/// dry. [`Storage::sync_wal`] returns once every record handed over is
/// on disk — and a snapshot too, when nothing was appended after it
/// (a drain); reads wait for both threads. The first write that fails
/// is reported by the first barrier after it and by every call after
/// that; the writes queued behind it are dropped, not attempted, and no
/// segment is emptied after it. Dropping the store drains both threads
/// and joins them. Neither thread allocates: the buffers go back to the
/// caller, and the snapshot's paths are joined at `open`.
#[derive(Debug)]
pub struct DirStorage {
    shared: Arc<Shared>,
    wal_writer: Option<JoinHandle<()>>,
    snapshot_writer: Option<JoinHandle<()>>,
    /// WAL jobs (appends and switches) handed over so far.
    submitted: u64,
    /// Snapshots handed over so far; the first is number 1.
    snapshots: u64,
    /// Whether a record was handed over after the last snapshot (or
    /// since `open`, before any).
    appended_since_snapshot: bool,
    /// The segment records go to once the WAL writer has taken every
    /// job handed over. The caller decides every switch, so it knows.
    active: usize,
    /// Per segment: the number of the snapshot that must be durable
    /// before it is reused, 0 once nothing has to be.
    covered_by: [u64; 2],
    /// The active segment's generation at `open`, where the WAL writer
    /// starts counting.
    open_generation: u64,
}

/// A write handed to the WAL writer.
#[derive(Debug)]
enum WalJob {
    /// One framed record, and when it was handed over.
    Append(Vec<u8>, Instant),
    /// Seal the active segment — it may be emptied once snapshot
    /// number `.0` is durable — and go on in the other one.
    Switch(u64),
}

/// What the caller and both writer threads share.
#[derive(Debug)]
struct Shared {
    segments: [File; 2],
    /// The data directory and its two snapshot names, joined once.
    dir: PathBuf,
    tmp: PathBuf,
    live: PathBuf,
    state: Mutex<State>,
    /// Signalled for the WAL writer: a job is queued, a segment was
    /// emptied, the store is closed, or a write failed.
    wal_work: Condvar,
    /// Signalled for the snapshot writer: a snapshot is queued, a
    /// segment was sealed, the WAL writer exited, or a write failed.
    snapshot_work: Condvar,
    /// Signalled for callers: either thread made progress.
    progress: Condvar,
}

#[derive(Debug, Default)]
struct State {
    queue: VecDeque<WalJob>,
    /// How many WAL jobs are on disk (or, after a failure, dropped).
    wal_done: u64,
    /// The snapshot handed over and not yet taken by its writer.
    snapshot: Option<Vec<u8>>,
    /// Snapshots written, or dropped after a failure.
    snapshots_done: u64,
    /// Snapshots written and durable.
    snapshots_durable: u64,
    /// Per segment, once the WAL writer has switched away from it: the
    /// snapshot that covers it. Emptied and `None` once that snapshot
    /// is durable.
    sealed: [Option<u64>; 2],
    /// The first failure; everything after it is dropped unattempted.
    failed: Option<StorageError>,
    closed: bool,
    wal_running: bool,
    snapshot_running: bool,
    /// Hand-off → durable of the oldest record the last fsync covered.
    inflight_ns: Option<u64>,
    /// Buffers on their way back to the caller: frames up to
    /// [`FRAME_KEEP`], and the last snapshot's.
    spare_frames: Vec<Vec<u8>>,
    spare_blob: Vec<u8>,
    #[cfg(test)]
    hooks: Hooks,
}

/// Test hooks: a writer thread killed at a position (the process dies
/// there), and the snapshot writer held between two steps.
#[cfg(test)]
#[derive(Debug, Default)]
struct Hooks {
    /// The WAL writer exits, abandoning its queue, once it has taken
    /// this many jobs.
    wal_dies_after: Option<u64>,
    /// Records the WAL writer has written.
    appended: u64,
    /// Steps the snapshot writer has completed: a snapshot's temp file
    /// written, the snapshot renamed into place, a segment emptied.
    snapshot_steps: u64,
    /// The snapshot writer exits once it has completed this many steps.
    snapshot_dies_after: Option<u64>,
    /// The snapshot writer waits once it has completed this many steps.
    snapshot_held_after: Option<u64>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Nothing under this lock can panic between two stores that
        // belong together, so the state is valid even if a holder
        // panicked.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, cv: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(state).unwrap_or_else(|e| e.into_inner())
    }

    /// Keeps the first failure and wakes everyone: both writers drop
    /// their work, callers hear of it.
    fn fail(&self, state: &mut State, e: StorageError) {
        state.failed.get_or_insert(e);
        self.notify_all();
    }

    fn notify_all(&self) {
        self.wal_work.notify_all();
        self.snapshot_work.notify_all();
        self.progress.notify_all();
    }
}

impl State {
    /// A sealed segment whose covering snapshot is durable.
    fn coverable(&self) -> Option<usize> {
        (0..2).find(|&i| matches!(self.sealed[i], Some(n) if n <= self.snapshots_durable))
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> StorageError {
    move |source| StorageError::Io { op, source }
}

/// Opens a WAL segment for read + append, creating it if absent; the
/// flag says whether this call created it (its directory entry is then
/// not yet durable).
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

/// Directory fsync, so renames and creates are durable.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_err("sync data dir"))
}

/// Reads a whole segment from its start.
fn read_segment(mut file: &File) -> Result<Vec<u8>, StorageError> {
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(0)).map_err(io_err("wal seek"))?;
    file.read_to_end(&mut bytes).map_err(io_err("wal read"))?;
    Ok(bytes)
}

/// What the first bytes of a segment just opened (so read from its
/// start) say about it.
fn segment_start(mut file: &File) -> Result<wal::SegmentStart, StorageError> {
    let mut head = [0u8; wal::SEGMENT_HEADER_LEN];
    let mut len = 0;
    while len < head.len() {
        match file.read(&mut head[len..]).map_err(io_err("wal read"))? {
            0 => break,
            n => len += n,
        }
    }
    Ok(wal::SegmentStart::of(&head[..len]))
}

/// Empties a segment whose records a durable snapshot covers.
fn empty_segment(file: &File) -> Result<(), StorageError> {
    file.set_len(0).map_err(io_err("wal truncate"))?;
    file.sync_data().map_err(io_err("wal fsync"))
}

/// The snapshot writer's first half: the sealed blob, durable under
/// the temp name.
fn write_snapshot_tmp(shared: &Shared, blob: &[u8]) -> Result<(), StorageError> {
    let header = wal::frame_header(blob.len(), wal::crc32(blob))?;
    let mut f = File::create(&shared.tmp).map_err(io_err("snapshot create"))?;
    f.write_all(&header).map_err(io_err("snapshot write"))?;
    f.write_all(blob).map_err(io_err("snapshot write"))?;
    f.sync_all().map_err(io_err("snapshot fsync"))
}

/// The snapshot writer's second half: the temp file renamed into
/// place, durably.
fn publish_snapshot(shared: &Shared) -> Result<(), StorageError> {
    std::fs::rename(&shared.tmp, &shared.live).map_err(io_err("snapshot rename"))?;
    sync_dir(&shared.dir)
}

/// The WAL writer: takes jobs in order, fsyncs appended records when
/// the queue runs dry, and publishes how far the disk has got. Returns
/// once the store is closed and the queue is empty.
fn wal_main(shared: &Shared, mut active: usize, mut generation: u64) {
    // Jobs taken off the queue, the hand-off time of the oldest
    // appended record no fsync has covered yet, and whether the next
    // append opens a segment and writes its header first.
    let mut taken = 0u64;
    let mut unsynced: Option<Instant> = None;
    let mut header_due = false;
    let mut state = shared.lock();
    'jobs: loop {
        #[cfg(test)]
        if state.hooks.wal_dies_after == Some(taken) {
            break;
        }
        if let Some(job) = state.queue.pop_front() {
            let skip = state.failed.is_some();
            drop(state);
            taken += 1;
            let mut file = &shared.segments[active];
            let result = match &job {
                _ if skip => Ok(()),
                WalJob::Append(frame, handed_over) => {
                    unsynced.get_or_insert(*handed_over);
                    let opened = if header_due {
                        file.write_all(&wal::segment_header(generation))
                    } else {
                        Ok(())
                    };
                    opened
                        .and_then(|()| file.write_all(frame))
                        .map_err(io_err("wal append"))
                        .map(|()| header_due = false)
                }
                // Every record in the old segment is durable before any
                // in the new one is: recovery finds no gap between them.
                WalJob::Switch(_) => match unsynced.take() {
                    Some(_) => file.sync_data().map_err(io_err("wal fsync")),
                    None => Ok(()),
                },
            };
            state = shared.lock();
            match job {
                WalJob::Append(frame, _) => {
                    #[cfg(test)]
                    {
                        state.hooks.appended += u64::from(result.is_ok() && !skip);
                    }
                    if frame.capacity() <= FRAME_KEEP {
                        state.spare_frames.push(frame);
                    }
                }
                WalJob::Switch(covered_by) if result.is_ok() && state.failed.is_none() => {
                    state.sealed[active] = Some(covered_by);
                    shared.snapshot_work.notify_one();
                    let next = 1 - active;
                    // Reuse waits for coverage: the snapshot writer
                    // empties the segment once its snapshot is durable.
                    while state.sealed[next].is_some() && state.failed.is_none() {
                        if !state.snapshot_running {
                            // Only a killed snapshot writer leaves a
                            // switch nobody will free: the process died.
                            break 'jobs;
                        }
                        state = shared.wait(&shared.wal_work, state);
                    }
                    if state.failed.is_none() {
                        active = next;
                        generation += 1;
                        header_due = true;
                    }
                }
                WalJob::Switch(_) => {}
            }
            if let Err(e) = result {
                shared.fail(&mut state, e);
            }
        } else if let (Some(handed_over), None) = (unsynced, &state.failed) {
            drop(state);
            let synced = shared.segments[active]
                .sync_data()
                .map_err(io_err("wal fsync"));
            unsynced = None;
            state = shared.lock();
            match synced {
                Ok(()) => state.inflight_ns = Some(handed_over.elapsed().as_nanos() as u64),
                Err(e) => shared.fail(&mut state, e),
            }
        } else {
            state.wal_done = taken;
            shared.progress.notify_all();
            if state.closed {
                break;
            }
            state = shared.wait(&shared.wal_work, state);
        }
    }
    state.wal_running = false;
    shared.notify_all();
}

/// The snapshot writer: empties a sealed segment as soon as its
/// snapshot is durable, otherwise writes the snapshot handed over.
/// Returns once the store is closed, the WAL writer gone and nothing
/// is left to do.
fn snapshot_main(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        #[cfg(test)]
        if state.hooks.snapshot_dies_after == Some(state.hooks.snapshot_steps) {
            break;
        }
        if state.failed.is_some() {
            if let Some(blob) = state.snapshot.take() {
                state.spare_blob = blob;
                state.snapshots_done += 1;
                shared.progress.notify_all();
            }
        } else if let Some(i) = state.coverable() {
            drop(state);
            let emptied = empty_segment(&shared.segments[i]);
            state = shared.lock();
            match emptied {
                Ok(()) => {
                    state.sealed[i] = None;
                    #[cfg(test)]
                    {
                        state.hooks.snapshot_steps += 1;
                    }
                    shared.wal_work.notify_all();
                    shared.progress.notify_all();
                }
                Err(e) => shared.fail(&mut state, e),
            }
            continue;
        } else if let Some(blob) = state.snapshot.take() {
            drop(state);
            let written = write_snapshot_tmp(shared, &blob);
            #[cfg(test)]
            if written.is_ok() && !snapshot_step(shared) {
                state = shared.lock();
                break;
            }
            let result = written.and_then(|()| publish_snapshot(shared));
            state = shared.lock();
            state.spare_blob = blob;
            state.snapshots_done += 1;
            match result {
                Ok(()) => {
                    state.snapshots_durable += 1;
                    #[cfg(test)]
                    {
                        state.hooks.snapshot_steps += 1;
                    }
                    shared.progress.notify_all();
                }
                Err(e) => shared.fail(&mut state, e),
            }
            continue;
        }
        if state.closed && !state.wal_running {
            break;
        }
        state = shared.wait(&shared.snapshot_work, state);
    }
    state.snapshot_running = false;
    shared.notify_all();
}

/// Counts the step the snapshot writer just completed, waits while it
/// is held there, and says whether it lives on.
#[cfg(test)]
fn snapshot_step(shared: &Shared) -> bool {
    let mut state = shared.lock();
    state.hooks.snapshot_steps += 1;
    shared.progress.notify_all();
    while state.hooks.snapshot_held_after == Some(state.hooks.snapshot_steps) {
        state = shared.wait(&shared.snapshot_work, state);
    }
    state.hooks.snapshot_dies_after != Some(state.hooks.snapshot_steps)
}

/// What a barrier waits for besides the WAL writer's queue.
#[derive(Clone, Copy, PartialEq)]
enum Barrier {
    /// The appended records only.
    Wal,
    /// The last snapshot too.
    Snapshot,
    /// Both threads idle: no snapshot in flight, no covered segment
    /// left to empty.
    Idle,
}

impl DirStorage {
    /// Opens (creating if needed) the data directory at `dir`. A WAL
    /// segment this call had to create gets its directory entry fsynced
    /// before anything is appended — otherwise the first epochs' records
    /// could be fsynced into a file a power loss then unlinks. Records go
    /// on into the segment of the newest generation; a segment whose
    /// header a crash tore holds no record and is emptied here.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory or a WAL segment cannot be
    /// created, opened or read.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err("create data dir"))?;
        let (first, created_first) = open_or_create_wal(&dir.join(WAL_SEGMENTS[0]))?;
        let (second, created_second) = open_or_create_wal(&dir.join(WAL_SEGMENTS[1]))?;
        if created_first || created_second {
            sync_dir(&dir)?;
        }
        let segments = [first, second];
        let mut generations = [None; 2];
        for (generation, file) in generations.iter_mut().zip(&segments) {
            let start = segment_start(file)?;
            if start == wal::SegmentStart::Torn {
                empty_segment(file)?;
            }
            *generation = start.generation();
        }
        // The newest segment takes the records; an older one that still
        // holds some waits for the first snapshot handed over from now.
        let (active, generation, older) = match generations {
            [Some(a), Some(b)] if b > a => (1, b, true),
            [Some(a), Some(_)] => (0, a, true),
            [None, Some(b)] => (1, b, false),
            [Some(a), None] => (0, a, false),
            [None, None] => (0, 0, false),
        };
        let mut covered_by = [0; 2];
        let mut sealed = [None; 2];
        if older {
            covered_by[1 - active] = 1;
            sealed[1 - active] = Some(1);
        }
        let shared = Arc::new(Shared {
            segments,
            tmp: dir.join(SNAPSHOT_TMP),
            live: dir.join(SNAPSHOT_FILE),
            dir,
            state: Mutex::new(State {
                sealed,
                ..State::default()
            }),
            wal_work: Condvar::new(),
            snapshot_work: Condvar::new(),
            progress: Condvar::new(),
        });
        Ok(DirStorage {
            shared,
            wal_writer: None,
            snapshot_writer: None,
            submitted: 0,
            snapshots: 0,
            appended_since_snapshot: true,
            active,
            covered_by,
            open_generation: generation,
        })
    }

    /// The data directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// The shared state, refused once a write has failed.
    fn state(&self) -> Result<MutexGuard<'_, State>, StorageError> {
        let state = self.shared.lock();
        match &state.failed {
            Some(e) => Err(e.replica()),
            None => Ok(state),
        }
    }

    /// Spawns a writer thread running `main`, its `running` flag raised
    /// first (and lowered again if the spawn fails).
    fn spawn_writer(
        &self,
        name: &str,
        running: fn(&mut State) -> &mut bool,
        main: impl FnOnce(&Shared) + Send + 'static,
    ) -> Result<JoinHandle<()>, StorageError> {
        *running(&mut self.shared.lock()) = true;
        let shared = self.shared.clone();
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || main(&shared))
            .map_err(|e| {
                *running(&mut self.shared.lock()) = false;
                io_err("spawn storage writer")(e)
            })
    }

    /// Spawns the WAL writer on first use.
    fn spawn_wal_writer(&mut self) -> Result<(), StorageError> {
        if self.wal_writer.is_none() {
            let (active, generation) = (self.active, self.open_generation);
            let main = move |shared: &Shared| wal_main(shared, active, generation);
            let thread = self.spawn_writer("rekey-storage-wal", |s| &mut s.wal_running, main)?;
            self.wal_writer = Some(thread);
        }
        Ok(())
    }

    /// Spawns the snapshot writer on first use.
    fn spawn_snapshot_writer(&mut self) -> Result<(), StorageError> {
        if self.snapshot_writer.is_none() {
            let thread = self.spawn_writer(
                "rekey-storage-snapshot",
                |s| &mut s.snapshot_running,
                snapshot_main,
            )?;
            self.snapshot_writer = Some(thread);
        }
        Ok(())
    }

    /// The shared state once the previous snapshot is written — at most
    /// one is in flight — spawning the snapshot writer on first use;
    /// refused once a write has failed.
    fn previous_snapshot(&mut self) -> Result<MutexGuard<'_, State>, StorageError> {
        self.spawn_snapshot_writer()?;
        let mut state = self.shared.lock();
        while state.snapshots_done < self.snapshots
            && state.failed.is_none()
            && state.snapshot_running
        {
            state = self.shared.wait(&self.shared.progress, state);
        }
        match &state.failed {
            Some(e) => Err(e.replica()),
            None => Ok(state),
        }
    }

    /// Queues `job` behind everything handed to the WAL writer so far.
    fn submit(&mut self, job: WalJob) -> Result<(), StorageError> {
        self.spawn_wal_writer()?;
        self.shared.lock().queue.push_back(job);
        self.shared.wal_work.notify_one();
        self.submitted += 1;
        Ok(())
    }

    /// Returns once every WAL job handed over so far is on disk, and
    /// whatever else `until` names; reports the failure, from then on,
    /// if one of them was not. A thread that is gone has nothing in
    /// flight.
    fn barrier(&self, until: Barrier) -> Result<(), StorageError> {
        let mut state = self.shared.lock();
        loop {
            let wal = state.wal_done >= self.submitted || !state.wal_running;
            let snapshot = until == Barrier::Wal
                || state.snapshots_done >= self.snapshots
                || !state.snapshot_running;
            let idle = until != Barrier::Idle
                || state.failed.is_some()
                || state.coverable().is_none()
                || !state.snapshot_running;
            if wal && snapshot && idle {
                break;
            }
            state = self.shared.wait(&self.shared.progress, state);
        }
        state.failed.as_ref().map_or(Ok(()), |e| Err(e.replica()))
    }
}

impl Drop for DirStorage {
    /// Drains both threads — a drained daemon's last snapshot is on
    /// disk, and the segment it covers empty, when its store goes away —
    /// and joins them. A failure among the drained writes has nowhere to
    /// go from here: a caller that needs to know ends with
    /// [`Storage::sync_wal`].
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.notify_all();
        for thread in [self.wal_writer.take(), self.snapshot_writer.take()]
            .into_iter()
            .flatten()
        {
            let _ = thread.join();
        }
    }
}

impl Storage for DirStorage {
    fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError> {
        let mut frame = self.state()?.spare_frames.pop().unwrap_or_default();
        frame.clear();
        wal::frame_record(record, &mut frame)?;
        self.submit(WalJob::Append(frame, Instant::now()))?;
        self.appended_since_snapshot = true;
        Ok(())
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        self.barrier(if self.appended_since_snapshot {
            Barrier::Wal
        } else {
            Barrier::Snapshot
        })
    }

    fn wal_inflight_ns(&mut self) -> Option<u64> {
        self.shared.lock().inflight_ns.take()
    }

    fn read_wal(&mut self) -> Result<WalReplay, StorageError> {
        self.barrier(Barrier::Idle)?;
        // The other segment is older, or free and so empty: its records
        // come first.
        let mut records = Vec::new();
        let mut dropped_bytes = 0;
        let other = 1 - self.active;
        for i in [other, self.active] {
            if i == other && self.covered_by[other] == 0 {
                continue;
            }
            let file = &self.shared.segments[i];
            let bytes = read_segment(file)?;
            let start = wal::SegmentStart::of(&bytes).records_at().min(bytes.len());
            let (mut segment, valid) = wal::parse_records(&bytes[start..]);
            records.append(&mut segment);
            let dropped = bytes.len() - start - valid;
            dropped_bytes += dropped;
            if dropped > 0 && i == self.active {
                // Repair: discard the torn tail so new appends follow the
                // last valid record instead of hiding behind garbage.
                file.set_len((start + valid) as u64)
                    .map_err(io_err("wal repair truncate"))?;
                file.sync_data().map_err(io_err("wal fsync"))?;
            }
        }
        Ok(WalReplay {
            records,
            dropped_bytes,
        })
    }

    fn reset_wal(&mut self) -> Result<(), StorageError> {
        // Refused, like every write, once one has failed.
        drop(self.state()?);
        let other = 1 - self.active;
        if self.covered_by[other] > self.snapshots {
            // No snapshot handed over covers the other segment yet: the
            // records go on here, and a later snapshot covers both.
            return Ok(());
        }
        let covered_by = self.snapshots + u64::from(self.appended_since_snapshot);
        self.covered_by[self.active] = covered_by;
        self.covered_by[other] = 0;
        self.active = other;
        self.submit(WalJob::Switch(covered_by))
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError> {
        let mut copy = self.take_snapshot_buffer()?;
        copy.clear();
        copy.extend_from_slice(blob);
        self.hand_over_snapshot(copy)
    }

    fn take_snapshot_buffer(&mut self) -> Result<Vec<u8>, StorageError> {
        Ok(std::mem::take(&mut self.previous_snapshot()?.spare_blob))
    }

    fn hand_over_snapshot(&mut self, blob: Vec<u8>) -> Result<(), StorageError> {
        // The length check is the caller's to hear about now; the CRC is
        // the writer's to compute.
        wal::frame_header(blob.len(), 0)?;
        self.previous_snapshot()?.snapshot = Some(blob);
        self.shared.snapshot_work.notify_one();
        self.snapshots += 1;
        self.appended_since_snapshot = false;
        Ok(())
    }

    fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        self.barrier(Barrier::Idle)?;
        let mut sealed = match std::fs::read(&self.shared.live) {
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

    /// A snapshot blob standing for the state at `epoch`.
    fn snapshot_at(epoch: u8) -> Vec<u8> {
        vec![0xEE, epoch]
    }

    /// What a store recovers to: the snapshot's epoch, then each record
    /// past it in order — one-byte records carrying their epoch. A gap
    /// is a lost record.
    fn recovered_epoch(storage: &mut DirStorage, context: &str) -> u8 {
        let snapshot = storage.load_snapshot().unwrap().expect("a snapshot");
        let mut epoch = snapshot[1];
        let wal = storage.read_wal().unwrap();
        assert_eq!(wal.dropped_bytes, 0, "{context}");
        for record in wal.records {
            if record[0] <= epoch {
                continue;
            }
            assert_eq!(record[0], epoch + 1, "{context}: a record is missing");
            epoch = record[0];
        }
        epoch
    }

    impl DirStorage {
        fn hooks(&self) -> MutexGuard<'_, State> {
            self.shared.lock()
        }

        /// Waits until the snapshot writer has completed `steps` steps.
        fn await_snapshot_steps(&self, steps: u64) {
            let mut state = self.shared.lock();
            while state.hooks.snapshot_steps < steps {
                state = self.shared.wait(&self.shared.progress, state);
            }
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

    /// No barrier anywhere: dropping the store is what drains both
    /// threads and joins them. Everything handed over is then on disk,
    /// and the segment the new snapshot covers is empty, so a reopened
    /// store has nothing left to wait for.
    #[test]
    fn drop_drains_the_queue_and_joins_the_writer() {
        let dir = temp_dir("drop");
        {
            let mut storage = DirStorage::open(&dir).unwrap();
            storage.write_snapshot(b"old snapshot").unwrap();
            snapshot_cycle(&mut storage);
        }
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let mut reopened = DirStorage::open(&dir).unwrap();
        assert_eq!(reopened.covered_by, [0, 0], "nothing waits for coverage");
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

    /// While the snapshot writer is held between its temp file and the
    /// rename, the log goes on: `append_wal` + `sync_wal` return. A
    /// crash there leaves the old snapshot and both segments non-empty,
    /// and every record recovers.
    #[test]
    fn a_held_snapshot_writer_does_not_stall_the_log() {
        let dir = temp_dir("held");
        let mut storage = DirStorage::open(&dir).unwrap();
        storage.write_snapshot(&snapshot_at(0)).unwrap();
        storage.sync_wal().unwrap();
        // Two steps done (temp file, rename); the next snapshot stops
        // after its temp file.
        storage.hooks().hooks.snapshot_held_after = Some(3);
        for epoch in 1..=3 {
            storage.append_wal(&[epoch]).unwrap();
        }
        storage.sync_wal().unwrap();
        storage.write_snapshot(&snapshot_at(3)).unwrap();
        storage.reset_wal().unwrap();
        storage.await_snapshot_steps(3);

        let shared = storage.shared.clone();
        let (done, returned) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            storage.append_wal(&[4]).unwrap();
            storage.sync_wal().unwrap();
            let _ = done.send(());
            storage
        });
        let returned = returned
            .recv_timeout(std::time::Duration::from_secs(20))
            .is_ok();
        let live = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        // The process dies here: the snapshot writer where it is held,
        // the WAL writer after its five jobs.
        {
            let mut state = shared.lock();
            state.hooks.wal_dies_after = Some(5);
            state.hooks.snapshot_dies_after = Some(3);
            state.hooks.snapshot_held_after = None;
            shared.notify_all();
        }
        drop(caller.join().unwrap());
        assert!(
            returned,
            "append_wal + sync_wal waited for the held snapshot"
        );
        assert_eq!(wal::unseal_snapshot(&live).unwrap(), snapshot_at(0));

        for segment in WAL_SEGMENTS {
            assert!(std::fs::metadata(dir.join(segment)).unwrap().len() > 0);
        }
        let mut reopened = DirStorage::open(&dir).unwrap();
        assert_eq!(reopened.covered_by, [1, 0], "wal.log waits for coverage");
        let wal = reopened.read_wal().unwrap();
        assert_eq!(wal.records, vec![vec![1], vec![2], vec![3], vec![4]]);
        assert_eq!(reopened.load_snapshot().unwrap(), Some(snapshot_at(0)));
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Kill either writer thread, or both, at every position: what a
    /// reopened store finds is a prefix of the calls — the newest durable
    /// snapshot and every record written past it, never a gap — so no
    /// segment was reused before the snapshot covering it was durable.
    /// Two cycles, so the second switch reuses the first segment.
    #[test]
    fn a_writer_killed_at_any_queue_position_leaves_a_prefix_of_the_calls() {
        // Jobs: 3 appends, switch, 3 appends, switch, 1 append. Steps
        // per snapshot: temp file, rename, the covered segment emptied.
        for wal_jobs in 0..=9u64 {
            for snapshot_steps in 0..=6u64 {
                let context = format!(
                    "WAL writer killed after {wal_jobs}, snapshot writer after {snapshot_steps}"
                );
                let dir = temp_dir(&format!("kill-{wal_jobs}-{snapshot_steps}"));
                let shared = {
                    let mut storage = DirStorage::open(&dir).unwrap();
                    storage.write_snapshot(&snapshot_at(0)).unwrap();
                    storage.sync_wal().unwrap();
                    {
                        let mut state = storage.hooks();
                        state.hooks.wal_dies_after = Some(wal_jobs);
                        state.hooks.snapshot_dies_after = Some(2 + snapshot_steps);
                    }
                    for epoch in 1..=7 {
                        storage.append_wal(&[epoch]).unwrap();
                        if epoch % 3 == 0 {
                            storage.write_snapshot(&snapshot_at(epoch)).unwrap();
                            storage.reset_wal().unwrap();
                        }
                    }
                    storage.shared.clone()
                };
                let appended = shared.lock().hooks.appended;
                let mut reopened = DirStorage::open(&dir).unwrap();
                let epoch = recovered_epoch(&mut reopened, &context);
                assert!(
                    u64::from(epoch) >= appended,
                    "{context}: a written record lost"
                );
                assert!(epoch <= 7, "{context}");
                drop(reopened);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// Until a snapshot is handed over that covers the segment a switch
    /// would reuse, a reset keeps the log where it is: no record is lost
    /// and nothing waits for a snapshot that may never come.
    #[test]
    fn a_reset_no_snapshot_covers_keeps_every_record() {
        let dir = temp_dir("uncovered");
        {
            let mut storage = DirStorage::open(&dir).unwrap();
            for record in [b"one", b"two", b"six"] {
                storage.append_wal(record).unwrap();
                storage.reset_wal().unwrap();
            }
            storage.sync_wal().unwrap();
            let records = vec![b"one".to_vec(), b"two".to_vec(), b"six".to_vec()];
            assert_eq!(storage.read_wal().unwrap().records, records);
        }
        let mut reopened = DirStorage::open(&dir).unwrap();
        assert_eq!(reopened.read_wal().unwrap().records.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot that fails behind the caller's back is reported by the
    /// first barrier after the failure and by every call after it. The
    /// segment it was meant to cover is kept, so a reopened store still
    /// has every record.
    #[test]
    fn a_failed_background_snapshot_poisons_the_store() {
        let dir = temp_dir("poison");
        let mut storage = DirStorage::open(&dir).unwrap();
        storage.append_wal(b"covered by no snapshot").unwrap();
        storage.sync_wal().unwrap();

        // A directory under the temp file's name: the snapshot's temp
        // file can no longer be created.
        std::fs::create_dir(dir.join(SNAPSHOT_TMP)).unwrap();
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
        // The switch needs no snapshot (the other segment is free), and
        // the log goes on, unless the failure has come back already.
        for result in [
            storage.reset_wal(),
            storage.append_wal(b"after the switch"),
            storage.sync_wal(),
        ] {
            assert!(result.is_ok() || is_create_failure(result));
        }
        // Reads wait for the snapshot writer: the failure is back.
        assert!(is_create_failure(storage.load_snapshot().map(drop)));
        assert!(is_create_failure(storage.sync_wal()), "the next barrier");
        assert!(is_create_failure(storage.append_wal(b"refused")));
        assert!(is_create_failure(storage.write_snapshot(b"refused")));
        assert!(is_create_failure(storage.reset_wal()));
        assert!(is_create_failure(storage.sync_wal()), "and every one after");
        assert!(is_create_failure(storage.read_wal().map(drop)));
        drop(storage);

        assert!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() > 0,
            "kept"
        );
        let mut reopened = DirStorage::open(&dir).unwrap();
        let records = reopened.read_wal().unwrap().records;
        assert_eq!(records[0], b"covered by no snapshot");
        assert!(records.len() <= 2);
        assert_eq!(reopened.load_snapshot().unwrap(), None);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_store_that_is_only_read_has_no_writer_thread() {
        let dir = temp_dir("lazy");
        let mut storage = DirStorage::open(&dir).unwrap();
        storage.sync_wal().unwrap();
        assert_eq!(storage.read_wal().unwrap().records.len(), 0);
        assert_eq!(storage.load_snapshot().unwrap(), None);
        assert!(storage.wal_writer.is_none() && storage.snapshot_writer.is_none());
        assert_eq!(storage.wal_inflight_ns(), None);
        storage.append_wal(b"first write").unwrap();
        assert!(storage.wal_writer.is_some());
        assert!(storage.snapshot_writer.is_none(), "no snapshot yet");
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
