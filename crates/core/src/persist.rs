//! Durable key-forest state: an epoch write-ahead log plus periodic
//! snapshots over a pluggable [`Storage`] backend.
//!
//! # Design: log the inputs, not the outputs
//!
//! Every scheme in this crate is deterministic: given the same
//! membership batch and the same RNG stream, [`GroupKeyManager::
//! process_interval`] emits byte-identical rekey messages (the golden
//! conformance digests pin this). The WAL therefore records only an
//! interval's *inputs* — the epoch number, the RNG state *before* the
//! interval drew from it, and the join/leave batch — and recovery
//! simply re-runs the intervals. A WAL record is a few hundred bytes
//! regardless of group size, and replay reproduces every emitted byte,
//! so reconnecting clients can be served the exact frames they missed.
//!
//! # Write-ahead ordering
//!
//! [`Journal::durable_interval`] hands the epoch record to the log
//! **before** it runs the interval, and waits for it to be durable
//! ([`Storage::sync_wal`], the barrier) **before** handing the rekey
//! message to the caller's sink:
//!
//! ```text
//! check_batch → append_wal(record) → process_interval → sync_wal → sink → [snapshot]
//! ```
//!
//! The record can go first because it holds only inputs, all known when
//! the call starts — the epoch is the journal's own count plus one —
//! so a backend that writes behind its caller
//! ([`rekey_storage::DirStorage`]) does the append and the fsync while
//! the engine computes, and the barrier finds them done. The barrier
//! waits for the log alone: a snapshot handed over before the record is
//! written on a thread of its own, and the records it would cover stay
//! in a log segment of their own until it is durable. What is ordered
//! is the record against the *sink*: if the append or the barrier
//! fails, the frame is never released, so a frame a client may have
//! seen is always re-derivable from disk.
//!
//! It is safe because a batch is checked before it is logged: the
//! journal runs [`crate::check_batch`] first, and a batch it rejects (an
//! unknown leaver, a duplicate joiner) comes back as
//! [`PersistError::Replay`] with nothing logged, no randomness drawn
//! and no sink call. The engine rejects nothing else, and the check
//! needs only [`GroupKeyManager::contains`], which every wrapper
//! forwards; so every record in the log stands for an interval that
//! ran. The log holds [`EpochRecord`]s only, and any rejection while
//! [`Journal::recover`] replays one is a log that does not match its
//! snapshot.
//!
//! # Records name their planner
//!
//! Replay re-derives an interval's output from its inputs, so a record
//! is only as good as the code that re-runs it: a planner that renders
//! the same batch into other keys would re-render a logged epoch from
//! the logged nonce start with another plan, and one KEK could meet
//! one nonce with two payloads. [`RECORD_WIRE_VERSION`] therefore
//! names the planner as well as the layout, and a record of any other
//! version is refused as [`PersistError::PlannerChanged`] rather than
//! replayed. A data directory crosses such an upgrade by draining —
//! [`Journal::snapshot`] empties the log — since a snapshot holds
//! state, not inputs, and restores under any planner.
//!
//! A change to how a planned key is *sealed* is not a planner change,
//! and so is no reason to bump the version. When the key wrap moved
//! its Poly1305 key from ChaCha20 block 0 into the half of block 1 that
//! RFC 8439 discards, a record written by the two-block wrap replayed
//! under the one-block wrap re-renders the same plan, the same nonces
//! and the same payloads — the RNG draws and tree state do not depend
//! on the wrap — so each (KEK, nonce) meets the payload it met before,
//! gives the same ciphertext (block 1's first half is the key stream
//! in both), and adds one tag under a one-time key independent of the
//! first (block 0's first half against block 1's second half). No key
//! stream meets a second payload and no one-time key a second message,
//! so the record stays version 2 and such data directories recover as
//! they are.
//!
//! # Snapshots bound replay
//!
//! Every `snapshot_every` intervals the journal serializes the whole
//! manager (trees, policy bookkeeping, DEK, epoch) together with the
//! *post*-interval RNG state and hands the blob to the backend, then
//! resets the log ([`Storage::reset_wal`]). [`rekey_storage::DirStorage`]
//! writes the snapshot behind the next intervals on its own thread and
//! makes the reset a switch to its second log segment; the segment the
//! snapshot covers is emptied only once the snapshot is durable. A
//! failure there surfaces at the first barrier after it, and at the
//! latest when the next snapshot is handed over (before the switch that
//! would reuse the segment): every frame released before that is
//! re-derivable from the old snapshot and the kept segment.
//! [`Journal::snapshot`] called directly (drain, shutdown) ends with a
//! barrier that returns only once the snapshot is durable. Recovery is
//! then: restore the snapshot, re-run the log (at most two segments,
//! each up to `snapshot_every` intervals), resume. A crash between the
//! snapshot write and the emptying of the segment it covers leaves
//! records the snapshot already covers; recovery skips any record whose
//! epoch is not past the snapshot's.

use crate::{GroupKeyManager, IntervalOutcome, Join};
use rand::rngs::StdRng;
use rekey_keytree::message::codec::{put_u32, put_u64, DecodeError, Reader};
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::{KeyTreeError, MemberId};
use rekey_storage::{Storage, StorageError};
use std::fmt;
use std::time::Instant;

/// Version byte leading a serialized [`EpochRecord`]: the record
/// layout *and* the planner that replays it (module docs). 4 is the
/// planner that clusters a join-only batch's joiners under the batch's
/// own splits; 3 placed each by balanced descent, and derived a
/// compromised key from its compromised child by G; 2 drew it fresh and
/// wrapped it under that child, and advanced join-only keys by F, which
/// 1 wrapped.
pub const RECORD_WIRE_VERSION: u8 = 4;

/// Smallest serialized join: member id, individual key, a class byte
/// and a loss-rate flag.
const MIN_JOIN_LEN: usize = 8 + 32 + 1 + 1;

/// Version byte leading a snapshot blob.
pub const SNAPSHOT_WIRE_VERSION: u8 = 1;

/// Splits a snapshot blob into the epoch it stands at, the RNG's
/// position after that epoch, and the manager's
/// [`GroupKeyManager::save_state`] bytes behind them;
/// [`PersistError::Codec`] for another version or a short head.
pub fn split_snapshot(blob: &[u8]) -> Result<(u64, [u8; 32], &[u8]), PersistError> {
    let mut r = Reader::new(blob);
    let (epoch, rng_state) = r
        .expect(SNAPSHOT_WIRE_VERSION)
        .and_then(|()| Ok((r.u64()?, *r.array()?)))
        .map_err(PersistError::codec("snapshot"))?;
    Ok((epoch, rng_state, r.rest()))
}

/// The version and epoch of a logged record: every record version so
/// far leads with both. A record this build replays must decode whole
/// ([`PersistError::Codec`] if not); one of another version is read
/// only as far as its epoch.
pub fn record_head(bytes: &[u8]) -> Result<(u8, u64), PersistError> {
    match EpochRecord::decode(bytes) {
        Ok(record) => Ok((RECORD_WIRE_VERSION, record.epoch)),
        Err(PersistError::PlannerChanged { found, .. }) => Reader::new(&bytes[1..])
            .u64()
            .map(|epoch| (found, epoch))
            .map_err(PersistError::codec("WAL record")),
        Err(e) => Err(e),
    }
}

/// Error of a durability operation.
#[derive(Debug)]
pub enum PersistError {
    /// The storage backend failed.
    Storage(StorageError),
    /// A persisted blob did not parse.
    Codec {
        /// What was being decoded.
        what: &'static str,
        /// Why it did not parse.
        error: DecodeError,
    },
    /// Replaying a WAL record against the restored manager failed —
    /// the log does not match the snapshot it extends.
    Replay(KeyTreeError),
    /// The snapshot was written by a different scheme than the manager
    /// being restored.
    SchemeMismatch {
        /// Scheme of the restoring manager.
        expected: String,
        /// Scheme recorded in the snapshot.
        found: String,
    },
    /// WAL epochs are not contiguous with the recovered state — the
    /// log lost records in the middle, which repair cannot fix — or a
    /// live interval came out at another epoch than the one its record
    /// was logged under (the manager is not the one this journal
    /// recovered).
    EpochGap {
        /// The epoch recovery expected next.
        expected: u64,
        /// The epoch the record carried.
        found: u64,
    },
    /// A WAL record was written under another planner than this one's
    /// ([`RECORD_WIRE_VERSION`]): replaying it would render its epoch
    /// differently from the same nonce start. Drain the log under the
    /// old build before upgrading.
    PlannerChanged {
        /// The record version found in the log.
        found: u8,
        /// This build's [`RECORD_WIRE_VERSION`].
        expected: u8,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Storage(e) => write!(f, "storage backend: {e}"),
            PersistError::Codec { what, error } => {
                write!(f, "corrupt persisted state: {what} {error}")
            }
            PersistError::Replay(e) => write!(f, "WAL replay rejected by the manager: {e}"),
            PersistError::SchemeMismatch { expected, found } => write!(
                f,
                "snapshot belongs to scheme {found}, manager runs {expected}"
            ),
            PersistError::EpochGap { expected, found } => {
                write!(f, "WAL epoch gap: expected epoch {expected}, found {found}")
            }
            PersistError::PlannerChanged { found, expected } => write!(
                f,
                "WAL record version {found} was written under another planner than \
                 this build's {expected}: drain the log under the old build first"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Storage(e) => Some(e),
            PersistError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl PersistError {
    /// Converts a [`DecodeError`] met in the blob named `what`.
    pub(crate) fn codec(what: &'static str) -> impl Fn(DecodeError) -> PersistError {
        move |error| PersistError::Codec { what, error }
    }
}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

/// One interval's inputs — everything needed to re-run it bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Engine epoch this interval produced (1-based).
    pub epoch: u64,
    /// RNG state captured *before* the interval drew from it.
    pub rng_state: [u8; 32],
    /// The interval's join requests, hints included (hints steer
    /// placement, so they steer bytes).
    pub joins: Vec<Join>,
    /// The interval's departures, in batch order.
    pub leaves: Vec<MemberId>,
}

impl EpochRecord {
    /// Serializes the record onto `buf` ([`RECORD_WIRE_VERSION`]-led,
    /// big-endian, following the message codec conventions).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(RECORD_WIRE_VERSION);
        put_u64(buf, self.epoch);
        buf.extend_from_slice(&self.rng_state);
        put_u32(buf, self.joins.len() as u32);
        for join in &self.joins {
            put_u64(buf, join.member.0);
            buf.extend_from_slice(join.individual_key.as_bytes());
            buf.push(match join.hint.expected_class {
                None => 0,
                Some(crate::DurationClass::Short) => 1,
                Some(crate::DurationClass::Long) => 2,
            });
            match join.hint.loss_rate {
                None => buf.push(0),
                Some(loss) => {
                    buf.push(1);
                    put_u64(buf, loss.to_bits());
                }
            }
        }
        put_u32(buf, self.leaves.len() as u32);
        for &leave in &self.leaves {
            put_u64(buf, leave.0);
        }
    }

    /// Decodes a record serialized by [`EpochRecord::encode_into`],
    /// requiring the whole of `bytes` to be consumed.
    ///
    /// # Errors
    ///
    /// [`PersistError::PlannerChanged`] for a record of another
    /// [`RECORD_WIRE_VERSION`] (any other first byte),
    /// [`PersistError::Codec`] for anything else that does not parse.
    pub fn decode(bytes: &[u8]) -> Result<EpochRecord, PersistError> {
        match bytes.first() {
            Some(&found) if found != RECORD_WIRE_VERSION => Err(PersistError::PlannerChanged {
                found,
                expected: RECORD_WIRE_VERSION,
            }),
            _ => EpochRecord::read(&mut Reader::new(bytes))
                .map_err(PersistError::codec("WAL record")),
        }
    }

    /// [`EpochRecord::decode`] of a record of this version.
    fn read(r: &mut Reader<'_>) -> Result<EpochRecord, DecodeError> {
        r.expect(RECORD_WIRE_VERSION)?;
        let epoch = r.u64()?;
        let rng_state = *r.array()?;
        let join_count = r.u32()?;
        let joins = r.list(join_count.into(), MIN_JOIN_LEN, |r| {
            let member = MemberId(r.u64()?);
            let mut join = Join::new(member, rekey_crypto::Key::from_bytes(*r.array()?));
            join.hint.expected_class = match r.u8()? {
                0 => None,
                1 => Some(crate::DurationClass::Short),
                2 => Some(crate::DurationClass::Long),
                _ => return Err(DecodeError::Invalid),
            };
            join.hint.loss_rate = match r.u8()? {
                0 => None,
                1 => Some(f64::from_bits(r.u64()?)),
                _ => return Err(DecodeError::Invalid),
            };
            Ok(join)
        })?;
        let leave_count = r.u32()?;
        let leaves = r.list(leave_count.into(), 8, |r| Ok(MemberId(r.u64()?)))?;
        r.finish()?;
        Ok(EpochRecord {
            epoch,
            rng_state,
            joins,
            leaves,
        })
    }
}

/// What [`Journal::recover`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovery {
    /// The epoch the manager resumed at (0 on a fresh store).
    pub epoch: u64,
    /// The RNG positioned exactly where the crashed process left it,
    /// or `None` on a fresh store (seed a new one).
    pub rng: Option<StdRng>,
    /// The rekey messages re-derived from the WAL tail, in epoch
    /// order — republish these into the retransmission window so
    /// reconnecting clients can NACK across the crash.
    pub messages: Vec<RekeyMessage>,
    /// Whether a snapshot was restored.
    pub snapshot_loaded: bool,
    /// WAL records re-run (the tail past the snapshot).
    pub replayed: usize,
    /// Torn/corrupt bytes the backend discarded from the log tail.
    pub dropped_wal_bytes: usize,
}

/// The durability orchestrator: owns a [`Storage`] backend and runs
/// intervals write-ahead — log, compute, wait for the log, *then* fan
/// out — snapshotting every `snapshot_every` intervals to bound replay.
#[derive(Debug)]
pub struct Journal<S> {
    storage: S,
    snapshot_every: u64,
    since_snapshot: u64,
    epoch: u64,
    /// Length of the last snapshot blob written or loaded — the next
    /// one starts at this capacity, since a group's serialized size
    /// moves slowly between snapshots.
    snapshot_len: usize,
}

impl<S: Storage> Journal<S> {
    /// Creates a journal over `storage`, snapshotting every
    /// `snapshot_every` intervals (`0` disables periodic snapshots —
    /// the WAL then grows until [`Journal::snapshot`] is called
    /// explicitly, e.g. at drain).
    pub fn new(storage: S, snapshot_every: u64) -> Self {
        Journal {
            storage,
            snapshot_every,
            since_snapshot: 0,
            epoch: 0,
            snapshot_len: 0,
        }
    }

    /// The last epoch made durable (0 before any interval).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Direct access to the backend (fault injection in tests,
    /// inspection in tools).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Consumes the journal, returning its backend — lets a test hand
    /// a "crashed" store to a fresh journal.
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Runs one interval durably: check the batch, hand the
    /// [`EpochRecord`] (RNG pre-state, batch, next epoch) to the log,
    /// process the interval, wait for the record to be durable, and only
    /// then hand the frame to `sink`. On a storage error the sink is
    /// never invoked — no client can observe a frame the log cannot
    /// re-derive.
    ///
    /// # Errors
    ///
    /// [`PersistError::Replay`] if [`crate::check_batch`] rejects the
    /// batch: nothing is logged, no randomness drawn, and journal and
    /// manager stand where they stood. Every other error poisons the
    /// journal, and callers should stop the daemon:
    /// [`PersistError::Storage`] if the append, the barrier or an
    /// earlier snapshot hand-off failed (on a failed append the manager
    /// has not run; on a failed barrier it *has* advanced in memory),
    /// and [`PersistError::Replay`] or [`PersistError::EpochGap`] if the
    /// manager fails or returns another epoch after its record was
    /// logged — which a manager whose batch passed the check does not.
    pub fn durable_interval(
        &mut self,
        manager: &mut dyn GroupKeyManager,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut StdRng,
        sink: &mut dyn FnMut(&RekeyMessage),
    ) -> Result<IntervalOutcome, PersistError> {
        crate::check_batch(&*manager, joins, leaves).map_err(PersistError::Replay)?;
        let epoch = self.epoch + 1;
        let record = EpochRecord {
            epoch,
            rng_state: rng.state_bytes(),
            joins: joins.to_vec(),
            leaves: leaves.to_vec(),
        };
        let mut buf = Vec::new();
        record.encode_into(&mut buf);
        self.storage.append_wal(&buf)?;
        let outcome = manager
            .process_interval(joins, leaves, rng)
            .map_err(PersistError::Replay)?;
        if outcome.message.epoch != epoch {
            return Err(PersistError::EpochGap {
                expected: epoch,
                found: outcome.message.epoch,
            });
        }
        let sync_start = Instant::now();
        self.storage.sync_wal()?;
        rekey_obs::time_ns("persist.wal.fsync", sync_start.elapsed().as_nanos() as u64);
        if let Some(inflight) = self.storage.wal_inflight_ns() {
            rekey_obs::time_ns("persist.wal.inflight", inflight);
        }
        rekey_obs::count("persist.wal.append.records", 1);
        rekey_obs::count("persist.wal.append.bytes", buf.len() as u64);
        self.epoch = epoch;
        sink(&outcome.message);
        self.since_snapshot += 1;
        if self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every {
            self.hand_off_snapshot(manager, rng)?;
        }
        Ok(outcome)
    }

    /// Serializes the manager + the RNG's current position, atomically
    /// replaces the snapshot, and resets the WAL it subsumes, returning
    /// once the snapshot is durable (a backend may empty the log behind
    /// it). The drain-time flush: call on shutdown so restart replays
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`PersistError::Storage`] on a backend failure.
    pub fn snapshot(
        &mut self,
        manager: &dyn GroupKeyManager,
        rng: &StdRng,
    ) -> Result<(), PersistError> {
        self.hand_off_snapshot(manager, rng)?;
        Ok(self.storage.sync_wal()?)
    }

    /// [`Journal::snapshot`] without the closing barrier: the backend
    /// may still be writing when this returns, and reports a failure at
    /// the first barrier after it — at the latest when the next snapshot
    /// is handed over.
    fn hand_off_snapshot(
        &mut self,
        manager: &dyn GroupKeyManager,
        rng: &StdRng,
    ) -> Result<(), PersistError> {
        // The previous snapshot's buffer, once it is written, where the
        // backend keeps it: one snapshot-sized buffer cycles between the
        // journal and the backend.
        let take_start = Instant::now();
        let mut blob = self.storage.take_snapshot_buffer()?;
        let serialize_start = Instant::now();
        blob.clear();
        blob.reserve(self.snapshot_len);
        blob.push(SNAPSHOT_WIRE_VERSION);
        put_u64(&mut blob, self.epoch);
        blob.extend_from_slice(&rng.state_bytes());
        manager.save_state(&mut blob)?;
        self.snapshot_len = blob.len();
        let write_start = Instant::now();
        rekey_obs::time_ns(
            "persist.snapshot.serialize",
            (write_start - serialize_start).as_nanos() as u64,
        );
        self.storage.hand_over_snapshot(blob)?;
        self.storage.reset_wal()?;
        rekey_obs::time_ns(
            "persist.snapshot.write",
            (write_start.elapsed() + (serialize_start - take_start)).as_nanos() as u64,
        );
        rekey_obs::count("persist.snapshot.writes", 1);
        rekey_obs::count("persist.snapshot.bytes", self.snapshot_len as u64);
        self.since_snapshot = 0;
        Ok(())
    }

    /// Rebuilds state from disk: restore the snapshot (if any) into
    /// `manager`, then re-run the WAL tail past it. After this returns
    /// the manager, the returned RNG, and the journal are positioned
    /// exactly as the crashed process left them.
    ///
    /// # Errors
    ///
    /// [`PersistError::SchemeMismatch`] if the snapshot belongs to a
    /// different scheme, [`PersistError::EpochGap`] if the log is not
    /// contiguous, [`PersistError::PlannerChanged`] if a record was
    /// written under another planner, [`PersistError::Codec`] on a
    /// corrupt snapshot or record (a torn WAL *tail* is repaired, not
    /// an error), [`PersistError::Replay`] if the manager rejects a
    /// record.
    pub fn recover(&mut self, manager: &mut dyn GroupKeyManager) -> Result<Recovery, PersistError> {
        let load_start = Instant::now();
        let mut epoch = 0u64;
        let mut rng = None;
        let mut snapshot_loaded = false;
        if let Some(blob) = self.storage.load_snapshot()? {
            self.snapshot_len = blob.len();
            let (snapshot_epoch, rng_state, state) = split_snapshot(&blob)?;
            manager.restore_state(state)?;
            epoch = snapshot_epoch;
            rng = Some(StdRng::from_state_bytes(rng_state));
            snapshot_loaded = true;
            rekey_obs::time_ns(
                "persist.snapshot.load",
                load_start.elapsed().as_nanos() as u64,
            );
        }

        let replay = self.storage.read_wal()?;
        let records = replay
            .records
            .iter()
            .map(|bytes| EpochRecord::decode(bytes))
            .collect::<Result<Vec<_>, _>>()?;
        let mut messages = Vec::new();
        let mut replayed = 0usize;
        for record in records {
            if record.epoch <= epoch {
                // The crash landed between the snapshot write and the
                // WAL truncation; the snapshot already covers this.
                continue;
            }
            if record.epoch != epoch + 1 {
                return Err(PersistError::EpochGap {
                    expected: epoch + 1,
                    found: record.epoch,
                });
            }
            let mut record_rng = StdRng::from_state_bytes(record.rng_state);
            let outcome = manager
                .process_interval(&record.joins, &record.leaves, &mut record_rng)
                .map_err(PersistError::Replay)?;
            if outcome.message.epoch != record.epoch {
                return Err(PersistError::EpochGap {
                    expected: record.epoch,
                    found: outcome.message.epoch,
                });
            }
            epoch = record.epoch;
            rng = Some(record_rng);
            messages.push(outcome.message);
            replayed += 1;
        }
        self.epoch = epoch;
        self.since_snapshot = replayed as u64;
        rekey_obs::count("persist.recover.replayed", replayed as u64);
        rekey_obs::count("persist.recover.dropped_bytes", replay.dropped_bytes as u64);
        Ok(Recovery {
            epoch,
            rng,
            messages,
            snapshot_loaded,
            replayed,
            dropped_wal_bytes: replay.dropped_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TtManager;
    use crate::Scheme;
    use rand::SeedableRng;
    use rekey_crypto::Key;
    use rekey_storage::{FaultStorage, MemStorage};

    fn joins(base: u64, n: usize, rng: &mut StdRng) -> Vec<Join> {
        (0..n as u64)
            .map(|i| Join::new(MemberId(base + i), Key::generate(rng)))
            .collect()
    }

    /// Runs `intervals` churn intervals through a journal, returning
    /// the emitted frame bytes.
    fn churn(
        journal: &mut Journal<impl Storage>,
        manager: &mut dyn GroupKeyManager,
        rng: &mut StdRng,
        intervals: u64,
    ) -> Vec<Vec<u8>> {
        churn_from(journal, manager, rng, 0, intervals)
    }

    /// [`churn`] as if `first` intervals had run before.
    fn churn_from(
        journal: &mut Journal<impl Storage>,
        manager: &mut dyn GroupKeyManager,
        rng: &mut StdRng,
        first: u64,
        intervals: u64,
    ) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for i in first..first + intervals {
            let js = joins(1000 * (i + 1), 3, rng);
            let leaves: Vec<MemberId> = if i > 1 {
                vec![MemberId(1000 * i)]
            } else {
                vec![]
            };
            let mut sink = |m: &RekeyMessage| {
                frames.push(rekey_keytree::message::codec::encode_message(m));
            };
            journal
                .durable_interval(manager, &js, &leaves, rng, &mut sink)
                .unwrap();
        }
        frames
    }

    #[test]
    fn epoch_record_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let record = EpochRecord {
            epoch: 42,
            rng_state: rng.state_bytes(),
            joins: vec![
                Join::new(MemberId(7), Key::generate(&mut rng)),
                Join::new(MemberId(8), Key::generate(&mut rng))
                    .with_class(crate::DurationClass::Short)
                    .with_loss_rate(0.25),
            ],
            leaves: vec![MemberId(1), MemberId(2)],
        };
        let mut buf = Vec::new();
        record.encode_into(&mut buf);
        let decoded = EpochRecord::decode(&buf).unwrap();
        assert_eq!(decoded.epoch, record.epoch);
        assert_eq!(decoded.rng_state, record.rng_state);
        assert_eq!(decoded.leaves, record.leaves);
        assert_eq!(decoded.joins.len(), 2);
        assert_eq!(decoded.joins[1].hint, record.joins[1].hint);
        // Truncations never parse.
        for cut in 0..buf.len() {
            assert!(EpochRecord::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A count is input: one claiming `u32::MAX` joins or leaves with
    /// nothing behind it is a codec error, not a huge reservation.
    #[test]
    fn a_huge_count_over_an_empty_tail_is_refused_without_allocating() {
        let mut head = vec![RECORD_WIRE_VERSION];
        put_u64(&mut head, 1);
        head.extend_from_slice(&[0; 32]);
        let mut huge_joins = head.clone();
        put_u32(&mut huge_joins, u32::MAX);
        let mut huge_leaves = head;
        put_u32(&mut huge_leaves, 0);
        put_u32(&mut huge_leaves, u32::MAX);
        for record in [huge_joins, huge_leaves] {
            assert!(matches!(
                EpochRecord::decode(&record),
                Err(PersistError::Codec { .. })
            ));
        }
    }

    #[test]
    fn recovery_from_wal_alone_is_byte_identical() {
        // Reference run: no crash.
        let mut rng = StdRng::seed_from_u64(99);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        let reference = churn(&mut journal, &mut manager, &mut rng, 6);

        // Crashed run: same storage contents, fresh manager.
        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(
            MemStorage::from_parts(journal.storage_mut().wal_bytes().to_vec(), None),
            0,
        );
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(!recovery.snapshot_loaded);
        assert_eq!(recovery.replayed, 6);
        assert_eq!(recovery.epoch, 6);
        let replayed: Vec<Vec<u8>> = recovery
            .messages
            .iter()
            .map(rekey_keytree::message::codec::encode_message)
            .collect();
        assert_eq!(replayed, reference, "replay must reproduce every byte");

        // And the recovered state continues identically: the two RNG
        // streams are at the same position, so identical future calls
        // draw identical bytes on both sides.
        let mut recovered_rng = recovery.rng.unwrap();
        assert_eq!(recovered_rng.state_bytes(), rng.state_bytes());
        let js = joins(50_000, 2, &mut rng);
        let mirror = joins(50_000, 2, &mut recovered_rng);
        let a = manager.process_interval(&js, &[], &mut rng).unwrap();
        let b = rebuilt
            .process_interval(&mirror, &[], &mut recovered_rng)
            .unwrap();
        assert_eq!(
            rekey_keytree::message::codec::encode_message(&a.message),
            rekey_keytree::message::codec::encode_message(&b.message)
        );
    }

    #[test]
    fn snapshot_truncates_wal_and_recovery_resumes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut manager = TtManager::new(3, 3);
        let mut journal = Journal::new(MemStorage::new(), 4);
        let reference = churn(&mut journal, &mut manager, &mut rng, 10);
        // 10 intervals, snapshot every 4: WAL holds epochs 9..=10.
        let wal = journal.storage_mut().wal_bytes().to_vec();
        let snap = journal.storage_mut().snapshot_bytes();
        assert!(snap.is_some());

        let mut rebuilt = TtManager::new(3, 3);
        let mut recovered = Journal::new(MemStorage::from_parts(wal, snap), 4);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(recovery.snapshot_loaded);
        assert_eq!(recovery.epoch, 10);
        assert_eq!(recovery.replayed, 2, "snapshot bounded the replay");
        let replayed: Vec<Vec<u8>> = recovery
            .messages
            .iter()
            .map(rekey_keytree::message::codec::encode_message)
            .collect();
        assert_eq!(replayed, reference[8..], "tail frames re-derived exactly");
        assert_eq!(rebuilt.member_count(), manager.member_count());
    }

    #[test]
    fn every_scheme_survives_snapshot_restore() {
        for scheme in Scheme::ALL {
            let config = crate::SchemeConfig::default();
            let mut rng = StdRng::seed_from_u64(31);
            let mut manager = scheme.build(&config);
            let mut journal = Journal::new(MemStorage::new(), 0);
            churn(&mut journal, &mut *manager, &mut rng, 5);
            journal.snapshot(&*manager, &rng).unwrap();
            assert_eq!(
                journal.storage_mut().wal_bytes().len(),
                0,
                "snapshot resets the WAL"
            );

            let mut rebuilt = scheme.build(&config);
            let mut recovered = Journal::new(
                MemStorage::from_parts(Vec::new(), journal.storage_mut().snapshot_bytes()),
                0,
            );
            let recovery = recovered.recover(&mut *rebuilt).unwrap();
            assert_eq!(recovery.replayed, 0);
            assert_eq!(recovery.epoch, 5, "{scheme:?}");
            assert_eq!(rebuilt.member_count(), manager.member_count());
            assert_eq!(rebuilt.dek(), manager.dek(), "{scheme:?} DEK restored");

            // Post-restore continuation is byte-identical.
            let mut rng_b = recovery.rng.unwrap();
            assert_eq!(rng_b.state_bytes(), rng.state_bytes());
            let js = joins(90_000, 2, &mut rng);
            let mirror = joins(90_000, 2, &mut rng_b);
            let a = manager.process_interval(&js, &[], &mut rng).unwrap();
            let b = rebuilt.process_interval(&mirror, &[], &mut rng_b).unwrap();
            assert_eq!(
                rekey_keytree::message::codec::encode_message(&a.message),
                rekey_keytree::message::codec::encode_message(&b.message),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn scheme_mismatch_is_detected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        churn(&mut journal, &mut manager, &mut rng, 2);
        journal.snapshot(&manager, &rng).unwrap();

        let mut other = crate::partition::QtManager::new(3, 4);
        let mut recovered = Journal::new(
            MemStorage::from_parts(Vec::new(), journal.storage_mut().snapshot_bytes()),
            0,
        );
        assert!(matches!(
            recovered.recover(&mut other),
            Err(PersistError::SchemeMismatch { .. })
        ));
    }

    #[test]
    fn tt_snapshot_restored_into_adaptive_is_scheme_mismatch() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut tt = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        churn(&mut journal, &mut tt, &mut rng, 1);
        journal.snapshot(&tt, &rng).unwrap();
        let mut adaptive = Scheme::Adaptive.build(&crate::SchemeConfig::default());
        let mut recovered = Journal::new(
            MemStorage::from_parts(Vec::new(), journal.storage_mut().snapshot_bytes()),
            0,
        );
        assert!(matches!(
            recovered.recover(&mut *adaptive),
            Err(PersistError::SchemeMismatch { .. })
        ));
    }

    /// The WAL-before-fan-out pin: when the append (or sync) fails,
    /// the sink must never see the frame — a frame no restart can
    /// re-derive must not reach a single client.
    #[test]
    fn failed_append_withholds_the_frame() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut manager = TtManager::new(3, 4);
        let mut storage = FaultStorage::new(MemStorage::new());
        storage.fail_after_appends(2);
        let mut journal = Journal::new(storage, 0);

        let mut delivered = 0usize;
        for i in 0..4u64 {
            let js = joins(100 * (i + 1), 2, &mut rng);
            let mut sink = |_: &RekeyMessage| delivered += 1;
            let result = journal.durable_interval(&mut manager, &js, &[], &mut rng, &mut sink);
            if i < 2 {
                result.unwrap();
            } else {
                assert!(matches!(
                    result,
                    Err(PersistError::Storage(StorageError::Injected))
                ));
            }
        }
        assert_eq!(delivered, 2, "no frame released after the log failed");
    }

    /// A torn WAL tail (crash mid-append) is repaired: replay stops at
    /// the last valid record and recovery proceeds from there.
    #[test]
    fn torn_wal_tail_recovers_to_last_valid_epoch() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(FaultStorage::new(MemStorage::new()), 0);
        let frames = churn(&mut journal, &mut manager, &mut rng, 5);

        // Tear the last record mid-payload.
        journal.storage_mut().truncate_wal_tail(10);

        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(journal.into_storage(), 0);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert_eq!(recovery.replayed, 4, "tail record dropped");
        assert_eq!(recovery.epoch, 4);
        assert!(recovery.dropped_wal_bytes > 0);
        let replayed: Vec<Vec<u8>> = recovery
            .messages
            .iter()
            .map(rekey_keytree::message::codec::encode_message)
            .collect();
        assert_eq!(replayed, frames[..4]);
    }

    /// A corrupt byte mid-log also stops replay cleanly at the last
    /// record before the corruption.
    #[test]
    fn corrupt_wal_byte_stops_replay_at_last_valid_record() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(FaultStorage::new(MemStorage::new()), 0);
        churn(&mut journal, &mut manager, &mut rng, 5);

        // Flip a byte about a third from the end of the stream: the
        // records at and past the corruption are lost, the prefix
        // replays.
        let wal_len = journal.storage_mut().wal_len();
        journal.storage_mut().corrupt_wal_byte(wal_len / 3);

        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(journal.into_storage(), 0);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(recovery.replayed < 5, "corruption truncated the replay");
        assert_eq!(recovery.epoch, recovery.replayed as u64);
        assert!(recovery.dropped_wal_bytes > 0);
    }

    /// The shared call log of the two recorders below.
    type Calls = std::sync::Arc<std::sync::Mutex<Vec<&'static str>>>;

    fn log(calls: &Calls, call: &'static str) {
        calls.lock().unwrap().push(call);
    }

    /// A [`MemStorage`] that records which of the six calls it got.
    struct RecordingStorage {
        inner: MemStorage,
        calls: Calls,
    }

    impl Storage for RecordingStorage {
        fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError> {
            log(&self.calls, "append_wal");
            self.inner.append_wal(record)
        }
        fn sync_wal(&mut self) -> Result<(), StorageError> {
            log(&self.calls, "sync_wal");
            self.inner.sync_wal()
        }
        fn read_wal(&mut self) -> Result<rekey_storage::WalReplay, StorageError> {
            log(&self.calls, "read_wal");
            self.inner.read_wal()
        }
        fn reset_wal(&mut self) -> Result<(), StorageError> {
            log(&self.calls, "reset_wal");
            self.inner.reset_wal()
        }
        fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError> {
            log(&self.calls, "write_snapshot");
            self.inner.write_snapshot(blob)
        }
        fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
            log(&self.calls, "load_snapshot");
            self.inner.load_snapshot()
        }
    }

    /// A manager that records when it is run and when it is serialized.
    struct RecordingManager {
        inner: TtManager,
        calls: Calls,
    }

    impl GroupKeyManager for RecordingManager {
        fn process_interval(
            &mut self,
            joins: &[Join],
            leaves: &[MemberId],
            rng: &mut dyn rand::RngCore,
        ) -> Result<IntervalOutcome, KeyTreeError> {
            log(&self.calls, "process_interval");
            self.inner.process_interval(joins, leaves, rng)
        }
        fn dek_node(&self) -> rekey_keytree::NodeId {
            self.inner.dek_node()
        }
        fn dek(&self) -> &Key {
            self.inner.dek()
        }
        fn member_count(&self) -> usize {
            self.inner.member_count()
        }
        fn contains(&self, member: MemberId) -> bool {
            self.inner.contains(member)
        }
        fn members_under(&self, node: rekey_keytree::NodeId) -> Vec<MemberId> {
            self.inner.members_under(node)
        }
        fn scheme_name(&self) -> &'static str {
            self.inner.scheme_name()
        }
        fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
            log(&self.calls, "save_state");
            self.inner.save_state(buf)
        }
        fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
            self.inner.restore_state(bytes)
        }
    }

    /// The order everything else rests on, pinned without a clock: the
    /// record is handed to the log before the engine runs, the barrier
    /// stands between the engine and the sink, the snapshot follows the
    /// sink without a barrier of its own — and a snapshot asked for
    /// directly ends in one.
    #[test]
    fn record_then_engine_then_barrier_then_sink_then_snapshot() {
        let calls = Calls::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut manager = RecordingManager {
            inner: TtManager::new(3, 4),
            calls: calls.clone(),
        };
        let storage = RecordingStorage {
            inner: MemStorage::new(),
            calls: calls.clone(),
        };
        let mut journal = Journal::new(storage, 2);
        for i in 0..2u64 {
            let js = joins(100 * (i + 1), 2, &mut rng);
            let mut sink = |_: &RekeyMessage| log(&calls, "sink");
            journal
                .durable_interval(&mut manager, &js, &[], &mut rng, &mut sink)
                .unwrap();
        }
        let interval = ["append_wal", "process_interval", "sync_wal", "sink"];
        let hand_off = ["save_state", "write_snapshot", "reset_wal"];
        assert_eq!(
            *calls.lock().unwrap(),
            [&interval[..], &interval[..], &hand_off[..]].concat()
        );

        calls.lock().unwrap().clear();
        journal.snapshot(&manager, &rng).unwrap();
        assert_eq!(
            *calls.lock().unwrap(),
            [&hand_off[..], &["sync_wal"][..]].concat()
        );
    }

    /// A batch [`crate::check_batch`] rejects is never logged: the WAL
    /// stays byte-identical, no randomness is drawn, the sink is not
    /// called, and the retried epoch replays once — on the in-memory
    /// store and on a real directory.
    #[test]
    fn a_rejected_batch_leaves_no_replayable_record() {
        fn check<S: Storage>(storage: S, wal: impl Fn(&mut Journal<S>) -> Vec<u8>) {
            let mut rng = StdRng::seed_from_u64(13);
            let mut manager = TtManager::new(3, 4);
            let mut journal = Journal::new(storage, 0);
            let mut frames = churn(&mut journal, &mut manager, &mut rng, 3);
            let mut state_before = Vec::new();
            manager.save_state(&mut state_before).unwrap();
            let wal_before = wal(&mut journal);

            // Epoch 4, first attempt: a leaver nobody knows.
            let rng_before = rng.state_bytes();
            let mut delivered = 0usize;
            let rejected = journal.durable_interval(
                &mut manager,
                &[],
                &[MemberId(424_242)],
                &mut rng,
                &mut |_: &RekeyMessage| delivered += 1,
            );
            assert!(matches!(
                rejected,
                Err(PersistError::Replay(KeyTreeError::UnknownMember(MemberId(
                    424_242
                ))))
            ));
            assert_eq!(delivered, 0);
            assert_eq!(journal.epoch(), 3);
            assert_eq!(rng.state_bytes(), rng_before, "no randomness drawn");
            let mut state_after = Vec::new();
            manager.save_state(&mut state_after).unwrap();
            assert_eq!(state_after, state_before, "manager untouched");
            assert_eq!(wal(&mut journal), wal_before, "nothing logged");

            // Epoch 4, second attempt: accepted, and the log replays it.
            let js = joins(9000, 2, &mut rng);
            journal
                .durable_interval(&mut manager, &js, &[], &mut rng, &mut |m: &RekeyMessage| {
                    frames.push(rekey_keytree::message::codec::encode_message(m));
                })
                .unwrap();
            let mut rebuilt = TtManager::new(3, 4);
            let wal = MemStorage::from_parts(wal(&mut journal), None);
            let recovery = Journal::new(wal, 0).recover(&mut rebuilt).unwrap();
            let replayed: Vec<Vec<u8>> = recovery
                .messages
                .iter()
                .map(rekey_keytree::message::codec::encode_message)
                .collect();
            assert_eq!((recovery.epoch, replayed), (4, frames));
        }

        check(MemStorage::new(), |journal| {
            journal.storage_mut().wal_bytes().to_vec()
        });
        let dir = std::env::temp_dir().join(format!("rekey-persist-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        check(rekey_storage::DirStorage::open(&dir).unwrap(), |journal| {
            journal.storage_mut().sync_wal().unwrap();
            std::fs::read(dir.join(rekey_storage::WAL_FILE)).unwrap()
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every record in the log stands for an interval that ran: one the
    /// restored manager rejects is a log that does not match its
    /// snapshot, wherever it stands.
    #[test]
    fn a_rejected_record_mid_log_is_still_a_replay_error() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        churn(&mut journal, &mut manager, &mut rng, 2);
        let mut storage = journal.into_storage();
        for (epoch, leaver) in [(3, 424_242), (4, 2000)] {
            let mut buf = Vec::new();
            EpochRecord {
                epoch,
                rng_state: rng.state_bytes(),
                joins: Vec::new(),
                leaves: vec![MemberId(leaver)],
            }
            .encode_into(&mut buf);
            storage.append_wal(&buf).unwrap();
        }
        let mut rebuilt = TtManager::new(3, 4);
        assert!(matches!(
            Journal::new(storage, 0).recover(&mut rebuilt),
            Err(PersistError::Replay(KeyTreeError::UnknownMember(_)))
        ));
    }

    /// The log holds records only. The abort marker (`0xAB ‖ epoch`)
    /// that earlier builds wrote behind a rejected batch's record is
    /// refused like a record of another version: such a log is drained
    /// under the build that wrote it.
    #[test]
    fn a_parent_abort_marker_is_refused_as_planner_changed() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        churn(&mut journal, &mut manager, &mut rng, 1);
        let mut storage = journal.into_storage();
        // What an earlier build left of a rejected epoch 2.
        let mut rejected = Vec::new();
        EpochRecord {
            epoch: 2,
            rng_state: rng.state_bytes(),
            joins: Vec::new(),
            leaves: vec![MemberId(424_242)],
        }
        .encode_into(&mut rejected);
        let mut marker = vec![0xAB];
        put_u64(&mut marker, 2);
        storage.append_wal(&rejected).unwrap();
        storage.append_wal(&marker).unwrap();
        let mut rebuilt = TtManager::new(3, 4);
        assert!(matches!(
            Journal::new(storage, 0).recover(&mut rebuilt),
            Err(PersistError::PlannerChanged {
                found: 0xAB,
                expected: RECORD_WIRE_VERSION
            })
        ));
    }

    /// A version-3 record was written by the planner that placed every
    /// joiner by balanced descent: replayed here it would cluster a
    /// join-only batch and re-render its epoch into other keys under
    /// the logged nonce start, so it is refused, typed.
    #[test]
    fn a_version_3_record_is_refused_as_planner_changed() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        churn(&mut journal, &mut manager, &mut rng, 1);
        let mut storage = journal.into_storage();
        let mut record = Vec::new();
        EpochRecord {
            epoch: 2,
            rng_state: rng.state_bytes(),
            joins: joins(5000, 3, &mut rng),
            leaves: Vec::new(),
        }
        .encode_into(&mut record);
        record[0] = 3;
        storage.append_wal(&record).unwrap();
        let mut rebuilt = TtManager::new(3, 4);
        assert!(matches!(
            Journal::new(storage, 0).recover(&mut rebuilt),
            Err(PersistError::PlannerChanged {
                found: 3,
                expected: 4
            })
        ));
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rekey-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn encoded(messages: &[RekeyMessage]) -> Vec<Vec<u8>> {
        messages
            .iter()
            .map(rekey_keytree::message::codec::encode_message)
            .collect()
    }

    /// A snapshot that fails behind the journal's back (here: a
    /// directory stands where `DirStorage` creates the snapshot's temp
    /// file) surfaces at the first barrier after the failure, and at the
    /// latest when the next snapshot is handed over, before the switch
    /// that would reuse the segment it was meant to cover. Every frame
    /// released before that is re-derivable: the store reopened over the
    /// same fault recovers each of them byte for byte.
    #[test]
    fn a_failed_background_snapshot_withholds_the_next_frame() {
        let dir = scratch_dir("poison");
        let mut rng = StdRng::seed_from_u64(15);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(rekey_storage::DirStorage::open(&dir).unwrap(), 2);
        std::fs::create_dir(dir.join("snapshot.tmp")).unwrap();

        let mut frames = Vec::new();
        let mut failed_at = None;
        for epoch in 1..=6u64 {
            let js = joins(1000 * epoch, 2, &mut rng);
            let mut sink = |m: &RekeyMessage| {
                frames.push(rekey_keytree::message::codec::encode_message(m));
            };
            let result = journal.durable_interval(&mut manager, &js, &[], &mut rng, &mut sink);
            let snapshot_failed = matches!(
                result,
                Err(PersistError::Storage(StorageError::Io {
                    op: "snapshot create",
                    ..
                }))
            );
            assert!(
                result.is_ok() || snapshot_failed,
                "epoch {epoch}: {result:?}"
            );
            if snapshot_failed {
                failed_at.get_or_insert(epoch);
            }
        }
        // The first snapshot is handed over after epoch 2's sink, which
        // hears of its failure at the reset behind it if the snapshot
        // writer is that quick. Epoch 3's barrier does if it has come
        // back by then; epoch 4 does in any case, at its barrier or when
        // it hands over the next snapshot. Nothing is released after.
        let failed_at = failed_at.expect("the failure surfaced");
        assert!(
            (2..=4).contains(&failed_at),
            "surfaced at epoch {failed_at}"
        );
        assert!((2..=4).contains(&frames.len()), "{} frames", frames.len());
        assert!(matches!(
            journal.snapshot(&manager, &rng),
            Err(PersistError::Storage(StorageError::Io { .. }))
        ));
        drop(journal);

        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(rekey_storage::DirStorage::open(&dir).unwrap(), 2);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(!recovery.snapshot_loaded, "no snapshot ever landed");
        assert!(recovery.epoch as usize >= frames.len());
        assert_eq!(encoded(&recovery.messages)[..frames.len()], frames[..]);
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot asked for directly (drain, shutdown) is durable when
    /// [`Journal::snapshot`] returns: `snapshot.bin` read from outside
    /// the live store already holds it.
    #[test]
    fn a_direct_snapshot_is_durable_when_it_returns() {
        let dir = scratch_dir("drain");
        let mut rng = StdRng::seed_from_u64(18);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(rekey_storage::DirStorage::open(&dir).unwrap(), 0);
        for round in 1..=3u64 {
            churn_from(&mut journal, &mut manager, &mut rng, 2 * (round - 1), 2);
            journal.snapshot(&manager, &rng).unwrap();
            let sealed = std::fs::read(dir.join(rekey_storage::SNAPSHOT_FILE)).unwrap();
            let blob = rekey_storage::wal::unseal_snapshot(&sealed).unwrap();
            let (epoch, rng_state, _) = split_snapshot(blob).unwrap();
            assert_eq!((epoch, rng_state), (2 * round, rng.state_bytes()));
        }
        drop(journal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash after the switch but before the snapshot handed over with
    /// it is durable leaves the old snapshot and two non-empty segments:
    /// the first holds the epochs the lost snapshot would have covered,
    /// the second those after it. Recovery reads them in generation order
    /// and re-derives every frame past the old snapshot byte for byte.
    /// (The state is made by a switch no snapshot was handed over for —
    /// the snapshot that never landed.)
    #[test]
    fn a_crash_between_the_switch_and_the_snapshot_recovers_byte_identically() {
        let dir = scratch_dir("switch");
        let mut rng = StdRng::seed_from_u64(19);
        let mut manager = TtManager::new(3, 4);
        let mut reference = Vec::new();
        {
            let mut journal = Journal::new(rekey_storage::DirStorage::open(&dir).unwrap(), 0);
            reference.extend(churn(&mut journal, &mut manager, &mut rng, 4));
            journal.snapshot(&manager, &rng).unwrap();
            reference.extend(churn_from(&mut journal, &mut manager, &mut rng, 4, 4));
            journal.storage_mut().reset_wal().unwrap();
            reference.extend(churn_from(&mut journal, &mut manager, &mut rng, 8, 2));
        }
        for segment in rekey_storage::WAL_SEGMENTS {
            let len = std::fs::metadata(dir.join(segment)).unwrap().len();
            assert!(len > 0, "{segment} is empty");
        }

        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(rekey_storage::DirStorage::open(&dir).unwrap(), 0);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(recovery.snapshot_loaded);
        assert_eq!((recovery.epoch, recovery.replayed), (10, 6));
        assert_eq!(encoded(&recovery.messages), reference[4..]);
        assert_eq!(recovery.rng.unwrap().state_bytes(), rng.state_bytes());
        assert_eq!(rebuilt.dek(), manager.dek());
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
