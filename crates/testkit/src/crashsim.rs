//! Crash-simulation harness: scenario-driven crash/recovery
//! equivalence over an in-memory [`Storage`].
//!
//! [`run_with_crashes`] drives a [`GroupKeyManager`] through a
//! [`Scenario`] with every interval journaled to a [`MemStorage`], and
//! "crashes" the process every `crash_every` intervals: the manager,
//! RNG, and journal are thrown away and only the sealed storage bytes
//! — exactly what [`rekey_storage::DirStorage`] would have forced to
//! disk — survive into a fresh manager built by the factory. After
//! every crash the recovered replay, and at the end the full run
//! digest, must be byte-identical to an uninterrupted run of the same
//! scenario. Same seed, any crash schedule ⇒ same digest.
//!
//! [`Storage`]: rekey_storage::Storage
//! [`GroupKeyManager`]: rekey_core::GroupKeyManager

use crate::runner::{drive, ManagerFactory};
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rekey_core::{GroupKeyManager, Journal, PersistError};
use rekey_crypto::sha256::Sha256;
use rekey_keytree::message::{codec, RekeyMessage};
use rekey_keytree::MemberId;
use rekey_storage::{wal, MemStorage};

/// Aggregates of a crash/recovery-equivalence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSimReport {
    /// Intervals executed.
    pub intervals: usize,
    /// Crash/recover cycles injected.
    pub crashes: usize,
    /// WAL records replayed across all recoveries.
    pub replayed: usize,
    /// Snapshot loads across all recoveries.
    pub snapshots_loaded: usize,
    /// Batches submitted to be rejected (see
    /// [`run_with_rejected_batches`]).
    pub rejected: usize,
    /// SHA-256 over the concatenated wire bytes of every interval —
    /// equals the uninterrupted run's digest by construction.
    pub digest: [u8; 32],
}

/// Runs `scenario` with a journaled manager, crashing and recovering
/// every `crash_every` intervals (`0` = never), and checks every
/// replayed and every live epoch against an uninterrupted reference
/// run. `snapshot_every` is forwarded to the journal (`0` = WAL only).
///
/// # Errors
///
/// A human-readable description of the first divergence or recovery
/// failure.
pub fn run_with_crashes(
    factory: &ManagerFactory,
    scenario: &Scenario,
    crash_every: usize,
    snapshot_every: u64,
) -> Result<CrashSimReport, String> {
    run(factory, scenario, crash_every, snapshot_every, 0)
}

/// [`run_with_crashes`] without scheduled crashes but with the
/// *rejected batch* op: ahead of every `reject_every`-th interval the
/// journal is first handed that interval's batch spoiled by a leaver
/// nobody knows. The journal logs a batch's record before the manager
/// sees it, so the rejection must come back with nothing released and
/// nothing replayable left behind. Successive rejections are followed,
/// in turn, by no crash, by a crash with the abort marker on disk, and
/// by a crash that beat the marker to the disk; every recovery must
/// resume at the epoch and RNG position before the rejected batch, and
/// the run's digest must equal the uninterrupted run's.
///
/// # Errors
///
/// A human-readable description of the first divergence or recovery
/// failure.
pub fn run_with_rejected_batches(
    factory: &ManagerFactory,
    scenario: &Scenario,
    reject_every: usize,
    snapshot_every: u64,
) -> Result<CrashSimReport, String> {
    run(factory, scenario, 0, snapshot_every, reject_every)
}

/// The server half of a run: what a crash throws away and a recovery
/// rebuilds from the sealed storage bytes alone.
struct Server<'a> {
    factory: &'a ManagerFactory<'a>,
    scenario: &'a Scenario,
    snapshot_every: u64,
    /// The uninterrupted run's wire bytes, by interval.
    reference: Vec<Vec<u8>>,
    manager: Box<dyn GroupKeyManager>,
    journal: Journal<MemStorage>,
    churn_rng: StdRng,
    report: CrashSimReport,
}

impl Server<'_> {
    /// Crash: everything in memory dies; only `wal` and `snapshot` —
    /// exactly what a directory store would have forced to disk —
    /// cross the line, byte for byte. The recovery must resume at
    /// `epoch` and re-derive the reference run's frames.
    fn crash_and_recover(
        &mut self,
        wal: Vec<u8>,
        snapshot: Option<Vec<u8>>,
        epoch: u64,
        when: &str,
    ) -> Result<(), String> {
        self.manager = (self.factory)(self.scenario);
        self.journal = Journal::new(MemStorage::from_parts(wal, snapshot), self.snapshot_every);
        let recovery = self
            .journal
            .recover(self.manager.as_mut())
            .map_err(|e| format!("recovery {when}: {e}"))?;
        if recovery.epoch != epoch {
            return Err(format!(
                "recovery {when}: resumed at epoch {} instead of {epoch}",
                recovery.epoch
            ));
        }
        for message in &recovery.messages {
            if codec::encode_message(message) != self.reference[(message.epoch - 1) as usize] {
                return Err(format!(
                    "recovery {when}: replayed epoch {} diverged",
                    message.epoch
                ));
            }
        }
        self.churn_rng = recovery
            .rng
            .ok_or_else(|| format!("recovery {when}: no RNG position recovered"))?;
        self.report.crashes += 1;
        self.report.replayed += recovery.replayed;
        self.report.snapshots_loaded += usize::from(recovery.snapshot_loaded);
        Ok(())
    }

    /// The rejected-batch op ahead of `interval`, followed by the crash
    /// (if any) that is next in turn.
    fn reject_a_batch(&mut self, interval: usize) -> Result<(), String> {
        // Built on a copy of the RNG: the real batch draws the same
        // individual keys again afterwards.
        let mut rng = self.churn_rng.clone();
        let (joins, mut leaves) = self.scenario.intervals[interval].batch(&mut rng);
        leaves.push(MemberId(u64::MAX - interval as u64));
        let mut released = 0usize;
        let result = self.journal.durable_interval(
            self.manager.as_mut(),
            &joins,
            &leaves,
            &mut rng,
            &mut |_: &RekeyMessage| released += 1,
        );
        if !matches!(result, Err(PersistError::Replay(_))) || released > 0 {
            return Err(format!(
                "interval {interval}: spoiled batch was not rejected cleanly ({released} frame(s) released)"
            ));
        }
        let epoch = interval as u64;
        if self.journal.epoch() != epoch {
            return Err(format!(
                "interval {interval}: rejected batch moved the journal to epoch {}",
                self.journal.epoch()
            ));
        }
        self.report.rejected += 1;

        let rng_before = self.churn_rng.state_bytes();
        let storage = self.journal.storage_mut();
        let (snapshot, mut log) = (storage.snapshot_bytes(), storage.wal_bytes().to_vec());
        match self.report.rejected % 3 {
            1 => return Ok(()), // no crash: the journal carries on live
            2 => {}             // crash with record and marker on disk
            _ => {
                // Crash between the two: drop the marker, the log's
                // last entry.
                let (mut entries, _) = wal::parse_records(&log);
                entries.pop();
                log.clear();
                for entry in &entries {
                    wal::frame_record(entry, &mut log).map_err(|e| e.to_string())?;
                }
            }
        }
        let when = format!("after the batch rejected ahead of interval {interval}");
        self.crash_and_recover(log, snapshot, epoch, &when)?;
        if self.churn_rng.state_bytes() != rng_before {
            return Err(format!(
                "recovery {when}: RNG is not where it stood before the batch"
            ));
        }
        Ok(())
    }
}

fn run(
    factory: &ManagerFactory,
    scenario: &Scenario,
    crash_every: usize,
    snapshot_every: u64,
    reject_every: usize,
) -> Result<CrashSimReport, String> {
    // The uninterrupted reference: plain process_interval, no journal.
    let mut reference: Vec<Vec<u8>> = Vec::with_capacity(scenario.intervals.len());
    drive(factory, scenario, |step| {
        reference.push(step.bytes.to_vec());
        Ok(())
    })
    .map_err(|violation| format!("reference {violation}"))?;

    let mut server = Server {
        factory,
        scenario,
        snapshot_every,
        reference,
        manager: factory(scenario),
        journal: Journal::new(MemStorage::new(), snapshot_every),
        churn_rng: scenario.churn_rng(),
        report: CrashSimReport {
            intervals: scenario.intervals.len(),
            crashes: 0,
            replayed: 0,
            snapshots_loaded: 0,
            rejected: 0,
            digest: [0; 32],
        },
    };
    let mut hasher = Sha256::new();

    for interval in 0..scenario.intervals.len() {
        // Not ahead of the bootstrap interval: a recovery needs a
        // record or a snapshot to take its RNG position from.
        if reject_every > 0 && interval > 0 && interval % reject_every == 0 {
            server.reject_a_batch(interval)?;
        }
        let epoch = interval as u64 + 1;
        let (joins, leaves) = scenario.intervals[interval].batch(&mut server.churn_rng);
        let mut published = Vec::new();
        server
            .journal
            .durable_interval(
                server.manager.as_mut(),
                &joins,
                &leaves,
                &mut server.churn_rng,
                &mut |message: &RekeyMessage| {
                    published.push(codec::encode_message(message));
                },
            )
            .map_err(|e| format!("interval {interval}: {e}"))?;
        let [bytes] = &published[..] else {
            return Err(format!(
                "interval {interval}: expected exactly one fanned-out message, got {}",
                published.len()
            ));
        };
        if *bytes != server.reference[interval] {
            return Err(format!(
                "interval {interval}: journaled epoch diverged from the reference run"
            ));
        }
        hasher.update(bytes);

        if crash_every > 0 && (interval + 1) % crash_every == 0 {
            let storage = server.journal.storage_mut();
            let (log, snapshot) = (storage.wal_bytes().to_vec(), storage.snapshot_bytes());
            server.crash_and_recover(
                log,
                snapshot,
                epoch,
                &format!("after interval {interval}"),
            )?;
        }
    }

    server.report.digest = hasher.finalize();
    Ok(server.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{GenParams, IntervalOps, JoinOp};
    use crate::{factory_for, run_scenario, RunOptions};
    use rekey_core::adaptive::{AdaptiveManager, SchemeChoice};
    use rekey_core::{GroupKeyManager, Scheme};
    use std::collections::BTreeSet;

    /// Digest of the uninterrupted run, via the same harness with
    /// crashes disabled.
    fn baseline(scheme: Scheme, scenario: &Scenario) -> [u8; 32] {
        run_with_crashes(&factory_for(scheme), scenario, 0, 0)
            .expect("uninterrupted run")
            .digest
    }

    #[test]
    fn every_engine_scheme_survives_repeated_crashes() {
        let scenario = Scenario::generate(77, 18, &GenParams::default());
        for scheme in Scheme::ALL {
            let expected = baseline(scheme, &scenario);
            let report = run_with_crashes(&factory_for(scheme), &scenario, 4, 3)
                .unwrap_or_else(|e| panic!("{scheme}: {e}"));
            assert_eq!(report.crashes, 4, "{scheme}: crash schedule");
            assert_eq!(
                report.digest, expected,
                "{scheme}: crashed run diverged from uninterrupted run"
            );
            assert!(
                report.snapshots_loaded > 0,
                "{scheme}: snapshots never used"
            );
        }
    }

    /// A hand-built bimodal group: 64 founders; visitors that stay one
    /// interval, one per interval at first and six from interval 31;
    /// six founders leaving, each replaced, in intervals 21 to 30.
    fn bimodal_scenario() -> Scenario {
        let join = |member: u64| JoinOp {
            member,
            class: None,
            loss: 0.0,
        };
        let mut next_id = 64u64;
        let mut fresh = |n: usize| -> Vec<u64> {
            let ids = (next_id..next_id + n as u64).collect();
            next_id += n as u64;
            ids
        };
        let mut intervals = vec![IntervalOps {
            joins: (0..64).map(join).collect(),
            ..IntervalOps::default()
        }];
        let mut visitors: Vec<u64> = Vec::new();
        let mut founders = 0u64..64;
        for t in 1..=50usize {
            let mut ops = IntervalOps {
                leaves: std::mem::take(&mut visitors),
                ..IntervalOps::default()
            };
            visitors = fresh(if t <= 30 { 1 } else { 6 });
            ops.joins.extend(visitors.iter().copied().map(join));
            if (21..=30).contains(&t) {
                ops.leaves.extend(founders.by_ref().take(6));
                ops.joins.extend(fresh(6).into_iter().map(join));
            }
            ops.leaves.sort_unstable();
            intervals.push(ops);
        }
        Scenario {
            seed: 19,
            degree: 4,
            k: 3,
            intervals,
        }
    }

    /// §3.4 reassessed every interval: the recommendation visits all
    /// three modes and several `K`, the oracle and the member farm hold
    /// throughout, only S-period survivors ever migrate, and crashes
    /// that land while the S-tree and the queue are both draining
    /// reproduce the uninterrupted run.
    #[test]
    fn adaptive_switches_move_nobody_and_survive_crashes() {
        let scenario = bimodal_scenario();
        let factory = |_: &Scenario| -> Box<dyn GroupKeyManager> {
            Box::new(AdaptiveManager::new(4, 60.0, 1, 20))
        };
        let checked = run_scenario(&factory, &scenario, &RunOptions::default())
            .unwrap_or_else(|violation| panic!("{violation}"));

        // The same run again, watching the policy.
        let mut manager = AdaptiveManager::new(4, 60.0, 1, 20);
        let mut rng = scenario.churn_rng();
        let dek_node = manager.dek_node();
        let mut modes = Vec::new();
        let (mut placed, mut migrated) = (0, 0);
        for ops in &scenario.intervals {
            let (joins, leaves) = ops.batch(&mut rng);
            let out = manager
                .process_interval(&joins, &leaves, &mut rng)
                .expect("valid by construction");
            modes.push(manager.current_choice());
            // Only a joiner placed in the S-tree or the queue migrates,
            // once; a re-admission would overtake that count.
            if manager.current_choice() != SchemeChoice::OneKeytree {
                placed += joins.len();
            }
            migrated += out.stats.migrations;
            assert!(migrated <= placed, "epoch {}", out.message.epoch);
            assert_eq!(manager.dek_node(), dek_node);
        }
        assert!(modes.contains(&SchemeChoice::OneKeytree));
        assert!(modes.iter().any(|m| matches!(m, SchemeChoice::Tt { .. })));
        assert!(modes.iter().any(|m| matches!(m, SchemeChoice::Qt { .. })));
        let ks: BTreeSet<u32> = modes
            .iter()
            .filter_map(|m| match *m {
                SchemeChoice::Tt { k } | SchemeChoice::Qt { k } => Some(k),
                SchemeChoice::OneKeytree => None,
            })
            .collect();
        assert!(ks.len() >= 2, "{modes:?}");
        assert!(migrated > 0, "nobody ever finished an S-period");

        let report = run_with_crashes(&factory, &scenario, 3, 2).expect("crashed run");
        assert_eq!(report.crashes, scenario.intervals.len() / 3);
        assert!(report.snapshots_loaded > 0);
        assert_eq!(report.digest, checked.digest);
    }

    #[test]
    fn crash_every_interval_with_wal_only() {
        // The hardest schedule — a crash after every single interval,
        // no snapshots at all — still reproduces the reference stream.
        let scenario = Scenario::generate(78, 10, &GenParams::default());
        let expected = baseline(Scheme::Combined, &scenario);
        let report =
            run_with_crashes(&factory_for(Scheme::Combined), &scenario, 1, 0).expect("run");
        assert_eq!(report.crashes, report.intervals, "one crash per interval");
        assert_eq!(report.digest, expected);
        assert_eq!(report.snapshots_loaded, 0);
    }

    /// The rejected-batch op, all seven schemes, with and without
    /// snapshots: one rejection in three carries on live, one crashes
    /// behind the abort marker, one crashes ahead of it.
    #[test]
    fn every_scheme_forgets_a_rejected_batch_on_both_sides_of_its_marker() {
        let scenario = Scenario::generate(79, 19, &GenParams::default());
        for scheme in Scheme::ALL {
            let expected = baseline(scheme, &scenario);
            for snapshot_every in [0, 3] {
                let report =
                    run_with_rejected_batches(&factory_for(scheme), &scenario, 2, snapshot_every)
                        .unwrap_or_else(|e| {
                            panic!("{scheme}, snapshot every {snapshot_every}: {e}")
                        });
                assert_eq!(report.rejected, 9, "{scheme}");
                assert_eq!(
                    report.crashes, 6,
                    "{scheme}: two crashes per three rejections"
                );
                assert_eq!(
                    report.digest, expected,
                    "{scheme}: run with rejected batches diverged from the uninterrupted run"
                );
            }
        }
    }
}
