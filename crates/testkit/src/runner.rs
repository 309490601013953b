//! Scenario runner and counterexample shrinker.
//!
//! [`drive`] is the one interval loop: it hands a [`GroupKeyManager`]
//! each interval's batch of a [`Scenario`], encodes the message to wire
//! bytes, folds them into the run digest and shows the interval to a
//! callback. [`run_scenario`] is `drive` with the checks in that
//! callback: every message is decoded back, folded into the
//! [`KnowledgeOracle`], delivered to the [`MemberFarm`], and the full
//! invariant suite runs. Churn and network randomness come from two
//! independent seeded streams, so the run digest does not depend on the
//! delivery model.
//!
//! [`shrink`] bisects a failing scenario down to a minimal prefix and
//! then greedily deletes whole intervals and individual operations
//! (re-validating candidates with [`Scenario::sanitize`]) while the
//! failure persists.

use crate::farm::{Delivery, MemberFarm};
use crate::oracle::KnowledgeOracle;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{GroupKeyManager, IntervalOutcome, Join};
use rekey_crypto::sha256::Sha256;
use rekey_keytree::message::codec;
use rekey_keytree::MemberId;

/// Builds a fresh manager for a scenario (degree/k come from the
/// scenario so a shrunk scenario rebuilds the identical manager).
pub type ManagerFactory<'a> = dyn Fn(&Scenario) -> Box<dyn GroupKeyManager> + 'a;

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Delivery model between server and present members.
    pub delivery: Delivery,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            delivery: Delivery::Lossless,
        }
    }
}

/// A failed invariant, pinned to the interval that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index into [`Scenario::intervals`] (0 = bootstrap).
    pub interval: usize,
    /// Human-readable description of the violated invariant.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interval {}: {}", self.interval, self.detail)
    }
}

impl std::error::Error for Violation {}

/// Aggregates of a clean run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Intervals executed.
    pub intervals: usize,
    /// Present members at the end of the run.
    pub final_members: usize,
    /// Total rekey entries multicast.
    pub total_entries: usize,
    /// Total key advances announced (keys that only joins changed,
    /// sent as advance records instead of entries).
    pub total_advances: usize,
    /// Total wire bytes multicast.
    pub total_bytes: usize,
    /// SHA-256 over the concatenated wire bytes of every interval —
    /// the determinism fingerprint (same seed ⇒ same digest).
    pub digest: [u8; 32],
}

/// One interval's measurements, handed to the observer of
/// [`run_scenario_with`] after the interval's invariant checks pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalObservation {
    /// Index into [`Scenario::intervals`] (0 = bootstrap).
    pub interval: usize,
    /// Multicast wire bytes of the interval's rekey message.
    pub bytes: usize,
    /// Encrypted-key entries in the message.
    pub entries: usize,
    /// Wall-clock nanoseconds spent in
    /// [`GroupKeyManager::process_interval`] — the server-side rekey
    /// latency, excluding delivery and oracle bookkeeping.
    pub process_ns: u64,
    /// Present members after the interval (the key tree size).
    pub members: usize,
}

/// One interval of a [`drive`]n run, as its callback sees it.
#[derive(Debug)]
pub struct Step<'a, M: ?Sized> {
    /// Index into [`Scenario::intervals`] (0 = bootstrap).
    pub interval: usize,
    /// The joins the manager was handed, individual keys included.
    pub joins: &'a [Join],
    /// The leavers the manager was handed.
    pub leaves: &'a [MemberId],
    /// What the manager returned.
    pub outcome: &'a IntervalOutcome,
    /// The message's wire bytes, as folded into the run digest.
    pub bytes: &'a [u8],
    /// Wall-clock nanoseconds spent in
    /// [`GroupKeyManager::process_interval`].
    pub process_ns: u64,
    /// The manager, after the interval.
    pub manager: &'a M,
}

/// Runs `scenario` against a manager built by `factory`, handing every
/// interval to `on_interval`, and returns the run's aggregates. Every
/// batch's individual keys and every manager draw come from
/// [`Scenario::churn_rng`], so the digest is a function of the scenario
/// and the scheme alone.
///
/// # Errors
///
/// A [`Violation`] at the first batch the manager rejects, or with the
/// detail the callback returned.
pub fn drive<M: GroupKeyManager + ?Sized>(
    factory: impl FnOnce(&Scenario) -> Box<M>,
    scenario: &Scenario,
    mut on_interval: impl FnMut(&Step<'_, M>) -> Result<(), String>,
) -> Result<RunStats, Violation> {
    let mut manager = factory(scenario);
    let mut churn_rng = scenario.churn_rng();
    let mut hasher = Sha256::new();
    let mut total_entries = 0usize;
    let mut total_advances = 0usize;
    let mut total_bytes = 0usize;

    for (interval, ops) in scenario.intervals.iter().enumerate() {
        let fail = |detail: String| Violation { interval, detail };
        let (joins, leaves) = ops.batch(&mut churn_rng);
        let started = std::time::Instant::now();
        let outcome = manager
            .process_interval(&joins, &leaves, &mut churn_rng)
            .map_err(|e| fail(format!("manager rejected batch: {e}")))?;
        let process_ns = started.elapsed().as_nanos() as u64;

        let bytes = codec::encode_message(&outcome.message);
        hasher.update(&bytes);
        total_entries += outcome.message.encrypted_key_count();
        total_advances += outcome.message.advances.len();
        total_bytes += bytes.len();
        on_interval(&Step {
            interval,
            joins: &joins,
            leaves: &leaves,
            outcome: &outcome,
            bytes: &bytes,
            process_ns,
            manager: &*manager,
        })
        .map_err(fail)?;
    }

    Ok(RunStats {
        intervals: scenario.intervals.len(),
        final_members: manager.member_count(),
        total_entries,
        total_advances,
        total_bytes,
        digest: hasher.finalize(),
    })
}

/// Runs `scenario` against a manager built by `factory` and returns
/// run statistics, or the first invariant violation.
pub fn run_scenario(
    factory: &ManagerFactory,
    scenario: &Scenario,
    opts: &RunOptions,
) -> Result<RunStats, Violation> {
    run_scenario_with(factory, scenario, opts, &mut |_| {})
}

/// [`run_scenario`] with a per-interval observer: the workload sweep
/// uses it to collect bandwidth-per-interval, rekey latency
/// percentiles, and peak tree size without a second pass. The
/// observer sees only measurements — verdict and digest are identical
/// to [`run_scenario`] whatever it does.
pub fn run_scenario_with(
    factory: &ManagerFactory,
    scenario: &Scenario,
    opts: &RunOptions,
    observer: &mut dyn FnMut(IntervalObservation),
) -> Result<RunStats, Violation> {
    // Independent streams: delivery draws must not perturb the server.
    let mut net_rng = StdRng::seed_from_u64(scenario.seed ^ 0x6A09_E667_F3BC_C908);
    let mut oracle = KnowledgeOracle::new();
    let mut farm = MemberFarm::new();

    drive(factory, scenario, |step| {
        let ops = &scenario.intervals[step.interval];
        for (join, op) in step.joins.iter().zip(&ops.joins) {
            farm.admit(join.member, join.individual_key.clone(), op.loss);
        }
        for &m in step.leaves {
            farm.depart(m);
        }
        for &(m, loss) in &ops.loss_changes {
            farm.set_loss(MemberId(m), loss);
        }

        let message = &step.outcome.message;
        let decoded = codec::decode_message(step.bytes).ok_or("wire bytes failed to decode")?;
        if decoded != *message {
            return Err("wire round-trip altered the message".into());
        }
        let report = oracle.observe(&decoded);
        let complete = farm
            .deliver(&decoded, opts.delivery, step.manager, &mut net_rng)
            .map_err(|e| e.to_string())?;
        farm.check(&oracle, step.manager, &report, complete)
            .map_err(|e| e.to_string())?;

        observer(IntervalObservation {
            interval: step.interval,
            bytes: step.bytes.len(),
            entries: message.encrypted_key_count(),
            process_ns: step.process_ns,
            members: farm.present().len(),
        });
        Ok(())
    })
}

/// Outcome of shrinking a failing scenario.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The minimal failing scenario found.
    pub scenario: Scenario,
    /// The violation the minimal scenario triggers.
    pub violation: Violation,
    /// Scenario executions spent shrinking.
    pub runs: usize,
}

impl ShrinkReport {
    /// A `rekey-cli` command line replaying the *original* seed (the
    /// shrunk scenario itself travels as ops, but the seed reproduces
    /// the ancestor run end to end).
    pub fn replay_command(&self, scheme: &str, delivery: Delivery) -> String {
        format!(
            "rekey fuzz --scheme {scheme} --seed {} --intervals {} --loss {}",
            self.scenario.seed,
            self.scenario.intervals.len().saturating_sub(1),
            delivery.name(),
        )
    }
}

/// Shrinks a failing scenario: first bisects to the shortest failing
/// interval prefix, then greedily removes whole intervals, then
/// individual operations, sanitizing each candidate. `budget` caps the
/// number of scenario re-executions (each a full run).
///
/// The caller must have observed `scenario` fail under the same
/// factory and options; if it unexpectedly passes, the original
/// scenario is returned with the provided violation.
pub fn shrink(
    factory: &ManagerFactory,
    scenario: &Scenario,
    opts: &RunOptions,
    violation: Violation,
    budget: usize,
) -> ShrinkReport {
    let runs = std::cell::Cell::new(0usize);
    let rerun = |candidate: &Scenario| -> Option<Violation> {
        runs.set(runs.get() + 1);
        run_scenario(factory, candidate, opts).err()
    };

    // The failure triggered at `violation.interval`, so the prefix up
    // to and including it must fail too (runs are deterministic).
    let mut best = scenario.clone();
    best.intervals.truncate(violation.interval + 1);
    let mut best_violation = match rerun(&best) {
        Some(v) => v,
        None => {
            return ShrinkReport {
                scenario: scenario.clone(),
                violation,
                runs: runs.get(),
            }
        }
    };

    // Greedy deletion passes, largest granularity first, repeated
    // until a full pass removes nothing or the budget runs out.
    let mut made_progress = true;
    while made_progress && runs.get() < budget {
        made_progress = false;

        // Whole intervals (never the bootstrap shape: an empty
        // interval is simply dropped).
        let mut idx = 0;
        while idx < best.intervals.len() && runs.get() < budget {
            let mut candidate = best.clone();
            candidate.intervals.remove(idx);
            candidate.sanitize();
            if let Some(v) = rerun(&candidate) {
                best = candidate;
                best_violation = v;
                made_progress = true;
            } else {
                idx += 1;
            }
        }

        // Individual operations.
        let mut iv = 0;
        while iv < best.intervals.len() && runs.get() < budget {
            for kind in 0..3usize {
                let mut op = 0;
                loop {
                    if runs.get() >= budget {
                        break;
                    }
                    let mut candidate = best.clone();
                    let ops = &mut candidate.intervals[iv];
                    let len = match kind {
                        0 => ops.leaves.len(),
                        1 => ops.joins.len(),
                        _ => ops.loss_changes.len(),
                    };
                    if op >= len {
                        break;
                    }
                    match kind {
                        0 => {
                            ops.leaves.remove(op);
                        }
                        1 => {
                            ops.joins.remove(op);
                        }
                        _ => {
                            ops.loss_changes.remove(op);
                        }
                    }
                    candidate.sanitize();
                    if let Some(v) = rerun(&candidate) {
                        best = candidate;
                        best_violation = v;
                        made_progress = true;
                    } else {
                        op += 1;
                    }
                }
            }
            iv += 1;
        }
    }

    ShrinkReport {
        scenario: best,
        violation: best_violation,
        runs: runs.get(),
    }
}
