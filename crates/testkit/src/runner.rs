//! Scenario runner and counterexample shrinker.
//!
//! [`drive`] is the one interval loop: it hands a [`GroupKeyManager`]
//! each interval's batch of a [`Scenario`], encodes the message to wire
//! bytes, folds them into the run digest, records the interval's
//! `sim.*` samples and shows the interval to a callback. [`run_scenario`]
//! is `drive` with the checks in that callback: every message is decoded
//! back, folded into the [`KnowledgeOracle`], delivered to the
//! [`MemberFarm`], and the full invariant suite runs before the caller
//! sees the interval. Churn and network randomness come from two
//! independent seeded streams, so the run digest does not depend on the
//! delivery model.
//!
//! [`shrink`] bisects a failing scenario down to a minimal prefix and
//! then greedily deletes whole intervals and individual operations
//! (re-validating candidates with [`Scenario::sanitize`]) while the
//! failure persists.

use crate::farm::{Delivery, MemberFarm};
use crate::oracle::KnowledgeOracle;
use crate::scenario::{IntervalOps, Scenario};
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
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Delivery model between server and present members (lossless by
    /// default).
    pub delivery: Delivery,
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
    /// Total key derivations announced (compromised keys derived by G
    /// from a compromised child, sent as derivation records instead of
    /// a wrap under that child).
    pub total_derivations: usize,
    /// Total wire bytes multicast.
    pub total_bytes: usize,
    /// SHA-256 over the concatenated wire bytes of every interval —
    /// the determinism fingerprint (same seed ⇒ same digest).
    pub digest: [u8; 32],
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
/// and the scheme alone. Each interval records its
/// `sim.{joins,leaves,migrations,encrypted_keys,message_bytes,members}`
/// samples to the installed [`rekey_obs`] recorder, if any.
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
    let mut total_derivations = 0usize;
    let mut total_bytes = 0usize;

    for (interval, ops) in scenario.intervals.iter().enumerate() {
        let fail = |detail: String| Violation { interval, detail };
        let (joins, leaves) = ops.batch(&mut churn_rng);
        let started = std::time::Instant::now();
        let outcome = manager
            .process_interval(&joins, &leaves, &mut churn_rng)
            .map_err(|e| fail(format!("manager rejected batch: {e}")))?;
        let process_ns = started.elapsed().as_nanos() as u64;
        let stats = &outcome.stats;
        rekey_obs::sample("sim.joins", stats.joins as f64);
        rekey_obs::sample("sim.leaves", stats.leaves as f64);
        rekey_obs::sample("sim.migrations", stats.migrations as f64);
        rekey_obs::sample("sim.encrypted_keys", stats.encrypted_keys as f64);
        rekey_obs::sample("sim.message_bytes", stats.message_bytes as f64);
        rekey_obs::sample("sim.members", manager.member_count() as f64);

        let bytes = codec::encode_message(&outcome.message);
        hasher.update(&bytes);
        total_entries += outcome.message.encrypted_key_count();
        total_advances += outcome.message.advances.len();
        total_derivations += outcome.message.derivations.len();
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
        total_derivations,
        total_bytes,
        digest: hasher.finalize(),
    })
}

/// Runs `scenario` against a manager built by `factory` under the full
/// invariant suite, handing every interval that passes it to
/// `on_interval`, and returns the run's aggregates. The callback only
/// observes: verdict and digest do not depend on it.
///
/// # Errors
///
/// The first [`Violation`]: a rejected batch or a failed invariant.
pub fn run_scenario(
    factory: &ManagerFactory,
    scenario: &Scenario,
    opts: &RunOptions,
    mut on_interval: impl FnMut(&Step<'_, dyn GroupKeyManager>),
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

        on_interval(step);
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
        run_scenario(factory, candidate, opts, |_| {}).err()
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
                while runs.get() < budget {
                    let mut candidate = best.clone();
                    if !remove_op(&mut candidate.intervals[iv], kind, op) {
                        break;
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

/// Removes operation `op` of `kind` (0 leaves, 1 joins, 2 loss changes)
/// from `ops`; false when there is no such operation.
fn remove_op(ops: &mut IntervalOps, kind: usize, op: usize) -> bool {
    fn take<T>(ops: &mut Vec<T>, op: usize) -> bool {
        (op < ops.len()).then(|| ops.remove(op)).is_some()
    }
    match kind {
        0 => take(&mut ops.leaves, op),
        1 => take(&mut ops.joins, op),
        _ => take(&mut ops.loss_changes, op),
    }
}
