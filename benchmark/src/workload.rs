//! The benchmark's workloads: what each one is, why it was chosen, and
//! the seed-deterministic scripts that produce their join/leave batches.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::Join;
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use rekey_sim::membership::{MembershipGenerator, MembershipParams};
use rekey_testkit::scenario::{GenParams, IntervalOps};
use rekey_testkit::workload::{FlashCrowd, Workload as _};

/// Key-tree degree of every workload (the paper's Table 1).
pub const DEGREE: usize = 4;
/// S-period `K` of the `tt` scheme, in intervals (Table 1).
pub const S_PERIOD: u64 = 10;

/// Where a workload's batches come from.
#[derive(Debug, Clone, Copy)]
pub enum ScriptKind {
    /// The paper's two-class membership model (§3.3.1) at its Table-1
    /// parameters, scaled to `target_size` members. Endless.
    Paper {
        /// Steady-state group size.
        target_size: usize,
    },
    /// `rekey_testkit`'s pay-per-view event: a join-only ramp, a quiet
    /// plateau, a leave-only drain. Ends after `intervals`.
    FlashCrowd {
        /// Members joining during the ramp.
        crowd_size: usize,
        /// Members present before the event.
        bootstrap: usize,
        /// Length of the event in rekey intervals.
        intervals: usize,
    },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Stable name; later issues cite it.
    pub name: &'static str,
    /// Why this workload is in the benchmark, one line.
    pub why: &'static str,
    /// Source of the batches.
    pub script: ScriptKind,
    /// Set-ups, each followed by a measured round, in a time-bound run:
    /// `setup_s` is their median and the bounded timings take the
    /// fastest round per position. More where a set-up is cheap.
    pub rounds: usize,
    /// Unpublished warm-up intervals between bootstrap and the first
    /// measured one. `tt` migrates nearly the whole bootstrap
    /// population in interval `K`; `K + 2` puts that inside set-up.
    pub warmup: usize,
    /// The daemon crashes and recovers once per this many snapshot
    /// cycles (and at the end of each round), always on the last
    /// interval before a snapshot.
    pub crash_every_cycles: usize,
    /// Measured intervals of the first round over which the bandwidth
    /// metrics are averaged, so that they are exact per seed however
    /// long the run lasts. A round never stops before reaching it.
    pub exact_prefix: usize,
}

/// The benchmark's workloads, in the order they are run and reported.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "steady-16k",
        why: "paper Table-1 churn at N=16384: engine, key tree and key wrap do most of the work, storage and net little",
        script: ScriptKind::Paper {
            target_size: 16_384,
        },
        rounds: 3,
        warmup: 12,
        crash_every_cycles: 4,
        exact_prefix: 64,
    },
    Spec {
        name: "small-group-256",
        why: "N=256: per-interval fixed costs (WAL fsync, publish, shard wake, socket, client poll) dominate; most samples",
        script: ScriptKind::Paper { target_size: 256 },
        rounds: 6,
        warmup: 12,
        crash_every_cycles: 64,
        exact_prefix: 1_024,
    },
    Spec {
        name: "flash-crowd-12k",
        why: "join-only ramp, migration waves, leave-only drain: other batch shapes than balanced churn and the largest frames",
        script: ScriptKind::FlashCrowd {
            crowd_size: 12_288,
            bootstrap: 1_024,
            intervals: 100,
        },
        // A round is one whole event; as many as fit the run.
        rounds: 3,
        warmup: 0,
        // Only at the end of the event: mid-event the group's size, and
        // with it the recovery time, differs from crash to crash.
        crash_every_cycles: usize::MAX,
        exact_prefix: 100,
    },
    Spec {
        name: "restart-16k",
        why: "crash and recover every snapshot cycle at N=16384: snapshot load, restore_state and WAL replay beside the writes",
        script: ScriptKind::Paper {
            target_size: 16_384,
        },
        rounds: 3,
        warmup: 12,
        crash_every_cycles: 1,
        exact_prefix: 32,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// One rekey interval's input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Members joining, with individual keys and hints.
    pub joins: Vec<Join>,
    /// Members leaving.
    pub leaves: Vec<MemberId>,
}

impl Batch {
    /// Appends a canonical encoding of the batch to `out` (the
    /// determinism tests hash it).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.joins.len() as u64).to_be_bytes());
        for join in &self.joins {
            out.extend_from_slice(&join.member.0.to_be_bytes());
            out.extend_from_slice(join.individual_key.as_bytes());
            out.push(match join.hint.expected_class {
                None => 0,
                Some(rekey_core::DurationClass::Short) => 1,
                Some(rekey_core::DurationClass::Long) => 2,
            });
            let loss = join.hint.loss_rate.map_or(u64::MAX, f64::to_bits);
            out.extend_from_slice(&loss.to_be_bytes());
        }
        out.extend_from_slice(&(self.leaves.len() as u64).to_be_bytes());
        for leave in &self.leaves {
            out.extend_from_slice(&leave.0.to_be_bytes());
        }
    }
}

enum Source {
    Paper {
        generator: MembershipGenerator,
        rng: StdRng,
    },
    Compiled(std::vec::IntoIter<IntervalOps>),
}

/// A seed-deterministic stream of batches: the bootstrap batch first,
/// then one batch per rekey interval. Individual keys come from their
/// own RNG stream, so the same seed gives the same bytes.
pub struct Script {
    source: Source,
    key_rng: StdRng,
    bootstrap: Option<Batch>,
}

impl Script {
    /// Builds the script of `spec` for `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Script {
        let mut key_rng = StdRng::seed_from_u64(seed ^ 0x6B65_7973_6565_6421);
        match spec.script {
            ScriptKind::Paper { target_size } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let params = MembershipParams {
                    target_size,
                    ..MembershipParams::paper_default()
                };
                // The generator starts with members 0..target_size
                // present; they are the bootstrap batch.
                let generator = MembershipGenerator::new(params, &mut rng);
                let joins = (0..target_size as u64)
                    .map(|id| Join::new(MemberId(id), Key::generate(&mut key_rng)))
                    .collect();
                Script {
                    source: Source::Paper { generator, rng },
                    key_rng,
                    bootstrap: Some(Batch {
                        joins,
                        leaves: Vec::new(),
                    }),
                }
            }
            ScriptKind::FlashCrowd {
                crowd_size,
                bootstrap,
                intervals,
            } => {
                // `FlashCrowd` keeps private state, so it can only be
                // built from its default.
                let mut crowd = FlashCrowd::default();
                crowd.crowd_size = crowd_size;
                crowd.ramp_start = 0.1;
                crowd.ramp_len = 0.4;
                crowd.plateau_len = 0.1;
                crowd.drain_frac = 0.15;
                let params = GenParams {
                    bootstrap,
                    degree: DEGREE as u8,
                    k: S_PERIOD as u16,
                    ..GenParams::default()
                };
                let mut ops = crowd
                    .compile(seed, intervals, &params)
                    .intervals
                    .into_iter();
                let first = ops.next().expect("compile emits the bootstrap interval");
                let bootstrap = Some(ops_to_batch(first, &mut key_rng));
                Script {
                    source: Source::Compiled(ops),
                    key_rng,
                    bootstrap,
                }
            }
        }
    }

    /// The batch that builds the initial group. Yields once.
    pub fn bootstrap(&mut self) -> Batch {
        self.bootstrap.take().expect("bootstrap taken once")
    }

    /// The next interval's batch; `None` when a finite script is over.
    pub fn next_batch(&mut self) -> Option<Batch> {
        match &mut self.source {
            Source::Paper { generator, rng } => {
                let events = generator.next_interval(rng);
                let joins = events
                    .joins
                    .into_iter()
                    .map(|(member, class)| {
                        Join::new(member, Key::generate(&mut self.key_rng)).with_class(class)
                    })
                    .collect();
                Some(Batch {
                    joins,
                    leaves: events.leaves,
                })
            }
            Source::Compiled(ops) => ops.next().map(|ops| ops_to_batch(ops, &mut self.key_rng)),
        }
    }

    /// Batches left in a finite script; `None` for an endless one.
    pub fn remaining(&self) -> Option<usize> {
        match &self.source {
            Source::Paper { .. } => None,
            Source::Compiled(ops) => Some(ops.len()),
        }
    }
}

/// Same mapping as `rekey_testkit::runner`: loss hint always, class
/// hint when the op carries one. Loss changes are member feedback for
/// the loss forest; `tt` has no use for them.
fn ops_to_batch(ops: IntervalOps, key_rng: &mut StdRng) -> Batch {
    let joins = ops
        .joins
        .into_iter()
        .map(|op| {
            let join =
                Join::new(MemberId(op.member), Key::generate(key_rng)).with_loss_rate(op.loss);
            match op.class {
                Some(class) => join.with_class(class),
                None => join,
            }
        })
        .collect();
    Batch {
        joins,
        leaves: ops.leaves.into_iter().map(MemberId).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(spec: &Spec, seed: u64, n: usize) -> Vec<u8> {
        let mut script = Script::new(spec, seed);
        let mut bytes = Vec::new();
        script.bootstrap().encode_into(&mut bytes);
        for _ in 0..n {
            script
                .next_batch()
                .expect("script long enough")
                .encode_into(&mut bytes);
        }
        bytes
    }

    #[test]
    fn same_seed_same_batches_other_seed_other_batches() {
        for spec in &WORKLOADS {
            if spec.name == "steady-16k" {
                continue; // same script as restart-16k
            }
            let a = prefix(spec, 7, 20);
            assert_eq!(a, prefix(spec, 7, 20), "{}", spec.name);
            assert_ne!(a, prefix(spec, 8, 20), "{}", spec.name);
        }
    }

    #[test]
    fn flash_crowd_script_is_finite_and_paper_script_is_not() {
        let flash = by_name("flash-crowd-12k").expect("workload exists");
        let mut script = Script::new(flash, 1);
        script.bootstrap();
        assert_eq!(script.remaining(), Some(100));
        let mut batches = 0;
        while script.next_batch().is_some() {
            batches += 1;
        }
        assert_eq!(batches, 100);

        let small = by_name("small-group-256").expect("workload exists");
        assert_eq!(Script::new(small, 1).remaining(), None);
    }
}
