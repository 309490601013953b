//! Seed-driven churn scenarios with a compact, replayable byte
//! encoding.
//!
//! A [`Scenario`] is the full ground truth of one fuzzer run: which
//! members join (with duration-class and loss-rate hints), which
//! leave, and whose network loss class changes, interval by interval.
//! Scenarios are *valid by construction* (leavers are present, join
//! ids are fresh) and every byte of a scenario is a pure function of
//! the seed, so `--seed N` replays the identical run anywhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_core::{DurationClass, Join};
use rekey_keytree::message::codec::{ensure, DecodeError, Reader};
use rekey_keytree::MemberId;

/// One join operation: the member, an optional duration-class hint
/// (exercises oracle placement), and its network loss rate (exercises
/// loss-forest placement and the lossy delivery modes).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOp {
    /// Fresh member id (never reused within a scenario).
    pub member: u64,
    /// Duration-class hint attached to the join, if any.
    pub class: Option<DurationClass>,
    /// The member's packet-loss rate in `[0, 1)`.
    pub loss: f64,
}

/// The operations of one rekey interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalOps {
    /// Members joining this interval.
    pub joins: Vec<JoinOp>,
    /// Members leaving this interval (present before the interval).
    pub leaves: Vec<u64>,
    /// Loss-class changes `(member, new loss rate)` for members that
    /// remain present.
    pub loss_changes: Vec<(u64, f64)>,
}

impl IntervalOps {
    /// Total operations in this interval.
    pub fn op_count(&self) -> usize {
        self.joins.len() + self.leaves.len() + self.loss_changes.len()
    }

    /// The batch a manager is handed for this interval: one [`Join`]
    /// per join op, in op order, each individual key drawn from
    /// `churn_rng`, plus the leavers. The draws ride the same RNG the
    /// engine consumes afterwards, so every driver of a scenario (and
    /// a recovered RNG position) regenerates the identical keys.
    pub fn batch(&self, churn_rng: &mut StdRng) -> (Vec<Join>, Vec<MemberId>) {
        let joins = self
            .joins
            .iter()
            .map(|op| {
                let key = rekey_crypto::Key::generate(churn_rng);
                let join = Join::new(MemberId(op.member), key).with_loss_rate(op.loss);
                match op.class {
                    Some(class) => join.with_class(class),
                    None => join,
                }
            })
            .collect();
        let leaves = self.leaves.iter().map(|&m| MemberId(m)).collect();
        (joins, leaves)
    }
}

/// A complete replayable churn scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed this scenario was generated from (recorded for replay
    /// commands; a shrunk scenario keeps its ancestor's seed).
    pub seed: u64,
    /// Key-tree degree for the manager under test.
    pub degree: u8,
    /// S-period (in intervals) for the partitioned schemes.
    pub k: u16,
    /// Per-interval operations; index 0 is the bootstrap interval.
    pub intervals: Vec<IntervalOps>,
}

/// Tunables for [`Scenario::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenParams {
    /// Members admitted in the bootstrap interval.
    pub bootstrap: usize,
    /// Key-tree degree recorded in the scenario.
    pub degree: u8,
    /// S-period recorded in the scenario.
    pub k: u16,
    /// Loss classes members are assigned to (all in `[0, 1)`).
    pub loss_classes: Vec<f64>,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            bootstrap: 32,
            degree: 4,
            k: 3,
            loss_classes: vec![0.2, 0.02, 0.0],
        }
    }
}

impl Scenario {
    /// Total operations across all intervals.
    pub fn op_count(&self) -> usize {
        self.intervals.iter().map(IntervalOps::op_count).sum()
    }

    /// The server-side RNG of a run of this scenario, at its start:
    /// individual keys ([`IntervalOps::batch`]) and the manager's draws
    /// interleave on it, so every driver starts from the same stream.
    pub fn churn_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Generates the scenario for `seed`: a bootstrap interval
    /// followed by `intervals` churn intervals mixing joins (with
    /// hints), leaves, pure-join stretches, occasional mass
    /// departures, and loss-class changes. Every call with the same
    /// arguments returns a byte-identical scenario.
    pub fn generate(seed: u64, intervals: usize, params: &GenParams) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE9_A210_FA57_F00D);
        let classes = &params.loss_classes;
        let class = |rng: &mut StdRng| classes[rng.gen_range(0..classes.len().max(1))];
        let mut next_id = 0u64;
        let mut present: Vec<u64> = Vec::new();
        let mut out: Vec<IntervalOps> = Vec::with_capacity(intervals + 1);

        let mut make_joins = |n: usize, present: &mut Vec<u64>, rng: &mut StdRng| -> Vec<JoinOp> {
            (0..n)
                .map(|_| {
                    let member = next_id;
                    next_id += 1;
                    present.push(member);
                    JoinOp {
                        member,
                        class: match rng.gen_range(0u32..3) {
                            0 => None,
                            1 => Some(DurationClass::Short),
                            _ => Some(DurationClass::Long),
                        },
                        loss: class(rng),
                    }
                })
                .collect()
        };

        out.push(IntervalOps {
            joins: make_joins(params.bootstrap, &mut present, &mut rng),
            ..IntervalOps::default()
        });

        for _ in 0..intervals {
            let mut ops = IntervalOps::default();

            // Leaves come from the pre-interval membership; ~1 in 8
            // intervals is a mass departure that empties a large slice
            // of the group (stress for subtree collapse and queues).
            let max_leaves = if rng.gen::<f64>() < 0.125 {
                present.len() / 2
            } else {
                3
            };
            let n_leaves = if max_leaves == 0 || rng.gen::<f64>() < 0.2 {
                0
            } else {
                rng.gen_range(0..max_leaves + 1)
            };
            for _ in 0..n_leaves.min(present.len()) {
                let idx = rng.gen_range(0..present.len());
                ops.leaves.push(present.swap_remove(idx));
            }
            ops.leaves.sort_unstable();

            // Joins; ~1 in 6 intervals is join-free (exercises the
            // pure-departure phases).
            if rng.gen::<f64>() >= 1.0 / 6.0 {
                ops.joins = make_joins(rng.gen_range(1..5), &mut present, &mut rng);
            }

            // Occasional loss-class change for a surviving member.
            if !present.is_empty() && rng.gen::<f64>() < 0.2 {
                let member = present[rng.gen_range(0..present.len())];
                ops.loss_changes.push((member, class(&mut rng)));
            }

            out.push(ops);
        }

        Scenario {
            seed,
            degree: params.degree,
            k: params.k,
            intervals: out,
        }
    }

    /// Serializes the scenario to its compact replayable byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.op_count() * 10);
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&self.seed.to_be_bytes());
        buf.push(self.degree);
        buf.extend_from_slice(&self.k.to_be_bytes());
        buf.extend_from_slice(&(self.intervals.len() as u32).to_be_bytes());
        for iv in &self.intervals {
            buf.extend_from_slice(&(iv.joins.len() as u32).to_be_bytes());
            for j in &iv.joins {
                buf.extend_from_slice(&j.member.to_be_bytes());
                buf.push(match j.class {
                    None => 0,
                    Some(DurationClass::Short) => 1,
                    Some(DurationClass::Long) => 2,
                });
                buf.extend_from_slice(&j.loss.to_bits().to_be_bytes());
            }
            buf.extend_from_slice(&(iv.leaves.len() as u32).to_be_bytes());
            for m in &iv.leaves {
                buf.extend_from_slice(&m.to_be_bytes());
            }
            buf.extend_from_slice(&(iv.loss_changes.len() as u32).to_be_bytes());
            for (m, loss) in &iv.loss_changes {
                buf.extend_from_slice(&m.to_be_bytes());
                buf.extend_from_slice(&loss.to_bits().to_be_bytes());
            }
        }
        buf
    }

    /// Deserializes a scenario written by [`Scenario::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Scenario, DecodeError> {
        let mut r = Reader::new(bytes);
        ensure(r.bytes(MAGIC.len())? == MAGIC)?;
        r.expect(VERSION)?;
        let seed = r.u64()?;
        let degree = r.u8()?;
        let k = r.u16()?;
        let n_intervals = r.u32()?;
        // An interval is at least its three counts.
        let intervals = r.list(n_intervals.into(), 12, |r| {
            let mut iv = IntervalOps::default();
            for _ in 0..r.u32()? {
                iv.joins.push(JoinOp {
                    member: r.u64()?,
                    class: match r.u8()? {
                        0 => None,
                        1 => Some(DurationClass::Short),
                        2 => Some(DurationClass::Long),
                        _ => return Err(DecodeError::Invalid),
                    },
                    loss: f64::from_bits(r.u64()?),
                });
            }
            for _ in 0..r.u32()? {
                iv.leaves.push(r.u64()?);
            }
            for _ in 0..r.u32()? {
                iv.loss_changes.push((r.u64()?, f64::from_bits(r.u64()?)));
            }
            Ok(iv)
        })?;
        r.finish()?;
        Ok(Scenario {
            seed,
            degree,
            k,
            intervals,
        })
    }

    /// Re-validates op ordering after arbitrary op removal (used by
    /// the shrinker): drops leaves and loss changes that reference
    /// members no longer joined — including a leave of a member
    /// already departed earlier in the *same* interval — and duplicate
    /// joins. The result is a scenario any manager accepts.
    ///
    /// Sanitizing silently *repairs*; replay paths that must not mask
    /// a hand-edited trace's mistakes should call
    /// [`Scenario::validate`] first and surface the typed error.
    pub fn sanitize(&mut self) {
        let mut joined = std::collections::BTreeSet::new();
        let mut present = std::collections::BTreeSet::new();
        for iv in &mut self.intervals {
            iv.leaves.retain(|m| present.remove(m));
            iv.joins.retain(|j| joined.insert(j.member));
            for j in &iv.joins {
                present.insert(j.member);
            }
            iv.loss_changes.retain(|(m, _)| present.contains(m));
        }
    }

    /// Checks the validity-by-construction invariants without
    /// repairing anything, pinning the first offending op.
    ///
    /// Generated scenarios always pass; the point is *replayed* traces
    /// that were hand-edited after dumping — a leave of a member
    /// already departed in the same interval (or never admitted), a
    /// duplicate join, a loss change for an absent member — which used
    /// to slip through to the manager because replay relied on
    /// validity-by-construction.
    ///
    /// Leaves are checked against the pre-interval membership, exactly
    /// as managers apply them: a leave of a member joining in the same
    /// interval is invalid.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] for the first invalid op in
    /// interval order.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let mut joined = std::collections::BTreeSet::new();
        let mut present = std::collections::BTreeSet::new();
        for (interval, iv) in self.intervals.iter().enumerate() {
            for &member in &iv.leaves {
                if !present.remove(&member) {
                    return Err(if joined.contains(&member) {
                        ScenarioError::LeaveOfDeparted { interval, member }
                    } else {
                        ScenarioError::LeaveOfUnknown { interval, member }
                    });
                }
            }
            for j in &iv.joins {
                if !joined.insert(j.member) {
                    return Err(ScenarioError::DuplicateJoin {
                        interval,
                        member: j.member,
                    });
                }
                present.insert(j.member);
            }
            for &(member, _) in &iv.loss_changes {
                if !present.contains(&member) {
                    return Err(ScenarioError::LossChangeOfAbsent { interval, member });
                }
            }
        }
        Ok(())
    }
}

/// A validity violation found by [`Scenario::validate`], pinned to the
/// first offending op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// A leave names a member that already departed — earlier in the
    /// same interval (a duplicated leave) or in a previous one.
    LeaveOfDeparted {
        /// Interval index of the offending leave.
        interval: usize,
        /// The already-departed member.
        member: u64,
    },
    /// A leave names a member never admitted before the interval
    /// (including a member joining only in the same interval: managers
    /// apply leaves against the pre-interval membership).
    LeaveOfUnknown {
        /// Interval index of the offending leave.
        interval: usize,
        /// The unknown member.
        member: u64,
    },
    /// A join reuses a member id admitted earlier in the scenario.
    DuplicateJoin {
        /// Interval index of the offending join.
        interval: usize,
        /// The reused member id.
        member: u64,
    },
    /// A loss change names a member not present after the interval's
    /// joins and leaves.
    LossChangeOfAbsent {
        /// Interval index of the offending loss change.
        interval: usize,
        /// The absent member.
        member: u64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::LeaveOfDeparted { interval, member } => write!(
                f,
                "interval {interval}: leave of member {member} already departed"
            ),
            ScenarioError::LeaveOfUnknown { interval, member } => write!(
                f,
                "interval {interval}: leave of member {member} never admitted before the interval"
            ),
            ScenarioError::DuplicateJoin { interval, member } => {
                write!(f, "interval {interval}: duplicate join of member {member}")
            }
            ScenarioError::LossChangeOfAbsent { interval, member } => write!(
                f,
                "interval {interval}: loss change for absent member {member}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

const MAGIC: &[u8] = b"RKSC";
const VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(42, 30, &GenParams::default());
        let b = Scenario::generate(42, 30, &GenParams::default());
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode());
        let c = Scenario::generate(43, 30, &GenParams::default());
        assert_ne!(a.encode(), c.encode());
    }

    #[test]
    fn encode_decode_round_trip() {
        for seed in [0, 1, 7, 0xDEAD_BEEF] {
            let s = Scenario::generate(seed, 25, &GenParams::default());
            let bytes = s.encode();
            assert_eq!(Scenario::decode(&bytes), Ok(s));
        }
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let s = Scenario::generate(3, 10, &GenParams::default());
        let bytes = s.encode();
        for cut in 0..bytes.len().min(64) {
            assert!(Scenario::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Scenario::decode(&padded).is_err());
    }

    #[test]
    fn scenarios_are_valid_by_construction() {
        let s = Scenario::generate(11, 80, &GenParams::default());
        let mut sanitized = s.clone();
        sanitized.sanitize();
        assert_eq!(s, sanitized, "generator emitted an invalid op");
        // Churn variety: some interval must leave, some must not.
        assert!(s.intervals.iter().any(|iv| !iv.leaves.is_empty()));
        assert!(s.intervals.iter().any(|iv| iv.leaves.is_empty()));
        assert!(s.intervals.iter().any(|iv| !iv.loss_changes.is_empty()));
    }

    #[test]
    fn validate_accepts_generated_scenarios() {
        for seed in [0, 9, 77] {
            Scenario::generate(seed, 50, &GenParams::default())
                .validate()
                .expect("generated scenarios are valid by construction");
        }
    }

    #[test]
    fn validate_rejects_duplicate_leave_in_same_interval() {
        // Hand-edit a trace: duplicate an existing leave inside its
        // interval — the replay-path bug class sanitize used to be the
        // only (silent) guard against.
        let mut s = Scenario::generate(8, 40, &GenParams::default());
        let (idx, member) = s
            .intervals
            .iter()
            .enumerate()
            .find_map(|(i, iv)| iv.leaves.first().map(|&m| (i, m)))
            .expect("some interval has a leave");
        s.intervals[idx].leaves.push(member);
        assert_eq!(
            s.validate(),
            Err(ScenarioError::LeaveOfDeparted {
                interval: idx,
                member
            })
        );
        // sanitize() repairs the same edit back to the original.
        let mut repaired = s.clone();
        repaired.sanitize();
        repaired.validate().expect("sanitize repairs the edit");
    }

    #[test]
    fn validate_rejects_leave_of_unknown_and_same_interval_joiner() {
        let mut s = Scenario::generate(8, 10, &GenParams::default());
        s.intervals[2].leaves.insert(0, 9_999_999);
        assert_eq!(
            s.validate(),
            Err(ScenarioError::LeaveOfUnknown {
                interval: 2,
                member: 9_999_999
            })
        );

        // A leave of a member that only joins in the same interval is
        // equally invalid: managers apply leaves first.
        let mut s = Scenario::generate(8, 10, &GenParams::default());
        let (idx, joiner) = s
            .intervals
            .iter()
            .enumerate()
            .skip(1)
            .find_map(|(i, iv)| iv.joins.first().map(|j| (i, j.member)))
            .expect("some churn interval has a join");
        s.intervals[idx].leaves.push(joiner);
        assert_eq!(
            s.validate(),
            Err(ScenarioError::LeaveOfUnknown {
                interval: idx,
                member: joiner
            })
        );
    }

    #[test]
    fn validate_rejects_duplicate_join_and_absent_loss_change() {
        let mut s = Scenario::generate(8, 10, &GenParams::default());
        let dup = s.intervals[0].joins[0].clone();
        s.intervals[4].joins.push(dup.clone());
        assert_eq!(
            s.validate(),
            Err(ScenarioError::DuplicateJoin {
                interval: 4,
                member: dup.member
            })
        );

        let mut s = Scenario::generate(8, 10, &GenParams::default());
        s.intervals[5].loss_changes.push((8_888_888, 0.5));
        assert_eq!(
            s.validate(),
            Err(ScenarioError::LossChangeOfAbsent {
                interval: 5,
                member: 8_888_888
            })
        );
    }

    #[test]
    fn sanitize_cascades_join_removal() {
        let mut s = Scenario::generate(5, 40, &GenParams::default());
        // Remove every join of the bootstrap interval: all later ops
        // touching those members must be dropped.
        let dropped: Vec<u64> = s.intervals[0].joins.iter().map(|j| j.member).collect();
        s.intervals[0].joins.clear();
        s.sanitize();
        for iv in &s.intervals {
            assert!(!iv.leaves.iter().any(|m| dropped.contains(m)));
            assert!(!iv.loss_changes.iter().any(|(m, _)| dropped.contains(m)));
        }
    }
}
