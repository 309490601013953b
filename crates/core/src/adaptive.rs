//! Adaptive scheme selection (§3.4).
//!
//! "At the beginning of a session, the key server just maintains one
//! key tree; later, from its collected trace data it can compute the
//! group statistics such as Ms, Ml, and α. Then using our analytic
//! model, the key server can choose the best scheme to use. And this
//! process can be repeated periodically."
//!
//! [`TraceCollector`] accumulates observed membership durations,
//! [`TraceCollector::estimate`] fits the two-class exponential mixture
//! with a 1-D two-means split on log-durations (exponential-MLE means
//! per cluster), and [`recommend`] evaluates
//! [`rekey_analytic::partition`] over a grid of S-periods to pick the
//! cheapest scheme.

use crate::one_tree::OneTreeManager;
use crate::partition::{QtManager, TtManager};
use crate::{GroupKeyManager, IntervalOutcome, Join, JoinHint};
use rand::RngCore;
use rekey_analytic::partition::PartitionParams;
use rekey_crypto::Key;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};
use std::collections::{BTreeMap, HashMap};

/// Fitted two-class exponential mixture (the model of §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureEstimate {
    /// Estimated short-class mean duration `M̂s` (seconds).
    pub mean_short: f64,
    /// Estimated long-class mean duration `M̂l` (seconds).
    pub mean_long: f64,
    /// Estimated fraction of short-lived joins `α̂`.
    pub alpha: f64,
    /// Completed durations the estimate is based on.
    pub samples: usize,
}

/// Collects join/leave timestamps and fits the duration mixture.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    active: HashMap<MemberId, f64>,
    durations: Vec<f64>,
    capacity: usize,
}

impl TraceCollector {
    /// A collector retaining up to `capacity` completed durations
    /// (older samples are evicted FIFO so the estimate tracks the
    /// session).
    pub fn new(capacity: usize) -> Self {
        TraceCollector {
            active: HashMap::new(),
            durations: Vec::new(),
            capacity: capacity.max(4),
        }
    }

    /// Records a join at time `t` (seconds).
    pub fn record_join(&mut self, member: MemberId, t: f64) {
        self.active.insert(member, t);
    }

    /// Records a departure at time `t`; ignored if the join was never
    /// seen.
    pub fn record_leave(&mut self, member: MemberId, t: f64) {
        if let Some(joined) = self.active.remove(&member) {
            let d = (t - joined).max(1e-6);
            if self.durations.len() == self.capacity {
                self.durations.remove(0);
            }
            self.durations.push(d);
        }
    }

    /// Completed-duration sample count.
    pub fn sample_count(&self) -> usize {
        self.durations.len()
    }

    /// Fits the two-class mixture. Returns `None` with fewer than 8
    /// samples or when the durations show no bimodality (ratio of
    /// cluster means below 2), in which case a single class describes
    /// the group and the one-keytree scheme is appropriate.
    pub fn estimate(&self) -> Option<MixtureEstimate> {
        if self.durations.len() < 8 {
            return None;
        }
        let logs: Vec<f64> = self.durations.iter().map(|d| d.ln()).collect();
        let (min, max) = logs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        if max - min < 1e-9 {
            return None;
        }
        // Two-means in 1-D on log-durations.
        let mut c0 = min;
        let mut c1 = max;
        for _ in 0..32 {
            let (mut s0, mut n0, mut s1, mut n1) = (0.0, 0usize, 0.0, 0usize);
            for &x in &logs {
                if (x - c0).abs() <= (x - c1).abs() {
                    s0 += x;
                    n0 += 1;
                } else {
                    s1 += x;
                    n1 += 1;
                }
            }
            if n0 == 0 || n1 == 0 {
                return None;
            }
            let (new0, new1) = (s0 / n0 as f64, s1 / n1 as f64);
            if (new0 - c0).abs() + (new1 - c1).abs() < 1e-12 {
                break;
            }
            c0 = new0;
            c1 = new1;
        }
        let threshold = (c0 + c1) / 2.0;
        let (mut short, mut long): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        for (&d, &x) in self.durations.iter().zip(&logs) {
            if x <= threshold {
                short.push(d);
            } else {
                long.push(d);
            }
        }
        if short.is_empty() || long.is_empty() {
            return None;
        }
        let mean_short = short.iter().sum::<f64>() / short.len() as f64;
        let mean_long = long.iter().sum::<f64>() / long.len() as f64;
        if mean_long / mean_short < 2.0 {
            return None;
        }
        Some(MixtureEstimate {
            mean_short,
            mean_long,
            alpha: short.len() as f64 / self.durations.len() as f64,
            samples: self.durations.len(),
        })
    }
}

/// The scheme a server should run, per the analytic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeChoice {
    /// Stay with the unoptimized single tree.
    OneKeytree,
    /// TT-scheme with the given S-period (in rekey intervals).
    Tt {
        /// `K = Ts / Tp`.
        k: u32,
    },
    /// QT-scheme with the given S-period (in rekey intervals).
    Qt {
        /// `K = Ts / Tp`.
        k: u32,
    },
}

/// A recommendation with its predicted per-interval cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The chosen scheme.
    pub scheme: SchemeChoice,
    /// Predicted encrypted keys per rekey interval.
    pub predicted_cost: f64,
    /// Predicted cost of staying with one keytree.
    pub one_keytree_cost: f64,
}

/// Evaluates the §3.3.1 model over `k = 1..=max_k` for both
/// constructions and picks the cheapest scheme (falling back to the
/// one-keytree scheme when partitioning does not pay off, or when no
/// mixture estimate is available).
pub fn recommend(
    group_size: u64,
    degree: u32,
    rekey_period: f64,
    estimate: Option<MixtureEstimate>,
    max_k: u32,
) -> Recommendation {
    let base = PartitionParams {
        group_size,
        degree,
        rekey_period,
        k: 0,
        mean_short: 1.0,
        mean_long: 1.0,
        alpha: 0.0,
    };
    let Some(est) = estimate else {
        // No estimate: stay with one tree. Use a degenerate mixture to
        // compute the baseline cost.
        let p = PartitionParams {
            mean_short: rekey_period * 10.0,
            mean_long: rekey_period * 10.0,
            alpha: 0.0,
            ..base
        };
        let cost = p.cost_one_keytree();
        return Recommendation {
            scheme: SchemeChoice::OneKeytree,
            predicted_cost: cost,
            one_keytree_cost: cost,
        };
    };

    let with_k = |k: u32| PartitionParams {
        k,
        mean_short: est.mean_short,
        mean_long: est.mean_long,
        alpha: est.alpha,
        ..base
    };
    let one_cost = with_k(0).cost_one_keytree();
    let mut best = Recommendation {
        scheme: SchemeChoice::OneKeytree,
        predicted_cost: one_cost,
        one_keytree_cost: one_cost,
    };
    for k in 1..=max_k {
        let p = with_k(k);
        let tt = p.cost_tt();
        if tt < best.predicted_cost {
            best.scheme = SchemeChoice::Tt { k };
            best.predicted_cost = tt;
        }
        let qt = p.cost_qt();
        if qt < best.predicted_cost {
            best.scheme = SchemeChoice::Qt { k };
            best.predicted_cost = qt;
        }
    }
    best
}

// ---------------------------------------------------------------------
// The adaptive manager: §3.4 as a running scheme
// ---------------------------------------------------------------------

/// Namespace base of the first adaptive generation; each rebuild
/// advances by [`NS_GEN_STRIDE`] so node ids never collide with keys
/// receivers learned under an earlier generation. The base sits far
/// above the namespaces any concrete scheme uses on its own.
const NS_GEN_BASE: u32 = 64;

/// Namespaces consumed per generation (DEK + up to two partitions,
/// rounded up for headroom).
const NS_GEN_STRIDE: u32 = 4;

/// The deployment loop of §3.4 as a [`GroupKeyManager`]: start with
/// one key tree, collect the membership-duration trace, periodically
/// re-fit the mixture and re-evaluate the analytic model, and switch
/// to the recommended scheme when it changes.
///
/// A switch rebuilds the inner manager in a fresh node-id namespace
/// and re-admits every present member in that interval's batch, so
/// the rekey message carries one individually-addressed entry per
/// member — receivers cross generations with no extra protocol:
/// re-join entries are wrapped under individual keys exactly like
/// first-time joins. Reported [`crate::IntervalStats`] keep the
/// *caller's* join/leave counts; re-admissions surface as migrations.
///
/// [`GroupKeyManager::dek_node`] is stable *between* switches only.
pub struct AdaptiveManager {
    inner: Box<dyn GroupKeyManager>,
    choice: SchemeChoice,
    degree: usize,
    rekey_period: f64,
    reassess_every: u64,
    max_k: u32,
    collector: TraceCollector,
    registry: BTreeMap<MemberId, (Key, JoinHint)>,
    intervals: u64,
    generation: u32,
}

impl AdaptiveManager {
    /// Creates an adaptive manager with tree degree `degree` that
    /// re-evaluates the model every `reassess_every` intervals of
    /// `rekey_period` seconds, considering S-periods up to `max_k`.
    /// The session starts on the one-keytree scheme, as the paper
    /// prescribes.
    pub fn new(degree: usize, rekey_period: f64, reassess_every: u64, max_k: u32) -> Self {
        AdaptiveManager {
            inner: Box::new(OneTreeManager::with_namespace(degree, NS_GEN_BASE)),
            choice: SchemeChoice::OneKeytree,
            degree,
            rekey_period,
            reassess_every: reassess_every.max(1),
            max_k,
            collector: TraceCollector::new(4096),
            registry: BTreeMap::new(),
            intervals: 0,
            generation: 0,
        }
    }

    /// Paper-default parameters: 60 s rekey interval, reassessment
    /// every 8 intervals, S-periods up to `K = 20`.
    pub fn paper_default(degree: usize) -> Self {
        Self::new(degree, 60.0, 8, 20)
    }

    /// The scheme currently running underneath.
    pub fn current_choice(&self) -> SchemeChoice {
        self.choice
    }

    /// Number of scheme switches performed so far.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Builds a fresh manager for `choice` in the next generation's
    /// namespace block.
    fn build(&self, choice: SchemeChoice, generation: u32) -> Box<dyn GroupKeyManager> {
        let base = NS_GEN_BASE + generation * NS_GEN_STRIDE;
        match choice {
            SchemeChoice::OneKeytree => Box::new(OneTreeManager::with_namespace(self.degree, base)),
            SchemeChoice::Tt { k } => {
                Box::new(TtManager::with_namespace_base(self.degree, k as u64, base))
            }
            SchemeChoice::Qt { k } => {
                Box::new(QtManager::with_namespace_base(self.degree, k as u64, base))
            }
        }
    }
}

impl GroupKeyManager for AdaptiveManager {
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError> {
        // Validate against the registry up front so the batch is
        // rejected before any state (inner, collector, registry)
        // mutates — the same all-or-nothing contract the engine gives.
        for &m in leaves {
            if !self.registry.contains_key(&m) {
                return Err(KeyTreeError::UnknownMember(m));
            }
        }
        for j in joins {
            if self.registry.contains_key(&j.member) {
                return Err(KeyTreeError::DuplicateMember(j.member));
            }
        }

        // Periodic reassessment (§3.4): re-fit the mixture, re-run the
        // model, switch when the recommendation changes.
        let switch = if self.intervals > 0 && self.intervals.is_multiple_of(self.reassess_every) {
            let rec = recommend(
                self.registry.len() as u64,
                self.degree as u32,
                self.rekey_period,
                self.collector.estimate(),
                self.max_k,
            );
            (rec.scheme != self.choice).then_some(rec.scheme)
        } else {
            None
        };

        let mut outcome = if let Some(choice) = switch {
            // Rebuild: every surviving member re-joins the fresh
            // manager (individually-keyed entries), this interval's
            // joiners ride in the same batch, leavers simply never
            // enter the new generation.
            let generation = self.generation + 1;
            let mut fresh = self.build(choice, generation);
            let mut batch: Vec<Join> = self
                .registry
                .iter()
                .filter(|(m, _)| !leaves.contains(m))
                .map(|(&m, (key, hint))| Join {
                    member: m,
                    individual_key: key.clone(),
                    hint: hint.clone(),
                })
                .collect();
            let migrations = batch.len();
            batch.extend(joins.iter().cloned());
            let mut outcome = fresh.process_interval(&batch, &[], rng)?;
            self.inner = fresh;
            self.choice = choice;
            self.generation = generation;
            outcome.stats.migrations = migrations;
            outcome
        } else {
            self.inner.process_interval(joins, leaves, rng)?
        };
        outcome.stats.joins = joins.len();
        outcome.stats.leaves = leaves.len();

        // Bookkeeping after the interval succeeded.
        let t = self.intervals as f64 * self.rekey_period;
        for &m in leaves {
            self.registry.remove(&m);
            self.collector.record_leave(m, t);
        }
        for j in joins {
            self.registry
                .insert(j.member, (j.individual_key.clone(), j.hint.clone()));
            self.collector.record_join(j.member, t);
        }
        self.intervals += 1;
        Ok(outcome)
    }

    fn dek_node(&self) -> NodeId {
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

    fn members_under(&self, node: NodeId) -> Vec<MemberId> {
        self.inner.members_under(node)
    }

    fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        self.inner.members_under_into(node, out);
    }

    fn scheme_name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
        -mean * (1.0 - rng.gen::<f64>()).ln()
    }

    fn collect_mixture(alpha: f64, ms: f64, ml: f64, n: usize, seed: u64) -> TraceCollector {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tc = TraceCollector::new(n);
        for i in 0..n as u64 {
            let mean = if rng.gen::<f64>() < alpha { ms } else { ml };
            let d = exponential(&mut rng, mean);
            tc.record_join(MemberId(i), 0.0);
            tc.record_leave(MemberId(i), d);
        }
        tc
    }

    #[test]
    fn estimates_recover_mixture() {
        let tc = collect_mixture(0.8, 180.0, 10_800.0, 4000, 1);
        let est = tc.estimate().expect("estimate available");
        assert!(
            (est.alpha - 0.8).abs() < 0.1,
            "alpha estimate {} off",
            est.alpha
        );
        assert!(
            est.mean_short < 600.0,
            "short mean {} too large",
            est.mean_short
        );
        assert!(
            est.mean_long > 4000.0,
            "long mean {} too small",
            est.mean_long
        );
    }

    #[test]
    fn homogeneous_group_yields_no_mixture() {
        let tc = collect_mixture(0.0, 180.0, 10_800.0, 1000, 2);
        // All durations from one exponential: cluster means stay
        // within a factor ~2 or a cluster degenerates.
        // (Exponential spread can occasionally split; accept either
        //  None or a weak mixture close to one class.)
        if let Some(est) = tc.estimate() {
            assert!(
                est.alpha < 0.95,
                "degenerate split claimed alpha {}",
                est.alpha
            );
        }
    }

    #[test]
    fn too_few_samples_yields_none() {
        let tc = collect_mixture(0.8, 180.0, 10_800.0, 5, 3);
        assert!(tc.estimate().is_none());
    }

    #[test]
    fn recommends_partitioning_for_dynamic_groups() {
        let est = MixtureEstimate {
            mean_short: 180.0,
            mean_long: 10_800.0,
            alpha: 0.8,
            samples: 1000,
        };
        let rec = recommend(65536, 4, 60.0, Some(est), 20);
        assert!(matches!(
            rec.scheme,
            SchemeChoice::Tt { .. } | SchemeChoice::Qt { .. }
        ));
        assert!(rec.predicted_cost < rec.one_keytree_cost * 0.85);
    }

    #[test]
    fn recommends_one_tree_for_stable_groups() {
        let est = MixtureEstimate {
            mean_short: 180.0,
            mean_long: 10_800.0,
            alpha: 0.1,
            samples: 1000,
        };
        let rec = recommend(65536, 4, 60.0, Some(est), 20);
        assert_eq!(rec.scheme, SchemeChoice::OneKeytree);
    }

    #[test]
    fn no_estimate_keeps_one_tree() {
        let rec = recommend(1024, 4, 60.0, None, 20);
        assert_eq!(rec.scheme, SchemeChoice::OneKeytree);
        assert_eq!(rec.predicted_cost, rec.one_keytree_cost);
    }

    #[test]
    fn collector_evicts_old_samples() {
        let mut tc = TraceCollector::new(8);
        for i in 0..20u64 {
            tc.record_join(MemberId(i), 0.0);
            tc.record_leave(MemberId(i), 1.0 + i as f64);
        }
        assert_eq!(tc.sample_count(), 8);
    }

    use rekey_keytree::member::GroupMember;
    use std::collections::BTreeMap as Map;

    /// Drives an [`AdaptiveManager`] with full receiver states across
    /// a scheme switch: members must stay DEK-synchronized through the
    /// rebuild, and reported stats must keep the caller's counts.
    #[test]
    fn switch_preserves_member_sync() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut mgr = AdaptiveManager::new(4, 60.0, 1, 20);
        // Pretend a long, clearly bimodal duration trace was already
        // observed, so the first reassessment recommends partitioning.
        for i in 0..1000u64 {
            let m = MemberId(1_000_000 + i);
            mgr.collector.record_join(m, 0.0);
            let d = if i.is_multiple_of(5) { 10_800.0 } else { 180.0 };
            mgr.collector.record_leave(m, d);
        }
        assert!(mgr.collector.estimate().is_some(), "trace must be bimodal");

        let mut states: Map<MemberId, GroupMember> = Map::new();
        let joins: Vec<Join> = (0..300u64)
            .map(|i| {
                let ik = Key::generate(&mut rng);
                states.insert(MemberId(i), GroupMember::new(MemberId(i), ik.clone()));
                Join::new(MemberId(i), ik)
            })
            .collect();
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        for s in states.values_mut() {
            let _ = s.process(&out.message);
        }

        let mut next_id = 300u64;
        let mut departed: Vec<MemberId> = Vec::new();
        for step in 0..4 {
            let joins: Vec<Join> = (0..3)
                .map(|_| {
                    let m = MemberId(next_id);
                    next_id += 1;
                    let ik = Key::generate(&mut rng);
                    states.insert(m, GroupMember::new(m, ik.clone()));
                    Join::new(m, ik)
                })
                .collect();
            let leaves = vec![MemberId(step * 7), MemberId(step * 7 + 1)];
            let out = mgr.process_interval(&joins, &leaves, &mut rng).unwrap();
            assert_eq!(out.stats.joins, 3);
            assert_eq!(out.stats.leaves, 2);
            departed.extend(&leaves);
            for s in states.values_mut() {
                let _ = s.process(&out.message);
            }
            for (id, s) in &states {
                if departed.contains(id) {
                    assert_ne!(
                        s.key_for(mgr.dek_node()),
                        Some(mgr.dek()),
                        "departed {id} holds the DEK after step {step}"
                    );
                } else {
                    assert_eq!(
                        s.key_for(mgr.dek_node()),
                        Some(mgr.dek()),
                        "member {id} lost the DEK after step {step}"
                    );
                }
            }
        }
        assert!(
            mgr.generation() >= 1,
            "bimodal trace never triggered a switch (still {:?})",
            mgr.current_choice()
        );
        assert_ne!(mgr.current_choice(), SchemeChoice::OneKeytree);
    }

    #[test]
    fn adaptive_rejects_inconsistent_batches() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mgr = AdaptiveManager::paper_default(4);
        let err = mgr
            .process_interval(&[], &[MemberId(9)], &mut rng)
            .unwrap_err();
        assert_eq!(err, KeyTreeError::UnknownMember(MemberId(9)));

        let ik = Key::generate(&mut rng);
        mgr.process_interval(&[Join::new(MemberId(1), ik.clone())], &[], &mut rng)
            .unwrap();
        let err = mgr
            .process_interval(&[Join::new(MemberId(1), ik)], &[], &mut rng)
            .unwrap_err();
        assert_eq!(err, KeyTreeError::DuplicateMember(MemberId(1)));
        // The failed batches left no trace: the member is still there.
        assert!(mgr.contains(MemberId(1)));
        assert_eq!(mgr.member_count(), 1);
    }
}
