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
//! cheapest scheme. [`AdaptivePolicy`] runs that loop inside the shared
//! engine: the recommendation decides where the next joiners are
//! placed, and nobody already placed is moved by it.

use crate::engine::{
    dek_under_roots, DekCtx, IntervalCtx, Migration, Placement, PlacementPolicy, RekeyEngine, Trees,
};
use crate::partition::{
    load_queue, queue_dek_entries, queue_members_under, queue_survivors, SPeriod,
};
use crate::Join;
use rekey_analytic::partition::PartitionParams;
use rekey_keytree::message::codec::{get_u32, get_u64, get_u8, put_u32, put_u64};
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::queue::KeyQueue;
use rekey_keytree::server::LkhServer;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};
use std::collections::BTreeMap;

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
    active: BTreeMap<MemberId, f64>,
    durations: Vec<f64>,
    capacity: usize,
}

impl TraceCollector {
    /// A collector retaining up to `capacity` completed durations
    /// (older samples are evicted FIFO so the estimate tracks the
    /// session).
    pub fn new(capacity: usize) -> Self {
        TraceCollector {
            active: BTreeMap::new(),
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

    /// Serializes the open joins (member order) and the completed
    /// durations (arrival order), times as `f64` bit patterns. The
    /// capacity is configuration.
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.active.len() as u32);
        for (&member, &joined) in &self.active {
            put_u64(buf, member.0);
            put_u64(buf, joined.to_bits());
        }
        put_u32(buf, self.durations.len() as u32);
        for &d in &self.durations {
            put_u64(buf, d.to_bits());
        }
    }

    /// Replaces the trace with the one [`TraceCollector::encode`]
    /// wrote.
    fn decode(&mut self, buf: &mut &[u8]) -> Option<()> {
        self.active.clear();
        for _ in 0..get_u32(buf)? {
            let member = MemberId(get_u64(buf)?);
            self.active.insert(member, f64::from_bits(get_u64(buf)?));
        }
        self.durations.clear();
        for _ in 0..get_u32(buf)? {
            self.durations.push(f64::from_bits(get_u64(buf)?));
        }
        Some(())
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
// The adaptive policy: §3.4 as a running scheme
// ---------------------------------------------------------------------

const NS_DEK: u32 = 1;
const NS_S: u32 = 2;
const NS_L: u32 = 3;
const NS_QUEUE: u32 = 4;

/// Tree index of the S-tree.
const S: usize = 0;
/// Tree index of the L-tree.
const L: usize = 1;

/// Placement for the deployment loop of §3.4: collect the
/// membership-duration trace, periodically re-fit the mixture and
/// re-evaluate the analytic model, and place the next joiners where
/// the recommended scheme would — straight into the L-tree
/// (one-keytree), into the S-tree (TT) or into the key queue (QT).
///
/// A switch moves nobody: members already in the S-tree or the queue
/// stay there until their S-period ends, counted with the most recently
/// recommended `K`. In one-keytree mode the group is the L-tree under
/// the DEK, one DEK entry per interval more than
/// [`crate::one_tree::OneTreeManager`], whose root *is* the group key.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    choice: SchemeChoice,
    /// S-tree members; its `k` also ages the queue.
    s_period: SPeriod,
    queue: KeyQueue,
    collector: TraceCollector,
    degree: u32,
    rekey_period: f64,
    reassess_every: u64,
    max_k: u32,
}

impl AdaptivePolicy {
    /// Wall-clock time of `epoch` on the collector's axis (seconds).
    fn time_of(&self, epoch: u64) -> f64 {
        epoch as f64 * self.rekey_period
    }
}

impl PlacementPolicy for AdaptivePolicy {
    fn scheme_name(&self) -> &'static str {
        "adaptive"
    }

    fn route_leave(
        &mut self,
        member: MemberId,
        epoch: u64,
        trees: &Trees,
    ) -> Result<Placement, KeyTreeError> {
        let placement = if self.queue.contains(member) {
            self.queue.remove(member)?;
            Placement::Internal
        } else if trees.server(S).contains(member) {
            self.s_period.forget(member);
            Placement::Tree(S)
        } else if trees.server(L).contains(member) {
            Placement::Tree(L)
        } else {
            return Err(KeyTreeError::UnknownMember(member));
        };
        self.collector.record_leave(member, self.time_of(epoch));
        Ok(placement)
    }

    fn plan_migrations(&mut self, epoch: u64, trees: &Trees) -> Vec<Migration> {
        // Periodic reassessment (§3.4): re-fit the mixture, re-run the
        // model, follow the recommendation from this batch on.
        let elapsed = epoch - 1;
        if elapsed > 0 && elapsed.is_multiple_of(self.reassess_every) {
            let members =
                self.queue.len() + trees.iter().map(LkhServer::member_count).sum::<usize>();
            self.choice = recommend(
                members as u64,
                self.degree,
                self.rekey_period,
                self.collector.estimate(),
                self.max_k,
            )
            .scheme;
            if let SchemeChoice::Tt { k } | SchemeChoice::Qt { k } = self.choice {
                self.s_period.set_k(u64::from(k));
            }
        }
        let mut migrations = self.s_period.migrate_survivors(epoch, S, L);
        migrations.extend(queue_survivors(
            &mut self.queue,
            epoch,
            self.s_period.k(),
            L,
        ));
        migrations
    }

    fn route_join(&self, _join: &Join, _trees: &Trees) -> Placement {
        match self.choice {
            SchemeChoice::OneKeytree => Placement::Tree(L),
            SchemeChoice::Tt { .. } => Placement::Tree(S),
            SchemeChoice::Qt { .. } => Placement::Internal,
        }
    }

    fn record_joins(&mut self, joins: &[Join], epoch: u64) -> Result<(), KeyTreeError> {
        match self.choice {
            SchemeChoice::OneKeytree => {}
            SchemeChoice::Tt { .. } => self.s_period.admit(joins, epoch),
            SchemeChoice::Qt { .. } => {
                for j in joins {
                    self.queue.push(j.member, j.individual_key.clone(), epoch)?;
                }
            }
        }
        let t = self.time_of(epoch);
        for j in joins {
            self.collector.record_join(j.member, t);
        }
        Ok(())
    }

    fn dek_entries(
        &mut self,
        dek: &mut DekCtx,
        interval: &IntervalCtx,
        trees: &Trees,
        message: &mut RekeyMessage,
    ) {
        // QT's join-only shortcut spares the wraps for queued members;
        // with nobody queued the roots reach everyone in fewer entries.
        if self.queue.is_empty() {
            dek_under_roots(dek, trees, message);
        } else {
            queue_dek_entries(&self.queue, dek, interval, trees, message);
        }
    }

    fn internal_member_count(&self) -> usize {
        self.queue.len()
    }

    fn internal_contains(&self, member: MemberId) -> bool {
        self.queue.contains(member)
    }

    fn internal_members(&self, out: &mut Vec<MemberId>) {
        out.extend(self.queue.iter().map(|slot| slot.member));
    }

    fn internal_members_under(&self, node: NodeId) -> Option<Vec<MemberId>> {
        queue_members_under(&self.queue, node)
    }

    fn save_policy_state(&self, buf: &mut Vec<u8>) {
        let (mode, k) = match self.choice {
            SchemeChoice::OneKeytree => (0, 0),
            SchemeChoice::Tt { k } => (1, k),
            SchemeChoice::Qt { k } => (2, k),
        };
        buf.push(mode);
        put_u32(buf, k);
        put_u64(buf, self.s_period.k());
        self.s_period.encode(buf);
        self.queue.encode_into(buf);
        self.collector.encode(buf);
        // Degree, periods and `max_k` are configuration.
    }

    fn load_policy_state(&mut self, buf: &mut &[u8]) -> Option<()> {
        let mode = get_u8(buf)?;
        let k = get_u32(buf)?;
        self.choice = match mode {
            0 => SchemeChoice::OneKeytree,
            1 => SchemeChoice::Tt { k },
            2 => SchemeChoice::Qt { k },
            _ => return None,
        };
        self.s_period.set_k(get_u64(buf)?);
        self.s_period.decode(buf)?;
        load_queue(&mut self.queue, buf)?;
        self.collector.decode(buf)
    }
}

/// The §3.4 deployment loop as a [`crate::GroupKeyManager`]: an S-tree,
/// an L-tree and a key queue under one DEK, with [`AdaptivePolicy`]
/// choosing where joiners go.
pub type AdaptiveManager = RekeyEngine<AdaptivePolicy>;

impl AdaptiveManager {
    /// Creates an adaptive manager with tree degree `degree` that
    /// re-evaluates the model every `reassess_every` intervals of
    /// `rekey_period` seconds, considering S-periods up to `max_k`.
    /// The session starts on the one-keytree scheme, as the paper
    /// prescribes.
    pub fn new(degree: usize, rekey_period: f64, reassess_every: u64, max_k: u32) -> Self {
        RekeyEngine::with_trees(
            AdaptivePolicy {
                choice: SchemeChoice::OneKeytree,
                // Nobody serves an S-period before the first switch
                // sets its length.
                s_period: SPeriod::new(1),
                queue: KeyQueue::new(NS_QUEUE),
                collector: TraceCollector::new(4096),
                degree: degree as u32,
                rekey_period,
                reassess_every: reassess_every.max(1),
                max_k,
            },
            vec![
                ("s", LkhServer::new(degree, NS_S)),
                ("l", LkhServer::new(degree, NS_L)),
            ],
            Some(NS_DEK),
        )
    }

    /// Paper-default parameters: 60 s rekey interval, reassessment
    /// every 8 intervals, S-periods up to `K = 20`.
    pub fn paper_default(degree: usize) -> Self {
        Self::new(degree, 60.0, 8, 20)
    }

    /// The scheme the next joiners are placed by.
    pub fn current_choice(&self) -> SchemeChoice {
        self.policy().choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::exponential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    use crate::GroupKeyManager;
    use rekey_crypto::Key;
    use rekey_keytree::member::GroupMember;

    /// Drives an [`AdaptiveManager`] with full receiver states across
    /// a scheme switch: members must stay DEK-synchronized through it
    /// under an unchanged DEK node, and nobody is re-admitted.
    #[test]
    fn switch_preserves_member_sync() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut mgr = AdaptiveManager::new(4, 60.0, 1, 20);
        // Pretend a long, clearly bimodal duration trace was already
        // observed, so the first reassessment recommends partitioning.
        let collector = &mut mgr.policy_mut().collector;
        for i in 0..1000u64 {
            let m = MemberId(1_000_000 + i);
            collector.record_join(m, 0.0);
            let d = if i.is_multiple_of(5) { 10_800.0 } else { 180.0 };
            collector.record_leave(m, d);
        }
        assert!(collector.estimate().is_some(), "trace must be bimodal");
        let dek_node = mgr.dek_node();

        let mut states: BTreeMap<MemberId, GroupMember> = BTreeMap::new();
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
            assert!(
                out.stats.migrations <= 3 * step as usize,
                "a switch moves nobody: only S-period survivors migrate"
            );
            assert_eq!(mgr.dek_node(), dek_node);
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
        assert_ne!(
            mgr.current_choice(),
            SchemeChoice::OneKeytree,
            "bimodal trace never triggered a switch"
        );
    }
}
