//! The combined scheme the paper sketches in §4.2: two-partition
//! rekeying *and* loss-homogenized organization together.
//!
//! "The two-partition scheme we proposed in Section 3 can help solve
//! this issue because a long-duration member can estimate its loss
//! rate in the time period when it stays in the S-partition."
//!
//! [`CombinedManager`] keeps a tree S-partition for fresh joiners and
//! *one L-tree per loss class*. While a member sits in the
//! S-partition, the transport layer's NACK feedback accumulates in a
//! [`LossEstimator`]; when the member survives the S-period it
//! migrates into the L-tree matching its estimated loss rate. Members
//! that depart early never cost a placement decision at all, and the
//! L-trees stay loss-homogeneous, so both of the paper's savings
//! compose.

use crate::engine::{Migration, Placement, PlacementPolicy, RekeyEngine, Trees};
use crate::loss_forest::{check_boundaries, class_of_loss, LossEstimator};
use crate::partition::SPeriod;
use crate::Join;
use rekey_keytree::message::codec::{DecodeError, Reader};
use rekey_keytree::server::LkhServer;
use rekey_keytree::{KeyTreeError, MemberId};
use std::collections::BTreeMap;

const NS_DEK: u32 = 1;
const NS_S: u32 = 2;
const NS_L0: u32 = 16;

/// Tree index of the S-partition; L-class `c` is tree `1 + c`.
const S: usize = 0;

/// Placement for the combined scheme: joiners enter the S-tree,
/// S-period survivors migrate into the L-tree of their estimated loss
/// class.
#[derive(Debug, Clone)]
pub struct CombinedPolicy {
    boundaries: Vec<f64>,
    s_period: SPeriod,
    /// Loss hints provided at join time (fallback when no feedback has
    /// accumulated yet).
    join_hints: BTreeMap<MemberId, f64>,
    estimator: LossEstimator,
    min_samples: u64,
}

impl CombinedPolicy {
    fn class_for(&self, member: MemberId) -> usize {
        let loss = self
            .estimator
            .estimate(member, self.min_samples)
            .or_else(|| self.join_hints.get(&member).copied())
            .unwrap_or(0.0);
        class_of_loss(&self.boundaries, loss)
    }
}

impl PlacementPolicy for CombinedPolicy {
    fn scheme_name(&self) -> &'static str {
        "combined-partition-forest"
    }

    fn record_leave(
        &mut self,
        member: MemberId,
        at: Placement,
        _epoch: u64,
    ) -> Result<(), KeyTreeError> {
        if at == Placement::Tree(S) {
            self.s_period.forget(member);
        }
        self.join_hints.remove(&member);
        Ok(())
    }

    fn plan_migrations(&mut self, epoch: u64, _trees: &Trees) -> Vec<Migration> {
        // S-period survivors, placed by estimated loss.
        self.s_period
            .take_survivors(epoch)
            .into_iter()
            .map(|(member, individual_key)| Migration {
                member,
                individual_key,
                from: Some(S),
                to: 1 + self.class_for(member),
            })
            .collect()
    }

    fn route_join(&self, _join: &Join, _trees: &Trees) -> Placement {
        Placement::Tree(S)
    }

    fn record_joins(&mut self, joins: &[Join], epoch: u64) -> Result<(), KeyTreeError> {
        self.s_period.admit(joins, epoch);
        for j in joins {
            if let Some(loss) = j.hint.loss_rate {
                self.join_hints.insert(j.member, loss);
            }
        }
        Ok(())
    }

    fn save_policy_state(&self, buf: &mut Vec<u8>) {
        use rekey_keytree::message::codec::{put_u32, put_u64};
        self.s_period.encode(buf);
        // Join-time loss hints (f64 bit patterns, big-endian).
        put_u32(buf, self.join_hints.len() as u32);
        for (&member, &loss) in &self.join_hints {
            put_u64(buf, member.0);
            put_u64(buf, loss.to_bits());
        }
        self.estimator.save_into(buf);
        // Boundaries, k, and min_samples are configuration.
    }

    fn load_policy_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.s_period.decode(r)?;
        self.join_hints.clear();
        for _ in 0..r.u32()? {
            let member = MemberId(r.u64()?);
            self.join_hints.insert(member, f64::from_bits(r.u64()?));
        }
        self.estimator = LossEstimator::load_from(r)?;
        Ok(())
    }
}

/// Two-partition + loss-homogenized group key manager (§3 + §4).
pub type CombinedManager = RekeyEngine<CombinedPolicy>;

impl CombinedManager {
    /// Creates the manager: `degree`-ary trees, S-period `k`
    /// intervals, L-trees split at the loss `boundaries` (see
    /// [`crate::loss_forest::LossForestManager::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `degree < 2` or `boundaries` is not strictly
    /// increasing within `(0, 1)`.
    pub fn new(degree: usize, k: u64, boundaries: &[f64]) -> Self {
        check_boundaries(boundaries);
        let l_names: Vec<String> = (0..=boundaries.len()).map(|i| format!("l{i}")).collect();
        let mut trees = vec![("s", LkhServer::new(degree, NS_S))];
        trees.extend(
            l_names
                .iter()
                .map(String::as_str)
                .zip((0..=boundaries.len()).map(|i| LkhServer::new(degree, NS_L0 + i as u32))),
        );
        RekeyEngine::with_trees(
            CombinedPolicy {
                boundaries: boundaries.to_vec(),
                s_period: SPeriod::new(k),
                join_hints: BTreeMap::new(),
                estimator: LossEstimator::new(),
                min_samples: 20,
            },
            trees,
            Some(NS_DEK),
        )
    }

    /// The paper's default shape: two L-trees split at 5% loss.
    pub fn two_loss_classes(degree: usize, k: u64) -> Self {
        Self::new(degree, k, &[0.05])
    }

    /// Feeds transport-layer loss feedback (e.g. from
    /// `rekey_transport::wka_bkr::WkaBkrOutcome::lost_packets`): the
    /// member observed `lost` of `seen` packets missing.
    pub fn record_feedback(&mut self, member: MemberId, lost: u64, seen: u64) {
        self.policy_mut().estimator.record(member, lost, seen);
    }

    /// The loss class a member would be placed into right now.
    pub fn class_for(&self, member: MemberId) -> usize {
        self.policy().class_for(member)
    }

    /// Current S-partition population.
    pub fn s_count(&self) -> usize {
        self.tree(S).member_count()
    }

    /// Population of L-class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn l_class_size(&self, class: usize) -> usize {
        self.tree(1 + class).member_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupKeyManager;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_crypto::Key;
    use rekey_keytree::member::GroupMember;

    fn joins(ids: std::ops::Range<u64>, rng: &mut StdRng) -> (Vec<Join>, Vec<GroupMember>) {
        let mut js = Vec::new();
        let mut states = Vec::new();
        for i in ids {
            let ik = Key::generate(rng);
            states.push(GroupMember::new(MemberId(i), ik.clone()));
            js.push(Join::new(MemberId(i), ik));
        }
        (js, states)
    }

    #[test]
    fn migration_places_by_estimated_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mgr = CombinedManager::two_loss_classes(4, 2);
        let (js, _) = joins(0..6, &mut rng);
        mgr.process_interval(&js, &[], &mut rng).unwrap();

        // Transport feedback while in the S-partition: members 0..3
        // lossy, members 3..6 clean.
        for i in 0..3u64 {
            mgr.record_feedback(MemberId(i), 20, 100);
        }
        for i in 3..6u64 {
            mgr.record_feedback(MemberId(i), 1, 100);
        }

        // Advance past the S-period so everyone migrates.
        mgr.process_interval(&[], &[], &mut rng).unwrap();
        let out = mgr.process_interval(&[], &[], &mut rng).unwrap();
        assert_eq!(out.stats.migrations, 6);
        assert_eq!(mgr.s_count(), 0);
        assert_eq!(mgr.l_class_size(0), 3, "clean members in the low tree");
        assert_eq!(mgr.l_class_size(1), 3, "lossy members in the high tree");
    }

    #[test]
    fn join_hint_is_fallback_without_feedback() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mgr = CombinedManager::two_loss_classes(4, 1);
        let ik0 = Key::generate(&mut rng);
        let ik1 = Key::generate(&mut rng);
        let js = vec![
            Join::new(MemberId(0), ik0).with_loss_rate(0.3),
            Join::new(MemberId(1), ik1),
        ];
        mgr.process_interval(&js, &[], &mut rng).unwrap();
        mgr.process_interval(&[], &[], &mut rng).unwrap();
        assert_eq!(mgr.l_class_size(1), 1, "hinted member in high tree");
        assert_eq!(mgr.l_class_size(0), 1, "unhinted member defaults low");
    }

    #[test]
    fn feedback_overrides_join_hint() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mgr = CombinedManager::two_loss_classes(4, 1);
        let ik = Key::generate(&mut rng);
        // Claimed clean at join, observed lossy in the S-partition.
        let js = vec![Join::new(MemberId(0), ik).with_loss_rate(0.01)];
        mgr.process_interval(&js, &[], &mut rng).unwrap();
        mgr.record_feedback(MemberId(0), 30, 100);
        mgr.process_interval(&[], &[], &mut rng).unwrap();
        assert_eq!(mgr.l_class_size(1), 1);
    }

    #[test]
    fn unknown_leaver_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mgr = CombinedManager::two_loss_classes(4, 2);
        assert!(matches!(
            mgr.process_interval(&[], &[MemberId(7)], &mut rng),
            Err(KeyTreeError::UnknownMember(_))
        ));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_boundaries_rejected() {
        CombinedManager::new(4, 2, &[0.5, 0.1]);
    }
}
