//! The loss-homogenized key forest (§4).
//!
//! The key server maintains one key tree per loss class and places
//! each joining member into the tree matching its (reported or
//! estimated) packet-loss rate. Keys destined for low-loss receivers
//! then never share packets-worth of proactive replication with
//! high-loss receivers, cutting WKA-BKR bandwidth by up to 12.1% and
//! proactive-FEC bandwidth by up to 25.7% (§4.3–4.4).
//!
//! Members are *never* moved between trees after placement (§4.2:
//! the movement overhead would cancel the benefit); inaccurate
//! placement degrades gracefully (Fig. 7).
//!
//! [`LossEstimator`] implements the feedback loop of §4.2: members
//! piggyback their observed loss counts on NACKs, and the server uses
//! the estimate when the member next (re-)joins.

use crate::engine::{Placement, PlacementPolicy, RekeyEngine, Trees};
use crate::Join;
use rekey_keytree::message::codec::{DecodeError, Reader};
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use std::collections::BTreeMap;

const NS_DEK: u32 = 1;
const NS_TREE0: u32 = 16;

/// Validates loss-class boundaries: strictly increasing within (0, 1).
///
/// # Panics
///
/// Panics otherwise (shared by the forest and the combined scheme).
pub(crate) fn check_boundaries(boundaries: &[f64]) {
    let mut prev = 0.0;
    for &b in boundaries {
        assert!(
            b > prev && b < 1.0,
            "class boundaries must be strictly increasing in (0, 1)"
        );
        prev = b;
    }
}

/// Loss class for `loss_rate` given the class upper bounds (the last
/// class is unbounded).
pub(crate) fn class_of_loss(boundaries: &[f64], loss_rate: f64) -> usize {
    boundaries
        .iter()
        .position(|&b| loss_rate <= b)
        .unwrap_or(boundaries.len())
}

/// Placement for the forest: one tree per loss class, joiners routed
/// by their loss-rate hint, never moved afterwards.
#[derive(Debug, Clone)]
pub struct LossForestPolicy {
    /// Upper loss bound of each class; the last class is unbounded.
    boundaries: Vec<f64>,
}

impl PlacementPolicy for LossForestPolicy {
    fn scheme_name(&self) -> &'static str {
        "loss-homogenized-forest"
    }

    fn route_join(&self, join: &Join, _trees: &Trees) -> Placement {
        // Members with no estimate go to the lowest class (first-time
        // joiners per §4.2).
        Placement::Tree(class_of_loss(
            &self.boundaries,
            join.hint.loss_rate.unwrap_or(0.0),
        ))
    }
}

/// A key forest partitioned by member loss rate.
pub type LossForestManager = RekeyEngine<LossForestPolicy>;

impl LossForestManager {
    /// Creates a forest with one tree per loss class. `boundaries` are
    /// the upper loss bounds of all classes but the last — e.g.
    /// `&[0.05]` builds the paper's two trees ("low" ≤ 5%, "high"
    /// > 5%).
    ///
    /// # Panics
    ///
    /// Panics if `degree < 2` or `boundaries` is not strictly
    /// increasing within `[0, 1)`.
    pub fn new(degree: usize, boundaries: &[f64]) -> Self {
        check_boundaries(boundaries);
        let names: Vec<String> = (0..=boundaries.len()).map(|i| format!("loss{i}")).collect();
        let servers = (0..=boundaries.len()).map(|i| LkhServer::new(degree, NS_TREE0 + i as u32));
        RekeyEngine::with_trees(
            LossForestPolicy {
                boundaries: boundaries.to_vec(),
            },
            names.iter().map(String::as_str).zip(servers).collect(),
            Some(NS_DEK),
        )
    }

    /// The paper's default: two trees split at 5% loss.
    pub fn two_trees(degree: usize) -> Self {
        Self::new(degree, &[0.05])
    }

    /// Class index a member with the given loss rate belongs to.
    pub fn class_of(&self, loss_rate: f64) -> usize {
        class_of_loss(&self.policy().boundaries, loss_rate)
    }

    /// Number of loss classes (trees).
    pub fn class_count(&self) -> usize {
        self.tree_count()
    }

    /// Member count of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= class_count()`.
    pub fn class_size(&self, class: usize) -> usize {
        self.tree(class).member_count()
    }
}

/// Loss estimation from transport feedback (§4.2): members report the
/// number of packets they failed to receive, piggybacked on NACKs; the
/// server keeps a running estimate per member for use at (re-)join
/// time.
#[derive(Debug, Clone, Default)]
pub struct LossEstimator {
    observed: BTreeMap<MemberId, (u64, u64)>,
}

impl LossEstimator {
    /// An estimator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `(lost, seen)` packet counts for a member, e.g. from
    /// [`rekey_transport::wka_bkr::WkaBkrOutcome::lost_packets`].
    pub fn record(&mut self, member: MemberId, lost: u64, seen: u64) {
        let e = self.observed.entry(member).or_insert((0, 0));
        e.0 += lost;
        e.1 += seen;
    }

    /// The member's estimated loss rate, if at least `min_samples`
    /// packets were observed.
    pub fn estimate(&self, member: MemberId, min_samples: u64) -> Option<f64> {
        let &(lost, seen) = self.observed.get(&member)?;
        (seen >= min_samples).then(|| lost as f64 / seen as f64)
    }

    /// Serializes the accumulated observations onto `buf` (crash
    /// recovery of the combined scheme).
    pub fn save_into(&self, buf: &mut Vec<u8>) {
        use rekey_keytree::message::codec::{put_u32, put_u64};
        put_u32(buf, self.observed.len() as u32);
        for (&member, &(lost, seen)) in &self.observed {
            put_u64(buf, member.0);
            put_u64(buf, lost);
            put_u64(buf, seen);
        }
    }

    /// Decodes an estimator serialized by [`LossEstimator::save_into`]
    /// off the front of `r`.
    pub fn load_from(r: &mut Reader<'_>) -> Result<LossEstimator, DecodeError> {
        let mut observed = BTreeMap::new();
        for _ in 0..r.u32()? {
            let member = MemberId(r.u64()?);
            observed.insert(member, (r.u64()?, r.u64()?));
        }
        Ok(LossEstimator { observed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupKeyManager;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_crypto::Key;

    #[test]
    fn placement_by_loss_hint() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mgr = LossForestManager::two_trees(4);
        let joins = vec![
            Join::new(MemberId(1), Key::generate(&mut rng)).with_loss_rate(0.02),
            Join::new(MemberId(2), Key::generate(&mut rng)).with_loss_rate(0.2),
            Join::new(MemberId(3), Key::generate(&mut rng)), // no estimate → low
        ];
        mgr.process_interval(&joins, &[], &mut rng).unwrap();
        assert_eq!(mgr.class_size(0), 2);
        assert_eq!(mgr.class_size(1), 1);
    }

    #[test]
    fn class_of_boundaries() {
        let mgr = LossForestManager::new(4, &[0.05, 0.15]);
        assert_eq!(mgr.class_of(0.0), 0);
        assert_eq!(mgr.class_of(0.05), 0);
        assert_eq!(mgr.class_of(0.1), 1);
        assert_eq!(mgr.class_of(0.9), 2);
        assert_eq!(mgr.class_count(), 3);
    }

    #[test]
    fn unknown_leaver_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mgr = LossForestManager::two_trees(4);
        assert!(matches!(
            mgr.process_interval(&[], &[MemberId(9)], &mut rng),
            Err(rekey_keytree::KeyTreeError::UnknownMember(_))
        ));
    }

    #[test]
    fn estimator_needs_samples() {
        let mut est = LossEstimator::new();
        est.record(MemberId(1), 3, 10);
        assert_eq!(est.estimate(MemberId(1), 20), None);
        est.record(MemberId(1), 3, 10);
        assert_eq!(est.estimate(MemberId(1), 20), Some(0.3));
        assert_eq!(est.estimate(MemberId(2), 1), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_boundaries_rejected() {
        LossForestManager::new(4, &[0.2, 0.1]);
    }
}
