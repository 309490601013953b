//! The unoptimized baseline: one balanced key tree whose root is the
//! group DEK (\[WGL98, WHA98\] with periodic batching).

use crate::engine::{Placement, PlacementPolicy, RekeyEngine, Trees};
use crate::Join;
use rekey_keytree::server::LkhServer;

/// Placement for the baseline: everyone lives in the single tree, and
/// its root *is* the group key (the engine runs with no DEK layer).
#[derive(Debug, Clone, Default)]
pub struct OneTreePolicy;

impl PlacementPolicy for OneTreePolicy {
    fn scheme_name(&self) -> &'static str {
        "one-keytree"
    }

    fn route_join(&self, _join: &Join, _trees: &Trees) -> Placement {
        Placement::Tree(0)
    }
}

/// A single balanced LKH tree; the DEK is the tree root.
pub type OneTreeManager = RekeyEngine<OneTreePolicy>;

impl OneTreeManager {
    /// Creates the manager with the given key-tree degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree < 2`.
    pub fn new(degree: usize) -> Self {
        RekeyEngine::with_trees(
            OneTreePolicy,
            vec![("main", LkhServer::new(degree, 0))],
            None,
        )
    }

    /// Read access to the underlying server (for diagnostics/tests).
    pub fn server(&self) -> &LkhServer {
        self.tree(0)
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
    use rekey_keytree::MemberId;

    #[test]
    fn baseline_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mgr = OneTreeManager::new(4);
        let ik = Key::generate(&mut rng);
        let joins = vec![Join::new(MemberId(0), ik.clone())];
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        let mut m = GroupMember::new(MemberId(0), ik);
        m.process(&out.message).unwrap();
        assert_eq!(m.key_for(mgr.dek_node()), Some(mgr.dek()));
        assert_eq!(mgr.member_count(), 1);
        assert_eq!(mgr.scheme_name(), "one-keytree");
    }

    #[test]
    fn stats_reflect_batch() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mgr = OneTreeManager::new(4);
        let joins: Vec<Join> = (0..10)
            .map(|i| Join::new(MemberId(i), Key::generate(&mut rng)))
            .collect();
        mgr.process_interval(&joins, &[], &mut rng).unwrap();
        let out = mgr
            .process_interval(&[], &[MemberId(0), MemberId(5)], &mut rng)
            .unwrap();
        assert_eq!(out.stats.leaves, 2);
        assert_eq!(out.stats.encrypted_keys, out.message.encrypted_key_count());
        assert!(out.stats.encrypted_keys > 0);
    }
}
