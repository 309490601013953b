//! Shadow key-knowledge oracle.
//!
//! A pure model of *who can know what*, built from nothing but the
//! rekey messages a server multicasts — completely independent of
//! `LkhServer`'s internal bookkeeping, so a server bug cannot also
//! corrupt the oracle's verdicts.
//!
//! The model: an entry `{target@tv} under@uv` lets any principal
//! holding `under@uv` learn `target@tv`, an advance of `node` to `v`
//! lets any principal holding `node@(v − 1)` learn `node@v` (F is
//! public; only its input is secret), and a derivation of `target@v`
//! from `source` lets any principal holding `source` at the newest
//! version the wire has carried for it — the one the same message
//! installs, from a correct server — learn `target@v` (so is G). The
//! base case is an entry
//! addressed to a member's individual (leaf) key — that grants the
//! recipient both the leaf pair and the target pair. Knowledge is
//! cumulative and never revoked: a member that once learned a key
//! keeps it forever (members may be compromised or replay traffic
//! after leaving). Secrecy must therefore come from *versioning*: a
//! correct server never wraps a fresh key under, nor advances or
//! derives one from, a key a departed member holds, which the oracle
//! checks by
//! intersecting the holder
//! set of every newly born `(node, version)` pair with the departed
//! set.
//!
//! Soundness rests on node ids never being reused across tree
//! rebuilds (the servers draw ids from per-generation namespaces), so
//! `(NodeId, version)` uniquely names one key for all time.

use rekey_keytree::message::RekeyMessage;
use rekey_keytree::{MemberId, NodeId};
use std::collections::{BTreeSet, HashMap};

/// What one [`KnowledgeOracle::observe`] call learned from a message.
#[derive(Debug, Default)]
pub struct ObserveReport {
    /// `(node, version)` pairs first seen in this message — the keys
    /// "born" this interval. Forward secrecy is exactly: no departed
    /// member is ever entitled to a born pair.
    pub born: Vec<(NodeId, u64)>,
    /// Every entitlement added by this message, `(member, node,
    /// version)`. Liveness checks only need these deltas: once a
    /// member is entitled and synced, it can never silently fall
    /// behind without a newer grant appearing here first.
    pub granted: Vec<(MemberId, NodeId, u64)>,
}

/// Cumulative key-knowledge model over a whole run.
#[derive(Debug, Default)]
pub struct KnowledgeOracle {
    /// Every `(node, version)` ever seen on the wire, mapped to the
    /// exact set of members entitled to it.
    holders: HashMap<(NodeId, u64), BTreeSet<MemberId>>,
    /// Highest version seen per node.
    latest: HashMap<NodeId, u64>,
}

impl KnowledgeOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one multicast message into the model and reports the
    /// newly born pairs.
    ///
    /// Entitlement propagates to a fixpoint *within* the message (an
    /// entry earlier in the vector may be decryptable only via a key
    /// granted by a later one — order must not matter to the model,
    /// only to single-pass receivers), and against everything learned
    /// from all prior messages.
    pub fn observe(&mut self, message: &RekeyMessage) -> ObserveReport {
        let mut report = ObserveReport::default();

        // Register every pair the message mentions (even ones nobody
        // can decrypt yet) and apply the leaf-addressed base case.
        for entry in &message.entries {
            self.note_pair(entry.target, entry.target_version, &mut report.born);
            self.note_pair(entry.under, entry.under_version, &mut report.born);
            if entry.under_is_leaf {
                if let Some(recipient) = entry.recipient {
                    if self
                        .holders
                        .get_mut(&(entry.under, entry.under_version))
                        .expect("pair just noted")
                        .insert(recipient)
                    {
                        report
                            .granted
                            .push((recipient, entry.under, entry.under_version));
                    }
                }
            }
        }

        for advance in &message.advances {
            self.note_pair(advance.node, advance.version, &mut report.born);
        }
        for derivation in &message.derivations {
            self.note_pair(derivation.target, derivation.version, &mut report.born);
        }

        // Propagate until stable along every edge: whoever holds
        // `under@uv` learns `target@tv`; whoever holds `node@(v − 1)`
        // learns the advanced `node@v`; whoever holds the source's
        // newest version learns the derived `target@v`. A server that
        // derived from an older key than the message installs is
        // modelled as deriving from the newest one the wire carried,
        // which is where a departed holder shows up.
        let edges: Vec<((NodeId, u64), (NodeId, u64))> =
            message
                .entries
                .iter()
                .map(|e| ((e.under, e.under_version), (e.target, e.target_version)))
                .chain(message.advances.iter().filter_map(|a| {
                    Some(((a.node, a.version.checked_sub(1)?), (a.node, a.version)))
                }))
                .chain(message.derivations.iter().filter_map(|d| {
                    let source = (d.source, self.latest(d.source)?);
                    Some((source, (d.target, d.version)))
                }))
                .collect();
        loop {
            let mut changed = false;
            for &(source, target) in &edges {
                let sources: Vec<MemberId> = match self.holders.get(&source) {
                    Some(set) if !set.is_empty() => set.iter().copied().collect(),
                    _ => continue,
                };
                let sink = self.holders.get_mut(&target).expect("pair noted above");
                for member in sources {
                    if sink.insert(member) {
                        changed = true;
                        report.granted.push((member, target.0, target.1));
                    }
                }
            }
            if !changed {
                break;
            }
        }

        report
    }

    /// The members entitled to `(node, version)`, if the pair has ever
    /// been seen.
    pub fn entitled(&self, node: NodeId, version: u64) -> Option<&BTreeSet<MemberId>> {
        self.holders.get(&(node, version))
    }

    /// Whether `member` is entitled to `(node, version)`.
    pub fn is_entitled(&self, member: MemberId, node: NodeId, version: u64) -> bool {
        self.holders
            .get(&(node, version))
            .is_some_and(|set| set.contains(&member))
    }

    /// Highest version the wire has ever carried for `node`.
    pub fn latest(&self, node: NodeId) -> Option<u64> {
        self.latest.get(&node).copied()
    }

    /// Number of distinct `(node, version)` pairs tracked.
    pub fn pair_count(&self) -> usize {
        self.holders.len()
    }

    fn note_pair(&mut self, node: NodeId, version: u64, born: &mut Vec<(NodeId, u64)>) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.holders.entry((node, version))
        {
            slot.insert(BTreeSet::new());
            born.push((node, version));
            let latest = self.latest.entry(node).or_insert(version);
            if version > *latest {
                *latest = version;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_core::one_tree::OneTreeManager;
    use rekey_core::{GroupKeyManager, Join};
    use rekey_crypto::Key;

    fn join(id: u64, rng: &mut StdRng) -> Join {
        Join::new(MemberId(id), Key::generate(rng))
    }

    #[test]
    fn oracle_tracks_join_and_leave_entitlement() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut mgr = OneTreeManager::new(2);
        let mut oracle = KnowledgeOracle::new();

        let joins: Vec<Join> = (0..4).map(|i| join(i, &mut rng)).collect();
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        let report = oracle.observe(&out.message);
        assert!(!report.born.is_empty());
        let dek = mgr.dek_node();
        let v0 = oracle.latest(dek).unwrap();
        let entitled = oracle.entitled(dek, v0).unwrap();
        assert_eq!(entitled.len(), 4, "all members entitled to the root");

        let out = mgr.process_interval(&[], &[MemberId(1)], &mut rng).unwrap();
        let report = oracle.observe(&out.message);
        let v1 = oracle.latest(dek).unwrap();
        assert!(v1 > v0, "root must rotate on leave");
        // Every pair born by the leave excludes the departed member.
        assert!(!report.born.is_empty());
        for &(n, v) in &report.born {
            assert!(
                !oracle.is_entitled(MemberId(1), n, v),
                "departed member entitled to fresh {n:?}@{v}"
            );
        }
        // Old knowledge is never revoked.
        assert!(oracle.is_entitled(MemberId(1), dek, v0));
        // Survivors are entitled to the new root.
        for id in [0u64, 2, 3] {
            assert!(oracle.is_entitled(MemberId(id), dek, v1));
        }
    }

    /// A pure join advances the root by F: the oracle entitles the
    /// members who held the previous root through the advance edge and
    /// the joiner through its wraps, and nobody else.
    #[test]
    fn an_advance_entitles_the_holders_of_the_previous_version() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mgr = OneTreeManager::new(2);
        let mut oracle = KnowledgeOracle::new();
        let joins: Vec<Join> = (0..4).map(|i| join(i, &mut rng)).collect();
        oracle.observe(&mgr.process_interval(&joins, &[], &mut rng).unwrap().message);
        let out = mgr
            .process_interval(&[join(9, &mut rng)], &[], &mut rng)
            .unwrap();
        let root = mgr.dek_node();
        let advance = *out
            .message
            .advances
            .iter()
            .find(|a| a.node == root)
            .expect("a pure join advances the root");
        assert!(out.message.entries.iter().all(|e| e.under != root));
        let report = oracle.observe(&out.message);
        assert!(report.born.contains(&(root, advance.version)));
        let entitled = oracle.entitled(root, advance.version).unwrap();
        assert_eq!(
            entitled.iter().map(|m| m.0).collect::<Vec<_>>(),
            [0, 1, 2, 3, 9]
        );
    }

    /// A leave derives the root from the leaver's side of the tree: the
    /// oracle entitles the survivors below the source through the
    /// derivation edge, the others through their wraps, and never the
    /// leaver.
    #[test]
    fn a_derivation_entitles_the_holders_of_the_sources_new_version() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut mgr = OneTreeManager::new(2);
        let mut oracle = KnowledgeOracle::new();
        let joins: Vec<Join> = (0..8).map(|i| join(i, &mut rng)).collect();
        oracle.observe(&mgr.process_interval(&joins, &[], &mut rng).unwrap().message);
        let out = mgr.process_interval(&[], &[MemberId(3)], &mut rng).unwrap();
        let root = mgr.dek_node();
        let derivation = *out
            .message
            .derivations
            .iter()
            .find(|d| d.target == root)
            .expect("the root derives from the leaver's side");
        assert!(out
            .message
            .entries
            .iter()
            .all(|e| (e.target, e.under) != (root, derivation.source)));
        oracle.observe(&out.message);
        let entitled = oracle.entitled(root, derivation.version).unwrap();
        assert_eq!(
            entitled.iter().map(|m| m.0).collect::<Vec<_>>(),
            [0, 1, 2, 4, 5, 6, 7]
        );
    }

    #[test]
    fn propagation_reaches_fixpoint_regardless_of_entry_order() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut mgr = OneTreeManager::new(2);
        let mut oracle = KnowledgeOracle::new();
        let joins: Vec<Join> = (0..4).map(|i| join(i, &mut rng)).collect();
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();

        let mut reversed = out.message.clone();
        reversed.entries.reverse();
        let mut oracle_rev = KnowledgeOracle::new();
        oracle.observe(&out.message);
        oracle_rev.observe(&reversed);

        let dek = mgr.dek_node();
        let v = oracle.latest(dek).unwrap();
        assert_eq!(oracle.entitled(dek, v), oracle_rev.entitled(dek, v));
        assert_eq!(oracle.pair_count(), oracle_rev.pair_count());
    }
}
