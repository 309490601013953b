//! Key-server side of LKH: turning membership changes into rekey
//! messages.
//!
//! [`LkhServer`] owns a [`crate::tree::KeyTree`] and implements
//! *periodic batch rekeying* (\[SKJ00, YLZL01\]): all joins and leaves
//! of a rekey interval are applied together, the union of affected
//! paths is refreshed once, and a single [`RekeyMessage`] is emitted.
//!
//! A batch pays per changed node, not per joiner × height. One rule
//! decides how each refreshed ("dirty") node X gets its new key:
//!
//! - **X is compromised** — a leaver of this batch sat below it (X is
//!   on a path `remove_member` returned), a leaf split of this batch
//!   created it, or it is the root of a tree that had no member when
//!   the batch began. A leaver held X's previous key, a new node has
//!   none, and an empty tree's root key is held by no member, so X's
//!   new key must reach its holders through its children:
//!   - if a child C of X is compromised too (the first one in child
//!     order), X's new key is the chain derivation G of C's new key,
//!     `K'_X = G(K'_C)` ([`KeyTree::derive_key`]), and the message
//!     carries a [`KeyDerivation`] in place of the wrap under C; X's
//!     other children get a wrap each, `d − 1` encryptions;
//!   - otherwise — the bottom of a leave path, an interior a split
//!     created over leaves, an empty tree's root over leaves — X gets
//!     a fresh random key, wrapped under the current key of *every*
//!     child, `d` encryptions (group-oriented rekeying, the cost model
//!     of Appendix A).
//! - **otherwise** only joins dirtied X: its key *advances* by the
//!   one-way step F, `K' = F(K)` ([`KeyTree::advance_key`]), and the
//!   message announces the advance ([`KeyAdvance`]) instead of
//!   wrapping anything under X's previous version. Every member
//!   already below X holds that version and computes `K'` itself; no
//!   leaver of this batch ever held it, and no joiner does. `K'` is
//!   then wrapped once under the current key of each *changed* child —
//!   a dirty child (its new version) or the leaf of one of this batch's
//!   joiners (its individual key) — which is how joiners reach it.
//!
//! A joiner therefore gets exactly one entry under its individual key
//! — its leaf's parent — and chains upward through new child versions,
//! as a survivor of a leave batch always has; the deepest-target-first
//! entry order lets it do so in one pass. Nothing older than this
//! batch is ever wrapped, so a joiner learns no key that predates it
//! (backward secrecy); nothing is wrapped under, advanced from or
//! derived from a key version a leaver held, and every departure
//! refreshes its whole path with fresh or derived keys whose chain
//! starts at a key drawn in that batch, so no departed member can
//! chain F or G to a later version (forward secrecy); and no key
//! version wraps two entries of a batch. F reveals X's new key to
//! exactly the holders of its previous one, and G to exactly the
//! holders of C's new one — in each case the audience the wrap it
//! replaces had. G's source is never a leaf, an individual key, an
//! advanced or an unchanged key: only a compromised child, whose new
//! key this batch drew or derived. A pure-join batch of J joiners
//! costs ≈ `|dirty| + J` wraps plus `|dirty|` advance records
//! (\[YLZL01\]'s sum over updated nodes, LKH+'s one-way update) where
//! a wrap under each previous version cost `2·|dirty| + J`; a leave
//! path pays `d` at its bottom and `d − 1` plus a derivation record at
//! every node above it (the one-way chain of Canetti et al., INFOCOM '99).
//! `tests/batch_planner.rs` holds every message of random batch scripts
//! to these statements.
//!
//! # Placement
//!
//! Joiners first take the slots this batch's leavers vacated, in leave
//! order, so a `J = L` batch dirties only the leave paths; the rest
//! descend into the lightest subtree ([`KeyTree::insert_member`]). In a
//! join-only batch into a tree that had members, a joiner whose descent
//! would split a leaf stays beside the batch's earlier joiners instead:
//! under the newest interior the batch split off while it has fewer
//! than d − 1 children, else in a split of the first leaf child of that
//! interior's parent, else in the split its descent found, which starts
//! the next cluster. The joiners then share the ancestors they dirty,
//! where placed apart each paid for a path of its own. A batch with a
//! leaver, or into an empty tree, places by descent alone: with the same
//! rule there too, `benchmark/`'s seed-1 exact prefixes send more keys
//! (beside leavers `steady-16k` +0.8 % and `restart-16k` +0.5 %; into
//! an empty tree +0.15 % and +0.6 %; EXPERIMENTS "Join-only bursts
//! cluster").
//!
//! # Performance architecture
//!
//! A batch is processed in three sequential phases:
//!
//! 1. **Mutation**: the tree structure is updated and the dirty nodes
//!    are listed, each compromised or not. This phase owns the
//!    caller's RNG and is inherently ordered.
//! 2. **Planning**: compromised nodes over no compromised child get
//!    fresh keys from the caller's RNG and join-only nodes advance by
//!    F, in ascending node order; then the other compromised nodes
//!    derive by G, deepest first, so every source is new before its
//!    parent reads it. The dirty nodes are then sorted deepest first
//!    (stable, so ascending id within a depth), and one [`NonceRun`]
//!    start is drawn from the caller's RNG for the batch.
//! 3. **Execution**: that node order is walked and each wrap the node
//!    needs is sealed straight into the output entries under the next
//!    nonce, with its own header as associated data
//!    ([`EntryMeta::seal`]). It draws no randomness; the whole
//!    per-key cost sits here.
//!
//! A node's entries are contiguous and share its depth, so the
//! messages list entries deepest target first and number their
//! nonces consecutively in that order: the golden digests pin it, and
//! it is what lets the wire codec leave the nonces out
//! (`message::codec`, `NONCE_NEXT`). Every buffer is a local of
//! [`LkhServer::try_apply_batch`], freed when the message is handed
//! back, so the server holds its state and nothing else.
//!
//! Each phase runs under a `rekey_obs` span (`rekey.mutate`,
//! `rekey.plan`, `rekey.execute`), so per-phase wall clock shows up in
//! traces whenever a recorder is installed — and costs one atomic load
//! per phase when none is.

use crate::message::codec::{put_u64, DecodeError, Reader};
use crate::message::{EntryMeta, KeyAdvance, KeyDerivation, RekeyEntry, RekeyMessage};
use crate::tree::KeyTree;
use crate::{KeyTreeError, MemberId, NodeId};
use rand::RngCore;
use rekey_crypto::keywrap::NonceRun;
use rekey_crypto::Key;
use std::collections::VecDeque;

/// Statistics about one batched rekey operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Members added in this batch.
    pub joins: usize,
    /// Members removed in this batch.
    pub leaves: usize,
    /// Key nodes whose keys changed: fresh or advanced.
    pub refreshed_keys: usize,
    /// Of those, the nodes that advanced by F (no leaver below, not
    /// new): one [`KeyAdvance`] each and no wrap under the previous key.
    pub advanced_keys: usize,
    /// Of those, the compromised nodes derived by G from a compromised
    /// child: one [`KeyDerivation`] each and no wrap under that child.
    pub derived_keys: usize,
    /// Encrypted keys emitted — the paper's bandwidth metric.
    pub encrypted_keys: usize,
}

/// Result of applying one batch of membership changes.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The multicast rekey message for this epoch.
    pub message: RekeyMessage,
    /// Statistics for this batch.
    pub stats: BatchStats,
}

/// What the mutation phase hands to planning.
struct Mutation {
    /// Nodes whose keys must change, ascending and deduplicated, each
    /// with whether it is *compromised*: its previous key cannot be
    /// advanced, because a leaver of this batch held it, or because no
    /// member does — a leaf split of this batch created the node, or it
    /// is the root of a tree that was empty.
    dirty: Vec<(NodeId, bool)>,
    /// Leaf node of each joiner of this batch, ascending.
    joined: Vec<NodeId>,
}

/// The key server for one logical key tree.
#[derive(Debug, Clone)]
pub struct LkhServer {
    tree: KeyTree,
    epoch: u64,
}

/// Version byte leading a serialized [`LkhServer`].
pub const SERVER_WIRE_VERSION: u8 = 1;

impl LkhServer {
    /// Creates a server managing an empty key tree of the given degree,
    /// drawing node ids from `namespace`.
    ///
    /// # Panics
    ///
    /// Panics if `degree < 2`.
    pub fn new(degree: usize, namespace: u32) -> Self {
        // A deterministic bootstrap RNG only seeds the initial (empty)
        // root key, which is replaced on the first batch; all rekeying
        // randomness comes from the caller's RNG.
        let mut boot = rand::rngs::mock::StepRng::new(0x5eed, 0x9e3779b97f4a7c15);
        LkhServer {
            tree: KeyTree::new(degree, namespace, &mut boot),
            epoch: 0,
        }
    }

    /// Serializes the server's durable state — epoch plus the full
    /// logical tree — onto `buf` (see [`KeyTree::encode_into`]). That
    /// is everything a server holds between batches.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(SERVER_WIRE_VERSION);
        put_u64(buf, self.epoch);
        self.tree.encode_into(buf);
    }

    /// Decodes a server serialized by [`LkhServer::encode_into`] off
    /// the front of `r`. [`DecodeError::Invalid`] for an unknown
    /// version or an invalid embedded tree.
    pub fn decode(r: &mut Reader<'_>) -> Result<LkhServer, DecodeError> {
        r.expect(SERVER_WIRE_VERSION)?;
        let epoch = r.u64()?;
        let tree = KeyTree::decode(r)?;
        Ok(LkhServer { tree, epoch })
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &KeyTree {
        &self.tree
    }

    /// The current rekey epoch (number of batches applied).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Id of the tree root node (stable).
    pub fn root_node(&self) -> NodeId {
        self.tree.root_id()
    }

    /// The current root (subgroup) key.
    pub fn root_key(&self) -> &Key {
        self.tree.root_key()
    }

    /// Current version of the root key.
    pub fn root_version(&self) -> u64 {
        self.tree.root_version()
    }

    /// Number of members in the tree.
    pub fn member_count(&self) -> usize {
        self.tree.member_count()
    }

    /// Whether `member` is currently in the tree.
    pub fn contains(&self, member: MemberId) -> bool {
        self.tree.contains(member)
    }

    /// Members under `node` (the audience of an entry wrapped under
    /// that node's key).
    pub fn members_under(&self, node: NodeId) -> Vec<MemberId> {
        self.tree.members_under(node)
    }

    /// Buffer-reusing variant of [`LkhServer::members_under`]: appends
    /// to `out` instead of allocating.
    pub fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        self.tree.members_under_into(node, out);
    }

    /// Applies a batch of joins and leaves and returns the rekey
    /// message.
    ///
    /// All randomness (fresh keys, then one
    /// [`NONCE_LEN`](rekey_crypto::keywrap::NONCE_LEN)-byte nonce
    /// start from which the entries are numbered in final order) is
    /// drawn from `rng` in a fixed order, so callers composing several
    /// trees fix every emitted byte by fixing the order in which they
    /// call their trees.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::DuplicateMember`] / [`KeyTreeError::UnknownMember`]
    /// if the batch references members inconsistently; the tree is left
    /// with all changes up to the offending one applied (and the epoch
    /// bumped), so direct callers should treat this as a programming
    /// error. `rekey_core`'s engine validates a whole interval before it
    /// reaches any tree, so a batch it rejects changes nothing.
    pub fn try_apply_batch<R: RngCore>(
        &mut self,
        joins: &[(MemberId, Key)],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, KeyTreeError> {
        self.epoch += 1;

        // ---- Phase 1: tree mutation -------------------------------
        let Mutation { dirty, joined } = {
            let _span = rekey_obs::span!("rekey.mutate");
            self.mutate_tree(joins, leaves, rng)?
        };

        // ---- Phase 2: new keys, then the order to seal them in ----
        let (order, advances, derivations, nonces) = {
            let _span = rekey_obs::span!("rekey.plan");
            // Tree shape is fixed from here on: one depth per dirty
            // node serves the derivation order, the entry order and the
            // entry headers.
            let mut order: Vec<(u32, NodeId, bool)> = dirty
                .iter()
                .map(|&(node, compromised)| {
                    let depth = self.tree.depth_of(node).expect("dirty node is alive");
                    (depth as u32, node, compromised)
                })
                .collect();
            let mut advances = Vec::new();
            let mut chained = Vec::new();
            for &(depth, node, compromised) in &order {
                if !compromised {
                    let (version, _, check) = self.tree.advance_key(node);
                    advances.push(KeyAdvance {
                        node,
                        version: version + 1,
                        check,
                    });
                } else if let Some(source) = self.chain_source(node, &dirty) {
                    chained.push((depth, node, source));
                } else {
                    self.tree.refresh_key(node, rng);
                }
            }
            // Deepest first: a source is a child of its target, so it
            // is new (drawn above, or derived earlier here) before its
            // target reads it. The message lists them by target.
            chained.sort_by_key(|&(depth, ..)| std::cmp::Reverse(depth));
            let mut derivations: Vec<KeyDerivation> = chained
                .into_iter()
                .map(|(_, node, source)| self.tree.derive_key(node, source))
                .collect();
            derivations.sort_unstable_by_key(|derivation| derivation.target);
            rekey_obs::count("rekey.nodes.derived", derivations.len() as u64);
            // Deepest targets first => members decrypt in one pass.
            // The sort is stable, so nodes of one depth stay ascending
            // and each node's entries stay together in child order.
            order.sort_by_key(|&(depth, ..)| std::cmp::Reverse(depth));
            // One nonce start per batch, drawn after every new key; the
            // entries are numbered from it in message order.
            (order, advances, derivations, NonceRun::draw(rng))
        };

        // ---- Phase 3: seal every wrap into the output entries -----
        let entries = {
            let _span = rekey_obs::span!("rekey.execute");
            self.seal_entries(&order, &dirty, &joined, &derivations, nonces)
        };
        rekey_obs::count("rekey.encrypted_keys", entries.len() as u64);

        let stats = BatchStats {
            joins: joins.len(),
            leaves: leaves.len(),
            refreshed_keys: dirty.len(),
            advanced_keys: advances.len(),
            derived_keys: derivations.len(),
            encrypted_keys: entries.len(),
        };
        Ok(BatchOutcome {
            message: RekeyMessage {
                epoch: self.epoch,
                entries,
                advances,
                derivations,
            },
            stats,
        })
    }

    /// Phase 1: applies the membership changes to the tree and returns
    /// the nodes to refresh, which of them are compromised and the
    /// leaves of this batch's joiners.
    fn mutate_tree<R: RngCore>(
        &mut self,
        joins: &[(MemberId, Key)],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<Mutation, KeyTreeError> {
        // Dirty nodes by cause — on a leaver's path, made by a leaf
        // split, or an empty tree's root; on a joiner's path — sorted
        // apart and merged below: two short sorts of bare ids cost less
        // than one of flagged ids.
        let mut compromised = Vec::new();
        let mut joined_paths = Vec::new();
        let was_empty = self.tree.member_count() == 0;
        if was_empty && !joins.is_empty() {
            // No member holds the root key, so nothing may advance it:
            // the first key anyone receives is fresh.
            compromised.push(self.tree.root_id());
        }

        // Slots vacated by departures are re-used for joiners
        // ([YLZL01] batch rekeying): with J = L the join paths then
        // coincide with the leave paths and the batch costs Ne(N, L).
        let mut vacancies = VecDeque::new();
        for &member in leaves {
            let removed_dirty = self.tree.remove_member(member)?;
            if let Some(&parent) = removed_dirty.first() {
                vacancies.push_back(parent);
            }
            compromised.extend(removed_dirty);
        }

        // A join-only batch into a live tree keeps its joiners beside
        // the newest interior its splits made (`KeyTree::insert_member`),
        // so they share the ancestors they dirty. Any other batch places
        // each joiner by balanced descent alone: clustering it too costs
        // `steady-16k` and `restart-16k` keys (module docs, "Placement").
        let clusters = leaves.is_empty() && !was_empty;
        let mut cluster = None;
        let mut joined = Vec::with_capacity(joins.len());
        for (member, individual_key) in joins {
            let mut outcome = None;
            while let Some(slot) = vacancies.pop_front() {
                if let Some(at_slot) =
                    self.tree
                        .insert_member_at(*member, individual_key.clone(), slot)?
                {
                    outcome = Some(at_slot);
                    break;
                }
            }
            let outcome = match outcome {
                Some(o) => o,
                None => self
                    .tree
                    .insert_member(*member, individual_key.clone(), cluster, rng)?,
            };
            if clusters {
                cluster = outcome.created_interior.or(cluster);
            }
            joined.push(outcome.leaf);
            joined_paths.extend(outcome.dirty_path);
            compromised.extend(outcome.created_interior);
        }

        // Dedup, and drop nodes that later structural repair deleted
        // (joins delete nothing); ascending order fixes the plan's (and
        // thus the message's) canonical node order.
        compromised.sort_unstable();
        compromised.dedup();
        compromised.retain(|&node| self.tree.key_of(node).is_some());
        joined_paths.sort_unstable();
        joined_paths.dedup();
        joined.sort_unstable();

        // Merge the two: a node on both lists is compromised.
        let mut dirty = Vec::with_capacity(compromised.len() + joined_paths.len());
        let mut join_only = joined_paths.into_iter().peekable();
        for node in compromised {
            while let Some(below) = join_only.next_if(|&other| other < node) {
                dirty.push((below, false));
            }
            join_only.next_if_eq(&node);
            dirty.push((node, true));
        }
        dirty.extend(join_only.map(|node| (node, false)));
        Ok(Mutation { dirty, joined })
    }

    /// The child a compromised `node` derives its new key from: its
    /// first compromised child in child order, if any (module header);
    /// a leaf never is one. `dirty` is ascending.
    fn chain_source(&self, node: NodeId, dirty: &[(NodeId, bool)]) -> Option<NodeId> {
        self.tree
            .children_of(node)
            .expect("dirty node is alive")
            .find(|child| {
                !child.is_leaf
                    && matches!(
                        dirty.binary_search_by_key(&child.id, |&(id, _)| id),
                        Ok(at) if dirty[at].1
                    )
            })
            .map(|child| child.id)
    }

    /// Seals every wrap of the batch, node by node in `order` (depth,
    /// id, compromised; deepest first), each under the next nonce of
    /// `nonces`. One rule per dirty node (module header): a compromised
    /// node's new key goes under the current key of every child but
    /// the one it was derived from (`derivations`, ascending by
    /// target); an advanced node's goes under each changed child only
    /// — a dirty child's new version or the leaf of one of this
    /// batch's joiners (`joined`). `dirty` and `joined` are ascending.
    fn seal_entries(
        &self,
        order: &[(u32, NodeId, bool)],
        dirty: &[(NodeId, bool)],
        joined: &[NodeId],
        derivations: &[KeyDerivation],
        mut nonces: NonceRun,
    ) -> Vec<RekeyEntry> {
        let tree = &self.tree;
        // Where the batch's keys go: a wrap per child of a compromised
        // node but its chain source; elsewhere each dirty node or
        // joiner is some node's changed child.
        let compromised = dirty
            .iter()
            .filter(|&&(_, compromised)| compromised)
            .count();
        let join_only = dirty.len() - compromised;
        rekey_obs::count("rekey.nodes.compromised", compromised as u64);
        rekey_obs::count("rekey.nodes.join_only", join_only as u64);
        let mut entries = Vec::with_capacity(
            compromised * tree.degree() - derivations.len() + join_only + joined.len(),
        );
        for &(depth, node, compromised) in order {
            let (new_key, new_version) = tree.key_of(node).expect("dirty node is alive");
            let source = derivations
                .binary_search_by_key(&node, |derivation| derivation.target)
                .ok()
                .map(|at| derivations[at].source);
            for child in tree.children_of(node).expect("dirty node is alive") {
                if Some(child.id) == source {
                    continue; // derives the new key by G: no wrap
                }
                if !compromised
                    && dirty
                        .binary_search_by_key(&child.id, |&(id, _)| id)
                        .is_err()
                    && joined.binary_search(&child.id).is_err()
                {
                    continue; // holds the previous version: advances by F
                }
                let meta = EntryMeta {
                    target: node,
                    target_version: new_version,
                    under: child.id,
                    under_version: child.version,
                    under_is_leaf: child.is_leaf,
                    recipient: child.member,
                    audience: child.audience as u32,
                    target_depth: depth,
                };
                entries.push(meta.seal(child.key, new_key, nonces.take()));
            }
        }
        entries
    }

    /// Infallible wrapper around [`LkhServer::try_apply_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the batch adds a member already present or removes a
    /// member not present.
    pub fn apply_batch<R: RngCore>(
        &mut self,
        joins: &[(MemberId, Key)],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> BatchOutcome {
        self.try_apply_batch(joins, leaves, rng)
            .expect("inconsistent membership batch")
    }

    /// Admits a single member immediately (non-batched join).
    ///
    /// # Panics
    ///
    /// Panics if the member is already present.
    pub fn join<R: RngCore>(
        &mut self,
        member: MemberId,
        individual_key: Key,
        rng: &mut R,
    ) -> RekeyMessage {
        self.apply_batch(&[(member, individual_key)], &[], rng)
            .message
    }

    /// Evicts a single member immediately (non-batched leave).
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::UnknownMember`] if the member is not present.
    pub fn leave<R: RngCore>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyMessage, KeyTreeError> {
        Ok(self.try_apply_batch(&[], &[member], rng)?.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::GroupMember;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_crypto::keywrap::NONCE_LEN;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    /// Builds a server with `n` members, returning the member states
    /// fully synchronized with the server.
    fn build_group(degree: usize, n: u64) -> (LkhServer, Vec<GroupMember>, StdRng) {
        let mut rng = rng();
        let mut server = LkhServer::new(degree, 0);
        let joins: Vec<(MemberId, Key)> = (0..n)
            .map(|i| (MemberId(i), Key::generate(&mut rng)))
            .collect();
        let outcome = server.apply_batch(&joins, &[], &mut rng);
        let mut members: Vec<GroupMember> = joins
            .iter()
            .map(|(id, ik)| GroupMember::new(*id, ik.clone()))
            .collect();
        for m in &mut members {
            m.process(&outcome.message).unwrap();
        }
        (server, members, rng)
    }

    fn assert_all_have_root(server: &LkhServer, members: &[GroupMember], skip: &[MemberId]) {
        for m in members {
            if skip.contains(&m.id()) {
                continue;
            }
            assert_eq!(
                m.key_for(server.root_node()),
                Some(server.root_key()),
                "member {} lost the group key",
                m.id()
            );
        }
    }

    #[test]
    fn batch_join_synchronizes_everyone() {
        let (server, members, _) = build_group(4, 37);
        assert_eq!(server.member_count(), 37);
        assert_all_have_root(&server, &members, &[]);
    }

    #[test]
    fn batch_leave_rekeys_survivors() {
        let (mut server, mut members, mut rng) = build_group(4, 20);
        let leavers = [MemberId(3), MemberId(7), MemberId(11)];
        let outcome = server.apply_batch(&[], &leavers, &mut rng);
        for m in &mut members {
            if !leavers.contains(&m.id()) {
                m.process(&outcome.message).unwrap();
            }
        }
        assert_all_have_root(&server, &members, &leavers);
    }

    #[test]
    fn departed_member_cannot_follow_rekey() {
        let (mut server, mut members, mut rng) = build_group(4, 16);
        let outcome = server.apply_batch(&[], &[MemberId(5)], &mut rng);
        // The departed member processes the message anyway.
        let evicted = &mut members[5];
        evicted.process(&outcome.message).unwrap();
        assert_ne!(
            evicted.key_for(server.root_node()),
            Some(server.root_key()),
            "forward secrecy violated"
        );
    }

    #[test]
    fn new_member_cannot_learn_old_root() {
        let (mut server, _, mut rng) = build_group(4, 16);
        let old_root = server.root_key().clone();
        let ik = Key::generate(&mut rng);
        let msg = server.join(MemberId(99), ik.clone(), &mut rng);
        let mut newbie = GroupMember::new(MemberId(99), ik);
        newbie.process(&msg).unwrap();
        assert_eq!(newbie.key_for(server.root_node()), Some(server.root_key()));
        assert_ne!(
            newbie.key_for(server.root_node()),
            Some(&old_root),
            "backward secrecy violated"
        );
    }

    #[test]
    fn mixed_batch_joins_and_leaves() {
        let (mut server, mut members, mut rng) = build_group(3, 30);
        let joins: Vec<(MemberId, Key)> = (100..110)
            .map(|i| (MemberId(i), Key::generate(&mut rng)))
            .collect();
        let leavers: Vec<MemberId> = (0..10).map(MemberId).collect();
        let outcome = server.apply_batch(&joins, &leavers, &mut rng);
        assert_eq!(server.member_count(), 30);

        for m in &mut members {
            if !leavers.contains(&m.id()) {
                m.process(&outcome.message).unwrap();
            }
        }
        let mut newbies: Vec<GroupMember> = joins
            .iter()
            .map(|(id, ik)| GroupMember::new(*id, ik.clone()))
            .collect();
        for m in &mut newbies {
            m.process(&outcome.message).unwrap();
        }
        assert_all_have_root(&server, &members, &leavers);
        assert_all_have_root(&server, &newbies, &[]);
    }

    #[test]
    fn pure_join_batch_is_cheaper_than_group_oriented() {
        // A join-only batch costs one entry per changed child — a dirty
        // node or a joiner — rather than d entries per refreshed key:
        // every other refreshed key advances by F.
        let (mut server, _, mut rng) = build_group(4, 64);
        let ik = Key::generate(&mut rng);
        let outcome = server.apply_batch(&[(MemberId(999), ik)], &[], &mut rng);
        let stats = outcome.stats;
        assert!(
            stats.encrypted_keys <= stats.refreshed_keys + stats.joins,
            "join cost {} too high for {} refreshed keys",
            stats.encrypted_keys,
            stats.refreshed_keys
        );
        assert!(stats.advanced_keys > 0);
        assert_eq!(stats.advanced_keys, outcome.message.advances.len());
    }

    /// An empty tree's root key is the deterministic bootstrap key, held
    /// by no member: the first batch replaces it with fresh randomness,
    /// wraps nothing under it and never advances it.
    #[test]
    fn an_empty_trees_root_is_never_advanced() {
        let boot = LkhServer::new(4, 0);
        let (boot_root, boot_key) = (boot.root_node(), boot.root_key().clone());
        let mut rng = rng();
        let mut server = boot.clone();
        let joins: Vec<(MemberId, Key)> = (0..5)
            .map(|i| (MemberId(i), Key::generate(&mut rng)))
            .collect();
        let outcome = server.apply_batch(&joins, &[], &mut rng);
        assert!(outcome.message.advances.iter().all(|a| a.node != boot_root));
        assert!(outcome.message.entries.iter().all(|e| e.under != boot_root));
        assert_ne!(
            server.root_key(),
            &rekey_crypto::keywrap::advance(&boot_key).0
        );

        // Emptied and refilled, the root is fresh again.
        server.apply_batch(
            &[],
            &joins.iter().map(|j| j.0).collect::<Vec<_>>(),
            &mut rng,
        );
        let outcome = server.apply_batch(&joins[..2], &[], &mut rng);
        assert!(outcome.message.advances.is_empty());
    }

    #[test]
    fn leave_cost_is_about_d_log_n() {
        let (mut server, _, mut rng) = build_group(4, 256);
        let msg = server.leave(MemberId(17), &mut rng).unwrap();
        // d * log_d(N) = 4 * 4 = 16; allow slack for imbalance.
        let n = msg.encrypted_key_count();
        assert!((4..=24).contains(&n), "leave cost {n} out of range");
    }

    #[test]
    fn epoch_increments_per_batch() {
        let (mut server, _, mut rng) = build_group(4, 4);
        let e0 = server.epoch();
        server.apply_batch(&[], &[MemberId(0)], &mut rng);
        assert_eq!(server.epoch(), e0 + 1);
    }

    #[test]
    fn entries_sorted_deepest_first() {
        let (mut server, _, mut rng) = build_group(4, 64);
        let outcome = server.apply_batch(&[], &[MemberId(0), MemberId(32)], &mut rng);
        let depths: Vec<u32> = outcome
            .message
            .entries
            .iter()
            .map(|e| e.target_depth)
            .collect();
        let mut sorted = depths.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(depths, sorted);
    }

    #[test]
    fn try_apply_batch_rejects_unknown_leaver() {
        let (mut server, _, mut rng) = build_group(4, 4);
        let err = server
            .try_apply_batch(&[], &[MemberId(777)], &mut rng)
            .unwrap_err();
        assert_eq!(err, KeyTreeError::UnknownMember(MemberId(777)));
    }

    #[test]
    fn audience_matches_subtree_sizes() {
        let (mut server, _, mut rng) = build_group(4, 64);
        let outcome = server.apply_batch(&[], &[MemberId(1)], &mut rng);
        for entry in &outcome.message.entries {
            let actual = server.members_under(entry.under).len();
            assert_eq!(
                entry.audience as usize, actual,
                "entry under {}",
                entry.under
            );
        }
    }

    /// Counts the `fill_bytes` calls that ask for exactly a nonce.
    struct NonceDraws<'a>(&'a mut StdRng, usize);

    impl RngCore for NonceDraws<'_> {
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.1 += usize::from(dest.len() == NONCE_LEN);
            self.0.fill_bytes(dest);
        }
    }

    /// Join, leave and mixed batches each draw one nonce start and
    /// number their entries from it in message order.
    #[test]
    fn a_batch_draws_one_nonce_start_and_counts_up_from_it() {
        let (mut server, _, mut rng) = build_group(4, 64);
        let ik = Key::generate(&mut rng);
        let join = |id| vec![(MemberId(id), ik.clone())];
        let batches = [
            (join(900), vec![]),
            (vec![], vec![MemberId(3), MemberId(40)]),
            (join(901), vec![MemberId(7)]),
        ];
        for (joins, leaves) in batches {
            let mut counting = NonceDraws(&mut rng, 0);
            let message = server.apply_batch(&joins, &leaves, &mut counting).message;
            assert_eq!(counting.1, 1);
            assert!(message.entries.len() > 1);
            for pair in message.entries.windows(2) {
                assert_eq!(
                    pair[1].wrapped.nonce(),
                    rekey_crypto::keywrap::next_nonce(pair[0].wrapped.nonce())
                );
            }
        }
    }

    /// Batches are independent of each other: nothing but the tree and
    /// the epoch carries over from one to the next.
    #[test]
    fn batches_are_stateless_across_epochs() {
        let (mut server, mut members, mut rng) = build_group(4, 40);
        for round in 0..6u64 {
            let joins: Vec<(MemberId, Key)> = (0..3)
                .map(|i| (MemberId(1000 + round * 10 + i), Key::generate(&mut rng)))
                .collect();
            let leavers = [MemberId(round), MemberId(20 + round)];
            let outcome = server.apply_batch(&joins, &leavers, &mut rng);
            for m in &mut members {
                if server.contains(m.id()) {
                    m.process(&outcome.message).unwrap();
                }
            }
            for (id, ik) in &joins {
                let mut newbie = GroupMember::new(*id, ik.clone());
                newbie.process(&outcome.message).unwrap();
                members.push(newbie);
            }
            let present: Vec<MemberId> = members
                .iter()
                .map(|m| m.id())
                .filter(|id| !server.contains(*id))
                .collect();
            assert_all_have_root(&server, &members, &present);
        }
    }
}
