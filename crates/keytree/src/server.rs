//! Key-server side of LKH: turning membership changes into rekey
//! messages.
//!
//! [`LkhServer`] owns a [`crate::tree::KeyTree`] and implements
//! *periodic batch rekeying* (\[SKJ00, YLZL01\]): all joins and leaves
//! of a rekey interval are applied together, the union of affected
//! paths is refreshed once, and a single [`RekeyMessage`] is emitted.
//!
//! Two wrapping strategies are used, following the paper:
//!
//! - **Mixed or leave batches** use group-oriented rekeying: every
//!   refreshed key is encrypted under the current key of each of its
//!   children (`d` encryptions per updated key — the cost model of
//!   Appendix A). This is the only safe strategy once any member has
//!   departed, since departed members know the old path keys.
//! - **Pure join batches** use the cheaper join procedure of §2.1:
//!   every refreshed key is encrypted once under its *own previous
//!   version* (all existing members can decrypt that) plus once under
//!   the individual key of each joining member beneath it.
//!
//! # Performance architecture
//!
//! A batch is processed in three phases:
//!
//! 1. **Mutation** (sequential): the tree structure is updated and
//!    fresh keys are generated for every dirty node. This phase owns
//!    the caller's RNG and is inherently ordered.
//! 2. **Planning** (sequential): every encryption the batch needs is
//!    recorded as a planned wrap — KEK, payload, per-entry metadata
//!    and a nonce pre-drawn from the caller's RNG in plan order. All
//!    buffers live in a reusable scratch arena, so steady-state
//!    batches perform no per-epoch heap allocation beyond the output
//!    message itself.
//! 3. **Execution** (sequential): the planned wraps are pure
//!    functions of their inputs — all ordering and randomness was
//!    fixed during planning — and are run in plan order into the
//!    output message.
//!
//! The plan → sort → draw nonces → execute order is what fixes the
//! emitted bytes (the golden digests pin it), so it stays even though
//! nothing runs concurrently.
//!
//! Each phase runs under a `rekey_obs` span (`rekey.mutate`,
//! `rekey.plan`, `rekey.execute`), so per-phase wall clock shows up in
//! traces whenever a recorder is installed — and costs one atomic load
//! per phase when none is.

use crate::message::codec::{get_u64, get_u8, put_u64};
use crate::message::{RekeyEntry, RekeyMessage};
use crate::tree::KeyTree;
use crate::{KeyTreeError, MemberId, NodeId};
use rand::RngCore;
use rekey_crypto::keywrap::{WrapKek, NONCE_LEN};
use rekey_crypto::Key;
use std::collections::{HashMap, VecDeque};

/// Statistics about one batched rekey operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Members added in this batch.
    pub joins: usize,
    /// Members removed in this batch.
    pub leaves: usize,
    /// Key nodes whose keys were refreshed.
    pub refreshed_keys: usize,
    /// Encrypted keys emitted — the paper's bandwidth metric.
    pub encrypted_keys: usize,
}

/// Result of applying one batch of membership changes.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The multicast rekey message for this epoch.
    pub message: RekeyMessage,
    /// Leaf node assigned to each member that joined in this batch.
    pub joined_leaves: Vec<(MemberId, NodeId)>,
    /// Statistics for this batch.
    pub stats: BatchStats,
}

/// Everything a [`RekeyEntry`] carries except the ciphertext.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    target: NodeId,
    target_version: u64,
    under: NodeId,
    under_version: u64,
    under_is_leaf: bool,
    recipient: Option<MemberId>,
    audience: u32,
    target_depth: u32,
}

/// One planned key encryption: a pure function of its fields (plus the
/// batch's shared KEK arena). The payload key is held inline (32-byte
/// copy); the KEK is an index into [`RekeyScratch::keks`], where its
/// derived sub-keys and scheduled MAC state are prepared during
/// planning. Join batches share one slot among all entries along a
/// joiner's path; group-oriented batches wrap under each child key
/// exactly once, so there every entry has a slot (and a set-up) of its
/// own.
#[derive(Debug, Clone)]
struct PlannedWrap {
    kek_slot: usize,
    payload: Key,
    nonce: [u8; NONCE_LEN],
    meta: EntryMeta,
}

impl PlannedWrap {
    fn execute(self, keks: &[WrapKek]) -> RekeyEntry {
        let wrapped = keks[self.kek_slot].wrap_with_nonce(&self.payload, self.nonce);
        RekeyEntry {
            target: self.meta.target,
            target_version: self.meta.target_version,
            under: self.meta.under,
            under_version: self.meta.under_version,
            under_is_leaf: self.meta.under_is_leaf,
            recipient: self.meta.recipient,
            audience: self.meta.audience,
            target_depth: self.meta.target_depth,
            wrapped,
        }
    }
}

/// Reusable per-batch working memory for the rekey engine.
///
/// Every buffer is cleared (capacity retained) at the start of a batch,
/// so a warmed-up server performs no per-epoch heap allocation in the
/// planning phase; the only allocation per batch is the output
/// [`RekeyMessage`] handed to the caller.
#[derive(Debug, Clone, Default)]
pub struct RekeyScratch {
    /// Dirty node ids, sorted ascending and deduplicated.
    dirty: Vec<NodeId>,
    /// Pre-refresh `(node, version, key)` snapshots, sorted by node —
    /// populated only for pure-join batches (the only mode that wraps
    /// under previous keys).
    old_versions: Vec<(NodeId, u64, Key)>,
    /// Tree slots vacated by this batch's departures.
    vacancies: VecDeque<NodeId>,
    /// Interior nodes created by leaf splits in this batch, in
    /// creation order (which is emission order for their entries).
    created: Vec<NodeId>,
    /// One joiner's leaf-to-root path, refilled per joiner.
    path_nodes: Vec<NodeId>,
    /// `(index into dirty, index into joined_leaves)` for every dirty
    /// node on a joiner's path, sorted: the joiners beneath each dirty
    /// node, in batch order.
    joiner_hits: Vec<(usize, usize)>,
    /// Sorted lookup sets for the join planner: `created`, and the
    /// leaves of this batch's joiners.
    created_sorted: Vec<NodeId>,
    joined_leaf_ids: Vec<NodeId>,
    /// The encryption plan for the current batch.
    plan: Vec<PlannedWrap>,
    /// Prepared KEKs (derived sub-keys + scheduled MAC state), one per
    /// distinct wrapping key of the batch; [`PlannedWrap::kek_slot`]
    /// indexes here.
    keks: Vec<WrapKek>,
    /// Dedup map for `keks` on the join path, where one individual key
    /// wraps every node of its joiner's path: the `(node, key version)`
    /// identity of a wrapping key → its slot.
    kek_slots: HashMap<(NodeId, u64), usize>,
}

impl RekeyScratch {
    fn begin_batch(&mut self) {
        self.dirty.clear();
        self.old_versions.clear();
        self.vacancies.clear();
        self.created.clear();
        self.path_nodes.clear();
        self.joiner_hits.clear();
        self.created_sorted.clear();
        self.joined_leaf_ids.clear();
        self.plan.clear();
        self.keks.clear();
        self.kek_slots.clear();
    }

    fn old_version_of(&self, node: NodeId) -> Option<&(NodeId, u64, Key)> {
        self.old_versions
            .binary_search_by_key(&node, |&(n, _, _)| n)
            .ok()
            .map(|i| &self.old_versions[i])
    }
}

/// Slot of the prepared [`WrapKek`] for the wrapping key identified by
/// `(under, version)`, running the (HKDF + HMAC-schedule) setup only on
/// the first entry planned under it. A free function over the two
/// scratch fields so planning loops can call it while iterating other
/// scratch buffers.
fn kek_slot_for(
    keks: &mut Vec<WrapKek>,
    slots: &mut HashMap<(NodeId, u64), usize>,
    under: NodeId,
    version: u64,
    key: &Key,
) -> usize {
    *slots.entry((under, version)).or_insert_with(|| {
        keks.push(WrapKek::new(key));
        keks.len() - 1
    })
}

/// The key server for one logical key tree.
#[derive(Debug, Clone)]
pub struct LkhServer {
    tree: KeyTree,
    epoch: u64,
    scratch: RekeyScratch,
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
            scratch: RekeyScratch::default(),
        }
    }

    /// Serializes the server's durable state — epoch plus the full
    /// logical tree — onto `buf` (see [`KeyTree::encode_into`]).
    ///
    /// The scratch arena is working memory, not state, and is not
    /// serialized.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(SERVER_WIRE_VERSION);
        put_u64(buf, self.epoch);
        self.tree.encode_into(buf);
    }

    /// Decodes a server serialized by [`LkhServer::encode_into`],
    /// advancing `buf` past it. Returns `None` on truncation, an
    /// unknown version, or an invalid embedded tree.
    pub fn decode(buf: &mut &[u8]) -> Option<LkhServer> {
        if get_u8(buf)? != SERVER_WIRE_VERSION {
            return None;
        }
        let epoch = get_u64(buf)?;
        let tree = KeyTree::decode(buf)?;
        Some(LkhServer {
            tree,
            epoch,
            scratch: RekeyScratch::default(),
        })
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
    /// All randomness (fresh keys, then one nonce per entry in final
    /// entry order) is drawn from `rng` in a fixed order, so callers
    /// composing several trees fix every emitted byte by fixing the
    /// order in which they call their trees.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::DuplicateMember`] / [`KeyTreeError::UnknownMember`]
    /// if the batch references members inconsistently; the tree is left
    /// with all changes up to the offending one applied, so callers
    /// should treat this as a programming error.
    pub fn try_apply_batch<R: RngCore>(
        &mut self,
        joins: &[(MemberId, Key)],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, KeyTreeError> {
        self.epoch += 1;
        self.scratch.begin_batch();

        // ---- Phase 1: tree mutation + fresh key generation --------
        let joined_leaves = {
            let _span = rekey_obs::span!("rekey.mutate");
            self.mutate_tree(joins, leaves, rng)?
        };

        // ---- Phase 2: plan every encryption this batch needs ------
        {
            let _span = rekey_obs::span!("rekey.plan");
            let pure_join = leaves.is_empty();
            if pure_join {
                self.snapshot_old_versions();
            }
            for &node in &self.scratch.dirty {
                self.tree.refresh_key(node, rng);
            }
            if pure_join {
                self.plan_join_entries(&joined_leaves);
            } else {
                self.plan_group_oriented_entries();
            }
            // Deepest targets first => members decrypt in one pass.
            // The sort is stable, so entries for one node keep their
            // relative order.
            self.scratch
                .plan
                .sort_by_key(|job| std::cmp::Reverse(job.meta.target_depth));
            // Nonces are drawn in final plan order, after every fresh
            // key: execution then draws nothing.
            for job in &mut self.scratch.plan {
                rng.fill_bytes(&mut job.nonce);
            }
        }

        // ---- Phase 3: run the plan into the output entries --------
        let entries: Vec<RekeyEntry> = {
            let _span = rekey_obs::span!("rekey.execute");
            let scratch = &mut self.scratch;
            let keks = &scratch.keks;
            scratch
                .plan
                .drain(..)
                .map(|job| job.execute(keks))
                .collect()
        };
        rekey_obs::count("rekey.encrypted_keys", entries.len() as u64);

        let stats = BatchStats {
            joins: joins.len(),
            leaves: leaves.len(),
            refreshed_keys: self.scratch.dirty.len(),
            encrypted_keys: entries.len(),
        };
        Ok(BatchOutcome {
            message: RekeyMessage {
                epoch: self.epoch,
                entries,
            },
            joined_leaves,
            stats,
        })
    }

    /// Phase 1: applies the membership changes to the tree, recording
    /// dirty nodes, vacancies, and created interiors in the scratch
    /// arena. Returns the leaf assignments of this batch's joiners.
    fn mutate_tree<R: RngCore>(
        &mut self,
        joins: &[(MemberId, Key)],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<Vec<(MemberId, NodeId)>, KeyTreeError> {
        let scratch = &mut self.scratch;

        // Slots vacated by departures are re-used for joiners
        // ([YLZL01] batch rekeying): with J = L the join paths then
        // coincide with the leave paths and the batch costs Ne(N, L).
        for &member in leaves {
            let removed_dirty = self.tree.remove_member(member)?;
            if let Some(&parent) = removed_dirty.first() {
                scratch.vacancies.push_back(parent);
            }
            scratch.dirty.extend(removed_dirty);
        }

        let mut joined_leaves = Vec::with_capacity(joins.len());
        for (member, individual_key) in joins {
            let mut outcome = None;
            while let Some(slot) = scratch.vacancies.pop_front() {
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
                    .insert_member(*member, individual_key.clone(), rng)?,
            };
            joined_leaves.push((*member, outcome.leaf));
            scratch.dirty.extend(outcome.dirty_path);
            if let Some(node) = outcome.created_interior {
                scratch.created.push(node);
            }
        }

        // Dedup and drop nodes that later structural repair deleted;
        // ascending order fixes the plan's (and thus the message's)
        // canonical node order.
        scratch.dirty.sort_unstable();
        scratch.dirty.dedup();
        let tree = &self.tree;
        scratch.dirty.retain(|node| tree.key_of(*node).is_some());
        Ok(joined_leaves)
    }

    /// Snapshots `(version, key)` of every dirty node before refresh.
    /// Only pure-join batches wrap anything under a previous key, so
    /// mixed/leave batches skip this copy entirely.
    fn snapshot_old_versions(&mut self) {
        let scratch = &mut self.scratch;
        scratch.old_versions.reserve(scratch.dirty.len());
        for &node in &scratch.dirty {
            let (key, version) = self.tree.key_of(node).expect("dirty node is alive");
            // `dirty` is sorted, so `old_versions` is born sorted.
            scratch.old_versions.push((node, version, key.clone()));
        }
    }

    /// Plans group-oriented rekeying (mixed or leave batches): every
    /// refreshed key is encrypted under the current key of each of its
    /// children. A child has one parent, so no wrapping key repeats
    /// within the batch and each goes straight into the KEK arena.
    fn plan_group_oriented_entries(&mut self) {
        let scratch = &mut self.scratch;
        let tree = &self.tree;
        for &node in &scratch.dirty {
            let (new_key, new_version) = tree.key_of(node).expect("dirty node is alive");
            let depth = tree.depth_of(node).expect("dirty node is alive") as u32;
            for child in tree.children_of(node).expect("dirty node is alive") {
                scratch.keks.push(WrapKek::new(child.key));
                scratch.plan.push(PlannedWrap {
                    kek_slot: scratch.keks.len() - 1,
                    payload: new_key.clone(),
                    nonce: [0; NONCE_LEN],
                    meta: EntryMeta {
                        target: node,
                        target_version: new_version,
                        under: child.id,
                        under_version: child.version,
                        under_is_leaf: child.is_leaf,
                        recipient: child.member,
                        audience: child.audience as u32,
                        target_depth: depth,
                    },
                });
            }
        }
    }

    /// Plans the §2.1 join procedure (pure-join batches): each
    /// refreshed key is encrypted under its own previous version plus
    /// under the individual key of each joiner beneath it.
    fn plan_join_entries(&mut self, joined_leaves: &[(MemberId, NodeId)]) {
        let scratch = &mut self.scratch;
        let tree = &self.tree;

        // Walk each joiner's path once, noting which dirty nodes it
        // crosses. Sorted, the hits list the joiners beneath each dirty
        // node in batch order — the order their entries are emitted in.
        for (joiner, (member, leaf)) in joined_leaves.iter().enumerate() {
            scratch.path_nodes.clear();
            tree.path_of_into(*member, &mut scratch.path_nodes)
                .expect("member just joined");
            for node in &scratch.path_nodes {
                if let Ok(dirty_idx) = scratch.dirty.binary_search(node) {
                    scratch.joiner_hits.push((dirty_idx, joiner));
                }
            }
            scratch.joined_leaf_ids.push(*leaf);
        }
        scratch.joiner_hits.sort_unstable();
        scratch.joined_leaf_ids.sort_unstable();
        scratch.created_sorted.extend_from_slice(&scratch.created);
        scratch.created_sorted.sort_unstable();

        let mut hits = scratch.joiner_hits.iter().peekable();
        for (dirty_idx, &node) in scratch.dirty.iter().enumerate() {
            let (new_key, new_version) = tree.key_of(node).expect("dirty node is alive");
            let depth = tree.depth_of(node).expect("dirty node is alive") as u32;
            let audience = tree.leaf_count_under(node) as u32;

            // One entry under the node's own previous key: every
            // existing member below already holds it. A brand-new node
            // (created by a leaf split) has no previous holders and
            // skips this entry.
            let old = scratch
                .old_version_of(node)
                .map(|&(_, v, ref k)| (v, k.clone()));
            if let Some((old_version, old_key)) = old {
                if old_version < new_version && scratch.created_sorted.binary_search(&node).is_err()
                {
                    let kek_slot = kek_slot_for(
                        &mut scratch.keks,
                        &mut scratch.kek_slots,
                        node,
                        old_version,
                        &old_key,
                    );
                    scratch.plan.push(PlannedWrap {
                        kek_slot,
                        payload: new_key.clone(),
                        nonce: [0; NONCE_LEN],
                        meta: EntryMeta {
                            target: node,
                            target_version: new_version,
                            under: node,
                            under_version: old_version,
                            under_is_leaf: false,
                            recipient: None,
                            audience,
                            target_depth: depth,
                        },
                    });
                }
            }

            // One entry per joining member whose path contains `node`.
            while let Some(&(_, joiner)) = hits.next_if(|&&(idx, _)| idx == dirty_idx) {
                let (member, leaf) = joined_leaves[joiner];
                let (leaf_key, _) = tree.key_of(leaf).expect("fresh leaf is alive");
                let kek_slot =
                    kek_slot_for(&mut scratch.keks, &mut scratch.kek_slots, leaf, 0, leaf_key);
                scratch.plan.push(PlannedWrap {
                    kek_slot,
                    payload: new_key.clone(),
                    nonce: [0; NONCE_LEN],
                    meta: EntryMeta {
                        target: node,
                        target_version: new_version,
                        under: leaf,
                        under_version: 0,
                        under_is_leaf: true,
                        recipient: Some(member),
                        audience: 1,
                        target_depth: depth,
                    },
                });
            }
        }

        // Interior nodes freshly created by leaf splits may have
        // pre-existing members below (the split leaf); deliver the new
        // node's key to them under their existing child keys.
        for &node in &scratch.created {
            let (new_key, new_version) = tree.key_of(node).expect("created node is alive");
            let depth = tree.depth_of(node).expect("created node is alive") as u32;
            for child in tree.children_of(node).expect("created node is alive") {
                if scratch.joined_leaf_ids.binary_search(&child.id).is_ok() {
                    continue; // already covered by per-joiner entries
                }
                let kek_slot = kek_slot_for(
                    &mut scratch.keks,
                    &mut scratch.kek_slots,
                    child.id,
                    child.version,
                    child.key,
                );
                scratch.plan.push(PlannedWrap {
                    kek_slot,
                    payload: new_key.clone(),
                    nonce: [0; NONCE_LEN],
                    meta: EntryMeta {
                        target: node,
                        target_version: new_version,
                        under: child.id,
                        under_version: child.version,
                        under_is_leaf: child.is_leaf,
                        recipient: child.member,
                        audience: child.audience as u32,
                        target_depth: depth,
                    },
                });
            }
        }
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
        // A join-only batch should cost ~2 entries per refreshed key
        // (self + joiner) rather than d entries.
        let (mut server, _, mut rng) = build_group(4, 64);
        let ik = Key::generate(&mut rng);
        let outcome = server.apply_batch(&[(MemberId(999), ik)], &[], &mut rng);
        let refreshed = outcome.stats.refreshed_keys;
        assert!(
            outcome.stats.encrypted_keys <= 2 * refreshed + 2,
            "join cost {} too high for {} refreshed keys",
            outcome.stats.encrypted_keys,
            refreshed
        );
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

    /// Scratch reuse across epochs must not leak state between batches.
    #[test]
    fn scratch_reuse_is_stateless_across_batches() {
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
