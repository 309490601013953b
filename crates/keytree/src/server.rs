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
//!     carries a [`KeyDerivation`](crate::message::KeyDerivation) in
//!     place of the wrap under C; X's other children get a wrap each,
//!     `d − 1` encryptions;
//!   - otherwise — the bottom of a leave path, an interior a split
//!     created over leaves, an empty tree's root over leaves — X gets
//!     a fresh random key, wrapped under the current key of *every*
//!     child, `d` encryptions (group-oriented rekeying, the cost model
//!     of Appendix A).
//! - **otherwise** only joins dirtied X: its key *advances* by the
//!   one-way step F, `K' = F(K)` ([`KeyTree::advance_key`]), and the
//!   message announces the advance
//!   ([`KeyAdvance`](crate::message::KeyAdvance)) instead of wrapping
//!   anything under X's previous version. Every member
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
//! A batch is processed in three sequential phases, all on the tree's
//! slot numbers (`tree` module):
//!
//! 1. **Mutation**: the tree structure is updated, and every node the
//!    batch touches is marked in one batch-local byte per slot:
//!    *compromised*, *join-only*, or the leaf of one of this batch's
//!    joiners. A leaver's path is marked compromised and a joiner's
//!    join-only, each walk stopping at the first ancestor that already
//!    carries that mark or a stronger one (everything above it does
//!    too); a slot the batch frees loses its mark and a slot it fills
//!    is marked afresh, so no node inherits the mark of one that held
//!    its slot before. This phase owns the caller's RNG and is
//!    inherently ordered.
//! 2. **Planning**: the marked nodes are sorted by [`NodeId`] — a slot
//!    number never decides anything. Compromised nodes over no
//!    compromised child get fresh keys from the caller's RNG and
//!    join-only nodes advance by F, in that ascending order; then the
//!    other compromised nodes derive by G, deepest first, so every
//!    source is new before its parent reads it. The dirty nodes are
//!    then sorted deepest first (stable, so ascending id within a
//!    depth), the batch's entries are counted, and one [`NonceRun`]
//!    start is drawn from the caller's RNG for the batch
//!    ([`LkhServer::plan_batch`]).
//! 3. **Execution**: that node order is walked and each wrap the node
//!    needs — read off its children's marks — takes the next nonce and
//!    its own header as associated data, and is sealed eight at a time
//!    across KEKs into the output entries ([`LaneSealer`]; the last
//!    fewer than eight one by one, [`EntryMeta::seal`]). It draws no
//!    randomness; the whole per-key cost sits here
//!    ([`LkhServer::seal_entries`]).
//!
//! A node's entries are contiguous and share its depth, so the
//! messages list entries deepest target first and number their
//! nonces consecutively in that order: the golden digests pin it, and
//! it is what lets the wire codec leave the nonces out
//! (`message::codec`, `NONCE_NEXT`). Planning counts the entries
//! exactly, so a caller sealing several trees into one message
//! reserves its entries once. The marks and the node order are a
//! [`PlannedBatch`] that sealing consumes, so the server holds its
//! state and nothing else between batches.
//!
//! Each phase runs under a `rekey_obs` span (`rekey.mutate`,
//! `rekey.plan`, `rekey.execute`), so per-phase wall clock shows up in
//! traces whenever a recorder is installed — and costs one atomic load
//! per phase when none is.

use crate::message::codec::{put_u64, DecodeError, Reader};
use crate::message::{EntryMeta, LaneSealer, RekeyEntry, RekeyMessage};
use crate::tree::{KeyTree, Placed, NO_SLOT};
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
    /// new): one [`KeyAdvance`](crate::message::KeyAdvance) each and no
    /// wrap under the previous key.
    pub advanced_keys: usize,
    /// Of those, the compromised nodes derived by G from a compromised
    /// child: one [`KeyDerivation`](crate::message::KeyDerivation) each
    /// and no wrap under that child.
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

// Marks a batch puts on the slots it touches, weakest first (module
// docs, "Performance architecture"); an unmarked slot holds 0.

/// The leaf of one of this batch's joiners: a changed child, not dirty.
const JOINED: u8 = 1;
/// Dirty, with only joins below: the key advances by F.
const JOIN_ONLY: u8 = 2;
/// Dirty, and its previous key cannot be advanced: a leaver of this
/// batch held it, or no member does — a leaf split of this batch
/// created the node, or it is the root of a tree that was empty.
const COMPROMISED: u8 = 3;

/// One batch's marks: a byte per slot of the tree, and every slot that
/// turned dirty — once per time it did, so a slot freed and filled
/// again may be listed twice, or listed unmarked.
struct Marks {
    of: Vec<u8>,
    dirty: Vec<u32>,
}

impl Marks {
    /// Marks for a batch of `joins` joiners on `tree`: each joiner
    /// fills at most two slots, its leaf and the interior of a split.
    fn new(tree: &KeyTree, joins: usize) -> Self {
        Marks {
            of: vec![0; tree.slot_count() + 2 * joins],
            dirty: Vec::new(),
        }
    }

    fn of(&self, slot: u32) -> u8 {
        self.of[slot as usize]
    }

    /// Puts `mark` on `slot`, whatever it carried before.
    fn set(&mut self, slot: u32, mark: u8) {
        let at = &mut self.of[slot as usize];
        if *at < JOIN_ONLY && mark >= JOIN_ONLY {
            self.dirty.push(slot);
        }
        *at = mark;
    }

    /// Raises `slot` and its ancestors to `mark`, up to the first that
    /// already carries `mark` or a stronger one: every ancestor of a
    /// marked node carries at least that node's path mark.
    fn raise_path(&mut self, tree: &KeyTree, slot: u32, mark: u8) {
        let mut walk = Some(slot);
        while let Some(slot) = walk.filter(|&slot| self.of(slot) < mark) {
            self.set(slot, mark);
            walk = tree.parent(slot);
        }
    }
}

/// One dirty node in sealing order: its depth, its slot and the slot
/// of the child its new key derives from ([`NO_SLOT`] if none).
type Sealing = (u32, u32, u32);

/// A batch applied to the tree and planned, waiting to be sealed by
/// the server that planned it ([`LkhServer::seal_entries`]) before its
/// next batch: what the planner hands to execution.
#[derive(Debug)]
pub struct PlannedBatch {
    epoch: u64,
    order: Vec<Sealing>,
    marks: Vec<u8>,
    nonces: NonceRun,
    stats: BatchStats,
}

impl PlannedBatch {
    /// The batch's statistics; `encrypted_keys` counts the entries
    /// sealing will append.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
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
    /// message: [`LkhServer::plan_batch`], then
    /// [`LkhServer::seal_entries`].
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
        let mut message = RekeyMessage::new(self.epoch + 1);
        let plan = self.plan_batch(joins, leaves, rng, &mut message)?;
        message.entries.reserve_exact(plan.stats.encrypted_keys);
        let stats = self.seal_entries(plan, &mut message.entries);
        Ok(BatchOutcome { message, stats })
    }

    /// Phases 1 and 2 of a batch (module docs): applies the joins and
    /// leaves, gives every dirty node its new key, appends the batch's
    /// advance and derivation records onto `message`, and returns what
    /// [`LkhServer::seal_entries`] needs to append its entries. Draws
    /// every random byte the batch uses, as
    /// [`LkhServer::try_apply_batch`] describes; sealing draws none, so
    /// callers may plan several trees before sealing them.
    ///
    /// # Errors
    ///
    /// As [`LkhServer::try_apply_batch`].
    pub fn plan_batch<R: RngCore>(
        &mut self,
        joins: &[(MemberId, Key)],
        leaves: &[MemberId],
        rng: &mut R,
        message: &mut RekeyMessage,
    ) -> Result<PlannedBatch, KeyTreeError> {
        self.epoch += 1;

        // ---- Phase 1: tree mutation -------------------------------
        let marks = {
            let _span = rekey_obs::span!("rekey.mutate");
            self.mutate_tree(joins, leaves, rng)?
        };

        // ---- Phase 2: new keys, then the order to seal them in ----
        let _span = rekey_obs::span!("rekey.plan");
        let tree = &mut self.tree;
        // The canonical order: ascending node id. A slot listed twice
        // holds one node; one listed unmarked was freed.
        let mut dirty: Vec<(NodeId, u32)> = marks
            .dirty
            .iter()
            .filter(|&&slot| marks.of(slot) >= JOIN_ONLY)
            .map(|&slot| (tree.node(slot).id, slot))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();

        // Tree shape is fixed from here on: one depth per dirty node
        // serves the derivation order, the entry order and the entry
        // headers.
        let mut order: Vec<Sealing> = Vec::with_capacity(dirty.len());
        let mut chained = Vec::new();
        let (mut compromised, mut entries) = (0, 0);
        message.advances.reserve(dirty.len());
        for &(_, slot) in &dirty {
            let depth = tree.depth(slot);
            let children = tree.children(slot);
            let source = if marks.of(slot) == JOIN_ONLY {
                // One wrap per changed child: dirty, or a joiner's leaf.
                entries += children.iter().filter(|&&c| marks.of(c) != 0).count();
                message.advances.push(tree.advance_at(slot));
                NO_SLOT
            } else {
                // The first compromised child in child order, if any (a
                // leaf is never marked compromised); one wrap per other
                // child.
                compromised += 1;
                let source = children
                    .iter()
                    .copied()
                    .find(|&c| marks.of(c) == COMPROMISED);
                entries += children.len() - usize::from(source.is_some());
                match source {
                    Some(source) => chained.push((depth, slot, source)),
                    None => {
                        tree.refresh_at(slot, rng);
                    }
                }
                source.unwrap_or(NO_SLOT)
            };
            order.push((depth, slot, source));
        }
        // Deepest first: a source is a child of its target, so it is
        // new (drawn above, or derived earlier here) before its target
        // reads it. The message lists them by target.
        chained.sort_by_key(|&(depth, ..)| std::cmp::Reverse(depth));
        let derived_from = message.derivations.len();
        message.derivations.reserve(chained.len());
        for &(_, slot, source) in &chained {
            message.derivations.push(tree.derive_at(slot, source));
        }
        message.derivations[derived_from..].sort_unstable_by_key(|derivation| derivation.target);
        // Deepest targets first => members decrypt in one pass. The
        // sort is stable, so nodes of one depth stay ascending and each
        // node's entries stay together in child order.
        order.sort_by_key(|&(depth, ..)| std::cmp::Reverse(depth));
        rekey_obs::count("rekey.nodes.derived", chained.len() as u64);
        rekey_obs::count("rekey.nodes.compromised", compromised as u64);
        rekey_obs::count("rekey.nodes.join_only", (dirty.len() - compromised) as u64);
        Ok(PlannedBatch {
            epoch: self.epoch,
            order,
            marks: marks.of,
            // One nonce start per batch, drawn after every new key; the
            // entries are numbered from it in message order.
            nonces: NonceRun::draw(rng),
            stats: BatchStats {
                joins: joins.len(),
                leaves: leaves.len(),
                refreshed_keys: dirty.len(),
                advanced_keys: dirty.len() - compromised,
                derived_keys: chained.len(),
                encrypted_keys: entries,
            },
        })
    }

    /// Phase 3 of a batch (module docs): seals every wrap `plan` names
    /// onto `entries`, node by node deepest first, each under the next
    /// nonce of the batch, eight at a time ([`LaneSealer`]). One rule per dirty node (module header): a
    /// compromised node's new key goes under the current key of every
    /// child but the one it was derived from; an advanced node's goes
    /// under each changed child only — a dirty child's new version or
    /// the leaf of one of this batch's joiners. Returns the batch's
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics unless `plan` is this server's latest planned batch.
    pub fn seal_entries(&self, plan: PlannedBatch, entries: &mut Vec<RekeyEntry>) -> BatchStats {
        assert_eq!(plan.epoch, self.epoch, "a plan is sealed by its own batch");
        let _span = rekey_obs::span!("rekey.execute");
        let PlannedBatch {
            order,
            marks,
            mut nonces,
            stats,
            ..
        } = plan;
        let tree = &self.tree;
        let mut lanes = LaneSealer::new();
        for &(depth, slot, source) in &order {
            let node = tree.node(slot);
            let compromised = marks[slot as usize] == COMPROMISED;
            for &c in tree.children(slot) {
                if c == source {
                    continue; // derives the new key by G: no wrap
                }
                if !compromised && marks[c as usize] == 0 {
                    continue; // holds the previous version: advances by F
                }
                let child = tree.node(c);
                let meta = EntryMeta {
                    target: node.id,
                    target_version: node.version,
                    under: child.id,
                    under_version: child.version,
                    under_is_leaf: child.is_leaf(),
                    recipient: child.member(),
                    audience: child.leaf_count(),
                    target_depth: depth,
                };
                lanes.push(meta, &child.key, &node.key, nonces.take(), entries);
            }
        }
        lanes.finish(entries);
        rekey_obs::count("rekey.encrypted_keys", stats.encrypted_keys as u64);
        stats
    }

    /// Phase 1: applies the membership changes to the tree and marks
    /// every node they touch.
    fn mutate_tree<R: RngCore>(
        &mut self,
        joins: &[(MemberId, Key)],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<Marks, KeyTreeError> {
        let tree = &mut self.tree;
        let mut marks = Marks::new(tree, joins.len());
        let was_empty = tree.member_count() == 0;
        if was_empty && !joins.is_empty() {
            // No member holds the root key, so nothing may advance it:
            // the first key anyone receives is fresh.
            marks.set(tree.root_slot(), COMPROMISED);
        }

        // Slots vacated by departures are re-used for joiners
        // ([YLZL01] batch rekeying): with J = L the join paths then
        // coincide with the leave paths and the batch costs Ne(N, L).
        // A vacancy whose node a later leaver's promotion freed is
        // passed over: until the first split, a freed slot can only be
        // refilled by a joiner's leaf, which takes no joiner.
        let mut vacancies = VecDeque::with_capacity(leaves.len());
        for &member in leaves {
            let removed = tree.remove(member)?;
            if let Some(freed) = removed.promoted {
                marks.set(freed, 0);
            }
            marks.raise_path(tree, removed.dirty_from, COMPROMISED);
            vacancies.push_back(removed.dirty_from);
        }

        // A join-only batch into a live tree keeps its joiners beside
        // the newest interior its splits made (`KeyTree::insert_member`),
        // so they share the ancestors they dirty. Any other batch places
        // each joiner by balanced descent alone: clustering it too costs
        // `steady-16k` and `restart-16k` keys (module docs, "Placement").
        let clusters = leaves.is_empty() && !was_empty;
        let mut cluster = None;
        for (member, individual_key) in joins {
            let mut leaf = None;
            while let Some(slot) = vacancies.pop_front() {
                leaf = tree.insert_at(*member, individual_key.clone(), slot)?;
                if leaf.is_some() {
                    break;
                }
            }
            let placed = match leaf {
                Some(leaf) => Placed { leaf, split: None },
                None => tree.insert(*member, individual_key.clone(), cluster, rng)?,
            };
            marks.set(placed.leaf, JOINED);
            if let Some(split) = placed.split {
                // New, so compromised; the nodes above only gained a
                // member.
                marks.set(split, COMPROMISED);
                if clusters {
                    cluster = Some(split);
                }
            }
            let above = placed.split.unwrap_or(placed.leaf);
            let above = tree.parent(above).expect("a split never makes the root");
            marks.raise_path(tree, above, JOIN_ONLY);
        }
        Ok(marks)
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
