//! The logical key tree data structure.
//!
//! A [`KeyTree`] is a d-ary tree of key nodes maintained by the key
//! server. The root holds the (sub)group key, interior nodes hold
//! auxiliary key-encryption keys, and each leaf holds the individual
//! key shared between one member and the server (Fig. 1 of the paper).
//!
//! The tree keeps itself balanced on insertion by always descending
//! into the lightest subtree (a join-only batch may keep a joiner
//! beside its own splits instead, [`KeyTree::insert_member`]), and
//! repairs itself on removal by promoting single children of non-root
//! interior nodes. Structure mutation is separated from rekeying:
//! a mutation reports the lowest surviving node whose key must be
//! refreshed — it and every ancestor above it are *dirty* —, and
//! [`crate::server::LkhServer`] turns those into rekey messages.
//!
//! Nodes live in a dense slot table: one fixed-size record per node in
//! one `Vec`, linked to its parent and children by slot number, so no
//! node owns a heap allocation. The batch planner works on slots
//! alone; `NodeId`s and `MemberId`s are looked up only at the public
//! API and once per member change.

use crate::message::codec::{ensure, put_u32, put_u64, DecodeError, Reader};
use crate::message::{KeyAdvance, KeyDerivation};
use crate::{KeyTreeError, MemberId, NodeId};
use rand::RngCore;
use rekey_crypto::keywrap::{advance, derive, ADVANCE_CHECK_LEN, DERIVE_CHECK_LEN};
use rekey_crypto::Key;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Multiply-shift hash of one `u64`, for the [`NodeId`]-keyed slot
/// index. Node ids are counters this server assigns (a namespace over a
/// 40-bit count), not input an adversary picks, so they need no keyed
/// hash. Tables keyed by [`MemberId`], which clients do choose, keep
/// the default hasher.
#[derive(Debug, Clone, Copy, Default)]
struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn write_u64(&mut self, id: u64) {
        // Odd multiplier (2^64 / golden ratio); folding the high half
        // down gives the table's low index bits the well-mixed ones.
        let product = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        // `NodeId` hashes as one `u64`; anything else folds in bytewise.
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type SlotIndex = HashMap<NodeId, u32, BuildHasherDefault<NodeIdHasher>>;

/// Version byte leading a serialized [`KeyTree`].
pub const TREE_WIRE_VERSION: u8 = 1;

/// Largest tree degree: every node reserves d child slots, so d bounds
/// the table's size per node (and what a decoded degree may allocate).
pub const MAX_DEGREE: usize = 256;

/// Serialized size of one node: id, parent position, member flag, key
/// and version. A leaf adds its 8-byte member id.
const NODE_RECORD_LEN: usize = 8 + 4 + 1 + 32 + 8;

/// The slot number that names no node: the root's parent.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// One node of the key tree: a fixed-size record of the slot table,
/// one cache line.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) key: Key,
    pub(crate) version: u64,
    /// A leaf's member id; an interior node's leaf count.
    holder: u64,
    /// Slot of the parent; [`NO_SLOT`] for the root.
    pub(crate) parent: u32,
    /// Number of children, listed first in the node's child slots.
    arity: u16,
    /// [`LEAF`] and [`LIVE`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Node>() == 64);

/// [`Node::flags`]: the node is a member's leaf.
const LEAF: u8 = 1;
/// [`Node::flags`]: the slot holds a node; a free slot waits on the
/// free list.
const LIVE: u8 = 2;

impl Node {
    /// A childless live node at version 0.
    fn new(id: NodeId, member: Option<MemberId>, parent: u32, key: Key) -> Node {
        Node {
            id,
            key,
            version: 0,
            holder: member.map_or(0, |m| m.0),
            parent,
            arity: 0,
            flags: LIVE | if member.is_some() { LEAF } else { 0 },
        }
    }

    /// The member whose leaf this is; `None` for an interior node.
    pub(crate) fn member(&self) -> Option<MemberId> {
        self.is_leaf().then_some(MemberId(self.holder))
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.flags & LEAF != 0
    }

    fn is_live(&self) -> bool {
        self.flags & LIVE != 0
    }

    /// Number of leaves in this node's subtree (1 for a leaf).
    pub(crate) fn leaf_count(&self) -> u32 {
        if self.is_leaf() {
            1
        } else {
            self.holder as u32
        }
    }

    /// Adds `delta` (wrapping) to an interior node's leaf count.
    fn add_leaves(&mut self, delta: u32) {
        debug_assert!(!self.is_leaf(), "a leaf counts itself");
        self.holder = u64::from((self.holder as u32).wrapping_add(delta));
    }
}

/// A balanced d-ary logical key tree.
///
/// The root node always exists (it is created with the tree and its
/// [`NodeId`] never changes), even while the tree holds no members;
/// this lets a group-key manager wrap a data-encryption key under the
/// subtree root unconditionally.
#[derive(Debug, Clone)]
pub struct KeyTree {
    degree: usize,
    namespace: u32,
    /// The slot table; a live node never changes slot.
    nodes: Vec<Node>,
    /// d child slots per node, in child order: slot s's children are
    /// `children[s·d .. s·d + arity]`.
    children: Vec<u32>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
    /// Slot of every live node, for the `NodeId` API alone: built by
    /// the first lookup after a change of shape, so neither a batch nor
    /// a decode pays for it.
    index_of: OnceLock<SlotIndex>,
    /// Slot of every member's leaf.
    leaf_of: HashMap<MemberId, u32>,
    root: u32,
    next_counter: u64,
}

/// Slots a member's insertion filled (see [`KeyTree::insert_member`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placed {
    /// The new leaf.
    pub(crate) leaf: u32,
    /// The interior a leaf split interposed, if any: the leaf's parent.
    pub(crate) split: Option<u32>,
}

/// What a member's removal did (see [`KeyTree::remove_member`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Removed {
    /// The lowest surviving node the leaver's key path reached; it and
    /// its ancestors must be refreshed.
    pub(crate) dirty_from: u32,
    /// The interior freed by promoting its single remaining child.
    pub(crate) promoted: Option<u32>,
}

impl KeyTree {
    /// Creates an empty tree of the given degree whose node ids live in
    /// `namespace`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= degree <= MAX_DEGREE`.
    pub fn new<R: RngCore>(degree: usize, namespace: u32, rng: &mut R) -> Self {
        assert!(degree >= 2, "key tree degree must be at least 2");
        assert!(
            degree <= MAX_DEGREE,
            "key tree degree must be at most {MAX_DEGREE}"
        );
        let mut tree = KeyTree {
            degree,
            namespace,
            nodes: Vec::new(),
            children: Vec::new(),
            free: Vec::new(),
            index_of: OnceLock::new(),
            leaf_of: HashMap::new(),
            root: 0,
            next_counter: 0,
        };
        let root_id = tree.fresh_id();
        tree.root = tree.alloc(root_id, None, NO_SLOT, Key::generate(rng));
        tree
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = NodeId::from_parts(self.namespace, self.next_counter);
        self.next_counter += 1;
        id
    }

    /// Puts a childless node into a free slot (the last one freed) or a
    /// new one, at version 0 and with a leaf count of 1 for a leaf.
    fn alloc(&mut self, id: NodeId, member: Option<MemberId>, parent: u32, key: Key) -> u32 {
        let node = Node::new(id, member, parent, key);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.children
                    .resize(self.nodes.len() * self.degree, NO_SLOT);
                (self.nodes.len() - 1) as u32
            }
        };
        self.index_of.take();
        slot
    }

    fn dealloc(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.flags &= !LIVE;
        self.index_of.take();
        self.free.push(slot);
    }

    /// The record in `slot`.
    pub(crate) fn node(&self, slot: u32) -> &Node {
        &self.nodes[slot as usize]
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node {
        &mut self.nodes[slot as usize]
    }

    /// Number of slots, live or free: every slot number is below it.
    pub(crate) fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// The children of `slot`, in child order.
    pub(crate) fn children(&self, slot: u32) -> &[u32] {
        let at = slot as usize * self.degree;
        &self.children[at..at + self.node(slot).arity as usize]
    }

    fn push_child(&mut self, parent: u32, child: u32) {
        let arity = self.node(parent).arity as usize;
        self.children[parent as usize * self.degree + arity] = child;
        self.node_mut(parent).arity += 1;
    }

    /// Index of `child` among `parent`'s children.
    fn child_position(&self, parent: u32, child: u32) -> usize {
        self.children(parent)
            .iter()
            .position(|&c| c == child)
            .expect("child listed under parent")
    }

    /// Puts `new` where `old` stood among `parent`'s children.
    fn replace_child(&mut self, parent: u32, old: u32, new: u32) {
        let pos = self.child_position(parent, old);
        self.children[parent as usize * self.degree + pos] = new;
    }

    /// Removes `child` from `parent`'s children, keeping their order.
    fn remove_child(&mut self, parent: u32, child: u32) {
        let pos = self.child_position(parent, child);
        let at = parent as usize * self.degree;
        let arity = self.node(parent).arity as usize;
        self.children
            .copy_within(at + pos + 1..at + arity, at + pos);
        self.node_mut(parent).arity -= 1;
    }

    /// `index_of`, built if a change of shape dropped it.
    fn index(&self) -> &SlotIndex {
        self.index_of.get_or_init(|| {
            let mut index =
                SlotIndex::with_capacity_and_hasher(self.node_count(), Default::default());
            for (slot, node) in self.nodes.iter().enumerate() {
                if node.is_live() {
                    index.insert(node.id, slot as u32);
                }
            }
            index
        })
    }

    fn slot_of(&self, node: NodeId) -> Option<u32> {
        self.index().get(&node).copied()
    }

    /// The tree degree d.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The namespace node ids are drawn from.
    pub fn namespace(&self) -> u32 {
        self.namespace
    }

    /// Id of the root node (stable for the lifetime of the tree).
    pub fn root_id(&self) -> NodeId {
        self.node(self.root).id
    }

    /// Slot of the root node.
    pub(crate) fn root_slot(&self) -> u32 {
        self.root
    }

    /// Current root (subgroup) key.
    pub fn root_key(&self) -> &Key {
        &self.node(self.root).key
    }

    /// Current version of the root key.
    pub fn root_version(&self) -> u64 {
        self.node(self.root).version
    }

    /// Number of members (leaves).
    pub fn member_count(&self) -> usize {
        self.leaf_of.len()
    }

    /// Whether `member` is in this tree.
    pub fn contains(&self, member: MemberId) -> bool {
        self.leaf_of.contains_key(&member)
    }

    /// Total number of live key nodes (including the root and leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Height of the tree: number of edges on the longest root-to-leaf
    /// path (0 for an empty tree).
    pub fn height(&self) -> usize {
        fn depth_below(tree: &KeyTree, slot: u32) -> usize {
            tree.children(slot)
                .iter()
                .map(|&c| 1 + depth_below(tree, c))
                .max()
                .unwrap_or(0)
        }
        depth_below(self, self.root)
    }

    /// Key and version currently stored at `node`, if it exists.
    pub fn key_of(&self, node: NodeId) -> Option<(&Key, u64)> {
        let n = self.node(self.slot_of(node)?);
        Some((&n.key, n.version))
    }

    /// The member's leaf node id.
    pub fn leaf_of(&self, member: MemberId) -> Option<NodeId> {
        self.leaf_of.get(&member).map(|&slot| self.node(slot).id)
    }

    /// Depth of `node` (root = 0), if it exists.
    pub fn depth_of(&self, node: NodeId) -> Option<usize> {
        Some(self.depth(self.slot_of(node)?) as usize)
    }

    /// Depth of the node in `slot` (root = 0).
    pub(crate) fn depth(&self, mut slot: u32) -> u32 {
        let mut depth = 0;
        while let Some(parent) = self.parent(slot) {
            slot = parent;
            depth += 1;
        }
        depth
    }

    /// Slot of the parent of the node in `slot`; `None` for the root.
    pub(crate) fn parent(&self, slot: u32) -> Option<u32> {
        let parent = self.node(slot).parent;
        (parent != NO_SLOT).then_some(parent)
    }

    /// Node ids on the path from the member's leaf (exclusive) to the
    /// root (inclusive) — exactly the auxiliary keys the member holds
    /// in addition to its individual key.
    pub fn path_of(&self, member: MemberId) -> Result<Vec<NodeId>, KeyTreeError> {
        let leaf = *self
            .leaf_of
            .get(&member)
            .ok_or(KeyTreeError::UnknownMember(member))?;
        Ok(
            std::iter::successors(self.parent(leaf), |&slot| self.parent(slot))
                .map(|slot| self.node(slot).id)
                .collect(),
        )
    }

    /// All members in the subtree rooted at `node` (empty if the node
    /// does not exist).
    pub fn members_under(&self, node: NodeId) -> Vec<MemberId> {
        let mut members = Vec::new();
        self.members_under_into(node, &mut members);
        members
    }

    /// Appends all members in the subtree rooted at `node` to `out`
    /// (nothing if the node does not exist). Buffer-reusing variant of
    /// [`KeyTree::members_under`] for hot loops that query many nodes:
    /// the caller clears and reuses one `Vec` instead of allocating a
    /// fresh one per node.
    pub fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        let Some(start) = self.slot_of(node) else {
            return;
        };
        let mut stack = vec![start];
        while let Some(slot) = stack.pop() {
            if let Some(m) = self.node(slot).member() {
                out.push(m);
            }
            stack.extend(self.children(slot));
        }
    }

    /// Iterates over all members currently in the tree.
    pub fn members(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.leaf_of.keys().copied()
    }

    fn live_slot(&self, node: NodeId) -> u32 {
        self.slot_of(node).expect("node is alive")
    }

    /// Installs a fresh random key at `node`, bumping its version.
    /// Returns the `(version, key)` it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist (callers refresh only nodes
    /// they just observed alive).
    pub fn refresh_key<R: RngCore>(&mut self, node: NodeId, rng: &mut R) -> (u64, Key) {
        self.refresh_at(self.live_slot(node), rng)
    }

    /// [`KeyTree::refresh_key`] of the node in `slot`.
    pub(crate) fn refresh_at<R: RngCore>(&mut self, slot: u32, rng: &mut R) -> (u64, Key) {
        let key = Key::generate(rng);
        let n = self.node_mut(slot);
        let replaced = (n.version, std::mem::replace(&mut n.key, key));
        n.version += 1;
        replaced
    }

    /// Advances the key at `node` by the one-way step F
    /// ([`rekey_crypto::keywrap::advance`]), bumping its version; draws
    /// no randomness. Returns the `(version, key)` it replaced and the
    /// check a holder of that key verifies the new one with.
    ///
    /// Every holder of the replaced key can compute the new one, so the
    /// server advances a node only when no such holder may lose access:
    /// no leaver held it and nobody new was put below it without also
    /// receiving it through a changed child (`LkhServer`'s rule).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn advance_key(&mut self, node: NodeId) -> (u64, Key, [u8; ADVANCE_CHECK_LEN]) {
        let slot = self.live_slot(node);
        let n = self.node(slot);
        let replaced = (n.version, n.key.clone());
        let record = self.advance_at(slot);
        (replaced.0, replaced.1, record.check)
    }

    /// [`KeyTree::advance_key`] of the node in `slot`, as the record
    /// that announces it.
    pub(crate) fn advance_at(&mut self, slot: u32) -> KeyAdvance {
        let n = self.node_mut(slot);
        let (key, check) = advance(&n.key);
        n.key = key;
        n.version += 1;
        KeyAdvance {
            node: n.id,
            version: n.version,
            check,
        }
    }

    /// Installs at `node` the chain derivation G of `source`'s current
    /// key ([`rekey_crypto::keywrap::derive`]), bumping `node`'s
    /// version; draws no randomness. Returns the record that announces
    /// it, whose check a holder of `source`'s key verifies.
    ///
    /// Every holder of `source`'s key can compute the new one, so the
    /// server derives only from a child whose key it drew (or derived)
    /// in the same batch (`LkhServer`'s rule).
    ///
    /// # Panics
    ///
    /// Panics if `node` or `source` does not exist.
    pub fn derive_key(&mut self, node: NodeId, source: NodeId) -> KeyDerivation {
        self.derive_at(self.live_slot(node), self.live_slot(source))
    }

    /// [`KeyTree::derive_key`] of the node in `slot` from the one in
    /// `source`.
    pub(crate) fn derive_at(&mut self, slot: u32, source: u32) -> KeyDerivation {
        let mut record = KeyDerivation {
            target: self.node(slot).id,
            version: self.node(slot).version + 1,
            source: self.node(source).id,
            check: [0; DERIVE_CHECK_LEN],
        };
        let (key, check) = derive(&self.node(source).key, &record.binding());
        record.check = check;
        let n = self.node_mut(slot);
        n.key = key;
        n.version = record.version;
        record
    }

    /// Inserts a new member leaf holding `individual_key`.
    ///
    /// The joiner descends into the lightest subtree until it finds an
    /// interior node with spare capacity, and goes there. Where the
    /// descent ends at a leaf instead, a split is due; with a `cluster`
    /// — the newest interior a split of the caller's batch made — the
    /// joiner stays beside the batch's earlier joiners:
    /// 1. under `cluster` itself, while it has fewer than d − 1
    ///    children;
    /// 2. else it splits the first leaf child of `cluster`'s parent;
    /// 3. else it splits the leaf its descent found.
    ///
    /// Returns the new leaf, its parent — the first node whose key must
    /// be refreshed to preserve backward confidentiality; it and its
    /// ancestors are the new member's path — and the interior node
    /// created if a leaf had to be split.
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::DuplicateMember`] if the member is
    /// already in the tree.
    pub fn insert_member<R: RngCore>(
        &mut self,
        member: MemberId,
        individual_key: Key,
        cluster: Option<NodeId>,
        rng: &mut R,
    ) -> Result<InsertOutcome, KeyTreeError> {
        let cluster = cluster.and_then(|id| self.slot_of(id));
        let placed = self.insert(member, individual_key, cluster, rng)?;
        Ok(self.outcome(placed))
    }

    fn outcome(&self, placed: Placed) -> InsertOutcome {
        let leaf = self.node(placed.leaf);
        InsertOutcome {
            leaf: leaf.id,
            parent: self.node(leaf.parent).id,
            created_interior: placed.split.map(|slot| self.node(slot).id),
        }
    }

    /// [`KeyTree::insert_member`] with the cluster as a slot.
    pub(crate) fn insert<R: RngCore>(
        &mut self,
        member: MemberId,
        individual_key: Key,
        cluster: Option<u32>,
        rng: &mut R,
    ) -> Result<Placed, KeyTreeError> {
        if self.contains(member) {
            return Err(KeyTreeError::DuplicateMember(member));
        }

        // Descend into the lightest subtree until we find spare
        // capacity or a leaf to split.
        let mut at = self.root;
        loop {
            let n = self.node(at);
            if n.is_leaf() {
                break; // leaf: split below
            }
            if (n.arity as usize) < self.degree {
                break; // interior node with spare capacity
            }
            at = *self
                .children(at)
                .iter()
                .min_by_key(|&&c| self.node(c).leaf_count())
                .expect("full interior node has children");
        }
        if let Some(cluster) = cluster {
            if self.node(at).is_leaf() {
                let c = self.node(cluster);
                let parent = self.parent(cluster).expect("a split never makes the root");
                if (c.arity as usize) < self.degree - 1 {
                    at = cluster;
                } else if let Some(&leaf) = self
                    .children(parent)
                    .iter()
                    .find(|&&sibling| self.node(sibling).is_leaf())
                {
                    at = leaf;
                }
            }
        }

        let leaf_id = self.fresh_id();
        let mut split = None;
        if self.node(at).is_leaf() {
            // Split leaf `at`: interpose a new interior node holding
            // [old leaf, new leaf].
            let interior_id = self.fresh_id();
            let old_parent = self.node(at).parent;
            let interior = self.alloc(interior_id, None, old_parent, Key::generate(rng));
            self.replace_child(old_parent, at, interior);
            self.push_child(interior, at);
            self.node_mut(interior).add_leaves(1);
            self.node_mut(at).parent = interior;
            split = Some(interior);
            at = interior;
        }
        let leaf = self.attach(member, leaf_id, individual_key, at);
        Ok(Placed { leaf, split })
    }

    /// Puts a new leaf for `member` under the interior `parent` and
    /// counts it into every subtree above.
    fn attach(&mut self, member: MemberId, id: NodeId, individual_key: Key, parent: u32) -> u32 {
        let leaf = self.alloc(id, Some(member), parent, individual_key);
        self.push_child(parent, leaf);
        self.leaf_of.insert(member, leaf);
        let mut walk = Some(parent);
        while let Some(slot) = walk {
            self.node_mut(slot).add_leaves(1);
            walk = self.parent(slot);
        }
        leaf
    }

    /// Attaches a new member leaf directly under `parent` if that node
    /// is still alive, interior, and has spare capacity — used by
    /// batched rekeying to re-use the slots vacated by departures
    /// (\[YLZL01\]), which keeps the batch cost at `Ne(N, L)` when
    /// `J = L`.
    ///
    /// Returns `Ok(None)` when the slot is unusable (caller falls back
    /// to [`KeyTree::insert_member`]).
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::DuplicateMember`] if the member is
    /// already in the tree.
    pub fn insert_member_at(
        &mut self,
        member: MemberId,
        individual_key: Key,
        parent: NodeId,
    ) -> Result<Option<InsertOutcome>, KeyTreeError> {
        let Some(parent) = self.slot_of(parent) else {
            if self.contains(member) {
                return Err(KeyTreeError::DuplicateMember(member));
            }
            return Ok(None);
        };
        let placed = self.insert_at(member, individual_key, parent)?;
        Ok(placed.map(|leaf| self.outcome(Placed { leaf, split: None })))
    }

    /// [`KeyTree::insert_member_at`] under the node in `parent`, which
    /// may be a free slot; returns the new leaf's slot.
    pub(crate) fn insert_at(
        &mut self,
        member: MemberId,
        individual_key: Key,
        parent: u32,
    ) -> Result<Option<u32>, KeyTreeError> {
        if self.contains(member) {
            return Err(KeyTreeError::DuplicateMember(member));
        }
        let p = self.node(parent);
        if !p.is_live() || p.is_leaf() || p.arity as usize >= self.degree {
            return Ok(None);
        }
        let leaf_id = self.fresh_id();
        Ok(Some(self.attach(member, leaf_id, individual_key, parent)))
    }

    /// Removes a member's leaf.
    ///
    /// Returns the lowest surviving node whose key the departed member
    /// knew: it and every ancestor above it must be refreshed to
    /// preserve forward confidentiality.
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::UnknownMember`] if the member is not in
    /// the tree.
    pub fn remove_member(&mut self, member: MemberId) -> Result<NodeId, KeyTreeError> {
        let removed = self.remove(member)?;
        Ok(self.node(removed.dirty_from).id)
    }

    /// [`KeyTree::remove_member`] in slots.
    pub(crate) fn remove(&mut self, member: MemberId) -> Result<Removed, KeyTreeError> {
        let leaf = self
            .leaf_of
            .remove(&member)
            .ok_or(KeyTreeError::UnknownMember(member))?;
        let parent = self.node(leaf).parent;

        // Detach and free the leaf.
        self.remove_child(parent, leaf);
        self.dealloc(leaf);

        // Decrement leaf counts up to the root.
        let mut walk = Some(parent);
        while let Some(slot) = walk {
            self.node_mut(slot).add_leaves(u32::MAX);
            walk = self.parent(slot);
        }

        // Repair: a non-root interior node with a single child is
        // redundant; promote the child into its place.
        match (self.parent(parent), self.node(parent).arity) {
            (Some(grand), 1) => {
                let only_child = self.children(parent)[0];
                self.replace_child(grand, parent, only_child);
                self.node_mut(only_child).parent = grand;
                self.dealloc(parent);
                Ok(Removed {
                    dirty_from: grand,
                    promoted: Some(parent),
                })
            }
            _ => Ok(Removed {
                dirty_from: parent,
                promoted: None,
            }),
        }
    }

    /// Serializes the tree's *logical* state onto `buf`: degree,
    /// namespace, id counter, and every live node (id, member, key,
    /// version) in breadth-first order with per-parent child order
    /// preserved.
    ///
    /// Child order is semantically significant — insertion descends
    /// into the first lightest subtree and batch planning walks
    /// children in order, so a decoded tree reproduces the original's
    /// future behaviour byte for byte. Slot numbers and the free list
    /// are *not* serialized; they never influence decisions.
    ///
    /// The format follows the `message::codec` conventions: a leading
    /// version byte ([`TREE_WIRE_VERSION`]) and big-endian integers.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(
            1 + 4 + 4 + 8 + 4 + self.node_count() * NODE_RECORD_LEN + self.member_count() * 8,
        );
        buf.push(TREE_WIRE_VERSION);
        put_u32(buf, self.degree as u32);
        put_u32(buf, self.namespace);
        put_u64(buf, self.next_counter);
        put_u32(buf, self.node_count() as u32);
        // Breadth-first walk; each record names its parent by the
        // parent's position in this stream (u32::MAX for the root).
        // Positions are looked up by slot; a free slot is never a
        // parent, so its entry is never read.
        let mut order: Vec<u32> = Vec::with_capacity(self.node_count());
        let mut pos_of = vec![u32::MAX; self.nodes.len()];
        order.push(self.root);
        pos_of[self.root as usize] = 0;
        let mut at = 0;
        while at < order.len() {
            let slot = order[at];
            let n = self.node(slot);
            let parent_pos = self.parent(slot).map_or(u32::MAX, |p| pos_of[p as usize]);
            put_u64(buf, n.id.0);
            put_u32(buf, parent_pos);
            match n.member() {
                Some(m) => {
                    buf.push(1);
                    put_u64(buf, m.0);
                }
                None => buf.push(0),
            }
            buf.extend_from_slice(n.key.as_bytes());
            put_u64(buf, n.version);
            for &c in self.children(slot) {
                pos_of[c as usize] = order.len() as u32;
                order.push(c);
            }
            at += 1;
        }
    }

    /// Decodes a tree serialized by [`KeyTree::encode_into`] off the
    /// front of `r`, each node into the slot of its position in the
    /// stream. [`DecodeError::Invalid`] for an unknown version or a
    /// structurally invalid node table (degree out of range, bad parent
    /// reference, a parent with more than d children, an id outside
    /// this tree's namespace and counter, duplicate member, leaf with
    /// children, root marked as a leaf). No id is looked up: the `NodeId` index is built by
    /// the first lookup.
    pub fn decode(r: &mut Reader<'_>) -> Result<KeyTree, DecodeError> {
        r.expect(TREE_WIRE_VERSION)?;
        let degree = r.u32()? as usize;
        ensure((2..=MAX_DEGREE).contains(&degree))?;
        let namespace = r.u32()?;
        let next_counter = r.u64()?;
        let count = r.u32()? as usize;
        ensure(count > 0)?;
        let capacity = r.bounded(count as u64, NODE_RECORD_LEN);
        let mut tree = KeyTree {
            degree,
            namespace,
            nodes: Vec::with_capacity(capacity),
            children: vec![NO_SLOT; capacity * degree],
            free: Vec::new(),
            index_of: OnceLock::new(),
            leaf_of: HashMap::with_capacity(capacity),
            root: 0,
            next_counter,
        };
        for i in 0..count {
            let slot = i as u32;
            let id = NodeId(r.u64()?);
            let parent_pos = r.u32()?;
            let parent = if parent_pos == u32::MAX {
                // Only the first record may be the root.
                ensure(i == 0)?;
                NO_SLOT
            } else {
                // Breadth-first order: parents strictly precede their
                // children in the stream.
                ensure(parent_pos < slot)?;
                parent_pos
            };
            let member = match r.u8()? {
                0 => None,
                1 => Some(MemberId(r.u64()?)),
                _ => return Err(DecodeError::Invalid),
            };
            ensure(i != 0 || member.is_none())?; // the root is never a leaf
            let key = Key::from_bytes(*r.array()?);
            let version = r.u64()?;
            ensure(id.namespace() == namespace && id.counter() < next_counter)?;
            if let Some(m) = member {
                ensure(tree.leaf_of.insert(m, slot).is_none())?;
            }
            if parent != NO_SLOT {
                let p = tree.node(parent);
                // Leaves have no children, interiors at most d.
                ensure(!p.is_leaf() && (p.arity as usize) < degree)?;
                tree.push_child(parent, slot);
            }
            let mut node = Node::new(id, member, parent, key);
            node.version = version;
            tree.nodes.push(node);
            tree.children.resize(tree.nodes.len() * degree, NO_SLOT);
        }
        // Children appear after their parents, so one reverse sweep
        // settles every subtree leaf count.
        for slot in (1..count as u32).rev() {
            let n = tree.node(slot);
            let (leaves, parent) = (n.leaf_count(), n.parent);
            tree.node_mut(parent).add_leaves(leaves);
        }
        Ok(tree)
    }

    /// Verifies internal structural invariants; used by tests.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any invariant is violated.
    pub fn check_invariants(&self) {
        assert!(self.parent(self.root).is_none(), "root has a parent");
        assert!(!self.node(self.root).is_leaf(), "root must not be a leaf");
        let mut seen_members = 0usize;
        let mut seen_nodes = 0usize;
        let mut stack = vec![self.root];
        while let Some(slot) = stack.pop() {
            let n = self.node(slot);
            seen_nodes += 1;
            assert!(n.is_live(), "node {} sits in a free slot", n.id);
            assert_eq!(
                self.index().get(&n.id),
                Some(&slot),
                "id index out of sync for {}",
                n.id
            );
            if let Some(m) = n.member() {
                assert_eq!(n.arity, 0, "leaf {m} has children");
                assert_eq!(self.leaf_of.get(&m), Some(&slot), "leaf map out of sync");
                seen_members += 1;
            } else {
                assert!(
                    n.arity as usize <= self.degree,
                    "node {} exceeds degree",
                    n.id
                );
                if slot != self.root {
                    assert!(
                        n.arity >= 2,
                        "non-root interior node {} has {} children",
                        n.id,
                        n.arity
                    );
                }
                let sum: u32 = self
                    .children(slot)
                    .iter()
                    .map(|&c| self.node(c).leaf_count())
                    .sum();
                assert_eq!(n.leaf_count(), sum, "leaf_count mismatch at {}", n.id);
                for &c in self.children(slot) {
                    assert_eq!(
                        self.node(c).parent,
                        slot,
                        "child/parent link broken at {}",
                        n.id
                    );
                    stack.push(c);
                }
            }
        }
        assert_eq!(seen_members, self.leaf_of.len(), "member count mismatch");
        assert_eq!(seen_nodes, self.index().len(), "node count mismatch");
        assert_eq!(
            seen_nodes + self.free.len(),
            self.nodes.len(),
            "a slot is neither live nor free"
        );
        assert!(
            self.free.iter().all(|&slot| !self.node(slot).is_live()),
            "a free slot holds a node"
        );
    }
}

/// Result of [`KeyTree::insert_member`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Node id of the member's new leaf.
    pub leaf: NodeId,
    /// The leaf's parent: the first node whose key must be refreshed.
    /// It and its ancestors are the member's path
    /// ([`KeyTree::path_of`]).
    pub parent: NodeId,
    /// Interior node created if insertion split a leaf.
    pub created_interior: Option<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Consecutive counters in one namespace — the only keys the slot
    /// index ever sees — must spread over both ends of the hash: the
    /// table takes its bucket from the low bits and its 7-bit tag from
    /// the top ones.
    #[test]
    fn node_id_hasher_spreads_consecutive_ids() {
        let build = BuildHasherDefault::<NodeIdHasher>::default();
        let hashes: Vec<u64> = (0..4096)
            .map(|counter| build.hash_one(NodeId::from_parts(3, counter)))
            .collect();
        let distinct = |f: fn(u64) -> u64| {
            hashes
                .iter()
                .map(|&h| f(h))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(distinct(|h| h & 0xfff) > 2400, "4096 ids over 4096 buckets");
        assert_eq!(distinct(|h| h >> 57), 128, "every tag value in use");
    }
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn build(degree: usize, n: u64) -> (KeyTree, StdRng) {
        let mut rng = rng();
        let mut tree = KeyTree::new(degree, 0, &mut rng);
        for i in 0..n {
            let key = Key::generate(&mut rng);
            tree.insert_member(MemberId(i), key, None, &mut rng)
                .unwrap();
        }
        (tree, rng)
    }

    #[test]
    fn empty_tree_has_root_and_no_members() {
        let mut rng = rng();
        let tree = KeyTree::new(4, 3, &mut rng);
        assert_eq!(tree.member_count(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.root_id().namespace(), 3);
        tree.check_invariants();
    }

    #[test]
    fn insert_grows_balanced() {
        let (tree, _) = build(4, 64);
        tree.check_invariants();
        assert_eq!(tree.member_count(), 64);
        // 64 members in a degree-4 tree fits in height 3.
        assert!(tree.height() <= 4, "height {} too large", tree.height());
    }

    #[test]
    fn insert_reports_dirty_path_to_root() {
        let (mut tree, mut rng) = build(3, 9);
        let outcome = tree
            .insert_member(MemberId(100), Key::generate(&mut rng), None, &mut rng)
            .unwrap();
        // The dirty nodes are exactly the new member's path: its
        // leaf's parent up to the root.
        let path = tree.path_of(MemberId(100)).unwrap();
        assert_eq!(path[0], outcome.parent);
        assert_eq!(*path.last().unwrap(), tree.root_id());
        assert_eq!(tree.leaf_of(MemberId(100)), Some(outcome.leaf));
    }

    #[test]
    fn insert_reports_created_interior_on_split() {
        // Fill the root of a degree-2 tree, then the next insert must
        // split a leaf and report the created interior node.
        let (mut tree, mut rng) = build(2, 2);
        let outcome = tree
            .insert_member(MemberId(50), Key::generate(&mut rng), None, &mut rng)
            .unwrap();
        let created = outcome.created_interior.expect("split expected");
        assert!(tree.key_of(created).is_some());
        assert_eq!(outcome.parent, created);
        tree.check_invariants();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut tree, mut rng) = build(4, 4);
        let err = tree
            .insert_member(MemberId(0), Key::generate(&mut rng), None, &mut rng)
            .unwrap_err();
        assert_eq!(err, KeyTreeError::DuplicateMember(MemberId(0)));
    }

    #[test]
    fn remove_unknown_rejected() {
        let (mut tree, _) = build(4, 4);
        let err = tree.remove_member(MemberId(77)).unwrap_err();
        assert_eq!(err, KeyTreeError::UnknownMember(MemberId(77)));
    }

    #[test]
    fn remove_repairs_structure() {
        let (mut tree, _) = build(4, 64);
        for i in 0..32 {
            tree.remove_member(MemberId(i)).unwrap();
            tree.check_invariants();
        }
        assert_eq!(tree.member_count(), 32);
    }

    #[test]
    fn remove_all_members_leaves_empty_root() {
        let (mut tree, _) = build(3, 10);
        for i in 0..10 {
            tree.remove_member(MemberId(i)).unwrap();
        }
        assert_eq!(tree.member_count(), 0);
        assert_eq!(tree.node_count(), 1);
        tree.check_invariants();
    }

    #[test]
    fn dirty_path_excludes_promoted_nodes() {
        // Build a minimal tree where removal triggers promotion, and
        // verify every reported dirty node is still alive.
        let (mut tree, _) = build(2, 5);
        for i in 0..4 {
            let dirty = tree.remove_member(MemberId(i)).unwrap();
            assert!(tree.key_of(dirty).is_some(), "dirty node {dirty} is dead");
            tree.check_invariants();
        }
    }

    #[test]
    fn refresh_key_bumps_version_and_changes_key() {
        let (mut tree, mut rng) = build(4, 4);
        let root = tree.root_id();
        let before = tree.root_key().clone();
        let v0 = tree.root_version();
        let replaced = tree.refresh_key(root, &mut rng);
        assert_eq!(replaced, (v0, before.clone()));
        assert_eq!(tree.root_version(), v0 + 1);
        assert_ne!(tree.root_key(), &before);
    }

    #[test]
    fn advance_key_is_f_of_the_replaced_key() {
        let (mut tree, _) = build(3, 9);
        let (v0, k0) = (tree.root_version(), tree.root_key().clone());
        let (replaced_version, replaced, check) = tree.advance_key(tree.root_id());
        assert_eq!((replaced_version, &replaced), (v0, &k0));
        assert_eq!(tree.root_version(), v0 + 1);
        assert_eq!(advance(&k0), (tree.root_key().clone(), check));
    }

    #[test]
    fn derive_key_is_g_of_the_sources_key() {
        let (mut tree, _) = build(3, 9);
        let root = tree.root_id();
        let child = tree.node(tree.children(tree.root_slot())[0]).id;
        let source_key = tree.key_of(child).unwrap().0.clone();
        let v0 = tree.root_version();
        let record = tree.derive_key(root, child);
        assert_eq!((record.version, tree.root_version()), (v0 + 1, v0 + 1));
        assert_eq!((record.target, record.source), (root, child));
        assert_eq!(record.open(&source_key), Ok(tree.root_key().clone()));
    }

    #[test]
    fn members_under_root_is_everyone() {
        let (tree, _) = build(4, 20);
        let mut all = tree.members_under(tree.root_id());
        all.sort();
        let expected: Vec<_> = (0..20).map(MemberId).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn path_keys_exist() {
        let (tree, _) = build(4, 30);
        let path = tree.path_of(MemberId(7)).unwrap();
        assert!(!path.is_empty());
        for node in &path {
            assert!(tree.key_of(*node).is_some());
        }
        assert_eq!(*path.last().unwrap(), tree.root_id());
    }

    #[test]
    fn height_logarithmic_after_churn() {
        use std::collections::VecDeque;
        let (mut tree, mut rng) = build(4, 256);
        let mut present: VecDeque<MemberId> = (0..256).map(MemberId).collect();
        let mut next_id = 1000u64;
        // Churn: each round evict the 128 oldest members and admit
        // 128 fresh ones.
        for _ in 0..4 {
            for _ in 0..128 {
                let m = present.pop_front().unwrap();
                tree.remove_member(m).unwrap();
            }
            for _ in 0..128 {
                let m = MemberId(next_id);
                next_id += 1;
                tree.insert_member(m, Key::generate(&mut rng), None, &mut rng)
                    .unwrap();
                present.push_back(m);
            }
            tree.check_invariants();
        }
        assert_eq!(tree.member_count(), 256);
        // log4(256) = 4; allow slack for churn-induced imbalance.
        assert!(tree.height() <= 8, "height {} too large", tree.height());
    }

    #[test]
    fn insert_at_reuses_vacated_slot() {
        let (mut tree, mut rng) = build(4, 64);
        let parent = tree.path_of(MemberId(10)).unwrap()[0];
        let dirty = tree.remove_member(MemberId(10)).unwrap();
        assert_eq!(dirty, parent);
        let outcome = tree
            .insert_member_at(MemberId(999), Key::generate(&mut rng), parent)
            .unwrap()
            .expect("slot usable");
        // The joiner's dirty path equals the leaver's dirty path.
        assert_eq!(outcome.parent, dirty);
        assert!(outcome.created_interior.is_none());
        tree.check_invariants();
    }

    #[test]
    fn insert_at_rejects_full_or_dead_slots() {
        let (mut tree, mut rng) = build(4, 64);
        // A full interior node is unusable.
        let full_parent = tree.path_of(MemberId(0)).unwrap()[0];
        assert!(tree
            .insert_member_at(MemberId(999), Key::generate(&mut rng), full_parent)
            .unwrap()
            .is_none());
        // A dead node is unusable.
        let dead = NodeId::from_parts(0, 9999);
        assert!(tree
            .insert_member_at(MemberId(999), Key::generate(&mut rng), dead)
            .unwrap()
            .is_none());
        // A leaf is unusable.
        let leaf = tree.leaf_of(MemberId(1)).unwrap();
        assert!(tree
            .insert_member_at(MemberId(999), Key::generate(&mut rng), leaf)
            .unwrap()
            .is_none());
        // Duplicate members are rejected outright.
        assert!(matches!(
            tree.insert_member_at(MemberId(1), Key::generate(&mut rng), full_parent),
            Err(KeyTreeError::DuplicateMember(_))
        ));
    }

    /// The serialized bytes are frozen: the digest below was computed
    /// on the commit before `encode_into` lost its hash map, for a tree
    /// whose slot table has both reused slots (slot order ≠ BFS order)
    /// and holes (free slots the position table must skip).
    #[test]
    fn encode_golden_digest_survives_freed_and_reused_slots() {
        let (mut tree, mut rng) = build(3, 40);
        for round in 0..3u64 {
            for i in 0..12 {
                tree.remove_member(MemberId(round * 12 + i)).unwrap();
            }
            for i in 0..7 {
                let m = MemberId(1000 + round * 7 + i);
                tree.insert_member(m, Key::generate(&mut rng), None, &mut rng)
                    .unwrap();
            }
        }
        tree.check_invariants();
        assert!(!tree.free.is_empty(), "the slot table must have holes");
        assert!(
            tree.nodes.len() > tree.node_count(),
            "holes sit inside the table"
        );

        let mut blob = Vec::new();
        tree.encode_into(&mut blob);
        let digest: String = rekey_crypto::sha256::digest(&blob)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "d1336f381c64c37043a9ba715d7c6ff8db33e5d6c76ac75044e3c69b38ec1b6c"
        );

        let mut r = Reader::new(&blob);
        let decoded = KeyTree::decode(&mut r).expect("decodes");
        assert!(r.rest().is_empty());
        decoded.check_invariants();
        let mut again = Vec::new();
        decoded.encode_into(&mut again);
        assert_eq!(again, blob, "decode(encode(t)) re-encodes identically");
    }

    /// The free list is last-freed first: a promotion frees the
    /// leaver's parent after its leaf, so the next split's interior
    /// takes the parent's slot and the joiner's leaf the leaf's.
    #[test]
    fn a_split_refills_the_slot_a_promotion_freed_last() {
        let (mut tree, mut rng) = build(3, 27);
        let parent = tree.path_of(MemberId(0)).unwrap()[0];
        let under: Vec<MemberId> = tree.members_under(parent);
        assert_eq!(under.len(), 3);
        let (parent_slot, leaf_slot) = (tree.slot_of(parent).unwrap(), tree.leaf_of[&under[1]]);
        tree.remove_member(under[0]).unwrap();
        tree.remove_member(under[1]).unwrap();
        assert!(tree.key_of(parent).is_none(), "promoted away");
        let outcome = tree
            .insert_member(MemberId(99), Key::generate(&mut rng), None, &mut rng)
            .unwrap();
        let split = outcome.created_interior.expect("the grandparent is full");
        assert_eq!(tree.slot_of(split), Some(parent_slot));
        assert_eq!(tree.leaf_of[&MemberId(99)], leaf_slot);
        tree.check_invariants();
    }

    #[test]
    fn depth_of_root_is_zero() {
        let (tree, _) = build(4, 10);
        assert_eq!(tree.depth_of(tree.root_id()), Some(0));
        let leaf = tree.leaf_of(MemberId(0)).unwrap();
        assert!(tree.depth_of(leaf).unwrap() >= 1);
    }
}
