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
//! mutating operations return the list of surviving *dirty* ancestors
//! whose keys must be refreshed; [`crate::server::LkhServer`] turns
//! those into rekey messages.

use crate::message::codec::{ensure, put_u32, put_u64, DecodeError, Reader};
use crate::message::KeyDerivation;
use crate::{KeyTreeError, MemberId, NodeId};
use rand::RngCore;
use rekey_crypto::keywrap::{advance, derive, ADVANCE_CHECK_LEN, DERIVE_CHECK_LEN};
use rekey_crypto::Key;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hash of one `u64`, for the [`NodeId`]-keyed slot
/// index. Node ids are counters this server assigns (a namespace over a
/// 40-bit count), not input an adversary picks, so they need no keyed
/// hash — and the index is consulted for every node a batch touches,
/// where SipHash was a measurable share of the interval. Tables keyed
/// by [`MemberId`], which clients do choose, keep the default hasher.
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

type SlotIndex = HashMap<NodeId, usize, BuildHasherDefault<NodeIdHasher>>;

/// Version byte leading a serialized [`KeyTree`].
pub const TREE_WIRE_VERSION: u8 = 1;

/// Serialized size of one node: id, parent position, member flag, key
/// and version. A leaf adds its 8-byte member id.
const NODE_RECORD_LEN: usize = 8 + 4 + 1 + 32 + 8;

/// One node of the key tree.
#[derive(Debug, Clone)]
struct Node {
    id: NodeId,
    parent: Option<usize>,
    children: Vec<usize>,
    /// `Some` exactly for leaves.
    member: Option<MemberId>,
    key: Key,
    version: u64,
    /// Number of leaves in this node's subtree (1 for a leaf).
    leaf_count: usize,
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
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Slot of every live node.
    index_of: SlotIndex,
    /// Slot of every member's leaf (a live node never changes slot).
    leaf_of: HashMap<MemberId, usize>,
    root: usize,
    next_counter: u64,
}

impl KeyTree {
    /// Creates an empty tree of the given degree whose node ids live in
    /// `namespace`.
    ///
    /// # Panics
    ///
    /// Panics if `degree < 2`.
    pub fn new<R: RngCore>(degree: usize, namespace: u32, rng: &mut R) -> Self {
        assert!(degree >= 2, "key tree degree must be at least 2");
        let mut tree = KeyTree {
            degree,
            namespace,
            slots: Vec::new(),
            free: Vec::new(),
            index_of: SlotIndex::default(),
            leaf_of: HashMap::new(),
            root: 0,
            next_counter: 0,
        };
        let root_id = tree.fresh_id();
        tree.root = tree.alloc(Node {
            id: root_id,
            parent: None,
            children: Vec::new(),
            member: None,
            key: Key::generate(rng),
            version: 0,
            leaf_count: 0,
        });
        tree
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = NodeId::from_parts(self.namespace, self.next_counter);
        self.next_counter += 1;
        id
    }

    fn alloc(&mut self, node: Node) -> usize {
        let id = node.id;
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx] = Some(node);
            idx
        } else {
            self.slots.push(Some(node));
            self.slots.len() - 1
        };
        self.index_of.insert(id, idx);
        idx
    }

    fn dealloc(&mut self, idx: usize) {
        if let Some(node) = self.slots[idx].take() {
            self.index_of.remove(&node.id);
            self.free.push(idx);
        }
    }

    fn node(&self, idx: usize) -> &Node {
        self.slots[idx].as_ref().expect("dangling node index")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        self.slots[idx].as_mut().expect("dangling node index")
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
        self.index_of.len()
    }

    /// Height of the tree: number of edges on the longest root-to-leaf
    /// path (0 for an empty tree).
    pub fn height(&self) -> usize {
        fn depth_of(tree: &KeyTree, idx: usize) -> usize {
            tree.node(idx)
                .children
                .iter()
                .map(|&c| 1 + depth_of(tree, c))
                .max()
                .unwrap_or(0)
        }
        depth_of(self, self.root)
    }

    /// Key and version currently stored at `node`, if it exists.
    pub fn key_of(&self, node: NodeId) -> Option<(&Key, u64)> {
        let idx = *self.index_of.get(&node)?;
        let n = self.node(idx);
        Some((&n.key, n.version))
    }

    /// The member's leaf node id.
    pub fn leaf_of(&self, member: MemberId) -> Option<NodeId> {
        self.leaf_of.get(&member).map(|&idx| self.node(idx).id)
    }

    /// Depth of `node` (root = 0), if it exists.
    pub fn depth_of(&self, node: NodeId) -> Option<usize> {
        let mut idx = *self.index_of.get(&node)?;
        let mut depth = 0;
        while let Some(parent) = self.node(idx).parent {
            idx = parent;
            depth += 1;
        }
        Some(depth)
    }

    /// Node ids on the path from the member's leaf (exclusive) to the
    /// root (inclusive) — exactly the auxiliary keys the member holds
    /// in addition to its individual key.
    pub fn path_of(&self, member: MemberId) -> Result<Vec<NodeId>, KeyTreeError> {
        let mut path = Vec::new();
        self.path_of_into(member, &mut path)?;
        Ok(path)
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
        let Some(&start) = self.index_of.get(&node) else {
            return;
        };
        let mut stack = vec![start];
        while let Some(idx) = stack.pop() {
            let n = self.node(idx);
            if let Some(m) = n.member {
                out.push(m);
            }
            stack.extend(&n.children);
        }
    }

    /// Iterates over all members currently in the tree.
    pub fn members(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.leaf_of.keys().copied()
    }

    /// Iterates over the children of `node` with their current keys,
    /// versions, and subtree member counts, or `None` if the node does
    /// not exist. Allocation-free: the rekey engine walks every dirty
    /// node's children once per batch.
    pub(crate) fn children_of(
        &self,
        node: NodeId,
    ) -> Option<impl Iterator<Item = ChildInfo<'_>> + '_> {
        let &idx = self.index_of.get(&node)?;
        Some(self.node(idx).children.iter().map(move |&c| {
            let child = self.node(c);
            ChildInfo {
                id: child.id,
                key: &child.key,
                version: child.version,
                audience: child.leaf_count,
                is_leaf: child.member.is_some(),
                member: child.member,
            }
        }))
    }

    /// Appends the node ids on the path from the member's leaf
    /// (exclusive) to the root (inclusive) onto `out` — the
    /// allocation-free core of [`KeyTree::path_of`].
    pub(crate) fn path_of_into(
        &self,
        member: MemberId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), KeyTreeError> {
        let mut idx = *self
            .leaf_of
            .get(&member)
            .ok_or(KeyTreeError::UnknownMember(member))?;
        while let Some(parent) = self.node(idx).parent {
            idx = parent;
            out.push(self.node(idx).id);
        }
        Ok(())
    }

    /// Installs a fresh random key at `node`, bumping its version.
    /// Returns the `(version, key)` it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist (callers refresh only nodes
    /// they just observed alive).
    pub fn refresh_key<R: RngCore>(&mut self, node: NodeId, rng: &mut R) -> (u64, Key) {
        let idx = self.index_of[&node];
        let key = Key::generate(rng);
        let n = self.node_mut(idx);
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
        let idx = self.index_of[&node];
        let n = self.node_mut(idx);
        let (key, check) = advance(&n.key);
        let replaced = (n.version, std::mem::replace(&mut n.key, key));
        n.version += 1;
        (replaced.0, replaced.1, check)
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
        let idx = self.index_of[&node];
        let mut record = KeyDerivation {
            target: node,
            version: self.node(idx).version + 1,
            source,
            check: [0; DERIVE_CHECK_LEN],
        };
        let (key, check) = derive(&self.node(self.index_of[&source]).key, &record.binding());
        record.check = check;
        let n = self.node_mut(idx);
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
    /// Returns the insertion outcome: the new leaf's node id, the list
    /// of surviving ancestors (from attach point up to the root) whose
    /// keys must be refreshed to preserve backward confidentiality, and
    /// the interior node created if a leaf had to be split.
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
        if self.contains(member) {
            return Err(KeyTreeError::DuplicateMember(member));
        }

        // Descend into the lightest subtree until we find spare
        // capacity or a leaf to split.
        let mut at = self.root;
        loop {
            let n = self.node(at);
            if n.member.is_some() {
                break; // leaf: split below
            }
            if n.children.len() < self.degree {
                break; // interior node with spare capacity
            }
            at = *n
                .children
                .iter()
                .min_by_key(|&&c| self.node(c).leaf_count)
                .expect("full interior node has children");
        }
        if let Some(&cluster) = cluster.and_then(|id| self.index_of.get(&id)) {
            if self.node(at).member.is_some() {
                let c = self.node(cluster);
                let parent = c.parent.expect("a split never makes the root");
                if c.children.len() < self.degree - 1 {
                    at = cluster;
                } else if let Some(&leaf) = self
                    .node(parent)
                    .children
                    .iter()
                    .find(|&&sibling| self.node(sibling).member.is_some())
                {
                    at = leaf;
                }
            }
        }

        let leaf_id = self.fresh_id();
        let leaf_key_version = 0;
        let attach_parent;
        let mut created_interior = None;
        if self.node(at).member.is_some() {
            // Split leaf `at`: interpose a new interior node holding
            // [old leaf, new leaf].
            let interior_id = self.fresh_id();
            let old_parent = self.node(at).parent.expect("root is never a leaf");
            let interior_idx = self.alloc(Node {
                id: interior_id,
                parent: Some(old_parent),
                children: vec![at],
                member: None,
                key: Key::generate(rng),
                version: 0,
                leaf_count: self.node(at).leaf_count,
            });
            let pos = self
                .node(old_parent)
                .children
                .iter()
                .position(|&c| c == at)
                .expect("child listed under parent");
            self.node_mut(old_parent).children[pos] = interior_idx;
            self.node_mut(at).parent = Some(interior_idx);
            attach_parent = interior_idx;
            created_interior = Some(interior_id);
        } else {
            attach_parent = at;
        }

        let leaf_idx = self.alloc(Node {
            id: leaf_id,
            parent: Some(attach_parent),
            children: Vec::new(),
            member: Some(member),
            key: individual_key,
            version: leaf_key_version,
            leaf_count: 1,
        });
        self.node_mut(attach_parent).children.push(leaf_idx);
        self.leaf_of.insert(member, leaf_idx);

        // Update subtree leaf counts and collect the dirty path.
        let mut dirty = Vec::new();
        let mut walk = Some(attach_parent);
        while let Some(idx) = walk {
            self.node_mut(idx).leaf_count += 1;
            dirty.push(self.node(idx).id);
            walk = self.node(idx).parent;
        }
        Ok(InsertOutcome {
            leaf: leaf_id,
            dirty_path: dirty,
            created_interior,
        })
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
        if self.contains(member) {
            return Err(KeyTreeError::DuplicateMember(member));
        }
        let Some(&parent_idx) = self.index_of.get(&parent) else {
            return Ok(None);
        };
        {
            let p = self.node(parent_idx);
            if p.member.is_some() || p.children.len() >= self.degree {
                return Ok(None);
            }
        }
        let leaf_id = self.fresh_id();
        let leaf_idx = self.alloc(Node {
            id: leaf_id,
            parent: Some(parent_idx),
            children: Vec::new(),
            member: Some(member),
            key: individual_key,
            version: 0,
            leaf_count: 1,
        });
        self.node_mut(parent_idx).children.push(leaf_idx);
        self.leaf_of.insert(member, leaf_idx);

        let mut dirty = Vec::new();
        let mut walk = Some(parent_idx);
        while let Some(idx) = walk {
            self.node_mut(idx).leaf_count += 1;
            dirty.push(self.node(idx).id);
            walk = self.node(idx).parent;
        }
        Ok(Some(InsertOutcome {
            leaf: leaf_id,
            dirty_path: dirty,
            created_interior: None,
        }))
    }

    /// Removes a member's leaf.
    ///
    /// Returns the list of surviving ancestors whose keys must be
    /// refreshed to preserve forward confidentiality (every key the
    /// departed member knew that is still in use).
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::UnknownMember`] if the member is not in
    /// the tree.
    pub fn remove_member(&mut self, member: MemberId) -> Result<Vec<NodeId>, KeyTreeError> {
        let leaf_idx = self
            .leaf_of
            .remove(&member)
            .ok_or(KeyTreeError::UnknownMember(member))?;
        let parent_idx = self.node(leaf_idx).parent.expect("leaf has a parent");

        // Detach and free the leaf.
        let pos = self
            .node(parent_idx)
            .children
            .iter()
            .position(|&c| c == leaf_idx)
            .expect("leaf listed under parent");
        self.node_mut(parent_idx).children.remove(pos);
        self.dealloc(leaf_idx);

        // Decrement leaf counts up to the root.
        let mut walk = Some(parent_idx);
        while let Some(idx) = walk {
            self.node_mut(idx).leaf_count -= 1;
            walk = self.node(idx).parent;
        }

        // Repair: a non-root interior node with a single child is
        // redundant; promote the child into its place.
        let mut dirty_start = parent_idx;
        let parent = self.node(parent_idx);
        if let (Some(grand), 1) = (parent.parent, parent.children.len()) {
            let only_child = parent.children[0];
            let pos = self
                .node(grand)
                .children
                .iter()
                .position(|&c| c == parent_idx)
                .expect("parent listed under grandparent");
            self.node_mut(grand).children[pos] = only_child;
            self.node_mut(only_child).parent = Some(grand);
            self.dealloc(parent_idx);
            dirty_start = grand;
        }

        let mut dirty = Vec::new();
        let mut walk = Some(dirty_start);
        while let Some(idx) = walk {
            dirty.push(self.node(idx).id);
            walk = self.node(idx).parent;
        }
        Ok(dirty)
    }

    /// Serializes the tree's *logical* state onto `buf`: degree,
    /// namespace, id counter, and every live node (id, member, key,
    /// version) in breadth-first order with per-parent child order
    /// preserved.
    ///
    /// Child order is semantically significant — insertion descends
    /// into the first lightest subtree and batch planning walks
    /// children in order, so a decoded tree reproduces the original's
    /// future behaviour byte for byte. Physical slot indices and the
    /// free list are *not* serialized; they never influence decisions.
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
        let mut order: Vec<usize> = Vec::with_capacity(self.node_count());
        let mut pos_of = vec![u32::MAX; self.slots.len()];
        order.push(self.root);
        pos_of[self.root] = 0;
        let mut at = 0;
        while at < order.len() {
            let idx = order[at];
            let n = self.node(idx);
            let parent_pos = n.parent.map_or(u32::MAX, |p| pos_of[p]);
            put_u64(buf, n.id.0);
            put_u32(buf, parent_pos);
            match n.member {
                Some(m) => {
                    buf.push(1);
                    put_u64(buf, m.0);
                }
                None => buf.push(0),
            }
            buf.extend_from_slice(n.key.as_bytes());
            put_u64(buf, n.version);
            for &c in &n.children {
                pos_of[c] = order.len() as u32;
                order.push(c);
            }
            at += 1;
        }
    }

    /// Decodes a tree serialized by [`KeyTree::encode_into`] off the
    /// front of `r`. [`DecodeError::Invalid`] for an unknown version or
    /// a structurally invalid node table (bad parent reference,
    /// duplicate id/member, leaf with children, root marked as a leaf).
    pub fn decode(r: &mut Reader<'_>) -> Result<KeyTree, DecodeError> {
        r.expect(TREE_WIRE_VERSION)?;
        let degree = r.u32()? as usize;
        ensure(degree >= 2)?;
        let namespace = r.u32()?;
        let next_counter = r.u64()?;
        let count = r.u32()? as usize;
        ensure(count > 0)?;
        let capacity = r.bounded(count as u64, NODE_RECORD_LEN);
        let mut tree = KeyTree {
            degree,
            namespace,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            index_of: SlotIndex::with_capacity_and_hasher(capacity, Default::default()),
            leaf_of: HashMap::with_capacity(capacity),
            root: 0,
            next_counter,
        };
        for i in 0..count {
            let id = NodeId(r.u64()?);
            let parent_pos = r.u32()?;
            let parent = if parent_pos == u32::MAX {
                // Only the first record may be the root.
                ensure(i == 0)?;
                None
            } else {
                // Breadth-first order: parents strictly precede their
                // children in the stream.
                ensure((parent_pos as usize) < i)?;
                Some(parent_pos as usize)
            };
            let member = match r.u8()? {
                0 => None,
                1 => Some(MemberId(r.u64()?)),
                _ => return Err(DecodeError::Invalid),
            };
            ensure(i != 0 || member.is_none())?; // the root is never a leaf
            let key = Key::from_bytes(*r.array()?);
            let version = r.u64()?;
            ensure(tree.index_of.insert(id, i).is_none())?;
            if let Some(m) = member {
                ensure(tree.leaf_of.insert(m, i).is_none())?;
            }
            if let Some(p) = parent {
                let parent_node = tree.node_mut(p);
                ensure(parent_node.member.is_none())?; // leaves have no children
                parent_node.children.push(i);
            }
            tree.slots.push(Some(Node {
                id,
                parent,
                children: Vec::new(),
                member,
                key,
                version,
                leaf_count: usize::from(member.is_some()),
            }));
        }
        // Children appear after their parents, so one reverse sweep
        // settles every subtree leaf count.
        for i in (1..count).rev() {
            let n = tree.node(i);
            let (leaves, parent) = (n.leaf_count, n.parent.expect("only the root has no parent"));
            tree.node_mut(parent).leaf_count += leaves;
        }
        Ok(tree)
    }

    /// Verifies internal structural invariants; used by tests.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any invariant is violated.
    pub fn check_invariants(&self) {
        assert!(self.node(self.root).parent.is_none(), "root has a parent");
        assert!(
            self.node(self.root).member.is_none(),
            "root must not be a leaf"
        );
        let mut seen_members = 0usize;
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let n = self.node(idx);
            assert_eq!(
                self.index_of.get(&n.id),
                Some(&idx),
                "id index out of sync for {}",
                n.id
            );
            if let Some(m) = n.member {
                assert!(n.children.is_empty(), "leaf {m} has children");
                assert_eq!(n.leaf_count, 1, "leaf {m} leaf_count");
                assert_eq!(self.leaf_of.get(&m), Some(&idx), "leaf map out of sync");
                seen_members += 1;
            } else {
                assert!(
                    n.children.len() <= self.degree,
                    "node {} exceeds degree",
                    n.id
                );
                if idx != self.root {
                    assert!(
                        n.children.len() >= 2,
                        "non-root interior node {} has {} children",
                        n.id,
                        n.children.len()
                    );
                }
                let sum: usize = n.children.iter().map(|&c| self.node(c).leaf_count).sum();
                assert_eq!(n.leaf_count, sum, "leaf_count mismatch at {}", n.id);
                for &c in &n.children {
                    assert_eq!(
                        self.node(c).parent,
                        Some(idx),
                        "child/parent link broken at {}",
                        n.id
                    );
                    stack.push(c);
                }
            }
        }
        assert_eq!(seen_members, self.leaf_of.len(), "member count mismatch");
    }
}

/// Result of [`KeyTree::insert_member`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Node id of the member's new leaf.
    pub leaf: NodeId,
    /// Surviving ancestors of the new leaf (attach point first, root
    /// last) whose keys must be refreshed.
    pub dirty_path: Vec<NodeId>,
    /// Interior node created if insertion split a leaf.
    pub created_interior: Option<NodeId>,
}

/// Per-child view used by the server when emitting rekey entries.
#[derive(Debug)]
pub(crate) struct ChildInfo<'a> {
    pub id: NodeId,
    pub key: &'a Key,
    pub version: u64,
    pub audience: usize,
    pub is_leaf: bool,
    pub member: Option<MemberId>,
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
        assert_eq!(*outcome.dirty_path.last().unwrap(), tree.root_id());
        // The dirty list is exactly the new member's path.
        let path = tree.path_of(MemberId(100)).unwrap();
        assert_eq!(outcome.dirty_path, path);
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
        assert!(outcome.dirty_path.contains(&created));
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
            for node in dirty {
                assert!(tree.key_of(node).is_some(), "dirty node {node} is dead");
            }
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
        let child = tree.children_of(root).unwrap().next().unwrap().id;
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
        assert_eq!(dirty[0], parent);
        let outcome = tree
            .insert_member_at(MemberId(999), Key::generate(&mut rng), parent)
            .unwrap()
            .expect("slot usable");
        // The joiner's dirty path equals the leaver's dirty path.
        assert_eq!(outcome.dirty_path, dirty);
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
            tree.slots.len() > tree.node_count(),
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

    #[test]
    fn depth_of_root_is_zero() {
        let (tree, _) = build(4, 10);
        assert_eq!(tree.depth_of(tree.root_id()), Some(0));
        let leaf = tree.leaf_of(MemberId(0)).unwrap();
        assert!(tree.depth_of(leaf).unwrap() >= 1);
    }
}
