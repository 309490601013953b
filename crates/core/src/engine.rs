//! The shared multi-tree rekey engine.
//!
//! Every scheme in this crate — the one-tree baseline, the §3
//! two-partition constructions, the §4 loss-homogenized forest, and
//! the §4.2 combination — is the same pipeline: *route members among
//! several LKH trees, batch-rekey each tree, merge the messages, and
//! refresh the group DEK above the roots*. [`RekeyEngine`] implements
//! that pipeline once; a scheme is reduced to a [`PlacementPolicy`]
//! that answers the routing questions (where does a joiner go, who
//! migrates, how is the DEK distributed).
//!
//! # Epoch pipeline
//!
//! One [`GroupKeyManager::process_interval`] call first checks the
//! whole batch as [`crate::check_batch`] does, locating each leaver
//! once, and rejects an inconsistent
//! one before the epoch advances, any policy callback runs or any
//! randomness is drawn, so a rejected batch leaves the engine byte for
//! byte as it was. Then it runs:
//!
//! 1. **Route departures** — each leaver goes to the tree (or
//!    policy-internal structure) the check found it in, and
//!    [`PlacementPolicy::record_leave`] updates policy bookkeeping.
//! 2. **Plan migrations** — [`PlacementPolicy::plan_migrations`]
//!    names the members whose placement changes this interval (e.g.
//!    S-period survivors). The engine turns each into a removal from
//!    the source tree and a join into the destination tree.
//! 3. **Route joins** — [`PlacementPolicy::route_join`] picks the
//!    destination tree (or internal structure) for each joiner.
//! 4. **Rekey every tree** — [`LkhServer::plan_batch`] for every tree
//!    in tree order against the caller's RNG, then [`LkhServer::seal_entries`]
//!    for each in the same order into the interval's one message, each
//!    under a `rekey.tree.<name>` span. Tree order pins the RNG draw
//!    order, which pins every emitted byte.
//! 5. **Record joins** — [`PlacementPolicy::record_joins`] updates
//!    policy bookkeeping (ages, keys, queues).
//! 6. **Refresh + distribute the DEK** — the engine refreshes the DEK,
//!    draws one nonce start for the interval's DEK wraps, and
//!    [`PlacementPolicy::dek_entries`] appends the entries that deliver
//!    it (default: once under every occupied tree root), numbered from
//!    that start in order.
//!
//! The whole interval runs under a `rekey.batch` span.

use crate::dek::DekState;
use crate::persist::PersistError;
use crate::{locate_batch, GroupKeyManager, IntervalOutcome, IntervalStats, Join};
use rand::RngCore;
use rekey_crypto::keywrap::NonceRun;
use rekey_crypto::Key;
use rekey_keytree::message::codec::{ensure, put_u32, put_u64, DecodeError, Reader};
use rekey_keytree::message::{EntryMeta, LaneSealer, RekeyEntry, RekeyMessage};
use rekey_keytree::server::LkhServer;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};

/// Version byte leading a serialized [`RekeyEngine`] state blob.
pub const ENGINE_WIRE_VERSION: u8 = 1;

/// One tree's join batch for an interval.
type TreeBatchJoins = Vec<(MemberId, Key)>;
/// One tree's leave batch for an interval.
type TreeBatchLeaves = Vec<MemberId>;

/// Where a routed member goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Into the engine tree with this index.
    Tree(usize),
    /// Into a policy-internal structure (e.g. the QT-scheme's key
    /// queue); the engine's trees are not involved.
    Internal,
}

/// One member changing placement this interval (e.g. an S-period
/// survivor moving to the L-partition).
#[derive(Debug, Clone)]
pub struct Migration {
    /// The migrating member.
    pub member: MemberId,
    /// Its registered individual key (needed to join the destination
    /// tree).
    pub individual_key: Key,
    /// Source tree, or `None` if the member lived in a
    /// policy-internal structure.
    pub from: Option<usize>,
    /// Destination tree.
    pub to: usize,
}

/// Read-only view of the engine's trees, handed to policy callbacks.
#[derive(Debug, Clone, Copy)]
pub struct Trees<'a> {
    slots: &'a [TreeSlot],
}

impl<'a> Trees<'a> {
    /// Number of trees.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the engine owns no trees.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The server of tree `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn server(&self, index: usize) -> &'a LkhServer {
        &self.slots[index].server
    }

    /// Iterates over the tree servers in tree order.
    pub fn iter(self) -> impl Iterator<Item = &'a LkhServer> + 'a {
        self.slots.iter().map(|slot| &slot.server)
    }

    /// Index of the tree holding `member`, scanning in tree order.
    pub fn find(&self, member: MemberId) -> Option<usize> {
        self.slots
            .iter()
            .position(|slot| slot.server.contains(member))
    }
}

/// Interval facts handed to [`PlacementPolicy::dek_entries`].
#[derive(Debug, Clone, Copy)]
pub struct IntervalCtx<'a> {
    /// The engine epoch of this interval (1-based).
    pub epoch: u64,
    /// This interval's join requests.
    pub joins: &'a [Join],
    /// Whether any member departed this interval.
    pub had_departures: bool,
}

/// Handle on the freshly-rotated group DEK, letting policies wrap it
/// without owning the key state. The interval's DEK wraps take
/// consecutive nonces from one random start, in the order a policy
/// asks for them — QT wraps the DEK once per queued member, and the
/// codec leaves a consecutive nonce off the wire.
#[derive(Debug)]
pub struct DekCtx<'a> {
    dek: &'a DekState,
    previous_key: Key,
    previous_version: u64,
    nonces: NonceRun,
}

impl<'a> DekCtx<'a> {
    /// Entry wrapping the current DEK under an arbitrary key, with the
    /// interval's next nonce. `recipient` is set for entries addressed
    /// to one member's individual key.
    pub fn wrap_under(
        &mut self,
        under: NodeId,
        under_version: u64,
        under_key: &Key,
        under_is_leaf: bool,
        recipient: Option<MemberId>,
        audience: u32,
    ) -> RekeyEntry {
        let meta = self.meta_under(under, under_version, under_is_leaf, recipient, audience);
        meta.seal(under_key, &self.dek.key, self.nonces.take())
    }

    /// [`DekCtx::wrap_under`] of each member's individual key in
    /// `unders` — `(leaf node, member, key)`, version 0, audience 1 —
    /// in order and with consecutive nonces, sealed eight at a time
    /// ([`LaneSealer`]).
    pub fn wrap_under_each<'k>(
        &mut self,
        unders: impl IntoIterator<Item = (NodeId, MemberId, &'k Key)>,
        entries: &mut Vec<RekeyEntry>,
    ) where
        'a: 'k,
    {
        let mut lanes = LaneSealer::new();
        for (node, member, key) in unders {
            let meta = self.meta_under(node, 0, true, Some(member), 1);
            lanes.push(meta, key, &self.dek.key, self.nonces.take(), entries);
        }
        lanes.finish(entries);
    }

    /// The header of an entry carrying the current DEK under `under`.
    fn meta_under(
        &self,
        under: NodeId,
        under_version: u64,
        under_is_leaf: bool,
        recipient: Option<MemberId>,
        audience: u32,
    ) -> EntryMeta {
        EntryMeta {
            target: self.dek.node,
            target_version: self.dek.version,
            under,
            under_version,
            under_is_leaf,
            recipient,
            audience,
            target_depth: 0,
        }
    }

    /// Entry wrapping the current DEK under the DEK that was current
    /// *before* this interval's refresh — what a join-only interval
    /// sends everyone already present.
    pub fn wrap_under_previous(&mut self, audience: u32) -> RekeyEntry {
        let previous_key = self.previous_key.clone();
        self.wrap_under(
            self.dek.node,
            self.previous_version,
            &previous_key,
            false,
            None,
            audience,
        )
    }

    /// Entry wrapping the current DEK under a tree's root key, with
    /// the tree's population as the audience.
    pub fn wrap_tree_root(&mut self, server: &LkhServer) -> RekeyEntry {
        self.wrap_under(
            server.root_node(),
            server.root_version(),
            server.root_key(),
            false,
            None,
            server.member_count() as u32,
        )
    }
}

/// A scheme, reduced to its placement decisions.
///
/// The engine calls the methods in pipeline order (see the module
/// docs); implementations hold only scheme bookkeeping (ages, queues,
/// estimators) — trees, message assembly, and DEK state live in
/// [`RekeyEngine`].
pub trait PlacementPolicy {
    /// Short human-readable scheme name for reports.
    fn scheme_name(&self) -> &'static str;

    /// Records that `member`, held at `at`, departs at `epoch`:
    /// policy bookkeeping only. The engine found `at` when it checked
    /// the batch, one lookup per leaver, and routes the leaver there
    /// itself. Called once per leaver, in batch order, before any tree
    /// is touched. The default records nothing.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::UnknownMember`] if the policy-internal structure
    /// at `at` does not hold the member.
    fn record_leave(
        &mut self,
        member: MemberId,
        at: Placement,
        epoch: u64,
    ) -> Result<(), KeyTreeError> {
        let _ = (member, at, epoch);
        Ok(())
    }

    /// Members whose placement changes this interval, in the order
    /// their tree removals/joins should be batched. Departures have
    /// already been routed; this interval's joins have not been
    /// recorded yet. The default migrates nobody.
    fn plan_migrations(&mut self, epoch: u64, trees: &Trees) -> Vec<Migration> {
        let _ = (epoch, trees);
        Vec::new()
    }

    /// Routes one joining member. Pure routing — bookkeeping happens
    /// in [`PlacementPolicy::record_joins`] after the trees are
    /// rekeyed.
    fn route_join(&self, join: &Join, trees: &Trees) -> Placement;

    /// Records this interval's joins in policy bookkeeping (join
    /// epochs, individual keys, queue slots). Runs after every tree
    /// rekeyed its batch and before the DEK is refreshed.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::DuplicateMember`] if a joiner is already held
    /// by a policy-internal structure.
    fn record_joins(&mut self, joins: &[Join], epoch: u64) -> Result<(), KeyTreeError> {
        let _ = (joins, epoch);
        Ok(())
    }

    /// Appends the entries distributing the freshly-rotated DEK. The
    /// default wraps it once under every occupied tree root, in tree
    /// order — the §3/§4 layering. Policies with internal members
    /// (queues) override this.
    fn dek_entries(
        &mut self,
        dek: &mut DekCtx,
        interval: &IntervalCtx,
        trees: &Trees,
        message: &mut RekeyMessage,
    ) {
        let _ = interval;
        dek_under_roots(dek, trees, message);
    }

    /// Number of members held in policy-internal structures (outside
    /// every tree). Default: none.
    fn internal_member_count(&self) -> usize {
        0
    }

    /// Whether a policy-internal structure holds `member`.
    fn internal_contains(&self, member: MemberId) -> bool {
        let _ = member;
        false
    }

    /// Appends the members held in policy-internal structures, in
    /// deterministic order (they lead the DEK audience listing).
    fn internal_members(&self, out: &mut Vec<MemberId>) {
        let _ = out;
    }

    /// Audience of a policy-internal node (e.g. a queue slot), or
    /// `None` if the node is not policy-internal.
    fn internal_members_under(&self, node: NodeId) -> Option<Vec<MemberId>> {
        let _ = node;
        None
    }

    /// Serializes the policy's bookkeeping (ages, keys, queues,
    /// estimators) onto `buf` for crash recovery. Configuration that
    /// the constructor re-derives (periods, boundaries) is *not*
    /// serialized. The default writes nothing — correct for stateless
    /// policies; stateful policies must override this together with
    /// [`PlacementPolicy::load_policy_state`].
    fn save_policy_state(&self, buf: &mut Vec<u8>) {
        let _ = buf;
    }

    /// Restores bookkeeping serialized by
    /// [`PlacementPolicy::save_policy_state`], consuming exactly the
    /// bytes it wrote from `r`.
    fn load_policy_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let _ = r;
        Ok(())
    }
}

/// Appends the DEK wrapped once under every occupied tree root, in
/// tree order.
pub(crate) fn dek_under_roots(dek: &mut DekCtx, trees: &Trees, message: &mut RekeyMessage) {
    for server in trees.iter() {
        if server.member_count() > 0 {
            message.entries.push(dek.wrap_tree_root(server));
        }
    }
}

/// One named tree owned by the engine.
#[derive(Debug, Clone)]
struct TreeSlot {
    /// `rekey.tree.<name>` — leaked once at registration so obs spans
    /// (which require `&'static str`) can carry the tree name.
    span_name: &'static str,
    server: LkhServer,
}

/// The shared epoch pipeline: a set of named LKH trees, an optional
/// DEK layered above their roots, and a [`PlacementPolicy`] deciding
/// who lives where.
///
/// The concrete schemes are type aliases over this engine (e.g.
/// [`crate::partition::TtManager`]); all of them implement
/// [`GroupKeyManager`] through the single blanket `impl` below, and
/// all inherit the engine's guarantees: deterministic message order
/// and per-tree obs spans.
#[derive(Debug, Clone)]
pub struct RekeyEngine<P> {
    policy: P,
    trees: Vec<TreeSlot>,
    dek: Option<DekState>,
    epoch: u64,
}

impl<P: PlacementPolicy> RekeyEngine<P> {
    /// Creates an engine over `trees` (name + server pairs, in tree
    /// order). `dek_namespace` layers a group DEK above the tree
    /// roots; `None` means the root of the first (sole) tree *is* the
    /// group key — the one-tree baseline.
    ///
    /// Named `with_trees` (not `new`) so the concrete manager aliases
    /// can offer their own `new` constructors without colliding.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty.
    pub fn with_trees(
        policy: P,
        trees: Vec<(&str, LkhServer)>,
        dek_namespace: Option<u32>,
    ) -> Self {
        assert!(!trees.is_empty(), "an engine needs at least one tree");
        let trees = trees
            .into_iter()
            .map(|(name, server)| TreeSlot {
                span_name: rekey_obs::intern(format!("rekey.tree.{name}")),
                server,
            })
            .collect();
        RekeyEngine {
            policy,
            trees,
            dek: dek_namespace.map(DekState::new),
            epoch: 0,
        }
    }

    /// The engine's policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the engine's policy (feedback hooks).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The server of tree `index`, in registration order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn tree(&self, index: usize) -> &LkhServer {
        &self.trees[index].server
    }

    /// Number of trees the engine owns.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Engine epoch: number of intervals processed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Where `member` is held, if anywhere.
    fn locate(&self, member: MemberId) -> Option<Placement> {
        if self.policy.internal_contains(member) {
            return Some(Placement::Internal);
        }
        Trees { slots: &self.trees }
            .find(member)
            .map(Placement::Tree)
    }

    /// Routes this interval's leaves (held where `located` says, in
    /// order), migrations, and joins into per-tree batches (phases 1–3
    /// of the pipeline). Returns per-tree join and leave lists plus the
    /// migration count.
    fn route_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        located: Vec<Placement>,
    ) -> Result<(Vec<TreeBatchJoins>, Vec<TreeBatchLeaves>, usize), KeyTreeError> {
        let mut tree_joins: Vec<Vec<(MemberId, Key)>> = vec![Vec::new(); self.trees.len()];
        let mut tree_leaves: Vec<Vec<MemberId>> = vec![Vec::new(); self.trees.len()];
        for (&member, at) in leaves.iter().zip(located) {
            self.policy.record_leave(member, at, self.epoch)?;
            if let Placement::Tree(i) = at {
                tree_leaves[i].push(member);
            }
        }
        let trees = Trees { slots: &self.trees };
        let migrations = self.policy.plan_migrations(self.epoch, &trees);
        for migration in &migrations {
            if let Some(from) = migration.from {
                tree_leaves[from].push(migration.member);
            }
            tree_joins[migration.to].push((migration.member, migration.individual_key.clone()));
        }
        for join in joins {
            if let Placement::Tree(i) = self.policy.route_join(join, &trees) {
                tree_joins[i].push((join.member, join.individual_key.clone()));
            }
        }
        Ok((tree_joins, tree_leaves, migrations.len()))
    }

    /// [`GroupKeyManager::restore_state`] past the scheme name.
    fn restore_body(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let epoch = r.u64()?;
        // The DEK layering is configuration; the blob must agree with
        // how this engine was built before its key material is taken.
        match (r.u8()?, self.dek.as_mut()) {
            (0, None) => {}
            (1, Some(dek)) => {
                let node = NodeId(r.u64()?);
                let key = Key::from_bytes(*r.array()?);
                let version = r.u64()?;
                ensure(node == dek.node)?;
                dek.key = key;
                dek.version = version;
            }
            _ => return Err(DecodeError::Invalid),
        }
        ensure(r.u32()? as usize == self.trees.len())?;
        for slot in &mut self.trees {
            slot.server = LkhServer::decode(r)?;
        }
        self.policy.load_policy_state(r)?;
        r.finish()?;
        self.epoch = epoch;
        Ok(())
    }
}

impl<P: PlacementPolicy> GroupKeyManager for RekeyEngine<P> {
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        mut rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError> {
        // A rejected batch must leave no trace: no epoch consumed, no
        // policy bookkeeping touched, no randomness drawn.
        let located = locate_batch(|member| self.locate(member), joins, leaves)?;
        self.epoch += 1;
        let _batch_span = rekey_obs::span!("rekey.batch");

        // Phases 1–3: routing.
        let (tree_joins, tree_leaves, migrations) = self.route_interval(joins, leaves, located)?;

        // Phase 4: rekey every tree against the caller's RNG — tree
        // order fixes the draw order, which fixes every output byte.
        // Empty batches still run (tree epochs advance in lockstep) and
        // draw only their nonce start. Every tree plans first (all the
        // draws), then seals into the one message, whose entries are
        // reserved once: the trees' exact count plus a DEK wrap per
        // tree root.
        let mut message = RekeyMessage::new(self.epoch);
        let mut plans = Vec::with_capacity(self.trees.len());
        for (slot, (joins_in, leaves_out)) in self
            .trees
            .iter_mut()
            .zip(tree_joins.iter().zip(&tree_leaves))
        {
            let _span = rekey_obs::span!(slot.span_name);
            plans.push(
                slot.server
                    .plan_batch(joins_in, leaves_out, &mut rng, &mut message)?,
            );
        }
        let keys: usize = plans.iter().map(|plan| plan.stats().encrypted_keys).sum();
        message.entries.reserve_exact(keys + self.trees.len());
        for (slot, plan) in self.trees.iter().zip(plans) {
            let _span = rekey_obs::span!(slot.span_name);
            slot.server.seal_entries(plan, &mut message.entries);
        }

        // Phase 5: policy bookkeeping for this interval's joins.
        self.policy.record_joins(joins, self.epoch)?;

        // Phase 6: DEK rotation + distribution.
        if let Some(dek) = &mut self.dek {
            let (previous_key, previous_version) = dek.refresh(rng);
            let mut ctx = DekCtx {
                dek,
                previous_key,
                previous_version,
                nonces: NonceRun::draw(rng),
            };
            let interval = IntervalCtx {
                epoch: self.epoch,
                joins,
                had_departures: !leaves.is_empty(),
            };
            let trees = Trees { slots: &self.trees };
            self.policy
                .dek_entries(&mut ctx, &interval, &trees, &mut message);
        }

        Ok(IntervalOutcome {
            stats: IntervalStats {
                joins: joins.len(),
                leaves: leaves.len(),
                migrations,
                encrypted_keys: message.encrypted_key_count(),
                message_bytes: message.byte_len(),
            },
            message,
        })
    }

    fn dek_node(&self) -> NodeId {
        match &self.dek {
            Some(dek) => dek.node,
            None => self.trees[0].server.root_node(),
        }
    }

    fn dek(&self) -> &Key {
        match &self.dek {
            Some(dek) => &dek.key,
            None => self.trees[0].server.root_key(),
        }
    }

    fn member_count(&self) -> usize {
        self.policy.internal_member_count()
            + self
                .trees
                .iter()
                .map(|slot| slot.server.member_count())
                .sum::<usize>()
    }

    fn contains(&self, member: MemberId) -> bool {
        self.policy.internal_contains(member)
            || self.trees.iter().any(|slot| slot.server.contains(member))
    }

    fn members_under(&self, node: NodeId) -> Vec<MemberId> {
        let mut out = Vec::new();
        self.members_under_into(node, &mut out);
        out
    }

    fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        if let Some(dek) = &self.dek {
            if node == dek.node {
                // Whole-group audience: internal members first, then
                // the trees in tree order.
                self.policy.internal_members(out);
                for slot in &self.trees {
                    slot.server.members_under_into(slot.server.root_node(), out);
                }
                return;
            }
        }
        if let Some(members) = self.policy.internal_members_under(node) {
            out.extend(members);
            return;
        }
        for slot in &self.trees {
            if node.namespace() == slot.server.tree().namespace() {
                slot.server.members_under_into(node, out);
                return;
            }
        }
    }

    fn scheme_name(&self) -> &'static str {
        self.policy.scheme_name()
    }

    fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
        buf.push(ENGINE_WIRE_VERSION);
        let name = self.policy.scheme_name();
        put_u32(buf, name.len() as u32);
        buf.extend_from_slice(name.as_bytes());
        put_u64(buf, self.epoch);
        match &self.dek {
            Some(dek) => {
                buf.push(1);
                put_u64(buf, dek.node.0);
                buf.extend_from_slice(dek.key.as_bytes());
                put_u64(buf, dek.version);
            }
            None => buf.push(0),
        }
        put_u32(buf, self.trees.len() as u32);
        for slot in &self.trees {
            slot.server.encode_into(buf);
        }
        self.policy.save_policy_state(buf);
        Ok(())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let corrupt = PersistError::codec("engine state");
        let mut r = Reader::new(bytes);
        let name = r
            .expect(ENGINE_WIRE_VERSION)
            .and_then(|()| {
                let len = r.u32()?;
                r.bytes(len as usize)
            })
            .map_err(&corrupt)?;
        let expected = self.policy.scheme_name();
        if name != expected.as_bytes() {
            return Err(PersistError::SchemeMismatch {
                expected: expected.to_string(),
                found: String::from_utf8_lossy(name).into_owned(),
            });
        }
        self.restore_body(&mut r).map_err(corrupt)
    }
}

#[cfg(test)]
mod tests {
    use crate::partition::TtManager;

    #[test]
    fn rebuilding_a_scheme_reuses_its_tree_span_names() {
        let (first, second) = (TtManager::new(4, 3), TtManager::new(4, 3));
        assert_eq!(first.trees.len(), second.trees.len());
        for (a, b) in first.trees.iter().zip(&second.trees) {
            assert!(a.span_name.starts_with("rekey.tree."));
            assert!(std::ptr::eq(a.span_name, b.span_name), "{}", a.span_name);
        }
    }
}
