//! The two-partition key tree algorithm (§3).
//!
//! New members enter the S-partition; members that survive the
//! S-period of `K` rekey intervals migrate to the L-partition. A
//! departure of a short-lived member then only perturbs the small
//! S-partition: L-partition members need nothing but the refreshed
//! group DEK (one key, wrapped under the L-partition root).
//!
//! Three constructions, as in the paper, each a
//! [`PlacementPolicy`] over the shared [`RekeyEngine`] pipeline:
//!
//! - [`TtManager`] — balanced tree for both partitions: best when the
//!   S-partition is large,
//! - [`QtManager`] — linear queue for the S-partition: joins cost one
//!   key, departures cost one encryption per queued member; best when
//!   the S-partition is small,
//! - [`PtManager`] — oracle placement by expected duration class
//!   (\[SMS00\]-style a-priori knowledge); the upper bound on what
//!   partitioning can achieve since no migrations are ever needed.

use crate::engine::{
    dek_under_roots, DekCtx, IntervalCtx, Migration, Placement, PlacementPolicy, RekeyEngine, Trees,
};
use crate::{DurationClass, Join};
use rekey_crypto::Key;
use rekey_keytree::message::codec::{ensure, put_u32, put_u64, DecodeError, Reader};
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::queue::{KeyQueue, QueueSlot};
use rekey_keytree::server::LkhServer;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};
use std::collections::HashMap;

/// DEK keys live in namespace 1, S-partition ids (tree or queue slots)
/// in 2, L-partition ids in 3.
const NS_DEK: u32 = 1;
const NS_S: u32 = 2;
const NS_L: u32 = 3;

/// Tree index of the S-partition in the two-tree schemes.
const S: usize = 0;
/// Tree index of the L-partition.
const L: usize = 1;

// ---------------------------------------------------------------------
// S-period ledger
// ---------------------------------------------------------------------

/// Who is serving an S-period: for each current S-tree member the
/// epoch it joined at and the individual key it registered (needed
/// again when it migrates). Shared by the TT, combined and adaptive
/// policies, which differ only in where survivors go. A hash map, so an
/// interval's admissions and departures allocate nothing once the
/// ledger has reached its size; whatever leaves it is put in member
/// order first.
#[derive(Debug, Clone)]
pub(crate) struct SPeriod {
    members: HashMap<MemberId, (u64, Key)>,
    /// S-period length in rekey intervals — configuration, not state,
    /// except under the adaptive policy, which retunes it.
    k: u64,
}

impl SPeriod {
    pub(crate) fn new(k: u64) -> Self {
        SPeriod {
            members: HashMap::new(),
            k,
        }
    }

    /// The S-period length in force.
    pub(crate) fn k(&self) -> u64 {
        self.k
    }

    /// Retunes the S-period: members already serving one age out by
    /// the new `k`.
    pub(crate) fn set_k(&mut self, k: u64) {
        self.k = k;
    }

    /// Starts the S-period of everyone who joined at `epoch`.
    pub(crate) fn admit(&mut self, joins: &[Join], epoch: u64) {
        self.members.reserve(joins.len());
        for j in joins {
            self.members
                .insert(j.member, (epoch, j.individual_key.clone()));
        }
    }

    /// Drops a member that left before its S-period ended.
    pub(crate) fn forget(&mut self, member: MemberId) {
        self.members.remove(&member);
    }

    /// Removes and returns, in member order, everyone whose S-period
    /// has elapsed by `epoch`: they migrate in this interval's batch,
    /// before this interval's joins are added.
    pub(crate) fn take_survivors(&mut self, epoch: u64) -> Vec<(MemberId, Key)> {
        let deadline = epoch.saturating_sub(self.k);
        let mut survivors: Vec<(MemberId, Key)> = self
            .members
            .extract_if(|_, (joined, _)| *joined <= deadline)
            .map(|(member, (_, key))| (member, key))
            .collect();
        survivors.sort_unstable_by_key(|&(member, _)| member);
        survivors
    }

    /// [`SPeriod::take_survivors`] as migrations from tree `from` to
    /// tree `to`.
    pub(crate) fn migrate_survivors(
        &mut self,
        epoch: u64,
        from: usize,
        to: usize,
    ) -> Vec<Migration> {
        self.take_survivors(epoch)
            .into_iter()
            .map(|(member, individual_key)| Migration {
                member,
                individual_key,
                from: Some(from),
                to,
            })
            .collect()
    }

    /// One record per S-member, in member order: id, join epoch,
    /// individual key.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        let mut members: Vec<_> = self.members.iter().collect();
        members.sort_unstable_by_key(|&(&member, _)| member);
        put_u32(buf, members.len() as u32);
        for (&member, (joined, key)) in members {
            put_u64(buf, member.0);
            put_u64(buf, *joined);
            buf.extend_from_slice(key.as_bytes());
        }
    }

    /// Replaces the ledger with the one [`SPeriod::encode`] wrote.
    pub(crate) fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        const RECORD_LEN: usize = 8 + 8 + 32;
        let count = r.u32()?;
        self.members.clear();
        self.members
            .reserve(r.bounded(u64::from(count), RECORD_LEN));
        for _ in 0..count {
            let member = MemberId(r.u64()?);
            let joined = r.u64()?;
            self.members
                .insert(member, (joined, Key::from_bytes(*r.array()?)));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TT-scheme
// ---------------------------------------------------------------------

/// Placement for the TT-scheme: joiners enter the S-tree, S-period
/// survivors migrate to the L-tree.
#[derive(Debug, Clone)]
pub struct TtPolicy {
    s_period: SPeriod,
}

impl PlacementPolicy for TtPolicy {
    fn scheme_name(&self) -> &'static str {
        "tt-scheme"
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
        Ok(())
    }

    fn plan_migrations(&mut self, epoch: u64, _trees: &Trees) -> Vec<Migration> {
        self.s_period.migrate_survivors(epoch, S, L)
    }

    fn route_join(&self, _join: &Join, _trees: &Trees) -> Placement {
        Placement::Tree(S)
    }

    fn record_joins(&mut self, joins: &[Join], epoch: u64) -> Result<(), KeyTreeError> {
        self.s_period.admit(joins, epoch);
        Ok(())
    }

    fn save_policy_state(&self, buf: &mut Vec<u8>) {
        self.s_period.encode(buf);
    }

    fn load_policy_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.s_period.decode(r)
    }
}

/// Two balanced key trees: an S-tree for recent joiners and an L-tree
/// for members that survived the S-period.
pub type TtManager = RekeyEngine<TtPolicy>;

impl TtManager {
    /// Creates a TT-scheme manager with tree degree `degree` and
    /// S-period `k` rekey intervals (`K = Ts/Tp`).
    pub fn new(degree: usize, k: u64) -> Self {
        RekeyEngine::with_trees(
            TtPolicy {
                s_period: SPeriod::new(k),
            },
            vec![
                ("s", LkhServer::new(degree, NS_S)),
                ("l", LkhServer::new(degree, NS_L)),
            ],
            Some(NS_DEK),
        )
    }

    /// Current S-partition population (`Ns`).
    pub fn s_count(&self) -> usize {
        self.tree(S).member_count()
    }

    /// Current L-partition population (`Nl`).
    pub fn l_count(&self) -> usize {
        self.tree(L).member_count()
    }
}

// ---------------------------------------------------------------------
// The queue partition (QT and adaptive policies)
// ---------------------------------------------------------------------

/// Removes and returns, as migrations into tree `to`, every queued
/// member whose S-period of `k` intervals has elapsed by `epoch`.
pub(crate) fn queue_survivors(
    queue: &mut KeyQueue,
    epoch: u64,
    k: u64,
    to: usize,
) -> impl Iterator<Item = Migration> {
    queue
        .pop_older_than(epoch.saturating_sub(k))
        .into_iter()
        .map(move |slot| Migration {
            member: slot.member,
            individual_key: slot.individual_key,
            from: None,
            to,
        })
}

/// Entries delivering the DEK to each queued member of `slots`, in
/// order, sealed in lanes.
fn wrap_for_slots<'q>(
    dek: &mut DekCtx,
    slots: impl Iterator<Item = &'q QueueSlot>,
    message: &mut RekeyMessage,
) {
    dek.wrap_under_each(
        slots.map(|slot| (slot.node, slot.member, &slot.individual_key)),
        &mut message.entries,
    );
}

/// Distributes the DEK to a group held in `trees` and in `queue`.
pub(crate) fn queue_dek_entries(
    queue: &KeyQueue,
    dek: &mut DekCtx,
    interval: &IntervalCtx,
    trees: &Trees,
    message: &mut RekeyMessage,
) {
    if !interval.had_departures && interval.epoch > 1 {
        // Join phase (§3.2 phase 1): the new DEK rides under the
        // previous DEK for everyone already present; a joiner gets it
        // under the root of the tree it entered or, if it was queued,
        // individually.
        let members = queue.len() + trees.iter().map(LkhServer::member_count).sum::<usize>();
        message
            .entries
            .push(dek.wrap_under_previous((members - interval.joins.len()) as u32));
        for server in trees.iter() {
            if interval.joins.iter().any(|j| server.contains(j.member)) {
                message.entries.push(dek.wrap_tree_root(server));
            }
        }
        let joined = interval.joins.iter().filter_map(|j| queue.slot(j.member));
        wrap_for_slots(dek, joined, message);
    } else {
        // Departure phase (§3.2 phase 2): the queue has no shared
        // keys, so the DEK is wrapped once per queued member
        // (Neq = Ns) plus once under every occupied tree root.
        dek_under_roots(dek, trees, message);
        wrap_for_slots(dek, queue.iter(), message);
    }
}

/// Audience of `node` if it is one of `queue`'s slots (see
/// [`PlacementPolicy::internal_members_under`]).
pub(crate) fn queue_members_under(queue: &KeyQueue, node: NodeId) -> Option<Vec<MemberId>> {
    (node.namespace() == queue.namespace()).then(|| {
        queue
            .iter()
            .find(|s| s.node == node)
            .map(|s| vec![s.member])
            .unwrap_or_default()
    })
}

/// Replaces `queue` with the one serialized on `r`. The namespace is
/// fixed at construction; a blob from a differently-configured manager
/// must not graft on.
pub(crate) fn load_queue(queue: &mut KeyQueue, r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let loaded = KeyQueue::decode(r)?;
    ensure(loaded.namespace() == queue.namespace())?;
    *queue = loaded;
    Ok(())
}

// ---------------------------------------------------------------------
// QT-scheme
// ---------------------------------------------------------------------

/// Placement for the QT-scheme: the S-partition is a [`KeyQueue`]
/// internal to the policy (no shared keys at all), the L-partition is
/// the engine's single tree.
#[derive(Debug, Clone)]
pub struct QtPolicy {
    queue: KeyQueue,
    k: u64,
}

impl PlacementPolicy for QtPolicy {
    fn scheme_name(&self) -> &'static str {
        "qt-scheme"
    }

    fn record_leave(
        &mut self,
        member: MemberId,
        at: Placement,
        _epoch: u64,
    ) -> Result<(), KeyTreeError> {
        if at == Placement::Internal {
            self.queue.remove(member)?;
        }
        Ok(())
    }

    fn plan_migrations(&mut self, epoch: u64, _trees: &Trees) -> Vec<Migration> {
        queue_survivors(&mut self.queue, epoch, self.k, 0).collect()
    }

    fn route_join(&self, _join: &Join, _trees: &Trees) -> Placement {
        Placement::Internal
    }

    fn record_joins(&mut self, joins: &[Join], epoch: u64) -> Result<(), KeyTreeError> {
        for j in joins {
            self.queue.push(j.member, j.individual_key.clone(), epoch)?;
        }
        Ok(())
    }

    fn dek_entries(
        &mut self,
        dek: &mut DekCtx,
        interval: &IntervalCtx,
        trees: &Trees,
        message: &mut RekeyMessage,
    ) {
        queue_dek_entries(&self.queue, dek, interval, trees, message);
    }

    fn internal_member_count(&self) -> usize {
        self.queue.len()
    }

    fn internal_contains(&self, member: MemberId) -> bool {
        self.queue.contains(member)
    }

    fn internal_members(&self, out: &mut Vec<MemberId>) {
        out.extend(self.queue.iter().map(|slot| slot.member));
    }

    fn internal_members_under(&self, node: NodeId) -> Option<Vec<MemberId>> {
        queue_members_under(&self.queue, node)
    }

    fn save_policy_state(&self, buf: &mut Vec<u8>) {
        self.queue.encode_into(buf);
    }

    fn load_policy_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        load_queue(&mut self.queue, r)
    }
}

/// A linear queue for the S-partition and a balanced tree for the
/// L-partition.
pub type QtManager = RekeyEngine<QtPolicy>;

impl QtManager {
    /// Creates a QT-scheme manager with L-tree degree `degree` and
    /// S-period `k` rekey intervals.
    pub fn new(degree: usize, k: u64) -> Self {
        RekeyEngine::with_trees(
            QtPolicy {
                queue: KeyQueue::new(NS_S),
                k,
            },
            vec![("l", LkhServer::new(degree, NS_L))],
            Some(NS_DEK),
        )
    }

    /// Current S-partition population (`Ns`).
    pub fn s_count(&self) -> usize {
        self.policy().queue.len()
    }

    /// Current L-partition population (`Nl`).
    pub fn l_count(&self) -> usize {
        self.tree(0).member_count()
    }
}

// ---------------------------------------------------------------------
// PT-scheme
// ---------------------------------------------------------------------

/// Placement for the PT-scheme: members go straight into the partition
/// of their (known) duration class, so no migrations ever happen.
#[derive(Debug, Clone, Default)]
pub struct PtPolicy;

impl PlacementPolicy for PtPolicy {
    fn scheme_name(&self) -> &'static str {
        "pt-scheme"
    }

    fn route_join(&self, join: &Join, _trees: &Trees) -> Placement {
        match join.hint.expected_class {
            Some(DurationClass::Short) => Placement::Tree(S),
            // Unknown members default to the long partition, the safe
            // choice for stable groups.
            Some(DurationClass::Long) | None => Placement::Tree(L),
        }
    }
}

/// Oracle placement: members are placed directly into the partition of
/// their (known) duration class, so no migrations ever happen. The
/// upper bound of the two-partition idea.
pub type PtManager = RekeyEngine<PtPolicy>;

impl PtManager {
    /// Creates a PT-scheme manager with tree degree `degree`.
    pub fn new(degree: usize) -> Self {
        RekeyEngine::with_trees(
            PtPolicy,
            vec![
                ("s", LkhServer::new(degree, NS_S)),
                ("l", LkhServer::new(degree, NS_L)),
            ],
            Some(NS_DEK),
        )
    }

    /// Current short-class population.
    pub fn s_count(&self) -> usize {
        self.tree(S).member_count()
    }

    /// Current long-class population.
    pub fn l_count(&self) -> usize {
        self.tree(L).member_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupKeyManager, IntervalOutcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_crypto::keywrap::{next_nonce, NONCE_LEN};
    use rekey_keytree::member::GroupMember;
    use std::collections::BTreeMap;

    struct Fixture {
        members: BTreeMap<MemberId, GroupMember>,
        next_id: u64,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                members: BTreeMap::new(),
                next_id: 0,
            }
        }

        fn joins(&mut self, n: usize, rng: &mut StdRng) -> Vec<Join> {
            (0..n)
                .map(|_| {
                    let id = MemberId(self.next_id);
                    self.next_id += 1;
                    let ik = Key::generate(rng);
                    self.members.insert(id, GroupMember::new(id, ik.clone()));
                    Join::new(id, ik)
                })
                .collect()
        }

        fn deliver(&mut self, out: &IntervalOutcome) {
            for m in self.members.values_mut() {
                let _ = m.process(&out.message);
            }
        }

        fn assert_synchronized(&self, mgr: &dyn GroupKeyManager, departed: &[MemberId]) {
            for (id, m) in &self.members {
                if departed.contains(id) {
                    assert_ne!(
                        m.key_for(mgr.dek_node()),
                        Some(mgr.dek()),
                        "departed {id} still holds the DEK"
                    );
                } else if mgr.contains(*id) {
                    assert_eq!(
                        m.key_for(mgr.dek_node()),
                        Some(mgr.dek()),
                        "member {id} lost the DEK"
                    );
                }
            }
        }
    }

    #[test]
    fn pt_routes_by_class_hint() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mgr = PtManager::new(4);
        let joins = vec![
            Join::new(MemberId(1), Key::generate(&mut rng)).with_class(DurationClass::Short),
            Join::new(MemberId(2), Key::generate(&mut rng)).with_class(DurationClass::Long),
            Join::new(MemberId(3), Key::generate(&mut rng)),
        ];
        mgr.process_interval(&joins, &[], &mut rng).unwrap();
        assert_eq!(mgr.s_count(), 1);
        assert_eq!(mgr.l_count(), 2);
    }

    #[test]
    fn tt_migration_happens_after_k_intervals() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mgr = TtManager::new(4, 2);
        let mut fx = Fixture::new();
        let joins = fx.joins(5, &mut rng);
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        fx.deliver(&out);
        assert_eq!(mgr.s_count(), 5);
        assert_eq!(mgr.l_count(), 0);

        // K = 2: members joined at epoch 1 migrate at epoch 3.
        let out = mgr.process_interval(&[], &[], &mut rng).unwrap();
        fx.deliver(&out);
        assert_eq!(mgr.s_count(), 5, "migrated too early");
        let out = mgr.process_interval(&[], &[], &mut rng).unwrap();
        fx.deliver(&out);
        assert_eq!(mgr.s_count(), 0);
        assert_eq!(mgr.l_count(), 5);
        assert_eq!(out.stats.migrations, 5);
        fx.assert_synchronized(&mgr, &[]);
    }

    #[test]
    fn qt_departure_costs_queue_size() {
        let mut rng = StdRng::seed_from_u64(9);
        // Large K so nobody migrates during the test.
        let mut mgr = QtManager::new(4, 100);
        let mut fx = Fixture::new();
        let joins = fx.joins(10, &mut rng);
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        fx.deliver(&out);

        let victim = MemberId(0);
        let out = mgr.process_interval(&[], &[victim], &mut rng).unwrap();
        fx.deliver(&out);
        // 9 queue members get individual DEK wraps; no L-tree.
        assert_eq!(out.stats.encrypted_keys, 9);
        fx.assert_synchronized(&mgr, &[victim]);
    }

    #[test]
    fn qt_pure_join_is_cheap() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut mgr = QtManager::new(4, 100);
        let mut fx = Fixture::new();
        let joins = fx.joins(10, &mut rng);
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        fx.deliver(&out);

        // One more pure-join interval: 1 DEK-under-old-DEK entry plus
        // 3 individual entries.
        let joins = fx.joins(3, &mut rng);
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        fx.deliver(&out);
        assert_eq!(out.stats.encrypted_keys, 4);
        fx.assert_synchronized(&mgr, &[]);
    }

    /// Counts the `fill_bytes` calls that ask for exactly a nonce.
    struct NonceDraws(StdRng, usize);

    impl rand::RngCore for NonceDraws {
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

    /// An interval draws one nonce start per tree batch and one for the
    /// DEK's distribution, however many times the DEK is wrapped; the
    /// DEK entries count up from theirs.
    #[test]
    fn dek_distribution_draws_one_nonce_start_per_interval() {
        let mut rng = NonceDraws(StdRng::seed_from_u64(14), 0);
        let mut qt = QtManager::new(4, 100);
        let mut tt = TtManager::new(4, 100);
        let mut fx = Fixture::new();
        let joins = fx.joins(10, &mut rng.0);
        for (mgr, trees) in [(&mut qt as &mut dyn GroupKeyManager, 1), (&mut tt, 2)] {
            mgr.process_interval(&joins, &[], &mut rng).unwrap();
            rng.1 = 0;
            let out = mgr.process_interval(&[], &[MemberId(0)], &mut rng).unwrap();
            assert_eq!(rng.1, trees + 1, "{}", mgr.scheme_name());
            let dek_entries: Vec<_> = out
                .message
                .entries
                .iter()
                .filter(|e| e.target == mgr.dek_node())
                .collect();
            assert_eq!(dek_entries.len(), if trees == 1 { 9 } else { 1 });
            for pair in dek_entries.windows(2) {
                assert_eq!(pair[1].wrapped.nonce(), next_nonce(pair[0].wrapped.nonce()));
            }
        }
    }

    #[test]
    fn unknown_leaver_is_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mgr = TtManager::new(4, 2);
        let err = mgr
            .process_interval(&[], &[MemberId(404)], &mut rng)
            .unwrap_err();
        assert_eq!(err, KeyTreeError::UnknownMember(MemberId(404)));
    }

    #[test]
    fn members_under_dek_is_whole_group() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut mgr = TtManager::new(4, 1);
        let mut fx = Fixture::new();
        let joins = fx.joins(8, &mut rng);
        mgr.process_interval(&joins, &[], &mut rng).unwrap();
        mgr.process_interval(&[], &[], &mut rng).unwrap();
        let all = mgr.members_under(mgr.dek_node());
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn qt_members_under_covers_queue_slots() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut mgr = QtManager::new(4, 100);
        let mut fx = Fixture::new();
        let joins = fx.joins(4, &mut rng);
        let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
        // Queue members lead the DEK audience, in arrival order.
        let all = mgr.members_under(mgr.dek_node());
        assert_eq!(all.len(), 4);
        // Every entry addressed to a queue slot has exactly that
        // member as its audience.
        let queue_ns = mgr.policy().queue.namespace();
        for (_, entry) in out.message.iter() {
            if entry.under.namespace() == queue_ns {
                let audience = mgr.members_under(entry.under);
                assert_eq!(audience, vec![entry.recipient.unwrap()]);
            }
        }
    }
}
