//! The linear-queue partition used by the paper's QT-scheme (§3.2).
//!
//! In the QT-scheme the S-partition is not a tree: each short-term
//! member holds only its individual key and the group key. A join
//! therefore costs a single group-key update, while a departure costs
//! one encryption per remaining queue member (the new group key is
//! wrapped individually for each of them).
//!
//! [`KeyQueue`] tracks the members, their individual keys, their queue
//! node ids (used as `under` in rekey entries addressed to them), and
//! their join epochs so the manager can migrate members older than the
//! S-period to the L-partition.

use crate::message::codec::{ensure, put_u32, put_u64, DecodeError, Reader};
use crate::{KeyTreeError, MemberId, NodeId};
use rekey_crypto::Key;
use std::collections::{HashMap, VecDeque};

/// Version byte leading a serialized [`KeyQueue`].
pub const QUEUE_WIRE_VERSION: u8 = 1;

/// Serialized size of one slot: member, node, individual key, join
/// epoch.
const SLOT_RECORD_LEN: usize = 8 + 8 + 32 + 8;

/// One member's slot in the queue.
#[derive(Debug, Clone)]
pub struct QueueSlot {
    /// The member occupying this slot.
    pub member: MemberId,
    /// Pseudo-node id identifying the member's individual key in rekey
    /// entries.
    pub node: NodeId,
    /// The member's individual key.
    pub individual_key: Key,
    /// Rekey epoch at which the member joined the queue.
    pub joined_epoch: u64,
}

/// A FIFO of short-term members keyed only by their individual keys.
#[derive(Debug, Clone)]
pub struct KeyQueue {
    namespace: u32,
    next_counter: u64,
    by_member: HashMap<MemberId, QueueSlot>,
    /// Every push, oldest first. An entry is live while `by_member`
    /// holds that member under that node id: a removed member's entry
    /// goes stale, also when the member has since rejoined under a
    /// fresh node id.
    arrival_order: VecDeque<(MemberId, NodeId)>,
}

impl KeyQueue {
    /// Creates an empty queue drawing node ids from `namespace`.
    pub fn new(namespace: u32) -> Self {
        KeyQueue {
            namespace,
            next_counter: 0,
            by_member: HashMap::new(),
            arrival_order: VecDeque::new(),
        }
    }

    /// The namespace this queue draws its slot node ids from.
    pub fn namespace(&self) -> u32 {
        self.namespace
    }

    /// Number of members currently queued (the paper's `Ns` for the
    /// QT-scheme).
    pub fn len(&self) -> usize {
        self.by_member.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.by_member.is_empty()
    }

    /// Whether `member` is in the queue.
    pub fn contains(&self, member: MemberId) -> bool {
        self.by_member.contains_key(&member)
    }

    /// The slot of `member`, if queued.
    pub fn slot(&self, member: MemberId) -> Option<&QueueSlot> {
        self.by_member.get(&member)
    }

    /// Enqueues a member.
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::DuplicateMember`] if already queued.
    pub fn push(
        &mut self,
        member: MemberId,
        individual_key: Key,
        epoch: u64,
    ) -> Result<NodeId, KeyTreeError> {
        if self.contains(member) {
            return Err(KeyTreeError::DuplicateMember(member));
        }
        let node = NodeId::from_parts(self.namespace, self.next_counter);
        self.next_counter += 1;
        self.by_member.insert(
            member,
            QueueSlot {
                member,
                node,
                individual_key,
                joined_epoch: epoch,
            },
        );
        self.arrival_order.push_back((member, node));
        Ok(node)
    }

    /// Removes a member (departure before the S-period elapsed).
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::UnknownMember`] if not queued.
    pub fn remove(&mut self, member: MemberId) -> Result<QueueSlot, KeyTreeError> {
        let slot = self
            .by_member
            .remove(&member)
            .ok_or(KeyTreeError::UnknownMember(member))?;
        // Arrival order is cleaned lazily in `pop_older_than`.
        Ok(slot)
    }

    /// Removes and returns every member that joined at or before
    /// `epoch` (i.e. whose age exceeds the S-period) in arrival order —
    /// the migration batch for the L-partition.
    pub fn pop_older_than(&mut self, epoch: u64) -> Vec<QueueSlot> {
        let mut migrated = Vec::new();
        while let Some(&(front, node)) = self.arrival_order.front() {
            match self.by_member.get(&front) {
                Some(slot) if slot.node == node && slot.joined_epoch <= epoch => {
                    migrated.push(self.by_member.remove(&front).expect("checked present"));
                }
                Some(slot) if slot.node == node => break, // FIFO: the rest are younger
                _ => {} // stale entry for a member removed earlier
            }
            self.arrival_order.pop_front();
        }
        migrated
    }

    /// Iterates over all queued members' slots in arrival order.
    ///
    /// The order is deterministic: rekey entries addressed to queue
    /// members (one per slot on a departure rekey) appear in the same
    /// order on every run with the same membership script, which is
    /// what lets seeded simulations pin byte-exact message digests.
    pub fn iter(&self) -> impl Iterator<Item = &QueueSlot> {
        self.arrival_order
            .iter()
            .filter_map(|(m, node)| self.by_member.get(m).filter(|slot| slot.node == *node))
    }

    /// All queued member ids, in arrival order.
    pub fn members(&self) -> Vec<MemberId> {
        self.iter().map(|slot| slot.member).collect()
    }

    /// Serializes the queue onto `buf`: namespace, id counter, and the
    /// live slots in arrival order (the order [`KeyQueue::iter`]
    /// yields, which is the order rekey entries are addressed in).
    /// Stale arrival-order entries are compacted away, which never
    /// changes observable behaviour.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(QUEUE_WIRE_VERSION);
        put_u32(buf, self.namespace);
        put_u64(buf, self.next_counter);
        put_u32(buf, self.len() as u32);
        for slot in self.iter() {
            put_u64(buf, slot.member.0);
            put_u64(buf, slot.node.0);
            buf.extend_from_slice(slot.individual_key.as_bytes());
            put_u64(buf, slot.joined_epoch);
        }
    }

    /// Decodes a queue serialized by [`KeyQueue::encode_into`] off the
    /// front of `r`. [`DecodeError::Invalid`] for an unknown version or
    /// a duplicate member.
    pub fn decode(r: &mut Reader<'_>) -> Result<KeyQueue, DecodeError> {
        r.expect(QUEUE_WIRE_VERSION)?;
        let namespace = r.u32()?;
        let next_counter = r.u64()?;
        let len = r.u32()?;
        let capacity = r.bounded(len.into(), SLOT_RECORD_LEN);
        let mut queue = KeyQueue {
            namespace,
            next_counter,
            by_member: HashMap::with_capacity(capacity),
            arrival_order: VecDeque::with_capacity(capacity),
        };
        for _ in 0..len {
            let member = MemberId(r.u64()?);
            let node = NodeId(r.u64()?);
            let slot = QueueSlot {
                member,
                node,
                individual_key: Key::from_bytes(*r.array()?),
                joined_epoch: r.u64()?,
            };
            ensure(queue.by_member.insert(member, slot).is_none())?;
            queue.arrival_order.push_back((member, node));
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(rng: &mut StdRng) -> Key {
        Key::generate(rng)
    }

    #[test]
    fn push_and_len() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = KeyQueue::new(5);
        let n0 = q.push(MemberId(0), key(&mut rng), 1).unwrap();
        let n1 = q.push(MemberId(1), key(&mut rng), 2).unwrap();
        assert_eq!(q.len(), 2);
        assert_ne!(n0, n1);
        assert_eq!(n0.namespace(), 5);
    }

    #[test]
    fn duplicate_push_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut q = KeyQueue::new(0);
        q.push(MemberId(0), key(&mut rng), 1).unwrap();
        assert_eq!(
            q.push(MemberId(0), key(&mut rng), 2).unwrap_err(),
            KeyTreeError::DuplicateMember(MemberId(0))
        );
    }

    #[test]
    fn remove_unknown_rejected() {
        let mut q = KeyQueue::new(0);
        assert_eq!(
            q.remove(MemberId(9)).unwrap_err(),
            KeyTreeError::UnknownMember(MemberId(9))
        );
    }

    #[test]
    fn pop_older_than_respects_epochs_and_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = KeyQueue::new(0);
        for (m, e) in [(0u64, 1u64), (1, 2), (2, 5), (3, 9)] {
            q.push(MemberId(m), key(&mut rng), e).unwrap();
        }
        let migrated = q.pop_older_than(5);
        let ids: Vec<_> = migrated.iter().map(|s| s.member).collect();
        assert_eq!(ids, vec![MemberId(0), MemberId(1), MemberId(2)]);
        assert_eq!(q.len(), 1);
        assert!(q.contains(MemberId(3)));
    }

    #[test]
    fn pop_older_than_skips_removed_members() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut q = KeyQueue::new(0);
        for m in 0..4u64 {
            q.push(MemberId(m), key(&mut rng), 1).unwrap();
        }
        q.remove(MemberId(0)).unwrap();
        q.remove(MemberId(2)).unwrap();
        let migrated = q.pop_older_than(1);
        let ids: Vec<_> = migrated.iter().map(|s| s.member).collect();
        assert_eq!(ids, vec![MemberId(1), MemberId(3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn iter_and_members_follow_arrival_order() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut q = KeyQueue::new(0);
        for m in [5u64, 1, 9, 3] {
            q.push(MemberId(m), key(&mut rng), 1).unwrap();
        }
        q.remove(MemberId(9)).unwrap();
        let ids: Vec<_> = q.iter().map(|s| s.member).collect();
        assert_eq!(ids, vec![MemberId(5), MemberId(1), MemberId(3)]);
        assert_eq!(q.members(), ids);
    }

    /// A member that leaves and rejoins while its old arrival entry is
    /// still in the deque holds one slot, at the back, and does not
    /// hold up the members behind its old position.
    #[test]
    fn rejoin_after_remove_is_one_slot_at_the_back() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = KeyQueue::new(0);
        for m in 0..3u64 {
            q.push(MemberId(m), key(&mut rng), 1).unwrap();
        }
        q.remove(MemberId(0)).unwrap();
        q.push(MemberId(0), key(&mut rng), 4).unwrap();
        assert_eq!(q.members(), vec![MemberId(1), MemberId(2), MemberId(0)]);

        let mut buf = Vec::new();
        q.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = KeyQueue::decode(&mut r).expect("decodes");
        assert!(r.rest().is_empty());
        assert_eq!(decoded.members(), q.members());

        let ids: Vec<_> = q.pop_older_than(1).iter().map(|s| s.member).collect();
        assert_eq!(ids, vec![MemberId(1), MemberId(2)]);
        assert_eq!(q.members(), vec![MemberId(0)]);
    }

    /// A count claiming `u32::MAX` slots with nothing behind it is
    /// refused, not reserved.
    #[test]
    fn a_huge_count_over_an_empty_tail_is_refused_without_allocating() {
        let mut buf = vec![QUEUE_WIRE_VERSION];
        put_u32(&mut buf, 0);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, u32::MAX);
        assert_eq!(
            KeyQueue::decode(&mut Reader::new(&buf)).err(),
            Some(DecodeError::Truncated)
        );
    }

    #[test]
    fn slots_keep_individual_keys() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut q = KeyQueue::new(0);
        let k = key(&mut rng);
        q.push(MemberId(0), k.clone(), 1).unwrap();
        assert_eq!(q.slot(MemberId(0)).unwrap().individual_key, k);
    }
}
