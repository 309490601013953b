//! Receiver-side state: a group member's key ring.
//!
//! A [`GroupMember`] holds its individual key (shared with the key
//! server at registration) and every tree key it has learned from
//! rekey messages — which, by construction of the server's messages,
//! is exactly the keys on its leaf-to-root path(s), plus the group
//! data-encryption key when a manager distributes one.
//!
//! Processing is a single forward pass thanks to the
//! deepest-target-first entry order; see [`crate::message`].

use crate::message::{RekeyEntry, RekeyMessage};
use crate::{KeyTreeError, MemberId, NodeId};
use rekey_crypto::Key;
use std::collections::HashMap;

/// The key ring and message-processing logic of one group member.
#[derive(Debug, Clone)]
pub struct GroupMember {
    id: MemberId,
    individual: Key,
    keys: HashMap<NodeId, (u64, Key)>,
    processed_entries: u64,
    decrypted_entries: u64,
}

impl GroupMember {
    /// Creates a member that holds only its individual key, as
    /// established with the key server at registration time.
    pub fn new(id: MemberId, individual_key: Key) -> Self {
        GroupMember {
            id,
            individual: individual_key,
            keys: HashMap::new(),
            processed_entries: 0,
            decrypted_entries: 0,
        }
    }

    /// This member's id.
    pub fn id(&self) -> MemberId {
        self.id
    }

    /// The member's individual key (shared only with the key server).
    pub fn individual_key(&self) -> &Key {
        &self.individual
    }

    /// The current key this member holds for `node`, if any.
    pub fn key_for(&self, node: NodeId) -> Option<&Key> {
        self.keys.get(&node).map(|(_, k)| k)
    }

    /// The version of the key this member holds for `node`, if any.
    pub fn version_for(&self, node: NodeId) -> Option<u64> {
        self.keys.get(&node).map(|(v, _)| *v)
    }

    /// Number of distinct tree keys currently held (excluding the
    /// individual key).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Total entries seen / successfully decrypted, for diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        (self.processed_entries, self.decrypted_entries)
    }

    /// Iterates over every `(node, version)` pair currently held
    /// (excluding the individual key), in unspecified order. Test
    /// harnesses compare this ring against an independent oracle of
    /// the keys this member is *entitled* to.
    pub fn held_keys(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.keys.iter().map(|(&n, &(v, _))| (n, v))
    }

    fn try_entry(&mut self, entry: &RekeyEntry) -> Result<bool, KeyTreeError> {
        // A key we already hold at the required version? Never let a
        // replayed or reordered entry roll a held key *back*: an entry
        // only installs its target when it advances (or first
        // establishes) the version we hold for that node.
        if let Some((version, key)) = self.keys.get(&entry.under) {
            if *version == entry.under_version {
                let held = self.keys.get(&entry.target).map(|(v, _)| *v);
                if held.is_some_and(|v| v >= entry.target_version) {
                    return Ok(false);
                }
                let new_key = entry.open(key)?;
                self.keys
                    .insert(entry.target, (entry.target_version, new_key));
                return Ok(true);
            }
        }
        // An entry addressed directly to our individual key? The leaf
        // node id is assigned by the server, so we learn it here. The
        // recipient id lets us skip (costly) decryption attempts on
        // entries addressed to other members.
        if entry.under_is_leaf
            && entry.recipient == Some(self.id)
            && !self.keys.contains_key(&entry.under)
        {
            let new_key = entry.open(&self.individual)?;
            self.keys
                .insert(entry.under, (entry.under_version, self.individual.clone()));
            let held = self.keys.get(&entry.target).map(|(v, _)| *v);
            if held.is_none_or(|v| v < entry.target_version) {
                self.keys
                    .insert(entry.target, (entry.target_version, new_key));
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Processes a rekey message, updating every key addressed to this
    /// member. Entries not addressed to this member are skipped — the
    /// *sparseness property* of rekey payloads (§2.2 of the paper).
    ///
    /// Returns the number of entries this member decrypted.
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::Crypto`] if an entry addressed to a key
    /// this member holds fails authentication: the wrapped key or any
    /// header field (see [`RekeyEntry::binding`]) is not what the key
    /// server sealed. Entries before the failing one stay installed; a
    /// genuine retransmission of the message completes the rest.
    pub fn process(&mut self, message: &RekeyMessage) -> Result<usize, KeyTreeError> {
        let mut decrypted = 0;
        for entry in &message.entries {
            self.processed_entries += 1;
            if self.try_entry(entry)? {
                decrypted += 1;
                self.decrypted_entries += 1;
            }
        }
        Ok(decrypted)
    }

    /// Processes only the given entries (used when the transport layer
    /// delivers a subset of packets).
    ///
    /// # Errors
    ///
    /// Same as [`GroupMember::process`].
    pub fn process_entries<'a, I>(&mut self, entries: I) -> Result<usize, KeyTreeError>
    where
        I: IntoIterator<Item = &'a RekeyEntry>,
    {
        let mut decrypted = 0;
        for entry in entries {
            self.processed_entries += 1;
            if self.try_entry(entry)? {
                decrypted += 1;
                self.decrypted_entries += 1;
            }
        }
        Ok(decrypted)
    }

    /// Forgets a key (e.g. after a manager signals that a node was
    /// retired). Primarily useful to bound memory in long simulations.
    pub fn forget(&mut self, node: NodeId) {
        self.keys.remove(&node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LkhServer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn member_learns_path_keys_on_join() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut server = LkhServer::new(3, 0);
        let ik = Key::generate(&mut rng);
        let msg = server.join(MemberId(1), ik.clone(), &mut rng);
        let mut m = GroupMember::new(MemberId(1), ik);
        let n = m.process(&msg).unwrap();
        assert!(n >= 1);
        assert_eq!(m.key_for(server.root_node()), Some(server.root_key()));
    }

    #[test]
    fn uninterested_member_decrypts_nothing() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut server = LkhServer::new(3, 0);
        let ik = Key::generate(&mut rng);
        let msg = server.join(MemberId(1), ik, &mut rng);
        // A member with a different individual key decrypts nothing.
        let mut stranger = GroupMember::new(MemberId(2), Key::generate(&mut rng));
        assert_eq!(stranger.process(&msg).unwrap(), 0);
        assert_eq!(stranger.key_count(), 0);
    }

    #[test]
    fn forget_drops_a_key() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut server = LkhServer::new(3, 0);
        let ik = Key::generate(&mut rng);
        let msg = server.join(MemberId(1), ik.clone(), &mut rng);
        let mut m = GroupMember::new(MemberId(1), ik);
        m.process(&msg).unwrap();
        let root = server.root_node();
        assert!(m.key_for(root).is_some());
        m.forget(root);
        assert!(m.key_for(root).is_none());
    }

    #[test]
    fn version_tracking_follows_rekeys() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut server = LkhServer::new(3, 0);
        let ik1 = Key::generate(&mut rng);
        let msg = server.join(MemberId(1), ik1.clone(), &mut rng);
        let mut m = GroupMember::new(MemberId(1), ik1);
        m.process(&msg).unwrap();
        let root = server.root_node();
        let v1 = m.version_for(root).unwrap();

        let msg = server.join(MemberId(2), Key::generate(&mut rng), &mut rng);
        m.process(&msg).unwrap();
        let v2 = m.version_for(root).unwrap();
        assert!(v2 > v1, "root version must advance: {v1} -> {v2}");
    }

    #[test]
    fn stats_track_entries() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut server = LkhServer::new(3, 0);
        let ik = Key::generate(&mut rng);
        let msg = server.join(MemberId(1), ik.clone(), &mut rng);
        let mut m = GroupMember::new(MemberId(1), ik);
        m.process(&msg).unwrap();
        let (seen, got) = m.stats();
        assert_eq!(seen as usize, msg.encrypted_key_count());
        assert!(got >= 1);
    }
}
