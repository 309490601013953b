//! Receiver-side state: a group member's key ring.
//!
//! A [`GroupMember`] holds its individual key (shared with the key
//! server at registration) and every tree key it has learned from
//! rekey messages — which, by construction of the server's messages,
//! is exactly the keys on its leaf-to-root path(s), plus the group
//! data-encryption key when a manager distributes one.
//!
//! Processing is the message's advances, then a single forward pass
//! over its entries thanks to the deepest-target-first entry order;
//! see [`crate::message`]. Whenever an entry addressed to the member
//! gives it a key, the member climbs the message's derivations from
//! it: a record whose source is that key gives its target by G, which
//! may be the source of the next record up. A source is always the
//! version an entry of the same message names, so a record is never
//! applied to a key held from an earlier epoch.

use crate::message::{KeyAdvance, KeyDerivation, RekeyEntry, RekeyMessage};
use crate::{KeyTreeError, MemberId, NodeId};
use rekey_crypto::keywrap::open_advance;
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

    /// Whether this member holds `node` at `version` or later.
    fn holds(&self, node: NodeId, version: u64) -> bool {
        self.keys.get(&node).is_some_and(|&(v, _)| v >= version)
    }

    /// Opens `entry` if it is addressed to a key this member holds:
    /// `None` if it is not, else whether it was decrypted (it is not
    /// when the member already holds its target at that version or
    /// later).
    fn try_entry(&mut self, entry: &RekeyEntry) -> Result<Option<bool>, KeyTreeError> {
        // A key we already hold at the required version? Never let a
        // replayed or reordered entry roll a held key *back*: an entry
        // only installs its target when it advances (or first
        // establishes) the version we hold for that node.
        if let Some((version, key)) = self.keys.get(&entry.under) {
            if *version == entry.under_version {
                if self.holds(entry.target, entry.target_version) {
                    return Ok(Some(false));
                }
                let new_key = entry.open(key)?;
                self.keys
                    .insert(entry.target, (entry.target_version, new_key));
                return Ok(Some(true));
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
            if !self.holds(entry.target, entry.target_version) {
                self.keys
                    .insert(entry.target, (entry.target_version, new_key));
            }
            return Ok(Some(true));
        }
        Ok(None)
    }

    /// Climbs `derivations` from `source`, a key this member holds at
    /// the version the message they came with installs: the record
    /// whose source it is gives its target by G, checked, and the climb
    /// goes on from that target. A node is the source of at most one
    /// genuine record — its parent's — so the climb takes at most one
    /// step per record. A target already held at the record's version
    /// (a retransmission after a partial pass) is climbed through, not
    /// derived again; one held at a later version ends the climb.
    /// Returns the number of keys derived.
    fn derive_upward(
        &mut self,
        mut source: NodeId,
        derivations: &[KeyDerivation],
    ) -> Result<usize, KeyTreeError> {
        let mut derived = 0;
        for _ in 0..derivations.len() {
            let Some(record) = derivations.iter().find(|d| d.source == source) else {
                break;
            };
            match self.version_for(record.target) {
                Some(held) if held > record.version => break,
                Some(held) if held == record.version => {}
                _ => {
                    let key = record.open(&self.keys[&source].1)?;
                    self.keys.insert(record.target, (record.version, key));
                    derived += 1;
                }
            }
            source = record.target;
        }
        Ok(derived)
    }

    /// Processes a rekey message, updating every key addressed to this
    /// member: first its advances, then its entries in one pass, each
    /// installed key followed up its derivations.
    /// Advances, entries and derivations not addressed to this member
    /// are skipped — the *sparseness property* of rekey payloads (§2.2
    /// of the paper).
    ///
    /// Returns the number of keys this member installed: advances
    /// applied, entries decrypted and keys derived.
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError::Crypto`] if an advance, entry or
    /// derivation addressed to a key this member holds fails
    /// authentication: an advance's check (see
    /// [`GroupMember::process_advances`]), the wrapped key or any
    /// header field of an entry (see [`RekeyEntry::binding`]), or a
    /// derivation's check over its labels (see
    /// [`KeyDerivation::binding`]) is not what the key server made.
    /// Keys installed before the failing one stay installed; a genuine
    /// retransmission of the message completes the rest.
    pub fn process(&mut self, message: &RekeyMessage) -> Result<usize, KeyTreeError> {
        let advanced = self.process_advances(&message.advances)?;
        Ok(advanced + self.process_entries(&message.entries, &message.derivations)?)
    }

    /// Applies a message's advances: for each [`KeyAdvance`] to
    /// `node@v` whose `node@(v − 1)` this member holds, computes F of
    /// the held key, compares the check, and installs `node@v`. An
    /// advance of a key this member does not hold at `v − 1` is
    /// skipped. Call before the message's entries, which may be wrapped
    /// under an advanced key; [`GroupMember::process`] does.
    ///
    /// Returns the number of keys advanced.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::Crypto`] (`BadTag`) if an advance of a held key
    /// carries a check F does not give: the record was altered, and the
    /// held key stays as it was.
    pub fn process_advances(&mut self, advances: &[KeyAdvance]) -> Result<usize, KeyTreeError> {
        let mut advanced = 0;
        for advance in advances {
            let Some((version, key)) = self.keys.get_mut(&advance.node) else {
                continue;
            };
            if Some(*version) != advance.version.checked_sub(1) {
                continue;
            }
            *key = open_advance(key, &advance.check)?;
            *version = advance.version;
            advanced += 1;
        }
        Ok(advanced)
    }

    /// Processes only the given entries of a message, climbing its
    /// `derivations` from every key they install (used when the
    /// transport layer delivers a subset of packets, over one or more
    /// rounds; the message's advances and derivations travel with its
    /// envelope, and the advances go to
    /// [`GroupMember::process_advances`] first).
    ///
    /// Returns the number of keys installed: entries decrypted and keys
    /// derived.
    ///
    /// # Errors
    ///
    /// Same as [`GroupMember::process`].
    pub fn process_entries<'a, I>(
        &mut self,
        entries: I,
        derivations: &[KeyDerivation],
    ) -> Result<usize, KeyTreeError>
    where
        I: IntoIterator<Item = &'a RekeyEntry>,
    {
        let mut installed = 0;
        for entry in entries {
            self.processed_entries += 1;
            let Some(decrypted) = self.try_entry(entry)? else {
                continue;
            };
            if decrypted {
                installed += 1;
                self.decrypted_entries += 1;
            }
            // The entry's target is the version this message installs:
            // just opened, or held since an earlier pass over the same
            // message, which a retransmission completes from here.
            if self.version_for(entry.target) == Some(entry.target_version) {
                installed += self.derive_upward(entry.target, derivations)?;
            }
        }
        Ok(installed)
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

    /// A member below a node that only joins changed follows it by F,
    /// with no entry addressed to it; a flipped check is `BadTag` and
    /// leaves the held key alone.
    #[test]
    fn a_member_follows_an_advance_by_itself() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut server = LkhServer::new(3, 0);
        let iks: Vec<Key> = (0..9).map(|_| Key::generate(&mut rng)).collect();
        let joins: Vec<_> = (0..9u64)
            .map(|i| (MemberId(i), iks[i as usize].clone()))
            .collect();
        let bootstrap = server.apply_batch(&joins, &[], &mut rng).message;
        let mut m = GroupMember::new(MemberId(0), iks[0].clone());
        m.process(&bootstrap).unwrap();

        let msg = server.join(MemberId(50), Key::generate(&mut rng), &mut rng);
        let root = server.root_node();
        let advance = *msg.advances.iter().find(|a| a.node == root).unwrap();
        let mut tampered = msg.clone();
        tampered.advances.iter_mut().for_each(|a| a.check[0] ^= 1);
        let mut twin = m.clone();
        assert_eq!(
            twin.process(&tampered),
            Err(KeyTreeError::Crypto(rekey_crypto::CryptoError::BadTag))
        );
        assert_eq!(twin.version_for(root), Some(advance.version - 1));

        let (seen_before, _) = m.stats();
        m.process(&msg).unwrap();
        assert_eq!(m.key_for(root), Some(server.root_key()));
        assert_eq!(m.version_for(root), Some(advance.version));
        // Replayed, the advance names a version this member is past.
        assert_eq!(m.process_advances(&msg.advances), Ok(0));
        assert_eq!(m.stats().0, seen_before + msg.entries.len() as u64);
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
