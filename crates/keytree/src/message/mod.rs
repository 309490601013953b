//! Group-oriented rekey messages (\[WGL98\]).
//!
//! A [`RekeyMessage`] is the unit a key server multicasts after a
//! (batched) membership change: a sequence of [`RekeyEntry`] items,
//! each carrying one updated key encrypted under one key its intended
//! audience already holds. Entries are ordered deepest-target-first so
//! that a member can process a message in a single pass (a parent's
//! new key is wrapped under a child's *new* key, whose entry appears
//! earlier).
//!
//! A tree key that only joins changed is not wrapped at all: it
//! advances by the one-way step F
//! ([`rekey_crypto::keywrap::advance`]), and the message carries a
//! [`KeyAdvance`] — node, new version, check — from which every holder
//! of the previous version computes the new one. Receivers apply a
//! message's advances before its entries, since an entry may be
//! wrapped under an advanced key.
//!
//! A refreshed key one of whose children was refreshed in the same
//! batch is not wrapped under that child either: it is the chain
//! derivation G of the child's new key
//! ([`rekey_crypto::keywrap::derive`]), and the message carries a
//! [`KeyDerivation`] — target, new version, source child, check — in
//! place of the wrap. A receiver that installs the source's new key
//! from the message derives the target's at once, so the chain climbs
//! as far as the member's path runs through the batch's fresh keys.
//!
//! Each entry also carries metadata the reliable-transport layer needs
//! (\[SZJ02\]'s weighted key assignment): the number of members
//! interested in the entry (`audience`) and the depth of the target
//! key, which together determine how valuable the entry is.

use crate::{MemberId, NodeId};
use rekey_crypto::keywrap::{
    self, open_derive, WrapKek, WrappedKey, ADVANCE_CHECK_LEN, DERIVE_CHECK_LEN, LANES, NONCE_LEN,
};
use rekey_crypto::{CryptoError, Key};

pub mod codec;

/// Length of an entry's [`binding`](RekeyEntry::binding) in bytes.
pub const BINDING_LEN: usize = 49;

/// Everything a [`RekeyEntry`] carries except the wrapped key — what a
/// key server decides about an entry before it seals it. Field for
/// field the entry's header; see [`RekeyEntry`] for their meaning.
#[derive(Debug, Clone, Copy)]
pub struct EntryMeta {
    /// [`RekeyEntry::target`].
    pub target: NodeId,
    /// [`RekeyEntry::target_version`].
    pub target_version: u64,
    /// [`RekeyEntry::under`].
    pub under: NodeId,
    /// [`RekeyEntry::under_version`].
    pub under_version: u64,
    /// [`RekeyEntry::under_is_leaf`].
    pub under_is_leaf: bool,
    /// [`RekeyEntry::recipient`].
    pub recipient: Option<MemberId>,
    /// [`RekeyEntry::audience`].
    pub audience: u32,
    /// [`RekeyEntry::target_depth`].
    pub target_depth: u32,
}

impl EntryMeta {
    /// Lays out [`RekeyEntry::binding`].
    fn binding(&self) -> [u8; BINDING_LEN] {
        let flags = u8::from(self.under_is_leaf) | u8::from(self.recipient.is_some()) << 1;
        let mut out = [0u8; BINDING_LEN];
        out[0..8].copy_from_slice(&self.target.0.to_be_bytes());
        out[8..16].copy_from_slice(&self.target_version.to_be_bytes());
        out[16..24].copy_from_slice(&self.under.0.to_be_bytes());
        out[24..32].copy_from_slice(&self.under_version.to_be_bytes());
        out[32] = flags;
        out[33..41].copy_from_slice(&self.recipient.map_or(0, |m| m.0).to_be_bytes());
        out[41..45].copy_from_slice(&self.audience.to_be_bytes());
        out[45..49].copy_from_slice(&self.target_depth.to_be_bytes());
        out
    }

    /// The entry these fields describe: `payload` sealed under `kek`
    /// with this header as associated data, so a receiver that is shown
    /// any other header cannot open it.
    ///
    /// Deterministic; callers must never reuse a nonce with the same
    /// `kek`.
    pub fn seal(self, kek: &Key, payload: &Key, nonce: [u8; NONCE_LEN]) -> RekeyEntry {
        self.entry(WrapKek::new(kek).seal(payload, nonce, &self.binding()))
    }

    /// The entry with this header and `wrapped`, sealed over
    /// [`binding`](Self::binding).
    fn entry(self, wrapped: WrappedKey) -> RekeyEntry {
        RekeyEntry {
            target: self.target,
            target_version: self.target_version,
            under: self.under,
            under_version: self.under_version,
            under_is_leaf: self.under_is_leaf,
            recipient: self.recipient,
            audience: self.audience,
            target_depth: self.target_depth,
            wrapped,
        }
    }
}

/// One wrap waiting in a [`LaneSealer`]: its header, KEK, payload and
/// nonce.
type Pending<'k> = (EntryMeta, &'k Key, &'k Key, [u8; NONCE_LEN]);

/// Entries sealed eight at a time ([`keywrap::seal_lanes`]).
///
/// [`push`](Self::push) takes an entry with its nonce already drawn and
/// holds it; the eighth push seals all eight in one lane group and
/// appends them to `out` in push order. [`finish`](Self::finish) seals
/// the fewer than eight left one by one ([`EntryMeta::seal`]). So the
/// entries and their bytes are exactly those of sealing each one as it
/// is pushed: only the kernel differs.
#[derive(Debug, Default)]
pub struct LaneSealer<'k> {
    pending: [Option<Pending<'k>>; LANES],
    filled: usize,
}

impl<'k> LaneSealer<'k> {
    /// An empty group.
    pub fn new() -> Self {
        LaneSealer::default()
    }

    /// Adds the entry `meta` with `payload` sealed under `kek` and
    /// `nonce`, sealing the group onto `out` once it is full.
    pub fn push(
        &mut self,
        meta: EntryMeta,
        kek: &'k Key,
        payload: &'k Key,
        nonce: [u8; NONCE_LEN],
        out: &mut Vec<RekeyEntry>,
    ) {
        self.pending[self.filled] = Some((meta, kek, payload, nonce));
        self.filled += 1;
        if self.filled < LANES {
            return;
        }
        self.filled = 0;
        let group = self.pending.map(|pending| pending.expect("a full group"));
        let bindings = group.map(|(meta, ..)| meta.binding());
        let wrapped = keywrap::seal_lanes(
            group.map(|(_, kek, ..)| kek),
            group.map(|(_, _, payload, _)| payload),
            group.map(|(.., nonce)| nonce),
            std::array::from_fn(|i| bindings[i].as_slice()),
        );
        out.extend(
            group
                .into_iter()
                .zip(wrapped)
                .map(|((meta, ..), wrapped)| meta.entry(wrapped)),
        );
    }

    /// Seals what is left, fewer than eight entries, one by one onto
    /// `out`.
    pub fn finish(self, out: &mut Vec<RekeyEntry>) {
        for &(meta, kek, payload, nonce) in self.pending[..self.filled].iter().flatten() {
            out.push(meta.seal(kek, payload, nonce));
        }
    }
}

/// One encrypted key in a rekey message: `{target}` encrypted under
/// the current key of `under`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RekeyEntry {
    /// The node whose new key this entry transports.
    pub target: NodeId,
    /// Version of the new key.
    pub target_version: u64,
    /// The node whose key encrypts this entry.
    pub under: NodeId,
    /// Version of the encrypting key the recipient must hold.
    pub under_version: u64,
    /// Whether `under` is a leaf (individual member key); members use
    /// this to recognise entries addressed directly to them.
    pub under_is_leaf: bool,
    /// For leaf-addressed entries, the member the entry is meant for —
    /// lets receivers skip decryption attempts on entries addressed to
    /// other members' individual keys.
    pub recipient: Option<MemberId>,
    /// Number of members that need this entry (the leaves under
    /// `under` at the time the message was built).
    pub audience: u32,
    /// Depth of `target` in its tree (root = 0). Deeper entries are
    /// needed by fewer members.
    pub target_depth: u32,
    /// The wrapped key material.
    pub wrapped: WrappedKey,
}

impl RekeyEntry {
    /// The header fields: everything but [`wrapped`](Self::wrapped).
    fn meta(&self) -> EntryMeta {
        EntryMeta {
            target: self.target,
            target_version: self.target_version,
            under: self.under,
            under_version: self.under_version,
            under_is_leaf: self.under_is_leaf,
            recipient: self.recipient,
            audience: self.audience,
            target_depth: self.target_depth,
        }
    }

    /// The associated data an entry is sealed and opened with: every
    /// header field at a fixed width, big-endian, independent of how
    /// the wire codec happens to compress them —
    /// `target:u64 ‖ target_version:u64 ‖ under:u64 ‖ under_version:u64
    /// ‖ flags:u8 ‖ recipient:u64 ‖ audience:u32 ‖ target_depth:u32`,
    /// `flags` bit 0 = `under_is_leaf`, bit 1 = a recipient is present
    /// (`recipient` is 0 when none is).
    pub fn binding(&self) -> [u8; BINDING_LEN] {
        self.meta().binding()
    }

    /// Opens the entry under `kek`, authenticating the header fields
    /// along with the wrapped key.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadTag`] if the entry was not sealed under `kek`
    /// with exactly this header (forged, corrupted or relabelled).
    pub fn open(&self, kek: &Key) -> Result<Key, CryptoError> {
        WrapKek::new(kek).open(&self.wrapped, &self.binding())
    }
}

/// One key that advanced by F: `node`'s key at `version` is F of its
/// key at `version − 1`, and `check` is what F gave beside it. Whoever
/// holds the previous version computes the new one and compares the
/// check ([`rekey_crypto::keywrap::open_advance`]); nobody else learns
/// anything from the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyAdvance {
    /// The node whose key advanced.
    pub node: NodeId,
    /// The version it advanced to (≥ 1).
    pub version: u64,
    /// Bytes 32..40 of F's block.
    pub check: [u8; ADVANCE_CHECK_LEN],
}

/// One key derived by G from a child's new key: `target`'s key at
/// `version` is G of `source`'s key as this same message installs it,
/// and `check` is what G gave beside it over the record's
/// [`binding`](Self::binding). Whoever installs `source`'s new key from
/// the message computes the target's and compares the check
/// ([`KeyDerivation::open`]); nobody else learns anything from the
/// record. The source's version is left out: a
/// record fires only for a source installed from its own message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDerivation {
    /// The node whose new key was derived.
    pub target: NodeId,
    /// The version it was derived at (≥ 1).
    pub version: u64,
    /// The child of `target` whose new key it was derived from.
    pub source: NodeId,
    /// G's check over the record's binding.
    pub check: [u8; DERIVE_CHECK_LEN],
}

/// Length of a derivation's [`binding`](KeyDerivation::binding).
pub const DERIVATION_BINDING_LEN: usize = 24;

impl KeyDerivation {
    /// The labels G's check covers: `target:u64 ‖ version:u64 ‖
    /// source:u64`, big-endian, independent of the wire codec.
    pub fn binding(&self) -> [u8; DERIVATION_BINDING_LEN] {
        let mut out = [0u8; DERIVATION_BINDING_LEN];
        out[0..8].copy_from_slice(&self.target.0.to_be_bytes());
        out[8..16].copy_from_slice(&self.version.to_be_bytes());
        out[16..24].copy_from_slice(&self.source.0.to_be_bytes());
        out
    }

    /// The target's key, derived from `source_key` — the source's new
    /// key — and checked against the record's labels.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadTag`] if the record was not made from
    /// `source_key` with exactly these labels.
    pub fn open(&self, source_key: &Key) -> Result<Key, CryptoError> {
        open_derive(source_key, &self.binding(), &self.check)
    }
}

/// A multicast rekey message for one rekey event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RekeyMessage {
    /// Monotone rekey epoch (one per batch interval).
    pub epoch: u64,
    /// Encrypted keys, ordered deepest-target-first.
    pub entries: Vec<RekeyEntry>,
    /// Keys that advanced by F, ascending by node within each tree.
    pub advances: Vec<KeyAdvance>,
    /// Keys derived by G from a child's new key, ascending by target
    /// within each tree.
    pub derivations: Vec<KeyDerivation>,
}

impl RekeyMessage {
    /// Creates an empty message for `epoch`.
    pub fn new(epoch: u64) -> Self {
        RekeyMessage {
            epoch,
            entries: Vec::new(),
            advances: Vec::new(),
            derivations: Vec::new(),
        }
    }

    /// Number of encrypted keys — the paper's key-server cost metric.
    /// An advance or a derivation encrypts nothing and is not counted.
    pub fn encrypted_key_count(&self) -> usize {
        self.entries.len()
    }

    /// Encoded size of the entries, advances and derivations in bytes:
    /// what
    /// [`codec::encode_message`] writes behind its
    /// [`codec::MESSAGE_HEADER_LEN`]-byte head. An entry's size depends
    /// on its predecessor, so this is a sizing pass of the coder over
    /// the whole message (no allocation), not a per-entry constant.
    pub fn byte_len(&self) -> usize {
        codec::body_len(self)
    }

    /// Whether the message changes no key: no entries, no advances, no
    /// derivations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.advances.is_empty() && self.derivations.is_empty()
    }

    /// Iterates over entries together with their index (used by
    /// transport packetization).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &RekeyEntry)> {
        self.entries.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_crypto::{keywrap, Key};

    fn entry(depth: u32) -> RekeyEntry {
        let kek = Key::from_bytes([1; 32]);
        let payload = Key::from_bytes([2; 32]);
        RekeyEntry {
            target: NodeId::from_parts(0, 1),
            target_version: 1,
            under: NodeId::from_parts(0, 2),
            under_version: 0,
            under_is_leaf: false,
            recipient: None,
            audience: 5,
            target_depth: depth,
            wrapped: keywrap::wrap_with_nonce(&kek, &payload, [0; 12]),
        }
    }

    #[test]
    fn counts_and_sizes() {
        let mut msg = RekeyMessage::new(3);
        assert!(msg.is_empty());
        msg.entries.push(entry(0));
        msg.entries.push(entry(1));
        assert_eq!(msg.encrypted_key_count(), 2);
        assert_eq!(
            msg.byte_len(),
            codec::encode_message(&msg).len() - codec::MESSAGE_HEADER_LEN
        );
        assert!(msg.byte_len() >= 2 * codec::MIN_ENTRY_LEN);
    }

    /// A run of 0–17 entries through [`LaneSealer`] — no group, one or
    /// two full groups, and every tail length — is byte for byte the
    /// run sealed one entry at a time, in order.
    #[test]
    fn lane_sealer_seals_every_run_like_the_per_entry_seal() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for n in 0..=17 {
            let keks: Vec<Key> = (0..n).map(|_| Key::generate(&mut rng)).collect();
            let payload = Key::generate(&mut rng);
            let metas: Vec<(EntryMeta, [u8; NONCE_LEN])> = (0..n)
                .map(|i| {
                    let meta = EntryMeta {
                        target: NodeId::from_parts(1, rng.gen_range(0..1 << 32)),
                        target_version: rng.gen(),
                        under: NodeId::from_parts(1, rng.gen_range(0..1 << 32)),
                        under_version: rng.gen(),
                        under_is_leaf: i % 2 == 0,
                        recipient: (i % 3 == 0).then(|| MemberId(rng.gen())),
                        audience: rng.gen(),
                        target_depth: rng.gen(),
                    };
                    (meta, rng.gen())
                })
                .collect();
            let mut lanes = LaneSealer::new();
            let mut sealed = Vec::new();
            for ((meta, nonce), kek) in metas.iter().zip(&keks) {
                lanes.push(*meta, kek, &payload, *nonce, &mut sealed);
            }
            assert_eq!(sealed.len(), n / 8 * 8, "a group is sealed when full");
            lanes.finish(&mut sealed);
            let one_by_one: Vec<RekeyEntry> = metas
                .iter()
                .zip(&keks)
                .map(|((meta, nonce), kek)| meta.seal(kek, &payload, *nonce))
                .collect();
            assert_eq!(sealed, one_by_one, "{n} entries");
        }
    }
}
