//! Scheme-conformance harness: every group-key manager runs the same
//! deterministic seeded join/leave script and must uphold the same
//! contract —
//!
//! - **liveness / forward / backward secrecy**: present members always
//!   hold the current DEK, departed members never do, the DEK changes
//!   every interval;
//! - **member-count bookkeeping**: `member_count` / `contains` agree
//!   with the script's ground-truth membership after every interval;
//! - **wire contract**: every message decodes back to itself, the
//!   reported and computed sizes equal the encoded size, no wrapping
//!   key sees a nonce twice in the whole run, and the entry coder
//!   actually compresses (≤ 60 bytes per key where runs are long);
//! - **authenticated headers**: every interval, a clone of the whole
//!   member population is shown the message with one header field of
//!   one entry rewritten, and another clone the message with one byte
//!   of one advance record flipped on the wire, and a third with one
//!   byte of one derivation record flipped; no clone ever holds a
//!   `(node, version, key)` its original does not, a forged advance and
//!   a forged derivation are each answered with `BadTag` somewhere, and
//!   a rewritten DEK entry is
//!   rejected with `BadTag` — the DEK entries are sealed by
//!   `rekey-core`'s `DekCtx`, not by the key trees, so this is where
//!   they are covered;
//! - **golden digests**: the sha256 of all serialized rekey messages
//!   (versioned `codec::encode_message` envelope) is pinned per
//!   scheme, so any refactor that changes a single emitted byte fails
//!   loudly. The engine/policy split was landed against these digests;
//! - **state digests**: a second script's `save_state` bytes and DEK
//!   after every interval are pinned per scheme, apart from the wire,
//!   and so is every member's ring as `(node, version)` pairs and the
//!   server's trees without keys: the planner's key rules choose how a
//!   key changes (fresh, advanced by F or derived by G) and which
//!   entries carry it, never who holds which version; only placement
//!   moves that, as the join clustering did on purpose.
//!
//! The script is shared across schemes: identical member ids, join
//! hints, and leave picks every interval. Key material differs per
//! scheme because each manager draws differently from the shared RNG,
//! which the digests absorb (they are per-scheme constants).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::adaptive::AdaptiveManager;
use rekey_core::combined::CombinedManager;
use rekey_core::loss_forest::LossForestManager;
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::{PtManager, QtManager, TtManager};
use rekey_core::{DurationClass, GroupKeyManager, IntervalOutcome, Join};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::{CryptoError, Key};
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::{codec, RekeyMessage};
use rekey_keytree::{KeyTreeError, MemberId, NodeId};
use std::collections::{BTreeMap, HashSet};

const BOOTSTRAP: usize = 40;
const INTERVALS: usize = 12;
const JOINS_PER_INTERVAL: usize = 3;

/// Deterministic churn plan for one interval: how many members leave.
/// Interval 3, 7, 11 are pure-join (exercises the QT queue's cheap
/// join branch); the rest leave 1–3 members spread across the group
/// (old bootstrap members and young recent joiners alike, so
/// partitions, queues, and migrated members all see departures).
fn leaves_at(interval: usize) -> usize {
    if interval % 4 == 3 {
        0
    } else {
        1 + interval % 3
    }
}

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Ground truth the script maintains independently of the manager.
struct Script {
    /// Every member ever created, with its receiver state (departed
    /// members keep processing multicasts to prove forward secrecy).
    states: BTreeMap<MemberId, GroupMember>,
    present: Vec<MemberId>,
    departed: Vec<MemberId>,
    old_deks: Vec<Key>,
    next_id: u64,
    /// Whether a clone ever answered a rewritten DEK entry with
    /// `BadTag`.
    dek_forgery_rejected: bool,
    /// Whether a clone ever answered a flipped advance (`[0]`) or
    /// derivation (`[1]`) with `BadTag`.
    record_forgery_rejected: [bool; 2],
}

/// A member's whole ring, in node order.
fn ring(member: &GroupMember) -> Vec<(NodeId, u64, Key)> {
    let mut ring: Vec<_> = member
        .held_keys()
        .map(|(node, version)| (node, version, member.key_for(node).unwrap().clone()))
        .collect();
    ring.sort_by_key(|&(node, version, _)| (node, version));
    ring
}

/// `message` with one header field of one entry rewritten, and whether
/// that entry carries the DEK. Field and entry cycle with `step`; even
/// steps pick among the DEK entries.
fn relabelled(message: &RekeyMessage, step: usize, dek_node: NodeId) -> (RekeyMessage, bool) {
    let dek_entries: Vec<usize> = (0..message.entries.len())
        .filter(|&i| message.entries[i].target == dek_node)
        .collect();
    let index = if step.is_multiple_of(2) && !dek_entries.is_empty() {
        dek_entries[step / 2 % dek_entries.len()]
    } else {
        step * 7 % message.entries.len()
    };
    let mut forged = message.clone();
    let entry = &mut forged.entries[index];
    match step % 8 {
        0 => entry.target = NodeId(entry.target.0 ^ 1),
        1 => entry.target_version += 1,
        2 => entry.under = NodeId(entry.under.0 ^ 1),
        3 => entry.under_version += 1,
        4 => entry.under_is_leaf = !entry.under_is_leaf,
        5 => entry.recipient = entry.recipient.xor(Some(MemberId(0))),
        6 => entry.audience += 1,
        _ => entry.target_depth += 1,
    }
    (forged, message.entries[index].target == dek_node)
}

/// Where the records of the advance and the derivation section sit in
/// `codec::encode_message(message)`: each behind its count.
fn record_ranges(message: &RekeyMessage) -> [std::ops::Range<usize>; 2] {
    let count_len = |n: usize| {
        let mut buf = Vec::new();
        codec::put_varint(&mut buf, n as u64);
        buf.len()
    };
    let entries = RekeyMessage {
        entries: message.entries.clone(),
        ..RekeyMessage::new(message.epoch)
    };
    let advances = RekeyMessage {
        advances: message.advances.clone(),
        ..entries.clone()
    };
    // Each message ends in a one-byte zero count per empty section.
    let entries_end = codec::encode_message(&entries).len() - 2;
    let advances_end = codec::encode_message(&advances).len() - 1;
    [
        entries_end + count_len(message.advances.len())..advances_end,
        advances_end + count_len(message.derivations.len())..codec::encode_message(message).len(),
    ]
}

/// `message` with one byte of one record of `section` (0: advances,
/// 1: derivations) flipped on the wire, if the section has records and
/// the flipped bytes still decode. Record and byte cycle with `step`.
fn record_flipped(message: &RekeyMessage, section: usize, step: usize) -> Option<RekeyMessage> {
    let records = record_ranges(message)[section].clone();
    if records.is_empty() {
        return None;
    }
    let mut flipped = codec::encode_message(message);
    flipped[records.start + step * 13 % records.len()] ^= 1 << (step % 8);
    codec::decode_message(&flipped)
}

impl Script {
    fn new() -> Self {
        Script {
            states: BTreeMap::new(),
            present: Vec::new(),
            departed: Vec::new(),
            old_deks: Vec::new(),
            next_id: 0,
            dek_forgery_rejected: false,
            record_forgery_rejected: [false; 2],
        }
    }

    fn make_joins(&mut self, n: usize, rng: &mut StdRng) -> Vec<Join> {
        (0..n)
            .map(|i| {
                let id = MemberId(self.next_id);
                self.next_id += 1;
                let ik = Key::generate(rng);
                self.states.insert(id, GroupMember::new(id, ik.clone()));
                self.present.push(id);
                // Alternate hints so oracle placement and loss classes
                // are both exercised.
                let join = Join::new(id, ik);
                if i % 2 == 0 {
                    join.with_class(DurationClass::Short).with_loss_rate(0.2)
                } else {
                    join.with_class(DurationClass::Long).with_loss_rate(0.02)
                }
            })
            .collect()
    }

    /// Picks `n` leavers spread across the present set — index stride
    /// over the id-ordered membership, so departures hit old and young
    /// members alike. Pure function of the membership, no RNG.
    fn pick_leavers(&mut self, n: usize) -> Vec<MemberId> {
        self.present.sort_unstable();
        let stride = (self.present.len() / n.max(1)).max(1);
        let picked: Vec<MemberId> = (0..n)
            .map(|i| self.present[(1 + i * stride) % self.present.len()])
            .collect();
        self.present.retain(|m| !picked.contains(m));
        self.departed.extend(&picked);
        picked
    }

    /// Delivers `message` to everyone — after showing a clone of
    /// everyone its [`relabelled`] copy, from which no clone may come
    /// away with anything its original lacks.
    fn broadcast(&mut self, message: &RekeyMessage, step: usize, dek_node: NodeId, scheme: &str) {
        let bad_tag = Err(KeyTreeError::Crypto(CryptoError::BadTag));
        let (forged, forged_dek_entry) = relabelled(message, step, dek_node);
        let mut clones = self.states.clone();
        for clone in clones.values_mut() {
            if clone.process(&forged) == bad_tag {
                self.dek_forgery_rejected |= forged_dek_entry;
            }
        }
        // One record of each section flipped: a changed check is
        // noticed by whoever holds the key it is checked against; a
        // changed label names a key nobody holds (ignored) or fails the
        // check. Neither may install anything.
        let mut record_clones = Vec::new();
        for section in 0..2 {
            let mut clones = self.states.clone();
            let Some(flipped) = record_flipped(message, section, step) else {
                record_clones.push(clones);
                continue;
            };
            let mut rejected = false;
            for clone in clones.values_mut() {
                let outcome = clone.process(&flipped);
                assert!(
                    outcome.is_ok() || outcome == bad_tag,
                    "[{scheme}] {outcome:?}"
                );
                rejected |= outcome == bad_tag;
            }
            let same_labels = if section == 0 {
                flipped
                    .advances
                    .iter()
                    .zip(&message.advances)
                    .all(|(f, a)| (f.node, f.version) == (a.node, a.version))
            } else {
                flipped
                    .derivations
                    .iter()
                    .zip(&message.derivations)
                    .all(|(f, d)| {
                        (f.target, f.version, f.source) == (d.target, d.version, d.source)
                    })
            };
            assert!(rejected || !same_labels, "[{scheme}] step {step}");
            self.record_forgery_rejected[section] |= rejected;
            record_clones.push(clones);
        }
        for (id, state) in &mut self.states {
            let before = ring(state);
            let _ = state.process(message);
            let after = ring(state);
            for held in ring(&clones[id])
                .into_iter()
                .chain(record_clones.iter().flat_map(|clones| ring(&clones[id])))
            {
                assert!(
                    before.contains(&held) || after.contains(&held),
                    "[{scheme}] step {step}: a forged entry, advance or derivation \
                     made member {id} install {held:?}"
                );
            }
        }
    }

    fn check(&self, mgr: &dyn GroupKeyManager, scheme: &str) {
        assert_eq!(
            mgr.member_count(),
            self.present.len(),
            "[{scheme}] member_count disagrees with the script"
        );
        let node = mgr.dek_node();
        let dek = mgr.dek();
        for id in &self.present {
            assert!(mgr.contains(*id), "[{scheme}] lost member {id}");
            assert_eq!(
                self.states[id].key_for(node),
                Some(dek),
                "[{scheme}] member {id} cannot produce the DEK"
            );
        }
        for id in &self.departed {
            assert!(!mgr.contains(*id), "[{scheme}] kept departed {id}");
            assert_ne!(
                self.states[id].key_for(node),
                Some(dek),
                "[{scheme}] departed member {id} holds the current DEK"
            );
        }
    }
}

/// `(under, under_version, nonce)` of every entry a run has emitted: a
/// wrapping key must never see a nonce twice.
type SeenNonces = HashSet<(NodeId, u64, [u8; 12])>;

/// Serializes one interval's message and checks its wire contract.
fn wire_of(scheme: &str, out: &IntervalOutcome, seen: &mut SeenNonces) -> Vec<u8> {
    let wire = codec::encode_message(&out.message);
    assert_eq!(
        wire.len(),
        codec::MESSAGE_HEADER_LEN + out.message.byte_len(),
        "[{scheme}] the sizing pass disagrees with the encoder"
    );
    assert_eq!(
        out.stats.message_bytes,
        out.message.byte_len(),
        "[{scheme}] reported wire size disagrees with the message"
    );
    assert_eq!(
        codec::decode_message(&wire).as_ref(),
        Some(&out.message),
        "[{scheme}] decode does not invert encode"
    );
    for e in &out.message.entries {
        assert!(
            seen.insert((e.under, e.under_version, e.wrapped.nonce())),
            "[{scheme}] epoch {}: nonce reused under {} v{}",
            out.message.epoch,
            e.under,
            e.under_version
        );
    }
    wire
}

/// Runs the shared script against one manager and returns the
/// serialized rekey message of every interval (bootstrap included).
fn run_script(mut mgr: Box<dyn GroupKeyManager>) -> Vec<Vec<u8>> {
    let scheme = mgr.scheme_name();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut script = Script::new();
    let mut wires = Vec::with_capacity(1 + INTERVALS);
    let mut seen = SeenNonces::new();

    let joins = script.make_joins(BOOTSTRAP, &mut rng);
    let out = mgr
        .process_interval(&joins, &[], &mut rng)
        .expect("bootstrap");
    script.broadcast(&out.message, 0, mgr.dek_node(), scheme);
    script.check(mgr.as_ref(), scheme);
    script.old_deks.push(mgr.dek().clone());
    wires.push(wire_of(scheme, &out, &mut seen));

    for interval in 0..INTERVALS {
        let joins = script.make_joins(JOINS_PER_INTERVAL, &mut rng);
        let leavers = script.pick_leavers(leaves_at(interval));
        let out = mgr
            .process_interval(&joins, &leavers, &mut rng)
            .expect("scripted interval is consistent");
        assert_eq!(out.stats.joins, JOINS_PER_INTERVAL);
        assert_eq!(out.stats.leaves, leavers.len());
        script.broadcast(&out.message, 1 + interval, mgr.dek_node(), scheme);
        script.check(mgr.as_ref(), scheme);

        // The DEK rotates every interval, and no newcomer ever saw a
        // previous one (its state was created after those were
        // multicast).
        let dek = mgr.dek().clone();
        assert!(
            !script.old_deks.contains(&dek),
            "[{scheme}] DEK repeated at interval {interval}"
        );
        script.old_deks.push(dek);
        wires.push(wire_of(scheme, &out, &mut seen));
    }
    assert!(
        script.dek_forgery_rejected,
        "[{scheme}] no relabelled DEK entry was ever answered with BadTag"
    );
    assert_eq!(
        script.record_forgery_rejected, [true; 2],
        "[{scheme}] no flipped advance or derivation was ever answered with BadTag"
    );
    wires
}

/// Golden run digests: sha256 over the concatenated versioned
/// encodings of every interval's rekey message, per scheme. Re-pinned
/// once for the ChaCha20-Poly1305 key wrap: per scheme, the
/// encrypted-key count, the wire bytes and a digest over every entry's
/// metadata and nonce were checked equal before and after, so only the
/// 48 sealed bytes per key moved (CHANGES.md, PR 18, has the table).
///
/// Re-pinned once more when the batch planner became one rule per
/// dirty node (PR 24), which sends fewer entries for the same keys.
/// Encrypted keys and wire bytes of the whole run, parent → change,
/// and the sha256 prefix over `save_state ‖ DEK` after every epoch of
/// this script, equal on both sides:
///
/// | scheme                    | keys      | bytes           | state     |
/// |---------------------------|-----------|-----------------|-----------|
/// | one-keytree               | 384 → 286 | 20 854 → 15 610 | 776973ba… |
/// | tt-scheme                 | 600 → 443 | 33 145 → 24 765 | f1993740… |
/// | qt-scheme                 | 496 → 420 | 27 177 → 23 107 | f99dafe9… |
/// | pt-scheme                 | 371 → 319 | 21 041 → 18 194 | ff0c32ca… |
/// | loss-homogenized-forest   | 371 → 319 | 21 054 → 18 207 | 5c35b58a… |
/// | combined-partition-forest | 589 → 472 | 32 933 → 26 647 | fc04c76a… |
/// | adaptive                  | 384 → 296 | 21 348 → 16 636 | ca319b84… |
///
/// Re-pinned a third time when join-only keys began to advance by F
/// instead of being wrapped under their previous version. The tree
/// shape draws no randomness, so per interval the parent's keys equal
/// this planner's keys plus its advance records, plus one for every
/// tree that was empty when the batch began (its root's key was the
/// deterministic bootstrap key; the parent wrapped the new root under
/// it, this planner draws a fresh root and sends nothing for it).
/// Whole-run totals, parent → change, and [`RING_DIGESTS`] equal on
/// both sides:
///
/// | scheme                    | keys      | advances | empty roots | bytes           |
/// |---------------------------|-----------|----------|-------------|-----------------|
/// | one-keytree               | 286 → 251 | 34       | 1           | 15 610 → 14 145 |
/// | tt-scheme                 | 443 → 407 | 34       | 2           | 24 765 → 23 298 |
/// | qt-scheme                 | 420 → 389 | 30       | 1           | 23 107 → 21 848 |
/// | pt-scheme                 | 319 → 285 | 32       | 2           | 18 194 → 16 837 |
/// | loss-homogenized-forest   | 319 → 285 | 32       | 2           | 18 207 → 16 850 |
/// | combined-partition-forest | 472 → 438 | 31       | 3           | 26 647 → 25 287 |
/// | adaptive                  | 296 → 268 | 26       | 2           | 16 636 → 15 499 |
///
/// Re-pinned a fourth time when the key wrap took its Poly1305 key from
/// the second half of the block whose first half is the key stream,
/// instead of from block 0. Only tags moved: [`UNTAGGED_DIGESTS`],
/// the wire sizes, [`RING_DIGESTS`] and [`STATE_DIGESTS`] are the
/// parent's.
///
/// Re-pinned a fifth time, with [`UNTAGGED_DIGESTS`] and
/// [`STATE_DIGESTS`], when a compromised key with a compromised child
/// began to derive from that child's new key by G instead of being
/// wrapped under it. Per interval the parent's keys equal this
/// planner's keys plus its derivation records
/// ([`PARENT_KEYS_PER_INTERVAL`]); [`RING_DIGESTS`] and
/// [`SHAPE_DIGESTS`] are the parent's. Whole-run totals, parent →
/// change:
///
/// | scheme                    | keys      | derivations | bytes           |
/// |---------------------------|-----------|-------------|-----------------|
/// | one-keytree               | 251 → 221 | 30          | 14 145 → 12 928 |
/// | tt-scheme                 | 407 → 367 | 40          | 23 298 → 21 781 |
/// | qt-scheme                 | 389 → 369 | 20          | 21 848 → 21 083 |
/// | pt-scheme                 | 285 → 253 | 32          | 16 837 → 15 618 |
/// | loss-homogenized-forest   | 285 → 253 | 32          | 16 850 → 15 631 |
/// | combined-partition-forest | 438 → 399 | 39          | 25 287 → 23 833 |
/// | adaptive                  | 268 → 239 | 29          | 15 499 → 14 383 |
///
/// Re-pinned a sixth time, with [`UNTAGGED_DIGESTS`] and
/// [`PARENT_KEYS_PER_INTERVAL`], when a join-only batch into a live
/// tree began to cluster its joiners under the batch's own splits. This
/// moves placement, so it moves the scripts whose join-only intervals
/// (3, 7 and 11) split a leaf of a live tree, and no other:
/// one-keytree, TT and QT keep their digests. Whole-run totals, parent
/// → change, records being advances plus derivations:
///
/// | scheme                    | entries   | records | bytes           |
/// |---------------------------|-----------|---------|-----------------|
/// | pt-scheme                 | 253 → 245 | 64 → 58 | 15 618 → 15 122 |
/// | loss-homogenized-forest   | 253 → 245 | 64 → 58 | 15 631 → 15 135 |
/// | combined-partition-forest | 399 → 381 | 70 → 63 | 23 833 → 22 768 |
/// | adaptive                  | 239 → 236 | 55 → 52 | 14 383 → 14 188 |
const GOLDEN_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "50c31c763f197e0b4ea05646a22092fe1014d6309b4e6be2ff64c61ed12802a2",
    ),
    (
        "tt-scheme",
        "91c39c09300d0e8b20649015295254f85cbbee8c5fbbe6000e2c8e99cf38e430",
    ),
    (
        "qt-scheme",
        "b728b1aade7c6935b610d33f95f1bf8bb6336f7516bcef0a93f8bd88a800f8ac",
    ),
    (
        "pt-scheme",
        "0ca908ee3dcf05b99b6ee573e91527ece7b14805a3c95228dde0a802a0b8dbc5",
    ),
    (
        "loss-homogenized-forest",
        "fe6f2b621811fc46644e42aca383fc6ad1099fd52b5a94d8cb13218121944e86",
    ),
    (
        "combined-partition-forest",
        "baf9d129689c4c88cd960e25d2cb065301ad9348d07025f7d18faddb7431ff0b",
    ),
    (
        "adaptive",
        "f6bf79d84b3ecd57d2ca4affc7a7dbaa373b06101d6d17a0f1e7acb705275889",
    ),
];

/// sha256 over every entry's header (`RekeyEntry::binding`), nonce
/// and ciphertext — its sealed part without the tag — and every
/// advance and derivation record, per scheme over the same run as
/// [`GOLDEN_DIGESTS`]. A change that moves only tags leaves it put (the
/// one-block key wrap did); the chain derivation moved it, by the
/// relation [`GOLDEN_DIGESTS`] states.
const UNTAGGED_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "0c94b8dffc25de33cc6947b31b8e4a91b62bcfe6deaf64bef5233bfb03162403",
    ),
    (
        "tt-scheme",
        "43425244506fcc09cb5db3d4bcf8b78b61cefc8302bbb6fec8c62ca24d7ffa52",
    ),
    (
        "qt-scheme",
        "327eec5fffaa1cd977fafbfeffafe3b1463ea02b6e6d8c262cf8b1146d3cede4",
    ),
    (
        "pt-scheme",
        "4df85a9eb7087641c1c4636b7adc45f8b3ae1ecd4bedbba452a822f89976625d",
    ),
    (
        "loss-homogenized-forest",
        "058fd79493326b09c6d479ea137416141798ad3aac4d33ae984ad0b89245af3a",
    ),
    (
        "combined-partition-forest",
        "65fb75403fb1c3ba44985cbe736606e7358bc7468f4c4a16674e4c41b8e3b1b5",
    ),
    (
        "adaptive",
        "a8bdc9fbf70074f0f4e048445ab577ba6e646f7a2b63f78947b9a5f47fc90b35",
    ),
];

fn untagged_digest(wires: &[Vec<u8>]) -> String {
    let mut hasher = Sha256::new();
    for wire in wires {
        let message = codec::decode_message(wire).expect("checked");
        for entry in &message.entries {
            hasher.update(&entry.binding());
            hasher.update(&entry.wrapped.nonce());
            hasher.update(&entry.wrapped.sealed()[..32]);
        }
        for advance in &message.advances {
            hasher.update(&advance.node.0.to_be_bytes());
            hasher.update(&advance.version.to_be_bytes());
            hasher.update(&advance.check);
        }
        for derivation in &message.derivations {
            hasher.update(&derivation.binding());
            hasher.update(&derivation.check);
        }
    }
    hex(&hasher.finalize())
}

/// sha256 over every interval's entries plus derivation records (a
/// big-endian `u64`) of [`run_script`], schemes in [`managers`] order.
/// Recorded as the encrypted keys of the planner before the chain
/// derivation, each of which became an entry or a derivation record;
/// re-pinned with [`GOLDEN_DIGESTS`] when join-only batches began to
/// cluster, which moved the intervals its sixth table counts.
const PARENT_KEYS_PER_INTERVAL: &str =
    "203907ffad404295e0bf46b2b3f0b102218b8a049ed0434eac3590c084e29454";

fn managers() -> Vec<Box<dyn GroupKeyManager>> {
    vec![
        Box::new(OneTreeManager::new(4)),
        Box::new(TtManager::new(4, 3)),
        Box::new(QtManager::new(4, 3)),
        Box::new(PtManager::new(4)),
        Box::new(LossForestManager::two_trees(4)),
        Box::new(CombinedManager::two_loss_classes(4, 3)),
        Box::new(AdaptiveManager::paper_default(4)),
    ]
}

fn digest_of(wires: &[Vec<u8>]) -> String {
    let mut hasher = Sha256::new();
    for wire in wires {
        hasher.update(wire);
    }
    hex(&hasher.finalize())
}

#[test]
fn all_schemes_satisfy_the_conformance_contract() {
    for mgr in managers() {
        let scheme = mgr.scheme_name();
        // run_script asserts secrecy, bookkeeping and the wire contract
        // internally.
        let wires = run_script(mgr);

        // The compression fires, not only round-trips: the tree schemes
        // emit sibling runs with consecutive nonces, so a key costs its
        // 48 sealed bytes plus a few of header (110 in wire format 1).
        // Only the entry sections count: the advance and derivation
        // records beside them are not encrypted keys.
        if matches!(scheme, "one-keytree" | "tt-scheme") {
            let (mut bytes, mut keys) = (0, 0);
            for wire in &wires {
                let entries = codec::decode_message(wire).expect("checked").entries;
                let mut block = Vec::new();
                codec::encode_block(&entries, &mut block);
                bytes += block.len() - codec::BLOCK_HEADER_LEN;
                keys += entries.len();
            }
            assert!(
                bytes <= 60 * keys,
                "[{scheme}] {bytes} entry bytes for {keys} keys: {:.1} B/key",
                bytes as f64 / keys as f64
            );
        }
    }
}

#[test]
fn golden_digests_pin_every_scheme_byte_exactly() {
    let golden: BTreeMap<&str, &str> = GOLDEN_DIGESTS.into_iter().collect();
    let untagged: BTreeMap<&str, &str> = UNTAGGED_DIGESTS.into_iter().collect();
    let mut wrapped = Sha256::new();
    for mgr in managers() {
        let scheme = mgr.scheme_name();
        let wires = run_script(mgr);
        for wire in &wires {
            let message = codec::decode_message(wire).expect("checked");
            let changed = message.entries.len() + message.derivations.len();
            wrapped.update(&(changed as u64).to_be_bytes());
        }
        assert_eq!(
            untagged_digest(&wires),
            untagged[scheme],
            "[{scheme}] an entry header, nonce, ciphertext or advance moved"
        );
        let digest = digest_of(&wires);
        let expected = golden
            .get(scheme)
            .unwrap_or_else(|| panic!("no golden digest for scheme {scheme}"));
        assert_eq!(
            &digest.as_str(),
            expected,
            "[{scheme}] rekey output changed: the seeded run no longer emits \
             byte-identical messages. If the change is intentional and \
             behaviour-preserving arguments do not apply, re-pin the digest."
        );
    }
    assert_eq!(
        hex(&wrapped.finalize()),
        PARENT_KEYS_PER_INTERVAL,
        "some interval's entries plus derivations are not its parent's entries"
    );
}

/// A batch the engine rejects must leave no trace: no epoch consumed,
/// no policy bookkeeping touched (S-period ledgers, the QT queue), no
/// randomness drawn. Checked on every scheme against a twin that never
/// sees the bad batches.
#[test]
fn a_rejected_batch_leaves_no_trace_in_any_engine_scheme() {
    use rekey_keytree::KeyTreeError::{DuplicateMember, UnknownMember};

    fn state_of(mgr: &dyn GroupKeyManager) -> Vec<u8> {
        let mut buf = Vec::new();
        mgr.save_state(&mut buf).expect("engine schemes snapshot");
        buf
    }

    let mut checked = 0;
    for (mut mgr, mut twin) in managers().into_iter().zip(managers()) {
        let scheme = mgr.scheme_name();
        checked += 1;
        let mut rng = StdRng::seed_from_u64(0xBAD);
        let mut twin_rng = StdRng::seed_from_u64(0xBAD);
        let mut key_rng = StdRng::seed_from_u64(0xBAD + 1);
        let mut script = Script::new();

        // Two intervals, so S-period ledgers and the QT queue hold
        // members of different ages when the bad batches arrive.
        for n in [6, 2] {
            let joins = script.make_joins(n, &mut key_rng);
            let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
            let twin_out = twin.process_interval(&joins, &[], &mut twin_rng).unwrap();
            assert_eq!(out.message, twin_out.message, "[{scheme}] twins diverged");
        }

        let fresh = script.make_joins(2, &mut key_rng);
        let twice = [fresh[0].clone(), fresh[1].clone(), fresh[0].clone()];
        let present = Join::new(MemberId(1), Key::generate(&mut key_rng));
        let bad_batches: [(&[Join], &[MemberId], _); 4] = [
            (
                &[],
                &[MemberId(3), MemberId(404)],
                UnknownMember(MemberId(404)),
            ),
            (&twice, &[MemberId(7)], DuplicateMember(fresh[0].member)),
            (&[], &[MemberId(3), MemberId(3)], UnknownMember(MemberId(3))),
            (
                std::slice::from_ref(&present),
                &[],
                DuplicateMember(MemberId(1)),
            ),
        ];
        for (round, (joins, leaves, expected)) in bad_batches.into_iter().enumerate() {
            let before = state_of(mgr.as_ref());
            let err = mgr.process_interval(joins, leaves, &mut rng).unwrap_err();
            assert_eq!(err, expected, "[{scheme}] bad batch {round}");
            assert!(
                state_of(mgr.as_ref()) == before,
                "[{scheme}] rejected batch {round} changed the saved state"
            );

            // The next valid interval — a leave and rejoin of the same
            // member in one batch included, which stays accepted — is
            // the one the twin emits.
            let mut joins = script.make_joins(1, &mut key_rng);
            let leaver = MemberId(4 + round as u64);
            joins.push(Join::new(leaver, Key::generate(&mut key_rng)));
            let out = mgr.process_interval(&joins, &[leaver], &mut rng).unwrap();
            let twin_out = twin
                .process_interval(&joins, &[leaver], &mut twin_rng)
                .unwrap();
            assert!(
                codec::encode_message(&out.message) == codec::encode_message(&twin_out.message),
                "[{scheme}] interval after rejected batch {round} differs from the twin's"
            );
            assert_eq!(
                out.message.epoch,
                3 + round as u64,
                "[{scheme}] skipped an epoch"
            );
        }
        assert!(state_of(mgr.as_ref()) == state_of(twin.as_ref()));
    }
    assert_eq!(checked, 7);
}

/// `(joins, leaves)` of the state script's twelve intervals: a
/// bootstrap, pure-join, mixed and leave-only batches, spaced so that
/// the bootstrap members' and every later cohort's S → L migration
/// wave (K = 3) falls on each of the three batch shapes.
const STATE_SCRIPT: [(usize, usize); 12] = [
    (40, 0),
    (3, 2),
    (0, 3),
    (5, 0),
    (3, 1),
    (0, 2),
    (8, 0),
    (2, 4),
    (0, 1),
    (6, 0),
    (4, 3),
    (0, 5),
];

/// Per scheme, sha256 over every member's ring — member id, then its
/// `(node, version)` pairs ascending, no key bytes — after every
/// interval of [`STATE_SCRIPT`], recorded with the planner that wrapped
/// join-only keys under their previous version. A key that advances by
/// F reaches exactly the members that wrap reached, so these must not
/// move when only how a key is made changes. Re-pinned, with
/// [`SHAPE_DIGESTS`] and [`STATE_DIGESTS`], when join-only batches
/// into a live tree began to cluster their joiners: that moves who
/// holds which node, on purpose, in the schemes whose pure-join steps
/// after the bootstrap (3, 6 and 9) split a leaf of a live tree; TT and QT keep
/// all three. Whole-run totals of this script, parent → change, records
/// being advances plus derivations:
///
/// | scheme                    | entries   | records | bytes           |
/// |---------------------------|-----------|---------|-----------------|
/// | one-keytree               | 223 → 222 | 61 → 60 | 12 969 → 12 904 |
/// | pt-scheme                 | 259 → 233 | 54 → 47 | 15 637 → 14 167 |
/// | loss-homogenized-forest   | 259 → 233 | 54 → 47 | 15 659 → 14 189 |
/// | combined-partition-forest | 359 → 342 | 53 → 51 | 21 182 → 20 256 |
/// | adaptive                  | 235 → 233 | 54 → 52 | 14 051 → 13 921 |
const RING_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "faee4836bb4e0d81182540fdf0446f4aed99315f09f0fa4f4eb8a401eacb0c85",
    ),
    (
        "tt-scheme",
        "fb1d1ceb6d548c989e5bdc3f23cfe1f3b5ca482a876589fbd5f9a58d06f20c56",
    ),
    (
        "qt-scheme",
        "2de8c43bfa603dcb4c90d81b669477842773bbc41bc6ecf2fed780f67516c245",
    ),
    (
        "pt-scheme",
        "3462bcabf6965ebe48d26db14e92967ea3c7cc0b97776f3756466f943278d682",
    ),
    (
        "loss-homogenized-forest",
        "06f1adaeb34b9579c4ecf7f8831ac0c4155c62893f11a9b2fad3af24b965144a",
    ),
    (
        "combined-partition-forest",
        "cbac58b10710ac1e09fbe95ae440e4bd0c5ca363bf20712e28c235ac0440684a",
    ),
    (
        "adaptive",
        "8b17b51c7578a8eda6514a61bca6c2335691d09ac0ad9c05b552f4e687e3197e",
    ),
];

/// Per scheme, sha256 over the server's trees without their keys after
/// every interval of [`STATE_SCRIPT`]: every node a present member
/// holds, ascending, with its version and its audience
/// (`members_under`, ascending) — ids, versions, members, and the
/// parents the nested audiences fix. Recorded with the planner before
/// the chain derivation; how a key is made never moves it, where a
/// joiner goes does (re-pinned with [`RING_DIGESTS`]).
const SHAPE_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "070f1f0904c73bad112a73e565bb7989b8b1926945562c2eae9b29471227b4ab",
    ),
    (
        "tt-scheme",
        "a7d003f743d99db79c6b31d33bac23a2a92d831597b6508564f366289a8d96a0",
    ),
    (
        "qt-scheme",
        "0b4a4805d840fbaddb0bb38972796e1429a8e4ab36f6b892b9f0ed4f368af066",
    ),
    (
        "pt-scheme",
        "e837625b2f51fba9d7e109309785f8ebbe385d7834b4179b028fdddef2e98af2",
    ),
    (
        "loss-homogenized-forest",
        "0501ebc36c264cbf88d7b4498c302c0ef7f2c0619d92238d2519da0a1eef4586",
    ),
    (
        "combined-partition-forest",
        "e52dfde4386644676549c49694abe5e6faf74a5fe41b86726294e9e3b528131b",
    ),
    (
        "adaptive",
        "66c924ff4ccf18816b6fa248b8a0a220fb1bf90cd8327ffdf61849939681ced4",
    ),
];

/// Per scheme, sha256 over `save_state ‖ DEK` after every interval of
/// [`STATE_SCRIPT`]. Recorded before the batch planner became one rule
/// per dirty node and held through that change — which entries carry a
/// batch's keys is not state — then re-pinned once when join-only keys
/// began to advance
/// by F: the key bytes of those nodes are now F of the previous ones,
/// and the randomness they no longer draw shifts every later draw,
/// while [`RING_DIGESTS`] stayed put. Re-pinned again for the chain
/// derivation, for the same reasons, with [`RING_DIGESTS`] and
/// [`SHAPE_DIGESTS`] put; and with both for the join clustering
/// (relation at [`RING_DIGESTS`]).
const STATE_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "587cac2908584f2c287ee8da4afac7b9dae11b03d7ff0fa0500e12d7f2c04d49",
    ),
    (
        "tt-scheme",
        "a856b65d3557916baa6fa37a5230d0bda0ef176bdc07fa6f8871fa602c639dc3",
    ),
    (
        "qt-scheme",
        "b79f7c442441392c4348ce49625edc0216fc10b69eb12f2e45b418072da62805",
    ),
    (
        "pt-scheme",
        "d30c3fd043fa1bd07b7ccf9635c214ad2fba739bda544a971ae55e946e9c69ed",
    ),
    (
        "loss-homogenized-forest",
        "660e0b89aa587062777b67dd15cd9d8131698ba6f4fb7fc1c51e25496ac824c4",
    ),
    (
        "combined-partition-forest",
        "31cb6fca1e6fc621420fba104a9fc8caadec77cf6cb64ed7d50435894b8e473f",
    ),
    (
        "adaptive",
        "0fb410d070a03e0c6aaa480b54d388ebc02ab01e89ac9344f244de54843ea236",
    ),
];

/// The key rules (fresh, F, G) and the choice of entries leave every
/// ring and tree where it was: those digests move only with placement.
/// Clustering a join-only batch's joiners moved placement on purpose,
/// so it re-pinned them behind the relation at [`RING_DIGESTS`].
#[test]
fn the_planner_decides_keys_never_who_holds_them() {
    let golden: BTreeMap<&str, &str> = STATE_DIGESTS.into_iter().collect();
    let rings: BTreeMap<&str, &str> = RING_DIGESTS.into_iter().collect();
    let shapes: BTreeMap<&str, &str> = SHAPE_DIGESTS.into_iter().collect();
    for mut mgr in managers() {
        let scheme = mgr.scheme_name();
        let mut rng = StdRng::seed_from_u64(0x57A7E);
        let mut script = Script::new();
        let mut hasher = Sha256::new();
        let mut ring_hasher = Sha256::new();
        let mut shape_hasher = Sha256::new();
        let mut state = Vec::new();
        let mut migrations = 0;
        for (step, (joins, leaves)) in STATE_SCRIPT.into_iter().enumerate() {
            let joins = script.make_joins(joins, &mut rng);
            let leavers = script.pick_leavers(leaves);
            let out = mgr
                .process_interval(&joins, &leavers, &mut rng)
                .expect("scripted interval is consistent");
            migrations += out.stats.migrations;
            script.broadcast(&out.message, step, mgr.dek_node(), scheme);
            script.check(mgr.as_ref(), scheme);
            for (id, member) in &script.states {
                ring_hasher.update(&id.0.to_be_bytes());
                let mut ring: Vec<(NodeId, u64)> = member.held_keys().collect();
                ring.sort_unstable();
                for (node, version) in ring {
                    ring_hasher.update(&node.0.to_be_bytes());
                    ring_hasher.update(&version.to_be_bytes());
                }
            }

            let mut nodes: BTreeMap<NodeId, u64> = BTreeMap::new();
            for id in &script.present {
                nodes.extend(script.states[id].held_keys());
            }
            for (node, version) in nodes {
                shape_hasher.update(&node.0.to_be_bytes());
                shape_hasher.update(&version.to_be_bytes());
                let mut audience = mgr.members_under(node);
                audience.sort_unstable();
                for member in audience {
                    shape_hasher.update(&member.0.to_be_bytes());
                }
            }

            state.clear();
            mgr.save_state(&mut state).expect("engine schemes snapshot");
            hasher.update(&state);
            hasher.update(mgr.dek().as_bytes());
        }
        if scheme == "tt-scheme" {
            assert!(migrations >= 40, "[{scheme}] no migration wave ran");
        }
        assert_eq!(
            hex(&ring_hasher.finalize()),
            rings[scheme],
            "[{scheme}] some member holds other versions than it did"
        );
        assert_eq!(
            hex(&shape_hasher.finalize()),
            shapes[scheme],
            "[{scheme}] the trees are not the recorded ones"
        );
        assert_eq!(
            hex(&hasher.finalize()),
            golden[scheme],
            "[{scheme}] the state after some interval is not the recorded one"
        );
    }
}

/// The entry coder's bandwidth, apart from the advance and derivation
/// records that ride beside the entries: the entry section of a TT
/// interval in the paper's steady state (Table 1 churn, d = 4, K = 10,
/// measured after the first migration wave) costs at most 60 bytes per
/// entry, at N = 256 and at N = 16 384. Exact per seed.
#[test]
fn a_tt_interval_spends_at_most_60_entry_bytes_per_entry() {
    use rekey_core::membership::{MembershipGenerator, MembershipParams};
    for n in [256, 16_384] {
        let mut rng = StdRng::seed_from_u64(1);
        let params = MembershipParams {
            target_size: n,
            ..MembershipParams::paper_default()
        };
        let mut generator = MembershipGenerator::new(params, &mut rng);
        let mut manager = TtManager::new(4, 10);
        let join = |id: MemberId, rng: &mut StdRng| Join::new(id, Key::generate(rng));
        let bootstrap: Vec<Join> = (0..n as u64)
            .map(|id| join(MemberId(id), &mut rng))
            .collect();
        let mut out = manager.process_interval(&bootstrap, &[], &mut rng).unwrap();
        for _ in 0..13 {
            let events = generator.next_interval(&mut rng);
            let joins: Vec<Join> = events
                .joins
                .iter()
                .map(|&(id, _)| join(id, &mut rng))
                .collect();
            out = manager
                .process_interval(&joins, &events.leaves, &mut rng)
                .unwrap();
        }
        let entries = &out.message.entries;
        let mut block = Vec::new();
        codec::encode_block(entries, &mut block);
        let per_entry = (block.len() - codec::BLOCK_HEADER_LEN) as f64 / entries.len() as f64;
        assert!(
            per_entry <= 60.0,
            "N = {n}: {per_entry:.2} entry bytes per entry over {} entries",
            entries.len()
        );
    }
}
