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
//!   of one advance record flipped on the wire; no clone ever holds a
//!   `(node, version, key)` its original does not, a forged advance is
//!   answered with `BadTag` somewhere, and a rewritten DEK entry is
//!   rejected with `BadTag` — the DEK entries are sealed by
//!   `rekey-core`'s `DekCtx`, not by the key trees, so this is where
//!   they are covered;
//! - **golden digests**: the sha256 of all serialized rekey messages
//!   (versioned `codec::encode_message` envelope) is pinned per
//!   scheme, so any refactor that changes a single emitted byte fails
//!   loudly. The engine/policy split was landed against these digests;
//! - **state digests**: a second script's `save_state` bytes and DEK
//!   after every interval are pinned per scheme, apart from the wire,
//!   and so is every member's ring as `(node, version)` pairs: the
//!   planner chooses how a key changes (fresh, or advanced by F) and
//!   which entries carry it, never who holds which version.
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
    /// Whether a clone ever answered a flipped advance with `BadTag`.
    advance_forgery_rejected: bool,
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

/// `message` with one byte of one advance record flipped on the wire,
/// if it has advances and the flipped bytes still decode. Record and
/// byte cycle with `step`.
fn advance_flipped(message: &RekeyMessage, step: usize) -> Option<RekeyMessage> {
    if message.advances.is_empty() {
        return None;
    }
    let wire = codec::encode_message(message);
    let section = RekeyMessage {
        advances: message.advances.clone(),
        ..RekeyMessage::new(message.epoch)
    };
    let section_len = codec::encode_message(&section).len() - codec::MESSAGE_HEADER_LEN;
    let records = section_len - 1 - usize::from(message.advances.len() >= 0x80);
    let mut flipped = wire.clone();
    let at = wire.len() - records + step * 13 % records;
    flipped[at] ^= 1 << (step % 8);
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
            advance_forgery_rejected: false,
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
        let flipped = advance_flipped(message, step);
        let mut advance_clones = self.states.clone();
        let mut advance_rejected = false;
        for clone in advance_clones.values_mut() {
            if let Some(flipped) = &flipped {
                let outcome = clone.process(flipped);
                assert!(
                    outcome.is_ok() || outcome == bad_tag,
                    "[{scheme}] {outcome:?}"
                );
                advance_rejected |= outcome == bad_tag;
            }
        }
        if let Some(flipped) = &flipped {
            // A changed check is noticed by every holder of the
            // previous key; a changed node or version may name a key
            // nobody holds, and is ignored.
            let same_labels = flipped
                .advances
                .iter()
                .zip(&message.advances)
                .all(|(f, a)| (f.node, f.version) == (a.node, a.version));
            assert!(advance_rejected || !same_labels, "[{scheme}] step {step}");
            self.advance_forgery_rejected |= advance_rejected;
        }
        for (id, state) in &mut self.states {
            let before = ring(state);
            let _ = state.process(message);
            let after = ring(state);
            for held in ring(&clones[id])
                .into_iter()
                .chain(ring(&advance_clones[id]))
            {
                assert!(
                    before.contains(&held) || after.contains(&held),
                    "[{scheme}] step {step}: a forged entry or advance made member \
                     {id} install {held:?}"
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
    assert!(
        script.advance_forgery_rejected,
        "[{scheme}] no flipped advance was ever answered with BadTag"
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
const GOLDEN_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "269c6545936f91700458adc5722b9b7739ed47d196439af177cb0f763b2bde1a",
    ),
    (
        "tt-scheme",
        "a4a07a5effcd4d8a60a952545c0d7962f38ed0f88dc45e2c7098654676e9a4d1",
    ),
    (
        "qt-scheme",
        "80e3c37681dfc78020955ecc709225adb76df7f48bf8a6f1325f97b5efe8fd87",
    ),
    (
        "pt-scheme",
        "41ed268ae17a9a7247348f6e5ba13b8ac43ae7d45df19c0e1f2f1e014ff7af62",
    ),
    (
        "loss-homogenized-forest",
        "41d1958359f2e278f21412a5ecc8e3aee55c9b798962210e07a359a9ad89a3f7",
    ),
    (
        "combined-partition-forest",
        "5b61bea309660e6c5f3fda48f5330fe77b6740ae579acb1f3d5353f0d18368fa",
    ),
    (
        "adaptive",
        "9891b2d7480a6b421a30bd8d3fbcfa57e6d304fa964b2218c869338224fd28e8",
    ),
];

/// sha256 over every entry's header (`RekeyEntry::binding`), nonce
/// and ciphertext — its sealed part without the tag — and every
/// advance record, per scheme over the same run as [`GOLDEN_DIGESTS`].
/// Recorded at the commit before the one-block key wrap and equal
/// after it: that change moved tags and nothing else, and
/// [`GOLDEN_DIGESTS`] were re-pinned behind this pin.
const UNTAGGED_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "9456654bd90ac60b67ef09a31f4f13e569a7d87f03ad0fa9c5ff26c24603ce95",
    ),
    (
        "tt-scheme",
        "7e9c486ce67f6d73acee06a1aa9ea2f28e81622468c4c64037446503af32203b",
    ),
    (
        "qt-scheme",
        "8fac5a9c91e9125c4ea6fa006e81190ee86ccc4f78133461b21ac9fa1671a651",
    ),
    (
        "pt-scheme",
        "167401df22c5bbc832598bb600c6a94183942820cf34ac4d0830eebf06b94b66",
    ),
    (
        "loss-homogenized-forest",
        "5140a86072c22d7d42391d8d20efc48a391f78eef6bd24677d0597b0dc6a603c",
    ),
    (
        "combined-partition-forest",
        "691bb30d03137abe486559af81aad5640a1c463c784acafb0258f6b7c08af90d",
    ),
    (
        "adaptive",
        "d0cf053962e8981fcf138474c7837f69dcf58ac14c50f58a44c85611b50e3a72",
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
    }
    hex(&hasher.finalize())
}

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
        if matches!(scheme, "one-keytree" | "tt-scheme") {
            let bytes: usize = wires.iter().map(Vec::len).sum();
            let keys: usize = wires
                .iter()
                .map(|wire| codec::decode_message(wire).expect("checked").entries.len())
                .sum();
            assert!(
                bytes <= 60 * keys,
                "[{scheme}] {bytes} bytes for {keys} keys: {:.1} B/key",
                bytes as f64 / keys as f64
            );
        }
    }
}

#[test]
fn golden_digests_pin_every_scheme_byte_exactly() {
    let golden: BTreeMap<&str, &str> = GOLDEN_DIGESTS.into_iter().collect();
    let untagged: BTreeMap<&str, &str> = UNTAGGED_DIGESTS.into_iter().collect();
    for mgr in managers() {
        let scheme = mgr.scheme_name();
        let wires = run_script(mgr);
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
/// move when only the planner changes.
const RING_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "1cadcf2a6a0c92fc5582d4f65bcb844e726d458ce81ac8d36d0ed84242fa41f0",
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
        "9d519e72cec11a01f31abbd42a64ceb26d3f062f97e0b58358645badd1d231a8",
    ),
    (
        "loss-homogenized-forest",
        "5be22366421f84d67198de2bc8f6ba96331afbb2e23f4e9848a92d97151a05b1",
    ),
    (
        "combined-partition-forest",
        "5937c9ec34dbe6c3f89a20c4df28f85673c2bf9338402fad98abd624eeb6a982",
    ),
    (
        "adaptive",
        "d1e453156eafda1e14dc3013a70d7f57480e3d5a73c8bcae0d70040aa7db1a40",
    ),
];

/// Per scheme, sha256 over `save_state ‖ DEK` after every interval of
/// [`STATE_SCRIPT`]. Recorded before the batch planner became one rule
/// per dirty node and held through that change — which entries carry a
/// batch's keys is not state — then re-pinned once when join-only keys
/// began to advance
/// by F: the key bytes of those nodes are now F of the previous ones,
/// and the randomness they no longer draw shifts every later draw,
/// while [`RING_DIGESTS`] stayed put.
const STATE_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "ef9ec2bfb5487a50e7d1e78f0066183a700f2bd590c4ac5b778d52ed08242d50",
    ),
    (
        "tt-scheme",
        "8a83714c662691932534c9f9bcef32e84c05817a60bb7f256491a9268550b301",
    ),
    (
        "qt-scheme",
        "8e4ad3127f5ae22195159fbd6943b9ddb3b3b91f7d8f77e0256082a7af5896e5",
    ),
    (
        "pt-scheme",
        "e6ea8ba3624a39c9890389b2f499e51d0c3336fe2e8eb167c5878e0a3b958098",
    ),
    (
        "loss-homogenized-forest",
        "5eac53f6a2a946a00d327bc9024a2476cf8f94c509e0a591e79913ad31b6c73a",
    ),
    (
        "combined-partition-forest",
        "0670be0013cbd9c97e89370421cc12355b10444ea228e2f618e537869f32dba1",
    ),
    (
        "adaptive",
        "c39948645b625c3f9f049a46addfaabca49e5a82c6097567102454f238db87f2",
    ),
];

#[test]
fn the_planner_decides_keys_never_who_holds_them() {
    let golden: BTreeMap<&str, &str> = STATE_DIGESTS.into_iter().collect();
    let rings: BTreeMap<&str, &str> = RING_DIGESTS.into_iter().collect();
    for mut mgr in managers() {
        let scheme = mgr.scheme_name();
        let mut rng = StdRng::seed_from_u64(0x57A7E);
        let mut script = Script::new();
        let mut hasher = Sha256::new();
        let mut ring_hasher = Sha256::new();
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
            hex(&hasher.finalize()),
            golden[scheme],
            "[{scheme}] the state after some interval is not the recorded one"
        );
    }
}
