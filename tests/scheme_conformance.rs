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
//!   key sees a nonce twice in the whole run, and the v2 entry coder
//!   actually compresses (≤ 60 bytes per key where runs are long);
//! - **golden digests**: the sha256 of all serialized rekey messages
//!   (versioned `codec::encode_message` envelope) is pinned per
//!   scheme, so any refactor that changes a single emitted byte fails
//!   loudly. The engine/policy split was landed against these digests.
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
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::codec;
use rekey_keytree::{MemberId, NodeId};
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
}

impl Script {
    fn new() -> Self {
        Script {
            states: BTreeMap::new(),
            present: Vec::new(),
            departed: Vec::new(),
            old_deks: Vec::new(),
            next_id: 0,
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

    fn broadcast(&mut self, message: &rekey_keytree::message::RekeyMessage) {
        for s in self.states.values_mut() {
            let _ = s.process(message);
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
    script.broadcast(&out.message);
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
        script.broadcast(&out.message);
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
    wires
}

/// Golden run digests: sha256 over the concatenated versioned
/// encodings of every interval's rekey message, per scheme. Re-pinned
/// once for wire format 2 (new encoding, one nonce start per batch
/// instead of one draw per entry): per scheme, the encrypted-key count
/// and a digest over every entry's metadata were checked equal before
/// and after, so only key material and encoding moved (CHANGES.md,
/// PR 17, has the table).
const GOLDEN_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "b51377346792b5b2afa32082a57b3731f8cf759abf2eb5a4020f599a57fdc0e2",
    ),
    (
        "tt-scheme",
        "44d46c30c5708baee92a8f86931df556c1db7439d2f0b6dce2ec885c47f50f9b",
    ),
    (
        "qt-scheme",
        "dfa07b2ec2e0b56c706a2de9802716c305061782a1abdd055a8e28174eafb144",
    ),
    (
        "pt-scheme",
        "2b35208af0065d6daf1e7c466f0ad51903171a2815a0f86c3786dd37ab4bcba2",
    ),
    (
        "loss-homogenized-forest",
        "acf26539b0119a6eabbd9d68bf85768f70f7ec9afedc7bc8476f29d375c49bb2",
    ),
    (
        "combined-partition-forest",
        "34428c3168a149685785973c07b328d075a7ea651b2bcd65e403fb6b929a5a97",
    ),
    (
        "adaptive",
        "b7d299e1efc9d07e58784906893898a4d58dd30defbc135d1abf0f87ef2b5ef5",
    ),
];

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
    for mgr in managers() {
        let scheme = mgr.scheme_name();
        let digest = digest_of(&run_script(mgr));
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
/// randomness drawn. Checked on the six engine schemes (adaptive cannot
/// snapshot and validates in its own wrapper) against a twin that never
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
        if mgr.save_state(&mut Vec::new()).is_err() {
            continue;
        }
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
    assert_eq!(checked, 6, "one-tree, TT, QT, PT, loss-forest, combined");
}
