//! A rekey entry's header is authenticated: the key server seals every
//! entry with its eight header fields as associated data
//! (`RekeyEntry::binding`), so an entry relabelled in transit fails to
//! open instead of installing the right key bytes under the wrong
//! `(node, version)`. An advance record is authenticated by its check:
//! altered anywhere, it names a key its reader does not hold at the
//! previous version (and is ignored) or fails the check (`BadTag`). A
//! derivation record is authenticated by its check too, which G makes
//! over the record's labels: altered anywhere, it names a source its
//! reader did not just install (and is ignored) or fails the check.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_crypto::{CryptoError, Key};
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::codec::{decode_message, encode_message, put_varint};
use rekey_keytree::message::{RekeyEntry, RekeyMessage};
use rekey_keytree::server::LkhServer;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};

const BAD_TAG: KeyTreeError = KeyTreeError::Crypto(CryptoError::BadTag);

/// Where the records of the advance and the derivation section sit in
/// `encode_message(message)`: each behind its count.
fn record_ranges(message: &RekeyMessage) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let count_len = |n: usize| {
        let mut buf = Vec::new();
        put_varint(&mut buf, n as u64);
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
    let entries_end = encode_message(&entries).len() - 2;
    let advances_end = encode_message(&advances).len() - 1;
    (
        entries_end + count_len(message.advances.len())..advances_end,
        advances_end + count_len(message.derivations.len())..encode_message(message).len(),
    )
}

fn joiners(ids: std::ops::Range<u64>, rng: &mut StdRng) -> Vec<(MemberId, Key)> {
    ids.map(|i| (MemberId(i), Key::generate(rng))).collect()
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

/// One rewritten field used to lock an authorised member out for good.
///
/// 64 founders, d = 4, one leave; on the wire, `target_version` of the
/// entries carrying the root's new key becomes `u64::MAX`. Before the
/// header was bound into the tag this script ended `Ok(1)` (the victim
/// installs the right root key under version `u64::MAX`), `Ok(0)` (the
/// no-downgrade guard makes it ignore the genuine retransmission),
/// `Ok(0)` (and every later epoch), holding a root key the group had
/// moved on from — no error anywhere. Now the relabelled entry is
/// `BadTag`, nothing is installed, and the retransmission heals it.
#[test]
fn a_relabelled_root_version_is_rejected_and_the_retransmission_installs() {
    let mut rng = StdRng::seed_from_u64(64);
    let mut server = LkhServer::new(4, 0);
    let founders = joiners(0..64, &mut rng);
    let bootstrap = server.apply_batch(&founders, &[], &mut rng).message;
    let root = server.root_node();

    // The victim sits in another quarter of the tree than either
    // leaver, so the root's key is the only one it needs per epoch.
    let (victim_id, victim_key) = founders[40].clone();
    let quarter_of = |member| {
        let path = server.tree().path_of(member).unwrap();
        path[path.len() - 2]
    };
    let leavers: Vec<MemberId> = (0..64)
        .map(MemberId)
        .filter(|&m| quarter_of(m) != quarter_of(victim_id))
        .take(2)
        .collect();
    let mut victim = GroupMember::new(victim_id, victim_key);
    victim.process(&bootstrap).unwrap();
    let version_before = victim.version_for(root).unwrap();

    let genuine = server.leave(leavers[0], &mut rng).unwrap();
    let mut tampered = genuine.clone();
    let mut relabelled = 0;
    for entry in tampered.entries.iter_mut().filter(|e| e.target == root) {
        entry.target_version = u64::MAX;
        relabelled += 1;
    }
    // The leaver's quarter derives the root's key by G; the victim's
    // gets it wrapped.
    assert_eq!(
        relabelled, 3,
        "the root's key goes out under each child but its chain source"
    );

    assert_eq!(victim.process(&tampered), Err(BAD_TAG));
    assert_eq!(victim.version_for(root), Some(version_before));
    assert_eq!(victim.process(&genuine), Ok(1));
    assert_eq!(victim.key_for(root), Some(server.root_key()));

    let next = server.leave(leavers[1], &mut rng).unwrap();
    assert_eq!(victim.process(&next), Ok(1));
    assert_eq!(victim.version_for(root), Some(server.root_version()));
    assert_eq!(victim.key_for(root), Some(server.root_key()));
}

/// Header field `field` of `entry` as a number (no recipient reads 0).
fn header_field(entry: &RekeyEntry, field: usize) -> u64 {
    match field {
        0 => entry.target.0,
        1 => entry.target_version,
        2 => entry.under.0,
        3 => entry.under_version,
        4 => u64::from(entry.under_is_leaf),
        5 => entry.recipient.map_or(0, |m| m.0),
        6 => u64::from(entry.audience),
        7 => u64::from(entry.target_depth),
        _ => unreachable!("eight header fields"),
    }
}

/// `entry` with exactly one of its eight header fields changed to
/// another value (derived from `value`).
fn relabel(entry: &RekeyEntry, field: usize, value: u64) -> RekeyEntry {
    let other_u64 = |old: u64| if value == old { !old } else { value };
    let other_u32 = |old: u32| {
        if value as u32 == old {
            !old
        } else {
            value as u32
        }
    };
    let mut out = entry.clone();
    match field {
        0 => out.target = NodeId(other_u64(entry.target.0)),
        1 => out.target_version = other_u64(entry.target_version),
        2 => out.under = NodeId(other_u64(entry.under.0)),
        3 => out.under_version = other_u64(entry.under_version),
        4 => out.under_is_leaf = !entry.under_is_leaf,
        5 => {
            out.recipient = match entry.recipient {
                Some(_) if value.is_multiple_of(4) => None,
                Some(m) => Some(MemberId(other_u64(m.0))),
                None => Some(MemberId(value)),
            }
        }
        6 => out.audience = other_u32(entry.audience),
        7 => out.target_depth = other_u32(entry.target_depth),
        _ => unreachable!("eight header fields"),
    }
    assert_ne!(&out, entry);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever single header field of whatever entry is rewritten, the
    /// member it was meant for either rejects it (`BadTag`) or no
    /// longer takes it for its own; it never stores a `(node, version)`
    /// the server did not seal under that label, and the genuine
    /// message afterwards leaves it exactly where a twin that never saw
    /// the forgery is.
    #[test]
    fn a_relabelled_entry_installs_nothing(
        seed in any::<u64>(),
        degree in 2usize..5,
        founders in 6u64..48,
        newcomers in 1u64..6,
        leavers in 0usize..4,
        pick in any::<prop::sample::Index>(),
        field in 0usize..8,
        value in prop_oneof![any::<u64>().prop_map(Some), (0u64..8).prop_map(Some), Just(None)],
        donor in any::<prop::sample::Index>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(degree, 1);
        let first = joiners(0..founders, &mut rng);
        let bootstrap = server.apply_batch(&first, &[], &mut rng).message;
        let joins = joiners(100..100 + newcomers, &mut rng);
        // `leavers == 0` is a pure-join batch (advances and changed-
        // child entries), anything else group-oriented.
        let leaves: Vec<MemberId> = (0..leavers as u64).map(|i| MemberId(i * 2)).collect();
        let genuine = server.apply_batch(&joins, &leaves, &mut rng).message;

        let mut members: Vec<GroupMember> = first
            .iter()
            .filter(|(id, _)| !leaves.contains(id))
            .map(|(id, key)| {
                let mut member = GroupMember::new(*id, key.clone());
                member.process(&bootstrap).unwrap();
                member
            })
            .chain(joins.iter().map(|(id, key)| GroupMember::new(*id, key.clone())))
            .collect();

        // Every (member, entry) pair where the member opens the entry.
        let mut opened = Vec::new();
        for (m, member) in members.iter().enumerate() {
            let mut probe = member.clone();
            for (e, entry) in genuine.entries.iter().enumerate() {
                if probe.process_entries([entry], &genuine.derivations).unwrap() > 0 {
                    opened.push((m, e));
                }
            }
        }
        prop_assert!(!opened.is_empty());
        let (m, e) = opened[pick.index(opened.len())];
        let victim = &mut members[m];
        let mut twin = victim.clone();

        // The new value is arbitrary, small, or — the realistic forgery
        // — the same field of another entry of the same message.
        let value = value.unwrap_or_else(|| {
            header_field(&genuine.entries[donor.index(genuine.entries.len())], field)
        });
        let mut tampered = genuine.clone();
        tampered.entries[e] = relabel(&genuine.entries[e], field, value);

        let before = ring(victim);
        let outcome = victim.process(&tampered);
        prop_assert!(
            matches!(outcome, Ok(_) | Err(BAD_TAG)),
            "unexpected error {:?}", outcome
        );
        twin.process(&genuine).unwrap();
        let after = ring(&twin);
        for held in ring(victim) {
            prop_assert!(
                before.contains(&held) || after.contains(&held),
                "field {} of entry {}: installed {:?}, which the server never sealed",
                field, e, held
            );
        }

        victim.process(&genuine).unwrap();
        prop_assert_eq!(ring(victim), after);
        prop_assert_eq!(victim.key_for(server.root_node()), Some(server.root_key()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any byte of any advance record flipped on the wire: what still
    /// decodes is, for every member, `BadTag` or a record it does not
    /// take for its own; no member comes away holding a `(node,
    /// version, key)` the genuine message would not have given it, and
    /// the genuine message afterwards leaves every member where a twin
    /// that never saw the forgery is.
    #[test]
    fn a_flipped_advance_byte_installs_nothing(
        seed in any::<u64>(),
        degree in 2usize..5,
        founders in 6u64..48,
        newcomers in 1u64..8,
        leavers in 0usize..4,
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(degree, 1);
        let first = joiners(0..founders, &mut rng);
        let bootstrap = server.apply_batch(&first, &[], &mut rng).message;
        let joins = joiners(100..100 + newcomers, &mut rng);
        let leaves: Vec<MemberId> = (0..leavers as u64).map(|i| MemberId(i * 2)).collect();
        let genuine = server.apply_batch(&joins, &leaves, &mut rng).message;
        prop_assume!(!genuine.advances.is_empty());

        // Flip a byte of an advance record.
        let wire = encode_message(&genuine);
        let (records, _) = record_ranges(&genuine);
        let mut flipped = wire.clone();
        flipped[records.start + at.index(records.len())] ^= xor;
        let Some(tampered) = decode_message(&flipped) else {
            return Ok(()); // refused by the codec
        };
        prop_assert_ne!(&tampered.advances, &genuine.advances);
        prop_assert_eq!(&tampered.entries, &genuine.entries);
        prop_assert_eq!(&tampered.derivations, &genuine.derivations);
        // A record whose label survived carries another check: every
        // holder of its previous key must refuse it.
        let forged_check = tampered
            .advances
            .iter()
            .zip(&genuine.advances)
            .find(|(t, g)| (t.node, t.version) == (g.node, g.version) && t.check != g.check)
            .map(|(t, _)| (t.node, t.version - 1));

        let members = first
            .iter()
            .filter(|(id, _)| !leaves.contains(id))
            .map(|(id, key)| {
                let mut member = GroupMember::new(*id, key.clone());
                member.process(&bootstrap).unwrap();
                member
            })
            .chain(joins.iter().map(|(id, key)| GroupMember::new(*id, key.clone())));
        for mut victim in members {
            let mut twin = victim.clone();
            twin.process(&genuine).unwrap();
            let (before, after) = (ring(&victim), ring(&twin));
            let holds_previous = forged_check
                .is_some_and(|(node, previous)| victim.version_for(node) == Some(previous));
            let outcome = victim.process(&tampered);
            if holds_previous {
                prop_assert_eq!(outcome, Err(BAD_TAG));
            }
            prop_assert!(
                matches!(outcome, Ok(_) | Err(BAD_TAG)),
                "unexpected error {:?}", outcome
            );
            for held in ring(&victim) {
                prop_assert!(
                    before.contains(&held) || after.contains(&held),
                    "member {} installed {:?}, which the server never made",
                    victim.id(), held
                );
            }
            victim.process(&genuine).unwrap();
            prop_assert_eq!(ring(&victim), after);
        }
    }

    /// Any byte of any derivation record flipped on the wire: what
    /// still decodes is, for every member, `BadTag` or a record whose
    /// source it does not install; no member comes away holding a
    /// `(node, version, key)` the genuine message would not have given
    /// it, and the genuine message afterwards leaves every member where
    /// a twin that never saw the forgery is.
    #[test]
    fn a_flipped_derivation_byte_installs_nothing(
        seed in any::<u64>(),
        degree in 2usize..5,
        founders in 6u64..48,
        newcomers in 0u64..4,
        leavers in 1usize..4,
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(degree, 1);
        let first = joiners(0..founders, &mut rng);
        let bootstrap = server.apply_batch(&first, &[], &mut rng).message;
        let joins = joiners(100..100 + newcomers, &mut rng);
        let leaves: Vec<MemberId> = (0..leavers as u64).map(|i| MemberId(i * 2)).collect();
        let genuine = server.apply_batch(&joins, &leaves, &mut rng).message;
        prop_assume!(!genuine.derivations.is_empty());

        let wire = encode_message(&genuine);
        let (_, records) = record_ranges(&genuine);
        let mut flipped = wire.clone();
        flipped[records.start + at.index(records.len())] ^= xor;
        let Some(tampered) = decode_message(&flipped) else {
            return Ok(()); // refused by the codec
        };
        prop_assert_ne!(&tampered.derivations, &genuine.derivations);
        prop_assert_eq!(&tampered.entries, &genuine.entries);
        prop_assert_eq!(&tampered.advances, &genuine.advances);

        let members = first
            .iter()
            .filter(|(id, _)| !leaves.contains(id))
            .map(|(id, key)| {
                let mut member = GroupMember::new(*id, key.clone());
                member.process(&bootstrap).unwrap();
                member
            })
            .chain(joins.iter().map(|(id, key)| GroupMember::new(*id, key.clone())));
        let mut rejected = false;
        for mut victim in members {
            let mut twin = victim.clone();
            twin.process(&genuine).unwrap();
            let (before, after) = (ring(&victim), ring(&twin));
            let outcome = victim.process(&tampered);
            prop_assert!(
                matches!(outcome, Ok(_) | Err(BAD_TAG)),
                "unexpected error {:?}", outcome
            );
            rejected |= outcome.is_err();
            for held in ring(&victim) {
                prop_assert!(
                    before.contains(&held) || after.contains(&held),
                    "member {} installed {:?}, which the server never made",
                    victim.id(), held
                );
            }
            victim.process(&genuine).unwrap();
            prop_assert_eq!(ring(&victim), after);
        }
        // A flipped check keeps every label, so whoever installs the
        // record's source refuses it.
        let same_labels = tampered
            .derivations
            .iter()
            .zip(&genuine.derivations)
            .all(|(t, g)| (t.target, t.version, t.source) == (g.target, g.version, g.source));
        prop_assert!(rejected || !same_labels);
    }
}

/// The binding is a fixed layout, not whatever the codec happens to
/// write: 49 bytes, every field at its offset, and two entries differ
/// in their binding exactly when they differ in a header field.
#[test]
fn binding_lays_out_every_header_field() {
    let mut rng = StdRng::seed_from_u64(49);
    let mut server = LkhServer::new(2, 7);
    let message: RekeyMessage = server
        .apply_batch(&joiners(0..5, &mut rng), &[], &mut rng)
        .message;
    let leaf_entry = message
        .entries
        .iter()
        .find(|e| e.recipient.is_some())
        .expect("a bootstrap addresses its joiners");
    let binding = leaf_entry.binding();
    assert_eq!(binding.len(), 49);
    assert_eq!(binding[0..8], leaf_entry.target.0.to_be_bytes());
    assert_eq!(binding[8..16], leaf_entry.target_version.to_be_bytes());
    assert_eq!(binding[16..24], leaf_entry.under.0.to_be_bytes());
    assert_eq!(binding[24..32], leaf_entry.under_version.to_be_bytes());
    assert_eq!(binding[32], 0b11, "under_is_leaf | recipient present");
    assert_eq!(
        binding[33..41],
        leaf_entry.recipient.unwrap().0.to_be_bytes()
    );
    assert_eq!(binding[41..45], leaf_entry.audience.to_be_bytes());
    assert_eq!(binding[45..49], leaf_entry.target_depth.to_be_bytes());

    for field in 0..8 {
        for value in [0, 1, u64::MAX] {
            let other = relabel(leaf_entry, field, value);
            assert_ne!(other.binding(), binding, "field {field} := {value}");
            assert_eq!(other.wrapped, leaf_entry.wrapped);
        }
    }
    // `Some(MemberId(0))` and `None` differ in the flag, not the id.
    let mut nobody = leaf_entry.clone();
    nobody.recipient = None;
    let mut zero = leaf_entry.clone();
    zero.recipient = Some(MemberId(0));
    assert_eq!(nobody.binding()[33..41], zero.binding()[33..41]);
    assert_ne!(nobody.binding()[32], zero.binding()[32]);
}
