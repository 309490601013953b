//! Pins the pure-join planner's output bytes at a size where its cost
//! shape matters.
//!
//! The §2.1 join procedure emits, per refreshed node, one entry under
//! the node's previous key followed by one entry per joiner beneath it
//! in batch order. The planner used to find "joiners beneath it" by
//! scanning every joiner's path for every dirty node; it now walks each
//! path once and buckets by dirty node. The digests below were recorded
//! from the scanning planner and re-pinned once for wire format 2 and
//! once for the ChaCha20-Poly1305 key wrap, each time with every
//! entry's metadata checked equal (the second time with its nonce too:
//! 1 413 and 26 417 keys, 76 540 and 1 444 511 bytes, sha256 over
//! metadata and nonces `cc2a41f5…` and `8af7246d…` on both sides), so
//! any change to entry order, nonce order or KEK choice fails here — on
//! a batch large enough (4 096 joiners, the shape of a bulk bootstrap)
//! that the small conformance scenarios' 10–20-joiner batches cannot
//! stand in for it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_crypto::{sha256, Key};
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::codec::encode_message;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn joiners(ids: std::ops::Range<u64>, rng: &mut StdRng) -> Vec<(MemberId, Key)> {
    ids.map(|i| (MemberId(i), Key::generate(rng))).collect()
}

#[test]
fn bulk_pure_join_bytes_match_the_scanning_planner() {
    let mut rng = StdRng::seed_from_u64(0x4096);
    let mut server = LkhServer::new(4, 3);

    // Bootstrap into an empty tree: every interior is freshly created,
    // so the created-interior branch of the join plan carries weight.
    let founders = joiners(0..300, &mut rng);
    let bootstrap = server.apply_batch(&founders, &[], &mut rng);
    assert_eq!(
        hex(&sha256::digest(&encode_message(&bootstrap.message))),
        "268d1724b1ba2cc2aefc1912399e7b8fdf7b5076beecfbd40259710e623e809d"
    );

    // A mixed batch in between leaves holes, so the big join below
    // fills an irregular tree rather than a freshly balanced one.
    let leavers: Vec<MemberId> = (0..300).step_by(7).map(MemberId).collect();
    let replacements = joiners(300..310, &mut rng);
    let mixed = server.apply_batch(&replacements, &leavers, &mut rng);

    // The batch under test: 4 096 joiners, no leaves — previous-key
    // entries for existing interiors, leaf splits, and thousands of
    // joiners sharing the upper path nodes.
    let newcomers = joiners(1_000..1_000 + 4_096, &mut rng);
    let bulk = server.apply_batch(&newcomers, &[], &mut rng);
    assert_eq!(bulk.stats.joins, 4_096);
    assert_eq!(
        (
            bulk.stats.encrypted_keys,
            hex(&sha256::digest(&encode_message(&bulk.message)))
        ),
        (
            26_417,
            "abfeff517be978aff76b4678090a3fd305f6f43baff1380f26bf45800f8e29b1".to_owned()
        )
    );
    server.tree().check_invariants();

    // The pinned bytes are also *useful* bytes: a founder who stayed
    // and the last newcomer both reach the new group key.
    let (stayer_id, stayer_key) = founders[1].clone();
    let mut stayer = GroupMember::new(stayer_id, stayer_key);
    for message in [&bootstrap.message, &mixed.message, &bulk.message] {
        stayer.process(message).unwrap();
    }
    let (last_id, last_key) = newcomers.last().unwrap().clone();
    let mut last = GroupMember::new(last_id, last_key);
    last.process(&bulk.message).unwrap();
    for member in [&stayer, &last] {
        assert_eq!(member.key_for(server.root_node()), Some(server.root_key()));
    }
}

/// Which keys see more than one nonce of a batch's run: within a
/// pure-join message, a `(under, under_version)` shared by several
/// entries is always the individual key of one of that batch's joiners
/// — every previous-version key and every sibling of a split leaf wraps
/// exactly once.
#[test]
fn only_a_joiners_individual_key_wraps_more_than_one_entry() {
    use std::collections::{HashMap, HashSet};

    for degree in [2, 3, 4] {
        let mut rng = StdRng::seed_from_u64(0x10e + degree as u64);
        let mut server = LkhServer::new(degree, 1);
        let mut next_id = 0u64;
        let mut repeated = 0usize;
        for (round, &size) in [1u64, 300, 4_096, 7, 513].iter().enumerate() {
            let batch = joiners(next_id..next_id + size, &mut rng);
            next_id += size;
            let joined: HashSet<MemberId> = batch.iter().map(|(id, _)| *id).collect();
            let outcome = server.apply_batch(&batch, &[], &mut rng);
            server.tree().check_invariants();

            let mut groups: HashMap<_, Vec<_>> = HashMap::new();
            for entry in &outcome.message.entries {
                groups
                    .entry((entry.under, entry.under_version))
                    .or_default()
                    .push(entry);
            }
            for (under, entries) in groups {
                if entries.len() == 1 {
                    continue;
                }
                repeated += 1;
                for entry in entries {
                    assert!(
                        entry.under_is_leaf && entry.recipient.is_some_and(|m| joined.contains(&m)),
                        "d={degree} round {round}: {under:?} wraps several entries \
                         but is not a joiner's individual key: {entry:?}"
                    );
                }
            }

            // A small leave batch in between, so the next joins fill
            // vacancies and split leaves of an irregular tree.
            let mut members: Vec<MemberId> = server.tree().members().collect();
            members.sort();
            let leavers: Vec<MemberId> = members.into_iter().step_by(5).take(9).collect();
            server.apply_batch(&[], &leavers, &mut rng);
        }
        assert!(repeated > 0, "d={degree}: no joiner key was ever shared");
    }
}
