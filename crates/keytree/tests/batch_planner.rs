//! The batch planner's secrecy invariant, checked on the entries it
//! emits rather than on what members happen to decrypt.
//!
//! `LkhServer` plans every batch by one rule per refreshed node (see
//! the `server` module header): a node a leaver of the batch sat below,
//! or one the batch created, is wrapped under every child; any other
//! node once under its own previous version and once under each changed
//! child. The random scripts below run pure-join, pure-leave and mixed
//! batches over trees of degree 2–4 that reuse vacancies, split leaves
//! and promote single children, and hold every message to:
//!
//! - **forward secrecy, structurally**: no entry is wrapped under a key
//!   version that a leaver of this or any earlier batch ever held;
//! - **backward secrecy**: every entry transports a version made in
//!   this batch, and a joiner ends up with exactly its path at current
//!   versions — nothing older is ever on the wire for it to open;
//! - **liveness**: every survivor and every joiner reaches `root_key()`
//!   from this one message;
//! - **one wrap per key version**: no `(under, under_version)` wraps
//!   two entries of a batch, so no KEK sees two nonces of a batch's run
//!   (`rekey_crypto::keywrap`'s nonce argument needs only distinctness
//!   across batches).
//!
//! One bulk case pins bytes at a size where the cost shape matters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_crypto::{sha256, Key};
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::codec::encode_message;
use rekey_keytree::server::LkhServer;
use rekey_keytree::{MemberId, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn joiners(ids: std::ops::Range<u64>, rng: &mut StdRng) -> Vec<(MemberId, Key)> {
    ids.map(|i| (MemberId(i), Key::generate(rng))).collect()
}

/// The key versions `member` is entitled to right now: its individual
/// key and its path, read off the server's tree.
fn entitled(server: &LkhServer, member: MemberId) -> Vec<(NodeId, u64)> {
    let tree = server.tree();
    let leaf = tree.leaf_of(member).expect("present member has a leaf");
    let mut keys = vec![(leaf, 0)];
    for node in tree.path_of(member).expect("present member has a path") {
        keys.push((node, tree.key_of(node).expect("path node is alive").1));
    }
    keys
}

#[test]
fn no_entry_is_wrapped_under_a_key_a_leaver_held() {
    // Which tree shapes the scripts reached: splits, promotions,
    // vacancy reuse, and join-only nodes inside a batch with leavers.
    let mut seen = [0usize; 4];

    for degree in [2usize, 3, 4] {
        let mut rng = StdRng::seed_from_u64(0xBA7C4 + degree as u64);
        let mut server = LkhServer::new(degree, 1);
        let mut present: BTreeMap<MemberId, GroupMember> = BTreeMap::new();
        // Every key version each present member ever held, and those
        // of everyone who has left.
        let mut held: HashMap<MemberId, HashSet<(NodeId, u64)>> = HashMap::new();
        let mut burned: HashSet<(NodeId, u64)> = HashSet::new();
        let mut next_id = 0u64;

        for round in 0..60 {
            let at = format!("d={degree} round {round}");
            let n = present.len();
            let (n_joins, n_leaves) = match rng.gen_range(0..6u32) {
                _ if n < 2 => (rng.gen_range(1..40usize), 0),
                0 => (rng.gen_range(1..4usize), 0),
                1 => (rng.gen_range(4..60usize), 0),
                2 => (0, rng.gen_range(0..n.min(3)) + 1),
                3 => (0, rng.gen_range(0..n / 2) + 1),
                4 => (rng.gen_range(1..9usize), rng.gen_range(0..n.min(8)) + 1),
                _ => (rng.gen_range(1..4usize), rng.gen_range(0..n / 2) + 1),
            };
            let joins = joiners(next_id..next_id + n_joins as u64, &mut rng);
            next_id += n_joins as u64;
            let mut ids: Vec<MemberId> = present.keys().copied().collect();
            let leavers: Vec<MemberId> = (0..n_leaves)
                .map(|_| ids.swap_remove(rng.gen_range(0..ids.len())))
                .collect();

            let leaver_parents: HashSet<NodeId> = leavers
                .iter()
                .map(|&m| server.tree().path_of(m).unwrap()[0])
                .collect();
            let leaver_ancestors: HashSet<NodeId> = leavers
                .iter()
                .flat_map(|&m| server.tree().path_of(m).unwrap())
                .collect();
            let old_versions: HashMap<NodeId, u64> = present
                .keys()
                .flat_map(|&m| server.tree().path_of(m).unwrap())
                .map(|node| (node, server.tree().key_of(node).unwrap().1))
                .collect();
            let nodes_before = server.tree().node_count();

            for leaver in &leavers {
                present.remove(leaver);
                burned.extend(held.remove(leaver).expect("leaver was present"));
            }
            let outcome = server.apply_batch(&joins, &leavers, &mut rng);
            server.tree().check_invariants();
            let entries = &outcome.message.entries;

            let mut wrapped_under = HashSet::new();
            for entry in entries {
                let under = (entry.under, entry.under_version);
                assert!(
                    !burned.contains(&under),
                    "{at}: {entry:?} is wrapped under a key a leaver held"
                );
                assert!(
                    wrapped_under.insert(under),
                    "{at}: {under:?} wraps two entries of one batch"
                );
                assert!(
                    old_versions
                        .get(&entry.target)
                        .is_none_or(|&old| entry.target_version > old),
                    "{at}: {entry:?} transports a key from before the batch"
                );
            }

            for (id, key) in &joins {
                present.insert(*id, GroupMember::new(*id, key.clone()));
            }
            for (id, member) in &mut present {
                member.process(&outcome.message).unwrap();
                assert_eq!(
                    member.key_for(server.root_node()),
                    Some(server.root_key()),
                    "{at}: member {id} cannot reach the root key"
                );
                held.entry(*id).or_default().extend(entitled(&server, *id));
            }
            for (id, _) in &joins {
                let mut ring: Vec<_> = present[id].held_keys().collect();
                let mut path = entitled(&server, *id);
                ring.sort_unstable();
                path.sort_unstable();
                assert_eq!(ring, path, "{at}: joiner {id} holds more than its path");
            }

            let nodes_after = server.tree().node_count();
            if leavers.is_empty() {
                seen[0] += nodes_after - nodes_before - joins.len();
            }
            if joins.is_empty() {
                seen[1] += nodes_before - nodes_after - leavers.len();
            }
            seen[2] += joins
                .iter()
                .filter(|(id, _)| leaver_parents.contains(&server.tree().path_of(*id).unwrap()[0]))
                .count();
            if !leavers.is_empty() {
                // A previous-version entry in a batch with leavers: a
                // join-only node, never one a leaver sat below.
                for entry in entries.iter().filter(|e| e.under == e.target) {
                    assert!(!leaver_ancestors.contains(&entry.target), "{at}: {entry:?}");
                    seen[3] += 1;
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "[splits, promotions, reused vacancies, join-only nodes beside leavers] = {seen:?}"
    );
}

/// 4 096 joiners into an irregular tree — the shape of a bulk
/// bootstrap, which the conformance scenarios' 10–20-joiner batches
/// cannot stand in for. The planner used to emit one entry per joiner
/// per refreshed ancestor (1 413 keys for the bootstrap, 26 417 for the
/// bulk batch); counts and digests were re-pinned once when it became
/// one rule per node, with the server's `encode_into` bytes after the
/// last batch (pinned below) equal on both sides: the batches install
/// the same keys, they send fewer copies of them.
#[test]
fn bulk_pure_join_costs_one_individual_key_wrap_per_joiner() {
    let mut rng = StdRng::seed_from_u64(0x4096);
    let mut server = LkhServer::new(4, 3);

    // Bootstrap into an empty tree: every interior is freshly created.
    let founders = joiners(0..300, &mut rng);
    let bootstrap = server.apply_batch(&founders, &[], &mut rng);
    assert_eq!(
        (
            bootstrap.stats.encrypted_keys,
            hex(&sha256::digest(&encode_message(&bootstrap.message)))
        ),
        (
            429,
            "ea6b19b177fb09f0177e5a82a51cca82495babbd2421c064286028cb22ec0d94".to_owned()
        )
    );

    // A mixed batch in between leaves holes, so the big join below
    // fills an irregular tree rather than a freshly balanced one.
    let leavers: Vec<MemberId> = (0..300).step_by(7).map(MemberId).collect();
    let replacements = joiners(300..310, &mut rng);
    let mixed = server.apply_batch(&replacements, &leavers, &mut rng);

    let newcomers = joiners(1_000..1_000 + 4_096, &mut rng);
    let bulk = server.apply_batch(&newcomers, &[], &mut rng);
    assert_eq!(bulk.stats.joins, 4_096);
    assert!(bulk.stats.encrypted_keys <= bulk.stats.joins + 2 * bulk.stats.refreshed_keys);
    assert_eq!(
        (
            bulk.stats.encrypted_keys,
            hex(&sha256::digest(&encode_message(&bulk.message)))
        ),
        (
            6_110,
            "703e20ded1f474975c5bf1d4d38cc88f1dbb24692471fe4528d8e3da0b439f7c".to_owned()
        )
    );
    let mut state = Vec::new();
    server.encode_into(&mut state);
    assert_eq!(
        hex(&sha256::digest(&state)),
        "66a0cc76ed9852a4124dc5b0e1f79451814e7fe6fced644b4ede31a9b0420a85"
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
