//! The batch planner's secrecy invariant, checked on the entries it
//! emits rather than on what members happen to decrypt.
//!
//! `LkhServer` plans every batch by one rule per refreshed node (see
//! the `server` module header): a node a leaver of the batch sat below,
//! one the batch created, or an empty tree's root is *compromised* — it
//! derives its new key by G from its first compromised child and is
//! wrapped under every other child, or, with no compromised child, gets
//! a fresh key wrapped under every child; any other node advances by F
//! and is wrapped once under each changed child. The random scripts
//! below run pure-join, pure-leave and mixed batches over trees of
//! degree 2–5 that reuse vacancies, split leaves and promote single
//! children, and hold every message to:
//!
//! - **forward secrecy, structurally**: no entry is wrapped under, and
//!   no key is advanced from, a key version that a leaver of this or
//!   any earlier batch ever held; an advanced node had no leaver of the
//!   batch below it and existed, with members, before the batch;
//! - **backward secrecy**: every entry transports a version made in
//!   this batch, and a joiner ends up with exactly its path at current
//!   versions — nothing older is ever on the wire for it to open;
//! - **liveness**: every survivor and every joiner reaches `root_key()`
//!   from this one message;
//! - **one wrap per key version**: no `(under, under_version)` wraps
//!   two entries of a batch, so no KEK sees two nonces of a batch's run
//!   (`rekey_crypto::keywrap`'s nonce argument needs only distinctness
//!   across batches).
//! - **chains start at fresh keys**: every derivation's source is a
//!   child of its target, compromised in the same batch and never a
//!   leaf; no entry wraps a derived target under its source; a
//!   compromised node is derived exactly when it has a compromised
//!   child, and the batch draws one fresh key for each that has none
//!   (and one per interior a split makes) — no more.
//! - **the same nodes as before**: the advanced `(node, version)`
//!   pairs are exactly the ones the previous planner wrapped under their
//!   own previous version (a digest of those, computed by that planner
//!   on the same script, is pinned below), less an empty tree's root;
//!   and each batch's entries plus derivations are the entries of the
//!   planner before the chain derivation (a digest of its per-batch
//!   counts on the same script is pinned below).
//!
//! One bulk case pins bytes at a size where the cost shape matters.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rekey_crypto::{sha256, Key};
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::codec::encode_message;
use rekey_keytree::message::RekeyMessage;
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

/// SHA-256 over every round's pairs that only joins changed —
/// the round's degree and number, then its `(node, new version)` pairs
/// in ascending order, big-endian — on the script of
/// `no_entry_is_wrapped_under_a_key_a_leaver_held`, degrees 2–4.
/// The planner before the key advance wrapped each of them under its own
/// previous version (`under == target`), and this digest is of those
/// self-wraps, taken with that planner; rounds that began with an empty
/// tree are left out, since that planner also self-wrapped an empty
/// tree's root (under the deterministic bootstrap key, held by no
/// member), which is now a fresh key with no advance.
const PARENT_SELF_WRAPS: &str = "0e4b9a2921c9fc33a2914dcf6ccd86492bfdeae4af47a416251d7270dcea045b";

/// SHA-256 over every round's encrypted keys as the planner before the
/// chain derivation sent them — the round's degree and number, then the
/// count as a big-endian `u64` — on the same script, degrees 2–5. Each
/// of those entries is now an entry or a derivation record.
const PARENT_KEYS_PER_BATCH: &str =
    "25b7d2b6b7fc515d6ad279fa2b5d8e3a4d12f33debe8cf0d03796ca87c9f062f";

/// Counts the key-sized draws (`Key::generate`) a batch makes.
struct KeyDraws<'a>(&'a mut StdRng, usize);

impl RngCore for KeyDraws<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.1 += usize::from(dest.len() == 32);
        self.0.fill_bytes(dest);
    }
}

/// Each node's parent, read off every present member's leaf-to-root
/// chain.
fn parents(server: &LkhServer) -> HashMap<NodeId, NodeId> {
    let tree = server.tree();
    let mut parent = HashMap::new();
    for member in tree.members() {
        let mut below = tree.leaf_of(member).unwrap();
        for node in tree.path_of(member).unwrap() {
            parent.insert(below, node);
            below = node;
        }
    }
    parent
}

/// SHA-256 over every member, ascending: its id, its leaf, and each
/// node on its path with that node's version — the tree without keys.
fn shape_digest(server: &LkhServer) -> String {
    let tree = server.tree();
    let mut members: Vec<MemberId> = tree.members().collect();
    members.sort_unstable();
    let mut hasher = sha256::Sha256::new();
    for member in members {
        hasher.update(&member.0.to_be_bytes());
        hasher.update(&tree.leaf_of(member).unwrap().0.to_be_bytes());
        for node in tree.path_of(member).unwrap() {
            hasher.update(&node.0.to_be_bytes());
            hasher.update(&tree.key_of(node).unwrap().1.to_be_bytes());
        }
    }
    hex(&hasher.finalize())
}

#[test]
fn no_entry_is_wrapped_under_a_key_a_leaver_held() {
    // Which tree shapes the scripts reached: splits, promotions,
    // vacancy reuse, and advanced nodes inside a batch with leavers.
    let mut seen = [0usize; 5];
    let mut advanced_pairs = sha256::Sha256::new();
    let mut changed_keys = sha256::Sha256::new();

    for degree in [2usize, 3, 4, 5] {
        // The script draws from its own stream, so it does not depend
        // on how much randomness a planner consumes.
        let mut script = StdRng::seed_from_u64(0xBA7C4 + degree as u64);
        let mut rng = StdRng::seed_from_u64(0x5E4F + degree as u64);
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
            let (n_joins, n_leaves) = match script.gen_range(0..6u32) {
                _ if n < 2 => (script.gen_range(1..40usize), 0),
                0 => (script.gen_range(1..4usize), 0),
                1 => (script.gen_range(4..60usize), 0),
                2 => (0, script.gen_range(0..n.min(3)) + 1),
                3 => (0, script.gen_range(0..n / 2) + 1),
                4 => (
                    script.gen_range(1..9usize),
                    script.gen_range(0..n.min(8)) + 1,
                ),
                _ => (script.gen_range(1..4usize), script.gen_range(0..n / 2) + 1),
            };
            let joins = joiners(next_id..next_id + n_joins as u64, &mut script);
            next_id += n_joins as u64;
            let mut ids: Vec<MemberId> = present.keys().copied().collect();
            let leavers: Vec<MemberId> = (0..n_leaves)
                .map(|_| ids.swap_remove(script.gen_range(0..ids.len())))
                .collect();
            let was_empty = n == 0;

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
            let mut draws = KeyDraws(&mut rng, 0);
            let outcome = server.apply_batch(&joins, &leavers, &mut draws);
            let key_draws = draws.1;
            server.tree().check_invariants();
            let entries = &outcome.message.entries;
            let derivations = &outcome.message.derivations;
            changed_keys.update(&[degree as u8, round as u8]);
            changed_keys.update(&((entries.len() + derivations.len()) as u64).to_be_bytes());

            // Compromised: on a leaver's path, made by a split of this
            // batch, or the root of a tree that was empty.
            let root = server.root_node();
            let parent = parents(&server);
            let leaves_now: HashSet<NodeId> = server
                .tree()
                .members()
                .map(|m| server.tree().leaf_of(m).unwrap())
                .collect();
            let created: HashSet<NodeId> = parent
                .values()
                .copied()
                .filter(|node| *node != root && !old_versions.contains_key(node))
                .collect();
            let compromised: HashSet<NodeId> = parent
                .values()
                .copied()
                .chain([root])
                .filter(|node| {
                    leaver_ancestors.contains(node)
                        || created.contains(node)
                        || (was_empty && *node == root)
                })
                .collect();
            let has_compromised_child = |node: NodeId| {
                parent
                    .iter()
                    .any(|(child, p)| *p == node && compromised.contains(child))
            };
            assert_eq!(outcome.stats.derived_keys, derivations.len());
            let mut derived = HashSet::new();
            for derivation in derivations {
                let (target, source) = (derivation.target, derivation.source);
                assert_eq!(parent.get(&source), Some(&target), "{at}: {derivation:?}");
                assert!(compromised.contains(&target), "{at}: {derivation:?}");
                assert!(compromised.contains(&source), "{at}: {derivation:?}");
                assert!(!leaves_now.contains(&source), "{at}: derived from a leaf");
                assert_eq!(
                    server.tree().key_of(target).unwrap().1,
                    derivation.version,
                    "{at}: {derivation:?}"
                );
                assert!(derived.insert(target), "{at}: {target} derived twice");
            }
            let fresh = compromised
                .iter()
                .filter(|&&node| {
                    let chained = has_compromised_child(node);
                    assert_eq!(chained, derived.contains(&node), "{at}: {node}");
                    !chained
                })
                .count();
            // Split interiors draw a placeholder key when made; every
            // compromised node over no compromised child then draws its
            // fresh one, and nothing else draws a key.
            assert_eq!(key_draws, created.len() + fresh, "{at}");
            seen[4] += derivations.len();

            let mut wrapped_under = HashSet::new();
            for entry in entries {
                let under = (entry.under, entry.under_version);
                assert!(
                    !burned.contains(&under),
                    "{at}: {entry:?} is wrapped under a key a leaver held"
                );
                assert_ne!(entry.under, entry.target, "{at}: a self-wrap");
                assert!(
                    !derivations
                        .iter()
                        .any(|d| (d.target, d.source) == (entry.target, entry.under)),
                    "{at}: {entry:?} wraps a derived key under its source"
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
            // Every advance: a node no leaver of the batch sat below,
            // alive with members before it (so neither made by a split
            // nor an empty tree's root), one version up, from a version
            // no leaver ever held.
            assert_eq!(outcome.stats.advanced_keys, outcome.message.advances.len());
            for advance in &outcome.message.advances {
                let node = advance.node;
                assert!(!leaver_ancestors.contains(&node), "{at}: {advance:?}");
                assert_eq!(
                    old_versions.get(&node).map(|v| v + 1),
                    Some(advance.version),
                    "{at}: {advance:?} is not one version past a held key"
                );
                assert!(!burned.contains(&(node, advance.version - 1)), "{at}");
                seen[3] += usize::from(!leavers.is_empty());
            }
            if !was_empty && degree <= 4 {
                let mut pairs: Vec<(NodeId, u64)> = outcome
                    .message
                    .advances
                    .iter()
                    .map(|a| (a.node, a.version))
                    .collect();
                pairs.sort_unstable();
                advanced_pairs.update(&[degree as u8, round as u8]);
                for (node, version) in pairs {
                    advanced_pairs.update(&node.0.to_be_bytes());
                    advanced_pairs.update(&version.to_be_bytes());
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "[splits, promotions, reused vacancies, advanced nodes beside leavers, derivations] \
         = {seen:?}"
    );
    assert_eq!(hex(&advanced_pairs.finalize()), PARENT_SELF_WRAPS);
    assert_eq!(hex(&changed_keys.finalize()), PARENT_KEYS_PER_BATCH);
}

/// sha256 over every entry's header (`RekeyEntry::binding`), nonce and
/// ciphertext — its sealed part without the tag — and every advance
/// and derivation record of `message`. A change that moves only tags
/// leaves it where it was; the whole-message digests re-pin behind it.
fn untagged_digest(message: &RekeyMessage) -> String {
    let mut hasher = sha256::Sha256::new();
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
    hex(&hasher.finalize())
}

/// 4 096 joiners into an irregular tree — the shape of a bulk
/// bootstrap, which the conformance scenarios' 10–20-joiner batches
/// cannot stand in for. The planner used to emit one entry per joiner
/// per refreshed ancestor (1 413 keys for the bootstrap, 26 417 for the
/// bulk batch); then one rule per node with a wrap of each join-only
/// node under its own previous version (429 and 6 110). Counts and
/// digests were re-pinned once for each change. The second re-pin is by
/// relation: the tree shape draws no randomness, so every advance here
/// is exactly one of those self-wraps, and the bootstrap's one
/// self-wrap — an empty tree's root under the bootstrap key — is gone.
/// The third re-pin, of the two message digests alone, is for the
/// one-block key wrap: only tags moved, behind the untagged digests
/// pinned first. The fourth is for the chain derivation, again by
/// relation: each entry of the planner before it is now an entry or a
/// derivation record (428 and 5 994 of them), and the shape did not
/// move.
#[test]
fn bulk_pure_join_costs_one_individual_key_wrap_per_joiner() {
    let mut rng = StdRng::seed_from_u64(0x4096);
    let mut server = LkhServer::new(4, 3);

    // Bootstrap into an empty tree: every interior is freshly created,
    // and the root's key is fresh too.
    let founders = joiners(0..300, &mut rng);
    let bootstrap = server.apply_batch(&founders, &[], &mut rng);
    assert_eq!(bootstrap.stats.advanced_keys, 0);
    assert_eq!(
        bootstrap.stats.encrypted_keys + bootstrap.stats.derived_keys,
        428
    );
    assert_eq!(
        untagged_digest(&bootstrap.message),
        "ab20989f99614f0e63349b66754ac8701a1b1347d026bb9b0be22ad051f1c9d9"
    );
    assert_eq!(
        (
            bootstrap.stats.encrypted_keys,
            hex(&sha256::digest(&encode_message(&bootstrap.message)))
        ),
        (
            363,
            "20b9dd4a9a53c517186f8ee798bc8dace47e07c54d7d6eaca2d97eee251ee113".to_owned()
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
    // A changed child per dirty node and joiner, plus the one unchanged
    // child (the split leaf) of each node a split made; the advanced
    // nodes are the rest.
    assert!(
        bulk.stats.encrypted_keys + bulk.stats.advanced_keys
            <= bulk.stats.joins + 2 * bulk.stats.refreshed_keys
    );
    assert_eq!(
        bulk.stats.encrypted_keys + bulk.stats.advanced_keys + bulk.stats.derived_keys,
        6_110
    );
    assert_eq!(bulk.stats.encrypted_keys + bulk.stats.derived_keys, 5_994);
    assert_eq!(
        untagged_digest(&bulk.message),
        "e23dd7dc232ab27e8c40b1139e51b0e040c34e59f2197def15495a9afaac37d4"
    );
    assert_eq!(
        (
            bulk.stats.encrypted_keys,
            hex(&sha256::digest(&encode_message(&bulk.message)))
        ),
        (
            5_502,
            "72736fc1155ac26a178a724ae9c6112fe174fa3f452c59301d57c8303730b4e0".to_owned()
        )
    );
    let mut state = Vec::new();
    server.encode_into(&mut state);
    assert_eq!(
        hex(&sha256::digest(&state)),
        "42a1816c6e49eabf71811818c584c4de211cad1693ac8a7f4c7b6314246f0704"
    );
    // The keys are new (F where a random key was), the tree is not:
    // every member's path and every version on it are the ones the
    // previous planner left.
    assert_eq!(
        shape_digest(&server),
        "bcce809632aa6b03c1b9d696a7df22f0381e5290b6e887329b51770ce33dbae6"
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
