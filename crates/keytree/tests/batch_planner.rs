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
//! - **the recorded nodes and counts**: the advanced `(node, version)`
//!   pairs and each batch's entries plus derivations are pinned by
//!   digest. Both were recorded as relations to earlier planners (the
//!   pairs were its self-wraps, less an empty tree's root, and the
//!   counts its entries) and re-pinned when join-only batches began to
//!   cluster their joiners, which moves placement (totals at
//!   [`ADVANCED_PAIRS`]).
//!
//! One bulk case pins bytes at a size where the cost shape matters, and
//! three more hold the clustering itself: a burst into a full tree,
//! batches that must place as before, and a height fuzz.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rekey_crypto::{sha256, Key};
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::codec::encode_message;
use rekey_keytree::message::{EntryMeta, RekeyMessage};
use rekey_keytree::server::LkhServer;
use rekey_keytree::tree::KeyTree;
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
/// `no_entry_is_wrapped_under_a_key_a_leaver_held`, degrees 2–4;
/// rounds that began with an empty tree are left out. Recorded as the
/// self-wraps (`under == target`) of the planner before the key
/// advance, which also self-wrapped an empty tree's root, now a fresh
/// key with no advance. Re-pinned with [`KEYS_PER_BATCH`] when
/// join-only batches into a live tree began to cluster their joiners.
/// Whole-script totals, degrees 2–5, parent → change, records being
/// advances plus derivations:
///
/// | entries       | records       | bytes             |
/// |---------------|---------------|-------------------|
/// | 6 280 → 5 971 | 1 639 → 1 491 | 371 500 → 352 806 |
const ADVANCED_PAIRS: &str = "f1081ef79c748ed857875612c17ef2dfca6289ad1c269061eef428a3d2b368a5";

/// SHA-256 over every round's entries plus derivation records — the
/// round's degree and number, then the count as a big-endian `u64` —
/// on the same script, degrees 2–5. Recorded as the encrypted keys of
/// the planner before the chain derivation, each of which became an
/// entry or a derivation record; re-pinned for the join clustering
/// (totals at [`ADVANCED_PAIRS`]).
const KEYS_PER_BATCH: &str = "576ef5fa22995797654b25134046af647cecf6edb94ae86307f484c5c7f42f61";

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
    assert_eq!(hex(&advanced_pairs.finalize()), ADVANCED_PAIRS);
    assert_eq!(hex(&changed_keys.finalize()), KEYS_PER_BATCH);
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
/// move. The fifth is for the join clustering, which moves the bulk
/// batch's placement on purpose (join-only into a live tree; the
/// bootstrap and the mixed batch place as before): parent → change,
/// entries 5 502 → 5 602, records 608 → 375 (advances 116 → 116,
/// derivations 492 → 259), bytes 312 193 → 312 368, and 1 632 → 1 499
/// refreshed nodes. A burst thirteen times the tree it joins splits
/// the joiners' own leaves whichever way it places them; clustering
/// trades derivations for wraps there, and the bytes stay level.
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
        5_977
    );
    assert_eq!(bulk.stats.encrypted_keys + bulk.stats.derived_keys, 5_861);
    assert_eq!(
        untagged_digest(&bulk.message),
        "7a69fd411fb8cb53fbbca20932f714a13e7e67f686f429107794d0367fe66036"
    );
    assert_eq!(
        (
            bulk.stats.encrypted_keys,
            hex(&sha256::digest(&encode_message(&bulk.message)))
        ),
        (
            5_602,
            "e133088a08f9b2343dab9ba8fb262dd4a6c8b56f2be8de9847edaef8bc5fcf68".to_owned()
        )
    );
    let mut state = Vec::new();
    server.encode_into(&mut state);
    assert_eq!(
        hex(&sha256::digest(&state)),
        "595d6970818826fc69a28f9ffb480cee7c21b38193dca839d7d4f660e3f645f8"
    );
    // Every member's path and every version on it: the tree the
    // clustered bulk batch leaves.
    assert_eq!(
        shape_digest(&server),
        "6a46fc0c80f567de37d4c420c036c064cf0b9ff5a202afba309cac1b6b4931e0"
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

/// A full 1 024-member tree of degree 4 (height 5, every bottom node
/// full) takes a join-only burst of 64: every joiner's descent ends at
/// a leaf. Placed by balanced descent, as the planner before the
/// clustering did, each joiner split a leaf under a different bottom
/// node and dirtied its own path: 340 entries and 149 records
/// (advances plus derivations), 20 201 bytes. Clustered under the
/// batch's own splits, they share those paths: 156 entries, 29 records
/// and 8 889 bytes.
#[test]
fn a_join_burst_into_a_full_tree_clusters_under_its_own_splits() {
    const PARENT: (usize, usize) = (340, 149);
    let mut rng = StdRng::seed_from_u64(0x1024);
    let mut server = LkhServer::new(4, 2);
    server.apply_batch(&joiners(0..1_024, &mut rng), &[], &mut rng);
    assert_eq!(server.tree().height(), 5);
    let burst = server.apply_batch(&joiners(1_024..1_088, &mut rng), &[], &mut rng);
    let message = &burst.message;
    let counts = (
        message.entries.len(),
        message.advances.len() + message.derivations.len(),
    );
    assert_eq!(counts, (156, 29));
    assert!(counts.0 < PARENT.0 && counts.1 < PARENT.1);
    server.tree().check_invariants();
}

/// Batches that do not cluster place their joiners exactly as before:
/// a bootstrap into an empty tree, then a batch with one leaver whose
/// joiners outnumber its one vacancy. The shapes are the ones the
/// planner before the clustering left on the same script.
#[test]
fn a_batch_with_a_leaver_or_into_an_empty_tree_places_joiners_as_before() {
    let mut rng = StdRng::seed_from_u64(0xB0);
    let mut server = LkhServer::new(4, 2);
    server.apply_batch(&joiners(0..300, &mut rng), &[], &mut rng);
    assert_eq!(
        shape_digest(&server),
        "6734300e8ea8fe3ed54b0a4f058a4dd538c07d8b66277bf77c386f9d7d6bc25d"
    );
    server.apply_batch(&joiners(300..364, &mut rng), &[MemberId(7)], &mut rng);
    assert_eq!(
        shape_digest(&server),
        "9f2d5bd0da19d9c3089831a5dd03b8da8e415b9005adb1658d3d40126fcb5b1a"
    );
}

/// 200 seeded intervals of join bursts, balanced churn and drains, at
/// degrees 2, 3 and 4. After every batch the tree holds its invariants
/// and no batch makes it taller than one level above a full tree of its
/// members, `⌈log_d N⌉ + 1` (a drain can leave a tree taller than that,
/// at the planner before the clustering too, since a removal only
/// promotes single children). A join-only batch into a live tree, the
/// one batch that clusters, is also placed by balanced descent alone on
/// a copy of the tree: the clustered tree may be no taller, and its
/// deepest joiner no deeper, than that copy's.
#[test]
fn clustered_bursts_keep_the_height_within_one_level_of_full() {
    for degree in [2usize, 3, 4] {
        let mut script = StdRng::seed_from_u64(0xC1 + degree as u64);
        let mut rng = StdRng::seed_from_u64(0xC2 + degree as u64);
        let mut server = LkhServer::new(degree, 4);
        let mut present: Vec<MemberId> = Vec::new();
        let mut next_id = 0u64;
        for interval in 0..200 {
            let n = present.len();
            let (n_joins, n_leaves) = match script.gen_range(0..4u32) {
                _ if n < 8 => (script.gen_range(8..200usize), 0),
                _ if n > 3_000 => (0, n / 2),
                0 => (script.gen_range(1..300usize), 0),
                1 => (0, script.gen_range(1..n / 2 + 1)),
                _ => {
                    let leaves = script.gen_range(1..n.min(40) + 1);
                    (leaves + script.gen_range(0..4usize), leaves)
                }
            };
            let joins = joiners(next_id..next_id + n_joins as u64, &mut script);
            next_id += n_joins as u64;
            let leavers: Vec<MemberId> = (0..n_leaves)
                .map(|_| present.swap_remove(script.gen_range(0..present.len())))
                .collect();
            let height_before = server.tree().height();
            let balanced = (leavers.is_empty() && n > 0).then(|| {
                let mut copy = server.tree().clone();
                let mut draws = StdRng::seed_from_u64(interval);
                for (member, key) in &joins {
                    copy.insert_member(*member, key.clone(), None, &mut draws)
                        .unwrap();
                }
                copy
            });
            server.apply_batch(&joins, &leavers, &mut rng);
            present.extend(joins.iter().map(|(id, _)| *id));

            let tree = server.tree();
            tree.check_invariants();
            assert_eq!(tree.member_count(), present.len());
            let (mut full_height, mut capacity) = (0, 1);
            while capacity < present.len() {
                capacity *= degree;
                full_height += 1;
            }
            assert!(
                tree.height() <= height_before.max(full_height + 1),
                "d={degree} interval {interval}: height {height_before} → {} for {} members",
                tree.height(),
                present.len()
            );
            if let Some(balanced) = balanced {
                let deepest = |tree: &KeyTree| {
                    joins
                        .iter()
                        .map(|(member, _)| tree.path_of(*member).unwrap().len())
                        .max()
                };
                assert!(
                    tree.height() <= balanced.height() && deepest(tree) <= deepest(&balanced),
                    "d={degree} interval {interval}: clustered height {} and deepest joiner {:?}, \
                     balanced {} and {:?}",
                    tree.height(),
                    deepest(tree),
                    balanced.height(),
                    deepest(&balanced)
                );
            }
        }
    }
}

/// A slot freed and refilled within one batch. In a full degree-3 tree
/// of 27 members, the first leaver under a bottom node P marks P
/// compromised; the second leaves P one child, whose promotion frees
/// P's slot; the joiner finds P gone and its grandparent full, so it
/// splits the promoted leaf, and the split's interior takes P's slot
/// back (the free list is last-freed first; `tree.rs` checks that
/// reuse). The message is the one the planner before the slot table
/// sent, so no mark of P reached the node that took its slot.
#[test]
fn a_slot_freed_and_refilled_in_one_batch_keeps_no_mark_of_its_old_node() {
    let mut rng = StdRng::seed_from_u64(0x27);
    let mut server = LkhServer::new(3, 4);
    server.apply_batch(&joiners(0..27, &mut rng), &[], &mut rng);
    let tree = server.tree();
    assert_eq!(tree.height(), 3);
    let (first, second, third) = (MemberId(0), MemberId(9), MemberId(18));
    let bottom = tree.path_of(first).unwrap()[0];
    let grandparent = tree.path_of(first).unwrap()[1];
    let mut siblings = tree.members_under(bottom);
    siblings.sort();
    assert_eq!(siblings, [first, second, third], "P holds three leaves");
    assert_eq!(
        tree.members_under(grandparent).len(),
        9,
        "P's parent is full"
    );

    let joiner = joiners(27..28, &mut rng);
    let outcome = server.apply_batch(&joiner, &[first, second], &mut rng);
    let tree = server.tree();
    tree.check_invariants();
    assert!(tree.key_of(bottom).is_none(), "the promotion freed P");
    let split = tree.path_of(MemberId(27)).unwrap()[0];
    let mut under_split = tree.members_under(split);
    under_split.sort();
    assert_eq!(under_split, [third, MemberId(27)]);
    assert_eq!(tree.path_of(MemberId(27)).unwrap()[1], grandparent);
    assert_eq!(
        hex(&sha256::digest(&encode_message(&outcome.message))),
        "c3f0666f38e9b9838ebcee0aa7ca6113683367caf2592462e9d30f690028f31e"
    );
}

/// A batch's entries are sealed eight at a time across KEKs, and every
/// one is byte for byte what `EntryMeta::seal` makes of its header, the
/// current keys of its target and of the key it is wrapped under, and
/// its nonce: for batches of every size from 1 to 17 entries (no full
/// lane group, one, two, and every tail length) and larger ones.
#[test]
fn lane_sealed_batches_match_the_per_entry_seal() {
    let mut sizes = BTreeMap::new();
    for (degree, members) in [(2, 3), (2, 40), (3, 9), (3, 40), (4, 40)] {
        for leaves in 0..=4.min(members - 1) {
            for joins in 0..=4u64 {
                let mut rng = StdRng::seed_from_u64(members * 100 + leaves * 10 + joins);
                let mut server = LkhServer::new(degree, 3);
                server
                    .try_apply_batch(&joiners(0..members, &mut rng), &[], &mut rng)
                    .unwrap();
                let leaving: Vec<MemberId> =
                    (0..leaves).map(|i| MemberId(i * 7 % members)).collect();
                let message = server
                    .try_apply_batch(&joiners(100..100 + joins, &mut rng), &leaving, &mut rng)
                    .unwrap()
                    .message;
                let tree = server.tree();
                for entry in &message.entries {
                    let (kek, version) = tree.key_of(entry.under).expect("a current KEK");
                    assert_eq!(entry.under_version, version);
                    let meta = EntryMeta {
                        target: entry.target,
                        target_version: entry.target_version,
                        under: entry.under,
                        under_version: entry.under_version,
                        under_is_leaf: entry.under_is_leaf,
                        recipient: entry.recipient,
                        audience: entry.audience,
                        target_depth: entry.target_depth,
                    };
                    let payload = tree.key_of(entry.target).expect("a current key").0;
                    assert_eq!(
                        meta.seal(kek, payload, entry.wrapped.nonce()),
                        *entry,
                        "degree {degree}, {leaves} leaves, {joins} joins"
                    );
                }
                *sizes.entry(message.entries.len()).or_insert(0) += 1;
            }
        }
    }
    let missing: Vec<usize> = (1..=17).filter(|n| !sizes.contains_key(n)).collect();
    assert!(
        missing.is_empty(),
        "no batch of {missing:?} entries: {sizes:?}"
    );
}
