//! Property-based tests: structural invariants and end-to-end secrecy
//! under random operation sequences.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::server::LkhServer;
use rekey_keytree::tree::KeyTree;
use rekey_keytree::MemberId;

/// A randomized membership script: joins (true) and leaves (false,
/// removing the oldest present member).
fn script() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tree maintains its structural invariants under arbitrary
    /// join/leave interleavings.
    #[test]
    fn tree_invariants_hold(ops in script(), degree in 2usize..6, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = KeyTree::new(degree, 0, &mut rng);
        let mut present: Vec<MemberId> = Vec::new();
        let mut next = 0u64;
        for op in ops {
            if op || present.is_empty() {
                let m = MemberId(next);
                next += 1;
                tree.insert_member(m, Key::generate(&mut rng), None, &mut rng).unwrap();
                present.push(m);
            } else {
                let m = present.remove(0);
                tree.remove_member(m).unwrap();
            }
            tree.check_invariants();
        }
        prop_assert_eq!(tree.member_count(), present.len());
    }

    /// Tree height stays logarithmic under pure growth.
    #[test]
    fn growth_stays_balanced(n in 1usize..300, degree in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tree = KeyTree::new(degree, 0, &mut rng);
        for i in 0..n {
            tree.insert_member(MemberId(i as u64), Key::generate(&mut rng), None, &mut rng).unwrap();
        }
        let ideal = (n.max(2) as f64).log(degree as f64).ceil() as usize;
        prop_assert!(tree.height() <= ideal + 2,
            "height {} vs ideal {} for n={} d={}", tree.height(), ideal, n, degree);
    }

    /// After any sequence of batches, every current member can derive
    /// the group key and every departed member cannot.
    #[test]
    fn end_to_end_secrecy(ops in script(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(3, 0);
        let mut states: Vec<GroupMember> = Vec::new();
        let mut present: Vec<usize> = Vec::new();
        let mut departed: Vec<usize> = Vec::new();

        // Process ops in small batches of up to 4.
        let mut next = 0u64;
        for chunk in ops.chunks(4) {
            let mut joins = Vec::new();
            let mut leaves = Vec::new();
            for &op in chunk {
                if op || present.len() <= leaves.len() {
                    let ik = Key::generate(&mut rng);
                    joins.push((MemberId(next), ik.clone()));
                    states.push(GroupMember::new(MemberId(next), ik));
                    next += 1;
                } else {
                    let idx = present[leaves.len()];
                    leaves.push(MemberId(states[idx].id().0));
                }
            }
            let leaving: Vec<usize> = present
                .iter()
                .copied()
                .filter(|&i| leaves.contains(&states[i].id()))
                .collect();
            present.retain(|i| !leaving.contains(i));
            for (id, _) in &joins {
                present.push(states.iter().position(|s| s.id() == *id).unwrap());
            }
            departed.extend(leaving);

            let outcome = server.apply_batch(&joins, &leaves, &mut rng);
            // Everyone — current and departed — sees the multicast.
            for s in states.iter_mut() {
                let _ = s.process(&outcome.message);
            }
        }

        let root = server.root_node();
        for &i in &present {
            prop_assert_eq!(
                states[i].key_for(root), Some(server.root_key()),
                "member {} lost sync", states[i].id());
        }
        for &i in &departed {
            prop_assert_ne!(
                states[i].key_for(root), Some(server.root_key()),
                "departed member {} still holds the group key", states[i].id());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adversarial receiver hardening: between legitimate multicasts a
    /// member is fed replays of arbitrary earlier messages with their
    /// entries permuted (stale versions, out-of-order, re-addressed
    /// noise). Processing must never error, never downgrade any held
    /// key version, and never break the member's sync with the server.
    #[test]
    fn replays_and_permutations_never_downgrade(
        ops in script(),
        seed in any::<u64>(),
        noise_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(3, 0);

        // Member 0 joins first and never leaves; it is the receiver
        // under attack.
        let ik = Key::generate(&mut rng);
        let mut member = GroupMember::new(MemberId(0), ik.clone());
        let bootstrap = server.apply_batch(&[(MemberId(0), ik)], &[], &mut rng);

        // Build the full legitimate message history from churn around
        // member 0, snapshotting the root key at every epoch (the
        // member is replayed through the history below, so sync is
        // judged against the root of the *same* epoch).
        let mut roots = vec![(server.root_node(), server.root_key().clone())];
        let mut history = vec![bootstrap.message];
        let mut present: Vec<MemberId> = Vec::new();
        let mut next = 1u64;
        for chunk in ops.chunks(3) {
            let mut joins = Vec::new();
            let mut leaves = Vec::new();
            for &op in chunk {
                if op || present.len() <= leaves.len() {
                    let m = MemberId(next);
                    next += 1;
                    joins.push((m, Key::generate(&mut rng)));
                } else {
                    leaves.push(present[leaves.len()]);
                }
            }
            present.retain(|m| !leaves.contains(m));
            present.extend(joins.iter().map(|&(m, _)| m));
            history.push(server.apply_batch(&joins, &leaves, &mut rng).message);
            roots.push((server.root_node(), server.root_key().clone()));
        }

        let mut noise = StdRng::seed_from_u64(noise_seed);
        for idx in 0..history.len() {
            member.process(&history[idx])
                .expect("legitimate message must be accepted");
            let snapshot: std::collections::BTreeMap<_, _> =
                member.held_keys().collect();

            // Replay a random earlier (or current) message with its
            // entries shuffled.
            let pick = noise.gen_range(0..idx + 1);
            let mut replay = history[pick].clone();
            let n = replay.entries.len();
            for i in (1..n).rev() {
                let j = noise.gen_range(0..i + 1);
                replay.entries.swap(i, j);
            }
            member.process(&replay)
                .expect("replayed/permuted message must not error");

            for (node, version) in member.held_keys() {
                if let Some(&held) = snapshot.get(&node) {
                    prop_assert!(
                        version >= held,
                        "replay downgraded {node:?} from {held} to {version}"
                    );
                }
            }
            let (root, ref key) = roots[idx];
            prop_assert_eq!(
                member.key_for(root),
                Some(key),
                "noise broke the member's sync at epoch {}", idx
            );
        }
    }

    /// A fresh receiver fed a *permuted* message may miss keys (the
    /// single-pass contract needs deepest-first order) but must not
    /// panic, error, or end up holding a key version above what the
    /// in-order message grants; reprocessing the original message then
    /// completes its state exactly.
    #[test]
    fn permuted_bootstrap_is_safe_and_recoverable(
        n in 2usize..40,
        seed in any::<u64>(),
        noise_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(3, 0);
        let joins: Vec<(MemberId, Key)> = (0..n as u64)
            .map(|i| (MemberId(i), Key::generate(&mut rng)))
            .collect();
        let out = server.apply_batch(&joins, &[], &mut rng);

        let mut reference = GroupMember::new(MemberId(0), joins[0].1.clone());
        reference.process(&out.message).unwrap();
        let expected: std::collections::BTreeMap<_, _> =
            reference.held_keys().collect();

        let mut noise = StdRng::seed_from_u64(noise_seed);
        let mut shuffled = out.message.clone();
        let len = shuffled.entries.len();
        for i in (1..len).rev() {
            let j = noise.gen_range(0..i + 1);
            shuffled.entries.swap(i, j);
        }

        let mut victim = GroupMember::new(MemberId(0), joins[0].1.clone());
        victim.process(&shuffled).expect("permuted message must not error");
        for (node, version) in victim.held_keys() {
            prop_assert_eq!(
                Some(&version), expected.get(&node),
                "permutation invented key {node:?}@{version}"
            );
        }

        victim.process(&out.message).unwrap();
        let recovered: std::collections::BTreeMap<_, _> = victim.held_keys().collect();
        prop_assert_eq!(recovered, expected, "in-order reprocess must fully sync");
    }
}
