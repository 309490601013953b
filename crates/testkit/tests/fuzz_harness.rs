//! End-to-end tests of the fuzz harness itself: honest schemes
//! survive churn under every delivery model, and an injected
//! forgot-to-rekey bug is caught and shrunk.

use rekey_core::partition::TtManager;
use rekey_core::{GroupKeyManager, Scheme};
use rekey_testkit::bugs::SkipOneLeave;
use rekey_testkit::{
    factory_for, run_scenario, shrink, Delivery, GenParams, RunOptions, Scenario, Trace,
};

fn generate(seed: u64, intervals: usize) -> Scenario {
    Scenario::generate(seed, intervals, &GenParams::default())
}

/// A server that silently skips one leaver's path refresh while
/// keeping its own bookkeeping consistent: only the wire-level oracle
/// can see that the departed member is still entitled to fresh keys.
fn skip_one_leave(s: &Scenario) -> Box<dyn GroupKeyManager> {
    Box::new(SkipOneLeave::new(TtManager::new(
        s.degree.max(2) as usize,
        u64::from(s.k.max(1)),
    )))
}

#[test]
fn honest_schemes_pass_lossless_churn() {
    let scenario = generate(1, 25);
    for scheme in Scheme::ALL {
        let factory = factory_for(scheme);
        let opts = RunOptions {
            delivery: Delivery::Lossless,
        };
        let stats = run_scenario(&factory, &scenario, &opts, |_| {})
            .unwrap_or_else(|v| panic!("{scheme}: {v}"));
        assert_eq!(stats.intervals, 26);
        assert!(stats.total_entries > 0);
    }
}

#[test]
fn honest_schemes_pass_bernoulli_loss() {
    let scenario = generate(2, 20);
    for scheme in [
        Scheme::OneTree,
        Scheme::Qt,
        Scheme::Combined,
        Scheme::Adaptive,
    ] {
        let factory = factory_for(scheme);
        let opts = RunOptions {
            delivery: Delivery::Bernoulli,
        };
        run_scenario(&factory, &scenario, &opts, |_| {})
            .unwrap_or_else(|v| panic!("{scheme}: {v}"));
    }
}

#[test]
fn honest_schemes_pass_wka_transport() {
    let scenario = generate(3, 15);
    for scheme in [Scheme::OneTree, Scheme::Tt, Scheme::LossForest] {
        let factory = factory_for(scheme);
        let opts = RunOptions {
            delivery: Delivery::WkaBkr,
        };
        run_scenario(&factory, &scenario, &opts, |_| {})
            .unwrap_or_else(|v| panic!("{scheme}: {v}"));
    }
}

#[test]
fn skipped_leave_rekey_is_caught_and_shrunk() {
    let factory = skip_one_leave;
    let scenario = generate(5, 30);
    let opts = RunOptions::default();
    let violation = run_scenario(&factory, &scenario, &opts, |_| {})
        .expect_err("injected bug must violate an invariant");
    assert!(
        violation.detail.contains("forward secrecy") || violation.detail.contains("DEK"),
        "unexpected violation kind: {violation}"
    );

    let report = shrink(&factory, &scenario, &opts, violation, 400);
    // The shrunk scenario still fails, is no larger than the original,
    // and is small in absolute terms: the bug needs one leave (plus
    // the members that must exist for someone to leave).
    assert!(run_scenario(&factory, &report.scenario, &opts, |_| {}).is_err());
    assert!(report.scenario.op_count() <= scenario.op_count());
    assert!(
        report.scenario.op_count() <= 6,
        "shrinker left {} ops",
        report.scenario.op_count()
    );
    assert_eq!(
        report
            .scenario
            .intervals
            .iter()
            .map(|iv| iv.leaves.len())
            .sum::<usize>(),
        1,
        "minimal counterexample needs exactly one leave"
    );
}

/// The shrunk counterexample travels as a trace file: it survives the
/// codec byte for byte, passes the replay path's validation, and
/// re-running it gives the very violation the shrinker reported.
#[test]
fn shrunk_counterexample_replays_from_its_trace_file() {
    let factory = skip_one_leave;
    let scenario = generate(5, 30);
    let opts = RunOptions::default();
    let violation = run_scenario(&factory, &scenario, &opts, |_| {})
        .expect_err("injected bug must violate an invariant");
    let report = shrink(&factory, &scenario, &opts, violation, 400);

    let bytes = Trace {
        generator: "uniform".into(),
        scenario: report.scenario.clone(),
    }
    .encode();
    let replayed = Trace::decode(&bytes).expect("a shrunk trace decodes");
    assert_eq!(replayed.scenario, report.scenario);
    assert_eq!(replayed.encode(), bytes);
    replayed
        .scenario
        .validate()
        .expect("a shrunk scenario is a valid replay input");
    assert_eq!(
        run_scenario(&factory, &replayed.scenario, &opts, |_| {}),
        Err(report.violation)
    );
}

#[test]
fn departed_member_replay_does_not_resurrect_access() {
    // Long horizon, heavy churn: departed members receive every
    // message forever; the DEK-confinement check would flag any of
    // them clawing access back.
    let scenario = generate(6, 40);
    let factory = factory_for(Scheme::Combined);
    let stats = run_scenario(&factory, &scenario, &RunOptions::default(), |_| {}).unwrap();
    assert!(stats.intervals == 41);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// F and G are public, so a departed member may apply any mix of
    /// them to every key it ever held. It never reaches a later
    /// version: no advance or derivation record of any later interval
    /// carries the check F or G would give it — from a held key, or
    /// from any word of up to two steps of F and G applied to one, and
    /// along F from a held version to the announced one — and
    /// replaying the whole tape installs none, for any of the seven
    /// schemes.
    #[test]
    fn departed_members_cannot_chain_f_to_a_later_version(
        seed in proptest::prelude::any::<u64>(),
        scheme in 0usize..Scheme::ALL.len(),
    ) {
        use rekey_crypto::keywrap::{advance, derive, open_advance};
        use rekey_crypto::Key;
        use rekey_keytree::member::GroupMember;
        use rekey_keytree::MemberId;
        use std::collections::{BTreeMap, BTreeSet};

        let scheme = Scheme::ALL[scheme];
        let scenario = generate(seed, 12);
        let mut members: BTreeMap<MemberId, GroupMember> = BTreeMap::new();
        // Every key each member has held, and what a departed member
        // computes from its own: F and G words of length ≤ 2.
        let mut held: BTreeMap<MemberId, BTreeSet<[u8; 32]>> = BTreeMap::new();
        let mut reachable: BTreeMap<MemberId, Vec<Key>> = BTreeMap::new();
        let (mut advances, mut derivations) = (0usize, 0usize);
        rekey_testkit::drive(factory_for(scheme), &scenario, |step| {
            for join in step.joins {
                members.insert(join.member, GroupMember::new(join.member, join.individual_key.clone()));
            }
            for id in step.leaves {
                let mut keys: Vec<Key> = held[id].iter().map(|k| Key::from_bytes(*k)).collect();
                for _ in 0..2 {
                    let next: Vec<Key> = keys
                        .iter()
                        .flat_map(|k| [advance(k).0, derive(k, &[]).0])
                        .collect();
                    keys.extend(next);
                }
                reachable.insert(*id, keys);
            }
            let message = &step.outcome.message;
            advances += message.advances.len();
            derivations += message.derivations.len();
            for (id, member) in &mut members {
                member.process(message).map_err(|e| format!("{id}: {e}"))?;
                if !reachable.contains_key(id) {
                    let keys = held.entry(*id).or_default();
                    keys.insert(*member.individual_key().as_bytes());
                    for (node, _) in member.held_keys() {
                        keys.insert(*member.key_for(node).unwrap().as_bytes());
                    }
                }
            }
            for (id, keys) in &reachable {
                let ring = &members[id];
                for record in &message.advances {
                    if ring.version_for(record.node).is_some_and(|v| v >= record.version) {
                        return Err(format!("{scheme}: departed {id} holds {record:?}"));
                    }
                    if keys.iter().any(|key| open_advance(key, &record.check).is_ok()) {
                        return Err(format!("{scheme}: departed {id} reaches {record:?}"));
                    }
                    let (Some(version), Some(mut key)) =
                        (ring.version_for(record.node), ring.key_for(record.node).cloned())
                    else {
                        continue;
                    };
                    for _ in version + 1..record.version {
                        key = advance(&key).0;
                    }
                    if open_advance(&key, &record.check).is_ok() {
                        return Err(format!("{scheme}: departed {id} chains F to {record:?}"));
                    }
                }
                for record in &message.derivations {
                    if ring.version_for(record.target).is_some_and(|v| v >= record.version) {
                        return Err(format!("{scheme}: departed {id} holds {record:?}"));
                    }
                    if keys.iter().any(|key| record.open(key).is_ok()) {
                        return Err(format!("{scheme}: departed {id} chains G to {record:?}"));
                    }
                }
            }
            Ok(())
        })
        .map_err(|v| proptest::TestCaseError::fail(v.to_string()))?;
        proptest::prop_assert!(advances > 0, "{} advanced nothing", scheme);
        proptest::prop_assert!(derivations > 0, "{} derived nothing", scheme);
    }
}
