//! End-to-end confidentiality across every scheme: real keys, real
//! wrapping, real multicast messages processed by real member states.
//!
//! Verified properties, per scheme:
//!
//! - **liveness** — every present member can always produce the
//!   current group DEK;
//! - **forward secrecy** — a departed member processing every
//!   subsequent multicast message never recovers a later DEK;
//! - **backward secrecy** — a new member never recovers any DEK issued
//!   before its join.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::loss_forest::LossForestManager;
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::{PtManager, QtManager, TtManager};
use rekey_core::{DurationClass, GroupKeyManager, Join};
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::MemberId;
use std::collections::BTreeMap;

struct Harness {
    states: BTreeMap<MemberId, GroupMember>,
    departed: Vec<MemberId>,
    old_deks: Vec<Key>,
    next_id: u64,
}

impl Harness {
    fn new() -> Self {
        Harness {
            states: BTreeMap::new(),
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
                let mut join = Join::new(id, ik);
                // Alternate hints so every partition/class is used.
                if i % 2 == 0 {
                    join = join.with_class(DurationClass::Short).with_loss_rate(0.2);
                } else {
                    join = join.with_class(DurationClass::Long).with_loss_rate(0.02);
                }
                join
            })
            .collect()
    }

    fn pick_leavers(&self, mgr: &dyn GroupKeyManager, n: usize) -> Vec<MemberId> {
        self.states
            .keys()
            .filter(|id| mgr.contains(**id))
            .take(n)
            .copied()
            .collect()
    }

    /// Every member — present or departed — sees every multicast.
    fn broadcast(&mut self, message: &rekey_keytree::message::RekeyMessage) {
        for s in self.states.values_mut() {
            let _ = s.process(message);
        }
    }

    fn check(&self, mgr: &dyn GroupKeyManager) {
        let node = mgr.dek_node();
        let dek = mgr.dek();
        for (id, s) in &self.states {
            if self.departed.contains(id) {
                assert_ne!(
                    s.key_for(node),
                    Some(dek),
                    "[{}] departed member {id} holds the current DEK",
                    mgr.scheme_name()
                );
            } else {
                assert_eq!(
                    s.key_for(node),
                    Some(dek),
                    "[{}] member {id} cannot produce the DEK",
                    mgr.scheme_name()
                );
            }
        }
    }
}

fn exercise(mut mgr: Box<dyn GroupKeyManager>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Harness::new();

    // Bootstrap.
    let joins = h.make_joins(30, &mut rng);
    let out = mgr.process_interval(&joins, &[], &mut rng).unwrap();
    h.broadcast(&out.message);
    h.check(mgr.as_ref());
    h.old_deks.push(mgr.dek().clone());

    // Churn across enough intervals to trigger migrations (K = 3 for
    // partition schemes below).
    for round in 0..10 {
        let joins = h.make_joins(3, &mut rng);
        let leavers = h.pick_leavers(mgr.as_ref(), 1 + round % 3);
        let out = mgr.process_interval(&joins, &leavers, &mut rng).unwrap();
        h.departed.extend(leavers);
        h.broadcast(&out.message);
        h.check(mgr.as_ref());
        h.old_deks.push(mgr.dek().clone());
    }

    // Backward secrecy: a member joining now holds none of the old
    // DEKs.
    let newcomer_joins = h.make_joins(1, &mut rng);
    let newcomer = newcomer_joins[0].member;
    let out = mgr
        .process_interval(&newcomer_joins, &[], &mut rng)
        .unwrap();
    h.broadcast(&out.message);
    h.check(mgr.as_ref());
    let state = &h.states[&newcomer];
    let current = mgr.dek();
    for old in &h.old_deks {
        assert_ne!(old, current, "DEK must change every interval");
        // The newcomer's view of the DEK node is the current DEK only.
        assert_ne!(
            state.key_for(mgr.dek_node()),
            Some(old),
            "[{}] newcomer decrypted an old DEK",
            mgr.scheme_name()
        );
    }
}

#[test]
fn one_tree_secrecy() {
    exercise(Box::new(OneTreeManager::new(3)), 1);
}

#[test]
fn tt_scheme_secrecy() {
    exercise(Box::new(TtManager::new(3, 3)), 2);
}

#[test]
fn qt_scheme_secrecy() {
    exercise(Box::new(QtManager::new(3, 3)), 3);
}

#[test]
fn pt_scheme_secrecy() {
    exercise(Box::new(PtManager::new(3)), 4);
}

#[test]
fn loss_forest_secrecy() {
    exercise(Box::new(LossForestManager::two_trees(3)), 5);
}

/// A full session of the paper's membership process for every scheme,
/// checked after every interval by the key-knowledge oracle and the
/// member farm.
#[test]
fn simulated_sessions_stay_synchronized() {
    use rekey_core::Scheme;
    use rekey_testkit::{factory_for, run_scenario, GenParams, Paper, RunOptions, Workload};

    let params = GenParams {
        bootstrap: 150,
        degree: 4,
        k: 4,
        ..GenParams::default()
    };
    let scenario = Paper::default().compile(99, 15, &params);
    for scheme in Scheme::ALL {
        let stats = run_scenario(&factory_for(scheme), &scenario, &RunOptions::default())
            .unwrap_or_else(|violation| panic!("{scheme}: {violation}"));
        assert!(stats.total_entries > 0);
    }
}
