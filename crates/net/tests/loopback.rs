//! End-to-end loopback test: the testkit's scenario generator drives a
//! real `rekeyd` over 127.0.0.1, and every socket-fed member must end
//! in *exactly* the state of its in-process twin in the `MemberFarm` —
//! same key rings, same key bytes, same wire digest — including under
//! injected disconnects mid-epoch (recovered via reconnect + NACK).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{Join, Scheme, SchemeConfig};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::message::codec;
use rekey_keytree::MemberId;
use rekey_net::{
    BackoffConfig, ClientConfig, NetError, RejectReason, RekeyClient, Rekeyd, ServerConfig,
};
use rekey_testkit::{Delivery, GenParams, MemberFarm, Scenario};
use std::collections::HashMap;
use std::time::Duration;

const SYNC_BUDGET: Duration = Duration::from_secs(10);

fn test_client_config() -> ClientConfig {
    ClientConfig {
        backoff: BackoffConfig {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            seed: 1,
        },
    }
}

struct SocketMember {
    client: RekeyClient,
    start_epoch: u64,
}

/// Runs `scenario` through a manager, delivering every epoch both to
/// the in-process farm (lossless) and over real sockets, and checks
/// the two worlds agree. `disconnect_every` injects a hard disconnect
/// on one live client every N intervals, mid-epoch (after the epoch is
/// published but before that client has read it).
fn run_loopback(scheme: Scheme, seed: u64, intervals: usize, disconnect_every: Option<usize>) {
    let scenario = Scenario::generate(
        seed,
        intervals,
        &GenParams {
            bootstrap: 12,
            ..GenParams::default()
        },
    );
    let mut manager = scheme.build(
        &SchemeConfig::new()
            .degree(scenario.degree as usize)
            .s_period(u64::from(scenario.k)),
    );
    let mut churn_rng = StdRng::seed_from_u64(scenario.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut net_rng = StdRng::seed_from_u64(scenario.seed ^ 0x6A09_E667_F3BC_C908);

    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind rekeyd");
    let addr = daemon.local_addr();

    let mut farm = MemberFarm::new();
    let mut clients: HashMap<MemberId, SocketMember> = HashMap::new();
    let mut epoch_bytes: Vec<Vec<u8>> = Vec::new(); // epoch e at index e-1
    let mut disconnects = 0usize;

    for (interval, ops) in scenario.intervals.iter().enumerate() {
        let epoch = interval as u64 + 1;

        let mut joins = Vec::with_capacity(ops.joins.len());
        for op in &ops.joins {
            let member = MemberId(op.member);
            let key = Key::generate(&mut churn_rng);
            farm.admit(member, key.clone(), op.loss);
            daemon.register(member, key.clone());
            clients.insert(
                member,
                SocketMember {
                    client: RekeyClient::new(
                        addr,
                        member,
                        key.clone(),
                        epoch,
                        test_client_config(),
                    ),
                    start_epoch: epoch,
                },
            );
            let mut join = Join::new(member, key).with_loss_rate(op.loss);
            if let Some(class) = op.class {
                join = join.with_class(class);
            }
            joins.push(join);
        }
        let leaves: Vec<MemberId> = ops.leaves.iter().map(|&m| MemberId(m)).collect();
        for &m in &leaves {
            farm.depart(m);
            daemon.deregister(m);
            if let Some(mut gone) = clients.remove(&m) {
                gone.client.close();
            }
        }
        for &(m, loss) in &ops.loss_changes {
            farm.set_loss(MemberId(m), loss);
        }

        let out = manager
            .process_interval(&joins, &leaves, &mut churn_rng)
            .expect("manager accepts scenario batch");
        assert_eq!(out.message.epoch, epoch, "engine epochs are consecutive");

        let bytes = codec::encode_message(&out.message);
        let decoded = codec::decode_message(&bytes).expect("wire bytes decode");
        farm.deliver(&decoded, Delivery::Lossless, manager.as_ref(), &mut net_rng)
            .expect("farm accepts epoch");
        epoch_bytes.push(bytes);

        daemon.publish(&out.message).expect("publish epoch");

        // Inject a crash on one live client *after* the epoch hit the
        // wire but before that client read it: the client must come
        // back through reconnect + NACK.
        if let Some(every) = disconnect_every {
            if interval % every == every - 1 {
                // Deterministic victim: the lowest member id that has
                // already applied an epoch (so it certainly holds a
                // live connection to sever).
                let victim = clients
                    .iter_mut()
                    .filter(|(_, s)| s.client.applied() > 0)
                    .min_by_key(|(m, _)| m.0)
                    .map(|(_, s)| s);
                if let Some(victim) = victim {
                    victim.client.inject_disconnect();
                    disconnects += 1;
                }
            }
        }

        for socket_member in clients.values_mut() {
            socket_member
                .client
                .sync_to(epoch, SYNC_BUDGET)
                .expect("client catches up to published epoch");
        }
    }

    // Every surviving socket-fed member matches its in-process twin.
    let final_epoch = scenario.intervals.len() as u64;
    assert!(!clients.is_empty(), "scenario left no members to compare");
    let mut total_reconnects = 0u64;
    for (member, socket_member) in &clients {
        let twin = farm
            .member(*member)
            .unwrap_or_else(|| panic!("farm lost member {member:?}"));
        let over_socket = socket_member.client.member();

        let mut expected_ring: Vec<_> = twin.held_keys().collect();
        let mut actual_ring: Vec<_> = over_socket.held_keys().collect();
        expected_ring.sort_unstable();
        actual_ring.sort_unstable();
        assert_eq!(
            expected_ring, actual_ring,
            "member {member:?}: socket ring diverged from farm ring"
        );
        for (node, _) in expected_ring {
            assert_eq!(
                twin.key_for(node),
                over_socket.key_for(node),
                "member {member:?}: key bytes for {node:?} diverged"
            );
        }
        assert_eq!(
            over_socket.key_for(manager.dek_node()),
            Some(manager.dek()),
            "member {member:?}: socket member cannot derive the group DEK"
        );

        // The wire digest: SHA-256 over the codec bytes of every epoch
        // the client applied, in order — byte-identical to what left
        // the in-process encoder.
        let mut expected = Sha256::new();
        for e in socket_member.start_epoch..=final_epoch {
            expected.update(&epoch_bytes[(e - 1) as usize]);
        }
        assert_eq!(
            socket_member.client.digest(),
            expected.finalize(),
            "member {member:?}: wire digest diverged"
        );
        assert_eq!(socket_member.client.next_epoch(), final_epoch + 1);
        total_reconnects += socket_member.client.reconnects();
    }
    if disconnects > 0 {
        assert!(
            total_reconnects > 0,
            "injected {disconnects} disconnects but no client reconnected"
        );
    }

    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn lossless_loopback_matches_farm_one_tree() {
    run_loopback(Scheme::OneTree, 11, 10, None);
}

#[test]
fn lossless_loopback_matches_farm_combined() {
    run_loopback(Scheme::Combined, 12, 10, None);
}

#[test]
fn disconnected_clients_recover_via_nack_qt() {
    run_loopback(Scheme::Qt, 13, 12, Some(3));
}

#[test]
fn disconnected_clients_recover_via_nack_adaptive() {
    run_loopback(Scheme::Adaptive, 14, 12, Some(4));
}

#[test]
fn unregistered_member_is_rejected() {
    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut rng = StdRng::seed_from_u64(1);
    let key = Key::generate(&mut rng);
    let mut client = RekeyClient::new(
        daemon.local_addr(),
        MemberId(99),
        key,
        1,
        test_client_config(),
    );
    match client.poll(Duration::from_secs(2)) {
        Err(NetError::Rejected(RejectReason::UnknownMember)) => {}
        other => panic!("expected UnknownMember rejection, got {other:?}"),
    }
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn wrong_key_fails_authentication() {
    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut rng = StdRng::seed_from_u64(2);
    let real = Key::generate(&mut rng);
    let wrong = Key::generate(&mut rng);
    daemon.register(MemberId(7), real);
    let mut client = RekeyClient::new(
        daemon.local_addr(),
        MemberId(7),
        wrong,
        1,
        test_client_config(),
    );
    match client.poll(Duration::from_secs(2)) {
        Err(NetError::Rejected(RejectReason::BadAuth)) => {}
        other => panic!("expected BadAuth rejection, got {other:?}"),
    }
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn evicted_epoch_reports_gap() {
    // A tiny retransmission window: a client that needs epoch 1 after
    // the window moved past it must get a typed EpochEvicted error,
    // not silence or a corrupt state.
    let config = ServerConfig {
        window: 2,
        ..ServerConfig::default()
    };
    let daemon = Rekeyd::bind("127.0.0.1:0", config).expect("bind");
    let mut rng = StdRng::seed_from_u64(3);
    let key = Key::generate(&mut rng);
    let member = MemberId(1);
    daemon.register(member, key.clone());

    let mut manager = Scheme::OneTree.build(&SchemeConfig::new());
    for epoch in 1..=5u64 {
        let joins = if epoch == 1 {
            vec![Join::new(member, key.clone())]
        } else {
            vec![]
        };
        let out = manager
            .process_interval(&joins, &[], &mut rng)
            .expect("rekey");
        daemon.publish(&out.message).expect("publish");
    }

    let mut client = RekeyClient::new(daemon.local_addr(), member, key, 1, test_client_config());
    match client.sync_to(5, Duration::from_secs(2)) {
        Err(NetError::EpochEvicted { requested, oldest }) => {
            assert_eq!(requested, 1);
            assert_eq!(oldest, 4);
        }
        other => panic!("expected EpochEvicted, got {other:?}"),
    }
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn shutdown_sends_bye_to_live_clients() {
    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut rng = StdRng::seed_from_u64(4);
    let key = Key::generate(&mut rng);
    let member = MemberId(5);
    daemon.register(member, key.clone());

    let mut manager = Scheme::Tt.build(&SchemeConfig::new());
    let out = manager
        .process_interval(&[Join::new(member, key.clone())], &[], &mut rng)
        .expect("rekey");
    daemon.publish(&out.message).expect("publish");

    let mut client = RekeyClient::new(daemon.local_addr(), member, key, 1, test_client_config());
    client.sync_to(1, Duration::from_secs(5)).expect("sync");
    assert_eq!(daemon.session_count(), 1);

    daemon.shutdown().expect("clean shutdown");
    // The graceful drain delivered a Bye; the client notices instead
    // of spinning in reconnect.
    client
        .poll(Duration::from_secs(2))
        .expect("poll after shutdown");
    assert!(client.server_closed());
}
