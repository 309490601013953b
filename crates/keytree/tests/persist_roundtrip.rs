//! Persistence round-trip tests: a decoded server must be
//! behaviourally indistinguishable from the original — not merely
//! structurally equal, but emitting byte-identical rekey messages for
//! any future batch sequence, because crash recovery replays epochs
//! through a decoded snapshot and the golden conformance digests pin
//! every output byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_crypto::Key;
use rekey_keytree::message::codec::{encode_message, Reader};
use rekey_keytree::queue::KeyQueue;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;

/// Churns a server through `intervals` mixed batches and returns the
/// set of present members.
fn churn(server: &mut LkhServer, rng: &mut StdRng, intervals: usize) -> Vec<MemberId> {
    let mut present: Vec<MemberId> = Vec::new();
    let mut next = 0u64;
    for i in 0..intervals {
        let mut joins = Vec::new();
        for _ in 0..3 {
            let m = MemberId(next);
            next += 1;
            joins.push((m, Key::generate(rng)));
            present.push(m);
        }
        let leaves: Vec<MemberId> = if i % 2 == 1 && present.len() > 4 {
            vec![present.remove(0), present.remove(i % present.len())]
        } else {
            Vec::new()
        };
        server.apply_batch(&joins, &leaves, rng);
    }
    present
}

#[test]
fn decoded_server_emits_byte_identical_future() {
    for degree in [2usize, 3, 4] {
        let mut rng = StdRng::seed_from_u64(0xD00D + degree as u64);
        let mut original = LkhServer::new(degree, 7);
        let mut present = churn(&mut original, &mut rng, 12);

        let mut blob = Vec::new();
        original.encode_into(&mut blob);
        let mut r = Reader::new(&blob);
        let mut restored = LkhServer::decode(&mut r).expect("decodes");
        assert!(r.rest().is_empty(), "decode consumed the whole blob");
        assert_eq!(restored.epoch(), original.epoch());
        assert_eq!(restored.member_count(), original.member_count());
        restored.tree().check_invariants();

        // Drive both copies through identical future batches with
        // cloned RNG streams; every emitted byte must match.
        let mut rng_restored = rng.clone();
        let mut next = 1_000_000u64;
        for i in 0..8 {
            let mut joins = Vec::new();
            for _ in 0..2 {
                let m = MemberId(next);
                next += 1;
                joins.push((m, Key::generate(&mut rng)));
                // Mirror the draw on the restored side's RNG.
                let _ = Key::generate(&mut rng_restored);
                present.push(m);
            }
            let leaves: Vec<MemberId> = if present.len() > 3 {
                vec![present.remove(i % present.len())]
            } else {
                Vec::new()
            };
            let a = original.apply_batch(&joins, &leaves, &mut rng);
            let b = restored.apply_batch(&joins, &leaves, &mut rng_restored);
            assert_eq!(
                encode_message(&a.message),
                encode_message(&b.message),
                "degree {degree}, post-restore batch {i}"
            );
        }
    }
}

/// Draws a batch of `joins` new members and `leaves` present ones.
fn draw(
    present: &mut Vec<MemberId>,
    next: &mut u64,
    (joins, leaves): (usize, usize),
    rng: &mut StdRng,
) -> (Vec<(MemberId, Key)>, Vec<MemberId>) {
    let leavers = (0..leaves.min(present.len()))
        .map(|_| present.swap_remove(rng.gen_range(0..present.len())))
        .collect();
    let joiners: Vec<(MemberId, Key)> = (0..joins)
        .map(|i| (MemberId(*next + i as u64), Key::generate(rng)))
        .collect();
    *next += joins as u64;
    present.extend(joiners.iter().map(|(id, _)| *id));
    (joiners, leavers)
}

/// Slot numbers never decide anything. Drains free slots by promotion
/// and join-only bursts refill them and form clusters, so the live
/// server's slot table has holes and reused slots, while its decoded
/// copy holds each node at its breadth-first position. The live server,
/// its clone and that copy emit byte-identical messages through mixed,
/// leave-only and join-only batches, each tree whole after every one.
#[test]
fn live_cloned_and_decoded_servers_agree_whatever_their_slots() {
    const N: usize = 2_048;
    for degree in [2usize, 3, 4] {
        let mut rng = StdRng::seed_from_u64(0x5107 + degree as u64);
        let mut live = LkhServer::new(degree, 5);
        let (mut present, mut next) = (Vec::new(), 0u64);
        let (joins, _) = draw(&mut present, &mut next, (N, 0), &mut rng);
        live.apply_batch(&joins, &[], &mut rng);
        for _ in 0..4 {
            for shape in [(0, N / 3), (N / 3, 0), (40, 40), (0, 25), (25, 0)] {
                let (joins, leaves) = draw(&mut present, &mut next, shape, &mut rng);
                live.apply_batch(&joins, &leaves, &mut rng);
            }
        }
        live.tree().check_invariants();

        let mut cloned = live.clone();
        let mut blob = Vec::new();
        live.encode_into(&mut blob);
        let mut decoded = LkhServer::decode(&mut Reader::new(&blob)).expect("decodes");
        for batch in 0..40 {
            let shape = [(30, 30), (0, 60), (60, 0)][batch % 3];
            let (joins, leaves) = draw(&mut present, &mut next, shape, &mut rng);
            let seed = rng.gen();
            let [a, b, c] = [&mut live, &mut cloned, &mut decoded].map(|server| {
                let message = server
                    .apply_batch(&joins, &leaves, &mut StdRng::seed_from_u64(seed))
                    .message;
                server.tree().check_invariants();
                encode_message(&message)
            });
            assert_eq!(a, b, "degree {degree}, batch {batch}: the clone differs");
            assert_eq!(
                a, c,
                "degree {degree}, batch {batch}: the decoded copy differs"
            );
        }
    }
}

#[test]
fn server_decode_rejects_tampering() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut server = LkhServer::new(3, 1);
    churn(&mut server, &mut rng, 6);
    let mut blob = Vec::new();
    server.encode_into(&mut blob);

    // Truncation at any point must fail cleanly, never panic.
    for cut in 0..blob.len() {
        let mut r = Reader::new(&blob[..cut]);
        assert!(LkhServer::decode(&mut r).is_err(), "cut at {cut}");
    }
    // Unknown version bytes are rejected up front.
    let mut bad = blob.clone();
    bad[0] = 99;
    assert!(LkhServer::decode(&mut Reader::new(&bad)).is_err());
}

#[test]
fn queue_round_trip_preserves_arrival_order_and_ids() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut queue = KeyQueue::new(9);
    for m in 0..20u64 {
        queue
            .push(MemberId(m), Key::generate(&mut rng), m / 4)
            .unwrap();
    }
    // Mid-queue removals leave stale arrival entries behind; the codec
    // must compact them without reordering the survivors.
    queue.remove(MemberId(3)).unwrap();
    queue.remove(MemberId(11)).unwrap();

    let mut blob = Vec::new();
    queue.encode_into(&mut blob);
    let mut r = Reader::new(&blob);
    let mut restored = KeyQueue::decode(&mut r).expect("decodes");
    assert!(r.rest().is_empty());

    assert_eq!(restored.namespace(), queue.namespace());
    assert_eq!(restored.len(), queue.len());
    assert_eq!(restored.members(), queue.members());
    for (a, b) in queue.iter().zip(restored.iter()) {
        assert_eq!(a.member, b.member);
        assert_eq!(a.node, b.node);
        assert_eq!(a.individual_key.as_bytes(), b.individual_key.as_bytes());
        assert_eq!(a.joined_epoch, b.joined_epoch);
    }

    // The id counter round-trips: the next slot in either copy gets
    // the same pseudo-node id.
    let k = Key::generate(&mut rng);
    let n1 = queue.push(MemberId(500), k.clone(), 9).unwrap();
    let n2 = restored.push(MemberId(500), k, 9).unwrap();
    assert_eq!(n1, n2);

    // Migration pops the same members in the same order.
    assert_eq!(
        queue
            .pop_older_than(2)
            .iter()
            .map(|s| s.member)
            .collect::<Vec<_>>(),
        restored
            .pop_older_than(2)
            .iter()
            .map(|s| s.member)
            .collect::<Vec<_>>()
    );
}
