//! Property-based tests for the transport layer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_crypto::Key;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use rekey_transport::gf256;
use rekey_transport::interest::{interest_map, total_interest};
use rekey_transport::loss::Population;
use rekey_transport::packet::{decode_block, encode_block, pack, Packet};
use rekey_transport::rs::ReedSolomon;
use rekey_transport::wka_bkr::{self, WkaBkrConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packing never exceeds capacity, never drops or duplicates an
    /// index, and preserves order.
    #[test]
    fn packing_partitions_indices(count in 1usize..400, capacity in 1usize..40) {
        let indices: Vec<usize> = (0..count).collect();
        let packets = pack(&indices, capacity, 7);
        let mut reassembled: Vec<usize> = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            prop_assert!(p.entries.len() <= capacity);
            prop_assert_eq!(p.seq, 7 + i as u64);
            reassembled.extend(p.entries.iter().copied());
        }
        prop_assert_eq!(reassembled, indices);
    }

    /// Any k-of-(k+m) subset reconstructs random shard data.
    #[test]
    fn reed_solomon_mds(k in 1usize..8, m in 0usize..6, len in 1usize..64,
                        seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| rand::Rng::gen(&mut rng)).collect())
            .collect();
        let rs = ReedSolomon::new(k, m);
        let parity = rs.encode(&data);
        let all: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();

        // A random subset of exactly k survivors.
        let mut order: Vec<usize> = (0..k + m).collect();
        for i in 0..order.len() {
            let j = rand::Rng::gen_range(&mut rng, i..order.len());
            order.swap(i, j);
        }
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + m];
        for &idx in order.iter().take(k) {
            shards[idx] = Some(all[idx].clone());
        }
        prop_assert_eq!(rs.reconstruct(&shards).unwrap(), data);
    }

    /// Entry wire encoding roundtrips for arbitrary field values, alone
    /// (against the zero context of a fresh envelope) and behind itself
    /// (same target, nonce not its own successor).
    #[test]
    fn entry_wire_roundtrip(target in any::<u64>(), tv in any::<u64>(),
                            under in any::<u64>(), uv in any::<u64>(),
                            leaf in any::<bool>(),
                            recipient in proptest::option::of(any::<u64>()),
                            audience in any::<u32>(), depth in any::<u32>(),
                            kek in any::<[u8; 32]>(), payload in any::<[u8; 32]>(),
                            nonce in any::<[u8; 12]>()) {
        let entry = rekey_keytree::message::RekeyEntry {
            target: rekey_keytree::NodeId(target),
            target_version: tv,
            under: rekey_keytree::NodeId(under),
            under_version: uv,
            under_is_leaf: leaf,
            recipient: recipient.map(MemberId),
            audience,
            target_depth: depth,
            wrapped: rekey_crypto::keywrap::wrap_with_nonce(
                &Key::from_bytes(kek), &Key::from_bytes(payload), nonce),
        };
        for block in [vec![entry.clone()], vec![entry.clone(), entry]] {
            let mut buf = Vec::new();
            encode_block(&block, &mut buf);
            let mut slice = buf.as_slice();
            let decoded = decode_block(&mut slice).unwrap();
            prop_assert_eq!(decoded, block);
            prop_assert!(slice.is_empty());
        }
    }

    /// A packet's versioned block envelope roundtrips for random
    /// memberships, rejects every truncated prefix, and rejects a
    /// corrupted version byte.
    #[test]
    fn packet_block_roundtrip_truncation_and_version(
        n in 4u64..64, capacity in 1usize..10, seed in any::<u64>(),
        cut in any::<proptest::sample::Index>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(3, 0);
        let joins: Vec<(MemberId, Key)> = (0..n)
            .map(|i| (MemberId(i), Key::generate(&mut rng)))
            .collect();
        server.apply_batch(&joins, &[], &mut rng);
        let message = server.apply_batch(&[], &[MemberId(1)], &mut rng).message;

        let indices: Vec<usize> = (0..message.entries.len()).collect();
        for packet in pack(&indices, capacity, 0) {
            let bytes = packet.to_bytes(&message);
            let mut slice = bytes.as_slice();
            let decoded = decode_block(&mut slice).unwrap();
            prop_assert!(slice.is_empty());
            let expected: Vec<_> = packet
                .entries
                .iter()
                .map(|&idx| message.entries[idx].clone())
                .collect();
            prop_assert_eq!(decoded, expected);
        }

        // Truncation at a random cut point never panics and never
        // yields a block (the envelope is length-framed).
        let one = Packet { seq: 0, entries: indices.clone() };
        let bytes = one.to_bytes(&message);
        let cut = cut.index(bytes.len());
        prop_assert!(decode_block(&mut &bytes[..cut]).is_none());

        // A wrong version byte is rejected outright.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        prop_assert!(decode_block(&mut bad.as_slice()).is_none());
    }

    /// WKA-BKR completes for any loss rate below 50% and any small
    /// group, and sends at least each needed entry once.
    #[test]
    fn wka_bkr_always_completes(n in 8u64..160, leavers in 1usize..6,
                                loss in 0.0f64..0.5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server = LkhServer::new(3, 0);
        let joins: Vec<(MemberId, Key)> = (0..n)
            .map(|i| (MemberId(i), Key::generate(&mut rng)))
            .collect();
        server.apply_batch(&joins, &[], &mut rng);
        let stride = (n as usize / leavers).max(1) | 1;
        let leaving: Vec<MemberId> = (0..leavers)
            .map(|i| MemberId(((i * stride) as u64) % n))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let out = server.apply_batch(&[], &leaving, &mut rng);
        let present: Vec<MemberId> = (0..n)
            .map(MemberId)
            .filter(|m| !leaving.contains(m))
            .collect();
        let interest = interest_map(&out.message, |node, out| server.members_under_into(node, out));
        prop_assert!(total_interest(&interest) > 0);
        let pop = Population::homogeneous(&present, loss);
        let outcome = wka_bkr::deliver(
            &out.message, &interest, &pop, &WkaBkrConfig::default(), &mut rng);
        prop_assert!(outcome.report.complete, "incomplete: {:?}", outcome.report);
        prop_assert!(outcome.report.keys_transmitted >= out.message.entries.len());
    }

    /// `mul_acc` and `scale` agree with per-byte `gf256::mul` over
    /// arbitrary coefficients, unaligned buffers, and lengths on both
    /// sides of the 8-byte unrolled stride; bytes before `offset` are
    /// left alone.
    #[test]
    fn gf256_bulk_routines_match_per_byte_mul(c in any::<u8>(),
                                              len in 0usize..4 * 32 + 4,
                                              offset in 0usize..16,
                                              seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<u8> = (0..offset + len).map(|_| rand::Rng::gen(&mut rng)).collect();
        let base: Vec<u8> = (0..offset + len).map(|_| rand::Rng::gen(&mut rng)).collect();

        let mut acc_ref = base.clone();
        for (d, s) in acc_ref[offset..].iter_mut().zip(&src[offset..]) {
            *d ^= gf256::mul(c, *s);
        }
        let mut acc = base.clone();
        gf256::mul_acc(&mut acc[offset..], &src[offset..], c);
        prop_assert_eq!(acc, acc_ref);

        let mut scale_ref = base.clone();
        for d in &mut scale_ref[offset..] {
            *d = gf256::mul(c, *d);
        }
        let mut scaled = base;
        gf256::scale(&mut scaled[offset..], c);
        prop_assert_eq!(scaled, scale_ref);
    }
}
