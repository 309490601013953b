//! Property-based tests for the wire-format-5 coder
//! (`message::codec`): whatever the entries, advances and derivations,
//! `decode(encode(x)) == x` in message and block form; whatever the bytes, the decoders are
//! total, bounded in what they allocate, and accept one encoding only.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_crypto::keywrap::{self, next_nonce};
use rekey_crypto::Key;
use rekey_keytree::message::codec::{
    decode_block, decode_message, encode_block, encode_message, put_varint, DecodeError, Reader,
    BLOCK_HEADER_LEN, MESSAGE_HEADER_LEN, MIN_ADVANCE_LEN, MIN_DERIVATION_LEN, MIN_ENTRY_LEN,
    WIRE_VERSION,
};
use rekey_keytree::message::{KeyAdvance, KeyDerivation, RekeyEntry, RekeyMessage};
use rekey_keytree::server::LkhServer;
use rekey_keytree::{MemberId, NodeId};

/// A `u64` of uniformly random *width*, so every varint length from
/// one byte to ten (and `u64::MAX` itself) turns up.
fn wide(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..66u32) {
        65 => u64::MAX,
        64 => 0,
        shift => rng.gen::<u64>() >> shift,
    }
}

/// Entries no key server would emit but the format must carry: ids in
/// any namespace, versions up to `u64::MAX`, recipients up to 2⁴⁰ + i,
/// arbitrary nonces — with every field, by a coin flip, instead
/// repeating or stepping from the previous entry so that `SAME_TARGET`
/// and `NONCE_NEXT` fire next to entries where they must not.
fn arbitrary_entries(seed: u64, len: usize) -> Vec<RekeyEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries: Vec<RekeyEntry> = Vec::with_capacity(len);
    for i in 0..len as u64 {
        let prev = entries.last();
        let (target, target_version, target_depth) = match prev {
            Some(p) if rng.gen() => (p.target, p.target_version, p.target_depth),
            // Equal in two of three: must not be taken for a repeat.
            Some(p) if rng.gen() => (p.target, p.target_version, p.target_depth ^ 1),
            _ => (
                NodeId::from_parts(rng.gen(), wide(&mut rng) >> 32),
                wide(&mut rng),
                wide(&mut rng) as u32,
            ),
        };
        let under = match prev {
            Some(p) if rng.gen() => NodeId(p.under.0.wrapping_add(rng.gen_range(0..3))),
            _ => NodeId(wide(&mut rng)),
        };
        let nonce = match prev {
            Some(p) if rng.gen() => next_nonce(p.wrapped.nonce()),
            Some(p) if rng.gen() => p.wrapped.nonce(),
            _ if rng.gen() => [0xFF; 12],
            _ => rng.gen(),
        };
        entries.push(RekeyEntry {
            target,
            target_version,
            under,
            under_version: wide(&mut rng),
            under_is_leaf: rng.gen(),
            recipient: rng
                .gen::<bool>()
                .then(|| MemberId((wide(&mut rng) >> 24) + i)),
            audience: wide(&mut rng) as u32,
            target_depth,
            wrapped: keywrap::wrap_with_nonce(
                &Key::from_bytes(rng.gen()),
                &Key::from_bytes(rng.gen()),
                nonce,
            ),
        });
    }
    entries
}

/// Advance records no key server would emit but the format must
/// carry: any node, any version from 1 up, any check; by a coin flip a
/// node neighbours the previous one, as a server's ascending ones do.
fn arbitrary_advances(seed: u64, len: usize) -> Vec<KeyAdvance> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAD7A);
    let mut advances: Vec<KeyAdvance> = Vec::with_capacity(len);
    for _ in 0..len {
        let node = match advances.last() {
            Some(p) if rng.gen() => NodeId(p.node.0.wrapping_add(rng.gen_range(1..9))),
            _ => NodeId(wide(&mut rng)),
        };
        advances.push(KeyAdvance {
            node,
            version: wide(&mut rng).max(1),
            check: rng.gen(),
        });
    }
    advances
}

/// Derivation records no key server would emit but the format must
/// carry: any target, any version from 1 up, any source but the target
/// itself, any check; by a coin flip a target neighbours the previous
/// one and a source its target, as a server's mostly do.
fn arbitrary_derivations(seed: u64, len: usize) -> Vec<KeyDerivation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE21);
    let mut derivations: Vec<KeyDerivation> = Vec::with_capacity(len);
    for _ in 0..len {
        let target = match derivations.last() {
            Some(p) if rng.gen() => NodeId(p.target.0.wrapping_add(rng.gen_range(1..9))),
            _ => NodeId(wide(&mut rng)),
        };
        let source = if rng.gen() {
            NodeId(target.0.wrapping_add(rng.gen_range(1..40)))
        } else {
            NodeId(wide(&mut rng))
        };
        let source = if source == target {
            NodeId(target.0 ^ 1)
        } else {
            source
        };
        derivations.push(KeyDerivation {
            target,
            version: wide(&mut rng).max(1),
            source,
            check: rng.gen(),
        });
    }
    derivations
}

/// An arbitrary message: `len` entries, up to `len` advances and up to
/// `len` derivations.
fn arbitrary_message(seed: u64, epoch: u64, len: usize) -> RekeyMessage {
    RekeyMessage {
        epoch,
        entries: arbitrary_entries(seed, len),
        advances: arbitrary_advances(seed, (seed % (len as u64 + 1)) as usize),
        derivations: arbitrary_derivations(seed, (seed / 7 % (len as u64 + 1)) as usize),
    }
}

/// A message as a key server emits it: sibling runs, consecutive
/// nonces, leaf-addressed join entries.
fn server_message(seed: u64, n: u64, degree: usize) -> RekeyMessage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut server = LkhServer::new(degree, 2);
    let joins: Vec<(MemberId, Key)> = (0..n)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    server.apply_batch(&joins, &[], &mut rng);
    let newcomer = (MemberId(n), Key::generate(&mut rng));
    server
        .apply_batch(&[newcomer], &[MemberId(1), MemberId(n / 2)], &mut rng)
        .message
}

fn block_of<'a>(entries: impl ExactSizeIterator<Item = &'a RekeyEntry>) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_block(entries, &mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary entry vectors round-trip through both envelopes, and
    /// the sizing pass equals the encoder.
    #[test]
    fn arbitrary_entries_roundtrip_in_message_and_block_form(
        seed in any::<u64>(), len in 0usize..40, epoch in any::<u64>()) {
        let message = arbitrary_message(seed, epoch, len);
        let bytes = encode_message(&message);
        prop_assert_eq!(bytes.len(), MESSAGE_HEADER_LEN + message.byte_len());
        prop_assert!(message.byte_len()
            > len * MIN_ENTRY_LEN
                + message.advances.len() * MIN_ADVANCE_LEN
                + message.derivations.len() * MIN_DERIVATION_LEN);
        prop_assert_eq!(decode_message(&bytes), Some(message.clone()));

        // The entries are written alike in both envelopes; the
        // message's advances and derivations follow them.
        let block = block_of(message.entries.iter());
        let entries_end = MESSAGE_HEADER_LEN + block.len() - BLOCK_HEADER_LEN;
        prop_assert_eq!(&block[BLOCK_HEADER_LEN..], &bytes[MESSAGE_HEADER_LEN..entries_end]);
        let mut slice = block.as_slice();
        prop_assert_eq!(decode_block(&mut slice), Some(message.entries));
        prop_assert!(slice.is_empty());
    }

    /// A block of any index subset of a message — any order, repeats
    /// included, which is what WKA-BKR replication and FEC packing
    /// produce — round-trips: where neighbours do not line up the coder
    /// falls back to explicit targets and nonces.
    #[test]
    fn blocks_of_arbitrary_index_subsets_roundtrip(
        seed in any::<u64>(), n in 6u64..80, degree in 2usize..5,
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..30)) {
        let message = server_message(seed, n, degree);
        let subset: Vec<RekeyEntry> = picks
            .iter()
            .map(|pick| message.entries[pick.index(message.entries.len())].clone())
            .collect();
        let block = block_of(subset.iter());
        let mut slice = block.as_slice();
        prop_assert_eq!(decode_block(&mut slice), Some(subset));
        prop_assert!(slice.is_empty());

        // In message order the compression fires: most entries carry
        // no nonce, and siblings no target.
        let block = block_of(message.entries.iter());
        let whole = &block[BLOCK_HEADER_LEN..];
        prop_assert!(whole.len() < message.entries.len() * (MIN_ENTRY_LEN + 12),
            "{} bytes for {} entries", whole.len(), message.entries.len());
    }

    /// Arbitrary bytes never panic, and a decoder never holds more
    /// entries — nor room for more — than the input could encode,
    /// whatever count the envelope claims.
    #[test]
    fn arbitrary_bytes_never_panic_nor_overallocate(
        tail in proptest::collection::vec(any::<u8>(), 0..400),
        version_ok in any::<bool>(), small_count in any::<bool>()) {
        let mut bytes = tail;
        if version_ok && !bytes.is_empty() {
            bytes[0] = WIRE_VERSION;
        }
        if small_count && bytes.len() >= MESSAGE_HEADER_LEN {
            // Make the claimed count plausible so decoding gets past it
            // (`count:u32` sits at 9..13 in a message, 1..5 in a block).
            bytes[1..4].fill(0);
            bytes[9..12].fill(0);
        }
        let bound = bytes.len() / MIN_ENTRY_LEN + 1;
        if let Some(message) = decode_message(&bytes) {
            prop_assert!(message.entries.len() <= bound);
            prop_assert!(message.entries.capacity() <= bound);
            prop_assert!(message.advances.capacity() <= bytes.len() / MIN_ADVANCE_LEN + 1);
            prop_assert!(
                message.derivations.capacity() <= bytes.len() / MIN_DERIVATION_LEN + 1
            );
            // An encoder may pick a shorter form than the input's
            // (say, an explicit nonce that was its neighbour's
            // successor), never a different meaning.
            let again = encode_message(&message);
            prop_assert!(again.len() <= bytes.len());
            prop_assert_eq!(decode_message(&again), Some(message));
        }
        let mut slice = bytes.as_slice();
        if let Some(entries) = decode_block(&mut slice) {
            prop_assert!(entries.len() <= bound);
            prop_assert!(entries.capacity() <= bound);
        }
    }

    /// One corrupted byte anywhere in a valid message never panics, and
    /// what still decodes obeys the same bounds and re-encodes to
    /// something that decodes to it.
    #[test]
    fn single_byte_corruption_never_panics(
        seed in any::<u64>(), len in 1usize..12,
        at in any::<proptest::sample::Index>(), xor in 1u8..255) {
        let message = arbitrary_message(seed, seed, len);
        let mut bytes = encode_message(&message);
        let at = at.index(bytes.len());
        bytes[at] ^= xor;
        if let Some(decoded) = decode_message(&bytes) {
            prop_assert_ne!(&decoded, &message, "byte {} does not matter", at);
            prop_assert!(decoded.entries.capacity() <= bytes.len() / MIN_ENTRY_LEN + 1);
            prop_assert!(decoded.advances.capacity() <= bytes.len() / MIN_ADVANCE_LEN + 1);
            prop_assert!(
                decoded.derivations.capacity() <= bytes.len() / MIN_DERIVATION_LEN + 1
            );
            prop_assert_eq!(decode_message(&encode_message(&decoded)), Some(decoded));
        }
    }

    /// Every truncation point and every trailing byte is rejected, in
    /// both envelopes; so is every version byte but the current one
    /// (1, the fixed-width format, 2, the one without advances, and 4,
    /// the one without derivations, included).
    #[test]
    fn truncation_trailing_bytes_and_other_versions_are_rejected(
        seed in any::<u64>(), len in 1usize..10, version in any::<u8>(), extra in any::<u8>()) {
        let message = arbitrary_message(seed, seed, len);
        let bytes = encode_message(&message);
        let block = block_of(message.entries.iter());
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_message(&bytes[..cut]), None, "message cut at {}", cut);
        }
        for cut in 0..block.len() {
            prop_assert_eq!(decode_block(&mut &block[..cut]), None, "block cut at {}", cut);
        }
        let mut padded = bytes.clone();
        padded.push(extra);
        prop_assert_eq!(decode_message(&padded), None);
        // A block is a prefix code: it stops at its last entry.
        let mut padded = block.clone();
        padded.push(extra);
        let mut slice = padded.as_slice();
        prop_assert_eq!(decode_block(&mut slice), Some(message.entries.clone()));
        prop_assert_eq!(slice, &[extra][..]);

        if version != WIRE_VERSION {
            let (mut bytes, mut block) = (bytes, block);
            bytes[0] = version;
            block[0] = version;
            prop_assert_eq!(decode_message(&bytes), None);
            prop_assert_eq!(decode_block(&mut block.as_slice()), None);
        }
    }

    /// Reserved flag bits are rejected on any entry; `SAME_TARGET` and
    /// `NONCE_NEXT` are rejected on a first entry, which has nothing to
    /// refer back to.
    #[test]
    fn reserved_and_dangling_flags_are_rejected(
        seed in any::<u64>(), len in 1usize..6, bit in 0u32..8) {
        let message = arbitrary_message(seed, 1, len);
        let bytes = encode_message(&message);
        let flag = 1u8 << bit;
        let mut bad = bytes.clone();
        let first_flags = &mut bad[MESSAGE_HEADER_LEN];
        prop_assert_eq!(*first_flags & 0xF9, 0, "first entry refers back or sets a reserved bit");
        if flag & 0xF9 != 0 {
            *first_flags |= flag;
            prop_assert_eq!(decode_message(&bad), None, "flag {:#04x} on the first entry", flag);
        }
        if flag & 0xF0 != 0 {
            // The last entry's flags byte: found by encoding all but it.
            let head = block_of(message.entries[..len - 1].iter());
            let mut bad = bytes;
            bad[MESSAGE_HEADER_LEN + head.len() - BLOCK_HEADER_LEN] |= flag;
            prop_assert_eq!(decode_message(&bad), None, "flag {:#04x} on the last entry", flag);
        }
    }

    /// A varint has exactly one encoding: the shortest.
    #[test]
    fn varints_roundtrip_and_padded_forms_are_rejected(seed in any::<u64>()) {
        let value = wide(&mut StdRng::seed_from_u64(seed));
        let mut buf = Vec::new();
        put_varint(&mut buf, value);
        prop_assert!(buf.len() <= 10);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.varint(), Ok(value));
        prop_assert!(r.rest().is_empty());
        // The same value with a trailing zero group.
        *buf.last_mut().unwrap() |= 0x80;
        buf.push(0);
        prop_assert_eq!(Reader::new(&buf).varint(), Err(DecodeError::Invalid));
    }
}
