//! Packetization of rekey messages.
//!
//! One [`Packet`] carries up to [`PacketConfig::capacity`] encrypted
//! keys. Entries are referenced by their index in the originating
//! [`RekeyMessage`] so the simulation layer can track interest and
//! delivery cheaply; the actual byte format lives in one place —
//! [`rekey_keytree::message::codec`] — and this module re-exports its
//! block form. [`Packet::to_bytes`] emits the codec's versioned block
//! envelope (version byte, entry count, entries), which is what the FEC
//! transport feeds to Reed–Solomon so parity is computed over genuine
//! wire bytes.
//!
//! # Entry sizes
//!
//! The default capacity of 14 dates from the version-1 wire: a
//! 1400-byte UDP payload of fixed 110-byte entries, rounded to "~100".
//! Version 2, measured at N = 16 384, d = 4, TT-scheme, Table-1 churn:
//! 55.2 bytes per entry in a whole message; 57.0 in blocks of 14
//! message neighbours (each block restarts the coder's context); 69.7
//! in WKA-BKR's packing orders, which re-sort entries by depth or by
//! `under` so that most nonces no longer follow their neighbour's and
//! go out explicitly. 1400 bytes therefore hold 20–24 entries — close
//! to `rekey_analytic::fec_model::FecParams::default().keys_per_packet`
//! = 25, which the executable transport has never matched. The capacity
//! stays 14 all the same: every transport figure in EXPERIMENTS.md and
//! every `transport_delivery` tolerance is in packets of 14, and
//! re-basing them is a change of its own.

use rekey_keytree::message::codec;
use rekey_keytree::message::RekeyMessage;

pub use rekey_keytree::message::codec::{decode_block, encode_block};

/// Packetization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketConfig {
    /// Maximum entries per packet.
    pub capacity: usize,
}

impl Default for PacketConfig {
    fn default() -> Self {
        // See "Entry sizes" in the module docs.
        PacketConfig { capacity: 14 }
    }
}

/// A multicast packet: a set of entry indices into the rekey message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sequence number unique within one delivery.
    pub seq: u64,
    /// Indices into [`RekeyMessage::entries`].
    pub entries: Vec<usize>,
}

impl Packet {
    /// Number of encrypted keys this packet carries.
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// Serializes the packet's entries as a versioned entry block
    /// (see [`codec::encode_block`]); decode with
    /// [`codec::decode_block`].
    pub fn to_bytes(&self, message: &RekeyMessage) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::encode_block(
            self.entries.iter().map(|&idx| &message.entries[idx]),
            &mut buf,
        );
        buf
    }
}

/// Packs entry indices into packets of at most `capacity` entries, in
/// the given order, assigning sequence numbers starting at `first_seq`.
pub fn pack(indices: &[usize], capacity: usize, first_seq: u64) -> Vec<Packet> {
    assert!(capacity >= 1, "packet capacity must be at least 1");
    indices
        .chunks(capacity)
        .enumerate()
        .map(|(i, chunk)| Packet {
            seq: first_seq + i as u64,
            entries: chunk.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_crypto::Key;
    use rekey_keytree::server::LkhServer;
    use rekey_keytree::MemberId;

    fn sample_message() -> RekeyMessage {
        let mut rng = StdRng::seed_from_u64(11);
        let mut server = LkhServer::new(4, 0);
        let joins: Vec<(MemberId, Key)> = (0..32)
            .map(|i| (MemberId(i), Key::generate(&mut rng)))
            .collect();
        server.apply_batch(&joins, &[], &mut rng);
        server
            .apply_batch(&[], &[MemberId(3), MemberId(17)], &mut rng)
            .message
    }

    /// Every entry survives on its own: a one-entry block carries its
    /// target and nonce explicitly.
    #[test]
    fn entry_wire_roundtrip() {
        let msg = sample_message();
        for (idx, entry) in msg.iter() {
            let packet = Packet {
                seq: 0,
                entries: vec![idx],
            };
            let bytes = packet.to_bytes(&msg);
            let mut slice = bytes.as_slice();
            assert_eq!(
                decode_block(&mut slice).unwrap(),
                std::slice::from_ref(entry)
            );
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        let msg = sample_message();
        let packet = Packet {
            seq: 0,
            entries: vec![0, 1, 2],
        };
        let bytes = packet.to_bytes(&msg);
        for cut in 0..bytes.len() {
            assert!(decode_block(&mut &bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn wire_size_matches_message_estimate() {
        // The keytree crate's byte_len must equal the actual encoded
        // size, and a packet of message neighbours must stay near the
        // per-entry floor (the compression fires in block form too).
        let msg = sample_message();
        let encoded = codec::encode_message(&msg);
        assert_eq!(encoded.len(), codec::MESSAGE_HEADER_LEN + msg.byte_len());
        let all = Packet {
            seq: 0,
            entries: (0..msg.entries.len()).collect(),
        };
        let block = all.to_bytes(&msg);
        // A leave batch advances no key and derives some: the message
        // body is the block's entries, a zero advance count and the
        // derivation section, which no block carries.
        assert!(msg.advances.is_empty() && !msg.derivations.is_empty());
        let records = codec::encode_message(&RekeyMessage {
            derivations: msg.derivations.clone(),
            ..RekeyMessage::new(msg.epoch)
        });
        let tail = &records[codec::MESSAGE_HEADER_LEN..];
        let (body, rest) = encoded.split_at(encoded.len() - tail.len());
        assert_eq!(
            block[codec::BLOCK_HEADER_LEN..],
            body[codec::MESSAGE_HEADER_LEN..]
        );
        assert_eq!(rest, tail);
        assert_eq!(tail[0], 0, "no advances");
        assert!(block.len() < msg.entries.len() * (codec::MIN_ENTRY_LEN + 8));
    }

    #[test]
    fn pack_respects_capacity() {
        let indices: Vec<usize> = (0..33).collect();
        let packets = pack(&indices, 14, 100);
        assert_eq!(packets.len(), 3);
        assert_eq!(packets[0].entries.len(), 14);
        assert_eq!(packets[2].entries.len(), 5);
        assert_eq!(packets[0].seq, 100);
        assert_eq!(packets[2].seq, 102);
    }

    #[test]
    fn packet_bytes_roundtrip_all_entries() {
        let msg = sample_message();
        let indices: Vec<usize> = (0..msg.entries.len()).collect();
        let packets = pack(&indices, 5, 0);
        for p in &packets {
            let bytes = p.to_bytes(&msg);
            let mut slice = bytes.as_slice();
            let decoded = decode_block(&mut slice).unwrap();
            assert!(slice.is_empty());
            let expected: Vec<_> = p
                .entries
                .iter()
                .map(|&idx| msg.entries[idx].clone())
                .collect();
            assert_eq!(decoded, expected);
        }
    }

    #[test]
    fn packet_bytes_reject_bad_version() {
        let msg = sample_message();
        let p = Packet {
            seq: 0,
            entries: vec![0, 1],
        };
        let mut bytes = p.to_bytes(&msg);
        bytes[0] ^= 0xFF;
        assert!(decode_block(&mut bytes.as_slice()).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        pack(&[0, 1], 0, 0);
    }
}
