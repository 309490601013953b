//! Property tests for the wire layer under adversarial stream
//! conditions: frames fed one byte at a time, in odd-sized chunks, or
//! truncated anywhere must never panic and must either reassemble the
//! identical payloads or surface a typed error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{Join, Scheme, SchemeConfig};
use rekey_crypto::Key;
use rekey_keytree::message::codec;
use rekey_keytree::MemberId;
use rekey_net::frame::{encode_frame, FrameReader, DEFAULT_MAX_FRAME};
use rekey_net::proto::{self, Frame};

/// Splits `wire` into chunks whose sizes cycle through `pattern`
/// (sizes are 1-based; a pattern of `[0]` degrades to 1-byte reads).
fn feed_in_chunks(reader: &mut FrameReader, wire: &[u8], pattern: &[usize]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut offset = 0;
    let mut i = 0;
    while offset < wire.len() {
        let size = pattern[i % pattern.len()].max(1);
        i += 1;
        let end = (offset + size).min(wire.len());
        reader.push(&wire[offset..end]);
        offset = end;
        while let Some(frame) = reader.next_frame().expect("well-formed stream") {
            out.push(frame);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of frames, split at arbitrary odd-sized read
    /// boundaries, reassembles byte-identically and in order.
    #[test]
    fn split_reads_reassemble_exactly(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..400), 1..6),
        pattern in prop::collection::vec(1usize..13, 1..4),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend(encode_frame(p, DEFAULT_MAX_FRAME).unwrap());
        }
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let got = feed_in_chunks(&mut reader, &wire, &pattern);
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// Truncating the stream anywhere loses at most the final partial
    /// frame — every completed frame is intact, nothing panics, and
    /// the reader just reports "need more bytes".
    #[test]
    fn truncation_never_panics_or_corrupts(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..200), 1..5),
        cut_num in 0u64..1001,
    ) {
        let mut wire = Vec::new();
        let mut boundaries = Vec::new();
        for p in &payloads {
            wire.extend(encode_frame(p, DEFAULT_MAX_FRAME).unwrap());
            boundaries.push(wire.len());
        }
        let cut = (cut_num as usize * wire.len()) / 1000;
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        reader.push(&wire[..cut]);
        let mut got = Vec::new();
        while let Some(frame) = reader.next_frame().expect("prefix of valid stream") {
            got.push(frame);
        }
        let complete = boundaries.iter().filter(|&&b| b <= cut).count();
        prop_assert_eq!(got.len(), complete);
        prop_assert_eq!(&got[..], &payloads[..complete]);
    }

    /// `proto::decode` of arbitrary bytes is total: a frame or a typed
    /// error, never a panic, and every *valid* frame survives a
    /// decode→encode→decode loop unchanged.
    #[test]
    fn arbitrary_payload_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        if let Ok(frame) = proto::decode(&bytes) {
            let rewired = proto::encode(&frame);
            prop_assert_eq!(proto::decode(&rewired).unwrap(), frame);
        }
    }

    /// A real rekey message carried in a `Rekey` frame over a
    /// byte-at-a-time stream decodes to the identical message.
    #[test]
    fn real_rekey_message_survives_one_byte_reads(seed in any::<u64>(), joins in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut manager = Scheme::Tt.build(&SchemeConfig::new());
        let batch: Vec<Join> = (0..joins)
            .map(|i| Join::new(MemberId(i as u64), Key::generate(&mut rng)))
            .collect();
        let out = manager.process_interval(&batch, &[], &mut rng).unwrap();
        let payload = proto::encode(&Frame::Rekey {
            stamp_unix_ns: 1_700_000_000_000_000_000,
            payload: codec::encode_message(&out.message),
        });
        let wire = encode_frame(&payload, DEFAULT_MAX_FRAME).unwrap();

        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let frames = feed_in_chunks(&mut reader, &wire, &[1]);
        prop_assert_eq!(frames.len(), 1);
        match proto::decode(&frames[0]).unwrap() {
            Frame::Rekey { stamp_unix_ns, payload } => {
                prop_assert_eq!(stamp_unix_ns, 1_700_000_000_000_000_000);
                let decoded = codec::decode_message(&payload).expect("codec roundtrip");
                prop_assert_eq!(decoded, out.message);
            }
            other => prop_assert!(false, "expected Rekey frame, got {:?}", other),
        }
    }
}

/// One epoch is one frame (`Rekeyd::publish`), so the largest epochs a
/// paper-scale group produces have to fit the cap: the bootstrap of
/// 65 536 founders and the interval, K later, that migrates all of them
/// S → L. Each builds a tree out of nothing, one wrap per child of every
/// new node but the child it derives from — (N + N/(d−1)) × 57 B ≈ 5.0
/// MB before the chain derivation, where a wrap per joiner per ancestor
/// was ≈ 30 MB and `FrameTooLarge`. The wraps plus derivation records
/// are the wraps the planner before the derivation sent (21 845 and
/// 87 381).
#[test]
fn paper_scale_bootstrap_and_migration_epochs_fit_one_frame() {
    let mut rng = StdRng::seed_from_u64(65_536);
    let founders = |n: u64, rng: &mut StdRng| -> Vec<Join> {
        (0..n)
            .map(|i| Join::new(MemberId(i), Key::generate(rng)))
            .collect()
    };

    let mut small = Scheme::Tt.build(&SchemeConfig::new());
    let batch = founders(16_384, &mut rng);
    let out = small.process_interval(&batch, &[], &mut rng).unwrap();
    assert_eq!(
        out.stats.encrypted_keys + out.message.derivations.len(),
        21_845,
        "a 16 384 bootstrap"
    );

    let mut manager = Scheme::Tt.build(&SchemeConfig::new());
    let batch = founders(65_536, &mut rng);
    let mut out = manager.process_interval(&batch, &[], &mut rng).unwrap();
    while out.stats.migrations == 0 {
        proto::encode_rekey_frame(0, &out.message, DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("epoch {}: {e}", out.message.epoch));
        out = manager.process_interval(&[], &[], &mut rng).unwrap();
    }
    assert_eq!(out.stats.migrations, 65_536);
    assert_eq!(
        out.stats.encrypted_keys + out.message.derivations.len(),
        87_381
    );
    let frame = proto::encode_rekey_frame(0, &out.message, DEFAULT_MAX_FRAME)
        .unwrap_or_else(|e| panic!("the migration epoch: {e}"));
    assert!(frame.len() > 4_000_000, "not a paper-scale epoch");
}
