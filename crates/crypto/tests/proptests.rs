//! Property-based tests for the cryptographic primitives.

use proptest::prelude::*;
use rekey_crypto::{chacha20, hkdf, hmac, keywrap, sha256, Key};

/// Key wrap spelled out from its specification with the one-shot
/// primitives only — RFC 5869 extract/expand per sub-key, `hmac()`,
/// raw ChaCha20 — sharing nothing with `WrapKek`'s cached salt
/// schedule, shared PRK or scheduled MAC key. 18 set-up compressions
/// where `WrapKek::new` spends 10; the bytes must not differ.
fn reference_wrap(
    kek: &[u8; 32],
    payload: &[u8; 32],
    nonce: [u8; 12],
) -> [u8; keywrap::WRAPPED_LEN] {
    let subkey = |label: &[u8]| {
        let prk = hkdf::extract(b"rekey-key-derive", kek);
        let mut out = [0u8; 32];
        hkdf::expand(&hmac::HmacKey::new(&prk), label, &mut out);
        out
    };
    let mut ciphertext = *payload;
    chacha20::xor_in_place(&subkey(b"wrap-enc"), &nonce, 1, &mut ciphertext);
    let tag = hmac::hmac(&subkey(b"wrap-mac"), &[&nonce[..], &ciphertext].concat());
    let mut out = [0u8; keywrap::WRAPPED_LEN];
    out[..12].copy_from_slice(&nonce);
    out[12..44].copy_from_slice(&ciphertext);
    out[44..].copy_from_slice(&tag[..keywrap::TAG_LEN]);
    out
}

/// Known answer computed outside this crate (Python `hmac`/`hashlib`
/// plus a from-the-RFC ChaCha20 block): pins the wrap construction,
/// its labels and its salt — the bytes every WAL, trace and golden
/// digest in the workspace depends on.
#[test]
fn keywrap_known_answer() {
    let kek: [u8; 32] = std::array::from_fn(|i| i as u8);
    let payload: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
    let nonce: [u8; 12] = std::array::from_fn(|i| 0xf0 + i as u8);
    let expected = "f0f1f2f3f4f5f6f7f8f9fafb\
                    289682ee26e81bdf8c3e2b7ef6d9f3e78285caa85466b28e0cc25ad356f64689\
                    47144cf2e872472446dd3eaaf51899a4";
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let wrapped = keywrap::WrapKek::new(&Key::from_bytes(kek))
        .wrap_with_nonce(&Key::from_bytes(payload), nonce);
    assert_eq!(hex(&wrapped.to_bytes()), expected);
    assert_eq!(hex(&reference_wrap(&kek, &payload, nonce)), expected);
}

proptest! {
    /// Incremental hashing over arbitrary chunk splits matches the
    /// one-shot digest.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                         split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256::digest(&data));
    }

    /// SHA-256 output differs whenever a single byte is flipped
    /// (collision would be astronomically unlikely; this catches
    /// state-handling bugs such as ignored tail bytes).
    #[test]
    fn sha256_sensitive_to_flips(mut data in proptest::collection::vec(any::<u8>(), 1..512),
                                 idx in any::<prop::sample::Index>()) {
        let original = sha256::digest(&data);
        let i = idx.index(data.len());
        data[i] ^= 0xFF;
        prop_assert_ne!(sha256::digest(&data), original);
    }

    /// HMAC differs under different keys.
    #[test]
    fn hmac_key_separation(key1 in proptest::collection::vec(any::<u8>(), 1..80),
                           key2 in proptest::collection::vec(any::<u8>(), 1..80),
                           msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(key1 != key2);
        prop_assert_ne!(hmac::hmac(&key1, &msg), hmac::hmac(&key2, &msg));
    }

    /// ChaCha20 is an involution under XOR.
    #[test]
    fn chacha20_roundtrip(key in any::<[u8; 32]>(),
                          nonce in any::<[u8; 12]>(),
                          counter in any::<u32>(),
                          data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = data.clone();
        chacha20::xor_in_place(&key, &nonce, counter, &mut buf);
        chacha20::xor_in_place(&key, &nonce, counter, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// HKDF expansion is deterministic and prefix-consistent.
    #[test]
    fn hkdf_prefix_consistency(salt in proptest::collection::vec(any::<u8>(), 0..64),
                               ikm in proptest::collection::vec(any::<u8>(), 1..64),
                               info in proptest::collection::vec(any::<u8>(), 0..64),
                               short_len in 1usize..64,
                               long_len in 64usize..256) {
        let mut long = vec![0u8; long_len];
        let mut short = vec![0u8; short_len];
        hkdf::derive(&salt, &ikm, &info, &mut long);
        hkdf::derive(&salt, &ikm, &info, &mut short);
        prop_assert_eq!(&long[..short_len], &short[..]);
    }

    /// Key wrap always roundtrips under the correct KEK and never
    /// under a different KEK.
    #[test]
    fn keywrap_roundtrip_and_auth(kek_bytes in any::<[u8; 32]>(),
                                  other_bytes in any::<[u8; 32]>(),
                                  payload_bytes in any::<[u8; 32]>(),
                                  nonce in any::<[u8; 12]>()) {
        prop_assume!(kek_bytes != other_bytes);
        let kek = Key::from_bytes(kek_bytes);
        let other = Key::from_bytes(other_bytes);
        let payload = Key::from_bytes(payload_bytes);
        let wrapped = keywrap::wrap_with_nonce(&kek, &payload, nonce);
        prop_assert_eq!(keywrap::unwrap(&kek, &wrapped).unwrap(), payload);
        prop_assert!(keywrap::unwrap(&other, &wrapped).is_err());
    }

    /// The amortized `WrapKek` set-up is byte-identical to the
    /// spelled-out reference construction, and so is the one-shot API.
    #[test]
    fn keywrap_matches_reference(kek in any::<[u8; 32]>(),
                                 payload in any::<[u8; 32]>(),
                                 nonce in any::<[u8; 12]>()) {
        let expected = reference_wrap(&kek, &payload, nonce);
        let (kek, payload) = (Key::from_bytes(kek), Key::from_bytes(payload));
        let cached = keywrap::WrapKek::new(&kek);
        prop_assert_eq!(cached.wrap_with_nonce(&payload, nonce).to_bytes(), expected);
        prop_assert_eq!(keywrap::wrap_with_nonce(&kek, &payload, nonce).to_bytes(), expected);
        let parsed = keywrap::WrappedKey::from_bytes(&expected).unwrap();
        prop_assert_eq!(cached.unwrap(&parsed).unwrap(), payload);
    }

    /// Serialized wrapped keys survive a parse roundtrip.
    #[test]
    fn keywrap_wire_roundtrip(kek in any::<[u8; 32]>(),
                              payload in any::<[u8; 32]>(),
                              nonce in any::<[u8; 12]>()) {
        let wrapped = keywrap::wrap_with_nonce(
            &Key::from_bytes(kek), &Key::from_bytes(payload), nonce);
        let parsed = keywrap::WrappedKey::from_bytes(&wrapped.to_bytes()).unwrap();
        prop_assert_eq!(parsed, wrapped);
    }
}
