//! Property-based tests for the cryptographic primitives.

use proptest::prelude::*;
use rekey_crypto::{chacha20, hkdf, hmac, keywrap, poly1305, sha256, Key};

/// The key wrap spelled out with the one-shot primitives only — one
/// raw ChaCha20 block `B = block(kek, 1, nonce)` and `poly1305::mac`
/// over a hand-built `mac_data` — sharing nothing with `WrapKek`:
/// `ct = payload ⊕ B[0..32]`, `tag = Poly1305(B[32..64], mac_data)`.
fn reference_wrap(
    kek: &[u8; 32],
    payload: &[u8; 32],
    nonce: [u8; 12],
    aad: &[u8],
) -> [u8; keywrap::WRAPPED_LEN] {
    let block = chacha20::block(kek, 1, &nonce);
    let otk: [u8; 32] = block[32..].try_into().unwrap();
    let ciphertext: Vec<u8> = payload.iter().zip(block).map(|(p, k)| p ^ k).collect();
    let mut mac_data = aad.to_vec();
    mac_data.resize(aad.len().next_multiple_of(16), 0);
    mac_data.extend_from_slice(&ciphertext); // 32 bytes: already a multiple of 16
    mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    mac_data.extend_from_slice(&32u64.to_le_bytes());
    let mut out = [0u8; keywrap::WRAPPED_LEN];
    out[..12].copy_from_slice(&nonce);
    out[12..44].copy_from_slice(&ciphertext);
    out[44..].copy_from_slice(&poly1305::mac(&otk, &mac_data));
    out
}

/// Known answers with `kek = bytes(range(32))`, `payload = bytes(0x80 +
/// i ...)`, `nonce = bytes(0xf0 + i ...)`, and `aad` empty or
/// `bytes(range(0x10, 0x10 + 49))`: pins the wrap construction — the
/// bytes every WAL, trace and golden digest in the workspace depends
/// on. The ciphertext is the one Python `cryptography` 48.0.0's
/// `ChaCha20Poly1305(kek).encrypt(nonce, payload, aad)` gives (its
/// RFC 8439 tags were `2b30893d…` and `0bc30ca9…`); the tags are
/// Poly1305 under the block's second half, derived with
/// [`reference_wrap`] and with a separate pure-Python ChaCha20 and
/// Poly1305 that reproduces those RFC 8439 tags.
#[test]
fn keywrap_known_answer() {
    let kek: [u8; 32] = std::array::from_fn(|i| i as u8);
    let payload: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
    let nonce: [u8; 12] = std::array::from_fn(|i| 0xf0 + i as u8);
    let aad49: [u8; 49] = std::array::from_fn(|i| 0x10 + i as u8);
    let ciphertext = "40cdbc45032d5850d77711760ba0b65ea51a3601961675dda51cea9f0101822e";
    let cases: [(&[u8], &str); 2] = [
        (&[], "8b85e3f9cb7c8be32986800948c62909"),
        (&aad49, "5be1dbb01ef34d2b38f39678d7cb0e3f"),
    ];
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let wrap_kek = keywrap::WrapKek::new(&Key::from_bytes(kek));
    for (aad, tag) in cases {
        let expected = format!("f0f1f2f3f4f5f6f7f8f9fafb{ciphertext}{tag}");
        let wrapped = wrap_kek.seal(&Key::from_bytes(payload), nonce, aad);
        assert_eq!(hex(&wrapped.to_bytes()), expected);
        assert_eq!(hex(&reference_wrap(&kek, &payload, nonce, aad)), expected);
    }
    // `wrap_with_nonce` is `seal` with no associated data.
    assert_eq!(
        wrap_kek.wrap_with_nonce(&Key::from_bytes(payload), nonce),
        wrap_kek.seal(&Key::from_bytes(payload), nonce, &[])
    );
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

    /// `WrapKek` is byte-identical to the spelled-out reference
    /// construction for any associated data, and so is the one-shot API
    /// for none; what was sealed with one header opens with no other.
    #[test]
    fn keywrap_matches_reference(kek in any::<[u8; 32]>(),
                                 payload in any::<[u8; 32]>(),
                                 nonce in any::<[u8; 12]>(),
                                 aad in proptest::collection::vec(any::<u8>(), 0..80),
                                 flip in any::<prop::sample::Index>()) {
        let expected = reference_wrap(&kek, &payload, nonce, &aad);
        let bare = reference_wrap(&kek, &payload, nonce, &[]);
        let (kek, payload) = (Key::from_bytes(kek), Key::from_bytes(payload));
        let wrap_kek = keywrap::WrapKek::new(&kek);
        prop_assert_eq!(wrap_kek.seal(&payload, nonce, &aad).to_bytes(), expected);
        prop_assert_eq!(wrap_kek.wrap_with_nonce(&payload, nonce).to_bytes(), bare);
        prop_assert_eq!(keywrap::wrap_with_nonce(&kek, &payload, nonce).to_bytes(), bare);
        let parsed = keywrap::WrappedKey::from_bytes(&expected).unwrap();
        prop_assert_eq!(wrap_kek.open(&parsed, &aad).unwrap(), payload);
        if !aad.is_empty() {
            let mut other = aad.clone();
            other[flip.index(aad.len())] ^= 0x01;
            prop_assert!(wrap_kek.open(&parsed, &other).is_err());
            prop_assert!(wrap_kek.unwrap(&parsed).is_err());
        }
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
