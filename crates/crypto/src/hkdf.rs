//! HKDF-SHA256 key derivation as specified in RFC 5869.
//!
//! Used by [`crate::Key::derive`] to give every use of a key other
//! than [`crate::keywrap`] a labelled sub-key of its own.

use crate::hmac::{hmac, HmacSha256};
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: derives a pseudorandom key from input keying material.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac(salt, ikm)
}

/// HKDF-Expand: expands the pseudorandom key `prk` into `out.len()`
/// bytes of output keying material, bound to `info`.
///
/// # Panics
///
/// Panics if `out.len() > 255 * 32` (the RFC 5869 limit).
pub fn expand(prk: &[u8], info: &[u8], out: &mut [u8]) {
    assert!(
        out.len() <= 255 * DIGEST_LEN,
        "HKDF-Expand output too long: {} bytes",
        out.len()
    );
    // T(0) is empty; T(n) = HMAC(prk, T(n-1) || info || n).
    let mut t = [0u8; DIGEST_LEN];
    let mut t_len = 0;
    for (chunk, counter) in out.chunks_mut(DIGEST_LEN).zip(1u8..=255) {
        let mut mac = HmacSha256::new(prk);
        mac.update(&t[..t_len]);
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize();
        t_len = DIGEST_LEN;
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// Convenience: extract-then-expand in one call.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    rekey_obs::count("crypto.hkdf", 1);
    let prk = extract(salt, ikm);
    expand(&prk, info, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_2_multi_block() {
        // 80-byte inputs, L = 82: three Expand blocks chained through
        // T(n-1).
        let ikm: Vec<u8> = (0x00..0x50).collect();
        let salt: Vec<u8> = (0x60..0xb0).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
        );
        let mut okm = [0u8; 82];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_and_info() {
        let prk = extract(b"", &[0x0bu8; 22]);
        assert_eq!(
            hex(&prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
        );
        let mut okm = [0u8; 42];
        expand(&prk, b"", &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_reaches_the_rfc_limit() {
        // 255 blocks: the block counter ends at exactly 0xff.
        let mut okm = vec![0u8; 255 * DIGEST_LEN];
        expand(&extract(b"s", b"k"), b"i", &mut okm);
        assert_eq!(
            hex(&crate::sha256::digest(&okm)),
            "813255b76aa629b61a02f931fad42294020186e8b7fcc89add6e736456703a02"
        );
    }

    #[test]
    fn derive_matches_extract_expand() {
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        derive(b"salt", b"ikm", b"info", &mut a);
        let prk = extract(b"salt", b"ikm");
        expand(&prk, b"info", &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn different_info_different_output() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        derive(b"s", b"k", b"enc", &mut a);
        derive(b"s", b"k", b"mac", &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn multi_block_expansion_is_prefix_consistent() {
        let prk = extract(b"s", b"k");
        let mut long = [0u8; 100];
        let mut short = [0u8; 32];
        expand(&prk, b"i", &mut long);
        expand(&prk, b"i", &mut short);
        assert_eq!(&long[..32], &short[..]);
    }

    #[test]
    #[should_panic(expected = "output too long")]
    fn expand_rejects_oversize() {
        let mut out = vec![0u8; 255 * 32 + 1];
        expand(&[0u8; 32], b"", &mut out);
    }
}
