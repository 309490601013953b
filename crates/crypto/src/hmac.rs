//! HMAC-SHA256 as specified in RFC 2104 / FIPS 198-1.
//!
//! Validated against the RFC 4231 test vectors.

use crate::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA256 computation.
///
/// # Example
///
/// ```
/// use rekey_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"message");
/// let tag = mac.finalize();
/// assert_eq!(tag, rekey_crypto::hmac::hmac(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length; keys
    /// longer than the block size are hashed first, per the RFC).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = sha256::digest(key);
            block_key[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut inner = Sha256::new();
        inner.update(&block_key.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&block_key.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        rekey_obs::count("crypto.hmac", 1);
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }

    /// Completes the MAC and checks it against `expected` in constant
    /// time.
    pub fn verify(self, expected: &[u8]) -> bool {
        crate::ct_eq(&self.finalize(), expected)
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // RFC 4231 case 6: 131-byte key of 0xaa.
        let key = [0xaau8; 131];
        let tag = hmac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac(b"key", b"hello world"));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac(b"k", b"m");
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        assert!(mac.verify(&tag));

        let mut bad = tag;
        bad[0] ^= 1;
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        assert!(!mac.verify(&bad));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac(b"k1", b"m"), hmac(b"k2", b"m"));
    }
}
