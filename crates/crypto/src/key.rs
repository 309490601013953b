//! The [`Key`] type: a 256-bit symmetric key.

use crate::hkdf;
use rand::RngCore;
use std::fmt;

/// Length of a [`Key`] in bytes.
pub const KEY_LEN: usize = 32;

/// A 256-bit symmetric key.
///
/// `Key` is the unit of currency of the whole workspace: every node of
/// a logical key tree holds one, every rekey message transports wrapped
/// `Key`s, and the group data-encryption key (DEK) at the tree root is
/// a `Key`.
///
/// Equality is constant-time. The `Debug` implementation shows only a
/// short fingerprint so keys never leak into logs.
///
/// # Example
///
/// ```
/// use rekey_crypto::Key;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let k = Key::generate(&mut rng);
/// assert_eq!(k, Key::from_bytes(*k.as_bytes()));
/// ```
// The manual `PartialEq` is byte equality in constant time, so the
// derived `Hash` agrees with it (k1 == k2 ⇒ hash(k1) == hash(k2)).
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Eq, Hash)]
pub struct Key([u8; KEY_LEN]);

impl Key {
    /// Generates a fresh uniformly random key from `rng`.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        Key(bytes)
    }

    /// Constructs a key from raw bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        Key(bytes)
    }

    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }

    /// Derives a related key bound to `label`, using HKDF-SHA256.
    ///
    /// A key's raw bytes key the [`crate::keywrap`] AEAD and nothing
    /// else; any other use of a key goes through a label of its own
    /// (`"net-hello"` for the session handshake).
    ///
    /// This is `hkdf::derive(b"rekey-key-derive", key, label)`.
    pub fn derive(&self, label: &[u8]) -> Key {
        let mut out = [0u8; KEY_LEN];
        hkdf::derive(b"rekey-key-derive", &self.0, label, &mut out);
        Key(out)
    }

    /// Returns a short (8 hex digit) fingerprint of the key, suitable
    /// for display and diagnostics.
    pub fn fingerprint(&self) -> String {
        let digest = crate::sha256::digest(&self.0);
        digest[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        crate::ct_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({}…)", self.fingerprint())
    }
}

impl From<[u8; KEY_LEN]> for Key {
    fn from(bytes: [u8; KEY_LEN]) -> Self {
        Key(bytes)
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generate_is_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = Key::generate(&mut rng);
        let b = Key::generate(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts_key_material() {
        let k = Key::from_bytes([0xAB; KEY_LEN]);
        let dbg = format!("{k:?}");
        assert!(!dbg.contains("abab"), "raw bytes leaked: {dbg}");
        assert!(dbg.starts_with("Key("));
    }

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let k = Key::from_bytes([7; KEY_LEN]);
        assert_eq!(k.derive(b"enc"), k.derive(b"enc"));
        assert_ne!(k.derive(b"enc"), k.derive(b"mac"));
        assert_ne!(k.derive(b"enc"), k);
    }

    #[test]
    fn derive_is_rfc5869_under_the_fixed_salt() {
        // Known answer: the handshake keys of deployed members hang on
        // the salt and on this being HKDF.
        let derived = Key::from_bytes([7; KEY_LEN]).derive(b"net-hello");
        let hex: String = derived.0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0db141c8c4cd83718a5e1f622172769a2c36b457b3219da9096b44efc6aae1e5"
        );
    }

    #[test]
    fn fingerprint_is_eight_hex_digits() {
        let k = Key::from_bytes([1; KEY_LEN]);
        let fp = k.fingerprint();
        assert_eq!(fp.len(), 8);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
