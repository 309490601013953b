//! Cryptographic primitives for the `rekey` group key management library.
//!
//! Group rekeying protocols based on logical key hierarchies (LKH) are,
//! at the wire level, long sequences of *key encryptions*: "the new key
//! `K_a` encrypted under the old key `K_b`". This crate provides the
//! primitives that make those encryptions real so that the rest of the
//! workspace can verify end-to-end confidentiality properties (forward
//! and backward secrecy) instead of merely counting abstract keys:
//!
//! - [`sha256`] — the SHA-256 hash function,
//! - [`hmac`] — HMAC-SHA256 message authentication,
//! - [`hkdf`] — HKDF-SHA256 key derivation,
//! - [`chacha20`] — the ChaCha20 block function,
//! - [`poly1305`] — the Poly1305 one-time authenticator,
//! - [`keywrap`] — authenticated key wrapping: ChaCha20-Poly1305 in
//!   one block keyed by the wrapping key, with the entry header as
//!   associated data, one at a time or eight at a time under eight
//!   keys ([`keywrap::seal_lanes`]),
//! - [`Key`] — a 256-bit symmetric key with constant-time equality.
//!
//! # Example
//!
//! Wrap a freshly generated group key under a key-encryption key and
//! unwrap it on the receiving side:
//!
//! ```
//! use rekey_crypto::{Key, keywrap};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let kek = Key::generate(&mut rng);
//! let group_key = Key::generate(&mut rng);
//!
//! let wrapped = keywrap::wrap(&kek, &group_key, &mut rng);
//! let unwrapped = keywrap::unwrap(&kek, &wrapped)?;
//! assert_eq!(unwrapped, group_key);
//! # Ok::<(), rekey_crypto::CryptoError>(())
//! ```
//!
//! # Security notes
//!
//! These implementations follow the relevant RFCs and are validated
//! against the RFC test vectors, but they are written for research
//! reproduction: they are not audited and make no claims about
//! side-channel resistance beyond constant-time tag/key comparison.
//! Do not use them to protect real traffic.

// Unsafe is denied crate-wide and allowed back in only inside the
// `x86` intrinsic submodules of `sha256` and `lanes`, whose safety
// arguments live next to the code (see DESIGN.md §3h).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod hkdf;
pub mod hmac;
pub mod keywrap;
mod lanes;
pub mod poly1305;
pub mod sha256;
pub mod simd;

mod key;

pub use key::Key;

use std::error::Error;
use std::fmt;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// An authentication tag did not verify; the ciphertext was not
    /// produced under the presented key or has been tampered with.
    BadTag,
    /// A wrapped-key blob had the wrong length or framing.
    Malformed,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
            CryptoError::Malformed => write!(f, "malformed cryptographic payload"),
        }
    }
}

impl Error for CryptoError {}

/// Compares two byte slices in time independent of their contents.
///
/// Returns `false` immediately only when lengths differ (lengths are
/// public in every use in this crate).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"abc", b"abd"));
    }

    #[test]
    fn ct_eq_unequal_length() {
        assert!(!ct_eq(b"abc", b"ab"));
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!CryptoError::BadTag.to_string().is_empty());
        assert!(!CryptoError::Malformed.to_string().is_empty());
    }
}
