//! Authenticated key wrapping: encrypt one [`Key`] under another.
//!
//! This is the operation a key server performs for every entry of a
//! rekey message: "new key `K_a` encrypted with key `K_b`"
//! (`{K_a}_{K_b}` in the paper's notation). The construction is
//! encrypt-then-MAC:
//!
//! 1. derive independent sub-keys `kek_enc = KEK.derive("wrap-enc")`
//!    and `kek_mac = KEK.derive("wrap-mac")`,
//! 2. encrypt the 32-byte payload key with ChaCha20 under `kek_enc`
//!    and a fresh random 96-bit nonce,
//! 3. tag `nonce || ciphertext` with HMAC-SHA256 under `kek_mac`,
//!    truncated to 128 bits.
//!
//! One wrapped key is [`WRAPPED_LEN`] = 60 bytes: the nonce and the
//! [`SEALED_LEN`]-byte sealed part (ciphertext ‖ tag). The rekey-message
//! codec carries the sealed part verbatim and the nonce only where it
//! is not the previous entry's successor ([`next_nonce`]): a key server
//! numbers a batch's wraps from one random start ([`NonceRun`]).
//!
//! # Batching
//!
//! Step 1 (sub-key derivation: one HKDF extract, two expands) and the
//! HMAC key schedule are pure functions of the KEK alone, and a
//! pure-join batch wraps every key along a joining member's path under
//! that member's *same* individual key. A [`WrapKek`] performs that
//! setup once; `wrap`/`unwrap` through it
//! cost only the per-entry cipher + MAC work. The output is a pure
//! function of (KEK, payload, nonce), so wrapping through a cached
//! [`WrapKek`] is byte-identical to the one-shot free functions.

use crate::chacha20;
use crate::hmac::HmacKey;
use crate::{ct_eq, CryptoError, Key};
use rand::RngCore;

/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// Truncated MAC tag length in bytes.
pub const TAG_LEN: usize = 16;

/// The part of a [`WrappedKey`] behind the nonce: 32-byte ciphertext +
/// tag.
pub const SEALED_LEN: usize = 32 + TAG_LEN;

/// Total serialized size of a [`WrappedKey`]: nonce + sealed part.
pub const WRAPPED_LEN: usize = NONCE_LEN + SEALED_LEN;

/// The nonce after `nonce`, reading it as a 96-bit big-endian integer
/// (2⁹⁶ − 1 wraps to 0).
pub fn next_nonce(nonce: [u8; NONCE_LEN]) -> [u8; NONCE_LEN] {
    let mut wide = [0u8; 16];
    wide[16 - NONCE_LEN..].copy_from_slice(&nonce);
    let next = u128::from_be_bytes(wide).wrapping_add(1).to_be_bytes();
    let mut out = [0u8; NONCE_LEN];
    out.copy_from_slice(&next[16 - NONCE_LEN..]);
    out
}

/// Consecutive nonces from one random start: `start`, `start + 1`, ….
///
/// One batch of wraps takes its nonces from one run, so a KEK that
/// wraps several entries of the batch sees distinct nonces by position,
/// and two runs give the same KEK the same nonce only if
/// `start_a + i = start_b + j` — probability 2⁻⁹⁶ per pair of wraps,
/// the bound of an independent random draw per wrap. Nothing is derived
/// from ids, versions or epochs: an individual key outlives the manager
/// that numbers them.
#[derive(Debug, Clone)]
pub struct NonceRun {
    next: [u8; NONCE_LEN],
}

impl NonceRun {
    /// Draws the start of a run: [`NONCE_LEN`] bytes from `rng`, the
    /// only randomness the run consumes.
    pub fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut next = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut next);
        NonceRun { next }
    }

    /// The next nonce of the run.
    pub fn take(&mut self) -> [u8; NONCE_LEN] {
        let nonce = self.next;
        self.next = next_nonce(nonce);
        nonce
    }
}

/// A key encrypted under a key-encryption key (KEK).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrappedKey {
    nonce: [u8; NONCE_LEN],
    ciphertext: [u8; 32],
    tag: [u8; TAG_LEN],
}

impl WrappedKey {
    /// The nonce this key was wrapped with.
    pub fn nonce(&self) -> [u8; NONCE_LEN] {
        self.nonce
    }

    /// Ciphertext ‖ tag: everything but the nonce.
    pub fn sealed(&self) -> [u8; SEALED_LEN] {
        let mut out = [0u8; SEALED_LEN];
        out[..32].copy_from_slice(&self.ciphertext);
        out[32..].copy_from_slice(&self.tag);
        out
    }

    /// Reassembles a wrapped key from its [`nonce`](Self::nonce) and
    /// [`sealed`](Self::sealed) part.
    pub fn from_parts(nonce: [u8; NONCE_LEN], sealed: &[u8; SEALED_LEN]) -> Self {
        let mut ciphertext = [0u8; 32];
        let mut tag = [0u8; TAG_LEN];
        ciphertext.copy_from_slice(&sealed[..32]);
        tag.copy_from_slice(&sealed[32..]);
        WrappedKey {
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Serializes to the 60-byte wire format: nonce ‖ sealed part.
    pub fn to_bytes(&self) -> [u8; WRAPPED_LEN] {
        let mut out = [0u8; WRAPPED_LEN];
        out[..NONCE_LEN].copy_from_slice(&self.nonce);
        out[NONCE_LEN..].copy_from_slice(&self.sealed());
        out
    }

    /// Parses the 60-byte wire format.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] if `bytes` is not exactly
    /// [`WRAPPED_LEN`] bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (nonce, sealed) = bytes
            .split_first_chunk::<NONCE_LEN>()
            .ok_or(CryptoError::Malformed)?;
        let sealed = sealed.try_into().map_err(|_| CryptoError::Malformed)?;
        Ok(WrappedKey::from_parts(*nonce, sealed))
    }
}

/// A key-encryption key with its wrap setup done: derived encryption
/// sub-key plus a scheduled HMAC key.
///
/// Construction costs one HKDF extract, two expands and the HMAC pad
/// compressions; each subsequent [`wrap`](WrapKek::wrap) /
/// [`unwrap`](WrapKek::unwrap) skips all of it. A member holds one per
/// key on its path; the key server prepares one per wrapping key of a
/// batch (group-oriented batches wrap under each child key exactly
/// once, so there the setup *is* the per-entry cost).
///
/// # Example
///
/// ```
/// use rekey_crypto::{Key, keywrap, keywrap::WrapKek};
///
/// let kek = Key::from_bytes([7; 32]);
/// let payload = Key::from_bytes([8; 32]);
/// let cached = WrapKek::new(&kek);
/// let a = cached.wrap_with_nonce(&payload, [9; 12]);
/// let b = keywrap::wrap_with_nonce(&kek, &payload, [9; 12]);
/// assert_eq!(a, b);
/// ```
#[derive(Clone)]
pub struct WrapKek {
    enc_key: [u8; 32],
    mac: HmacKey,
}

impl std::fmt::Debug for WrapKek {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WrapKek").finish_non_exhaustive()
    }
}

impl WrapKek {
    /// Derives the wrap sub-keys from `kek` and schedules the MAC key.
    ///
    /// Ten SHA-256 compressions: one HKDF-Extract from the cached salt
    /// schedule (2), the PRK's pads (2), a one-block Expand per
    /// sub-key (2 + 2), and the MAC key's pads (2). Deriving the two
    /// sub-keys independently (`kek.derive(..)` twice) gives the same
    /// bytes for 18.
    pub fn new(kek: &Key) -> Self {
        let prk = kek.derivation_prk();
        WrapKek {
            enc_key: *Key::derive_from(&prk, b"wrap-enc").as_bytes(),
            mac: HmacKey::new(Key::derive_from(&prk, b"wrap-mac").as_bytes()),
        }
    }

    fn compute_tag(&self, nonce: &[u8; NONCE_LEN], ct: &[u8; 32]) -> [u8; TAG_LEN] {
        let mut mac = self.mac.mac();
        mac.update(nonce);
        mac.update(ct);
        let full = mac.finalize();
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        tag
    }

    /// Encrypts `payload` with a fresh random nonce from `rng`.
    pub fn wrap<R: RngCore>(&self, payload: &Key, rng: &mut R) -> WrappedKey {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.wrap_with_nonce(payload, nonce)
    }

    /// Encrypts `payload` with a caller-chosen nonce.
    ///
    /// Deterministic; callers must never reuse a nonce with the same
    /// KEK.
    pub fn wrap_with_nonce(&self, payload: &Key, nonce: [u8; NONCE_LEN]) -> WrappedKey {
        rekey_obs::count("crypto.keywrap.wrap", 1);
        let mut ciphertext = *payload.as_bytes();
        chacha20::xor_in_place(&self.enc_key, &nonce, 1, &mut ciphertext);
        let tag = self.compute_tag(&nonce, &ciphertext);
        WrappedKey {
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Decrypts a wrapped key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadTag`] if `wrapped` was not produced
    /// under this KEK (or was corrupted in transit).
    pub fn unwrap(&self, wrapped: &WrappedKey) -> Result<Key, CryptoError> {
        rekey_obs::count("crypto.keywrap.unwrap", 1);
        let expected = self.compute_tag(&wrapped.nonce, &wrapped.ciphertext);
        if !ct_eq(&expected, &wrapped.tag) {
            return Err(CryptoError::BadTag);
        }
        let mut plaintext = wrapped.ciphertext;
        chacha20::xor_in_place(&self.enc_key, &wrapped.nonce, 1, &mut plaintext);
        Ok(Key::from_bytes(plaintext))
    }
}

/// Encrypts `payload` under `kek` with a fresh random nonce from `rng`.
pub fn wrap<R: RngCore>(kek: &Key, payload: &Key, rng: &mut R) -> WrappedKey {
    WrapKek::new(kek).wrap(payload, rng)
}

/// Encrypts `payload` under `kek` with a caller-chosen nonce.
///
/// Deterministic; used by tests and by protocol variants that derive
/// nonces from sequence numbers. Callers must never reuse a nonce with
/// the same KEK. Wrapping many keys under one KEK should go through a
/// cached [`WrapKek`] instead.
pub fn wrap_with_nonce(kek: &Key, payload: &Key, nonce: [u8; NONCE_LEN]) -> WrappedKey {
    WrapKek::new(kek).wrap_with_nonce(payload, nonce)
}

/// Decrypts a wrapped key.
///
/// # Errors
///
/// Returns [`CryptoError::BadTag`] if `wrapped` was not produced under
/// `kek` (or was corrupted in transit). This is what a group member
/// observes when it tries to decrypt a rekey entry that is not
/// addressed to any key it holds.
pub fn unwrap(kek: &Key, wrapped: &WrappedKey) -> Result<Key, CryptoError> {
    WrapKek::new(kek).unwrap(wrapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let mut rng = rng();
        let kek = Key::generate(&mut rng);
        let payload = Key::generate(&mut rng);
        let wrapped = wrap(&kek, &payload, &mut rng);
        assert_eq!(unwrap(&kek, &wrapped).unwrap(), payload);
    }

    #[test]
    fn wrong_kek_fails() {
        let mut rng = rng();
        let kek = Key::generate(&mut rng);
        let other = Key::generate(&mut rng);
        let payload = Key::generate(&mut rng);
        let wrapped = wrap(&kek, &payload, &mut rng);
        assert_eq!(unwrap(&other, &wrapped), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let mut rng = rng();
        let kek = Key::generate(&mut rng);
        let payload = Key::generate(&mut rng);
        let wrapped = wrap(&kek, &payload, &mut rng);
        let mut bytes = wrapped.to_bytes();
        bytes[NONCE_LEN] ^= 0x01;
        let tampered = WrappedKey::from_bytes(&bytes).unwrap();
        assert_eq!(unwrap(&kek, &tampered), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_nonce_fails() {
        let mut rng = rng();
        let kek = Key::generate(&mut rng);
        let payload = Key::generate(&mut rng);
        let wrapped = wrap(&kek, &payload, &mut rng);
        let mut bytes = wrapped.to_bytes();
        bytes[0] ^= 0x80;
        let tampered = WrappedKey::from_bytes(&bytes).unwrap();
        assert_eq!(unwrap(&kek, &tampered), Err(CryptoError::BadTag));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = rng();
        let kek = Key::generate(&mut rng);
        let payload = Key::generate(&mut rng);
        let wrapped = wrap(&kek, &payload, &mut rng);
        let bytes = wrapped.to_bytes();
        assert_eq!(bytes.len(), WRAPPED_LEN);
        assert_eq!(WrappedKey::from_bytes(&bytes).unwrap(), wrapped);
    }

    #[test]
    fn parts_roundtrip_and_match_the_wire_format() {
        let mut rng = rng();
        let wrapped = wrap(&Key::generate(&mut rng), &Key::generate(&mut rng), &mut rng);
        let bytes = wrapped.to_bytes();
        assert_eq!(wrapped.nonce(), bytes[..NONCE_LEN]);
        assert_eq!(wrapped.sealed(), bytes[NONCE_LEN..]);
        assert_eq!(
            WrappedKey::from_parts(wrapped.nonce(), &wrapped.sealed()),
            wrapped
        );
    }

    #[test]
    fn nonce_run_counts_up_from_one_draw_and_wraps() {
        let mut rng = rng();
        let mut expected = [0u8; NONCE_LEN];
        rng.clone().fill_bytes(&mut expected);
        let mut run = NonceRun::draw(&mut rng);
        let first = run.take();
        assert_eq!(first, expected);
        let second = run.take();
        assert_eq!(second, next_nonce(first));
        assert_ne!(second, first);

        let mut carry = [0xFF; NONCE_LEN];
        carry[0] = 0x01;
        let mut after = [0u8; NONCE_LEN];
        after[0] = 0x02;
        assert_eq!(next_nonce(carry), after);
        assert_eq!(next_nonce([0xFF; NONCE_LEN]), [0; NONCE_LEN]);
    }

    #[test]
    fn from_bytes_rejects_bad_length() {
        assert_eq!(
            WrappedKey::from_bytes(&[0u8; WRAPPED_LEN - 1]),
            Err(CryptoError::Malformed)
        );
        assert_eq!(
            WrappedKey::from_bytes(&[0u8; WRAPPED_LEN + 1]),
            Err(CryptoError::Malformed)
        );
    }

    #[test]
    fn deterministic_with_fixed_nonce() {
        let kek = Key::from_bytes([1; 32]);
        let payload = Key::from_bytes([2; 32]);
        let a = wrap_with_nonce(&kek, &payload, [3; NONCE_LEN]);
        let b = wrap_with_nonce(&kek, &payload, [3; NONCE_LEN]);
        assert_eq!(a, b);
        assert_eq!(unwrap(&kek, &a).unwrap(), payload);
    }

    #[test]
    fn cached_kek_matches_oneshot() {
        let kek = Key::from_bytes([5; 32]);
        let payload = Key::from_bytes([6; 32]);
        let cached = WrapKek::new(&kek);
        for nonce_byte in 0..8u8 {
            let nonce = [nonce_byte; NONCE_LEN];
            let via_cache = cached.wrap_with_nonce(&payload, nonce);
            let via_oneshot = wrap_with_nonce(&kek, &payload, nonce);
            assert_eq!(via_cache, via_oneshot);
            assert_eq!(cached.unwrap(&via_oneshot).unwrap(), payload);
            assert_eq!(unwrap(&kek, &via_cache).unwrap(), payload);
        }
    }

    #[test]
    fn cached_kek_rejects_wrong_key() {
        let kek = Key::from_bytes([5; 32]);
        let payload = Key::from_bytes([6; 32]);
        let wrapped = wrap_with_nonce(&kek, &payload, [1; NONCE_LEN]);
        let other = WrapKek::new(&Key::from_bytes([9; 32]));
        assert_eq!(other.unwrap(&wrapped), Err(CryptoError::BadTag));
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let kek = Key::from_bytes([1; 32]);
        let payload = Key::from_bytes([2; 32]);
        let a = wrap_with_nonce(&kek, &payload, [3; NONCE_LEN]);
        let b = wrap_with_nonce(&kek, &payload, [4; NONCE_LEN]);
        assert_ne!(a.to_bytes(), b.to_bytes());
    }
}
