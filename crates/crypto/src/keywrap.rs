//! Authenticated key wrapping: encrypt one [`Key`] under another.
//!
//! This is the operation a key server performs for every entry of a
//! rekey message: "new key `K_a` encrypted with key `K_b`"
//! (`{K_a}_{K_b}` in the paper's notation). The construction is
//! ChaCha20-Poly1305 keyed by the KEK's own 32 bytes, with the key
//! stream and the one-time Poly1305 key taken from one block:
//!
//! ```text
//! B   = ChaCha20(kek, counter 1, nonce)
//! ct  = payload XOR B[0..32]
//! otk = B[32..64]
//! tag = Poly1305(otk, aad ‖ pad16 ‖ ct ‖ pad16 ‖ le64(|aad|) ‖ le64(|ct|))
//! ```
//!
//! This is RFC 8439 §2.8 `AEAD_CHACHA20_POLY1305` with one change, the
//! one NaCl's `crypto_secretbox` makes: the RFC takes `otk` from block
//! 0 and discards `B[32..64]`, which a 32-byte payload never needs.
//! So `ct` is byte for byte the RFC's, and the tag is not. Nothing is
//! derived from the KEK and nothing is hashed: preparing a [`WrapKek`]
//! is a 32-byte copy, and a wrap is one ChaCha20 block plus Poly1305
//! over the 112-byte padded input of a rekey entry. That is the shape
//! group-oriented rekeying needs — a child key has one parent, so a
//! KEK wraps exactly one entry of a batch and any per-KEK set-up would
//! be paid per entry.
//!
//! # Block counters
//!
//! | counter | use |
//! |---|---|
//! | 0 | none (RFC 8439's `otk`; never computed) |
//! | 1 | a wrap: key stream ‖ `otk` |
//! | 2³² − 1 | the key advance F under [`ADVANCE_LABEL`], and the chain derivation G under [`DERIVE_LABEL`] |
//!
//! Mixing this construction with the RFC's fails closed. An entry of
//! one opened by the other is [`CryptoError::BadTag`], and re-sealing
//! the same payload under the same (KEK, nonce) with both — a data
//! directory written by the RFC construction and replayed by this one
//! — gives the same ciphertext and two tags under independent one-time
//! keys (`B0[0..32]` and `B1[32..64]`), so each one-time key still
//! authenticates a single message.
//!
//! One wrapped key is [`WRAPPED_LEN`] = 60 bytes: the nonce and the
//! [`SEALED_LEN`]-byte sealed part (ciphertext ‖ tag). The rekey-message
//! codec carries the sealed part verbatim and the nonce only where it
//! is not the previous entry's successor ([`next_nonce`]): a key server
//! numbers a batch's wraps from one random start ([`NonceRun`]).
//!
//! # What the tag covers
//!
//! The nonce (it selects `B`), the ciphertext and the caller's
//! associated data. A rekey entry passes its whole header — the 49-byte
//! `RekeyEntry::binding` of `rekey-keytree`: both node ids, both
//! versions, the leaf flag, the recipient, audience and depth — so an
//! entry whose label was altered in transit fails [`WrapKek::open`]
//! with [`CryptoError::BadTag`] instead of installing the right key
//! bytes under the wrong `(node, version)`. [`WrapKek::wrap`] /
//! [`WrapKek::unwrap`] are the same construction with empty associated
//! data; tests and the key-wrap throughput timing use them.
//!
//! # Limits
//!
//! - **Nonce reuse.** Two wraps under one KEK with one nonce expose the
//!   XOR of the two payloads *and* that nonce's one-time Poly1305 key.
//!   It is the same event, with the same 2⁻⁹⁶-per-pair bound, that
//!   [`NonceRun`] already argues about.
//! - **Forgery.** A forged entry is accepted with probability at most
//!   8 · ⌈L/16⌉ · 2⁻¹⁰⁶ per attempt for an L-byte MAC input: 56 · 2⁻¹⁰⁶
//!   ≈ 2⁻¹⁰⁰ for the 112 bytes of a rekey entry. Tags are compared in
//!   constant time, before anything is decrypted.
//! - **Not key-committing.** A sealed key may open under more than one
//!   KEK with attacker-chosen keys; nothing here relies on the
//!   opposite. A member picks the unwrapping key by the authenticated
//!   `(under, under_version)` / `recipient` of the entry, never by
//!   trial decryption.
//! - **Key usage.** A [`Key`]'s raw bytes key this wrap, the key
//!   advance [`advance`] and the chain derivation [`derive()`], and
//!   nothing else; every other use goes through [`Key::derive`] with
//!   its own label (`"net-hello"`).
//!
//! # The key advance
//!
//! [`advance`] is the one-way step `K' = F(K)` a key server uses for a
//! tree key that only joins changed: every holder of `K` computes `K'`
//! itself, so nothing is wrapped. F is one ChaCha20 block under `K` at
//! counter 2³² − 1 and the fixed nonce [`ADVANCE_LABEL`]; bytes 0..32
//! are `K'` and bytes 32..40 a check that a holder compares against the
//! announced one.
//!
//! F never meets a wrap's block. Under whatever nonce it draws, a wrap
//! uses counter 1 and no other; F's counter is 2³² − 1, so its block
//! differs from every wrap block under every nonce, [`ADVANCE_LABEL`]
//! included. F is one-way because ChaCha20 is a PRF in its key: `K'`
//! and the check reveal nothing of `K`.
//!
//! # The chain derivation
//!
//! [`derive()`] is G, the step `K_parent = G(K_child)` a key server uses
//! for a refreshed tree key one of whose children was refreshed in the
//! same batch: every holder of the child's new key computes the
//! parent's, so the wrap of the parent under that child is left out.
//! G is one ChaCha20 block under `K` at F's counter 2³² − 1 and its
//! own nonce [`DERIVE_LABEL`]: bytes 0..32 are the derived key, and
//! bytes 32..64 a Poly1305 one-time key, as in a wrap, whose tag over
//! the record's labels (target, version, source) gives the 8-byte
//! check. So a record altered in any label fails the check for the
//! holder of `K`, where F's record is kept honest by the version its
//! reader must hold. The block differs from every wrap block (at
//! counter 1) and from F's (another nonce) under every key, so `G(K)`,
//! `F(K)` and a wrap under `K` share no key stream, and a holder of `G(K)`
//! learns nothing of `K` or of `F(K)`. G's input is always a key drawn
//! in the batch that derives from it (or G of one): never a leaf, an
//! individual key or a key anyone held before the batch, so each
//! one-time key authenticates one record.

use crate::chacha20;
use crate::poly1305::{self, Poly1305};
use crate::simd::LaneKernel;
use crate::{ct_eq, CryptoError, Key};
use rand::RngCore;

/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = poly1305::TAG_LEN;

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

/// The block counter of a wrap: counter 0 is never computed, and F
/// and G keep to 2³² − 1 (module docs).
const WRAP_COUNTER: u32 = 1;

/// RFC 8439 §2.8's `mac_data` is `aad ‖ pad16 ‖ ct ‖ pad16 ‖
/// le64(|aad|) ‖ le64(|ct|)`: the whole 16-byte blocks of `aad`, then
/// this tail — the rest of `aad` zero-padded to a block, the 32-byte
/// ciphertext (a multiple of 16 already) and the lengths — built on the
/// stack. Returns the tail and its length, 48 or 64 bytes.
fn mac_tail(aad: &[u8], ciphertext: &[u8; 32]) -> ([u8; 64], usize) {
    let rest = &aad[aad.len() / 16 * 16..];
    let mut tail = [0u8; 64];
    let at = rest.len().next_multiple_of(16);
    tail[..rest.len()].copy_from_slice(rest);
    tail[at..at + 32].copy_from_slice(ciphertext);
    tail[at + 32..at + 40].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    tail[at + 40..at + 48].copy_from_slice(&32u64.to_le_bytes());
    (tail, at + 48)
}

/// The tag over `aad` and `ciphertext` under the one-time key `otk`:
/// Poly1305 over `mac_data`, fed as whole blocks only.
fn tag_of(otk: &[u8; poly1305::KEY_LEN], aad: &[u8], ciphertext: &[u8; 32]) -> [u8; TAG_LEN] {
    let (tail, len) = mac_tail(aad, ciphertext);
    let mut mac = Poly1305::new(otk);
    mac.update(&aad[..aad.len() / 16 * 16]);
    mac.update(&tail[..len]);
    mac.finalize()
}

/// A key-encryption key: the 32 bytes that key the wrap.
///
/// Construction derives nothing and hashes nothing, so it costs the
/// same whether a KEK wraps one entry (group-oriented batches: a child
/// has one parent) or a joiner's whole path.
///
/// # Example
///
/// ```
/// use rekey_crypto::{Key, keywrap::WrapKek, CryptoError};
///
/// let kek = WrapKek::new(&Key::from_bytes([7; 32]));
/// let payload = Key::from_bytes([8; 32]);
/// let sealed = kek.seal(&payload, [9; 12], b"node 5, version 2");
/// assert_eq!(kek.open(&sealed, b"node 5, version 2")?, payload);
/// assert_eq!(kek.open(&sealed, b"node 5, version 3"), Err(CryptoError::BadTag));
/// # Ok::<(), CryptoError>(())
/// ```
#[derive(Clone)]
pub struct WrapKek {
    key: [u8; chacha20::KEY_LEN],
}

impl std::fmt::Debug for WrapKek {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WrapKek").finish_non_exhaustive()
    }
}

impl WrapKek {
    /// The wrapping key for `kek`: its raw bytes.
    pub fn new(kek: &Key) -> Self {
        WrapKek {
            key: *kek.as_bytes(),
        }
    }

    /// Encrypts `payload` with a caller-chosen nonce, binding `aad`
    /// into the tag.
    ///
    /// Deterministic; callers must never reuse a nonce with the same
    /// KEK.
    pub fn seal(&self, payload: &Key, nonce: [u8; NONCE_LEN], aad: &[u8]) -> WrappedKey {
        rekey_obs::count("crypto.keywrap.wrap", 1);
        let (stream, otk) = self.block(&nonce);
        let ciphertext = xor32(payload.as_bytes(), &stream);
        WrappedKey {
            nonce,
            ciphertext,
            tag: tag_of(&otk, aad, &ciphertext),
        }
    }

    /// Decrypts a key sealed with the same `aad`: recomputes the tag,
    /// compares it in constant time, and only then decrypts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadTag`] if `wrapped` was not sealed
    /// under this KEK with this `aad` (or was corrupted in transit).
    pub fn open(&self, wrapped: &WrappedKey, aad: &[u8]) -> Result<Key, CryptoError> {
        rekey_obs::count("crypto.keywrap.unwrap", 1);
        let (stream, otk) = self.block(&wrapped.nonce);
        if !ct_eq(&tag_of(&otk, aad, &wrapped.ciphertext), &wrapped.tag) {
            return Err(CryptoError::BadTag);
        }
        Ok(Key::from_bytes(xor32(&wrapped.ciphertext, &stream)))
    }

    /// The one block a wrap under `nonce` uses, split into its key
    /// stream and its one-time Poly1305 key.
    fn block(&self, nonce: &[u8; NONCE_LEN]) -> ([u8; 32], [u8; poly1305::KEY_LEN]) {
        rekey_obs::count("crypto.chacha20_blocks", 1);
        let block = chacha20::block(&self.key, WRAP_COUNTER, nonce);
        let (stream, otk) = block.split_at(32);
        (
            stream.try_into().expect("64-byte block"),
            otk.try_into().expect("64-byte block"),
        )
    }

    /// [`seal`](Self::seal) with a fresh random nonce from `rng` and
    /// no associated data.
    pub fn wrap<R: RngCore>(&self, payload: &Key, rng: &mut R) -> WrappedKey {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.wrap_with_nonce(payload, nonce)
    }

    /// [`seal`](Self::seal) with no associated data.
    pub fn wrap_with_nonce(&self, payload: &Key, nonce: [u8; NONCE_LEN]) -> WrappedKey {
        self.seal(payload, nonce, &[])
    }

    /// [`open`](Self::open) with no associated data.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadTag`] if `wrapped` was not produced
    /// under this KEK (or was corrupted in transit).
    pub fn unwrap(&self, wrapped: &WrappedKey) -> Result<Key, CryptoError> {
        self.open(wrapped, &[])
    }
}

/// Wraps sealed together by [`seal_lanes`]: one lane group.
pub const LANES: usize = 8;

/// Eight [`WrapKek::seal`]s at once: lane `i` seals `payloads[i]` under
/// `keks[i]` with `nonces[i]`, binding `aads[i]`, on the kernel the CPU
/// selects ([`LaneKernel::active`]). Byte for byte the eight scalar
/// seals, and counted as eight wraps, eight ChaCha20 blocks and eight
/// Poly1305 tags.
///
/// Deterministic; callers must never reuse a nonce with the same KEK.
///
/// # Panics
///
/// Panics unless every `aads[i]` has the length of `aads[0]`.
///
/// # Example
///
/// ```
/// use rekey_crypto::{Key, keywrap::{self, WrapKek}};
///
/// let keks: [Key; 8] = std::array::from_fn(|i| Key::from_bytes([i as u8; 32]));
/// let payload = Key::from_bytes([0xAA; 32]);
/// let nonces: [[u8; 12]; 8] = std::array::from_fn(|i| [i as u8 + 1; 12]);
/// let sealed = keywrap::seal_lanes(
///     std::array::from_fn(|i| &keks[i]),
///     [&payload; 8],
///     nonces,
///     [b"header".as_slice(); 8],
/// );
/// for (i, wrapped) in sealed.iter().enumerate() {
///     assert_eq!(*wrapped, WrapKek::new(&keks[i]).seal(&payload, nonces[i], b"header"));
/// }
/// ```
pub fn seal_lanes(
    keks: [&Key; LANES],
    payloads: [&Key; LANES],
    nonces: [[u8; NONCE_LEN]; LANES],
    aads: [&[u8]; LANES],
) -> [WrappedKey; LANES] {
    seal_lanes_with(LaneKernel::active(), keks, payloads, nonces, aads)
}

/// [`seal_lanes`] on an explicit kernel (equivalence tests and the
/// lane bench).
///
/// # Panics
///
/// As [`seal_lanes`].
pub fn seal_lanes_with(
    kernel: LaneKernel,
    keks: [&Key; LANES],
    payloads: [&Key; LANES],
    nonces: [[u8; NONCE_LEN]; LANES],
    aads: [&[u8]; LANES],
) -> [WrappedKey; LANES] {
    let len = aads[0].len();
    assert!(
        aads.iter().all(|aad| aad.len() == len),
        "a lane group binds associated data of one length"
    );
    #[cfg(target_arch = "x86_64")]
    if let (LaneKernel::Avx2, Some(avx2)) = (kernel, crate::lanes::x86::Avx2::detect()) {
        rekey_obs::count("crypto.keywrap.wrap", LANES as u64);
        rekey_obs::count("crypto.chacha20_blocks", LANES as u64);
        let blocks = avx2.chacha20_blocks(keks.map(Key::as_bytes), WRAP_COUNTER, &nonces);
        let ciphertexts: [[u8; 32]; LANES] = std::array::from_fn(|i| {
            xor32(
                payloads[i].as_bytes(),
                blocks[i].first_chunk().expect("64-byte block"),
            )
        });
        let otks = blocks.map(|block| *block.last_chunk().expect("64-byte block"));
        let tails: [([u8; 64], usize); LANES] =
            std::array::from_fn(|i| mac_tail(aads[i], &ciphertexts[i]));
        let tags = poly1305::mac_lanes_with(
            kernel,
            &otks,
            &[
                aads.map(|aad| &aad[..len / 16 * 16]),
                std::array::from_fn(|i| &tails[i].0[..tails[i].1]),
            ],
        );
        return std::array::from_fn(|i| WrappedKey {
            nonce: nonces[i],
            ciphertext: ciphertexts[i],
            tag: tags[i],
        });
    }
    let _ = kernel;
    std::array::from_fn(|i| WrapKek::new(keks[i]).seal(payloads[i], nonces[i], aads[i]))
}

/// The nonce of the key advance: no nonce a wrap draws is special,
/// since F's block counter alone keeps it apart (module docs).
pub const ADVANCE_LABEL: [u8; NONCE_LEN] = *b"lkh+ advance";

/// Length of the check an advance publishes beside its node.
pub const ADVANCE_CHECK_LEN: usize = 8;

/// The block counter of F and G: not the wrap's (module docs); their
/// nonces tell them apart.
const ONE_WAY_COUNTER: u32 = u32::MAX;

/// The key advance F (module docs): the next version of `key` and the
/// check that lets a holder of `key` recognise a genuine announcement.
/// One ChaCha20 block, counted under `crypto.key_advance` and not
/// under `crypto.chacha20_blocks`, which counts wrap blocks.
pub fn advance(key: &Key) -> (Key, [u8; ADVANCE_CHECK_LEN]) {
    rekey_obs::count("crypto.key_advance", 1);
    let block = chacha20::block(key.as_bytes(), ONE_WAY_COUNTER, &ADVANCE_LABEL);
    let (next, rest) = block.split_first_chunk::<32>().expect("64-byte block");
    let check = rest
        .first_chunk::<ADVANCE_CHECK_LEN>()
        .expect("64-byte block");
    (Key::from_bytes(*next), *check)
}

/// [`advance`] as a receiver runs it: the next version of `previous`,
/// if `check` is the one F gives. Compared in constant time.
///
/// # Errors
///
/// [`CryptoError::BadTag`] if `check` is not `previous`'s: the
/// announcement was altered, or `previous` is not the key it advanced.
pub fn open_advance(previous: &Key, check: &[u8; ADVANCE_CHECK_LEN]) -> Result<Key, CryptoError> {
    let (next, expected) = advance(previous);
    if ct_eq(&expected, check) {
        Ok(next)
    } else {
        Err(CryptoError::BadTag)
    }
}

/// The nonce of the chain derivation G: F's counter under another
/// label, so the two never meet (module docs).
pub const DERIVE_LABEL: [u8; NONCE_LEN] = *b"lkh+ chain G";

/// Length of the check a derivation publishes beside its target.
pub const DERIVE_CHECK_LEN: usize = 8;

/// The chain derivation G (module docs): the key derived from `source`
/// and the check that lets a holder of `source` recognise a genuine
/// derivation record whose labels are `aad`. One ChaCha20 block,
/// counted under `crypto.key_derive` and not under
/// `crypto.chacha20_blocks`, which counts wrap blocks; the check is
/// one Poly1305 over `aad`.
pub fn derive(source: &Key, aad: &[u8]) -> (Key, [u8; DERIVE_CHECK_LEN]) {
    rekey_obs::count("crypto.key_derive", 1);
    let block = chacha20::block(source.as_bytes(), ONE_WAY_COUNTER, &DERIVE_LABEL);
    let (derived, otk) = block.split_first_chunk::<32>().expect("64-byte block");
    let otk = otk.try_into().expect("64-byte block");
    let tag = poly1305::mac(otk, aad);
    let check = tag.first_chunk::<DERIVE_CHECK_LEN>().expect("16-byte tag");
    (Key::from_bytes(*derived), *check)
}

/// [`derive()`] as a receiver runs it: the key derived from `source`, if
/// `check` is the one G gives over `aad`. Compared in constant time.
///
/// # Errors
///
/// [`CryptoError::BadTag`] if `check` is not `source`'s over `aad`: the
/// record was altered, or `source` is not the key it was derived from.
pub fn open_derive(
    source: &Key,
    aad: &[u8],
    check: &[u8; DERIVE_CHECK_LEN],
) -> Result<Key, CryptoError> {
    let (derived, expected) = derive(source, aad);
    if ct_eq(&expected, check) {
        Ok(derived)
    } else {
        Err(CryptoError::BadTag)
    }
}

/// `a ⊕ b`.
fn xor32(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    std::array::from_fn(|i| a[i] ^ b[i])
}

/// Encrypts `payload` under `kek` with a fresh random nonce from `rng`.
pub fn wrap<R: RngCore>(kek: &Key, payload: &Key, rng: &mut R) -> WrappedKey {
    WrapKek::new(kek).wrap(payload, rng)
}

/// Encrypts `payload` under `kek` with a caller-chosen nonce.
///
/// Deterministic; callers must never reuse a nonce with the same KEK.
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

    /// F is one block at counter 2³² − 1 under the advance label: the
    /// key is its first 32 bytes, the check the next 8, and it is not
    /// the block a wrap uses (counter 1, any nonce).
    #[test]
    fn advance_is_one_block_no_wrap_uses() {
        let key = Key::from_bytes([0x42; 32]);
        let block = chacha20::block(key.as_bytes(), u32::MAX, &ADVANCE_LABEL);
        let (next, check) = advance(&key);
        assert_eq!(next.as_bytes()[..], block[..32]);
        assert_eq!(check[..], block[32..40]);
        assert_ne!(next, key);
        assert_eq!(advance(&key), (next.clone(), check), "deterministic");
        for counter in [0, 1] {
            assert_ne!(
                chacha20::block(key.as_bytes(), counter, &ADVANCE_LABEL),
                block
            );
        }
        // A wrap under the label as its nonce shares no key stream.
        let payload = Key::from_bytes([7; 32]);
        let wrapped = wrap_with_nonce(&key, &payload, ADVANCE_LABEL);
        let stream = chacha20::block(key.as_bytes(), 1, &ADVANCE_LABEL);
        let ct: Vec<u8> = payload
            .as_bytes()
            .iter()
            .zip(&stream)
            .map(|(p, s)| p ^ s)
            .collect();
        assert_eq!(wrapped.sealed()[..32], ct[..]);
    }

    #[test]
    fn open_advance_checks_the_announcement() {
        let key = Key::from_bytes([3; 32]);
        let (next, check) = advance(&key);
        assert_eq!(open_advance(&key, &check), Ok(next));
        for byte in 0..ADVANCE_CHECK_LEN {
            let mut flipped = check;
            flipped[byte] ^= 0x01;
            assert_eq!(open_advance(&key, &flipped), Err(CryptoError::BadTag));
        }
        let other = Key::from_bytes([4; 32]);
        assert_eq!(open_advance(&other, &check), Err(CryptoError::BadTag));
    }

    /// G is F's counter under its own label: it is neither F nor a
    /// wrap block of the same key, and its check is the block's second
    /// half as a Poly1305 key over the record's labels.
    #[test]
    fn derive_is_one_block_apart_from_f_and_every_wrap() {
        let key = Key::from_bytes([0x24; 32]);
        let block = chacha20::block(key.as_bytes(), u32::MAX, &DERIVE_LABEL);
        let (derived, check) = derive(&key, b"labels");
        assert_eq!(derived.as_bytes()[..], block[..32]);
        let otk = block[32..].try_into().unwrap();
        assert_eq!(check[..], poly1305::mac(otk, b"labels")[..DERIVE_CHECK_LEN]);
        assert_ne!(DERIVE_LABEL, ADVANCE_LABEL);
        assert_ne!(derived, advance(&key).0);
        assert_ne!(derived, key);
        for counter in [0, 1] {
            assert_ne!(
                chacha20::block(key.as_bytes(), counter, &DERIVE_LABEL),
                block
            );
        }
        assert_eq!(open_derive(&key, b"labels", &check), Ok(derived.clone()));
        for byte in 0..DERIVE_CHECK_LEN {
            let mut flipped = check;
            flipped[byte] ^= 0x01;
            assert_eq!(
                open_derive(&key, b"labels", &flipped),
                Err(CryptoError::BadTag)
            );
        }
        assert_eq!(
            open_derive(&key, b"labelz", &check),
            Err(CryptoError::BadTag)
        );
        let other = Key::from_bytes([0x25; 32]);
        assert_eq!(
            open_derive(&other, b"labels", &check),
            Err(CryptoError::BadTag)
        );
        assert_eq!(
            derive(&key, b"other labels").0,
            derived,
            "the key ignores them"
        );
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
