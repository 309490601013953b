//! Versioned wire codec for rekey messages — the single source of
//! truth for the entry byte layout.
//!
//! Two envelopes wrap sequences of entries, both led by a
//! [`WIRE_VERSION`] byte so the format can evolve without silent
//! misparses (a decoder accepts exactly one version):
//!
//! - **block** (`version ‖ count:u32 ‖ entries`) — a packet-sized
//!   subset of a message's entries, used by
//!   `rekey_transport::packet::Packet::to_bytes`,
//! - **message** (`version ‖ epoch:u64 ‖ count:u32 ‖ entries ‖
//!   advance count:varint ‖ advances ‖ derivation count:varint ‖
//!   derivations`) — a whole [`RekeyMessage`], used on the socket, for
//!   digests, and for replay. A block carries no advances and no
//!   derivations: they travel once per message, with its epoch.
//!
//! Fixed-width integers are big-endian; `varint` is unsigned LEB128 in
//! its shortest form, `svarint` the zigzag of a wrapping `i64`
//! difference.
//!
//! # Entry layout (version 5; entries laid out as in version 2)
//!
//! Entries of a rekey message arrive deepest-target-first, a
//! group-oriented batch wraps each refreshed key under each of its `d`
//! children back to back, node ids of siblings are neighbours, and a
//! key server numbers a batch's nonces consecutively. So within one
//! envelope every entry is written against a running context — the
//! previous entry's target, target version, target depth, `under` and
//! nonce; all zero and "no nonce" before the first entry — and says
//! only what changed:
//!
//! | field | encoding | present | mean bytes¹ |
//! |---|---|---|---|
//! | `flags` | `u8`: `SAME_TARGET` 0x01, `UNDER_IS_LEAF` 0x02, `HAS_RECIPIENT` 0x04, `NONCE_NEXT` 0x08; other bits 0 | always | 1.00 |
//! | `target` | svarint(Δ previous target) | unless `SAME_TARGET` | 0.91² |
//! | `target_version` | varint | unless `SAME_TARGET` | ² |
//! | `target_depth` | varint ≤ `u32::MAX` | unless `SAME_TARGET` | ² |
//! | `under` | svarint(Δ previous `under`) | always | 2.06 |
//! | `under_version` | varint | always | 1.00 |
//! | `recipient` | varint | if `HAS_RECIPIENT` | 1.19 |
//! | `audience` | varint ≤ `u32::MAX` | always | 1.03 |
//! | `nonce` | 12 bytes | unless `NONCE_NEXT` (= previous nonce + 1, 96-bit big-endian) | 0.01³ |
//! | `sealed` | ciphertext ‖ tag as `WrapKek::seal` made them (since version 4: one ChaCha20 block per wrap; 3 and earlier: RFC 8439's two) | always | 48 |
//!
//! ¹ Per key over 79 214 keys of N = 16 384, d = 4, TT-scheme, paper
//! Table-1 churn (the `steady-16k` workload of `benchmark/`), measured
//! at version 4: 7.2 bytes of header per key, 55.2 with the sealed
//! part, against 110 in version 1. Version 5 leaves each chained
//! target's wrap under its source out, so sibling runs are one entry
//! shorter: over the 161 975 keys of the workload's seed-1 exact prefix,
//! 7.6 bytes of header per key and 55.6 with the sealed part (7.2 and
//! 55.2 at version 4 on the same prefix).
//! ² The three target fields together, once per run of ≈ 3.5 entries
//! (≈ 2.8 at version 5).
//! ³ Three explicit nonces per message: the S-tree's batch, the
//! L-tree's batch and the DEK's distribution each start a run.
//!
//! `SAME_TARGET` and `NONCE_NEXT` refer to the previous entry, so a
//! decoder rejects them on the first entry of an envelope. A block of
//! an arbitrary entry subset (WKA-BKR replication, FEC) uses the same
//! coder and simply falls back to explicit targets and nonces where
//! neighbours do not line up. `audience` and `target_depth` are read
//! only by the server-side transport (WKA weights), but they cost one
//! byte each and keeping them means `decode(encode(m)) == m` for every
//! field and one message type, not a second member-facing one.
//!
//! # Advance layout (since version 3)
//!
//! A key that advanced by F ([`KeyAdvance`]) costs a record instead of
//! a wrap. Records follow the entries, in message order, each written
//! against the previous record's node (0 before the first):
//!
//! | field | encoding | mean bytes⁴ |
//! |---|---|---|
//! | `node` | svarint(Δ previous node) | 1.02 |
//! | `version` | varint, ≥ 1 | 1.00 |
//! | `check` | 8 bytes, as F gave them | 8 |
//!
//! ⁴ Over the 34 609 advances of `flash-crowd-12k` (`benchmark/`, seed
//! 1, 100 intervals, TT-scheme): 10.0 bytes per advanced key with the
//! count, against ≈ 55 for the wrap it replaces. The nodes of one tree
//! advance in ascending order, mostly a few ids apart; `steady-16k`,
//! whose few advances per interval are scattered, pays 10.9.
//!
//! The check is the record's authentication: a holder of the node's
//! previous key recomputes it, and a record altered in any field
//! either names a key its reader does not hold at the previous version
//! (and is ignored) or fails the comparison (`BadTag`).
//!
//! # Derivation layout (since version 5)
//!
//! A key derived by G from a child's new key ([`KeyDerivation`])
//! costs a record instead of the wrap under that child. Records follow
//! the advances, ascending by target within each tree, each written
//! against the previous record's target (0 before the first):
//!
//! | field | encoding | mean bytes⁵ |
//! |---|---|---|
//! | `target` | svarint(Δ previous target) | 1.10 |
//! | `version` | varint, ≥ 1 | 1.00 |
//! | `source` | svarint(source − target), ≠ 0 | 2.35 |
//! | `check` | 8 bytes, as G gave them | 8 |
//!
//! ⁵ Over the 31 932 derivations of `steady-16k` (`benchmark/`, seed
//! 1, its 64-interval exact prefix, TT-scheme): 12.4 bytes per derived
//! key with the count, against ≈ 58 for the wrap it replaces. The
//! targets of one tree ascend a few ids apart, like the advances; a
//! source is a child, and a child a split made has a much larger id
//! than its parent, hence the two-byte differences. `small-group-256`,
//! whose few derivations per interval are scattered, pays 14.1.
//!
//! There is no source version: a record fires only when its reader
//! installs the source's new key from the same message. The check is
//! the record's authentication, as for an advance: a record altered in
//! any field names a source its reader did not just install (and is
//! ignored) or fails the comparison (`BadTag`).
//!
//! The entry header is authenticated, but not by this module: the key
//! server seals each entry with [`RekeyEntry::binding`] — the decoded
//! fields at fixed width — as associated data, so the layout above can
//! change without touching what a tag covers. The envelope's `epoch`
//! and count are not authenticated.

use super::{KeyAdvance, KeyDerivation, RekeyEntry, RekeyMessage};
use crate::{MemberId, NodeId};
use rekey_crypto::keywrap::{
    next_nonce, WrappedKey, ADVANCE_CHECK_LEN, DERIVE_CHECK_LEN, NONCE_LEN, SEALED_LEN,
};

/// Format version emitted by every encoder in this module. Decoders
/// reject anything else. 5 adds the derivation section; a version-4
/// reader could not parse it, and without it could not reach the keys
/// the section stands for.
pub const WIRE_VERSION: u8 = 5;

/// Envelope overhead of an entry block: version byte + entry count.
pub const BLOCK_HEADER_LEN: usize = 1 + 4;

/// Envelope overhead of a whole message: version byte + epoch + entry
/// count.
pub const MESSAGE_HEADER_LEN: usize = 1 + 8 + 4;

/// Shortest possible entry: flags, one byte each of `under`,
/// `under_version` and `audience`, and the sealed key. Bounds what a
/// decoder allocates for a claimed entry count.
pub const MIN_ENTRY_LEN: usize = 4 + SEALED_LEN;

/// Shortest possible advance record: a byte each of Δnode and version,
/// and the check.
pub const MIN_ADVANCE_LEN: usize = 2 + ADVANCE_CHECK_LEN;

/// Shortest possible derivation record: a byte each of Δtarget,
/// version and source difference, and the check.
pub const MIN_DERIVATION_LEN: usize = 3 + DERIVE_CHECK_LEN;

/// What an encoder reserves per entry before writing: the common case
/// (a byte or two per header field, an implicit nonce). A buffer that
/// turns out short just grows.
const TYPICAL_ENTRY_LEN: usize = MIN_ENTRY_LEN + 8;

const SAME_TARGET: u8 = 0x01;
const UNDER_IS_LEAF: u8 = 0x02;
const HAS_RECIPIENT: u8 = 0x04;
const NONCE_NEXT: u8 = 0x08;
const KNOWN_FLAGS: u8 = SAME_TARGET | UNDER_IS_LEAF | HAS_RECIPIENT | NONCE_NEXT;

/// Appends a big-endian `u64` (shared by the durable-state codecs).
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Why a decoder refused its input: every byte format of the workspace
/// reads through [`Reader`], and the owner of a blob turns this into
/// its own error once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a field.
    Truncated,
    /// Bytes were left after the value.
    Trailing,
    /// A field holds a value the format does not allow.
    Invalid,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecodeError::Truncated => "truncated",
            DecodeError::Trailing => "trailing bytes",
            DecodeError::Invalid => "invalid field",
        })
    }
}

impl std::error::Error for DecodeError {}

/// `Ok` if `valid`, else [`DecodeError::Invalid`].
#[inline]
pub fn ensure(valid: bool) -> Result<(), DecodeError> {
    valid.then_some(()).ok_or(DecodeError::Invalid)
}

/// A cursor over the bytes of one encoded value: each read takes its
/// field off the front or fails with [`DecodeError::Truncated`], and a
/// count read from the input sizes an allocation only through
/// [`Reader::bounded`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { buf: bytes }
    }

    /// Bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// [`DecodeError::Trailing`] unless every byte has been read: the
    /// end of a value that must fill its input.
    pub fn finish(&self) -> Result<(), DecodeError> {
        self.buf
            .is_empty()
            .then_some(())
            .ok_or(DecodeError::Trailing)
    }

    /// The next `len` bytes.
    #[inline]
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .buf
            .split_at_checked(len)
            .ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], DecodeError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(|&[byte]| byte)
    }

    /// One byte that must equal `expected` (a version or a tag), else
    /// [`DecodeError::Invalid`].
    #[inline]
    pub fn expect(&mut self, expected: u8) -> Result<(), DecodeError> {
        ensure(self.u8()? == expected)
    }

    /// A big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(|bytes| u16::from_be_bytes(*bytes))
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(|bytes| u32::from_be_bytes(*bytes))
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(|bytes| u64::from_be_bytes(*bytes))
    }

    /// An unsigned LEB128 varint. [`DecodeError::Invalid`] for a value
    /// above `u64::MAX` or an over-long form (a trailing zero group):
    /// every value has exactly one encoding.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        // Most header fields are one byte.
        if let Some((&byte, rest)) = self.buf.split_first() {
            if byte < 0x80 {
                self.buf = rest;
                return Ok(u64::from(byte));
            }
        }
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7F);
            ensure(shift < 63 || group <= 1)?;
            v |= group << shift;
            if byte & 0x80 == 0 {
                ensure(byte != 0 || shift == 0)?;
                return Ok(v);
            }
        }
        Err(DecodeError::Invalid)
    }

    /// How many of `count` items, each at least `min_len` bytes, the
    /// unread bytes could hold: all a decoder may reserve for a count
    /// it read from its input. The one place a decoded count meets an
    /// allocation.
    #[inline]
    pub fn bounded(&self, count: u64, min_len: usize) -> usize {
        usize::try_from(count)
            .unwrap_or(usize::MAX)
            .min(self.buf.len() / min_len)
    }

    /// `count` items read by `item`, each at least `min_len` bytes,
    /// into a vector reserved by [`Reader::bounded`].
    #[inline]
    pub fn list<T>(
        &mut self,
        count: u64,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut items = Vec::with_capacity(self.bounded(count, min_len));
        for _ in 0..count {
            items.push(item(self)?);
        }
        Ok(items)
    }
}

/// Where encoded bytes go: a buffer, or a counter for the sizing pass.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes an encoder would write.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Unsigned LEB128. One- and two-byte values — nearly every header
/// field — go out as fixed-size writes; the general loop is the rest.
#[inline]
fn write_varint<S: Sink>(out: &mut S, mut v: u64) {
    if v < 0x80 {
        return out.put(&[v as u8]);
    }
    if v < 0x4000 {
        return out.put(&[v as u8 | 0x80, (v >> 7) as u8]);
    }
    let mut bytes = [0u8; 10];
    let mut len = 0;
    while v >= 0x80 {
        bytes[len] = v as u8 | 0x80;
        v >>= 7;
        len += 1;
    }
    bytes[len] = v as u8;
    out.put(&bytes[..=len]);
}

/// Appends `v` as an unsigned LEB128 varint (1–10 bytes).
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, v: u64) {
    write_varint(buf, v);
}

/// Zigzag of the wrapping difference `to − from`, so that a small step
/// in either direction is a small unsigned number.
#[inline]
fn delta(from: u64, to: u64) -> u64 {
    let d = to.wrapping_sub(from) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`delta`]: the `to` that `zigzag` was computed for.
#[inline]
fn apply_delta(from: u64, zigzag: u64) -> u64 {
    let d = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
    from.wrapping_add(d as u64)
}

/// The running context of one envelope: what the previous entry said,
/// which the next one may refer back to. Encoder and decoder step it
/// identically.
#[derive(Default)]
struct EntryCoder {
    target: u64,
    target_version: u64,
    target_depth: u32,
    under: u64,
    /// `None` before the first entry: nothing to refer back to yet.
    nonce: Option<[u8; NONCE_LEN]>,
}

impl EntryCoder {
    fn encode<S: Sink>(&mut self, entry: &RekeyEntry, out: &mut S) {
        let nonce = entry.wrapped.nonce();
        let same_target = self.nonce.is_some()
            && (entry.target.0, entry.target_version, entry.target_depth)
                == (self.target, self.target_version, self.target_depth);
        let nonce_next = self.nonce.map(next_nonce) == Some(nonce);
        let bit = |set: bool, flag: u8| if set { flag } else { 0 };
        out.put(&[bit(same_target, SAME_TARGET)
            | bit(entry.under_is_leaf, UNDER_IS_LEAF)
            | bit(entry.recipient.is_some(), HAS_RECIPIENT)
            | bit(nonce_next, NONCE_NEXT)]);
        if !same_target {
            write_varint(out, delta(self.target, entry.target.0));
            write_varint(out, entry.target_version);
            write_varint(out, u64::from(entry.target_depth));
        }
        write_varint(out, delta(self.under, entry.under.0));
        write_varint(out, entry.under_version);
        if let Some(recipient) = entry.recipient {
            write_varint(out, recipient.0);
        }
        write_varint(out, u64::from(entry.audience));
        if !nonce_next {
            out.put(&nonce);
        }
        out.put(&entry.wrapped.sealed());
        self.step(entry, nonce);
    }

    fn decode(&mut self, r: &mut Reader<'_>) -> Result<RekeyEntry, DecodeError> {
        let flags = r.u8()?;
        let refers_back = flags & (SAME_TARGET | NONCE_NEXT) != 0;
        ensure(flags & !KNOWN_FLAGS == 0 && !(refers_back && self.nonce.is_none()))?;
        let u32_field = |v: u64| u32::try_from(v).map_err(|_| DecodeError::Invalid);
        let (target, target_version, target_depth) = if flags & SAME_TARGET != 0 {
            (self.target, self.target_version, self.target_depth)
        } else {
            (
                apply_delta(self.target, r.varint()?),
                r.varint()?,
                u32_field(r.varint()?)?,
            )
        };
        let under = apply_delta(self.under, r.varint()?);
        let under_version = r.varint()?;
        let recipient = if flags & HAS_RECIPIENT != 0 {
            Some(MemberId(r.varint()?))
        } else {
            None
        };
        let audience = u32_field(r.varint()?)?;
        let nonce = match self.nonce {
            Some(previous) if flags & NONCE_NEXT != 0 => next_nonce(previous),
            _ => *r.array::<NONCE_LEN>()?,
        };
        let sealed = r.array::<SEALED_LEN>()?;
        let entry = RekeyEntry {
            target: NodeId(target),
            target_version,
            under: NodeId(under),
            under_version,
            under_is_leaf: flags & UNDER_IS_LEAF != 0,
            recipient,
            audience,
            target_depth,
            wrapped: WrappedKey::from_parts(nonce, sealed),
        };
        self.step(&entry, nonce);
        Ok(entry)
    }

    fn step(&mut self, entry: &RekeyEntry, nonce: [u8; NONCE_LEN]) {
        self.target = entry.target.0;
        self.target_version = entry.target_version;
        self.target_depth = entry.target_depth;
        self.under = entry.under.0;
        self.nonce = Some(nonce);
    }
}

fn encode_entries<'a, S: Sink>(entries: impl IntoIterator<Item = &'a RekeyEntry>, out: &mut S) {
    let mut coder = EntryCoder::default();
    for entry in entries {
        coder.encode(entry, out);
    }
}

/// Decodes an entry count and that many entries.
fn decode_entries(r: &mut Reader<'_>) -> Result<Vec<RekeyEntry>, DecodeError> {
    let count = r.u32()?;
    let mut coder = EntryCoder::default();
    r.list(count.into(), MIN_ENTRY_LEN, |r| coder.decode(r))
}

fn encode_advances<S: Sink>(advances: &[KeyAdvance], out: &mut S) {
    write_varint(out, advances.len() as u64);
    let mut node = 0;
    for advance in advances {
        write_varint(out, delta(node, advance.node.0));
        write_varint(out, advance.version);
        out.put(&advance.check);
        node = advance.node.0;
    }
}

/// Decodes the advance section of a message.
fn decode_advances(r: &mut Reader<'_>) -> Result<Vec<KeyAdvance>, DecodeError> {
    let count = r.varint()?;
    let mut node = 0;
    r.list(count, MIN_ADVANCE_LEN, |r| {
        node = apply_delta(node, r.varint()?);
        let version = r.varint()?;
        let check = *r.array()?;
        ensure(version != 0)?; // nothing precedes version 0
        Ok(KeyAdvance {
            node: NodeId(node),
            version,
            check,
        })
    })
}

fn encode_derivations<S: Sink>(derivations: &[KeyDerivation], out: &mut S) {
    write_varint(out, derivations.len() as u64);
    let mut target = 0;
    for derivation in derivations {
        write_varint(out, delta(target, derivation.target.0));
        write_varint(out, derivation.version);
        write_varint(out, delta(derivation.target.0, derivation.source.0));
        out.put(&derivation.check);
        target = derivation.target.0;
    }
}

/// Decodes the derivation section of a message.
fn decode_derivations(r: &mut Reader<'_>) -> Result<Vec<KeyDerivation>, DecodeError> {
    let count = r.varint()?;
    let mut target = 0;
    r.list(count, MIN_DERIVATION_LEN, |r| {
        target = apply_delta(target, r.varint()?);
        let version = r.varint()?;
        let source = apply_delta(target, r.varint()?);
        let check = *r.array()?;
        // A node is derived from a child, into a new version.
        ensure(version != 0 && source != target)?;
        Ok(KeyDerivation {
            target: NodeId(target),
            version,
            source: NodeId(source),
            check,
        })
    })
}

/// Bytes the entry coder writes for `entries`, into a counter.
fn entries_len(entries: &[RekeyEntry]) -> usize {
    let mut count = ByteCount(0);
    encode_entries(entries, &mut count);
    count.0
}

/// Bytes [`encode_message`] writes for `message` behind the envelope
/// head: the same coders run into a counter, no allocation.
pub(super) fn body_len(message: &RekeyMessage) -> usize {
    let mut count = ByteCount(entries_len(&message.entries));
    encode_advances(&message.advances, &mut count);
    encode_derivations(&message.derivations, &mut count);
    count.0
}

/// Serializes a block of entries into `buf`: version byte, entry
/// count, entries.
///
/// # Panics
///
/// Panics if the block holds more than `u32::MAX` entries.
pub fn encode_block<'a, I>(entries: I, buf: &mut Vec<u8>)
where
    I: IntoIterator<Item = &'a RekeyEntry>,
    I::IntoIter: ExactSizeIterator,
{
    let entries = entries.into_iter();
    buf.reserve(BLOCK_HEADER_LEN + entries.len() * TYPICAL_ENTRY_LEN);
    buf.push(WIRE_VERSION);
    put_u32(
        buf,
        u32::try_from(entries.len()).expect("block entry count fits u32"),
    );
    encode_entries(entries, buf);
}

/// Deserializes a block written by [`encode_block`], advancing `buf`
/// past the consumed bytes.
///
/// Returns `None` on a version mismatch, truncation, or a malformed
/// entry.
pub fn decode_block(buf: &mut &[u8]) -> Option<Vec<RekeyEntry>> {
    let mut r = Reader::new(buf);
    r.expect(WIRE_VERSION).ok()?;
    let entries = decode_entries(&mut r).ok()?;
    *buf = r.rest();
    Some(entries)
}

/// Appends a whole message to `buf`: version byte, epoch, entry count,
/// entries, advances, derivations. Lets a caller that frames the message (a length prefix, a
/// type tag) build the frame in one buffer.
///
/// # Panics
///
/// Panics if the message holds more than `u32::MAX` entries.
pub fn encode_message_into(message: &RekeyMessage, buf: &mut Vec<u8>) {
    buf.reserve(
        MESSAGE_HEADER_LEN
            + message.entries.len() * TYPICAL_ENTRY_LEN
            + 1
            + message.advances.len() * (MIN_ADVANCE_LEN + 1)
            + 1
            + message.derivations.len() * (MIN_DERIVATION_LEN + 3),
    );
    buf.push(WIRE_VERSION);
    put_u64(buf, message.epoch);
    put_u32(
        buf,
        u32::try_from(message.entries.len()).expect("message entry count fits u32"),
    );
    encode_entries(&message.entries, buf);
    encode_advances(&message.advances, buf);
    encode_derivations(&message.derivations, buf);
}

/// Serializes a whole message; see [`encode_message_into`].
pub fn encode_message(message: &RekeyMessage) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_message_into(message, &mut buf);
    buf
}

/// The epoch of a message written by [`encode_message`], read from
/// its envelope alone: nothing behind the epoch is looked at. `None`
/// on a version mismatch or an envelope shorter than the epoch.
pub fn message_epoch(bytes: &[u8]) -> Option<u64> {
    let mut r = Reader::new(bytes);
    r.expect(WIRE_VERSION).and_then(|()| r.u64()).ok()
}

/// Deserializes a message written by [`encode_message`].
///
/// Returns `None` on a version mismatch, truncation, trailing bytes,
/// or a malformed entry, advance or derivation.
pub fn decode_message(bytes: &[u8]) -> Option<RekeyMessage> {
    read_message(&mut Reader::new(bytes)).ok()
}

/// [`decode_message`] with the reason it failed.
fn read_message(r: &mut Reader<'_>) -> Result<RekeyMessage, DecodeError> {
    r.expect(WIRE_VERSION)?;
    let message = RekeyMessage {
        epoch: r.u64()?,
        entries: decode_entries(r)?,
        advances: decode_advances(r)?,
        derivations: decode_derivations(r)?,
    };
    r.finish()?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_crypto::{keywrap, Key};

    fn entry(i: u64) -> RekeyEntry {
        let kek = Key::from_bytes([i as u8; 32]);
        let payload = Key::from_bytes([0xA5; 32]);
        RekeyEntry {
            target: NodeId::from_parts(1, i),
            target_version: i * 3,
            under: NodeId::from_parts(2, i + 1),
            under_version: i,
            under_is_leaf: i.is_multiple_of(2),
            recipient: (i.is_multiple_of(3)).then_some(MemberId(i)),
            audience: i as u32 + 1,
            target_depth: i as u32 % 7,
            wrapped: keywrap::wrap_with_nonce(&kek, &payload, [i as u8; 12]),
        }
    }

    /// A group-oriented run as a key server emits it: one target, `d`
    /// sibling children, consecutive nonces.
    fn sibling_run(d: u64) -> Vec<RekeyEntry> {
        let mut nonces = keywrap::NonceRun::draw(&mut rand::rngs::mock::StepRng::new(7, 11));
        (0..d)
            .map(|i| RekeyEntry {
                target: NodeId::from_parts(3, 40),
                target_version: 9,
                under: NodeId::from_parts(3, 161 + i),
                under_version: 2,
                under_is_leaf: false,
                recipient: None,
                audience: 4,
                target_depth: 5,
                wrapped: keywrap::wrap_with_nonce(
                    &Key::from_bytes([i as u8; 32]),
                    &Key::from_bytes([0x5A; 32]),
                    nonces.take(),
                ),
            })
            .collect()
    }

    fn block_of(entries: &[RekeyEntry]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_block(entries, &mut buf);
        buf
    }

    #[test]
    fn entry_roundtrip_and_len() {
        for i in 0..8 {
            let e = entry(i);
            let buf = block_of(std::slice::from_ref(&e));
            assert_eq!(
                buf.len(),
                BLOCK_HEADER_LEN + entries_len(std::slice::from_ref(&e))
            );
            assert!(buf.len() >= BLOCK_HEADER_LEN + MIN_ENTRY_LEN + NONCE_LEN);
            let mut slice = buf.as_slice();
            assert_eq!(decode_block(&mut slice), Some(vec![e]));
            assert!(slice.is_empty());
        }
    }

    fn advance(i: u64) -> KeyAdvance {
        KeyAdvance {
            node: NodeId::from_parts(0, 3 * i + 1),
            version: i + 1,
            check: [i as u8 ^ 0x5C; ADVANCE_CHECK_LEN],
        }
    }

    fn derivation(i: u64) -> KeyDerivation {
        KeyDerivation {
            target: NodeId::from_parts(0, 5 * i + 2),
            version: i + 2,
            source: NodeId::from_parts(0, 5 * i + 3),
            check: [i as u8 ^ 0xA3; DERIVE_CHECK_LEN],
        }
    }

    #[test]
    fn message_roundtrip() {
        let msg = RekeyMessage {
            epoch: 42,
            entries: (0..5).map(entry).collect(),
            advances: (0..3).map(advance).collect(),
            derivations: (0..4).map(derivation).collect(),
        };
        let bytes = encode_message(&msg);
        assert_eq!(bytes.len(), MESSAGE_HEADER_LEN + msg.byte_len());
        assert_eq!(decode_message(&bytes), Some(msg.clone()));
        assert_eq!(message_epoch(&bytes), Some(42));

        let mut framed = vec![0xEE; 3];
        encode_message_into(&msg, &mut framed);
        assert_eq!(framed[..3], [0xEE; 3]);
        assert_eq!(framed[3..], bytes);
    }

    #[test]
    fn block_roundtrip() {
        let entries: Vec<RekeyEntry> = (0..4).map(entry).collect();
        let buf = block_of(&entries);
        let mut slice = buf.as_slice();
        assert_eq!(decode_block(&mut slice), Some(entries));
        assert!(slice.is_empty());
    }

    /// The compression fires: after the first entry of a sibling run,
    /// each entry is flags + Δunder + under_version + audience + the
    /// sealed key — no target, no nonce.
    #[test]
    fn a_sibling_run_costs_four_header_bytes_per_entry() {
        let run = sibling_run(4);
        let first = entries_len(&run[..1]);
        assert_eq!(entries_len(&run), first + 3 * MIN_ENTRY_LEN);
        let bytes = block_of(&run);
        assert_eq!(bytes[BLOCK_HEADER_LEN + first], SAME_TARGET | NONCE_NEXT);
        assert_eq!(decode_block(&mut bytes.as_slice()), Some(run.clone()));

        // Any subset of the run still round-trips: where a neighbour is
        // missing the nonce goes out explicitly.
        let subset = [run[0].clone(), run[2].clone(), run[3].clone()];
        let bytes = block_of(&subset);
        assert_eq!(
            bytes.len(),
            BLOCK_HEADER_LEN + first + 2 * MIN_ENTRY_LEN + NONCE_LEN
        );
        assert_eq!(decode_block(&mut bytes.as_slice()), Some(subset.to_vec()));
    }

    /// An advance record is Δnode, version and the check: 10 bytes when
    /// both varints are one byte, as between neighbouring nodes.
    #[test]
    fn an_advance_costs_its_check_and_two_varints() {
        let mut msg = RekeyMessage::new(9);
        let empty = msg.byte_len();
        assert_eq!(empty, 2, "an empty message carries two zero counts");
        msg.advances = (0..4).map(advance).collect();
        assert_eq!(msg.byte_len(), empty + 4 * MIN_ADVANCE_LEN);
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes), Some(msg.clone()));

        // Version 0 names no previous key: malformed.
        msg.advances = vec![KeyAdvance {
            version: 0,
            ..advance(0)
        }];
        assert_eq!(decode_message(&encode_message(&msg)), None);
    }

    /// A derivation record is Δtarget, version, source difference and
    /// the check: 11 bytes when the three varints are one byte each.
    #[test]
    fn a_derivation_costs_its_check_and_three_varints() {
        let mut msg = RekeyMessage::new(9);
        let empty = msg.byte_len();
        assert_eq!(empty, 2, "an empty message carries two zero counts");
        msg.derivations = (0..4).map(derivation).collect();
        assert_eq!(msg.byte_len(), empty + 4 * MIN_DERIVATION_LEN);
        assert_eq!(decode_message(&encode_message(&msg)), Some(msg.clone()));

        // Version 0, or a node derived from itself: malformed.
        for bad in [
            KeyDerivation {
                version: 0,
                ..derivation(0)
            },
            KeyDerivation {
                source: derivation(0).target,
                ..derivation(0)
            },
        ] {
            msg.derivations = vec![bad];
            assert_eq!(decode_message(&encode_message(&msg)), None);
        }
    }

    /// The envelope's epoch is read without looking past it.
    #[test]
    fn message_epoch_reads_the_envelope_only() {
        let mut bytes = encode_message(&RekeyMessage::new(77));
        bytes.truncate(MESSAGE_HEADER_LEN - 4);
        bytes.extend_from_slice(&[0xFF; 5]);
        assert_eq!(decode_message(&bytes), None);
        assert_eq!(message_epoch(&bytes), Some(77));
        assert_eq!(message_epoch(&bytes[..8]), None);
        bytes[0] = WIRE_VERSION - 1;
        assert_eq!(message_epoch(&bytes), None);
    }

    #[test]
    fn bad_version_rejected() {
        let msg = RekeyMessage {
            epoch: 1,
            entries: vec![entry(0)],
            advances: vec![advance(0)],
            derivations: vec![derivation(0)],
        };
        let block = block_of(&msg.entries);
        // Versions 1 (the fixed-width layout), 2 (no advances), 3
        // (RFC 8439's two-block tags) and 4 (no derivations) have no
        // decoder any more.
        for version in [0, 1, 2, 3, 4, WIRE_VERSION + 1, 0xFF] {
            let mut bytes = encode_message(&msg);
            bytes[0] = version;
            assert_eq!(decode_message(&bytes), None, "message v{version}");
            let mut block = block.clone();
            block[0] = version;
            assert_eq!(
                decode_block(&mut block.as_slice()),
                None,
                "block v{version}"
            );
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let mut entries: Vec<RekeyEntry> = (0..3).map(entry).collect();
        entries.extend(sibling_run(3));
        let msg = RekeyMessage {
            epoch: 7,
            entries,
            advances: (0..2).map(advance).collect(),
            derivations: (0..2).map(derivation).collect(),
        };
        let bytes = encode_message(&msg);
        for cut in 0..bytes.len() {
            assert_eq!(decode_message(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_message(&padded), None);
    }

    #[test]
    fn varints_have_one_encoding() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Ok(v));
            assert!(r.rest().is_empty());
            for cut in 0..buf.len() {
                let truncated = Reader::new(&buf[..cut]).varint();
                assert_eq!(truncated, Err(DecodeError::Truncated), "{v} cut at {cut}");
            }
        }
        let varint = |bytes: &[u8]| Reader::new(bytes).varint();
        // Over-long: a trailing zero group.
        assert_eq!(varint(&[0x80, 0x00]), Err(DecodeError::Invalid));
        assert_eq!(varint(&[0xFF, 0x80, 0x00]), Err(DecodeError::Invalid));
        // Overflow: bit 64 set, and an eleventh byte.
        let mut over = [0xFF; 10];
        over[9] = 0x02;
        assert_eq!(varint(&over), Err(DecodeError::Invalid));
        assert_eq!(varint(&[0x80; 11]), Err(DecodeError::Invalid));
        // Deltas wrap both ways.
        for (from, to) in [(0, u64::MAX), (u64::MAX, 0), (5, 3), (1 << 63, 0), (9, 9)] {
            assert_eq!(apply_delta(from, delta(from, to)), to);
        }
        assert_eq!((delta(7, 8), delta(8, 7)), (2, 1));
    }

    /// Hand-assembles one block entry so each malformed header can be
    /// told apart from a well-formed one.
    fn raw_block(count: u32, flags: u8, fields: &[u64], tail_len: usize) -> Vec<u8> {
        let mut buf = vec![WIRE_VERSION];
        put_u32(&mut buf, count);
        buf.push(flags);
        for &field in fields {
            put_varint(&mut buf, field);
        }
        buf.extend(std::iter::repeat_n(0xC3, tail_len));
        buf
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let tail = NONCE_LEN + SEALED_LEN;
        let decodes = |bytes: Vec<u8>| decode_block(&mut bytes.as_slice()).is_some();
        // target Δ, target_version, target_depth, under Δ, under_version, audience.
        assert!(decodes(raw_block(1, 0, &[2, 1, 3, 4, 0, 9], tail)));
        assert!(decodes(raw_block(
            1,
            UNDER_IS_LEAF | HAS_RECIPIENT,
            &[2, 1, 3, 4, 0, 77, 1],
            tail
        )));
        // Reserved flag bits.
        for bit in [0x10, 0x20, 0x40, 0x80] {
            assert!(!decodes(raw_block(1, bit, &[2, 1, 3, 4, 0, 9], tail)));
        }
        // Nothing to refer back to on a first entry.
        assert!(!decodes(raw_block(1, SAME_TARGET, &[4, 0, 9], tail)));
        assert!(!decodes(raw_block(
            1,
            NONCE_NEXT,
            &[2, 1, 3, 4, 0, 9],
            SEALED_LEN
        )));
        // Depth and audience are u32 on the far side.
        let big = u64::from(u32::MAX) + 1;
        assert!(decodes(raw_block(
            1,
            0,
            &[2, 1, big - 1, 4, 0, big - 1],
            tail
        )));
        assert!(!decodes(raw_block(1, 0, &[2, 1, big, 4, 0, 9], tail)));
        assert!(!decodes(raw_block(1, 0, &[2, 1, 3, 4, 0, big], tail)));
        // A count the bytes cannot hold allocates for what they can.
        let huge = raw_block(u32::MAX, 0, &[2, 1, 3, 4, 0, 9], tail);
        assert!(!decodes(huge));
    }
}
