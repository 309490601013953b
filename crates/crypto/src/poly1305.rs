//! The Poly1305 one-time authenticator as specified in RFC 8439 §2.5.
//!
//! Validated against the RFC 8439 §2.5.2 and Appendix A.3 vectors
//! (`tests/rfc8439.rs`). Used by [`crate::keywrap`] to tag every wrapped
//! key. The accumulator and `r` are held as three limbs of 44, 44 and
//! 42 bits with `u128` products; there is one implementation, and it
//! has no branch and no index that depends on key or message bytes.
//!
//! A Poly1305 key authenticates **one** message: [`crate::keywrap`]
//! takes a fresh one per (KEK, nonce) from the second half of the
//! ChaCha20 block whose first half encrypts the key.

/// Poly1305 one-time key length in bytes (`r ‖ s`).
pub const KEY_LEN: usize = 32;

/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

use crate::keywrap::LANES;
use crate::simd::LaneKernel;

const BLOCK_LEN: usize = 16;
const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

/// Incremental Poly1305 computation.
///
/// # Example
///
/// ```
/// use rekey_crypto::poly1305::{mac, Poly1305};
///
/// let key = [7u8; 32];
/// let mut poly = Poly1305::new(&key);
/// poly.update(b"split ");
/// poly.update(b"message");
/// assert_eq!(poly.finalize(), mac(&key, b"split message"));
/// ```
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 3],
    h: [u64; 3],
    pad: [u64; 2],
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poly1305").finish_non_exhaustive()
    }
}

impl Poly1305 {
    /// Starts a MAC under the one-time key `r ‖ s` (`r` is clamped as
    /// the RFC prescribes).
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let (t0, t1) = (le64(&key[0..8]), le64(&key[8..16]));
        Poly1305 {
            r: [
                t0 & 0xffc_0fff_ffff,
                ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
                (t1 >> 24) & 0x00f_ffff_fc0f,
            ],
            h: [0; 3],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            buf: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// `h = (h + block + hibit · 2¹²⁸) · r mod 2¹³⁰ − 5`, partially
    /// reduced: the limbs stay within 44/44/42 bits plus a small carry.
    fn block(&mut self, block: &[u8; BLOCK_LEN], hibit: u64) {
        let [r0, r1, r2] = self.r;
        let (s1, s2) = (r1 * 20, r2 * 20);
        let (t0, t1) = (le64(&block[0..8]), le64(&block[8..16]));
        let h0 = self.h[0] + (t0 & MASK44);
        let h1 = self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44);
        let h2 = self.h[2] + (((t1 >> 24) & MASK42) | hibit);

        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let d0 = mul(h0, r0) + mul(h1, s2) + mul(h2, s1);
        let d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s2) + (d0 >> 44);
        let d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0) + (d1 >> 44);

        let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        self.h = [
            h0 & MASK44,
            (d1 as u64 & MASK44) + (h0 >> 44),
            d2 as u64 & MASK42,
        ];
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = data.len().min(BLOCK_LEN - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            let block = self.buf;
            self.block(&block, 1 << 40);
            self.buffered = 0;
        }
        while let Some((block, rest)) = data.split_first_chunk::<BLOCK_LEN>() {
            self.block(block, 1 << 40);
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buffered = data.len();
    }

    /// Completes the MAC and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        rekey_obs::count("crypto.poly1305", 1);
        if self.buffered > 0 {
            // A short last block carries its own 0x01 terminator
            // instead of the 2¹²⁸ bit.
            let mut block = [0u8; BLOCK_LEN];
            block[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            block[self.buffered] = 1;
            self.block(&block, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Carry h fully.
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;

        // g = h − p = h + 5 − 2¹³⁰; keep g iff that did not borrow,
        // selected by mask rather than by branch.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // tag = (h + s) mod 2¹²⁸.
        let [s0, s1] = self.pad;
        h0 += s0 & MASK44;
        h1 += (((s0 >> 44) | (s1 << 20)) & MASK44) + (h0 >> 44);
        h2 += ((s1 >> 24) & MASK42) + (h1 >> 44);
        h0 &= MASK44;
        h1 &= MASK44;
        h2 &= MASK42;

        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }
}

/// One-shot Poly1305 of `message` under the one-time `key`.
pub fn mac(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
    let mut poly = Poly1305::new(key);
    poly.update(message);
    poly.finalize()
}

/// Eight one-shot MACs at once on `kernel`: lane `i` is [`mac`] under
/// `keys[i]` of the concatenation of `parts[0][i]`, `parts[1][i]`, ….
/// Within a part every lane's slice has one length, a multiple of 16
/// (whole blocks: what a key wrap's `mac_data` is). Counted as
/// [`LANES`] tags.
///
/// # Panics
///
/// Panics if a part's slices differ in length or are not whole blocks.
pub fn mac_lanes_with(
    kernel: LaneKernel,
    keys: &[[u8; KEY_LEN]; LANES],
    parts: &[[&[u8]; LANES]],
) -> [[u8; TAG_LEN]; LANES] {
    for part in parts {
        let len = part[0].len();
        assert!(
            len % BLOCK_LEN == 0 && part.iter().all(|lane| lane.len() == len),
            "a lane group MACs whole blocks of one length"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if let (LaneKernel::Avx2, Some(avx2)) = (kernel, crate::lanes::x86::Avx2::detect()) {
        rekey_obs::count("crypto.poly1305", LANES as u64);
        return avx2.poly1305_tags(keys, parts);
    }
    let _ = kernel;
    std::array::from_fn(|i| {
        let mut poly = Poly1305::new(&keys[i]);
        for part in parts {
            poly.update(part[i]);
        }
        poly.finalize()
    })
}
