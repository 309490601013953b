//! The ChaCha20 block function as specified in RFC 8439 §2.3.
//!
//! Validated against the RFC 8439 block-function and encryption test
//! vectors. Its callers never need a run of blocks: a wrapped key
//! ([`crate::keywrap`]) is one block at counter 1 under its own nonce —
//! 32 bytes of key stream, then the one-time Poly1305 key — and the
//! key advance is one block at counter 2³² − 1. So the block is the
//! whole interface, and a stream is left to the tests.

/// ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;

/// ChaCha20 nonce length in bytes (the RFC 8439 96-bit nonce).
pub const NONCE_LEN: usize = 12;

const BLOCK_LEN: usize = 64;
const CONSTANTS: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// Assembles the 16-word initial state for block `counter`.
fn state_words(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    state
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 keystream block for the given key,
/// block counter, and nonce.
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let state = state_words(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 8439 §2.4 encryption spelled out from [`block`]: `data` XOR
    /// the key stream from block `counter` on (the counter wraps at
    /// `u32::MAX`).
    fn encrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &[u8]) -> Vec<u8> {
        let stream = (counter..=u32::MAX)
            .chain(0..)
            .flat_map(|c| block(key, c, nonce));
        data.iter().zip(stream).map(|(d, k)| d ^ k).collect()
    }

    fn test_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    #[test]
    fn rfc8439_block_function() {
        // RFC 8439 section 2.3.2.
        let key = test_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let ks = block(&key, 1, &nonce);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption() {
        // RFC 8439 section 2.4.2.
        let key = test_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext: &[u8] = b"Ladies and Gentlemen of the class of '99: \
If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&key, &nonce, 1, plaintext);
        assert_eq!(plaintext.len(), 114);
        assert_eq!(
            hex(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
        // Decryption restores the plaintext.
        assert_eq!(encrypt(&key, &nonce, 1, &ct), plaintext);
    }

    #[test]
    fn roundtrip() {
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        let data: Vec<u8> = (0..300).map(|i| (i * 7) as u8).collect();
        let once = encrypt(&key, &nonce, 0, &data);
        assert_ne!(once, data);
        assert_eq!(encrypt(&key, &nonce, 0, &once), data);
    }

    #[test]
    fn counter_continuity() {
        // Encrypting 128 bytes at counter 0 equals encrypting two
        // 64-byte halves at counters 0 and 1.
        let key = test_key();
        let nonce = [3u8; NONCE_LEN];
        let data = [0x55u8; 128];
        let whole = encrypt(&key, &nonce, 0, &data);
        let first = encrypt(&key, &nonce, 0, &data[..64]);
        let second = encrypt(&key, &nonce, 1, &data[64..]);
        assert_eq!(&whole[..64], &first[..]);
        assert_eq!(&whole[64..], &second[..]);
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = test_key();
        let a = encrypt(&key, &[0u8; NONCE_LEN], 0, &[0u8; 64]);
        let b = encrypt(&key, &[1u8; NONCE_LEN], 0, &[0u8; 64]);
        assert_ne!(a, b);
    }

    /// The block counter is a `u32` that wraps: three blocks starting
    /// at `u32::MAX` are the blocks at `MAX`, `0` and `1`.
    #[test]
    fn counter_wraps_at_u32_max() {
        let key = test_key();
        let nonce = [0x42u8; NONCE_LEN];
        let data: Vec<u8> = (0..3 * BLOCK_LEN).map(|i| (i * 31 + 7) as u8).collect();
        let whole = encrypt(&key, &nonce, u32::MAX, &data);
        for (i, counter) in [u32::MAX, 0, 1].into_iter().enumerate() {
            let span = i * BLOCK_LEN..(i + 1) * BLOCK_LEN;
            assert_eq!(
                whole[span.clone()],
                encrypt(&key, &nonce, counter, &data[span])[..],
                "block {i} (counter {counter})"
            );
        }
    }
}
