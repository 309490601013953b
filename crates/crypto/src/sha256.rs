//! SHA-256 as specified in FIPS 180-4.
//!
//! Provides an incremental [`Sha256`] hasher and a one-shot [`digest`]
//! convenience function. Validated against the standard test vectors
//! (empty message, `"abc"`, and the two-block NIST message).
//!
//! # Compression kernels
//!
//! There are exactly two compression functions: the portable scalar
//! reference, and one built on the x86 SHA extensions
//! (`sha256rnds2`/`sha256msg1`/`sha256msg2`), which runs two rounds
//! per instruction and expands the message schedule in hardware.
//! Which one runs is the one bit [`crate::simd`] reads off the CPU:
//! [`Backend::ShaNi`] when it reports `sha` + `ssse3` + `sse4.1`
//! ([`crate::simd::CpuFeatures::sha_ni`]), [`Backend::Scalar`]
//! otherwise. A hasher asked for `ShaNi`
//! on a CPU without it runs the reference. The two are pinned
//! identical by `tests/simd_equiv.rs`.

use crate::simd::{self, Backend};

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

/// The initial chaining value.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Which compression function a hasher runs.
#[derive(Clone, Copy)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi(x86::ShaNi),
}

impl Kernel {
    fn for_backend(backend: Backend) -> Kernel {
        match backend {
            Backend::Scalar => Kernel::Scalar,
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => x86::ShaNi::detect().map_or(Kernel::Scalar, Kernel::ShaNi),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::ShaNi => Kernel::Scalar,
        }
    }

    /// Folds `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        match self {
            Kernel::Scalar => {
                for block in blocks.chunks_exact(BLOCK_LEN) {
                    compress_scalar(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(sha_ni) => sha_ni.compress(state, blocks),
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use rekey_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let d = h.finalize();
/// assert_eq!(d, rekey_crypto::sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("bytes_absorbed", &self.total_len)
            .finish()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state, on the process-wide SIMD
    /// backend.
    pub fn new() -> Self {
        Self::new_with(simd::active())
    }

    /// Creates a hasher pinned to an explicit backend — entry point
    /// for the equivalence tests and per-backend benches. The digest
    /// is byte-identical for both backends.
    pub fn new_with(backend: Backend) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
            kernel: Kernel::for_backend(backend),
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                self.kernel.compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = data.len() - data.len() % BLOCK_LEN;
        if whole > 0 {
            self.kernel.compress(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80, pad with zeros to 56 mod 64, then the length.
        // `update` never leaves the buffer full, so the 0x80 fits.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            // No room for the length: it goes in a block of its own.
            self.kernel.compress(&mut self.state, &self.buf);
            self.buf = [0u8; BLOCK_LEN];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress(&mut self.state, &self.buf);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        rekey_obs::count(
            match self.kernel {
                Kernel::Scalar => "crypto.sha256_digests.scalar",
                #[cfg(target_arch = "x86_64")]
                Kernel::ShaNi(_) => "crypto.sha256_digests.sha_ni",
            },
            1,
        );
        out
    }
}

/// Scalar reference compression of one 64-byte block.
fn compress_scalar(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The SHA-NI compression function. All `unsafe` of this file lives
/// here, reachable only through [`ShaNi`], a token that cannot be
/// built without the CPU feature check having passed.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::*;

    /// Proof that the running CPU has `sha`, `ssse3` and `sse4.1`.
    /// The private field keeps construction inside [`ShaNi::detect`].
    #[derive(Clone, Copy)]
    pub struct ShaNi(());

    impl ShaNi {
        pub fn detect() -> Option<ShaNi> {
            crate::simd::detect().sha_ni.then_some(ShaNi(()))
        }

        /// Folds `blocks` (whole 64-byte blocks; a trailing partial
        /// block is ignored) into `state`.
        pub fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: a `ShaNi` exists only if `detect` saw `sha_ni`,
            // which `simd::detect` sets from
            // `is_x86_feature_detected!` for exactly the three features
            // `compress_sha_ni` enables (SSE2 is baseline on x86_64).
            unsafe { compress_sha_ni(state, blocks) }
        }
    }

    /// Four rounds: `wk` holds `w[i..i+4] + K[i..i+4]`; each
    /// `sha256rnds2` consumes the low two lanes.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_loadu_si128(K.as_ptr().add(4 * $i) as *const __m128i);
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian word loads as one byte shuffle per 16 bytes.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // The instructions want the state as (ABEF, CDGH), high lane
        // first; memory order is A B C D | E F G H.
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr() as *const __m128i;
            // Unaligned loads: `block` is an arbitrary byte slice.
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be),
            ];
            rounds4!(abef, cdgh, w[0], 0);
            rounds4!(abef, cdgh, w[1], 1);
            rounds4!(abef, cdgh, w[2], 2);
            rounds4!(abef, cdgh, w[3], 3);
            for i in 4..16 {
                // w[i..i+4] = σ₁-fold(msg1(w[i-16..], w[i-12..]) + w[i-7..i-3]).
                let partial = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[0], w[1]),
                    _mm_alignr_epi8(w[3], w[2], 4),
                );
                let next = _mm_sha256msg2_epu32(partial, w[3]);
                w = [w[1], w[2], w[3], next];
                rounds4!(abef, cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(
            state.as_mut_ptr() as *mut __m128i,
            _mm_blend_epi16(feba, dchg, 0xF0),
        );
        _mm_storeu_si128(
            state.as_mut_ptr().add(4) as *mut __m128i,
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// ```
/// let d = rekey_crypto::sha256::digest(b"abc");
/// assert_eq!(d[0], 0xba);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// [`digest`] on an explicit backend (equivalence tests and
/// per-backend benches).
pub fn digest_with(backend: Backend, data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new_with(backend);
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn vector_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn vector_two_blocks() {
        // NIST test vector for the 448-bit message.
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 130] {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), digest(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn length_boundaries() {
        // Exercise padding across the 55/56/63/64-byte boundaries.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), digest(&data), "len {len}");
        }
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Sha256::new()).is_empty());
    }

    /// Both backends — whichever compression kernel `ShaNi` resolves
    /// to on this host — are byte-identical across padding boundaries.
    /// (`tests/simd_equiv.rs` sweeps far wider.)
    #[test]
    fn backends_match_scalar_reference() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
            assert_eq!(
                digest_with(Backend::ShaNi, &data),
                digest_with(Backend::Scalar, &data),
                "len={len}"
            );
        }
    }

    /// The intrinsics are reachable only where the CPU has them: a
    /// hasher asked for `ShaNi` elsewhere runs the reference, and
    /// `Scalar` never leaves it.
    #[test]
    fn sha_ni_kernel_only_where_the_cpu_has_it() {
        assert!(matches!(
            Kernel::for_backend(Backend::Scalar),
            Kernel::Scalar
        ));
        let on_reference = matches!(Kernel::for_backend(Backend::ShaNi), Kernel::Scalar);
        assert_eq!(on_reference, !simd::detect().sha_ni);
    }
}
