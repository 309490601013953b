//! The AVX2 lane kernel behind [`crate::keywrap::seal_lanes`]: eight
//! wraps under eight KEKs at once.
//!
//! A group-oriented batch wraps each child key once, so its wraps are
//! independent and all the same length: one ChaCha20 block at counter
//! 1 and Poly1305 over the same number of 16-byte blocks. Eight of
//! them are eight lanes:
//!
//! - **ChaCha20** keeps state word `i` of all eight blocks in one
//!   `ymm` register (32-bit lanes), so a quarter round is the scalar
//!   one on eight blocks; rotations by 16 and 8 are `vpshufb`, by 12
//!   and 7 two shifts and an or. The keys go in, and the blocks come
//!   out, through an 8 × 8 transpose of 32-bit words.
//! - **Poly1305** runs as two groups of four lanes in radix 2²⁶: limb
//!   `j` of four accumulators in one register (64-bit lanes, products
//!   by `vpmuludq`), the two groups interleaved block by block. A
//!   message block of four lanes becomes limbs by 64-bit unpacks and
//!   shifts; the final reduction selects `h` or `h − p` by mask per
//!   lane, as the scalar code does, and the tags come out through the
//!   same unpacks.
//!
//! All `unsafe` of this file lives in the `x86` submodule, reachable
//! only through [`x86::Avx2`], a token that cannot be built without
//! the CPU feature check having passed. `tests/simd_equiv.rs` pins the
//! kernel byte for byte to [`crate::keywrap::WrapKek::seal`].

/// The x86 kernels; see the module docs.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use crate::keywrap::LANES;

    /// Proof that the running CPU has AVX2. The private field keeps
    /// construction inside [`Avx2::detect`].
    #[derive(Clone, Copy)]
    pub struct Avx2(());

    impl Avx2 {
        pub fn detect() -> Option<Avx2> {
            crate::simd::detect().avx2.then_some(Avx2(()))
        }

        /// The ChaCha20 block at `counter` under each lane's key and
        /// nonce.
        pub fn chacha20_blocks(
            self,
            keys: [&[u8; 32]; LANES],
            counter: u32,
            nonces: &[[u8; 12]; LANES],
        ) -> [[u8; 64]; LANES] {
            // SAFETY: an `Avx2` exists only if `detect` saw `avx2`,
            // which `simd::detect` sets from `is_x86_feature_detected!`.
            unsafe { chacha20_blocks(keys, counter, nonces) }
        }

        /// The Poly1305 tag of each lane's message under its one-time
        /// key. A lane's message is the concatenation of its slice in
        /// every part of `parts`; within a part all lanes' slices have
        /// one length, a multiple of 16 (full blocks, each with the
        /// 2¹²⁸ bit).
        pub fn poly1305_tags(
            self,
            keys: &[[u8; 32]; LANES],
            parts: &[[&[u8]; LANES]],
        ) -> [[u8; 16]; LANES] {
            for part in parts {
                let len = part[0].len();
                assert!(len % 16 == 0 && part.iter().all(|lane| lane.len() == len));
            }
            // SAFETY: as in `chacha20_blocks`; within a part every
            // slice is as long as lane 0's, a multiple of 16 (checked).
            unsafe { poly1305_tags(keys, parts) }
        }
    }

    /// Transposes eight rows of eight 32-bit words.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // Columns c | c + 4 of rows 0–3 (u0..u3) and rows 4–7 (u4..u7).
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256(u0, u4, 0x20),
            _mm256_permute2x128_si256(u1, u5, 0x20),
            _mm256_permute2x128_si256(u2, u6, 0x20),
            _mm256_permute2x128_si256(u3, u7, 0x20),
            _mm256_permute2x128_si256(u0, u4, 0x31),
            _mm256_permute2x128_si256(u1, u5, 0x31),
            _mm256_permute2x128_si256(u2, u6, 0x31),
            _mm256_permute2x128_si256(u3, u7, 0x31),
        ]
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn chacha20_blocks(
        keys: [&[u8; 32]; LANES],
        counter: u32,
        nonces: &[[u8; 12]; LANES],
    ) -> [[u8; 64]; LANES] {
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        let nonce_word = |w: usize| {
            let word = |lane: usize| {
                let n: &[u8; 12] = &nonces[lane];
                i32::from_le_bytes([n[4 * w], n[4 * w + 1], n[4 * w + 2], n[4 * w + 3]])
            };
            _mm256_setr_epi32(
                word(0),
                word(1),
                word(2),
                word(3),
                word(4),
                word(5),
                word(6),
                word(7),
            )
        };
        // Row `lane` is that lane's key; the transpose makes word `i`
        // of every key one register.
        let key_words = transpose8(keys.map(|key| {
            // SAFETY: `key` is 32 readable bytes; the load is unaligned.
            unsafe { _mm256_loadu_si256(key.as_ptr().cast()) }
        }));
        let mut init = [_mm256_setzero_si256(); 16];
        for (word, constant) in
            init[..4]
                .iter_mut()
                .zip([0x61707865u32, 0x3320646e, 0x79622d32, 0x6b206574])
        {
            *word = _mm256_set1_epi32(constant as i32);
        }
        init[4..12].copy_from_slice(&key_words);
        init[12] = _mm256_set1_epi32(counter as i32);
        for w in 0..3 {
            init[13 + w] = nonce_word(w);
        }

        let mut x = init;
        macro_rules! quarter_round {
            ($a:expr, $b:expr, $c:expr, $d:expr) => {
                x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot16);
                x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                let t = _mm256_xor_si256(x[$b], x[$c]);
                x[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 12), _mm256_srli_epi32(t, 20));
                x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot8);
                x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                let t = _mm256_xor_si256(x[$b], x[$c]);
                x[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 7), _mm256_srli_epi32(t, 25));
            };
        }
        for _ in 0..10 {
            quarter_round!(0, 4, 8, 12);
            quarter_round!(1, 5, 9, 13);
            quarter_round!(2, 6, 10, 14);
            quarter_round!(3, 7, 11, 15);
            quarter_round!(0, 5, 10, 15);
            quarter_round!(1, 6, 11, 12);
            quarter_round!(2, 7, 8, 13);
            quarter_round!(3, 4, 9, 14);
        }
        for (word, start) in x.iter_mut().zip(init) {
            *word = _mm256_add_epi32(*word, start);
        }

        // Back to one row per lane: words 0–7 of each block, then 8–15.
        let low = transpose8(x[..8].try_into().expect("8 words"));
        let high = transpose8(x[8..].try_into().expect("8 words"));
        let mut out = [[0u8; 64]; LANES];
        for (block, (low, high)) in out.iter_mut().zip(low.into_iter().zip(high)) {
            let p = block.as_mut_ptr();
            // SAFETY: `block` is 64 writable bytes; stores are unaligned.
            unsafe {
                _mm256_storeu_si256(p.cast(), low);
                _mm256_storeu_si256(p.add(32).cast(), high);
            }
        }
        out
    }

    /// Five 26-bit limbs of four lanes, one 64-bit lane each.
    type Limbs = [__m256i; 5];

    /// The 16-byte values at `ptrs` as four lanes of two 64-bit halves
    /// (low, high).
    ///
    /// # Safety
    ///
    /// Each pointer must be valid for 16 bytes of reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4(ptrs: [*const u8; 4]) -> (__m256i, __m256i) {
        // SAFETY: the caller's contract; the loads are unaligned.
        let [l0, l1, l2, l3] = ptrs.map(|p| unsafe { _mm_loadu_si128(p.cast()) });
        let a = _mm256_inserti128_si256(_mm256_castsi128_si256(l0), l2, 1);
        let b = _mm256_inserti128_si256(_mm256_castsi128_si256(l1), l3, 1);
        (_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b))
    }

    /// A 128-bit value per lane (as `load4` returns it) as radix-2²⁶
    /// limbs, with `hibit` or'ed into the top limb.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn limbs(lo: __m256i, hi: __m256i, hibit: __m256i) -> Limbs {
        let mask = _mm256_set1_epi64x((1 << 26) - 1);
        [
            _mm256_and_si256(lo, mask),
            _mm256_and_si256(_mm256_srli_epi64(lo, 26), mask),
            _mm256_and_si256(
                _mm256_or_si256(_mm256_srli_epi64(lo, 52), _mm256_slli_epi64(hi, 12)),
                mask,
            ),
            _mm256_and_si256(_mm256_srli_epi64(hi, 14), mask),
            _mm256_or_si256(_mm256_srli_epi64(hi, 40), hibit),
        ]
    }

    /// One Poly1305 group: four accumulators under four keys.
    struct Poly4 {
        r: Limbs,
        /// `5 · r[1..]`: the wrap-around factors of the product.
        r5: [__m256i; 4],
        pad: Limbs,
        h: Limbs,
    }

    impl Poly4 {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(keys: &[[u8; 32]]) -> Poly4 {
            let ptr = |lane: usize, at: usize| keys[lane][at..].as_ptr();
            // The RFC's clamp of r, on both 64-bit halves.
            let clamp_lo = _mm256_set1_epi64x(0x0fff_fffc_0fff_ffff);
            let clamp_hi = _mm256_set1_epi64x(0x0fff_fffc_0fff_fffc);
            // SAFETY: each key is 32 readable bytes; the loads read 16
            // from offsets 0 and 16.
            let (r_lo, r_hi) = unsafe { load4([ptr(0, 0), ptr(1, 0), ptr(2, 0), ptr(3, 0)]) };
            let (s_lo, s_hi) = unsafe { load4([ptr(0, 16), ptr(1, 16), ptr(2, 16), ptr(3, 16)]) };
            let zero = _mm256_setzero_si256();
            let r = limbs(
                _mm256_and_si256(r_lo, clamp_lo),
                _mm256_and_si256(r_hi, clamp_hi),
                zero,
            );
            let times5 = |v: __m256i| _mm256_add_epi64(v, _mm256_slli_epi64(v, 2));
            Poly4 {
                r5: [times5(r[1]), times5(r[2]), times5(r[3]), times5(r[4])],
                r,
                pad: limbs(s_lo, s_hi, zero),
                h: [zero; 5],
            }
        }

        /// `h = (h + m) · r mod 2¹³⁰ − 5`, partially reduced: every
        /// limb below 2²⁶ but the second, which may exceed it by a
        /// small carry.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn block(&mut self, m: Limbs) {
            let h: Limbs = std::array::from_fn(|j| _mm256_add_epi64(self.h[j], m[j]));
            let [r0, r1, r2, r3, r4] = self.r;
            let [s1, s2, s3, s4] = self.r5;
            let mul = |a, b| _mm256_mul_epu32(a, b);
            let sum = |terms: [__m256i; 5]| {
                let [a, b, c, d, e] = terms;
                _mm256_add_epi64(
                    _mm256_add_epi64(_mm256_add_epi64(a, b), _mm256_add_epi64(c, d)),
                    e,
                )
            };
            let d = [
                sum([
                    mul(h[0], r0),
                    mul(h[1], s4),
                    mul(h[2], s3),
                    mul(h[3], s2),
                    mul(h[4], s1),
                ]),
                sum([
                    mul(h[0], r1),
                    mul(h[1], r0),
                    mul(h[2], s4),
                    mul(h[3], s3),
                    mul(h[4], s2),
                ]),
                sum([
                    mul(h[0], r2),
                    mul(h[1], r1),
                    mul(h[2], r0),
                    mul(h[3], s4),
                    mul(h[4], s3),
                ]),
                sum([
                    mul(h[0], r3),
                    mul(h[1], r2),
                    mul(h[2], r1),
                    mul(h[3], r0),
                    mul(h[4], s4),
                ]),
                sum([
                    mul(h[0], r4),
                    mul(h[1], r3),
                    mul(h[2], r2),
                    mul(h[3], r1),
                    mul(h[4], r0),
                ]),
            ];
            self.h = carry(d);
        }

        /// The four tags: `h` fully reduced mod 2¹³⁰ − 5, plus the pad,
        /// mod 2¹²⁸.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn finish(self, tags: &mut [[u8; 16]]) {
            let mask = _mm256_set1_epi64x((1 << 26) - 1);
            let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.h;
            // Carry fully.
            let mut c = _mm256_srli_epi64(h1, 26);
            h1 = _mm256_and_si256(h1, mask);
            h2 = _mm256_add_epi64(h2, c);
            c = _mm256_srli_epi64(h2, 26);
            h2 = _mm256_and_si256(h2, mask);
            h3 = _mm256_add_epi64(h3, c);
            c = _mm256_srli_epi64(h3, 26);
            h3 = _mm256_and_si256(h3, mask);
            h4 = _mm256_add_epi64(h4, c);
            c = _mm256_srli_epi64(h4, 26);
            h4 = _mm256_and_si256(h4, mask);
            h0 = _mm256_add_epi64(h0, _mm256_add_epi64(c, _mm256_slli_epi64(c, 2)));
            c = _mm256_srli_epi64(h0, 26);
            h0 = _mm256_and_si256(h0, mask);
            h1 = _mm256_add_epi64(h1, c);

            // g = h − p = h + 5 − 2¹³⁰; keep g iff that did not borrow,
            // selected by mask rather than by branch.
            let g0 = _mm256_add_epi64(h0, _mm256_set1_epi64x(5));
            let g1 = _mm256_add_epi64(h1, _mm256_srli_epi64(g0, 26));
            let g2 = _mm256_add_epi64(h2, _mm256_srli_epi64(g1, 26));
            let g3 = _mm256_add_epi64(h3, _mm256_srli_epi64(g2, 26));
            let g4 = _mm256_sub_epi64(
                _mm256_add_epi64(h4, _mm256_srli_epi64(g3, 26)),
                _mm256_set1_epi64x(1 << 26),
            );
            let keep_g = _mm256_sub_epi64(_mm256_srli_epi64(g4, 63), _mm256_set1_epi64x(1));
            let select = |h, g| _mm256_blendv_epi8(h, _mm256_and_si256(g, mask), keep_g);
            let h = [
                select(h0, g0),
                select(h1, g1),
                select(h2, g2),
                select(h3, g3),
                _mm256_blendv_epi8(h4, g4, keep_g),
            ];

            // tag = (h + s) mod 2¹²⁸, carried limb by limb.
            let mut t = [_mm256_setzero_si256(); 5];
            let mut carry = _mm256_setzero_si256();
            for j in 0..5 {
                let v = _mm256_add_epi64(_mm256_add_epi64(h[j], self.pad[j]), carry);
                carry = _mm256_srli_epi64(v, 26);
                t[j] = _mm256_and_si256(v, mask);
            }
            let lo = _mm256_or_si256(
                _mm256_or_si256(t[0], _mm256_slli_epi64(t[1], 26)),
                _mm256_slli_epi64(t[2], 52),
            );
            let hi = _mm256_or_si256(
                _mm256_or_si256(_mm256_srli_epi64(t[2], 12), _mm256_slli_epi64(t[3], 14)),
                _mm256_slli_epi64(t[4], 40),
            );
            // Lanes 0 and 2, then 1 and 3, as (low, high) pairs.
            let even = _mm256_unpacklo_epi64(lo, hi);
            let odd = _mm256_unpackhi_epi64(lo, hi);
            for (lane, v) in [
                (0, _mm256_castsi256_si128(even)),
                (1, _mm256_castsi256_si128(odd)),
                (2, _mm256_extracti128_si256(even, 1)),
                (3, _mm256_extracti128_si256(odd, 1)),
            ] {
                // SAFETY: each tag is 16 writable bytes; unaligned store.
                unsafe { _mm_storeu_si128(tags[lane].as_mut_ptr().cast(), v) };
            }
        }
    }

    /// Products of [`Poly4::block`] back to 26-bit limbs (the second
    /// may carry a few bits more).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn carry(d: Limbs) -> Limbs {
        let mask = _mm256_set1_epi64x((1 << 26) - 1);
        let [d0, mut d1, mut d2, mut d3, mut d4] = d;
        let h0 = _mm256_and_si256(d0, mask);
        d1 = _mm256_add_epi64(d1, _mm256_srli_epi64(d0, 26));
        let h1 = _mm256_and_si256(d1, mask);
        d2 = _mm256_add_epi64(d2, _mm256_srli_epi64(d1, 26));
        let h2 = _mm256_and_si256(d2, mask);
        d3 = _mm256_add_epi64(d3, _mm256_srli_epi64(d2, 26));
        let h3 = _mm256_and_si256(d3, mask);
        d4 = _mm256_add_epi64(d4, _mm256_srli_epi64(d3, 26));
        let h4 = _mm256_and_si256(d4, mask);
        let c = _mm256_srli_epi64(d4, 26);
        let h0 = _mm256_add_epi64(h0, _mm256_add_epi64(c, _mm256_slli_epi64(c, 2)));
        let h1 = _mm256_add_epi64(h1, _mm256_srli_epi64(h0, 26));
        [_mm256_and_si256(h0, mask), h1, h2, h3, h4]
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, and within each part every lane's
    /// slice must have the length of lane 0's, a multiple of 16.
    #[target_feature(enable = "avx2")]
    unsafe fn poly1305_tags(
        keys: &[[u8; 32]; LANES],
        parts: &[[&[u8]; LANES]],
    ) -> [[u8; 16]; LANES] {
        let hibit = _mm256_set1_epi64x(1 << 24);
        let mut groups = [Poly4::new(&keys[..4]), Poly4::new(&keys[4..])];
        for part in parts {
            for at in (0..part[0].len()).step_by(16) {
                for (g, poly) in groups.iter_mut().enumerate() {
                    let lane = |i: usize| part[4 * g + i][at..].as_ptr();
                    // SAFETY: `at + 16 <= len` for every lane (the
                    // caller's contract).
                    let (lo, hi) = unsafe { load4([lane(0), lane(1), lane(2), lane(3)]) };
                    poly.block(limbs(lo, hi, hibit));
                }
            }
        }
        let mut tags = [[0u8; 16]; LANES];
        let [first, second] = groups;
        first.finish(&mut tags[..4]);
        second.finish(&mut tags[4..]);
        tags
    }
}
