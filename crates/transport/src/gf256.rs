//! Arithmetic in GF(2⁸) with the reduction polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11d, the one conventionally used for
//! Reed–Solomon codes) and primitive element 2.
//!
//! Substrate for the Reed–Solomon erasure codes used by the
//! proactive-FEC rekey transport ([`crate::rs`]).
//!
//! # Bulk routines
//!
//! The RS hot loops ([`mul_acc`], [`scale`]) walk the 256-byte product
//! row of the constant, eight branch-free table loads per pass. That is
//! the only implementation: no rekey interval runs Reed–Solomon coding
//! (DESIGN §3h records the measurement and the condition under which a
//! vector kernel would return — behind these two functions, in this
//! file).

/// The reduction polynomial (without the x⁸ term).
const POLY: u16 = 0x11d;

/// Log/antilog tables for fast multiplication.
#[derive(Debug)]
struct Tables {
    log: [u8; 256],
    exp: [u8; 512],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        #[allow(clippy::needless_range_loop)]
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { log, exp }
    })
}

/// Full 256×256 product table (64 KiB): row `c` maps `s → c·s`.
/// Turning the log/exp/zero-check dance of a scalar multiply into a
/// single indexed load is what makes the bulk routines below
/// branch-free.
fn mul_table() -> &'static [[u8; 256]; 256] {
    use std::sync::OnceLock;
    static MUL: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();
    MUL.get_or_init(|| {
        let mut table = vec![[0u8; 256]; 256];
        for (c, row) in table.iter_mut().enumerate() {
            for (s, out) in row.iter_mut().enumerate() {
                *out = mul(c as u8, s as u8);
            }
        }
        table
            .into_boxed_slice()
            .try_into()
            .expect("table has exactly 256 rows")
    })
}

/// The multiplication-by-`c` row of the product table: `row[s] = c·s`.
#[inline]
pub fn mul_row(c: u8) -> &'static [u8; 256] {
    &mul_table()[c as usize]
}

/// Addition in GF(256) (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication in GF(256).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on `a == 0` (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(256)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Division: `a / b`.
///
/// # Panics
///
/// Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Exponentiation of the generator: `2^e`.
#[inline]
pub fn exp2(e: usize) -> u8 {
    tables().exp[e % 255]
}

/// `dst[i] ^= src[i]` with 8-byte word passes.
fn xor_acc_wide(dst: &mut [u8], src: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (d8, s8) in (&mut d).zip(&mut s) {
        let word = u64::from_ne_bytes(d8.try_into().expect("chunk of 8"))
            ^ u64::from_ne_bytes(s8.try_into().expect("chunk of 8"));
        d8.copy_from_slice(&word.to_ne_bytes());
    }
    for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d1 ^= s1;
    }
}

/// General path of [`mul_acc`]: eight branch-free table loads per
/// pass. Compared to the log/exp formulation this removes the per-byte
/// zero check and the two dependent lookups from the hot loop.
fn mul_acc_row(dst: &mut [u8], src: &[u8], row: &[u8; 256]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (d8, s8) in (&mut d).zip(&mut s) {
        d8[0] ^= row[s8[0] as usize];
        d8[1] ^= row[s8[1] as usize];
        d8[2] ^= row[s8[2] as usize];
        d8[3] ^= row[s8[3] as usize];
        d8[4] ^= row[s8[4] as usize];
        d8[5] ^= row[s8[5] as usize];
        d8[6] ^= row[s8[6] as usize];
        d8[7] ^= row[s8[7] as usize];
    }
    for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d1 ^= row[*s1 as usize];
    }
}

/// General path of [`scale`].
fn scale_row(dst: &mut [u8], row: &[u8; 256]) {
    let mut d = dst.chunks_exact_mut(8);
    for d8 in &mut d {
        d8[0] = row[d8[0] as usize];
        d8[1] = row[d8[1] as usize];
        d8[2] = row[d8[2] as usize];
        d8[3] = row[d8[3] as usize];
        d8[4] = row[d8[4] as usize];
        d8[5] = row[d8[5] as usize];
        d8[6] = row[d8[6] as usize];
        d8[7] = row[d8[7] as usize];
    }
    for d1 in d.into_remainder() {
        *d1 = row[*d1 as usize];
    }
}

/// `dst[i] ^= c * src[i]` — the inner loop of RS encoding/decoding.
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    debug_assert_eq!(dst.len(), src.len());
    match c {
        0 => {}
        1 => xor_acc_wide(dst, src),
        _ => {
            mul_acc_row(dst, src, mul_row(c));
            rekey_obs::count("transport.gf256_bytes", dst.len() as u64);
        }
    }
}

/// `dst[i] = c * dst[i]` in place — the row-normalization step of RS
/// decoding.
pub fn scale(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => {
            scale_row(dst, mul_row(c));
            rekey_obs::count("transport.gf256_bytes", dst.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_commutative_and_associative() {
        for &(a, b, c) in &[(3u8, 7u8, 11u8), (0x53, 0xca, 0x02), (255, 254, 253)] {
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }
    }

    #[test]
    fn distributive_over_add() {
        for a in [1u8, 2, 87, 255] {
            for b in [3u8, 91, 200] {
                for c in [5u8, 127] {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
        }
    }

    /// Schoolbook carry-less multiply + reduction by 0x11d.
    fn mul_slow(a: u8, b: u8) -> u8 {
        let (mut a, mut acc) = (a as u16, 0u16);
        let mut b = b;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= POLY;
            }
            b >>= 1;
        }
        acc as u8
    }

    #[test]
    fn table_mul_matches_schoolbook() {
        for a in (0..=255u8).step_by(7) {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_slow(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // 2 generates the multiplicative group: 2^255 = 1, and no
        // smaller positive power is 1.
        let mut x = 1u8;
        for i in 1..=255 {
            x = mul(x, 2);
            if i < 255 {
                assert_ne!(x, 1, "generator order divides {i}");
            }
        }
        assert_eq!(x, 1);
    }

    #[test]
    fn mul_acc_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 77, 255] {
            let mut fast = vec![0xAA; 256];
            let mut slow = vec![0xAA; 256];
            mul_acc(&mut fast, &src, c);
            for (d, s) in slow.iter_mut().zip(&src) {
                *d ^= mul(c, *s);
            }
            assert_eq!(fast, slow, "c = {c}");
        }
    }

    #[test]
    fn mul_acc_handles_non_multiple_of_eight_lengths() {
        // Exercise the remainder path of the 8-wide loop.
        for len in [0usize, 1, 7, 8, 9, 13, 63, 257] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            for c in [0u8, 1, 29, 255] {
                let mut fast = vec![0x5C; len];
                let mut slow = fast.clone();
                mul_acc(&mut fast, &src, c);
                for (d, s) in slow.iter_mut().zip(&src) {
                    *d ^= mul(c, *s);
                }
                assert_eq!(fast, slow, "len = {len}, c = {c}");
            }
        }
    }

    #[test]
    fn mul_row_matches_scalar_mul() {
        for c in [0u8, 1, 2, 142, 255] {
            let row = mul_row(c);
            for s in 0..=255u8 {
                assert_eq!(row[s as usize], mul(c, s), "c={c} s={s}");
            }
        }
    }

    #[test]
    fn scale_matches_scalar_mul() {
        for len in [0usize, 5, 8, 21, 256] {
            let base: Vec<u8> = (0..len).map(|i| (i * 11 + 3) as u8).collect();
            for c in [0u8, 1, 77, 254] {
                let mut fast = base.clone();
                scale(&mut fast, c);
                let slow: Vec<u8> = base.iter().map(|&b| mul(c, b)).collect();
                assert_eq!(fast, slow, "len = {len}, c = {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn inv_zero_panics() {
        inv(0);
    }
}
