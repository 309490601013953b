//! RFC 8439 known answers for Poly1305 and AEAD_CHACHA20_POLY1305.
//!
//! The AEAD runs through a reference built here from the crate's two
//! primitives, `chacha20::block` and `poly1305`. A rekey entry is not
//! sealed with it: `keywrap::WrapKek` takes its key stream and its
//! Poly1305 key from one block, so its ciphertext is the RFC's and its
//! tag is not. The last test pins that relation.

use proptest::prelude::*;
use rekey_crypto::keywrap::{WrapKek, WrappedKey};
use rekey_crypto::poly1305::{self, Poly1305};
use rekey_crypto::{chacha20, CryptoError, Key};

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
    assert_eq!(digits.len() % 2, 0);
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn tag_of(key_hex: &str, message: &[u8]) -> Vec<u8> {
    let key: [u8; 32] = unhex(key_hex).try_into().unwrap();
    poly1305::mac(&key, message).to_vec()
}

const IETF: &[u8] = b"Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made \
within the context of an IETF activity is considered an \"IETF Contribution\". Such \
statements include oral statements in IETF sessions, as well as written and \
electronic communications made at any time or place, which are addressed to";

const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in \
the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

const JABBERWOCKY_KEY: &str = "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0";

#[test]
fn poly1305_section_2_5_2() {
    assert_eq!(
        tag_of(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
            b"Cryptographic Forum Research Group"
        ),
        unhex("a8061dc1305136c6c22b8baf0c0127a9")
    );
}

/// Appendix A.3 #1–#11: zero key, `r = 0`, `s = 0`, and the carry and
/// final-reduction edge cases (#5–#11).
#[test]
fn poly1305_appendix_a3() {
    assert_eq!(IETF.len(), 375);
    assert_eq!(JABBERWOCKY.len(), 127);
    let zero16 = "00000000000000000000000000000000";
    let ietf_half = "36e5f6b5c5e06070f0efca96227a863e";
    let r1 = "01000000000000000000000000000000";
    let r2 = "02000000000000000000000000000000";
    let r10 = "01000000000000000400000000000000";
    let ff16 = "ffffffffffffffffffffffffffffffff";
    let data10 = unhex(
        "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000
         00000000000000000000000000000000 01000000000000000000000000000000",
    );
    let key = |r: &str, s: &str| format!("{r}{s}");
    let cases: [(String, Vec<u8>, &str); 11] = [
        (key(zero16, zero16), vec![0; 64], zero16),
        (key(zero16, ietf_half), IETF.to_vec(), ietf_half),
        (
            key(ietf_half, zero16),
            IETF.to_vec(),
            "f3477e7cd95417af89a6b8794c310cf0",
        ),
        (
            JABBERWOCKY_KEY.to_string(),
            JABBERWOCKY.to_vec(),
            "4541669a7eaaee61e708dc7cbcc5eb62",
        ),
        (
            key(r2, zero16),
            unhex(ff16),
            "03000000000000000000000000000000",
        ),
        (key(r2, ff16), unhex(r2), "03000000000000000000000000000000"),
        (
            key(r1, zero16),
            unhex(&format!(
                "{ff16} f0ffffffffffffffffffffffffffffff 11000000000000000000000000000000"
            )),
            "05000000000000000000000000000000",
        ),
        (
            key(r1, zero16),
            unhex(&format!(
                "{ff16} fbfefefefefefefefefefefefefefefe 01010101010101010101010101010101"
            )),
            zero16,
        ),
        (
            key(r2, zero16),
            unhex("fdffffffffffffffffffffffffffffff"),
            "faffffffffffffffffffffffffffffff",
        ),
        (
            key(r10, zero16),
            data10.clone(),
            "14000000000000005500000000000000",
        ),
        (
            key(r10, zero16),
            data10[..48].to_vec(),
            "13000000000000000000000000000000",
        ),
    ];
    for (i, (key, message, tag)) in cases.iter().enumerate() {
        assert_eq!(tag_of(key, message), unhex(tag), "A.3 vector #{}", i + 1);
    }
}

/// However the input is cut across `update` calls, the tag is the
/// one-shot tag — every length 0..200, every cut.
#[test]
fn poly1305_split_update_equals_oneshot() {
    let key: [u8; 32] = std::array::from_fn(|i| (i * 37 + 11) as u8);
    let data: Vec<u8> = (0..200).map(|i| (i * 131 + 7) as u8).collect();
    for len in 0..200 {
        let expected = poly1305::mac(&key, &data[..len]);
        for cut in 0..=len {
            let mut poly = Poly1305::new(&key);
            poly.update(&data[..cut]);
            poly.update(&data[cut..len]);
            assert_eq!(poly.finalize(), expected, "len {len} cut {cut}");
        }
        let mut bytewise = Poly1305::new(&key);
        for byte in &data[..len] {
            bytewise.update(std::slice::from_ref(byte));
        }
        assert_eq!(bytewise.finalize(), expected, "len {len} bytewise");
    }
}

struct AeadVector {
    key: [u8; 32],
    nonce: [u8; 12],
    aad: Vec<u8>,
    plaintext: Vec<u8>,
    ciphertext: Vec<u8>,
    tag: [u8; 16],
}

/// §2.8.2: the 114-byte "sunscreen" plaintext.
fn section_2_8_2() -> AeadVector {
    AeadVector {
        key: std::array::from_fn(|i| 0x80 + i as u8),
        nonce: unhex("070000004041424344454647").try_into().unwrap(),
        aad: unhex("50515253c0c1c2c3c4c5c6c7"),
        plaintext: b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec(),
        ciphertext: unhex(
            "d31a8d34648e60db7b86afbc53ef7ec2 a4aded51296e08fea9e2b5a736ee62d6
             3dbea45e8ca9671282fafb69da92728b 1a71de0a9e060b2905d6a5b67ecd3b36
             92ddbd7f2d778b8c9803aee328091b58 fab324e4fad675945585808b4831d7bc
             3ff4def08e4b7a9de576d26586cec64b 6116",
        ),
        tag: unhex("1ae10b594f09e26a7e902ecbd0600691")
            .try_into()
            .unwrap(),
    }
}

/// Appendix A.5: the 265-byte decryption vector.
fn appendix_a5() -> AeadVector {
    AeadVector {
        key: unhex(JABBERWOCKY_KEY).try_into().unwrap(),
        nonce: unhex("000000000102030405060708").try_into().unwrap(),
        aad: unhex("f33388860000000000004e91"),
        plaintext: "Internet-Drafts are draft documents valid for a maximum of six months \
and may be updated, replaced, or obsoleted by other documents at any time. It is \
inappropriate to use Internet-Drafts as reference material or to cite them other than \
as /\u{201c}work in progress./\u{201d}"
            .as_bytes()
            .to_vec(),
        ciphertext: unhex(
            "64a0861575861af460f062c79be643bd 5e805cfd345cf389f108670ac76c8cb2
             4c6cfc18755d43eea09ee94e382d26b0 bdb7b73c321b0100d4f03b7f355894cf
             332f830e710b97ce98c8a84abd0b9481 14ad176e008d33bd60f982b1ff37c855
             9797a06ef4f0ef61c186324e2b350638 3606907b6a7c02b0f9f6157b53c867e4
             b9166c767b804d46a59b5216cde7a4e9 9040c5a40433225ee282a1b0a06c523e
             af4534d7f83fa1155b0047718cbc546a 0d072b04b3564eea1b422273f548271a
             0bb2316053fa76991955ebd63159434e cebb4e466dae5a1073a6727627097a10
             49e617d91d361094fa68f0ff77987130 305beaba2eda04df997b714d6c6f2c29
             a6ad5cb4022b02709b",
        ),
        tag: unhex("eead9d67890cbb22392336fea1851f38")
            .try_into()
            .unwrap(),
    }
}

/// `data` XOR the ChaCha20 key stream from block `counter` on.
fn keystream_xor(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &[u8]) -> Vec<u8> {
    let stream = (counter..).flat_map(|c| chacha20::block(key, c, nonce));
    data.iter().zip(stream).map(|(d, k)| d ^ k).collect()
}

/// The §2.8 tag: Poly1305 under block 0's first 32 bytes over
/// `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ le64(|aad|) ‖ le64(|ciphertext|)`.
fn rfc8439_tag(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let otk: [u8; 32] = chacha20::block(key, 0, nonce)[..32].try_into().unwrap();
    let mut mac_data = aad.to_vec();
    mac_data.resize(aad.len().next_multiple_of(16), 0);
    mac_data.extend_from_slice(ciphertext);
    mac_data.resize(mac_data.len().next_multiple_of(16), 0);
    mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    mac_data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    poly1305::mac(&otk, &mac_data)
}

/// `AEAD_CHACHA20_POLY1305` encryption: ciphertext and tag.
fn rfc8439_seal(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    plaintext: &[u8],
) -> (Vec<u8>, [u8; 16]) {
    let ciphertext = keystream_xor(key, nonce, 1, plaintext);
    let tag = rfc8439_tag(key, nonce, aad, &ciphertext);
    (ciphertext, tag)
}

/// `AEAD_CHACHA20_POLY1305` decryption: checks the tag first and
/// decrypts only what it authenticates.
fn rfc8439_open(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    ciphertext: &[u8],
    tag: &[u8; 16],
) -> Result<Vec<u8>, CryptoError> {
    if rfc8439_tag(key, nonce, aad, ciphertext) != *tag {
        return Err(CryptoError::BadTag);
    }
    Ok(keystream_xor(key, nonce, 1, ciphertext))
}

#[test]
fn aead_section_2_8_2_and_appendix_a5() {
    for v in [section_2_8_2(), appendix_a5()] {
        let (ciphertext, tag) = rfc8439_seal(&v.key, &v.nonce, &v.aad, &v.plaintext);
        assert_eq!(ciphertext, v.ciphertext);
        assert_eq!(tag, v.tag);
        assert_eq!(
            rfc8439_open(&v.key, &v.nonce, &v.aad, &ciphertext, &tag),
            Ok(v.plaintext)
        );
    }
    assert_eq!(section_2_8_2().plaintext.len(), 114);
    assert_eq!(appendix_a5().ciphertext.len(), 265);
}

/// One flipped bit anywhere — key, nonce, associated data, ciphertext
/// or tag — fails authentication.
#[test]
fn aead_rejects_a_flipped_bit_in_every_input() {
    for v in [section_2_8_2(), appendix_a5()] {
        let open = |key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], ct: &[u8], tag: &[u8; 16]| {
            rfc8439_open(key, nonce, aad, ct, tag).map(drop)
        };
        for bit in 0..8 {
            let flip = |bytes: &[u8], at: usize| {
                let mut out = bytes.to_vec();
                out[at] ^= 1 << bit;
                out
            };
            for at in 0..32 {
                let key = flip(&v.key, at).try_into().unwrap();
                assert_eq!(
                    open(&key, &v.nonce, &v.aad, &v.ciphertext, &v.tag),
                    Err(CryptoError::BadTag)
                );
            }
            for at in 0..12 {
                let nonce = flip(&v.nonce, at).try_into().unwrap();
                assert_eq!(
                    open(&v.key, &nonce, &v.aad, &v.ciphertext, &v.tag),
                    Err(CryptoError::BadTag)
                );
            }
            for at in 0..v.aad.len() {
                assert_eq!(
                    open(&v.key, &v.nonce, &flip(&v.aad, at), &v.ciphertext, &v.tag),
                    Err(CryptoError::BadTag)
                );
            }
            for at in 0..v.ciphertext.len() {
                assert_eq!(
                    open(&v.key, &v.nonce, &v.aad, &flip(&v.ciphertext, at), &v.tag),
                    Err(CryptoError::BadTag)
                );
            }
            for at in 0..16 {
                let tag = flip(&v.tag, at).try_into().unwrap();
                assert_eq!(
                    open(&v.key, &v.nonce, &v.aad, &v.ciphertext, &tag),
                    Err(CryptoError::BadTag)
                );
            }
        }
        // Associated data moved across the aad/ciphertext boundary, or
        // dropped, is a different input.
        assert_eq!(
            open(&v.key, &v.nonce, &[], &v.ciphertext, &v.tag),
            Err(CryptoError::BadTag)
        );
        assert_eq!(
            open(&v.key, &v.nonce, &v.aad, &v.ciphertext, &v.tag),
            Ok(())
        );
    }
}

proptest! {
    /// A one-block wrap and the RFC 8439 AEAD under the same key and
    /// nonce encrypt to the same ciphertext, and neither's entry opens
    /// under the other's `open`: mixing them fails closed.
    #[test]
    fn one_block_wrap_shares_the_rfc8439_ciphertext_not_its_tag(
        key in any::<[u8; 32]>(),
        payload in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad49 in any::<[u8; 49]>(),
    ) {
        let kek = WrapKek::new(&Key::from_bytes(key));
        for aad in [&[][..], &aad49[..]] {
            let ours = kek.seal(&Key::from_bytes(payload), nonce, aad).sealed();
            let (ciphertext, tag) = rfc8439_seal(&key, &nonce, aad, &payload);
            prop_assert_eq!(&ours[..32], &ciphertext[..]);
            let ours_tag: [u8; 16] = ours[32..].try_into().unwrap();
            prop_assert_eq!(
                rfc8439_open(&key, &nonce, aad, &ciphertext, &ours_tag),
                Err(CryptoError::BadTag)
            );
            let theirs = WrappedKey::from_parts(nonce, &[ciphertext, tag.to_vec()].concat().try_into().unwrap());
            prop_assert_eq!(kek.open(&theirs, aad), Err(CryptoError::BadTag));
        }
    }
}
