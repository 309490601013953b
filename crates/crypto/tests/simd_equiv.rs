//! Fast-kernel-vs-scalar equivalence harness.
//!
//! The two runtime-dispatched kernels, SHA-256 compression and the wrap
//! lane group, must be byte-identical to their scalar references for
//! all inputs — the selection is a pure throughput choice and must
//! never be observable in output. `Backend::ShaNi` and
//! `LaneKernel::Avx2` run the reference on a CPU without the
//! instructions, so every sweep below names both kernels per call on
//! every host, and says so out loud when the host cannot exercise the
//! fast path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rekey_crypto::keywrap::{self, WrapKek, WrappedKey, LANES, NONCE_LEN};
use rekey_crypto::simd::{self, Backend, LaneKernel};
use rekey_crypto::{poly1305, sha256, Key};

const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::ShaNi];

/// Whether `Backend::ShaNi` really reaches the SHA-NI kernel on this
/// host; prints a note (once per calling test) when it cannot, so a
/// green run on such a host is not mistaken for coverage.
fn sha_ni_under_test(test: &str) -> bool {
    let on = simd::detect().sha_ni;
    if !on {
        eprintln!("note: {test}: host lacks sha/ssse3/sse4.1 — SHA-NI kernel not exercised");
    }
    on
}

proptest! {
    /// SHA-256 digests are identical across backends for arbitrary
    /// lengths including every padding boundary (55/56/64), fed in one
    /// piece or split at two arbitrary points (buffered tail, then a
    /// multi-block run, then another tail).
    #[test]
    fn sha256_backends_agree(data in proptest::collection::vec(any::<u8>(), 0..4 * 64 + 5),
                             cut_a in any::<prop::sample::Index>(),
                             cut_b in any::<prop::sample::Index>()) {
        let reference = sha256::digest_with(Backend::Scalar, &data);
        let (a, b) = (cut_a.index(data.len() + 1), cut_b.index(data.len() + 1));
        let (a, b) = (a.min(b), a.max(b));
        for backend in BACKENDS {
            prop_assert_eq!(
                sha256::digest_with(backend, &data), reference,
                "backend {} diverged", backend);
            let mut split = sha256::Sha256::new_with(backend);
            split.update(&data[..a]);
            split.update(&data[a..b]);
            split.update(&data[b..]);
            prop_assert_eq!(
                split.finalize(), reference,
                "backend {} diverged on split {}/{}", backend, a, b);
        }
    }
}

/// Every length `0..=4·64+4` exhaustively (the proptest samples the
/// same range), each also as byte-at-a-time updates: scalar reference
/// against `ShaNi`, i.e. against the SHA-NI kernel where the host has it.
#[test]
fn sha256_every_short_length_matches_scalar() {
    sha_ni_under_test("sha256_every_short_length_matches_scalar");
    let data: Vec<u8> = (0..4 * 64 + 4).map(|i| (i * 197 + 11) as u8).collect();
    for len in 0..=data.len() {
        let reference = sha256::digest_with(Backend::Scalar, &data[..len]);
        for backend in BACKENDS {
            assert_eq!(
                sha256::digest_with(backend, &data[..len]),
                reference,
                "len={len} {backend}"
            );
            let mut bytewise = sha256::Sha256::new_with(backend);
            for byte in &data[..len] {
                bytewise.update(std::slice::from_ref(byte));
            }
            assert_eq!(
                bytewise.finalize(),
                reference,
                "bytewise len={len} {backend}"
            );
        }
    }
}

/// The NIST million-`a` vector on every backend: 15 625 blocks through
/// the multi-block loop in one `update`, and again in odd-sized pieces.
#[test]
fn sha256_million_a_on_every_backend() {
    sha_ni_under_test("sha256_million_a_on_every_backend");
    const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let data = vec![b'a'; 1_000_000];
    for backend in BACKENDS {
        assert_eq!(
            hex(&sha256::digest_with(backend, &data)),
            EXPECTED,
            "{backend}"
        );
        let mut pieces = sha256::Sha256::new_with(backend);
        for piece in data.chunks(1021) {
            pieces.update(piece);
        }
        assert_eq!(hex(&pieces.finalize()), EXPECTED, "{backend} in pieces");
    }
}

/// The implicit (`active()`-dispatched) entry points run the backend
/// the CPU selects, and it produces output identical to the scalar
/// reference: the one-shot digest and the incremental hasher alike.
#[test]
fn active_backend_is_transparent_through_dispatch() {
    let active = simd::active();
    if !sha_ni_under_test("active_backend_is_transparent_through_dispatch") {
        assert_eq!(active, Backend::Scalar);
    }
    let data: Vec<u8> = (0..512 + 17).map(|i| i as u8).collect();
    let digest = sha256::digest(&data);
    assert_eq!(digest, sha256::digest_with(active, &data));
    assert_eq!(digest, sha256::digest_with(Backend::Scalar, &data));
    let mut hasher = sha256::Sha256::new();
    hasher.update(&data);
    assert_eq!(hasher.finalize(), digest);
}

const LANE_KERNELS: [LaneKernel; 2] = [LaneKernel::Scalar, LaneKernel::Avx2];

/// Whether `LaneKernel::Avx2` really reaches the AVX2 kernel on this
/// host; prints a note when it cannot.
fn avx2_under_test(test: &str) -> bool {
    let on = simd::detect().avx2;
    if !on {
        eprintln!("note: {test}: host lacks avx2 — lane kernel not exercised");
    }
    on
}

/// One lane group's inputs.
struct Group {
    keks: [Key; LANES],
    payloads: [Key; LANES],
    nonces: [[u8; NONCE_LEN]; LANES],
    aads: [Vec<u8>; LANES],
}

impl Group {
    /// Random inputs with `aad_len`-byte associated data; `saturate`
    /// sets the bytes of the lanes it names to 0xff instead.
    fn random(rng: &mut StdRng, aad_len: usize, saturate: impl Fn(usize) -> bool) -> Group {
        let mut bytes = |lane: usize, len: usize| {
            let mut out = vec![0xff; len];
            if !saturate(lane) {
                rng.fill_bytes(&mut out);
            }
            out
        };
        let key = |b: Vec<u8>| Key::from_bytes(b.try_into().expect("32 bytes"));
        Group {
            keks: std::array::from_fn(|i| key(bytes(i, 32))),
            payloads: std::array::from_fn(|i| key(bytes(i, 32))),
            nonces: std::array::from_fn(|i| bytes(i, NONCE_LEN).try_into().expect("12 bytes")),
            aads: std::array::from_fn(|i| bytes(i, aad_len)),
        }
    }

    fn seal(&self, kernel: LaneKernel) -> [WrappedKey; LANES] {
        keywrap::seal_lanes_with(
            kernel,
            std::array::from_fn(|i| &self.keks[i]),
            std::array::from_fn(|i| &self.payloads[i]),
            self.nonces,
            std::array::from_fn(|i| self.aads[i].as_slice()),
        )
    }

    /// Lane `i` sealed alone by the scalar wrap.
    fn reference(&self, i: usize) -> WrappedKey {
        WrapKek::new(&self.keks[i]).seal(&self.payloads[i], self.nonces[i], &self.aads[i])
    }
}

/// `seal_lanes` equals `WrapKek::seal` in every lane: 1 280 random
/// groups (10 240 wraps) per kernel over associated data of 0–79 bytes
/// (the rekey binding is 49), plus groups whose keys, payloads, nonces
/// and associated data are all 0xff in every lane, in one lane at each
/// position, and in every lane but one.
#[test]
fn seal_lanes_equals_the_scalar_seal_in_every_lane() {
    avx2_under_test("seal_lanes_equals_the_scalar_seal_in_every_lane");
    let mut rng = StdRng::seed_from_u64(0x1A4E5);
    let mut groups: Vec<Group> = (0..1280)
        .map(|g| Group::random(&mut rng, g % 80, |_| false))
        .collect();
    for aad_len in [0, 15, 16, 49, 64] {
        groups.push(Group::random(&mut rng, aad_len, |_| true));
        for at in 0..LANES {
            groups.push(Group::random(&mut rng, aad_len, |lane| lane == at));
            groups.push(Group::random(&mut rng, aad_len, |lane| lane != at));
        }
    }
    for (g, group) in groups.iter().enumerate() {
        for kernel in LANE_KERNELS {
            for (i, sealed) in group.seal(kernel).iter().enumerate() {
                assert_eq!(
                    *sealed,
                    group.reference(i),
                    "group {g} lane {i} on {kernel}"
                );
            }
        }
    }
}

/// The implicit `seal_lanes` runs the kernel the CPU selects and seals
/// what the scalar wrap does.
#[test]
fn seal_lanes_dispatches_to_the_active_kernel() {
    let active = LaneKernel::active();
    if !avx2_under_test("seal_lanes_dispatches_to_the_active_kernel") {
        assert_eq!(active, LaneKernel::Scalar);
    }
    let group = Group::random(&mut StdRng::seed_from_u64(9), 49, |_| false);
    let implicit = keywrap::seal_lanes(
        std::array::from_fn(|i| &group.keks[i]),
        std::array::from_fn(|i| &group.payloads[i]),
        group.nonces,
        std::array::from_fn(|i| group.aads[i].as_slice()),
    );
    assert_eq!(implicit, group.seal(active));
    assert_eq!(implicit, std::array::from_fn(|i| group.reference(i)));
}

/// RFC 8439 Appendix A.3's whole-block Poly1305 vectors (#1 and the
/// carry and final-reduction edge cases #5–#11) through every lane of
/// `mac_lanes_with` on both kernels, the other lanes carrying random
/// keys and messages of the same length checked against `mac`.
#[test]
fn poly1305_appendix_a3_edge_vectors_in_every_lane() {
    avx2_under_test("poly1305_appendix_a3_edge_vectors_in_every_lane");
    let unhex = |hex: &str| -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    };
    let zero16 = "00000000000000000000000000000000";
    let ff16 = "ffffffffffffffffffffffffffffffff";
    let r1 = "01000000000000000000000000000000";
    let r2 = "02000000000000000000000000000000";
    let r10 = "01000000000000000400000000000000";
    let data10 = "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000
                  00000000000000000000000000000000 01000000000000000000000000000000";
    let vectors: [(String, String, &str); 8] = [
        (format!("{zero16}{zero16}"), "00".repeat(64), zero16),
        (
            format!("{r2}{zero16}"),
            ff16.into(),
            "03000000000000000000000000000000",
        ),
        (
            format!("{r2}{ff16}"),
            r2.into(),
            "03000000000000000000000000000000",
        ),
        (
            format!("{r1}{zero16}"),
            format!("{ff16} f0ffffffffffffffffffffffffffffff 11000000000000000000000000000000"),
            "05000000000000000000000000000000",
        ),
        (
            format!("{r1}{zero16}"),
            format!("{ff16} fbfefefefefefefefefefefefefefefe 01010101010101010101010101010101"),
            zero16,
        ),
        (
            format!("{r2}{zero16}"),
            "fdffffffffffffffffffffffffffffff".into(),
            "faffffffffffffffffffffffffffffff",
        ),
        (
            format!("{r10}{zero16}"),
            data10.into(),
            "14000000000000005500000000000000",
        ),
        (
            format!("{r10}{zero16}"),
            data10.split_whitespace().take(3).collect(),
            "13000000000000000000000000000000",
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0xA3);
    for (v, (key, message, tag)) in vectors.iter().enumerate() {
        let (key, message) = (unhex(key), unhex(message));
        for at in 0..LANES {
            let mut keys = [[0u8; 32]; LANES];
            let mut messages: [Vec<u8>; LANES] = std::array::from_fn(|_| vec![0; message.len()]);
            for lane in 0..LANES {
                if lane == at {
                    keys[lane].copy_from_slice(&key);
                    messages[lane].copy_from_slice(&message);
                } else {
                    rng.fill_bytes(&mut keys[lane]);
                    rng.fill_bytes(&mut messages[lane]);
                }
            }
            // Cut every message in two parts at one whole block.
            let cut = message.len() / 32 * 16;
            let heads = std::array::from_fn(|i| &messages[i][..cut]);
            let tails = std::array::from_fn(|i| &messages[i][cut..]);
            for kernel in LANE_KERNELS {
                let tags = poly1305::mac_lanes_with(kernel, &keys, &[heads, tails]);
                assert_eq!(
                    tags[at].to_vec(),
                    unhex(tag),
                    "A.3 #{} in lane {at} on {kernel}",
                    [1, 5, 6, 7, 8, 9, 10, 11][v]
                );
                for lane in 0..LANES {
                    assert_eq!(
                        tags[lane],
                        poly1305::mac(&keys[lane], &messages[lane]),
                        "lane {lane} on {kernel}"
                    );
                }
            }
        }
    }
}
