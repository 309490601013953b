//! SHA-NI-vs-scalar equivalence harness.
//!
//! The one runtime-dispatched kernel, SHA-256 compression, must be
//! byte-identical on both backends for all inputs — the selection is a
//! pure throughput choice and must never be observable in output.
//! `Backend::ShaNi` runs the reference on a CPU without the
//! instructions, so every sweep below iterates both backends on every
//! host, and says so out loud when the host cannot exercise the fast
//! path.

use proptest::prelude::*;
use rekey_crypto::sha256;
use rekey_crypto::simd::{self, Backend};

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
