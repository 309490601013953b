//! SIMD-vs-scalar equivalence harness.
//!
//! Every SIMD backend must be byte-identical to the scalar reference
//! for all inputs — the dispatch tier is a pure throughput choice and
//! must never be observable in output. In this crate that is SHA-256,
//! which has two compression kernels (scalar, SHA-NI); the SHA-NI one
//! runs under either x86 backend when the CPU has it, and these tests
//! say so out loud when the host cannot exercise it. (The GF(256)
//! tiers are swept in `rekey-transport`.)
//!
//! Also covers the `REKEY_SIMD` override surface: `Backend::resolve`
//! is pure, so the env-var → backend mapping and the fallback chain
//! (request above what the CPU supports degrades to the best available
//! tier, never to an illegal one) are tested exhaustively here without
//! spawning processes.

use proptest::prelude::*;
use rekey_crypto::sha256;
use rekey_crypto::simd::{self, Backend, CpuFeatures};

/// Backends the current host can actually run (scalar always; SIMD
/// tiers only when the CPU advertises them).
fn supported_backends() -> Vec<Backend> {
    let feats = simd::detect();
    let mut v = vec![Backend::Scalar];
    if feats.sse2 {
        v.push(Backend::Sse2);
    }
    if feats.avx2 {
        v.push(Backend::Avx2);
    }
    v
}

/// Whether a non-scalar backend really reaches the SHA-NI kernel on
/// this host; prints a note (once per calling test) when it cannot, so
/// a green run on such a host is not mistaken for coverage.
fn sha_ni_under_test(test: &str) -> bool {
    let on = sha256::kernel_name(Backend::Sse2) == "sha_ni";
    assert_eq!(on, simd::detect().sha_ni);
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
        for backend in supported_backends() {
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

    /// `Backend::resolve` degrades cleanly: the resolved backend never
    /// exceeds what the CPU supports nor what the request caps it to,
    /// and with full features an explicit request is honored exactly.
    #[test]
    fn resolve_never_exceeds_features(sse2 in any::<bool>(),
                                      ssse3 in any::<bool>(),
                                      avx2 in any::<bool>(),
                                      sha_ni in any::<bool>(),
                                      req_idx in 0usize..7) {
        // Covers every recognized `REKEY_SIMD` value plus garbage.
        let request = [
            None,
            Some("auto"),
            Some("off"),
            Some("scalar"),
            Some("sse2"),
            Some("avx2"),
            Some("no-such-backend"),
        ][req_idx];
        let feats = CpuFeatures { sse2, ssse3, avx2, sha_ni };
        let best = if avx2 {
            Backend::Avx2
        } else if sse2 {
            Backend::Sse2
        } else {
            Backend::Scalar
        };
        let resolved = Backend::resolve(request, feats);
        prop_assert!(resolved <= best,
                     "resolved {} above supported {}", resolved, best);
        match request {
            // `off` means the scalar reference everywhere: whatever the
            // CPU reports, SHA-256 stays out of the SHA-NI kernel too.
            Some("off") | Some("scalar") => {
                prop_assert_eq!(resolved, Backend::Scalar);
                prop_assert_eq!(sha256::kernel_name(resolved), "scalar");
            }
            Some("sse2") => prop_assert_eq!(resolved, Backend::Sse2.min(best)),
            Some("avx2") => prop_assert_eq!(resolved, Backend::Avx2.min(best)),
            // auto / unset / unrecognized: best supported tier.
            _ => prop_assert_eq!(resolved, best),
        }
    }
}

/// Every length `0..=4·64+4` exhaustively (the proptest samples the
/// same range), each also as byte-at-a-time updates: scalar reference
/// against every backend, i.e. against SHA-NI where the host has it.
#[test]
fn sha256_every_short_length_matches_scalar() {
    sha_ni_under_test("sha256_every_short_length_matches_scalar");
    let data: Vec<u8> = (0..4 * 64 + 4).map(|i| (i * 197 + 11) as u8).collect();
    for len in 0..=data.len() {
        let reference = sha256::digest_with(Backend::Scalar, &data[..len]);
        for backend in supported_backends() {
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
    for backend in supported_backends() {
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

/// The process-wide selection honors `simd::force` and the forced
/// backend produces output identical to scalar through the implicit
/// (`active()`-dispatched) entry points.
#[test]
fn forced_backend_is_transparent_through_active_dispatch() {
    let original = simd::active();
    // CI runs the whole suite under `REKEY_SIMD=off`: there the
    // process must start on the scalar tier with SHA-NI out of reach.
    if matches!(
        std::env::var("REKEY_SIMD").as_deref(),
        Ok("off") | Ok("scalar")
    ) {
        assert_eq!(original, Backend::Scalar);
    }
    assert_eq!(sha256::kernel_name(Backend::Scalar), "scalar");
    let data: Vec<u8> = (0..512 + 17).map(|i| i as u8).collect();
    let ref_digest = sha256::digest_with(Backend::Scalar, &data);

    for backend in supported_backends() {
        simd::force(backend);
        assert_eq!(simd::active(), backend);
        assert_eq!(
            sha256::digest(&data),
            ref_digest,
            "active-dispatch sha256 diverged on {backend}"
        );
    }
    simd::force(original);
}
