//! Runtime CPU-feature detection and SIMD backend selection for the
//! hot crypto kernels.
//!
//! The two bulk kernels of the workspace — SHA-256 compression
//! ([`crate::sha256`]) and the GF(256) routines in `rekey-transport` —
//! each carry one scalar reference implementation plus `std::arch`
//! fast paths. (ChaCha20 is called one block per wrapped key and has
//! a single implementation.) This module owns the
//! *selection*: which tier runs is decided once per process, from CPU
//! feature detection plus an optional `REKEY_SIMD` environment
//! override, and cached behind an atomic so the per-call cost of
//! dispatch is a single relaxed load and a jump.
//!
//! # Tiers
//!
//! | [`Backend`] | requires | used for |
//! |-------------|----------|----------|
//! | `Scalar`    | nothing  | reference implementations, always available |
//! | `Sse2`      | SSE2     | GF(256) nibble tables (needs SSSE3 `pshufb`, else scalar) |
//! | `Avx2`      | AVX2     | 32-byte GF(256) nibble tables |
//!
//! SHA-256 is not tiered by vector width: on either x86 tier it runs
//! the SHA-NI compression function when [`CpuFeatures::sha_ni`] is set
//! and the scalar reference otherwise (same pattern as the GF(256)
//! SSSE3 check — a call-site feature test under a non-scalar tier).
//!
//! Every fast path is pinned **byte-identical** to the scalar
//! reference by proptest equivalence harnesses
//! (`crates/crypto/tests/simd_equiv.rs`, `rekey-transport`'s
//! proptests), so backend selection can
//! never change an output byte — only wall-clock time.
//!
//! # Override
//!
//! `REKEY_SIMD=off|scalar|sse2|avx2|auto` forces a tier (`off` and
//! `scalar` are synonyms). Requesting a tier the CPU cannot run falls
//! back to the best *supported* tier at or below the request — the
//! dispatcher never selects an unsupported instruction set (see
//! [`Backend::resolve`], which is pure and unit-tested for exactly
//! this).

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set tiers a kernel can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Portable reference implementation.
    Scalar,
    /// 128-bit `std::arch` x86 path (SSE2 baseline; kernels that need
    /// SSSE3 `pshufb` check [`CpuFeatures::ssse3`] and fall back to
    /// scalar internally).
    Sse2,
    /// 256-bit `std::arch` x86 path (AVX2).
    Avx2,
}

impl Backend {
    /// Short lowercase name (`"scalar"`, `"sse2"`, `"avx2"`), as used
    /// in `REKEY_SIMD`, bench JSON, and obs counter suffixes.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Resolves a requested tier (usually from `REKEY_SIMD`) against
    /// the detected CPU features. Pure — the fallback chain
    /// (AVX2 → SSE2 → scalar) is unit-tested without touching global
    /// state.
    ///
    /// `None` and `"auto"` pick the best supported tier; an explicit
    /// request is capped at what the CPU supports; unknown strings are
    /// treated as `auto` (selection must never abort a server).
    pub fn resolve(request: Option<&str>, features: CpuFeatures) -> Backend {
        let best = if features.avx2 {
            Backend::Avx2
        } else if features.sse2 {
            Backend::Sse2
        } else {
            Backend::Scalar
        };
        match request {
            Some("off") | Some("scalar") => Backend::Scalar,
            Some("sse2") => best.min(Backend::Sse2),
            Some("avx2") => best.min(Backend::Avx2),
            _ => best,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The CPU features the kernels care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 128-bit integer SIMD (baseline on x86_64).
    pub sse2: bool,
    /// `pshufb` — required by the GF(256) nibble-table kernel's
    /// 128-bit form.
    pub ssse3: bool,
    /// 256-bit integer SIMD.
    pub avx2: bool,
    /// Everything the SHA-NI SHA-256 kernel executes: the SHA
    /// extensions plus the SSSE3 and SSE4.1 shuffles around them.
    pub sha_ni: bool,
}

impl CpuFeatures {
    /// Everything off — what non-x86 targets report.
    pub const NONE: CpuFeatures = CpuFeatures {
        sse2: false,
        ssse3: false,
        avx2: false,
        sha_ni: false,
    };
}

/// Detects the CPU features of the running machine.
pub fn detect() -> CpuFeatures {
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    {
        let ssse3 = std::arch::is_x86_feature_detected!("ssse3");
        CpuFeatures {
            sse2: std::arch::is_x86_feature_detected!("sse2"),
            ssse3,
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            sha_ni: ssse3
                && std::arch::is_x86_feature_detected!("sse4.1")
                && std::arch::is_x86_feature_detected!("sha"),
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    {
        CpuFeatures::NONE
    }
}

/// Selection cache: 0 = undecided, else `Backend as u8 + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(backend: Backend) -> u8 {
    backend as u8 + 1
}

fn decode(raw: u8) -> Option<Backend> {
    match raw {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Sse2),
        3 => Some(Backend::Avx2),
        _ => None,
    }
}

/// The process-wide active backend: resolved once from `REKEY_SIMD`
/// and [`detect`], then cached (one relaxed atomic load per call).
#[inline]
pub fn active() -> Backend {
    if let Some(backend) = decode(ACTIVE.load(Ordering::Relaxed)) {
        return backend;
    }
    let request = std::env::var("REKEY_SIMD").ok();
    let resolved = Backend::resolve(request.as_deref(), detect());
    // A racing first call resolves to the same value; last store wins
    // harmlessly.
    ACTIVE.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Forces the active backend for the rest of the process.
///
/// For benches and diagnostics that sweep backends in one process
/// (`perf_crypto` measures scalar/sse2/avx2 back to back). Callers
/// must pass a tier the CPU supports and must not race concurrent
/// crypto work; tests that only need per-call control should use the
/// explicit `*_with` kernel entry points instead.
pub fn force(backend: Backend) {
    ACTIVE.store(encode(backend), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: CpuFeatures = CpuFeatures {
        sse2: true,
        ssse3: true,
        avx2: true,
        sha_ni: true,
    };
    const SSE2_ONLY: CpuFeatures = CpuFeatures {
        sse2: true,
        ssse3: false,
        avx2: false,
        sha_ni: false,
    };

    #[test]
    fn auto_picks_best_supported() {
        assert_eq!(Backend::resolve(None, ALL), Backend::Avx2);
        assert_eq!(Backend::resolve(Some("auto"), ALL), Backend::Avx2);
        assert_eq!(Backend::resolve(None, SSE2_ONLY), Backend::Sse2);
        assert_eq!(Backend::resolve(None, CpuFeatures::NONE), Backend::Scalar);
    }

    #[test]
    fn off_always_forces_scalar() {
        assert_eq!(Backend::resolve(Some("off"), ALL), Backend::Scalar);
        assert_eq!(Backend::resolve(Some("scalar"), ALL), Backend::Scalar);
    }

    #[test]
    fn explicit_request_is_capped_at_supported() {
        // The dispatcher must fall back cleanly when a feature is
        // absent: avx2 on an sse2-only host runs the sse2 tier, and
        // any x86 request on a featureless host runs scalar.
        assert_eq!(Backend::resolve(Some("avx2"), SSE2_ONLY), Backend::Sse2);
        assert_eq!(
            Backend::resolve(Some("avx2"), CpuFeatures::NONE),
            Backend::Scalar
        );
        assert_eq!(
            Backend::resolve(Some("sse2"), CpuFeatures::NONE),
            Backend::Scalar
        );
    }

    #[test]
    fn sse2_request_never_escalates() {
        assert_eq!(Backend::resolve(Some("sse2"), ALL), Backend::Sse2);
    }

    #[test]
    fn unknown_request_behaves_like_auto() {
        assert_eq!(Backend::resolve(Some("quantum"), ALL), Backend::Avx2);
        assert_eq!(Backend::resolve(Some(""), SSE2_ONLY), Backend::Sse2);
    }

    #[test]
    fn names_round_trip_through_resolve() {
        for backend in [Backend::Scalar, Backend::Sse2, Backend::Avx2] {
            assert_eq!(Backend::resolve(Some(backend.name()), ALL), backend);
        }
    }

    #[test]
    fn active_is_a_supported_tier() {
        let feats = detect();
        match active() {
            Backend::Avx2 => assert!(feats.avx2),
            Backend::Sse2 => assert!(feats.sse2),
            Backend::Scalar => {}
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Backend::Avx2.to_string(), "avx2");
    }
}
