//! Runtime CPU-feature detection and kernel selection.
//!
//! Exactly one kernel in the workspace is dispatched at run time:
//! SHA-256 compression ([`crate::sha256`]), which carries the scalar
//! reference plus one `std::arch` path built on the x86 SHA
//! extensions. (ChaCha20 and Poly1305 are called one block and seven
//! blocks per wrapped key and `rekey-transport`'s GF(256) routines are
//! off every rekey interval's path; each has a single implementation.)
//! This module owns the
//! *selection*, which is one bit: decided once per process from CPU
//! feature detection plus an optional `REKEY_SIMD` environment
//! override, and cached behind an atomic so the per-call cost of
//! dispatch is a single relaxed load and a jump.
//!
//! | [`Backend`] | requires                 | SHA-256 compression runs on |
//! |-------------|--------------------------|-----------------------------|
//! | `Scalar`    | nothing                  | the portable reference |
//! | `ShaNi`     | `sha`, `ssse3`, `sse4.1` | `sha256rnds2`/`sha256msg1`/`sha256msg2` |
//!
//! The SHA-NI path is pinned **byte-identical** to the scalar
//! reference by `crates/crypto/tests/simd_equiv.rs`, so selection can
//! never change an output byte — only wall-clock time.
//!
//! # Override
//!
//! `REKEY_SIMD=off` (or `scalar`) forces the reference. Every other
//! value — unset, `auto`, the retired tier names `sse2`/`avx2`,
//! garbage — selects `ShaNi` exactly when the CPU has it: the
//! dispatcher never selects an unsupported instruction set and never
//! aborts a server over a misspelt variable (see [`Backend::resolve`],
//! which is pure and unit-tested for exactly this).

use std::sync::atomic::{AtomicU8, Ordering};

/// Which SHA-256 compression function the process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable reference implementation.
    Scalar,
    /// The x86 SHA-extensions kernel. Hashers asked for it on a CPU
    /// without the instructions run the reference instead (the
    /// intrinsics are reachable only through a feature-checked token,
    /// see [`crate::sha256`]).
    ShaNi,
}

impl Backend {
    /// Short lowercase name (`"scalar"`, `"sha_ni"`), as used in bench
    /// JSON, diagnostics and obs counter suffixes.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::ShaNi => "sha_ni",
        }
    }

    /// Resolves a request (usually from `REKEY_SIMD`) against the
    /// detected CPU features. Pure, so it is unit-tested without
    /// touching global state.
    ///
    /// `"off"` and `"scalar"` force the reference on any CPU; anything
    /// else — `None`, `"auto"`, a retired tier name, an unknown string
    /// — picks `ShaNi` iff the CPU supports it (selection must never
    /// abort a server).
    pub fn resolve(request: Option<&str>, features: CpuFeatures) -> Backend {
        match request {
            Some("off") | Some("scalar") => Backend::Scalar,
            _ if features.sha_ni => Backend::ShaNi,
            _ => Backend::Scalar,
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
    /// Everything the SHA-NI SHA-256 kernel executes: the SHA
    /// extensions plus the SSSE3 and SSE4.1 shuffles around them.
    pub sha_ni: bool,
}

impl CpuFeatures {
    /// Everything off — what non-x86 targets report.
    pub const NONE: CpuFeatures = CpuFeatures { sha_ni: false };
}

/// Detects the CPU features of the running machine.
pub fn detect() -> CpuFeatures {
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    {
        CpuFeatures {
            sha_ni: std::arch::is_x86_feature_detected!("ssse3")
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
        2 => Some(Backend::ShaNi),
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
/// For benches and diagnostics that sweep both backends in one process
/// (`perf_crypto` measures them back to back). Forcing `ShaNi` on a
/// CPU without it is harmless — hashers fall back to the reference —
/// but callers must not race concurrent crypto work; tests that only
/// need per-call control should use [`crate::sha256::Sha256::new_with`]
/// instead.
pub fn force(backend: Backend) {
    ACTIVE.store(encode(backend), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHA_NI: CpuFeatures = CpuFeatures { sha_ni: true };

    /// Each feature set with the backend an un-forced request gets.
    const HOSTS: [(CpuFeatures, Backend); 2] = [
        (SHA_NI, Backend::ShaNi),
        (CpuFeatures::NONE, Backend::Scalar),
    ];

    // The three tests below are the whole `REKEY_SIMD` table: two
    // values force the reference on any CPU, everything else follows
    // the CPU.

    #[test]
    fn off_always_forces_scalar() {
        for (features, _) in HOSTS {
            assert_eq!(Backend::resolve(Some("off"), features), Backend::Scalar);
            assert_eq!(Backend::resolve(Some("scalar"), features), Backend::Scalar);
        }
    }

    #[test]
    fn auto_picks_best_supported() {
        for (features, follows_cpu) in HOSTS {
            assert_eq!(Backend::resolve(None, features), follows_cpu);
            assert_eq!(Backend::resolve(Some("auto"), features), follows_cpu);
        }
    }

    /// Retired tier names and garbage alike.
    #[test]
    fn unknown_request_behaves_like_auto() {
        for (features, follows_cpu) in HOSTS {
            for request in ["sse2", "avx2", "", "quantum"] {
                assert_eq!(
                    Backend::resolve(Some(request), features),
                    follows_cpu,
                    "{request:?} {features:?}"
                );
            }
        }
    }

    #[test]
    fn names_round_trip_through_resolve() {
        for backend in [Backend::Scalar, Backend::ShaNi] {
            assert_eq!(Backend::resolve(Some(backend.name()), SHA_NI), backend);
        }
    }

    #[test]
    fn active_is_a_supported_tier() {
        if active() == Backend::ShaNi {
            assert!(detect().sha_ni);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Backend::Scalar.to_string(), "scalar");
        assert_eq!(Backend::ShaNi.to_string(), "sha_ni");
    }
}
