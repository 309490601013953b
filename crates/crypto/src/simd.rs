//! Runtime CPU-feature detection and kernel selection.
//!
//! Exactly one kernel in the workspace is dispatched at run time:
//! SHA-256 compression ([`crate::sha256`]), which carries the scalar
//! reference plus one `std::arch` path built on the x86 SHA
//! extensions. (ChaCha20 and Poly1305 are called one block and seven
//! blocks per wrapped key and `rekey-transport`'s GF(256) routines are
//! off every rekey interval's path; each has a single implementation.)
//! This module owns the *selection*, which is one bit and the CPU's:
//! [`active`] is `ShaNi` exactly when [`detect`] finds the
//! instructions (std caches the detection, so a call is a few relaxed
//! loads). No switch overrides it; tests and benches that need the
//! other kernel name it per call ([`crate::sha256::digest_with`]).
//!
//! | [`Backend`] | requires                 | SHA-256 compression runs on |
//! |-------------|--------------------------|-----------------------------|
//! | `Scalar`    | nothing                  | the portable reference |
//! | `ShaNi`     | `sha`, `ssse3`, `sse4.1` | `sha256rnds2`/`sha256msg1`/`sha256msg2` |
//!
//! The SHA-NI path is pinned **byte-identical** to the scalar
//! reference by `crates/crypto/tests/simd_equiv.rs`, so selection can
//! never change an output byte — only wall-clock time.

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

/// The backend this process runs: `ShaNi` exactly when the CPU has
/// the SHA extensions.
#[inline]
pub fn active() -> Backend {
    if detect().sha_ni {
        Backend::ShaNi
    } else {
        Backend::Scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_a_supported_tier() {
        assert_eq!(active() == Backend::ShaNi, detect().sha_ni);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Backend::Scalar.to_string(), "scalar");
        assert_eq!(Backend::ShaNi.to_string(), "sha_ni");
    }
}
