//! Runtime CPU-feature detection and kernel selection.
//!
//! Two kernels in the workspace are dispatched at run time, each with
//! a portable reference and one `std::arch` path, each selected by one
//! bit the CPU reports:
//!
//! | kernel | reference | fast path | requires |
//! |---|---|---|---|
//! | SHA-256 compression ([`crate::sha256`]) | scalar | `sha256rnds2`/`sha256msg1`/`sha256msg2` | `sha`, `ssse3`, `sse4.1` |
//! | a lane group of 8 wraps ([`crate::keywrap::seal_lanes`]) | 8 × [`crate::keywrap::WrapKek::seal`] | ChaCha20 in 8 × 32-bit lanes, Poly1305 in 2 × 4 × 64-bit lanes | `avx2` |
//!
//! Per wrap of a rekey entry (49-byte binding, 112 bytes of MAC
//! input), single-threaded on a 2-core AVX2 + SHA-NI host: the scalar
//! seal ≈ 203 ns (ChaCha20 block ≈ 116 ns; Poly1305 ≈ 93 ns fed in
//! five `update` calls, ≈ 77 ns in the two it takes now); the lane
//! group ≈ 76 ns, of which Poly1305 ≈ 25 ns. (A ChaCha20 stream and
//! `rekey-transport`'s GF(256) routines are off every rekey interval's
//! path; each has a single implementation.)
//!
//! This module owns the *selection*: [`active`] is `ShaNi` exactly
//! when [`detect`] finds the SHA extensions, and
//! [`LaneKernel::active`] is `Avx2` exactly when it
//! finds AVX2 (std caches the detection, so a call is a few relaxed
//! loads). No switch overrides either; tests and benches that need the
//! other kernel name it per call ([`crate::sha256::digest_with`],
//! [`crate::keywrap::seal_lanes_with`]).
//!
//! | [`Backend`] | requires                 | SHA-256 compression runs on |
//! |-------------|--------------------------|-----------------------------|
//! | `Scalar`    | nothing                  | the portable reference |
//! | `ShaNi`     | `sha`, `ssse3`, `sse4.1` | `sha256rnds2`/`sha256msg1`/`sha256msg2` |
//!
//! Both fast paths are pinned **byte-identical** to their references
//! by `crates/crypto/tests/simd_equiv.rs`, so selection can never
//! change an output byte — only wall-clock time.

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

/// Which kernel runs a lane group ([`crate::keywrap::seal_lanes_with`],
/// [`crate::poly1305::mac_lanes_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKernel {
    /// The scalar kernels once per lane.
    Scalar,
    /// ChaCha20 in eight 32-bit lanes, Poly1305 in two groups of four
    /// 64-bit lanes. A group asked for it on a CPU without AVX2 runs
    /// `Scalar` (the intrinsics are reachable only through a
    /// feature-checked token).
    Avx2,
}

impl LaneKernel {
    /// The kernel this process runs: `Avx2` exactly when the CPU has
    /// AVX2.
    #[inline]
    pub fn active() -> LaneKernel {
        if detect().avx2 {
            LaneKernel::Avx2
        } else {
            LaneKernel::Scalar
        }
    }

    /// Short lowercase name (`"scalar"`, `"avx2"`), as used in bench
    /// JSON and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LaneKernel::Scalar => "scalar",
            LaneKernel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for LaneKernel {
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
    /// What the wrap lane kernel executes: AVX2.
    pub avx2: bool,
}

impl CpuFeatures {
    /// Everything off — what non-x86 targets report.
    pub const NONE: CpuFeatures = CpuFeatures {
        sha_ni: false,
        avx2: false,
    };
}

/// Detects the CPU features of the running machine.
pub fn detect() -> CpuFeatures {
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    {
        CpuFeatures {
            sha_ni: std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
                && std::arch::is_x86_feature_detected!("sha"),
            avx2: std::arch::is_x86_feature_detected!("avx2"),
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
    fn lane_kernel_follows_avx2() {
        assert_eq!(LaneKernel::active() == LaneKernel::Avx2, detect().avx2);
        assert_eq!(LaneKernel::Avx2.to_string(), "avx2");
        assert_eq!(LaneKernel::Scalar.to_string(), "scalar");
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Backend::Scalar.to_string(), "scalar");
        assert_eq!(Backend::ShaNi.to_string(), "sha_ni");
    }
}
