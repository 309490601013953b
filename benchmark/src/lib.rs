//! End-to-end rekey-interval benchmark.
//!
//! Measures what one rekey interval costs from "batch of joins/leaves
//! arrives" to "last client has installed the new DEK", through the
//! product's own public functions — durable `rekeyd` → loopback TCP →
//! real clients — and, in a separate traced run, how that time splits
//! across engine, persist, storage and net. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

/// Seconds one run measures for unless told otherwise; `run_seconds`
/// in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// `benchmark/out/`: temp data dirs, trace files, `results.json`.
/// `cargo run` and `cargo test` export the manifest directory; a binary
/// started by hand falls back to where it was built.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}
