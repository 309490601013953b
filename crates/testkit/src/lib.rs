//! End-to-end correctness harness for the group key management
//! schemes: a deterministic churn fuzzer with a shadow key-knowledge
//! oracle.
//!
//! The pieces, in pipeline order:
//!
//! - [`scenario`] — seed-driven generation of churn scenarios (joins
//!   with duration/loss hints, leaves, mass departures, loss-class
//!   changes) with a compact replayable byte encoding. Same seed ⇒
//!   byte-identical scenario.
//! - [`oracle`] — a [`oracle::KnowledgeOracle`] built purely from the
//!   multicast rekey messages, independent of server internals: for
//!   every `(node, version)` key ever on the wire, the exact member
//!   set entitled to it.
//! - [`farm`] — a [`farm::MemberFarm`] of real [`GroupMember`]s fed
//!   only *encoded wire bytes* through a delivery model (lossless,
//!   Bernoulli loss, or the WKA-BKR reliable transport). Departed
//!   members keep receiving everything, modelling a replay adversary.
//! - [`runner`] — [`runner::drive`], the one interval loop every run
//!   of a scenario goes through; [`runner::run_scenario`] glues the
//!   three above into its callback and checks forward secrecy, ring
//!   soundness, DEK confinement, bookkeeping, and (on complete
//!   deliveries) liveness after every interval; [`runner::shrink`]
//!   minimizes failures to a small replayable counterexample.
//! - [`bugs`] — deliberately defective manager wrappers proving the
//!   oracle catches the bug classes it targets.
//! - [`crashsim`] — crash/recovery equivalence: scenarios journaled to
//!   an in-memory [`rekey_storage::Storage`], killed and recovered on
//!   a schedule, must reproduce the uninterrupted run byte-for-byte.
//! - [`workload`] — named churn generators (the paper's §3.3.1
//!   process `paper`, and the trace-driven `uniform`, `diurnal`,
//!   `flash-crowd`, `mobile-flap`, `regional-loss`) that compile down
//!   to [`Scenario`]s, plus an observed runner reporting bandwidth,
//!   rekey-latency percentiles, and peak tree size.
//! - [`trace`] — the replayable trace file format: a compiled
//!   scenario tagged with its generator name, with typed decode
//!   errors.
//!
//! [`GroupMember`]: rekey_keytree::member::GroupMember

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bugs;
pub mod crashsim;
pub mod farm;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod workload;

pub use crashsim::{run_with_crashes, run_with_rejected_batches, CrashSimReport};
pub use farm::{Delivery, FarmError, MemberFarm};
pub use oracle::KnowledgeOracle;
pub use runner::{
    drive, run_scenario, run_scenario_with, shrink, IntervalObservation, RunOptions, RunStats,
    ShrinkReport, Step, Violation,
};
pub use scenario::{GenParams, IntervalOps, JoinOp, Scenario, ScenarioError};
pub use trace::{Trace, TraceError};
pub use workload::{
    all_workloads, run_workload, workload_by_name, Paper, Workload, WorkloadRun, WORKLOAD_NAMES,
};

use rekey_core::scheme::{Scheme, SchemeConfig};
use rekey_core::GroupKeyManager;

/// A [`runner::ManagerFactory`] for a scheme, reading degree and
/// S-period from each scenario so a shrunk scenario rebuilds the
/// identical configuration. All construction goes through
/// [`Scheme::build`] — the testkit maintains no factory of its own.
pub fn factory_for(scheme: Scheme) -> impl Fn(&Scenario) -> Box<dyn GroupKeyManager> {
    move |s: &Scenario| {
        scheme.build(
            &SchemeConfig::new()
                .degree(s.degree as usize)
                .s_period(u64::from(s.k)),
        )
    }
}
