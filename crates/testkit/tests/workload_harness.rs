//! End-to-end coverage for the workload layer: the non-uniform
//! generators drive every scheme through the full oracle + member-farm
//! invariant suite, and compilation and execution are pinned
//! deterministic (byte-identical traces across runs).

use rekey_core::Scheme;
use rekey_testkit::{
    factory_for, run_scenario, workload_by_name, Delivery, GenParams, RunOptions, Trace,
    WORKLOAD_NAMES,
};

fn compile(name: &str, seed: u64, intervals: usize) -> rekey_testkit::Scenario {
    workload_by_name(name)
        .expect("registered generator")
        .compile(seed, intervals, &GenParams::default())
}

/// Runs one generator across all seven schemes under lossless delivery
/// (so liveness is asserted every interval, on top of forward secrecy,
/// ring soundness, and DEK confinement).
fn all_schemes_pass(name: &str, seed: u64) {
    let scenario = compile(name, seed, 60);
    for &scheme in &Scheme::ALL {
        let (mut checked, mut peak_members) = (0, 0);
        let stats = run_scenario(
            &factory_for(scheme),
            &scenario,
            &RunOptions::default(),
            |step| {
                checked += 1;
                peak_members = peak_members.max(step.manager.member_count());
            },
        )
        .unwrap_or_else(|v| panic!("{name}/{}: {v}", scheme.name()));
        assert_eq!(stats.intervals, 61);
        assert_eq!(checked, 61);
        assert!(peak_members >= stats.final_members);
    }
}

#[test]
fn flash_crowd_passes_every_scheme() {
    all_schemes_pass("flash-crowd", 11);
}

#[test]
fn mobile_flap_passes_every_scheme() {
    all_schemes_pass("mobile-flap", 12);
}

/// The rejoin-heavy and mass-drain shapes also survive the lossy
/// reliable transport (liveness is only asserted on complete
/// deliveries there; secrecy invariants run every interval).
#[test]
fn stress_generators_pass_under_wka() {
    for name in ["flash-crowd", "mobile-flap"] {
        let scenario = compile(name, 21, 40);
        let opts = RunOptions {
            delivery: Delivery::WkaBkr,
        };
        for scheme in [Scheme::Tt, Scheme::LossForest] {
            run_scenario(&factory_for(scheme), &scenario, &opts, |_| {})
                .unwrap_or_else(|v| panic!("{name}/{} under wka: {v}", scheme.name()));
        }
    }
}

/// Same (generator, seed, intervals) triple ⇒ byte-identical trace
/// file, every time. This is the replay contract the sweep relies on.
#[test]
fn traces_are_byte_identical_across_compiles() {
    for name in WORKLOAD_NAMES {
        let first = Trace {
            generator: name.to_string(),
            scenario: compile(name, 42, 50),
        }
        .encode();
        let second = Trace {
            generator: name.to_string(),
            scenario: compile(name, 42, 50),
        }
        .encode();
        assert_eq!(first, second, "{name}: trace not deterministic");
        // And a different seed actually changes it.
        let other = Trace {
            generator: name.to_string(),
            scenario: compile(name, 43, 50),
        }
        .encode();
        assert_ne!(first, other, "{name}: seed ignored");
    }
}
