//! Integration tests for the observability pipeline: a run of the
//! paper's membership process must export a valid, balanced Chrome
//! trace and a metrics dump, and turning the recorder on must not
//! change a single reported number (the determinism guard).

use rekey_core::{IntervalStats, Scheme};
use rekey_obs::Collector;
use rekey_testkit::{
    drive, factory_for, run_scenario, GenParams, Paper, RunOptions, RunStats, Scenario, Workload,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// The global recorder is process-wide state; tests that install one
/// must not overlap.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A 300-member session of the `paper` workload, for TT with K = 5.
fn session(intervals: usize) -> Scenario {
    let params = GenParams {
        bootstrap: 300,
        degree: 4,
        k: 5,
        ..GenParams::default()
    };
    Paper::default().compile(4242, intervals, &params)
}

/// An unchecked TT run: the aggregates and every interval's stats.
fn run(scenario: &Scenario) -> (RunStats, Vec<IntervalStats>) {
    let mut intervals = Vec::new();
    let stats = drive(factory_for(Scheme::Tt), scenario, |step| {
        intervals.push(step.outcome.stats);
        Ok(())
    })
    .expect("compiled batches are consistent");
    (stats, intervals)
}

#[test]
fn sim_run_exports_valid_trace_and_metrics() {
    let _guard = global_lock();
    let collector = Arc::new(Collector::new());
    rekey_obs::install(collector.clone());
    let mut checked = 0;
    let run = run_scenario(
        &factory_for(Scheme::Tt),
        &session(10),
        &RunOptions::default(),
        |_| checked += 1,
    );
    let execute_ns = rekey_obs::total_time_ns("rekey.execute");
    rekey_obs::uninstall();
    let run = run.unwrap_or_else(|violation| panic!("{violation}"));

    // The trace validates: well-formed JSON, balanced begin/end per
    // thread, counters with numeric values.
    let trace = collector.chrome_trace_json();
    let summary = rekey_obs::chrome::validate_trace(&trace).expect("exported trace is valid");
    assert_eq!(summary.begin_events, summary.end_events);
    assert!(summary.begin_events > 0, "trace has no spans");

    // Every engine phase shows up.
    for phase in ["rekey.batch", "rekey.mutate", "rekey.plan", "rekey.execute"] {
        assert!(
            summary.span_names.contains(phase),
            "span {phase:?} missing from trace (have {:?})",
            summary.span_names
        );
    }
    // The driver's per-interval samples ride along as counter tracks.
    for track in [
        "sim.joins",
        "sim.leaves",
        "sim.migrations",
        "sim.encrypted_keys",
        "sim.message_bytes",
        "sim.members",
    ] {
        assert!(
            summary.counter_names.contains(track),
            "counter track {track:?} missing from trace (have {:?})",
            summary.counter_names
        );
    }

    // The metrics dump carries the crypto counters, the node counters
    // and the driver's bandwidth gauge in Prometheus text form.
    let metrics = collector.prometheus_text();
    for needle in [
        "crypto_chacha20_blocks_total",
        "crypto_poly1305_total",
        "crypto_keywrap_wrap_total",
        "rekey_encrypted_keys_total",
        "rekey_nodes_compromised_total",
        "rekey_nodes_join_only_total",
        "rekey_nodes_derived_total",
        "crypto_key_derive_total",
        "rekey_execute_seconds",
        "sim_message_bytes",
    ] {
        assert!(
            metrics.contains(needle),
            "metrics dump missing {needle}:\n{metrics}"
        );
    }

    // The run itself measured something, the caller saw every checked
    // interval, and the recorder saw the phases it reports on.
    assert!(run.total_bytes > 0);
    assert_eq!(checked, run.intervals);
    assert!(execute_ns > 0, "execute phase unobserved");
}

#[test]
fn tracing_does_not_change_reported_numbers() {
    let _guard = global_lock();
    let scenario = session(10);
    let plain = run(&scenario);
    rekey_obs::install(Arc::new(Collector::new()));
    let traced = run(&scenario);
    rekey_obs::uninstall();

    // Digest, entry and byte totals, and every interval's stats.
    assert_eq!(plain, traced);
}

#[test]
fn message_bytes_accompany_encrypted_keys() {
    // No recorder needed: the wire-size stat is part of every interval's
    // outcome and must be consistent with the key count. The lock is
    // still taken: a sibling's process-global recorder installed or
    // removed halfway through one of this run's spans would see an end
    // without a begin and fail *its* balanced-trace check.
    let _guard = global_lock();
    let (_, intervals) = run(&session(8));
    for stats in &intervals {
        if stats.encrypted_keys > 0 {
            assert!(
                stats.message_bytes > stats.encrypted_keys,
                "message bytes ({}) should exceed the key count ({}) — every entry carries \
                 a header plus a wrapped key",
                stats.message_bytes,
                stats.encrypted_keys
            );
        } else {
            assert_eq!(stats.message_bytes, 0);
        }
    }
}
