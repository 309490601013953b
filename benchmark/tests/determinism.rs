//! Same seed ⇒ same batches, same bandwidth, same wire bytes — across
//! two runs and between the traced and the untraced run (the wrappers
//! must not perturb a byte).

use rekey_benchmark::metrics::{END_TO_END, MAX_RESIDUAL_PCT, PER_LAYER};
use rekey_benchmark::run::{run_workload, RunConfig, RunReport, Stop};
use rekey_benchmark::workload::WORKLOADS;

/// Measured intervals per test run: past the first snapshot, so the
/// round ends on a real crash and recovery.
const INTERVALS: usize = 12;

fn run(workload: usize, seed: u64, trace: bool, tag: &str) -> RunReport {
    let report = run_workload(
        &WORKLOADS[workload],
        &RunConfig {
            seed,
            stop: Stop::Intervals(INTERVALS),
            trace,
            // One directory per run: tests of one binary run in parallel.
            out_dir: rekey_benchmark::out_dir().join("test").join(tag),
        },
    );
    assert_eq!(report.errors, Vec::<String>::new(), "{tag}");
    assert_eq!(report.failed, 0, "{tag}");
    assert!(report.attempted as usize >= INTERVALS, "{tag}");
    report
}

fn metric(report: &RunReport, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{}: no metric {name}", report.workload))
        .value
}

fn check_workload(index: usize) {
    let name = WORKLOADS[index].name;
    std::fs::create_dir_all(rekey_benchmark::out_dir().join("test")).expect("out dir");
    let first = run(index, 7, false, &format!("{name}-a"));
    let second = run(index, 7, false, &format!("{name}-b"));
    let traced = run(index, 7, true, &format!("{name}-t"));
    let other_seed = run(index, 8, false, &format!("{name}-c"));

    for (what, other) in [("second run", &second), ("traced run", &traced)] {
        assert_eq!(
            first.batch_digest, other.batch_digest,
            "{name}: batches, {what}"
        );
        assert_eq!(
            first.wire_digest, other.wire_digest,
            "{name}: wire digest, {what}"
        );
    }
    for bandwidth in ["encrypted_keys_per_interval", "wire_bytes_per_interval"] {
        assert_eq!(
            metric(&first, bandwidth),
            metric(&second, bandwidth),
            "{name}"
        );
    }
    assert_ne!(
        first.batch_digest, other_seed.batch_digest,
        "{name}: seed ignored"
    );
    assert_ne!(
        first.wire_digest, other_seed.wire_digest,
        "{name}: seed ignored"
    );

    // Each run reports exactly its table, with values a user could see.
    let names = |r: &RunReport| r.metrics.iter().map(|m| m.name).collect::<Vec<_>>();
    assert_eq!(names(&first), END_TO_END.map(|d| d.name), "{name}");
    assert_eq!(names(&traced), PER_LAYER.map(|d| d.name), "{name}");
    for m in &first.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{name}: {} = {}",
            m.name,
            m.value
        );
    }
    for m in &traced.metrics {
        // A difference of two timings can land on either side of zero.
        let signed = m.name == "trace.overhead_pct";
        assert!(
            m.value.is_finite() && (signed || m.value >= 0.0),
            "{name}: {} = {}",
            m.name,
            m.value
        );
    }

    // The layers' self-times account for the timed region, and no NACK,
    // retransmission or reconnect happened outside a recovery.
    assert!(
        metric(&traced, "trace.residual_pct") <= MAX_RESIDUAL_PCT,
        "{name}"
    );
    for steady_zero in [
        "net.nacks",
        "net.retransmit_frames",
        "net.client_reconnects",
    ] {
        assert_eq!(metric(&traced, steady_zero), 0.0, "{name}: {steady_zero}");
    }
    let trace_file = rekey_benchmark::out_dir()
        .join("test")
        .join(format!("{name}-t"))
        .join(format!("{name}.trace.json"));
    let trace_text = std::fs::read_to_string(&trace_file).expect("trace file written");
    let summary = rekey_obs::chrome::validate_trace(&trace_text).expect("trace validates");
    for span in [
        "interval",
        "recovery",
        "core.engine.process_interval",
        "storage.sync_wal",
    ] {
        assert!(summary.span_names.contains(span), "{name}: no {span} span");
    }

    // Temp data dirs are gone.
    for tag in ["a", "b", "t", "c"] {
        let tmp = rekey_benchmark::out_dir()
            .join("test")
            .join(format!("{name}-{tag}"))
            .join("tmp");
        let left = std::fs::read_dir(&tmp).map_or(0, Iterator::count);
        assert_eq!(left, 0, "{name}: data dirs left in {}", tmp.display());
    }
}

// The traced runs install a process-global recorder, so the workloads
// are checked one after another, not as parallel tests.
#[test]
fn same_seed_same_bytes_traced_or_not() {
    for index in 0..WORKLOADS.len() {
        check_workload(index);
    }
}
