//! Integration tests for the observability pipeline: a real simulation
//! run must export a valid, balanced Chrome trace and a metrics dump,
//! and turning the recorder on must not change a single reported
//! number (the determinism guard).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::partition::TtManager;
use rekey_core::{Join, Scheme, SchemeConfig};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use rekey_sim::driver::{run_scheme, SimConfig, SimReport};
use rekey_sim::membership::{MembershipGenerator, MembershipParams};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The global recorder is process-wide state; tests that install one
/// must not overlap.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rekey-obs-it-{}-{name}", std::process::id()))
}

fn params() -> MembershipParams {
    MembershipParams {
        target_size: 300,
        ..MembershipParams::paper_default()
    }
}

fn run(config: &SimConfig) -> SimReport {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut generator = MembershipGenerator::new(params(), &mut rng);
    let mut manager = TtManager::new(4, 5);
    run_scheme(&mut manager, &mut generator, config, &mut rng)
}

#[test]
fn sim_run_exports_valid_trace_and_metrics() {
    let _guard = global_lock();
    let trace_path = scratch("trace.json");
    let metrics_path = scratch("metrics.prom");
    let config = SimConfig {
        intervals: 8,
        warmup: 2,
        trace: Some(trace_path.to_string_lossy().into_owned()),
        metrics: Some(metrics_path.to_string_lossy().into_owned()),
        ..SimConfig::quick()
    };
    let report = run(&config);

    // The trace validates: well-formed JSON, balanced begin/end per
    // thread, counters with numeric values.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
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
    // Per-interval gauge tracks ride along as counter events.
    for track in [
        "sim.joins",
        "sim.leaves",
        "sim.encrypted_keys",
        "sim.message_bytes",
    ] {
        assert!(
            summary.counter_names.contains(track),
            "counter {track:?} missing from trace"
        );
    }

    // The metrics dump carries the crypto counters and the bandwidth
    // gauges in Prometheus text form.
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    for needle in [
        "crypto_chacha20_blocks_total",
        "crypto_poly1305_total",
        "crypto_keywrap_wrap_total",
        "rekey_encrypted_keys_total",
        "rekey_nodes_compromised_total",
        "rekey_nodes_join_only_total",
        "rekey_execute_seconds",
        "sim_message_bytes",
    ] {
        assert!(
            metrics.contains(needle),
            "metrics dump missing {needle}:\n{metrics}"
        );
    }

    // The run itself measured something, and the recorder saw the
    // phases it reports on.
    assert!(report.mean_keys_per_interval > 0.0);
    assert!(report.phases.execute_s > 0.0, "execute phase unobserved");

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
}

#[test]
fn tracing_does_not_change_reported_numbers() {
    let _guard = global_lock();
    let trace_path = scratch("determinism-trace.json");
    let plain = run(&SimConfig {
        intervals: 8,
        warmup: 2,
        ..SimConfig::quick()
    });
    let traced = run(&SimConfig {
        intervals: 8,
        warmup: 2,
        trace: Some(trace_path.to_string_lossy().into_owned()),
        ..SimConfig::quick()
    });

    // Everything except the wall-clock phase breakdown is identical.
    assert_eq!(plain.intervals, traced.intervals);
    assert_eq!(plain.mean_keys_per_interval, traced.mean_keys_per_interval);
    assert_eq!(plain.keys_summary, traced.keys_summary);
    assert_eq!(plain.final_size, traced.final_size);
    // The plain run had no recorder, so its breakdown is all zeros.
    assert_eq!(plain.phases.mutate_s, 0.0);
    assert_eq!(plain.phases.plan_s, 0.0);
    assert_eq!(plain.phases.execute_s, 0.0);

    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn message_bytes_accompany_encrypted_keys() {
    // No recorder needed: the wire-size stat is part of the normal
    // report and must be consistent with the key count. The lock is
    // still taken: a sibling's process-global recorder installed or
    // removed halfway through one of this run's spans would see an end
    // without a begin and fail *its* balanced-trace check.
    let _guard = global_lock();
    let report = run(&SimConfig {
        intervals: 6,
        warmup: 2,
        ..SimConfig::quick()
    });
    for stats in &report.intervals {
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

/// A rekey interval is made of ChaCha20 and Poly1305 and nothing else:
/// no KEK is prepared, so no SHA-256 — as a digest, an HMAC or an HKDF
/// — runs between a batch arriving and its message being complete.
/// Counted, so a set-up step cannot creep back into `WrapKek::new`.
#[test]
fn a_rekey_interval_hashes_nothing() {
    let _guard = global_lock();
    let mut rng = StdRng::seed_from_u64(1024);
    let mut manager = Scheme::Tt.build(&SchemeConfig::new());
    let mut join = |id: u64| Join::new(MemberId(id), Key::generate(&mut rng));
    let founders: Vec<Join> = (0..1024).map(&mut join).collect();
    let newcomers: Vec<Join> = (2000..2024).map(&mut join).collect();
    let leavers: Vec<MemberId> = (0..1024).step_by(41).map(MemberId).collect();
    manager
        .process_interval(&founders, &[], &mut rng)
        .expect("bootstrap");

    let collector = std::sync::Arc::new(rekey_obs::Collector::new());
    rekey_obs::install(collector.clone());
    let outcome = manager.process_interval(&newcomers, &leavers, &mut rng);
    rekey_obs::uninstall();
    let keys = outcome.expect("mixed batch").stats.encrypted_keys as u64;
    let seen = collector.snapshot();

    assert!(keys > 100, "a mixed batch at N = 1 024 wraps {keys} keys");
    for hashed in [
        "crypto.hmac",
        "crypto.hkdf",
        "crypto.sha256_digests.scalar",
        "crypto.sha256_digests.sha_ni",
    ] {
        assert_eq!(seen.counter(hashed), 0, "{hashed} on the interval path");
    }
    assert_eq!(seen.counter("crypto.keywrap.wrap"), keys);
    assert_eq!(seen.counter("crypto.poly1305"), keys);
    assert_eq!(seen.counter("crypto.chacha20_blocks"), 2 * keys);
}

/// The two node counters split a batch's refreshed keys by what each
/// cost: a wrap per child (a leaver sat below it, or a leaf split made
/// it) or the previous key plus the changed children.
#[test]
fn node_counters_say_where_a_batch_spent_its_keys() {
    use rekey_keytree::server::LkhServer;

    let _guard = global_lock();
    let mut rng = StdRng::seed_from_u64(24);
    let mut key_rng = StdRng::seed_from_u64(25);
    let mut server = LkhServer::new(4, 0);
    let mut joiners = |ids: std::ops::Range<u64>| -> Vec<(MemberId, Key)> {
        ids.map(|id| (MemberId(id), Key::generate(&mut key_rng)))
            .collect()
    };
    let founders = joiners(0..256);
    // More joiners than vacancies: some land beside nobody who left.
    let newcomers = joiners(256..296);
    server.apply_batch(&founders, &[], &mut rng);

    let collector = std::sync::Arc::new(rekey_obs::Collector::new());
    rekey_obs::install(collector.clone());
    let stats = server
        .apply_batch(&newcomers, &[MemberId(3), MemberId(200)], &mut rng)
        .stats;
    rekey_obs::uninstall();
    let seen = collector.snapshot();

    let compromised = seen.counter("rekey.nodes.compromised");
    let join_only = seen.counter("rekey.nodes.join_only");
    assert!(
        compromised > 0 && join_only > 0,
        "{compromised} + {join_only}"
    );
    assert_eq!(compromised + join_only, stats.refreshed_keys as u64);
    assert_eq!(
        seen.counter("rekey.encrypted_keys"),
        stats.encrypted_keys as u64
    );
}
