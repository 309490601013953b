//! The observability probes on the rekey interval path: what a batch
//! hashes, and where it spent its keys.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{Join, Scheme, SchemeConfig};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use std::sync::{Mutex, MutexGuard};

/// The global recorder is process-wide state; tests that install one
/// must not overlap.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
