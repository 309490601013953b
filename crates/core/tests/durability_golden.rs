//! The bytes the durability path leaves behind are frozen.
//!
//! Every digest and the fixture data directory in this file were
//! produced by the commit *before* the storage crate got its
//! table-driven CRC and copy-free seal/unseal (PR 20): a data dir
//! written by either side of that change must recover under the other,
//! so the same script must still write the same bytes, and the
//! committed directory must still restore.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{DurationClass, GroupKeyManager, Join, Journal, Scheme, SchemeConfig};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::MemberId;
use rekey_storage::{DirStorage, MemStorage, Storage, SNAPSHOT_FILE, WAL_FILE};
use std::path::{Path, PathBuf};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The fixed churn script: interval `i` admits `joins_per` members
/// (every third hinted short-lived, every fourth hinted lossy, so the
/// partitioned and loss-aware schemes place them differently) and,
/// from the third interval on, evicts the first joiner of two
/// intervals ago. `after` sees the journal once per interval.
fn run_script<S: Storage>(
    journal: &mut Journal<S>,
    manager: &mut dyn GroupKeyManager,
    rng: &mut StdRng,
    intervals: u64,
    joins_per: u64,
    mut after: impl FnMut(&mut Journal<S>),
) {
    for i in 0..intervals {
        let joins: Vec<Join> = (0..joins_per)
            .map(|j| {
                let id = 100 * (i + 1) + j;
                let mut join = Join::new(MemberId(id), Key::generate(rng));
                if id % 3 == 0 {
                    join = join.with_class(DurationClass::Short);
                }
                if id % 4 == 0 {
                    join = join.with_loss_rate(0.2);
                }
                join
            })
            .collect();
        let leaves: Vec<MemberId> = if i >= 2 {
            vec![MemberId(100 * (i - 1))]
        } else {
            Vec::new()
        };
        journal
            .durable_interval(manager, &joins, &leaves, rng, &mut |_: &RekeyMessage| {})
            .expect("durable interval");
        after(journal);
    }
}

/// sha256 over the framed WAL stream and the sealed snapshot as they
/// stand after each of 12 intervals (snapshot every 4).
fn storage_digest(scheme: Scheme) -> String {
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let mut manager = scheme.build(&SchemeConfig::default());
    let mut journal = Journal::new(MemStorage::new(), 4);
    let mut hasher = Sha256::new();
    run_script(&mut journal, &mut *manager, &mut rng, 12, 5, |journal| {
        let storage = journal.storage_mut();
        hasher.update(&(storage.wal_bytes().len() as u64).to_be_bytes());
        hasher.update(storage.wal_bytes());
        let snapshot = storage.snapshot_bytes().unwrap_or_default();
        hasher.update(&(snapshot.len() as u64).to_be_bytes());
        hasher.update(&snapshot);
    });
    hex(&hasher.finalize())
}

#[test]
fn wal_and_snapshot_bytes_are_frozen() {
    assert_eq!(
        storage_digest(Scheme::Tt),
        "4ed354da3c6683000ca7adfbf8c24124ae7f6ca79fbd18004e778231ba6aa37a"
    );
    assert_eq!(
        storage_digest(Scheme::Combined),
        "23690979a094f1e7565dbdaf1b4805e0da480be809f8641e223f8f08e26bfbff"
    );
}

// ---------------------------------------------------------------------
// The parent-written data directory
// ---------------------------------------------------------------------

const FIXTURE_EPOCH: u64 = 6;
const FIXTURE_DEK: &str = "c8ffe63700b5babb89b62aa155a7dbe909317b1529612449ba43c9519c00b1f2";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/datadir-pr19")
}

fn fixture_manager() -> Box<dyn GroupKeyManager> {
    Scheme::Tt.build(&SchemeConfig::default().degree(3).s_period(2))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rekey-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// How `tests/fixtures/datadir-pr19` was written: six intervals of the
/// script, two joins each, snapshot every four — so the directory holds
/// a snapshot at epoch 4 and a two-record WAL tail.
fn write_fixture_script(dir: &Path) -> Box<dyn GroupKeyManager> {
    let mut rng = StdRng::seed_from_u64(0xF1C5);
    let mut manager = fixture_manager();
    let mut journal = Journal::new(DirStorage::open(dir).expect("open"), 4);
    run_script(&mut journal, &mut *manager, &mut rng, 6, 2, |_| {});
    manager
}

#[test]
fn parent_written_data_dir_still_recovers() {
    // Recovery repairs and reopens files for append: work on a copy.
    let dir = scratch_dir("recover");
    for name in [WAL_FILE, SNAPSHOT_FILE] {
        std::fs::copy(fixture_dir().join(name), dir.join(name)).expect("copy fixture");
    }
    let mut manager = fixture_manager();
    let mut journal = Journal::new(DirStorage::open(&dir).expect("open"), 4);
    let recovery = journal.recover(&mut *manager).expect("recover");
    assert!(recovery.snapshot_loaded);
    assert_eq!(recovery.replayed, 2);
    assert_eq!(recovery.dropped_wal_bytes, 0);
    assert_eq!(recovery.epoch, FIXTURE_EPOCH);
    assert_eq!(hex(manager.dek().as_bytes()), FIXTURE_DEK);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn this_commit_writes_the_parents_files() {
    let dir = scratch_dir("rewrite");
    let manager = write_fixture_script(&dir);
    assert_eq!(hex(manager.dek().as_bytes()), FIXTURE_DEK);
    for name in [WAL_FILE, SNAPSHOT_FILE] {
        assert_eq!(
            std::fs::read(dir.join(name)).expect("written"),
            std::fs::read(fixture_dir().join(name)).expect("fixture"),
            "{name} differs from the parent-written file"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
