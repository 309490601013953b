//! The bytes the durability path leaves behind are frozen.
//!
//! The digests below and `tests/fixtures/datadir-record-v4` were
//! written by the planner that clusters a join-only batch's joiners
//! under the batch's own splits; the same script must still write the
//! same bytes, and the committed directory must still restore.
//! `tests/fixtures/datadir-record-v3` was written by the planner before
//! it (every joiner placed by balanced descent), `datadir-record-v2` by
//! the one before that (join-only keys advance by F, compromised ones
//! are all fresh) and `tests/fixtures/datadir-pr19` by the first one
//! (version-1 records). Their WAL records re-render their epochs
//! differently: their snapshots still restore, their records are
//! refused as `PersistError::PlannerChanged`.
//!
//! The digests moved once for each planner: each WAL record's version
//! byte, the randomness the planner no longer draws (every later RNG
//! state and key), and the advanced or derived keys in the snapshots.
//! The trees did not until the clustering: per interval the script's
//! encrypted keys before the key advance equal its encrypted keys plus
//! its advances plus its derivations after it, plus one per tree that
//! was empty when the batch began. Clustering moved those counts where
//! a join-only batch met a live tree (`KEYS_PER_INTERVAL`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::persist::RECORD_WIRE_VERSION;
use rekey_core::{
    DurationClass, GroupKeyManager, IntervalOutcome, Join, Journal, PersistError, Scheme,
    SchemeConfig,
};
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
/// intervals ago. `after` sees the journal and the interval's outcome
/// once per interval.
fn run_script<S: Storage>(
    journal: &mut Journal<S>,
    manager: &mut dyn GroupKeyManager,
    rng: &mut StdRng,
    intervals: u64,
    joins_per: u64,
    mut after: impl FnMut(&mut Journal<S>, &IntervalOutcome),
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
        let outcome = journal
            .durable_interval(manager, &joins, &leaves, rng, &mut |_: &RekeyMessage| {})
            .expect("durable interval");
        after(journal, &outcome);
    }
}

/// sha256 over the framed WAL stream and the sealed snapshot as they
/// stand after each of 12 intervals (snapshot every 4), and each
/// interval's encrypted keys plus advances plus derivations.
fn storage_digest(scheme: Scheme) -> (String, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let mut manager = scheme.build(&SchemeConfig::default());
    let mut journal = Journal::new(MemStorage::new(), 4);
    let mut hasher = Sha256::new();
    let mut changed = Vec::new();
    run_script(
        &mut journal,
        &mut *manager,
        &mut rng,
        12,
        5,
        |journal, outcome| {
            let storage = journal.storage_mut();
            hasher.update(&(storage.wal_bytes().len() as u64).to_be_bytes());
            hasher.update(storage.wal_bytes());
            let snapshot = storage.snapshot_bytes().unwrap_or_default();
            hasher.update(&(snapshot.len() as u64).to_be_bytes());
            hasher.update(&snapshot);
            let message = &outcome.message;
            changed.push(
                outcome.stats.encrypted_keys + message.advances.len() + message.derivations.len(),
            );
        },
    );
    (hex(&hasher.finalize()), changed)
}

/// Per interval of the script, the encrypted keys plus advances plus
/// derivations (`.0`), each plus one for every tree that was empty when
/// the batch began (`.1`): the S-tree at the bootstrap, and at the
/// first S → L migration (interval 11) TT's L-tree or the combined
/// scheme's two. Recorded as the encrypted keys of the planner before
/// the key advance; re-pinned when join-only batches began to cluster,
/// which moved interval 2 (the first join-only batch into a live
/// S-tree), interval 3 behind it, and interval 12 (the second
/// migration wave, join-only into the live L-trees): 15, 15 and 49 →
/// 13, 13 and 40 for TT, 15, 15 and 47 → 13, 13 and 40 for the combined
/// scheme. Whole-run totals over the 12 intervals, parent → change:
///
/// | scheme   | entries   | records | bytes           |
/// |----------|-----------|---------|-----------------|
/// | Tt       | 226 → 216 | 63 → 60 | 13 825 → 13 254 |
/// | Combined | 224 → 216 | 64 → 61 | 13 798 → 13 335 |
const KEYS_PER_INTERVAL: [(Scheme, [usize; 12], [usize; 12]); 2] = [
    (
        Scheme::Tt,
        [8, 13, 13, 19, 23, 23, 23, 25, 25, 25, 41, 40],
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    ),
    (
        Scheme::Combined,
        [8, 13, 13, 19, 23, 23, 23, 25, 25, 25, 43, 40],
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0],
    ),
];

#[test]
fn wal_and_snapshot_bytes_are_frozen() {
    // Each key the planner before the key advance sent is now an entry,
    // an advance or a derivation, except an empty tree's root: it was
    // wrapped under the bootstrap key, which no member holds, and is now
    // made in the batch and sent under (or derived from) its children
    // alone.
    let pinned = [
        "e66e936b0e8abf5d11b17457ae150d1231b7a9bff694f99682cb96ec4ec878bc",
        "3b04af3443da789a5b9a54ba1f5246539852ed5c87d241834db73f2f06b51909",
    ];
    for ((scheme, parent, empty), pinned) in KEYS_PER_INTERVAL.into_iter().zip(pinned) {
        let (digest, changed) = storage_digest(scheme);
        let relation: Vec<usize> = changed.iter().zip(empty).map(|(c, e)| c + e).collect();
        assert_eq!(relation, parent, "{scheme:?}");
        assert_eq!(digest, pinned, "{scheme:?}");
    }
}

// ---------------------------------------------------------------------
// The committed data directories
// ---------------------------------------------------------------------

/// Where the fixtures came from: [`write_fixture_script`]'s six
/// intervals, snapshot at epoch 4, two WAL records behind it.
const FIXTURE_EPOCH: u64 = 6;
const SNAPSHOT_EPOCH: u64 = 4;

/// The DEK `datadir-record-v4` recovers to, at [`FIXTURE_EPOCH`]: the
/// fixture script places no joiner differently under the clustering,
/// so it is the DEK `datadir-record-v3` recovered to as well.
const FIXTURE_DEK: &str = "eb181734e2dcc07b4185ce70e221a8deb08826512c07c2588138798dca4e7f50";

/// The DEK at [`SNAPSHOT_EPOCH`] of the script as the version-1
/// planner ran it: what `datadir-pr19`'s snapshot holds.
const PARENT_SNAPSHOT_DEK: &str =
    "ef66ffefd34afcf0631932e84050dd0acbf873d5fd00116b22fcc08852c90951";

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
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

/// A copy of fixture `name` in a scratch directory (recovery repairs
/// and reopens files for append), with its WAL emptied if `drained`.
fn copy_fixture(name: &str, tag: &str, drained: bool) -> PathBuf {
    let dir = scratch_dir(tag);
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        std::fs::copy(fixture_dir(name).join(file), dir.join(file)).expect("copy fixture");
    }
    if drained {
        std::fs::write(dir.join(WAL_FILE), b"").expect("empty the WAL");
    }
    dir
}

/// How the fixtures were written: six intervals of the script, two
/// joins each, snapshot every four — so each directory holds a
/// snapshot at epoch 4 and a two-record WAL tail.
fn write_fixture_script(dir: &Path) -> Box<dyn GroupKeyManager> {
    let mut rng = StdRng::seed_from_u64(0xF1C5);
    let mut manager = fixture_manager();
    let mut journal = Journal::new(DirStorage::open(dir).expect("open"), 4);
    run_script(&mut journal, &mut *manager, &mut rng, 6, 2, |_, _| {});
    manager
}

/// The previous planners' WAL records would re-render their epochs
/// from the logged nonce starts with another plan: recovery refuses
/// them by their version, typed, instead of replaying them.
#[test]
fn parent_written_data_dir_still_recovers() {
    for (fixture, found) in [
        ("datadir-record-v3", 3),
        ("datadir-record-v2", 2),
        ("datadir-pr19", 1),
    ] {
        let dir = copy_fixture(fixture, "recover", false);
        let mut manager = fixture_manager();
        let mut journal = Journal::new(DirStorage::open(&dir).expect("open"), 4);
        match journal.recover(&mut *manager) {
            Err(PersistError::PlannerChanged {
                found: got,
                expected,
            }) => {
                assert_eq!((got, expected), (found, RECORD_WIRE_VERSION));
                assert_eq!(RECORD_WIRE_VERSION, 4);
            }
            other => panic!("{fixture}: expected PlannerChanged, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Drained — the WAL empty, as `Journal::snapshot` leaves it — the same
/// directory recovers: a snapshot holds state, not inputs, and restores
/// under any planner to the DEK the previous one left.
#[test]
fn a_drained_parent_data_dir_recovers_its_snapshot() {
    let dir = copy_fixture("datadir-pr19", "drained", true);
    let mut manager = fixture_manager();
    let mut journal = Journal::new(DirStorage::open(&dir).expect("open"), 4);
    let recovery = journal.recover(&mut *manager).expect("recover");
    assert!(recovery.snapshot_loaded);
    assert_eq!(recovery.replayed, 0);
    assert_eq!(recovery.epoch, SNAPSHOT_EPOCH);
    assert_eq!(hex(manager.dek().as_bytes()), PARENT_SNAPSHOT_DEK);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn this_commits_data_dir_recovers() {
    let dir = copy_fixture("datadir-record-v4", "recover-v4", false);
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
            std::fs::read(fixture_dir("datadir-record-v4").join(name)).expect("fixture"),
            "{name} differs from the committed file"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
