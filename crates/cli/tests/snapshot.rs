//! `rekey snapshot` over the committed data directories of
//! `crates/core/tests/fixtures`: the snapshot epoch, the WAL's epoch
//! range, whether this build replays its record version, and the
//! durable epoch.

use std::path::{Path, PathBuf};

/// A copy of fixture `name` in a scratch directory: reading the WAL
/// repairs a torn tail in place, and the fixtures stay as committed.
fn copy_fixture(name: &str) -> PathBuf {
    let from = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../core/tests/fixtures")
        .join(name);
    let dir =
        std::env::temp_dir().join(format!("rekey-cli-snapshot-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for file in ["snapshot.bin", "wal.log"] {
        std::fs::copy(from.join(file), dir.join(file)).expect("copy fixture");
    }
    dir
}

#[test]
fn snapshot_reports_each_fixture_and_its_record_version() {
    let refused =
        "another planner: this build refuses to replay it, drain under the build that wrote it";
    for (fixture, version, verdict) in [
        ("datadir-pr19", 1, refused),
        ("datadir-record-v2", 2, refused),
        ("datadir-record-v3", 3, refused),
        ("datadir-record-v4", 4, "this build replays it"),
    ] {
        let dir = copy_fixture(fixture);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rekey"))
            .args(["snapshot", "--data-dir", dir.to_str().expect("utf-8 path")])
            .output()
            .expect("the rekey binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{fixture}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            stdout.lines().collect::<Vec<_>>(),
            [
                "snapshot: epoch 4, 897 bytes",
                "wal: 2 record(s), epochs 5..=6, 0 torn byte(s) dropped",
                &format!("wal: record version {version} ({verdict})"),
                "durable epoch: 6",
            ],
            "{fixture}"
        );
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

/// The log across both WAL segments: the fixture's two records split
/// between `wal.log` (generation 0, no header) and `wal.1.log`
/// (generation 1) read as the one log they were — the state a crash
/// leaves between a segment switch and the snapshot behind it.
#[test]
fn snapshot_reads_the_wal_across_both_segments() {
    use rekey_storage::wal::{parse_records, segment_header};
    use rekey_storage::{WAL_FILE, WAL_SEGMENTS};

    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures/datadir-record-v4");
    let dir = std::env::temp_dir().join(format!("rekey-cli-segments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::copy(fixture.join("snapshot.bin"), dir.join("snapshot.bin")).expect("copy fixture");
    let wal = std::fs::read(fixture.join(WAL_FILE)).expect("fixture wal");
    let (records, _) = parse_records(&wal);
    let first = wal.len() - records[1].len() - rekey_storage::wal::RECORD_HEADER_LEN;
    std::fs::write(dir.join(WAL_SEGMENTS[0]), &wal[..first]).expect("first segment");
    let second = [&segment_header(1)[..], &wal[first..]].concat();
    std::fs::write(dir.join(WAL_SEGMENTS[1]), second).expect("second segment");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rekey"))
        .args(["snapshot", "--data-dir", dir.to_str().expect("utf-8 path")])
        .output()
        .expect("the rekey binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .collect::<Vec<_>>(),
        [
            "snapshot: epoch 4, 897 bytes",
            "wal: 2 record(s), epochs 5..=6, 0 torn byte(s) dropped",
            "wal: record version 4 (this build replays it)",
            "durable epoch: 6",
        ]
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
