//! `rekey workload` end to end: the binary's printed lines, exported
//! files and replay report, run as a separate process.

use rekey_testkit::{workload_by_name, GenParams, Trace};
use std::path::{Path, PathBuf};
use std::process::Output;

fn rekey(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_rekey"))
        .args(args)
        .output()
        .expect("the rekey binary runs")
}

/// Stdout of a run that must succeed.
fn stdout(args: &[&str]) -> String {
    let out = rekey(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "rekey {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// A scratch directory of its own for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rekey-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn workload_exports_its_interval_gauges() {
    let dir = scratch("profile");
    let (profile, metrics) = (dir.join("run.trace.json"), dir.join("run.prom"));
    stdout(&[
        "workload",
        "--generator",
        "paper",
        "--scheme",
        "tt",
        "--n",
        "128",
        "--intervals",
        "5",
        "--warmup",
        "1",
        "--loss",
        "none",
        "--profile",
        path(&profile),
        "--metrics",
        path(&metrics),
    ]);
    let profile = std::fs::read_to_string(&profile).unwrap();
    let metrics = std::fs::read_to_string(&metrics).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let summary = rekey_obs::chrome::validate_trace(&profile).expect("exported profile is valid");
    for gauge in [
        "sim.joins",
        "sim.leaves",
        "sim.migrations",
        "sim.encrypted_keys",
        "sim.message_bytes",
        "sim.members",
    ] {
        assert!(
            summary.counter_names.contains(gauge),
            "counter track {gauge:?} missing from profile (have {:?})",
            summary.counter_names
        );
        let line = format!("\n{} ", gauge.replace('.', "_"));
        assert!(
            metrics.contains(&line),
            "metrics dump missing {gauge}:\n{metrics}"
        );
    }
}

/// The unchecked and the checked run of a cell send the same bytes:
/// the oracle and the member farm only watch.
#[test]
fn unchecked_and_checked_cells_print_one_digest() {
    let digests = |loss: &str| -> Vec<String> {
        let run = [
            "workload",
            "--generator",
            "paper",
            "--n",
            "64",
            "--seed",
            "3",
        ];
        stdout(&[&run[..], &["--intervals", "12", "--loss", loss]].concat())
            .lines()
            .map(|line| line.split_whitespace().last().unwrap().to_string())
            .collect()
    };
    let unchecked = digests("none");
    assert_eq!(unchecked.len(), 7, "one line per scheme");
    assert_eq!(unchecked, digests("lossless"));
}

/// A replayed trace reports its own seed, length, degree and `K`, not
/// the flag defaults, and refuses the flags that shape a generated
/// scenario.
#[test]
fn replay_reports_the_trace_configuration() {
    let dir = scratch("replay");
    let params = GenParams {
        bootstrap: 20,
        degree: 3,
        k: 7,
        ..GenParams::default()
    };
    let trace = Trace {
        generator: "diurnal".into(),
        scenario: workload_by_name("diurnal").unwrap().compile(9, 17, &params),
    };
    let (file, report) = (dir.join("diurnal.trace.bin"), dir.join("report.json"));
    std::fs::write(&file, trace.encode()).unwrap();

    let replay = ["workload", "--trace", path(&file), "--scheme", "tt"];
    stdout(&[&replay[..], &["--sweep", "--out", path(&report)]].concat());
    let doc = rekey_obs::json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let config = doc.get("config").unwrap();
    for (field, want) in [
        ("seed", 9.0),
        ("intervals", 17.0),
        ("degree", 3.0),
        ("k", 7.0),
    ] {
        assert_eq!(
            config.get(field).and_then(|v| v.as_num()),
            Some(want),
            "{field}"
        );
    }

    for flag in ["--generator", "--seed", "--intervals", "--n", "--d", "--k"] {
        let out = rekey(&[&replay[..], &[flag, "1"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted next to --trace");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Only a sweep writes a report, so `--out` on any other run is a flag
/// nobody reads: an error, and no file appears.
#[test]
fn out_without_sweep_is_an_error() {
    let dir = scratch("out");
    let report = dir.join("report.json");
    let out = rekey(&[
        "workload",
        "--generator",
        "uniform",
        "--scheme",
        "tt",
        "--intervals",
        "5",
        "--out",
        path(&report),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--out"), "{stderr}");
    assert!(!report.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A warm-up as long as the run leaves no interval to average: the
/// run refuses it, generated or replayed, instead of printing zeros.
#[test]
fn warmup_must_leave_a_churn_interval() {
    let dir = scratch("warmup");
    let file = dir.join("uniform.trace.bin");
    let trace = Trace {
        generator: "uniform".into(),
        scenario: workload_by_name("uniform")
            .unwrap()
            .compile(1, 6, &GenParams::default()),
    };
    std::fs::write(&file, trace.encode()).unwrap();
    let run = ["workload", "--scheme", "tt", "--loss", "none"];
    for source in [["--intervals", "6"], ["--trace", path(&file)]] {
        for warmup in ["6", "10"] {
            let out = rekey(&[&run[..], &source, &["--warmup", warmup]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{source:?} --warmup {warmup}: {stderr}"
            );
            assert!(
                stderr.contains(&format!("invalid value \"{warmup}\" for --warmup")),
                "{stderr}"
            );
        }
        let last = stdout(&[&run[..], &source, &["--warmup", "5"]].concat());
        assert!(last.contains("(std 0, "), "one interval averaged: {last}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cell line's bytes per interval, mean and max, cover the intervals
/// its keys per interval do: the churn after `--warmup`, not the
/// bootstrap's bulk join.
#[test]
fn bytes_per_interval_skip_the_warmup_like_keys() {
    use rekey_testkit::{drive, factory_for};
    let dir = scratch("bytes");
    let params = GenParams {
        bootstrap: 200,
        ..GenParams::default()
    };
    let trace = Trace {
        generator: "paper".into(),
        scenario: workload_by_name("paper").unwrap().compile(5, 12, &params),
    };
    let file = dir.join("paper.trace.bin");
    std::fs::write(&file, trace.encode()).unwrap();
    let line = stdout(&[
        "workload",
        "--trace",
        path(&file),
        "--scheme",
        "tt",
        "--warmup",
        "3",
        "--loss",
        "none",
    ]);
    std::fs::remove_dir_all(&dir).unwrap();

    let mut steady = Vec::new();
    let factory = factory_for(rekey_core::Scheme::Tt);
    drive(&factory, &trace.scenario, |step| {
        if step.interval > 3 {
            steady.push(step.bytes.len());
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(steady.len(), 9);
    let mean = steady.iter().sum::<usize>() as f64 / steady.len() as f64;
    let max = steady.iter().max().unwrap();
    let want = format!("{mean:>9.0} B/interval (max {max:>7})");
    assert!(line.contains(&want), "want {want:?} in {line}");
}
