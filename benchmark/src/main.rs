//! `rekey-benchmark run` and `rekey-benchmark compare`.

use rekey_bench::emit::rustc_version;
use rekey_benchmark::compare::{compare, Entry, Host, Results, WorkloadResults};
use rekey_benchmark::run::{run_workload, RunConfig, RunReport, Stop};
use rekey_benchmark::workload::{by_name, WORKLOADS};
use rekey_benchmark::{out_dir, DEFAULT_SECONDS};
use rekey_obs::json::{self, Value};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  rekey-benchmark run [--seed N] [--seconds S] [--quick]
      every workload untraced, then traced; prints every metric and
      writes benchmark/out/results.json
  rekey-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      one run of one workload; the last line of output is its result as JSON
  rekey-benchmark compare BASE.json NEW.json
      exits non-zero if NEW is worse than BASE past a bound

workloads: steady-16k small-group-256 flash-crowd-12k restart-16k";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.quick {
        out.seconds /= 4.0;
    }
    Ok(out)
}

fn print_report(report: &RunReport) {
    let line = |prefix: &str, m: &rekey_benchmark::metrics::Metric| {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let name = format!("{prefix}{}", m.name);
        println!("{name:<40} {:>16.4} {}{samples}", m.value, m.unit());
    };
    report.metrics.iter().for_each(|m| line("", m));
    report.info.iter().for_each(|m| line("  also ", m));
    for e in &report.errors {
        println!("FAILED: {e}");
    }
}

/// The result line the benchmark contract asks for.
fn result_line(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value,
                m.unit()
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run_one(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let spec = by_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // An fsync waits for whatever else the disk is writing back, and a
    // run often follows a build. Start from a clean page cache; a host
    // without `sync` just skips this.
    let _ = Command::new("sync").status();
    let report = run_workload(
        spec,
        &RunConfig {
            seed: args.seed,
            stop: Stop::Seconds(args.seconds),
            trace: args.trace,
            out_dir,
        },
    );
    println!(
        "{name}: seed {}, {} s, {}, host loopback",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    print_report(&report);
    if report.attempted == 0 {
        return Err("no interval was attempted".into());
    }
    println!("{}", result_line(&report));
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process, so that peak memory and
/// allocator state are the workload's own, and parses its result line.
fn run_child(name: &str, args: &RunArgs, trace: bool) -> Result<(u64, u64, Vec<Entry>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{name}: run exited with {}", output.status));
    }
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = json::parse(line).map_err(|e| format!("{name}: result line: {e}"))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_num)
            .map(|n| n as u64)
            .ok_or(format!("{name}: result line lacks {key:?}"))
    };
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{name}: result line lacks \"metrics\""));
    };
    let mut entries: Vec<Entry> = metrics
        .iter()
        .filter_map(|(metric, v)| {
            Entry::from_tables(metric, v.get("value").and_then(Value::as_num)?)
        })
        .collect();
    entries.sort_by_key(|e| rekey_benchmark::metrics::position(&e.name));
    Ok((count("attempted")?, count("failed")?, entries))
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let mut results = Results {
        host: Host {
            unix_timestamp: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: rustc_version(),
            git_commit: git_commit(),
            simd_backend: rekey_crypto::simd::active().name().to_owned(),
        },
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        workloads: Vec::new(),
    };
    let mut failed = 0;
    for spec in &WORKLOADS {
        let (attempted, untraced_failed, end_to_end) = run_child(spec.name, args, false)?;
        results.workloads.push(WorkloadResults {
            name: spec.name.to_owned(),
            attempted,
            failed: untraced_failed,
            end_to_end,
            per_layer: Vec::new(),
        });
        failed += untraced_failed;
    }
    for (spec, slot) in WORKLOADS.iter().zip(&mut results.workloads) {
        let (_, traced_failed, per_layer) = run_child(spec.name, args, true)?;
        slot.per_layer = per_layer;
        failed += traced_failed;
    }
    let path = out_dir().join("results.json");
    std::fs::write(&path, results.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare(&load(base)?, &load(new)?);
    print!("{}", comparison.render());
    Ok(if comparison.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run_args(rest).and_then(|run| match &run.workload {
                Some(name) => run_one(name, &run),
                None => run_all(&run),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
