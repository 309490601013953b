//! `rekey` — command-line driver for the group key management library.
//!
//! ```text
//! rekey model     [--n 65536] [--d 4] [--k 10] [--alpha 0.8] [--tp 60]
//!                 [--ms 180] [--ml 10800]
//!     Evaluate the §3.3.1 analytic model: per-interval cost of the
//!     one-keytree / TT / QT / PT schemes.
//!
//! rekey trace-check --file out.trace.json
//!     Validate a Chrome trace produced by `workload --profile`: JSON
//!     well-formedness, balanced begin/end events, counter shape.
//!
//! rekey recommend [--n 65536] [--d 4] [--tp 60] [--ms 180]
//!                 [--ml 10800] [--alpha 0.8] [--max-k 20]
//!     Apply the §3.4 scheme-selection rule to a duration mixture.
//!
//! rekey transport [--n 1024] [--l 16] [--alpha 0.2] [--ph 0.2]
//!                 [--pl 0.02] [--protocol wka|fec|multisend] [--seed 1]
//!     Deliver one real rekey message over simulated loss and report
//!     the bandwidth and rounds.
//!
//! rekey workload  [--generator uniform|diurnal|flash-crowd|mobile-flap|
//!                  regional-loss|paper|all|g1,g2,...]
//!                 [--scheme one|tt|qt|pt|forest|combined|adaptive|all|s1,s2,...]
//!                 [--seed 1 | --seed 1..=20] [--intervals 200] [--warmup 0]
//!                 [--n 32] [--d 4] [--k 3]
//!                 [--loss none|lossless|bernoulli|wka]
//!                 [--sweep] [--out BENCH_workloads.json] [--dump-dir DIR]
//!                 [--trace FILE] [--profile FILE] [--metrics FILE]
//!     Run the key schemes over compiled membership scenarios (the
//!     paper's two-class process `paper` at Table 1's α, the fuzzer's
//!     `uniform` churn, and four trace-driven shapes), one per
//!     generator and seed, `--n` members at bootstrap. Each cell prints
//!     one line: peak members, encrypted keys per interval (mean, std,
//!     min, max) and bytes per interval (mean, max), both over the
//!     churn intervals after `--warmup`, which must leave at least one,
//!     rekey latency p50/p99, and last the wire digest. `--loss none` runs
//!     the schemes alone (usable at n = 16 384); any other mode also
//!     checks every interval with the key-knowledge oracle and a farm
//!     of real `GroupMember`s fed the wire bytes through that delivery
//!     model. A cell that breaks an invariant is shrunk, written as a
//!     trace file under `--dump-dir` (default `target/workloads/`) with
//!     the line that replays it; the other cells still run, then the
//!     command fails. `--sweep` (one seed, all generators by default)
//!     dumps each generator's trace and writes the cells to `--out`,
//!     which only a sweep reads. `--trace` replays a dumped trace,
//!     validated first; it refuses the flags that shape a generated
//!     scenario. `--profile` writes a Chrome `trace_event` profile and
//!     `--metrics` a Prometheus-style dump; both only observe.
//!
//! rekey serve     [--addr 127.0.0.1:0] [--scheme tt] [--d 4] [--k 10]
//!                 [--members 16] [--intervals 50] [--seed 42]
//!                 [--key-seed 7] [--period-ms 200] [--net-workers 2]
//!                 [--admin-addr 127.0.0.1:9100] [--smoke]
//!                 [--data-dir DIR] [--snapshot-every 8] [--churn]
//!     Run `rekeyd`, the threaded TCP key-distribution daemon:
//!     bootstrap `--members` demo members (individual keys derived
//!     from `--key-seed`), then publish one rekey epoch every
//!     `--period-ms` and fan each epoch out to every connected
//!     client. `--admin-addr` additionally serves the live admin
//!     plane on a separate port: `/metrics` (Prometheus text),
//!     `/healthz`, `/readyz`, `/vars` (JSON snapshot with quantiles),
//!     and `/flightrec` (flight-recorder JSONL). SIGTERM/SIGINT (and
//!     panics) trigger a graceful drain and dump the flight recorder
//!     to stderr. `--smoke` additionally runs every member as an
//!     in-process socket client against the daemon and verifies all
//!     of them arrive at the group DEK with byte-identical wire
//!     digests — the single-process loopback CI job. `--data-dir`
//!     makes the epoch stream durable: every interval is written to a
//!     write-ahead log (and fsynced) *before* the frame is fanned
//!     out, a CRC-checked snapshot is taken every `--snapshot-every`
//!     intervals (and at drain), and on boot the daemon recovers the
//!     snapshot + WAL tail and resumes at the logged epoch — a
//!     SIGKILLed daemon restarted on the same directory re-derives
//!     byte-identical epochs. `--churn` adds a deterministic
//!     join/leave every interval so the WAL sees real membership
//!     records.
//!
//! rekey snapshot  --data-dir DIR
//!     Inspect a durable data directory offline: snapshot epoch and
//!     size, WAL record count, epoch range and record version (the
//!     planner that wrote it; recovery replays only its own), torn
//!     bytes dropped from the tail, and the resulting durable epoch —
//!     the value CI asserts is monotonic across a crash/restart cycle.
//!
//! rekey top       --addr HOST:PORT [--period-ms 1000] [--iters 0]
//!     Poll a running rekeyd's admin endpoint (`/vars`) and render a
//!     refreshing operational table: sessions, epochs/sec, fan-out
//!     and end-to-end propagation p50/p99, per-shard propagation,
//!     queue depth, and the encrypted keys sent beside the refreshed
//!     nodes that cost them (compromised: a wrap per child; join-only:
//!     an advance by F plus a wrap per changed child). `--iters N` stops after N
//!     frames (0 = forever).
//!
//! rekey metrics-check (--addr HOST:PORT | --file out.prom)
//!     Fetch `/metrics` from a live admin endpoint (or read a file)
//!     and validate it as Prometheus text exposition with the crate's
//!     own parser: metadata present, names in charset, histogram
//!     buckets cumulative and +Inf-terminated. With `--addr` it also
//!     probes `/healthz`.
//!
//! rekey client    --addr HOST:PORT [--member 0] [--key-seed 7]
//!                 [--from 1] [--idle-ms 3000]
//!     Connect a real group member to a running `rekeyd`, follow the
//!     epoch stream (reconnecting with backoff, NACKing gaps), and
//!     report the final key state when the server says goodbye or the
//!     stream goes idle.
//!
//! rekey reproduce [--only NAME[,NAME...]]
//!     Print every table of the reproduction — Figs 3–7, the §4.4 FEC
//!     result, ablations 1–4 and 6–8, the two transport extensions and
//!     the combined-scheme run — and write each to
//!     `target/figures/<NAME>.csv`. `--only` selects tables by CSV
//!     name; `tests/paper_claims.rs` asserts the paper's claims on
//!     the same series.
//!
//! rekey simd
//!     Report whether the CPU has the SHA extensions and AVX2, the
//!     SHA-256 backend this process runs (`sha_ni` exactly when it has
//!     the extensions, `scalar` otherwise) and the kernel that seals a
//!     batch's wraps eight at a time (`avx2` exactly when it has AVX2,
//!     `scalar` otherwise).
//! ```
//!
//! A flag the chosen subcommand does not read is an error, not a
//! silently ignored switch. So is a value outside the range the model
//! or the loss population is defined on (`--alpha 2`, `--d 1`,
//! `--ph 1.5`, `--pl NaN`).

mod args;

use args::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_analytic::partition::PartitionParams;
use rekey_core::adaptive::{recommend, MixtureEstimate};
use rekey_core::{Join, Scheme, SchemeConfig};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::message::{codec, RekeyMessage};
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use rekey_net::{demo_member_key, ClientConfig, NetError, RekeyClient, Rekeyd, ServerConfig};
use rekey_transport::interest::interest_map;
use rekey_transport::loss::Population;
use rekey_transport::{fec, multisend, wka_bkr};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: rekey <model|recommend|transport|trace-check|workload|serve|client|top|metrics-check|snapshot|reproduce|simd> [--flag value ...]
run `rekey help` or see the crate docs for the full flag list";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("model") => cmd_model(&args),
        Some("recommend") => cmd_recommend(&args),
        Some("transport") => cmd_transport(&args),
        Some("trace-check") => cmd_trace_check(&args),
        Some("workload") => cmd_workload(&args),
        Some("serve") => cmd_serve(&args),
        Some("client") => cmd_client(&args),
        Some("top") => cmd_top(&args),
        Some("metrics-check") => cmd_metrics_check(&args),
        Some("snapshot") => cmd_snapshot(&args),
        Some("reproduce") => cmd_reproduce(&args),
        Some("simd") => cmd_simd(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// An optional output-path flag; a bare `--flag` is an error rather
/// than a silently ignored switch.
fn path_flag(args: &Args, flag: &str) -> Result<Option<String>, args::ArgsError> {
    match args.get(flag) {
        None => Ok(None),
        Some("") => Err(args::ArgsError::MissingValue(flag.to_string())),
        Some(path) => Ok(Some(path.to_string())),
    }
}

/// The model's parameters, each checked against the range
/// `PartitionParams::validate` asserts.
fn model_params(args: &Args) -> Result<PartitionParams, args::ArgsError> {
    let defaults = PartitionParams::paper_default();
    let positive = |x: &f64| *x > 0.0;
    Ok(PartitionParams {
        group_size: args.get_checked_or("n", defaults.group_size, |n| *n >= 2)?,
        degree: args.get_checked_or("d", defaults.degree, |d| *d >= 2)?,
        rekey_period: args.get_checked_or("tp", defaults.rekey_period, positive)?,
        k: args.get_parsed_or("k", defaults.k)?,
        mean_short: args.get_checked_or("ms", defaults.mean_short, positive)?,
        mean_long: args.get_checked_or("ml", defaults.mean_long, positive)?,
        alpha: args.get_checked_or("alpha", defaults.alpha, unit_interval)?,
    })
}

/// A fraction or probability: in `[0, 1]`, and not NaN.
fn unit_interval(x: &f64) -> bool {
    (0.0..=1.0).contains(x)
}

fn cmd_model(args: &Args) -> CliResult {
    let p = model_params(args)?;
    args.finish()?;
    let ss = p.steady_state();
    let c = p.costs();
    println!(
        "steady state: J = {:.1} joins/interval, Ns = {:.0}, Nl = {:.0}, migrations = {:.1}/interval",
        ss.joins_per_period, ss.n_s, ss.n_l, ss.l_m
    );
    println!("per-interval rekey cost (encrypted keys):");
    for (name, cost) in [
        ("one-keytree", c.one_keytree),
        ("tt-scheme", c.tt),
        ("qt-scheme", c.qt),
        ("pt-scheme", c.pt),
    ] {
        println!(
            "  {name:<12} {cost:>10.0}   ({:+.1}% vs one-keytree)",
            100.0 * (cost / c.one_keytree - 1.0)
        );
    }
    Ok(())
}

fn cmd_trace_check(args: &Args) -> CliResult {
    let path = args
        .get("file")
        .filter(|p| !p.is_empty())
        .ok_or("trace-check requires --file <path>")?;
    args.finish()?;
    let text = std::fs::read_to_string(path)?;
    let summary = rekey_obs::chrome::validate_trace(&text)?;
    println!(
        "{path}: valid trace; {} begin / {} end events across {} span names, {} counter samples",
        summary.begin_events,
        summary.end_events,
        summary.span_names.len(),
        summary.counter_events
    );
    Ok(())
}

/// Prints the tables `--only` names (all of them by default) and writes
/// each to `target/figures/<name>.csv`. Every name is checked before
/// any table is computed.
fn cmd_reproduce(args: &Args) -> CliResult {
    use rekey_bench::figures::TABLES;

    let only = path_flag(args, "only")?;
    args.finish()?;
    let selected: Vec<_> = match &only {
        None => TABLES.iter().collect(),
        Some(list) => list
            .split(',')
            .map(|name| {
                let name = name.trim();
                TABLES.iter().find(|(n, _)| *n == name).ok_or_else(|| {
                    let known: Vec<&str> = TABLES.iter().map(|(n, _)| *n).collect();
                    format!("unknown table {name:?} (one of: {})", known.join(", "))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    for (name, compute) in selected {
        let table = compute();
        rekey_bench::print_table(table.title, table.headers, &table.rows);
        rekey_bench::write_csv(&dir, name, table.headers, &table.rows);
    }
    Ok(())
}

/// Report CPU features and the kernels they select on this host.
fn cmd_simd(args: &Args) -> CliResult {
    args.finish()?;
    let feats = rekey_crypto::simd::detect();
    println!(
        "cpu features:     sha_ni={} avx2={}",
        feats.sha_ni, feats.avx2
    );
    println!("selected backend: {}", rekey_crypto::simd::active());
    println!(
        "wrap lanes:       {}",
        rekey_crypto::simd::LaneKernel::active()
    );
    Ok(())
}

fn cmd_recommend(args: &Args) -> CliResult {
    let p = model_params(args)?;
    let max_k: u32 = args.get_parsed_or("max-k", 20u32)?;
    args.finish()?;
    let estimate = MixtureEstimate {
        mean_short: p.mean_short,
        mean_long: p.mean_long,
        alpha: p.alpha,
        samples: 0,
    };
    let rec = recommend(
        p.group_size,
        p.degree,
        p.rekey_period,
        Some(estimate),
        max_k,
    );
    println!(
        "recommendation: {:?}\npredicted cost {:.0} keys/interval vs one-keytree {:.0} ({:.1}% saving)",
        rec.scheme,
        rec.predicted_cost,
        rec.one_keytree_cost,
        100.0 * (1.0 - rec.predicted_cost / rec.one_keytree_cost)
    );
    Ok(())
}

/// Parses `--seed` as either a single seed (`7`) or an inclusive
/// range (`1..=20`).
fn parse_seed_range(spec: &str) -> Result<std::ops::RangeInclusive<u64>, args::ArgsError> {
    let bad = || args::ArgsError::BadValue {
        flag: "seed".to_string(),
        value: spec.to_string(),
    };
    let (lo, hi) = spec.split_once("..=").unwrap_or((spec, spec));
    let lo: u64 = lo.trim().parse().map_err(|_| bad())?;
    let hi: u64 = hi.trim().parse().map_err(|_| bad())?;
    if lo > hi {
        return Err(bad());
    }
    Ok(lo..=hi)
}

fn hex32(bytes: &[u8; 32]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a `--scheme` flag that may be a single name, a comma list,
/// or `all`.
fn parse_scheme_list(spec: &str) -> Result<Vec<Scheme>, Box<dyn std::error::Error>> {
    if spec == "all" {
        return Ok(Scheme::ALL.to_vec());
    }
    spec.split(',')
        .map(|name| name.trim().parse::<Scheme>().map_err(Into::into))
        .collect()
}

/// Mean, sample standard deviation, minimum and maximum of `values`
/// (all zero when empty).
fn summarize(values: &[f64]) -> (f64, f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (mean, var.sqrt(), min, max)
}

/// Where a sweep dumps its traces, and any run its shrunk
/// counterexamples, unless `--dump-dir` says otherwise.
const DEFAULT_DUMP_DIR: &str = "target/workloads";

/// One (trace, scheme) cell of a workload run.
struct WorkloadCell {
    generator: String,
    seed: u64,
    scheme: &'static str,
    stats: rekey_testkit::RunStats,
    peak_members: usize,
    max_interval_bytes: usize,
    /// Encrypted keys of every churn interval after the warm-up.
    keys: Vec<f64>,
    /// Multicast bytes of the same intervals.
    bytes: Vec<f64>,
    /// `process_interval` wall-clock time of every interval.
    latency_ns: rekey_obs::hist::Log2Histogram,
    trace_file: Option<String>,
}

impl WorkloadCell {
    /// Mean multicast bytes per interval, the bootstrap included (the
    /// sweep report's figure; the line averages `bytes`).
    fn mean_interval_bytes(&self) -> f64 {
        self.stats.total_bytes as f64 / self.stats.intervals.max(1) as f64
    }

    /// The cell's report line. The digest is the last field: scripts
    /// read it as `$NF`.
    fn line(&self) -> String {
        let (mean, std, min, max) = summarize(&self.keys);
        let (bytes_mean, _, _, bytes_max) = summarize(&self.bytes);
        format!(
            "{:<14} seed {:<4} {:<9} peak {:>6} members  {mean:.0} keys/interval (std {std:.0}, min {min:.0}, max {max:.0})  {bytes_mean:>9.0} B/interval (max {bytes_max:>7.0})  latency p50 {:>8}ns p99 {:>8}ns  digest {}",
            self.generator,
            self.seed,
            self.scheme,
            self.peak_members,
            self.latency_ns.quantile(0.5),
            self.latency_ns.quantile(0.99),
            &hex32(&self.stats.digest)[..16],
        )
    }
}

/// Runs `scheme` over `trace`: unchecked through `drive` when
/// `delivery` is `None`, else through `run_scenario` under the oracle
/// and the member farm. The first `warmup` churn intervals stay out of
/// the keys and bytes per interval series.
fn run_cell(
    trace: &rekey_testkit::Trace,
    scheme: Scheme,
    delivery: Option<rekey_testkit::Delivery>,
    warmup: usize,
) -> Result<WorkloadCell, rekey_testkit::Violation> {
    use rekey_testkit::{drive, factory_for, run_scenario, RunOptions, Step};

    let (mut peak_members, mut max_interval_bytes) = (0, 0);
    let (mut keys, mut bytes) = (Vec::new(), Vec::new());
    let mut latency_ns = rekey_obs::hist::Log2Histogram::new();
    let mut observe = |step: &Step<'_, dyn rekey_core::GroupKeyManager>| {
        peak_members = peak_members.max(step.manager.member_count());
        max_interval_bytes = max_interval_bytes.max(step.bytes.len());
        latency_ns.record(step.process_ns);
        if step.interval > warmup {
            keys.push(step.outcome.stats.encrypted_keys as f64);
            bytes.push(step.bytes.len() as f64);
        }
    };
    let factory = factory_for(scheme);
    let scenario = &trace.scenario;
    let stats = match delivery {
        None => drive(&factory, scenario, |step| {
            observe(step);
            Ok(())
        }),
        Some(delivery) => run_scenario(&factory, scenario, &RunOptions { delivery }, observe),
    }?;
    Ok(WorkloadCell {
        generator: trace.generator.clone(),
        seed: scenario.seed,
        scheme: scheme.name(),
        stats,
        peak_members,
        max_interval_bytes,
        keys,
        bytes,
        latency_ns,
        trace_file: None,
    })
}

/// Shrinks a cell that broke an invariant, writes the minimal scenario
/// to `dir` as a trace file and prints the command that replays it.
/// An unchecked run fails only on a batch the manager rejects, which
/// the lossless checked run rejects too, so it shrinks under that.
fn shrink_cell(
    factory: &rekey_testkit::runner::ManagerFactory,
    scheme: &str,
    trace: &rekey_testkit::Trace,
    delivery: Option<rekey_testkit::Delivery>,
    violation: rekey_testkit::Violation,
    dir: &str,
) -> Result<String, Box<dyn std::error::Error>> {
    use rekey_testkit::{shrink, Delivery, RunOptions, Trace};

    let (generator, seed) = (&trace.generator, trace.scenario.seed);
    println!("{generator:<14} seed {seed:<4} {scheme:<9} FAIL at {violation}");
    let opts = RunOptions {
        delivery: delivery.unwrap_or(Delivery::Lossless),
    };
    let report = shrink(factory, &trace.scenario, &opts, violation, 400);
    let path = format!("{dir}/{generator}-seed{seed}-{scheme}.shrunk.trace.bin");
    std::fs::create_dir_all(dir)?;
    let shrunk = Trace {
        generator: generator.clone(),
        scenario: report.scenario,
    };
    std::fs::write(&path, shrunk.encode())?;
    println!(
        "  shrunk to {} ops over {} intervals ({} runs): {}",
        shrunk.scenario.op_count(),
        shrunk.scenario.intervals.len(),
        report.runs,
        report.violation
    );
    println!(
        "  replay: rekey workload --trace {path} --scheme {scheme} --loss {}",
        opts.delivery.name()
    );
    Ok(path)
}

/// Reads and validates a dumped trace: a hand-edited one is rejected
/// with a typed error (truncation, bad magic or version, a membership
/// inconsistency such as a leave of a departed member), not repaired.
fn read_trace(path: &str) -> Result<rekey_testkit::Trace, Box<dyn std::error::Error>> {
    let trace =
        rekey_testkit::Trace::decode(&std::fs::read(path)?).map_err(|e| format!("{path}: {e}"))?;
    trace
        .scenario
        .validate()
        .map_err(|e| format!("{path}: invalid scenario: {e}"))?;
    Ok(trace)
}

/// Writes `trace` to `dir` and checks on the spot that the file decodes
/// back to the byte-identical trace.
fn dump_trace(
    trace: &rekey_testkit::Trace,
    dir: &str,
) -> Result<String, Box<dyn std::error::Error>> {
    let path = format!(
        "{dir}/{}-seed{}.trace.bin",
        trace.generator, trace.scenario.seed
    );
    let encoded = trace.encode();
    std::fs::write(&path, &encoded)?;
    if read_trace(&path)?.encode() != encoded {
        return Err(format!("{path}: dumped trace did not round-trip").into());
    }
    Ok(path)
}

/// Serializes the cells (plus host and the scenario's configuration)
/// as `BENCH_workloads.json`, in the same shape as the other `BENCH_*`
/// artifacts. Every cell of a report shares one seed, interval count,
/// degree and `K`; `scenario` is any of their scenarios.
fn write_workload_report(
    path: &str,
    cells: &[WorkloadCell],
    scenario: &rekey_testkit::Scenario,
    loss: &str,
) -> CliResult {
    use rekey_bench::emit::{json_escape, HostContext};
    use std::fmt::Write as _;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"workloads\",");
    HostContext::detect().push_json(&mut json, &[]);
    let _ = writeln!(
        json,
        "  \"config\": {{\"seed\": {}, \"intervals\": {}, \"delivery\": \"{loss}\", \"degree\": {}, \"k\": {}}},",
        scenario.seed,
        scenario.intervals.len().saturating_sub(1),
        scenario.degree,
        scenario.k,
    );
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let lat = &cell.latency_ns;
        let trace_file = match &cell.trace_file {
            Some(f) => format!("\"{}\"", json_escape(f)),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"scheme\": \"{}\", \"intervals\": {}, \"final_members\": {}, \"peak_members\": {}, \"total_entries\": {}, \"total_advances\": {}, \"total_derivations\": {}, \"total_bytes\": {}, \"bytes_per_interval_mean\": {:.1}, \"max_interval_bytes\": {}, \"latency_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}, \"trace_file\": {trace_file}, \"digest\": \"{}\"}}{sep}",
            json_escape(&cell.generator),
            cell.scheme,
            cell.stats.intervals,
            cell.stats.final_members,
            cell.peak_members,
            cell.stats.total_entries,
            cell.stats.total_advances,
            cell.stats.total_derivations,
            cell.stats.total_bytes,
            cell.mean_interval_bytes(),
            cell.max_interval_bytes,
            lat.quantile(0.5),
            lat.quantile(0.9),
            lat.quantile(0.99),
            lat.max(),
            hex32(&cell.stats.digest),
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json)?;
    println!("wrote {path} ({} cells)", cells.len());
    Ok(())
}

fn cmd_workload(args: &Args) -> CliResult {
    use rekey_testkit::{workload_by_name, Delivery, GenParams, Trace, WORKLOAD_NAMES};

    let schemes = parse_scheme_list(&args.get_or("scheme", "all"))?;
    let loss = args.get_or("loss", "lossless");
    let delivery = match loss.as_str() {
        "none" => None,
        name => {
            Some(Delivery::parse(name).ok_or_else(|| format!("unknown delivery mode {name:?}"))?)
        }
    };
    let warmup: usize = args.get_parsed_or("warmup", 0usize)?;
    let sweep: bool = args.get_bool_or("sweep", false)?;
    // Only a sweep writes a report, so only a sweep reads `--out`.
    let out = sweep.then(|| args.get_or("out", "BENCH_workloads.json"));
    // Every run averages at least one churn interval after the warm-up.
    let check_warmup = |churn: usize| {
        if warmup < churn {
            return Ok(());
        }
        Err(args::ArgsError::BadValue {
            flag: "warmup".to_string(),
            value: warmup.to_string(),
        })
    };
    let dump_dir = path_flag(args, "dump-dir")?;
    let profile = path_flag(args, "profile")?;
    let metrics = path_flag(args, "metrics")?;

    // Each scenario to run, with the trace file it came from or was
    // dumped to.
    let mut traces: Vec<(Trace, Option<String>)> = Vec::new();
    if let Some(path) = path_flag(args, "trace")? {
        // The flags that shape a generated scenario: a trace carries its own.
        let generation = ["generator", "seed", "intervals", "n", "d", "k"];
        if let Some(flag) = generation.iter().find(|f| args.get(f).is_some()) {
            return Err(
                format!("--{flag} does not apply to --trace: the trace carries its own").into(),
            );
        }
        args.finish()?;
        let trace = read_trace(&path)?;
        check_warmup(trace.scenario.intervals.len().saturating_sub(1))?;
        println!(
            "replaying {path}: generator {}, seed {}, {} churn intervals",
            trace.generator,
            trace.scenario.seed,
            trace.scenario.intervals.len().saturating_sub(1)
        );
        traces.push((trace, Some(path)));
    } else {
        let seeds = parse_seed_range(&args.get_or("seed", "1"))?;
        let intervals: usize = args.get_parsed_or("intervals", 200usize)?;
        let defaults = GenParams::default();
        let params = GenParams {
            bootstrap: args.get_parsed_or("n", defaults.bootstrap)?,
            degree: args.get_parsed_or("d", defaults.degree)?,
            k: args.get_parsed_or("k", defaults.k)?,
            ..defaults
        };
        let generator_flag = args.get_or("generator", if sweep { "all" } else { "uniform" });
        args.finish()?;
        check_warmup(intervals)?;
        if sweep && seeds.start() != seeds.end() {
            return Err("--sweep reports one seed; give --seed N".into());
        }
        let generators: Vec<&str> = if generator_flag == "all" {
            WORKLOAD_NAMES.to_vec()
        } else {
            generator_flag.split(',').map(str::trim).collect()
        };
        // A sweep always dumps its traces so every cell is replayable;
        // other runs dump only when asked.
        let dump_to = dump_dir.as_deref().or(sweep.then_some(DEFAULT_DUMP_DIR));
        if let Some(dir) = dump_to {
            std::fs::create_dir_all(dir)?;
        }
        for seed in seeds {
            for generator in &generators {
                let mut workload = workload_by_name(generator)
                    .ok_or_else(|| format!("unknown workload generator {generator:?}"))?;
                let trace = Trace {
                    generator: generator.to_string(),
                    scenario: workload.compile(seed, intervals, &params),
                };
                let trace_file = dump_to.map(|dir| dump_trace(&trace, dir)).transpose()?;
                traces.push((trace, trace_file));
            }
        }
    }

    // Observe only: every number below is the same with or without it.
    let collector = (profile.is_some() || metrics.is_some()).then(|| {
        let collector = std::sync::Arc::new(rekey_obs::Collector::new());
        rekey_obs::install(collector.clone());
        collector
    });
    let mut cells = Vec::new();
    let mut failures = 0usize;
    for (trace, trace_file) in &traces {
        for &scheme in &schemes {
            match run_cell(trace, scheme, delivery, warmup) {
                Ok(mut cell) => {
                    println!("{}", cell.line());
                    cell.trace_file = trace_file.clone();
                    cells.push(cell);
                }
                Err(violation) => {
                    failures += 1;
                    let dir = dump_dir.as_deref().unwrap_or(DEFAULT_DUMP_DIR);
                    let factory = rekey_testkit::factory_for(scheme);
                    shrink_cell(&factory, scheme.name(), trace, delivery, violation, dir)?;
                }
            }
        }
    }
    if let Some(collector) = collector {
        let [mutate, plan, execute] = ["rekey.mutate", "rekey.plan", "rekey.execute"]
            .map(|span| rekey_obs::total_time_ns(span) as f64 / 1e9);
        rekey_obs::uninstall();
        println!("phase breakdown: mutate {mutate:.3}s, plan {plan:.3}s, execute {execute:.3}s");
        if let Some(path) = &profile {
            collector.write_chrome_trace(path)?;
            println!("profile written to {path}");
        }
        if let Some(path) = &metrics {
            collector.write_metrics(path)?;
            println!("metrics written to {path}");
        }
    }
    if failures > 0 {
        return Err(format!("{failures} cell(s) broke an invariant").into());
    }
    if let Some(out) = out {
        write_workload_report(&out, &cells, &traces[0].0.scenario, &loss)?;
    }
    Ok(())
}

/// SIGTERM/SIGINT latch for `rekey serve`. The handler only flips an
/// atomic; the serve loop polls it between publishes and runs the
/// graceful drain (and flight-recorder dump) itself.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: registers an async-signal-safe handler (one relaxed
        // atomic store, no allocation, no locks) for two standard
        // termination signals.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term_signal {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

fn cmd_serve(args: &Args) -> CliResult {
    let addr = args.get_or("addr", "127.0.0.1:0");
    let scheme: Scheme = args.get_or("scheme", "tt").parse()?;
    let degree: usize = args.get_parsed_or("d", 4usize)?;
    let k: u64 = args.get_parsed_or("k", 10u64)?;
    let members: u64 = args.get_parsed_or("members", 16u64)?;
    let intervals: u64 = args.get_parsed_or("intervals", 50u64)?.max(1);
    let seed: u64 = args.get_parsed_or("seed", 42u64)?;
    let key_seed: u64 = args.get_parsed_or("key-seed", 7u64)?;
    let smoke: bool = args.get_bool_or("smoke", false)?;
    let period_ms: u64 = args.get_parsed_or("period-ms", if smoke { 2 } else { 200u64 })?;
    let net_workers: usize = args.get_parsed_or("net-workers", 2usize)?;
    let admin_addr = match path_flag(args, "admin-addr")? {
        Some(spec) => Some(spec.parse::<std::net::SocketAddr>()?),
        None => None,
    };
    let data_dir = path_flag(args, "data-dir")?;
    let snapshot_every: u64 = args.get_parsed_or("snapshot-every", 8u64)?;
    let churn: bool = args.get_bool_or("churn", false)?;
    args.finish()?;

    // The daemon records into this collector directly; installing it
    // globally as well merges the in-process smoke clients' and
    // engine's probes into the same admin-visible registry.
    let collector = std::sync::Arc::new(rekey_obs::Collector::new());
    rekey_obs::install(collector.clone());

    let config = ServerConfig {
        workers: net_workers,
        admin_addr,
        ..ServerConfig::default()
    };
    let daemon = Rekeyd::bind_with(addr.as_str(), config, collector.clone())?;
    println!(
        "rekeyd: listening on {} — scheme {scheme}, {members} members, {intervals} intervals",
        daemon.local_addr()
    );
    if let Some(admin) = daemon.admin_addr() {
        println!(
            "rekeyd: admin plane on http://{admin} (/metrics /healthz /readyz /vars /flightrec)"
        );
    }

    // On SIGTERM/SIGINT the loop below drains gracefully; on panic the
    // hook dumps the flight recorder before the process dies.
    term_signal::install();
    let flight = daemon.flight();
    {
        let flight = flight.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            eprintln!("rekeyd: panic — flight recorder follows");
            eprint!("{}", flight.dump_jsonl());
            previous(info);
        }));
    }

    let mut manager = scheme.build(&SchemeConfig::new().degree(degree).s_period(k));
    let member_keys: Vec<(MemberId, Key)> = (0..members)
        .map(|m| (MemberId(m), demo_member_key(key_seed, MemberId(m))))
        .collect();
    for (member, key) in &member_keys {
        daemon.register(*member, key.clone());
    }

    // Durable mode: recover the snapshot + WAL tail from --data-dir,
    // republish the re-derived epochs into the retransmission window
    // (reconnecting clients NACK them back), and resume the RNG and
    // interval counter exactly where the previous process stopped.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut journal = None;
    let mut start_interval = 0u64;
    if let Some(dir) = &data_dir {
        let mut j = rekey_core::Journal::new(rekey_storage::DirStorage::open(dir)?, snapshot_every);
        let recovery = j.recover(manager.as_mut())?;
        if recovery.snapshot_loaded || recovery.replayed > 0 {
            println!(
                "rekeyd: recovered epoch {} from {dir} (snapshot loaded: {}, {} WAL record(s) replayed, {} torn byte(s) dropped)",
                recovery.epoch,
                recovery.snapshot_loaded,
                recovery.replayed,
                recovery.dropped_wal_bytes
            );
        }
        for message in &recovery.messages {
            daemon.publish(message)?;
        }
        if let Some(recovered) = recovery.rng {
            rng = recovered;
        }
        start_interval = recovery.epoch;
        journal = Some(j);
    }

    // `--smoke`: every member is also an in-process socket client
    // following the daemon over real loopback TCP.
    let dek_node = manager.dek_node();
    let mut smoke_clients = Vec::new();
    if smoke {
        let addr = daemon.local_addr();
        for (member, key) in &member_keys {
            let (member, key) = (*member, key.clone());
            smoke_clients.push(std::thread::spawn(
                move || -> Result<(MemberId, u64, [u8; 32], Option<Key>), NetError> {
                    let mut client =
                        RekeyClient::new(addr, member, key, 1, ClientConfig::default());
                    client.sync_to(intervals, Duration::from_secs(60))?;
                    let dek = client.member().key_for(dek_node).cloned();
                    client.close();
                    Ok((member, client.applied(), client.digest(), dek))
                },
            ));
        }
    }

    let mut digest = Sha256::new();
    let mut total_entries = 0usize;
    let mut published = 0u64;
    for interval in start_interval..intervals {
        if term_signal::requested() {
            println!("rekeyd: termination signal after {published} epochs — draining");
            daemon.begin_shutdown();
            eprintln!("rekeyd: flight recorder follows");
            eprint!("{}", flight.dump_jsonl());
            break;
        }
        let mut joins: Vec<Join> = if interval == 0 {
            member_keys
                .iter()
                .map(|(m, key)| Join::new(*m, key.clone()))
                .collect()
        } else {
            Vec::new()
        };
        let mut leaves: Vec<MemberId> = Vec::new();
        if churn && interval > 0 {
            // Deterministic ghost-member churn: cycle extra member ids
            // (outside the demo-client range) through join/leave so the
            // WAL sees real membership records. Presence is read back
            // from the manager, so the pattern survives a restart.
            let ghost = MemberId(members + (interval % members.max(1)));
            if manager.contains(ghost) {
                leaves.push(ghost);
            } else {
                joins.push(Join::new(ghost, demo_member_key(key_seed, ghost)));
            }
        }
        // In durable mode the journal appends + fsyncs the epoch record
        // *before* it hands the frame to the fan-out — no frame a
        // restart cannot re-derive ever reaches a client.
        let outcome = match journal.as_mut() {
            Some(journal) => {
                let mut publish_err = None;
                let outcome = journal.durable_interval(
                    manager.as_mut(),
                    &joins,
                    &leaves,
                    &mut rng,
                    &mut |message: &RekeyMessage| publish_err = daemon.publish(message).err(),
                )?;
                if let Some(e) = publish_err {
                    return Err(e.into());
                }
                outcome
            }
            None => {
                let outcome = manager.process_interval(&joins, &leaves, &mut rng)?;
                daemon.publish(&outcome.message)?;
                outcome
            }
        };
        digest.update(&codec::encode_message(&outcome.message));
        total_entries += outcome.message.encrypted_key_count();
        published += 1;
        if period_ms > 0 {
            std::thread::sleep(Duration::from_millis(period_ms));
        }
    }
    // Drain-time flush: a final snapshot subsumes the WAL, so a clean
    // restart replays nothing.
    if let Some(journal) = journal.as_mut() {
        journal.snapshot(manager.as_ref(), &rng)?;
    }
    let server_digest = digest.finalize();
    println!(
        "rekeyd: published {published} epochs ({total_entries} encrypted keys), digest {}",
        hex32(&server_digest)
    );

    let mut failures = 0usize;
    if smoke {
        for handle in smoke_clients {
            match handle.join().expect("client thread panicked") {
                Ok((member, applied, client_digest, dek)) => {
                    let digest_ok = client_digest == server_digest;
                    let dek_ok = dek.as_ref() == Some(manager.dek());
                    if !digest_ok || !dek_ok {
                        failures += 1;
                        println!(
                            "smoke: member {} FAILED (applied {applied}, digest match: {digest_ok}, dek match: {dek_ok})",
                            member.0
                        );
                    }
                }
                Err(e) => {
                    failures += 1;
                    println!("smoke: client error: {e}");
                }
            }
        }
    }

    daemon.shutdown()?;
    rekey_obs::uninstall();
    let snap = collector.snapshot();
    println!(
        "rekeyd: fanout {} bytes framed, {} bytes written, sessions opened {}, retransmits {}",
        snap.counter("net.fanout.bytes"),
        snap.counter("net.bytes_out"),
        snap.counter("net.sessions.opened"),
        snap.counter("net.retransmit.frames"),
    );
    if smoke {
        if failures > 0 {
            return Err(format!("{failures} smoke client(s) diverged").into());
        }
        println!(
            "smoke: all {members} socket clients hold the group DEK with byte-identical digests"
        );
    }
    Ok(())
}

fn cmd_client(args: &Args) -> CliResult {
    let addr = args
        .get("addr")
        .filter(|a| !a.is_empty())
        .ok_or("client requires --addr host:port")?;
    let addr: std::net::SocketAddr = addr.parse()?;
    let member = MemberId(args.get_parsed_or("member", 0u64)?);
    let key_seed: u64 = args.get_parsed_or("key-seed", 7u64)?;
    let from: u64 = args.get_parsed_or("from", 1u64)?;
    let idle_ms: u64 = args.get_parsed_or("idle-ms", 3000u64)?;
    args.finish()?;

    let key = demo_member_key(key_seed, member);
    let mut client = RekeyClient::new(addr, member, key, from, ClientConfig::default());
    let slice = Duration::from_millis(250);
    let mut idle = Duration::ZERO;
    loop {
        let applied = client.poll(slice)?;
        if client.server_closed() {
            println!("client {}: server closed the stream", member.0);
            break;
        }
        if applied == 0 {
            idle += slice;
            if idle >= Duration::from_millis(idle_ms) {
                println!(
                    "client {}: stream idle for {idle_ms}ms, detaching",
                    member.0
                );
                client.close();
                break;
            }
        } else {
            idle = Duration::ZERO;
        }
    }
    println!(
        "client {}: applied {} epochs (next {}), {} reconnects, {} keys held, digest {}",
        member.0,
        client.applied(),
        client.next_epoch(),
        client.reconnects(),
        client.member().key_count(),
        hex32(&client.digest())
    );
    Ok(())
}

/// Human-friendly nanoseconds: `850ns`, `12.5µs`, `3.20ms`, `1.75s`.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn admin_addr_flag(args: &Args) -> Result<std::net::SocketAddr, Box<dyn std::error::Error>> {
    let addr = args
        .get("addr")
        .filter(|a| !a.is_empty())
        .ok_or("requires --addr host:port (the rekeyd admin address)")?;
    Ok(addr.parse()?)
}

/// One `/vars` snapshot reduced to what `top` renders.
struct TopFrame {
    live: bool,
    sessions: f64,
    epochs: f64,
    queue_depth: f64,
    /// Encrypted keys sent, and the refreshed nodes that cost them:
    /// compromised (a wrap per child) and join-only (an advance by F
    /// plus a wrap per changed child).
    bandwidth: [f64; 3],
    /// (name, count, p50_ns, p99_ns) per histogram of interest.
    hists: Vec<(String, f64, f64, f64)>,
}

fn fetch_top_frame(addr: std::net::SocketAddr) -> Result<TopFrame, Box<dyn std::error::Error>> {
    let response = rekey_obs::admin::http_get(addr, "/vars", Duration::from_secs(2))?;
    if response.status != 200 {
        return Err(format!("/vars returned HTTP {}", response.status).into());
    }
    let doc = rekey_obs::json::parse(&response.body)?;
    let num = |v: Option<&rekey_obs::json::Value>| v.and_then(|v| v.as_num()).unwrap_or(0.0);
    let counters = doc.get("counters");
    let gauges = doc.get("gauges");
    let mut hists = Vec::new();
    if let Some(rekey_obs::json::Value::Obj(map)) = doc.get("hists") {
        for (name, hist) in map {
            if name == "net.fanout" || name.starts_with("net.propagation") {
                hists.push((
                    name.clone(),
                    num(hist.get("count")),
                    num(hist.get("p50_ns")),
                    num(hist.get("p99_ns")),
                ));
            }
        }
    }
    Ok(TopFrame {
        live: doc.get("live") == Some(&rekey_obs::json::Value::Bool(true)),
        sessions: num(gauges.and_then(|g| g.get("net.sessions.live"))),
        epochs: num(counters.and_then(|c| c.get("net.epochs_published"))),
        queue_depth: num(gauges.and_then(|g| g.get("net.queue.depth"))),
        bandwidth: [
            "rekey.encrypted_keys",
            "rekey.nodes.compromised",
            "rekey.nodes.join_only",
        ]
        .map(|name| num(counters.and_then(|c| c.get(name)))),
        hists,
    })
}

fn cmd_top(args: &Args) -> CliResult {
    let addr = admin_addr_flag(args)?;
    let period_ms: u64 = args.get_parsed_or("period-ms", 1000u64)?;
    let iters: u64 = args.get_parsed_or("iters", 0u64)?;
    args.finish()?;

    let mut previous: Option<(std::time::Instant, f64)> = None;
    let mut frame_no = 0u64;
    loop {
        let frame = fetch_top_frame(addr)?;
        let now = std::time::Instant::now();
        let rate = match previous {
            Some((t, epochs)) => {
                let dt = now.duration_since(t).as_secs_f64();
                if dt > 0.0 {
                    (frame.epochs - epochs) / dt
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        previous = Some((now, frame.epochs));

        if frame_no > 0 {
            // Repaint in place: clear screen, home cursor.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "rekey top — {addr}  [{}]",
            if frame.live { "healthy" } else { "DRAINING" }
        );
        println!(
            "sessions {:>6}   epochs {:>8}   epochs/sec {:>8.2}   queue depth {:>5}",
            frame.sessions, frame.epochs, rate, frame.queue_depth
        );
        let [keys, compromised, join_only] = frame.bandwidth;
        println!(
            "encrypted keys {keys:>10}   refreshed nodes: compromised {compromised:>8}   join-only {join_only:>8}"
        );
        println!(
            "{:<28} {:>10} {:>10} {:>10}",
            "latency", "count", "p50", "p99"
        );
        for (name, count, p50, p99) in &frame.hists {
            println!(
                "{name:<28} {count:>10} {:>10} {:>10}",
                fmt_ns(*p50),
                fmt_ns(*p99)
            );
        }
        if frame.hists.is_empty() {
            println!("(no latency histograms yet — waiting for traffic)");
        }

        frame_no += 1;
        if iters > 0 && frame_no >= iters {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(period_ms.max(50)));
    }
}

fn cmd_metrics_check(args: &Args) -> CliResult {
    let file = path_flag(args, "file")?;
    let (source, text) = match file {
        Some(path) => {
            args.finish()?;
            (path.clone(), std::fs::read_to_string(&path)?)
        }
        None => {
            let addr = admin_addr_flag(args)?;
            args.finish()?;
            let health = rekey_obs::admin::http_get(addr, "/healthz", Duration::from_secs(2))?;
            println!(
                "{addr} /healthz: HTTP {} ({})",
                health.status,
                health.body.trim()
            );
            let response = rekey_obs::admin::http_get(addr, "/metrics", Duration::from_secs(2))?;
            if response.status != 200 {
                return Err(format!("/metrics returned HTTP {}", response.status).into());
            }
            (format!("{addr}/metrics"), response.body)
        }
    };
    let summary = rekey_obs::prom::validate(&text)?;
    println!(
        "{source}: valid Prometheus exposition — {} samples, {} counters, {} gauges, {} histograms",
        summary.samples,
        summary.counters.len(),
        summary.gauges.len(),
        summary.histograms.len()
    );
    Ok(())
}

/// Offline inspection of a `--data-dir`: snapshot epoch, WAL record
/// range across both segments, torn bytes, and the resulting durable
/// epoch. CI greps the
/// `durable epoch` line to assert monotonicity across a kill/restart.
fn cmd_snapshot(args: &Args) -> CliResult {
    use rekey_core::persist::{record_head, split_snapshot, RECORD_WIRE_VERSION};
    use rekey_storage::{DirStorage, Storage};

    let dir = path_flag(args, "data-dir")?.ok_or("snapshot requires --data-dir <dir>")?;
    args.finish()?;
    let mut storage = DirStorage::open(&dir)?;

    let snapshot_epoch = match storage.load_snapshot()? {
        Some(blob) => {
            let (epoch, _, _) = split_snapshot(&blob)?;
            println!("snapshot: epoch {epoch}, {} bytes", blob.len());
            epoch
        }
        None => {
            println!("snapshot: none");
            0
        }
    };

    let replay = storage.read_wal()?;
    let heads: Vec<(u8, u64)> = replay
        .records
        .iter()
        .map(|bytes| record_head(bytes))
        .collect::<Result<_, _>>()?;
    let last_epoch = heads.last().map(|&(_, epoch)| epoch);
    match (heads.first(), last_epoch) {
        (Some((_, first)), Some(last)) => println!(
            "wal: {} record(s), epochs {first}..={last}, {} torn byte(s) dropped",
            heads.len(),
            replay.dropped_bytes
        ),
        _ => println!(
            "wal: 0 records, {} torn byte(s) dropped",
            replay.dropped_bytes
        ),
    }
    let versions: std::collections::BTreeSet<u8> = heads.iter().map(|&(v, _)| v).collect();
    for version in &versions {
        let verdict = if *version == RECORD_WIRE_VERSION {
            "this build replays it"
        } else {
            "another planner: this build refuses to replay it, drain under the build that wrote it"
        };
        println!("wal: record version {version} ({verdict})");
    }

    // The records are both WAL segments', oldest first. A crash between
    // the snapshot write and the emptying of the segment it covers can
    // leave records the snapshot already covers; durability is the max
    // of both, exactly as recovery computes it.
    let durable = last_epoch.unwrap_or(0).max(snapshot_epoch);
    println!("durable epoch: {durable}");
    Ok(())
}

/// The `l` members `rekey transport` removes from a group of
/// `0..n`: distinct ids below `n`, spread over the whole tree. The
/// stride is odd on purpose — at degree 4 an even stride such as 32
/// removes whole subtrees, and a 512-leave batch at n = 16 384
/// collapses to 10 encrypted keys instead of 4 948.
fn pick_leavers(n: u64, l: u64) -> Result<Vec<MemberId>, args::ArgsError> {
    if l == 0 || l > n {
        return Err(args::ArgsError::BadValue {
            flag: "l".to_string(),
            value: l.to_string(),
        });
    }
    // Largest odd stride ≤ n / l, so the last id (l − 1)·stride < n.
    let stride = (n / l - 1) | 1;
    Ok((0..l).map(|i| MemberId(i * stride)).collect())
}

fn cmd_transport(args: &Args) -> CliResult {
    let n: u64 = args.get_parsed_or("n", 1024u64)?;
    let l: u64 = args.get_parsed_or("l", 16u64)?;
    // The ranges `Population::two_point` asserts.
    let loss_rate = |p: &f64| (0.0..1.0).contains(p);
    let alpha: f64 = args.get_checked_or("alpha", 0.2f64, unit_interval)?;
    let ph: f64 = args.get_checked_or("ph", 0.2f64, loss_rate)?;
    let pl: f64 = args.get_checked_or("pl", 0.02f64, loss_rate)?;
    let seed: u64 = args.get_parsed_or("seed", 1u64)?;
    let protocol = args.get_or("protocol", "wka");
    args.finish()?;
    let leavers = pick_leavers(n, l)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut server = LkhServer::new(4, 0);
    let joins: Vec<(MemberId, Key)> = (0..n)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    server.apply_batch(&joins, &[], &mut rng);
    let out = server.apply_batch(&[], &leavers, &mut rng);
    let present: Vec<MemberId> = (0..n)
        .map(MemberId)
        .filter(|m| !leavers.contains(m))
        .collect();
    let interest = interest_map(&out.message, |node, out| {
        server.members_under_into(node, out)
    });
    let pop = Population::two_point(&present, alpha, ph, pl, &mut rng);

    println!(
        "rekey message: {} encrypted keys ({} bytes) for {} receivers",
        out.message.encrypted_key_count(),
        out.message.byte_len(),
        present.len()
    );
    let report = match protocol.as_str() {
        "wka" => {
            wka_bkr::deliver(
                &out.message,
                &interest,
                &pop,
                &wka_bkr::WkaBkrConfig::default(),
                &mut rng,
            )
            .report
        }
        "fec" => {
            fec::deliver(
                &out.message,
                &interest,
                &pop,
                &fec::FecConfig::default(),
                &mut rng,
            )
            .report
        }
        "multisend" => multisend::deliver(
            &out.message,
            &interest,
            &pop,
            &multisend::MultiSendConfig::default(),
            &mut rng,
        ),
        other => return Err(format!("unknown protocol {other:?}").into()),
    };
    println!(
        "{protocol}: complete={} rounds={} packets={} keys_transmitted={}",
        report.complete, report.rounds, report.packets, report.keys_transmitted
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_leavers_are_distinct_members() {
        for (n, l) in [(1024, 16), (16_384, 512), (16_384, 16_384), (7, 3)] {
            let leavers = pick_leavers(n, l).expect("1 <= l <= n");
            assert_eq!(leavers.len() as u64, l, "n={n} l={l}");
            assert!(leavers.iter().all(|m| m.0 < n), "n={n} l={l}");
            let distinct: std::collections::BTreeSet<_> = leavers.iter().collect();
            assert_eq!(distinct.len(), leavers.len(), "n={n} l={l}");
        }
    }

    #[test]
    fn transport_rejects_leaver_counts_outside_the_group() {
        for (n, l) in [(16, 0), (16, 17), (0, 1)] {
            assert!(
                matches!(
                    pick_leavers(n, l),
                    Err(args::ArgsError::BadValue { ref flag, .. }) if flag == "l"
                ),
                "n={n} l={l}"
            );
        }
    }

    #[test]
    fn summary_of_known_values() {
        let (mean, std, min, max) = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert!((mean - 2.5).abs() < 1e-12);
        assert!((std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!((min, max), (1.0, 4.0));
    }

    #[test]
    fn summary_of_empty() {
        assert_eq!(summarize(&[]), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn single_value_has_zero_stddev() {
        assert_eq!(summarize(&[7.0]).1, 0.0);
    }

    /// A cell that breaks an invariant leaves a shrunk trace the replay
    /// path accepts and that still fails.
    #[test]
    fn a_failing_cell_is_shrunk_to_a_replayable_trace() {
        use rekey_core::GroupKeyManager;
        use rekey_testkit::{bugs::SkipOneLeave, run_scenario, RunOptions, Scenario};

        let dir = std::env::temp_dir().join(format!("rekey-cli-shrink-{}", std::process::id()));
        let factory = |s: &Scenario| -> Box<dyn GroupKeyManager> {
            Box::new(SkipOneLeave::new(rekey_core::partition::TtManager::new(
                s.degree as usize,
                u64::from(s.k),
            )))
        };
        let trace = rekey_testkit::Trace {
            generator: "uniform".into(),
            scenario: Scenario::generate(5, 30, &rekey_testkit::GenParams::default()),
        };
        let opts = RunOptions::default();
        let violation = run_scenario(&factory, &trace.scenario, &opts, |_| {}).unwrap_err();
        let dir_name = dir.to_str().unwrap();
        let path = shrink_cell(&factory, "tt", &trace, None, violation, dir_name).unwrap();
        assert_eq!(
            path,
            format!("{dir_name}/uniform-seed5-tt.shrunk.trace.bin")
        );
        let shrunk = read_trace(&path).expect("the replay path accepts a shrunk trace");
        assert!(shrunk.scenario.op_count() < trace.scenario.op_count());
        assert!(run_scenario(&factory, &shrunk.scenario, &opts, |_| {}).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
