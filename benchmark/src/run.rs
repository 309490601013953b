//! One run of one workload: rounds of set-up + measurement, then the
//! metrics.
//!
//! A run sets the system up several times (`Spec::rounds`), so that
//! `setup_s` is a median, and measures after each set-up. Every round
//! replays the same seed, so every round sees the same inputs and must
//! produce the same bytes. A traced run keeps its first round untraced:
//! the difference between that round and the traced ones is the tracing
//! overhead.

use crate::harness::{NetCounts, Sample, World, SNAPSHOT_EVERY};
use crate::metrics::Metric;
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::trace::{self_times_ns, Probes, Span, Tracer};
use crate::workload::Spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_crypto::keywrap::WrapKek;
use rekey_crypto::Key;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When a run stops measuring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// Measure for this many seconds in total, split evenly over
    /// the workload's rounds. A finite script always runs to its end, and
    /// rounds repeat until the time is used up.
    Seconds(f64),
    /// Measure this many intervals in one round (plus the few needed to
    /// reach the crash point). Exact per seed; for tests.
    Intervals(usize),
}

/// Parameters of a run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every input.
    pub seed: u64,
    /// Stop rule.
    pub stop: Stop,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where temp data dirs and trace files go.
    pub out_dir: PathBuf,
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Intervals attempted.
    pub attempted: u64,
    /// Intervals that failed a check. A failed interval ends the run.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// Values of the other table that this run could also compute, e.g.
    /// the untraced median and tail. Printed, not part of the result.
    pub info: Vec<Metric>,
    /// SHA-256 over the published payloads of the first round.
    pub wire_digest: [u8; 32],
    /// SHA-256 over the batches of the first round.
    pub batch_digest: [u8; 32],
}

/// What the rounds of a run add up to.
#[derive(Default)]
struct Totals {
    attempted: u64,
    errors: Vec<String>,
    setup_s: Vec<f64>,
    /// Samples of the rounds that count, round by round: all of them in
    /// an untraced run, the traced ones in a traced run.
    rounds: Vec<Vec<Sample>>,
    /// A traced run's untraced first round.
    baseline: Vec<Sample>,
    recovery_ms: Vec<f64>,
    net: NetCounts,
    generate_s: f64,
    measure: Duration,
    /// Per-interval sums of the program's own phase spans.
    phase_ms: BTreeMap<&'static str, Vec<f64>>,
    propagation_ms: Vec<f64>,
    counters: BTreeMap<&'static str, u64>,
    /// Intervals measured while the probes were installed.
    probed_intervals: u64,
}

const PHASE_PROBES: [&str; 3] = ["rekey.mutate", "rekey.plan", "rekey.execute"];
const COUNTER_PROBES: [&str; 8] = [
    "crypto.keywrap.wrap",
    "crypto.keywrap.unwrap",
    "crypto.hmac",
    "crypto.chacha20_blocks",
    "persist.wal.append.bytes",
    "persist.wal.append.records",
    "persist.snapshot.bytes",
    "persist.snapshot.writes",
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `spec` once under `cfg`.
pub fn run_workload(spec: &'static Spec, cfg: &RunConfig) -> RunReport {
    let tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let probes = Arc::new(Probes::default());
    let keywrap_keys_per_s = cfg.trace.then(keywrap_keys_per_s);
    let mut totals = Totals::default();
    let mut digests = ([0u8; 32], [0u8; 32]);

    let (min_rounds, seconds) = match cfg.stop {
        Stop::Seconds(s) => (spec.rounds, s),
        // A traced run needs its untraced reference round.
        Stop::Intervals(_) => (1 + usize::from(cfg.trace), 0.0),
    };
    let mut round = 0;
    while round < min_rounds || totals.measure.as_secs_f64() < seconds {
        let baseline = cfg.trace && round == 0;
        let round_tracer = if baseline {
            Tracer::off()
        } else {
            tracer.clone()
        };
        let label = format!("{}-{}-{round}", spec.name, std::process::id());
        let setup_start = Instant::now();
        let world = World::set_up(spec, cfg.seed, round_tracer, &cfg.out_dir, &label);
        totals.setup_s.push(setup_start.elapsed().as_secs_f64());
        let mut world = match world {
            Ok(world) => world,
            Err(e) => {
                totals.errors.push(format!("set-up: {e}"));
                break;
            }
        };

        let probed = cfg.trace && !baseline;
        if probed {
            probes.clear();
            rekey_obs::install(probes.clone());
        }
        let limit = RoundLimit {
            stop: cfg.stop,
            budget: Duration::from_secs_f64(seconds / spec.rounds as f64),
            // Only the first round feeds the exact-per-seed bandwidth means.
            min_intervals: if round == 0 { spec.exact_prefix } else { 0 },
        };
        let measured = measure_round(
            spec,
            limit,
            &mut world,
            &mut totals,
            probed.then_some(&*probes),
        );
        if probed {
            rekey_obs::uninstall();
            for name in COUNTER_PROBES {
                *totals.counters.entry(name).or_default() += probes.take_counter(name);
            }
            totals.propagation_ms.extend(
                probes
                    .take_times_ns("net.client.propagation_ns")
                    .into_iter()
                    .map(ms),
            );
            totals.probed_intervals += measured.len() as u64;
        }

        // Same seed, same inputs: every round must emit what the first
        // one emitted.
        if let Some(i) = measured
            .iter()
            .zip(totals.first_round())
            .position(|(a, b)| (a.encrypted_keys, a.wire_bytes) != (b.encrypted_keys, b.wire_bytes))
        {
            totals.errors.push(format!(
                "round {round}: interval {i} differs from the first round's"
            ));
        }
        if baseline {
            totals.baseline = measured;
        } else {
            totals.rounds.push(measured);
        }
        totals.generate_s += world.generate_time().as_secs_f64();
        match world.finish() {
            Ok((net, wire, batches)) => {
                totals.net += net;
                if round == 0 {
                    digests = (wire, batches);
                }
            }
            Err(e) => totals.errors.push(format!("round {round}: {e}")),
        }
        if !totals.errors.is_empty() {
            break;
        }
        round += 1;
    }

    let spans = tracer.spans();
    let metrics = if cfg.trace {
        per_layer_metrics(spec, &totals, &spans, keywrap_keys_per_s.unwrap_or(0.0))
    } else {
        end_to_end_metrics(spec, &totals)
    };
    if cfg.trace {
        let path = cfg.out_dir.join(format!("{}.trace.json", spec.name));
        if let Err(e) = std::fs::write(&path, crate::trace::chrome_json(&spans)) {
            totals.errors.push(format!("write {}: {e}", path.display()));
        }
        let residual = metrics
            .iter()
            .find(|m| m.name == "trace.residual_pct")
            .map_or(0.0, |m| m.value);
        if residual > crate::metrics::MAX_RESIDUAL_PCT {
            totals.errors.push(format!(
                "layer self-times leave {residual:.1} % of the timed region unexplained (limit {} %)",
                crate::metrics::MAX_RESIDUAL_PCT
            ));
        }
    }
    // Each mode reports its own table; what else was computed is
    // printed beside it, but is not part of the result.
    let table: &[crate::metrics::MetricDef] = if cfg.trace {
        &crate::metrics::PER_LAYER
    } else {
        &crate::metrics::END_TO_END
    };
    let (mut metrics, info): (Vec<Metric>, Vec<Metric>) = metrics
        .into_iter()
        .partition(|m| table.iter().any(|d| d.name == m.name));
    metrics.sort_by_key(|m| crate::metrics::position(m.name));

    RunReport {
        workload: spec.name,
        attempted: totals.attempted,
        failed: totals.errors.len() as u64,
        errors: totals.errors,
        metrics,
        info,
        wire_digest: digests.0,
        batch_digest: digests.1,
    }
}

/// When a round of an endless script may end.
struct RoundLimit {
    stop: Stop,
    /// The round's share of a time-bound run.
    budget: Duration,
    /// Intervals a time-bound round measures at least.
    min_intervals: usize,
}

/// Measures one round on `world`. Returns the samples of its intervals
/// in order; a failure is pushed to `totals.errors` and ends the round.
fn measure_round(
    spec: &Spec,
    limit: RoundLimit,
    world: &mut World,
    totals: &mut Totals,
    probes: Option<&Probes>,
) -> Vec<Sample> {
    let mut measured: Vec<Sample> = Vec::new();
    let mut cycles_since_crash = 0;
    let start = Instant::now();
    loop {
        let Some(batch) = world.next_batch() else {
            totals
                .errors
                .push("script ended before the round did".into());
            break;
        };
        let is_last = world.remaining_batches() == Some(0);
        let limit_reached = match limit.stop {
            Stop::Seconds(_) => {
                world.remaining_batches().is_none()
                    && start.elapsed() >= limit.budget
                    && measured.len() >= limit.min_intervals
            }
            Stop::Intervals(n) => measured.len() >= n,
        };
        // A crash interrupts the last interval before a snapshot, so a
        // recovery always replays `SNAPSHOT_EVERY - 1` records; never
        // the snapshot interval itself, whose frame no WAL record could
        // re-derive; and never before the unpublished set-up epochs
        // have left the WAL.
        let tail = world.wal_tail_len();
        let can_crash = tail + 1 < SNAPSHOT_EVERY && measured.len() >= SNAPSHOT_EVERY;
        let aligned = tail + 2 == SNAPSHOT_EVERY;
        let ending = is_last || limit_reached;
        let due = cycles_since_crash >= spec.crash_every_cycles;
        let crash = can_crash && (is_last || (aligned && (due || ending)));

        totals.attempted += 1;
        let result = if crash {
            world
                .crash_and_recover(&batch)
                .map(|(sample, recovery_ns)| {
                    totals.recovery_ms.push(ms(recovery_ns));
                    sample
                })
        } else if is_last {
            Err("the script ends on an interval a crash cannot interrupt".into())
        } else {
            world.interval(&batch)
        };
        if crash {
            cycles_since_crash = 0;
        } else if world.wal_tail_len() == 0 {
            cycles_since_crash += 1; // the interval ended with a snapshot
        }
        match result {
            Ok(sample) => measured.push(sample),
            Err(e) => {
                totals.errors.push(e);
                break;
            }
        }
        if let Some(probes) = probes {
            for name in PHASE_PROBES {
                let sum: u64 = probes.take_times_ns(name).iter().sum();
                totals.phase_ms.entry(name).or_default().push(ms(sum));
            }
        }
        if crash && ending {
            break;
        }
    }
    totals.measure += start.elapsed();
    measured
}

/// Timed `WrapKek` wrap of 4 096 keys; median of five passes.
fn keywrap_keys_per_s() -> f64 {
    const KEYS: usize = 4096;
    let mut rng = StdRng::seed_from_u64(0x6B77);
    let kek = WrapKek::new(&Key::generate(&mut rng));
    let payloads: Vec<Key> = (0..KEYS).map(|_| Key::generate(&mut rng)).collect();
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for payload in &payloads {
                std::hint::black_box(kek.wrap(std::hint::black_box(payload), &mut rng));
            }
            KEYS as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Totals {
    /// The run's first round: the untraced one of a traced run.
    fn first_round(&self) -> &[Sample] {
        if self.baseline.is_empty() {
            self.rounds.first().map_or(&[], Vec::as_slice)
        } else {
            &self.baseline
        }
    }

    /// The first `exact_prefix` intervals of the first round: what the
    /// exact-per-seed means are taken over.
    fn exact_prefix(&self, spec: &Spec) -> &[Sample] {
        let first = self.first_round();
        &first[..spec.exact_prefix.min(first.len())]
    }

    /// Every sample of the rounds that count.
    fn samples(&self) -> impl Iterator<Item = &Sample> + Clone {
        self.rounds.iter().flatten()
    }

    /// Per position of the script that every counting round reached and
    /// at least one delivered: the fastest time any round took for it,
    /// and its joins plus leaves. Every round replays the same inputs,
    /// so position `i` is the same work in each.
    fn best_of_rounds(&self) -> Vec<(f64, usize)> {
        let common = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        (0..common)
            .filter_map(|i| {
                let best = self.rounds.iter().filter_map(|r| r[i].interval_ns).min()?;
                Some((ms(best), self.rounds[0][i].changes()))
            })
            .collect()
    }
}

/// The timed regions as a whole: interval latency, throughput and
/// recovery time. The host only ever adds time, in bursts of a few
/// hundred milliseconds to a few seconds, so the metrics with a bound
/// take for every position of the script the fastest of the rounds
/// (and the fastest tenth of the recoveries); the median and the tails
/// over all samples are reported beside them without a bound.
fn whole_interval_metrics(totals: &Totals) -> Vec<Metric> {
    let times: Vec<f64> = totals
        .samples()
        .filter_map(|s| s.interval_ns)
        .map(ms)
        .collect();
    let n = times.len();
    let best = totals.best_of_rounds();
    let best_ms: Vec<f64> = best.iter().map(|(ms, _)| *ms).collect();
    let changes: usize = best.iter().map(|(_, changes)| changes).sum();
    let busy_s = best_ms.iter().sum::<f64>() / 1e3;
    let tail = tail_percentile(n);
    let recoveries = totals.recovery_ms.len();
    vec![
        Metric::sampled("interval_ms_best_of_rounds", mean(&best_ms), best.len()),
        Metric::sampled(
            "member_changes_per_s",
            if busy_s > 0.0 {
                changes as f64 / busy_s
            } else {
                0.0
            },
            best.len(),
        ),
        Metric::sampled("interval_ms_p50", median(&times), n),
        Metric::sampled("interval_ms_p90", percentile(&times, 90.0), n),
        Metric::sampled("interval_ms_tail", percentile(&times, tail), n),
        Metric::sampled("interval_tail_percentile", tail, n),
        Metric::sampled(
            "recovery_ms_p10",
            percentile(&totals.recovery_ms, 10.0),
            recoveries,
        ),
        Metric::sampled("recovery_ms_p50", median(&totals.recovery_ms), recoveries),
    ]
}

fn end_to_end_metrics(spec: &Spec, totals: &Totals) -> Vec<Metric> {
    let prefix = totals.exact_prefix(spec);
    let keys: Vec<f64> = prefix.iter().map(|s| s.encrypted_keys as f64).collect();
    let bytes: Vec<f64> = prefix.iter().map(|s| s.wire_bytes as f64).collect();
    let mut out = whole_interval_metrics(totals);
    out.extend([
        Metric::sampled("encrypted_keys_per_interval", mean(&keys), keys.len()),
        Metric::sampled("wire_bytes_per_interval", mean(&bytes), bytes.len()),
        Metric::new("peak_rss_mb", peak_rss_mb()),
        Metric::sampled("setup_s", median(&totals.setup_s), totals.setup_s.len()),
    ]);
    out
}

/// Durations and self times of the harness's spans, by the root span
/// they sit under (`interval`, `recovery`, `verify`, `setup`) and name.
#[derive(Default)]
struct SpanTable {
    dur_ms: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    own_ms: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// Per interval: `net.publish` return → end of the timed region.
    deliver_ms: Vec<f64>,
}

impl SpanTable {
    fn build(spans: &[Span]) -> SpanTable {
        let own = self_times_ns(spans);
        let mut table = SpanTable::default();
        // A parent precedes its children, so one pass finds every root.
        let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
        for (index, span) in spans.iter().enumerate() {
            let root = span.parent.map_or(index, |p| root_of[p]);
            root_of.push(root);
            let key = (spans[root].name, span.name);
            table.dur_ms.entry(key).or_default().push(ms(span.dur_ns()));
            table.own_ms.entry(key).or_default().push(ms(own[index]));
            if key == ("interval", "net.publish") {
                table.deliver_ms.push(ms(spans[root].end_ns - span.end_ns));
            }
        }
        table
    }

    fn durations(&self, root: &'static str, name: &'static str) -> &[f64] {
        self.dur_ms.get(&(root, name)).map_or(&[], Vec::as_slice)
    }

    fn self_times(&self, root: &'static str, name: &'static str) -> &[f64] {
        self.own_ms.get(&(root, name)).map_or(&[], Vec::as_slice)
    }

    /// Share of the timed regions that spans whose name starts with
    /// `layer` spent in their own code, in percent.
    fn share_pct(&self, layer: &str) -> f64 {
        let total: f64 = self.durations("interval", "interval").iter().sum();
        let own: f64 = self
            .own_ms
            .iter()
            .filter(|((root, name), _)| *root == "interval" && name.starts_with(layer))
            .flat_map(|(_, ms)| ms)
            .sum();
        if total > 0.0 {
            own / total * 100.0
        } else {
            0.0
        }
    }
}

fn per_layer_metrics(
    spec: &Spec,
    totals: &Totals,
    spans: &[Span],
    keywrap_keys_per_s: f64,
) -> Vec<Metric> {
    let table = SpanTable::build(spans);
    let p50 = |root, name| {
        let d = table.durations(root, name);
        (median(d), d.len())
    };
    let mut out = Vec::new();
    let mut sampled = |name: &'static str, (value, n): (f64, usize)| {
        out.push(Metric::sampled(name, value, n));
    };

    // Ratios pair the spans under `interval` roots with the samples of
    // the same, delivered, intervals; the probes' counters also saw the
    // interrupted ones.
    let delivered: Vec<&Sample> = totals
        .samples()
        .filter(|s| s.interval_ns.is_some())
        .collect();
    let total =
        |field: fn(&Sample) -> usize| delivered.iter().map(|s| field(s)).sum::<usize>() as f64;
    let keys = total(|s| s.encrypted_keys);
    let wire_bytes = total(|s| s.wire_bytes);
    let changes = total(Sample::changes);
    let migrations = total(|s| s.migrations);
    let counter = |name: &str| totals.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // crypto
    sampled("crypto.keywrap_keys_per_s", (keywrap_keys_per_s, 5));
    let probed = totals.probed_intervals as usize;
    for (metric, probe) in [
        ("crypto.wrap_count", "crypto.keywrap.wrap"),
        ("crypto.unwrap_count", "crypto.keywrap.unwrap"),
        ("crypto.hmac_count", "crypto.hmac"),
        ("crypto.chacha20_blocks", "crypto.chacha20_blocks"),
    ] {
        sampled(metric, (ratio(counter(probe), probed as f64), probed));
    }

    // core.engine / keytree
    let engine = table.durations("interval", "core.engine.process_interval");
    sampled("core.engine.process_ms_p50", (median(engine), engine.len()));
    sampled(
        "core.engine.process_ms_p90",
        (percentile(engine, 90.0), engine.len()),
    );
    sampled(
        "core.engine.share_pct",
        (table.share_pct("core.engine"), engine.len()),
    );
    sampled(
        "core.engine.ns_per_key",
        (ratio(engine.iter().sum::<f64>() * 1e6, keys), engine.len()),
    );
    sampled(
        "core.engine.keys_per_change",
        (ratio(keys, changes), delivered.len()),
    );
    sampled(
        "core.engine.migrations_per_interval",
        (ratio(migrations, delivered.len() as f64), delivered.len()),
    );
    for (metric, probe) in [
        ("keytree.mutate_ms_p50", "rekey.mutate"),
        ("keytree.plan_ms_p50", "rekey.plan"),
        ("keytree.execute_ms_p50", "rekey.execute"),
    ] {
        let phase = totals.phase_ms.get(probe).map_or(&[][..], Vec::as_slice);
        sampled(metric, (median(phase), phase.len()));
    }

    // core.persist
    let durable = table.self_times("interval", "core.persist.durable_interval");
    sampled(
        "core.persist.self_us_p50",
        (median(durable) * 1e3, durable.len()),
    );
    sampled(
        "core.persist.share_pct",
        (table.share_pct("core.persist"), durable.len()),
    );
    sampled(
        "core.persist.recover_ms_p50",
        p50("recovery", "core.persist.recover"),
    );
    let replayed = table.durations("recovery", "core.engine.process_interval");
    sampled(
        "core.persist.replay_ms_per_record",
        (mean(replayed), replayed.len()),
    );

    // storage
    let us = |(value, n): (f64, usize)| (value * 1e3, n);
    sampled(
        "storage.wal_append_us_p50",
        us(p50("interval", "storage.append_wal")),
    );
    sampled(
        "storage.wal_sync_us_p50",
        us(p50("interval", "storage.sync_wal")),
    );
    sampled(
        "storage.wal_record_bytes_mean",
        (
            ratio(
                counter("persist.wal.append.bytes"),
                counter("persist.wal.append.records"),
            ),
            counter("persist.wal.append.records") as usize,
        ),
    );
    sampled(
        "storage.snapshot_write_ms_p50",
        p50("interval", "storage.write_snapshot"),
    );
    sampled(
        "storage.snapshot_bytes",
        (
            ratio(
                counter("persist.snapshot.bytes"),
                counter("persist.snapshot.writes"),
            ),
            counter("persist.snapshot.writes") as usize,
        ),
    );
    sampled(
        "storage.snapshot_load_ms_p50",
        p50("recovery", "storage.load_snapshot"),
    );
    sampled(
        "storage.wal_read_ms_p50",
        p50("recovery", "storage.read_wal"),
    );
    sampled(
        "storage.share_pct",
        (table.share_pct("storage"), durable.len()),
    );

    // keytree.codec / keytree.member, on the shadow member
    let encode = p50("verify", "keytree.codec.encode_message");
    let decode = p50("verify", "keytree.codec.decode_message");
    let process = p50("verify", "keytree.member.process");
    sampled("keytree.codec.encode_ms_p50", encode);
    sampled("keytree.codec.decode_ms_p50", decode);
    sampled(
        "keytree.codec.bytes_per_key",
        (ratio(wire_bytes, keys), delivered.len()),
    );
    sampled("keytree.member.process_ms_p50", process);

    // net
    sampled("net.publish_us_p50", us(p50("interval", "net.publish")));
    sampled(
        "net.deliver_ms_p50",
        (median(&table.deliver_ms), table.deliver_ms.len()),
    );
    // A client decodes a frame twice and installs it once, and the
    // driver polls the two clients in turn; what is left of the
    // delivery is socket and shard time.
    let client_ms = crate::harness::SENTINELS as f64 * (2.0 * decode.0 + process.0);
    sampled(
        "net.transit_ms_p50",
        (
            (median(&table.deliver_ms) - client_ms).max(0.0),
            table.deliver_ms.len(),
        ),
    );
    let deliver_s = table.deliver_ms.iter().sum::<f64>() / 1e3;
    sampled(
        "net.loopback_mb_per_s",
        (
            ratio(
                wire_bytes * crate::harness::SENTINELS as f64 / 1e6,
                deliver_s,
            ),
            table.deliver_ms.len(),
        ),
    );
    sampled(
        "net.propagation_ms_p50",
        (median(&totals.propagation_ms), totals.propagation_ms.len()),
    );
    sampled(
        "net.handshake_ms",
        (
            ratio(
                totals.net.handshake_ns as f64 / 1e6,
                totals.net.handshakes as f64,
            ),
            totals.net.handshakes as usize,
        ),
    );
    sampled(
        "net.bytes_out",
        (
            ratio(totals.net.bytes_out as f64, totals.attempted as f64),
            totals.attempted as usize,
        ),
    );
    out.push(Metric::new("net.nacks", totals.net.steady_nacks as f64));
    out.push(Metric::new(
        "net.retransmit_frames",
        totals.net.steady_retransmits as f64,
    ));
    out.push(Metric::new(
        "net.client_reconnects",
        totals.net.steady_reconnects as f64,
    ));
    out.push(Metric::new(
        "net.backpressure_drops",
        totals.net.backpressure_drops as f64,
    ));
    out.push(Metric::sampled(
        "net.share_pct",
        table.share_pct("net"),
        durable.len(),
    ));

    // the timed regions as a whole, here with the tracing overhead
    out.extend(whole_interval_metrics(totals));

    // workload / trace
    let prefix = totals.exact_prefix(spec);
    out.push(Metric::new("workload.generate_s", totals.generate_s));
    out.push(Metric::sampled(
        "workload.joins_total",
        prefix.iter().map(|s| s.joins).sum::<usize>() as f64,
        prefix.len(),
    ));
    out.push(Metric::sampled(
        "workload.leaves_total",
        prefix.iter().map(|s| s.leaves).sum::<usize>() as f64,
        prefix.len(),
    ));
    // Position by position, the first traced round against the untraced
    // one; the median ratio ignores the positions a burst of host noise
    // hit on either side.
    let ratios: Vec<f64> = totals
        .baseline
        .iter()
        .zip(totals.rounds.first().map_or(&[][..], Vec::as_slice))
        .filter_map(|(untraced, traced)| {
            Some(traced.interval_ns? as f64 / untraced.interval_ns? as f64)
        })
        .collect();
    out.push(Metric::sampled(
        "trace.overhead_pct",
        if ratios.is_empty() {
            0.0
        } else {
            (median(&ratios) - 1.0) * 100.0
        },
        ratios.len(),
    ));
    out.push(Metric::sampled(
        "trace.residual_pct",
        table.share_pct("interval"),
        table.durations("interval", "interval").len(),
    ));
    out.push(Metric::new("trace.spans", spans.len() as f64));
    out
}
