//! The benchmark's metric tables: name, unit, direction and — for the
//! end-to-end ones — the bound by which a metric may worsen before
//! `compare` fails. `BENCHMARK.json` at the repository root states the
//! same tables; a test keeps the two equal.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base value by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by the untraced run, on
/// every workload. The timings take the fastest of the rounds and the
/// bounds are wide because the reference host's speed drifts by a tenth
/// and more, in bursts and for minutes on end (README, "Steadiness").
pub const END_TO_END: [MetricDef; 7] = [
    e2e("interval_ms_best_of_rounds", "ms", Lower, 0.25),
    e2e("member_changes_per_s", "1/s", Higher, 0.25),
    e2e("encrypted_keys_per_interval", "count", Lower, 0.10),
    e2e("wire_bytes_per_interval", "bytes", Lower, 0.10),
    e2e("recovery_ms_p10", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// What single layers do. Reported by the traced run, on every
/// workload; no bounds.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("crypto.keywrap_keys_per_s", "1/s", Higher),
    layer("crypto.wrap_count", "count", Lower),
    layer("crypto.unwrap_count", "count", Lower),
    layer("crypto.hmac_count", "count", Lower),
    layer("crypto.chacha20_blocks", "count", Lower),
    layer("core.engine.process_ms_p50", "ms", Lower),
    layer("core.engine.process_ms_p90", "ms", Lower),
    layer("core.engine.share_pct", "%", Lower),
    layer("core.engine.ns_per_key", "ns", Lower),
    layer("core.engine.keys_per_change", "count", Lower),
    layer("core.engine.migrations_per_interval", "count", Lower),
    layer("keytree.mutate_ms_p50", "ms", Lower),
    layer("keytree.plan_ms_p50", "ms", Lower),
    layer("keytree.execute_ms_p50", "ms", Lower),
    layer("core.persist.self_us_p50", "us", Lower),
    layer("core.persist.share_pct", "%", Lower),
    layer("core.persist.recover_ms_p50", "ms", Lower),
    layer("core.persist.replay_ms_per_record", "ms", Lower),
    layer("storage.wal_append_us_p50", "us", Lower),
    layer("storage.wal_sync_us_p50", "us", Lower),
    layer("storage.wal_record_bytes_mean", "bytes", Lower),
    layer("storage.snapshot_write_ms_p50", "ms", Lower),
    layer("storage.snapshot_bytes", "bytes", Lower),
    layer("storage.snapshot_load_ms_p50", "ms", Lower),
    layer("storage.wal_read_ms_p50", "ms", Lower),
    layer("storage.share_pct", "%", Lower),
    layer("keytree.codec.encode_ms_p50", "ms", Lower),
    layer("keytree.codec.decode_ms_p50", "ms", Lower),
    layer("keytree.codec.bytes_per_key", "bytes", Lower),
    layer("keytree.member.process_ms_p50", "ms", Lower),
    layer("net.publish_us_p50", "us", Lower),
    layer("net.deliver_ms_p50", "ms", Lower),
    layer("net.transit_ms_p50", "ms", Lower),
    layer("net.loopback_mb_per_s", "MB/s", Higher),
    layer("net.propagation_ms_p50", "ms", Lower),
    layer("net.handshake_ms", "ms", Lower),
    layer("net.bytes_out", "bytes", Lower),
    layer("net.nacks", "count", Lower),
    layer("net.retransmit_frames", "count", Lower),
    layer("net.client_reconnects", "count", Lower),
    layer("net.backpressure_drops", "count", Lower),
    layer("net.share_pct", "%", Lower),
    layer("interval_ms_p50", "ms", Lower),
    layer("interval_ms_p90", "ms", Lower),
    layer("interval_ms_tail", "ms", Lower),
    layer("interval_tail_percentile", "%", Higher),
    layer("recovery_ms_p50", "ms", Lower),
    layer("workload.generate_s", "s", Lower),
    layer("workload.joins_total", "count", Higher),
    layer("workload.leaves_total", "count", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.residual_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
];

/// The layers' self-times must cover the timed region to within this
/// share, or the traced run fails.
pub const MAX_RESIDUAL_PCT: f64 = 10.0;

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Position of `name` in the tables (for a stable print order).
pub fn position(name: &str) -> usize {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .position(|d| d.name == name)
        .unwrap_or(usize::MAX)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind a percentile or mean, where there are any.
    pub samples: Option<usize>,
}

impl Metric {
    /// A value with no sample count (a count, a peak).
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: None,
        }
    }

    /// A value computed from `samples` samples.
    pub fn sampled(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples: Some(samples),
        }
    }

    /// The metric's unit, from the tables.
    pub fn unit(&self) -> &'static str {
        def(self.name).map_or("", |d| d.unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use rekey_obs::json::{self, Value};

    fn str_field<'a>(value: &'a Value, key: &str) -> &'a str {
        value
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string {key:?}"))
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the harness prints and `compare` enforces. They must not drift.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (stated, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_field(stated, "name"), spec.name);
            assert_eq!(str_field(stated, "why"), spec.why);
            assert!(spec.why.len() <= 200, "{}: why too long", spec.name);
        }

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let stated = doc.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(stated.len(), table.len(), "{key}");
            for (stated, def) in stated.iter().zip(table) {
                assert_eq!(str_field(stated, "name"), def.name);
                assert_eq!(str_field(stated, "unit"), def.unit, "{}", def.name);
                assert_eq!(
                    str_field(stated, "better"),
                    def.better.as_str(),
                    "{}",
                    def.name
                );
                assert_eq!(
                    stated.get("bound").and_then(Value::as_num),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }

        let seconds = doc
            .get("run_seconds")
            .and_then(Value::as_num)
            .expect("run_seconds");
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }
}
