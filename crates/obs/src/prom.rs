//! Prometheus text exposition: counters as `_total` counters,
//! duration histograms as real `histogram` families with cumulative
//! log₂ `_bucket{le=...}` lines, gauges as their last sampled value —
//! every family preceded by `# HELP` and `# TYPE` metadata so a real
//! Prometheus server scrapes it without complaint.
//!
//! [`validate`] re-parses an exposition document with no external
//! tooling and checks the format invariants (metadata present, names
//! in the Prometheus charset, buckets cumulative and `+Inf`-terminated,
//! `_count`/`_bucket` consistency). The CLI's `metrics-check` command
//! and the CI admin smoke both go through it.

use crate::collect::MetricsSnapshot;
use crate::ObsError;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps a dotted metric name (`crypto.chacha20_blocks`) to the
/// Prometheus charset (`crypto_chacha20_blocks`).
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// One-line `# HELP` text for a metric family. Known families get a
/// real description; everything else gets a generic (but present)
/// line, because scrapers treat a family without metadata as a format
/// smell.
fn help_for(family: &str) -> &'static str {
    match family {
        "net_fanout_bytes_total" => "Framed epoch bytes handed to the fan-out shards",
        "net_bytes_out_total" => "Payload bytes written to client sockets",
        "net_bytes_in_total" => "Payload bytes read from client sockets",
        "net_sessions_opened_total" => "Sessions accepted and authenticated",
        "net_sessions_closed_total" => "Sessions closed (EOF, error, Bye, or drain)",
        "net_sessions_rejected_total" => "Handshakes refused",
        "net_sessions_dropped_backpressure_total" => {
            "Sessions disconnected for overflowing their send queue"
        }
        "net_epochs_published_total" => "Rekey epochs published to the fan-out",
        "net_retransmit_frames_total" => "Epoch frames retransmitted from the NACK window",
        "net_acks_total" => "Client propagation acknowledgements received",
        "net_propagation_seconds" => {
            "End-to-end rekey propagation: fan-out stamp to client DEK install"
        }
        "net_fanout_seconds" => "Time to frame and enqueue one epoch on every shard",
        "net_session_handshake_seconds" => "Challenge/response handshake duration",
        "net_queue_depth" => "Deepest per-session send queue observed in a shard sweep",
        "net_sessions_live" => "Authenticated sessions currently connected",
        "rekey_encrypted_keys_total" => "Encrypted keys produced by the rekey engine",
        "rekey_nodes_compromised_total" => {
            "Refreshed key nodes a leaver sat below, new, or an empty tree's root: fresh and wrapped under every child, or derived by G from a compromised child and wrapped under the others"
        }
        "rekey_nodes_derived_total" => {
            "Compromised key nodes derived by the one-way G from a compromised child instead of wrapped under it"
        }
        "rekey_nodes_join_only_total" => {
            "Refreshed key nodes advanced by the one-way F and wrapped under changed children only"
        }
        "crypto_key_advance_total" => "One-way key advances F computed (one ChaCha20 block each)",
        "crypto_key_derive_total" => "One-way chain derivations G computed (one ChaCha20 block each)",
        "obs_dropped_events_total" => "Raw events discarded after the retention cap",
        _ => "rekey runtime metric",
    }
}

fn write_meta(out: &mut String, family: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {family} {}", help_for(family));
    let _ = writeln!(out, "# TYPE {family} {kind}");
}

/// Renders the snapshot in Prometheus text exposition format.
pub(crate) fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    for (name, value) in &snapshot.counters {
        let family = format!("{}_total", sanitize(name));
        write_meta(&mut out, &family, "counter");
        let _ = writeln!(out, "{family} {value}");
    }

    for (name, hist) in &snapshot.hists {
        if hist.count() == 0 {
            continue;
        }
        let family = format!("{}_seconds", sanitize(name));
        write_meta(&mut out, &family, "histogram");
        // Cumulative log₂ buckets over the occupied range. Bucket i of
        // the histogram holds values < 2^i ns, so `le = 2^i / 1e9` s.
        let (counts, lowest, highest) = hist.bucket_counts();
        let mut cumulative = 0u64;
        for (i, &n) in counts.iter().enumerate().take(highest + 1).skip(lowest) {
            cumulative += n;
            let le = (1u128 << i) as f64 / 1e9;
            let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{family}_sum {:.9}", hist.sum() as f64 / 1e9);
        let _ = writeln!(out, "{family}_count {}", hist.count());
    }

    // Gauge series: export the most recent sample of each name.
    let mut last: BTreeMap<&str, f64> = BTreeMap::new();
    for sample in &snapshot.samples {
        last.insert(sample.name, sample.value);
    }
    for (name, value) in last {
        let family = sanitize(name);
        write_meta(&mut out, &family, "gauge");
        let _ = writeln!(out, "{family} {value}");
    }

    if snapshot.dropped_spans > 0 || snapshot.dropped_samples > 0 {
        write_meta(&mut out, "obs_dropped_events_total", "counter");
        let _ = writeln!(
            out,
            "obs_dropped_events_total {}",
            snapshot.dropped_spans + snapshot.dropped_samples
        );
    }
    out
}

/// What [`validate`] found in a well-formed exposition document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromSummary {
    /// Counter families and their values.
    pub counters: BTreeMap<String, f64>,
    /// Gauge families and their values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram families and their `_count` values.
    pub histograms: BTreeMap<String, u64>,
    /// Total sample lines in the document.
    pub samples: usize,
}

fn metrics_err(line: usize, detail: impl Into<String>) -> ObsError {
    ObsError::Metrics {
        line,
        detail: detail.into(),
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The histogram family a series name belongs to, if it is a
/// histogram component (`x_bucket` → `x`, `x_sum` → `x`, …).
fn strip_suffix<'a>(series: &'a str, suffix: &str) -> Option<&'a str> {
    series.strip_suffix(suffix).filter(|f| !f.is_empty())
}

/// Validates Prometheus text exposition format using only this crate.
///
/// Checked invariants:
/// - every sample line parses as `name{labels} value`,
/// - every metric name is in the Prometheus charset,
/// - every family has `# TYPE` (and `# HELP`) metadata *before* its
///   first sample,
/// - counter family names end in `_total`,
/// - histogram `_bucket` series are cumulative, non-decreasing, end in
///   an `le="+Inf"` bucket, and agree with `_count`.
///
/// # Errors
///
/// [`ObsError::Metrics`] naming the offending line (1-based).
pub fn validate(text: &str) -> Result<PromSummary, ObsError> {
    #[derive(Default)]
    struct HistState {
        buckets: Vec<(f64, f64)>, // (le, cumulative)
        count: Option<f64>,
        has_inf: bool,
    }

    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeMap<String, bool> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistState> = BTreeMap::new();
    let mut summary = PromSummary::default();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# ") {
            let mut parts = meta.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let family = parts.next().unwrap_or("");
            match keyword {
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if !valid_name(family) {
                        return Err(metrics_err(line_no, format!("bad family name {family:?}")));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(metrics_err(line_no, format!("unknown type {kind:?}")));
                    }
                    if types.insert(family.to_string(), kind.to_string()).is_some() {
                        return Err(metrics_err(line_no, format!("duplicate TYPE for {family}")));
                    }
                }
                "HELP" => {
                    if parts.next().is_none() {
                        return Err(metrics_err(line_no, format!("empty HELP for {family}")));
                    }
                    helps.insert(family.to_string(), true);
                }
                _ => {} // plain comment
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // comment without metadata keyword
        }

        // Sample line: name[{labels}] value
        let (series, labels, value) = {
            let (name_part, rest) = match line.find('{') {
                Some(brace) => {
                    let close = line[brace..]
                        .find('}')
                        .map(|c| brace + c)
                        .ok_or_else(|| metrics_err(line_no, "unterminated label set"))?;
                    (&line[..brace], {
                        let labels = &line[brace + 1..close];
                        let value = line[close + 1..].trim();
                        (Some(labels), value)
                    })
                }
                None => {
                    let mut split = line.splitn(2, ' ');
                    let name = split.next().unwrap_or("");
                    (name, (None, split.next().unwrap_or("").trim()))
                }
            };
            (name_part, rest.0, rest.1)
        };
        if !valid_name(series) {
            return Err(metrics_err(line_no, format!("bad metric name {series:?}")));
        }
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            v => v
                .split_whitespace()
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|_| metrics_err(line_no, format!("bad sample value {value:?}")))?,
        };
        summary.samples += 1;

        // Resolve the family this series belongs to and its type.
        let (family, kind) = if let Some(kind) = types.get(series) {
            (series.to_string(), kind.clone())
        } else {
            let hist_family = [
                strip_suffix(series, "_bucket"),
                strip_suffix(series, "_sum"),
            ]
            .into_iter()
            .flatten()
            .chain(strip_suffix(series, "_count"))
            .find(|f| types.get(*f).map(String::as_str) == Some("histogram"));
            match hist_family {
                Some(f) => (f.to_string(), "histogram".to_string()),
                None => {
                    return Err(metrics_err(
                        line_no,
                        format!("sample {series:?} has no preceding # TYPE"),
                    ))
                }
            }
        };
        if !helps.contains_key(&family) {
            return Err(metrics_err(
                line_no,
                format!("family {family:?} has no # HELP"),
            ));
        }

        match kind.as_str() {
            "counter" => {
                if !family.ends_with("_total") {
                    return Err(metrics_err(
                        line_no,
                        format!("counter {family:?} does not end in _total"),
                    ));
                }
                summary.counters.insert(family, value);
            }
            "gauge" => {
                summary.gauges.insert(family, value);
            }
            "histogram" => {
                let state = hists.entry(family).or_default();
                if series.ends_with("_bucket") {
                    let labels = labels.unwrap_or("");
                    let le = labels
                        .split(',')
                        .find_map(|l| l.trim().strip_prefix("le=").map(|v| v.trim_matches('"')))
                        .ok_or_else(|| metrics_err(line_no, "bucket without le label"))?;
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse()
                            .map_err(|_| metrics_err(line_no, format!("bad le value {le:?}")))?
                    };
                    if let Some(&(prev_le, prev_n)) = state.buckets.last() {
                        if le <= prev_le {
                            return Err(metrics_err(line_no, "bucket le not increasing"));
                        }
                        if value < prev_n {
                            return Err(metrics_err(line_no, "bucket counts not cumulative"));
                        }
                    }
                    state.has_inf |= le.is_infinite();
                    state.buckets.push((le, value));
                } else if series.ends_with("_count") {
                    state.count = Some(value);
                }
            }
            _ => {}
        }
    }

    for (family, state) in hists {
        if !state.has_inf {
            return Err(metrics_err(
                0,
                format!("histogram {family:?} has no +Inf bucket"),
            ));
        }
        let count = state
            .count
            .ok_or_else(|| metrics_err(0, format!("histogram {family:?} has no _count")))?;
        let inf = state.buckets.last().map(|&(_, n)| n).unwrap_or(0.0);
        if (inf - count).abs() > f64::EPSILON {
            return Err(metrics_err(
                0,
                format!("histogram {family:?}: +Inf bucket {inf} != count {count}"),
            ));
        }
        summary.histograms.insert(family, count as u64);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Recorder};

    #[test]
    fn counters_and_histograms_render_with_metadata() {
        let c = Collector::new();
        c.count("crypto.keywrap.wrap", 7);
        c.time("rekey.plan", 1_000_000);
        c.time("rekey.plan", 3_000_000);
        c.sample("sim.message_bytes", 10, 1234.0);
        c.sample("sim.message_bytes", 20, 5678.0);
        let text = c.prometheus_text();
        assert!(text.contains("# TYPE crypto_keywrap_wrap_total counter"));
        assert!(text.contains("# HELP crypto_keywrap_wrap_total "));
        assert!(text.contains("crypto_keywrap_wrap_total 7"));
        assert!(text.contains("# TYPE rekey_plan_seconds histogram"));
        assert!(text.contains("rekey_plan_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("rekey_plan_seconds_count 2"));
        assert!(text.contains("rekey_plan_seconds_sum 0.004000000"));
        // Gauge exports the last sample only.
        assert!(text.contains("# TYPE sim_message_bytes gauge"));
        assert!(text.contains("sim_message_bytes 5678"));
        assert!(!text.contains(" 1234"));
    }

    #[test]
    fn rendered_text_passes_own_validator() {
        let c = Collector::new();
        c.count("net.fanout.bytes", 4096);
        c.count("some.dotted-name/odd", 1);
        c.time("net.propagation", 50_000);
        c.time("net.propagation", 900_000);
        c.time("net.propagation", 12_000_000);
        c.sample("net.queue.depth", 5, 3.0);
        let text = c.prometheus_text();
        let summary = validate(&text).expect("own output validates");
        assert_eq!(summary.counters["net_fanout_bytes_total"], 4096.0);
        assert_eq!(summary.histograms["net_propagation_seconds"], 3);
        assert_eq!(summary.gauges["net_queue_depth"], 3.0);
        assert!(summary.samples > 5);
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let c = Collector::new();
        assert!(c.prometheus_text().is_empty());
        assert_eq!(validate("").unwrap(), PromSummary::default());
    }

    #[test]
    fn sanitize_maps_to_prometheus_charset() {
        assert_eq!(sanitize("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize("0weird"), "_0weird");
    }

    #[test]
    fn buckets_are_cumulative_and_cover_the_range() {
        let c = Collector::new();
        for v in [100u64, 100, 200, 1_000_000] {
            c.time("x", v);
        }
        let text = c.prometheus_text();
        // 100 lands in bucket le=2^7/1e9, 200 in 2^8, 1e6 in 2^20.
        assert!(text.contains("x_seconds_bucket{le=\"0.000000128\"} 2"));
        assert!(text.contains("x_seconds_bucket{le=\"0.000000256\"} 3"));
        assert!(text.contains("x_seconds_bucket{le=\"0.001048576\"} 4"));
        assert!(text.contains("x_seconds_bucket{le=\"+Inf\"} 4"));
        validate(&text).expect("cumulative buckets validate");
    }

    #[test]
    fn validator_rejects_format_violations() {
        // Sample without TYPE metadata.
        assert!(validate("lonely_metric 3\n").is_err());
        // TYPE but no HELP.
        assert!(validate("# TYPE x_total counter\nx_total 1\n").is_err());
        // Counter not ending in _total.
        let doc = "# HELP x x\n# TYPE x counter\nx 1\n";
        assert!(validate(doc).is_err());
        // Non-cumulative buckets.
        let doc = "# HELP h h\n# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n";
        assert!(validate(doc).is_err());
        // Histogram without +Inf.
        let doc = "# HELP h h\n# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_count 5\nh_sum 1\n";
        assert!(validate(doc).is_err());
        // Bad metric name.
        assert!(validate("# HELP 9bad x\n# TYPE 9bad gauge\n9bad 1\n").is_err());
        // Unparseable value.
        let doc = "# HELP g g\n# TYPE g gauge\ng banana\n";
        assert!(validate(doc).is_err());
    }

    #[test]
    fn validator_accepts_inf_and_labels() {
        let doc = "# HELP h h\n# TYPE h histogram\n\
                   h_bucket{le=\"0.001\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
                   h_sum 0.5\nh_count 2\n\
                   # HELP up u\n# TYPE up gauge\nup 1\n";
        let summary = validate(doc).unwrap();
        assert_eq!(summary.histograms["h"], 2);
        assert_eq!(summary.gauges["up"], 1.0);
    }
}
