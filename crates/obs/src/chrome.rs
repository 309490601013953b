//! Chrome `trace_event` JSON export.
//!
//! The emitted file is the "JSON Object Format" of the Trace Event
//! specification: a top-level object whose `traceEvents` array holds
//! duration events (`ph: "B"` / `"E"`, balanced and properly nested
//! per thread) and counter events (`ph: "C"`). Load it in
//! `chrome://tracing`, `about:tracing`, or <https://ui.perfetto.dev>.
//!
//! [`validate_trace`] re-parses an exported file with the crate's own
//! JSON parser and checks the structural invariants (used by the
//! integration tests and the CLI's `trace-check` command), so CI can
//! verify traces without external tooling.

use crate::collect::{MetricsSnapshot, SpanEvent};
use crate::json;
use crate::ObsError;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Counter,
}

#[derive(Debug)]
struct TraceEvent {
    name: String,
    ph: Phase,
    ts_ns: u64,
    tid: u64,
    value: Option<f64>,
}

/// Expands spans into per-thread, properly nested begin/end pairs.
///
/// Spans arrive ordered by *completion*; within one thread RAII
/// guarantees proper nesting, so sorting by start time (ties: longer
/// span first, i.e. the enclosing one) and sweeping with a stack of
/// open end-times reproduces the original nesting exactly. A span's
/// start and its duration come from two clock reads, so a thread
/// descheduled between an enclosing span's two can leave an inner span
/// computed to end a few nanoseconds *after* it; an inner span's end is
/// therefore clamped to the end of the span it is open in.
fn span_events(spans: &[SpanEvent]) -> Vec<TraceEvent> {
    let mut by_tid: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for span in spans {
        by_tid.entry(span.tid).or_default().push(span);
    }
    let mut events = Vec::with_capacity(spans.len() * 2);
    for (tid, mut list) in by_tid {
        list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        // Stack of (name, end_ns) for currently open spans.
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        for span in list {
            let end_ns = span.start_ns.saturating_add(span.dur_ns);
            while let Some(&(name, open_end)) = open.last() {
                if open_end <= span.start_ns {
                    events.push(TraceEvent {
                        name: name.to_string(),
                        ph: Phase::End,
                        ts_ns: open_end,
                        tid,
                        value: None,
                    });
                    open.pop();
                } else {
                    break;
                }
            }
            events.push(TraceEvent {
                name: span.name.to_string(),
                ph: Phase::Begin,
                ts_ns: span.start_ns,
                tid,
                value: None,
            });
            let end_ns = open.last().map_or(end_ns, |&(_, outer)| end_ns.min(outer));
            open.push((span.name, end_ns));
        }
        while let Some((name, end_ns)) = open.pop() {
            events.push(TraceEvent {
                name: name.to_string(),
                ph: Phase::End,
                ts_ns: end_ns,
                tid,
                value: None,
            });
        }
    }
    events
}

/// Renders the snapshot as Chrome trace JSON.
pub(crate) fn render(snapshot: &MetricsSnapshot) -> String {
    let mut events = span_events(&snapshot.spans);
    for sample in &snapshot.samples {
        events.push(TraceEvent {
            name: sample.name.to_string(),
            ph: Phase::Counter,
            ts_ns: sample.ts_ns,
            tid: 0,
            value: Some(sample.value),
        });
    }
    // Viewers expect the array roughly time-ordered; a stable sort
    // keeps each thread's B/E stream (already time-ordered) intact.
    events.sort_by_key(|e| e.ts_ns);

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\n  \"traceEvents\": [\n");
    for (i, event) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        let ts_us = event.ts_ns as f64 / 1000.0;
        match event.ph {
            Phase::Begin | Phase::End => {
                let ph = if event.ph == Phase::Begin { "B" } else { "E" };
                let _ = writeln!(
                    out,
                    "    {{\"name\": \"{}\", \"cat\": \"rekey\", \"ph\": \"{ph}\", \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": {}}}{sep}",
                    json::escape(&event.name),
                    event.tid
                );
            }
            Phase::Counter => {
                let _ = writeln!(
                    out,
                    "    {{\"name\": \"{}\", \"cat\": \"rekey\", \"ph\": \"C\", \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": 0, \"args\": {{\"value\": {}}}}}{sep}",
                    json::escape(&event.name),
                    fmt_f64(event.value.unwrap_or(0.0))
                );
            }
        }
    }
    out.push_str("  ],\n");
    out.push_str("  \"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(
        out,
        "  \"otherData\": {{\"generator\": \"rekey-obs\", \"dropped_spans\": {}, \"dropped_samples\": {}}}",
        snapshot.dropped_spans, snapshot.dropped_samples
    );
    out.push_str("}\n");
    out
}

/// JSON numbers may not be NaN/Inf; clamp to 0 (gauges are finite in
/// practice).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// What [`validate_trace`] found in a trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// `ph: "B"` events (equals the end-event count).
    pub begin_events: usize,
    /// `ph: "E"` events.
    pub end_events: usize,
    /// `ph: "C"` counter samples.
    pub counter_events: usize,
    /// Distinct span names seen.
    pub span_names: std::collections::BTreeSet<String>,
    /// Distinct counter-track names seen.
    pub counter_names: std::collections::BTreeSet<String>,
}

/// Parses `text` as Chrome trace JSON and verifies the invariants the
/// exporter guarantees: well-formed JSON, a `traceEvents` array whose
/// events carry `name`/`ph`/`ts`, begin/end events balanced and
/// properly nested per thread, and counter events carrying a numeric
/// `args.value`.
///
/// # Errors
///
/// Returns the first violation found as a typed [`ObsError`]:
/// [`ObsError::Json`] for syntax errors, [`ObsError::Document`] for
/// structural problems, [`ObsError::Event`] for a bad event, and
/// [`ObsError::UnbalancedSpan`] for a span left open at end of trace.
pub fn validate_trace(text: &str) -> Result<TraceSummary, ObsError> {
    let root = json::parse(text)?;
    let events = root
        .get("traceEvents")
        .ok_or_else(|| ObsError::Document("missing \"traceEvents\" key".into()))?
        .as_arr()
        .ok_or_else(|| ObsError::Document("\"traceEvents\" is not an array".into()))?;

    let mut summary = TraceSummary::default();
    // Per-(pid, tid) stacks of open span names.
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let bad = |detail: String| ObsError::Event { index: i, detail };
        let name = event
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| bad("missing string \"name\"".into()))?;
        let ph = event
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| bad("missing string \"ph\"".into()))?;
        event
            .get("ts")
            .and_then(json::Value::as_num)
            .ok_or_else(|| bad("missing numeric \"ts\"".into()))?;
        let pid = event
            .get("pid")
            .and_then(json::Value::as_num)
            .unwrap_or(0.0) as u64;
        let tid = event
            .get("tid")
            .and_then(json::Value::as_num)
            .unwrap_or(0.0) as u64;
        match ph {
            "B" => {
                summary.begin_events += 1;
                summary.span_names.insert(name.to_string());
                stacks.entry((pid, tid)).or_default().push(name.to_string());
            }
            "E" => {
                summary.end_events += 1;
                let stack = stacks.entry((pid, tid)).or_default();
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(bad(format!(
                            "end of {name:?} while {open:?} is open on tid {tid}"
                        )));
                    }
                    None => {
                        return Err(bad(format!(
                            "end of {name:?} with no open span on tid {tid}"
                        )));
                    }
                }
            }
            "C" => {
                summary.counter_events += 1;
                summary.counter_names.insert(name.to_string());
                event
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(json::Value::as_num)
                    .ok_or_else(|| bad("counter without numeric args.value".into()))?;
            }
            other => return Err(bad(format!("unsupported phase {other:?}"))),
        }
    }
    for ((_, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(ObsError::UnbalancedSpan {
                name: open.clone(),
                tid: *tid,
            });
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Recorder};

    #[test]
    fn nested_spans_export_balanced() {
        let c = Collector::new();
        // Outer span [0, 1000], inner [100, 400], sibling [500, 900],
        // all on tid 1; a second thread runs [200, 300].
        c.span("inner", 100, 300, 1);
        c.span("sibling", 500, 400, 1);
        c.span("outer", 0, 1000, 1);
        c.span("worker", 200, 100, 2);
        c.sample("gauge", 650, 42.0);
        let json = c.chrome_trace_json();
        let summary = validate_trace(&json).expect("exported trace must validate");
        assert_eq!(summary.begin_events, 4);
        assert_eq!(summary.end_events, 4);
        assert_eq!(summary.counter_events, 1);
        assert!(summary.span_names.contains("outer"));
        assert!(summary.counter_names.contains("gauge"));
    }

    /// An inner span whose two clock reads make it seem to outlive the
    /// span it ran in (by 7 ns here) still exports nested.
    #[test]
    fn an_inner_span_never_ends_after_its_outer() {
        let c = Collector::new();
        c.span("inner", 100, 907, 1);
        c.span("outer", 0, 1000, 1);
        c.span("next", 1200, 50, 1);
        let summary = validate_trace(&c.chrome_trace_json()).expect("nesting is kept");
        assert_eq!((summary.begin_events, summary.end_events), (3, 3));
    }

    #[test]
    fn empty_collector_exports_valid_trace() {
        let c = Collector::new();
        let summary = validate_trace(&c.chrome_trace_json()).unwrap();
        assert_eq!(summary.begin_events, 0);
        assert_eq!(summary.counter_events, 0);
    }

    #[test]
    fn names_are_escaped() {
        let c = Collector::new();
        c.sample("weird\"name\\with\ttabs", 1, 1.0);
        let json = c.chrome_trace_json();
        validate_trace(&json).unwrap();
    }

    #[test]
    fn validator_rejects_unbalanced() {
        let text = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_trace(text)
            .unwrap_err()
            .to_string()
            .contains("never ends"));
    }

    #[test]
    fn validator_rejects_mismatched_nesting() {
        let text = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": 2.0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 3.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 4.0, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_trace(text).is_err());
    }

    #[test]
    fn validator_rejects_stray_end_and_bad_counter() {
        let stray = r#"{"traceEvents": [
            {"name": "a", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_trace(stray)
            .unwrap_err()
            .to_string()
            .contains("no open span"));
        let bad_counter = r#"{"traceEvents": [
            {"name": "g", "ph": "C", "ts": 1.0, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_trace(bad_counter)
            .unwrap_err()
            .to_string()
            .contains("args.value"));
    }

    #[test]
    fn validator_rejects_invalid_json() {
        assert!(validate_trace("{\"traceEvents\": [").is_err());
        assert!(validate_trace("[]")
            .unwrap_err()
            .to_string()
            .contains("traceEvents"));
    }

    #[test]
    fn spans_on_different_threads_do_not_interfere() {
        let c = Collector::new();
        // Overlapping in time but on different tids — legal.
        c.span("t1", 0, 500, 1);
        c.span("t2", 100, 600, 2);
        validate_trace(&c.chrome_trace_json()).unwrap();
    }
}
