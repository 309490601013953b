//! `results.json`: what a full `run` writes, and the `compare` gate
//! over two of them.

use crate::metrics::{def, Better};
use rekey_bench::emit::json_escape;
use rekey_obs::json::{self, Value};
use std::fmt::Write as _;

/// One value in a results file, with the direction and bound it was
/// recorded under: `compare` judges a file by its own terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the base value; `None` for a
    /// per-layer metric.
    pub bound: Option<f64>,
}

impl Entry {
    /// An entry for `name`, with unit, direction and bound from the
    /// tables in [`crate::metrics`].
    pub fn from_tables(name: &str, value: f64) -> Option<Entry> {
        def(name).map(|d| Entry {
            name: name.to_owned(),
            value,
            unit: d.unit.to_owned(),
            better: d.better,
            bound: d.bound,
        })
    }
}

/// One workload's results: the untraced run's end-to-end metrics and
/// the traced run's per-layer ones.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResults {
    /// Workload name.
    pub name: String,
    /// Intervals the untraced run attempted.
    pub attempted: u64,
    /// Intervals of the untraced run that failed.
    pub failed: u64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Entry>,
    /// Per-layer metrics.
    pub per_layer: Vec<Entry>,
}

/// Where and when a results file was measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Host {
    /// Seconds since the unix epoch when the run started.
    pub unix_timestamp: u64,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub git_commit: String,
    /// The SIMD backend `rekey_crypto` selected.
    pub simd_backend: String,
}

/// A results file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Results {
    /// Host context.
    pub host: Host,
    /// Seed of every run.
    pub seed: u64,
    /// Seconds each run measured for.
    pub seconds: f64,
    /// Whether this was a `--quick` run (not for recording).
    pub quick: bool,
    /// Per workload, in run order.
    pub workloads: Vec<WorkloadResults>,
}

fn entries_json(out: &mut String, key: &str, entries: &[Entry]) {
    let _ = writeln!(out, "      \"{key}\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "        {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"better\": \"{}\"",
            json_escape(&e.name),
            e.value,
            json_escape(&e.unit),
            e.better.as_str()
        );
        if let Some(bound) = e.bound {
            let _ = write!(out, ", \"bound\": {bound}");
        }
        let _ = writeln!(out, "}}{}", if i + 1 < entries.len() { "," } else { "" });
    }
    out.push_str("      ]");
}

impl Results {
    /// Renders the file.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n");
        let h = &self.host;
        let _ = writeln!(
            out,
            "  \"host\": {{\"unix_timestamp\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"simd_backend\": \"{}\", \"network\": \"host loopback (127.0.0.1), no real link\"}},",
            h.unix_timestamp,
            h.nproc,
            json_escape(&h.rustc),
            json_escape(&h.git_commit),
            json_escape(&h.simd_backend)
        );
        let _ = writeln!(
            out,
            "  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"workloads\": [",
            self.seed, self.seconds, self.quick
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\n      \"name\": \"{}\",\n      \"attempted\": {},\n      \"failed\": {},",
                json_escape(&w.name),
                w.attempted,
                w.failed
            );
            entries_json(&mut out, "end_to_end", &w.end_to_end);
            out.push_str(",\n");
            entries_json(&mut out, "per_layer", &w.per_layer);
            let _ = writeln!(
                out,
                "\n    }}{}",
                if i + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses what [`Results::to_json`] wrote. Only what `compare`
    /// needs is required: workload names, counts and end-to-end values.
    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_num);
        let string = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
        let entries = |v: &Value, key: &str| -> Result<Vec<Entry>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|e| {
                    Ok(Entry {
                        name: string(e, "name").ok_or("metric without a name")?,
                        value: num(e, "value").ok_or("metric without a value")?,
                        unit: string(e, "unit").unwrap_or_default(),
                        better: match e.get("better").and_then(Value::as_str) {
                            Some("higher") => Better::Higher,
                            _ => Better::Lower,
                        },
                        bound: num(e, "bound"),
                    })
                })
                .collect()
        };
        let mut results = Results {
            seed: num(&doc, "seed").unwrap_or(0.0) as u64,
            seconds: num(&doc, "seconds").unwrap_or(0.0),
            quick: doc.get("quick") == Some(&Value::Bool(true)),
            ..Results::default()
        };
        if let Some(h) = doc.get("host") {
            results.host = Host {
                unix_timestamp: num(h, "unix_timestamp").unwrap_or(0.0) as u64,
                nproc: num(h, "nproc").unwrap_or(0.0) as usize,
                rustc: string(h, "rustc").unwrap_or_default(),
                git_commit: string(h, "git_commit").unwrap_or_default(),
                simd_backend: string(h, "simd_backend").unwrap_or_default(),
            };
        }
        for w in doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("no \"workloads\" array")?
        {
            results.workloads.push(WorkloadResults {
                name: string(w, "name").ok_or("workload without a name")?,
                attempted: num(w, "attempted").ok_or("workload without \"attempted\"")? as u64,
                failed: num(w, "failed").ok_or("workload without \"failed\"")? as u64,
                end_to_end: entries(w, "end_to_end")?,
                per_layer: entries(w, "per_layer")?,
            });
        }
        Ok(results)
    }
}

/// One (metric, workload) row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Allowed worsening, as a share of the base.
    pub bound: f64,
    /// Whether the new value is worse than the base by more than the bound.
    pub regressed: bool,
}

impl Row {
    /// `new / base`.
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }
}

/// Outcome of comparing two results files.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// One row per end-to-end metric and workload of the base file.
    pub rows: Vec<Row>,
    /// Problems that are not a metric row: a workload or metric missing
    /// from the new file, a larger failed share.
    pub problems: Vec<String>,
}

impl Comparison {
    /// Whether the new results pass the gate.
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| !r.regressed)
    }

    /// The table `compare` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<18} {:<30} {:>14} {:>14} {:>7} {:>6}\n",
            "workload", "metric", "base", "new", "ratio", "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<18} {:<30} {:>14.4} {:>14.4} {:>7.3} {:>5.0}%{}",
                r.workload,
                r.metric,
                r.base,
                r.new,
                r.ratio(),
                r.bound * 100.0,
                if r.regressed { "  REGRESSED" } else { "" }
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "problem: {p}");
        }
        out
    }
}

/// Compares every end-to-end metric of every workload in `base` with
/// `new`, using the bounds and directions `base` was recorded under.
pub fn compare(base: &Results, new: &Results) -> Comparison {
    let mut out = Comparison::default();
    for bw in &base.workloads {
        let Some(nw) = new.workloads.iter().find(|w| w.name == bw.name) else {
            out.problems
                .push(format!("workload {} missing from the new results", bw.name));
            continue;
        };
        // Shares compared as cross products: no division by zero attempts.
        if nw.failed * bw.attempted.max(1) > bw.failed * nw.attempted.max(1) {
            out.problems.push(format!(
                "{}: failed share grew from {}/{} to {}/{}",
                bw.name, bw.failed, bw.attempted, nw.failed, nw.attempted
            ));
        }
        for be in &bw.end_to_end {
            let Some(bound) = be.bound else { continue };
            let Some(ne) = nw.end_to_end.iter().find(|e| e.name == be.name) else {
                out.problems.push(format!(
                    "{}: {} missing from the new results",
                    bw.name, be.name
                ));
                continue;
            };
            let regressed = match be.better {
                Better::Lower => ne.value > be.value * (1.0 + bound),
                Better::Higher => ne.value < be.value * (1.0 - bound),
            };
            out.rows.push(Row {
                workload: bw.name.clone(),
                metric: be.name.clone(),
                base: be.value,
                new: ne.value,
                bound,
                regressed,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bound of both synthetic metrics.
    const BOUND: f64 = 0.2;

    fn results(latency: f64, rate: f64, failed: u64) -> Results {
        let entry = |name: &str, value: f64, better, bound| Entry {
            name: name.into(),
            value,
            unit: "x".into(),
            better,
            bound,
        };
        Results {
            seed: 1,
            seconds: 10.0,
            workloads: vec![WorkloadResults {
                name: "small-group-256".into(),
                attempted: 1000,
                failed,
                end_to_end: vec![
                    entry("latency", latency, Better::Lower, Some(BOUND)),
                    entry("rate", rate, Better::Higher, Some(BOUND)),
                ],
                per_layer: vec![entry("net.nacks", 0.0, Better::Lower, None)],
            }],
            ..Results::default()
        }
    }

    #[test]
    fn json_round_trips() {
        let r = results(0.7, 9000.0, 0);
        assert_eq!(Results::parse(&r.to_json()).expect("parses"), r);
    }

    #[test]
    fn entries_take_their_terms_from_the_tables() {
        let e = Entry::from_tables("setup_s", 1.5).expect("in the tables");
        assert_eq!((e.unit.as_str(), e.better), ("s", Better::Lower));
        assert!(e.bound.is_some());
        let layer = Entry::from_tables("net.nacks", 0.0).expect("in the tables");
        assert_eq!(layer.bound, None);
        assert_eq!(Entry::from_tables("no.such.metric", 0.0), None);
    }

    #[test]
    fn within_bound_passes_in_both_directions() {
        let (a, b) = (results(1.0, 9000.0, 0), results(1.15, 8000.0, 0));
        assert!(compare(&a, &b).passed());
        assert!(compare(&b, &a).passed());
    }

    #[test]
    fn past_a_bound_fails_only_in_the_worse_direction() {
        let base = results(1.0, 9000.0, 0);
        let slower = compare(&base, &results(1.21, 9000.0, 0));
        assert!(!slower.passed());
        let row = &slower.rows[0];
        assert_eq!((row.metric.as_str(), row.regressed), ("latency", true));
        assert!(slower.render().contains("REGRESSED"));
        // Lower latency and higher throughput are never a regression.
        assert!(compare(&base, &results(0.5, 20000.0, 0)).passed());
        // A "higher is better" metric regresses downwards.
        assert!(!compare(&base, &results(1.0, 7000.0, 0)).passed());
        // A metric without a bound is never judged.
        let mut noisy = results(1.0, 9000.0, 0);
        noisy.workloads[0].per_layer[0].value = 1e9;
        assert!(compare(&base, &noisy).passed());
    }

    #[test]
    fn larger_failed_share_or_missing_data_fails() {
        assert!(!compare(&results(1.0, 9000.0, 0), &results(1.0, 9000.0, 1)).passed());
        assert!(compare(&results(1.0, 9000.0, 1), &results(1.0, 9000.0, 1)).passed());
        let mut missing = results(1.0, 9000.0, 0);
        missing.workloads[0].end_to_end.pop();
        assert!(!compare(&results(1.0, 9000.0, 0), &missing).passed());
        missing.workloads.clear();
        assert!(!compare(&results(1.0, 9000.0, 0), &missing).passed());
    }
}
