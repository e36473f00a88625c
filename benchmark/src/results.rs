//! The two JSON documents the benchmark writes: the result line of one
//! workload run, and the report of a run over every workload.

use crate::spec::END_TO_END;
use crate::stats;
use perfport_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No output check failed.
    pub correct: bool,
    /// Operations issued.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// The result as one JSON line.
    pub fn to_line(&self) -> String {
        render(&self.to_json(), None)
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let m = [
                    ("value".to_string(), Json::Number(*value)),
                    ("unit".to_string(), Json::String(unit.clone())),
                ];
                (name.clone(), Json::Object(m.into_iter().collect()))
            })
            .collect();
        Json::Object(
            [
                ("correct".to_string(), Json::Bool(self.correct)),
                ("attempted".to_string(), Json::Number(self.attempted as f64)),
                ("failed".to_string(), Json::Number(self.failed as f64)),
                ("metrics".to_string(), Json::Object(metrics)),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Parses a result line.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing or mistyped key.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        Self::from_json(&json::parse(line).map_err(|e| e.to_string())?)
    }

    fn from_json(j: &Json) -> Result<RunResult, String> {
        let field = |key: &str| j.get(key).ok_or_else(|| format!("result lacks '{key}'"));
        let count = |key: &str| {
            field(key)?
                .as_f64()
                .map(|v| v as u64)
                .ok_or_else(|| format!("'{key}' is not a number"))
        };
        let Some(Json::Object(metrics)) = j.get("metrics") else {
            return Err("result lacks a 'metrics' object".to_string());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), (v, u.to_string()))),
                    _ => Err(format!("metric '{name}' needs a numeric value and a unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("'correct' is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Every run of one workload in an all-workloads run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Untraced runs, each with its own end-to-end metrics.
    pub runs: Vec<RunResult>,
    /// The traced run's per-layer metrics, when one was made.
    pub traced: Option<RunResult>,
}

impl WorkloadReport {
    /// Median and relative IQR across runs of each end-to-end metric
    /// every run reported: `(name, unit, median, relative IQR)`.
    pub fn summary(&self) -> Vec<(&'static str, &'static str, f64, f64)> {
        END_TO_END
            .iter()
            .filter_map(|m| {
                let values: Option<Vec<f64>> = self
                    .runs
                    .iter()
                    .map(|r| r.metrics.get(m.name).map(|v| v.0))
                    .collect();
                let values = values.filter(|v| !v.is_empty())?;
                Some((
                    m.name,
                    m.unit,
                    stats::median(&values),
                    stats::relative_iqr(&values),
                ))
            })
            .collect()
    }
}

/// The report of an all-workloads run (also the committed baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Seed every run used.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Provenance of the host and build.
    pub manifest: Json,
    /// One entry per workload, in run order.
    pub workloads: Vec<WorkloadReport>,
}

/// Schema tag of [`Report`] documents.
const REPORT_SCHEMA: &str = "perfport-benchmark-report/1";

impl Report {
    /// The report as an indented JSON document. The `summary` blocks
    /// are derived from the runs and ignored when parsing.
    pub fn to_json(&self) -> String {
        let obj = |pairs: Vec<(&str, Json)>| {
            Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let summary = w
                    .summary()
                    .into_iter()
                    .map(|(name, unit, median, iqr)| {
                        let s = obj(vec![
                            ("median", Json::Number(median)),
                            ("relative_iqr", Json::Number(iqr)),
                            ("unit", Json::String(unit.to_string())),
                        ]);
                        (name, s)
                    })
                    .collect();
                obj(vec![
                    ("name", Json::String(w.name.clone())),
                    (
                        "runs",
                        Json::Array(w.runs.iter().map(RunResult::to_json).collect()),
                    ),
                    (
                        "traced",
                        w.traced.as_ref().map_or(Json::Null, RunResult::to_json),
                    ),
                    ("summary", obj(summary)),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("schema", Json::String(REPORT_SCHEMA.to_string())),
            ("seed", Json::Number(self.seed as f64)),
            ("seconds", Json::Number(self.seconds as f64)),
            ("manifest", self.manifest.clone()),
            ("workloads", Json::Array(workloads)),
        ]);
        let mut out = render(&doc, Some(0));
        out.push('\n');
        out
    }

    /// Parses a report written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed JSON, a different schema, or a missing or mistyped key.
    pub fn parse(text: &str) -> Result<Report, String> {
        let j = json::parse(text).map_err(|e| e.to_string())?;
        if j.get("schema").and_then(Json::as_str) != Some(REPORT_SCHEMA) {
            return Err(format!("not a {REPORT_SCHEMA} document"));
        }
        let number = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("report lacks numeric '{key}'"))
        };
        let workloads = j
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("report lacks 'workloads'")?
            .iter()
            .map(|w| {
                let runs = w
                    .get("runs")
                    .and_then(Json::as_array)
                    .ok_or("workload lacks 'runs'")?
                    .iter()
                    .map(RunResult::from_json)
                    .collect::<Result<_, String>>()?;
                let traced = match w.get("traced") {
                    None | Some(Json::Null) => None,
                    Some(t) => Some(RunResult::from_json(t)?),
                };
                Ok(WorkloadReport {
                    name: w
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("workload lacks 'name'")?
                        .to_string(),
                    runs,
                    traced,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            seed: number("seed")?,
            seconds: number("seconds")?,
            manifest: j.get("manifest").cloned().unwrap_or(Json::Null),
            workloads,
        })
    }
}

/// Writes `j` as JSON: on one line when `indent` is `None`, otherwise
/// one member per line, nested from `indent` levels deep.
fn render(j: &Json, indent: Option<usize>) -> String {
    let mut out = String::new();
    write_json(&mut out, j, indent);
    out
}

fn write_json(out: &mut String, j: &Json, indent: Option<usize>) {
    let (open_sep, sep, close_sep) = match indent {
        Some(level) => (
            format!("\n{}", "  ".repeat(level + 1)),
            format!(",\n{}", "  ".repeat(level + 1)),
            format!("\n{}", "  ".repeat(level)),
        ),
        None => (String::new(), ", ".to_string(), String::new()),
    };
    let inner = indent.map(|l| l + 1);
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) => out.push_str(&json::number(*n)),
        Json::String(s) => {
            let _ = write!(out, "\"{}\"", json::escape(s));
        }
        Json::Array(items) if items.is_empty() => out.push_str("[]"),
        Json::Array(items) => {
            out.push('[');
            out.push_str(&open_sep);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(&sep);
                }
                write_json(out, item, inner);
            }
            out.push_str(&close_sep);
            out.push(']');
        }
        Json::Object(map) if map.is_empty() => out.push_str("{}"),
        Json::Object(map) => {
            out.push('{');
            out.push_str(&open_sep);
            for (i, (key, value)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(&sep);
                }
                let _ = write!(out, "\"{}\": ", json::escape(key));
                write_json(out, value, inner);
            }
            out.push_str(&close_sep);
            out.push('}');
        }
    }
}
