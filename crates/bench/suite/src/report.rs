//! What one run records — metrics, checks, attempts — and how it is
//! written: `workload metric value unit` lines for people, one result line
//! per run appended to the `--out` file, and a summary object as the last
//! line of standard output.

use crate::registry;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Registered metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, from the registry.
    pub unit: String,
    /// How many samples the value summarizes (1 for single measurements).
    pub samples: u64,
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The evidence either way.
    pub detail: String,
}

/// The result of one `--workload` run: one line of the `--out` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measurement length.
    pub seconds: u64,
    /// Whether this was the traced (per-layer) pass.
    pub trace: bool,
    /// Hardware threads visible to the process.
    pub available_parallelism: u64,
    /// Thread count the timed work ran with.
    pub threads: u64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Registered metrics, in registry order.
    pub metrics: Vec<Metric>,
    /// Output checks, in run order.
    pub checks: Vec<Check>,
}

/// Collects one run's metrics and checks.
#[derive(Debug, Default)]
pub struct Recorder {
    metrics: BTreeMap<&'static str, (f64, u64)>,
    checks: Vec<Check>,
    ops: u64,
    failed_ops: u64,
}

impl Recorder {
    /// Records a registered metric. Unregistered names and non-finite
    /// values are recorded as failed checks instead.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        if registry::unit_of(name).is_none() {
            self.check(
                "registered metric",
                false,
                format!("{name} is not in the registry"),
            );
        } else if !value.is_finite() {
            self.check("finite metric", false, format!("{name} = {value}"));
        } else {
            self.metrics.insert(name, (value, samples as u64));
        }
    }

    /// Counts operations (fits, generations, requests) and failures among
    /// them.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.ops += attempted;
        self.failed_ops += failed;
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("CHECK FAILED: {name}: {detail}");
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Finishes the run. Every metric of the requested kind must be set;
    /// a missing one is a failed check.
    pub fn finish(mut self, workload: &str, seed: u64, seconds: u64, trace: bool) -> RunResult {
        let wanted: Vec<&'static str> = if trace {
            registry::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            registry::END_TO_END.iter().map(|m| m.name).collect()
        };
        let missing: Vec<&str> = wanted
            .iter()
            .copied()
            .filter(|n| !self.metrics.contains_key(n))
            .collect();
        if !missing.is_empty() {
            self.check("every metric measured", false, missing.join(", "));
        }
        let metrics = wanted
            .iter()
            .filter_map(|&n| {
                let &(value, samples) = self.metrics.get(n)?;
                Some(Metric {
                    name: n.to_string(),
                    value,
                    unit: registry::unit_of(n).unwrap_or("").to_string(),
                    samples,
                })
            })
            .collect();
        let failed_checks = self.checks.iter().filter(|c| !c.ok).count() as u64;
        let attempted = self.ops + self.checks.len() as u64;
        let failed = self.failed_ops + failed_checks;
        RunResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            threads: cpgan_parallel::current_threads() as u64,
            attempted: attempted.max(1),
            failed,
            correct: failed == 0,
            metrics,
            checks: self.checks,
        }
    }
}

impl RunResult {
    /// The `workload metric value unit` lines.
    pub fn lines(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{} {} {} {}\n", self.workload, m.name, m.value, m.unit))
            .collect()
    }

    /// One compact JSON line (the `--out` record).
    pub fn to_line(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Parses a record written by [`RunResult::to_line`].
    pub fn from_line(line: &str) -> Result<RunResult, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

/// The summary object over one or more runs, for whatever reads the last
/// line of standard output:
/// `{"correct","attempted","failed","metrics":{name:{"value","unit"}}}`.
/// With several runs (the all-workload mode) metric keys are prefixed by
/// the workload.
pub fn summary(runs: &[RunResult]) -> Result<String, String> {
    let prefixed = runs.len() > 1;
    let mut metrics = Vec::new();
    for run in runs {
        for m in &run.metrics {
            let key = if prefixed {
                format!("{}/{}", run.workload, m.name)
            } else {
                m.name.clone()
            };
            metrics.push((
                key,
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ]),
            ));
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let doc = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(runs.iter().all(|r| r.correct)),
        ),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut rec = Recorder::default();
        rec.set("setup_s", 0.8127, 3);
        rec.set("latency_ms", 1.2034, 12);
        rec.set("peak_mib", 64.75, 1);
        rec.ops(12, 0);
        rec.check("output shape", true, "10000 nodes".to_string());
        rec.finish("fit_10k", 7, 15, false)
    }

    #[test]
    fn result_round_trips_through_the_json_shim() {
        let run = sample();
        assert!(run.correct);
        assert_eq!(run.attempted, 13);
        let line = run.to_line().unwrap_or_default();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_line(&line), Ok(run));
    }

    #[test]
    fn unregistered_and_missing_metrics_fail_the_run() {
        let mut rec = Recorder::default();
        rec.set("latency_ms", 1.0, 1);
        rec.set("not_a_metric", 1.0, 1);
        let run = rec.finish("fit_10k", 1, 1, false);
        assert!(!run.correct);
        assert_eq!(run.failed, 2, "{:?}", run.checks);
        assert_eq!(run.metrics.len(), 1);
    }

    #[test]
    fn summary_has_exactly_the_four_keys() {
        let text = summary(&[sample()]).unwrap_or_default();
        let v = serde_json::parse_value(&text).unwrap_or(Value::Null);
        let Value::Object(fields) = &v else {
            unreachable!("summary is an object: {text}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let latency = v.get("metrics").and_then(|m| m.get("latency_ms"));
        assert_eq!(
            latency.and_then(|l| l.get("value")).and_then(Value::as_f64),
            Some(1.2034)
        );
        assert!(matches!(
            latency.and_then(|l| l.get("unit")),
            Some(Value::Str(u)) if u == "ms"
        ));
    }
}
