//! What one run (or one worker process) measured and checked.

use gale_json::{json, Map, Value};

/// Metrics, check tallies and attribution notes of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed, were shed or timed out, and checks that
    /// did not hold.
    pub failed: u64,
    /// Reasons the measurement itself cannot be trusted (for example the
    /// load generator fell behind its schedule). Any entry makes the run
    /// incorrect instead of turning into a latency number.
    pub invalid: Vec<String>,
    /// `(name, value, unit)`; a value that was not measured is never added.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result (attribution).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a measured value; `None` (unmeasured) leaves it absent.
    pub fn put(&mut self, name: &str, value: Option<f64>, unit: &str) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.metrics.push((name.to_string(), v, unit.to_string()));
        }
    }

    /// Counts one attempted operation or check; a failure is logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Folds `other` in, prefixing its metric names with `prefix`.
    pub fn merge(&mut self, other: Report, prefix: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.invalid.extend(other.invalid);
        self.notes.extend(other.notes);
        for (name, v, unit) in other.metrics {
            self.metrics.push((format!("{prefix}{name}"), v, unit));
        }
    }

    /// The worker-to-parent wire form.
    pub fn to_json(&self) -> Value {
        let metrics: Vec<Value> = self
            .metrics
            .iter()
            .map(|(n, v, u)| json!({"name": n.as_str(), "value": *v, "unit": u.as_str()}))
            .collect();
        json!({
            "attempted": self.attempted,
            "failed": self.failed,
            "invalid": Value::Array(self.invalid.iter().map(|s| Value::from(s.as_str())).collect()),
            "metrics": Value::Array(metrics),
            "notes": Value::Array(self.notes.iter().map(|s| Value::from(s.as_str())).collect()),
        })
    }

    /// Parses [`Report::to_json`] output.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        let strings = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut metrics = Vec::new();
        for m in v
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("no metrics")?
        {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric name")?;
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric value")?;
            let unit = m.get("unit").and_then(Value::as_str).ok_or("metric unit")?;
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        Ok(Report {
            attempted: v
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or("attempted")?,
            failed: v.get("failed").and_then(Value::as_u64).ok_or("failed")?,
            invalid: strings("invalid"),
            metrics,
            notes: strings("notes"),
        })
    }

    /// The result line, printed last on standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for (name, v, unit) in &self.metrics {
            metrics.insert(name.clone(), json!({"value": *v, "unit": unit.as_str()}));
        }
        json!({
            "correct": self.failed == 0 && self.invalid.is_empty(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }
}
