//! What a run produces and how it is printed: `name value unit` lines for
//! people, then one JSON object on the last line for the driver.

use serde::Value;

use crate::spec::{self, MetricSpec};
use crate::stats::Summary;

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that failed, were refused, shed or expired.
    pub failed: u64,
    /// Declared metrics, in the order they were measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra printed lines that are not declared metrics (percentile rows,
    /// calibration readings), already formatted.
    pub rows: Vec<String>,
    /// Why the run is not correct (empty when it is).
    pub violations: Vec<String>,
    /// Checked operations whose outputs differed from the offline path.
    pub mismatched: u64,
    /// Operations whose outputs were checked.
    pub checked: u64,
    /// Relative L2 error against the digital backend.
    pub out_rel_err: f64,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            rows: Vec::new(),
            violations: Vec::new(),
            mismatched: 0,
            checked: 0,
            out_rel_err: 0.0,
        }
    }

    /// Adds operation counts; a failed operation is a violation.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.require(
            failed == 0,
            format!("{failed} of {attempted} operations failed"),
        );
    }

    /// `failed ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither metric table.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(spec::metric(name).is_some(), "undeclared metric {name}");
        self.metrics.push((name, value));
    }

    /// `mismatched ÷ checked`.
    pub fn mismatch_share(&self) -> f64 {
        self.mismatched as f64 / self.checked.max(1) as f64
    }

    /// Adds output checks; any mismatch is a violation.
    pub fn check(&mut self, mismatched: u64, checked: u64) {
        self.mismatched += mismatched;
        self.checked += checked;
        self.require(
            mismatched == 0,
            format!("{mismatched} of {checked} checked operations differ from the offline path"),
        );
    }

    /// Records the error against the digital backend; above `limit` the
    /// outputs are wrong, not noisy.
    pub fn rel_err(&mut self, out_rel_err: f64, limit: f64) {
        self.out_rel_err = out_rel_err;
        self.require(
            out_rel_err <= limit,
            format!("out_rel_err {out_rel_err:e} above the backend's limit {limit:e}"),
        );
    }

    /// Adds the extra line `name value unit`.
    pub fn row(&mut self, name: &str, value: f64, unit: &str) {
        self.rows.push(format!("{name} {value} {unit}"));
    }

    /// Adds a timing sample's ungated line: p10, p50, the highest
    /// percentile with at least ten samples beyond it, and `n`.
    pub fn summary_row(&mut self, name: &str, unit: &str, s: Summary) {
        let tail = s.tail.map_or(String::new(), |(q, v)| {
            format!(" p{}={v}", (q * 1000.0).round() / 10.0)
        });
        self.rows.push(format!(
            "{name} p10={} p50={}{tail} n={} {unit}",
            s.p10, s.p50, s.n
        ));
    }

    /// Adds `message` to the violations unless `ok`.
    pub fn require(&mut self, ok: bool, message: String) {
        if !ok {
            self.violations.push(message);
        }
    }

    /// Whether outputs were correct and nothing failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Checks that exactly the metrics of `table` were recorded, each once
    /// and finite.
    ///
    /// # Errors
    ///
    /// A description of the first missing, duplicate or non-finite metric.
    pub fn check_against(&self, table: &[MetricSpec]) -> Result<(), String> {
        for spec in table {
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| *n == spec.name)
                .map(|&(_, v)| v)
                .collect();
            match values.as_slice() {
                [v] if v.is_finite() => {}
                [v] => return Err(format!("metric {} is not finite ({v})", spec.name)),
                [] => return Err(format!("metric {} was not measured", spec.name)),
                _ => return Err(format!("metric {} was measured twice", spec.name)),
            }
        }
        match self
            .metrics
            .iter()
            .find(|(n, _)| !table.iter().any(|s| s.name == *n))
        {
            Some((n, _)) => Err(format!("metric {n} is not in this run's table")),
            None => Ok(()),
        }
    }

    /// The human-readable report: every metric as `name value unit` in
    /// table order, the extra rows, the violations.
    pub fn text(&self, table: &[MetricSpec]) -> String {
        let mut out = format!("# workload {}\n", self.workload);
        for spec in table {
            if let Some(v) = self.get(spec.name) {
                out.push_str(&format!("{} {v} {}\n", spec.name, spec.unit));
            }
        }
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        for violation in &self.violations {
            out.push_str(&format!("VIOLATION {violation}\n"));
        }
        out
    }

    /// The driver's JSON object: `correct`, `attempted`, `failed`,
    /// `metrics` (name → value and unit, in `table` order).
    pub fn json(&self, table: &[MetricSpec]) -> Value {
        let metrics = table
            .iter()
            .filter_map(|spec| {
                let value = Value::Map(vec![
                    ("value".to_string(), Value::Float(self.get(spec.name)?)),
                    ("unit".to_string(), Value::Str(spec.unit.to_string())),
                ]);
                Some((spec.name.to_string(), value))
            })
            .collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }
}

/// Relative difference `|a − b| ÷ max(|a|, |b|)` (0 when both are 0).
pub fn relative_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}
