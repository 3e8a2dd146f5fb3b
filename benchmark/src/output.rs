//! Result documents: the one-line JSON the driver reads, and the detail
//! files `bench compare` reads.

use dewrite_core::Json;

use std::path::Path;

use crate::stats::{quartiles, spread};

/// A JSON number.
pub fn num(n: f64) -> Json {
    Json::Num(n)
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Write `doc` to `path` (one line), creating its directory.
///
/// # Errors
///
/// The path and the filesystem error.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// One reported metric: a value per repetition (or a single value).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// One value per repetition.
    pub values: Vec<f64>,
}

impl Metric {
    /// A metric with one value per repetition; its reading is the median.
    pub fn per_rep(name: &'static str, unit: &'static str, values: Vec<f64>) -> Metric {
        Metric { name, unit, values }
    }

    /// A metric measured once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::per_rep(name, unit, vec![value])
    }

    /// `(q1, median, q3)` over the repetitions.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        quartiles(&self.values)
    }

    /// The reported reading: the median over the repetitions.
    pub fn value(&self) -> f64 {
        self.quartiles().1
    }

    /// `{"value", "unit"}`, as the driver reads it.
    fn brief(&self) -> Json {
        obj(vec![
            ("value", num(self.value())),
            ("unit", Json::Str(self.unit.into())),
        ])
    }

    /// `{"value", "unit", "q1", "q3", "n"}`, as `bench compare` reads it.
    fn detailed(&self) -> Json {
        let (q1, q2, q3) = self.quartiles();
        obj(vec![
            ("value", num(q2)),
            ("unit", Json::Str(self.unit.into())),
            ("q1", num(q1)),
            ("q3", num(q3)),
            ("n", num(self.values.len() as f64)),
        ])
    }
}

/// What one workload's pass (end-to-end or traced) produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Trace seed.
    pub seed: u64,
    /// Repetitions run.
    pub reps: usize,
    /// Timed operations issued over all repetitions.
    pub attempted: u64,
    /// Of those, how many failed (every operation of a repetition whose
    /// outputs did not verify counts).
    pub failed: u64,
    /// Output checks that failed; empty when `correct`.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` lists.
    pub metrics: Vec<Metric>,
    /// Readings for the reader (raw, unscaled, tail): printed and kept in
    /// the detail document, gated nowhere.
    pub info: Vec<Metric>,
}

fn detailed(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.detailed()))
            .collect(),
    )
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.to_string(), m.brief()))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// The detail document: the result plus quartiles and provenance.
    pub fn detail(&self) -> Json {
        obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", num(self.seed as f64)),
            ("reps", num(self.reps as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", detailed(&self.metrics)),
            ("info", detailed(&self.info)),
        ])
    }

    /// Print the metric table, one row per metric.
    pub fn print_table(&self) {
        println!(
            "{:<30} {:>16} {:>16} {:>16} {:>8}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        for (i, m) in self.metrics.iter().chain(&self.info).enumerate() {
            if i == self.metrics.len() {
                println!("-- not gated --");
            }
            let (q1, q2, q3) = m.quartiles();
            println!(
                "{:<30} {:>16.4} {:>16.4} {:>16.4} {:>7.2}%  {}",
                m.name,
                q2,
                q1,
                q3,
                spread(&m.values) * 100.0,
                m.unit
            );
        }
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
        println!(
            "correct: {}  attempted: {}  failed: {}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}
