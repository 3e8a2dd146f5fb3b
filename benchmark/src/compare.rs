//! `bench compare A.json B.json`: one row per (workload, end-to-end
//! metric), judged against the bounds `BENCHMARK.json` fixes.

use dewrite_core::Json;

use crate::spec::EXACT;

/// The judgement on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound (and than the spread).
    Worse,
    /// The run-to-run spread is wider than the bound: neither a
    /// regression nor "unchanged" can be claimed.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base reading (the ratio's base).
    pub base: f64,
    /// New reading.
    pub new: f64,
    /// Share of the base by which the new reading is worse (negative:
    /// better).
    pub worse_by: f64,
    /// The wider of the two runs' interquartile spreads, as a share of
    /// the median.
    pub spread: f64,
    /// The regression bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// One metric's reading in a run document: `(median, spread)`.
fn reading(run: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = run
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (
        m.get("q1").and_then(Json::as_f64),
        m.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Some((value, spread))
}

/// Judge one pairing. `exact` readings (simulated results of one seed)
/// must be equal or better; the rest may be worse by up to `bound`.
pub fn judge(
    base: f64,
    new: f64,
    lower_is_better: bool,
    spread: f64,
    bound: f64,
    exact: bool,
) -> (f64, Verdict) {
    let delta = if lower_is_better {
        new - base
    } else {
        base - new
    };
    let worse_by = if base == 0.0 {
        delta
    } else {
        delta / base.abs()
    };
    let verdict = if exact {
        if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if worse_by > bound.max(spread) {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare two run documents (as `bench run --out` writes them) under
/// the bounds of `spec` (`BENCHMARK.json`).
///
/// # Errors
///
/// A description of what a document lacks.
pub fn compare(base: &Json, new: &Json, spec: &Json) -> Result<Vec<Row>, String> {
    let same_seed =
        base.get("seed").and_then(Json::as_f64) == new.get("seed").and_then(Json::as_f64);
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end metrics")?;
    let mut rows = Vec::new();
    for w in workloads {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in metrics {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            let (metric, unit, better) = (field("name")?, field("unit")?, field("better")?);
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let (b, b_spread) = reading(base, workload, metric)
                .ok_or(format!("the base run lacks {workload}/{metric}"))?;
            let (n, n_spread) = reading(new, workload, metric)
                .ok_or(format!("the new run lacks {workload}/{metric}"))?;
            let spread = b_spread.max(n_spread);
            let exact = same_seed && EXACT.contains(&metric);
            let (worse_by, verdict) = judge(b, n, better == "lower", spread, bound, exact);
            rows.push(Row {
                workload: workload.into(),
                metric: metric.into(),
                unit: unit.into(),
                base: b,
                new: n,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Print the rows; every ratio is given with its base.
pub fn print(rows: &[Row]) {
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for r in rows {
        let ratio = if r.base == 0.0 {
            f64::NAN
        } else {
            r.new / r.base
        };
        println!(
            "{:<14} {:<22} {:>14.4} {:>14.4} {:>9.4} {:>7.2}% {:>6.1}%  {} ({:+.2}% worse, base {:.4} {})",
            r.workload,
            r.metric,
            r.base,
            r.new,
            ratio,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict,
            r.worse_by * 100.0,
            r.base,
            r.unit
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // Lower is better, 10% bound, tight runs.
        assert_eq!(judge(100.0, 105.0, true, 0.01, 0.1, false).1, Verdict::Ok);
        assert_eq!(
            judge(100.0, 115.0, true, 0.01, 0.1, false).1,
            Verdict::Worse
        );
        // Higher is better: a drop is what is worse.
        assert_eq!(
            judge(100.0, 85.0, false, 0.01, 0.1, false).1,
            Verdict::Worse
        );
        assert_eq!(judge(100.0, 130.0, false, 0.01, 0.1, false).1, Verdict::Ok);
        // A spread wider than the bound resolves nothing...
        assert_eq!(
            judge(100.0, 112.0, true, 0.2, 0.1, false).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 100.0, true, 0.2, 0.1, false).1,
            Verdict::Unresolved
        );
        // ...unless the move is wider still.
        assert_eq!(judge(100.0, 150.0, true, 0.2, 0.1, false).1, Verdict::Worse);
        // Exact readings must be equal or better.
        assert_eq!(judge(100.0, 100.0, true, 0.0, 0.1, true).1, Verdict::Ok);
        assert_eq!(judge(100.0, 99.0, true, 0.0, 0.1, true).1, Verdict::Ok);
        assert_eq!(judge(100.0, 100.5, true, 0.0, 0.1, true).1, Verdict::Worse);
    }
}
