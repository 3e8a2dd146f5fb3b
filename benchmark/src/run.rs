//! The end-to-end pass of one workload: repetitions on a fresh engine
//! until the measuring time is spent, outputs verified, medians reported.

use crate::inputs::Inputs;
use crate::output::{Metric, Outcome};
use crate::reference::Reference;
use crate::rep::{Rep, Scratch};
use crate::spec::{Entry, Workload, CALL_SAMPLE_STRIDE, END_TO_END, OPEN_LOOP_OPS_PER_S};
use crate::stats::{median, percentile, top_percentile};
use crate::{ctrl, host, sim, svc, wire};

/// Requests in flight on the service workload.
pub const SERVICE_WINDOW: usize = 64;
/// Data connections on the wire workloads.
pub const WIRE_CONNECTIONS: usize = 2;
/// Requests in flight per connection on the closed-loop wire workload.
pub const WIRE_WINDOW: usize = 32;
/// `--quick` divides every workload's size by this.
pub const QUICK_DIVISOR: usize = 20;

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Trace seed.
    pub seed: u64,
    /// Keep repeating until the timed windows add up to this, seconds.
    pub seconds: f64,
    /// Run exactly this many repetitions instead.
    pub reps: Option<usize>,
    /// Smoke mode: 1/20 of the size, one repetition.
    pub quick: bool,
}

impl Options {
    /// Trace records per repetition.
    pub fn ops(&self) -> usize {
        if self.quick {
            (self.workload.ops / QUICK_DIVISOR).max(1)
        } else {
            self.workload.ops
        }
    }
}

/// One repetition of `workload` on a fresh engine.
pub fn repetition(workload: &Workload, inputs: &Inputs, scratch: &Scratch) -> Rep {
    match workload.entry {
        Entry::Ctrl => ctrl::run(inputs, None),
        Entry::CtrlDurable => ctrl::run(inputs, Some(scratch.path())),
        Entry::Service => svc::run(inputs, SERVICE_WINDOW, None),
        Entry::WireClosed => wire::run(
            inputs,
            WIRE_CONNECTIONS,
            wire::Load::Closed {
                window: WIRE_WINDOW,
            },
            None,
        ),
        Entry::WireOpen => wire::run(
            inputs,
            WIRE_CONNECTIONS,
            wire::Load::Open {
                ops_per_s: OPEN_LOOP_OPS_PER_S,
            },
            None,
        ),
        Entry::Sim => sim::run(inputs, CALL_SAMPLE_STRIDE).rep,
    }
}

/// Latency percentile `p` of one repetition's samples, µs (0 with no
/// samples; the run is flagged incorrect then).
fn lat_us(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    f64::from(percentile(sorted, p)) / 1e3
}

/// Run the end-to-end pass.
///
/// # Panics
///
/// Panics if the scratch directory under `out/` cannot be created.
pub fn end_to_end(opts: &Options) -> Outcome {
    let workload = opts.workload;
    // Set-up several times, so `setup_s` is a median and not one draw.
    let generations = if opts.quick { 1 } else { 3 };
    let mut gen_s = Vec::new();
    let mut inputs = None;
    for _ in 0..generations {
        // Drop the previous copy first: two traces alive at once would
        // be what `peak_rss_mb` reports.
        drop(inputs.take());
        let generated = Inputs::generate(workload, opts.ops(), opts.seed);
        gen_s.push(generated.gen_ns as f64 / 1e9);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one generation");

    let scratch = Scratch::new(workload.name).expect("create the scratch directory under out/");
    let target_reps = opts.reps.or(opts.quick.then_some(1));
    let mut reps: Vec<Rep> = Vec::new();
    // Each repetition's sorted samples are reduced to these and dropped,
    // so `peak_rss_mb` does not grow with the number of repetitions.
    let (mut p50_us, mut p99_us, mut top_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = usize::MAX;
    // How much slower than nominal the host ran each repetition, from the
    // reference-kernel passes around it.
    let mut slowdown = Vec::new();
    let mut reference = Reference::new();
    let mut before_ns = reference.pass();
    let mut timed_ns = 0u64;
    loop {
        let mut rep = repetition(workload, &inputs, &scratch);
        let after_ns = reference.pass();
        slowdown.push(Reference::slowdown(before_ns, after_ns));
        before_ns = after_ns;
        timed_ns += rep.wall_ns;
        let mut sorted = std::mem::take(&mut rep.lat_ns);
        sorted.sort_unstable();
        samples = samples.min(sorted.len());
        p50_us.push(lat_us(&sorted, 50.0));
        p99_us.push(lat_us(&sorted, 99.0));
        top_us.push(top_percentile(sorted.len()).map_or(0.0, |p| lat_us(&sorted, p)));
        reps.push(rep);
        let done = match target_reps {
            Some(n) => reps.len() >= n,
            None => timed_ns as f64 >= opts.seconds * 1e9,
        };
        if done {
            break;
        }
    }

    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, rep) in reps.iter().enumerate() {
        let reference = (i > 0).then_some(reps[0].report_json.as_str());
        attempted += rep.attempted;
        failed += rep.judge(&format!("repetition {i}"), reference, &mut problems);
    }
    if samples == 0 {
        problems.push("a repetition produced no latency samples".into());
    }

    // Host-time readings are scaled to the nominal host, repetition by
    // repetition (see `reference`), where the work sets the clock.
    let scaled = workload.entry.work_bound();
    let nominal = |i: usize| if scaled { slowdown[i] } else { 1.0 };
    let per_rep = |f: &dyn Fn(usize, &Rep) -> f64| -> Vec<f64> {
        reps.iter().enumerate().map(|(i, r)| f(i, r)).collect()
    };
    let raw_ops_per_s = |r: &Rep| (r.attempted - r.failed) as f64 / (r.wall_ns.max(1) as f64 / 1e9);
    let bringup_s = per_rep(&|_, r| r.bringup_ns as f64 / 1e9);
    let report = &reps[0].report;
    let sim_ops = (report.base.writes + report.base.reads).max(1) as f64;
    let value = |name: &str| -> Vec<f64> {
        match name {
            "setup_s" => vec![(median(&gen_s) + median(&bringup_s)) / median(&slowdown)],
            "ops_per_s" => per_rep(&|i, r| raw_ops_per_s(r) * nominal(i)),
            "lat_p50_us" => per_rep(&|i, _| p50_us[i] / nominal(i)),
            "cpu_us_per_op" => {
                per_rep(&|i, r| r.cpu_ns as f64 / 1e3 / r.attempted.max(1) as f64 / nominal(i))
            }
            "ok_share" => vec![(attempted - failed) as f64 / attempted.max(1) as f64],
            "sim_write_mean_ns" => vec![report.write_latency.mean_ns()],
            "sim_energy_nj_per_op" => vec![report.energy.total_pj() as f64 / 1e3 / sim_ops],
            "nvm_writes_per_write" => {
                vec![report.nvm_data_writes as f64 / report.base.writes.max(1) as f64]
            }
            "peak_rss_mb" => vec![host::peak_rss_mb()],
            other => unreachable!("END_TO_END names an unknown metric {other}"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| Metric::per_rep(name, unit, value(name)))
        .collect();

    // For the reader, gated nowhere: the yardstick, the unscaled
    // throughput, and the tail (see `END_TO_END` for why it is not gated).
    let mut info = vec![
        Metric::per_rep("host_slowdown", "ratio", slowdown.clone()),
        Metric::per_rep("raw_ops_per_s", "1/s", per_rep(&|_, r| raw_ops_per_s(r))),
        Metric::per_rep("raw_lat_p50_us", "us", p50_us.clone()),
        Metric::per_rep("raw_lat_p99_us", "us", p99_us),
    ];
    if top_percentile(samples).is_some() {
        // The highest percentile with ten samples beyond it.
        info.push(Metric::per_rep("raw_lat_top_us", "us", top_us));
    }
    println!(
        "{}: {} repetitions of {} ops, {samples} latency samples each{}",
        workload.name,
        reps.len(),
        opts.ops(),
        top_percentile(samples).map_or(String::new(), |p| format!(" (raw_lat_top_us is p{p})"))
    );

    Outcome {
        workload: workload.name,
        seed: opts.seed,
        reps: reps.len(),
        attempted,
        failed,
        problems,
        metrics,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, EXACT};

    fn exact_readings(seed: u64) -> Vec<f64> {
        let outcome = end_to_end(&Options {
            workload: workload("ctrl_dupheavy").expect("known workload"),
            seed,
            seconds: 1.0,
            reps: Some(2),
            quick: true,
        });
        assert!(outcome.correct(), "{:?}", outcome.problems);
        assert_eq!(outcome.failed, 0);
        // Every end-to-end metric is emitted, and none reads zero.
        assert_eq!(
            outcome.metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
            END_TO_END.iter().map(|&(n, _)| n).collect::<Vec<_>>()
        );
        for m in &outcome.metrics {
            assert!(m.value() > 0.0, "{} reads {}", m.name, m.value());
        }
        EXACT
            .iter()
            .map(|name| {
                let m = outcome.metrics.iter().find(|m| m.name == *name);
                m.expect("exact metric emitted").value()
            })
            .collect()
    }

    #[test]
    fn exact_metrics_repeat_for_one_seed_and_move_with_another() {
        let a = exact_readings(7);
        assert_eq!(a, exact_readings(7), "one seed, two runs: bit-equal");
        let b = exact_readings(8);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "another seed must move every simulated result: {a:?} vs {b:?}"
        );
    }
}
