//! The arguments `bench run` and `bench-layers` share.

use std::path::PathBuf;

use crate::run::Options;
use crate::spec::{workload, Workload, DEFAULT_SEED, WORKLOADS};

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload NAME`; `None` means every workload.
    pub workload: Option<&'static Workload>,
    /// `--seed N` (decimal or `0x` hex).
    pub seed: u64,
    /// `--seconds S`: measuring time per workload.
    pub seconds: f64,
    /// `--reps N`: exactly this many repetitions instead.
    pub reps: Option<usize>,
    /// `--quick`: 1/20 of the size, one repetition, a smoke run.
    pub quick: bool,
    /// `--trace 0|1`: only the end-to-end pass, or only the traced
    /// ladder; both when absent.
    pub trace: Option<bool>,
    /// `--detail FILE`: also write the pass's detail document there.
    pub detail: Option<PathBuf>,
    /// `--out FILE`: where an all-workload run writes its document.
    pub out: Option<PathBuf>,
}

/// Seconds measured per workload when `--seconds` is absent
/// (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 12.0;

/// The flags, for usage messages.
pub const FLAGS: &str = "[--workload NAME] [--seed N] [--seconds S] [--reps N] [--quick] \
                         [--trace 0|1] [--detail FILE] [--out FILE]";

impl Args {
    /// Parse the flags in [`FLAGS`].
    ///
    /// # Errors
    ///
    /// A message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            reps: None,
            quick: false,
            trace: None,
            detail: None,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    out.workload = Some(workload(name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name}; known: {}", known.join(", "))
                    })?);
                }
                "--seed" => {
                    let v = value()?;
                    let parsed = match v.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    };
                    out.seed = parsed.map_err(|e| format!("--seed {v}: {e}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    out.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                    if out.seconds.is_nan() || out.seconds <= 0.0 {
                        return Err(format!("--seconds {v}: must be positive"));
                    }
                }
                "--reps" => {
                    let v = value()?;
                    let n: usize = v.parse().map_err(|e| format!("--reps {v}: {e}"))?;
                    if n == 0 {
                        return Err("--reps 0: need at least one repetition".into());
                    }
                    out.reps = Some(n);
                }
                "--quick" => out.quick = true,
                "--trace" => {
                    out.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: expected 0 or 1")),
                    });
                }
                "--detail" => out.detail = Some(PathBuf::from(value()?)),
                "--out" => out.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }

    /// The run options for `workload` under these arguments.
    pub fn options(&self, workload: &'static Workload) -> Options {
        Options {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            reps: self.reps,
            quick: self.quick,
        }
    }

    /// The flags that carry over to a child process for one workload.
    pub fn child_flags(&self, workload: &Workload) -> Vec<String> {
        let mut flags = vec![
            "--workload".to_string(),
            workload.name.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
        ];
        if let Some(n) = self.reps {
            flags.extend(["--reps".to_string(), n.to_string()]);
        }
        if self.quick {
            flags.push("--quick".to_string());
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&[
            "--workload",
            "wire_open",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "wire_open");
        assert_eq!((a.seed, a.seconds, a.trace), (17, 10.0, Some(false)));
        assert_eq!(parse(&["--seed", "0xDE1717E5"]).unwrap().seed, DEFAULT_SEED);
        assert!(parse(&[]).unwrap().workload.is_none());
    }

    #[test]
    fn bad_arguments_are_named() {
        assert!(parse(&["--workload", "nope"])
            .unwrap_err()
            .contains("ctrl_unique"));
        assert!(parse(&["--trace", "2"]).unwrap_err().contains("0 or 1"));
        assert!(parse(&["--reps", "0"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
