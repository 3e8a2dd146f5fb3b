//! What the benchmark reads from the host: CPU time, peak memory, and a
//! fingerprint that says which machine and toolchain produced a result.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use dewrite_core::Json;

/// CPU nanoseconds (user + system) this process's live threads have
/// consumed. Summed from the scheduler's per-thread nanosecond counters,
/// falling back to the 10 ms ticks of `/proc/self/stat` where those are
/// not compiled in. Take it at both edges of a window during which no
/// thread exits.
pub fn cpu_ns() -> u64 {
    let from_sched = fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        let mut total = 0u64;
        for task in tasks.flatten() {
            let text = fs::read_to_string(task.path().join("schedstat")).ok()?;
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(total)
    });
    from_sched.or_else(stat_ticks_ns).unwrap_or(0)
}

/// `utime + stime` of `/proc/self/stat`, in nanoseconds (100 Hz ticks).
fn stat_ticks_ns() -> Option<u64> {
    let text = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields count from its closing ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Peak resident set of this process (`VmHWM`), MB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Refuse to measure when `DEWRITE_PORTABLE` selects the portable kernels
/// (by the same rule the `crypto` and `hashes` crates apply).
///
/// # Errors
///
/// The refusal, when the variable is set.
pub fn refuse_portable_leg() -> Result<(), String> {
    if std::env::var_os("DEWRITE_PORTABLE").is_some_and(|v| !v.is_empty() && v != "0") {
        return Err(
            "DEWRITE_PORTABLE is set: portable-leg numbers must never meet \
                    fast-leg baselines; unset it to run the benchmark"
                .into(),
        );
    }
    Ok(())
}

/// The benchmark package's directory: where `cargo run` says it is, else
/// where it was when this binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The checkout root (`BENCHMARK.json` lives here).
pub fn repo_root() -> PathBuf {
    let pkg = package_dir();
    pkg.parent().map_or(pkg.clone(), PathBuf::from)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    let root = repo_root();
    Command::new(cmd)
        .args(args)
        .current_dir(&root)
        // Keep git's repository discovery inside the checkout.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint: core count, the CPU features the fast kernels
/// dispatch on, the compiler, and the commit (`unknown` outside a git
/// checkout).
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let has = |f: &str| Json::Bool(flags.contains(&f));
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("aes".into(), has("aes")),
        ("sse4.2".into(), has("sse4_2")),
        ("pclmulqdq".into(), has("pclmulqdq")),
        ("avx512vl".into(), has("avx512vl")),
        (
            "rustc".into(),
            Json::Str(first_line_of("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_ns();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ns() > before, "30 ms of spinning must show as CPU time");
        assert!(peak_rss_mb() > 0.0);
    }
}
