//! The net crate's binaries at their command line.
//!
//! `loadgen` refuses a flag it would ignore: an in-process-only flag with
//! `--net`, a net-only flag without it, and a removed flag. It refuses an
//! out-of-range count, and so does `dewrite-serve`. Each must exit 2 and
//! name the flag before any trace is generated or socket opened.
//!
//! `loadgen --check` in process runs end to end through the binary: every
//! shard is scrubbed after the drain and says so in the JSON.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dewrite_core::Json;

#[test]
fn flags_the_chosen_mode_would_ignore_are_refused() {
    for (args, flag) in [
        (&["--net", "127.0.0.1:9", "--fsm", "tree-wear"][..], "--fsm"),
        (&["--mode", "open"][..], "--mode open"),
        (&["--coalesce", "8"][..], "--coalesce"),
        (&["--ops", "20000000000000000m"][..], "--ops"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn loadgen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "loadgen {args:?} must exit 2; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(flag),
            "loadgen {args:?} must name {flag}, got:\n{stderr}"
        );
    }
}

#[test]
fn serve_refuses_a_window_that_does_not_fit_its_type() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dewrite-serve"))
        .args(["--addr", "127.0.0.1:0", "--window", "4294967297"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dewrite-serve");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll dewrite-serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("dewrite-serve --window 4294967297 was still running after 5 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("collect dewrite-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--window"),
        "must name --window, got:\n{stderr}"
    );
}

#[test]
fn in_process_check_scrubs_every_shard() {
    let dir = std::env::temp_dir().join(format!("dewrite-loadgen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("engine.json");
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--app", "mcf", "--shards", "4", "--ops", "3k", "--lines", "2k",
        ])
        .arg("--check")
        .arg("--out")
        .arg(&out_path)
        .current_dir(&dir)
        .output()
        .expect("spawn loadgen");
    assert!(
        out.status.success(),
        "loadgen --check must exit 0; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).expect("JSON parses");
    let runs = doc.get("apps").and_then(Json::as_arr).expect("apps")[0]
        .get("runs")
        .and_then(Json::as_arr)
        .expect("runs");
    assert_eq!(runs.len(), 2, "the 1-shard baseline, then 4 shards");
    for run in runs {
        let rows = run
            .get("per_shard")
            .and_then(Json::as_arr)
            .expect("per_shard");
        assert!(!rows.is_empty());
        for row in rows {
            assert!(row.get("scrub_lines").is_some(), "unscrubbed shard: {row}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
