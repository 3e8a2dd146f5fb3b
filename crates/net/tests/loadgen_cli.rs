//! `loadgen` refuses a flag it would ignore: an in-process-only flag with
//! `--net`, a net-only flag without it, and a removed flag. Each must exit
//! 2 and name the flag before any trace is generated or socket opened.

use std::process::Command;

#[test]
fn flags_the_chosen_mode_would_ignore_are_refused() {
    for (args, flag) in [
        (&["--net", "127.0.0.1:9", "--fsm", "tree-wear"][..], "--fsm"),
        (&["--mode", "open"][..], "--mode open"),
        (&["--coalesce", "8"][..], "--coalesce"),
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
