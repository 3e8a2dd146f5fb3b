//! `bench_compare` compares `repro` exports only: given a `loadgen` or
//! `hotpath` export it must refuse with exit code 2, name the export kind
//! and point to `bench compare` in `benchmark/`.

use std::path::PathBuf;
use std::process::Command;

use dewrite_core::Json;

fn write_export(name: &str, json: &Json) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dewrite_compare_refuses_{}_{name}.json",
        std::process::id()
    ));
    std::fs::write(&path, format!("{json}\n")).expect("write export");
    path
}

#[test]
fn host_wall_clock_exports_are_refused() {
    // The top-level key each tool marks its export with.
    for (marker, kind) in [("tool", "loadgen"), ("bench", "hotpath")] {
        let export = Json::Obj(vec![
            ("schema_version".into(), Json::Num(1.0)),
            (marker.into(), Json::Str(kind.into())),
        ]);
        let old = write_export(&format!("{kind}_old"), &export);
        let new = write_export(&format!("{kind}_new"), &export);
        let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
            .arg(&old)
            .arg(&new)
            .output()
            .expect("spawn bench_compare");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "a {kind} export must be refused with exit 2; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("{kind} export")) && stderr.contains("bench compare"),
            "the refusal must name the {kind} export and point to `bench compare`, got:\n{stderr}"
        );
    }
}
