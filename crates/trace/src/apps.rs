//! The 20 evaluated applications, calibrated to the paper's Figure 2.
//!
//! Duplication ratios are digitised from Fig. 2 (range 18.6%–98.4%, average
//! 58%; zero-line share average 16%). The paper names the extremes
//! explicitly: `vips` at 18.6% and `blackscholes` at 98.4%; `cactusADM`,
//! `libquantum`, `lbm`, `blackscholes` above 80%; `bzip2` and `vips` mostly
//! non-duplicate; and `sjeng` as the one application whose duplicates are
//! dominated by zero lines. Remaining per-app values are interpolations that
//! preserve the published aggregates — the experiments report shape
//! (averages, extremes, orderings), not per-bar exactness.

use crate::profile::{AppProfile, Suite};

/// Construct one profile with common defaults.
const fn app(
    name: &'static str,
    suite: Suite,
    dup_ratio: f64,
    zero_share: f64,
    state_persistence: f64,
    reads_per_write: f64,
    writes_per_kilo_instr: f64,
) -> AppProfile {
    AppProfile {
        name,
        suite,
        dup_ratio,
        zero_share,
        state_persistence,
        reads_per_write,
        writes_per_kilo_instr,
        working_set_lines: 1 << 16, // 64 Ki lines = 16 MB footprint
        content_pool_size: 1 << 11,
    }
}

/// The 12 SPEC CPU2006 applications.
pub const SPEC_APPS: [AppProfile; 12] = [
    app("bzip2", Suite::Spec2006, 0.20, 0.05, 0.90, 2.2, 18.0),
    app("gcc", Suite::Spec2006, 0.45, 0.12, 0.91, 2.5, 22.0),
    app("mcf", Suite::Spec2006, 0.55, 0.15, 0.92, 3.0, 35.0),
    app("milc", Suite::Spec2006, 0.60, 0.15, 0.92, 2.0, 28.0),
    app("zeusmp", Suite::Spec2006, 0.70, 0.20, 0.93, 1.8, 25.0),
    app("gromacs", Suite::Spec2006, 0.40, 0.10, 0.90, 2.4, 15.0),
    app("cactusADM", Suite::Spec2006, 0.92, 0.25, 0.96, 1.5, 30.0),
    app("leslie3d", Suite::Spec2006, 0.65, 0.18, 0.92, 2.0, 26.0),
    app("sjeng", Suite::Spec2006, 0.35, 0.30, 0.90, 2.6, 12.0),
    app("libquantum", Suite::Spec2006, 0.85, 0.20, 0.95, 1.6, 32.0),
    app("h264ref", Suite::Spec2006, 0.30, 0.08, 0.89, 2.8, 16.0),
    app("lbm", Suite::Spec2006, 0.95, 0.25, 0.97, 1.4, 40.0),
];

/// The 8 PARSEC 2.1 applications.
pub const PARSEC_APPS: [AppProfile; 8] = [
    app("blackscholes", Suite::Parsec, 0.984, 0.35, 0.97, 1.2, 20.0),
    app("bodytrack", Suite::Parsec, 0.50, 0.12, 0.91, 2.3, 18.0),
    app("canneal", Suite::Parsec, 0.45, 0.10, 0.90, 3.2, 30.0),
    app("dedup", Suite::Parsec, 0.75, 0.15, 0.94, 1.9, 24.0),
    app("ferret", Suite::Parsec, 0.55, 0.14, 0.92, 2.4, 22.0),
    app("fluidanimate", Suite::Parsec, 0.60, 0.18, 0.92, 2.0, 26.0),
    app("streamcluster", Suite::Parsec, 0.65, 0.10, 0.93, 2.8, 34.0),
    app("vips", Suite::Parsec, 0.186, 0.04, 0.88, 2.5, 20.0),
];

/// All 20 evaluated applications, SPEC first (presentation order of Fig. 2).
pub fn all_apps() -> Vec<AppProfile> {
    SPEC_APPS
        .iter()
        .cloned()
        .chain(PARSEC_APPS.iter().cloned())
        .collect()
}

/// Look up an application profile by name. The synthetic profiles
/// (`worst-case`, `scan`, `dupflood`) resolve here too — they are
/// reachable from every driver (`sim`, `loadgen`, `repro`) without being
/// counted in [`all_apps`] and the paper's 20-app aggregates.
pub fn app_by_name(name: &str) -> Option<AppProfile> {
    match name {
        "worst-case" => Some(worst_case()),
        "scan" => Some(scan_adversary()),
        "dupflood" => Some(dup_flood()),
        _ => all_apps().into_iter().find(|a| a.name == name),
    }
}

/// The worst-case synthetic benchmark of Fig. 18: random values inserted
/// into a 2-D array and traversed — no duplicate lines at all.
pub fn worst_case() -> AppProfile {
    AppProfile {
        name: "worst-case",
        suite: Suite::Synthetic,
        dup_ratio: 0.0,
        zero_share: 0.0,
        state_persistence: 0.99,
        reads_per_write: 1.0,
        writes_per_kilo_instr: 30.0,
        working_set_lines: 1 << 16,
        content_pool_size: 1,
    }
}

/// A scan-adversarial synthetic: a large sequential sweep (working set
/// far beyond any metadata-cache footprint) interleaved with a small,
/// hot, duplicate-heavy content pool. Every sweep line is a
/// one-hit-wonder in the digest-keyed metadata cache while the pool
/// keys stay hot — exactly the access pattern that defeats LRU (the
/// sweep evicts the hot entries) and that S3-FIFO's small-queue filter
/// absorbs. Low state persistence keeps the duplicate predictor off
/// balance so cache hits, not prediction, carry the workload.
pub fn scan_adversary() -> AppProfile {
    AppProfile {
        name: "scan",
        suite: Suite::Synthetic,
        dup_ratio: 0.5,
        zero_share: 0.05,
        state_persistence: 0.6,
        reads_per_write: 1.0,
        writes_per_kilo_instr: 40.0,
        working_set_lines: 1 << 17,
        content_pool_size: 1 << 9,
    }
}

/// A duplicate flood: almost every write repeats content from a tiny
/// pool, so nearly every commit rides the duplicate path and pays its
/// verify (a verify-buffer hit or a 75 ns verify-read). Its reference
/// counters saturate (far more than 255 copies per content), which
/// exercises the saturated-skip path. High state persistence keeps the
/// predictor confidently on the duplicate path.
pub fn dup_flood() -> AppProfile {
    AppProfile {
        name: "dupflood",
        suite: Suite::Synthetic,
        dup_ratio: 0.97,
        zero_share: 0.10,
        state_persistence: 0.97,
        reads_per_write: 0.5,
        writes_per_kilo_instr: 40.0,
        working_set_lines: 1 << 15,
        content_pool_size: 1 << 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_apps_total() {
        assert_eq!(all_apps().len(), 20);
    }

    #[test]
    fn all_profiles_validate() {
        for a in all_apps() {
            a.validate().unwrap_or_else(|e| panic!("{e}"));
        }
        // worst_case has dup_ratio 0 which is valid but persistence must be.
        worst_case().validate().unwrap();
    }

    #[test]
    fn aggregates_match_paper() {
        let apps = all_apps();
        let avg_dup: f64 = apps.iter().map(|a| a.dup_ratio).sum::<f64>() / apps.len() as f64;
        // Paper: 58% average duplicate lines.
        assert!((avg_dup - 0.58).abs() < 0.02, "avg dup {avg_dup}");

        let avg_zero: f64 = apps.iter().map(|a| a.zero_share).sum::<f64>() / apps.len() as f64;
        // Paper: ~16% average zero lines.
        assert!((avg_zero - 0.16).abs() < 0.02, "avg zero {avg_zero}");

        let avg_persist: f64 =
            apps.iter().map(|a| a.state_persistence).sum::<f64>() / apps.len() as f64;
        // Paper Fig. 4: ~92% of writes share the previous write's state.
        assert!(
            (avg_persist - 0.92).abs() < 0.01,
            "avg persistence {avg_persist}"
        );
    }

    #[test]
    fn extremes_match_paper() {
        let apps = all_apps();
        let min = apps.iter().map(|a| a.dup_ratio).fold(f64::MAX, f64::min);
        let max = apps.iter().map(|a| a.dup_ratio).fold(f64::MIN, f64::max);
        assert!((min - 0.186).abs() < 1e-9); // vips
        assert!((max - 0.984).abs() < 1e-9); // blackscholes
    }

    #[test]
    fn named_extremes() {
        assert!(app_by_name("cactusADM").unwrap().dup_ratio > 0.8);
        assert!(app_by_name("lbm").unwrap().dup_ratio > 0.8);
        assert!(app_by_name("libquantum").unwrap().dup_ratio > 0.8);
        assert!(app_by_name("bzip2").unwrap().dup_ratio < 0.5);
        assert!(app_by_name("vips").unwrap().dup_ratio < 0.5);
        assert!(app_by_name("nonexistent").is_none());
    }

    #[test]
    fn sjeng_duplicates_dominated_by_zero_lines() {
        let sjeng = app_by_name("sjeng").unwrap();
        assert!(sjeng.zero_share / sjeng.dup_ratio > 0.8);
        // …and it is the only such application.
        for a in all_apps() {
            if a.name != "sjeng" {
                assert!(
                    a.zero_share / a.dup_ratio < 0.8,
                    "{} looks zero-dominated too",
                    a.name
                );
            }
        }
    }

    #[test]
    fn worst_case_has_no_duplicates() {
        let w = worst_case();
        assert_eq!(w.dup_ratio, 0.0);
        assert_eq!(w.zero_share, 0.0);
    }

    #[test]
    fn synthetics_resolve_by_name_but_stay_out_of_the_aggregates() {
        for name in ["worst-case", "scan", "dupflood"] {
            let p = app_by_name(name).unwrap_or_else(|| panic!("{name} resolves"));
            assert_eq!(p.name, name);
            assert_eq!(p.suite, Suite::Synthetic);
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                !all_apps().iter().any(|a| a.name == name),
                "{name} must not join the paper's 20-app averages"
            );
        }
    }

    #[test]
    fn dupflood_profile_is_duplicate_saturated() {
        let d = dup_flood();
        // Nearly every write must be a pool repeat, and the pool must be
        // small enough that every content saturates its 255-reference
        // entry many times over.
        assert!(d.dup_ratio >= 0.95, "flood must be duplicate-dominated");
        assert!(
            d.working_set_lines >= 1024 * d.content_pool_size as u64,
            "each pool content must accumulate far more than MAX_REFERENCE copies"
        );
    }

    #[test]
    fn scan_profile_is_sweep_dominated_with_a_hot_pool() {
        let s = scan_adversary();
        // The sweep footprint must dwarf the duplicate pool: that ratio is
        // what makes the workload scan-adversarial for a digest-keyed
        // metadata cache.
        assert!(s.working_set_lines >= 64 * s.content_pool_size as u64);
        assert!(s.dup_ratio >= 0.4, "pool keys must recur enough to be hot");
    }
}
