//! Golden digests of whole simulator reports.
//!
//! The simulator's host-side storage (metadata-cache fill, NVM line store,
//! per-line counters, verify buffer) may change freely; what it *reports*
//! may not. Each case replays 20k trace records through
//! [`Simulator::run`] and pins the FNV-1a 64 of `RunReport::to_json()`'s
//! text, recorded before the storage rewrite that introduced this file.
//! A mismatch means a simulated number moved.

use dewrite::core::{
    CmeBaseline, DeWrite, DeWriteConfig, SecureMemory, SilentShredder, Simulator, SystemConfig,
    TraditionalDedup,
};
use dewrite::hashes::HashAlgorithm;
use dewrite::trace::{app_by_name, TraceGenerator, TraceRecord};

const KEY: &[u8; 16] = b"golden report k!";
const OPS: usize = 20_000;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trace of `app` (warm-up, records) and the line span it touches.
fn trace(app: &str) -> (Vec<TraceRecord>, Vec<TraceRecord>, u64) {
    let mut profile = app_by_name(app).expect("known app");
    profile.working_set_lines = 1 << 14;
    profile.content_pool_size = 1024;
    let mut gen = TraceGenerator::new(profile, 256, 7);
    let lines = gen.required_lines();
    let warmup = gen.warmup_records();
    (warmup, gen.by_ref().take(OPS).collect(), lines)
}

/// Replay `app` through `scheme` (paper configuration, then `tweak`) and
/// digest the report.
fn digest(app: &str, scheme: &str, tweak: impl Fn(&mut SystemConfig)) -> u64 {
    let (warmup, records, lines) = trace(app);
    let mut config = SystemConfig::for_lines(lines + 64);
    tweak(&mut config);
    let sim = Simulator::new(&config);
    let report = match scheme {
        "dewrite" => {
            let mut mem = DeWrite::new(config.clone(), DeWriteConfig::paper(), KEY);
            let mut report = sim.run(&mut mem, app, &warmup, records).expect("run");
            report.dewrite = Some(mem.dewrite_metrics());
            mem.scrub().expect("scrub");
            report
        }
        other => {
            let mut mem: Box<dyn SecureMemory> = match other {
                "cme" => Box::new(CmeBaseline::new(config.clone(), KEY)),
                "traditional" => Box::new(TraditionalDedup::new(
                    config.clone(),
                    HashAlgorithm::Sha1,
                    KEY,
                )),
                "shredder" => Box::new(SilentShredder::new(config.clone(), KEY)),
                _ => panic!("unknown scheme {other}"),
            };
            sim.run(mem.as_mut(), app, &warmup, records).expect("run")
        }
    };
    fnv1a(&report.to_json().to_string())
}

const GOLDEN: [(&str, &str, u64); 8] = [
    ("mcf", "cme", 0x0685_6d5a_93da_7a19),
    ("mcf", "dewrite", 0x00a0_4b35_4dcf_fcb7),
    ("mcf", "traditional", 0xc1bc_9480_1274_45e4),
    ("mcf", "shredder", 0x0b2b_6a71_67e3_08c9),
    ("lbm", "cme", 0xe51d_5510_218d_6392),
    ("lbm", "dewrite", 0xa674_2b84_259d_4814),
    ("lbm", "traditional", 0x34a9_a5c8_ae82_94d5),
    ("lbm", "shredder", 0xe716_cbb3_d0a1_4832),
];

#[test]
fn sim_golden() {
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(app, scheme, _)| (app, scheme, digest(app, scheme, |_| {})))
        .collect();
    for (app, scheme, d) in &got {
        println!("    (\"{app}\", \"{scheme}\", {d:#018x}),");
    }
    assert_eq!(got, GOLDEN);
}

/// DeWrite on mcf at hardware-context counts other than the default 16
/// (`cores`, `persist_every`): every record runs on the least-advanced
/// context, so a padding or tie-break slip in that pick at a
/// non-power-of-two count would move these. Recorded before the pick
/// became a winner tree.
const GOLDEN_CONTEXTS: [(usize, Option<u32>, u64); 3] = [
    (1, None, 0x86a2_e44e_2643_e9ed),
    (3, Some(8), 0x3ead_52a3_72f7_780f),
    (17, None, 0x703e_075f_fcdb_0aca),
];

#[test]
fn sim_golden_context_counts() {
    let got: Vec<_> = GOLDEN_CONTEXTS
        .iter()
        .map(|&(cores, persist_every, _)| {
            let d = digest("mcf", "dewrite", |c| {
                c.cores = cores;
                c.persist_every = persist_every;
            });
            (cores, persist_every, d)
        })
        .collect();
    for (cores, persist_every, d) in &got {
        println!("    ({cores}, {persist_every:?}, {d:#018x}),");
    }
    assert_eq!(got, GOLDEN_CONTEXTS);
}
