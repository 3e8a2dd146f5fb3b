//! Golden digests of whole shard reports and snapshots.
//!
//! The shard's host-side mechanics (owner-mode free-space ops, prefetch
//! hints, histogram layout, where a digest's slot sits in the index) may
//! change freely; what the shard *reports* and what it would *persist* may
//! not. Each case replays 20k trace records through
//! [`ShardController::write`]/[`ShardController::read`] and pins the
//! FNV-1a 64 of `report(..).to_json()`'s text followed by the encoded
//! `snapshot()` and the allocator's counters, recorded at the commit
//! before the change that introduced this file. A mismatch means a
//! simulated number, a placement or a counter moved.

use dewrite::persist::{recover_state, DurableOptions};
use dewrite::trace::{app_by_name, TraceGenerator, TraceOp, TraceRecord};
use dewrite_engine::{DigestMode, EngineConfig, FsmPolicy, ShardController};

const OPS: usize = 20_000;
const LINE: usize = 256;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh one-shard controller sized as the engine sizes it, and the
/// trace of `app` (warm-up first) it is about to replay.
fn bring_up(app: &str, fsm: FsmPolicy, mode: DigestMode) -> (ShardController, Vec<TraceRecord>) {
    let mut profile = app_by_name(app).expect("known app");
    profile.working_set_lines = 1 << 13;
    profile.content_pool_size = 512;
    let mut gen = TraceGenerator::new(profile, LINE, 7);
    let lines = gen.required_lines();
    let mut records = gen.warmup_records();
    records.extend(gen.by_ref().take(OPS));
    let writes = records.iter().filter(|r| r.op.is_write()).count() as u64;
    let config = EngineConfig::for_workload(1, LINE, lines, writes);
    let mut ctrl =
        ShardController::new(0, 1, config.slots_per_shard, config.line_size, &config.key);
    ctrl.set_fsm_policy(fsm);
    ctrl.set_digest_mode(mode);
    (ctrl, records)
}

fn replay(ctrl: &mut ShardController, records: &[TraceRecord]) {
    for rec in records {
        match &rec.op {
            TraceOp::Write { addr, data } => {
                ctrl.write(*addr, data, rec.gap_instructions);
            }
            TraceOp::Read { addr } => {
                ctrl.read(*addr, rec.gap_instructions);
            }
        }
    }
}

/// FNV of the shard's report text, encoded snapshot and allocator counters.
fn digest(ctrl: &mut ShardController, app: &str) -> u64 {
    let h = fnv1a(
        0xcbf2_9ce4_8422_2325,
        ctrl.report(app).to_json().to_string().as_bytes(),
    );
    let mut image = Vec::new();
    ctrl.snapshot().encode_into(&mut image);
    let fsm = ctrl.fsm_stats();
    for counter in [fsm.claims, fsm.refills, fsm.steals, fsm.scan_steps] {
        image.extend_from_slice(&counter.to_le_bytes());
    }
    fnv1a(h, &image)
}

const POLICIES: [FsmPolicy; 2] = [FsmPolicy::Tree, FsmPolicy::TreeWear];
const MODES: [DigestMode; 2] = [DigestMode::Crc32Verify, DigestMode::StrongKeyed];

/// Per app: one row per [`POLICIES`] entry, one column per [`MODES`] entry.
const GOLDEN: [(&str, [[u64; 2]; 2]); 3] = [
    (
        "worst-case",
        [
            [0xee97_df0a_b706_b146, 0xc35b_8885_2afa_18fd],
            [0xa9e9_101a_5144_a087, 0xd444_9c3b_d1de_5f03],
        ],
    ),
    (
        "mcf",
        [
            [0x0663_8832_b62c_9546, 0x144c_f1a8_3cac_b304],
            [0x978d_29c9_3d51_7802, 0x34c7_c241_881d_8b44],
        ],
    ),
    (
        "lbm",
        [
            [0x3779_d391_bde8_28b2, 0x6a66_26ca_757e_cd12],
            [0x006e_b7da_b423_25c0, 0xa677_3e75_d8a2_679e],
        ],
    ),
];

#[test]
fn engine_golden() {
    let mut got = Vec::new();
    for (app, _) in GOLDEN {
        let mut per_policy = [[0u64; 2]; 2];
        for (p, &fsm) in POLICIES.iter().enumerate() {
            for (m, &mode) in MODES.iter().enumerate() {
                let (mut ctrl, records) = bring_up(app, fsm, mode);
                replay(&mut ctrl, &records);
                ctrl.scrub().expect("scrub");
                per_policy[p][m] = digest(&mut ctrl, app);
            }
        }
        println!("    (\"{app}\", {per_policy:#018x?}),");
        got.push((app, per_policy));
    }
    assert_eq!(got, GOLDEN);
}

/// The durable shard reports and persists what the plain one does, and
/// its WAL replays to the live snapshot.
#[test]
fn engine_golden_durable() {
    let dir = std::env::temp_dir().join(format!("dewrite-engine-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut ctrl, records) = bring_up("mcf", FsmPolicy::Tree, DigestMode::Crc32Verify);
    ctrl.attach_persistence(
        &dir,
        DurableOptions {
            epoch_writes: 64,
            checkpoint_epochs: 8,
            sync: false,
        },
    )
    .expect("attach the WAL");
    replay(&mut ctrl, &records);
    ctrl.flush_wal().expect("flush");
    ctrl.scrub().expect("scrub");
    assert_eq!(digest(&mut ctrl, "mcf"), GOLDEN[1].1[0][0]);

    let live = ctrl.snapshot();
    let fp = live.config_fp;
    let (recovered, stats) = recover_state(&dir, fp, live.lines).expect("recover");
    assert!(!stats.torn_tail);
    assert_eq!(recovered, live, "replayed state == live state");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
