//! The controller rung: direct `ShardController` calls on one thread.

use std::path::Path;
use std::time::Instant;

use dewrite_engine::ShardController;
use dewrite_persist::{recover_state, DurableOptions};
use dewrite_trace::{TraceOp, TraceRecord};

use crate::host::cpu_ns;
use crate::inputs::Inputs;
use crate::rep::{ns32, Rep, ShardSide};
use crate::spec::CALL_SAMPLE_STRIDE;

/// The epoch policy `EngineService` hard-codes when persistence is on.
pub const ENGINE_DURABLE: DurableOptions = DurableOptions {
    epoch_writes: 64,
    checkpoint_epochs: 8,
    sync: false,
};

/// Apply one trace record.
pub fn apply(ctrl: &mut ShardController, rec: &TraceRecord) {
    match &rec.op {
        TraceOp::Write { addr, data } => {
            ctrl.write(*addr, data, rec.gap_instructions);
        }
        TraceOp::Read { addr } => {
            ctrl.read(*addr, rec.gap_instructions);
        }
    }
}

/// A fresh shard configured exactly as `EngineService` configures its
/// workers, with the WAL attached under `persist` (if any) and the
/// warm-up records replayed.
///
/// # Panics
///
/// Panics if the persistence directory cannot be created.
pub fn bring_up(inputs: &Inputs, persist: Option<&Path>) -> ShardController {
    let config = inputs.engine_config();
    let mut ctrl =
        ShardController::new(0, 1, config.slots_per_shard, config.line_size, &config.key);
    ctrl.set_fsm_policy(config.fsm);
    ctrl.set_cache_policy(config.cache_policy);
    ctrl.set_digest_mode(config.digest_mode);
    if let Some(dir) = persist {
        ctrl.attach_persistence(dir, ENGINE_DURABLE)
            .expect("attach the metadata WAL under the scratch directory");
    }
    for rec in &inputs.warmup {
        apply(&mut ctrl, rec);
    }
    ctrl
}

/// After the timed window: flush, scrub, recover (durable runs), and
/// collect the report and counters into `rep`.
pub fn finish(mut ctrl: ShardController, inputs: &Inputs, persist: Option<&Path>, rep: &mut Rep) {
    if let Err(e) = ctrl.flush_wal() {
        rep.problems.push(format!("flush_wal: {e}"));
    }
    if let Err(e) = ctrl.scrub() {
        rep.problems.push(format!("scrub: {e}"));
    }
    if let Some(dir) = persist {
        let config = inputs.engine_config();
        let fp = ShardController::persist_fingerprint(
            0,
            1,
            config.slots_per_shard,
            config.line_size,
            config.digest_mode,
        );
        let live = ctrl.snapshot();
        let start = Instant::now();
        match recover_state(dir, fp, live.lines) {
            Ok((recovered, stats)) => {
                rep.recover_ns = start.elapsed().as_nanos() as u64;
                if stats.writes_covered != inputs.writes {
                    rep.problems.push(format!(
                        "recovery covers {} writes, {} were flushed",
                        stats.writes_covered, inputs.writes
                    ));
                }
                if recovered != live {
                    rep.problems
                        .push("recovered metadata differs from the live shard's".into());
                }
            }
            Err(e) => rep.problems.push(format!("recover_state: {e}")),
        }
    }
    let fsm = ctrl.fsm_stats();
    rep.shard = ShardSide {
        cache: ctrl.cache_stats(),
        fsm_claims: fsm.claims,
        fsm_scan_steps_per_claim: fsm.scan_steps_per_claim(),
        queue_depth_mean: 0.0,
    };
    rep.report = ctrl.report(inputs.app);
    rep.report_json = rep.report.to_json().to_string();
    rep.check_report(inputs, true);
}

/// One repetition: every record applied back to back, every
/// [`CALL_SAMPLE_STRIDE`]-th call timed on its own.
pub fn run(inputs: &Inputs, persist: Option<&Path>) -> Rep {
    let start = Instant::now();
    let mut ctrl = bring_up(inputs, persist);
    let mut rep = Rep {
        attempted: inputs.records.len() as u64,
        bringup_ns: start.elapsed().as_nanos() as u64,
        lat_ns: Vec::with_capacity(inputs.records.len() / CALL_SAMPLE_STRIDE + 1),
        ..Rep::default()
    };

    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    for (i, rec) in inputs.records.iter().enumerate() {
        if i % CALL_SAMPLE_STRIDE == 0 {
            let call = Instant::now();
            apply(&mut ctrl, rec);
            rep.lat_ns.push(ns32(call.elapsed()));
        } else {
            apply(&mut ctrl, rec);
        }
    }
    rep.wall_ns = t0.elapsed().as_nanos() as u64;
    rep.cpu_ns = cpu_ns() - cpu0;

    finish(ctrl, inputs, persist, &mut rep);
    rep
}
