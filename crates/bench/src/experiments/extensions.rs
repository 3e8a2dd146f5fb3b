//! Ablations and extensions beyond the paper's headline experiments:
//! history-window width, hash-function choice, cache replacement policy,
//! NVM technology, and deduplication granularity.

use dewrite_core::{
    DeWrite, DeWriteConfig, HistoryPredictor, MetadataPersistence, Simulator, SystemConfig,
};
use dewrite_hashes::HashAlgorithm;
use dewrite_mem::Replacement;
use dewrite_nvm::Timing;
use dewrite_trace::{all_apps, app_by_name, DupOracle, TraceGenerator};

use crate::experiments::{mean, Ctx};
use crate::runner::{
    par_map_apps, run_scheme, run_scheme_encoded, Scale, SchemeKind, Workload, KEY,
};
use crate::table::{f3, pct, Table};

/// History-window width sweep (the paper stops at 3 bits; we sweep 1–7).
pub fn ext_history(ctx: &mut Ctx) {
    let apps = all_apps();
    let scale = ctx.scale;
    let bits: Vec<usize> = vec![1, 2, 3, 5, 7];
    let per_app = par_map_apps(&apps, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let mut oracle = DupOracle::recording();
        for rec in &w.warmup {
            oracle.observe_warmup(rec);
        }
        for rec in &w.trace {
            oracle.observe(rec);
        }
        let outcomes = oracle.outcomes().to_vec();
        [1usize, 2, 3, 5, 7].map(|b| {
            let mut p = HistoryPredictor::new(b);
            for &o in &outcomes {
                p.record(o);
            }
            p.accuracy()
        })
    });

    let mut t = Table::new(
        "Extension — predictor accuracy vs history width (paper: 3 bits suffice)",
        &["history bits", "avg accuracy"],
    );
    for (i, b) in bits.iter().enumerate() {
        t.row(vec![b.to_string(), pct(mean(per_app.iter().map(|r| r[i])))]);
    }
    ctx.emit(&t, "ext_history");
}

/// Hash-function ablation: CRC-32 vs CRC-32C vs (truncated) SHA-1 as the
/// dedup fingerprint inside DeWrite.
pub fn ext_hash(ctx: &mut Ctx) {
    let apps = ["mcf", "lbm", "vips", "dedup"];
    let profiles: Vec<_> = apps
        .iter()
        .map(|n| app_by_name(n).expect("known"))
        .collect();
    let scale = ctx.scale;
    let rows = par_map_apps(&profiles, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let algs = [
            HashAlgorithm::Crc32,
            HashAlgorithm::Crc32c,
            HashAlgorithm::Sha1,
        ];
        let reports = algs.map(|h| run_scheme(SchemeKind::DeWriteHasher(h), &w));
        (profile.name.to_string(), reports)
    });

    let mut t = Table::new(
        "Extension — fingerprint choice inside DeWrite (CRC variants equal; SHA-1 latency hurts)",
        &[
            "app",
            "crc32 write ns",
            "crc32c write ns",
            "sha1 write ns",
            "crc32 reduction",
            "sha1 reduction",
        ],
    );
    for (name, [crc, crcc, sha]) in &rows {
        t.row(vec![
            name.clone(),
            f3(crc.write_latency.mean_ns()),
            f3(crcc.write_latency.mean_ns()),
            f3(sha.write_latency.mean_ns()),
            pct(crc.write_reduction()),
            pct(sha.write_reduction()),
        ]);
    }
    ctx.emit(&t, "ext_hash");
}

/// Replacement-policy ablation: LRU vs scan-resistant S3-FIFO metadata
/// caches, one row per (app, policy): dedup rate and tail latency per
/// policy.
pub fn ext_repl(ctx: &mut Ctx) {
    let apps = ["mcf", "cactusADM", "vips", "streamcluster"];
    let profiles: Vec<_> = apps
        .iter()
        .map(|n| app_by_name(n).expect("known"))
        .collect();
    let scale = ctx.scale;
    let rows = par_map_apps(&profiles, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let config = w.system_config();
        let run = |repl: Replacement| {
            let mut dw = DeWriteConfig::paper();
            dw.meta_cache = dewrite_core::MetaCacheConfig::scaled(16, 256);
            dw.meta_cache.replacement = repl;
            let mut mem = DeWrite::new(config.clone(), dw, KEY);
            let report = Simulator::new(&config)
                .run(&mut mem, profile.name, &w.warmup, w.trace.iter().cloned())
                .expect("fits");
            let s = mem.cache_stats();
            let hit = mean([
                s.hash.hit_rate(),
                s.addr_map.hit_rate(),
                s.inverted.hit_rate(),
                s.fsm.hit_rate(),
            ]);
            (hit, report.write_reduction(), report.write_latency.p99_ns())
        };
        (profile.name.to_string(), Replacement::ALL.map(run))
    });

    let mut t = Table::new(
        "Extension — metadata cache replacement (16 KB partitions, per app x policy)",
        &["app", "policy", "avg hit", "dedup rate", "p99 write (ns)"],
    );
    for (name, per_policy) in &rows {
        for (policy, (hit, dedup, p99)) in Replacement::ALL.iter().zip(per_policy) {
            t.row(vec![
                format!("{name}/{policy}"),
                policy.to_string(),
                pct(*hit),
                pct(*dedup),
                p99.to_string(),
            ]);
        }
    }
    ctx.emit(&t, "ext_repl");
}

/// NVM-technology sensitivity: PCM vs a faster STT-RAM-like device. The
/// read/write asymmetry shrinks (50/10 vs 300/75), so DeWrite's relative
/// gains shrink too — the paper's "intrinsic asymmetry" argument in
/// reverse.
pub fn ext_stt(ctx: &mut Ctx) {
    let apps = ["mcf", "lbm", "vips"];
    let profiles: Vec<_> = apps
        .iter()
        .map(|n| app_by_name(n).expect("known"))
        .collect();
    let scale = ctx.scale;
    let rows = par_map_apps(&profiles, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let speedup = |timing: Timing| {
            let mut config = w.system_config();
            config.nvm.timing = timing;
            let sim = Simulator::new(&config);
            let mut dw = DeWrite::new(config.clone(), DeWriteConfig::paper(), KEY);
            let r1 = sim
                .run(&mut dw, profile.name, &w.warmup, w.trace.iter().cloned())
                .expect("fits");
            let mut base = dewrite_core::CmeBaseline::new(config, KEY);
            let r2 = sim
                .run(&mut base, profile.name, &w.warmup, w.trace.iter().cloned())
                .expect("fits");
            r1.write_speedup_vs(&r2)
        };
        (
            profile.name.to_string(),
            speedup(Timing::PCM),
            speedup(Timing::STT_RAM),
        )
    });

    let mut t = Table::new(
        "Extension — write speedup by NVM technology (asymmetry 4x vs 5x, absolute latencies differ)",
        &["app", "PCM speedup", "STT-RAM speedup"],
    );
    for (name, pcm, stt) in &rows {
        t.row(vec![
            name.clone(),
            format!("{pcm:.2}x"),
            format!("{stt:.2}x"),
        ]);
    }
    ctx.emit(&t, "ext_stt");
}

/// Dedup-granularity ablation: 64 B vs 256 B lines. Smaller lines dedup
/// slightly better but quadruple the metadata (the reason the paper uses
/// 256 B).
pub fn ext_gran(ctx: &mut Ctx) {
    let apps = ["mcf", "lbm", "vips"];
    let profiles: Vec<_> = apps
        .iter()
        .map(|n| app_by_name(n).expect("known"))
        .collect();
    let scale = Scale {
        writes: ctx.scale.writes / 2,
        ..ctx.scale
    };
    let rows = par_map_apps(&profiles, |profile, seed| {
        let run = |line_size: usize| {
            let shaped = scale.shape(profile.clone());
            let mut gen = TraceGenerator::new(shaped.clone(), line_size, seed);
            let warmup = gen.warmup_records();
            let mut trace = Vec::new();
            let mut writes = 0usize;
            while writes < scale.writes {
                match gen.next() {
                    Some(r) => {
                        if r.op.is_write() {
                            writes += 1;
                        }
                        trace.push(r);
                    }
                    None => break,
                }
            }
            let data_lines = shaped.working_set_lines + shaped.content_pool_size as u64 + 64;
            let config = SystemConfig::for_lines_with(data_lines, line_size);
            let sim = Simulator::new(&config);
            let mut mem = DeWrite::new(config, DeWriteConfig::paper(), KEY);
            let r = sim
                .run(&mut mem, profile.name, &warmup, trace.iter().cloned())
                .expect("fits");
            r.write_reduction()
        };
        (profile.name.to_string(), run(64), run(256))
    });

    let mut t = Table::new(
        "Extension — dedup granularity (64 B metadata cost is 4x; paper picks 256 B)",
        &["app", "64 B reduction", "256 B reduction"],
    );
    for (name, g64, g256) in &rows {
        t.row(vec![name.clone(), pct(*g64), pct(*g256)]);
    }
    ctx.emit(&t, "ext_gran");
}

/// Metadata-persistence ablation (§V): battery-backed write-back vs
/// SecPM-style write-through vs epoch flushing. Measures the runtime cost
/// of crash consistency without a battery.
pub fn ext_persist(ctx: &mut Ctx) {
    let apps = ["mcf", "lbm", "vips"];
    let profiles: Vec<_> = apps
        .iter()
        .map(|n| app_by_name(n).expect("known"))
        .collect();
    let scale = ctx.scale;
    let policies = [
        MetadataPersistence::BatteryBacked,
        MetadataPersistence::EpochFlush { interval: 64 },
        MetadataPersistence::WriteThrough,
    ];
    let rows = par_map_apps(&profiles, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let config = w.system_config();
        let runs: Vec<_> = policies
            .iter()
            .map(|&persistence| {
                let mut dw_cfg = DeWriteConfig::paper();
                dw_cfg.persistence = persistence;
                let mut mem = DeWrite::new(config.clone(), dw_cfg, KEY);
                let r = Simulator::new(&config)
                    .run(&mut mem, profile.name, &w.warmup, w.trace.iter().cloned())
                    .expect("fits");
                let dirty = mem.dirty_metadata_entries();
                mem.scrub().expect("post-run scrub");
                (r, dirty)
            })
            .collect();
        (profile.name.to_string(), runs)
    });

    let mut t = Table::new(
        "Extension — metadata persistence policies (crash exposure vs metadata write traffic)",
        &[
            "app",
            "policy",
            "write ns",
            "IPC",
            "meta writes / data write",
            "dirty at crash",
        ],
    );
    for (name, runs) in &rows {
        for (policy, (r, dirty)) in policies.iter().zip(runs.iter()) {
            t.row(vec![
                name.clone(),
                policy.to_string(),
                f3(r.write_latency.mean_ns()),
                f3(r.ipc),
                f3(r.base.meta_nvm_writes as f64 / r.base.writes.max(1) as f64),
                dirty.to_string(),
            ]);
        }
    }
    ctx.emit(&t, "ext_persist");
}

/// Wear-leveling composition: Start-Gap under a dedup-skewed write stream.
/// Demonstrates that DeWrite's free-space recycling concentrates wear and
/// that Start-Gap spreads it back out.
pub fn ext_wear(ctx: &mut Ctx) {
    use dewrite_nvm::{LineAddr, StartGap};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let lines = 256u64;
    let writes = (ctx.scale.writes * 8) as u64;
    let mut rng = StdRng::seed_from_u64(7);

    // A dedup-style skewed stream: a handful of hot recycled free lines
    // absorb 80% of the writes.
    let mut sample_addr = |rng: &mut StdRng| -> u64 {
        if rng.gen_bool(0.8) {
            rng.gen_range(0..8)
        } else {
            rng.gen_range(8..lines)
        }
    };

    let run = |with_leveling: bool,
               rng: &mut StdRng,
               sample: &mut dyn FnMut(&mut StdRng) -> u64|
     -> (u64, f64) {
        let mut wear = vec![0u64; lines as usize + 1];
        let mut sg = StartGap::new(lines, 10);
        for _ in 0..writes {
            let logical = LineAddr::new(sample(rng));
            let physical = if with_leveling {
                sg.remap(logical)
            } else {
                logical
            };
            wear[physical.index() as usize] += 1;
            if with_leveling {
                if let Some((_, dst)) = sg.note_write() {
                    wear[dst.index() as usize] += 1; // the gap-move write
                }
            }
        }
        let max = *wear.iter().max().expect("nonempty");
        let mean = writes as f64 / lines as f64;
        (max, max as f64 / mean)
    };

    let (max_plain, skew_plain) = run(false, &mut rng, &mut sample_addr);
    let (max_leveled, skew_leveled) = run(true, &mut rng, &mut sample_addr);

    let mut t = Table::new(
        "Extension — Start-Gap wear leveling under a dedup-skewed write stream",
        &["configuration", "max line writes", "max / mean skew"],
    );
    t.row(vec![
        "no leveling".into(),
        max_plain.to_string(),
        f3(skew_plain),
    ]);
    t.row(vec![
        "start-gap (interval 10)".into(),
        max_leveled.to_string(),
        f3(skew_leveled),
    ]);
    ctx.emit(&t, "ext_wear");
}

/// Full-system composition of line-level and bit-level schemes: the
/// through-the-simulator counterpart of Fig. 13's standalone streams.
/// Reports the device-measured fraction of cells programmed per data write
/// for {baseline, Silent Shredder, DeWrite} × {raw, DCW, FNW}.
pub fn ext_combined(ctx: &mut Ctx) {
    use dewrite_core::BitEncoding;
    let apps = ["mcf", "lbm", "sjeng"];
    let profiles: Vec<_> = apps
        .iter()
        .map(|n| app_by_name(n).expect("known"))
        .collect();
    let scale = Scale {
        writes: ctx.scale.writes / 2,
        ..ctx.scale
    };
    let schemes = [
        SchemeKind::Baseline,
        SchemeKind::SilentShredder,
        SchemeKind::DeWrite,
    ];
    let encodings = [BitEncoding::Raw, BitEncoding::Dcw, BitEncoding::Fnw];
    let rows = par_map_apps(&profiles, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let mut cells = Vec::new();
        for kind in schemes {
            for enc in encodings {
                let r = run_scheme_encoded(kind, &w, enc);
                // Programmed cells per *issued* write, so eliminated writes
                // count as zero — comparable to Fig. 13's per-write metric.
                let line_bits = 2048.0;
                let per_write = r.bit_flip_ratio
                    * (r.nvm_data_writes as f64 / r.base.writes.max(1) as f64)
                    * line_bits
                    / line_bits;
                cells.push(per_write);
            }
        }
        (profile.name.to_string(), cells)
    });

    let mut t = Table::new(
        "Extension — full-system bit flips per issued write (line-level × cell-level schemes)",
        &[
            "app", "base raw", "base DCW", "base FNW", "SS raw", "SS DCW", "SS FNW", "DW raw",
            "DW DCW", "DW FNW",
        ],
    );
    for (name, cells) in &rows {
        let mut row = vec![name.clone()];
        row.extend(cells.iter().map(|c| pct(*c)));
        t.row(row);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    for i in 0..9 {
        avg.push(pct(mean(rows.iter().map(|r| r.1[i]))));
    }
    t.row(avg);
    ctx.emit(&t, "ext_combined");
}

/// Cross-program deduplication: two applications co-located on one NVMM
/// with disjoint address spaces. DeWrite's content index is global, so
/// content shared *across* programs (zero pages, common initialization
/// patterns) deduplicates too — the same effect page-level memory dedup
/// exploits in virtualized hosts, here at line granularity. (The paper
/// scopes out the associated dedup side channels, §V; so do we.)
pub fn ext_colo(ctx: &mut Ctx) {
    use dewrite_nvm::LineAddr;
    use dewrite_trace::{TraceGenerator, TraceOp, TraceRecord};

    let pairs = [("gcc", "mcf"), ("lbm", "libquantum"), ("vips", "bzip2")];
    let scale = Scale {
        writes: ctx.scale.writes / 2,
        ..ctx.scale
    };

    let mut t = Table::new(
        "Extension — co-located programs on one DeWrite NVMM: reduction lands on the traffic-weighted average (no interference)",
        &["pair", "solo reduction A", "solo reduction B", "co-located reduction"],
    );
    for (a, b) in pairs {
        let pa = scale.shape(app_by_name(a).expect("known"));
        let pb = scale.shape(app_by_name(b).expect("known"));

        // Generate both traces; program B's addresses are offset into the
        // second half of the address space.
        let build = |p: &dewrite_trace::AppProfile, seed: u64| {
            let mut gen = TraceGenerator::new(p.clone(), 256, seed);
            let warmup = gen.warmup_records();
            let mut trace = Vec::new();
            let mut writes = 0;
            while writes < scale.writes {
                let rec = gen.next().expect("infinite");
                writes += usize::from(rec.op.is_write());
                trace.push(rec);
            }
            (warmup, trace)
        };
        let (wa, ta) = build(&pa, 100);
        let (wb, tb) = build(&pb, 200);
        let span = pa.working_set_lines + pa.content_pool_size as u64 + 64;
        let offset = |rec: &TraceRecord| -> TraceRecord {
            let shift = |addr: LineAddr| LineAddr::new(addr.index() + span);
            TraceRecord {
                gap_instructions: rec.gap_instructions,
                op: match &rec.op {
                    TraceOp::Read { addr } => TraceOp::Read { addr: shift(*addr) },
                    TraceOp::Write { addr, data } => TraceOp::Write {
                        addr: shift(*addr),
                        data: data.clone(),
                    },
                },
            }
        };

        // Interleave the two programs record by record.
        let mut merged_warm: Vec<TraceRecord> = wa.clone();
        merged_warm.extend(wb.iter().map(&offset));
        let mut merged = Vec::with_capacity(ta.len() + tb.len());
        let (mut ia, mut ib) = (ta.iter(), tb.iter());
        loop {
            match (ia.next(), ib.next()) {
                (Some(x), Some(y)) => {
                    merged.push(x.clone());
                    merged.push(offset(y));
                }
                (Some(x), None) => merged.push(x.clone()),
                (None, Some(y)) => merged.push(offset(y)),
                (None, None) => break,
            }
        }

        let reduction = |warm: &[TraceRecord], trace: &[TraceRecord], lines: u64| -> f64 {
            let config = SystemConfig::for_lines(lines);
            let mut mem = DeWrite::new(config.clone(), DeWriteConfig::paper(), KEY);
            let r = Simulator::new(&config)
                .run(&mut mem, "colo", warm, trace.iter().cloned())
                .expect("fits");
            r.write_reduction()
        };

        let solo_a = reduction(&wa, &ta, span);
        let solo_b = reduction(&wb, &tb, span);
        let colo = reduction(&merged_warm, &merged, span * 2);
        t.row(vec![
            format!("{a}+{b}"),
            pct(solo_a),
            pct(solo_b),
            pct(colo),
        ]);
    }
    ctx.emit(&t, "ext_colo");
}

/// §III-C validation: place each application's end-state counters in the
/// colocated layout, counted from the dedup index, and measure how often
/// the "at least one null slot per row" observation holds (it is what lets
/// counters embed), plus the storage-overhead arithmetic of §IV-E1.
pub fn ext_layout(ctx: &mut Ctx) {
    use dewrite_core::{ColocationStats, DeWrite as Dw};
    let apps = all_apps();
    let scale = ctx.scale;
    let rows = par_map_apps(&apps, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let config = w.system_config();
        let mut mem = Dw::new(config.clone(), DeWriteConfig::paper(), KEY);
        Simulator::new(&config)
            .run(&mut mem, profile.name, &w.warmup, w.trace.iter().cloned())
            .expect("fits");
        (profile.name.to_string(), mem.index().colocation())
    });

    let mut t = Table::new(
        "Extension — colocated metadata layout (§III-C): counters embedded in null slots",
        &[
            "app",
            "in addr-map slot",
            "in inverted slot",
            "overflow (both busy)",
            "embedded",
        ],
    );
    let mut fractions = Vec::new();
    for (name, s) in &rows {
        fractions.push(s.embedded_fraction());
        t.row(vec![
            name.clone(),
            s.counters_in_addr_map.to_string(),
            s.counters_in_inverted.to_string(),
            s.overflow_counters.to_string(),
            pct(s.embedded_fraction()),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        String::new(),
        String::new(),
        String::new(),
        pct(mean(fractions)),
    ]);
    ctx.emit(&t, "ext_layout");

    let mut o = Table::new(
        "Metadata storage overhead (paper §IV-E1: ≈6.25% of capacity)",
        &["line size", "overhead"],
    );
    for ls in [64usize, 128, 256, 512] {
        o.row(vec![
            format!("{ls} B"),
            pct(ColocationStats::storage_overhead(ls)),
        ]);
    }
    ctx.emit(&o, "ext_layout_overhead");
}

/// Bank-parallelism sensitivity: DeWrite's gains come from relieving bank
/// queueing, so they shrink as the device gets more internal parallelism —
/// and the baseline catches up. A sanity ablation for the contention model.
pub fn ext_banks(ctx: &mut Ctx) {
    use dewrite_core::{CmeBaseline, DeWrite as Dw};
    let profile = app_by_name("milc").expect("known");
    let scale = ctx.scale;
    let w = Workload::generate(&profile, scale, 5);

    let mut t = Table::new(
        "Extension — sensitivity to NVM bank count (milc)",
        &[
            "banks",
            "baseline write (ns)",
            "dewrite write (ns)",
            "write speedup",
            "read speedup",
        ],
    );
    for banks in [1usize, 2, 4, 8, 16] {
        let mut config = w.system_config();
        config.nvm.banks = banks;
        let sim = Simulator::new(&config);
        let mut dw = Dw::new(config.clone(), DeWriteConfig::paper(), KEY);
        let r1 = sim
            .run(&mut dw, profile.name, &w.warmup, w.trace.iter().cloned())
            .expect("fits");
        let mut base = CmeBaseline::new(config, KEY);
        let r2 = sim
            .run(&mut base, profile.name, &w.warmup, w.trace.iter().cloned())
            .expect("fits");
        t.row(vec![
            banks.to_string(),
            f3(r2.write_latency.mean_ns()),
            f3(r1.write_latency.mean_ns()),
            format!("{:.2}x", r1.write_speedup_vs(&r2)),
            format!("{:.2}x", r1.read_speedup_vs(&r2)),
        ]);
    }
    ctx.emit(&t, "ext_banks");
}

/// Dedup-domain sweep: the isolation/efficiency trade-off of partitioning
/// the dedup index per tenant (the mitigation for the timing side channel
/// demonstrated in `examples/timing_probe.rs`).
pub fn ext_domains(ctx: &mut Ctx) {
    use dewrite_core::DeWrite as Dw;
    let apps = ["mcf", "lbm", "vips"];
    let profiles: Vec<_> = apps
        .iter()
        .map(|n| app_by_name(n).expect("known"))
        .collect();
    let scale = ctx.scale;
    let domains = [1u64, 2, 4, 16];
    let rows = par_map_apps(&profiles, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let config = w.system_config();
        let reductions: Vec<f64> = domains
            .iter()
            .map(|&d| {
                let mut cfg = DeWriteConfig::paper();
                cfg.dedup_domains = d;
                let mut mem = Dw::new(config.clone(), cfg, KEY);
                let r = Simulator::new(&config)
                    .run(&mut mem, profile.name, &w.warmup, w.trace.iter().cloned())
                    .expect("fits");
                r.write_reduction()
            })
            .collect();
        (profile.name.to_string(), reductions)
    });

    let mut t = Table::new(
        "Extension — dedup domains (side-channel isolation vs write reduction)",
        &["app", "1 domain", "2 domains", "4 domains", "16 domains"],
    );
    for (name, red) in &rows {
        let mut row = vec![name.clone()];
        row.extend(red.iter().map(|r| pct(*r)));
        t.row(row);
    }
    ctx.emit(&t, "ext_domains");
}
