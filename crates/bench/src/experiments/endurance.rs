//! Endurance experiments: Fig. 12 (write reduction) and Fig. 13 (bit flips
//! per write under bit-level schemes and their combinations).

use std::collections::HashMap;

use dewrite_core::{CmeLine, DeuceLine};
use dewrite_crypto::CounterModeEngine;
use dewrite_nvm::is_zero_line;
use dewrite_trace::{all_apps, AppProfile, DupOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiments::{mean, Ctx};
use crate::runner::{par_map_apps, Workload, KEY};
use crate::table::{pct, Table};

/// Fig. 12: whole-line write reduction by DeWrite vs the duplication that
/// exists in the workload (paper: 54% reduced of 58% existing; ~1.5% lost
/// to PNA/saturation, ~2.6% extra metadata writes).
pub fn fig12(ctx: &mut Ctx) {
    // Ground-truth duplication per app (cheap: oracle only).
    let apps = all_apps();
    let scale = ctx.scale;
    let oracle_dups = par_map_apps(&apps, |profile, seed| {
        let w = Workload::generate(profile, scale, seed);
        let mut oracle = DupOracle::new();
        for rec in &w.warmup {
            oracle.observe_warmup(rec);
        }
        for rec in &w.trace {
            oracle.observe(rec);
        }
        oracle.stats().dup_ratio()
    });

    let mut t = Table::new(
        "Fig. 12 — write reduction (paper: avg 54% reduced of 58% existing duplication)",
        &[
            "app",
            "existing dup",
            "writes reduced",
            "PNA/saturation missed",
            "metadata writes",
        ],
    );
    let comparisons = ctx.comparisons().to_vec();
    let mut reduced_all = Vec::new();
    let mut existing_all = Vec::new();
    for (c, existing) in comparisons.iter().zip(oracle_dups.iter()) {
        let dm = c.dewrite.dewrite.expect("dewrite metrics");
        let writes = c.dewrite.base.writes.max(1) as f64;
        let reduced = c.dewrite.write_reduction();
        reduced_all.push(reduced);
        existing_all.push(*existing);
        t.row(vec![
            c.app.clone(),
            pct(*existing),
            pct(reduced),
            pct((dm.pna_missed_dups + dm.saturated_skips) as f64 / writes),
            pct(c.dewrite.base.meta_nvm_writes as f64 / writes),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        pct(mean(existing_all)),
        pct(mean(reduced_all)),
        String::new(),
        String::new(),
    ]);
    ctx.emit(&t, "fig12");
}

/// The nine scheme combinations of Fig. 13.
const FIG13_SCHEMES: [&str; 9] = [
    "DCW", "FNW", "DEUCE", "SS+DCW", "SS+FNW", "SS+DEUCE", "DW+DCW", "DW+FNW", "DW+DEUCE",
];

/// Per-application bit-flip measurement for all Fig. 13 combinations.
fn fig13_app(profile: &AppProfile, writes: usize, seed: u64) -> Vec<f64> {
    let engine = CounterModeEngine::new(KEY);
    let mut rng = StdRng::seed_from_u64(seed);
    let lines = 2048u64;
    let line_size = 256usize;
    let line_bits = (line_size * 8) as u64;

    // Duplicate-content pool (slot 0 = zero line), as in the generator.
    let pool: Vec<Vec<u8>> = std::iter::once(vec![0u8; line_size])
        .chain((0..256).map(|_| {
            let mut v = vec![0u8; line_size];
            rng.fill(&mut v[..]);
            v
        }))
        .collect();
    let (stay_dup, stay_nondup) = profile.markov_params();

    // Plaintext shadow per address; non-duplicate writes modify a few words
    // of the address's current content (this is what makes DEUCE shine).
    let mut plain: HashMap<u64, Vec<u8>> = HashMap::new();
    // Last address each pool content was written to: half the duplicate
    // writes rewrite the same buffer (silent stores), the case where DEUCE
    // re-encrypts nothing while DCW/FNW still suffer full diffusion.
    let mut last_addr_of: HashMap<usize, u64> = HashMap::new();
    // Residency oracle for the DW (dedup) variants.
    let mut residency: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut resident_at: HashMap<u64, Vec<u8>> = HashMap::new();

    // Line cipher states per scheme family.
    let mut cme: HashMap<u64, CmeLine> = HashMap::new();
    let mut deuce: HashMap<u64, DeuceLine> = HashMap::new();
    let mut ss_cme: HashMap<u64, CmeLine> = HashMap::new();
    let mut ss_deuce: HashMap<u64, DeuceLine> = HashMap::new();
    let mut dw_cme: HashMap<u64, CmeLine> = HashMap::new();
    let mut dw_deuce: HashMap<u64, DeuceLine> = HashMap::new();

    let mut flips = [0u64; 9]; // indexed like FIG13_SCHEMES
    let mut last_dup = false;
    let zero_prob = if profile.dup_ratio > 0.0 {
        (profile.zero_share / profile.dup_ratio).clamp(0.0, 1.0)
    } else {
        0.0
    };

    for _ in 0..writes {
        let mut addr = rng.gen_range(0..lines);
        let dup = if profile.dup_ratio <= 0.0 {
            false
        } else if last_dup {
            rng.gen_bool(stay_dup)
        } else {
            !rng.gen_bool(stay_nondup)
        };
        last_dup = dup;

        let content: Vec<u8> = if dup {
            let k = if rng.gen_bool(zero_prob) {
                0
            } else {
                1 + rng.gen_range(0..pool.len() - 1)
            };
            // Most duplicate writes rewrite the content's previous
            // location (a silent store).
            if rng.gen_bool(0.6) {
                if let Some(&a) = last_addr_of.get(&k) {
                    addr = a;
                }
            }
            last_addr_of.insert(k, addr);
            pool[k].clone()
        } else {
            // Partial modification: 1–4 words of the current content.
            let mut c = plain
                .get(&addr)
                .cloned()
                .unwrap_or_else(|| vec![0u8; line_size]);
            let words = 1 + rng.gen_range(0..4);
            for _ in 0..words {
                let w = rng.gen_range(0..line_size / 2);
                let v: u16 = rng.gen();
                c[w * 2..w * 2 + 2].copy_from_slice(&v.to_le_bytes());
            }
            c
        };

        // Bit-level families (every write reaches the array).
        let (d, f) = cme
            .entry(addr)
            .or_insert_with(|| CmeLine::new(addr, line_size))
            .write(&engine, &content);
        flips[0] += d;
        flips[1] += f;
        flips[2] += deuce
            .entry(addr)
            .or_insert_with(|| DeuceLine::new(addr, line_size))
            .write(&engine, &content);

        // Silent Shredder: zero lines never reach the array.
        if !is_zero_line(&content) {
            let (d, f) = ss_cme
                .entry(addr)
                .or_insert_with(|| CmeLine::new(addr, line_size))
                .write(&engine, &content);
            flips[3] += d;
            flips[4] += f;
            flips[5] += ss_deuce
                .entry(addr)
                .or_insert_with(|| DeuceLine::new(addr, line_size))
                .write(&engine, &content);
        }

        // DeWrite: duplicate lines never reach the array.
        let is_resident_dup = residency.contains_key(&content);
        if !is_resident_dup {
            let (d, f) = dw_cme
                .entry(addr)
                .or_insert_with(|| CmeLine::new(addr, line_size))
                .write(&engine, &content);
            flips[6] += d;
            flips[7] += f;
            flips[8] += dw_deuce
                .entry(addr)
                .or_insert_with(|| DeuceLine::new(addr, line_size))
                .write(&engine, &content);
        }

        // Update oracles.
        if let Some(old) = resident_at.insert(addr, content.clone()) {
            if let Some(n) = residency.get_mut(&old) {
                *n -= 1;
                if *n == 0 {
                    residency.remove(&old);
                }
            }
        }
        *residency.entry(content.clone()).or_insert(0) += 1;
        plain.insert(addr, content);
    }

    let denom = (writes as u64 * line_bits) as f64;
    flips.iter().map(|&f| f as f64 / denom).collect()
}

/// Fig. 13: average bit flips per write (paper: DCW 50%, FNW 43%, DEUCE
/// 24%; with DeWrite → 22%, 19%, 11%).
pub fn fig13(ctx: &mut Ctx) {
    let apps = all_apps();
    let writes = (ctx.scale.writes / 2).max(1_000);
    let rows = par_map_apps(&apps, |profile, seed| {
        (profile.name.to_string(), fig13_app(profile, writes, seed))
    });

    let mut headers = vec!["app"];
    headers.extend(FIG13_SCHEMES);
    let mut t = Table::new(
        "Fig. 13 — average bit flips per write (paper: DCW 50%, FNW 43%, DEUCE 24%; +DeWrite: 22/19/11%)",
        &headers,
    );
    for (name, ratios) in &rows {
        let mut cells = vec![name.clone()];
        cells.extend(ratios.iter().map(|r| pct(*r)));
        t.row(cells);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    for i in 0..FIG13_SCHEMES.len() {
        avg.push(pct(mean(rows.iter().map(|r| r.1[i]))));
    }
    t.row(avg);
    ctx.emit(&t, "fig13");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewrite_trace::app_by_name;

    #[test]
    fn fig13_orderings_hold_for_one_app() {
        let profile = app_by_name("mcf").unwrap(); // 55% dup
        let r = fig13_app(&profile, 3_000, 9);
        let (dcw, fnw, deuce) = (r[0], r[1], r[2]);
        let (dw_dcw, dw_fnw, dw_deuce) = (r[6], r[7], r[8]);
        // Paper orderings: DCW ≈ 50% > FNW > DEUCE, and DW+X < X.
        assert!((0.42..0.55).contains(&dcw), "DCW {dcw}");
        assert!(fnw < dcw && fnw > 0.3, "FNW {fnw}");
        assert!(deuce < fnw, "DEUCE {deuce} vs FNW {fnw}");
        assert!(dw_dcw < dcw * 0.7, "DW+DCW {dw_dcw}");
        assert!(dw_fnw < fnw * 0.7, "DW+FNW {dw_fnw}");
        assert!(dw_deuce < deuce, "DW+DEUCE {dw_deuce}");
        // SS saves something but less than DW (zero lines ⊂ duplicates).
        assert!(r[3] <= dcw && r[3] >= dw_dcw, "SS+DCW {}", r[3]);
    }
}
