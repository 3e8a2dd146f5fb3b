//! Power-cycle integration: snapshot the controller's durable metadata,
//! tear the controller down, rebuild it over the same device, and verify
//! every line — including through serialization of the snapshot.

use std::collections::HashMap;

use dewrite::core::{DeWrite, DeWriteConfig, SecureMemory, Snapshot, SystemConfig};
use dewrite::nvm::LineAddr;
use dewrite::trace::{app_by_name, TraceGenerator, TraceOp};

const KEY: &[u8; 16] = b"power cycle key!";

fn populated() -> (DeWrite, HashMap<u64, Vec<u8>>, SystemConfig) {
    let mut profile = app_by_name("milc").expect("known app");
    profile.working_set_lines = 1 << 10;
    profile.content_pool_size = 128;
    let config = SystemConfig::for_lines((1 << 10) + 128 + 64);
    let mut mem = DeWrite::new(config.clone(), DeWriteConfig::paper(), KEY);

    let mut gen = TraceGenerator::new(profile, 256, 77);
    let mut shadow = HashMap::new();
    let mut t = 0u64;
    for rec in gen
        .warmup_records()
        .into_iter()
        .chain(gen.by_ref().take(4_000))
    {
        if let TraceOp::Write { addr, data } = rec.op {
            mem.write(addr, &data, t).expect("write");
            shadow.insert(addr.index(), data);
            t += 600;
        }
    }
    (mem, shadow, config)
}

#[test]
fn contents_survive_a_power_cycle() {
    let (mem, shadow, config) = populated();
    let eliminated_before = mem.base_metrics().writes_eliminated;
    assert!(eliminated_before > 0, "sanity: dedup ran");

    let (snapshot, device) = mem.power_off();
    let mut mem = DeWrite::power_on(config, DeWriteConfig::paper(), KEY, device, &snapshot)
        .expect("power on");

    // Every line reads back its pre-cycle contents.
    let mut t = 1_000_000;
    for (&addr, expect) in &shadow {
        let r = mem.read(LineAddr::new(addr), t).expect("read");
        assert_eq!(&r.data, expect, "line {addr} lost across power cycle");
        t += 500;
    }
    // The restored controller passes its own integrity scrub.
    assert!(mem.scrub().expect("scrub") > 0);
    // And keeps deduplicating. Right after power-on the hash cache and
    // predictor are cold, so PNA may legitimately treat the first
    // duplicate as fresh; once the digest is cached, detection resumes.
    let sample = shadow.values().next().expect("nonempty").clone();
    mem.write(LineAddr::new(1_000), &sample, t).expect("write");
    let w = mem
        .write(LineAddr::new(1_001), &sample, t + 10_000)
        .expect("write");
    assert!(w.eliminated, "restored controller must deduplicate again");
    mem.index()
        .check_invariants()
        .expect("invariants after restore + writes");
}

#[test]
fn snapshot_serializes_through_bytes() {
    let (mem, shadow, config) = populated();
    let (snapshot, device) = mem.power_off();

    let mut buf = Vec::new();
    snapshot.write_to(&mut buf).expect("encode");
    let decoded = Snapshot::read_from(buf.as_slice()).expect("decode");
    assert_eq!(decoded, snapshot);

    let mut mem =
        DeWrite::power_on(config, DeWriteConfig::paper(), KEY, device, &decoded).expect("power on");
    let (&addr, expect) = shadow.iter().next().expect("nonempty");
    assert_eq!(
        mem.read(LineAddr::new(addr), 0).expect("read").data,
        *expect
    );
}

#[test]
fn power_on_rejects_mismatched_configuration() {
    let (mem, _, _) = populated();
    let (snapshot, device) = mem.power_off();
    let wrong = SystemConfig::for_lines(1 << 12); // different size
    let err = DeWrite::power_on(wrong, DeWriteConfig::paper(), KEY, device, &snapshot)
        .expect_err("size mismatch");
    assert!(err.contains("lines"), "{err}");
}

#[test]
fn power_on_rejects_mismatched_dewrite_config() {
    // Restoring under a different scheme configuration (hasher, domains,
    // counter width) would silently misinterpret the tables; the snapshot's
    // config fingerprint must catch it with a descriptive error.
    let (mem, _, config) = populated();
    let (snapshot, device) = mem.power_off();

    let mut wrong_hash = DeWriteConfig::paper();
    wrong_hash.hasher = dewrite::hashes::HashAlgorithm::Crc32c;
    let err = DeWrite::power_on(config.clone(), wrong_hash, KEY, device, &snapshot)
        .expect_err("hasher mismatch");
    assert!(err.contains("fingerprint"), "{err}");

    let device = dewrite::nvm::NvmDevice::new(config.nvm.clone()).expect("device");
    let mut wrong_domains = DeWriteConfig::paper();
    wrong_domains.dedup_domains = 4;
    let err = DeWrite::power_on(config, wrong_domains, KEY, device, &snapshot)
        .expect_err("domain mismatch");
    assert!(err.contains("fingerprint"), "{err}");
}

#[test]
fn config_fingerprint_ignores_performance_knobs() {
    // Cache sizes and persistence policy don't change how durable state is
    // interpreted — snapshots must survive tuning changes.
    let base = DeWriteConfig::paper();
    let mut tuned = DeWriteConfig::paper();
    tuned.meta_cache.hash_entries = 32;
    tuned.persistence = dewrite::core::MetadataPersistence::EpochFlush { interval: 8 };
    assert_eq!(base.fingerprint(), tuned.fingerprint());

    let mut semantic = DeWriteConfig::paper();
    semantic.pna = false;
    assert_ne!(base.fingerprint(), semantic.fingerprint());
}

#[test]
fn counters_keep_advancing_after_restore() {
    // Pad uniqueness must hold across the cycle: rewriting a line after
    // restore must produce different ciphertext than before.
    let config = SystemConfig::for_lines(512);
    let mut mem = DeWrite::new(config.clone(), DeWriteConfig::paper(), KEY);
    let data = vec![0x33u8; 256];
    mem.write(LineAddr::new(0), &data, 0).expect("write");
    let ct_before = mem.device().peek_line(LineAddr::new(0)).expect("peek");

    let (snapshot, device) = mem.power_off();
    let mut mem = DeWrite::power_on(config, DeWriteConfig::paper(), KEY, device, &snapshot)
        .expect("power on");

    // Make line 0 sole-owned rewrite in place with fresh (unique) content,
    // then write the original data back: the counter must have advanced,
    // so the ciphertext differs from the pre-cycle one.
    let mut unique = vec![0x44u8; 256];
    unique[0..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    mem.write(LineAddr::new(0), &unique, 10_000).expect("write");
    mem.write(LineAddr::new(0), &data, 20_000).expect("write");
    let ct_after = mem.device().peek_line(LineAddr::new(0)).expect("peek");
    assert_ne!(ct_before, ct_after, "counter reuse across power cycle");
    assert_eq!(mem.read(LineAddr::new(0), 30_000).expect("read").data, data);
}
