//! End-to-end persistence: durable workload → crash or clean shutdown →
//! `DeWrite::recover` → every line verified, plus proptest codec hardening
//! (run on both `DEWRITE_PORTABLE` legs by CI).

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

use dewrite_core::{DeWrite, DeWriteConfig, SecureMemory, Snapshot, SystemConfig};
use dewrite_nvm::LineAddr;
use dewrite_persist::{
    decode_wal, encode_record, encode_wal_header, DurableDeWrite, DurableOptions, EpochLog,
    PersistError, RecoverDeWrite, WalRecord, WalTail,
};
use proptest::prelude::*;

const KEY: &[u8; 16] = b"persist test key";
const LINES: u64 = 512;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dewrite-recovery-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn config() -> SystemConfig {
    SystemConfig::for_lines(LINES)
}

/// Deterministic line content for write `i` (small tag space → duplicates).
fn content(i: u64) -> (LineAddr, Vec<u8>) {
    let addr = LineAddr::new((i * 7 + i / 5) % 64);
    let tag = (i % 6) as u8;
    let data: Vec<u8> = (0..256).map(|j| tag.wrapping_add((j / 16) as u8)).collect();
    (addr, data)
}

fn run_workload(mem: &mut DurableDeWrite, writes: u64) -> HashMap<u64, Vec<u8>> {
    let mut shadow = HashMap::new();
    for i in 0..writes {
        let (addr, data) = content(i);
        mem.write(addr, &data, i * 600).expect("write");
        shadow.insert(addr.index(), data);
    }
    shadow
}

#[test]
fn clean_shutdown_then_recover_restores_every_line() {
    let dir = tmpdir("clean");
    let opts = DurableOptions {
        epoch_writes: 16,
        checkpoint_epochs: 4,
        sync: false,
    };
    let mut mem =
        DurableDeWrite::create(&dir, config(), DeWriteConfig::paper(), KEY, opts).expect("create");
    let shadow = run_workload(&mut mem, 300);
    let inner = mem.shutdown().expect("shutdown");
    let (_, device) = inner.power_off();

    let (mut recovered, stats) =
        DeWrite::recover(&dir, config(), DeWriteConfig::paper(), KEY, device).expect("recover");
    assert_eq!(
        stats.writes_covered, 300,
        "clean shutdown covers all writes"
    );
    assert!(!stats.torn_tail, "clean shutdown leaves no torn tail");
    let mut t = 1_000_000;
    for (&addr, expect) in &shadow {
        let got = recovered.read(LineAddr::new(addr), t).expect("read").data;
        assert_eq!(&got, expect, "line {addr}");
        t += 500;
    }
    recovered.index().check_invariants().expect("invariants");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_without_shutdown_recovers_flushed_epochs() {
    let dir = tmpdir("crash");
    let opts = DurableOptions {
        epoch_writes: 8,
        checkpoint_epochs: 4,
        sync: false,
    };
    let mut mem =
        DurableDeWrite::create(&dir, config(), DeWriteConfig::paper(), KEY, opts).expect("create");
    // 100 writes = 12 full epochs (96 writes) + 4 unflushed: the crash
    // (dropping without shutdown) loses exactly the open epoch.
    run_workload(&mut mem, 100);
    assert_eq!(mem.log().unflushed_writes(), 4);
    drop(mem);

    // Rebuild the reference device state at the epoch boundary (write 96):
    // the epoch is the atomic unit of loss for data + metadata alike.
    let mut reference = DeWrite::new(config(), DeWriteConfig::paper(), KEY);
    let mut shadow = HashMap::new();
    for i in 0..96 {
        let (addr, data) = content(i);
        reference.write(addr, &data, i * 600).expect("write");
        shadow.insert(addr.index(), data);
    }
    let (_, device) = reference.power_off();

    let (mut recovered, stats) =
        DeWrite::recover(&dir, config(), DeWriteConfig::paper(), KEY, device).expect("recover");
    assert_eq!(stats.writes_covered, 96, "recovers to the epoch boundary");
    let mut t = 1_000_000;
    for (&addr, expect) in &shadow {
        let got = recovered.read(LineAddr::new(addr), t).expect("read").data;
        assert_eq!(&got, expect, "line {addr}");
        t += 500;
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_rejects_mismatched_configuration() {
    let dir = tmpdir("fpmismatch");
    let opts = DurableOptions {
        sync: false,
        ..DurableOptions::default()
    };
    let mut mem =
        DurableDeWrite::create(&dir, config(), DeWriteConfig::paper(), KEY, opts).expect("create");
    run_workload(&mut mem, 50);
    let inner = mem.shutdown().expect("shutdown");
    let (_, device) = inner.power_off();

    let mut other = DeWriteConfig::paper();
    other.dedup_domains = 2;
    let err = DeWrite::recover(&dir, config(), other, KEY, device).expect_err("fingerprint");
    assert!(
        matches!(err, PersistError::ConfigMismatch(_)),
        "expected ConfigMismatch, got {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_without_any_state_is_corrupt() {
    let dir = tmpdir("empty");
    fs::create_dir_all(&dir).unwrap();
    let cfg = config();
    let device = dewrite_nvm::NvmDevice::new(cfg.nvm.clone()).unwrap();
    let err = DeWrite::recover(&dir, cfg, DeWriteConfig::paper(), KEY, device)
        .expect_err("no checkpoint");
    assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Property tests: codec round-trips and corruption behavior.
// ---------------------------------------------------------------------------

fn arb_op() -> impl Strategy<Value = dewrite_core::MetaOp> {
    use dewrite_core::MetaOp;
    prop_oneof![
        (0u64..1024, 0u64..1024).prop_map(|(init, real)| MetaOp::MapSet { init, real }),
        (0u64..1024, any::<u64>()).prop_map(|(real, digest)| MetaOp::ResidentSet { real, digest }),
        (0u64..1024).prop_map(|real| MetaOp::ResidentDel { real }),
        (0u64..1024, any::<u32>()).prop_map(|(line, value)| MetaOp::CounterSet { line, value }),
    ]
}

fn arb_records() -> impl Strategy<Value = Vec<WalRecord>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 0..12), 1..6).prop_map(
        |op_sets| {
            let mut writes = 0u64;
            op_sets
                .into_iter()
                .map(|ops| {
                    let base = writes;
                    writes += 1 + ops.len() as u64 % 7;
                    WalRecord {
                        base_writes: base,
                        writes_covered: writes,
                        ops,
                    }
                })
                .collect()
        },
    )
}

fn encode_segment(records: &[WalRecord], fp: u64) -> Vec<u8> {
    let mut bytes = encode_wal_header(fp).to_vec();
    for r in records {
        bytes.extend_from_slice(&encode_record(r));
    }
    bytes
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        any::<u64>(),
        proptest::collection::vec((0u64..64, 0u64..64), 0..10),
        proptest::collection::vec((0u64..64, any::<u64>()), 0..10),
        proptest::collection::vec((0u64..64, any::<u32>()), 0..10),
    )
        .prop_map(|(config_fp, mut mappings, mut residents, mut counters)| {
            mappings.sort_unstable();
            mappings.dedup_by_key(|e| e.0);
            residents.sort_unstable();
            residents.dedup_by_key(|e| e.0);
            counters.sort_unstable();
            counters.dedup_by_key(|e| e.0);
            Snapshot {
                config_fp,
                lines: 64,
                mappings,
                residents,
                counters,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wal_roundtrip_and_truncation_at_every_offset(records in arb_records(), fp in any::<u64>()) {
        let bytes = encode_segment(&records, fp);
        let full = decode_wal(&bytes, fp).expect("decode");
        prop_assert_eq!(&full.records, &records);
        prop_assert_eq!(full.tail, WalTail::Clean);

        // Every truncation decodes to an exact prefix, never panics, never
        // invents or alters a record.
        for cut in 0..bytes.len() {
            let d = decode_wal(&bytes[..cut], fp).expect("truncation is torn, not an error");
            prop_assert!(d.records.len() <= records.len());
            for (got, want) in d.records.iter().zip(&records) {
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn wal_single_bit_flips_never_misdecode(
        records in arb_records(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let fp = 99u64;
        let bytes = encode_segment(&records, fp);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        // Either a hard error (header fingerprint area) or a torn decode
        // whose records are a verbatim prefix — never different records.
        if let Ok(d) = decode_wal(&corrupt, fp) {
            prop_assert!(d.records.len() <= records.len());
            for (got, want) in d.records.iter().zip(&records) {
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn epoch_log_streams_the_bytes_encode_record_builds(
        writes in proptest::collection::vec(proptest::collection::vec(arb_op(), 0..6), 1..40),
        epoch_writes in 1u32..12,
        fp in any::<u64>(),
    ) {
        // The log encodes ops as they arrive; what lands in the segment
        // must be what `encode_record` builds from each epoch's op list.
        let dir = tmpdir("stream");
        let opts = DurableOptions { epoch_writes, checkpoint_epochs: u32::MAX, sync: false };
        let mut log = EpochLog::create(&dir, fp, &Snapshot::empty(64, fp), opts).expect("create");
        for ops in &writes {
            let due = log.record_write(ops.iter().copied()).expect("journal");
            prop_assert!(!due);
        }
        log.flush().expect("flush");

        let mut records = Vec::new();
        for epoch in writes.chunks(epoch_writes as usize) {
            let base = records.last().map_or(0, |r: &WalRecord| r.writes_covered);
            records.push(WalRecord {
                base_writes: base,
                writes_covered: base + epoch.len() as u64,
                ops: epoch.concat(),
            });
        }
        let expect = encode_segment(&records, fp);
        let on_disk = fs::read(dir.join("wal-00000000.log")).expect("read segment");
        prop_assert_eq!(&on_disk, &expect);
        let stats = log.stats();
        prop_assert_eq!(stats.epochs, records.len() as u64);
        prop_assert_eq!(stats.wal_bytes, expect.len() as u64);
        prop_assert_eq!(stats.segment_bytes, expect.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_roundtrip_and_corruption(snap in arb_snapshot(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).expect("encode");
        let decoded = Snapshot::read_from(bytes.as_slice()).expect("decode");
        prop_assert_eq!(&decoded, &snap);

        // Mid-stream truncation at every byte offset must error, not panic.
        for cut in 0..bytes.len() {
            prop_assert!(Snapshot::read_from(&bytes[..cut]).is_err());
        }
        // Any single-bit flip must be caught by the payload CRC.
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        prop_assert!(Snapshot::read_from(corrupt.as_slice()).is_err());
    }
}
