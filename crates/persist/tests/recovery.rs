//! Refusals of `recover_state` on shard stores it must not reinterpret,
//! plus proptest codec hardening (run on both `DEWRITE_PORTABLE` legs by
//! CI).

use std::fs;
use std::path::PathBuf;

use dewrite_core::Snapshot;
use dewrite_engine::{DigestMode, ShardController};
use dewrite_nvm::LineAddr;
use dewrite_persist::{
    decode_wal, encode_record, encode_wal_header, recover_state, DurableOptions, EpochLog,
    PersistError, WalRecord, WalTail,
};
use proptest::prelude::*;

const KEY: &[u8; 16] = b"persist test key";
const MAX_LINES: u64 = 1 << 20;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dewrite-recovery-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Fingerprint of shard `id` of 2 over `slots` slots of 256 B lines.
fn fingerprint(id: usize, slots: u64) -> u64 {
    ShardController::persist_fingerprint(id, 2, slots, 256, DigestMode::Crc32Verify)
}

#[test]
fn recover_rejects_mismatched_configuration() {
    let dir = tmpdir("fpmismatch");
    let opts = DurableOptions {
        sync: false,
        ..DurableOptions::default()
    };
    let mut shard = ShardController::new(1, 2, 128, 256, KEY);
    shard.attach_persistence(&dir, opts).expect("attach");
    for i in 0..50u64 {
        let data: Vec<u8> = (0..256u64).map(|j| (i % 6 + j / 16) as u8).collect();
        shard.write(LineAddr::new((i * 7 + i / 5) % 64 * 2 + 1), &data, 0);
    }
    shard.persist_shutdown().expect("shutdown");
    let own = fingerprint(1, 128);

    // Another shard's store (other id, or other slot count) is refused
    // whole. Then again with every WAL segment gone, as a crash between
    // writing a checkpoint and opening its segment can leave it: the
    // checkpoint's own fingerprint must refuse it.
    for wal in [true, false] {
        let (snapshot, _) = recover_state(&dir, own, MAX_LINES).expect("own fingerprint");
        assert_eq!(snapshot, shard.snapshot(), "wal {wal}: own store recovers");
        for (id, slots) in [(0, 128), (1, 256)] {
            let err = recover_state(&dir, fingerprint(id, slots), MAX_LINES)
                .expect_err("foreign fingerprint");
            assert!(
                matches!(err, PersistError::ConfigMismatch(_)),
                "wal {wal}, shard {id} over {slots} slots: expected ConfigMismatch, got {err}"
            );
        }
        for entry in fs::read_dir(&dir).expect("read store dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|ext| ext == "log") {
                fs::remove_file(path).expect("remove segment");
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_without_any_state_is_corrupt() {
    let dir = tmpdir("empty");
    fs::create_dir_all(&dir).unwrap();
    let err = recover_state(&dir, fingerprint(1, 128), MAX_LINES).expect_err("no checkpoint");
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
