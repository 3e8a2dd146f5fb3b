//! When automatic checkpoints happen: no sooner than every
//! `checkpoint_epochs` epochs, and only once the active WAL segment has
//! outgrown the image it is paired with. Read from `EpochLog::stats`, the
//! log's own byte counts (run on both `DEWRITE_PORTABLE` legs by CI).

use std::fs;
use std::path::PathBuf;

use dewrite_core::{DeWrite, DeWriteConfig, SecureMemory, SystemConfig};
use dewrite_nvm::LineAddr;
use dewrite_persist::{DurableDeWrite, DurableOptions, EpochLog};

const KEY: &[u8; 16] = b"cadence test key";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dewrite-cadence-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A line whose content is a function of `tag` alone.
fn line(tag: u64) -> Vec<u8> {
    (0..256u64)
        .map(|j| (tag.wrapping_mul(0x9e37_79b9).wrapping_add(j / 8) >> (j % 3)) as u8)
        .collect()
}

#[test]
fn checkpoint_bytes_stay_within_twice_the_wal() {
    const LINES: u64 = 1 << 15;
    const WRITES: u64 = 50_000;
    let dir = tmpdir("amplification");
    let opts = DurableOptions {
        epoch_writes: 16,
        checkpoint_epochs: 8,
        sync: false,
    };
    let dw = DeWriteConfig::paper();
    let mut mem = DeWrite::new(SystemConfig::for_lines(LINES), dw, KEY);
    mem.set_meta_journal(true);
    let mut log = EpochLog::create(&dir, dw.fingerprint(), &mem.snapshot(), opts).expect("create");
    let first_image = log.stats().image_bytes;
    assert_eq!(log.stats().checkpoint_bytes, first_image);

    // 20k addresses and 6k contents: the image grows to hundreds of KB,
    // far above 8 epochs of WAL, then stops growing while writes go on.
    let mut automatic = 0u64;
    for i in 0..WRITES {
        let addr = LineAddr::new(i.wrapping_mul(7919) % 20_000);
        mem.write(addr, &line(i % 6_000), i * 600).expect("write");
        if log.record_write(mem.drain_meta_ops()).expect("journal") {
            let due = log.stats();
            assert!(
                due.segment_bytes >= due.image_bytes,
                "write {i}: checkpoint due with a {} B segment behind a {} B image",
                due.segment_bytes,
                due.image_bytes
            );
            log.checkpoint(&mem.snapshot()).expect("checkpoint");
            automatic += 1;
            let after = log.stats();
            assert_eq!(after.checkpoints, automatic + 1);
            assert!(
                after.image_bytes <= 2 * due.segment_bytes,
                "write {i}: a {} B image follows a {} B segment",
                after.image_bytes,
                due.segment_bytes
            );
        }
    }
    log.flush().expect("flush");

    let stats = log.stats();
    assert_eq!(stats.epochs, WRITES / 16);
    assert!(
        stats.image_bytes > 16 * 8 * 64,
        "the state must outgrow the minimum spacing for the rule to bind"
    );
    assert!(
        stats.checkpoint_bytes <= 2 * stats.wal_bytes + first_image,
        "{} B of checkpoints for {} B of WAL",
        stats.checkpoint_bytes,
        stats.wal_bytes
    );
    // Every 8 epochs would have been 390 checkpoints.
    assert!(
        (3..40).contains(&automatic),
        "{automatic} automatic checkpoints"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn small_store_checkpoints_every_checkpoint_epochs() {
    let dir = tmpdir("small");
    let opts = DurableOptions {
        epoch_writes: 16,
        checkpoint_epochs: 4,
        sync: false,
    };
    let mut mem = DurableDeWrite::create(
        &dir,
        SystemConfig::for_lines(512),
        DeWriteConfig::paper(),
        KEY,
        opts,
    )
    .expect("create");
    // 24 addresses, 6 contents: the image (under 0.6 KB) never reaches 4
    // epochs of WAL (over 1.1 KB), so the minimum spacing is the cadence.
    let mut landed = Vec::new();
    for i in 0..1000u64 {
        let addr = LineAddr::new((i * 7 + i / 5) % 24);
        mem.write(addr, &line(i % 6), i * 600).expect("write");
        if mem.log().store().seq() as usize > landed.len() {
            landed.push(i + 1);
        }
        let stats = mem.log().stats();
        assert_eq!(stats.checkpoints, mem.log().store().seq() + 1);
    }
    let every_64: Vec<u64> = (1..=15).map(|k| k * 64).collect();
    assert_eq!(landed, every_64);

    // An explicit checkpoint is unconditional, however short the segment.
    mem.checkpoint().expect("checkpoint");
    mem.write(LineAddr::new(1), &line(1), 700_000)
        .expect("write");
    let before = mem.log().stats();
    assert!(before.segment_bytes < before.image_bytes);
    mem.checkpoint().expect("checkpoint");
    assert_eq!(mem.log().stats().checkpoints, before.checkpoints + 1);
    fs::remove_dir_all(&dir).unwrap();
}
