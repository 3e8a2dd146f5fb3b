//! When automatic checkpoints happen: no sooner than every
//! `checkpoint_epochs` epochs, and only once the active WAL segment has
//! outgrown the image it is paired with. Read from a `ShardController`'s
//! `persist_stats`, the log's own byte counts (run on both
//! `DEWRITE_PORTABLE` legs by CI).

use std::fs;
use std::path::{Path, PathBuf};

use dewrite_engine::ShardController;
use dewrite_nvm::LineAddr;
use dewrite_persist::{DurableOptions, WAL_HEADER_BYTES};

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

/// A single-shard controller over `slots` slots, persisting to `dir`.
fn durable_shard(dir: &Path, slots: u64, opts: DurableOptions) -> ShardController {
    let mut shard = ShardController::new(0, 1, slots, 256, KEY);
    shard.attach_persistence(dir, opts).expect("attach");
    shard
}

/// Sequence number of the newest checkpoint file in `dir`.
fn newest_checkpoint_seq(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|entry| {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_string_lossy();
            name.strip_prefix("ckpt-")?
                .strip_suffix(".dwck")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .expect("a checkpoint")
}

#[test]
fn checkpoint_bytes_stay_within_twice_the_wal() {
    const SLOTS: u64 = 1 << 15;
    const WRITES: u64 = 50_000;
    let dir = tmpdir("amplification");
    let opts = DurableOptions {
        epoch_writes: 16,
        checkpoint_epochs: 8,
        sync: false,
    };
    let mut shard = durable_shard(&dir, SLOTS, opts);
    let initial = shard.persist_stats().expect("attached");
    let first_image = initial.image_bytes;
    assert_eq!(initial.checkpoint_bytes, first_image);

    // 20k addresses and 6k contents: the image grows to hundreds of KB,
    // far above 8 epochs of WAL, then stops growing while writes go on.
    let mut automatic = 0u64;
    for i in 0..WRITES {
        let before = shard.persist_stats().expect("attached");
        let addr = LineAddr::new(i.wrapping_mul(7919) % 20_000);
        shard.write(addr, &line(i % 6_000), 0);
        let after = shard.persist_stats().expect("attached");
        if after.checkpoints > before.checkpoints {
            // The segment as it stood when the checkpoint fell due: the
            // one before this write plus the epoch record it appended (the
            // rotation then wrote a fresh segment header).
            let appended = after.wal_bytes - before.wal_bytes - WAL_HEADER_BYTES as u64;
            let due_segment = before.segment_bytes + appended;
            assert!(
                due_segment >= before.image_bytes,
                "write {i}: checkpoint due with a {due_segment} B segment behind a {} B image",
                before.image_bytes
            );
            automatic += 1;
            assert_eq!(after.checkpoints, automatic + 1);
            assert!(
                after.image_bytes <= 2 * due_segment,
                "write {i}: a {} B image follows a {due_segment} B segment",
                after.image_bytes
            );
        }
    }
    shard.flush_wal().expect("flush");

    let stats = shard.persist_stats().expect("attached");
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
    let mut shard = durable_shard(&dir, 512, opts);
    // 24 addresses, 6 contents: the image (under 0.6 KB) never reaches 4
    // epochs of WAL (over 1.1 KB), so the minimum spacing is the cadence.
    let mut landed = Vec::new();
    for i in 0..1000u64 {
        let addr = LineAddr::new((i * 7 + i / 5) % 24);
        shard.write(addr, &line(i % 6), 0);
        let seq = newest_checkpoint_seq(&dir);
        if seq as usize > landed.len() {
            landed.push(i + 1);
        }
        let stats = shard.persist_stats().expect("attached");
        assert_eq!(stats.checkpoints, seq + 1);
    }
    let every_64: Vec<u64> = (1..=15).map(|k| k * 64).collect();
    assert_eq!(landed, every_64);

    // An explicit checkpoint is unconditional, however short the segment.
    shard.persist_checkpoint().expect("checkpoint");
    shard.write(LineAddr::new(1), &line(1), 0);
    let before = shard.persist_stats().expect("attached");
    assert!(before.segment_bytes < before.image_bytes);
    shard.persist_checkpoint().expect("checkpoint");
    assert_eq!(
        shard.persist_stats().expect("attached").checkpoints,
        before.checkpoints + 1
    );
    fs::remove_dir_all(&dir).unwrap();
}
