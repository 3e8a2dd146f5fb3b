//! Kill-at-random-point recovery torture: run a durable workload, crash it,
//! then sweep faults over the on-disk metadata store — truncations at and
//! around every record boundary, single-bit flips in record headers,
//! payloads, and file headers, and corrupted checkpoints — and prove that
//! every survivable fault recovers *exactly* to an epoch boundary whose
//! lines all verify against a deterministic shadow replay, while every
//! unsurvivable fault is rejected as corrupt (never silently mis-recovered).
//!
//! Two further cases cover what the checkpoint trigger made possible: a
//! WAL segment as long as the checkpoint image it follows, killed at
//! random byte offsets, and a torn newest checkpoint behind such a segment.
//!
//! Writes a machine-readable sweep summary to `$TORTURE_OUT` (default
//! `target/torture_summary.json`) for the CI artifact.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

use dewrite::core::{DeWrite, DeWriteConfig, Json, SecureMemory, SystemConfig};
use dewrite::nvm::LineAddr;
use dewrite::persist::{
    apply_fault, decode_wal, encode_record, recover_state, DurableDeWrite, DurableOptions, Fault,
    PersistError, PersistStats, RecoverDeWrite, RecoveryStats, WAL_HEADER_BYTES,
};
use dewrite::trace::{app_by_name, shard_of_line, TraceOp};
use dewrite_engine::{EngineConfig, ShardController};
use dewrite_net::proto::{Hello, NET_VERSION};
use dewrite_net::{Control, NetServer, ServeOptions};

const KEY: &[u8; 16] = b"torture test key";
const LINES: u64 = 512;
const WRITES: u64 = 600;
const EPOCH: u32 = 16;

fn config() -> SystemConfig {
    SystemConfig::for_lines(LINES)
}

/// Deterministic line content for write `i`: a 96-line address space and a
/// 7-tag content pool, so the workload remaps, deduplicates, and frees.
fn content(i: u64) -> (LineAddr, Vec<u8>) {
    let addr = LineAddr::new((i * 11 + i / 7) % 96);
    let tag = (i % 7) as u8;
    let data: Vec<u8> = (0..256).map(|j| tag.wrapping_add((j / 16) as u8)).collect();
    (addr, data)
}

/// Run the durable workload and crash it (drop without shutdown), leaving
/// the open epoch unflushed. Returns the store directory.
fn build_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dewrite-torture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        epoch_writes: EPOCH,
        checkpoint_epochs: 8,
        sync: false,
    };
    let mut mem =
        DurableDeWrite::create(&dir, config(), DeWriteConfig::paper(), KEY, opts).expect("create");
    for i in 0..WRITES {
        let (addr, data) = content(i);
        mem.write(addr, &data, i * 600).expect("write");
    }
    drop(mem); // crash: the open epoch is lost
    dir
}

/// Store files with the given prefix/extension, ascending by sequence.
fn seq_files(dir: &Path, prefix: &str, ext: &str) -> Vec<(u64, String)> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).expect("read store dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(stem) = name.strip_prefix(prefix).and_then(|s| s.strip_suffix(ext)) {
            if let Ok(seq) = stem.parse::<u64>() {
                found.push((seq, name));
            }
        }
    }
    found.sort_unstable();
    found
}

/// Copy every store file into a fresh scratch directory.
fn clone_store(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).expect("scratch dir");
    for entry in fs::read_dir(src).expect("read store dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

/// What a fault case must do.
enum Expect {
    /// Recovery succeeds, covering exactly `writes` data writes, with the
    /// given torn-tail verdict and (optionally) skipped-checkpoint count.
    Recover {
        writes: u64,
        torn: bool,
        skipped: Option<u64>,
    },
    /// Recovery must reject the store as corrupt.
    Reject,
}

struct Case {
    label: String,
    /// (file name, fault) pairs applied to the cloned store.
    faults: Vec<(String, Fault)>,
    expect: Expect,
}

/// Rebuild the reference controller state at write boundary `w` by
/// deterministic replay, returning it plus the shadow map of its lines.
fn reference_at(w: u64) -> (DeWrite, HashMap<u64, Vec<u8>>) {
    let mut mem = DeWrite::new(config(), DeWriteConfig::paper(), KEY);
    let mut shadow = HashMap::new();
    for i in 0..w {
        let (addr, data) = content(i);
        mem.write(addr, &data, i * 600).expect("write");
        shadow.insert(addr.index(), data);
    }
    (mem, shadow)
}

/// Run one fault case against a clone of `store` and panic on any deviation
/// from its expectation. Returns the stats (successful cases) for the
/// summary.
fn run_case(store: &Path, scratch: &Path, case: &Case) -> Option<RecoveryStats> {
    clone_store(store, scratch);
    for (file, fault) in &case.faults {
        let path = scratch.join(file);
        let mut bytes = fs::read(&path).expect("read faulted file");
        apply_fault(&mut bytes, *fault);
        fs::write(&path, &bytes).expect("write faulted file");
    }
    match &case.expect {
        Expect::Reject => {
            let device = dewrite::nvm::NvmDevice::new(config().nvm.clone()).expect("device");
            let err = DeWrite::recover(scratch, config(), DeWriteConfig::paper(), KEY, device)
                .err()
                .unwrap_or_else(|| panic!("{}: must be rejected, but recovered", case.label));
            assert!(
                matches!(err, PersistError::Corrupt(_)),
                "{}: expected Corrupt, got {err}",
                case.label
            );
            None
        }
        Expect::Recover {
            writes,
            torn,
            skipped,
        } => {
            // The epoch is the atomic unit of loss for data and metadata
            // alike: rebuild the device as it stood at the boundary.
            let (reference, shadow) = reference_at(*writes);
            let (ref_snapshot, device) = reference.power_off();
            let (mut recovered, stats) =
                DeWrite::recover(scratch, config(), DeWriteConfig::paper(), KEY, device)
                    .unwrap_or_else(|e| panic!("{}: recovery failed: {e}", case.label));
            assert_eq!(
                stats.writes_covered, *writes,
                "{}: recovered to the wrong boundary",
                case.label
            );
            assert_eq!(stats.torn_tail, *torn, "{}: torn-tail verdict", case.label);
            if let Some(skip) = skipped {
                assert_eq!(
                    stats.checkpoints_skipped, *skip,
                    "{}: checkpoints skipped",
                    case.label
                );
            }
            assert_eq!(
                recovered.snapshot(),
                ref_snapshot,
                "{}: recovered metadata differs from the replayed reference",
                case.label
            );
            let mut t = 1_000_000_000;
            for (&addr, expect) in &shadow {
                let got = recovered.read(LineAddr::new(addr), t).expect("read").data;
                assert_eq!(&got, expect, "{}: line {addr} corrupted", case.label);
                t += 500;
            }
            recovered
                .index()
                .check_invariants()
                .unwrap_or_else(|e| panic!("{}: invariants: {e}", case.label));
            Some(stats)
        }
    }
}

#[test]
fn torture_sweep_over_tear_points_and_bit_flips() {
    let store = build_store("sweep");
    let fp = DeWriteConfig::paper().fingerprint();

    let ckpts = seq_files(&store, "ckpt-", ".dwck");
    let wals = seq_files(&store, "wal-", ".log");
    assert!(ckpts.len() >= 2, "rotation must retain a fallback pair");
    assert_eq!(ckpts.len(), wals.len());
    let (_, newest_wal) = wals.last().expect("a wal segment").clone();
    let (_, older_wal) = wals[wals.len() - 2].clone();
    let (_, newest_ckpt) = ckpts.last().expect("a checkpoint").clone();
    let (_, older_ckpt) = ckpts[ckpts.len() - 2].clone();

    // Decode the pristine newest segment once to learn its record layout:
    // `ends[k]` is the byte offset right after record k, and `covered[k]`
    // the cumulative write count it reaches. The encoding is deterministic,
    // so re-encoding each record reproduces its on-disk extent.
    let wal_bytes = fs::read(store.join(&newest_wal)).expect("read newest wal");
    let decoded = decode_wal(&wal_bytes, fp).expect("pristine decode");
    let base_writes = decoded
        .records
        .first()
        .map(|r| r.base_writes)
        .expect("crashed run leaves records in the newest segment");
    let mut ends = Vec::new();
    let mut covered = Vec::new();
    let mut off = WAL_HEADER_BYTES;
    for rec in &decoded.records {
        off += encode_record(rec).len();
        ends.push(off);
        covered.push(rec.writes_covered);
    }
    assert_eq!(off, wal_bytes.len(), "crashed mid-epoch: no partial record");
    let flushed = *covered.last().expect("records");
    assert_eq!(flushed, WRITES - WRITES % u64::from(EPOCH));

    // Largest boundary a truncation at `cut` still covers.
    let covered_at = |cut: usize| -> u64 {
        ends.iter()
            .zip(&covered)
            .filter(|&(&e, _)| e <= cut)
            .map(|(_, &w)| w)
            .max()
            .unwrap_or(base_writes)
    };
    let is_boundary = |cut: usize| cut == WAL_HEADER_BYTES || ends.contains(&cut);

    let mut cases: Vec<Case> = Vec::new();
    cases.push(Case {
        label: "pristine (crash only)".into(),
        faults: vec![],
        expect: Expect::Recover {
            writes: flushed,
            torn: false,
            skipped: Some(0),
        },
    });

    // Truncations: around every record boundary, through the file header,
    // and on a coarse stride across the whole segment.
    let mut cuts: BTreeSet<usize> = [0usize, 5, WAL_HEADER_BYTES - 1, WAL_HEADER_BYTES]
        .into_iter()
        .collect();
    for &e in &ends {
        cuts.extend([e - 1, e, (e + 1).min(wal_bytes.len())]);
    }
    cuts.extend((WAL_HEADER_BYTES..wal_bytes.len()).step_by(97));
    for cut in cuts {
        cases.push(Case {
            label: format!("truncate newest wal at {cut}"),
            faults: vec![(newest_wal.clone(), Fault::Truncate { at: cut as u64 })],
            expect: Expect::Recover {
                writes: covered_at(cut),
                torn: !(cut == wal_bytes.len() || is_boundary(cut)),
                skipped: Some(0),
            },
        });
    }

    // Bit flips inside each record: length field, checksum field, payload.
    // The flipped record and everything after it must be discarded as torn.
    let mut start = WAL_HEADER_BYTES;
    for (k, &end) in ends.iter().enumerate() {
        let before = if k == 0 { base_writes } else { covered[k - 1] };
        for (name, at, bit) in [
            ("len", start, 3u8),
            ("crc", start + 4, 1),
            ("payload", start + 8 + (end - start - 8) / 2, 6),
        ] {
            cases.push(Case {
                label: format!("flip {name} bit of record {k}"),
                faults: vec![(newest_wal.clone(), Fault::BitFlip { at: at as u64, bit })],
                expect: Expect::Recover {
                    writes: before,
                    torn: true,
                    skipped: Some(0),
                },
            });
        }
        start = end;
    }

    // File-header damage: a garbled magic or fingerprint region makes the
    // whole segment torn-empty (recover from the checkpoint alone); a
    // *valid* header announcing an unknown version is a hard reject.
    for (label, at) in [("magic", 0u64), ("header crc", 6), ("fingerprint", 12)] {
        cases.push(Case {
            label: format!("flip wal {label} byte"),
            faults: vec![(newest_wal.clone(), Fault::BitFlip { at, bit: 0 })],
            expect: Expect::Recover {
                writes: base_writes,
                torn: true,
                skipped: Some(0),
            },
        });
    }
    cases.push(Case {
        label: "flip wal version byte".into(),
        faults: vec![(newest_wal.clone(), Fault::BitFlip { at: 4, bit: 0 })],
        expect: Expect::Reject,
    });

    // Torn newest checkpoint: recovery falls back to the retained older
    // pair and replays both segments back to the same boundary.
    cases.push(Case {
        label: "corrupt newest checkpoint".into(),
        faults: vec![(newest_ckpt.clone(), Fault::BitFlip { at: 40, bit: 2 })],
        expect: Expect::Recover {
            writes: flushed,
            torn: false,
            skipped: Some(1),
        },
    });
    // Every checkpoint corrupt: nothing to anchor on.
    cases.push(Case {
        label: "corrupt every checkpoint".into(),
        faults: vec![
            (newest_ckpt.clone(), Fault::BitFlip { at: 40, bit: 2 }),
            (older_ckpt.clone(), Fault::BitFlip { at: 40, bit: 2 }),
        ],
        expect: Expect::Reject,
    });
    // Mid-chain tear: the older segment is cut mid-record while the newest
    // checkpoint is also gone, so the newest segment's records no longer
    // chain onto the recovered write count — a gap, not a silent skip.
    let older_len = fs::metadata(store.join(&older_wal))
        .expect("older wal")
        .len();
    cases.push(Case {
        label: "gap: torn older wal behind a dead checkpoint".into(),
        faults: vec![
            (newest_ckpt.clone(), Fault::BitFlip { at: 40, bit: 2 }),
            (older_wal.clone(), Fault::Truncate { at: older_len - 10 }),
        ],
        expect: Expect::Reject,
    });

    // Sweep.
    let scratch =
        std::env::temp_dir().join(format!("dewrite-torture-scratch-{}", std::process::id()));
    let mut recovered = 0u64;
    let mut rejected = 0u64;
    let mut torn_seen = 0u64;
    let mut boundaries: BTreeSet<u64> = BTreeSet::new();
    let mut case_objs: Vec<Json> = Vec::new();
    for case in &cases {
        let stats = run_case(&store, &scratch, case);
        let mut fields = vec![("label".to_string(), Json::Str(case.label.clone()))];
        match stats {
            Some(s) => {
                recovered += 1;
                torn_seen += u64::from(s.torn_tail);
                boundaries.insert(s.writes_covered);
                fields.push(("outcome".into(), Json::Str("recovered".into())));
                fields.push(("stats".into(), s.to_json()));
            }
            None => {
                rejected += 1;
                fields.push(("outcome".into(), Json::Str("rejected".into())));
            }
        }
        case_objs.push(Json::Obj(fields));
    }
    let _ = fs::remove_dir_all(&scratch);
    let _ = fs::remove_dir_all(&store);

    assert!(cases.len() >= 40, "sweep too small: {} cases", cases.len());
    assert!(torn_seen > 0 && rejected >= 3 && boundaries.len() >= 3);
    // Every recovered boundary is a flushed epoch edge (multiple of the
    // epoch size, or the checkpoint base).
    for &b in &boundaries {
        assert!(
            b % u64::from(EPOCH) == 0,
            "recovered to a non-epoch boundary {b}"
        );
    }

    let summary = Json::Obj(vec![
        ("workload_writes".into(), Json::Num(WRITES as f64)),
        ("epoch_writes".into(), Json::Num(f64::from(EPOCH))),
        ("flushed_writes".into(), Json::Num(flushed as f64)),
        ("cases".into(), Json::Num(cases.len() as f64)),
        ("recovered".into(), Json::Num(recovered as f64)),
        ("rejected".into(), Json::Num(rejected as f64)),
        ("torn_tails_detected".into(), Json::Num(torn_seen as f64)),
        (
            "distinct_boundaries".into(),
            Json::Arr(boundaries.iter().map(|&b| Json::Num(b as f64)).collect()),
        ),
        ("case_results".into(), Json::Arr(case_objs)),
    ]);
    let out = std::env::var("TORTURE_OUT").unwrap_or_else(|_| {
        let _ = fs::create_dir_all("target");
        "target/torture_summary.json".into()
    });
    fs::write(&out, format!("{summary}\n")).expect("write torture summary");
    println!(
        "torture: {} cases, {recovered} recovered, {rejected} rejected -> {out}",
        cases.len()
    );
}

/// Network fault injection: kill a persisting `dewrite-serve` engine
/// mid-stream (hard abort — the process analogue of a power cut between
/// epoch flushes) while a socket client is replaying a trace, then
/// recover every shard's store and prove the epoch-boundary guarantee
/// holds end to end: no torn tail, a whole number of epochs covered, and
/// recovered metadata identical to a deterministic shadow replay of that
/// shard's applied prefix.
#[test]
fn socket_kill_mid_stream_recovers_every_shard_to_an_epoch_boundary() {
    const SHARDS: usize = 2;
    const NET_EPOCH: u32 = 8;

    // A trace big enough that the abort lands mid-replay.
    let mut profile = app_by_name("mcf").expect("mcf profile");
    profile.working_set_lines = 512;
    profile.content_pool_size = 64;
    let mut gen = dewrite::trace::TraceGenerator::new(profile, 256, 29);
    let lines = gen.required_lines();
    let mut records = gen.warmup_records();
    records.extend(gen.by_ref().take(20_000));
    let writes = records.iter().filter(|r| r.op.is_write()).count() as u64;

    let root = std::env::temp_dir().join(format!("dewrite-net-torture-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let server = NetServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards: SHARDS,
        threads: 2,
        persist_dir: Some(root.clone()),
        persist_epoch: NET_EPOCH,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();

    let hello = Hello {
        version: NET_VERSION,
        line_size: 256,
        lines,
        expected_writes: writes,
        cache_policy: 0,
        digest_mode: 0,
        app: "mcf".into(),
    };
    let (_control, info) = Control::connect(&addr, &hello).expect("control connect");
    let config = EngineConfig::for_workload(SHARDS, 256, lines, writes);
    assert_eq!(info.slots_per_shard, config.slots_per_shard);

    // Race the replay against the kill switch. The client is expected to
    // die with a socket error when the server hard-stops under it.
    let driver = {
        let addr = addr.clone();
        let hello = hello.clone();
        let records = records.clone();
        std::thread::spawn(move || {
            dewrite_net::drive(
                &dewrite_net::DriveOptions {
                    addr,
                    connections: 8,
                    window: 16,
                    threads: 2,
                    pacing: dewrite_net::Pacing::Closed,
                },
                &hello,
                &records,
            )
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(40));
    handle.abort();
    let outcome = server.join();
    assert!(outcome.aborted, "hard abort must be reported");
    assert!(outcome.run.is_none(), "an aborted engine yields no run");
    let _ = driver.join().expect("driver thread");

    // Recover each shard's store. The abort discarded only the open
    // epoch: what is on disk is flushed epochs, so there is never a torn
    // tail and the covered count is a whole number of epochs.
    let max_lines = lines + config.slots_per_shard * 2 + 16;
    let mut total_covered = 0u64;
    for id in 0..SHARDS {
        let shard_dir = root.join(format!("gen-0000/shard-{id:02}"));
        let fp = ShardController::persist_fingerprint(
            id,
            SHARDS,
            config.slots_per_shard,
            256,
            dewrite_engine::DigestMode::Crc32Verify,
        );
        let (snap, stats) = dewrite::persist::recover_state(&shard_dir, fp, max_lines)
            .unwrap_or_else(|e| panic!("shard {id} store must recover: {e}"));
        assert!(!stats.torn_tail, "shard {id}: abort never tears the WAL");
        assert_eq!(
            stats.writes_covered % u64::from(NET_EPOCH),
            0,
            "shard {id}: covered {} writes — not an epoch boundary",
            stats.writes_covered
        );
        total_covered += stats.writes_covered;

        // Shadow replay: the shard's trace subsequence is deterministic
        // (that is the whole point of the in-band sequence numbers), so
        // feeding its first `writes_covered` writes into a fresh
        // controller must land exactly on the recovered state.
        let mut reference =
            ShardController::new(id, SHARDS, config.slots_per_shard, 256, &config.key);
        let mut fed = 0u64;
        for rec in &records {
            if fed == stats.writes_covered {
                break;
            }
            if shard_of_line(rec.op.addr(), SHARDS) != id {
                continue;
            }
            if let TraceOp::Write { addr, data } = &rec.op {
                reference.write(*addr, data, rec.gap_instructions);
                fed += 1;
            }
        }
        assert_eq!(
            fed, stats.writes_covered,
            "shard {id}: trace ran out before the covered prefix"
        );
        assert_eq!(
            snap,
            reference.snapshot(),
            "shard {id}: recovered metadata differs from the shadow replay"
        );
    }
    println!(
        "net torture: abort covered {total_covered} writes across {SHARDS} shards \
         (epoch {NET_EPOCH})"
    );
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Long segments: a checkpoint is taken only once the WAL segment has
// outgrown the image, so a segment holds hundreds of epochs, not eight.
// ---------------------------------------------------------------------------

const LONG_SLOTS: u64 = 1 << 14;
const LONG_EPOCH: u32 = 16;

fn long_fingerprint() -> u64 {
    ShardController::persist_fingerprint(
        0,
        1,
        LONG_SLOTS,
        256,
        dewrite_engine::DigestMode::Crc32Verify,
    )
}

fn long_shard() -> ShardController {
    ShardController::new(0, 1, LONG_SLOTS, 256, KEY)
}

/// Write `i` of the long workload: 6000 addresses over a 3000-content
/// pool, so the image settles near 200 KB while writes keep remapping,
/// deduplicating and freeing.
fn long_write(shard: &mut ShardController, i: u64) {
    let addr = LineAddr::new(i.wrapping_mul(7919) % 6_000);
    let tag = i.wrapping_mul(31) % 3_000;
    let data: Vec<u8> = (0..256u64).map(|j| (tag >> (8 * (j % 2))) as u8).collect();
    shard.write(addr, &data, 0);
}

/// A crashed shard store whose newest segment is nearly as long as its
/// image, behind an older pair whose segment outgrew its own.
struct LongStore {
    dir: PathBuf,
    /// The log's counters at the crash.
    at_crash: PersistStats,
    /// Bytes of the image the *older* segment is paired with.
    older_image_bytes: u64,
}

fn build_long_store(tag: &str) -> LongStore {
    let dir =
        std::env::temp_dir().join(format!("dewrite-torture-long-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut shard = long_shard();
    let opts = DurableOptions {
        epoch_writes: LONG_EPOCH,
        checkpoint_epochs: 8,
        sync: false,
    };
    shard.attach_persistence(&dir, opts).expect("attach");
    let mut stats = shard.persist_stats().expect("attached");
    let mut older_image_bytes = 0;
    for i in 0.. {
        assert!(
            i < 200_000,
            "the long workload never reached a long segment"
        );
        long_write(&mut shard, i);
        let now = shard.persist_stats().expect("attached");
        if now.checkpoints > stats.checkpoints {
            older_image_bytes = stats.image_bytes;
        }
        stats = now;
        // Stop three quarters of the way to the next checkpoint, three
        // writes into an epoch, once the image has stopped being small.
        if stats.image_bytes > 150_000
            && stats.segment_bytes * 4 >= stats.image_bytes * 3
            && i % u64::from(LONG_EPOCH) == 2
        {
            break;
        }
    }
    assert_eq!(shard.unflushed_wal_writes(), 3);
    drop(shard); // crash: the open epoch is lost
    LongStore {
        dir,
        at_crash: stats,
        older_image_bytes,
    }
}

/// `ends[k]` is the byte offset right after record k of the segment image
/// `wal`, `covered[k]` the write count it reaches.
fn record_layout(wal: &[u8], fp: u64) -> (Vec<usize>, Vec<u64>) {
    let decoded = decode_wal(wal, fp).expect("pristine decode");
    let mut ends = Vec::new();
    let mut covered = Vec::new();
    let mut off = WAL_HEADER_BYTES;
    for rec in &decoded.records {
        off += encode_record(rec).len();
        ends.push(off);
        covered.push(rec.writes_covered);
    }
    assert_eq!(off, wal.len(), "crashed mid-epoch: no partial record");
    (ends, covered)
}

#[test]
fn long_segment_kill_points_recover_to_epoch_boundaries() {
    let store = build_long_store("kill");
    let fp = long_fingerprint();
    let (_, newest_wal) = seq_files(&store.dir, "wal-", ".log")
        .pop()
        .expect("a wal segment");
    let wal_bytes = fs::read(store.dir.join(&newest_wal)).expect("read newest wal");
    assert_eq!(wal_bytes.len() as u64, store.at_crash.segment_bytes);
    let (ends, covered) = record_layout(&wal_bytes, fp);
    assert!(ends.len() >= 100, "only {} records", ends.len());
    let base_writes = covered[0] - u64::from(LONG_EPOCH);

    // Kill points: pseudo-random offsets across the segment, plus the
    // intact file. Ascending, so one reference shard can follow them.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut cuts: BTreeSet<usize> = (0..24)
        .map(|_| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            WAL_HEADER_BYTES + (rng >> 33) as usize % (wal_bytes.len() - WAL_HEADER_BYTES)
        })
        .collect();
    cuts.insert(wal_bytes.len());

    let scratch =
        std::env::temp_dir().join(format!("dewrite-torture-long-cut-{}", std::process::id()));
    let mut reference = long_shard();
    let mut fed = 0u64;
    let mut boundaries = BTreeSet::new();
    for cut in cuts {
        clone_store(&store.dir, &scratch);
        let path = scratch.join(&newest_wal);
        let mut bytes = fs::read(&path).expect("read faulted file");
        apply_fault(&mut bytes, Fault::Truncate { at: cut as u64 });
        fs::write(&path, &bytes).expect("write faulted file");

        let (snap, stats) = recover_state(&scratch, fp, 1 << 20)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let whole = ends.iter().take_while(|&&e| e <= cut).count();
        let expect = if whole == 0 {
            base_writes
        } else {
            covered[whole - 1]
        };
        assert_eq!(stats.writes_covered, expect, "cut {cut}: wrong boundary");
        assert_eq!(stats.writes_covered % u64::from(LONG_EPOCH), 0);
        assert_eq!(stats.records_replayed, whole as u64, "cut {cut}");
        let on_boundary = cut == WAL_HEADER_BYTES || ends.contains(&cut);
        assert_eq!(stats.torn_tail, !on_boundary, "cut {cut}: torn verdict");
        assert_eq!(stats.checkpoints_skipped, 0);

        while fed < stats.writes_covered {
            long_write(&mut reference, fed);
            fed += 1;
        }
        assert_eq!(
            snap,
            reference.snapshot(),
            "cut {cut}: recovered metadata differs from the shadow replay"
        );
        boundaries.insert(stats.writes_covered);
    }
    assert!(boundaries.len() >= 10, "kill points too clustered");
    let _ = fs::remove_dir_all(&scratch);
    let _ = fs::remove_dir_all(&store.dir);
}

#[test]
fn torn_checkpoint_after_long_segment_falls_back_and_replays_it() {
    let store = build_long_store("fallback");
    let fp = long_fingerprint();
    let wals = seq_files(&store.dir, "wal-", ".log");
    let ckpts = seq_files(&store.dir, "ckpt-", ".dwck");
    assert_eq!((wals.len(), ckpts.len()), (2, 2), "two pairs on disk");
    let (newest_seq, newest_ckpt) = ckpts[1].clone();

    // The older segment was rotated out only once it had outgrown the
    // image it followed; the newest is the crash's long tail.
    let older_wal = fs::read(store.dir.join(&wals[0].1)).expect("read older wal");
    assert!(older_wal.len() as u64 >= store.older_image_bytes);
    assert!(store.older_image_bytes > 50_000);
    let (older_ends, _) = record_layout(&older_wal, fp);
    let newest_wal = fs::read(store.dir.join(&wals[1].1)).expect("read newest wal");
    let (newest_ends, newest_covered) = record_layout(&newest_wal, fp);
    let flushed = *newest_covered.last().expect("records");

    let (pristine, stats) = recover_state(&store.dir, fp, 1 << 20).expect("pristine recovery");
    assert_eq!(stats.checkpoint_seq, newest_seq);
    assert_eq!(stats.records_replayed, newest_ends.len() as u64);
    assert_eq!(stats.writes_covered, flushed);

    let path = store.dir.join(&newest_ckpt);
    let mut bytes = fs::read(&path).expect("read newest checkpoint");
    apply_fault(&mut bytes, Fault::BitFlip { at: 40, bit: 2 });
    fs::write(&path, &bytes).expect("tear newest checkpoint");

    let (fallback, stats) = recover_state(&store.dir, fp, 1 << 20).expect("fallback recovery");
    assert_eq!(stats.checkpoints_skipped, 1);
    assert_eq!(stats.checkpoint_seq, newest_seq - 1);
    assert_eq!(stats.segments_scanned, 2);
    assert_eq!(
        stats.records_replayed,
        (older_ends.len() + newest_ends.len()) as u64,
        "the whole long segment is replayed, then the newest"
    );
    assert_eq!(stats.writes_covered, flushed);
    assert!(!stats.torn_tail);
    assert_eq!(fallback, pristine, "both routes reach the same state");

    let mut reference = long_shard();
    for i in 0..flushed {
        long_write(&mut reference, i);
    }
    assert_eq!(fallback, reference.snapshot());
    let _ = fs::remove_dir_all(&store.dir);
}
