//! Differential property testing: every scheme is, functionally, the same
//! memory. Random operation sequences — duplicate-heavy by construction —
//! must produce byte-identical user-visible contents across all of them.

use dewrite::core::{
    CmeBaseline, DeWrite, DeWriteConfig, MetadataPersistence, SecureMemory, SilentShredder,
    SystemConfig, TraditionalDedup, WriteMode,
};
use dewrite::hashes::HashAlgorithm;
use dewrite::nvm::LineAddr;
use proptest::prelude::*;

const KEY: &[u8; 16] = b"differential key";
const LINES: u64 = 256;

/// An abstract operation: write one of a few contents (small tag space
/// forces duplicates, tag 0 is the zero line) or read.
#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, tag: u8 },
    Read { addr: u64 },
}

fn content(tag: u8) -> Vec<u8> {
    if tag == 0 {
        vec![0u8; 256]
    } else {
        (0..256)
            .map(|i| tag.wrapping_mul(31).wrapping_add(i as u8))
            .collect()
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..LINES, 0u8..6).prop_map(|(addr, tag)| Op::Write { addr, tag }),
        (0..LINES).prop_map(|addr| Op::Read { addr }),
    ]
}

fn schemes() -> Vec<Box<dyn SecureMemory>> {
    let config = SystemConfig::for_lines(LINES);
    let mut out: Vec<Box<dyn SecureMemory>> = vec![
        Box::new(CmeBaseline::new(config.clone(), KEY)),
        Box::new(SilentShredder::new(config.clone(), KEY)),
        Box::new(TraditionalDedup::new(
            config.clone(),
            HashAlgorithm::Sha1,
            KEY,
        )),
    ];
    for mode in [
        WriteMode::Direct,
        WriteMode::Parallel,
        WriteMode::Predictive,
    ] {
        let mut dw = DeWriteConfig::paper();
        dw.mode = mode;
        out.push(Box::new(DeWrite::new(config.clone(), dw, KEY)));
    }
    // One more with aggressive persistence to cover that code path too.
    let mut dw = DeWriteConfig::paper();
    dw.persistence = MetadataPersistence::EpochFlush { interval: 16 };
    out.push(Box::new(DeWrite::new(config, dw, KEY)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn all_schemes_expose_identical_memory(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let mut mems = schemes();
        let mut t = 0u64;
        for op in &ops {
            match op {
                Op::Write { addr, tag } => {
                    let data = content(*tag);
                    for mem in mems.iter_mut() {
                        mem.write(LineAddr::new(*addr), &data, t).expect("write");
                    }
                }
                Op::Read { addr } => {
                    let mut results: Vec<Vec<u8>> = Vec::new();
                    for mem in mems.iter_mut() {
                        results.push(mem.read(LineAddr::new(*addr), t).expect("read").data.to_vec());
                    }
                    for (i, r) in results.iter().enumerate().skip(1) {
                        prop_assert_eq!(
                            r, &results[0],
                            "scheme {} disagrees with baseline at line {}", i, addr
                        );
                    }
                }
            }
            t += 1_000;
        }

        // Final sweep over every line.
        for addr in 0..LINES {
            let mut results: Vec<Vec<u8>> = Vec::new();
            for mem in mems.iter_mut() {
                results.push(mem.read(LineAddr::new(addr), t).expect("read").data.to_vec());
            }
            for r in results.iter().skip(1) {
                prop_assert_eq!(r, &results[0]);
            }
            t += 100;
        }
    }
}
