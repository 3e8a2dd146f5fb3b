//! Software-throughput counterpart of Table I(a): fingerprinting a 256 B
//! line with CRC-32 / CRC-32C / MD5 / SHA-1, plus AES-128 counter-mode
//! encryption of a full line. (Simulated *hardware* latencies are the
//! constants in `dewrite_hashes::HashCost`; these benches document the cost
//! of the functional implementations driving the simulator.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dewrite_crypto::{Aes128, Aes128Reference, CounterModeEngine, LineCounter};
use dewrite_hashes::{Crc32, Crc32c, CrcBackend, HashAlgorithm};

fn bench_fingerprints(c: &mut Criterion) {
    let line: Vec<u8> = (0..256).map(|i| (i * 31 % 251) as u8).collect();
    let mut group = c.benchmark_group("fingerprint_256B");
    group.throughput(Throughput::Bytes(256));
    for alg in HashAlgorithm::ALL {
        let hasher = alg.hasher();
        group.bench_with_input(BenchmarkId::from_parameter(alg), &line, |b, line| {
            b.iter(|| hasher.digest(std::hint::black_box(line)));
        });
    }
    group.finish();
}

fn bench_aes_line(c: &mut Criterion) {
    let engine = CounterModeEngine::new(b"benchmark key 16");
    let line = vec![0xA5u8; 256];
    let ctr = LineCounter::from_value(7);
    let mut group = c.benchmark_group("aes_ctr_256B");
    group.throughput(Throughput::Bytes(256));
    group.bench_function("encrypt_line", |b| {
        b.iter(|| engine.encrypt_line(std::hint::black_box(&line), 0x1000, ctr));
    });
    group.bench_function("encrypt_line_into", |b| {
        let mut buf = [0u8; 256];
        b.iter(|| {
            engine.encrypt_line_into(std::hint::black_box(&line), 0x1000, ctr, &mut buf);
            buf[0]
        });
    });
    group.bench_function("one_time_pad", |b| {
        b.iter(|| engine.one_time_pad(std::hint::black_box(0x1000), ctr, 256));
    });
    group.finish();
}

/// One 16-byte block through each AES backend: the from-scratch reference
/// oracle, the portable T-table engine, and (when the host has it) AES-NI.
fn bench_aes_backends(c: &mut Criterion) {
    let key = *b"benchmark key 16";
    let block = [0x5Au8; 16];
    let mut group = c.benchmark_group("aes_block_16B");
    group.throughput(Throughput::Bytes(16));
    let reference = Aes128Reference::new(&key);
    group.bench_function("reference", |b| {
        b.iter(|| reference.encrypt_block(std::hint::black_box(&block)));
    });
    let ttable = Aes128::portable(&key);
    group.bench_function("t-table", |b| {
        b.iter(|| ttable.encrypt_block(std::hint::black_box(&block)));
    });
    if let Some(hw) = Aes128::hardware(&key) {
        group.bench_function("aes-ni", |b| {
            b.iter(|| hw.encrypt_block(std::hint::black_box(&block)));
        });
    }
    group.finish();
}

/// A 256 B digest through each CRC implementation: the seed-era
/// byte-at-a-time loop, slice-by-8, and (when the host has them) the
/// PCLMULQDQ-folded CRC-32 and SSE4.2 hardware CRC-32C.
fn bench_crc_backends(c: &mut Criterion) {
    let line: Vec<u8> = (0..256).map(|i| (i * 31 % 251) as u8).collect();
    let mut group = c.benchmark_group("crc_256B");
    group.throughput(Throughput::Bytes(256));
    let crc32 = Crc32::new();
    group.bench_function("bytewise", |b| {
        b.iter(|| crc32.checksum_bytewise(std::hint::black_box(&line)));
    });
    let crc32_portable = Crc32::portable();
    group.bench_function("slice-by-8", |b| {
        b.iter(|| crc32_portable.checksum(std::hint::black_box(&line)));
    });
    if crc32.backend_kind() == CrcBackend::Pclmul {
        group.bench_function("pclmul", |b| {
            b.iter(|| crc32.checksum(std::hint::black_box(&line)));
        });
    }
    let crc32c = Crc32c::new();
    if crc32c.backend_kind() == CrcBackend::Sse42 {
        group.bench_function("crc32c-sse4.2", |b| {
            b.iter(|| crc32c.checksum(std::hint::black_box(&line)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fingerprints,
    bench_aes_line,
    bench_aes_backends,
    bench_crc_backends
);
criterion_main!(benches);
