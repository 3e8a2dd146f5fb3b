//! Per-tenant dedup domains: the mitigation for the cross-tenant dedup
//! timing side channel demonstrated in `examples/timing_probe.rs`. With
//! `dedup_domains > 1`, content never deduplicates across a domain
//! boundary, so an attacker in one domain learns nothing about residency
//! in another — while intra-domain deduplication keeps working.

use dewrite::core::{DeWrite, DeWriteConfig, SecureMemory, SystemConfig};
use dewrite::nvm::LineAddr;

const KEY: &[u8; 16] = b"domain test key!";
const LINES: u64 = 2048;

fn memory(domains: u64) -> DeWrite {
    let mut cfg = DeWriteConfig::paper();
    cfg.dedup_domains = domains;
    DeWrite::new(SystemConfig::for_lines(LINES), cfg, KEY)
}

#[test]
fn cross_domain_writes_never_deduplicate() {
    // Two domains: [0, 1024) and [1024, 2048).
    let mut mem = memory(2);
    let secret = vec![0x5Au8; 256];

    // Victim (domain 0) stores the content.
    let w = mem.write(LineAddr::new(10), &secret, 0).expect("write");
    assert!(!w.eliminated);

    // Attacker (domain 1) probes the same content repeatedly, resetting its
    // probe line with unique junk in between (as a real residency probe
    // must, so it never matches its own earlier copy). The probe must never
    // come back "duplicate", however warm the caches get.
    let probe = LineAddr::new(1500);
    let mut junk = vec![0xEEu8; 256];
    let mut t = 10_000;
    for i in 0..20u64 {
        let w = mem.write(probe, &secret, t).expect("write");
        assert!(
            !w.eliminated,
            "probe {i} deduplicated across the domain boundary"
        );
        t += 5_000;
        junk[0..8].copy_from_slice(&i.to_le_bytes());
        let w = mem.write(probe, &junk, t).expect("reset");
        assert!(!w.eliminated);
        t += 5_000;
    }
    mem.index().check_invariants().expect("invariants");
}

#[test]
fn intra_domain_dedup_still_works() {
    let mut mem = memory(2);
    let content = vec![0x77u8; 256];
    mem.write(LineAddr::new(0), &content, 0).expect("write");
    let w = mem
        .write(LineAddr::new(5), &content, 10_000)
        .expect("write");
    assert!(
        w.eliminated,
        "same-domain duplicate must still be eliminated"
    );

    // And independently in the second domain: first write stores, second
    // dedups against the *domain-local* copy.
    let w = mem
        .write(LineAddr::new(1500), &content, 20_000)
        .expect("write");
    assert!(!w.eliminated, "first copy in domain 1 must be stored");
    let w = mem
        .write(LineAddr::new(1600), &content, 30_000)
        .expect("write");
    assert!(w.eliminated, "domain-1 duplicate of the domain-1 copy");
}

#[test]
fn relocated_lines_stay_inside_their_domain() {
    let mut mem = memory(2);
    let shared = vec![0x11u8; 256];
    let fresh = vec![0x22u8; 256];

    // Build the shared-line-forces-relocation scenario near the domain
    // boundary of domain 0.
    mem.write(LineAddr::new(1000), &shared, 0).expect("write");
    mem.write(LineAddr::new(1010), &shared, 10_000)
        .expect("write"); // dedup
    mem.write(LineAddr::new(1000), &fresh, 20_000)
        .expect("write"); // relocate

    // Wherever 1000's new line landed, it must be inside domain 0.
    let real = mem.index().resolve(LineAddr::new(1000)).expect("written");
    assert!(real.index() < 1024, "relocated to {real} outside domain 0");
    assert_eq!(
        mem.read(LineAddr::new(1000), 30_000).expect("read").data,
        fresh
    );
    assert_eq!(
        mem.read(LineAddr::new(1010), 40_000).expect("read").data,
        shared
    );
}

/// Where a fresh write to `addr` lands once a duplicate at `dup` shares
/// its line, so the fresh content must relocate.
fn relocation_target(domains: u64, addr: u64, dup: u64) -> u64 {
    let mut mem = memory(domains);
    mem.write(LineAddr::new(addr), &[0x11; 256], 0)
        .expect("write");
    mem.write(LineAddr::new(dup), &[0x11; 256], 10_000)
        .expect("write");
    mem.write(LineAddr::new(addr), &[0x22; 256], 20_000)
        .expect("write");
    mem.index()
        .resolve(LineAddr::new(addr))
        .expect("written")
        .index()
}

#[test]
fn relocation_wraps_inside_its_domain() {
    // Domain 0 is [0, 1024): the scan from its last line wraps to its first.
    assert_eq!(relocation_target(2, 1023, 1010), 0);
}

#[test]
fn relocation_claims_the_next_free_line() {
    // Line order from the home, not the home word's lowest free line (64).
    assert_eq!(relocation_target(1, 127, 100), 128);
}

#[test]
fn many_domains_degrade_reduction_gracefully() {
    // The isolation/efficiency trade-off: more domains = fewer cross-tenant
    // dedup opportunities, but correctness and intra-domain behaviour hold.
    let content = vec![0xABu8; 256];
    for domains in [1u64, 4, 16] {
        let mut mem = memory(domains);
        let mut t = 0;
        let stride = LINES / 16;
        for k in 0..16u64 {
            mem.write(LineAddr::new(k * stride), &content, t)
                .expect("write");
            t += 5_000;
        }
        let m = mem.base_metrics();
        // With d domains, the 16 spread-out writes hold one stored copy per
        // touched domain.
        let expected_stored = domains.min(16);
        assert_eq!(
            m.writes - m.writes_eliminated,
            expected_stored,
            "domains={domains}"
        );
        mem.index().check_invariants().expect("invariants");
    }
}
