//! The deduplication index: the four tables composed with their invariants.
//!
//! This is the functional heart of DeWrite's dedup logic. It answers "is
//! this content resident?" and applies the metadata transitions of duplicate
//! and non-duplicate writes, maintaining the invariants:
//!
//! 1. a physical line is *resident* iff the inverted table knows its digest
//!    iff the free-space table marks it occupied;
//! 2. every resident line has a hash-table entry with reference ≥ 1;
//! 3. every written initial address resolves to exactly one resident line,
//!    and (unless saturated) a resident line's reference equals the number
//!    of initial addresses resolving to it.
//!
//! Timing is *not* modeled here — the scheme layer mirrors each table touch
//! with metadata-cache traffic.

use dewrite_nvm::LineAddr;

use crate::compare::lines_equal;
use crate::tables::{
    AddrMapTable, FreeSpaceTable, HashEntry, HashTable, InvertedTable, MAX_CANDIDATE_COMPARES,
    MAX_REFERENCE,
};

/// Outcome of applying a write to the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The content was already resident; the NVM write is eliminated.
    Duplicate {
        /// The line holding the content.
        real: LineAddr,
        /// `true` when the address already mapped to this content (a silent
        /// store) — no metadata changed.
        silent: bool,
        /// A line released because its last reference moved to `real`.
        freed: Option<LineAddr>,
    },
    /// The content is new and must be written to `target`.
    Stored {
        /// The physical line to write.
        target: LineAddr,
        /// A line released by this write (its last reference went away).
        freed: Option<LineAddr>,
        /// Whether the write reused the address's current line in place.
        in_place: bool,
    },
}

/// Result of a duplicate lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DupLookup {
    /// The matching resident line, if content-identical and not saturated.
    pub matched: Option<LineAddr>,
    /// How many candidate lines were byte-compared (collision accounting).
    pub comparisons: u32,
}

/// What a scheme-driven confirmation walks: the first
/// [`MAX_CANDIDATE_COMPARES`] unsaturated candidates of a digest in the
/// writer's dedup domain, in bucket order, held inline — nothing is copied
/// to the heap.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpenCandidates {
    reals: [LineAddr; MAX_CANDIDATE_COMPARES],
    len: usize,
    /// Whether a bucket-order walk that matches none of
    /// [`reals`](Self::reals) passes a saturated candidate on its way (it
    /// stops at the compare cap, so saturated entries beyond a full set of
    /// candidates are never seen).
    pub(crate) skipped_saturated: bool,
}

impl OpenCandidates {
    /// The candidate lines, in bucket order.
    #[inline]
    pub(crate) fn reals(&self) -> &[LineAddr] {
        &self.reals[..self.len]
    }
}

/// The composed deduplication index.
#[derive(Debug, Clone)]
pub struct DedupIndex {
    hash_table: HashTable,
    addr_map: AddrMapTable,
    inverted: InvertedTable,
    fsm: FreeSpaceTable,
    written: Vec<bool>,
    domains: u64,
    dup_writes: u64,
    stored_writes: u64,
    false_matches: u64,
}

impl DedupIndex {
    /// An index over `lines` physical lines, all initially free.
    pub fn new(lines: u64) -> Self {
        Self::with_domains(lines, 1)
    }

    /// An index partitioned into `domains` contiguous, equal dedup domains:
    /// content never deduplicates across a domain boundary, and relocated
    /// lines stay inside their domain — the standard mitigation for
    /// cross-tenant dedup side channels.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero or exceeds `lines`.
    pub fn with_domains(lines: u64, domains: u64) -> Self {
        assert!(domains >= 1 && domains <= lines.max(1), "bad domain count");
        DedupIndex {
            hash_table: HashTable::new(),
            addr_map: AddrMapTable::new(lines),
            inverted: InvertedTable::new(lines),
            fsm: FreeSpaceTable::new(lines),
            written: vec![false; lines as usize],
            domains,
            dup_writes: 0,
            stored_writes: 0,
            false_matches: 0,
        }
    }

    /// The dedup domain of a line.
    pub fn domain_of(&self, line: LineAddr) -> u64 {
        domain_of_line(line.index(), self.domains, self.lines())
    }

    /// The exact preimage of [`domain_of`](Self::domain_of): line `i` is in
    /// `domain` iff `lo <= i < hi`. Ceiling division keeps the two
    /// consistent for uneven splits (floor boundaries would let relocation
    /// pick a target just outside the source's domain).
    fn domain_range(&self, domain: u64) -> (u64, u64) {
        let lines = u128::from(self.lines());
        let domains = u128::from(self.domains);
        (
            (u128::from(domain) * lines).div_ceil(domains) as u64,
            (u128::from(domain + 1) * lines).div_ceil(domains) as u64,
        )
    }

    /// Number of physical lines managed.
    pub fn lines(&self) -> u64 {
        self.fsm.lines()
    }

    /// Whether `init` has ever been written.
    pub fn is_written(&self, init: LineAddr) -> bool {
        self.written[init.index() as usize]
    }

    /// The physical line holding `init`'s data, or `None` if never written.
    pub fn resolve(&self, init: LineAddr) -> Option<LineAddr> {
        if self.is_written(init) {
            Some(self.addr_map.resolve(init))
        } else {
            None
        }
    }

    /// Search for a resident line with content equal to `data` under
    /// `digest`. `content_of` supplies the (decrypted) bytes of a candidate
    /// line; the scheme layer charges one NVM read per invocation.
    ///
    /// Saturated entries are skipped (§III-B2: a line at reference 255 is
    /// "highly referenced" and further duplicates are not deduplicated).
    pub fn lookup(
        &mut self,
        digest: u64,
        data: &[u8],
        mut content_of: impl FnMut(LineAddr) -> Vec<u8>,
    ) -> DupLookup {
        let mut lookup = DupLookup {
            matched: None,
            comparisons: 0,
        };
        let (mut saturated, mut false_matches) = (0, 0);
        for entry in self.hash_table.bucket(digest) {
            if entry.reference == MAX_REFERENCE {
                // Saturated: visible in the entry itself, skipped without a
                // comparison (§III-B2).
                saturated += 1;
                continue;
            }
            lookup.comparisons += 1;
            if lines_equal(&content_of(entry.real), data) {
                lookup.matched = Some(entry.real);
                break;
            }
            false_matches += 1;
        }
        self.hash_table.note_saturated_hits(saturated);
        self.false_matches += false_matches;
        lookup
    }

    /// Resident candidate entries for `digest`, for callers that drive the
    /// byte comparison themselves (the scheme layer, which must charge a
    /// timed NVM read per comparison).
    pub fn candidates(&self, digest: u64) -> Vec<HashEntry> {
        self.hash_table.bucket(digest).collect()
    }

    /// Like [`candidates`](Self::candidates), filtered to `init`'s dedup
    /// domain — with multiple domains, content never matches across a
    /// boundary — and borrowed: the bucket is walked where it lives.
    pub fn candidates_for(
        &self,
        digest: u64,
        init: LineAddr,
    ) -> impl Iterator<Item = HashEntry> + '_ {
        let domain = self.domain_of(init);
        self.hash_table
            .bucket(digest)
            .filter(move |e| self.domains == 1 || self.domain_of(e.real) == domain)
    }

    /// The [`OpenCandidates`] of `digest` for a write to `init`: one probe
    /// and one pass over the bucket's reference bytes
    /// ([`HashTable::open`]) when the index is a single domain, a filtered
    /// walk of the borrowed bucket otherwise.
    pub(crate) fn open_for(&self, digest: u64, init: LineAddr) -> OpenCandidates {
        let mut open = OpenCandidates::default();
        if self.domains == 1 {
            let view = self.hash_table.open(digest);
            for (real, entry) in open.reals.iter_mut().zip(view.entries()) {
                *real = entry.real;
            }
            open.len = view.entries().len();
            open.skipped_saturated = view.saturated_walked() > 0;
            return open;
        }
        for entry in self.candidates_for(digest, init) {
            if entry.reference == MAX_REFERENCE {
                open.skipped_saturated = true;
            } else {
                open.reals[open.len] = entry.real;
                open.len += 1;
                if open.len == MAX_CANDIDATE_COMPARES {
                    break;
                }
            }
        }
        open
    }

    /// Like [`lookup`](Self::lookup) but without mutating any statistics —
    /// used for ground-truth accounting (e.g. counting duplicates missed by
    /// PNA skips).
    pub fn lookup_readonly(
        &self,
        digest: u64,
        data: &[u8],
        mut content_of: impl FnMut(LineAddr) -> Vec<u8>,
    ) -> Option<LineAddr> {
        self.hash_table
            .bucket(digest)
            .find(|e| e.reference != MAX_REFERENCE && lines_equal(&content_of(e.real), data))
            .map(|e| e.real)
    }

    /// Record a digest match whose byte comparison failed (scheme-driven
    /// candidate loops).
    pub(crate) fn note_false_match(&mut self) {
        self.false_matches += 1;
    }

    /// Record a duplicate declined due to reference saturation
    /// (scheme-driven candidate loops).
    pub(crate) fn note_saturated_skip(&mut self) {
        self.hash_table.note_saturated_hits(1);
    }

    /// Digest of the content resident at `real`, if resident.
    pub fn digest_of(&self, real: LineAddr) -> Option<u64> {
        self.inverted.digest_of(real)
    }

    /// Reference count of the resident line `real`.
    pub fn reference_of(&self, real: LineAddr) -> Option<u8> {
        let digest = self.inverted.digest_of(real)?;
        self.hash_table.reference(digest, real)
    }

    /// Recovery: install a resident line with reference 0; references are
    /// re-added as mappings are restored via
    /// [`restore_mapping`](Self::restore_mapping).
    pub(crate) fn restore_resident(&mut self, real: LineAddr, digest: u64) {
        self.fsm.occupy(real);
        self.inverted.set(real, digest);
        self.hash_table.insert_with_reference(digest, real, 0);
    }

    /// Recovery: re-link a written address to its resident line.
    ///
    /// # Panics
    ///
    /// Panics if `real` is not resident (callers validate first).
    pub(crate) fn restore_mapping(&mut self, init: LineAddr, real: LineAddr) {
        self.written[init.index() as usize] = true;
        if real != init {
            self.addr_map.map_to(init, real);
        }
        let digest = self
            .inverted
            .digest_of(real)
            .expect("restore_mapping target must be resident");
        let _ = self.hash_table.add_reference(digest, real);
    }

    fn unlink(&mut self, old: LineAddr) -> Option<LineAddr> {
        let digest = self
            .inverted
            .digest_of(old)
            .expect("unlink target must be resident");
        let remaining = self.hash_table.release_reference(digest, old);
        if remaining == 0 {
            self.inverted.clear(old);
            self.fsm.release(old);
            Some(old)
        } else {
            None
        }
    }

    /// Apply a *duplicate* write of `init` to the content at `real`
    /// (as returned by [`lookup`](Self::lookup)).
    ///
    /// # Panics
    ///
    /// Panics if `real` is not resident or its reference is saturated —
    /// callers must pass a fresh `lookup` match.
    pub fn apply_duplicate(&mut self, init: LineAddr, real: LineAddr) -> WriteOutcome {
        let digest = self
            .inverted
            .digest_of(real)
            .expect("duplicate target must be resident");
        let old = self.resolve(init);
        if old == Some(real) {
            self.dup_writes += 1;
            return WriteOutcome::Duplicate {
                real,
                silent: true,
                freed: None,
            };
        }
        let added = self.hash_table.add_reference(digest, real);
        assert!(added, "apply_duplicate on a saturated entry");
        let mut freed = None;
        if let Some(o) = old {
            freed = self.unlink(o);
        }
        if real == init {
            self.addr_map.unmap(init);
        } else {
            self.addr_map.map_to(init, real);
        }
        self.written[init.index() as usize] = true;
        self.dup_writes += 1;
        WriteOutcome::Duplicate {
            real,
            silent: false,
            freed,
        }
    }

    /// Apply a *non-duplicate* write of `init` with content `digest`.
    /// Chooses the target line (in place when `init`'s current line is
    /// solely owned, else a free line near `init`'s home) and installs all
    /// metadata. The caller then writes the encrypted data to `target`.
    ///
    /// # Panics
    ///
    /// Panics if memory is exhausted (cannot happen while every initial
    /// address holds at most one reference, which the index guarantees).
    pub fn apply_store(&mut self, init: LineAddr, digest: u64) -> WriteOutcome {
        let old = self.resolve(init);
        let mut freed = None;
        let (target, in_place) = match old {
            Some(o) if self.reference_of(o) == Some(1) => {
                // Sole owner: overwrite in place after cleaning the stale
                // hash entry.
                let stale = self.inverted.digest_of(o).expect("resident");
                self.hash_table.remove(stale, o);
                self.inverted.clear(o);
                (o, true)
            }
            other => {
                if let Some(o) = other {
                    freed = self.unlink(o);
                }
                // Note: lines referenced by *saturated* entries can never be
                // freed (their true count is unknown, §III-B2), so a
                // pathological workload that saturates many contents can
                // exhaust free space — real deployments provision spare
                // capacity or garbage-collect saturated lines offline.
                let (lo, hi) = self.domain_range(self.domain_of(init));
                let target = self
                    .fsm
                    .allocate_within(init, lo, hi)
                    .expect("free space exhausted (saturated-entry leak)");
                (target, false)
            }
        };
        self.fsm.occupy(target);
        self.hash_table.insert(digest, target);
        self.inverted.set(target, digest);
        if target == init {
            self.addr_map.unmap(init);
        } else {
            self.addr_map.map_to(init, target);
        }
        self.written[init.index() as usize] = true;
        self.stored_writes += 1;
        WriteOutcome::Stored {
            target,
            freed,
            in_place,
        }
    }

    /// Duplicate writes applied.
    pub fn dup_writes(&self) -> u64 {
        self.dup_writes
    }

    /// Non-duplicate writes applied.
    pub fn stored_writes(&self) -> u64 {
        self.stored_writes
    }

    /// Digest matches whose byte comparison failed (true CRC collisions,
    /// Fig. 6).
    pub fn false_matches(&self) -> u64 {
        self.false_matches
    }

    /// Duplicates skipped due to reference saturation.
    pub fn saturated_skips(&self) -> u64 {
        self.hash_table.saturated_hits()
    }

    /// Number of deduplicated (remapped) addresses.
    pub fn mapped_addresses(&self) -> usize {
        self.addr_map.len()
    }

    /// Number of resident physical lines.
    pub fn resident_lines(&self) -> usize {
        self.inverted.len()
    }

    /// Free physical lines remaining.
    pub fn free_lines(&self) -> u64 {
        self.fsm.free_lines()
    }

    /// Iterate over resident lines' reference counts (Fig. 7).
    pub fn reference_counts(&self) -> impl Iterator<Item = u8> + '_ {
        self.hash_table.iter().map(|(_, e)| e.reference)
    }

    /// Exhaustively check the index invariants (test/debug aid; O(lines)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Residency bitmaps agree.
        for i in 0..self.lines() {
            let line = LineAddr::new(i);
            let resident = self.inverted.digest_of(line).is_some();
            let occupied = !self.fsm.is_free(line);
            if resident != occupied {
                return Err(format!(
                    "line {line}: resident={resident} occupied={occupied}"
                ));
            }
            if resident {
                let digest = self.inverted.digest_of(line).expect("checked");
                if self.hash_table.reference(digest, line).is_none() {
                    return Err(format!("line {line}: resident but not hash-indexed"));
                }
            }
        }
        // Reference counts match resolution counts (excluding saturated).
        let mut counts = std::collections::HashMap::new();
        for i in 0..self.lines() {
            let init = LineAddr::new(i);
            if let Some(real) = self.resolve(init) {
                *counts.entry(real.index()).or_insert(0u64) += 1;
            }
        }
        for (digest, entry) in self.hash_table.iter() {
            let actual = counts.get(&entry.real.index()).copied().unwrap_or(0);
            if entry.reference != MAX_REFERENCE && u64::from(entry.reference) != actual {
                return Err(format!(
                    "line {} (digest {digest:#x}): reference {} but {} resolvers",
                    entry.real, entry.reference, actual
                ));
            }
        }
        Ok(())
    }
}

/// Dedup domain of line `index` when `lines` lines split into `domains`
/// contiguous, equal-as-possible domains.
///
/// Widened to 128-bit intermediates: `index * domains` overflows u64 for
/// large address spaces (e.g. a 2^63-line index with 4 domains), which
/// would scatter lines into wrong domains and silently break the
/// cross-domain isolation guarantee.
pub(crate) fn domain_of_line(index: u64, domains: u64, lines: u64) -> u64 {
    ((index as u128 * domains as u128) / u128::from(lines.max(1))) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    /// A tiny plaintext shadow memory standing in for decryption.
    #[derive(Default)]
    struct Shadow {
        lines: HashMap<u64, Vec<u8>>,
    }

    impl Shadow {
        fn content(&self, real: LineAddr) -> Vec<u8> {
            self.lines.get(&real.index()).cloned().unwrap_or_default()
        }
        fn store(&mut self, real: LineAddr, data: &[u8]) {
            self.lines.insert(real.index(), data.to_vec());
        }
    }

    /// What the schemes' confirmation loop did before [`OpenCandidates`]:
    /// filter the domain's candidates lazily, stop at the compare cap.
    fn open_reference(idx: &DedupIndex, digest: u64, init: LineAddr) -> (Vec<LineAddr>, bool) {
        let mut skipped_saturated = false;
        let reals = idx
            .candidates_for(digest, init)
            .filter(|e| {
                skipped_saturated |= e.reference == MAX_REFERENCE;
                e.reference != MAX_REFERENCE
            })
            .take(MAX_CANDIDATE_COMPARES)
            .map(|e| e.real)
            .collect();
        (reals, skipped_saturated)
    }

    #[test]
    fn open_for_is_the_capped_walk_in_one_and_many_domains() {
        for domains in [1, 2, 4] {
            let mut idx = DedupIndex::with_domains(8192, domains);
            // One digest, twelve resident copies 600 lines apart (so spread
            // over the domains); copies 1, 2, 6 and 11 are saturated by the
            // 254 addresses right behind them, all inside their own domain.
            for copy in 0..12u64 {
                let home = copy * 600;
                idx.apply_store(l(home), 77);
                if [1, 2, 6, 11].contains(&copy) {
                    for dup in 1..u64::from(MAX_REFERENCE) {
                        idx.apply_duplicate(l(home + dup), l(home));
                    }
                    assert_eq!(idx.reference_of(l(home)), Some(MAX_REFERENCE));
                }
            }
            idx.check_invariants().unwrap();
            for init in [0, 2047, 2048, 4095, 4096, 6143, 6144, 8191] {
                let open = idx.open_for(77, l(init));
                assert_eq!(
                    (open.reals().to_vec(), open.skipped_saturated),
                    open_reference(&idx, 77, l(init)),
                    "{domains} domains, init {init}"
                );
            }
            let none = idx.open_for(78, l(0));
            assert!(none.reals().is_empty() && !none.skipped_saturated);
        }
    }

    /// Drive a full write through lookup + apply, like a scheme would.
    fn write(
        idx: &mut DedupIndex,
        shadow: &mut Shadow,
        init: u64,
        data: &[u8],
        digest: u64,
    ) -> WriteOutcome {
        let lookup = idx.lookup(digest, data, |real| shadow.content(real));
        let outcome = match lookup.matched {
            Some(real) => idx.apply_duplicate(l(init), real),
            None => idx.apply_store(l(init), digest),
        };
        if let WriteOutcome::Stored { target, .. } = outcome {
            shadow.store(target, data);
        }
        idx.check_invariants().unwrap();
        outcome
    }

    #[test]
    fn first_write_goes_to_home() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        let out = write(&mut idx, &mut sh, 3, b"aaaa", 1);
        assert_eq!(
            out,
            WriteOutcome::Stored {
                target: l(3),
                freed: None,
                in_place: false
            }
        );
        assert_eq!(idx.resolve(l(3)), Some(l(3)));
        assert_eq!(idx.reference_of(l(3)), Some(1));
    }

    #[test]
    fn duplicate_is_eliminated_and_remapped() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 0, b"same", 9);
        let out = write(&mut idx, &mut sh, 5, b"same", 9);
        assert_eq!(
            out,
            WriteOutcome::Duplicate {
                real: l(0),
                silent: false,
                freed: None
            }
        );
        assert_eq!(idx.resolve(l(5)), Some(l(0)));
        assert_eq!(idx.reference_of(l(0)), Some(2));
        assert_eq!(idx.mapped_addresses(), 1);
        // Line 5's home is still free — never used.
        assert_eq!(idx.free_lines(), 15);
    }

    #[test]
    fn silent_store_changes_nothing() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 0, b"data", 7);
        let out = write(&mut idx, &mut sh, 0, b"data", 7);
        assert_eq!(
            out,
            WriteOutcome::Duplicate {
                real: l(0),
                silent: true,
                freed: None
            }
        );
        assert_eq!(idx.reference_of(l(0)), Some(1));
    }

    #[test]
    fn sole_owner_overwrites_in_place() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 2, b"old!", 1);
        let out = write(&mut idx, &mut sh, 2, b"new!", 2);
        assert_eq!(
            out,
            WriteOutcome::Stored {
                target: l(2),
                freed: None,
                in_place: true
            }
        );
        // Stale hash was cleaned: old content no longer matches anywhere.
        let lookup = idx.lookup(1, b"old!", |r| sh.content(r));
        assert_eq!(lookup.matched, None);
    }

    #[test]
    fn shared_line_cannot_be_overwritten_in_place() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 0, b"shared", 5);
        write(&mut idx, &mut sh, 1, b"shared", 5); // 1 → line 0, ref 2
                                                   // Address 0 overwrites: content at line 0 still referenced by 1.
        let out = write(&mut idx, &mut sh, 0, b"fresh!", 6);
        match out {
            WriteOutcome::Stored {
                target,
                freed,
                in_place,
            } => {
                assert_ne!(target, l(0), "must not clobber shared line");
                assert_eq!(freed, None);
                assert!(!in_place);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Address 1 still reads the shared content's line.
        assert_eq!(idx.resolve(l(1)), Some(l(0)));
        assert_eq!(idx.reference_of(l(0)), Some(1));
    }

    #[test]
    fn last_dereference_frees_the_line() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 0, b"a", 1);
        write(&mut idx, &mut sh, 1, b"b", 2); // line 1
        write(&mut idx, &mut sh, 1, b"a", 1); // 1 remaps to line 0; line 1 freed in-place? no:
                                              // address 1 was sole owner of line 1, but this is a *duplicate*
                                              // write, so line 1 is unlinked and freed.
        assert_eq!(idx.resolve(l(1)), Some(l(0)));
        assert_eq!(idx.digest_of(l(1)), None);
        assert_eq!(idx.free_lines(), 15);
        assert_eq!(idx.reference_of(l(0)), Some(2));
    }

    #[test]
    fn collision_candidates_are_byte_checked() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        // Two different contents forced under the same digest.
        write(&mut idx, &mut sh, 0, b"aaaa", 42);
        let lookup = idx.lookup(42, b"bbbb", |r| sh.content(r));
        assert_eq!(lookup.matched, None);
        assert_eq!(lookup.comparisons, 1);
        assert_eq!(idx.false_matches(), 1);
        // Storing the colliding content keeps both in one bucket.
        idx.apply_store(l(1), 42);
        sh.store(l(1), b"bbbb");
        let hit = idx.lookup(42, b"bbbb", |r| sh.content(r));
        assert_eq!(hit.matched, Some(l(1)));
        idx.check_invariants().unwrap();
    }

    #[test]
    fn saturation_blocks_further_dedup() {
        let mut idx = DedupIndex::new(400);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 0, b"hot", 3);
        for i in 1..255 {
            let out = write(&mut idx, &mut sh, i, b"hot", 3);
            assert!(matches!(out, WriteOutcome::Duplicate { .. }), "i={i}");
        }
        assert_eq!(idx.reference_of(l(0)), Some(255));
        // The 256th writer is NOT deduplicated (reference would overflow).
        let out = write(&mut idx, &mut sh, 300, b"hot", 3);
        assert!(matches!(out, WriteOutcome::Stored { .. }));
        assert!(idx.saturated_skips() >= 1);
    }

    #[test]
    fn unwritten_addresses_resolve_to_none() {
        let idx = DedupIndex::new(4);
        assert_eq!(idx.resolve(l(2)), None);
        assert!(!idx.is_written(l(2)));
    }

    #[test]
    fn dedup_to_own_home_held_by_others() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        // Address 0 writes content; address 1 dedups to line 0; address 0
        // overwrites (moves to a free line); now address 0 writes the shared
        // content again — matching line 0, its own home.
        write(&mut idx, &mut sh, 0, b"shared", 5);
        write(&mut idx, &mut sh, 1, b"shared", 5);
        write(&mut idx, &mut sh, 0, b"other!", 6);
        let out = write(&mut idx, &mut sh, 0, b"shared", 5);
        // Address 0's interim line (its sole-owned "other!" line) is freed
        // as its reference moves back to line 0.
        assert_eq!(
            out,
            WriteOutcome::Duplicate {
                real: l(0),
                silent: false,
                freed: Some(l(1))
            }
        );
        assert_eq!(idx.resolve(l(0)), Some(l(0)));
        assert_eq!(idx.reference_of(l(0)), Some(2));
    }

    #[test]
    fn domain_of_survives_large_indices() {
        // Regression: `index * domains` used to be computed in u64, so a
        // line index past u64::MAX / domains wrapped and landed in the
        // wrong domain.
        let lines = 1u64 << 63;
        let domains = 4;
        assert_eq!(domain_of_line(0, domains, lines), 0);
        assert_eq!(domain_of_line(lines - 1, domains, lines), domains - 1);
        let boundary = lines / domains;
        assert_eq!(domain_of_line(boundary - 1, domains, lines), 0);
        assert_eq!(domain_of_line(boundary, domains, lines), 1);
        for index in [lines / 2, lines - 1, boundary * 3 + 17] {
            assert!(
                domain_of_line(index, domains, lines) < domains,
                "index {index}"
            );
        }
    }

    #[test]
    fn domain_of_agrees_with_domain_range() {
        let idx = DedupIndex::with_domains(100, 7); // uneven split
        for domain in 0..7 {
            let (lo, hi) = idx.domain_range(domain);
            for i in lo..hi {
                assert_eq!(idx.domain_of(l(i)), domain, "line {i}");
            }
        }
    }

    #[test]
    fn write_counters_accumulate() {
        let mut idx = DedupIndex::new(8);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 0, b"x", 1);
        write(&mut idx, &mut sh, 1, b"x", 1);
        write(&mut idx, &mut sh, 2, b"y", 2);
        assert_eq!(idx.dup_writes(), 1);
        assert_eq!(idx.stored_writes(), 2);
        assert_eq!(idx.resident_lines(), 2);
        let refs: Vec<u8> = idx.reference_counts().collect();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs.iter().map(|&r| u64::from(r)).sum::<u64>(), 3);
    }
}
