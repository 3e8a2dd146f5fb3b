//! The deduplication index: the four tables composed with their invariants.
//!
//! This is the functional heart of DeWrite's dedup logic. It answers "is
//! this content resident?" and applies the metadata transitions of duplicate
//! and non-duplicate writes, maintaining the invariants:
//!
//! 1. a physical line is *resident* iff the inverted table knows its digest
//!    iff the free-space map marks it occupied;
//! 2. every resident line has a hash-table entry with reference ≥ 1;
//! 3. every written initial address resolves to exactly one resident line,
//!    and (unless saturated) a resident line's reference equals the number
//!    of initial addresses resolving to it.
//!
//! The transitions (§III-B) are one [`CommitKernel`], shared by the
//! simulator's [`DedupIndex`] and the engine's shard; what a commit changed
//! ([`WriteOutcome`]) is also what the shard's WAL journals
//! ([`WriteOutcome::meta_ops`]). The kernel also owns the per-line
//! encryption counters the paper colocates with its rows (§III-C): a store
//! bumps its line's counter, a free never resets it, and
//! [`CommitKernel::snapshot`] captures them with the tables.
//!
//! Timing is *not* modeled here — the scheme layer mirrors each table touch
//! with metadata-cache traffic.

use dewrite_crypto::LineCounter;
use dewrite_nvm::{FsmTree, LineAddr};

use crate::colocate::ColocationStats;
use crate::counters::CounterTable;
use crate::journal::MetaOp;
use crate::snapshot::Snapshot;
use crate::tables::{
    AddrMap, HashEntry, HashTable, InvertedTable, OpenEntry, PresenceBitmap,
    MAX_CANDIDATE_COMPARES, MAX_REFERENCE,
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
        /// Whether the write reused the line its own release freed (the
        /// address's current line, overwritten in place).
        in_place: bool,
        /// `target`'s encryption counter, bumped for this write.
        counter: LineCounter,
    },
}

impl WriteOutcome {
    /// The [`MetaOp`]s of this commit for a write of the global address
    /// `init`, in replay order: the freed line's `ResidentDel` first (an
    /// in-place store's too: it claimed the line its release freed), then
    /// a store's `ResidentSet` of `digest`, the `MapSet`, and a store's
    /// `CounterSet` of the line's new encryption counter. A silent store
    /// has none. `global` turns a kernel line into its global address.
    pub fn meta_ops(
        self,
        init: u64,
        digest: u64,
        global: impl Fn(LineAddr) -> u64,
    ) -> impl Iterator<Item = MetaOp> + Clone {
        let (real, freed, counter) = match self {
            Self::Duplicate { silent: true, .. } => return [None; 4].into_iter().flatten(),
            Self::Duplicate { real, freed, .. } => (real, freed, None),
            Self::Stored {
                target,
                freed,
                in_place,
                counter,
            } => (target, freed.or(in_place.then_some(target)), Some(counter)),
        };
        let real = global(real);
        [
            freed.map(|freed| MetaOp::ResidentDel {
                real: global(freed),
            }),
            counter.map(|_| MetaOp::ResidentSet { real, digest }),
            Some(MetaOp::MapSet { init, real }),
            counter.map(|counter| MetaOp::CounterSet {
                line: real,
                value: counter.value(),
            }),
        ]
        .into_iter()
        .flatten()
    }
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

/// Where a store's line comes from: the free-space half of the
/// [`CommitKernel`].
pub trait FreeSpace {
    /// Mark `line` free: its last reference went.
    fn release(&mut self, line: LineAddr);

    /// Claim a free line for a store homed at `home`; `freed` is the line
    /// the same commit's release just freed, if any. `None` when no line
    /// is free.
    fn claim(&mut self, home: LineAddr, freed: Option<LineAddr>) -> Option<LineAddr>;

    /// Whether `line` is free.
    fn is_free(&self, line: LineAddr) -> bool;
}

/// The commit kernel: the tables the index invariants (module docs) tie
/// together and the lines' encryption counters, readable for lookups and
/// host hints and changed only by its steps. Map indices and lines are the
/// owner's: global lines for the simulator, `addr / shards` and local
/// slots for a shard.
#[derive(Debug, Clone)]
pub struct CommitKernel<S> {
    hash: HashTable,
    inverted: InvertedTable,
    map: AddrMap,
    counters: CounterTable,
    space: S,
}

impl<S: FreeSpace> CommitKernel<S> {
    /// An empty kernel over `lines` lines and as many map indices, claiming
    /// from `space`.
    pub fn new(lines: u64, space: S) -> Self {
        CommitKernel {
            hash: HashTable::new(),
            inverted: InvertedTable::new(lines),
            map: AddrMap::new(lines),
            counters: CounterTable::new(lines),
            space,
        }
    }

    /// Digest → {line, reference}.
    pub fn hash(&self) -> &HashTable {
        &self.hash
    }

    /// Line → digest of its resident content.
    pub fn inverted(&self) -> &InvertedTable {
        &self.inverted
    }

    /// Address → line, for every written address.
    pub fn map(&self) -> &AddrMap {
        &self.map
    }

    /// Line → encryption counter: bumped by every store, never reset.
    pub fn counters(&self) -> &CounterTable {
        &self.counters
    }

    /// Where stores claim their lines.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// The durable state as a [`Snapshot`] stamped `config_fp` over
    /// `lines` global lines: every mapping, every resident line's digest
    /// and every nonzero counter, each in ascending order. `global` turns
    /// a map index or a line into its global address, monotonically.
    pub fn snapshot(&self, config_fp: u64, lines: u64, global: impl Fn(u64) -> u64) -> Snapshot {
        // Each table is sized exactly before it is filled: a checkpoint
        // stalls the write path, and a megabyte-sized `Vec` grown by
        // doubling pays for its final size again in copies and fresh
        // pages. A counting pass over a dense array is far cheaper.
        let mut snapshot = Snapshot {
            config_fp,
            lines,
            mappings: Vec::with_capacity(self.map.iter().count()),
            residents: Vec::with_capacity(self.inverted.len()),
            counters: Vec::with_capacity(self.counters.iter().count()),
        };
        for (idx, real) in self.map.iter() {
            snapshot.mappings.push((global(idx), global(real.index())));
        }
        for (real, digest) in self.inverted.iter() {
            snapshot.residents.push((global(real.index()), digest));
        }
        for (line, counter) in self.counters.iter() {
            snapshot.counters.push((global(line), counter.value()));
        }
        // Each walk is ascending and `global` monotonic: sorted as built.
        debug_assert!(snapshot.mappings.is_sorted() && snapshot.residents.is_sorted());
        snapshot
    }

    /// Drop one reference of the resident line `line`, freeing it when the
    /// last one goes; the caller remaps the address that held it. Returns
    /// the freed line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not resident.
    #[inline]
    fn release(&mut self, line: LineAddr) -> Option<LineAddr> {
        let digest = self
            .inverted
            .digest_of(line)
            .expect("released line must be resident");
        if self.hash.release_reference(digest, line) != 0 {
            return None;
        }
        self.inverted.clear(line);
        self.space.release(line);
        Some(line)
    }

    /// Commit a duplicate write at map index `idx` to the resident entry
    /// `entry`, taken since the hash table was last changed: reference it,
    /// then release `idx`'s old mapping — so an address rewritten with its
    /// own content never transiently drops to zero — and map `idx` to it.
    /// `None`, taking no reference, when the entry is saturated.
    #[inline]
    pub fn duplicate(&mut self, idx: u64, entry: OpenEntry) -> Option<WriteOutcome> {
        if !self.hash.add_reference_at(entry) {
            return None;
        }
        let freed = self.map.get(idx).and_then(|old| self.release(old));
        self.map.set(idx, entry.real);
        Some(WriteOutcome::Duplicate {
            real: entry.real,
            silent: false,
            freed,
        })
    }

    /// Commit a store of content `digest` at map index `idx`, homed at
    /// `home`: release the old mapping, claim a line from the source,
    /// install the digest and inverted row, map `idx` to the line and bump
    /// its counter. The store is in place when the source hands back the
    /// line the release just freed. `None` when the source has no free
    /// line (the old mapping is then already released; callers treat this
    /// as fatal).
    ///
    /// # Panics
    ///
    /// Panics if the claimed line's counter is exhausted
    /// ([`CounterTable::bump`]).
    #[inline]
    pub fn store(&mut self, idx: u64, home: LineAddr, digest: u64) -> Option<WriteOutcome> {
        let freed = self.map.get(idx).and_then(|old| self.release(old));
        let target = self.space.claim(home, freed)?;
        self.hash.insert(digest, target);
        self.inverted.set(target, digest);
        self.map.set(idx, target);
        let in_place = freed == Some(target);
        Some(WriteOutcome::Stored {
            target,
            freed: freed.filter(|_| !in_place),
            in_place,
            counter: self.counters.bump(target.index()),
        })
    }

    /// Exhaustively check the index invariants (module docs) over lines
    /// `0..lines` — O(lines), for tests and scrubs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self, lines: u64) -> Result<(), String> {
        if let Some(id) = self.hash.wrong_open_list() {
            return Err(format!(
                "side bucket {id}: open list is not its unsaturated positions"
            ));
        }
        // Residency bitmaps agree.
        for i in 0..lines {
            let line = LineAddr::new(i);
            let digest = self.inverted.digest_of(line);
            let occupied = !self.space.is_free(line);
            if digest.is_some() != occupied {
                let resident = digest.is_some();
                return Err(format!(
                    "line {line}: resident={resident} occupied={occupied}"
                ));
            }
            if digest.is_some_and(|digest| self.hash.reference(digest, line).is_none()) {
                return Err(format!("line {line}: resident but not hash-indexed"));
            }
        }
        if self.hash.len() != self.inverted.len() {
            return Err(format!(
                "{} hash entries but {} resident lines",
                self.hash.len(),
                self.inverted.len()
            ));
        }
        // Reference counts match resolution counts (excluding saturated).
        let mut counts = std::collections::HashMap::new();
        for (idx, real) in self.map.iter() {
            if self.inverted.digest_of(real).is_none() {
                return Err(format!("address {idx} maps to free line {real}"));
            }
            *counts.entry(real.index()).or_insert(0u64) += 1;
        }
        for (digest, entry) in self.hash.iter() {
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

/// The simulator's free-space source: an [`FsmTree`] claimed in line
/// order ([`FsmTree::allocate_within`]), split into `domains` contiguous
/// dedup domains. A store gets back the line its own release just freed —
/// the sole owner overwrites in place — and otherwise the first free line
/// scanning outward from its home, without leaving the home's domain.
#[derive(Debug, Clone)]
pub(crate) struct DomainSpace {
    tree: FsmTree,
    domains: u64,
}

impl DomainSpace {
    /// The exact preimage of [`DedupIndex::domain_of`]: line `i` is in
    /// `domain` iff `lo <= i < hi`. Ceiling division keeps the two
    /// consistent for uneven splits (floor boundaries would let relocation
    /// pick a target just outside the source's domain).
    fn domain_range(&self, domain: u64) -> (u64, u64) {
        let lines = u128::from(self.tree.lines());
        let domains = u128::from(self.domains);
        (
            (u128::from(domain) * lines).div_ceil(domains) as u64,
            (u128::from(domain + 1) * lines).div_ceil(domains) as u64,
        )
    }
}

impl FreeSpace for DomainSpace {
    fn release(&mut self, line: LineAddr) {
        let was_taken = self.tree.release(line.index());
        assert!(was_taken, "double free of line {line}");
    }

    fn claim(&mut self, home: LineAddr, freed: Option<LineAddr>) -> Option<LineAddr> {
        if let Some(line) = freed {
            let was_free = self.tree.occupy(line.index());
            assert!(was_free, "freed line {line} is not free");
            return Some(line);
        }
        let domain = domain_of_line(home.index(), self.domains, self.tree.lines());
        let (lo, hi) = self.domain_range(domain);
        self.tree
            .allocate_within(home.index(), lo, hi)
            .map(LineAddr::new)
    }

    fn is_free(&self, line: LineAddr) -> bool {
        self.tree.is_free(line.index())
    }
}

/// The composed deduplication index: the [`CommitKernel`] over the
/// simulator's free-space source, plus its lookup counters.
#[derive(Debug, Clone)]
pub struct DedupIndex {
    kernel: CommitKernel<DomainSpace>,
    /// Which addresses are written: the map's presence, one bit per
    /// address. Reads mix written and unwritten addresses unpredictably,
    /// and a branch on the map entry itself, often out of host cache, cost
    /// the `sim_paper` benchmark 17–24% of its median op latency; on this
    /// bit, nothing measurable (EXPERIMENTS.md, "One commit kernel").
    written: PresenceBitmap,
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
        let space = DomainSpace {
            tree: FsmTree::new(lines),
            domains,
        };
        DedupIndex {
            kernel: CommitKernel::new(lines, space),
            written: PresenceBitmap::new(lines),
            false_matches: 0,
        }
    }

    /// The dedup domain of a line.
    pub fn domain_of(&self, line: LineAddr) -> u64 {
        domain_of_line(line.index(), self.kernel.space.domains, self.lines())
    }

    /// Number of physical lines managed.
    pub fn lines(&self) -> u64 {
        self.kernel.space.tree.lines()
    }

    /// The commit kernel (the snapshot capture).
    pub(crate) fn kernel(&self) -> &CommitKernel<DomainSpace> {
        &self.kernel
    }

    /// Line → encryption counter of every line ever stored.
    pub(crate) fn counters(&self) -> &CounterTable {
        &self.kernel.counters
    }

    /// The physical line holding `init`'s data, or `None` if never written.
    pub fn resolve(&self, init: LineAddr) -> Option<LineAddr> {
        // A written address is mapped: `unwrap_or` keeps the load branch-free.
        let written = self.written.get(init.index());
        written.then(|| self.kernel.map.get(init.index()).unwrap_or(init))
    }

    /// Resident candidate entries for `digest` in `init`'s dedup domain —
    /// with multiple domains, content never matches across a boundary —
    /// for callers that drive the byte comparison themselves (the schemes,
    /// which charge a timed NVM read per comparison). The bucket is walked
    /// where it lives.
    pub fn candidates_for(
        &self,
        digest: u64,
        init: LineAddr,
    ) -> impl Iterator<Item = HashEntry> + '_ {
        let domain = self.domain_of(init);
        self.kernel
            .hash
            .bucket(digest)
            .filter(move |e| self.kernel.space.domains == 1 || self.domain_of(e.real) == domain)
    }

    /// The [`OpenCandidates`] of `digest` for a write to `init`: one probe
    /// and the head of the bucket's open list ([`HashTable::open`]) when
    /// the index is a single domain, a filtered walk of the borrowed
    /// bucket otherwise.
    pub(crate) fn open_for(&self, digest: u64, init: LineAddr) -> OpenCandidates {
        let mut open = OpenCandidates::default();
        if self.kernel.space.domains == 1 {
            let view = self.kernel.hash.open(digest);
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

    /// Record a digest match whose byte comparison failed (scheme-driven
    /// candidate loops).
    pub(crate) fn note_false_match(&mut self) {
        self.false_matches += 1;
    }

    /// Record a duplicate declined due to reference saturation
    /// (scheme-driven candidate loops).
    pub(crate) fn note_saturated_skip(&mut self) {
        self.kernel.hash.note_saturated_hits(1);
    }

    /// Digest of the content resident at `real`, if resident.
    pub fn digest_of(&self, real: LineAddr) -> Option<u64> {
        self.kernel.inverted.digest_of(real)
    }

    /// Reference count of the resident line `real`.
    pub fn reference_of(&self, real: LineAddr) -> Option<u8> {
        let digest = self.kernel.inverted.digest_of(real)?;
        self.kernel.hash.reference(digest, real)
    }

    /// Recovery: install a resident line with reference 0; references are
    /// re-added as mappings are restored via
    /// [`restore_mapping`](Self::restore_mapping).
    pub(crate) fn restore_resident(&mut self, real: LineAddr, digest: u64) {
        // Snapshot input is validated by the rebuild's invariant check.
        let _ = self.kernel.space.tree.occupy(real.index());
        self.kernel.inverted.set(real, digest);
        self.kernel.hash.insert_with_reference(digest, real, 0);
    }

    /// Recovery: re-link a written address to its resident line.
    ///
    /// # Panics
    ///
    /// Panics if `real` is not resident (callers validate first).
    pub(crate) fn restore_mapping(&mut self, init: LineAddr, real: LineAddr) {
        self.kernel.map.set(init.index(), real);
        self.written.set(init.index());
        let digest = self
            .kernel
            .inverted
            .digest_of(real)
            .expect("restore_mapping target must be resident");
        let _ = self.kernel.hash.add_reference(digest, real);
    }

    /// Recovery: install `line`'s stored encryption counter.
    pub(crate) fn restore_counter(&mut self, line: LineAddr, counter: LineCounter) {
        self.kernel.counters.set(line.index(), counter);
    }

    /// Apply a *duplicate* write of `init` to the content at `real`
    /// (a candidate from `open_for`, confirmed equal).
    ///
    /// # Panics
    ///
    /// Panics if `real` is not resident or its reference is saturated —
    /// callers must pass a fresh `open_for` candidate.
    pub fn apply_duplicate(&mut self, init: LineAddr, real: LineAddr) -> WriteOutcome {
        let digest = self
            .digest_of(real)
            .expect("duplicate target must be resident");
        // The one commit decision the shard does not share (ROADMAP item
        // 10): a silent rewrite takes no reference, where the kernel's
        // add-then-release would saturate a line at 254 references.
        if self.resolve(init) == Some(real) {
            return WriteOutcome::Duplicate {
                real,
                silent: true,
                freed: None,
            };
        }
        let entry = self.kernel.hash.entry(digest, real).expect("resident");
        let outcome = self
            .kernel
            .duplicate(init.index(), entry)
            .expect("apply_duplicate on a saturated entry");
        self.written.set(init.index());
        outcome
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
        // Lines referenced by *saturated* entries can never be freed (their
        // true count is unknown, §III-B2), so a pathological workload that
        // saturates many contents can exhaust free space — real deployments
        // provision spare capacity or garbage-collect saturated lines
        // offline.
        let outcome = self
            .kernel
            .store(init.index(), init, digest)
            .expect("free space exhausted (saturated-entry leak)");
        self.written.set(init.index());
        outcome
    }

    /// Digest matches whose byte comparison failed (true CRC collisions,
    /// Fig. 6).
    pub fn false_matches(&self) -> u64 {
        self.false_matches
    }

    /// Duplicates skipped due to reference saturation.
    pub fn saturated_skips(&self) -> u64 {
        self.kernel.hash.saturated_hits()
    }

    /// Where §III-C's colocated layout puts each encryption counter, in
    /// the order the layout tries the slots: line `l`'s address-map slot
    /// while address `l` is not remapped away from home, else its
    /// inverted slot while no content is resident in `l`, else the
    /// overflow table (both slots busy).
    pub fn colocation(&self) -> ColocationStats {
        let mut stats = ColocationStats {
            lines: self.lines(),
            no_counter: self.lines(),
            ..ColocationStats::default()
        };
        for (line, _) in self.kernel.counters.iter() {
            let l = LineAddr::new(line);
            stats.no_counter -= 1;
            if self.resolve(l).is_none_or(|real| real == l) {
                stats.counters_in_addr_map += 1;
            } else if self.digest_of(l).is_none() {
                stats.counters_in_inverted += 1;
            } else {
                stats.overflow_counters += 1;
            }
        }
        stats
    }

    /// Number of resident physical lines.
    pub fn resident_lines(&self) -> usize {
        self.kernel.inverted.len()
    }

    /// Free physical lines remaining.
    pub fn free_lines(&self) -> u64 {
        self.kernel.space.tree.free_lines()
    }

    /// Iterate over resident lines' reference counts (Fig. 7).
    pub fn reference_counts(&self) -> impl Iterator<Item = u8> + '_ {
        self.kernel.hash.iter().map(|(_, e)| e.reference)
    }

    /// Exhaustively check the index invariants (test/debug aid; O(lines)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.lines() {
            if self.written.get(i) != self.kernel.map.get(i).is_some() {
                return Err(format!("address {i}: written bit disagrees with the map"));
            }
        }
        self.kernel.check_invariants(self.lines())
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
    use crate::compare::lines_equal;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

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

    /// Confirm a write of `data` to `init` like a scheme does: byte-compare
    /// the [`OpenCandidates`] in bucket order, counting a false match per
    /// failed compare and a saturated skip when none matched past a
    /// saturated entry. Returns the match and the compares made.
    fn confirm(
        idx: &mut DedupIndex,
        shadow: &Shadow,
        init: u64,
        data: &[u8],
        digest: u64,
    ) -> (Option<LineAddr>, usize) {
        let open = idx.open_for(digest, l(init));
        for (compares, &real) in open.reals().iter().enumerate() {
            if lines_equal(&shadow.content(real), data) {
                return (Some(real), compares + 1);
            }
            idx.note_false_match();
        }
        if open.skipped_saturated {
            idx.note_saturated_skip();
        }
        (None, open.reals().len())
    }

    /// Drive a full write through confirm + apply, like a scheme would.
    fn write(
        idx: &mut DedupIndex,
        shadow: &mut Shadow,
        init: u64,
        data: &[u8],
        digest: u64,
    ) -> WriteOutcome {
        let outcome = match confirm(idx, shadow, init, data, digest).0 {
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
                in_place: false,
                counter: LineCounter::from_value(1),
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
                in_place: true,
                counter: LineCounter::from_value(2),
            }
        );
        // Stale hash was cleaned: old content no longer matches anywhere.
        assert_eq!(confirm(&mut idx, &sh, 5, b"old!", 1), (None, 0));
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
                ..
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
        assert_eq!(confirm(&mut idx, &sh, 1, b"bbbb", 42), (None, 1));
        assert_eq!(idx.false_matches(), 1);
        // Storing the colliding content keeps both in one bucket.
        idx.apply_store(l(1), 42);
        sh.store(l(1), b"bbbb");
        assert_eq!(confirm(&mut idx, &sh, 2, b"bbbb", 42), (Some(l(1)), 2));
        idx.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_rejects_a_wrong_open_list() {
        let mut idx = DedupIndex::new(16);
        let mut sh = Shadow::default();
        write(&mut idx, &mut sh, 0, b"aaaa", 42);
        write(&mut idx, &mut sh, 1, b"bbbb", 42);
        idx.check_invariants().unwrap();
        idx.kernel.hash.corrupt_open_list();
        let err = idx.check_invariants().unwrap_err();
        assert!(err.contains("open list"), "{err}");
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
            let (lo, hi) = idx.kernel.space.domain_range(domain);
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
        assert_eq!(idx.resident_lines(), 2);
        let refs: Vec<u8> = idx.reference_counts().collect();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs.iter().map(|&r| u64::from(r)).sum::<u64>(), 3);
    }

    #[test]
    fn colocation_tries_the_map_slot_then_the_inverted_slot_then_overflow() {
        let mut idx = DedupIndex::new(8);
        let mut sh = Shadow::default();
        // Address 5 moves to line 6 while address 0 still shares line 5's
        // content: both of line 5's slots are busy. Its detour through a
        // spare line leaves a counter on a line whose address is unwritten
        // (map slot). Address 1 leaves home for line 5, so line 1 keeps a
        // counter and no content (inverted slot). Line 0 is never stored.
        for (init, data, digest) in [
            (5, b"aaaa", 1),
            (0, b"aaaa", 1),
            (6, b"bbbb", 2),
            (5, b"bbbb", 2),
            (5, b"cccc", 3),
            (5, b"bbbb", 2),
            (1, b"dddd", 4),
            (1, b"aaaa", 1),
        ] {
            write(&mut idx, &mut sh, init, data, digest);
        }
        let stats = ColocationStats {
            lines: 8,
            counters_in_addr_map: 2, // line 6 and the spare
            counters_in_inverted: 1, // line 1
            overflow_counters: 1,    // line 5
            no_counter: 4,
        };
        assert_eq!(idx.colocation(), stats);
    }

    /// `snapshot` with `ops` applied in order, each an absolute assignment
    /// — what recovery does to a checkpoint.
    fn replay(snapshot: &Snapshot, ops: &[MetaOp]) -> Snapshot {
        let mut mappings: BTreeMap<_, _> = snapshot.mappings.iter().copied().collect();
        let mut residents: BTreeMap<_, _> = snapshot.residents.iter().copied().collect();
        let mut counters: BTreeMap<_, _> = snapshot.counters.iter().copied().collect();
        for &op in ops {
            match op {
                MetaOp::MapSet { init, real } => drop(mappings.insert(init, real)),
                MetaOp::ResidentSet { real, digest } => drop(residents.insert(real, digest)),
                MetaOp::ResidentDel { real } => drop(residents.remove(&real)),
                MetaOp::CounterSet { line, value } => drop(counters.insert(line, value)),
            }
        }
        Snapshot {
            mappings: mappings.into_iter().collect(),
            residents: residents.into_iter().collect(),
            counters: counters.into_iter().collect(),
            ..*snapshot
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Every commit of the simulator's source, replayed as its
        // `MetaOp`s onto the snapshot before it, gives the snapshot after
        // it, and leaves the index invariants intact. 300 writes of one
        // content saturate its first copy; then the script, over the last
        // 55 of its referrers, the 45 of its second copy and 100 fresh
        // addresses: half its writes are of that content (silent when the
        // address already holds it), a quarter of one of four shared
        // contents and a quarter of a content of its own (a sole owner,
        // overwritten in place when its address is written again).
        #[test]
        fn domain_space_commits_replay_to_the_next_snapshot(
            domains in 1u64..3,
            script in proptest::collection::vec((200u64..400, 0u64..16), 200..300),
        ) {
            let mut idx = DedupIndex::with_domains(640, domains);
            let mut before = Snapshot::capture(&idx, 0);
            let (mut silent_writes, mut in_place_writes) = (0, 0);
            let writes = (0..300).map(|init| (init, 0)).chain(script);
            for (step, (init, pick)) in writes.enumerate() {
                // The digest is the content: no collisions, so the first
                // live candidate in the domain is the duplicate.
                let digest = match pick {
                    0..=7 => 0,
                    8..=11 => pick - 7,
                    _ => 1000 + step as u64,
                };
                let init = l(init);
                let matched = idx
                    .candidates_for(digest, init)
                    .find(|e| e.reference != MAX_REFERENCE)
                    .map(|e| e.real);
                let outcome = match matched {
                    Some(real) => idx.apply_duplicate(init, real),
                    None => idx.apply_store(init, digest),
                };
                match outcome {
                    WriteOutcome::Duplicate { silent, .. } => silent_writes += u32::from(silent),
                    WriteOutcome::Stored { in_place, .. } => in_place_writes += u32::from(in_place),
                }
                let ops: Vec<_> = outcome
                    .meta_ops(init.index(), digest, LineAddr::index)
                    .collect();
                let after = Snapshot::capture(&idx, 0);
                prop_assert_eq!(&replay(&before, &ops), &after, "step {}", step);
                prop_assert_eq!(idx.check_invariants(), Ok(()));
                before = after;
            }
            prop_assert!(idx.reference_counts().any(|r| r == MAX_REFERENCE));
            prop_assert!(
                silent_writes > 0 && in_place_writes > 0,
                "{} silent, {} in place",
                silent_writes,
                in_place_writes
            );
        }
    }
}
