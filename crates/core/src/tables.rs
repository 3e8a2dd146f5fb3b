//! The four deduplication data structures (§III-B2), laid out flat.
//!
//! This module implements the *functional* layer of the tables — exact
//! contents and invariants. Timing (metadata-cache hits, NVM accesses,
//! prefetch) is layered on top by the scheme implementations, which mirror
//! every table operation with a cache access keyed by the entry index.
//!
//! * [`HashTable`] — digest → {realAddr, reference}; multiple entries per
//!   digest are possible (CRC-32 collisions) and references saturate at 255.
//! * [`AddrMap`] — initAddr → realAddr for every written address.
//! * [`InvertedTable`] — realAddr → digest, for cleaning stale hashes when a
//!   resident line is overwritten or freed.
//! * [`FreeSpaceTable`] — one bit per line; allocation prefers a caller-
//!   provided home line for locality.
//!
//! # Memory layout
//!
//! These structures sit on the critical write path of every simulated and
//! engine write, so they are flat, cache-line-friendly memory rather than
//! pointer-chasing maps (see DESIGN.md, "Flat table memory layout"):
//!
//! * [`HashTable`] is a SwissTable-style open-addressing table with **one
//!   slot per digest**: one control byte per slot (a 7-bit tag, or
//!   empty/tombstone), probed a 16-byte group at a time with a portable u64
//!   SWAR scan, the one scan on every host; at 7/8 of slots used it doubles
//!   if a tombstone purge would leave over 3/4 live, else purges in place.
//!   A one-entry bucket lives inline in its `{digest, real, reference}`
//!   slot; two or more entries (CRC collisions, saturated residues) spill
//!   to a contiguous side bucket that *is* the seed's `Vec` bucket — `push`
//!   on insert, `swap_remove` on delete — so candidate order, observable
//!   through match selection, is the seed's by construction.
//! * [`AddrMap`] is a dense `Vec<u64>` indexed by address with a
//!   never-written sentinel, and [`InvertedTable`] a dense `Box<[u64]>`
//!   indexed by `LineAddr` with a presence bitmap: the line space is
//!   bounded and known at construction, so no hashing at all.
//!
//! The seed map-backed implementations are retained in the test-only
//! `seed` module as oracles for the differential tests.

use dewrite_mem::hint;
use dewrite_nvm::LineAddr;

/// Saturation limit of the 8-bit reference field. Lines that reach it are
/// "highly referenced": further duplicates of their content are *not*
/// deduplicated, preventing overflow (§III-B2).
pub const MAX_REFERENCE: u8 = 255;

/// Upper bound on candidate lines byte-compared per duplicate confirmation
/// (§III-B2: bounded verify cost). The dedup logic is a fixed pipeline, not
/// a list walker: after this many mismatches the write is treated as
/// non-duplicate. Real CRC collisions make buckets of 2 at most; deeper
/// buckets only arise when a saturated content accumulates extra copies.
pub const MAX_CANDIDATE_COMPARES: usize = 4;

/// One hash-table entry: a resident line and its reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashEntry {
    /// The physical line holding the content.
    pub real: LineAddr,
    /// Number of initial addresses mapped to `real`.
    pub reference: u8,
}

/// Slots per probe group: two u64 SWAR words of control bytes.
const GROUP: usize = 16;
/// Control byte: slot has never held an entry (probe chains stop here).
const CTRL_EMPTY: u8 = 0x80;
/// Control byte: tombstone — the slot held an entry that was removed
/// (probe chains continue past it; inserts may reuse it).
const CTRL_DELETED: u8 = 0xFF;
/// Smallest table: 2 groups = 32 slots.
const MIN_GROUPS: usize = 2;
const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;
/// Exact per-lane "empty" bits (at bit `8k + 7`): the only control bytes
/// with the high bit set are `CTRL_EMPTY` (`0x80`, bit 0 clear) and
/// `CTRL_DELETED` (`0xFF`, bit 0 set), so high-and-not-low is empty.
#[inline]
fn swar_empty_bits(word: u64) -> u64 {
    (word & SWAR_HI) & !((word & SWAR_LO) << 7)
}

/// Per-lane hit bits (at bit `8k + 7`) for bytes of `word` equal to
/// `tag`, computed with the SWAR zero-byte trick. Lanes *above* a true
/// match may be false positives — callers verify every lane — but the
/// lowest set lane is always a true match and none is ever missed.
#[inline]
fn swar_match_bits(word: u64, tag: u8) -> u64 {
    let x = word ^ (SWAR_LO.wrapping_mul(u64::from(tag)));
    x.wrapping_sub(SWAR_LO) & !x & SWAR_HI
}

/// Candidate entries for one digest, in exact seed-bucket order
/// (insertion order perturbed by swap-remove deletes), owned — so callers
/// may mutate the table while they walk it. Dereferences to `[HashEntry]`.
///
/// A one-entry bucket is held without allocating; a larger one (same-digest
/// collisions, saturated residues) is copied to the heap. The write paths
/// use [`HashTable::open`] instead, which copies nothing.
#[derive(Debug, Clone)]
pub struct Candidates {
    one: Option<HashEntry>,
    many: Vec<HashEntry>,
}

impl Candidates {
    /// The candidates as a slice, in bucket order.
    #[inline]
    pub fn as_slice(&self) -> &[HashEntry] {
        match &self.one {
            Some(entry) => std::slice::from_ref(entry),
            None => &self.many,
        }
    }
}

impl std::ops::Deref for Candidates {
    type Target = [HashEntry];
    fn deref(&self) -> &[HashEntry] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Candidates {
    type Item = &'a HashEntry;
    type IntoIter = std::slice::Iter<'a, HashEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The entries of a bucket held as parallel arrays: entry `i` is
/// `{reals[i], refs[i]}`.
fn entries<'a>(
    (reals, refs): (&'a [u64], &'a [u8]),
) -> impl ExactSizeIterator<Item = HashEntry> + 'a {
    reals.iter().zip(refs).map(|(&real, &reference)| HashEntry {
        real: LineAddr::new(real),
        reference,
    })
}

/// One unsaturated entry of an [`OpenView`], carrying where it lives so
/// the commit ([`HashTable::add_reference_at`]) does not search again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenEntry {
    /// The physical line holding the content.
    pub real: LineAddr,
    /// Saturated entries before this one in bucket order — what a
    /// seed-order walk skips on its way here.
    pub saturated_before: u32,
    slot: usize,
    index: usize,
}

/// What a write needs of a bucket, with nothing copied and nothing
/// allocated: its first [`MAX_CANDIDATE_COMPARES`] unsaturated entries in
/// bucket order and its saturated total.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenView {
    entries: [OpenEntry; MAX_CANDIDATE_COMPARES],
    len: usize,
    /// Saturated entries in the whole bucket.
    pub saturated: u32,
}

impl OpenView {
    /// The unsaturated entries, in bucket order.
    #[inline]
    pub fn entries(&self) -> &[OpenEntry] {
        &self.entries[..self.len]
    }

    /// Saturated entries a seed-order walk skips when no entry of the view
    /// matches: a full view stops the walk at its last entry (the compare
    /// cap), a shorter one lets it run off the bucket's end.
    #[inline]
    pub fn saturated_walked(&self) -> u32 {
        if self.len == MAX_CANDIDATE_COMPARES {
            self.entries[self.len - 1].saturated_before
        } else {
            self.saturated
        }
    }
}

/// The digest-indexed duplicate-lookup table: SwissTable-style open
/// addressing with one slot per digest, a one-entry bucket inline in its
/// slot and a larger one in a contiguous side bucket (see module docs).
#[derive(Debug, Clone)]
pub struct HashTable {
    ctrl: Box<[u8]>,
    slots: Box<[Slot]>,
    groups: usize,
    /// Entries across all buckets.
    entries: usize,
    /// Full slots, i.e. digests present.
    live: usize,
    /// Slots that are not `CTRL_EMPTY` (full + tombstones) — the load the
    /// probe-termination guarantee depends on.
    used: usize,
    /// Spilled buckets, indexed by their slot's `real` field. Those listed
    /// in `side_free` are empty and keep their capacity for the next spill.
    side: Vec<SideBucket>,
    side_free: Vec<usize>,
    /// `real → index` within the spilled bucket that holds it, written
    /// only for spilled buckets and grown to the largest line seen there.
    /// A hint, verified against the bucket on every use: a line indexed
    /// under two digests at once (tests do this, the product cannot — the
    /// inverted table gives a line one digest) falls back to a scan.
    pos: Vec<u32>,
    collision_buckets: u64,
    saturated_hits: u64,
    #[cfg(test)]
    rehashes: Rehashes,
}

/// Every rehash one table has made, for the growth-rule tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct Rehashes {
    doublings: u64,
    /// Same-size rehashes, which only drop tombstones.
    purges: u64,
    /// Full slots re-placed, summed over all rehashes.
    moved: u64,
}

/// One slot's payload, array-of-structs so that verifying a probe hit and
/// reading a one-entry bucket touch one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    digest: u64,
    /// The bucket's only line, or its index in `side` when spilled.
    real: u64,
    reference: u8,
    spilled: bool,
}

/// A bucket of two or more entries, struct-of-arrays in exact seed order:
/// `push` on insert, `swap_remove` on delete.
#[derive(Debug, Clone, Default)]
struct SideBucket {
    reals: Vec<u64>,
    refs: Vec<u8>,
}

impl Default for HashTable {
    fn default() -> Self {
        Self::new()
    }
}

impl HashTable {
    /// An empty table.
    pub fn new() -> Self {
        let slots = MIN_GROUPS * GROUP;
        HashTable {
            ctrl: vec![CTRL_EMPTY; slots].into_boxed_slice(),
            slots: vec![Slot::default(); slots].into_boxed_slice(),
            groups: MIN_GROUPS,
            entries: 0,
            live: 0,
            used: 0,
            side: Vec::new(),
            side_free: Vec::new(),
            pos: Vec::new(),
            collision_buckets: 0,
            saturated_hits: 0,
            #[cfg(test)]
            rehashes: Rehashes::default(),
        }
    }

    /// `digest`'s 7-bit control tag (high bit clear, so full slots never
    /// look empty/deleted) and the group its probe chain starts in.
    #[inline]
    fn tag_and_start(&self, digest: u64) -> (u8, usize) {
        let h = digest.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (
            ((h >> 57) & 0x7F) as u8,
            ((h >> 32) as usize) & (self.groups - 1),
        )
    }

    /// Group `g`'s 16 control bytes, sliced with a single bounds check.
    #[inline]
    fn group(&self, g: usize) -> &[u8; GROUP] {
        self.ctrl[g * GROUP..][..GROUP]
            .try_into()
            .expect("16-byte group")
    }

    /// The two SWAR words of group `g`'s control bytes.
    #[inline]
    fn group_words(&self, g: usize) -> [u64; 2] {
        let bytes = self.group(g);
        [0, 8].map(|at| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")))
    }

    /// One-load SWAR lookup scan of group `g`: a candidate-lane mask per
    /// word (a hit bit at `8k + 7` per lane, a superset the caller verifies
    /// against the control byte — iterated directly, no gather multiply)
    /// and whether the group holds an empty (never-used) slot, exact —
    /// probe chains terminate in such a group.
    #[inline]
    fn scan_lookup(&self, g: usize, tag: u8) -> ([u64; 2], bool) {
        let words = self.group_words(g);
        (
            words.map(|w| swar_match_bits(w, tag)),
            words.iter().any(|&w| swar_empty_bits(w) != 0),
        )
    }

    /// The slot of `digest`, probing until it or the chain's terminating
    /// empty group.
    #[inline]
    fn find(&self, digest: u64) -> Option<usize> {
        let (tag, mut g) = self.tag_and_start(digest);
        let mut stride = 0usize;
        loop {
            let (words, has_empty) = self.scan_lookup(g, tag);
            for (w, mut hits) in words.into_iter().enumerate() {
                while hits != 0 {
                    let lane = (hits.trailing_zeros() >> 3) as usize;
                    hits &= hits - 1;
                    let slot = g * GROUP + w * 8 + lane;
                    if self.ctrl[slot] == tag && self.slots[slot].digest == digest {
                        return Some(slot);
                    }
                }
            }
            if has_empty {
                return None;
            }
            stride += 1;
            g = (g + stride) & (self.groups - 1);
        }
    }

    /// Host-side hint that `digest` is about to be probed, inserted or
    /// released: start fetching its home group's control bytes and, with
    /// `slots`, the group's slot lines too (a probe or a release reads the
    /// matching slot; an insert only writes one). Changes nothing.
    #[inline]
    pub fn prefetch(&self, digest: u64, slots: bool) {
        let (_, g) = self.tag_and_start(digest);
        hint::prefetch_read(&self.ctrl[g * GROUP]);
        if slots {
            let group = &self.slots[g * GROUP..(g + 1) * GROUP];
            // A line holds two and two-thirds 24-byte slots: every other
            // slot lands on each line, the last covers a straddle.
            for slot in group.iter().step_by(2) {
                hint::prefetch_read(slot);
            }
            hint::prefetch_read(&group[GROUP - 1]);
        }
    }

    /// `slot`'s bucket in seed order, borrowed as `(reals, refs)`: a
    /// one-entry bucket is its slot's inline fields, a larger one its side
    /// bucket.
    #[inline]
    fn bucket_at(&self, slot: usize) -> (&[u64], &[u8]) {
        let s = &self.slots[slot];
        if s.spilled {
            let side = &self.side[s.real as usize];
            (&side.reals, &side.refs)
        } else {
            (
                std::slice::from_ref(&s.real),
                std::slice::from_ref(&s.reference),
            )
        }
    }

    /// The entries of `digest`'s bucket in seed order, borrowed — nothing
    /// is copied (none if the digest is absent).
    #[inline]
    pub(crate) fn bucket(&self, digest: u64) -> impl ExactSizeIterator<Item = HashEntry> + '_ {
        entries(
            self.find(digest)
                .map_or((&[], &[]), |slot| self.bucket_at(slot)),
        )
    }

    /// All entries whose content hashes to `digest` (collision candidates),
    /// in exact seed-bucket order, owned.
    #[inline]
    pub fn candidates(&self, digest: u64) -> Candidates {
        let mut entries = self.bucket(digest);
        match entries.len() {
            1 => Candidates {
                one: entries.next(),
                many: Vec::new(),
            },
            _ => Candidates {
                one: None,
                many: entries.collect(),
            },
        }
    }

    /// The [`OpenView`] of `digest`'s bucket: one probe, then one pass over
    /// the bucket's reference bytes, a word at a time.
    #[inline]
    pub fn open(&self, digest: u64) -> OpenView {
        let mut view = OpenView::default();
        let Some(slot) = self.find(digest) else {
            return view;
        };
        let (reals, refs) = self.bucket_at(slot);
        let mut open = 0usize;
        let mut scan = |base: usize, refs: &[u8]| {
            for (i, _) in refs.iter().enumerate().filter(|(_, &r)| r != MAX_REFERENCE) {
                if open < MAX_CANDIDATE_COMPARES {
                    view.entries[open] = OpenEntry {
                        real: LineAddr::new(reals[base + i]),
                        saturated_before: (base + i - open) as u32,
                        slot,
                        index: base + i,
                    };
                }
                open += 1;
            }
        };
        let (words, tail) = refs.as_chunks::<8>();
        for (w, word) in words.iter().enumerate() {
            // A word of saturated entries is passed whole: one u64 compare.
            if *word != [MAX_REFERENCE; 8] {
                scan(w * 8, word);
            }
        }
        scan(words.len() * 8, tail);
        view.len = open.min(MAX_CANDIDATE_COMPARES);
        view.saturated = (refs.len() - open) as u32;
        view
    }

    /// Where `(digest, real)` lives: its slot and its index in the bucket.
    #[inline]
    fn locate(&self, digest: u64, real: u64) -> Option<(usize, usize)> {
        let slot = self.find(digest)?;
        let s = &self.slots[slot];
        if !s.spilled {
            return (s.real == real).then_some((slot, 0));
        }
        let reals = &self.side[s.real as usize].reals;
        let index = match self.pos.get(real as usize) {
            Some(&hint) if reals.get(hint as usize) == Some(&real) => hint as usize,
            _ => reals.iter().position(|&r| r == real)?,
        };
        Some((slot, index))
    }

    #[inline]
    fn reference_mut(&mut self, slot: usize, index: usize) -> &mut u8 {
        let s = &mut self.slots[slot];
        if s.spilled {
            &mut self.side[s.real as usize].refs[index]
        } else {
            &mut s.reference
        }
    }

    fn set_pos(&mut self, real: u64, index: usize) {
        let real = real as usize;
        if self.pos.len() <= real {
            self.pos.resize(real + 1, 0);
        }
        self.pos[real] = index as u32;
    }

    /// Grow (or retension, dropping tombstones) the slot arrays; side
    /// buckets stay where they are.
    fn rehash(&mut self, new_groups: usize) {
        #[cfg(test)]
        {
            if new_groups == self.groups {
                self.rehashes.purges += 1;
            } else {
                self.rehashes.doublings += 1;
            }
            self.rehashes.moved += self.live as u64;
        }
        let slots = new_groups * GROUP;
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![CTRL_EMPTY; slots].into());
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::default(); slots].into());
        self.groups = new_groups;
        self.used = self.live;
        for (&ctrl, slot) in old_ctrl.iter().zip(old_slots.iter()) {
            if ctrl & 0x80 == 0 {
                let (tag, start) = self.tag_and_start(slot.digest);
                let target = self.first_free_slot(start);
                self.ctrl[target] = tag;
                self.slots[target] = *slot;
            }
        }
    }

    /// First reusable (empty or tombstoned) slot on the probe chain from
    /// group `g`, for a digest known to be absent: at or before the chain's
    /// terminating group, so probes for it pass through no empty group first.
    fn first_free_slot(&self, mut g: usize) -> usize {
        let mut stride = 0usize;
        loop {
            // Free lanes are exactly the control high bits; no tag scan.
            for (w, word) in self.group_words(g).into_iter().enumerate() {
                let free = word & SWAR_HI;
                if free != 0 {
                    return g * GROUP + w * 8 + (free.trailing_zeros() >> 3) as usize;
                }
            }
            stride += 1;
            g = (g + stride) & (self.groups - 1);
        }
    }

    /// Insert with an explicit starting reference (recovery installs lines
    /// at 0 while mappings are being re-linked): `push` onto `digest`'s
    /// bucket — the seed's own step — spilling it when it reaches two
    /// entries, or claim a slot for a new digest.
    ///
    /// # Panics
    ///
    /// Panics if `real` is already present under `digest`.
    pub(crate) fn insert_with_reference(&mut self, digest: u64, real: LineAddr, reference: u8) {
        let real = real.index();
        self.entries += 1;
        let Some(slot) = self.find(digest) else {
            // Keep at least 1/8 of slots truly empty so probe chains
            // terminate and stay short. Double when a purge would leave
            // over 3/4 of the slots live: it would free under 1/8 of them
            // and fire again soon. Otherwise purge in place, reclaiming
            // over 1/8. Either way every rehash is amortised O(1).
            if (self.used + 1) * 8 > self.ctrl.len() * 7 {
                let new_groups = if (self.live + 1) * 4 > self.ctrl.len() * 3 {
                    self.groups * 2
                } else {
                    self.groups // tombstone purge only
                };
                self.rehash(new_groups);
            }
            let (tag, start) = self.tag_and_start(digest);
            let slot = self.first_free_slot(start);
            if self.ctrl[slot] == CTRL_EMPTY {
                self.used += 1;
            }
            self.live += 1;
            self.ctrl[slot] = tag;
            self.slots[slot] = Slot {
                digest,
                real,
                reference,
                spilled: false,
            };
            return;
        };
        assert!(
            !self.bucket_at(slot).0.contains(&real),
            "line {} already indexed under digest {digest:#x}",
            LineAddr::new(real)
        );
        let s = self.slots[slot];
        if s.spilled {
            let side = &mut self.side[s.real as usize];
            side.reals.push(real);
            side.refs.push(reference);
            let index = side.reals.len() - 1;
            self.set_pos(real, index);
        } else {
            // The bucket just reached two entries (seed: `bucket.len() == 2`).
            // A freed side bucket is empty but keeps its vectors' capacity,
            // so spill/fold churn stops allocating once warm.
            self.collision_buckets += 1;
            let id = self.side_free.pop().unwrap_or_else(|| {
                self.side.push(SideBucket::default());
                self.side.len() - 1
            });
            let bucket = &mut self.side[id];
            bucket.reals.extend([s.real, real]);
            bucket.refs.extend([s.reference, reference]);
            self.slots[slot].real = id as u64;
            self.slots[slot].spilled = true;
            self.set_pos(s.real, 0);
            self.set_pos(real, 1);
        }
    }

    /// Insert a new resident line with reference count 1.
    ///
    /// # Panics
    ///
    /// Panics if `real` is already present under `digest` — the caller must
    /// clean stale entries first (that is what the inverted table is for).
    pub fn insert(&mut self, digest: u64, real: LineAddr) {
        self.insert_with_reference(digest, real, 1);
    }

    fn bump(&mut self, slot: usize, index: usize) -> bool {
        let reference = self.reference_mut(slot, index);
        if *reference == MAX_REFERENCE {
            self.saturated_hits += 1;
            return false;
        }
        *reference += 1;
        true
    }

    /// Increment the reference of `real` under `digest`. Returns `false`
    /// (and changes nothing) if the reference is saturated.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist.
    pub fn add_reference(&mut self, digest: u64, real: LineAddr) -> bool {
        let (slot, index) = self
            .locate(digest, real.index())
            .expect("add_reference on missing hash entry");
        self.bump(slot, index)
    }

    /// [`add_reference`](Self::add_reference) for an entry of an
    /// [`OpenView`] taken since the table was last mutated: no search.
    ///
    /// # Panics
    ///
    /// Panics if the table has changed under the view.
    pub fn add_reference_at(&mut self, at: OpenEntry) -> bool {
        assert!(
            self.ctrl[at.slot] & 0x80 == 0
                && self.bucket_at(at.slot).0.get(at.index) == Some(&at.real.index()),
            "open view of line {} outlived a table mutation",
            at.real
        );
        self.bump(at.slot, at.index)
    }

    /// The entry of `real` under `digest` as an [`OpenEntry`] for
    /// [`add_reference_at`](Self::add_reference_at), found by the one
    /// search [`add_reference`](Self::add_reference) makes. Its
    /// `saturated_before` is not counted and reads 0.
    pub fn entry(&self, digest: u64, real: LineAddr) -> Option<OpenEntry> {
        let (slot, index) = self.locate(digest, real.index())?;
        Some(OpenEntry {
            real,
            saturated_before: 0,
            slot,
            index,
        })
    }

    /// Delete entry `index` of `slot`'s bucket — `swap_remove`, the seed's
    /// own step — folding a bucket back into its slot when one entry is
    /// left and freeing the slot when none is.
    ///
    /// A freed slot goes back to never-used when its group still has a
    /// never-used lane: groups are aligned and a lane only returns to
    /// never-used here, so such a group has had one since the last rehash,
    /// every probe that reached it stopped in it, and nothing was ever
    /// placed past it — no chain runs through the lane. A group that has
    /// been full keeps its tombstones until a rehash, as probes may have
    /// passed. Without this, insert/delete churn at constant population
    /// eats never-used lanes until a same-size purge rehash.
    fn remove_at(&mut self, slot: usize, index: usize) {
        self.entries -= 1;
        let s = self.slots[slot];
        if !s.spilled {
            let has_empty = self
                .group_words(slot / GROUP)
                .iter()
                .any(|&w| swar_empty_bits(w) != 0);
            if has_empty {
                self.ctrl[slot] = CTRL_EMPTY;
                self.used -= 1;
            } else {
                self.ctrl[slot] = CTRL_DELETED;
            }
            self.live -= 1;
            return;
        }
        let id = s.real as usize;
        let side = &mut self.side[id];
        side.reals.swap_remove(index);
        side.refs.swap_remove(index);
        if side.reals.len() == 1 {
            self.slots[slot] = Slot {
                digest: s.digest,
                real: side.reals[0],
                reference: side.refs[0],
                spilled: false,
            };
            side.reals.clear();
            side.refs.clear();
            self.side_free.push(id);
        } else if let Some(&moved) = side.reals.get(index) {
            self.pos[moved as usize] = index as u32;
        }
    }

    /// Decrement the reference of `real` under `digest`. Returns the new
    /// count; at zero the entry is removed and the line can be freed.
    /// Saturated entries stay saturated (their true count is unknown).
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist.
    pub fn release_reference(&mut self, digest: u64, real: LineAddr) -> u8 {
        let (slot, index) = self
            .locate(digest, real.index())
            .expect("release_reference on missing hash entry");
        let reference = self.reference_mut(slot, index);
        if *reference == MAX_REFERENCE {
            return MAX_REFERENCE;
        }
        *reference -= 1;
        let remaining = *reference;
        if remaining == 0 {
            self.remove_at(slot, index);
        }
        remaining
    }

    /// Remove the entry for `real` under `digest` regardless of references
    /// (used when the owner's content is overwritten and nobody references
    /// it anymore).
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist.
    pub fn remove(&mut self, digest: u64, real: LineAddr) {
        let (slot, index) = self
            .locate(digest, real.index())
            .expect("remove on missing hash entry");
        self.remove_at(slot, index);
    }

    /// The reference count of `real` under `digest`, if present.
    #[inline]
    pub fn reference(&self, digest: u64, real: LineAddr) -> Option<u8> {
        let (slot, index) = self.locate(digest, real.index())?;
        Some(self.bucket_at(slot).1[index])
    }

    /// Total entries across all buckets.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Buckets that ever held ≥2 entries (digest collisions, Fig. 6).
    pub fn collision_buckets(&self) -> u64 {
        self.collision_buckets
    }

    /// Duplicate detections skipped because the entry was saturated.
    pub fn saturated_hits(&self) -> u64 {
        self.saturated_hits
    }

    /// Record `n` duplicates of saturated entries declined without going
    /// through [`add_reference`](Self::add_reference).
    pub(crate) fn note_saturated_hits(&mut self, n: u64) {
        self.saturated_hits += n;
    }

    /// Iterate over `(digest, entry)` pairs (reference-count distribution,
    /// Fig. 7). Slot order, which is not meaningful — like the seed's map
    /// iteration order was not.
    pub fn iter(&self) -> impl Iterator<Item = (u64, HashEntry)> + '_ {
        (0..self.ctrl.len())
            .filter(|&slot| self.ctrl[slot] & 0x80 == 0)
            .flat_map(|slot| {
                let digest = self.slots[slot].digest;
                entries(self.bucket_at(slot)).map(move |e| (digest, e))
            })
    }
}

/// One-bit-per-index presence bitmap for the dense tables.
#[derive(Debug, Clone)]
pub(crate) struct PresenceBitmap {
    words: Box<[u64]>,
}

impl PresenceBitmap {
    pub(crate) fn new(len: u64) -> Self {
        PresenceBitmap {
            words: vec![0u64; (len as usize).div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, idx: u64) -> bool {
        self.words[(idx >> 6) as usize] & (1u64 << (idx & 63)) != 0
    }

    /// Set the bit; returns whether it was newly set.
    #[inline]
    pub(crate) fn set(&mut self, idx: u64) -> bool {
        let word = &mut self.words[(idx >> 6) as usize];
        let bit = 1u64 << (idx & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Clear the bit; returns whether it was set.
    #[inline]
    pub(crate) fn clear(&mut self, idx: u64) -> bool {
        let word = &mut self.words[(idx >> 6) as usize];
        let bit = 1u64 << (idx & 63);
        let was = *word & bit != 0;
        *word &= !bit;
        was
    }
}

/// [`AddrMap`]'s sentinel: the address has never been written.
const UNMAPPED: u64 = u64::MAX;

/// The initAddr → realAddr map of every written address.
///
/// A dense `Vec<u64>` indexed by address, with a sentinel for the
/// never-written ones: an identity mapping is stored like any other, so
/// presence alone says whether an address holds data. Pre-sized to the
/// line space and grown on demand past it (a shard indexes it by
/// `addr / shards`, which an address space larger than its arena outruns).
#[derive(Debug, Clone)]
pub struct AddrMap {
    real: Vec<u64>,
}

impl AddrMap {
    /// An empty map pre-sized for `len` addresses.
    pub fn new(len: u64) -> Self {
        AddrMap {
            real: vec![UNMAPPED; len as usize],
        }
    }

    /// The line `idx` maps to, or `None` if it was never written.
    #[inline]
    pub fn get(&self, idx: u64) -> Option<LineAddr> {
        self.real
            .get(idx as usize)
            .copied()
            .filter(|&real| real != UNMAPPED)
            .map(LineAddr::new)
    }

    /// Map `idx` to `real`, growing the map if `idx` lies past its end.
    #[inline]
    pub fn set(&mut self, idx: u64, real: LineAddr) {
        let idx = idx as usize;
        if idx >= self.real.len() {
            self.real.resize(idx + 1, UNMAPPED);
        }
        self.real[idx] = real.index();
    }

    /// Addresses the map spans: its pre-sized length, or more once grown.
    pub fn span(&self) -> u64 {
        self.real.len() as u64
    }

    /// Every written address and the line it maps to, in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, LineAddr)> + '_ {
        (0u64..)
            .zip(&self.real)
            .filter(|&(_, &real)| real != UNMAPPED)
            .map(|(idx, &real)| (idx, LineAddr::new(real)))
    }
}

/// The realAddr → digest table for stale-hash cleaning.
///
/// Dense `Box<[u64]>` indexed by `LineAddr` with a presence bitmap.
#[derive(Debug, Clone)]
pub struct InvertedTable {
    digest: Box<[u64]>,
    present: PresenceBitmap,
    len: usize,
}

impl InvertedTable {
    /// An empty table over `lines` physical lines.
    pub fn new(lines: u64) -> Self {
        InvertedTable {
            digest: vec![0u64; lines as usize].into_boxed_slice(),
            present: PresenceBitmap::new(lines),
            len: 0,
        }
    }

    /// The digest of the content resident at `real`, if any.
    pub fn digest_of(&self, real: LineAddr) -> Option<u64> {
        let idx = real.index();
        if self.present.get(idx) {
            Some(self.digest[idx as usize])
        } else {
            None
        }
    }

    /// Host-side hint that `real`'s row is about to be read or written.
    /// Changes nothing; an out-of-range `real` is ignored.
    #[inline]
    pub fn prefetch(&self, real: LineAddr) {
        if let Some(row) = self.digest.get(real.index() as usize) {
            hint::prefetch_read(row);
        }
    }

    /// Record that `real` now holds content with `digest`.
    pub fn set(&mut self, real: LineAddr, digest: u64) {
        let idx = real.index();
        self.digest[idx as usize] = digest;
        if self.present.set(idx) {
            self.len += 1;
        }
    }

    /// Clear the record for `real` (line freed). Returns the stale digest.
    pub fn clear(&mut self, real: LineAddr) -> Option<u64> {
        let idx = real.index();
        if self.present.clear(idx) {
            self.len -= 1;
            Some(self.digest[idx as usize])
        } else {
            None
        }
    }

    /// Number of resident (hash-indexed) lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lines are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The free-space bitmap (1 bit per line).
#[derive(Debug, Clone)]
pub struct FreeSpaceTable {
    // true = free
    free: Vec<bool>,
    free_count: u64,
}

impl FreeSpaceTable {
    /// All `lines` start free.
    pub fn new(lines: u64) -> Self {
        FreeSpaceTable {
            free: vec![true; lines as usize],
            free_count: lines,
        }
    }

    /// Number of lines tracked.
    pub fn lines(&self) -> u64 {
        self.free.len() as u64
    }

    /// Number of free lines.
    pub fn free_lines(&self) -> u64 {
        self.free_count
    }

    /// Whether `line` is free.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn is_free(&self, line: LineAddr) -> bool {
        self.free[line.index() as usize]
    }

    /// Mark `line` occupied.
    pub fn occupy(&mut self, line: LineAddr) {
        let slot = &mut self.free[line.index() as usize];
        if *slot {
            *slot = false;
            self.free_count -= 1;
        }
    }

    /// Mark `line` free.
    pub fn release(&mut self, line: LineAddr) {
        let slot = &mut self.free[line.index() as usize];
        if !*slot {
            *slot = true;
            self.free_count += 1;
        }
    }

    /// Allocate a line, preferring `home` if free, otherwise scanning
    /// outward from it (preserves locality as the sequential tables assume).
    /// Returns `None` when memory is exhausted.
    pub fn allocate(&mut self, home: LineAddr) -> Option<LineAddr> {
        self.allocate_within(home, 0, self.free.len() as u64)
    }

    /// Allocate within the half-open range `[lo, hi)` only, preferring
    /// `home` (which must lie in the range). Used by per-tenant dedup
    /// domains so relocated lines never leave their domain.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, out of bounds, or excludes `home`.
    pub fn allocate_within(&mut self, home: LineAddr, lo: u64, hi: u64) -> Option<LineAddr> {
        assert!(
            lo < hi && hi <= self.free.len() as u64,
            "bad range {lo}..{hi}"
        );
        assert!(
            (lo..hi).contains(&home.index()),
            "home {home} outside range {lo}..{hi}"
        );
        let span = hi - lo;
        let start = home.index();
        for offset in 0..span {
            let idx = lo + ((start - lo) + offset) % span;
            if self.free[idx as usize] {
                self.occupy(LineAddr::new(idx));
                return Some(LineAddr::new(idx));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    // ---- HashTable ----

    #[test]
    fn hash_insert_and_candidates() {
        let mut t = HashTable::new();
        assert!(t.candidates(0xAB).is_empty());
        t.insert(0xAB, l(3));
        assert_eq!(
            t.candidates(0xAB).as_slice(),
            &[HashEntry {
                real: l(3),
                reference: 1
            }]
        );
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn hash_collisions_share_a_bucket() {
        let mut t = HashTable::new();
        t.insert(0xAB, l(1));
        t.insert(0xAB, l(2)); // different content, same digest
        assert_eq!(t.candidates(0xAB).len(), 2);
        assert_eq!(t.collision_buckets(), 1);
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn hash_double_insert_rejected() {
        let mut t = HashTable::new();
        t.insert(0xAB, l(1));
        t.insert(0xAB, l(1));
    }

    #[test]
    fn references_count_up_and_down() {
        let mut t = HashTable::new();
        t.insert(7, l(9));
        assert!(t.add_reference(7, l(9)));
        assert_eq!(t.reference(7, l(9)), Some(2));
        assert_eq!(t.release_reference(7, l(9)), 1);
        assert_eq!(t.release_reference(7, l(9)), 0);
        assert!(t.candidates(7).is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn references_saturate_at_255() {
        let mut t = HashTable::new();
        t.insert(1, l(0));
        for _ in 0..(MAX_REFERENCE as usize - 1) {
            assert!(t.add_reference(1, l(0)));
        }
        assert_eq!(t.reference(1, l(0)), Some(MAX_REFERENCE));
        // Saturated: further duplicates are rejected and counted.
        assert!(!t.add_reference(1, l(0)));
        assert_eq!(t.saturated_hits(), 1);
        // Saturated entries never decrement (true count unknown).
        assert_eq!(t.release_reference(1, l(0)), MAX_REFERENCE);
        assert_eq!(t.reference(1, l(0)), Some(MAX_REFERENCE));
    }

    #[test]
    fn remove_deletes_regardless_of_reference() {
        let mut t = HashTable::new();
        t.insert(5, l(2));
        t.add_reference(5, l(2));
        t.remove(5, l(2));
        assert!(t.candidates(5).is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut t = HashTable::new();
        t.insert(1, l(10));
        t.insert(2, l(20));
        t.insert(2, l(21));
        let mut seen: Vec<(u64, u64)> = t.iter().map(|(d, e)| (d, e.real.index())).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 10), (2, 20), (2, 21)]);
    }

    #[test]
    fn growth_keeps_every_entry_findable() {
        // Far past the initial 32-slot capacity, through several rehashes,
        // with colliding digests to stress shared probe chains.
        let mut t = HashTable::new();
        for i in 0..2000u64 {
            t.insert(u64::from(i as u32 % 257), l(i));
        }
        assert_eq!(t.len(), 2000);
        for i in 0..2000u64 {
            assert_eq!(
                t.reference(u64::from(i as u32 % 257), l(i)),
                Some(1),
                "i={i}"
            );
        }
        for d in 0..257u64 {
            let n = t.candidates(d).len();
            assert!((7..=8).contains(&n), "digest {d} has {n} candidates");
        }
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        let mut t = HashTable::new();
        // Build a long shared chain, punch holes in the middle, then
        // verify the tail is still reachable and ordered.
        for i in 0..20u64 {
            t.insert(7, l(i));
        }
        for i in (0..20u64).step_by(2) {
            t.remove(7, l(i));
        }
        assert_eq!(t.candidates(7).len(), 10);
        for i in (1..20u64).step_by(2) {
            assert_eq!(t.reference(7, l(i)), Some(1), "i={i}");
        }
        // Reinserting reuses tombstoned slots without losing anyone.
        for i in 100..110u64 {
            t.insert(7, l(i));
        }
        assert_eq!(t.candidates(7).len(), 20);
    }

    #[test]
    fn churn_at_constant_population_never_forces_a_purge_rehash() {
        // 1 000 live digests; each pair inserts a fresh one and releases a
        // random live one. Tombstoning every freed slot walks `used` up to
        // the 7/8 threshold and purges every few ten thousand pairs.
        const LIVE: u64 = 1_000;
        let digest = |i: u64| i.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 7;
        let mut t = HashTable::new();
        let mut live: Vec<u64> = (0..LIVE).collect();
        for &i in &live {
            t.insert(digest(i), l(i));
        }
        let slots = t.ctrl.len();
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in LIVE..LIVE + 200_000 {
            t.insert(digest(i), l(i));
            live.push(i);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let gone = live.swap_remove((x % live.len() as u64) as usize);
            assert_eq!(t.release_reference(digest(gone), l(gone)), 0);
            assert_eq!(t.reference(digest(gone), l(gone)), None);
            assert_eq!(t.ctrl.len(), slots, "pair {i}: table resized");
            assert!(
                (t.used + 1) * 8 <= slots * 7,
                "pair {i}: {} of {slots} slots used, the next insert purges",
                t.used
            );
            if i % 1_000 == 0 {
                for &kept in &live {
                    assert_eq!(t.reference(digest(kept), l(kept)), Some(1), "pair {i}");
                }
            }
        }
        assert_eq!(t.len(), LIVE as usize);
    }

    /// Insert/remove churn for the growth-rule tests: an ascending set of
    /// keys is inserted first, then fresh keys come in and random live
    /// ones go out.
    struct Churn {
        table: HashTable,
        live: Vec<u64>,
        next: u64,
        x: u64,
    }

    impl Churn {
        fn digest(key: u64) -> u64 {
            key.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 7
        }

        fn new(keys: Vec<u64>) -> Self {
            let mut table = HashTable::new();
            for &key in &keys {
                table.insert(Self::digest(key), l(key));
            }
            Churn {
                table,
                next: keys.last().map_or(0, |&key| key + 1),
                live: keys,
                x: 0x1234_5678_9abc_def0,
            }
        }

        /// The next xorshift draw.
        fn roll(&mut self) -> u64 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            self.x
        }

        fn insert_fresh(&mut self) {
            let key = self.next;
            self.next += 1;
            self.table.insert(Self::digest(key), l(key));
            self.live.push(key);
        }

        /// Release a random live key.
        fn remove_one(&mut self) {
            let pick = self.roll() % self.live.len() as u64;
            let gone = self.live.swap_remove(pick as usize);
            assert_eq!(self.table.release_reference(Self::digest(gone), l(gone)), 0);
        }

        /// Run `pairs` insert/remove pairs at constant population; `check`
        /// sees the table after each one.
        fn pairs(&mut self, pairs: u64, mut check: impl FnMut(&HashTable, u64)) {
            for pair in 0..pairs {
                self.insert_fresh();
                self.remove_one();
                check(&self.table, pair);
            }
        }

        fn assert_live_findable(&self) {
            for &key in &self.live {
                assert_eq!(self.table.reference(Self::digest(key), l(key)), Some(1));
            }
            assert_eq!(self.table.len(), self.live.len());
        }
    }

    #[test]
    fn churn_above_three_quarters_doubles_once_and_never_purges() {
        // 1 638 live digests in 2 048 slots, between 3/4 and 7/8 full. A
        // purge here frees only the few tombstones left since the last
        // one, so it would fire again within a few pairs.
        const LIVE: u64 = 1_638;
        let mut churn = Churn::new((0..LIVE).collect());
        let slots = churn.table.ctrl.len();
        assert_eq!(slots, 2_048);
        assert!(LIVE as usize * 4 > slots * 3 && LIVE as usize * 8 < slots * 7);
        let before = churn.table.rehashes;
        assert_eq!(before.purges, 0, "filling never purges");
        churn.pairs(100_000, |t, pair| {
            assert_eq!(t.rehashes.purges, 0, "pair {pair}: same-size purge");
            assert!(
                t.rehashes.doublings - before.doublings <= 1,
                "pair {pair}: doubled twice at constant population"
            );
        });
        churn.assert_live_findable();
    }

    #[test]
    fn churn_at_a_quarter_purges_in_place_and_never_grows() {
        // Fill 2 048 slots to 7/8 with digests that all start probing in
        // group 0, so their chain's groups fill completely, then drop to
        // 512 live: every removal leaves a tombstone. The first fresh
        // digest to land on a never-used lane then finds 7/8 of the slots
        // used at 1/4 live, and the table must purge, not grow.
        let mut sized = HashTable::new();
        sized.rehash(2_048 / GROUP);
        let homed: Vec<u64> = (0..)
            .filter(|&key| sized.tag_and_start(Churn::digest(key)).1 == 0)
            .take(1_792)
            .collect();
        let mut churn = Churn::new(homed);
        let slots = churn.table.ctrl.len();
        assert_eq!(slots, 2_048);
        while churn.live.len() > slots / 4 {
            churn.remove_one();
        }
        assert_eq!(churn.table.used, 1_792, "a removal un-used a lane");
        let doublings = churn.table.rehashes.doublings;
        churn.pairs(1_000_000, |t, pair| {
            assert_eq!(t.ctrl.len(), slots, "pair {pair}: table resized");
        });
        assert_eq!(churn.table.rehashes.doublings, doublings);
        assert!(churn.table.rehashes.purges > 0, "no tombstone was purged");
        churn.assert_live_findable();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn rehash_work_is_amortised_over_inserts_and_removes(
            phases in proptest::collection::vec((0u32..3_000, 0u64..=8), 1..6),
            seed in any::<u64>(),
        ) {
            // Each phase runs `steps` steps that insert a fresh key with
            // probability `eighths / 8` and otherwise remove a random live
            // one: climbs, plateaus at any load and drains, in any order.
            let mut churn = Churn::new(Vec::new());
            churn.x = seed | 1;
            let mut ops = 0u64;
            for (steps, eighths) in phases {
                for _ in 0..steps {
                    if churn.roll() % 8 < eighths {
                        churn.insert_fresh();
                    } else if !churn.live.is_empty() {
                        churn.remove_one();
                    } else {
                        continue;
                    }
                    ops += 1;
                    let moved = churn.table.rehashes.moved;
                    prop_assert!(
                        moved <= 8 * ops,
                        "{moved} slots moved by rehashes after {ops} inserts and removes"
                    );
                }
            }
            churn.assert_live_findable();
        }
    }

    #[test]
    fn candidate_order_matches_seed_swap_remove_semantics() {
        // Seed: bucket [a b c d], swap_remove(b) -> [a d c]. The flat
        // table must reproduce that exact order.
        let mut t = HashTable::new();
        for i in 0..4u64 {
            t.insert(9, l(i));
        }
        t.remove(9, l(1));
        let order: Vec<u64> = t.candidates(9).iter().map(|e| e.real.index()).collect();
        assert_eq!(order, vec![0, 3, 2]);
        // Removing the (current) last entry moves nobody.
        t.remove(9, l(2));
        let order: Vec<u64> = t.candidates(9).iter().map(|e| e.real.index()).collect();
        assert_eq!(order, vec![0, 3]);
    }

    // ---- differential proptests vs the seed oracles -------------------

    /// One randomized hash-table op.
    #[derive(Debug, Clone)]
    enum HashOp {
        Insert(u64, u64),
        InsertWithRef(u64, u64, u8),
        AddRef(u64, u64),
        Release(u64, u64),
        Remove(u64, u64),
    }

    fn hash_op_strategy() -> impl Strategy<Value = HashOp> {
        // Tiny digest/line spaces force collisions, shared chains, and
        // repeated remove/reinsert of the same keys.
        let d = 0u64..4;
        let r = 0u64..12;
        prop_oneof![
            (d.clone(), r.clone()).prop_map(|(d, r)| HashOp::Insert(d, r)),
            (
                d.clone(),
                r.clone(),
                prop_oneof![Just(0u8), Just(1), Just(254), Just(255)]
            )
                .prop_map(|(d, r, c)| HashOp::InsertWithRef(d, r, c)),
            (d.clone(), r.clone()).prop_map(|(d, r)| HashOp::AddRef(d, r)),
            (d.clone(), r.clone()).prop_map(|(d, r)| HashOp::Release(d, r)),
            (d, r).prop_map(|(d, r)| HashOp::Remove(d, r)),
        ]
    }

    /// Observable state must match the seed oracle after *every* op:
    /// candidate order, reference counts, len, and all statistics.
    fn assert_hash_tables_agree(seed: &crate::seed::SeedHashTable, flat: &HashTable) {
        assert_eq!(seed.len(), flat.len());
        assert_eq!(seed.is_empty(), flat.is_empty());
        assert_eq!(seed.collision_buckets(), flat.collision_buckets());
        assert_eq!(seed.saturated_hits(), flat.saturated_hits());
        for d in 0..4u64 {
            assert_eq!(
                seed.candidates(d),
                flat.candidates(d).as_slice(),
                "candidate order for digest {d}"
            );
            for r in 0..12u64 {
                assert_eq!(seed.reference(d, l(r)), flat.reference(d, l(r)));
            }
        }
    }

    proptest! {
        #[test]
        fn hash_table_matches_seed_oracle(ops in proptest::collection::vec(hash_op_strategy(), 0..120)) {
            let mut seed = crate::seed::SeedHashTable::new();
            let mut flat = HashTable::new();
            for op in ops {
                match op {
                    HashOp::Insert(d, r) => {
                        if seed.reference(d, l(r)).is_none() {
                            seed.insert(d, l(r));
                            flat.insert(d, l(r));
                        }
                    }
                    HashOp::InsertWithRef(d, r, c) => {
                        if seed.reference(d, l(r)).is_none() {
                            seed.insert_with_reference(d, l(r), c);
                            flat.insert_with_reference(d, l(r), c);
                        }
                    }
                    HashOp::AddRef(d, r) => {
                        if seed.reference(d, l(r)).is_some() {
                            prop_assert_eq!(seed.add_reference(d, l(r)), flat.add_reference(d, l(r)));
                        }
                    }
                    HashOp::Release(d, r) => {
                        // Reference 0 is a transient recovery state; the
                        // product re-links (add_reference) before anything
                        // can release, so releasing at 0 is out of model.
                        if seed.reference(d, l(r)).is_some_and(|c| c > 0) {
                            prop_assert_eq!(
                                seed.release_reference(d, l(r)),
                                flat.release_reference(d, l(r))
                            );
                        }
                    }
                    HashOp::Remove(d, r) => {
                        if seed.reference(d, l(r)).is_some() {
                            seed.remove(d, l(r));
                            flat.remove(d, l(r));
                        }
                    }
                }
                assert_hash_tables_agree(&seed, &flat);
            }
        }

        #[test]
        fn hash_table_matches_seed_through_saturation(extra in 0usize..40) {
            // Drive one entry to 255 and beyond: saturation behavior
            // (rejected add_reference, sticky release) must match exactly.
            let mut seed = crate::seed::SeedHashTable::new();
            let mut flat = HashTable::new();
            seed.insert(1, l(0));
            flat.insert(1, l(0));
            for _ in 0..(MAX_REFERENCE as usize - 1 + extra) {
                prop_assert_eq!(seed.add_reference(1, l(0)), flat.add_reference(1, l(0)));
            }
            prop_assert_eq!(seed.release_reference(1, l(0)), flat.release_reference(1, l(0)));
            assert_hash_tables_agree(&seed, &flat);
        }

        #[test]
        fn inverted_matches_seed_oracle(
            ops in proptest::collection::vec((0u64..32, 0u64..8, any::<bool>()), 0..200)
        ) {
            let mut seed = crate::seed::SeedInvertedTable::new();
            let mut flat = InvertedTable::new(32);
            for (real, digest, set) in ops {
                if set {
                    seed.set(l(real), digest);
                    flat.set(l(real), digest);
                } else {
                    prop_assert_eq!(seed.clear(l(real)), flat.clear(l(real)));
                }
                prop_assert_eq!(seed.len(), flat.len());
                for i in 0..32u64 {
                    prop_assert_eq!(seed.digest_of(l(i)), flat.digest_of(l(i)));
                }
            }
        }
    }

    // ---- long saturated chains vs the seed oracle ---------------------

    /// Line space of the long-chain differential: one digest's bucket can
    /// grow past 300 entries.
    const CHAIN_LINES: u64 = 320;

    fn chain_op_strategy() -> impl Strategy<Value = HashOp> {
        // Two digests over a wide line space. Most inserts arrive saturated
        // and some one short of it (an `AddRef` then saturates them in
        // place), so saturated and open entries interleave and
        // `swap_remove` moves saturated entries into holes.
        let d = 0u64..2;
        let r = 0u64..CHAIN_LINES;
        let arriving = || prop_oneof![Just(255u8), Just(255), Just(255), Just(254), Just(0)];
        prop_oneof![
            (d.clone(), r.clone(), arriving()).prop_map(|(d, r, c)| HashOp::InsertWithRef(d, r, c)),
            (d.clone(), r.clone(), arriving()).prop_map(|(d, r, c)| HashOp::InsertWithRef(d, r, c)),
            (d.clone(), r.clone()).prop_map(|(d, r)| HashOp::Insert(d, r)),
            (d.clone(), r.clone()).prop_map(|(d, r)| HashOp::AddRef(d, r)),
            (d.clone(), r.clone()).prop_map(|(d, r)| HashOp::Release(d, r)),
            (d, r).prop_map(|(d, r)| HashOp::Remove(d, r)),
        ]
    }

    /// What [`HashTable::open`] must return for a seed bucket: its first
    /// four unsaturated entries, each with the count of saturated entries
    /// before it, and the saturated total.
    fn open_view_of(bucket: &[HashEntry]) -> (Vec<(LineAddr, u32)>, u32) {
        let mut open = Vec::new();
        let mut saturated = 0;
        for e in bucket {
            if e.reference == MAX_REFERENCE {
                saturated += 1;
            } else if open.len() < MAX_CANDIDATE_COMPARES {
                open.push((e.real, saturated));
            }
        }
        (open, saturated)
    }

    /// Every observable of `digest`'s bucket, and the table-wide counters,
    /// against the seed oracle.
    fn assert_chain_agrees(seed: &crate::seed::SeedHashTable, flat: &HashTable, digest: u64) {
        assert_eq!(seed.len(), flat.len());
        assert_eq!(seed.collision_buckets(), flat.collision_buckets());
        assert_eq!(seed.saturated_hits(), flat.saturated_hits());
        let bucket = seed.candidates(digest);
        assert_eq!(bucket, flat.candidates(digest).as_slice());
        let mut expected = vec![None; CHAIN_LINES as usize];
        for e in bucket {
            expected[e.real.index() as usize] = Some(e.reference);
        }
        for r in 0..CHAIN_LINES {
            assert_eq!(
                flat.reference(digest, l(r)),
                expected[r as usize],
                "line {r}"
            );
        }
        let view = flat.open(digest);
        let entries: Vec<_> = view
            .entries()
            .iter()
            .map(|e| (e.real, e.saturated_before))
            .collect();
        assert_eq!((entries, view.saturated), open_view_of(bucket));
    }

    /// Apply `op` to both tables where the seed's state allows it, taking
    /// the open-view cursor for the commit when the line is in the view.
    fn apply_chain_op(seed: &mut crate::seed::SeedHashTable, flat: &mut HashTable, op: &HashOp) {
        match *op {
            HashOp::Insert(d, r) if seed.reference(d, l(r)).is_none() => {
                seed.insert(d, l(r));
                flat.insert(d, l(r));
            }
            HashOp::InsertWithRef(d, r, c) if seed.reference(d, l(r)).is_none() => {
                seed.insert_with_reference(d, l(r), c);
                flat.insert_with_reference(d, l(r), c);
            }
            HashOp::AddRef(d, r) if seed.reference(d, l(r)).is_some() => {
                let view = flat.open(d);
                let added = match view.entries().iter().find(|e| e.real == l(r)) {
                    Some(&at) => flat.add_reference_at(at),
                    None => flat.add_reference(d, l(r)),
                };
                assert_eq!(seed.add_reference(d, l(r)), added);
            }
            // Releasing at reference 0 (a transient recovery state) is out
            // of model, as in `hash_table_matches_seed_oracle`.
            HashOp::Release(d, r) if seed.reference(d, l(r)).is_some_and(|c| c > 0) => {
                assert_eq!(
                    seed.release_reference(d, l(r)),
                    flat.release_reference(d, l(r))
                );
            }
            HashOp::Remove(d, r) if seed.reference(d, l(r)).is_some() => {
                seed.remove(d, l(r));
                flat.remove(d, l(r));
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn hash_table_matches_seed_on_long_saturated_chains(
            prefill in 0u64..=CHAIN_LINES,
            ops in proptest::collection::vec(chain_op_strategy(), 0..160),
        ) {
            let mut seed = crate::seed::SeedHashTable::new();
            let mut flat = HashTable::new();
            let step = |seed: &mut crate::seed::SeedHashTable, flat: &mut HashTable, op: HashOp| {
                apply_chain_op(seed, flat, &op);
                for d in 0..2 {
                    assert_chain_agrees(seed, flat, d);
                }
            };
            // Grow digest 0's bucket through the spill (1 -> 2 entries) to
            // `prefill` entries, every ninth one open among saturated
            // residues, then run the random ops over both digests.
            for r in 0..prefill {
                let arriving = if r % 9 == 4 { 1 } else { MAX_REFERENCE };
                step(&mut seed, &mut flat, HashOp::InsertWithRef(0, r, arriving));
            }
            for op in ops {
                step(&mut seed, &mut flat, op);
            }
            // Rehash the slot arrays several times under the live side
            // buckets: 300 one-entry digests.
            for i in 0..300u64 {
                seed.insert(1000 + i, l(i));
                flat.insert(1000 + i, l(i));
            }
            for d in 0..2 {
                assert_chain_agrees(&seed, &flat, d);
            }
            // Drain both buckets from alternating ends, back through the
            // un-spill (2 -> 1 entries) to empty.
            for d in 0..2 {
                while let Some(&first) = seed.candidates(d).first() {
                    let last = *seed.candidates(d).last().expect("non-empty");
                    let victim = if seed.len().is_multiple_of(2) { first } else { last };
                    step(&mut seed, &mut flat, HashOp::Remove(d, victim.real.index()));
                }
                prop_assert!(flat.candidates(d).is_empty());
            }
            prop_assert_eq!(flat.len(), 300);
        }
    }

    // ---- AddrMap ----

    #[test]
    fn addr_map_roundtrip() {
        let mut m = AddrMap::new(16);
        assert_eq!(m.get(4), None, "unwritten");
        m.set(4, l(4));
        assert_eq!(m.get(4), Some(l(4)), "identity is stored");
        m.set(4, l(9));
        assert_eq!(m.get(4), Some(l(9)), "overwrite");
        assert_eq!(m.span(), 16);
        m.set(40, l(2));
        assert_eq!(m.span(), 41, "grown past the pre-sized length");
        assert_eq!((m.get(39), m.get(40), m.get(41)), (None, Some(l(2)), None));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(4, l(9)), (40, l(2))]);
    }

    // ---- InvertedTable ----

    #[test]
    fn inverted_set_get_clear() {
        let mut t = InvertedTable::new(8);
        assert_eq!(t.digest_of(l(1)), None);
        t.set(l(1), 0xDEAD);
        assert_eq!(t.digest_of(l(1)), Some(0xDEAD));
        assert_eq!(t.len(), 1);
        assert_eq!(t.clear(l(1)), Some(0xDEAD));
        assert!(t.is_empty());
        assert_eq!(t.clear(l(1)), None);
    }

    // ---- FreeSpaceTable ----

    #[test]
    fn fsm_allocates_home_first() {
        let mut f = FreeSpaceTable::new(8);
        assert_eq!(f.free_lines(), 8);
        assert_eq!(f.allocate(l(3)), Some(l(3)));
        assert!(!f.is_free(l(3)));
        assert_eq!(f.free_lines(), 7);
    }

    #[test]
    fn fsm_scans_outward_when_home_taken() {
        let mut f = FreeSpaceTable::new(4);
        f.occupy(l(1));
        assert_eq!(f.allocate(l(1)), Some(l(2)));
    }

    #[test]
    fn fsm_wraps_around() {
        let mut f = FreeSpaceTable::new(4);
        f.occupy(l(3));
        f.occupy(l(0));
        assert_eq!(f.allocate(l(3)), Some(l(1)));
    }

    #[test]
    fn fsm_exhaustion_returns_none() {
        let mut f = FreeSpaceTable::new(2);
        assert!(f.allocate(l(0)).is_some());
        assert!(f.allocate(l(0)).is_some());
        assert_eq!(f.allocate(l(0)), None);
        assert_eq!(f.free_lines(), 0);
    }

    #[test]
    fn fsm_release_and_idempotence() {
        let mut f = FreeSpaceTable::new(2);
        f.occupy(l(0));
        f.occupy(l(0)); // idempotent
        assert_eq!(f.free_lines(), 1);
        f.release(l(0));
        f.release(l(0)); // idempotent
        assert_eq!(f.free_lines(), 2);
    }

    proptest! {
        #[test]
        fn fsm_free_count_is_consistent(ops in proptest::collection::vec((0u64..32, any::<bool>()), 0..200)) {
            let mut f = FreeSpaceTable::new(32);
            for (line, occupy) in ops {
                if occupy { f.occupy(l(line)); } else { f.release(l(line)); }
                let actual = (0..32).filter(|&i| f.is_free(l(i))).count() as u64;
                prop_assert_eq!(actual, f.free_lines());
            }
        }

        #[test]
        fn hash_len_matches_iter(inserts in proptest::collection::vec((0u64..8, 0u64..64), 0..64)) {
            let mut t = HashTable::new();
            let mut present = std::collections::HashSet::new();
            for (digest, real) in inserts {
                if present.insert((digest, real)) {
                    t.insert(digest, l(real));
                }
            }
            prop_assert_eq!(t.len(), t.iter().count());
            prop_assert_eq!(t.len(), present.len());
        }
    }
}
