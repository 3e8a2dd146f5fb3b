//! The per-line encryption counters, as a paged dense table.
//!
//! Every scheme keeps one [`LineCounter`] per line it has ever encrypted.
//! Lines are dense small integers, so the table is an array, not a map:
//! pages of [`COUNTERS_PER_PAGE`] raw counter values indexed by
//! `line / COUNTERS_PER_PAGE`, allocated on the first write to the page,
//! with `0` meaning "never encrypted" — the first write takes a counter to
//! 1, exactly as the shard's dense `Vec<u32>` does. Walking the pages in
//! order yields the lines in ascending order, which is the snapshot's
//! sorted wire form with no sort.

use dewrite_crypto::LineCounter;

/// Counters per page (4 KB of `u32`s).
const COUNTERS_PER_PAGE: usize = 1024;

type Page = Box<[u32; COUNTERS_PER_PAGE]>;

/// `line → counter` for every line ever encrypted.
#[derive(Debug, Clone, Default)]
pub struct CounterTable {
    pages: Vec<Option<Page>>,
}

impl CounterTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn locate(line: u64) -> (usize, usize) {
        (
            (line / COUNTERS_PER_PAGE as u64) as usize,
            (line % COUNTERS_PER_PAGE as u64) as usize,
        )
    }

    fn slot_mut(&mut self, line: u64) -> &mut u32 {
        let (page, at) = Self::locate(line);
        if self.pages.len() <= page {
            self.pages.resize_with(page + 1, || None);
        }
        &mut self.pages[page].get_or_insert_with(|| Box::new([0; COUNTERS_PER_PAGE]))[at]
    }

    /// The counter of `line`, or `None` if it was never encrypted.
    #[inline]
    pub fn get(&self, line: u64) -> Option<LineCounter> {
        let (page, at) = Self::locate(line);
        match self.pages.get(page)?.as_ref()?[at] {
            0 => None,
            value => Some(LineCounter::from_value(value)),
        }
    }

    /// Advance `line`'s counter for a new write and return it (the first
    /// write yields 1; a saturated counter stays saturated, see
    /// [`LineCounter::increment`]).
    #[inline]
    pub fn bump(&mut self, line: u64) -> LineCounter {
        let slot = self.slot_mut(line);
        let mut counter = LineCounter::from_value(*slot);
        let _ = counter.increment();
        *slot = counter.value();
        counter
    }

    /// Install a stored counter (recovery). A zero value is "never
    /// encrypted" and leaves the line without a counter.
    pub fn set(&mut self, line: u64, counter: LineCounter) {
        *self.slot_mut(line) = counter.value();
    }

    /// Every `(line, counter)`, in ascending line order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, LineCounter)> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter().flat_map(move |page| {
                page.iter()
                    .enumerate()
                    .filter(|(_, &value)| value != 0)
                    .map(move |(at, &value)| {
                        (
                            (p * COUNTERS_PER_PAGE + at) as u64,
                            LineCounter::from_value(value),
                        )
                    })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewrite_crypto::COUNTER_MAX;

    #[test]
    fn bump_counts_from_one_and_get_sees_it() {
        let mut t = CounterTable::new();
        assert_eq!(t.get(5), None);
        assert_eq!(t.bump(5).value(), 1);
        assert_eq!(t.bump(5).value(), 2);
        assert_eq!(t.get(5).map(LineCounter::value), Some(2));
        assert_eq!(t.get(6), None, "page neighbour untouched");
        assert_eq!(t.get(1 << 40), None, "far beyond the directory");
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn iter_is_sorted_across_pages() {
        let mut t = CounterTable::new();
        for line in [70_000u64, 3, 1024, 1023, 3] {
            t.bump(line);
        }
        let got: Vec<_> = t.iter().map(|(l, c)| (l, c.value())).collect();
        assert_eq!(got, vec![(3, 2), (1023, 1), (1024, 1), (70_000, 1)]);
    }

    #[test]
    fn set_restores_and_zero_means_absent() {
        let mut t = CounterTable::new();
        t.set(9, LineCounter::from_value(7));
        assert_eq!(t.bump(9).value(), 8);
        t.set(10, LineCounter::new());
        assert_eq!(t.get(10), None);
        t.set(9, LineCounter::new());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn saturated_counter_stays_saturated() {
        let mut t = CounterTable::new();
        t.set(0, LineCounter::from_value(COUNTER_MAX));
        assert_eq!(t.bump(0).value(), COUNTER_MAX);
    }
}
