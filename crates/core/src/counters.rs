//! The per-line encryption counters: a zeroed `u32` per line, sized when
//! the controller is built, with `0` meaning "never encrypted" (the first
//! write takes a counter to 1). A free never resets a counter, so a line
//! claimed again never reuses a pad. The dedup controllers' table lives in
//! their [`CommitKernel`](crate::CommitKernel), beside the rows the paper
//! colocates it with; the schemes without dedup keep their own.

use dewrite_crypto::{LineCounter, COUNTER_MAX};
use dewrite_mem::hint;

/// `line → counter` for every line of a controller.
#[derive(Debug, Clone)]
pub struct CounterTable {
    values: Box<[u32]>,
}

impl CounterTable {
    /// A table over `lines` lines, none encrypted yet.
    pub fn new(lines: u64) -> Self {
        CounterTable {
            values: vec![0u32; lines as usize].into_boxed_slice(),
        }
    }

    /// The counter of `line`, or `None` if it was never encrypted or lies
    /// outside the table.
    #[inline]
    pub fn get(&self, line: u64) -> Option<LineCounter> {
        match *self.values.get(line as usize)? {
            0 => None,
            value => Some(LineCounter::from_value(value)),
        }
    }

    /// Advance `line`'s counter for a new write and return it (the first
    /// write yields 1).
    ///
    /// # Panics
    ///
    /// Panics, naming the line, if its counter is exhausted: one more write
    /// would encrypt under a pad already used. That takes 2^28 stores to
    /// one line.
    #[inline]
    pub fn bump(&mut self, line: u64) -> LineCounter {
        let slot = &mut self.values[line as usize];
        assert!(
            *slot < COUNTER_MAX,
            "the encryption counter of line {line} is exhausted: a further write would reuse its pad"
        );
        *slot += 1;
        LineCounter::from_value(*slot)
    }

    /// Install a stored counter (recovery). A zero value is "never
    /// encrypted" and leaves the line without a counter.
    pub fn set(&mut self, line: u64, counter: LineCounter) {
        self.values[line as usize] = counter.value();
    }

    /// Host-side hint that `line`'s counter is about to be read or bumped.
    /// Changes nothing; an out-of-range `line` is ignored.
    #[inline]
    pub fn prefetch(&self, line: u64) {
        if let Some(value) = self.values.get(line as usize) {
            hint::prefetch_read(value);
        }
    }

    /// Every `(line, counter)` of an encrypted line, in ascending line
    /// order: the snapshot's sorted wire form.
    pub fn iter(&self) -> impl Iterator<Item = (u64, LineCounter)> + '_ {
        (0u64..)
            .zip(self.values.iter())
            .filter(|&(_, &value)| value != 0)
            .map(|(line, &value)| (line, LineCounter::from_value(value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_counts_from_one_and_get_sees_it() {
        let mut t = CounterTable::new(16);
        assert_eq!(t.get(5), None);
        assert_eq!(t.bump(5).value(), 1);
        assert_eq!(t.bump(5).value(), 2);
        assert_eq!(t.get(5).map(LineCounter::value), Some(2));
        assert_eq!(t.get(6), None, "neighbour untouched");
        assert_eq!(t.get(1 << 40), None, "far beyond the table");
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn iter_is_sorted_across_pages() {
        // 1023 and 1024 straddle a 4 KB page of the array.
        let mut t = CounterTable::new(70_001);
        for line in [70_000u64, 3, 1024, 1023, 3] {
            t.bump(line);
        }
        let got: Vec<_> = t.iter().map(|(l, c)| (l, c.value())).collect();
        assert_eq!(got, vec![(3, 2), (1023, 1), (1024, 1), (70_000, 1)]);
    }

    #[test]
    fn set_restores_and_zero_means_absent() {
        let mut t = CounterTable::new(16);
        t.set(9, LineCounter::from_value(7));
        assert_eq!(t.bump(9).value(), 8);
        t.set(10, LineCounter::new());
        assert_eq!(t.get(10), None);
        t.set(9, LineCounter::new());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "counter of line 3 is exhausted")]
    fn exhausted_counter_refuses_a_further_bump() {
        let mut t = CounterTable::new(4);
        t.set(3, LineCounter::from_value(COUNTER_MAX - 1));
        assert_eq!(t.bump(3).value(), COUNTER_MAX);
        t.bump(3);
    }
}
