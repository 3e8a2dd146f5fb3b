//! Latency statistics accumulation.

/// Streaming latency summary (count / total / min / max).
///
/// ```
/// use dewrite_mem::LatencyStats;
///
/// let mut s = LatencyStats::new();
/// s.record(100);
/// s.record(300);
/// assert_eq!(s.mean_ns(), 200.0);
/// assert_eq!(s.max_ns(), 300);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyStats {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }

    /// Record `n` observations of `ns`: equal to `n` calls of
    /// [`record`](Self::record), in one step.
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += n;
        self.total_ns += ns * n;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Mean latency; zero when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Minimum observation; zero when empty.
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Maximum observation; zero when empty.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}ns min={}ns max={}ns",
            self.count,
            self.mean_ns(),
            self.min_ns,
            self.max_ns
        )
    }
}

/// Streaming latency histogram with bounded relative error, for percentile
/// reporting (p50/p95/p99) on top of the [`LatencyStats`] summary.
///
/// Observations are binned logarithmically: one major bucket per power of
/// two, subdivided into 16 linear sub-buckets, so every bucket spans at most
/// 1/16 (6.25%) of its lower bound. Values below 16 ns get exact buckets.
/// Counts sit in a dense array indexed by bucket id (at most 976 of
/// them, under 8 KB), grown to the highest bucket seen and
/// never longer — the last element is never zero, so equal histograms are
/// equal arrays. Recording is an index and an increment, merging an
/// element-wise add; the serialized form stays the sparse, ordered
/// `(bucket, count)` list.
///
/// ```
/// use dewrite_mem::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [100, 100, 100, 900] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.p50_ns() >= 93 && h.p50_ns() <= 100);
/// assert!(h.p99_ns() >= 840 && h.p99_ns() <= 900);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    stats: LatencyStats,
    /// Count per bucket id; empty or ending in a nonzero count.
    buckets: Vec<u64>,
}

/// Linear sub-buckets per power-of-two major bucket.
const SUB_BUCKETS: u64 = 16;

fn bucket_of(ns: u64) -> u16 {
    if ns < SUB_BUCKETS {
        ns as u16
    } else {
        let major = 63 - ns.leading_zeros() as u16; // >= 4
        let sub = ((ns >> (major - 4)) & (SUB_BUCKETS - 1)) as u16;
        (major - 3) * SUB_BUCKETS as u16 + sub
    }
}

fn bucket_lower_bound(bucket: u16) -> u64 {
    if bucket < SUB_BUCKETS as u16 {
        u64::from(bucket)
    } else {
        let major = u32::from(bucket) / SUB_BUCKETS as u32 + 3;
        let sub = u64::from(bucket) % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << (major - 4)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// `bucket`'s count, growing the array to reach it. Callers add a
    /// nonzero amount, which keeps the last element nonzero.
    #[inline]
    fn bucket_mut(&mut self, bucket: u16) -> &mut u64 {
        let bucket = usize::from(bucket);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        &mut self.buckets[bucket]
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.stats.record(ns);
        *self.bucket_mut(bucket_of(ns)) += 1;
    }

    /// Record `n` observations of `ns`: equal to `n` calls of
    /// [`record`](Self::record), in one step. `n == 0` changes nothing,
    /// so the bucket array still ends in a nonzero count.
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.record_n(ns, n);
        *self.bucket_mut(bucket_of(ns)) += n;
    }

    /// The streaming summary (count / total / min / max).
    pub fn stats(&self) -> LatencyStats {
        self.stats
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency; zero when empty.
    pub fn mean_ns(&self) -> f64 {
        self.stats.mean_ns()
    }

    /// The occupied buckets as `(bucket, count)` pairs in ascending bucket
    /// order (the serialized form).
    pub fn bucket_counts(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(b, &n)| (b as u16, n))
    }

    /// The latency at or below which `p` percent of observations fall
    /// (resolved to the containing bucket's lower bound, at most 6.25%
    /// under the exact value). Zero when empty; `p` is clamped to [0, 100].
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let count = self.stats.count();
        if count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * count as f64).ceil() as u64).max(1);
        if rank >= count {
            return self.stats.max_ns();
        }
        let mut seen = 0;
        for (bucket, n) in self.bucket_counts() {
            seen += n;
            if seen >= rank {
                // Exact at the extremes, bucket lower bound in between.
                return bucket_lower_bound(bucket)
                    .max(self.stats.min_ns())
                    .min(self.stats.max_ns());
            }
        }
        self.stats.max_ns()
    }

    /// Median (p50).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// 95th percentile.
    pub fn p95_ns(&self) -> u64 {
        self.percentile_ns(95.0)
    }

    /// 99th percentile.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.stats.merge(&other.stats);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += n;
        }
    }
}

impl std::fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}ns p50={}ns p95={}ns p99={}ns max={}ns",
            self.count(),
            self.mean_ns(),
            self.p50_ns(),
            self.p95_ns(),
            self.p99_ns(),
            self.stats.max_ns()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.min_ns(), 0);
        assert_eq!(s.max_ns(), 0);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn single_observation() {
        let mut s = LatencyStats::new();
        s.record(42);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean_ns(), 42.0);
        assert_eq!(s.min_ns(), 42);
        assert_eq!(s.max_ns(), 42);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = LatencyStats::new();
        s.record(10);
        let snapshot = s;
        s.merge(&LatencyStats::new());
        assert_eq!(s, snapshot);

        let mut empty = LatencyStats::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    proptest! {
        #[test]
        fn merge_equals_sequential(xs in proptest::collection::vec(0u64..10_000, 0..50),
                                   ys in proptest::collection::vec(0u64..10_000, 0..50)) {
            let mut a = LatencyStats::new();
            for &x in &xs { a.record(x); }
            let mut b = LatencyStats::new();
            for &y in &ys { b.record(y); }
            a.merge(&b);

            let mut c = LatencyStats::new();
            for &v in xs.iter().chain(ys.iter()) { c.record(v); }
            prop_assert_eq!(a, c);
        }

        #[test]
        fn invariants(xs in proptest::collection::vec(0u64..10_000, 1..100)) {
            let mut s = LatencyStats::new();
            for &x in &xs { s.record(x); }
            prop_assert!(s.min_ns() <= s.max_ns());
            prop_assert!(s.mean_ns() >= s.min_ns() as f64);
            prop_assert!(s.mean_ns() <= s.max_ns() as f64);
            prop_assert_eq!(s.count(), xs.len() as u64);
        }
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        // Bucket index must be monotone in the value, and each bucket's
        // lower bound must map back to the same bucket.
        let mut prev = 0u16;
        for ns in (0..4096u64).chain((12..50).map(|s| 1u64 << s)) {
            let b = bucket_of(ns);
            assert!(b >= prev, "bucket_of not monotone at {ns}");
            prev = b;
            let lb = bucket_lower_bound(b);
            assert!(lb <= ns, "lower bound {lb} exceeds {ns}");
            assert_eq!(bucket_of(lb), b, "lower bound of {ns} changes bucket");
            // ≤ 6.25% relative bucket width.
            assert!(ns - lb <= lb / 16 + 1, "bucket too wide at {ns}");
        }
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);

        let mut h = LatencyHistogram::new();
        h.record(300);
        assert_eq!(h.p50_ns(), 300, "single value percentiles are exact");
        assert_eq!(h.p99_ns(), 300);
        assert!(!h.to_string().is_empty());
    }

    #[test]
    fn histogram_percentiles_track_exact_values() {
        let mut h = LatencyHistogram::new();
        let xs: Vec<u64> = (1..=1000).map(|i| i * 3).collect();
        for &x in &xs {
            h.record(x);
        }
        for (p, exact) in [(50.0, 1500u64), (95.0, 2850), (99.0, 2970)] {
            let got = h.percentile_ns(p);
            assert!(
                got <= exact && got as f64 >= exact as f64 * 0.93,
                "p{p}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.percentile_ns(100.0), 3000);
    }

    #[test]
    fn histogram_merge_equals_sequential() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * 7 % 4096;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    proptest! {
        #[test]
        fn record_n_equals_repeated_record(
            prefix in proptest::collection::vec(0u64..1 << 48, 0..20),
            batches in proptest::collection::vec((0u64..1 << 48, 0u64..40), 0..20),
        ) {
            let (mut batched, mut single) = (LatencyStats::new(), LatencyStats::new());
            let (mut batched_h, mut single_h) = (LatencyHistogram::new(), LatencyHistogram::new());
            for &x in &prefix {
                batched.record(x);
                single.record(x);
                batched_h.record(x);
                single_h.record(x);
            }
            for &(ns, n) in &batches {
                batched.record_n(ns, n);
                batched_h.record_n(ns, n);
                for _ in 0..n {
                    single.record(ns);
                    single_h.record(ns);
                }
                prop_assert_eq!(batched, single);
                prop_assert_eq!(&batched_h, &single_h);
            }
        }
    }

    #[test]
    fn record_n_of_zero_changes_nothing() {
        let mut s = LatencyStats::new();
        s.record_n(123, 0);
        assert_eq!(s, LatencyStats::new());
        let mut h = LatencyHistogram::new();
        h.record_n(u64::MAX, 0);
        assert_eq!(h, LatencyHistogram::new());
        // A zero count past the last occupied bucket must not grow the
        // array, or the derived `==` would tell equal histograms apart.
        h.record(20);
        let before = h.clone();
        h.record_n(u64::MAX, 0);
        assert_eq!(h, before);
    }

    proptest! {
        #[test]
        fn histogram_percentile_bounds(xs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for &x in &xs { h.record(x); }
            let (p50, p95, p99) = (h.p50_ns(), h.p95_ns(), h.p99_ns());
            prop_assert!(p50 <= p95 && p95 <= p99);
            prop_assert!(p50 >= h.stats().min_ns());
            prop_assert!(p99 <= h.stats().max_ns());
        }
    }
}
