//! Log2-bucketed latency histograms — one bucketing scheme shared by the
//! bench harness (single-threaded [`LocalHistogram`]) and the server hot
//! path (lock-free [`AtomicHistogram`]).
//!
//! The value axis is split into [`GROUPS`] power-of-two groups, each
//! linearly subdivided into [`SUB`] buckets ([`BINS`] bins total, ~128),
//! giving a fixed worst-case relative error of `1/SUB` (25% bucket width,
//! so every percentile is reported as a bucket lower bound within one
//! octave quarter of the true value) over 1 ns .. ~4.3 s. Samples past the
//! top group land in the last bin; the exact maximum is tracked separately.
//!
//! Both histogram flavours snapshot into the same [`HistogramSnapshot`],
//! which merges associatively (per-thread or per-process histograms can be
//! combined in any order) and extracts the fixed percentile set every
//! `BENCH_*.json` record and `/metrics` scrape reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two groups (group g covers `[2^g, 2^(g+1))` ns).
pub const GROUPS: usize = 32;

/// Linear subdivisions per group (`2^SUB_BITS`).
pub const SUB: usize = 1 << SUB_BITS;

/// log2 of [`SUB`].
pub const SUB_BITS: usize = 2;

/// Total bin count (`GROUPS * SUB`).
pub const BINS: usize = GROUPS * SUB;

/// Map a nanosecond sample to its bin index. Always in `0..BINS`.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    let ns = ns.max(1);
    let msb = 63 - ns.leading_zeros() as usize;
    if msb >= GROUPS {
        return BINS - 1;
    }
    let sub = if msb < SUB_BITS {
        0
    } else {
        ((ns >> (msb - SUB_BITS)) as usize) & (SUB - 1)
    };
    msb * SUB + sub
}

/// Lower bound of bin `bin` in nanoseconds (monotonically non-decreasing
/// in `bin`). Out-of-range bins clamp to the last bin's lower bound.
pub fn bucket_lower(bin: usize) -> u64 {
    let bin = bin.min(BINS - 1);
    let msb = bin / SUB;
    let sub = (bin % SUB) as u64;
    if msb < SUB_BITS {
        1u64 << msb
    } else {
        (1u64 << msb) + (sub << (msb - SUB_BITS))
    }
}

/// Exclusive upper bound of bin `bin` in nanoseconds (`u64::MAX` for the
/// last bin, which also absorbs everything past the top group). In the
/// lowest groups (`msb < SUB_BITS`) several bins share a lower bound, so
/// the upper bound is the next *distinct* bound, not just `lower(bin+1)`.
pub fn bucket_upper(bin: usize) -> u64 {
    let lo = bucket_lower(bin);
    for next in bin + 1..BINS {
        let v = bucket_lower(next);
        if v > lo {
            return v;
        }
    }
    u64::MAX
}

/// A lock-free multi-producer latency histogram: every cell is a relaxed
/// atomic, so any number of threads can [`AtomicHistogram::record`]
/// concurrently with snapshots. Cloned handles ([`Arc`]) share the cells.
#[derive(Debug)]
pub struct AtomicHistogram {
    bins: [AtomicU64; BINS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    // HOT: called on the server data path for every request; must stay
    // panic-free (audit rule `no-panic-hot-path`).
    /// Record one latency sample, wait-free.
    #[inline]
    pub fn record(&self, ns: u64) {
        // ORDERING: independent statistical cells — no cell orders another,
        // snapshots tolerate tearing, so Relaxed everywhere.
        if let Some(bin) = self.bins.get(bucket_of(ns)) {
            bin.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        // ORDERING: a monotone statistical counter; Relaxed reads suffice.
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the cells. Concurrent recording may tear
    /// across cells (a sample can appear in `count` before its bin), never
    /// within one; [`HistogramSnapshot`] percentiles use the bin totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ORDERING: see record() — cells are independent, Relaxed loads.
        let mut bins = [0u64; BINS];
        for (dst, src) in bins.iter_mut().zip(self.bins.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            bins,
            sum_ns: u128::from(self.sum_ns.load(Ordering::Relaxed)),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A shareable handle to an [`AtomicHistogram`] — what
/// [`crate::MetricsRegistry::histogram`] hands out. Clones record into the
/// same cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<AtomicHistogram>,
}

impl Histogram {
    /// A fresh histogram handle (registry-independent; tests and ad-hoc
    /// instrumentation).
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(AtomicHistogram::new()),
        }
    }

    // HOT: one call per served request on the server data path.
    /// Record one latency sample, wait-free.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.inner.record(ns);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner.snapshot()
    }
}

/// Single-threaded histogram with the same bucketing — the bench harness's
/// per-thread recorder (no atomics, exact `u128` sum).
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    bins: [u64; BINS],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LocalHistogram {
            bins: [0; BINS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        if let Some(bin) = self.bins.get_mut(bucket_of(ns)) {
            *bin += 1;
        }
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (exact, not bucketed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Largest recorded sample (exact).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// A copy of the cells in the shared snapshot shape.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bins: self.bins,
            sum_ns: self.sum_ns,
            max_ns: self.max_ns,
        }
    }
}

/// An immutable copy of a histogram's cells: mergeable (associatively —
/// any merge order yields the same totals) and the place percentiles are
/// extracted.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    bins: [u64; BINS],
    sum_ns: u128,
    max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            bins: [0; BINS],
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Total samples across the bins. (On a snapshot taken mid-recording
    /// this is the authoritative count — the percentile walk uses the same
    /// bins, so the two can never disagree.)
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean latency in nanoseconds (exact, not bucketed).
    pub fn mean_ns(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / count as f64
        }
    }

    /// Largest recorded sample (exact).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Per-bin `(lower_ns, upper_ns, count)` triples, non-empty bins only.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_lower(b), bucket_upper(b), c))
    }

    /// Cumulative counts at each bin upper bound, non-empty bins only —
    /// the shape of Prometheus `_bucket{le="..."}` samples (the final
    /// `+Inf` bucket is the caller's job).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (b, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((bucket_upper(b), seen));
        }
        out
    }

    /// Latency at percentile `p` (0.0..=100.0), in nanoseconds, reported
    /// as the matching bucket's lower bound (`1/SUB` relative precision).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_lower(b);
            }
        }
        self.max_ns
    }

    /// The fixed percentile set every benchmark record and scrape reports.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            samples: self.count(),
            mean_ns: self.mean_ns(),
            p50_ns: self.percentile_ns(50.0),
            p90_ns: self.percentile_ns(90.0),
            p99_ns: self.percentile_ns(99.0),
            p999_ns: self.percentile_ns(99.9),
            max_ns: self.max_ns,
        }
    }
}

/// The fixed percentile set captured into every `BENCH_*.json` data point
/// and `/metrics.json` histogram entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded samples (0 when latency recording was off).
    pub samples: u64,
    /// Mean latency in nanoseconds (exact, not bucketed).
    pub mean_ns: f64,
    /// Median latency (bucket lower bound, `1/SUB` relative precision).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Largest recorded sample (exact).
    pub max_ns: u64,
}

/// Mix a key into a stable 64-bit fingerprint (SplitMix64 finalizer) so
/// trace rings and logs never carry raw keys.
#[inline]
pub fn key_fingerprint(key: u64) -> u64 {
    let mut state = key;
    dlht_util::splitmix64(&mut state)
}

/// FNV-1a over arbitrary bytes — the byte-string twin of
/// [`key_fingerprint`] for the memcache persona's keys.
#[inline]
pub fn bytes_fingerprint(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_and_lower_bound_are_consistent() {
        for ns in [0u64, 1, 2, 3, 7, 50, 100, 1_000, 5_000, 1_000_000, u64::MAX] {
            let b = bucket_of(ns);
            assert!(b < BINS, "sample {ns} -> bin {b}");
            if (63 - ns.max(1).leading_zeros() as usize) < GROUPS {
                assert!(
                    bucket_lower(b) <= ns.max(1),
                    "lower({b}) = {} > {ns}",
                    bucket_lower(b)
                );
                assert!(ns.max(1) < bucket_upper(b), "{ns} >= upper({b})");
            }
        }
    }

    #[test]
    fn bucket_lower_is_monotonic() {
        let mut last = 0;
        for b in 0..BINS {
            let v = bucket_lower(b);
            assert!(v >= last, "bin {b}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn buckets_are_monotonic_in_value() {
        // A larger sample never lands in a lower bin: every small value,
        // then values stepping by ~1/64 of their magnitude up to u64::MAX.
        let mut last = bucket_of(0);
        let mut ns = 0u64;
        while ns < u64::MAX {
            let b = bucket_of(ns);
            assert!(b >= last, "sample {ns}: bin {b} < {last}");
            last = b;
            ns = ns.saturating_add(if ns < 4096 { 1 } else { ns >> 6 });
        }
        assert_eq!(bucket_of(u64::MAX), BINS - 1);
    }

    #[test]
    fn atomic_and_local_agree() {
        let atomic = AtomicHistogram::new();
        let mut local = LocalHistogram::new();
        let mut seed = 42u64;
        for _ in 0..10_000 {
            let ns = dlht_util::splitmix64(&mut seed) % 10_000_000;
            atomic.record(ns);
            local.record(ns);
        }
        let a = atomic.snapshot();
        let l = local.snapshot();
        assert_eq!(a.count(), l.count());
        assert_eq!(a.max_ns(), l.max_ns());
        assert_eq!(a.sum_ns(), l.sum_ns());
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(a.percentile_ns(p), l.percentile_ns(p));
        }
    }

    #[test]
    fn percentiles_are_monotonic_in_p() {
        let mut h = LocalHistogram::new();
        let mut seed = 7u64;
        for _ in 0..5_000 {
            h.record(dlht_util::splitmix64(&mut seed) % 1_000_000);
        }
        let s = h.snapshot();
        let mut last = 0;
        for p in 1..=100 {
            let v = s.percentile_ns(f64::from(p));
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn merge_is_associative() {
        let mut seed = 99u64;
        let parts: Vec<LocalHistogram> = (0..4)
            .map(|_| {
                let mut h = LocalHistogram::new();
                for _ in 0..1_000 {
                    h.record(dlht_util::splitmix64(&mut seed) % 100_000);
                }
                h
            })
            .collect();
        // (((a+b)+c)+d) vs (a+((b+c)+d)).
        let mut left = parts[0].snapshot();
        for p in &parts[1..] {
            left.merge(&p.snapshot());
        }
        let mut mid = parts[1].snapshot();
        mid.merge(&parts[2].snapshot());
        mid.merge(&parts[3].snapshot());
        let mut right = parts[0].snapshot();
        right.merge(&mid);
        assert_eq!(left.count(), right.count());
        assert_eq!(left.sum_ns(), right.sum_ns());
        assert_eq!(left.max_ns(), right.max_ns());
        for p in [50.0, 99.0, 99.9] {
            assert_eq!(left.percentile_ns(p), right.percentile_ns(p));
        }
    }

    #[test]
    fn overflow_samples_land_in_the_last_bin() {
        let mut h = LocalHistogram::new();
        h.record(u64::MAX);
        h.record(10_000_000_000); // 10 s, past the top group
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max_ns(), u64::MAX);
        assert_eq!(bucket_of(u64::MAX), BINS - 1);
    }

    #[test]
    fn empty_histogram() {
        let h = LocalHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.snapshot().percentile_ns(99.0), 0);
        assert_eq!(h.snapshot().summary().samples, 0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LocalHistogram::new();
        for ns in [100u64, 200, 300, 400] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_ns(), 250.0);
        assert_eq!(h.max_ns(), 400);
        let s = h.snapshot();
        assert_eq!(s.mean_ns(), 250.0);
        assert_eq!(s.max_ns(), 400);
    }

    /// 99 fast samples at 100 ns and one slow one at 1 ms.
    fn fast_with_one_slow() -> LocalHistogram {
        let mut h = LocalHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        h
    }

    #[test]
    fn percentiles_are_order_of_magnitude_correct() {
        let s = fast_with_one_slow().snapshot();
        let p50 = s.percentile_ns(50.0);
        let p99 = s.percentile_ns(99.0);
        let p100 = s.percentile_ns(100.0);
        assert!((64..=128).contains(&p50), "p50 = {p50}");
        assert!(p99 <= 128, "p99 = {p99}");
        assert!(p100 >= 500_000, "p100 = {p100}");
    }

    #[test]
    fn summary_matches_percentiles() {
        let s = fast_with_one_slow().snapshot();
        let sum = s.summary();
        assert_eq!(sum.samples, 100);
        assert_eq!(sum.p50_ns, s.percentile_ns(50.0));
        assert_eq!(sum.p99_ns, s.percentile_ns(99.0));
        assert_eq!(sum.p999_ns, s.percentile_ns(99.9));
        assert_eq!(sum.max_ns, 1_000_000);
        assert!(sum.mean_ns > 100.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        for _ in 0..10 {
            a.record(50);
            b.record(5_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert_eq!(a.max_ns(), 5_000);
        assert!(a.snapshot().percentile_ns(99.0) >= 4_000);
    }

    #[test]
    fn fingerprints_are_stable_and_spread() {
        assert_eq!(key_fingerprint(1), key_fingerprint(1));
        assert_ne!(key_fingerprint(1), key_fingerprint(2));
        assert_eq!(bytes_fingerprint(b"abc"), bytes_fingerprint(b"abc"));
        assert_ne!(bytes_fingerprint(b"abc"), bytes_fingerprint(b"abd"));
    }
}
