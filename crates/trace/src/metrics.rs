//! Log-bucketed latency histograms and their percentile summaries.
//!
//! Buckets grow by a factor of 2^(1/4) (≈ 1.19), giving quantile
//! estimates within ~9 % relative error across six decades — the
//! HdrHistogram trade-off without the dependency. Run metrics, the
//! sweep's attribution aggregate and the bench's frame-stage report
//! build on them; the fixed bucket layout makes merging exact.

/// Sub-buckets per power of two.
const SUB: f64 = 4.0;
/// Smallest distinguishable value (1 µs when recording milliseconds).
const MIN_VALUE: f64 = 1e-3;
/// Bucket count: `1 + 4·28` covers `MIN_VALUE · 2^28` ≈ 268 s in ms.
const BUCKETS: usize = 113;

/// A log-bucketed histogram of latencies in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(value: f64) -> usize {
        if value < MIN_VALUE {
            return 0;
        }
        let index = 1 + (SUB * (value / MIN_VALUE).log2()).floor() as usize;
        index.min(BUCKETS - 1)
    }

    /// The geometric midpoint the bucket at `index` represents.
    fn bucket_value(index: usize) -> f64 {
        if index == 0 {
            return MIN_VALUE / 2.0;
        }
        MIN_VALUE * ((index as f64 - 0.5) / SUB).exp2()
    }

    /// Records one value (milliseconds; negative values clamp to zero).
    pub fn record(&mut self, value_ms: f64) {
        let v = if value_ms.is_finite() {
            value_ms.max(0.0)
        } else {
            0.0
        };
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), within one bucket's relative
    /// error; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_value(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`, bucket by bucket.
    ///
    /// Because both histograms share the same fixed log-bucket layout,
    /// merging partial histograms is *exact* for everything derived from
    /// buckets and extremes: `count`, `max`, `min`, and every
    /// [`Histogram::quantile`] equal what recording the union of values
    /// into one histogram would produce. Only `mean` can drift by f64
    /// summation order (a few ULPs), never by bucketing. This is what
    /// lets a 10k-run sweep keep one bounded-size aggregate instead of
    /// retaining per-run reports.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        // min/max sentinels (±∞ when empty) make empty merges identity.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total of all recorded values (0 when empty).
    pub fn sum(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The occupied buckets as `(index, count)` pairs, in index order —
    /// the sparse form checkpoint files persist a histogram as.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| (index, n))
    }

    /// Rebuilds a histogram from its persisted sparse form
    /// ([`Histogram::nonzero_buckets`] plus [`Histogram::sum`],
    /// [`Histogram::min`], [`Histogram::max`]). Out-of-range bucket
    /// indices clamp into the top bucket; an empty reconstruction is
    /// [`Histogram::new`]. Round-trips exactly: restoring and then
    /// [`Histogram::merge`]-ing behaves as if the original had been
    /// merged.
    pub fn from_sparse(sparse: &[(usize, u64)], sum: f64, min: f64, max: f64) -> Histogram {
        let mut hist = Histogram::new();
        for &(index, n) in sparse {
            hist.buckets[index.min(BUCKETS - 1)] += n;
            hist.count += n;
        }
        if hist.count > 0 {
            hist.sum = sum;
            hist.min = min;
            hist.max = max;
        }
        hist
    }

    /// The p50/p95/p99 summary of this histogram.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50_ms: self.quantile(0.50),
            p95_ms: self.quantile(0.95),
            p99_ms: self.quantile(0.99),
            max_ms: self.max(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Percentile summary of one latency population, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Exact maximum.
    pub max_ms: f64,
}

impl LatencySummary {
    /// The all-zero summary of an empty population.
    pub const EMPTY: LatencySummary = LatencySummary {
        count: 0,
        p50_ms: 0.0,
        p95_ms: 0.0,
        p99_ms: 0.0,
        max_ms: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 10.0); // 0.1 .. 100.0 ms uniform
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50.0).abs() / 50.0 < 0.10, "p50 {p50}");
        assert!((p99 - 99.0).abs() / 99.0 < 0.10, "p99 {p99}");
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 50.05).abs() < 1e-9);
        assert_eq!(h.max(), 100.0);
    }

    /// `mean` is exact arithmetic over the recorded values — unlike
    /// quantiles it carries no bucketing error, so we pin it against the
    /// exact expected value, not a tolerance band.
    #[test]
    fn mean_is_exact_over_recorded_values() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        h.record(2.0);
        h.record(4.0);
        h.record(6.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 4.0);
        // Merging parts reproduces the same exact mean: (2+4+6+8)/4.
        let mut part = Histogram::new();
        part.record(8.0);
        h.merge(&part);
        assert_eq!(h.mean(), 5.0);
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let mut h = Histogram::new();
        h.record(3.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.0);
        }
        assert_eq!(h.summary().p95_ms, 3.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), LatencySummary::EMPTY);
    }

    #[test]
    fn tiny_and_pathological_values_survive() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(1e12);
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.5) >= 0.0);
    }

    #[test]
    fn merge_of_parts_equals_record_of_whole() {
        let values: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.731).sin().abs() * 80.0)
            .collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut merged = Histogram::new();
        for chunk in values.chunks(37) {
            let mut part = Histogram::new();
            for &v in chunk {
                part.record(v);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.max(), whole.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut h = Histogram::new();
        h.record(3.0);
        h.record(9.0);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty.summary(), before.summary());
    }
}
