//! Log-bucketed latency histograms.
//!
//! A [`Histogram`] buckets positive observations geometrically:
//! [`SUB_BUCKETS`] buckets per octave (power of two), so every bucket
//! spans a factor of `2^(1/SUB_BUCKETS) ≈ 1.09`. Quantile estimates
//! therefore carry a bounded *relative* error of ≤ 9% across the whole
//! dynamic range — exactly what latency reporting needs (a p99 of
//! 104 ms vs 100 ms is the same answer; a fixed-width histogram would
//! either blur the fast buckets or truncate the tail).
//!
//! The estimator is deliberately one-sided: [`Histogram::quantile`]
//! returns the **upper edge** of the bucket holding the rank (clamped to
//! the observed maximum), so the reported quantile never understates the
//! exact one and overstates it by at most one bucket ratio. The property
//! suite pins this bracket: `exact ≤ estimate ≤ exact · GROWTH` on
//! random samples.
//!
//! Exact count, sum, min and max are tracked alongside the buckets, so
//! `mean`/`min`/`max` are not subject to bucketing error.

/// Buckets per octave; the bucket width ratio is `2^(1/SUB_BUCKETS)`.
pub const SUB_BUCKETS: u32 = 8;

/// The ratio between consecutive bucket edges (`≈ 1.0905`); also the
/// worst-case multiplicative error of [`Histogram::quantile`].
pub const GROWTH: f64 = 1.090_507_732_665_257_7; // 2^(1/8)

/// Observations at or below this value (in ms) land in the dedicated
/// zero bucket and report as `0.0`: one microsecond is far below any
/// simulated service time.
pub const MIN_VALUE_MS: f64 = 1e-3;

/// Mantissa (fraction) bits of the smallest `f64` ≥ `2^(k/8)` for
/// `k = 1..8` — the sub-octave bucket edges, pre-rounded up so that
/// `mantissa ≥ edge` is exactly `ratio ≥ 2^(octave + k/8)`. Lets
/// [`Histogram::bucket_of`] run on pure integer compares instead of a
/// `log2` call on every recorded observation.
const SUB_EDGE_FRACTIONS: [u64; 7] = [
    0x172B83C7D517B, // 2^(1/8) ≈ 1.0905077326652577
    0x306FE0A31B716, // 2^(2/8) ≈ 1.1892071150027212
    0x4BFDAD5362A28, // 2^(3/8) ≈ 1.2968395546510099
    0x6A09E667F3BCD, // 2^(4/8) ≈ 1.4142135623730951
    0x8ACE5422AA0DC, // 2^(5/8) ≈ 1.5422108254079410
    0xAE89F995AD3AE, // 2^(6/8) ≈ 1.6817928305074292
    0xD5818DCFBA488, // 2^(7/8) ≈ 1.8340080864093427
];

/// A log-bucketed histogram of positive latencies (milliseconds).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Observations ≤ [`MIN_VALUE_MS`] (zero waits are the common case).
    zero: u64,
    /// Bucket `i` covers `(MIN_VALUE_MS·g^i, MIN_VALUE_MS·g^(i+1)]`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            zero: 0,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(value: f64) -> usize {
        // Exact floor(log2(value / MIN) · SUB_BUCKETS), without libm:
        // the ratio's IEEE exponent gives the octave and its mantissa
        // picks the sub-octave by comparison against the 2^(k/8) edges.
        // 2^(k/8) is irrational for k in 1..8, so no finite ratio ever
        // sits on an edge and the floor is unambiguous. `value > MIN`
        // here guarantees `ratio ≥ 1 + 2^-52`, i.e. a normal float with
        // a non-negative unbiased exponent.
        let ratio = value / MIN_VALUE_MS;
        let bits = ratio.to_bits();
        let octave = ((bits >> 52) & 0x7FF).saturating_sub(1023) as usize;
        let frac = bits & ((1u64 << 52) - 1);
        let mut sub = 0usize;
        for &edge in &SUB_EDGE_FRACTIONS {
            sub += (frac >= edge) as usize;
        }
        octave * SUB_BUCKETS as usize + sub
    }

    /// Upper edge of bucket `i`.
    fn edge(i: usize) -> f64 {
        MIN_VALUE_MS * 2f64.powf((i + 1) as f64 / SUB_BUCKETS as f64)
    }

    /// Records one observation. Non-finite values are ignored; values at
    /// or below [`MIN_VALUE_MS`] count as zero.
    #[inline]
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value.max(0.0);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= MIN_VALUE_MS {
            self.zero += 1;
            return;
        }
        let bucket = Self::bucket_of(value);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum (`−∞` when empty, like [`desp::Welford::max`]).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Exact maximum, or 0 when empty — the form every report column
    /// wants (a `-inf` cell helps nobody).
    pub fn max_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`): the upper edge of
    /// the bucket containing the rank-`⌈q·n⌉` observation, clamped to
    /// the exact maximum. Returns 0 when empty.
    ///
    /// Guarantee for `q > 0`: `exact ≤ quantile(q) ≤ exact · GROWTH`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile: q must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero {
            return 0.0;
        }
        let mut cumulative = self.zero;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Self::edge(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Records `n` zero observations at once; identical to `n` calls of
    /// `record(0.0)` in any order.
    pub(crate) fn record_zeros(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.zero += n;
        self.min = self.min.min(0.0);
        self.max = self.max.max(0.0);
    }

    /// Merges another histogram into this one (replication merging; the
    /// buckets are aligned by construction).
    pub fn merge(&mut self, other: &Histogram) {
        self.zero += other.zero;
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_bracket_exact_values() {
        let mut h = Histogram::new();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.37).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let est = h.quantile(q);
            assert!(
                est >= exact * (1.0 - 1e-12) && est <= exact * GROWTH * (1.0 + 1e-12),
                "q={q}: exact {exact}, estimate {est}"
            );
        }
        assert_eq!(h.max(), 370.0);
        assert!((h.mean() - values.iter().sum::<f64>() / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_waits_report_zero() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(0.0);
        }
        for _ in 0..10 {
            h.record(50.0);
        }
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p90(), 0.0);
        assert!(h.p99() > 45.0 && h.p99() <= 50.0 * GROWTH);
    }

    #[test]
    fn record_zeros_equals_repeated_zero_records() {
        let mut bulk = Histogram::new();
        let mut single = Histogram::new();
        for h in [&mut bulk, &mut single] {
            h.record(2.5);
            h.record(0.4);
        }
        bulk.record_zeros(3);
        for _ in 0..3 {
            single.record(0.0);
        }
        assert_eq!(format!("{bulk:?}"), format!("{single:?}"));
    }

    #[test]
    fn merge_equals_single_pass() {
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for i in 0..500 {
            let v = (i as f64 * 0.9137).exp() % 1e4;
            all.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.quantile(q), all.quantile(q));
        }
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn integer_bucketing_matches_log2_formula() {
        // Deterministic log-spread sweep across the whole dynamic range
        // (sub-ms to hours), plus exact powers of two of the ratio where
        // the octave boundary must be taken, not missed by one.
        let mut v = MIN_VALUE_MS * 1.000001;
        while v < 1e7 {
            let expect = ((v / MIN_VALUE_MS).log2() * SUB_BUCKETS as f64).floor() as usize;
            assert_eq!(Histogram::bucket_of(v), expect, "value {v:e}");
            v *= 1.003;
        }
        for e in 0..40 {
            let v = MIN_VALUE_MS * (1u64 << e) as f64;
            if v > MIN_VALUE_MS {
                let expect = ((v / MIN_VALUE_MS).log2() * SUB_BUCKETS as f64).floor() as usize;
                assert_eq!(Histogram::bucket_of(v), expect, "pow2 {e}");
            }
        }
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }
}
