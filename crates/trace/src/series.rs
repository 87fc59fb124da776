//! Bounded time-series samplers.
//!
//! A [`TimeSeries`] keeps a piecewise view of one quantity over
//! simulated time — queue lengths, buffer hit ratio, disk/network
//! utilisation — without unbounded memory: when the sample buffer fills,
//! it is decimated in place (every second point dropped) and the keep
//! stride doubles, so a series of any length retains at most
//! [`TimeSeries::capacity`] points, roughly evenly spaced in *offer*
//! order. Decimation is purely deterministic: the retained points are a
//! function of the offered sequence alone.
//!
//! Alongside the samples, a [`desp::TimeWeighted`] accumulator tracks
//! the exact time-weighted mean of the full (undecimated) signal, so the
//! headline statistic never suffers decimation error.

use desp::TimeWeighted;

/// Default maximum retained points per series.
pub const DEFAULT_CAPACITY: usize = 512;

/// A named, bounded sampler of one piecewise-constant quantity.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(f64, f64)>,
    capacity: usize,
    /// Keep every `stride`-th offered sample.
    stride: u64,
    /// Offers to skip before the next retained sample (0 ⇒ retain the
    /// next offer) — a countdown instead of a `offered % stride` on
    /// the hot path.
    until_keep: u64,
    offered: u64,
    weighted: TimeWeighted,
}

impl TimeSeries {
    /// A fresh series with the [`DEFAULT_CAPACITY`].
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, DEFAULT_CAPACITY)
    }

    /// A fresh series retaining at most `capacity` points (min 2).
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
            capacity: capacity.max(2),
            stride: 1,
            until_keep: 0,
            offered: 0,
            weighted: TimeWeighted::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Offers one `(instant, value)` observation.
    #[inline]
    pub fn record(&mut self, now: f64, value: f64) {
        self.weighted.update(now, value);
        self.offered += 1;
        if self.until_keep > 0 {
            self.until_keep -= 1;
            return;
        }
        self.keep(now, value);
    }

    /// Retains the current offer (offer index `offered − 1`, a multiple
    /// of the stride) and re-arms the skip countdown.
    fn keep(&mut self, now: f64, value: f64) {
        if self.samples.len() >= self.capacity {
            // Decimate: drop every second retained point, double the
            // stride. Keeps index parity 0, so the first sample
            // (and the overall shape) survives.
            let mut keep = 0usize;
            self.samples.retain(|_| {
                let retained = keep.is_multiple_of(2);
                keep += 1;
                retained
            });
            self.stride *= 2;
        }
        self.samples.push((now, value));
        // Next keeper is the next multiple of the (possibly doubled)
        // stride after the index just kept. The stride is a power of two
        // (it starts at 1 and only doubles), so the remainder is a mask.
        let kept = self.offered - 1;
        self.until_keep = self.stride - 1 - (kept & (self.stride - 1));
    }

    /// The retained samples, in time order.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Total observations offered (retained or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Maximum retained points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exact time-weighted mean of the full signal up to `now`.
    pub fn mean(&self, now: f64) -> f64 {
        self.weighted.mean(now)
    }

    /// The most recently offered value.
    pub fn current(&self) -> f64 {
        self.weighted.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_until_capacity_then_decimates() {
        let mut s = TimeSeries::with_capacity("q", 8);
        for i in 0..64 {
            s.record(i as f64, (i * 2) as f64);
        }
        assert_eq!(s.offered(), 64);
        assert!(s.samples().len() <= 8, "len {}", s.samples().len());
        // Time order preserved.
        for w in s.samples().windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        // First sample survives decimation.
        assert_eq!(s.samples()[0], (0.0, 0.0));
    }

    #[test]
    fn decimation_is_deterministic() {
        let run = || {
            let mut s = TimeSeries::with_capacity("x", 16);
            for i in 0..1000 {
                s.record(i as f64 * 0.5, (i % 7) as f64);
            }
            s.samples().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weighted_mean_is_exact_despite_decimation() {
        let mut s = TimeSeries::with_capacity("util", 4);
        // Value 1 on [0, 50), value 3 on [50, 100].
        for i in 0..100 {
            s.record(i as f64, if i < 50 { 1.0 } else { 3.0 });
        }
        let mean = s.mean(100.0);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert_eq!(s.current(), 3.0);
    }
}
