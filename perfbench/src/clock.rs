//! Every host-clock read of the benchmark, and the sample statistics
//! its report is made of.

use std::time::Instant;

/// The current host instant. The only clock read in the benchmark.
#[inline(always)]
pub fn now() -> Instant {
    // qma-lint: allow(wall-clock) — the benchmark measures host time by design
    Instant::now()
}

/// Host seconds elapsed since `t`.
#[inline]
pub fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}

/// Host nanoseconds elapsed since `t`.
#[inline(always)]
pub fn ns_since(t: Instant) -> u64 {
    now().duration_since(t).as_nanos() as u64
}

/// Times one call of `f`, returning its result and the host seconds
/// it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = now();
    let out = f();
    (out, secs_since(t))
}

/// Replays `batch` (which performs `ops` operations) for about
/// `budget_s` host seconds and returns the nanoseconds per operation
/// of every timed batch. Batches are grown until one takes at least
/// 200 µs, so the clock's own cost stays below 0.1 % of a sample.
pub fn ns_per_op(budget_s: f64, ops: usize, mut batch: impl FnMut()) -> Samples {
    let start = now();
    let mut reps = 1usize;
    loop {
        let (_, s) = timed(|| (0..reps).for_each(|_| batch()));
        if s >= 2e-4 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let mut out = Samples::default();
    while out.len() < 5 || secs_since(start) < budget_s {
        let (_, s) = timed(|| (0..reps).for_each(|_| batch()));
        out.push(s * 1e9 / (reps * ops) as f64);
    }
    out
}

/// Keeps a closed loop inside its time budget: another round starts
/// only while the minimum number of rounds is not reached, or while a
/// round as long as the longest one so far still ends in time.
pub struct Deadline {
    start: Instant,
    end_s: f64,
    min_rounds: usize,
    rounds: usize,
    last_s: f64,
    longest_s: f64,
}

impl Deadline {
    /// A budget ending `end_s` host seconds after `start`.
    pub fn new(start: Instant, end_s: f64, min_rounds: usize) -> Self {
        Deadline {
            start,
            end_s,
            min_rounds,
            rounds: 0,
            last_s: secs_since(start),
            longest_s: 0.0,
        }
    }

    /// Whether to start another round.
    pub fn another(&mut self) -> bool {
        let now_s = secs_since(self.start);
        if self.rounds > 0 {
            self.longest_s = self.longest_s.max(now_s - self.last_s);
        }
        self.last_s = now_s;
        self.rounds += 1;
        self.rounds <= self.min_rounds || now_s + self.longest_s <= self.end_s
    }
}

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one measurement.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), linearly interpolated between
    /// order statistics; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    /// beyond it, as `(percentile, value)`; `None` below 40 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.0.len() as f64;
        [99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .map(|p| (p, self.quantile(p / 100.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(s.tail().is_none());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        (0..200).for_each(|i| s.push(i as f64));
        assert_eq!(s.tail().map(|t| t.0), Some(95.0));
    }
}
