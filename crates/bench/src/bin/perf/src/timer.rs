//! The in-binary timer: a process-wide monotonic clock, order statistics
//! (median, quartiles, the percentile a sample count supports) and a
//! calibrated kernel timer with warm-up.
//!
//! This replaces the role of the 10-iteration `vendor/criterion` shim for
//! every number `perf` reports: the workspace is offline by design, so the
//! harness is owned here.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process. One epoch for every
/// span and sample, so trace timestamps and timer samples share a base.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Order statistics of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median — the spread figure the
    /// benchmark contract bounds. 0 when the median is 0.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so a spread computed here matches the one
/// the driver computes from the same values. One sample is its own
/// quartiles.
///
/// # Panics
/// When `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        max: v[n - 1],
    }
}

/// The candidate tail percentiles, lowest first.
const TAILS: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile with at least ten samples beyond it, if any:
/// p99 needs 1 000 samples, p90 needs 100. Below 100 samples there is no
/// tail to report, only the median.
pub fn top_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
/// When `sorted` is empty.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile needs at least one sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times `op` as an isolated kernel and returns nanoseconds per call.
///
/// One sample is the wall time of `batch` back-to-back calls divided by
/// `batch`; `batch` is doubled until a sample lasts at least 20 µs, so the
/// clock's own cost stays under 1% of what it measures. A tenth of the
/// budget (at least three samples) is spent warming up and discarded; then
/// samples are taken until the budget is spent and at least `min_samples`
/// exist.
pub fn time_kernel(min_samples: usize, budget: Duration, mut op: impl FnMut()) -> Summary {
    let mut batch = 1usize;
    let sample = |op: &mut dyn FnMut(), batch: usize| -> f64 {
        let t0 = now_ns();
        for _ in 0..batch {
            op();
        }
        (now_ns() - t0) as f64 / batch as f64
    };
    while sample(&mut op, batch) * (batch as f64) < 20_000.0 && batch < (1 << 24) {
        batch *= 2;
    }
    let budget_ns = budget.as_nanos() as u64;
    let start = now_ns();
    let mut warm = 0usize;
    while warm < 3 || now_ns() - start < budget_ns / 10 {
        sample(&mut op, batch);
        warm += 1;
    }
    let mut samples = Vec::new();
    while samples.len() < min_samples || now_ns() - start < budget_ns {
        samples.push(sample(&mut op, batch));
    }
    summarize(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 101), n=4) == [25.25, 50.5, 75.75]
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (25.25, 50.5, 75.75));
        assert_eq!((s.n, s.min, s.max), (100, 1.0, 100.0));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        //   == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (3.5, 24.0, 160.0));
        assert!((s.spread() - 156.5 / 24.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the
        // exclusive method extrapolates on tiny samples, unsorted input.
        let s = summarize(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(top_percentile(99), None);
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentile_on_a_uniform_ramp() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn kernel_timer_scales_with_the_work() {
        let work = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i * i));
                }
                std::hint::black_box(x);
            }
        };
        let small = time_kernel(10, Duration::from_millis(20), work(200));
        let large = time_kernel(10, Duration::from_millis(20), work(20_000));
        assert!(small.n >= 10 && large.n >= 10);
        assert!(
            large.median > small.median * 10.0,
            "100x the work must read at least 10x slower ({} vs {})",
            large.median,
            small.median
        );
    }
}
