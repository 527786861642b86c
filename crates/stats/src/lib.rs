//! Statistics plumbing for the BulkSC reproduction.
//!
//! Every quantity the paper reports in Tables 3–4 and Figures 9–11 is one of
//! a handful of statistical shapes:
//!
//! * plain event counts (squashes, commits, messages) — plain `u64` fields,
//!   with the rate helpers in [`rates`];
//! * means over a population (average read-set size per chunk) —
//!   [`RunningMean`];
//! * time-weighted averages and occupancy (pending W signatures in the
//!   arbiter, % of time the W list is non-empty) — [`TimeWeighted`];
//! * geometric means across applications (the `SP2-G.M.` column) —
//!   [`geomean`];
//! * latency distributions (per-phase commit latency percentiles) —
//!   [`hist::Histogram`];
//! * cycle-loss attribution (where each core's cycles went) —
//!   [`hist::CycleLoss`];
//! * aligned text tables mirroring the paper's layout — [`table::Table`];
//!
//! plus the integer-keyed [`IntMap`] / [`IntSet`] the simulator and the
//! oracle hash addresses with.

pub mod hash;
pub mod hist;
pub mod rates;
pub mod rng;
pub mod table;

pub use hash::{IntHasher, IntMap, IntSet};
pub use hist::{CycleLoss, Histogram};
pub use rates::{per_100k, per_1k, percent};
pub use rng::SplitMix64;
pub use table::Table;

/// Arithmetic mean accumulated one sample at a time.
///
/// # Example
///
/// ```
/// use bulksc_stats::RunningMean;
/// let mut m = RunningMean::new();
/// m.add(2.0);
/// m.add(4.0);
/// assert_eq!(m.mean(), 3.0);
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    count: u64,
}

impl RunningMean {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn add(&mut self, sample: f64) {
        self.sum += sample;
        self.count += 1;
    }

    /// The mean of the samples so far, or 0 if none were added.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Time-weighted average of a piecewise-constant quantity.
///
/// Feed it level changes with [`TimeWeighted::set`] and close the window
/// with [`TimeWeighted::finish`]; it reports the average level and the
/// fraction of time the level was non-zero. This is how the paper's
/// "# of Pend. W Sigs." and "Non-Empty W List (% Time)" columns (Table 4)
/// are measured.
///
/// # Example
///
/// ```
/// use bulksc_stats::TimeWeighted;
/// let mut t = TimeWeighted::new();
/// t.set(0, 2.0); // level 2 from cycle 0
/// t.set(10, 0.0); // level 0 from cycle 10
/// t.finish(20);
/// assert_eq!(t.average(), 1.0);
/// assert_eq!(t.nonzero_fraction(), 0.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeWeighted {
    weighted_sum: f64,
    nonzero_time: u64,
    total_time: u64,
    last_change: u64,
    level: f64,
    finished: bool,
}

impl TimeWeighted {
    /// A fresh accumulator with level 0 at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the quantity changed to `level` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous change or if the window was
    /// already [`finish`](Self::finish)ed.
    pub fn set(&mut self, now: u64, level: f64) {
        assert!(!self.finished, "window already finished");
        assert!(now >= self.last_change, "time went backwards");
        self.account(now);
        self.level = level;
    }

    fn account(&mut self, now: u64) {
        let dt = now - self.last_change;
        self.weighted_sum += self.level * dt as f64;
        if self.level != 0.0 {
            self.nonzero_time += dt;
        }
        self.total_time += dt;
        self.last_change = now;
    }

    /// Close the measurement window at time `end`.
    ///
    /// # Panics
    ///
    /// Panics if called twice or if `end` precedes the last change.
    pub fn finish(&mut self, end: u64) {
        assert!(!self.finished, "window already finished");
        assert!(end >= self.last_change, "time went backwards");
        self.account(end);
        self.finished = true;
    }

    /// Time-weighted average level over the window.
    pub fn average(&self) -> f64 {
        if self.total_time == 0 {
            0.0
        } else {
            self.weighted_sum / self.total_time as f64
        }
    }

    /// Fraction of the window during which the level was non-zero.
    pub fn nonzero_fraction(&self) -> f64 {
        if self.total_time == 0 {
            0.0
        } else {
            self.nonzero_time as f64 / self.total_time as f64
        }
    }
}

/// Geometric mean of a slice of positive values; 0 if empty.
///
/// Used for the paper's `SP2-G.M.` speedup column.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
///
/// # Example
///
/// ```
/// let g = bulksc_stats::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_basics() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        m.add(1.0);
        m.add(2.0);
        m.add(3.0);
        assert_eq!(m.mean(), 2.0);
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum(), 6.0);
    }

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::new();
        a.add(1.0);
        let mut b = RunningMean::new();
        b.add(3.0);
        a.merge(&b);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn time_weighted_tracks_levels() {
        let mut t = TimeWeighted::new();
        t.set(0, 1.0);
        t.set(4, 3.0);
        t.finish(8);
        // 4 cycles at 1 + 4 cycles at 3 = 16 over 8 cycles.
        assert_eq!(t.average(), 2.0);
        assert_eq!(t.nonzero_fraction(), 1.0);
    }

    #[test]
    fn time_weighted_zero_time() {
        let mut t = TimeWeighted::new();
        t.finish(0);
        assert_eq!(t.average(), 0.0);
        assert_eq!(t.nonzero_fraction(), 0.0);
    }

    #[test]
    fn time_weighted_partial_occupancy() {
        let mut t = TimeWeighted::new();
        t.set(10, 4.0);
        t.finish(40);
        // 10 cycles at 0, 30 at 4 => avg 3, nonzero 75%.
        assert_eq!(t.average(), 3.0);
        assert_eq!(t.nonzero_fraction(), 0.75);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_backwards_time() {
        let mut t = TimeWeighted::new();
        t.set(5, 1.0);
        t.set(4, 0.0);
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn time_weighted_rejects_use_after_finish() {
        let mut t = TimeWeighted::new();
        t.finish(1);
        t.set(2, 1.0);
    }

    #[test]
    fn geomean_values() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
