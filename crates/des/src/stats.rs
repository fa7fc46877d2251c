//! Measurement utilities: binned time series, deviation from a target and
//! busy-time tracking.
//!
//! These are the instruments the evaluation harnesses use to turn raw
//! simulation events into the paper's tables and figures (served/dropped
//! rates, deviation-from-reservation, CPU utilization). Latency
//! distributions live in `gage_obs::Histogram`.

use crate::time::{SimDuration, SimTime};

/// A time series accumulated into fixed-width bins.
///
/// Values recorded at time `t` are added to bin `t / bin_width`. The series
/// can later be re-aggregated over any averaging interval that is a multiple
/// of the bin width — exactly what Figure 3's deviation-vs-averaging-interval
/// sweep needs.
///
/// ```rust
/// use gage_des::stats::BinnedSeries;
/// use gage_des::{SimDuration, SimTime};
/// let mut s = BinnedSeries::new(SimDuration::from_millis(100));
/// s.record(SimTime::from_millis(50), 1.0);
/// s.record(SimTime::from_millis(150), 2.0);
/// s.record(SimTime::from_millis(160), 3.0);
/// assert_eq!(s.bins(), &[1.0, 5.0]);
/// ```
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin_width: SimDuration,
    bins: Vec<f64>,
}

impl BinnedSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: SimDuration) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        BinnedSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// Adds `value` to the bin containing instant `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_nanos() / self.bin_width.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// The raw per-bin sums.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Sum of all recorded values.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Re-aggregates into windows of `bins_per_window` consecutive bins,
    /// returning the per-window sums. A trailing partial window is dropped,
    /// so every reported window covers a full interval.
    ///
    /// # Panics
    ///
    /// Panics if `bins_per_window` is zero.
    pub fn window_sums(&self, bins_per_window: usize) -> Vec<f64> {
        assert!(bins_per_window > 0, "window must span at least one bin");
        self.bins
            .chunks_exact(bins_per_window)
            .map(|w| w.iter().sum())
            .collect()
    }

    /// Per-window *rates*: window sums divided by the window length in
    /// seconds. See [`BinnedSeries::window_sums`].
    pub fn window_rates(&self, bins_per_window: usize) -> Vec<f64> {
        let window_secs = self.bin_width.as_secs_f64() * bins_per_window as f64;
        self.window_sums(bins_per_window)
            .into_iter()
            .map(|s| s / window_secs)
            .collect()
    }
}

/// Mean absolute relative deviation of a sequence of observed rates from a
/// target rate, in percent — the metric plotted in the paper's Figure 3.
///
/// Returns `None` if `observed` is empty or `target` is not positive.
pub fn deviation_pct(observed: &[f64], target: f64) -> Option<f64> {
    if observed.is_empty() || target <= 0.0 {
        return None;
    }
    let sum: f64 = observed.iter().map(|o| (o - target).abs() / target).sum();
    Some(100.0 * sum / observed.len() as f64)
}

/// Accumulates busy time for a serially-used resource (e.g. the RDN CPU) so
/// utilization can be reported over arbitrary spans, and per-bin so a
/// utilization-vs-time curve can be extracted.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    series: BinnedSeries,
    total_busy: SimDuration,
}

impl BusyTracker {
    /// Creates a tracker binning busy time at `bin_width`.
    pub fn new(bin_width: SimDuration) -> Self {
        BusyTracker {
            series: BinnedSeries::new(bin_width),
            total_busy: SimDuration::ZERO,
        }
    }

    /// Charges `busy` of work done at instant `t`.
    ///
    /// The charge is attributed entirely to `t`'s bin, which is accurate as
    /// long as individual work items are much shorter than the bin width
    /// (true here: µs-scale work vs. ≥100 ms bins).
    pub fn add(&mut self, t: SimTime, busy: SimDuration) {
        self.series.record(t, busy.as_secs_f64());
        self.total_busy += busy;
    }

    /// Total busy time charged so far.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Overall utilization in `[0, 1]` across `elapsed` of wall time.
    /// Returns 0 for a zero elapsed span.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            (self.total_busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
        }
    }

    /// Per-bin utilization in `[0, 1]`.
    pub fn per_bin_utilization(&self) -> Vec<f64> {
        let w = self.series.bin_width().as_secs_f64();
        self.series
            .bins()
            .iter()
            .map(|b| (b / w).min(1.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binned_series_window_sums_and_rates() {
        let mut s = BinnedSeries::new(SimDuration::from_millis(500));
        // 4 full bins: 1, 2, 3, 4 plus one trailing partial.
        for (ms, v) in [(0, 1.0), (600, 2.0), (1100, 3.0), (1900, 4.0), (2100, 9.0)] {
            s.record(SimTime::from_millis(ms), v);
        }
        assert_eq!(s.window_sums(2), vec![3.0, 7.0]); // 1s windows, partial dropped
        assert_eq!(s.window_rates(2), vec![3.0, 7.0]); // per-second
        assert_eq!(s.total(), 19.0);
    }

    #[test]
    fn deviation_pct_basic() {
        let d = deviation_pct(&[90.0, 110.0], 100.0).unwrap();
        assert!((d - 10.0).abs() < 1e-9);
        assert_eq!(deviation_pct(&[], 100.0), None);
        assert_eq!(deviation_pct(&[1.0], 0.0), None);
    }

    #[test]
    fn deviation_pct_can_exceed_100() {
        // Alternating 0 / 2x target, as in the paper's 2s-cycle/1s-interval
        // data point.
        let d = deviation_pct(&[0.0, 200.0, 0.0, 200.0], 100.0).unwrap();
        assert!((d - 100.0).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_utilization() {
        let mut b = BusyTracker::new(SimDuration::from_millis(100));
        // 30ms busy in the first 100ms bin, 60ms in the second.
        b.add(SimTime::from_millis(10), SimDuration::from_millis(30));
        b.add(SimTime::from_millis(150), SimDuration::from_millis(60));
        let u = b.per_bin_utilization();
        assert!((u[0] - 0.3).abs() < 1e-9);
        assert!((u[1] - 0.6).abs() < 1e-9);
        assert!((b.utilization(SimDuration::from_millis(200)) - 0.45).abs() < 1e-9);
        assert_eq!(b.utilization(SimDuration::ZERO), 0.0);
    }
}
