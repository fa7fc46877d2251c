//! Measurement state and end-of-run reporting for the simulated cluster.

use gage_des::stats::{deviation_pct, BinnedSeries, BusyTracker};
use gage_des::{SimDuration, SimTime};

/// Fine-grained bin used by all time series; averaging intervals and
/// accounting cycles must be multiples of this (50 ms covers the paper's
/// whole sweep).
pub const METRIC_BIN: SimDuration = SimDuration::from_millis(50);

/// Per-subscriber measurement state, recorded as events happen.
#[derive(Debug, Clone)]
pub struct SubscriberMetrics {
    /// Requests issued by clients (offered load), at issue time.
    pub offered: BinnedSeries,
    /// Requests completed (response fully received), at completion time.
    pub served: BinnedSeries,
    /// Requests refused by the RDN (queue overflow, unknown host,
    /// unrecoverable dispatch), recorded when the RST reaches the client.
    pub dropped: BinnedSeries,
    /// Requests that timed out at the client after exhausting retries,
    /// at final-timeout time. Together with `served` and `dropped` this
    /// completes the conservation invariant: every offered request lands in
    /// exactly one of the three buckets.
    pub failed: BinnedSeries,
    /// RDN-observed resource usage in generic-request equivalents, recorded
    /// when accounting reports arrive.
    pub observed_usage: BinnedSeries,
    /// RDN-observed completed requests, recorded when accounting reports
    /// arrive — the paper's GRPS service metric (what Figure 3 plots).
    pub observed_completions: BinnedSeries,
    /// End-to-end latency of completed requests in milliseconds, in the
    /// registry's deterministic log2-bucket histogram (exact mean, min and
    /// max; p50/p95/p99 via [`gage_obs::Histogram::quantile`]).
    pub latency_ms: gage_obs::Histogram,
    /// RDN queue wait (enqueue → dispatch) of dispatched request attempts,
    /// milliseconds, same bucket scheme.
    pub queue_wait_ms: gage_obs::Histogram,
}

impl Default for SubscriberMetrics {
    fn default() -> Self {
        SubscriberMetrics {
            offered: BinnedSeries::new(METRIC_BIN),
            served: BinnedSeries::new(METRIC_BIN),
            dropped: BinnedSeries::new(METRIC_BIN),
            failed: BinnedSeries::new(METRIC_BIN),
            observed_usage: BinnedSeries::new(METRIC_BIN),
            observed_completions: BinnedSeries::new(METRIC_BIN),
            latency_ms: gage_obs::Histogram::default(),
            queue_wait_ms: gage_obs::Histogram::default(),
        }
    }
}

/// RDN-side measurement state.
#[derive(Debug, Clone)]
pub struct RdnMetrics {
    /// CPU busy time (all per-operation and interrupt costs).
    pub busy: BusyTracker,
    /// Packets handled (in + out), per bin — drives the interrupt model.
    pub packets: BinnedSeries,
    /// Lifetime packet count.
    pub packet_count: u64,
}

impl Default for RdnMetrics {
    fn default() -> Self {
        RdnMetrics {
            busy: BusyTracker::new(METRIC_BIN),
            packets: BinnedSeries::new(METRIC_BIN),
            packet_count: 0,
        }
    }
}

impl RdnMetrics {
    /// Sustained packet rate estimate: packets in the previous full bin
    /// divided by the bin width (0 during the first bin).
    pub fn recent_packet_rate(&self, now: SimTime) -> f64 {
        let idx = (now.as_nanos() / METRIC_BIN.as_nanos()) as usize;
        if idx == 0 {
            return 0.0;
        }
        let bins = self.packets.bins();
        let prev = bins.get(idx - 1).copied().unwrap_or(0.0);
        prev / METRIC_BIN.as_secs_f64()
    }
}

/// One subscriber's row in a finished run's report (rates over the
/// measurement window, in requests or GRPS per second).
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriberRow {
    /// Subscriber index.
    pub subscriber: u32,
    /// Host name.
    pub host: String,
    /// Reservation, GRPS.
    pub reservation: f64,
    /// Offered load, requests/s.
    pub offered: f64,
    /// Served (completed), requests/s.
    pub served: f64,
    /// Dropped at the RDN, requests/s.
    pub dropped: f64,
    /// Failed at the client (timeout after retries), requests/s.
    pub failed: f64,
    /// Mean end-to-end latency, milliseconds.
    pub mean_latency_ms: f64,
}

/// Aggregated results of one simulated run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-subscriber rates over the measurement window.
    pub subscribers: Vec<SubscriberRow>,
    /// Total served rate, requests/s.
    pub total_served: f64,
    /// RDN CPU utilization over the measurement window, `[0, 1]`.
    pub rdn_utilization: f64,
    /// Measurement window used.
    pub window: (SimTime, SimTime),
}

impl ClusterReport {
    /// Pretty-prints the report as an aligned table (one row per
    /// subscriber), mirroring the paper's Table 1/2 format.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "Subscriber            Reservation  Offered   Served    Dropped   Failed    Latency(ms)\n",
        );
        for r in &self.subscribers {
            out.push_str(&format!(
                "{:<21} {:>11.1} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>12.2}\n",
                r.host, r.reservation, r.offered, r.served, r.dropped, r.failed, r.mean_latency_ms
            ));
        }
        out.push_str(&format!(
            "total served {:.1} req/s, RDN CPU {:.1}%\n",
            self.total_served,
            self.rdn_utilization * 100.0
        ));
        out
    }
}

/// Extracts windowed per-second rates from a series over `[from, to)`.
///
/// Returns 0 for an empty window.
pub fn rate_in_window(series: &BinnedSeries, from: SimTime, to: SimTime) -> f64 {
    let bw = series.bin_width().as_nanos();
    let lo = (from.as_nanos() / bw) as usize;
    let hi = (to.as_nanos() / bw) as usize;
    if hi <= lo {
        return 0.0;
    }
    let bins = series.bins();
    let sum: f64 = (lo..hi).map(|i| bins.get(i).copied().unwrap_or(0.0)).sum();
    let secs = (hi - lo) as f64 * series.bin_width().as_secs_f64();
    sum / secs
}

/// Mean per-bin utilization of a [`METRIC_BIN`]-binned busy tracker over
/// `[from, to)`.
///
/// Returns 0 for an empty window.
pub fn utilization_in_window(busy: &BusyTracker, from: SimTime, to: SimTime) -> f64 {
    let bw = METRIC_BIN.as_nanos();
    let lo = (from.as_nanos() / bw) as usize;
    let hi = (to.as_nanos() / bw) as usize;
    if hi <= lo {
        return 0.0;
    }
    let bins = busy.per_bin_utilization();
    (lo..hi)
        .map(|i| bins.get(i).copied().unwrap_or(0.0))
        .sum::<f64>()
        / (hi - lo) as f64
}

/// Computes the Figure-3 deviation metric for one subscriber: observed
/// usage (GRPS) over `[from, to)` re-aggregated into `interval`-long
/// windows, compared against `reservation_grps`.
///
/// Returns `None` if the window does not contain a whole interval or the
/// interval is not a multiple of the metric bin.
pub fn deviation_for_interval(
    observed_usage: &BinnedSeries,
    reservation_grps: f64,
    from: SimTime,
    to: SimTime,
    interval: SimDuration,
) -> Option<f64> {
    let bw = observed_usage.bin_width().as_nanos();
    if !interval.as_nanos().is_multiple_of(bw) {
        return None;
    }
    let bins_per_window = (interval.as_nanos() / bw) as usize;
    let lo = (from.as_nanos() / bw) as usize;
    let hi = (to.as_nanos() / bw) as usize;
    let bins = observed_usage.bins();
    let slice: Vec<f64> = (lo..hi.min(bins.len())).map(|i| bins[i]).collect();
    let window_secs = interval.as_secs_f64();
    let rates: Vec<f64> = slice
        .chunks_exact(bins_per_window)
        .map(|w| w.iter().sum::<f64>() / window_secs)
        .collect();
    deviation_pct(&rates, reservation_grps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_in_window_basic() {
        let mut s = BinnedSeries::new(METRIC_BIN);
        // 10 events in [0, 1s): rate 10/s over that window.
        for i in 0..10 {
            s.record(SimTime::from_millis(i * 100), 1.0);
        }
        let r = rate_in_window(&s, SimTime::ZERO, SimTime::from_secs(1));
        assert!((r - 10.0).abs() < 1e-9);
        // Empty second window.
        let r2 = rate_in_window(&s, SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(r2, 0.0);
        // Degenerate window.
        assert_eq!(rate_in_window(&s, SimTime::ZERO, SimTime::ZERO), 0.0);
    }

    #[test]
    fn deviation_alternating_pattern_is_100pct() {
        // Usage arrives only every 2 s (2-second accounting cycle) in lumps
        // of 100 generic requests; reservation 50 GRPS. With a 1 s
        // averaging interval the windows alternate 100, 0, 100, 0 → 100%.
        let mut s = BinnedSeries::new(METRIC_BIN);
        for k in 0..5u64 {
            s.record(SimTime::from_secs(2 * k), 100.0);
        }
        let d = deviation_for_interval(
            &s,
            50.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimDuration::from_secs(1),
        )
        .unwrap();
        assert!((d - 100.0).abs() < 1e-9, "got {d}");
        // With a 2 s interval the same data deviates 0%.
        let d2 = deviation_for_interval(
            &s,
            50.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimDuration::from_secs(2),
        )
        .unwrap();
        assert!(d2.abs() < 1e-9, "got {d2}");
    }

    #[test]
    fn deviation_rejects_non_multiple_interval() {
        let s = BinnedSeries::new(METRIC_BIN);
        assert_eq!(
            deviation_for_interval(
                &s,
                1.0,
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimDuration::from_millis(75),
            ),
            None
        );
    }

    #[test]
    fn recent_packet_rate_uses_previous_bin() {
        let mut m = RdnMetrics::default();
        for _ in 0..500 {
            m.packets.record(SimTime::from_millis(10), 1.0);
        }
        // During bin 0 there is no history.
        assert_eq!(m.recent_packet_rate(SimTime::from_millis(20)), 0.0);
        // During bin 1, the previous bin had 500 packets / 50 ms = 10k pps.
        let r = m.recent_packet_rate(SimTime::from_millis(60));
        assert!((r - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn report_table_formats() {
        let rep = ClusterReport {
            subscribers: vec![SubscriberRow {
                subscriber: 0,
                host: "site1".into(),
                reservation: 250.0,
                offered: 259.4,
                served: 259.4,
                dropped: 0.0,
                failed: 0.0,
                mean_latency_ms: 25.0,
            }],
            total_served: 259.4,
            rdn_utilization: 0.11,
            window: (SimTime::ZERO, SimTime::from_secs(30)),
        };
        let t = rep.to_table();
        assert!(t.contains("site1"));
        assert!(t.contains("259.4"));
        assert!(t.contains("Failed"));
        assert!(t.contains("RDN CPU 11.0%"));
    }
}
