//! Figure 3 — deviation of RDN-observed service from the ideal
//! reservation, as a function of the averaging interval (1–10 s), for
//! accounting cycle times of 50 ms, 100 ms, 500 ms and 2 s.
//!
//! The metric follows the paper: the service the RDN *observes* through
//! accounting reports (completed generic requests per second) is aggregated
//! over windows of the averaging interval and compared against the
//! reservation; deviations are averaged across subscribers. Longer
//! accounting cycles lump observations into rarer reports, so short
//! averaging windows alternate between ~0 and ~2× the reservation — at
//! (2 s cycle, 1 s interval) the deviation reaches 100 %, while longer
//! intervals smooth the lumping out (the test below checks the closed
//! form).
//!
//! A second run replays a SPECWeb99-shaped trace (heavy-tailed response
//! sizes stressing the per-request usage predictor), the paper's
//! "realistic workload" line.

use gage_cluster::metrics::deviation_for_interval;
use gage_cluster::params::{ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_des::{SimDuration, SimTime};
use gage_workload::SpecWebGenerator;

use crate::common::{format_table, generic_site, site_with_generator};

/// Accounting cycles the paper sweeps.
pub const CYCLES_MS: [u64; 4] = [50, 100, 500, 2_000];
/// Averaging intervals the paper plots (seconds).
pub const INTERVALS_S: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Deviation results for one accounting cycle: `(interval_s, deviation_%)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleLine {
    /// Accounting cycle, milliseconds.
    pub cycle_ms: u64,
    /// One point per averaging interval.
    pub points: Vec<(u64, f64)>,
}

impl CycleLine {
    /// The deviation at a given averaging interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval was not measured.
    pub fn at(&self, interval_s: u64) -> f64 {
        self.points
            .iter()
            .find(|p| p.0 == interval_s)
            .expect("interval measured")
            .1
    }
}

/// Full figure: one line per accounting cycle plus the SPECWeb99 line.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// Synthetic-workload lines.
    pub synthetic: Vec<CycleLine>,
    /// SPECWeb99-shaped line (100 ms accounting cycle).
    pub specweb: CycleLine,
}

const MEASURE_FROM_S: u64 = 20;
const MEASURE_TO_S: u64 = 80;

/// Runs one accounting-cycle configuration. `targets[i]` is subscriber i's
/// expected observed service rate (its offered rate, which equals its
/// reservation-equivalent).
fn deviation_run(
    sites: Vec<SiteSpec>,
    targets: &[f64],
    service: ServiceCostModel,
    cycle_ms: u64,
    seed: u64,
) -> CycleLine {
    let params = ClusterParams {
        rpn_count: 5,
        accounting_cycle: SimDuration::from_millis(cycle_ms),
        service,
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, seed);
    sim.run_until(SimTime::from_secs(MEASURE_TO_S));
    let points = INTERVALS_S
        .iter()
        .map(|&interval_s| {
            // Average across subscribers, as the paper does.
            let devs: Vec<f64> = sim
                .world()
                .metrics
                .iter()
                .zip(targets)
                .filter_map(|(m, &target)| {
                    deviation_for_interval(
                        &m.observed_completions,
                        target,
                        SimTime::from_secs(MEASURE_FROM_S),
                        SimTime::from_secs(MEASURE_TO_S),
                        SimDuration::from_secs(interval_s),
                    )
                })
                .collect();
            let mean = devs.iter().sum::<f64>() / devs.len().max(1) as f64;
            (interval_s, mean)
        })
        .collect();
    CycleLine { cycle_ms, points }
}

/// Synthetic sites: four subscribers, each reserving 100 GRPS and offering
/// exactly 100 generic requests/s (the paper's constant synthetic load).
fn synthetic_sites(horizon: f64, seed: u64) -> (Vec<SiteSpec>, Vec<f64>) {
    let sites = (0..4)
        .map(|i| {
            generic_site(
                &format!("site{i}.example.com"),
                100.0,
                100.0,
                horizon,
                seed + i,
            )
        })
        .collect();
    (sites, vec![100.0; 4])
}

/// Runs the full figure.
pub fn run(seed: u64) -> Fig3 {
    let horizon = MEASURE_TO_S as f64;
    let synthetic = CYCLES_MS
        .iter()
        .map(|&cycle_ms| {
            let (sites, targets) = synthetic_sites(horizon, seed);
            deviation_run(
                sites,
                &targets,
                ServiceCostModel::generic_requests(),
                cycle_ms,
                seed,
            )
        })
        .collect();

    // SPECWeb99-shaped: heavy-tailed sizes stress the predictor and the
    // back-end pipelines; 40 req/s per site with static-file service costs.
    let rate = 40.0;
    let specweb_sites: Vec<SiteSpec> = (0..4)
        .map(|i| {
            let mut gen = SpecWebGenerator::for_target_rate(rate);
            // Reserve generously in resource terms (mean ≈ 8 generic
            // equivalents per response).
            site_with_generator(
                &format!("sw{i}.example.com"),
                rate * 9.0,
                rate,
                horizon,
                &mut gen,
                seed + 10 + i,
            )
        })
        .collect();
    let specweb = deviation_run(
        specweb_sites,
        &[rate; 4],
        ServiceCostModel::static_files(),
        100,
        seed,
    );

    Fig3 { synthetic, specweb }
}

/// Renders the figure as a table (rows = intervals, columns = cycles).
pub fn render(fig: &Fig3) -> String {
    let mut headers: Vec<String> = vec!["Interval(s)".to_string()];
    for line in &fig.synthetic {
        headers.push(format!("{}ms", line.cycle_ms));
    }
    headers.push("SPECWeb(100ms)".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let rows: Vec<Vec<String>> = INTERVALS_S
        .iter()
        .enumerate()
        .map(|(i, interval)| {
            let mut row = vec![interval.to_string()];
            for line in &fig.synthetic {
                row.push(format!("{:.1}%", line.points[i].1));
            }
            row.push(format!("{:.1}%", fig.specweb.points[i].1));
            row
        })
        .collect();
    format_table(&header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shape() {
        let fig = run(7);
        crate::common::assert_golden(
            &render(&fig),
            include_str!("../golden/fig3.txt"),
            "fig3.txt",
        );
        // The closed form: every RPN reports in phase once per cycle C, so
        // a window of W seconds sees ⌊W/C⌋ reports or, in a fraction
        // f = frac(W/C) of windows, ⌈W/C⌉. The mean absolute deviation is
        // then 200·f·(1−f)·C/W percent. Timer noise (±1 %) and clock skew
        // (±200 ppm) stretch or shrink each report's period by at most
        // 1.02 %, which moves a window's observed service by at most that
        // share of its ⌈W/C⌉ reports.
        for line in &fig.synthetic {
            let c_ms = line.cycle_ms;
            for &(w_s, measured) in &line.points {
                let w_ms = w_s * 1_000;
                let f = (w_ms % c_ms) as f64 / c_ms as f64;
                let c_over_w = c_ms as f64 / w_ms as f64;
                let closed = 200.0 * f * (1.0 - f) * c_over_w;
                let tolerance = 100.0 * (0.01 + 200e-6) * w_ms.div_ceil(c_ms) as f64 * c_over_w;
                assert!(
                    (measured - closed).abs() <= tolerance,
                    "C = {c_ms} ms, W = {w_s} s: measured {measured:.2} %, closed form \
                     {closed:.2} ± {tolerance:.2} %"
                );
            }
        }
        // Longer averaging intervals reduce deviation for every cycle.
        for l in &fig.synthetic {
            assert!(
                l.at(10) <= l.at(1) + 1.0,
                "cycle {} did not improve with averaging: {:?}",
                l.cycle_ms,
                l.points
            );
        }
        // SPECWeb stays under ~5 % at ≥4 s intervals (paper's claim).
        assert!(
            fig.specweb.at(4) < 6.0,
            "SPECWeb 4s deviation {:.1}",
            fig.specweb.at(4)
        );
    }
}
