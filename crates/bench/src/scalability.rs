//! §4.3 — the scalability study: throughput vs. number of RPNs (1–8),
//! per-RPN throughput with and without Gage, the RDN CPU-utilization curve
//! with its interrupt-overload knee, and the intelligent-NIC projection.

use gage_cluster::params::{ClusterParams, GageMode, ServiceCostModel, NETWORK, RDN_COSTS};
use gage_core::config::SchedulerConfig;

use crate::common::{format_table, generic_site, run_and_report};

/// One point of the throughput-scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Back-end count.
    pub rpns: usize,
    /// Served throughput, req/s.
    pub throughput: f64,
    /// RDN CPU utilization at that throughput, `[0, 1]`.
    pub rdn_utilization: f64,
}

/// Full §4.3 results.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalability {
    /// Throughput and utilization for 1–8 RPNs.
    pub points: Vec<ScalePoint>,
    /// One-RPN throughput with the QoS layer bypassed.
    pub per_rpn_without_gage: f64,
    /// One-RPN throughput with Gage.
    pub per_rpn_with_gage: f64,
    /// Projected front-end capacity with an intelligent NIC, req/s
    /// (1 / per-request RDN CPU cost).
    pub projected_rdn_capacity: f64,
    /// Max RPNs one RDN could feed at the measured per-RPN rate.
    pub projected_max_rpns: f64,
    /// Primary RDN utilization at 8 RPNs with two secondary RDNs
    /// shouldering the handshakes (the paper's asymmetric front-end
    /// cluster).
    pub primary_util_with_secondaries: f64,
}

fn static_params(rpns: usize, mode: GageMode) -> ClusterParams {
    ClusterParams {
        rpn_count: rpns,
        mode,
        service: ServiceCostModel::static_files(),
        scheduler: SchedulerConfig {
            queue_capacity: 4_096,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn saturating_run(rpns: usize, mode: GageMode, seed: u64) -> (f64, f64) {
    saturating_run_with(static_params(rpns, mode), rpns, seed)
}

fn saturating_run_with(params: ClusterParams, rpns: usize, seed: u64) -> (f64, f64) {
    // Offer ~15% beyond expected capacity so the cluster saturates.
    let offered = 533.0 * rpns as f64 * 1.15;
    let horizon = 24.0;
    let site = generic_site("bulk.example.com", 1e6, offered, horizon, seed);
    let mut site = site;
    for e in &mut site.trace.entries {
        e.size_bytes = 6 * 1024;
    }
    let (_sim, report) = run_and_report(params, vec![site], horizon as u64, seed);
    (report.total_served, report.rdn_utilization)
}

/// One-RPN saturation throughput `(with_gage, without_gage)` — shared with
/// the overhead analysis.
pub fn run_one_rpn_pair(seed: u64) -> (f64, f64) {
    let (with_gage, _) = saturating_run(1, GageMode::Enabled, seed);
    let (without, _) = saturating_run(1, GageMode::Bypass, seed);
    (with_gage, without)
}

/// Runs the study.
pub fn run(seed: u64) -> Scalability {
    let points = (1..=8)
        .map(|rpns| {
            let (throughput, rdn_utilization) = saturating_run(rpns, GageMode::Enabled, seed);
            ScalePoint {
                rpns,
                throughput,
                rdn_utilization,
            }
        })
        .collect::<Vec<_>>();
    let (per_rpn_without_gage, _) = saturating_run(1, GageMode::Bypass, seed);
    let per_rpn_with_gage = points[0].throughput;

    // Projection: with interrupt handling offloaded to an intelligent NIC,
    // the RDN's per-request cost is just its protocol work.
    let data_pkts = (6 * 1024u64 + 200).div_ceil(NETWORK.mss as u64);
    let per_request_us = RDN_COSTS.conn_setup_us
        + RDN_COSTS.classification_us
        + RDN_COSTS.forwarding_us * (2.0 + data_pkts as f64); // URL + ACK stream + FIN
    let projected_rdn_capacity = 1e6 / per_request_us;
    let projected_max_rpns = projected_rdn_capacity / per_rpn_with_gage;

    // The asymmetric front-end cluster at full scale.
    let (_, primary_util_with_secondaries) = saturating_run_with(
        ClusterParams {
            secondary_rdns: 2,
            ..static_params(8, GageMode::Enabled)
        },
        8,
        seed,
    );

    Scalability {
        points,
        per_rpn_without_gage,
        per_rpn_with_gage,
        projected_rdn_capacity,
        projected_max_rpns,
        primary_util_with_secondaries,
    }
}

/// Renders the study.
pub fn render(s: &Scalability) -> String {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            vec![
                p.rpns.to_string(),
                format!("{:.0}", p.throughput),
                format!("{:.1}", p.throughput / p.rpns as f64),
                format!("{:.1}%", p.rdn_utilization * 100.0),
            ]
        })
        .collect();
    let mut out = format_table(&["RPNs", "Throughput(req/s)", "Per-RPN", "RDN CPU"], &rows);
    let penalty = 100.0 * (s.per_rpn_without_gage - s.per_rpn_with_gage) / s.per_rpn_without_gage;
    out.push_str(&format!(
        "\nper-RPN: {:.1} req/s with Gage vs {:.1} req/s without ({penalty:.1}% penalty; paper: 540 vs 550.5, 1.8%)\n",
        s.per_rpn_with_gage, s.per_rpn_without_gage
    ));
    out.push_str(&format!(
        "projection with intelligent NIC: ≈{:.0} req/s per RDN (≈{:.0} RPNs; paper: 14,000–15,000 req/s, ≈24 RPNs)\n",
        s.projected_rdn_capacity, s.projected_max_rpns
    ));
    out.push_str(&format!(
        "asymmetric front end: with 2 secondary RDNs the primary runs at {:.1}% CPU at 8 RPNs (vs {:.1}% alone)\n",
        s.primary_util_with_secondaries * 100.0,
        s.points[7].rdn_utilization * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_linearly() {
        let s = run(7);
        let t1 = s.points[0].throughput;
        let t8 = s.points[7].throughput;
        assert!((480.0..=600.0).contains(&t1), "1-RPN throughput {t1:.0}");
        let scaling = t8 / t1;
        assert!(
            (7.0..=8.5).contains(&scaling),
            "8-RPN scaling factor {scaling:.2} (t8 {t8:.0})"
        );
        // Per-RPN penalty of Gage is small but real.
        assert!(s.per_rpn_without_gage > s.per_rpn_with_gage);
        let penalty = (s.per_rpn_without_gage - s.per_rpn_with_gage) / s.per_rpn_without_gage;
        assert!(penalty < 0.06, "penalty {:.1}%", penalty * 100.0);
        // Utilization grows with throughput and accelerates near the top.
        let u: Vec<f64> = s.points.iter().map(|p| p.rdn_utilization).collect();
        assert!(
            u[7] > u[3] && u[3] > u[0],
            "utilization not increasing: {u:?}"
        );
        let early_slope = (u[3] - u[0]) / 3.0;
        let late_slope = u[7] - u[6];
        assert!(
            late_slope > 1.5 * early_slope,
            "no knee: early {early_slope:.4}/RPN vs late {late_slope:.4}/RPN ({u:?})"
        );
        // Projection lands in the paper's ballpark.
        assert!(
            (8_000.0..=20_000.0).contains(&s.projected_rdn_capacity),
            "projection {:.0}",
            s.projected_rdn_capacity
        );
        // Secondaries relieve the primary.
        assert!(
            s.primary_util_with_secondaries < s.points[7].rdn_utilization,
            "secondaries should relieve the primary: {:.3} vs {:.3}",
            s.primary_util_with_secondaries,
            s.points[7].rdn_utilization
        );
    }
}
