//! Table 1 — QoS guarantee under excessive input load (performance
//! isolation).
//!
//! Three subscribers with reservations 250/150/50 GRPS. site1 and site2
//! offer roughly their reservations; site3 offers ~8× its reservation. The
//! cluster's capacity (~786 GRPS, matching the paper's implied saturation
//! point) can absorb the reserved load plus part of site3's excess; the
//! rest is dropped. Gage must (a) fully serve site1/site2 and (b) hand the
//! residual capacity to site3.

use gage_cluster::params::{ClusterParams, ServiceCostModel};

use crate::common::{format_table, generic_site, run_and_report};

/// One subscriber's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Site name.
    pub site: &'static str,
    /// Reservation, GRPS.
    pub reservation: f64,
    /// Offered load measured, req/s.
    pub input: f64,
    /// Served, req/s.
    pub served: f64,
    /// Dropped, req/s.
    pub dropped: f64,
}

/// The paper's published Table 1, for side-by-side comparison.
pub const PAPER: [(f64, f64, f64, f64); 3] = [
    (250.0, 259.4, 259.4, 0.0),
    (150.0, 161.1, 161.1, 0.0),
    (50.0, 390.3, 365.4, 24.9),
];

/// Runs the experiment; deterministic for a given seed.
pub fn run(seed: u64) -> Vec<Row> {
    let horizon = 40.0;
    let sites = vec![
        generic_site("site1.example.com", 250.0, 259.4, horizon, seed + 1),
        generic_site("site2.example.com", 150.0, 161.1, horizon, seed + 2),
        generic_site("site3.example.com", 50.0, 390.3, horizon, seed + 3),
    ];
    // 8 RPNs at 0.985× reference speed ≈ 786 GRPS, the capacity the paper's
    // numbers imply (259.4 + 161.1 + 365.4).
    let params = ClusterParams {
        rpn_count: 8,
        rpn_speed: 0.985,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let (_sim, report) = run_and_report(params, sites, horizon as u64, seed);
    report
        .subscribers
        .iter()
        .zip(["site1", "site2", "site3"])
        .map(|(r, site)| Row {
            site,
            reservation: r.reservation,
            input: r.offered,
            served: r.served,
            dropped: r.dropped,
        })
        .collect()
}

/// Renders measured-vs-paper as a table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .zip(PAPER)
        .map(|(r, (_, p_in, p_served, p_dropped))| {
            vec![
                r.site.to_string(),
                format!("{:.0}", r.reservation),
                format!("{:.1}", r.input),
                format!("{:.1}", r.served),
                format!("{:.1}", r.dropped),
                format!("{p_in:.1}"),
                format!("{p_served:.1}"),
                format!("{p_dropped:.1}"),
            ]
        })
        .collect();
    format_table(
        &[
            "Subscriber",
            "Reservation",
            "Input",
            "Served",
            "Dropped",
            "(paper In)",
            "(paper Served)",
            "(paper Dropped)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rows = run(7);
        crate::common::assert_golden(
            &render(&rows),
            include_str!("../golden/table1.txt"),
            "table1.txt",
        );
        // Sites within reservation fully served, nothing dropped.
        for r in &rows[..2] {
            assert!(
                (r.served - r.input).abs() / r.input < 0.03,
                "{}: served {} of {}",
                r.site,
                r.served,
                r.input
            );
            assert!(r.dropped < 1.0, "{} dropped {}", r.site, r.dropped);
        }
        // The overloaded site is partially served, partially dropped.
        let s3 = &rows[2];
        assert!(
            s3.served > 300.0 && s3.served < 390.0,
            "site3 served {}",
            s3.served
        );
        assert!(s3.dropped > 5.0, "site3 dropped {}", s3.dropped);
    }
}
